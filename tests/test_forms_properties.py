"""Chain boundary and evaluation against a cell-by-cell reference walk."""

import numpy as np
import pytest

from defectfield import Chain, CubicalComplex, DiscreteForm, annulus_complex, boundary, evaluate
from defectfield.forms import hole_cycle

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SETTINGS = hypothesis.settings(deadline=None, database=None, max_examples=80)


def reference_boundary(cx, degree, coeffs):
    """Boundary by walking each cell's oriented faces, from the index layout alone."""
    out = {}
    for cell, coef in coeffs.items():
        if degree == 2:
            i, j = cell % (cx.nx - 1), cell // (cx.nx - 1)
            lower = {cx.xedge_index(i, j): 1, cx.yedge_index(i + 1, j): 1,
                     cx.xedge_index(i, j + 1): -1, cx.yedge_index(i, j): -1}
        elif cell < cx.n_xedges:
            i, j = cell % (cx.nx - 1), cell // (cx.nx - 1)
            lower = {cx.vertex_index(i, j): -1, cx.vertex_index(i + 1, j): 1}
        else:
            i, j = (cell - cx.n_xedges) % cx.nx, (cell - cx.n_xedges) // cx.nx
            lower = {cx.vertex_index(i, j): -1, cx.vertex_index(i, j + 1): 1}
        for face, sign in lower.items():
            out[face] = out.get(face, 0) + coef * sign
    return {cell: coef for cell, coef in out.items() if coef != 0}


@st.composite
def complexes(draw):
    nx, ny = draw(st.integers(2, 9)), draw(st.integers(2, 9))
    if nx >= 4 and ny >= 4 and draw(st.booleans()):
        i0 = draw(st.integers(1, nx - 3))
        j0 = draw(st.integers(1, ny - 3))
        hole = (i0, draw(st.integers(i0 + 1, nx - 2)), j0, draw(st.integers(j0 + 1, ny - 2)))
        return annulus_complex(nx, ny, hole)
    return CubicalComplex(nx, ny)


@st.composite
def chains(draw):
    cx = draw(complexes())
    degree = draw(st.sampled_from([1, 2]))
    # small coefficient ranges on small complexes make cancellations common
    coeffs = draw(st.dictionaries(st.integers(0, cx.n_cells(degree) - 1),
                                  st.integers(-3, 3), max_size=12))
    return Chain(cx, degree, coeffs)


@SETTINGS
@hypothesis.given(chains(), st.randoms(use_true_random=False))
def test_boundary_and_evaluate_match_reference_walk(chain, rnd):
    cx, degree = chain.cx, chain.degree
    edges = boundary(chain)
    assert edges.degree == degree - 1
    assert edges.coeffs == reference_boundary(cx, degree, chain.coeffs)
    assert boundary(chain - chain).coeffs == {}
    if degree == 2:
        assert boundary(edges).coeffs == {}
    # integer-valued forms make every sum exact, whatever its order
    for c in (chain, edges):
        values = np.array([rnd.randint(-2 ** 20, 2 ** 20) for _ in range(cx.n_cells(c.degree))],
                          dtype=float)
        form = DiscreteForm(cx, c.degree, values)
        assert evaluate(form, c) == sum(values[cell] * coef for cell, coef in c.coeffs.items())


def test_empty_and_cancelling_chains():
    cx = CubicalComplex(5, 4)
    assert boundary(Chain(cx, 2, {})).coeffs == {}
    assert boundary(Chain(cx, 1, {3: 0})).coeffs == {}
    # two neighbouring faces share an edge, which cancels
    pair = Chain(cx, 2, {cx.face_index(1, 1): 1, cx.face_index(2, 1): 1})
    edges = boundary(pair)
    assert cx.yedge_index(2, 1) not in edges.coeffs
    assert edges.coeffs == reference_boundary(cx, 2, pair.coeffs)
    form = DiscreteForm(cx, 1, np.arange(cx.n_edges, dtype=float))
    assert evaluate(form, Chain(cx, 1, {})) == 0.0


@SETTINGS
@hypothesis.given(st.integers(4, 12), st.integers(4, 12), st.data())
def test_hole_cycle_matches_reference_walk(nx, ny, data):
    i0 = data.draw(st.integers(1, nx - 3))
    j0 = data.draw(st.integers(1, ny - 3))
    hole = (i0, data.draw(st.integers(i0 + 1, nx - 2)), j0, data.draw(st.integers(j0 + 1, ny - 2)))
    cx = annulus_complex(nx, ny, hole)
    missing = {int(f): 1 for f in np.flatnonzero(~cx.face_present)}
    cycle = hole_cycle(cx)
    assert cycle.coeffs == reference_boundary(cx, 2, missing)
    assert boundary(cycle).coeffs == {}
