"""Chain boundary, evaluation and the Stokes residual against reference computations
over the whole complex: a cell-by-cell walk, the transposed incidence matrices, and
the meshgrid construction of those matrices."""

import math

import numpy as np
import pytest
from scipy import sparse

from defectfield import (
    Chain,
    CubicalComplex,
    DiscreteForm,
    annulus_complex,
    boundary,
    coboundary,
    evaluate,
    stokes_residual,
    winding_one_form,
)
from defectfield.forms import hole_cycle

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SETTINGS = hypothesis.settings(deadline=None, database=None, max_examples=80)


# The cell numbering, x fastest, written out here so that the references do not
# take it from the code they check: vertices, then x-edges before y-edges, then faces.
def vertex(cx, i, j):
    return j * cx.nx + i


def xedge(cx, i, j):
    return j * (cx.nx - 1) + i


def yedge(cx, i, j):
    return (cx.nx - 1) * cx.ny + j * cx.nx + i


def face(cx, i, j):
    return j * (cx.nx - 1) + i


def reference_boundary(cx, degree, coeffs):
    """Boundary by walking each cell's oriented faces, from the index layout alone."""
    n_xedges = (cx.nx - 1) * cx.ny
    out = {}
    for cell, coef in coeffs.items():
        if degree == 2:
            i, j = cell % (cx.nx - 1), cell // (cx.nx - 1)
            lower = {xedge(cx, i, j): 1, yedge(cx, i + 1, j): 1,
                     xedge(cx, i, j + 1): -1, yedge(cx, i, j): -1}
        elif cell < n_xedges:
            i, j = cell % (cx.nx - 1), cell // (cx.nx - 1)
            lower = {vertex(cx, i, j): -1, vertex(cx, i + 1, j): 1}
        else:
            i, j = (cell - n_xedges) % cx.nx, (cell - n_xedges) // cx.nx
            lower = {vertex(cx, i, j): -1, vertex(cx, i, j + 1): 1}
        for low, sign in lower.items():
            out[low] = out.get(low, 0) + coef * sign
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


@st.composite
def summed_chains(draw):
    """A chain summed from single cells, so cells repeat and may cancel; may be empty."""
    cx = draw(complexes())
    degree = draw(st.sampled_from([1, 2]))
    coeffs = {}
    terms = draw(st.lists(st.tuples(st.integers(0, cx.n_cells(degree) - 1),
                                    st.integers(-3, 3)), max_size=12))
    for cell, coef in terms:
        coeffs[cell] = coeffs.get(cell, 0) + coef
        if draw(st.booleans()):   # the same cell again, sometimes cancelling it
            coeffs[cell] += draw(st.sampled_from([-coef, coef]))
    return Chain(cx, degree, coeffs)


def meshgrid_incidence(cx):
    """Edge-by-vertex and face-by-edge incidence (d0, d1) as CSR matrices.

    Built from meshgrids of node indices and converted from COO, which sorts
    each row's columns: a product adds a row in ascending column order.
    """
    nx, ny = cx.nx, cx.ny
    i, j = np.meshgrid(np.arange(nx - 1), np.arange(ny), indexing="ij")
    xe = xedge(cx, i.ravel(), j.ravel())
    xt = vertex(cx, i.ravel(), j.ravel())
    xh = vertex(cx, i.ravel() + 1, j.ravel())
    i, j = np.meshgrid(np.arange(nx), np.arange(ny - 1), indexing="ij")
    ye = yedge(cx, i.ravel(), j.ravel())
    yt = vertex(cx, i.ravel(), j.ravel())
    yh = vertex(cx, i.ravel(), j.ravel() + 1)
    data = np.concatenate([-np.ones_like(xe), np.ones_like(xe),
                           -np.ones_like(ye), np.ones_like(ye)])
    d0 = sparse.csr_matrix((data, (np.concatenate([xe, xe, ye, ye]),
                                   np.concatenate([xt, xh, yt, yh]))),
                           shape=(cx.n_edges, cx.n_vertices), dtype=np.int64)
    i, j = np.meshgrid(np.arange(nx - 1), np.arange(ny - 1), indexing="ij")
    i, j = i.ravel(), j.ravel()
    f = face(cx, i, j)
    cols = np.concatenate([xedge(cx, i, j), yedge(cx, i + 1, j),
                           xedge(cx, i, j + 1), yedge(cx, i, j)])
    ones = np.ones_like(f)
    d1 = sparse.csr_matrix((np.concatenate([ones, ones, -ones, -ones]),
                            (np.concatenate([f, f, f, f]), cols)),
                           shape=(cx.n_faces, cx.n_edges), dtype=np.int64)
    return d0, d1


@SETTINGS
@hypothesis.given(chains(), st.randoms(use_true_random=False))
def test_boundary_and_evaluate_match_reference_walk(chain, rnd):
    cx, degree = chain.cx, chain.degree
    edges = boundary(chain)
    assert edges.degree == degree - 1
    assert edges.coeffs == reference_boundary(cx, degree, chain.coeffs)
    negated = Chain(cx, degree, {cell: -coef for cell, coef in chain.coeffs.items()})
    assert boundary(negated).coeffs == {cell: -coef for cell, coef in edges.coeffs.items()}
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
    pair = Chain(cx, 2, {face(cx, 1, 1): 1, face(cx, 2, 1): 1})
    edges = boundary(pair)
    assert yedge(cx, 2, 1) not in edges.coeffs
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


@SETTINGS
@hypothesis.given(complexes(), st.sampled_from([1, 2]), st.data())
def test_lower_cells_are_the_incidence_rows(cx, degree, data):
    cells = data.draw(st.lists(st.integers(0, cx.n_cells(degree) - 1), min_size=1, max_size=8))
    cells += cells[:2]   # a repeated cell gives a repeated row
    lower, signs = cx.lower_cells(degree, cells)
    rows = meshgrid_incidence(cx)[degree - 1][cells].toarray()
    for k in range(len(cells)):
        assert np.all(np.diff(lower[k]) > 0)
        want = np.zeros(cx.n_cells(degree - 1), dtype=np.int64)
        want[lower[k]] = signs
        assert np.array_equal(rows[k], want)


@SETTINGS
@hypothesis.given(summed_chains())
def test_boundary_matches_whole_complex_product(chain):
    cx, degree = chain.cx, chain.degree
    transposed = meshgrid_incidence(cx)[degree - 1].T.tocsr()
    coefs = np.zeros(transposed.shape[1], dtype=np.int64)
    coefs[list(chain.coeffs)] = list(chain.coeffs.values())
    product = transposed @ coefs
    cells = np.flatnonzero(product)
    edges = boundary(chain)
    assert list(edges.coeffs) == cells.tolist()   # ascending
    assert list(edges.coeffs.values()) == product[cells].tolist()


@SETTINGS
@hypothesis.given(summed_chains(), st.integers(0, 2 ** 32 - 1), st.floats(-8, 8))
def test_stokes_residual_is_the_whole_complex_difference(chain, seed, exponent):
    # bit for bit: the chain-local sum follows coboundary's order within each row
    cx, degree = chain.cx, chain.degree
    rng = np.random.default_rng(seed)
    form = DiscreteForm(cx, degree - 1,
                        rng.standard_normal(cx.n_cells(degree - 1)) * 10.0 ** exponent)
    want = evaluate(coboundary(form), chain) - evaluate(form, boundary(chain))
    got = stokes_residual(form, chain)
    assert got == want and np.signbit(got) == np.signbit(want)


@st.composite
def any_complexes(draw):
    """From 2x2 nodes up, square or not, with no face mask or an arbitrary one."""
    nx, ny = draw(st.integers(2, 9)), draw(st.integers(2, 9))
    mask = None
    if draw(st.booleans()):
        size = (nx - 1) * (ny - 1)
        mask = np.reshape(draw(st.lists(st.booleans(), min_size=size, max_size=size)),
                          (nx - 1, ny - 1))
    spacing = draw(st.sampled_from([(1.0, 1.0), (0.5, 2.0), (0.3, 0.7)]))
    origin = draw(st.sampled_from([(0.0, 0.0), (-2.0, -1.5), (0.25, 3.0)]))
    return CubicalComplex(nx, ny, spacing=spacing, origin=origin, face_mask=mask)


@SETTINGS
@hypothesis.example(CubicalComplex(2, 2), 0, 0.0)
@hypothesis.example(CubicalComplex(2, 2, face_mask=[[False]]), 1, 3.0)
@hypothesis.example(CubicalComplex(2, 6), 2, -7.5)
@hypothesis.example(CubicalComplex(7, 3, face_mask=np.eye(6, 2, dtype=bool)), 3, 8.0)
@hypothesis.given(any_complexes(), st.integers(0, 2 ** 32 - 1), st.floats(-8, 8))
def test_coboundary_is_the_incidence_product_bit_for_bit(cx, seed, exponent):
    rng = np.random.default_rng(seed)
    for degree, incidence in enumerate(meshgrid_incidence(cx)):
        values = rng.standard_normal(cx.n_cells(degree)) * 10.0 ** exponent
        # exact cancellations, and signed zeros, which a sum not started from 0.0 keeps
        values[rng.random(values.size) < 0.2] = 0.0
        values[rng.random(values.size) < 0.1] = -0.0
        got = coboundary(DiscreteForm(cx, degree, values)).values
        want = incidence @ values
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


# centres on nodes and on grid lines give zero steps and steps of exactly +-pi
CENTRES = st.one_of(st.integers(-4, 12).map(lambda i: i / 2), st.floats(-4.0, 12.0))


@SETTINGS
@hypothesis.example(CubicalComplex(2, 2), 0.0, 0.0)
@hypothesis.example(CubicalComplex(2, 2), 0.5, 0.0)
@hypothesis.example(CubicalComplex(5, 3, face_mask=np.zeros((4, 2), dtype=bool)), 2.0, 1.0)
@hypothesis.given(any_complexes(), CENTRES, CENTRES)
def test_winding_one_form_is_the_wrapped_incidence_product(cx, x0, y0):
    X, Y = cx.vertex_coords()
    theta = np.arctan2(Y - y0, X - x0)
    want = np.mod(meshgrid_incidence(cx)[0] @ theta + math.pi, 2.0 * math.pi) - math.pi
    got = winding_one_form(cx, center=(x0, y0)).values
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))
