"""The slice scanner against the whole-slice scan it replaced, on random one- and
two-component slices: on-node cores up to |n| = 4, aperture masks with exact and
signed zeros, and exact +-pi phase steps."""

import math
from fractions import Fraction

import numpy as np
import pytest

from defectfield import GridSpec
from defectfield.detect import (
    _RING,
    REL_ZERO,
    TOL_AMP,
    AmbiguousStepError,
    DefectRecord,
    _find_zeros,
    _plaquette_centroid,
    _plaquette_windings,
    _winding_from_values,
    _windings_at,
)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SETTINGS = hypothesis.settings(deadline=None, database=None, max_examples=150)

# phases pi, -pi (signed zero imaginary part), pi, 0, pi/2, -pi/2: exact +-pi steps
PI_STEPS = np.array([-1.0, complex(-1.0, -0.0), -2.5, 1.0, 1j, -1j, 2.0])
SIGNED_ZEROS = np.array([0.0, -0.0, complex(0.0, -0.0), complex(-0.0, -0.0)])


def whole_slice_find_zeros(comps, grid, z_slice, kind):
    """The scan _find_zeros replaced: every test on every node and plaquette."""
    nx, ny = comps[0].shape
    if nx < 2 or ny < 2:
        raise ValueError("slice must be at least 2x2 nodes")
    amps = [np.abs(c) for c in comps]
    amp = amps[0] if len(amps) == 1 else np.hypot(*amps)
    floor = TOL_AMP * float(np.median(amp))
    records = []
    consumed = np.zeros((nx - 1, ny - 1), dtype=bool)

    low = np.logical_and.reduce([a <= floor for a in amps])
    on_node = low[1:-1, 1:-1].copy()
    clear = amps[0] > floor
    for di, dj in _RING[:-1]:
        on_node &= clear[1 + di:nx - 1 + di, 1 + dj:ny - 1 + dj]
    for i, j in np.argwhere(on_node) + 1:
        ring = (i + _RING[:, 0], j + _RING[:, 1])
        try:
            idx = _winding_from_values(comps[0][ring], floor)
        except AmbiguousStepError:
            continue
        if idx != 0:
            records.append(DefectRecord(kind, grid.node_position(i, j, z_slice),
                                        Fraction(idx), float(amp[ring].min())))
        consumed[i - 1:i + 1, j - 1:j + 1] = True

    windings = [_plaquette_windings(c) for c in comps]
    nonzero = [a[a > 0] for a in amps] if len(amps) > 1 else []
    medians = [float(np.median(v, overwrite_input=True)) if v.size else -math.inf
               for v in nonzero]
    low[1:-1, 1:-1] &= ~on_node
    candidates = np.logical_and.reduce([q != 0 for q in windings]) & ~consumed
    for i, j in np.argwhere(candidates):
        if low[i:i + 2, j:j + 2].any() or any(
                a[i:i + 2, j:j + 2].min() > REL_ZERO * m for a, m in zip(amps, medians)):
            continue
        records.append(DefectRecord(kind, _plaquette_centroid(grid, i, j, z_slice),
                                    Fraction(int(windings[0][i, j])),
                                    float(amp[i:i + 2, j:j + 2].min())))
    records.sort(key=lambda r: r.position)
    return records


def vortices(X, Y, cores):
    """Product of the factors (w - w0)^|n|, w = x + i*sign(n)*y, one per core."""
    values = np.ones(X.shape, dtype=complex)
    for x0, y0, n in cores:
        values *= ((X - x0) + 1j * math.copysign(1.0, n) * (Y - y0)) ** abs(n)
    return values


@st.composite
def slices(draw):
    """(components, grid) of a random one- or two-component slice."""
    nx, ny = draw(st.integers(2, 20)), draw(st.integers(2, 20))
    grid = GridSpec((nx, ny, 1), (1.0, 1.0, 1.0))
    X, Y, _ = grid.meshgrid()
    X, Y = X[:, :, 0], Y[:, :, 0]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def core():
        # on a node, at a plaquette centre or anywhere
        offset = draw(st.sampled_from([0.0, 0.5, float(rng.uniform(0.0, 1.0))]))
        return (int(rng.integers(0, nx)) + offset, int(rng.integers(0, ny)) + offset,
                draw(st.sampled_from([-4, -3, -2, -1, 1, 2, 3, 4])))

    cores = [core() for _ in range(draw(st.integers(0, 3)))]
    first = vortices(X, Y, cores)
    comps = [first]
    if draw(st.booleans()):
        second = draw(st.sampled_from(["disclination", "conjugate", "scaled", "own cores",
                                       "pi steps"]))
        if second == "disclination":
            comps.append(1j * first)
        elif second == "conjugate":
            comps.append(first.conj())
        elif second == "scaled":
            comps.append(complex(*rng.normal(size=2)) * first)
        elif second == "own cores":
            comps.append(vortices(X, Y, cores[:1] + [core() for _ in range(2)]))
        else:
            comps.append(rng.choice(PI_STEPS, size=(nx, ny)))
    for c in comps:
        # exact +-pi steps, then exact and signed zeros, planted anywhere
        for values in (PI_STEPS, SIGNED_ZEROS):
            at = rng.random((nx, ny)) < draw(st.sampled_from([0.0, 0.05, 0.3]))
            c[at] = rng.choice(values, size=int(at.sum()))
    if draw(st.booleans()):  # one aperture for every component
        cx, cy = rng.uniform(0, nx), rng.uniform(0, ny)
        aperture = (X - cx) ** 2 + (Y - cy) ** 2 < rng.uniform(1.0, 0.6 * max(nx, ny)) ** 2
        if draw(st.booleans()):
            comps = [c * aperture for c in comps]  # signed zeros outside
        else:
            comps = [np.where(aperture, c, 0.0) for c in comps]
    return comps, grid


@SETTINGS
@hypothesis.given(slices())
def test_find_zeros_equals_the_whole_slice_scan(case):
    comps, grid = case
    kind = "dislocation" if len(comps) == 1 else "disclination"
    assert _find_zeros(comps, grid, 0, kind) == whole_slice_find_zeros(comps, grid, 0, kind)
    i, j = (a.ravel() for a in np.indices(np.subtract(comps[0].shape, 1)))
    for c in comps:
        # the gathered corners wind as the whole-slice form does, exact +-pi steps included
        np.testing.assert_array_equal(_windings_at(c, i, j), _plaquette_windings(c)[i, j])
