"""The slice scanner against the whole-slice scan it replaced, on random one- and
two-component slices: on-node cores up to |n| = 4, aperture masks with exact and
signed zeros, and exact +-pi phase steps; and on dense random waves, whose records
also sum to the winding of grid-aligned rectangles and keep the scan's symmetries
(conjugation, a global phase, a positive scale, a quarter turn, a transpose and a
reflection). The scan's
one-partition median against ``np.median``."""

import math
from fractions import Fraction

import numpy as np
import pytest

from defectfield import (
    ComplexScalarField,
    DisclinationModel,
    GridSpec,
    LoopPath,
    WaveParams,
    detect,
    find_disclinations,
    find_dislocations,
    phase_winding,
    sample_potential,
)
from defectfield.detect import (
    _RING,
    REL_ZERO,
    TOL_AMP,
    AmbiguousStepError,
    DefectRecord,
    _find_zeros,
    _median,
    _plaquette_centroid,
    _plaquette_windings,
    _winding_from_values,
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


def random_wave(n, seed, waves=64, wavelength=13.0):
    """An n x n slice of unit spacing: the sum of ``waves`` plane waves of one wavelength,
    with random directions and phases (Berry & Dennis, Proc. R. Soc. A 456, 2059, 2000)."""
    rng = np.random.default_rng(seed)
    direction, phase = rng.uniform(0.0, 2.0 * math.pi, (2, waves))
    k = 2.0 * math.pi / wavelength
    x = np.arange(n, dtype=float)
    values = np.zeros((n, n), dtype=complex)
    for d, p in zip(direction, phase):
        values += np.exp(1j * (k * math.cos(d) * x[:, None] + p)) * np.exp(
            1j * k * math.sin(d) * x[None, :])
    return values / math.sqrt(waves)


SPECKLE_GRID = GridSpec((192, 192, 1), (1.0, 1.0, 1.0), (-96.0, -80.0, 0.5))


@pytest.mark.parametrize("components", [1, 2])
def test_find_zeros_equals_the_whole_slice_scan_on_a_dense_random_wave(components):
    # hundreds of vortices; two independent waves have no joint zeros, so every
    # disclination record is one the REL_ZERO filter lets through
    comps = [random_wave(192, seed) for seed in range(components)]
    kind = "dislocation" if components == 1 else "disclination"
    records = _find_zeros(comps, SPECKLE_GRID, 0, kind)
    assert records == whole_slice_find_zeros(comps, SPECKLE_GRID, 0, kind)
    assert len(records) > (500 if components == 1 else 0)


def test_records_in_a_grid_rectangle_sum_to_its_winding_on_a_dense_random_wave():
    values = random_wave(192, 0)
    field = ComplexScalarField(SPECKLE_GRID, 0.0, values[:, :, None])
    records = _find_zeros([values], SPECKLE_GRID, 0, "dislocation")
    xs, ys = SPECKLE_GRID.axis_coords(0), SPECKLE_GRID.axis_coords(1)
    rng = np.random.default_rng(3)
    boxes = [(0, 191, 0, 191)] + [(i, i + w, j, j + h) for (i, j), (w, h) in
                                  zip(rng.integers(0, 120, (6, 2)), rng.integers(1, 72, (6, 2)))]
    for i0, i1, j0, j1 in boxes:
        # every boundary node once, counterclockwise, so the loop reads the node values
        border = ([(xs[i], ys[j0]) for i in range(i0, i1)]
                  + [(xs[i1], ys[j]) for j in range(j0, j1)]
                  + [(xs[i], ys[j1]) for i in range(i1, i0, -1)]
                  + [(xs[i0], ys[j]) for j in range(j1, j0, -1)])
        inside = sum(r.index for r in records
                     if xs[i0] < r.position[0] < xs[i1] and ys[j0] < r.position[1] < ys[j1])
        assert inside == phase_winding(field, LoopPath(border + border[:1], z=0.5))


# --- the one-partition median ------------------------------------------------

@st.composite
def amplitudes(draw):
    """Amplitude-like arrays: sizes 1, 2 and up to 600, values that tie, exact
    zeros, subnormals, +inf, magnitudes across the float range and pairs whose
    sum overflows."""
    size = draw(st.one_of(st.sampled_from([1, 2, 3, 4]), st.integers(1, 600)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pools = {
        "spread": lambda k: rng.exponential(size=k) * 10.0 ** rng.uniform(-300, 300, k),
        "ties": lambda k: rng.choice(rng.exponential(size=3), size=k),
        "zeros": lambda k: np.zeros(k),
        "subnormals": lambda k: rng.integers(1, 2 ** 20, k) * 5e-324,
        "inf": lambda k: np.full(k, math.inf),
        "huge": lambda k: np.finfo(float).max * rng.uniform(0.5, 1.0, k),
    }
    kinds = draw(st.lists(st.sampled_from(sorted(pools)), min_size=1, max_size=4))
    which = rng.integers(0, len(kinds), size)
    values = np.empty(size)
    for n, kind in enumerate(kinds):
        values[which == n] = pools[kind](int((which == n).sum()))
    shapes = [(size,), (1, size)] + ([(2, size // 2)] if size % 2 == 0 else [])
    return values.reshape(draw(st.sampled_from(shapes)))


@SETTINGS
@hypothesis.given(amplitudes())
def test_median_equals_np_median_bit_for_bit(values):
    before = values.copy()
    with np.errstate(over="ignore"):  # two huge middle values average to +inf in both
        got, expected = _median(values), np.median(values)
    assert np.float64(got).tobytes() == np.float64(expected).tobytes(), (got, expected)
    assert values.tobytes() == before.tobytes()  # the input is left as it was


def test_find_disclinations_keeps_its_records_where_the_rel_zero_medians_run(monkeypatch):
    # 256^2 nodes centred on the axis: the core sits between nodes, so its plaquette
    # passes only by the REL_ZERO test against each component's median
    grid = GridSpec.centered((6.0, 6.0, 0.0), (256, 256, 1))
    field = sample_potential(DisclinationModel(WaveParams.with_dispersion(k=1.3)), grid, 0.2)
    sizes = []
    monkeypatch.setattr(detect, "_median", lambda v: sizes.append(v.size) or _median(v))
    records = find_disclinations(field, 0)
    assert sizes[0] == 256 * 256 and len(sizes) == 3  # the floor, then Ax and Ay
    comps = [field.ax[:, :, 0], field.ay[:, :, 0]]
    assert records == whole_slice_find_zeros(comps, grid, 0, "disclination")
    assert [r.index for r in records] == [1]
    assert records[0].position[:2] == pytest.approx((0.0, 0.0), abs=1e-12)


# --- symmetry relations of the slice scan on a dense random wave ---

def _dislocations(values, grid=SPECKLE_GRID):
    return find_dislocations(ComplexScalarField(grid, 0.0, values[:, :, None]), 0)


@pytest.fixture(scope="module")
def speckle():
    values = random_wave(192, 5)
    records = _dislocations(values)
    assert len(records) == 688 and sum(r.index for r in records) == -14
    return values, records


def _same_positions_and_charges(got, expected, sign=1):
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert g.position == pytest.approx(e.position, abs=1e-9, rel=0)
        assert g.index == sign * e.index


def test_conjugation_negates_every_charge(speckle):
    values, records = speckle
    got = _dislocations(values.conj())
    _same_positions_and_charges(got, records, sign=-1)
    assert [r.confidence for r in got] == [r.confidence for r in records]


@pytest.mark.parametrize("alpha", [0.3, 1.0, 2.5, math.pi])
def test_a_global_phase_keeps_the_records(speckle, alpha):
    values, records = speckle
    got = _dislocations(values * complex(math.cos(alpha), math.sin(alpha)))
    _same_positions_and_charges(got, records)
    # |e^{i alpha} v| rounds apart from |v| in the last bits
    assert [r.confidence for r in got] == pytest.approx([r.confidence for r in records],
                                                        rel=1e-12, abs=0)


@pytest.mark.parametrize("scale", [1e-200, 3.0, 1e200])
def test_a_positive_scale_keeps_the_records_and_scales_each_confidence(speckle, scale):
    # the floor is relative to the slice's median, so it scales with the field
    values, records = speckle
    got = _dislocations(values * scale)
    _same_positions_and_charges(got, records)
    assert [r.confidence for r in got] == pytest.approx(
        [scale * r.confidence for r in records], rel=1e-12, abs=0)


def test_a_quarter_turn_rotates_the_positions_and_keeps_the_charges(speckle):
    # (x, y) -> (-y, x): rot90's [i, j] is [j, n - 1 - i], on a grid whose origin
    # puts each turned node on a node
    values, records = speckle
    (n, _, _), (ox, oy, oz) = SPECKLE_GRID.dims, SPECKLE_GRID.origin
    turned = GridSpec(SPECKLE_GRID.dims, SPECKLE_GRID.spacing, (-(oy + n - 1), ox, oz))
    got = _dislocations(np.rot90(values), turned)
    expected = sorted(((-y, x, z), r.index, r.confidence)
                      for r in records for x, y, z in [r.position])
    assert [(r.position, r.index, r.confidence) for r in got] == expected


def test_a_transpose_swaps_the_positions_and_negates_the_charges(speckle):
    # (x, y) -> (y, x) on the grid with the origin's x and y swapped: a reflection,
    # so every winding turns the other way
    values, records = speckle
    (ox, oy, oz) = SPECKLE_GRID.origin
    swapped = GridSpec(SPECKLE_GRID.dims, SPECKLE_GRID.spacing, (oy, ox, oz))
    got = _dislocations(values.T, swapped)
    expected = sorted(((y, x, z), -r.index, r.confidence)
                      for r in records for x, y, z in [r.position])
    assert [(r.position, r.index, r.confidence) for r in got] == expected


def test_a_reflection_reflects_the_positions_and_negates_the_charges(speckle):
    # x -> -x: node i goes to node n - 1 - i on a grid whose origin is the
    # reflected last node
    values, records = speckle
    (n, _, _), (ox, oy, oz) = SPECKLE_GRID.dims, SPECKLE_GRID.origin
    reflected = GridSpec(SPECKLE_GRID.dims, SPECKLE_GRID.spacing, (-(ox + n - 1), oy, oz))
    got = _dislocations(values[::-1], reflected)
    expected = sorted(((-x, y, z), -r.index, r.confidence)
                      for r in records for x, y, z in [r.position])
    assert [(r.position, r.index, r.confidence) for r in got] == expected
