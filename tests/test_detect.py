import math
from fractions import Fraction

import numpy as np
import pytest

from defectfield import (
    ComplexScalarField,
    DisclinationModel,
    DislocationModel,
    GridSpec,
    LoopPath,
    NonRationalIndexError,
    PotentialField,
    UndefinedIndexError,
    WaveParams,
    axial_twist_per_length,
    find_disclinations,
    find_dislocations,
    pattern_rotation_rate,
    phase_winding,
    sample_potential,
    sample_scalar,
    tifold_index,
)
from defectfield.detect import (
    AmbiguousStepError,
    NearZeroOnLoopError,
    RigidRotationFitError,
    _circle_azimuths,
    _fit_rotation_step,
    _loop_values,
    _plaquette_windings,
    wrap_angle,
)

TWO_PI = 2.0 * math.pi


def vortex_slice(grid, defects, t=0.0):
    """Product of first-order zeros: one factor (w - w0) per signed defect."""
    X, Y, _ = grid.meshgrid()
    values = np.ones(grid.dims, dtype=complex)
    for x0, y0, charge in defects:
        sign = 1.0 if charge > 0 else -1.0
        w = (X - x0) + 1j * sign * (Y - y0)
        values *= w ** abs(charge)
    return ComplexScalarField(grid, t, values)


def analytic_winding_oracle(defects, loop_fn, n=4096):
    """Continuous winding by dense phase accumulation along the loop."""
    s = np.linspace(0.0, 1.0, n + 1)
    x, y = loop_fn(s)
    total = np.zeros(n + 1)
    for x0, y0, charge in defects:
        sign = 1.0 if charge > 0 else -1.0
        # the sign is carried by the conjugated factor itself
        ang = np.unwrap(np.angle((x - x0) + 1j * sign * (y - y0)))
        total += abs(charge) * ang
    return round((total[-1] - total[0]) / TWO_PI)


def test_loop_path_validation():
    with pytest.raises(ValueError):
        LoopPath(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))  # open
    with pytest.raises(ValueError):
        LoopPath(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]))  # too few
    loop = LoopPath.circle(0.0, 0.0, 1.0, n=8)
    assert np.array_equal(loop.points[0], loop.points[-1])
    rev = loop.reversed()
    assert np.array_equal(rev.points[0], loop.points[-1])


def test_winding_constant_field_is_zero():
    grid = GridSpec.centered((4.0, 4.0, 1.0), (41, 41, 1))
    field = ComplexScalarField(grid, 0.0, np.full(grid.dims, 2.0 - 1.0j))
    assert phase_winding(field, LoopPath.circle(0.0, 0.0, 1.0)) == 0


def test_winding_single_charge():
    grid = GridSpec.centered((4.0, 4.0, 1.0), (81, 81, 1))
    dx = grid.spacing[0]
    field = sample_scalar(DislocationModel(n=1, k=1.0, omega=1.0), grid, 0.0)
    loop = LoopPath.circle(0.0, 0.0, 5 * dx, n=64)
    assert phase_winding(field, loop) == 1


def test_winding_negative_double_charge_against_oracle():
    defects = [(0.0, 0.0, -2)]
    grid = GridSpec.centered((4.0, 4.0, 1.0), (81, 81, 1))
    dx = grid.spacing[0]
    radius = 5 * dx

    def loop_fn(s):
        return radius * np.cos(TWO_PI * s), radius * np.sin(TWO_PI * s)

    oracle = analytic_winding_oracle(defects, loop_fn)
    assert oracle == -2
    field = sample_scalar(DislocationModel(n=-2, k=1.0, omega=1.0), grid, 0.0)
    assert phase_winding(field, LoopPath.circle(0.0, 0.0, radius, n=64)) == oracle


def test_winding_near_zero_error():
    grid = GridSpec.centered((2.0, 2.0, 1.0), (21, 21, 1))
    field = ComplexScalarField(grid, 0.0, np.zeros(grid.dims, complex))
    with pytest.raises(NearZeroOnLoopError):
        phase_winding(field, LoopPath.circle(0.0, 0.0, 0.5))


def test_winding_ambiguous_step_error():
    grid = GridSpec.centered((4.0, 4.0, 1.0), (5, 5, 1))
    X, _, _ = grid.meshgrid()
    values = np.where(X >= 0, -1.0 + 0.0j, 1.0 + 0.0j)
    field = ComplexScalarField(grid, 0.0, values)
    square = LoopPath(np.array([
        [-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0]]))
    with pytest.raises(AmbiguousStepError):
        phase_winding(field, square)


def test_loop_deformation_invariance():
    grid = GridSpec.centered((6.0, 6.0, 1.0), (121, 121, 1))
    field = sample_scalar(DislocationModel(n=2, k=1.0, omega=1.0), grid, 0.0)
    rng = np.random.default_rng(42)
    for _ in range(10):
        if rng.uniform() < 0.5:
            cx, cy = rng.uniform(-0.4, 0.4, size=2)
            loop = LoopPath.circle(cx, cy, rng.uniform(0.8, 2.2), n=128)
        else:
            x0, y0 = rng.uniform(-2.2, -0.8, size=2)
            x1, y1 = rng.uniform(0.8, 2.2, size=2)
            loop = LoopPath.rectangle(x0, y0, x1, y1, per_side=48)
        assert phase_winding(field, loop) == 2
        # loops left of x=1.0 that stay away from the origin see no charge
        away = LoopPath.circle(1.8, 1.8, rng.uniform(0.3, 0.7), n=96)
        assert phase_winding(field, away) == 0


def test_winding_orientation_antisymmetry():
    grid = GridSpec.centered((4.0, 4.0, 1.0), (81, 81, 1))
    field = sample_scalar(DislocationModel(n=1, k=1.0, omega=1.0), grid, 0.0)
    loop = LoopPath.circle(0.0, 0.0, 1.0, n=96)
    assert phase_winding(field, loop) == -phase_winding(field, loop.reversed())


def test_charge_additivity():
    grid = GridSpec.centered((8.0, 8.0, 1.0), (161, 161, 1))
    defects = [(-1.0, 0.2, 1), (1.1, -0.3, -1), (0.3, 1.4, 2)]
    field = vortex_slice(grid, defects)
    # big loop encloses everything
    big = LoopPath.circle(0.0, 0.0, 3.0, n=256)
    assert phase_winding(field, big) == 2
    # smaller loop encloses only the first two
    lens = LoopPath.circle(0.0, -0.1, 1.3, n=256)
    enclosed = [c for x0, y0, c in defects if math.hypot(x0 - 0.0, y0 + 0.1) < 1.3]
    assert phase_winding(field, lens) == sum(enclosed)


def test_find_dislocations_constant_empty():
    grid = GridSpec.centered((4.0, 4.0, 1.0), (33, 33, 1))
    field = ComplexScalarField(grid, 0.0, np.full(grid.dims, 1.0 + 0.0j))
    assert find_dislocations(field, 0) == []


def test_find_dislocations_single_charge():
    # even node count keeps the axis strictly inside a plaquette
    grid = GridSpec.centered((4.0, 4.0, 1.0), (40, 40, 1))
    field = sample_scalar(DislocationModel(n=1, k=1.0, omega=1.0), grid, 0.0)
    records = find_dislocations(field, 0)
    assert len(records) == 1
    rec = records[0]
    assert rec.index == Fraction(1)
    cell_diag = math.hypot(*grid.spacing[:2])
    assert math.hypot(rec.position[0], rec.position[1]) <= cell_diag
    # slice-boundary oracle: the boundary loop winding equals the total charge
    margin = 2 * grid.spacing[0]
    half = 2.0 - margin
    boundary = LoopPath.rectangle(-half, -half, half, half, per_side=64)
    assert phase_winding(field, boundary) == sum(int(r.index) for r in records)


def test_find_dislocations_pair_conserves_charge():
    grid = GridSpec.centered((6.0, 6.0, 1.0), (120, 120, 1))
    field = vortex_slice(grid, [(-1.0, 0.0, 1), (1.0, 0.0, -1)])
    records = find_dislocations(field, 0)
    assert len(records) == 2
    assert sorted(int(r.index) for r in records) == [-1, 1]
    assert sum(int(r.index) for r in records) == 0
    plus = [r for r in records if r.index > 0][0]
    assert math.hypot(plus.position[0] + 1.0, plus.position[1]) < 0.1


def test_winding_loop_off_grid_or_nan_raises():
    grid = GridSpec.centered((4.0, 4.0, 1.0), (41, 41, 1))
    field = sample_scalar(DislocationModel(n=1, k=1.0, omega=1.0), grid, 0.0)
    with pytest.raises(ValueError, match="leaves the grid"):
        phase_winding(field, LoopPath.circle(1.5, 0.0, 0.6))
    points = LoopPath.circle(0.0, 0.0, 1.0, n=16).points.copy()
    points[5, 1] = np.nan
    with pytest.raises(ValueError, match="leaves the grid"):
        phase_winding(field, LoopPath(points))
    # z: finite and, with several slices, within half a spacing of them
    with pytest.raises(ValueError, match="leaves the grid along axis 2"):
        phase_winding(field, LoopPath.circle(0.0, 0.0, 1.0, z=math.inf))
    assert phase_winding(field, LoopPath.circle(0.0, 0.0, 1.0, z=100.0)) == 1  # one slice
    grid = GridSpec.centered((4.0, 4.0, 2.0), (41, 41, 5))  # slices at z = -1, -0.5, ..., 1
    field = sample_scalar(DislocationModel(n=1, k=1.0, omega=1.0), grid, 0.0)
    for z in (100.0, 1.26, -1.26, math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="leaves the grid along axis 2"):
            phase_winding(field, LoopPath.circle(0.0, 0.0, 1.0, z=z))
    for z in (1.25, -1.25, 0.3):
        assert phase_winding(field, LoopPath.circle(0.0, 0.0, 1.0, z=z)) == 1


def test_winding_reads_the_slice_nearest_the_loop():
    # four slices at z = -1.5, -0.5, 0.5, 1.5 that wind +1, -1, +1, -1
    grid = GridSpec.centered((4.0, 4.0, 3.0), (41, 41, 4))
    X, Y, Z = grid.meshgrid()
    sign = np.where(np.rint(Z + 1.5) % 2 == 0, 1.0, -1.0)
    field = ComplexScalarField(grid, 0.0, X + 1j * sign * Y)
    # -2.0 and 2.0 lie half a spacing outside the first and last slice
    for z, winding in ((-2.0, 1), (-1.5, 1), (-0.9, -1), (0.4, 1), (1.5, -1), (2.0, -1)):
        assert phase_winding(field, LoopPath.circle(0.0, 0.0, 1.0, z=z)) == winding, z


def test_loop_values_reproduce_a_bilinear_field():
    # bilinear interpolation is exact on a + b*x + c*y + d*x*y, whatever the cell shape
    grid = GridSpec((7, 11, 1), (0.7, 0.3, 1.0), origin=(-1.3, 0.4, 0.0))
    X, Y, _ = grid.meshgrid()
    a, b, c, d = 0.3 - 1.2j, 1.7 + 0.4j, -0.9 + 2.1j, 1.1 - 0.6j
    field = ComplexScalarField(grid, 0.0, a + b * X + c * Y + d * X * Y)
    rng = np.random.default_rng(11)
    xs, ys = grid.axis_coords(0), grid.axis_coords(1)
    points = rng.uniform((xs[0], ys[0]), (xs[-1], ys[-1]), (40, 2))
    loop = LoopPath(np.vstack([points, points[:1]]))
    x, y = loop.points.T
    np.testing.assert_allclose(_loop_values(field, loop), a + b * x + c * y + d * x * y,
                               rtol=0, atol=1e-12)


def on_node_cores(seed):
    """1-3 cores of |n| <= 3 on random interior nodes, at least 6 cells apart.

    Closer opposite +-3 cores make the sampled phase step between two
    neighbouring nodes exceed pi, so the field itself is under-resolved.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(24, 49))
    grid = GridSpec.centered((4.0, 4.0, 1.0), (n, n, 1))
    nodes = []
    for _ in range(int(rng.integers(1, 4))):
        i, j = (int(v) for v in rng.integers(1, n - 1, size=2))
        if all(math.hypot(i - a, j - b) >= 6 for a, b, _ in nodes):
            nodes.append((i, j, int(rng.choice((-3, -2, -1, 1, 2, 3)))))
    return grid, [grid.node_position(i, j, 0)[:2] + (charge,) for i, j, charge in nodes]


def test_find_dislocations_on_node_cores():
    for seed in range(40):
        grid, defects = on_node_cores(seed)
        records = find_dislocations(vortex_slice(grid, defects), 0)
        assert sorted((r.position, r.index) for r in records) == sorted(
            ((x0, y0, 0.0), Fraction(charge)) for x0, y0, charge in defects), seed
        assert all(r.kind == "dislocation" and r.confidence > 0 for r in records)


@pytest.mark.parametrize("n", [-3, -2, -1, 1, 2, 3])
def test_find_dislocations_centred_core_reported_once(n):
    grid = GridSpec.centered((8.0, 8.0, 1.0), (33, 33, 1))  # node exactly at origin
    field = sample_scalar(DislocationModel(n=n, k=1.0, omega=1.0), grid, 0.0)
    records = find_dislocations(field, 0)
    assert [(r.position, r.index) for r in records] == [((0.0, 0.0, 0.0), Fraction(n))]


def test_find_dislocations_fourfold_on_node_core_falls_back_to_plaquettes():
    # the 8-node ring steps by exactly pi around n = 4: plaquettes report it
    grid = GridSpec.centered((4.0, 4.0, 1.0), (33, 33, 1))
    records = find_dislocations(vortex_slice(grid, [(0.0, 0.0, 4)]), 0)
    assert records and sum(r.index for r in records) == 4


def test_find_dislocations_apertured_vortex_mostly_zero():
    # exact zeros cover more than half the slice, so the median amplitude is 0
    grid = GridSpec.centered((4.0, 4.0, 1.0), (64, 64, 1))
    X, Y, _ = grid.meshgrid()
    values = np.where(X ** 2 + Y ** 2 < 1.0, (X - 0.1) + 1j * (Y + 0.05), 0.0)
    assert np.median(np.abs(values)) == 0.0
    records = find_dislocations(ComplexScalarField(grid, 0.0, values), 0)
    inside = [r for r in records if math.hypot(r.position[0] - 0.1, r.position[1] + 0.05)
              <= math.hypot(*grid.spacing[:2])]
    assert [r.index for r in inside] == [Fraction(1)]


def test_find_dislocations_aperture_rim_adds_no_records():
    # rim plaquettes mix exact zeros (phase 0) with values of phase near pi
    grid = GridSpec.centered((4.0, 4.0, 1.0), (64, 64, 1))
    X, Y, _ = grid.meshgrid()
    values = np.where(X ** 2 + Y ** 2 < 1.0, (X - 0.1) + 1j * (Y + 0.05), 0.0)
    records = find_dislocations(ComplexScalarField(grid, 0.0, values), 0)
    assert [r.index for r in records] == [Fraction(1)]
    assert math.hypot(records[0].position[0] - 0.1, records[0].position[1] + 0.05) \
        <= math.hypot(*grid.spacing[:2])


def test_find_disclinations_on_node_core_in_mostly_zero_slice():
    model = DisclinationModel(WaveParams.with_dispersion(k=1.0))
    grid = GridSpec.centered((4.0, 4.0, 1.0), (65, 65, 1))  # node exactly at origin
    field = sample_potential(model, grid, 0.0)
    X, Y, _ = grid.meshgrid()
    aperture = X ** 2 + Y ** 2 < 1.0
    zero = np.zeros(grid.dims, dtype=complex)
    cut = PotentialField(grid, 0.0, np.where(aperture, field.ax, 0.0),
                         np.where(aperture, field.ay, 0.0), zero, zero)
    records = find_disclinations(cut, 0)
    assert [(r.position, r.index) for r in records] == [((0.0, 0.0, 0.0), Fraction(1))]


def apertured_disclination(shift, multiply=False):
    """Disclination slice with Ax, Ay cut to r < 1, origin moved by shift cells."""
    base = GridSpec.centered((4.0, 4.0, 1.0), (65, 65, 1))
    dx, dy = base.spacing[:2]
    grid = GridSpec(base.dims, base.spacing,
                    (base.origin[0] + shift * dx, base.origin[1] + shift * dy, 0.0))
    field = sample_potential(DisclinationModel(WaveParams.with_dispersion(k=1.0)), grid, 0.0)
    X, Y, _ = grid.meshgrid()
    aperture = X ** 2 + Y ** 2 < 1.0
    zero = np.zeros(grid.dims, dtype=complex)
    if multiply:
        ax, ay = field.ax * aperture, field.ay * aperture
    else:
        ax, ay = np.where(aperture, field.ax, 0.0), np.where(aperture, field.ay, 0.0)
    return PotentialField(grid, 0.0, ax, ay, zero, zero)


@pytest.mark.parametrize("shift", [0.37, 0.5, -0.21])
def test_find_disclinations_off_node_core_in_mostly_zero_slice(shift):
    # more than half of each component is exactly zero, so the plain median is 0
    cut = apertured_disclination(shift)
    assert np.median(np.abs(cut.ax[:, :, 0])) == 0.0
    records = find_disclinations(cut, 0)
    assert [r.index for r in records] == [Fraction(1)]
    assert math.hypot(*records[0].position[:2]) <= math.hypot(*cut.grid.spacing[:2])


def test_signed_zeros_of_an_aperture_add_no_windings():
    # v * False is -0.0 where v has a negative part; angle(-0.0) is pi, not 0
    grid = GridSpec.centered((4.0, 4.0, 1.0), (64, 64, 1))
    X, Y, _ = grid.meshgrid()
    aperture = X ** 2 + Y ** 2 < 1.0
    v = (X - 0.1) + 1j * (Y + 0.05)
    multiplied = v * aperture
    assert np.signbit(multiplied.real[~aperture]).any()
    assert np.signbit(multiplied.imag[~aperture]).any()
    assert (find_dislocations(ComplexScalarField(grid, 0.0, multiplied), 0)
            == find_dislocations(ComplexScalarField(grid, 0.0, np.where(aperture, v, 0.0)), 0))
    for shift in (0.0, 0.37):
        assert (find_disclinations(apertured_disclination(shift, multiply=True), 0)
                == find_disclinations(apertured_disclination(shift), 0))


def reference_plaquette_windings(values):
    dx = wrap_angle(np.diff(np.angle(values), axis=0))
    dy = wrap_angle(np.diff(np.angle(values), axis=1))
    total = dx[:, :-1] + dy[1:, :] - dx[:, 1:] - dy[:-1, :]
    return np.round(total / TWO_PI).astype(int)


def test_plaquette_windings_match_reference_formula():
    rng = np.random.default_rng(7)
    # real sign flips with both signed zeros: angle(-1 + 0j) = pi, angle(-1 - 0j) = -pi
    flips = np.array([1.0, -1.0, complex(1.0, -0.0), complex(-1.0, -0.0)])
    assert np.signbit(flips.imag).sum() == 2
    quarter = np.concatenate([flips, [1j, -1j, 2.0, 2j, -2.0, -2j]])
    for _ in range(200):
        shape = tuple(int(v) for v in rng.integers(2, 24, size=2))
        slices = [
            rng.normal(size=shape) + 1j * rng.normal(size=shape),
            rng.choice(flips, size=shape),
            np.where(rng.random(shape) < 0.3, 0.0,
                     rng.normal(size=shape) + 1j * rng.normal(size=shape)),
            rng.choice(quarter, size=shape),
        ]
        for values in slices:
            np.testing.assert_array_equal(_plaquette_windings(values),
                                          reference_plaquette_windings(values))


def float_plaquette_windings(values2d):
    """The float form _plaquette_windings replaced: wrapped steps summed, then rounded."""
    phase = np.angle(values2d + 0.0)
    dx = np.diff(phase, axis=0)
    dy = np.diff(phase, axis=1)
    for d in (dx, dy):
        d[d > math.pi] -= TWO_PI
        d[d <= -math.pi] += TWO_PI
    total = dx[:, :-1] + dy[1:, :] - dx[:, 1:] - dy[:-1, :]
    return np.round(total / TWO_PI).astype(int)


def test_plaquette_windings_equal_the_float_formula():
    rng = np.random.default_rng(11)
    zeros = np.array([0.0, -0.0, complex(0.0, -0.0), complex(-0.0, -0.0), complex(-0.0, 0.0)])
    # the negative real axis, where the phase is exactly pi, with both signed zeros
    axis = np.array([-1.0, complex(-1.0, -0.0), -2.5, complex(-0.5, 0.0), 1.0, 1j, -1j])
    charges = (-3, -2, -1, 1, 2, 3)
    for _ in range(100):
        nx, ny = (int(v) for v in rng.integers(2, 30, size=2))
        normal = rng.normal(size=(nx, ny)) + 1j * rng.normal(size=(nx, ny))
        slices = [
            normal,
            np.where(rng.random((nx, ny)) < 0.4, rng.choice(zeros, size=(nx, ny)), normal),
            rng.choice(axis, size=(nx, ny)),
            np.where(rng.random((nx, ny)) < 0.5, rng.choice(axis, size=(nx, ny)), normal),
        ]
        grid = GridSpec((nx, ny, 1), (1.0, 1.0, 1.0))
        # |n| <= 3 cores on nodes, at plaquette centres and anywhere
        for offset in (0.0, 0.5, float(rng.uniform(0.0, 1.0))):
            cores = [(int(rng.integers(0, nx)) + offset, int(rng.integers(0, ny)) + offset,
                      int(rng.choice(charges))) for _ in range(int(rng.integers(1, 4)))]
            slices.append(vortex_slice(grid, cores).values[:, :, 0])
        for values in slices:
            expected = float_plaquette_windings(values)
            windings = _plaquette_windings(values)
            assert windings.dtype == expected.dtype
            np.testing.assert_array_equal(windings, expected)
    grid = GridSpec((12, 12, 1), (1.0, 1.0, 1.0))
    for offset in (0.0, 0.5):
        for n in charges:
            values = vortex_slice(grid, [(5 + offset, 5 + offset, n)]).values[:, :, 0]
            # all plaquettes together wind as the slice's border does
            assert _plaquette_windings(values).sum() == n

def test_find_disclinations_axis_on_node():
    model = DisclinationModel(WaveParams.with_dispersion(k=1.0))
    grid = GridSpec.centered((4.0, 4.0, 1.0), (41, 41, 1))  # node exactly at origin
    field = sample_potential(model, grid, 0.0)
    records = find_disclinations(field, 0)
    assert len(records) == 1
    rec = records[0]
    assert rec.kind == "disclination"
    assert rec.index == Fraction(1)
    assert math.hypot(rec.position[0], rec.position[1]) < 1e-12


def test_find_disclinations_axis_in_plaquette():
    model = DisclinationModel(WaveParams.with_dispersion(k=1.0))
    base = GridSpec.centered((4.0, 4.0, 1.0), (41, 41, 1))
    dx, dy = base.spacing[0], base.spacing[1]
    shifted = GridSpec(base.dims, base.spacing,
                       (base.origin[0] + 0.5 * dx, base.origin[1] + 0.5 * dy, 0.0))
    field = sample_potential(model, shifted, 0.0)
    records = find_disclinations(field, 0)
    assert len(records) == 1
    assert records[0].index == Fraction(1)
    assert math.hypot(*records[0].position[:2]) <= math.hypot(dx, dy)


def test_find_disclinations_plane_wave_empty():
    class TransversePlaneWave:
        c = 1.0

        def components(self, x, y, z, t):
            carrier = np.exp(1j * (np.asarray(z) - t)) + 0.0 * np.asarray(x)
            return (carrier, 1j * carrier, 0.0 * carrier, 0.0 * carrier)

    grid = GridSpec.centered((4.0, 4.0, 1.0), (33, 33, 1))
    field = sample_potential(TransversePlaneWave(), grid, 0.0)
    assert find_disclinations(field, 0) == []


def test_pattern_rotation_rate_examples():
    model = DisclinationModel(WaveParams.with_dispersion(k=1.0))
    assert pattern_rotation_rate(model, 0.5, 0.5) == 0.0

    fast = DisclinationModel(WaveParams(k=1.0, omega=TWO_PI))
    rate = pattern_rotation_rate(fast, 0.0, 0.25)
    assert rate == pytest.approx(math.pi, abs=1e-9)  # alpha = pi/4 over 0.25

    four = DisclinationModel(WaveParams(k=1.0, omega=4.0))
    assert pattern_rotation_rate(four, 0.0, 0.5) == pytest.approx(2.0, abs=1e-9)
    # an interval that does not start at 0: a quarter period from t = 0.3
    assert pattern_rotation_rate(four, 0.3, 0.3 + math.pi / 8) == pytest.approx(2.0, abs=1e-9)

    with pytest.raises(ValueError, match="t1 must not precede t0"):
        pattern_rotation_rate(model, 1.0, 0.0)


def test_axial_twist_examples():
    model = DisclinationModel(WaveParams.with_dispersion(k=1.0))
    assert axial_twist_per_length(model, 1.0, 1.0, 0.0) == 0.0
    # k=1 over one wavelength: total twist magnitude pi
    lam = TWO_PI
    rate = axial_twist_per_length(model, 0.0, lam, 0.0)
    assert abs(rate) * lam == pytest.approx(math.pi, abs=1e-9)

    two = DisclinationModel(WaveParams.with_dispersion(k=2.0))
    rate = axial_twist_per_length(two, 0.0, math.pi / 2, 0.0)
    assert abs(rate) * (math.pi / 2) == pytest.approx(math.pi / 2, abs=1e-9)
    assert rate == pytest.approx(-1.0, abs=1e-9)  # signed: -k/2
    # an interval that does not start at 0: a quarter wavelength from z = 0.3
    rate = axial_twist_per_length(two, 0.3, 0.3 + math.pi / 4, 0.0)
    assert rate * math.pi == pytest.approx(-math.pi, abs=1e-9)  # pi per wavelength


def test_rotation_twist_consistency():
    for k, c in ((1.0, 1.0), (2.0, 0.7), (0.5, 3.0)):
        model = DisclinationModel(WaveParams.with_dispersion(k=k, c=c))
        omega = model.params.omega
        rot = pattern_rotation_rate(model, 0.0, 0.3 * TWO_PI / omega)
        twist = axial_twist_per_length(model, 0.0, 0.3 * TWO_PI / k, 0.0)
        assert rot / twist == pytest.approx(-c, rel=1e-9)


def test_tifold_index_examples():
    model = DisclinationModel(WaveParams.with_dispersion(k=1.0))
    frac, residual = tifold_index(model, full_output=True)
    assert frac == Fraction(1, 2)
    assert residual <= 1e-6

    with pytest.raises(UndefinedIndexError):
        tifold_index(DisclinationModel(WaveParams(k=1.0, omega=0.0)))

    # scaling omega off shell does not change the index
    off = DisclinationModel(WaveParams(k=1.0, omega=10.0))
    assert tifold_index(off) == Fraction(1, 2)


def test_tifold_non_rational_reports_raw_value():
    class Skewed(DisclinationModel):
        """Pattern rotating at 0.37*omega instead of omega/2."""

        def components(self, x, y, z, t):
            p = self.params
            w = np.asarray(x, dtype=np.complex128) + 1j * np.asarray(y)
            carrier = np.exp(1j * (p.k * np.asarray(z) - 0.74 * p.omega * t))
            ax = p.a * w * carrier
            return (ax, 1j * ax, 0.0 * ax, 0.0 * ax)

    model = Skewed(WaveParams.with_dispersion(k=1.0))
    with pytest.raises(NonRationalIndexError) as err:
        tifold_index(model)
    assert err.value.raw == pytest.approx(0.37, abs=1e-6)


def azimuth_model(beta):
    """Model whose real transverse vector has unit length and azimuth beta(theta, t)."""

    class Pattern(DisclinationModel):
        def components(self, x, y, z, t):
            b = beta(np.arctan2(y, x), t)
            ax = np.cos(b).astype(complex)
            return (ax, np.sin(b).astype(complex), 0.0 * ax, 0.0 * ax)

    return Pattern(WaveParams.with_dispersion(k=1.0))


def rotating(shape, alpha_of_t):
    """The pattern shape(theta) rigidly rotated by alpha_of_t(t)."""
    return lambda theta, t: shape(theta - alpha_of_t(t)) + alpha_of_t(t)


def test_rotation_of_radial_pattern_is_unobservable():
    # beta = theta + const has only the n = 1 mode: every rotation aligns it
    model = azimuth_model(lambda theta, t: theta + 0.3 + 0.0 * t)
    with pytest.raises(RigidRotationFitError, match="unobservable"):
        pattern_rotation_rate(model, 0.0, 1.0)
    with pytest.raises(RigidRotationFitError, match="unobservable"):
        axial_twist_per_length(model, 0.0, 1.0, 0.0)


def test_non_rigid_pattern_raises():
    # the n = -1 carrier and its modulation rotate at different rates
    model = azimuth_model(lambda theta, t: -theta + t + 0.3 * np.sin(theta - 3.0 * t))
    with pytest.raises(RigidRotationFitError, match="residual"):
        pattern_rotation_rate(model, 0.0, 1.0)


@pytest.mark.parametrize("n", [-2, -3])
def test_fit_recovers_step_angle_for_higher_modes(n):
    """Dominant mode n gives |1 - n| candidates; the fit must pick the right one."""
    thetas = TWO_PI * np.arange(64) / 64

    def step(shape, alpha):
        model = azimuth_model(rotating(shape, lambda t: alpha * t))
        target = _circle_azimuths(model, thetas, 0.0, 1.0)
        return _fit_rotation_step(model, thetas, target, 0.0, 0.0)

    # a pure mode is (1 - n)-fold symmetric: the candidate closest to zero wins
    inside = 0.9 * math.pi / (1 - n)
    for alpha in (inside, -inside, 0.1, 0.0):
        fitted, residual = step(lambda th: n * th, alpha)
        assert abs(fitted - alpha) <= 1e-12
        assert residual <= 1e-12
    # a side band breaks the symmetry: the residual picks the true angle anywhere
    for alpha in (2.0, -2.5, 3.0, inside):
        fitted, residual = step(lambda th: n * th + 0.3 * np.sin(th), alpha)
        assert abs(fitted - alpha) <= 1e-12
        assert residual <= 1e-12


def test_rotation_rate_of_threefold_pattern():
    # a pure n = -2 pattern turning at omega/2: substeps of a quarter turn stay
    # inside the +-pi/3 window of its three candidates
    omega = WaveParams.with_dispersion(k=1.0).omega
    model = azimuth_model(rotating(lambda th: -2.0 * th, lambda t: 0.5 * omega * t))
    rate = pattern_rotation_rate(model, 0.0, TWO_PI / omega)
    assert rate / omega == pytest.approx(0.5, abs=1e-12)
