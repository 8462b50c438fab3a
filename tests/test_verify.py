import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from defectfield import (
    ComplexScalarField,
    ConstantScalar,
    DisclinationModel,
    DislocationModel,
    GridSpec,
    PlaneWaveModel,
    ProductSineModel,
    PureGaugeModel,
    SamplingError,
    ScalarModel,
    UnsupportedModelError,
    WaveParams,
    claims,
    convergence_study,
    divergence,
    electric_field,
    interior_slices,
    interior_stats,
    laplacian,
    lorentz_residual,
    magnetic_field,
    sample_potential,
    sample_scalar,
    strip_scalar_potential,
    transverse_divergence,
    wave_residual,
)
from defectfield import cli, verify
from defectfield.fields import harmonic_factor
from defectfield.models import PotentialModel
from defectfield.verify import SLAB_PLANES

TWO_PI = 2.0 * math.pi

PSI_MODELS = (
    DislocationModel(n=1, k=1.0, omega=1.0, a=1.0),
    PlaneWaveModel(kvec=(0.6, 0.8, 1.3), omega=1.2),
    ProductSineModel(qx=1.1, qy=0.9, kz=1.2, omega=1.4, a=0.8),
)


def disclination(k=1.0, c=1.0, az=1.0):
    return DisclinationModel(WaveParams.with_dispersion(k=k, c=c, az=az))


def box_grid(k=1.0, n=25):
    return GridSpec.centered((6.0 / k, 6.0 / k, TWO_PI / k), (n, n, n))


def interior_max(grid, arrays):
    return interior_stats(grid, arrays)[0]


class _ConstantPotential(PotentialModel):
    """Static, spatially constant components (Ax, Ay, Az, Phi)."""

    omega = 0.0

    def __init__(self, ax=0.0, ay=0.0, az=0.0, phi=0.0):
        self.values = (ax, ay, az, phi)

    def components(self, x, y, z, t):
        zero = 0.0 * np.asarray(x, dtype=np.complex128)
        return tuple(v + zero for v in self.values)


class _RigidRotation(PotentialModel):
    """Static A = (-y, x, 0), Phi = 0; its curl is (0, 0, 2)."""

    omega = 0.0

    def components(self, x, y, z, t):
        zero = 0.0 * np.asarray(x, dtype=np.complex128)
        return (-np.asarray(y) + zero, np.asarray(x) + zero, zero, zero.copy())


def test_electric_field_constant_potentials():
    grid = GridSpec.centered((2.0, 2.0, 2.0), (7, 7, 7))
    model = _ConstantPotential(ax=1.0 - 2.0j, ay=0.5, az=3.0j, phi=2.0)
    f = sample_potential(model, grid, 0.0)
    e = electric_field(f, model)
    assert all(np.max(np.abs(comp.values)) == 0.0 for comp in e)


class _LinearPhi(PotentialModel):
    """Static A = 0, Phi = -x, so E = (1, 0, 0)."""

    omega = 0.0

    def components(self, x, y, z, t):
        zero = 0.0 * np.asarray(x, dtype=np.complex128)
        return (zero, zero.copy(), zero.copy(), -np.asarray(x) + zero)


def test_electric_field_linear_phi():
    grid = GridSpec.centered((2.0, 2.0, 2.0), (9, 9, 9))
    model = _LinearPhi()
    f = sample_potential(model, grid, 0.0)
    ex, ey, ez = electric_field(f, model)
    assert np.allclose(ex.values, 1.0, atol=1e-13)
    assert np.max(np.abs(ey.values)) < 1e-13
    assert np.max(np.abs(ez.values)) < 1e-13


class _WaveWithoutOmega(ScalarModel):
    """exp(i*(z - t)) with no declared omega, so no analytic time derivative."""

    def value(self, x, y, z, t):
        return np.exp(1j * (np.asarray(z) - t)) + 0.0 * np.asarray(x)


class _PotentialWithoutOmega(PotentialModel):
    def components(self, x, y, z, t):
        v = _WaveWithoutOmega().value(x, y, z, t)
        return (v, 1j * v, 0.0 * v, v)


def test_models_without_omega_are_unsupported_with_or_without_a_time_step():
    grid = GridSpec.centered((2.0, 2.0, 2.0), (9, 9, 9))
    scalar, potential = _WaveWithoutOmega(), _PotentialWithoutOmega()
    field = sample_potential(potential, grid, 0.0)
    # never a plain TypeError, and never silently static
    with pytest.raises(UnsupportedModelError):
        wave_residual(scalar, grid, 0.0)
    with pytest.raises(UnsupportedModelError):
        wave_residual(potential, grid, 0.0)
    with pytest.raises(UnsupportedModelError):
        electric_field(field, potential)
    with pytest.raises(UnsupportedModelError):
        lorentz_residual(field, potential)
    # a time step selects the central-difference factor, which needs omega too
    for model in (scalar, potential):
        for order in (1, 2):
            with pytest.raises(UnsupportedModelError):
                harmonic_factor(model, order, 0.01)


def test_time_step_must_be_positive_and_finite():
    model = DisclinationModel(WaveParams.with_dispersion(k=1.0))
    for dt in (0.0, -0.01, math.nan, math.inf):
        for order in (1, 2):
            with pytest.raises(ValueError, match="dt must be positive and finite"):
                harmonic_factor(model, order, dt)


@pytest.mark.parametrize("psi", PSI_MODELS, ids=("vortex", "oblique", "sines"))
def test_pure_gauge_fields_converge_to_zero(psi):
    gauge = PureGaugeModel(psi, c=1.0)
    grid = GridSpec.centered((4.0, 4.0, 4.0), (17, 17, 17))
    e_max, b_max = [], []
    g = grid
    for _ in range(3):
        f = sample_potential(gauge, g, 0.3)
        e = electric_field(f, gauge)
        b = magnetic_field(f)
        e_max.append(interior_max(g, [c.values for c in e]))
        b_max.append(interior_max(g, [c.values for c in b]))
        g = g.refined()
    for seq in (e_max, b_max):
        assert seq[0] > 0
        for a, b_ in zip(seq, seq[1:]):
            assert abs(math.log2(a / b_) - 2.0) <= 0.3


def test_magnetic_field_rigid_rotation():
    grid = GridSpec.centered((2.0, 2.0, 2.0), (9, 9, 9))
    f = sample_potential(_RigidRotation(), grid, 0.0)
    bx, by, bz = magnetic_field(f)
    assert interior_max(grid, [bx.values]) < 1e-12
    assert interior_max(grid, [by.values]) < 1e-12
    assert np.allclose(bz.values, 2.0, atol=1e-12)


def test_magnetic_field_disclination_nonzero():
    model = disclination()
    grid = box_grid(n=33)
    f = sample_potential(model, grid, 0.0)
    bx = magnetic_field(f)[0].values
    # analytic Bx = k * a * r * exp(i chi): magnitude 1 at (1, 0, 0), t=0
    i = int(round((1.0 - grid.origin[0]) / grid.spacing[0]))
    j = (grid.dims[1] - 1) // 2
    k = (grid.dims[2] - 1) // 2
    x, y, _ = grid.node_position(i, j, k)
    expected = 1.0 * math.hypot(x, y)
    assert abs(bx[i, j, k]) == pytest.approx(expected, rel=0.02)
    assert interior_max(grid, [bx]) > 0.5


def test_lorentz_residual_on_shell_disclination():
    model = disclination(az=1.0)
    grid = box_grid(n=33)
    f = sample_potential(model, grid, 0.0)
    rep = lorentz_residual(f, model)
    assert rep.interior_max <= 1e-9


def test_lorentz_residual_matched_step_of_a_model_without_params():
    # PureGaugeModel has no WaveParams, so the matched step falls back to dz / c.
    # Axial and on shell (omega = c k = 2), omega dt = k dz makes the two central
    # differences cancel: the residual is rounding in two difference quotients of
    # unit-modulus samples over 2 dz, a few ulps each, so within 8 eps / dz.
    model = PureGaugeModel(PlaneWaveModel(kvec=(0.0, 0.0, 1.0), omega=2.0), c=2.0)
    grid = GridSpec.centered(4.0, (17, 17, 17))
    dz = grid.spacing[2]
    rep = lorentz_residual(sample_potential(model, grid, 0.0), model)
    assert rep.interior_max <= 8 * np.finfo(float).eps / dz


def test_lorentz_residual_zero_field():
    model = _ConstantPotential()
    grid = GridSpec.centered((2.0, 2.0, 2.0), (7, 7, 7))
    f = sample_potential(model, grid, 0.0)
    assert lorentz_residual(f, model).interior_max == 0.0


def test_lorentz_residual_broken_phi():
    k, az = 1.0, 0.7 - 0.4j
    model = disclination(k=k, az=az)
    broken = strip_scalar_potential(model)
    grid = box_grid(k=k, n=33)
    f = sample_potential(broken, grid, 0.0)
    rep = lorentz_residual(f, broken)
    expected = abs(k * az)
    assert rep.interior_max == pytest.approx(expected, rel=0.05)


def test_transverse_divergence_cases():
    model = disclination()
    grid = box_grid(n=33)
    f = sample_potential(model, grid, 0.0)
    assert transverse_divergence(f).interior_max <= 1e-12

    class TransverseWave(PotentialModel):
        def components(self, x, y, z, t):
            zero = 0.0 * np.asarray(x, dtype=np.complex128)
            return (np.exp(1j * np.asarray(x)) + zero, zero.copy(), zero.copy(),
                    zero.copy())

    g2 = GridSpec.centered((4.0, 4.0, 2.0), (33, 33, 5))
    f2 = sample_potential(TransverseWave(), g2, 0.0)
    assert transverse_divergence(f2).interior_max == pytest.approx(1.0, rel=0.05)

    zero = sample_potential(_ConstantPotential(), g2, 0.0)
    assert transverse_divergence(zero).interior_max == 0.0


def test_wave_residual_on_shell_convergence():
    model = disclination()
    reports = convergence_study(lambda g: wave_residual(model, g, 0.0),
                                box_grid(n=17), refinements=2)
    assert reports[0].interior_max > 0
    for rep in reports[1:]:
        assert rep.observed_order == pytest.approx(2.0, abs=0.3)


def test_wave_residual_off_shell_magnitude():
    k = 1.0
    params = WaveParams(k=k, omega=2.0 * k, c=1.0)  # omega = 2kc
    model = DisclinationModel(params)
    grid = box_grid(k=k, n=33)
    res = dense_wave_residual(model, grid, 0.0)["Ax"]
    f = sample_potential(model, grid, 0.0).ax
    region = interior_slices(grid.dims)
    mask = np.abs(f[region]) > 1e-6 * np.abs(f).max()
    ratio = np.abs(res[region][mask]) / np.abs(f[region][mask])
    assert np.all(np.abs(ratio - 3.0 * k * k) <= 0.05 * 3.0 * k * k)


def test_scalar_wave_residual_uses_unit_speed():
    # a scalar model's c is 1, so a plane wave is on shell only at omega = |k|
    grid = GridSpec.centered((4.0, 4.0, 4.0), (17, 17, 17))
    on = wave_residual(PlaneWaveModel(kvec=(0.6, 0.8, 0.0), omega=1.0), grid, 0.0)
    off = wave_residual(PlaneWaveModel(kvec=(0.6, 0.8, 0.0), omega=2.0), grid, 0.0)
    assert on.interior_max < 0.01
    assert off.interior_max == pytest.approx(3.0, rel=0.01)  # |omega^2 - |k|^2|


def test_wave_residual_static_constant():
    model = _ConstantPotential(ax=2.0, phi=1.0j)
    grid = GridSpec.centered((2.0, 2.0, 2.0), (7, 7, 7))
    rep = wave_residual(model, grid, 0.0)
    assert rep.interior_max == 0.0


@pytest.mark.parametrize("model", [disclination(k=1.3, az=0.5 - 0.5j), PSI_MODELS[2]],
                         ids=("potential", "scalar"))
def test_wave_residual_report_matches_fields(model):
    grid = GridSpec.centered((5.0, 4.0, 3.0), (19, 15, 11))
    mags = walked_magnitudes(model, grid, 0.2)
    count = len(model.components(0.0, 0.0, 0.0, 0.2))
    assert mags.size == count * 15 * 11 * 7  # every interior node, counted once
    report = wave_residual(model, grid, 0.2)
    assert report.interior_max == mags.max() > 0
    assert report.interior_rms == pytest.approx(np.sqrt(np.mean(mags**2)), rel=1e-12)


def test_interior_slices_shapes():
    assert interior_slices((9, 9, 9)) == (slice(2, 7),) * 3
    assert interior_slices((3, 9, 1)) == (slice(None), slice(2, 7), slice(None))


# ---------------------------------------------------- slab-streamed wave kernel

MODEL_KINDS = {
    "disclination": lambda: disclination(k=1.3, az=0.5 - 0.5j),
    "dislocation": lambda: DislocationModel(n=-2, k=0.7, omega=1.1, a=0.9),
    "plane_wave": lambda: PlaneWaveModel(kvec=(0.6, -0.8, 1.3), omega=1.2),
    "product_sine": lambda: ProductSineModel(qx=1.1, qy=0.9, kz=1.2, omega=1.4, a=0.8),
    "pure_gauge": lambda: PureGaugeModel(DislocationModel(n=1), c=1.3),
    "constant_potential": lambda: _ConstantPotential(ax=2.0, ay=-1j, az=0.5, phi=1.0j),
    "rigid_rotation": _RigidRotation,
    "constant_scalar": lambda: ConstantScalar(value0=1.0 + 2.0j),
    "stripped": lambda: strip_scalar_potential(disclination()),
}


def dense_wave_residual(model, grid, t):
    """Reference: whole-grid laplacian of each sampled component minus its time term."""
    if len(model.components(0.0, 0.0, 0.0, t)) == 4:
        f = sample_potential(model, grid, t)
        comps = {"Ax": f.ax, "Ay": f.ay, "Az": f.az, "Phi": f.phi}
    else:
        comps = {"psi": sample_scalar(model, grid, t).values}
    out = {}
    for name, values in comps.items():
        r = laplacian(ComplexScalarField(grid, t, values)).values
        r -= harmonic_factor(model, 2) / model.c ** 2 * values
        out[name] = r
    return out


def walked_magnitudes(model, grid, t):
    """The walk's magnitudes, each repeated by the number of nodes it stands for, sorted."""
    return np.sort(np.concatenate([np.repeat(mags.ravel(), weight) for mags, weight
                                   in verify.wave_residual_fields(model, grid, t)]))


AXIS_NODES = st.integers(2, 20)


@settings(deadline=None, database=None, max_examples=60)
@given(
    dims=st.tuples(AXIS_NODES, AXIS_NODES, AXIS_NODES),
    spacing=st.tuples(*[st.floats(0.05, 2.0)] * 3),
    kind=st.sampled_from(sorted(MODEL_KINDS)),
    t=st.floats(-3.0, 3.0),
)
@example(dims=(2, 3, 4), spacing=(0.5, 0.5, 0.5), kind="disclination", t=0.0)
@example(dims=(3, 4, 2), spacing=(0.5, 0.7, 0.3), kind="rigid_rotation", t=0.0)
@example(dims=(4, 2, 3), spacing=(0.5, 0.7, 0.3), kind="plane_wave", t=0.1)
@example(dims=(SLAB_PLANES + 1, 5, 6), spacing=(0.3, 0.4, 0.5), kind="disclination", t=0.2)
@example(dims=(SLAB_PLANES + 1, 7, 3), spacing=(0.3, 0.4, 0.5), kind="product_sine", t=0.2)
@example(dims=(2 * SLAB_PLANES + 3, 6, 5), spacing=(0.2, 0.4, 0.5), kind="pure_gauge", t=0.2)
# slab edges on interior edges: the last slab holds no, or one, interior plane
@example(dims=(2 * SLAB_PLANES + 1, 6, 5), spacing=(0.2, 0.4, 0.5), kind="plane_wave", t=0.2)
@example(dims=(2 * SLAB_PLANES + 2, 5, 7), spacing=(0.2, 0.4, 0.5), kind="constant_potential",
         t=0.2)
@example(dims=(2 * SLAB_PLANES + 3, 7, 6), spacing=(0.2, 0.4, 0.5), kind="disclination", t=0.2)
# one and two interior planes
@example(dims=(5, 6, 5), spacing=(0.3, 0.4, 0.5), kind="constant_potential", t=0.2)
@example(dims=(6, 5, 9), spacing=(0.3, 0.4, 0.5), kind="plane_wave", t=0.2)
def test_wave_kernel_matches_dense_reference(dims, spacing, kind, t):
    # every interior node's |residual| is the dense one bit for bit, counted once
    model = MODEL_KINDS[kind]()
    grid = GridSpec(dims, spacing, origin=(-0.4 * dims[0] * spacing[0], -0.3, 0.2))
    region = interior_slices(grid.dims)
    mags = np.concatenate([np.abs(r[region]).ravel()
                           for r in dense_wave_residual(model, grid, t).values()])
    assert walked_magnitudes(model, grid, t).tobytes() == np.sort(mags).tobytes()
    report = wave_residual(model, grid, t)
    assert report.interior_max == mags.max()
    assert report.interior_rms == pytest.approx(np.sqrt(np.mean(mags ** 2)), rel=1e-12,
                                                abs=1e-300)


# With 3 or 4 x planes the x interior is the whole axis, and a 130 x 130 cross-section
# fills BLOCK_BYTES, so each block stencils one plane: the blocks after the first hold
# an x edge node at a nonzero offset into the slab.
@pytest.mark.parametrize("nx", [3, 4])
def test_wave_kernel_matches_dense_reference_in_one_plane_blocks(nx):
    assert verify.BLOCK_BYTES // (16 * 126 * 130) == 1  # 126 interior rows of 130 nodes
    model = MODEL_KINDS["disclination"]()
    grid = GridSpec((nx, 130, 130), (0.3, 0.05, 0.04), origin=(-0.4, -3.2, -2.6))
    region = interior_slices(grid.dims)
    mags = np.concatenate([np.abs(r[region]).ravel()
                           for r in dense_wave_residual(model, grid, 0.2).values()])
    assert walked_magnitudes(model, grid, 0.2).tobytes() == np.sort(mags).tobytes()
    assert wave_residual(model, grid, 0.2).interior_max == mags.max()


class _NaNAt(ScalarModel):
    """A plane wave that is NaN at one grid node."""

    omega = 1.0

    def __init__(self, point):
        self.point = point

    def value(self, x, y, z, t):
        v = np.exp(1j * (np.asarray(z) - t)) + 0.0 * np.asarray(x) + 0.0 * np.asarray(y)
        hit = (x == self.point[0]) & (y == self.point[1]) & (z == self.point[2])
        return np.where(hit, np.nan, v)


class _AxialNaN(PotentialModel):
    """A disclination whose axial Phi, shaped (1, 1, nz), is NaN at one z."""

    omega = 1.0

    def __init__(self, z0):
        self.z0 = z0

    def components(self, x, y, z, t):
        ax, ay, az, phi = disclination().components(x, y, z, t)
        return ax, ay, az, np.where(z == self.z0, np.nan, phi)


@pytest.mark.parametrize("node", [(2 * SLAB_PLANES + 2, 3, 4), (2 * SLAB_PLANES, 0, 5),
                                  (SLAB_PLANES, 6, 0)])
def test_wave_kernel_names_the_global_non_finite_node(node):
    grid = GridSpec.centered((4.0, 3.0, 2.0), (2 * SLAB_PLANES + 3, 7, 6))
    model = _NaNAt(grid.node_position(*node))
    with pytest.raises(SamplingError, match=rf"non-finite scalar value at node \({node[0]}, "
                                            rf"{node[1]}, {node[2]}\)$"):
        wave_residual(model, grid, 0.0)
    z0 = grid.node_position(*node)[2]
    with pytest.raises(SamplingError, match=rf"non-finite phi value at node \(0, 0, {node[2]}\)$"):
        list(verify.wave_residual_fields(_AxialNaN(z0), grid, 0.0))


@pytest.mark.parametrize("kind", ["disclination", "constant_potential", "plane_wave",
                                  "constant_scalar"])
@pytest.mark.parametrize("dims", [(5, 6, 7), (2 * SLAB_PLANES + 1, 4, 9),
                                  (2 * SLAB_PLANES + 3, 9, 3)])
def test_fold_weights_count_every_interior_node_once(kind, dims):
    model = MODEL_KINDS[kind]()
    walk = verify.wave_residual_fields(model, GridSpec(dims, (0.3, 0.4, 0.5)), 0.2)
    interior = math.prod(len(range(*s.indices(n))) for s, n in zip(interior_slices(dims), dims))
    assert sum(weight * mags.size for mags, weight in walk) == \
        len(model.components(0.0, 0.0, 0.0, 0.2)) * interior


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# tracemalloc peak of the same call while the stencil still covered each slab's
# whole window (measured before the residual was limited to the interior)
WHOLE_WINDOW_PEAK_BYTES = 2_956_904
# tracemalloc peak at 129^3 while the walk used 8-plane slabs and slab-sized
# residual buffers (measured before the walk went one x plane at a time)
SLAB_BUFFER_PEAK_BYTES_129 = 9_613_456


def test_wave_residual_memory_stays_below_one_component():
    grid = box_grid(n=65)
    component_bytes = grid.node_count * np.dtype(np.complex128).itemsize
    peak = _traced_peak(lambda: wave_residual(disclination(), grid, 0.0))
    assert peak < component_bytes
    assert peak <= WHOLE_WINDOW_PEAK_BYTES
    assert _traced_peak(lambda: wave_residual(disclination(), box_grid(n=129), 0.0)) \
        <= SLAB_BUFFER_PEAK_BYTES_129


# x sizes that no slab size but 1 divides; 13 and 17 leave a one-plane last slab
@pytest.mark.parametrize("dims", [(17, 9, 8), (19, 7, 10), (13, 6, 9)])
@pytest.mark.parametrize("kind", ["disclination", "plane_wave"])
def test_wave_residual_does_not_depend_on_the_slab_size(kind, dims, monkeypatch):
    model = MODEL_KINDS[kind]()
    grid = GridSpec(dims, (0.3, 0.4, 0.5), origin=(-2.0, -1.5, 0.2))
    results = []
    for planes in (1, 2, 4, 8):
        monkeypatch.setattr(verify, "SLAB_PLANES", planes)
        results.append((wave_residual(model, grid, 0.2),
                        walked_magnitudes(model, grid, 0.2).tobytes()))
    (first, mags), *others = results
    for report, other in others:
        assert report.interior_max == first.interior_max
        assert report.interior_rms == pytest.approx(first.interior_rms, rel=1e-15, abs=0)
        assert other == mags


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("a", [1e300, 1e307])
def test_rms_does_not_overflow_while_the_max_is_finite(a):
    # the squares of these magnitudes leave float range; scaled by the max they do not
    model = DisclinationModel(WaveParams.with_dispersion(k=1.0, a=a))
    rows = {row["check"]: row for row in claims(model, 17, 2)}
    assert rows["wave_residual_rel"]["passed"]
    grid = box_grid(n=17)
    unit = wave_residual(DisclinationModel(WaveParams.with_dispersion(k=1.0, a=1.0, az=0.0)),
                         grid, 0.0)
    big = wave_residual(DisclinationModel(WaveParams.with_dispersion(k=1.0, a=a, az=0.0)),
                        grid, 0.0)
    assert math.isfinite(big.interior_rms)
    assert big.interior_rms == pytest.approx(a * unit.interior_rms, rel=1e-12)
    values = np.full(grid.dims, a)
    assert interior_stats(grid, [values, -values]) == (a, a)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_wrapped_z_columns_raise_no_floating_point_flag():
    # the stencil's flat z shift pairs a row's last sample with the next row's
    # second; near float range that arithmetic overflows unless its z term is
    # made exactly zero in the columns the walk then discards
    model = DisclinationModel(WaveParams.with_dispersion(k=1.0, a=1e307))
    grid = GridSpec.centered((6.0, 6.0, 3.0), (17, 17, 17))
    assert wave_residual(model, grid, 0.0).interior_max == 9.311290933498433e+304
    with np.errstate(over="raise", invalid="raise"):  # as ``claims`` runs it
        assert wave_residual(model, grid, 0.0).interior_max == 9.311290933498433e+304


def test_lorentz_residual_evaluates_phi_alone():
    model = disclination(k=1.1, az=0.7 - 0.4j)
    grid = box_grid(k=1.1, n=65)
    f = sample_potential(model, grid, 0.0)
    div = divergence(f).values
    matched = model.params.k * grid.spacing[2] / model.params.omega
    dphi = harmonic_factor(model, 1, matched) * model.components(*grid.open_grid(), 0.0)[3]
    expected = interior_stats(grid, [div + np.asarray(dphi) / model.c])
    report = lorentz_residual(f, model)
    assert (report.interior_max, report.interior_rms) == expected
    component_bytes = grid.node_count * np.dtype(np.complex128).itemsize
    assert _traced_peak(lambda: lorentz_residual(f, model)) < 4 * component_bytes


class _Counting:
    """Delegates to a model and counts its evaluations."""

    def __init__(self, model):
        self.model, self.calls = model, 0

    def components(self, *args):
        self.calls += 1
        return self.model.components(*args)

    def __getattr__(self, name):
        return getattr(self.model, name)


@pytest.mark.parametrize("kind", sorted(MODEL_KINDS))
def test_time_step_matches_literal_central_difference(kind):
    model = MODEL_KINDS[kind]()
    grid = GridSpec.centered((3.0, 2.5, 2.0), (7, 6, 5))
    X, Y, Z = grid.open_grid()
    eps = np.finfo(float).eps

    def evaluate(t):
        return [np.broadcast_to(np.asarray(v, dtype=complex), grid.dims)
                for v in model.components(X, Y, Z, t)]

    for t, dt in ((0.0, 1e-3), (0.7, 1e-2), (-2.3, 0.1), (1.9, 0.5)):
        minus, mid, plus = evaluate(t - dt), evaluate(t), evaluate(t + dt)
        scale = max(float(np.abs(v).max()) for v in minus + mid + plus)
        literal = {1: [(p - m) / (2.0 * dt) for p, m in zip(plus, minus)],
                   2: [(p - 2.0 * c + m) / dt ** 2 for p, c, m in zip(plus, mid, minus)]}
        for order in (1, 2):
            # rounding of the literal difference: a few eps*|f| over dt**order
            tol = 8.0 * eps * scale / dt ** order
            stepped = [harmonic_factor(model, order, dt) * v for v in mid]
            assert len(stepped) == len(literal[order])
            for got, want in zip(stepped, literal[order]):
                assert np.max(np.abs(got - want)) <= tol, (order, t, dt)


def test_lorentz_and_electric_field_never_evaluate_the_model():
    model = _Counting(disclination(k=1.1, az=0.7 - 0.4j))
    grid = box_grid(k=1.1, n=17)
    f = sample_potential(model, grid, 0.3)
    assert model.calls == 1
    lorentz_residual(f, model)
    electric_field(f, model)
    assert model.calls == 1


def _claims_csv(rows):
    lines = ["check,value,expected,tolerance,passed,orders"]
    lines += [f"{r['check']},{r['value']:.12g},{r['expected']:.12g},"
              f"{r['tolerance']:.12g},{str(r['passed']).lower()},{r['orders']}" for r in rows]
    return "\n".join(lines) + "\n"


def test_claims_table_is_the_verify_csv_and_one_rule_decides_every_row(tmp_path):
    model = DisclinationModel(WaveParams.with_dispersion(k=1.3, c=0.8, a=0.7, az=0.4 - 0.3j))
    rows = claims(model, 25, 3)
    out = tmp_path / "verify.csv"
    descriptor = '{"model": "disclination", "k": 1.3, "c": 0.8, "a": 0.7, "az": [0.4, -0.3]}'
    assert cli.main(["verify", "--model", descriptor, "--dims", "25", "--refinements", "3",
                     "--out", str(out)]) == cli.EXIT_OK
    assert _claims_csv(rows) == out.read_text()
    assert [r["check"] for r in rows] == [
        "lorentz_interior_max", "transverse_divergence_interior_max", "wave_residual_rel",
        "rotation_rate_over_omega", "twist_per_wavelength", "tifold_index",
        "orbifold_winding_deviation", "energy_partition_deviation"]
    for r in rows:
        orders = [float(o) for o in r["orders"].split(";") if o]
        assert (r["check"] == "wave_residual_rel") == bool(orders)
        rule = (abs(r["value"] - r["expected"]) <= r["tolerance"]
                and all(1.7 <= o <= 2.3 for o in orders))
        assert r["passed"] is rule is True, r


def test_claims_off_shell_fails_only_the_wave_row():
    # omega = 2 k c: the gauge pair, the fits, the winding and the ledger still hold
    model = DisclinationModel(WaveParams(k=1.0, omega=2.0))
    failed = [r["check"] for r in claims(model, 21, 2) if not r["passed"]]
    assert failed == ["wave_residual_rel"]


def test_claims_fail_a_nan_fit_and_an_order_outside_the_window(monkeypatch):
    from defectfield import detect, verify

    def undefined(*args, **kwargs):
        raise detect.NonRationalIndexError(0.4)

    def first_order_study(make_report, grid, refinements):
        # a residual well inside 0.05 whose refinement shows first order
        report = make_report(grid)
        return [report, replace(report, interior_max=report.interior_max / 2, observed_order=1.0)]

    monkeypatch.setattr(detect, "tifold_index", undefined)
    monkeypatch.setattr(verify, "convergence_study", first_order_study)
    rows = {r["check"]: r for r in claims(disclination(), 25, 2)}
    assert math.isnan(rows["tifold_index"]["value"])
    assert rows["wave_residual_rel"]["value"] <= 0.05
    assert rows["wave_residual_rel"]["orders"] == "1.000"
    assert [c for c, r in rows.items() if not r["passed"]] == ["wave_residual_rel", "tifold_index"]


@pytest.mark.parametrize("model, dims, refinements, message", [
    (DislocationModel(n=1, k=1.0, omega=1.0), 9, 1, "requires a disclination model"),
    (disclination(), 9, 0, "refinements must be at least 1"),
    (DisclinationModel(WaveParams.with_dispersion(k=1.0, a=0.0, az=0.0)), 9, 1,
     "nonzero disclination amplitude"),
    (DisclinationModel(WaveParams.with_dispersion(k=1.0, a=0.0)), 9, 1,
     "nonzero transverse amplitude a"),
    pytest.param(DisclinationModel(WaveParams.with_dispersion(k=1.0, c=1e308)), 5, 1,
                 r"float range: k=1, c=1e\+308, omega=1e\+308, a=1, az=1\+0j$",
                 id="model4-5-1-float range"),
    pytest.param(DisclinationModel(WaveParams.with_dispersion(k=1e-300)), 5, 1,
                 r"float range: k\^2", id="model5-5-1-float range"),
    # a = 1, but at --dims 5 the interior is the axis node, where every component is 0
    pytest.param(DisclinationModel(WaveParams.with_dispersion(k=1.0, az=0.0)), 5, 1,
                 r"^every component vanishes in the grid interior, which at --dims 5 is the "
                 r"axis node alone; use a larger --dims$", id="model6-5-1-empty interior"),
    # a = 1, but a one-node grid is the axis node, where Ax is 0
    pytest.param(disclination(), 1, 1, r"^verify needs --dims of at least 2: at --dims 1 the "
                 r"grid is the axis node alone, where Ax vanishes$", id="model7-1-1-one node"),
    pytest.param(disclination(), 0, 1, r"^--dims must be a positive integer, got 0$",
                 id="model8-0-1-no nodes"),
    pytest.param(disclination(), -3, 1, r"^--dims must be a positive integer, got -3$",
                 id="model9--3-1-negative"),
])
def test_claims_input_errors_are_the_cli_messages(model, dims, refinements, message, capsys):
    with pytest.raises(ValueError, match=message) as err:
        claims(model, dims, refinements)
    assert "(34," not in str(err.value)   # no errno tuple from the overflow
    # the CLI prints exactly the library's message and exits 2
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("defectfield.models.model_from_descriptor", lambda descriptor: model)
        assert cli.main(["verify", "--model", "{}", "--dims", str(dims),
                         "--refinements", str(refinements)]) == cli.EXIT_USAGE
    assert capsys.readouterr().err == f"error: {err.value}\n"
