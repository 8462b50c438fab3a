import math

import numpy as np
import pytest

from defectfield import (
    ConstantPotential,
    DisclinationModel,
    DislocationModel,
    GridSpec,
    PlaneWaveModel,
    ProductSineModel,
    PureGaugeModel,
    RigidRotationPotential,
    ScalarModel,
    UnsupportedModelError,
    WaveParams,
    convergence_study,
    electric_field,
    interior_slices,
    interior_stats,
    lorentz_residual,
    magnetic_field,
    sample_potential,
    strip_scalar_potential,
    transverse_divergence,
    wave_residual,
    wave_residual_fields,
)
from defectfield.models import PotentialModel

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


def test_electric_field_constant_potentials():
    grid = GridSpec.centered((2.0, 2.0, 2.0), (7, 7, 7))
    model = ConstantPotential(ax=1.0 - 2.0j, ay=0.5, az=3.0j, phi=2.0)
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


def test_models_without_omega_need_a_time_step():
    grid = GridSpec.centered((2.0, 2.0, 2.0), (9, 9, 9))
    scalar, potential = _WaveWithoutOmega(), _PotentialWithoutOmega()
    field = sample_potential(potential, grid, 0.0)
    # never a plain TypeError, and never silently static
    with pytest.raises(UnsupportedModelError):
        wave_residual(scalar, grid, 0.0, c=1.0)
    with pytest.raises(UnsupportedModelError):
        wave_residual(potential, grid, 0.0)
    with pytest.raises(UnsupportedModelError):
        electric_field(field, potential)
    with pytest.raises(UnsupportedModelError):
        lorentz_residual(field, potential, time_step="analytic")
    # a finite-difference time step needs no omega: both sides are -f
    for model in (scalar, potential):
        report = wave_residual(model, grid, 0.0, dt=0.01, c=1.0)
        assert 0.0 < report.interior_max < 0.05  # O(h^2) spatial error, |f| = 1


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
    f = sample_potential(RigidRotationPotential(b0=2.0), grid, 0.0)
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


def test_lorentz_residual_zero_field():
    model = ConstantPotential()
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


def test_lorentz_residual_analytic_path_shows_stencil_error():
    # with the analytic time derivative the axial cancellation is only
    # second order in the grid spacing, not exact
    model = disclination()
    grid = box_grid(n=33)
    f = sample_potential(model, grid, 0.0)
    rep = lorentz_residual(f, model, time_step="analytic")
    kh = model.params.k * grid.spacing[2]
    assert rep.interior_max == pytest.approx(kh ** 2 / 6.0, rel=0.1)


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

    zero = sample_potential(ConstantPotential(), g2, 0.0)
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
    res = wave_residual_fields(model, grid, 0.0)["Ax"]
    f = sample_potential(model, grid, 0.0).ax
    region = interior_slices(grid.dims)
    mask = np.abs(f[region]) > 1e-6 * np.abs(f).max()
    ratio = np.abs(res[region][mask]) / np.abs(f[region][mask])
    assert np.all(np.abs(ratio - 3.0 * k * k) <= 0.05 * 3.0 * k * k)


def test_wave_residual_static_constant():
    model = ConstantPotential(ax=2.0, phi=1.0j)
    grid = GridSpec.centered((2.0, 2.0, 2.0), (7, 7, 7))
    rep = wave_residual(model, grid, 0.0, c=1.0)
    assert rep.interior_max == 0.0


def test_wave_residual_numeric_time_matches_analytic():
    model = disclination()
    grid = box_grid(n=17)
    analytic = wave_residual(model, grid, 0.0)
    numeric = wave_residual(model, grid, 0.0, dt=1e-4)
    assert numeric.interior_max == pytest.approx(analytic.interior_max, rel=1e-4)


def test_interior_slices_shapes():
    assert interior_slices((9, 9, 9)) == (slice(2, 7),) * 3
    assert interior_slices((3, 9, 1)) == (slice(None), slice(2, 7), slice(None))
