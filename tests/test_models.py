import math

import numpy as np
import pytest

from defectfield import (
    ConstantScalar,
    DisclinationModel,
    DislocationModel,
    IndeterminateAzimuthError,
    PlaneWaveModel,
    ProductSineModel,
    PureGaugeModel,
    ScalarModel,
    SpaceTimePoint,
    UnsupportedModelError,
    WaveParams,
    azimuth_beta,
    model_from_descriptor,
    phase_chi,
    strip_scalar_potential,
    wrap_angle,
)

TWO_PI = 2.0 * math.pi


def test_wave_params_defaults_and_dispersion():
    p = WaveParams(k=2.0, omega=3.0)
    assert p.a == 2.0  # amplitude defaults to the wavenumber
    assert p.omega != p.k * p.c  # construction does not force the dispersion relation
    q = WaveParams.with_dispersion(k=2.0, c=1.5)
    assert q.omega == 3.0 and q.c == 1.5
    with pytest.raises(ValueError):
        WaveParams(k=-1.0, omega=1.0)
    with pytest.raises(ValueError):
        WaveParams(k=1.0, omega=1.0, c=0.0)


def test_phase_chi_examples():
    p = WaveParams(k=1.0, omega=2.0)
    assert phase_chi(p, SpaceTimePoint(1.0, 0.0, 0.0, 0.0)) == 0.0
    # theta=pi/2, k=1, z=pi/2, omega=2, t=pi/2 -> pi/2 + pi/2 - pi = 0
    assert phase_chi(p, SpaceTimePoint(0.0, 1.0, math.pi / 2, math.pi / 2)) == pytest.approx(0.0)
    # theta=0, z equal to one wavelength: k*lambda = 2*pi (not reduced)
    q = WaveParams(k=2.0, omega=1.0)
    assert phase_chi(q, SpaceTimePoint(1.0, 0.0, math.pi, 0.0)) == pytest.approx(TWO_PI)


def test_disclination_components_examples():
    model = DisclinationModel(WaveParams.with_dispersion(k=1.0, az=0.5 + 0.25j))
    # on axis: transverse components vanish, Az keeps its travelling factor
    ax, ay, az, phi = model.components(0.0, 0.0, 0.7, 0.3)
    assert ax == 0.0 and ay == 0.0
    assert az == pytest.approx((0.5 + 0.25j) * np.exp(1j * (0.7 - 0.3)), abs=1e-15)
    assert phi == pytest.approx(az, abs=1e-15)  # on shell: k*c/omega = 1

    # a=1, r=1, chi=0: Ax = 1, Ay = i
    unit = DisclinationModel(WaveParams.with_dispersion(k=1.0, a=1.0))
    ax, ay, _, _ = unit.components(1.0, 0.0, 0.0, 0.0)
    assert ax == pytest.approx(1.0 + 0.0j, abs=1e-15)
    assert ay == pytest.approx(1.0j, abs=1e-15)

    # a=1, r=2, theta=pi/2, z=0, t=0: chi=pi/2, Ax=2i, Ay=-2
    ax, ay, _, _ = unit.components(0.0, 2.0, 0.0, 0.0)
    assert ax == pytest.approx(2.0j, abs=1e-14)
    assert ay == pytest.approx(-2.0 + 0.0j, abs=1e-14)


def test_dislocation_value_examples():
    model = DislocationModel(n=1, k=1.0, omega=1.0, a=1.0)
    assert model.value(0.0, 0.0, 0.0, 0.0) == 0.0
    value = model.value(-1.0, 0.0, 0.0, 0.0)
    assert value == pytest.approx(-1.0 + 0.0j, abs=1e-15)

    double = DislocationModel(n=2, k=1.0, omega=1.0, a=1.0)
    value = double.value(0.0, 1.0, 0.0, 0.0)
    assert np.angle(value) == pytest.approx(math.pi)  # n*theta = 2*(pi/2)

    with pytest.raises(ValueError):
        DislocationModel(n=0)


def test_dislocation_matches_polar_form():
    rng = np.random.default_rng(11)
    for n in (1, -1, 2, -3):
        model = DislocationModel(n=n, k=0.8, omega=1.1, a=0.6)
        for _ in range(10):
            x, y, z, t = rng.uniform(-2, 2, size=4)
            pt = SpaceTimePoint(x, y, z, t)
            expected = 0.6 * math.hypot(x, y) ** abs(n) * np.exp(
                1j * (n * pt.theta + 0.8 * z - 1.1 * t))
            assert model.value(x, y, z, t) == pytest.approx(expected, abs=1e-12)


def test_azimuth_beta_examples():
    assert azimuth_beta(1.0 + 0.0j, 1.0j) == pytest.approx(0.0)
    assert azimuth_beta(1.0j, -1.0 + 0.0j) == pytest.approx(-math.pi / 2)
    assert azimuth_beta(1.0 + 0.0j, 1.0 + 0.0j) == pytest.approx(math.pi / 4)
    with pytest.raises(IndeterminateAzimuthError):
        azimuth_beta(0.0j, 0.0j)


def test_azimuth_equals_minus_chi_mod_2pi():
    model = DisclinationModel(WaveParams.with_dispersion(k=1.7, c=0.9, a=0.5))
    rng = np.random.default_rng(5)
    for _ in range(50):
        x, y = rng.uniform(-2, 2, size=2)
        if math.hypot(x, y) < 1e-3:
            continue
        z, t = rng.uniform(-3, 3, size=2)
        pt = SpaceTimePoint(x, y, z, t)
        ax, ay, _, _ = model.components(pt.x, pt.y, pt.z, t)
        beta = azimuth_beta(ax, ay)
        chi = phase_chi(model.params, pt)
        assert abs(wrap_angle(beta + chi)) < 1e-12


def test_z0_phase_condition():
    # at z=0: beta - theta = -2*(theta - omega*t/2) modulo 2*pi
    model = DisclinationModel(WaveParams.with_dispersion(k=1.0, c=2.0))
    omega = model.params.omega
    thetas = np.linspace(-math.pi + 1e-9, math.pi, 37)
    for t in np.linspace(0.0, TWO_PI / omega, 9, endpoint=False):
        for theta in thetas:
            pt = SpaceTimePoint(math.cos(theta), math.sin(theta), 0.0, t)
            ax, ay, _, _ = model.components(pt.x, pt.y, pt.z, t)
            beta = azimuth_beta(ax, ay)
            lhs = beta - pt.theta
            rhs = -2.0 * (pt.theta - omega * t / 2.0)
            assert abs(wrap_angle(lhs - rhs)) < 1e-9


def test_pure_gauge_components_examples():
    pt = SpaceTimePoint(0.2, -0.4, 0.6)
    assert PureGaugeModel(ConstantScalar(3.0 + 1.0j)).components(pt.x, pt.y, pt.z, 0.5) == (0, 0, 0, 0)

    # psi = e^{i(kz - wt)}, k=omega=c=1: A = (0, 0, i psi), Phi = i psi
    psi = PlaneWaveModel(kvec=(0.0, 0.0, 1.0), omega=1.0)
    t = 0.25
    ax, ay, az, phi = PureGaugeModel(psi).components(pt.x, pt.y, pt.z, t)
    expected = 1j * np.exp(1j * (pt.z - t))
    assert ax == 0.0 and ay == 0.0
    assert az == pytest.approx(expected, abs=1e-15)
    assert phi == pytest.approx(expected, abs=1e-15)

    # psi = (x+iy) e^{i(kz - wt)}: Ax = e^{i(kz-wt)}, Ay = i e^{i(kz-wt)}
    vortex = DislocationModel(n=1, k=1.0, omega=1.0, a=1.0)
    ax, ay, _, _ = PureGaugeModel(vortex).components(pt.x, pt.y, pt.z, t)
    carrier = np.exp(1j * (pt.z - t))
    assert ax == pytest.approx(carrier, abs=1e-15)
    assert ay == pytest.approx(1j * carrier, abs=1e-15)


def test_pure_gauge_requires_analytic_derivatives():
    class Opaque(ScalarModel):
        def value(self, x, y, z, t):
            return np.exp(1j * np.asarray(x))

    with pytest.raises(UnsupportedModelError):
        PureGaugeModel(Opaque())


def test_strip_scalar_potential():
    model = DisclinationModel(WaveParams.with_dispersion(k=1.0))
    broken = strip_scalar_potential(model)
    ax, ay, az, phi = broken.components(1.0, 0.5, 0.2, 0.1)
    full = model.components(1.0, 0.5, 0.2, 0.1)
    assert phi == 0.0
    assert ax == full[0] and ay == full[1] and az == full[2]
    # no params, so the matched time step falls back to dz/c
    assert not hasattr(broken, "params")
    assert (broken.c, broken.omega) == (model.c, model.omega)


def test_product_sine_gradient_consistency():
    model = ProductSineModel(qx=1.3, qy=0.7, kz=1.1, omega=2.0, a=0.8)
    h = 1e-6
    x, y, z = 0.3, -0.5, 0.9
    gx, gy, gz = model.spatial_gradient(x, y, z)
    fd_gx = (model.spatial(x + h, y, z) - model.spatial(x - h, y, z)) / (2 * h)
    fd_gy = (model.spatial(x, y + h, z) - model.spatial(x, y - h, z)) / (2 * h)
    fd_gz = (model.spatial(x, y, z + h) - model.spatial(x, y, z - h)) / (2 * h)
    assert gx == pytest.approx(fd_gx, rel=1e-8)
    assert gy == pytest.approx(fd_gy, rel=1e-8)
    assert gz == pytest.approx(fd_gz, rel=1e-8)


def test_descriptor_round_trip():
    # each descriptor decodes to the model carrying its values; [re, im] is complex
    cases = [
        ({"model": "disclination", "k": 1.5, "omega": 2.0, "c": 1.1, "a": 0.7,
          "az": [0.3, -0.4]},
         DisclinationModel(WaveParams(k=1.5, omega=2.0, c=1.1, a=0.7, az=0.3 - 0.4j))),
        ({"model": "dislocation", "n": -2, "k": 0.5, "omega": 1.5, "a": 2.0},
         DislocationModel(n=-2, k=0.5, omega=1.5, a=2.0)),
        ({"model": "plane_wave", "kvec": [0.1, 0.2, 0.3], "omega": 0.9,
          "amplitude": [1.0, -1.0]},
         PlaneWaveModel(kvec=(0.1, 0.2, 0.3), omega=0.9, amplitude=1.0 - 1.0j)),
        ({"model": "product_sine", "qx": 1.0, "qy": 2.0, "kz": 3.0, "omega": 4.0, "a": 0.5},
         ProductSineModel(qx=1.0, qy=2.0, kz=3.0, omega=4.0, a=0.5)),
        ({"model": "constant", "value": [2.0, 3.0]}, ConstantScalar(2.0 + 3.0j)),
        ({"model": "pure_gauge", "c": 2.0,
          "psi": {"model": "dislocation", "n": 1, "k": 1.0, "omega": 1.0}},
         PureGaugeModel(DislocationModel(n=1, k=1.0, omega=1.0), c=2.0)),
    ]
    for descriptor, model in cases:
        rebuilt = model_from_descriptor(descriptor)
        assert rebuilt == model
        assert type(rebuilt) is type(model)


def test_descriptor_rejects_garbage():
    with pytest.raises(ValueError):
        model_from_descriptor({"model": "nope"})
    with pytest.raises(ValueError):
        model_from_descriptor({"k": 1.0})
    with pytest.raises(ValueError):
        model_from_descriptor({"model": "disclination", "k": -1.0})
    with pytest.raises(ValueError):
        model_from_descriptor({"model": "dislocation", "n": 1, "bogus": 2})
    with pytest.raises(ValueError):
        model_from_descriptor({"model": "disclination", "k": 1.0, "az": [1]})
    with pytest.raises(ValueError):
        model_from_descriptor({"model": "disclination", "k": 1.0, "az": [1, 2, 3]})
    with pytest.raises(ValueError):
        model_from_descriptor({"model": "plane_wave", "amplitude": [1]})
    with pytest.raises(ValueError):
        model_from_descriptor({"model": "constant", "value": [1]})
    with pytest.raises(ValueError):
        model_from_descriptor({"model": "dislocation", "n": 1.5})
    with pytest.raises(ValueError):
        model_from_descriptor({"model": "dislocation", "n": True})
    with pytest.raises(ValueError):
        model_from_descriptor({"model": "plane_wave", "kvec": [1, 2]})
