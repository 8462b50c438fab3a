import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from defectfield import (
    ComplexScalarField,
    ConstantScalar,
    DisclinationModel,
    DislocationModel,
    GridSpec,
    PlaneWaveModel,
    PotentialField,
    ProductSineModel,
    PureGaugeModel,
    SamplingError,
    SpaceTimePoint,
    WaveParams,
    curl,
    divergence,
    laplacian,
    load_field,
    sample_potential,
    sample_scalar,
    save_field,
    strip_scalar_potential,
)
from defectfield.fields import _diff_array, harmonic_factor
from defectfield.models import PotentialModel


def test_gridspec_validation():
    with pytest.raises(ValueError):
        GridSpec((0, 4, 4), (1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        GridSpec((4, 4, 4), (1.0, -1.0, 1.0))
    with pytest.raises(ValueError):
        GridSpec((4, 4, 4), (1.0, math.inf, 1.0))


def test_gridspec_centered_and_refined():
    g = GridSpec.centered((4.0, 4.0, 2.0), (5, 5, 3))
    assert g.axis_coords(0)[0] == -2.0 and g.axis_coords(0)[-1] == 2.0
    r = g.refined()
    assert r.dims == (9, 9, 5)
    assert r.spacing[0] == g.spacing[0] / 2
    # refined nodes are nested
    assert np.allclose(r.axis_coords(0)[::2], g.axis_coords(0))


def test_spacetime_point_cylindrical():
    p = SpaceTimePoint(1.0, 1.0, 0.0)
    assert p.theta == pytest.approx(math.pi / 4)
    assert SpaceTimePoint(0.0, 0.0).theta == 0.0
    # branch is (-pi, pi]
    assert SpaceTimePoint(-1.0, -0.0).theta == math.pi


def test_sample_constant_field():
    grid = GridSpec((4, 3, 2), (0.5, 0.5, 0.5))
    f = sample_scalar(ConstantScalar(1.0 + 0.0j), grid, 0.0)
    assert np.all(f.values == 1.0 + 0.0j)


def test_sample_dislocation_center_zero():
    grid = GridSpec.centered((2.0, 2.0, 1.0), (3, 3, 1))
    f = sample_scalar(DislocationModel(n=1, k=1.0, omega=1.0, a=1.0), grid, 0.0)
    assert f.values[1, 1, 0] == 0.0 + 0.0j


def test_sample_plane_wave_value():
    # e^{i(kz - wt)} at k=1, z=pi, t=0 evaluates to e^{i pi} = -1
    grid = GridSpec((2, 2, 3), (1.0, 1.0, math.pi / 2))
    f = sample_scalar(PlaneWaveModel(kvec=(0.0, 0.0, 1.0), omega=1.0), grid, 0.0)
    assert f.values[0, 0, 2] == pytest.approx(-1.0 + 0.0j, abs=1e-15)


def test_sampling_is_pure_evaluation():
    model = DislocationModel(n=2, k=0.7, omega=1.3, a=0.9)
    grid = GridSpec.centered((3.0, 3.0, 2.0), (7, 6, 5))
    f = sample_scalar(model, grid, 0.4)
    again = sample_scalar(model, grid, 0.4)
    assert np.array_equal(f.values, again.values)  # resampling is bit-identical
    rng = np.random.default_rng(7)
    for _ in range(20):
        i, j, k = (int(rng.integers(0, n)) for n in grid.dims)
        x, y, z = grid.node_position(i, j, k)
        point_value = complex(model.value(x, y, z, 0.4))
        assert f.values[i, j, k] == pytest.approx(point_value, rel=5e-16, abs=1e-300)


SHIPPED_MODELS = (
    DisclinationModel(WaveParams.with_dispersion(k=1.3, c=0.8, a=0.7, az=0.4 - 0.3j)),
    DisclinationModel(WaveParams(k=1.0, omega=2.0, c=1.0)),
    *(DislocationModel(n=n, k=0.9, omega=1.7, a=1.2) for n in (1, -1, 3, -3)),
    PlaneWaveModel(kvec=(0.3, -1.1, 0.7), omega=0.9, amplitude=0.5 + 2.0j),
    ProductSineModel(qx=0.7, qy=1.9, kz=0.4, omega=1.3, a=2.0),
    ConstantScalar(2.0 - 1.0j),
    PureGaugeModel(DislocationModel(n=-3, k=0.8, omega=1.1), c=0.9),
    PureGaugeModel(ProductSineModel(), c=1.0),
    strip_scalar_potential(DisclinationModel(WaveParams.with_dispersion(k=1.0))),
)


@pytest.mark.parametrize("model", SHIPPED_MODELS, ids=lambda m: type(m).__name__)
@pytest.mark.parametrize("dims", [(17, 12, 9), (7, 1, 5), (2, 3, 1)])
def test_sampling_matches_dense_evaluation(model, dims):
    grid = GridSpec.centered((4.0, 3.0, 2.5), dims)
    X, Y, Z = grid.meshgrid()  # dense reference
    for t in (0.0, 0.37):
        dense = model.components(X, Y, Z, t)
        if len(dense) == 4:
            f = sample_potential(model, grid, t)
            sampled = (f.ax, f.ay, f.az, f.phi)
        else:
            sampled = (sample_scalar(model, grid, t).values,)
        for ref, got in zip(dense, sampled, strict=True):
            ref = np.broadcast_to(np.asarray(ref, dtype=np.complex128), dims)
            assert got.shape == dims
            assert got.T.flags.c_contiguous  # x fastest, the order of a field file
            assert got.tobytes() == np.ascontiguousarray(ref).tobytes()  # bit for bit


def test_samplers_reject_the_other_kind_by_component_count():
    grid = GridSpec.centered((2.0, 2.0, 1.0), (3, 3, 1))
    with pytest.raises(TypeError, match="^sample_potential requires a potential-valued model$"):
        sample_potential(DislocationModel(n=1), grid, 0.0)
    with pytest.raises(TypeError, match="^sample_scalar requires a scalar-valued model$"):
        sample_scalar(DisclinationModel(WaveParams.with_dispersion(k=1.0)), grid, 0.0)


def test_sample_potential_zero_and_disclination():
    grid = GridSpec.centered((2.0, 2.0, 1.0), (3, 3, 1))
    zero = sample_potential(
        DisclinationModel(WaveParams.with_dispersion(k=1.0, a=0.0, az=0.0)), grid, 0.0
    )
    assert np.all(zero.ax == 0) and np.all(zero.az == 0)

    model = DisclinationModel(WaveParams.with_dispersion(k=1.0))
    f = sample_potential(model, grid, 0.0)
    # on-axis node: transverse components vanish
    assert f.ax[1, 1, 0] == 0.0 and f.ay[1, 1, 0] == 0.0
    # node (x=1, y=0, z=0) with a=k=1: Ax = 1, Ay = i
    assert f.ax[2, 1, 0] == pytest.approx(1.0 + 0.0j, abs=1e-15)
    assert f.ay[2, 1, 0] == pytest.approx(1.0j, abs=1e-15)


def test_sampling_error_names_node():
    class Bad(ConstantScalar):
        def spatial(self, x, y, z):
            out = np.ones_like(np.asarray(x, dtype=np.complex128))
            out[..., 0] = np.nan
            return out

    grid = GridSpec((3, 3, 2), (1.0, 1.0, 1.0))
    with pytest.raises(SamplingError, match=r"node \(0, 0, 0\)"):
        sample_scalar(Bad(), grid, 0.0)


def test_central_diff_constant_and_linear():
    grid = GridSpec((6, 5, 4), (0.3, 0.4, 0.5))
    const = sample_scalar(ConstantScalar(2.0 - 1.0j), grid, 0.0)
    assert np.max(np.abs(_diff_array(const.values, grid, 0))) == 0.0

    X, _, _ = grid.meshgrid()
    d = _diff_array(X.astype(complex), grid, 0)
    assert np.allclose(d, 1.0, atol=1e-13)  # exact everywhere, boundaries included


def test_central_diff_two_node_axis():
    grid = GridSpec((2, 2, 2), (0.5, 0.5, 0.5))
    X, _, _ = grid.meshgrid()
    assert np.allclose(_diff_array((3.0 * X).astype(complex), grid, 0), 3.0, atol=1e-13)
    with pytest.raises(ValueError):
        _diff_array(np.zeros((1, 2, 2), complex), GridSpec((1, 2, 2), (1, 1, 1)), 0)


def test_central_diff_sin_accuracy():
    # Taylor remainder dx^2/6 bounds the interior error
    grid = GridSpec((201, 2, 2), (0.01, 1.0, 1.0))
    X, _, _ = grid.meshgrid()
    d = _diff_array(np.sin(X).astype(complex), grid, 0)
    err = np.abs(d[1:-1] - np.cos(X[1:-1]))
    assert err.max() < 1e-4


def test_central_diff_convergence_order():
    maxima = []
    grid = GridSpec((41, 2, 2), (0.1, 1.0, 1.0))
    for _ in range(3):
        X, _, _ = grid.meshgrid()
        err = np.abs(_diff_array(np.sin(X).astype(complex), grid, 0) - np.cos(X))[2:-2]
        maxima.append(err.max())
        grid = grid.refined()
    orders = [math.log2(a / b) for a, b in zip(maxima, maxima[1:])]
    for order in orders:
        assert abs(order - 2.0) <= 0.2


def test_central_diff_linearity():
    grid = GridSpec.centered((2.0, 2.0, 2.0), (9, 9, 9))
    rng = np.random.default_rng(3)
    fa = rng.standard_normal(grid.dims) + 1j * rng.standard_normal(grid.dims)
    fb = rng.standard_normal(grid.dims) + 1j * rng.standard_normal(grid.dims)
    alpha, beta = 1.25, -0.5  # exactly representable scalings
    lhs = _diff_array(alpha * fa + beta * fb, grid, 1)
    rhs = alpha * _diff_array(fa, grid, 1) + beta * _diff_array(fb, grid, 1)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_divergence_of_constant_vector_field():
    grid = GridSpec((5, 5, 5), (0.2, 0.2, 0.2))
    zeros = np.zeros(grid.dims, complex)
    f = PotentialField(grid, 0.0, zeros + 1.0, zeros + 2.0j, zeros - 3.0, zeros)
    assert np.max(np.abs(divergence(f).values)) == 0.0


def test_curl_of_rigid_rotation():
    grid = GridSpec.centered((2.0, 2.0, 2.0), (9, 9, 9))
    X, Y, _ = grid.meshgrid()
    zero = np.zeros(grid.dims, complex)
    f = PotentialField(grid, 0.0, -Y + zero, X + zero, zero, zero.copy())  # A = (-y, x, 0)
    bx, by, bz = curl(f)
    inner = (slice(1, -1),) * 3
    assert np.max(np.abs(bx.values[inner])) < 1e-10
    assert np.max(np.abs(by.values[inner])) < 1e-10
    assert np.max(np.abs(bz.values[inner] - 2.0)) < 1e-10


def test_laplacian_of_quadratic():
    grid = GridSpec.centered((2.0, 2.0, 2.0), (9, 9, 9))
    X, Y, Z = grid.meshgrid()
    f = ComplexScalarField(grid, 0.0, (X**2 + Y**2 + Z**2).astype(complex))
    lap = laplacian(f).values
    inner = (slice(2, -2),) * 3
    assert np.allclose(lap[inner], 6.0, atol=1e-11)

    # per axis: u**degree, exact at every node, boundaries included; u**3
    # needs four nodes, a three-node axis takes u**2, and a two-node axis
    # contributes zero; x*y*z is harmonic and linear along each axis
    for dims, degrees in (((9, 7, 5), (3, 3, 3)), ((4, 6, 4), (3, 3, 3)),
                          ((9, 3, 2), (3, 2, 3)), ((2, 5, 3), (2, 3, 2))):
        grid = GridSpec.centered((2.0, 1.6, 1.2), dims)
        coords = grid.meshgrid()
        values = coords[0] * coords[1] * coords[2] + 0.5
        expected = np.zeros(dims)
        for u, d, n in zip(coords, degrees, dims):
            values = values + (1.0 - 2.0j) * u**d
            if n > 2:
                expected = expected + (1.0 - 2.0j) * d * (d - 1) * u ** (d - 2)
        lap = laplacian(ComplexScalarField(grid, 0.0, values)).values
        assert np.max(np.abs(lap - expected)) < 1e-10, dims

    with pytest.raises(ValueError, match="1 node"):
        laplacian(ComplexScalarField(GridSpec((5, 1, 5), (1.0, 1.0, 1.0)), 0.0,
                                     np.zeros((5, 1, 5), complex)))


def reference_laplacian(values, spacing):
    """The ``laplacian`` docstring's formula in plain numpy, in the same operation order.

    Per axis ((f[i-1] + f[i+1]) - f[i] - f[i]) * s at interior nodes, with
    s = 1/h^2, ((2(f0 - f1) - 3(f1 - f2)) + (f2 - f3)) * s at the ends, the
    middle node's value at all three nodes of a three-node axis, and zero
    for a two-node axis; the axes are summed x, then y, then z.
    """
    total = None
    for a, h in enumerate(spacing):
        f = np.moveaxis(values, a, 0)
        if f.shape[0] == 2:
            continue
        s = 1.0 / h ** 2
        d = np.empty_like(f)
        d[1:-1] = (f[:-2] + f[2:] - f[1:-1] - f[1:-1]) * s
        if f.shape[0] == 3:
            d[0] = d[2] = d[1]
        else:
            d[0] = (2.0 * (f[0] - f[1]) - 3.0 * (f[1] - f[2]) + (f[2] - f[3])) * s
            d[-1] = (2.0 * (f[-1] - f[-2]) - 3.0 * (f[-2] - f[-3]) + (f[-3] - f[-4])) * s
        d = np.moveaxis(d, 0, a)
        total = d if total is None else total + d
    return np.zeros(values.shape, dtype=np.complex128) if total is None else total


@settings(deadline=None, database=None, max_examples=80)
@given(dims=st.tuples(*[st.integers(2, 20)] * 3), spacing=st.tuples(*[st.floats(0.05, 2.0)] * 3),
       seed=st.integers(0, 2 ** 32 - 1), x_fastest=st.booleans())
def test_laplacian_matches_an_independent_reference(dims, spacing, seed, x_fastest):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
    if x_fastest:  # the layout sampling gives
        values = np.ascontiguousarray(values.T).T
    grid = GridSpec(dims, spacing)
    got = laplacian(ComplexScalarField(grid, 0.0, values)).values
    assert got.tobytes() == np.ascontiguousarray(reference_laplacian(values, spacing)).tobytes()


class _QuadraticPotential(PotentialModel):
    def components(self, x, y, z, t):
        x = np.asarray(x, dtype=np.complex128)
        y = np.asarray(y)
        z = np.asarray(z)
        return (y * y + 0.0 * x, x * z + 0.0 * x, x * x + y * y + 0.0 * x, 0.0 * x)


def test_divergence_of_curl_vanishes_for_quadratics():
    grid = GridSpec.centered((2.0, 2.0, 2.0), (9, 9, 9))
    f = sample_potential(_QuadraticPotential(), grid, 0.0)
    bx, by, bz = curl(f)
    div = divergence(PotentialField(grid, 0.0, bx.values, by.values, bz.values,
                                    np.zeros(grid.dims, complex)))
    assert np.max(np.abs(div.values)) < 1e-12


def test_divergence_of_curl_small_for_smooth_models():
    model = DisclinationModel(WaveParams.with_dispersion(k=1.0))
    grid = GridSpec.centered((4.0, 4.0, 2 * math.pi), (17, 17, 17))
    f = sample_potential(model, grid, 0.0)
    bx, by, bz = curl(f)
    div = divergence(PotentialField(grid, 0.0, bx.values, by.values, bz.values,
                                    np.zeros(grid.dims, complex)))
    inner = (slice(2, -2),) * 3
    h = max(grid.spacing)
    assert np.max(np.abs(div.values[inner])) < 10.0 * h**2


def test_time_derivative_static_and_plane_wave():
    const = ConstantScalar(5.0)
    assert harmonic_factor(const, 1) * const.value(0.3, -0.2, 0.1, 0.0) == 0.0

    wave = PlaneWaveModel(kvec=(0.0, 0.0, 0.0), omega=2.0)
    assert harmonic_factor(wave, 1) * wave.value(0.0, 0.0, 0.0, 0.0) == pytest.approx(
        -2.0j, abs=1e-15)
    # central-difference error is omega^3 dt^2 / 6 = 1.34e-6 at dt=1e-3; the
    # wave is 1 at the origin at t = 0, so the derivative there is the factor
    numeric = harmonic_factor(wave, 1, 1e-3)
    assert abs(numeric - (-2.0j)) < 1.5e-6
    assert abs(numeric - (-2.0j)) > 1e-7  # the bound is tight, not vacuous


def test_time_derivative_potential_model():
    model = DisclinationModel(WaveParams.with_dispersion(k=1.0))
    factor = harmonic_factor(model, 1, 1e-4)
    comps = model.components(1.0, 0.5, 0.2, 0.3)
    numeric = [factor * v for v in comps]
    exact = [harmonic_factor(model, 1) * v for v in comps]
    for n, e in zip(numeric, exact):
        assert abs(n - complex(e)) < 1e-7


def test_time_derivatives_closed_form_matches_differences():
    x, y, z, t = 1.0, 0.5, 0.2, 0.3
    for model in (DisclinationModel(WaveParams.with_dispersion(k=1.3, c=0.8)),
                  PlaneWaveModel(kvec=(0.4, 0.0, 1.0), omega=1.7)):
        h = 1e-4
        minus, mid, plus = (model.components(x, y, z, s) for s in (t - h, t, t + h))
        exact = [harmonic_factor(model, 1) * v for v in mid]
        second = [harmonic_factor(model, 2) * v for v in mid]
        for e, s, m, c, p in zip(exact, second, minus, mid, plus):
            assert abs(e - (p - m) / (2.0 * h)) < 1e-7
            assert abs(s - (p - 2.0 * c + m) / h ** 2) < 1e-6
    # static models declare omega = 0: every derivative vanishes
    assert harmonic_factor(ConstantScalar(5.0), 1) == 0.0
    assert harmonic_factor(ConstantScalar(5.0), 2) == 0.0
    with pytest.raises(ValueError):
        harmonic_factor(ConstantScalar(5.0), 3)


def test_time_derivative_rejects_bad_dt():
    for dt in (0.0, -1e-3, math.nan, math.inf):
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            harmonic_factor(ConstantScalar(1.0), 1, dt)


def test_field_roundtrip_bit_exact(tmp_path):
    model = DisclinationModel(WaveParams.with_dispersion(k=1.3, az=0.4 - 0.2j))
    grid = GridSpec.centered((3.0, 2.0, 4.0), (6, 5, 4))
    f = sample_potential(model, grid, 0.7)
    manifest, _ = save_field(f, tmp_path / "field.json")
    g = load_field(manifest)
    assert isinstance(g, PotentialField)
    assert g.grid == f.grid and g.time == f.time
    for name in ("ax", "ay", "az", "phi"):
        assert np.array_equal(getattr(g, name), getattr(f, name))

    s = sample_scalar(DislocationModel(n=-2, k=1.0, omega=2.0), grid, 0.1)
    manifest, _ = save_field(s, tmp_path / "scalar.json")
    back = load_field(manifest)
    assert isinstance(back, ComplexScalarField)
    assert np.array_equal(back.values, s.values)


def test_load_field_rejects_corrupt_manifest(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ValueError):
        load_field(path)
    path.write_text('{"version": 1, "kind": "scalar"}')
    with pytest.raises(ValueError):
        load_field(path)
