import math
import re
import warnings

import numpy as np
import pytest

from defectfield import (
    Chain,
    CubicalComplex,
    DiscreteForm,
    ParametricCycle,
    angular_form_components,
    annulus_complex,
    boundary,
    closed_not_exact_witness,
    coboundary,
    evaluate,
    period_integral,
    stokes_residual,
    winding_one_form,
    ws_integral,
)
from defectfield.forms import (
    DegreeError,
    NoCycleError,
    QuadratureAccuracyWarning,
    SingularityProximityError,
    form_from_vertex_function,
    hole_cycle,
)

TWO_PI = 2.0 * math.pi


def random_chain(cx, degree, rng, support=6):
    cells = rng.integers(0, cx.n_cells(degree), size=support)
    coeffs = rng.integers(-4, 5, size=support)
    return Chain(cx, degree, {int(c): int(v) for c, v in zip(cells, coeffs)})


def test_cell_counts():
    cx = CubicalComplex(5, 4)
    assert cx.n_vertices == 20
    assert cx.n_edges == (5 - 1) * 4 + 5 * (4 - 1)
    assert cx.n_faces == (5 - 1) * (4 - 1)


def test_boundary_of_single_face_is_ccw_loop():
    cx = CubicalComplex(4, 4)
    # cells are numbered x fastest: face and x-edge (i, j) are 3*j + i, and
    # y-edge (i, j) follows the 12 x-edges as 12 + 4*j + i
    face = Chain(cx, 2, {7: 1})  # face (1, 2)
    edges = boundary(face)
    assert edges.coeffs == {
        7: 1,    # x-edge (1, 2), along +x
        22: 1,   # y-edge (2, 2), along +y
        10: -1,  # x-edge (1, 3), against +x
        21: -1,  # y-edge (1, 2), against +y
    }


def test_boundary_of_boundary_is_zero():
    cx = CubicalComplex(7, 6)
    rng = np.random.default_rng(0)
    for _ in range(50):
        chain = random_chain(cx, 2, rng)
        assert boundary(boundary(chain)).coeffs == {}
    with pytest.raises(DegreeError):
        boundary(Chain(cx, 0, {0: 1}))


def test_boundary_of_face_block_is_outer_loop():
    cx = CubicalComplex(5, 5)
    block = Chain(cx, 2, {4 * j + i: 1 for i in (1, 2) for j in (1, 2)})  # faces (i, j)
    edges = boundary(block)
    assert len(edges.coeffs) == 8  # interior edges cancel
    assert all(abs(v) == 1 for v in edges.coeffs.values())
    # the outer loop is itself a cycle
    assert boundary(edges).coeffs == {}


@pytest.mark.parametrize("coeffs", [
    {2.5: 1},                # non-integral cell index, once truncated to 2
    {2: math.inf},           # once escaped as OverflowError
    {2: math.nan},
    {2: 1.5},
    {10_000: 1},             # out of range
], ids=("cell-2.5", "coef-inf", "coef-nan", "coef-1.5", "cell-out-of-range"))
def test_chain_rejects_non_integral_or_out_of_range_entries(coeffs):
    cx = CubicalComplex(4, 4)
    with pytest.raises(ValueError):
        Chain(cx, 1, coeffs)


def test_chain_accepts_whole_floats_as_integers():
    chain = Chain(CubicalComplex(4, 4), 1, {2.0: 3.0, np.int64(5): np.float64(-1.0), 7: 0})
    assert chain.coeffs == {2: 3, 5: -1}
    assert all(type(k) is int and type(v) is int for k, v in chain.coeffs.items())


def test_coboundary_examples():
    cx = CubicalComplex(6, 5, spacing=(0.5, 0.5))
    const = form_from_vertex_function(cx, lambda x, y: np.ones_like(x))
    assert np.all(coboundary(const).values == 0.0)

    coord = form_from_vertex_function(cx, lambda x, y: x)
    d = coboundary(coord)
    assert np.allclose(d.values[:cx.n_xedges], 0.5)  # dx on x-edges
    assert np.all(d.values[cx.n_xedges:] == 0.0)  # zero on y-edges

    two_form = coboundary(d)
    with pytest.raises(DegreeError):
        coboundary(two_form)


def test_dd_zero_exact_on_integer_forms():
    cx = CubicalComplex(9, 8)
    rng = np.random.default_rng(1)
    for _ in range(200):
        f = DiscreteForm(cx, 0, rng.integers(-2 ** 20, 2 ** 20, cx.n_vertices).astype(float))
        dd = coboundary(coboundary(f))
        assert np.all(dd.values == 0.0)


def test_dd_small_on_float_forms():
    cx = CubicalComplex(9, 8)
    rng = np.random.default_rng(2)
    for _ in range(50):
        f = DiscreteForm(cx, 0, rng.standard_normal(cx.n_vertices))
        dd = coboundary(coboundary(f))
        assert np.max(np.abs(dd.values)) <= 1e-12 * max(1.0, np.abs(f.values).max())


def test_evaluate_linearity_and_basics():
    cx = CubicalComplex(6, 6)
    rng = np.random.default_rng(3)
    form = DiscreteForm(cx, 1, rng.standard_normal(cx.n_edges))
    c1 = random_chain(cx, 1, rng)
    c2 = random_chain(cx, 1, rng)
    combined = {cell: 3 * c1.coeffs.get(cell, 0) - 2 * c2.coeffs.get(cell, 0)
                for cell in {**c1.coeffs, **c2.coeffs}}
    lhs = evaluate(form, Chain(cx, 1, combined))
    rhs = 3 * evaluate(form, c1) - 2 * evaluate(form, c2)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)
    assert evaluate(form, Chain(cx, 1, {})) == 0.0
    edge = 17  # x-edge (2, 3): 5*3 + 2
    assert evaluate(form, Chain(cx, 1, {edge: 1})) == form.values[edge]
    with pytest.raises(DegreeError):
        evaluate(form, Chain(cx, 2, {0: 1}))


def test_stokes_residual_sweep():
    cx = CubicalComplex(8, 7)
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(1000):
        degree = int(rng.integers(0, 2))
        form = DiscreteForm(cx, degree, rng.standard_normal(cx.n_cells(degree)))
        chain = random_chain(cx, degree + 1, rng)
        norm = max(1.0, float(np.abs(form.values).max()))
        worst = max(worst, abs(stokes_residual(form, chain)) / norm)
    assert worst <= 1e-12


def test_stokes_residual_rejects_what_its_two_evaluations_reject():
    cx, other = CubicalComplex(5, 4), CubicalComplex(5, 4)
    edge_form = DiscreteForm(cx, 1, np.ones(cx.n_edges))
    for form, chain in ((DiscreteForm(cx, 2, np.ones(cx.n_faces)), Chain(cx, 2, {0: 1})),
                        (DiscreteForm(cx, 0, np.ones(cx.n_vertices)), Chain(cx, 0, {0: 1})),
                        (DiscreteForm(cx, 0, np.ones(cx.n_vertices)), Chain(cx, 2, {0: 1})),
                        (edge_form, Chain(cx, 1, {0: 1}))):
        with pytest.raises(DegreeError):
            stokes_residual(form, chain)
    with pytest.raises(ValueError, match="different complexes"):
        stokes_residual(edge_form, Chain(other, 2, {0: 1}))
    with pytest.raises(DegreeError):
        cx.lower_cells(0, [0])
    assert stokes_residual(edge_form, Chain(cx, 2, {})) == 0.0


def _star_cycle(cx=0.0, cy=0.0, r0=1.0, harmonics=()):
    """Star-shaped cycle r(phi) = r0 * (1 + sum_j amp*cos(j*phi + phase)), one turn."""

    def radius(phi):
        r = np.full_like(phi, r0, dtype=float)
        dr = np.zeros_like(phi, dtype=float)
        for j, a, p in harmonics:
            r += r0 * a * np.cos(j * phi + p)
            dr -= r0 * a * j * np.sin(j * phi + p)
        return r, dr

    def curve(s):
        r, _ = radius(TWO_PI * s)
        return cx + r * np.cos(TWO_PI * s), cy + r * np.sin(TWO_PI * s)

    def derivative(s):
        phi = TWO_PI * s
        r, dr = radius(phi)
        return ((dr * np.cos(phi) - r * np.sin(phi)) * TWO_PI,
                (dr * np.sin(phi) + r * np.cos(phi)) * TWO_PI)

    return ParametricCycle(curve, derivative)


def test_period_integral_of_exact_form():
    # d(x^2) has components (2x, 0); every cycle integral vanishes
    cycle = _star_cycle(r0=1.3, harmonics=[(3, 0.2, 0.4), (5, 0.1, 1.0)])
    value = period_integral(lambda x, y: 2.0 * x, lambda x, y: np.zeros_like(x), cycle)
    assert abs(value) < 1e-10


def test_angular_period_unit_circle():
    ax, ay = angular_form_components()
    cycle = ParametricCycle.circle(radius=1.0)
    period = period_integral(ax, ay, cycle, singularities=((0.0, 0.0),))
    assert period == pytest.approx(TWO_PI, abs=1e-9)
    assert period / TWO_PI == pytest.approx(1.0, abs=1e-9)


def test_angular_period_non_enclosing():
    ax, ay = angular_form_components()
    cycle = ParametricCycle.circle(cx=2.5, cy=0.0, radius=1.0)
    period = period_integral(ax, ay, cycle, singularities=((0.0, 0.0),))
    assert abs(period) < 1e-9


def test_angular_period_multi_turn():
    ax, ay = angular_form_components()
    for turns in (2, 3):
        cycle = ParametricCycle.circle(radius=1.5, turns=turns)
        period = period_integral(ax, ay, cycle, singularities=((0.0, 0.0),))
        assert period == pytest.approx(TWO_PI * turns, abs=1e-9)


def test_angular_period_random_star_cycles():
    ax, ay = angular_form_components()
    rng = np.random.default_rng(5)
    for _ in range(50):
        r0 = rng.uniform(0.5, 2.0)
        harmonics = [(int(j), rng.uniform(-0.08, 0.08), rng.uniform(0, TWO_PI))
                     for j in rng.integers(2, 9, size=3)]
        enclosing = rng.uniform() < 0.5
        if enclosing:
            center = (rng.uniform(-0.2, 0.2) * r0, rng.uniform(-0.2, 0.2) * r0)
            expected = TWO_PI
        else:
            center = (3.0 * r0, 0.0)
            expected = 0.0
        cycle = _star_cycle(center[0], center[1], r0, harmonics)
        period = period_integral(ax, ay, cycle, singularities=((0.0, 0.0),))
        assert period == pytest.approx(expected, abs=1e-9)


def test_period_integral_singularity_guard():
    ax, ay = angular_form_components()
    tiny = ParametricCycle.circle(radius=5e-7)
    with pytest.raises(SingularityProximityError):
        period_integral(ax, ay, tiny, singularities=((0.0, 0.0),))


def test_period_integral_warns_when_unresolved():
    # angular form singular just inside the cycle: the trapezoid and midpoint
    # halves still differ by 0.96 at 256 samples and by 8.4e-11 at 2560, above
    # the floor 1e-12 * 2 pi, and agree to rounding at 4096. The integrand is
    # mirror-symmetric about s = 1/2, so the two interleaved halves of a 2m-point
    # midpoint sum are mirror images and would agree exactly at every count.
    ax, ay = angular_form_components(center=(0.99, 0.0))
    for samples in (16, 32, 64, 128, 256, 2560):
        cycle = ParametricCycle.circle(radius=1.0, samples=samples)
        with pytest.warns(QuadratureAccuracyWarning):
            period_integral(ax, ay, cycle, singularities=((0.99, 0.0),))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = period_integral(ax, ay, ParametricCycle.circle(samples=4096))
    assert value == pytest.approx(TWO_PI, abs=1e-12)


def test_period_integral_is_the_mean_of_its_trapezoid_and_midpoint_halves():
    # Re(z^m) dtheta on the unit circle integrates 2 pi cos(2 pi m s): the m-point
    # trapezoid sum reads +2 pi, the midpoint sum -2 pi, and their mean the exact 0
    m = 16
    cycle = ParametricCycle.circle(samples=m)

    def g(x, y):
        return np.real((x + 1j * y) ** m)

    with pytest.warns(QuadratureAccuracyWarning, match=r"differ by 1\.26e\+01"):
        value = period_integral(lambda x, y: -y * g(x, y), lambda x, y: x * g(x, y), cycle)
    assert abs(value) <= 1e-12


def test_period_integral_evaluates_the_form_at_twice_the_samples():
    sizes = []

    def ax(x, y):
        sizes.append(x.size)
        return -y

    def ay(x, y):
        sizes.append(x.size)
        return x

    for samples in (16, 100, 256):
        sizes.clear()
        value = period_integral(ax, ay, ParametricCycle.circle(samples=samples))
        assert sizes == [2 * samples, 2 * samples]
        assert value == pytest.approx(TWO_PI, abs=1e-12)  # x dy - y dx: twice the area pi


def test_period_integral_raises_on_a_non_finite_sum():
    # radius * 2 pi * turns overflows in Python floats, so the tangent is infinite;
    # with numpy's invalid flag ignored, the sum is NaN and must not be returned
    ax, ay = angular_form_components()
    cycle = ParametricCycle.circle(radius=1e307, turns=3)
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="not finite"):
        period_integral(ax, ay, cycle, singularities=((0.0, 0.0),))


def test_parametric_cycle_validation():
    with pytest.raises(ValueError):
        ParametricCycle(lambda s: (s, np.zeros_like(s)),  # open curve
                        lambda s: (np.ones_like(s), np.zeros_like(s)), samples=64)
    with pytest.raises(ValueError):
        ParametricCycle.circle(samples=8)


def test_parametric_cycle_closure_scales_with_the_curve():
    # the start point is near the origin, but the curve is 2e4 wide
    cycle = ParametricCycle.circle(cx=-1e4, radius=1e4)
    # -y dx + x dy integrates to twice the enclosed area
    assert period_integral(lambda x, y: -y, lambda x, y: x, cycle) == pytest.approx(
        2.0 * math.pi * 1e8, rel=1e-12)
    with pytest.raises(ValueError, match="cycle must close"):
        ParametricCycle(lambda s: (1e4 * np.cos(math.pi * s), 1e4 * np.sin(math.pi * s)),
                        lambda s: (np.zeros_like(s), np.zeros_like(s)))  # half a circle


def test_ws_integral_of_a_wide_orbit_that_starts_near_the_origin():
    # the orbit is 7118 wide and starts at (0, 0.045)
    assert ws_integral(1.0, 1e-3, 1e-3) == pytest.approx(1e3, abs=1e-9)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("energy, frequency, mass", [
    (1e-300, 1e-300, 1e150),  # 2*energy/mass underflows to 0
    (1e-150, 1e-300, 1e-300),  # 2*mass*energy underflows to 0
    (1e-20, 1e-20, 1e300),  # 2*energy/mass is subnormal
    (1.0, 1e-300, 1e-300),  # the amplitude q overflows
    (1e300, 1e-20, 1.0),  # 2*energy/frequency overflows
    (1e-300, 1e150, 1.0),  # 2*energy/frequency underflows
])
def test_ws_integral_rejects_amplitudes_out_of_float_range(energy, frequency, mass):
    with pytest.raises(ValueError, match=re.escape(
            f"energy {energy!r}, frequency {frequency!r} and mass {mass!r} put the orbit's")):
        ws_integral(energy, frequency, mass)


def test_ws_integral_matches_ellipse_area():
    # independent oracle: pi * a * b for the phase-space ellipse
    for energy, nu, mass in ((1.0, 1.0, 1.0), (2.0, 2.0, 1.0), (0.7, 1.3, 2.5)):
        a = math.sqrt(2.0 * energy / mass) / (TWO_PI * nu)
        b = math.sqrt(2.0 * mass * energy)
        expected = math.pi * a * b
        assert expected == pytest.approx(energy / nu, rel=1e-12)
        assert ws_integral(energy, nu, mass) == pytest.approx(expected, abs=1e-9)


def test_ws_integral_quantized_levels():
    # geometric units h = 1: energy n*h*nu integrates to n*h
    for n in (1, 2, 3):
        assert ws_integral(n * 1.0 * 2.0, 2.0, 1.0) == pytest.approx(n * 1.0, abs=1e-9)


def test_ws_integral_mass_independent():
    rng = np.random.default_rng(6)
    base = ws_integral(1.7, 0.9, 1.0)
    for _ in range(10):
        m = float(rng.uniform(0.1, 10.0))
        assert ws_integral(1.7, 0.9, m) == pytest.approx(base, rel=1e-9)


def test_ws_integral_rejects_nonpositive():
    with pytest.raises(ValueError):
        ws_integral(-1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        ws_integral(1.0, 0.0, 1.0)


def test_witness_angular_form_on_annulus():
    cx = annulus_complex(13, 13, hole=(5, 7, 5, 7),
                         spacing=(0.25, 0.25), origin=(-1.5, -1.5))
    form = winding_one_form(cx)  # origin sits inside the hole
    is_closed, period = closed_not_exact_witness(form)
    assert is_closed
    assert period == pytest.approx(TWO_PI, abs=1e-9)


def test_witness_exact_form_has_zero_period():
    cx = annulus_complex(12, 11, hole=(4, 7, 4, 6))
    rng = np.random.default_rng(7)
    f = DiscreteForm(cx, 0, rng.standard_normal(cx.n_vertices))
    is_closed, period = closed_not_exact_witness(coboundary(f))
    assert is_closed
    assert abs(period) <= 1e-12


def test_witness_random_form_not_closed():
    cx = annulus_complex(12, 11, hole=(4, 7, 4, 6))
    rng = np.random.default_rng(8)
    form = DiscreteForm(cx, 1, rng.standard_normal(cx.n_edges))
    is_closed, _ = closed_not_exact_witness(form)
    assert not is_closed
    d = coboundary(form)
    assert np.max(np.abs(d.values[cx.face_present])) > 1e-6


def test_witness_requires_hole():
    cx = CubicalComplex(6, 6)
    form = DiscreteForm(cx, 1, np.zeros(cx.n_edges))
    with pytest.raises(NoCycleError):
        closed_not_exact_witness(form)
    with pytest.raises(NoCycleError):
        hole_cycle(cx)


def test_hole_cycle_encircles_hole():
    cx = annulus_complex(10, 10, hole=(4, 6, 4, 6))
    cycle = hole_cycle(cx)
    assert boundary(cycle).coeffs == {}  # it is a cycle
    form = winding_one_form(cx, center=(4.5, 4.5))  # center inside the hole
    assert evaluate(form, cycle) == pytest.approx(TWO_PI, abs=1e-9)
