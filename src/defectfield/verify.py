"""Residual checks: derived E and B fields, gauge condition, wave operator.

Every check applies the finite-difference operators to a model sampled on
a grid and reports interior statistics (nodes at least two cells from
every boundary, so one-sided boundary stencils never pollute convergence
orders). Every model varies in time as exp(-i*omega*t), so every time
derivative is ``fields.harmonic_factor`` times the values at the sampled
time: the closed form from the model's ``omega`` by default, the factor
of a central difference when a time step is given. No check evaluates a
model at any other time, and the E-field and gauge checks evaluate none
beyond the field they are given. Refinement studies report the observed
order log2(residual(h) / residual(h/2)).

The wave operator never holds a sampled grid: ``wave_residual_fields``
walks x in slabs of SLAB_PLANES planes, evaluates the model on each slab's
rows of the open grid plus a one-plane halo, and keeps each component in
the model's own broadcast shape, so an axis a component does not vary
along costs no stencil. Its values equal the whole-grid
``fields.laplacian`` bit for bit. Each slab's residual either fills a
grid-sized array or goes to ``reduce(residual, x_slice)``, which
``wave_residual`` uses to fold the interior max and rms as it goes.

``claims`` checks the paper's claims for a disclination model as a table
of (check, value, expected, tolerance) rows, each decided by one rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import detect, ledger
from .fields import (
    POTENTIAL_COMPONENTS,
    ComplexScalarField,
    GridSpec,
    PotentialField,
    UnsupportedModelError,
    _add_second_difference,
    _diff_array,
    _require_finite,
    curl,
    divergence,
    harmonic_factor,
    sample_potential,
)
from .models import DisclinationModel

MATCHED = "matched"
ANALYTIC = "analytic"

# x planes per slab of the wave residual; 8 to 16 measured best at 129^3
SLAB_PLANES = 8


@dataclass(frozen=True)
class ResidualReport:
    """Interior max and rms of one named residual at one grid spacing."""

    name: str
    interior_max: float
    interior_rms: float
    grid_spacing: float
    observed_order: float | None = None


def interior_slices(dims) -> tuple:
    """Index region at least two cells from every boundary (axes with >= 5 nodes)."""
    return tuple(slice(2, n - 2) if n >= 5 else slice(None) for n in dims)


def _interior_sums(region: tuple, a) -> tuple[float, float, int]:
    """(max, sum of squares, count) of |a| over the region."""
    mags = np.abs(np.asarray(a)[region])
    return float(mags.max()), float(np.square(mags, out=mags).sum()), mags.size


def _max_rms(sums) -> tuple[float, float]:
    peaks, squares, counts = zip(*sums)
    return max(peaks), math.sqrt(sum(squares) / sum(counts))


def interior_stats(grid: GridSpec, arrays) -> tuple[float, float]:
    """(max, rms) of |values| over the interior region, across all given arrays.

    Each array is reduced on its own, without a concatenated copy.
    """
    region = interior_slices(grid.dims)
    return _max_rms([_interior_sums(region, a) for a in arrays])


def _report(name: str, grid: GridSpec, arrays) -> ResidualReport:
    mx, rms = interior_stats(grid, arrays)
    return ResidualReport(name, mx, rms, float(max(grid.spacing)))


def electric_field(field: PotentialField, model, dt=None):
    """E = -grad(Phi) - (1/c) dA/dt as three scalar fields.

    Both terms act on the sampled field; the model supplies only ``omega``
    and ``c``, and dA/dt is ``harmonic_factor(model, 1, dt)`` times A
    (analytic by default, the central-difference factor when dt is given).
    """
    g = field.grid
    coef = harmonic_factor(model, 1, dt) / model.c
    return tuple(
        ComplexScalarField(g, field.time, -_diff_array(field.phi, g, a) - coef * comp)
        for a, comp in enumerate((field.ax, field.ay, field.az)))


def magnetic_field(field: PotentialField):
    """B = curl(A) as three scalar fields."""
    return curl(field)


def _matched_dt(field: PotentialField, model) -> float:
    """Time step making the central d/dt cancel the central d/dz for the model.

    For a component exp(i*(k*z - omega*t)) the two discrete operators
    agree exactly when omega*dt = k*dz, so the gauge residual of the
    axial pair vanishes identically, matching its analytic cancellation.
    """
    dz = field.grid.spacing[2]
    params = getattr(model, "params", None)
    if params is not None and params.omega > 0:
        return params.k * dz / params.omega
    return dz / model.c


def lorentz_residual(field: PotentialField, model, time_step=MATCHED) -> ResidualReport:
    """Interior statistics of div(A) + (1/c) dPhi/dt.

    ``time_step`` chooses the Phi time derivative, ``harmonic_factor(model,
    1, dt)`` times the sampled Phi: "matched" (default) takes the factor of
    a central difference with the grid-matched step, "analytic" the closed
    form, and a float the factor of a central difference with that step.
    The model is not evaluated; it supplies only ``omega`` and ``c``.
    """
    if time_step == MATCHED:
        dt = _matched_dt(field, model)
    elif time_step == ANALYTIC:
        dt = None
    else:
        dt = float(time_step)
    coef = harmonic_factor(model, 1, dt)
    residual = divergence(field).values
    residual += coef * field.phi / model.c
    return _report("lorentz", field.grid, [residual])


def transverse_divergence(field: PotentialField) -> ResidualReport:
    """Interior statistics of dAx/dx + dAy/dy."""
    g = field.grid
    residual = _diff_array(field.ax, g, 0) + _diff_array(field.ay, g, 1)
    return _report("transverse_divergence", g, [residual])


def _slabs(nx: int):
    """(i0, i1, h0, h1) per slab: its own x planes [i0, i1) and the window
    [h0, h1) it evaluates, one halo plane each side, widened to at least
    four planes (or the whole axis) so the one-sided edge stencils see f0..f3.
    """
    for i0 in range(0, nx, SLAB_PLANES):
        i1 = min(i0 + SLAB_PLANES, nx)
        h1 = min(i1 + 1, nx)
        yield i0, i1, max(min(i0 - 1, h1 - 4), 0), h1


def _component(values, shape) -> np.ndarray:
    """A model output as complex128 in its own broadcast shape, padded to 3-D."""
    arr = np.asarray(values, dtype=np.complex128)
    np.broadcast_to(arr, shape)  # raises ValueError when it does not fit the grid
    return arr.reshape((1,) * (3 - arr.ndim) + arr.shape)


def wave_residual_fields(model, grid: GridSpec, t: float, dt=None, c=None, *,
                         reduce=None) -> dict | None:
    """Per-component arrays of laplacian(f) - (1/c^2) d2f/dt2 on the grid.

    One walk over x slabs of SLAB_PLANES planes: each slab evaluates the
    model on its rows of the open grid plus a halo plane each side, checks
    the planes no earlier slab checked for finiteness, applies the second
    difference of ``fields.laplacian`` per axis (x, y, z), subtracts the
    time term ``harmonic_factor(model, 2, dt)/c^2 * f`` (the closed form,
    or the factor of a 3-point central difference when dt is given) and
    keeps only its own planes, so each slab is evaluated once, at t, on
    either path. Each component stays in the model's broadcast shape, so
    an axis it does not vary along costs nothing. The values equal the
    whole-grid ``laplacian`` bit for bit.

    Without ``reduce`` the slabs fill one grid-sized array per component,
    returned by name (``psi`` for a one-component model). With ``reduce``,
    nothing is stored and None is returned: each slab's residual of each
    component goes to ``reduce(residual, x_slice)``, where x_slice holds
    the slab's x planes and the residual has the component's broadcast
    shape over them (length 1 along any axis it does not vary along, x
    included). The residual is a view of a buffer that the next call
    overwrites, so ``reduce`` copies whatever it keeps.
    """
    if c is None:
        c = getattr(model, "c", None)
        if c is None:
            raise UnsupportedModelError("model has no wave speed; pass c explicitly")
    coef = harmonic_factor(model, 2, dt) / c ** 2
    X, Y, Z = grid.open_grid()
    out = None
    checked = 0  # x planes [0, checked) are known finite
    # one stencil buffer for every slab and component: a fresh array per
    # stencil faults in new pages, which cost more than the stencil itself
    work = np.empty((min(SLAB_PLANES + 2, grid.dims[0]),) + grid.dims[1:],
                    dtype=np.complex128)
    for i0, i1, h0, h1 in _slabs(grid.dims[0]):
        window = (h1 - h0,) + grid.dims[1:]
        comps = [_component(v, window) for v in model.components(X[h0:h1], Y, Z, t)]
        names, what = ((("psi",), ("scalar value",)) if len(comps) == 1 else
                       (POTENTIAL_COMPONENTS, ("ax value", "ay value", "az value", "phi value")))
        if reduce is None and out is None:
            out = {name: np.empty(grid.dims, dtype=np.complex128) for name in names}
        for f, label in zip(comps, what, strict=True):
            if f.shape[0] > 1:
                _require_finite(f[checked - h0:], label, checked)
            elif checked == 0:
                _require_finite(f, label)
        checked = h1
        for name, f in zip(names, comps):
            lap = work[tuple(slice(n) for n in f.shape)]
            lap.fill(0)
            for a in range(3):
                _add_second_difference(lap, f, grid, a)
            own = slice(i0 - h0, i1 - h0) if f.shape[0] > 1 else slice(None)
            r = lap[own]
            r -= coef * f[own]
            if reduce is None:
                out[name][i0:i1] = r
            else:
                reduce(r, slice(i0, i1))
        del comps, f  # freed before the next slab is evaluated
    return out


def wave_residual(model, grid: GridSpec, t: float, dt=None, c=None) -> ResidualReport:
    """Interior statistics of the wave operator applied to every component.

    Each slab residual is folded into (max, sum of squares, count) as it is
    made; a value broadcast along an axis stands for that axis's interior
    nodes, so it is weighted by their number.
    """
    spans = [range(*s.indices(n)) for s, n in zip(interior_slices(grid.dims), grid.dims)]
    sums = []

    def fold(residual, xs):
        rows = range(max(spans[0].start, xs.start) - xs.start,
                     min(spans[0].stop, xs.stop) - xs.start)
        if not rows:
            return
        region, weight = [], 1
        for size, span in zip(residual.shape, [rows] + spans[1:]):
            if size == 1:
                region.append(slice(None))
                weight *= len(span)
            else:
                region.append(slice(span.start, span.stop))
        mx, squares, count = _interior_sums(tuple(region), residual)
        sums.append((mx, weight * squares, weight * count))

    wave_residual_fields(model, grid, t, dt, c, reduce=fold)
    mx, rms = _max_rms(sums)
    return ResidualReport("wave", mx, rms, float(max(grid.spacing)))


def convergence_study(make_report, grid: GridSpec, refinements: int = 2):
    """Run a report factory on successively halved grids and attach orders.

    ``make_report`` maps a GridSpec to a ResidualReport. Each refined
    report carries observed_order = log2(previous max / current max);
    orders are left unset when a residual vanishes.
    """
    grids = [grid]
    for _ in range(refinements):
        grids.append(grids[-1].refined())
    reports = [make_report(g) for g in grids]
    out = [reports[0]]
    for prev, cur in zip(reports, reports[1:]):
        order = None
        if prev.interior_max > 0 and cur.interior_max > 0:
            order = math.log2(prev.interior_max / cur.interior_max)
        out.append(replace(cur, observed_order=order))
    return out


def _fit(fit, *args) -> float:
    """``fit(*args)`` as a float, or NaN (which fails its row) when it is undefined."""
    try:
        return float(fit(*args))
    except (detect.RigidRotationFitError, detect.NonRationalIndexError,
            detect.UndefinedIndexError):
        return math.nan


def _claim_table(model, dims: int, refinements: int) -> list[tuple]:
    """(check, value, expected, tolerance, observed orders) per claim, in CSV order."""
    k, omega = model.params.k, model.params.omega
    grid = GridSpec.centered((6.0 / k, 6.0 / k, 2.0 * math.pi / k), (dims, dims, dims))
    sampled = sample_potential(model, grid, 0.0)
    comps = (sampled.ax, sampled.ay, sampled.az, sampled.phi)
    # whole-grid peaks: at dims 5 the interior is the one node on the axis
    ax_peak, *others = (float(np.abs(c).max()) for c in comps)
    if max(ax_peak, *others) == 0:
        raise ValueError("verify requires a nonzero disclination amplitude (a or az)")
    region = interior_slices(grid.dims)
    peaks = [float(np.abs(c[region]).max()) for c in comps]
    if max(peaks) == 0:
        raise ValueError(f"every component vanishes in the grid interior, which at "
                         f"--dims {dims} is the axis node alone; use a larger --dims")
    # the wave residual is reported relative to k^2 * max|A|
    wave_scale = k * k * max(peaks)
    if wave_scale == 0:
        raise ValueError("model magnitudes exceed float range: k^2 * max|A| underflows to 0")
    if ax_peak == 0:
        raise ValueError("verify requires a nonzero transverse amplitude a: "
                         "Ax vanishes, so it has no zero line to wind around")
    table = [
        ("lorentz_interior_max", lorentz_residual(sampled, model).interior_max, 0.0, 1e-9, ()),
        ("transverse_divergence_interior_max", transverse_divergence(sampled).interior_max,
         0.0, 1e-10, ()),
    ]
    reports = convergence_study(lambda g: wave_residual(model, g, 0.0), grid, refinements - 1)
    orders = tuple(r.observed_order for r in reports[1:] if r.observed_order is not None)
    table.append(("wave_residual_rel", reports[0].interior_max / wave_scale, 0.0, 0.05, orders))

    period, lam = 2.0 * math.pi / omega, 2.0 * math.pi / k
    rate = _fit(detect.pattern_rotation_rate, model, 0.0, period / 4.0)
    twist = _fit(detect.axial_twist_per_length, model, 0.0, lam, 0.0)
    table += [("rotation_rate_over_omega", rate / omega, 0.5, 1e-6, ()),
              ("twist_per_wavelength", abs(twist) * lam, math.pi, 1e-6, ()),
              ("tifold_index", _fit(detect.tifold_index, model), 0.5, 0.0, ())]

    # Ax scaled to a unit peak: a winding does not depend on the field's scale
    ax = ComplexScalarField(grid, 0.0, sampled.ax / ax_peak)
    rng = np.random.default_rng(20240501)
    half = (dims - 1) * grid.spacing[0] / 2.0
    deviation = 0.0
    for _ in range(3):
        radius, cx, cy = (float(rng.uniform(lo, hi)) * half
                          for lo, hi in ((0.25, 0.55), (-0.1, 0.1), (-0.1, 0.1)))
        loop = detect.LoopPath.circle(cx, cy, radius, n=128)
        deviation = max(deviation, abs(detect.phase_winding(ax, loop) - 1))
    away = detect.LoopPath.circle(0.6 * half, 0.0, 0.2 * half, n=128)
    deviation = max(deviation, abs(detect.phase_winding(ax, away)))
    table.append(("orbifold_winding_deviation", deviation, 0.0, 0.0, ()))

    led = ledger.PhotonLedger(nu=omega / (2.0 * math.pi), k=k)
    internal, _, total = ledger.total_energy(led)
    split = max(abs(internal / total - 0.5), abs(ledger.momentum(led) * led.c - total))
    table.append(("energy_partition_deviation", split, 0.0, 0.0, ()))
    return table


def claims(model, dims: int, refinements: int) -> list[dict]:
    """The paper's claims checked on a disclination model, one row per claim.

    The model is sampled on a centred grid of ``dims`` nodes per axis (6/k
    across, one wavelength deep); the wave residual is refined
    ``refinements - 1`` times for its observed orders. Every row is decided
    by one rule: passed when |value - expected| <= tolerance and every
    observed order lies in [1.7, 2.3] (only the wave row has orders). A fit
    or index that is undefined gives NaN, which fails its row. Raises
    ValueError for a model that is not a disclination, refinements below 1,
    a zero amplitude, and magnitudes whose arithmetic leaves float range.
    """
    if not isinstance(model, DisclinationModel):
        raise ValueError("verify requires a disclination model descriptor")
    if refinements < 1:
        raise ValueError("refinements must be at least 1")
    try:
        table = _claim_table(model, dims, refinements)
    except (OverflowError, ZeroDivisionError) as exc:
        # finite descriptor values whose squares leave float range (c = 1e308, 1e-300)
        p = model.params
        raise ValueError(f"model magnitudes exceed float range: k={p.k:g}, c={p.c:g}, "
                         f"omega={p.omega:g}, a={p.a:g}, az={p.az:g}") from exc
    return [{"check": check, "value": value, "expected": expected, "tolerance": tolerance,
             "passed": (abs(value - expected) <= tolerance
                        and all(1.7 <= o <= 2.3 for o in orders)),
             "orders": ";".join(f"{o:.3f}" for o in orders)}
            for check, value, expected, tolerance, orders in table]
