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
along costs no stencil. Within a slab it stencils one x plane at a time
into plane-sized buffers, which stay in cache. Its values equal the
whole-grid ``fields.laplacian`` bit for bit. Each plane's residual either
fills a grid-sized array, or, with ``reduce``, is computed at the interior
nodes alone (bit-identical there) and its magnitudes are gathered per slab
for ``reduce``, which ``wave_residual`` uses to fold the interior max and
rms as it goes.

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
    _diff_array,
    _laplacian_at,
    _require_finite,
    curl,
    divergence,
    harmonic_factor,
    sample_potential,
)
from .models import DisclinationModel

MATCHED = "matched"
ANALYTIC = "analytic"

# x planes per slab of the wave residual
SLAB_PLANES = 4


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
    four planes (or the whole axis), downwards or, near x = 0, upwards, so
    the one-sided edge stencils see f0..f3.
    """
    for i0 in range(0, nx, SLAB_PLANES):
        i1 = min(i0 + SLAB_PLANES, nx)
        h1 = min(max(i1 + 1, 4), nx)
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
    the planes no earlier slab checked for finiteness, and computes the
    residual on its own planes only, one x plane at a time: the second
    difference of ``fields.laplacian`` per axis (x, y, z) minus the time
    term ``harmonic_factor(model, 2, dt)/c^2 * f`` (the closed form, or the
    factor of a 3-point central difference when dt is given). So each slab
    is evaluated once, at t, on either path. Each component stays in the
    model's broadcast shape, so an axis it does not vary along costs
    nothing. The values equal the whole-grid ``laplacian`` bit for bit.

    The residual and the stencil's scratch are plane-sized and reused, so
    every pass over them stays in cache, and the previous slab's arrays are
    kept until the next slab is built, so the allocator reuses their memory
    instead of returning it to the system and faulting it back in.

    Without ``reduce`` the planes fill one grid-sized array per component,
    returned by name (``psi`` for a one-component model). With ``reduce``,
    nothing is stored and None is returned: the residual is computed at the
    interior nodes only (``interior_slices``), bit-identical at every node
    it reports, and each slab's |residual| of each component, gathered plane
    by plane into one slab-sized buffer, goes to
    ``reduce(magnitudes, weight)``. The magnitudes cover the slab's interior
    planes and rows, with length 1 along any axis the component does not
    vary along (x included), each value standing for ``weight`` interior
    nodes. They are a view of a buffer that the next call overwrites, so
    ``reduce`` may write into it and copies whatever it keeps.
    """
    if c is None:
        c = getattr(model, "c", None)
        if c is None:
            raise UnsupportedModelError("model has no wave speed; pass c explicitly")
    coef = harmonic_factor(model, 2, dt) / c ** 2
    X, Y, Z = grid.open_grid()
    # the nodes the walk computes: the interior when it folds, else the grid
    rows = interior_slices(grid.dims) if reduce else (slice(None),) * 3
    spans = [range(*s.indices(n)) for s, n in zip(rows, grid.dims)]
    out = None
    checked = 0  # x planes [0, checked) are known finite
    # the residual and the stencil's scratch hold one x plane of the rows;
    # |residual| fills one slab-sized buffer
    plane = len(spans[1]) * len(spans[2])
    acc, scratch = np.empty(plane, dtype=np.complex128), np.empty(plane, dtype=np.complex128)
    mags = np.empty(min(SLAB_PLANES, grid.dims[0]) * plane) if reduce else None
    for i0, i1, h0, h1 in _slabs(grid.dims[0]):
        window = (h1 - h0,) + grid.dims[1:]
        # the previous slab's arrays are alive until this assignment
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
        # the slab's planes to compute; a slab with none is still checked
        own = range(max(i0, spans[0].start), min(i1, spans[0].stop))
        for name, f in zip(names, comps if own else ()):
            # f's indices of those nodes, and the number of them each value
            # stands for along the axes f is broadcast on
            region, weight = [], 1
            for m, span, h in zip(f.shape, (own, *spans[1:]), (h0, 0, 0)):
                if m == 1:
                    region.append(slice(0, 1))
                    weight *= len(span)
                else:
                    region.append(slice(span.start - h, span.stop - h))
            shape = tuple(s.stop - s.start for s in region)
            n = shape[1] * shape[2]
            r, tmp = acc[:n].reshape((1,) + shape[1:]), scratch[:n].reshape((1,) + shape[1:])
            # one x plane at a time; a component constant along x has one
            # plane, which stands for all of the slab's own planes
            targets = ([slice(i, i + 1) for i in own] if shape[0] > 1
                       else [slice(own.start, own.stop)])
            slab = mags[:n * shape[0]].reshape(shape) if reduce else None
            for j, target in enumerate(targets):
                at = (slice(region[0].start + j, region[0].start + j + 1), *region[1:])
                _laplacian_at(r, f, grid, at, tmp)
                r -= np.multiply(coef, f[at], out=tmp)
                if reduce is None:
                    out[name][target] = r
                else:
                    np.abs(r, out=slab[j:j + 1])
            if reduce is not None:
                reduce(slab, weight)
    return out


def wave_residual(model, grid: GridSpec, t: float, dt=None, c=None) -> ResidualReport:
    """Interior statistics of the wave operator applied to every component.

    The residual is computed at the interior nodes alone, and each slab's
    magnitudes are folded into (max, sum of squares, count) as they are
    made; a value broadcast along an axis stands for that axis's interior
    nodes, so it is weighted by their number.
    """
    sums = []

    def fold(mags, weight):
        mx = float(mags.max())
        sums.append((mx, weight * float(np.square(mags, out=mags).sum()), weight * mags.size))

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
    dims below 2, a zero amplitude, and magnitudes whose arithmetic leaves
    float range.
    """
    if not isinstance(model, DisclinationModel):
        raise ValueError("verify requires a disclination model descriptor")
    if refinements < 1:
        raise ValueError("refinements must be at least 1")
    if dims < 1:
        raise ValueError(f"--dims must be a positive integer, got {dims}")
    if dims == 1:
        raise ValueError("verify needs --dims of at least 2: at --dims 1 the grid is "
                         "the axis node alone, where Ax vanishes")
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
