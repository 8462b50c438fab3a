"""Residual checks: derived E and B fields, gauge condition, wave operator.

Every check applies the finite-difference operators to a model sampled on
a grid and reports interior statistics (nodes at least two cells from
every boundary, so one-sided boundary stencils never pollute convergence
orders). Every model varies in time as exp(-i*omega*t), so every time
derivative is ``fields.harmonic_factor`` times the values at the sampled
time: the closed form from the model's ``omega``, except in the gauge
check, which takes the factor of a central difference with the step
matched to the grid's z spacing. No check evaluates a model at any other
time, and the E-field and gauge checks evaluate none beyond the field
they are given. Refinement studies report the observed order
log2(residual(h) / residual(h/2)).

The wave operator never holds a sampled grid: ``wave_residual_fields``
walks x in slabs of SLAB_PLANES planes, evaluates the model on each slab's
rows of the open grid plus a one-plane halo, and keeps each component in
the model's own broadcast shape, so an axis a component does not vary
along costs no stencil. Within a slab it stencils blocks of x planes over
the interior rows at their whole z width, so every operand is a contiguous
run of rows, in buffers that stay in cache, and takes |residual| at the
interior columns only, where it equals the whole-grid ``fields.laplacian``
bit for bit. It yields each slab's |residual| of each component, in one
slab-sized buffer that its next step overwrites, and ``wave_residual``
folds them into the interior max and rms as they come.

``claims`` checks the paper's claims for a disclination model as a table
of (check, value, expected, tolerance) rows, each decided by one rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import detect, ledger
from .fields import (
    ComplexScalarField,
    GridSpec,
    PotentialField,
    _diff_array,
    _laplacian_at,
    _require_finite,
    curl,
    divergence,
    harmonic_factor,
    sample_potential,
)
from .models import DisclinationModel

# x planes per slab of the wave residual
SLAB_PLANES = 4
# bytes of the wave residual's buffer per stencil call: as many of a slab's
# planes as fit, and at least one
BLOCK_BYTES = 256 * 1024


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


def _sums(mags: np.ndarray, weight: int = 1) -> tuple[float, float, int]:
    """(max, sum of (mags/max)^2, count) of magnitudes standing for ``weight`` nodes each.

    Overwrites mags. Scaled to at most 1, no square overflows; a zero or non-finite max sums to 0.
    """
    mx = float(mags.max())
    if not 0 < mx < math.inf:
        return mx, 0.0, weight * mags.size
    np.divide(mags, mx, out=mags)
    return mx, weight * float(np.square(mags, out=mags).sum()), weight * mags.size


def _max_rms(sums) -> tuple[float, float]:
    """(M, M * sqrt(sum((max/M)^2 * scaled sum) / N)) from the parts' ``_sums``,
    with M their largest max; a zero or non-finite M is both the max and the rms."""
    peaks, scaled, counts = zip(*sums)
    m = max(peaks)
    if not 0 < m < math.inf:
        return m, m
    return m, m * math.sqrt(sum((p / m) ** 2 * q for p, q in zip(peaks, scaled)) / sum(counts))


def interior_stats(grid: GridSpec, arrays) -> tuple[float, float]:
    """(max, rms) of |values| over the interior region, across all given arrays.

    Each array is reduced on its own, without a concatenated copy.
    """
    region = interior_slices(grid.dims)
    return _max_rms([_sums(np.abs(np.asarray(a)[region])) for a in arrays])


def _report(name: str, grid: GridSpec, arrays) -> ResidualReport:
    mx, rms = interior_stats(grid, arrays)
    return ResidualReport(name, mx, rms, float(max(grid.spacing)))


def electric_field(field: PotentialField, model):
    """E = -grad(Phi) - (1/c) dA/dt as three scalar fields.

    Both terms act on the sampled field; the model supplies only ``omega``
    and ``c``, and dA/dt is the closed form ``harmonic_factor(model, 1)``
    times A.
    """
    g = field.grid
    coef = harmonic_factor(model, 1) / model.c
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


def lorentz_residual(field: PotentialField, model) -> ResidualReport:
    """Interior statistics of div(A) + (1/c) dPhi/dt.

    dPhi/dt is the sampled Phi times ``harmonic_factor(model, 1, dt)``, the
    factor of a central difference with the grid-matched step
    (``_matched_dt``), under which the axial pair cancels exactly.
    The model is not evaluated; it supplies only ``omega`` and ``c``.
    """
    coef = harmonic_factor(model, 1, _matched_dt(field, model))
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


def wave_residual_fields(model, grid: GridSpec, t: float):
    """Interior magnitudes of laplacian(f) - (1/c^2) d2f/dt2, per slab and component.

    One walk over x slabs of SLAB_PLANES planes: each slab evaluates the
    model on its rows of the open grid plus a halo plane each side, checks
    the planes no earlier slab checked for finiteness, and computes the
    residual at its own interior planes and rows (``interior_slices``) over
    whole z rows, a block of x planes at a time: the second difference of
    ``fields.laplacian`` per axis (x, y, z) minus the closed form time term
    ``harmonic_factor(model, 2)/c^2 * f``, with the model's own ``omega``
    and ``c``. So each slab is evaluated once, at t. Each component stays in
    the model's broadcast shape, so an axis it does not vary along costs
    nothing. |residual| is taken at the interior z columns only, where the
    values equal the whole-grid ``laplacian`` bit for bit.

    The residual and the stencil's scratch hold one block of planes (see
    BLOCK_BYTES) and are reused, so every pass over them stays in cache, and
    the previous slab's arrays are
    kept until the next slab is built, so the allocator reuses their memory
    instead of returning it to the system and faulting it back in.

    A generator: it yields ``(magnitudes, weight)`` once per slab and
    component, in x order and then component order. The magnitudes are the
    |residual| at the slab's interior planes and rows, with length 1 along
    any axis the component does not vary along (x included), each value
    standing for ``weight`` interior nodes. They are a view of a buffer that
    the next step of the walk overwrites, so a consumer may write into it
    and copies whatever it keeps.
    """
    coef = harmonic_factor(model, 2) / model.c ** 2
    X, Y, Z = grid.open_grid()
    spans = [range(*s.indices(n)) for s, n in zip(interior_slices(grid.dims), grid.dims)]
    checked = 0  # x planes [0, checked) are known finite
    # the residual and the stencil's scratch hold one block of x planes of
    # the interior rows at full z width; |residual| fills one slab-sized buffer
    rows = len(spans[1]) * grid.dims[2]
    block = max(1, min(SLAB_PLANES, BLOCK_BYTES // (16 * rows)))
    acc, scratch = (np.empty(block * rows, dtype=np.complex128) for _ in range(2))
    mags = np.empty(min(SLAB_PLANES, grid.dims[0]) * len(spans[1]) * len(spans[2]))
    for i0, i1, h0, h1 in _slabs(grid.dims[0]):
        window = (h1 - h0,) + grid.dims[1:]
        # the previous slab's arrays are alive until this assignment
        comps = [_component(v, window) for v in model.components(X[h0:h1], Y, Z, t)]
        what = (("scalar value",) if len(comps) == 1 else
                ("ax value", "ay value", "az value", "phi value"))
        for f, label in zip(comps, what, strict=True):
            if f.shape[0] > 1:
                _require_finite(f[checked - h0:], label, checked)
            elif checked == 0:
                _require_finite(f, label)
        checked = h1
        # the slab's planes to compute; a slab with none is still checked
        own = range(max(i0, spans[0].start), min(i1, spans[0].stop))
        for f in comps if own else ():
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
            slab = mags[:math.prod(shape)].reshape(shape)
            # a block of x planes at a time, over their whole z rows; a
            # component constant along x has one plane, which stands for
            # all of the slab's own planes
            for x0 in range(region[0].start, region[0].stop, block):
                x1 = min(x0 + block, region[0].stop)
                n = (x1 - x0) * shape[1] * f.shape[2]
                r, tmp = (b[:n].reshape(x1 - x0, shape[1], f.shape[2]) for b in (acc, scratch))
                _laplacian_at(r, f, grid, (slice(x0, x1), *region[1:]), tmp)
                r -= np.multiply(coef, f[x0:x1, region[1]], out=tmp)
                # |residual| at the interior columns only
                j = x0 - region[0].start
                np.abs(r[..., region[2]], out=slab[j:j + x1 - x0])
            yield slab, weight


def wave_residual(model, grid: GridSpec, t: float) -> ResidualReport:
    """Interior statistics of the wave operator applied to every component.

    Each of ``wave_residual_fields``'s slabs of magnitudes is folded by
    ``_sums`` as it is made; a value broadcast along an axis stands for that
    axis's interior nodes, so it is weighted by their number.
    """
    mx, rms = _max_rms([_sums(m, w) for m, w in wave_residual_fields(model, grid, t)])
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
        # an overflow in the derived arithmetic raises, and so does a NaN made
        # from finite values (an inf grid scale 1/h^2 times a zero difference);
        # sampling ignores both, so a non-finite sample still names its node
        with np.errstate(over="raise", invalid="raise"):
            table = _claim_table(model, dims, refinements)
    except (OverflowError, ZeroDivisionError, FloatingPointError) as exc:
        # finite descriptor values whose products leave float range (c = 1e308, 1e-300)
        p = model.params
        raise ValueError(f"model magnitudes exceed float range: k={p.k:g}, c={p.c:g}, "
                         f"omega={p.omega:g}, a={p.a:g}, az={p.az:g}") from exc
    return [{"check": check, "value": value, "expected": expected, "tolerance": tolerance,
             "passed": (abs(value - expected) <= tolerance
                        and all(1.7 <= o <= 2.3 for o in orders)),
             "orders": ";".join(f"{o:.3f}" for o in orders)}
            for check, value, expected, tolerance, orders in table]
