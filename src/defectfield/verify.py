"""Residual checks: derived E and B fields, gauge condition, wave operator.

Every check samples a model onto a grid, applies the finite-difference
operators, and reports interior statistics (nodes at least two cells from
every boundary, so one-sided boundary stencils never pollute convergence
orders). Time derivatives come from ``fields.time_derivatives``: the
closed form from the model's ``omega`` by default, a central difference
when a time step is given. Refinement studies report the observed order
log2(residual(h) / residual(h/2)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .fields import (
    ComplexScalarField,
    GridSpec,
    PotentialField,
    UnsupportedModelError,
    _diff_array,
    curl,
    laplacian,
    sample_potential,
    sample_scalar,
    time_derivatives,
)

MATCHED = "matched"
ANALYTIC = "analytic"


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


def interior_stats(grid: GridSpec, arrays) -> tuple[float, float]:
    """(max, rms) of |values| over the interior region, across all given arrays."""
    region = interior_slices(grid.dims)
    mags = np.concatenate([np.abs(np.asarray(a)[region]).ravel() for a in arrays])
    return float(mags.max()), float(np.sqrt(np.mean(mags ** 2)))


def _report(name: str, grid: GridSpec, arrays) -> ResidualReport:
    mx, rms = interior_stats(grid, arrays)
    return ResidualReport(name, mx, rms, float(max(grid.spacing)))


def electric_field(field: PotentialField, model, dt=None):
    """E = -grad(Phi) - (1/c) dA/dt as three scalar fields.

    The gradient acts on the sampled Phi; the time derivative comes from
    the model (analytic by default, central difference when dt is given).
    """
    g = field.grid
    c = model.c
    dax, day, daz, _ = time_derivatives(model, *g.meshgrid(), field.time, dt=dt)
    ex = -_diff_array(field.phi, g, 0) - np.asarray(dax, dtype=np.complex128) / c
    ey = -_diff_array(field.phi, g, 1) - np.asarray(day, dtype=np.complex128) / c
    ez = -_diff_array(field.phi, g, 2) - np.asarray(daz, dtype=np.complex128) / c
    t = field.time
    return (
        ComplexScalarField(g, t, ex),
        ComplexScalarField(g, t, ey),
        ComplexScalarField(g, t, ez),
    )


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

    ``time_step`` chooses the Phi time derivative: "matched" (default)
    uses a central difference with the grid-matched step, "analytic" the
    model's closed form, and a float a central difference with that step.
    """
    g = field.grid
    div = (
        _diff_array(field.ax, g, 0)
        + _diff_array(field.ay, g, 1)
        + _diff_array(field.az, g, 2)
    )
    if time_step == MATCHED:
        dt = _matched_dt(field, model)
    elif time_step == ANALYTIC:
        dt = None
    else:
        dt = float(time_step)
    dphi = time_derivatives(model, *g.meshgrid(), field.time, dt=dt)[3]
    residual = div + np.asarray(dphi, dtype=np.complex128) / model.c
    return _report("lorentz", g, [residual])


def transverse_divergence(field: PotentialField) -> ResidualReport:
    """Interior statistics of dAx/dx + dAy/dy."""
    g = field.grid
    residual = _diff_array(field.ax, g, 0) + _diff_array(field.ay, g, 1)
    return _report("transverse_divergence", g, [residual])


def wave_residual_fields(model, grid: GridSpec, t: float, dt=None, c=None) -> dict:
    """Per-component arrays of laplacian(f) - (1/c^2) d2f/dt2 on the grid.

    The spatial part differentiates the sampled component; the temporal
    part is the model's closed form, or a 3-point central difference when
    dt is given.
    """
    if c is None:
        c = getattr(model, "c", None)
        if c is None:
            raise UnsupportedModelError("model has no wave speed; pass c explicitly")
    if hasattr(model, "components"):
        sampled = sample_potential(model, grid, t)
        comps = {"Ax": sampled.ax, "Ay": sampled.ay, "Az": sampled.az, "Phi": sampled.phi}
    else:
        comps = {"psi": sample_scalar(model, grid, t).values}
    d2t = time_derivatives(model, *grid.meshgrid(), t, order=2, dt=dt)
    out = {}
    for (name, values), second in zip(comps.items(), d2t):
        lap = laplacian(ComplexScalarField(grid, t, values)).values
        out[name] = lap - np.asarray(second, dtype=np.complex128) / c ** 2
    return out


def wave_residual(model, grid: GridSpec, t: float, dt=None, c=None) -> ResidualReport:
    """Interior statistics of the wave operator applied to every component."""
    fields = wave_residual_fields(model, grid, t, dt=dt, c=c)
    return _report("wave", grid, list(fields.values()))


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
