"""Uniform-grid field containers and finite-difference vector calculus.

A field holds one time instant of either a complex scalar wave or a
four-component potential (Ax, Ay, Az, Phi) sampled on a regular grid.
Derivative operators are second order: central differences at interior
nodes, one-sided three-point stencils at boundary nodes, and a plain
two-point difference when an axis has only two nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

AXIS_INDEX = {"x": 0, "y": 1, "z": 2}

POTENTIAL_COMPONENTS = ("Ax", "Ay", "Az", "Phi")


class SamplingError(ValueError):
    """A model or data source produced a non-finite value at a grid node."""


class UnsupportedModelError(TypeError):
    """The model lacks an analytic derivative required by the operation."""


@dataclass(frozen=True)
class GridSpec:
    """Regular rectilinear grid: node counts, spacings, and origin."""

    dims: tuple[int, int, int]
    spacing: tuple[float, float, float]
    origin: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        if len(self.dims) != 3 or any(n != int(n) or n < 1 for n in self.dims):
            raise ValueError(f"dims must be three positive integers, got {self.dims!r}")
        if len(self.spacing) != 3 or any(
            not math.isfinite(s) or s <= 0 for s in self.spacing
        ):
            raise ValueError(f"spacing must be positive and finite, got {self.spacing!r}")
        if len(self.origin) != 3 or any(not math.isfinite(v) for v in self.origin):
            raise ValueError(f"origin must be three finite reals, got {self.origin!r}")
        object.__setattr__(self, "dims", tuple(int(n) for n in self.dims))
        object.__setattr__(self, "spacing", tuple(float(s) for s in self.spacing))
        object.__setattr__(self, "origin", tuple(float(v) for v in self.origin))

    @property
    def node_count(self) -> int:
        nx, ny, nz = self.dims
        return nx * ny * nz

    def axis_coords(self, axis) -> np.ndarray:
        a = AXIS_INDEX.get(axis, axis)
        return self.origin[a] + self.spacing[a] * np.arange(self.dims[a])

    def meshgrid(self):
        return np.meshgrid(
            self.axis_coords(0), self.axis_coords(1), self.axis_coords(2), indexing="ij"
        )

    def node_position(self, i: int, j: int, k: int) -> tuple[float, float, float]:
        return (
            self.origin[0] + i * self.spacing[0],
            self.origin[1] + j * self.spacing[1],
            self.origin[2] + k * self.spacing[2],
        )

    def refined(self) -> "GridSpec":
        """Halve the spacing keeping the same extents (axes with one node unchanged)."""
        dims = tuple(2 * n - 1 if n > 1 else 1 for n in self.dims)
        spacing = tuple(
            s / 2 if n > 1 else s for s, n in zip(self.spacing, self.dims)
        )
        return GridSpec(dims, spacing, self.origin)

    @classmethod
    def centered(cls, extent, dims) -> "GridSpec":
        """Grid spanning [-extent/2, extent/2] per axis; single-node axes sit at 0."""
        if np.isscalar(extent):
            extent = (extent, extent, extent)
        spacing = []
        origin = []
        for ext, n in zip(extent, dims):
            if n > 1:
                spacing.append(ext / (n - 1))
                origin.append(-ext / 2)
            else:
                spacing.append(1.0)
                origin.append(0.0)
        return cls(tuple(dims), tuple(spacing), tuple(origin))


@dataclass(frozen=True)
class SpaceTimePoint:
    """A point (x, y, z) at time t, with derived cylindrical coordinates."""

    x: float
    y: float
    z: float = 0.0
    t: float = 0.0

    @property
    def r(self) -> float:
        return math.hypot(self.x, self.y)

    @property
    def theta(self) -> float:
        # branch convention (-pi, pi]; theta = 0 at r = 0
        th = math.atan2(self.y, self.x)
        return math.pi if th == -math.pi else th


def _require_finite(values: np.ndarray, what: str) -> None:
    bad = ~np.isfinite(values.real) | ~np.isfinite(values.imag)
    if bad.any():
        node = tuple(int(v) for v in np.argwhere(bad)[0])
        raise SamplingError(f"non-finite {what} at node {node}")


@dataclass(frozen=True)
class ComplexScalarField:
    """Complex scalar samples on every node of a grid, at one time instant."""

    grid: GridSpec
    time: float
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.complex128)
        if vals.shape != self.grid.dims:
            raise ValueError(f"values shape {vals.shape} != grid dims {self.grid.dims}")
        _require_finite(vals, "scalar value")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "time", float(self.time))

    def slice_z(self, k: int) -> np.ndarray:
        return self.values[:, :, k]


@dataclass(frozen=True)
class PotentialField:
    """Vector potential (Ax, Ay, Az) plus scalar potential Phi on a grid."""

    grid: GridSpec
    time: float
    ax: np.ndarray
    ay: np.ndarray
    az: np.ndarray
    phi: np.ndarray

    def __post_init__(self):
        for name in ("ax", "ay", "az", "phi"):
            arr = np.asarray(getattr(self, name), dtype=np.complex128)
            if arr.shape != self.grid.dims:
                raise ValueError(
                    f"{name} shape {arr.shape} != grid dims {self.grid.dims}"
                )
            _require_finite(arr, f"{name} value")
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "time", float(self.time))

    def component(self, name: str) -> np.ndarray:
        return {"Ax": self.ax, "Ay": self.ay, "Az": self.az, "Phi": self.phi}[name]

    def component_field(self, name: str) -> ComplexScalarField:
        return ComplexScalarField(self.grid, self.time, self.component(name))


def sample_scalar(model, grid: GridSpec, t: float) -> ComplexScalarField:
    """Evaluate a scalar-valued model at every grid node at time t."""
    if not hasattr(model, "value"):
        raise TypeError("sample_scalar requires a scalar-valued model")
    X, Y, Z = grid.meshgrid()
    vals = np.asarray(model.value(X, Y, Z, t), dtype=np.complex128)
    if vals.shape != grid.dims:
        vals = np.broadcast_to(vals, grid.dims).copy()
    return ComplexScalarField(grid, t, vals)


def sample_potential(model, grid: GridSpec, t: float) -> PotentialField:
    """Evaluate a four-component potential model at every grid node at time t."""
    if not hasattr(model, "components"):
        raise TypeError("sample_potential requires a potential-valued model")
    X, Y, Z = grid.meshgrid()
    comps = []
    for comp in model.components(X, Y, Z, t):
        arr = np.asarray(comp, dtype=np.complex128)
        if arr.shape != grid.dims:
            arr = np.broadcast_to(arr, grid.dims).copy()
        comps.append(arr)
    return PotentialField(grid, t, *comps)


def _take(values: np.ndarray, idx, axis: int) -> np.ndarray:
    sl = [slice(None)] * values.ndim
    sl[axis] = idx
    return values[tuple(sl)]


def _diff_array(values: np.ndarray, grid: GridSpec, axis) -> np.ndarray:
    a = AXIS_INDEX.get(axis, axis)
    n = grid.dims[a]
    h = grid.spacing[a]
    if n < 2:
        raise ValueError(f"axis {axis!r} has {n} node(s); need at least 2 to differentiate")
    if n == 2:
        # only a first-order two-point difference is possible (exact on linears)
        return np.repeat(np.diff(values, axis=a), 2, axis=a) / h
    out = np.empty_like(values)
    out[tuple(slice(1, -1) if ax == a else slice(None) for ax in range(values.ndim))] = (
        _take(values, slice(2, None), a) - _take(values, slice(None, -2), a)
    ) / (2.0 * h)
    # one-sided three-point stencils, written as differences so constant
    # fields cancel exactly
    f0, f1, f2 = (_take(values, i, a) for i in (0, 1, 2))
    _take(out, 0, a)[...] = (4.0 * (f1 - f0) - (f2 - f0)) / (2.0 * h)
    g0, g1, g2 = (_take(values, i, a) for i in (-1, -2, -3))
    _take(out, -1, a)[...] = (4.0 * (g0 - g1) - (g0 - g2)) / (2.0 * h)
    return out


def central_diff(field: ComplexScalarField, axis) -> ComplexScalarField:
    """Partial derivative along one axis, second order where three nodes exist."""
    d = _diff_array(field.values, field.grid, axis)
    return ComplexScalarField(field.grid, field.time, d)


def divergence(field: PotentialField) -> ComplexScalarField:
    """Spatial divergence of the vector part (Ax, Ay, Az)."""
    g = field.grid
    d = (
        _diff_array(field.ax, g, 0)
        + _diff_array(field.ay, g, 1)
        + _diff_array(field.az, g, 2)
    )
    return ComplexScalarField(g, field.time, d)


def curl(field: PotentialField):
    """Curl of the vector part, returned as three scalar fields (Bx, By, Bz)."""
    g = field.grid
    bx = _diff_array(field.az, g, 1) - _diff_array(field.ay, g, 2)
    by = _diff_array(field.ax, g, 2) - _diff_array(field.az, g, 0)
    bz = _diff_array(field.ay, g, 0) - _diff_array(field.ax, g, 1)
    t = field.time
    return (
        ComplexScalarField(g, t, bx),
        ComplexScalarField(g, t, by),
        ComplexScalarField(g, t, bz),
    )


def laplacian(field: ComplexScalarField) -> ComplexScalarField:
    """Laplacian composed from the first-derivative operator applied twice per axis."""
    g = field.grid
    out = np.zeros(g.dims, dtype=np.complex128)
    for a in range(3):
        out += _diff_array(_diff_array(field.values, g, a), g, a)
    return ComplexScalarField(g, field.time, out)


def time_derivatives(model, x, y, z, t, order: int = 1, dt=None) -> tuple:
    """First or second time derivative of every component of a model.

    Every model varies in time as exp(-i*omega*t) and declares ``omega``
    (0 for static models), so with ``dt=None`` the result is the closed
    form (-i*omega)**order times the components. A float ``dt`` takes the
    2-point (order 1) or 3-point (order 2) central difference instead.
    Returns the four potential components, or a 1-tuple for scalar models.
    """
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    if hasattr(model, "components"):
        evaluate = model.components
    else:
        def evaluate(x, y, z, t):
            return (model.value(x, y, z, t),)
    if dt is None:
        omega = getattr(model, "omega", None)
        if omega is None:
            raise UnsupportedModelError(
                f"{type(model).__name__} declares no omega, so it has no analytic "
                "time derivative; pass dt for a finite difference")
        f = -1j * omega if order == 1 else -(omega ** 2)
        return tuple(f * v for v in evaluate(x, y, z, t))
    plus = evaluate(x, y, z, t + dt)
    minus = evaluate(x, y, z, t - dt)
    if order == 1:
        return tuple((p - m) / (2.0 * dt) for p, m in zip(plus, minus))
    mid = evaluate(x, y, z, t)
    return tuple((p - 2 * m0 + m) / dt ** 2 for p, m0, m in zip(plus, mid, minus))


def time_derivative(model, point: SpaceTimePoint, dt: float):
    """Central-difference time derivative of a model at one space-time point.

    Returns a complex number for scalar models, a 4-tuple for potential
    models. ``time_derivatives`` with ``dt=None`` gives the closed form;
    the two agree to O(dt^2).
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    out = time_derivatives(model, point.x, point.y, point.z, point.t, dt=dt)
    if any(not np.isfinite(v) for v in out):
        raise SamplingError(f"non-finite time derivative at {point}")
    return out if hasattr(model, "components") else complex(out[0])
