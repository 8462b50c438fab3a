"""Uniform-grid field containers and finite-difference vector calculus.

A field holds one time instant of either a complex scalar wave or a
four-component potential (Ax, Ay, Az, Phi) sampled on a regular grid.
Models are evaluated on the open grid (one coordinate array per axis,
broadcast against the others), which gives the same values as the dense
grid at a fraction of the work. Sampling passes the model the open grid
with its axes reversed, shaped (1, 1, nx), (1, ny, 1), (nz, 1, 1), and
returns the transposed result: every sampled array is x fastest, the
order of a field file, so ``fieldio.save_field`` writes it without a copy,
and numpy's inner loops run along x. Any model that broadcasts elementwise
over its coordinates accepts the reversed grid, as every shipped model
does. First derivatives are second order: central differences at interior
nodes, one-sided three-point stencils at boundary nodes, and a plain
two-point difference when an axis has only two nodes. The Laplacian sums
the compact three-point second difference of each axis, with one-sided
four-point stencils at boundary nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


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

    def axis_coords(self, axis: int) -> np.ndarray:
        return self.origin[axis] + self.spacing[axis] * np.arange(self.dims[axis])

    def meshgrid(self):
        return np.meshgrid(
            self.axis_coords(0), self.axis_coords(1), self.axis_coords(2), indexing="ij"
        )

    def open_grid(self):
        """Coordinates shaped (nx, 1, 1), (1, ny, 1), (1, 1, nz) for broadcasting."""
        return np.meshgrid(
            self.axis_coords(0), self.axis_coords(1), self.axis_coords(2),
            indexing="ij", sparse=True,
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


def _all_finite(values: np.ndarray) -> bool:
    """Whether an array holds no NaN and no +-inf.

    A contiguous float64 or complex128 array is checked in one pass over a
    no-copy float64 view: NaN and +-inf propagate through addition, so a
    finite ``einsum`` sum (its own loop, no BLAS and no temporary) can only
    come from finite values. A sum that is not finite is a NaN or an inf, or
    finite values that overflowed; an exact maximum and minimum then decide,
    since both propagate NaN and reach +-inf (``fmax``/``fmin`` skip NaN).
    Any other array takes ``isfinite``.
    """
    if values.dtype in (np.float64, np.complex128) and (
            values.flags.c_contiguous or values.flags.f_contiguous):
        flat = values.ravel(order="K").view(np.float64)
        return bool(np.isfinite(np.einsum("i->", flat))) or bool(
            np.isfinite(np.maximum.reduce(flat)) and np.isfinite(np.minimum.reduce(flat)))
    return bool(np.isfinite(values).all())


def _require_finite(values: np.ndarray, what: str, nodes=None) -> None:
    """Raise SamplingError at the first non-finite node.

    ``nodes[a][i]`` is the grid index of the values' position i along axis a
    (by default i itself).
    """
    if not _all_finite(values):
        at = np.argwhere(~np.isfinite(values))[0]
        if nodes is not None:
            at = [n[i] for n, i in zip(nodes, at)]
        raise SamplingError(f"non-finite {what} at node {tuple(int(v) for v in at)}")


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


def _on_grid(values, grid: GridSpec) -> np.ndarray:
    """Output on the reversed open grid as a complex array of the grid's shape, x fastest."""
    shape = grid.dims[::-1]
    arr = np.asarray(values, dtype=np.complex128)
    if arr.shape != shape:
        arr = np.broadcast_to(arr, shape).copy()
    return arr.T


def sample_scalar(model, grid: GridSpec, t: float) -> ComplexScalarField:
    """Evaluate a one-component (scalar) model at every grid node at time t (x fastest)."""
    with np.errstate(over="ignore", invalid="ignore"):  # the field's check names the node
        comps = model.components(*(c.T for c in grid.open_grid()), t)
    if len(comps) != 1:
        raise TypeError("sample_scalar requires a scalar-valued model")
    return ComplexScalarField(grid, t, _on_grid(comps[0], grid))


def sample_potential(model, grid: GridSpec, t: float) -> PotentialField:
    """Evaluate a four-component potential model at every grid node at time t (x fastest)."""
    with np.errstate(over="ignore", invalid="ignore"):  # the field's check names the node
        comps = model.components(*(c.T for c in grid.open_grid()), t)
    if len(comps) != 4:
        raise TypeError("sample_potential requires a potential-valued model")
    return PotentialField(grid, t, *(_on_grid(c, grid) for c in comps))


def _take(values: np.ndarray, idx, axis: int) -> np.ndarray:
    sl = [slice(None)] * values.ndim
    sl[axis] = idx
    return values[tuple(sl)]


def _diff_array(values: np.ndarray, grid: GridSpec, a: int) -> np.ndarray:
    n = grid.dims[a]
    h = grid.spacing[a]
    if n < 2:
        raise ValueError(f"axis {a!r} has {n} node(s); need at least 2 to differentiate")
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


def _central(dest: np.ndarray, f: np.ndarray, a: int, c0: int, c1: int, scale: float) -> None:
    """dest = (f[i-1] + f[i+1] - f[i] - f[i]) * scale along axis a, for i in [c0, c1)."""
    mid = _take(f, slice(c0, c1), a)
    np.add(_take(f, slice(c0 - 1, c1 - 1), a), _take(f, slice(c0 + 1, c1 + 1), a), out=dest)
    dest -= mid
    dest -= mid
    dest *= scale


def _laplacian_at(out: np.ndarray, f: np.ndarray, grid: GridSpec, region: tuple,
                  scratch: np.ndarray) -> None:
    """Write the sum over the axes of f's second difference at the region's rows into out.

    Along each axis f holds either one value (f does not vary along it, and
    a constant's second difference is exactly zero) or a run of consecutive
    nodes: the whole axis or a window of it. ``region`` gives one slice of
    f's indices per axis; out and scratch are C-contiguous, with the
    region's length along x and y and f's whole width along z. So every
    operand is a run of whole z rows (contiguous when f is): the x
    neighbours one plane over, the y neighbours one row over and the z
    neighbours one element over. That shift wraps at the row ends into the
    z edge columns, whose z term is made exactly zero (f + f - f - f) and
    whose values outside the region's z slice are for the caller to discard.
    A region node with f's nodes on both sides takes the central stencil;
    one at an end of f's run, which must be the grid's edge with four of
    f's nodes there, takes the one-sided four-point stencil (on a three-node
    axis, the central value of the middle node). The first axis f varies
    along is written straight into out; later axes are made in scratch and
    added.
    """
    for a, n in enumerate(grid.dims):
        if n < 2:
            raise ValueError(f"axis {a!r} has {n} node(s); need at least 2 to differentiate")
    rows = (region[0], region[1], slice(None))
    target = out
    for a in range(3):
        m = f.shape[a]
        if m <= 2:
            continue
        lo, hi, _ = region[a].indices(m)
        g = f[tuple(slice(None) if b == a else s for b, s in enumerate(rows))]
        scale = 1.0 / grid.spacing[a] ** 2
        if a == 2:
            # the plane's rows end to end; only the wrapped edge columns are strided
            run, dest = g.reshape(g.shape[0], -1), target.reshape(g.shape[0], -1)
            np.add(run[:, :-2], run[:, 2:], out=dest[:, 1:-1])
            np.add(g[..., ::m - 1], g[..., ::m - 1], out=target[..., ::m - 1])
            dest -= run
            dest -= run
            dest *= scale
            offset = 0  # target holds f's whole z width
        else:
            c0, c1 = max(lo, 1), min(hi, m - 1)
            if c0 < c1:
                _central(_take(target, slice(c0 - lo, c1 - lo), a), g, a, c0, c1, scale)
            offset = lo
        for node, idx in ((0, (0, 1, 2, 3)), (m - 1, (m - 1, m - 2, m - 3, m - 4))):
            if not lo <= node < hi:
                continue
            at = node - offset
            if m == 3:
                _central(_take(target, slice(at, at + 1), a), g, a, 1, 2, scale)
            else:
                # written as differences so constant fields cancel exactly
                f0, f1, f2, f3 = (_take(g, i, a) for i in idx)
                np.multiply(2.0 * (f0 - f1) - 3.0 * (f1 - f2) + (f2 - f3), scale,
                            out=_take(target, at, a))
        if target is out:
            target = scratch
        else:
            out += scratch
    if target is out:
        out.fill(0)


def laplacian(field: ComplexScalarField) -> ComplexScalarField:
    """Sum over the axes of the compact second difference.

    Interior nodes take (f[i-1] - 2*f[i] + f[i+1]) / h^2 and boundary
    nodes the one-sided (2*f0 - 5*f1 + 4*f2 - f3) / h^2, so cubics are
    exact at every node. A three-node axis uses its one second difference
    at all three nodes, and a two-node axis contributes zero.
    """
    out = np.empty(field.grid.dims, dtype=np.complex128)
    _laplacian_at(out, np.ascontiguousarray(field.values), field.grid, (slice(None),) * 3,
                  np.empty_like(out))
    return ComplexScalarField(field.grid, field.time, out)


def harmonic_factor(model, order: int, dt=None):
    """The factor the order-th time derivative of exp(-i*omega*t) multiplies by.

    Without ``dt`` it is the closed form (-i*omega)**order. A finite
    ``dt`` > 0 gives the factor of the central difference with that step:
    -i*sin(omega*dt)/dt for order 1 and -(2*sin(omega*dt/2)/dt)**2 for
    order 2. Raises UnsupportedModelError when the model declares no
    ``omega``, with or without ``dt``.
    """
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    if dt is not None and not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    omega = getattr(model, "omega", None)
    if omega is None:
        raise UnsupportedModelError(
            f"{type(model).__name__} declares no omega, so it has no time derivative")
    if dt is None:
        return -1j * omega if order == 1 else -(omega ** 2)
    if order == 1:
        return -1j * math.sin(omega * dt) / dt
    return -(2.0 * math.sin(omega * dt / 2) / dt) ** 2

