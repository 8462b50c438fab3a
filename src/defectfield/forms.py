"""Discrete exterior calculus on 2D cubical grids, and period integrals.

Chains carry integer coefficients on oriented cells (vertices, axis
aligned edges, unit faces); cochains (forms) carry one real value per
cell, edge values representing the integral of a 1-form along the edge.
One incidence rule (``CubicalComplex.lower_cells``) gives the coboundary,
as signed sums over each cell's lower cells, and, on a chain's own cells,
its boundary: the discrete Stokes identity holds exactly, at a cost set by
the chain. The sparse matrices ``d0``/``d1`` come from the same rule and
are built, with a scipy import, only when a caller asks for them. Period
integrals of continuous 1-forms over smooth closed curves use midpoint
quadrature with one Richardson extrapolation; an edge-integrated angular
form on a complex with a rectangular hole witnesses closed-but-not-exact
cohomology.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from scipy import sparse

TWO_PI = 2.0 * math.pi


class DegreeError(ValueError):
    """Operation applied to a chain or form of the wrong degree."""


class NoCycleError(ValueError):
    """The complex has no hole, so no nontrivial cycle exists."""


class SingularityProximityError(ValueError):
    """Quadrature samples pass within 1e-6 of a singular point of the form."""


class QuadratureAccuracyWarning(UserWarning):
    """Refinement did not reduce the quadrature error at the expected rate."""


class CubicalComplex:
    """Vertices, edges, and faces of an nx-by-ny planar node grid.

    Edges are oriented along +x and +y; faces carry the +z normal, so a
    face boundary runs counterclockwise. An optional face mask removes
    faces (True keeps a face), leaving a complex with a hole.
    """

    def __init__(self, nx: int, ny: int, spacing=(1.0, 1.0), origin=(0.0, 0.0),
                 face_mask=None):
        if nx < 2 or ny < 2:
            raise ValueError("complex needs at least 2 nodes per axis")
        self.nx = int(nx)
        self.ny = int(ny)
        self.spacing = (float(spacing[0]), float(spacing[1]))
        self.origin = (float(origin[0]), float(origin[1]))
        self.n_vertices = nx * ny
        self.n_xedges = (nx - 1) * ny
        self.n_yedges = nx * (ny - 1)
        self.n_edges = self.n_xedges + self.n_yedges
        self.n_faces = (nx - 1) * (ny - 1)
        if face_mask is not None:
            face_mask = np.asarray(face_mask, dtype=bool)
            if face_mask.shape != (nx - 1, ny - 1):
                raise ValueError("face_mask must have shape (nx-1, ny-1)")
        self.face_mask = face_mask

    def n_cells(self, degree: int) -> int:
        return {0: self.n_vertices, 1: self.n_edges, 2: self.n_faces}[degree]

    def vertex_index(self, i: int, j: int) -> int:
        return j * self.nx + i

    def xedge_index(self, i: int, j: int) -> int:
        return j * (self.nx - 1) + i

    def yedge_index(self, i: int, j: int) -> int:
        return self.n_xedges + j * self.nx + i

    def face_index(self, i: int, j: int) -> int:
        return j * (self.nx - 1) + i

    def vertex_coords(self):
        xs = self.origin[0] + self.spacing[0] * np.arange(self.nx)
        ys = self.origin[1] + self.spacing[1] * np.arange(self.ny)
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        # flatten consistently with vertex_index (x fastest)
        return X.T.ravel(), Y.T.ravel()

    @property
    def face_present(self) -> np.ndarray:
        if self.face_mask is None:
            return np.ones(self.n_faces, dtype=bool)
        return self.face_mask.T.ravel()

    def lower_cells(self, degree: int, cells) -> tuple[np.ndarray, np.ndarray]:
        """Oriented lower cells of the given p-cells, by index arithmetic.

        Returns (lower, signs); each row, the row of ``d0`` or ``d1``, lists a
        cell's lower cells in ascending order: an edge's (tail -1, head +1), a
        face's counterclockwise loop (bottom +1, top -1, left -1, right +1).
        """
        cells = np.asarray(cells, dtype=np.int64)
        if degree == 1:  # x-edge j*(nx-1)+i and y-edge n_xedges+j*nx+i leave vertex j*nx+i
            y = cells >= self.n_xedges
            tail = cells + np.where(y, -self.n_xedges, cells // (self.nx - 1))
            return np.array([tail, tail + 1 + (self.nx - 1) * y]).T, np.array([-1, 1])
        if degree != 2:
            raise DegreeError(f"only edges and faces have lower cells, got degree {degree}")
        # face j*(nx-1)+i: x-edges j*(nx-1)+i and (j+1)*(nx-1)+i, y-edges n_xedges+j*nx+i (+1)
        left = self.n_xedges + cells + cells // (self.nx - 1)
        return np.array([cells, cells + self.nx - 1, left, left + 1]).T, np.array([1, -1, -1, 1])

    def _incidence(self, degree: int) -> sparse.csr_matrix:
        from scipy import sparse  # only a caller that asks for a matrix loads scipy

        lower, signs = self.lower_cells(degree, np.arange(self.n_cells(degree)))
        indptr = np.arange(0, lower.size + 1, lower.shape[1])
        return sparse.csr_matrix((np.resize(signs, lower.size), lower.ravel(), indptr),
                                 shape=(len(lower), self.n_cells(degree - 1)))

    @cached_property
    def d0(self) -> sparse.csr_matrix:
        """Edge-by-vertex incidence: row e has -1 at its tail, +1 at its head."""
        return self._incidence(1)

    @cached_property
    def d1(self) -> sparse.csr_matrix:
        """Face-by-edge incidence for the counterclockwise face boundary."""
        return self._incidence(2)


def _integer(value, what: str) -> int:
    """value as an int; ValueError unless it is a finite whole number."""
    try:
        whole = int(value)
    except (TypeError, ValueError, OverflowError):
        whole = None
    if whole is None or whole != value:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return whole


@dataclass(frozen=True)
class Chain:
    """Integer-weighted formal sum of p-cells of one complex."""

    cx: CubicalComplex
    degree: int
    coeffs: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.degree not in (0, 1, 2):
            raise DegreeError(f"chain degree must be 0, 1 or 2, got {self.degree}")
        n = self.cx.n_cells(self.degree)
        clean = {}
        for cell, coef in self.coeffs.items():
            cell = _integer(cell, "cell index")
            coef = _integer(coef, "chain coefficient")
            if not 0 <= cell < n:
                raise ValueError(f"cell index {cell} out of range for degree {self.degree}")
            if coef != 0:
                clean[cell] = coef
        object.__setattr__(self, "coeffs", clean)

    def __add__(self, other: "Chain") -> "Chain":
        if other.degree != self.degree or other.cx is not self.cx:
            raise DegreeError("chains must share degree and complex")
        out = dict(self.coeffs)
        for cell, coef in other.coeffs.items():
            out[cell] = out.get(cell, 0) + coef
        return Chain(self.cx, self.degree, out)

    def __neg__(self) -> "Chain":
        return Chain(self.cx, self.degree, {c: -v for c, v in self.coeffs.items()})

    def __sub__(self, other: "Chain") -> "Chain":
        return self + (-other)

    def __rmul__(self, scalar: int) -> "Chain":
        return Chain(self.cx, self.degree, {c: scalar * v for c, v in self.coeffs.items()})


@dataclass(frozen=True)
class DiscreteForm:
    """One real value per p-cell; edge values are integrals along the edges."""

    cx: CubicalComplex
    degree: int
    values: np.ndarray

    def __post_init__(self):
        if self.degree not in (0, 1, 2):
            raise DegreeError(f"form degree must be 0, 1 or 2, got {self.degree}")
        vals = np.asarray(self.values, dtype=float)
        n = self.cx.n_cells(self.degree)
        if vals.shape != (n,):
            raise ValueError(f"expected {n} values for degree {self.degree}, got {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("form values must be finite")
        object.__setattr__(self, "values", vals)


def _row_sums(lower, signs, values) -> np.ndarray:
    """Each ``lower_cells`` row's signed sum of ``values``, d·values on those rows.

    A row is added in ascending lower-cell order from zero, the order in which
    the CSR product ``d0 @ values`` or ``d1 @ values`` adds it, so the two agree
    bit for bit.
    """
    return sum((signs * values[lower]).T, np.zeros(len(lower)))


def _boundary_and_rows(chain: Chain):
    """boundary(chain), with the chain's (lower, signs) rows it was summed from."""
    if chain.degree == 0:
        raise DegreeError("0-chains have no boundary")
    lower, signs = chain.cx.lower_cells(chain.degree, list(chain.coeffs))
    signed = signs * np.array(list(chain.coeffs.values()), dtype=np.int64)[:, None]
    cells = np.unique(lower)
    sums = np.zeros(cells.size, dtype=np.int64)
    np.add.at(sums, np.searchsorted(cells, lower.ravel()), signed.ravel())
    keep = sums != 0
    edges = Chain(chain.cx, chain.degree - 1, dict(zip(cells[keep].tolist(), sums[keep].tolist())))
    return edges, lower, signs


def boundary(chain: Chain) -> Chain:
    """Oriented boundary; a face maps to its counterclockwise 4-edge loop.

    Sums the signed rows of the chain's own cells (``lower_cells``) per
    lower cell and keeps the nonzero sums, in ascending cell order.
    """
    return _boundary_and_rows(chain)[0]


def coboundary(form: DiscreteForm) -> DiscreteForm:
    """Exterior derivative, defined by (d w)(c) = w(boundary(c))."""
    if form.degree == 2:
        raise DegreeError("2-forms have no coboundary on a planar complex")
    cx, degree = form.cx, form.degree + 1
    rows = cx.lower_cells(degree, np.arange(cx.n_cells(degree)))
    return DiscreteForm(cx, degree, _row_sums(*rows, form.values))


def evaluate(form: DiscreteForm, chain: Chain) -> float:
    """Integrate a form over a chain: sum of coefficient times cell value."""
    if form.degree != chain.degree:
        raise DegreeError(f"degree mismatch: form {form.degree}, chain {chain.degree}")
    if form.cx is not chain.cx:
        raise ValueError("form and chain live on different complexes")
    coefs = np.array(list(chain.coeffs.values()), dtype=float)
    return float(form.values[list(chain.coeffs)] @ coefs)


def stokes_residual(form: DiscreteForm, chain: Chain) -> float:
    """evaluate(d form, chain) - evaluate(form, boundary(chain)); zero by adjointness.

    The chain's rows are built once and give both its boundary and (d form)
    on its cells, summed as ``coboundary`` sums them, so the first term equals
    ``evaluate(coboundary(form), chain)`` bit for bit without computing d form
    on the whole complex.
    """
    edges, lower, signs = _boundary_and_rows(chain)
    around = evaluate(form, edges)  # rejects mismatched degrees and complexes
    d = _row_sums(lower, signs, form.values)
    return float(d @ np.array(list(chain.coeffs.values()), dtype=float)) - around


def form_from_vertex_function(cx: CubicalComplex, f) -> DiscreteForm:
    X, Y = cx.vertex_coords()
    return DiscreteForm(cx, 0, np.asarray(f(X, Y), dtype=float))


def winding_one_form(cx: CubicalComplex, center=(0.0, 0.0)) -> DiscreteForm:
    """Edge-integrated angular form about ``center``.

    Each edge value is the wrapped angle difference between its
    endpoints, which equals the exact line integral of the angular form
    for edges subtending less than a half turn about the center.
    """
    X, Y = cx.vertex_coords()
    theta = np.arctan2(Y - center[1], X - center[0])
    step = coboundary(DiscreteForm(cx, 0, theta)).values
    return DiscreteForm(cx, 1, np.mod(step + math.pi, TWO_PI) - math.pi)


def annulus_complex(nx: int, ny: int, hole, spacing=(1.0, 1.0),
                    origin=(0.0, 0.0)) -> CubicalComplex:
    """Complex with a rectangular block of faces removed.

    ``hole`` is (i0, i1, j0, j1) in face indices, masking faces with
    i0 <= i < i1 and j0 <= j < j1; the hole must be strictly interior so
    an encircling cycle exists.
    """
    i0, i1, j0, j1 = hole
    if not (1 <= i0 < i1 <= nx - 2 and 1 <= j0 < j1 <= ny - 2):
        raise ValueError("hole must be nonempty and strictly interior")
    mask = np.ones((nx - 1, ny - 1), dtype=bool)
    mask[i0:i1, j0:j1] = False
    return CubicalComplex(nx, ny, spacing=spacing, origin=origin, face_mask=mask)


def hole_cycle(cx: CubicalComplex) -> Chain:
    """Counterclockwise edge cycle around the masked faces."""
    present = cx.face_present
    if present.all():
        raise NoCycleError("complex has no hole, so no encircling cycle exists")
    faces = Chain(cx, 2, {int(f): 1 for f in np.nonzero(~present)[0]})
    return boundary(faces)


def closed_not_exact_witness(form: DiscreteForm):
    """Check closedness off the hole and report the period around it.

    Returns (is_closed, period): ``is_closed`` is True when |d form| stays
    at or below 1e-10 on every present face; ``period`` is the integral of
    the form over the hole-encircling cycle. A closed form with a nonzero
    period witnesses a closed-but-not-exact cochain.
    """
    if form.degree != 1:
        raise DegreeError("witness applies to 1-forms")
    cx = form.cx
    d = coboundary(form).values
    is_closed = bool(np.max(np.abs(d[cx.face_present])) <= 1e-10)
    period = evaluate(form, hole_cycle(cx))
    return is_closed, period


@dataclass(frozen=True)
class ParametricCycle:
    """Smooth closed plane curve gamma: [0, 1] -> R^2 with a sample count.

    ``curve`` maps an array of parameters to (x, y) arrays; the required
    ``derivative`` maps them to d(x, y)/ds.
    """

    curve: object
    derivative: object
    samples: int = 256

    def __post_init__(self):
        if self.samples < 16:
            raise ValueError("a cycle needs at least 16 samples")
        x0, y0 = self.curve(np.array([0.0]))
        x1, y1 = self.curve(np.array([1.0]))
        gap = math.hypot(float(x1[0] - x0[0]), float(y1[0] - y0[0]))
        scale = max(1.0, abs(float(x0[0])), abs(float(y0[0])))
        if not gap <= 1e-12 * scale:  # a NaN gap (non-finite curve) fails too
            raise ValueError(f"curve endpoints differ by {gap:.3e}; cycle must close")

    @classmethod
    def circle(cls, cx: float = 0.0, cy: float = 0.0, radius: float = 1.0,
               turns: int = 1, samples: int = 256) -> "ParametricCycle":
        w = TWO_PI * turns

        def curve(s):
            return cx + radius * np.cos(w * s), cy + radius * np.sin(w * s)

        def derivative(s):
            return -radius * w * np.sin(w * s), radius * w * np.cos(w * s)

        return cls(curve, derivative, samples)


def period_integral(ax, ay, cycle: ParametricCycle, singularities=()) -> float:
    """Line integral of the 1-form (ax, ay) around the cycle.

    Midpoint quadrature at the cycle's sample count, once refined and
    Richardson extrapolated. Raises when quadrature samples approach a
    listed singular point; warns when refinement fails the ratio test.
    """

    def quad(m: int) -> float:
        s = (np.arange(m) + 0.5) / m
        x, y = cycle.curve(s)
        for px, py in singularities:
            dist = np.hypot(x - px, y - py)
            if float(dist.min()) <= 1e-6:
                raise SingularityProximityError(
                    f"cycle passes within {float(dist.min()):.2e} of singular point ({px}, {py})"
                )
        dx, dy = cycle.derivative(s)
        return float(np.sum(ax(x, y) * dx + ay(x, y) * dy) / m)

    m = cycle.samples
    i1 = quad(m)
    i2 = quad(2 * m)
    i4 = quad(4 * m)
    extrapolated = i4 + (i4 - i2) / 3.0
    e1 = abs(i2 - i1)
    e2 = abs(i4 - i2)
    if e2 > 1e-12 * max(1.0, abs(i4)) and e2 > 0.5 * e1:
        warnings.warn(
            f"period integral refinements not converging (|I2-I1|={e1:.2e}, |I4-I2|={e2:.2e})",
            QuadratureAccuracyWarning,
        )
    return extrapolated


def angular_form_components(center=(0.0, 0.0)):
    """Component functions of the angular 1-form about ``center``.

    Its period over a cycle is 2*pi times the cycle's winding about the
    center; singular at the center itself.
    """
    cx0, cy0 = center

    def ax(x, y):
        dx = x - cx0
        dy = y - cy0
        return -dy / (dx * dx + dy * dy)

    def ay(x, y):
        dx = x - cx0
        dy = y - cy0
        return dx / (dx * dx + dy * dy)

    return ax, ay


def ws_integral(energy: float, frequency: float, mass: float) -> float:
    """Closed-orbit action of a 1D harmonic oscillator, by period integral.

    The orbit is the phase-space ellipse of the given energy and
    frequency, traversed in the direction of physical motion; the
    analytic value is energy/frequency.
    """
    if not all(math.isfinite(v) and v > 0 for v in (energy, frequency, mass)):
        raise ValueError("energy, frequency and mass must all be positive and finite")
    q_amp = math.sqrt(2.0 * energy / mass) / (TWO_PI * frequency)
    p_amp = math.sqrt(2.0 * mass * energy)

    def curve(s):
        return q_amp * np.sin(TWO_PI * s), p_amp * np.cos(TWO_PI * s)

    def derivative(s):
        return (TWO_PI * q_amp * np.cos(TWO_PI * s),
                -TWO_PI * p_amp * np.sin(TWO_PI * s))

    cycle = ParametricCycle(curve, derivative, 64)
    return period_integral(lambda q, p: p, lambda q, p: np.zeros_like(q), cycle)
