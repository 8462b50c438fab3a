"""Discrete exterior calculus on 2D cubical grids, and period integrals.

Chains carry integer coefficients on oriented cells (vertices, axis
aligned edges, unit faces); cochains (forms) carry one real value per
cell, edge values representing the integral of a 1-form along the edge.
One incidence rule (``CubicalComplex.lower_cells``) gives the coboundary,
as signed sums over each cell's lower cells, and, on a chain's own cells,
its boundary: the discrete Stokes identity holds exactly, at a cost set by
the chain. Period integrals of continuous 1-forms over smooth closed curves
are one periodic sum at twice the sample count, the mean of its trapezoid
and midpoint halves, whose difference is the error estimate; an
edge-integrated angular form on a complex with a rectangular hole witnesses
closed-but-not-exact cohomology.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * math.pi


class DegreeError(ValueError):
    """Operation applied to a chain or form of the wrong degree."""


class NoCycleError(ValueError):
    """The complex has no hole, so no nontrivial cycle exists."""


class SingularityProximityError(ValueError):
    """Quadrature samples pass within 1e-6 of a singular point of the form."""


class QuadratureAccuracyWarning(UserWarning):
    """The trapezoid and midpoint halves of a period integral disagree."""


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

    def vertex_coords(self):
        xs = self.origin[0] + self.spacing[0] * np.arange(self.nx)
        ys = self.origin[1] + self.spacing[1] * np.arange(self.ny)
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        # x fastest, the vertex numbering of lower_cells
        return X.T.ravel(), Y.T.ravel()

    @property
    def face_present(self) -> np.ndarray:
        if self.face_mask is None:
            return np.ones(self.n_faces, dtype=bool)
        return self.face_mask.T.ravel()

    def lower_cells(self, degree: int, cells) -> tuple[np.ndarray, np.ndarray]:
        """Oriented lower cells of the given p-cells, by index arithmetic.

        Returns (lower, signs); each row lists a cell's lower cells in
        ascending order: an edge's (tail -1, head +1), a face's
        counterclockwise loop (bottom +1, top -1, left -1, right +1).
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

    A row is added from 0.0 in ascending lower-cell order, so a cell's sum is
    the same bits whether it is taken over the whole complex or a chain.
    """
    return sum((signs * values[lower]).T, np.zeros(len(lower)))


def chain_rows(cx: CubicalComplex, degree: int, cells):
    """The p-cells' ``lower_cells`` rows, renumbered over the lower cells they touch.

    Returns (touched, rows, signs), ``touched`` ascending.
    """
    lower, signs = cx.lower_cells(degree, cells)
    touched = np.unique(lower)
    return touched, np.searchsorted(touched, lower), signs


def _boundary_sums(rows, signs, coeffs, n: int) -> np.ndarray:
    """Each of the n touched lower cells' sum of its rows' signs times their coefficients."""
    sums = np.zeros(n, dtype=np.int64)
    np.add.at(sums, rows.ravel(), (signs * np.asarray(coeffs, dtype=np.int64)[:, None]).ravel())
    return sums


def stokes_on_rows(rows, signs, coeffs, values) -> float:
    """(d w)(c) - w(boundary c) from a chain's ``chain_rows`` and w on its touched cells.

    ``coeffs`` follow the rows. d w is summed per row as ``coboundary`` sums it
    and w(boundary c) in ascending cell order as ``evaluate`` takes it, so
    the bits are those of the whole-complex difference.
    """
    sums = _boundary_sums(rows, signs, coeffs, len(values))
    keep = sums != 0
    around = float(values[keep] @ sums[keep].astype(float))
    return float(_row_sums(rows, signs, values) @ np.asarray(coeffs, dtype=float)) - around


def boundary(chain: Chain) -> Chain:
    """Oriented boundary; a face maps to its counterclockwise 4-edge loop.

    Sums the signed rows of the chain's own cells (``lower_cells``) per
    lower cell and keeps the nonzero sums, in ascending cell order.
    """
    touched, rows, signs = chain_rows(chain.cx, chain.degree, list(chain.coeffs))
    sums = _boundary_sums(rows, signs, list(chain.coeffs.values()), touched.size)
    keep = sums != 0
    return Chain(chain.cx, chain.degree - 1, dict(zip(touched[keep].tolist(), sums[keep].tolist())))


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

    Reads the form on the chain's lower cells alone (``stokes_on_rows``), so
    the first term equals ``evaluate(coboundary(form), chain)`` bit for bit
    without computing d form on the whole complex.
    """
    touched, rows, signs = chain_rows(chain.cx, chain.degree, list(chain.coeffs))
    if form.degree != chain.degree - 1:
        raise DegreeError(f"degree mismatch: form {form.degree}, chain boundary {chain.degree - 1}")
    if form.cx is not chain.cx:
        raise ValueError("form and chain live on different complexes")
    return stokes_on_rows(rows, signs, list(chain.coeffs.values()), form.values[touched])


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
        x, y = self.curve(np.linspace(0.0, 1.0, self.samples + 1))
        gap = math.hypot(float(x[-1] - x[0]), float(y[-1] - y[0]))
        # the ends round apart in proportion to the curve's extent and offset; a NaN gap fails
        if not gap <= 1e-12 * max(1.0, float(np.abs(x).max()), float(np.abs(y).max())):
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

    One periodic sum at the 2m points s = j/(2m), m = ``cycle.samples``: the
    mean of its even and odd halves, the m-point trapezoid and midpoint sums.
    Raises near a listed singular point or on a non-finite sum; warns when
    the halves differ by more than 1e-12 * max(1, |value|).
    """
    m = cycle.samples
    s = np.arange(2 * m) / (2 * m)
    x, y = cycle.curve(s)
    for px, py in singularities:
        dist = float(np.hypot(x - px, y - py).min())
        if dist <= 1e-6:
            raise SingularityProximityError(
                f"cycle passes within {dist:.2e} of singular point ({px}, {py})")
    dx, dy = cycle.derivative(s)
    terms = ax(x, y) * dx + ay(x, y) * dy
    trapezoid, midpoint = (float(np.sum(terms[h::2])) / m for h in (0, 1))
    value = 0.5 * trapezoid + 0.5 * midpoint
    if not math.isfinite(value):
        raise ValueError(f"period sum not finite: trapezoid {trapezoid}, midpoint {midpoint}")
    gap = abs(trapezoid - midpoint)
    if gap > 1e-12 * max(1.0, abs(value)):
        warnings.warn(f"trapezoid and midpoint halves differ by {gap:.2e}",
                      QuadratureAccuracyWarning)
    return value


def angular_form_components(center=(0.0, 0.0)):
    """Component functions of the angular 1-form about ``center``.

    Its period over a cycle is 2*pi times the cycle's winding about the
    center; singular at the center itself. Where r^2 leaves float range the
    components divide by r twice instead, with the same values elsewhere.
    """
    cx0, cy0 = center

    def over_r2(num, dx, dy):
        # num / r^2, or num / r / r where r^2 = dx^2 + dy^2 leaves float range
        with np.errstate(over="ignore"):
            r2 = dx * dx + dy * dy
        if not np.isinf(r2).any():
            return num / r2
        r = np.hypot(dx, dy)
        return np.where(np.isinf(r2), num / r / r, num / r2)

    def ax(x, y):
        dx = x - cx0
        dy = y - cy0
        return over_r2(-dy, dx, dy)

    def ay(x, y):
        dx = x - cx0
        dy = y - cy0
        return over_r2(dx, dx, dy)

    return ax, ay


def ws_integral(energy: float, frequency: float, mass: float) -> float:
    """Closed-orbit action of a 1D harmonic oscillator, by period integral.

    The orbit is the phase-space ellipse of the given energy and
    frequency, traversed in the direction of physical motion; the
    analytic value is energy/frequency.
    """
    if not all(math.isfinite(v) and v > 0 for v in (energy, frequency, mass)):
        raise ValueError("energy, frequency and mass must all be positive and finite")
    ratio, product = 2.0 * energy / mass, 2.0 * mass * energy
    q_amp, p_amp = math.sqrt(ratio) / (TWO_PI * frequency), math.sqrt(product)
    # p_amp is normal with product; 2*pi*q_amp*p_amp is the period sum's largest term
    if not all(np.finfo(float).tiny <= v <= np.finfo(float).max
               for v in (ratio, product, q_amp, TWO_PI * q_amp * p_amp)):
        raise ValueError(f"energy {energy!r}, frequency {frequency!r} and mass {mass!r} "
                         "put the orbit's amplitudes out of the normal float range")

    def curve(s):
        return q_amp * np.sin(TWO_PI * s), p_amp * np.cos(TWO_PI * s)

    def derivative(s):
        return (TWO_PI * q_amp * np.cos(TWO_PI * s),
                -TWO_PI * p_amp * np.sin(TWO_PI * s))

    cycle = ParametricCycle(curve, derivative, 64)
    return period_integral(lambda q, p: p, lambda q, p: np.zeros_like(q), cycle)
