"""Locate field defects and measure their topological indices.

Dislocations are amplitude zeros of a complex scalar wave with quantized
phase winding; disclinations are simultaneous zeros of both transverse
potential components. One rule finds both: a point where every component
of the slice vanishes and winds. A core sitting exactly on a grid node is
reported once, at its node, with the winding around its 8-node ring;
other cores are found by plaquette. Windings count the 2*pi shifts that
wrap the phase steps around closed loops or grid plaquettes, so they are
exact integers by construction. Pattern-alignment fits measure the rigid
rotation rate of the transverse azimuth pattern in time and its twist
rate along the propagation axis, and the rotation per period yields the
time-defect (tifold) index. Each substep of a fit is closed form: a rigid
rotation by alpha multiplies the Fourier coefficient c_n of
exp(i*beta(theta)) by exp(i*(1-n)*alpha), so the dominant mode n != 1
gives |1-n| candidate angles, and one evaluation of the alignment
mismatch picks among them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .fields import ComplexScalarField, GridSpec, PotentialField

TOL_AMP = 1e-9  # amplitude floor of a winding loop; relative to the median in slice scans
REL_ZERO = 0.75  # corner amplitude, relative to the median, below which components coincide
FIT_RESIDUAL_TOL = 1e-6
STEP_TARGET = math.pi / 4  # per-substep alignment angle kept well inside (-pi/2, pi/2)
N_THETA = 64  # unit-circle angles per azimuth pattern of a fit

TWO_PI = 2.0 * math.pi
# 8-node counterclockwise ring around a node as (di, dj) offsets, closed
_RING = np.array([(1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1),
                  (1, 0)])


class NearZeroOnLoopError(ValueError):
    """Loop passes too close to an amplitude zero for the phase to be reliable."""


class AmbiguousStepError(ValueError):
    """A wrapped phase step equals pi within tolerance; the loop is too coarse."""


class RigidRotationFitError(RuntimeError):
    """Azimuth patterns are not related by a rigid rotation."""


class UndefinedIndexError(ValueError):
    """The index is undefined for the given parameters (zero frequency)."""


class NonRationalIndexError(RuntimeError):
    """Fitted index is not near a small rational; carries the raw value."""

    def __init__(self, raw: float):
        super().__init__(f"fitted index {raw!r} is not within 1e-9 of p/q with q <= 4")
        self.raw = raw


def wrap_angle(a):
    """Wrap angle(s) to (-pi, pi]."""
    w = np.mod(a, TWO_PI)
    return np.where(w > math.pi, w - TWO_PI, w)


@dataclass(frozen=True)
class LoopPath:
    """Closed polyline in a z = const plane; orientation follows vertex order.

    Vertices are (x, y) coordinates with the first vertex repeated at the
    end. Counterclockwise order (viewed from +z) gives positive winding.
    The polyline must be simple; this is a caller contract and is not
    validated.
    """

    points: np.ndarray
    z: float = 0.0

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError("points must be an (m, 2) array")
        scale = max(1.0, float(np.abs(pts).max()))
        if np.max(np.abs(pts[0] - pts[-1])) > 1e-9 * scale:
            raise ValueError("loop is not closed (first vertex must equal last)")
        pts = pts.copy()
        pts[-1] = pts[0]
        if len(np.unique(pts[:-1], axis=0)) < 4:
            raise ValueError("loop needs at least 4 distinct vertices")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "z", float(self.z))

    def reversed(self) -> "LoopPath":
        return LoopPath(self.points[::-1].copy(), self.z)

    @classmethod
    def circle(cls, cx: float, cy: float, radius: float, n: int = 64,
               z: float = 0.0) -> "LoopPath":
        th = np.linspace(0.0, TWO_PI, n + 1)
        pts = np.column_stack([cx + radius * np.cos(th), cy + radius * np.sin(th)])
        pts[-1] = pts[0]
        return cls(pts, z)

    @classmethod
    def rectangle(cls, x0: float, y0: float, x1: float, y1: float,
                  per_side: int = 16, z: float = 0.0) -> "LoopPath":
        s = np.linspace(0.0, 1.0, per_side, endpoint=False)
        bottom = np.column_stack([x0 + s * (x1 - x0), np.full_like(s, y0)])
        right = np.column_stack([np.full_like(s, x1), y0 + s * (y1 - y0)])
        top = np.column_stack([x1 - s * (x1 - x0), np.full_like(s, y1)])
        left = np.column_stack([np.full_like(s, x0), y1 - s * (y1 - y0)])
        pts = np.vstack([bottom, right, top, left, [[x0, y0]]])
        return cls(pts, z)


@dataclass(frozen=True)
class DefectRecord:
    """A detected defect: kind, location, signed index, and amplitude margin."""

    kind: str
    position: tuple[float, float, float]
    index: Fraction
    confidence: float


def _nearest_slice(grid: GridSpec, z: float) -> int:
    nz = grid.dims[2]
    k = 0.0 if nz == 1 else (z - grid.origin[2]) / grid.spacing[2]
    if not (math.isfinite(z) and -0.5 <= k <= nz - 0.5):
        raise ValueError("loop leaves the grid along axis 2")
    return min(max(round(k), 0), nz - 1)


def _loop_values(field: ComplexScalarField, loop: LoopPath) -> np.ndarray:
    """Bilinear interpolation of the loop's z slice at the loop vertices."""
    values = field.values[:, :, _nearest_slice(field.grid, loop.z)]
    cells, fracs = [], []
    for axis in (0, 1):
        nodes = field.grid.axis_coords(axis)
        p = loop.points[:, axis]
        # a NaN vertex fails both comparisons, so it is rejected here too
        if len(nodes) < 2 or not np.all((nodes[0] <= p) & (p <= nodes[-1])):
            raise ValueError(f"loop leaves the grid along axis {axis}")
        i = np.clip(np.searchsorted(nodes, p, side="right") - 1, 0, len(nodes) - 2)
        cells.append(i)
        fracs.append((p - nodes[i]) / (nodes[i + 1] - nodes[i]))
    (i, j), (u, v) = cells, fracs
    return (values[i, j] * (1 - u) * (1 - v) + values[i, j + 1] * (1 - u) * v
            + values[i + 1, j] * u * (1 - v) + values[i + 1, j + 1] * u * v)


def _wraps(d: np.ndarray) -> np.ndarray:
    """Signed count (int8) of the 2*pi shifts that wrap each phase step d into (-pi, pi].

    Steps between two angles in [-pi, pi] lie in [-2*pi, 2*pi], so at most
    one shift wraps each.
    """
    return (d <= -math.pi).view(np.int8) - (d > math.pi).view(np.int8)


def _windings(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Winding of each closed column of values (last == first), and whether it is ambiguous:
    the raw phase steps telescope to zero, so the winding counts the shifts that wrap
    them, and a raw step d in [-2*pi, 2*pi] wraps to +-pi when |d| is pi within 1e-9."""
    steps = np.diff(np.angle(values), axis=0)
    return _wraps(steps).sum(axis=0), (np.abs(np.abs(steps) - math.pi) <= 1e-9).any(axis=0)


def _winding_from_values(values: np.ndarray, floor: float) -> int:
    """Winding of closed values that clear the floor and step unambiguously."""
    amp = np.abs(values)
    if np.any(amp <= floor):
        raise NearZeroOnLoopError(f"loop amplitude {amp.min():.3e} is at or below "
                                  f"tolerance {floor:.3e}")
    winding, ambiguous = _windings(values)
    if ambiguous:
        raise AmbiguousStepError("a phase step equals pi within 1e-9; refine the loop")
    return int(winding)


def phase_winding(field: ComplexScalarField, loop: LoopPath) -> int:
    """Signed number of 2*pi phase turns along the loop (positive CCW about +z).

    The loop is read on the z slice nearest its z. A loop that leaves the
    grid raises ValueError: a vertex outside x or y, a z that is not finite,
    or, on a grid of several slices, a z more than half a spacing outside them.
    """
    return _winding_from_values(_loop_values(field, loop), TOL_AMP)


def _plaquette_windings(values2d: np.ndarray) -> np.ndarray:
    """Integer winding of every 2x2 plaquette of the first two axes (CCW about +z)."""
    phase = np.angle(values2d + 0.0)  # + 0.0 clears signed zeros: angle(-0.0) is pi
    # The raw steps around a plaquette telescope to zero: its winding is the
    # signed count of the shifts of its wrapped steps, each step taken along
    # +x or +y, as np.diff takes it, so an exact +-pi step counts one way.
    sx, sy = (_wraps(d) for d in (np.diff(phase, axis=0), np.diff(phase, axis=1)))
    return (sx[:, :-1] + sy[1:, :] - sx[:, 1:] - sy[:-1, :]).astype(int)


def _plaquette_centroid(grid: GridSpec, i, j, k: int):
    """Centre of plaquette (i, j) of slice k; i and j may be index arrays."""
    x0, y0, z0 = grid.node_position(i, j, k)
    return (x0 + grid.spacing[0] / 2, y0 + grid.spacing[1] / 2, z0)


def _find_zeros(comps: list[np.ndarray], grid: GridSpec, z_slice: int,
                kind: str) -> list[DefectRecord]:
    """Scan one slice for points where every component vanishes and winds.

    ``comps`` holds the slice of each component: ``[psi]`` for a scalar
    wave, ``[Ax, Ay]`` for a potential; ``amp`` is their joint amplitude.
    A node whose components all sit at or below ``TOL_AMP`` times the median
    of ``amp``, while the first component clears that floor on the whole
    8-node ring around it, is an on-node zero: it is indexed by the winding
    of the first component around the ring, and its four plaquettes are
    not scanned again. Elsewhere, a plaquette is a candidate when every
    component winds around it and each corner at or below the floor is such
    an on-node zero (the exact zeros on an aperture's rim have no phase).
    One winding component already encloses its own zero; with several,
    their zeros must coincide, so each corner amplitude minimum must also
    sit below ``REL_ZERO`` times the median of that component's nonzero
    amplitudes (a slice cut to an aperture is mostly exact zeros), and none
    passes for a component that is zero everywhere.

    Only the joint amplitude, its median and the first component's
    windings cost a whole slice; the rest reads two gathers. The rings
    around the low nodes give the ring test (on amplitudes, first at the
    +x neighbour), then the ring windings with their ambiguity test and
    the confidences; the 2x2 corner blocks of the
    plaquettes where the first component winds give the later ones'
    windings, the floor and ``REL_ZERO`` tests and the confidences.
    """
    nx, ny = comps[0].shape
    if nx < 2 or ny < 2:
        raise ValueError("slice must be at least 2x2 nodes")
    amps = [np.abs(c) for c in comps]
    amp = amps[0] if len(amps) == 1 else np.hypot(*amps)
    floor = TOL_AMP * float(np.median(amp))

    low = np.logical_and.reduce([a <= floor for a in amps])
    # a low node with its +x neighbour at the floor fails the ring test; drops aperture zeros
    node = np.add(np.nonzero(low[1:-1, 1:-1] & (amps[0][2:, 1:-1] > floor)), 1)
    ring = node[:, None] + _RING.T[:, :, None]  # (2, 9, nodes): (i, j) of each closed ring
    clear = (amps[0][tuple(ring)] > floor).all(axis=0)  # the on-node zeros
    (i, j), ring = node[:, clear], ring[:, :, clear]
    low[i, j] = False
    winding, ambiguous = _windings(comps[0][tuple(ring)])
    # an ambiguous ring is too coarse for its core, so its plaquettes report it
    first = _plaquette_windings(comps[0])
    first[i[~ambiguous, None] - (1, 1, 0, 0), j[~ambiguous, None] - (1, 0, 1, 0)] = 0
    on = ~ambiguous & (winding != 0)

    ci, cj = np.nonzero(first != 0)  # a bool mask scans faster than int64
    corner = (ci + [[[0]], [[1]]], cj + [[0], [1]])  # (2, 2, cells): reduce along the cells
    keep = ~low[corner].any(axis=(0, 1))
    for c in comps[1:]:
        keep &= _plaquette_windings(c[corner])[0, 0] != 0
    if len(amps) > 1 and keep.any():  # the medians only when a candidate is left
        for a in amps:
            nonzero = a[a > 0]  # a fresh copy
            m = float(np.median(nonzero, overwrite_input=True)) if nonzero.size else -math.inf
            keep &= a[corner].min(axis=(0, 1)) <= REL_ZERO * m

    x, y, z = grid.node_position(i[on], j[on], z_slice)
    px, py, _ = _plaquette_centroid(grid, ci[keep], cj[keep], z_slice)
    columns = (np.concatenate(pair).tolist() for pair in (
        (x, px), (y, py), (winding[on], first[ci, cj][keep]),
        (amp[tuple(ring)].min(axis=0)[on], amp[corner].min(axis=(0, 1))[keep])))
    return sorted((DefectRecord(kind, (x, y, z), Fraction(n), c)
                   for x, y, n, c in zip(*columns)), key=lambda r: r.position)


def find_dislocations(field: ComplexScalarField, z_slice: int) -> list[DefectRecord]:
    """Scan one z slice for phase singularities of a scalar wave (see ``_find_zeros``)."""
    return _find_zeros([field.slice_z(z_slice)], field.grid, z_slice, "dislocation")


def find_disclinations(field: PotentialField, z_slice: int) -> list[DefectRecord]:
    """Scan one z slice for simultaneous zeros of Ax and Ay (see ``_find_zeros``)."""
    return _find_zeros([field.ax[:, :, z_slice], field.ay[:, :, z_slice]],
                       field.grid, z_slice, "disclination")


def _circle_azimuths(model, thetas, z, t) -> np.ndarray:
    """Azimuth of the real transverse vector on the unit circle at angles thetas."""
    x = np.cos(thetas)
    y = np.sin(thetas)
    ax, ay, _, _ = model.components(x, y, z, t)
    return np.arctan2(np.real(ay), np.real(ax))


def _alignment_objective(model, thetas, beta_target, z_ref, t_ref, alphas):
    """Mean squared wrapped mismatch of the rotated reference pattern, per alpha."""
    th = thetas[None, :] - alphas[:, None]
    beta_ref = _circle_azimuths(model, th, z_ref, t_ref)
    d = wrap_angle(beta_ref + alphas[:, None] - beta_target[None, :])
    return np.mean(d * d, axis=1)


def _fit_rotation_step(model, thetas, beta_target, z_ref, t_ref):
    """Best rigid-rotation angle mapping the reference pattern onto the target.

    Rotating a pattern by alpha multiplies the Fourier coefficient c_n of
    exp(i*beta(theta)) by exp(i*(1-n)*alpha), so the phase ratio of the
    dominant mode n != 1 of the two patterns fixes alpha up to the |1-n|
    candidates (arg(c'_n/c_n) + 2*pi*m)/(1-n). Each candidate is scored by
    the mismatch of the rotated reference; the least residual wins, and
    ties (a pattern with an exact |1-n|-fold symmetry) go to the candidate
    closest to zero, which is unambiguous while per-step angles stay inside
    (-pi/|1-n|, pi/|1-n|). The n = 1 mode alone is invariant under
    rotation, so a pattern with no other mode above FIT_RESIDUAL_TOL raises
    RigidRotationFitError: its angle is unobservable.
    """
    c_ref = np.fft.fft(np.exp(1j * _circle_azimuths(model, thetas, z_ref, t_ref)))
    c_tgt = np.fft.fft(np.exp(1j * beta_target))
    modes = np.rint(np.fft.fftfreq(N_THETA) * N_THETA).astype(int)
    weight = np.where(modes == 1, 0.0, np.abs(c_ref)) / N_THETA
    i = int(np.argmax(weight))
    if weight[i] <= FIT_RESIDUAL_TOL:
        raise RigidRotationFitError(
            "pattern has only the n = 1 mode; its rotation is unobservable")
    turns = 1 - int(modes[i])
    phase = float(np.angle(c_tgt[i] * np.conj(c_ref[i])))
    alphas = wrap_angle((phase + TWO_PI * np.arange(abs(turns))) / turns)
    g = _alignment_objective(model, thetas, beta_target, z_ref, t_ref, alphas)
    tied = np.flatnonzero(g <= g.min() + 1e-12)
    best = tied[np.argmin(np.abs(alphas[tied]))]
    return float(alphas[best]), math.sqrt(float(g[best]))


def _rotation_rate(model, s0, s1, rate, at, var):
    """(Mean rotation rate, worst substep residual) of the azimuth pattern from s0 to s1.

    ``at(s)`` gives the (z, t) of station s and ``rate`` the pattern's
    angular rate per unit s (omega or k). The interval is split into
    substeps small enough that each alignment angle stays well inside a
    quarter turn, and the per-step angles are accumulated, so rotations
    exceeding a half turn (e.g. over a full period) are tracked
    unambiguously. Each pattern is sampled at N_THETA angles.
    """
    if s1 < s0:
        raise ValueError(f"{var}1 must not precede {var}0")
    if s1 == s0:
        return 0.0, 0.0
    m = max(1, math.ceil(abs(rate) * (s1 - s0) / 2.0 / STEP_TARGET))
    stations = np.linspace(s0, s1, m + 1)
    thetas = TWO_PI * np.arange(N_THETA) / N_THETA
    total = 0.0
    worst = 0.0
    for a, b in zip(stations[:-1], stations[1:]):
        beta_target = _circle_azimuths(model, thetas, *at(b))
        alpha, res = _fit_rotation_step(model, thetas, beta_target, *at(a))
        if res > FIT_RESIDUAL_TOL:
            raise RigidRotationFitError(
                f"alignment residual {res:.3e} exceeds {FIT_RESIDUAL_TOL:.0e}"
            )
        total += alpha
        worst = max(worst, res)
    return total / (s1 - s0), worst


def pattern_rotation_rate(model, t0: float, t1: float) -> float:
    """Angular velocity of the rigid rotation of the z = 0 azimuth pattern."""
    return _rotation_rate(model, t0, t1, model.params.omega, lambda t: (0.0, t), "t")[0]


def axial_twist_per_length(model, z0: float, z1: float, t: float) -> float:
    """Signed rotation rate of the azimuth pattern per unit z at fixed time."""
    return _rotation_rate(model, z0, z1, model.params.k, lambda z: (z, t), "z")[0]


def tifold_index(model, full_output: bool = False):
    """Pattern rotation over one period divided by omega, snapped to p/q (q <= 4)."""
    omega = model.params.omega
    if omega == 0:
        raise UndefinedIndexError("index undefined for omega = 0")
    period = TWO_PI / omega
    rate, res = _rotation_rate(model, 0.0, period, omega, lambda t: (0.0, t), "t")
    raw = rate / omega
    snapped = Fraction(raw).limit_denominator(4)
    if abs(raw - float(snapped)) <= 1e-9:
        return (snapped, res) if full_output else snapped
    raise NonRationalIndexError(raw)
