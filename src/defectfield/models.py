"""Closed-form wave-field generators with exact analytic derivatives.

Two families are covered: complex scalar waves carrying a screw
dislocation (an amplitude zero with quantized phase winding), and
four-component potentials (Ax, Ay, Az, Phi) including the pure screw
disclination, whose transverse vector direction is indeterminate on the
propagation axis. Every model evaluates at arbitrary space-time points
and broadcasts over numpy arrays.

Every shipped model varies in time as S(x, y, z) * exp(-i*omega*t) and
declares ``omega`` (0 for the static ones) and a wave speed ``c`` (1 for
scalar models); ``fields.harmonic_factor`` turns omega into every time
derivative. The base classes declare ``c`` but no ``omega``, so a model
that does not declare one has no time derivative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import SpaceTimePoint, UnsupportedModelError, harmonic_factor


class IndeterminateAzimuthError(ValueError):
    """The real transverse vector vanishes, so its direction is undefined."""


@dataclass(frozen=True)
class WaveParams:
    """Wavenumber, frequency, speed and amplitudes of a propagating wave.

    ``a`` is the transverse amplitude coefficient and defaults to ``k``,
    reproducing the literal disclination formula while allowing the
    amplitude to be scaled independently of the wavenumber. ``az`` scales
    the axial component. Construction does not force ``omega = k*c``;
    ``with_dispersion`` does.
    """

    k: float
    omega: float
    c: float = 1.0
    a: float | None = None
    az: complex = 1.0 + 0.0j

    def __post_init__(self):
        if not (math.isfinite(self.k) and self.k > 0):
            raise ValueError("k must be positive and finite")
        if not (math.isfinite(self.omega) and self.omega >= 0):
            raise ValueError("omega must be nonnegative and finite")
        if not (math.isfinite(self.c) and self.c > 0):
            raise ValueError("c must be positive and finite")
        object.__setattr__(self, "a", float(self.k if self.a is None else self.a))
        object.__setattr__(self, "az", complex(self.az))

    @classmethod
    def with_dispersion(cls, k: float, c: float = 1.0, a: float | None = None,
                        az: complex = 1.0 + 0.0j) -> "WaveParams":
        return cls(k=k, omega=k * c, c=c, a=a, az=az)


def phase_chi(params: WaveParams, point: SpaceTimePoint) -> float:
    """Combined phase theta + k*z - omega*t, not reduced modulo 2*pi."""
    return point.theta + params.k * point.z - params.omega * point.t


def azimuth_beta(ax, ay):
    """Direction angle in (-pi, pi] of the real transverse vector (Re Ax, Re Ay)."""
    rx = np.real(ax)
    ry = np.real(ay)
    if np.any((rx == 0) & (ry == 0)):
        raise IndeterminateAzimuthError("real transverse vector is zero")
    b = np.arctan2(ry, rx)
    b = np.where(b == -np.pi, np.pi, b)
    return float(b) if np.isscalar(ax) or np.ndim(ax) == 0 else b


class ScalarModel:
    """Base for complex scalar wave models S(x, y, z) * exp(-i*omega*t).

    A subclass supplies ``spatial``, its ``omega`` and, when it has one, an
    analytic ``spatial_gradient``. ``components`` is the 1-tuple (psi,), as
    a potential's is (Ax, Ay, Az, Phi). Its wave speed ``c`` is 1.
    """

    c: float = 1.0

    def spatial(self, x, y, z):
        raise NotImplementedError

    def spatial_gradient(self, x, y, z):
        raise UnsupportedModelError(f"{type(self).__name__} has no analytic gradient")

    def value(self, x, y, z, t):
        return self.spatial(x, y, z) * np.exp(-1j * self.omega * t)

    def components(self, x, y, z, t):
        return (self.value(x, y, z, t),)


@dataclass(frozen=True)
class ConstantScalar(ScalarModel):
    """Spatially and temporally constant complex value."""

    value0: complex = 1.0 + 0.0j
    omega: float = 0.0

    def spatial(self, x, y, z):
        return self.value0 + 0.0 * np.asarray(x, dtype=np.complex128)

    def spatial_gradient(self, x, y, z):
        zero = 0.0 * np.asarray(x, dtype=np.complex128)
        return (zero, zero.copy(), zero.copy())


@dataclass(frozen=True)
class PlaneWaveModel(ScalarModel):
    """amplitude * exp(i*(kvec . r - omega*t)); kvec may be zero (pure oscillation)."""

    kvec: tuple[float, float, float] = (0.0, 0.0, 1.0)
    omega: float = 1.0
    amplitude: complex = 1.0 + 0.0j

    def __post_init__(self):
        object.__setattr__(self, "kvec", tuple(float(v) for v in self.kvec))
        object.__setattr__(self, "amplitude", complex(self.amplitude))

    def spatial(self, x, y, z):
        kx, ky, kz = self.kvec
        return self.amplitude * np.exp(1j * (kx * np.asarray(x) + ky * np.asarray(y) + kz * np.asarray(z)))

    def spatial_gradient(self, x, y, z):
        v = self.spatial(x, y, z)
        kx, ky, kz = self.kvec
        return (1j * kx * v, 1j * ky * v, 1j * kz * v)


@dataclass(frozen=True)
class DislocationModel(ScalarModel):
    """Screw dislocation: a * r^|n| * exp(i*(n*theta + k*z - omega*t)).

    The amplitude vanishes on the z axis and the phase winds n times
    around it. Written as a * w^|n| * exp(i*(k*z - omega*t)) with
    w = x + i*sign(n)*y, which also supplies an exact polynomial gradient.
    """

    n: int = 1
    k: float = 1.0
    omega: float = 1.0
    a: float = 1.0

    def __post_init__(self):
        if isinstance(self.n, bool) or self.n == 0 or self.n != int(self.n):
            raise ValueError("topological charge n must be a nonzero integer")
        if self.k < 0 or self.omega < 0:
            raise ValueError("k and omega must be nonnegative")
        object.__setattr__(self, "n", int(self.n))

    def _w(self, x, y):
        sign = 1.0 if self.n > 0 else -1.0
        return np.asarray(x, dtype=np.complex128) + 1j * sign * np.asarray(y)

    def spatial(self, x, y, z):
        w = self._w(x, y)
        return self.a * w ** abs(self.n) * np.exp(1j * self.k * np.asarray(z))

    def spatial_gradient(self, x, y, z):
        m = abs(self.n)
        w = self._w(x, y)
        axial = np.exp(1j * self.k * np.asarray(z))
        dw = self.a * m * w ** (m - 1) * axial
        sign = 1.0 if self.n > 0 else -1.0
        gz = 1j * self.k * self.a * w ** m * axial
        return (dw, 1j * sign * dw, gz)


@dataclass(frozen=True)
class ProductSineModel(ScalarModel):
    """a * sin(qx*x) * sin(qy*y) * exp(i*(kz*z - omega*t)): a separable standing pattern."""

    qx: float = 1.0
    qy: float = 1.0
    kz: float = 1.0
    omega: float = 1.0
    a: float = 1.0

    def spatial(self, x, y, z):
        return (
            self.a
            * np.sin(self.qx * np.asarray(x))
            * np.sin(self.qy * np.asarray(y))
            * np.exp(1j * self.kz * np.asarray(z))
        )

    def spatial_gradient(self, x, y, z):
        sx = np.sin(self.qx * np.asarray(x))
        sy = np.sin(self.qy * np.asarray(y))
        cx = np.cos(self.qx * np.asarray(x))
        cy = np.cos(self.qy * np.asarray(y))
        axial = np.exp(1j * self.kz * np.asarray(z))
        return (
            self.a * self.qx * cx * sy * axial,
            self.a * self.qy * sx * cy * axial,
            1j * self.kz * self.a * sx * sy * axial,
        )


class PotentialModel:
    """Base for four-component potential models (Ax, Ay, Az, Phi)."""

    c: float = 1.0

    def components(self, x, y, z, t):
        raise NotImplementedError


@dataclass(frozen=True)
class DisclinationModel(PotentialModel):
    """Pure screw disclination of the transverse potential.

    Ax = a*r*exp(i*chi), Ay = i*Ax with chi = theta + k*z - omega*t, so the
    transverse zero line is the z axis. The axial pair is the simplest one
    satisfying dAz/dz + (1/c) dPhi/dt = 0 identically:
    Az = az*exp(i*(k*z - omega*t)), Phi = (k*c/omega)*Az.
    """

    params: WaveParams

    @property
    def c(self) -> float:
        return self.params.c

    @property
    def omega(self) -> float:
        return self.params.omega

    def components(self, x, y, z, t):
        p = self.params
        if p.omega == 0:
            raise ValueError("disclination components undefined for omega = 0")
        w = np.asarray(x, dtype=np.complex128) + 1j * np.asarray(y)
        axial = np.exp(1j * (p.k * np.asarray(z) - p.omega * t))
        ax = p.a * w * axial
        az = p.az * axial
        phi = (p.k * p.c / p.omega) * az
        return (ax, 1j * ax, az, phi)


@dataclass(frozen=True)
class PureGaugeModel(PotentialModel):
    """Potentials A = grad(psi), Phi = -(1/c) dpsi/dt built from a scalar model.

    By construction the derived electric and magnetic fields vanish
    identically, and the gauge-condition residual of the pair equals the
    wave operator applied to psi.
    """

    psi: ScalarModel
    c: float = 1.0

    @property
    def omega(self) -> float:
        return self.psi.omega

    def __post_init__(self):
        if not (math.isfinite(self.c) and self.c > 0):
            raise ValueError("c must be positive and finite")
        try:
            self.components(0.0, 0.0, 0.0, 0.0)
        except (UnsupportedModelError, NotImplementedError) as exc:
            raise UnsupportedModelError(
                f"pure gauge requires an evaluable scalar model with an analytic "
                f"gradient and omega: {exc}") from exc

    def components(self, x, y, z, t):
        f = harmonic_factor(self.psi, 1)
        gx, gy, gz = self.psi.spatial_gradient(x, y, z)
        ph = np.exp(-1j * self.omega * t)
        phi = -(f * self.psi.value(x, y, z, t)) / self.c
        return (gx * ph, gy * ph, gz * ph, phi)


@dataclass(frozen=True)
class strip_scalar_potential(PotentialModel):
    """The model with its scalar potential forced to zero (a broken gauge pair)."""

    model: PotentialModel

    @property
    def c(self) -> float:
        return self.model.c

    @property
    def omega(self) -> float:
        return self.model.omega

    def components(self, x, y, z, t):
        ax, ay, az, _ = self.model.components(x, y, z, t)
        return (ax, ay, az, 0.0 * np.asarray(ax))


def _reals_from_json(v, count: int) -> tuple:
    if not isinstance(v, (list, tuple)) or len(v) != count:
        raise ValueError(f"expected a list of {count} numbers, got {v!r}")
    return tuple(float(x) for x in v)


def _complex_from_json(v) -> complex:
    if isinstance(v, (list, tuple)):
        return complex(*_reals_from_json(v, 2))
    return complex(v)


def model_from_descriptor(descriptor: dict):
    """Build a model from its JSON descriptor. Raises ValueError on bad input."""
    if not isinstance(descriptor, dict) or "model" not in descriptor:
        raise ValueError("descriptor must be an object with a 'model' key")
    kind = descriptor["model"]
    d = {k: v for k, v in descriptor.items() if k != "model"}
    try:
        if kind == "disclination":
            k = float(d.pop("k"))
            c = float(d.pop("c", 1.0))
            omega = float(d.pop("omega", k * c))
            a = d.pop("a", None)
            az = _complex_from_json(d.pop("az", 1.0))
            params = WaveParams(k=k, omega=omega, c=c,
                                a=None if a is None else float(a), az=az)
            model = DisclinationModel(params)
        elif kind == "dislocation":
            model = DislocationModel(n=d.pop("n"), k=float(d.pop("k", 1.0)),
                                     omega=float(d.pop("omega", 1.0)),
                                     a=float(d.pop("a", 1.0)))
        elif kind == "plane_wave":
            model = PlaneWaveModel(kvec=_reals_from_json(d.pop("kvec", [0.0, 0.0, 1.0]), 3),
                                   omega=float(d.pop("omega", 1.0)),
                                   amplitude=_complex_from_json(d.pop("amplitude", 1.0)))
        elif kind == "product_sine":
            model = ProductSineModel(qx=float(d.pop("qx", 1.0)), qy=float(d.pop("qy", 1.0)),
                                     kz=float(d.pop("kz", 1.0)), omega=float(d.pop("omega", 1.0)),
                                     a=float(d.pop("a", 1.0)))
        elif kind == "constant":
            model = ConstantScalar(value0=_complex_from_json(d.pop("value", 1.0)))
        elif kind == "pure_gauge":
            psi = model_from_descriptor(d.pop("psi"))
            if not isinstance(psi, ScalarModel):
                raise ValueError("pure_gauge psi must be a scalar model")
            model = PureGaugeModel(psi=psi, c=float(d.pop("c", 1.0)))
        else:
            raise ValueError(f"unknown model kind {kind!r}")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"invalid {kind!r} descriptor: {exc}") from exc
    if d:
        raise ValueError(f"unknown descriptor keys for {kind!r}: {sorted(d)}")
    return model
