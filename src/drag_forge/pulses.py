"""Envelope synthesis and the family of leakage-correcting control sets.

Every control set built here has the parametric structure

    omega_x(t) = a1 * G(t) + a3 * G(t)**3 / delta2**2
    omega_y(t) = b1 * dG/dt / delta2
    delta(t)   = c2 * G(t)**2 / delta2 + c0

with G the truncated Gaussian envelope, which keeps all first derivatives
and the accumulated detuning phase in closed form.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

import numpy as np

from .model import SystemSpec, Topology

__all__ = [
    "GaussianParams",
    "GaussianEnvelope",
    "DragVariant",
    "Ansatz",
    "ControlSet",
    "build_controls",
    "controls_for",
    "effective_lambda",
    "phase_ramp",
    "first_order_coefficients",
]

_SQRT2PI = math.sqrt(2.0 * math.pi)
_NOT_TG_FACTOR = 4.0  # gate time of the NOT preset in units of sigma
# numpy has no erf; the elementwise math.erf keeps scipy out of the runtime
_erf = np.vectorize(math.erf, otypes=[float])


@dataclass(frozen=True)
class GaussianParams:
    """Area (radians), standard deviation and gate time of one envelope."""

    area: float
    sigma: float
    t_g: float

    def __post_init__(self):
        if not (self.t_g > 0 and self.sigma > 0):
            raise ValueError("sigma and t_g must be positive")
        if not math.isfinite(self.area):
            raise ValueError("area must be finite")

    @classmethod
    def for_not(cls, sigma: float) -> "GaussianParams":
        """NOT-gate preset: area pi, gate time 4 sigma."""
        return cls(math.pi, sigma, _NOT_TG_FACTOR * sigma)


class GaussianEnvelope:
    """Pedestal-subtracted Gaussian normalized so its integral equals the area.

    G(t) = A * (exp(-(t - t_g/2)^2 / 2 sigma^2) - p) / Z with
    Z = sqrt(2 pi sigma^2) erf(t_g / sqrt(8) sigma) - t_g * p and
    p the raw Gaussian value at the endpoints, so G(0) = G(t_g) = 0
    and the normalization makes int_0^t_g G dt = A exactly.
    """

    def __init__(self, params: GaussianParams):
        self.params = params
        self._mid = params.t_g / 2.0
        self._s2 = params.sigma ** 2
        self._pedestal = math.exp(-params.t_g ** 2 / (8.0 * self._s2))
        z = (_SQRT2PI * params.sigma
             * math.erf(params.t_g / (math.sqrt(8.0) * params.sigma))
             - params.t_g * self._pedestal)
        self._scale = params.area / z

    def _check(self, t):
        t = np.asarray(t, dtype=float)
        tol = 1e-9 * self.params.t_g
        if np.any(t < -tol) or np.any(t > self.params.t_g + tol):
            bad = t[(t < -tol) | (t > self.params.t_g + tol)]
            raise ValueError(
                f"t={float(np.ravel(bad)[0])} outside [0, {self.params.t_g}]")
        return t

    def _gauss(self, t):
        return np.exp(-((t - self._mid) ** 2) / (2.0 * self._s2))

    def value(self, t):
        t = self._check(t)
        return self._scale * (self._gauss(t) - self._pedestal)

    def d1(self, t):
        t = self._check(t)
        return self._scale * (-(t - self._mid) / self._s2) * self._gauss(t)

    def int_value_squared(self, t):
        """Integral of the squared envelope from 0 to t (closed form)."""
        t = self._check(t)
        s = self.params.sigma
        ig = s * math.sqrt(math.pi / 2.0) * (
            _erf((t - self._mid) / (math.sqrt(2.0) * s))
            - math.erf(-self._mid / (math.sqrt(2.0) * s)))
        ig2 = s * math.sqrt(math.pi) / 2.0 * (
            _erf((t - self._mid) / s) - math.erf(-self._mid / s))
        p = self._pedestal
        return self._scale ** 2 * (ig2 - 2.0 * p * ig + p * p * t)


class DragVariant(str, Enum):
    GAUSSIAN0 = "gaussian0"
    Z_ONLY1 = "z_only1"
    Y_ONLY1 = "y_only1"
    OPTIMAL1 = "optimal1"
    DRAG1 = "drag1"
    Z_ONLY2 = "z_only2"
    Y_ONLY2 = "y_only2"
    DRAG2 = "drag2"


# second-order variants share the first-order fields of their base variant
_SECOND_ORDER_BASE = {
    DragVariant.Z_ONLY2: DragVariant.Z_ONLY1,
    DragVariant.Y_ONLY2: DragVariant.Y_ONLY1,
    DragVariant.DRAG2: DragVariant.DRAG1,
}


@dataclass(frozen=True)
class Ansatz:
    """Free-coefficient control family: alpha*G, -beta*dG/delta2, gamma*G^2/delta2 + delta0."""

    alpha: float
    beta: float
    gamma: float
    delta0: float = 0.0

    def __post_init__(self):
        for v in (self.alpha, self.beta, self.gamma, self.delta0):
            if not math.isfinite(v):
                raise ValueError("ansatz parameters must be finite")

    @property
    def label(self) -> str:
        return (f"ansatz({self.alpha!r},{self.beta!r},"
                f"{self.gamma!r},{self.delta0!r})")


@dataclass(frozen=True)
class ControlSet:
    """Evaluable control waveforms on [0, t_g].

    ``phi`` is the accumulated detuning angle int_0^t delta(s) ds in closed
    form.  Every set built by this module carries it (including the output
    of :func:`phase_ramp`, whose phi is zero); :func:`phase_ramp` consumes it
    and rejects a set without one.

    ``mirror`` marks omega_x, delta even and omega_y odd about t_g/2, so the
    propagator builds half the steps; only this module's builders set it.
    """

    omega_x: Callable
    omega_y: Callable
    delta: Callable
    t_g: float
    variant: str
    params: dict = field(default_factory=dict)
    phi: Callable | None = None
    mirror: bool = False


def _assemble(env: GaussianEnvelope, *, a1: float, a3: float, b1: float,
              c2: float, c0: float, delta2: float, variant: str,
              extra: dict | None = None) -> ControlSet:
    d2sq = delta2 * delta2

    def omega_x(t):
        g = env.value(t)
        return a1 * g + (a3 / d2sq) * g ** 3

    def omega_y(t):
        return (b1 / delta2) * env.d1(t)

    def delta(t):
        g = env.value(t)
        return (c2 / delta2) * g * g + c0

    def phi(t):
        return (c2 / delta2) * env.int_value_squared(t) + c0 * np.asarray(t, float)

    record = {
        "area": env.params.area, "sigma": env.params.sigma,
        "t_g": env.params.t_g, "a1": a1, "a3": a3, "b1": b1,
        "c2": c2, "c0": c0, "delta2": delta2,
    }
    if extra:
        record.update(extra)
    # G is even about t_g/2 and dG/dt odd
    return ControlSet(omega_x, omega_y, delta, env.params.t_g, variant,
                      record, phi, mirror=True)


def first_order_coefficients(spec: SystemSpec, variant: DragVariant
                             ) -> tuple[float, float]:
    """(b1, c2) of a named variant on the given system.

    b1 scales the derivative quadrature (omega_y = b1 * dG / delta2) and c2
    the quadratic detuning (delta = c2 * G^2 / delta2).  Second-order
    variants return their base first-order fields; the cubic in-phase
    correction is handled separately.

    The ladder closed forms follow the single-leakage derivation; star
    systems substitute the effective single-channel weight lambda-tilde
    (see :func:`effective_lambda`), and intermediate systems combine the
    upper and lower channels:

        S      = lam1^2 - (delta2/delta_-1) * lam_-1^2      (Stark bracket)
        Lam    = sqrt(lam1^2 + (delta2/delta_-1)^2 * lam_-1^2)
        Z-only : b1 = 0,      c2 = S/4
        Y-only : b1 = -S/4,   c2 = 0
        optimal: b1 = -Lam/2, c2 = (S - 2*Lam)/4

    which reduce to the ladder forms when lam_-1 = 0.
    """
    base = _SECOND_ORDER_BASE.get(variant, variant)
    if spec.topology is Topology.LADDER:
        lam1 = spec.lam[1]
        stark, big = lam1 * lam1, lam1
    elif spec.topology is Topology.STAR:
        lt = effective_lambda(spec)
        stark, big = lt * lt, lt
    else:
        lam1 = spec.lam[1]
        lam_m1 = spec.lam[-1]
        r = spec.delta2 / spec.delta[-1]
        stark = lam1 * lam1 - r * lam_m1 * lam_m1
        big = math.sqrt(lam1 * lam1 + r * r * lam_m1 * lam_m1)

    if base is DragVariant.GAUSSIAN0:
        return 0.0, 0.0
    if base is DragVariant.Z_ONLY1:
        return 0.0, stark / 4.0
    if base is DragVariant.Y_ONLY1:
        return -stark / 4.0, 0.0
    if base is DragVariant.OPTIMAL1:
        return -big / 2.0, (stark - 2.0 * big) / 4.0
    if base is DragVariant.DRAG1:
        return -1.0, (stark - 4.0) / 4.0
    raise ValueError(f"no first-order coefficients for {variant}")


def _cubic_coefficient(variant: DragVariant, lam1: float) -> float:
    if variant is DragVariant.Z_ONLY2:
        return lam1 ** 2 / 8.0
    if variant is DragVariant.Y_ONLY2:
        return -lam1 ** 2 * (lam1 ** 2 - 4.0) / 32.0
    if variant is DragVariant.DRAG2:
        return (lam1 ** 2 - 4.0) / 8.0
    return 0.0


_MULTI_LEVEL_VARIANTS = (DragVariant.Z_ONLY1, DragVariant.Y_ONLY1,
                         DragVariant.OPTIMAL1, DragVariant.GAUSSIAN0)


def controls_for(spec: SystemSpec, variant, params: GaussianParams) -> ControlSet:
    """Control set of a named variant, or of the free ansatz, on any topology.

    Ladder systems take every variant.  Star and intermediate systems take
    the first-order family only; a star's waveforms are exactly the ladder
    ones with lam1 -> lambda-tilde, since all its channels collapse onto one
    effective transition of that weight.
    """
    env = GaussianEnvelope(params)
    if isinstance(variant, Ansatz):
        return _assemble(env, a1=variant.alpha, a3=0.0, b1=-variant.beta,
                         c2=variant.gamma, c0=variant.delta0,
                         delta2=spec.delta2, variant=variant.label,
                         extra={"alpha": variant.alpha, "beta": variant.beta,
                                "gamma": variant.gamma, "delta0": variant.delta0})
    variant = DragVariant(variant)
    if spec.topology is Topology.LADDER:
        extra = {"lambda1": spec.lam[1]}
    elif variant not in _MULTI_LEVEL_VARIANTS:
        raise ValueError(
            f"{variant.value} is not available for {spec.topology.value} "
            "systems (only gaussian0, z_only1, y_only1, optimal1)")
    elif spec.topology is Topology.STAR:
        extra = {"lambda_tilde": effective_lambda(spec)}
    else:
        extra = {"lambda1": spec.lam[1], "lambda_m1": spec.lam[-1]}
    b1, c2 = first_order_coefficients(spec, variant)
    a3 = _cubic_coefficient(variant, spec.lam[1])
    return _assemble(env, a1=1.0, a3=a3, b1=b1, c2=c2, c0=0.0,
                     delta2=spec.delta2, variant=variant.value, extra=extra)


build_controls = controls_for


def effective_lambda(spec: SystemSpec) -> float:
    """Single-channel weight of a star system:
    sqrt(sum_k delta2^2 * lam_{k-1}^2 / delta_k^2)."""
    if spec.topology is not Topology.STAR:
        raise ValueError("effective lambda is defined for star systems")
    d2 = spec.delta2
    total = 0.0
    for j in range(2, spec.d):
        total += (d2 * spec.lam[j - 1] / spec.delta[j]) ** 2
    return math.sqrt(total)


def phase_ramp(cs: ControlSet) -> ControlSet:
    """Fold the detuning into a time-dependent drive phase.

    Returns controls with delta identically zero and

        omega_x'(t) = omega_x cos(Phi) - omega_y sin(Phi)
        omega_y'(t) = omega_y cos(Phi) + omega_x sin(Phi)

    where Phi(t) = int_0^t delta(s) ds is the set's closed-form ``phi``
    (a set without one raises ValueError).  The rotation direction is fixed by
    the sign convention delta(t) = omega(t) - omega_d of the simulated
    Hamiltonian: the ramped drive on a fixed-frequency system reproduces
    the detuned evolution up to the final frame rotation,

        exp(-i Phi(t_g) h_z) U_ramped = U_detuned.
    """
    if cs.phi is None:
        raise ValueError(f"{cs.variant}: phase_ramp needs the closed-form phi")

    def omega_x(t):
        p = cs.phi(t)
        return cs.omega_x(t) * np.cos(p) - cs.omega_y(t) * np.sin(p)

    def omega_y(t):
        p = cs.phi(t)
        return cs.omega_y(t) * np.cos(p) + cs.omega_x(t) * np.sin(p)

    zero = lambda t: np.zeros_like(np.asarray(t, dtype=float))
    return ControlSet(omega_x, omega_y, zero, cs.t_g, cs.variant + "+ramp",
                      dict(cs.params, total_phase=float(cs.phi(cs.t_g))), zero)
