"""Envelope synthesis and the family of leakage-correcting control sets.

Every control set built here has the parametric structure

    omega_x(t) = a1 * G(t) + a3 * G(t)**3 / delta2**2
    omega_y(t) = b1 * dG/dt / delta2
    delta(t)   = c2 * G(t)**2 / delta2 + c0

with G the truncated Gaussian envelope, which keeps all first derivatives
and the accumulated detuning phase in closed form.  ``GaussianParams`` is
the envelope: a frozen record that evaluates G, its derivatives and int G^2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .model import SystemSpec, Topology

__all__ = [
    "GaussianParams",
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
    """Area (radians), standard deviation and gate time of one envelope.

    The envelope is the pedestal-subtracted Gaussian normalized so its
    integral equals the area: G(t) = A * (exp(-(t - t_g/2)^2 / 2 sigma^2)
    - p) / Z with Z = sqrt(2 pi sigma^2) erf(t_g / sqrt(8) sigma) - t_g * p
    and p the raw Gaussian value at the endpoints, so G(0) = G(t_g) = 0
    and the normalization makes int_0^t_g G dt = A exactly.
    """

    area: float
    sigma: float
    t_g: float

    def __post_init__(self):
        for name in ("sigma", "t_g"):
            v = getattr(self, name)
            if not (v > 0 and math.isfinite(v)):
                raise ValueError(
                    f"{name} must be positive and finite, got {v!r}")
        if not math.isfinite(self.area):
            raise ValueError("area must be finite")

    @classmethod
    def for_not(cls, sigma: float) -> "GaussianParams":
        """NOT-gate preset: area pi, gate time 4 sigma."""
        return cls(math.pi, sigma, _NOT_TG_FACTOR * sigma)

    def _setup(self, t):
        """(t as an array checked to lie in [0, t_g], pedestal p, A/Z)."""
        t = np.asarray(t, dtype=float)
        tol = 1e-9 * self.t_g
        bad = (t < -tol) | (t > self.t_g + tol)
        if bad.any():
            raise ValueError(f"t={float(t[bad][0])} outside [0, {self.t_g}]")
        pedestal = math.exp(-self.t_g ** 2 / (8.0 * self.sigma ** 2))
        z = (_SQRT2PI * self.sigma
             * math.erf(self.t_g / (math.sqrt(8.0) * self.sigma))
             - self.t_g * pedestal)
        return t, pedestal, self.area / z

    def derivatives(self, t, n):
        """(G, dG/dt, ..., d^nG/dt^n) from one range check and one exponential.

        For k >= 1, d^kG/dt^k = scale * P_k * gauss, with P_k from the
        Hermite recurrence in u = t - t_g/2: P_0 = 1, P_1 = -u/sigma^2 and
        P_(k+1) = -(u P_k + k P_(k-1))/sigma^2.
        """
        t, pedestal, scale = self._setup(t)
        s2 = self.sigma ** 2
        u = t - self.t_g / 2.0
        gauss = np.exp(-(u ** 2) / (2.0 * s2))
        out = [scale * (gauss - pedestal)]
        p_prev, p = 0.0, 1.0  # P_(k-1), P_k at k = 0, with P_(-1) = 0
        for k in range(n):
            p_prev, p = p, -(u * p + k * p_prev) / s2
            out.append(scale * p * gauss)
        return tuple(out)

    def int_value_squared(self, t):
        """Integral of the squared envelope from 0 to t (closed form)."""
        t, p, scale = self._setup(t)
        s, mid = self.sigma, self.t_g / 2.0
        ig = s * math.sqrt(math.pi / 2.0) * (
            _erf((t - mid) / (math.sqrt(2.0) * s))
            - math.erf(-mid / (math.sqrt(2.0) * s)))
        ig2 = s * math.sqrt(math.pi) / 2.0 * (
            _erf((t - mid) / s) - math.erf(-mid / s))
        return scale ** 2 * (ig2 - 2.0 * p * ig + p * p * t)


class DragVariant(str, Enum):
    GAUSSIAN0 = "gaussian0"
    Z_ONLY1 = "z_only1"
    Y_ONLY1 = "y_only1"
    OPTIMAL1 = "optimal1"
    DRAG1 = "drag1"
    Z_ONLY2 = "z_only2"
    Y_ONLY2 = "y_only2"
    DRAG2 = "drag2"


# b1 of each corrected family from the (S, Lam) of _table_row, whose rows
# are c2 = S/4 + b1 and, at second order, a3 = Lam^2/8 - b1^2/2.
_FAMILY_B1 = {
    "z_only": lambda s, lam: 0.0,
    "y_only": lambda s, lam: -s / 4.0,
    "optimal": lambda s, lam: -lam / 2.0,
    "drag": lambda s, lam: -1.0,
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


@dataclass(frozen=True)
class ControlSet:
    """One pulse of the family above as plain data, which pickles and
    compares by value: its envelope, delta2, a1, a3, b1, c2, c0 and ramp
    flag, so two sets are equal exactly when they are the same pulse.

    :meth:`channels` gives the three waveforms on [0, t_g] from one envelope
    evaluation.  A set with ``ramp`` (see :func:`phase_ramp`) has delta = 0
    and its drive rotated by the unramped set's ``phi``, once per sample.
    ``mirror`` (``not ramp``) marks omega_x, delta even and omega_y odd
    about t_g/2 (G is even, dG/dt odd), so the propagator builds half the
    steps; the ramp's phase breaks that symmetry.
    """

    pulse: GaussianParams
    delta2: float
    a1: float
    a3: float
    b1: float
    c2: float
    c0: float
    ramp: bool = False

    @property
    def t_g(self) -> float:
        return self.pulse.t_g

    @property
    def mirror(self) -> bool:
        return not self.ramp

    def channels(self, t):
        """(omega_x, omega_y, delta) at times t."""
        g, dg = self.pulse.derivatives(t, 1)
        d2 = self.delta2
        ox = self.a1 * g + (self.a3 / (d2 * d2)) * g ** 3
        oy = (self.b1 / d2) * dg
        if not self.ramp:
            return ox, oy, (self.c2 / d2) * g * g + self.c0
        p = replace(self, ramp=False).phi(t)
        cos, sin = np.cos(p), np.sin(p)
        return ox * cos - oy * sin, oy * cos + ox * sin, np.zeros_like(g)

    def omega_x(self, t):
        return self.channels(t)[0]

    def omega_y(self, t):
        return self.channels(t)[1]

    def delta(self, t):
        return self.channels(t)[2]

    def phi(self, t):
        """Phi(t) = int_0^t delta(s) ds in closed form."""
        t = np.asarray(t, dtype=float)
        if self.ramp:
            return np.zeros_like(t)
        return ((self.c2 / self.delta2)
                * self.pulse.int_value_squared(t)
                + self.c0 * t)


def _table_row(spec: SystemSpec, variant: DragVariant
               ) -> tuple[float, float, float]:
    """(b1, c2, a3) of a named variant on the given system.

    b1 scales the derivative quadrature (omega_y = b1 * dG / delta2), c2
    the quadratic detuning (delta = c2 * G^2 / delta2) and a3 the cubic
    in-phase term.  gaussian0 is uncorrected; every other name is a family
    (b1 = 0 z_only, -S/4 y_only, -Lam/2 optimal, -1 drag) and an order, on
    c2 = S/4 + b1 and, at order 2, a3 = Lam^2/8 - b1^2/2 (0 at order 1).
    S = lam1^2 and Lam = lam1 on a ladder, with lam1 -> lambda-tilde on a
    star (:func:`effective_lambda`); an intermediate system has
    S = lam1^2 - r lam_-1^2, Lam = sqrt(lam1^2 + r^2 lam_-1^2) and
    r = delta2/delta_-1.
    """
    if spec.topology is Topology.STAR:
        lam1 = effective_lambda(spec)
    else:
        lam1 = spec.lam[1]
    stark, big = lam1 * lam1, lam1
    if spec.topology is Topology.INTERMEDIATE:
        lam_m1 = spec.lam[-1]
        r = spec.delta2 / spec.delta[-1]
        stark = lam1 * lam1 - r * lam_m1 * lam_m1
        big = math.sqrt(lam1 * lam1 + r * r * lam_m1 * lam_m1)
    family, order = variant.value[:-1], int(variant.value[-1])
    if order == 0:
        return 0.0, 0.0, 0.0
    b1 = _FAMILY_B1[family](stark, big)
    # Lam^2 is big ** 2, not stark: on some ladders they differ in the last bit
    a3 = big ** 2 / 8.0 - b1 * b1 / 2.0 if order == 2 else 0.0
    return b1, stark / 4.0 + b1, a3


def first_order_coefficients(spec: SystemSpec, variant: DragVariant
                             ) -> tuple[float, float]:
    """(b1, c2) of a named variant: its family's b1 and c2 = S/4 + b1, or
    gaussian0's (0, 0) (see :func:`_table_row`)."""
    return _table_row(spec, DragVariant(variant))[:2]


def controls_for(spec: SystemSpec, variant, params: GaussianParams) -> ControlSet:
    """Control set of a named variant, or of the free ansatz, on any topology.

    Every topology takes every variant: a1 = 1, c0 = 0 and the row of
    :func:`_table_row`, its family's b1 on c2 = S/4 + b1 and, at order 2,
    a3 = Lam^2/8 - b1^2/2.  A star's waveforms are exactly the ladder ones
    with lam1 -> lambda-tilde, since all its channels collapse onto one
    effective transition of that weight.
    """
    if isinstance(variant, Ansatz):
        return ControlSet(params, spec.delta2, a1=variant.alpha, a3=0.0,
                          b1=-variant.beta, c2=variant.gamma,
                          c0=variant.delta0)
    b1, c2, a3 = _table_row(spec, DragVariant(variant))
    return ControlSet(params, spec.delta2, a1=1.0, a3=a3, b1=b1, c2=c2, c0=0.0)


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
    """The set with its detuning folded into a time-dependent drive phase.

    Returns ``cs`` with ``ramp`` set, whose channels are delta = 0 and

        omega_x'(t) = omega_x cos(Phi) - omega_y sin(Phi)
        omega_y'(t) = omega_y cos(Phi) + omega_x sin(Phi)

    where Phi(t) = int_0^t delta(s) ds is the set's closed-form ``phi``.  The
    rotation direction is fixed by the sign convention delta(t) = omega(t) -
    omega_d of the simulated Hamiltonian: the ramped drive on a
    fixed-frequency system reproduces the detuned evolution up to the final
    frame rotation,

        exp(-i Phi(t_g) h_z) U_ramped = U_detuned.
    """
    return replace(cs, ramp=True)
