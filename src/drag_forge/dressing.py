"""Resonator-dressed qubit parameters and drive-weight ratios.

When the anharmonic system is driven through an off-resonant resonator,
each transition picks up a Lamb shift chi = g^2/(omega' - omega_r) and the
relative drive weights lambda_j become strongly detuning-dependent instead
of the direct-drive sqrt(j).  These formulas are lowest order in
g/(omega' - omega_r); they lose meaning near a resonance, and experiments
should treat lambda_j as a fit parameter on top of them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["CavitySpec", "chi", "dressed_params", "lambda_dressed",
           "lambda_sno", "dispersive_ratio", "DISPERSIVE_LIMIT"]

# |g/(omega' - omega_r)| above this raises the validity flag
DISPERSIVE_LIMIT = 0.1


@dataclass(frozen=True)
class CavitySpec:
    """Bare system + resonator parameters (all rates in rad/time).

    ``delta_bare`` maps level -> anharmonicity with levels 0, 1 fixed to 0;
    ``g`` maps the upper level j of each transition (j-1, j) -> vacuum Rabi
    coupling, j = 1..d-1.
    """

    omega_r: float
    omega: float
    delta_bare: dict[int, float]
    g: dict[int, float]

    def __post_init__(self):
        levels = sorted(self.delta_bare)
        if levels != list(range(len(levels))):
            raise ValueError("delta_bare must cover levels 0..d-1")
        if self.delta_bare[0] != 0.0 or self.delta_bare[1] != 0.0:
            raise ValueError("delta_bare[0] and delta_bare[1] must be 0")
        if sorted(self.g) != list(range(1, len(levels))):
            raise ValueError("g must cover transitions 1..d-1")
        for j in self.g:
            if self.omega_prime(j) == self.omega_r:
                raise ValueError(
                    f"transition {j - 1}->{j} is resonant with the cavity")

    @property
    def d(self) -> int:
        return len(self.delta_bare)

    def omega_prime(self, j: int) -> float:
        """Bare frequency of the (j-1) -> j transition."""
        return self.omega + self.delta_bare[j] - self.delta_bare[j - 1]


def chi(cavity: CavitySpec, j: int) -> float:
    """Lamb shift of the (j-1) -> j transition, g^2/(omega' - omega_r)."""
    return cavity.g[j] ** 2 / (cavity.omega_prime(j) - cavity.omega_r)


def dressed_params(cavity: CavitySpec) -> tuple[float, dict[int, float]]:
    """Dressed qubit frequency and anharmonicities.

    omega_tilde = omega + chi_01 and
    delta_tilde_j = delta_j + chi_{j-1,j} - j*chi_01; the photon-number
    dependent (ac-Stark) term drops out for a resonator in vacuum.
    """
    chi01 = chi(cavity, 1)
    omega_tilde = cavity.omega + chi01
    delta_tilde = {0: 0.0}
    for j in range(1, cavity.d):
        delta_tilde[j] = cavity.delta_bare[j] + chi(cavity, j) - j * chi01
    return omega_tilde, delta_tilde


def lambda_dressed(cavity: CavitySpec, j: int) -> tuple[float, float]:
    """Drive weight of the (j-1) -> j transition and the drive rescaling.

    Returns (lambda_{j-1}, scale) where the effective drive seen by the
    system is scale * eps(t) with scale = g_01 / (omega'_01 - omega_r) and

        lambda_{j-1} = g_{j-1,j} (omega'_01 - omega_r)
                       / [g_01 (omega'_{j-1,j} - omega_r)].
    """
    det1 = cavity.omega_prime(1) - cavity.omega_r
    detj = cavity.omega_prime(j) - cavity.omega_r
    scale = cavity.g[1] / det1
    lam = cavity.g[j] * det1 / (cavity.g[1] * detj)
    return lam, scale


def lambda_sno(j: int, ratio: float) -> float:
    """Cavity-dressed weight in the standard-nonlinear-oscillator limit.

    lambda_{j-1} = sqrt(j) / (1 + (j-1) * ratio) with
    ratio = delta2 / (omega - omega_r); the direct-drive sqrt(j) is
    recovered at ratio = 0.  The pole at ratio = -1/(j-1) marks the
    resonance where the dispersive diagonalization breaks down.
    """
    if j < 1:
        raise ValueError("transition index j must be >= 1")
    denom = 1.0 + (j - 1) * ratio
    if abs(denom) < 1e-12:
        raise ZeroDivisionError(
            f"ratio {ratio} sits on the pole -1/{j - 1}; the "
            "dispersive diagonalization is invalid there")
    return math.sqrt(j) / denom


def dispersive_ratio(cavity: CavitySpec) -> float:
    """Largest |g/(omega' - omega_r)| over all transitions.

    Values above DISPERSIVE_LIMIT mean the perturbative dressing is not
    trustworthy.
    """
    return max(abs(cavity.g[j] / (cavity.omega_prime(j) - cavity.omega_r))
               for j in cavity.g)
