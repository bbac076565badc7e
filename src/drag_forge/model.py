"""System specifications and rotating-frame Hamiltonian generators.

Three leakage topologies are supported:

* ``ladder``       -- levels 0..d-1, each level coupled to its neighbours;
* ``intermediate`` -- qubit embedded mid-spectrum, levels -N..N, leakage
  both below level 0 and above level 1;
* ``star``         -- level 1 coupled to every level 2..d-1, level 0 only
  to level 1.

The rotating-frame Hamiltonian is assembled from four generator matrices,

    H(t) = h_drift + delta(t) * h_z + omega_x(t)/2 * h_x + omega_y(t)/2 * h_y,

all in angular-frequency units.  The drive carrier never appears here; the
truncation dimension must stay small enough for the rotating-wave picture
to hold (for a standard nonlinear oscillator roughly d <= sqrt(2*omega/|delta2|),
a constraint on the caller, not checked at runtime).
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "Topology",
    "SystemSpec",
    "HamiltonianGenerators",
    "build_sno",
    "build_intermediate_sno",
    "build_star",
    "generators",
    "hamiltonian_at",
    "proj",
    "sigma_x",
    "sigma_y",
    "spec_to_json",
    "spec_from_json",
]


class Topology(str, Enum):
    LADDER = "ladder"
    INTERMEDIATE = "intermediate"
    STAR = "star"


def proj(d: int, row: int) -> np.ndarray:
    """Projector |row><row| as a dense d x d complex matrix."""
    p = np.zeros((d, d), dtype=complex)
    p[row, row] = 1.0
    return p


def sigma_x(d: int, r1: int, r2: int) -> np.ndarray:
    """|r1><r2| + |r2><r1| in d dimensions."""
    m = np.zeros((d, d), dtype=complex)
    m[r1, r2] = 1.0
    m[r2, r1] = 1.0
    return m


def sigma_y(d: int, r1: int, r2: int) -> np.ndarray:
    """-i|r1><r2| + i|r2><r1|; antisymmetric under swapping r1, r2."""
    m = np.zeros((d, d), dtype=complex)
    m[r1, r2] = -1.0j
    m[r2, r1] = 1.0j
    return m


@dataclass(frozen=True)
class SystemSpec:
    """Level structure and drive weights of one anharmonic system.

    Parameters
    ----------
    topology : Topology
        Coupling topology (ladder, intermediate or star).
    d : int
        Number of retained levels, at least 3.
    delta : dict[int, float]
        Anharmonicity of each level (rad/time); keys are level labels,
        signed for the intermediate topology.  Levels 0 and 1 must be 0.
    lam : dict[int, float]
        Dimensionless drive weight of each transition, keyed by the
        transition index (ladder/star: 0..d-2; intermediate: -N..N-1).
        lam[0] is the qubit transition and must equal 1.
    """

    topology: Topology
    d: int
    delta: dict[int, float]
    lam: dict[int, float]

    def __post_init__(self):
        if self.d < 3:
            raise ValueError(f"d must be >= 3, got {self.d}")
        if self.topology is Topology.INTERMEDIATE and self.d % 2 == 0:
            raise ValueError("intermediate topology requires odd d")
        levels = set(self.levels)
        if set(self.delta) != levels:
            raise ValueError("delta keys must match the level set "
                             f"{sorted(levels)}, got {sorted(self.delta)}")
        keys = {k for (k, _, _) in self.transitions}
        if set(self.lam) != keys:
            raise ValueError("lambda keys must match the transition set "
                             f"{sorted(keys)}, got {sorted(self.lam)}")
        for j in (0, 1):
            if self.delta[j] != 0.0:
                raise ValueError(f"delta[{j}] must be exactly 0")
        if not math.isclose(self.lam[0], 1.0, rel_tol=0, abs_tol=1e-12):
            raise ValueError(f"lam[0] must be 1 (got {self.lam[0]})")
        for j in self.leakage_levels:
            if self.delta[j] == 0.0:
                raise ValueError(
                    f"leakage level {j} has zero anharmonicity; first-order "
                    "corrections divide by it")
        for v in list(self.delta.values()) + list(self.lam.values()):
            if not math.isfinite(v):
                raise ValueError("non-finite spec parameter")

    # -- level bookkeeping -------------------------------------------------

    @property
    def n_half(self) -> int:
        """N for the intermediate topology (levels -N..N)."""
        return (self.d - 1) // 2

    @property
    def levels(self) -> tuple[int, ...]:
        if self.topology is Topology.INTERMEDIATE:
            n = self.n_half
            return tuple(range(-n, n + 1))
        return tuple(range(self.d))

    @property
    def transitions(self) -> tuple[tuple[int, int, int], ...]:
        """(key, lower level, upper level) of every driven transition."""
        if self.topology is Topology.STAR:
            pairs = [(0, 0, 1)]
            pairs += [(j - 1, 1, j) for j in range(2, self.d)]
            return tuple(pairs)
        lo = self.levels[0]
        return tuple((j, j, j + 1) for j in range(lo, lo + self.d - 1))

    @property
    def leakage_levels(self) -> tuple[int, ...]:
        return tuple(j for j in self.levels if j not in (0, 1))

    @property
    def delta2(self) -> float:
        """Anharmonicity of the first leakage level, the reference scale."""
        return self.delta[2]

    def row(self, level: int) -> int:
        """Dense matrix row of a (possibly signed) level label."""
        if self.topology is Topology.INTERMEDIATE:
            return level + self.n_half
        return level

    @property
    def qubit_rows(self) -> tuple[int, int]:
        return (self.row(0), self.row(1))


@dataclass(frozen=True)
class HamiltonianGenerators:
    """The four Hermitian generator matrices of one system.

    ``levels`` maps matrix rows back to level labels (identity for ladder
    and star systems, offset by N for intermediate ones).
    """

    h_drift: np.ndarray
    h_z: np.ndarray
    h_x: np.ndarray
    h_y: np.ndarray
    levels: tuple[int, ...]

    def __post_init__(self):
        for m in (self.h_drift, self.h_z, self.h_x, self.h_y):
            m.setflags(write=False)

    @property
    def d(self) -> int:
        return len(self.levels)

    def row(self, level: int) -> int:
        return self.levels.index(level)


def build_sno(d: int, delta2: float) -> SystemSpec:
    """Standard nonlinear oscillator: ladder with delta_j = delta2*j(j-1)/2.

    Drive weights follow the harmonic-oscillator matrix elements,
    lam[j-1] = sqrt(j).
    """
    if d < 3:
        raise ValueError(f"SNO needs d >= 3, got {d}")
    if delta2 == 0.0:
        raise ValueError("delta2 must be nonzero")
    delta = {j: delta2 * j * (j - 1) / 2.0 for j in range(d)}
    lam = {j - 1: math.sqrt(j) for j in range(1, d)}
    lam[0] = 1.0
    return SystemSpec(Topology.LADDER, d, delta, lam)


def build_intermediate_sno(d: int, delta2: float) -> SystemSpec:
    """Qubit on an interior transition of an SNO, truncated to a d-level window.

    The window spans levels -N..N of the relabeled spectrum (N = (d-1)/2),
    i.e. the source oscillator's levels 0..2N re-centered on its N -> N+1
    transition.  The anharmonicities keep the SNO closed form in the new
    labels, delta_j = delta2*j(j-1)/2 for signed j, and the weights are
    rescaled so the new qubit transition has unit weight:

        lam[m] = sqrt((m + N + 1) / (N + 1)),   m = -N .. N-1.

    For d = 5 this reproduces the 6-level example values lam = sqrt(1/3),
    sqrt(2/3), 1, sqrt(4/3) and delta_{-1} = delta2, delta_{-2} = 3*delta2.
    """
    if d % 2 == 0:
        raise ValueError(f"intermediate window needs odd d, got {d}")
    if d < 5:
        raise ValueError(f"intermediate window needs d >= 5, got {d}")
    if delta2 == 0.0:
        raise ValueError("delta2 must be nonzero")
    n = (d - 1) // 2
    delta = {j: delta2 * j * (j - 1) / 2.0 for j in range(-n, n + 1)}
    lam = {m: math.sqrt((m + n + 1) / (n + 1)) for m in range(-n, n)}
    lam[0] = 1.0
    return SystemSpec(Topology.INTERMEDIATE, d, delta, lam)


def build_star(delta_leak, lam_leak) -> SystemSpec:
    """Star system: level 1 coupled to each leakage level 2..d-1.

    Parameters
    ----------
    delta_leak : sequence of float
        Anharmonicities of levels 2..d-1 (rad/time), all nonzero.
    lam_leak : sequence of float
        Drive weights of the 1 -> j transitions, j = 2..d-1.
    """
    delta_leak = list(delta_leak)
    lam_leak = list(lam_leak)
    if len(delta_leak) != len(lam_leak):
        raise ValueError("delta_leak and lam_leak must have equal length")
    if not delta_leak:
        raise ValueError("star system needs at least one leakage level")
    d = len(delta_leak) + 2
    delta = {0: 0.0, 1: 0.0}
    delta.update({j + 2: float(v) for j, v in enumerate(delta_leak)})
    lam = {0: 1.0}
    lam.update({j + 1: float(v) for j, v in enumerate(lam_leak)})
    return SystemSpec(Topology.STAR, d, delta, lam)


def generators(spec: SystemSpec) -> HamiltonianGenerators:
    """Assemble the four generator matrices for a system spec."""
    d = spec.d
    levels = spec.levels
    h_drift = np.zeros((d, d), dtype=complex)
    h_z = np.zeros((d, d), dtype=complex)
    for j in levels:
        r = spec.row(j)
        h_drift[r, r] = spec.delta[j]
        if spec.topology is Topology.STAR:
            h_z[r, r] = 0 if j == 0 else (1 if j == 1 else 2)
        else:
            h_z[r, r] = j
    h_x = np.zeros((d, d), dtype=complex)
    for key, lo, hi in spec.transitions:
        w = spec.lam[key]
        h_x[spec.row(lo), spec.row(hi)] = w
        h_x[spec.row(hi), spec.row(lo)] = w
    lower = np.tril(h_x, -1)
    h_y = 1j * (lower - lower.conj().T)
    return HamiltonianGenerators(h_drift, h_z, h_x, h_y, levels)


def hamiltonian_at(gen: HamiltonianGenerators, delta, omega_x,
                   omega_y) -> np.ndarray:
    """Rotating-frame Hamiltonian for control values of a common shape S.

    Scalars give one (d, d) matrix; arrays of shape S give a stack of
    shape S + (d, d), each entry bit-identical to the scalar call.
    """
    delta, omega_x, omega_y = (np.asarray(v)[..., None, None]
                               for v in (delta, omega_x, omega_y))
    return (gen.h_drift + delta * gen.h_z
            + 0.5 * omega_x * gen.h_x + 0.5 * omega_y * gen.h_y)


# -- JSON round trip -------------------------------------------------------

def spec_to_json(spec: SystemSpec) -> str:
    """Serialize a SystemSpec; intermediate specs use signed-index maps."""
    if spec.topology is Topology.INTERMEDIATE:
        delta = {str(j): spec.delta[j] for j in spec.levels}
        lam = {str(k): spec.lam[k] for (k, _, _) in spec.transitions}
    else:
        delta = [spec.delta[j] for j in spec.levels]
        lam = [spec.lam[k] for (k, _, _) in spec.transitions]
    doc = {
        "topology": spec.topology.value,
        "d": spec.d,
        "delta": delta,
        "lambda": lam,
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def spec_from_json(text: str) -> SystemSpec:
    """Parse a SystemSpec; keys it does not read are ignored."""
    doc = json.loads(text)
    topology = Topology(doc["topology"])
    d = doc["d"]
    if isinstance(d, bool) or not isinstance(d, int):
        raise ValueError(f"d must be an integer, got {d!r}")

    def indexed(key):  # a map of labels, or a list from label 0 unless signed
        raw = doc[key]
        if isinstance(raw, dict):
            return {int(k): float(v) for k, v in raw.items()}
        if isinstance(raw, list) and topology is not Topology.INTERMEDIATE:
            return {k: float(v) for k, v in enumerate(raw)}
        raise ValueError(f"{key} of the {topology.value} spec cannot be {raw!r}")
    return SystemSpec(topology, d, indexed("delta"), indexed("lambda"))
