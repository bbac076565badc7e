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
import operator
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
    "spec_to_json",
    "spec_from_json",
]


def _is_integer(x) -> bool:
    """operator.index takes x and x is no bool, which would pass for 0 or 1."""
    try:
        operator.index(x)
    except TypeError:
        return False
    return not isinstance(x, bool)


class _ReadOnly(dict):
    """A spec record's map: it hashes by value and refuses every change, so
    none can undo the record's checks."""

    def _refuse(self, *args):
        raise TypeError("a spec record's maps are read-only")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = _refuse
    setdefault = update = _refuse

    def __hash__(self):
        return hash(frozenset(self.items()))

    def __reduce__(self):  # pickle would fill a dict through __setitem__
        return type(self), (dict(self),)


class Topology(str, Enum):
    LADDER = "ladder"
    INTERMEDIATE = "intermediate"
    STAR = "star"


@dataclass(frozen=True)
class SystemSpec:
    """Level structure and drive weights of one anharmonic system.

    Parameters
    ----------
    topology : Topology
        Coupling topology (ladder, intermediate or star).
    d : int
        Number of retained levels, an integer (no bool or float), at least
        3; odd and at least 5 for the intermediate topology.
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
        if not _is_integer(self.d):
            raise ValueError(f"d must be an integer, got {self.d!r}")
        if self.d < 3:
            raise ValueError("a system requires d >= 3, two qubit levels and "
                             f"at least one leakage level, got d={self.d}")
        if self.topology is Topology.INTERMEDIATE and (
                self.d % 2 == 0 or self.d < 5):
            raise ValueError("intermediate topology requires odd d >= 5, "
                             f"got d={self.d}")
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
                    f"leakage level {j} has zero anharmonicity; it must be "
                    "nonzero, since first-order corrections divide by it")
        for v in list(self.delta.values()) + list(self.lam.values()):
            if not math.isfinite(v):
                raise ValueError("non-finite spec parameter")
        object.__setattr__(self, "delta", _ReadOnly(self.delta))
        object.__setattr__(self, "lam", _ReadOnly(self.lam))

    # -- level bookkeeping -------------------------------------------------

    @property
    def levels(self) -> tuple[int, ...]:
        """Level labels in matrix-row order: 0..d-1, or -N..N with
        N = (d-1)/2 for the intermediate topology."""
        lo = -(self.d // 2) if self.topology is Topology.INTERMEDIATE else 0
        return tuple(range(lo, lo + self.d))

    @property
    def transitions(self) -> tuple[tuple[int, int, int], ...]:
        """(key, lower level, upper level) of every driven transition."""
        if self.topology is Topology.STAR:
            pairs = [(0, 0, 1)]
            pairs += [(j - 1, 1, j) for j in range(2, self.d)]
            return tuple(pairs)
        return tuple((j, j, j + 1) for j in self.levels[:-1])

    @property
    def leakage_levels(self) -> tuple[int, ...]:
        return tuple(j for j in self.levels if j not in (0, 1))

    @property
    def delta2(self) -> float:
        """Anharmonicity of the first leakage level, the reference scale."""
        return self.delta[2]

    def row(self, level: int) -> int:
        """Matrix row of a (possibly signed) integer level label: its index
        in ``levels``.  A label the system does not have, a bool or a float
        such as 1.0 included, raises ValueError."""
        if _is_integer(level) and level in self.levels:
            return self.levels.index(level)
        raise ValueError(f"no level {level!r} in this system; its levels "
                         f"are {self.levels}")

    @property
    def qubit_rows(self) -> tuple[int, int]:
        return (self.row(0), self.row(1))


@dataclass(frozen=True)
class HamiltonianGenerators:
    """The four Hermitian generator matrices of one system, indexed by
    matrix row; ``SystemSpec.row`` maps a level label to its row."""

    h_drift: np.ndarray
    h_z: np.ndarray
    h_x: np.ndarray
    h_y: np.ndarray

    def __post_init__(self):
        for m in (self.h_drift, self.h_z, self.h_x, self.h_y):
            m.setflags(write=False)

    @property
    def d(self) -> int:
        return len(self.h_drift)


def build_sno(d: int, delta2: float) -> SystemSpec:
    """Standard nonlinear oscillator: ladder with delta_j = delta2*j(j-1)/2.

    Drive weights follow the harmonic-oscillator matrix elements,
    lam[j-1] = sqrt(j).
    """
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
    d = len(delta_leak) + 2
    delta = {0: 0.0, 1: 0.0}
    delta.update({j + 2: float(v) for j, v in enumerate(delta_leak)})
    lam = {0: 1.0}
    lam.update({j + 1: float(v) for j, v in enumerate(lam_leak)})
    return SystemSpec(Topology.STAR, d, delta, lam)


def generators(spec: SystemSpec) -> HamiltonianGenerators:
    """Assemble the four generator matrices for a system spec."""
    star = spec.topology is Topology.STAR
    h_drift = np.diag([complex(spec.delta[j]) for j in spec.levels])
    h_z = np.diag([complex(min(j, 2) if star else j) for j in spec.levels])
    h_x = np.zeros_like(h_drift)
    for key, lo, hi in spec.transitions:
        r, s = spec.row(lo), spec.row(hi)
        h_x[r, s] = h_x[s, r] = spec.lam[key]
    lower = np.tril(h_x, -1)
    h_y = 1j * (lower - lower.conj().T)
    return HamiltonianGenerators(h_drift, h_z, h_x, h_y)


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


def _real(value, field: str) -> float:
    """float(value) of a JSON number; float() would read a boolean as 0 or 1
    and a numeric string as its number."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{field} must be a number, got {value!r}")
    return float(value)


def spec_from_json(text: str) -> SystemSpec:
    """Parse a SystemSpec; keys it does not read are ignored."""
    doc = json.loads(text)
    topology = Topology(doc["topology"])

    def indexed(key):  # a map of labels, or a list from label 0 unless signed
        raw = doc[key]
        if isinstance(raw, dict):
            for k in raw:  # int() alone also reads " 2", "+2" and "0_2" as 2
                if str(int(k)) != k:
                    raise ValueError(f"{key} key {k!r} is not a level label "
                                     "as spec_to_json writes it")
            return {int(k): _real(v, f"{key}[{k}]") for k, v in raw.items()}
        if isinstance(raw, list) and topology is not Topology.INTERMEDIATE:
            return {k: _real(v, f"{key}[{k}]") for k, v in enumerate(raw)}
        raise ValueError(f"{key} of the {topology.value} spec cannot be {raw!r}")
    return SystemSpec(topology, doc["d"], indexed("delta"), indexed("lambda"))
