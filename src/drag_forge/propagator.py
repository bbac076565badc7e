"""Time-ordered propagation of the rotating-frame Hamiltonian.

The integrator samples the Hamiltonian at step midpoints and applies the
exact exponential of each sample (eigendecomposition of the Hermitian
matrix), so every step is exactly unitary and the global error is second
order in the step size.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import HamiltonianGenerators, SystemSpec, generators, hamiltonian_at
from .pulses import ControlSet

__all__ = ["TimeGrid", "ConvergenceError", "propagate", "populations",
           "converge"]


class ConvergenceError(RuntimeError):
    """Step doubling hit its cap without meeting the tolerance."""


@dataclass(frozen=True)
class TimeGrid:
    t_g: float
    n_steps: int

    def __post_init__(self):
        if self.t_g <= 0:
            raise ValueError("t_g must be positive")
        if self.n_steps < 16:
            raise ValueError(f"n_steps must be >= 16, got {self.n_steps}")

    @property
    def dt(self) -> float:
        return self.t_g / self.n_steps

    def midpoints(self) -> np.ndarray:
        return (np.arange(self.n_steps) + 0.5) * self.dt

    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.t_g, self.n_steps + 1)


def _as_generators(system) -> HamiltonianGenerators:
    if isinstance(system, HamiltonianGenerators):
        return system
    if isinstance(system, SystemSpec):
        return generators(system)
    raise TypeError(f"expected SystemSpec or HamiltonianGenerators, got {type(system)}")


def _sample_controls(cs: ControlSet, ts: np.ndarray):
    ox = np.broadcast_to(np.asarray(cs.omega_x(ts), dtype=float), ts.shape)
    oy = np.broadcast_to(np.asarray(cs.omega_y(ts), dtype=float), ts.shape)
    dl = np.broadcast_to(np.asarray(cs.delta(ts), dtype=float), ts.shape)
    for name, arr in (("omega_x", ox), ("omega_y", oy), ("delta", dl)):
        bad = ~np.isfinite(arr)
        if bad.any():
            raise ValueError(
                f"non-finite {name} sample at t={ts[bad][0]!r}")
    return ox, oy, dl


def _step_unitaries(gen: HamiltonianGenerators, cs: ControlSet,
                    grid: TimeGrid) -> np.ndarray:
    ox, oy, dl = _sample_controls(cs, grid.midpoints())
    w, v = np.linalg.eigh(hamiltonian_at(gen, dl, ox, oy))
    phases = np.exp(-1j * w * grid.dt)
    return (v * phases[:, None, :]) @ v.conj().swapaxes(-1, -2)


def _ordered_product(mats: np.ndarray) -> np.ndarray:
    # pairwise reduction of U = mats[-1] @ ... @ mats[0]
    while mats.shape[0] > 1:
        n = mats.shape[0]
        if n % 2:
            tail = mats[-1:]
            mats = np.concatenate([mats[1::2] @ mats[0:-1:2], tail])
        else:
            mats = mats[1::2] @ mats[0::2]
    return mats[0]


def propagate(system, controls: ControlSet, grid: TimeGrid) -> np.ndarray:
    """Time-ordered evolution operator over [0, t_g].

    ``system`` may be a SystemSpec or a prebuilt HamiltonianGenerators.
    """
    gen = _as_generators(system)
    return _ordered_product(_step_unitaries(gen, controls, grid))


def populations(system, controls: ControlSet, grid: TimeGrid,
                initial: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-level probabilities along the evolution from level ``initial``.

    Returns (times, probs) with probs[k, j] = |<row j|psi(t_k)>|^2 at every
    grid node, starting from the given level label (signed labels allowed
    for intermediate systems).
    """
    gen = _as_generators(system)
    steps = _step_unitaries(gen, controls, grid)
    psi = np.zeros(gen.d, dtype=complex)
    psi[gen.row(initial)] = 1.0
    probs = np.empty((grid.n_steps + 1, gen.d))
    probs[0] = np.abs(psi) ** 2
    for k in range(grid.n_steps):
        psi = steps[k] @ psi
        probs[k + 1] = np.abs(psi) ** 2
    return grid.nodes(), probs


def converge(system, controls: ControlSet, t_g: float, tol: float,
             start: int = 256, cap: int = 1 << 20) -> tuple[np.ndarray, int]:
    """Double the step count until successive unitaries agree within tol.

    Returns the finer of the last pair together with its step count.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    gen = _as_generators(system)
    n = max(16, start)
    u = propagate(gen, controls, TimeGrid(t_g, n))
    while True:
        n2 = 2 * n
        if n2 > cap:
            raise ConvergenceError(
                f"no convergence to {tol} within {cap} steps")
        u2 = propagate(gen, controls, TimeGrid(t_g, n2))
        if np.max(np.abs(u2 - u)) < tol:
            return u2, n2
        u, n = u2, n2
