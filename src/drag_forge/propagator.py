"""Time-ordered propagation of the rotating-frame Hamiltonian.

Each step is the fourth-order Magnus step on two Gauss-Legendre nodes
(Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151 (2009)): U_k = exp(-i dt K),
K = (H1 + H2)/2 + i (sqrt(3)/12) dt [H1, H2], H1 and H2 sampled at
t_k + (1/2 -+ sqrt(3)/6) dt.  The Hermitian K is exponentiated exactly by
its eigendecomposition, so every step is unitary; the global error is
fourth order in the step size.

For a mirror-symmetric set (``ControlSet.mirror``), H(t_g - t) = conj H(t)
makes step N-1-k the transpose of step k, so only the first half is built:
U = P^T P, or P^T U_mid P for odd N, with P the product of the first N//2.
"""
from __future__ import annotations

import math
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
    """Magnus-4 steps U_0.., all N of them, or the first ceil(N/2) of a
    mirror set (the rest are their transposes in reverse order)."""
    n = (grid.n_steps + 1) // 2 if cs.mirror else grid.n_steps
    dt = grid.dt
    offsets = np.array([[-dt], [dt]]) * (math.sqrt(3.0) / 6.0)  # Gauss nodes
    ox, oy, dl = _sample_controls(cs, grid.midpoints()[:n] + offsets)
    # K is built in its own frame, so the H stacks are freed before eigh
    w, v = np.linalg.eigh(_magnus_k(*hamiltonian_at(gen, dl, ox, oy), dt))
    phases = np.exp(-1j * w * dt)
    return (v * phases[:, None, :]) @ v.conj().swapaxes(-1, -2)


def _magnus_k(h1: np.ndarray, h2: np.ndarray, dt: float) -> np.ndarray:
    """K of the Magnus-4 step; for Hermitian H1, H2 the commutator is
    H1 H2 - (H1 H2)^dagger, one batched product instead of two."""
    h12 = h1 @ h2
    return 0.5 * (h1 + h2) + (1j * math.sqrt(3.0) / 12.0 * dt) * (
        h12 - h12.conj().swapaxes(-1, -2))


def _ordered_product(mats: np.ndarray) -> np.ndarray:
    # pairwise reduction of U = mats[-1] @ ... @ mats[0]; an odd last
    # factor waits for the next level
    while mats.shape[0] > 1:
        n = mats.shape[0]
        mats = np.concatenate([mats[1::2] @ mats[:n - 1:2], mats[n - n % 2:]])
    return mats[0]


def _prefix_products(mats: np.ndarray) -> np.ndarray:
    """out[k] = mats[k] @ ... @ mats[0], one batched level per halving:
    the prefixes at odd k are those of the pair products, the even ones
    take one more factor."""
    n = mats.shape[0]
    if n == 1:
        return mats
    odd = _prefix_products(mats[1::2] @ mats[:n - 1:2])
    out = np.empty_like(mats)
    out[0] = mats[0]
    out[1::2] = odd
    out[2::2] = mats[2::2] @ odd[:(n - 1) // 2]
    return out


def propagate(system, controls: ControlSet, grid: TimeGrid) -> np.ndarray:
    """Time-ordered evolution operator over [0, t_g].

    ``system`` may be a SystemSpec or a prebuilt HamiltonianGenerators.
    """
    steps = _step_unitaries(_as_generators(system), controls, grid)
    if not controls.mirror:
        return _ordered_product(steps)
    p = _ordered_product(steps[:grid.n_steps // 2])
    if grid.n_steps % 2:
        return p.T @ steps[-1] @ p
    return p.T @ p


def populations(system, controls: ControlSet, grid: TimeGrid,
                initial: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-level probabilities along the evolution from level ``initial``.

    Returns (times, probs) with probs[k, j] = |<row j|psi(t_k)>|^2 at every
    grid node, starting from the given level label (signed labels allowed
    for intermediate systems).
    """
    gen = _as_generators(system)
    steps = _step_unitaries(gen, controls, grid)
    # the identity in front makes prefix k the evolution up to node k
    factors = [np.eye(gen.d, dtype=complex)[None], steps]
    if controls.mirror:
        factors.append(steps[:grid.n_steps // 2][::-1].swapaxes(-1, -2))
    prefix = _prefix_products(np.concatenate(factors))
    return grid.nodes(), np.abs(prefix[:, :, gen.row(initial)]) ** 2


def converge(system, controls: ControlSet, t_g: float, tol: float,
             cap: int = 1 << 20) -> tuple[np.ndarray, int]:
    """Double the step count from 256 until the finer unitary is within tol.

    The error of U_2N is the Richardson estimate of fourth-order steps,
    max|U_2N - U_N| / 15 element-wise; returns U_2N and 2N of the first
    pair whose estimate is below tol.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    gen = _as_generators(system)
    n = 256
    u = propagate(gen, controls, TimeGrid(t_g, n))
    while 2 * n <= cap:
        n *= 2
        u, coarse = propagate(gen, controls, TimeGrid(t_g, n)), u
        if np.max(np.abs(u - coarse)) / 15.0 < tol:
            return u, n
    raise ConvergenceError(f"no convergence to {tol} within {cap} steps")
