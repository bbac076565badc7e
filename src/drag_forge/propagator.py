"""Time-ordered propagation of the rotating-frame Hamiltonian.

Each step is the fourth-order Magnus step on two Gauss-Legendre nodes
(Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151 (2009)): U_k = exp(-i dt K),
K = (H1 + H2)/2 + i (sqrt(3)/12) dt [H1, H2], H1 and H2 sampled at
t_k + (1/2 -+ sqrt(3)/6) dt; the global error is fourth order in the step
size.  H is linear in the controls, so A = -i dt K of every step is one
real product of per-step coefficients with a fixed basis of the generators
and their commutators.  exp(A) comes from a degree-8 Taylor polynomial,
exact to round-off at the small ||A|| of a step (scaling and squaring
covers larger ones), so no step needs an eigendecomposition.  Steps and
products are kept as U - I: (I + B1)(I + B0) = I + (B1 + B0 + B1 B0)
keeps the small step increments from being rounded against the identity.

For a mirror-symmetric set (``ControlSet.mirror``), H(t_g - t) = conj H(t)
makes step N-1-k the transpose of step k, so only the first half is built:
U = P^T P, or P^T U_mid P for odd N, with P the product of the first N//2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import HamiltonianGenerators, SystemSpec, generators
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


# the degree-8 Taylor polynomial is exact to round-off up to this 1-norm
# (remainder below theta^9/9! ~ 5e-18); larger exponents are scaled
_TAYLOR_THETA = 0.05
_TAYLOR_COEFFS = [1.0 / math.factorial(k) for k in range(9)]
# generator pairs (a, b), a < b, of the commutator terms, in basis order
_PAIRS = [(a, b) for a in range(4) for b in range(a + 1, 4)]


def _exponent_basis(gen: HamiltonianGenerators) -> np.ndarray:
    """(10, 2 d^2) real view of the fixed basis E_j of A = sum_j coef_j E_j:
    -i G_a for the generators G = (h_drift, h_z, h_x/2, h_y/2) of
    H = sum_a c_a G_a, then R [G_a, G_b] for a < b, R = sqrt(3)/12."""
    g = (gen.h_drift, gen.h_z, 0.5 * gen.h_x, 0.5 * gen.h_y)
    r = math.sqrt(3.0) / 12.0
    comm = [r * (g[a] @ g[b] - g[b] @ g[a]) for a, b in _PAIRS]
    basis = np.array([-1j * m for m in g] + comm)
    return basis.reshape(10, -1).view(float)


def _step_exponents(gen: HamiltonianGenerators, cs: ControlSet,
                    grid: TimeGrid) -> np.ndarray:
    """A_k = -i dt K_k of the Magnus-4 steps, all N of them, or the first
    ceil(N/2) of a mirror set (the rest are their transposes in reverse
    order), as one real product of per-step coefficients and the basis."""
    n = (grid.n_steps + 1) // 2 if cs.mirror else grid.n_steps
    dt = grid.dt
    offsets = np.array([[-dt], [dt]]) * (math.sqrt(3.0) / 6.0)  # Gauss nodes
    ox, oy, dl = _sample_controls(cs, grid.midpoints()[:n] + offsets)
    # c1, c2: coefficients of the generators G_a at the two nodes (1 for
    # the drift); [H1, H2] = sum_{a<b} (c1_a c2_b - c1_b c2_a) [G_a, G_b]
    c1, c2 = np.stack([np.ones_like(dl), dl, ox, oy], axis=-1)
    coef = np.empty((n, 10))
    coef[:, :4] = (0.5 * dt) * (c1 + c2)
    for col, (a, b) in enumerate(_PAIRS, start=4):
        coef[:, col] = dt * dt * (c1[:, a] * c2[:, b] - c1[:, b] * c2[:, a])
    d = gen.d
    return (coef @ _exponent_basis(gen)).view(complex).reshape(n, d, d)


def _expm1(a: np.ndarray) -> np.ndarray:
    """exp(A) - I for a stack of matrices: a degree-8 Taylor polynomial in
    Paterson-Stockmeyer form (four batched products), after scaling A by
    2^-s so that its largest 1-norm is at most theta, then s squarings
    B <- 2B + B^2 (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488 (2011))."""
    norm = float(np.abs(a).sum(axis=-2).max())
    s = max(0, math.frexp(norm / _TAYLOR_THETA)[1])
    if s:
        a = a * 2.0 ** -s
    c = _TAYLOR_COEFFS
    a2 = a @ a
    b = c[7] * a + c[8] * a2
    for k in (5, 3, 1):
        b = c[k] * a + c[k + 1] * a2 + a2 @ b
    for _ in range(s):
        b = 2.0 * b + b @ b
    return b


def _compose(b1: np.ndarray, b0: np.ndarray) -> np.ndarray:
    """(I + B1)(I + B0) - I, the product kept in the U - I form."""
    return b1 + b0 + b1 @ b0


def _ordered_product(mats: np.ndarray) -> np.ndarray:
    # pairwise reduction of U - I for U = (I + mats[-1]) ... (I + mats[0]);
    # an odd last factor waits for the next level
    while mats.shape[0] > 1:
        n = mats.shape[0]
        mats = np.concatenate([_compose(mats[1::2], mats[:n - 1:2]),
                               mats[n - n % 2:]])
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
    gen = _as_generators(system)
    steps = _expm1(_step_exponents(gen, controls, grid))  # U_k - I
    if not controls.mirror:
        b = _ordered_product(steps)
    else:
        p = _ordered_product(steps[:grid.n_steps // 2])
        q = _compose(steps[-1], p) if grid.n_steps % 2 else p
        b = _compose(p.T, q)
    return b + np.eye(gen.d)


def populations(system, controls: ControlSet, grid: TimeGrid,
                initial: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-level probabilities along the evolution from level ``initial``.

    Returns (times, probs) with probs[k, j] = |<row j|psi(t_k)>|^2 at every
    grid node, starting from the given level label (signed labels allowed
    for intermediate systems).
    """
    gen = _as_generators(system)
    steps = _expm1(_step_exponents(gen, controls, grid)) + np.eye(gen.d)
    # the identity in front makes prefix k the evolution up to node k
    factors = [np.eye(gen.d, dtype=complex)[None], steps]
    if controls.mirror:
        factors.append(steps[:grid.n_steps // 2][::-1].swapaxes(-1, -2))
    prefix = _prefix_products(np.concatenate(factors))
    return grid.nodes(), np.abs(prefix[:, :, gen.row(initial)]) ** 2


_STEP_CAP = 1 << 20  # the most steps step doubling tries


def converge(system, controls: ControlSet, t_g: float,
             tol: float) -> tuple[np.ndarray, int]:
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
    while 2 * n <= _STEP_CAP:
        n *= 2
        u, coarse = propagate(gen, controls, TimeGrid(t_g, n)), u
        if np.max(np.abs(u - coarse)) / 15.0 < tol:
            return u, n
    raise ConvergenceError(f"no convergence to {tol} within {_STEP_CAP} steps")
