"""Time-ordered propagation of the rotating-frame Hamiltonian.

Each step is the fourth-order Magnus step on two Gauss-Legendre nodes
(Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151 (2009)): U_k = exp(-i dt K),
K = (H1 + H2)/2 + i (sqrt(3)/12) dt [H1, H2], H1 and H2 sampled at
t_k + (1/2 -+ sqrt(3)/6) dt; the global error is fourth order in the step
size.  H is linear in the controls, so A = -i dt K of every step is one
real product of per-step coefficients with a fixed basis of the generators
and their commutators.  Each step is shifted by the midpoint of its
diagonal phases, and exp(A) comes from a degree-8 Taylor polynomial in
three products (scaling and squaring past a 1-norm of 0.1), so no step
needs an eigendecomposition.  Steps and products are kept as U - I:
(I + B1)(I + B0) = I + (B1 + B0 + B1 B0) keeps the small step increments
from being rounded against the identity.

For a mirror-symmetric set (``ControlSet.mirror``), H(t_g - t) = conj H(t)
makes step N-1-k the transpose of step k, so only the first half is built:
U = P^T P, or P^T U_mid P for odd N, with P the product of the first N//2.

The exponential and the ordered product run over blocks of ``_BLOCK``
steps.  Each block is exponentiated in one per-call workspace and at once
reduced to its part of the product, so no (N, d, d) stack of steps or of
product levels is built.  A block's temporaries stay in cache, and a call
reuses memory the allocator already holds: full-stack temporaries are large
enough that the allocator hands them back to the system after each call,
and the next call faults them in again page by page.  The block size moves
no bit of the result.
The product is one pairwise tree that pairs (2k, 2k + 1) at every level and
carries an odd last factor up; with a power-of-two block, the tree of each
aligned block is the subtree over its steps, and the tail block's tree is
the tail's subtree.  The shift, the scaling and the shift's factors of the
exponential are taken from the whole stack for the same reason.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import HamiltonianGenerators, SystemSpec, _is_integer, generators
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
        if not (self.t_g > 0 and math.isfinite(self.t_g)):
            raise ValueError(
                f"t_g must be positive and finite, got {self.t_g!r}")
        if not _is_integer(self.n_steps):  # a float fails at the first slice
            raise ValueError(f"n_steps must be an integer, got "
                             f"{self.n_steps!r}")
        if self.n_steps < 16:
            raise ValueError(f"n_steps must be >= 16, got {self.n_steps}")

    @property
    def dt(self) -> float:
        return self.t_g / self.n_steps

    def midpoints(self) -> np.ndarray:
        return (np.arange(self.n_steps) + 0.5) * self.dt

    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.t_g, self.n_steps + 1)


def _check_span(grid: TimeGrid, t_g: float) -> None:
    """Refuse a grid that does not span the pulse, [0, t_g]: the nodes, the
    mirror fold and the expansion's exact route would miss part of it."""
    if not math.isclose(grid.t_g, t_g, rel_tol=1e-12):
        raise ValueError(f"grid t_g={grid.t_g!r} differs from the pulse's "
                         f"t_g={t_g!r}")


def _as_generators(system) -> HamiltonianGenerators:
    if isinstance(system, HamiltonianGenerators):
        return system
    if isinstance(system, SystemSpec):
        return generators(system)
    raise TypeError(f"expected SystemSpec or HamiltonianGenerators, got {type(system)}")


def _sample_controls(cs: ControlSet, ts: np.ndarray):
    samples = cs.channels(ts)
    for name, arr in zip(("omega_x", "omega_y", "delta"), samples):
        bad = ~np.isfinite(arr)
        if bad.any():
            raise ValueError(
                f"non-finite {name} sample at t={ts[bad][0]!r}")
    return samples


# the largest 1-norm the degree-8 Taylor polynomial takes unscaled; its
# remainder there, at most theta^9/9! ~ 2.8e-15 per step, is a phase error
# on eigenvalues of modulus near theta; larger exponents are scaled
_TAYLOR_THETA = 0.1
# that polynomial in three products (Bader, Blanes & Casas, Mathematics 7,
# 1174 (2019)): A2 = A A, A4 = A2 (x1 A + x2 A2),
# A8 = (x3 A2 + A4)(x4 I + x5 A + x6 A2 + x7 A4), exp(A) - I ~ A + y2 A2 + A8
_R177 = math.sqrt(177.0)
_BBC_X = ((1.0 + _R177) / 132.0, (1.0 + _R177) / 528.0, 2.0 / 3.0,
          (-271.0 + 29.0 * _R177) / 210.0, 11.0 * (-1.0 + _R177) / 840.0,
          11.0 * (-9.0 + _R177) / 3360.0, (89.0 - _R177) / 2240.0)
_BBC_Y2 = (857.0 - 58.0 * _R177) / 630.0
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
    _check_span(grid, cs.t_g)
    n = (grid.n_steps + 1) // 2 if cs.mirror else grid.n_steps
    # the stack first: the sampling temporaries then sit above it, and
    # the block workspace reuses their memory once they are freed
    out = np.empty((n, gen.d, gen.d), dtype=complex)
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
    np.matmul(coef, _exponent_basis(gen), out=out.reshape(n, -1).view(float))
    return out


def _diagonal(m: np.ndarray) -> np.ndarray:
    """Writable view of the diagonals of a stack of matrices."""
    return np.einsum("...ii->...i", m)


# steps per block of the exponential and the product; a power of two, so
# that the block trees are subtrees of the one pairwise tree over all steps
_BLOCK = 256


def _expm1_blocks(a: np.ndarray):
    """exp(A_k) - I block by block, for an (n, d, d) complex stack A.

    Yields (lo, B, X), B[j] = exp(A[lo + j]) - I for the steps of one block
    of ``_BLOCK`` (the last may be shorter), as a view of one workspace
    that the next block overwrites, and X = A[lo:lo + len(B)], which the
    block no longer needs: the caller may use it as scratch.  A is shifted
    and scaled in place.

    Each A_k is shifted to A_k - i c_k I, c_k the midpoint of Im diag A_k,
    which takes the drift's common phase out of its 1-norm.  The shifted
    stack is scaled by 2^-s so that its largest 1-norm is at most theta,
    exp - I is the degree-8 Taylor polynomial in three batched products,
    then come s squarings B <- 2B + B^2 (Al-Mohy & Higham, SIAM J. Sci.
    Comput. 33, 488 (2011)), and the shift goes back in the U - I form:
    B = e^{ic} B' + (e^{ic} - 1) I, e^{ic} - 1 = -2 sin^2(c/2) + i sin c.
    c, s and the shift's factors come from the whole stack, so a step's
    bits do not depend on the block it falls in."""
    n, d = a.shape[0], a.shape[-1]
    im = _diagonal(a).imag
    hi, lo = im[:, 0].copy(), im[:, 0].copy()
    for j in range(1, d):
        np.maximum(hi, im[:, j], out=hi)
        np.minimum(lo, im[:, j], out=lo)
    c = 0.5 * (hi + lo)
    _diagonal(a)[...] -= 1j * c[..., None]
    m = min(n, _BLOCK)
    work = np.empty((4, m, d, d), dtype=complex)
    absa = work[0].reshape(-1).view(float)[:m * d * d].reshape(m, d, d)
    norm = 0.0
    for k in range(0, n, m):
        x = a[k:k + m]
        col = np.abs(x, out=absa[:len(x)]).sum(axis=-2)
        norm = max(norm, float(col.max()))
    s = max(0, math.frexp(norm / _TAYLOR_THETA)[1])
    phase = np.exp(1j * c)[..., None, None]
    shift = (-2.0 * np.sin(0.5 * c) ** 2 + 1j * np.sin(c))[..., None]
    x1, x2, x3, x4, x5, x6, x7 = _BBC_X
    for k in range(0, n, m):
        x = a[k:k + m]
        w = len(x)
        # four stacks per block, each sum formed in place through the
        # scratch t: with a fresh stack per term, a step at s = 0 took
        # longer than the four-product form
        t, a2, a4, p = work[:, :w]
        if s:
            x *= 2.0 ** -s
        np.matmul(x, x, out=a2)
        np.multiply(x, x1, out=p)
        p += np.multiply(a2, x2, out=t)
        np.matmul(a2, p, out=a4)
        np.multiply(a4, x7, out=p)
        p += np.multiply(a2, x6, out=t)
        p += np.multiply(x, x5, out=t)
        _diagonal(p)[...] += x4
        a4 += np.multiply(a2, x3, out=t)
        b = np.matmul(a4, p, out=t)
        b += np.multiply(a2, _BBC_Y2, out=a2)
        b += x
        for _ in range(s):
            np.matmul(b, b, out=a4)
            b *= 2.0
            b += a4
        b *= phase[k:k + w]
        _diagonal(b)[...] += shift[k:k + w]
        yield k, b, x


def _compose(b1: np.ndarray, b0: np.ndarray) -> np.ndarray:
    """(I + B1)(I + B0) - I, the product kept in the U - I form."""
    return b1 + b0 + b1 @ b0


def _ordered_product(mats: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """U - I of U = (I + mats[-1]) ... (I + mats[0]) by a pairwise tree.

    Each level composes the pairs (2k, 2k + 1); an odd last factor waits
    for the next level.  ``scratch`` holds at least len(mats) matrices;
    the levels alternate between it and ``mats``, whose contents are
    overwritten."""
    n = len(mats)
    prod, src, dst = scratch[:n // 2], mats, scratch[n // 2:]
    while n > 1:
        h = n // 2
        b0, b1 = src[:2 * h:2], src[1:2 * h:2]
        np.matmul(b1, b0, out=prod[:h])
        np.add(b1, b0, out=dst[:h])
        dst[:h] += prod[:h]
        if n % 2:
            dst[h] = src[n - 1]
        n = h + n % 2
        src, dst = dst, src
    return src[0]


def _block_product(blocks, m: int) -> tuple[np.ndarray, np.ndarray]:
    """U - I of (I + B_{m-1}) ... (I + B_0) over the first m steps of
    ``blocks`` ((lo, B, scratch) from ``_expm1_blocks``), and a copy of the
    steps after them.

    Each block is reduced as soon as it arrives, then the block results
    are.  The tree pairs (2k, 2k + 1) at every level and carries an odd
    last factor up, so with ``_BLOCK`` a power of two each aligned block's
    tree is a subtree of the tree over all m steps, and the tail block's is
    the tail's: the result is ``_ordered_product`` of the m steps, bit for
    bit, without an (m, d, d) stack."""
    parts, rest = [], None
    for lo, b, spare in blocks:
        rest = b[max(m - lo, 0):].copy()
        if lo < m:
            parts.append(_ordered_product(b[:m - lo], spare).copy())
    parts = np.array(parts)
    return _ordered_product(parts, np.empty_like(parts)), rest


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
    np.matmul(mats[2::2], odd[:(n - 1) // 2], out=out[2::2])
    return out


def propagate(system, controls: ControlSet, grid: TimeGrid) -> np.ndarray:
    """Time-ordered evolution operator over [0, t_g].

    ``system`` may be a SystemSpec or a prebuilt HamiltonianGenerators.
    """
    gen = _as_generators(system)
    blocks = _expm1_blocks(_step_exponents(gen, controls, grid))  # U_k - I
    if not controls.mirror:
        b, _ = _block_product(blocks, grid.n_steps)
    else:
        p, mid = _block_product(blocks, grid.n_steps // 2)
        q = _compose(mid[0], p) if grid.n_steps % 2 else p
        b = _compose(p.T, q)
    return b + np.eye(gen.d)


def populations(spec: SystemSpec, controls: ControlSet, grid: TimeGrid,
                initial: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-level probabilities along the evolution from level ``initial``.

    Returns (times, probs) with probs[k, j] = |<row j|psi(t_k)>|^2 at every
    grid node, starting from the level label ``initial`` of ``spec`` (signed
    for intermediate systems).
    """
    row = spec.row(initial)  # a bad label fails before the evolution
    prefix = _prefix_products(_factors(generators(spec), controls, grid))
    return grid.nodes(), np.abs(prefix[:, :, row]) ** 2


def _factors(gen: HamiltonianGenerators, controls: ControlSet,
             grid: TimeGrid) -> np.ndarray:
    """The (N + 1, d, d) stack I, U_0, ..., U_{N-1}: the identity in front
    makes prefix k the evolution up to node k.  The exponents and the
    block workspace are gone once it returns."""
    eye = np.eye(gen.d)
    n = grid.n_steps
    factors = np.empty((n + 1, gen.d, gen.d), dtype=complex)
    factors[0] = eye
    a = _step_exponents(gen, controls, grid)
    for lo, b, _ in _expm1_blocks(a):
        np.add(b, eye, out=factors[1 + lo:1 + lo + len(b)])
    if controls.mirror:
        half = n // 2
        factors[1 + len(a):] = factors[half:0:-1].swapaxes(-1, -2)
    return factors


_STEP_CAP = 1 << 20  # the most steps step doubling tries


def converge(system, controls: ControlSet, t_g: float,
             tol: float) -> tuple[np.ndarray, int]:
    """Double the step count from 256 until the finer unitary is within tol.

    The error of U_2N is the Richardson estimate of fourth-order steps,
    max|U_2N - U_N| / 15 element-wise; returns U_2N and 2N of the first
    pair whose estimate is below tol.
    """
    if not tol > 0:  # NaN too: no estimate is below it
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
