"""Numerical verification of the order-by-order frame expansion.

Everything here works in dimensionless form: time is rescaled to [0, 1],
energies carry a factor t_g, and the drift is split off as H0/eps with
eps = 1/(t_g * delta2) the bookkeeping parameter.  The module evaluates

* the frame generators S^(n)(t) of the published control solutions,
* the extra Hamiltonians H_extra^(n) generated by the frame change, every
  order from one recursion in ad_S X = [S, X],
* the exact effective Hamiltonian A^dag H A + i dA^dag/dt A, and
* the per-order constraint residuals that the closed-form pulses claim
  to satisfy: one loop builds, from one control set and on every topology,
  each order's transform once, the frame S^(n+1) that the no-leakage
  conditions fix from it, and H_eff^(n).

Every frame and Hamiltonian of the expansion is a polynomial in the scaled
envelope derivatives gbar^(k) = t_g^(k+1) d^kG/dt^k with constant (d, d)
coefficients (``_Poly``): the controls are a1 gbar, a3 gbar^3, b1 gbar' and
c2 gbar^2, and H0 is constant.  Commutators multiply monomials, [S, H0] is
element-wise for the diagonal H0, and d/dt maps gbar^(k) to gbar^(k+1)
exactly.  The loop runs on polynomials; only each report's final polynomial
is sampled.  Every control set is mirror-symmetric: a coefficient of S is
real where its monomial's derivative orders sum to an odd number and
imaginary where they sum to an even one, those of H^(n), the transforms and
H_eff^(n) the other way round.  So S(t_g - t) = -conj S(t), H_eff and the
series at t_g - t are the conjugates of their values at t, and the reports
read only the nodes 0 .. N//2: the residual reports sample the qubit-block
and qubit/leak entries there at once; the series samples S, dS/dt and the
series over blocks of ``_BLOCK`` nodes (the propagator's block), and takes
dA/dt from the Daleckii-Krein formula.  Every value, each polynomial's
samples included (summed term by term), is pointwise in the node, so the
block size moves no bit by construction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (HamiltonianGenerators, SystemSpec, _is_integer,
                    generators, hamiltonian_at)
from .propagator import _BLOCK, TimeGrid, _check_span, _sample_controls
from .pulses import Ansatz, ControlSet, GaussianParams, controls_for

__all__ = ["ExpansionReport", "frames_for", "h_eff_exact",
           "constraint_residuals", "h_extra_report", "series_vs_exact_deviation"]


@dataclass(frozen=True)
class ExpansionReport:
    """Residual maxima of the order-n constraint equations."""

    qubit_mismatch: dict
    coupling_residual: float


class _Poly(dict):
    """A polynomial in gbar, gbar', gbar'', ... with (d, d) coefficients.

    Maps each monomial, the sorted tuple of its factors' derivative orders
    k (() is the constant), to its coefficient; a missing monomial has a
    zero coefficient, so the empty polynomial is zero.
    """

    @staticmethod
    def of(terms) -> "_Poly":
        """The sum of (monomial, coefficient) terms."""
        out = _Poly()
        for m, c in terms:
            out[m] = out[m] + c if m in out else c
        return out

    def __add__(self, other: "_Poly") -> "_Poly":
        return _Poly.of([*self.items(), *other.items()])

    def __rmul__(self, c) -> "_Poly":
        return _Poly({m: c * a for m, a in self.items()})

    def comm(self, other: "_Poly") -> "_Poly":
        """[self, other] of Hermitian coefficients, each term P - P^dag of
        one product P = ab."""
        return _Poly.of((tuple(sorted(m + n)), (p := a @ b) - p.conj().T)
                        for m, a in self.items() for n, b in other.items())

    def comm_h0(self, h0: np.ndarray) -> "_Poly":
        """[self, H0] for the diagonal H0 = diag(w): entries C_ij (w_j - w_i)."""
        w = np.diagonal(h0)
        return _Poly({m: a * (w - w[:, None]) for m, a in self.items()})

    def dt(self) -> "_Poly":
        """d/dt by the product rule, gbar^(k) -> gbar^(k+1)."""
        return _Poly.of((tuple(sorted(m[:i] + (k + 1,) + m[i + 1:])), a)
                        for m, a in self.items() for i, k in enumerate(m))


def _sample(terms, g: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out + sum of monomial(t) * coefficient over (monomial, coefficient)
    terms, on the nodes of g, the (k, node) samples of gbar^(k): added term
    by term and element-wise, so a node's value depends on that node alone."""
    for m, c in terms:
        out += np.multiply.outer(math.prod(g[k] for k in m), c)
    return out


# -- frame generators ---------------------------------------------------------

def _recursion_frame(ex: _Expansion, m: _Poly) -> _Poly:
    """Constrained part of S^(n+1) from the no-leakage conditions.

    With M = H_extra^(n) + H^(n), the (q, l) entry of M + i[S^(n+1), H0]
    must vanish for each qubit row q and leakage row l; since H0 has no
    qubit-block weight this solves entry-wise, per monomial, to
    S^(n+1)[q, l] = i M[q, l] / dbar_l.
    """
    s = _Poly()
    for mono, c in m.items():
        x = s[mono] = np.zeros(c.shape, dtype=complex)
        x[ex.q, ex.l] = 1j * c[ex.q, ex.l] / ex.dbar
        x[ex.l, ex.q] = np.conj(x[ex.q, ex.l])
    return s


class _Expansion:
    """One control set's frame expansion as polynomials.

    Holds the system in dimensionless form: the generators as built, H0 =
    drift / delta2, the qubit rows, and the qubit/leakage couplings as rows
    ``q``, rows ``l`` and ``dbar`` = delta_l / delta2.  Builds the control
    set once; ``build`` runs the order-by-order loop and ``samples`` gives
    the envelope derivatives on ``ts`` or ``half``.
    """

    def __init__(self, spec: SystemSpec, variant, params: GaussianParams,
                 grid: TimeGrid):
        if isinstance(variant, Ansatz):
            raise ValueError("the numeric ansatz has no documented frame")
        _check_span(grid, params.t_g)
        self.gen = generators(spec)
        self.h0 = np.asarray(self.gen.h_drift) / spec.delta2
        self.qubit_rows = spec.qubit_rows
        pairs = [(q, spec.row(j), spec.delta[j] / spec.delta2)
                 for q in spec.qubit_rows for j in spec.leakage_levels]
        self.q, self.l, self.dbar = (np.array(c) for c in zip(*pairs))
        self.cs = controls_for(spec, variant, params)
        self.ts = grid.nodes()
        self.half = self.ts[:grid.n_steps // 2 + 1]

    def at(self, p: _Poly, g: np.ndarray) -> np.ndarray:
        """(node, d, d) samples of p on the nodes of g (see ``samples``)."""
        return _sample(p.items(), g, np.zeros(g.shape[1:] + self.h0.shape,
                                              dtype=complex))

    def samples(self, ts: np.ndarray, *polys: _Poly) -> np.ndarray:
        """(k, node) samples on ts of gbar^(k) through polys' top order."""
        top = max((k for p in polys for m in p for k in m), default=0)
        tg = self.cs.t_g
        env = self.cs.pulse.derivatives(ts, top)
        return np.array([tg ** (k + 1) * g for k, g in enumerate(env)])

    def build(self, upto: int):
        """The expansion through order ``upto``: (hs, frames, heffs).

        Builds H^(0..upto) and, order by order, M = H_extra^(n) + H^(n), the
        order-n transform with S^(1..n); the frame S^(n+1) that the
        recursion solves from it; and heffs[n] = H_eff^(n) = M +
        i[S^(n+1), H0].
        """
        gen = self.gen
        b1, c2, a3 = self.cs.b1, self.cs.c2, self.cs.a3
        # (monomial, weight, generator) of each order's fields; orders and
        # terms with no field left out
        fields = {0: [((0,), 0.5, gen.h_x)],
                  1: [((0, 0), c2, gen.h_z), ((1,), 0.5 * b1, gen.h_y)],
                  2: [((0, 0, 0), 0.5 * a3, gen.h_x)]}
        hs = {n: h for n, f in fields.items() if n <= upto
              if (h := _Poly({m: c * x for m, c, x in f if c}))}
        # the free element s_y01 = sa * G_bar of S^(1) is fixed by the
        # quadrature field, omega_y_bar^(1) = 2 d(s_y01)/dt, so sa = b1 / 2
        sa = b1 / 2.0
        frames: list[_Poly] = []
        heffs: list[_Poly] = []
        for n in range(upto + 1):
            m = _transformed(n, frames, hs, self.h0)
            s = _recursion_frame(self, m)
            if n == 0:
                q0, q1 = self.qubit_rows
                free = np.zeros_like(self.h0)
                free[q0, q1], free[q1, q0] = -1j * sa, 1j * sa
                s = s + _Poly({(0,): free})
            frames.append(s)
            heffs.append(m + 1j * s.comm_h0(self.h0))
        return hs, frames, heffs


def frames_for(spec: SystemSpec, variant, params: GaussianParams,
               grid: TimeGrid, upto: int) -> list[np.ndarray]:
    """S^(1..upto) samples, every order solved by the recursion."""
    ex = _Expansion(spec, variant, params, grid)
    frames = ex.build(upto - 1)[1]
    g = ex.samples(ex.ts, *frames)
    return [ex.at(s, g) for s in frames]


def _transformed(n: int, frames: list[_Poly], h_orders: dict,
                 h0: np.ndarray) -> _Poly:
    """Order n of A^dag H A + i dA^dag/dt A with A = exp(-i S).

    S = sum_k eps^k S^(k) with S^(k) = frames[k-1], and H = H0/eps +
    sum_k eps^k H^(k) with H^(k) = h_orders[k].  With ad_S X = [S, X] the
    transform is sum_m i^m/m! ad_S^m H - sum_m i^m/(m+1)! ad_S^m dS/dt
    = sum_m Z_m, where Z_0 = H, Z_1 = i ad_S Z_0 - dS/dt and
    Z_m = (i/m) ad_S Z_(m-1).  ad_S raises the lowest order by one (Z_m
    starts at order m-1), so order n needs m <= n+1.  Each pass rewrites
    the orders from the top down, because order j of Z_m reads only lower
    orders of Z_(m-1); orders with no term are left out.  [S, H0] (Z_0 at
    order -1) is element-wise for the diagonal H0.
    """
    z = {k: h for k, h in h_orders.items() if k <= n}
    out = z.get(n, _Poly())
    for m in range(1, n + 2):
        for j in range(n, m - 2, -1):
            zj = _Poly()
            if m == 1 and 1 <= j <= len(frames):
                # Z_1 = i (ad_S Z_0 + i dS/dt): seed with the frame derivative
                zj = 1j * frames[j - 1].dt()
            for k, s in enumerate(frames, 1):
                if j - k in z:
                    zj = zj + s.comm(z[j - k])
            if m == 1 and j < len(frames):
                zj = zj + frames[j].comm_h0(h0)
            if zj:
                z[j] = (1j / m) * zj
            else:
                z.pop(j, None)
        z.pop(m - 2, None)
        if n in z:
            out = out + z.pop(n)  # no later pass reads the top order
    return out


def _h_eff(gen: HamiltonianGenerators, cs: ControlSet, s_total: np.ndarray,
           ds_total: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """h_eff_exact on nodes ``ts`` of [0, cs.t_g].

    With S = V diag(w) V^dag and A = V E V^dag, E = diag(exp(-i w)),
    Daleckii-Krein gives dA/dt = V (F o V^dag dS/dt V) V^dag with the
    divided differences F_ij = -i exp(-i (w_i + w_j)/2) sinc((w_i - w_j)/2).
    Folding A in, with D_ij = (w_i - w_j)/2,

        H_eff = V [exp(2iD) o V^dag H V - exp(iD) sinc(D) o V^dag dS/dt V] V^dag,

    which stays exact at equal eigenvalues (sinc(0) = 1).
    """
    ox, oy, dl = _sample_controls(cs, ts)
    hbar = cs.t_g * hamiltonian_at(gen, dl, ox, oy)
    w, v = np.linalg.eigh(s_total)
    vh = v.conj().swapaxes(-1, -2)
    d = 0.5 * (w[:, :, None] - w[:, None, :])
    half = np.exp(1j * d)
    inner = (half * half * (vh @ hbar @ v)
             - half * np.sinc(d / np.pi) * (vh @ ds_total @ v))
    return v @ inner @ vh


def h_eff_exact(spec: SystemSpec, cs: ControlSet, s_total: np.ndarray,
                ds_total: np.ndarray) -> np.ndarray:
    """Exact effective Hamiltonian A^dag H A + i dA^dag/dt A, dimensionless.

    ``s_total`` holds Hermitian samples of the summed frame generator on
    evenly spaced nodes of [0, cs.t_g], and ``ds_total`` its derivative in
    the scaled time t / cs.t_g on the same nodes; A = exp(-i S) per sample,
    and dA/dt follows from dS/dt exactly (Daleckii-Krein, see ``_h_eff``).
    """
    return _h_eff(generators(spec), cs, s_total, ds_total,
                  np.linspace(0.0, cs.t_g, len(s_total)))


# -- residual reports ---------------------------------------------------------

def _mismatch(ex: _Expansion, p: _Poly, target: bool = False) -> dict:
    """Traces of each monomial's coefficient: [x, y, z] of the qubit block,
    less the order-0 target G_bar in x if ``target``, then 2 Re and 2 Im of
    each qubit/leak coupling."""
    q0, q1 = ex.qubit_rows
    rows = {}
    for m, c in p.items():
        ql = 2.0 * c[ex.q, ex.l]
        rows[m] = np.concatenate([[2.0 * c[q0, q1].real, -2.0 * c[q0, q1].imag,
                                   (c[q0, q0] - c[q1, q1]).real],
                                  ql.real, ql.imag])
    if target:
        rows[(0,)][0] -= 1.0
    return rows


def _report(ex: _Expansion, p: _Poly, target: bool = False
            ) -> ExpansionReport:
    """Maxima over the nodes 0 .. N//2 of the traces of ``_mismatch``."""
    g = ex.samples(ex.half, p)
    out = np.zeros((g.shape[1], 3 + 2 * len(ex.q)))
    out = _sample(_mismatch(ex, p, target).items(), g, out)
    x, y, z, *coupling = np.abs(out).max(axis=0).tolist()
    return ExpansionReport({"x": x, "y": y, "z": z}, max(coupling))


def _check_order(order, report: str) -> None:
    """Refuse an order outside 0..3, a bool or a float such as 2.0 included."""
    if not (_is_integer(order) and 0 <= order <= 3):
        raise ValueError(f"{report} implemented for orders 0..3, got {order!r}")


def constraint_residuals(spec: SystemSpec, variant, params: GaussianParams,
                         grid: TimeGrid, order: int) -> ExpansionReport:
    """How well a published solution satisfies the order-n constraints.

    Evaluates H_eff^(n) = H_extra^(n) + H^(n) + i[S^(n+1), H0] with the
    variant's frames and reports the maximal qubit-block mismatch against
    the target (G_bar, 0, 0 at order 0, zero above) plus the maximal
    qubit/leak coupling trace.  S^(n+1) is the recursion's solution of the
    order-n no-leakage conditions, so the coupling trace reads zero up to
    round-off on every topology: it checks the solver, and the qubit block
    checks the control set.
    """
    _check_order(order, "constraint residuals")
    ex = _Expansion(spec, variant, params, grid)
    return _report(ex, ex.build(order)[2][order], order == 0)


def h_extra_report(spec: SystemSpec, variant, params: GaussianParams,
                   grid: TimeGrid, order: int) -> ExpansionReport:
    """Qubit-block and coupling maxima of H_extra^(n) alone: the order-n
    transform with S^(1..n) and H^(0..n-1), as built through order n - 1."""
    _check_order(order, "h_extra_report")
    ex = _Expansion(spec, variant, params, grid)
    hs, frames, _ = ex.build(order - 1)
    return _report(ex, _transformed(order, frames, hs, ex.h0))


def series_vs_exact_deviation(spec: SystemSpec, variant,
                              params: GaussianParams, grid: TimeGrid,
                              order: int) -> float:
    """Max deviation between the exact effective Hamiltonian and the series.

    The summed frame carries eps^m S^(m) for m <= order+1 and the series
    sums eps^m H_eff^(m) for m <= order (with every i[S^(m+1), H0] term
    included), so the deviation scales as eps^(order+1) under gate-time
    doubling.  Both are conjugated by the mirror t -> t_g - t, so the
    maximum is taken over the nodes 0 .. N//2.
    """
    _check_order(order, "series comparison")
    eps = 1.0 / (params.t_g * spec.delta2)
    ex = _Expansion(spec, variant, params, grid)
    _, frames, heffs = ex.build(order)
    series = sum((eps ** m * h for m, h in enumerate(heffs)),
                 _Poly({(): ex.h0 / eps}))
    s_total = sum((eps ** (m + 1) * s for m, s in enumerate(frames)), _Poly())
    ds_total = s_total.dt()
    g = ex.samples(ex.half, series, ds_total)
    dev = 0.0
    for lo in range(0, len(ex.half), _BLOCK):
        b = slice(lo, lo + _BLOCK)
        s, ds, ser = (ex.at(p, g[:, b]) for p in (s_total, ds_total, series))
        exact = _h_eff(ex.gen, ex.cs, s, ds, ex.half[b])
        dev = max(dev, float(np.max(np.abs(exact - ser))))
    return dev
