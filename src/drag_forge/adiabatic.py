"""Numerical verification of the order-by-order frame expansion.

Everything here works in dimensionless form: time is rescaled to [0, 1],
energies carry a factor t_g, and the drift is split off as H0/eps with
eps = 1/(t_g * delta2) the bookkeeping parameter.  The module evaluates

* the frame generators S^(n)(t) of the published control solutions,
* the extra Hamiltonians H_extra^(n) generated by the frame change, every
  order from one recursion in ad_S X = [S, X],
* the exact effective Hamiltonian A^dag H A + i dA^dag/dt A, and
* the per-order constraint residuals that the closed-form pulses claim
  to satisfy: one loop builds S^(1), S^(2), ... from one control set, each
  order's transform at most once and H_eff^(n) only for the orders a report
  reads; where a closed form fixes S^(n+1) (the ladder at n = 1), the
  order-n transform is built only if n is read, and then before S^(n+1).

Frames and Hamiltonians are Hermitian (T, d, d) samples on TimeGrid nodes
and H0 is diagonal: [S, X] = P - P^dag takes one product P = SX, [S, H0]
none.  S-derivatives use 4th-order finite differences.

Every quantity is pointwise in the node except those differences, so the
reports run over blocks of ``_BLOCK`` nodes (the propagator's block), each
widened by a halo of two nodes per nested derivative and folded into the
report's maxima; no report holds an (N + 1, d, d) stack, and each value is
bit-identical to the whole grid's.  ``frames_for`` and ``h_eff_exact``
return whole stacks and evaluate the grid as one window.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import (HamiltonianGenerators, SystemSpec, Topology, generators,
                    hamiltonian_at)
from .propagator import _BLOCK, TimeGrid, _sample_controls
from .pulses import Ansatz, ControlSet, GaussianParams, controls_for

__all__ = ["ExpansionReport", "frames_for", "h_eff_exact",
           "constraint_residuals", "h_extra_report", "series_vs_exact_deviation"]


@dataclass(frozen=True)
class ExpansionReport:
    """Residual maxima of the order-n constraint equations."""

    qubit_mismatch: dict
    coupling_residual: float


@dataclass(frozen=True)
class _Dimless:
    gen: HamiltonianGenerators  # the generators as built, for the exact route
    h0: np.ndarray          # drift / delta2
    ctl: HamiltonianGenerators  # control generators, zero drift
    qubit_rows: tuple       # (row of level 0, row of level 1)
    # the qubit/leakage couplings (q, l): rows q, rows l, delta_l/delta2
    q: np.ndarray
    l: np.ndarray
    dbar: np.ndarray


def _dimless(spec: SystemSpec) -> _Dimless:
    gen = generators(spec)
    d2 = spec.delta2
    pairs = [(q, spec.row(j), spec.delta[j] / d2) for q in spec.qubit_rows
             for j in spec.leakage_levels]
    q, l, dbar = (np.array(c) for c in zip(*pairs))
    ctl = HamiltonianGenerators(np.zeros_like(gen.h_drift), gen.h_z, gen.h_x,
                                gen.h_y, gen.levels)
    return _Dimless(gen, np.asarray(gen.h_drift) / d2, ctl, spec.qubit_rows,
                    q, l, dbar)


def _tbar(grid: TimeGrid) -> np.ndarray:
    return np.linspace(0.0, 1.0, grid.n_steps + 1)


class _Window(NamedTuple):
    """Grid nodes [lo, hi), h apart in scaled time; ``keep`` selects the
    block's own nodes among them, the rest is halo."""

    lo: int
    hi: int
    keep: slice
    h: float


def _whole(grid: TimeGrid) -> _Window:
    n = grid.n_steps + 1
    return _Window(0, n, slice(0, n), 1.0 / grid.n_steps)


def _windows(grid: TimeGrid, depth: int):
    """The grid's nodes in blocks of ``_BLOCK``, each widened by 2*depth.

    ``_fd4`` reads two nodes on each side, and at an inner window edge its
    one-sided stencil differs from the whole grid's central one; so each
    nested derivative spoils two more nodes in from that edge, and a
    quantity with ``depth`` nested derivatives is exact on the block.  A
    last block shorter than the stencils' five nodes joins the one before.
    """
    n = grid.n_steps + 1
    cuts = list(range(0, n, _BLOCK)) + [n]
    if len(cuts) > 2 and cuts[-1] - cuts[-2] < 5:
        del cuts[-2]
    halo = 2 * depth
    for a, b in zip(cuts, cuts[1:]):
        lo, hi = max(a - halo, 0), min(b + halo, n)
        yield _Window(lo, hi, slice(a - lo, b - lo), 1.0 / grid.n_steps)


def _fd4(f: np.ndarray, h: float) -> np.ndarray:
    """4th-order finite differences along axis 0, one-sided at the ends."""
    out = np.empty_like(f)
    # ((-f[i+2] + 8 f[i+1]) - 8 f[i-1]) + f[i-2], then / 12h, in place:
    # this order of the operations fixes every bit of the result
    mid = np.negative(f[4:], out=out[2:-2])
    tmp = np.multiply(8.0, f[3:-1])
    mid += tmp
    mid -= np.multiply(8.0, f[1:-3], out=tmp)
    mid += f[:-4]
    mid /= 12.0 * h
    out[0] = (-25.0 * f[0] + 48.0 * f[1] - 36.0 * f[2]
              + 16.0 * f[3] - 3.0 * f[4]) / (12.0 * h)
    out[1] = (-3.0 * f[0] - 10.0 * f[1] + 18.0 * f[2]
              - 6.0 * f[3] + f[4]) / (12.0 * h)
    out[-2] = (3.0 * f[-1] + 10.0 * f[-2] - 18.0 * f[-3]
               + 6.0 * f[-4] - f[-5]) / (12.0 * h)
    out[-1] = (25.0 * f[-1] - 48.0 * f[-2] + 36.0 * f[-3]
               - 16.0 * f[-4] + 3.0 * f[-5]) / (12.0 * h)
    return out


def _comm(a, b, acc=None):
    """[a, b] of Hermitian a, b as P - P^dag, P = ab; added in place to acc."""
    p = a @ b
    q = p.swapaxes(-1, -2).copy()  # contiguous: no strided ufunc buffer
    if acc is not None:
        p = np.add(acc, p, out=acc)
    return np.subtract(p, np.conjugate(q, out=q), out=p)


def _comm_h0(s, h0, acc=None):
    """acc + [S, H0] for the diagonal H0 = diag(w): S_ij (w_j - w_i)."""
    w = np.diagonal(h0)
    c = s * (w - w[:, None])
    return c if acc is None else np.add(acc, c, out=acc)


# -- frame generators ---------------------------------------------------------

def _recursion_frame(ds: _Dimless, m_stack: np.ndarray) -> np.ndarray:
    """Constrained part of S^(n+1) from the no-leakage conditions.

    With M = H_extra^(n) + H^(n), the (q, l) entry of M + i[S^(n+1), H0]
    must vanish for each qubit row q and leakage row l; since H0 has no
    qubit-block weight this solves entry-wise to
    S^(n+1)[q, l] = i M[q, l] / dbar_l.
    """
    s = np.zeros_like(m_stack)
    s[:, ds.q, ds.l] = 1j * m_stack[:, ds.q, ds.l] / ds.dbar
    s[:, ds.l, ds.q] = np.conj(s[:, ds.q, ds.l])
    return s


def _frame_second_order(spec: SystemSpec, sa: float, g: np.ndarray,
                        dg: np.ndarray) -> np.ndarray:
    """Closed-form S^(2)(t) samples, (T, d, d), for the ladder variants.

    Obtained by substituting S^(1) into the order-1 no-leakage conditions:

        s2_y02 = -(lam1 / 4) (1 + sa) G^2
        s2_x12 = +(lam1 / 2) (1 + 2 sa) dG
        s2_y13 = +(lam1 lam2 / (4 dbar3)) G^2     (d >= 4)

    with sa the variant's free s_y01 coefficient and (g, dg) the
    dimensionless envelope and its derivative.  Kept independent of the
    recursion solver so the residual checks exercise two separate routes.
    """
    lam1 = spec.lam[1]
    s2 = np.zeros((g.shape[0], spec.d, spec.d), dtype=complex)

    def put(r1, r2, sx, sy):
        s2[:, r1, r2] += sx - 1j * sy
        s2[:, r2, r1] += sx + 1j * sy

    put(0, 2, 0.0, -(lam1 / 4.0) * (1.0 + sa) * g * g)
    put(1, 2, (lam1 / 2.0) * (1.0 + 2.0 * sa) * dg, 0.0)
    if spec.d >= 4:
        lam2 = spec.lam[2]
        dbar3 = spec.delta[3] / spec.delta2
        put(1, 3, 0.0, (lam1 * lam2 / (4.0 * dbar3)) * g * g)
    return s2


class _Expansion:
    """One control set's frame expansion, evaluated window by window.

    Builds the control set and samples the envelope once; ``window`` runs
    the order-by-order loop on the nodes of one window.
    """

    def __init__(self, spec: SystemSpec, variant, params: GaussianParams,
                 grid: TimeGrid):
        if isinstance(variant, Ansatz):
            raise ValueError("the numeric ansatz has no documented frame")
        if not math.isclose(grid.t_g, params.t_g, rel_tol=1e-12):
            # the exact route samples the controls on [0, grid.t_g]
            raise ValueError(f"grid t_g={grid.t_g!r} differs from the pulse's "
                             f"t_g={params.t_g!r}")
        self.spec = spec
        self.ds = _dimless(spec)
        self.cs = controls_for(spec, variant, params)
        tg = self.cs.t_g  # the envelope and its derivative in scaled time
        g, dg = self.cs.envelope(_tbar(grid) * tg)
        self.gbar, self.dg = tg * g, tg * tg * dg

    def window(self, win: _Window, upto: int, read=()):
        """The expansion through order ``upto`` on one window: (hs, frames,
        heffs).

        Builds H^(0..upto) and the frames S^(1..upto+1) in order, and
        heffs[n] = H_eff^(n) = M + i[S^(n+1), H0] for each n in ``read``.
        M = H_extra^(n) + H^(n) is the order-n transform with S^(1..n); a
        recursion frame is solved from it, and where a closed form fixes
        S^(n+1) (the ladder at n = 1) M is built only if n is read, and
        then before S^(n+1).
        """
        ds = self.ds
        b1, c2, a3 = self.cs.b1, self.cs.c2, self.cs.a3
        gbar, dg = self.gbar[win.lo:win.hi], self.dg[win.lo:win.hi]
        zero = np.zeros_like(gbar)
        # (delta, omega_x, omega_y) of each order; orders with no field left out
        fields = {0: (zero, gbar, zero)}
        if b1 or c2:
            fields[1] = (c2 * gbar * gbar, zero, b1 * dg)
        if a3:
            fields[2] = (zero, a3 * gbar ** 3, zero)
        hs = {n: hamiltonian_at(ds.ctl, *f) for n, f in fields.items()
              if n <= upto}
        del zero, fields  # not held through the transforms
        # the free element s_y01 = sa * G_bar of S^(1) is fixed by the
        # quadrature field, omega_y_bar^(1) = 2 d(s_y01)/dt, so sa = b1 / 2;
        # S^(2) reads it too
        sa = b1 / 2.0
        frames: list[np.ndarray] = []
        heffs = {}
        for n in range(upto + 1):
            closed = n == 1 and self.spec.topology is Topology.LADDER
            m = (None if closed and n not in read
                 else _transformed(n, frames, hs, ds.h0, win))
            s = (_frame_second_order(self.spec, sa, gbar, dg) if closed
                 else _recursion_frame(ds, m))
            if n == 0:
                q0, q1 = ds.qubit_rows
                s[:, q0, q1] += -1j * sa * gbar
                s[:, q1, q0] += 1j * sa * gbar
            frames.append(s)
            if n in read:  # formed in M's place
                heffs[n] = _comm_h0(s, 1j * ds.h0, m)
            del m
        return hs, frames, heffs


def frames_for(spec: SystemSpec, variant, params: GaussianParams,
               grid: TimeGrid, upto: int) -> list[np.ndarray]:
    """S^(1..upto) samples: closed forms where documented, else recursion."""
    ex = _Expansion(spec, variant, params, grid)
    return ex.window(_whole(grid), upto - 1)[1]


def _transformed(n: int, frames: list[np.ndarray], h_orders: dict,
                 h0: np.ndarray, win: _Window) -> np.ndarray:
    """Order n of A^dag H A + i dA^dag/dt A with A = exp(-i S).

    S = sum_k eps^k S^(k) with S^(k) = frames[k-1], and H = H0/eps +
    sum_k eps^k H^(k) with H^(k) = h_orders[k].  With ad_S X = [S, X] the
    transform is sum_m i^m/m! ad_S^m H - sum_m i^m/(m+1)! ad_S^m dS/dt
    = sum_m Z_m, where Z_0 = H, Z_1 = i ad_S Z_0 - dS/dt and
    Z_m = (i/m) ad_S Z_(m-1).  ad_S raises the lowest order by one (Z_m
    starts at order m-1), so order n needs m <= n+1.  Each pass rewrites
    the orders from the top down, in place, because order j of Z_m reads
    only lower orders of Z_(m-1); orders with no term are left out rather
    than held as zero stacks.

    Frames and H stacks must be Hermitian and H0 diagonal: every Z_m is
    then Hermitian, [S, X] is P - P^dag of one product P = SX, and [S, H0]
    (Z_0 at order -1) is element-wise.  The stacks sample the window's
    nodes.
    """
    t, d = win.hi - win.lo, h0.shape[0]
    z = {k: h for k, h in h_orders.items() if k <= n}
    out = z[n].copy() if n in z else np.zeros((t, d, d), dtype=complex)
    for m in range(1, n + 2):
        for j in range(n, m - 2, -1):
            zj = None
            if m == 1 and 1 <= j <= len(frames):
                # Z_1 = i (ad_S Z_0 + i dS/dt): seed with the frame derivative
                zj = _fd4(frames[j - 1], win.h)
                np.multiply(1j, zj, out=zj)
            for k, s in enumerate(frames, 1):
                x = z.get(j - k)
                if x is not None:
                    zj = _comm(s, x, zj)
            if m == 1 and j < len(frames):
                zj = _comm_h0(frames[j], h0, zj)
            if zj is None:
                z.pop(j, None)
            else:
                zj *= 1j / m
                z[j] = zj
        z.pop(m - 2, None)
        if n in z:
            out += z.pop(n)  # no later pass reads the top order
    return out


def _h_eff(gen: HamiltonianGenerators, cs: ControlSet, s_total: np.ndarray,
           ts: np.ndarray, h: float) -> np.ndarray:
    """h_eff_exact on nodes ``ts`` of [0, cs.t_g], h apart in scaled time."""
    ox, oy, dl = _sample_controls(cs, ts)
    hbar = cs.t_g * hamiltonian_at(gen, dl, ox, oy)
    w, v = np.linalg.eigh(s_total)
    a = (v * np.exp(-1j * w)[:, None, :]) @ v.conj().swapaxes(-1, -2)
    da = _fd4(a, h)
    return a.conj().swapaxes(-1, -2) @ hbar @ a \
        + 1j * da.conj().swapaxes(-1, -2) @ a


def h_eff_exact(spec: SystemSpec, cs: ControlSet,
                s_total: np.ndarray) -> np.ndarray:
    """Exact effective Hamiltonian A^dag H A + i dA^dag/dt A, dimensionless.

    ``s_total`` holds Hermitian samples of the summed frame generator on
    evenly spaced nodes of [0, cs.t_g]; A = exp(-i S) per sample, with the
    derivative term computed by 4th-order finite differences of A itself.
    """
    n = len(s_total)
    if n < 5:  # the one-sided difference stencils span five nodes
        raise ValueError(f"s_total needs at least 5 samples, got {n}")
    return _h_eff(generators(spec), cs, s_total,
                  np.linspace(0.0, cs.t_g, n), 1.0 / (n - 1))


# -- residual reports ---------------------------------------------------------

def _component_maxima(ds: _Dimless, m_stack: np.ndarray,
                      gx=0.0) -> np.ndarray:
    """[x, y, z, coupling]: the qubit-block trace mismatches, x against the
    target gx, and the worst qubit/leak coupling trace."""
    q0, q1 = ds.qubit_rows
    tx = 2.0 * np.real(m_stack[:, q0, q1]) - gx
    ty = -2.0 * np.imag(m_stack[:, q0, q1])
    tz = np.real(m_stack[:, q0, q0] - m_stack[:, q1, q1])
    c = m_stack[:, ds.q, ds.l]
    return np.array([np.abs(tx).max(), np.abs(ty).max(), np.abs(tz).max(),
                     2.0 * max(np.abs(c.real).max(), np.abs(c.imag).max())])


def _report(rows: list[np.ndarray]) -> ExpansionReport:
    """Fold the blocks' maxima into one report; max is exact."""
    x, y, z, coupling = np.max(rows, axis=0).tolist()
    return ExpansionReport({"x": x, "y": y, "z": z}, coupling)


def constraint_residuals(spec: SystemSpec, variant, params: GaussianParams,
                         grid: TimeGrid, order: int) -> ExpansionReport:
    """How well a published solution satisfies the order-n constraints.

    Evaluates H_eff^(n) = H_extra^(n) + H^(n) + i[S^(n+1), H0] with the
    variant's frames and reports the maximal qubit-block mismatch against
    the target (G_bar, 0, 0 at order 0, zero above) plus the maximal
    qubit/leak coupling trace.  S^(n+1) uses the analytic ladder closed
    form at order 1, making the leakage numbers a genuine two-route check;
    elsewhere it comes from the recursion solver.
    """
    if order < 0 or order > 2:
        raise ValueError("constraint residuals implemented for orders 0..2")
    ex = _Expansion(spec, variant, params, grid)
    rows = []
    for win in _windows(grid, order):  # H_eff^(n) holds n nested derivatives
        heff = ex.window(win, order, (order,))[2].pop(order)
        g = ex.gbar[win.lo:win.hi][win.keep] if order == 0 else 0.0
        rows.append(_component_maxima(ex.ds, heff[win.keep], g))
    return _report(rows)


def h_extra_report(spec: SystemSpec, variant, params: GaussianParams,
                   grid: TimeGrid, order: int) -> ExpansionReport:
    """Qubit-block and coupling maxima of H_extra^(n) alone: the order-n
    transform with S^(1..n) and H^(0..n-1), as built through order n - 1."""
    if order < 0 or order > 3:
        raise ValueError("h_extra_report implemented for orders 0..3")
    ex = _Expansion(spec, variant, params, grid)
    rows = []
    for win in _windows(grid, order):  # dS^(n)/dt, and S^(n) holds n - 1
        hs, frames, _ = ex.window(win, order - 1)
        hx_n = _transformed(order, frames, hs, ex.ds.h0, win)
        rows.append(_component_maxima(ex.ds, hx_n[win.keep]))
    return _report(rows)


def series_vs_exact_deviation(spec: SystemSpec, variant,
                              params: GaussianParams, grid: TimeGrid,
                              order: int) -> float:
    """Max deviation between the exact effective Hamiltonian and the series.

    The summed frame carries eps^m S^(m) for m <= order+1 and the series
    sums eps^m H_eff^(m) for m <= order (with every i[S^(m+1), H0] term
    included), so the deviation scales as eps^(order+1) under gate-time
    doubling.
    """
    if order < 0 or order > 3:
        raise ValueError("series comparison implemented for orders 0..3")
    eps = 1.0 / (params.t_g * spec.delta2)
    ex = _Expansion(spec, variant, params, grid)
    ts = np.linspace(0.0, ex.cs.t_g, grid.n_steps + 1)
    devs = []
    # S^(order+1) holds order nested derivatives, and dA/dt one more
    for win in _windows(grid, order + 1):
        _, frames, heffs = ex.window(win, order, range(order + 1))
        series = ex.ds.h0 / eps
        for m in range(order + 1):
            series = series + eps ** m * heffs.pop(m)
        s_total = sum(eps ** (m + 1) * s for m, s in enumerate(frames))
        del frames  # not held through the exact transform
        exact = _h_eff(ex.ds.gen, ex.cs, s_total, ts[win.lo:win.hi], win.h)
        devs.append(np.max(np.abs(exact[win.keep] - series[win.keep])))
    return float(np.max(devs))
