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
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (HamiltonianGenerators, SystemSpec, Topology, generators,
                    hamiltonian_at)
from .propagator import TimeGrid, _sample_controls
from .pulses import (Ansatz, ControlSet, DragVariant, GaussianEnvelope,
                     GaussianParams, controls_for, first_order_coefficients)

__all__ = ["ExpansionReport", "frame_second_order", "frames_for", "h_extra",
           "h_eff_exact", "constraint_residuals", "h_extra_report",
           "series_vs_exact_deviation"]


@dataclass(frozen=True)
class ExpansionReport:
    """Residual maxima of the order-n constraint equations."""

    qubit_mismatch: dict
    coupling_residual: float


@dataclass(frozen=True)
class _Dimless:
    h0: np.ndarray          # drift / delta2
    ctl: HamiltonianGenerators  # control generators, zero drift
    qubit_rows: tuple       # (row of level 0, row of level 1)
    leak: tuple             # ((row, delta_j/delta2), ...) for leakage levels


def _dimless(spec: SystemSpec) -> _Dimless:
    gen = generators(spec)
    d2 = spec.delta2
    leak = tuple((spec.row(j), spec.delta[j] / d2) for j in spec.leakage_levels)
    ctl = HamiltonianGenerators(np.zeros_like(gen.h_drift), gen.h_z, gen.h_x,
                                gen.h_y, gen.levels)
    return _Dimless(np.asarray(gen.h_drift) / d2, ctl, spec.qubit_rows, leak)


def _tbar(grid: TimeGrid) -> np.ndarray:
    return np.linspace(0.0, 1.0, grid.n_steps + 1)


def _bars(params: GaussianParams, tbar: np.ndarray):
    """Dimensionless envelope and derivative w.r.t. the scaled time."""
    env = GaussianEnvelope(params)
    t = tbar * params.t_g
    tg = params.t_g
    return tg * env.value(t), tg * tg * env.d1(t)


def _fd4(series: np.ndarray, h: float) -> np.ndarray:
    """4th-order finite differences along axis 0, one-sided at the ends."""
    f = series
    out = np.empty_like(f)
    out[2:-2] = (-f[4:] + 8.0 * f[3:-1] - 8.0 * f[1:-3] + f[:-4]) / (12.0 * h)
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
    if acc is None:
        q = p.swapaxes(-1, -2).copy()  # contiguous: no strided ufunc buffer
        return np.subtract(p, np.conjugate(q, out=q), out=p)
    acc += p
    return np.subtract(acc, np.conjugate(p, out=p).swapaxes(-1, -2), out=acc)


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
    for q in ds.qubit_rows:
        for l, dbar in ds.leak:
            s[:, q, l] = 1j * m_stack[:, q, l] / dbar
            s[:, l, q] = np.conj(s[:, q, l])
    return s


def frame_second_order(spec: SystemSpec, variant, params: GaussianParams,
                       grid: TimeGrid) -> np.ndarray:
    """Closed-form S^(2)(t) samples, (T, d, d), for the ladder variants.

    Obtained by substituting S^(1) into the order-1 no-leakage conditions:

        s2_y02 = -(lam1 / 4) (1 + sa) G^2
        s2_x12 = +(lam1 / 2) (1 + 2 sa) dG
        s2_y13 = +(lam1 lam2 / (4 dbar3)) G^2     (d >= 4)

    with sa the variant's free s_y01 coefficient.  Kept independent of the
    recursion solver so the residual checks exercise two separate routes.
    """
    if spec.topology is not Topology.LADDER:
        raise ValueError("closed-form S^(2) is available for ladder systems only")
    if isinstance(variant, Ansatz):
        raise ValueError("the numeric ansatz has no documented frame")
    g, dg = _bars(params, _tbar(grid))
    # free s_y01 coefficient: omega_y_bar^(1) = 2 d(s_y01)/dt gives b1 / 2
    sa = first_order_coefficients(spec, DragVariant(variant))[0] / 2.0
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


def _expansion(spec: SystemSpec, variant, params: GaussianParams,
               grid: TimeGrid, upto: int, read=()):
    """The expansion through order ``upto``: (ds, cs, hs, frames, heffs).

    Builds the control set once, H^(0..upto) and the frames S^(1..upto+1)
    in order, and heffs[n] = H_eff^(n) = M + i[S^(n+1), H0] for each n in
    ``read``.  M = H_extra^(n) + H^(n) is the order-n transform with
    S^(1..n); a recursion frame is solved from it, and where a closed form
    fixes S^(n+1) (the ladder at n = 1) M is built only if n is read, and
    then before S^(n+1).
    """
    if isinstance(variant, Ansatz):
        raise ValueError("the numeric ansatz has no documented frame")
    ds = _dimless(spec)
    cs = controls_for(spec, variant, params)
    b1, c2, a3 = (cs.params[k] for k in ("b1", "c2", "a3"))
    gbar, dg = _bars(params, _tbar(grid))
    zero = np.zeros_like(gbar)
    # (delta, omega_x, omega_y) of each order; orders with no field left out
    fields = {0: (zero, gbar, zero)}
    if b1 or c2:
        fields[1] = (c2 * gbar * gbar, zero, b1 * dg)
    if a3:
        fields[2] = (zero, a3 * gbar ** 3, zero)
    hs = {n: hamiltonian_at(ds.ctl, *f) for n, f in fields.items() if n <= upto}
    del zero, dg, fields  # not held through the transforms
    frames: list[np.ndarray] = []
    heffs = {}
    for n in range(upto + 1):
        closed = n == 1 and spec.topology is Topology.LADDER
        m = (None if closed and n not in read
             else _transformed(n, frames, hs, ds.h0, grid))
        s = (frame_second_order(spec, variant, params, grid) if closed
             else _recursion_frame(ds, m))
        if n == 0:
            # the free element s_y01 = coeff * G_bar is fixed by the quadrature
            # field, omega_y_bar^(1) = 2 d(s_y01)/dt, so coeff = b1 / 2
            coeff = b1 / 2.0
            q0, q1 = ds.qubit_rows
            s[:, q0, q1] += -1j * coeff * gbar
            s[:, q1, q0] += 1j * coeff * gbar
        frames.append(s)
        if n in read:  # formed in M's place
            heffs[n] = _comm_h0(s, 1j * ds.h0, m)
        del m
    return ds, cs, hs, frames, heffs


def frames_for(spec: SystemSpec, variant, params: GaussianParams,
               grid: TimeGrid, upto: int) -> list[np.ndarray]:
    """S^(1..upto) samples: closed forms where documented, else recursion."""
    return _expansion(spec, variant, params, grid, upto - 1)[3]


def _transformed(n: int, frames: list[np.ndarray], h_orders: dict,
                 h0: np.ndarray, grid: TimeGrid) -> np.ndarray:
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
    (Z_0 at order -1) is element-wise.
    """
    t, d = grid.n_steps + 1, h0.shape[0]
    z = {k: h for k, h in h_orders.items() if k <= n}
    out = z[n].copy() if n in z else np.zeros((t, d, d), dtype=complex)
    for m in range(1, n + 2):
        for j in range(n, m - 2, -1):
            zj = None
            if m == 1 and 1 <= j <= len(frames):
                # Z_1 = i (ad_S Z_0 + i dS/dt): seed with the frame derivative
                zj = 1j * _fd4(frames[j - 1], 1.0 / grid.n_steps)
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


def h_extra(n: int, frames: list[np.ndarray], h_orders: dict,
            h0: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """The order-n extra Hamiltonian generated by the frame change.

    ``frames`` lists Hermitian (T, d, d) samples of S^(1), S^(2), ... (those
    beyond order n are ignored), ``h_orders`` maps order -> Hermitian control
    stack and ``h0`` is diagonal; frame derivatives are 4th-order differences.
    H_extra^(n) is the order-n transform with S^(1..n) and H^(0..n-1).
    """
    if n not in (0, 1, 2, 3):
        raise ValueError("h_extra implements orders 0..3")
    if len(frames) < n:
        raise ValueError(f"order {n} needs frames up to S^({n})")
    below = {k: h for k, h in h_orders.items() if k < n}
    return _transformed(n, frames[:n], below, h0, grid)


def h_eff_exact(spec: SystemSpec, cs: ControlSet, s_total: np.ndarray,
                grid: TimeGrid) -> np.ndarray:
    """Exact effective Hamiltonian A^dag H A + i dA^dag/dt A, dimensionless.

    ``s_total`` holds Hermitian samples of the summed frame generator on
    the grid nodes; A = exp(-i S) per sample, with the derivative term
    computed by 4th-order finite differences of A itself.
    """
    ox, oy, dl = _sample_controls(cs, grid.nodes())
    hbar = grid.t_g * hamiltonian_at(generators(spec), dl, ox, oy)
    w, v = np.linalg.eigh(s_total)
    a = (v * np.exp(-1j * w)[:, None, :]) @ v.conj().swapaxes(-1, -2)
    da = _fd4(a, 1.0 / grid.n_steps)
    return a.conj().swapaxes(-1, -2) @ hbar @ a \
        + 1j * da.conj().swapaxes(-1, -2) @ a


# -- residual reports ---------------------------------------------------------

def _component_maxima(ds: _Dimless, m_stack: np.ndarray,
                      targets=None) -> tuple[dict, float]:
    """Qubit-block trace mismatches and the worst qubit/leak coupling trace."""
    q0, q1 = ds.qubit_rows
    tx = 2.0 * np.real(m_stack[:, q0, q1])
    ty = -2.0 * np.imag(m_stack[:, q0, q1])
    tz = np.real(m_stack[:, q0, q0] - m_stack[:, q1, q1])
    if targets is not None:
        gx, gy, gz = targets
        tx, ty, tz = tx - gx, ty - gy, tz - gz
    mismatch = {"x": float(np.max(np.abs(tx))),
                "y": float(np.max(np.abs(ty))),
                "z": float(np.max(np.abs(tz)))}
    coupling = 0.0
    for q in ds.qubit_rows:
        for l, _ in ds.leak:
            coupling = max(coupling,
                           2.0 * float(np.max(np.abs(m_stack[:, q, l].real))),
                           2.0 * float(np.max(np.abs(m_stack[:, q, l].imag))))
    return mismatch, coupling


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
    ds, *_, heffs = _expansion(spec, variant, params, grid, order, (order,))
    heff = heffs.pop(order)

    g, _ = _bars(params, _tbar(grid))
    targets = (g, 0.0, 0.0) if order == 0 else (0.0, 0.0, 0.0)
    return ExpansionReport(*_component_maxima(ds, heff, targets))


def h_extra_report(spec: SystemSpec, variant, params: GaussianParams,
                   grid: TimeGrid, order: int) -> ExpansionReport:
    """Qubit-block and coupling maxima of H_extra^(n) alone."""
    ds, _, hs, frames, _ = _expansion(spec, variant, params, grid, order - 1)
    hx_n = h_extra(order, frames, hs, ds.h0, grid)
    return ExpansionReport(*_component_maxima(ds, hx_n))


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
    ds, cs, hs, frames, heffs = _expansion(spec, variant, params, grid, order,
                                           range(order + 1))
    series = ds.h0 / eps
    for m in range(order + 1):
        series = series + eps ** m * heffs.pop(m)
    s_total = sum(eps ** (m + 1) * s for m, s in enumerate(frames))
    del hs, frames  # not held through the exact transform

    exact = h_eff_exact(spec, cs, s_total, grid)
    return float(np.max(np.abs(exact - series)))
