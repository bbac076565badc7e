"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured numbers (run with -s to see them live).
"""
import math
import time

import numpy as np
import pytest

from drag_forge import (Ansatz, DragVariant, GaussianParams, TimeGrid,
                        average_gate_fidelity, build_controls,
                        build_intermediate_sno, build_sno, build_star,
                        converge, effective_lambda, gate_error,
                        ideal_not, phase_ramp, propagate)
from drag_forge.adiabatic import (constraint_residuals, frames_for,
                                  h_extra_report, series_vs_exact_deviation,
                                  _Expansion, _transformed)
from drag_forge.dressing import CavitySpec, dressed_params, lambda_sno
from drag_forge.model import SystemSpec, Topology, generators
from drag_forge.optimizer import OptimizeTask, optimize
from drag_forge.pulses import controls_for, first_order_coefficients

TWO_PI = 2.0 * math.pi
_T0 = time.time()


def _report(cid: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {cid}: {detail}"


def _error(spec, variant, sigma, n_steps=4096):
    params = GaussianParams.for_not(sigma)
    cs = controls_for(spec, variant, params)
    u = propagate(spec, cs, TimeGrid(params.t_g, n_steps))
    uid = ideal_not(spec.d, spec.qubit_rows)
    return gate_error(u, uid, spec.qubit_rows)


@pytest.fixture(scope="module")
def sno5():
    return build_sno(5, -TWO_PI)


@pytest.fixture(scope="module")
def inter5():
    return build_intermediate_sno(5, -TWO_PI)


@pytest.fixture(scope="module")
def star6():
    return build_star([-TWO_PI, -2 * TWO_PI, -3 * TWO_PI, -4 * TWO_PI],
                      [1.0, 1.0, 1.0, 1.0])


def test_criterion_1_gaussian_benchmark(sno5):
    start = time.time()
    targets = {1 / 3: 0.198, 2 / 3: 0.0160, 3 / 2: 0.0030}
    measured = {s: _error(sno5, DragVariant.GAUSSIAN0, s) for s in targets}
    elapsed = time.time() - start
    ok = all(abs(measured[s] - t) <= 0.05 * t for s, t in targets.items())
    ok = ok and elapsed < 5.0
    detail = ("errors " + ", ".join(f"{measured[s]:.4f}/{t}" for s, t in
                                    targets.items())
              + f" (measured/target, +-5%), runtime {elapsed:.2f}s < 5s")
    _report("1", ok, detail)


def test_criterion_2_first_order_ordering(sno5):
    start = time.time()
    checks = []
    details = []
    for s in (2 / 3, 1.0, 3 / 2):
        e = {v: _error(sno5, v, s) for v in
             (DragVariant.GAUSSIAN0, DragVariant.Z_ONLY1, DragVariant.Y_ONLY1,
              DragVariant.OPTIMAL1, DragVariant.DRAG1)}
        ordered = (e[DragVariant.OPTIMAL1] < e[DragVariant.Y_ONLY1]
                   < e[DragVariant.Z_ONLY1] < e[DragVariant.GAUSSIAN0])
        y_beats_d = e[DragVariant.Y_ONLY1] < e[DragVariant.DRAG1]
        checks.append(ordered and y_beats_d)
        details.append(f"sigma={s:.3g}: O1<Y1<Z1<G0 {ordered}, Y1<D1 {y_beats_d}")
    elapsed = time.time() - start
    ok = all(checks) and elapsed < 30.0
    _report("2", ok, "; ".join(details) + f"; runtime {elapsed:.2f}s < 30s")


def test_criterion_3_second_order_supremacy(sno5):
    checks = []
    details = []
    for s in (2 / 3, 1.0, 3 / 2):
        e = {v: _error(sno5, v, s) for v in
             (DragVariant.OPTIMAL1, DragVariant.Z_ONLY2, DragVariant.Y_ONLY2,
              DragVariant.DRAG2)}
        beats_optimal = e[DragVariant.DRAG2] < e[DragVariant.OPTIMAL1]
        beats_others = e[DragVariant.DRAG2] <= min(e[DragVariant.Z_ONLY2],
                                                   e[DragVariant.Y_ONLY2])
        checks.append(beats_optimal and beats_others)
        details.append(
            f"sigma={s:.3g}: D2={e[DragVariant.DRAG2]:.2e} "
            f"O1={e[DragVariant.OPTIMAL1]:.2e} "
            f"min(Z2,Y2)={min(e[DragVariant.Z_ONLY2], e[DragVariant.Y_ONLY2]):.2e} "
            f"-> {'ok' if checks[-1] else 'violated'}")
    _report("3", all(checks), "; ".join(details))


def test_criterion_4_expansion_verification(sno5):
    params = GaussianParams.for_not(1.0)
    grid = TimeGrid(params.t_g, 4096)

    # (a) zeroth order vanishes identically
    ex = _Expansion(sno5, DragVariant.DRAG1, params, grid)
    a_ok = _transformed(0, [], {}, ex.h0) == {}  # the empty polynomial

    # (b) published first-order solution satisfies the no-leakage conditions
    r1 = constraint_residuals(sno5, DragVariant.DRAG1, params, grid, 1)
    b_ok = r1.coupling_residual < 1e-8

    # (c) the optimal choice needs no second-order control correction and
    #     the order-2 constraint closes
    hx2 = h_extra_report(sno5, DragVariant.OPTIMAL1, params, grid, 2)
    r2 = constraint_residuals(sno5, DragVariant.OPTIMAL1, params, grid, 2)
    c_ok = (max(hx2.qubit_mismatch.values()) < 1e-6
            and max(r2.qubit_mismatch.values()) < 1e-6
            and r2.coupling_residual < 1e-6)

    # (d) series truncated at order n deviates from the exact effective
    #     Hamiltonian with slope n+1 under gate-time doubling
    slopes = []
    for order in (0, 1, 2):
        devs = []
        for tg in (4.0, 8.0, 16.0):
            p = GaussianParams(math.pi, tg / 4, tg)
            devs.append(series_vs_exact_deviation(
                sno5, DragVariant.OPTIMAL1, p, TimeGrid(tg, 2048), order))
        slopes.append(0.5 * (math.log2(devs[0] / devs[1])
                             + math.log2(devs[1] / devs[2])))
    d_ok = all(abs(s - (n + 1)) < 0.3 for n, s in enumerate(slopes))

    ok = a_ok and b_ok and c_ok and d_ok
    _report("4", ok,
            f"(a) H_extra0==0 {a_ok}; "
            f"(b) drag1 order-1 leakage {r1.coupling_residual:.1e} < 1e-8; "
            f"(c) optimal1 Hx2 qubit {max(hx2.qubit_mismatch.values()):.1e}, "
            f"order-2 residuals {max(r2.qubit_mismatch.values()):.1e}/"
            f"{r2.coupling_residual:.1e} < 1e-6; "
            f"(d) slopes {[f'{s:.2f}' for s in slopes]} vs (1,2,3) +-0.3")


def test_criterion_5_lambda_tilde_equivalence(star6):
    params = GaussianParams.for_not(1.0)
    # direct-sum oracle for the d=6 example
    oracle = math.sqrt(1 + 1 / 4 + 1 / 9 + 1 / 16)
    lt = effective_lambda(star6)
    value_ok = abs(lt - oracle) < 1e-5

    ladder = SystemSpec(Topology.LADDER, 3, {0: 0.0, 1: 0.0, 2: -TWO_PI},
                        {0: 1.0, 1: lt})
    ts = np.linspace(0.0, params.t_g, 1000)
    worst = 0.0
    for v in (DragVariant.Z_ONLY1, DragVariant.Y_ONLY1, DragVariant.OPTIMAL1):
        a = controls_for(star6, v, params)
        b = controls_for(ladder, v, params)
        for chan in ("omega_x", "omega_y", "delta"):
            dev = float(np.max(np.abs(np.asarray(getattr(a, chan)(ts))
                                      - np.asarray(getattr(b, chan)(ts)))))
            worst = max(worst, dev)
    ok = value_ok and worst < 1e-12
    _report("5", ok, f"lambda_tilde={lt:.7f} vs direct sum {oracle:.7f} "
                     f"(+-1e-5); waveform max dev {worst:.1e} < 1e-12")


def test_criterion_6_multi_leakage_improvement(inter5, star6):
    variants = (DragVariant.Z_ONLY1, DragVariant.Y_ONLY1, DragVariant.OPTIMAL1)
    checks, details = [], []
    for label, spec in (("intermediate", inter5), ("star", star6)):
        e0 = _error(spec, DragVariant.GAUSSIAN0, 1.0)
        e = {v: _error(spec, v, 1.0) for v in variants}
        factors = {v: e0 / e[v] for v in variants}
        five_x = all(f >= 5.0 for f in factors.values())
        best = e[DragVariant.OPTIMAL1] <= min(e.values())
        checks.append(five_x and best)
        details.append(
            f"{label}: improvements "
            + ", ".join(f"{v.value}={factors[v]:.2f}x" for v in variants)
            + f", optimal1 best {best}")
    _report("6", all(checks), "; ".join(details))


def test_criterion_7_phase_ramp_equivalence(sno5):
    params = GaussianParams.for_not(1.0)
    hz = np.diag(np.asarray(generators(sno5).h_z)).real
    worst = 0.0
    for v in (DragVariant.OPTIMAL1, DragVariant.DRAG1):
        cs = controls_for(sno5, v, params)
        ramped = phase_ramp(cs)
        n = 8192
        u_delta = propagate(sno5, cs, TimeGrid(params.t_g, n))
        u_ramp = propagate(sno5, ramped, TimeGrid(params.t_g, n))
        rot = np.diag(np.exp(-1j * float(cs.phi(params.t_g)) * hz))
        qb = (rot @ u_ramp - u_delta)[:2, :2]
        worst = max(worst, float(np.max(np.abs(qb))))
    _report("7", worst < 1e-8,
            f"qubit-block deviation after frame rotation {worst:.1e} < 1e-8")


def test_criterion_8_optimizer_parity(sno5):
    params = GaussianParams.for_not(1.0)
    uid = ideal_not(5)
    e_drag2 = gate_error(
        propagate(sno5, build_controls(sno5, DragVariant.DRAG2, params),
                  TimeGrid(params.t_g, 16384)), uid)
    res = optimize(OptimizeTask(sno5, params, (True, True, False, True)))
    parity = res.gate_error <= 3.0 * e_drag2

    # feasible-point dominance: masks spanning a closed form, seeded there
    dom_ok = True
    dom_details = []
    for variant, mask in ((DragVariant.Y_ONLY1, (True, True, False, False)),
                          (DragVariant.Z_ONLY1, (True, False, True, False))):
        b1, c2 = first_order_coefficients(sno5, variant)
        x0 = (1.0, -b1, c2, 0.0)
        small = OptimizeTask(sno5, params, mask, x0=x0, max_evals=60,
                             prop_tol=1e-8)
        r = optimize(small)
        cs = build_controls(sno5, variant, params)
        closed = gate_error(propagate(sno5, cs, TimeGrid(params.t_g,
                                                         r.n_steps)), uid)
        dom_ok = dom_ok and r.gate_error <= closed + 1e-12
        dom_details.append(f"{variant.value}: {r.gate_error:.3e} <= {closed:.3e}")

    ok = parity and dom_ok
    _report("8", ok,
            f"optimized(a,b,d0) {res.gate_error:.2e} <= 3x drag2 "
            f"{3 * e_drag2:.2e} ({parity}); dominance " + "; ".join(dom_details))


def test_criterion_9_property_suites(sno5):
    rng = np.random.default_rng(7)
    worst_unitarity = 0.0
    for _ in range(100):
        sigma = float(rng.uniform(0.3, 1.5))
        p = GaussianParams(float(rng.uniform(0.5, 4.0)), sigma, 4 * sigma)
        cs = build_controls(sno5, Ansatz(*rng.normal(0.0, 1.0, 3), 0.0), p)
        u = propagate(sno5, cs, TimeGrid(p.t_g, 256))
        worst_unitarity = max(worst_unitarity, float(np.max(np.abs(
            u.conj().T @ u - np.eye(5)))))
    unit_ok = worst_unitarity < 1e-10

    u = propagate(sno5, build_controls(sno5, DragVariant.DRAG1,
                                       GaussianParams.for_not(2 / 3)),
                  TimeGrid(8 / 3, 1024))
    uid = ideal_not(5)
    base = average_gate_fidelity(u, uid)
    phase_ok = all(abs(average_gate_fidelity(np.exp(1j * th) * u, uid) - base)
                   < 1e-12 for th in rng.uniform(0, TWO_PI, 10))

    from scipy.integrate import quad
    p = GaussianParams.for_not(0.7)
    val, _ = quad(lambda t: float(p.derivatives(t, 0)[0]), 0.0, p.t_g,
                  epsabs=1e-13, epsrel=1e-13)
    area_ok = abs(val - math.pi) < 1e-9 * math.pi

    third = average_gate_fidelity(np.eye(2), ideal_not(2))
    third_ok = third == 1.0 / 3.0

    elapsed = time.time() - _T0
    ok = unit_ok and phase_ok and area_ok and third_ok
    _report("9", ok,
            f"unitarity worst {worst_unitarity:.1e} < 1e-10 (100 sets); "
            f"phase invariance {phase_ok}; envelope integral ok {area_ok}; "
            f"identity-vs-NOT = 1/3 exact {third_ok}; module elapsed "
            f"{elapsed:.0f}s")


def test_criterion_10_dressing(sno5):
    sqrt2_ok = lambda_sno(2, 0.0) == math.sqrt(2.0)

    try:
        lambda_sno(2, -1.0)
        pole_ok = False
    except ZeroDivisionError:
        pole_ok = True

    # truncated ladder-resonator eigenvalue oracle vs the chi-shift formulas
    omega, omega_r = 5.0 * TWO_PI, 7.0 * TWO_PI
    g01 = 0.02 * TWO_PI
    delta = {j: -0.3 * TWO_PI * j * (j - 1) / 2 for j in range(4)}
    cav = CavitySpec(omega_r, omega, delta,
                     {j: math.sqrt(j) * g01 for j in range(1, 4)})
    n_ph = 6
    dim = 4 * n_ph
    h = np.zeros((dim, dim))
    for j in range(4):
        for n in range(n_ph):
            h[j * n_ph + n, j * n_ph + n] = (j * omega + delta[j]
                                             + n * omega_r)
    for j in range(1, 4):
        for n in range(1, n_ph):
            a, b = (j - 1) * n_ph + n, j * n_ph + (n - 1)
            h[a, b] = h[b, a] = cav.g[j] * math.sqrt(n)
    w, v = np.linalg.eigh(h)
    energies = {}
    for j in range(4):
        k = j * n_ph
        energies[j] = w[int(np.argmax(np.abs(v[k, :])))]
    omega_num = energies[1] - energies[0]
    omega_t, delta_t = dressed_params(cav)
    det = min(abs(cav.omega_prime(j) - omega_r) for j in cav.g)
    bound = 50.0 * (2 * g01) ** 4 / det ** 3
    worst = abs(omega_num - omega_t)
    for j in range(2, 4):
        num = energies[j] - energies[0] - j * omega_num
        worst = max(worst, abs(num - delta_t[j]))
    oracle_ok = worst < bound

    ok = sqrt2_ok and pole_ok and oracle_ok
    _report("10", ok,
            f"lambda_sno(2,0)=sqrt(2) {sqrt2_ok}; pole at -1 raises {pole_ok}; "
            f"dressed-vs-eigenvalue worst {worst:.2e} < O(g^4) bound {bound:.2e}")
