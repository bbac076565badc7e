import math
from dataclasses import replace

import numpy as np
import pytest

from drag_forge import (Ansatz, ConvergenceError, DragVariant, GaussianParams,
                        TimeGrid, build_controls, build_sno, controls_for,
                        converge, populations, propagate, propagator)
from drag_forge.model import (HamiltonianGenerators, generators,
                              hamiltonian_at, sigma_x, sigma_y)
from drag_forge.propagator import _expm1, _ordered_product, _step_exponents
from drag_forge.pulses import ControlSet, phase_ramp

TWO_PI = 2.0 * math.pi


def _constant_controls(t_g, ox=0.0, oy=0.0, dl=0.0):
    mk = lambda c: (lambda t: np.full_like(np.asarray(t, dtype=float), c))
    return ControlSet(mk(ox), mk(oy), mk(dl), t_g, "const")


def _two_level_generators():
    return HamiltonianGenerators(
        np.zeros((2, 2), complex), np.diag([0.0, 1.0]).astype(complex),
        sigma_x(2, 0, 1), sigma_y(2, 0, 1), (0, 1))


class TestTimeGrid:
    def test_rejects_small_grids(self):
        with pytest.raises(ValueError, match="16"):
            TimeGrid(1.0, 8)

    def test_midpoints_and_nodes(self):
        g = TimeGrid(2.0, 16)
        assert g.dt == 0.125
        assert g.midpoints()[0] == 0.0625
        assert g.nodes()[-1] == 2.0


class TestPropagate:
    def test_drift_only_full_period_is_identity(self, sno3):
        # after t_g = 1 the drift phase of level 2 is exactly 2*pi
        u = propagate(sno3, _constant_controls(1.0), TimeGrid(1.0, 64))
        np.testing.assert_allclose(u, np.eye(3), atol=1e-12)

    def test_two_level_pi_pulse(self):
        gen = _two_level_generators()
        t_g = 1.0
        u = propagate(gen, _constant_controls(t_g, ox=math.pi / t_g),
                      TimeGrid(t_g, 64))
        np.testing.assert_allclose(u, -1j * sigma_x(2, 0, 1), atol=1e-10)
        assert abs(u[0, 1]) == pytest.approx(1.0, abs=1e-10)

    def test_unitarity(self, sno5, not_params):
        cs = build_controls(sno5, DragVariant.DRAG2, not_params)
        u = propagate(sno5, cs, TimeGrid(not_params.t_g, 2048))
        np.testing.assert_allclose(u.conj().T @ u, np.eye(5), atol=1e-10)
        assert abs(abs(np.linalg.det(u)) - 1.0) < 1e-10

    def test_second_order_convergence(self, sno5, not_params):
        # the name predates the Magnus-4 stepper: halving dt now divides
        # the difference of successive unitaries by 2^4
        cs = build_controls(sno5, DragVariant.GAUSSIAN0, not_params)
        us = [propagate(sno5, cs, TimeGrid(not_params.t_g, n))
              for n in (128, 256, 512, 1024)]
        d1 = np.max(np.abs(us[1] - us[0]))
        d2 = np.max(np.abs(us[2] - us[1]))
        d3 = np.max(np.abs(us[3] - us[2]))
        assert d1 / d2 == pytest.approx(16.0, rel=0.15)
        assert d2 / d3 == pytest.approx(16.0, rel=0.15)

    def test_composition(self, sno5, not_params):
        cs = build_controls(sno5, DragVariant.Z_ONLY1, not_params)
        t_g = not_params.t_g
        full = propagate(sno5, cs, TimeGrid(t_g, 1024))
        first = ControlSet(cs.omega_x, cs.omega_y, cs.delta, t_g / 2, "first")
        second = ControlSet(
            lambda t: cs.omega_x(np.asarray(t) + t_g / 2),
            lambda t: cs.omega_y(np.asarray(t) + t_g / 2),
            lambda t: cs.delta(np.asarray(t) + t_g / 2),
            t_g / 2, "second")
        u1 = propagate(sno5, first, TimeGrid(t_g / 2, 512))
        u2 = propagate(sno5, second, TimeGrid(t_g / 2, 512))
        np.testing.assert_allclose(u2 @ u1, full, atol=1e-12)

    def test_rejects_non_finite_controls(self, sno3):
        bad = _constant_controls(1.0)
        nan_at = 0.3

        def omega_x(t):
            t = np.asarray(t, dtype=float)
            out = np.ones_like(t)
            out[t > nan_at] = np.nan
            return out

        cs = ControlSet(omega_x, bad.omega_y, bad.delta, 1.0, "bad")
        with pytest.raises(ValueError, match="non-finite omega_x"):
            propagate(sno3, cs, TimeGrid(1.0, 64))


class TestPopulations:
    def test_zero_controls_stay_put(self, sno5):
        times, probs = populations(sno5, _constant_controls(1.0),
                                   TimeGrid(1.0, 32), 0)
        assert probs.shape == (33, 5)
        np.testing.assert_allclose(probs[:, 0], 1.0, atol=1e-12)
        np.testing.assert_allclose(probs[:, 1:], 0.0, atol=1e-12)

    def test_rows_sum_to_one(self, sno5, not_params):
        cs = build_controls(sno5, DragVariant.GAUSSIAN0, not_params)
        _, probs = populations(sno5, cs, TimeGrid(not_params.t_g, 256), 0)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-10)

    def test_fast_gaussian_leaks_upward(self, sno5):
        # shortest benchmark pulse: most of the error is residual population
        # in levels >= 2 at the end of the gate
        p = GaussianParams.for_not(1 / 3)
        cs = build_controls(sno5, DragVariant.GAUSSIAN0, p)
        _, probs = populations(sno5, cs, TimeGrid(p.t_g, 2048), 0)
        leak = probs[-1, 2:].sum()
        assert 0.05 < leak < 0.25
        assert leak > probs[-1, 0]

    @pytest.mark.parametrize("n_steps", [4096, 4097])
    @pytest.mark.parametrize("mirror", [True, False])
    def test_matches_step_by_step(self, sno5, not_params, n_steps, mirror):
        # the prefix-product trace against one matrix-vector step at a time
        cs = replace(controls_for(sno5, DragVariant.DRAG2, not_params),
                     mirror=mirror)
        grid = TimeGrid(not_params.t_g, n_steps)
        psi = np.eye(5, dtype=complex)[1]
        ref = [np.abs(psi) ** 2]
        for step in _expm1(_step_exponents(generators(sno5),
                                           replace(cs, mirror=False), grid)):
            psi = psi + step @ psi  # steps are kept as U - I
            ref.append(np.abs(psi) ** 2)
        _, probs = populations(sno5, cs, grid, 1)
        assert np.max(np.abs(probs - np.array(ref))) < 1e-13

    def test_signed_initial_level(self, inter5, not_params):
        cs = controls_for(inter5, DragVariant.OPTIMAL1, not_params)
        _, probs = populations(inter5, cs, TimeGrid(not_params.t_g, 256), 0)
        assert probs[0, inter5.row(0)] == 1.0


class TestConverge:
    def test_time_independent_converges_immediately(self, sno3):
        u, n = converge(sno3, _constant_controls(1.0), 1.0, 1e-12)
        assert n == 512  # first doubling already agrees exactly
        np.testing.assert_allclose(u, np.eye(3), atol=1e-12)

    def test_doubling_loop_frozen_value(self, sno5):
        # the doubling loop itself is the oracle: the fourth-order stepper
        # needs 1024 steps to reach 1e-10 on the fastest benchmark pulse
        # (the second-order midpoint rule needed 262144)
        p = GaussianParams.for_not(1 / 3)
        cs = build_controls(sno5, DragVariant.GAUSSIAN0, p)
        u, n = converge(sno5, cs, p.t_g, 1e-10)
        assert n == 1024
        np.testing.assert_allclose(u.conj().T @ u, np.eye(5), atol=1e-10)

    def test_rejects_bad_tolerance(self, sno3):
        with pytest.raises(ValueError, match="positive"):
            converge(sno3, _constant_controls(1.0), 1.0, 0.0)

    def test_cap_raises(self, sno5, not_params, monkeypatch):
        monkeypatch.setattr(propagator, "_STEP_CAP", 4096)
        cs = build_controls(sno5, DragVariant.GAUSSIAN0, not_params)
        with pytest.raises(ConvergenceError, match="within 4096 steps"):
            converge(sno5, cs, not_params.t_g, 1e-16)


def test_against_ode_solver_oracle(sno5):
    # independent route: integrate dU/dt = -i H(t) U with an adaptive
    # Runge-Kutta solver and compare against the exponential stepper
    from scipy.integrate import solve_ivp
    from drag_forge.model import generators, hamiltonian_at

    p = GaussianParams.for_not(2 / 3)
    cs = build_controls(sno5, DragVariant.DRAG1, p)
    gen = generators(sno5)

    def rhs(t, y):
        u = y.reshape(5, 5)
        h = hamiltonian_at(gen, float(cs.delta(t)), float(cs.omega_x(t)),
                           float(cs.omega_y(t)))
        return (-1j * h @ u).ravel()

    sol = solve_ivp(rhs, (0.0, p.t_g), np.eye(5, dtype=complex).ravel(),
                    rtol=1e-11, atol=1e-11, dense_output=False)
    u_ode = sol.y[:, -1].reshape(5, 5)
    u_mid = propagate(sno5, cs, TimeGrid(p.t_g, 16384))
    assert np.max(np.abs(u_ode - u_mid)) < 1e-7


def test_unitarity_on_random_controls(sno5, rng):
    # random smooth ansatz controls; every propagation is exactly unitary
    worst = 0.0
    for _ in range(25):
        sigma = float(rng.uniform(0.3, 1.5))
        p = GaussianParams(float(rng.uniform(1.0, 4.0)), sigma, 4 * sigma)
        cs = build_controls(sno5, Ansatz(*rng.normal(0, 1, 3), 0.0), p)
        u = propagate(sno5, cs, TimeGrid(p.t_g, 128))
        worst = max(worst, float(np.max(np.abs(u.conj().T @ u - np.eye(5)))))
    assert worst < 1e-10


def _full_product(spec, cs, grid):
    # every step built and multiplied, whatever the set's symmetry; steps
    # and their product are kept as U - I
    steps = _expm1(_step_exponents(generators(spec),
                                   replace(cs, mirror=False), grid))
    return _ordered_product(steps) + np.eye(spec.d)


_MIRROR_CASES = [
    ("sno5", DragVariant.GAUSSIAN0), ("sno5", DragVariant.OPTIMAL1),
    ("sno5", DragVariant.DRAG2), ("sno5", DragVariant.Y_ONLY2),
    ("inter5", DragVariant.Z_ONLY1), ("inter5", DragVariant.OPTIMAL1),
    ("star6", DragVariant.Y_ONLY1), ("star6", DragVariant.OPTIMAL1),
    ("sno5", Ansatz(1.02, 0.4, -0.3, 0.25)),
]


class TestMirrorProduct:
    @pytest.mark.parametrize("n_steps", [256, 257])
    @pytest.mark.parametrize("system,variant", _MIRROR_CASES)
    def test_matches_full_product(self, request, system, variant, n_steps):
        spec = request.getfixturevalue(system)
        p = GaussianParams.for_not(0.6)
        cs = controls_for(spec, variant, p)
        assert cs.mirror
        grid = TimeGrid(p.t_g, n_steps)
        u = propagate(spec, cs, grid)
        assert np.max(np.abs(u - _full_product(spec, cs, grid))) < 1e-13

    def test_ramped_and_hand_built_sets_take_full_product(self, sno5,
                                                          not_params):
        cs = controls_for(sno5, DragVariant.DRAG2, not_params)
        hand = ControlSet(cs.omega_x, cs.omega_y, cs.delta, cs.t_g, "hand")
        ramped = phase_ramp(cs)
        grid = TimeGrid(not_params.t_g, 512)
        for s in (hand, ramped):
            assert not s.mirror
            np.testing.assert_array_equal(propagate(sno5, s, grid),
                                          _full_product(sno5, s, grid))
        # the ramp breaks the symmetry: the half product would be wrong
        wrong = propagate(sno5, replace(ramped, mirror=True), grid)
        assert np.max(np.abs(wrong - propagate(sno5, ramped, grid))) > 1e-3


def test_magnus4_against_ode_solver(sno5):
    # fourth-order accuracy at a modest grid on the shortest fig3/fig4 pulse
    from scipy.integrate import solve_ivp

    p = GaussianParams.for_not(0.4)
    cs = controls_for(sno5, DragVariant.DRAG2, p)
    gen = generators(sno5)

    def rhs(t, y):
        h = hamiltonian_at(gen, float(cs.delta(t)), float(cs.omega_x(t)),
                           float(cs.omega_y(t)))
        return (-1j * h @ y.reshape(5, 5)).ravel()

    sol = solve_ivp(rhs, (0.0, p.t_g), np.eye(5, dtype=complex).ravel(),
                    method="DOP853", rtol=1e-12, atol=1e-12)
    u_ode = sol.y[:, -1].reshape(5, 5)
    u = propagate(sno5, cs, TimeGrid(p.t_g, 512))
    assert np.max(np.abs(u - u_ode)) < 1e-8


def _eigh_exp(a):
    # reference exponential of anti-Hermitian A = -iH by H's eigenbasis
    w, v = np.linalg.eigh(1j * a)
    return (v * np.exp(-1j * w)[..., None, :]) @ v.conj().swapaxes(-1, -2)


def _two_h_exponent(gen, cs, grid):
    # -i dt K with K = (H1 + H2)/2 + i (sqrt(3)/12) dt [H1, H2] from the two
    # Hamiltonians at the Gauss nodes, the Magnus-4 step as written
    dt = grid.dt
    ts = grid.midpoints()[:, None] + np.array([-dt, dt]) * math.sqrt(3.0) / 6
    h1, h2 = (hamiltonian_at(gen, cs.delta(t), cs.omega_x(t), cs.omega_y(t))
              for t in ts.T)
    k = 0.5 * (h1 + h2) + 1j * math.sqrt(3.0) / 12 * dt * (h1 @ h2 - h2 @ h1)
    return -1j * dt * k


class TestTaylorStep:
    @pytest.mark.parametrize("norm", [0.01, 0.05, 0.3, 2.0, 20.0])
    def test_matches_eigh_exponential(self, rng, norm):
        # random anti-Hermitian stacks whose largest 1-norm is `norm`; the
        # last three take the scaling and squaring branch
        x = rng.normal(size=(64, 6, 6)) + 1j * rng.normal(size=(64, 6, 6))
        a = x - x.conj().swapaxes(-1, -2)
        a *= norm / np.abs(a).sum(axis=-2).max()
        b = _expm1(a)
        assert np.max(np.abs(b + np.eye(6) - _eigh_exp(a))) <= 1e-14

    @pytest.mark.parametrize("system,variant", [
        ("sno5", DragVariant.DRAG2), ("inter5", DragVariant.OPTIMAL1),
        ("star6", DragVariant.OPTIMAL1),
        ("sno5", Ansatz(1.02, 0.4, -0.3, 0.25))])
    def test_basis_exponent_matches_two_h_formula(self, request, system,
                                                  variant):
        spec = request.getfixturevalue(system)
        gen = generators(spec)
        p = GaussianParams.for_not(0.6)
        cs = replace(controls_for(spec, variant, p), mirror=False)
        grid = TimeGrid(p.t_g, 256)
        ref = _two_h_exponent(gen, cs, grid)
        assert np.max(np.abs(_step_exponents(gen, cs, grid) - ref)) <= 1e-13

    @pytest.mark.parametrize("system,variant,sigma", [
        ("inter5", DragVariant.Z_ONLY1, 0.4),
        ("inter5", DragVariant.Z_ONLY1, 0.6),
        ("inter5", DragVariant.Z_ONLY1, 1.6),
        ("inter5", DragVariant.GAUSSIAN0, 0.4),
        ("inter5", DragVariant.GAUSSIAN0, 0.6),
        ("inter5", DragVariant.GAUSSIAN0, 1.6),
        ("star6", DragVariant.GAUSSIAN0, 2.0)])
    def test_unitary_to_round_off(self, request, system, variant, sigma):
        # fig7 / fig8 sweep points at the presets' 4096 steps
        spec = request.getfixturevalue(system)
        p = GaussianParams.for_not(sigma)
        u = propagate(spec, controls_for(spec, variant, p),
                      TimeGrid(p.t_g, 4096))
        assert np.max(np.abs(u.conj().T @ u - np.eye(spec.d))) < 1e-13
