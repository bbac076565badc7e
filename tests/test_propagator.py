import math

import numpy as np
import pytest
from conftest import HandControls, sigma_x, sigma_y

from drag_forge import (Ansatz, ConvergenceError, DragVariant, GaussianParams,
                        TimeGrid, build_controls, build_sno, controls_for,
                        converge, populations, propagate, propagator)
from drag_forge.model import HamiltonianGenerators, generators, hamiltonian_at
from drag_forge.propagator import (_block_product, _expm1_blocks,
                                   _step_exponents)
from drag_forge.pulses import phase_ramp

TWO_PI = 2.0 * math.pi


def _expm1(a):
    """exp(A) - I for an (n, d, d) stack from its blocks; A is left as it is
    (the blocks shift a complex copy in place, and each block's B is a view
    that the next block overwrites)."""
    return np.concatenate([b.copy() for _, b, _ in
                           _expm1_blocks(a.astype(complex))])


def _two_level_generators():
    return HamiltonianGenerators(
        np.zeros((2, 2), complex), np.diag([0.0, 1.0]).astype(complex),
        sigma_x(2, 0, 1), sigma_y(2, 0, 1))


class TestTimeGrid:
    def test_rejects_small_grids(self):
        with pytest.raises(ValueError, match="16"):
            TimeGrid(1.0, 8)

    @pytest.mark.parametrize("t_g", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_bad_gate_time(self, t_g):
        # NaN would otherwise fail only later, as a gate-time mismatch, and
        # inf as NaN samples in propagate
        with pytest.raises(ValueError, match="t_g must be positive"):
            TimeGrid(t_g, 64)

    def test_rejects_non_integer_step_count(self):
        # a float count would otherwise fail only at the first slice
        with pytest.raises(ValueError, match="integer"):
            TimeGrid(1.0, 4096.0)
        assert TimeGrid(1.0, np.int64(64)).n_steps == 64

    def test_midpoints_and_nodes(self):
        g = TimeGrid(2.0, 16)
        assert g.dt == 0.125
        assert g.midpoints()[0] == 0.0625
        assert g.nodes()[-1] == 2.0


class TestPropagate:
    def test_drift_only_full_period_is_identity(self, sno3):
        # after t_g = 1 the drift phase of level 2 is exactly 2*pi
        u = propagate(sno3, HandControls.constant(1.0), TimeGrid(1.0, 64))
        np.testing.assert_allclose(u, np.eye(3), atol=1e-12)

    def test_zero_controls_keep_qubit_block_at_identity(self, sno5):
        # the per-step shift moves the drift's mean phase onto the qubit
        # levels and takes it off again; a global shift would leave its
        # rounding in U - I of order one (3.4e-14 here)
        gen = generators(sno5)
        u = propagate(gen, HandControls.constant(8.0), TimeGrid(8.0, 4096))
        q = sno5.qubit_rows
        assert np.max(np.abs(u[np.ix_(q, q)] - np.eye(2))) <= 1e-15

    def test_two_level_pi_pulse(self):
        gen = _two_level_generators()
        t_g = 1.0
        u = propagate(gen, HandControls.constant(t_g, ox=math.pi / t_g),
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
        first = HandControls(cs.omega_x, cs.omega_y, cs.delta, t_g / 2)
        second = HandControls(
            lambda t: cs.omega_x(np.asarray(t) + t_g / 2),
            lambda t: cs.omega_y(np.asarray(t) + t_g / 2),
            lambda t: cs.delta(np.asarray(t) + t_g / 2),
            t_g / 2)
        u1 = propagate(sno5, first, TimeGrid(t_g / 2, 512))
        u2 = propagate(sno5, second, TimeGrid(t_g / 2, 512))
        np.testing.assert_allclose(u2 @ u1, full, atol=1e-12)

    def test_rejects_grid_of_another_gate_time(self, sno5):
        # the nodes and the mirror fold would cover [0, 2] of a t_g = 4 pulse
        cs = controls_for(sno5, DragVariant.DRAG2, GaussianParams.for_not(1.0))
        grid = TimeGrid(2.0, 4096)
        with pytest.raises(ValueError, match="t_g"):
            propagate(sno5, cs, grid)
        with pytest.raises(ValueError, match="t_g"):
            populations(sno5, cs, grid, 0)

    def test_rejects_non_finite_controls(self, sno3):
        bad = HandControls.constant(1.0)
        nan_at = 0.3

        def omega_x(t):
            t = np.asarray(t, dtype=float)
            out = np.ones_like(t)
            out[t > nan_at] = np.nan
            return out

        cs = HandControls(omega_x, bad.omega_y, bad.delta, 1.0)
        with pytest.raises(ValueError, match="non-finite omega_x"):
            propagate(sno3, cs, TimeGrid(1.0, 64))


class TestPopulations:
    def test_zero_controls_stay_put(self, sno5):
        times, probs = populations(sno5, HandControls.constant(1.0),
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
        cs = controls_for(sno5, DragVariant.DRAG2, not_params)
        hand = HandControls.of(cs)  # every step built
        grid = TimeGrid(not_params.t_g, n_steps)
        psi = np.eye(5, dtype=complex)[1]
        ref = [np.abs(psi) ** 2]
        for step in _expm1(_step_exponents(generators(sno5), hand, grid)):
            psi = psi + step @ psi  # steps are kept as U - I
            ref.append(np.abs(psi) ** 2)
        _, probs = populations(sno5, cs if mirror else hand, grid, 1)
        assert np.max(np.abs(probs - np.array(ref))) < 1e-13

    def test_signed_initial_level(self, inter5, not_params):
        cs = controls_for(inter5, DragVariant.OPTIMAL1, not_params)
        _, probs = populations(inter5, cs, TimeGrid(not_params.t_g, 256), 0)
        assert probs[0, inter5.row(0)] == 1.0

    def test_unknown_initial_level_fails_before_the_evolution(
            self, sno5, not_params, monkeypatch):
        def no_sampling(*args):
            raise AssertionError("the controls were sampled")

        monkeypatch.setattr(propagator, "_sample_controls", no_sampling)
        cs = controls_for(sno5, DragVariant.DRAG2, not_params)
        with pytest.raises(ValueError,
                           match=r"no level 7 .* \(0, 1, 2, 3, 4\)"):
            populations(sno5, cs, TimeGrid(not_params.t_g, 256), 7)


class TestConverge:
    def test_time_independent_converges_immediately(self, sno3):
        u, n = converge(sno3, HandControls.constant(1.0), 1.0, 1e-12)
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

    def test_rejects_bad_tolerance(self, sno3, monkeypatch):
        # no estimate is below NaN; a small cap makes a miss fail fast
        monkeypatch.setattr(propagator, "_STEP_CAP", 4096)
        for tol in (0.0, math.nan):
            with pytest.raises(ValueError, match="positive"):
                converge(sno3, HandControls.constant(1.0), 1.0, tol)

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


def _pairwise_tree(mats):
    # the flat reference: U - I of (I + mats[-1]) ... (I + mats[0]), one
    # batched level over the whole stack per halving, pairs (2k, 2k + 1),
    # an odd last factor carried up
    while len(mats) > 1:
        n = len(mats)
        b1, b0 = mats[1::2], mats[:n - 1:2]
        mats = np.concatenate([b1 + b0 + b1 @ b0, mats[n - n % 2:]])
    return mats[0]


def _full_product(spec, cs, grid):
    # every step built and multiplied, whatever the set's symmetry; steps
    # and their product are kept as U - I
    steps = _expm1(_step_exponents(generators(spec), HandControls.of(cs),
                                   grid))
    return _pairwise_tree(steps) + np.eye(spec.d)


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
        hand = HandControls.of(cs)
        ramped = phase_ramp(cs)
        grid = TimeGrid(not_params.t_g, 512)
        for s in (hand, ramped):
            assert not s.mirror
            np.testing.assert_array_equal(propagate(sno5, s, grid),
                                          _full_product(sno5, s, grid))


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

    def test_three_product_form_is_the_taylor_polynomial(self):
        # compose A2, A4, A8 and B on polynomial coefficients in A
        P = np.polynomial.polynomial
        x1, x2, x3, x4, x5, x6, x7 = propagator._BBC_X
        a, a2 = np.array([0.0, 1.0]), np.array([0.0, 0.0, 1.0])
        a4 = P.polymul(a2, P.polyadd(x1 * a, x2 * a2))
        a8 = P.polymul(P.polyadd(x3 * a2, a4),
                       P.polyadd([x4], P.polyadd(x5 * a, P.polyadd(x6 * a2,
                                                                  x7 * a4))))
        b = P.polyadd(P.polyadd(a, propagator._BBC_Y2 * a2), a8)
        taylor = [0.0] + [1.0 / math.factorial(k) for k in range(1, 9)]
        assert len(b) == 9 and b[0] == 0.0
        np.testing.assert_allclose(b, taylor, rtol=1e-15, atol=0)

    @pytest.mark.parametrize("norm", [0.01, 0.3, 2.0, 20.0])
    @pytest.mark.parametrize("d", [3, 5, 6, 9])
    def test_large_scalar_diagonal(self, rng, d, norm):
        # -4i norm I + X: the shift takes the scalar part off exactly, the
        # rest may still need squarings; A is left as it was
        x = rng.normal(size=(64, d, d)) + 1j * rng.normal(size=(64, d, d))
        x = x - x.conj().swapaxes(-1, -2)
        x *= norm / np.abs(x).sum(axis=-2).max()
        a = x - 4j * norm * np.eye(d)
        kept = a.copy()
        b = _expm1(a)
        np.testing.assert_array_equal(a, kept)
        bound = 1e-14 * (1.0 + np.abs(a).sum(axis=-2).max())
        assert np.max(np.abs(b + np.eye(d) - _eigh_exp(a))) <= bound

    @pytest.mark.parametrize("system,variant", [
        ("sno5", DragVariant.DRAG2), ("inter5", DragVariant.OPTIMAL1),
        ("star6", DragVariant.OPTIMAL1),
        ("sno5", Ansatz(1.02, 0.4, -0.3, 0.25))])
    def test_basis_exponent_matches_two_h_formula(self, request, system,
                                                  variant):
        spec = request.getfixturevalue(system)
        gen = generators(spec)
        p = GaussianParams.for_not(0.6)
        cs = HandControls.of(controls_for(spec, variant, p))
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
        ("star6", DragVariant.GAUSSIAN0, 2.0)] + [
        (system, variant, round(0.2 * k, 10)) for system, variant in (
            ("sno5", DragVariant.DRAG2), ("inter5", DragVariant.OPTIMAL1),
            ("star6", DragVariant.OPTIMAL1)) for k in range(2, 11)])
    def test_unitary_to_round_off(self, request, system, variant, sigma):
        # fig3/fig4/fig7/fig8 sweep points (sigma 0.4 .. 2.0) at the
        # presets' 4096 steps
        spec = request.getfixturevalue(system)
        p = GaussianParams.for_not(sigma)
        u = propagate(spec, controls_for(spec, variant, p),
                      TimeGrid(p.t_g, 4096))
        assert np.max(np.abs(u.conj().T @ u - np.eye(spec.d))) < 1e-13


def _blocks_of(mats):
    # (lo, B, scratch) blocks of _BLOCK steps, the way _expm1_blocks hands
    # them over
    size = propagator._BLOCK
    return ((lo, mats[lo:lo + size].copy(), np.empty_like(mats[lo:lo + size]))
            for lo in range(0, len(mats), size))


class TestBlocks:
    """The exponential and the product run over blocks of _BLOCK steps;
    the block size must not move a bit of any result."""

    @staticmethod
    def _results(spec, cs, grid):
        a = _step_exponents(generators(spec), cs, grid)
        return (propagate(spec, cs, grid), populations(spec, cs, grid, 0)[1],
                _expm1(a))

    @pytest.mark.parametrize("block", [16, 8192])
    @pytest.mark.parametrize("sigma,n_steps", [
        (1.0, 16), (1.0, 17), (1.0, 255), (1.0, 257), (1.0, 1000),
        (1.0, 4097), (0.3, 16)])
    @pytest.mark.parametrize("ramped", [False, True])
    def test_block_size_does_not_move_a_bit(self, sno5, monkeypatch, block,
                                            sigma, n_steps, ramped):
        p = GaussianParams.for_not(sigma)
        cs = controls_for(sno5, DragVariant.DRAG2, p)
        if ramped:
            cs = phase_ramp(cs)
        assert cs.mirror != ramped
        grid = TimeGrid(p.t_g, n_steps)
        if sigma == 0.3:  # a case that takes the squaring branch
            a = _step_exponents(generators(sno5), cs, grid)
            im = np.einsum("kii->ki", a).imag
            c = 0.5 * (im.max(axis=-1) + im.min(axis=-1))
            norms = np.abs(a - 1j * c[:, None, None] * np.eye(5)).sum(axis=-2)
            assert norms.max() > propagator._TAYLOR_THETA
        default = self._results(sno5, cs, grid)
        monkeypatch.setattr(propagator, "_BLOCK", block)
        for got, want in zip(self._results(sno5, cs, grid), default):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("block,sizes", [
        (16, range(1, 71)),
        (propagator._BLOCK, [propagator._BLOCK + k for k in (-1, 0, 1)]
         + [2 * propagator._BLOCK + 3])])
    def test_block_product_is_the_flat_tree(self, rng, monkeypatch, block,
                                            sizes):
        monkeypatch.setattr(propagator, "_BLOCK", block)
        for n in sizes:
            x = rng.normal(size=(n, 4, 4)) + 1j * rng.normal(size=(n, 4, 4))
            mats = 0.3 * x
            got, rest = _block_product(_blocks_of(mats), n)
            np.testing.assert_array_equal(got, _pairwise_tree(mats))
            assert rest.shape == (0, 4, 4)
            if n > 1:  # the mirror set's middle step comes back as it was
                got, rest = _block_product(_blocks_of(mats), n - 1)
                np.testing.assert_array_equal(got, _pairwise_tree(mats[:-1]))
                np.testing.assert_array_equal(rest, mats[-1:])
