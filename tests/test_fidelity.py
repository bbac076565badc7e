import math

import numpy as np
import pytest
from conftest import proj, sigma_x, sigma_y

from drag_forge import (DragVariant, GaussianParams, TimeGrid,
                        average_gate_fidelity, build_controls, gate_error,
                        ideal_not, phase_optimized_gate_error, propagate)


def axial_states(d: int, qubit: tuple[int, int] = (0, 1)) -> list[np.ndarray]:
    """The six axial Bloch states of the qubit block, embedded in d dimensions."""
    q0, q1 = qubit
    pp = proj(d, q0) + proj(d, q1)
    sx = sigma_x(d, q0, q1)
    sy = sigma_y(d, q0, q1)
    return [
        0.5 * (pp + sx), 0.5 * (pp - sx),
        0.5 * (pp + sy), 0.5 * (pp - sy),
        proj(d, q0), proj(d, q1),
    ]


def six_state_fidelity(u_actual, u_ideal, qubit=(0, 1)) -> float:
    """Reference: (1/6) sum_j Tr[U_ideal rho_j U_ideal^dag  U rho_j U^dag]."""
    total = 0.0 + 0.0j
    for rho in axial_states(u_actual.shape[0], qubit):
        ideal = u_ideal @ rho @ u_ideal.conj().T
        actual = u_actual @ rho @ u_actual.conj().T
        total += np.trace(ideal @ actual)
    assert abs(total.imag) < 1e-12
    return total.real / 6.0


def _random_unitary(rng, d):
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return np.linalg.qr(z)[0]


class TestAxialStates:
    """The six-state reference itself: a 2-design on the qubit block."""

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_unit_trace(self, d):
        for rho in axial_states(d):
            assert np.trace(rho).real == pytest.approx(1.0)

    def test_rank_one_positive(self):
        for rho in axial_states(4):
            w = np.linalg.eigvalsh(rho)
            assert w.min() > -1e-14
            assert np.sum(w > 1e-12) == 1

    def test_sum_rule(self):
        # the six axial states sum to 3 * (qubit-block identity)
        d = 5
        total = sum(axial_states(d))
        np.testing.assert_allclose(total, 3.0 * (proj(d, 0) + proj(d, 1)),
                                   atol=1e-15)

    def test_embedded_block(self):
        rho = axial_states(5, qubit=(2, 3))[4]
        np.testing.assert_array_equal(rho, proj(5, 2))


class TestIdealNot:
    def test_two_level(self):
        np.testing.assert_array_equal(ideal_not(2), sigma_x(2, 0, 1))

    def test_block_diagonal(self):
        u = ideal_not(5)
        assert np.all(u[:2, 2:] == 0)
        assert np.all(u[2:, :2] == 0)
        np.testing.assert_array_equal(u[2:, 2:], np.eye(3))

    def test_unitary(self):
        u = ideal_not(4)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(4), atol=1e-15)


class TestAverageGateFidelity:
    def test_perfect_gate(self):
        u = ideal_not(5)
        assert average_gate_fidelity(u, u) == pytest.approx(1.0, abs=1e-15)

    def test_identity_process_vs_identity_target(self):
        for d in (2, 3, 6):
            assert average_gate_fidelity(np.eye(d), np.eye(d)) == 1.0

    def test_identity_vs_not_is_one_third(self):
        f = average_gate_fidelity(np.eye(2), ideal_not(2))
        assert f == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_global_phase_invariance(self, rng):
        u = ideal_not(4)
        v = np.linalg.qr(rng.normal(size=(4, 4))
                         + 1j * rng.normal(size=(4, 4)))[0]
        base = average_gate_fidelity(v, u)
        for theta in rng.uniform(0, 2 * math.pi, 8):
            f = average_gate_fidelity(np.exp(1j * theta) * v, u)
            assert abs(f - base) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            average_gate_fidelity(np.eye(3), np.eye(4))

    def test_leakage_witness(self):
        # ideal qubit action followed by a 1 <-> 2 beam splitter of
        # amplitude eps: error exceeds eps^2 / 3
        d = 3
        for eps in (0.05, 0.1, 0.2, 0.3):
            theta = math.asin(eps)
            bs = np.eye(d, dtype=complex)
            bs[1, 1] = bs[2, 2] = math.cos(theta)
            bs[1, 2], bs[2, 1] = -math.sin(theta), math.sin(theta)
            u = bs @ ideal_not(d)
            f = average_gate_fidelity(u, ideal_not(d))
            assert f < 1.0 - eps ** 2 / 3.0

    def test_paper_benchmark_anchor(self, sno5):
        # d=5 oscillator, shortest pulse of the benchmark set
        p = GaussianParams.for_not(1 / 3)
        cs = build_controls(sno5, DragVariant.GAUSSIAN0, p)
        u = propagate(sno5, cs, TimeGrid(p.t_g, 4096))
        err = gate_error(u, ideal_not(5))
        assert err == pytest.approx(0.198, rel=0.05)


class TestPhaseOptimizedDiagnostic:
    def test_never_worse_than_plain(self, sno5):
        p = GaussianParams.for_not(2 / 3)
        cs = build_controls(sno5, DragVariant.GAUSSIAN0, p)
        u = propagate(sno5, cs, TimeGrid(p.t_g, 1024))
        plain = gate_error(u, ideal_not(5))
        optimized = phase_optimized_gate_error(u, ideal_not(5))
        assert optimized <= plain + 1e-12

    def test_pure_z_error_fully_compensated(self):
        u = np.diag(np.exp(-1j * 0.2 * np.array([0.5, -0.5, 0.0]))) @ ideal_not(3)
        assert phase_optimized_gate_error(u, ideal_not(3)) < 1e-10


class TestClosedFormAgainstSixStates:
    @pytest.mark.parametrize("d", [3, 5])
    def test_random_unitaries(self, rng, d):
        target = ideal_not(d)
        for _ in range(20):
            u = _random_unitary(rng, d)
            assert abs(average_gate_fidelity(u, target)
                       - six_state_fidelity(u, target)) <= 1e-15

    def test_intermediate_qubit_rows(self, rng):
        qubit = (2, 3)
        target = ideal_not(5, qubit)
        for _ in range(20):
            u = _random_unitary(rng, 5)
            assert abs(average_gate_fidelity(u, target, qubit)
                       - six_state_fidelity(u, target, qubit)) <= 1e-15

    def test_leakage_rotation(self):
        d = 3
        for theta in np.linspace(0.0, math.pi, 13):
            leak = np.eye(d, dtype=complex)
            leak[1, 1] = leak[2, 2] = math.cos(theta)
            leak[1, 2], leak[2, 1] = -math.sin(theta), math.sin(theta)
            u = leak @ ideal_not(d)
            assert abs(average_gate_fidelity(u, ideal_not(d))
                       - six_state_fidelity(u, ideal_not(d))) <= 1e-15


class TestPhaseOptimizedClosedForm:
    def test_matches_dense_scan(self, rng):
        # the closed form is the exact optimum, so it sits at or just below
        # the best point of a fine scan of the virtual-Z angle (period 2 pi:
        # a 2 pi turn only flips the sign of the qubit block)
        thetas = np.linspace(0.0, 2.0 * math.pi, 2001)
        for qubit, d in (((0, 1), 3), ((0, 1), 5), ((2, 3), 5)):
            target = ideal_not(d, qubit)
            zgen = np.zeros(d)
            zgen[qubit[0]], zgen[qubit[1]] = 0.5, -0.5
            for _ in range(3):
                u = _random_unitary(rng, d)
                scan = min(gate_error(np.diag(np.exp(-1j * th * zgen)) @ u,
                                      target, qubit) for th in thetas)
                exact = phase_optimized_gate_error(u, target, qubit)
                assert exact <= scan + 1e-15
                assert scan - exact < 1e-5
