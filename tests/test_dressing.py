import math
import pickle

import numpy as np
import pytest

from drag_forge.dressing import (CavitySpec, DISPERSIVE_LIMIT, chi,
                                 dispersive_ratio, dressed_params,
                                 lambda_dressed, lambda_sno)

TWO_PI = 2.0 * math.pi


def _sno_cavity(d=4, omega=5.0 * TWO_PI, omega_r=7.0 * TWO_PI,
                delta2=-0.3 * TWO_PI, g01=0.05 * TWO_PI):
    """SNO-limit cavity: g_{j-1,j} = sqrt(j) g01, delta_j quadratic."""
    delta = {j: delta2 * j * (j - 1) / 2 for j in range(d)}
    g = {j: math.sqrt(j) * g01 for j in range(1, d)}
    return CavitySpec(omega_r, omega, delta, g)


class TestChi:
    def test_zero_coupling(self):
        cav = _sno_cavity(g01=0.0)
        assert chi(cav, 1) == 0.0

    def test_direct_arithmetic(self):
        cav = CavitySpec(1.0, 2.0, {0: 0.0, 1: 0.0}, {1: 0.1})
        assert chi(cav, 1) == pytest.approx(0.01)

    def test_sign_follows_detuning(self):
        above = CavitySpec(1.0, 2.0, {0: 0.0, 1: 0.0}, {1: 0.1})
        below = CavitySpec(3.0, 2.0, {0: 0.0, 1: 0.0}, {1: 0.1})
        assert chi(above, 1) > 0 > chi(below, 1)

    def test_resonance_rejected_at_construction(self):
        with pytest.raises(ValueError, match="resonant"):
            CavitySpec(2.0, 2.0, {0: 0.0, 1: 0.0}, {1: 0.1})


class TestCavityRecord:
    @pytest.mark.parametrize("delta_bare,g,match", [
        ({0: 0.0, 1: 0.0, 3: -0.5}, {1: 0.1, 2: 0.1},
         "delta_bare must cover levels 0..d-1"),
        ({0: 0.0, 1: 0.2, 2: -0.5}, {1: 0.1, 2: 0.1},
         "delta_bare\\[0\\] and delta_bare\\[1\\] must be 0"),
        ({0: 0.0, 1: 0.0, 2: -0.5}, {1: 0.1},
         "g must cover transitions 1..d-1"),
    ], ids=["levels-gap", "qubit-delta", "g-short"])
    def test_refuses_maps_off_the_levels(self, delta_bare, g, match):
        with pytest.raises(ValueError, match=match):
            CavitySpec(1.0, 2.0, delta_bare, g)

    def test_maps_are_read_only(self):
        # delta_bare[2] = -1 would make 1->2 resonant after the check, and
        # chi divide by zero
        cav = CavitySpec(1.0, 2.0, {0: 0.0, 1: 0.0, 2: -0.5}, {1: 0.1, 2: 0.14})
        for m, key in ((cav.delta_bare, 2), (cav.g, 1)):
            with pytest.raises(TypeError, match="read-only"):
                m[key] = -1.0
            with pytest.raises(TypeError, match="read-only"):
                m.update({key: -1.0})
        assert chi(cav, 2) == 0.14 ** 2 / 0.5

    def test_hashes_and_pickles_by_value(self):
        a, b = _sno_cavity(), _sno_cavity()
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        back = pickle.loads(pickle.dumps(a))
        assert back == a and hash(back) == hash(a)
        assert dressed_params(back) == dressed_params(a)


class TestDressedParams:
    def test_uncoupled_is_bare(self):
        cav = _sno_cavity(g01=0.0)
        omega_tilde, delta_tilde = dressed_params(cav)
        assert omega_tilde == cav.omega
        for j, v in cav.delta_bare.items():
            assert delta_tilde[j] == pytest.approx(v)

    def test_qubit_level_shift_cancels(self):
        cav = _sno_cavity()
        _, delta_tilde = dressed_params(cav)
        assert delta_tilde[1] == pytest.approx(0.0, abs=1e-15)

    def test_jaynes_cummings_eigenvalue_oracle(self):
        # diagonalize the truncated ladder-resonator Hamiltonian and compare
        # the vacuum-branch anharmonicities with the chi-shift formulas
        def jc_matrix(cav, n_ph):
            d = cav.d
            dim = d * n_ph
            h = np.zeros((dim, dim))
            for j in range(d):
                for n in range(n_ph):
                    k = j * n_ph + n
                    h[k, k] = j * cav.omega + cav.delta_bare[j] + n * cav.omega_r
            for j in range(1, d):
                for n in range(1, n_ph):
                    a = (j - 1) * n_ph + n      # |j-1, n>
                    b = j * n_ph + (n - 1)      # |j, n-1>
                    h[a, b] = h[b, a] = cav.g[j] * math.sqrt(n)
            return h

        def dressed_numeric(cav, n_ph=6):
            h = jc_matrix(cav, n_ph)
            w, v = np.linalg.eigh(h)
            energies = {}
            for j in range(cav.d):
                k = j * n_ph  # bare |j, vacuum>
                idx = int(np.argmax(np.abs(v[k, :])))
                energies[j] = w[idx]
            omega_t = energies[1] - energies[0]
            delta_t = {j: energies[j] - energies[0] - j * omega_t
                       for j in range(cav.d)}
            return omega_t, delta_t

        g01 = 0.02 * TWO_PI
        cav = _sno_cavity(g01=g01)
        omega_t, delta_t = dressed_params(cav)
        omega_n, delta_n = dressed_numeric(cav)
        det = min(abs(cav.omega_prime(j) - cav.omega_r) for j in cav.g)
        bound = 50.0 * (2 * g01) ** 4 / det ** 3
        assert abs(omega_n - omega_t) < bound
        for j in range(2, cav.d):
            assert abs(delta_n[j] - delta_t[j]) < bound

        # quartic scaling: halving g shrinks the residual ~16x
        cav2 = _sno_cavity(g01=g01 / 2)
        _, d2_t = dressed_params(cav2)
        _, d2_n = dressed_numeric(cav2)
        r1 = abs(delta_n[2] - delta_t[2])
        r2 = abs(d2_n[2] - d2_t[2])
        assert r1 / r2 == pytest.approx(16.0, rel=0.35)


class TestLambdaDressed:
    def test_first_transition_is_unity(self):
        lam, _ = lambda_dressed(_sno_cavity(), 1)
        assert lam == 1.0

    def test_equal_couplings_and_detunings(self):
        # harmonic spectrum (delta2 = 0) with uniform coupling: lambda = 1
        cav = CavitySpec(1.0, 3.0, {0: 0.0, 1: 0.0, 2: 0.0}, {1: 0.1, 2: 0.1})
        lam, _ = lambda_dressed(cav, 2)
        assert lam == pytest.approx(1.0)

    def test_drive_rescaling_factor(self):
        cav = _sno_cavity()
        _, scale = lambda_dressed(cav, 2)
        assert scale == pytest.approx(
            cav.g[1] / (cav.omega_prime(1) - cav.omega_r))

    def test_sno_limit_matches_closed_form(self):
        cav = _sno_cavity(d=5)
        ratio = -0.3 * TWO_PI / (cav.omega - cav.omega_r)
        for j in range(1, 5):
            lam, _ = lambda_dressed(cav, j)
            assert abs(lam - lambda_sno(j, ratio)) < 1e-14


class TestLambdaSno:
    def test_harmonic_limit(self):
        assert lambda_sno(2, 0.0) == pytest.approx(math.sqrt(2))

    def test_direct_evaluation(self):
        assert lambda_sno(2, -0.5) == pytest.approx(2 * math.sqrt(2))

    def test_pole_raises(self):
        with pytest.raises(ZeroDivisionError, match="pole"):
            lambda_sno(2, -1.0)

    def test_rejects_transition_below_one(self):
        for j in (0, -1):
            with pytest.raises(ValueError, match="j must be >= 1"):
                lambda_sno(j, 0.1)

    def test_first_transition_always_unity(self):
        for ratio in (-2.0, -0.3, 0.0, 1.5):
            assert lambda_sno(1, ratio) == 1.0

    def test_sign_change_across_pole(self):
        assert lambda_sno(2, -0.9) > 0 > lambda_sno(2, -1.1)


class TestDispersiveFlag:
    def test_well_dispersive(self):
        assert dispersive_ratio(_sno_cavity(g01=0.01 * TWO_PI)) < DISPERSIVE_LIMIT

    def test_flag_raised_near_resonance(self):
        cav = _sno_cavity(g01=0.5 * TWO_PI)
        assert dispersive_ratio(cav) > DISPERSIVE_LIMIT
