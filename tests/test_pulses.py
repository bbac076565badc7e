import math

import numpy as np
import pytest
from scipy.integrate import quad

from drag_forge import (Ansatz, DragVariant, GaussianParams, build_controls,
                        build_sno, effective_lambda, phase_ramp)
from drag_forge.pulses import ControlSet, GaussianEnvelope, controls_for

TWO_PI = 2.0 * math.pi


class TestGaussianEnvelope:
    def test_vanishes_at_boundaries(self):
        p = GaussianParams.for_not(0.5)
        env = GaussianEnvelope(p)
        v0, vg = env.value(0.0), env.value(p.t_g)
        assert v0 == pytest.approx(0.0, abs=1e-15)
        assert vg == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("sigma,area", [(1 / 3, math.pi), (1.0, math.pi),
                                            (0.7, math.pi / 2)])
    def test_integral_equals_area(self, sigma, area):
        # adaptive quadrature is the oracle for the closed-form normalization
        p = GaussianParams(area, sigma, 4 * sigma)
        env = GaussianEnvelope(p)
        val, err = quad(lambda t: float(env.value(t)), 0.0, p.t_g,
                        epsabs=1e-13, epsrel=1e-13)
        assert abs(val - area) < 1e-9 * abs(area)
        assert err < 1e-10

    def test_derivative_is_analytic(self):
        p = GaussianParams.for_not(0.5)
        env = GaussianEnvelope(p)
        ts = np.linspace(0.05, p.t_g - 0.05, 41)
        h = 1e-6
        fd = (env.value(ts + h) - env.value(ts - h)) / (2 * h)
        np.testing.assert_allclose(env.d1(ts), fd, atol=1e-6)

    def test_cumulative_integrals(self):
        p = GaussianParams.for_not(0.4)
        env = GaussianEnvelope(p)
        for t in (0.3, 0.9, p.t_g):
            want2, _ = quad(lambda s: float(env.value(s)) ** 2, 0.0, t,
                            epsabs=1e-13)
            assert float(env.int_value_squared(t)) == pytest.approx(want2, abs=1e-10)

    def test_rejects_out_of_range(self):
        env = GaussianEnvelope(GaussianParams.for_not(0.5))
        with pytest.raises(ValueError, match="outside"):
            env.value(-0.1)
        with pytest.raises(ValueError, match="outside"):
            env.d1(env.params.t_g + 0.1)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            GaussianParams(math.pi, -1.0, 4.0)
        with pytest.raises(ValueError):
            GaussianParams(math.pi, 1.0, 0.0)


class TestLadderVariants:
    def test_gaussian0_has_silent_channels(self, sno5, not_params):
        cs = build_controls(sno5, DragVariant.GAUSSIAN0, not_params)
        ts = np.linspace(0, not_params.t_g, 101)
        assert np.all(cs.omega_y(ts) == 0)
        assert np.all(cs.delta(ts) == 0)

    def test_z_only_detuning_value(self, sno3):
        # delta(t*) = lam1^2 * G(t*)^2 / (4 delta2) with G(t*) = 1
        p = GaussianParams.for_not(1 / 3)
        cs = build_controls(sno3, DragVariant.Z_ONLY1, p)
        env = GaussianEnvelope(p)
        lo, hi = 0.0, p.t_g / 2  # envelope rises through 1 on the way up
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if float(env.value(mid)) < 1.0:
                lo = mid
            else:
                hi = mid
        t_star = 0.5 * (lo + hi)
        assert float(env.value(t_star)) == pytest.approx(1.0, abs=1e-10)
        assert float(cs.delta(t_star)) == pytest.approx(
            2.0 * 1.0 / (4 * -TWO_PI), abs=1e-9)

    def test_drag1_detuning_vanishes_at_lam_2(self, not_params):
        # the (lam1^2 - 4) bracket is zero when lam1 = 2
        spec = build_sno(3, -TWO_PI)
        spec = type(spec)(spec.topology, 3, spec.delta, {0: 1.0, 1: 2.0})
        cs = build_controls(spec, DragVariant.DRAG1, not_params)
        ts = np.linspace(0, not_params.t_g, 101)
        np.testing.assert_allclose(cs.delta(ts), 0.0, atol=1e-15)

    def test_y_only_quadrature(self, sno5, not_params):
        cs = build_controls(sno5, DragVariant.Y_ONLY1, not_params)
        env = GaussianEnvelope(not_params)
        ts = np.linspace(0, not_params.t_g, 101)
        lam1 = math.sqrt(2)
        np.testing.assert_allclose(
            cs.omega_y(ts), -lam1 ** 2 * env.d1(ts) / (4 * -TWO_PI),
            atol=1e-14)

    def test_second_order_changes_only_omega_x(self, sno5, not_params):
        ts = np.linspace(0, not_params.t_g, 101)
        for v1, v2 in [(DragVariant.Z_ONLY1, DragVariant.Z_ONLY2),
                       (DragVariant.Y_ONLY1, DragVariant.Y_ONLY2),
                       (DragVariant.DRAG1, DragVariant.DRAG2)]:
            a = build_controls(sno5, v1, not_params)
            b = build_controls(sno5, v2, not_params)
            np.testing.assert_array_equal(a.omega_y(ts), b.omega_y(ts))
            np.testing.assert_array_equal(a.delta(ts), b.delta(ts))
            assert np.max(np.abs(a.omega_x(ts) - b.omega_x(ts))) > 0

    def test_drag2_cubic_term(self, sno5, not_params):
        cs1 = build_controls(sno5, DragVariant.DRAG1, not_params)
        cs2 = build_controls(sno5, DragVariant.DRAG2, not_params)
        env = GaussianEnvelope(not_params)
        ts = np.linspace(0, not_params.t_g, 101)
        want = (2.0 - 4.0) * env.value(ts) ** 3 / (8 * TWO_PI ** 2)
        np.testing.assert_allclose(cs2.omega_x(ts) - cs1.omega_x(ts), want,
                                   atol=1e-13)

    def test_omega_x_vanishes_at_boundaries(self, sno5, not_params):
        for v in DragVariant:
            cs = build_controls(sno5, v, not_params)
            assert float(cs.omega_x(0.0)) == pytest.approx(0.0, abs=1e-14)
            assert float(cs.omega_x(not_params.t_g)) == pytest.approx(0.0, abs=1e-14)

    def test_quadratic_detuning_vanishes_at_boundaries(self, sno5, not_params):
        # delta ~ G^2 with no constant offset is pinned to zero at the edges
        for v in (DragVariant.Z_ONLY1, DragVariant.OPTIMAL1, DragVariant.DRAG1):
            cs = build_controls(sno5, v, not_params)
            assert float(cs.delta(0.0)) == pytest.approx(0.0, abs=1e-14)
            assert float(cs.delta(not_params.t_g)) == pytest.approx(0.0, abs=1e-14)

    def test_gaussian_scalar_and_array_agree(self, not_params):
        env = GaussianEnvelope(not_params)
        v_scalar, d_scalar = env.value(1.3), env.d1(1.3)
        ts = np.array([1.3, 2.0])
        v_arr, d_arr = env.value(ts), env.d1(ts)
        assert float(v_scalar) == v_arr[0]
        assert float(d_scalar) == d_arr[0]

    def test_analytic_variant_rejects_non_ladder(self, star6, not_params):
        with pytest.raises(ValueError, match="not available for star"):
            build_controls(star6, DragVariant.DRAG1, not_params)


class TestAnsatz:
    def test_reduces_to_gaussian0(self, sno5, not_params):
        a = build_controls(sno5, Ansatz(1.0, 0.0, 0.0, 0.0), not_params)
        b = build_controls(sno5, DragVariant.GAUSSIAN0, not_params)
        ts = np.linspace(0, not_params.t_g, 300)
        for chan in ("omega_x", "omega_y", "delta"):
            np.testing.assert_allclose(getattr(a, chan)(ts),
                                       getattr(b, chan)(ts), atol=1e-15)

    def test_reduces_to_optimal1(self, sno5, not_params):
        lam1 = math.sqrt(2)
        a = build_controls(
            sno5, Ansatz(1.0, lam1 / 2, (lam1 ** 2 - 2 * lam1) / 4, 0.0),
            not_params)
        b = build_controls(sno5, DragVariant.OPTIMAL1, not_params)
        ts = np.linspace(0, not_params.t_g, 300)
        for chan in ("omega_x", "omega_y", "delta"):
            np.testing.assert_allclose(getattr(a, chan)(ts),
                                       getattr(b, chan)(ts), atol=1e-14)

    def test_works_on_any_topology(self, star6, inter5, not_params):
        for spec in (star6, inter5):
            cs = build_controls(spec, Ansatz(1.1, 0.3, -0.2, 0.01), not_params)
            assert np.isfinite(cs.omega_x(not_params.t_g / 2))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            Ansatz(math.nan, 0.0, 0.0, 0.0)


class TestIntermediateVariants:
    def test_z_only_bracket(self, inter5, not_params):
        # bracket (4/3 - 2/3)/delta2 = 2/(3 delta2) at the window parameters
        cs = controls_for(inter5, DragVariant.Z_ONLY1, not_params)
        env = GaussianEnvelope(not_params)
        t = 1.7
        want = float(env.value(t)) ** 2 / 4.0 * (2.0 / (3.0 * -TWO_PI))
        assert float(cs.delta(t)) == pytest.approx(want, rel=1e-12)

    def test_optimal_quadrature_prefactor(self, inter5, not_params):
        # sqrt(4/3 + 2/3) = sqrt(2) over 2*delta2
        cs = controls_for(inter5, DragVariant.OPTIMAL1, not_params)
        env = GaussianEnvelope(not_params)
        t = 1.1
        want = -math.sqrt(2) * float(env.d1(t)) / (2 * -TWO_PI)
        assert float(cs.omega_y(t)) == pytest.approx(want, rel=1e-12)

    def test_lower_channel_off_reduces_to_ladder(self, not_params):
        from drag_forge.model import SystemSpec, Topology
        lam1 = math.sqrt(4 / 3)
        inter = SystemSpec(
            Topology.INTERMEDIATE, 5,
            {-2: -3 * TWO_PI, -1: -TWO_PI, 0: 0.0, 1: 0.0, 2: -TWO_PI},
            {-2: 0.5, -1: 0.0, 0: 1.0, 1: lam1})
        ladder = build_sno(3, -TWO_PI)
        ladder = type(ladder)(ladder.topology, 3, ladder.delta,
                              {0: 1.0, 1: lam1})
        ts = np.linspace(0, not_params.t_g, 200)
        for v in (DragVariant.Z_ONLY1, DragVariant.Y_ONLY1, DragVariant.OPTIMAL1):
            a = controls_for(inter, v, not_params)
            b = build_controls(ladder, v, not_params)
            for chan in ("omega_x", "omega_y", "delta"):
                np.testing.assert_allclose(getattr(a, chan)(ts),
                                           getattr(b, chan)(ts), atol=1e-13)

    def test_rejects_other_variants(self, inter5, not_params):
        with pytest.raises(ValueError, match="not available"):
            controls_for(inter5, DragVariant.DRAG1, not_params)


class TestStarVariants:
    def test_effective_lambda_single_channel(self, not_params):
        from drag_forge import build_star
        star = build_star([-TWO_PI], [1.0])
        assert effective_lambda(star) == pytest.approx(1.0)

    def test_effective_lambda_example(self, star6):
        # direct-sum oracle: sqrt(1 + 1/4 + 1/9 + 1/16)
        oracle = math.sqrt(1 + 1 / 4 + 1 / 9 + 1 / 16)
        assert effective_lambda(star6) == pytest.approx(oracle, abs=1e-12)

    def test_effective_lambda_scaling_invariance(self):
        from drag_forge import build_star
        a = build_star([-TWO_PI, -3 * TWO_PI], [0.8, 1.2])
        b = build_star([-3 * TWO_PI, -9 * TWO_PI], [0.8, 1.2])
        assert effective_lambda(a) == pytest.approx(effective_lambda(b))

    def test_single_leak_star_equals_ladder(self, not_params):
        from drag_forge import build_star
        star = build_star([-TWO_PI], [math.sqrt(2)])
        ladder = build_sno(3, -TWO_PI)
        ts = np.linspace(0, not_params.t_g, 200)
        for v in (DragVariant.Z_ONLY1, DragVariant.Y_ONLY1, DragVariant.OPTIMAL1):
            a = controls_for(star, v, not_params)
            b = build_controls(ladder, v, not_params)
            for chan in ("omega_x", "omega_y", "delta"):
                np.testing.assert_allclose(getattr(a, chan)(ts),
                                           getattr(b, chan)(ts), atol=1e-12)

    def test_waveforms_equal_ladder_with_lambda_tilde(self, star6, not_params):
        from drag_forge.model import SystemSpec
        lt = effective_lambda(star6)
        ladder = build_sno(3, -TWO_PI)
        ladder = type(ladder)(ladder.topology, 3, ladder.delta,
                              {0: 1.0, 1: lt})
        ts = np.linspace(0, not_params.t_g, 1000)
        for v in (DragVariant.Z_ONLY1, DragVariant.Y_ONLY1, DragVariant.OPTIMAL1):
            a = controls_for(star6, v, not_params)
            b = build_controls(ladder, v, not_params)
            for chan in ("omega_x", "omega_y", "delta"):
                dev = np.max(np.abs(getattr(a, chan)(ts) - getattr(b, chan)(ts)))
                assert dev < 1e-12

    def test_rejects_other_variants(self, star6, not_params):
        with pytest.raises(ValueError, match="not available"):
            controls_for(star6, DragVariant.DRAG2, not_params)


class TestPhaseRamp:
    def test_zero_detuning_is_identity(self, sno5, not_params):
        cs = build_controls(sno5, DragVariant.Y_ONLY1, not_params)  # delta = 0
        rcs = phase_ramp(cs)
        ts = np.linspace(0, not_params.t_g, 300)
        np.testing.assert_allclose(rcs.omega_x(ts), cs.omega_x(ts), atol=1e-14)
        np.testing.assert_allclose(rcs.omega_y(ts), cs.omega_y(ts), atol=1e-14)
        assert np.all(rcs.delta(ts) == 0)

    def test_constant_detuning_closed_form(self, sno5, not_params):
        c = 0.37
        cs = build_controls(sno5, Ansatz(1.0, 0.0, 0.0, c), not_params)
        rcs = phase_ramp(cs)
        ts = np.linspace(0, not_params.t_g, 200)
        ox = np.asarray(cs.omega_x(ts))
        np.testing.assert_allclose(rcs.omega_x(ts), ox * np.cos(c * ts),
                                   atol=1e-12)
        np.testing.assert_allclose(rcs.omega_y(ts), ox * np.sin(c * ts),
                                   atol=1e-12)

    def test_rejects_set_without_phi(self, sno5, not_params):
        cs = build_controls(sno5, DragVariant.Z_ONLY1, not_params)
        stripped = ControlSet(cs.omega_x, cs.omega_y, cs.delta, cs.t_g,
                              cs.variant, cs.params, None)
        with pytest.raises(ValueError, match="closed-form phi"):
            phase_ramp(stripped)


def test_controls_for_dispatch(sno5, inter5, star6, not_params):
    assert controls_for(sno5, DragVariant.DRAG2, not_params).variant == "drag2"
    assert controls_for(inter5, DragVariant.OPTIMAL1, not_params).variant == "optimal1"
    assert controls_for(star6, DragVariant.Z_ONLY1, not_params).variant == "z_only1"
    assert "ansatz" in controls_for(star6, Ansatz(1, 0, 0, 0), not_params).variant
    assert build_controls is controls_for


def test_recorded_drive_weights(sno5, inter5, star6, not_params):
    # each topology records the weights its closed forms were built from
    lad = controls_for(sno5, DragVariant.DRAG2, not_params).params
    assert lad["lambda1"] == sno5.lam[1] and "lambda_m1" not in lad
    mid = controls_for(inter5, DragVariant.Z_ONLY1, not_params).params
    assert (mid["lambda1"], mid["lambda_m1"]) == (inter5.lam[1], inter5.lam[-1])
    star = controls_for(star6, DragVariant.Y_ONLY1, not_params).params
    assert star["lambda_tilde"] == effective_lambda(star6)
    assert "lambda1" not in star
