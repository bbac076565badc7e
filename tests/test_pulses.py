import math
import pickle
import random

import numpy as np
import pytest
from scipy.integrate import quad

from drag_forge import (Ansatz, DragVariant, GaussianParams, TimeGrid,
                        build_controls, build_intermediate_sno, build_sno,
                        build_star, effective_lambda, gate_error, ideal_not,
                        phase_ramp, propagate)
from drag_forge.model import SystemSpec, Topology
from drag_forge.pulses import (_FAMILY_B1, _table_row, controls_for,
                               first_order_coefficients)

TWO_PI = 2.0 * math.pi


def _g(p, t):
    return p.derivatives(t, 0)[0]


def _dg(p, t):
    return p.derivatives(t, 1)[1]


class TestGaussianEnvelope:
    def test_vanishes_at_boundaries(self):
        p = GaussianParams.for_not(0.5)
        v0, vg = _g(p, 0.0), _g(p, p.t_g)
        assert v0 == pytest.approx(0.0, abs=1e-15)
        assert vg == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("sigma,area", [(1 / 3, math.pi), (1.0, math.pi),
                                            (0.7, math.pi / 2)])
    def test_integral_equals_area(self, sigma, area):
        # adaptive quadrature is the oracle for the closed-form normalization
        p = GaussianParams(area, sigma, 4 * sigma)
        val, err = quad(lambda t: float(_g(p, t)), 0.0, p.t_g,
                        epsabs=1e-13, epsrel=1e-13)
        assert abs(val - area) < 1e-9 * abs(area)
        assert err < 1e-10

    def test_derivative_is_analytic(self):
        p = GaussianParams.for_not(0.5)
        ts = np.linspace(0.05, p.t_g - 0.05, 41)
        h = 1e-6
        fd = (_g(p, ts + h) - _g(p, ts - h)) / (2 * h)
        np.testing.assert_allclose(_dg(p, ts), fd, atol=1e-6)

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 1.5])
    def test_derivatives_match_differences(self, sigma):
        # each G^(k), k <= 5, against fourth-order central differences of
        # G^(k-1); the relative bound leaves the difference error a margin
        p = GaussianParams.for_not(sigma)
        n = 4096
        h = p.t_g / n
        gs = p.derivatives(np.linspace(0.0, p.t_g, n + 1), 5)
        assert len(gs) == 6
        for k in range(1, 6):
            f = gs[k - 1]
            fd = (f[:-4] - 8.0 * f[1:-3] + 8.0 * f[3:-1] - f[4:]) / (12.0 * h)
            scale = np.max(np.abs(gs[k]))
            assert np.max(np.abs(gs[k][2:-2] - fd)) <= 1e-8 * scale

    def test_first_derivatives_are_closed_form(self):
        # propagation samples through derivatives(t, 1): bit for bit the
        # closed form (G, -scale (t - t_g/2)/sigma^2 gauss), on arrays and
        # scalars, with pedestal and scale worked out here from the fields
        p = GaussianParams.for_not(2 / 3)
        pedestal = math.exp(-p.t_g ** 2 / (8.0 * p.sigma ** 2))
        z = (math.sqrt(2.0 * math.pi) * p.sigma
             * math.erf(p.t_g / (math.sqrt(8.0) * p.sigma))
             - p.t_g * pedestal)
        scale = p.area / z
        ts = np.linspace(0.0, p.t_g, 4097)
        for t in (ts, 0.0, ts[1234], p.t_g):
            u = np.asarray(t) - p.t_g / 2.0
            gauss = np.exp(-(u ** 2) / (2.0 * p.sigma ** 2))
            want = (scale * (gauss - pedestal),
                    scale * (-u / p.sigma ** 2) * gauss)
            got = p.derivatives(t, 1)
            assert len(got) == 2
            for a, b in zip(got, want):
                assert np.array_equal(a, b)
                assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
        assert len(p.derivatives(ts, 0)) == 1

    def test_evaluation_leaves_a_plain_record(self):
        # nothing is cached on the record, so an evaluated one still
        # equals, hashes and pickles as its three fields (ControlSet goes
        # through the process pool of fig5 and sweeps by pickle)
        p = GaussianParams.for_not(2 / 3)
        p.derivatives(np.linspace(0.0, p.t_g, 65), 3)
        p.int_value_squared(1.0)
        fresh = GaussianParams(p.area, p.sigma, p.t_g)
        assert vars(p) == vars(fresh) == {
            "area": math.pi, "sigma": 2 / 3, "t_g": 4 * (2 / 3)}
        assert p == fresh and hash(p) == hash(fresh)
        assert pickle.dumps(p) == pickle.dumps(fresh)
        assert pickle.loads(pickle.dumps(p)) == fresh

    def test_cumulative_integrals(self):
        p = GaussianParams.for_not(0.4)
        for t in (0.3, 0.9, p.t_g):
            want2, _ = quad(lambda s: float(_g(p, s)) ** 2, 0.0, t,
                            epsabs=1e-13)
            assert float(p.int_value_squared(t)) == pytest.approx(want2, abs=1e-10)

    def test_rejects_out_of_range(self):
        p = GaussianParams.for_not(0.5)
        with pytest.raises(ValueError, match="outside"):
            _g(p, -0.1)
        with pytest.raises(ValueError, match="outside"):
            _dg(p, p.t_g + 0.1)
        with pytest.raises(ValueError, match="outside"):
            p.int_value_squared(p.t_g + 0.1)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError, match="sigma"):
            GaussianParams(math.pi, -1.0, 4.0)
        with pytest.raises(ValueError, match="t_g"):
            GaussianParams(math.pi, 1.0, 0.0)
        # an infinite time would pass to propagate and fail there as NaN
        with pytest.raises(ValueError, match="t_g"):
            GaussianParams(math.pi, 1.0, math.inf)
        with pytest.raises(ValueError, match="sigma"):
            GaussianParams(math.pi, math.inf, 4.0)
        with pytest.raises(ValueError, match="sigma"):
            GaussianParams(math.pi, math.nan, 4.0)


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
        lo, hi = 0.0, p.t_g / 2  # envelope rises through 1 on the way up
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if float(_g(p, mid)) < 1.0:
                lo = mid
            else:
                hi = mid
        t_star = 0.5 * (lo + hi)
        assert float(_g(p, t_star)) == pytest.approx(1.0, abs=1e-10)
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
        ts = np.linspace(0, not_params.t_g, 101)
        lam1 = math.sqrt(2)
        np.testing.assert_allclose(
            cs.omega_y(ts), -lam1 ** 2 * _dg(not_params, ts) / (4 * -TWO_PI),
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

    @pytest.mark.parametrize("v1,v2,a3", [
        (DragVariant.Z_ONLY1, DragVariant.Z_ONLY2, lambda l2: l2 / 8),
        (DragVariant.Y_ONLY1, DragVariant.Y_ONLY2,
         lambda l2: -l2 * (l2 - 4) / 32),
        (DragVariant.DRAG1, DragVariant.DRAG2, lambda l2: (l2 - 4) / 8),
    ], ids=["z_only2", "y_only2", "drag2"])
    def test_cubic_term(self, sno5, not_params, v1, v2, a3):
        # omega_x gains a3 * G^3 / delta2^2 over the first-order base
        cs1 = build_controls(sno5, v1, not_params)
        cs2 = build_controls(sno5, v2, not_params)
        ts = np.linspace(0, not_params.t_g, 101)
        want = a3(2.0) * _g(not_params, ts) ** 3 / TWO_PI ** 2
        assert np.max(np.abs(want)) > 1e-3
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
        v_scalar, d_scalar = not_params.derivatives(1.3, 1)
        ts = np.array([1.3, 2.0])
        v_arr, d_arr = not_params.derivatives(ts, 1)
        assert float(v_scalar) == v_arr[0]
        assert float(d_scalar) == d_arr[0]

    def test_unknown_variant_name_rejected(self, sno5, not_params):
        # both table readers raise ValueError, never a bare KeyError
        with pytest.raises(ValueError, match="nope"):
            build_controls(sno5, "nope", not_params)
        with pytest.raises(ValueError, match="nope"):
            first_order_coefficients(sno5, "nope")


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
        t = 1.7
        want = float(_g(not_params, t)) ** 2 / 4.0 * (2.0 / (3.0 * -TWO_PI))
        assert float(cs.delta(t)) == pytest.approx(want, rel=1e-12)

    def test_optimal_quadrature_prefactor(self, inter5, not_params):
        # sqrt(4/3 + 2/3) = sqrt(2) over 2*delta2
        cs = controls_for(inter5, DragVariant.OPTIMAL1, not_params)
        t = 1.1
        want = -math.sqrt(2) * float(_dg(not_params, t)) / (2 * -TWO_PI)
        assert float(cs.omega_y(t)) == pytest.approx(want, rel=1e-12)

    def test_lower_channel_off_reduces_to_ladder(self, not_params):
        lam1 = math.sqrt(4 / 3)
        inter = SystemSpec(
            Topology.INTERMEDIATE, 5,
            {-2: -3 * TWO_PI, -1: -TWO_PI, 0: 0.0, 1: 0.0, 2: -TWO_PI},
            {-2: 0.5, -1: 0.0, 0: 1.0, 1: lam1})
        ladder = build_sno(3, -TWO_PI)
        ladder = type(ladder)(ladder.topology, 3, ladder.delta,
                              {0: 1.0, 1: lam1})
        ts = np.linspace(0, not_params.t_g, 200)
        for v in DragVariant:
            a = controls_for(inter, v, not_params)
            b = build_controls(ladder, v, not_params)
            for chan in ("omega_x", "omega_y", "delta"):
                np.testing.assert_allclose(getattr(a, chan)(ts),
                                           getattr(b, chan)(ts), atol=1e-13)

    def test_second_order_rows_beat_first_order(self, inter5, not_params):
        # off the ladder the a3 rows close the order-2 x mismatch, and the
        # gate error falls by about 3x at sigma = 1
        grid = TimeGrid(not_params.t_g, 4096)
        uid = ideal_not(inter5.d, inter5.qubit_rows)

        def err(v):
            u = propagate(inter5, controls_for(inter5, v, not_params), grid)
            return gate_error(u, uid, inter5.qubit_rows)
        assert err(DragVariant.Z_ONLY2) < err(DragVariant.Z_ONLY1)
        assert err(DragVariant.Y_ONLY2) < err(DragVariant.Y_ONLY1)


class TestStarVariants:
    def test_effective_lambda_single_channel(self, not_params):
        star = build_star([-TWO_PI], [1.0])
        assert effective_lambda(star) == pytest.approx(1.0)

    def test_effective_lambda_example(self, star6):
        # direct-sum oracle: sqrt(1 + 1/4 + 1/9 + 1/16)
        oracle = math.sqrt(1 + 1 / 4 + 1 / 9 + 1 / 16)
        assert effective_lambda(star6) == pytest.approx(oracle, abs=1e-12)

    def test_effective_lambda_scaling_invariance(self):
        a = build_star([-TWO_PI, -3 * TWO_PI], [0.8, 1.2])
        b = build_star([-3 * TWO_PI, -9 * TWO_PI], [0.8, 1.2])
        assert effective_lambda(a) == pytest.approx(effective_lambda(b))

    def test_single_leak_star_equals_ladder(self, not_params):
        star = build_star([-TWO_PI], [math.sqrt(2)])
        ladder = build_sno(3, -TWO_PI)
        ts = np.linspace(0, not_params.t_g, 200)
        for v in DragVariant:
            a = controls_for(star, v, not_params)
            b = build_controls(ladder, v, not_params)
            for chan in ("omega_x", "omega_y", "delta"):
                np.testing.assert_allclose(getattr(a, chan)(ts),
                                           getattr(b, chan)(ts), atol=1e-12)

    def test_waveforms_equal_ladder_with_lambda_tilde(self, star6, not_params):
        lt = effective_lambda(star6)
        ladder = build_sno(3, -TWO_PI)
        ladder = type(ladder)(ladder.topology, 3, ladder.delta,
                              {0: 1.0, 1: lt})
        ts = np.linspace(0, not_params.t_g, 1000)
        for v in DragVariant:
            a = controls_for(star6, v, not_params)
            b = build_controls(ladder, v, not_params)
            for chan in ("omega_x", "omega_y", "delta"):
                dev = np.max(np.abs(getattr(a, chan)(ts) - getattr(b, chan)(ts)))
                assert dev < 1e-12


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

    def test_ramp_is_another_pulse(self, sno5, not_params):
        cs = build_controls(sno5, DragVariant.DRAG1, not_params)
        assert phase_ramp(cs) != cs


def test_control_set_is_a_record(sno5, not_params):
    # plain data: a set pickles to an equal set, its one channel method is
    # what the single-channel methods return, and mirror is derived
    ts = np.linspace(0, not_params.t_g, 301)
    for variant in (DragVariant.DRAG2, Ansatz(1.02, 0.4, -0.3, 0.25)):
        cs = controls_for(sno5, variant, not_params)
        for s in (cs, phase_ramp(cs)):
            back = pickle.loads(pickle.dumps(s))
            assert back == s and back is not s
            chans = s.channels(ts)
            for got, want in zip(back.channels(ts), chans):
                np.testing.assert_array_equal(got, want)
            for got, want in zip((s.omega_x(ts), s.omega_y(ts),
                                  s.delta(ts)), chans):
                np.testing.assert_array_equal(got, want)
            assert s.mirror is not s.ramp
        assert not cs.ramp and phase_ramp(cs).ramp


def test_controls_for_dispatch(sno5, inter5, star6, not_params):
    # the ansatz maps alpha -> a1, beta -> -b1, gamma -> c2, delta0 -> c0
    # with a3 = 0; a named variant is a1 = 1, c0 = 0 and its table row
    cs = controls_for(star6, Ansatz(1.02, 0.4, -0.3, 0.25), not_params)
    assert (cs.a1, cs.b1, cs.c2, cs.c0, cs.a3) == (1.02, -0.4, -0.3, 0.25, 0.0)
    for spec, v in ((sno5, DragVariant.DRAG2), (inter5, DragVariant.OPTIMAL1),
                    (star6, DragVariant.Z_ONLY1)):
        cs = controls_for(spec, v, not_params)
        assert (cs.pulse, cs.delta2, cs.a1, cs.c0) == (
            not_params, spec.delta2, 1.0, 0.0)
        assert (cs.b1, cs.c2, cs.a3) == _table_row(spec, v)
    assert build_controls is controls_for


def test_sets_compare_by_pulse(sno5, not_params):
    # a set is its coefficients: the named optimal1 and the ansatz with its
    # coefficients are one pulse, so they are equal and hash alike
    b1, c2 = first_order_coefficients(sno5, DragVariant.OPTIMAL1)
    named = controls_for(sno5, "optimal1", not_params)
    free = controls_for(sno5, Ansatz(1.0, -b1, c2, 0.0), not_params)
    assert named == free and hash(named) == hash(free)


def test_every_variant_is_one_table_row_on_every_topology(
        sno5, inter5, star6, not_params):
    # a variant's name is a family and an order: gaussian0 is the one
    # uncorrected row, every other family has a b1, and controls_for builds
    # _table_row's row on every system
    families = set()
    for v in DragVariant:
        family, order = v.value[:-1], int(v.value[-1])
        assert (family, order) == ("gaussian", 0) or (
            family in _FAMILY_B1 and order in (1, 2))
        families.add(family)
    assert families == set(_FAMILY_B1) | {"gaussian"}
    for spec in (sno5, inter5, star6):
        for v in DragVariant:
            cs = controls_for(spec, v, not_params)
            assert (cs.b1, cs.c2, cs.a3) == _table_row(spec, v)


# The hand-derived (b1, c2, a3) of every named variant from the Stark
# bracket S and weight Lam, which the family relations replaced: the
# reference that every built row must equal bit for bit.
_HAND_ROWS = {
    DragVariant.GAUSSIAN0: lambda s, lam: (0.0, 0.0, 0.0),
    DragVariant.Z_ONLY1: lambda s, lam: (0.0, s / 4.0, 0.0),
    DragVariant.Y_ONLY1: lambda s, lam: (-s / 4.0, 0.0, 0.0),
    DragVariant.OPTIMAL1: lambda s, lam: (-lam / 2.0, (s - 2.0 * lam) / 4.0, 0.0),
    DragVariant.DRAG1: lambda s, lam: (-1.0, (s - 4.0) / 4.0, 0.0),
    DragVariant.Z_ONLY2: lambda s, lam: (0.0, s / 4.0, lam ** 2 / 8.0),
    DragVariant.Y_ONLY2: lambda s, lam: (
        -s / 4.0, 0.0, lam ** 2 / 8.0 - s * s / 32.0),
    DragVariant.DRAG2: lambda s, lam: (
        -1.0, (s - 4.0) / 4.0, (lam ** 2 - 4.0) / 8.0),
}


def _stark_and_weight(spec):
    """(S, Lam): lam1 (lambda-tilde on a star) on a ladder or star, and the
    upper and lower channels combined on an intermediate system."""
    if spec.topology is Topology.STAR:
        lam1 = effective_lambda(spec)
    else:
        lam1 = spec.lam[1]
    if spec.topology is not Topology.INTERMEDIATE:
        return lam1 * lam1, lam1
    lam_m1 = spec.lam[-1]
    r = spec.delta2 / spec.delta[-1]
    return (lam1 * lam1 - r * lam_m1 * lam_m1,
            math.sqrt(lam1 * lam1 + r * r * lam_m1 * lam_m1))


def _reference_systems():
    """The named examples and, from one seed, 3000 ladders with lam1 in
    [0.3, 4], 1000 stars and 500 intermediate systems."""
    systems = [build_sno(d, -TWO_PI) for d in (3, 4, 5, 7, 9)]
    systems += [build_intermediate_sno(d, -TWO_PI) for d in (5, 7, 9)]
    systems += [build_star([-TWO_PI * k for k in range(1, 5)], [1.0] * 4),
                build_star([-TWO_PI, -3 * TWO_PI], [0.8, 1.2])]
    rnd = random.Random(1)

    def leak():
        return rnd.choice((-1.0, 1.0)) * rnd.uniform(0.2, 10.0) * TWO_PI

    for _ in range(3000):
        d = rnd.randint(3, 6)
        delta = {j: leak() for j in range(2, d)}
        delta.update({0: 0.0, 1: 0.0})
        lam = {j: rnd.uniform(0.3, 4.0) for j in range(1, d - 1)}
        lam[0] = 1.0
        systems.append(SystemSpec(Topology.LADDER, d, delta, lam))
    for _ in range(1000):
        n = rnd.randint(1, 4)
        systems.append(build_star([leak() for _ in range(n)],
                                  [rnd.uniform(0.1, 3.0) for _ in range(n)]))
    for _ in range(500):
        n = rnd.randint(2, 4)
        delta = {j: leak() for j in range(-n, n + 1) if j not in (0, 1)}
        delta.update({0: 0.0, 1: 0.0})
        lam = {m: rnd.uniform(0.1, 3.0) for m in range(-n, n)}
        lam[0] = 1.0
        systems.append(SystemSpec(Topology.INTERMEDIATE, 2 * n + 1, delta,
                                  lam))
    return systems


@pytest.fixture(scope="module")
def reference_rows():
    """(variant, S, Lam, built set) of every variant on every reference
    system."""
    params = GaussianParams.for_not(1.0)
    rows = []
    for spec in _reference_systems():
        s, lam = _stark_and_weight(spec)
        for v in DragVariant:
            rows.append((v, s, lam, controls_for(spec, v, params)))
    return rows


def test_rows_equal_the_hand_derived_table(reference_rows):
    # bit for bit, signed zeros included: each coefficient's repr
    assert len(reference_rows) == 4510 * len(DragVariant)
    for v, s, lam, cs in reference_rows:
        got = tuple(repr(c) for c in (cs.b1, cs.c2, cs.a3))
        assert got == tuple(repr(c) for c in _HAND_ROWS[v](s, lam)), (
            v, s, lam)


def test_rows_satisfy_the_family_relations(reference_rows):
    # c2 = S/4 + b1 on every corrected row; a3 = Lam^2/8 - b1^2/2 on every
    # second-order row and 0 on every first-order row, all exactly
    for v, s, lam, cs in reference_rows:
        order = int(v.value[-1])
        if order == 0:
            continue
        assert cs.c2 == s / 4.0 + cs.b1, (v, s, lam)
        if order == 2:
            assert cs.a3 == lam ** 2 / 8.0 - cs.b1 * cs.b1 / 2.0, (v, s, lam)
        else:
            assert repr(cs.a3) == "0.0", (v, s, lam)
