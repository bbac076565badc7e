import math

import numpy as np
import pytest

from drag_forge import (Ansatz, DragVariant, GaussianParams, TimeGrid,
                        build_controls, build_sno)
from drag_forge import adiabatic
from drag_forge.adiabatic import (constraint_residuals, frame_second_order,
                                  frames_for, h_eff_exact, h_extra,
                                  series_vs_exact_deviation,
                                  _comm, _comm_h0, _component_maxima,
                                  _expansion, _recursion_frame, _transformed)
from drag_forge.pulses import GaussianEnvelope

FIRST_ORDER = [DragVariant.Z_ONLY1, DragVariant.Y_ONLY1,
               DragVariant.OPTIMAL1, DragVariant.DRAG1]
# (topology fixture, variant) of every published closed form
PUBLISHED = ([("sno5", v) for v in DragVariant]
             + [(t, v) for t in ("inter5", "star6")
                for v in (DragVariant.Z_ONLY1, DragVariant.Y_ONLY1,
                          DragVariant.OPTIMAL1)])


@pytest.fixture
def grid(not_params):
    return TimeGrid(not_params.t_g, 2048)


class TestFrameFirstOrder:
    def test_boundary_values_vanish(self, sno5, not_params, grid):
        for v in FIRST_ORDER:
            s1 = frames_for(sno5, v, not_params, grid, 1)[0]
            assert np.max(np.abs(s1[0])) < 1e-12
            assert np.max(np.abs(s1[-1])) < 1e-12

    def test_hermitian_at_every_sample(self, sno5, not_params, grid):
        s1 = frames_for(sno5, DragVariant.DRAG1, not_params, grid, 1)[0]
        np.testing.assert_allclose(s1, s1.conj().swapaxes(-1, -2), atol=0)

    def test_z_only_has_single_coefficient(self, sno5, not_params, grid):
        # only the leakage-canceling (1, 2) element is populated
        s1 = frames_for(sno5, DragVariant.Z_ONLY1, not_params, grid, 1)[0]
        mask = np.zeros((5, 5), dtype=bool)
        mask[1, 2] = mask[2, 1] = True
        assert np.max(np.abs(s1[:, ~mask])) == 0.0
        env = GaussianEnvelope(not_params)
        k = grid.n_steps // 3
        t = grid.nodes()[k]
        gbar = not_params.t_g * float(env.value(t))
        want = 1j * math.sqrt(2) * gbar / 2.0  # s_y = -lam1 Gbar / 2
        assert s1[k, 1, 2] == pytest.approx(want, abs=1e-12)

    def test_variant_qubit_block_coefficients(self, sno5, not_params, grid):
        # s_y01 = (b1/2) * Gbar distinguishes the family members
        env = GaussianEnvelope(not_params)
        k = grid.n_steps // 2
        gbar = not_params.t_g * float(env.value(grid.nodes()[k]))
        lam1 = math.sqrt(2)
        expected = {
            DragVariant.Y_ONLY1: -lam1 ** 2 / 8,
            DragVariant.OPTIMAL1: -lam1 / 4,
            DragVariant.DRAG1: -0.5,
        }
        for v, coeff in expected.items():
            s1 = frames_for(sno5, v, not_params, grid, 1)[0]
            assert s1[k, 0, 1] == pytest.approx(-1j * coeff * gbar, abs=1e-12)

    def test_ansatz_rejected(self, sno5, not_params, grid):
        with pytest.raises(ValueError, match="no documented frame"):
            frames_for(sno5, Ansatz(1, 0, 0, 0), not_params, grid, 1)


class TestSecondOrderFrameIdentity:
    def test_recursion_reproduces_closed_form(self, sno5, not_params):
        # substituting S^(1) into the no-leakage recursion must land on the
        # analytic second-order coefficients; 4096 nodes keep the finite
        # difference truncation below the identity tolerance
        grid = TimeGrid(not_params.t_g, 4096)
        for v in FIRST_ORDER:
            ds, _, hs, _, _ = _expansion(sno5, v, not_params, grid, 1)
            s1 = frames_for(sno5, v, not_params, grid, 1)[0]
            m = h_extra(1, [s1], hs, ds.h0, grid) + hs[1]
            s2_recursion = _recursion_frame(ds, m)
            s2_analytic = frame_second_order(sno5, v, not_params, grid)
            assert np.max(np.abs(s2_recursion - s2_analytic)) < 1e-10

    def test_non_ladder_rejected(self, star6, not_params, grid):
        with pytest.raises(ValueError, match="ladder"):
            frame_second_order(star6, DragVariant.Z_ONLY1, not_params, grid)

    def test_second_order_variant_rejected_off_ladder(self, star6, not_params,
                                                      grid):
        with pytest.raises(ValueError, match="not available"):
            frames_for(star6, DragVariant.DRAG2, not_params, grid, 1)


class TestHExtra:
    def test_order_zero_is_zero(self, sno5, not_params, grid):
        ds, _, hs, _, _ = _expansion(sno5, DragVariant.DRAG1, not_params,
                                     grid, 0)
        out = h_extra(0, [], hs, ds.h0, grid)
        assert np.max(np.abs(out)) == 0.0

    def test_vanishing_frame_gives_zero(self, sno5, not_params, grid):
        ds, _, hs, _, _ = _expansion(sno5, DragVariant.DRAG1, not_params,
                                     grid, 1)
        s1 = np.zeros((grid.n_steps + 1, 5, 5), dtype=complex)
        out = h_extra(1, [s1], hs, ds.h0, grid)
        assert np.max(np.abs(out)) == 0.0

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_hermitian_stacks(self, sno5, not_params, grid, order):
        frames = frames_for(sno5, DragVariant.OPTIMAL1, not_params, grid, order)
        ds, _, hs, _, _ = _expansion(sno5, DragVariant.OPTIMAL1, not_params,
                                     grid, order)
        out = h_extra(order, frames, hs, ds.h0, grid)
        assert np.max(np.abs(out - out.conj().swapaxes(-1, -2))) < 1e-12

    def test_missing_frames_rejected(self, sno5, not_params, grid):
        ds, _, hs, _, _ = _expansion(sno5, DragVariant.DRAG1, not_params,
                                     grid, 2)
        with pytest.raises(ValueError, match="needs frames"):
            h_extra(2, [np.zeros((grid.n_steps + 1, 5, 5), complex)], hs,
                    ds.h0, grid)

    def test_second_order_corrections_close_the_qubit_block(
            self, sno5, not_params):
        # Tr[H_extra^(2) sigma_x01] of each first-order variant equals minus
        # its published cubic in-phase correction
        grid = TimeGrid(not_params.t_g, 4096)
        env = GaussianEnvelope(not_params)
        gbar = not_params.t_g * env.value(grid.nodes())
        lam1sq = 2.0
        cases = {
            DragVariant.Z_ONLY1: lam1sq / 8,
            DragVariant.Y_ONLY1: -lam1sq * (lam1sq - 4) / 32,
            DragVariant.DRAG1: (lam1sq - 4) / 8,
        }
        for v, a3 in cases.items():
            frames = frames_for(sno5, v, not_params, grid, 2)
            ds, _, hs, _, _ = _expansion(sno5, v, not_params, grid, 2)
            hx2 = h_extra(2, frames, hs, ds.h0, grid)
            trace_x = 2.0 * np.real(hx2[:, 0, 1])
            np.testing.assert_allclose(trace_x, -a3 * gbar ** 3, atol=1e-10)


class TestConstraintResiduals:
    def test_gaussian0_order_zero_exact(self, sno5, not_params, grid):
        r = constraint_residuals(sno5, DragVariant.GAUSSIAN0, not_params,
                                 grid, 0)
        assert max(r.qubit_mismatch.values()) == 0.0
        assert r.coupling_residual == 0.0

    def test_first_order_variants_satisfy_order_one(self, sno5, not_params):
        grid = TimeGrid(not_params.t_g, 4096)
        for v in FIRST_ORDER:
            r = constraint_residuals(sno5, v, not_params, grid, 1)
            assert r.coupling_residual < 1e-8
            assert max(r.qubit_mismatch.values()) < 1e-8

    def test_gaussian0_fails_order_one(self, sno5, not_params, grid):
        r = constraint_residuals(sno5, DragVariant.GAUSSIAN0, not_params,
                                 grid, 1)
        assert r.qubit_mismatch["z"] > 1.0  # uncorrected quadratic shift

    def test_drag2_cancels_order_two_mismatch(self, sno5, not_params):
        grid = TimeGrid(not_params.t_g, 4096)
        before = constraint_residuals(sno5, DragVariant.DRAG1, not_params,
                                      grid, 2)
        after = constraint_residuals(sno5, DragVariant.DRAG2, not_params,
                                     grid, 2)
        assert before.qubit_mismatch["x"] > 1.0
        assert after.qubit_mismatch["x"] < 1e-6
        assert max(after.qubit_mismatch.values()) < 1e-6

    @pytest.mark.parametrize("order", [0, 1, 2])
    @pytest.mark.parametrize("topology,variant", PUBLISHED)
    def test_published_case(self, request, not_params, topology, variant,
                            order):
        # every published closed form closes its leakage couplings at each
        # order; off the star, the qubit block also closes up to the
        # variant's own order (the star's lambda-tilde gap is pinned below)
        spec = request.getfixturevalue(topology)
        grid = TimeGrid(not_params.t_g, 1024)
        r = constraint_residuals(spec, variant, not_params, grid, order)
        assert r.coupling_residual <= 1e-8
        own = 0 if variant is DragVariant.GAUSSIAN0 else int(variant.value[-1])
        if topology != "star6" and order <= own:
            assert max(r.qubit_mismatch.values()) <= 1e-8

    def test_star_reports_substitution_gap(self, star6, not_params, grid):
        # the lambda-tilde substituted detuning is not the exact first-order
        # solution when the leakage gaps differ, and the report says so
        r = constraint_residuals(star6, DragVariant.Z_ONLY1, not_params,
                                 grid, 1)
        assert r.coupling_residual < 1e-8
        assert r.qubit_mismatch["z"] > 1.0


class TestHEffExact:
    def test_zero_frame_returns_hamiltonian(self, sno5, not_params, grid):
        cs = build_controls(sno5, DragVariant.DRAG1, not_params)
        s = np.zeros((grid.n_steps + 1, 5, 5), dtype=complex)
        heff = h_eff_exact(sno5, cs, s, grid)
        from drag_forge.model import generators
        gen = generators(sno5)
        tn = grid.nodes()
        want = not_params.t_g * (
            gen.h_drift[None]
            + np.asarray(cs.delta(tn))[:, None, None] * gen.h_z[None]
            + 0.5 * np.asarray(cs.omega_x(tn))[:, None, None] * gen.h_x[None]
            + 0.5 * np.asarray(cs.omega_y(tn))[:, None, None] * gen.h_y[None])
        np.testing.assert_allclose(heff, want, atol=1e-11)

    def test_static_frame_is_conjugation(self, sno3):
        # constant S and constant H: the derivative term drops out
        from drag_forge.pulses import ControlSet
        mk = lambda c: (lambda t: np.full_like(np.asarray(t, dtype=float), c))
        zero = mk(0.0)
        cs = ControlSet(mk(0.8), zero, mk(0.1), 1.0, "const")
        grid = TimeGrid(1.0, 256)
        s_const = np.zeros((257, 3, 3), dtype=complex)
        s_const[:, 0, 2] = 0.3 - 0.1j
        s_const[:, 2, 0] = 0.3 + 0.1j
        heff = h_eff_exact(sno3, cs, s_const, grid)
        w, v = np.linalg.eigh(s_const[0])
        a = (v * np.exp(-1j * w)[None, :]) @ v.conj().T
        from drag_forge.model import generators, hamiltonian_at
        h = 1.0 * hamiltonian_at(generators(sno3), 0.1, 0.8, 0.0)
        want = a.conj().T @ h @ a
        np.testing.assert_allclose(heff[128], want, atol=1e-10)

    def test_rejects_non_finite_controls(self, sno3):
        from drag_forge.pulses import ControlSet
        mk = lambda c: (lambda t: np.full_like(np.asarray(t, dtype=float), c))
        cs = ControlSet(mk(0.8), mk(np.nan), mk(0.1), 1.0, "bad")
        grid = TimeGrid(1.0, 64)
        s = np.zeros((65, 3, 3), dtype=complex)
        with pytest.raises(ValueError, match="non-finite omega_y"):
            h_eff_exact(sno3, cs, s, grid)

    def test_first_order_remainder_scales_quadratically(self, sno5):
        # Richardson-style check: halving epsilon (doubling t_g) divides the
        # order-0 series remainder by ~4 when S = eps S^(1) only
        devs = []
        for tg in (4.0, 8.0):
            p = GaussianParams(math.pi, tg / 4, tg)
            devs.append(series_vs_exact_deviation(
                sno5, DragVariant.OPTIMAL1, p, TimeGrid(tg, 2048), 0))
        assert devs[0] / devs[1] == pytest.approx(2.0, rel=0.1)


class TestOrderScaling:
    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_slope_matches_order(self, sno5, order):
        devs = []
        for tg in (4.0, 8.0, 16.0):
            p = GaussianParams(math.pi, tg / 4, tg)
            devs.append(series_vs_exact_deviation(
                sno5, DragVariant.OPTIMAL1, p, TimeGrid(tg, 2048), order))
        slopes = [math.log2(devs[i] / devs[i + 1]) for i in range(2)]
        for s in slopes:
            assert abs(s - (order + 1)) < 0.3

    @pytest.mark.parametrize("topology", ["inter5", "star6"])
    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    def test_slope_off_the_ladder(self, request, topology, order):
        # off the ladder S^(2) and up come from the recursion, not a closed
        # form, so the remainder slope checks the recursion at every order
        spec = request.getfixturevalue(topology)
        devs = []
        for tg in (4.0, 8.0):
            p = GaussianParams(math.pi, tg / 4, tg)
            devs.append(series_vs_exact_deviation(
                spec, DragVariant.OPTIMAL1, p, TimeGrid(tg, 2048), order))
        assert abs(math.log2(devs[0] / devs[1]) - (order + 1)) < 0.3

    def test_third_order_stack_scales_quartically(self, sno5):
        # pins the order-3 commutator stack: any mistranscribed term breaks
        # the eps^4 scaling of the series remainder
        devs = []
        for tg in (4.0, 8.0):
            p = GaussianParams(math.pi, tg / 4, tg)
            devs.append(series_vs_exact_deviation(
                sno5, DragVariant.DRAG2, p, TimeGrid(tg, 4096), 3))
        assert abs(math.log2(devs[0] / devs[1]) - 4.0) < 0.3


def _hermitian_stack(rng, d, t=4097):
    a = rng.normal(size=(t, d, d)) + 1j * rng.normal(size=(t, d, d))
    return a + a.conj().swapaxes(-1, -2)


def _max_rel(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


class TestCommutatorForms:
    @pytest.mark.parametrize("d", [5, 6])
    def test_one_product_matches_two(self, rng, d):
        a, b, acc = (_hermitian_stack(rng, d) for _ in range(3))
        want = a @ b - b @ a
        assert _max_rel(_comm(a, b), want) <= 1e-15
        # the accumulating form adds the same commutator in place
        assert _max_rel(_comm(a, b, acc.copy()), acc + want) <= 1e-15

    @pytest.mark.parametrize("d", [5, 6])
    def test_diagonal_h0_is_element_wise(self, rng, d):
        s, acc = _hermitian_stack(rng, d), _hermitian_stack(rng, d)
        h0 = np.diag(rng.normal(size=d)) + 0j
        want = s @ h0 - h0 @ s
        assert _max_rel(_comm_h0(s, h0), want) <= 1e-15
        assert _max_rel(_comm_h0(s, h0, acc.copy()), acc + want) <= 1e-15


class TestHermitianPremise:
    # the one-product commutators assume Hermitian frames and H stacks
    @pytest.mark.parametrize("topology,variant", PUBLISHED)
    def test_frames_and_h_stacks(self, request, not_params, topology,
                                 variant):
        spec = request.getfixturevalue(topology)
        grid = TimeGrid(not_params.t_g, 512)
        _, _, hs, _, _ = _expansion(spec, variant, not_params, grid, 3)
        stacks = frames_for(spec, variant, not_params, grid, 3) \
            + list(hs.values())
        for x in stacks:
            assert _max_rel(x.conj().swapaxes(-1, -2), x) <= 1e-13


class TestReportsAgainstTwoProductRoute:
    # references rebuild each order's transform with S^(n+1) included and
    # [S, H0] as the dense two-product commutator
    CASES = [("sno5", DragVariant.DRAG2, 3), ("star6", DragVariant.OPTIMAL1, 3),
             ("inter5", DragVariant.OPTIMAL1, 2)]

    @pytest.mark.parametrize("topology,variant,order", CASES)
    def test_h_eff_per_order_and_series(self, request, not_params, grid,
                                        topology, variant, order):
        spec = request.getfixturevalue(topology)
        ds, _, hs, frames, heffs = _expansion(spec, variant, not_params,
                                              grid, order, range(order + 1))
        assert sorted(heffs) == list(range(order + 1))
        for n, heff in heffs.items():
            m = _transformed(n, frames[:n], hs, ds.h0, grid)
            s = frames[n]
            assert _max_rel(heff, m + 1j * (s @ ds.h0 - ds.h0 @ s)) <= 1e-12
            assert _max_rel(
                heff, _transformed(n, frames[:n + 1], hs, ds.h0, grid)) <= 1e-12

        eps = 1.0 / (not_params.t_g * spec.delta2)
        series = ds.h0 / eps + sum(
            eps ** n * _transformed(n, frames[:n + 1], hs, ds.h0, grid)
            for n in range(order + 1))
        s_total = sum(eps ** (n + 1) * s for n, s in enumerate(frames))
        cs = build_controls(spec, variant, not_params)
        want = float(np.max(np.abs(h_eff_exact(spec, cs, s_total, grid)
                                   - series)))
        got = series_vs_exact_deviation(spec, variant, not_params, grid,
                                        order)
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("topology,variant", [c[:2] for c in CASES])
    def test_constraint_residuals(self, request, not_params, grid, topology,
                                  variant):
        spec = request.getfixturevalue(topology)
        order = 2  # the highest order the residual reports implement
        ds, _, hs, frames, _ = _expansion(spec, variant, not_params, grid,
                                          order)
        m = _transformed(order, frames[:order], hs, ds.h0, grid)
        s = frames[order]
        heff = m + 1j * (s @ ds.h0 - ds.h0 @ s)
        mismatch, coupling = _component_maxima(ds, heff, (0.0, 0.0, 0.0))
        got = constraint_residuals(spec, variant, not_params, grid, order)
        assert got.qubit_mismatch == pytest.approx(mismatch, rel=1e-12)
        assert got.coupling_residual == pytest.approx(coupling, rel=1e-12)


class TestWorkPerReport:
    def test_ladder_order_two_residual_skips_unread_transform(
            self, monkeypatch, sno5, not_params, grid):
        # the closed-form S^(2) needs no M^(1) and the report reads only
        # H_eff^(2), so only M^(0) (for S^(1)) and M^(2) are built
        built = []
        real = adiabatic._transformed
        monkeypatch.setattr(adiabatic, "_transformed",
                            lambda n, *a: built.append(n) or real(n, *a))
        constraint_residuals(sno5, DragVariant.DRAG1, not_params, grid, 2)
        assert built == [0, 2]

    def test_ladder_order_one_residual_builds_m_before_closed_form(
            self, monkeypatch, sno5, not_params, grid):
        # H_eff^(1) is read, so M^(1) is built before the closed-form S^(2)
        # and is not held alongside it
        calls = []
        real_t, real_s2 = adiabatic._transformed, adiabatic.frame_second_order
        monkeypatch.setattr(adiabatic, "_transformed",
                            lambda n, *a: calls.append(f"T{n}") or real_t(n, *a))
        monkeypatch.setattr(adiabatic, "frame_second_order",
                            lambda *a: calls.append("S2") or real_s2(*a))
        constraint_residuals(sno5, DragVariant.DRAG1, not_params, grid, 1)
        assert calls == ["T0", "T1", "S2"]

    @pytest.mark.parametrize("report,topology", [
        (series_vs_exact_deviation, "sno5"),
        (series_vs_exact_deviation, "star6"),
        (constraint_residuals, "sno5"),
    ], ids=["series-sno5", "series-star6", "residual-sno5"])
    def test_report_builds_one_control_set(self, monkeypatch, request,
                                           not_params, grid, report,
                                           topology):
        spec = request.getfixturevalue(topology)
        calls = []
        real = adiabatic.controls_for
        monkeypatch.setattr(adiabatic, "controls_for",
                            lambda *a: calls.append(a) or real(*a))
        report(spec, DragVariant.OPTIMAL1, not_params, grid, 2)
        assert len(calls) == 1


def test_order_ranges_are_enforced(sno5, not_params, grid):
    ds, _, hs, _, _ = _expansion(sno5, DragVariant.DRAG2, not_params, grid, 3)
    frames = frames_for(sno5, DragVariant.DRAG2, not_params, grid, 4)
    for n in (-1, 4):
        with pytest.raises(ValueError, match="orders 0..3"):
            h_extra(n, frames, hs, ds.h0, grid)
    with pytest.raises(ValueError, match="orders 0..2"):
        constraint_residuals(sno5, DragVariant.DRAG2, not_params, grid, 3)
    with pytest.raises(ValueError, match="orders 0..3"):
        series_vs_exact_deviation(sno5, DragVariant.DRAG2, not_params, grid, 4)
