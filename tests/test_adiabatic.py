import math
import tracemalloc

import numpy as np
import pytest
from conftest import TWO_PI, HandControls

from drag_forge import (Ansatz, DragVariant, GaussianParams, TimeGrid,
                        build_controls, build_intermediate_sno, build_sno,
                        build_star, effective_lambda)
from drag_forge import adiabatic
from drag_forge.adiabatic import (constraint_residuals, frames_for,
                                  h_eff_exact, h_extra_report,
                                  series_vs_exact_deviation,
                                  _Expansion, _mismatch, _Poly, _sample,
                                  _transformed)
from drag_forge.model import Topology, generators, hamiltonian_at

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


@pytest.fixture(scope="module")
def inter7():
    return build_intermediate_sno(7, -TWO_PI)


@pytest.fixture(scope="module")
def star2():
    """Two-channel star with unequal gaps and weights."""
    return build_star([-TWO_PI, -1.7 * TWO_PI], [1.0, 0.6])


@pytest.fixture(scope="module")
def sno4():
    return build_sno(4, -TWO_PI)


@pytest.fixture(scope="module")
def sno7():
    return build_sno(7, -TWO_PI)


def _expansion(spec, variant, params, grid, upto):
    # the expansion as polynomials: (ex, hs, frames, heffs)
    ex = _Expansion(spec, variant, params, grid)
    return (ex, *ex.build(upto))


def _closed_form_s2(spec, sa):
    """The ladder's S^(2), derived by hand: substituting S^(1) into the
    order-1 no-leakage conditions gives

        s2_y02 = -(lam1 / 4) (1 + sa) G^2
        s2_x12 = +(lam1 / 2) (1 + 2 sa) dG
        s2_y13 = +(lam1 lam2 / (4 dbar3)) G^2     (d >= 4)

    with sa the variant's free s_y01 coefficient and (G, dG) the
    dimensionless envelope (monomial (0,)) and its derivative ((1,)).
    """
    lam1 = spec.lam[1]
    g2, dg = (np.zeros((spec.d, spec.d), dtype=complex) for _ in range(2))

    def put(s, r1, r2, sx, sy):
        s[r1, r2] += sx - 1j * sy
        s[r2, r1] += sx + 1j * sy

    put(g2, 0, 2, 0.0, -(lam1 / 4.0) * (1.0 + sa))
    put(dg, 1, 2, (lam1 / 2.0) * (1.0 + 2.0 * sa), 0.0)
    if spec.d >= 4:
        lam2 = spec.lam[2]
        dbar3 = spec.delta[3] / spec.delta2
        put(g2, 1, 3, 0.0, lam1 * lam2 / (4.0 * dbar3))
    return _Poly({(0, 0): g2, (1,): dg})


def _h_extra(n, frames, h_orders, h0):
    # H_extra^(n): the order-n transform with S^(1..n) and H^(0..n-1)
    below = {k: h for k, h in h_orders.items() if k < n}
    return _transformed(n, frames[:n], below, h0)


def _on_grid(ex, *polys):
    # each polynomial's (N + 1, d, d) samples on the grid's nodes
    g = ex.samples(ex.ts, *polys)
    return [ex.at(p, g) for p in polys]


def _coef_dev(a, b):
    # the largest coefficient difference over the monomials of a and b
    return max((float(np.max(np.abs(a.get(m, 0) - b.get(m, 0))))
                for m in set(a) | set(b)), default=0.0)


def _coef_scale(a):
    return max(float(np.max(np.abs(c))) for c in a.values())


def _hermitian_dev(p):
    return max(float(np.max(np.abs(c - c.conj().T))) for c in p.values())


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
        k = grid.n_steps // 3
        t = grid.nodes()[k]
        gbar = not_params.t_g * float(not_params.derivatives(t, 0)[0])
        want = 1j * math.sqrt(2) * gbar / 2.0  # s_y = -lam1 Gbar / 2
        assert s1[k, 1, 2] == pytest.approx(want, abs=1e-12)

    def test_variant_qubit_block_coefficients(self, sno5, not_params, grid):
        # s_y01 = (b1/2) * Gbar distinguishes the family members
        k = grid.n_steps // 2
        gbar = not_params.t_g * float(
            not_params.derivatives(grid.nodes()[k], 0)[0])
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
    def test_recursion_reproduces_closed_form(self, request, not_params,
                                              grid):
        # the recursion's S^(2), solved from the order-1 transform, lands on
        # the hand-derived closed form monomial by monomial; the recursion
        # zeroes the order-1 couplings by construction, so this two-route
        # check also carries the ladder's order-1 coupling check
        worst = 0.0
        for topology in ("sno3", "sno4", "sno5", "sno7"):
            spec = request.getfixturevalue(topology)
            for v in DragVariant:
                ex, _, (_, s2), _ = _expansion(spec, v, not_params, grid, 1)
                want = _closed_form_s2(spec, ex.cs.b1 / 2.0)
                worst = max(worst, _coef_dev(s2, want))
        assert worst <= 1e-15


class TestHExtra:
    def test_order_zero_is_zero(self, sno5, not_params, grid):
        ex, hs, _, _ = _expansion(sno5, DragVariant.DRAG1, not_params, grid, 0)
        assert _h_extra(0, [], hs, ex.h0) == {}

    def test_vanishing_frame_gives_zero(self, sno5, not_params, grid):
        ex, hs, _, _ = _expansion(sno5, DragVariant.DRAG1, not_params, grid, 1)
        zero = np.zeros((5, 5), dtype=complex)
        s1 = _Poly({(0,): zero, (1,): zero})
        out = _h_extra(1, [s1], hs, ex.h0)
        assert out and _coef_scale(out) == 0.0

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_hermitian_stacks(self, sno5, not_params, grid, order):
        ex, hs, frames, _ = _expansion(sno5, DragVariant.OPTIMAL1, not_params,
                                       grid, order - 1)
        out = _h_extra(order, frames, hs, ex.h0)
        assert _hermitian_dev(out) < 1e-12

    def test_second_order_corrections_close_the_qubit_block(
            self, sno5, not_params):
        # Tr[H_extra^(2) sigma_x01] of each first-order variant equals minus
        # its published cubic in-phase correction: the one monomial G_bar^3
        grid = TimeGrid(not_params.t_g, 4096)
        lam1sq = 2.0
        cases = {
            DragVariant.Z_ONLY1: lam1sq / 8,
            DragVariant.Y_ONLY1: -lam1sq * (lam1sq - 4) / 32,
            DragVariant.DRAG1: (lam1sq - 4) / 8,
        }
        for v, a3 in cases.items():
            ex, hs, frames, _ = _expansion(sno5, v, not_params, grid, 1)
            rows = _mismatch(ex, _h_extra(2, frames, hs, ex.h0))
            trace_x = {m: r[0] for m, r in rows.items()}
            assert trace_x.pop((0, 0, 0)) == pytest.approx(-a3, abs=1e-13)
            assert max(map(abs, trace_x.values())) <= 1e-13


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

    @pytest.mark.parametrize("topology", ["sno5", "inter5", "star6"])
    def test_order_three_closes_couplings(self, request, not_params,
                                          topology):
        # S^(4) is solved from M^(3) like every lower frame; no variant
        # claims order 3, so the qubit block is not gated
        spec = request.getfixturevalue(topology)
        grid = TimeGrid(not_params.t_g, 1024)
        for v in DragVariant:
            r = constraint_residuals(spec, v, not_params, grid, 3)
            assert r.coupling_residual <= 1e-8

    def test_star_reports_substitution_gap(self, star6, not_params, grid):
        # the lambda-tilde substituted detuning is not the exact first-order
        # solution when the leakage gaps differ, and the report says so
        r = constraint_residuals(star6, DragVariant.Z_ONLY1, not_params,
                                 grid, 1)
        assert r.coupling_residual < 1e-8
        assert r.qubit_mismatch["z"] > 1.0


class TestMonomialClosure:
    # every published closed form closes its constraints coefficient by
    # coefficient, not only on the sampled nodes
    @pytest.mark.parametrize("topology", ["sno5", "sno3", "inter5", "inter7",
                                          "star6", "star2"])
    def test_every_coefficient_closes(self, request, not_params, grid,
                                      topology):
        spec = request.getfixturevalue(topology)
        worst = {"coupling": 0.0, "qubit": 0.0}
        for v in DragVariant:
            own = 0 if v is DragVariant.GAUSSIAN0 else int(v.value[-1])
            ex, _, _, heffs = _expansion(spec, v, not_params, grid, 2)
            for order, heff in enumerate(heffs):
                rows = _mismatch(ex, heff, order == 0)
                for r in rows.values():
                    worst["coupling"] = max(worst["coupling"],
                                            float(np.max(np.abs(r[3:]))))
                    if spec.topology is not Topology.STAR and order <= own:
                        worst["qubit"] = max(worst["qubit"],
                                             float(np.max(np.abs(r[:3]))))
        assert worst["coupling"] <= 1e-13
        assert worst["qubit"] <= 1e-13


def _parity_dev(p, odd_real):
    # the largest part that parity forbids: with odd_real, coefficients are
    # real on monomials whose derivative orders sum to an odd number and
    # imaginary on the rest; without, the other way round
    part = {True: np.imag, False: np.real}
    return max((float(np.max(np.abs(part[sum(m) % 2 == odd_real](c))))
                for m, c in p.items()), default=0.0)


class TestMirrorParity:
    """Every control set is mirror-symmetric: frame coefficients are real on
    odd monomials and imaginary on even ones, H^(n), transforms and H_eff^(n)
    the other way round, so the reports read only the nodes 0 .. N//2."""

    TOPOLOGIES = ["sno5", "sno3", "inter5", "inter7", "star6", "star2"]

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_every_coefficient_has_its_parity(self, request, not_params, grid,
                                              topology):
        spec = request.getfixturevalue(topology)
        for v in DragVariant:
            ex, hs, frames, heffs = _expansion(spec, v, not_params, grid, 3)
            h0 = ex.h0
            for s in frames:
                assert _parity_dev(s, odd_real=True) == 0.0
            transforms = [_transformed(n, frames[:n + 1], hs, h0)
                          for n in range(4)]
            extras = [_h_extra(n, frames, hs, h0) for n in range(4)]
            for p in [*hs.values(), *transforms, *extras, *heffs]:
                assert _parity_dev(p, odd_real=False) == 0.0

    @pytest.mark.parametrize("n_steps", [4096, 2048, 133])
    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_half_grid_maxima_are_the_whole_grids(
            self, request, monkeypatch, not_params, topology, n_steps):
        # every variant and order of the residual reports; the series at
        # every order on the odd grid, and at its top order (every H_eff^(n)
        # and frame) for optimal1 on the long grids, to keep the run short
        spec = request.getfixturevalue(topology)
        grid = TimeGrid(not_params.t_g, n_steps)
        cases = [(report, v, n) for v in DragVariant
                 for report, orders in ((constraint_residuals, range(4)),
                                        (h_extra_report, range(4)))
                 for n in orders]
        cases += [(series_vs_exact_deviation, v, n)
                  for v in (DragVariant if n_steps == 133
                            else [DragVariant.OPTIMAL1])
                  for n in (range(4) if n_steps == 133 else [3])]

        def run():
            return [report(spec, v, not_params, grid, n)
                    for report, v, n in cases]

        half = run()
        init = _Expansion.__init__

        def whole(ex, *args):
            init(ex, *args)
            ex.half = ex.ts  # every node of the grid

        monkeypatch.setattr(_Expansion, "__init__", whole)
        for got, want in zip(half, run()):
            if isinstance(want, float):
                # the deviation is a difference of entries up to |H0/eps|
                # ~ 250, so mirror nodes round apart by up to a few of its
                # ulps (2.8e-14), however small the deviation
                assert abs(got - want) <= 1e-12 * want + 1e-13
                continue
            got = [*got.qubit_mismatch.values(), got.coupling_residual]
            want = [*want.qubit_mismatch.values(), want.coupling_residual]
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)


class TestStarFinding:
    # the star rows take the Stark bracket as lambda-tilde^2; the expansion's
    # S = sum_k lam_(k-1)^2 delta2/delta_k differs, and the order-1 qubit-z
    # mismatch of every corrected variant (a second-order one shares its
    # base's b1 and c2) is the one monomial ((S - lambda-tilde^2)/4) G_bar^2
    @pytest.mark.parametrize("topology,want", [("star6", 0.1649305),
                                               ("star2", 0.0217993)])
    def test_order_one_z_mismatch_is_the_stark_gap(self, request, not_params,
                                                   grid, topology, want):
        spec = request.getfixturevalue(topology)
        stark = sum(spec.lam[j - 1] ** 2 * spec.delta2 / spec.delta[j]
                    for j in range(2, spec.d))
        gap = (stark - effective_lambda(spec) ** 2) / 4.0
        assert gap == pytest.approx(want, abs=1e-7)
        for v in [v for v in DragVariant if v is not DragVariant.GAUSSIAN0]:
            ex, _, _, heffs = _expansion(spec, v, not_params, grid, 1)
            trace_z = {m: r[2] for m, r in _mismatch(ex, heffs[1]).items()}
            assert trace_z.pop((0, 0)) == pytest.approx(gap, abs=1e-14)
            assert max(map(abs, trace_z.values())) <= 1e-14


class TestHEffExact:
    @pytest.mark.parametrize("sigma", [1.0, 2.0], ids=["t_g4", "t_g8"])
    def test_zero_frame_returns_hamiltonian(self, sno5, sigma):
        # the samples sit on [0, cs.t_g] and scale by cs.t_g, whatever t_g is
        params = GaussianParams.for_not(sigma)
        cs = build_controls(sno5, DragVariant.DRAG1, params)
        s = np.zeros((2049, 5, 5), dtype=complex)
        heff = h_eff_exact(sno5, cs, s, s)
        gen = generators(sno5)
        tn = TimeGrid(params.t_g, 2048).nodes()
        want = params.t_g * (
            gen.h_drift[None]
            + np.asarray(cs.delta(tn))[:, None, None] * gen.h_z[None]
            + 0.5 * np.asarray(cs.omega_x(tn))[:, None, None] * gen.h_x[None]
            + 0.5 * np.asarray(cs.omega_y(tn))[:, None, None] * gen.h_y[None])
        np.testing.assert_allclose(heff, want, atol=1e-11)

    def test_static_frame_is_conjugation(self, sno3):
        # constant S and constant H: the derivative term drops out
        cs = HandControls.constant(1.0, ox=0.8, dl=0.1)
        s_const = np.zeros((257, 3, 3), dtype=complex)
        s_const[:, 0, 2] = 0.3 - 0.1j
        s_const[:, 2, 0] = 0.3 + 0.1j
        heff = h_eff_exact(sno3, cs, s_const, np.zeros_like(s_const))
        w, v = np.linalg.eigh(s_const[0])
        a = (v * np.exp(-1j * w)[None, :]) @ v.conj().T
        h = 1.0 * hamiltonian_at(generators(sno3), 0.1, 0.8, 0.0)
        want = a.conj().T @ h @ a
        np.testing.assert_allclose(heff[128], want, atol=1e-10)

    def test_rejects_non_finite_controls(self, sno3):
        cs = HandControls.constant(1.0, ox=0.8, oy=np.nan, dl=0.1)
        s = np.zeros((65, 3, 3), dtype=complex)
        with pytest.raises(ValueError, match="non-finite omega_y"):
            h_eff_exact(sno3, cs, s, s)

    def test_derivative_term_matches_differences(self, sno3):
        # dA/dt from dS/dt (Daleckii-Krein) against fourth-order central
        # differences of A = exp(-i S) itself, in the scaled time t / t_g;
        # S(0) = 0 has one triple eigenvalue, where dA/dt = -i dS/dt
        t_g, n = 2.0, 2048
        cs = HandControls.constant(t_g, ox=0.8, oy=0.3, dl=0.1)
        tb = np.linspace(0.0, 1.0, n + 1)[:, None, None]
        x = np.zeros((3, 3), dtype=complex)
        x[0, 2] = x[2, 0] = 1.0
        y = np.zeros((3, 3), dtype=complex)
        y[0, 1], y[1, 0] = -1j, 1j
        z = np.diag([1.0, 0.0, -1.0]).astype(complex)
        s = np.sin(np.pi * tb) * x + tb ** 2 * y + tb ** 3 * z
        ds = np.pi * np.cos(np.pi * tb) * x + 2 * tb * y + 3 * tb ** 2 * z
        heff = h_eff_exact(sno3, cs, s, ds)

        w, v = np.linalg.eigh(s)
        a = (v * np.exp(-1j * w)[:, None, :]) @ v.conj().swapaxes(-1, -2)
        h = 1.0 / n
        da = (a[:-4] - 8.0 * a[1:-3] + 8.0 * a[3:-1] - a[4:]) / (12.0 * h)
        hbar = t_g * hamiltonian_at(generators(sno3), 0.1, 0.8, 0.3)
        mid = a[2:-2]
        want = (mid.conj().swapaxes(-1, -2) @ hbar @ mid
                + 1j * da.conj().swapaxes(-1, -2) @ mid)
        np.testing.assert_allclose(heff[2:-2], want, rtol=0, atol=1e-10)
        # at S = 0: A = I, i dA^dag/dt A = -dS/dt
        np.testing.assert_allclose(heff[0], hbar - ds[0], rtol=0, atol=1e-14)

    def test_first_order_remainder_scales_quadratically(self, sno5):
        # Richardson-style check: halving epsilon (doubling t_g) divides the
        # order-0 series remainder by ~4 when S = eps S^(1) only
        devs = []
        for tg in (4.0, 8.0):
            p = GaussianParams(math.pi, tg / 4, tg)
            devs.append(series_vs_exact_deviation(
                sno5, DragVariant.OPTIMAL1, p, TimeGrid(tg, 2048), 0))
        assert devs[0] / devs[1] == pytest.approx(2.0, rel=0.1)

    def test_series_rejects_grid_of_another_gate_time(self, sno5):
        # the exact route would sample [0, 4] of a t_g = 8 pulse while the
        # series covers all of it
        p = GaussianParams.for_not(2.0)
        with pytest.raises(ValueError, match="t_g"):
            series_vs_exact_deviation(sno5, DragVariant.OPTIMAL1, p,
                                      TimeGrid(4.0, 2048), 1)


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
        # every frame on every topology comes from the one recursion; off
        # the ladder the remainder slope checks it on other level structures
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


def _hermitian_poly(rng, d, monomials=((0,), (0, 1), (2,), (0, 0, 1))):
    out = _Poly()
    for m in monomials:
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        out[m] = a + a.conj().T
    return out


def _dense(p, g):
    # p's samples where g[k] holds the samples of gbar^(k)
    d = next(iter(p.values())).shape[0]
    return _sample(p.items(), g, np.zeros((g.shape[1], d, d), dtype=complex))


def _max_rel(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


class TestCommutatorForms:
    # the polynomial operations against the same operations on samples
    @pytest.mark.parametrize("d", [5, 6])
    def test_one_product_matches_two(self, rng, d):
        a, b = _hermitian_poly(rng, d), _hermitian_poly(rng, d, ((1,), (0, 0)))
        g = rng.normal(size=(3, 257))
        x, y = _dense(a, g), _dense(b, g)
        assert _max_rel(_dense(a.comm(b), g), x @ y - y @ x) <= 1e-15
        assert _max_rel(_dense(a + b, g), x + y) <= 1e-15
        assert _max_rel(_dense(2.5j * a, g), 2.5j * x) <= 1e-15

    @pytest.mark.parametrize("d", [5, 6])
    def test_diagonal_h0_is_element_wise(self, rng, d):
        s = _hermitian_poly(rng, d)
        h0 = np.diag(rng.normal(size=d)) + 0j
        g = rng.normal(size=(3, 257))
        x = _dense(s, g)
        assert _max_rel(_dense(s.comm_h0(h0), g), x @ h0 - h0 @ x) <= 1e-15

    def test_dt_is_the_product_rule(self, rng, not_params):
        c, e = _hermitian_poly(rng, 3, ((0,), (1,))).values()
        p = _Poly({(0, 0): c, (0, 1): e})
        assert _coef_dev(p.dt(), {(0, 1): 2 * c, (1, 1): e, (0, 2): e}) == 0.0
        # and on the envelope's derivatives, against fourth-order central
        # differences
        n = 4096
        h = not_params.t_g / n
        ts = np.linspace(0.0, not_params.t_g, n + 1)
        g = np.array(not_params.derivatives(ts, 2))
        f = _dense(p, g)
        want = (f[:-4] - 8.0 * f[1:-3] + 8.0 * f[3:-1] - f[4:]) / (12.0 * h)
        got = _dense(p.dt(), g)[2:-2]
        assert _max_rel(got, want) <= 1e-9


class TestSampleProduct:
    # _sample against a per-term sum in the same order, bit for bit
    @staticmethod
    def _per_term(terms, g, out):
        for m, c in terms:
            x = np.ones(g.shape[1])
            for k in m:
                x = x * g[k]
            out = out + np.multiply.outer(x, c)
        return out

    def test_complex_matrices(self, rng):
        p = _hermitian_poly(rng, 5, ((), (0,), (0, 1), (2,), (0, 0, 1)))
        g = rng.normal(size=(3, 301))
        out = rng.normal(size=(301, 5, 5)) + 1j * rng.normal(size=(301, 5, 5))
        want = self._per_term(p.items(), g, out)
        np.testing.assert_array_equal(_sample(p.items(), g, out.copy()), want)

    def test_real_traces(self, rng):
        terms = [(m, rng.normal(size=7)) for m in ((0,), (1, 1), (0, 0, 2))]
        g = rng.normal(size=(3, 133))
        out = np.zeros((133, 7))
        want = self._per_term(terms, g, out)
        got = _sample(terms, g, out)
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, want)

    def test_each_node_depends_on_that_node_alone(self, rng):
        # a subset of the nodes samples to the same bits as the whole grid,
        # which is what lets the series run over blocks of any size
        p = _hermitian_poly(rng, 5, ((), (0,), (0, 1), (2,), (0, 0, 1),
                                     (1, 1, 2), (0, 1, 2, 2)))
        g = rng.normal(size=(3, 301))
        whole = _dense(p, g)
        for nodes in (slice(0, 1), slice(5, 70), slice(3, None, 7),
                      slice(300, None)):
            np.testing.assert_array_equal(_dense(p, g[:, nodes]),
                                          whole[nodes])

    def test_empty_polynomial_leaves_out(self, rng):
        out = rng.normal(size=(65, 3, 3)) + 0j
        got = _sample(_Poly().items(), rng.normal(size=(2, 65)), out.copy())
        np.testing.assert_array_equal(got, out)


class TestHermitianPremise:
    # the one-product commutators assume Hermitian frame and H coefficients
    @pytest.mark.parametrize("topology,variant", PUBLISHED)
    def test_frames_and_h_stacks(self, request, not_params, topology,
                                 variant):
        spec = request.getfixturevalue(topology)
        grid = TimeGrid(not_params.t_g, 512)
        _, hs, frames, _ = _expansion(spec, variant, not_params, grid, 3)
        for p in frames + list(hs.values()):
            assert _hermitian_dev(p) <= 1e-13 * _coef_scale(p)
        for x in frames_for(spec, variant, not_params, grid, 3):
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
        ex, hs, frames, heffs = _expansion(spec, variant, not_params, grid,
                                           order)
        h0 = ex.h0
        assert len(heffs) == order + 1
        for n, heff in enumerate(heffs):
            m = _transformed(n, frames[:n], hs, h0)
            two = _Poly({k: 1j * (c @ h0 - h0 @ c)
                         for k, c in frames[n].items()})
            assert _coef_dev(heff, m + two) <= 1e-12 * _coef_scale(heff)
            whole = _transformed(n, frames[:n + 1], hs, h0)
            assert _coef_dev(heff, whole) <= 1e-12 * _coef_scale(heff)

        eps = 1.0 / (not_params.t_g * spec.delta2)
        orders = [_transformed(n, frames[:n + 1], hs, h0)
                  for n in range(order + 1)]
        dframes = [s.dt() for s in frames]
        sampled = _on_grid(ex, *orders, *frames, *dframes)
        series = h0 / eps + sum(eps ** n * x
                                for n, x in enumerate(sampled[:order + 1]))
        s_total, ds_total = (
            sum(eps ** (n + 1) * x for n, x in enumerate(xs))
            for xs in (sampled[order + 1:2 * order + 2],
                       sampled[2 * order + 2:]))
        cs = build_controls(spec, variant, not_params)
        want = float(np.max(np.abs(h_eff_exact(spec, cs, s_total, ds_total)
                                   - series)))
        got = series_vs_exact_deviation(spec, variant, not_params, grid,
                                        order)
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("topology,variant", [c[:2] for c in CASES])
    def test_constraint_residuals(self, request, not_params, grid, topology,
                                  variant):
        # the report's traces per monomial against the traces of the
        # sampled matrices
        spec = request.getfixturevalue(topology)
        order = 3  # the highest order the residual reports implement
        ex, hs, frames, _ = _expansion(spec, variant, not_params, grid, order)
        m, s = _on_grid(ex, _transformed(order, frames[:order], hs, ex.h0),
                        frames[order])
        heff = m + 1j * (s @ ex.h0 - ex.h0 @ s)
        q0, q1 = ex.qubit_rows
        x = np.abs(2.0 * heff[:, q0, q1].real).max()
        y = np.abs(2.0 * heff[:, q0, q1].imag).max()
        z = np.abs((heff[:, q0, q0] - heff[:, q1, q1]).real).max()
        c = heff[:, ex.q, ex.l]
        coupling = 2.0 * max(np.abs(c.real).max(), np.abs(c.imag).max())
        got = constraint_residuals(spec, variant, not_params, grid, order)
        assert got.qubit_mismatch == pytest.approx({"x": x, "y": y, "z": z},
                                                   rel=1e-12)
        assert got.coupling_residual == pytest.approx(coupling, rel=1e-12)


class TestWorkPerReport:
    @pytest.mark.parametrize("topology", ["sno5", "inter5", "star6"])
    def test_residual_builds_each_transform_once_in_order(
            self, monkeypatch, request, not_params, grid, topology):
        # every topology runs the one loop: M^(n) is built once per order,
        # and S^(n+1) is solved from it before the next order
        spec = request.getfixturevalue(topology)
        built = []
        real = adiabatic._transformed
        monkeypatch.setattr(adiabatic, "_transformed",
                            lambda n, *a: built.append(n) or real(n, *a))
        constraint_residuals(spec, DragVariant.DRAG1, not_params, grid, 2)
        assert built == [0, 1, 2]

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

    @pytest.mark.parametrize("report", [constraint_residuals, h_extra_report,
                                        series_vs_exact_deviation])
    def test_report_builds_generators_once(self, monkeypatch, sno5,
                                           not_params, grid, report):
        # the exact route of the series reuses the expansion's generators
        calls = []
        real = adiabatic.generators
        monkeypatch.setattr(adiabatic, "generators",
                            lambda *a: calls.append(a) or real(*a))
        report(sno5, DragVariant.OPTIMAL1, not_params, grid, 2)
        assert len(calls) == 1


class TestBlocks:
    """The series samples S, dS/dt and the series over blocks of _BLOCK
    nodes with no halo; the block size must not move a bit of any report,
    which holds by construction when every sample is pointwise in the node.
    Blocks of 5 and 7 nodes put a block edge within a few nodes of every
    node; the residual reports sample nodes 0 .. N//2 at once."""

    VARIANT = {"sno5": DragVariant.DRAG2, "inter5": DragVariant.OPTIMAL1,
               "star6": DragVariant.OPTIMAL1}
    REPORTS = {"residuals": (constraint_residuals, range(4)),
               "h_extra": (h_extra_report, range(4)),
               "series": (series_vs_exact_deviation, range(4))}

    # the N//2 + 1 = 67 nodes at N = 133 leave 2 over at 5, 4 at 7 and 3 at
    # 64; 1025 and 2049 leave 1 over at 256
    @pytest.mark.parametrize("n_steps,blocks,reports", [
        (133, (5, 7, 64), ("residuals", "h_extra", "series")),
        (4096, (256,), ("residuals", "series")),
        (2048, (256,), ("h_extra", "series"))])
    @pytest.mark.parametrize("topology", ["sno5", "inter5", "star6"])
    def test_block_size_does_not_move_a_bit(self, request, monkeypatch,
                                            not_params, topology, n_steps,
                                            blocks, reports):
        spec, v = request.getfixturevalue(topology), self.VARIANT[topology]
        grid = TimeGrid(not_params.t_g, n_steps)

        def run():
            return {name: [report(spec, v, not_params, grid, n)
                           for n in orders]
                    for name, (report, orders) in self.REPORTS.items()
                    if name in reports}

        monkeypatch.setattr(adiabatic, "_BLOCK", n_steps + 2)
        want = run()
        for block in blocks:
            monkeypatch.setattr(adiabatic, "_BLOCK", block)
            assert run() == want

    # every variant on each topology: a sample whose bits depend on how
    # many nodes share its block moves only a few variants' series, at
    # order 2 (sno5 y_only2, inter5 z_only1, star6 drag1, up to 6.3e-15)
    @pytest.mark.parametrize("variant", list(DragVariant))
    @pytest.mark.parametrize("topology", ["sno5", "inter5", "star6"])
    def test_series_of_every_variant_is_blockwise_exact(
            self, request, monkeypatch, not_params, topology, variant):
        spec = request.getfixturevalue(topology)
        for n_steps in (2048, 4096):
            grid = TimeGrid(not_params.t_g, n_steps)
            runs = []
            for block in (n_steps + 2, 64, 256):
                monkeypatch.setattr(adiabatic, "_BLOCK", block)
                runs.append([series_vs_exact_deviation(spec, variant,
                                                       not_params, grid, n)
                             for n in range(3)])
            assert runs[1] == runs[0] and runs[2] == runs[0]

    @pytest.mark.parametrize("report,order", [
        (constraint_residuals, 2), (h_extra_report, 3),
        (series_vs_exact_deviation, 3)])
    def test_report_holds_no_grid_stack(self, sno5, not_params, report,
                                        order):
        # one (N + 1, d, d) stack at N = 4096 is 1.64 MB; evaluated on the
        # whole grid at once these reports peaked at 16.5, 19.8 and 24.8 MB,
        # over blocks of 256 nodes at 1.2, 1.8 and 2.4 MB
        grid = TimeGrid(not_params.t_g, 4096)
        stack = (grid.n_steps + 1) * 5 * 5 * 16
        report(sno5, DragVariant.OPTIMAL1, not_params, grid, order)
        tracemalloc.start()
        try:
            report(sno5, DragVariant.OPTIMAL1, not_params, grid, order)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * stack


def test_order_ranges_are_enforced(sno5, not_params, grid):
    # the three reports run the one loop and share one order range, which
    # refuses a float order, whole or not, and a bool with the same message
    reports = (constraint_residuals, h_extra_report, series_vs_exact_deviation)
    for report in reports:
        for n in (-1, 4, 1.5, 2.0, True, False, np.float64(1.0)):
            with pytest.raises(ValueError, match="orders 0..3"):
                report(sno5, DragVariant.DRAG2, not_params, grid, n)
    constraint_residuals(sno5, DragVariant.DRAG2, not_params, grid, 3)
    constraint_residuals(sno5, DragVariant.DRAG2, not_params, grid,
                         np.int64(1))
