import math

import numpy as np
import pytest

from drag_forge import (Ansatz, DragVariant, GaussianParams, TimeGrid,
                        build_controls, gate_error, ideal_not, propagate)
from drag_forge import optimizer
from drag_forge.optimizer import OptimizeTask, OptimizeResult, optimize
from drag_forge.pulses import first_order_coefficients

TWO_PI = 2.0 * math.pi


@pytest.fixture
def fast_params():
    return GaussianParams.for_not(2 / 3)


def _fixed_grid_error(spec, x, params, n_steps):
    cs = build_controls(spec, Ansatz(*x), params)
    u = propagate(spec, cs, TimeGrid(params.t_g, n_steps))
    return gate_error(u, ideal_not(spec.d, spec.qubit_rows), spec.qubit_rows)


class TestValidation:
    @pytest.mark.parametrize("mask,x0", [
        ((True, False, False), (1.0, 0.0, 0.0, 0.0)),
        ((True, False, False, False, False), (1.0, 0.0, 0.0, 0.0)),
        ((True, False, False, False), (1.0, 0.0, 0.0))])
    def test_four_entries_required(self, sno5, fast_params, mask, x0):
        with pytest.raises(ValueError, match="four entries"):
            OptimizeTask(sno5, fast_params, mask, x0=x0)

    def test_all_frozen_rejected(self, sno5, fast_params):
        with pytest.raises(ValueError, match="at least one"):
            OptimizeTask(sno5, fast_params, (False, False, False, False))

    @pytest.mark.parametrize("prop_tol", [0.0, -1e-9, math.nan])
    def test_bad_prop_tolerance_rejected(self, sno5, fast_params, prop_tol):
        # a step-doubling tolerance that can never be met would double the
        # grid to its 2^20 cap; only the construction is exercised here
        with pytest.raises(ValueError, match="prop_tol must be positive"):
            OptimizeTask(sno5, fast_params, (True, False, False, False),
                         prop_tol=prop_tol)

    @pytest.mark.parametrize("field,value", [
        ("max_evals", 0), ("max_evals", -3), ("max_evals", 2.5),
        ("max_evals", True)])
    def test_bad_budget_rejected(self, sno5, fast_params, field, value):
        # max_evals = 0 would return inf at x0, above the objective there;
        # a budget is an integer by model._is_integer, which refuses a bool
        with pytest.raises(ValueError, match=field):
            OptimizeTask(sno5, fast_params, (True, False, False, False),
                         **{field: value})


class TestAlphaOnly:
    def test_matches_scan_oracle(self, sno5, fast_params):
        # brute-force 1-D scan over alpha before trusting the search
        task = OptimizeTask(sno5, fast_params, (True, False, False, False),
                            max_evals=120, prop_tol=1e-7)
        res = optimize(task)
        alphas = np.arange(0.8, 1.2001, 1e-3)
        scan = [_fixed_grid_error(sno5, (a, 0, 0, 0), fast_params, res.n_steps)
                for a in alphas]
        best_scan = float(np.min(scan))
        assert 0.95 <= res.x[0] <= 1.05
        assert res.gate_error <= best_scan + 1e-9

    def test_beats_gaussian_baseline(self, sno5, fast_params):
        task = OptimizeTask(sno5, fast_params, (True, False, False, False),
                            max_evals=100, prop_tol=1e-7)
        res = optimize(task)
        baseline = _fixed_grid_error(sno5, (1, 0, 0, 0), fast_params,
                                     res.n_steps)
        assert res.gate_error <= baseline


class TestInvariants:
    def test_monotonicity_from_arbitrary_start(self, sno5, fast_params):
        x0 = (1.02, 0.3, -0.1, 0.05)
        task = OptimizeTask(sno5, fast_params, (True, True, True, True),
                            x0=x0, max_evals=60, prop_tol=1e-7)
        res = optimize(task)
        initial = _fixed_grid_error(sno5, x0, fast_params, res.n_steps)
        assert res.gate_error <= initial

    def test_feasible_point_dominance(self, sno5, fast_params):
        # the (alpha, beta) mask spans the quadrature-only closed form;
        # starting there, the result can only improve on it
        b1, _ = first_order_coefficients(sno5, DragVariant.Y_ONLY1)
        x0 = (1.0, -b1, 0.0, 0.0)  # beta = -b1 reproduces the closed form
        task = OptimizeTask(sno5, fast_params, (True, True, False, False),
                            x0=x0, max_evals=80, prop_tol=1e-7)
        res = optimize(task)
        closed = _fixed_grid_error(sno5, x0, fast_params, res.n_steps)
        u = propagate(sno5, build_controls(sno5, DragVariant.Y_ONLY1,
                                           fast_params),
                      TimeGrid(fast_params.t_g, res.n_steps))
        closed_variant = gate_error(u, ideal_not(5))
        assert closed == pytest.approx(closed_variant, abs=1e-15)
        assert res.gate_error <= closed + 1e-12

    def test_deterministic(self, sno5, fast_params):
        task = OptimizeTask(sno5, fast_params, (True, True, False, False),
                            max_evals=50, prop_tol=1e-7)
        a = optimize(task)
        b = optimize(task)
        assert a.x == b.x
        assert a.gate_error == b.gate_error
        assert a.n_evals == b.n_evals

    def test_frozen_parameters_untouched(self, sno5, fast_params):
        x0 = (1.0, 0.0, 0.125, 0.0)
        task = OptimizeTask(sno5, fast_params, (True, False, False, False),
                            x0=x0, max_evals=40, prop_tol=1e-7)
        res = optimize(task)
        assert res.x[1] == 0.0
        assert res.x[2] == 0.125
        assert res.x[3] == 0.0

    def test_non_finite_objective_treated_as_inf(self, sno5, fast_params):
        # huge coefficients overflow the cubic term; such points get
        # rejected rather than crashing the search
        x0 = (1.0, 0.0, 0.0, 0.0)
        task = OptimizeTask(sno5, fast_params, (True, False, False, False),
                            x0=x0, max_evals=30, prop_tol=1e-7)
        res = optimize(task)
        assert math.isfinite(res.gate_error)


class TestFailedEvaluations:
    # an evaluation that raises or gives a non-finite error scores inf
    @staticmethod
    def _no_pulse(gen, cs, grid):
        raise ValueError("no pulse")

    @staticmethod
    def _first_score(task, monkeypatch):
        # x0 is scored on converge's unitary, so the first propagated point
        # is the search's first call: here, x0 propagated once more
        seen = []
        monkeypatch.setattr(optimizer, "_gauss_newton",
                            lambda f, z, first: seen.append(f(z)[0]))
        optimize(task)
        return seen

    def test_raising_evaluation_scores_inf(self, sno5, fast_params,
                                           monkeypatch):
        monkeypatch.setattr(optimizer, "propagate", self._no_pulse)
        task = OptimizeTask(sno5, fast_params, (True, False, False, False),
                            prop_tol=1e-7)
        assert self._first_score(task, monkeypatch) == [math.inf]

    def test_non_finite_error_scores_inf(self, sno5, fast_params,
                                         monkeypatch):
        monkeypatch.setattr(optimizer, "gate_error", lambda *args: math.nan)
        task = OptimizeTask(sno5, fast_params, (True, False, False, False),
                            prop_tol=1e-7)
        assert self._first_score(task, monkeypatch) == [math.inf]

    @pytest.mark.filterwarnings("error")
    def test_non_finite_decrease_ends_the_search(self, sno5, fast_params,
                                                 monkeypatch):
        # every propagated point fails, so x0's central differences have no
        # error vector: the search stops there unconverged, before it forms
        # a difference, and x0's own score is the one that counts
        monkeypatch.setattr(optimizer, "propagate", self._no_pulse)
        res = optimize(OptimizeTask(sno5, fast_params,
                                    (True, False, True, False),
                                    max_evals=50, prop_tol=1e-7))
        assert res.n_evals == 1 + 2 * 2
        assert res.x == (1.0, 0.0, 0.0, 0.0) and not res.converged
        assert res.gate_error == _fixed_grid_error(sno5, res.x, fast_params,
                                                   res.n_steps)


def test_result_reports_budget(sno5, fast_params):
    task = OptimizeTask(sno5, fast_params, (True, False, False, False),
                        max_evals=25, prop_tol=1e-7)
    res = optimize(task)
    assert isinstance(res, OptimizeResult)
    assert res.n_evals <= 25
    assert res.n_steps >= 256


def test_initial_point_evaluated_once(sno5, fast_params, monkeypatch):
    # x0 is scored once, on the unitary that converge left on the chosen
    # grid, and the search never propagates it again; that evaluation
    # counts in n_evals like every other
    seen, scored = [], []
    real_propagate, real_error = optimizer.propagate, optimizer.gate_error
    monkeypatch.setattr(optimizer, "propagate", lambda gen, cs, grid:
                        seen.append(cs) or real_propagate(gen, cs, grid))
    monkeypatch.setattr(optimizer, "gate_error", lambda u, *args:
                        scored.append(u) or real_error(u, *args))
    res = optimize(OptimizeTask(sno5, fast_params, (True, False, False, False),
                                max_evals=10, prop_tol=1e-7))

    def coefficients(cs):
        return cs.a1, cs.a3, cs.b1, cs.c2, cs.c0

    x0 = build_controls(sno5, Ansatz(1.0, 0.0, 0.0, 0.0), fast_params)
    points = [coefficients(cs) for cs in seen]
    assert len(scored) == res.n_evals == len(points) + 1
    assert coefficients(x0) not in points
    np.testing.assert_array_equal(
        scored[0], propagate(sno5, x0, TimeGrid(fast_params.t_g, res.n_steps)))


class TestSearch:
    def test_converged_meets_stop_test(self, sno5, fast_params):
        # converged promises g^T H g / 2 <= 1e-9 f at the returned point;
        # check it with central differences and a difference Hessian made
        # here, not with the search's own model
        mask = (True, False, True, False)
        res = optimize(OptimizeTask(sno5, fast_params, mask, max_evals=100,
                                    prop_tol=1e-7))
        assert res.converged

        def f(x):
            return _fixed_grid_error(sno5, x, fast_params, res.n_steps)

        x = np.array(res.x)
        axes = np.eye(4)[list(mask)]
        h, k = 1e-5, 1e-4
        g = np.array([(f(x + h * a) - f(x - h * a)) / (2 * h) for a in axes])
        hess = np.array([[(f(x + k * a + k * b) - f(x + k * a - k * b)
                           - f(x - k * a + k * b) + f(x - k * a - k * b))
                          / (4 * k * k) for b in axes] for a in axes])
        assert np.all(np.linalg.eigvalsh(hess) > 0)
        assert g @ np.linalg.solve(hess, g) / 2 <= 1e-9 * res.gate_error

    def test_budget_cut_returns_best_seen(self, sno5, fast_params,
                                          monkeypatch):
        import drag_forge.optimizer as optimizer

        values = []
        real = optimizer.gate_error
        monkeypatch.setattr(optimizer, "gate_error", lambda *a:
                            values.append(real(*a)) or values[-1])
        res = optimize(OptimizeTask(sno5, fast_params,
                                    (True, True, False, False),
                                    max_evals=7, prop_tol=1e-7))
        assert res.n_evals == len(values) == 7
        assert res.gate_error == min(values)
        assert not res.converged

    def test_free_task_converges_within_budget(self, sno5):
        # the benchmark's free (alpha, beta, gamma) task at sigma = 1, where
        # a quasi-Newton search on 1 - F needed 104 evaluations
        res = optimize(OptimizeTask(sno5, GaussianParams.for_not(1.0),
                                    (True, True, True, False), max_evals=60,
                                    prop_tol=1e-9))
        assert res.converged and res.n_evals <= 60
        assert res.gate_error <= 2.325702e-7 * (1 + 1e-9)

    @pytest.mark.parametrize("mask,x0", [
        ((True, False, True, False), (1.0, 0.0, 0.0, 0.0)),
        ((False, True, False, True), (1.01, 0.2, 0.125, 0.0)),
    ])
    def test_reported_error_is_a_fresh_evaluation(self, sno5, fast_params,
                                                  mask, x0):
        res = optimize(OptimizeTask(sno5, fast_params, mask, x0=x0,
                                    max_evals=40, prop_tol=1e-7))
        assert res.gate_error == _fixed_grid_error(sno5, res.x, fast_params,
                                                   res.n_steps)


def test_nested_masks_at_sigma_1(sno5):
    # fig5's rows at sigma = 1: the four-free mask holds the optimum of
    # alpha+gamma+delta0 (fig5b) and of alpha+beta+gamma (fig5a) as
    # feasible points on the same grid, so its row can be no worse
    params = GaussianParams.for_not(1.0)

    def row(mask):
        return optimize(OptimizeTask(sno5, params, mask, max_evals=250,
                                     prop_tol=1e-9))

    full = row((True, True, True, True))
    assert full.gate_error <= row((True, False, True, True)).gate_error
    assert full.gate_error <= row((True, True, True, False)).gate_error


def test_generators_built_once_per_task(sno5, fast_params, monkeypatch):
    # the step resolution and every evaluation share one generator build
    import drag_forge.propagator as propagator

    calls = []
    real = propagator.generators
    monkeypatch.setattr(propagator, "generators",
                        lambda spec: calls.append(spec) or real(spec))
    optimize(OptimizeTask(sno5, fast_params, (True, False, False, False),
                          max_evals=10, prop_tol=1e-7))
    assert len(calls) == 1
