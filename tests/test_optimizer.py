import math

import numpy as np
import pytest

from drag_forge import (Ansatz, DragVariant, GaussianParams, TimeGrid,
                        build_controls, gate_error, ideal_not, propagate)
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
    def test_all_frozen_rejected(self, sno5, fast_params):
        with pytest.raises(ValueError, match="at least one"):
            OptimizeTask(sno5, fast_params, (False, False, False, False))

    @pytest.mark.parametrize("prop_tol", [0.0, -1e-9])
    def test_bad_prop_tolerance_rejected(self, sno5, fast_params, prop_tol):
        # a step-doubling tolerance that can never be met would double the
        # grid to its 2^20 cap; only the construction is exercised here
        with pytest.raises(ValueError, match="prop_tol must be positive"):
            OptimizeTask(sno5, fast_params, (True, False, False, False),
                         prop_tol=prop_tol)

    @pytest.mark.parametrize("field,value", [
        ("max_evals", 0), ("max_evals", -3)])
    def test_bad_budget_rejected(self, sno5, fast_params, field, value):
        # max_evals = 0 would return inf at x0, above the objective there
        with pytest.raises(ValueError, match=field):
            OptimizeTask(sno5, fast_params, (True, False, False, False),
                         **{field: value})


class TestAlphaOnly:
    def test_matches_scan_oracle(self, sno5, fast_params):
        # brute-force 1-D scan over alpha before trusting the simplex
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
        # huge coefficients overflow the cubic term; vertices get rejected
        # rather than crashing the search
        x0 = (1.0, 0.0, 0.0, 0.0)
        task = OptimizeTask(sno5, fast_params, (True, False, False, False),
                            x0=x0, max_evals=30, prop_tol=1e-7)
        res = optimize(task)
        assert math.isfinite(res.gate_error)


def test_result_reports_budget(sno5, fast_params):
    task = OptimizeTask(sno5, fast_params, (True, False, False, False),
                        max_evals=25, prop_tol=1e-7)
    res = optimize(task)
    assert isinstance(res, OptimizeResult)
    assert res.n_evals <= 25
    assert res.n_steps >= 256


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
