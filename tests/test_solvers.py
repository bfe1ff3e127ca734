import numpy as np
import pytest
from scipy.optimize import OptimizeResult

from rcdlab import geodesy, solvers
from rcdlab.geodesy import build_good_geodesic
from rcdlab.measures import bump_measure, gaussian_measure
from rcdlab.mmspace import make_model_space
from rcdlab.solvers import InfeasibleError, SolverError


def _failing_linprog(status):
    def linprog(*args, **kwargs):
        return OptimizeResult(status=status, message=f"stub status {status}", x=None, fun=None)
    return linprog


def _oracle_args():
    C = make_model_space("segment", 5).metric ** 2
    mu = np.full(5, 0.2)
    return C, C, mu, mu, np.array([0.5, 0.5]), np.zeros(5)


def test_time_limit_is_a_solver_error_not_infeasibility(monkeypatch):
    monkeypatch.setattr(solvers, "linprog", _failing_linprog(1))
    with pytest.raises(SolverError, match="status 1") as err:
        solvers._budgeted_oracle(*_oracle_args())
    assert not isinstance(err.value, InfeasibleError)


def test_infeasible_status_raises_infeasible_error(monkeypatch):
    monkeypatch.setattr(solvers, "linprog", _failing_linprog(2))
    with pytest.raises(InfeasibleError):
        solvers._budgeted_oracle(*_oracle_args())


def test_oracle_vertex_meets_the_budgets():
    C, _, mu, _, _, _ = _oracle_args()
    budgets = np.array([0.3, 0.3])
    c = -np.arange(5.0)  # pulls mass to the far end, past the budgets
    nu, value = solvers._budgeted_oracle(C, C, mu, mu, budgets, c)
    assert nu.sum() == pytest.approx(1.0)
    assert value == pytest.approx(float(c @ nu))
    assert solvers.exact_ot(C, mu, nu)[0] <= budgets[0] + 1e-9
    assert nu[-1] < 1.0


def test_auto_epsilon_build_propagates_a_solver_failure(monkeypatch):
    # every LP of the Frank-Wolfe solver hits its time limit; the builder must
    # report that, not retry the interval with a larger relaxation
    real_linprog = solvers.linprog
    real_fw = geodesy.entropy_budget_min
    calls = []

    def timed_out_fw(*args, **kwargs):
        calls.append(1)
        monkeypatch.setattr(solvers, "linprog", _failing_linprog(1))
        try:
            return real_fw(*args, **kwargs)
        finally:
            monkeypatch.setattr(solvers, "linprog", real_linprog)

    monkeypatch.setattr(geodesy, "entropy_budget_min", timed_out_fw)
    space = make_model_space("segment", 9)
    mu0, mu1 = gaussian_measure(space, 8.0), bump_measure(space, 6, 0.2)
    with pytest.raises(SolverError, match="status 1") as err:
        build_good_geodesic(mu0, mu1, 1, epsilon="auto", tol=5e-3)
    assert not isinstance(err.value, InfeasibleError)
    assert calls == [1]
