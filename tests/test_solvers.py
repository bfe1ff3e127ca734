import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import OptimizeResult, brentq
from scipy.special import logsumexp

from rcdlab import cli, geodesy, solvers
from rcdlab.geodesy import build_good_geodesic
from rcdlab.measures import bump_measure, gaussian_measure
from rcdlab.mmspace import make_model_space
from rcdlab.solvers import InfeasibleError, SolverError


def _failing_linprog(status, calls=None):
    def linprog(*args, **kwargs):
        if calls is not None:
            calls.append(kwargs["options"])
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


@pytest.mark.parametrize("status, error", [(1, SolverError), (2, InfeasibleError)])
def test_one_highs_call_per_lp(monkeypatch, status, error):
    # neither a time limit nor an infeasibility report is solved again
    calls = []
    monkeypatch.setattr(solvers, "linprog", _failing_linprog(status, calls))
    with pytest.raises(error) as err:
        solvers._budgeted_oracle(*_oracle_args())
    assert type(err.value) is error
    assert calls == [{"presolve": False, "primal_feasibility_tolerance": 1e-10,
                      "time_limit": solvers._LP_TIME_LIMIT}]


def test_oracle_vertex_meets_the_budgets():
    C, _, mu, _, _, _ = _oracle_args()
    budgets = np.array([0.3, 0.3])
    c = -np.arange(5.0)  # pulls mass to the far end, past the budgets
    nu, value = solvers._budgeted_oracle(C, C, mu, mu, budgets, c)
    assert nu.sum() == pytest.approx(1.0)
    assert value == pytest.approx(float(c @ nu))
    assert solvers.exact_ot(C, mu, nu)[0] <= budgets[0] + 1e-9
    assert nu[-1] < 1.0


def _build_with_failing_fw(monkeypatch, status, epsilon):
    """Build a depth-1 geodesic on segment:9 in which every LP of the
    Frank-Wolfe solver reports the given HiGHS status; returns the error
    raised and the number of Frank-Wolfe solves attempted."""
    real_linprog = solvers.linprog
    real_fw = geodesy.entropy_budget_min
    calls = []

    def failing_fw(*args, **kwargs):
        calls.append(1)
        monkeypatch.setattr(solvers, "linprog", _failing_linprog(status))
        try:
            return real_fw(*args, **kwargs)
        finally:
            monkeypatch.setattr(solvers, "linprog", real_linprog)

    monkeypatch.setattr(geodesy, "entropy_budget_min", failing_fw)
    space = make_model_space("segment", 9)
    mu0, mu1 = gaussian_measure(space, 8.0), bump_measure(space, 6, 0.2)
    with pytest.raises(SolverError) as err:
        build_good_geodesic(mu0, mu1, 1, epsilon=epsilon, tol=5e-3)
    return err.value, len(calls)


def test_auto_epsilon_build_propagates_a_solver_failure(monkeypatch):
    # every LP of the Frank-Wolfe solver hits its time limit; the builder must
    # report that, not retry the interval with a larger relaxation
    err, calls = _build_with_failing_fw(monkeypatch, 1, "auto")
    assert "status 1" in str(err)
    assert not isinstance(err, InfeasibleError)
    assert calls == 1


def test_auto_epsilon_build_does_not_read_an_lp_report_as_too_small_epsilon(monkeypatch):
    # the interval's relaxation was verified by epsilon_min; an infeasible
    # report from the oracle LP is a solver failure, not a cue to enlarge it
    err, calls = _build_with_failing_fw(monkeypatch, 2, "auto")
    assert isinstance(err, InfeasibleError)
    assert err.min_budget is None
    assert calls == 1


def test_fixed_epsilon_build_reports_an_lp_failure_as_a_solver_error(monkeypatch):
    # the interval is nonempty at epsilon = 0.5: only an empty set is a GeodesyError
    err, calls = _build_with_failing_fw(monkeypatch, 2, 0.5)
    assert isinstance(err, InfeasibleError)
    assert calls == 1


# -- exact_ot's memory of its last solve -----------------------------------------


def _counted_linprog(monkeypatch):
    """Empty exact_ot's memory and count the HiGHS calls from here on."""
    real_linprog, calls = solvers.linprog, []

    def linprog(*args, **kwargs):
        calls.append(1)
        return real_linprog(*args, **kwargs)

    monkeypatch.setattr(solvers, "linprog", linprog)
    monkeypatch.setattr(solvers, "_OT_LAST", (None, None))
    return calls


def _ot_problem(seed, n=7):
    rng = np.random.default_rng(seed)
    C = make_model_space("random_metric", n, {"seed": seed}).metric ** 2
    return C, rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))


def test_a_byte_equal_repeat_returns_the_same_objects_without_an_lp(monkeypatch):
    calls = _counted_linprog(monkeypatch)
    C, a, b = _ot_problem(1)
    first = solvers.exact_ot(C, a, b)
    again = solvers.exact_ot(C.copy(), list(a), b.copy())  # equal bytes, new objects
    assert len(calls) == 1
    assert all(x is y for x, y in zip(again, first))


def _one_ulp(x, index):
    x = np.array(x, dtype=float)
    x[index] = np.nextafter(x[index], np.inf)
    return x


@pytest.mark.parametrize("change", ["a", "b", "C", "transposed"])
def test_any_change_of_the_problem_solves_again(monkeypatch, change):
    calls = _counted_linprog(monkeypatch)
    C, a, b = _ot_problem(2)
    changed = {
        "a": (C, _one_ulp(a, 3), b),
        "b": (C, a, _one_ulp(b, 0)),
        "C": (_one_ulp(C, (2, 5)), a, b),
        "transposed": (C[:, :5].T, b[:5] / b[:5].sum(), a),
    }[change]
    base = (C[:, :5], a, b[:5] / b[:5].sum()) if change == "transposed" else (C, a, b)
    first = solvers.exact_ot(*base)
    other = solvers.exact_ot(*changed)
    assert len(calls) == 2
    assert other[1] is not first[1]
    assert solvers.exact_ot(*changed) is other  # the memory now holds the changed problem
    assert len(calls) == 2
    solvers.exact_ot(*base)  # and only that one
    assert len(calls) == 3


def test_a_failed_solve_is_not_remembered(monkeypatch):
    calls = _counted_linprog(monkeypatch)
    counted = solvers.linprog
    P, Q = _ot_problem(3), _ot_problem(4)
    kept = solvers.exact_ot(*P)
    monkeypatch.setattr(solvers, "linprog", _failing_linprog(1))
    with pytest.raises(SolverError, match="status 1"):
        solvers.exact_ot(*Q)
    monkeypatch.setattr(solvers, "linprog", counted)
    assert solvers.exact_ot(*P) is kept
    assert len(calls) == 1
    solvers.exact_ot(*Q)
    assert len(calls) == 2


def test_the_returned_arrays_are_read_only(monkeypatch):
    _counted_linprog(monkeypatch)
    _, plan, u, v = solvers.exact_ot(*_ot_problem(5))
    for arr in (plan, u, v):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0


def test_threads_alternating_two_problems_get_their_own_results(monkeypatch):
    calls = _counted_linprog(monkeypatch)
    problems = [_ot_problem(6), _ot_problem(7, n=9)]
    expected = [solvers.exact_ot(*p) for p in problems]
    expected = [(cost, plan.tobytes(), u.tobytes(), v.tobytes()) for cost, plan, u, v in expected]
    wrong = []
    turn = threading.Barrier(2, timeout=60)

    def worker(k):
        for _ in range(200):
            turn.wait()  # the threads take turns with the memory, round by round
            for _ in range(2):  # a back-to-back repeat hits unless the other thread came between
                cost, plan, u, v = solvers.exact_ot(*problems[k])
                if (cost, plan.tobytes(), u.tobytes(), v.tobytes()) != expected[k]:
                    wrong.append(k)

    threads = [threading.Thread(target=worker, args=(k,)) for k in (0, 1)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and not turn.broken
    assert wrong == []
    assert len(calls) < 2 + 800  # some repeats were answered from the memory


# -- _lambda_update ---------------------------------------------------------------


def _log_moment(base, C, tau, lam):
    """log<gamma(lam), C> by scipy's logsumexp over the positive costs."""
    pos = C > 0
    return float(logsumexp(base[pos] - lam * C[pos] / tau + np.log(C[pos])))


@st.composite
def _lambda_problem(draw):
    k, n = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    base = np.array(draw(st.lists(st.floats(-5.0, 5.0), min_size=k * n, max_size=k * n))).reshape(k, n)
    cost = st.one_of(st.just(0.0), st.floats(0.01, 4.0))
    C = np.array(draw(st.lists(cost, min_size=k * n, max_size=k * n))).reshape(k, n)
    C[0, 0] = max(C[0, 0], 0.01)  # a positive cost makes <gamma(0), C>, and so the budget, positive
    tau = draw(st.floats(0.05, 2.0))
    ratio = draw(st.one_of(st.floats(1e-3, 0.99), st.floats(1.01, 2.0)))
    return base, C, tau, ratio * float(np.exp(_log_moment(base, C, tau, 0.0)))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(problem=_lambda_problem())
def test_lambda_update_reaches_the_root_from_either_side(problem):
    base, C, tau, budget = problem
    logb = np.log(budget)
    feasible_at_zero = _log_moment(base, C, tau, 0.0) <= logb
    root = 0.0
    if not feasible_at_zero:
        hi = 1.0
        while _log_moment(base, C, tau, hi) > logb:
            hi *= 2.0
        root = brentq(lambda lam: _log_moment(base, C, tau, lam) - logb, 0.0, hi, xtol=1e-15)
    for lam0 in (0.0, root * (1.0 - 1e-6), root * (1.0 + 1e-6), 10.0 * root, 1e6 * root):
        lam = solvers._lambda_update(base, C, tau, budget, lam0)
        assert lam >= 0.0
        assert (lam == 0.0) == feasible_at_zero
        if not feasible_at_zero:
            assert abs(_log_moment(base, C, tau, lam) - logb) <= 1e-10 * max(1.0, abs(logb))


# -- epsilon_min ----------------------------------------------------------------

_UNIT = st.floats(0.0, 1.0)


@st.composite
def _three_point_pair(draw):
    """Criterion 4's battery: distances in [0.5, 1] obeying the triangle
    inequality, interior endpoint measures."""
    d01, d02, d12 = (0.5 + 0.5 * draw(_UNIT) for _ in range(3))
    d02 = min(d02, d01 + d12 - 1e-3)
    metric = np.array([[0, d01, d02], [d01, 0, d12], [d02, d12, 0]])
    w0, w1 = (np.array([0.2 + draw(_UNIT) for _ in range(3)]) for _ in range(2))
    return metric ** 2, w0 / w0.sum(), w1 / w1.sum()


@st.composite
def _segment_pair(draw):
    """Lattice weights on segment:n: sparse supports and Dirac pairs included."""
    n = draw(st.integers(2, 12))
    weights = st.lists(st.integers(0, 4), min_size=n, max_size=n).filter(any)
    w0, w1 = (np.array(draw(weights), dtype=float) for _ in range(2))
    return make_model_space("segment", n).metric ** 2, w0 / w0.sum(), w1 / w1.sum()


def _slack(C, mu0, mu1, t, W, eps):
    sel0, sel1 = mu0 > 0, mu1 > 0
    return solvers.interior_point(C[sel0], C[sel1], mu0[sel0], mu1[sel1],
                                  (t * W + eps) ** 2, ((1 - t) * W + eps) ** 2)[0]


@settings(derandomize=True, deadline=None, max_examples=40)
@given(pair=st.one_of(_three_point_pair(), _segment_pair()), t=st.floats(0.05, 0.95))
def test_epsilon_min_is_verified_and_least(pair, t):
    C, mu0, mu1 = pair
    W = float(np.sqrt(max(solvers.exact_ot(C, mu0, mu1)[0], 0.0)))
    with mock.patch.object(solvers, "interior_point", wraps=solvers.interior_point) as lp:
        eps = solvers.epsilon_min(C, mu0, mu1, t, W)
    assert lp.call_count <= 6
    assert _slack(C, mu0, mu1, t, W, eps) >= -1e-12
    if eps > 1e-7:
        assert _slack(C, mu0, mu1, t, W, eps - 1e-7) < 0
    # zero exactly when the unrelaxed set passes the same slack test
    assert (eps == 0.0) == (_slack(C, mu0, mu1, t, W, 0.0) >= -1e-12)


def _never_feasible(C0, C1, mu0, mu1, budget0, budget1):
    return -1.0, np.full(C0.shape[1], 1.0 / C0.shape[1]), np.array([0.5, 0.5])


def test_epsilon_min_raises_a_solver_error_at_its_cap(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(solvers, "interior_point", mock.Mock(side_effect=_never_feasible))
    C = make_model_space("segment", 4).metric ** 2
    mu0, mu1 = np.array([1.0, 0, 0, 0]), np.array([0, 0, 0, 1.0])
    with pytest.raises(SolverError, match="epsilon_min") as err:
        solvers.epsilon_min(C, mu0, mu1, 0.5, 1.0)
    assert not isinstance(err.value, InfeasibleError)
    assert solvers.interior_point.call_count == solvers._NEWTON_CAP
    # an auto-epsilon geodesic task reports it as a solver failure
    cfg = {"space": {"kind": "segment", "n": 4}, "seed": 0, "output_dir": str(tmp_path / "o"),
           "tasks": [{"op": "geodesic", "name": "g", "depth": 1,
                      "mu0": {"kind": "dirac", "at": 0}, "mu1": {"kind": "dirac", "at": 3}}]}
    assert cli.run(cfg) == 3
    assert "SolverError" in capsys.readouterr().err
