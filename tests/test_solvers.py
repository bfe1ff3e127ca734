import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import OptimizeResult, brentq, linprog as scipy_linprog, minimize
from scipy.special import logsumexp

from rcdlab import cli, geodesy, solvers
from rcdlab.geodesy import build_good_geodesic
from rcdlab.measures import bump_measure, gaussian_measure, relative_entropy
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


# -- solvers.linprog: one direct HiGHS call ---------------------------------------


def _linked_pair_args(seed, n=9):
    rng = np.random.default_rng(seed)
    C = make_model_space("random_metric", n, {"seed": seed}).metric ** 2
    mu0, mu1 = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))
    budgets = rng.uniform(1.0, 1.5, 2) * solvers.exact_ot(C, mu0, mu1)[0]  # nu = mu0 or mu1 meets them
    return C, C, mu0, mu1, budgets


def _interior_point_lps():
    for seed in (1, 2):
        C0, C1, mu0, mu1, budgets = _linked_pair_args(seed)
        for scale in (0.1, 1.0, 4.0):  # far too small to ample: slack of either sign
            solvers.interior_point(C0, C1, mu0, mu1, *(scale * budgets))


def _oracle_lps():
    for seed in (3, 4, 5):
        solvers._budgeted_oracle(*_linked_pair_args(seed), np.random.default_rng(seed).normal(size=9))


_LP_CASES = {
    "exact_ot-5": lambda: solvers.exact_ot(*_ot_problem(11, n=5)),
    "exact_ot-17": lambda: solvers.exact_ot(*_ot_problem(12, n=17)),
    "exact_ot-64": lambda: solvers.exact_ot(*_ot_problem(13, n=64)),
    "interior_point": _interior_point_lps,
    "_budgeted_oracle": _oracle_lps,
}


@pytest.mark.parametrize("case", sorted(_LP_CASES))
def test_linprog_is_bit_identical_to_scipy(monkeypatch, case):
    # guards the private scipy.optimize._highspy API that linprog drives: the
    # LPs rcdlab builds must give scipy's bits for x, fun and both duals
    real_linprog, lps = solvers.linprog, []

    def recording(*args, **kwargs):
        lps.append(args)
        return real_linprog(*args, **kwargs)

    monkeypatch.setattr(solvers, "linprog", recording)
    monkeypatch.setattr(solvers, "_OT_LAST", (None, None))
    _LP_CASES[case]()
    assert lps
    for c, A_eq, b_eq, A_ub, b_ub, bounds in lps:
        ours = real_linprog(c, A_eq, b_eq, A_ub, b_ub, bounds, options=solvers._LP_OPTIONS)
        ref = scipy_linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, bounds=bounds, method="highs",
                            options=solvers._LP_OPTIONS)
        assert ours.status == ref.status == 0
        assert ours.x.tobytes() == ref.x.tobytes()
        assert np.float64(ours.fun).tobytes() == np.float64(ref.fun).tobytes()
        assert ours.eqlin.marginals.tobytes() == ref.eqlin.marginals.tobytes()
        assert ours.ineqlin.marginals.tobytes() == ref.ineqlin.marginals.tobytes()


def test_unequal_masses_are_infeasible():
    C, a, b = _ot_problem(14)
    with pytest.raises(InfeasibleError):
        solvers.exact_ot(C, a, 1.5 * b)


def test_a_real_time_limit_is_a_solver_error_not_infeasibility(monkeypatch):
    monkeypatch.setattr(solvers, "_LP_OPTIONS", {**solvers._LP_OPTIONS, "time_limit": 0.0})
    monkeypatch.setattr(solvers, "_OT_LAST", (None, None))
    with pytest.raises(SolverError, match="status 1") as err:
        solvers.exact_ot(*_ot_problem(15))
    assert not isinstance(err.value, InfeasibleError)


def test_an_optimum_off_its_constraints_is_a_solver_error(monkeypatch):
    # scipy's post-solve check: at a negative tolerance every optimal x misses
    monkeypatch.setattr(solvers, "_RESULT_TOL", -1.0)
    monkeypatch.setattr(solvers, "_OT_LAST", (None, None))
    with pytest.raises(SolverError, match="status 4") as err:
        solvers.exact_ot(*_ot_problem(17))
    assert not isinstance(err.value, InfeasibleError)


def test_disagreeing_lp_shapes_are_a_value_error():
    # HiGHS would read past the arrays it is given
    C, a, b = _ot_problem(18)
    M = solvers._marginal_matrix(7, 7)
    with pytest.raises(ValueError, match="shapes"):
        solvers.linprog(C.ravel()[:-1], M, np.concatenate([a, b]))
    with pytest.raises(ValueError, match="shapes"):
        solvers.linprog(C.ravel(), M, a)


def test_a_nan_cost_is_a_value_error():
    C, a, b = _ot_problem(16)
    C[2, 3] = np.nan
    with pytest.raises(ValueError):
        solvers.exact_ot(C, a, b)


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


# -- _hull_minimize: one SLSQP solve on the weight simplex ------------------------


def _two_stage_hull_minimize(vertices, m, theta0=None, iters=120):
    """The routine _hull_minimize replaced, kept as the reference: mirror
    descent with Armijo steps, then an SLSQP polish."""
    V = np.asarray(vertices, dtype=float)
    r = V.shape[0]
    theta = np.full(r, 1.0 / r) if theta0 is None else np.asarray(theta0, dtype=float)
    theta = np.maximum(theta, 1e-16)
    theta /= theta.sum()

    def ent(th):
        nu = th @ V
        pos = nu > 0
        return float(np.sum(nu[pos] * np.log(nu[pos] / m[pos])))

    def ent_grad(th):
        nu = th @ V
        glog = np.where(nu > 0, np.log(np.maximum(nu / m, 1e-300)) + 1.0, np.log(1e-300))
        return ent(th), V @ glog

    cur = ent(theta)
    step = 1.0
    stall = 0
    for _ in range(iters):
        _, g = ent_grad(theta)
        g = g - g.min()
        if g.max() <= 0:
            break
        improved = False
        s = step / max(g.max(), 1e-12)
        for _ in range(50):
            cand = theta * np.exp(np.maximum(-s * g, -745.0))
            total = cand.sum()
            if not np.isfinite(total) or total <= 0:
                s /= 2
                continue
            cand = cand / total
            val = ent(cand)
            if val < cur - 1e-15 * max(1.0, abs(cur)):
                theta, cur = cand, val
                step = min(step * 1.6, 1e4)
                improved = True
                break
            s /= 2
        if not improved:
            stall += 1
            step = max(step / 4, 1e-8)
            if stall > 6:
                break
        else:
            stall = 0
    res = minimize(
        ent_grad, theta, jac=True, method="SLSQP",
        bounds=[(0.0, 1.0)] * r,
        constraints=[{"type": "eq", "fun": lambda th: th.sum() - 1.0, "jac": lambda th: np.ones(r)}],
        options=dict(maxiter=300, ftol=1e-14),
    )
    if res.x is not None and np.isfinite(res.fun):
        th = np.maximum(res.x, 0.0)
        total = th.sum()
        if total > 0 and res.fun < cur:
            theta, cur = th / total, ent(th / total)
    return theta, cur


def _random_hull(seed):
    """2 to 15 vertex rows on 3 or 17 points, as the Frank-Wolfe solver builds
    them: sparse probability rows, some columns zero in every row."""
    rng = np.random.default_rng(seed)
    n = (3, 17)[seed % 2]
    r = int(rng.integers(2, 16))
    V = rng.dirichlet(np.full(n, 0.5), size=r)
    V[rng.random((r, n)) < 0.3] = 0.0
    V[:, rng.random(n) < 0.2] = 0.0
    V[V.sum(axis=1) == 0, 0] = 1.0
    return V / V.sum(axis=1, keepdims=True), rng.dirichlet(np.full(n, 2.0))


def _simplex_kkt(V, m, theta):
    """KKT residuals of min Ent_m(theta V) over the simplex, with g the
    gradient in theta and lam = theta.g: complementary slackness
    max_j theta_j |g_j - lam|, and dual feasibility lam - min_j g_j over the
    vertices that stay where nu > 1e-9. Where nu is tinier the entropy's
    slope is steep and its curvature huge: a vertex reaching there changes the
    entropy by less than rounding long before its gradient balances, so only
    complementary slackness is checked for it."""
    nu = theta @ V
    g = V @ np.where(nu > 0, np.log(np.maximum(nu / m, 1e-300)) + 1.0, np.log(1e-300))
    lam = theta @ g
    inside = ~(V[:, nu <= 1e-9] > 0).any(axis=1)
    return float(np.max(theta * np.abs(g - lam))), float(lam - g[inside].min(initial=lam))


@pytest.mark.parametrize("seed", range(30))
def test_hull_minimize_meets_the_simplex_kkt_conditions(seed):
    V, m = _random_hull(seed)
    warm, _ = solvers._hull_minimize(V[:-1], m)
    for theta0 in (None, np.append(warm * (1 - 1e-3), 1e-3)):
        theta, ent = solvers._hull_minimize(V, m, theta0)
        assert theta.min() >= 0.0
        assert abs(theta.sum() - 1.0) <= 1e-12
        comp, dual = _simplex_kkt(V, m, theta)
        assert comp <= 1e-7
        assert dual <= 1e-7
        assert ent <= _two_stage_hull_minimize(V, m, theta0)[1] + 1e-9


# -- dirac_pair_min: projected Newton on the dual --------------------------------


def _bisection_dirac_pair_min(m, q_list, budgets, lam_cap=1e12, sweeps=80):
    """The routine dirac_pair_min replaced, kept as the reference: cyclic
    coordinate bisection on the concave dual plus a climb along its ray."""
    q = np.asarray(q_list, dtype=float)
    b = np.asarray(budgets, dtype=float)
    k = q.shape[0]
    lam = np.zeros(k)

    def state(lam_vec):
        e = np.log(m) - lam_vec @ q
        shift = e.max()
        p = np.exp(np.maximum(e - shift, -745.0))
        Z = p.sum()
        return p / Z, np.log(Z) + shift

    def moment(lam_vec, i):
        return float(state(lam_vec)[0] @ q[i])

    def coordinate_sweep():
        moved = 0.0
        for i in range(k):
            trial = lam.copy()
            trial[i] = 0.0
            if moment(trial, i) <= b[i]:
                moved = max(moved, abs(lam[i]))
                lam[i] = 0.0
                continue
            lo = 0.0
            hi = max(2.0 * lam[i], 1.0)
            trial[i] = hi
            while moment(trial, i) > b[i] and hi < lam_cap:
                hi *= 4.0
                trial[i] = hi
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                trial[i] = mid
                if moment(trial, i) > b[i]:
                    lo = mid
                else:
                    hi = mid
                if hi - lo <= 1e-14 * (1.0 + hi):
                    break
            moved = max(moved, abs(lam[i] - hi))
            lam[i] = hi
        return moved

    def ray_climb():
        nonlocal lam
        norm = np.abs(lam).max()
        if norm <= 0:
            return
        direc = lam / norm

        def dslope(s):
            return float(state(s * direc)[0] @ (direc @ q)) - float(direc @ b)

        if dslope(norm) <= 0:
            return
        lo, hi = norm, 2.0 * norm
        while dslope(hi) > 0 and hi < lam_cap:
            hi *= 4.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if dslope(mid) > 0:
                lo = mid
            else:
                hi = mid
            if hi - lo <= 1e-12 * (1.0 + hi):
                break
        lam = 0.5 * (lo + hi) * direc

    for _ in range(sweeps):
        moved = coordinate_sweep()
        ray_climb()
        moved = max(moved, coordinate_sweep())
        if moved <= 1e-12 * (1.0 + np.abs(lam).max()):
            break
    nu, logZ = state(lam)
    return nu, -logZ - float(lam @ b)


@st.composite
def _dirac_pair_problem(draw):
    """Dirac anchors on segment:n or cycle:n, n <= 17, at a lattice midpoint
    with epsilon = 0 (the feasible set is one point, or two on a cycle) or at
    a random time with epsilon above the least relaxation. Returns the
    arguments of dirac_pair_min."""
    kind = draw(st.sampled_from(["segment", "cycle"]))
    n = draw(st.integers(3, 17))
    space = make_model_space(kind, n)
    x0 = draw(st.integers(0, n - 1))
    x1 = draw(st.integers(0, n - 1).filter(lambda x: x != x0))
    W = space.metric[x0, x1]
    steps = round(W / space.metric[space.metric > 0].min())
    C = space.metric ** 2
    if steps >= 2 and draw(st.booleans()):
        t, eps = draw(st.integers(1, steps - 1)) / steps, 0.0
    else:
        t = draw(st.floats(0.05, 0.95))
        mu0, mu1 = np.eye(n)[x0], np.eye(n)[x1]
        eps = solvers.epsilon_min(C, mu0, mu1, t, W) + draw(st.floats(1e-3, 0.5)) * W
    budgets = np.array([(t * W + eps) ** 2, ((1 - t) * W + eps) ** 2])
    return space.ref_measure, np.vstack([C[x0], C[x1]]), budgets


@settings(derandomize=True, deadline=None, max_examples=120)
@given(problem=_dirac_pair_problem())
def test_dirac_pair_min_is_certified_and_no_worse_than_bisection(problem):
    m, q, budgets = problem
    nu, bound = solvers.dirac_pair_min(m, q, budgets)
    ent = relative_entropy(nu, m)
    assert bound <= ent
    assert ent - bound <= 1e-8
    # where a lattice point misses its budgets by an ulp, the bisection's dual
    # diverges and its bound passes the entropy of that point, which the new
    # routine's nu approaches: compare with the lower of the two
    assert bound >= min(_bisection_dirac_pair_min(m, q, budgets)[1], ent) - 1e-12
