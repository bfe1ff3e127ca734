import ast
import collections
import json
import os
import pathlib
import subprocess
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import sparse
from scipy.optimize import brentq, linprog as scipy_linprog, minimize
from scipy.special import logsumexp

from rcdlab import cli, geodesy, heat, ot, solvers
from rcdlab.dirichlet import dirichlet_form
from rcdlab.geodesy import build_good_geodesic
from rcdlab.measures import ProbMeasure, bump_measure, gaussian_measure, relative_entropy
from rcdlab.mmspace import line_of, make_model_space
from rcdlab.solvers import InfeasibleError, SolverError


# what solvers.linprog raises after a HiGHS run that hit its time limit or
# proved the LP infeasible
_FAILURES = {SolverError: "LP failed: HiGHS model status Time limit reached", InfeasibleError: "LP infeasible"}


def _failing_linprog(error, calls=None):
    """A solvers.linprog that raises error, as one failed HiGHS call does."""
    def linprog(*args, **kwargs):
        if calls is not None:
            calls.append(args)
        raise error(_FAILURES[error])
    return linprog


def _oracle_args():
    C = make_model_space("segment", 5).metric ** 2
    mu = np.full(5, 0.2)
    return C, C, mu, mu, np.array([0.5, 0.5]), np.zeros(5)


def test_time_limit_is_a_solver_error_not_infeasibility(monkeypatch):
    monkeypatch.setattr(solvers, "linprog", _failing_linprog(SolverError))
    with pytest.raises(SolverError, match="Time limit") as err:
        solvers._budgeted_oracle(*_oracle_args())
    assert not isinstance(err.value, InfeasibleError)


def test_infeasible_status_raises_infeasible_error(monkeypatch):
    monkeypatch.setattr(solvers, "linprog", _failing_linprog(InfeasibleError))
    with pytest.raises(InfeasibleError, match="LP infeasible"):
        solvers._budgeted_oracle(*_oracle_args())


@pytest.mark.parametrize("error", [SolverError, InfeasibleError], ids=lambda e: e.__name__)
def test_one_highs_call_per_lp(monkeypatch, error):
    # neither a time limit nor an infeasibility report is solved again
    calls = []
    monkeypatch.setattr(solvers, "linprog", _failing_linprog(error, calls))
    with pytest.raises(error) as err:
        solvers._budgeted_oracle(*_oracle_args())
    assert type(err.value) is error
    assert len(calls) == 1


def test_oracle_vertex_meets_the_budgets():
    C, _, mu, _, _, _ = _oracle_args()
    budgets = np.array([0.3, 0.3])
    c = -np.arange(5.0)  # pulls mass to the far end, past the budgets
    nu, value = solvers._budgeted_oracle(C, C, mu, mu, budgets, c)
    assert nu.sum() == pytest.approx(1.0)
    assert value == pytest.approx(float(c @ nu))
    assert solvers.exact_ot(C, mu, nu)[0] <= budgets[0] + 1e-9
    assert nu[-1] < 1.0


def _build_with_failing_fw(monkeypatch, error, epsilon):
    """Build a depth-1 geodesic on segment:9 in which every LP of the
    Frank-Wolfe solver raises the given error class; returns the error
    raised and the number of Frank-Wolfe solves attempted."""
    real_linprog = solvers.linprog
    real_fw = geodesy.entropy_budget_min
    calls = []

    def failing_fw(*args, **kwargs):
        calls.append(1)
        monkeypatch.setattr(solvers, "linprog", _failing_linprog(error))
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
    err, calls = _build_with_failing_fw(monkeypatch, SolverError, "auto")
    assert "Time limit" in str(err)
    assert not isinstance(err, InfeasibleError)
    assert calls == 1


def test_auto_epsilon_build_does_not_read_an_lp_report_as_too_small_epsilon(monkeypatch):
    # the interval's relaxation was verified by epsilon_min; an infeasible
    # report from the oracle LP is a solver failure, not a cue to enlarge it
    err, calls = _build_with_failing_fw(monkeypatch, InfeasibleError, "auto")
    assert isinstance(err, InfeasibleError)
    assert err.min_budget is None
    assert calls == 1


def test_fixed_epsilon_build_reports_an_lp_failure_as_a_solver_error(monkeypatch):
    # the interval is nonempty at epsilon = 0.5: only an empty set is a GeodesyError
    err, calls = _build_with_failing_fw(monkeypatch, InfeasibleError, 0.5)
    assert isinstance(err, InfeasibleError)
    assert calls == 1


# -- exact_ot's memory of its last solve -----------------------------------------


def _counted_linprog(monkeypatch):
    """Empty exact_ot's memory and record the LPModel of each HiGHS call from here on."""
    real_linprog, calls = solvers.linprog, []

    def linprog(model, *args, **kwargs):
        calls.append(model)
        return real_linprog(model, *args, **kwargs)

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
    monkeypatch.setattr(solvers, "linprog", _failing_linprog(SolverError))
    with pytest.raises(SolverError, match="Time limit"):
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


# -- transport series: each run of pairs on one pair of supports restarts HiGHS from its last basis


def _bits(out):
    cost, plan, u, v = out
    return np.float64(cost).tobytes() + plan.tobytes() + u.tobytes() + v.tobytes()


def _flow_pairs(n=16, steps=6):
    """Consecutive measures of a semigroup flow on cycle:n, as the speed loops see them."""
    space = make_model_space("cycle", n)
    trace = heat.semigroup_flow(dirichlet_form(space), bump_measure(space, 2, 0.15).density(),
                                np.linspace(0.0, 0.05, steps + 1))
    return space.metric ** 2, [(a.weights, b.weights) for a, b in zip(trace.measures, trace.measures[1:])]


@st.composite
def _series_problems(draw, sizes=(2, 16)):
    n = draw(st.integers(*sizes))
    C = make_model_space("random_metric", n, {"seed": draw(st.integers(0, 2**16))}).metric ** 2
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pairs = [(rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n)))]
    for move in draw(st.lists(st.sampled_from(["fresh", "nudge", "sparse"]), min_size=1, max_size=5)):
        a, b = pairs[-1]
        if move == "fresh":
            a, b = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))
        elif move == "nudge":  # the next step of a flow: close to the last pair
            a, b = 0.9 * a + 0.1 * rng.dirichlet(np.ones(n)), 0.9 * b + 0.1 * rng.dirichlet(np.ones(n))
        else:  # marginals with empty sites
            a, b = (w * (rng.uniform(size=n) < 0.6) for w in (a, b))
            a, b = [np.eye(n)[0] if w.sum() == 0 else w / w.sum() for w in (a, b)]
        pairs.append((a, b))
    return C, pairs


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_series_problems())
def test_every_cost_of_a_series_is_an_exact_optimum(problem):
    C, pairs = problem
    for cost, (a, b) in zip(solvers.exact_ot_costs(C, pairs), pairs):
        cold = solvers.exact_ot(C, a, b)[0]
        assert abs(cost - cold) <= 1e-12 * abs(cold)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(_series_problems((solvers._SEED_GATE + 1, 72)))
def test_every_cost_of_a_shortlist_series_is_an_exact_optimum(problem):
    # above the gate each pair runs hot on the last shortlist of the pair before it
    C, pairs = problem
    for cost, (a, b) in zip(solvers.exact_ot_costs(C, pairs), pairs):
        cold = solvers.exact_ot(C, a, b)[0]
        assert abs(cost - cold) <= 1e-12 * abs(cold)


def test_a_series_repeats_its_bits_whatever_the_memory_holds(monkeypatch):
    C, pairs = _flow_pairs()
    models = _counted_linprog(monkeypatch)
    first = solvers.exact_ot_costs(C, pairs)
    assert len(models) == len(pairs) and solvers._OT_LAST == (None, None)  # never written
    cold = solvers.exact_ot(C, *pairs[0])  # the memory now holds the series' first problem
    assert first[0] == cold[0]  # the first LP of a series is the cold solve
    assert solvers.exact_ot_costs(C, pairs) == first  # and is solved again, not read from the memory
    assert len(models) == 2 * len(pairs) + 1
    assert solvers._OT_LAST[1] is cold


def test_a_series_does_not_depend_on_the_calls_before_it():
    C, pairs = _flow_pairs()
    first = [c.hex() for c in solvers.exact_ot_costs(C, pairs)]
    D, a, b = _ot_problem(25, 16)
    solvers.exact_ot_costs(D, [(a, b), (b, a)])  # an unrelated series
    solvers.exact_ot_costs(C, pairs[::-1])  # the same problems in another order
    solvers.exact_ot(C, *pairs[-1])  # the memory holds one of the series' problems
    solvers.exact_ot(D, a, b)
    assert [c.hex() for c in solvers.exact_ot_costs(C, pairs)] == first


def test_an_unequal_mass_pair_in_a_series_is_infeasible():
    C, a, b = _ot_problem(22)
    with pytest.raises(InfeasibleError, match="LP infeasible"):
        solvers.exact_ot_costs(C, [(a, b), (a, 1.5 * b)])
    assert solvers.exact_ot_costs(C, [(b, a)]) == [solvers.exact_ot(C, b, a)[0]]  # nothing is left behind


def test_a_time_limit_on_a_hot_run_is_a_solver_error_not_infeasibility(monkeypatch):
    # pairs[0] starts from a bump; pairs[1] and pairs[2] have full supports, so the second solve is hot
    C, pairs = _flow_pairs()
    real_linprog, models = solvers.linprog, []

    def linprog(model, *args):
        if model.hot:
            model.hot[0].setOptionValue("time_limit", 0.0)  # the HiGHS instance the series' model holds
        models.append(model)
        return real_linprog(model, *args)

    monkeypatch.setattr(solvers, "linprog", linprog)
    with pytest.raises(SolverError, match="Time limit") as err:
        solvers.exact_ot_costs(C, pairs[1:3])
    assert not isinstance(err.value, InfeasibleError)
    assert len(models) == 2 and models[0] is models[1] and models[1].hot is None


# -- LP models: the costs and the right-hand sides change, the model does not ------


def _oracle_lp(seed):
    """An oracle LP on random_metric:9 as (new_model, c, b_eq, b_ub): a maker
    of fresh linked-pair models with unscaled budget rows, random costs on the
    first coupling, the marginals, the two budgets."""
    C0, C1, mu0, mu1, budgets = _linked_pair_args(seed)
    c = np.concatenate([np.tile(np.random.default_rng(seed).normal(size=9), 9), np.zeros(C1.size)])
    return lambda: solvers._linked_pair_lp(C0, C1, (1.0, 1.0)), c, np.concatenate([mu0, mu1, np.zeros(9)]), budgets


def _strategy(highs):
    return highs.getOptionValue("simplex_strategy")[1]


@pytest.mark.parametrize("change", ["costs", "bounds", "both"])
def test_an_lp_path_takes_new_costs_and_bounds_to_a_cold_optimum(change):
    new_model, c, b_eq, budgets = _oracle_lp(31)
    rng, b_ub = np.random.default_rng(32), budgets
    model, instances, strategies = new_model(), [], []
    for k in range(6):
        if k and change != "bounds":
            c[:81] = np.tile(rng.normal(size=9), 9)  # in place: the model must hold its own copy
        if k and change != "costs":
            b_ub = budgets * rng.uniform(1.0, 3.0, 2)  # nu = mu1 still meets them
        fun = solvers.linprog(model, c, b_eq, b_ub)[1]
        cold_model = new_model()
        cold = solvers.linprog(cold_model, c, b_eq, b_ub)[1]
        assert abs(fun - cold) <= 1e-9 * (1 + abs(cold))
        instances.append(model.hot[0])
        strategies.append((_strategy(model.hot[0]), _strategy(cold_model.hot[0])))
    assert all(h is instances[0] for h in instances)  # each later LP re-ran the first one's HiGHS instance
    # new costs alone leave the held basis primal feasible, new row bounds dual feasible
    hot = solvers._PRIMAL if change == "costs" else solvers._DUAL
    assert strategies == [(solvers._DUAL, solvers._DUAL)] + [(hot, solvers._DUAL)] * 5


@pytest.mark.parametrize("failure", [InfeasibleError, SolverError], ids=["infeasible", "time-limit"])
def test_a_failed_run_empties_an_lp_path(failure):
    new_model, c, b_eq, b_ub = _oracle_lp(34)
    model = new_model()
    solvers.linprog(model, c, b_eq, b_ub)
    if failure is InfeasibleError:
        bad_b_ub = -b_ub  # every budget row is a nonnegative cost
    else:
        bad_b_ub = b_ub
        model.hot[0].setOptionValue("time_limit", 0.0)  # the HiGHS instance the model holds
    with pytest.raises(failure, match=_FAILURES[failure]):
        solvers.linprog(model, c[::-1], b_eq, bad_b_ub)
    assert model.hot is None
    # so the next LP on the model is a cold solve
    on_model, cold = (solvers.linprog(m, c[::-1], b_eq, b_ub) for m in (model, new_model()))
    assert all(np.asarray(u).tobytes() == np.asarray(v).tobytes() for u, v in zip(on_model, cold))


# -- idle HiGHS instances: a dropped model's instance serves a later cold run ------


def _tree_lp():
    """(new_model, c, b_eq) of the line shortlist LP on segment:9 that starts at its tree's basis."""
    x, period = line_of(make_model_space("segment", 9))
    rng = np.random.default_rng(41)
    a, b = rng.dirichlet(np.ones(9)), rng.dirichlet(np.ones(9))
    cells = solvers._line_cells(x, x, a, b, period)[0]
    start = np.zeros(cells.size + 18, dtype=bool)
    start[:cells.size] = start[-1] = True
    C = (x[:, None] - x[None, :]) ** 2
    return lambda: solvers.LPModel(*solvers._cells_matrix(9, 9, cells), start=start), C.ravel()[cells], np.concatenate([a, b])


def _transport_lp():
    C, a, b = _ot_problem(42)
    return lambda: solvers.LPModel(*solvers._marginal_matrix(7, 7)), C.ravel(), np.concatenate([a, b])


_POOL_TARGETS = {"transport-7": _transport_lp, "oracle": lambda: _oracle_lp(43), "tree-start": _tree_lp}


def _pool_before_another_shape():
    solvers.exact_ot(*_ot_problem(44, n=5))


def _pool_before_a_hot_series():
    C, pairs = _flow_pairs()
    solvers.exact_ot_costs(C, pairs[1:4])


def _pool_before_a_tree_start():
    space = make_model_space("segment", 9)
    rng = np.random.default_rng(45)
    solvers.exact_ot(space.metric ** 2, rng.dirichlet(np.ones(9)), rng.dirichlet(np.ones(9)), line=line_of(space))


def _pool_before_an_oracle_series():
    new_model, c, b_eq, b_ub = _oracle_lp(44)
    model = new_model()
    for objective in (c, c[::-1]):  # the second run is hot on new costs only
        solvers.linprog(model, objective, b_eq, b_ub)
    assert _strategy(model.hot[0]) == solvers._PRIMAL


_POOL_BEFORE = {"another-shape": _pool_before_another_shape, "hot-series": _pool_before_a_hot_series,
                "oracle-series": _pool_before_an_oracle_series, "tree-start": _pool_before_a_tree_start}


@pytest.mark.parametrize("target", sorted(_POOL_TARGETS))
@pytest.mark.parametrize("before", sorted(_POOL_BEFORE))
def test_a_cold_lp_on_a_reused_instance_has_a_fresh_instances_bits(monkeypatch, before, target):
    new_model, *args = _POOL_TARGETS[target]()
    monkeypatch.setattr(solvers, "_OT_LAST", (None, None))
    monkeypatch.setattr(solvers, "_IDLE", collections.deque(maxlen=solvers._IDLE.maxlen))
    _POOL_BEFORE[before]()
    assert len(solvers._IDLE) == 1
    idle = solvers._IDLE[0]
    assert idle.getNumCol() == 0  # cleared
    model = new_model()
    reused = solvers.linprog(model, *args)
    assert model.hot[0] is idle and not solvers._IDLE and _strategy(idle) == solvers._DUAL
    monkeypatch.setattr(solvers, "_IDLE", collections.deque(maxlen=0))  # every cold run on a new instance
    fresh = solvers.linprog(new_model(), *args)
    assert [np.asarray(v).tobytes() for v in reused] == [np.asarray(v).tobytes() for v in fresh]


def test_an_instance_from_a_failed_run_is_never_reused(monkeypatch):
    monkeypatch.setattr(solvers, "_OT_LAST", (None, None))
    monkeypatch.setattr(solvers, "_IDLE", collections.deque(maxlen=solvers._IDLE.maxlen))
    new_model, c, b_eq, b_ub = _oracle_lp(46)
    model = new_model()
    solvers.linprog(model, c, b_eq, b_ub)
    model.hot[0].setOptionValue("time_limit", 0.0)  # a hot run that fails
    with pytest.raises(SolverError, match="Time limit"):
        solvers.linprog(model, c[::-1], b_eq, b_ub)
    del model
    assert not solvers._IDLE
    solvers.exact_ot(*_ot_problem(47, n=5))  # leaves its instance idle
    assert len(solvers._IDLE) == 1
    with monkeypatch.context() as patch:  # a cold run on it that fails, as it is passed the options anew
        patch.setattr(solvers._HIGHS_OPTIONS, "time_limit", 0.0)
        with pytest.raises(SolverError, match="Time limit"):
            solvers.exact_ot(*_ot_problem(47))
    assert not solvers._IDLE


def test_the_idle_pool_stays_within_its_bound(monkeypatch):
    monkeypatch.setattr(solvers, "_IDLE", collections.deque(maxlen=solvers._IDLE.maxlen))
    C, a, b = _ot_problem(48, n=5)
    models = [solvers.LPModel(*solvers._marginal_matrix(5, 5)) for _ in range(100)]
    for model in models:
        solvers.linprog(model, C.ravel(), np.concatenate([a, b]))
    del models, model
    assert 0 < len(solvers._IDLE) == solvers._IDLE.maxlen <= 8
    # the instance of a model above _IDLE_MAX_COLUMNS columns, which keeps its memory, is not kept
    solvers._IDLE.clear()
    n = int(np.sqrt(solvers._IDLE_MAX_COLUMNS)) + 1
    C, a, b = _ot_problem(49, n=n)
    solvers.linprog(solvers.LPModel(*solvers._marginal_matrix(n, n)), C.ravel(), np.concatenate([a, b]))
    assert not solvers._IDLE


# -- transport LPs on the supports of their marginals ------------------------------


def _support_pairs(n=12, seed=24):
    """Two full-support pairs and two pairs empty on every third site of random_metric:n."""
    C, a, b = _ot_problem(seed, n)
    rng = np.random.default_rng(seed)
    full = [(a, b), (0.9 * a + 0.1 * rng.dirichlet(np.ones(n)), 0.9 * b + 0.1 * rng.dirichlet(np.ones(n)))]
    keep = np.arange(n) % 3 != 0
    sparse = [(x * keep / (x * keep).sum(), y * keep / (y * keep).sum()) for x, y in full]
    return C, full, sparse


def test_a_change_of_support_restarts_the_series(monkeypatch):
    C, full, sparse = _support_pairs()
    models = _counted_linprog(monkeypatch)
    got = solvers.exact_ot_costs(C, full + sparse + full)
    # from each change of support on, the series is a fresh one, on a model of its own
    assert [x is y for x, y in zip(models, models[1:])] == [True, False, True, False, True]
    assert got == [c for pairs in (full, sparse, full) for c in solvers.exact_ot_costs(C, pairs)]
    assert got[2] == solvers.exact_ot(C, *sparse[0])[0]  # whose first solve is cold


@pytest.mark.parametrize("solve", [solvers.exact_ot, lambda C, a, b: solvers.exact_ot_costs(C, [(a, b)])],
                         ids=["cold", "series"])
def test_a_negative_or_massless_marginal_is_a_value_error(solve):
    # a marginal entry of -1e-17, as an unclipped h_t of a Dirac has, is never dropped silently
    C, a, b = _ot_problem(23)
    negative = a.copy()
    negative[2] = -1e-17
    for args in ((C, negative, b), (C, b, negative)):
        with pytest.raises(ValueError, match="nonnegative"):
            solve(*args)
    with pytest.raises(ValueError, match="no mass"):
        solve(C, np.zeros(len(a)), b)


@st.composite
def _problems_with_empty_sites(draw):
    n = draw(st.integers(2, 12))
    space = make_model_space("random_metric", n, {"seed": draw(st.integers(0, 2**16))})
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a, b = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))
    masks = [draw(st.lists(st.booleans(), min_size=n, max_size=n).filter(any)) for _ in "ab"]
    sparse = [w * np.array(keep) / (w * np.array(keep)).sum() for w, keep in zip((a, b), masks)]
    return space, (a, b), sparse


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_problems_with_empty_sites())
def test_transport_on_the_supports_is_the_full_transport_lp(problem):
    space, full, (a, b) = problem
    C, n = space.metric ** 2, space.n
    M = solvers._marginal_matrix(n, n)
    # full supports: the one LP is the whole problem, with linprog's bits
    x, fun, y, _ = solvers.linprog(solvers.LPModel(*M), C.ravel(), np.concatenate(full))
    assert _bits(solvers.exact_ot(C, *full)) == _bits((fun, x.reshape(n, n), y[:n], y[n:]))
    # empty sites: the same optimum, duals feasible on every pair, no mass off the supports
    cost, plan, u, v = solvers.exact_ot(C, a, b)
    whole = solvers.linprog(solvers.LPModel(*M), C.ravel(), np.concatenate([a, b]))[1]
    assert abs(cost - whole) <= 1e-12 * abs(whole)
    assert (u[:, None] + v[None, :] <= C + 1e-9).all()
    assert not plan[a == 0].any() and not plan[:, b == 0].any()
    assert np.abs(plan.sum(axis=1) - a).max() <= ot.MARGINAL_TOL
    assert np.abs(plan.sum(axis=0) - b).max() <= ot.MARGINAL_TOL
    mu, nu = ProbMeasure(space, a), ProbMeasure(space, b)
    pair = ot.kantorovich_potentials(mu, nu)
    assert abs(pair.gap) <= 1e-9
    assert ot.check_slackness(space, pair, ot.w2(mu, nu)[1])["support_residual"] <= 1e-8


# -- transport on segments and cycles: the shortlist of the line coupling, priced ---


def _line_marginal(rng, n):
    """A Dirac, or Dirichlet weights with empty sites and some masses down to 1e-20."""
    if rng.uniform() < 0.15:
        return np.eye(n)[rng.integers(n)]
    keep = rng.uniform(size=n) < rng.uniform(0.3, 1.0)
    keep[rng.integers(n)] = True
    w = rng.dirichlet(np.full(n, rng.choice([0.2, 1.0]))) * keep
    tiny = rng.uniform(size=n) < 0.2
    w[tiny] = 10.0 ** -rng.uniform(8, 20, size=tiny.sum())
    return w / w.sum()


@st.composite
def _line_problems(draw):
    kind = draw(st.sampled_from(["segment", "cycle"]))
    space = make_model_space(kind, draw(st.integers(2 if kind == "segment" else 3, 40)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return space, _line_marginal(rng, space.n), _line_marginal(rng, space.n)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_line_problems())
def test_a_line_solve_certifies_itself_and_matches_the_full_lp(problem):
    space, a, b = problem
    C = space.metric ** 2
    scale = C.max()
    cost, plan, u, v = solvers.exact_ot(C, a, b, line=line_of(space))
    assert (u[:, None] + v[None, :] <= C + 1e-12 * scale).all()
    assert abs((plan * C).sum() - u @ a - v @ b) <= 1e-12 * scale
    assert np.abs(plan.sum(axis=1) - a).max() <= ot.MARGINAL_TOL
    assert np.abs(plan.sum(axis=0) - b).max() <= ot.MARGINAL_TOL
    full = solvers.exact_ot(C, a, b)[0]
    if min(a[a > 0].min(), b[b > 0].min()) >= 1e-8:
        assert abs(cost - full) <= 1e-12 * full
    else:  # the full LP itself is exact only to its primal tolerance, 1e-10 per marginal row
        assert abs(cost - full) <= ((a > 0).sum() + (b > 0).sum()) * 2e-10 * scale


def _theta_zero_cells(x, y, p, q, period):
    """The north-west corner cells in index order: on a cycle, the coupling cut at theta = 0."""
    i, j, mass = solvers._staircase(p, q)
    return i * q.size + j, mass


def _antitone_cells(x, y, p, q, period):
    """The north-west corner cells with the columns in reverse order: on a segment, the worst coupling."""
    i, j, mass = solvers._staircase(p, q[::-1])
    cells = i * q.size + q.size - 1 - j
    order = np.argsort(cells)
    return cells[order], mass[order]


@pytest.mark.parametrize("kind, n, cells", [("cycle", 16, _theta_zero_cells), ("cycle", 40, _theta_zero_cells),
                                            ("segment", 12, _antitone_cells)])
def test_a_wrong_shortlist_costs_rounds_not_accuracy(monkeypatch, linprog_calls, kind, n, cells):
    space = make_model_space(kind, n)
    C = space.metric ** 2
    if kind == "cycle":  # the short way from n - 1 to 0 crosses the cut at theta = 0
        a, b = np.zeros(n), np.zeros(n)
        a[[2, n - 1]], b[[0, 3]] = 0.5, 0.5
    else:
        a, b = np.full(n, 1.0 / n), np.linspace(1.0, 2.0, n) / np.linspace(1.0, 2.0, n).sum()
    monkeypatch.setattr(solvers, "_line_cells", cells)
    cost = solvers.exact_ot(C, a, b, line=line_of(space))[0]
    rounds = len(linprog_calls)
    assert abs(cost - solvers.exact_ot(C, a, b)[0]) <= 1e-12 * cost
    assert rounds > 1


def test_every_golden_speed_lp_is_one_lp_on_the_line_coupling(monkeypatch, linprog_calls):
    # the flows of configs/cycle64_rcd.json; each flow solves its speeds from its last pair
    monkeypatch.setattr(solvers, "_OT_LAST", (None, None))
    s = make_model_space("cycle", 64)
    form = dirichlet_form(s)
    mu0 = bump_measure(s, 16, 0.12)
    for flow in (lambda: heat.semigroup_flow(form, mu0.density(), np.linspace(0.0, 0.1, 11)),
                 lambda: heat.jko_flow(mu0, 0.004, 10, inner_tol=1e-6, form=form)):
        linprog_calls.clear()
        trace = flow()
        pairs = list(zip(trace.measures, trace.measures[1:]))[::-1]
        assert len(linprog_calls) == len(pairs)
        for columns, (a, b) in zip(linprog_calls, pairs):
            assert columns <= (a.weights > 0).sum() + (b.weights > 0).sum() - 1


def _solved_models(monkeypatch):
    """(model, simplex iterations) of each solvers.linprog call from here on."""
    real, runs = solvers.linprog, []

    def spy(model, *args, **kwargs):
        out = real(model, *args, **kwargs)
        runs.append((model, model.hot[0].getInfo().simplex_iteration_count))
        return out

    monkeypatch.setattr(solvers, "linprog", spy)
    return runs


def _tree_mass(space, a, b):
    """The north-west corner masses of the line coupling of a and b on their supports."""
    x, period = line_of(space)
    ia, ib = np.flatnonzero(a > 0), np.flatnonzero(b > 0)
    return solvers._line_cells(x[ia], x[ib], a[ia], b[ib], period)[1]


def test_a_golden_speed_lp_with_tree_masses_above_the_floor_runs_no_simplex_iteration(monkeypatch):
    monkeypatch.setattr(solvers, "_OT_LAST", (None, None))
    s = make_model_space("cycle", 64)
    form = dirichlet_form(s)
    mu0 = bump_measure(s, 16, 0.12)
    for flow in (lambda: heat.semigroup_flow(form, mu0.density(), np.linspace(0.0, 0.1, 11)),
                 lambda: heat.jko_flow(mu0, 0.004, 10, inner_tol=1e-6, form=form)):
        with pytest.MonkeyPatch.context() as mp:
            runs = _solved_models(mp)
            trace = flow()
        pairs = list(zip(trace.measures, trace.measures[1:]))[::-1]
        assert len(runs) == len(pairs)
        started = 0
        for (model, iterations), (a, b) in zip(runs, pairs):
            if _tree_mass(s, a.weights, b.weights).min() >= 1e-8:
                assert model.start is not None and iterations == 0
                started += 1
        assert started >= 1


def test_a_tree_below_the_mass_floor_runs_from_the_slack_basis(monkeypatch):
    # marginals 1.8e-11 apart: the full LP is exact only to its 1e-10 primal
    # tolerance and costs 0.0, the exact tree coupling 2.0e-12
    space = make_model_space("cycle", 3)
    C = space.metric ** 2
    a = np.full(3, 1.0 / 3.0)
    b = a + np.array([1.8e-11, 0.0, -1.8e-11])
    assert _tree_mass(space, a, b).min() < 1e-8
    monkeypatch.setattr(solvers, "_OT_LAST", (None, None))
    with pytest.MonkeyPatch.context() as mp:
        runs = _solved_models(mp)
        cost = solvers.exact_ot(C, a, b, line=line_of(space))[0]
    assert [model.start for model, _ in runs] == [None]
    full = solvers.exact_ot(C, a, b)[0]
    assert np.float64(cost).tobytes() == np.float64(full).tobytes()
    # with no floor the tree start is taken and returns the exact tree cost
    monkeypatch.setattr(solvers, "_TREE_MASS_FLOOR", 0.0)
    assert solvers.exact_ot(C, a, b, line=line_of(space))[0] != full


# -- transport without a line: a shortlist of cheap cells above the gate, priced ---


def _full_lp(C, a, b):
    """linprog on every cell of the n x n transport LP, zero marginals included."""
    return solvers.linprog(solvers.LPModel(*solvers._marginal_matrix(*C.shape)), C.ravel(), np.concatenate([a, b]))


def _assert_certified(C, a, b, out, full):
    cost, plan, u, v = out
    assert abs(cost - full) <= 1e-12 * abs(full)
    assert (u[:, None] + v[None, :] <= C + 1e-12 * C.max()).all()
    assert np.abs(plan.sum(axis=1) - a).max() <= ot.MARGINAL_TOL
    assert np.abs(plan.sum(axis=0) - b).max() <= ot.MARGINAL_TOL
    assert not plan[a == 0].any() and not plan[:, b == 0].any()


@st.composite
def _problems_above_the_gate(draw):
    """random_metric:n for n from 49 to 80, with Dirichlet marginals empty on
    up to n - 49 sites each, so both supports stay above the gate."""
    gate = solvers._SEED_GATE
    n = draw(st.integers(gate + 1, 80))
    C = make_model_space("random_metric", n, {"seed": draw(st.integers(0, 2**16))}).metric ** 2
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    marginals = []
    for _ in "ab":
        w = rng.dirichlet(np.ones(n))
        w[rng.choice(n, draw(st.integers(0, n - gate - 1)), replace=False)] = 0.0
        marginals.append(w / w.sum())
    return C, *marginals


@settings(max_examples=30, deadline=None, derandomize=True)
@given(_problems_above_the_gate())
def test_a_shortlist_above_the_gate_certifies_itself_and_matches_the_full_lp(problem):
    C, a, b = problem
    _assert_certified(C, a, b, solvers.exact_ot(C, a, b), _full_lp(C, a, b)[1])


def _staircase_only(C, mass):
    i, j, _ = solvers._staircase(mass[:C.shape[0]], mass[C.shape[0]:])
    return np.sort(i * C.shape[1] + j)


def test_a_staircase_seed_costs_rounds_not_accuracy(monkeypatch, linprog_calls):
    C, a, b = _ot_problem(51, n=64)
    monkeypatch.setattr(solvers, "_cheap_cells", _staircase_only)
    out = solvers.exact_ot(C, a, b)
    assert len(linprog_calls) >= 2 and linprog_calls[0] == 2 * 64 - 1
    _assert_certified(C, a, b, out, _full_lp(C, a, b)[1])


def test_at_the_gate_transport_is_the_full_lp_and_above_it_a_shortlist(linprog_calls):
    n = solvers._SEED_GATE
    C, a, b = _ot_problem(52, n=n)
    x, fun, y, _ = _full_lp(C, a, b)
    linprog_calls.clear()
    assert _bits(solvers.exact_ot(C, a, b)) == _bits((fun, x.reshape(n, n), y[:n], y[n:]))
    assert linprog_calls == [n * n]
    C, a, b = _ot_problem(52, n=n + 1)
    linprog_calls.clear()
    solvers.exact_ot(C, a, b)
    assert linprog_calls[0] < (n + 1) ** 2


def test_a_held_shortlist_that_cannot_carry_the_next_pair_takes_its_staircase(monkeypatch):
    # nearly all of the second pair's mass must cross the cell (0, j) of the
    # farthest point j from 0, which the first pair's shortlist lacks
    C, a, b = _ot_problem(53, n=64)
    j = int(np.argmax(C[0]))
    a2, b2 = np.full(64, 1e-3 / 63), np.full(64, 1e-3 / 63)
    a2[0], b2[j] = 1.0 - 1e-3, 1.0 - 1e-3
    mass = np.concatenate([a, b])
    seed = solvers._cheap_cells(C, mass)
    held = solvers._priced_shortlist(C, mass, seed, solvers._shortlist_model(64, 64, seed))[3]
    assert j not in held  # the flat index of the cell (0, j)
    real, failed = solvers.linprog, []

    def linprog(model, *args):
        try:
            return real(model, *args)
        except InfeasibleError:
            failed.append(model)
            raise

    monkeypatch.setattr(solvers, "linprog", linprog)
    costs = solvers.exact_ot_costs(C, [(a, b), (a2, b2)])
    assert len(failed) == 1  # the hot LP on the first pair's shortlist
    for cost, pair in zip(costs, [(a, b), (a2, b2)]):
        cold = solvers.exact_ot(C, *pair)[0]
        assert abs(cost - cold) <= 1e-12 * cold
    with pytest.raises(InfeasibleError, match="LP infeasible"):  # and unequal masses still are infeasible
        solvers.exact_ot_costs(C, [(a, b), (a2, 1.5 * b2)])


# -- LP models: CSC arrays built in NumPy, byte-equal to scipy.sparse's ------------


def _scipy_arrays(A_eq, A_ub=None, bounds=(0, None)):
    """(CSC matrix, lb, ub, n_ub) of an LP as scipy.optimize.linprog hands it
    to HiGHS: rows A_ub over A_eq, and bounds (lo, hi) pairs with None
    infinite."""
    A = (A_eq if A_ub is None else sparse.vstack([A_ub, A_eq])).tocsc()
    bnd = np.broadcast_to(np.asarray(bounds, dtype=float), (A.shape[1], 2))  # None -> nan -> infinite
    lb = np.nan_to_num(bnd[:, 0], nan=-np.inf, posinf=np.inf, neginf=-np.inf)
    ub = np.nan_to_num(bnd[:, 1], nan=np.inf, posinf=np.inf, neginf=-np.inf)
    return A, lb, ub, 0 if A_ub is None else A_ub.shape[0]


def _scipy_model(A_eq, A_ub=None, bounds=(0, None)):
    """The LPModel of scipy.sparse matrices and linprog-style bounds."""
    A, lb, ub, n_ub = _scipy_arrays(A_eq, A_ub, bounds)
    return solvers.LPModel(A.shape, A.indptr, A.indices, A.data, n_ub, lb, ub)


def _scipy_matrix(model):
    """The constraint matrix of an LPModel as a scipy.sparse CSC matrix."""
    return sparse.csc_matrix((model.data, model.indices, model.indptr), shape=model.shape)


def _scipy_cells_matrix(k0, k1, cells):
    """The marginal constraints of the transport LP on the flat cells, built
    with scipy.sparse as solvers._cells_matrix once built them."""
    rows = np.empty((cells.size, 2), dtype=np.int32)
    rows[:, 0], rows[:, 1] = cells // k1, k0 + cells % k1
    return sparse.csc_matrix((np.ones(rows.size), rows.ravel(), np.arange(0, rows.size + 1, 2, dtype=np.int32)),
                             shape=(k0 + k1, cells.size))


def _scipy_linked_pair_lp(C0, C1, scale=None):
    """_scipy_arrays of solvers._linked_pair_lp's LP, built with scipy.sparse
    as it once was: the marginal blocks by bmat, the budget rows as a sparse
    matrix of the dense rows, which drops their zeros."""
    s0, n = C0.shape
    s1 = C1.shape[0]
    M0, M1 = _scipy_cells_matrix(s0, n, np.arange(C0.size)), _scipy_cells_matrix(s1, n, np.arange(C1.size))
    A_eq = sparse.bmat([[M0[:s0], None], [None, M1[:s1]], [M0[s0:], -M1[s1:]]], format="csr")
    N = C0.size + C1.size
    slack = scale is None
    scale = (1.0, 1.0) if slack else scale
    rows = np.zeros((2, N + slack))
    rows[0, :C0.size] = C0.ravel() / scale[0]
    rows[1, C0.size:N] = C1.ravel() / scale[1]
    rows[:, N:] = 1.0
    A_eq = sparse.csr_matrix((A_eq.data, A_eq.indices, A_eq.indptr), shape=(A_eq.shape[0], N + slack))
    return _scipy_arrays(A_eq, sparse.csr_matrix(rows), [(0, None)] * N + [(None, None)] if slack else (0, None))


def _assert_same_arrays(model, reference):
    A, lb, ub, n_ub = reference
    assert model.shape == A.shape and model.n_ub == n_ub
    for got, want in ((model.indptr, A.indptr), (model.indices, A.indices), (model.data, A.data),
                      (model.lb, lb), (model.ub, ub)):
        assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


@st.composite
def _costs(draw, rows, cols):
    """A rows x cols cost matrix with some entries exactly 0."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.uniform(0.0, 10.0, (rows, cols)) * (rng.uniform(size=(rows, cols)) < draw(st.floats(0.0, 1.0)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_lp_models_are_the_arrays_scipy_sparse_builds(data):
    s0, s1, n = (data.draw(st.integers(1, 8)) for _ in range(3))
    C0, C1 = data.draw(_costs(s0, n)), data.draw(_costs(s1, n))
    _assert_same_arrays(solvers._linked_pair_lp(C0, C1), _scipy_linked_pair_lp(C0, C1))
    scale = np.array([data.draw(st.floats(1e-14, 1e3)) for _ in range(2)])
    _assert_same_arrays(solvers._linked_pair_lp(C0, C1, scale), _scipy_linked_pair_lp(C0, C1, scale))
    k0, k1 = s0 + s1, n
    cells = np.flatnonzero(data.draw(st.lists(st.booleans(), min_size=k0 * k1, max_size=k0 * k1).filter(any)))
    _assert_same_arrays(solvers.LPModel(*solvers._cells_matrix(k0, k1, cells)),
                        _scipy_arrays(_scipy_cells_matrix(k0, k1, cells)))
    _assert_same_arrays(solvers.LPModel(*solvers._marginal_matrix(k0, k1)),
                        _scipy_arrays(_scipy_cells_matrix(k0, k1, np.arange(k0 * k1))))


def test_solvers_imports_no_scipy_sparse():
    tree = ast.parse(pathlib.Path(solvers.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported.update([node.module] + [f"{node.module}.{alias.name}" for alias in node.names])
    assert imported and not any(name == "scipy.sparse" or name.startswith("scipy.sparse.") for name in imported)


# Run in a fresh process, with scipy.optimize imported before rcdlab when the
# argument is "scipy": which heavy scipy packages `import rcdlab.cli` left
# out, whether rcdlab and scipy share the compiled modules, and what scipy's
# own linprog and L-BFGS-B return afterwards, as one JSON line.
_IMPORT_SCRIPT = """
import json, sys
names = ("scipy.optimize._highspy._core", "scipy.optimize._lbfgsb")
if sys.argv[1] == "scipy":
    import scipy.optimize
before = [sys.modules.get(name) for name in names]
import rcdlab.cli
from rcdlab import dirichlet, solvers
left_out = [name for name in ("scipy.optimize", "scipy.sparse", "scipy.linalg") if name not in sys.modules]
import scipy.optimize
lp = scipy.optimize.linprog([1.0, 2.0], A_eq=[[1.0, 1.0]], b_eq=[1.0], method="highs")
qp = scipy.optimize.minimize(lambda x: ((x - 3.0) ** 2).sum(), [0.0], method="L-BFGS-B", bounds=[(0, 2)])
core, lbfgsb = after = [sys.modules[name] for name in names]
shared = [solvers._highs is core, dirichlet._setulb is lbfgsb.setulb]
print(json.dumps({"left_out": left_out, "lp": [lp.status] + lp.x.tolist(), "qp": [qp.status] + qp.x.tolist(),
                  "shared": shared + [b is None or b is a for b, a in zip(before, after)]}))
"""


@pytest.mark.parametrize("first", ["rcdlab", "scipy"])
def test_rcdlab_and_scipy_share_the_compiled_modules(first):
    src = str(pathlib.Path(solvers.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_SCRIPT, first], env=env, capture_output=True, text=True,
                          check=True, timeout=300)
    out = json.loads(proc.stdout)
    if first == "rcdlab":
        assert out["left_out"] == ["scipy.optimize", "scipy.sparse", "scipy.linalg"]
    assert out["shared"] == [True] * 4
    assert out["lp"] == [0, 1.0, 0.0] and out["qp"] == [0, 2.0]


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

    def recording(model, c, b_eq, b_ub=None):
        A, n = _scipy_matrix(model), model.n_ub
        lps.append((c, A[n:], b_eq, A[:n] if n else None, b_ub, np.column_stack([model.lb, model.ub])))
        return real_linprog(model, c, b_eq, b_ub)

    monkeypatch.setattr(solvers, "linprog", recording)
    monkeypatch.setattr(solvers, "_OT_LAST", (None, None))
    _LP_CASES[case]()
    assert lps
    for c, A_eq, b_eq, A_ub, b_ub, bounds in lps:
        x, fun, y_eq, y_ub = real_linprog(_scipy_model(A_eq, A_ub, bounds), c, b_eq, b_ub)
        ref = scipy_linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, bounds=bounds, method="highs",
                            options=solvers._LP_OPTIONS)
        assert ref.status == 0
        assert x.tobytes() == ref.x.tobytes()
        assert np.float64(fun).tobytes() == np.float64(ref.fun).tobytes()
        assert y_eq.tobytes() == ref.eqlin.marginals.tobytes()
        assert y_ub.tobytes() == ref.ineqlin.marginals.tobytes()


def test_unequal_masses_are_infeasible():
    C, a, b = _ot_problem(14)
    with pytest.raises(InfeasibleError):
        solvers.exact_ot(C, a, 1.5 * b)


def test_a_real_time_limit_is_a_solver_error_not_infeasibility(monkeypatch):
    monkeypatch.setattr(solvers._HIGHS_OPTIONS, "time_limit", 0.0)
    monkeypatch.setattr(solvers, "_OT_LAST", (None, None))
    with pytest.raises(SolverError, match="Time limit") as err:
        solvers.exact_ot(*_ot_problem(15))
    assert not isinstance(err.value, InfeasibleError)


def test_an_optimum_off_its_constraints_is_a_solver_error(monkeypatch):
    # scipy's post-solve check: at a negative tolerance every optimal x misses
    monkeypatch.setattr(solvers, "_RESULT_TOL", -1.0)
    monkeypatch.setattr(solvers, "_OT_LAST", (None, None))
    with pytest.raises(SolverError, match="misses its constraints") as err:
        solvers.exact_ot(*_ot_problem(17))
    assert not isinstance(err.value, InfeasibleError)


def test_a_model_highs_rejects_is_a_solver_error_not_infeasibility():
    # HiGHS refuses a matrix entry of 1e15 or more, though x = (1, 0) is feasible
    with pytest.raises(SolverError, match="rejected the LP model") as err:
        solvers.linprog(_scipy_model(sparse.csc_matrix([[1.0, 1e16]])), np.zeros(2), [1.0])
    assert not isinstance(err.value, InfeasibleError)


def test_an_unbounded_lp_is_a_solver_error_not_infeasibility():
    # min -x0 over x0 = x1 >= 0 has no minimum but plenty of feasible points
    with pytest.raises(SolverError, match="Unbounded") as err:
        solvers.linprog(_scipy_model(sparse.csc_matrix([[1.0, -1.0]])), np.array([-1.0, 0.0]), [0.0])
    assert not isinstance(err.value, InfeasibleError)


def test_budgets_far_below_the_costs_give_an_exact_oracle_lp():
    # budget rows divided by a budget of 1e-16 would hold entries up to 1.6e17,
    # which HiGHS rejects; nu = mu at cost 0 meets any budget >= 0
    C = (np.arange(5.0)[:, None] - np.arange(5.0)[None, :]) ** 2
    mu = np.full(5, 0.2)
    nu, value = solvers._budgeted_oracle(C, C, mu, mu, [1e-16, 1e-16], np.zeros(5))
    assert value == 0.0
    assert np.allclose(nu, mu, rtol=0, atol=1e-12)


def test_disagreeing_lp_shapes_are_a_value_error():
    # HiGHS would read past the arrays it is given
    C, a, b = _ot_problem(18)
    M = solvers.LPModel(*solvers._marginal_matrix(7, 7))
    with pytest.raises(ValueError, match="shapes"):
        solvers.linprog(M, C.ravel()[:-1], np.concatenate([a, b]))
    with pytest.raises(ValueError, match="shapes"):
        solvers.linprog(M, C.ravel(), a)


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


# -- entropy_capacity_min --------------------------------------------------------


@st.composite
def _probe_problem(draw):
    """Two to seven points in the plane, squared distances scaled by 1e-6 to 1e3,
    one to three anchors on random supports, budgets from 1e-20 to 10."""
    n, k = draw(st.integers(2, 7)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.uniform(size=(n, 2))
    C = ((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2) * 10.0 ** draw(st.floats(-6.0, 3.0))
    m = rng.uniform(0.1, 1.0, size=n)
    anchors = []
    for _ in range(k):
        keep = draw(st.lists(st.booleans(), min_size=n, max_size=n).filter(any))
        mu = rng.dirichlet(np.ones(sum(keep)))
        anchors.append((mu, C[np.array(keep)]))
    budgets = 10.0 ** np.array([draw(st.floats(-20.0, 1.0)) for _ in range(k)])
    return m / m.sum(), anchors, budgets


@settings(derandomize=True, deadline=None, max_examples=150)
@given(problem=_probe_problem())
def test_the_warm_probe_is_a_probability_vector_after_one_sweep_per_temperature(problem):
    m, anchors, budgets = problem
    tau, schedule = 0.5 * max(max(C.max() for _, C in anchors), 1e-9), []
    while tau > 5e-2:
        schedule.append(tau)
        tau /= 5.0
    schedule.append(5e-2)
    real, taus = solvers._lambda_update, []

    def spy(base, C, tau, budget, lam0):
        taus.append(tau)
        return real(base, C, tau, budget, lam0)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers, "_lambda_update", spy)
        nu = solvers.entropy_capacity_min(m, anchors, budgets)
    # an entry underflows to 0 where its exponent meets the floor; entropy_budget_min clamps its gradient
    assert np.isfinite(nu).all() and (nu >= 0).all()
    assert abs(nu.sum() - 1.0) <= 1e-12
    assert taus == [tau for tau in schedule for _ in anchors]


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


def _never_feasible(C0, C1, mu0, mu1, budget0, budget1, model=None):
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


# -- hot oracle and epsilon sequences: one LP model per call ----------------------


@st.composite
def _oracle_problem(draw):
    """Three to seven points in the plane, two anchors on random supports,
    budgets that a random measure meets, six to ten random objectives."""
    n = draw(st.integers(3, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.uniform(size=(n, 2))
    C = ((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2)
    mus = []
    for _ in range(2):
        keep = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n).filter(any)))
        mu = rng.dirichlet(np.ones(n)) * keep
        mus.append(mu / mu.sum())
    nu = rng.dirichlet(np.ones(n))
    budgets = np.array([solvers.exact_ot(C, mu, nu)[0] for mu in mus]) * rng.uniform(1.0, 1.5, 2) + 1e-9 * C.max()
    k = draw(st.integers(6, 10))
    objectives = rng.normal(size=(k, n)) * 10.0 ** rng.uniform(-2.0, 2.0, (k, 1))
    return C, mus, budgets, objectives


@settings(derandomize=True, deadline=None, max_examples=150)
@given(problem=_oracle_problem(), t=st.floats(0.05, 0.95))
def test_hot_oracle_and_epsilon_sequences_match_cold_solves(problem, t):
    C, (mu0, mu1), budgets, objectives = problem
    sel0, sel1 = mu0 > 0, mu1 > 0
    args = (C[sel0], C[sel1], mu0[sel0], mu1[sel1], budgets)
    real_linprog, lps = solvers.linprog, []

    def recording(model, c, b_eq, b_ub=None):
        out = real_linprog(model, c, b_eq, b_ub)
        A = _scipy_matrix(model)
        lps.append((A[model.n_ub:], b_eq, A[:model.n_ub], b_ub, out[0]))
        return out

    lp = solvers._oracle_lp(*args[:2], budgets)
    with mock.patch.object(solvers, "linprog", recording):
        hot = [solvers._budgeted_oracle(*args, c, lp)[1] for c in objectives]
    for c, value in zip(objectives, hot):
        cold = solvers._budgeted_oracle(*args, c)[1]
        assert abs(value - cold) <= 1e-9 * (1 + abs(cold))
    tol = solvers._RESULT_TOL
    for A_eq, b_eq, A_ub, b_ub, x in lps:  # every vertex meets its marginal and budget rows
        assert x.min() >= -tol
        assert np.abs(A_eq @ x - b_eq).max() <= tol
        assert (A_ub @ x - b_ub).max() <= tol

    W = float(np.sqrt(max(solvers.exact_ot(C, mu0, mu1)[0], 0.0)))
    eps = solvers.epsilon_min(C, mu0, mu1, t, W)
    real_interior_point = solvers.interior_point
    with mock.patch.object(solvers, "interior_point", lambda *args: real_interior_point(*args[:6])):
        cold = solvers.epsilon_min(C, mu0, mu1, t, W)  # every cut solved cold
    assert abs(eps - cold) <= 1e-12 * (1 + cold)


def test_each_loop_builds_its_lp_model_once(monkeypatch):
    # one linked-pair model per epsilon_min call and per entropy_budget_min
    # call, while interior_point and _budgeted_oracle still run once per LP
    calls = {}

    def count(name):
        real = getattr(solvers, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return real(*args, **kwargs)
        monkeypatch.setattr(solvers, name, counted)

    s = make_model_space("segment", 9)
    C = s.metric ** 2
    mu0, mu1 = gaussian_measure(s, 8.0).weights, bump_measure(s, 6, 0.2).weights
    W = float(np.sqrt(solvers.exact_ot(C, mu0, mu1)[0]))
    for name in ("_linked_pair_lp", "interior_point", "_budgeted_oracle", "linprog"):
        count(name)
    eps = solvers.epsilon_min(C, mu0, mu1, 0.5, W) + 0.05 * W
    assert calls["_linked_pair_lp"] == 1 and calls["interior_point"] == calls["linprog"] >= 2
    calls.clear()
    sel0, sel1 = mu0 > 0, mu1 > 0
    solvers.entropy_budget_min(s.ref_measure, [(mu0[sel0], C[sel0]), (mu1[sel1], C[sel1])],
                               [(0.5 * W + eps) ** 2] * 2, tol=1e-3)
    assert calls["_linked_pair_lp"] == 1 and calls["_budgeted_oracle"] == calls["linprog"] >= 3


# -- _hull_minimize: interior-point steps on the weight simplex ------------------


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


def _random_hull_problems():
    out = []
    for seed in range(30):
        V, m = _random_hull(seed)
        warm, _ = solvers._hull_minimize(V[:-1], m)
        out += [(V, m, None), (V, m, np.append(warm * (1 - 1e-3), 1e-3))]
    return out


def _recorded_hull_problems(run):
    """The (vertices, m, theta0) of every _hull_minimize call that run makes;
    the run's own calls keep their gap target."""
    real, problems = solvers._hull_minimize, []

    def recording(vertices, m, theta0=None, target=0.0):
        problems.append((np.array(vertices), m, None if theta0 is None else np.array(theta0)))
        return real(vertices, m, theta0, target)

    with mock.patch.object(solvers, "_hull_minimize", recording):
        run()
    return problems


def _three_point_runs():
    # criterion 4's battery, whose Frank-Wolfe runs hold two or three vertices
    from rcdlab.mmspace import FiniteMMSpace
    from test_acceptance import _three_point_battery

    for metric, m, w0, w1, t in _three_point_battery():
        space = FiniteMMSpace((0, 1, 2), metric, m)
        mu0, mu1 = ProbMeasure(space, w0), ProbMeasure(space, w1)
        eps = max(geodesy.epsilon_min(mu0, mu1, t), 0.0) + 0.05 * ot.w2_distance(mu0, mu1)
        geodesy.intermediate_entropy_min(mu0, mu1, t, eps, tol=2e-4)


def _segment_interval():
    # the midpoint of criterion 3's segment:17 pair
    s = make_model_space("segment", 17)
    mu0, mu1 = gaussian_measure(s, 8.0), bump_measure(s, 12, 0.13)
    eps = geodesy.epsilon_min(mu0, mu1, 0.5) + 0.05 * ot.w2_distance(mu0, mu1)
    geodesy.intermediate_entropy_min(mu0, mu1, 0.5, eps, tol=5e-3)


_HULL_CASES = {
    "random": _random_hull_problems,
    "one-and-two-vertex": lambda: [(V[:k], m, None) for V, m in map(_random_hull, (3, 4)) for k in (1, 2)],
    "three-point-runs": lambda: _recorded_hull_problems(_three_point_runs),
    "segment-17-interval": lambda: _recorded_hull_problems(_segment_interval),
}


@pytest.mark.parametrize("case", sorted(_HULL_CASES))
def test_hull_minimize_closes_its_frank_wolfe_gap(case):
    # x.g - min g bounds the excess entropy of the weights x; on the hull
    # problems rcdlab builds, a call without a gap target stops with it at
    # rounding
    problems = _HULL_CASES[case]()
    assert problems
    for V, m, theta0 in problems:
        theta, ent = solvers._hull_minimize(V, m, theta0)
        charged = V.max(axis=0) > 0
        W = np.maximum(V[:, charged], 0.0)
        g = W @ (np.log(theta @ W / m[charged]) + 1.0)
        assert theta @ g - g.min() <= 1e-12
        assert ent == relative_entropy(theta @ V, m)


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


# -- prox_entropy_step: scaled sweeps against the log-domain loop -----------------


def _log_domain_symmetric_potential(mu, C, m, eps):
    """symmetric_potential as a log-domain loop: every step is a
    log-sum-exp over the whole matrix."""
    log_m = np.log(m)
    log_mu = np.log(np.maximum(mu, 1e-300))
    p = np.zeros(len(mu))
    for _ in range(solvers._POTENTIAL_CAP):
        lse = solvers.logsumexp((p[None, :] - C) / eps + log_m[None, :] - 1.0, axis=1)
        p_new = 0.5 * (p + eps * (log_mu - log_m) - eps * lse)
        if np.abs(p_new - p).max() < solvers._POTENTIAL_TOL * eps:
            return p_new
        p = p_new
    return p


def _log_domain_prox_step(mu, C, m, tau, taub, relax=True):
    """prox_entropy_step with every sweep in the log domain, and the same
    certificate: alpha and w over-relaxed by Young's omega from the step
    ratio at sweep solvers._YOUNG_SWEEP or, without relax, the plain
    alternating sweeps. Returns (nu, gap, sweeps)."""
    n = len(m)
    lam = 1.0 / (2.0 * tau)
    eps = taub / lam
    sel = mu > 0
    Cr = C[sel]
    log_m = np.log(m)
    log_mu = np.log(mu[sel])
    dbf = np.zeros(n)
    dbf[sel] = _log_domain_symmetric_potential(mu[sel], C[np.ix_(sel, sel)], m[sel], eps) / (2.0 * tau)
    w, alpha, omega, steps = np.zeros(n), np.zeros(len(log_mu)), 1.0, []
    for sweeps in range(1, solvers._PROX_SWEEP_CAP + 1):
        lse = solvers.logsumexp((w[None, :] - lam * Cr) / taub + log_m[None, :], axis=1)
        alpha = alpha + omega * (taub * (log_mu - lse + 1.0) - alpha)
        logT = solvers.logsumexp((alpha[:, None] - lam * Cr) / taub - 1.0, axis=0)
        w_new = w + omega * (taub * (-1.0 + dbf - logT) / (1.0 + taub) - w)
        steps.append(np.abs(w_new - w).max())
        w = w_new
        if relax and sweeps == solvers._YOUNG_SWEEP and steps[-1] < steps[-2]:
            omega = 2.0 / (1.0 + np.sqrt(1.0 - steps[-1] / steps[-2]))
        if steps[-1] < solvers._PROX_SWEEP_TOL * max(taub, 1e-8):
            break
    floor = solvers._EXP_FLOOR
    nu_raw = m * np.exp(np.maximum(-1.0 - w + dbf, floor))
    nu = nu_raw / nu_raw.sum()
    loggam = (alpha[:, None] + w[None, :]) / taub - lam * Cr / taub - 1.0 + log_m[None, :]
    gam_mass = float(np.exp(np.maximum(loggam - loggam.max(), floor)).sum()) * np.exp(loggam.max())
    dual = float(alpha @ mu[sel]) - taub * gam_mass - float(nu_raw.sum())
    gam = solvers._round_coupling(np.exp(np.maximum(loggam, floor)), mu[sel], nu)
    primal = (relative_entropy(nu, m) - float(dbf @ nu) + lam * float((gam * Cr).sum())
              + taub * relative_entropy(gam, m))
    return nu, float(primal - dual), sweeps


@st.composite
def _prox_problem(draw):
    """A space (random_metric:2-20, cycle or segment), mu with empty sites,
    tau in [1e-3, 0.1] and taub in {0.05, 0.25, 1}."""
    kind = draw(st.sampled_from(["random_metric", "cycle", "segment"]))
    n = draw(st.integers(3 if kind == "cycle" else 2, 20))
    space = make_model_space(kind, n, {"seed": draw(st.integers(1, 1000))} if kind == "random_metric" else None)
    weights = np.array(draw(st.lists(st.one_of(st.just(0.0), st.floats(0.01, 1.0)), min_size=n, max_size=n)))
    if not weights.any():
        weights[draw(st.integers(0, n - 1))] = 1.0
    tau, taub = draw(st.floats(1e-3, 0.1)), draw(st.sampled_from([0.05, 0.25, 1.0]))
    return space.metric ** 2, space.ref_measure, weights / weights.sum(), tau, taub


def _spike_on_cycle64():
    """mu = (1, 1e-200, ..., 1e-200), normalized, on cycle:64 at eps = 1e-2:
    symmetric_potential's scaled steps leave their range and absorb twice."""
    space = make_model_space("cycle", 64)
    mu = np.full(64, 1e-200)
    mu[0] = 1.0
    return space.metric ** 2, space.ref_measure, mu / mu.sum(), 0.02, 0.25


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_prox_problem())
@example(_spike_on_cycle64())
def test_scaled_sweeps_are_the_log_domain_iteration(problem):
    C, m, mu, tau, taub = problem
    nu, gap, sweeps = solvers.prox_entropy_step(mu, C, m, tau, taub)
    nu_log, gap_log, sweeps_log = _log_domain_prox_step(mu, C, m, tau, taub)
    assert np.abs(nu - nu_log).max() <= 1e-12
    # beyond this range the log-domain stop can rest on the rounding of w
    if C.max() / (2 * tau * taub) <= 1e3:
        assert abs(sweeps - sweeps_log) <= 2
        assert gap <= gap_log + 1e-12
    sel, eps = mu > 0, 2 * tau * taub
    args = (mu[sel], C[np.ix_(sel, sel)], m[sel], eps)
    assert np.abs(solvers.symmetric_potential(*args) - _log_domain_symmetric_potential(*args)).max() <= 1e-12 * eps


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_prox_problem())
def test_relaxed_sweeps_reach_the_plain_sweeps_nu_with_a_certified_gap(problem):
    C, m, mu, tau, taub = problem
    nu, gap, _ = solvers.prox_entropy_step(mu, C, m, tau, taub)
    assert np.abs(nu - _log_domain_prox_step(mu, C, m, tau, taub, relax=False)[0]).max() <= 1e-11
    assert gap <= 1e-8  # jko_flow's default inner_tol


def test_golden_jko_steps_take_under_six_tenths_of_the_plain_sweeps():
    # the ten steps of the jko task of configs/cycle64_rcd.json; the plain
    # sweeps take 1132 of them
    s = make_model_space("cycle", 64)
    C, m = s.metric ** 2, s.ref_measure
    counts = []
    for _ in range(2):
        w, relaxed, plain = bump_measure(s, 16, 0.12).weights, 0, 0
        for _ in range(10):
            plain += _log_domain_prox_step(w, C, m, 0.004, 0.25, relax=False)[2]
            w, gap, sweeps = solvers.prox_entropy_step(w, C, m, 0.004, 0.25)
            assert gap <= 1e-6  # the task's inner_tol
            relaxed += sweeps
        counts.append((relaxed, plain))
    assert counts[0] == counts[1]
    assert counts[0][0] <= 0.6 * counts[0][1]


def _extreme_instance(kind, n, seed, tiny):
    """Mass on two random points of the space and, if tiny, 1e-300 on a third."""
    space = make_model_space(kind, n, {"seed": seed} if kind == "random_metric" else None)
    rng = np.random.default_rng(seed)
    mu = np.zeros(n)
    sites = rng.choice(n, size=3, replace=False)
    mu[sites[:2]] = rng.dirichlet(np.ones(2))
    if tiny:
        mu[sites[2]] = 1e-300
    return space.metric ** 2, space.ref_measure, mu


# lambda max C / taub from 1.2e4 to 3.8e4. With G clipped at exp(_EXP_FLOOR)
# instead of left to underflow, the first six run to the sweep cap: on the
# columns whose true entries underflow, each scaled sweep moves w far off and
# the next absorbing sweep moves it back
@pytest.mark.parametrize("kind, n, seed, tiny, tau, taub", [
    ("random_metric", 9, 1, True, 2e-4, 0.25),
    ("random_metric", 12, 4, True, 2e-4, 0.25),
    ("random_metric", 17, 2, False, 2e-4, 0.25),
    ("random_metric", 5, 1, False, 2e-4, 0.25),
    ("segment", 17, 0, False, 1e-4, 0.25),
    ("cycle", 16, 0, False, 4e-5, 0.25),
    ("random_metric", 17, 3, True, 1e-3, 0.05),
])
def test_extreme_ranges_stay_the_log_domain_iteration(kind, n, seed, tiny, tau, taub):
    C, m, mu = _extreme_instance(kind, n, seed, tiny)
    assert C.max() / (2 * tau * taub) >= 1e4
    nu, _, sweeps = solvers.prox_entropy_step(mu, C, m, tau, taub)
    nu_log, _, sweeps_log = _log_domain_prox_step(mu, C, m, tau, taub)
    assert np.isfinite(nu).all()
    assert abs(sweeps - sweeps_log) <= 2
    assert sweeps <= solvers._PROX_SWEEP_CAP // 10
    assert np.abs(nu - nu_log).max() <= 1e-12
