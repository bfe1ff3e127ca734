import os
import subprocess
import sys
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rcdlab import cli, geodesy, ot, solvers
from rcdlab.geodesy import (
    GeodesyError,
    build_good_geodesic,
    cd_convexity_check,
    cd_residual,
    epsilon_min,
    intermediate_entropy_min,
    synthetic_entropy_profile,
)
from rcdlab.measures import ProbMeasure, bump_measure, dirac, gaussian_measure, relative_entropy, uniform_measure
from rcdlab.mmspace import make_model_space
from rcdlab.ot import w2
from rcdlab.solvers import InfeasibleError, SolverError


def test_endpoints_returned_exactly():
    s = make_model_space("segment", 7)
    mu0 = gaussian_measure(s, 4.0)
    mu1 = bump_measure(s, 5, 0.2)
    for t, ref in ((0.0, mu0), (1.0, mu1)):
        nu, cert = intermediate_entropy_min(mu0, mu1, t, 0.0)
        assert np.allclose(nu.weights, ref.weights)
        assert cert.gap == pytest.approx(0.0, abs=1e-12)


def test_dirac_midpoint_grid_search_oracle():
    # segment(3): diracs at the ends, t = 1/2, the only intermediate is the middle
    s = make_model_space("segment", 3)
    mu0, mu1 = dirac(s, 0), dirac(s, 2)
    nu, cert = intermediate_entropy_min(mu0, mu1, 0.5, 0.0, tol=1e-8)
    assert nu.weights[1] == pytest.approx(1.0, abs=1e-9)
    # brute grid over the 2-simplex at 1e-3 confirms the minimizer
    best = None
    W = w2(mu0, mu1)[0]
    d0 = s.metric[0] ** 2
    d2 = s.metric[2] ** 2
    grid = np.arange(0, 1.0001, 1e-2)
    for a in grid:
        for b in grid:
            if a + b > 1:
                continue
            wts = np.array([a, 1 - a - b, b])
            c0 = float(wts @ d0)
            c1 = float(wts @ d2)
            if c0 <= (0.5 * W) ** 2 + 1e-12 and c1 <= (0.5 * W) ** 2 + 1e-12:
                e = relative_entropy(wts, s.ref_measure)
                if best is None or e < best[0]:
                    best = (e, wts)
    assert best is not None
    assert cert.entropy <= best[0] + 2e-3


def test_infeasible_epsilon_raises_with_minimal_budget():
    s = make_model_space("segment", 4)  # even interval count: no exact dirac midpoint
    mu0, mu1 = dirac(s, 0), dirac(s, 3)
    with pytest.raises(InfeasibleError) as err:
        intermediate_entropy_min(mu0, mu1, 0.5, 0.0)
    need = epsilon_min(mu0, mu1, 0.5)
    assert err.value.min_budget == pytest.approx(need, abs=1e-6)
    assert need > 0


def test_epsilon_min_zero_on_lattice_compatible():
    s = make_model_space("segment", 9)
    assert epsilon_min(dirac(s, 0), dirac(s, 8), 0.5) == 0.0


def test_certificate_contract_randomized(monkeypatch):
    # the bound is also re-derived from the oracle LPs' objectives c and
    # values: it is at most the largest D(c) = min <c, .> - sum_y m_y e^{c_y - 1}
    real, seen = solvers._budgeted_oracle, []

    def recording(*args):
        out = real(*args)
        seen.append((args[5], out[1]))
        return out

    monkeypatch.setattr(solvers, "_budgeted_oracle", recording)
    rng = np.random.default_rng(8)
    s = make_model_space("segment", 11)
    for _ in range(4):
        mu0 = ProbMeasure(s, rng.dirichlet(np.ones(11) * 2))
        mu1 = ProbMeasure(s, rng.dirichlet(np.ones(11) * 2))
        eps = max(epsilon_min(mu0, mu1, 0.5), 0.0) + 2e-3
        seen.clear()
        nu, cert = intermediate_entropy_min(mu0, mu1, 0.5, eps, tol=1e-3)
        assert cert.dual_bound <= cert.entropy + 1e-12
        assert cert.dual_bound <= max(value - float(s.ref_measure @ np.exp(c - 1.0)) for c, value in seen)
        assert 0.0 <= cert.gap <= 1e-3
        W = w2(mu0, mu1)[0]
        assert np.sqrt(cert.transport_costs[0]) <= 0.5 * W + eps + 1e-8
        assert np.sqrt(cert.transport_costs[1]) <= 0.5 * W + eps + 1e-8


def test_certificate_describes_the_returned_measure():
    # entropy, transport costs and eps_used are those of the measure returned,
    # after snapping, on both the Dirac-pair and the Frank-Wolfe path
    rng = np.random.default_rng(8)
    s9, s11 = make_model_space("segment", 9), make_model_space("segment", 11)
    mu0, mu1 = ProbMeasure(s11, rng.dirichlet(np.ones(11) * 2)), ProbMeasure(s11, rng.dirichlet(np.ones(11) * 2))
    cases = [(dirac(s9, 0), dirac(s9, 8), 0.5, 0.0, "dirac_newton"),
             (mu0, mu1, 0.5, epsilon_min(mu0, mu1, 0.5) + 2e-3, "budgeted_fw")]
    for a, b, t, eps, method in cases:
        nu, cert = intermediate_entropy_min(a, b, t, eps, tol=1e-3)
        assert cert.method == method
        assert abs(cert.entropy - relative_entropy(nu, a.space.ref_measure)) <= 1e-15
        assert cert.gap == cert.entropy - cert.dual_bound
        costs = (w2(a, nu)[0] ** 2, w2(nu, b)[0] ** 2)
        assert cert.transport_costs == pytest.approx(costs, rel=1e-12, abs=1e-15)
        W = w2(a, b)[0]
        slack = max(np.sqrt(costs[0]) - t * W, np.sqrt(costs[1]) - (1 - t) * W, 0.0)
        assert cert.eps_used == pytest.approx(slack, abs=1e-12)
        assert cert.eps_used <= eps + 1e-8


def test_midpoint_certificates_have_nonnegative_gaps():
    # both dual bounds are taken less their rounding allowance, and the
    # Frank-Wolfe bound never passes the entropy of its hull point, so no
    # certificate gap is negative: not on the lattice Dirac midpoints, where
    # bound and entropy agree to rounding, and not where HiGHS returns an
    # oracle vertex only optimal to its tolerance (criterion 4's battery)
    from rcdlab.mmspace import FiniteMMSpace
    from test_acceptance import _three_point_battery

    s9, s17 = make_model_space("segment", 9), make_model_space("segment", 17)
    builds = [build_good_geodesic(dirac(s9, 0), dirac(s9, 8), 3, epsilon=0.0),
              build_good_geodesic(gaussian_measure(s17, 8.0), bump_measure(s17, 12, 0.13), 4,
                                  epsilon="auto", K=0.0, tol=5e-3)]
    certs = [c for tr in builds for c in tr.certificates if c is not None]
    for metric, m, w0, w1, t in _three_point_battery():
        space = FiniteMMSpace((0, 1, 2), metric, m)
        mu0, mu1 = ProbMeasure(space, w0), ProbMeasure(space, w1)
        eps = max(epsilon_min(mu0, mu1, t), 0.0) + 0.05 * w2(mu0, mu1)[0]
        certs.append(intermediate_entropy_min(mu0, mu1, t, eps, tol=2e-4)[1])
    assert len(certs) == 7 + 15 + 20
    assert min(c.gap for c in certs) >= 0.0


def test_intermediate_set_convexity_midpoints():
    rng = np.random.default_rng(9)
    s = make_model_space("segment", 9)
    mu0 = ProbMeasure(s, rng.dirichlet(np.ones(9)))
    mu1 = ProbMeasure(s, rng.dirichlet(np.ones(9)))
    W = w2(mu0, mu1)[0]
    t, eps = 0.4, 0.05
    members = []
    for seed in range(6):
        r2 = np.random.default_rng(seed)
        lam = r2.uniform(0.0, 1.0)
        wts = (1 - lam) * ((1 - t) * mu0.weights + t * mu1.weights) + lam * mu0.weights
        cand = ProbMeasure(s, wts / wts.sum())
        if w2(mu0, cand)[0] <= t * W + eps and w2(cand, mu1)[0] <= (1 - t) * W + eps:
            members.append(cand)
    assert len(members) >= 2
    for a in members:
        for b in members:
            mid = ProbMeasure(s, 0.5 * (a.weights + b.weights))
            assert w2(mu0, mid)[0] <= t * W + eps + 1e-9
            assert w2(mid, mu1)[0] <= (1 - t) * W + eps + 1e-9


def test_exact_rational_composition_to_depth_six():
    # synthetic entropies meeting the convexity inequality with equality
    K = Fraction(-3, 2)
    W = Fraction(1)
    E0, E1 = Fraction(2), Fraction(1, 3)

    def ent(t):
        return synthetic_entropy_profile(t, E0, E1, K, W)

    times = [Fraction(k, 2**6) for k in range(2**6 + 1)]
    # every local (construction or grid) residual is exactly zero ...
    for i in range(1, len(times) - 1):
        s, t, r = times[i - 1], times[i], times[i + 1]
        w2sq = ((r - s) * W) ** 2
        res = cd_residual(s, t, r, ent(s), ent(t), ent(r), w2sq, K)
        assert res == 0
    # ... and so is every composed global residual
    for t in times[1:-1]:
        res = cd_residual(Fraction(0), t, Fraction(1), E0, ent(t), E1, W * W, K)
        assert res == 0


def test_constant_trace_and_depth_zero():
    s = make_model_space("segment", 9)
    mu = gaussian_measure(s, 4.0)
    tr = build_good_geodesic(mu, mu, 2, epsilon=0.0)
    assert max(tr.entropies) - min(tr.entropies) < 1e-12
    tr0 = build_good_geodesic(dirac(s, 0), dirac(s, 8), 0, epsilon=0.0)
    assert tr0.times == (0.0, 1.0)


def test_dirac_geodesic_exact_on_segment():
    s = make_model_space("segment", 9)
    mu0, mu1 = dirac(s, 0), dirac(s, 8)
    tr = build_good_geodesic(mu0, mu1, 3, epsilon=0.0)
    W = w2(mu0, mu1)[0]
    for t, wv, mu in zip(tr.times, tr.w2_from_start, tr.measures):
        assert abs(wv - t * W) <= 1e-8
        assert len(mu.support()) == 1
    rep = cd_convexity_check(tr, 0.0)
    assert rep["worst"] <= 1e-10
    assert max(tr.sup_density) <= 9.0 + 1e-9


def test_good_geodesic_gaussian_bump_segment():
    s = make_model_space("segment", 17)
    mu0 = gaussian_measure(s, 8.0)
    mu1 = bump_measure(s, 12, 0.15)
    tr = build_good_geodesic(mu0, mu1, 3, epsilon="auto", K=0.0, tol=2e-3)
    rep = cd_convexity_check(tr, 0.0)
    assert rep["worst"] <= 1e-3
    # density bound of the construction on [0, t0]
    t0 = tr.meta["t0"]
    bound = tr.meta["density_bound"]
    sup = max(d for t, d in zip(tr.times, tr.sup_density) if t <= t0)
    assert sup <= bound
    W = w2(mu0, mu1)[0]
    for t, wv in zip(tr.times, tr.w2_from_start):
        assert t * W - 2 * tr.epsilon_used - 1e-9 <= wv <= t * W + 2 * tr.epsilon_used + 1e-9


# a tag with keys missing, and a well-formed tag that uniform weights do not
# match; with K = -1 the second gave times 0, 2.5e-10, 5e-10, 0.50000000025, 1
@pytest.mark.parametrize("tag", [{}, {"c2": 1e-9, "x0": 0}])
def test_a_forged_gaussian_tag_is_refused(tag, tmp_path, capsys):
    s = make_model_space("segment", 9)
    forged = ProbMeasure(s, np.full(9, 1 / 9), {"gaussian": tag})
    with pytest.raises(GeodesyError, match="gaussian tag"):
        build_good_geodesic(forged, dirac(s, 4), 1, K=-1.0)
    # a config cannot carry the tag: a weights spec has no meta
    mu0 = {"weights": [1 / 9] * 9, "meta": {"gaussian": tag}}
    task = {"op": "geodesic", "mu0": mu0, "mu1": {"kind": "dirac", "at": 4}, "depth": 1, "K": -1.0}
    assert cli.run({"space": {"kind": "segment", "n": 9}, "tasks": [task], "output_dir": str(tmp_path)}) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ConfigError: ") and "'meta'" in err and "Traceback" not in err


def test_a_genuine_gaussian_tag_keeps_its_profile():
    # criterion 3's segment:17 pair: the sup-density the builder derives from
    # the weights is the one the tag used to carry, to the bit
    s = make_model_space("segment", 17)
    mu0 = gaussian_measure(s, 8.0)
    tr = build_good_geodesic(mu0, bump_measure(s, 12, 0.13), 0)
    assert tr.meta == {"t0": 0.5, "density_bound": 10.472737286321308, "D": 0.375, "c1": 1.7535945208487427,
                       "c2": 8.0, "K": 0.0}
    # t0 comes first for every mu1, since every finite measure has bounded support
    tr = build_good_geodesic(mu0, uniform_measure(s), 0, K=-20.0)
    assert tr.times == (0.0, 0.2, 1.0) and tr.construction == {0.2: (0.0, 1.0)}


@pytest.mark.parametrize("endpoints", ["gaussian_bump_17", "dirac_9"])
def test_the_convexity_check_reads_its_w2_values_from_the_trace(monkeypatch, endpoints):
    if endpoints == "gaussian_bump_17":
        s = make_model_space("segment", 17)
        tr = build_good_geodesic(gaussian_measure(s, 8.0), bump_measure(s, 12, 0.13), 3,
                                 epsilon="auto", K=0.0, tol=5e-3)
    else:
        s = make_model_space("segment", 9)
        tr = build_good_geodesic(dirac(s, 0), dirac(s, 8), 3, epsilon=0.0)
    real_linprog, calls = solvers.linprog, []
    monkeypatch.setattr(solvers, "linprog", lambda *a: calls.append("linprog") or real_linprog(*a))
    reports = {K: cd_convexity_check(tr, K) for K in (0.0, -1.0, 2.0)}
    assert calls == []
    for K in (float("nan"), float("inf"), float("-inf")):  # a NaN worst would pass every cd_tol
        with pytest.raises(GeodesyError, match="not finite: K"):
            cd_convexity_check(tr, K)
    monkeypatch.undo()
    # the reference: every W2 re-solved
    node = dict(zip(tr.times, tr.measures))
    ent = dict(zip(tr.times, tr.entropies))
    t0, t1 = tr.times[0], tr.times[-1]
    for K, rep in reports.items():
        local = [float(cd_residual(s_, t, r, ent[s_], ent[t], ent[r], ot.w2_distance(node[s_], node[r]) ** 2, K))
                 for t, (s_, r) in sorted(tr.construction.items())]
        glob = [float(cd_residual(t0, t, t1, ent[t0], ent[t], ent[t1], ot.w2_distance(node[t0], node[t1]) ** 2, K))
                for t in tr.times[1:-1]]
        assert rep["local_residuals"] == local
        assert rep["global_residuals"] == glob
        assert rep["worst"] == max(local + glob)


@pytest.mark.parametrize("endpoints", ["gaussian_bump_17", "dirac_9"])
def test_each_w2_of_a_build_is_the_line_solvers_and_is_solved_once(monkeypatch, endpoints):
    # criterion 3's segment:17 pair at depth 2, and the Dirac geodesic of the
    # geodesic benchmark: segment:9, depth 3, epsilon 0
    if endpoints == "gaussian_bump_17":
        s = make_model_space("segment", 17)
        mu0, mu1, depth, epsilon = gaussian_measure(s, 8.0), bump_measure(s, 12, 0.13), 2, "auto"
    else:
        s = make_model_space("segment", 9)
        mu0, mu1, depth, epsilon = dirac(s, 0), dirac(s, 8), 3, 0.0
    pairs = []
    for module in (geodesy, ot):
        def recording(C, a, b, line=None, real=module.exact_ot):
            pairs.append(tuple(sorted((a.tobytes(), b.tobytes()))))
            return real(C, a, b, line)

        monkeypatch.setattr(module, "exact_ot", recording)
    tr = build_good_geodesic(mu0, mu1, depth, epsilon=epsilon, K=0.0, tol=5e-3)
    monkeypatch.undo()
    assert len(pairs) == len(set(pairs)) > 0
    node = dict(zip(tr.times, tr.measures))
    cert = dict(zip(tr.times, tr.certificates))
    assert len(tr.construction) == 2 ** depth - 1
    for t, (s_, r) in tr.construction.items():
        assert cert[t].spec.W == ot.w2_distance(node[s_], node[r])
    assert list(tr.w2_from_start) == [ot.w2_distance(mu0, mu) for mu in tr.measures]
    if epsilon == 0.0:  # a fixed epsilon is each interval's
        assert [c and c.spec.epsilon for c in tr.certificates] == [None] + [0.0] * 7 + [None]


def test_the_warm_probe_saves_oracle_lps(monkeypatch):
    # criterion 3's segment:17 build, once as it is and once with the probe failing
    s = make_model_space("segment", 17)
    mu0 = gaussian_measure(s, 8.0)
    mu1 = bump_measure(s, 12, 0.13)
    real, calls = solvers._budgeted_oracle, []

    def spy(*args):
        calls.append(1)
        return real(*args)

    def no_probe(*args):
        raise SolverError("no probe")

    monkeypatch.setattr(solvers, "_budgeted_oracle", spy)
    counts = []
    for probe in (geodesy.entropy_capacity_min, no_probe):
        monkeypatch.setattr(geodesy, "entropy_capacity_min", probe)
        calls.clear()
        build_good_geodesic(mu0, mu1, 4, epsilon="auto", K=0.0, tol=5e-3)
        counts.append(len(calls))
    assert counts[0] < counts[1]


def test_primal_hot_oracle_runs_save_pivots(monkeypatch):
    # criterion 3's segment:17 pair at depth 2, once as it is and once with
    # every hot run on the dual simplex; summed over the hot oracle runs
    s = make_model_space("segment", 17)
    mu0, mu1 = gaussian_measure(s, 8.0), bump_measure(s, 12, 0.13)
    real, pivots = solvers._budgeted_oracle, []

    def spy(*args):
        model = args[-1][0]  # entropy_budget_min passes its oracle's (LPModel, b_ub)
        hot = model.hot is not None
        out = real(*args)
        if hot:
            pivots[-1] += model.hot[0].getInfo().simplex_iteration_count
        return out

    monkeypatch.setattr(solvers, "_budgeted_oracle", spy)
    for primal in (solvers._PRIMAL, solvers._DUAL):
        monkeypatch.setattr(solvers, "_PRIMAL", primal)
        pivots.append(0)
        build_good_geodesic(mu0, mu1, 2, epsilon="auto", K=0.0, tol=5e-3)
    assert 0 < pivots[0] < pivots[1]


def _hull_steps(monkeypatch, share):
    # KKT inverses of criterion 3's segment:17 build at depth 2; only
    # _hull_minimize inverts a matrix
    s = make_model_space("segment", 17)
    mu0, mu1 = gaussian_measure(s, 8.0), bump_measure(s, 12, 0.13)
    real, steps = np.linalg.inv, []

    def counting(a):
        steps.append(1)
        return real(a)

    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "inv", counting)
        patch.setattr(solvers, "_HULL_SHARE", share)
        trace = build_good_geodesic(mu0, mu1, 2, epsilon="auto", K=0.0, tol=5e-3)
    assert max(c.gap for c in trace.certificates if c is not None) <= 5e-3
    return len(steps)


def test_hull_steps_stop_at_their_share_of_the_tolerance(monkeypatch):
    # as shipped, and with every hull step run to rounding
    shipped = _hull_steps(monkeypatch, solvers._HULL_SHARE)
    assert 0 < shipped <= 0.6 * _hull_steps(monkeypatch, 0.0)
    assert _hull_steps(monkeypatch, solvers._HULL_SHARE) == shipped


def _early_and_exact_hull_steps_agree(metric, m, w0, w1, t, tol=2e-4):
    # criterion 4's midpoint as shipped and with every hull step run to rounding
    from rcdlab.mmspace import FiniteMMSpace

    space = FiniteMMSpace((0, 1, 2), metric, m)
    mu0, mu1 = ProbMeasure(space, w0), ProbMeasure(space, w1)
    eps = max(epsilon_min(mu0, mu1, t), 0.0) + 0.05 * w2(mu0, mu1)[0]
    cert = intermediate_entropy_min(mu0, mu1, t, eps, tol=tol)[1]
    with mock.patch.object(solvers, "_HULL_SHARE", 0.0):
        exact = intermediate_entropy_min(mu0, mu1, t, eps, tol=tol)[1]
    assert cert.gap <= tol
    assert cert.dual_bound <= cert.entropy
    assert abs(cert.entropy - exact.entropy) <= tol


def test_stopping_hull_steps_early_keeps_the_battery_certified():
    from test_acceptance import _three_point_battery

    for instance in _three_point_battery():
        _early_and_exact_hull_steps_agree(*instance)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.sampled_from((0.5, 0.3)))
def test_stopping_hull_steps_early_keeps_random_batteries_certified(seed, t):
    # instances drawn as criterion 4's battery draws them
    from test_acceptance import _three_point_instance

    _early_and_exact_hull_steps_agree(*_three_point_instance(np.random.default_rng(seed), t))


def test_a_good_geodesic_does_not_depend_on_the_blas_thread_count():
    # criterion 3's segment:17 pair at depth 1; OpenBLAS fixes its thread
    # count when it loads, so each count needs its own process
    script = ("import sys; import rcdlab as R; s = R.make_model_space('segment', 17); "
              "tr = R.build_good_geodesic(R.gaussian_measure(s, 8.0), R.bump_measure(s, 12, 0.13), 1, tol=5e-3); "
              "sys.stdout.write(''.join(mu.weights.tobytes().hex() for mu in tr.measures))")
    src = os.path.dirname(os.path.dirname(geodesy.__file__))
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        runs.append(subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True, timeout=300).stdout)
    assert runs[0] and runs[0] == runs[1]
