import functools
import itertools

import numpy as np
import pytest

from rcdlab.dirichlet import dirichlet_form
from rcdlab.heat import jko_flow
from rcdlab.measures import ProbMeasure, bump_measure, dirac, measure_from_density, uniform_measure
from rcdlab.mmspace import FiniteMMSpace, line_of, make_model_space
from rcdlab.ot import _ascending_slopes, c_transform, check_slackness, kantorovich_potentials, w2
from rcdlab.solvers import exact_ot
from test_solvers import _log_domain_prox_step


def polytope_vertex_minimum(C, mu, nu):
    """Enumerate transport polytope vertices (supports of size <= 2n-1) by
    solving every square subsystem; exact oracle for tiny instances."""
    n = len(mu)
    cells = [(i, j) for i in range(n) for j in range(n)]
    best = np.inf
    # constraints: n row sums + n col sums (rank 2n-1)
    for support in itertools.combinations(cells, 2 * n - 1):
        A = []
        for i in range(n):
            A.append([1.0 if a == i else 0.0 for a, b in support])
        for j in range(n):
            A.append([1.0 if b == j else 0.0 for a, b in support])
        A = np.array(A)
        b = np.concatenate([mu, nu])
        sol, res, rank, _ = np.linalg.lstsq(A, b, rcond=None)
        if np.abs(A @ sol - b).max() > 1e-10 or (sol < -1e-10).any():
            continue
        cost = sum(C[a, bb] * s for (a, bb), s in zip(support, sol))
        best = min(best, cost)
    return best


def random_space(n, seed):
    return make_model_space("random_metric", n, {"seed": seed})


def test_w2_identical_measures_zero():
    s = make_model_space("cycle", 6)
    mu = uniform_measure(s)
    val, plan = w2(mu, mu)
    assert val == pytest.approx(0.0, abs=1e-9)
    off = plan.coupling.copy()
    np.fill_diagonal(off, 0.0)
    assert off.max() < 1e-12


def test_w2_between_diracs_is_distance():
    s = random_space(8, 0)
    val, plan = w2(dirac(s, 1), dirac(s, 5))
    assert val == pytest.approx(s.metric[1, 5])
    assert plan.coupling[1, 5] == pytest.approx(1.0)


def _golden_first_jko_step():
    # the first step of the golden config's jko task (configs/cycle64_rcd.json)
    s = make_model_space("cycle", 64)
    return jko_flow(bump_measure(s, 16, 0.12), 0.004, 1, inner_tol=1e-6, form=dirichlet_form(s))


def _random_jko_steps(seed):
    s = make_model_space("random_metric", 32, {"seed": seed})
    mu0 = ProbMeasure(s, np.random.default_rng(seed).dirichlet(np.ones(32)))
    return jko_flow(mu0, 0.01, 3, inner_tol=1e-6, form=dirichlet_form(s))


@pytest.mark.parametrize("flow", [_golden_first_jko_step] + [functools.partial(_random_jko_steps, seed)
                                                             for seed in range(8)],
                         ids=["golden"] + [f"random_metric-32-seed{seed}" for seed in range(8)])
def test_plans_of_consecutive_jko_steps_meet_their_marginals(flow):
    # tiny but feasible marginals, which HiGHS presolve misreports as infeasible
    measures = flow().measures
    for mu0, mu1 in zip(measures, measures[1:]):
        w2(mu0, mu1)[1].check_marginals(mu0, mu1)


def test_golden_first_jko_step_reaches_the_plain_sweeps_nu():
    # prox_entropy_step over-relaxes its sweeps; their fixed point is the plain sweeps'
    trace = _golden_first_jko_step()
    mu0 = trace.measures[0]
    C, m = mu0.space.metric ** 2, mu0.space.ref_measure
    nu, _, _ = _log_domain_prox_step(mu0.weights, C, m, 0.004, 0.25, relax=False)
    assert np.abs(trace.measures[1].weights - nu).max() <= 1e-11
    assert trace.meta["max_inner_gap"] <= 1e-6  # the task's inner_tol


def test_w2_three_point_vertex_enumeration_oracle():
    d = np.array([[0.0, 1.0, 1.7], [1.0, 0.0, 0.9], [1.7, 0.9, 0.0]])
    s = FiniteMMSpace((0, 1, 2), d, np.full(3, 1 / 3))
    mu = ProbMeasure(s, np.array([0.5, 0.5, 0.0]))
    nu = ProbMeasure(s, np.array([0.0, 0.5, 0.5]))
    val, plan = w2(mu, nu)
    oracle = polytope_vertex_minimum(d**2, mu.weights, nu.weights)
    assert val**2 == pytest.approx(oracle, abs=1e-12)
    plan.check_marginals(mu, nu)


def test_strong_duality_random_instances():
    rng = np.random.default_rng(10)
    for seed in range(10):
        s = random_space(12, seed)
        mu = ProbMeasure(s, rng.dirichlet(np.ones(12)))
        nu = ProbMeasure(s, rng.dirichlet(np.ones(12)))
        val, _ = w2(mu, nu)
        pair = kantorovich_potentials(mu, nu)
        primal = 0.5 * val * val
        assert abs(pair.gap) <= 1e-9 * max(1.0, primal)
        fin = np.isfinite(pair.psi)
        feas = (pair.phi[:, None] + pair.psi[None, fin] - 0.5 * s.metric[:, fin] ** 2).max()
        assert feas <= 1e-9


def test_the_potentials_gap_is_half_the_cost_less_their_dual_value():
    # the reported gap re-derived from the pair and exact_ot's cost, on cycles
    # and random metrics with empty sites in nu; a gap off by a factor shows
    # wherever the gap is not exactly 0
    rng = np.random.default_rng(12)
    nonzero = 0
    for seed in range(12):
        s = random_space(12, seed) if seed % 2 else make_model_space("cycle", 12)
        w = rng.dirichlet(np.ones(12)) * (rng.uniform(size=12) < 0.7)
        w[seed] += 0.1
        mu, nu = ProbMeasure(s, rng.dirichlet(np.ones(12))), ProbMeasure(s, w / w.sum())
        pair = kantorovich_potentials(mu, nu)
        C = s.metric ** 2
        cost = exact_ot(C, mu.weights, nu.weights, line=line_of(s))[0]
        sup = nu.weights > 0
        assert np.isneginf(pair.psi[~sup]).all()
        dual = float(pair.phi @ mu.weights + pair.psi[sup] @ nu.weights[sup])
        assert pair.dual_value == pytest.approx(dual, rel=1e-12, abs=0)
        assert pair.gap == pytest.approx(0.5 * cost - dual, rel=1e-9, abs=0)
        nonzero += pair.gap != 0.0
        # phi (+) psi <= C/2 on the support of nu, up to the rounding of phi
        assert (pair.phi[:, None] + pair.psi[None, sup] - 0.5 * C[:, sup]).max() <= 1e-15 * C.max()
    assert nonzero >= 6


def test_w2_metric_axioms_random_triples():
    rng = np.random.default_rng(11)
    s = random_space(10, 42)
    for _ in range(40):
        a = ProbMeasure(s, rng.dirichlet(np.ones(10)))
        b = ProbMeasure(s, rng.dirichlet(np.ones(10)))
        c = ProbMeasure(s, rng.dirichlet(np.ones(10)))
        dab, dba = w2(a, b)[0], w2(b, a)[0]
        assert dab == pytest.approx(dba, abs=1e-10)
        assert w2(a, c)[0] <= dab + w2(b, c)[0] + 1e-8


def test_w2_squared_jointly_convex():
    rng = np.random.default_rng(12)
    s = random_space(9, 5)
    for _ in range(20):
        m1, m2 = (ProbMeasure(s, rng.dirichlet(np.ones(9))) for _ in range(2))
        n1, n2 = (ProbMeasure(s, rng.dirichlet(np.ones(9))) for _ in range(2))
        lam = rng.uniform()
        mix_m = ProbMeasure(s, lam * m1.weights + (1 - lam) * m2.weights)
        mix_n = ProbMeasure(s, lam * n1.weights + (1 - lam) * n2.weights)
        lhs = w2(mix_m, mix_n)[0] ** 2
        rhs = lam * w2(m1, n1)[0] ** 2 + (1 - lam) * w2(m2, n2)[0] ** 2
        assert lhs <= rhs + 1e-8


def test_c_transform_constants():
    s = make_model_space("segment", 8)
    psi0 = np.zeros(8)
    phi = c_transform(s, psi0)
    assert np.abs(phi).max() < 1e-15  # minimum attained at y = x
    psi_k = np.full(8, 3.7)
    assert np.allclose(c_transform(s, psi_k), -3.7)


def test_c_transform_endpoint_singleton():
    s = make_model_space("segment", 8)
    psi = np.full(8, -np.inf)
    psi[7] = 0.0
    phi = c_transform(s, psi)
    assert np.allclose(phi, 0.5 * s.metric[:, 7] ** 2)


def test_c_transform_two_step_idempotent():
    rng = np.random.default_rng(13)
    s = random_space(9, 9)
    sup = np.arange(9)
    psi = rng.normal(size=9)

    def ctr_to_phi(p):
        return c_transform(s, p, sup)

    def ctr_to_psi(f):
        vals = 0.5 * s.metric[:, sup] ** 2 - f[:, None]
        return vals.min(axis=0)

    phi1 = ctr_to_phi(psi)
    psi1 = ctr_to_psi(phi1)
    phi2 = ctr_to_phi(psi1)
    psi2 = ctr_to_psi(phi2)
    assert np.abs(phi2 - phi1).max() < 1e-10
    assert np.abs(psi2 - psi1).max() < 1e-10


def test_c_transform_order_reversing():
    rng = np.random.default_rng(14)
    s = random_space(7, 2)
    a = rng.normal(size=7)
    b = a + rng.uniform(0, 1, size=7)
    fa, fb = c_transform(s, a), c_transform(s, b)
    assert np.all(fb <= fa + 1e-12)


def test_potentials_identical_measures():
    s = make_model_space("cycle", 5)
    mu = uniform_measure(s)
    pair = kantorovich_potentials(mu, mu)
    assert pair.gap == pytest.approx(0.0, abs=1e-12)
    assert pair.dual_value == pytest.approx(0.0, abs=1e-12)


def test_potentials_between_diracs():
    s = random_space(8, 3)
    pair = kantorovich_potentials(dirac(s, 2), dirac(s, 6))
    assert pair.dual_value == pytest.approx(0.5 * s.metric[2, 6] ** 2, abs=1e-12)


def test_gauge_normalization_and_psi_bound():
    rng = np.random.default_rng(15)
    s = make_model_space("segment", 12)
    mu = ProbMeasure(s, rng.dirichlet(np.ones(12)))
    nu = measure_from_density(s, np.where(np.arange(12) >= 8, 1.0, 0.0))
    y0 = int(nu.support()[0])
    pair = kantorovich_potentials(mu, nu, gauge=y0)
    assert pair.phi[y0] == pytest.approx(0.0, abs=1e-12)
    sup = nu.support()
    bound = 0.5 * s.metric[y0, sup].max() ** 2
    assert pair.psi[sup].max() <= bound + 1e-9
    assert np.all(~np.isfinite(pair.psi[np.setdiff1d(np.arange(12), sup)]))


def test_gauge_invariance_of_dual_and_slackness():
    rng = np.random.default_rng(16)
    s = random_space(8, 8)
    mu = ProbMeasure(s, rng.dirichlet(np.ones(8)))
    nu = ProbMeasure(s, rng.dirichlet(np.ones(8)))
    val, plan = w2(mu, nu)
    pair = kantorovich_potentials(mu, nu)
    shifted = pair.shifted(1.2345)
    dual_shift = float(shifted.phi @ mu.weights + shifted.psi[np.isfinite(shifted.psi)] @ nu.weights[np.isfinite(shifted.psi)])
    assert dual_shift == pytest.approx(pair.dual_value, abs=1e-10)
    r1 = check_slackness(s, pair, plan)
    r2 = check_slackness(s, shifted, plan)
    assert r1["support_residual"] == pytest.approx(r2["support_residual"], abs=1e-12)


def test_slackness_optimal_and_perturbed():
    rng = np.random.default_rng(17)
    s = random_space(9, 4)
    mu = ProbMeasure(s, rng.dirichlet(np.ones(9)))
    nu = ProbMeasure(s, rng.dirichlet(np.ones(9)))
    val, plan = w2(mu, nu)
    pair = kantorovich_potentials(mu, nu)
    rep = check_slackness(s, pair, plan)
    assert rep["support_residual"] <= 1e-8
    # identity instance with zero potentials
    mu2 = uniform_measure(s)
    _, plan2 = w2(mu2, mu2)
    from rcdlab.ot import KantorovichPair

    zero_pair = KantorovichPair(np.zeros(9), np.zeros(9), 0.0, 0.0)
    assert check_slackness(s, zero_pair, plan2)["support_residual"] == pytest.approx(0.0, abs=1e-15)
    # perturbing phi at a support point shows as a residual of the same size
    x0 = int(plan.support()[0][0])
    bad_phi = pair.phi.copy()
    bad_phi[x0] += 0.1
    bad = KantorovichPair(bad_phi, pair.psi, pair.dual_value, pair.gap)
    assert check_slackness(s, bad, plan)["support_residual"] >= 0.1 - 1e-8


def test_slope_bound_refinement_trend_on_segments():
    # the graph-neighbor slope surrogate of the transport-length bound is only
    # refinement-convergent; assert the violation shrinks with the mesh
    from rcdlab.measures import gaussian_measure, bump_measure

    viol = []
    for n in (16, 32, 64):
        s = make_model_space("segment", n)
        mu = gaussian_measure(s, 6.0)
        nu = bump_measure(s, int(0.75 * (n - 1)), 0.2)
        _, plan = w2(mu, nu)
        pair = kantorovich_potentials(mu, nu)
        rep = check_slackness(s, pair, plan)
        assert rep["support_residual"] <= 1e-8
        viol.append(rep["slope_violation"])
    assert viol[2] < viol[0]
    assert viol[2] <= 4.0 / 64  # O(h) scale at the finest mesh


def test_ascending_slopes_basic():
    s = make_model_space("segment", 5)
    f = np.array([0.0, 1.0, 1.0, 0.5, 2.0])
    h = 0.25
    assert _ascending_slopes(s, f)[0] == pytest.approx(1.0 / h)


def _loop_slopes(space, f):
    """Reference: the per-neighbor loop _ascending_slopes replaced."""
    asc = np.zeros(space.n)
    if space.graph is not None:
        pairs = [(i, j) for i, j, _ in space.graph] + [(j, i) for i, j, _ in space.graph]
    else:
        pairs = [(x, y) for x in range(space.n) for y in range(space.n) if x != y]
    for x, y in pairs:
        asc[x] = max(asc[x], (f[y] - f[x]) / space.metric[x, y])
    return asc


def _loop_slackness(space, pair, plan):
    """Reference: support residual and slope violation by the replaced loops."""
    C2 = 0.5 * space.metric ** 2
    asc = _loop_slopes(space, pair.phi)
    resid = viol = 0.0
    for x, y in plan.support():
        s = pair.phi[x] + pair.psi[y]
        resid = max(resid, abs(C2[x, y] - s) if np.isfinite(s) else np.inf)
        viol = max(viol, asc[x] - space.metric[x, y])
    return resid, viol


@pytest.mark.parametrize("kind, n", [("random_metric", 24), ("cycle", 12), ("segment", 15), ("grid", 4)])
def test_vectorized_slopes_and_slackness_equal_the_loops_bit_for_bit(kind, n):
    rng = np.random.default_rng(n)
    s = random_space(n, 3) if kind == "random_metric" else make_model_space(kind, n)
    for _ in range(3):
        mu = ProbMeasure(s, rng.dirichlet(np.ones(s.n)))
        nu = ProbMeasure(s, rng.dirichlet(np.full(s.n, 0.3)))
        _, plan = w2(mu, nu)
        pair = kantorovich_potentials(mu, nu)
        rep = check_slackness(s, pair, plan)
        assert (rep["support_residual"], rep["slope_violation"]) == _loop_slackness(s, pair, plan)
        # ties (equal values give -0.0 quotients) and a NaN, which the loop skips
        f = np.round(rng.normal(size=s.n))
        f[1] = np.nan
        for g in (pair.phi, rng.normal(size=s.n), f):
            assert _ascending_slopes(s, g).tobytes() == _loop_slopes(s, g).tobytes()

