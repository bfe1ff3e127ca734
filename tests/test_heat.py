import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize_scalar

from rcdlab import heat, solvers
from rcdlab.dirichlet import dirichlet_form
from rcdlab.heat import (
    HeatError,
    bakry_emery_check,
    contraction_check,
    entropy_slope_regularization,
    heat_kernel,
    i_rate,
    identification_check,
    jko_flow,
    lipschitz_regularization_check,
    log_sobolev_check,
    semigroup_apply,
    semigroup_flow,
    spectral_gap,
    tensorization_check,
)
from rcdlab.measures import ProbMeasure, bump_measure, dirac, fisher_information, measure_from_density, relative_entropy, uniform_measure
from rcdlab.mmspace import FiniteMMSpace, line_of, make_model_space
from rcdlab.solvers import prox_entropy_step


def cycle_form(n):
    s = make_model_space("cycle", n)
    return s, dirichlet_form(s)


def test_semigroup_identity_at_zero_and_two_point_closed_form():
    tp = make_model_space("two_point", 2)
    form = dirichlet_form(tp, rule="unit")
    f = np.array([1.0, 0.0])
    assert np.allclose(semigroup_apply(form, f, 0.0), f)
    for t in (0.05, 0.3, 1.0):
        expect = np.array([0.5 + 0.5 * np.exp(-4 * t), 0.5 - 0.5 * np.exp(-4 * t)])
        assert np.allclose(semigroup_apply(form, f, t), expect, atol=1e-12)


def test_semigroup_long_time_equilibrium():
    s, form = cycle_form(12)
    rng = np.random.default_rng(0)
    f = np.exp(rng.normal(size=12))
    lam2 = spectral_gap(form)
    ft = semigroup_apply(form, f, 50.0 / lam2)
    mean = float(f @ form.vertex_measure) / form.vertex_measure.sum()
    assert np.abs(ft - mean).max() <= 1e-8


def test_semigroup_conservation_positivity_max_principle():
    s, form = cycle_form(16)
    rng = np.random.default_rng(1)
    f = np.abs(rng.normal(size=16))
    m = form.vertex_measure
    for t in (0.01, 0.1, 1.0):
        ft = semigroup_apply(form, f, t)
        assert float(ft @ m) == pytest.approx(float(f @ m), abs=1e-10)
        assert ft.min() >= -1e-12
        assert np.abs(ft).max() <= np.abs(f).max() + 1e-12


def test_semigroup_property():
    s, form = cycle_form(10)
    rng = np.random.default_rng(2)
    f = rng.normal(size=10)
    a = semigroup_apply(form, semigroup_apply(form, f, 0.07), 0.05)
    b = semigroup_apply(form, f, 0.12)
    assert np.abs(a - b).max() <= 1e-10


def test_semigroup_integrates_against_the_heat_kernel():
    for seed in range(4):
        s = make_model_space("random_metric", 9 + 3 * seed, {"seed": seed})
        form = dirichlet_form(s)
        f = np.random.default_rng(seed).normal(size=s.n)
        for t in (0.01, 0.3, 2.0):
            expect = heat_kernel(form, t).matrix @ (f * form.vertex_measure)
            assert np.abs(semigroup_apply(form, f, t) - expect).max() <= 1e-10


def test_semigroup_has_no_size_cap():
    # the same eigendecomposition heat_kernel runs at any n
    n, t = 520, 0.01
    s, form = cycle_form(n)
    mode = np.cos(2 * np.pi * np.arange(n) / n)
    # the unit-mass cycle's generator scales this mode by -2 n^2 (1 - cos(2 pi / n))
    decay = np.exp(-2.0 * n * n * (1.0 - np.cos(2 * np.pi / n)) * t)
    assert np.abs(semigroup_apply(form, 1.0 + mode, t) - (1.0 + decay * mode)).max() <= 1e-10


def test_heat_kernel_laws_random_graphs():
    rng = np.random.default_rng(3)
    for seed in range(5):
        n = int(rng.integers(8, 24))
        s = make_model_space("random_metric", n, {"seed": seed})
        form = dirichlet_form(s)
        k = heat_kernel(form, 0.3)
        assert np.abs(k.matrix - k.matrix.T).max() <= 1e-10
        m = form.vertex_measure
        assert np.abs((k.matrix * m[None, :]).sum(axis=1) - 1).max() <= 1e-10
        ka = heat_kernel(form, 0.1).matrix
        kb = heat_kernel(form, 0.2).matrix
        chap = ka @ np.diag(m) @ ka
        assert np.abs(chap - kb).max() <= 1e-9


def test_heat_kernel_one_point():
    one = FiniteMMSpace((0,), np.zeros((1, 1)), np.array([0.7]), graph=((0, 0, 1.0),) if False else None)
    from rcdlab.dirichlet import DirichletForm

    form = DirichletForm(one, np.zeros((1, 1)), np.array([0.7]))
    k = heat_kernel(form, 0.5)
    assert k.matrix[0, 0] == pytest.approx(1 / 0.7)


def test_jko_stationary_at_uniform():
    s, form = cycle_form(16)
    mu0 = uniform_measure(s)
    tr = jko_flow(mu0, 1e-2, 5, inner_tol=1e-7, form=form)
    for mu in tr.measures:
        assert np.abs(mu.weights - mu0.weights).max() <= 1e-6


def test_jko_two_point_scalar_oracle():
    # one smoothed proximal step on two points against a nested scalar oracle:
    # the 2x2 coupling has one degree of freedom, so the smoothed cost is an
    # exact inner golden-section solve and the step an outer one
    tp = make_model_space("two_point", 2)
    m = tp.ref_measure
    C = tp.metric**2
    from rcdlab.solvers import symmetric_potential

    def oracle_step(mu, tau, taub):
        eps = 2 * tau * taub
        db = symmetric_potential(mu, C, m, eps) / (2 * tau)

        def smoothed_cost(nu):
            lo = max(0.0, mu[0] + nu[0] - 1.0) + 1e-15
            hi = min(mu[0], nu[0]) - 1e-15

            def val(x):
                g = np.array([[x, mu[0] - x], [nu[0] - x, 1 - mu[0] - nu[0] + x]])
                if g.min() < 0:
                    return np.inf
                cost = float((g * C).sum())
                kl = float(np.sum(np.where(g > 0, g * np.log(np.maximum(g / m[None, :], 1e-300)), 0.0)))
                return cost + eps * kl

            return minimize_scalar(val, bounds=(lo, hi), method="bounded", options={"xatol": 1e-14}).fun

        def objective(p):
            nu = np.array([p, 1 - p])
            ent = float(np.sum(nu * np.log(nu / m)))
            return ent + smoothed_cost(nu) / (2 * tau) - float(db @ nu)

        return minimize_scalar(objective, bounds=(1e-6, 1 - 1e-6), method="bounded",
                               options={"xatol": 1e-12}).x

    mu = np.array([0.85, 0.15])
    # small tau: below the lattice threshold the step is stationary
    nu_impl, gap, _ = prox_entropy_step(mu, C, m, 0.05, 0.25)
    assert gap <= 1e-8
    assert nu_impl[0] == pytest.approx(oracle_step(mu, 0.05, 0.25), abs=1e-6)
    # large tau: the step genuinely moves toward the uniform minimizer
    nu_impl2, gap2, _ = prox_entropy_step(mu, C, m, 0.6, 0.25)
    assert gap2 <= 1e-8
    target = oracle_step(mu, 0.6, 0.25)
    assert target < mu[0] - 1e-3
    assert nu_impl2[0] == pytest.approx(target, abs=1e-4)


def test_jko_entropy_monotone_and_vs_semigroup():
    s, form = cycle_form(32)
    pos = np.array(s.meta["positions"])
    f0 = 1 + 0.8 * np.cos(2 * np.pi * pos)
    mu0 = measure_from_density(s, f0)
    tau = 2e-3
    tr = jko_flow(mu0, tau, 25, inner_tol=1e-6, form=form)
    assert all(a >= b - 1e-9 for a, b in zip(tr.entropies, tr.entropies[1:]))
    m = form.vertex_measure
    end = semigroup_apply(form, mu0.density(), 25 * tau) * m
    gap = np.abs(tr.measures[-1].weights - end).sum()
    assert gap <= 25.0 * tau  # O(tau) consistency with a generous constant


def test_identification_check_stationary():
    s, form = cycle_form(12)
    f0 = np.ones(12)
    rep = identification_check(form, f0, [0.02, 0.05], [4e-3, 2e-3], t_diss=0.05)
    assert max(rep["l1_gaps"]) <= 1e-6
    assert rep["fisher_at_t"] <= 1e-10


def test_identification_check_solves_no_transport_lp(monkeypatch, exact_ot_calls):
    s, form = cycle_form(16)
    f0 = bump_measure(s, 4, 0.2).density()
    got = identification_check(form, f0, [0.02], [4e-3, 2e-3], t_diss=0.02)
    assert exact_ot_calls == []
    real_trace = heat._jko_trace

    def full_flow(mu0, tau, nsteps, inner_tol, blur):  # jko_flow, speed LPs and all
        with monkeypatch.context() as inner:
            inner.setattr(heat, "_jko_trace", real_trace)
            return jko_flow(mu0, tau, nsteps, inner_tol=inner_tol, blur=blur)

    monkeypatch.setattr(heat, "_jko_trace", full_flow)
    assert identification_check(form, f0, [0.02], [4e-3, 2e-3], t_diss=0.02) == got
    assert len(exact_ot_calls) == 5 + 10


def test_dissipation_identity_on_cycle():
    s, form = cycle_form(64)
    pos = np.array(s.meta["positions"])
    f0 = 1 + 0.9 * np.cos(2 * np.pi * pos)
    rep = identification_check(form, f0, [0.1], [4e-3], t_diss=0.1)
    assert rep["dissipation_residual_rel"] <= 1e-3


def test_bakry_emery_trivial_cases():
    s, form = cycle_form(16)
    const = np.full(16, 2.0)
    rep = bakry_emery_check(form, const, [0.1, 1.0], K=5.0)
    assert rep["worst_residual"] <= 1e-15
    assert rep["largest_K"] == np.inf  # a constant passes for every K
    rng = np.random.default_rng(4)
    f = rng.normal(size=16)
    lhs = form.gamma_vector(semigroup_apply(form, f, 0.0), semigroup_apply(form, f, 0.0))
    rhs = semigroup_apply(form, form.gamma_vector(f, f), 0.0)
    assert np.abs(lhs - rhs).max() <= 1e-12  # equality at t = 0


def test_bakry_emery_cycles_nonnegative_curvature():
    rng = np.random.default_rng(5)
    for n in (16, 64):
        s, form = cycle_form(n)
        f = rng.normal(size=n)
        rep = bakry_emery_check(form, f, [0.01, 0.1, 1.0], K=0.0)
        assert rep["worst_residual"] <= 1e-8
        assert rep["largest_K"] >= 0.0


def test_bakry_emery_largest_K_is_where_the_estimate_binds():
    rng = np.random.default_rng(5)
    grid = [0.0, 0.01, 0.1, 1.0]
    for n in (16, 64):
        s, form = cycle_form(n)
        f = rng.normal(size=n)
        K = bakry_emery_check(form, f, grid, K=0.0)["largest_K"]
        assert np.isfinite(K)
        # at K the residual equals tol up to rounding; below it passes, above it fails
        assert abs(bakry_emery_check(form, f, grid, K)["worst_residual"] - 1e-10) <= 1e-16
        assert bakry_emery_check(form, f, grid, K * (1 - 1e-9))["worst_residual"] <= 1e-10
        assert bakry_emery_check(form, f, grid, K * (1 + 1e-9))["worst_residual"] > 1e-10


def test_lipschitz_regularization():
    s, form = cycle_form(64)
    pos = np.array(s.meta["positions"])
    f = np.sign(np.cos(2 * np.pi * pos))
    rep = lipschitz_regularization_check(form, f, 0.1, K=0.0)
    assert rep["worst_residual"] <= 0.0
    assert rep["slope_margin"] >= 0.0
    const = np.full(64, 1.5)
    rep2 = lipschitz_regularization_check(form, const, 0.2, K=0.0)
    assert rep2["worst_residual"] <= 0.0
    # t -> 0: the I-term vanishes, inequality slack
    rep3 = lipschitz_regularization_check(form, f, 1e-6, K=0.0)
    assert rep3["worst_residual"] <= 0.0
    assert i_rate(0.0, 0.3) == pytest.approx(0.3)
    assert i_rate(2.0, 0.3) == pytest.approx((np.exp(0.6) - 1) / 2.0)


def test_log_sobolev_two_point_scalar_oracle():
    # best K over densities parametrized by one number, vs scalar minimization
    # of Fisher/(2 Ent)
    p = 0.3
    tp = make_model_space("two_point", 2, {"measure": {"custom": [p, 1 - p]}})
    form = dirichlet_form(tp, rule="unit")
    m = form.vertex_measure

    def ratio(q):
        mu = ProbMeasure(tp, np.array([q, 1 - q]))
        ent = relative_entropy(mu, m)
        if ent <= 1e-14:
            return np.inf
        return fisher_information(mu, form) / (2 * ent)

    qs = np.linspace(1e-4, 1 - 1e-4, 4001)
    target = min(ratio(q) for q in qs)
    rep = log_sobolev_check(form, np.array([0.5 / p, 0.5 / (1 - p)]), K=target * 0.9,
                            n_family=40, seed=0)
    # the randomized-family best K cannot beat the true constant and should
    # approach it from above within the family's coverage
    assert rep["best_K"] >= target - 1e-6
    assert rep["best_K"] <= target * 1.35


def test_log_sobolev_gaussian_segment_family():
    c = 8.0
    K_cont = 2 * c
    prev = None
    for n in (16, 32, 64):
        s = make_model_space("segment", n, {"measure": {"gaussian": c}})
        form = dirichlet_form(s)
        rep = log_sobolev_check(form, np.ones(n), K=K_cont, n_family=15, seed=2)
        assert rep["best_K"] >= 0.8 * K_cont
        gap = abs(rep["best_K"] - K_cont)
        if prev is not None:
            assert gap <= prev + 1e-9
        prev = gap


def test_log_sobolev_best_K_is_where_the_inequality_binds():
    s = make_model_space("segment", 16, {"measure": {"gaussian": 8.0}})
    form = dirichlet_form(s)
    f = np.exp(np.random.default_rng(3).normal(scale=0.8, size=16))
    # a family of one: best_K is the density's own constant Fisher / (2 Ent)
    K = log_sobolev_check(form, f, K=1.0, n_family=0)["best_K"]
    assert abs(log_sobolev_check(form, f, K, n_family=0)["residual"] - 1e-12) <= 1e-15
    assert log_sobolev_check(form, f, K * (1 - 1e-9), n_family=0)["residual"] <= 1e-12
    assert log_sobolev_check(form, f, K * (1 + 1e-9), n_family=0)["residual"] > 1e-12
    # the uniform density has zero entropy and caps nothing
    assert log_sobolev_check(form, np.ones(16), K=1.0, n_family=0)["best_K"] == np.inf


def test_contraction_trivial_and_cycle():
    s, form = cycle_form(32)
    rng = np.random.default_rng(6)
    g1 = np.exp(rng.normal(size=32))
    mu = measure_from_density(s, g1)
    rep = contraction_check(form, mu, mu, K=0.0, t_grid=[0.05, 0.1])
    assert abs(rep["worst"]) <= 1e-9
    g2 = np.exp(rng.normal(size=32))
    nu = measure_from_density(s, g2)
    rep2 = contraction_check(form, mu, nu, K=0.0, t_grid=[0.01, 0.05, 0.1])
    assert rep2["worst"] <= 1e-3


def test_tensorization_point_factor_and_two_point():
    tp = make_model_space("two_point", 2)
    ftp = dirichlet_form(tp, rule="unit")
    rep = tensorization_check(ftp, ftp, np.array([1.5, 0.5]), np.array([0.2, 1.8]), 0.2)
    assert rep["kernel_factorization_gap"] <= 1e-10
    assert rep["w2sq_additivity_gap"] <= 1e-8


def test_tensorization_cycles():
    a = make_model_space("cycle", 8)
    fa = dirichlet_form(a)
    pa = np.array(a.meta["positions"])
    rep = tensorization_check(fa, fa, 1 + 0.5 * np.cos(2 * np.pi * pa), 1 + 0.3 * np.sin(2 * np.pi * pa), 0.2)
    assert rep["kernel_factorization_gap"] <= 1e-10
    assert rep["w2sq_additivity_gap"] <= 1e-8


def test_entropy_slope_regularization_reported():
    s, form = cycle_form(24)
    pos = np.array(s.meta["positions"])
    mu = measure_from_density(s, 1 + 0.7 * np.cos(2 * np.pi * pos))
    rep = entropy_slope_regularization(form, mu, 0.05, K=0.0)
    assert np.isfinite(rep["lhs"]) and np.isfinite(rep["rhs"])


def test_heat_checks_hand_exact_ot_probability_measures(monkeypatch):
    # h_t of a Dirac at an end of segment:17 at t = 1e-3 has weights down to
    # -3.1e-16 where it vanishes; every check clips them before transport
    seen = []

    def recording(C, a, b, line=None):
        seen.extend((np.asarray(a), np.asarray(b)))
        return real(C, a, b, line=line)

    def recording_series(C, pairs, line=None):
        for a, b in pairs:
            seen.extend((np.asarray(a), np.asarray(b)))
        return real_series(C, pairs, line)

    real, real_series = heat.exact_ot, heat.exact_ot_costs
    monkeypatch.setattr(heat, "exact_ot", recording)
    monkeypatch.setattr(heat, "exact_ot_costs", recording_series)
    s = make_model_space("segment", 17)
    form = dirichlet_form(s)
    f0 = dirac(s, 0).density()
    semigroup_flow(form, f0, [0.0, 1e-3])
    contraction_check(form, dirac(s, 0), dirac(s, 16), K=0.0, t_grid=[1e-3])
    entropy_slope_regularization(form, dirac(s, 0), 1e-3)
    b = make_model_space("segment", 3)
    tensorization_check(form, dirichlet_form(b), f0, dirac(b, 2).density(), 1e-3)
    # one LP in the flow, two in contraction_check, one in the slope check, three in tensorization
    assert len(seen) == 2 * 7
    for w in seen:
        assert w.min() >= 0.0
        assert w.sum() == pytest.approx(1.0, abs=1e-12)


def test_negative_time_rejected():
    s, form = cycle_form(8)
    with pytest.raises(HeatError):
        semigroup_apply(form, np.ones(8), -0.1)
    with pytest.raises(HeatError):
        heat_kernel(form, 0.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("t", [float("nan"), float("inf"), 1e200])
def test_a_time_that_is_not_finite_or_overflows_is_a_heat_error(t):
    # a NaN time passes every comparison it meets, and exp(t L) overflows at
    # t = 1e200 on the rounding-level positive eigenvalues of the generator
    s, form = cycle_form(8)
    f = np.arange(8.0)
    with pytest.raises(HeatError, match=re.escape(repr(t))):
        heat_kernel(form, t)
    with pytest.raises(HeatError, match=re.escape(repr(t))):
        semigroup_apply(form, f, t)


@pytest.mark.parametrize("tau", [float("nan"), float("inf")])
def test_a_jko_step_that_is_not_finite_is_a_heat_error(tau):
    # a NaN tau surfaced as a MeasureError on a non-finite weight
    s, form = cycle_form(8)
    with pytest.raises(HeatError, match="tau"):
        jko_flow(uniform_measure(s), tau, 1, form=form)


@pytest.mark.parametrize("t_grid", [[0.0, 0.0, 0.02], [0.0, 0.02, 0.01], [0.0, float("nan"), 0.02]])
def test_a_t_grid_must_increase_strictly(t_grid):
    # a repeated time made a NaN speed W2 / 0 with a RuntimeWarning
    s, form = cycle_form(8)
    with pytest.raises(HeatError, match="increase strictly"):
        semigroup_flow(form, np.ones(8), t_grid)


def test_jko_flow_requires_positive_blur():
    # the debiased step divides by the smoothing temperature 2*tau*blur
    s, form = cycle_form(8)
    with pytest.raises(HeatError, match="blur > 0"):
        jko_flow(uniform_measure(s), 1e-2, 1, blur=0.0, form=form)


def test_fisher_nonincreasing_on_cycles_and_segments():
    for kind, n in (("cycle", 24), ("segment", 17)):
        s = make_model_space(kind, n)
        form = dirichlet_form(s)
        rng = np.random.default_rng(9)
        f0 = np.exp(rng.normal(scale=0.4, size=n))
        f0 = f0 / (f0 * form.vertex_measure).sum()
        flow = semigroup_flow(form, f0, np.linspace(0.005, 0.1, 10).tolist())
        fis = flow.fisher
        assert all(a >= b - 1e-9 for a, b in zip(fis, fis[1:])), kind


def test_entropy_nonincreasing_along_semigroup():
    s, form = cycle_form(20)
    rng = np.random.default_rng(11)
    f0 = np.exp(rng.normal(scale=0.5, size=20))
    f0 = f0 / (f0 * form.vertex_measure).sum()
    flow = semigroup_flow(form, f0, np.linspace(0, 0.2, 15).tolist())
    ents = flow.entropies
    assert all(a >= b - 1e-10 for a, b in zip(ents, ents[1:]))


# -- flow speeds: one transport series per flow, walked from its last pair to its first


def recorded_models(monkeypatch):
    """Record the LPModel of each HiGHS call from here on."""
    real, models = solvers.linprog, []

    def recording(model, *args, **kwargs):
        models.append(model)
        return real(model, *args, **kwargs)

    monkeypatch.setattr(solvers, "linprog", recording)
    return models


@st.composite
def partial_start_flows(draw):
    """A short semigroup or minimizing-movement flow from a measure with empty sites."""
    kind = draw(st.sampled_from(["cycle", "segment", "random_metric"]))
    n = draw(st.integers(3, 16))
    space = make_model_space(kind, n, {"seed": draw(st.integers(0, 2**16))} if kind == "random_metric" else None)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    keep = rng.uniform(size=n) < 0.5
    keep[rng.integers(n)] = True
    w = rng.dirichlet(np.ones(n)) * keep
    mu0 = ProbMeasure(space, w / w.sum())
    steps = draw(st.lists(st.floats(0.005, 0.05), min_size=1, max_size=5))
    if draw(st.booleans()):
        return space, heat._semigroup_trace(dirichlet_form(space), mu0.density(), np.cumsum([0.0] + steps))
    return space, heat._jko_trace(mu0, steps[0], len(steps), 1e-6, 0.25)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(partial_start_flows())
def test_backward_speed_path_matches_cold_solves(flow):
    space, trace = flow
    C = space.metric ** 2
    pairs = list(zip(trace.measures, trace.measures[1:]))
    steps = np.diff(trace.times)
    with pytest.MonkeyPatch.context() as mp:
        models = recorded_models(mp)
        speeds = heat._w2_speeds(space, trace.measures, steps)
    for speed, (a, b), dt in zip(speeds, pairs, steps):
        cold = np.sqrt(solvers.exact_ot(C, a.weights, b.weights)[0]) / dt
        assert abs(speed - cold) <= 1e-12 * cold
    if line_of(space) is None:
        # walked from the last pair, the series restarts exactly where a support changes
        supports = [((a.weights > 0).tobytes(), (b.weights > 0).tobytes()) for a, b in reversed(pairs)]
        assert [x is y for x, y in zip(models, models[1:])] == [x == y for x, y in zip(supports, supports[1:])]
    else:
        assert len(set(map(id, models))) == len(models)  # segments and cycles solve each shortlist LP cold


def test_a_bump_start_flow_restarts_its_speed_path_only_at_the_bump(monkeypatch):
    s = make_model_space("random_metric", 64, {"seed": 1})
    form = dirichlet_form(s)
    mu0 = bump_measure(s, 16, 0.12)
    models = recorded_models(monkeypatch)
    semigroup_flow(form, mu0.density(), np.linspace(0.0, 0.1, 11))
    jko_flow(mu0, 0.004, 10, inner_tol=1e-6, form=form)
    # each flow's series solves its nine full-support pairs on one model, cold
    # on the last pair, and restarts on the pair from the bump, the last it solves
    one_flow = [True] * 8 + [False]
    assert [x is y for x, y in zip(models, models[1:])] == one_flow + [False] + one_flow
