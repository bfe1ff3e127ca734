import numpy as np
import pytest

from rcdlab import evi, heat
from rcdlab.dirichlet import dirichlet_form, energy, weighted_form
from rcdlab.evi import (
    EviError,
    dw2_derivative_check,
    entropy_inequality_check,
    evi_check,
    fit_trend,
    rcd_verify,
)
from rcdlab.geodesy import GeodesyError, build_good_geodesic, cd_convexity_check
from rcdlab.heat import semigroup_flow
from rcdlab.measures import ProbMeasure, bump_measure, dirac, gaussian_measure, measure_from_density, relative_entropy, uniform_measure
from rcdlab.mmspace import make_model_space
from rcdlab.ot import kantorovich_potentials, w2


def two_point_setup():
    tp = make_model_space("two_point", 2)
    return tp, dirichlet_form(tp, rule="unit")


def two_point_closed_form(p0, t):
    """Weights of the two-point semigroup flow started from (p0, 1-p0)."""
    return 0.5 + (p0 - 0.5) * np.exp(-4.0 * t)


def test_evi_stationary_zero_and_jensen():
    s = make_model_space("cycle", 16)
    form = dirichlet_form(s)
    unif = uniform_measure(s)
    grid = [0.0, 0.01, 0.02, 0.03]
    flow = semigroup_flow(form, unif.density(), grid)
    rep = evi_check(flow, unif, K=0.0)
    assert abs(rep.worst) <= 1e-9
    rng = np.random.default_rng(0)
    sigma = ProbMeasure(s, rng.dirichlet(np.ones(16)))
    rep2 = evi_check(flow, sigma, K=0.0)
    ent_sigma = relative_entropy(sigma, s.ref_measure)
    assert rep2.worst == pytest.approx(-ent_sigma, abs=1e-8)


def test_evi_cycle_semigroup_satisfied():
    s = make_model_space("cycle", 32)
    form = dirichlet_form(s)
    pos = np.array(s.meta["positions"])
    f0 = 1 + 0.8 * np.cos(2 * np.pi * pos)
    grid = np.linspace(0, 0.08, 9).tolist()
    flow = semigroup_flow(form, f0, grid)
    sigma = bump_measure(s, 5, 0.1)
    rep = evi_check(flow, sigma, K=0.0)
    assert rep.worst <= 1e-2


def test_evi_needs_three_samples():
    s = make_model_space("cycle", 8)
    form = dirichlet_form(s)
    flow = semigroup_flow(form, np.ones(8), [0.0, 0.1])
    with pytest.raises(EviError):
        evi_check(flow, uniform_measure(s), K=0.0)


def test_dw2_derivative_two_point_closed_form():
    tp, form = two_point_setup()
    p0, q = 0.9, 0.2
    dt = 1e-4
    grid = [0.1 - dt, 0.1, 0.1 + dt]
    flow = semigroup_flow(form, np.array([2 * p0, 2 * (1 - p0)]), grid)
    sigma = ProbMeasure(tp, np.array([q, 1 - q]))
    rep = dw2_derivative_check(flow, sigma, form)
    # closed form: d/dt W2^2/2 = p_dot/2 for p > q, with p length-1 transport
    p_t = two_point_closed_form(p0, 0.1)
    p_dot = -4.0 * (p_t - 0.5) * 1.0
    lhs = 0.5 * p_dot
    # module formula: E_mu(phi, log f) with the min-transferred conductance
    f = np.array([2 * p_t, 2 * (1 - p_t)])
    phi_diff = 0.5  # phi(x1) - phi(x2) for transport from site 1 to site 2
    rhs = -min(f) * phi_diff * (np.log(f[0]) - np.log(f[1]))
    oracle_residual = abs(lhs - rhs)
    assert rep.residuals[0] == pytest.approx(oracle_residual, abs=1e-4)


def test_dw2_derivative_segment_refinement():
    worsts = []
    for n in (16, 32):
        s = make_model_space("segment", n)
        form = dirichlet_form(s)
        mu0 = gaussian_measure(s, 6.0)
        sigma = bump_measure(s, int(0.75 * (n - 1)), 0.15)
        grid = np.linspace(0.004, 0.03, 6).tolist()
        flow = semigroup_flow(form, mu0.density(), grid)
        rep = dw2_derivative_check(flow, sigma, form)
        worsts.append(rep.worst)
    assert worsts[1] < worsts[0]


def test_entropy_inequality_trivial_and_monotone_in_K():
    s = make_model_space("segment", 12)
    form = dirichlet_form(s)
    rng = np.random.default_rng(1)
    eta = measure_from_density(s, np.exp(rng.normal(scale=0.3, size=12)))
    rep_same = entropy_inequality_check(eta, eta, 0.0, form)
    assert rep_same.worst <= 1e-9
    sigma = bump_measure(s, 9, 0.2)
    vals = []
    for K in (0.0, -2.0, -8.0):
        rep = entropy_inequality_check(eta, sigma, K, form)
        vals.append(rep.worst)
    # residual (= violation) is nonincreasing as K decreases
    assert vals[0] >= vals[1] >= vals[2]
    wsq = w2(eta, sigma)[0] ** 2
    assert vals[0] - vals[1] == pytest.approx(wsq, abs=1e-9)


def test_entropy_inequality_segment_family():
    worsts = []
    for n in (16, 32, 64):
        s = make_model_space("segment", n)
        form = dirichlet_form(s)
        eta = gaussian_measure(s, 6.0)
        sigma = bump_measure(s, int(0.7 * (n - 1)), 0.2)
        rep = entropy_inequality_check(eta, sigma, 0.0, form)
        worsts.append(rep.worst)
    tol_n = {16: 0.05, 32: 0.03, 64: 0.02}
    for n, wv in zip((16, 32, 64), worsts):
        assert wv <= tol_n[n]


def test_entropy_inequality_energy_ignores_the_gauge():
    # why one potential decides the check: a gauge adds a constant to phi
    s = make_model_space("cycle", 16)
    form = dirichlet_form(s)
    eta = gaussian_measure(s, 6.0)
    sigma = bump_measure(s, 11, 0.2)
    logf = np.log(eta.density())
    energies = [energy(weighted_form(form, eta), kantorovich_potentials(eta, sigma, gauge=int(g)).phi, logf)
                for g in sigma.support()]
    assert len(energies) > 1
    assert max(energies) - min(energies) <= 1e-12


@pytest.mark.parametrize("kwargs", [{"K": float("nan")}, {"evi_tol": float("nan")}, {"K": float("inf")}])
def test_rcd_verify_rejects_a_k_or_tolerance_that_is_not_finite(kwargs):
    # max(-inf, nan) keeps -inf, so a NaN K gave the verdict True
    form = dirichlet_form(make_model_space("cycle", 8))
    with pytest.raises(EviError, match="not finite"):
        evi.rcd_verify(form, n_probes=1, **kwargs)


@pytest.mark.parametrize("n_probes", [0, -3])
def test_rcd_verify_rejects_a_battery_without_probes(n_probes):
    # with no probe the worst residual stayed -inf, so the verdict was True
    form = dirichlet_form(make_model_space("cycle", 8))
    with pytest.raises(EviError, match="n_probes >= 1"):
        evi.rcd_verify(form, n_probes=n_probes)


def _vacuous_checks():
    """Each check's call on an input it can assert nothing about, with the
    error it must raise; each returned a pass before."""
    s = make_model_space("segment", 16)
    form = dirichlet_form(s)
    f = np.linspace(0.0, 1.0, 16)
    # from a Dirac no time of this flow has a positive density
    flow = semigroup_flow(form, dirac(s, 0).density(), [1e-6, 2e-6, 3e-6])
    s9 = make_model_space("segment", 9)
    return {
        "contraction": (heat.HeatError, lambda: heat.contraction_check(form, dirac(s, 0), dirac(s, 15), 0.0, [])),
        "bakry_emery": (heat.HeatError, lambda: heat.bakry_emery_check(form, f, [], 0.0)),
        "cd_convexity": (GeodesyError, lambda: cd_convexity_check(build_good_geodesic(dirac(s9, 0), dirac(s9, 8), 0), 0.0)),
        "dw2_derivative": (EviError, lambda: dw2_derivative_check(flow, uniform_measure(s), form)),
        # at t = 0 the semigroup is the identity, so each passed K = 1e6
        "contraction_at_zero": (heat.HeatError, lambda: heat.contraction_check(form, dirac(s, 0), dirac(s, 15), 1e6, [0.0])),
        "bakry_emery_at_zero": (heat.HeatError, lambda: heat.bakry_emery_check(form, f, [0.0], 1e6)),
        "identification_t_grid": (heat.HeatError, lambda: heat.identification_check(form, np.ones(16), [], [4e-3])),
        "identification_tau_grid": (heat.HeatError, lambda: heat.identification_check(form, np.ones(16), [0.02], [])),
        "identification_no_step": (heat.HeatError, lambda: heat.identification_check(form, np.ones(16), [0.02], [1.0])),
    }


@pytest.mark.parametrize("check", ["contraction", "bakry_emery", "cd_convexity", "dw2_derivative",
                                   "contraction_at_zero", "bakry_emery_at_zero", "identification_t_grid",
                                   "identification_tau_grid", "identification_no_step"])
def test_a_check_with_nothing_to_assert_raises(check):
    # an empty t_grid, a grid whose only time is 0, a depth-0 trace, a flow
    # with no positive density and an identification run with no tau or no
    # step gave worst -inf or 0.0, no gaps or a traceback
    error, call = _vacuous_checks()[check]
    with pytest.raises(error, match="nothing|no triple"):
        call()


def test_evi_checks_reject_a_k_that_is_not_finite():
    s = make_model_space("cycle", 8)
    form = dirichlet_form(s)
    flow = semigroup_flow(form, np.ones(8), [0.0, 0.01, 0.02])
    with pytest.raises(EviError, match="K = nan"):
        evi_check(flow, uniform_measure(s), float("nan"))
    with pytest.raises(EviError, match="K = nan"):
        entropy_inequality_check(uniform_measure(s), bump_measure(s, 2, 0.2), float("nan"), form)


def test_inequality_report_consistency_and_trend():
    with pytest.raises(EviError):
        from rcdlab.evi import InequalityReport

        InequalityReport("x", (0.0,), (1.0, 2.0), 5.0)
    slope = fit_trend([16, 32, 64], [0.1, 0.05, 0.025])
    assert slope == pytest.approx(-1.0, abs=1e-6)
    assert fit_trend([16, 32], [0.1, 0.05]) is None


def test_rcd_verify_two_point_and_cycle():
    # on two points W2^2 = |p - q|, which EVI_0 need not satisfy: the battery's worst is the
    # closed-form centered-difference residual of its own draws, whatever its sign
    tp, form_tp = two_point_setup()
    rep = rcd_verify(form_tp, K=0.0, seed=0, evi_tol=1e-6)
    m = tp.ref_measure
    times = np.array([0.01 * k for k in range(1, 11)])
    ent = lambda p: p * np.log(p / m[0]) + (1 - p) * np.log((1 - p) / m[1])
    rng = np.random.default_rng(0)
    worst = -np.inf
    for _ in range(2):
        f0 = np.exp(rng.normal(scale=0.5, size=2))
        p = two_point_closed_form(f0[0] * m[0] / (f0 * m).sum(), times)
        gs = np.exp(rng.normal(scale=0.5, size=2))
        q = gs[0] * m[0] / (gs * m).sum()
        wsq = np.abs(p - q)
        resid = (wsq[2:] - wsq[:-2]) / (times[2:] - times[:-2]) / 2.0 + ent(p[1:-1]) - ent(q)
        worst = max(worst, resid.max())
    assert abs(rep["checks"]["evi_battery"].worst - worst) <= 1e-12
    assert rep["verdict"] == (rep["checks"]["evi_battery"].worst <= 1e-6)

    s = make_model_space("cycle", 32)
    form = dirichlet_form(s)
    rep2 = rcd_verify(form, K=0.0, seed=1, evi_tol=5e-2)
    assert rep2["verdict"]


def test_rcd_verify_solves_one_transport_lp_per_probe_time(monkeypatch, exact_ot_calls):
    form = dirichlet_form(make_model_space("cycle", 16))
    t_grid = [0.01, 0.02, 0.04, 0.06]

    def battery():
        rep = rcd_verify(form, seed=3, t_grid=t_grid, n_probes=2)
        return rep["verdict"], {name: (r.grid, r.residuals, r.worst, r.extras) for name, r in rep["checks"].items()}

    got = battery()
    assert len(exact_ot_calls) == 2 * len(t_grid)  # the EVI distances only
    monkeypatch.setattr(evi, "_semigroup_trace", heat.semigroup_flow)  # the probes as full flows
    assert battery() == got
    assert len(exact_ot_calls) == 2 * len(t_grid) + 2 * (2 * len(t_grid) - 1)

