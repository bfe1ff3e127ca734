"""Inequality verifiers: EVI, energy-dissipation equality, the transport
derivative formula, and the entropy inequality, plus the composite battery.

All checks are pure report producers: residuals are signed (positive means
violation) and assertions live in the test suite, which distinguishes
refinement families (assert-mode) from arbitrary spaces (report-mode).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dirichlet import DirichletForm, cheeger_energy, energy, weighted_form
from .heat import FlowTrace, semigroup_apply, semigroup_flow
from .measures import ProbMeasure, relative_entropy
from .ot import kantorovich_potentials
from .solvers import exact_ot


class EviError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class InequalityReport:
    """Residual series of one inequality check; positive residual = violation.

    trend is the log-log slope of worst residual against the refinement
    parameter and is present only when a family of at least three runs is
    summarized.
    """

    name: str
    grid: tuple
    residuals: tuple
    worst: float
    trend: float | None = None
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.residuals and abs(self.worst - max(self.residuals)) > 1e-12:
            raise EviError("worst must equal the max residual")


def fit_trend(params, worsts, floor=1e-16):
    """Log-log slope of worst residuals against a refinement parameter."""
    p = np.asarray(params, dtype=float)
    w = np.maximum(np.asarray(worsts, dtype=float), floor)
    if len(p) < 3:
        return None
    return float(np.polyfit(np.log(p), np.log(w), 1)[0])


def evi_check(flow: FlowTrace, sigma: ProbMeasure, K, dt=None) -> InequalityReport:
    """Centered-difference residual of the evolution variational inequality
    d/dt W2^2(mu_t, sigma)/2 + K W2^2/2 + Ent(mu_t) - Ent(sigma) <= 0."""
    times = np.asarray(flow.times)
    if len(times) < 3:
        raise EviError("need at least 3 time samples")
    space = sigma.space
    m = space.ref_measure
    C = space.metric ** 2
    ent_sigma = relative_entropy(sigma, m)
    wsq = np.array([exact_ot(C, mu.weights, sigma.weights)[0] for mu in flow.measures])
    residuals = []
    grid = []
    for i in range(1, len(times) - 1):
        h1 = times[i] - times[i - 1]
        h2 = times[i + 1] - times[i]
        deriv = (wsq[i + 1] - wsq[i - 1]) / (2.0 * (0.5 * (h1 + h2))) / 2.0
        r = deriv + 0.5 * K * wsq[i] + flow.entropies[i] - ent_sigma
        residuals.append(float(r))
        grid.append(float(times[i]))
    worst = max(residuals)
    return InequalityReport("evi", tuple(grid), tuple(residuals), float(worst), extras={"K": K})


def ede_check(flow: FlowTrace) -> InequalityReport:
    """Residual of the energy-dissipation identity
    Ent(mu_0) = Ent(mu_T) + sum [speed^2/2 + Fisher/2] dt over the trace,
    with interval speeds and trapezoid Fisher quadrature."""
    if not flow.w2_speeds or any(np.isnan(flow.fisher)):
        raise EviError("flow lacks speed or Fisher series")
    times = np.asarray(flow.times)
    fisher = np.asarray(flow.fisher)
    speeds = np.asarray(flow.w2_speeds)
    total = 0.0
    for i in range(len(times) - 1):
        dt = times[i + 1] - times[i]
        total += 0.5 * speeds[i] ** 2 * dt
        total += 0.5 * 0.5 * (fisher[i] + fisher[i + 1]) * dt
    drop = flow.entropies[0] - flow.entropies[-1]
    res = float(abs(drop - total))
    return InequalityReport(
        "ede", (float(times[0]), float(times[-1])), (res,), res,
        extras={"entropy_drop": float(drop), "dissipation": float(total)},
    )


def _weighted_energy(form: DirichletForm, mu: ProbMeasure, u, v) -> float:
    """E_mu(u, v) through the weight-transferred form (support-restricted)."""
    wf = weighted_form(form, mu)
    if wf.n == form.n:
        return energy(wf, u, v)
    idx = mu.support()
    return energy(wf, np.asarray(u)[idx], np.asarray(v)[idx])


def dw2_derivative_check(flow: FlowTrace, sigma: ProbMeasure, form: DirichletForm, dt=None) -> InequalityReport:
    """Residual of d/dt W2^2(mu_t, sigma)/2 = -E_{mu_t}(phi_t, log f_t) at
    interior trace times, using gauge-normalized potentials; also evaluates
    the a-priori difference-quotient envelope as a sanity check."""
    times = np.asarray(flow.times)
    if len(times) < 3:
        raise EviError("need at least 3 time samples")
    space = sigma.space
    C = space.metric ** 2
    m = space.ref_measure
    gauge = int(sigma.support()[0])
    wsq = np.array([exact_ot(C, mu.weights, sigma.weights)[0] for mu in flow.measures])
    residuals = []
    grid = []
    envelope_ok = []
    for i in range(1, len(times) - 1):
        mu_t = flow.measures[i]
        f_t = mu_t.density()
        if f_t.min() <= 0:
            continue
        pair = kantorovich_potentials(mu_t, sigma, gauge=gauge)
        rhs = -_weighted_energy(form, mu_t, pair.phi, np.log(f_t))
        h = 0.5 * (times[i + 1] - times[i - 1])
        lhs = (wsq[i + 1] - wsq[i - 1]) / (2.0 * h) / 2.0
        residuals.append(float(abs(lhs - rhs)))
        grid.append(float(times[i]))
        # envelope: quotient^2 <= (8/window) * int C(sqrt f) * int Gamma(phi) dmu
        quot = (wsq[i + 1] - wsq[i - 1]) / (2.0 * h)
        win = 0.0
        for j in (i - 1, i):
            dt_j = times[j + 1] - times[j]
            mid = flow.measures[j].density()
            ch = cheeger_energy(form, np.sqrt(np.maximum(mid, 0.0)))
            gp = float((form.gamma_vector(pair.phi, pair.phi) * flow.measures[j].weights).sum())
            win += ch * gp * dt_j
        bound = (8.0 / (times[i + 1] - times[i - 1])) * win
        envelope_ok.append(bool((0.5 * quot) ** 2 <= bound + 1e-9))
    worst = max(residuals) if residuals else 0.0
    return InequalityReport(
        "dw2_derivative", tuple(grid), tuple(residuals), float(worst),
        extras={"envelope_ok": envelope_ok},
    )


def entropy_inequality_check(eta: ProbMeasure, sigma: ProbMeasure, K, form: DirichletForm, n_retry=8) -> InequalityReport:
    """Residual of Ent(sigma) - Ent(eta) - (K/2) W2^2 >= -E_eta(phi, log f).

    The statement is existential in the potential, so a negative residual
    triggers a bounded search over alternative optimal potentials (one gauge
    normalization per support point of sigma, capped at n_retry); status
    reports whether the search was conclusive.
    """
    space = eta.space
    m = space.ref_measure
    f = eta.density()
    if f.min() <= 0:
        raise EviError("eta must have positive density")
    logf = np.log(f)
    wsq = exact_ot(space.metric ** 2, eta.weights, sigma.weights)[0]
    lhs = relative_entropy(sigma, m) - relative_entropy(eta, m) - 0.5 * K * wsq

    def resid_for(pair):
        rhs = -_weighted_energy(form, eta, pair.phi, logf)
        return float(lhs - rhs)

    gauges = list(sigma.support()[:n_retry])
    residuals = []
    for g in gauges:
        residuals.append(resid_for(kantorovich_potentials(eta, sigma, gauge=int(g))))
        if residuals[-1] >= 0:
            break
    best = max(residuals)
    status = "ok" if best >= 0 else ("violation_candidate" if len(gauges) >= n_retry else "inconclusive")
    return InequalityReport(
        "entropy_inequality", (0.0,), (float(-best),), float(-best),
        extras={"status": status, "per_potential": residuals, "K": K},
    )


def rcd_verify(space, form: DirichletForm, config=None) -> dict:
    """Composite battery: quadratic-form law of the energy, additivity of the
    measure flow, and EVI feasibility, reported per check with a verdict."""
    config = dict(config or {})
    K = float(config.get("K", 0.0))
    seed = int(config.get("seed", 0))
    t_grid = config.get("t_grid") or [0.01 * k for k in range(1, 11)]
    evi_tol = float(config.get("evi_tol", 1e-2))
    rng = np.random.default_rng(seed)
    m = form.vertex_measure
    n = form.n

    # quadratic form: parallelogram law of the Cheeger energy
    worst_pl = 0.0
    for _ in range(int(config.get("n_quadratic", 10))):
        f = rng.normal(size=n)
        g = rng.normal(size=n)
        lhs = cheeger_energy(form, f + g) + cheeger_energy(form, f - g)
        rhs = 2.0 * cheeger_energy(form, f) + 2.0 * cheeger_energy(form, g)
        worst_pl = max(worst_pl, abs(lhs - rhs) / max(1.0, abs(rhs)))
    quadratic = InequalityReport("quadratic_form", (0.0,), (worst_pl,), worst_pl)

    # additivity: the measure flow is linear on mixtures
    worst_add = 0.0
    for _ in range(int(config.get("n_additivity", 5))):
        fa = np.exp(rng.normal(size=n))
        fb = np.exp(rng.normal(size=n))
        lam = rng.uniform(0.2, 0.8)
        t = rng.uniform(0.05, 0.5)
        mix = semigroup_apply(form, lam * fa + (1 - lam) * fb, t)
        parts = lam * semigroup_apply(form, fa, t) + (1 - lam) * semigroup_apply(form, fb, t)
        worst_add = max(worst_add, float(np.abs(mix - parts).max()))
    additivity = InequalityReport("additivity", (0.0,), (worst_add,), worst_add)

    # EVI feasibility from a few starts against a few targets
    worst_evi = -np.inf
    n_probe = int(config.get("n_probes", 2))
    for _ in range(n_probe):
        f0 = np.exp(rng.normal(scale=0.5, size=n))
        f0 = f0 / (f0 * m).sum()
        flow = semigroup_flow(form, f0, t_grid)
        gs = np.exp(rng.normal(scale=0.5, size=n))
        sigma = ProbMeasure(space, gs * m / (gs * m).sum())
        rep = evi_check(flow, sigma, K)
        worst_evi = max(worst_evi, rep.worst)
    evi_rep = InequalityReport("evi_battery", (0.0,), (float(worst_evi),), float(worst_evi), extras={"K": K})

    checks = {"additivity": additivity, "evi_battery": evi_rep, "quadratic_form": quadratic}
    verdict = (
        worst_pl <= 1e-12
        and worst_add <= 1e-10
        and worst_evi <= evi_tol
    )
    return {"checks": checks, "verdict": bool(verdict), "tolerances": {"quadratic": 1e-12, "additivity": 1e-10, "evi": evi_tol}}
