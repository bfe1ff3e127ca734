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
from .heat import FlowTrace, _semigroup_trace, semigroup_apply
from .measures import ProbMeasure, relative_entropy
from .mmspace import line_of
from .ot import kantorovich_potentials
from .solvers import exact_ot, exact_ot_costs

_TREND_FLOOR = 1e-16  # fit_trend reads a smaller worst residual as this


class EviError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class InequalityReport:
    """Residual series of one inequality check; positive residual = violation."""

    name: str
    grid: tuple
    residuals: tuple
    worst: float
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.residuals and abs(self.worst - max(self.residuals)) > 1e-12:
            raise EviError("worst must equal the max residual")


def _require_finite(**values):
    """An EviError naming every keyword whose value is not a finite number:
    a NaN K or tolerance would otherwise pass each comparison it meets."""
    bad = [f"{name} = {value!r}" for name, value in values.items() if not np.isfinite(value)]
    if bad:
        raise EviError(f"not finite: {', '.join(bad)}")


def fit_trend(params, worsts):
    """Log-log slope of worst residuals against a refinement parameter; None
    for fewer than three runs."""
    p = np.asarray(params, dtype=float)
    w = np.maximum(np.asarray(worsts, dtype=float), _TREND_FLOOR)
    if len(p) < 3:
        return None
    return float(np.polyfit(np.log(p), np.log(w), 1)[0])


def evi_check(flow: FlowTrace, sigma: ProbMeasure, K) -> InequalityReport:
    """Centered-difference residual of the evolution variational inequality
    d/dt W2^2(mu_t, sigma)/2 + K W2^2/2 + Ent(mu_t) - Ent(sigma) <= 0."""
    _require_finite(K=K)
    times = np.asarray(flow.times)
    if len(times) < 3:
        raise EviError("need at least 3 time samples")
    space = sigma.space
    m = space.ref_measure
    ent_sigma = relative_entropy(sigma, m)
    wsq = exact_ot_costs(space.metric ** 2, [(mu.weights, sigma.weights) for mu in flow.measures], line_of(space))
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


def dw2_derivative_check(flow: FlowTrace, sigma: ProbMeasure, form: DirichletForm) -> InequalityReport:
    """Residual of d/dt W2^2(mu_t, sigma)/2 = -E_{mu_t}(phi_t, log f_t) at
    interior trace times, using gauge-normalized potentials; also evaluates
    the a-priori difference-quotient envelope as a sanity check."""
    times = np.asarray(flow.times)
    if len(times) < 3:
        raise EviError("need at least 3 time samples")
    gauge = int(sigma.support()[0])
    C, line = sigma.space.metric ** 2, line_of(sigma.space)
    wsq, pairs = [], {}
    for i, mu_t in enumerate(flow.measures):
        # the potentials right after W2^2 of the same problem: exact_ot's memory answers them
        wsq.append(exact_ot(C, mu_t.weights, sigma.weights, line=line)[0])
        if 0 < i < len(times) - 1 and mu_t.density().min() > 0:
            pairs[i] = kantorovich_potentials(mu_t, sigma, gauge=gauge)
    residuals = []
    grid = []
    envelope_ok = []
    for i, pair in pairs.items():
        mu_t = flow.measures[i]
        f_t = mu_t.density()
        rhs = -energy(weighted_form(form, mu_t), pair.phi, np.log(f_t))
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


def entropy_inequality_check(eta: ProbMeasure, sigma: ProbMeasure, K, form: DirichletForm) -> InequalityReport:
    """Residual of Ent(sigma) - Ent(eta) - (K/2) W2^2 >= -E_eta(phi, log f).

    The statement is existential in the potential, but the only freedom among
    the potentials kantorovich_potentials returns is the gauge, a constant
    added to phi, and the energy sees only differences of phi. So one
    potential decides: status is "ok" or "violation_candidate".
    """
    _require_finite(K=K)
    space = eta.space
    m = space.ref_measure
    f = eta.density()
    if f.min() <= 0:
        raise EviError("eta must have positive density")
    wsq = exact_ot(space.metric ** 2, eta.weights, sigma.weights, line=line_of(space))[0]
    lhs = relative_entropy(sigma, m) - relative_entropy(eta, m) - 0.5 * K * wsq
    pair = kantorovich_potentials(eta, sigma, gauge=int(sigma.support()[0]))
    resid = float(lhs + energy(weighted_form(form, eta), pair.phi, np.log(f)))
    return InequalityReport(
        "entropy_inequality", (0.0,), (-resid,), -resid,
        extras={"status": "ok" if resid >= 0 else "violation_candidate", "K": K},
    )


def rcd_verify(form: DirichletForm, *, K=0.0, seed=0, t_grid=None, evi_tol=1e-2,
               n_quadratic=10, n_additivity=5, n_probes=2) -> dict:
    """Composite battery on form.space: quadratic-form law of the energy (n_quadratic pairs),
    additivity of the measure flow (n_additivity mixtures), and EVI feasibility (n_probes starts
    flowed over t_grid, default 0.01, ..., 0.1), reported per check with a verdict."""
    _require_finite(K=K, evi_tol=evi_tol)
    if t_grid is None:
        t_grid = [0.01 * k for k in range(1, 11)]
    rng = np.random.default_rng(seed)
    m = form.vertex_measure
    n = form.n

    # quadratic form: parallelogram law of the Cheeger energy
    worst_pl = 0.0
    for _ in range(n_quadratic):
        f = rng.normal(size=n)
        g = rng.normal(size=n)
        lhs = cheeger_energy(form, f + g) + cheeger_energy(form, f - g)
        rhs = 2.0 * cheeger_energy(form, f) + 2.0 * cheeger_energy(form, g)
        worst_pl = max(worst_pl, abs(lhs - rhs) / max(1.0, abs(rhs)))
    quadratic = InequalityReport("quadratic_form", (0.0,), (worst_pl,), worst_pl)

    # additivity: the measure flow is linear on mixtures
    worst_add = 0.0
    for _ in range(n_additivity):
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
    for _ in range(n_probes):
        f0 = np.exp(rng.normal(scale=0.5, size=n))
        f0 = f0 / (f0 * m).sum()
        flow = _semigroup_trace(form, f0, t_grid)  # evi_check reads no Fisher and no speed
        gs = np.exp(rng.normal(scale=0.5, size=n))
        sigma = ProbMeasure(form.space, gs * m / (gs * m).sum())
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
