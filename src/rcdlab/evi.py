"""Inequality verifiers: EVI, the transport derivative formula and the
entropy inequality, plus the RCD(K, inf) battery, which checks EVI_K.

All checks are pure report producers: residuals are signed (positive means
violation) and assertions live in the test suite, which distinguishes
refinement families (assert-mode) from arbitrary spaces (report-mode).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dirichlet import DirichletForm, energy, weighted_form
from .heat import FlowTrace, _semigroup_trace
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


def dw2_derivative_check(flow: FlowTrace, sigma: ProbMeasure, form: DirichletForm) -> InequalityReport:
    """Residual of d/dt W2^2(mu_t, sigma)/2 = -E_{mu_t}(phi_t, log f_t) at
    interior trace times where mu_t has a positive density, using
    gauge-normalized potentials. With no such time it raises EviError."""
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
    if not pairs:
        raise EviError("no interior time has a positive density: nothing to check")
    residuals = []
    grid = []
    for i, pair in pairs.items():
        mu_t = flow.measures[i]
        f_t = mu_t.density()
        rhs = -energy(weighted_form(form, mu_t), pair.phi, np.log(f_t))
        h = 0.5 * (times[i + 1] - times[i - 1])
        lhs = (wsq[i + 1] - wsq[i - 1]) / (2.0 * h) / 2.0
        residuals.append(float(abs(lhs - rhs)))
        grid.append(float(times[i]))
    return InequalityReport("dw2_derivative", tuple(grid), tuple(residuals), max(residuals))


def entropy_inequality_check(eta: ProbMeasure, sigma: ProbMeasure, K, form: DirichletForm) -> InequalityReport:
    """Residual of Ent(sigma) - Ent(eta) - (K/2) W2^2 >= -E_eta(phi, log f).

    The statement is existential in the potential, but the only freedom among
    the potentials kantorovich_potentials returns is the gauge, a constant
    added to phi, and the energy sees only differences of phi. So one
    potential decides.
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
    return InequalityReport("entropy_inequality", (0.0,), (-resid,), -resid, extras={"K": K})


def rcd_verify(form: DirichletForm, *, K=0.0, seed=0, t_grid=None, evi_tol=1e-2, n_probes=2) -> dict:
    """The RCD(K, inf) battery on form.space: EVI_K from n_probes random starts, each flowed over
    t_grid (default 0.01, ..., 0.1) against a random target, with a verdict at evi_tol. The rest of
    RCD, a quadratic Cheeger energy and a linear heat flow, holds on a graph form by construction."""
    _require_finite(K=K, evi_tol=evi_tol)
    if n_probes < 1:
        raise EviError(f"n_probes >= 1 required, got {n_probes!r}")
    if t_grid is None:
        t_grid = [0.01 * k for k in range(1, 11)]
    rng = np.random.default_rng(seed)
    m = form.vertex_measure
    n = form.n
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
    return {"checks": {"evi_battery": evi_rep}, "verdict": bool(worst_evi <= evi_tol), "tolerances": {"evi": evi_tol}}
