"""Entropy-minimizing intermediate measures and dyadic geodesic construction.

The intermediate set I_t^eps(mu0, mu1) collects measures within tW + eps of
mu0 and (1-t)W + eps of mu1 in W2. On a finite space the exact set (eps = 0)
is often empty, so builders first compute the least feasible relaxation with
a feasibility LP and report the slack actually used. Midpoint measures are
entropy minimizers over the relaxed set, produced by a conditional-gradient
solver with certified optimality gaps; when both endpoints are Dirac masses
the budgets are linear in the middle marginal and an exact exponential-family
solve is used instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np

from .measures import ProbMeasure, relative_entropy, support_radius
from .mmspace import _freeze
from .ot import KantorovichPair, TransportPlan, w2
from .solvers import (
    InfeasibleError,
    SolverError,
    dirac_pair_min,
    entropy_budget_min,
    entropy_capacity_min,
    epsilon_min as _epsilon_min_lp,
    exact_ot,
    interior_point,
)


class GeodesyError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class IntermediateSpec:
    """Radius data of one intermediate-set problem."""

    t: float
    epsilon: float
    W: float

    def radii(self):
        return (self.t * self.W + self.epsilon, (1.0 - self.t) * self.W + self.epsilon)


@dataclass(frozen=True, eq=False)
class MinimizerCertificate:
    """Optimality evidence for one intermediate entropy minimization."""

    entropy: float
    dual_bound: float
    gap: float
    transport_costs: tuple
    eps_used: float
    method: str
    iterations: int
    spec: IntermediateSpec | None = None


@dataclass(frozen=True, eq=False)
class GeodesicTrace:
    """Dyadic-time family of measures with entropy / W2 / density diagnostics.

    construction maps each interior time to the pair of already-fixed times it
    was selected between; these are the triples the convexity composition
    argument runs over.
    """

    times: tuple
    measures: tuple
    entropies: tuple
    w2_from_start: tuple
    sup_density: tuple
    epsilon_used: float
    certificates: tuple = ()
    construction: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def measure_at(self, t):
        for s, mu in zip(self.times, self.measures):
            if abs(s - t) < 1e-12:
                return mu
        raise KeyError(f"time {t} not recorded")


@dataclass(frozen=True, eq=False)
class DiscreteCurvePlan:
    """Weighted time-indexed point paths sampled from a trace."""

    curves: tuple              # tuple of point-index tuples, one per time
    weights: np.ndarray
    compressibility: float
    action: float

    def __post_init__(self):
        object.__setattr__(self, "weights", _freeze(self.weights))


def _snap(w, rel=1e-12):
    """Drop weights below a relative threshold and renormalize; keeps exact
    lattice instances exactly on the lattice."""
    w = np.where(w >= rel * w.max(), w, 0.0)
    return w / w.sum()


def epsilon_min(mu0: ProbMeasure, mu1: ProbMeasure, t, tol=1e-10) -> float:
    """Least uniform relaxation making I_t^eps nonempty."""
    C = mu0.space.metric ** 2
    W = w2(mu0, mu1)[0]
    return _epsilon_min_lp(C, mu0.weights, mu1.weights, t, W, tol=tol)


def intermediate_entropy_min(mu0: ProbMeasure, mu1: ProbMeasure, t, epsilon, tol=1e-3, W=None):
    """Entropy minimizer over I_t^epsilon with a certified optimality gap.

    Raises InfeasibleError (carrying the least feasible relaxation) when the
    requested epsilon leaves the set empty; raises SolverError when the
    certificate gap cannot be brought below tol.
    """
    if not (0.0 <= t <= 1.0):
        raise GeodesyError("t in [0,1] required")
    if epsilon < 0:
        raise GeodesyError("epsilon >= 0 required")
    space = mu0.space
    m = space.ref_measure
    C = space.metric ** 2
    if W is None:
        W = w2(mu0, mu1)[0]

    prob = IntermediateSpec(float(t), float(epsilon), float(W))
    if epsilon == 0.0 and t in (0.0, 1.0):
        mu = mu0 if t == 0.0 else mu1
        ent = relative_entropy(mu, m)
        cert = MinimizerCertificate(ent, ent, 0.0, (0.0 if t == 0.0 else W**2, W**2 if t == 0.0 else 0.0), 0.0, "endpoint", 0, prob)
        return mu, cert
    if W < 1e-14:
        ent = relative_entropy(mu0, m)
        return mu0, MinimizerCertificate(ent, ent, 0.0, (0.0, 0.0), 0.0, "coincident", 0, prob)

    budgets = np.array([(t * W + epsilon) ** 2, ((1.0 - t) * W + epsilon) ** 2])
    sel0 = mu0.weights > 0
    sel1 = mu1.weights > 0
    C0, C1 = C[sel0], C[sel1]
    m0, m1 = mu0.weights[sel0], mu1.weights[sel1]

    slack, _ = interior_point(C0, C1, m0, m1, budgets[0], budgets[1])
    if slack < -1e-12:
        eps_need = epsilon_min(mu0, mu1, t)
        raise InfeasibleError(
            f"I_t^eps empty at epsilon={epsilon:.3e}; needs >= {eps_need:.3e}", min_budget=eps_need
        )

    if sel0.sum() == 1 and sel1.sum() == 1:
        nu, ent, bound, _ = dirac_pair_min(m, np.vstack([C0[0], C1[0]]), budgets)
        nu = _snap(nu)
        costs = (float(nu @ C0[0]), float(nu @ C1[0]))
        eps_used = max(np.sqrt(max(costs[0], 0.0)) - t * W, np.sqrt(max(costs[1], 0.0)) - (1 - t) * W, 0.0)
        cert = MinimizerCertificate(ent, bound, ent - bound, costs, float(eps_used), "dirac_newton", 0, prob)
        mu = ProbMeasure(space, nu / nu.sum())
        return mu, cert

    warm = []
    try:
        warm.append(entropy_capacity_min(m, [(m0, C0), (m1, C1)], budgets))
    except SolverError:
        pass
    res = entropy_budget_min(m, [(m0, C0), (m1, C1)], budgets, tol=tol, warm_points=warm)
    eps_used = max(
        float(np.sqrt(max(res.transport_costs[0], 0.0)) - t * W),
        float(np.sqrt(max(res.transport_costs[1], 0.0)) - (1 - t) * W),
        0.0,
    )
    cert = MinimizerCertificate(
        res.entropy, res.dual_bound, res.gap, tuple(map(float, res.transport_costs)),
        eps_used, "budgeted_fw", res.iterations, prob,
    )
    return ProbMeasure(space, _snap(res.nu)), cert


def build_good_geodesic(mu0: ProbMeasure, mu1: ProbMeasure, depth, epsilon="auto", K=0.0, tol=1e-3) -> GeodesicTrace:
    """Dyadic entropy-minimizing interpolation between mu0 and mu1.

    At each refinement level the midpoint of every consecutive pair is the
    entropy minimizer of the relaxed intermediate set between them. When mu0
    carries a gaussian profile tag and mu1 a bounded-support tag, the time
    t0 = min(c2/(2 K^-), 1/2) is fixed first and the density bound constant
    max(sup rho1, c1) * exp((2 K^- + c2) D^2) is recorded in meta.
    """
    if depth < 0:
        raise GeodesyError("depth >= 0 required")
    space = mu0.space
    m = space.ref_measure
    auto = epsilon == "auto"
    eps_req = 0.0 if auto else float(epsilon)

    gauss = mu0.meta.get("gaussian")
    bounded = mu1.meta.get("bounded_support")
    t0 = None
    meta = {}
    if gauss is not None and bounded is not None:
        Kminus = max(-K, 0.0)
        c1, c2, x0 = gauss["c1"], gauss["c2"], gauss["x0"]
        t0 = 0.5 if Kminus == 0.0 else min(c2 / (2.0 * Kminus), 0.5)
        D = support_radius(mu1, x0)
        rho1_sup = float(mu1.density().max())
        bound_const = max(rho1_sup, c1) * float(np.exp((2.0 * Kminus + c2) * D * D))
        meta = {"t0": t0, "density_bound": bound_const, "D": D, "c1": c1, "c2": c2, "K": K}

    total_W = w2(mu0, mu1)[0]
    nodes = {0.0: mu0, 1.0: mu1}
    certs = {}
    construction = {}
    eps_max = 0.0

    def solve_between(ta, tb, tmid):
        nonlocal eps_max
        a, b = nodes[ta], nodes[tb]
        frac = (tmid - ta) / (tb - ta)
        Wab = w2(a, b)[0]
        eps_here = eps_req
        if auto:
            # one-LP estimate of the needed relaxation; the retry below
            # covers underestimates, so no bisection is needed here
            sel_a, sel_b = a.weights > 0, b.weights > 0
            C = space.metric ** 2
            s0, _ = interior_point(
                C[sel_a], C[sel_b], a.weights[sel_a], b.weights[sel_b],
                (frac * Wab) ** 2, ((1 - frac) * Wab) ** 2,
            )
            if s0 >= 0:
                eps_here = eps_req
            else:
                r = min(frac, 1 - frac) * Wab
                need = float(np.sqrt(r * r - s0) - r)
                eps_here = max(eps_req, 1.2 * need + 1e-6)
        try:
            nu, cert = intermediate_entropy_min(a, b, frac, eps_here, tol=tol, W=Wab)
        except InfeasibleError as err:
            need = err.min_budget if err.min_budget is not None else epsilon_min(a, b, frac)
            retry_eps = max(eps_here, need) + max(1e-6, 0.05 * need)
            if not auto and retry_eps > eps_req:
                raise GeodesyError(
                    f"infeasible interval ({ta}, {tb}) at epsilon={eps_here:.3e}; needs {need:.3e}"
                ) from err
            nu, cert = intermediate_entropy_min(a, b, frac, retry_eps, tol=tol, W=Wab)
        nodes[tmid] = nu
        certs[tmid] = cert
        construction[tmid] = (ta, tb)
        eps_max = max(eps_max, cert.eps_used, eps_here if not auto else cert.eps_used)

    if t0 is not None and abs(t0 - 0.5) > 1e-12:
        solve_between(0.0, 1.0, t0)
        anchors = [0.0, t0, 1.0]
    else:
        anchors = [0.0, 1.0]
        if t0 is not None:
            meta["t0"] = 0.5

    for _ in range(depth):
        times = sorted(nodes)
        for ta, tb in zip(times, times[1:]):
            solve_between(ta, tb, 0.5 * (ta + tb))

    times = sorted(nodes)
    measures = [nodes[t] for t in times]
    entropies = [relative_entropy(mu, m) for mu in measures]
    w2s = [w2(mu0, mu)[0] for mu in measures]
    sup_d = [float(mu.density().max()) for mu in measures]
    cert_list = [certs.get(t) for t in times]
    return GeodesicTrace(
        tuple(times), tuple(measures), tuple(entropies), tuple(w2s), tuple(sup_d),
        float(eps_max), tuple(cert_list), construction, meta,
    )


def cd_residual(s, t, r, Es, Et, Er, W2sq_sr, K):
    """Signed violation of the interpolation convexity inequality on (s, t, r).

    Pure arithmetic in the inputs' number type, so exact rational inputs give
    exact rational residuals.
    """
    span = r - s
    a = (r - t) / span
    b = (t - s) / span
    penalty = (K / 2) * a * b * W2sq_sr if K != 0 else 0 * W2sq_sr
    return Et - (a * Es + b * Er - penalty)


def synthetic_entropy_profile(t, E0, E1, K, W):
    """Entropy profile meeting the convexity inequality with equality; exact
    for Fraction inputs."""
    one = t * 0 + 1
    return (one - t) * E0 + t * E1 - (K / 2) * t * (one - t) * W * W


def cd_convexity_check(trace: GeodesicTrace, K) -> dict:
    """Residuals of the convexity inequality; positive residual = violation.

    The asserted set follows the composition argument: each interior measure
    against the interval it was selected in, plus every global (0, t, 1)
    triple. Residuals over consecutive triples of the final grid are also
    reported (grid_residuals); on a lattice those carry an irreducible
    quantization zigzag and are diagnostics, not assertions.
    """
    times = trace.times
    ent = {t: e for t, e in zip(times, trace.entropies)}
    node = {t: mu for t, mu in zip(times, trace.measures)}
    wsq_cache = {}

    def wsq(a, b):
        if (a, b) not in wsq_cache:
            wsq_cache[(a, b)] = w2(node[a], node[b])[0] ** 2
        return wsq_cache[(a, b)]

    local = []
    for t, (s, r) in sorted(trace.construction.items()):
        local.append(float(cd_residual(s, t, r, ent[s], ent[t], ent[r], wsq(s, r), K)))
    glob = []
    W2sq = wsq(times[0], times[-1])
    for t in times[1:-1]:
        glob.append(float(cd_residual(times[0], t, times[-1], ent[times[0]], ent[t], ent[times[-1]], W2sq, K)))
    grid = []
    for i in range(1, len(times) - 1):
        grid.append(float(cd_residual(times[i - 1], times[i], times[i + 1],
                                      ent[times[i - 1]], ent[times[i]], ent[times[i + 1]],
                                      wsq(times[i - 1], times[i + 1]), K)))
    asserted = local + glob
    worst = max(asserted) if asserted else 0.0
    return {
        "local_residuals": local,
        "global_residuals": glob,
        "grid_residuals": grid,
        "worst": float(worst),
    }


def length_band_split(plan: TransportPlan, trace: GeodesicTrace, bands, t=None) -> list:
    """Split a plan's mass by transport length and reconstruct each band's
    intermediate marginal through the trace.

    bands must partition [0, max length]. The time-t marginal of each band is
    obtained by gluing exact couplings endpoint -> trace(t) -> endpoint
    through the trace measure. Returns a list of
    (band, sub-plan mass-matrix, mass, intermediate marginal) tuples.
    """
    space = trace.measures[0].space
    d = space.metric
    g = plan.coupling
    lengths = d[g > 0]
    top = float(lengths.max()) if lengths.size else 0.0
    bands = [(float(a), float(b)) for a, b in bands]
    bands_sorted = sorted(bands)
    if bands_sorted[0][0] > 1e-12 or any(abs(a2 - b1) > 1e-12 for (_, b1), (a2, _) in zip(bands_sorted, bands_sorted[1:])) or bands_sorted[-1][1] < top - 1e-12:
        raise GeodesyError("bands must partition [0, max length]")
    if t is None:
        t = trace.times[len(trace.times) // 2]
    nu_t = trace.measure_at(t)
    mu0 = trace.measures[0]
    _, g0, _, _ = exact_ot(d**2, mu0.weights, nu_t.weights)
    out = []
    for a, b in bands:
        sel = (d >= a) & (d < b if b < top else d <= b + 1e-12)
        sub = np.where(sel, g, 0.0)
        mass = float(sub.sum())
        # glue through the trace measure: P(x, y, z) = g0(x,y) g1(y,z) / nu(y)
        row = sub.sum(axis=1)  # mass leaving x in this band
        share_x = row / np.maximum(mu0.weights, 1e-300)
        marg = ((g0 * share_x[:, None]).sum(axis=0))
        out.append(((a, b), sub, mass, marg))
    return out


def combine_restricted(trace: GeodesicTrace, plan: TransportPlan, f_weights, nu_inner: ProbMeasure, lam_time) -> ProbMeasure:
    """Surgery step: replace the selected plan fraction's intermediate marginal
    by nu_inner and keep the rest of the interpolation.

    f_weights is a per-atom selection fraction in [0, 1] over the plan matrix;
    the result is checked to lie in the relaxed intermediate set of the
    endpoints, within 1e-8 of the trace's recorded slack.
    """
    f = np.asarray(f_weights, dtype=float)
    g = plan.coupling
    if f.shape != g.shape:
        raise GeodesyError("f_weights must match the plan shape")
    if (f < -1e-12).any() or (f > 1 + 1e-12).any():
        raise GeodesyError("f_weights must lie in [0,1]")
    c = float((f * g).sum())
    if not (0.0 < c <= 1.0 + 1e-12):
        raise GeodesyError("selected mass must lie in (0, 1]")
    space = trace.measures[0].space
    d = space.metric
    nu_t = trace.measure_at(lam_time)
    mu0 = trace.measures[0]
    _, g0, _, _ = exact_ot(d**2, mu0.weights, nu_t.weights)
    kept_row = ((1.0 - f) * g).sum(axis=1)
    share_x = kept_row / np.maximum(mu0.weights, 1e-300)
    kept_marginal = (g0 * share_x[:, None]).sum(axis=0)
    weights = kept_marginal + c * nu_inner.weights
    total = weights.sum()
    if abs(total - 1.0) > 1e-8:
        raise GeodesyError(f"combined mass {total} != 1")
    out = ProbMeasure(space, weights / total)
    # verify membership in the relaxed intermediate set of the endpoints
    W = w2(trace.measures[0], trace.measures[-1])[0]
    t = lam_time
    wa = w2(trace.measures[0], out)[0]
    wb = w2(out, trace.measures[-1])[0]
    eps_here = max(wa - t * W, wb - (1 - t) * W, 0.0)
    if eps_here > trace.epsilon_used + 1e-8:
        raise GeodesyError(f"surgery left the intermediate set: slack {eps_here:.3e}")
    return out


def metric_brenier_probe(trace: GeodesicTrace, pair: KantorovichPair, t_values=None) -> dict:
    """Plan-weighted L2 gap between the potential difference quotient along
    reconstructed transport pairs and the extrapolated curve speed."""
    space = trace.measures[0].space
    d = space.metric
    mu0 = trace.measures[0]
    if t_values is None:
        t_values = [t for t in trace.times if 0.0 < t <= 0.5]
    gaps = []
    for t in t_values:
        nu_t = trace.measure_at(t)
        _, g0, _, _ = exact_ot(d**2, mu0.weights, nu_t.weights)
        num = 0.0
        mass = 0.0
        idx = np.argwhere(g0 > g0.max() * 1e-12)
        for x, y in idx:
            if x == y:
                continue
            quot = (pair.phi[x] - pair.phi[y]) / d[x, y]
            speed = d[x, y] / t
            num += g0[x, y] * (quot - speed) ** 2
            mass += g0[x, y]
        gaps.append(float(np.sqrt(num / mass)) if mass > 0 else 0.0)
    return {"t_values": list(map(float, t_values)), "l2_gaps": gaps}


def curve_plan_from_trace(trace: GeodesicTrace, max_curves=64) -> DiscreteCurvePlan:
    """Greedy path decomposition of the chain of consecutive couplings.

    Deterministic: strips the largest-mass path first. Gives a discrete curve
    plan with its compressibility constant and quadratic action.
    """
    space = trace.measures[0].space
    d = space.metric
    times = trace.times
    couplings = []
    for a, b in zip(trace.measures, trace.measures[1:]):
        couplings.append(exact_ot(d**2, a.weights, b.weights)[1].copy())
    curves = []
    weights = []
    for _ in range(max_curves):
        # follow argmax transitions from the heaviest available start
        start = int(np.argmax(couplings[0].sum(axis=1)))
        path = [start]
        mass = couplings[0].sum(axis=1)[start]
        for g in couplings:
            nxt = int(np.argmax(g[path[-1]]))
            mass = min(mass, g[path[-1], nxt])
            path.append(nxt)
        if mass <= 1e-12:
            break
        for g, (x, y) in zip(couplings, zip(path, path[1:])):
            g[x, y] -= mass
        curves.append(tuple(path))
        weights.append(mass)
    weights = np.asarray(weights, dtype=float)
    if weights.sum() <= 0:
        raise GeodesyError("trace produced no curve mass")
    weights = weights / weights.sum()
    m = space.ref_measure
    comp = 0.0
    for k, t in enumerate(times):
        marg = np.zeros(space.n)
        for w_, cur in zip(weights, curves):
            marg[cur[k]] += w_
        comp = max(comp, float((marg / m).max()))
    action = 0.0
    for w_, cur in zip(weights, curves):
        for k in range(len(times) - 1):
            dt = times[k + 1] - times[k]
            action += w_ * d[cur[k], cur[k + 1]] ** 2 / dt
    return DiscreteCurvePlan(tuple(curves), weights, float(comp), float(action))
