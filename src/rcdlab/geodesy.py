"""Entropy-minimizing intermediate measures and dyadic geodesic construction.

The intermediate set I_t^eps(mu0, mu1) collects measures within tW + eps of
mu0 and (1-t)W + eps of mu1 in W2. On a finite space the exact set (eps = 0)
is often empty, so builders first compute the least feasible relaxation
(solvers.epsilon_min, by dual Newton cuts on a feasibility LP) and report the
slack actually used. Midpoint measures are entropy minimizers over the relaxed
set, produced by a conditional-gradient solver with certified optimality gaps;
when both endpoints are Dirac masses the budgets are linear in the middle
marginal and an exact exponential-family solve is used instead.
Every W2 here is ot.w2_distance's; a build reads each interval's from the
certificate that opened it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np

from .measures import ProbMeasure, gaussian_measure, relative_entropy
from .mmspace import line_of
from .ot import w2_distance
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

_SNAP_REL = 1e-12  # _snap drops weights below this fraction of the largest


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


def _snap(w):
    """Drop weights below a relative threshold and renormalize; keeps exact
    lattice instances exactly on the lattice."""
    w = np.where(w >= _SNAP_REL * w.max(), w, 0.0)
    return w / w.sum()


def epsilon_min(mu0: ProbMeasure, mu1: ProbMeasure, t) -> float:
    """Least uniform relaxation making I_t^eps nonempty, by solvers.epsilon_min's
    dual Newton cuts: each iterate is a certified lower bound, and the value
    returned has verified slack."""
    return _epsilon_min_lp(mu0.space.metric ** 2, mu0.weights, mu1.weights, t, w2_distance(mu0, mu1))


def intermediate_entropy_min(mu0: ProbMeasure, mu1: ProbMeasure, t, epsilon, tol=1e-3, W=None):
    """Entropy minimizer over I_t^epsilon with a certified optimality gap.

    W is W2(mu0, mu1), ot.w2_distance's when not given. An epsilon whose
    squared radii are not finite (a NaN or infinite epsilon among them) is a
    GeodesyError. Raises InfeasibleError (carrying the least feasible
    relaxation) when the requested epsilon leaves the set empty; raises
    SolverError when the certificate gap cannot be brought below tol.
    """
    if not (0.0 <= t <= 1.0):
        raise GeodesyError("t in [0,1] required")
    if epsilon < 0:
        raise GeodesyError("epsilon >= 0 required")
    if W is None:
        W = w2_distance(mu0, mu1)
    prob = IntermediateSpec(float(t), float(epsilon), float(W))
    if not all(np.isfinite(r * r) for r in prob.radii()):
        raise GeodesyError(f"not finite: the squared radii at epsilon = {epsilon!r}")
    if epsilon == 0.0 and t in (0.0, 1.0):
        mu = mu0 if t == 0.0 else mu1
        ent = relative_entropy(mu, mu0.space.ref_measure)
        return mu, MinimizerCertificate(ent, ent, 0.0, (0.0 if t == 0.0 else W**2, W**2 if t == 0.0 else 0.0), 0.0, "endpoint", 0, prob)
    if W >= 1e-14:
        C = mu0.space.metric ** 2
        sel0, sel1 = mu0.weights > 0, mu1.weights > 0
        budgets = [r ** 2 for r in prob.radii()]
        if interior_point(C[sel0], C[sel1], mu0.weights[sel0], mu1.weights[sel1], *budgets)[0] < -1e-12:
            eps_need = _epsilon_min_lp(C, mu0.weights, mu1.weights, t, W)
            raise InfeasibleError(
                f"I_t^eps empty at epsilon={epsilon:.3e}; needs >= {eps_need:.3e}", min_budget=eps_need
            )
    return _entropy_min(mu0, mu1, prob, tol)


def _entropy_min(mu0, mu1, prob, tol):
    """The minimization behind intermediate_entropy_min, for 0 < t < 1 or
    epsilon > 0, on a set already known to be nonempty. The certificate's
    entropy, transport costs and eps_used are those of the returned (snapped)
    measure mu. Its costs are exact_ot's with the space's line, from mu0 to
    mu and from mu to mu1, so the square root of each is ot.w2_distance of
    its pair, bit for bit."""
    t, W = prob.t, prob.W
    space = mu0.space
    m = space.ref_measure
    C = space.metric ** 2
    if W < 1e-14:
        mu, bound, method, iterations = mu0, relative_entropy(mu0, m), "coincident", 0
    else:
        budgets = np.array([r ** 2 for r in prob.radii()])
        sel0 = mu0.weights > 0
        sel1 = mu1.weights > 0
        C0, C1 = C[sel0], C[sel1]
        m0, m1 = mu0.weights[sel0], mu1.weights[sel1]
        if sel0.sum() == 1 and sel1.sum() == 1:
            nu, bound = dirac_pair_min(m, np.vstack([C0[0], C1[0]]), budgets)
            method, iterations = "dirac_newton", 0
        else:
            warm = []
            try:
                warm.append(entropy_capacity_min(m, [(m0, C0), (m1, C1)], budgets))
            except SolverError:
                pass
            nu, bound, iterations = entropy_budget_min(m, [(m0, C0), (m1, C1)], budgets, tol=tol, warm_points=warm)
            method = "budgeted_fw"
        mu = ProbMeasure(space, _snap(nu))
    ent = relative_entropy(mu, m)
    costs = tuple(exact_ot(C, a.weights, b.weights, line_of(space))[0] for a, b in ((mu0, mu), (mu, mu1)))
    eps_used = max(np.sqrt(max(costs[0], 0.0)) - t * W, np.sqrt(max(costs[1], 0.0)) - (1.0 - t) * W, 0.0)
    return mu, MinimizerCertificate(ent, bound, ent - bound, costs, float(eps_used), method, iterations, prob)


def build_good_geodesic(mu0: ProbMeasure, mu1: ProbMeasure, depth, epsilon="auto", K=0.0, tol=1e-3) -> GeodesicTrace:
    """Dyadic entropy-minimizing interpolation between mu0 and mu1.

    At each refinement level the midpoint of every consecutive pair is the
    entropy minimizer of the relaxed intermediate set between them. When mu0
    carries gaussian_measure's tag and its weights are gaussian_measure's for
    the tag's c2 and x0, the time t0 = min(c2/(2 K^-), 1/2) is fixed first
    and the density bound constant max(sup rho1, c1) * exp((2 K^- + c2) D^2)
    is recorded in meta: c1 is mu0's sup-density and D the radius of mu1's
    support around x0, finite since the space is. A tag that is malformed or
    that the weights do not match is a GeodesyError, and so is an epsilon
    that is not finite or whose squared radii are not.

    Each W2 of the build is ot.w2_distance's and is solved once: W2(mu0, mu1)
    first, then, when a midpoint is placed in (ta, tb), its certificate's
    transport costs are W2^2(ta, tmid) and W2^2(tmid, tb) for the next level
    and for w2_from_start.
    """
    if depth < 0:
        raise GeodesyError("depth >= 0 required")
    space = mu0.space
    m = space.ref_measure
    auto = epsilon == "auto"
    eps_req = 0.0 if auto else float(epsilon)
    if not np.isfinite(eps_req):
        raise GeodesyError(f"not finite: epsilon = {epsilon!r}")

    t0 = None
    meta = {}
    if "gaussian" in mu0.meta:
        gauss = mu0.meta["gaussian"]
        try:
            profile = gaussian_measure(space, gauss["c2"], gauss["x0"])
        except (KeyError, TypeError, ValueError) as err:
            raise GeodesyError(f"malformed gaussian tag {gauss!r}: {type(err).__name__}: {err}") from None
        if not np.array_equal(mu0.weights, profile.weights):
            raise GeodesyError(f"mu0's weights are not those of its gaussian tag {gauss!r}")
        Kminus = max(-K, 0.0)
        c1, c2, x0 = float(mu0.density().max()), profile.meta["gaussian"]["c2"], profile.meta["gaussian"]["x0"]
        t0 = 0.5 if Kminus == 0.0 else min(c2 / (2.0 * Kminus), 0.5)
        D = float(mu1.space.metric[mu1.support(), x0].max())
        rho1_sup = float(mu1.density().max())
        bound_const = max(rho1_sup, c1) * float(np.exp((2.0 * Kminus + c2) * D * D))
        meta = {"t0": t0, "density_bound": bound_const, "D": D, "c1": c1, "c2": c2, "K": K}

    nodes = {0.0: mu0, 1.0: mu1}
    certs = {}
    construction = {}
    eps_max = 0.0
    w2s = {(0.0, 1.0): w2_distance(mu0, mu1)}  # (ta, tb) -> W2(nodes[ta], nodes[tb])

    def solve_between(ta, tb, tmid):
        nonlocal eps_max
        a, b = nodes[ta], nodes[tb]
        frac = (tmid - ta) / (tb - ta)
        Wab = w2s[ta, tb]
        if auto:
            # the least relaxation comes with verified slack and the set only
            # grows with epsilon, so the margin, which gives the entropy
            # minimizer room, needs no second feasibility check
            need = _epsilon_min_lp(space.metric ** 2, a.weights, b.weights, frac, Wab)
            eps_here = 1.2 * need + 1e-6 if need > 0 else 0.0
            nu, cert = _entropy_min(a, b, IntermediateSpec(frac, eps_here, Wab), tol)
        else:
            try:
                nu, cert = intermediate_entropy_min(a, b, frac, eps_req, tol, Wab)
            except InfeasibleError as err:
                if err.min_budget is None:  # a solver report, not an empty set
                    raise
                raise GeodesyError(
                    f"infeasible interval ({ta}, {tb}) at epsilon={eps_req:.3e}; needs {err.min_budget:.3e}"
                ) from err
        nodes[tmid] = nu
        certs[tmid] = cert
        construction[tmid] = (ta, tb)
        w2s[ta, tmid], w2s[tmid, tb] = (float(np.sqrt(max(c, 0.0))) for c in cert.transport_costs)
        eps_max = max(eps_max, cert.eps_used, eps_req)

    if t0 is not None and abs(t0 - 0.5) > 1e-12:
        solve_between(0.0, 1.0, t0)
    elif t0 is not None:
        meta["t0"] = 0.5

    for _ in range(depth):
        times = sorted(nodes)
        for ta, tb in zip(times, times[1:]):
            solve_between(ta, tb, 0.5 * (ta + tb))

    times = sorted(nodes)
    measures = [nodes[t] for t in times]
    entropies = [relative_entropy(mu, m) for mu in measures]
    from_start = [w2s[0.0, t] if (0.0, t) in w2s else w2_distance(mu0, nodes[t]) for t in times]
    sup_d = [float(mu.density().max()) for mu in measures]
    cert_list = [certs.get(t) for t in times]
    return GeodesicTrace(
        tuple(times), tuple(measures), tuple(entropies), tuple(from_start), tuple(sup_d),
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
    triple. The check solves nothing: W2(s, r) of an interval is the W of its
    measure's certificate and W2(mu0, mu1) the last w2_from_start, each
    ot.w2_distance of its two measures. A K that is not finite raises
    GeodesyError: a NaN worst would pass every comparison it meets. A trace
    with no interior time has no triple to assert and raises GeodesyError too.
    """
    if not np.isfinite(K):
        raise GeodesyError(f"not finite: K = {K!r}")
    times = trace.times
    ent = {t: e for t, e in zip(times, trace.entropies)}
    cert = {t: c for t, c in zip(times, trace.certificates)}
    local = []
    for t, (s, r) in sorted(trace.construction.items()):
        local.append(float(cd_residual(s, t, r, ent[s], ent[t], ent[r], cert[t].spec.W ** 2, K)))
    glob = []
    W2sq = trace.w2_from_start[-1] ** 2
    for t in times[1:-1]:
        glob.append(float(cd_residual(times[0], t, times[-1], ent[times[0]], ent[t], ent[times[-1]], W2sq, K)))
    if not glob:
        raise GeodesyError("a trace with no interior time has no triple to check")
    return {
        "local_residuals": local,
        "global_residuals": glob,
        "worst": max(local + glob),
    }
