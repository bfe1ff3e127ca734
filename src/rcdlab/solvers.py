"""Shared convex machinery: exact transport LPs and the entropy minimizers.

Every HiGHS call goes through _solve_lp, the one place where a solver status
is read: a proven-infeasible LP raises InfeasibleError, any other failure
(time limit, numerical trouble) raises SolverError.

exact_ot solves the transport LP and returns primal plan and dual potentials
at machine precision; every W2 value in the package routes through it.
interior_point and epsilon_min measure the common slack of the linked-pair
polytope: two couplings sharing their second marginal, each under a
quadratic-cost budget.

entropy_budget_min minimizes relative entropy over that polytope with a
fully-corrective conditional-gradient method whose LP oracle returns exact
extreme points; weak duality of the oracle LP gives the certified optimality
gap, and it is the only certificate for those midpoints. dirac_pair_min
solves the case of Dirac anchors exactly through its low-dimensional dual.

entropy_capacity_min is an uncertified warm probe for entropy_budget_min: a
short barrier schedule of cyclic block-coordinate ascent on the dual of an
entropic relaxation, whose measure is used only as an extra gradient probe.

prox_entropy_step is the single-anchor variant used by the minimizing-
movement flow, with a debiasing linear term that cancels the smoothing drift
at the current iterate.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

_EXP_FLOOR = -745.0  # exp underflow threshold
_LP_TIME_LIMIT = 120.0  # seconds per HiGHS call


class SolverError(RuntimeError):
    """Solver failed its contract; carries the achieved gap when relevant."""

    def __init__(self, msg, gap=None):
        super().__init__(msg)
        self.gap = gap


class InfeasibleError(SolverError):
    """Constraint set empty; carries the minimal feasible budget found."""

    def __init__(self, msg, min_budget=None):
        super().__init__(msg)
        self.min_budget = min_budget


def _entropy(nu, m):
    """Ent_m(nu) = sum nu log(nu / m), with 0 log 0 = 0."""
    return float(np.sum(np.where(nu > 0, nu * np.log(np.maximum(nu / m, 1e-300)), 0.0)))


# ---------------------------------------------------------------------------
# LPs
# ---------------------------------------------------------------------------


def _solve_lp(obj, A_eq, b_eq, A_ub=None, b_ub=None, bounds=(0, None)):
    """linprog via HiGHS; retries without presolve, which can misreport tiny
    but feasible marginals as infeasible.

    Raises InfeasibleError when HiGHS proves the LP infeasible and SolverError
    on any other failure, so a time limit is never read as infeasibility.
    """
    lp = dict(A_eq=A_eq, b_eq=b_eq, A_ub=A_ub, b_ub=b_ub, bounds=bounds, method="highs")
    res = linprog(obj, **lp, options={"time_limit": _LP_TIME_LIMIT})
    if res.status != 0:
        res = linprog(obj, **lp, options={"presolve": False, "time_limit": _LP_TIME_LIMIT})
    if res.status == 2:
        raise InfeasibleError(f"LP infeasible: {res.message}")
    if res.status != 0:
        raise SolverError(f"LP failed with status {res.status}: {res.message}")
    return res


_MARGINAL_CACHE = {}


def _marginal_matrix(n0, n1):
    key = (n0, n1)
    if key not in _MARGINAL_CACHE:
        row_idx = np.repeat(np.arange(n0), n1)
        col_idx = np.tile(np.arange(n1), n0) + n0
        cells = np.arange(n0 * n1)
        rows = np.concatenate([row_idx, col_idx])
        cols = np.concatenate([cells, cells])
        vals = np.ones(2 * n0 * n1)
        _MARGINAL_CACHE[key] = sparse.csr_matrix((vals, (rows, cols)), shape=(n0 + n1, n0 * n1))
    return _MARGINAL_CACHE[key]


def exact_ot(C, a, b):
    """Exact LP optimum of <gamma, C> over couplings of (a, b).

    Returns (cost, plan, u, v) where (u, v) are dual potentials satisfying
    u(x) + v(y) <= C(x, y) and cost = <u, a> + <v, b> up to solver precision.
    """
    C = np.asarray(C, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n0, n1 = C.shape
    res = _solve_lp(C.ravel(), _marginal_matrix(n0, n1), np.concatenate([a, b]))
    marg = res.eqlin.marginals
    return float(res.fun), res.x.reshape(n0, n1), marg[:n0].copy(), marg[n0:].copy()


@functools.lru_cache(maxsize=256)
def _linked_pair_matrix(s0, s1, n):
    M0, M1 = _marginal_matrix(s0, n), _marginal_matrix(s1, n)
    return sparse.bmat([[M0[:s0], None], [None, M1[:s1]], [M0[s0:], -M1[s1:]]], format="csr")


def _linked_pair_lp(C0, C1, mu0, mu1, scale=(1.0, 1.0)):
    """Constraints on two couplings, of (mu0, nu) and of (mu1, nu), that share
    their second marginal nu; the variables are the raveled couplings.

    Returns (A_eq, b_eq, budget_rows): the marginal equalities and the dense
    rows <gamma_i, C_i> / scale_i.
    """
    s0, n = C0.shape
    rows = np.zeros((2, C0.size + C1.size))
    rows[0, : C0.size] = C0.ravel() / scale[0]
    rows[1, C0.size :] = C1.ravel() / scale[1]
    return _linked_pair_matrix(s0, C1.shape[0], n), np.concatenate([mu0, mu1, np.zeros(n)]), rows


def interior_point(C0, C1, mu0, mu1, budget0, budget1):
    """Maximize the common slack s over couplings with costs <= budgets - s.

    s < 0 measures the uniform squared-budget inflation needed to reach
    feasibility. Returns (s, nu).
    """
    s0, n = C0.shape
    A_eq, b_eq, rows = _linked_pair_lp(C0, C1, mu0, mu1)
    N = rows.shape[1]
    # one more variable, the free slack s: absent from the equalities, in both budget rows
    A_eq = sparse.csr_matrix((A_eq.data, A_eq.indices, A_eq.indptr), shape=(A_eq.shape[0], N + 1))
    A_ub = sparse.csr_matrix(np.hstack([rows, np.ones((2, 1))]))
    obj = np.zeros(N + 1)
    obj[N] = -1.0
    res = _solve_lp(obj, A_eq, b_eq, A_ub, np.array([budget0, budget1]),
                    bounds=[(0, None)] * N + [(None, None)])
    nu = res.x[: s0 * n].reshape(s0, n).sum(axis=0)
    return float(res.x[N]), nu


def epsilon_min(C, mu0, mu1, t, W, tol=1e-10):
    """Least uniform relaxation of the two intermediate-set radius constraints:
    min over nu of max(W2(mu0,nu) - tW, W2(mu1,nu) - (1-t)W, 0), by bisection
    with one feasibility LP per step."""
    sel0 = mu0 > 0
    sel1 = mu1 > 0
    C0, C1 = C[sel0], C[sel1]
    m0, m1 = mu0[sel0], mu1[sel1]

    def slack(eps):
        s, _ = interior_point(C0, C1, m0, m1, (t * W + eps) ** 2, ((1 - t) * W + eps) ** 2)
        return s

    if slack(0.0) >= 0:
        return 0.0
    lo, hi = 0.0, max(W, tol)
    while slack(hi) < 0:
        hi *= 2
        if hi > 1e6 * max(W, 1.0):
            raise SolverError("epsilon_min bracket failure")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if slack(mid) >= 0:
            hi = mid
        else:
            lo = mid
    return hi


def _budgeted_oracle(C0, C1, mu0, mu1, budgets, c):
    """LP oracle: minimize <c, nu> over the linked polytope with cost budgets.

    Budget rows are rescaled to unit right-hand side and the objective is
    shifted to be nonnegative; both leave the conditional-gradient bound
    invariant while keeping the LP well scaled at small budgets. Returns
    (nu_vertex, optimal value).
    """
    s0, n = C0.shape
    scale = np.maximum(np.asarray(budgets, dtype=float), 1e-14)
    A_eq, b_eq, rows = _linked_pair_lp(C0, C1, mu0, mu1, scale)
    shift = float(c.min())
    obj = np.concatenate([np.tile(c - shift, s0), np.zeros(C1.size)])
    res = _solve_lp(obj, A_eq, b_eq, sparse.csr_matrix(rows), np.ones(2))
    return res.x[: s0 * n].reshape(s0, n).sum(axis=0), float(res.fun) + shift


# ---------------------------------------------------------------------------
# entropic warm probe
# ---------------------------------------------------------------------------

def logsumexp(a, axis=None):
    amax = np.max(a, axis=axis, keepdims=True)
    amax = np.where(np.isfinite(amax), amax, 0.0)
    return np.log(np.sum(np.exp(np.maximum(a - amax, _EXP_FLOOR)), axis=axis)) + np.squeeze(amax, axis=axis)


def _lambda_update(base, C, tau, budget, lam0):
    """Solve <gamma(lam), C> = budget over lam >= 0 for gamma = exp(base - lam*C/tau).

    log<gamma(lam), C> is convex, decreasing; Newton from the infeasible side
    increases monotonically to the root, bisection covers the other side.
    """
    logb = np.log(budget)

    def moments(lam):
        E = base - lam * C / tau
        shift = E.max()
        G = np.exp(np.maximum(E - shift, _EXP_FLOOR))
        c1 = float((G * C).sum())
        if c1 <= 0.0:
            return -np.inf, 1.0
        return np.log(c1) + shift, float((G * C * C).sum()) / c1

    lc0, _ = moments(0.0)
    if lc0 <= logb:
        return 0.0
    lam = max(lam0, 0.0)
    lc, ratio = moments(lam)
    if lc <= logb:  # overshot previously: bisect in [0, lam]
        lo, hi = 0.0, lam
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if moments(mid)[0] > logb:
                lo = mid
            else:
                hi = mid
            if hi - lo <= 1e-13 * (1.0 + hi):
                break
        return hi
    for _ in range(100):
        lam_new = lam + (lc - logb) * tau / max(ratio, 1e-300)
        lc, ratio = moments(lam_new)
        if abs(lc - logb) <= 1e-12 * max(1.0, abs(logb)):
            return lam_new
        if lam_new - lam <= 1e-15 * (1.0 + lam):
            return lam_new
        lam = lam_new
    return lam


def entropy_capacity_min(m, anchors, budgets):
    """Uncertified warm probe for entropy_budget_min.

    Approximately minimizes Ent_m(nu) over nu admitting couplings to the
    anchors with squared-cost budgets; anchors: list of (weights, cost_rows),
    cost_rows shaped (support, n). Runs cyclic exact block-coordinate ascent on
    the dual of an entropic-barrier relaxation down a short temperature
    schedule: marginal and linking potentials have closed-form updates, each
    budget multiplier a safeguarded Newton step. Returns the primal measure of
    the last dual iterate; it need not be feasible.
    """
    tau_floor, max_sweeps = 5e-2, 80
    m = np.asarray(m, dtype=float)
    n = len(m)
    k = len(anchors)
    sup_mus = [np.asarray(a[0], dtype=float) for a in anchors]
    Cs = [np.asarray(a[1], dtype=float) for a in anchors]
    budgets = np.maximum(np.asarray(budgets, dtype=float), 1e-18)
    log_m = np.log(m)
    log_mus = [np.log(mu) for mu in sup_mus]

    scale = max(max(float(C.max()) for C in Cs), 1e-9)
    schedule = []
    tau = 0.5 * scale
    while tau > tau_floor:
        schedule.append(tau)
        tau /= 5.0
    schedule.append(tau_floor)

    ws = np.zeros((k, n))
    lam = np.zeros(k)
    for tau in schedule:
        for _ in range(max_sweeps):
            logT = np.empty((k, n))
            for i in range(k):
                lse = logsumexp((ws[i][None, :] - lam[i] * Cs[i]) / tau + log_m[None, :], axis=1)
                alpha = tau * (log_mus[i] - lse + 1.0)
                base = (alpha[:, None] + ws[i][None, :]) / tau + log_m[None, :] - 1.0
                lam[i] = _lambda_update(base, Cs[i], tau, budgets[i], lam[i])
                logT[i] = logsumexp((alpha[:, None] - lam[i] * Cs[i]) / tau - 1.0, axis=0)
            b = -1.0 - logT
            ws_new = tau * b - (tau * tau * b.sum(axis=0) / (1.0 + k * tau))[None, :]
            delta = np.abs(ws_new - ws).max()
            ws = ws_new
            if delta < 1e-10 * max(tau, 1e-7):
                break

    nu = m * np.exp(np.maximum(-1.0 - ws.sum(axis=0), _EXP_FLOOR))
    if nu.sum() <= 0:
        raise SolverError("entropy engine produced the zero vector")
    return nu / nu.sum()


# ---------------------------------------------------------------------------
# certified entropy minimization over the budgeted linked polytope
# ---------------------------------------------------------------------------

@dataclass
class EntropyMinResult:
    """Certified output of entropy_budget_min."""

    nu: np.ndarray               # feasible middle marginal, sums to 1
    entropy: float               # Ent_m(nu)
    dual_bound: float            # certified lower bound on the optimum
    gap: float                   # entropy - dual_bound
    transport_costs: np.ndarray  # exact squared transport costs to the anchors
    iterations: int


def _hull_minimize(vertices, m, theta0=None, iters=120):
    """Minimize Ent_m over the convex hull of the vertex rows: mirror descent
    with Armijo line search, then an SLSQP polish on the weight simplex."""
    from scipy.optimize import minimize as _scipy_min

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
            cand = theta * np.exp(np.maximum(-s * g, _EXP_FLOOR))
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
    res = _scipy_min(
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


def entropy_budget_min(m, anchors, budgets, tol=1e-3, max_oracle=80, warm_points=()):
    """Certified entropy minimization over the budgeted linked polytope.

    Fully-corrective conditional-gradient method: the LP oracle returns exact
    extreme points of the feasible set (so every hull iterate is exactly
    feasible) and the hull weights are re-optimized after each oracle call.

    The certificate is the conditional-gradient gap made rigorous: with
    c = grad Ent at the incumbent on its support, convexity plus LP weak
    duality give Ent >= Ent(nu) + [LP min <c, .> - <c, nu>] over the feasible
    set, corrected by -sum m_y e^{c_y - 1} on the incumbent's zero coordinates
    (the pointwise minimum of the entropy integrand against the chosen linear
    lower bound there). warm_points supply extra gradient probes; they need
    not be feasible, only their gradients are used.
    """
    m = np.asarray(m, dtype=float)
    sup_mus = [np.asarray(a[0], dtype=float) for a in anchors]
    Cs = [np.asarray(a[1], dtype=float) for a in anchors]
    budgets = np.asarray(budgets, dtype=float)
    CLAMP = -60.0  # zero-coordinate gradient; correction term ~ e^{-61} per site

    def grad_at(nu):
        return np.where(nu > 0, np.log(np.maximum(nu / m, 1e-300)) + 1.0, CLAMP)

    def oracle(c):
        return _budgeted_oracle(Cs[0], Cs[1], sup_mus[0], sup_mus[1], budgets, c)

    probes = [np.zeros(len(m))] + [grad_at(p) for p in warm_points]
    vertices = [oracle(c)[0] for c in probes]
    theta, _ = _hull_minimize(np.array(vertices), m)

    best = None
    for it in range(max_oracle):
        nu = theta @ np.array(vertices)
        nu = np.maximum(nu, 0.0)
        nu = nu / nu.sum()
        ent = _entropy(nu, m)
        c = grad_at(nu)
        v_new, lp_value = oracle(c)
        zero_corr = float(np.sum(m[nu <= 0] * np.exp(CLAMP - 1.0)))
        bound = ent + lp_value - float(c @ nu) - zero_corr
        if best is None or ent - bound < best.gap or ent < best.entropy - 1e-15:
            prev = best.dual_bound if best else -np.inf
            best = EntropyMinResult(nu=nu, entropy=ent, dual_bound=max(bound, prev), gap=0.0,
                                    transport_costs=None, iterations=it)
        else:
            best.dual_bound = max(best.dual_bound, bound)
        best.gap = best.entropy - best.dual_bound
        if best.gap <= tol:
            break
        vertices.append(v_new)
        theta, _ = _hull_minimize(np.array(vertices), m, theta0=np.append(theta * (1 - 1e-3), 1e-3))
    if best.gap > tol:
        raise SolverError(f"budgeted entropy gap {best.gap:.3e} exceeds tol {tol:.3e}", gap=best.gap)
    best.transport_costs = np.array([exact_ot(C, mu_s, best.nu)[0] for mu_s, C in zip(sup_mus, Cs)])
    return best


def dirac_pair_min(m, q_list, budgets, lam_cap=1e12, sweeps=80):
    """Entropy minimization when every anchor is a Dirac mass.

    The budgets are then linear constraints <nu, q_i> <= b_i and the dual is a
    low-dimensional exponential-family fit. Cyclic coordinate bisection on the
    concave dual is used because the feasible set can degenerate to a single
    point, where the multipliers diverge and the exponential weights underflow
    to an exact vertex. Returns (nu, entropy, dual_bound, lam).
    """
    m = np.asarray(m, dtype=float)
    q = np.asarray(q_list, dtype=float)
    b = np.asarray(budgets, dtype=float)
    k = q.shape[0]
    lam = np.zeros(k)

    def state(lam_vec):
        e = np.log(m) - lam_vec @ q
        shift = e.max()
        p = np.exp(np.maximum(e - shift, _EXP_FLOOR))
        Z = p.sum()
        return p / Z, np.log(Z) + shift

    def moment(lam_vec, i):
        nu, _ = state(lam_vec)
        return float(nu @ q[i])

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
        # the dual can recede along a ray when the budgets pin a vertex;
        # climb the current direction until its directional derivative flips
        nonlocal lam
        norm = np.abs(lam).max()
        if norm <= 0:
            return
        direc = lam / norm

        def dslope(s):
            nu, _ = state(s * direc)
            return float(nu @ (direc @ q)) - float(direc @ b)

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
    bound = -logZ - float(lam @ b)
    ent = _entropy(nu, m)
    return nu, ent, bound, lam


# ---------------------------------------------------------------------------
# proximal entropy step for the minimizing-movement flow
# ---------------------------------------------------------------------------

def symmetric_potential(mu, C, m, eps, iters=2000, tol=1e-13):
    """Self-transport potential of mu at temperature eps: the fixed point of
    the symmetric scaling for the problem transporting mu onto itself."""
    log_m = np.log(m)
    log_mu = np.log(np.maximum(mu, 1e-300))
    p = np.zeros(len(mu))
    for _ in range(iters):
        lse = logsumexp((p[None, :] - C) / eps + log_m[None, :] - 1.0, axis=1)
        p_new = 0.5 * (p + eps * (log_mu - log_m) - eps * lse)
        if np.abs(p_new - p).max() < tol * eps:
            return p_new
        p = p_new
    return p


def _round_coupling(g, a, b):
    """Rescale a positive matrix to exact marginals (a, b)."""
    g = g * np.minimum(1.0, a / np.maximum(g.sum(axis=1), 1e-300))[:, None]
    g = g * np.minimum(1.0, b / np.maximum(g.sum(axis=0), 1e-300))[None, :]
    da = a - g.sum(axis=1)
    db = b - g.sum(axis=0)
    s = da.sum()
    if s > 1e-300:
        g = g + np.outer(np.maximum(da, 0.0), np.maximum(db, 0.0)) / s
    return g


def prox_entropy_step(mu, C, m, tau, taub, debias=True, max_sweeps=20000, sweep_tol=1e-11):
    """One minimizing-movement step for the entropy.

    Solves min_nu Ent_m(nu) + [<g, C> + eps KL(g | 1 x m)]/(2 tau) - <p, nu>/(2 tau)
    over couplings g of (mu, nu), with smoothing temperature eps = 2*tau*taub
    and p the self-transport potential of mu (the debias term; it makes nu=mu
    stationary when mu minimizes the entropy). Returns (nu, certified duality
    gap of the solved program, sweeps).
    """
    m = np.asarray(m, dtype=float)
    mu = np.asarray(mu, dtype=float)
    n = len(m)
    lam = 1.0 / (2.0 * tau)
    eps = taub / lam
    sel = mu > 0
    Cr = C[sel]
    log_m = np.log(m)
    log_mu = np.log(mu[sel])

    dbf = np.zeros(n)
    if debias:
        p = symmetric_potential(mu[sel], C[np.ix_(sel, sel)], m[sel], eps)
        dbf[sel] = p / (2.0 * tau)

    w = np.zeros(n)
    alpha = np.zeros(int(sel.sum()))
    sweeps = 0
    for sweeps in range(1, max_sweeps + 1):
        lse = logsumexp((w[None, :] - lam * Cr) / taub + log_m[None, :], axis=1)
        alpha = taub * (log_mu - lse + 1.0)
        logT = logsumexp((alpha[:, None] - lam * Cr) / taub - 1.0, axis=0)
        w_new = taub * (-1.0 + dbf - logT) / (1.0 + taub)
        delta = np.abs(w_new - w).max()
        w = w_new
        if delta < sweep_tol * max(taub, 1e-8):
            break

    shift = -1.0 - w + dbf
    nu_raw = m * np.exp(np.maximum(shift, _EXP_FLOOR))
    nu = nu_raw / nu_raw.sum()

    # dual lower bound of the solved (smoothed, debiased) program
    loggam = (alpha[:, None] + w[None, :]) / taub - lam * Cr / taub - 1.0 + log_m[None, :]
    gam_mass = float(np.exp(np.maximum(loggam - loggam.max(), _EXP_FLOOR)).sum()) * np.exp(min(loggam.max(), 700.0))
    dual = float(alpha @ mu[sel]) - taub * gam_mass - float(nu_raw.sum())

    # primal at a feasible point: round the dual coupling to exact marginals
    gam = np.exp(np.maximum(loggam, _EXP_FLOOR))
    gam = _round_coupling(gam, mu[sel], nu)
    ent_nu = _entropy(nu, m)
    kl_term = _entropy(gam, m)
    primal = ent_nu - float(dbf @ nu) + lam * float((gam * Cr).sum()) + taub * kl_term
    return nu, float(primal - dual), sweeps
