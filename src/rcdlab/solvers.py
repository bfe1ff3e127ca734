"""Shared convex machinery: exact transport LPs and the entropy minimizers.

Every HiGHS call goes through _solve_lp, the one place where a solver status
is read: a proven-infeasible LP raises InfeasibleError, any other failure
(time limit, numerical trouble) raises SolverError. Each LP is one HiGHS call
without presolve, which misreports tiny marginals as infeasible and costs about
40% of a 64x64 transport LP, at primal tolerance 1e-10 to match ot.MARGINAL_TOL.
That call is linprog below: it drives the HiGHS core bundled with scipy
directly, with the model and options scipy.optimize.linprog would pass, so the
results are scipy's bits without scipy's per-call wrapper work, which cost more
than the solve on the small transport LPs. It keeps the name linprog so that
perfbench's solvers.linprog span (every HiGHS call) and the tests that
substitute solvers.linprog keep their meaning.

exact_ot solves the transport LP and returns primal plan and dual potentials
at machine precision; every W2 value in the package routes through it. It
remembers its last successful solve, so a W2 value followed by the potentials
of the same problem costs one LP; its arrays are read-only because a repeat
call hands the same objects to the next caller.
interior_point measures the common slack of the linked-pair polytope: two
couplings sharing their second marginal, each under a quadratic-cost budget.
epsilon_min finds the least relaxation of those budgets by dual Newton cuts
on that slack: every iterate is an LP-duality lower bound, and the value
returned has its slack verified by one more LP.

entropy_budget_min minimizes relative entropy over that polytope with a
fully-corrective conditional-gradient method whose LP oracle returns exact
extreme points; _hull_minimize re-optimizes the hull weights by one SLSQP
solve on the simplex. Weak duality of the oracle LP gives the certified
optimality gap, and it is the only certificate for those midpoints.
dirac_pair_min solves the case of Dirac anchors by projected Newton on its
low-dimensional dual. Both dual bounds are returned less an allowance for
their rounding error, so a certified gap is never negative.

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
from scipy.optimize import OptimizeResult, minimize
from scipy.optimize._highspy import _core as _highs

from .mmspace import _freeze

_EXP_FLOOR = -745.0  # exp underflow threshold
_LP_TIME_LIMIT = 120.0  # seconds per HiGHS call
_LP_OPTIONS = {"presolve": False, "primal_feasibility_tolerance": 1e-10, "time_limit": _LP_TIME_LIMIT}
# the HiGHS options scipy's linprog(method="highs") always sets
_HIGHS_FIXED = {
    "simplex_strategy": _highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual,
    "highs_debug_level": _highs.HighsDebugLevel.kHighsDebugLevelNone,
    "log_to_console": False,
    "output_flag": False,
}
# scipy's status code for each HiGHS model status but optimal (0); every other one is 4
_SCIPY_STATUS = {
    _highs.HighsModelStatus.kTimeLimit: 1,
    _highs.HighsModelStatus.kIterationLimit: 1,
    _highs.HighsModelStatus.kInfeasible: 2,
    _highs.HighsModelStatus.kModelError: 2,
    _highs.HighsModelStatus.kUnbounded: 3,
}
_RESULT_TOL = np.sqrt(1e-9) * 10  # scipy's post-solve feasibility check of an optimal x
_NEWTON_CAP = 50  # LPs per epsilon_min call; two or three suffice in practice
_DUAL_NEWTON_CAP = 200  # Newton steps per dirac_pair_min call; about 35 at a pinned vertex
_BACKTRACK_CAP = 60  # step halvings per Newton step
_ORACLE_CAP = 80  # oracle LPs per entropy_budget_min call
_POTENTIAL_CAP = 2000  # scaling steps per symmetric_potential call
_POTENTIAL_TOL = 1e-13  # symmetric_potential stops on a step below this times eps
_PROX_SWEEP_CAP = 20000  # dual sweeps per prox_entropy_step call
_PROX_SWEEP_TOL = 1e-11  # prox_entropy_step stops on a sweep below this times taub


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


def _rounding_allowance(n, scale):
    """Bound on the rounding error of a value evaluated from at most n + 8
    correctly rounded operations on each path, over terms whose absolute
    values sum to at most scale: gamma_{n+8} * scale with
    gamma_k = k u / (1 - k u) and u = 2^-53 (Higham, Accuracy and Stability
    of Numerical Algorithms, 2002, Lemma 3.1), doubled to cover the exp and
    log calls, which are accurate to one ulp.
    """
    k = n + 8
    u = np.finfo(float).eps / 2
    return 2.0 * k * u / (1.0 - k * u) * scale


def _entropy(nu, m):
    """Ent_m(nu) = sum nu log(nu / m), with 0 log 0 = 0."""
    return float(np.sum(np.where(nu > 0, nu * np.log(np.maximum(nu / m, 1e-300)), 0.0)))


# ---------------------------------------------------------------------------
# LPs
# ---------------------------------------------------------------------------


def linprog(c, A_eq, b_eq, A_ub=None, b_ub=None, bounds=(0, None), options=None):
    """Minimize <c, x> subject to A_ub x <= b_ub, A_eq x = b_eq and bounds, by
    one call to the HiGHS dual simplex bundled with scipy.

    HiGHS gets the model and the options scipy.optimize.linprog(method="highs")
    gives it: rows A_ub over A_eq as CSC, left sides -inf on the A_ub rows and
    b_eq on the A_eq rows, None bounds infinite, every column continuous. So
    it returns the same bits, without that wrapper's input copies, per-call
    option re-validation and bound marginals, which cost more than a small
    solve. Like scipy it raises ValueError on non-finite input, maps the HiGHS
    model status to scipy's status codes (0 optimal, 1 time or iteration
    limit, 2 infeasible, 3 unbounded, 4 other), and turns an optimum whose x
    misses its bounds or rows by more than sqrt(1e-9) * 10 into status 4.

    Returns an OptimizeResult with status and message and, at status 0, x,
    fun and the row duals eqlin.marginals and ineqlin.marginals.
    """
    c = np.ascontiguousarray(c, dtype=float)
    b_eq = np.asarray(b_eq, dtype=float)
    b_ub = np.zeros(0) if b_ub is None else np.asarray(b_ub, dtype=float)
    A = (A_eq if A_ub is None else sparse.vstack([A_ub, A_eq])).tocsc()
    n_ub = b_ub.size
    lhs = np.concatenate([np.full(n_ub, -_highs.kHighsInf), b_eq])
    rhs = np.concatenate([b_ub, b_eq])
    # HiGHS reads these arrays through raw pointers, sized by c and rhs
    if c.ndim != 1 or A.shape != (rhs.size, c.size) or b_eq.ndim != 1 or b_ub.ndim != 1:
        raise ValueError(f"LP shapes disagree: c {c.shape}, A {A.shape}, b_ub {b_ub.shape}, b_eq {b_eq.shape}")
    if not all(np.isfinite(v).all() for v in (c, A.data, b_ub, b_eq)):
        raise ValueError("LP input contains inf or nan")
    bnd = np.broadcast_to(np.asarray(bounds, dtype=float), (c.size, 2))  # None -> nan -> infinite
    inf = _highs.kHighsInf
    lb = np.nan_to_num(bnd[:, 0], nan=-inf, posinf=inf, neginf=-inf)
    ub = np.nan_to_num(bnd[:, 1], nan=inf, posinf=inf, neginf=-inf)

    highs_options = _highs.HighsOptions()
    for key, val in {**_HIGHS_FIXED, **(options or {})}.items():
        setattr(highs_options, key, ("on" if val else "off") if key == "presolve" else val)
    highs = _highs._Highs()
    if highs.passOptions(highs_options) == _highs.HighsStatus.kError:
        return OptimizeResult(status=4, message="HiGHS rejected the options", x=None, fun=None)
    if highs.passModel(c.size, rhs.size, A.nnz, _highs.MatrixFormat.kColwise, _highs.ObjSense.kMinimize, 0.0,
                       c, lb, ub, lhs, rhs, A.indptr, A.indices, A.data,
                       np.zeros(c.size, dtype=np.int32)  # integrality: every column continuous
                       ) == _highs.HighsStatus.kError:
        # scipy reads HiGHS's model error as status 2
        return OptimizeResult(status=2, message="HiGHS rejected the model", x=None, fun=None)
    highs.run()
    model_status = highs.getModelStatus()
    message = f"HiGHS model status {highs.modelStatusToString(model_status)}"
    if model_status != _highs.HighsModelStatus.kOptimal:
        return OptimizeResult(status=_SCIPY_STATUS.get(model_status, 4), message=message, x=None, fun=None)

    solution = highs.getSolution()
    x = np.array(solution.col_value)
    fun = highs.getInfo().objective_function_value
    slack = rhs - solution.row_value
    tol = _RESULT_TOL
    if (np.isnan(x).any() or np.isnan(fun) or np.isnan(slack).any()
            or (x < lb - tol).any() or (x > ub + tol).any()
            or (slack[:n_ub] < -tol).any() or (np.abs(slack[n_ub:]) > tol).any()):
        return OptimizeResult(status=4, message=f"{message}, but x misses its constraints by more than {tol:.2e}",
                              x=x, fun=fun)
    dual = np.array(solution.row_dual)
    return OptimizeResult(status=0, message=message, x=x, fun=fun,
                          ineqlin=OptimizeResult(marginals=dual[:n_ub]), eqlin=OptimizeResult(marginals=dual[n_ub:]))


def _solve_lp(obj, A_eq, b_eq, A_ub=None, b_ub=None, bounds=(0, None)):
    """One direct HiGHS call through linprog above, which keeps scipy's name
    so that the traced span and the test stubs of solvers.linprog still mean
    every HiGHS call. It runs without presolve, which misreports tiny
    marginals as infeasible and costs about 40% of a 64x64 transport LP; the
    primal feasibility tolerance 1e-10 matches ot.MARGINAL_TOL, so a plan
    meets its marginals. Raises InfeasibleError when HiGHS proves the LP
    infeasible and SolverError on any other failure, so a time limit is never
    infeasibility.
    """
    res = linprog(obj, A_eq, b_eq, A_ub, b_ub, bounds, options=_LP_OPTIONS)
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
        _MARGINAL_CACHE[key] = sparse.csc_matrix((vals, (rows, cols)), shape=(n0 + n1, n0 * n1))
    return _MARGINAL_CACHE[key]


# (key, result) of the last successful exact_ot solve; replaced whole by one
# assignment, so a reader on another thread sees an old or a new pair, never a mix
_OT_LAST = (None, None)


def exact_ot(C, a, b):
    """Exact LP optimum of <gamma, C> over couplings of (a, b).

    Returns (cost, plan, u, v) where (u, v) are dual potentials satisfying
    u(x) + v(y) <= C(x, y) and cost = <u, a> + <v, b> up to solver precision.
    plan, u and v are read-only.

    The last successful solve is remembered: a call whose C, a and b are
    byte-equal to it returns the same objects without an LP. HiGHS is
    deterministic, so a new solve would return the same bits. A failed solve
    leaves the memory as it was.
    """
    global _OT_LAST
    C = np.asarray(C, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    key = (C.shape, C.tobytes(), a.tobytes(), b.tobytes())
    last_key, last = _OT_LAST
    if key == last_key:
        return last
    n0, n1 = C.shape
    res = _solve_lp(C.ravel(), _marginal_matrix(n0, n1), np.concatenate([a, b]))
    marg = res.eqlin.marginals
    out = (float(res.fun), _freeze(res.x.reshape(n0, n1)), _freeze(marg[:n0]), _freeze(marg[n0:]))
    _OT_LAST = (key, out)
    return out


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
    feasibility. Returns (s, nu, y), with y >= 0, sum(y) = 1, the duals of the
    two budget rows.
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
    return float(res.x[N]), nu, -res.ineqlin.marginals


def epsilon_min(C, mu0, mu1, t, W):
    """Least uniform relaxation of the two intermediate-set radius constraints:
    min over nu of max(W2(mu0,nu) - tW, W2(mu1,nu) - (1-t)W, 0).

    Dual Newton cuts (Kelley's cutting plane on the slack): with budgets
    B(eps) = ((tW+eps)^2, ((1-t)W+eps)^2), the interior_point LP at eps gives
    slack s and budget duals y, and LP duality bounds the slack at every eps'
    by s + y.(B(eps') - B(eps)). The next eps is the root of that bound, so
    every iterate is a certified lower bound on the least relaxation and the
    iterates increase. Returns the first iterate whose LP slack is >= -1e-12,
    i.e. a value with verified slack; raises SolverError after _NEWTON_CAP LPs.
    """
    sel0 = mu0 > 0
    sel1 = mu1 > 0
    C0, C1 = C[sel0], C[sel1]
    m0, m1 = mu0[sel0], mu1[sel1]
    a, b = t * W, (1 - t) * W
    eps = 0.0
    for _ in range(_NEWTON_CAP):
        B = np.array([(a + eps) ** 2, (b + eps) ** 2])
        s, _, y = interior_point(C0, C1, m0, m1, B[0], B[1])
        if s >= -1e-12:
            return eps
        # root of y0 (a + eps)^2 + y1 (b + eps)^2 = H, H = y.B - s <= y.(costs of any feasible pair)
        H = float(y @ B) - s
        ybar = float(y[0] * a + y[1] * b)
        eps = float(np.sqrt(ybar * ybar - y[0] * a * a - y[1] * b * b + H) - ybar)
    raise SolverError(f"epsilon_min: slack still negative after {_NEWTON_CAP} LPs")


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

    f(lam) = log<gamma(lam), C> is a log-sum-exp of affine functions of lam,
    so it is convex and decreasing. Its tangent lies below it, so a Newton
    step from either side lands at or left of the root, and the clamp at 0
    stays left because f(0) > log(budget) is checked first. From there Newton
    increases monotonically to the root: one loop, warm-started at lam0.
    Terms of gamma that underflow count as 0; a floored exponent would make f
    flat far right of the root and stall the steps there.
    """
    logb = np.log(budget)

    def moments(lam):
        E = base - lam * C / tau
        shift = E.max()
        G = np.exp(E - shift)
        c1 = float((G * C).sum())
        if c1 <= 0.0:
            return -np.inf, 1.0
        return np.log(c1) + shift, float((G * C * C).sum()) / c1

    lc0, _ = moments(0.0)
    if lc0 <= logb:
        return 0.0
    lam = max(lam0, 0.0)
    lc, ratio = moments(lam)
    for _ in range(100):
        lam_new = max(lam + (lc - logb) * tau / max(ratio, 1e-300), 0.0)
        lc, ratio = moments(lam_new)
        if abs(lc - logb) <= 1e-12 * max(1.0, abs(logb)):
            return lam_new
        if abs(lam_new - lam) <= 1e-15 * (1.0 + lam):
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
    budget multiplier a monotone Newton solve. Returns the primal measure of
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
    iterations: int


def _hull_minimize(vertices, m, theta0=None):
    """Minimize Ent_m over the convex hull of the vertex rows by one SLSQP
    solve on the weight simplex, from theta0 or the uniform weights. The SLSQP
    result is kept only if it lowers the entropy of the start.
    Returns (theta, entropy)."""
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
    res = minimize(
        ent_grad, theta, jac=True, method="SLSQP",
        bounds=[(0.0, 1.0)] * r,
        constraints=[{"type": "eq", "fun": lambda th: th.sum() - 1.0, "jac": lambda th: np.ones(r)}],
        # at ftol 1e-14 SLSQP stops with simplex KKT residuals up to 1e-6
        options=dict(maxiter=300, ftol=1e-16),
    )
    if res.x is not None and np.isfinite(res.fun):
        th = np.maximum(res.x, 0.0)
        total = th.sum()
        if total > 0 and res.fun < cur:
            theta, cur = th / total, ent(th / total)
    return theta, cur


def entropy_budget_min(m, anchors, budgets, tol=1e-3, warm_points=()):
    """Certified entropy minimization over the budgeted linked polytope.

    Fully-corrective conditional-gradient method: the LP oracle returns exact
    extreme points of the feasible set (so every hull iterate is exactly
    feasible) and the hull weights are re-optimized after each oracle call.

    The certificate is the conditional-gradient gap made rigorous: with
    c = grad Ent at the incumbent on its support, convexity plus LP weak
    duality give Ent >= Ent(nu) + [LP min <c, .> - <c, nu>] over the feasible
    set, corrected by -sum m_y e^{c_y - 1} on the incumbent's zero coordinates
    (the pointwise minimum of the entropy integrand against the chosen linear
    lower bound there). The bound is taken less the rounding allowance of its
    terms and of the entropy, and never above Ent(nu) less that allowance.
    warm_points supply extra gradient probes; they need not be feasible, only
    their gradients are used.
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
    V = np.array([oracle(c)[0] for c in probes])
    theta, _ = _hull_minimize(V, m)

    best = None
    for it in range(_ORACLE_CAP):
        nu = theta @ V
        nu = np.maximum(nu, 0.0)
        nu = nu / nu.sum()
        ent = _entropy(nu, m)
        c = grad_at(nu)
        v_new, lp_value = oracle(c)
        zero_corr = float(np.sum(m[nu <= 0] * np.exp(CLAMP - 1.0)))
        # each term of Ent(nu), of <c, nu> and of the entropy the caller
        # evaluates for the measure returned is at most nu_y (|c_y| + 2)
        allowance = _rounding_allowance(len(m), 4.0 * (float(np.abs(c) @ nu) + 2.0) + abs(lp_value) + zero_corr)
        bound = ent + lp_value - float(c @ nu) - zero_corr - allowance
        if best is None or ent - bound < best.gap or ent < best.entropy - 1e-15:
            prev = best.dual_bound if best else -np.inf
            best = EntropyMinResult(nu=nu, entropy=ent, dual_bound=max(bound, prev), gap=0.0, iterations=it)
            ceiling = ent - allowance
        else:
            best.dual_bound = max(best.dual_bound, bound)
        # nu lies in the hull of the oracle's vertices, so the optimum is at most
        # Ent(nu); a bound above that is an LP value HiGHS left within its
        # optimality tolerance, not a fact
        best.dual_bound = min(best.dual_bound, ceiling)
        best.gap = best.entropy - best.dual_bound
        if best.gap <= tol:
            break
        V = np.vstack([V, v_new])
        theta, _ = _hull_minimize(V, m, theta0=np.append(theta * (1 - 1e-3), 1e-3))
    if best.gap > tol:
        raise SolverError(f"budgeted entropy gap {best.gap:.3e} exceeds tol {tol:.3e}", gap=best.gap)
    return best


def dirac_pair_min(m, q_list, budgets):
    """Entropy minimization when every anchor is a Dirac mass.

    The budgets are then linear constraints <nu, q_i> <= b_i, and the dual is
    the concave g(lam) = -log Z(lam) - lam.b over lam >= 0, with
    Z(lam) = sum_y m_y exp(-lam.q_y). Projected Newton ascends it: the
    gradient is E_nu[q] - b and the Hessian -Cov_nu(q) for the Gibbs measure
    nu = m exp(-lam.q) / Z, both restricted to the free set
    {lam_i > 0 or d_i g > 0}, with backtracking on g. The loop stops when
    Ent(nu) - g(lam) = -lam.grad g is within the rounding allowance of g and
    no budget with lam_i = 0 is exceeded. Where the feasible set is a single
    point the multipliers run off along a ray; Newton then takes
    near-constant steps along it, each shrinking the mass off that point by
    a constant factor, until that mass no longer shows in the gap.
    Every lam >= 0 gives a weak-duality bound, so the bound is certified
    wherever the loop stops; it is returned less its rounding allowance.
    Returns (nu, dual_bound).
    """
    m = np.asarray(m, dtype=float)
    log_m = np.log(m)
    # g(lam) = -log sum_y m_y exp(-lam.(q_y - b)): at a pinned vertex q_y - b
    # vanishes, so the dominant exponent carries no cancellation. Each budget
    # is relaxed by 8 ulp, which only lowers the bound: a lattice point that
    # meets its budgets in exact arithmetic may miss them by the rounding of
    # q and b, and the dual of that point would diverge
    b = np.asarray(budgets, dtype=float)
    r = np.asarray(q_list, dtype=float) - (b + 8 * np.finfo(float).eps * np.abs(b))[:, None]

    def dual(lam):
        """(g(lam), nu, rounding allowance of g(lam))"""
        e = log_m - lam @ r
        shift = e.max()
        p = np.exp(e - shift)
        Z = p.sum()
        nu = p / Z
        g = -np.log(Z) - shift
        scale = 3.0 * (float(nu @ (np.abs(log_m) + lam @ np.abs(r))) + abs(shift) + abs(g) + 1.0)
        return g, nu, _rounding_allowance(len(m) + len(lam), scale)

    lam = np.zeros(r.shape[0])
    g, nu, allow = dual(lam)
    for _ in range(_DUAL_NEWTON_CAP):
        grad = r @ nu
        if abs(float(lam @ grad)) <= 0.5 * allow and np.all(grad[lam == 0] <= 0):
            break
        free = (lam > 0) | (grad > 0)
        dev = r[free] - grad[free][:, None]
        step = np.linalg.lstsq((dev * nu) @ dev.T, grad[free], rcond=None)[0]
        # near the optimum the full step moves g by less than its rounding; take it
        for k in range(_BACKTRACK_CAP):
            trial = lam.copy()
            trial[free] = np.maximum(lam[free] + 0.5 ** k * step, 0.0)
            g_t, nu_t, allow_t = dual(trial)
            if g_t >= g - allow:
                break
        else:
            break
        lam, g, nu, allow = trial, g_t, nu_t, allow_t
    return nu, g - allow


# ---------------------------------------------------------------------------
# proximal entropy step for the minimizing-movement flow
# ---------------------------------------------------------------------------

def symmetric_potential(mu, C, m, eps):
    """Self-transport potential of mu at temperature eps: the fixed point of
    the symmetric scaling for the problem transporting mu onto itself."""
    log_m = np.log(m)
    log_mu = np.log(np.maximum(mu, 1e-300))
    p = np.zeros(len(mu))
    for _ in range(_POTENTIAL_CAP):
        lse = logsumexp((p[None, :] - C) / eps + log_m[None, :] - 1.0, axis=1)
        p_new = 0.5 * (p + eps * (log_mu - log_m) - eps * lse)
        if np.abs(p_new - p).max() < _POTENTIAL_TOL * eps:
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


def prox_entropy_step(mu, C, m, tau, taub):
    """One minimizing-movement step for the entropy.

    Solves min_nu Ent_m(nu) + [<g, C> + eps KL(g | 1 x m)]/(2 tau) - <p, nu>/(2 tau)
    over couplings g of (mu, nu), with smoothing temperature eps = 2*tau*taub
    (taub > 0) and p the self-transport potential of mu (the debias term; it
    makes nu=mu stationary when mu minimizes the entropy). Returns (nu,
    certified duality gap of the solved program, sweeps).
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
    dbf[sel] = symmetric_potential(mu[sel], C[np.ix_(sel, sel)], m[sel], eps) / (2.0 * tau)

    w = np.zeros(n)
    alpha = np.zeros(int(sel.sum()))
    sweeps = 0
    for sweeps in range(1, _PROX_SWEEP_CAP + 1):
        lse = logsumexp((w[None, :] - lam * Cr) / taub + log_m[None, :], axis=1)
        alpha = taub * (log_mu - lse + 1.0)
        logT = logsumexp((alpha[:, None] - lam * Cr) / taub - 1.0, axis=0)
        w_new = taub * (-1.0 + dbf - logT) / (1.0 + taub)
        delta = np.abs(w_new - w).max()
        w = w_new
        if delta < _PROX_SWEEP_TOL * max(taub, 1e-8):
            break

    shift = -1.0 - w + dbf
    nu_raw = m * np.exp(np.maximum(shift, _EXP_FLOOR))
    nu = nu_raw / nu_raw.sum()

    # dual lower bound of the solved (smoothed, debiased) program
    loggam = (alpha[:, None] + w[None, :]) / taub - lam * Cr / taub - 1.0 + log_m[None, :]
    gam_mass = float(np.exp(np.maximum(loggam - loggam.max(), _EXP_FLOOR)).sum()) * np.exp(loggam.max())
    dual = float(alpha @ mu[sel]) - taub * gam_mass - float(nu_raw.sum())

    # primal at a feasible point: round the dual coupling to exact marginals
    gam = np.exp(np.maximum(loggam, _EXP_FLOOR))
    gam = _round_coupling(gam, mu[sel], nu)
    ent_nu = _entropy(nu, m)
    kl_term = _entropy(gam, m)
    primal = ent_nu - float(dbf @ nu) + lam * float((gam * Cr).sum()) + taub * kl_term
    return nu, float(primal - dual), sweeps
