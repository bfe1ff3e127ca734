"""Shared convex machinery: exact transport LPs and the entropy minimizers.

Every LP is one call of linprog below, and linprog is the one place where a
solver status is read: an LP HiGHS proves infeasible raises InfeasibleError,
any other failure (time limit, unbounded, rejected model, numerical trouble)
raises SolverError. Each LP is one HiGHS dual simplex run without presolve,
which misreports tiny marginals as infeasible and costs about 40% of a 64x64
transport LP, at primal tolerance 1e-10 to match ot.MARGINAL_TOL (_LP_OPTIONS).
linprog drives the HiGHS core bundled with scipy directly, with the model and
options scipy.optimize.linprog would pass, so the results are scipy's bits
without scipy's per-call wrapper work, which cost more than the solve on the
small transport LPs.

Every entropy here, Ent_m of a measure and KL(gamma | 1 x m) of a coupling,
is measures.relative_entropy, the one evaluation of Ent_m in the package.
The package's one other exact convex program, dirichlet.mod2, needs no LP:
it is one nonnegative least-squares solve.

exact_ot solves the transport LP and returns primal plan and dual potentials
at machine precision; every W2 value in the package routes through it. The
LP is the one on the supports of the marginals, C[a > 0][:, b > 0]: the zero
rows of the full model leave its dual simplex badly degenerate (the first
speed LP of the semigroup flow of configs/cycle64_rcd.json, from a bump, took
1122 iterations on the full model and takes 136 on the supports), and the
reduction leaves the optimum as it is (Schmitzer, A sparse multiscale
algorithm for dense optimal transport, JMIV 2016). The plan is 0 off the
supports, and the duals there are c-transforms of the duals on them, so
they stay feasible on every pair. exact_ot remembers its last successful
solve, so a W2 value followed by the potentials of the same problem costs
one LP; its arrays are read-only because a repeat call hands the same
objects to the next caller.

On a segment or a cycle (mmspace.line_of) the optimal plan is known in
advance up to one parameter: the monotone coupling, on a cycle at the best
shift (Delon, Salomon and Sobolevski, SIAM J. Appl. Math. 2010), with at most
k0 + k1 - 1 cells. exact_ot then solves the LP on those cells only, prices
every other pair of the supports by its reduced cost against the LP's duals,
and adds the violators and solves again until there are none (the shortlist
method; Gottschlich and Schuhmacher, PLoS ONE 2014). The check, not the
structure, makes the result optimal on the full LP. On the flows of
configs/cycle64_rcd.json every shortlist holds at its first LP, of at most
127 columns where the full model has 4096.

A sequence of LPs that differ only in their costs and right-hand sides runs
on a path: a list its loop owns, holding one HiGHS instance. linprog changes
that instance's costs and row bounds and runs it again, so the dual simplex
restarts from the last optimal basis (Huangfu and Hall, Parallelizing the
dual revised simplex method, Math. Prog. Comp. 2018). A change of right-hand
sides leaves the basis dual feasible, a change of costs leaves it primal
feasible. Three loops use one:
- a loop of transport problems on one cost matrix without a line, such as
  the speeds along a flow or the distances from each flow measure to one
  target on a random metric, passes exact_ot a path; on the flows of
  configs/cycle64_rcd.json, solved without their line, that halved the
  simplex iterations. A change of either support is a new model: the path
  restarts with a cold solve on the new supports and runs hot again after
  it, so a loop orders its problems to restart on small models
  (heat._w2_speeds walks a flow from its end). Path solves do not touch
  exact_ot's memory. With a line the path is not used: a shortlist LP is
  small, and cold;
- entropy_budget_min's oracle LPs, which differ only in their objective; on
  the geodesic benchmark a hot oracle LP takes 23 simplex iterations where
  a cold one took 73;
- epsilon_min's Newton cuts, which differ only in their budgets.
Hot runs are read and checked by linprog like cold ones. Only an explicit
path carries a basis from one solve to the next, and each path belongs to one
loop, so no result depends on the call history outside it.

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

entropy_capacity_min is an uncertified warm probe for entropy_budget_min:
block-coordinate ascent on the dual of an entropic relaxation, one sweep per
temperature of a short schedule (epsilon-scaling; Schmitzer, SIAM J. Sci.
Comput. 2019), whose measure is used only as an extra gradient probe. Run to
80 sweeps per temperature it saved about as many oracle LPs as one sweep does
(141 against 139 of 172 on criterion 3's segment:17 build), at over 30 times
the cost.

prox_entropy_step is the single-anchor variant used by the minimizing-
movement flow, with a debiasing linear term that cancels the smoothing drift
at the current iterate. Its dual is solved by alternating sweeps on the
potentials (alpha, w) of the two marginals, in scaled arithmetic with
log-domain absorption (Chizat, Peyre, Schmitzer and Vialard, Scaling
algorithms for unbalanced optimal transport problems, Math. Comp. 2018;
Schmitzer, Stabilized sparse scaling algorithms for entropy regularized
transport problems, SIAM J. Sci. Comput. 2019). An absorbing sweep is one
sweep in the log domain, two log-sum-exps over the matrix, and fixes the
kernel G, the coupling of its (alpha, w). The scaled sweeps after it are the
same sweep on scalings of G at the cost of two mat-vecs, until a scaling
leaves [e^-30, e^30] (_SCALING_BOUND) and the next absorbing sweep folds
them back into (alpha, w). G is never clipped at the exp floor: a clipped
5e-324 would stand for an entry of e^-2000 and push the scaled sweeps off
the log-domain iteration. The scaled sweeps run on the block of rows and
columns of G with a nonzero entry; outside it, where the mass is below
about 1e-308, alpha and w keep their absorbed values. The certificate is computed from
(alpha, w) as in the log domain: its dual bound is weak duality at any
(alpha, w), so it holds wherever the sweeps stop. symmetric_potential, the
debiasing potential, is computed the same way.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import minimize
from scipy.optimize._highspy import _core as _highs

from .measures import relative_entropy
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
_RESULT_TOL = np.sqrt(1e-9) * 10  # scipy's post-solve feasibility check of an optimal x
_NEWTON_CAP = 50  # LPs per epsilon_min call; two or three suffice in practice
_DUAL_NEWTON_CAP = 200  # Newton steps per dirac_pair_min call; about 35 at a pinned vertex
_BACKTRACK_CAP = 60  # step halvings per Newton step
_ORACLE_CAP = 80  # oracle LPs per entropy_budget_min call
_POTENTIAL_CAP = 2000  # scaling steps per symmetric_potential call
_POTENTIAL_TOL = 1e-13  # symmetric_potential stops on a step below this times eps
_PROX_SWEEP_CAP = 20000  # dual sweeps per prox_entropy_step call
_PROX_SWEEP_TOL = 1e-11  # prox_entropy_step stops on a sweep below this times taub
_SCALING_BOUND = 30.0  # |log| of a scaling beyond which it is absorbed into the log-domain potentials


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


# ---------------------------------------------------------------------------
# LPs
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=4)
def _highs_options(options):
    """HighsOptions with _HIGHS_FIXED and the (key, value) pairs options, built
    once per set of pairs instead of once per cold LP, where it took about
    65 us of a fixed cost of about 0.4 ms."""
    highs_options = _highs.HighsOptions()
    for key, val in {**_HIGHS_FIXED, **dict(options)}.items():
        setattr(highs_options, key, ("on" if val else "off") if key == "presolve" else val)
    return highs_options


_highs_options(tuple(_LP_OPTIONS.items()))  # built at import


def linprog(c, A_eq, b_eq, A_ub=None, b_ub=None, bounds=(0, None), path=None):
    """Minimize <c, x> subject to A_ub x <= b_ub, A_eq x = b_eq and bounds, by
    one call to the HiGHS dual simplex bundled with scipy, with _LP_OPTIONS.

    HiGHS gets the model and the options scipy.optimize.linprog(method="highs")
    gives it: rows A_ub over A_eq as CSC, left sides -inf on the A_ub rows and
    b_eq on the A_eq rows, None bounds infinite, every column continuous. So
    it returns the same bits, without that wrapper's input copies, per-call
    option re-validation and bound marginals, which cost more than a small
    solve. The HighsOptions are built once per _LP_OPTIONS (_highs_options).
    Like scipy it raises ValueError on non-finite input.

    path, a list the caller owns, chains LPs that differ only in c, b_ub and
    b_eq. An empty path is solved as above and then holds one entry, a tuple
    that begins with the HiGHS instance (exact_ot appends what it checks);
    each later call changes that instance's costs (changeColsCost) and row
    bounds (changeRowBounds) where they differ from the last call's and runs
    it again from its last optimal basis. A cost change leaves that basis
    primal feasible and a bound change leaves it dual feasible, so the run
    is the simplex's repair of one or the other, not a solve from the slack
    basis. A model that differs in A or in the column bounds raises
    ValueError and leaves the path as it was; a failed run empties the path,
    so the next call on it solves from scratch. A hot run is read and
    checked below exactly like a cold one; on a degenerate LP it may end at
    another optimal vertex than a cold solve.

    This is the one place a solver status is read: an LP HiGHS proves
    infeasible raises InfeasibleError; every other outcome but an optimum
    raises SolverError, so a time limit, an unbounded LP, a model HiGHS
    rejects (it refuses any matrix entry of 1e15 or more) or an optimum whose
    x misses its bounds or rows by more than scipy's sqrt(1e-9) * 10 is never
    read as infeasibility.

    Returns (x, fun, y_eq, y_ub): the optimum, its value and the row duals of
    the A_eq and the A_ub rows.
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

    # everything of the LP but its costs and row bounds
    model = None if path is None else (A.shape, A.indptr.tobytes(), A.indices.tobytes(), A.data.tobytes(),
                                       lb.tobytes(), ub.tobytes())
    if path:
        highs, held_model, held_c, held_lhs, held_rhs = path[0][:5]
        if held_model != model:
            raise ValueError("an LP on a path may differ from the path's model only in its costs and "
                             "right-hand sides")
        cols = np.flatnonzero(c != held_c)
        if cols.size:
            highs.changeColsCost(cols.size, cols.astype(np.int32), c[cols])
        for i in np.flatnonzero((lhs != held_lhs) | (rhs != held_rhs)).tolist():
            highs.changeRowBounds(i, lhs[i], rhs[i])
    else:
        highs = _highs._Highs()
        if highs.passOptions(_highs_options(tuple(_LP_OPTIONS.items()))) == _highs.HighsStatus.kError:
            raise SolverError("HiGHS rejected the LP options")
        if highs.passModel(c.size, rhs.size, A.nnz, _highs.MatrixFormat.kColwise, _highs.ObjSense.kMinimize, 0.0,
                           c, lb, ub, lhs, rhs, A.indptr, A.indices, A.data,
                           np.zeros(c.size, dtype=np.int32)  # integrality: every column continuous
                           ) == _highs.HighsStatus.kError:
            raise SolverError("HiGHS rejected the LP model")
    if path is not None:
        path.clear()  # refilled below after a run that passes every check
    highs.run()
    status = highs.getModelStatus()
    if status == _highs.HighsModelStatus.kInfeasible:
        raise InfeasibleError("LP infeasible")
    if status != _highs.HighsModelStatus.kOptimal:
        raise SolverError(f"LP failed: HiGHS model status {highs.modelStatusToString(status)}")

    solution = highs.getSolution()
    x = np.array(solution.col_value)
    fun = highs.getInfo().objective_function_value
    slack = rhs - solution.row_value
    tol = _RESULT_TOL
    if (np.isnan(x).any() or np.isnan(fun) or np.isnan(slack).any()
            or (x < lb - tol).any() or (x > ub + tol).any()
            or (slack[:n_ub] < -tol).any() or (np.abs(slack[n_ub:]) > tol).any()):
        raise SolverError(f"LP optimum misses its constraints by more than {tol:.2e}")
    dual = np.array(solution.row_dual)
    if path is not None:
        path.append((highs, model, c.copy(), lhs, rhs))  # c may be a view of the caller's array
    return x, fun, dual[n_ub:], dual[:n_ub]


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


def _staircase(p, q):
    """Rows and columns of the north-west corner rule on masses p and q in
    index order: the k0 + k1 - 1 cells of a path through every row and column."""
    A, B = np.cumsum(p), np.cumsum(q)
    down = np.argsort(np.concatenate([A[:-1] / A[-1], B[:-1] / B[-1]]), kind="stable") < p.size - 1
    return np.concatenate([[0], np.cumsum(down)]), np.concatenate([[0], np.cumsum(~down)])


def _best_shift(x, y, p, q):
    """(r, s) such that the optimal coupling of sum p_i delta_{x_i} and
    sum q_j delta_{y_j} on the circle of length 1 (positions in [0, 1),
    increasing) cuts after the r-th mass of p where it cuts after the s-th of q.

    The monotone couplings of the two measures pair the lifted quantile
    functions X(t) and Y(t - theta). Their lifted cost
    L(theta) = int_0^1 (X(t) - Y(t - theta))^2 dt is convex and piecewise linear
    in theta, and its minimum is the transport cost (Delon, Salomon and
    Sobolevski, Fast transport optimization for Monge costs on the circle,
    SIAM J. Appl. Math. 2010). Where X jumps from x_r to x_r' at A_r, the slope
    of L gains (x_r' - x_r)(x_r + x_r' - 2 Y(A_r - theta)); it grows by
    2 (x_r' - x_r)(y_s' - y_s) at each breakpoint theta = A_r - B_s mod 1, where
    a cut of p meets one of q. L(theta + 1) - L(theta) =
    2 (mean x - mean y + theta) + 1, so a minimizer lies in the unit window
    from mean y - mean x - 1/2, and it is the breakpoint of that window at
    which the slope, summed along the sorted breakpoints, turns nonnegative.
    """
    A, B = np.cumsum(p), np.cumsum(q)
    A, B = A / A[-1], B / B[-1]
    dx = np.diff(x, append=x[0] + 1.0)
    dy = np.diff(y, append=y[0] + 1.0)
    lo = (y @ q / q.sum() - x @ p / p.sum()) - 0.5
    t = A - lo
    lift = np.floor(t)
    slope = dx @ (2.0 * x + dx - 2.0 * (y[np.searchsorted(B, t - lift)] + lift))
    theta = t[:, None] - B[None, :]
    order = np.argsort((theta - np.floor(theta)).ravel())  # the breakpoints, less lo, mod 1; % costs 10 times more
    k = np.searchsorted(slope + np.cumsum(2.0 * np.outer(dx, dy).ravel()[order]), 0.0)
    return divmod(int(order[k % order.size]), q.size)


def _line_cells(x, y, p, q, period):
    """Flat cells i * q.size + j of the optimal coupling of sum p_i delta_{x_i}
    and sum q_j delta_{y_j}, for positions nondecreasing in index: on a line
    (period None) the north-west corner rule in index order, and on a circle of
    length period the same rule from the cut of _best_shift."""
    r = s = -1
    if period is not None:
        r, s = _best_shift(x / period, y / period, p, q)
    i, j = _staircase(np.roll(p, -1 - r), np.roll(q, -1 - s))
    return np.sort((i + 1 + r) % p.size * q.size + (j + 1 + s) % q.size)


def _cells_matrix(k0, k1, cells):
    """The columns of _marginal_matrix(k0, k1) at the flat cells, built
    directly: indexing the cached matrix costs three times as much."""
    rows = np.empty((cells.size, 2), dtype=np.int32)
    rows[:, 0], rows[:, 1] = cells // k1, k0 + cells % k1
    return sparse.csc_matrix((np.ones(rows.size), rows.ravel(), np.arange(0, rows.size + 1, 2, dtype=np.int32)),
                             shape=(k0 + k1, cells.size))


def _priced_shortlist(C, mass, cells):
    """(plan, cost, duals) of the transport LP with costs C and marginals mass,
    solved on the flat cells; every cell of C whose reduced cost against the
    LP's duals is below -1e-12 max C joins them and the LP is solved again,
    until none does."""
    k0, k1 = C.shape
    while True:
        x, fun, y, _ = linprog(C.ravel()[cells], _cells_matrix(k0, k1, cells), mass)
        reduced = C - y[:k0, None] - y[None, k0:]
        reduced.flat[cells] = 0.0  # the LP's own columns, priced by HiGHS
        violators = np.flatnonzero(reduced < -1e-12 * C.max())
        if not violators.size:
            break
        cells = np.union1d(cells, violators)
    plan = np.zeros(C.shape)
    plan.flat[cells] = x
    return plan, fun, y


# (key, result) of the last successful exact_ot solve; replaced whole by one
# assignment, so a reader on another thread sees an old or a new pair, never a mix
_OT_LAST = (None, None)


def exact_ot(C, a, b, path=None, line=None):
    """Exact LP optimum of <gamma, C> over couplings of (a, b).

    Returns (cost, plan, u, v) where (u, v) are dual potentials satisfying
    u(x) + v(y) <= C(x, y) and cost = <u, a> + <v, b> up to solver precision.
    plan, u and v are read-only. A negative or nan entry of a or b, or a
    marginal without mass, raises ValueError.

    The LP is solved on the supports, C[a > 0][:, b > 0], and the plan is 0
    off them; with full supports that is the whole problem. The duals on the
    supports are HiGHS's. Off them they are c-transforms, first
    u(x) = min over y in supp b of C(x, y) - v(y), then
    v(y) = min over all x of C(x, y) - u(x), so u + v <= C holds on every
    pair and the cost is unchanged.

    line, mmspace.line_of of the space C lives on, is (positions, period) for
    C the squared distances of points on a segment (period None) or a circle.
    With it the LP runs on a shortlist of cells of the supports, first the
    k0 + k1 - 1 cells of the optimal line coupling (_line_cells), and every
    pair of the supports is priced against its duals: each cell whose reduced
    cost C - u - v is below -1e-12 max C joins the shortlist and the LP runs
    again, until none does (the shortlist method of Gottschlich and
    Schuhmacher, PLoS ONE 2014). So the result is optimal on the full LP by
    that check, whatever the line; a wrong line costs rounds, not accuracy.
    Without a line the shortlist is every cell, so the first LP is the last.

    Without path, the last successful solve is remembered: a call whose C, a,
    b and line are byte-equal to it returns the same objects without an LP.
    The memory holds only such cold solves, and HiGHS is deterministic, so a
    new cold solve would return the same bits. A failed solve leaves the
    memory as it was.

    With path, a list the caller owns for a run of problems on one C, and
    without a line, the solve is linprog's hot start from the path's last
    basis (see linprog) and neither reads nor writes the memory. A change of
    either support restarts the path: that solve is cold on the new supports,
    and the solves after it are hot again. Its results are deterministic for a
    given sequence of problems on the path, and its cost agrees with a cold
    solve's to solver precision; a degenerate problem may get another optimal
    plan. A C other than the path's raises ValueError and leaves the path as
    it was. With a line, the path is not used: every shortlist LP is a small
    cold solve.
    """
    global _OT_LAST
    C = np.asarray(C, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if not ((a >= 0).all() and (b >= 0).all()):
        raise ValueError("transport marginals must be nonnegative")
    if line is not None:
        path = None
    cost_matrix = (C.shape, C.tobytes())
    if path is None:
        key = cost_matrix + (a.tobytes(), b.tobytes(), None if line is None else (line[0].tobytes(), line[1]))
        last_key, last = _OT_LAST
        if key == last_key:
            return last
    sa, sb = a > 0, b > 0
    ia, ib = np.flatnonzero(sa), np.flatnonzero(sb)
    if not (ia.size and ib.size):
        raise ValueError("a transport marginal has no mass")
    supports = (ia.tobytes(), ib.tobytes())
    if path:  # linprog's entry, extended by the cost matrix and the supports of its model
        held_matrix, held_supports = path[0][5:]
        if held_matrix != cost_matrix:
            raise ValueError("a transport problem on a path may differ from the path's only in its "
                             "marginals, the right-hand sides of its LP")
        if held_supports != supports:
            path.clear()
    k0, k1 = ia.size, ib.size
    full = C.shape == (k0, k1)
    Cs = C if full else C[ia][:, ib]
    mass = np.concatenate([a[ia], b[ib]])
    if line is None:  # the shortlist is every cell: one LP, hot on the path if there is one
        x, fun, y, _ = linprog(Cs.ravel(), _marginal_matrix(k0, k1), mass, path=path)
        block = x.reshape(k0, k1)
    else:
        block, fun, y = _priced_shortlist(Cs, mass, _line_cells(line[0][ia], line[0][ib], a[ia], b[ib], line[1]))
    if path is not None:
        path[0] += (cost_matrix, supports)
    if full:
        plan, u, v = block, y[:k0], y[k0:]
    else:
        rows = np.zeros((k0, C.shape[1]))  # two plain scatters; np.ix_ costs twice as much
        rows[:, ib] = block
        plan = np.zeros(C.shape)
        plan[ia] = rows
        u, v = np.empty(C.shape[0]), np.empty(C.shape[1])
        u[ia], v[ib] = y[:k0], y[k0:]
        u[~sa] = (C[~sa][:, ib] - v[ib]).min(axis=1)
        v[~sb] = (C[:, ~sb] - u[:, None]).min(axis=0)
    out = (fun, _freeze(plan), _freeze(u), _freeze(v))
    if path is None:
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


def interior_point(C0, C1, mu0, mu1, budget0, budget1, path=None):
    """Maximize the common slack s over couplings with costs <= budgets - s.

    s < 0 measures the uniform squared-budget inflation needed to reach
    feasibility. Returns (s, nu, y), with y >= 0, sum(y) = 1, the duals of the
    two budget rows. path, if given, is linprog's: the LPs of one problem
    differ only in the budgets, the right-hand sides of the budget rows.
    """
    s0, n = C0.shape
    A_eq, b_eq, rows = _linked_pair_lp(C0, C1, mu0, mu1)
    N = rows.shape[1]
    # one more variable, the free slack s: absent from the equalities, in both budget rows
    A_eq = sparse.csr_matrix((A_eq.data, A_eq.indices, A_eq.indptr), shape=(A_eq.shape[0], N + 1))
    A_ub = sparse.csr_matrix(np.hstack([rows, np.ones((2, 1))]))
    obj = np.zeros(N + 1)
    obj[N] = -1.0
    x, _, _, y = linprog(obj, A_eq, b_eq, A_ub, np.array([budget0, budget1]),
                         bounds=[(0, None)] * N + [(None, None)], path=path)
    return float(x[N]), x[: s0 * n].reshape(s0, n).sum(axis=0), -y


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

    A cut changes only the budgets, so the LPs share one linprog path: each
    after the first re-runs the dual simplex from the last optimal basis,
    which the new budgets leave dual feasible. Each LP is still read and
    checked by linprog, and the path is local to the call, so the result
    depends only on the arguments.
    """
    sel0 = mu0 > 0
    sel1 = mu1 > 0
    C0, C1 = C[sel0], C[sel1]
    m0, m1 = mu0[sel0], mu1[sel1]
    a, b = t * W, (1 - t) * W
    eps = 0.0
    path = []
    for _ in range(_NEWTON_CAP):
        B = np.array([(a + eps) ** 2, (b + eps) ** 2])
        s, _, y = interior_point(C0, C1, m0, m1, B[0], B[1], path)
        if s >= -1e-12:
            return eps
        # root of y0 (a + eps)^2 + y1 (b + eps)^2 = H, H = y.B - s <= y.(costs of any feasible pair)
        H = float(y @ B) - s
        ybar = float(y[0] * a + y[1] * b)
        eps = float(np.sqrt(ybar * ybar - y[0] * a * a - y[1] * b * b + H) - ybar)
    raise SolverError(f"epsilon_min: slack still negative after {_NEWTON_CAP} LPs")


def _budgeted_oracle(C0, C1, mu0, mu1, budgets, c, path=None):
    """LP oracle: minimize <c, nu> over the linked polytope with cost budgets.

    Budget row i is divided by max(b_i, 1e-14 max C_i), so its right-hand
    side is exactly 1 unless b_i is below that floor and its entries stay far
    below the 1e15 HiGHS refuses; the objective is shifted to be nonnegative.
    Both leave the LP and the conditional-gradient bound as they are while
    keeping the LP well scaled at small budgets. Returns (nu_vertex, optimal
    value). path, if given, is linprog's: the oracle LPs of one problem differ
    only in c, the costs of the LP.
    """
    s0, n = C0.shape
    budgets = np.asarray(budgets, dtype=float)
    scale = np.maximum(budgets, 1e-14 * np.array([C0.max(), C1.max()]))
    A_eq, b_eq, rows = _linked_pair_lp(C0, C1, mu0, mu1, scale)
    shift = float(c.min())
    obj = np.concatenate([np.tile(c - shift, s0), np.zeros(C1.size)])
    x, fun, _, _ = linprog(obj, A_eq, b_eq, sparse.csr_matrix(rows), budgets / scale, path=path)
    return x[: s0 * n].reshape(s0, n).sum(axis=0), fun + shift


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
    """Uncertified warm probe for entropy_budget_min, used only for its gradient.

    Approximately minimizes Ent_m(nu) over nu admitting couplings to the
    anchors with squared-cost budgets; anchors: list of (weights, cost_rows),
    cost_rows shaped (support, n). Makes one sweep of exact block-coordinate
    ascent on the dual of an entropic-barrier relaxation per temperature of
    the schedule 0.5 max C, divided by 5 down to 5e-2: the marginal potentials
    and then the linking potentials in closed form, each budget multiplier by
    a monotone Newton solve between them. Returns the primal measure of the
    last dual iterate; it need not be feasible.
    """
    tau_floor = 5e-2
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
    logT = np.empty((k, n))
    for tau in schedule:
        for i in range(k):
            lse = logsumexp((ws[i][None, :] - lam[i] * Cs[i]) / tau + log_m[None, :], axis=1)
            alpha = tau * (log_mus[i] - lse + 1.0)
            base = (alpha[:, None] + ws[i][None, :]) / tau + log_m[None, :] - 1.0
            lam[i] = _lambda_update(base, Cs[i], tau, budgets[i], lam[i])
            logT[i] = logsumexp((alpha[:, None] - lam[i] * Cs[i]) / tau - 1.0, axis=0)
        b = -1.0 - logT
        ws = tau * b - (tau * tau * b.sum(axis=0) / (1.0 + k * tau))[None, :]

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

    def ent_grad(th):
        nu = th @ V
        glog = np.where(nu > 0, np.log(np.maximum(nu / m, 1e-300)) + 1.0, np.log(1e-300))
        return relative_entropy(nu, m), V @ glog

    cur = relative_entropy(theta @ V, m)
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
            theta = th / total
            cur = relative_entropy(theta @ V, m)
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

    The oracle LPs differ only in their objective, so they share one linprog
    path: each after the first re-runs the dual simplex from the last optimal
    basis, which a cost change leaves primal feasible. The bound uses the
    value of each LP's checked optimum, whichever optimal vertex a hot run
    ends at, and the path is local to the call, so the result depends only
    on the arguments.
    """
    m = np.asarray(m, dtype=float)
    sup_mus = [np.asarray(a[0], dtype=float) for a in anchors]
    Cs = [np.asarray(a[1], dtype=float) for a in anchors]
    budgets = np.asarray(budgets, dtype=float)
    CLAMP = -60.0  # zero-coordinate gradient; correction term ~ e^{-61} per site

    def grad_at(nu):
        return np.where(nu > 0, np.log(np.maximum(nu / m, 1e-300)) + 1.0, CLAMP)

    path = []

    def oracle(c):
        return _budgeted_oracle(Cs[0], Cs[1], sup_mus[0], sup_mus[1], budgets, c, path)

    probes = [np.zeros(len(m))] + [grad_at(p) for p in warm_points]
    V = np.array([oracle(c)[0] for c in probes])
    theta, _ = _hull_minimize(V, m)

    best = None
    for it in range(_ORACLE_CAP):
        nu = theta @ V
        nu = np.maximum(nu, 0.0)
        nu = nu / nu.sum()
        ent = relative_entropy(nu, m)
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
    the symmetric scaling for the problem transporting mu onto itself.

    Every step is p <- (p + eps log(mu/m) - eps lse((p - C)/eps + log m - 1))/2.
    A step in this log-domain form absorbs: it fixes p0 and the kernel
    G = exp((p0 (+) p0 - C)/eps + log m - 1). The scaled steps after it,
    log s <- (log s + log(mu/m) - log(G s))/2 with p = p0 + eps log s, cost
    one mat-vec each, on the rows of G with a nonzero entry; the other rows
    keep p0. A scaled step whose log s is not finite is not taken; after one
    whose |log s| exceeds _SCALING_BOUND, s is absorbed. Every step ends with
    the stopping test on the step of p, and _POTENTIAL_CAP counts both kinds.
    """
    log_m = np.log(m)
    d = np.log(np.maximum(mu, 1e-300)) - log_m
    p = np.zeros(len(mu))
    steps = 0
    while steps < _POTENTIAL_CAP:
        steps += 1
        lse = logsumexp((p[None, :] - C) / eps + log_m[None, :] - 1.0, axis=1)
        p_new = 0.5 * (p + eps * d - eps * lse)
        if np.abs(p_new - p).max() < _POTENTIAL_TOL * eps:
            return p_new
        p = p_new
        G = np.exp((p[:, None] + p[None, :] - C) / eps + log_m[None, :] - 1.0)
        rows = G.any(axis=1)
        G, d_rows = G[rows], d[rows]
        log_s = np.zeros(len(mu))
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            while steps < _POTENTIAL_CAP:
                log_s_new = 0.5 * (log_s[rows] + d_rows - np.log(G @ np.exp(log_s)))
                if not np.isfinite(log_s_new).all():
                    break  # out of range: not taken, the next log-domain step takes its place
                steps += 1
                step = np.abs(log_s_new - log_s[rows]).max()
                log_s[rows] = log_s_new
                if step < _POTENTIAL_TOL:
                    return p + eps * log_s
                if np.abs(log_s_new).max() > _SCALING_BOUND:
                    break
        p = p + eps * log_s
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

    Each absorbing sweep is the log-domain sweep
    alpha = taub (log mu - lse((w - lam C)/taub + log m) + 1),
    w = taub (-1 + dbf - lse((alpha - lam C)/taub - 1)) / (1 + taub), with
    lam = 1/(2 tau) and dbf = p/(2 tau). It fixes the kernel
    G = exp((alpha (+) w - lam C)/taub + log m - 1), the current coupling,
    and c = -1 + dbf + log m - w. The scaled sweeps after it,
    a = mu / (G b) and log b = (c - log(a^T G)) / (1 + taub), are the same
    sweep with alpha + taub log a and w + taub log b in place of alpha and w,
    on the rows and columns of G with a nonzero entry. A scaled sweep whose
    log b is not finite is not taken; after one whose |log b| exceeds
    _SCALING_BOUND the scalings are absorbed. Every sweep ends with the
    stopping test on the step of w, below _PROX_SWEEP_TOL times taub, and
    sweeps counts both kinds against _PROX_SWEEP_CAP. The certificate is
    computed from (alpha, w) in the log domain and is weak duality at any
    (alpha, w).
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

    tol = _PROX_SWEEP_TOL * max(taub, 1e-8)
    w = np.zeros(n)
    sweeps = 0
    while sweeps < _PROX_SWEEP_CAP:
        # absorbing sweep, in the log domain
        sweeps += 1
        lse = logsumexp((w[None, :] - lam * Cr) / taub + log_m[None, :], axis=1)
        alpha = taub * (log_mu - lse + 1.0)
        logT = logsumexp((alpha[:, None] - lam * Cr) / taub - 1.0, axis=0)
        w_new = taub * (-1.0 + dbf - logT) / (1.0 + taub)
        delta = np.abs(w_new - w).max()
        w = w_new
        if delta < tol:
            break
        # scaled sweeps on the representable block of the current coupling
        G = np.exp((alpha[:, None] + w[None, :] - lam * Cr) / taub + log_m[None, :] - 1.0)
        rows, cols = G.any(axis=1), G.any(axis=0)
        G = G[np.ix_(rows, cols)]
        mu_r, c = mu[sel][rows], -1.0 + dbf[cols] + log_m[cols] - w[cols]
        log_b, a = np.zeros(int(cols.sum())), np.ones(int(rows.sum()))
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            while sweeps < _PROX_SWEEP_CAP:
                a_new = mu_r / (G @ np.exp(log_b))
                log_b_new = (c - np.log(a_new @ G)) / (1.0 + taub)
                if not np.isfinite(log_b_new).all():
                    break  # out of range: not taken, the next absorbing sweep takes its place
                sweeps += 1
                delta = taub * np.abs(log_b_new - log_b).max()
                log_b, a = log_b_new, a_new
                if delta < tol or np.abs(log_b).max() > _SCALING_BOUND:
                    break
        w[cols] += taub * log_b
        alpha[rows] += taub * np.log(a)
        if delta < tol:
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
    primal = (relative_entropy(nu, m) - float(dbf @ nu) + lam * float((gam * Cr).sum())
              + taub * relative_entropy(gam, m))  # KL(gam | 1 x m)
    return nu, float(primal - dual), sweeps
