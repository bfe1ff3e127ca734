"""Shared convex machinery: exact transport LPs and the entropy minimizers.

Every LP is one call of linprog below, and linprog is the one place where a
solver status is read: an LP HiGHS proves infeasible raises InfeasibleError,
any other failure (time limit, unbounded, rejected model, numerical trouble)
raises SolverError. Each LP is one HiGHS simplex run without presolve,
which misreports tiny marginals as infeasible and costs about 40% of a 64x64
transport LP, at primal tolerance 1e-10 to match ot.MARGINAL_TOL (_LP_OPTIONS):
the dual simplex, but the primal one on a hot run whose costs alone changed
(below).
linprog drives the HiGHS core bundled with scipy directly, with the model and
options scipy.optimize.linprog would pass, so the results are scipy's bits
without scipy's per-call wrapper work, which cost more than the solve on the
small transport LPs. The core is loaded from its own file (_scipy_extension):
importing it through its package would run scipy.optimize's __init__, which
loads scipy.sparse and scipy.linalg and takes longer than all the rest of
`import rcdlab`.

Every LPModel is built from the CSC arrays of its matrix, laid out in NumPy
when the model is built, with float column bounds; so the transport layer
keeps no state per size, only exact_ot's last solve (_OT_LAST) and idle
HiGHS instances (_IDLE). The arrays are the ones scipy.sparse built for the
same LP (rows A_ub over A_eq, converted to CSC), byte for byte: each column
of a transport LP holds its two marginal rows (_shortlist_model), and each
column of a linked-pair LP (_linked_pair_lp) its budget entry where that is
nonzero, its marginal row and its link row, so all columns are filled at
once. Building them through scipy.sparse cost more than HiGHS spends on
many of the small linked-pair LPs.

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

exact_ot solves the LP on a shortlist of cells of the supports, prices every
other pair of the supports by its reduced cost against the LP's duals, and
adds the violators and solves again until there are none (the shortlist
method; Gottschlich and Schuhmacher, PLoS ONE 2014). The check, not the
choice of cells, makes the result optimal on the full LP; a poor shortlist
costs rounds. On a segment or a cycle (mmspace.line_of) the optimal plan is
known in advance up to one parameter: the monotone coupling, on a cycle at
the best shift (Delon, Salomon and Sobolevski, SIAM J. Appl. Math. 2010),
with at most k0 + k1 - 1 cells, which are the shortlist. They are a spanning
tree whose one coupling is the north-west corner masses, so the first LP
starts HiGHS at the tree's basis, which is optimal on the cells wherever the
masses are nonnegative; the later LPs start from the slack basis. On the
flows of configs/cycle64_rcd.json every shortlist holds at its first LP, of
at most 127 columns where the full model has 4096, and 30 of the 34 LPs of
one run of it end without a simplex iteration, where each took about 130
from the slack basis. Without a line the shortlist is the 16 cheapest cells
of each row and of each column (_SEED_CELLS) and the north-west staircase of
the marginals in index order, which carries a coupling, so the first LP is
feasible; it is not a tree and runs from the slack basis. On random_metric:128
with Dirichlet marginals that is about 2500 of the 16384 cells, the LP holds
at its first or second round, and a solve takes about 7 ms against 18 ms for
the full LP. Up to min(k0, k1) = 48 (_SEED_GATE) the shortlist is every cell,
so the one LP is the full LP, with its bits.

A sequence of LPs that differ only in their costs and right-hand sides runs
on one LPModel, the matrix and column bounds its loop builds once. After a
run linprog holds the model's HiGHS instance and changes only its costs and
row bounds for the next, and restarts from the last optimal basis with the
simplex the change leaves feasible. A change of right-hand sides leaves the
basis dual feasible, so the dual simplex repairs it (Huangfu and Hall,
Parallelizing the dual revised simplex method, Math. Prog. Comp. 2018); a
change of costs alone leaves it primal feasible, so the primal simplex does
(Bertsimas and Tsitsiklis, Introduction to Linear Optimization, 1997, 5.1),
where the dual simplex would start dual infeasible. Three loops use one:
- exact_ot_costs, a series of transport problems on one cost matrix without
  a line, such as the speeds along a flow or the distances from each flow
  measure to one target on a random metric; on the flows of
  configs/cycle64_rcd.json, solved without their line, that halved the
  simplex iterations. Each problem runs on the last shortlist model of the
  problem before it, and only one whose pricing finds violators builds new
  models, cold. A change of either support is a new shortlist, whose first
  LP is cold, so a series orders its problems to restart on small models
  (heat._w2_speeds walks a flow from its end). With a line each problem is
  exact_ot's, whose first shortlist LP starts at the line coupling's basis;
- entropy_budget_min's oracle LPs, which differ only in their objective; on
  a pass of the geodesic benchmark a hot oracle LP takes 9.6 simplex
  iterations on average, 18.0 on the dual simplex, where a cold solve takes
  78;
- epsilon_min's Newton cuts, which differ only in their budgets.
Hot runs are checked like cold ones, and each model is built and dropped
within one call. A dropped small model's HiGHS instance is cleared and kept
(_IDLE) for a later cold run, which passes it the options and the model
anew and gets a new instance's bits, so no result depends on the call
history outside the call.

interior_point measures the common slack of the linked-pair polytope: two
couplings sharing their second marginal, each under a quadratic-cost budget.
epsilon_min finds the least relaxation of those budgets by dual Newton cuts
on that slack: every iterate is an LP-duality lower bound, and the value
returned has its slack verified by one more LP.

entropy_budget_min minimizes relative entropy over that polytope with a
fully-corrective conditional-gradient method whose LP oracle returns exact
extreme points; _hull_minimize re-optimizes the hull weights by a
primal-dual interior-point method on the simplex, Mehrotra's
predictor-corrector, which stops when the Frank-Wolfe gap of the weights is
at most _HULL_SHARE of the run's tol. The corrective step need not be exact:
the certificate is weak duality at whatever weights it returns, and their
entropy exceeds the hull's least entropy, which is at most what the plain
Frank-Wolfe step reaches, by at most that share of the tol (Jaggi,
Revisiting Frank-Wolfe: projection-free sparse convex optimization, ICML
2013; Lacoste-Julien and Jaggi, On the global linear convergence of
Frank-Wolfe optimization variants, NeurIPS 2015). On criterion 3's builds
that takes at most 7 steps of one small KKT inverse each, where running to
rounding took up to 17, and criterion 3's geodesics come out with the same
bits at 1 and at 2 BLAS threads. The only certificate for those midpoints is
the closed-form Frank-Wolfe bound D(c) = min <c, .> - sum_y m_y e^{c_y - 1}
at c = grad Ent of an iterate, with min <c, .> the oracle LP's value.
dirac_pair_min solves the case of Dirac anchors by projected Newton on its
low-dimensional dual. The two return (nu, bound), entropy_budget_min with its
iteration count as well. Both dual bounds are returned less an allowance for
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
about 1e-308, alpha and w keep their absorbed values. The sweeps are
over-relaxed: both half-steps move alpha and w by one factor omega times the
plain sweep's step, which leaves the fixed point where it is and, taken by
Young's rule, speeds up a two-block Gauss-Seidel loop (Young, Iterative
methods for solving partial difference equations of elliptic type, Trans.
AMS 1954; Thibault, Chizat, Dossal and Papadakis, Overrelaxed Sinkhorn-Knopp
algorithm for regularized optimal transport, Algorithms 2021). omega is 1 on
the first sweeps and then 2 / (1 + sqrt(1 - rho)), below 2, with rho the
ratio of two consecutive plain steps; on the ten steps of the golden config's
jko task the sweeps fall from 1132 to 480. The certificate is computed from
(alpha, w) as in the log domain: its dual bound is weak duality at any
(alpha, w), so it holds wherever the sweeps stop. symmetric_potential, the
debiasing potential, is computed the same way, without relaxation.
"""

from __future__ import annotations

import collections
import importlib.machinery
import importlib.util
import os
import sys
import weakref

import numpy as np
import scipy

from .measures import relative_entropy
from .mmspace import _freeze


def _scipy_extension(name):
    """The compiled scipy module of that dotted name, loaded from its file
    under scipy's directory without running the __init__ of its packages.
    It is registered in sys.modules under its name, and a module already
    there is returned as it is, so scipy's own imports of it and ours share
    one module object whichever comes first. A package imported later does
    not get it as an attribute; import statements find it in sys.modules."""
    if name in sys.modules:
        return sys.modules[name]
    stem = os.path.join(os.path.dirname(scipy.__file__), *name.split(".")[1:])
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        if os.path.exists(stem + suffix):
            break
    else:
        raise ImportError(f"no compiled module {name} at {stem}")
    spec = importlib.util.spec_from_file_location(name, stem + suffix)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[name] = module
    return module


_highs = _scipy_extension("scipy.optimize._highspy._core")

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
_TREE_MASS_FLOOR = 1e-8  # least tree mass at which a line LP starts at its tree; 100 times the primal tolerance
_NEWTON_CAP = 50  # LPs per epsilon_min call; two or three suffice in practice
_DUAL_NEWTON_CAP = 200  # Newton steps per dirac_pair_min call; about 35 at a pinned vertex
_BACKTRACK_CAP = 60  # step halvings per Newton step
_ORACLE_CAP = 80  # oracle LPs per entropy_budget_min call
_HULL_ITER_CAP = 100  # interior-point steps per _hull_minimize call; at most 7 on criterion 3's builds
# the share of entropy_budget_min's tol at which its hull steps stop: their
# weights then leave at most that much excess entropy over the hull's optimum
_HULL_SHARE = 1e-2
_POTENTIAL_CAP = 2000  # scaling steps per symmetric_potential call
_POTENTIAL_TOL = 1e-13  # symmetric_potential stops on a step below this times eps
_PROX_SWEEP_CAP = 20000  # dual sweeps per prox_entropy_step call
_PROX_SWEEP_TOL = 1e-11  # prox_entropy_step stops on a sweep below this times taub
# the sweep of prox_entropy_step whose step over the one before is Young's
# rho: the first ratio of steps that leaves out the step from the arbitrary
# start w = 0. The sweeps up to it are absorbing, so rho is measured on every
# row and column, as in the log domain
_YOUNG_SWEEP = 3
_SCALING_BOUND = 30.0  # |log| of a scaling beyond which it is absorbed into the log-domain potentials
# cheapest cells per row and per column of a transport shortlist without a
# line. Per solve on random_metric:128 with Dirichlet marginals, at 1 BLAS
# thread: k = 4, 8, 12, 16, 24, 32 took 16.0, 12.2, 11.1, 6.7, 7.2, 7.9 ms in
# 3.5, 2.7, 1.9, 1.25, 1.0, 1.0 LPs, against 17.8 ms for the full LP; at n = 64,
# 6.7, 3.8, 3.2, 2.8, 3.1, 3.5 against 4.4 ms
_SEED_CELLS = 16
# min(k0, k1) up to which that shortlist is every cell, so the LP is the full
# one, bit for bit. In the same sweep k = 16 gained nothing at n = 32 (1.74
# against 1.72 ms) and 1 ms at n = 48 (2.35 against 3.39); 48 keeps criterion
# 1's n = 30 and every test space up to 48 points on the full LP
_SEED_GATE = 48


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


# the HiGHS options of every LP, built once instead of once per cold LP, where
# building them took about 65 us of a fixed cost of about 0.4 ms
_HIGHS_OPTIONS = _highs.HighsOptions()
for _key, _val in {**_HIGHS_FIXED, **_LP_OPTIONS}.items():
    setattr(_HIGHS_OPTIONS, _key, ("on" if _val else "off") if _key == "presolve" else _val)
del _key, _val
_BASIC, _AT_LOWER = _highs.HighsBasisStatus.kBasic, _highs.HighsBasisStatus.kLower
_PRIMAL, _DUAL = _highs.simplex_constants.SimplexStrategy.kSimplexStrategyPrimal, _HIGHS_FIXED["simplex_strategy"]


class LPModel:
    """The constraint matrix of a loop of LPs that differ only in their costs
    and right-hand sides, built once per loop, and its column bounds. The
    matrix is rows A_ub over A_eq, its first n_ub rows the A_ub rows, given
    as the CSC arrays indptr, indices (int32) and data of the given shape
    (rows, columns): column k's entries are data[indptr[k]:indptr[k + 1]] in
    the rows indices[indptr[k]:indptr[k + 1]]. lb and ub are the column
    bounds, numbers or arrays, -inf and inf where a column is unbounded.
    start, if given, marks the basic variables, the columns and then the
    rows' slacks, of the basis a cold run starts from; every other variable
    starts at its lower bound. hot is (HiGHS instance, c, lhs, rhs) of the
    last run on it that passed linprog's checks, None before the first run
    and after a failed one. When the model is dropped, the instance hot holds
    may be cleared and kept for a later cold run (_pool_instance)."""

    def __init__(self, shape, indptr, indices, data, n_ub=0, lb=0.0, ub=np.inf, start=None):
        self.shape, self.n_ub = shape, n_ub
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int32)
        self.indices = np.ascontiguousarray(indices, dtype=np.int32)
        self.data = np.ascontiguousarray(data, dtype=float)
        # HiGHS reads these arrays through raw pointers, sized by the shape and indptr[-1]
        if self.indptr.shape != (shape[1] + 1,) or not self.indptr[-1] == self.indices.size == self.data.size:
            raise ValueError(f"LP matrix arrays disagree with its shape {shape}")
        if not np.isfinite(self.data).all():
            raise ValueError("LP input contains inf or nan")
        self.lb = np.full(shape[1], lb, dtype=float)
        self.ub = np.full(shape[1], ub, dtype=float)
        self.lhs_ub = np.full(n_ub, -np.inf)  # the left sides of the A_ub rows
        self.integrality = np.zeros(shape[1], dtype=np.int32)  # every column continuous
        self.start = start
        self.hot = None
        # reads hot as it is when the model is dropped; not run at interpreter exit
        weakref.finalize(self, _pool_instance, vars(self)).atexit = False


# cleared HiGHS instances of dropped models, taken by the next cold runs; a
# full pool drops its oldest. Building an instance costs 70 to 110 us, more
# than many of the small LPs take to solve. A cleared instance keeps the
# memory of the largest model it held (about 0.3 MB after 17 x 17 transport,
# 5 MB after 128 x 128), so an instance is kept only after a model of at
# most _IDLE_MAX_COLUMNS columns, and so were all its earlier models; on a
# larger LP the 0.1 ms is lost in the solve.
_IDLE = collections.deque(maxlen=4)
_IDLE_MAX_COLUMNS = 1024


def _pool_instance(state):
    """Keep the HiGHS instance of a dropped LPModel, whose attributes state
    holds, for a later cold run, if its last run passed every check."""
    if state["hot"] and state["shape"][1] <= _IDLE_MAX_COLUMNS:
        highs = state["hot"][0]
        highs.clearModel()
        _IDLE.append(highs)


def linprog(model, c, b_eq, b_ub=None):
    """Minimize <c, x> subject to A_ub x <= b_ub, A_eq x = b_eq and the column
    bounds of model, an LPModel, by one run of the HiGHS simplex bundled with
    scipy, with _LP_OPTIONS.

    HiGHS gets the model and the options scipy.optimize.linprog(method="highs")
    gives it: left sides -inf on the A_ub rows and b_eq on the A_eq rows,
    every column continuous. So a cold run returns the same bits, without
    that wrapper's input copies, per-call option re-validation and bound
    marginals, which cost more than a small solve. The HighsOptions are built
    once, at import (_HIGHS_OPTIONS). Like scipy it raises ValueError on
    non-finite input.

    A run on a model without a hot instance is cold: from the slack basis, or
    from model.start, which linprog hands HiGHS with setBasis; a cold run
    without a start keeps scipy's bits. It runs on an idle instance, one a
    dropped model left cleared (_pool_instance), or on a new one if there is
    none; either way it is passed the options and the model anew, and returns
    the bits a new instance would. Otherwise linprog changes that
    instance's costs (changeColsCost) and row bounds (changeRowBounds) where
    they differ from the last run's and runs it again from its last optimal
    basis. A cost change leaves that basis primal feasible and a bound change
    leaves it dual feasible, so a hot run whose costs alone changed is the
    primal simplex's repair of the one, any other the dual simplex's repair of
    the other, not a solve from the slack basis. A cold run is the dual
    simplex of _HIGHS_OPTIONS, which passOptions sets anew. A hot run is read
    and checked below exactly like a cold one; on a degenerate LP it may end
    at another optimal vertex than a cold solve.

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
    n_ub = model.n_ub
    lhs = np.concatenate([model.lhs_ub, b_eq])
    rhs = np.concatenate([b_ub, b_eq])
    # HiGHS reads these arrays through raw pointers, sized by c and rhs
    if c.ndim != 1 or b_eq.ndim != 1 or b_ub.shape != (n_ub,) or model.shape != (rhs.size, c.size):
        raise ValueError(f"LP shapes disagree: c {c.shape}, A {model.shape}, b_ub {b_ub.shape}, b_eq {b_eq.shape}")
    if not all(np.isfinite(v).all() for v in (c, b_ub, b_eq)):
        raise ValueError("LP input contains inf or nan")

    if model.hot:
        highs, held_c, held_lhs, held_rhs = model.hot
        cols = np.flatnonzero(c != held_c)
        if cols.size:
            highs.changeColsCost(cols.size, cols.astype(np.int32), c[cols])
        rows = np.flatnonzero((lhs != held_lhs) | (rhs != held_rhs))
        for i in rows.tolist():
            highs.changeRowBounds(i, lhs[i], rhs[i])
        # the instance keeps the strategy of its last run, and a cold run's passOptions resets it
        highs.setOptionValue("simplex_strategy", _DUAL if rows.size else _PRIMAL)
    else:
        try:
            highs = _IDLE.pop()
        except IndexError:
            highs = _highs._Highs()
        if highs.passOptions(_HIGHS_OPTIONS) == _highs.HighsStatus.kError:
            raise SolverError("HiGHS rejected the LP options")
        if highs.passModel(c.size, rhs.size, model.data.size, _highs.MatrixFormat.kColwise, _highs.ObjSense.kMinimize,
                           0.0, c, model.lb, model.ub, lhs, rhs, model.indptr, model.indices, model.data,
                           model.integrality) == _highs.HighsStatus.kError:
            raise SolverError("HiGHS rejected the LP model")
        if model.start is not None:
            basis = _highs.HighsBasis()
            start = [_AT_LOWER] * model.start.size
            for i in np.flatnonzero(model.start).tolist():
                start[i] = _BASIC
            basis.col_status, basis.row_status, basis.valid = start[:c.size], start[c.size:], True
            if highs.setBasis(basis) == _highs.HighsStatus.kError:
                raise SolverError("HiGHS rejected the LP start basis")
    model.hot = None  # set again below after a run that passes every check
    highs.run()
    status = highs.getModelStatus()
    if status == _highs.HighsModelStatus.kInfeasible:
        raise InfeasibleError("LP infeasible")
    if status != _highs.HighsModelStatus.kOptimal:
        raise SolverError(f"LP failed: HiGHS model status {highs.modelStatusToString(status)}")

    solution = highs.getSolution()
    x = np.array(solution.col_value, dtype=float)
    fun = highs.getObjectiveValue()
    slack = rhs - np.array(solution.row_value, dtype=float)
    tol = _RESULT_TOL
    # each comparison is False at a nan, so a nan in x, fun or slack fails too
    if not (fun == fun and (x >= model.lb - tol).all() and (x <= model.ub + tol).all()
            and (slack[:n_ub] >= -tol).all() and (np.abs(slack[n_ub:]) <= tol).all()):
        raise SolverError(f"LP optimum misses its constraints by more than {tol:.2e}")
    dual = np.array(solution.row_dual, dtype=float)
    model.hot = (highs, c.copy(), lhs, rhs)  # c may be a view of the caller's array
    return x, fun, dual[n_ub:], dual[:n_ub]


def _staircase(p, q):
    """Rows, columns and masses of the north-west corner rule on masses p and q
    in index order: the k0 + k1 - 1 cells of a path through every row and
    column, a spanning tree, and the one coupling of p and q on them."""
    A, B = np.cumsum(p), np.cumsum(q)
    cuts = np.concatenate([A[:-1] / A[-1], B[:-1] / B[-1]])
    order = np.argsort(cuts, kind="stable")
    down = order < p.size - 1
    mass = np.diff(cuts[order], prepend=0.0, append=1.0) * A[-1]
    return np.concatenate([[0], np.cumsum(down)]), np.concatenate([[0], np.cumsum(~down)]), mass


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
    """(cells, mass): the flat cells i * q.size + j of the optimal coupling of
    sum p_i delta_{x_i} and sum q_j delta_{y_j}, for positions nondecreasing
    in index, in increasing order, and the coupling's masses on them: on a line
    (period None) the north-west corner rule in index order, and on a circle of
    length period the same rule from the cut of _best_shift."""
    r = s = -1
    if period is not None:
        r, s = _best_shift(x / period, y / period, p, q)
    i, j, mass = _staircase(np.roll(p, -1 - r), np.roll(q, -1 - s))
    cells = (i + 1 + r) % p.size * q.size + (j + 1 + s) % q.size
    order = np.argsort(cells)
    return cells[order], mass[order]


def _tree_start(tree_mass, rows):
    """LPModel's start at the basis of a spanning tree of cells whose one
    coupling has the masses tree_mass, for a transport LP with that many
    marginal rows: every tree cell is basic, and so is the slack of the last
    marginal row, which the other rows make redundant. The other variables
    are slacks of equality rows, so the basis is dual feasible; the tree's
    masses are its primal values, so where they are nonnegative HiGHS stops
    before its first iteration. None, the slack basis, unless every mass is
    at least _TREE_MASS_FLOOR: below it the full LP is exact only to its
    primal tolerance, while the tree start gives the exact optimum (on
    cycle:3 with marginals 1.8e-11 apart, W2^2 = 2.0e-12 against the full
    LP's 0.0), so the tree's LP runs from the slack basis like the full LP."""
    if tree_mass.min() < _TREE_MASS_FLOOR:
        return None
    start = np.zeros(tree_mass.size + rows, dtype=bool)
    start[:tree_mass.size] = start[-1] = True
    return start


def _shortlist_model(k0, k1, cells, start=None):
    """LPModel, from start, of the transport LP on the flat cells i * k1 + j
    of a k0 x k1 coupling: cell (i, j) has a 1 in the marginal rows i and
    k0 + j. The arrays are laid out anew for each model; none is kept."""
    rows = np.empty((cells.size, 2), dtype=np.int32)
    rows[:, 0], rows[:, 1] = cells // k1, k0 + cells % k1
    return LPModel((k0 + k1, cells.size), np.arange(0, rows.size + 1, 2, dtype=np.int32), rows.ravel(),
                   np.ones(rows.size), start=start)


def _cheap_cells(C, mass):
    """The flat cells of the first shortlist of the transport LP with costs C
    and marginals mass, none of them on a line: the _SEED_CELLS cheapest cells
    of each row and of each column, and the north-west corner staircase of the
    marginals in index order (_staircase), a spanning tree that carries a
    coupling, so the first LP is feasible whenever the masses agree. Up to
    the gate, min(k0, k1) <= _SEED_GATE, it is every cell, so the first LP
    is the full one."""
    k0, k1 = C.shape
    if min(k0, k1) <= _SEED_GATE:
        return np.arange(C.size)
    keep = np.zeros(C.shape, dtype=bool)
    np.put_along_axis(keep, np.argpartition(C, _SEED_CELLS - 1, axis=1)[:, :_SEED_CELLS], True, axis=1)
    np.put_along_axis(keep, np.argpartition(C, _SEED_CELLS - 1, axis=0)[:_SEED_CELLS], True, axis=0)
    i, j, _ = _staircase(mass[:k0], mass[k0:])
    keep[i, j] = True
    return np.flatnonzero(keep)


def _priced_shortlist(C, mass, cells, model):
    """(x, cost, duals, cells, model) of the transport LP with costs C and
    marginals mass, solved first on the sorted flat cells with model, their
    LPModel, and then priced: every cell of C whose reduced cost against the
    LP's duals is below -1e-12 max C joins the cells and the LP is solved
    again, on a new model from the slack basis, until none does. x is the
    optimum on the returned cells, which model, the last LP's, holds.

    The first run is the model's: from its start, a tree's basis
    (_tree_start), on a line's shortlist; from the slack basis on a seed that
    is not a tree (_cheap_cells), which has no start; or hot from the last
    basis of a held model (exact_ot_costs)."""
    k0, k1 = C.shape
    while True:
        x, fun, y, _ = linprog(model, C.ravel()[cells], mass)
        if cells.size == C.size:  # the full LP leaves no cell to price
            return x, fun, y, cells, model
        reduced = C - y[:k0, None] - y[None, k0:]
        reduced.flat[cells] = 0.0  # the LP's own columns, priced by HiGHS
        joining = reduced < -1e-12 * C.max()
        if not joining.any():
            return x, fun, y, cells, model
        joining.flat[cells] = True
        cells = np.flatnonzero(joining)
        model = _shortlist_model(k0, k1, cells)


# (key, result) of the last successful exact_ot solve; replaced whole by one
# assignment, so a reader on another thread sees an old or a new pair, never a mix
_OT_LAST = (None, None)


def _on_supports(C, a, b):
    """(ia, ib, C[ia][:, ib], a[ia] followed by b[ib]) for the supports ia of
    a and ib of b: the costs and right-hand sides of the transport LP on them,
    with C itself on full supports. A negative or nan entry of a or b, or a
    marginal without mass, raises ValueError."""
    if not ((a >= 0).all() and (b >= 0).all()):
        raise ValueError("transport marginals must be nonnegative")
    ia, ib = np.flatnonzero(a > 0), np.flatnonzero(b > 0)
    if not (ia.size and ib.size):
        raise ValueError("a transport marginal has no mass")
    Cs = C if C.shape == (ia.size, ib.size) else C[ia][:, ib]
    return ia, ib, Cs, np.concatenate([a[ia], b[ib]])


def exact_ot(C, a, b, line=None):
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

    The LP runs on a shortlist of cells of the supports, and every pair of
    the supports is priced against its duals: each cell whose reduced cost
    C - u - v is below -1e-12 max C joins the shortlist and the LP runs
    again, until none does (_priced_shortlist; the shortlist method of
    Gottschlich and Schuhmacher, PLoS ONE 2014). So the result is optimal on
    the full LP by that check, whatever the first shortlist; a poor one
    costs rounds, not accuracy. line, mmspace.line_of of the space C lives
    on, is (positions, period) for C the squared distances of points on a
    segment (period None) or a circle. With it the first shortlist is the
    k0 + k1 - 1 cells of the optimal line coupling (_line_cells), solved from
    their basis. Without a line it is the cheapest cells of each row and
    column and the north-west staircase (_cheap_cells), solved from the
    slack basis; up to its gate that is every cell, so the first LP is the
    full one and the last.

    The last successful solve is remembered: a call whose C, a, b and line
    are byte-equal to it returns the same objects without an LP. Every solve
    here builds its own models, so it starts from the slack basis or from the
    line coupling's, never from an earlier call's; HiGHS is deterministic, so
    a new solve would return the same bits. A failed solve leaves the memory
    as it was.
    """
    global _OT_LAST
    C = np.asarray(C, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    key = (C.shape, C.tobytes(), a.tobytes(), b.tobytes(), None if line is None else (line[0].tobytes(), line[1]))
    last_key, last = _OT_LAST
    if key == last_key:
        return last
    ia, ib, Cs, mass = _on_supports(C, a, b)
    k0, k1 = ia.size, ib.size
    if line is None:
        cells, start = _cheap_cells(Cs, mass), None
    else:
        cells, tree_mass = _line_cells(line[0][ia], line[0][ib], a[ia], b[ib], line[1])
        start = _tree_start(tree_mass, k0 + k1)
    x, fun, y, cells, _ = _priced_shortlist(Cs, mass, cells, _shortlist_model(k0, k1, cells, start))
    block = np.zeros((k0, k1))
    block.flat[cells] = x
    if Cs is C:
        plan, u, v = block, y[:k0], y[k0:]
    else:
        rows = np.zeros((k0, C.shape[1]))  # two plain scatters; np.ix_ costs twice as much
        rows[:, ib] = block
        plan = np.zeros(C.shape)
        plan[ia] = rows
        u, v = np.empty(C.shape[0]), np.empty(C.shape[1])
        u[ia], v[ib] = y[:k0], y[k0:]
        u[a == 0] = (C[a == 0][:, ib] - v[ib]).min(axis=1)
        v[b == 0] = (C[:, b == 0] - u[:, None]).min(axis=0)
    out = (fun, _freeze(plan), _freeze(u), _freeze(v))
    _OT_LAST = (key, out)
    return out


def exact_ot_costs(C, pairs, line=None):
    """[exact_ot(C, a, b, line=line)[0] for a, b in pairs], the costs of a
    series of transport problems on one cost matrix, in order.

    With a line each problem is exact_ot's, which reads and writes its memory.
    Without one, each run of consecutive pairs with the same supports shares
    one shortlist: the first pair of a run is solved as exact_ot solves it,
    with its bits, and each later pair runs hot from the last optimal basis
    (see linprog) on the last LPModel of the pair before it and is priced
    like it, so only a pair with violators builds new, cold models. The held
    cells carry a coupling of the earlier pair, not always of this one: if
    its hot LP is infeasible and the cells lack this pair's staircase, the
    pair is solved cold on the cells and the staircase. Below _cheap_cells'
    gate the shortlist is every cell, so a run is one model. A hot cost
    agrees with a cold one to solver precision. exact_ot's memory is neither
    read nor written, and the models live as long as the call, so the costs
    depend only on the arguments.
    """
    if line is not None:
        return [exact_ot(C, a, b, line=line)[0] for a, b in pairs]
    C = np.asarray(C, dtype=float)
    costs, held = [], None
    for a, b in pairs:
        ia, ib, Cs, mass = _on_supports(C, np.asarray(a, dtype=float), np.asarray(b, dtype=float))
        k0, k1 = ia.size, ib.size
        if (ia.tobytes(), ib.tobytes()) != held:
            held, cells = (ia.tobytes(), ib.tobytes()), _cheap_cells(Cs, mass)
            model = _shortlist_model(k0, k1, cells)
        try:
            _, fun, _, cells, model = _priced_shortlist(Cs, mass, cells, model)
        except InfeasibleError:
            i, j, _ = _staircase(mass[:k0], mass[k0:])
            keep = np.zeros(Cs.size, dtype=bool)
            keep[cells] = True
            if keep[i * k1 + j].all():
                raise
            keep[i * k1 + j] = True
            cells = np.flatnonzero(keep)
            _, fun, _, cells, model = _priced_shortlist(Cs, mass, cells, _shortlist_model(k0, k1, cells))
        costs.append(fun)
    return costs


def _linked_pair_lp(C0, C1, scale=None):
    """LPModel of two couplings, of (mu0, nu) and of (mu1, nu), that share
    their second marginal nu; the columns are the raveled couplings. Its rows
    are the budget rows <gamma_i, C_i> / scale_i, then the marginal
    equalities, whose right-hand side is (mu0, mu1, 0): the rows of mu0 and
    mu1 and the n link rows of nu, where gamma_0 has a 1 and gamma_1 a -1.
    Without scale, one more column, interior_point's free common slack s,
    has a 1 in both budget rows.

    Each column of a coupling holds, in row order, its budget entry, which
    is left out where it is 0, its marginal row's 1 and its link row's
    +-1, so the arrays are built for all columns at once.
    """
    (s0, n), s1 = C0.shape, C1.shape[0]
    N = C0.size + C1.size
    slack = scale is None
    scale = (1.0, 1.0) if slack else scale
    rows = np.zeros((N + slack, 3), dtype=np.int32)  # per column: budget, marginal and link row
    rows[C0.size:N, 0] = 1
    rows[:N, 1] = 2 + np.arange(s0 + s1).repeat(n)
    rows[:N, 2] = 2 + s0 + s1 + np.tile(np.arange(n), s0 + s1)
    data = np.ones((N + slack, 3))
    data[:C0.size, 0] = C0.ravel() / scale[0]
    data[C0.size:N, 0] = C1.ravel() / scale[1]
    data[C0.size:N, 2] = -1.0
    keep = data != 0  # a budget entry of 0 is not stored
    if slack:
        rows[N, 1] = 1
        keep[N, 2] = False
    indptr = np.zeros(N + slack + 1, dtype=np.int32)
    np.cumsum(keep.sum(axis=1), out=indptr[1:])
    lb = np.append(np.zeros(N), -np.inf) if slack else 0.0
    return LPModel((2 + s0 + s1 + n, N + slack), indptr, rows[keep], data[keep], n_ub=2, lb=lb)


def interior_point(C0, C1, mu0, mu1, budget0, budget1, model=None):
    """Maximize the common slack s over couplings with costs <= budgets - s.

    s < 0 measures the uniform squared-budget inflation needed to reach
    feasibility. Returns (s, nu, y), with y >= 0, sum(y) = 1, the duals of the
    two budget rows. model is _linked_pair_lp(C0, C1), built here if not
    given; a loop whose LPs differ only in the budgets builds it once.
    """
    s0, n = C0.shape
    model = model or _linked_pair_lp(C0, C1)
    N = C0.size + C1.size
    obj = np.zeros(N + 1)
    obj[N] = -1.0
    x, _, _, y = linprog(model, obj, np.concatenate([mu0, mu1, np.zeros(n)]), np.array([budget0, budget1]))
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

    A cut changes only the budgets, so the LPs share one LPModel, built once
    per call: each LP after the first re-runs the dual simplex from the last
    optimal basis, which the new budgets leave dual feasible. Each LP is
    still read and checked by linprog, and the model is local to the call, so
    the result depends only on the arguments.
    """
    sel0 = mu0 > 0
    sel1 = mu1 > 0
    C0, C1 = C[sel0], C[sel1]
    m0, m1 = mu0[sel0], mu1[sel1]
    a, b = t * W, (1 - t) * W
    eps = 0.0
    model = _linked_pair_lp(C0, C1)
    for _ in range(_NEWTON_CAP):
        B = np.array([(a + eps) ** 2, (b + eps) ** 2])
        s, _, y = interior_point(C0, C1, m0, m1, B[0], B[1], model)
        if s >= -1e-12:
            return eps
        # root of y0 (a + eps)^2 + y1 (b + eps)^2 = H, H = y.B - s <= y.(costs of any feasible pair)
        H = float(y @ B) - s
        ybar = float(y[0] * a + y[1] * b)
        eps = float(np.sqrt(ybar * ybar - y[0] * a * a - y[1] * b * b + H) - ybar)
    raise SolverError(f"epsilon_min: slack still negative after {_NEWTON_CAP} LPs")


def _oracle_lp(C0, C1, budgets):
    """(LPModel, b_ub) of the oracle LPs under the budgets. Budget row i is
    divided by max(b_i, 1e-14 max C_i), so its right-hand side is exactly 1
    unless b_i is below that floor and its entries stay far below the 1e15
    HiGHS refuses."""
    scale = np.maximum(budgets, 1e-14 * np.array([C0.max(), C1.max()]))
    return _linked_pair_lp(C0, C1, scale), budgets / scale


def _budgeted_oracle(C0, C1, mu0, mu1, budgets, c, lp=None):
    """LP oracle: minimize <c, nu> over the linked polytope with cost budgets.

    The LP is _oracle_lp(C0, C1, budgets), built here unless lp gives it: a
    loop whose LPs differ only in c builds it once. The objective is shifted
    to be nonnegative. The scaling and the shift leave the LP and the
    conditional-gradient bound as they are while keeping the LP well scaled
    at small budgets. Returns (nu_vertex, optimal value).
    """
    s0, n = C0.shape
    model, b_ub = lp or _oracle_lp(C0, C1, np.asarray(budgets, dtype=float))
    shift = float(c.min())
    obj = np.concatenate([np.tile(c - shift, s0), np.zeros(C1.size)])
    x, fun, _, _ = linprog(model, obj, np.concatenate([mu0, mu1, np.zeros(n)]), b_ub)
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

def _hull_minimize(vertices, m, theta0=None, target=0.0):
    """Minimize Ent_m over the convex hull of the vertex rows by a primal-dual
    interior-point method on the weight simplex, Mehrotra's predictor-corrector
    (Nocedal and Wright, Numerical Optimization, 2006, Alg. 14.3), started at
    theta0 or the uniform weights moved a tenth of the way to uniform, with
    z = g + 1 - min g for the gradient g in the weights. Each step inverts one
    KKT matrix, the Hessian plus diag(z / x) bordered by ones, for both the
    predictor and the corrector, and goes 0.99 of the way to the boundary. It
    stops when the Frank-Wolfe gap x.g - min g, which bounds the excess entropy
    of x, is at most target or within the rounding of its evaluation, after
    _HULL_ITER_CAP steps, or before a step that would leave the positive
    orthant. g is taken on the coordinates some vertex charges, with the
    oracle's slightly negative entries clipped at 0. Of the start and the
    result it returns the one whose measure nu, theta @ V clipped at 0 and
    normalized, has the lower entropy, as (theta, nu, Ent_m(nu))."""
    V = np.asarray(vertices, dtype=float)
    r = V.shape[0]
    theta = np.full(r, 1.0 / r) if theta0 is None else np.asarray(theta0, dtype=float)
    theta = np.maximum(theta, 1e-16)
    theta /= theta.sum()

    def measure(w):  # (w, nu, Ent_m(nu)) for nu = max(w @ V, 0), normalized
        nu = np.maximum(w @ V, 0.0)
        nu = nu / nu.sum()
        return w, nu, relative_entropy(nu, m)

    start = measure(theta)
    charged = V.max(axis=0) > 0
    W, m_w = np.maximum(V[:, charged], 0.0), m[charged]

    def boundary(v, dv):  # the longest step along dv that keeps v >= 0
        down = dv < 0
        return float((-v[down] / dv[down]).min(initial=np.inf))

    def evaluate(x):  # (nu, log(nu / m) + 1, g) on the charged coordinates
        nu = x @ W
        glog = np.log(nu / m_w) + 1.0
        return nu, glog, W @ glog

    x = 0.9 * theta + 0.1 / r
    nu, glog, g = evaluate(x)
    lam = g.min() - 1.0
    # x and z, and dx and dz, are held stacked, so that a boundary, a step and
    # its sign check are one array operation each
    xz = np.concatenate([x, g - lam])
    x, z = xz[:r], xz[r:]
    d = np.empty(2 * r)
    dx, dz = d[:r], d[r:]
    allowance = _rounding_allowance(sum(W.shape), 1.0)  # times the scale below
    K = np.ones((r + 1, r + 1))
    K[r, r] = 0.0
    K_diagonal = K.reshape(-1)[:r * (r + 2):r + 2]  # a view of K's first r diagonal entries
    rhs = np.empty(r + 1)  # K's right-hand side, the residual plus (rc / x, 0)
    for _ in range(_HULL_ITER_CAP):
        # x.g and min g each sum terms of absolute sum at most max_j W_j.(|glog| + 1)
        if x @ g - g.min() <= max(target, allowance * (2.0 * float((W @ (np.abs(glog) + 1.0)).max()))):
            break
        K[:r, :r] = (W / nu) @ W.T
        np.add(K_diagonal, z / x, out=K_diagonal)
        K_inv = np.linalg.inv(K)
        residual = z + lam - g
        rhs[r] = 1.0 - x.sum()  # never -0.0, so adding the 0 of (rc / x, 0) leaves it as it is
        # (dx, dlam, dz) for the complementarity target rc of x dz + z dx, the
        # predictor's and then the corrector's
        rc = -x * z
        np.add(residual, rc / x, out=rhs[:r])
        sol = K_inv @ rhs
        dx[:] = sol[:r]
        np.divide(rc - z * dx, x, out=dz)
        step = min(1.0, boundary(xz, d))
        mu = x @ z / r
        trial = xz + step * d
        sigma = (trial[:r] @ trial[r:] / (r * mu)) ** 3
        rc = sigma * mu - x * z - dx * dz
        np.add(residual, rc / x, out=rhs[:r])
        sol = K_inv @ rhs
        dx[:], dlam = sol[:r], -sol[r]
        np.divide(rc - z * dx, x, out=dz)
        step = min(1.0, 0.99 * boundary(xz, d))
        trial = xz + step * d
        if not (trial > 0).all():
            break
        xz, lam = trial, lam + step * dlam
        x, z = xz[:r], xz[r:]
        nu, glog, g = evaluate(x)
    result = measure(x / x.sum())
    return result if result[2] < start[2] else start


def entropy_budget_min(m, anchors, budgets, tol=1e-3, warm_points=()):
    """Certified entropy minimization over the budgeted linked polytope.

    Fully-corrective conditional-gradient method: the LP oracle returns exact
    extreme points of the feasible set (so every hull iterate is exactly
    feasible) and the hull weights are re-optimized after each oracle call.

    The certificate is the Frank-Wolfe gap in closed form: for any c, the
    termwise x log(x / m) >= c x - m e^{c - 1} and LP weak duality bound the
    optimum below by D(c) = min <c, .> - sum_y m_y e^{c_y - 1} over the
    feasible set. Each iterate nu takes c = grad Ent(nu), where m e^{c - 1} = nu,
    and CLAMP off its support. The bound is the largest D less its rounding
    allowance, capped at Ent less that allowance of the incumbent, the
    lowest-entropy iterate. warm_points supply extra gradient probes; only
    their gradients are used. Returns (incumbent, bound, vertices added) once
    Ent(incumbent) - bound <= tol; raises SolverError with the gap after
    _ORACLE_CAP oracle LPs.

    Each hull step stops once the Frank-Wolfe gap of its weights is at most
    _HULL_SHARE * tol. The bound is weak duality at whatever nu the weights
    give, so it holds as before; the weights' entropy is within that share of
    the tol above the hull's least entropy, so the run's gap can still fall
    below tol.

    The oracle LPs differ only in their objective, so they share one LPModel,
    built once per call: each LP after the first re-runs the primal simplex
    from the last optimal basis, which a cost change leaves primal feasible.
    The bound uses the value of each LP's checked optimum, whichever optimal
    vertex a hot run ends at, and the model is local to the call, so the
    result depends only on the arguments.
    """
    m = np.asarray(m, dtype=float)
    sup_mus = [np.asarray(a[0], dtype=float) for a in anchors]
    Cs = [np.asarray(a[1], dtype=float) for a in anchors]
    budgets = np.asarray(budgets, dtype=float)
    CLAMP = -60.0  # zero-coordinate gradient; its Gibbs term is m_y e^{-61}

    def grad_at(nu):
        return np.where(nu > 0, np.log(np.maximum(nu / m, 1e-300)) + 1.0, CLAMP)

    lp = _oracle_lp(Cs[0], Cs[1], budgets)

    def oracle(c):
        return _budgeted_oracle(Cs[0], Cs[1], sup_mus[0], sup_mus[1], budgets, c, lp)

    probes = [np.zeros(len(m))] + [grad_at(p) for p in warm_points]
    V = np.array([oracle(c)[0] for c in probes])
    hull_target = _HULL_SHARE * tol
    theta, nu, ent = _hull_minimize(V, m, target=hull_target)

    lower, best_ent = -np.inf, np.inf
    for it in range(_ORACLE_CAP):
        c = grad_at(nu)
        v_new, lp_value = oracle(c)
        gibbs = float(m @ np.exp(c - 1.0))
        # each term of Ent(nu), of the caller's entropy of the measure returned
        # and of the Gibbs sum off the zero coordinates is at most nu_y (|c_y| + 2)
        allowance = _rounding_allowance(len(m), 4.0 * (float(np.abs(c) @ nu) + 2.0) + abs(lp_value) + gibbs)
        lower = max(lower, lp_value - gibbs - allowance)
        if ent < best_ent:
            # nu lies in the hull of the oracle's vertices, so the optimum is at
            # most Ent(nu); a bound above that is an LP value HiGHS left within
            # its optimality tolerance, not a fact
            best, best_ent, ceiling = nu, ent, ent - allowance
        bound = min(lower, ceiling)
        if best_ent - bound <= tol:
            return best, bound, it
        V = np.vstack([V, v_new])
        theta, nu, ent = _hull_minimize(V, m, theta0=np.append(theta * (1 - 1e-3), 1e-3), target=hull_target)
    gap = best_ent - bound
    raise SolverError(f"budgeted entropy gap {gap:.3e} exceeds tol {tol:.3e}", gap=gap)


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
    Without a step below the tolerance by the cap it raises SolverError, as
    its last iterate is not the fixed point the debiasing term is.
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
    raise SolverError(f"symmetric_potential did not converge within _POTENTIAL_CAP = {_POTENTIAL_CAP} steps")


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


def _young_omega(rho):
    """Young's over-relaxation factor 2 / (1 + sqrt(1 - rho)) for a
    Gauss-Seidel sweep whose steps shrink by rho; below 2 for every rho < 1,
    and 1 (no relaxation) when the steps did not shrink."""
    return 2.0 / (1.0 + np.sqrt(1.0 - rho)) if rho < 1.0 else 1.0


def prox_entropy_step(mu, C, m, tau, taub):
    """One minimizing-movement step for the entropy.

    Solves min_nu Ent_m(nu) + [<g, C> + eps KL(g | 1 x m)]/(2 tau) - <p, nu>/(2 tau)
    over couplings g of (mu, nu), with smoothing temperature eps = 2*tau*taub
    (taub > 0) and p the self-transport potential of mu (the debias term; it
    makes nu=mu stationary when mu minimizes the entropy). Returns (nu,
    certified duality gap of the solved program, sweeps).

    Each absorbing sweep is the over-relaxed log-domain sweep
    alpha += omega (taub (log mu - lse((w - lam C)/taub + log m) + 1) - alpha),
    w += omega (taub (-1 + dbf - lse((alpha - lam C)/taub - 1)) / (1 + taub) - w),
    with lam = 1/(2 tau) and dbf = p/(2 tau). omega is 1 up to sweep
    _YOUNG_SWEEP and from there Young's 2 / (1 + sqrt(1 - rho)), with rho
    that sweep's step of w over the step before it, or 1 if rho >= 1; the
    sweeps up to it are all absorbing. An absorbing sweep fixes the kernel
    G = exp((alpha (+) w - lam C)/taub + log m - 1), the current coupling,
    and c = -1 + dbf + log m - w. The scaled sweeps after it,
    log a += omega (log mu - log(G b) - log a) and
    log b += omega ((c - log(a^T G)) / (1 + taub) - log b), are the same
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
    w, alpha = np.zeros(n), np.zeros(len(log_mu))
    omega, last, sweeps = 1.0, np.inf, 0
    while sweeps < _PROX_SWEEP_CAP:
        # absorbing sweep, in the log domain
        sweeps += 1
        lse = logsumexp((w[None, :] - lam * Cr) / taub + log_m[None, :], axis=1)
        alpha += omega * (taub * (log_mu - lse + 1.0) - alpha)
        logT = logsumexp((alpha[:, None] - lam * Cr) / taub - 1.0, axis=0)
        w_new = w + omega * (taub * (-1.0 + dbf - logT) / (1.0 + taub) - w)
        delta = np.abs(w_new - w).max()
        w = w_new
        if sweeps == _YOUNG_SWEEP:
            omega = _young_omega(delta / last)
        last = delta
        if delta < tol:
            break
        if sweeps < _YOUNG_SWEEP:
            continue
        # scaled sweeps on the representable block of the current coupling
        G = np.exp((alpha[:, None] + w[None, :] - lam * Cr) / taub + log_m[None, :] - 1.0)
        rows, cols = G.any(axis=1), G.any(axis=0)
        G = G[np.ix_(rows, cols)]
        log_mu_r, c = log_mu[rows], -1.0 + dbf[cols] + log_m[cols] - w[cols]
        log_b, log_a = np.zeros(int(cols.sum())), np.zeros(int(rows.sum()))
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            while sweeps < _PROX_SWEEP_CAP:
                log_a_new = log_a + omega * (log_mu_r - np.log(G @ np.exp(log_b)) - log_a)
                log_b_new = log_b + omega * ((c - np.log(np.exp(log_a_new) @ G)) / (1.0 + taub) - log_b)
                if not np.isfinite(log_b_new).all():
                    break  # out of range: not taken, the next absorbing sweep takes its place
                sweeps += 1
                delta = taub * np.abs(log_b_new - log_b).max()
                log_b, log_a = log_b_new, log_a_new
                if delta < tol or np.abs(log_b).max() > _SCALING_BOUND:
                    break
        w[cols] += taub * log_b
        alpha[rows] += taub * log_a
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
