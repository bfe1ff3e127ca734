"""Dirichlet energy on the graph carrier: bilinear form, carre du champ,
Laplacian, weighted forms, 2-modulus, and the intrinsic metric.

Conventions (used consistently by the heat and flow modules):
    E(f, g)      = 1/2 sum_{x,y} w_xy (f(x)-f(y)) (g(x)-g(y))
    Gamma(f, g)  = (1/(2 m(x))) sum_y w_xy (f(y)-f(x)) (g(y)-g(x))
    C(f)         = 1/2 sum_x Gamma(f,f)(x) m(x) = 1/2 E(f, f)
    Lap f(x)     = (1/m(x)) sum_y w_xy (f(y)-f(x)),   int g Lap f dm = -E(f, g)
so that energy decreases along df/dt = Lap f.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import threading
from dataclasses import dataclass

import numpy as np

from .measures import ProbMeasure
from .mmspace import FiniteMMSpace, _freeze
from .solvers import _scipy_extension

_setulb = _scipy_extension("scipy.optimize._lbfgsb").setulb


class FormError(ValueError):
    pass


class ModulusInfeasibleError(FormError):
    """A curve family member admits no admissible density (2-modulus infinite)."""


@dataclass(frozen=True, eq=False)
class DirichletForm:
    """Symmetric conductances over vertex pairs plus the vertex measure."""

    space: FiniteMMSpace
    weights: np.ndarray     # dense symmetric n x n, zero diagonal
    vertex_measure: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "weights", _freeze(self.weights))
        object.__setattr__(self, "vertex_measure", _freeze(self.vertex_measure))
        W = self.weights
        if np.abs(W - W.T).max() > 1e-12:
            raise FormError("conductances must be symmetric")
        if W.min() < 0 or np.diagonal(W).any():
            raise FormError("conductances must be nonnegative with a zero diagonal")
        if self.vertex_measure.min() <= 0:
            raise FormError("vertex measure must be positive")

    @property
    def n(self):
        return self.weights.shape[0]

    def components(self):
        """Connected components of the positive-conductance graph, labelled
        in order of each component's lowest vertex: each vertex takes the
        least label of its neighbours until no label changes, which leaves
        every vertex its component's lowest vertex."""
        edge = self.weights > 0
        label = np.arange(self.n)
        while True:
            least = np.minimum(label, np.where(edge, label, self.n).min(axis=1))
            if np.array_equal(least, label):
                return np.unique(label, return_inverse=True)[1]
            label = least

    def gamma_vector(self, f, g):
        return _gamma(self.weights, self.vertex_measure, f, g)


def _gamma(W, m, f, g):
    """Gamma(f, g) of the conductances W and vertex measure m, row by row for
    stacks of f and g of shape (..., n)."""
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    df = f[..., None, :] - f[..., :, None]
    dg = g[..., None, :] - g[..., :, None]
    return (W * df * dg).sum(axis=-1) / (2.0 * m)


@dataclass(frozen=True, eq=False)
class CarreDuChamp:
    """Pointwise bilinear energy density Gamma(f, g)."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _freeze(self.values))


def dirichlet_form(space: FiniteMMSpace, rule="metric_measure") -> DirichletForm:
    """Build conductances from the space's graph carrier.

    metric_measure: w_e = sqrt(delta_i delta_j) / len(e) with delta the vertex
    mass per unit incident length; reproduces the continuum energy on
    segment/cycle discretizations, including non-uniform measure profiles.
    unit: w_e = 1 for every edge.
    inverse_length: w_e = 1 / len(e).
    """
    if space.graph is None:
        raise FormError("space has no graph carrier")
    n = space.n
    W = np.zeros((n, n))
    if rule == "metric_measure":
        share = np.zeros(n)
        for i, j, h in space.graph:
            share[i] += h / 2.0
            share[j] += h / 2.0
        delta = space.ref_measure / np.maximum(share, 1e-300)
        for i, j, h in space.graph:
            w = math.sqrt(delta[i] * delta[j]) / h
            W[i, j] += w
            W[j, i] += w
    elif rule == "unit":
        for i, j, _ in space.graph:
            W[i, j] += 1.0
            W[j, i] += 1.0
    elif rule == "inverse_length":
        for i, j, h in space.graph:
            W[i, j] += 1.0 / h
            W[j, i] += 1.0 / h
    else:
        raise FormError(f"unknown conductance rule {rule!r}")
    return DirichletForm(space, W, space.ref_measure)


def energy(form: DirichletForm, f, g=None) -> float:
    """Bilinear Dirichlet energy E(f, g)."""
    f = np.asarray(f, dtype=float)
    g = f if g is None else np.asarray(g, dtype=float)
    df = f[None, :] - f[:, None]
    dg = g[None, :] - g[:, None]
    return 0.5 * float((form.weights * df * dg).sum())


def cheeger_energy(form: DirichletForm, f) -> float:
    """C(f) = 1/2 int Gamma(f,f) dm = 1/2 E(f,f)."""
    return 0.5 * float(form.gamma_vector(f, f) @ form.vertex_measure)


def gamma(form: DirichletForm, f, g) -> CarreDuChamp:
    return CarreDuChamp(form.gamma_vector(f, g))


def laplacian(form: DirichletForm, f):
    f = np.asarray(f, dtype=float)
    df = f[None, :] - f[:, None]
    return (form.weights * df).sum(axis=1) / form.vertex_measure


def laplacian_matrix(form: DirichletForm):
    W = form.weights
    deg = W.sum(axis=1)
    return (W - np.diag(deg)) / form.vertex_measure[:, None]


def weighted_form(form: DirichletForm, rho: ProbMeasure) -> DirichletForm:
    """Form with vertex measure rho and conductances transferred by
    w'_e = w_e * min(g(x), g(y)) for the density g of rho; edges into the
    zero set of g are dropped, realizing locality of the reweighting.

    This is the package's one conductance-transfer rule. theta = min is a
    discretization choice, not an identity: the logarithmic mean would make
    E_rho(log g, phi) = E(g, phi) exact (Maas, J. Funct. Anal. 2011).
    Criterion 9's two-point oracle hard-codes theta = min.
    """
    g = rho.density()
    theta = np.minimum(g[:, None], g[None, :])
    W = form.weights * theta
    keep = rho.weights > 0
    if not keep.all():
        # restrict to the support so the vertex measure stays positive
        idx = np.nonzero(keep)[0]
        sub_space = FiniteMMSpace(
            tuple(form.space.points[i] for i in idx),
            form.space.metric[np.ix_(idx, idx)],
            rho.weights[idx],
            None,
            None,
            {"restricted_from": form.space.n},
        )
        return DirichletForm(sub_space, W[np.ix_(idx, idx)], rho.weights[idx])
    return DirichletForm(form.space, W, rho.weights)


def path_step_lengths(space: FiniteMMSpace, vertex_path):
    """Per-vertex step lengths of a path: half the incident traversed length."""
    p = list(vertex_path)
    ell = np.zeros(len(p))
    for k in range(len(p) - 1):
        d = space.metric[p[k], p[k + 1]]
        ell[k] += d / 2.0
        ell[k + 1] += d / 2.0
    return ell


def mod2(paths, m) -> tuple:
    """2-modulus of a finite path family: minimize sum g^2 m subject to
    sum_{z in path} g(z) l_z >= 1 per path.

    paths: list of (vertex index array, step length array). With h = g sqrt(m)
    this is the least-distance program min |h|^2 subject to B^T h >= 1 for
    B = A / sqrt(m), A the vertex-by-path step lengths. One nonnegative least
    squares solve gives it exactly (Lawson and Hanson, Solving Least Squares
    Problems, 1974, Alg. 23.27): u >= 0 minimizing |E u - e| for E = [B; 1^T]
    and e the last unit vector has residual r = E u - e, and h = -r[:n] / r[n].
    h = B u / (1 - sum u) is nonnegative because the step lengths are.
    """
    m = np.asarray(m, dtype=float)
    n = len(m)
    k = len(paths)
    if k == 0:
        return 0.0, np.zeros(n)
    A = np.zeros((n, k))
    for j, (vs, ls) in enumerate(paths):
        vs = np.asarray(vs, dtype=int)
        ls = np.asarray(ls, dtype=float)
        if np.all(ls == 0):
            raise ModulusInfeasibleError(f"path {j} has zero length; modulus infinite")
        np.add.at(A[:, j], vs, ls)
    root = np.sqrt(m)
    E = np.vstack([A / root[:, None], np.ones(k)])
    e = np.zeros(n + 1)
    e[n] = 1.0
    from scipy.optimize import nnls  # here, not at import: scipy.optimize loads scipy.sparse and scipy.linalg

    try:
        u, _ = nnls(E, e)
    except RuntimeError as err:  # its iteration cap
        raise FormError(f"mod2: nonnegative least squares failed: {err}") from None
    r = E @ u - e
    g = -r[:n] / r[n] / root
    return float(m @ g**2), g


# ---------------------------------------------------------------------------
# intrinsic metric
# ---------------------------------------------------------------------------

_ETA_FLOOR = 1e-14  # lower bound of every vertex multiplier
_LBFGSB_ITER_CAP = 2000  # L-BFGS-B iterations per pair
_LBFGSB_EVAL_CAP = 15000  # dual evaluations per pair before L-BFGS-B stops (scipy's maxfun)
_STACK_ENTRIES = 2**18  # a stack holds max(1, _STACK_ENTRIES // n**2) pairs: all 120 at n = 16, 64 at n = 64


def _pair_dual(W, m, c, eta):
    """Lagrangian dual of sup c^T g over Gamma(g, g) <= 1 at the vertex
    multipliers eta: sum(eta) + c^T Q(eta)^+ c / 4, with Q(eta) the weighted
    sum of the per-vertex quadratic forms. Returns (value, gradient,
    Q(eta)^-1 c, Q(eta)); a singular Q gives value 1e12 and a zero primal,
    which fails the certificate.

    c and eta may be stacks of shape (..., n), one pair dual per row, built
    and solved in one broadcast; each row keeps the bits of its own 1-D call.
    When the stacked solve meets a singular Q the rows are solved one at a
    time, so only the singular rows get (1e12, zeros)."""
    n = len(m)
    s = eta / m
    wsum = W * (s[..., :, None] + s[..., None, :])
    Q = -0.5 * wsum
    diagonal = np.arange(n)
    Q[..., diagonal, diagonal] = 0.5 * wsum.sum(axis=-1)  # W has a zero diagonal
    Q += 1.0 / n
    try:
        sol = np.linalg.solve(Q, c[..., None])[..., 0]
    except np.linalg.LinAlgError:
        if eta.ndim == 1:
            return 1e12, np.zeros(n), np.zeros(n), Q
        return tuple(np.array(part) for part in zip(*(_pair_dual(W, m, cr, er) for cr, er in zip(c, eta))))
    # c holds exactly one +1 and one -1, so this sum is sol_x - sol_y rounded
    # once: bit for bit c @ sol
    value = eta.sum(axis=-1) + 0.25 * (c * sol).sum(axis=-1)
    # d(dual)/d(eta_v) = 1 - (1/4) Gamma(sol, sol)(v)
    return value, 1.0 - 0.25 * _gamma(W, m, sol, sol), sol, Q


def _lbfgsb(x):
    """L-BFGS-B on the pair dual over eta >= _ETA_FLOOR from x, as a
    generator: it yields each new point at which it needs the dual, is sent
    the _pair_dual there, and returns (eta, the last point evaluated, the
    _pair_dual there).

    This drives the L-BFGS-B C routine bundled with scipy (Byrd, Lu, Nocedal
    and Zhu, SIAM J. Sci. Comput. 1995; Zhu et al., ACM TOMS 1997) with the
    workspace, task loop and stopping rules of scipy 1.17's _minimize_lbfgsb,
    so eta is minimize(method="L-BFGS-B")'s bits with maxcor 10, ftol 1e-18,
    gtol 1e-14, maxls 20, maxiter _LBFGSB_ITER_CAP and maxfun
    _LBFGSB_EVAL_CAP, without the wrapper work it adds to each evaluation.
    The dual is asked for once per new point."""
    n = len(x)
    seen = x.copy()
    at_seen = yield seen
    evaluations, iterations = 1, 0
    lower, upper = np.full(n, _ETA_FLOOR), np.zeros(n)
    kinds = np.ones(n, dtype=np.int32)  # bounded below only
    f, g = np.array(0.0), np.zeros(n)
    k = 10  # correction pairs kept
    wa = np.zeros(2 * k * n + 5 * n + 11 * k * k + 8 * k)
    iwa = np.zeros(3 * n, dtype=np.int32)
    task, ln_task, lsave = (np.zeros(size, dtype=np.int32) for size in (2, 2, 4))
    isave, dsave = np.zeros(44, dtype=np.int32), np.zeros(29)
    factr = 1e-18 / np.finfo(float).eps
    while True:
        g = g.astype(np.float64)
        _setulb(k, x, lower, upper, kinds, f, g, factr, 1e-14, wa, iwa, task, lsave, isave, dsave, 20, ln_task)
        if task[0] == 3:  # f and g wanted at x
            if not np.array_equal(x, seen):
                seen = x.copy()
                at_seen = yield seen
                evaluations += 1
            f, g = at_seen[0], at_seen[1]
        elif task[0] == 1:  # a new iterate
            iterations += 1
            if iterations >= _LBFGSB_ITER_CAP:
                task[:] = 5, 504
            elif evaluations > _LBFGSB_EVAL_CAP:
                task[:] = 5, 502
        else:
            break
    return x, seen, at_seen


def _dual_minimize(W, m, cs, eta0s):
    """Minimize the pair dual of each row c of cs from the matching row of
    eta0s by L-BFGS-B (_lbfgsb), the rows in lockstep: in each round every
    running row steps its own L-BFGS-B until it stops or asks for the dual at
    a new point, and all those points are evaluated in one stacked
    _pair_dual. A row that stops leaves the stack. The rows run in stacks of
    at most max(1, _STACK_ENTRIES // n**2), and each keeps only its own copy
    of its last evaluation, so no stacked array outlives its round. Each
    row's result is that of its own L-BFGS-B run: (eta, the last point
    evaluated, the _pair_dual there)."""
    per_stack = max(1, _STACK_ENTRIES // len(m) ** 2)
    out = [None] * len(cs)
    for lo in range(0, len(cs), per_stack):
        runs = {j: _lbfgsb(np.maximum(eta0s[j], _ETA_FLOOR)) for j in range(lo, min(lo + per_stack, len(cs)))}
        points = {j: next(run) for j, run in runs.items()}
        while points:
            rows = list(points)
            stacked = _pair_dual(W, m, cs[rows], np.array([points[j] for j in rows]))
            points = {}
            for r, j in enumerate(rows):
                try:
                    points[j] = runs[j].send(tuple(part[r].copy() for part in stacked))
                except StopIteration as done:
                    out[j] = done.value
    return out


def _primal_value(W, m, c, sol):
    """c^T g for the primal g = sol / 2 of the KKT system, rescaled to hard
    feasibility max Gamma(g, g) = 1."""
    g = 0.5 * sol
    g = g / math.sqrt(max(float(_gamma(W, m, g, g).max()), 1e-300))
    return float(c @ g)


def _certified(val, ub, rel_tol):
    """Weak duality pins the pair distance in [val, ub] to rel_tol."""
    return ub - val <= rel_tol * (1.0 + abs(val))


def _pair_distances(W, m, pairs, rel_tol, eta0_value=0.5):
    """sup g(x) - g(y) over Gamma(g, g) <= 1 for each pair (x, y) of one
    connected component with conductances W and vertex measure m, via the
    Lagrangian dual.

    The duals in the vertex multipliers eta >= 0 of all pairs are minimized
    by L-BFGS-B in lockstep (_dual_minimize), at the first value asked for.
    Then, pair by pair as each value is asked for, while the pair is not
    certified to rel_tol, a projected Newton polish of at most 40 steps
    follows; the certificate is tested before each step, so a pair
    certified at the L-BFGS-B exit costs no polish, and a pair never asked
    for is never polished. The primal is recovered from the KKT system,
    rescaled to hard feasibility. Q(eta) is built and solved once per eta
    visited. Yields a (value, upper bound) pair per pair, in order,
    certified unless the polish stalled.
    """
    cs = np.zeros((len(pairs), len(m)))
    for c, (x, y) in zip(cs, pairs):
        c[x], c[y] = 1.0, -1.0
    runs = _dual_minimize(W, m, cs, np.full(cs.shape, eta0_value))
    for c, run in zip(cs, runs):
        yield _polish(W, m, c, *run, rel_tol)


def _polish(W, m, c, eta, seen, at_seen, rel_tol):
    """(value, upper bound) of the pair dual c from the L-BFGS-B exit eta,
    after the projected Newton polish that runs while it is uncertified."""
    eta = np.maximum(eta, _ETA_FLOOR)
    val, grad, sol, Q = at_seen if np.array_equal(eta, seen) else _pair_dual(W, m, c, eta)
    # projected Newton polish on the smooth strictly convex dual
    for _ in range(40):
        primal = _primal_value(W, m, c, sol)
        if _certified(primal, val, rel_tol):
            return primal, float(val)
        act = (eta > 1e-13) | (grad < 0)
        if not act.any() or np.abs(grad[act]).max() < 1e-15:
            break
        # d2(dual)/deta_u deta_v = (1/2) y_u^T Q^+ y_v with y_v = M_v sol
        wdiff = W * (sol[:, None] - sol[None, :])
        Y = 0.5 * (np.diag(wdiff.sum(axis=1) / m) - wdiff.T / m)
        H = (0.5 * Y.T @ np.linalg.solve(Q, Y))[np.ix_(act, act)]
        H += 1e-14 * np.trace(H) / max(int(act.sum()), 1) * np.eye(int(act.sum()))
        try:
            step = np.linalg.solve(H, -grad[act])
        except np.linalg.LinAlgError:
            break
        t_bt = 1.0
        while t_bt > 1e-10:
            cand = eta.copy()
            cand[act] = np.maximum(eta[act] + t_bt * step, _ETA_FLOOR)
            trial = _pair_dual(W, m, c, cand)
            if trial[0] < val - 1e-18:
                break
            t_bt /= 2
        else:  # no step decreased the dual
            break
        eta, (val, grad, sol, Q) = cand, trial
    return _primal_value(W, m, c, sol), float(val)


@functools.cache
def _openblas_threads():
    """(get, set) thread-count functions of every OpenBLAS mapped into the
    process, found through /proc/self/maps and looked up once. Empty where
    there is no /proc or no OpenBLAS."""
    try:
        with open("/proc/self/maps") as fh:
            fields = [line.split(maxsplit=5) for line in fh]
    except OSError:
        return ()
    paths = sorted({f[5].strip() for f in fields if len(f) == 6 and "openblas" in f[5].rsplit("/", 1)[-1].lower()})
    names = [(f"{prefix}get_num_threads{suffix}", f"{prefix}set_num_threads{suffix}")
             for suffix in ("64_", "", "_64") for prefix in ("scipy_openblas_", "openblas_")]
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        found = [(getattr(lib, get), getattr(lib, put)) for get, put in names if hasattr(lib, get) and hasattr(lib, put)]
        if found:
            get, put = found[0]
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            controls.append((get, put))
    return tuple(controls)


# the thread counts are process-wide, so the guards open in all threads share
# one save: the first to enter saves the caller's counts, the last to leave
# restores them
_BLAS_LOCK = threading.Lock()
_blas_pin = {"open": 0, "saved": ()}


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with every loaded OpenBLAS at 1 thread and restore the
    caller's counts afterwards, also when the block raises. A no-op where
    _openblas_threads finds nothing."""
    controls = _openblas_threads()
    with _BLAS_LOCK:
        if _blas_pin["open"] == 0:
            _blas_pin["saved"] = tuple(get() for get, _ in controls)
            for _, put in controls:
                put(1)
        _blas_pin["open"] += 1
    try:
        yield
    finally:
        with _BLAS_LOCK:
            _blas_pin["open"] -= 1
            if _blas_pin["open"] == 0:
                for (_, put), count in zip(controls, _blas_pin["saved"]):
                    put(count)


def intrinsic_metric(form: DirichletForm, rel_tol=1e-6, eta0_value=0.5):
    """All-pairs intrinsic distance sup{g(x)-g(y) : Gamma(g,g) <= 1}.

    The pairs of each connected component are solved together on its
    conductances and vertex measure (_pair_distances: one lockstep L-BFGS-B
    stack, then a Newton polish of each pair that is not yet certified) and
    checked in (x, y) order, each polished only when its turn comes: each
    distance is certified by weak duality to the requested relative
    tolerance, and the first pair that is not raises FormError, before any
    later pair is polished. Disconnected pairs are +inf.

    The whole call runs with every loaded OpenBLAS at 1 thread
    (_one_blas_thread), and the caller's thread counts are restored when it
    returns or raises. Its systems are 16 x 16 at n = 16 and L-BFGS-B's
    BLAS calls are smaller still, so worker threads only add hand-offs: at 2
    threads on 2 cores the call took twice as long. The result's bits do not
    depend on the thread count. The counts are process-wide: while a call is
    open, BLAS work in other Python threads also runs on 1 thread, a count
    that another thread sets during the call is overwritten on exit, and only
    the OpenBLAS builds loaded before the first call are pinned.
    """
    with _one_blas_thread():
        n = form.n
        labels = form.components()
        distances = []  # per component, its pairs' (value, upper bound) in (x, y) order
        for k in range(labels.max() + 1):
            on = np.flatnonzero(labels == k)
            pairs = [(a, b) for a in range(len(on)) for b in range(a + 1, len(on))]
            distances.append(_pair_distances(form.weights[np.ix_(on, on)], form.vertex_measure[on], pairs, rel_tol,
                                              eta0_value))
        out = np.zeros((n, n))
        for x in range(n):
            for y in range(x + 1, n):
                if labels[x] != labels[y]:
                    out[x, y] = out[y, x] = np.inf
                    continue
                val, ub = next(distances[labels[x]])
                if not _certified(val, ub, rel_tol):
                    raise FormError(f"intrinsic metric pair ({x},{y}) gap {ub - val:.2e} above tolerance")
                out[x, y] = out[y, x] = 0.5 * (val + ub)
        return out


def calibrated_segment(n, rel_tol=1e-8):
    """Path-graph form whose space metric is its own certified intrinsic
    metric (trapezoid vertex masses, inverse-length conductances).

    On a path carrier the intrinsic distance of interior adjacent pairs
    exceeds the edge length by sqrt(2) and long interior pairs pick up small
    boundary bonuses, so no path space has intrinsic = shortest-path metric;
    calibration therefore stores the certified intrinsic matrix as the metric.
    Returns (space, form).
    """
    if n < 2:
        raise FormError(f"calibrated_segment needs n >= 2, got n = {n}")
    h = 1.0 / (n - 1)
    m = np.full(n, h)
    m[0] = m[-1] = h / 2.0
    W = np.zeros((n, n))
    for i in range(n - 1):
        W[i, i + 1] = W[i + 1, i] = 1.0 / h
    carrier = FiniteMMSpace(tuple(range(n)), _path_metric(n, h), m, tuple((i, i + 1, h) for i in range(n - 1)), 0, {"kind": "segment"})
    form0 = DirichletForm(carrier, W, m)
    d = intrinsic_metric(form0, rel_tol=rel_tol)
    space = FiniteMMSpace(tuple(range(n)), d, m, None, 0, {"kind": "calibrated_segment"})
    return space, DirichletForm(space, W, m)


def _path_metric(n, h):
    idx = np.arange(n)
    return np.abs(idx[:, None] - idx[None, :]) * h


def product_form(form_a: DirichletForm, form_b: DirichletForm, product) -> DirichletForm:
    """Form on a product space whose generator splits as Lap_a + Lap_b:
    horizontal conductances w_a * m_b and vertical m_a * w_b."""
    if product.n != form_a.n * form_b.n:
        raise FormError("product space size mismatch")
    ma, mb = form_a.vertex_measure, form_b.vertex_measure
    # the horizontal and vertical terms have disjoint supports off the zero
    # diagonal, so each entry is a single product w * m, exactly rounded
    W = np.kron(form_a.weights, np.diag(mb)) + np.kron(np.diag(ma), form_b.weights)
    return DirichletForm(product, W, (ma[:, None] * mb[None, :]).ravel())
