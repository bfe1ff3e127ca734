import json
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize
from scipy.sparse.csgraph import connected_components

from rcdlab import dirichlet
from rcdlab.dirichlet import (
    DirichletForm,
    FormError,
    ModulusInfeasibleError,
    calibrated_segment,
    cheeger_energy,
    dirichlet_form,
    energy,
    gamma,
    intrinsic_metric,
    laplacian,
    mod2,
    path_step_lengths,
    product_form,
    weighted_form,
)
from rcdlab.measures import ProbMeasure, uniform_measure
from rcdlab.mmspace import FiniteMMSpace, make_model_space, product_space


def two_point_form():
    tp = make_model_space("two_point", 2)
    return dirichlet_form(tp, rule="unit")


def test_two_point_hand_values():
    form = two_point_form()
    f = np.array([0.0, 1.0])
    assert np.allclose(form.gamma_vector(f, f), [1.0, 1.0])
    assert cheeger_energy(form, f) == pytest.approx(0.5)
    assert np.allclose(laplacian(form, f), [2.0, -2.0])


def test_constant_functions_in_kernel():
    s = make_model_space("cycle", 10)
    form = dirichlet_form(s)
    c = np.full(10, 3.3)
    assert cheeger_energy(form, c) == pytest.approx(0.0, abs=1e-15)
    assert np.abs(laplacian(form, c)).max() < 1e-12


def test_cheeger_matches_continuum_on_cycles():
    # f(s) = sin(2 pi s): continuum C(f) = (2 pi)^2 / 4
    target = 0.5 * (2 * np.pi) ** 2 * 0.5
    errs = []
    for n in (16, 32, 64):
        s = make_model_space("cycle", n)
        pos = np.array(s.meta["positions"])
        f = np.sin(2 * np.pi * pos)
        errs.append(abs(cheeger_energy(dirichlet_form(s), f) - target))
    assert errs[2] < errs[1] < errs[0]
    assert errs[2] < 0.01 * target


def test_gamma_bilinear_polarization_cauchy_schwarz():
    rng = np.random.default_rng(0)
    s = make_model_space("cycle", 8)
    form = dirichlet_form(s)
    f, g = rng.normal(size=8), rng.normal(size=8)
    gp = gamma(form, f + g, f + g).values
    gm = gamma(form, f - g, f - g).values
    pol = 0.25 * (gp - gm)
    assert np.abs(pol - gamma(form, f, g).values).max() < 1e-12
    assert np.all(gamma(form, f, f).values >= -1e-15)
    assert np.abs(gamma(form, f, np.full(8, 2.0)).values).max() < 1e-13
    cs = np.sqrt(gamma(form, f, f).values * gamma(form, g, g).values)
    assert np.all(np.abs(gamma(form, f, g).values) <= cs + 1e-12)


def test_gamma_integrates_to_energy():
    rng = np.random.default_rng(1)
    s = make_model_space("random_metric", 12, {"seed": 6})
    form = dirichlet_form(s)
    for _ in range(10):
        f, g = rng.normal(size=12), rng.normal(size=12)
        assert float(gamma(form, f, g).values @ form.vertex_measure) == pytest.approx(energy(form, f, g), abs=1e-12)


def test_parallelogram_law():
    rng = np.random.default_rng(2)
    s = make_model_space("cycle", 20)
    form = dirichlet_form(s)
    for _ in range(10):
        f, g = rng.normal(size=20), rng.normal(size=20)
        lhs = cheeger_energy(form, f + g) + cheeger_energy(form, f - g)
        rhs = 2 * cheeger_energy(form, f) + 2 * cheeger_energy(form, g)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_integration_by_parts_and_mass():
    rng = np.random.default_rng(3)
    s = make_model_space("random_metric", 10, {"seed": 2})
    form = dirichlet_form(s)
    m = form.vertex_measure
    for _ in range(8):
        f, g = rng.normal(size=10), rng.normal(size=10)
        lhs = float((g * laplacian(form, f)) @ m)
        assert lhs == pytest.approx(-energy(form, f, g), abs=1e-12)
        assert float(laplacian(form, f) @ m) == pytest.approx(0.0, abs=1e-12)


def test_weighted_form_uniform_density_keeps_gamma():
    s = make_model_space("cycle", 8)
    form = dirichlet_form(s)
    rho = uniform_measure(s)
    wf = weighted_form(form, rho)
    rng = np.random.default_rng(4)
    f = rng.normal(size=8)
    g_density = rho.density()[0]
    assert np.allclose(wf.gamma_vector(f, f), form.gamma_vector(f, f) * 1.0, atol=1e-12)
    assert np.allclose(wf.weights, form.weights * g_density)


def test_weighted_form_drops_zero_density_vertices():
    s = make_model_space("segment", 6)
    form = dirichlet_form(s)
    w = np.array([0.0, 0.2, 0.2, 0.2, 0.2, 0.2])
    rho = ProbMeasure(s, w)
    wf = weighted_form(form, rho)
    assert wf.n == 5


def test_mod2_empty_single_and_disjoint():
    s = make_model_space("segment", 9)
    m = s.ref_measure
    val, dens = mod2([], m)
    assert val == 0.0 and np.abs(dens).max() == 0.0

    p1 = [0, 1, 2, 3]
    l1 = path_step_lengths(s, p1)
    val1, g1 = mod2([(p1, l1)], m)
    oracle1 = 1.0 / float(np.sum(l1**2 / m[p1]))
    assert val1 == pytest.approx(oracle1, abs=1e-12)
    assert np.all(g1 >= -1e-12)

    p2 = [5, 6, 7, 8]
    l2 = path_step_lengths(s, p2)
    val2, _ = mod2([(p2, l2)], m)
    both, _ = mod2([(p1, l1), (p2, l2)], m)
    assert both == pytest.approx(val1 + val2, abs=1e-12)


def test_mod2_monotone_and_subadditive():
    s = make_model_space("segment", 12)
    m = s.ref_measure
    paths = []
    rng = np.random.default_rng(6)
    for _ in range(5):
        a = int(rng.integers(0, 8))
        b = int(rng.integers(a + 2, 12))
        p = list(range(a, b))
        paths.append((p, path_step_lengths(s, p)))
    vals = [mod2(paths[:k], m)[0] for k in range(1, 6)]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    total = mod2(paths, m)[0]
    assert total <= sum(mod2([p], m)[0] for p in paths) + 1e-12


def test_mod2_infeasible_zero_length_path():
    s = make_model_space("segment", 5)
    with pytest.raises(ModulusInfeasibleError):
        mod2([([2], np.array([0.0]))], s.ref_measure)


def _path_matrix(paths, n):
    """Vertex-by-path step lengths."""
    A = np.zeros((n, len(paths)))
    for j, (vs, ls) in enumerate(paths):
        np.add.at(A[:, j], vs, ls)
    return A


def _mod2_by_enumeration(paths, m):
    """The 2-modulus by enumerating every active set of the KKT system, 2^k
    linear solves for k paths: the reference for small families."""
    A = _path_matrix(paths, len(m))
    k = A.shape[1]
    G = A.T @ (A / (2.0 * m)[:, None])
    best = None
    for mask in range(1, 2**k):
        S = [j for j in range(k) if mask >> j & 1]
        try:
            eta_S = np.linalg.solve(G[np.ix_(S, S)], np.ones(len(S)))
        except np.linalg.LinAlgError:
            continue
        if (eta_S < -1e-12).any():
            continue
        eta = np.zeros(k)
        eta[S] = np.maximum(eta_S, 0.0)
        g = (A @ eta) / (2.0 * m)
        if (A.T @ g >= 1.0 - 1e-10).all():
            val = float(m @ g**2)
            if best is None or val < best[0]:
                best = (val, g)
    return best


def _cycle_arcs(space, k, rng):
    """k random arcs of a cycle space, each way round, as mod2 paths."""
    n = space.n
    paths = []
    for _ in range(k):
        start, length, step = int(rng.integers(n)), int(rng.integers(2, n // 2)), int(rng.choice([-1, 1]))
        p = [(start + step * i) % n for i in range(length)]
        paths.append((p, path_step_lengths(space, p)))
    return paths


@pytest.mark.parametrize("k", [2, 4, 7, 10])
def test_mod2_matches_the_active_set_enumeration(k):
    s = make_model_space("cycle", 32)
    paths = _cycle_arcs(s, k, np.random.default_rng(k))
    val, g = mod2(paths, s.ref_measure)
    ref_val, ref_g = _mod2_by_enumeration(paths, s.ref_measure)
    assert val == pytest.approx(ref_val, rel=1e-12)
    assert np.abs(g - ref_g).max() <= 1e-12 * np.abs(ref_g).max()


def test_mod2_of_thirty_paths_is_one_fast_certified_solve():
    # the enumeration would solve 2^30 KKT systems here
    s = make_model_space("cycle", 32)
    m = s.ref_measure
    paths = _cycle_arcs(s, 30, np.random.default_rng(30))
    start = time.perf_counter()
    val, g = mod2(paths, m)
    assert time.perf_counter() - start < 1.0
    A = _path_matrix(paths, s.n)
    assert (A.T @ g).min() >= 1.0 - 1e-12
    # the multipliers of the active paths give a Lagrangian dual bound equal to val
    active = A.T @ g <= 1.0 + 1e-9
    eta = np.maximum(np.linalg.lstsq(A[:, active], 2.0 * m * g, rcond=None)[0], 0.0)
    dual = eta.sum() - 0.25 * float(((A[:, active] @ eta) ** 2 / m).sum())
    assert dual == pytest.approx(val, rel=1e-10)


def test_intrinsic_metric_single_vertex_and_two_point():
    from rcdlab.mmspace import FiniteMMSpace

    one = FiniteMMSpace((0,), np.zeros((1, 1)), np.array([1.0]))
    form1 = DirichletForm(one, np.zeros((1, 1)), np.array([1.0]))
    assert intrinsic_metric(form1)[0, 0] == 0.0
    # two-point: w = 1, m = (1/2, 1/2): |g2 - g1| <= 1
    form2 = two_point_form()
    assert intrinsic_metric(form2)[0, 1] == pytest.approx(1.0, abs=1e-8)


def test_intrinsic_metric_disconnected_infinite():
    from rcdlab.mmspace import FiniteMMSpace

    d = np.array([[0.0, 1, 2], [1, 0.0, 1], [2, 1, 0.0]])
    sp = FiniteMMSpace((0, 1, 2), d, np.full(3, 1 / 3))
    W = np.zeros((3, 3))
    W[0, 1] = W[1, 0] = 1.0
    form = DirichletForm(sp, W, np.full(3, 1 / 3))
    dm = intrinsic_metric(form)
    assert np.isinf(dm[0, 2]) and np.isfinite(dm[0, 1])


def test_intrinsic_metric_is_the_metric_of_each_component():
    # three interleaved components: a 2-point path, a 3-cycle and a 4-point path
    parts = [[0, 4], [1, 5, 7], [2, 3, 6, 8]]
    edges = [(0, 4, 1.5), (1, 5, 1.0), (5, 7, 2.0), (7, 1, 0.5), (2, 3, 1.0), (3, 6, 3.0), (6, 8, 1.0)]
    n = 9
    W = np.zeros((n, n))
    for i, j, w in edges:
        W[i, j] = W[j, i] = w
    m = np.linspace(1.0, 2.0, n)
    m /= m.sum()
    pos = np.arange(n, dtype=float)
    form = DirichletForm(FiniteMMSpace(tuple(range(n)), np.abs(pos[:, None] - pos[None, :]), m), W, m)
    dm = intrinsic_metric(form)
    label = np.empty(n, dtype=int)
    for k, idx in enumerate(parts):
        label[idx] = k
        own = FiniteMMSpace(tuple(idx), form.space.metric[np.ix_(idx, idx)], m[idx])
        ref = intrinsic_metric(DirichletForm(own, W[np.ix_(idx, idx)], m[idx]))
        assert np.isfinite(ref).all()
        assert dm[np.ix_(idx, idx)].tobytes() == ref.tobytes()
    assert np.isinf(dm[label[:, None] != label[None, :]]).all()


def test_calibrated_segment_certified_and_triangle():
    space, form = calibrated_segment(8, rel_tol=1e-7)
    d = intrinsic_metric(form, rel_tol=1e-6)
    gap = np.abs(d - space.metric) / (1 + space.metric)
    assert gap.max() <= 1e-6
    n = space.n
    worst = max(
        space.metric[i, j] - space.metric[i, k] - space.metric[k, j]
        for i in range(n) for j in range(n) for k in range(n)
    )
    assert worst <= 2e-7 * (1 + space.metric.max())


@pytest.mark.parametrize("n", [1, 0, -2])
def test_calibrated_segment_needs_two_vertices(n):
    with pytest.raises(FormError, match=f"got n = {n}$"):
        calibrated_segment(n)


@pytest.mark.xfail(raises=FormError, strict=True,
                   reason="pair (0,13) ends with relative gap 3.08e-08, above the default rel_tol 1e-8")
def test_calibrated_segment_certifies_at_its_default_tolerance():
    # n = 8, 12, 14, 17 and 20 pass; 15, 16, 18 and 24 raise FormError
    calibrated_segment(16)


def _scipy_dual_minimize(W, m, c, eta0, maxiter=2000, maxfun=15000):
    """The pair dual minimized by scipy's L-BFGS-B wrapper, as the intrinsic
    metric called it before it drove the C routine itself."""
    return minimize(lambda e: dirichlet._pair_dual(W, m, c, e)[:2], eta0, jac=True, method="L-BFGS-B",
                    bounds=[(1e-14, None)] * len(m),
                    options=dict(maxiter=maxiter, maxfun=maxfun, ftol=1e-18, gtol=1e-14))


_PAIR_FORMS = {
    "calibrated_segment:8": lambda: calibrated_segment(8)[1],
    "cycle:8": lambda: dirichlet_form(make_model_space("cycle", 8)),
    "grid:4": lambda: dirichlet_form(make_model_space("grid", 4)),
    "random_metric:12": lambda: dirichlet_form(make_model_space("random_metric", 12, {"seed": 1})),
}


def _objective(n, x, y):
    c = np.zeros(n)
    c[x], c[y] = 1.0, -1.0
    return c


def _all_pairs(n):
    return [(x, y) for x in range(n) for y in range(x + 1, n)]


@pytest.mark.parametrize("name", list(_PAIR_FORMS))
def test_dual_minimize_is_bit_identical_to_scipy(name):
    # every pair of the form in one lockstep stack
    form = _PAIR_FORMS[name]()
    W, m = form.weights, form.vertex_measure
    n = len(m)
    cs = np.array([_objective(n, x, y) for x, y in _all_pairs(n)])
    eta0s = np.full(cs.shape, 0.5)
    runs = dirichlet._dual_minimize(W, m, cs, eta0s)
    assert len(runs) == len(cs)
    for c, eta0, (eta, _, _) in zip(cs, eta0s, runs):
        assert eta.tobytes() == _scipy_dual_minimize(W, m, c, eta0).x.tobytes()


@pytest.mark.parametrize("cap, option", [("_LBFGSB_ITER_CAP", "maxiter"), ("_LBFGSB_EVAL_CAP", "maxfun")])
def test_dual_minimize_stops_at_its_caps_as_scipy_does(monkeypatch, cap, option):
    # one stack in which pairs (0, 3) and (0, 5) reach the cap and the others converge first
    form = dirichlet_form(make_model_space("cycle", 8))
    W, m = form.weights, form.vertex_measure
    value = {"maxiter": 12, "maxfun": 20}[option]
    monkeypatch.setattr(dirichlet, cap, value)
    cs = np.array([_objective(8, 0, y) for y in range(1, 8)])
    eta0s = np.full(cs.shape, 2.0)
    refs = [_scipy_dual_minimize(W, m, c, eta0, **{option: value}) for c, eta0 in zip(cs, eta0s)]
    assert [ref.status for ref in refs] == [0, 0, 1, 0, 1, 0, 0]  # 1: scipy's "iteration or evaluation limit" exit
    for ref, (eta, _, _) in zip(refs, dirichlet._dual_minimize(W, m, cs, eta0s)):
        assert eta.tobytes() == ref.x.tobytes()


def _dual_bytes(out):
    return [np.asarray(part).tobytes() for part in out]


def test_a_stacked_pair_dual_keeps_the_bits_of_each_row():
    form = _PAIR_FORMS["random_metric:12"]()
    W, m = form.weights, form.vertex_measure
    rng = np.random.default_rng(5)
    cs = np.array([_objective(12, x, y) for x, y in _all_pairs(12)])
    etas = np.exp(rng.uniform(-8.0, 3.0, cs.shape))
    stacked = dirichlet._pair_dual(W, m, cs, etas)
    for r, (c, eta) in enumerate(zip(cs, etas)):
        assert _dual_bytes(part[r] for part in stacked) == _dual_bytes(dirichlet._pair_dual(W, m, c, eta))
    # a stack of stacks is evaluated row by row as well
    deep = dirichlet._pair_dual(W, m, cs.reshape(6, 11, 12), etas.reshape(6, 11, 12))
    assert _dual_bytes(part.reshape(len(cs), *part.shape[2:]) for part in deep) == _dual_bytes(stacked)


def test_a_singular_row_fails_alone():
    # at eta = 0, Q(eta) is the rank-one 1/n matrix
    form = dirichlet_form(make_model_space("cycle", 8))
    W, m = form.weights, form.vertex_measure
    cs = np.array([_objective(8, 0, 3), _objective(8, 2, 5)])
    etas = np.array([np.zeros(8), np.full(8, 0.7)])
    val, grad, sol, _ = dirichlet._pair_dual(W, m, cs[0], etas[0])
    assert val == 1e12 and not grad.any() and not sol.any()
    stacked = dirichlet._pair_dual(W, m, cs, etas)
    assert stacked[0][0] == 1e12 and not stacked[1][0].any() and not stacked[2][0].any()
    assert _dual_bytes(part[1] for part in stacked) == _dual_bytes(dirichlet._pair_dual(W, m, cs[1], etas[1]))


def _metric_or_error(form):
    try:
        return intrinsic_metric(form).tobytes()
    except FormError as err:
        return str(err)


@pytest.mark.parametrize("name", ["calibrated_segment:8", "random_metric:12"])
def test_stacks_of_one_pair_give_the_same_metric(monkeypatch, name):
    form = _PAIR_FORMS[name]()
    stacked = _metric_or_error(form)
    monkeypatch.setattr(dirichlet, "_STACK_ENTRIES", 1)
    sizes = []
    inner = dirichlet._pair_dual
    monkeypatch.setattr(dirichlet, "_pair_dual", lambda W, m, c, eta: sizes.append(eta.shape) or inner(W, m, c, eta))
    assert _metric_or_error(form) == stacked
    assert {shape[0] for shape in sizes if len(shape) == 2} == {1}


# Run in a fresh process: reads every loaded OpenBLAS's thread count, apart
# from the package's own lookup, before the calls, inside every setulb call,
# after a certified metric and after cycle:8's FormError; prints them with the
# metric's bytes as one JSON line.
_THREAD_COUNT_SCRIPT = """
import ctypes, json, sys
from rcdlab import dirichlet
from rcdlab.dirichlet import FormError, calibrated_segment, dirichlet_form, intrinsic_metric
from rcdlab.mmspace import make_model_space

try:
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.rsplit("/", 1)[-1].lower()})
except OSError:  # no /proc: the counts are left empty and only the bytes are compared
    paths = []
getters = []
for path in paths:
    lib = ctypes.CDLL(path)
    names = [p + "get_num_threads" + s for s in ("64_", "", "_64") for p in ("scipy_openblas_", "openblas_")]
    getters += [getattr(lib, name) for name in names if hasattr(lib, name)][:1]
for get in getters:
    get.argtypes, get.restype = [], ctypes.c_int

def counts():
    return [get() for get in getters]

before, during = counts(), set()
inner = dirichlet._setulb

def recording(*args):
    during.update(counts())
    return inner(*args)

dirichlet._setulb = recording
metric = intrinsic_metric(calibrated_segment(8)[1]).tobytes().hex()
after_return = counts()
try:
    intrinsic_metric(dirichlet_form(make_model_space("cycle", 8)))
    sys.exit("cycle:8 was certified")
except FormError:
    pass
print(json.dumps({"metric": metric, "before": before, "during": sorted(during), "after_return": after_return,
                  "after_error": counts()}))
"""


def test_the_intrinsic_metric_does_not_depend_on_the_blas_thread_count():
    # OpenBLAS fixes its thread count when it loads, so each count needs its own process
    src = os.path.dirname(os.path.dirname(dirichlet.__file__))
    runs = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", _THREAD_COUNT_SCRIPT], env=env, capture_output=True, text=True,
                              check=True, timeout=300)
        runs[threads] = json.loads(proc.stdout)
    assert runs["1"]["metric"] and runs["1"]["metric"] == runs["2"]["metric"]
    if not runs["1"]["before"]:
        pytest.skip("no OpenBLAS found through /proc: the bytes matched, the thread counts were not read")
    if len(os.sched_getaffinity(0)) > 1:
        # otherwise the 2-thread run cannot tell a pinned call from an unpinned one
        assert max(runs["2"]["before"]) > 1
    for run in runs.values():
        assert run["during"] == [1]
        assert run["after_return"] == run["after_error"] == run["before"]


# Run in a fresh process: the OpenBLAS builds mapped after `import rcdlab`,
# and those mapped after scipy's BLAS users load too, as one JSON line.
_OPENBLAS_MAPS_SCRIPT = """
import json

def openblas():
    with open("/proc/self/maps") as fh:
        return sorted({line.split()[-1] for line in fh if "openblas" in line.rsplit("/", 1)[-1].lower()})

import rcdlab
after_rcdlab = openblas()
import scipy.linalg, scipy.optimize
print(json.dumps({"rcdlab": after_rcdlab, "scipy": openblas()}))
"""


def test_import_rcdlab_maps_every_openblas_that_scipy_uses():
    # _openblas_threads is looked up once, at the first pinned call, and pins
    # only the builds mapped by then; import rcdlab must already map them all
    if not os.path.exists("/proc/self/maps"):
        pytest.skip("no /proc: the mapped libraries cannot be read")
    src = os.path.dirname(os.path.dirname(dirichlet.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _OPENBLAS_MAPS_SCRIPT], env=env, capture_output=True, text=True,
                          check=True, timeout=300)
    maps = json.loads(proc.stdout)
    if not maps["scipy"]:
        pytest.skip("no OpenBLAS is mapped: there is nothing to pin")
    assert maps["scipy"] == maps["rcdlab"]


def test_the_metric_is_the_same_without_an_openblas_to_pin(monkeypatch):
    form, cycle = calibrated_segment(8)[1], _PAIR_FORMS["cycle:8"]()
    pinned = _metric_or_error(form), _metric_or_error(cycle)
    assert isinstance(pinned[0], bytes) and "(0,3)" in pinned[1]
    monkeypatch.setattr(dirichlet, "_openblas_threads", lambda: ())
    assert (_metric_or_error(form), _metric_or_error(cycle)) == pinned


def test_the_lookup_finds_nothing_without_proc(monkeypatch):
    def no_proc(*args, **kwargs):
        raise FileNotFoundError(args[0])

    monkeypatch.setattr(dirichlet, "open", no_proc, raising=False)
    assert dirichlet._openblas_threads.__wrapped__() == ()


def test_guards_open_in_many_threads_restore_the_callers_count(monkeypatch):
    count = [3]
    monkeypatch.setattr(dirichlet, "_openblas_threads", lambda: ((lambda: count[0], lambda k: count.__setitem__(0, k)),))
    seen = []

    def work():
        for _ in range(300):
            with dirichlet._one_blas_thread():
                seen.append(count[0])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work) for _ in range(8)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert len(seen) == 8 * 300 and set(seen) == {1}
    assert count[0] == 3


def _evaluated_points(monkeypatch, run):
    """The eta of every pair-dual evaluation that run() makes, one per row of a stack."""
    points = []
    inner = dirichlet._pair_dual

    def recording(W, m, c, eta):
        points.extend(np.array(eta, ndmin=2))
        return inner(W, m, c, eta)

    with monkeypatch.context() as patch:
        patch.setattr(dirichlet, "_pair_dual", recording)
        run()
    return points


@pytest.mark.parametrize("x, y, certified", [(0, 1, True), (0, 3, False)])
def test_a_pair_certified_at_the_lbfgsb_exit_is_not_polished(monkeypatch, x, y, certified):
    # on cycle:8 pair (0, 1) is certified at the L-BFGS-B exit; (0, 3) never is
    form = dirichlet_form(make_model_space("cycle", 8))
    W, m = form.weights, form.vertex_measure
    c, eta0 = _objective(8, x, y), np.full(8, 0.5)
    out = []
    pair = _evaluated_points(monkeypatch, lambda: out.append(next(dirichlet._pair_distances(W, m, [(x, y)], 1e-6))))
    lbfgsb = _evaluated_points(monkeypatch, lambda: out.append(dirichlet._dual_minimize(W, m, c[None], eta0[None])[0]))
    assert [p.tobytes() for p in pair[:len(lbfgsb)]] == [p.tobytes() for p in lbfgsb]
    (val, ub), (eta, _, _) = out
    assert dirichlet._certified(val, ub, 1e-6) == certified
    after = pair[len(lbfgsb):]  # at most the exit point, when L-BFGS-B did not end on its last evaluation
    exit_point = np.maximum(eta, 1e-14).tobytes()
    if certified:
        assert len(after) <= 1 and all(p.tobytes() == exit_point for p in after)
    else:
        assert len(after) > 1


@pytest.mark.parametrize("name", ["grid:4", "cycle:8"])
def test_no_pair_is_polished_after_the_first_uncertified_one(monkeypatch, name):
    # both forms fail at pair (0, 3); the pairs after it are never polished
    form = _PAIR_FORMS[name]()
    real, polished = dirichlet._polish, []

    def recording(W, m, c, *args):
        polished.append((int(np.argmax(c)), int(np.argmin(c))))
        return real(W, m, c, *args)

    monkeypatch.setattr(dirichlet, "_polish", recording)
    with pytest.raises(FormError, match=r"pair \(0,3\) gap"):
        intrinsic_metric(form)
    assert polished == [(0, 1), (0, 2), (0, 3)]


@st.composite
def _connected_forms(draw):
    """A form on 2 to 6 vertices whose conductances hold a spanning path."""
    n = draw(st.integers(2, 6))
    weight = st.floats(0.1, 10.0)
    W = np.zeros((n, n))
    for i in range(n - 1):
        W[i, i + 1] = draw(weight)
    for i in range(n):
        for j in range(i + 2, n):
            W[i, j] = draw(st.just(0.0) | weight)
    W = W + W.T
    m = np.array([draw(st.floats(0.05, 1.0)) for _ in range(n)])
    m /= m.sum()
    pos = np.arange(n, dtype=float)
    return DirichletForm(FiniteMMSpace(tuple(range(n)), np.abs(pos[:, None] - pos[None, :]), m), W, m)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(_connected_forms())
def test_intrinsic_metric_returns_only_certified_distances(form):
    W, m, n = form.weights, form.vertex_measure, form.n
    bounds = {(x, y): next(dirichlet._pair_distances(W, m, [(x, y)], 1e-6)) for x in range(n) for y in range(x + 1, n)}
    # weak duality, up to the rounding of the two evaluations: val exceeds ub
    # by one ulp on the two-point form with conductance 0.9375
    assert all(val - ub <= 4 * np.spacing(abs(ub)) for val, ub in bounds.values())
    if not all(dirichlet._certified(val, ub, 1e-6) for val, ub in bounds.values()):
        with pytest.raises(FormError):
            intrinsic_metric(form)
        return
    d = intrinsic_metric(form)
    assert d.tobytes() == d.T.tobytes() and not np.diagonal(d).any()
    for (x, y), (val, ub) in bounds.items():
        assert min(val, ub) <= d[x, y] <= max(val, ub)


def test_energy_kernel_is_componentwise_constants():
    from rcdlab.mmspace import FiniteMMSpace

    d = np.array([[0.0, 1, 2, 3], [1, 0.0, 1, 2], [2, 1, 0.0, 1], [3, 2, 1, 0.0]], dtype=float)
    sp = FiniteMMSpace((0, 1, 2, 3), d, np.full(4, 0.25))
    W = np.zeros((4, 4))
    W[0, 1] = W[1, 0] = 1.0
    W[2, 3] = W[3, 2] = 1.0  # two components
    form = DirichletForm(sp, W, np.full(4, 0.25))
    f = np.array([2.0, 2.0, -1.0, -1.0])  # constant per component
    assert energy(form, f, f) == pytest.approx(0.0, abs=1e-15)
    g = np.array([2.0, 2.1, -1.0, -1.0])
    assert energy(form, g, g) > 0
    assert list(form.components()) == [0, 0, 1, 1]


def _random_form(rng, n, density):
    W = np.triu(rng.uniform(0.1, 2.0, (n, n)) * (rng.uniform(size=(n, n)) < density), 1)
    m = rng.uniform(0.5, 1.5, n)
    space = FiniteMMSpace(tuple(range(n)), np.ones((n, n)) - np.eye(n), m / m.sum())
    return DirichletForm(space, W + W.T, m / m.sum())


def _components_by_search(form):
    labels = -np.ones(form.n, dtype=int)
    for s in range(form.n):
        if labels[s] < 0:
            labels[s] = cur = labels.max() + 1
            stack = [s]
            while stack:
                for y in np.nonzero(form.weights[stack.pop()] > 0)[0]:
                    if labels[y] < 0:
                        labels[y] = cur
                        stack.append(y)
    return labels


def test_components_are_labelled_by_lowest_vertex():
    rng = np.random.default_rng(11)
    for k in range(30):
        form = _random_form(rng, int(rng.integers(1, 14)), (0.05, 0.15, 0.4)[k % 3])
        assert form.components().tolist() == _components_by_search(form).tolist()


def test_components_are_scipys_labels():
    rng = np.random.default_rng(13)
    for k in range(200):
        form = _random_form(rng, int(rng.integers(1, 20)), (0.03, 0.08, 0.15, 0.4)[k % 4])
        assert form.components().tolist() == connected_components(form.weights > 0, directed=False)[1].tolist()


def test_product_form_matches_the_elementwise_construction():
    rng = np.random.default_rng(12)
    for na, nb in ((1, 4), (3, 5), (6, 2), (4, 4)):
        fa, fb = _random_form(rng, na, 0.5), _random_form(rng, nb, 0.5)
        W = np.zeros((na * nb, na * nb))
        for i, j in zip(*np.nonzero(fa.weights)):
            for y in range(nb):
                W[i * nb + y, j * nb + y] = fa.weights[i, j] * fb.vertex_measure[y]
        for i, j in zip(*np.nonzero(fb.weights)):
            for x in range(na):
                W[x * nb + i, x * nb + j] = fb.weights[i, j] * fa.vertex_measure[x]
        fp = product_form(fa, fb, product_space(fa.space, fb.space))
        assert fp.weights.tobytes() == W.tobytes()


@pytest.mark.parametrize("entry, value", [((0, 1), -1.0), ((1, 1), 1.0)], ids=["negative-edge", "diagonal"])
def test_form_rejects_negative_conductance_and_nonzero_diagonal(entry, value):
    space = make_model_space("segment", 3)
    W = dirichlet_form(space).weights.copy()
    W[entry] = W[entry[::-1]] = value
    with pytest.raises(FormError):
        DirichletForm(space, W, space.ref_measure)
