"""Heat flows on a Dirichlet form: the L2 semigroup and the minimizing-
movement (proximal) flow of the entropy, plus kernel-level laws.

The semigroup is computed spectrally (the generator is similar to a symmetric
matrix), which makes the semigroup property, mass conservation and kernel
symmetry hold to rounding. The proximal flow shares the entropic engine with
the geodesic module; its step uses a debiased smoothed transport cost because
the unsmoothed problem freezes on a lattice (moving one site costs at least
min-edge-length^2 per unit mass, so below that threshold the exact minimizer
is the starting measure).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

import numpy as np

from .dirichlet import DirichletForm, laplacian_matrix, product_form
from .measures import ProbMeasure, fisher_information, relative_entropy, uniform_measure
from .mmspace import _freeze, product_space
from .solvers import SolverError, exact_ot, prox_entropy_step

_KERNEL_CLIP_TOL = 1e-12


class HeatError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class HeatKernel:
    """Transition densities against the reference measure at one time."""

    t: float
    matrix: np.ndarray
    clip_magnitude: float

    def __post_init__(self):
        object.__setattr__(self, "matrix", _freeze(self.matrix))


@dataclass(frozen=True, eq=False)
class FlowTrace:
    """Time-stamped measures with entropy / Fisher / W2-speed series."""

    times: tuple
    measures: tuple
    entropies: tuple
    fisher: tuple
    w2_speeds: tuple
    flavor: str
    meta: dict = field(default_factory=dict)


_SPECTRAL = weakref.WeakKeyDictionary()


def _spectral(form: DirichletForm):
    """Eigendecomposition of the symmetrized generator, cached per form."""
    got = _SPECTRAL.get(form)
    if got is None:
        m = form.vertex_measure
        L = laplacian_matrix(form)
        S = np.sqrt(m)[:, None] * L / np.sqrt(m)[None, :]
        S = 0.5 * (S + S.T)
        evals, U = np.linalg.eigh(S)
        got = (evals, U, np.sqrt(m))
        _SPECTRAL[form] = got
    return got


def spectral_gap(form: DirichletForm) -> float:
    evals, _, _ = _spectral(form)
    nz = -evals[evals < -1e-12]
    return float(nz.min()) if nz.size else 0.0


def semigroup_apply(form: DirichletForm, f, t, method="expm"):
    """Apply the heat semigroup to a function.

    method "expm" evaluates the exact matrix exponential spectrally (dense,
    for n <= 512); ("implicit_euler", dt) does unconditionally stable implicit
    stepping, which preserves positivity exactly.
    """
    f = np.asarray(f, dtype=float)
    if t < 0:
        raise HeatError("t >= 0 required")
    if t == 0:
        return f.copy()
    if method == "expm":
        if form.n > 512:
            raise HeatError("dense exponential limited to n <= 512; use implicit_euler")
        evals, U, sm = _spectral(form)
        g = U.T @ (sm * f)
        return (U @ (np.exp(t * evals) * g)) / sm
    if isinstance(method, tuple) and method[0] == "implicit_euler":
        dt = float(method[1])
        steps = max(int(round(t / dt)), 1)
        dt = t / steps
        A = np.eye(form.n) - dt * laplacian_matrix(form)
        u = f.copy()
        for _ in range(steps):
            u = np.linalg.solve(A, u)
        return u
    raise HeatError(f"unknown method {method!r}")


def heat_kernel(form: DirichletForm, t) -> HeatKernel:
    """Transition density matrix p_t(x, y) against m; symmetric by
    construction, rows integrate to one, tiny negative rounding is clipped."""
    if t <= 0:
        raise HeatError("t > 0 required")
    evals, U, sm = _spectral(form)
    A = U * np.exp(t * evals)[None, :]
    P = (A @ U.T) / (sm[:, None] * sm[None, :])
    clip = max(0.0, float(-P.min()))
    if clip > _KERNEL_CLIP_TOL:
        raise HeatError(f"kernel clipping {clip:.2e} above tolerance")
    P = np.maximum(P, 0.0)
    return HeatKernel(float(t), P, clip)


def semigroup_flow(form: DirichletForm, f0, t_grid) -> FlowTrace:
    """Trace of the L2 semigroup from a probability density f0."""
    f0 = np.asarray(f0, dtype=float)
    m = form.vertex_measure
    space = form.space
    times = [float(t) for t in t_grid]
    measures, entropies, fishers = [], [], []
    for t in times:
        ft = semigroup_apply(form, f0, t)
        w = np.maximum(ft * m, 0.0)
        mu = ProbMeasure(space, w / w.sum())
        measures.append(mu)
        entropies.append(relative_entropy(mu, m))
        fishers.append(fisher_information(mu, form))
    speeds = []
    C = space.metric ** 2
    for a, b, t0, t1 in zip(measures, measures[1:], times, times[1:]):
        cost = exact_ot(C, a.weights, b.weights)[0]
        speeds.append(float(np.sqrt(max(cost, 0.0)) / (t1 - t0)))
    return FlowTrace(tuple(times), tuple(measures), tuple(entropies), tuple(fishers), tuple(speeds), "semigroup", {"method": "expm"})


def jko_flow(mu0: ProbMeasure, tau, nsteps, inner_tol=1e-8, blur=0.25, form=None) -> FlowTrace:
    """Minimizing-movement flow of the entropy in W2.

    Each step solves the coupling program min Ent(nu) + cost(gamma)/(2 tau)
    with the quadratic cost smoothed at barrier temperature blur (transport
    blur 2*blur*tau) and debiased by the self-transport potential of the
    current iterate; blur > 0 is required for first-order consistency on a
    lattice (see module docstring). Certified per-step duality gaps of the
    solved program must stay below inner_tol.
    """
    if tau <= 0:
        raise HeatError("tau > 0 required")
    space = mu0.space
    m = space.ref_measure
    C = space.metric ** 2
    times = [0.0]
    measures = [mu0]
    w = mu0.weights.copy()
    gaps = []
    for k in range(nsteps):
        w_new, gap, _ = prox_entropy_step(w, C, m, tau, blur, debias=blur > 0)
        if gap > inner_tol:
            raise SolverError(f"proximal step {k} gap {gap:.2e} exceeds inner_tol", gap=gap)
        gaps.append(gap)
        w = w_new
        times.append((k + 1) * tau)
        measures.append(ProbMeasure(space, w / w.sum()))
    entropies = [relative_entropy(mu, m) for mu in measures]
    fishers = [fisher_information(mu, form) if form is not None else float("nan") for mu in measures]
    speeds = []
    for a, b in zip(measures, measures[1:]):
        cost = exact_ot(C, a.weights, b.weights)[0]
        speeds.append(float(np.sqrt(max(cost, 0.0)) / tau))
    return FlowTrace(
        tuple(times), tuple(measures), tuple(entropies), tuple(fishers), tuple(speeds),
        "jko", {"tau": float(tau), "blur": float(blur), "max_inner_gap": max(gaps) if gaps else 0.0},
    )


def identification_check(form: DirichletForm, f0, t_grid, tau_grid, blur=0.25, dt_diss=1e-4, t_diss=0.1) -> dict:
    """Compare the proximal flow against the semigroup and fit the order in
    tau; check -dEnt/dt = Fisher along the semigroup by centered differences."""
    f0 = np.asarray(f0, dtype=float)
    m = form.vertex_measure
    space = form.space
    mu0 = ProbMeasure(space, f0 * m / (f0 * m).sum())
    T = max(t_grid)
    gaps = []
    for tau in tau_grid:
        nsteps = int(round(T / tau))
        trace = jko_flow(mu0, tau, nsteps, inner_tol=1e-6, blur=blur)
        worst = 0.0
        for t, mu in zip(trace.times[1:], trace.measures[1:]):
            ft = semigroup_apply(form, f0, t)
            worst = max(worst, float(np.abs(mu.weights - ft * m).sum()))
        gaps.append(worst)
    tau_arr = np.asarray(tau_grid, dtype=float)
    if len(tau_arr) >= 2:
        order = float(np.polyfit(np.log(tau_arr), np.log(np.maximum(gaps, 1e-300)), 1)[0])
    else:
        order = float("nan")

    f_mid = semigroup_apply(form, f0, t_diss)
    f_lo = semigroup_apply(form, f0, t_diss - dt_diss)
    f_hi = semigroup_apply(form, f0, t_diss + dt_diss)
    ent = lambda f: relative_entropy(ProbMeasure(space, f * m / (f * m).sum()), m)
    dent = (ent(f_hi) - ent(f_lo)) / (2 * dt_diss)
    fisher = fisher_information(ProbMeasure(space, f_mid * m / (f_mid * m).sum()), form)
    rel = abs(-dent - fisher) / max(abs(fisher), 1e-300)
    return {
        "l1_gaps": gaps,
        "tau_grid": list(map(float, tau_grid)),
        "fitted_order": order,
        "dissipation_residual_rel": float(rel),
        "fisher_at_t": float(fisher),
    }


def bakry_emery_check(form: DirichletForm, f, t_grid, K, tol=1e-10) -> dict:
    """Pointwise residual of Gamma(h_t f) <= exp(-2Kt) h_t Gamma(f) over the
    time grid, plus the largest K passing at tol (bisection)."""
    f = np.asarray(f, dtype=float)
    gf = form.gamma_vector(f, f)

    def worst(Kv):
        r = -np.inf
        for t in t_grid:
            lhs = form.gamma_vector(semigroup_apply(form, f, t), semigroup_apply(form, f, t))
            rhs = np.exp(-2.0 * Kv * t) * semigroup_apply(form, gf, t)
            r = max(r, float((lhs - rhs).max()))
        return r

    res = worst(K)
    lo, hi = K - 1.0, K + 1.0
    while worst(lo) > tol:
        lo -= max(1.0, abs(lo))
        if lo < -1e6:
            break
    while worst(hi) <= tol:
        hi += max(1.0, abs(hi))
        if hi > 1e6:
            break
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if worst(mid) <= tol:
            lo = mid
        else:
            hi = mid
    return {"worst_residual": res, "largest_K": lo, "tol": tol}


def i_rate(K, t):
    """int_0^t exp(K r) dr."""
    if abs(K) < 1e-14:
        return float(t)
    return float((np.exp(K * t) - 1.0) / K)


def lipschitz_regularization_check(form: DirichletForm, f, t, K) -> dict:
    """Residual of 2 I_{2K}(t) Gamma(h_t f) <= h_t(f^2) pointwise, and the
    sup-norm slope bound sqrt(2 I_{2K}(t)) * max sqrt(Gamma(h_t f)) <= ||f||_inf."""
    f = np.asarray(f, dtype=float)
    if t <= 0:
        raise HeatError("t > 0 required")
    ht_f = semigroup_apply(form, f, t)
    ht_f2 = semigroup_apply(form, f * f, t)
    I = i_rate(2.0 * K, t)
    lhs = 2.0 * I * form.gamma_vector(ht_f, ht_f)
    worst = float((lhs - ht_f2).max())
    slope_bound = float(np.sqrt(2.0 * I) * np.sqrt(np.maximum(form.gamma_vector(ht_f, ht_f), 0.0)).max())
    return {
        "worst_residual": worst,
        "slope_bound": slope_bound,
        "sup_norm": float(np.abs(f).max()),
        "slope_margin": float(np.abs(f).max() - slope_bound),
    }


def log_sobolev_check(form: DirichletForm, f, K, n_family=20, seed=0) -> dict:
    """Residual Ent - Fisher/(2K) for the given density, plus the largest K
    satisfying the inequality over a randomized density family (bisection)."""
    if K <= 0:
        raise HeatError("K > 0 required")
    m = form.vertex_measure
    space = form.space

    def resid(dens, Kv):
        mu = ProbMeasure(space, dens * m / (dens * m).sum())
        return relative_entropy(mu, m) - fisher_information(mu, form) / (2.0 * Kv)

    rng = np.random.default_rng(seed)
    fam = [np.asarray(f, dtype=float)]
    for _ in range(n_family):
        g = np.exp(rng.normal(scale=0.8, size=form.n))
        fam.append(semigroup_apply(form, g, 0.01 * rng.uniform(0.5, 2.0)))

    def all_pass(Kv):
        return all(resid(g, Kv) <= 1e-12 for g in fam)

    lo, hi = 1e-6, 1e-6
    while all_pass(hi):
        hi *= 2
        if hi > 1e9:
            break
    lo = hi / 2 if hi > 1e-6 else 0.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if all_pass(mid):
            lo = mid
        else:
            hi = mid
    return {"residual": resid(np.asarray(f, dtype=float), K), "best_K": lo}


def contraction_check(form: DirichletForm, mu: ProbMeasure, nu: ProbMeasure, K, t_grid) -> dict:
    """max over t of W2(h_t mu, h_t nu) - exp(-Kt) W2(mu, nu)."""
    space = form.space
    m = form.vertex_measure
    C = space.metric ** 2
    w0 = np.sqrt(max(exact_ot(C, mu.weights, nu.weights)[0], 0.0))
    worst = -np.inf
    series = []
    for t in t_grid:
        a = semigroup_apply(form, mu.density(), t) * m
        b = semigroup_apply(form, nu.density(), t) * m
        wt = np.sqrt(max(exact_ot(C, a / a.sum(), b / b.sum())[0], 0.0))
        gap = wt - np.exp(-K * t) * w0
        series.append(float(gap))
        worst = max(worst, gap)
    return {"worst": float(worst), "series": series, "w2_initial": float(w0)}


def tensorization_check(form_a: DirichletForm, form_b: DirichletForm, f_a, f_b, t) -> dict:
    """Kernel factorization on the product space and W2^2 additivity for
    product measures."""
    space_p = product_space(form_a.space, form_b.space)
    form_p = product_form(form_a, form_b, space_p)
    ka = heat_kernel(form_a, t).matrix
    kb = heat_kernel(form_b, t).matrix
    kp = heat_kernel(form_p, t).matrix
    fact = float(np.abs(kp - np.kron(ka, kb)).max())

    ma, mb = form_a.vertex_measure, form_b.vertex_measure
    f_a = np.asarray(f_a, dtype=float)
    f_b = np.asarray(f_b, dtype=float)
    mu_a = f_a * ma / (f_a * ma).sum()
    mu_b = f_b * mb / (f_b * mb).sum()
    nu_a = semigroup_apply(form_a, f_a, t) * ma
    nu_a /= nu_a.sum()
    nu_b = semigroup_apply(form_b, f_b, t) * mb
    nu_b /= nu_b.sum()
    wa = exact_ot(form_a.space.metric ** 2, mu_a, nu_a)[0]
    wb = exact_ot(form_b.space.metric ** 2, mu_b, nu_b)[0]
    wp = exact_ot(space_p.metric ** 2, (mu_a[:, None] * mu_b[None, :]).ravel(), (nu_a[:, None] * nu_b[None, :]).ravel())[0]
    return {
        "kernel_factorization_gap": fact,
        "w2sq_additivity_gap": float(abs(wp - wa - wb)),
        "w2sq_product": float(wp),
    }


def entropy_slope_regularization(form: DirichletForm, mu: ProbMeasure, t, K=0.0) -> dict:
    """Reported diagnostic: I_K(t) Ent(h_t mu) + I_K(t)^2/2 Fisher(h_t mu)
    against W2^2(mu, uniform)/2."""
    m = form.vertex_measure
    ft = semigroup_apply(form, mu.density(), t)
    mu_t = ProbMeasure(form.space, ft * m / (ft * m).sum())
    ent = relative_entropy(mu_t, m)
    fis = fisher_information(mu_t, form)
    I = i_rate(K, t)
    lhs = I * ent + 0.5 * I * I * fis
    rhs = 0.5 * exact_ot(form.space.metric ** 2, mu.weights, uniform_measure(form.space).weights)[0]
    return {"lhs": float(lhs), "rhs": float(rhs), "margin": float(rhs - lhs)}
