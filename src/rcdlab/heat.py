"""Heat flows on a Dirichlet form: the L2 semigroup and the minimizing-
movement (proximal) flow of the entropy, plus kernel-level laws.

The semigroup is computed spectrally (the generator is similar to a symmetric
matrix), which makes the semigroup property, mass conservation and kernel
symmetry hold to rounding. The proximal flow shares the entropic engine with
the geodesic module; its step uses a debiased smoothed transport cost, which
is first-order consistent with the semigroup where the unsmoothed step is
not. Moving mass one edge costs at least min-edge-length^2 / (2 tau) per unit
mass, so the unsmoothed step all but freezes on a lattice at steps small
against min-edge-length^2, and only there: from the bump of
configs/cycle64_rcd.json, the smoothed step's measure scores above the bump
on the unsmoothed objective at tau = 1e-5, but 1.0653 against the bump's
1.4508 at tau = 0.004, so the unsmoothed step moves.

Checks that read only a flow's measures and entropies (evi.rcd_verify's
probes, identification_check) take the traces of _semigroup_trace and
_jko_trace, which solve no speed LP and compute no Fisher information.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field, replace

import numpy as np

from .dirichlet import DirichletForm, laplacian_matrix, product_form
from .measures import ProbMeasure, fisher_information, relative_entropy, uniform_measure
from .mmspace import _freeze, line_of, product_space
from .solvers import SolverError, exact_ot, exact_ot_costs, prox_entropy_step

_KERNEL_CLIP_TOL = 1e-12
_DT_DISS = 1e-4  # half-width of identification_check's centered entropy difference


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


def _finite_at(t, values):
    """values, computed at time t; a HeatError naming t when one is not
    finite (exp(t L) overflows on the rounding-level positive eigenvalues of
    the generator at t near 1e200, and t = inf gives inf * 0)."""
    if not np.isfinite(values).all():
        raise HeatError(f"the heat semigroup at t = {t!r} is not finite")
    return values


def semigroup_apply(form: DirichletForm, f, t):
    """Apply the heat semigroup h_t = exp(t Lap) to a function, by the
    eigendecomposition of the symmetrized generator that heat_kernel uses."""
    f = np.asarray(f, dtype=float)
    if not t >= 0:
        raise HeatError(f"t >= 0 required, got {t!r}")
    if t == 0:
        return f.copy()
    evals, U, sm = _spectral(form)
    g = U.T @ (sm * f)
    with np.errstate(over="ignore", invalid="ignore"):
        return _finite_at(t, (U @ (np.exp(t * evals) * g)) / sm)


def heat_kernel(form: DirichletForm, t) -> HeatKernel:
    """Transition density matrix p_t(x, y) against m; symmetric by
    construction, rows integrate to one, tiny negative rounding is clipped."""
    if not t > 0:
        raise HeatError(f"t > 0 required, got {t!r}")
    evals, U, sm = _spectral(form)
    with np.errstate(over="ignore", invalid="ignore"):
        A = U * np.exp(t * evals)[None, :]
        P = _finite_at(t, (A @ U.T) / (sm[:, None] * sm[None, :]))
    clip = max(0.0, float(-P.min()))
    if clip > _KERNEL_CLIP_TOL:
        raise HeatError(f"kernel clipping {clip:.2e} above tolerance")
    P = np.maximum(P, 0.0)
    return HeatKernel(float(t), P, clip)


def _heat_measure(form: DirichletForm, f, t) -> ProbMeasure:
    """h_t f as a probability measure: the weights h_t f * m, clipped at 0
    (the spectral semigroup leaves rounding-level negatives where h_t f
    vanishes) and normalized."""
    w = np.maximum(semigroup_apply(form, f, t) * form.vertex_measure, 0.0)
    return ProbMeasure(form.space, w / w.sum())


def _w2_speeds(space, measures, steps):
    """W2(mu_k, mu_{k+1}) / step_k along a trace on space, one series
    (exact_ot_costs) walked from the last pair to the first: a flow's support
    grows from its start to full, so without a line the series solves the
    full model cold once, on the smoothest pair, and restarts only on the
    small LPs of the first pairs, a third fewer simplex iterations than
    walking forward on the flows of configs/cycle64_rcd.json solved without
    their line."""
    pairs = [(a.weights, b.weights) for a, b in zip(measures, measures[1:])]
    costs = exact_ot_costs(space.metric ** 2, pairs[::-1], line_of(space))[::-1]
    return tuple(float(np.sqrt(max(c, 0.0)) / dt) for c, dt in zip(costs, steps))


def _with_rates(trace: FlowTrace, form, space, steps) -> FlowTrace:
    """trace with its Fisher informations (nan without a form) and its W2
    speeds on space over the given steps."""
    fisher = tuple(fisher_information(mu, form) if form is not None else float("nan") for mu in trace.measures)
    return replace(trace, fisher=fisher, w2_speeds=_w2_speeds(space, trace.measures, steps))


def _semigroup_trace(form: DirichletForm, f0, t_grid) -> FlowTrace:
    """The measures and entropies of semigroup_flow; its Fisher and speed
    series are empty."""
    f0 = np.asarray(f0, dtype=float)
    m = form.vertex_measure
    times = tuple(float(t) for t in t_grid)
    if not (np.diff(times) > 0).all():
        raise HeatError(f"t_grid must increase strictly, got {times}")
    measures = tuple(_heat_measure(form, f0, t) for t in times)
    return FlowTrace(times, measures, tuple(relative_entropy(mu, m) for mu in measures), (), (), "semigroup")


def semigroup_flow(form: DirichletForm, f0, t_grid) -> FlowTrace:
    """Trace of the L2 semigroup from a probability density f0."""
    trace = _semigroup_trace(form, f0, t_grid)
    return _with_rates(trace, form, form.space, np.diff(trace.times))


def _jko_trace(mu0: ProbMeasure, tau, nsteps, inner_tol, blur) -> FlowTrace:
    """The measures, entropies and meta of jko_flow; its Fisher and speed
    series are empty."""
    if not 0 < tau < np.inf:
        raise HeatError(f"a finite tau > 0 required, got {tau!r}")
    if not blur > 0:
        raise HeatError(f"blur > 0 required, got {blur!r}")
    space = mu0.space
    m = space.ref_measure
    C = space.metric ** 2
    times = [0.0]
    measures = [mu0]
    w = mu0.weights.copy()
    gaps = []
    for k in range(nsteps):
        w_new, gap, _ = prox_entropy_step(w, C, m, tau, blur)
        if gap > inner_tol:
            raise SolverError(f"proximal step {k} gap {gap:.2e} exceeds inner_tol", gap=gap)
        gaps.append(gap)
        w = w_new
        times.append((k + 1) * tau)
        measures.append(ProbMeasure(space, w / w.sum()))
    return FlowTrace(
        tuple(times), tuple(measures), tuple(relative_entropy(mu, m) for mu in measures), (), (),
        "jko", {"tau": float(tau), "blur": float(blur), "max_inner_gap": max(gaps) if gaps else 0.0},
    )


def jko_flow(mu0: ProbMeasure, tau, nsteps, inner_tol=1e-8, blur=0.25, form=None) -> FlowTrace:
    """Minimizing-movement flow of the entropy in W2.

    Each step solves the coupling program min Ent(nu) + cost(gamma)/(2 tau)
    with the quadratic cost smoothed at barrier temperature blur (transport
    blur 2*blur*tau) and debiased by the self-transport potential of the
    current iterate; blur > 0 is required for first-order consistency with
    the semigroup, which the unsmoothed step lacks on a lattice (see module
    docstring). Certified per-step duality gaps of the solved program must
    stay below inner_tol; the largest is meta["max_inner_gap"].
    """
    return _with_rates(_jko_trace(mu0, tau, nsteps, inner_tol, blur), form, mu0.space, [tau] * nsteps)


def identification_check(form: DirichletForm, f0, t_grid, tau_grid, blur=0.25, t_diss=0.1) -> dict:
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
        trace = _jko_trace(mu0, tau, nsteps, 1e-6, blur)
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
    f_lo = semigroup_apply(form, f0, t_diss - _DT_DISS)
    f_hi = semigroup_apply(form, f0, t_diss + _DT_DISS)
    ent = lambda f: relative_entropy(ProbMeasure(space, f * m / (f * m).sum()), m)
    dent = (ent(f_hi) - ent(f_lo)) / (2 * _DT_DISS)
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
    time grid, plus the largest K passing at tol, in closed form.

    With L_t = Gamma(h_t f) and R_t = h_t Gamma(f), the residual
    L_t - exp(-2Kt) R_t increases with K for t > 0. A site with L_t > tol
    therefore caps K at log(R_t / (L_t - tol)) / (2t), and admits no K when
    R_t <= 0; the largest K is the least cap (-inf when some site admits no
    K, +inf when no site binds). At t = 0, L = R exactly and nothing binds.
    """
    f = np.asarray(f, dtype=float)
    gf = form.gamma_vector(f, f)
    worst, largest = -np.inf, np.inf
    for t in t_grid:
        ht_f = semigroup_apply(form, f, t)
        L = form.gamma_vector(ht_f, ht_f)
        R = semigroup_apply(form, gf, t)
        worst = max(worst, float((L - np.exp(-2.0 * K * t) * R).max()))
        bind = L > tol
        if t > 0 and bind.any():
            with np.errstate(divide="ignore"):
                caps = np.log(np.maximum(R[bind], 0.0) / (L[bind] - tol)) / (2.0 * t)
            largest = min(largest, float(caps.min()))
    return {"worst_residual": worst, "largest_K": largest, "tol": tol}


def i_rate(K, t):
    """int_0^t exp(K r) dr."""
    if abs(K) < 1e-14:
        return float(t)
    return float((np.exp(K * t) - 1.0) / K)


def lipschitz_regularization_check(form: DirichletForm, f, t, K) -> dict:
    """Residual of 2 I_{2K}(t) Gamma(h_t f) <= h_t(f^2) pointwise, and the
    sup-norm slope bound sqrt(2 I_{2K}(t)) * max sqrt(Gamma(h_t f)) <= ||f||_inf."""
    f = np.asarray(f, dtype=float)
    if not t > 0:
        raise HeatError(f"t > 0 required, got {t!r}")
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
    satisfying the inequality at 1e-12 over a randomized density family.

    Ent - Fisher/(2K) <= 1e-12 holds for every K > 0 when Ent <= 1e-12, and
    otherwise exactly when K <= Fisher / (2 (Ent - 1e-12)); best_K is the
    least of these caps over the family, +inf when none binds.
    """
    if not K > 0:
        raise HeatError(f"K > 0 required, got {K!r}")
    m = form.vertex_measure
    space = form.space

    def ent_fisher(dens):
        mu = ProbMeasure(space, dens * m / (dens * m).sum())
        return relative_entropy(mu, m), fisher_information(mu, form)

    rng = np.random.default_rng(seed)
    fam = [np.asarray(f, dtype=float)]
    for _ in range(n_family):
        g = np.exp(rng.normal(scale=0.8, size=form.n))
        fam.append(semigroup_apply(form, g, 0.01 * rng.uniform(0.5, 2.0)))
    pairs = [ent_fisher(g) for g in fam]
    best = min((fi / (2.0 * (ent - 1e-12)) for ent, fi in pairs if ent > 1e-12), default=np.inf)
    ent, fi = pairs[0]
    return {"residual": ent - fi / (2.0 * K), "best_K": float(best)}


def contraction_check(form: DirichletForm, mu: ProbMeasure, nu: ProbMeasure, K, t_grid) -> dict:
    """max over t of W2(h_t mu, h_t nu) - exp(-Kt) W2(mu, nu), from one
    series of transport problems (exact_ot_costs): (mu, nu), then
    (h_t mu, h_t nu) along t_grid."""
    pairs = [(mu.weights, nu.weights)] + [(_heat_measure(form, mu.density(), t).weights,
                                           _heat_measure(form, nu.density(), t).weights) for t in t_grid]
    w0, *wt = (np.sqrt(max(c, 0.0)) for c in exact_ot_costs(form.space.metric ** 2, pairs, line_of(form.space)))
    series = [float(w - np.exp(-K * t) * w0) for w, t in zip(wt, t_grid)]
    return {"worst": max(series, default=-np.inf), "series": series, "w2_initial": float(w0)}


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
    nu_a = _heat_measure(form_a, f_a, t).weights
    nu_b = _heat_measure(form_b, f_b, t).weights
    wa = exact_ot(form_a.space.metric ** 2, mu_a, nu_a, line=line_of(form_a.space))[0]
    wb = exact_ot(form_b.space.metric ** 2, mu_b, nu_b, line=line_of(form_b.space))[0]
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
    mu_t = _heat_measure(form, mu.density(), t)
    ent = relative_entropy(mu_t, m)
    fis = fisher_information(mu_t, form)
    I = i_rate(K, t)
    lhs = I * ent + 0.5 * I * I * fis
    rhs = 0.5 * exact_ot(form.space.metric ** 2, mu.weights, uniform_measure(form.space).weights,
                         line=line_of(form.space))[0]
    return {"lhs": float(lhs), "rhs": float(rhs), "margin": float(rhs - lhs)}
