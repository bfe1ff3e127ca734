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

import math
from dataclasses import dataclass

import numpy as np

from .measures import ProbMeasure
from .mmspace import FiniteMMSpace, _freeze


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
        if self.vertex_measure.min() <= 0:
            raise FormError("vertex measure must be positive")

    @property
    def n(self):
        return self.weights.shape[0]

    def components(self):
        """Connected components of the positive-conductance graph."""
        n = self.n
        labels = -np.ones(n, dtype=int)
        cur = 0
        for s in range(n):
            if labels[s] >= 0:
                continue
            stack = [s]
            labels[s] = cur
            while stack:
                x = stack.pop()
                for y in np.nonzero(self.weights[x] > 0)[0]:
                    if labels[y] < 0:
                        labels[y] = cur
                        stack.append(y)
            cur += 1
        return labels

    def gamma_vector(self, f, g):
        f = np.asarray(f, dtype=float)
        g = np.asarray(g, dtype=float)
        df = f[None, :] - f[:, None]
        dg = g[None, :] - g[:, None]
        return (self.weights * df * dg).sum(axis=1) / (2.0 * self.vertex_measure)


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
    zero set of g are dropped, realizing locality of the reweighting."""
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


def transfer_identity_check(form: DirichletForm, g, phi) -> dict:
    """Residual of E_rho(log g, phi) = E(g, phi) for rho = g m.

    Out of domain (flagged, not asserted) when g vanishes across an edge where
    phi differs.
    """
    g = np.asarray(g, dtype=float)
    phi = np.asarray(phi, dtype=float)
    if g.min() < 0:
        raise FormError("g must be a nonnegative density")
    dphi = np.abs(phi[None, :] - phi[:, None])
    dead = (np.minimum(g[:, None], g[None, :]) == 0) & (form.weights > 0) & (dphi > 0)
    in_domain = not bool(dead.any())
    theta = np.minimum(g[:, None], g[None, :])
    logg = np.log(np.maximum(g, 1e-300))
    dlog = np.where(theta > 0, logg[None, :] - logg[:, None], 0.0)
    lhs = 0.5 * float((form.weights * theta * dlog * (phi[None, :] - phi[:, None])).sum())
    rhs = energy(form, g, phi)
    return {"lhs": lhs, "rhs": rhs, "residual": abs(lhs - rhs), "in_domain": in_domain}


def chain_rule_check(form: DirichletForm, f, phi, phi_prime) -> dict:
    """Gap of sqrt(Gamma(phi(f))) vs |phi'(f)| sqrt(Gamma(f)) and the
    integrated second-argument residual int Gamma(g, phi(f)) - phi'(f) Gamma(g, f) dm.

    Exact for affine phi; on refinement families of smooth profiles both gaps
    shrink like the mesh.
    """
    f = np.asarray(f, dtype=float)
    pf = np.array([phi(v) for v in f], dtype=float)
    dpf = np.array([phi_prime(v) for v in f], dtype=float)
    g1 = np.sqrt(np.maximum(form.gamma_vector(pf, pf), 0.0))
    g2 = np.abs(dpf) * np.sqrt(np.maximum(form.gamma_vector(f, f), 0.0))
    pointwise = float(np.abs(g1 - g2).max())
    lhs = float(form.gamma_vector(f, pf) @ form.vertex_measure)
    rhs = float((dpf * form.gamma_vector(f, f)) @ form.vertex_measure)
    return {"pointwise_gap": pointwise, "integrated_residual": abs(lhs - rhs)}


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

    paths: list of (vertex index array, step length array). Solved exactly by
    active-set enumeration of the KKT systems (the family is small); the
    optimal g is automatically nonnegative for this constraint structure.
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
    G = A.T @ (A / (2.0 * m)[:, None])
    best = None
    for mask in range(1, 2**k):
        S = [j for j in range(k) if mask >> j & 1]
        GS = G[np.ix_(S, S)]
        try:
            eta_S = np.linalg.solve(GS, np.ones(len(S)))
        except np.linalg.LinAlgError:
            continue
        if (eta_S < -1e-12).any():
            continue
        eta = np.zeros(k)
        eta[S] = np.maximum(eta_S, 0.0)
        g = (A @ eta) / (2.0 * m)
        cons = A.T @ g
        if (cons >= 1.0 - 1e-10).all():
            val = float(m @ g**2)
            if best is None or val < best[0]:
                best = (val, g)
    if best is None:
        raise FormError("active-set enumeration failed")
    return best


def locality_check(form: DirichletForm, f1, f2) -> dict:
    """Max |Gamma(f1,f1) - Gamma(f2,f2)| over vertices where f1 and f2 agree
    together with their whole neighborhood (exactly zero for the graph form)."""
    f1 = np.asarray(f1, dtype=float)
    f2 = np.asarray(f2, dtype=float)
    eq = f1 == f2
    qualified = []
    for x in range(form.n):
        nb = np.nonzero(form.weights[x] > 0)[0]
        if eq[x] and eq[nb].all():
            qualified.append(x)
    g1 = form.gamma_vector(f1, f1)
    g2 = form.gamma_vector(f2, f2)
    worst = float(np.abs(g1[qualified] - g2[qualified]).max()) if qualified else 0.0
    return {"qualified": qualified, "worst": worst}


def essential_bound_check(form: DirichletForm, g, g_prime, phi) -> dict:
    """Weighted-energy perturbation bound: the difference of the two
    transferred energies against the two Cauchy-Schwarz products over the
    closed neighborhood of the disagreement set {g != g'}."""
    g = np.asarray(g, dtype=float)
    gp = np.asarray(g_prime, dtype=float)
    phi = np.asarray(phi, dtype=float)
    lhs = abs(transfer_identity_check(form, g, phi)["lhs"] - transfer_identity_check(form, gp, phi)["lhs"])
    diff = g != gp
    E = diff.copy()
    for x in np.nonzero(diff)[0]:
        E |= form.weights[x] > 0
    m = form.vertex_measure

    def part(dens):
        sq = np.sqrt(np.maximum(dens, 0.0))
        a = float((form.gamma_vector(sq, sq) * m)[E].sum())
        b = float((form.gamma_vector(phi, phi) * dens * m)[E].sum())
        return 2.0 * math.sqrt(max(a, 0.0)) * math.sqrt(max(b, 0.0))

    rhs = part(g) + part(gp)
    return {"lhs": lhs, "rhs": rhs, "margin": rhs - lhs}


# ---------------------------------------------------------------------------
# intrinsic metric
# ---------------------------------------------------------------------------

def _pair_distance(form: DirichletForm, x, y, rel_tol, eta0_value=0.5):
    """sup g(x) - g(y) over Gamma(g, g) <= 1, via the Lagrangian dual.

    The dual in the vertex multipliers eta >= 0 is sum(eta) + c^T Q(eta)^+ c / 4
    with Q(eta) the weighted sum of the per-vertex quadratic forms; it is
    minimized with L-BFGS-B and the primal is recovered from the KKT system,
    rescaled to hard feasibility. Returns a certified (value, upper bound).
    """
    from scipy.optimize import minimize

    n = form.n
    m = form.vertex_measure
    W = form.weights
    c = np.zeros(n)
    c[x] = 1.0
    c[y] = -1.0
    ones = np.ones((n, n)) / n

    def q_matrix(eta):
        s = eta / m
        wsum = W * (s[:, None] + s[None, :])
        Q = np.diag(wsum.sum(axis=1)) - wsum
        return 0.5 * Q + ones

    def dual(eta):
        Q = q_matrix(eta)
        try:
            sol = np.linalg.solve(Q, c)
        except np.linalg.LinAlgError:
            return 1e12, np.zeros(n)
        val = eta.sum() + 0.25 * float(c @ sol)
        # d(dual)/d(eta_v) = 1 - (1/4) Gamma(sol, sol)(v)
        grad = 1.0 - 0.25 * form.gamma_vector(sol, sol)
        return val, grad

    def hessian(eta, sol):
        # d2(dual)/deta_u deta_v = (1/2) y_u^T Q^+ y_v with y_v = M_v sol
        s = sol / (2.0 * m)
        Y = np.zeros((n, n))
        for v in range(n):
            yv = np.zeros(n)
            wrow = W[v]
            diff = sol[v] - sol
            yv[v] = (wrow * diff).sum() / m[v]
            yv -= wrow * diff / m[v]
            Y[:, v] = 0.5 * yv
        Z = np.linalg.solve(q_matrix(eta), Y)
        return 0.5 * Y.T @ Z

    eta0 = np.full(n, eta0_value)
    res = minimize(lambda e: dual(e), eta0, jac=True, method="L-BFGS-B",
                   bounds=[(1e-14, None)] * n,
                   options=dict(maxiter=2000, ftol=1e-18, gtol=1e-14))
    eta = np.maximum(res.x, 1e-14)
    # projected Newton polish on the smooth strictly convex dual
    for _ in range(40):
        val, grad = dual(eta)
        sol = np.linalg.solve(q_matrix(eta), c)
        act = (eta > 1e-13) | (grad < 0)
        if not act.any() or np.abs(grad[act]).max() < 1e-15:
            break
        H = hessian(eta, sol)[np.ix_(act, act)]
        H += 1e-14 * np.trace(H) / max(int(act.sum()), 1) * np.eye(int(act.sum()))
        try:
            step = np.linalg.solve(H, -grad[act])
        except np.linalg.LinAlgError:
            break
        t_bt, improved = 1.0, False
        while t_bt > 1e-10:
            cand = eta.copy()
            cand[act] = np.maximum(eta[act] + t_bt * step, 1e-14)
            if dual(cand)[0] < val - 1e-18:
                eta, improved = cand, True
                break
            t_bt /= 2
        if not improved:
            break
    upper = float(dual(eta)[0])
    g = 0.5 * np.linalg.solve(q_matrix(eta), c)
    gam = form.gamma_vector(g, g)
    g = g / math.sqrt(max(float(gam.max()), 1e-300))
    value = float(c @ g)
    return value, upper


def intrinsic_metric(form: DirichletForm, rel_tol=1e-6, eta0_value=0.5):
    """All-pairs intrinsic distance sup{g(x)-g(y) : Gamma(g,g) <= 1}.

    Each pair is certified by weak duality to the requested relative
    tolerance; disconnected pairs are +inf.
    """
    n = form.n
    labels = form.components()
    subforms = {}
    out = np.zeros((n, n))
    for x in range(n):
        for y in range(x + 1, n):
            if labels[x] != labels[y]:
                out[x, y] = out[y, x] = np.inf
                continue
            lab = labels[x]
            if lab not in subforms:
                idx = np.nonzero(labels == lab)[0]
                sub_space = FiniteMMSpace(
                    tuple(form.space.points[i] for i in idx),
                    form.space.metric[np.ix_(idx, idx)],
                    form.vertex_measure[idx], None, None, {},
                )
                subforms[lab] = (DirichletForm(sub_space, form.weights[np.ix_(idx, idx)], form.vertex_measure[idx]),
                                 {int(g): k for k, g in enumerate(idx)})
            sf, remap = subforms[lab]
            val, ub = _pair_distance(sf, remap[x], remap[y], rel_tol, eta0_value)
            if ub - val > rel_tol * (1.0 + abs(val)):
                raise FormError(f"intrinsic metric pair ({x},{y}) gap {ub - val:.2e} above tolerance")
            d = 0.5 * (val + ub)
            out[x, y] = out[y, x] = d
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
    na, nb = form_a.n, form_b.n
    if product.n != na * nb:
        raise FormError("product space size mismatch")
    W = np.zeros((na * nb, na * nb))
    ma, mb = form_a.vertex_measure, form_b.vertex_measure
    Wa, Wb = form_a.weights, form_b.weights
    for i in range(na):
        for j in range(na):
            if Wa[i, j] > 0:
                for y in range(nb):
                    W[i * nb + y, j * nb + y] = Wa[i, j] * mb[y]
    for i in range(nb):
        for j in range(nb):
            if Wb[i, j] > 0:
                for x in range(na):
                    W[x * nb + i, x * nb + j] = Wb[i, j] * ma[x]
    return DirichletForm(product, W, (ma[:, None] * mb[None, :]).ravel())
