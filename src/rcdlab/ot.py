"""Quadratic optimal transport on a finite space: W2, plans, duality.

Plans are exact LP optima; potentials follow the half-squared-distance
convention phi(x) + psi(y) <= d(x,y)^2 / 2, with psi stored as an extended
real vector (-inf off the target support).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measures import ProbMeasure
from .mmspace import FiniteMMSpace, _freeze
from .solvers import exact_ot

MARGINAL_TOL = 1e-10
FEAS_TOL = 1e-9


class TransportError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class TransportPlan:
    """Coupling matrix and its quadratic cost (W2^2 when optimal)."""

    coupling: np.ndarray
    cost: float

    def __post_init__(self):
        object.__setattr__(self, "coupling", _freeze(self.coupling))

    def check_marginals(self, mu: ProbMeasure, nu: ProbMeasure):
        r = np.abs(self.coupling.sum(axis=1) - mu.weights).max()
        c = np.abs(self.coupling.sum(axis=0) - nu.weights).max()
        if max(r, c) > MARGINAL_TOL:
            raise TransportError(f"marginal mismatch {max(r, c):.2e}")

    def support(self, rel_tol=1e-12):
        g = self.coupling
        thr = rel_tol * g.max()
        return np.argwhere(g > thr)


@dataclass(frozen=True, eq=False)
class KantorovichPair:
    """Dual potentials for the half-squared-distance problem.

    psi entries may be -inf (off the target support); dual_value integrates
    phi against mu and psi against nu over its support; gap is primal - dual
    in the same half-d^2 units.
    """

    phi: np.ndarray
    psi: np.ndarray
    dual_value: float
    gap: float

    def __post_init__(self):
        object.__setattr__(self, "phi", _freeze(self.phi))
        object.__setattr__(self, "psi", _freeze(self.psi))

    def shifted(self, a):
        """Gauge shift (phi + a, psi - a); dual value is unchanged."""
        return KantorovichPair(self.phi + a, self.psi - a, self.dual_value, self.gap)


@dataclass(frozen=True, eq=False)
class SlopeDiagnostics:
    """Graph-neighbor one-sided slopes of a function."""

    ascending: np.ndarray
    descending: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "ascending", _freeze(self.ascending))
        object.__setattr__(self, "descending", _freeze(self.descending))

    @property
    def two_sided(self):
        return np.maximum(self.ascending, self.descending)


def _same_space(mu, nu):
    if mu.space.n != nu.space.n or mu.space is not nu.space and not np.array_equal(mu.space.metric, nu.space.metric):
        raise TransportError("measures live on different spaces")


def w2(mu: ProbMeasure, nu: ProbMeasure):
    """W2 distance and an optimal plan (exact LP)."""
    _same_space(mu, nu)
    C = mu.space.metric ** 2
    cost, plan, _, _ = exact_ot(C, mu.weights, nu.weights)
    cost = max(cost, 0.0)
    return float(np.sqrt(cost)), TransportPlan(plan, cost)


def w2_distance(mu: ProbMeasure, nu: ProbMeasure) -> float:
    return w2(mu, nu)[0]


def c_transform(space: FiniteMMSpace, psi, support=None):
    """phi(x) = min over the support of d(x,y)^2/2 - psi(y).

    Ties resolve to the lowest index through the stable argmin; -inf entries
    of psi never attain the minimum.
    """
    psi = np.asarray(psi, dtype=float)
    if support is None:
        support = np.nonzero(np.isfinite(psi))[0]
    support = np.asarray(support, dtype=int)
    if support.size == 0:
        raise TransportError("empty support in c-transform")
    vals = 0.5 * space.metric[:, support] ** 2 - psi[support][None, :]
    return vals.min(axis=1)


def kantorovich_potentials(mu: ProbMeasure, nu: ProbMeasure, gauge=None) -> KantorovichPair:
    """Optimal potentials with psi = -inf off the support of nu and phi equal
    to the c-transform of psi; with a gauge point, phi(gauge) = 0."""
    _same_space(mu, nu)
    space = mu.space
    C = space.metric ** 2
    cost, _, u, v = exact_ot(C, mu.weights, nu.weights)
    sup = nu.support()
    psi = np.full(space.n, -np.inf)
    psi[sup] = 0.5 * v[sup]
    phi = c_transform(space, psi, sup)
    # one more half-round tightens psi against phi without losing optimality
    psi_t = np.full(space.n, -np.inf)
    vals = 0.5 * C[:, sup] - phi[:, None]
    psi_t[sup] = vals.min(axis=0)
    psi = psi_t
    phi = c_transform(space, psi, sup)
    if gauge is not None:
        shift = phi[int(gauge)]
        phi = phi - shift
        psi = psi + shift
    dual = float(phi @ mu.weights + psi[sup] @ nu.weights[sup])
    gap = 0.5 * cost - dual
    return KantorovichPair(phi, psi, dual, float(gap))


def slope_diagnostics(space: FiniteMMSpace, f) -> SlopeDiagnostics:
    """One-sided difference-quotient slopes over graph neighbors (all other
    points when the space has no graph carrier)."""
    f = np.asarray(f, dtype=float)
    n = space.n
    asc = np.zeros(n)
    desc = np.zeros(n)
    if space.graph is not None:
        nbrs = [[] for _ in range(n)]
        for i, j, _ in space.graph:
            nbrs[i].append(j)
            nbrs[j].append(i)
    else:
        nbrs = [[j for j in range(n) if j != i] for i in range(n)]
    d = space.metric
    for x in range(n):
        for y in nbrs[x]:
            q = (f[y] - f[x]) / d[x, y]
            asc[x] = max(asc[x], q)
            desc[x] = max(desc[x], -q)
    return SlopeDiagnostics(asc, desc)


def check_slackness(space: FiniteMMSpace, pair: KantorovichPair, plan: TransportPlan) -> dict:
    """Complementary-slackness residual on the plan support plus the slope
    bound ascending_slope(phi)(x) <= d(x,y) along supported pairs."""
    C2 = 0.5 * space.metric ** 2
    supp = plan.support()
    resid = 0.0
    for x, y in supp:
        s = pair.phi[x] + pair.psi[y]
        resid = max(resid, abs(C2[x, y] - s) if np.isfinite(s) else np.inf)
    slopes = slope_diagnostics(space, pair.phi)
    slope_viol = 0.0
    for x, y in supp:
        slope_viol = max(slope_viol, slopes.ascending[x] - space.metric[x, y])
    feas = -np.inf
    fin = np.isfinite(pair.psi)
    if fin.any():
        feas = float((pair.phi[:, None] + pair.psi[None, fin] - C2[:, fin]).max())
    return {
        "support_residual": float(resid),
        "slope_violation": float(slope_viol),
        "feasibility_violation": feas,
    }


def potential_stability_probe(space: FiniteMMSpace, density_seq, density_lim, sigma: ProbMeasure, gauge=None) -> dict:
    """Re-solve the transport problem along a converging density sequence and
    report value gaps and pointwise gaps of gauge-normalized potentials."""
    from .measures import measure_from_density

    if gauge is None:
        gauge = int(sigma.support()[0])
    lim = measure_from_density(space, density_lim)
    w_lim, _ = w2(lim, sigma)
    pair_lim = kantorovich_potentials(lim, sigma, gauge=gauge)
    value_gaps = []
    potential_gaps = []
    for f in density_seq:
        mu = measure_from_density(space, f)
        w_n, _ = w2(mu, sigma)
        pair_n = kantorovich_potentials(mu, sigma, gauge=gauge)
        value_gaps.append(abs(w_n**2 - w_lim**2))
        potential_gaps.append(float(np.abs(pair_n.phi - pair_lim.phi).max()))
    peak = max(value_gaps) if value_gaps else 0.0
    converged = len(value_gaps) == 0 or value_gaps[-1] <= max(1e-9, 0.25 * peak)
    return {
        "value_gaps": value_gaps,
        "potential_gaps": potential_gaps,
        "value_converged": bool(converged),
    }
