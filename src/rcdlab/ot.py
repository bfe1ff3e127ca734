"""Quadratic optimal transport on a finite space: W2, plans, duality.

Plans are exact LP optima; potentials follow the half-squared-distance
convention phi(x) + psi(y) <= d(x,y)^2 / 2, with psi stored as an extended
real vector (-inf off the target support).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .measures import ProbMeasure
from .mmspace import FiniteMMSpace, _freeze, line_of
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


def _same_space(mu, nu):
    if mu.space.n != nu.space.n or mu.space is not nu.space and not np.array_equal(mu.space.metric, nu.space.metric):
        raise TransportError("measures live on different spaces")


def w2(mu: ProbMeasure, nu: ProbMeasure):
    """W2 distance and an optimal plan (exact LP)."""
    _same_space(mu, nu)
    C = mu.space.metric ** 2
    cost, plan, _, _ = exact_ot(C, mu.weights, nu.weights, line=line_of(mu.space))
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
    cost, _, _, v = exact_ot(C, mu.weights, nu.weights, line=line_of(space))
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


_ARCS = weakref.WeakKeyDictionary()


def _arcs(space: FiniteMMSpace):
    """Both directions (xs, ys) of every graph edge (every ordered pair of
    distinct points when the space has no graph carrier) and their lengths
    d(xs, ys), built once per space."""
    got = _ARCS.get(space)
    if got is None:
        if space.graph is not None:
            i, j = np.array([e[:2] for e in space.graph], dtype=int).reshape(-1, 2).T
            xs, ys = np.concatenate([i, j]), np.concatenate([j, i])
        else:
            xs, ys = np.nonzero(~np.eye(space.n, dtype=bool))
        got = (xs, ys, space.metric[xs, ys])
        _ARCS[space] = got
    return got


def _ascending_slopes(space: FiniteMMSpace, f):
    """Ascending difference-quotient slopes max(0, max_y (f(y) - f(x)) / d(x, y))
    over graph neighbors y of x (all other points when the space has no graph
    carrier)."""
    f = np.asarray(f, dtype=float)
    xs, ys, d = _arcs(space)
    asc = np.zeros(space.n)
    # fmax skips a NaN quotient; + 0.0 turns a -0.0 won in a tie with 0 into 0.0
    np.fmax.at(asc, xs, (f[ys] - f[xs]) / d)
    return asc + 0.0


def check_slackness(space: FiniteMMSpace, pair: KantorovichPair, plan: TransportPlan) -> dict:
    """Complementary-slackness residual on the plan support plus the slope
    bound ascending_slope(phi)(x) <= d(x,y) along supported pairs."""
    C2 = 0.5 * space.metric ** 2
    xs, ys = plan.support().T
    s = pair.phi[xs] + pair.psi[ys]
    resid = np.max(np.where(np.isfinite(s), np.abs(C2[xs, ys] - s), np.inf), initial=0.0)
    slope_viol = np.max(_ascending_slopes(space, pair.phi)[xs] - space.metric[xs, ys], initial=0.0)
    feas = -np.inf
    fin = np.isfinite(pair.psi)
    if fin.any():
        feas = float((pair.phi[:, None] + pair.psi[None, fin] - C2[:, fin]).max())
    return {
        "support_residual": float(resid),
        "slope_violation": float(slope_viol),
        "feasibility_violation": feas,
    }
