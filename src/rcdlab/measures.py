"""Probability measures on a finite space and entropy-type functionals.

Entropies are plain finite sums here, but signatures keep the extended-real
convention (float('inf') is a legal return) so downstream checks can treat
the domain bookkeeping uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .mmspace import FiniteMMSpace, _freeze, _point

MASS_TOL = 1e-12


class MeasureError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class ProbMeasure:
    """Finite nonnegative weights over the points of a space, summing to one.

    meta holds the profile tag gaussian_measure sets, gaussian: {"c2": decay
    rate, "x0": index}, which the geodesic builder checks against the weights.
    """

    space: FiniteMMSpace
    weights: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "weights", _freeze(self.weights))
        w = self.weights
        if w.shape != (self.space.n,):
            raise MeasureError(f"weights length {w.shape} != {self.space.n}")
        if not np.isfinite(w).all():
            raise MeasureError("non-finite weight")
        if w.min() < 0:
            raise MeasureError(f"negative weight {w.min()}")
        if abs(w.sum() - 1.0) > MASS_TOL:
            raise MeasureError(f"total mass {w.sum()} != 1")

    def density(self):
        """Density against the reference measure (defined everywhere, m > 0)."""
        return self.weights / self.space.ref_measure

    def support(self):
        return np.nonzero(self.weights > 0)[0]

    def second_moment(self, x0=None):
        i = self.space.base_point if x0 is None else _point(self.space, x0, MeasureError)
        return float(np.sum(self.weights * self.space.metric[:, i] ** 2))


@dataclass(frozen=True, eq=False)
class TiltedReference:
    """Gaussian-tilted reference measure and its normalizing constant."""

    tilted_weights: np.ndarray
    z: float
    c: float
    x0: int

    def __post_init__(self):
        object.__setattr__(self, "tilted_weights", _freeze(self.tilted_weights))
        if abs(self.tilted_weights.sum() - 1.0) > MASS_TOL:
            raise MeasureError("tilted weights must sum to 1")


def relative_entropy(mu, ref) -> float:
    """Ent_ref(mu) = sum w log(w / ref) over {w / ref > 0}, so 0 log 0 = 0.

    mu may be a ProbMeasure or an array of weights w; ref is a positive array
    that broadcasts against w, such as the reference measure m against a
    coupling, whose entropy is then KL(coupling | 1 x m). This is the one
    evaluation of the entropy in the package.
    """
    w = mu.weights if isinstance(mu, ProbMeasure) else np.asarray(mu, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if ref.min() <= 0:
        raise MeasureError("reference must be entrywise positive")
    w, ref = np.broadcast_arrays(w, ref)
    rho = w / ref
    pos = rho > 0
    return float(np.sum(w[pos] * np.log(rho[pos])))


def tilt_reference(space: FiniteMMSpace, c, x0=None) -> TiltedReference:
    """Tilted reference exp(-c d(.,x0)^2) m / z; c = 0 reduces to m/m(X).

    z = sum_x exp(-c d(x,x0)^2) m(x) is the growth-condition mass. A c that
    is NaN or +inf raises MeasureError: NaN weights would pass the mass check,
    and c = inf makes -inf * 0 at x0."""
    if not 0 <= c < np.inf:
        raise MeasureError(f"a finite c >= 0 required, got {c!r}")
    i = space.base_point if x0 is None else _point(space, x0, MeasureError)
    V = space.metric[:, i]
    raw = np.exp(-c * V**2) * space.ref_measure
    z = float(raw.sum())
    return TiltedReference(raw / z, z, float(c), i)


def tilt_identity_gap(mu: ProbMeasure, tilt: TiltedReference) -> float:
    """|Ent_m(mu) - (Ent_tilmu - c * second_moment - log z)|, evaluated independently."""
    lhs = relative_entropy(mu, mu.space.ref_measure)
    rhs = (
        relative_entropy(mu, tilt.tilted_weights)
        - tilt.c * mu.second_moment(tilt.x0)
        - np.log(tilt.z)
    )
    return abs(lhs - rhs)


def fisher_information(mu: ProbMeasure, form) -> float:
    """sum over {rho > 0} of Gamma(rho, rho)/rho dm for the form's carre du champ."""
    if form.space is not mu.space and form.space.n != mu.space.n:
        raise MeasureError("form and measure live on different spaces")
    rho = mu.density()
    g = form.gamma_vector(rho, rho)
    m = mu.space.ref_measure
    pos = rho > 0
    return float(np.sum(g[pos] / rho[pos] * m[pos]))


# measure builders ----------------------------------------------------------

def uniform_measure(space: FiniteMMSpace) -> ProbMeasure:
    m = space.ref_measure
    return ProbMeasure(space, m / m.sum())


def dirac(space: FiniteMMSpace, i) -> ProbMeasure:
    i = _point(space, i, MeasureError)
    w = np.zeros(space.n)
    w[i] = 1.0
    return ProbMeasure(space, w)


def gaussian_measure(space: FiniteMMSpace, c2, x0=None) -> ProbMeasure:
    """Measure with density proportional to exp(-c2 d(.,x0)^2); records the
    decay rate c2 and centre x0 the good-geodesic builder needs."""
    if c2 <= 0:
        raise MeasureError("c2 > 0 required")
    tilt = tilt_reference(space, c2, x0)
    return ProbMeasure(space, tilt.tilted_weights, meta={"gaussian": {"c2": float(c2), "x0": tilt.x0}})


def bump_measure(space: FiniteMMSpace, center, radius) -> ProbMeasure:
    """Uniform-density measure on the metric ball around center."""
    i = _point(space, center, MeasureError)
    sel = space.metric[:, i] <= radius + 1e-15
    w = np.where(sel, space.ref_measure, 0.0)
    if w.sum() <= 0:
        raise MeasureError("empty bump support")
    w = w / w.sum()
    return ProbMeasure(space, w)


def measure_from_density(space: FiniteMMSpace, rho) -> ProbMeasure:
    w = np.asarray(rho, dtype=float) * space.ref_measure
    if w.min() < 0:
        raise MeasureError("negative density")
    return ProbMeasure(space, w / w.sum())
