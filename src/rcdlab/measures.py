"""Probability measures on a finite space and entropy-type functionals.

Entropies are plain finite sums here, but signatures keep the extended-real
convention (float('inf') is a legal return) so downstream checks can treat
the domain bookkeeping uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .mmspace import FiniteMMSpace, _freeze

MASS_TOL = 1e-12


class MeasureError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class ProbMeasure:
    """Finite nonnegative weights over the points of a space, summing to one.

    meta can carry profile tags used by the geodesic builder:
      gaussian: {"c1": sup-density, "c2": decay rate, "x0": index}
      bounded_support: {"D": radius around the profile base point}
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
        if w.min() < -MASS_TOL:
            raise MeasureError(f"negative weight {w.min()}")
        if abs(w.sum() - 1.0) > MASS_TOL:
            raise MeasureError(f"total mass {w.sum()} != 1")

    def density(self):
        """Density against the reference measure (defined everywhere, m > 0)."""
        return self.weights / self.space.ref_measure

    def support(self):
        return np.nonzero(self.weights > 0)[0]

    def second_moment(self, x0=None):
        i = self.space.base_point if x0 is None else int(x0)
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
    """sum rho log rho dref with rho = mu/ref and 0 log 0 = 0.

    mu may be a ProbMeasure or a weight vector; ref is a positive vector.
    """
    w = mu.weights if isinstance(mu, ProbMeasure) else np.asarray(mu, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if ref.min() <= 0:
        raise MeasureError("reference must be entrywise positive")
    rho = w / ref
    pos = rho > 0
    return float(np.sum(rho[pos] * np.log(rho[pos]) * ref[pos]))


def tilt_reference(space: FiniteMMSpace, c, x0=None) -> TiltedReference:
    """Tilted reference exp(-c d(.,x0)^2) m / z; c = 0 reduces to m/m(X)."""
    if c < 0:
        raise MeasureError("c >= 0 required")
    i = space.base_point if x0 is None else int(x0)
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


def excess_mass(mu: ProbMeasure, threshold) -> float:
    """Mass of density above the threshold; the singular part is zero here
    because the reference measure has full support."""
    if threshold < 0:
        raise MeasureError("threshold >= 0 required")
    rho = mu.density()
    return float(np.sum(np.clip(rho - threshold, 0.0, None) * mu.space.ref_measure))


def fisher_information(mu: ProbMeasure, form) -> float:
    """sum over {rho > 0} of Gamma(rho, rho)/rho dm for the form's carre du champ."""
    if form.space is not mu.space and form.space.n != mu.space.n:
        raise MeasureError("form and measure live on different spaces")
    rho = mu.density()
    g = form.gamma_vector(rho, rho)
    m = mu.space.ref_measure
    pos = rho > 0
    return float(np.sum(g[pos] / rho[pos] * m[pos]))


def entropy_monotone_limit_check(f_seq, f, ref) -> dict:
    """Entropy gaps |Ent(f_k) - Ent(f)| for a monotone sequence of densities.

    Works on raw density vectors against ref (finite positive measures, not
    necessarily probabilities). Non-monotone input is flagged, not rejected.
    """
    ref = np.asarray(ref, dtype=float)
    f = np.asarray(f, dtype=float)
    seq = [np.asarray(g, dtype=float) for g in f_seq]
    monotone = True
    for a, b in zip(seq, seq[1:]):
        if not (np.all(a <= b + 1e-15) or np.all(a >= b - 1e-15)):
            monotone = False
    target = relative_entropy(f * ref, ref)
    gaps = [abs(relative_entropy(g * ref, ref) - target) for g in seq]
    peak = max(gaps) if gaps else 0.0
    converged = len(gaps) == 0 or gaps[-1] <= max(1e-10, abs(target) * 1e-10, 0.2 * peak)
    return {
        "gaps": gaps,
        "monotone": monotone,
        "converged": bool(converged),
        "limit_entropy": target,
    }


# measure builders ----------------------------------------------------------

def uniform_measure(space: FiniteMMSpace) -> ProbMeasure:
    m = space.ref_measure
    return ProbMeasure(space, m / m.sum())


def _point(space: FiniteMMSpace, i) -> int:
    """int(i) for a point index of space; anything else is a MeasureError."""
    if not 0 <= int(i) < space.n:
        raise MeasureError(f"point index {i} outside 0..{space.n - 1}")
    return int(i)


def dirac(space: FiniteMMSpace, i) -> ProbMeasure:
    i = _point(space, i)
    w = np.zeros(space.n)
    w[i] = 1.0
    return ProbMeasure(space, w, meta={"bounded_support": {"center": i}})


def gaussian_measure(space: FiniteMMSpace, c2, x0=None) -> ProbMeasure:
    """Measure with density proportional to exp(-c2 d(.,x0)^2); records the
    sup-density c1 and decay rate c2 needed by the good-geodesic builder."""
    if c2 <= 0:
        raise MeasureError("c2 > 0 required")
    i = space.base_point if x0 is None else _point(space, x0)
    V = space.metric[:, i]
    w = np.exp(-c2 * V**2) * space.ref_measure
    w = w / w.sum()
    rho = w / space.ref_measure
    return ProbMeasure(space, w, meta={"gaussian": {"c1": float(rho.max()), "c2": float(c2), "x0": i}})


def bump_measure(space: FiniteMMSpace, center, radius) -> ProbMeasure:
    """Uniform-density measure on the metric ball around center."""
    i = _point(space, center)
    sel = space.metric[:, i] <= radius + 1e-15
    w = np.where(sel, space.ref_measure, 0.0)
    if w.sum() <= 0:
        raise MeasureError("empty bump support")
    w = w / w.sum()
    return ProbMeasure(space, w, meta={"bounded_support": {"center": i, "radius": float(radius)}})


def measure_from_density(space: FiniteMMSpace, rho, meta=None) -> ProbMeasure:
    w = np.asarray(rho, dtype=float) * space.ref_measure
    if w.min() < 0:
        raise MeasureError("negative density")
    return ProbMeasure(space, w / w.sum(), meta=dict(meta or {}))


def support_radius(mu: ProbMeasure, x0) -> float:
    """Largest distance from x0 to a support point of mu."""
    sup = mu.support()
    return float(mu.space.metric[sup, int(x0)].max())
