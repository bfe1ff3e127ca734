"""Finite metric measure spaces: construction, validation, products, JSON IO.

Every other module operates on the `FiniteMMSpace` objects built here. Spaces
are immutable after construction; all builders return validated instances.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

METRIC_TOL = 1e-12


class SpaceError(ValueError):
    """Structural problem that prevents building a space or a report."""


def _freeze(a):
    a = np.asarray(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class FiniteMMSpace:
    """Finite point set with a metric matrix and a positive reference measure.

    graph, when present, is a list of (i, j, length) edges whose shortest-path
    closure reproduces the metric (except for l2-product spaces, where edge
    lengths agree with the metric but paths overshoot it).
    base_point indexes the point used for growth/tilting computations.
    """

    points: tuple
    metric: np.ndarray
    ref_measure: np.ndarray
    graph: tuple | None = None
    base_point: int | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "metric", _freeze(self.metric))
        object.__setattr__(self, "ref_measure", _freeze(self.ref_measure))
        n = len(self.points)
        if self.metric.shape != (n, n):
            raise SpaceError(f"metric shape {self.metric.shape} != ({n},{n})")
        if self.ref_measure.shape != (n,):
            raise SpaceError(f"measure length {self.ref_measure.shape} != {n}")
        if self.graph is not None:
            object.__setattr__(self, "graph", tuple((int(i), int(j), float(w)) for i, j, w in self.graph))

    @property
    def n(self):
        return len(self.points)


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of validate_space: passed iff violations is empty."""

    passed: bool
    violations: tuple

    def __post_init__(self):
        if self.passed != (len(self.violations) == 0):
            raise SpaceError("report consistency: passed must match empty violations")


def graph_shortest_paths(n, edges):
    """Dense all-pairs shortest-path matrix of an undirected edge list with
    positive lengths. Of parallel edges, in either direction, the shortest
    counts.

    Dijkstra's algorithm from every source at once. In each round every row
    closes its nearest open vertex u and relaxes through u's edges,
    d[row] = min(d[row], d[row, u] + lengths[u]), the sum scipy's csgraph
    Dijkstra forms, so the distances are its bits. A closed vertex keeps its
    distance, which is no more than d[row, u]; so a row with no reachable
    open vertex left may pick a closed one, and the last open vertex of a
    row needs no round.
    """
    e = np.asarray(edges, dtype=float).reshape(-1, 3)
    i, j = e[:, 0].astype(int), e[:, 1].astype(int)
    lengths = np.full((n, n), np.inf)
    np.minimum.at(lengths, (np.concatenate([i, j]), np.concatenate([j, i])), np.tile(e[:, 2], 2))
    d = np.full((n, n), np.inf)
    np.fill_diagonal(d, 0.0)
    closed = np.zeros((n, n))  # inf where the row's vertex is closed
    key = np.empty((n, n))
    rows = np.arange(n)
    for _ in range(n - 1):
        u = np.add(d, closed, out=key).argmin(axis=1)
        closed[rows, u] = np.inf
        through_u = lengths.take(u, axis=0)
        through_u += d[rows, u][:, None]
        np.minimum(d, through_u, out=d)
    return d


@np.errstate(over="ignore", invalid="ignore")  # non-finite data is reported, not warned about
def validate_space(space: FiniteMMSpace) -> ValidationReport:
    """Check every space invariant, returning a witnessed violation list.

    Witnesses are index tuples; magnitudes quantify the worst violation of the
    named check so reports stay actionable on large spaces. A non-finite
    entry of the metric, of its square (the transport costs) or of the
    measure is witnessed by its first index, with that value as magnitude.
    """
    d = space.metric
    n = space.n
    violations = []

    for name, values in (("finite_metric", d * d), ("finite_measure", space.ref_measure)):
        if not np.isfinite(values).all():
            at = np.argwhere(~np.isfinite(values))[0]
            violations.append((name, tuple(int(i) for i in at), float(values[tuple(at)])))
    asym = np.abs(d - d.T)
    if asym.max() > METRIC_TOL:
        i, j = np.unravel_index(np.argmax(asym), asym.shape)
        violations.append(("symmetry", (int(i), int(j)), float(asym.max())))
    diag = np.abs(np.diag(d))
    if diag.max() > 0:
        violations.append(("zero_diagonal", (int(np.argmax(diag)),), float(diag.max())))
    off = d + np.diag(np.full(n, np.inf))
    if n > 1 and off.min() <= 0:
        i, j = np.unravel_index(np.argmin(off), off.shape)
        violations.append(("positivity", (int(i), int(j)), float(-off.min())))

    # triangle inequality, exhaustive (vectorized over the middle point)
    worst = -np.inf
    witness = None
    for k in range(n):
        slack = d - (d[:, k][:, None] + d[k, :][None, :])
        m = slack.max()
        if m > worst:
            worst = m
            i, j = np.unravel_index(np.argmax(slack), slack.shape)
            witness = (int(i), int(k), int(j))
    if worst > METRIC_TOL:
        violations.append(("triangle", witness, float(worst)))

    if space.ref_measure.min() <= 0:
        violations.append(("positive_measure", (int(np.argmin(space.ref_measure)),), float(-space.ref_measure.min())))

    if space.graph is not None:
        bad = [(i, j, w) for i, j, w in space.graph if not w > 0]
        violations.extend(("edge_weight", (i, j), float(-w)) for i, j, w in bad)
        gap_edge = max((abs(d[i, j] - w) for i, j, w in space.graph), default=0.0)
        if gap_edge > METRIC_TOL:
            violations.append(("edge_length_vs_metric", None, float(gap_edge)))
        # with a non-positive edge, path distances mean nothing (an undirected
        # negative edge is a negative cycle); sp = d skips the checks
        sp = d if bad else graph_shortest_paths(n, space.graph)
        if space.meta.get("metric_kind") == "l2_product":
            # product carrier: graph paths may only overshoot the l2 metric
            short = (d - sp).max()
            if short > METRIC_TOL:
                i, j = np.unravel_index(np.argmax(d - sp), d.shape)
                violations.append(("graph_shorter_than_metric", (int(i), int(j)), float(short)))
        else:
            gap = np.abs(sp - d).max()
            if gap > METRIC_TOL:
                i, j = np.unravel_index(np.argmax(np.abs(sp - d)), d.shape)
                violations.append(("graph_metric_consistency", (int(i), int(j)), float(gap)))

    if space.base_point is not None and not (0 <= space.base_point < n):
        violations.append(("base_point_range", (space.base_point,), float("nan")))

    return ValidationReport(passed=not violations, violations=tuple(violations))


def _measure_profile(profile, V, n):
    """Unnormalized vertex masses for a measure profile spec."""
    if profile in (None, "uniform"):
        return np.ones(n), None
    if isinstance(profile, dict) and "gaussian" in profile:
        c = float(profile["gaussian"])
        if c <= 0:
            raise SpaceError("gaussian profile needs c > 0")
        return np.exp(-c * V**2), c
    if isinstance(profile, dict) and "custom" in profile:
        w = np.asarray(profile["custom"], dtype=float)
        if w.min() <= 0:
            raise SpaceError("custom profile must be positive")
        return w, None
    raise SpaceError(f"unknown measure profile {profile!r}")


def make_model_space(kind, n, params=None) -> FiniteMMSpace:
    """Build one of the model spaces: segment, cycle, grid, two_point, random_metric.

    Segments and cycles are scaled to total length 1. The measure profile is
    normalized to a probability measure; a gaussian profile records its decay
    rate in meta. random_metric draws edge weights and closes under shortest
    paths (params: seed).
    """
    params = dict(params or {})
    profile = params.get("measure", "uniform")
    if n < 1:
        raise SpaceError("n >= 1 required")

    if kind == "segment":
        h = 1.0 / (n - 1) if n > 1 else 0.0
        pos = np.arange(n) * h
        d = np.abs(pos[:, None] - pos[None, :])
        edges = [(i, i + 1, h) for i in range(n - 1)]
        x0 = n // 2
        meta = {"positions": tuple(pos.tolist()), "kind": "segment"}
    elif kind == "cycle":
        if n < 3:
            raise SpaceError("cycle needs n >= 3")
        h = 1.0 / n
        pos = np.arange(n) * h
        arc = np.abs(pos[:, None] - pos[None, :])
        d = np.minimum(arc, 1.0 - arc)
        edges = [(i, (i + 1) % n, h) for i in range(n)]
        x0 = 0
        meta = {"positions": tuple(pos.tolist()), "kind": "cycle"}
    elif kind == "grid":
        side, n = n, n * n
        h = 1.0 / (side - 1) if side > 1 else 0.0
        pts = [(i, j) for i in range(side) for j in range(side)]
        xy = np.array(pts, dtype=float) * h
        d = np.sqrt(((xy[:, None, :] - xy[None, :, :]) ** 2).sum(-1))
        edges = []
        for a, (i, j) in enumerate(pts):
            if i + 1 < side:
                edges.append((a, a + side, h))
            if j + 1 < side:
                edges.append((a, a + 1, h))
        x0 = n // 2
        meta = {"positions": tuple(map(tuple, xy.tolist())), "kind": "grid", "metric_kind": "l2_product"}
    elif kind == "two_point":
        dist = float(params.get("distance", 1.0))
        d = np.array([[0.0, dist], [dist, 0.0]])
        edges = [(0, 1, dist)]
        x0 = 0
        meta = {"kind": "two_point"}
        if n != 2:
            raise SpaceError("two_point has n = 2")
    elif kind == "random_metric":
        rng = np.random.default_rng(params.get("seed", 0))
        p_edge = float(params.get("edge_prob", 0.4))
        w = rng.uniform(0.2, 1.0, size=(n, n))
        keep = rng.uniform(size=(n, n)) < p_edge
        edges = []
        for i in range(n):
            for j in range(i + 1, n):
                if keep[i, j] or j == i + 1:  # chain guarantees connectivity
                    edges.append((i, j, float(w[i, j])))
        d = graph_shortest_paths(n, edges)
        # closure can shorten an edge; snap lengths to the metric they induce
        edges = [(i, j, float(d[i, j])) for i, j, _ in edges]
        x0 = 0
        meta = {"kind": "random_metric"}
    else:
        raise SpaceError(f"unknown kind {kind!r}")

    m_raw, c = _measure_profile(profile, d[:, x0], n)
    m = m_raw / m_raw.sum()
    if c is not None:
        meta["gaussian_c"] = c
    return FiniteMMSpace(tuple(range(n)), d, m, tuple(edges), x0, meta)


def line_of(space: FiniteMMSpace):
    """(positions, period) of a segment (period None) or a cycle (period 1.0)
    model space, its points' coordinates in index order; None for every other
    space, and for a space loaded from JSON, which keeps no positions."""
    kind = space.meta.get("kind")
    if kind not in ("segment", "cycle") or "positions" not in space.meta:
        return None
    return _freeze(space.meta["positions"]), (1.0 if kind == "cycle" else None)


def product_space(a: FiniteMMSpace, b: FiniteMMSpace) -> FiniteMMSpace:
    """Product with the l2 metric, product measure and Cartesian product graph."""
    for s in (a, b):
        rep = validate_space(s)
        if not rep.passed:
            raise SpaceError(f"invalid factor: {rep.violations}")
    na, nb = a.n, b.n
    points = tuple((pa, pb) for pa in a.points for pb in b.points)
    d = np.sqrt((a.metric[:, None, :, None] ** 2 + b.metric[None, :, None, :] ** 2)).reshape(na * nb, na * nb)
    m = (a.ref_measure[:, None] * b.ref_measure[None, :]).ravel()
    edges = None
    if a.graph is not None and b.graph is not None:
        edges = []
        for i, j, w in a.graph:
            for y in range(nb):
                edges.append((i * nb + y, j * nb + y, w))
        for i, j, w in b.graph:
            for x in range(na):
                edges.append((x * nb + i, x * nb + j, w))
        edges = tuple(edges)
    base = None
    if a.base_point is not None and b.base_point is not None:
        base = a.base_point * nb + b.base_point
    meta = {"metric_kind": "l2_product", "factors": (a.n, b.n)}
    return FiniteMMSpace(points, d, m, edges, base, meta)


def _point(space: FiniteMMSpace, i, error=SpaceError) -> int:
    """int(i) for a point index of space; anything else is an error, a bool
    or a number that is not integral among them."""
    if (isinstance(i, (bool, np.bool_)) or not isinstance(i, (int, np.integer, float))
            or not (0 <= i < space.n and i == int(i))):
        raise error(f"point index {i!r} is not an integer in 0..{space.n - 1}")
    return int(i)


def space_to_json(space: FiniteMMSpace) -> dict:
    out = {
        "points": list(space.points),
        "metric": space.metric.tolist(),
        "measure": space.ref_measure.tolist(),
    }
    if space.graph is not None:
        out["edges"] = [[i, j, w] for i, j, w in space.graph]
    if space.base_point is not None:
        out["base_point"] = space.base_point
    if space.meta:
        out["meta"] = {k: v for k, v in space.meta.items() if k != "positions"}
    return out


def space_from_json(obj: dict) -> FiniteMMSpace:
    """Build and validate a space from its JSON form; invalid data raises."""
    pts = obj["points"]
    space = FiniteMMSpace(
        tuple(tuple(p) if isinstance(p, list) else p for p in pts),
        np.array(obj["metric"], dtype=float),
        np.array(obj["measure"], dtype=float),
        tuple((int(i), int(j), float(w)) for i, j, w in obj["edges"]) if obj.get("edges") else None,
        obj.get("base_point"),
        dict(obj.get("meta", {})),
    )
    rep = validate_space(space)
    if not rep.passed:
        raise SpaceError(f"space file fails validation: {rep.violations}")
    return space


def load_space(path) -> FiniteMMSpace:
    with open(path) as fh:
        return space_from_json(json.load(fh))


def save_space(space: FiniteMMSpace, path):
    with open(path, "w") as fh:
        json.dump(space_to_json(space), fh)
