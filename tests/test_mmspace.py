import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import shortest_path

from rcdlab.mmspace import (
    FiniteMMSpace,
    SpaceError,
    graph_shortest_paths,
    line_of,
    make_model_space,
    product_space,
    space_from_json,
    space_to_json,
    validate_space,
)




def floyd_warshall(n, edges):
    # independent shortest-path oracle
    d = np.full((n, n), np.inf)
    np.fill_diagonal(d, 0.0)
    for i, j, w in edges:
        d[i, j] = min(d[i, j], w)
        d[j, i] = min(d[j, i], w)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if d[i, k] + d[k, j] < d[i, j]:
                    d[i, j] = d[i, k] + d[k, j]
    return d


def test_one_point_space_passes():
    s = FiniteMMSpace(("a",), np.zeros((1, 1)), np.array([1.0]))
    assert validate_space(s).passed


def test_triangle_violation_witnessed():
    d = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
    s = FiniteMMSpace(("a", "b", "c"), d, np.ones(3))
    rep = validate_space(s)
    assert not rep.passed
    tri = [v for v in rep.violations if v[0] == "triangle"]
    assert tri and tri[0][2] == pytest.approx(3.0)


def test_random_graph_space_matches_floyd_warshall():
    s = make_model_space("random_metric", 20, {"seed": 3})
    assert validate_space(s).passed
    oracle = floyd_warshall(s.n, s.graph)
    assert np.abs(oracle - s.metric).max() < 1e-12


def test_shortest_path_closure_idempotent():
    s = make_model_space("random_metric", 15, {"seed": 7})
    edges = [(i, j, s.metric[i, j]) for i, j, _ in s.graph]
    again = graph_shortest_paths(s.n, edges)
    assert np.abs(again - s.metric).max() < 1e-12


def test_parallel_edges_count_once_at_their_shortest():
    # the sparse matrix adds up duplicate entries, but a path takes one edge
    assert np.array_equal(graph_shortest_paths(2, [(0, 1, 1.0), (1, 0, 1.0)]), [[0.0, 1.0], [1.0, 0.0]])
    edges = [(0, 1, 1.0), (1, 2, 1.0), (1, 0, 0.5), (2, 0, 3.0), (0, 2, 2.0), (2, 1, 4.0)]
    assert np.array_equal(graph_shortest_paths(3, edges), floyd_warshall(3, edges))
    # a space file that lists each edge in both directions is valid
    obj = space_to_json(make_model_space("segment", 5))
    obj["edges"] = [list(e) for e in obj["edges"]] + [[j, i, w] for i, j, w in obj["edges"]]
    assert validate_space(space_from_json(obj)).passed


def csgraph_distances(n, edges):
    """scipy's Dijkstra on the edge list, each pair given its parallel edges'
    minimum (the sparse matrix would add them up)."""
    lengths = {}
    for i, j, w in edges:
        key = (min(i, j), max(i, j))
        lengths[key] = min(lengths.get(key, np.inf), w)
    rows, cols = [i for i, _ in lengths], [j for _, j in lengths]
    g = coo_matrix((list(lengths.values()), (rows, cols)), shape=(n, n))
    return shortest_path(g, method="D", directed=False)


@st.composite
def edge_lists(draw):
    """(n, edges) with 1 to 9 vertices and up to 3n edges. Pairs repeat in
    either direction and lengths repeat, so parallel edges, ties, isolated
    vertices, several components and empty lists all occur."""
    n = draw(st.integers(1, 9))
    vertex = st.integers(0, n - 1)
    length = st.one_of(st.sampled_from((0.125, 0.5, 1.0, 0.1, 0.2, 0.3)), st.floats(1e-3, 10.0))
    return n, draw(st.lists(st.tuples(vertex, vertex, length), max_size=3 * n))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(edge_lists())
def test_shortest_paths_are_scipys_bits(case):
    n, edges = case
    assert graph_shortest_paths(n, edges).tobytes() == csgraph_distances(n, edges).tobytes()


@pytest.mark.parametrize("kind, n, params", [("cycle", 64, {}), ("segment", 65, {}), ("grid", 16, {}),
                                             ("random_metric", 128, {"seed": 4})])
def test_model_space_graphs_have_scipys_distances(kind, n, params):
    s = make_model_space(kind, n, params)
    assert graph_shortest_paths(s.n, s.graph).tobytes() == csgraph_distances(s.n, s.graph).tobytes()


def test_a_one_point_model_space_validates():
    # its edge list is empty, and a point is at distance 0 from itself
    s = make_model_space("segment", 1)
    assert s.graph == () and validate_space(s).passed
    assert np.array_equal(graph_shortest_paths(3, []), [[0.0, np.inf, np.inf], [np.inf, 0.0, np.inf],
                                                        [np.inf, np.inf, 0.0]])


def _set(d, cells, value):
    for i, j in cells:
        d[i, j] = value


# one corruption of segment:3 (points 0, 0.5, 1; edges 0-1 and 1-2 of length
# 0.5) per kind: (kind, metric change, edge change, meta, base point,
# witness, magnitude)
_CORRUPTIONS = [
    ("symmetry", lambda d: _set(d, [(0, 1)], 0.75), None, {}, 1, (0, 1), 0.25),
    ("zero_diagonal", lambda d: _set(d, [(2, 2)], 0.125), None, {}, 1, (2,), 0.125),
    ("positivity", lambda d: _set(d, [(0, 1), (1, 0)], -0.25), None, {}, 1, (0, 1), 0.25),
    ("edge_weight", None, (1, (1, 2, -0.5)), {}, 1, (1, 2), 0.5),
    ("edge_length_vs_metric", None, (0, (0, 1, 0.75)), {}, 1, None, 0.25),
    ("graph_shorter_than_metric", lambda d: _set(d, [(0, 2), (2, 0)], 1.25), None,
     {"metric_kind": "l2_product"}, 1, (0, 2), 0.25),
    ("graph_metric_consistency", lambda d: _set(d, [(0, 2), (2, 0)], 0.75), None, {}, 1, (0, 2), 0.25),
    ("base_point_range", None, None, {}, 3, (3,), float("nan")),
]


@pytest.mark.parametrize("kind, metric, edge, meta, base, witness, magnitude", _CORRUPTIONS,
                         ids=[c[0] for c in _CORRUPTIONS])
def test_each_violation_kind_is_witnessed(kind, metric, edge, meta, base, witness, magnitude):
    s = make_model_space("segment", 3)
    d, edges = s.metric.copy(), list(s.graph)
    if metric:
        metric(d)
    if edge:
        edges[edge[0]] = edge[1]
    rep = validate_space(FiniteMMSpace(s.points, d, s.ref_measure, tuple(edges), base, dict(s.meta, **meta)))
    found = [v for v in rep.violations if v[0] == kind]
    assert not rep.passed and len(found) == 1
    assert found[0][1] == witness
    assert found[0][2] == magnitude or np.isnan(magnitude) and np.isnan(found[0][2])


def test_segment_two_points():
    s = make_model_space("segment", 2)
    assert np.allclose(s.metric, [[0, 1], [1, 0]])
    assert np.allclose(s.ref_measure, [0.5, 0.5])


def test_cycle_four_distances():
    s = make_model_space("cycle", 4)
    assert s.metric[0, 2] == pytest.approx(0.5)
    assert s.metric[0, 1] == pytest.approx(0.25)


def test_gaussian_profile_decreasing_from_base():
    s = make_model_space("segment", 64, {"measure": {"gaussian": 2.0}})
    x0 = s.base_point
    V = s.metric[:, x0]
    expected = np.exp(-2.0 * V**2)
    expected /= expected.sum()
    assert np.allclose(s.ref_measure, expected, atol=1e-15)
    left = s.ref_measure[: x0 + 1]
    assert np.all(np.diff(left) >= -1e-18)  # increasing toward the peak


def test_model_spaces_validate():
    for kind, n in (("segment", 9), ("cycle", 8), ("two_point", 2), ("grid", 3)):
        assert validate_space(make_model_space(kind, n)).passed, kind


def test_dimension_mismatch_is_structural_error():
    with pytest.raises(SpaceError):
        FiniteMMSpace(("a", "b"), np.zeros((3, 3)), np.ones(2))


def test_product_of_points_is_point():
    p = make_model_space("two_point", 2)
    one = FiniteMMSpace((0,), np.zeros((1, 1)), np.array([1.0]))
    prod = product_space(one, one)
    assert prod.n == 1


def test_product_metric_pythagoras():
    s = make_model_space("segment", 2)
    prod = product_space(s, s)
    # diagonal pair ((0,0),(1,1))
    i = 0
    j = prod.points.index((1, 1))
    assert prod.metric[i, j] == pytest.approx(np.sqrt(2.0))
    d2 = prod.metric**2
    for a, (xa, ya) in enumerate(prod.points):
        for b, (xb, yb) in enumerate(prod.points):
            assert d2[a, b] == pytest.approx(s.metric[xa, xb] ** 2 + s.metric[ya, yb] ** 2, abs=1e-12)
    assert validate_space(prod).passed


def test_triangle_exhaustive_on_generated_spaces():
    for kind, n in (("segment", 30), ("cycle", 24), ("random_metric", 25)):
        s = make_model_space(kind, n, {"seed": 1})
        d = s.metric
        worst = max(
            d[i, j] - d[i, k] - d[k, j]
            for i in range(s.n) for j in range(s.n) for k in range(s.n)
        )
        assert worst <= 1e-12


def test_json_roundtrip_and_validation():
    s = make_model_space("cycle", 6, {"measure": {"gaussian": 1.0}})
    obj = space_to_json(s)
    s2 = space_from_json(obj)
    assert np.allclose(s2.metric, s.metric)
    assert np.allclose(s2.ref_measure, s.ref_measure)
    obj["measure"][0] = -1.0
    with pytest.raises(SpaceError):
        space_from_json(obj)


def test_line_of_names_the_segments_and_cycles_only():
    for kind, n, period in (("segment", 5, None), ("cycle", 6, 1.0)):
        s = make_model_space(kind, n)
        positions, got = line_of(s)
        assert got == period
        # the metric is the distance of the positions, the short way round on the cycle
        arc = np.abs(positions[:, None] - positions[None, :])
        assert np.allclose(s.metric, arc if period is None else np.minimum(arc, period - arc), atol=1e-15)
        assert line_of(space_from_json(space_to_json(s))) is None  # JSON keeps no positions
    cyc = make_model_space("cycle", 3)
    for s in (make_model_space("grid", 3), make_model_space("two_point", 2), make_model_space("random_metric", 5),
              product_space(cyc, cyc)):
        assert line_of(s) is None
