"""Unit tests for the Graph type."""

import pytest

from repro.graph import Graph
from repro.graph.graph import canonical_edge, edge_sort_key, node_sort_key


def test_add_and_query_edges():
    g = Graph.from_edges([(1, 2, 3.0), (2, 3, 1.5)])
    assert g.has_edge(1, 2) and g.has_edge(2, 1)
    assert g.cost(2, 3) == 1.5
    assert g.cost(3, 2) == 1.5
    assert len(g) == 3
    assert g.num_edges() == 2


def test_add_edge_overwrites_cost():
    g = Graph.from_edges([(1, 2, 3.0)])
    g.add_edge(1, 2, 7.0)
    assert g.cost(1, 2) == 7.0
    assert g.num_edges() == 1


def test_self_loop_rejected():
    g = Graph()
    with pytest.raises(ValueError):
        g.add_edge(1, 1, 2.0)


def test_negative_cost_rejected():
    g = Graph()
    with pytest.raises(ValueError):
        g.add_edge(1, 2, -0.5)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
def test_non_finite_or_negative_cost_rejected(bad):
    """NaN and ``inf`` fail like a negative cost, naming the edge, and
    leave the graph unchanged."""
    g = Graph.from_edges([(0, 1, 1.0)])
    with pytest.raises(ValueError, match=r"finite and non-negative.*\(1, 2\)"):
        g.add_edge(1, 2, bad)
    assert not g.has_edge(1, 2)
    with pytest.raises(ValueError, match="finite and non-negative"):
        Graph.from_edges([(0, 1, 1.0), (1, 2, bad)])


def test_isolated_node():
    g = Graph()
    g.add_node("lonely")
    assert "lonely" in g
    assert g.degree("lonely") == 0
    assert list(g.edges()) == []


def test_remove_edge_and_node():
    g = Graph.from_edges([(1, 2, 1.0), (2, 3, 1.0), (1, 3, 1.0)])
    g.remove_edge(1, 2)
    assert not g.has_edge(1, 2)
    g.remove_node(3)
    assert 3 not in g
    assert g.num_edges() == 0
    assert len(g) == 2


def test_remove_missing_edge_raises():
    g = Graph.from_edges([(1, 2, 1.0)])
    with pytest.raises(KeyError):
        g.remove_edge(1, 3)


def test_copy_is_deep():
    g = Graph.from_edges([(1, 2, 1.0)])
    h = g.copy()
    h.add_edge(2, 3, 5.0)
    assert not g.has_edge(2, 3)
    assert h.has_edge(2, 3)


def test_neighbors_and_degree():
    g = Graph.from_edges([(1, 2, 1.0), (1, 3, 2.0)])
    assert set(g.neighbors(1)) == {2, 3}
    assert g.degree(1) == 2
    assert dict(g.neighbor_items(1)) == {2: 1.0, 3: 2.0}


def test_edges_iterates_each_once():
    g = Graph.from_edges([(1, 2, 1.0), (2, 3, 2.0), (1, 3, 3.0)])
    seen = {canonical_edge(u, v) for u, v, _ in g.edges()}
    assert len(seen) == 3


def test_subgraph_induced():
    g = Graph.from_edges([(1, 2, 1.0), (2, 3, 2.0), (1, 3, 3.0), (3, 4, 1.0)])
    sub = g.subgraph({1, 2, 3})
    assert len(sub) == 3
    assert sub.num_edges() == 3
    assert not sub.has_edge(3, 4)


def test_subgraph_missing_node_raises():
    g = Graph.from_edges([(1, 2, 1.0)])
    with pytest.raises(KeyError):
        g.subgraph({1, 99})


def test_connected_components():
    g = Graph.from_edges([(1, 2, 1.0), (3, 4, 1.0)])
    g.add_node(5)
    comps = sorted(g.connected_components(), key=lambda c: sorted(map(repr, c)))
    assert len(comps) == 3
    assert not g.is_connected()
    g.add_edge(2, 3, 1.0)
    g.add_edge(4, 5, 1.0)
    assert g.is_connected()


def test_empty_graph_is_connected():
    assert Graph().is_connected()


def test_total_edge_cost():
    g = Graph.from_edges([(1, 2, 1.5), (2, 3, 2.5)])
    assert g.total_edge_cost() == 4.0


def test_canonical_edge_mixed_types():
    assert canonical_edge(2, 1) == (1, 2)
    a = canonical_edge("x", ("vm", 1))
    b = canonical_edge(("vm", 1), "x")
    assert a == b


def test_node_sort_key_numeric_order():
    # repr-sorting puts 10 before 9; the canonical key keeps numeric order.
    assert sorted([10, 9, 2], key=node_sort_key) == [2, 9, 10]
    assert sorted([1.5, 0.25, 10.0], key=node_sort_key) == [0.25, 1.5, 10.0]
    # Ints and floats share one numeric group: order stays numeric even
    # when the types are mixed.
    assert sorted([2.5, 1, 3], key=node_sort_key) == [1, 2.5, 3]


def test_node_sort_key_mixed_types_total_order():
    nodes = [("vm", 10, 0), ("vm", 9, 0), "switch", 7, 10, ("vm", 2)]
    ordered = sorted(nodes, key=node_sort_key)
    # Sorting never raises across types, is deterministic, and numeric
    # components inside tuples keep numeric order too.
    assert ordered == sorted(ordered, key=node_sort_key)
    assert ordered.index(7) < ordered.index(10)
    assert ordered.index(("vm", 9, 0)) < ordered.index(("vm", 10, 0))


def test_edge_sort_key_numeric_order():
    edges = [(2, 10), (2, 9), ("s", ("vm", 0, 1))]
    ordered = sorted(edges, key=edge_sort_key)
    assert ordered.index((2, 9)) < ordered.index((2, 10))
