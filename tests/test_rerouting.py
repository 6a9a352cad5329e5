"""Tests for the online congestion-rerouting wrapper (Section VII-B)."""

import pytest

from repro import check_forest, sofda
from repro.costmodel import LoadTracker
from repro.graph.graph import canonical_edge, edge_sort_key
from repro.online import (
    OnlineSimulator,
    RequestGenerator,
    congested_forest_links,
    reroute_forest_around_congestion,
)
from repro.topology import softlayer_network


@pytest.fixture
def embedded_with_tracker():
    network = softlayer_network(seed=3)
    simulator = OnlineSimulator(network)
    generator = RequestGenerator(
        network, seed=8, destinations_range=(4, 4), sources_range=(3, 3)
    )
    request = generator.next_request()
    instance = simulator.current_instance(request)
    forest = sofda(instance).forest
    simulator.commit(forest, request)
    return forest, simulator.tracker


def test_no_congestion_no_links(embedded_with_tracker):
    forest, tracker = embedded_with_tracker
    # One 5 Mbps request on 100 Mbps links congests nothing.
    assert congested_forest_links(forest, tracker) == []


def test_congested_links_detected(embedded_with_tracker):
    forest, tracker = embedded_with_tracker
    # Manually congest one used chain edge.
    edge = canonical_edge(*next(iter(forest.chains[0].all_edges())))
    tracker.add_link_load(*edge, 95.0)
    hot = congested_forest_links(forest, tracker)
    assert edge in hot


def test_reroute_produces_feasible_forest(embedded_with_tracker):
    forest, tracker = embedded_with_tracker
    edge = canonical_edge(*next(iter(forest.chains[0].all_edges())))
    tracker.add_link_load(*edge, 95.0)
    instance, rerouted, count = reroute_forest_around_congestion(
        forest, tracker
    )
    assert count == 1
    check_forest(instance, rerouted)
    # The congested link's updated cost is reflected in the new instance.
    assert instance.graph.cost(*edge) == pytest.approx(tracker.link_cost(*edge))


def test_reroute_programming_errors_propagate(embedded_with_tracker,
                                              monkeypatch):
    # Only an unusable link or path reads as "no alternative"; a bug in
    # the reroute must surface, not count as a link left in place.
    forest, tracker = embedded_with_tracker
    edge = canonical_edge(*next(iter(forest.chains[0].all_edges())))
    tracker.add_link_load(*edge, 95.0)

    def broken(instance, forest):
        raise TypeError("bug in the reroute")

    monkeypatch.setattr("repro.core.dynamic.check_forest", broken)
    with pytest.raises(TypeError, match="bug in the reroute"):
        reroute_forest_around_congestion(forest, tracker)


class _StubForest:
    """Just enough forest surface for ``congested_forest_links``."""

    def __init__(self, tree_edges):
        self.tree_edges = set(tree_edges)
        self.chains = []


def test_congested_links_sorted_by_canonical_key_mixed_types():
    """Regression: the result order must survive mixed node types.

    Sorting on ``repr`` ordered integer link ``(2, 10)`` before ``(2, 9)``
    (string order) and shuffled tuple-named VM links among plain ids; the
    canonical edge key keeps numeric order and never compares across
    types natively.
    """
    edges = [
        canonical_edge(2, 9),
        canonical_edge(2, 10),
        canonical_edge("dc", ("vm", 0, 1)),
        canonical_edge("dc", ("vm", 0, 0)),
    ]
    forest = _StubForest(edges)
    tracker = LoadTracker(link_capacity=100.0)
    for edge in edges:
        tracker.add_link_load(*edge, 95.0)
    hot = congested_forest_links(forest, tracker)
    assert set(hot) == set(edges)
    assert hot == sorted(edges, key=edge_sort_key)
    assert hot.index(canonical_edge(2, 9)) < hot.index(canonical_edge(2, 10))


def test_congested_links_threshold_boundary_matches_tracker():
    """A link at exactly 0.9 utilisation is congested in neither layer."""
    edge = canonical_edge("a", "b")
    forest = _StubForest([edge])
    tracker = LoadTracker(link_capacity=100.0)
    tracker.add_link_load(*edge, 90.0)  # exactly the default threshold
    assert list(tracker.congested_links()) == []
    assert congested_forest_links(forest, tracker) == []
    tracker.add_link_load(*edge, 1e-9)
    assert list(tracker.congested_links()) == [edge]
    assert congested_forest_links(forest, tracker) == [edge]


def test_reroute_respects_max_links(embedded_with_tracker):
    forest, tracker = embedded_with_tracker
    edges = list(forest.chains[0].all_edges())[:3]
    for a, b in edges:
        tracker.add_link_load(a, b, 96.0)
    _, _, count = reroute_forest_around_congestion(
        forest, tracker, max_links=1
    )
    assert count <= 1
