"""Tests for topology-change patches (``FrozenOracle.patch_topology``).

The contract: after failing (tombstoning) or reinserting edges, the
oracle must answer exactly as a fresh :class:`FrozenOracle` built over
the mutated graph would -- in both replicated and contracted modes.
That cold rebuild is the only equivalence reference.  Removed edges may
legitimately leave regions *unreachable* (``dist=inf``), which no
cost-only patch can produce.
"""

import math
import random

import pytest

from helpers import assert_rows_match_cold
from repro.core.problem import ServiceChain
from repro.graph import FrozenOracle, Graph
from repro.obs import MetricsRegistry, Recorder
from repro.topology import inet_network

INF = float("inf")


def random_graph(rng, num_nodes=40, edge_probability=0.15):
    graph = Graph()
    for i in range(num_nodes):
        graph.add_node(i)
    for i in range(num_nodes):
        for j in range(i + 1, num_nodes):
            if rng.random() < edge_probability:
                graph.add_edge(i, j, rng.uniform(0.1, 5.0))
    return graph


def removable_edges(rng, graph, count):
    """Sample ``count`` live edges (endpoint pairs only)."""
    edges = [(u, v) for u, v, _ in graph.edges()]
    return rng.sample(edges, min(count, len(edges)))


# ----------------------------------------------------------------------
# replicated (uncontracted) mode
# ----------------------------------------------------------------------
def test_removed_edges_match_fresh_oracle_uncontracted():
    rng = random.Random(31)
    for trial in range(6):
        graph = random_graph(rng)
        nodes = list(graph.nodes())
        hot = rng.sample(nodes, 6)
        oracle = FrozenOracle(graph, hot=hot)
        assert oracle.contracted is None
        for _ in range(30):
            oracle.distance(rng.choice(nodes), rng.choice(nodes))
        removed = removable_edges(rng, graph, 4)
        reference = graph.copy()
        for u, v in removed:
            reference.remove_edge(u, v)
        oracle.patch_topology(removed=removed)
        fresh = FrozenOracle(reference, hot=hot)
        for source in rng.sample(nodes, 8):
            assert oracle.distances_from(source) == fresh.distances_from(source)


def test_reinserted_edges_match_fresh_oracle_uncontracted():
    rng = random.Random(37)
    for trial in range(4):
        graph = random_graph(rng)
        nodes = list(graph.nodes())
        oracle = FrozenOracle(graph, hot=rng.sample(nodes, 5))
        for _ in range(20):
            oracle.distance(rng.choice(nodes), rng.choice(nodes))
        removed = removable_edges(rng, graph, 3)
        oracle.patch_topology(removed=removed)
        # Revive every failed edge at a fresh cost: a decrease from inf.
        revived = {(u, v): rng.uniform(0.1, 5.0) for u, v in removed}
        oracle.patch_topology(inserted=revived)
        fresh = FrozenOracle(graph.copy(), hot=rng.sample(nodes, 5))
        for source in rng.sample(nodes, 8):
            assert oracle.distances_from(source) == fresh.distances_from(source)


def test_mixed_removal_and_insert_batch():
    rng = random.Random(41)
    graph = random_graph(rng)
    nodes = list(graph.nodes())
    oracle = FrozenOracle(graph, hot=rng.sample(nodes, 5))
    for _ in range(20):
        oracle.distance(rng.choice(nodes), rng.choice(nodes))
    first = removable_edges(rng, graph, 2)
    oracle.patch_topology(removed=first)
    second = removable_edges(rng, graph, 2)
    revived = {(u, v): rng.uniform(0.1, 5.0) for u, v in first}
    oracle.patch_topology(removed=second, inserted=revived)
    reference = graph.copy()
    fresh = FrozenOracle(reference, hot=rng.sample(nodes, 5))
    for source in rng.sample(nodes, 8):
        assert oracle.distances_from(source) == fresh.distances_from(source)


def test_randomized_fail_recover_cost_stream_matches_reference():
    """Interleaved fail/recover/cost patches vs the cold rebuild.

    After every step each cached row must equal a cold rebuild's, and
    the served rows must equal a fresh oracle's over the mutated graph.
    """
    rng = random.Random(43)
    graph = random_graph(rng, num_nodes=35)
    nodes = list(graph.nodes())
    hot = rng.sample(nodes, 5)
    patched = FrozenOracle(graph, hot=hot)
    down = []
    for step in range(15):
        action = rng.random()
        if action < 0.35 and len(down) < 4:
            live = [(u, v) for u, v, _ in graph.edges()]
            edge = rng.choice(live)
            patched.patch_topology(removed=[edge])
            down.append(edge)
        elif action < 0.6 and down:
            edge = down.pop(rng.randrange(len(down)))
            cost = rng.uniform(0.1, 5.0)
            patched.patch_topology(inserted={edge: cost})
        else:
            live = [(u, v, c) for u, v, c in graph.edges()]
            u, v, c = rng.choice(live)
            changed = {(u, v): c * rng.uniform(0.2, 3.0)}
            patched.patch_edge_costs(changed)
        assert_rows_match_cold(patched)
        fresh = FrozenOracle(graph.copy(), hot=hot)
        for source in rng.sample(nodes, 4):
            assert patched.distances_from(source) \
                == fresh.distances_from(source)


# ----------------------------------------------------------------------
# unreachable-row semantics
# ----------------------------------------------------------------------
def bridge_graph():
    """Two triangles joined by a single bridge edge."""
    graph = Graph()
    for u, v, c in [(0, 1, 1.0), (1, 2, 1.5), (0, 2, 2.0),
                    (3, 4, 1.0), (4, 5, 1.5), (3, 5, 2.0),
                    (2, 3, 0.7)]:
        graph.add_edge(u, v, c)
    return graph


def test_unreachable_after_bridge_failure():
    graph = bridge_graph()
    oracle = FrozenOracle(graph)
    before = oracle.distance(0, 5)
    assert math.isfinite(before)
    oracle.patch_topology(removed=[(2, 3)])
    # The far triangle is now a separate component.
    assert oracle.distance(0, 5) == INF
    assert oracle.distance(0, 3) == INF
    assert oracle.distance(0, 1) == 1.0
    with pytest.raises(ValueError):
        oracle.path(0, 5)
    row = oracle.distances_from(0)
    for far in (3, 4, 5):
        assert row.get(far, INF) == INF


def test_unreachable_resettles_after_recovery():
    graph = bridge_graph()
    oracle = FrozenOracle(graph)
    before = {n: oracle.distances_from(n) for n in range(6)}
    oracle.patch_topology(removed=[(2, 3)])
    assert oracle.distance(0, 5) == INF
    oracle.patch_topology(inserted={(2, 3): 0.7})
    for n in range(6):
        assert oracle.distances_from(n) == before[n]
    assert oracle.path(0, 5)[0] == 0
    assert oracle.path(0, 5)[-1] == 5


# ----------------------------------------------------------------------
# contracted mode
#
# A topology change alters the degree-2 chain structure, and a patch of
# a built contracted oracle rebuilds it: the next query contracts the
# mutated graph afresh, summing chain hops in the same order a fresh
# oracle does.  So contracted comparisons are bit-exact too.
# ----------------------------------------------------------------------
def assert_rows_equal(oracle, fresh, source):
    assert oracle.distances_from(source) == fresh.distances_from(source)


@pytest.fixture
def contracted_oracle():
    network = inet_network(
        num_nodes=400, num_links=800, num_datacenters=120, seed=5
    )
    instance = network.make_instance(
        num_sources=4, num_destinations=5, num_vms=10,
        chain=ServiceChain.of_length(3), seed=21,
    )
    graph = instance.graph.copy()
    hot = instance.vms | instance.sources | instance.destinations
    rng = random.Random(3)
    oracle = FrozenOracle(graph, hot=hot)
    assert oracle.contracted is not None
    oracle.prefetch_rows(sorted(hot, key=repr))
    return graph, oracle, hot, rng


def test_contracted_removal_matches_fresh(contracted_oracle):
    graph, oracle, hot, rng = contracted_oracle
    probes = sorted(hot, key=repr)[:8]
    removed = removable_edges(rng, graph, 5)
    reference = graph.copy()
    for u, v in removed:
        reference.remove_edge(u, v)
    oracle.patch_topology(removed=removed)
    fresh = FrozenOracle(reference, hot=hot)
    assert fresh.contracted is not None
    for source in probes:
        assert_rows_equal(oracle, fresh, source)


def test_contracted_chain_edge_failure_and_recovery(contracted_oracle):
    """Fail an edge *interior* to a contracted chain, then revive it."""
    graph, oracle, hot, rng = contracted_oracle
    contracted = oracle.contracted
    probes = sorted(hot, key=repr)[:8]
    # Find a chain with interiors and fail its first hop.
    target = None
    for a, b, interiors, prefix, total in contracted.chains:
        if interiors:
            target = (contracted.nodes[a], interiors[0])
            break
    assert target is not None, "fixture produced no contracted chains"
    reference = graph.copy()
    reference.remove_edge(*target)
    oracle.patch_topology(removed=[target])
    fresh = FrozenOracle(reference, hot=hot)
    for source in probes:
        assert_rows_equal(oracle, fresh, source)
    cost = rng.uniform(0.1, 5.0)
    oracle.patch_topology(inserted={target: cost})
    fresh_after = FrozenOracle(graph.copy(), hot=hot)
    for source in probes:
        assert_rows_equal(oracle, fresh_after, source)


def test_contracted_insert_needs_no_tombstone(contracted_oracle):
    """A built contracted oracle takes any insert, because its patches
    rebuild from the graph: an edge that was never removed is
    insertable, and inserting it -- or removing an edge, querying, and
    reinserting it -- leaves every row equal to a fresh oracle's.  A
    metered patch records ``oracle.patch.*`` and no ``oracle.repair``
    span."""
    graph, _, hot, rng = contracted_oracle
    graph = graph.copy()
    recorder = Recorder(registry=MetricsRegistry())
    oracle = FrozenOracle(graph, hot=hot, metrics=recorder)
    probes = sorted(hot, key=repr)
    oracle.prefetch_rows(probes)
    interior = sorted(oracle.contracted.interior, key=repr)
    new_edge = next(
        (a, b) for a in interior for b in interior
        if a != b and not graph.has_edge(a, b)
    )

    def check():
        oracle.prefetch_rows(probes)
        for source in probes[:4]:
            oracle.distances_from(source)
        assert oracle.contracted is not None
        assert_rows_match_cold(oracle)
        fresh = FrozenOracle(graph.copy(), hot=hot)
        for source in probes[:4]:
            assert_rows_equal(oracle, fresh, source)

    assert oracle.insertable(*new_edge)  # never removed
    oracle.patch_topology(inserted={new_edge: rng.uniform(0.1, 5.0)})
    check()
    removed = removable_edges(rng, graph, 1)[0]
    cost = graph.cost(*removed)
    oracle.patch_topology(removed=[removed])
    for _ in range(20):
        oracle.distance(rng.choice(probes), rng.choice(probes))
    check()
    assert oracle.insertable(*removed)
    oracle.patch_topology(inserted={removed: cost})
    check()
    oracle.patch_edge_costs({removed: cost * 2.0})
    check()
    snap = recorder.snapshot()
    assert snap["counters"]["oracle.patch.topology_changes"] == 3
    assert snap["counters"]["oracle.patch.edges"] == 1
    spans = snap["histograms"]
    assert any(k.startswith("oracle.patch.topology") for k in spans)
    assert any(k.startswith("oracle.patch.costs") for k in spans)
    assert not [
        k for k in (*snap["counters"], *spans) if k.startswith("oracle.repair")
    ]


# ----------------------------------------------------------------------
# validation and atomicity
# ----------------------------------------------------------------------
def small_graph():
    graph = Graph()
    for u, v, c in [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 1.5), (0, 3, 4.0)]:
        graph.add_edge(u, v, c)
    return graph


def test_remove_unknown_edge_rejected_atomically():
    graph = small_graph()
    oracle = FrozenOracle(graph)
    oracle.distance(0, 3)
    with pytest.raises(KeyError):
        oracle.patch_topology(removed=[(0, 1), (0, 2)])
    # Nothing was mutated: the valid half of the batch did not apply.
    assert graph.cost(0, 1) == 1.0
    assert oracle.distance(0, 1) == 1.0


def test_insert_existing_edge_rejected():
    oracle = FrozenOracle(small_graph())
    with pytest.raises(ValueError, match="already an edge"):
        oracle.patch_topology(inserted={(0, 1): 2.0})


@pytest.mark.parametrize("bad", [float("nan"), -1.0, INF])
def test_insert_invalid_cost_rejected(bad):
    graph = small_graph()
    oracle = FrozenOracle(graph)
    oracle.patch_topology(removed=[(0, 1)])
    with pytest.raises(ValueError):
        oracle.patch_topology(inserted={(0, 1): bad})
    assert not graph.has_edge(0, 1)


def test_remove_and_insert_same_edge_in_one_batch_rejected():
    oracle = FrozenOracle(small_graph())
    with pytest.raises(ValueError):
        oracle.patch_topology(removed=[(0, 1)], inserted={(1, 0): 1.0})


def test_insert_never_removed_edge_rejected_on_built_oracle():
    """The frozen CSR core cannot grow slots for brand-new edges."""
    graph = small_graph()
    oracle = FrozenOracle(graph)
    oracle.distance(0, 3)  # force the build
    with pytest.raises(ValueError, match="never removed"):
        oracle.patch_topology(inserted={(0, 2): 1.0})
    assert not graph.has_edge(0, 2)


def test_insert_new_edge_on_unbuilt_oracle_allowed():
    graph = small_graph()
    oracle = FrozenOracle(graph)
    oracle.patch_topology(inserted={(0, 2): 1.0})
    assert graph.cost(0, 2) == 1.0
    assert oracle.distance(0, 2) == 1.0


def test_invalidate_clears_tombstones():
    graph = small_graph()
    oracle = FrozenOracle(graph)
    oracle.distance(0, 3)
    oracle.patch_topology(removed=[(0, 1)])
    oracle.invalidate()
    # After a rebuild the (0, 1) slot is gone entirely, so reviving it
    # is a brand-new edge: fine on the now-unbuilt oracle...
    oracle.patch_topology(inserted={(0, 1): 1.0})
    assert oracle.distance(0, 1) == 1.0
    oracle.distance(0, 3)
    # ...but not once the rebuilt CSR is frozen again.
    oracle.patch_topology(removed=[(0, 1)])
    oracle.invalidate()
    oracle.distance(0, 3)
    with pytest.raises(ValueError, match="never removed"):
        oracle.patch_topology(inserted={(0, 1): 1.0})


def test_rebased_carries_tombstones():
    rng = random.Random(47)
    graph = random_graph(rng, num_nodes=25)
    nodes = list(graph.nodes())
    oracle = FrozenOracle(graph, hot=rng.sample(nodes, 4))
    oracle.distance(nodes[0], nodes[-1])
    edge = removable_edges(rng, graph, 1)[0]
    oracle.patch_topology(removed=[edge])
    base = graph.copy()
    clone = oracle.rebased(base, {})
    # The clone may revive the tombstoned edge exactly like the original.
    clone.patch_topology(inserted={edge: 1.0})
    assert base.cost(*edge) == 1.0
    assert clone.distance(*edge) <= 1.0
    # The original oracle still sees the edge as dead.
    assert not graph.has_edge(*edge)


# ----------------------------------------------------------------------
# cost-patch validation (both orientations)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("orientation", ["forward", "reverse"])
@pytest.mark.parametrize("bad", [float("nan"), -0.5, INF])
def test_patch_edge_costs_rejects_invalid_costs(orientation, bad):
    graph = small_graph()
    oracle = FrozenOracle(graph)
    oracle.distance(0, 3)
    edge = (0, 1) if orientation == "forward" else (1, 0)
    with pytest.raises(ValueError, match="finite and non-negative"):
        oracle.patch_edge_costs({(2, 3): 9.0, edge: bad})
    # Atomic: the valid change in the same batch did not land either.
    assert graph.cost(2, 3) == 1.5
    assert graph.cost(0, 1) == 1.0
    assert oracle.distance(2, 3) == 1.5
