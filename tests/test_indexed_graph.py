"""Equivalence tests for the indexed graph core and the shared oracle.

The contract of :mod:`repro.graph.indexed` is exactness: whatever mode the
:class:`FrozenOracle` picks (dict-replicated array Dijkstra or the
degree-2-contracted core), its distances must equal the reference
dict-Dijkstra's, and SOFDA's results on seeded instances must be
bit-identical to the pre-refactor pipeline (constants below were recorded
with the seed implementation).
"""

import random

import pytest

from repro.core.problem import ServiceChain
from repro.core.sofda import sofda
from repro.core.sofda_ss import sofda_ss
from repro.core.transform import build_kstroll_instance
from repro.graph import (
    DistanceOracle,
    FrozenOracle,
    Graph,
    IndexedGraph,
    steiner_tree,
)
from repro.graph.indexed import CONTRACT_MIN_INTERIOR
from repro.graph.shortest_paths import dijkstra, walk_cost
from repro.topology import inet_network
from repro.topology.generators import erdos_renyi_network, softlayer_network

INF = float("inf")


def random_graph(rng, num_nodes=30, edge_probability=0.2):
    graph = Graph()
    for i in range(num_nodes):
        graph.add_node(i)
    for i in range(num_nodes):
        for j in range(i + 1, num_nodes):
            if rng.random() < edge_probability:
                graph.add_edge(i, j, rng.uniform(0.1, 5.0))
    return graph


# ----------------------------------------------------------------------
# IndexedGraph vs the dict Dijkstra
# ----------------------------------------------------------------------
def test_indexed_dijkstra_matches_dict_dijkstra():
    rng = random.Random(11)
    for trial in range(5):
        graph = random_graph(rng)
        core = IndexedGraph.from_graph(graph)
        source = rng.randrange(len(graph))
        ref_dist, ref_parent = dijkstra(graph, source)
        dist, parent = core.dijkstra(core.id_of(source))
        for node in graph.nodes():
            i = core.id_of(node)
            assert dist[i] == ref_dist.get(node, INF)
            # Identical relaxation order implies identical parents.
            if node in ref_parent:
                assert core.node_of(parent[i]) == ref_parent[node]


def test_indexed_graph_roundtrip():
    rng = random.Random(3)
    graph = random_graph(rng, num_nodes=15)
    core = IndexedGraph.from_graph(graph)
    assert len(core) == len(graph)
    assert core.num_edges() == graph.num_edges()
    for node in graph.nodes():
        assert node in core
        i = core.id_of(node)
        row = zip(core.weights[core.indptr[i]:core.indptr[i + 1]],
                  core.indices[core.indptr[i]:core.indptr[i + 1]])
        assert sorted((w, core.node_of(v)) for w, v in row) == sorted(
            (w, v) for v, w in graph.neighbor_items(node)
        )


def test_slot_writers_keep_their_contracts():
    """``patch_edges``, ``remove_edges`` and ``restore_edges`` write both
    CSR directions, and each refuses a pair with no slot in the state
    it accepts: a missing edge, a dead edge removed again, a live edge
    restored."""
    core = IndexedGraph.from_graph(
        Graph.from_edges([(0, 1, 1.0), (1, 2, 2.0), (0, 2, 5.0), (2, 3, 1.0)])
    )

    def weight(u, v):
        i, j = core.id_of(u), core.id_of(v)
        slots = range(core.indptr[i], core.indptr[i + 1])
        return next(core.weights[p] for p in slots if core.indices[p] == j)

    edge = (core.id_of(0), core.id_of(2))
    core.patch_edges([(*edge, 4.0)])
    assert weight(0, 2) == weight(2, 0) == 4.0
    core.remove_edges([edge])
    assert weight(0, 2) == weight(2, 0) == INF
    core.restore_edges([(*edge, 3.0)])
    assert weight(0, 2) == weight(2, 0) == 3.0
    assert core.num_edges() == 4
    with pytest.raises(KeyError, match="no edge"):
        core.patch_edges([(core.id_of(0), core.id_of(3), 1.0)])
    core.remove_edges([edge])
    with pytest.raises(KeyError, match="no live edge"):
        core.remove_edges([edge])
    with pytest.raises(KeyError, match="no tombstoned edge"):
        core.restore_edges([(core.id_of(0), core.id_of(1), 1.0)])


# ----------------------------------------------------------------------
# FrozenOracle vs DistanceOracle (both modes)
# ----------------------------------------------------------------------
def test_frozen_oracle_matches_distance_oracle_small_graphs():
    rng = random.Random(7)
    for trial in range(4):
        graph = random_graph(rng)
        nodes = list(graph.nodes())
        hot = rng.sample(nodes, 6)
        frozen = FrozenOracle(graph, hot=hot)
        reference = DistanceOracle(graph)
        assert frozen.contracted is None  # too small to contract
        for _ in range(60):
            u, v = rng.choice(nodes), rng.choice(nodes)
            # Both oracles serve a query from the same row (the source's
            # cached row, else the target's, else a new source row).
            assert frozen.distance(u, v) == reference.distance(u, v)
        for _ in range(20):
            u, v = rng.choice(nodes), rng.choice(nodes)
            if reference.distance(u, v) == INF:
                continue
            # Small graphs replicate the dict relaxation order: identical paths.
            assert frozen.path(u, v) == reference.path(u, v)
        source = rng.choice(nodes)
        assert frozen.distances_from(source) == reference.distances_from(source)


@pytest.fixture(scope="module")
def contracted_setting():
    network = inet_network(num_nodes=400, num_links=800,
                           num_datacenters=120, seed=5)
    instance = network.make_instance(
        num_sources=4, num_destinations=5, num_vms=10,
        chain=ServiceChain.of_length(3), seed=21,
    )
    return instance


def test_frozen_oracle_contracts_large_continuous_graphs(contracted_setting):
    instance = contracted_setting
    oracle = instance.oracle
    assert oracle.contracted is not None
    assert len(oracle.contracted.interior) >= CONTRACT_MIN_INTERIOR


def test_core_is_the_one_active_core_accessor(contracted_setting):
    # Read first, ``core`` contracts exactly as a first query would, and
    # on a built contracted oracle it interns no second, uncontracted core.
    instance = contracted_setting
    oracle = FrozenOracle(
        instance.graph, hot=instance.vms | instance.sources | instance.destinations
    )
    core = oracle.core
    assert oracle.contracted is not None
    assert core is oracle.contracted
    assert instance.oracle.core is instance.oracle.contracted
    assert oracle._core is None and instance.oracle._core is None


def test_contracted_distances_exact(contracted_setting):
    instance = contracted_setting
    oracle = instance.oracle
    reference = DistanceOracle(instance.graph)
    rng = random.Random(2)
    nodes = list(instance.graph.nodes())
    special = list(instance.vms | instance.sources | instance.destinations)
    for u in special:
        for v in rng.sample(special, 5) + rng.sample(nodes, 5):
            # Reverse-row serving accumulates the same edge weights in the
            # opposite order: equal up to the last ulp.
            assert oracle.distance(u, v) == pytest.approx(
                reference.distance(u, v), rel=0, abs=1e-9
            )


def test_contracted_paths_are_shortest(contracted_setting):
    instance = contracted_setting
    oracle = instance.oracle
    reference = DistanceOracle(instance.graph)
    rng = random.Random(9)
    special = sorted(instance.vms | instance.sources | instance.destinations,
                     key=repr)
    for _ in range(40):
        u, v = rng.choice(special), rng.choice(special)
        d = reference.distance(u, v)
        if d == INF:
            continue
        path = oracle.path(u, v)
        assert path[0] == u and path[-1] == v
        # The expanded path must be a real walk of exactly optimal cost.
        assert walk_cost(instance.graph, path) == pytest.approx(d, rel=0, abs=1e-12)


def test_contracted_distances_from_covers_interiors(contracted_setting):
    instance = contracted_setting
    oracle = instance.oracle
    source = sorted(instance.sources, key=repr)[0]
    ref_dist, _ = dijkstra(instance.graph, source)
    got = oracle.distances_from(source)
    assert set(got) == set(ref_dist)
    for node, d in ref_dist.items():
        assert got[node] == pytest.approx(d, rel=0, abs=1e-12)


def test_extend_hot_rebuilds_for_contracted_interior(contracted_setting):
    instance = contracted_setting
    oracle = FrozenOracle(
        instance.graph,
        hot=instance.vms | instance.sources | instance.destinations,
    )
    contracted = oracle.contracted
    assert contracted is not None
    interior = next(iter(contracted.interior))
    oracle.extend_hot([interior])
    rebuilt = oracle.contracted
    assert rebuilt is None or interior not in rebuilt.interior
    # The newly hot node is served exactly either way.
    reference = DistanceOracle(instance.graph)
    probe = sorted(instance.destinations, key=repr)[0]
    assert oracle.distance(interior, probe) == reference.distance(interior, probe)


def test_row_serves_nodes_past_a_hot_node_exactly():
    # With hot = {a, u} on the path a-u-v, the row from a must serve v,
    # which lies past the hot node u, exactly: a row never stops once
    # the hot set has settled.
    graph = Graph.from_edges([("a", "u", 1.0), ("u", "v", 1.0)])
    oracle = FrozenOracle(graph, hot=["a", "u"])
    assert oracle.distance("a", "u") == 1.0
    assert oracle.distance("a", "v") == 2.0
    assert oracle.path("a", "v") == ["a", "u", "v"]


def test_oracle_error_contract():
    graph = Graph()
    graph.add_edge("a", "b", 1.0)
    graph.add_node("island")
    oracle = FrozenOracle(graph)
    assert oracle.distance("a", "island") == INF
    assert oracle.distance("a", "missing") == INF
    with pytest.raises(ValueError):
        oracle.path("a", "island")
    with pytest.raises(KeyError):
        oracle.distance("missing", "a")


# ----------------------------------------------------------------------
# Procedure-1 fast path vs the lazy edge-cost closure
# ----------------------------------------------------------------------
def test_kstroll_fast_path_matches_lazy_costs(contracted_setting):
    instance = contracted_setting
    source = sorted(instance.sources, key=repr)[0]
    last_vm = sorted(instance.vms, key=repr)[0]
    fast = build_kstroll_instance(instance, source, last_vm)
    # Passing an (empty) override dict forces the historical lazy closure
    # while leaving every effective setup cost unchanged.
    lazy = build_kstroll_instance(instance, source, last_vm, setup_costs={})
    assert fast.nodes == lazy.nodes
    assert not callable(fast.cost) and callable(lazy.cost)
    for i, a in enumerate(fast.nodes):
        for b in fast.nodes[i + 1:]:
            assert fast.edge(a, b) == lazy.edge(a, b)
            assert fast.edge(b, a) == lazy.edge(a, b)


# ----------------------------------------------------------------------
# Steiner solvers under the shared oracle
# ----------------------------------------------------------------------
def test_steiner_same_result_with_default_and_explicit_oracle():
    rng = random.Random(13)
    for trial in range(3):
        graph = random_graph(rng, num_nodes=25, edge_probability=0.25)
        terminals = rng.sample(list(graph.nodes()), 5)
        with_frozen = steiner_tree(graph, terminals, method="kmb")
        with_dict = steiner_tree(
            graph, terminals, method="kmb", oracle=DistanceOracle(graph)
        )
        assert with_frozen.cost == with_dict.cost
        assert (
            sorted(map(repr, with_frozen.tree.edges()))
            == sorted(map(repr, with_dict.tree.edges()))
        )


# ----------------------------------------------------------------------
# SOFDA regression: identical forest costs on seeded instances
# ----------------------------------------------------------------------
#: total_cost values recorded with the seed (pre-refactor) implementation.
#: Comparisons allow the last ulp to wobble: the pipeline (seed included)
#: sums forest costs over hash-ordered containers, so rare PYTHONHASHSEED
#: values shift the total by one unit in the last place.  Any behavioural
#: regression moves costs by many orders of magnitude more than 1e-9.
SEED_SOFDA_COSTS = {
    "inet_200": 882.5071308981337,
    "softlayer": 539.4765753650847,
    "er40": 249.81117881712453,
}


def test_sofda_cost_identical_on_seeded_inet_instance():
    network = inet_network(num_nodes=200, num_links=400,
                           num_datacenters=80, seed=7)
    instance = network.make_instance(
        num_sources=4, num_destinations=6, num_vms=12,
        chain=ServiceChain.of_length(3), seed=7 + 200 + 4,
    )
    assert instance.oracle.contracted is not None  # fast mode exercised
    assert sofda(instance).cost == pytest.approx(
        SEED_SOFDA_COSTS["inet_200"], rel=0, abs=1e-9
    )


def test_sofda_cost_identical_on_seeded_softlayer_instance():
    network = softlayer_network(seed=2)
    instance = network.make_instance(
        num_sources=5, num_destinations=4, num_vms=10,
        chain=ServiceChain.of_length(2), seed=11,
    )
    assert instance.oracle.contracted is None  # replicated mode exercised
    assert sofda(instance).cost == pytest.approx(
        SEED_SOFDA_COSTS["softlayer"], rel=0, abs=1e-9
    )


def test_sofda_and_ss_cost_identical_on_seeded_er_instance():
    network = erdos_renyi_network(num_nodes=40, edge_probability=0.15,
                                  num_datacenters=10, seed=9)
    instance = network.make_instance(
        num_sources=3, num_destinations=3, num_vms=6,
        chain=ServiceChain.of_length(2), seed=4,
    )
    assert sofda(instance).cost == pytest.approx(
        SEED_SOFDA_COSTS["er40"], rel=0, abs=1e-9
    )
    # sofda_ss sums the same forest in a hash-seed-dependent order (a
    # pre-existing seed behaviour), so allow the last ulp to wobble.
    assert sofda_ss(instance).total_cost() == pytest.approx(
        SEED_SOFDA_COSTS["er40"], rel=0, abs=1e-9
    )
