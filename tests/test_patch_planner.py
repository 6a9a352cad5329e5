"""Cold-rebuild equivalence for the patch repair engine.

Every cost patch repairs cached rows in one pass: idle rows are
evicted, and each live row first takes the batch's decreases and then
one :func:`kernel.repair` call over the regions its increased tree
edges detach.  The equivalence reference is the cold
rebuild -- a fresh oracle over the patched graph.  These tests replay
randomized query+patch streams and, after every patch, check each
cached row against it: rows must equal the rebuilt labels and
parent tree exactly (shortest paths are unique on these
continuous-cost graphs).  A patched contracted oracle is rebuilt, not
repaired, so its rows equal a fresh contraction's exactly too.  The
online streams are checked against the invalidate-per-change reference
instead.
"""

import random

import pytest

from helpers import assert_rows_match_cold, row_states
from repro.core.problem import ServiceChain
from repro.graph import FrozenOracle, Graph
from repro.graph.graph import canonical_edge
from repro.obs import MetricsRegistry, Recorder
from repro.topology import inet_network

INF = float("inf")


def random_graph(rng, num_nodes=36, edge_probability=0.15):
    graph = Graph()
    for i in range(num_nodes):
        graph.add_node(i)
    for i in range(num_nodes):
        for j in range(i + 1, num_nodes):
            if rng.random() < edge_probability:
                graph.add_edge(i, j, rng.uniform(0.1, 5.0))
    return graph


def _patch_stream(rng, graph, rounds, direction, working=5, queries=10):
    """One randomized op stream (built once, replayable into any oracle).

    Patches are drawn against a simulated running cost state, so an "up"
    stream stays a strict per-edge increase even when the same edge is
    drawn twice, while a "mixed" stream's batches carry decreases too.
    """
    nodes = list(graph.nodes())
    cost_now = {(u, v): cost for u, v, cost in graph.edges()}
    edges = list(cost_now)
    hot_rows = rng.sample(nodes, working)
    ops = []
    for _ in range(rounds):
        for _ in range(queries):
            ops.append(("distance", rng.choice(nodes), rng.choice(nodes)))
        # A persistent working set: rows that survive many patches in a
        # row exercise repeated in-place repair.
        for node in hot_rows:
            ops.append(("distance", node, rng.choice(nodes)))
        if rng.random() < 0.3:
            ops.append(("full", rng.choice(nodes)))
        changed = {}
        for key in rng.sample(edges, rng.randint(1, 6)):
            if direction == "up":
                factor = rng.uniform(1.05, 2.5)
            else:
                factor = rng.uniform(0.3, 2.5)
            cost_now[key] = cost_now[key] * factor
            changed[key] = cost_now[key]
        ops.append(("patch", changed))
    return ops


def _replay(oracle, ops, check_cold=False):
    """Apply one op stream; returns the row-state snapshot per patch.

    ``check_cold`` additionally checks every cached row against a cold
    rebuild after each patch.
    """
    snapshots = []
    for op in ops:
        if op[0] == "distance":
            oracle.distance(op[1], op[2])
        elif op[0] == "full":
            oracle.distances_from(op[1])
        else:
            oracle.patch_edge_costs(op[1])
            snapshots.append(row_states(oracle))
            if check_cold:
                assert_rows_match_cold(oracle)
    return snapshots


@pytest.mark.parametrize("base", [100, 300])
@pytest.mark.parametrize("reseed", [False, True])
@pytest.mark.parametrize("direction", ["up", "mixed"])
def test_patch_streams_match_cold_rebuild(direction, reseed, base):
    """Randomized patch streams: every row matches a cold rebuild after
    every patch, and served values end exact.

    ``up`` streams repair through the increase repairer alone;
    ``mixed`` streams run the decrease pass before it.  ``reseed`` and
    the seed ``base`` pick one of four seeded streams per direction.
    """
    for trial in range(4):
        rng = random.Random(base * trial + (direction == "up") + 2 * reseed)
        graph = random_graph(rng)
        hot = rng.sample(list(graph.nodes()), 5)
        ops = _patch_stream(rng, graph, rounds=8, direction=direction)
        oracle = FrozenOracle(graph.copy(), hot=hot)
        _replay(oracle, ops, check_cold=True)
        fresh = FrozenOracle(oracle.graph.copy(), hot=hot)
        for source in rng.sample(list(graph.nodes()), 6):
            expected = fresh.distances_from(source)
            assert oracle.distances_from(source) == expected


@pytest.mark.parametrize("uplink", [3.0, INF])
def test_pod_uplink_patch_matches_cold_rebuild(uplink):
    """A pod behind a single uplink: one patch detaches the whole pod
    from every outside row, and the complement from every pod row.

    Star-of-trees: "hub" with three leaf spokes and a pod (chain of 3
    with a leaf each) behind the uplink hub-p0.  Growing the uplink
    repairs all seven rows, each region a bridge-detached subtree, and
    leaves every row equal to a cold rebuild.  Failing the uplink
    leaves each row's far side unreachable.
    """
    graph = Graph.from_edges([
        ("hub", "s0", 1.0), ("hub", "s1", 1.2), ("hub", "s2", 1.4),
        ("hub", "p0", 1.0), ("p0", "p1", 1.1), ("p1", "p2", 1.2),
        ("p0", "q0", 0.5), ("p1", "q1", 0.5), ("p2", "q2", 0.5),
    ])
    sources = ("hub", "s0", "s1", "s2", "p0", "p1", "q2")
    oracle = FrozenOracle(graph)
    for node in sources:
        oracle.distances_from(node)
    if uplink == INF:
        oracle.patch_topology(removed=[("hub", "p0")])
    else:
        oracle.patch_edge_costs({("hub", "p0"): uplink})
    assert len(oracle._rows) == len(sources)
    assert_rows_match_cold(oracle)
    fresh = FrozenOracle(oracle.graph.copy())
    for node in sources:
        assert oracle.distances_from(node) == fresh.distances_from(node)
    if uplink == INF:
        assert oracle.distance("s0", "q2") == INF


def test_sparse_then_dense_patches_repair_exactly():
    """A sparse patch (one row's tree edge), then a dense one (every
    surviving row's): the scan pass finds each affected row and the
    repairs serve exact distances."""
    graph = Graph.from_edges([
        ("a", "b", 1.0), ("b", "c", 1.0), ("c", "d", 1.0), ("a", "d", 5.0),
        ("x", "y", 1.0),
    ])
    oracle = FrozenOracle(graph)
    # Three full rows: a, b and x (x's component is isolated, so a patch
    # of x-y is a tree edge in only one of the three).
    assert oracle.distances_from("a")["c"] == 2.0
    assert oracle.distances_from("b")["d"] == 2.0
    assert oracle.distances_from("x")["y"] == 1.0
    oracle.patch_edge_costs({("x", "y"): 2.0})
    # Sparse patch (1 of 3 rows repaired).
    assert oracle.distance("x", "y") == 2.0
    assert oracle.distances_from("a")["c"] == 2.0  # untouched row, exact
    oracle.distances_from("b")
    oracle.patch_edge_costs({("b", "c"): 1.5})
    # Dense patch (b-c is a tree edge of both surviving component rows).
    assert oracle.distance("a", "c") == 2.5
    assert oracle.distance("a", "d") == 3.5
    assert oracle.distance("b", "d") == 2.5


# ----------------------------------------------------------------------
# contracted mode
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def contracted_instance():
    network = inet_network(
        num_nodes=400, num_links=800, num_datacenters=120, seed=5
    )
    return network.make_instance(
        num_sources=4, num_destinations=5, num_vms=10,
        chain=ServiceChain.of_length(3), seed=21,
    )


def test_contracted_patches_match_cold_rebuild(contracted_instance):
    """Contracted cores: after each mixed batch every row, and every
    served distance, equals a fresh oracle's exactly -- the patch
    rebuilds the contraction from the patched graph."""
    instance = contracted_instance
    hot = instance.vms | instance.sources | instance.destinations
    special = sorted(hot, key=repr)
    oracle = FrozenOracle(instance.graph.copy(), hot=hot)
    assert oracle.contracted is not None
    oracle.prefetch_rows(special)
    rng = random.Random(13)
    cost_now = {(u, v): c for u, v, c in oracle.graph.edges()}
    edges = list(cost_now)
    for _ in range(4):
        changed = {}
        for key in rng.sample(edges, 10):
            cost_now[key] = cost_now[key] * rng.uniform(0.4, 2.5)
            changed[key] = cost_now[key]
        oracle.patch_edge_costs(dict(changed))
        assert_rows_match_cold(oracle)
        fresh = FrozenOracle(oracle.graph.copy(), hot=hot)
        for source in special[:4]:
            assert oracle.distances_from(source) == fresh.distances_from(source)
        assert_rows_match_cold(oracle)


# ----------------------------------------------------------------------
# mixed batches and tenant churn: one engine for both directions
# ----------------------------------------------------------------------
def test_mixed_batch_repairs_on_planned_path():
    """A batch mixing an increase and a decrease repairs its rows on the
    one path -- the recorder counts ``path=planned`` repairs only --
    and stays exact."""
    recorder = Recorder(registry=MetricsRegistry())
    rng = random.Random(61)
    graph = random_graph(rng)
    oracle = FrozenOracle(graph, metrics=recorder)
    for node in list(graph.nodes())[:12]:
        oracle.distances_from(node)
    source = next(iter(oracle._rows))
    row = oracle._rows[source]
    child = next(v for v, p in enumerate(row.parent) if p >= 0)
    core = oracle.core
    tree_edge = (core.nodes[child], core.nodes[row.parent[child]])
    other = next(
        (u, v) for u, v, _ in graph.edges()
        if canonical_edge(u, v) != canonical_edge(*tree_edge)
    )
    oracle.patch_edge_costs({
        tree_edge: graph.cost(*tree_edge) * 3.0,
        other: graph.cost(*other) * 0.5,
    })
    repairs = {
        key: count
        for key, count in recorder.snapshot()["counters"].items()
        if key.startswith("oracle.repair.rows")
    }
    assert repairs, "the increased tree edge must repair at least one row"
    assert all("path=planned" in key for key in repairs), repairs
    assert_rows_match_cold(oracle)


def _churn_costs(seed=23, requests=9, **simulator_kwargs):
    """One randomized arrive/depart stream through the online simulator.

    Lease releases make the next sync a decrease-carrying batch, while
    arrival commits stay pure increases, so one stream exercises the
    decrease pass both on and off.  The stream is a pure function of the
    seeds: every configuration replays the identical workload.
    """
    from repro import sofda
    from repro.online import OnlineSimulator, RequestGenerator
    from repro.topology import softlayer_network

    network = softlayer_network(seed=3)
    simulator = OnlineSimulator(network, **simulator_kwargs)
    generator = RequestGenerator(network, seed=5, destinations_range=(3, 4),
                                 sources_range=(2, 2))
    rng = random.Random(seed)
    active, costs = [], []
    for _ in range(requests):
        request = generator.next_request()
        instance = simulator.current_instance(request)
        forest = sofda(instance).forest
        costs.append(forest.total_cost())
        active.append(simulator.commit(forest, request))
        while active and rng.random() < 0.45:
            simulator.release(active.pop(rng.randrange(len(active))))
    return costs


def test_churn_costs_match_invalidate_reference():
    """Arrive/depart streams through the in-place repair must equal the
    invalidate-per-change cold rebuild, cost for cost."""
    assert _churn_costs() == _churn_costs(incremental=False)
