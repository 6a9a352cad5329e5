"""Tests for incremental oracle invalidation (``patch_edge_costs``).

The contract: after patching edge *costs* (topology fixed), the oracle
must answer exactly as a fresh :class:`FrozenOracle` built over the
updated graph would -- in both the replicated-order mode and the
degree-2-contracted mode.  The uncontracted core repairs in place and
keeps every cached row the change provably cannot affect; a contracted
oracle rebuilds from the patched graph.
"""

import random

import pytest

from repro.core.dynamic import reroute_congested_link
from repro.core.problem import ServiceChain
from repro.graph import DistanceOracle, FrozenOracle, Graph
from repro.graph.shortest_paths import walk_cost
from repro.topology import inet_network, softlayer_network

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


def perturb(rng, graph, count, direction=None):
    """Draw ``count`` random edge-cost changes (not yet applied)."""
    edges = list(graph.edges())
    changed = {}
    for u, v, cost in rng.sample(edges, min(count, len(edges))):
        if direction == "up":
            factor = rng.uniform(1.1, 3.0)
        elif direction == "down":
            factor = rng.uniform(0.2, 0.9)
        else:
            factor = rng.uniform(0.2, 3.0)
        changed[(u, v)] = cost * factor
    return changed


# ----------------------------------------------------------------------
# replicated (uncontracted) mode
# ----------------------------------------------------------------------
@pytest.mark.parametrize("direction", [None, "up", "down"])
def test_patched_rows_match_fresh_oracle_uncontracted(direction):
    rng = random.Random(11 if direction is None else hash(direction) % 97)
    for trial in range(6):
        graph = random_graph(rng)
        nodes = list(graph.nodes())
        hot = rng.sample(nodes, 6)
        oracle = FrozenOracle(graph, hot=hot)
        assert oracle.contracted is None
        # Populate the row cache before patching.
        for _ in range(30):
            oracle.distance(rng.choice(nodes), rng.choice(nodes))
        changed = perturb(rng, graph, 8, direction)
        oracle.patch_edge_costs(changed)
        fresh = FrozenOracle(graph.copy(), hot=hot)
        for source in rng.sample(nodes, 8):
            # Full rows are bit-identical: a surviving row passed the
            # no-tree-use / no-improvement tests, so its distances are the
            # sums a fresh build performs too.
            assert oracle.distances_from(source) == fresh.distances_from(source)


def test_sequential_patches_stay_exact():
    rng = random.Random(23)
    graph = random_graph(rng)
    nodes = list(graph.nodes())
    oracle = FrozenOracle(graph, hot=rng.sample(nodes, 5))
    reference = DistanceOracle(graph)
    for _ in range(10):
        changed = perturb(rng, graph, 4)
        oracle.patch_edge_costs(changed)
        reference.invalidate()
        for _ in range(25):
            u, v = rng.choice(nodes), rng.choice(nodes)
            assert oracle.distance(u, v) == pytest.approx(
                reference.distance(u, v), rel=0, abs=1e-9
            )


def test_noop_patch_keeps_every_cached_row():
    rng = random.Random(5)
    graph = random_graph(rng)
    nodes = list(graph.nodes())
    oracle = FrozenOracle(graph, hot=rng.sample(nodes, 5))
    for _ in range(20):
        oracle.distance(rng.choice(nodes), rng.choice(nodes))
    before = dict(oracle._rows)
    unchanged = {(u, v): cost for u, v, cost in list(graph.edges())[:10]}
    assert oracle.patch_edge_costs(unchanged) == 0
    assert oracle._rows == before


def test_patch_only_evicts_affected_rows():
    # a-b-c path plus an isolated d-e edge: patching d-e must keep the
    # cached a-row (its tree cannot use d-e, and no distance can improve).
    graph = Graph.from_edges(
        [("a", "b", 1.0), ("b", "c", 1.0), ("d", "e", 1.0)]
    )
    oracle = FrozenOracle(graph)
    assert oracle.distance("a", "c") == 2.0
    row = next(iter(oracle._rows.values()))
    oracle.patch_edge_costs({("d", "e"): 5.0})
    assert next(iter(oracle._rows.values())) is row
    # Raising an on-tree edge evicts, and the answer tracks the new cost.
    oracle.patch_edge_costs({("a", "b"): 3.0})
    assert oracle.distance("a", "c") == 4.0


def test_patch_rejects_unknown_edges_atomically():
    graph = Graph.from_edges([("a", "b", 1.0), ("b", "c", 1.0)])
    oracle = FrozenOracle(graph)
    assert oracle.distance("a", "c") == 2.0
    with pytest.raises(KeyError):
        oracle.patch_edge_costs({("a", "b"): 10.0, ("a", "z"): 2.0})
    # The failed batch must not have mutated the graph or the oracle.
    assert graph.cost("a", "b") == 1.0
    assert oracle.distance("a", "c") == 2.0


# ----------------------------------------------------------------------
# batch canonicalisation (duplicate orientations)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("queried", [True, False])
def test_patch_duplicate_orientation_last_write_wins(queried):
    """A batch naming one edge in both orientations applies only the last.

    The regression: the uncanonicalised batch produced two ``applied``
    entries with the same pre-patch ``old`` cost, double-patched the CSR
    weights and inflated the returned count; when the two new costs
    straddled the old one it even classified a phantom decrease whose
    cost existed in neither the graph nor the batch's outcome.  Without
    ``queried`` the first batch reaches an unbuilt oracle, which takes
    the write-through path that never builds a core.
    """
    graph = Graph.from_edges([("a", "b", 1.0), ("b", "c", 1.0)])
    oracle = FrozenOracle(graph, hot={"a", "b"})
    if queried:
        assert oracle.distance("a", "c") == 2.0
    # Same edge, both orientations: one logical change, last write wins.
    assert oracle.patch_edge_costs({("a", "b"): 5.0, ("b", "a"): 3.0}) == 1
    assert graph.cost("a", "b") == 3.0
    assert oracle._built == queried
    fresh = FrozenOracle(graph.copy())
    for u in ("a", "b", "c"):
        assert oracle.distances_from(u) == fresh.distances_from(u)
    # Straddling duplicate: a decrease below the current cost followed by
    # an increase above it -- the batch must behave as a pure increase to
    # 4.0, not as a decrease-to-0.5 plus an increase.
    assert oracle.patch_edge_costs({("b", "c"): 0.5, ("c", "b"): 4.0}) == 1
    assert graph.cost("b", "c") == 4.0
    fresh = FrozenOracle(graph.copy())
    for u in ("a", "b", "c"):
        assert oracle.distances_from(u) == fresh.distances_from(u)
    # A duplicate whose last entry restores the current cost is a no-op.
    rows_before = dict(oracle._rows)
    assert oracle.patch_edge_costs({("a", "b"): 9.0, ("b", "a"): 3.0}) == 0
    assert graph.cost("a", "b") == 3.0
    assert oracle._rows == rows_before


def test_patch_duplicate_orientation_matches_sequential_patches():
    """The deduped batch equals applying the mapping entries in order."""
    rng = random.Random(77)
    graph = random_graph(rng)
    batched = FrozenOracle(graph.copy(), hot=[0, 1])
    sequential = FrozenOracle(graph.copy(), hot=[0, 1])
    nodes = list(graph.nodes())
    for oracle in (batched, sequential):
        for _ in range(20):
            oracle.distance(rng.choice(nodes), rng.choice(nodes))
    u, v, cost = next(iter(graph.edges()))
    batched.patch_edge_costs({(u, v): cost * 2.0, (v, u): cost * 3.0})
    sequential.patch_edge_costs({(u, v): cost * 2.0})
    sequential.patch_edge_costs({(v, u): cost * 3.0})
    for source in rng.sample(nodes, 6):
        assert (
            batched.distances_from(source)
            == sequential.distances_from(source)
        )


# ----------------------------------------------------------------------
# patching an unbuilt oracle (before the first query)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("batched", [False, True])
def test_patch_before_first_query(batched):
    """Patches on an unbuilt oracle land in the graph; ``_build`` sees them.

    ``patch_edge_costs`` writes the new costs into the graph before the
    ``not self._built`` early-return, so an oracle patched before its
    first query must build over the patched costs and answer exactly
    like a fresh oracle on the updated graph -- whether the changes come
    in one ``batched`` patch or one patch each, which must accumulate.
    """
    rng = random.Random(19)
    graph = random_graph(rng)
    nodes = list(graph.nodes())
    hot = rng.sample(nodes, 4)
    oracle = FrozenOracle(graph, hot=hot)
    changed = perturb(rng, graph, 6)
    # Every drawn change is real (factors never equal 1.0 here).
    if batched:
        assert oracle.patch_edge_costs(dict(changed)) == len(changed)
    else:
        for key, cost in changed.items():
            assert oracle.patch_edge_costs({key: cost}) == 1
    for (u, v), cost in changed.items():
        assert graph.cost(u, v) == float(cost)
    assert not oracle._built
    fresh = FrozenOracle(graph.copy(), hot=hot)
    for source in rng.sample(nodes, 8):
        assert oracle.distances_from(source) == fresh.distances_from(source)


def test_patch_before_first_query_rejects_unknown_edges():
    graph = Graph.from_edges([("a", "b", 1.0), ("b", "c", 1.0)])
    oracle = FrozenOracle(graph)
    with pytest.raises(KeyError):
        oracle.patch_edge_costs({("a", "b"): 10.0, ("a", "z"): 2.0})
    assert graph.cost("a", "b") == 1.0  # nothing written
    assert oracle.distance("a", "c") == 2.0


def test_patch_before_first_query_counts_real_changes():
    graph = Graph.from_edges([("a", "b", 1.0), ("b", "c", 1.0)])
    oracle = FrozenOracle(graph)
    # One real change, one no-op, one duplicated orientation.
    assert oracle.patch_edge_costs(
        {("a", "b"): 2.0, ("b", "a"): 4.0, ("b", "c"): 1.0}
    ) == 1
    assert graph.cost("a", "b") == 4.0
    assert graph.cost("b", "c") == 1.0
    assert oracle.distance("a", "c") == 5.0


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


def test_patched_contracted_matches_fresh(contracted_instance):
    instance = contracted_instance
    graph = instance.graph.copy()
    hot = instance.vms | instance.sources | instance.destinations
    oracle = FrozenOracle(graph, hot=hot)
    assert oracle.contracted is not None
    special = sorted(hot, key=repr)
    oracle.prefetch_rows(special)
    rng = random.Random(7)
    for _ in range(4):
        changed = perturb(rng, graph, 12)
        oracle.patch_edge_costs(changed)
        fresh = FrozenOracle(graph.copy(), hot=hot)
        assert fresh.contracted is not None
        for source in special[:6]:
            # Covers core nodes and chain interiors (full-row expansion).
            assert oracle.distances_from(source) == fresh.distances_from(source)
        for _ in range(20):
            u, v = rng.choice(special), rng.choice(special)
            d = oracle.distance(u, v)
            assert d == fresh.distance(u, v)
            if d < INF and u != v:
                path = oracle.path(u, v)
                assert path[0] == u and path[-1] == v
                assert walk_cost(graph, path) == pytest.approx(
                    d, rel=0, abs=1e-9
                )


def test_patch_interior_chain_edge_served_exactly(contracted_instance):
    instance = contracted_instance
    graph = instance.graph.copy()
    hot = instance.vms | instance.sources | instance.destinations
    oracle = FrozenOracle(graph, hot=hot)
    contracted = oracle.contracted
    # Pick an edge buried inside a contracted chain (interior-interior
    # when the longest chain allows it, anchor-interior otherwise).
    chain = max(contracted.chains, key=lambda c: len(c[2]))
    interiors = chain[2]
    if len(interiors) >= 2:
        u, v = interiors[0], interiors[1]
    else:
        u, v = contracted.nodes[chain[0]], interiors[0]
    old = graph.cost(u, v)
    oracle.patch_edge_costs({(u, v): old * 4.0})
    reference = DistanceOracle(graph)
    probe = sorted(instance.sources, key=repr)[0]
    for node in (u, v):
        assert oracle.distance(probe, node) == pytest.approx(
            reference.distance(probe, node), rel=0, abs=1e-9
        )


# ----------------------------------------------------------------------
# rebased clones (the dynamic-adjustment path)
# ----------------------------------------------------------------------
def test_rebased_leaves_original_untouched():
    rng = random.Random(31)
    graph = random_graph(rng)
    nodes = list(graph.nodes())
    hot = rng.sample(nodes, 5)
    oracle = FrozenOracle(graph, hot=hot)
    for _ in range(20):
        oracle.distance(rng.choice(nodes), rng.choice(nodes))
    u, v, cost = next(iter(graph.edges()))
    before = {n: oracle.distances_from(n) for n in rng.sample(nodes, 5)}

    copy = graph.copy()
    rebased = oracle.rebased(copy, {(u, v): cost * 10.0})
    assert copy.cost(u, v) == cost * 10.0
    assert graph.cost(u, v) == cost  # original graph untouched
    for n, row in before.items():
        assert oracle.distances_from(n) == row
    fresh = FrozenOracle(copy.copy(), hot=hot)
    for n in rng.sample(nodes, 8):
        assert rebased.distances_from(n) == fresh.distances_from(n)


def test_rebased_inherits_hot_set_and_budget():
    graph = Graph.from_edges([("a", "b", 1.0), ("b", "c", 1.0)])
    oracle = FrozenOracle(graph, hot={"c"}, row_budget_bytes=1 << 20)
    oracle.distance("a", "c")
    clone = oracle.rebased(graph.copy(), {("a", "b"): 2.0})
    assert clone._hot == {"c"}
    assert clone.row_budget_bytes == 1 << 20
    assert clone.distance("a", "c") == 3.0


def test_reroute_congested_link_uses_rebased_oracle():
    from repro import sofda

    network = softlayer_network(seed=3)
    instance = network.make_instance(
        num_sources=3, num_destinations=4, num_vms=8,
        chain=ServiceChain.of_length(2), seed=9,
    )
    forest = sofda(instance).forest
    link = next(iter(forest.chains[0].all_edges()))
    old_cost = instance.graph.cost(*link)
    new_instance, rerouted, = None, None
    new_instance, rerouted = reroute_congested_link(
        forest, link, old_cost * 20.0
    )
    assert new_instance.graph.cost(*link) == old_cost * 20.0
    assert instance.graph.cost(*link) == old_cost
    # The rebased oracle answers exactly like a cold oracle on the
    # updated graph.
    fresh = DistanceOracle(new_instance.graph)
    rng = random.Random(1)
    nodes = sorted(new_instance.graph.nodes(), key=repr)
    for _ in range(25):
        a, b = rng.choice(nodes), rng.choice(nodes)
        assert new_instance.oracle.distance(a, b) == pytest.approx(
            fresh.distance(a, b), rel=0, abs=1e-9
        )


# ----------------------------------------------------------------------
# tenant churn: decrease-carrying patch batches from lease releases
# ----------------------------------------------------------------------
def _churn_trace_costs(incremental, seed=17, requests=9):
    """Replay one arrive/depart stream; returns (costs, decrease_batches).

    Departures release leases, so the next cost sync hands the oracle a
    batch containing *decreases* -- the patch direction no arrivals-only
    workload produces.  The stream (requests and departure draws) is a
    pure function of the seeds, so both oracle modes see identical
    workloads.
    """
    from repro import sofda
    from repro.online import OnlineSimulator, RequestGenerator

    network = softlayer_network(seed=3)
    simulator = OnlineSimulator(network, incremental=incremental)
    generator = RequestGenerator(network, seed=5, destinations_range=(3, 4),
                                 sources_range=(2, 2))
    rng = random.Random(seed)
    decrease_batches = 0
    if incremental:
        oracle = simulator._oracle
        graph = simulator._graph
        original = oracle.patch_edge_costs

        def spying_patch(changed):
            nonlocal decrease_batches
            if any(cost < graph.cost(u, v) for (u, v), cost in changed.items()):
                decrease_batches += 1
            return original(changed)

        oracle.patch_edge_costs = spying_patch
    active, costs = [], []
    for _ in range(requests):
        request = generator.next_request()
        instance = simulator.current_instance(request)
        forest = sofda(instance).forest
        costs.append(forest.total_cost())
        active.append(simulator.commit(forest, request))
        while active and rng.random() < 0.45:
            simulator.release(active.pop(rng.randrange(len(active))))
    return costs, decrease_batches


def test_churn_decrease_batches_match_full_rebuild():
    """Patching through decreases must equal the invalidate reference."""
    patched, decrease_batches = _churn_trace_costs(incremental=True)
    rebuilt, _ = _churn_trace_costs(incremental=False)
    # The stream must actually exercise the decrease path, not just
    # happen to pass without it.
    assert decrease_batches >= 2
    assert patched == rebuilt
