"""Tests for the online deployment simulator."""

import random

import pytest

from repro import sofda
from repro.baselines import est_baseline
from repro.graph import FrozenOracle
from repro.graph.graph import edge_sort_key
from repro.online import OnlineSimulator, RequestGenerator, run_online_comparison
from repro.topology import softlayer_network


@pytest.fixture
def network():
    return softlayer_network(seed=3)


def test_request_generator_deterministic(network):
    a = RequestGenerator(network, seed=5).take(4)
    b = RequestGenerator(network, seed=5).take(4)
    assert [(r.sources, r.destinations) for r in a] == [
        (r.sources, r.destinations) for r in b
    ]
    c = RequestGenerator(network, seed=6).take(4)
    assert [(r.sources, r.destinations) for r in a] != [
        (r.sources, r.destinations) for r in c
    ]


def test_request_generator_paper_ranges(network):
    gen = RequestGenerator(network, seed=0)
    for request in gen.take(10):
        assert 13 <= len(request.destinations) <= 17
        assert 8 <= len(request.sources) <= 12
        assert len(request.chain) == 3
        assert request.demand_mbps == 5.0


def test_request_generator_custom_ranges(network):
    gen = RequestGenerator(network, seed=0, destinations_range=(2, 3),
                           sources_range=(1, 2), chain_length=2)
    request = gen.next_request()
    assert 2 <= len(request.destinations) <= 3
    assert 1 <= len(request.sources) <= 2
    # Small enough to stay disjoint.
    assert set(request.sources).isdisjoint(request.destinations)


def test_request_ranges_validated(network):
    with pytest.raises(ValueError):
        RequestGenerator(network, seed=0, destinations_range=(30, 40),
                         sources_range=(1, 2))


def test_simulator_builds_vm_pool(network):
    sim = OnlineSimulator(network, vms_per_datacenter=5)
    assert len(sim.vms) == 5 * len(network.datacenters)


def test_simulator_commit_raises_loads(network):
    sim = OnlineSimulator(network)
    gen = RequestGenerator(network, seed=2, destinations_range=(3, 3),
                           sources_range=(2, 2))
    request = gen.next_request()
    instance = sim.current_instance(request)
    forest = sofda(instance).forest
    assert not sim.tracker.link_load
    sim.commit(forest, request)
    assert sim.tracker.link_load
    assert sim.tracker.node_load
    # Every used VM got one slot of load.
    for vm in forest.enabled:
        assert sim.tracker.node_load[vm] == 1.0


def test_costs_rise_with_load(network):
    sim = OnlineSimulator(network)
    gen = RequestGenerator(network, seed=2, destinations_range=(3, 3),
                           sources_range=(2, 2))
    request = gen.next_request()
    first = sim.embed(request, lambda inst: sofda(inst).forest)
    # Re-embedding the identical request now sees loaded links.
    second = sim.embed(request, lambda inst: sofda(inst).forest)
    assert second >= first - 1e-9


def test_run_online_comparison_isolates_state(network):
    gen = RequestGenerator(network, seed=7, destinations_range=(3, 4),
                           sources_range=(2, 2))
    requests = gen.take(3)
    results = run_online_comparison(
        lambda: softlayer_network(seed=3),
        {
            "SOFDA": lambda inst: sofda(inst).forest,
            "eST": est_baseline,
        },
        requests,
    )
    assert set(results) == {"SOFDA", "eST"}
    for res in results.values():
        assert len(res.accumulative_cost) == 3
        assert res.rejected == 0
        # Accumulative series is nondecreasing.
        assert all(
            b >= a - 1e-9
            for a, b in zip(res.accumulative_cost, res.accumulative_cost[1:])
        )


def test_incremental_patch_matches_full_rebuild(network):
    """The patch path must replay a trace exactly like invalidate() did."""

    def trace(incremental):
        net = softlayer_network(seed=3)
        sim = OnlineSimulator(net, incremental=incremental)
        gen = RequestGenerator(net, seed=7, destinations_range=(4, 5),
                               sources_range=(2, 3))
        return [
            sim.embed(request, lambda inst: sofda(inst).forest)
            for request in gen.take(6)
        ]

    assert trace(True) == trace(False)


def test_incremental_trace_matches_invalidate_reference():
    """The in-place repair replays a trace bit-identically to the
    invalidate-per-change reference."""
    def trace(incremental):
        net = softlayer_network(seed=3)
        sim = OnlineSimulator(net, incremental=incremental)
        gen = RequestGenerator(net, seed=7, destinations_range=(4, 5),
                               sources_range=(2, 3))
        return [
            sim.embed(request, lambda inst: sofda(inst).forest)
            for request in gen.take(6)
        ]

    assert trace(True) == trace(False)


def test_cost_sync_batches_in_canonical_edge_order(monkeypatch):
    """Every cost-sync batch reaches the oracle in ``edge_sort_key``
    order, so repaired tie-breaks cannot depend on the hash seed.

    The dirty-link set holds VM attachment edges keyed by ``('vm', dc,
    k)`` tuples, whose ``str`` hash is salted per process; iterating the
    set would order each batch by hash bucket instead.
    """
    batches = []
    patch = FrozenOracle.patch_edge_costs

    def spy(self, changed):
        batches.append(list(changed))
        return patch(self, changed)

    monkeypatch.setattr(FrozenOracle, "patch_edge_costs", spy)
    net = softlayer_network(seed=3)
    sim = OnlineSimulator(net)
    gen = RequestGenerator(net, seed=5, destinations_range=(3, 4),
                           sources_range=(2, 2))
    rng = random.Random(23)
    active = []
    for request in gen.take(6):
        instance = sim.current_instance(request)
        active.append(sim.commit(sofda(instance).forest, request))
        while active and rng.random() < 0.45:
            sim.release(active.pop(rng.randrange(len(active))))
    sim.current_instance(gen.next_request())  # sync the last releases
    assert sum(len(batch) > 1 for batch in batches) >= 3
    for batch in batches:
        assert batch == sorted(batch, key=edge_sort_key)


def test_apply_background_load_reprices_and_repairs(network):
    """Background churn reprices the live graph and repairs cached rows."""
    sim = OnlineSimulator(network)
    gen = RequestGenerator(network, seed=2, destinations_range=(3, 3),
                           sources_range=(2, 2))
    assert sim.embed(gen.next_request(), lambda inst: sofda(inst).forest) \
        is not None
    graph_before = sim._graph
    oracle_before = sim._oracle
    rows_before = len(sim._oracle._rows)
    link = next(iter(graph_before.edges()))[:2]
    cost_before = graph_before.cost(*link)
    sim.apply_background_load([link], demand_mbps=40.0)
    # Same live graph/oracle objects, repriced link, pool rows kept.
    assert sim._graph is graph_before
    assert sim._oracle is oracle_before
    assert graph_before.cost(*link) == max(
        sim.tracker.link_cost(*link), sim._cost_floor
    )
    assert graph_before.cost(*link) > cost_before
    assert len(sim._oracle._rows) >= rows_before
    # The repaired oracle answers like a cold one over the live graph.
    fresh = FrozenOracle(graph_before.copy(), hot=sim.vms)
    vms = sim.vms
    for vm in vms[:3]:
        assert sim._oracle.distance(vm, vms[-1]) == pytest.approx(
            fresh.distance(vm, vms[-1]), rel=0, abs=1e-12
        )


def test_sync_costs_patches_graph_in_place(network):
    sim = OnlineSimulator(network)
    gen = RequestGenerator(network, seed=2, destinations_range=(3, 3),
                           sources_range=(2, 2))
    request = gen.next_request()
    first = sim.embed(request, lambda inst: sofda(inst).forest)
    assert first is not None
    graph_before = sim._graph
    oracle_before = sim._oracle
    # The next sync must patch the same live graph and oracle objects.
    sim.current_instance(gen.next_request())
    assert sim._graph is graph_before
    assert sim._oracle is oracle_before
    # Loaded links now carry their Fortz--Thorup cost in the live graph.
    loaded = next(iter(sim.tracker.link_load))
    assert sim._graph.cost(*loaded) == max(
        sim.tracker.link_cost(*loaded), sim._cost_floor
    )


def test_rejection_counted(network):
    sim = OnlineSimulator(network)
    gen = RequestGenerator(network, seed=1, destinations_range=(2, 2),
                           sources_range=(2, 2))
    request = gen.next_request()

    def broken(instance):
        raise RuntimeError("embedder exploded")

    assert sim.embed(request, broken) is None


# ----------------------------------------------------------------------
# VM-pool residency across back-to-back oracle patches
# ----------------------------------------------------------------------
EMBED = lambda inst: sofda(inst).forest  # noqa: E731


def _pool_simulator():
    """An 18-VM simulator over a 300-node Inet, its pool rows warmed."""
    from repro.topology import inet_network

    net = inet_network(num_nodes=300, num_links=600, num_datacenters=6,
                       seed=0)
    sim = OnlineSimulator(net, vms_per_datacenter=3)
    sim.apply_background_load((), 0.0)  # warm the VM-pool rows
    gen = RequestGenerator(net, seed=0, destinations_range=(2, 3),
                           sources_range=(2, 2))
    return sim, gen


def _pool_rows(sim):
    """The oracle's cached row object of every VM (``None`` if absent)."""
    oracle = sim._oracle
    contracted = oracle.contracted
    index = contracted.index if contracted is not None else oracle.core.index
    return {vm: oracle._rows.get(index[vm]) for vm in sim.vms}


def _physical_link(lease):
    """A link ``lease`` loads between two topology nodes (no VM edge)."""
    return next(
        (u, v) for (u, v), _ in lease.link_loads
        if not any(isinstance(n, tuple) for n in (u, v))
    )


def _fail_while_commit_unsynced(sim, gen):
    _, lease = sim.embed_leased(gen.next_request(), EMBED)
    sim.fail_link(*_physical_link(lease))


def _fail_embed_recover(sim, gen):
    link = min(
        ((u, v) for u, v, _ in sim._network.graph.edges()), key=repr
    )
    sim.fail_link(*link)
    assert sim.embed_leased(gen.next_request(), EMBED)[0] is not None
    sim.recover_link(*link)


def _background_release_embed(sim, gen):
    _, lease = sim.embed_leased(gen.next_request(), EMBED)
    sim.apply_background_load([_physical_link(lease)], 3.0)
    sim.release(lease)
    assert sim.embed_leased(gen.next_request(), EMBED)[0] is not None


def _fail_release_embed(sim, gen):
    _, lease = sim.embed_leased(gen.next_request(), EMBED)
    sim.fail_link(*_physical_link(lease))
    if not lease.released:  # the failure may have dropped the tenant
        sim.release(lease)
    assert sim.embed_leased(gen.next_request(), EMBED)[0] is not None


def _recover_release_embed(sim, gen):
    link = min(
        ((u, v) for u, v, _ in sim._network.graph.edges()), key=repr
    )
    sim.fail_link(*link)
    _, lease = sim.embed_leased(gen.next_request(), EMBED)
    sim.recover_link(*link)
    sim.release(lease)
    assert sim.embed_leased(gen.next_request(), EMBED)[0] is not None


@pytest.mark.parametrize("sequence", [
    _fail_while_commit_unsynced,
    _fail_embed_recover,
    _background_release_embed,
    _fail_release_embed,
    _recover_release_embed,
], ids=["fail-unsynced-commit", "fail-embed-recover",
        "background-release-embed", "fail-release-embed",
        "recover-release-embed"])
def test_pool_rows_survive_back_to_back_patches(sequence):
    """Two oracle patches with no query in between keep the VM pool.

    The oracle drops rows left unserved across a patch interval, and
    each sequence issues two patches in a row (a cost sync, then a
    topology patch or another sync).  The simulator touches the pool
    after every patch no query follows and between back-to-back
    patches, so each pool row stays resident and is repaired in place
    -- the very same row object, never a cold rebuild -- and the
    repaired rows serve what a cold oracle would.
    """
    sim, gen = _pool_simulator()
    before = _pool_rows(sim)
    assert all(row is not None for row in before.values())
    idle_before = sim.cache_snapshot()["idle_evictions"]
    sequence(sim, gen)
    after = _pool_rows(sim)
    kept = [vm for vm in sim.vms if after[vm] is before[vm]]
    assert len(kept) == len(sim.vms), (
        f"{len(kept)} of {len(sim.vms)} pool rows survived"
    )
    idle = sim.cache_snapshot()["idle_evictions"] - idle_before
    assert idle < len(sim.vms)
    nodes = list(sim._graph.nodes())
    fresh = FrozenOracle(sim._graph.copy(), hot=sim.vms)
    for vm in sim.vms:
        assert sim._oracle.distances_to(vm, nodes) == pytest.approx(
            fresh.distances_to(vm, nodes), rel=0, abs=1e-12
        )
