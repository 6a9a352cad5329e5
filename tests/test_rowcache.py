"""Tests for the budgeted RowCache layer and its oracle integration.

Contract under test: ``row_budget_bytes=None`` is bit-identical to the
historical unbounded dict; a budget only ever changes *residency* --
every evicted row recomputes on demand to identical labels, so a
budgeted oracle (and a budgeted online simulator) serves exactly the
same distances, forest costs and acceptance decisions as the unbounded
reference, while its accounted bytes never exceed the budget between
patches.  A dropped oracle releases its rows by reference counting
alone: nothing in the oracle forms a reference cycle.
"""

import gc
import random
import weakref

import pytest

from repro import ServiceChain, sofda
from repro.graph import FrozenOracle, Graph, RowCache, indexed
from repro.graph.rowcache import ROW_OVERHEAD_BYTES, row_nbytes
from repro.graph.shortest_paths import DistanceOracle
from repro.online import OnlineSimulator, RequestGenerator
from repro.topology import softlayer_network
from repro.workload import (
    BackgroundChurn,
    ExponentialHolding,
    LinkFailureProcess,
    PoissonArrivals,
    WorkloadEngine,
    build_schedule,
)

SOFDA = lambda inst: sofda(inst).forest  # noqa: E731


class _FakeRow:
    """Minimal stand-in carrying the _Row attributes RowCache reads."""

    def __init__(self, n, used=False):
        self.dist = [0.0] * n
        self.parent = [-1] * n
        self.used = used


# ----------------------------------------------------------------------
# byte accounting
# ----------------------------------------------------------------------
def test_row_nbytes_model():
    assert row_nbytes(10) == 16 * 10 + ROW_OVERHEAD_BYTES


def test_accounting_tracks_mutations_exactly():
    cache = RowCache()
    cache[1] = _FakeRow(12)
    cache[2] = _FakeRow(10)
    assert cache.total_bytes == row_nbytes(12) + row_nbytes(10)
    assert cache.peak_bytes == cache.total_bytes
    # Replacing a row swaps its bytes, not adds them.
    cache[1] = _FakeRow(10)
    assert cache.total_bytes == 2 * row_nbytes(10)
    peak = cache.peak_bytes
    del cache[1]
    assert cache.total_bytes == row_nbytes(10)
    assert len(cache.pop(2).dist) == 10
    assert cache.total_bytes == 0
    assert cache.pop(2, None) is None
    with pytest.raises(KeyError):
        cache.pop(2)
    assert cache.peak_bytes == peak  # peak is a lifetime high-water mark


def test_clear_resets_residency_not_history():
    cache = RowCache()
    cache[1] = _FakeRow(5)
    cache.evict(1, "idle")
    cache[2] = _FakeRow(5)
    cache.clear()
    assert cache.total_bytes == 0 and len(cache) == 0
    assert cache.evictions == 1 and cache.idle_evictions == 1


def test_get_counts_hits_and_misses():
    cache = RowCache()
    cache[1] = _FakeRow(5)
    assert cache.get(1) is not None
    assert cache.get(9) is None
    assert cache.get(9, "fallback") == "fallback"
    assert cache.hits == 1 and cache.misses == 2
    # Recency ticks only accrue under a budget.
    assert not cache._served
    budgeted = RowCache(budget_bytes=10 ** 6)
    budgeted[1] = _FakeRow(5)
    budgeted.get(1)
    assert budgeted._served[1] == 1


def test_peek_counts_nothing():
    cache = RowCache(budget_bytes=10 ** 6)
    row = _FakeRow(5)
    cache[1] = row
    assert cache.peek(1) is row
    assert cache.peek(9) is None
    assert cache.hits == 0 and cache.misses == 0
    assert not cache._served


@pytest.mark.parametrize("contracted", [False, True])
def test_cold_queries_build_the_source_row_and_miss_once_per_lookup(
    monkeypatch, contracted
):
    """On either core a cold ``distance`` counts the misses of its two
    endpoint lookups and builds its source's row without a third lookup
    -- also for a non-hot source and a hot target that was queried more
    often.  A cold ``path`` builds its source's row too, after looking
    up both endpoint rows on the contracted core and only the source's
    on the uncontracted one, which never serves a path from the
    target's row.  ``prefetch_rows`` counts one miss per missing row."""
    if contracted:
        monkeypatch.setattr(indexed, "CONTRACT_MIN_INTERIOR", 1)
    graph = Graph()
    for i in range(20):  # a path of relays with a few chords
        graph.add_edge(i, i + 1, 1.0 + 0.01 * i)
    for a, b in ((0, 7), (4, 13), (9, 18)):
        graph.add_edge(a, b, 3.0 + 0.1 * a)
    hot = [0, 5, 10, 15, 20]
    oracle = FrozenOracle(graph, hot=hot)
    assert (oracle.contracted is not None) == contracted
    index = oracle.contracted.index if contracted else oracle.core.index
    rows = oracle._rows
    for query, misses, source in (
        (lambda: oracle.distance(0, 10), 2, 0),
        (lambda: oracle.distance(7, 10), 2, 7),  # 7: degree 3, not hot
        (lambda: oracle.path(5, 15), 2 if contracted else 1, 5),
        (lambda: oracle.prefetch_rows([20]), 1, 20),
    ):
        before, resident = rows.misses, set(rows)
        query()
        assert rows.misses - before == misses
        assert set(rows) - resident == {index[source]}


def test_budget_must_be_positive():
    with pytest.raises(ValueError):
        RowCache(budget_bytes=0)
    with pytest.raises(ValueError):
        RowCache(budget_bytes=-5)


# ----------------------------------------------------------------------
# eviction policy
# ----------------------------------------------------------------------
def test_evict_reasons():
    cache = RowCache()
    for sid in (1, 2):
        cache[sid] = _FakeRow(5)
    cache.evict(1, "idle")
    cache.evict(2, "budget")
    assert cache.evictions == 2
    assert (cache.idle_evictions, cache.budget_evictions) == (1, 1)
    assert cache.total_bytes == 0


def test_enforce_prefers_unused_then_lru():
    n = 100
    cache = RowCache(budget_bytes=row_nbytes(n))
    # Three rows, one slot: the unused row must go first...
    cache[1] = _FakeRow(n, used=True)
    cache[2] = _FakeRow(n, used=False)
    cache[3] = _FakeRow(n, used=True)
    assert sorted(cache) == [1, 2, 3]
    cache.enforce()
    assert 2 not in cache and cache.total_bytes <= cache.budget_bytes
    # ... then the least recently served, whatever the row sizes...
    cache.clear()
    cache[5] = _FakeRow(n, used=True)
    cache[6] = _FakeRow(n // 2, used=True)
    cache.get(6)  # 5 is now the least recently served
    cache.enforce()
    assert 6 in cache and 5 not in cache
    # ... and the stable id breaks exact ties.
    cache.clear()
    cache[8] = _FakeRow(n, used=True)
    cache[7] = _FakeRow(n, used=True)
    cache.enforce()
    assert 8 in cache and 7 not in cache


def test_enforce_respects_protection_and_counts_overshoot():
    n = 50
    cache = RowCache(budget_bytes=row_nbytes(n))
    cache[1] = _FakeRow(n)
    cache[2] = _FakeRow(n)
    assert cache.enforce(protect=(1, 2)) == 0
    assert cache.overshoots == 1 and len(cache) == 2
    assert cache.enforce() == 1
    assert cache.total_bytes <= cache.budget_bytes
    assert cache.overshoots == 1


def test_stats_shape():
    cache = RowCache(budget_bytes=12345)
    stats = cache.stats()
    for key in ("rows", "budget_bytes", "total_bytes", "peak_bytes",
                "hits", "misses", "evictions", "idle_evictions",
                "budget_evictions", "overshoots"):
        assert key in stats
    assert stats["budget_bytes"] == 12345


# ----------------------------------------------------------------------
# oracle integration: budgeted == unbounded, bytes bounded
# ----------------------------------------------------------------------
def _random_graph(rng, num_nodes=40, edge_probability=0.15):
    graph = Graph()
    for i in range(num_nodes):
        graph.add_node(i)
    for i in range(num_nodes):
        for j in range(i + 1, num_nodes):
            if rng.random() < edge_probability:
                graph.add_edge(i, j, rng.uniform(0.1, 5.0))
    return graph


def _per_row_bytes(graph):
    """Accounted bytes of one cached row of ``graph`` (probe oracle)."""
    probe = FrozenOracle(graph)
    probe.distances_from(0)
    stats = probe.cache_snapshot()
    assert stats["rows"] >= 1
    return stats["total_bytes"] // stats["rows"]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_budgeted_oracle_matches_unbounded_across_patches(seed):
    rng = random.Random(seed)
    graph = _random_graph(rng)
    nodes = sorted(graph.nodes())
    budget = 4 * _per_row_bytes(graph)
    reference = FrozenOracle(graph.copy())
    budgeted = FrozenOracle(graph, row_budget_bytes=budget)
    assert budgeted.row_budget_bytes == budget

    for _ in range(6):
        # Query more source rows than the budget holds, forcing
        # evictions; every row (including recomputes of evicted rows)
        # must be bit-identical to the unbounded oracle's.  Cross-row
        # ``distance(u, v)`` is deliberately not compared here: the
        # undirected-symmetry contract lets residency pick the serving
        # direction, and opposite directions may differ in the last ulp
        # on either oracle.
        for s in rng.sample(nodes, 8):
            assert budgeted.distances_from(s) == reference.distances_from(s)
        stats = budgeted.cache_snapshot()
        assert stats["total_bytes"] <= budget
        # Randomized edge-cost churn, both directions.
        changed = {}
        for u, v, cost in rng.sample(list(graph.edges()), 5):
            changed[(u, v)] = cost * rng.uniform(0.3, 2.5)
        budgeted.patch_edge_costs(changed)
        reference.patch_edge_costs(changed)
        assert budgeted.cache_snapshot()["total_bytes"] <= budget

    stats = budgeted.cache_snapshot()
    assert stats["budget_evictions"] > 0
    assert stats["overshoots"] == 0
    # Evicted rows recompute to identical full rows: cross-check a
    # fresh dict oracle over the final costs.
    fresh = DistanceOracle(graph)
    for s in nodes[:6]:
        row = budgeted.distances_from(s)
        expect = fresh.distances_from(s)
        assert all(
            row.get(t, float("inf")) == expect.get(t, float("inf"))
            for t in nodes
        )


def test_unbounded_default_is_plain_dict_behavior():
    rng = random.Random(3)
    graph = _random_graph(rng)
    oracle = FrozenOracle(graph)
    assert oracle.row_budget_bytes is None
    for s in range(10):
        oracle.distances_from(s)
    stats = oracle.cache_snapshot()
    assert stats["budget_evictions"] == 0 and stats["overshoots"] == 0
    assert stats["rows"] == len(oracle._rows)


def test_rebased_clone_inherits_and_respects_budget():
    rng = random.Random(4)
    graph = _random_graph(rng)
    budget = 3 * _per_row_bytes(graph)
    oracle = FrozenOracle(graph, row_budget_bytes=budget)
    for s in range(8):
        oracle.distances_from(s)
    changed = {}
    for u, v, cost in rng.sample(list(graph.edges()), 4):
        changed[(u, v)] = cost * 1.7
    clone = oracle.rebased(graph.copy(), changed)
    assert clone.row_budget_bytes == budget
    assert clone.cache_snapshot()["total_bytes"] <= budget
    # The clone answers over the patched costs, same as a fresh oracle.
    patched = graph.copy()
    for (u, v), cost in changed.items():
        patched.add_edge(u, v, cost)
    fresh = DistanceOracle(patched)
    for s in range(8):
        row = clone.distances_from(s)
        expect = fresh.distances_from(s)
        assert all(
            row.get(t, float("inf")) == expect.get(t, float("inf"))
            for t in sorted(graph.nodes())
        )


# ----------------------------------------------------------------------
# simulator integration: budgeted churn/failure streams are equivalent
# ----------------------------------------------------------------------
def _simulator_budget(network, rows):
    """A budget of ``rows`` rows of the simulator's (VM-attached) graph."""
    sim = OnlineSimulator(network, vms_per_datacenter=2)
    sim.apply_background_load((), 0.0)  # warm the VM-pool rows
    stats = sim.cache_snapshot()
    return rows * (stats["total_bytes"] // stats["rows"])


def _churn_schedule(network, seed, failures=False):
    generator = RequestGenerator(network, seed=seed,
                                 destinations_range=(3, 4),
                                 sources_range=(2, 2))
    process = PoissonArrivals(generator, rate=0.8, seed=seed + 1)
    holding = ExponentialHolding(mean=3.0, seed=seed + 2)
    links = sorted(((u, v) for u, v, _ in network.graph.edges()),
                   key=repr)
    kwargs = {}
    if failures:
        picked = random.Random(seed + 3).sample(links, 6)
        kwargs["failures"] = LinkFailureProcess(
            picked, mtbf=8.0, mttr=1.0, seed=seed + 4
        )
    else:
        kwargs["background"] = BackgroundChurn(
            period=2.0,
            link_batches=(tuple(links[:6]), tuple(links[6:12])),
            demand_mbps=2.0,
        )
    return build_schedule(process, horizon=12.0, holding=holding, **kwargs)


@pytest.mark.parametrize("failures", [False, True])
@pytest.mark.parametrize("seed", [11, 23])
def test_budgeted_simulator_stream_is_equivalent(seed, failures):
    # The budget must cover the VM pool plus the stream's per-request
    # working set: below that, evicting a row flips the serving
    # *direction* of later symmetric queries, whose last-ulp rounding
    # differences legitimately change equal-cost tie-breaks (the oracle
    # only contracts d(u,v) == d(v,u) up to symmetrisation).  These
    # margins are the smallest per-stream values that still evict.
    rows = 38 if (seed, failures) == (11, False) else 34
    budget = _simulator_budget(softlayer_network(seed=seed), rows=rows)
    results = {}
    for name, kwargs in (("unbounded", {}),
                         ("budgeted", {"row_budget_bytes": budget})):
        network = softlayer_network(seed=seed)
        schedule = _churn_schedule(network, seed, failures=failures)
        simulator = OnlineSimulator(network, vms_per_datacenter=2, **kwargs)
        engine = WorkloadEngine(simulator, SOFDA, name=name)
        results[name] = engine.run(schedule)
    unbounded, budgeted = results["unbounded"], results["budgeted"]
    # Identical embedding costs (exact ==, not approx) and decisions.
    assert budgeted.per_request_cost == unbounded.per_request_cost
    assert (budgeted.accepted, budgeted.rejected, budgeted.departures) \
        == (unbounded.accepted, unbounded.rejected, unbounded.departures)
    if failures:
        assert (budgeted.rerouted, budgeted.disrupted) \
            == (unbounded.rerouted, unbounded.disrupted)
    stats = budgeted.cache_stats
    assert stats is not None
    assert stats["budget_bytes"] == budget
    assert stats["total_bytes"] <= budget
    assert stats["overshoots"] == 0
    assert stats["budget_evictions"] > 0  # the budget actually bound
    assert unbounded.cache_stats["budget_bytes"] is None
    assert unbounded.cache_stats["budget_evictions"] == 0


# ----------------------------------------------------------------------
# distributed integration: per-domain controllers honour the budget
# ----------------------------------------------------------------------
def test_budgeted_controller_matches_unbounded():
    from repro.distributed import Controller, partition_domains

    instance = softlayer_network(seed=2).make_instance(
        num_sources=4, num_destinations=5, num_vms=10,
        chain=ServiceChain.of_length(3), seed=5,
    )
    domains = partition_domains(instance.graph, 3, seed=1)
    domain = max(domains, key=len)
    plain = Controller.for_domain(0, domain, instance.graph)
    reference = plain.border_matrix()
    # Room for two rows: the border matrix needs one row per border
    # router, so the budget forces evictions mid-build.
    budget = 2 * row_nbytes(len(domain))
    tight = Controller.for_domain(0, domain, instance.graph,
                                  row_budget_bytes=budget)
    assert tight.border_matrix() == reference
    stats = tight.cache_snapshot()
    assert stats["budget_bytes"] == budget
    assert stats["total_bytes"] <= budget
    assert stats["overshoots"] == 0
    assert plain.cache_snapshot()["budget_bytes"] is None


# ----------------------------------------------------------------------
# release: a dropped oracle frees its rows without the cycle collector
# ----------------------------------------------------------------------
def _patched_budgeted_oracle():
    """Built rows, a cost patch, a topology patch and a budget eviction."""
    graph = _random_graph(random.Random(6))
    oracle = FrozenOracle(graph, row_budget_bytes=3 * _per_row_bytes(graph))
    for s in range(6):
        oracle.distances_from(s)
    u, v, cost = next(iter(graph.edges()))
    oracle.patch_edge_costs({(u, v): 2.0 * cost})
    oracle.patch_topology(removed=[(u, v)])
    assert oracle.cache_snapshot()["budget_evictions"] > 0
    return oracle


def _simulator_oracle():
    """The shared oracle of a simulator after two embeds."""
    network = softlayer_network(seed=3)
    simulator = OnlineSimulator(network, vms_per_datacenter=2)
    generator = RequestGenerator(network, seed=5, destinations_range=(3, 4),
                                 sources_range=(2, 2))
    for request in generator.take(2):
        assert simulator.embed(request, SOFDA) is not None
    return simulator._oracle


def _offline_oracle():
    """An offline instance's oracle after one SOFDA solve."""
    instance = softlayer_network(seed=2).make_instance(
        num_sources=3, num_destinations=4, num_vms=8,
        chain=ServiceChain.of_length(2), seed=5,
    )
    sofda(instance)
    return instance.oracle


@pytest.mark.parametrize(
    "make_oracle", [_patched_budgeted_oracle, _simulator_oracle,
                    _offline_oracle],
    ids=["patched", "simulator", "offline"],
)
def test_dropped_oracle_is_freed_by_refcount(make_oracle):
    """No reference cycle keeps a dropped oracle and its rows alive.

    Offline solves drop one oracle per instance, and the online loop
    drops short-lived oracles per arrival; a cycle through the oracle
    would hold their row buffers until the next cyclic collection.  With
    the collector off, the oracle must die with its last reference.
    """
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        oracle = make_oracle()
        alive = weakref.ref(oracle)
        del oracle
        assert alive() is None
    finally:
        if enabled:
            gc.enable()
