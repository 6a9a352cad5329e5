"""Procedure 3's auxiliary graph ``Ĝ`` as a view over the instance graph.

SOFDA does not copy ``G`` into ``Ĝ``: :class:`AuxiliaryView` reads ``G``
live and records only the virtual part, and KMB searches ``Ĝ`` through
an oracle whose core is the instance oracle's core, contracted or not,
extended by the virtual part (:meth:`FrozenOracle.extended`).  The
differential tests compare that oracle's uncontracted core with a fresh
``IndexedGraph`` of the materialized ``Ĝ`` -- the copy SOFDA used to
make -- node by node (neighbour and weight lists) and row by row, on a
floor-cost simulator driven through commits, departures, background
load and interleaved link failures and recoveries; the view's reads
against the materialized graph's; SOFDA's forests against the forests
of the materialized path, on that simulator and on contracted Inet
instances (with an instance oracle hot at every VM and destination, or
lacking one); the extended contracted core's terminal distances and
paths against a fresh oracle over the materialized ``Ĝ``; and the
virtual edges priced from the rows against the walks ``expand_stroll``
builds.  The last tests pin each Steiner search's path
(``sofda.steiner_oracle``) against spies, and the simulator's count of a
link recovery that cannot revive in place.
"""

import importlib
import random

import pytest

from helpers import random_instance
from repro.core.problem import ServiceChain, SOFInstance
from repro.core.sofda import AuxiliaryView, build_auxiliary_graph
from repro.core.transform import expand_stroll
from repro.graph import FrozenOracle, Graph, IndexedGraph
from repro.obs import MetricsRegistry, Recorder
from repro.online import OnlineSimulator, RequestGenerator
from repro.topology import inet_network, softlayer_network

# ``repro.core`` re-exports the function ``sofda`` under the module's name.
sofda_module = importlib.import_module("repro.core.sofda")

INF = float("inf")


def _network():
    return inet_network(num_nodes=300, num_links=600, num_datacenters=20,
                        seed=4)


def _requests(network, seed=3):
    return RequestGenerator(network, seed=seed, destinations_range=(3, 5),
                            sources_range=(2, 3))


def _embed(instance):
    return sofda_module.sofda(instance).forest


def _replay(simulator, network, check, steps=12):
    """Commits, departures, background load and interleaved fail/recover.

    ``check(request)`` runs after every step on a fresh request.  Three
    links fail per step and the three oldest failed links recover, so
    revived links are re-appended to their endpoints' adjacency while
    others are still down.
    """
    rng = random.Random(5)
    links = sorted(((u, v) for u, v, _ in network.graph.edges()), key=repr)
    requests = _requests(network)
    leases, failed, costs = [], [], []
    for step in range(steps):
        cost, lease = simulator.embed_leased(requests.next_request(), _embed)
        costs.append(cost)
        if lease is not None:
            leases.append(lease)
        if step % 3 == 2 and leases:
            lease = leases.pop(0)
            if not lease.released:
                simulator.release(lease)
        simulator.apply_background_load(rng.sample(links, 4), 2.0)
        for link in rng.sample(links, 3):
            if link not in failed:
                simulator.fail_link(*link)
                failed.append(link)
        while len(failed) > 3:
            simulator.recover_link(*failed.pop(0))
        check(requests.next_request())
    return costs


def _adjacency(core):
    """Per-node ``(neighbour, weight)`` lists, tombstones dropped."""
    nodes, indptr = core.nodes, core.indptr
    return {
        nodes[i]: [
            (nodes[core.indices[p]], core.weights[p])
            for p in range(indptr[i], indptr[i + 1])
            if core.weights[p] != INF
        ]
        for i in range(len(core))
    }


def _row(core, source):
    """``node -> (dist, parent node)`` of ``source``'s cold row."""
    dist, parent = core.dijkstra(core.index[source])
    return {
        node: (dist[i], core.nodes[parent[i]] if parent[i] >= 0 else None)
        for i, node in enumerate(core.nodes)
    }


def _assert_view_reads_like(view, graph, base):
    assert len(view) == len(graph)
    for node in graph.nodes():
        assert node in view
        items = list(graph.neighbor_items(node))
        if node in base:
            # A real node lists G's neighbours in G's order, then its
            # virtual ones; the edge-by-edge copy may order them apart.
            assert dict(view.neighbor_items(node)) == dict(items)
        else:
            assert list(view.neighbor_items(node)) == items
        for nbr, cost in items:
            assert view.has_edge(node, nbr) and view.has_edge(nbr, node)
            assert view.cost(node, nbr) == cost == view.cost(nbr, node)
    absent = ("vm^", "absent")
    assert absent not in view
    with pytest.raises(KeyError):
        view.neighbor_items(absent)
    vsrc = "__sof_virtual_source__"
    some_real = next(iter(base.nodes()))
    assert not view.has_edge(vsrc, some_real)
    with pytest.raises(KeyError):
        view.cost(vsrc, some_real)


def test_assembled_core_matches_the_materialized_copy():
    network = _network()
    simulator = OnlineSimulator(network, vms_per_datacenter=2)
    reordered = set()

    def check(request):
        instance = simulator.current_instance(request)
        aux = build_auxiliary_graph(instance)
        terminals = [aux.virtual_source] + sorted(instance.destinations,
                                                  key=repr)
        assembled = aux.view.search_oracle()
        assert assembled.graph is aux.view
        materialized = aux.graph
        reference = IndexedGraph.from_graph(materialized)
        core = assembled.core
        assert _adjacency(core) == _adjacency(reference)
        for terminal in terminals:
            assert _row(core, terminal) == _row(reference, terminal)
        _assert_view_reads_like(aux.view, materialized, instance.graph)
        # A revived link moves in its lower-id end's list unless it was
        # that node's last higher-id slot already.
        base = instance.oracle.core
        for u, v in instance.oracle._revivals:
            lo, hi = sorted((base.index[u], base.index[v]))
            later = [
                p for p in range(base.indptr[lo], base.indptr[lo + 1])
                if base.indices[p] > hi and base.weights[p] != INF
            ]
            if later:
                reordered.add((u, v))

    _replay(simulator, network, check)
    # The walk above revived links whose slots the assembly must move.
    assert len(reordered) >= 3


def test_priced_virtual_edges_equal_the_expanded_walks():
    """Procedure 3 prices each block pair's virtual edge from the rows
    its walk would be expanded from, without expanding it.  On the same
    replay -- so the rows read include repaired ones, and the walks
    cross links revived in place -- every pair's cost equals
    ``expand_stroll``'s ``total_cost`` for the pair's stroll bit for
    bit, and ``walk_for`` returns that walk."""
    network = _network()
    recorder = Recorder(registry=MetricsRegistry())
    simulator = OnlineSimulator(network, vms_per_datacenter=2,
                                metrics=recorder)
    priced, revived = [], []

    def count():
        return recorder.snapshot()["counters"].get(
            "sofda.walk{path=priced}", 0
        )

    def check(request):
        instance = simulator.current_instance(request)
        before = count()
        aux = build_auxiliary_graph(instance)
        priced.append(count() - before)
        for pair, stroll in aux.strolls.items():
            expanded = expand_stroll(instance, stroll)
            assert aux.costs[pair] == expanded.total_cost
            assert aux.walk_for(*pair) == expanded
        revived.append(len(instance.oracle._revivals))

    _replay(simulator, network, check)
    assert min(priced) > 0 and max(revived) > 0
    counters = recorder.snapshot()["counters"]
    assert counters["oracle.repair.rows{path=planned}"] > 0


def _forest_key(forest):
    return (
        [(tuple(c.walk), sorted(c.placements.items()))
         for c in forest.chains],
        sorted(forest.tree_edges, key=repr),
        forest.total_cost(),
    )


def _force_materialized(monkeypatch):
    """Make every Steiner step search the materialized ``Ĝ`` through a
    fresh oracle of its own; returns the log of forced solves."""
    forced = []

    def materialized(instance, aux, terminals, steiner_method):
        forced.append(terminals)
        return aux.graph, None

    monkeypatch.setattr(sofda_module, "_steiner_search", materialized)
    return forced


def test_sofda_forests_match_the_materialized_path(monkeypatch):
    """The same replay with the Steiner step forced onto the
    materialized ``Ĝ``: every forest and cost equals the assembled
    path's."""

    def run():
        network = _network()
        simulator = OnlineSimulator(network, vms_per_datacenter=2)
        forests = []

        def check(request):
            instance = simulator.current_instance(request)
            forests.append(_forest_key(_embed(instance)))

        costs = _replay(simulator, network, check, steps=6)
        return costs, forests

    assembled = run()
    forced = _force_materialized(monkeypatch)
    materialized = run()
    assert forced  # the forced path ran
    assert materialized == assembled


def _inet_instance(seed):
    """A seeded instance on a 412-node Inet, whose oracle contracts."""
    network = inet_network(num_nodes=400, num_links=800,
                           num_datacenters=60, seed=3)
    return network.make_instance(
        num_sources=2, num_destinations=4, num_vms=12,
        chain=ServiceChain.of_length(3), seed=seed,
    )


@pytest.mark.parametrize("seed", [0, 1, 2, 5, 8])
def test_contracted_forests_match_the_materialized_path(monkeypatch, seed):
    """On contracted instances KMB searches the extended contracted
    core; every forest and cost equals the one found through a fresh
    oracle over the materialized ``Ĝ``."""
    assembled = _inet_instance(seed)
    result = sofda_module.sofda(assembled)
    assert assembled.oracle.contracted is not None
    _force_materialized(monkeypatch)
    reference = sofda_module.sofda(_inet_instance(seed))
    assert _forest_key(result.forest) == _forest_key(reference.forest)
    assert result.cost == reference.cost


@pytest.mark.parametrize("seed", [0, 5])
def test_extended_contracted_core_serves_exact_terminal_queries(seed):
    """Every terminal pair KMB can ask about: the distance is within
    1e-9 of a fresh oracle's over the materialized ``Ĝ``, and the path
    is a ``Ĝ`` path between the two whose cost is that distance."""
    instance = _inet_instance(seed)
    aux = build_auxiliary_graph(instance)
    oracle = aux.view.search_oracle()
    assert oracle.contracted is not None
    assert len(oracle.contracted) == (
        len(instance.oracle.contracted) + len(aux.view) - len(instance.graph)
    )
    reference = FrozenOracle(aux.graph)
    terminals = [aux.virtual_source] + sorted(instance.destinations,
                                              key=repr)
    for i, a in enumerate(terminals):
        for b in terminals[i + 1:]:
            distance = oracle.distance(a, b)
            assert abs(distance - reference.distance(a, b)) <= 1e-9
            path = oracle.path(a, b)
            assert path[0] == a and path[-1] == b
            cost = 0.0
            for x, y in zip(path, path[1:]):
                cost += aux.view.cost(x, y)
            assert cost == pytest.approx(distance, rel=1e-12, abs=1e-9)


def _relay(graph, nodes):
    """The first degree-2 node of ``nodes`` in repr order."""
    return min((n for n in nodes if graph.degree(n) == 2), key=repr)


@pytest.mark.parametrize("role", ["vm", "destination"])
def test_an_oracle_cold_at_a_vm_or_destination_solves_exactly(role):
    """An instance oracle shared from an instance whose hot set lacks
    one of this instance's VMs or destinations, which it contracted
    away, still solves exactly: a missing VM is made hot before ``Ĝ``
    is assembled (it is a virtual edge's endpoint), and a missing
    destination is served on the extended oracle's exact slow path.
    Forest and cost equal those of a fresh oracle hot at every VM and
    destination."""

    def make():
        instance = _inet_instance(5)
        graph = instance.graph
        if role == "destination":
            return instance, _relay(graph, instance.destinations)
        taken = instance.vms | instance.sources | instance.destinations
        missing = _relay(graph, (n for n in graph.nodes() if n not in taken))
        vms = sorted(instance.vms, key=repr)[1:] + [missing]
        swapped = SOFInstance(
            graph=instance.graph, vms=vms, sources=instance.sources,
            destinations=instance.destinations, chain=instance.chain,
            node_costs=instance.node_costs,
        )
        return swapped, missing

    instance, missing = make()
    hot = instance.vms | instance.sources | instance.destinations
    instance._oracle = FrozenOracle(instance.graph, hot=hot - {missing})
    assert missing in instance.oracle.contracted.interior
    result = sofda_module.sofda(instance)
    reference = sofda_module.sofda(make()[0])
    assert _forest_key(result.forest) == _forest_key(reference.forest)
    assert result.cost == reference.cost
    in_core = missing in instance.oracle.contracted.index
    assert in_core == (role == "vm")


# ----------------------------------------------------------------------
# sofda.steiner_oracle: which path each Steiner search took
# ----------------------------------------------------------------------

def _spied_solve(monkeypatch, instance, **kwargs):
    """Solve; returns what ``steiner_tree`` received and the log of
    ``Ĝ`` materializations and ``IndexedGraph.from_graph`` calls on any
    graph but ``G`` (whose own oracle may build during the sweep)."""
    seen, built = [], []
    materialize = AuxiliaryView.materialize
    from_graph = IndexedGraph.from_graph.__func__
    steiner_tree = sofda_module.steiner_tree

    def spy_tree(graph, terminals, method="kmb", oracle=None):
        seen.append((graph, oracle))
        return steiner_tree(graph, terminals, method=method, oracle=oracle)

    def spy_materialize(self):
        built.append("materialize")
        return materialize(self)

    def spy_from_graph(cls, graph):
        if graph is not instance.graph:
            built.append("from_graph")
        return from_graph(cls, graph)

    monkeypatch.setattr(sofda_module, "steiner_tree", spy_tree)
    monkeypatch.setattr(AuxiliaryView, "materialize", spy_materialize)
    monkeypatch.setattr(IndexedGraph, "from_graph",
                        classmethod(spy_from_graph))
    sofda_module.sofda(instance, **kwargs)
    (graph, oracle), = seen
    return graph, oracle, built


def _steiner_counts(recorder):
    return {
        key: value for key, value in recorder.snapshot()["counters"].items()
        if key.startswith("sofda.steiner_oracle")
    }


def _metered_instance(make):
    recorder = Recorder(registry=MetricsRegistry())
    instance = make()
    instance._oracle = FrozenOracle(
        instance.graph,
        hot=instance.vms | instance.sources | instance.destinations,
        metrics=recorder,
    )
    return recorder, instance


def _simulator_instance(recorder):
    network = softlayer_network(seed=1)
    simulator = OnlineSimulator(network, vms_per_datacenter=2,
                                metrics=recorder)
    request = _requests(network).next_request()
    return simulator.current_instance(request)


def test_assembled_path_is_counted(monkeypatch):
    recorder = Recorder(registry=MetricsRegistry())
    instance = _simulator_instance(recorder)
    graph, oracle, built = _spied_solve(monkeypatch, instance)
    assert isinstance(graph, AuxiliaryView)
    assert isinstance(oracle, FrozenOracle) and oracle.graph is graph
    assert oracle is not instance.oracle
    # Ĝ is neither copied nor re-interned.
    assert built == []
    assert _steiner_counts(recorder) == {
        "sofda.steiner_oracle{path=assembled}": 1,
    }


def test_contracted_instance_searches_the_assembled_core(monkeypatch):
    recorder, instance = _metered_instance(lambda: _inet_instance(5))
    graph, oracle, built = _spied_solve(monkeypatch, instance)
    assert instance.oracle.contracted is not None
    assert isinstance(graph, AuxiliaryView)
    assert isinstance(oracle, FrozenOracle) and oracle.graph is graph
    assert oracle.contracted is not None
    assert built == []
    assert _steiner_counts(recorder) == {
        "sofda.steiner_oracle{path=assembled}": 1,
    }


@pytest.mark.parametrize("method", ["mehlhorn", "exact"])
def test_materialized_path_for_another_steiner_method(monkeypatch, method):
    recorder = Recorder(registry=MetricsRegistry())
    instance = _simulator_instance(recorder)
    graph, oracle, built = _spied_solve(monkeypatch, instance,
                                        steiner_method=method)
    assert type(graph) is Graph and oracle is None
    assert built[0] == "materialize"
    assert _steiner_counts(recorder) == {
        "sofda.steiner_oracle{path=materialized,reason=steiner_method}": 1,
    }


def test_distinct_cost_instance_searches_the_assembled_core(monkeypatch):
    """A small continuous-cost instance never contracts its own oracle,
    though a fresh oracle over its ``Ĝ`` might: KMB still searches the
    assembled core, and nothing is copied or re-interned."""
    recorder, instance = _metered_instance(
        lambda: random_instance(3, n=40, num_vms=8, num_sources=2,
                                num_dests=3, chain_len=2)
    )
    graph, oracle, built = _spied_solve(monkeypatch, instance)
    assert instance.oracle.contracted is None
    assert isinstance(graph, AuxiliaryView)
    assert isinstance(oracle, FrozenOracle) and oracle.contracted is None
    assert built == []
    assert _steiner_counts(recorder) == {
        "sofda.steiner_oracle{path=assembled}": 1,
    }


# ----------------------------------------------------------------------
# recover_link: a link with no tombstone to revive
# ----------------------------------------------------------------------

@pytest.mark.parametrize("incremental", [True, False])
def test_recovery_without_a_tombstone_is_counted(incremental):
    """A link that failed before the oracle's (re)build has no tombstoned
    slot, so the incremental simulator recovers it by rebuilding and
    counts that; the reference mode always rebuilds and counts nothing."""
    network = softlayer_network(seed=1)
    recorder = Recorder(registry=MetricsRegistry())
    simulator = OnlineSimulator(network, vms_per_datacenter=2,
                                incremental=incremental, metrics=recorder)
    oracle = simulator._oracle
    revived, stale = sorted(
        ((u, v) for u, v, _ in network.graph.edges()), key=repr
    )[:2]
    simulator.fail_link(*revived)
    simulator.fail_link(*stale)
    simulator.recover_link(*revived)
    oracle.invalidate()  # the next build interns G without ``stale``
    simulator.recover_link(*stale)
    counters = recorder.snapshot()["counters"]
    key = "oracle.fallback{reason=not_tombstoned,site=insertable}"
    assert counters.get(key, 0) == (1 if incremental else 0)
    assert simulator._graph.has_edge(*stale)
    assert oracle.distance(*stale) <= simulator._graph.cost(*stale)
