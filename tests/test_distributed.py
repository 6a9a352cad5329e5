"""Tests for the distributed multi-controller implementation."""

import gc
import tracemalloc

import pytest

from repro import ServiceChain, check_forest, sofda
from repro.distributed import Controller, DistributedSOFDA, MessageBus, partition_domains
from repro.graph.rowcache import row_nbytes
from repro.topology import cogent_network, softlayer_network


@pytest.fixture
def instance():
    return softlayer_network(seed=2).make_instance(
        num_sources=4, num_destinations=5, num_vms=10,
        chain=ServiceChain.of_length(3), seed=5,
    )


def test_partition_covers_all_nodes(instance):
    domains = partition_domains(instance.graph, 4, seed=1)
    assert len(domains) == 4
    union = set().union(*domains)
    assert union == set(instance.graph.nodes())
    for a in range(4):
        for b in range(a + 1, 4):
            assert not domains[a] & domains[b]


def test_partition_validations(instance):
    with pytest.raises(ValueError):
        partition_domains(instance.graph, 0)
    with pytest.raises(ValueError):
        partition_domains(instance.graph, 10_000)


def test_controller_borders(instance):
    domains = partition_domains(instance.graph, 3, seed=1)
    controllers = [
        Controller.for_domain(i, d, instance.graph) for i, d in enumerate(domains)
    ]
    for c in controllers:
        for b in c.border_routers:
            assert b in c.domain
            assert any(
                nb not in c.domain for nb in instance.graph.neighbors(b)
            )
        # Matrix entries are symmetric and nonnegative.
        matrix = c.border_matrix()
        for (x, y), d in matrix.items():
            assert d >= 0
            assert matrix[(y, x)] == pytest.approx(d)
        assert c.matrix_size() == len(c.border_routers) * (len(c.border_routers) - 1)


def test_controller_memory_stays_within_its_row_budget():
    """A query from every node of a domain leaves the controller holding
    about its oracle's row budget: no distance dict is kept beside the
    budgeted rows."""
    graph = cogent_network(seed=0).graph
    domain = max(partition_domains(graph, 4, seed=0), key=len)
    budget = 3 * row_nbytes(len(domain))
    controller = Controller.for_domain(0, domain, graph, row_budget_bytes=budget)
    nodes = sorted(domain, key=repr)
    controller.local_distances_from(nodes[0])  # builds the oracle's core
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for node in nodes:
            controller.local_distances_from(node)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    snapshot = controller.cache_snapshot()
    assert snapshot["rows"] == 3
    assert snapshot["budget_evictions"] == len(nodes) - 3
    assert retained < 3 * budget


def test_controller_rejects_foreign_node(instance):
    domains = partition_domains(instance.graph, 2, seed=1)
    controller = Controller.for_domain(0, domains[0], instance.graph)
    foreign = next(iter(domains[1]))
    with pytest.raises(KeyError):
        controller.distance_to_borders(foreign)


@pytest.mark.parametrize("num_domains", [1, 2, 4])
def test_distributed_equals_centralized(instance, num_domains):
    distributed = DistributedSOFDA(instance, num_domains=num_domains, seed=1)
    result = distributed.run()
    check_forest(instance, result.forest)
    central = sofda(instance)
    assert result.cost == pytest.approx(central.cost)


def test_abstraction_is_lossless(instance):
    distributed = DistributedSOFDA(instance, num_domains=3, seed=1)
    assert distributed.verify_abstraction(samples=40, seed=3)


def test_messages_accounted(instance):
    distributed = DistributedSOFDA(instance, num_domains=3, seed=1)
    result = distributed.run()
    kinds = result.bus.by_kind()
    assert "matrix-exchange" in kinds
    # Full-mesh matrix exchange: k * (k - 1) messages.
    assert kinds["matrix-exchange"][0] == 3 * 2
    assert result.bus.num_messages > 0
    assert result.num_domains == 3


def test_more_domains_more_messages(instance):
    few = DistributedSOFDA(instance, num_domains=2, seed=1).run()
    many = DistributedSOFDA(instance, num_domains=6, seed=1).run()
    assert many.bus.num_messages > few.bus.num_messages


def test_message_bus_basics():
    bus = MessageBus()
    bus.send(0, 1, "x", 5)
    bus.send(1, 1, "self", 5)  # dropped
    bus.broadcast(2, [0, 1], "y", 3)
    assert bus.num_messages == 3
    assert bus.total_size == 11
    assert bus.by_kind()["y"] == (2, 6)


def test_controller_serves_from_per_domain_oracle(instance):
    """Intra-domain rows come from one FrozenOracle per controller."""
    from repro.graph import FrozenOracle
    from repro.graph.shortest_paths import dijkstra

    domains = partition_domains(instance.graph, 3, seed=1)
    for i, domain in enumerate(domains):
        controller = Controller.for_domain(i, domain, instance.graph)
        assert isinstance(controller.oracle, FrozenOracle)
        assert controller.oracle is controller.oracle  # one per domain
        for node in sorted(domain, key=repr)[:4]:
            expected, _ = dijkstra(controller.local_graph, node)
            got = controller.local_distances_from(node)
            assert set(got) == set(expected)
            for target, dist in expected.items():
                assert got[target] == pytest.approx(dist, rel=0, abs=1e-9)


#: Message statistics recorded before the controllers were contracted
#: onto per-domain oracles -- the protocol must not notice the swap.
PRE_ORACLE_MESSAGE_STATS = {
    2: (18, 76),
    3: (43, 290),
    4: (57, 221),
}


@pytest.mark.parametrize("num_domains", [2, 3, 4])
def test_message_stats_unchanged_by_oracle_contraction(instance, num_domains):
    result = DistributedSOFDA(instance, num_domains=num_domains, seed=1).run()
    assert (
        result.bus.num_messages, result.bus.total_size
    ) == PRE_ORACLE_MESSAGE_STATS[num_domains]
    # The embedded forest is still the centralized one.
    central = sofda(instance)
    assert result.cost == pytest.approx(central.cost, rel=0, abs=1e-9)


def test_leader_is_a_source_controller(instance):
    distributed = DistributedSOFDA(instance, num_domains=4, seed=1)
    result = distributed.run()
    leader_domain = distributed.controllers[result.leader].domain
    assert any(s in leader_domain for s in instance.sources)
