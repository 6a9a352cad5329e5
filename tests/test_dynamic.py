"""Tests for the six dynamic adjustments (Section VII-C)."""

import pytest

from repro import (
    DeployedChain,
    Graph,
    ServiceChain,
    ServiceOverlayForest,
    SOFInstance,
    check_forest,
    sofda,
)
from repro.core.dynamic import (
    DynamicError,
    destination_join,
    destination_leave,
    relocate_overloaded_vm,
    reroute_congested_link,
    reroute_failed_link,
    vnf_deletion,
    vnf_insertion,
)
from repro.topology import softlayer_network


@pytest.fixture
def embedded():
    network = softlayer_network(seed=5)
    instance = network.make_instance(
        num_sources=3, num_destinations=4, num_vms=10,
        chain=ServiceChain.of_length(3), seed=9,
    )
    forest = sofda(instance).forest
    return instance, forest


def test_destination_leave(embedded):
    instance, forest = embedded
    victim = sorted(instance.destinations, key=repr)[0]
    new_instance, new_forest = destination_leave(forest, victim)
    assert victim not in new_instance.destinations
    check_forest(new_instance, new_forest)
    # Leaving never increases the cost (paths are only pruned).
    assert new_forest.total_cost() <= forest.total_cost() + 1e-9


def test_destination_leave_unknown_raises(embedded):
    _, forest = embedded
    with pytest.raises(DynamicError):
        destination_leave(forest, "not-a-destination")


def test_destination_join(embedded):
    instance, forest = embedded
    outsider = next(
        n for n in sorted(instance.graph.nodes(), key=repr)
        if n not in instance.destinations
        and n not in instance.sources
        and n not in instance.vms
    )
    new_instance, new_forest = destination_join(forest, outsider)
    assert outsider in new_instance.destinations
    check_forest(new_instance, new_forest)
    assert new_forest.total_cost() >= forest.total_cost() - 1e-9


def test_destination_join_existing_raises(embedded):
    instance, forest = embedded
    existing = sorted(instance.destinations, key=repr)[0]
    with pytest.raises(DynamicError):
        destination_join(forest, existing)


def test_destination_join_unknown_node_raises(embedded):
    _, forest = embedded
    with pytest.raises(DynamicError):
        destination_join(forest, "ghost-node")


def test_join_then_leave_roundtrip(embedded):
    instance, forest = embedded
    outsider = next(
        n for n in sorted(instance.graph.nodes(), key=repr)
        if n not in instance.destinations
        and n not in instance.sources
        and n not in instance.vms
    )
    joined_instance, joined = destination_join(forest, outsider)
    left_instance, left = destination_leave(joined, outsider)
    assert left_instance.destinations == instance.destinations
    check_forest(left_instance, left)


def test_vnf_deletion(embedded):
    instance, forest = embedded
    new_instance, new_forest = vnf_deletion(forest, 1)
    assert len(new_instance.chain) == 2
    check_forest(new_instance, new_forest)


def test_vnf_deletion_first_and_last(embedded):
    instance, forest = embedded
    for idx in (0, len(instance.chain) - 1):
        new_instance, new_forest = vnf_deletion(forest, idx)
        check_forest(new_instance, new_forest)


def test_vnf_deletion_bad_index(embedded):
    _, forest = embedded
    with pytest.raises(DynamicError):
        vnf_deletion(forest, 99)


def test_vnf_deletion_last_function_rejected():
    network = softlayer_network(seed=5)
    instance = network.make_instance(
        num_sources=2, num_destinations=3, num_vms=6,
        chain=ServiceChain.of_length(1), seed=3,
    )
    forest = sofda(instance).forest
    with pytest.raises(DynamicError):
        vnf_deletion(forest, 0)


def test_vnf_insertion(embedded):
    instance, forest = embedded
    new_instance, new_forest = vnf_insertion(forest, 1, "firewall")
    assert len(new_instance.chain) == 4
    assert new_instance.chain[1] == "firewall"
    check_forest(new_instance, new_forest)
    # Insertion can only add cost.
    assert new_forest.total_cost() >= forest.total_cost() - 1e-6


def test_vnf_insertion_at_ends(embedded):
    instance, forest = embedded
    for idx in (0, len(instance.chain)):
        new_instance, new_forest = vnf_insertion(forest, idx, "nat")
        check_forest(new_instance, new_forest)


def test_vnf_insert_then_delete_roundtrip(embedded):
    instance, forest = embedded
    inserted_instance, inserted = vnf_insertion(forest, 1, "cache")
    deleted_instance, deleted = vnf_deletion(inserted, 1)
    assert list(deleted_instance.chain) == list(instance.chain)
    check_forest(deleted_instance, deleted)


def test_reroute_congested_link(embedded):
    instance, forest = embedded
    # Congest the most-used chain edge.
    from collections import Counter

    from repro.graph.graph import canonical_edge

    usage = Counter()
    for chain in forest.chains:
        for a, b in chain.all_edges():
            usage[canonical_edge(a, b)] += 1
    for edge in forest.tree_edges:
        usage[edge] += 1
    hot = usage.most_common(1)[0][0]
    new_instance, new_forest = reroute_congested_link(forest, hot, 1e6)
    check_forest(new_instance, new_forest)
    # The rerouted forest avoids the congested link unless unavoidable.
    still_used = any(
        canonical_edge(a, b) == hot
        for chain in new_forest.chains for a, b in chain.all_edges()
    )
    if still_used:
        # Only acceptable when the graph offers no alternative; the cost
        # model then reflects the congestion.
        assert new_forest.total_cost() >= 1e6


def test_reroute_unknown_link_raises(embedded):
    _, forest = embedded
    with pytest.raises(DynamicError):
        reroute_congested_link(forest, ("x", "y"), 10.0)


def test_reroute_failed_link_redelivers_a_dead_tail():
    # Source 0, f1 on VM 1, f2 on VM 2; the delivery tail 2-3-4-5 passes
    # destination 3, then crosses the link (3, 4) that fails, on its way
    # to destination 5.  A dead tail cannot be kept verbatim: the chain
    # re-delivers to 3 and then 5 over live shortest paths.
    graph = Graph.from_edges([
        (0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (4, 5, 1.0),
        (3, 6, 2.0), (6, 5, 2.0), (2, 7, 1.0), (7, 4, 9.0),
    ])
    instance = SOFInstance(
        graph=graph, vms={1, 2, 7}, sources={0}, destinations={3, 5},
        chain=ServiceChain.of_length(2), node_costs={1: 1.0, 2: 1.0, 7: 1.0},
    )
    forest = ServiceOverlayForest(instance=instance)
    forest.add_chain(
        DeployedChain(walk=[0, 1, 2, 3, 4, 5], placements={1: 0, 2: 1})
    )
    check_forest(instance, forest)
    graph.remove_edge(3, 4)

    rerouted = reroute_failed_link(forest, (4, 3))

    (chain,) = rerouted.chains
    assert chain.walk == [0, 1, 2, 3, 6, 5]
    assert chain.placements == {1: 0, 2: 1}
    assert all(graph.has_edge(a, b) for a, b in chain.all_edges())
    check_forest(instance, rerouted)
    assert forest.chains[0].walk == [0, 1, 2, 3, 4, 5]  # input untouched


def test_relocate_overloaded_vm(embedded):
    instance, forest = embedded
    vm = sorted(forest.enabled, key=repr)[0]
    new_instance, new_forest = relocate_overloaded_vm(forest, vm, 1e6)
    check_forest(new_instance, new_forest)
    assert vm not in new_forest.enabled


def test_relocate_idle_vm_raises(embedded):
    instance, forest = embedded
    idle = next(vm for vm in instance.vms if vm not in forest.enabled)
    with pytest.raises(DynamicError):
        relocate_overloaded_vm(forest, idle, 10.0)
