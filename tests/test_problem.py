"""Tests for the SOF problem model."""

import pytest

from repro import Graph, ServiceChain, SOFInstance


def _tiny_graph():
    return Graph.from_edges([(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])


def test_service_chain_basics():
    chain = ServiceChain(["a", "b"])
    assert len(chain) == 2
    assert list(chain) == ["a", "b"]
    assert chain[1] == "b"


def test_service_chain_of_length():
    chain = ServiceChain.of_length(3)
    assert list(chain) == ["f1", "f2", "f3"]


def test_service_chain_empty_rejected():
    with pytest.raises(ValueError):
        ServiceChain([])
    with pytest.raises(ValueError):
        ServiceChain.of_length(0)


def test_instance_validation_passes():
    instance = SOFInstance(
        graph=_tiny_graph(), vms={1, 2}, sources={0}, destinations={3},
        chain=ServiceChain.of_length(2), node_costs={1: 1.0, 2: 2.0},
    )
    assert instance.setup_cost(1) == 1.0
    assert instance.setup_cost(0) == 0.0  # switches cost nothing
    assert instance.switches() == {0, 3}


def test_instance_rejects_unknown_nodes():
    with pytest.raises(ValueError):
        SOFInstance(
            graph=_tiny_graph(), vms={99}, sources={0}, destinations={3},
            chain=ServiceChain.of_length(1),
        )


def test_instance_requires_sources_and_destinations():
    with pytest.raises(ValueError):
        SOFInstance(graph=_tiny_graph(), vms={1}, sources=set(),
                    destinations={3}, chain=ServiceChain.of_length(1))
    with pytest.raises(ValueError):
        SOFInstance(graph=_tiny_graph(), vms={1}, sources={0},
                    destinations=set(), chain=ServiceChain.of_length(1))


def test_instance_rejects_negative_setup_cost():
    with pytest.raises(ValueError):
        SOFInstance(
            graph=_tiny_graph(), vms={1}, sources={0}, destinations={3},
            chain=ServiceChain.of_length(1), node_costs={1: -1.0},
        )


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
@pytest.mark.parametrize("field", ["node_costs", "source_costs"])
def test_instance_rejects_non_finite_or_negative_costs(field, bad):
    """Setup and source costs must be finite and non-negative: a NaN
    once reached Procedure 3 as "no candidate service chain", and a
    negative source cost made ``sofda`` return a negative-cost forest."""
    node = 1 if field == "node_costs" else 0
    with pytest.raises(ValueError, match=f"finite and non-negative.*node {node}"):
        SOFInstance(
            graph=_tiny_graph(), vms={1}, sources={0}, destinations={3},
            chain=ServiceChain.of_length(1), **{field: {node: bad}},
        )


def test_instance_rejects_chain_longer_than_vm_pool():
    with pytest.raises(ValueError):
        SOFInstance(
            graph=_tiny_graph(), vms={1}, sources={0}, destinations={3},
            chain=ServiceChain.of_length(2),
        )


def test_replicate_vms():
    instance = SOFInstance(
        graph=_tiny_graph(), vms={1}, sources={0}, destinations={3},
        chain=ServiceChain.of_length(1), node_costs={1: 5.0},
    )
    replicated = instance.replicate_vms(copies=3)
    assert len(replicated.vms) == 3
    replica = (1, "replica1")
    assert replica in replicated.vms
    assert replicated.setup_cost(replica) == 5.0
    assert replicated.graph.has_edge(1, replica)
    # A 3-function chain is now embeddable on the single physical host.
    longer = SOFInstance(
        graph=replicated.graph, vms=replicated.vms, sources={0},
        destinations={3}, chain=ServiceChain.of_length(3),
        node_costs=replicated.node_costs,
    )
    assert len(longer.chain) == 3


def test_with_chain_shares_oracle():
    instance = SOFInstance(
        graph=_tiny_graph(), vms={1, 2}, sources={0}, destinations={3},
        chain=ServiceChain.of_length(1),
    )
    _ = instance.oracle.distance(0, 3)
    clone = instance.with_chain(ServiceChain.of_length(2))
    assert clone._oracle is instance._oracle
    assert len(clone.chain) == 2


def test_restrict_sources():
    g = Graph.from_edges([(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0)])
    instance = SOFInstance(
        graph=g, vms={1, 2}, sources={0, 4}, destinations={3},
        chain=ServiceChain.of_length(1),
    )
    restricted = instance.restrict_sources({0})
    assert restricted.sources == {0}


def test_source_setup_cost_defaults_zero():
    instance = SOFInstance(
        graph=_tiny_graph(), vms={1, 2}, sources={0}, destinations={3},
        chain=ServiceChain.of_length(1), source_costs={0: 4.0},
    )
    assert instance.source_setup_cost(0) == 4.0
    assert instance.source_setup_cost(3) == 0.0
