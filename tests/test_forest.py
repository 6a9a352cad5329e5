"""Tests for the forest representation and its stage-keyed cost accounting."""

import pytest

from repro import DeployedChain, Graph, ServiceChain, ServiceOverlayForest, SOFInstance


@pytest.fixture
def line_instance():
    graph = Graph.from_edges([
        (0, 1, 1.0), (1, 2, 2.0), (2, 3, 4.0), (3, 4, 8.0),
    ])
    return SOFInstance(
        graph=graph, vms={1, 2, 3}, sources={0}, destinations={4},
        chain=ServiceChain.of_length(2), node_costs={1: 10.0, 2: 20.0, 3: 30.0},
    )


def test_chain_accessors(line_instance):
    chain = DeployedChain(walk=[0, 1, 2], placements={1: 0, 2: 1})
    assert chain.source == 0
    assert chain.last_vm == 2
    assert chain.vm_of_vnf(0) == 1
    assert chain.vnf_positions() == [(1, 0), (2, 1)]
    with pytest.raises(KeyError):
        chain.vm_of_vnf(5)


def test_basic_cost(line_instance):
    forest = ServiceOverlayForest(instance=line_instance)
    forest.add_chain(DeployedChain(walk=[0, 1, 2], placements={1: 0, 2: 1}))
    forest.add_tree_edge(2, 3)
    forest.add_tree_edge(3, 4)
    assert forest.setup_cost() == 30.0        # VMs 1 and 2
    assert forest.connection_cost() == pytest.approx(1 + 2 + 4 + 8)
    assert forest.total_cost() == pytest.approx(45.0)


def test_clone_pass_pays_twice(line_instance):
    # Walk 0-1-2-1 re-crosses edge (1,2) at a later stage: both pays.
    forest = ServiceOverlayForest(instance=line_instance)
    forest.add_chain(DeployedChain(walk=[0, 1, 2, 1], placements={1: 0, 2: 1}))
    assert forest.connection_cost() == pytest.approx(1 + 2 + 2)


def test_same_stage_shared_edge_paid_once(line_instance):
    # Two chains with identical placements share stage content: the common
    # stage-0 edge is paid once (the IP's tau accounting).
    forest = ServiceOverlayForest(instance=line_instance)
    forest.add_chain(DeployedChain(walk=[0, 1, 2], placements={1: 0, 2: 1}))
    forest.add_chain(DeployedChain(walk=[0, 1, 2], placements={1: 0, 2: 1}))
    assert forest.connection_cost() == pytest.approx(1 + 2)
    assert forest.setup_cost() == 30.0  # enabled once


def test_tree_edge_dedups_against_final_stage_walk(line_instance):
    forest = ServiceOverlayForest(instance=line_instance)
    forest.add_chain(
        DeployedChain(walk=[0, 1, 2, 3], placements={1: 0, 2: 1})
    )
    # Walk edge (2,3) carries final-stage content; adding the same tree
    # edge must not double-charge.
    before = forest.connection_cost()
    forest.add_tree_edge(2, 3)
    assert forest.connection_cost() == pytest.approx(before)


def test_vnf_conflict_rejected_on_add(line_instance):
    forest = ServiceOverlayForest(instance=line_instance)
    forest.add_chain(DeployedChain(walk=[0, 1, 2], placements={1: 0, 2: 1}))
    with pytest.raises(ValueError):
        forest.add_chain(DeployedChain(walk=[0, 1, 2], placements={1: 1, 2: 0}))


def test_used_sources_and_trees(line_instance):
    forest = ServiceOverlayForest(instance=line_instance)
    forest.add_chain(DeployedChain(walk=[0, 1, 2], placements={1: 0, 2: 1}))
    assert forest.used_sources() == {0}
    assert forest.num_trees() == 1
    assert forest.used_vms() == {1, 2}


def test_copy_is_independent(line_instance):
    forest = ServiceOverlayForest(instance=line_instance)
    forest.add_chain(DeployedChain(walk=[0, 1, 2], placements={1: 0, 2: 1}))
    clone = forest.copy()
    clone.add_tree_edge(2, 3)
    assert not forest.tree_edges
    assert clone.instance is forest.instance


def test_prune_tree_edges_drops_useless(line_instance):
    forest = ServiceOverlayForest(instance=line_instance)
    forest.add_chain(DeployedChain(walk=[0, 1, 2], placements={1: 0, 2: 1}))
    forest.add_tree_edge(2, 3)
    forest.add_tree_edge(3, 4)
    forest.add_tree_edge(0, 1)  # useless: serves no destination
    forest.prune_tree_edges()
    assert (0, 1) not in forest.tree_edges
    assert len(forest.tree_edges) == 2


def test_prune_keeps_destination_on_walk_tail(line_instance):
    # Destination 4 lies directly on the chain's pass-through tail.
    forest = ServiceOverlayForest(instance=line_instance)
    forest.add_chain(
        DeployedChain(walk=[0, 1, 2, 3, 4], placements={1: 0, 2: 1})
    )
    forest.add_tree_edge(0, 1)
    forest.prune_tree_edges()
    assert forest.tree_edges == set()


def test_describe_mentions_cost(line_instance):
    forest = ServiceOverlayForest(instance=line_instance)
    forest.add_chain(DeployedChain(walk=[0, 1, 2], placements={1: 0, 2: 1}))
    text = forest.describe()
    assert "cost=" in text and "chain 0" in text


def test_stages_leave_a_borrowed_prefix_unpaid(line_instance):
    # f1 at position 1, f2 at 2: edge i carries stage stages()[i].
    attached = DeployedChain(
        walk=[0, 1, 2, 3], placements={1: 0, 2: 1}, paid_from_edge=2
    )
    assert attached.stages() == [0, 1, 2, 2]
    assert DeployedChain(walk=[0, 1, 2, 1], placements={1: 0}).stages() == [
        0, 1, 1, 1
    ]
    # The attached chain's prefix carries the stages it carried on the
    # chain it was borrowed from, so only its own edge (2, 3) is paid.
    forest = ServiceOverlayForest(instance=line_instance)
    forest.add_chain(DeployedChain(walk=[0, 1, 2], placements={1: 0, 2: 1}))
    forest.add_chain(attached)
    assert forest.paid_edges() == [(0, 0, 1), (1, 1, 2), (2, 2, 3)]
    assert forest.connection_cost() == 1 + 2 + 4
