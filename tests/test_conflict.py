"""Tests for Procedure-4 VNF conflict resolution with hand-built scenarios.

The fixture network is a path of VMs so walks can be crafted precisely:

    s1 - m1 - m2 - m3 - m4 - s2     (all VMs, two sources at the ends)

with extra switches hanging off for destinations.
"""

import pytest

from repro import DeployedChain, Graph, ServiceChain, ServiceOverlayForest, SOFInstance
from repro.core.conflict import ResolutionStats, repair_chain, resolve_and_add_chain
from repro.core.transform import ChainWalk
from repro.core.validation import check_forest


@pytest.fixture
def path_instance():
    g = Graph.from_edges([
        ("s1", "m1", 1.0), ("m1", "m2", 1.0), ("m2", "m3", 1.0),
        ("m3", "m4", 1.0), ("m4", "s2", 1.0),
        ("m2", "d1", 1.0), ("m3", "d2", 1.0),
    ])
    return SOFInstance(
        graph=g, vms={"m1", "m2", "m3", "m4"}, sources={"s1", "s2"},
        destinations={"d1", "d2"}, chain=ServiceChain.of_length(2),
        node_costs={"m1": 1.0, "m2": 1.0, "m3": 1.0, "m4": 1.0},
    )


def _walk(instance, nodes, stroll) -> ChainWalk:
    positions = [nodes.index(s) for s in stroll]
    connection = sum(
        instance.graph.cost(a, b) for a, b in zip(nodes, nodes[1:])
    )
    setup = sum(instance.setup_cost(m) for m in stroll[1:])
    return ChainWalk(
        walk=list(nodes), stroll=list(stroll), positions=positions,
        connection_cost=connection, setup_cost=setup,
    )


def test_clean_deployment(path_instance):
    forest = ServiceOverlayForest(instance=path_instance)
    stats = ResolutionStats()
    cw = _walk(path_instance, ["s1", "m1", "m2"], ["s1", "m1", "m2"])
    resolve_and_add_chain(forest, cw, stats)
    assert stats.clean == 1
    assert forest.enabled == {"m1": 0, "m2": 1}


def test_matching_functions_share_vms(path_instance):
    """Same VNF on the same VM is reuse, not a conflict."""
    forest = ServiceOverlayForest(instance=path_instance)
    stats = ResolutionStats()
    resolve_and_add_chain(
        forest, _walk(path_instance, ["s1", "m1", "m2"], ["s1", "m1", "m2"]), stats
    )
    resolve_and_add_chain(
        forest, _walk(path_instance, ["s2", "m4", "m3", "m2"],
                      ["s2", "m3", "m2"]), stats
    )
    # m2 runs f2 for both chains -- wait: second stroll is s2, m3(f1), m2(f2).
    assert forest.enabled["m2"] == 1
    assert stats.total_conflicted() == 0
    assert forest.setup_cost() == pytest.approx(3.0)  # m1, m2, m3 once each


def test_case1_attach_new_walk_to_resident(path_instance):
    """Case 1: the new walk wants an *earlier* function at the conflict VM.

    Resident: s1 -> m1 (f1) -> m2 (f2).
    Incoming: s2 -> m2 (f1!) -> m3 (f2): conflict at m2 with j=0 <= i=1.
    The incoming walk is re-rooted onto the resident chain through m2 and
    keeps its own suffix placements (none beyond f2 at m3... f2 is kept).
    """
    forest = ServiceOverlayForest(instance=path_instance)
    stats = ResolutionStats()
    resolve_and_add_chain(
        forest, _walk(path_instance, ["s1", "m1", "m2"], ["s1", "m1", "m2"]), stats
    )
    resolve_and_add_chain(
        forest,
        _walk(path_instance, ["s2", "m4", "m3", "m2", "m3"], ["s2", "m2", "m3"]),
        stats,
    )
    assert stats.case1 == 1
    check = dict(forest.enabled)
    assert check["m1"] == 0 and check["m2"] == 1
    # No VM runs two functions; the merged chain is complete.
    merged = forest.chains[1]
    assert [v for _, v in merged.vnf_positions()] == [0, 1]
    assert merged.source == "s1"  # re-rooted onto the resident chain


def test_case3_rewires_resident_onto_new_walk(path_instance):
    """Case 3: the new walk wants a *later* function at the conflict VM and
    shares no other conflict VM -- the resident is re-rooted instead.

    Resident: s2 -> m4 -> m3 (f1) -> back to m4 (f2).
    Incoming: s1 -> m1 (f1) -> m2 -> m3 (f2!): conflict at m3 (wants f2,
    has f1), no case-2 VM, so the resident re-roots onto the incoming
    prefix.
    """
    forest = ServiceOverlayForest(instance=path_instance)
    stats = ResolutionStats()
    resolve_and_add_chain(
        forest,
        _walk(path_instance, ["s2", "m4", "m3", "m4"], ["s2", "m3", "m4"]),
        stats,
    )
    resolve_and_add_chain(
        forest, _walk(path_instance, ["s1", "m1", "m2", "m3"], ["s1", "m1", "m3"]),
        stats,
    )
    assert stats.case3 >= 1
    assert forest.enabled["m3"] == 1  # now runs f2 (the incoming walk's wish)
    for chain in forest.chains:
        assert [v for _, v in chain.vnf_positions()] == [0, 1]
    # No new VM was enabled beyond the union of both walks' plans.
    assert set(forest.enabled) <= {"m1", "m2", "m3", "m4"}


def test_fully_opposed_walks_still_resolve():
    """Only two VMs, enabled in the opposite order by the resident chain.

    The incoming chain conflicts at *both* VMs; Procedure 4 resolves it
    (case 2 applies: the earlier conflict VM m2 runs f2 on the resident,
    whose index is >= the incoming walk's wanted f2 at m1), re-rooting the
    incoming chain onto the resident without enabling anything new."""
    g = Graph.from_edges([
        ("s1", "m1", 1.0), ("m1", "m2", 1.0), ("m2", "s2", 1.0),
        ("m1", "d1", 1.0), ("m2", "d2", 1.0),
    ])
    instance = SOFInstance(
        graph=g, vms={"m1", "m2"}, sources={"s1", "s2"},
        destinations={"d1", "d2"}, chain=ServiceChain.of_length(2),
        node_costs={"m1": 1.0, "m2": 1.0},
    )
    forest = ServiceOverlayForest(instance=instance)
    stats = ResolutionStats()
    resolve_and_add_chain(
        forest,
        ChainWalk(walk=["s1", "m1", "m2"], stroll=["s1", "m1", "m2"],
                  positions=[0, 1, 2], connection_cost=2.0, setup_cost=2.0),
        stats,
    )
    # Incoming from s2 wants f1@m2, f2@m1 -- wholly conflicting.
    resolve_and_add_chain(
        forest,
        ChainWalk(walk=["s2", "m2", "m1"], stroll=["s2", "m2", "m1"],
                  positions=[0, 1, 2], connection_cost=2.0, setup_cost=2.0),
        stats,
    )
    assert stats.total_conflicted() >= 1
    # Forest stays consistent: no VM re-enabled, both chains complete.
    assert forest.enabled == {"m1": 0, "m2": 1}
    for chain in forest.chains:
        assert [v for _, v in chain.vnf_positions()] == [0, 1]


def test_repair_uses_free_vms(path_instance):
    """With free VMs available, the repair path builds a fresh chain."""
    forest = ServiceOverlayForest(instance=path_instance)
    stats = ResolutionStats()
    resolve_and_add_chain(
        forest, _walk(path_instance, ["s1", "m1", "m2"], ["s1", "m1", "m2"]),
        stats,
    )
    candidate = _walk(
        path_instance, ["s2", "m4", "m3", "m2"], ["s2", "m4", "m2"]
    )
    repair_chain(forest, candidate, stats)
    assert stats.repairs == 1
    # The repaired chain used only previously-unenabled VMs.
    for chain in forest.chains[1:]:
        for pos, vnf in chain.placements.items():
            assert chain.walk[pos] in {"m3", "m4"} or forest.enabled[
                chain.walk[pos]
            ] == vnf


def test_stats_accounting(path_instance):
    stats = ResolutionStats(clean=2, case1=1, repairs=1)
    assert stats.total_conflicted() == 2
    assert stats.as_dict()["clean"] == 2
