"""Tests for Procedures 1-2: k-stroll instance construction and chain walks."""

import copy
import itertools
import random

import pytest

from helpers import random_instance
from repro import Graph, ServiceChain, SOFInstance
from repro.core import transform
from repro.core.transform import build_kstroll_instance, chain_walk, expand_stroll
from repro.graph import solve_kstroll


@pytest.fixture
def diamond_instance():
    # 0 -- 1 -- 3,  0 -- 2 -- 3, VMs 1 and 2, plus a far VM 4.
    graph = Graph.from_edges([
        (0, 1, 1.0), (1, 3, 1.0), (0, 2, 2.0), (2, 3, 2.0), (3, 4, 5.0),
    ])
    return SOFInstance(
        graph=graph, vms={1, 2, 4}, sources={0}, destinations={3},
        chain=ServiceChain.of_length(2),
        node_costs={1: 10.0, 2: 6.0, 4: 2.0},
    )


def test_procedure1_cost_identity(diamond_instance):
    """A k-node path in the instance costs (shortest paths) + (VM setups).

    This is the defining property of Procedure 1's cost sharing: for the
    path s, m1, ..., mk = u, the instance cost equals the sum of the
    underlying shortest-path connection costs plus the setup costs of
    m1..mk (Section IV).
    """
    instance = diamond_instance
    kinst = build_kstroll_instance(instance, 0, 4)
    oracle = instance.oracle
    for order in itertools.permutations([1, 2]):
        path = [0] + list(order) + [4]
        expected = sum(
            oracle.distance(a, b) for a, b in zip(path, path[1:])
        ) + sum(instance.setup_cost(m) for m in path[1:])
        assert kinst.path_cost(path) == pytest.approx(expected)


def test_procedure1_direct_edge_shares_last_vm_setup(diamond_instance):
    kinst = build_kstroll_instance(diamond_instance, 0, 4)
    # Edge (s, u): path cost + (c(u) + c(u))/2 = path + c(u).
    expected = diamond_instance.oracle.distance(0, 4) + 2.0
    assert kinst.edge(0, 4) == pytest.approx(expected)


@pytest.mark.parametrize("seed", range(6))
def test_lemma1_triangle_inequality(seed):
    """Lemma 1: the Procedure-1 instance satisfies the triangle inequality."""
    instance = random_instance(seed, n=16, num_vms=6, chain_len=2)
    source = sorted(instance.sources, key=repr)[0]
    last = sorted(instance.vms, key=repr)[0]
    if last == source:
        last = sorted(instance.vms, key=repr)[1]
    kinst = build_kstroll_instance(instance, source, last)
    nodes = kinst.nodes
    for a, b, c in itertools.permutations(nodes, 3):
        assert kinst.edge(a, c) <= kinst.edge(a, b) + kinst.edge(b, c) + 1e-9


def test_appendix_d_source_cost(diamond_instance):
    instance = diamond_instance.derive(source_costs={0: 7.0})
    kinst = build_kstroll_instance(instance, 0, 4)
    # Direct (s, u): path + c(s) + c(u).
    expected = instance.oracle.distance(0, 4) + 7.0 + 2.0
    assert kinst.edge(0, 4) == pytest.approx(expected)
    # Path s -> m -> u still totals path costs + c(s) + setups.
    path = [0, 1, 4]
    expected = (
        instance.oracle.distance(0, 1) + instance.oracle.distance(1, 4)
        + 7.0 + 10.0 + 2.0
    )
    assert kinst.path_cost(path) == pytest.approx(expected)


def test_chain_walk_structure(diamond_instance):
    cw = chain_walk(diamond_instance, 0, 4)
    assert cw is not None
    assert cw.source == 0
    assert cw.last_vm == 4
    assert cw.stroll[0] == 0
    assert len(cw.stroll) == 3  # source + |C| VMs
    # Positions index the walk correctly.
    for node, pos in zip(cw.stroll, cw.positions):
        assert cw.walk[pos] == node
    # Walk edges exist in G.
    for a, b in zip(cw.walk, cw.walk[1:]):
        assert diamond_instance.graph.has_edge(a, b)
    # Costs are consistent.
    edge_cost = sum(
        diamond_instance.graph.cost(a, b)
        for a, b in zip(cw.walk, cw.walk[1:])
    )
    assert cw.connection_cost == pytest.approx(edge_cost)
    assert cw.setup_cost == pytest.approx(
        sum(diamond_instance.setup_cost(m) for m in cw.stroll[1:])
    )


def test_chain_walk_picks_cheap_vm(diamond_instance):
    # VM 2 (setup 6) beats VM 1 (setup 10) net of the pricier path.
    cw = chain_walk(diamond_instance, 0, 4)
    assert cw.total_cost <= 1 + 1 + 5 + 10 + 2 + 1e-9


def test_chain_walk_to_deployed_chain(diamond_instance):
    cw = chain_walk(diamond_instance, 0, 4)
    chain = cw.to_deployed_chain()
    placed = chain.vnf_positions()
    assert [vnf for _, vnf in placed] == [0, 1]
    assert chain.last_vm == 4


def test_chain_walk_same_endpoints_returns_none(diamond_instance):
    assert chain_walk(diamond_instance, 4, 4) is None


def test_chain_walk_pool_too_small_returns_none(diamond_instance):
    assert chain_walk(diamond_instance, 0, 4, candidate_vms={4}) is None


def test_chain_walk_pool_cap_still_valid(monkeypatch):
    instance = random_instance(3, n=40, num_vms=30, chain_len=3)
    source = sorted(instance.sources, key=repr)[0]
    last = sorted(instance.vms, key=repr)[0]
    monkeypatch.setattr(transform, "POOL_CAP", 5)
    capped = chain_walk(instance, source, last)
    monkeypatch.setattr(transform, "POOL_CAP", len(instance.vms))
    uncapped = chain_walk(instance, source, last)
    assert capped is not None and uncapped is not None
    assert len(capped.stroll) == len(instance.chain) + 1
    # Capping can only lose quality, never validity.
    assert capped.total_cost >= uncapped.total_cost - 1e-9


def test_vm_source_edges_come_from_the_source_row():
    """A VM source's edges cost ``d(s, v) + (c(u) + c(v)) / 2`` in both
    directions, never the VM-pair cost that the shared metric row of
    ``v`` holds at the source's column."""
    instance = random_instance(4, n=16, num_vms=6, chain_len=2)
    source, last, *others = instance.sorted_vms()
    kinst = build_kstroll_instance(instance, source, last)
    rows = instance.metric_rows()
    distance = instance.oracle.distance
    cu = instance.setup_cost(last)
    assert kinst.nodes == [source, last] + others
    for v in [last] + others:
        expected = distance(source, v) + (cu + instance.setup_cost(v)) / 2.0
        assert kinst.edge(v, source) == kinst.edge(source, v) == expected
        assert kinst.cost[source][v] == expected
        assert rows[v][source] != expected
        assert kinst.cost[v] is rows[v]


def test_instances_leave_the_metric_rows_unchanged():
    """Instances for two sources (one a VM) and two last VMs each share
    the metric rows and write none of them."""
    instance = random_instance(5, n=16, num_vms=6, chain_len=2)
    vms = instance.sorted_vms()
    before = copy.deepcopy(instance.metric_rows())
    for source in (sorted(instance.sources, key=repr)[0], vms[0]):
        for last in vms[1:3]:
            kinst = build_kstroll_instance(instance, source, last)
            solve_kstroll(kinst, 3, method="exact")
    assert instance.metric_rows() == before


def test_expand_stroll_folds_costs_left_to_right():
    """A walk's connection and setup costs fold left to right from 0,
    whatever the Python version: ``sum`` of floats is compensated since
    3.12, where it gives 0.6 for both, and the priced virtual edges of
    Procedure 3 must equal these bit for bit."""
    graph = Graph.from_edges([(0, 1, 0.1), (1, 2, 0.2), (2, 3, 0.3)])
    instance = SOFInstance(
        graph=graph, vms={1, 2, 3}, sources={0}, destinations={3},
        chain=ServiceChain.of_length(3),
        node_costs={1: 0.1, 2: 0.2, 3: 0.3},
    )
    walk = expand_stroll(instance, [0, 1, 2, 3])
    folded = (0.1 + 0.2) + 0.3
    assert folded != 0.6
    assert walk.walk == [0, 1, 2, 3]
    assert walk.connection_cost == folded
    assert walk.setup_cost == folded
