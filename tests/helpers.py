"""Shared test helpers (importable: pytest's conftest is not)."""

from __future__ import annotations

import random

from repro import Graph, ServiceChain, SOFInstance
from repro.graph import FrozenOracle


def random_connected_graph(rng: random.Random, n: int, extra_edges: int,
                           max_cost: float = 10.0) -> Graph:
    """Random connected graph: a random spanning tree plus extra edges."""
    graph = Graph()
    nodes = list(range(n))
    for i in range(1, n):
        j = rng.randrange(i)
        graph.add_edge(nodes[i], nodes[j], rng.uniform(1.0, max_cost))
    added = 0
    attempts = 0
    while added < extra_edges and attempts < extra_edges * 20:
        attempts += 1
        u, v = rng.sample(nodes, 2)
        if not graph.has_edge(u, v):
            graph.add_edge(u, v, rng.uniform(1.0, max_cost))
            added += 1
    return graph


def random_instance(seed: int, n: int = 14, num_vms: int = 6,
                    num_sources: int = 2, num_dests: int = 3,
                    chain_len: int = 2) -> SOFInstance:
    """A random but always-valid SOF instance for property tests."""
    rng = random.Random(seed)
    graph = random_connected_graph(rng, n, extra_edges=n // 2)
    nodes = list(range(n))
    rng.shuffle(nodes)
    vms = nodes[:num_vms]
    rest = nodes[num_vms:]
    sources = rest[:num_sources]
    dests = rest[num_sources:num_sources + num_dests]
    return SOFInstance(
        graph=graph,
        vms=vms,
        sources=sources,
        destinations=dests,
        chain=ServiceChain.of_length(chain_len),
        node_costs={vm: rng.uniform(0.5, 20.0) for vm in vms},
    )


def row_states(oracle: FrozenOracle) -> dict:
    """Every cached row's labels and parent tree as plain lists, by row id.

    The lists are copies, so a snapshot stays as it was while later
    patches repair the rows in place.  Reads rows directly, so taking
    one never marks a row as used.
    """
    return {
        sid: (list(row.dist), list(row.parent))
        for sid, row in oracle._rows.items()
    }


def assert_rows_match_cold(oracle: FrozenOracle) -> None:
    """Every cached row of ``oracle`` equals a cold rebuild's.

    The cold rebuild is an exhaustive Dijkstra over a fresh oracle for
    the same (patched) graph and hot set; row ids line up because both
    intern (or contract) the graph in its node order.  Shortest paths
    are unique on continuous-cost graphs, so a repaired row must equal
    it exactly (labels and parent tree).  A patched contracted oracle
    is rebuilt, not repaired, so its rows are a fresh contraction's, bit
    for bit.  Reads rows directly, so the check never marks a row as
    used.
    """
    fresh = FrozenOracle(oracle.graph.copy(), hot=oracle._hot)
    contracted = fresh.contracted
    assert (contracted is None) == (oracle.contracted is None)
    core = contracted if contracted is not None else fresh.core
    for sid, row in oracle._rows.items():
        dist, parent = core.dijkstra(sid)
        assert list(row.dist) == list(dist), f"row {sid} labels differ"
        assert list(row.parent) == list(parent), f"row {sid} tree differs"
