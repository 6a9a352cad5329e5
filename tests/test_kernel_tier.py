"""Kernel-tier equivalence: array label buffers, batch queries, prefetch.

Every cached oracle row stores its labels in ``array('d')``/``array('q')``
buffers, which the compiled loops write in place and the batch queries
read through zero-copy numpy views.  The equivalence reference for that
store is the cold rebuild, as in ``test_patch_planner.py``: randomized
cost and decrease streams are replayed and every cached row is checked
against a fresh oracle over the patched graph after every patch, and so
is every row ``prefetch_rows`` installs.  The batch query entry points
are pinned against the scalar ``distance`` loop.
"""

import random
from array import array

import numpy as np
import pytest

from helpers import assert_rows_match_cold, row_states
from repro.core.problem import ServiceChain
from repro.graph import FrozenOracle, Graph
from repro.graph import indexed
from repro.obs import MetricsRegistry, Recorder
from repro.topology import inet_network



def random_graph(rng, num_nodes=36, edge_probability=0.15):
    graph = Graph()
    for i in range(num_nodes):
        graph.add_node(i)
    for i in range(num_nodes):
        for j in range(i + 1, num_nodes):
            if rng.random() < edge_probability:
                graph.add_edge(i, j, rng.uniform(0.1, 5.0))
    return graph


def _patch_stream(rng, graph, rounds, direction, working=5, queries=10):
    """One randomized op stream (built once, replayed into both oracles)."""
    nodes = list(graph.nodes())
    cost_now = {(u, v): cost for u, v, cost in graph.edges()}
    edges = list(cost_now)
    hot_rows = rng.sample(nodes, working)
    ops = []
    for _ in range(rounds):
        for _ in range(queries):
            ops.append(("distance", rng.choice(nodes), rng.choice(nodes)))
        for node in hot_rows:
            ops.append(("distance", node, rng.choice(nodes)))
        if rng.random() < 0.3:
            ops.append(("full", rng.choice(nodes)))
        if rng.random() < 0.5:
            ops.append(("prefetch", rng.sample(nodes, rng.randint(2, 8))))
        changed = {}
        for key in rng.sample(edges, rng.randint(1, 6)):
            if direction == "up":
                factor = rng.uniform(1.05, 2.5)
            else:
                factor = rng.uniform(0.3, 2.5)
            cost_now[key] = cost_now[key] * factor
            changed[key] = cost_now[key]
        ops.append(("patch", changed))
    return ops


def _apply(oracle, op) -> bool:
    """Apply one op; returns whether it was a patch."""
    if op[0] == "distance":
        oracle.distance(op[1], op[2])
    elif op[0] == "full":
        oracle.distances_from(op[1])
    elif op[0] == "prefetch":
        oracle.prefetch_rows(op[1])
    else:
        oracle.patch_edge_costs(op[1])
    return op[0] == "patch"


def _replay(oracle, ops, check_cold=False):
    """Apply one op stream; returns the row-state snapshot per patch.

    ``check_cold`` additionally checks every cached row against a cold
    rebuild after each patch.
    """
    snapshots = []
    for op in ops:
        if _apply(oracle, op):
            snapshots.append(row_states(oracle))
            if check_cold:
                assert_rows_match_cold(oracle)
    return snapshots


def _final_check(rng, graph, hot, *oracles):
    """Every oracle ends exact against a cold rebuild (hence they agree)."""
    fresh = FrozenOracle(oracles[0].graph.copy(), hot=hot)
    for source in rng.sample(list(graph.nodes()), 6):
        expected = fresh.distances_from(source)
        for oracle in oracles:
            assert oracle.distances_from(source) == expected


def _assert_array_rows(oracle):
    """Every cached row holds ``array('d')``/``array('q')`` label buffers
    whose scalar reads are plain Python floats/ints."""
    assert oracle._rows
    for row in oracle._rows.values():
        assert isinstance(row.dist, array) and row.dist.typecode == "d"
        assert isinstance(row.parent, array) and row.parent.typecode == "q"
        assert type(row.dist[0]) is float and type(row.parent[0]) is int


# ----------------------------------------------------------------------
# array label buffers
# ----------------------------------------------------------------------

@pytest.mark.parametrize("reseed", [False, True])
@pytest.mark.parametrize("direction", ["up", "mixed"])
def test_array_rows_match_cold_rebuild(direction, reseed):
    """Randomized streams: every cached row equals a cold rebuild after
    every patch, bit for bit.  ``reseed`` picks one of two seeded
    streams per direction."""
    for trial in range(3):
        rng = random.Random(4100 * trial + (direction == "up") + 2 * reseed)
        graph = random_graph(rng)
        hot = rng.sample(list(graph.nodes()), 5)
        ops = _patch_stream(rng, graph, rounds=8, direction=direction)
        oracle = FrozenOracle(graph.copy(), hot=hot)
        _replay(oracle, ops, check_cold=True)
        _assert_array_rows(oracle)
        _final_check(rng, graph, hot, oracle)


@pytest.mark.parametrize("direction", ["up", "mixed"])
def test_rows_and_served_values_match_cold_rebuild(direction):
    """More randomized streams with prefetch batches: every row matches a
    cold rebuild after every patch, and served values end exact."""
    for trial in range(3):
        rng = random.Random(5200 * trial + (direction == "up"))
        graph = random_graph(rng)
        hot = rng.sample(list(graph.nodes()), 5)
        ops = _patch_stream(rng, graph, rounds=8, direction=direction)
        oracle = FrozenOracle(graph.copy(), hot=hot)
        _replay(oracle, ops, check_cold=True)
        _final_check(rng, graph, hot, oracle)


def test_every_install_path_stores_array_rows(monkeypatch):
    """Every way a row enters the cache stores label buffers: a cold
    ``distance`` or ``distances_from`` build, ``prefetch_rows``
    (uncontracted and contracted), a contracted cold build and an
    in-place repair."""
    rng = random.Random(7)
    graph = random_graph(rng)
    nodes = list(graph.nodes())
    hot = nodes[:5]

    cold = FrozenOracle(graph.copy(), hot=hot)
    cold.distance(nodes[0], nodes[9])  # cold build from the source
    _assert_array_rows(cold)
    cold.distances_from(nodes[9])  # cold build from a cold node
    assert cold.core.index[nodes[9]] in cold._rows
    _assert_array_rows(cold)
    cold.patch_edge_costs({
        (u, v): cost * 2.0 for u, v, cost in list(graph.edges())[:6]
    })  # in-place repairs
    _assert_array_rows(cold)

    prefetched = FrozenOracle(graph.copy(), hot=hot)
    prefetched.prefetch_rows(nodes[:6])
    _assert_array_rows(prefetched)

    monkeypatch.setattr(indexed, "CONTRACT_MIN_INTERIOR", 1)
    chain = Graph.from_edges([
        (i, i + 1, 1.0 + 0.01 * i) for i in range(12)
    ] + [(0, 12, 7.5), (3, 9, 4.25)])
    contracted = FrozenOracle(chain.copy(), hot=[0, 3, 9, 12])
    contracted.distance(0, 9)  # contracted cold build
    assert contracted.contracted is not None
    _assert_array_rows(contracted)
    prefetched = FrozenOracle(chain.copy(), hot=[0, 3, 9, 12])
    prefetched.prefetch_rows([0, 3, 9, 12])
    assert prefetched.contracted is not None
    assert len(prefetched._rows) == 4
    _assert_array_rows(prefetched)


# ----------------------------------------------------------------------
# batched query entry points
# ----------------------------------------------------------------------

@pytest.mark.parametrize("patched", [False, True])
def test_distances_to_matches_scalar(patched):
    """``distances_to`` returns scalar-loop values AND scalar-loop side
    effects (the cached row set) in every cache state.
    ``patched`` interleaves cost patches, so the batch also reads rows
    the repairer rewrote in place and the row sets the idle drop left."""
    for trial in range(3):
        rng = random.Random(610 + trial)
        graph = random_graph(rng)
        nodes = list(graph.nodes())
        edges = [(u, v) for u, v, _ in graph.edges()]
        hot = rng.sample(nodes, 5)
        batched = FrozenOracle(graph.copy(), hot=hot)
        scalar = FrozenOracle(graph.copy(), hot=hot)
        for _ in range(30):
            source = rng.choice(nodes)
            targets = rng.sample(nodes, rng.randint(1, 10))
            if rng.random() < 0.3:
                targets.append(("ghost", rng.randint(0, 5)))  # not in graph
                rng.shuffle(targets)
            got = batched.distances_to(source, targets)
            want = [scalar.distance(source, t) for t in targets]
            assert got == want
            if rng.random() < 0.3:
                node = rng.choice(nodes)
                batched.prefetch_rows([node])
                scalar.prefetch_rows([node])
            if patched and rng.random() < 0.3:
                changed = {
                    (u, v): batched.graph.cost(u, v) * rng.uniform(0.3, 2.5)
                    for u, v in rng.sample(edges, rng.randint(1, 4))
                }
                batched.patch_edge_costs(changed)
                scalar.patch_edge_costs(changed)
        assert row_states(batched) == row_states(scalar)
        # The source's own row, gathered, equals a cold rebuild's row bit
        # for bit (``distance`` may serve from a target's row instead).
        fresh = FrozenOracle(batched.graph.copy(), hot=hot)
        for source in rng.sample(nodes, 4):
            batched.prefetch_rows([source])
            expected = fresh.distances_from(source)
            assert batched.distances_to(source, nodes) == [
                expected[t] for t in nodes
            ]


def _fallbacks(recorder, site):
    """``{reason: count}`` of ``oracle.fallback`` at ``site``."""
    prefix = "oracle.fallback{"
    out = {}
    for key, value in recorder.snapshot()["counters"].items():
        if key.startswith(prefix) and f"site={site}" in key:
            labels = dict(part.split("=") for part in key[len(prefix):-1].split(","))
            out[labels["reason"]] = value
    return out


@pytest.mark.parametrize("contracted", [False, True])
def test_pairwise_distances_matches_the_per_row_loop(contracted):
    """``pairwise_distances`` equals the ``distances_to`` loop it stands
    for bit for bit -- values, row-store lookups, ``used`` marks, cached
    rows and fallbacks by reason -- in every cache state, on both cores.
    Uncontracted, a node not in the graph ends some lists (every earlier
    row has a target missing) and cost patches interleave; contracted,
    interior nodes sit among the members, as sources and as targets."""
    for trial in range(3):
        rng = random.Random(720 + trial)
        if contracted:
            instance = inet_network(
                num_nodes=400, num_links=800, num_datacenters=60,
                seed=3 + trial,
            ).make_instance(num_sources=2, num_destinations=4, num_vms=30,
                            chain=ServiceChain.of_length(3), seed=5)
            graph = instance.graph
            hot = instance.vms | instance.sources | instance.destinations
        else:
            graph = random_graph(rng)
            hot = rng.sample(list(graph.nodes()), 5)
        nodes = list(graph.nodes())
        edges = [(u, v) for u, v, _ in graph.edges()]
        recorders = [Recorder(registry=MetricsRegistry()) for _ in range(2)]
        batched, looped = (
            FrozenOracle(graph.copy(), hot=hot, metrics=recorder)
            for recorder in recorders
        )
        assert (batched.contracted is not None) == contracted
        for _ in range(20):
            members = rng.sample(nodes, rng.randint(2, 12))
            if not contracted and rng.random() < 0.3:
                members.append(("ghost", rng.randint(0, 5)))
            if rng.random() < 0.5:
                warm = rng.sample(members, rng.randint(1, len(members)))
                batched.prefetch_rows(warm)
                looped.prefetch_rows(warm)
            size = len(members)
            out = np.full((size + 1, size + 2), -1.0)
            batched.pairwise_distances(members, out)
            for i in range(size):
                want = looped.distances_to(members[i], members[i + 1:])
                assert out[i, i + 1:size].tolist() == want
                assert (out[i, :i + 1] == -1.0).all()
                assert (out[i, size:] == -1.0).all()
            assert (out[size] == -1.0).all()
            assert _lookups(batched) == _lookups(looped)
            assert _used(batched) == _used(looped)
            assert row_states(batched) == row_states(looped)
            if not contracted and rng.random() < 0.3:
                changed = {
                    (u, v): batched.graph.cost(u, v) * rng.uniform(0.3, 2.5)
                    for u, v in rng.sample(edges, rng.randint(1, 4))
                }
                batched.patch_edge_costs(changed)
                looped.patch_edge_costs(changed)
        reasons = _fallbacks(recorders[0], "pairwise_distances")
        assert reasons == _fallbacks(recorders[1], "distances_to")
        assert reasons.get("row_not_cached")
        assert reasons.get(
            "endpoint_missing" if contracted else "target_missing"
        )


def _detour_scalar(oracle, a, u, targets):
    """Pair ``(a, u)``'s scalar loop: both distances per target but ``u``."""
    da, du = [], []
    for m in targets:
        if m != u:
            da.append(oracle.distance(a, m))
            du.append(oracle.distance(u, m))
    return da, du


def _lookups(oracle):
    return oracle._rows.hits + oracle._rows.misses


def _used(oracle):
    return {sid: row.used for sid, row in oracle._rows.items()}


def test_detour_distances_matches_scalar():
    """Each pair of a ``detour_distances`` block either answers with the
    scalar loop's values and side effects (cached rows, ``used`` marks)
    plus exactly two row-store lookups, or returns
    ``None`` after those two lookups and nothing else.  Blocks run one
    source against one or several last VMs, some of which are targets
    too; cost patches between pairs clear the ``used`` marks."""
    for trial in range(3):
        rng = random.Random(910 + trial)
        graph = random_graph(rng)
        nodes = list(graph.nodes())
        edges = [(u, v) for u, v, _ in graph.edges()]
        batched = FrozenOracle(graph.copy())
        scalar = FrozenOracle(graph.copy())
        answered = 0
        for round_index in range(30):
            a, *lasts = rng.sample(nodes, rng.randint(2, 5))
            targets = rng.sample([n for n in nodes if n != a],
                                 rng.randint(2, 8))
            if rng.random() < 0.2:
                targets.append(("ghost", rng.randint(0, 5)))
                rng.shuffle(targets)
            block = batched.detour_distances(a, lasts, targets)
            for i, u in enumerate(lasts):
                before_rows = row_states(batched)
                before_lookups = _lookups(batched)
                got = block.serve(i)
                assert _lookups(batched) == before_lookups + 2
                want = _detour_scalar(scalar, a, u, targets)
                if got is None:
                    # Refusal leaves nothing but the two lookups.
                    assert row_states(batched) == before_rows
                    _detour_scalar(batched, a, u, targets)  # lockstep
                else:
                    answered += 1
                    da, db, j = got
                    keep = [k for k, t in enumerate(targets) if t != u]
                    assert da[keep].tolist() == want[0]
                    assert db[j, keep].tolist() == want[1]
                assert _used(batched) == _used(scalar)
                if rng.random() < 0.3:
                    pair = rng.sample(nodes, 2)
                    batched.prefetch_rows(pair)
                    scalar.prefetch_rows(pair)
                if rng.random() < 0.2:
                    changed = {
                        (u, v): batched.graph.cost(u, v) * rng.uniform(0.5, 2)
                        for u, v in rng.sample(edges, 2)
                    }
                    batched.patch_edge_costs(changed)
                    scalar.patch_edge_costs(changed)
        assert answered
        # Warm the source and every last VM: every pair must engage,
        # and all of them are served from one gather.
        a, *lasts = rng.sample(nodes, 6)
        batched.prefetch_rows([a] + lasts)
        scalar.prefetch_rows([a] + lasts)
        targets = [n for n in nodes if n != a]
        block = batched.detour_distances(a, lasts, targets)
        blocks = set()
        for i, u in enumerate(lasts):
            got = block.serve(i)
            assert got is not None
            da, db, j = got
            blocks.add(id(db))
            want = _detour_scalar(scalar, a, u, targets)
            keep = [k for k, t in enumerate(targets) if t != u]
            assert da[keep].tolist() == want[0]
            assert db[j, keep].tolist() == want[1]
        assert len(blocks) == 1


# ----------------------------------------------------------------------
# row prefetch and clones
# ----------------------------------------------------------------------

@pytest.mark.parametrize("contracted", [False, True])
def test_prefetch_rows_match_cold_rebuild(contracted, monkeypatch):
    """``prefetch_rows`` over overlapping, repeated batches builds each
    missing row once and touches cached rows in place; every row equals
    a cold rebuild and serves a fresh oracle's distances."""
    if contracted:
        monkeypatch.setattr(indexed, "CONTRACT_MIN_INTERIOR", 1)
    for trial in range(2):
        rng = random.Random(7300 + trial)
        graph = random_graph(rng)
        nodes = list(graph.nodes())
        hot = rng.sample(nodes, 6)
        oracle = FrozenOracle(graph.copy(), hot=hot)
        assert (oracle.contracted is not None) == contracted
        index = oracle.contracted.index if contracted else oracle.core.index
        fetched = set()
        batch = []
        for _ in range(6):
            # Overlap the previous batch and repeat nodes within a batch.
            batch = batch[:3] + rng.sample(nodes, rng.randint(2, 9))
            batch += batch[:2]
            before = dict(oracle._rows)
            oracle.prefetch_rows(batch)
            fetched.update(index[n] for n in batch if n in index)
            assert set(oracle._rows) == fetched
            for sid, row in before.items():
                assert oracle._rows[sid] is row  # touched, not rebuilt
            assert_rows_match_cold(oracle)
        _assert_array_rows(oracle)
        fresh = FrozenOracle(graph.copy(), hot=hot)
        for node in nodes:
            if index.get(node) in fetched:
                assert oracle.distances_from(node) == fresh.distances_from(node)


def test_rebased_clone_preserves_kernel_flags():
    rng = random.Random(3)
    graph = random_graph(rng)
    oracle = FrozenOracle(graph, row_budget_bytes=1 << 30)
    oracle.distances_from(0)
    clone = oracle.rebased(graph.copy(), {})
    assert clone.row_budget_bytes == 1 << 30
