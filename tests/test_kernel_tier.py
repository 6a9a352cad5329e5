"""Kernel-tier equivalence: array label buffers, batch queries, prefetch.

Every cached oracle row stores its labels in ``array('d')``/``array('q')``
buffers, and the batch queries and repair scans read them through
zero-copy numpy views.  The equivalence reference for that store is the
cold rebuild, as in ``test_patch_planner.py``: randomized cost and
decrease streams are replayed and every cached row is checked against a
fresh oracle over the patched graph after every patch, and so is every
row ``prefetch_rows`` installs.

The single-boundary offset solve (summation-stable shared regions) is
pinned bit for bit against its own heap fallback, and the batch query
entry points against the scalar ``distance`` loop.
"""

import random
from array import array

import pytest

from helpers import assert_rows_match_cold
from repro.graph import FrozenOracle, Graph
from repro.graph import indexed

INF = float("inf")


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


def _row_states(oracle):
    """Full observable repair state as plain, comparable values."""
    return {
        sid: (
            list(row.dist),
            list(row.parent),
            None if row.settled is None else bytes(row.settled),
            row.full,
            row.stale,
            row.cutoff,
        )
        for sid, row in oracle._rows.items()
    }


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
            snapshots.append(_row_states(oracle))
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


def _heap_fallback(self, dist, parent, settled, full):
    """``_SharedRegion.apply_offset`` refusing every region, so each one
    repairs through the per-row heap (the documented fallback)."""
    return False


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

@pytest.mark.parametrize("patchable", [False, True])
@pytest.mark.parametrize("direction", ["up", "mixed"])
def test_array_rows_match_cold_rebuild(direction, patchable):
    """Randomized streams: every cached row equals a cold rebuild after
    every patch (full rows bit for bit, early-stopped rows on every
    settled label)."""
    for trial in range(3):
        rng = random.Random(4100 * trial + (direction == "up") + 2 * patchable)
        graph = random_graph(rng)
        hot = rng.sample(list(graph.nodes()), 5)
        ops = _patch_stream(rng, graph, rounds=8, direction=direction)
        oracle = FrozenOracle(graph.copy(), hot=hot, patchable=patchable)
        _replay(oracle, ops, check_cold=True)
        _assert_array_rows(oracle)
        _final_check(rng, graph, hot, oracle)


@pytest.mark.parametrize("direction", ["up", "mixed"])
def test_shared_regions_match_cold_rebuild(direction, monkeypatch):
    """Forced region sharing: the whole-array seed/reset/settle scans and
    the single-boundary offset solve match a cold rebuild after every
    patch, and leave row state bit-identical to an oracle that never
    shares (``PLANNER_SHARE_MIN_ROWS`` at infinity)."""
    monkeypatch.setattr(indexed, "PLANNER_SHARE_MIN_ROWS", 1)
    monkeypatch.setattr(indexed, "PLANNER_SHARE_DENSITY", 0.0)
    for trial in range(3):
        rng = random.Random(5200 * trial + (direction == "up"))
        graph = random_graph(rng)
        hot = rng.sample(list(graph.nodes()), 5)
        ops = _patch_stream(rng, graph, rounds=8, direction=direction)
        shared = FrozenOracle(graph.copy(), hot=hot)
        unshared = FrozenOracle(graph.copy(), hot=hot)
        shared_snaps = _replay(shared, ops, check_cold=True)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(indexed, "PLANNER_SHARE_MIN_ROWS", INF)
            assert shared_snaps == _replay(unshared, ops)
        _final_check(rng, graph, hot, shared, unshared)


def _offset_vs_heap(monkeypatch, edges, ops, hot=None):
    """Run ``ops`` on an oracle with the offset solve and on a twin whose
    every region takes the heap fallback; returns ``(offset, heap,
    outcomes)`` with the offset oracle's ``apply_offset`` results."""
    monkeypatch.setattr(indexed, "PLANNER_SHARE_MIN_ROWS", 1)
    monkeypatch.setattr(indexed, "PLANNER_SHARE_DENSITY", 0.0)
    outcomes = []
    orig = indexed._SharedRegion.apply_offset

    def counting(self, *args, **kwargs):
        result = orig(self, *args, **kwargs)
        outcomes.append(result)
        return result

    offset = FrozenOracle(Graph.from_edges(edges), hot=hot)
    heap = FrozenOracle(Graph.from_edges(edges), hot=hot)
    for oracle, apply_offset in ((offset, counting), (heap, _heap_fallback)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(indexed._SharedRegion, "apply_offset", apply_offset)
            ops(oracle)
    return offset, heap, outcomes


def test_offset_solve_single_boundary_pod(monkeypatch):
    """A bridge-detached pod region repairs through the offset solve.

    Star-of-trees behind a single uplink (the ``test_patch_planner``
    amortisation topology): every row rooted outside the pod detaches
    the same single-boundary region when the uplink cost grows, so
    those repairs must route through ``_SharedRegion.apply_offset`` and
    still match the heap fallback bit for bit, and a cold rebuild.
    """
    edges = [
        ("hub", "s0", 1.0), ("hub", "s1", 1.2), ("hub", "s2", 1.4),
        ("hub", "p0", 1.0), ("p0", "p1", 1.1), ("p1", "p2", 1.2),
        ("p0", "q0", 0.5), ("p1", "q1", 0.5), ("p2", "q2", 0.5),
    ]
    rows = ("hub", "s0", "s1", "s2", "p0", "p1", "q2")

    def ops(oracle):
        for node in rows:
            oracle.distances_from(node)
        oracle.patch_edge_costs({("hub", "p0"): 3.0})

    offset, heap, outcomes = _offset_vs_heap(monkeypatch, edges, ops)
    assert any(outcomes), "offset solve never engaged"
    assert _row_states(offset) == _row_states(heap)
    assert_rows_match_cold(offset)
    fresh = FrozenOracle(offset.graph.copy())
    for node in rows:
        assert offset.distances_from(node) == fresh.distances_from(node)


def test_offset_solve_unreachable_region(monkeypatch):
    """Offset path handles a region whose lone boundary seed is dead.

    An early-stopped row from ``s`` (hot ``s`` and ``c``) settles
    ``s, a, b, c`` and leaves ``d`` (tentative child of ``c``) and ``e``
    unsettled.  Failing ``a-b`` detaches the region ``{b, c, d}``, whose
    only boundary edge is ``d-e``; ``e`` is unsettled, so no seed is
    intact and the region must stay at its INF/-1 reset through the
    offset path's reset-only branch -- exactly as the heap fallback
    leaves it -- and then serve ``b`` by recomputing the row.
    """
    edges = [
        ("s", "a", 1.0), ("a", "b", 1.0), ("b", "c", 1.0),
        ("c", "d", 10.0), ("d", "e", 6.0), ("e", "s", 15.0),
    ]

    def ops(oracle):
        oracle.distance("s", "c")
        oracle.patch_topology(removed=[("a", "b")])
        row = oracle._rows[oracle.core.index["s"]]
        assert not row.full
        assert all(row.dist[oracle.core.index[v]] == INF for v in "bcd")

    offset, heap, outcomes = _offset_vs_heap(
        monkeypatch, edges, ops, hot=["s", "c"]
    )
    assert outcomes == [True], "reset-only branch never engaged"
    assert _row_states(offset) == _row_states(heap)
    assert_rows_match_cold(offset)
    assert offset.distance("s", "b") == 15.0 + 6.0 + 10.0 + 1.0


def test_every_install_path_stores_array_rows(monkeypatch):
    """Every way a row enters the cache stores label buffers: cold
    ``_compute``, ``prefetch_rows`` (uncontracted and contracted),
    ``_contracted_row``, the ``distances_from`` upgrade, an in-place
    repair and a ``rebased`` clone."""
    rng = random.Random(7)
    graph = random_graph(rng)
    nodes = list(graph.nodes())
    hot = nodes[:5]

    cold = FrozenOracle(graph.copy(), hot=hot)
    cold.distance(nodes[0], nodes[9])  # _compute, early-stopped at hot
    _assert_array_rows(cold)
    assert not cold._rows[cold.core.index[nodes[0]]].full
    cold.distances_from(nodes[0])  # full-row upgrade
    assert cold._rows[cold.core.index[nodes[0]]].full
    _assert_array_rows(cold)
    cold.patch_edge_costs({
        (u, v): cost * 2.0 for u, v, cost in list(graph.edges())[:6]
    })  # in-place repairs
    _assert_array_rows(cold)
    cold.distances_from(nodes[0])  # served, so the clone's patch keeps it
    edge = next(iter(graph.edges()))
    clone = cold.rebased(cold.graph.copy(), {edge[:2]: edge[2] * 3.0})
    _assert_array_rows(clone)

    prefetched = FrozenOracle(graph.copy(), hot=hot)
    prefetched.prefetch_rows(nodes[:6])
    _assert_array_rows(prefetched)

    monkeypatch.setattr(indexed, "CONTRACT_MIN_INTERIOR", 1)
    chain = Graph.from_edges([
        (i, i + 1, 1.0 + 0.01 * i) for i in range(12)
    ] + [(0, 12, 7.5), (3, 9, 4.25)])
    contracted = FrozenOracle(chain.copy(), hot=[0, 3, 9, 12])
    contracted.distance(0, 9)  # _contracted_row
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

@pytest.mark.parametrize("patchable", [False, True])
def test_distances_to_matches_scalar(patchable):
    """``distances_to`` returns scalar-loop values AND scalar-loop side
    effects (query counters, cached row set) in every cache state, over
    early-stopped rows (settled-mask gate) and exhaustive rows alike."""
    for trial in range(3):
        rng = random.Random(610 + trial)
        graph = random_graph(rng)
        nodes = list(graph.nodes())
        hot = rng.sample(nodes, 5)
        batched = FrozenOracle(graph.copy(), hot=hot, patchable=patchable)
        scalar = FrozenOracle(graph.copy(), hot=hot, patchable=patchable)
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
                scalar.warm([node])
        assert batched._queries == scalar._queries
        assert _row_states(batched) == _row_states(scalar)


def test_detour_distances_matches_scalar():
    """``detour_distances`` either answers with scalar values + scalar
    side effects, or returns ``None`` leaving the oracle untouched."""
    for trial in range(3):
        rng = random.Random(910 + trial)
        graph = random_graph(rng)
        nodes = list(graph.nodes())
        batched = FrozenOracle(graph.copy())
        scalar = FrozenOracle(graph.copy())
        answered = 0
        for round_index in range(30):
            a, b = rng.sample(nodes, 2)
            targets = rng.sample(nodes, rng.randint(1, 8))
            if rng.random() < 0.2:
                targets.append(("ghost", rng.randint(0, 5)))
                rng.shuffle(targets)
            before_queries = dict(batched._queries)
            before_rows = _row_states(batched)
            got = batched.detour_distances(a, b, targets)
            if got is None:
                # Refusal must be side-effect free.
                assert batched._queries == before_queries
                assert _row_states(batched) == before_rows
                for m in targets:  # keep both caches in lockstep
                    batched.distance(a, m)
                    batched.distance(b, m)
            else:
                answered += 1
                da, db = got
                assert da == [scalar.distance(a, m) for m in targets]
                assert db == [scalar.distance(b, m) for m in targets]
                continue  # scalar side already queried below
            for m in targets:
                scalar.distance(a, m)
                scalar.distance(b, m)
            if rng.random() < 0.4:
                pair = rng.sample(nodes, 2)
                batched.prefetch_rows(pair)
                scalar.prefetch_rows(pair)
            assert batched._queries == scalar._queries
        # Warm both endpoint rows explicitly: the fast path must engage.
        a, b = rng.sample(nodes, 2)
        batched.prefetch_rows([a, b])
        scalar.prefetch_rows([a, b])
        got = batched.detour_distances(a, b, nodes)
        assert got is not None
        da, db = got
        assert da == [scalar.distance(a, m) for m in nodes]
        assert db == [scalar.distance(b, m) for m in nodes]
        assert batched._queries == scalar._queries


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
    oracle = FrozenOracle(graph, patchable=True, row_budget_bytes=1 << 30)
    oracle.distances_from(0)
    clone = oracle.rebased(graph.copy(), {})
    assert clone._patchable
    assert clone.row_budget_bytes == 1 << 30
    assert _row_states(clone) == _row_states(oracle)
    # Copied rows are fresh label buffers, not views of the original's.
    _assert_array_rows(clone)
    row = next(iter(clone._rows.values()))
    assert row.dist is not next(iter(oracle._rows.values())).dist
