"""The compiled search loops against their Python twins.

:func:`repro.graph.kernel.settle` is the one search loop behind every
oracle row build and repair, and :func:`repro.graph.kernel.repair` the
one-call increase repair of a row that ends in it.  Both are compiled
from ``_settle.c`` when the kernel is imported, and
:func:`~repro.graph.kernel.settle_python` and
:func:`~repro.graph.kernel.repair_python` are their
statement-for-statement twins.  These tests run both on the same seeded
random graphs -- all-equal costs (every distance a tie, like the online
simulator's floor-cost VM edges), continuous costs, and graphs with
tombstoned ``inf`` slots -- in the ways the oracle calls them, and
require the ``dist``/``parent`` buffers to match bit for bit.  They also pin the native wrappers' buffer
checks, how the compiled object is cached, and that a missing compiler,
home directory or disk space leaves the import working.
"""

from __future__ import annotations

import ctypes
import errno
import importlib.util
import os
import random
import shutil
import tempfile
from array import array
from pathlib import Path

import pytest

from repro.graph import IndexedGraph, kernel
from repro.graph.graph import Graph
from repro.graph.shortest_paths import dijkstra

INF = float("inf")
KINDS = ("repeated", "continuous", "tombstoned")
GRAPHS_PER_KIND = 8

native = pytest.mark.skipif(
    not kernel.NATIVE,
    reason=f"compiled settle loop unavailable: {kernel.NATIVE_REASON}",
)


def _random_csr(rng: random.Random, kind: str, n: int = 60):
    """A random undirected CSR graph: a spanning tree plus chords."""
    return _to_csr(_random_adjacency(rng, kind, n))


def _random_adjacency(rng: random.Random, kind: str, n: int):
    """Per-node ``(neighbour, weight)`` lists of :func:`_random_csr`."""
    edges = {}
    for v in range(1, n):
        edges[(rng.randrange(v), v)] = None
    for _ in range(n + n // 2):
        u, v = sorted(rng.sample(range(n), 2))
        edges[(u, v)] = None
    adjacency = [[] for _ in range(n)]
    for u, v in edges:
        if kind == "repeated":
            w = 1.0
        else:
            w = rng.uniform(0.1, 10.0)
            if kind == "tombstoned" and rng.random() < 0.2:
                w = INF
        adjacency[u].append((v, w))
        adjacency[v].append((u, w))
    for row in adjacency:
        rng.shuffle(row)
    return adjacency


def _to_csr(adjacency):
    indptr, indices, weights = [0], [], []
    for row in adjacency:
        for v, w in row:
            indices.append(v)
            weights.append(w)
        indptr.append(len(indices))
    return array("q", indptr), array("q", indices), array("d", weights)


def _both(csr, dist, parent, seeds, **flags):
    """Run the compiled loop and the twin on copies; assert identical."""
    outcomes = []
    for fn in (kernel.settle_native, kernel.settle_python):
        d, p = dist[:], parent[:]
        assert fn(csr, d, p, seeds, **flags) is None
        outcomes.append((d.tobytes(), p.tobytes()))
    assert outcomes[0] == outcomes[1]
    return d, p


def _full_row(csr, source):
    """An exhaustive node-tie row from ``source`` (the twin's)."""
    dist, parent = kernel.new_labels(len(csr[0]) - 1)
    dist[source] = 0.0
    kernel.settle_python(csr, dist, parent, (source,))
    return dist, parent


def _cases(kind):
    rng = random.Random(f"settle-{kind}")
    for _ in range(GRAPHS_PER_KIND):
        csr = _random_csr(rng, kind)
        yield rng, csr, rng.randrange(len(csr[0]) - 1)


@native
@pytest.mark.parametrize("kind", KINDS)
def test_counter_ties_to_exhaustion(kind):
    """Uncontracted cold builds: push-counter ties, run dry.  The labels
    equal a node-tie run's, since every cost sum here is exact whichever
    equal-cost parent a tie picks."""
    for _, csr, source in _cases(kind):
        n = len(csr[0]) - 1
        dist, parent = kernel.new_labels(n)
        dist[source] = 0.0
        dist, parent = _both(csr, dist, parent, (source,), counter=True)
        assert dist.tobytes() == _full_row(csr, source)[0].tobytes()
        for v in range(n):
            assert (parent[v] == -1) == (dist[v] == INF or v == source)


@native
@pytest.mark.parametrize("kind", KINDS)
def test_node_ties_to_exhaustion(kind):
    """Contracted cold builds: node-id ties, no mask, run dry."""
    for _, csr, source in _cases(kind):
        dist, parent = kernel.new_labels(len(csr[0]) - 1)
        dist[source] = 0.0
        _both(csr, dist, parent, (source,))


def _repair_both(csr, dist, parent, roots):
    """Run the compiled repair and the twin on copies; assert identical."""
    outcomes = []
    for fn in (kernel.repair_native, kernel.repair_python):
        d, p = dist[:], parent[:]
        assert fn(csr, d, p, roots) is None
        outcomes.append((d.tobytes(), p.tobytes()))
    assert outcomes[0] == outcomes[1]
    return d, p


def _set_weight(csr, a, b, w):
    """Write ``w`` into both CSR slots of edge ``a``--``b``."""
    indptr, indices, weights = csr
    for x, y in ((a, b), (b, a)):
        for pos in range(indptr[x], indptr[x + 1]):
            if indices[pos] == y:
                weights[pos] = w


def _subtree(parent, root):
    """``root`` and its parent-tree descendants."""
    out = {root}
    grew = True
    while grew:
        grew = False
        for v, p in enumerate(parent):
            if p in out and v not in out:
                out.add(v)
                grew = True
    return out


def _repair_cases(kind):
    """Random graphs with a pendant leaf and a pendant two-node chain.

    Yields ``(rng, csr, source, leaf, chain_head, chain_tail)``; the
    pendants hang off random nodes of a :func:`_random_adjacency`
    graph, so a detached region can be a lone leaf or end unreachable.
    """
    rng = random.Random(f"repair-{kind}")
    for _ in range(GRAPHS_PER_KIND):
        n = 60
        adjacency = _random_adjacency(rng, kind, n) + [[], [], []]
        leaf, head, tail = n, n + 1, n + 2
        for a, b in ((rng.randrange(n), leaf), (rng.randrange(n), head),
                     (head, tail)):
            w = 1.0 if kind == "repeated" else rng.uniform(0.1, 10.0)
            adjacency[a].append((b, w))
            adjacency[b].append((a, w))
        yield rng, _to_csr(adjacency), rng.randrange(n), leaf, head, tail


@native
@pytest.mark.parametrize("kind", KINDS)
def test_masked_region_repair(kind):
    """The increase repair (:func:`kernel.repair`): a detached region is
    marked, reset, seeded from its intact boundary and re-searched with
    relaxations masked to it -- C and twin bit for bit, and every label
    equal to a cold rebuild's over the new weights.

    Roots: one root; nested and duplicate roots (one region, marked
    once); a degree-1 leaf, whose repair is ``dist[anchor] + w``; and a
    tombstoned pendant chain beside an ordinary root, which leaves that
    part of the region unreachable.
    """
    def dearer(csr, v, parent):
        grown = (csr[0], csr[1], csr[2][:])
        a = parent[v]
        for pos in range(grown[0][v], grown[0][v + 1]):
            if grown[1][pos] == a:
                _set_weight(grown, a, v, grown[2][pos] * 3.0)
        return grown

    unreachable = 0
    for rng, csr, source, leaf, head, tail in _repair_cases(kind):
        n = len(csr[0]) - 1
        dist, parent = _full_row(csr, source)
        tree = [v for v in range(n) if parent[v] >= 0]
        root = rng.choice(tree)
        below = sorted(_subtree(parent, root) - {root})
        nested = rng.choice(below) if below else root
        cases = [
            (dearer(csr, root, parent), [root]),
            (dearer(dearer(csr, root, parent), nested, parent),
             [nested, root, root, nested]),
        ]
        if parent[leaf] >= 0:
            cases.append((dearer(csr, leaf, parent), [leaf]))
        if parent[head] >= 0:
            cut = dearer(csr, root, parent)
            _set_weight(cut, parent[head], head, INF)
            cases.append((cut, [head, root]))
        for grown, roots in cases:
            d, p = _repair_both(grown, dist, parent, roots)
            cold_dist, cold_parent = _full_row(grown, source)
            assert d.tobytes() == cold_dist.tobytes()
            if kind != "repeated":  # continuous costs: unique trees
                assert p.tobytes() == cold_parent.tobytes()
            for v in range(n):
                assert (p[v] == -1) == (d[v] == INF or v == source)
            if head in roots:
                assert d[head] == d[tail] == INF
                assert p[head] == p[tail] == -1
                unreachable += 1
            if roots == [leaf]:
                anchor = parent[leaf]
                w = next(grown[2][pos]
                         for pos in range(grown[0][leaf], grown[0][leaf + 1])
                         if grown[1][pos] == anchor)
                assert (d[leaf], p[leaf]) == (dist[anchor] + w, anchor)
    assert unreachable
    # A mask that actually binds: unmasked, these seeds would label
    # every reachable node.
    for rng, csr, _ in _cases(kind):
        n = len(csr[0]) - 1
        mask = bytearray(rng.random() < 0.5 for _ in range(n))
        dist, parent = kernel.new_labels(n)
        seeds = rng.sample(range(n), 3)
        for v in seeds:
            mask[v] = 1
            dist[v] = rng.uniform(0.0, 5.0)
        dist, _ = _both(csr, dist, parent, seeds, mask=mask)
        assert all(mask[v] or dist[v] == INF for v in range(n))


@native
@pytest.mark.parametrize("kind", KINDS)
def test_unmasked_decrease_sweep(kind):
    """The decrease pass: cheaper edges seed an unmasked sweep."""
    for rng, csr, source in _cases(kind):
        indptr, indices, weights = csr
        dist, parent = _full_row(csr, source)
        seeds = []
        for _ in range(4):
            a = rng.randrange(len(indptr) - 1)
            if indptr[a] == indptr[a + 1]:
                continue
            pos = rng.randrange(indptr[a], indptr[a + 1])
            b = indices[pos]
            w = 0.5 if weights[pos] == INF else weights[pos] / 4.0
            for x, y in ((a, b), (b, a)):
                for slot in range(indptr[x], indptr[x + 1]):
                    if indices[slot] == y:
                        weights[slot] = w
            if dist[a] + w < dist[b]:
                dist[b], parent[b] = dist[a] + w, a
                seeds.append(b)
            elif dist[b] + w < dist[a]:
                dist[a], parent[a] = dist[b] + w, b
                seeds.append(a)
        _both(csr, dist, parent, seeds)


@native
def test_native_rejects_inconsistent_buffers():
    """The C loop trusts its pointers, so bad sizes never reach it."""
    csr = _random_csr(random.Random(2), "continuous", n=10)
    dist, parent = kernel.new_labels(10)
    dist[0] = 0.0
    bad = [
        (csr, dist[:9], parent, (0,), {}),
        (csr, dist, array("d", parent), (0,), {}),
        (csr, dist, parent, (10,), {}),
        (csr, dist, parent, (-1,), {}),
        (csr, dist, parent, (0,), {"mask": bytearray(9)}),
        (csr[:2] + (csr[2][:-1],), dist, parent, (0,), {}),
    ]
    for args in bad:
        with pytest.raises(ValueError, match="inconsistent"):
            kernel.settle_native(*args[:4], **args[4])


@native
def test_native_repair_rejects_inconsistent_buffers():
    """The compiled repair checks buffers and the root range first, and
    leaves the labels untouched when it refuses."""
    csr = _random_csr(random.Random(3), "continuous", n=10)
    dist, parent = _full_row(csr, 0)
    before = (dist.tobytes(), parent.tobytes())
    bad = [
        (csr, dist[:9], parent, [1]),
        (csr, dist, array("d", parent), [1]),
        (csr, array("f", dist), parent, [1]),
        (csr, dist, parent, [10]),
        (csr, dist, parent, [1, -1]),
        (csr[:2] + (csr[2][:-1],), dist, parent, [1]),
        ((csr[0][:-1],) + csr[1:], dist, parent, [1]),
    ]
    for args in bad:
        with pytest.raises(ValueError, match="inconsistent"):
            kernel.repair_native(*args)
    assert (dist.tobytes(), parent.tobytes()) == before
    kernel.repair_native(csr, dist, parent, [])  # no roots: no-op
    assert (dist.tobytes(), parent.tobytes()) == before


# ----------------------------------------------------------------------
# walk pricing
# ----------------------------------------------------------------------

def _walks_both(csr, parents, hops, setups, per_walk):
    """Price with the compiled call and the twin; assert identical."""
    native = kernel.walk_costs_native(csr, parents, hops, setups, per_walk)
    twin = kernel.walk_costs_python(csr, parents, hops, setups, per_walk)
    assert native.typecode == twin.typecode == "d"
    assert native.tobytes() == twin.tobytes()
    return twin


def _with_dead_twins(rng, adjacency, parent):
    """``adjacency`` with a tombstoned slot beside some tree edges.

    A copy of a child--parent edge at weight ``inf`` goes in front of
    the live slot at both ends, so only a reader that skips dead slots
    prices the edge right.
    """
    out = [list(row) for row in adjacency]
    for v, p in enumerate(parent):
        if p >= 0 and rng.random() < 0.5:
            out[v].insert(0, (p, INF))
            out[p].insert(0, (v, INF))
    return out


def _live_slot(csr, a, b):
    """The first live CSR slot of ``a`` to ``b``."""
    indptr, indices, weights = csr
    return next(pos for pos in range(indptr[a], indptr[a + 1])
                if indices[pos] == b and weights[pos] != INF)


def _walk_rows(rng, kind, n=60):
    """One random graph with dead slots beside live tree edges, and rows
    over it: cold ones (node and push-counter ties) and one repaired
    after a tree edge grew threefold.  Returns ``[(csr, rows)]``, each
    row a ``(source, parent)`` pair over that ``csr``."""
    adjacency = _random_adjacency(rng, kind, n)
    sources = rng.sample(range(n), 3)
    _, tree = _full_row(_to_csr(adjacency), sources[0])
    csr = _to_csr(_with_dead_twins(rng, adjacency, tree))
    rows = [(s, _full_row(csr, s)[1]) for s in sources]
    dist, parent = kernel.new_labels(n)
    dist[sources[1]] = 0.0
    kernel.settle_python(csr, dist, parent, (sources[1],), counter=True)
    rows.append((sources[1], parent))
    dist, parent = _full_row(csr, sources[2])
    child = rng.choice([v for v in range(n) if parent[v] >= 0])
    grown = (csr[0], csr[1], csr[2][:])
    for a, b in ((child, parent[child]), (parent[child], child)):
        grown[2][_live_slot(grown, a, b)] *= 3.0
    kernel.repair_python(grown, dist, parent, [child])
    return [(csr, rows), (grown, [(sources[2], parent)])]


@native
@pytest.mark.parametrize("kind", KINDS)
def test_walk_costs_match_the_twin(kind):
    """Walks over cold and repaired rows: C and twin bit for bit, and
    each walk's price the left-to-right fold of its edges' live weights
    plus the fold of its setups.  Heads are the rows' sources or other
    ancestors of the tails, some hops are empty (head = tail, no row),
    and many edges sit behind a dead slot to the same neighbour."""
    rng = random.Random(f"walks-{kind}")
    priced = behind_dead = 0
    for _ in range(GRAPHS_PER_KIND):
        for csr, rows in _walk_rows(rng, kind):
            indices, weights = csr[1], csr[2]
            parents = [parent for _, parent in rows]
            for per_walk in (1, 3):
                hops, setups, expected = array("q"), array("d"), []
                for _ in range(12):
                    connection = setup = 0.0
                    for _ in range(per_walk):
                        slot = rng.randrange(len(rows))
                        source, parent = rows[slot]
                        tail = rng.choice([v for v in range(len(parent))
                                           if parent[v] >= 0])
                        path = [tail]
                        while path[-1] != source:
                            path.append(parent[path[-1]])
                        path.reverse()
                        head = path[rng.choice((0, 0, rng.randrange(len(path))))]
                        path = path[path.index(head):]
                        hops.extend((slot if len(path) > 1 else -1, head,
                                     tail))
                        for a, b in zip(path, path[1:]):
                            pos = _live_slot(csr, b, a)
                            connection += weights[pos]
                            behind_dead += any(
                                indices[q] == a and weights[q] == INF
                                for q in range(csr[0][b], pos)
                            )
                        cost = rng.choice((0.0, 0.1, 0.2, rng.uniform(0, 9)))
                        setups.append(cost)
                        setup += cost
                    expected.append(connection + setup)
                out = _walks_both(csr, parents, hops, setups, per_walk)
                assert list(out) == expected
                priced += len(out)
    assert priced and behind_dead


def test_walk_costs_fold_left_to_right():
    """0.1 + 0.2 + 0.3 along one hop is ``(0.1 + 0.2) + 0.3``, which is
    not what a compensated sum gives."""
    adjacency = [[(1, 0.1)], [(0, 0.1), (2, 0.2)], [(1, 0.2), (3, 0.3)],
                 [(2, 0.3)]]
    csr = _to_csr(adjacency)
    _, parent = _full_row(csr, 0)
    hops = array("q", (0, 0, 3))
    fns = [kernel.walk_costs_python]
    if kernel.NATIVE:
        fns.append(kernel.walk_costs_native)
    for fn in fns:
        out = fn(csr, [parent], hops, array("d", [0.0]), 1)
        assert out[0] == (0.1 + 0.2) + 0.3 != 0.6


@native
def test_native_walk_costs_rejects_bad_buffers_and_chains():
    """Inconsistent buffers are refused before the C loop runs; a hop
    whose chain leaves the tree (reaches -1, loops, names an id or row
    out of range, or crosses only a dead slot) is refused by the loop
    itself -- and by the twin, the same way."""
    csr = _random_csr(random.Random(4), "continuous", n=10)
    _, parent = _full_row(csr, 0)
    ok = (csr, [parent], array("q", (0, 0, 5)), array("d", [1.0]), 1)
    assert len(kernel.walk_costs_native(*ok)) == 1
    inconsistent = [
        (csr, [parent[:9]], ok[2], ok[3], 1),
        (csr, [array("d", parent)], ok[2], ok[3], 1),
        (csr, [parent], array("d", ok[2]), ok[3], 1),
        (csr, [parent], ok[2], array("f", ok[3]), 1),
        (csr, [parent], array("q", (0, 0, 5, 0)), ok[3], 1),
        (csr[:2] + (csr[2][:-1],), [parent], ok[2], ok[3], 1),
    ]
    for args in inconsistent:
        with pytest.raises(ValueError, match="inconsistent"):
            kernel.walk_costs_native(*args)
    looped = parent[:]
    looped[parent[5]] = 5  # 5 -> parent -> 5 over one live edge
    other = next(v for v in range(1, 10)
                 if v != parent[5] and 5 not in _subtree(parent, v))
    dead = (csr[0], csr[1], csr[2][:])
    _set_weight(dead, parent[5], 5, INF)
    bad_chains = [
        (csr, [parent], array("q", (0, other, 5)), ok[3], 1),  # hits -1
        (csr, [looped], array("q", (0, other, 5)), ok[3], 1),  # loops
        (csr, [parent], array("q", (0, 10, 5)), ok[3], 1),     # head
        (csr, [parent], array("q", (0, 0, -1)), ok[3], 1),     # tail
        (csr, [parent], array("q", (1, 0, 5)), ok[3], 1),      # row
        (dead, [parent], ok[2], ok[3], 1),                     # dead slot
        (csr, [parent], ok[2], ok[3], 0),                      # per_walk
        (csr, [parent], array("q", (0, 0, 5) * 2),
         array("d", [1.0, 2.0]), 3),                            # split
    ]
    wild = parent[:]
    wild[5] = 99  # an id out of range
    bad_chains.append((csr, [wild], ok[2], ok[3], 1))
    for args in bad_chains:
        for fn in (kernel.walk_costs_native, kernel.walk_costs_python):
            with pytest.raises(ValueError, match="walk_costs"):
                fn(*args)


def test_counter_ties_replicate_the_dict_dijkstra_on_equal_costs():
    """With every cost equal, only the push-counter tie-break decides
    the parents; they must be the dict Dijkstra's."""
    rng = random.Random(5)
    for _ in range(5):
        graph = Graph()
        for v in range(1, 40):
            graph.add_edge(rng.randrange(v), v, 1.0)
        for _ in range(50):
            u, v = rng.sample(range(40), 2)
            graph.add_edge(u, v, 1.0)
        core = IndexedGraph.from_graph(graph)
        ref_dist, ref_parent = dijkstra(graph, 0)
        dist, parent = core.dijkstra(core.id_of(0))
        for node in graph.nodes():
            i = core.id_of(node)
            assert dist[i] == ref_dist[node]
            if node in ref_parent:
                assert core.node_of(parent[i]) == ref_parent[node]


# ----------------------------------------------------------------------
# compiling and loading
# ----------------------------------------------------------------------

def _load_copy(tmp_path, monkeypatch, source: bytes, name: str,
               home: bool = True):
    """Import a fresh copy of the kernel module next to ``source``.

    The copy caches its object in its own ``__pycache__/`` and, with
    ``HOME`` pointed into ``tmp_path``, never sees the user cache of the
    installed kernel.  With ``home`` off there is no home directory to
    find: ``HOME`` is unset and ``~`` expands to itself, as for a uid
    with no passwd entry.
    """
    pkg = tmp_path / "pkg"
    pkg.mkdir(exist_ok=True)
    shutil.copyfile(kernel.__file__, pkg / "kernel.py")
    (pkg / "_settle.c").write_bytes(source)
    if home:
        monkeypatch.setenv("HOME", str(tmp_path / "home"))
    else:
        monkeypatch.delenv("HOME", raising=False)
        monkeypatch.setattr(os.path, "expanduser", lambda path: path)
        with pytest.raises(RuntimeError):
            Path.home()
    spec = importlib.util.spec_from_file_location(name, pkg / "kernel.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_edited_source_never_loads_a_stale_object(tmp_path, monkeypatch):
    source = kernel._SOURCE.read_bytes()
    first = _load_copy(tmp_path, monkeypatch, source, "kernel_first")
    assert first.NATIVE, first.NATIVE_REASON
    assert first.NATIVE_PATH.name == kernel.cache_name(source)
    edited = source + b"\nint64_t settle_marker(void) { return 7; }\n"
    second = _load_copy(tmp_path, monkeypatch, edited, "kernel_second")
    assert second.NATIVE, second.NATIVE_REASON
    assert second.NATIVE_PATH.name == kernel.cache_name(edited)
    assert second.NATIVE_PATH != first.NATIVE_PATH
    assert ctypes.CDLL(str(second.NATIVE_PATH)).settle_marker() == 7
    # Only the objects: the copy's own bytecode may sit beside them.
    cached = sorted(p.name for p in first.NATIVE_PATH.parent.glob("*.so"))
    assert cached == sorted([first.NATIVE_PATH.name,
                             second.NATIVE_PATH.name])


def _assert_twin_runs(module):
    """``module`` fell back to the Python loop, which still works."""
    assert not module.NATIVE
    assert module.NATIVE_PATH is None
    assert module.settle is module.settle_python
    assert module.repair is module.repair_python
    assert module.walk_costs is module.walk_costs_python
    csr = _random_csr(random.Random(1), "continuous", n=12)
    dist, parent = module.new_labels(12)
    dist[0] = 0.0
    module.settle(csr, dist, parent, (0,))
    assert (dist, parent) == _full_row(csr, 0)
    module.repair(csr, dist, parent, [v for v in range(12) if parent[v] >= 0])
    assert (dist, parent) == _full_row(csr, 0)


@pytest.mark.parametrize("home", [True, False], ids=["home", "no-home"])
def test_missing_compiler_runs_the_twin_with_one_warning(
    tmp_path, monkeypatch, home
):
    monkeypatch.setattr(shutil, "which", lambda *args, **kwargs: None)
    with pytest.warns(RuntimeWarning, match=r"no C compiler") as caught:
        module = _load_copy(
            tmp_path, monkeypatch, kernel._SOURCE.read_bytes(),
            "kernel_no_cc", home=home,
        )
    assert len(caught) == 1
    _assert_twin_runs(module)


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_unknown_home_directory_skips_the_user_cache(tmp_path, monkeypatch):
    """No home directory: the object still compiles into the package's
    ``__pycache__/``, and the import never fails."""
    source = kernel._SOURCE.read_bytes()
    module = _load_copy(tmp_path, monkeypatch, source, "kernel_no_home",
                        home=False)
    assert module.NATIVE, module.NATIVE_REASON
    assert module.NATIVE_PATH == (
        tmp_path / "pkg" / "__pycache__" / kernel.cache_name(source)
    )


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_full_disk_runs_the_twin_with_one_warning(tmp_path, monkeypatch):
    """A failed object write fails the compile, not the import."""
    reason = os.strerror(errno.ENOSPC)

    def full_disk(*args, **kwargs):
        raise OSError(errno.ENOSPC, reason)

    monkeypatch.setattr(tempfile, "mkstemp", full_disk)
    with pytest.warns(RuntimeWarning, match=reason) as caught:
        module = _load_copy(
            tmp_path, monkeypatch, kernel._SOURCE.read_bytes(),
            "kernel_full_disk",
        )
    assert len(caught) == 1
    _assert_twin_runs(module)
