"""The compiled settle loop against its Python twin.

:func:`repro.graph.kernel.settle` is the one search loop behind every
oracle row build and repair.  It is compiled from ``_settle.c`` when
the kernel is imported, and :func:`~repro.graph.kernel.settle_python`
is its statement-for-statement twin.  These tests run both on the same
seeded random graphs -- all-equal costs (every distance a tie, like the
online simulator's floor-cost VM edges), continuous costs, and graphs
with tombstoned ``inf`` slots -- in the four ways the oracle calls the
loop, and require the ``dist``/``parent``/``settled`` buffers and the
exhausted flag to match bit for bit.  They also pin how the compiled
object is cached, and that a missing compiler, home directory or disk
space leaves the import working.
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
        kwargs = dict(flags)
        if kwargs.get("settled") is not None:
            kwargs["settled"] = bytearray(kwargs["settled"])
        result = fn(csr, d, p, seeds, **kwargs)
        settled = kwargs.get("settled")
        outcomes.append((
            result, d.tobytes(), p.tobytes(),
            None if settled is None else bytes(settled),
        ))
    assert outcomes[0] == outcomes[1]
    return outcomes[1][0], d, p


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
def test_counter_ties_with_target_early_stop(kind):
    """Uncontracted cold builds: push-counter ties, settled flags and an
    early stop once every target is settled."""
    stops = 0
    for rng, csr, source in _cases(kind):
        n = len(csr[0]) - 1
        for count in (1, 5, n):
            dist, parent = kernel.new_labels(n)
            dist[source] = 0.0
            targets = bytearray(n)
            for t in rng.sample(range(n), count):
                if t != source:
                    targets[t] = 1
            exhausted, _, _ = _both(
                csr, dist, parent, (source,), settled=bytearray(n),
                targets=targets, remaining=sum(targets), counter=True,
            )
            stops += not exhausted
    assert stops  # the early-stop branch ran


@native
@pytest.mark.parametrize("kind", KINDS)
def test_node_ties_to_exhaustion(kind):
    """Contracted cold builds: node-id ties, no flags, run dry."""
    for _, csr, source in _cases(kind):
        dist, parent = kernel.new_labels(len(csr[0]) - 1)
        dist[source] = 0.0
        exhausted, _, _ = _both(csr, dist, parent, (source,))
        assert exhausted


@native
@pytest.mark.parametrize("kind", KINDS)
def test_masked_region_repair(kind):
    """The increase repair: a detached subtree is reset, seeded from its
    intact boundary and re-searched with relaxations masked to it."""
    for rng, csr, source in _cases(kind):
        indptr, indices, weights = csr
        n = len(indptr) - 1
        dist, parent = _full_row(csr, source)
        tree = [v for v in range(n) if parent[v] >= 0]
        if not tree:
            continue
        root = rng.choice(tree)
        for pos in range(indptr[root], indptr[root + 1]):
            if indices[pos] == parent[root]:
                weights[pos] *= 3.0  # the root's tree edge got dearer
        affect = bytearray(n)
        affect[root] = 1
        stack = [root]
        region = []
        while stack:
            v = stack.pop()
            region.append(v)
            for pos in range(indptr[v], indptr[v + 1]):
                u = indices[pos]
                if parent[u] == v and not affect[u]:
                    affect[u] = 1
                    stack.append(u)
        for v in region:
            dist[v] = INF
            parent[v] = -1
        seeds = []
        for v in region:
            best, best_parent = INF, -1
            for pos in range(indptr[v], indptr[v + 1]):
                u = indices[pos]
                if not affect[u] and dist[u] + weights[pos] < best:
                    best, best_parent = dist[u] + weights[pos], u
            if best_parent >= 0:
                dist[v], parent[v] = best, best_parent
                seeds.append(v)
        _both(csr, dist, parent, seeds, mask=affect)
        # A mask that actually binds: unmasked, these seeds would label
        # every reachable node.
        mask = bytearray(rng.random() < 0.5 for _ in range(n))
        dist, parent = kernel.new_labels(n)
        seeds = rng.sample(range(n), 3)
        for v in seeds:
            mask[v] = 1
            dist[v] = rng.uniform(0.0, 5.0)
        _, dist, _ = _both(csr, dist, parent, seeds, mask=mask)
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
        assert _both(csr, dist, parent, seeds)[0]


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
        dist, parent, _, exhausted = core.dijkstra(core.id_of(0))
        assert exhausted
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
    csr = _random_csr(random.Random(1), "continuous", n=12)
    dist, parent = module.new_labels(12)
    dist[0] = 0.0
    assert module.settle(csr, dist, parent, (0,))
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
