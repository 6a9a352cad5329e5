"""Raw-speed kernel: the compiled search loops, label buffers, a fork pool.

The oracle's algorithmic layers (CSR core, Ramalingam--Reps repair,
topology tombstones) left the per-label search loops and pure
interpreter overhead as the dominant costs.  This module holds three
primitives:

- **Compiled loops** -- :func:`settle`, the single seeded
  label-setting loop every oracle row build and repair runs (contract
  in :func:`settle_python`); :func:`repair`, the increase half of
  Ramalingam--Reps on one row in one call (contract in
  :func:`repair_python`), which ends in that loop; and
  :func:`walk_costs`, which prices Procedure 3's walks along rows'
  parent trees without building them (contract in
  :func:`walk_costs_python`).  All three are written once in C
  (``_settle.c``, compiled with the system ``cc`` when this module is
  imported, so no timed window pays for it, and loaded through
  :mod:`ctypes` from a cache file whose name hashes the source, the
  flags and ``EXT_SUFFIX``; the file is written atomically into this
  package's ``__pycache__/``, or ``~/.cache/repro/`` when that is
  read-only) and once in Python (:func:`settle_python`,
  :func:`repair_python`, :func:`walk_costs_python`), which runs only
  when no compiler or compiled object is usable -- announced by one
  ``RuntimeWarning`` naming the reason -- and is the tests' reference.
  :data:`NATIVE` says which set :func:`settle`, :func:`repair` and
  :func:`walk_costs` are, and :data:`NATIVE_REASON` why the compiled
  loops are not in use.
- **Label buffers** -- every cached oracle row stores ``dist``/``parent``
  as ``array('d')``/``array('q')`` buffers (:func:`new_labels`), which
  the loops write in place.  Scalar indexing still returns plain
  Python floats/ints (unlike raw numpy arrays, whose scalar reads box
  ``np.float64`` -- slower *and* repr-visible), while the buffer
  protocol lets batch queries wrap the same memory zero-copy with
  :func:`numpy.frombuffer` (:func:`f8_view`).  numpy is a hard
  dependency of the package.
- **Fork pool** -- :func:`fork_map` (module-global state populated
  before a ``fork``-context pool is created, so workers inherit arbitrary
  unpicklable state by memory copy; ordered results; serial fallback
  with a one-time ``RuntimeWarning`` on platforms without fork).  Its one
  caller is :func:`repro.experiments.harness.run_sweep`, which farms
  independent sweep cells; the oracle itself never forks.

Fork-inheritance invariant: a worker sees the parent's memory exactly as
it was at pool creation, so callers must only fork while their shared
structures are *consistent*.  A sweep cell builds its own instance, so
the harness forks only between cells; the ``fork-mutation-window`` lint
rule rejects a fork reintroduced inside an oracle patch.
"""

from __future__ import annotations

import ctypes
import heapq
import multiprocessing
import os
import sysconfig
import warnings
import zlib
from array import array
from pathlib import Path
from typing import (
    Callable, Iterator, List, Optional, Sequence, Tuple, TypeVar,
)

import numpy as np

T = TypeVar("T")
R = TypeVar("R")

INF = float("inf")

#: Storage typecodes of the row label buffers and the CSR arrays.
#: ``'d'`` is the C double every distance already is; ``'q'`` is a
#: signed 64-bit int -- platform-independent, and exactly what
#: ``numpy.frombuffer`` maps to ``int64`` so parent gathers need no
#: casting.
DIST_TYPECODE = "d"
PARENT_TYPECODE = "q"


def new_labels(n: int) -> Tuple[array, array]:
    """Fresh ``(dist, parent)`` buffers of ``n`` nodes: ``inf`` and ``-1``."""
    return array(DIST_TYPECODE, (INF,)) * n, array(PARENT_TYPECODE, (-1,)) * n


def f8_view(buf: array) -> np.ndarray:
    """Zero-copy ``float64`` numpy view of a ``dist`` buffer.

    Writes through the view mutate the buffer in place (the buffers are
    never resized, so views stay valid for the row's lifetime).
    """
    return np.frombuffer(buf, dtype=np.float64)


# ----------------------------------------------------------------------
# the settle loop
# ----------------------------------------------------------------------

def settle_python(
    csr: Tuple[array, array, array],
    dist: array,
    parent: array,
    seeds: Sequence[int],
    mask: Optional[bytearray] = None,
    counter: bool = False,
) -> None:
    """Run the seeded label-setting loop over ``csr`` in place.

    ``csr`` is ``(indptr, indices, weights)`` as ``array('q')``,
    ``array('q')`` and ``array('d')``; ``dist``/``parent`` are the row's
    ``array('d')``/``array('q')`` label buffers, in which the caller has
    already written every seed's label.  Each seed is pushed once per
    occurrence; popped entries older than their node's label are
    skipped, and the popped node's out-edges are relaxed in CSR order
    (``inf`` weights, tombstones, never relax).  Heap keys are ``(dist,
    tie)`` with ``tie`` the push counter when ``counter`` is set (the
    dict Dijkstra's replicated order) and the node id otherwise --
    unique either way, so the pop order is heapq's and labels and
    parents are bit-identical whichever loop runs.

    ``mask`` restricts relaxations to nodes flagged in it (a repair's
    affected region).  The loop runs until the heap is dry.

    This is the Python twin of the loop in ``_settle.c``, statement for
    statement: the fallback when no compiled object is usable, and the
    tests' reference.
    """
    indptr, indices, weights = csr
    if counter:
        heap = [(dist[v], key, v) for key, v in enumerate(seeds)]
    else:
        heap = [(dist[v], v, v) for v in seeds]
    count = len(heap)
    heapq.heapify(heap)
    push = heapq.heappush
    pop = heapq.heappop
    while heap:
        d, _, v = pop(heap)
        if d > dist[v]:
            continue
        for pos in range(indptr[v], indptr[v + 1]):
            u = indices[pos]
            if mask is not None and not mask[u]:
                continue
            nd = d + weights[pos]
            if nd < dist[u]:
                dist[u] = nd
                parent[u] = v
                if counter:
                    push(heap, (nd, count, u))
                    count += 1
                else:
                    push(heap, (nd, u, u))


def repair_python(
    csr: Tuple[array, array, array],
    dist: array,
    parent: array,
    roots: Sequence[int],
) -> None:
    """Repair one full row whose tree edges above ``roots`` got dearer.

    The increase half of Ramalingam--Reps, in place.  ``csr`` already
    carries the new weights, and each root is the child end of a tree
    edge (``parent[root]``--``root``) whose weight grew, or which was
    tombstoned.  Only the roots' subtrees can change, so:

    1. the union of the parent-tree subtrees below ``roots`` is marked
       (the children of ``v`` are the ``u`` with ``parent[u] == v``
       over ``v``'s CSR slots, skipping ``inf`` ones; duplicate and
       nested roots mark each node once);
    2. every marked node is reset to ``inf``/``-1``;
    3. every marked node is seeded from its first strictly cheapest
       unmarked neighbour in CSR order, if it has a reachable one;
    4. the seeds run :func:`settle_python` with relaxations masked to
       the marked set and node-id ties.

    A degree-1 root (a leaf) is its own region, so its seed is
    ``dist[anchor] + w`` through its one edge.  Marked nodes left
    unlabelled are unreachable.  The settle loop's ``(dist, node id)``
    keys are unique, so neither the order of ``roots`` nor the marking
    order reaches the labels.

    This is the Python twin of ``repair`` in ``_settle.c``, statement
    for statement: the fallback when no compiled object is usable, and
    the tests' reference.
    """
    indptr, indices, weights = csr
    mask = bytearray(len(dist))
    region: List[int] = []
    for v in roots:
        if not mask[v]:
            mask[v] = 1
            region.append(v)
    i = 0
    while i < len(region):
        v = region[i]
        i += 1
        for pos in range(indptr[v], indptr[v + 1]):
            u = indices[pos]
            if parent[u] == v and not mask[u] and weights[pos] != INF:
                mask[u] = 1
                region.append(u)
    for v in region:
        dist[v] = INF
        parent[v] = -1
    seeds: List[int] = []
    for v in region:
        best = INF
        best_parent = -1
        for pos in range(indptr[v], indptr[v + 1]):
            u = indices[pos]
            if not mask[u]:
                nd = dist[u] + weights[pos]
                if nd < best:
                    best = nd
                    best_parent = u
        if best_parent >= 0:
            dist[v] = best
            parent[v] = best_parent
            seeds.append(v)
    if seeds:
        settle_python(csr, dist, parent, seeds, mask=mask)


_WALK_ERROR = (
    "walk_costs: the hops do not split into walks, or a hop leaves its "
    "row's parent tree"
)


def walk_costs_python(
    csr: Tuple[array, array, array],
    parents: Sequence[array],
    hops: array,
    setups: array,
    per_walk: int,
) -> array:
    """Price walks along rows' parent trees without building them.

    ``parents`` are rows' ``array('q')`` parent buffers over ``csr``.
    ``hops`` (``array('q')``) holds one ``(row, head, tail)`` triple per
    hop: the tree path of ``parents[row]`` from ``head`` down to
    ``tail``, read by walking up from ``tail``; each edge weighs what
    the child's first live CSR slot to its parent holds.  Every
    ``per_walk`` consecutive hops make one walk.  A walk's connection
    cost folds those weights left to right along the walk, hop after
    hop, from ``0``, and its setup cost folds the hops' ``setups``
    (``array('d')``) the same way; the result holds each walk's
    connection plus setup cost, in walk order.  A hop whose head is its
    tail has no edges and reads no row.

    Raises ``ValueError`` when the hops do not split into walks, a hop
    names a node or row out of range, or a parent chain leaves the tree
    (reaches ``-1`` or an id out of range, runs longer than ``n`` edges,
    or crosses an edge with no live slot) before its head.

    This is the Python twin of ``walk_costs`` in ``_settle.c``,
    statement for statement: the fallback when no compiled object is
    usable, and the tests' reference.
    """
    indptr, indices, weights = csr
    n = len(indptr) - 1
    nhops = len(setups)
    if per_walk <= 0 or nhops % per_walk != 0:
        raise ValueError(_WALK_ERROR)
    out = array(DIST_TYPECODE)
    for start in range(0, nhops, per_walk):
        connection = 0.0
        setup = 0.0
        for h in range(start, start + per_walk):
            row, head, v = hops[3 * h], hops[3 * h + 1], hops[3 * h + 2]
            chain: List[float] = []
            if not (0 <= head < n and 0 <= v < n):
                raise ValueError(_WALK_ERROR)
            if v != head and not 0 <= row < len(parents):
                raise ValueError(_WALK_ERROR)
            while v != head:
                p = parents[row][v]
                if not 0 <= p < n or len(chain) == n:
                    raise ValueError(_WALK_ERROR)
                for pos in range(indptr[v], indptr[v + 1]):
                    if indices[pos] == p and weights[pos] != INF:
                        break
                else:
                    raise ValueError(_WALK_ERROR)
                chain.append(weights[pos])
                v = p
            while chain:
                connection += chain.pop()
            setup += setups[h]
        out.append(connection + setup)
    return out


_SOURCE = Path(__file__).with_name("_settle.c")

#: Compiler flags of the settle object.  Plain ``-O2``: no fast-math or
#: FMA contraction may reorder the label additions.
_CFLAGS = ("-O2", "-std=c99", "-fPIC", "-shared")


def cache_name(source: bytes) -> str:
    """File name of the compiled object for C source ``source``.

    Hashes the source, the compiler flags and the interpreter's
    ``EXT_SUFFIX``, so an edited source, changed flags or another ABI
    never load a stale object.  CRC-32 plus Adler-32 (64 bits) from
    :mod:`zlib`, which is loaded anyway: :mod:`hashlib` would map
    OpenSSL into every process, about 3.5 MB of resident memory.
    """
    key = b"\0".join((
        source, " ".join(_CFLAGS).encode(),
        str(sysconfig.get_config_var("EXT_SUFFIX")).encode(),
    ))
    return f"_settle-{zlib.crc32(key):08x}{zlib.adler32(key):08x}.so"


def _cache_dirs() -> Iterator[Path]:
    """The module's ``__pycache__/``, then the user cache directory.

    Lazy, so a hit in the first never looks up the home directory, and
    the second is skipped when no home directory can be determined.
    """
    yield Path(__file__).parent / "__pycache__"
    try:
        home = Path.home()
    except (RuntimeError, OSError):
        return
    yield home / ".cache" / "repro"


def _compile(compiler: str, source: bytes, path: Path) -> Optional[str]:
    """Compile ``source`` into ``path`` atomically; the error, if any."""
    # Imported here: only a cache miss compiles, and subprocess costs
    # every process that imports the package resident memory.
    import subprocess
    import tempfile

    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(prefix=path.name, suffix=".tmp",
                                   dir=path.parent)
        os.close(fd)
        proc = subprocess.run(
            [compiler, *_CFLAGS, "-x", "c", "-o", tmp, "-"],
            input=source, capture_output=True, timeout=120,
        )
        if proc.returncode != 0:
            lines = proc.stderr.decode(errors="replace").strip().splitlines()
            return f"{compiler} failed: {lines[0] if lines else proc.returncode}"
        os.replace(tmp, path)
        return None
    except (OSError, subprocess.SubprocessError) as exc:
        return f"cannot compile {path.name}: {exc}"
    finally:
        if tmp is not None:
            try:
                os.unlink(tmp)  # gone already after the replace
            except OSError:
                pass


def _load_native() -> Tuple[Optional[ctypes.CDLL], Optional[Path], str]:
    """``(lib, path, reason)``: the compiled object or why there is none.

    A cached object is loaded from the first cache directory holding it;
    otherwise the source is compiled into the first writable one.
    """
    try:
        source = _SOURCE.read_bytes()
    except OSError as exc:
        return None, None, f"cannot read {_SOURCE.name}: {exc}"
    name = cache_name(source)
    path = next(
        (d / name for d in _cache_dirs() if os.path.isfile(d / name)), None
    )
    if path is None:
        import shutil

        compiler = shutil.which("cc")
        if compiler is None:
            return None, None, "no C compiler ('cc') on PATH"
        for directory in _cache_dirs():
            try:
                directory.mkdir(parents=True, exist_ok=True)
            except OSError:
                continue
            if os.access(directory, os.W_OK):
                path = directory / name
                break
        else:
            return None, None, "no writable cache directory for the object"
        error = _compile(compiler, source, path)
        if error is not None:
            return None, None, error
    try:
        lib = ctypes.CDLL(str(path))
        settle_fn, repair_fn, walks_fn = lib.settle, lib.repair, lib.walk_costs
    except (OSError, AttributeError) as exc:
        return None, None, f"cannot load {path}: {exc}"
    ptr, i64 = ctypes.c_void_p, ctypes.c_int64
    settle_fn.restype = repair_fn.restype = walks_fn.restype = i64
    # (indptr, indices, weights, dist, parent, seeds, nseeds, mask,
    #  counter_ties), as in _settle.c.
    settle_fn.argtypes = (ptr, ptr, ptr, ptr, ptr, ptr, i64, ptr, i64)
    # (indptr, indices, weights, dist, parent, n, roots, nroots).
    repair_fn.argtypes = (ptr, ptr, ptr, ptr, ptr, i64, ptr, i64)
    # (indptr, indices, weights, n, parents, nparents, hops, setups,
    #  nhops, per_walk, out).
    walks_fn.argtypes = (ptr, ptr, ptr, i64, ptr, i64, ptr, ptr, i64, i64, ptr)
    return lib, path, ""


def _trusted(
    csr: Tuple[array, array, array],
    dist: array,
    parent: array,
    nodes: Sequence[int],
    mask: Optional[bytearray] = None,
) -> bool:
    """Whether the C loops may trust these buffers.

    Typecodes and sizes of the CSR, label and mask buffers, and every
    id in ``nodes`` (the seeds or roots) a node of ``csr``.  Node ids
    inside ``indices`` are trusted: every CSR comes from this package's
    own cores.
    """
    indptr, indices, weights = csr
    n = len(indptr) - 1
    return (
        indptr.typecode == indices.typecode == parent.typecode == "q"
        and weights.typecode == dist.typecode == "d"
        and len(dist) == len(parent) == n
        and len(indices) == len(weights) == indptr[-1]
        and (mask is None or len(mask) == n)
        and 0 <= min(nodes) and max(nodes) < n
    )


def settle_native(
    csr: Tuple[array, array, array],
    dist: array,
    parent: array,
    seeds: Sequence[int],
    mask: Optional[bytearray] = None,
    counter: bool = False,
) -> None:
    """The compiled settle loop; same contract as :func:`settle_python`.

    The C loop trusts its pointers, so buffer types and sizes are checked
    here first (:func:`_trusted`).
    """
    if not seeds:
        return
    indptr, indices, weights = csr
    if not _trusted(csr, dist, parent, seeds, mask):
        raise ValueError("settle: inconsistent CSR, label or mask buffers")
    seeds = array(PARENT_TYPECODE, seeds)
    mask_address = (
        None if mask is None
        else ctypes.addressof(ctypes.c_char.from_buffer(mask))
    )
    result = _NATIVE.settle(
        indptr.buffer_info()[0], indices.buffer_info()[0],
        weights.buffer_info()[0], dist.buffer_info()[0],
        parent.buffer_info()[0], seeds.buffer_info()[0], len(seeds),
        mask_address, 1 if counter else 0,
    )
    if result < 0:
        raise MemoryError("settle: the heap could not grow")


def repair_native(
    csr: Tuple[array, array, array],
    dist: array,
    parent: array,
    roots: Sequence[int],
) -> None:
    """The compiled row repair; same contract as :func:`repair_python`.

    Buffer types and sizes and the root range are checked here first
    (:func:`_trusted`), as for :func:`settle_native`.
    """
    if not roots:
        return
    indptr, indices, weights = csr
    if not _trusted(csr, dist, parent, roots):
        raise ValueError("repair: inconsistent CSR or label buffers, "
                         "or a root out of range")
    roots = array(PARENT_TYPECODE, roots)
    result = _NATIVE.repair(
        indptr.buffer_info()[0], indices.buffer_info()[0],
        weights.buffer_info()[0], dist.buffer_info()[0],
        parent.buffer_info()[0], len(dist), roots.buffer_info()[0],
        len(roots),
    )
    if result < 0:
        raise MemoryError("repair: a buffer could not be allocated")


def walk_costs_native(
    csr: Tuple[array, array, array],
    parents: Sequence[array],
    hops: array,
    setups: array,
    per_walk: int,
) -> array:
    """The compiled walk pricing; same contract as :func:`walk_costs_python`.

    Buffer types and sizes are checked here first, as for
    :func:`settle_native`; the C loop checks every hop and parent chain
    itself, since they index the buffers.
    """
    indptr, indices, weights = csr
    n = len(indptr) - 1
    nhops = len(setups)
    if not (
        indptr.typecode == indices.typecode == hops.typecode == "q"
        and weights.typecode == setups.typecode == "d"
        and n >= 0 and len(indices) == len(weights) == indptr[-1]
        and len(hops) == 3 * nhops
        and all(p.typecode == "q" and len(p) == n for p in parents)
    ):
        raise ValueError(
            "walk_costs: inconsistent CSR, parent, hop or setup buffers"
        )
    if per_walk <= 0 or nhops % per_walk != 0:
        raise ValueError(_WALK_ERROR)
    out = array(DIST_TYPECODE, bytes(8 * (nhops // per_walk)))
    if not nhops:
        return out
    table = (ctypes.c_void_p * max(1, len(parents)))(
        *(p.buffer_info()[0] for p in parents)
    )
    result = _NATIVE.walk_costs(
        indptr.buffer_info()[0], indices.buffer_info()[0],
        weights.buffer_info()[0], n, table, len(parents),
        hops.buffer_info()[0], setups.buffer_info()[0], nhops, per_walk,
        out.buffer_info()[0],
    )
    if result == -1:
        raise MemoryError("walk_costs: a buffer could not be allocated")
    if result < 0:
        raise ValueError(_WALK_ERROR)
    return out


_NATIVE, NATIVE_PATH, NATIVE_REASON = _load_native()

#: Whether :func:`settle`, :func:`repair` and :func:`walk_costs` are the
#: compiled loops.
NATIVE = _NATIVE is not None

#: The settle loop every oracle row build and repair runs:
#: :func:`settle_native` when the compiled object loaded, else
#: :func:`settle_python` (same contract, same output bit for bit).
settle = settle_native if NATIVE else settle_python

#: The one-call row repair every increase-carrying patch runs, from the
#: same object as :func:`settle` (:func:`repair_native`), else
#: :func:`repair_python`.
repair = repair_native if NATIVE else repair_python

#: The walk pricing of Procedure 3's sweep, from the same object as
#: :func:`settle` (:func:`walk_costs_native`), else
#: :func:`walk_costs_python`.
walk_costs = walk_costs_native if NATIVE else walk_costs_python

if not NATIVE:
    warnings.warn(
        f"repro.graph.kernel: the compiled settle loop is unavailable "
        f"({NATIVE_REASON}); shortest-path searches run the pure-Python "
        f"loop instead",
        RuntimeWarning,
        stacklevel=2,
    )


# ----------------------------------------------------------------------
# fork-based worker pool
# ----------------------------------------------------------------------

#: The function the pool workers run, installed by :func:`fork_map` right
#: before the fork so workers inherit it (and everything it closes over)
#: by memory copy -- closures, bound methods and the sweep's often-lambda
#: embedders are not picklable, which is the whole reason for this
#: pattern.
_WORKER_FN: Optional[Callable] = None

#: Whether the missing-fork serial fallback has been reported -- the
#: warning fires once per process, not once per call.
_warned_no_fork = False


def _run_worker(item):
    """Module-level pool target: applies the inherited worker function."""
    return _WORKER_FN(item)


def fork_available() -> bool:
    """Whether this platform supports the ``fork`` start method."""
    return "fork" in multiprocessing.get_all_start_methods()


def fork_map(
    fn: Callable[[T], R],
    items: Sequence[T],
    workers: int,
    label: str = "fork_map",
    chunksize: Optional[int] = None,
) -> List[R]:
    """Map ``fn`` over ``items`` on a fork pool; results stay in order.

    ``fn`` may be any callable (bound method, closure): it is installed in
    a module global before the pool forks, so workers inherit it by memory
    copy and only ``items`` and results cross the pipe.  Serial fallbacks
    -- ``workers <= 1``, a single item, a daemonic caller (a pool worker
    cannot have children), or a platform without fork (reported once with
    a ``RuntimeWarning`` naming ``label``) -- run ``fn`` in-process, so
    results are identical either way for pure functions.
    """
    global _WORKER_FN, _warned_no_fork
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    if multiprocessing.current_process().daemon:
        # Nested inside another pool's worker, which cannot have
        # children: silently serial.
        return [fn(item) for item in items]
    if not fork_available():
        if not _warned_no_fork:
            _warned_no_fork = True
            warnings.warn(
                f"{label}: the 'fork' start method is unavailable on this "
                "platform; running serially instead",
                RuntimeWarning,
                stacklevel=3,
            )
        return [fn(item) for item in items]
    context = multiprocessing.get_context("fork")
    _WORKER_FN = fn
    try:
        with context.Pool(processes=min(workers, len(items))) as pool:
            if chunksize is None:
                chunksize = max(1, len(items) // (workers * 4))
            return pool.map(_run_worker, items, chunksize=chunksize)
    finally:
        _WORKER_FN = None


def warm_fork(workers: int = 2) -> None:
    """Pay the one-time fork/pool spawn cost outside any timed window.

    The first pool a process creates faults in the multiprocessing
    machinery and copy-on-write page tables; benches call this before
    starting their timers so parallel runs are not charged for it
    (exactly as topology generation is excluded from timed windows).
    """
    if workers > 1 and fork_available() and not multiprocessing.current_process().daemon:
        context = multiprocessing.get_context("fork")
        with context.Pool(processes=workers) as pool:
            pool.map(_noop, range(workers))


def _noop(_):
    return None
