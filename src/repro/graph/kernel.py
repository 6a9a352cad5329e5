"""Raw-speed kernel utilities: array label buffers and a fork worker pool.

The oracle's algorithmic layers (CSR core, Ramalingam--Reps repair, the
patch planner, shared regions, topology tombstones) left pure interpreter
overhead as the dominant cost of the online traces.  This module holds the
two primitives the kernel tier is built from:

- **Label buffers** -- every cached oracle row stores ``dist``/``parent``
  as ``array('d')``/``array('q')`` buffers.  Scalar indexing still returns
  plain Python floats/ints (unlike raw numpy arrays, whose scalar reads
  box ``np.float64`` -- slower *and* repr-visible), while the buffer
  protocol lets batch operations wrap the same memory zero-copy with
  :func:`numpy.frombuffer` (:func:`f8_view`, :func:`i8_view`,
  :func:`u8_view`).  numpy is a hard dependency of the package.
- **Fork pool** -- :func:`fork_map` generalises the ``run_sweep`` pattern
  (module-global state populated before a ``fork``-context pool is
  created, so workers inherit arbitrary unpicklable state by memory copy;
  ordered results; serial fallback with a one-time ``RuntimeWarning`` on
  platforms without fork).  Both the oracle's ``prefetch_rows``/patch
  repairs and the sweep harness's per-algorithm dispatch run on it.

Fork-inheritance invariant: a worker sees the parent's memory exactly as
it was at pool creation, so callers must only fork while their shared
structures are *consistent* -- the oracle never forks mid-patch (rows are
farmed either before any mutation, or after a patch's decrease pass has
finished and its plan and shared regions are fully resolved, and before
any increase repair writes a row).
"""

from __future__ import annotations

import multiprocessing
import warnings
from array import array
from typing import Callable, List, Optional, Sequence, TypeVar

import numpy as np

T = TypeVar("T")
R = TypeVar("R")

#: Storage typecodes of the row label buffers.  ``'d'`` is the C
#: double every distance already is; ``'q'`` is a signed 64-bit int --
#: platform-independent, and exactly what ``numpy.frombuffer`` maps to
#: ``int64`` so parent gathers need no casting.
DIST_TYPECODE = "d"
PARENT_TYPECODE = "q"


def dist_buffer(values) -> array:
    """Distance labels as an ``array('d')`` buffer (copies ``values``)."""
    return array(DIST_TYPECODE, values)


def parent_buffer(values) -> array:
    """Parent labels as an ``array('q')`` buffer (copies ``values``)."""
    return array(PARENT_TYPECODE, values)


def f8_view(buf: array) -> np.ndarray:
    """Zero-copy ``float64`` numpy view of a ``dist`` buffer.

    Writes through the view mutate the buffer in place (the buffers are
    never resized, so views stay valid for the row's lifetime).
    """
    return np.frombuffer(buf, dtype=np.float64)


def i8_view(buf: array) -> np.ndarray:
    """Zero-copy ``int64`` numpy view of a ``parent`` buffer."""
    return np.frombuffer(buf, dtype=np.int64)


def u8_view(buf: bytearray) -> np.ndarray:
    """Zero-copy ``uint8`` numpy view of a bytearray mask."""
    return np.frombuffer(buf, dtype=np.uint8)


# ----------------------------------------------------------------------
# fork-based worker pool
# ----------------------------------------------------------------------

#: The function the pool workers run, installed by :func:`fork_map` right
#: before the fork so workers inherit it (and everything it closes over)
#: by memory copy -- closures and bound methods are not picklable, which
#: is the whole reason the sweep harness pioneered this pattern.
_WORKER_FN: Optional[Callable] = None

#: Whether the missing-fork serial fallback has been reported -- once per
#: process, matching ``experiments.harness._warned_no_fork``.
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
    metrics=None,
) -> List[R]:
    """Map ``fn`` over ``items`` on a fork pool; results stay in order.

    ``fn`` may be any callable (bound method, closure): it is installed in
    a module global before the pool forks, so workers inherit it by memory
    copy and only ``items`` and results cross the pipe.  Serial fallbacks
    -- ``workers <= 1``, a single item, a daemonic caller (a pool worker
    cannot have children), or a platform without fork (reported once with
    a ``RuntimeWarning`` naming ``label``) -- run ``fn`` in-process, so
    results are identical either way for pure functions.

    ``metrics`` (an optional :class:`~repro.obs.recorder.Recorder`)
    records one ``kernel.fork`` span per dispatched batch plus
    batch/item counters, on the *parent* side only -- anything a worker
    would record dies with its copy-on-write memory, so workers stay
    uninstrumented and the pipe payloads unchanged.
    """
    global _WORKER_FN, _warned_no_fork
    items = list(items)
    mx = metrics if metrics else None
    t0 = mx.clock() if mx else 0.0

    def _record(mode: str, out: List[R]) -> List[R]:
        if mx:
            mx.inc("kernel.fork.batches", pool=label, mode=mode)
            mx.inc("kernel.fork.items", len(items), pool=label, mode=mode)
            mx.span("kernel.fork", t0, pool=label, mode=mode,
                    trace_args={"items": len(items)})
        return out

    if workers <= 1 or len(items) <= 1:
        return _record("serial", [fn(item) for item in items])
    if multiprocessing.current_process().daemon:
        # Nested inside another pool's worker: silently serial (expected
        # composition, e.g. per-algorithm dispatch inside a sweep cell).
        return _record("serial", [fn(item) for item in items])
    if not fork_available():
        if not _warned_no_fork:
            _warned_no_fork = True
            warnings.warn(
                f"{label}: the 'fork' start method is unavailable on this "
                "platform; running serially instead",
                RuntimeWarning,
                stacklevel=3,
            )
        return _record("serial", [fn(item) for item in items])
    context = multiprocessing.get_context("fork")
    _WORKER_FN = fn
    try:
        with context.Pool(processes=min(workers, len(items))) as pool:
            if chunksize is None:
                chunksize = max(1, len(items) // (workers * 4))
            return _record(
                "fork", pool.map(_run_worker, items, chunksize=chunksize)
            )
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
