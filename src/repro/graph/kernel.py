"""Raw-speed kernel utilities: array label buffers and a fork worker pool.

The oracle's algorithmic layers (CSR core, Ramalingam--Reps repair, the
patch planner, shared regions, topology tombstones) left pure interpreter
overhead as the dominant cost of the online traces.  This module holds
two primitives:

- **Label buffers** -- every cached oracle row stores ``dist``/``parent``
  as ``array('d')``/``array('q')`` buffers.  Scalar indexing still returns
  plain Python floats/ints (unlike raw numpy arrays, whose scalar reads
  box ``np.float64`` -- slower *and* repr-visible), while the buffer
  protocol lets batch operations wrap the same memory zero-copy with
  :func:`numpy.frombuffer` (:func:`f8_view`, :func:`i8_view`,
  :func:`u8_view`).  numpy is a hard dependency of the package.
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
