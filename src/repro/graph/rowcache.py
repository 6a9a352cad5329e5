"""Budgeted row-cache storage for :class:`~repro.graph.indexed.FrozenOracle`.

The oracle's cached single-source rows used to live in a loose ``dict``
inside :class:`FrozenOracle`, with the idle-at-patch drop heuristic as
inline special-case code.  :class:`RowCache` extracts that ownership into
one subsystem: it *is* the row store (a ``dict`` subclass, so the
oracle's lookup paths and iteration order are unchanged), and it owns

- **byte accounting** per resident row (label buffers plus a fixed
  per-row overhead -- see :func:`row_nbytes`),
- **eviction** as a single code path with one counter set (idle-at-patch
  drops and budget-pressure evictions both route through :meth:`evict`),
  and
- a **budget policy** under ``budget_bytes``: when residency exceeds the
  budget, :meth:`enforce` evicts rows in ascending retention value --
  unserved-since-last-patch rows first, then least-recently-served --
  until the cache fits.  Every row of one oracle is exhaustive over the
  same core, so rows never differ in recompute cost or size.

``budget_bytes=None`` (the default) preserves the historical unbounded
behavior bit-identically: lookups, insertion order and the idle-at-patch
drop are exactly the plain-dict code paths, and :meth:`enforce` is a
no-op.  The budget only ever *removes* rows between queries; every
evicted row recomputes on demand to bit-identical labels (the Dijkstra
cores are deterministic), so served distances never depend on the
budget -- only residency and recompute work do.

Byte model
----------
Sizes are **deterministic and platform-independent** (no
``sys.getsizeof``): 8 bytes per distance entry and 8 per parent entry,
plus :data:`ROW_OVERHEAD_BYTES` per row.  Every cached row stores its
labels in ``array('d')``/``array('q')`` buffers, and nothing else per
node, so the 16 bytes/node label term is near-exact for every row -- the
budget is still a *residency model*, not an RSS cap, and the model is
chosen so budgeted runs behave identically across platforms.  The
rows are the oracle's only persistent repair state: a repair's region
mask lives only for its one :func:`repro.graph.kernel.repair` call.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

__all__ = ["RowCache", "ROW_OVERHEAD_BYTES", "row_nbytes"]

#: Fixed accounting overhead per resident row: the ``_Row`` object, its
#: slot pointers and the store's per-entry bookkeeping.  A deterministic
#: constant (see the module docstring's byte model).
ROW_OVERHEAD_BYTES = 96


def row_nbytes(num_nodes: int) -> int:
    """Accounted bytes of one resident row over ``num_nodes`` core nodes.

    The same arithmetic :class:`RowCache` applies to live ``_Row``
    objects, exposed so benchmarks and tests can size budgets in *rows*
    ("hold the VM pool plus one request's working set") without
    duplicating the model: 8 bytes per distance, 8 per parent, plus the
    fixed per-row overhead.
    """
    return 16 * int(num_nodes) + ROW_OVERHEAD_BYTES


class RowCache(dict):
    """The oracle's row store with byte accounting and budgeted eviction.

    A ``dict`` mapping core node id -> ``_Row``.  All mutation goes
    through ``__setitem__`` / ``__delitem__`` / :meth:`evict` /
    :meth:`clear`, which keep :attr:`total_bytes` exact; lookups go
    through :meth:`get`, which tracks hits/misses and (under a budget)
    the recency order the eviction policy tiebreaks on.

    The cache never evicts on its own: the owning oracle calls
    :meth:`enforce` at its consistency boundaries (after a row install,
    at the end of a patch) and :meth:`evict` for policy drops.  Counters
    are lifetime values -- :meth:`clear` (a full invalidate) resets
    residency, not history.
    """

    def __init__(self, budget_bytes: Optional[int] = None) -> None:
        super().__init__()
        if budget_bytes is not None:
            budget_bytes = int(budget_bytes)
            if budget_bytes <= 0:
                raise ValueError(
                    f"row_budget_bytes must be positive, got {budget_bytes}"
                )
        #: Residency ceiling in accounted bytes; ``None`` = unbounded.
        self.budget_bytes = budget_bytes
        self.total_bytes = 0
        self.peak_bytes = 0
        self.hits = 0
        self.misses = 0
        #: Total rows dropped through :meth:`evict`, any reason.
        self.evictions = 0
        #: ... of which: idle-at-patch policy drops.
        self.idle_evictions = 0
        #: ... of which: budget-pressure drops (:meth:`enforce`).
        self.budget_evictions = 0
        #: Enforcement passes that could not reach the budget because
        #: every remaining row was protected (mid-install working set
        #: larger than the budget).  Strict benches assert this is 0.
        self.overshoots = 0
        #: Per-sid accounted bytes, maintained on mutation.
        self._nbytes: Dict[int, int] = {}
        #: Monotonic serve clock and per-sid last-served tick, tracked
        #: only under a budget (the unbounded tier pays nothing for it).
        self._tick = 0
        self._served: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # store mutation (every path keeps total_bytes exact)
    # ------------------------------------------------------------------
    def __setitem__(self, source_id: int, row) -> None:
        self.total_bytes -= self._nbytes.get(source_id, 0)
        nbytes = row_nbytes(len(row.dist))
        self._nbytes[source_id] = nbytes
        self.total_bytes += nbytes
        if self.total_bytes > self.peak_bytes:
            self.peak_bytes = self.total_bytes
        super().__setitem__(source_id, row)

    def __delitem__(self, source_id: int) -> None:
        super().__delitem__(source_id)
        self.total_bytes -= self._nbytes.pop(source_id)
        self._served.pop(source_id, None)

    def pop(self, source_id: int, *default):
        try:
            row = dict.__getitem__(self, source_id)
        except KeyError:
            if default:
                return default[0]
            raise
        del self[source_id]
        return row

    def popitem(self):  # pragma: no cover - not used by the oracle
        source_id = next(reversed(self))
        return source_id, self.pop(source_id)

    def setdefault(self, source_id: int, default=None):  # pragma: no cover
        if source_id not in self:
            self[source_id] = default
        return dict.__getitem__(self, source_id)

    def update(self, *args, **kwargs):  # pragma: no cover - not used
        for key, value in dict(*args, **kwargs).items():
            self[key] = value

    def clear(self) -> None:
        """Drop every row (a full invalidate -- not counted as eviction)."""
        super().clear()
        self._nbytes.clear()
        self._served.clear()
        self.total_bytes = 0

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def get(self, source_id, default=None):
        """Dict ``get`` plus hit/miss counting and (budgeted) recency.

        Every oracle serve path looks rows up through here, so the
        hit/miss counters read as *row-store lookups* (a query served by
        undirected symmetry probes both endpoint rows and may count one
        miss and one hit).  The recency tick feeds the eviction
        tiebreak and is skipped entirely on unbounded caches.
        """
        row = dict.get(self, source_id, default)
        if row is default:
            self.misses += 1
        else:
            self.hits += 1
            if self.budget_bytes is not None:
                self._tick += 1
                self._served[source_id] = self._tick
        return row

    def peek(self, source_id):
        """Dict ``get`` that counts nothing: no hit, miss or recency tick.

        For batch gathers that read rows a counted :meth:`get` has
        already looked up, or will look up when the row is served.
        """
        return dict.get(self, source_id)

    # ------------------------------------------------------------------
    # eviction (the one code path for every drop policy)
    # ------------------------------------------------------------------
    def evict(self, source_id: int, reason: str = "budget"):
        """Drop one row and count it under ``reason``.

        ``reason`` is ``"idle"`` (idle across a whole patch interval) or
        ``"budget"`` (residency pressure).  Returns the evicted row.
        """
        row = dict.__getitem__(self, source_id)
        del self[source_id]
        self.evictions += 1
        if reason == "idle":
            self.idle_evictions += 1
        else:
            self.budget_evictions += 1
        return row

    def _evict_key(self, source_id: int) -> Tuple[int, int, int]:
        """Ascending retention value: the eviction (min-first) sort key.

        Unserved-since-last-patch rows go first (they are the idle
        policy's candidates anyway), then least-recently-served, then
        the stable id.
        """
        return (
            1 if dict.__getitem__(self, source_id).used else 0,
            self._served.get(source_id, 0),
            source_id,
        )

    def enforce(self, protect: Iterable[int] = ()) -> int:
        """Evict ascending-value rows until ``total_bytes`` fits the budget.

        ``protect`` names rows that must survive this pass (the row just
        installed, mid-request working sets).  If protected rows alone
        exceed the budget the pass records an overshoot and returns with
        the cache over budget -- the caller's working set simply does
        not fit, and dropping it would only force immediate recomputes.
        Returns the number of rows evicted.
        """
        budget = self.budget_bytes
        if budget is None or self.total_bytes <= budget:
            return 0
        protected = set(protect)
        victims = sorted(
            (sid for sid in self if sid not in protected),
            key=self._evict_key,
        )
        count = 0
        for sid in victims:
            if self.total_bytes <= budget:
                break
            self.evict(sid, "budget")
            count += 1
        if self.total_bytes > budget:
            self.overshoots += 1
        return count

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Optional[int]]:
        """A plain-dict snapshot for benches and service layers."""
        return {
            "rows": len(self),
            "budget_bytes": self.budget_bytes,
            "total_bytes": self.total_bytes,
            "peak_bytes": self.peak_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "idle_evictions": self.idle_evictions,
            "budget_evictions": self.budget_evictions,
            "overshoots": self.overshoots,
        }

    def publish(self, recorder, prefix: str = "oracle.cache") -> None:
        """Fold the counters into a metrics registry as gauges.

        Called at the oracle's consistency boundaries (end of each
        patch, every cache snapshot) rather than live in :meth:`get` --
        the hottest lookup path stays untouched and the registry sees
        the same lifetime totals :meth:`stats` reports.  ``None``-valued
        entries (an unbounded budget) are skipped: gauges are numeric.
        """
        for key, value in self.stats().items():
            if value is not None:
                recorder.gauge(f"{prefix}.{key}", value)
