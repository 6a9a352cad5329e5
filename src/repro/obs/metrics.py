"""Metrics registry: counters, gauges, and fixed-bucket histograms.

The registry is the aggregation half of the observability layer (the
:mod:`~repro.obs.tracer` is the timeline half).  Three series kinds:

- **counters** -- monotone totals (``inc``), e.g. repaired rows by path.
- **gauges** -- last-write-wins levels (``gauge``), e.g. row-cache
  residency folded in from :meth:`RowCache.stats`.
- **histograms** -- fixed-bucket duration/size distributions
  (``observe``) that also track ``count`` and ``sum`` so span totals can
  be reconciled exactly against the trace timeline.

Determinism contract: series are keyed by ``name{label=value,...}`` with
labels sorted by label name, and :meth:`MetricsRegistry.snapshot` sorts
every mapping, so for a fixed observation sequence the snapshot is
byte-stable across processes and ``PYTHONHASHSEED`` values (float sums
accumulate in observation order, which the solver pipeline already pins).
No dependencies beyond the stdlib.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Tuple

#: Default histogram buckets: duration-flavoured decades in seconds.
#: Upper bounds are inclusive (``value <= le`` lands in the bucket);
#: values above the last bound count in ``overflow``.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0,
)


def series_key(name: str, labels: Dict[str, object]) -> str:
    """Deterministic series key: ``name`` or ``name{k=v,...}`` sorted by k."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class _Histogram:
    __slots__ = ("buckets", "counts", "overflow", "count", "total")

    def __init__(self, buckets: Tuple[float, ...]) -> None:
        self.buckets = buckets
        self.counts = [0] * len(buckets)
        self.overflow = 0
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        i = bisect_left(self.buckets, value)
        if i < len(self.buckets):
            self.counts[i] += 1
        else:
            self.overflow += 1

    def to_dict(self) -> Dict[str, object]:
        return {
            "count": self.count,
            "sum": self.total,
            "buckets": [[le, c] for le, c in zip(self.buckets, self.counts)],
            "overflow": self.overflow,
        }


class MetricsRegistry:
    """In-process metrics store with a stable :meth:`snapshot` shape."""

    def __init__(self) -> None:
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, _Histogram] = {}
        #: per-metric-name bucket overrides (``declare_histogram``).
        self._buckets: Dict[str, Tuple[float, ...]] = {}

    # ------------------------------------------------------------------
    def declare_histogram(
        self, name: str, buckets: Iterable[float]
    ) -> None:
        """Override the bucket bounds for histograms named ``name``."""
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self._buckets[name] = bounds

    def inc(self, name: str, value: float = 1, **labels: object) -> None:
        key = series_key(name, labels)
        self._counters[key] = self._counters.get(key, 0) + value

    def gauge(self, name: str, value: float, **labels: object) -> None:
        self._gauges[series_key(name, labels)] = value

    def observe(self, name: str, value: float, **labels: object) -> None:
        key = series_key(name, labels)
        hist = self._histograms.get(key)
        if hist is None:
            hist = self._histograms[key] = _Histogram(
                self._buckets.get(name, DEFAULT_BUCKETS)
            )
        hist.observe(value)

    # ------------------------------------------------------------------
    def counter_total(self, name: str) -> float:
        """Sum of every counter series named ``name`` (any labels)."""
        return sum(
            v for k, v in self._counters.items()
            if k == name or k.startswith(name + "{")
        )

    def histogram_sum(self, name: str) -> float:
        """Summed ``sum`` across every histogram series named ``name``."""
        return sum(
            h.total for k, h in self._histograms.items()
            if k == name or k.startswith(name + "{")
        )

    def histogram_count(self, name: str) -> int:
        return sum(
            h.count for k, h in self._histograms.items()
            if k == name or k.startswith(name + "{")
        )

    def snapshot(self) -> Dict[str, object]:
        """Deterministic nested-dict snapshot (all mappings key-sorted)."""
        return {
            "counters": {k: self._counters[k] for k in sorted(self._counters)},
            "gauges": {k: self._gauges[k] for k in sorted(self._gauges)},
            "histograms": {
                k: self._histograms[k].to_dict()
                for k in sorted(self._histograms)
            },
        }


# ----------------------------------------------------------------------
# per-phase attribution
# ----------------------------------------------------------------------

#: Histogram-name prefixes grouped into the three phases the bench
#: breakdown reports.  Spans nest -- a row build inside a query counts
#: in both -- so the groups are attribution views, not a partition of
#: wall time.
PHASE_GROUPS: Dict[str, Tuple[str, ...]] = {
    "build": ("oracle.build", "oracle.row_build"),
    "repair": ("oracle.patch.costs", "oracle.patch.topology"),
    "query": ("oracle.query",),
}


def phase_breakdown(
    snapshot: Dict[str, object],
    groups: Optional[Dict[str, Tuple[str, ...]]] = None,
) -> Dict[str, float]:
    """Fold a registry snapshot's histogram sums into per-phase seconds.

    Returns ``{phase: seconds}`` for every phase in ``groups`` (default
    :data:`PHASE_GROUPS`), summing all histogram series whose metric
    name matches a group member exactly or with a ``{label}`` suffix.
    """
    groups = groups or PHASE_GROUPS
    hists = snapshot.get("histograms", {})
    out: Dict[str, float] = {}
    for phase, names in groups.items():
        total = 0.0
        for key in sorted(hists):
            base = key.split("{", 1)[0]
            if base in names:
                total += hists[key]["sum"]
        out[phase] = total
    return out
