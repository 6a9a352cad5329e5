"""Runtime observability: metrics registry, span tracing, profiling.

Dependency-free instrumentation for the oracle/simulator/workload stack
(PR 10).  Three pieces:

- :class:`MetricsRegistry` -- counters, gauges, fixed-bucket histograms
  with deterministic label ordering and a stable ``snapshot()`` dict.
- :class:`SpanTracer` -- nested spans exported as Chrome trace-event
  JSONL (``repro obs`` subcommand, ``--trace-out`` flags).
- :class:`Recorder` / :data:`NULL_RECORDER` -- the object threaded
  through the ``metrics=`` knob on :class:`~repro.graph.indexed.FrozenOracle`
  and everything above it.  ``None`` (the default) keeps every
  instrumented hot path zero-overhead and bit-identical -- the same
  flag-gated-reference discipline as ``incremental=`` /
  ``row_budget_bytes=``.

Unified cache-snapshot schema (``sof-cache-stats/3``)
-----------------------------------------------------

``FrozenOracle.cache_snapshot()`` / ``OnlineSimulator.cache_snapshot()``
/ ``Controller.cache_snapshot()`` all return one dict shape:

====================  ====================================================
key                   meaning
====================  ====================================================
``schema``            literal ``"sof-cache-stats/3"``
``scope``             ``"oracle"`` | ``"simulator"`` | ``"controller"``
``rows``              resident row count
``budget_bytes``      configured budget (``None`` = unbounded)
``total_bytes``       current estimated payload residency
``peak_bytes``        high-water residency mark
``hits``/``misses``   row-cache lookup outcomes
``evictions``         total evictions (= idle + budget)
``idle_evictions``    evicted as idle during repair triage
``budget_evictions``  evicted by the budget sweep
``overshoots``        enforce() passes that could not reach the budget
====================  ====================================================

Controller snapshots additionally carry ``domain`` (the controller id).
When a recorder is attached, taking a snapshot also folds the same
numbers into the registry as ``<scope>.cache.*`` gauges.  Version 2
dropped version 1's tree-edge index size key and gauge, together with
the index itself.  Version 3 dropped ``repair_evictions`` and its gauge:
every cached row runs to exhaustion, so a patch repairs every live row
and evicts none for its kind.

Batch-query fallbacks (``oracle.fallback``)
-------------------------------------------

``FrozenOracle``'s batch queries answer through a row-serving gate and
otherwise run the scalar ``distance`` loop.  Each refusal counts once
as ``oracle.fallback{site,reason}``:

==========  ==============================================================
label       values
==========  ==============================================================
``site``    ``"distances_to"`` | ``"detour_distances"`` (the pool-cap gate,
            one count per refused ``(source, last VM)`` pair)
``reason``  ``"row_not_cached"`` (a row the batch reads is not cached),
            ``"target_missing"`` (a target is not in the core),
            ``"endpoint_missing"`` (an endpoint is not in the core)
==========  ==============================================================

Procedure 2's path (``sofda.procedure2``) and rejections (``sim.embeds``)
-------------------------------------------------------------------------

Procedure 3's sweep counts every ``(source, last VM)`` pair once as
``sofda.procedure2{path=block}`` or
``sofda.procedure2{path=scalar,reason}``, ``reason`` one of
``"uncapped_pool"``, ``"kstroll_method"``, ``"source_cost"``,
``"setup_override"`` and ``"no_finite_insertion"``.  A rejected embed
counts as ``sim.embeds{outcome=rejected,reason}``, ``reason`` the type
name of the exception the embedder raised.
"""

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    PHASE_GROUPS,
    phase_breakdown,
    series_key,
)
from repro.obs.recorder import FakeClock, NullRecorder, NULL_RECORDER, Recorder
from repro.obs.tracer import (
    SpanTracer,
    TRACE_RECORD,
    TRACE_VERSION,
    dump_trace_events,
    load_trace_events,
    metadata_event,
    read_trace_events,
    span_totals,
    to_chrome_json,
    validate_trace_events,
    write_trace_events,
)

#: Version tag carried by every unified cache snapshot.
CACHE_SNAPSHOT_SCHEMA = "sof-cache-stats/3"

__all__ = [
    "CACHE_SNAPSHOT_SCHEMA",
    "DEFAULT_BUCKETS",
    "FakeClock",
    "MetricsRegistry",
    "NULL_RECORDER",
    "NullRecorder",
    "PHASE_GROUPS",
    "Recorder",
    "SpanTracer",
    "TRACE_RECORD",
    "TRACE_VERSION",
    "dump_trace_events",
    "load_trace_events",
    "metadata_event",
    "phase_breakdown",
    "read_trace_events",
    "series_key",
    "span_totals",
    "to_chrome_json",
    "validate_trace_events",
    "write_trace_events",
]
