"""Tests for :mod:`repro.obs`: registry, tracer, recorder, equivalence.

The load-bearing contract is the last section: a randomized churn +
link-failure workload replayed with metrics and tracing ON must produce
**bit-identical** per-request costs, acceptance decisions, availability
counters, and oracle row state to the metrics-OFF run -- the recorder
only observes, exactly like the ``incremental=``/``row_budget_bytes=``
reference flags.  The trace sections pin the Chrome trace-event JSONL
schema and the span-total/histogram-sum reconciliation the CLI and CI
rely on.
"""

from __future__ import annotations

import json

import pytest

from helpers import row_states
from repro.obs import (
    CACHE_SNAPSHOT_SCHEMA,
    DEFAULT_BUCKETS,
    FakeClock,
    MetricsRegistry,
    NULL_RECORDER,
    NullRecorder,
    PHASE_GROUPS,
    Recorder,
    SpanTracer,
    TRACE_RECORD,
    TRACE_VERSION,
    dump_trace_events,
    load_trace_events,
    phase_breakdown,
    read_trace_events,
    series_key,
    span_totals,
    to_chrome_json,
    validate_trace_events,
    write_trace_events,
)


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------

def test_series_key_sorts_labels():
    assert series_key("m", {}) == "m"
    assert series_key("m", {"b": 2, "a": 1}) == "m{a=1,b=2}"
    # Same labels in any insertion order -> same key.
    assert series_key("m", {"a": 1, "b": 2}) == series_key("m", {"b": 2, "a": 1})


def test_registry_counters_and_gauges():
    reg = MetricsRegistry()
    reg.inc("reqs")
    reg.inc("reqs", 2)
    reg.inc("reqs", outcome="ok")
    reg.gauge("level", 7.5, scope="oracle")
    reg.gauge("level", 3.0, scope="oracle")  # last write wins
    snap = reg.snapshot()
    assert snap["counters"] == {"reqs": 3, "reqs{outcome=ok}": 1}
    assert snap["gauges"] == {"level{scope=oracle}": 3.0}
    assert reg.counter_total("reqs") == 4


def test_registry_histogram_buckets_and_overflow():
    reg = MetricsRegistry()
    reg.declare_histogram("sizes", (1, 10, 100))
    for value in (0.5, 1, 5, 100, 1000):
        reg.observe("sizes", value)
    hist = reg.snapshot()["histograms"]["sizes"]
    assert hist["count"] == 5
    assert hist["sum"] == pytest.approx(1106.5)
    # Inclusive upper bounds: 0.5 and 1 -> le=1; 5 -> le=10; 100 -> le=100.
    assert hist["buckets"] == [[1, 2], [10, 1], [100, 1]]
    assert hist["overflow"] == 1
    # Undeclared names fall back to the duration decades.
    reg.observe("spans", 0.05)
    assert reg.snapshot()["histograms"]["spans"]["buckets"][5] == [0.1, 1]
    assert len(DEFAULT_BUCKETS) == 9


def test_registry_name_matching_spans_label_series():
    reg = MetricsRegistry()
    reg.observe("oracle.query", 1.0, op="a")
    reg.observe("oracle.query", 2.0, op="b")
    reg.observe("oracle.query_other", 100.0)
    assert reg.histogram_sum("oracle.query") == pytest.approx(3.0)
    assert reg.histogram_count("oracle.query") == 2


def test_snapshot_is_deterministically_ordered():
    reg = MetricsRegistry()
    for name in ("zeta", "alpha", "mid"):
        reg.inc(name)
        reg.observe(name, 1.0)
    snap = reg.snapshot()
    assert list(snap["counters"]) == ["alpha", "mid", "zeta"]
    assert list(snap["histograms"]) == ["alpha", "mid", "zeta"]
    # And the canonical JSON form is reproducible.
    assert json.dumps(snap, sort_keys=True) == json.dumps(
        reg.snapshot(), sort_keys=True
    )


def test_phase_breakdown_groups_label_series():
    reg = MetricsRegistry()
    reg.observe("oracle.build", 1.0, kind="core")
    reg.observe("oracle.row_build", 0.5, kind="cold")
    reg.observe("oracle.patch.costs", 0.25)
    out = phase_breakdown(reg.snapshot())
    assert set(out) == set(PHASE_GROUPS)
    assert out["build"] == pytest.approx(1.5)
    assert out["repair"] == pytest.approx(0.25)
    assert out["query"] == 0.0


# ----------------------------------------------------------------------
# recorder
# ----------------------------------------------------------------------

def test_null_recorder_is_falsy_noop():
    assert not NULL_RECORDER
    assert not NullRecorder()
    assert NULL_RECORDER.clock() == 0.0
    assert NULL_RECORDER.span("x", 0.0) == 0.0
    NULL_RECORDER.inc("x")
    NULL_RECORDER.observe("x", 1.0)
    assert NULL_RECORDER.snapshot() == {}
    assert NULL_RECORDER.registry is None and NULL_RECORDER.tracer is None


def test_recorder_span_feeds_histogram_and_trace():
    clock = FakeClock(step=0.25)
    rec = Recorder(
        registry=MetricsRegistry(), tracer=SpanTracer(), clock=clock
    )
    t0 = rec.clock()
    dur = rec.span("oracle.query", t0, op="distance", trace_args={"n": 3})
    assert dur == pytest.approx(0.25)
    hist = rec.snapshot()["histograms"]["oracle.query{op=distance}"]
    assert hist["count"] == 1 and hist["sum"] == pytest.approx(0.25)
    (event,) = rec.tracer.events
    assert event["name"] == "oracle.query"
    assert event["ph"] == "X"
    assert event["dur"] == pytest.approx(0.25e6)
    # Labels and trace_args merge into the trace event's args.
    assert event["args"] == {"op": "distance", "n": 3}


def test_recorder_without_tracer_still_observes():
    rec = Recorder(registry=MetricsRegistry(), clock=FakeClock())
    rec.span("x", rec.clock())
    assert rec.tracer is None
    assert rec.snapshot()["histograms"]["x"]["count"] == 1


def test_fake_clock_is_monotone_deterministic():
    a, b = FakeClock(step=0.5), FakeClock(step=0.5)
    assert [a() for _ in range(3)] == [b() for _ in range(3)] == [0.0, 0.5, 1.0]


# ----------------------------------------------------------------------
# trace JSONL codec
# ----------------------------------------------------------------------

def _sample_events():
    tracer = SpanTracer()
    tracer.complete("alpha", 0.0, 10.0, args={"n": 1})
    tracer.complete("beta", 5.0, 2.5)
    tracer.complete("alpha", 20.0, 30.0)
    return tracer.events


def test_trace_jsonl_round_trip(tmp_path):
    events = _sample_events()
    path = tmp_path / "trace.jsonl"
    write_trace_events(events, str(path))
    lines = path.read_text().splitlines()
    # Line 1 is the metadata event -- itself a valid Chrome event.
    head = json.loads(lines[0])
    assert head["ph"] == "M"
    assert head["args"] == {"record": TRACE_RECORD, "version": TRACE_VERSION}
    assert len(lines) == len(events) + 1
    loaded = read_trace_events(str(path))
    assert loaded == events


def test_dump_load_string_form():
    events = _sample_events()
    lines = list(dump_trace_events(events))
    assert load_trace_events(lines) == events


def test_load_rejects_wrong_record_and_version():
    events = _sample_events()
    lines = list(dump_trace_events(events))
    bad_head = json.loads(lines[0])
    bad_head["args"]["record"] = "not-ours"
    with pytest.raises(ValueError):
        load_trace_events([json.dumps(bad_head)] + lines[1:])
    bad_head = json.loads(lines[0])
    bad_head["args"]["version"] = 999
    with pytest.raises(ValueError):
        load_trace_events([json.dumps(bad_head)] + lines[1:])
    with pytest.raises(ValueError):
        load_trace_events([])


@pytest.mark.parametrize("mutate", [
    lambda e: e.pop("name"),
    lambda e: e.__setitem__("name", ""),
    lambda e: e.__setitem__("ph", "B"),
    lambda e: e.__setitem__("ts", -1.0),
    lambda e: e.__setitem__("dur", "fast"),
    lambda e: e.__setitem__("pid", 1.5),
    lambda e: e.__setitem__("args", [1, 2]),
])
def test_validate_rejects_malformed_events(mutate):
    events = [dict(e) for e in _sample_events()]
    mutate(events[1])
    with pytest.raises(ValueError):
        validate_trace_events(events)


def test_to_chrome_json_and_span_totals():
    events = _sample_events()
    payload = json.loads(to_chrome_json(events))
    assert payload == {"traceEvents": events}
    totals = span_totals(events)
    assert totals["alpha"] == pytest.approx(40.0 / 1e6)
    assert totals["beta"] == pytest.approx(2.5 / 1e6)
    assert list(totals) == sorted(totals)


# ----------------------------------------------------------------------
# metrics-on == metrics-off equivalence (the tentpole invariant)
# ----------------------------------------------------------------------

def _churn_run(metrics=None):
    """One seeded churn + failure workload; returns (result, simulator)."""
    from repro.core.sofda import sofda
    from repro.online import RequestGenerator
    from repro.online.simulator import OnlineSimulator
    from repro.topology import softlayer_network
    from repro.workload import (
        ExponentialHolding,
        LinkFailureProcess,
        PoissonArrivals,
        WorkloadEngine,
        build_schedule,
    )

    network = softlayer_network(seed=1)
    generator = RequestGenerator(
        network, seed=0, destinations_range=(3, 4), sources_range=(2, 2),
        chain_length=2,
    )
    process = PoissonArrivals(generator, rate=1.2, seed=1)
    links = sorted(((u, v) for u, v, _ in network.graph.edges()), key=repr)
    failures = LinkFailureProcess(links[:2], mtbf=3.0, mttr=1.0, seed=0)
    schedule = build_schedule(
        process, horizon=6.0,
        holding=ExponentialHolding(3.0, seed=2),
        failures=failures,
    )
    simulator = OnlineSimulator(network, metrics=metrics)
    engine = WorkloadEngine(
        simulator, lambda inst: sofda(inst).forest, name="SOFDA"
    )
    return engine.run(schedule), simulator


def test_churn_bit_identical_with_metrics_on():
    recorder = Recorder(registry=MetricsRegistry(), tracer=SpanTracer())
    plain, plain_sim = _churn_run(metrics=None)
    traced, traced_sim = _churn_run(metrics=recorder)

    # Bit-identical outcomes: costs, decisions, availability accounting.
    assert traced.per_request_cost == plain.per_request_cost
    assert traced.accepted == plain.accepted
    assert traced.rejected == plain.rejected
    assert traced.departures == plain.departures
    assert traced.failures == plain.failures
    assert traced.rerouted == plain.rerouted
    assert traced.disrupted == plain.disrupted
    assert traced.recovery_latencies == plain.recovery_latencies
    # Bit-identical oracle row state.
    assert row_states(traced_sim._oracle) == row_states(plain_sim._oracle)

    # The traced run actually recorded the stack's seams.
    snap = recorder.snapshot()
    assert snap["counters"]["sim.commits"] == plain.accepted
    assert snap["counters"]["workload.accepted{algo=SOFDA}"] == plain.accepted
    assert snap["counters"]["sim.failures"] == plain.failures
    assert recorder.registry.histogram_count("workload.event") > 0
    assert len(recorder.tracer.events) > 0
    # Registry counters agree with the engine's own accounting.
    assert recorder.registry.counter_total("sim.embeds") == (
        plain.accepted + plain.rejected
    )


def test_churn_counts_batch_query_fallbacks(monkeypatch):
    """A metered churn run counts every scalar fallback of the batch
    query gates as ``oracle.fallback{site,reason}``, and the replay stays
    bit-identical to the metrics-off run.  The pool-cap gate's count
    equals the refusals a spy on ``DetourBlock.serve`` sees (the first
    pair of every swept source: its row is not cached yet)."""
    from repro.graph.indexed import DetourBlock

    serve = DetourBlock.serve
    refused = []

    def spy(self, i):
        out = serve(self, i)
        if out is None:
            refused.append(i)
        return out

    monkeypatch.setattr(DetourBlock, "serve", spy)
    plain, plain_sim = _churn_run(metrics=None)
    plain_refused = len(refused)
    recorder = Recorder(registry=MetricsRegistry())
    metered, metered_sim = _churn_run(metrics=recorder)
    assert len(refused) == 2 * plain_refused > 0

    assert metered.per_request_cost == plain.per_request_cost
    assert metered.accepted == plain.accepted
    assert metered.rerouted == plain.rerouted
    assert row_states(metered_sim._oracle) == row_states(plain_sim._oracle)
    assert metered_sim.cache_snapshot() == plain_sim.cache_snapshot()

    counters = recorder.snapshot()["counters"]
    fallbacks = {
        key: value for key, value in counters.items()
        if key.startswith("oracle.fallback")
    }
    assert fallbacks["oracle.fallback{reason=row_not_cached,"
                     "site=detour_distances}"] == plain_refused
    assert fallbacks["oracle.fallback{reason=row_not_cached,"
                     "site=distances_to}"] > 0
    assert set(fallbacks) <= {
        f"oracle.fallback{{reason={reason},site={site}}}"
        for reason in ("row_not_cached", "target_missing", "endpoint_missing")
        for site in ("detour_distances", "distances_to")
    }


def test_rejections_are_counted_by_exception_type():
    """Any embedder exception rejects the request; the recorder names
    the exception, so a fast-path bug is not only a lower accept rate."""
    from repro.core.sofda import sofda
    from repro.online import RequestGenerator
    from repro.online.simulator import OnlineSimulator
    from repro.topology import softlayer_network

    network = softlayer_network(seed=1)
    recorder = Recorder(registry=MetricsRegistry())
    simulator = OnlineSimulator(network, metrics=recorder)
    first, second = RequestGenerator(network, seed=0).take(2)

    def broken(instance):
        raise AssertionError("embedder bug")

    assert simulator.embed_leased(first, broken) == (None, None)
    cost, lease = simulator.embed_leased(
        second, lambda instance: sofda(instance).forest
    )
    assert lease is not None
    embeds = {
        key: value for key, value in recorder.snapshot()["counters"].items()
        if key.startswith("sim.embeds")
    }
    assert embeds == {
        "sim.embeds{outcome=accepted}": 1,
        "sim.embeds{outcome=rejected,reason=AssertionError}": 1,
    }


def test_churn_span_totals_reconcile_with_histograms(tmp_path):
    recorder = Recorder(registry=MetricsRegistry(), tracer=SpanTracer())
    _churn_run(metrics=recorder)
    path = tmp_path / "churn.jsonl"
    write_trace_events(recorder.tracer.events, str(path))
    events = read_trace_events(str(path))
    assert len(events) == len(recorder.tracer.events)
    totals = span_totals(events)
    assert totals  # spans were emitted
    for name, total in totals.items():
        hist_sum = recorder.registry.histogram_sum(name)
        assert total == pytest.approx(hist_sum, rel=1e-9, abs=1e-9)
    # The run exercises build, repair and query phases.
    breakdown = phase_breakdown(recorder.snapshot())
    assert breakdown["build"] > 0
    assert breakdown["repair"] > 0
    assert breakdown["query"] > 0


def test_null_recorder_knob_behaves_like_none():
    from repro.graph import FrozenOracle, Graph

    graph = Graph()
    graph.add_edge("a", "b", 1.0)
    oracle = FrozenOracle(graph, metrics=NULL_RECORDER)
    assert oracle.metrics is None
    assert oracle.distance("a", "b") == 1.0


def test_metrics_flag_threads_to_clones_and_fallback():
    from repro.graph import FrozenOracle, Graph

    graph = Graph()
    for i in range(5):
        graph.add_edge(i, i + 1, 1.0)
    recorder = Recorder(registry=MetricsRegistry())
    oracle = FrozenOracle(graph, metrics=recorder)
    assert oracle.metrics is recorder
    clone = oracle.rebased(graph.copy(), {(0, 1): 2.0})
    assert clone.metrics is recorder


def test_distances_from_records_row_builds():
    """Uncontracted ``distances_from`` records its row builds as
    ``distance`` does: ``kind=cold`` plus ``oracle.rows.cold`` for a new
    row, and nothing for a row already cached."""
    from repro.graph import FrozenOracle, Graph

    graph = Graph.from_edges([
        ("a", "b", 1.0), ("b", "c", 1.0), ("c", "d", 1.0),
    ])
    recorder = Recorder(registry=MetricsRegistry())
    oracle = FrozenOracle(graph, hot={"a", "b"}, metrics=recorder)
    assert oracle.contracted is None
    oracle.distances_from("d")  # cold
    oracle.distance("a", "c")  # cold, from the source
    assert oracle.core.index["a"] in oracle._rows
    assert oracle.distances_from("a")["d"] == 3.0  # cached
    snap = recorder.snapshot()
    assert snap["counters"]["oracle.rows.cold"] == 2
    builds = {
        key: hist["count"] for key, hist in snap["histograms"].items()
        if key.startswith("oracle.row_build")
    }
    assert builds == {"oracle.row_build{kind=cold}": 2}


# ----------------------------------------------------------------------
# unified cache snapshots
# ----------------------------------------------------------------------

_SNAPSHOT_KEYS = {
    "schema", "scope", "rows", "budget_bytes", "total_bytes", "peak_bytes",
    "hits", "misses", "evictions", "idle_evictions", "budget_evictions",
    "overshoots",
}


def test_cache_snapshot_unified_schema():
    from repro.graph import FrozenOracle, Graph

    graph = Graph()
    for i in range(4):
        graph.add_edge(i, i + 1, 1.0)
    oracle = FrozenOracle(graph)
    oracle.distance(0, 3)
    snap = oracle.cache_snapshot()
    assert snap["schema"] == CACHE_SNAPSHOT_SCHEMA
    assert snap["scope"] == "oracle"
    assert set(snap) == _SNAPSHOT_KEYS
    assert snap["rows"] >= 1


def test_simulator_and_controller_snapshot_scopes():
    from repro.distributed.controller import Controller
    from repro.graph import Graph
    from repro.online.simulator import OnlineSimulator
    from repro.topology import softlayer_network

    simulator = OnlineSimulator(softlayer_network(seed=1))
    sim_snap = simulator.cache_snapshot()
    assert sim_snap["scope"] == "simulator"
    assert sim_snap["schema"] == CACHE_SNAPSHOT_SCHEMA

    graph = Graph()
    for i in range(6):
        graph.add_edge(i, (i + 1) % 6, 1.0)
    controller = Controller.for_domain(3, {0, 1, 2}, graph)
    controller.local_distances_from(0)
    ctrl_snap = controller.cache_snapshot()
    assert ctrl_snap["scope"] == "controller"
    assert ctrl_snap["domain"] == 3


def test_snapshot_with_recorder_publishes_gauges():
    from repro.graph import FrozenOracle, Graph

    graph = Graph()
    for i in range(4):
        graph.add_edge(i, i + 1, 1.0)
    recorder = Recorder(registry=MetricsRegistry())
    oracle = FrozenOracle(graph, metrics=recorder)
    oracle.distance(0, 3)
    snap = oracle.cache_snapshot()
    gauges = recorder.snapshot()["gauges"]
    assert gauges["oracle.cache.rows"] == snap["rows"]
    assert gauges["oracle.cache.total_bytes"] == snap["total_bytes"]


# ----------------------------------------------------------------------
# distributed + sweep integration
# ----------------------------------------------------------------------

def test_distributed_counters_and_identical_forest():
    from repro import ServiceChain
    from repro.distributed import DistributedSOFDA
    from repro.graph import FrozenOracle
    from repro.topology import softlayer_network

    def make_instance(metrics=None):
        instance = softlayer_network(seed=2).make_instance(
            num_sources=2, num_destinations=3, num_vms=6,
            chain=ServiceChain.of_length(2), seed=4,
        )
        if metrics is not None:
            # Pre-build the shared oracle with the recorder knob so the
            # coordinator and its per-domain controllers inherit it.
            instance._oracle = FrozenOracle(
                instance.graph,
                hot=instance.vms | instance.sources | instance.destinations,
                metrics=metrics,
            )
        return instance

    plain = DistributedSOFDA(make_instance(), num_domains=3, seed=0).run()
    recorder = Recorder(registry=MetricsRegistry())
    coordinator = DistributedSOFDA(
        make_instance(metrics=recorder), num_domains=3, seed=0
    )
    traced = coordinator.run()
    # Abstraction queries (border matrices, node-to-border rows) are what
    # the dist.query counters observe.
    assert coordinator.verify_abstraction(samples=5)

    assert traced.forest.total_cost() == plain.forest.total_cost()
    assert traced.bus.num_messages == plain.bus.num_messages
    snap = recorder.snapshot()
    assert recorder.registry.counter_total("dist.query") > 0
    assert recorder.registry.counter_total("dist.messages") == (
        plain.bus.num_messages
    )
    kinds = {
        k for k in snap["counters"] if k.startswith("dist.messages{")
    }
    assert kinds  # per-kind series present


def test_run_sweep_merges_cell_timings():
    from repro.experiments.harness import run_sweep
    from repro.topology import softlayer_network

    network = softlayer_network(seed=1)
    algorithms = {"SOFDA": None}
    from repro.core.sofda import sofda as _sofda

    algorithms = {"SOFDA": lambda inst: _sofda(inst).forest}
    overrides = {
        "num_sources": 2, "num_destinations": 2, "num_vms": 4,
        "chain_length": 2,
    }
    recorder = Recorder(registry=MetricsRegistry())
    plain = run_sweep(
        network, "num_sources", [2, 3], algorithms=algorithms, seeds=2,
        overrides=overrides,
    )
    traced = run_sweep(
        network, "num_sources", [2, 3], algorithms=algorithms, seeds=2,
        overrides=overrides, metrics=recorder,
    )
    assert traced.mean_cost == plain.mean_cost
    assert traced.mean_vms_used == plain.mean_vms_used
    assert recorder.registry.counter_total("sweep.cells") == 4
    assert recorder.registry.histogram_count("sweep.cell") == 4
    # Histogram sums mirror the merged mean runtimes.
    total = sum(sum(v) for v in traced.mean_runtime_s.values()) * 2
    assert recorder.registry.histogram_sum("sweep.cell") == pytest.approx(
        total
    )


# ----------------------------------------------------------------------
# smoke entry point
# ----------------------------------------------------------------------

def test_smoke_snapshot_is_canonical(tmp_path):
    from repro.obs.smoke import run_smoke

    out = run_smoke(trace_out=str(tmp_path / "trace.jsonl"))
    snap = json.loads(out)
    assert set(snap) == {"counters", "gauges", "histograms"}
    assert out == json.dumps(snap, sort_keys=True, indent=2)
    assert (tmp_path / "trace.jsonl").exists()
