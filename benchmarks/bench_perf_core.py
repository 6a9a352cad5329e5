"""Perf benchmark for the indexed graph core, SOFDA and the online stack.

Unlike the figure/table benches (which reproduce the paper), this one
tracks the *repo's own* performance trajectory.  It measures:

- ``dict_dijkstra_ms`` / ``dict_dijkstra_end_ms``: the control every
  ratio is read against, the dict-based Dijkstra on the largest Table-I
  instance graph (|V| = 5000, 2|V| links, VMs attached): one untimed
  warm-up pass of 8 searches, then the median of 5 timed passes, before
  the traces and again after them;
- ``oracle_row_ms``: one shared-oracle row on the same graph;
- ``sofda_largest_s`` / ``sofda_largest_cost``: SOFDA on the Table-I
  (5000, 26) cell, best of three;
- one row of :data:`TRACES` per online trace, its keys named by the
  row's prefix: ``<prefix>_s`` (the candidate replay's best time),
  ``<prefix>_cost`` and the row's ``extra`` keys; with a reference
  replay, ``<prefix>_<name>_s`` and :func:`_agree`'s drift and decision
  keys; on a metered row, ``<prefix>_phases`` (build / repair / query
  seconds from ``phase_breakdown``) and the drift and decision keys of
  one metrics-on replay against the metrics-off one.  Set-up and the
  VM-pool warm stay outside every timed window, and no recorder rides
  inside one;
- ``sweep_slice_s`` / ``sweep_serial_s``: a small ``run_sweep`` slice with
  ``workers=4`` (fork pool warmed outside the timed window) vs serial;
  the speedup needs a multi-core runner.

Results go to ``BENCH_perf_core.json`` under ``"latest"``; the frozen
``"seed"`` entry keeps the pre-refactor numbers (for the online traces
and the sweep, the full-rebuild / serial timings recorded when the
incremental paths landed).  The bench never fails on timings: it
prints every check of :func:`_anchors` as a ``shape_check`` line.
``SOF_PERF_STRICT=1`` makes the correctness anchors among them hard
failures, and a measured key set that differs from the committed
``latest`` entry's fails too.
"""

from __future__ import annotations

import gc
import json
import os
import random
import statistics
import time
from collections import namedtuple
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Tuple

from _util import shape_check

from repro.core.problem import ServiceChain
from repro.core.sofda import sofda
from repro.experiments import run_sweep
from repro.graph import FrozenOracle, Graph, kernel
from repro.graph.graph import edge_sort_key
from repro.graph.rowcache import row_nbytes
from repro.graph.shortest_paths import dijkstra
from repro.obs import MetricsRegistry, Recorder, phase_breakdown
from repro.online import OnlineSimulator, RequestGenerator
from repro.topology import inet_network, softlayer_network
from repro.topology.network import CloudNetwork
from repro.workload import (
    BackgroundChurn,
    ExponentialHolding,
    LinkFailureProcess,
    PoissonArrivals,
    WorkloadEngine,
    WorkloadEvent,
    build_schedule,
)

RESULTS_PATH = Path(__file__).resolve().parents[1] / "BENCH_perf_core.json"


def _strict() -> bool:
    """Whether correctness anchors are hard failures (CI perf-smoke)."""
    return os.environ.get("SOF_PERF_STRICT", "0") == "1"


def _largest_table1_instance():
    network = inet_network(
        num_nodes=5000, num_links=10000, num_datacenters=2000, seed=0
    )
    return network.make_instance(
        num_sources=26,
        num_destinations=6,
        num_vms=25,
        chain=ServiceChain.of_length(3),
        seed=0 + 5000 + 26,
    )


# ----------------------------------------------------------------------
# Topologies and event feeds of the traces
# ----------------------------------------------------------------------
def _inet(nodes: int, datacenters: int) -> Callable[[], CloudNetwork]:
    """An Inet topology factory: ``2 * nodes`` links, seed 0."""
    return partial(
        inet_network, num_nodes=nodes, num_links=2 * nodes,
        num_datacenters=datacenters, seed=0,
    )


#: Dense-patch trace shape: pods (layered, chord-dense aggregation
#: subtrees) hang off one hub by a single uplink each, so every churned
#: uplink is a tree edge in *every* cached row -- the dense-patch case,
#: where every patch repairs the whole cache.  Pod nodes keep degree >= 3
#: so degree-2 chain contraction stays out of the picture.
_DENSE_PODS = 40
_DENSE_POD_WIDTH = 4
_DENSE_POD_LEVELS = 3
_DENSE_DCS = 120
_DENSE_REQUESTS = 3
_DENSE_CHURN_ROUNDS = 45
_DENSE_CHURN_LINKS = 4


def _dense_patch_network():
    """Hub-and-pods access topology with single-uplink aggregation pods."""
    graph = Graph()
    graph.add_node("hub")
    dcs = []
    for j in range(_DENSE_DCS):
        dc = ("dc", j)
        graph.add_edge("hub", dc, 1.0)
        dcs.append(dc)
    for i in range(_DENSE_PODS):
        gateway = ("gw", i)
        graph.add_edge("hub", gateway, 1.0)
        prev_level = [gateway]
        for k in range(_DENSE_POD_LEVELS):
            level = [("pod", i, k, w) for w in range(_DENSE_POD_WIDTH)]
            for node in level:
                for prev in prev_level:
                    graph.add_edge(node, prev, 1.0)
            prev_level = level
    return CloudNetwork(name="dense-pods", graph=graph, datacenters=dcs)


def _requests(network, count, destinations, sources, chain_length=3):
    """``count`` seed-0 requests."""
    return RequestGenerator(
        network, seed=0, destinations_range=destinations,
        sources_range=sources, chain_length=chain_length,
    ).take(count)


def _dense_feed(network, simulator):
    """Standing pod loads, then the dense trace's requests, each after
    the first preceded by its background rounds.

    Pod internals carry distinct standing loads (heterogeneous
    steady-state utilisation), so shortest-path trees are unique.  Each
    round re-prices a rotating handful of pod uplinks, hot shared links
    that are tree edges in every one of the ~600 cached VM-pool rows.
    """
    rng = random.Random(7)
    pod_internals = sorted(
        ((u, v) for u, v, _ in network.graph.edges() if "hub" not in (u, v)),
        key=repr,
    )
    for u, v in pod_internals:
        simulator.tracker.add_link_load(u, v, 1.0 + rng.random())
    requests = _requests(network, _DENSE_REQUESTS, (2, 3), (1, 1), 1)
    uplinks = [("hub", ("gw", i)) for i in range(_DENSE_PODS)]
    steps = [requests[0]]
    tick = 0
    for request in requests[1:]:
        for _ in range(_DENSE_CHURN_ROUNDS):
            batch = [
                uplinks[(tick + j * 7) % len(uplinks)]
                for j in range(_DENSE_CHURN_LINKS)
            ]
            tick += 1
            steps.append((batch, 0.5))
        steps.append(request)
    return steps


def _schedule(network, rate, hold, horizon, destinations, sources,
              churned=0, batches=1, failures=None):
    """One embedder-independent schedule (pure function of seeds):
    Poisson arrivals with exponential holds, background ticks
    re-pricing the first ``churned`` links in ``batches`` rotating
    batches, and ``failures``' link events."""
    generator = RequestGenerator(
        network, seed=0, destinations_range=destinations,
        sources_range=sources,
    )
    background = None
    if churned:
        links = sorted(
            ((u, v) for u, v, _ in network.graph.edges()), key=edge_sort_key
        )[:churned]
        rotation = tuple(tuple(links[i::batches]) for i in range(batches))
        background = BackgroundChurn(
            period=1.0, link_batches=rotation, demand_mbps=2.0
        )
    return build_schedule(
        PoissonArrivals(generator, rate=rate, seed=1), horizon=horizon,
        holding=ExponentialHolding(mean=hold, seed=2),
        background=background, failures=failures,
    )


def _failure_feed(network, simulator):
    """The churn arrival stream with a seeded MTBF/MTTR renewal process
    over 32 datacenter-incident links in place of background ticks.

    The low-id edges sit on the Inet seed-triangle hubs and appear in
    nearly every row's shortest-path tree (every failure a worst-case
    whole-graph repair region), while uniformly sampled edges are almost
    never carried by a lease (paths ride the hubs), so neither extreme
    exercises mass rerouting.  Datacenter-incident links are on tenants'
    first/last hops but in few rows' trees: crossing leases with
    representative repair regions.
    """
    datacenters = set(network.datacenters)
    links = sorted(
        ((u, v) for u, v, _ in network.graph.edges()
         if u in datacenters or v in datacenters),
        key=edge_sort_key,
    )
    failures = LinkFailureProcess(
        random.Random(6).sample(links, 32), mtbf=25.0, mttr=1.0, seed=3
    )
    schedule = _schedule(network, 0.9, 3.0, 10.0, (3, 4), (2, 2),
                         failures=failures)
    assert any(event.kind == "fail" for event in schedule)
    return schedule


#: The 50k-node budget trace's VM pool: 6 data centers of 4 VMs, whose
#: rows alone hold ~20 MB of label buffers unbounded.
_BUDGET_NODES = 50000
_BUDGET_VMS = 6 * 4
_BUDGET_BYTES = _BUDGET_VMS * row_nbytes(_BUDGET_NODES + _BUDGET_VMS)


def _budget_keys(candidate, reference):
    """The budget trace's residency keys: the candidate must stay under
    its byte budget between events (zero enforcement overshoots) and
    actually evict."""
    stats = candidate.cache
    return {
        "nodes": _BUDGET_NODES,
        "bytes": stats["budget_bytes"],
        "resident_bytes": stats["total_bytes"],
        "peak_bytes": stats["peak_bytes"],
        "unbounded_peak_bytes": reference.cache["peak_bytes"],
        "evictions": stats["evictions"],
        "overshoots": stats["overshoots"],
        "under_budget": (
            stats["total_bytes"] <= stats["budget_bytes"]
            and stats["overshoots"] == 0
        ),
    }


class Trace(NamedTuple):
    """One row of :data:`TRACES`.

    ``feed(network, simulator)`` returns a request list (requests and
    ``(links, demand_mbps)`` background rounds, in order) or a
    :class:`WorkloadEngine` schedule.  ``candidate`` holds the timed
    replay's ``OnlineSimulator`` options, ``reference`` the ``(name,
    options)`` of the replay it must equal; each of ``rounds`` rounds
    replays both, and the best time counts.  The ``warm`` leading
    requests embed before the timed window; a ``metered`` row adds one
    metrics-on replay; ``speedup`` is the informational bound over the
    reference; ``extra(candidate, reference)`` adds trace-specific keys.
    """

    prefix: str
    network: Callable[[], CloudNetwork]
    vms: int  # per data center
    feed: Callable
    candidate: dict
    reference: Optional[Tuple[str, dict]] = None
    rounds: int = 1
    warm: int = 0
    metered: bool = False
    speedup: Optional[float] = None
    extra: Optional[Callable] = None


_INVALIDATE = ("invalidate", {"incremental": False})

TRACES = (
    # 12 Fig.-12-style requests on a 5000-node Inet; each re-sweeps a
    # 200-VM pool over live costs, the row-reuse case the incremental
    # patch exists for.  Reference: invalidate-and-rebuild per change.
    Trace("online_trace", _inet(5000, 40), 5,
          lambda network, _: _requests(network, 12, (4, 5), (2, 3)),
          {}, _INVALIDATE, speedup=2.0,
          extra=lambda c, r: {"rebuild_cost": sum(r.costs)}),
    # 4 light requests against a 1250-VM pool: every patch repairs a
    # ~1250-row cache, so the repair engine, not the embedder, dominates.
    Trace("online_many_rows", _inet(5000, 250), 5,
          lambda network, _: _requests(network, 4, (2, 3), (1, 1), 1),
          {}, rounds=2, metered=True),
    # Hub-and-pods topology whose churned uplinks sit in every cached
    # row's tree: every patch repairs every row, each in one compiled
    # call.  The first request warms the cache outside the window.
    Trace("online_dense_patch", _dense_patch_network, 5, _dense_feed, {},
          rounds=2, warm=1),
    # Tenant churn on a 2500-node Inet (200-VM pool): ~10 time units of
    # arrivals whose departures make the syncs carry decrease batches,
    # plus background ticks re-pricing 24 links in 6 rotating batches.
    Trace("online_churn", _inet(2500, 40), 5,
          lambda network, _: _schedule(network, 0.9, 3.0, 10.0, (3, 4),
                                       (2, 2), churned=24, batches=6),
          {}, _INVALIDATE, rounds=2, metered=True, speedup=1.2),
    # The churn arrivals with link failures: each failure a
    # ``patch_topology`` tombstone repair, crossing tenants rerouted or
    # released as disrupted, each recovery a decrease-from-infinity.
    Trace("online_failures", _inet(2500, 40), 5, _failure_feed, {},
          _INVALIDATE, rounds=2, speedup=1.2,
          extra=lambda c, r: {
              k: c.decisions[k] for k in ("rerouted", "disrupted")
          }),
    # A 50k-node Inet churn trace with row-cache residency budgeted to
    # exactly the VM-pool rows: every request's working-set rows
    # overflow the budget and are evicted after serving, and recompute
    # to identical labels on the next touch.
    Trace("online_budget", _inet(_BUDGET_NODES, 6), 4,
          lambda network, _: _schedule(network, 0.8, 2.0, 4.0, (2, 3),
                                       (1, 1), churned=12, batches=3),
          {"row_budget_bytes": _BUDGET_BYTES}, ("unbounded", {}),
          extra=_budget_keys),
)


# ----------------------------------------------------------------------
# Replays
# ----------------------------------------------------------------------
Replay = namedtuple("Replay", "costs decisions seconds cache")


def _embed(instance):
    return sofda(instance).forest


def _replay(trace: Trace, options: dict) -> Replay:
    """Replay ``trace``'s feed through a fresh simulator with ``options``.

    Topology, simulator and feed are built, and the VM pool warmed --
    by a zero-demand background tick for a schedule, by the row's
    ``warm`` leading requests for a request list -- before the timed
    window.  Every request must embed.  ``decisions`` (departures,
    reroutes and disruptions) is ``None`` for a request list; ``cache``
    is the simulator's end-of-run cache snapshot.
    """
    network = trace.network()
    simulator = OnlineSimulator(
        network, vms_per_datacenter=trace.vms, **options
    )
    feed = trace.feed(network, simulator)
    decisions = None
    if isinstance(feed[0], WorkloadEvent):
        engine = WorkloadEngine(simulator, _embed)
        simulator.apply_background_load((), 0.0)  # warm the pool rows
        gc.collect()  # the timed window should not pay for earlier sections
        start = time.perf_counter()
        result = engine.run(feed)
        seconds = time.perf_counter() - start
        costs = result.per_request_cost
        decisions = {
            "departures": result.departures,
            "rerouted": result.rerouted,
            "disrupted": result.disrupted,
        }
        assert (
            result.departures + result.disrupted == result.accepted
            and result.recoveries == result.failures
        ), f"{trace.prefix} must drain every tenant and recover every link"
    else:
        costs = [simulator.embed(r, _embed) for r in feed[:trace.warm]]
        gc.collect()  # the timed window should not pay for earlier sections
        start = time.perf_counter()
        for step in feed[trace.warm:]:
            if isinstance(step, tuple):
                simulator.apply_background_load(*step)
            else:
                costs.append(simulator.embed(step, _embed))
        seconds = time.perf_counter() - start
    rejected = [i for i, cost in enumerate(costs) if cost is None]
    assert not rejected, (
        f"{trace.prefix} requests {rejected} were rejected ({options}); "
        "the trace must embed every request"
    )
    return Replay(costs, decisions, seconds, simulator.cache_snapshot())


def _agree(candidate: Replay, reference: Replay, drift: str, decisions: str):
    """Yield ``(drift, largest per-request cost gap)`` and, when the
    replays carry decisions, ``(decisions, whether they are equal)``;
    both accepted every request."""
    yield drift, max(
        abs(a - b) for a, b in zip(candidate.costs, reference.costs)
    )
    if candidate.decisions is not None:
        yield decisions, candidate.decisions == reference.decisions


def _measure(trace: Trace) -> dict:
    """Replay one :data:`TRACES` row; returns its keys.

    Each round replays the reference, then the candidate; the outputs
    come from the last round, each time from the best round.
    """
    p = trace.prefix
    runs = [("candidate", trace.candidate)]
    if trace.reference:
        runs.insert(0, trace.reference)
    replays, seconds = {}, {}
    for _ in range(trace.rounds):
        for name, options in runs:
            replays[name] = replay = _replay(trace, options)
            seconds[name] = min(seconds.get(name, replay.seconds),
                                replay.seconds)
    candidate = replays["candidate"]
    out = {
        f"{p}_s": round(seconds["candidate"], 4),
        f"{p}_cost": sum(candidate.costs),
    }
    reference = None
    if trace.reference:
        name = trace.reference[0]
        reference = replays[name]
        out[f"{p}_{name}_s"] = round(seconds[name], 4)
        out.update(_agree(candidate, reference, f"{p}_max_request_drift",
                          f"{p}_decisions_match"))
    if trace.extra:
        extra = trace.extra(candidate, reference)
        out.update((f"{p}_{k}", v) for k, v in extra.items())
    if trace.metered:
        recorder = Recorder(registry=MetricsRegistry())
        metered = _replay(trace, dict(trace.candidate, metrics=recorder))
        out[f"{p}_phases"] = {
            k: round(v, 4)
            for k, v in phase_breakdown(recorder.snapshot()).items()
        }
        out.update(_agree(metered, candidate, f"{p}_metrics_drift",
                          f"{p}_metrics_decisions_match"))
    return out


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------
def _run_sweep_slice(network, workers: int):
    """One tracked sweep slice; returns ``(result, elapsed_seconds)``.

    Large enough (12 cells, near-default instance shapes) that per-cell
    work amortizes fork-pool startup on a multi-core runner.
    """
    if workers > 1:
        kernel.warm_fork(workers)
    start = time.perf_counter()
    result = run_sweep(
        network, "num_vms", [5, 15, 25], seeds=4,
        overrides={"num_sources": 6, "num_destinations": 4,
                   "chain_length": 3},
        workers=workers,
    )
    return result, time.perf_counter() - start


def _dict_dijkstra_ms(instance) -> float:
    """The control: ms per dict Dijkstra on ``instance``'s graph.

    One untimed warm-up pass over 8 sources, then the median of 5 timed
    passes, so neither a cold start nor one noisy pass sets it.
    """
    graph = instance.graph
    sources = sorted(instance.sources, key=repr)[:8]
    for s in sources:
        dijkstra(graph, s)
    passes = []
    for _ in range(5):
        start = time.perf_counter()
        for s in sources:
            dijkstra(graph, s)
        passes.append((time.perf_counter() - start) / len(sources) * 1000.0)
    return statistics.median(passes)


def run_perf_core() -> dict:
    """Measure the tracked core timings; returns a plain dict."""
    instance = _largest_table1_instance()
    graph = instance.graph
    sources = sorted(instance.sources, key=repr)[:8]
    dict_ms = _dict_dijkstra_ms(instance)

    oracle = FrozenOracle(
        graph, hot=instance.vms | instance.sources | instance.destinations
    )
    oracle.distance(sources[0], sources[1])  # force the core build
    start = time.perf_counter()
    oracle.prefetch_rows(sorted(instance.vms, key=repr)[:8])
    row_ms = (time.perf_counter() - start) / 8 * 1000.0

    # Best of three: single-run wall clock on a shared machine is noisy,
    # and the minimum is the standard low-variance timing estimator.
    sofda_s = float("inf")
    for _ in range(3):
        fresh = _largest_table1_instance()
        start = time.perf_counter()
        result = sofda(fresh)
        sofda_s = min(sofda_s, time.perf_counter() - start)
    sofda_cost = result.cost

    # Drop the Table-I instances (graphs, warmed oracle rows, forests)
    # before the trace sections: a large standing heap taxes every GC
    # pass inside the allocation-heavy traces and blurs their ratios.
    del instance, graph, oracle, fresh, result

    traces = {}
    for trace in TRACES:
        traces.update(_measure(trace))

    sweep_network = softlayer_network(seed=1)
    sweep_serial, sweep_serial_s = _run_sweep_slice(sweep_network, workers=1)
    sweep_pooled, sweep_pooled_s = _run_sweep_slice(sweep_network, workers=4)

    # The control again, after the traces: how far the machine drifted
    # during the run.
    dict_end_ms = _dict_dijkstra_ms(_largest_table1_instance())

    return {
        "dict_dijkstra_ms": round(dict_ms, 3),
        "dict_dijkstra_end_ms": round(dict_end_ms, 3),
        "oracle_row_ms": round(row_ms, 3),
        "sofda_largest_s": round(sofda_s, 4),
        "sofda_largest_cost": sofda_cost,
        **traces,
        "sweep_slice_s": round(sweep_pooled_s, 4),
        "sweep_serial_s": round(sweep_serial_s, 4),
        "sweep_outputs_match": (
            sweep_pooled.mean_cost == sweep_serial.mean_cost
            and sweep_pooled.mean_vms_used == sweep_serial.mean_vms_used
        ),
    }


def _anchors(measured: dict, seed: dict):
    """Every check the bench prints, as ``(label, holds, strict)``.

    Strict anchors are correctness: a cost against its committed
    ``seed`` baseline, or two replays that must agree exactly.  The
    others (speed, eviction) are informational.
    """
    def baseline(key, tolerance):
        return key not in seed or abs(measured[key] - seed[key]) <= tolerance

    def exact(drift, decisions):
        return measured[drift] == 0.0 and measured.get(decisions, True)

    anchors = [
        # Hash-ordered summation wobbles the last ulp (seed does too).
        ("forest cost unchanged on the seeded largest cell",
         baseline("sofda_largest_cost", 1e-9), True),
        ("largest Table-I cell at least 3x faster than seed",
         not seed.get("sofda_largest_s")
         or measured["sofda_largest_s"] * 3 <= seed["sofda_largest_s"],
         False),
    ]
    for trace in TRACES:
        p = trace.prefix
        if trace.reference:
            # Repaired rows and recomputed evicted rows serve the
            # reference's labels and, on these continuous costs, its
            # unique shortest-path trees: not even an ulp of drift.
            name = trace.reference[0]
            anchors.append((
                f"{p}: candidate == {name} reference, drift exactly 0.0 "
                "and identical decisions",
                exact(f"{p}_max_request_drift", f"{p}_decisions_match"),
                True,
            ))
            if trace.speedup:
                fast = measured[f"{p}_s"] * trace.speedup
                anchors.append((f"{p}: at least {trace.speedup:g}x faster "
                                f"than the {name} reference",
                                fast <= measured[f"{p}_{name}_s"], False))
        if f"{p}_cost" in seed:
            anchors.append((f"{p}: cost matches committed baseline",
                            baseline(f"{p}_cost", 1e-6), True))
    anchors += [
        # The recorder only observes (one falsy check per seam when off).
        ("metrics-on replays: drift exactly 0.0 and identical decisions "
         "vs metrics-off",
         all(exact(f"{t.prefix}_metrics_drift",
                   f"{t.prefix}_metrics_decisions_match")
             for t in TRACES if t.metered),
         True),
        ("online_budget: resident rows never exceed the byte budget",
         measured["online_budget_under_budget"], True),
        ("online_budget: the budget actually bound (evictions occurred)",
         measured["online_budget_evictions"] > 0, False),
        ("pooled sweep output identical to serial",
         measured["sweep_outputs_match"], True),
        ("pooled sweep at least 2x faster than serial (multi-core runners)",
         measured["sweep_slice_s"] * 2 <= measured["sweep_serial_s"], False),
    ]
    return anchors


def test_perf_core(once):
    measured = once(run_perf_core)

    record = {}
    if RESULTS_PATH.exists():
        record = json.loads(RESULTS_PATH.read_text())
    if _strict() and "latest" in record:
        # A dropped or renamed key must not pass silently.
        committed = set(record["latest"])
        assert set(measured) == committed, (
            f"measured keys differ from the committed latest entry: "
            f"missing {sorted(committed - set(measured))}, "
            f"new {sorted(set(measured) - committed)}"
        )
    record["latest"] = measured
    RESULTS_PATH.write_text(json.dumps(record, indent=2) + "\n")

    seed = record.get("seed", {})
    print("\nPerf core -- seed vs latest")
    timed = ["dict_dijkstra_ms", "dict_dijkstra_end_ms", "oracle_row_ms",
             "sofda_largest_s", "sweep_slice_s"]
    for key in timed + [f"{trace.prefix}_s" for trace in TRACES]:
        before, after = seed.get(key), measured[key]
        ratio = f"  ({before / after:.2f}x)" if before else ""
        print(f"  {key:>20}: {before} -> {after}{ratio}")
    for p in [trace.prefix for trace in TRACES] + ["sweep"]:
        print(f"  {p}: " + ", ".join(
            f"{key[len(p) + 1:]}={value}"
            for key, value in measured.items() if key.startswith(p + "_")
        ))

    anchors = _anchors(measured, seed)
    for label, ok, _ in anchors:
        shape_check(label, ok)
    if _strict():
        broken = [label for label, ok, strict in anchors if strict and not ok]
        assert not broken, f"correctness anchors broke: {broken}"
