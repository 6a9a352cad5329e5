"""Perf micro-benchmark for the indexed graph core and the SOFDA pipeline.

Unlike the figure/table benches (which reproduce the paper), this one
tracks the *repo's own* performance trajectory.  It measures:

- ``dict_dijkstra_ms`` / ``dict_dijkstra_end_ms``: the reference
  dict-based Dijkstra on the largest Table-I instance graph (|V| = 5000,
  2|V| links, VMs attached), the control every ratio is read against:
  one untimed warm-up pass of 8 searches, then the median of 5 timed
  passes, measured before the traces and again after them;
- ``oracle_row_ms``: one shared-oracle row on the same graph (contracted
  core + array heap);
- ``sofda_largest_s``: a full SOFDA run on the Table-I (5000, 26) cell --
  the acceptance metric for the indexed-core PR;
- ``online_trace_s`` / ``online_trace_invalidate_s``: a 12-request online
  trace (Fig.-12 style, 5000-node Inet topology) replayed through the
  incremental ``patch_edge_costs`` path and the historical full-rebuild
  path -- the acceptance metric for the incremental-invalidation PR;
- ``online_many_rows_s``: a many-cached-rows online trace (1250-VM
  pool, light requests) where every patch repairs a ~1250-row cache --
  the case the cross-row patch planner exists for;
- ``online_dense_patch_s``: a dense-patch online trace (hub-and-pods
  topology whose hot uplinks sit in *every* cached row's shortest-path
  tree; background churn re-prices a few uplinks between embeddings) --
  every patch repairs every cached row;
- ``online_churn_s`` / ``online_churn_invalidate_s``: a tenant-churn
  workload (Poisson arrivals, exponential holding-time departures,
  periodic background ticks -- the :mod:`repro.workload` engine) replayed
  through the incremental patch path and the full-rebuild path -- the
  acceptance metric for the workload-engine PR.  Departures release
  leases, so the syncs carry *decrease* batches (the repair engine's
  decrease pass) that no arrivals-only trace produces;
- ``online_failures_s`` / ``online_failures_invalidate_s``: the churn
  workload with a seeded MTBF/MTTR link-failure process interleaved --
  the acceptance metric for the link-failure PR.  Each failure reaches
  the oracle as a ``patch_topology`` tombstone repair (versus a full
  invalidate in the reference), crossing tenants are mass-rerouted or
  released as disrupted, and each recovery is a decrease-from-infinity
  reinsert;
- ``online_budget_s`` / ``online_budget_unbounded_s``: a 50k-node Inet
  churn trace replayed with the oracle's row-cache residency budgeted to
  exactly the VM-pool rows (``row_budget_bytes``, the RowCache layer)
  versus unbounded -- the acceptance metric for the memory-bounded-scale
  PR.  The budgeted run must stay under its byte budget between events
  (zero enforcement overshoots), actually evict (the budget binds), and
  still match the unbounded reference bit-for-bit: drift exactly 0.0 and
  identical acceptance decisions, because evicted rows recompute to
  identical labels;
- ``online_churn_phases`` / ``online_many_rows_phases``: per-phase
  attribution (build / repair / query seconds, via the
  :mod:`repro.obs` registry's ``phase_breakdown``) from one metrics-on
  replay of each tracked trace.  The recorder never rides inside a timed
  window -- the strict anchors stay metrics-off -- and the metered
  replays double as the observability layer's bit-identical check
  (``online_churn_metrics_drift`` / ``online_many_rows_metrics_drift``
  must be exactly 0.0 with identical acceptance decisions);
- ``sweep_slice_s`` / ``sweep_serial_s``: a small ``run_sweep`` slice with
  ``workers=4`` vs serial (speedup needs a multi-core runner; single-core
  CI only checks the outputs match).  Worker-pool spawn is warmed
  outside the timed window (``kernel.warm_fork``), the same way topology
  generation is excluded.

Results are appended to ``BENCH_perf_core.json`` under the ``"latest"``
key; the checked-in ``"seed"`` entry preserves the pre-refactor numbers so
the speedup stays visible (the online-trace and sweep seeds are the
full-rebuild / serial timings recorded when the incremental paths landed).
The bench never fails on timings (CI runs it as a smoke test); it prints
the measured ratios instead.  Set ``SOF_PERF_STRICT=1`` to make the
*correctness* anchors hard failures: the largest-cell forest cost and
the online, many-rows, dense-patch, churn and failure trace costs must
match the committed baselines, the churn trace's incremental run must
stay bit-identical (costs *and* acceptance decisions) to the
full-invalidate reference across its decrease batches, and the failure
trace's topology patches must stay bit-identical (costs, acceptances,
reroutes, *and* disruptions) to the same reference, and the
budgeted 50k-node churn trace must stay under its
row-cache byte budget with drift exactly 0.0 and identical acceptance
decisions versus the unbounded reference.
"""

from __future__ import annotations

import gc
import json
import os
import random
import statistics
import time
from pathlib import Path

from _util import shape_check

from repro.core.problem import ServiceChain
from repro.core.sofda import sofda
from repro.experiments import run_sweep
from repro.graph import FrozenOracle, Graph, kernel
from repro.graph.graph import edge_sort_key
from repro.graph.shortest_paths import dijkstra
from repro.online import OnlineSimulator, RequestGenerator
from repro.topology import inet_network, softlayer_network
from repro.topology.network import CloudNetwork

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


def _run_online_trace(incremental: bool):
    """Replay 12 SOFDA requests on a 5000-node topology.

    The paper's online setup: 5 VMs per data center, so each request
    re-sweeps a 200-VM pool over live costs -- the row-reuse case the
    incremental patch exists for.  Topology generation and simulator
    construction happen outside the timed window: only the request loop
    (the part the patch-vs-invalidate choice affects) is measured.
    Returns ``(costs, elapsed_seconds)``.
    """
    network = inet_network(
        num_nodes=5000, num_links=10000, num_datacenters=40, seed=0
    )
    simulator = OnlineSimulator(
        network, vms_per_datacenter=5, incremental=incremental
    )
    generator = RequestGenerator(
        network, seed=0, destinations_range=(4, 5), sources_range=(2, 3)
    )
    requests = generator.take(12)
    gc.collect()  # the timed window should not pay for earlier sections
    start = time.perf_counter()
    costs = [
        simulator.embed(request, lambda inst: sofda(inst).forest)
        for request in requests
    ]
    elapsed = time.perf_counter() - start
    rejected = [i for i, cost in enumerate(costs) if cost is None]
    assert not rejected, (
        f"online-trace requests {rejected} were rejected "
        f"(incremental={incremental}); the trace must embed all 12"
    )
    return costs, elapsed


def _run_many_rows_trace(metrics=None):
    """Replay 4 light requests against a 1250-VM pool.

    The many-cached-rows case the patch planner exists for: every request
    warms one row per VM (the Procedure-1 sweep), so each patch repairs a
    ~1250-row cache.  Requests are deliberately light (1 source, 2-3
    destinations, 1 service) so the repair engine -- not the embedder --
    dominates the loop.  Setup stays outside the timed window.  Returns
    ``(costs, elapsed_seconds)``.
    """
    network = inet_network(
        num_nodes=5000, num_links=10000, num_datacenters=250, seed=0
    )
    simulator = OnlineSimulator(
        network, vms_per_datacenter=5, incremental=True, metrics=metrics,
    )
    generator = RequestGenerator(
        network, seed=0, destinations_range=(2, 3), sources_range=(1, 1),
        chain_length=1,
    )
    requests = generator.take(4)
    gc.collect()  # the timed window should not pay for earlier sections
    start = time.perf_counter()
    costs = [
        simulator.embed(request, lambda inst: sofda(inst).forest)
        for request in requests
    ]
    elapsed = time.perf_counter() - start
    rejected = [i for i, cost in enumerate(costs) if cost is None]
    assert not rejected, (
        f"many-rows trace requests {rejected} were rejected; "
        "the trace must embed all 4"
    )
    return costs, elapsed


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


def _run_dense_patch_trace():
    """Replay a churn-heavy online trace over the hub-and-pods topology.

    Between embeddings, background (cross-tenant) load keeps re-pricing a
    rotating handful of pod uplinks -- hot shared links that are tree
    edges in every one of the ~600 cached VM-pool rows, so every patch
    repairs the whole cache and the repair engine dominates the loop.
    Each row repairs its detached pod regions in one compiled call.  Pod
    internals carry distinct standing loads (heterogeneous steady-state
    utilisation), so shortest-path trees are unique.  Setup, the
    standing-load assignment and the first (cache-warming) request stay
    outside the timed window.  Returns ``(costs, elapsed_seconds)``.
    """
    network = _dense_patch_network()
    simulator = OnlineSimulator(
        network, vms_per_datacenter=5, incremental=True,
    )
    rng = random.Random(7)
    pod_internals = sorted(
        (
            (u, v)
            for u, v, _ in network.graph.edges()
            if u != "hub" and v != "hub"
        ),
        key=repr,
    )
    for u, v in pod_internals:
        simulator.tracker.add_link_load(u, v, 1.0 + rng.random())
    generator = RequestGenerator(
        network, seed=0, destinations_range=(2, 3), sources_range=(1, 1),
        chain_length=1,
    )
    requests = generator.take(_DENSE_REQUESTS)
    uplinks = [("hub", ("gw", i)) for i in range(_DENSE_PODS)]
    costs = [simulator.embed(requests[0], lambda inst: sofda(inst).forest)]
    gc.collect()  # the timed window should not pay for earlier sections
    start = time.perf_counter()
    tick = 0
    for request in requests[1:]:
        for _ in range(_DENSE_CHURN_ROUNDS):
            batch = [
                uplinks[(tick + j * 7) % len(uplinks)]
                for j in range(_DENSE_CHURN_LINKS)
            ]
            tick += 1
            simulator.apply_background_load(batch, demand_mbps=0.5)
        costs.append(simulator.embed(request, lambda inst: sofda(inst).forest))
    elapsed = time.perf_counter() - start
    rejected = [i for i, cost in enumerate(costs) if cost is None]
    assert not rejected, (
        f"dense-patch trace requests {rejected} were rejected; "
        f"the trace must embed all {_DENSE_REQUESTS}"
    )
    return costs, elapsed


#: Churn trace shape: a mid-size Inet topology (200-VM pool) under ~10
#: time units of Poisson arrivals with exponential holds, so most
#: tenants depart inside the trace and every post-departure sync hands
#: the oracle a decrease-carrying batch.  Background ticks keep
#: re-pricing a rotating link set between arrivals.
_CHURN_NODES = 2500
_CHURN_LINKS = 5000
_CHURN_DCS = 40
_CHURN_HORIZON = 10.0
_CHURN_RATE = 0.9
_CHURN_HOLD_MEAN = 3.0


def _churn_network():
    return inet_network(
        num_nodes=_CHURN_NODES, num_links=_CHURN_LINKS,
        num_datacenters=_CHURN_DCS, seed=0,
    )


def _churn_schedule(network):
    """One embedder-independent churn schedule (pure function of seeds)."""
    from repro.online import RequestGenerator as _RequestGenerator
    from repro.workload import (
        BackgroundChurn,
        ExponentialHolding,
        PoissonArrivals,
        build_schedule,
    )

    generator = _RequestGenerator(
        network, seed=0, destinations_range=(3, 4), sources_range=(2, 2)
    )
    process = PoissonArrivals(generator, rate=_CHURN_RATE, seed=1)
    holding = ExponentialHolding(mean=_CHURN_HOLD_MEAN, seed=2)
    links = sorted(
        ((u, v) for u, v, _ in network.graph.edges()), key=edge_sort_key
    )[:24]
    background = BackgroundChurn(
        period=1.0,
        link_batches=tuple(tuple(links[i::6]) for i in range(6)),
        demand_mbps=2.0,
    )
    return build_schedule(
        process, horizon=_CHURN_HORIZON, holding=holding,
        background=background,
    )


def _run_churn_trace(incremental: bool, metrics=None):
    """Replay the tenant-churn workload through one oracle mode.

    Setup (topology, simulator, schedule build) and the cold VM-pool row
    build (a zero-demand background tick warms all 200 rows) stay
    outside the timed window: only the event loop -- arrivals,
    departures releasing leases, background re-pricing -- is measured.
    Returns ``(ChurnResult, elapsed_seconds)``.
    """
    from repro.workload import WorkloadEngine

    network = _churn_network()
    simulator = OnlineSimulator(
        network, vms_per_datacenter=5, incremental=incremental,
        metrics=metrics,
    )
    schedule = _churn_schedule(network)
    engine = WorkloadEngine(simulator, lambda inst: sofda(inst).forest)
    simulator.apply_background_load((), 0.0)  # warm the pool rows
    gc.collect()  # the timed window should not pay for earlier sections
    start = time.perf_counter()
    result = engine.run(schedule)
    elapsed = time.perf_counter() - start
    assert result.rejected == 0, (
        f"churn trace rejected {result.rejected} requests "
        f"(incremental={incremental}); the trace must embed every arrival"
    )
    assert result.departures == result.accepted and result.final_active == 0, (
        "churn trace must drain every tenant (departures == arrivals)"
    )
    return result, elapsed


#: Failure trace shape: the churn topology and arrival stream with a
#: seeded MTBF/MTTR renewal process over 32 physical links interleaved.
#: Each failure tombstones an edge (incremental) or forces a full
#: invalidate (reference); each recovery is a decrease-from-infinity.
#: Crossing tenants are mass-rerouted or released, so the trace tracks
#: availability decisions alongside acceptance.
_FAILURE_LINKS = 32
_FAILURE_MTBF = 25.0
_FAILURE_MTTR = 1.0


def _failure_schedule(network):
    """One embedder-independent failure schedule (pure function of seeds)."""
    from repro.online import RequestGenerator as _RequestGenerator
    from repro.workload import (
        ExponentialHolding,
        LinkFailureProcess,
        PoissonArrivals,
        build_schedule,
    )

    generator = _RequestGenerator(
        network, seed=0, destinations_range=(3, 4), sources_range=(2, 2)
    )
    process = PoissonArrivals(generator, rate=_CHURN_RATE, seed=1)
    holding = ExponentialHolding(mean=_CHURN_HOLD_MEAN, seed=2)
    # Seeded sample over the datacenter-incident edges.  The low-id
    # edges sit on the Inet seed-triangle hubs and appear in nearly
    # every row's shortest-path tree (every failure a worst-case
    # whole-graph repair region), while uniformly sampled edges are
    # almost never carried by a lease (paths ride the hubs), so neither
    # extreme exercises mass rerouting.  Datacenter-incident links are
    # on tenants' first/last hops but in few rows' trees: crossing
    # leases with representative repair regions.
    datacenters = set(network.datacenters)
    links = sorted(
        (
            (u, v)
            for u, v, _ in network.graph.edges()
            if u in datacenters or v in datacenters
        ),
        key=edge_sort_key,
    )
    links = random.Random(6).sample(links, _FAILURE_LINKS)
    failures = LinkFailureProcess(
        links, mtbf=_FAILURE_MTBF, mttr=_FAILURE_MTTR, seed=3
    )
    return build_schedule(
        process, horizon=_CHURN_HORIZON, holding=holding, failures=failures,
    )


def _run_failure_trace(incremental: bool):
    """Replay the failure-recovery workload through one oracle mode.

    Mirrors :func:`_run_churn_trace` (cold build outside the timed
    window) with link failures and recoveries interleaved into the
    churn: ``incremental=True`` absorbs each topology change as a
    :meth:`FrozenOracle.patch_topology` tombstone repair, the reference
    invalidates and rebuilds every cached row.  Returns
    ``(ChurnResult, elapsed_seconds)``.
    """
    from repro.workload import WorkloadEngine

    network = _churn_network()
    simulator = OnlineSimulator(
        network, vms_per_datacenter=5, incremental=incremental
    )
    schedule = _failure_schedule(network)
    engine = WorkloadEngine(simulator, lambda inst: sofda(inst).forest)
    simulator.apply_background_load((), 0.0)  # warm the pool rows
    gc.collect()  # the timed window should not pay for earlier sections
    start = time.perf_counter()
    result = engine.run(schedule)
    elapsed = time.perf_counter() - start
    assert result.failures > 0 and result.recoveries == result.failures, (
        f"failure trace must fail and recover links "
        f"(failures={result.failures}, recoveries={result.recoveries})"
    )
    return result, elapsed


#: Budgeted-churn trace shape: a 50k-node Inet topology (the scale
#: ceiling PR) whose unbounded VM-pool rows alone hold ~20 MB of label
#: buffers, replayed with the oracle's row-cache residency capped at
#: exactly the pool (``_BUDGET_ROWS`` rows).  Every request's working-set
#: rows then overflow the budget and are evicted after serving; evicted
#: rows recompute bit-identically on the next touch, so the budgeted
#: replay must match the unbounded reference in costs *and* acceptance
#: decisions while never holding more than the budget between events.
_BUDGET_NODES = 50000
_BUDGET_LINKS = 100000
_BUDGET_DCS = 6
_BUDGET_VMS_PER_DC = 4
_BUDGET_ROWS = _BUDGET_DCS * _BUDGET_VMS_PER_DC
_BUDGET_HORIZON = 4.0
_BUDGET_RATE = 0.8
_BUDGET_HOLD_MEAN = 2.0


def _budget_network():
    return inet_network(
        num_nodes=_BUDGET_NODES, num_links=_BUDGET_LINKS,
        num_datacenters=_BUDGET_DCS, seed=0,
    )


def _budget_row_bytes() -> int:
    """Budget for exactly the VM-pool rows (VM nodes join the graph)."""
    from repro.graph.rowcache import row_nbytes

    num_vms = _BUDGET_DCS * _BUDGET_VMS_PER_DC
    return _BUDGET_ROWS * row_nbytes(_BUDGET_NODES + num_vms)


def _budget_schedule(network):
    """One embedder-independent 50k-node schedule (pure function of seeds)."""
    from repro.online import RequestGenerator as _RequestGenerator
    from repro.workload import (
        BackgroundChurn,
        ExponentialHolding,
        PoissonArrivals,
        build_schedule,
    )

    generator = _RequestGenerator(
        network, seed=0, destinations_range=(2, 3), sources_range=(1, 1)
    )
    process = PoissonArrivals(generator, rate=_BUDGET_RATE, seed=1)
    holding = ExponentialHolding(mean=_BUDGET_HOLD_MEAN, seed=2)
    links = sorted(
        ((u, v) for u, v, _ in network.graph.edges()), key=edge_sort_key
    )[:12]
    background = BackgroundChurn(
        period=1.0,
        link_batches=tuple(tuple(links[i::3]) for i in range(3)),
        demand_mbps=2.0,
    )
    return build_schedule(
        process, horizon=_BUDGET_HORIZON, holding=holding,
        background=background,
    )


def _run_budget_trace(row_budget_bytes):
    """Replay the 50k-node churn workload under one residency budget.

    Mirrors :func:`_run_churn_trace` (topology, simulator, schedule and
    the VM-pool warm stay outside the timed window).
    ``row_budget_bytes=None`` is the unbounded reference.  Returns
    ``(ChurnResult, elapsed_seconds)``; ``ChurnResult.cache_stats``
    carries the oracle's end-of-run residency counters.
    """
    from repro.workload import WorkloadEngine

    network = _budget_network()
    simulator = OnlineSimulator(
        network, vms_per_datacenter=_BUDGET_VMS_PER_DC, incremental=True,
        row_budget_bytes=row_budget_bytes,
    )
    schedule = _budget_schedule(network)
    engine = WorkloadEngine(simulator, lambda inst: sofda(inst).forest)
    simulator.apply_background_load((), 0.0)  # warm the pool rows
    gc.collect()  # the timed window should not pay for earlier sections
    start = time.perf_counter()
    result = engine.run(schedule)
    elapsed = time.perf_counter() - start
    assert result.rejected == 0, (
        f"budget trace rejected {result.rejected} requests "
        f"(budget={row_budget_bytes}); the trace must embed every arrival"
    )
    return result, elapsed


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

    rebuild_costs, trace_invalidate_s = _run_online_trace(incremental=False)
    patch_costs, trace_patch_s = _run_online_trace(incremental=True)

    # Best of two: a single ~30 s run on a shared machine can absorb a
    # load spike.
    many_rows_serial_s = float("inf")
    for _ in range(2):
        serial_costs, elapsed = _run_many_rows_trace()
        many_rows_serial_s = min(many_rows_serial_s, elapsed)

    # Same best-of-two for the dense-patch trace.
    dense_serial_s = float("inf")
    for _ in range(2):
        dense_costs, elapsed = _run_dense_patch_trace()
        dense_serial_s = min(dense_serial_s, elapsed)

    # Interleaved best-of-two again for the churn incremental-vs-
    # invalidate ratio, the workload-engine acceptance metric.
    churn_invalidate_s = churn_patch_s = float("inf")
    for _ in range(2):
        churn_rebuild, elapsed = _run_churn_trace(incremental=False)
        churn_invalidate_s = min(churn_invalidate_s, elapsed)
        churn_patched, elapsed = _run_churn_trace(incremental=True)
        churn_patch_s = min(churn_patch_s, elapsed)

    # Interleaved best-of-two for the failure-recovery ratio: topology
    # tombstone patches versus invalidate-and-rebuild per link event.
    failures_invalidate_s = failures_patch_s = float("inf")
    for _ in range(2):
        failures_rebuild, elapsed = _run_failure_trace(incremental=False)
        failures_invalidate_s = min(failures_invalidate_s, elapsed)
        failures_patched, elapsed = _run_failure_trace(incremental=True)
        failures_patch_s = min(failures_patch_s, elapsed)

    # Per-phase attribution: one metrics-on pass per tracked trace.  The
    # recorder never rides inside the timed windows above (the strict
    # anchors stay metrics-off, so the zero-overhead-off invariant is
    # what the ratios measure); these passes feed the ``*_phases`` keys
    # and double as the observability layer's bit-identical check on
    # real traces.
    from repro.obs import MetricsRegistry, Recorder, phase_breakdown

    churn_recorder = Recorder(registry=MetricsRegistry())
    churn_metered, _ = _run_churn_trace(
        incremental=True, metrics=churn_recorder
    )
    many_rows_recorder = Recorder(registry=MetricsRegistry())
    metered_costs, _ = _run_many_rows_trace(metrics=many_rows_recorder)
    churn_phases = {
        k: round(v, 4)
        for k, v in phase_breakdown(churn_recorder.snapshot()).items()
    }
    many_rows_phases = {
        k: round(v, 4)
        for k, v in phase_breakdown(many_rows_recorder.snapshot()).items()
    }

    # Budgeted-vs-unbounded 50k-node churn: the memory-bounded-scale
    # acceptance metric.  One run each (the metric is bounded residency
    # with zero drift, not a speed ratio; the timings are informational).
    budget_bytes = _budget_row_bytes()
    budget_unbounded, budget_unbounded_s = _run_budget_trace(None)
    budget_bounded, budget_bounded_s = _run_budget_trace(budget_bytes)
    budget_stats = budget_bounded.cache_stats or {}

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
        "online_trace_s": round(trace_patch_s, 4),
        "online_trace_invalidate_s": round(trace_invalidate_s, 4),
        "online_trace_cost": sum(patch_costs),
        "online_trace_rebuild_cost": sum(rebuild_costs),
        "online_trace_max_request_drift": max(
            abs(a - b) for a, b in zip(patch_costs, rebuild_costs)
        ),
        "online_many_rows_s": round(many_rows_serial_s, 4),
        "online_many_rows_cost": sum(serial_costs),
        "online_dense_patch_s": round(dense_serial_s, 4),
        "online_dense_patch_cost": sum(dense_costs),
        "online_churn_s": round(churn_patch_s, 4),
        "online_churn_invalidate_s": round(churn_invalidate_s, 4),
        "online_churn_cost": churn_patched.total_cost,
        "online_churn_max_request_drift": max(
            abs(a - b)
            for a, b in zip(
                churn_patched.per_request_cost, churn_rebuild.per_request_cost
            )
        ),
        "online_churn_decisions_match": (
            [c is None for c in churn_patched.per_request_cost]
            == [c is None for c in churn_rebuild.per_request_cost]
            and churn_patched.departures == churn_rebuild.departures
        ),
        "online_failures_s": round(failures_patch_s, 4),
        "online_failures_invalidate_s": round(failures_invalidate_s, 4),
        "online_failures_cost": failures_patched.total_cost,
        "online_failures_max_request_drift": max(
            abs(a - b) if a is not None and b is not None else (
                0.0 if a is None and b is None else float("inf")
            )
            for a, b in zip(
                failures_patched.per_request_cost,
                failures_rebuild.per_request_cost,
            )
        ),
        "online_failures_decisions_match": (
            [c is None for c in failures_patched.per_request_cost]
            == [c is None for c in failures_rebuild.per_request_cost]
            and failures_patched.rerouted == failures_rebuild.rerouted
            and failures_patched.disrupted == failures_rebuild.disrupted
            and failures_patched.departures == failures_rebuild.departures
        ),
        "online_failures_rerouted": failures_patched.rerouted,
        "online_failures_disrupted": failures_patched.disrupted,
        "online_churn_phases": churn_phases,
        "online_many_rows_phases": many_rows_phases,
        "online_churn_metrics_drift": max(
            abs(a - b)
            for a, b in zip(
                churn_metered.per_request_cost, churn_patched.per_request_cost
            )
        ),
        "online_churn_metrics_decisions_match": (
            [c is None for c in churn_metered.per_request_cost]
            == [c is None for c in churn_patched.per_request_cost]
            and churn_metered.departures == churn_patched.departures
        ),
        "online_many_rows_metrics_drift": max(
            abs(a - b) for a, b in zip(metered_costs, serial_costs)
        ),
        "online_budget_s": round(budget_bounded_s, 4),
        "online_budget_unbounded_s": round(budget_unbounded_s, 4),
        "online_budget_nodes": _BUDGET_NODES,
        "online_budget_bytes": budget_bytes,
        "online_budget_resident_bytes": budget_stats.get("total_bytes", 0),
        "online_budget_peak_bytes": budget_stats.get("peak_bytes", 0),
        "online_budget_unbounded_peak_bytes": (
            (budget_unbounded.cache_stats or {}).get("peak_bytes", 0)
        ),
        "online_budget_evictions": budget_stats.get("evictions", 0),
        "online_budget_overshoots": budget_stats.get("overshoots", 0),
        "online_budget_cost": budget_bounded.total_cost,
        "online_budget_max_request_drift": max(
            abs(a - b) if a is not None and b is not None else (
                0.0 if a is None and b is None else float("inf")
            )
            for a, b in zip(
                budget_bounded.per_request_cost,
                budget_unbounded.per_request_cost,
            )
        ),
        "online_budget_decisions_match": (
            [c is None for c in budget_bounded.per_request_cost]
            == [c is None for c in budget_unbounded.per_request_cost]
            and budget_bounded.departures == budget_unbounded.departures
        ),
        "online_budget_under_budget": (
            budget_stats.get("total_bytes", 0) <= budget_bytes
            and budget_stats.get("overshoots", 1) == 0
        ),
        "sweep_slice_s": round(sweep_pooled_s, 4),
        "sweep_serial_s": round(sweep_serial_s, 4),
        "sweep_outputs_match": (
            sweep_pooled.mean_cost == sweep_serial.mean_cost
            and sweep_pooled.mean_vms_used == sweep_serial.mean_vms_used
        ),
    }


def test_perf_core(once):
    measured = once(run_perf_core)

    record = {}
    if RESULTS_PATH.exists():
        record = json.loads(RESULTS_PATH.read_text())
    record["latest"] = measured
    RESULTS_PATH.write_text(json.dumps(record, indent=2) + "\n")

    seed = record.get("seed", {})
    print("\nPerf core -- seed vs latest")
    for key in ("dict_dijkstra_ms", "oracle_row_ms", "sofda_largest_s",
                "online_trace_s", "online_many_rows_s",
                "online_dense_patch_s", "online_churn_s",
                "online_failures_s", "online_budget_s", "sweep_slice_s"):
        before = seed.get(key)
        after = measured[key]
        ratio = f"  ({before / after:.2f}x)" if before else ""
        print(f"  {key:>18}: {before} -> {after}{ratio}")
        if key == "dict_dijkstra_ms":
            print(f"  {'(end of run)':>18}: {measured['dict_dijkstra_end_ms']}")
    print(
        f"  online trace: invalidate {measured['online_trace_invalidate_s']}s"
        f" -> patch {measured['online_trace_s']}s"
        f" ({measured['online_trace_invalidate_s'] / measured['online_trace_s']:.2f}x)"
    )
    print(
        f"  churn trace: invalidate {measured['online_churn_invalidate_s']}s"
        f" -> patch {measured['online_churn_s']}s"
        f" ({measured['online_churn_invalidate_s'] / measured['online_churn_s']:.2f}x)"
    )
    print(
        f"  failure trace: invalidate {measured['online_failures_invalidate_s']}s"
        f" -> patch {measured['online_failures_s']}s"
        f" ({measured['online_failures_invalidate_s'] / measured['online_failures_s']:.2f}x,"
        f" {measured['online_failures_rerouted']} rerouted,"
        f" {measured['online_failures_disrupted']} disrupted)"
    )
    print(
        "  phase breakdown (metrics-on replays): churn "
        + " ".join(
            f"{k}={v}s" for k, v in measured["online_churn_phases"].items()
        )
        + "; many-rows "
        + " ".join(
            f"{k}={v}s"
            for k, v in measured["online_many_rows_phases"].items()
        )
    )
    print(
        f"  budget trace ({measured['online_budget_nodes']} nodes):"
        f" unbounded {measured['online_budget_unbounded_s']}s"
        f" (peak {measured['online_budget_unbounded_peak_bytes']} B)"
        f" -> budgeted {measured['online_budget_s']}s"
        f" (budget {measured['online_budget_bytes']} B,"
        f" resident {measured['online_budget_resident_bytes']} B,"
        f" {measured['online_budget_evictions']} evictions,"
        f" {measured['online_budget_overshoots']} overshoots)"
    )
    print(
        f"  sweep slice: serial {measured['sweep_serial_s']}s"
        f" -> workers=4 {measured['sweep_slice_s']}s"
        f" ({measured['sweep_serial_s'] / measured['sweep_slice_s']:.2f}x,"
        " needs a multi-core runner)"
    )

    # Correctness anchors -- hard failures under SOF_PERF_STRICT=1.
    cost_ok = (
        seed.get("sofda_largest_cost") is None
        # Hash-ordered summation wobbles the last ulp (seed does too).
        or abs(measured["sofda_largest_cost"] - seed["sofda_largest_cost"])
        <= 1e-9
    )
    trace_ok = measured["online_trace_max_request_drift"] <= 1e-9
    trace_baseline_ok = (
        seed.get("online_trace_cost") is None
        or abs(measured["online_trace_cost"] - seed["online_trace_cost"])
        <= 1e-6
    )
    many_rows_baseline_ok = (
        seed.get("online_many_rows_cost") is None
        or abs(measured["online_many_rows_cost"]
               - seed["online_many_rows_cost"]) <= 1e-6
    )
    dense_baseline_ok = (
        seed.get("online_dense_patch_cost") is None
        or abs(measured["online_dense_patch_cost"]
               - seed["online_dense_patch_cost"]) <= 1e-6
    )
    # Decrease batches repair to exact labels and, on these continuous
    # costs, to the rebuild's unique shortest-path trees, so the churn
    # trace must not diverge from the full-invalidate path by even an
    # ulp -- in costs or in acceptance decisions.
    churn_ok = (
        measured["online_churn_max_request_drift"] == 0.0
        and measured["online_churn_decisions_match"]
    )
    churn_baseline_ok = (
        seed.get("online_churn_cost") is None
        or abs(measured["online_churn_cost"] - seed["online_churn_cost"])
        <= 1e-6
    )
    # The recorder only observes (one falsy check per seam when off,
    # clock reads + dict bumps when on), so the metered replays must not
    # diverge from their metrics-off twins by even an ulp.
    metrics_ok = (
        measured["online_churn_metrics_drift"] == 0.0
        and measured["online_churn_metrics_decisions_match"]
        and measured["online_many_rows_metrics_drift"] == 0.0
    )
    # Topology tombstone repairs serve the same shortest paths as a
    # rebuild over the mutated graph, so the failure trace must not
    # diverge in forest costs, acceptances, reroutes, or disruptions.
    failures_ok = (
        measured["online_failures_max_request_drift"] == 0.0
        and measured["online_failures_decisions_match"]
    )
    failures_baseline_ok = (
        seed.get("online_failures_cost") is None
        or abs(measured["online_failures_cost"]
               - seed["online_failures_cost"]) <= 1e-6
    )
    # Evicted rows recompute to bit-identical labels, so the budgeted
    # 50k-node replay must match the unbounded reference exactly (costs
    # and acceptance decisions) while staying under its byte budget with
    # zero enforcement overshoots.
    budget_ok = (
        measured["online_budget_max_request_drift"] == 0.0
        and measured["online_budget_decisions_match"]
        and measured["online_budget_under_budget"]
    )
    if _strict():
        assert cost_ok, "largest-cell forest cost drifted from the baseline"
        assert trace_ok, "patched online trace diverged from full rebuild"
        assert trace_baseline_ok, "online-trace cost drifted from the baseline"
        assert many_rows_baseline_ok, (
            "many-rows trace cost drifted from the baseline"
        )
        assert dense_baseline_ok, (
            "dense-patch trace cost drifted from the baseline"
        )
        assert churn_ok, (
            "churn trace (decrease batches) diverged from the "
            "full-invalidate reference"
        )
        assert churn_baseline_ok, (
            "churn trace cost drifted from the baseline"
        )
        assert failures_ok, (
            "failure trace (topology patches) diverged from the "
            "full-invalidate reference"
        )
        assert failures_baseline_ok, (
            "failure trace cost drifted from the baseline"
        )
        assert metrics_ok, (
            "metrics-on replay diverged from the metrics-off reference"
        )
        assert budget_ok, (
            "budgeted 50k-node churn trace drifted from the unbounded "
            "reference or exceeded its row-cache byte budget"
        )
        assert measured["sweep_outputs_match"], "pooled sweep != serial sweep"
    shape_check("forest cost unchanged on the seeded largest cell", cost_ok)
    shape_check(
        "largest Table-I cell at least 3x faster than seed",
        not seed.get("sofda_largest_s")
        or measured["sofda_largest_s"] * 3 <= seed["sofda_largest_s"],
    )
    shape_check("online trace: patch == rebuild, bit-identical forests",
                trace_ok)
    shape_check("online trace cost matches committed baseline",
                trace_baseline_ok)
    shape_check(
        "online trace at least 2x faster than the full-invalidate path",
        measured["online_trace_s"] * 2
        <= measured["online_trace_invalidate_s"],
    )
    shape_check("many-rows trace cost matches committed baseline",
                many_rows_baseline_ok)
    shape_check("dense-patch trace cost matches committed baseline",
                dense_baseline_ok)
    shape_check("churn trace: patch == rebuild, costs and acceptance "
                "decisions bit-identical", churn_ok)
    shape_check("churn trace cost matches committed baseline",
                churn_baseline_ok)
    shape_check(
        "churn trace at least 1.2x faster than the full-invalidate path",
        measured["online_churn_s"] * 1.2
        <= measured["online_churn_invalidate_s"],
    )
    shape_check("failure trace: patch == rebuild, costs and availability "
                "decisions bit-identical", failures_ok)
    shape_check("failure trace cost matches committed baseline",
                failures_baseline_ok)
    shape_check(
        "failure trace at least 1.2x faster than the full-invalidate path",
        measured["online_failures_s"] * 1.2
        <= measured["online_failures_invalidate_s"],
    )
    shape_check("metrics-on replay: drift exactly 0.0 and identical "
                "acceptance decisions vs metrics-off", metrics_ok)
    shape_check("budget trace: budgeted == unbounded, drift exactly 0.0 "
                "and identical acceptance decisions", budget_ok)
    shape_check(
        "budget trace: resident rows never exceed the byte budget",
        measured["online_budget_under_budget"],
    )
    shape_check(
        "budget trace: the budget actually bound (evictions occurred)",
        measured["online_budget_evictions"] > 0,
    )
    shape_check("pooled sweep output identical to serial",
                measured["sweep_outputs_match"])
    shape_check(
        "pooled sweep at least 2x faster than serial (multi-core runners)",
        measured["sweep_slice_s"] * 2 <= measured["sweep_serial_s"],
    )
