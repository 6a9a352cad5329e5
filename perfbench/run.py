#!/usr/bin/env python3
"""The repository benchmark: churn, failover and offline SOF workloads.

Run from the repository root::

    python3 perfbench/run.py --workload churn --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the wrapper self-test, a warm-up pass, one untraced
pass and one traced pass, and reports the per-layer metrics plus the
tracing overhead.  Both modes check the outputs (see ``correctness``)
and print a report followed, as the last line, by one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Every run makes at least this many passes: the second one repeats
#: the first from fresh state, which is the determinism check.
MIN_PASSES = 2
#: ``setup_s`` is the median of at least this many set-ups.
SETUP_SAMPLES = 3
#: A tail percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10


def tail_percentile(min_samples: int) -> int:
    """Highest whole percentile with ``TAIL_BEYOND`` samples beyond it.

    It is fixed from the sample count every run is guaranteed, so a
    faster program that fits more passes reports the same percentile.
    """
    return max(50, math.floor(100 * (1 - TAIL_BEYOND / min_samples)))


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def environment() -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "fork": "fork" in multiprocessing.get_all_start_methods(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# passes
# ----------------------------------------------------------------------
def one_pass(w, inputs, control, log=None, metrics=None):
    """One pass; ``log`` (a SpanLog) traces its timed window."""
    around = log.installed if log is not None else w.nullcontext
    if inputs.workload == "offline":
        return w.offline_pass(inputs, control, around_solve=around)
    return w.online_pass(inputs, control, around_loop=around, metrics=metrics)


def extra_setups(w, inputs, count: int):
    """Set-up samples beyond the passes' own (simulator + pool warm)."""
    samples = []
    for _ in range(count):
        start = time.perf_counter()
        simulator = w.OnlineSimulator(
            inputs.network, vms_per_datacenter=w.VMS_PER_DC
        )
        simulator.apply_background_load((), 0.0)
        samples.append(time.perf_counter() - start)
        del simulator
    return samples


def correctness(passes) -> list:
    """Findings from every pass plus the cross-pass determinism check."""
    problems = []
    for i, p in enumerate(passes):
        problems.extend(f"pass {i}: {msg}" for msg in p.problems)
        if p.invalidate_calls:
            problems.append(
                f"pass {i}: FrozenOracle.invalidate called "
                f"{p.invalidate_calls} times on the default path"
            )
    first = passes[0].costs
    for i, p in enumerate(passes[1:], start=1):
        if p.costs != first:
            diff = [
                k for k, (a, b) in enumerate(zip(first, p.costs)) if a != b
            ]
            problems.append(
                f"pass {i}: costs/decisions differ from pass 0 at requests "
                f"{diff[:10]} (lengths {len(first)} vs {len(p.costs)})"
            )
    return problems


def summary(passes) -> dict:
    """Outcome counts of the seed's input (pass 0; later passes match)."""
    p = passes[0]
    arrivals = p.accepted + p.rejected
    return {
        "arrivals": arrivals,
        "reject_rate": p.rejected / arrivals,
        "disruption_rate": p.disrupted / p.accepted if p.accepted else 0.0,
        "rerouted": p.rerouted,
        "forest_cost": sum(c for c in p.costs if c is not None),
    }


def fail_latency(passes) -> dict:
    samples = [s for p in passes for s in p.fail_s]
    if not samples:
        return {"fail_p50_ms": 0.0, "fail_tail_ms": 0.0, "fail_tail_pct": None,
                "fail_samples": 0}
    pct = tail_percentile(len(samples))
    return {
        "fail_p50_ms": percentile(samples, 50) * 1e3,
        "fail_tail_ms": percentile(samples, pct) * 1e3,
        "fail_tail_pct": pct,
        "fail_samples": len(samples),
    }


# ----------------------------------------------------------------------
# the two modes
# ----------------------------------------------------------------------
def measure(w, inputs, control, seconds: float):
    """End-to-end metrics, tracing off, scaled by the control."""
    start = time.perf_counter()
    passes = []
    while True:
        passes.append(one_pass(w, inputs, control))
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and (
            elapsed * (len(passes) + 1) / len(passes) > seconds
        ):
            break
    # Each pass is scaled by the control slices taken during it, so
    # drift between passes is taken out too.
    scales = [control.scale(p.control_s) for p in passes]
    setups = [s * k for p, k in zip(passes, scales) for s in p.setup_s]
    if len(setups) < SETUP_SAMPLES:
        setups += [
            s * control.factor()
            for s in extra_setups(w, inputs, SETUP_SAMPLES - len(setups))
        ]
    embeds = [s * k for p, k in zip(passes, scales) for s in p.embed_s]
    pct = tail_percentile(MIN_PASSES * len(passes[0].embed_s))
    outcome = summary(passes)
    loop_s = sum(p.loop_s * k for p, k in zip(passes, scales))
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (sum(p.ops for p in passes) / loop_s, "1/s"),
        "embed_p50_ms": (percentile(embeds, 50) * 1e3, "ms"),
        "embed_tail_ms": (percentile(embeds, pct) * 1e3, "ms"),
        "forest_cost": (outcome["forest_cost"], "cost"),
        "accept_rate": (1.0 - outcome["reject_rate"], "ratio"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    raw = [s for p in passes for s in p.embed_s]
    unscaled = {
        "ops_per_s": sum(p.ops for p in passes) / sum(p.loop_s for p in passes),
        "embed_p50_ms": percentile(raw, 50) * 1e3,
        "embed_tail_ms": percentile(raw, pct) * 1e3,
    }
    info = dict(outcome, **fail_latency(passes))
    info.update(passes=len(passes), embed_samples=len(embeds),
                embed_tail_pct=pct, setup_samples=len(setups),
                pass_scales=scales, control_slices=len(control.samples),
                unscaled=unscaled)
    return passes, metrics, info


def trace(w, spans, inputs, ctl):
    """Per-layer metrics from one traced pass, next to an untraced one."""
    from repro.obs import Recorder

    problems = self_test(w, spans)
    # The first pass in a process runs slower (fresh memory), so it only
    # warms up; the overhead compares the two passes after it.
    warmup = one_pass(w, inputs, ctl)
    untraced = one_pass(w, inputs, ctl)
    log = spans.SpanLog()
    recorder = Recorder()
    traced = one_pass(w, inputs, ctl, log=log, metrics=recorder)
    passes = [warmup, untraced, traced]

    wall = traced.loop_s
    layers = log.self_times()
    metrics = {}
    for kind in ("arrive", "depart", "background", "fail", "recover"):
        metrics[f"workload.events.{kind}"] = (traced.events.get(kind, 0), "count")
    total_self = 0.0
    for name, (calls, self_s) in layers.items():
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (self_s, "s")
        total_self += self_s
    extra = log.extra
    walks = layers["core.transform.chain_walk"][0]
    chains = extra.get("chains_clean", 0) + extra.get("chains_conflicted", 0)
    reroutes = extra.get("reroute_ok", 0) + extra.get("reroute_failed", 0)
    metrics.update({
        "core.transform.chain_walk.useful_ratio": (
            extra.get("selected_virtual_edges", 0) / walks if walks else 0.0,
            "ratio"),
        "core.conflict.clean_ratio": (
            extra.get("chains_clean", 0) / chains if chains else 0.0, "ratio"),
        "core.dynamic.reroute.success_ratio": (
            extra.get("reroute_ok", 0) / reroutes if reroutes else 0.0,
            "ratio"),
        "graph.indexed.patch_edge_costs.edges": (
            extra.get("patched_edges", 0), "count"),
    })
    cache = traced.cache_delta
    lookups = cache["hits"] + cache["misses"]
    metrics.update({
        "graph.rowcache.hits": (cache["hits"], "count"),
        "graph.rowcache.misses": (cache["misses"], "count"),
        "graph.rowcache.hit_ratio": (
            cache["hits"] / lookups if lookups else 0.0, "ratio"),
        "graph.rowcache.idle_evictions": (cache["idle_evictions"], "count"),
        "graph.rowcache.peak_bytes": (cache["peak_bytes"], "bytes"),
    })
    counters = recorder.snapshot()["counters"]
    for path in ("planned", "shared", "reference"):
        metrics[f"oracle.repair_rows.{path}"] = (
            sum(v for k, v in counters.items()
                if k.startswith("oracle.repair.rows")
                and f"path={path}" in k),
            "count")
    other = wall - total_self
    # Each pass is scaled by its own control slices, so machine drift
    # between the two passes does not read as tracing overhead.
    untraced_ops, traced_ops = (
        p.ops / (p.loop_s * ctl.scale(p.control_s))
        for p in (untraced, traced)
    )
    fails = fail_latency(passes)
    outcome = summary(passes)
    metrics.update({
        "other.self_s": (other, "s"),
        "trace.wall_s": (wall, "s"),
        "trace.spans": (len(log.spans), "count"),
        "trace.untraced_ops_per_s": (untraced_ops, "1/s"),
        "trace.traced_ops_per_s": (traced_ops, "1/s"),
        "trace.overhead_ops_per_s": (untraced_ops - traced_ops, "1/s"),
        "trace.overhead_est_s": (
            len(log.spans) * spans.SpanLog.cost_per_span(), "s"),
        "fail_p50_ms": (fails["fail_p50_ms"], "ms"),
        "fail_tail_ms": (fails["fail_tail_ms"], "ms"),
        "reject_rate": (outcome["reject_rate"], "ratio"),
        "disruption_rate": (outcome["disruption_rate"], "ratio"),
    })
    # The layers plus ``other`` must account for the traced wall time;
    # a negative remainder means spans overlapped (a nesting bug).
    listed = sum(v for k, (v, unit) in metrics.items()
                 if k.endswith(".self_s"))
    if abs(listed - wall) > 0.05 * wall:
        problems.append(
            f"self times {listed:.4f} s do not add up to wall {wall:.4f} s"
        )
    negative = [k for k, (v, unit) in metrics.items()
                if k.endswith(".self_s") and v < 0]
    if negative:
        problems.append(f"negative self times (overlapping spans): {negative}")
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    span_file = out_dir / f"spans-{inputs.workload}-seed{inputs.seed}.jsonl"
    log.write(span_file, {"workload": inputs.workload, "seed": inputs.seed,
                          "env": environment(), "wall_s": wall})
    info = dict(outcome, **fails)
    info.update(span_file=str(span_file.relative_to(HERE.parent)),
                overhead_share=1.0 - traced_ops / untraced_ops)
    return passes, metrics, info, problems


def self_test(w, spans) -> list:
    """A tiny run through every wrapper; a wrapper left at zero calls
    (a renamed or moved function) is a failure, not a 0-second layer."""
    from repro.online import RequestGenerator
    from repro.topology import inet_network

    network = inet_network(
        num_nodes=300, num_links=600, num_datacenters=6, seed=0
    )
    simulator = w.OnlineSimulator(network, vms_per_datacenter=3)
    requests = RequestGenerator(
        network, seed=0, destinations_range=(2, 3), sources_range=(2, 2)
    ).take(3)
    log = spans.SpanLog()
    with log.installed():
        leases = [simulator.embed_leased(r, w.embed)[1] for r in requests]
        links = [
            edge for lease in leases if lease is not None
            for edge, _ in lease.link_loads
            if not any(isinstance(n, tuple) for n in edge)
        ]
        simulator.apply_background_load(links[:1], 1.0)
        simulator.fail_link(*links[0])
        simulator.recover_link(*links[0])
        for lease in leases:
            if lease is not None and not lease.released:
                simulator.release(lease)
        w.FrozenOracle(network.graph).invalidate()
    return [
        f"self-test: wrapper {name!r} recorded no calls"
        for name, (calls, _) in log.self_times().items() if calls == 0
    ]


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("churn", "failover", "offline"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: program sources not found under {SRC}",
              file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    import control
    import spans
    import workloads as w

    env = environment()
    inputs = w.make_inputs(args.workload, args.seed)
    ctl = control.Control()
    if args.trace:
        passes, metrics, info, problems = trace(w, spans, inputs, ctl)
    else:
        passes, metrics, info = measure(w, inputs, ctl, args.seconds)
        problems = []
    problems += correctness(passes)

    print(f"workload={args.workload} seed={args.seed} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    print("info " + json.dumps(info, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:>16.6f} {unit}")
    for msg in problems:
        print("PROBLEM " + msg)
    attempted = sum(p.ops for p in passes)
    failed = sum(p.rejected for p in passes)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
