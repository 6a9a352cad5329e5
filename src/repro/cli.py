"""Command-line interface: ``python -m repro <command>``.

Commands map one-to-one onto the evaluation artefacts:

- ``solve``     -- embed one sampled instance with every algorithm.
- ``fig7/8/9/10/11/12`` -- regenerate a figure's data series.
- ``table1/table2``     -- regenerate a table.
- ``workload``  -- run a tenant-churn workload (arrivals, holding-time
  departures, optional background churn) through the online simulator,
  with JSONL trace record/replay.
- ``analysis``  -- run the AST-based invariant linter
  (:mod:`repro.analysis`) over the source tree.
- ``obs``       -- inspect/convert/validate span traces emitted by the
  ``--trace-out`` flags (Chrome trace-event JSONL, :mod:`repro.obs`).

All output is plain text in the paper's row/series format, so results can
be diffed across runs.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import List, Optional

from repro.core.problem import ServiceChain
from repro.core.sofda import sofda
from repro.experiments import (
    fig7_cost_function,
    fig8_softlayer,
    fig9_cogent,
    fig10_inet,
    fig11_setup_cost,
    fig12_online,
    render_series,
    table1_runtime,
    table2_qoe,
)
from repro.topology import cogent_network, inet_network, softlayer_network

_NETWORKS = {
    "softlayer": softlayer_network,
    "cogent": cogent_network,
    "inet": lambda seed=0: inet_network(
        num_nodes=500, num_links=1000, num_datacenters=200, seed=seed
    ),
}


def _cmd_solve(args: argparse.Namespace) -> int:
    from repro.baselines import enemp_baseline, est_baseline, st_baseline

    network = _NETWORKS[args.topology](seed=args.topology_seed)
    try:
        instance = network.make_instance(
            num_sources=args.sources,
            num_destinations=args.destinations,
            num_vms=args.vms,
            chain=ServiceChain.of_length(args.chain),
            seed=args.seed,
        )
    except ValueError as exc:
        # Inconsistent sizes (a chain longer than the VM pool, no
        # destinations, more terminals than nodes) are usage errors.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"instance: {instance}")
    result = sofda(instance)
    print(f"{'SOFDA':10s} cost={result.cost:12.3f} "
          f"trees={result.forest.num_trees()} "
          f"vms={len(result.forest.used_vms())} "
          f"conflicts={result.stats.total_conflicted()}")
    for name, fn in (("eNEMP", enemp_baseline), ("eST", est_baseline),
                     ("ST", st_baseline)):
        forest = fn(instance)
        print(f"{name:10s} cost={forest.total_cost():12.3f} "
              f"trees={forest.num_trees()} vms={len(forest.used_vms())}")
    if args.ilp:
        from repro.ilp import solve_sof_ilp

        solution = solve_sof_ilp(instance, time_limit=args.ilp_time_limit)
        print(f"{'CPLEX':10s} cost={solution.objective:12.3f} "
              f"optimal={solution.optimal}")
    if args.verbose:
        print()
        print(result.forest.describe())
    return 0


def _make_recorder(trace_out: Optional[str]):
    """A live recorder when ``--trace-out`` was given, else ``None``.

    ``None`` keeps every instrumented seam on its zero-overhead default
    path, so untraced CLI runs stay bit-identical to pre-observability
    behaviour.
    """
    if trace_out is None:
        return None
    from repro.obs import MetricsRegistry, Recorder, SpanTracer

    return Recorder(registry=MetricsRegistry(), tracer=SpanTracer())


def _finish_trace(recorder, trace_out: str) -> None:
    """Write the span trace JSONL and print the per-phase breakdown."""
    from repro.obs import phase_breakdown, write_trace_events

    write_trace_events(recorder.tracer.events, trace_out)
    print(f"\nwrote {len(recorder.tracer.events)} spans to {trace_out} "
          "(repro obs convert -> chrome://tracing)")
    breakdown = phase_breakdown(recorder.snapshot())
    if any(breakdown.values()):
        print("per-phase time (attribution views; a row build inside a "
              "query counts in both):")
        for phase, seconds in breakdown.items():
            print(f"  {phase:8s} {seconds:10.4f}s")


def _below(flag: str, value: int, low: int = 1) -> bool:
    """Whether ``value < low``, reported as one ``error:`` line if so.

    Counts are checked before anything is built or solved, so a bad
    size ends with exit status 2 instead of a traceback from inside an
    experiment.
    """
    if value < low:
        print(f"error: {flag} must be at least {low}, got {value}",
              file=sys.stderr)
        return True
    return False


def _cmd_fig7(args: argparse.Namespace) -> int:
    if _below("--samples", args.samples, 2):
        return 2
    for load, cost in fig7_cost_function(samples=args.samples):
        print(f"{load:8.4f} {cost:12.4f}")
    return 0


def _print_panels(panels) -> None:
    for parameter, result in panels.items():
        print(render_series(result, title=f"--- {parameter} ---"))
        print()


def _cmd_fig8(args: argparse.Namespace) -> int:
    if _below("--seeds", args.seeds):
        return 2
    recorder = _make_recorder(args.trace_out)
    _print_panels(fig8_softlayer(
        seeds=args.seeds, include_ilp=args.ilp, metrics=recorder,
    ))
    if recorder:
        _finish_trace(recorder, args.trace_out)
    return 0


def _cmd_fig9(args: argparse.Namespace) -> int:
    if _below("--seeds", args.seeds):
        return 2
    recorder = _make_recorder(args.trace_out)
    _print_panels(fig9_cogent(seeds=args.seeds, metrics=recorder))
    if recorder:
        _finish_trace(recorder, args.trace_out)
    return 0


def _cmd_fig10(args: argparse.Namespace) -> int:
    if _below("--seeds", args.seeds):
        return 2
    recorder = _make_recorder(args.trace_out)
    try:
        panels = fig10_inet(
            seeds=args.seeds, num_nodes=args.nodes,
            num_links=2 * args.nodes, num_datacenters=args.nodes // 3,
            metrics=recorder,
        )
    except ValueError as exc:
        # Only the topology and instance builders can judge --nodes;
        # the sweep checks every cell's sizes before its first solve.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _print_panels(panels)
    if recorder:
        _finish_trace(recorder, args.trace_out)
    return 0


def _cmd_fig11(args: argparse.Namespace) -> int:
    if _below("--seeds", args.seeds):
        return 2
    recorder = _make_recorder(args.trace_out)
    data = fig11_setup_cost(seeds=args.seeds, metrics=recorder)
    print("cost (rows: |C|, cols: multiples 1,3,5,7,9)")
    for length, series in data["cost"].items():
        print(f"  |C|={length}: " + "  ".join(f"{v:9.2f}" for v in series))
    print("used VMs")
    for length, series in data["vms"].items():
        print(f"  |C|={length}: " + "  ".join(f"{v:9.2f}" for v in series))
    if recorder:
        _finish_trace(recorder, args.trace_out)
    return 0


def _cmd_fig12(args: argparse.Namespace) -> int:
    if _below("--requests", args.requests):
        return 2
    recorder = _make_recorder(args.trace_out)
    series = fig12_online(
        topology=args.topology, num_requests=args.requests, metrics=recorder,
    )
    for name, acc in series.items():
        print(f"{name:8s} " + " ".join(f"{v:10.1f}" for v in acc))
    if recorder:
        _finish_trace(recorder, args.trace_out)
    return 0


def _workload_input_error(args: argparse.Namespace) -> Optional[str]:
    """The first inconsistent ``workload`` flag as a message, or ``None``.

    Checked before anything is built, so bad input fails before
    ``--record`` writes a trace.  Arrival and failure flags only matter
    when a schedule is generated; a replayed trace ignores them.
    """
    if not args.replay:
        if not args.rate > 0:
            return f"--rate must be positive, got {args.rate:g}"
        if not (math.isfinite(args.horizon) and args.horizon > 0):
            return (f"--horizon must be a finite positive time, "
                    f"got {args.horizon:g}")
        if args.process == "diurnal":
            if not 0 <= args.amplitude <= 1:
                return (f"--amplitude must be in [0, 1], "
                        f"got {args.amplitude:g}")
            if not args.period > 0:
                return f"--period must be positive, got {args.period:g}"
        if args.process == "flash":
            if not args.burst_factor >= 1:
                return (f"--burst-factor must be at least 1, "
                        f"got {args.burst_factor:g}")
            if not args.burst_duration >= 0:
                return (f"--burst-duration must be non-negative, "
                        f"got {args.burst_duration:g}")
        if args.hold_fixed is not None:
            if not args.hold_fixed > 0:
                return (f"--hold-fixed must be positive, "
                        f"got {args.hold_fixed:g}")
        elif not args.no_departures and not args.hold_mean > 0:
            return f"--hold-mean must be positive, got {args.hold_mean:g}"
        if args.fail_links < 0:
            return (f"--fail-links must be non-negative, "
                    f"got {args.fail_links}")
        if args.fail_links > 0:
            for flag, value in (("--mtbf", args.mtbf), ("--mttr", args.mttr)):
                if not value > 0:
                    return (f"{flag} must be positive with --fail-links, "
                            f"got {value:g}")
    mb = args.row_budget_mb
    if mb is not None and not (math.isfinite(mb) and mb * 2 ** 20 >= 1):
        return (f"--row-budget-mb must be a finite size of at least one "
                f"byte, got {mb:g}")
    return None


def _cmd_workload(args: argparse.Namespace) -> int:
    error = _workload_input_error(args)
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return 2
    from repro.experiments import run_churn_comparison
    from repro.online import RequestGenerator
    from repro.workload import (
        DiurnalArrivals,
        ExponentialHolding,
        FixedHolding,
        FlashCrowdArrivals,
        LinkFailureProcess,
        PoissonArrivals,
        build_schedule,
        read_trace,
        read_trace_metadata,
        write_trace,
    )

    topology, topology_seed = args.topology, args.topology_seed
    if args.replay:
        # A trace's node identities only make sense on the topology it
        # was recorded against; recorded provenance wins over the flags.
        # A malformed trace (bad header, non-finite demand, unknown event
        # kind) is bad input, reported before anything is built.
        try:
            meta = read_trace_metadata(args.replay)
            schedule = read_trace(args.replay)
        except ValueError as exc:
            print(f"error: cannot replay {args.replay}: {exc}",
                  file=sys.stderr)
            return 2
        topology = meta.get("topology", topology)
        topology_seed = meta.get("topology_seed", topology_seed)
        if topology not in _NETWORKS:
            raise SystemExit(
                f"trace {args.replay} was recorded on topology "
                f"{topology!r}, which this build does not provide "
                f"(choose from {sorted(_NETWORKS)})"
            )
        print(f"replaying {len(schedule)} events from {args.replay} "
              f"(topology {topology}, seed {topology_seed})")
    else:
        network = _NETWORKS[topology](seed=topology_seed)
        generator = RequestGenerator(network, seed=args.seed)
        if args.process == "poisson":
            process = PoissonArrivals(
                generator, rate=args.rate, seed=args.seed + 1
            )
        elif args.process == "diurnal":
            process = DiurnalArrivals(
                generator, base_rate=args.rate, amplitude=args.amplitude,
                period=args.period, seed=args.seed + 1,
            )
        else:
            process = FlashCrowdArrivals(
                generator, base_rate=args.rate, burst_start=args.burst_start,
                burst_duration=args.burst_duration,
                burst_factor=args.burst_factor, seed=args.seed + 1,
            )
        if args.hold_fixed is not None:
            holding = FixedHolding(args.hold_fixed)
        elif args.no_departures:
            holding = None
        else:
            holding = ExponentialHolding(args.hold_mean, seed=args.seed + 2)
        failures = None
        if args.fail_links > 0:
            # Deterministic failure-prone subset of the physical links:
            # seeded sample over the repr-sorted edge list.
            import random as _random

            links = sorted(
                ((u, v) for u, v, _ in network.graph.edges()), key=repr
            )
            picked = _random.Random(args.failure_seed).sample(
                links, min(args.fail_links, len(links))
            )
            failures = LinkFailureProcess(
                picked, mtbf=args.mtbf, mttr=args.mttr,
                seed=args.failure_seed,
            )
        schedule = build_schedule(process, horizon=args.horizon,
                                  holding=holding, failures=failures)
        print(f"built {len(schedule)} events "
              f"({args.process} arrivals over horizon {args.horizon})")
    if args.record:
        write_trace(schedule, args.record,
                    meta={"topology": topology, "topology_seed": topology_seed})
        print(f"recorded trace to {args.record}")

    factory = lambda: _NETWORKS[topology](seed=topology_seed)  # noqa: E731
    embedders = {"SOFDA": lambda inst: sofda(inst).forest}
    if args.baselines:
        from repro.baselines import enemp_baseline, est_baseline, st_baseline

        embedders.update(
            {"eNEMP": enemp_baseline, "eST": est_baseline, "ST": st_baseline}
        )
    simulator_kwargs = {}
    if args.row_budget_mb is not None:
        simulator_kwargs["row_budget_bytes"] = int(
            args.row_budget_mb * 2 ** 20
        )
    recorder = _make_recorder(args.trace_out)
    if recorder:
        simulator_kwargs["metrics"] = recorder
    results = run_churn_comparison(
        factory, embedders, schedule, **simulator_kwargs
    )
    with_failures = any(r.failures for r in results.values())
    header = (f"\n{'algo':8s} {'arrive':>6s} {'accept':>6s} {'reject':>6s} "
              f"{'rate':>6s} {'depart':>6s} {'peak':>5s} {'active':>6s} "
              f"{'total cost':>12s}")
    if with_failures:
        header += (f" {'fails':>5s} {'rerte':>5s} {'disrp':>5s} "
                   f"{'d-rate':>6s} {'mttr':>6s}")
    print(header)
    for name, result in results.items():
        arrivals = result.accepted + result.rejected
        row = (f"{name:8s} {arrivals:6d} {result.accepted:6d} "
               f"{result.rejected:6d} {result.acceptance_rate:5.1%} "
               f"{result.departures:6d} {result.peak_active:5d} "
               f"{result.final_active:6d} {result.total_cost:12.2f}")
        if with_failures:
            row += (f" {result.failures:5d} {result.rerouted:5d} "
                    f"{result.disrupted:5d} {result.disruption_rate:5.1%} "
                    f"{result.mean_recovery_latency:6.2f}")
        print(row)
    # Evictions split by policy: a climbing ``idle`` count means a
    # standing working set is being dropped and rebuilt cold.
    budget = ("unbounded" if args.row_budget_mb is None
              else f"budget {args.row_budget_mb:g} MB")
    print(f"\nrow-cache residency ({budget}):")
    for name, result in results.items():
        stats = result.cache_stats or {}
        print(f"{name:8s} rows={stats.get('rows', 0):5d} "
              f"bytes={stats.get('total_bytes', 0):>10d} "
              f"peak={stats.get('peak_bytes', 0):>10d} "
              f"evictions={stats.get('evictions', 0):6d} "
              f"idle={stats.get('idle_evictions', 0):6d} "
              f"budget={stats.get('budget_evictions', 0):6d} "
              f"overshoots={stats.get('overshoots', 0):3d}")
    if recorder:
        _finish_trace(recorder, args.trace_out)
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    if any(_below("--sources", s) for s in args.sources):
        return 2
    try:
        results = table1_runtime(
            node_counts=tuple(args.nodes), source_counts=tuple(args.sources)
        )
    except ValueError as exc:
        # Only the topology builder can judge --nodes; every topology is
        # built and every cell's sizes checked before the first solve.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    header = "|V|      " + "  ".join(f"|S|={s:>3d}" for s in args.sources)
    print(header)
    for n in args.nodes:
        print(f"{n:<8d} " + "  ".join(
            f"{results[(n, s)]:7.2f}" for s in args.sources
        ))
    return 0


def _cmd_table2(args: argparse.Namespace) -> int:
    if _below("--trials", args.trials):
        return 2
    rows = table2_qoe(trials=args.trials)
    print(f"{'algo':8s} {'startup(s)':>11s} {'rebuffer(s)':>12s}")
    for name, row in rows.items():
        print(f"{name:8s} {row['startup_latency_s']:11.2f} "
              f"{row['rebuffering_s']:12.2f}")
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    from repro.obs import (
        PHASE_GROUPS,
        read_trace_events,
        span_totals,
        to_chrome_json,
    )

    try:
        events = read_trace_events(args.trace)
    except (OSError, ValueError) as exc:
        print(f"{args.trace}: INVALID: {exc}", file=sys.stderr)
        return 1
    if args.action == "validate":
        print(f"{args.trace}: valid ({len(events)} spans)")
        return 0
    if args.action == "convert":
        payload = to_chrome_json(events)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(payload + "\n")
            print(f"wrote {args.output} ({len(events)} spans); open it in "
                  "chrome://tracing or https://ui.perfetto.dev")
        else:
            print(payload)
        return 0
    # summary: per-name totals, then the per-phase attribution views.
    totals = span_totals(events)
    print(f"{args.trace}: {len(events)} spans, {len(totals)} span names")
    print(f"{'span':32s} {'total':>12s}")
    for name, seconds in sorted(
        totals.items(), key=lambda kv: (-kv[1], kv[0])
    ):
        print(f"{name:32s} {seconds:11.4f}s")
    print("\nper-phase (attribution views; a row build inside a query "
          "counts in both):")
    for phase, names in PHASE_GROUPS.items():
        seconds = sum(totals.get(n, 0.0) for n in names)
        print(f"  {phase:8s} {seconds:10.4f}s")
    return 0


def _cmd_analysis(args: argparse.Namespace) -> int:
    from repro.analysis.cli import main as analysis_main

    argv: List[str] = list(args.paths)
    if args.strict:
        argv.append("--strict")
    if args.as_json:
        argv.append("--json")
    if args.no_baseline:
        argv.append("--no-baseline")
    if args.baseline_file is not None:
        argv.extend(["--baseline-file", args.baseline_file])
    if args.list_rules:
        argv.append("--list-rules")
    return analysis_main(argv)


def _add_trace_out(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="enable observability and write a Chrome trace-event JSONL "
             "span trace to PATH (default: observability off, "
             "zero-overhead)",
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Service Overlay Forest embedding (ICDCS'17 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="embed one instance with every algorithm")
    solve.add_argument("--topology", choices=sorted(_NETWORKS), default="softlayer")
    solve.add_argument("--topology-seed", type=int, default=1)
    solve.add_argument("--sources", type=int, default=14)
    solve.add_argument("--destinations", type=int, default=6)
    solve.add_argument("--vms", type=int, default=25)
    solve.add_argument("--chain", type=int, default=3)
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument("--ilp", action="store_true", help="also solve the exact IP")
    solve.add_argument("--ilp-time-limit", type=float, default=120.0)
    solve.add_argument("--verbose", action="store_true")
    solve.set_defaults(func=_cmd_solve)

    fig7 = sub.add_parser("fig7", help="Fortz-Thorup cost curve")
    fig7.add_argument("--samples", type=int, default=25)
    fig7.set_defaults(func=_cmd_fig7)

    for name, fn, extra in (
        ("fig8", _cmd_fig8, True),
        ("fig9", _cmd_fig9, False),
    ):
        p = sub.add_parser(name, help=f"{name} sweeps")
        p.add_argument("--seeds", type=int, default=3)
        if extra:
            p.add_argument("--ilp", action="store_true")
        _add_trace_out(p)
        p.set_defaults(func=fn)

    fig10 = sub.add_parser("fig10", help="Inet synthetic sweeps")
    fig10.add_argument("--seeds", type=int, default=2)
    fig10.add_argument("--nodes", type=int, default=500)
    _add_trace_out(fig10)
    fig10.set_defaults(func=_cmd_fig10)

    fig11 = sub.add_parser("fig11", help="setup-cost sweeps")
    fig11.add_argument("--seeds", type=int, default=3)
    _add_trace_out(fig11)
    fig11.set_defaults(func=_cmd_fig11)

    fig12 = sub.add_parser("fig12", help="online accumulative cost")
    fig12.add_argument("--topology", choices=["softlayer", "cogent"],
                       default="softlayer")
    fig12.add_argument("--requests", type=int, default=12)
    _add_trace_out(fig12)
    fig12.set_defaults(func=_cmd_fig12)

    workload = sub.add_parser(
        "workload", help="tenant-churn workload (arrivals + departures)"
    )
    workload.add_argument("--topology", choices=sorted(_NETWORKS),
                          default="softlayer")
    workload.add_argument("--topology-seed", type=int, default=1)
    workload.add_argument("--process",
                          choices=["poisson", "diurnal", "flash"],
                          default="diurnal")
    workload.add_argument("--rate", type=float, default=1.0,
                          help="(base) arrivals per time unit")
    workload.add_argument("--horizon", type=float, default=24.0,
                          help="trace length in time units")
    workload.add_argument("--amplitude", type=float, default=0.8,
                          help="diurnal rate modulation in [0, 1]")
    workload.add_argument("--period", type=float, default=24.0,
                          help="diurnal period in time units")
    workload.add_argument("--burst-start", type=float, default=8.0)
    workload.add_argument("--burst-duration", type=float, default=4.0)
    workload.add_argument("--burst-factor", type=float, default=5.0)
    workload.add_argument("--hold-mean", type=float, default=6.0,
                          help="mean exponential holding time")
    holding = workload.add_mutually_exclusive_group()
    holding.add_argument("--hold-fixed", type=float, default=None,
                         help="fixed holding time (overrides --hold-mean)")
    holding.add_argument("--no-departures", action="store_true",
                         help="tenants never depart (the paper's model)")
    workload.add_argument("--seed", type=int, default=0)
    workload.add_argument("--fail-links", type=int, default=0,
                          help="number of failure-prone links (0 = no "
                               "failure injection)")
    workload.add_argument("--mtbf", type=float, default=50.0,
                          help="mean time between failures per link")
    workload.add_argument("--mttr", type=float, default=2.0,
                          help="mean time to recovery per failure")
    workload.add_argument("--failure-seed", type=int, default=0,
                          help="seed for link sampling and the MTBF/MTTR "
                               "renewal draws")
    workload.add_argument("--baselines", action="store_true",
                          help="also run eNEMP/eST/ST")
    workload.add_argument("--record", metavar="PATH",
                          help="record the schedule to a JSONL trace")
    workload.add_argument("--replay", metavar="PATH",
                          help="replay a recorded JSONL trace instead")
    workload.add_argument("--row-budget-mb", type=float, default=None,
                          metavar="MB",
                          help="bound oracle row-cache residency to MB "
                               "megabytes (evicts unused, then least "
                               "recently served rows; default unbounded)")
    _add_trace_out(workload)
    workload.set_defaults(func=_cmd_workload)

    table1 = sub.add_parser("table1", help="SOFDA runtime grid")
    table1.add_argument("--nodes", type=int, nargs="+",
                        default=[1000, 3000, 5000])
    table1.add_argument("--sources", type=int, nargs="+", default=[2, 14, 26])
    table1.set_defaults(func=_cmd_table1)

    table2 = sub.add_parser("table2", help="testbed QoE")
    table2.add_argument("--trials", type=int, default=20)
    table2.set_defaults(func=_cmd_table2)

    analysis = sub.add_parser(
        "analysis",
        help="AST invariant linter (determinism/oracle/flag/fork rules)",
    )
    analysis.add_argument("paths", nargs="*", default=[],
                          help="files or directories (default: src tests)")
    analysis.add_argument("--strict", action="store_true",
                          help="exit non-zero on any non-baselined finding")
    analysis.add_argument("--json", action="store_true", dest="as_json",
                          help="machine-readable JSON output")
    analysis.add_argument("--no-baseline", action="store_true",
                          help="ignore the committed baseline")
    analysis.add_argument("--baseline-file", default=None, metavar="PATH",
                          help="alternate baseline JSON")
    analysis.add_argument("--list-rules", action="store_true",
                          help="list every rule id and exit")
    analysis.set_defaults(func=_cmd_analysis)

    obs = sub.add_parser(
        "obs", help="inspect span traces written by --trace-out"
    )
    obs.add_argument("action", choices=["summary", "convert", "validate"],
                     help="summary: per-span totals and phase breakdown; "
                          "convert: JSONL -> chrome://tracing JSON; "
                          "validate: schema-check the trace")
    obs.add_argument("trace", metavar="TRACE",
                     help="trace-event JSONL file (from --trace-out)")
    obs.add_argument("-o", "--output", default=None, metavar="PATH",
                     help="convert: write the Chrome JSON here instead of "
                          "stdout")
    obs.set_defaults(func=_cmd_obs)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
