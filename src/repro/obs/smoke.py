"""CI smoke check: traced churn run, schema-valid trace, stable snapshot.

``python -m repro.obs.smoke`` runs a small tenant-churn workload (with a
link-failure window, so the fail/recover/reroute seams all fire) through
an :class:`~repro.online.simulator.OnlineSimulator` carrying a live
:class:`~repro.obs.recorder.Recorder`, then:

1. serialises the span trace to JSONL and re-loads it through the
   validating codec (``--trace-out`` keeps the file);
2. asserts the trace's per-name span totals reconcile with the
   registry's histogram sums (the acceptance invariant);
3. prints the canonical metrics snapshot (sorted-keys JSON) to stdout.

The recorder uses a :class:`~repro.obs.recorder.FakeClock`, so the
snapshot -- durations included -- must be **byte-identical** across
``PYTHONHASHSEED`` values; CI runs this module twice under different
seeds and compares the outputs with ``cmp``, and compares the seed-0
output with the committed ``smoke_expected.json`` next to this module
(regenerate it with ``PYTHONHASHSEED=0 python -m repro.obs.smoke >
src/repro/obs/smoke_expected.json`` when a change moves the snapshot on
purpose).  Diagnostics go to stderr so stdout is exactly the snapshot.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from typing import List, Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import FakeClock, Recorder
from repro.obs.tracer import SpanTracer, read_trace_events, span_totals, \
    write_trace_events


def run_smoke(trace_out: Optional[str] = None) -> str:
    """Run the traced workload; returns the canonical snapshot JSON."""
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

    recorder = Recorder(
        registry=MetricsRegistry(),
        tracer=SpanTracer(),
        clock=FakeClock(step=0.001),
    )

    network = softlayer_network(seed=1)
    generator = RequestGenerator(network, seed=0)
    process = PoissonArrivals(generator, rate=1.0, seed=1)
    links = sorted(((u, v) for u, v, _ in network.graph.edges()), key=repr)
    failures = LinkFailureProcess(
        links[:2], mtbf=4.0, mttr=1.0, seed=0
    )
    schedule = build_schedule(
        process, horizon=8.0,
        holding=ExponentialHolding(4.0, seed=2),
        failures=failures,
    )
    simulator = OnlineSimulator(network, metrics=recorder)
    engine = WorkloadEngine(
        simulator, lambda inst: sofda(inst).forest, name="SOFDA"
    )
    result = engine.run(schedule)
    print(
        f"smoke: {len(schedule)} events, accepted={result.accepted} "
        f"rejected={result.rejected} failures={result.failures}",
        file=sys.stderr,
    )

    # Round-trip the trace through the validating codec; without
    # ``trace_out`` the file lives and dies in a scratch directory.
    with tempfile.TemporaryDirectory() as scratch:
        path = trace_out or os.path.join(scratch, "trace.jsonl")
        write_trace_events(recorder.tracer.events, path)
        events = read_trace_events(path)
    if len(events) != len(recorder.tracer.events):
        raise SystemExit("smoke: trace round-trip lost events")
    print(f"smoke: trace valid ({len(events)} spans, {path})",
          file=sys.stderr)

    # Span totals must reconcile with the per-phase histogram sums.
    registry = recorder.registry
    for name, total in span_totals(events).items():
        hist_sum = registry.histogram_sum(name)
        if abs(total - hist_sum) > 1e-9 * max(1.0, abs(hist_sum)):
            raise SystemExit(
                f"smoke: span total for {name!r} ({total}) does not "
                f"reconcile with histogram sum ({hist_sum})"
            )
    print("smoke: span totals reconcile with histogram sums",
          file=sys.stderr)
    return json.dumps(recorder.snapshot(), sort_keys=True, indent=2)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.smoke", description=__doc__.split("\n")[0]
    )
    parser.add_argument("--trace-out", default=None, metavar="PATH",
                        help="keep the emitted trace JSONL at PATH")
    args = parser.parse_args(argv)
    print(run_smoke(trace_out=args.trace_out))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
