"""Link failures: seeded MTBF/MTTR outages, mass rerouting, availability.

The paper's Section VII dynamic adjustments assume the network changes
under the embedder; this example injects actual link failures into a
tenant-churn workload on a SoftLayer-like backbone.  A seeded
MTBF/MTTR renewal process (:class:`~repro.workload.LinkFailureProcess`)
emits fail/recover events interleaved with Poisson arrivals and
holding-time departures.  When a link dies, the simulator reroutes every
active tenant crossing it onto surviving paths (releasing the ones that
cannot be saved), and the oracle absorbs the topology change as an
incremental ``patch_topology`` repair instead of a full rebuild.

The same trace replays through the default simulator (incremental
tombstone repair) and the ``incremental=False`` invalidate-and-rebuild
reference; both must agree on every request's acceptance and on the
reroute and disruption counts.  Their costs may differ where shortest
paths tie: a repaired row keeps a valid shortest-path tree but may break
an equal-cost tie differently from a rebuilt one, so the requests whose
costs differ are listed.

Run with:  python examples/link_failures.py
"""

import random

from repro import sofda
from repro.experiments import run_churn_comparison
from repro.online import RequestGenerator
from repro.topology import softlayer_network
from repro.workload import (
    ExponentialHolding,
    LinkFailureProcess,
    PoissonArrivals,
    build_schedule,
    dump_trace,
    load_trace,
)

HORIZON = 36.0    # hours of trace time
RATE = 1.0        # arrivals per hour
HOLD_MEAN = 6.0   # mean tenant lifetime in hours
FAIL_LINKS = 12   # failure-prone subset of the physical links
MTBF = 30.0       # mean hours between failures, per link
MTTR = 1.5        # mean hours to repair


def main() -> None:
    factory = lambda: softlayer_network(seed=3)  # noqa: E731
    network = factory()
    generator = RequestGenerator(network, seed=11,
                                 destinations_range=(4, 6),
                                 sources_range=(2, 3))
    process = PoissonArrivals(generator, rate=RATE, seed=1)
    holding = ExponentialHolding(mean=HOLD_MEAN, seed=2)

    links = sorted(((u, v) for u, v, _ in network.graph.edges()), key=repr)
    prone = random.Random(7).sample(links, FAIL_LINKS)
    failures = LinkFailureProcess(prone, mtbf=MTBF, mttr=MTTR, seed=7)

    schedule = build_schedule(process, horizon=HORIZON, holding=holding,
                              failures=failures)
    # Round-trip through the (version-2) JSONL trace form.
    schedule = load_trace(dump_trace(schedule))
    fails = sum(1 for e in schedule if e.kind == "fail")
    print(f"Failure trace on {network}: "
          f"{sum(1 for e in schedule if e.kind == 'arrive')} arrivals, "
          f"{fails} link failures over {HORIZON:.0f} h "
          f"(MTBF {MTBF:.0f} h, MTTR {MTTR:.1f} h)\n")

    embedder = {"SOFDA": lambda inst: sofda(inst).forest}
    patched = run_churn_comparison(factory, embedder, schedule)["SOFDA"]
    rebuilt = run_churn_comparison(factory, embedder, schedule,
                                   incremental=False)["SOFDA"]

    print(f"{'mode':12s} {'accept':>6s} {'reject':>6s} {'reroute':>7s} "
          f"{'disrupt':>7s} {'d-rate':>7s} {'mttr(h)':>8s} "
          f"{'total cost':>11s}")
    for mode, result in (("patched", patched), ("rebuilt", rebuilt)):
        print(f"{mode:12s} {result.accepted:6d} {result.rejected:6d} "
              f"{result.rerouted:7d} {result.disrupted:7d} "
              f"{result.disruption_rate:6.1%} "
              f"{result.mean_recovery_latency:8.2f} "
              f"{result.total_cost:11.2f}")

    def decisions(result):
        return [(index, cost is not None) for index, cost in
                zip(result.request_indices, result.per_request_cost)]

    agree = (
        decisions(patched) == decisions(rebuilt)
        and patched.rerouted == rebuilt.rerouted
        and patched.disrupted == rebuilt.disrupted
    )
    tied = [
        index for index, a, b in zip(patched.request_indices,
                                     patched.per_request_cost,
                                     rebuilt.per_request_cost)
        if a != b
    ]
    print(f"\nrequests whose costs differ (equal-cost tie-breaks): "
          f"{', '.join(map(str, tied)) or 'none'}")
    print(f"incremental topology patches match the rebuild reference: "
          f"{'yes' if agree else 'NO'}")


if __name__ == "__main__":
    main()
