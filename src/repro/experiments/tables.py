"""Table I (SOFDA runtime) and Table II (testbed QoE)."""

from __future__ import annotations

import time
from typing import Dict, Sequence, Tuple

from repro.core.problem import ServiceChain
from repro.core.sofda import sofda
from repro.baselines import enemp_baseline, est_baseline
from repro.testbed import run_qoe_experiment
from repro.topology import inet_network


def table1_runtime(
    node_counts: Sequence[int] = (1000, 2000, 3000, 4000, 5000),
    source_counts: Sequence[int] = (2, 8, 14, 20, 26),
    num_vms: int = 25,
    num_destinations: int = 6,
    chain_length: int = 3,
    seed: int = 0,
) -> Dict[Tuple[int, int], float]:
    """Table I: SOFDA wall-clock seconds vs |V| and |S|.

    The paper's grid is 1000..5000 nodes x 2..26 sources on the Inet
    synthetic topology; links and data centers scale with the node count
    (2 links and 0.4 DCs per node, the paper's 10000/5000 and 2000/5000
    ratios).  Every topology is built, and every cell's sizes checked,
    before the first solve.
    """
    networks = []
    for n in node_counts:
        network = inet_network(
            num_nodes=n,
            num_links=2 * n,
            num_datacenters=max(1, int(0.4 * n)),
            seed=seed,
        )
        for s in source_counts:
            network.check_instance_sizes(
                s, num_destinations, num_vms, chain_length
            )
        networks.append((n, network))
    results: Dict[Tuple[int, int], float] = {}
    for n, network in networks:
        for s in source_counts:
            instance = network.make_instance(
                num_sources=s,
                num_destinations=num_destinations,
                num_vms=num_vms,
                chain=ServiceChain.of_length(chain_length),
                seed=seed + n + s,
            )
            start = time.perf_counter()
            sofda(instance)
            results[(n, s)] = time.perf_counter() - start
    return results


def table2_qoe(
    trials: int = 30, seed: int = 4
) -> Dict[str, Dict[str, float]]:
    """Table II: startup latency and re-buffering time per algorithm."""
    reports = run_qoe_experiment(
        {
            "SOFDA": lambda inst: sofda(inst, steiner_method="exact").forest,
            "eNEMP": lambda inst: enemp_baseline(inst, steiner_method="exact"),
            "eST": lambda inst: est_baseline(inst, steiner_method="exact"),
        },
        trials=trials,
        seed=seed,
    )
    return {
        name: {
            "startup_latency_s": report.mean_startup_latency,
            "rebuffering_s": report.mean_rebuffering,
        }
        for name, report in reports.items()
    }
