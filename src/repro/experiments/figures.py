"""Per-figure data-series builders (Figs. 7-12).

Each function regenerates one figure's data in the paper's format; the
benchmark modules wrap them with ``pytest-benchmark`` and print the series
next to the paper's reported shape.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.sofda import sofda
from repro.baselines import enemp_baseline, est_baseline, st_baseline
from repro.costmodel import fortz_thorup_curve
from repro.experiments.harness import (
    SWEEPS, SweepResult, default_algorithms, run_sweep, sweep_configs,
)
from repro.online import RequestGenerator, run_online_comparison
from repro.topology import cogent_network, inet_network, softlayer_network


def fig7_cost_function(samples: int = 121) -> List[Tuple[float, float]]:
    """Fig. 7: the Fortz--Thorup cost curve for p = 1, load 0..1.2."""
    return fortz_thorup_curve(capacity=1.0, max_utilisation=1.2, samples=samples)


def _four_panel(
    network,
    seeds: int,
    include_ilp: bool,
    overrides: Optional[Dict[str, int]] = None,
    sweeps: Optional[Dict[str, Sequence[int]]] = None,
    ilp_time_limit: float = 120.0,
    workers: int = 1,
    metrics=None,
) -> Dict[str, SweepResult]:
    algorithms = default_algorithms(
        include_ilp=include_ilp, ilp_time_limit=ilp_time_limit
    )
    sweeps = sweeps or SWEEPS
    for parameter, values in sweeps.items():
        # Every panel's sizes, before the first panel solves anything.
        sweep_configs(network, parameter, values, overrides)
    return {
        parameter: run_sweep(
            network, parameter, values,
            algorithms=algorithms, seeds=seeds, overrides=overrides,
            workers=workers, metrics=metrics,
        )
        for parameter, values in sweeps.items()
    }


def fig8_softlayer(
    seeds: int = 5,
    include_ilp: bool = True,
    overrides: Optional[Dict[str, int]] = None,
    sweeps: Optional[Dict[str, Sequence[int]]] = None,
    topology_seed: int = 1,
    ilp_time_limit: float = 120.0,
    workers: int = 1,
    metrics=None,
) -> Dict[str, SweepResult]:
    """Fig. 8: the four sweeps on SoftLayer, including the CPLEX optimum.

    ``ilp_time_limit`` caps each HiGHS solve; past it the incumbent is
    plotted (as the paper does with CPLEX on hard instances).
    ``workers`` farms the sweep cells to a process pool (see
    :func:`~repro.experiments.harness.run_sweep`).
    """
    return _four_panel(
        softlayer_network(seed=topology_seed), seeds, include_ilp, overrides,
        sweeps, ilp_time_limit=ilp_time_limit, workers=workers,
        metrics=metrics,
    )


def fig9_cogent(
    seeds: int = 5,
    overrides: Optional[Dict[str, int]] = None,
    sweeps: Optional[Dict[str, Sequence[int]]] = None,
    topology_seed: int = 1,
    workers: int = 1,
    metrics=None,
) -> Dict[str, SweepResult]:
    """Fig. 9: the four sweeps on Cogent (no CPLEX -- too large)."""
    return _four_panel(
        cogent_network(seed=topology_seed), seeds, False, overrides, sweeps,
        workers=workers, metrics=metrics,
    )


def fig10_inet(
    seeds: int = 3,
    num_nodes: int = 500,
    num_links: int = 1000,
    num_datacenters: int = 200,
    overrides: Optional[Dict[str, int]] = None,
    sweeps: Optional[Dict[str, Sequence[int]]] = None,
    topology_seed: int = 1,
    workers: int = 1,
    metrics=None,
) -> Dict[str, SweepResult]:
    """Fig. 10: the four sweeps on the Inet-style synthetic topology.

    The paper uses 5000 nodes / 10000 links / 2000 DCs; the default here is
    a 10x-scaled-down network so the full figure regenerates in minutes --
    pass the paper's numbers for the full run.
    """
    network = inet_network(
        num_nodes=num_nodes,
        num_links=num_links,
        num_datacenters=num_datacenters,
        seed=topology_seed,
    )
    return _four_panel(
        network, seeds, False, overrides, sweeps, workers=workers,
        metrics=metrics,
    )


def fig11_setup_cost(
    seeds: int = 5,
    multiples: Sequence[float] = (1, 3, 5, 7, 9),
    chain_lengths: Sequence[int] = (3, 4, 5, 6, 7),
    overrides: Optional[Dict[str, int]] = None,
    topology_seed: int = 1,
    workers: int = 1,
    metrics=None,
) -> Dict[str, Dict[int, List[float]]]:
    """Fig. 11: SOFDA's cost (a) and used-VM count (b) vs setup-cost multiple.

    Returns ``{"cost": {|C|: [per-multiple mean]}, "vms": {...}}``.
    """
    network = softlayer_network(seed=topology_seed)
    cost: Dict[int, List[float]] = {}
    vms: Dict[int, List[float]] = {}
    algorithms = {"SOFDA": lambda inst: sofda(inst).forest}
    for length in chain_lengths:
        cost[length] = []
        vms[length] = []
        for multiple in multiples:
            merged_overrides = dict(overrides or {})
            merged_overrides["chain_length"] = int(length)
            sweep = run_sweep(
                network,
                "chain_length",
                [length],
                algorithms=algorithms,
                seeds=seeds,
                setup_cost_multiplier=float(multiple),
                overrides=merged_overrides,
                workers=workers,
                metrics=metrics,
            )
            cost[length].append(sweep.mean_cost["SOFDA"][0])
            vms[length].append(sweep.mean_vms_used["SOFDA"][0])
    return {"cost": cost, "vms": vms}


def fig12_online(
    topology: str = "softlayer",
    num_requests: int = 30,
    seed: int = 0,
    topology_seed: int = 1,
    metrics=None,
) -> Dict[str, List[float]]:
    """Fig. 12: accumulative online cost per algorithm.

    ``topology`` is ``softlayer`` (Fig. 12(a)) or ``cogent`` (Fig. 12(b));
    the request mix follows the paper's per-topology ranges.
    """
    if topology == "softlayer":
        factory = lambda: softlayer_network(seed=topology_seed)  # noqa: E731
    elif topology == "cogent":
        factory = lambda: cogent_network(seed=topology_seed)  # noqa: E731
    else:
        raise ValueError(f"unknown topology {topology!r}")
    network = factory()
    generator = RequestGenerator(network, seed=seed)
    requests = generator.take(num_requests)
    embedders = {
        "SOFDA": lambda inst: sofda(inst).forest,
        "eNEMP": enemp_baseline,
        "eST": est_baseline,
        "ST": st_baseline,
    }
    results = run_online_comparison(factory, embedders, requests,
                                    metrics=metrics)
    return {name: result.accumulative_cost for name, result in results.items()}
