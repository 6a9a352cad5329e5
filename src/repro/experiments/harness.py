"""Seed-averaged parameter sweeps (the skeleton of Figs. 8-11).

Every figure in the evaluation is "total forest cost vs one swept
parameter, one curve per algorithm, other parameters at their defaults".
:func:`run_sweep` materialises that directly: for each swept value it
draws ``seeds`` instances from the topology, runs every algorithm, and
averages costs.

``run_sweep(workers=N)`` farms the independent (parameter-value, seed)
cells to a fork-based process pool (:func:`repro.graph.kernel.fork_map`):
every cell builds its own instance from the same seeds, so the per-cell
computation is identical to the serial path and the ordered merge makes
the output deterministic -- only the measured runtimes reflect the
parallel wall clock.

:func:`run_churn_comparison` is the tenant-lifecycle analogue of the
online comparison: one embedder-independent workload schedule (arrivals
with holding times, departures, background ticks -- see
:mod:`repro.workload`) replayed through every algorithm on identical
fresh simulators, reporting acceptance rates alongside costs.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.baselines import enemp_baseline, est_baseline, st_baseline
from repro.core.forest import ServiceOverlayForest
from repro.core.problem import ServiceChain, SOFInstance
from repro.core.sofda import sofda
from repro.graph import kernel
from repro.topology.network import CloudNetwork

Embedder = Callable[[SOFInstance], ServiceOverlayForest]

#: Paper defaults (Section VIII-A): sources, destinations, VMs, chain length.
DEFAULTS = {
    "num_sources": 14,
    "num_destinations": 6,
    "num_vms": 25,
    "chain_length": 3,
}

#: The sweep grids of Figs. 8-10.
SWEEPS = {
    "num_sources": [2, 8, 14, 20, 26],
    "num_destinations": [2, 4, 6, 8, 10],
    "num_vms": [5, 15, 25, 35, 45],
    "chain_length": [3, 4, 5, 6, 7],
}


def default_algorithms(include_ilp: bool = False, ilp_time_limit: float = 120.0) -> Dict[str, Embedder]:
    """The paper's algorithm set; CPLEX (HiGHS) only on request."""
    algorithms: Dict[str, Embedder] = {
        "SOFDA": lambda inst: sofda(inst).forest,
        "eNEMP": enemp_baseline,
        "eST": est_baseline,
        "ST": st_baseline,
    }
    if include_ilp:
        from repro.ilp import solve_sof_ilp

        algorithms["CPLEX"] = lambda inst: solve_sof_ilp(
            inst, time_limit=ilp_time_limit
        ).forest
    return algorithms


ALGORITHMS = ("SOFDA", "eNEMP", "eST", "ST")


@dataclass
class SweepResult:
    """One figure panel: swept values x algorithms -> mean cost."""

    parameter: str
    values: List[float]
    mean_cost: Dict[str, List[float]] = field(default_factory=dict)
    mean_vms_used: Dict[str, List[float]] = field(default_factory=dict)
    mean_runtime_s: Dict[str, List[float]] = field(default_factory=dict)

    def winner_per_value(self) -> List[str]:
        """Cheapest algorithm at each swept value."""
        out = []
        for i in range(len(self.values)):
            out.append(
                min(self.mean_cost, key=lambda name: self.mean_cost[name][i])
            )
        return out


def run_churn_comparison(
    network_factory: Callable[[], CloudNetwork],
    embedders: Dict[str, Embedder],
    schedule: Sequence,
    vms_per_datacenter: int = 5,
    **simulator_kwargs,
) -> Dict[str, "ChurnResult"]:
    """Replay one churn schedule through every algorithm.

    The tenant-lifecycle counterpart of
    :func:`repro.online.run_online_comparison`: each algorithm gets a
    fresh :class:`~repro.online.simulator.OnlineSimulator` over an
    identical topology and its own
    :class:`~repro.workload.WorkloadEngine`, so load state never leaks
    between competitors while every one sees the identical
    embedder-independent event sequence (typically a recorded or
    replayed trace -- see :mod:`repro.workload.trace`).
    ``simulator_kwargs`` (``incremental``, ``row_budget_bytes``, ...) reach
    every simulator, which keeps A/B configuration comparisons on one
    algorithm equally easy.
    """
    from repro.online.simulator import OnlineSimulator
    from repro.workload.lifecycle import ChurnResult, WorkloadEngine  # noqa: F401

    results: Dict[str, ChurnResult] = {}
    for name, embedder in embedders.items():
        simulator = OnlineSimulator(
            network_factory(), vms_per_datacenter=vms_per_datacenter,
            **simulator_kwargs,
        )
        engine = WorkloadEngine(simulator, embedder, name=name)
        results[name] = engine.run(schedule)
    return results


#: Shared state for sweep cells.  Populated in the parent before the
#: fork-based pool is created, so workers inherit it by memory copy --
#: no pickling of the network or the (often lambda) embedders involved.
_SWEEP_STATE: Dict[str, object] = {}


def _sweep_cell(cell: Tuple[Dict[str, int], int]) -> Dict[str, Tuple[float, int, float]]:
    """Run every algorithm on one (config, seed) cell.

    Each cell builds its own instance, so cells are independent and the
    result is a pure function of ``(network, config, seed, algorithms)``
    -- identical whether evaluated serially or in a pool worker.
    """
    config, seed = cell
    state = _SWEEP_STATE
    network: CloudNetwork = state["network"]
    algorithms: Dict[str, Embedder] = state["algorithms"]
    instance = network.make_instance(
        num_sources=config["num_sources"],
        num_destinations=config["num_destinations"],
        num_vms=config["num_vms"],
        chain=ServiceChain.of_length(config["chain_length"]),
        seed=seed * 7919,
        setup_cost_multiplier=state["setup_cost_multiplier"],
        link_capacity=state["link_capacity"],
        vm_capacity=state["vm_capacity"],
    )
    out: Dict[str, Tuple[float, int, float]] = {}
    for name, embedder in algorithms.items():
        start = time.perf_counter()
        forest = embedder(instance)
        elapsed = time.perf_counter() - start
        out[name] = (forest.total_cost(), len(forest.used_vms()), elapsed)
    return out


def sweep_configs(
    network: CloudNetwork,
    parameter: str,
    values: Sequence[float],
    overrides: Optional[Dict[str, int]] = None,
) -> List[Dict[str, int]]:
    """The instance sizes of one sweep, one config per value.

    ``overrides`` adjusts the non-swept defaults.  Every config is
    checked against ``network`` (:meth:`CloudNetwork.check_instance_sizes`),
    so a grid the network cannot draw raises ``ValueError`` before
    anything is solved.
    """
    if parameter not in DEFAULTS:
        raise ValueError(
            f"unknown parameter {parameter!r}; choose from {sorted(DEFAULTS)}"
        )
    base = dict(DEFAULTS)
    if overrides:
        base.update(overrides)
    configs: List[Dict[str, int]] = []
    for value in values:
        config = dict(base)
        config[parameter] = int(value)
        network.check_instance_sizes(
            config["num_sources"], config["num_destinations"],
            config["num_vms"], config["chain_length"],
        )
        configs.append(config)
    return configs


def run_sweep(
    network: CloudNetwork,
    parameter: str,
    values: Sequence[float],
    algorithms: Optional[Dict[str, Embedder]] = None,
    seeds: int = 5,
    setup_cost_multiplier: float = 1.0,
    overrides: Optional[Dict[str, int]] = None,
    link_capacity: float = 1.0,
    vm_capacity: float = 1.0,
    workers: int = 1,
    metrics=None,
) -> SweepResult:
    """Sweep ``parameter`` over ``values`` with everything else at defaults.

    ``overrides`` adjusts the non-swept defaults (e.g. smaller defaults for
    quick CI benches).  Costs use unit capacities, matching the
    shape-normalised setting discussed in DESIGN.md.

    ``workers > 1`` evaluates the (value, seed) cells on a fork-based
    process pool (:func:`repro.graph.kernel.fork_map`); the merge runs in
    cell order, so costs and VM counts are bit-identical to the serial
    run (only the measured runtimes differ -- they report each cell's
    own wall clock).  Platforms without the fork start method fall back
    to serial evaluation and say so with a one-time ``RuntimeWarning``.

    ``metrics`` (an optional :class:`~repro.obs.recorder.Recorder`)
    folds the per-cell solver timings into the registry *after* the
    pool merge, in deterministic cell order: one ``sweep.cell``
    histogram observation per (cell, algorithm) plus a ``sweep.cells``
    counter.  Anything recorded inside a forked worker dies with its
    copy-on-write memory, so this parent-side merge is the only place
    sweep timings reach a registry.
    """
    configs = sweep_configs(network, parameter, values, overrides)
    algorithms = algorithms or default_algorithms()
    result = SweepResult(parameter=parameter, values=list(values))
    for name in algorithms:
        result.mean_cost[name] = []
        result.mean_vms_used[name] = []
        result.mean_runtime_s[name] = []

    cells: List[Tuple[Dict[str, int], int]] = [
        (config, seed) for config in configs for seed in range(seeds)
    ]

    _SWEEP_STATE.update(
        network=network,
        algorithms=algorithms,
        setup_cost_multiplier=setup_cost_multiplier,
        link_capacity=link_capacity,
        vm_capacity=vm_capacity,
    )
    try:
        cell_results = kernel.fork_map(
            _sweep_cell, cells, workers,
            label=f"run_sweep(workers={workers})", chunksize=1,
        )
    finally:
        _SWEEP_STATE.clear()

    mx = metrics if metrics else None
    if mx:
        for (config, seed), cell in zip(cells, cell_results):
            mx.inc("sweep.cells", parameter=parameter)
            for name in algorithms:
                mx.observe("sweep.cell", cell[name][2], algo=name)

    for value_index in range(len(values)):
        block = cell_results[value_index * seeds:(value_index + 1) * seeds]
        for name in algorithms:
            result.mean_cost[name].append(
                statistics.mean(r[name][0] for r in block)
            )
            result.mean_vms_used[name].append(
                statistics.mean(r[name][1] for r in block)
            )
            result.mean_runtime_s[name].append(
                statistics.mean(r[name][2] for r in block)
            )
    return result
