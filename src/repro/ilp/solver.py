"""Solve the compiled SOF MILP with HiGHS and extract a forest.

:func:`solve_sof_ilp` returns both the raw optimum objective (directly
comparable with the paper's CPLEX rows) and a decoded
:class:`~repro.core.forest.ServiceOverlayForest`, so the optimum can be
validated with the same feasibility checker and cost evaluator as every
heuristic.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Tuple

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from repro.core.forest import DeployedChain, ServiceOverlayForest
from repro.core.problem import SOFInstance
from repro.core.validation import check_forest
from repro.ilp.model import SOFModel, build_model

Node = Hashable
Arc = Tuple[Node, Node]


@dataclass
class ILPSolution:
    """Result of an exact solve.

    Attributes:
        objective: the IP optimum (the paper's "CPLEX" value).
        forest: the decoded forest (validated), or ``None`` when decoding
            was skipped.
        status: HiGHS status string.
        optimal: whether the solver proved optimality.
    """

    objective: float
    forest: Optional[ServiceOverlayForest]
    status: str
    optimal: bool


def _trace_stage_path(
    selected: Dict[Node, List[Node]], start: Node, goal: Node
) -> List[Node]:
    """BFS over selected stage arcs from ``start`` to ``goal``."""
    if start == goal:
        return [start]
    parent: Dict[Node, Node] = {}
    queue = deque([start])
    seen = {start}
    while queue:
        node = queue.popleft()
        for nxt in selected.get(node, ()):
            if nxt in seen:
                continue
            seen.add(nxt)
            parent[nxt] = node
            if nxt == goal:
                path = [goal]
                while path[-1] != start:
                    path.append(parent[path[-1]])
                path.reverse()
                return path
            queue.append(nxt)
    raise ValueError(f"IP solution has no stage path {start!r} -> {goal!r}")


def extract_forest(model: SOFModel, x: np.ndarray) -> ServiceOverlayForest:
    """Decode a binary solution vector into a service overlay forest.

    Per destination: read the source and VM assignments from ``γ``, then
    trace each stage's sub-walk through the selected ``π`` arcs.  The
    forest has one chain per destination; the stage-keyed cost accounting
    of :class:`ServiceOverlayForest` then reproduces the IP's ``τ``
    objective (shared stage arcs paid once).
    """
    instance = model.instance
    L = len(instance.chain)
    forest = ServiceOverlayForest(instance=instance)

    # Group the selected π arcs by (destination, stage) in one pass.
    selected_arcs: Dict[Tuple[Node, int], Dict[Node, List[Node]]] = {}
    for (d, f, arc), idx in model.pi_index.items():
        if x[idx] > 0.5:
            selected_arcs.setdefault((d, f), {}).setdefault(arc[0], []).append(arc[1])

    for d in sorted(instance.destinations, key=repr):
        source = next(
            s for s in sorted(instance.sources, key=repr)
            if x[model.gamma_index[(d, -1, s)]] > 0.5
        )
        vm_of: Dict[int, Node] = {
            f: next(
                u for u in sorted(instance.vms, key=repr)
                if x[model.gamma_index[(d, f, u)]] > 0.5
            )
            for f in range(L)
        }
        # Waypoints: source, VM of f1, ..., VM of fL, destination.  Stage f
        # runs from waypoints[f+1] to waypoints[f+2]; function f+1 (0-based)
        # is placed at the node where stage f's segment ends.
        waypoints = [source] + [vm_of[f] for f in range(L)] + [d]
        walk: List[Node] = [source]
        placements: Dict[int, int] = {}
        for f in range(-1, L):
            segment = _trace_stage_path(
                selected_arcs.get((d, f), {}), waypoints[f + 1], waypoints[f + 2]
            )
            walk.extend(segment[1:])
            if f + 1 < L:
                # Stage f ends at the VM running function f+1 (0-based).
                placements[len(walk) - 1] = f + 1
        forest.chains.append(DeployedChain(walk=walk, placements=placements))
    # Rebuild the enabled map from the per-destination placements.
    enabled: Dict[Node, int] = {}
    for chain in forest.chains:
        for pos, vnf in chain.placements.items():
            enabled[chain.walk[pos]] = vnf
    forest.enabled = enabled
    return forest


def solve_sof_ilp(
    instance: SOFInstance,
    time_limit: Optional[float] = None,
    decode: bool = True,
) -> ILPSolution:
    """Solve the SOF IP exactly (the paper's CPLEX column).

    Args:
        instance: the SOF instance.
        time_limit: optional solver wall-clock limit in seconds.
        decode: also reconstruct the forest from the solution vector
            (always feasibility-checked).
    """
    model = build_model(instance)
    options: Dict[str, float] = {}
    if time_limit is not None:
        options["time_limit"] = float(time_limit)
    result = milp(
        c=model.objective,
        constraints=LinearConstraint(model.matrix, model.lower, model.upper),
        integrality=np.ones_like(model.objective),
        bounds=Bounds(0.0, 1.0),
        options=options or None,
    )
    if result.x is None:
        raise RuntimeError(f"ILP solve failed: {result.message}")
    forest = None
    if decode:
        forest = extract_forest(model, result.x)
        check_forest(instance, forest)
    return ILPSolution(
        objective=float(result.fun),
        forest=forest,
        status=str(result.message),
        optimal=bool(result.status == 0),
    )


def sof_lp_bound(instance: SOFInstance) -> float:
    """LP-relaxation lower bound (useful on instances too big for the IP)."""
    model = build_model(instance)
    result = milp(
        c=model.objective,
        constraints=LinearConstraint(model.matrix, model.lower, model.upper),
        integrality=np.zeros_like(model.objective),
        bounds=Bounds(0.0, 1.0),
    )
    if result.x is None:
        raise RuntimeError(f"LP solve failed: {result.message}")
    return float(result.fun)
