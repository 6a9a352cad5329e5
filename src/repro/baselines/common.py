"""Shared helpers for the baseline algorithms."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, List, Optional, Sequence

from repro.core.forest import DeployedChain, ServiceOverlayForest
from repro.core.problem import SOFInstance
from repro.graph import steiner_tree

Node = Hashable


@dataclass
class SingleTree:
    """One baseline service tree: a deployed chain plus its hand-off point.

    ``chain_cost`` is the chain's standalone cost (setup + walk edges); the
    distribution tree is (re)built by the multi-source combiner, so it is
    not stored here.
    """

    source: Node
    chain: DeployedChain
    chain_cost: float

    @property
    def handoff(self) -> Node:
        """The node where fully-processed content becomes available."""
        return self.chain.walk[-1]


def greedy_chain(
    instance: SOFInstance,
    source: Node,
    allowed_vms: Iterable[Node],
    num_functions: Optional[int] = None,
) -> Optional[DeployedChain]:
    """Nearest-VM sequential chain construction (the style of [13]).

    From the current endpoint, repeatedly hop to the unused allowed VM
    minimising (shortest-path distance + setup cost), once per function
    (``num_functions`` defaults to ``|C|``; eNEMP passes ``|C|-1`` and
    places the last VNF on its anchor VM itself).

    Returns a (possibly partial) :class:`DeployedChain` or ``None`` when
    the pool is too small or disconnected.
    """
    oracle = instance.oracle
    distance = oracle.distance
    setup_cost = instance.setup_cost
    count = num_functions if num_functions is not None else len(instance.chain)
    pool = set(allowed_vms)
    pool.discard(source)
    if len(pool) < count:
        return None
    walk: List[Node] = [source]
    placements: dict = {}
    current = source
    for vnf in range(count):
        best_vm = None
        best_score = float("inf")
        # Scan in repr order: the first strict minimum breaks ties, and
        # the order in which the scan builds oracle rows -- which decides
        # the endpoint row that serves later symmetric queries -- does
        # not depend on the hash seed.
        for vm in sorted(pool, key=repr):
            d = distance(current, vm)
            if d == float("inf"):
                continue
            score = d + setup_cost(vm)
            if score < best_score:
                best_vm, best_score = vm, score
        if best_vm is None:
            return None
        segment = oracle.path(current, best_vm)
        walk.extend(segment[1:])
        placements[len(walk) - 1] = vnf
        pool.discard(best_vm)
        current = best_vm
    return DeployedChain(walk=walk, placements=placements)


def chain_total_cost(instance: SOFInstance, chain: DeployedChain) -> float:
    """Standalone cost of a chain: VM setups + per-traversal walk edges."""
    cost = sum(
        instance.setup_cost(chain.walk[pos]) for pos in chain.placements
    )
    for u, v in chain.all_edges():
        cost += instance.graph.cost(u, v)
    return cost


def extend_to(
    instance: SOFInstance, chain: DeployedChain, target: Node
) -> DeployedChain:
    """Append a pass-through shortest path from the chain's end to ``target``."""
    if chain.walk[-1] == target:
        return chain
    path = instance.oracle.path(chain.walk[-1], target)
    out = chain.copy()
    out.walk.extend(path[1:])
    return out


def assemble_forest(
    instance: SOFInstance,
    trees: Sequence[SingleTree],
    steiner_method: str = "kmb",
    prune: bool = True,
) -> ServiceOverlayForest:
    """Combine baseline trees into a forest (the paper's combiner).

    Each destination is served by the tree whose hand-off point is closest;
    each tree then gets a Steiner tree over its hand-off point and assigned
    destinations.  Unassigned trees still pay their chain (the caller's
    iterative wrapper only accepts additions that lower the total cost, so
    useless trees are naturally rejected).
    """
    oracle = instance.oracle
    forest = ServiceOverlayForest(instance=instance)
    for tree in trees:
        forest.add_chain(tree.chain.copy())
    assignment: dict = {i: [] for i in range(len(trees))}
    for dest in sorted(instance.destinations, key=repr):
        best_i = min(
            range(len(trees)),
            key=lambda i: oracle.distance(trees[i].handoff, dest),
        )
        assignment[best_i].append(dest)
    for i, tree in enumerate(trees):
        dests = assignment[i]
        if not dests:
            continue
        result = steiner_tree(
            instance.graph,
            [tree.handoff] + dests,
            method=steiner_method,
            oracle=oracle,
        )
        forest.add_tree(result.tree)
    if prune:
        forest.prune_tree_edges()
    return forest
