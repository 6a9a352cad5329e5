"""Iterative multi-source tree addition (Section VIII-A).

The paper enables eST and eNEMP "to support multiple sources via the
modification as follows: iteratively add a service tree in the solution
until no tree can reduce the total cost.  At each iteration, we elect the
minimal-cost service tree among all candidate trees rooted at each unused
source, run VNFs sequentially on unused VMs, and span all the destinations
in D ... we calculate the total cost of the current forest with the
elected tree, where each destination is spanned and served by the closest
tree."

``iterative_multi_source`` implements exactly that loop on top of a
pluggable single-tree builder (eST's or eNEMP's).
"""

from __future__ import annotations

from typing import Callable, Hashable, List, Optional, Set

from repro.baselines.common import SingleTree, assemble_forest
from repro.core.forest import ServiceOverlayForest
from repro.core.problem import SOFInstance
from repro.core.validation import check_forest

Node = Hashable

SingleTreeBuilder = Callable[..., Optional[SingleTree]]


def iterative_multi_source(
    instance: SOFInstance,
    builder: SingleTreeBuilder,
    steiner_method: str = "kmb",
    multi_source: bool = True,
) -> ServiceOverlayForest:
    """Grow a forest one service tree at a time while the cost drops.

    Args:
        instance: the SOF instance.
        builder: single-tree constructor with signature
            ``builder(instance, source, allowed_vms, steiner_method=...)``.
        steiner_method: Steiner solver passed through to the builder and
            the destination-assignment combiner.
        multi_source: when ``False``, stop after the first tree (the
            single-source variants used in the #sources=1 sweeps).
    """
    used_sources: Set[Node] = set()
    used_vms: Set[Node] = set()
    trees: List[SingleTree] = []
    best_forest: Optional[ServiceOverlayForest] = None
    best_cost = float("inf")

    while True:
        remaining = sorted(instance.sources - used_sources, key=repr)
        if not remaining:
            break
        allowed = instance.vms - used_vms
        candidates: List[SingleTree] = []
        for s in remaining:
            tree = builder(instance, s, allowed, steiner_method=steiner_method)
            if tree is not None:
                candidates.append(tree)
        if not candidates:
            break
        elected = min(candidates, key=lambda t: t.chain_cost)
        trial_trees = trees + [elected]
        trial = assemble_forest(
            instance, trial_trees, steiner_method=steiner_method
        )
        trial_cost = trial.total_cost()
        if trial_cost < best_cost:
            trees = trial_trees
            best_forest, best_cost = trial, trial_cost
            used_sources.add(elected.source)
            used_vms.update(
                elected.chain.walk[pos] for pos in elected.chain.placements
            )
            if not multi_source:
                break
        else:
            break

    if best_forest is None:
        raise RuntimeError("multi-source wrapper produced no feasible forest")
    check_forest(instance, best_forest)
    return best_forest
