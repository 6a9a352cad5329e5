"""eST baseline: enhanced Steiner tree (Section VIII-A).

Single-tree core: pick the cheapest Steiner tree over the destinations
among all sources, then "construct the shortest service chain that is
closest to the tree from [13], [62] and connect it to the tree with the
minimum cost".  Chain construction follows the sequential VNF-deployment
style of [13] (nearest-VM hops -- see
:func:`repro.baselines.common.greedy_chain`); the chain's last VM is then
attached to the nearest tree node.  The tree routing and the chain are
optimised *separately* -- exactly the decoupling SOFDA improves on.
Multiple sources come from the iterative tree-addition wrapper
(:mod:`repro.baselines.multi_source`).
"""

from __future__ import annotations

from typing import Hashable, Iterable, Optional

from repro.baselines.common import (
    SingleTree,
    chain_total_cost,
    extend_to,
    greedy_chain,
)
from repro.baselines.multi_source import iterative_multi_source
from repro.core.forest import ServiceOverlayForest
from repro.core.problem import SOFInstance
from repro.graph import steiner_tree

Node = Hashable


def _est_single_tree(
    instance: SOFInstance,
    source: Node,
    allowed_vms: Iterable[Node],
    steiner_method: str = "kmb",
) -> Optional[SingleTree]:
    """The eST single-tree builder used by the multi-source wrapper."""
    oracle = instance.oracle
    destinations = sorted(instance.destinations, key=repr)
    allowed = set(allowed_vms)
    if len(allowed) < len(instance.chain):
        return None
    try:
        tree = steiner_tree(
            instance.graph, [source] + destinations,
            method=steiner_method, oracle=oracle,
        )
    except ValueError:
        return None
    tree_nodes = list(tree.tree.nodes()) or [source]

    chain = greedy_chain(instance, source, allowed)
    if chain is None:
        return None
    attach = min(tree_nodes, key=lambda n: oracle.distance(chain.walk[-1], n))
    chain = extend_to(instance, chain, attach)
    return SingleTree(
        source=source, chain=chain,
        chain_cost=chain_total_cost(instance, chain),
    )


def est_baseline(
    instance: SOFInstance,
    steiner_method: str = "kmb",
    multi_source: bool = True,
) -> ServiceOverlayForest:
    """Run eST (optionally with the iterative multi-source extension)."""
    return iterative_multi_source(
        instance,
        _est_single_tree,
        steiner_method=steiner_method,
        multi_source=multi_source,
    )
