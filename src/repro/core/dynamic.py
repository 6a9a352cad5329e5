"""Dynamic-case adjustments (Section VII-C).

After a session starts, the forest must adapt without re-running SOFDA from
scratch.  The paper lists six events; each is implemented as a function
taking the current :class:`~repro.core.forest.ServiceOverlayForest` and
returning an updated forest (the input is never mutated):

1. :func:`destination_leave` -- drop a leaf destination and its dangling
   path up to the nearest branch node.
2. :func:`destination_join` -- connect a new destination to the cheapest
   point of the forest, installing the missing VNF suffix via k-stroll on
   the transformed graph when the join point sits mid-chain.
3. :func:`vnf_deletion` -- remove a VNF from the chain, short-circuiting
   each affected VM via the minimum-cost path between its neighbours.
4. :func:`vnf_insertion` -- insert a VNF, choosing for each affected
   chain the VM minimising (path + setup + path) between the adjacent VNFs.
5. :func:`reroute_congested_link` -- update costs and re-connect the two
   endpoints of a congested link via the cheapest alternative path.
6. :func:`relocate_overloaded_vm` -- move a VNF off an overloaded VM to
   the best alternative and re-connect its neighbours.

These operations favour locality over global optimality, exactly as the
paper argues (re-running SOFDA per membership change would swamp the
controller).
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Tuple

from repro.core.forest import DeployedChain, ServiceOverlayForest
from repro.core.problem import ServiceChain, SOFInstance
from repro.core.transform import chain_walk
from repro.core.validation import check_forest, is_feasible
from repro.graph.graph import canonical_edge

Node = Hashable


class DynamicError(Exception):
    """Raised when a dynamic adjustment cannot be applied."""


def _rebuild_chain(
    instance: SOFInstance,
    old_chain: DeployedChain,
    anchors: List[Tuple[Node, int]],
    dead: Optional[Tuple[Node, Node]] = None,
) -> DeployedChain:
    """Rebuild a chain walk through a new anchor (VM, vnf) sequence.

    Consecutive anchors are connected by fresh shortest paths; the original
    walk's *delivery tail* (everything after its last placement, which may
    pass through several destinations) is preserved verbatim, re-connected
    from the new final anchor if needed.  A tail that crosses the failed
    link ``dead`` (a canonical edge) cannot be kept: the destinations it
    passed are re-delivered in order over fresh shortest paths instead.
    """
    oracle = instance.oracle
    anchors = sorted(anchors, key=lambda a: a[1])
    walk: List[Node] = [old_chain.walk[0]]
    placements: Dict[int, int] = {}
    for node, vnf in anchors:
        segment = oracle.path(walk[-1], node)
        walk.extend(segment[1:])
        placements[len(walk) - 1] = vnf
    if old_chain.placements:
        tail = old_chain.walk[max(old_chain.placements):]
        if dead is not None and any(
            canonical_edge(a, b) == dead for a, b in zip(tail, tail[1:])
        ):
            for stop in tail[1:]:
                if stop in instance.destinations and stop != walk[-1]:
                    walk.extend(oracle.path(walk[-1], stop)[1:])
        else:
            if walk[-1] != tail[0]:
                walk.extend(oracle.path(walk[-1], tail[0])[1:])
            walk.extend(tail[1:])
    return DeployedChain(walk=walk, placements=placements)


# ----------------------------------------------------------------------
# 1. destination leave
# ----------------------------------------------------------------------
def destination_leave(
    forest: ServiceOverlayForest, destination: Node
) -> Tuple[SOFInstance, ServiceOverlayForest]:
    """Remove ``destination``; prune its dangling distribution path.

    Returns the updated ``(instance, forest)`` pair (the instance shrinks
    its destination set).  If the destination is an interior node of the
    distribution tree, only membership changes -- the paper forbids
    removing paths that other users sit behind.
    """
    instance = forest.instance
    if destination not in instance.destinations:
        raise DynamicError(f"{destination!r} is not a current destination")
    new_instance = instance.derive(
        destinations=instance.destinations - {destination}
    )
    out = forest.copy()
    out.instance = new_instance
    # prune_tree_edges recomputes exactly the per-destination needed paths,
    # which implements "remove v and all intermediate nodes and links up to
    # the closest upstream branch node" for leaf destinations and is a
    # no-op for interior ones.
    out.prune_tree_edges()
    return new_instance, out


# ----------------------------------------------------------------------
# 2. destination join
# ----------------------------------------------------------------------
def _vnf_progress(forest: ServiceOverlayForest) -> Dict[Node, int]:
    """Map every forest node to f(u): VNFs applied when content passes it.

    Walk nodes get the placement count up to their position; distribution
    tree nodes inherit the full chain (they only carry final content).
    """
    progress: Dict[Node, int] = {}
    L = len(forest.instance.chain)
    for chain in forest.chains:
        for node, applied in zip(chain.walk, chain.stages()):
            progress[node] = max(progress.get(node, -1), applied)
    for u, v in forest.tree_edges:
        progress[u] = max(progress.get(u, -1), L)
        progress[v] = max(progress.get(v, -1), L)
    return progress


def destination_join(
    forest: ServiceOverlayForest, destination: Node
) -> Tuple[SOFInstance, ServiceOverlayForest]:
    """Attach a new destination at the minimum-increase point of the forest.

    For every candidate branch node ``u`` already in the forest, the cost
    of joining through ``u`` is the cost of a walk from ``u`` to the new
    destination that installs the ``|C| - f(u)`` missing VNFs (k-stroll on
    the transformed graph, Section VII-C.2); the cheapest candidate wins.
    """
    instance = forest.instance
    if destination in instance.destinations:
        raise DynamicError(f"{destination!r} already joined")
    if destination not in instance.graph:
        raise DynamicError(f"{destination!r} is not in the network")
    oracle = instance.oracle
    L = len(instance.chain)
    progress = _vnf_progress(forest)
    free_vms = sorted(
        (vm for vm in instance.vms if vm not in forest.enabled), key=repr
    )

    best: Optional[Tuple[float, Node, Optional[DeployedChain], List[Node]]] = None
    for u, applied in sorted(progress.items(), key=lambda kv: repr(kv[0])):
        missing = L - applied
        if missing == 0:
            d = oracle.distance(u, destination)
            if d == float("inf"):
                continue
            candidate = (d, u, None, oracle.path(u, destination))
        else:
            if len(free_vms) < missing:
                continue
            # Walk from u to the destination through `missing` fresh VMs.
            # chain_walk targets a VM, so pick the best last VM and append
            # the final hop to the destination.
            sub_best = None
            for last in free_vms:
                cw = chain_walk(
                    instance, u, last,
                    candidate_vms=free_vms, num_vms=missing,
                )
                if cw is None:
                    continue
                tail = oracle.distance(last, destination)
                if tail == float("inf"):
                    continue
                total = cw.total_cost + tail
                if sub_best is None or total < sub_best[0]:
                    sub_best = (total, cw, last)
            if sub_best is None:
                continue
            total, cw, last = sub_best
            walk = list(cw.walk) + oracle.path(last, destination)[1:]
            placements = {
                cw.positions[i + 1]: applied + i for i in range(missing)
            }
            candidate = (
                total, u,
                DeployedChain(walk=walk, placements=placements),
                [],
            )
        if best is None or candidate[0] < best[0]:
            best = candidate
    if best is None:
        raise DynamicError(f"no feasible join point for {destination!r}")

    _, join_node, suffix_chain, path = best
    new_instance = instance.derive(
        destinations=instance.destinations | {destination}
    )
    out = forest.copy()
    out.instance = new_instance
    if suffix_chain is None:
        for a, b in zip(path, path[1:]):
            out.add_tree_edge(a, b)
    else:
        # The suffix walk extends the serving chain: find the chain whose
        # walk contains the join node with full progress and splice.
        join_stage = L - len(suffix_chain.placements)
        host_idx, host_pos = next(
            (
                (idx, i)
                for idx, chain in enumerate(out.chains)
                for i, (node, stage) in enumerate(
                    zip(chain.walk, chain.stages())
                )
                if node == join_node and stage == join_stage
            ),
            (None, None),
        )
        if host_idx is None:
            raise DynamicError(
                f"join point {join_node!r} not found on any chain walk"
            )
        host = out.chains[host_idx]
        merged_walk = host.walk[: host_pos + 1] + suffix_chain.walk[1:]
        offset = host_pos
        merged_placements = {
            pos: vnf for pos, vnf in host.placements.items() if pos <= host_pos
        }
        for pos, vnf in suffix_chain.placements.items():
            merged_placements[pos + offset] = vnf
        new_chain = DeployedChain(
            walk=merged_walk,
            placements=merged_placements,
            paid_from_edge=host_pos,
            attached_to=host_idx,
        )
        for pos, vnf in new_chain.placements.items():
            out.enabled.setdefault(new_chain.walk[pos], vnf)
        out.chains.append(new_chain)
    check_forest(new_instance, out)
    return new_instance, out


# ----------------------------------------------------------------------
# 3./4. VNF deletion and insertion
# ----------------------------------------------------------------------
def vnf_deletion(
    forest: ServiceOverlayForest, vnf_index: int
) -> Tuple[SOFInstance, ServiceOverlayForest]:
    """Remove function ``vnf_index`` (0-based) from the chain and forest.

    Each affected chain short-circuits the deleted VM: the walk is rerouted
    along the minimum-cost path between the VMs of the adjacent VNFs (the
    source / tail standing in at the ends), per Section VII-C.3.
    """
    instance = forest.instance
    L = len(instance.chain)
    if not 0 <= vnf_index < L:
        raise DynamicError(f"no VNF with index {vnf_index}")
    if L == 1:
        raise DynamicError("cannot delete the only VNF in the chain")
    oracle = instance.oracle
    new_chain_spec = ServiceChain(
        f for i, f in enumerate(instance.chain) if i != vnf_index
    )
    new_instance = instance.with_chain(new_chain_spec)

    out = ServiceOverlayForest(instance=new_instance)
    for chain in forest.chains:
        anchors: List[Tuple[Node, int]] = []
        for pos, vnf in chain.vnf_positions():
            if vnf == vnf_index:
                continue
            new_vnf = vnf if vnf < vnf_index else vnf - 1
            anchors.append((chain.walk[pos], new_vnf))
        out.add_chain(_rebuild_chain(new_instance, chain, anchors))
    out.tree_edges = set(forest.tree_edges)
    check_forest(new_instance, out)
    return new_instance, out


def vnf_insertion(
    forest: ServiceOverlayForest,
    vnf_index: int,
    function_name: str,
) -> Tuple[SOFInstance, ServiceOverlayForest]:
    """Insert ``function_name`` at chain position ``vnf_index`` (0-based).

    For each chain, every available VM ``v`` is scored by (path from the
    upstream VNF's VM) + setup + (path to the downstream VNF's VM); the
    minimiser hosts the new function (Section VII-C.4).  When two chains
    pick the same VM, the second reuses the first's enabling.
    """
    instance = forest.instance
    L = len(instance.chain)
    if not 0 <= vnf_index <= L:
        raise DynamicError(f"insertion index {vnf_index} out of range")
    oracle = instance.oracle
    functions = list(instance.chain)
    functions.insert(vnf_index, function_name)
    new_instance = instance.with_chain(ServiceChain(functions))

    out = ServiceOverlayForest(instance=new_instance)
    chosen_vms: Dict[Node, int] = {}
    for chain in forest.chains:
        upstream = chain.walk[0]
        for pos, vnf in chain.vnf_positions():
            if vnf == vnf_index - 1:
                upstream = chain.walk[pos]
        downstream = chain.walk[-1]
        down_is_dest_side = True
        for pos, vnf in chain.vnf_positions():
            if vnf == vnf_index:
                downstream = chain.walk[pos]
                down_is_dest_side = False
                break
        used_here = {chain.walk[pos] for pos in chain.placements}
        best_vm: Optional[Node] = None
        best_cost = float("inf")
        for vm in sorted(instance.vms, key=repr):
            if vm in used_here:
                continue
            already = forest.enabled.get(vm)
            if already is not None:
                continue
            if vm in chosen_vms and chosen_vms[vm] != vnf_index:
                continue
            setup = 0.0 if vm in chosen_vms else instance.setup_cost(vm)
            c = oracle.distance(upstream, vm) + setup + oracle.distance(vm, downstream)
            if c < best_cost:
                best_vm, best_cost = vm, c
        if best_vm is None:
            raise DynamicError("no available VM for the inserted VNF")
        chosen_vms[best_vm] = vnf_index

        # Rebuild the chain walk with the new anchor sequence.
        anchors: List[Tuple[Node, int]] = []
        for pos, vnf in chain.vnf_positions():
            new_vnf = vnf if vnf < vnf_index else vnf + 1
            anchors.append((chain.walk[pos], new_vnf))
        anchors.append((best_vm, vnf_index))
        out.add_chain(_rebuild_chain(new_instance, chain, anchors))
    out.tree_edges = set(forest.tree_edges)
    check_forest(new_instance, out)
    return new_instance, out


# ----------------------------------------------------------------------
# 5./6. congestion handling
# ----------------------------------------------------------------------
def _reroute_distribution(
    forest: ServiceOverlayForest,
    out: ServiceOverlayForest,
    bad: Tuple[Node, Node],
) -> None:
    """Give ``out`` the distribution edges of ``forest`` without ``bad``.

    When ``bad`` was one of them, the dangling edges are pruned, and if
    a destination lost its delivery, every destination re-joins the
    forest, in repr order, along a shortest path from its nearest
    delivery point (chain tails from their last VNF, tree-edge ends):
    the first nearest point in repr order wins, so equal-distance
    tie-breaks do not depend on the salted set order.  Raises
    :class:`DynamicError` for a destination no delivery point reaches.
    """
    out.tree_edges = {e for e in forest.tree_edges if e != bad}
    if bad not in forest.tree_edges:
        return
    out.prune_tree_edges()
    instance = out.instance
    if is_feasible(instance, out):
        return
    points = set(out.delivery_points())
    points |= {a for e in out.tree_edges for a in e}
    points_in_order = sorted(points, key=repr)
    oracle = instance.oracle
    for dest in sorted(instance.destinations, key=repr):
        best_pt: Optional[Node] = None
        best_d = float("inf")
        for p in points_in_order:
            d = oracle.distance(p, dest)
            if d < best_d:
                best_d, best_pt = d, p
        if best_pt is None:
            raise DynamicError(
                f"destination {dest!r} unreachable after losing {bad!r}"
            )
        path = oracle.path(best_pt, dest)
        for a, b in zip(path, path[1:]):
            out.add_tree_edge(a, b)


def _reroute_around(
    forest: ServiceOverlayForest,
    instance: SOFInstance,
    bad: Tuple[Node, Node],
    failed: bool,
) -> ServiceOverlayForest:
    """``forest`` over ``instance`` with every use of the link ``bad`` rerouted.

    Each chain crossing ``bad`` (a canonical edge) is rebuilt between
    its anchors (:func:`_rebuild_chain`, with ``bad`` as the dead link
    when it ``failed``), the others are kept, and the distribution part
    drops ``bad`` and re-joins any destination it served
    (:func:`_reroute_distribution`).
    """
    out = ServiceOverlayForest(instance=instance)
    for chain in forest.chains:
        if any(canonical_edge(a, b) == bad for a, b in chain.all_edges()):
            anchors = [
                (chain.walk[pos], vnf) for pos, vnf in chain.vnf_positions()
            ]
            out.add_chain(_rebuild_chain(
                instance, chain, anchors, dead=bad if failed else None
            ))
        else:
            out.add_chain(chain.copy())
    _reroute_distribution(forest, out, bad)
    return out


def reroute_congested_link(
    forest: ServiceOverlayForest,
    link: Tuple[Node, Node],
    new_cost: float,
) -> Tuple[SOFInstance, ServiceOverlayForest]:
    """Raise a congested link's cost and reroute everything crossing it.

    The updated cost (from the Fortz--Thorup model) makes the embedder
    avoid the link; every chain segment and distribution path using it is
    re-connected via the now-cheapest alternative (Section VII-C.5).
    """
    instance = forest.instance
    u, v = link
    if not instance.graph.has_edge(u, v):
        raise DynamicError(f"({u!r}, {v!r}) is not a link")
    graph = instance.graph.copy()
    if instance._oracle is not None:
        # The new instance's oracle is the old one rebased onto the copy:
        # an unbuilt clone that keeps the parent oracle's hot set, row
        # budget and recorder, and builds its rows on demand from the
        # patched costs.  The original oracle is left untouched.
        new_oracle = instance._oracle.rebased(graph, {(u, v): new_cost})
    else:
        graph.add_edge(u, v, new_cost)
        new_oracle = None
    new_instance = instance.derive(oracle=new_oracle, graph=graph)
    # Chain segments crossing the link are re-connected between their
    # anchors (a delivery tail is preserved; its congested hops, if any,
    # are reflected in the updated cost), and destination paths crossing
    # it are rebuilt.
    out = _reroute_around(
        forest, new_instance, canonical_edge(u, v), failed=False
    )
    check_forest(new_instance, out)
    return new_instance, out


def reroute_failed_link(
    forest: ServiceOverlayForest, link: Tuple[Node, Node]
) -> ServiceOverlayForest:
    """Re-stitch a forest after its instance lost ``link`` entirely.

    The failure variant of :func:`reroute_congested_link`: the topology
    change has *already* been applied to the forest's live instance (the
    link is gone from the graph and the oracle repaired or invalidated),
    so no graph copy or rebased oracle is built -- every fresh path is
    asked of the shared post-failure oracle.  Each chain crossing the
    dead link is rebuilt between its surviving anchors; a delivery tail
    crossing it is re-issued as fresh shortest paths through the
    destinations it used to pass (a congested link merely got expensive,
    but a dead one cannot be walked at any price).  Distribution edges
    drop the dead link and re-join any disconnected destinations.

    Raises :class:`DynamicError` when no surviving path exists for some
    required connection -- the caller should treat the tenant as
    disrupted (release and count) rather than keep an unservable forest.
    """
    instance = forest.instance
    u, v = link
    if instance.graph.has_edge(u, v):
        raise DynamicError(f"({u!r}, {v!r}) is still a live link")
    bad = canonical_edge(u, v)
    try:
        out = _reroute_around(forest, instance, bad, failed=True)
        check_forest(instance, out)
    except ValueError as exc:
        # ``oracle.path`` (no surviving path) or a VNF conflict while
        # re-adding chains: the forest cannot be repaired in place.
        raise DynamicError(
            f"cannot reroute around failed link {bad!r}: {exc}"
        ) from exc
    return out


def relocate_overloaded_vm(
    forest: ServiceOverlayForest,
    vm: Node,
    new_setup_cost: float,
) -> Tuple[SOFInstance, ServiceOverlayForest]:
    """Move the VNF off an overloaded VM (Section VII-C.6).

    The VM's setup cost is raised to its congested value; the cheapest
    alternative VM (path + setup + path between the neighbouring VNFs)
    takes over, and the affected chains are re-stitched.
    """
    instance = forest.instance
    if vm not in forest.enabled:
        raise DynamicError(f"{vm!r} runs no VNF")
    vnf = forest.enabled[vm]
    node_costs = dict(instance.node_costs)
    node_costs[vm] = new_setup_cost
    new_instance = instance.derive(node_costs=node_costs)
    oracle = new_instance.oracle

    replacement: Optional[Node] = None
    best_cost = float("inf")
    for candidate in sorted(instance.vms, key=repr):
        if candidate == vm or candidate in forest.enabled:
            continue
        cost = new_instance.setup_cost(candidate)
        for chain in forest.chains:
            positions = {v: p for p, v in chain.placements.items()}
            if vnf not in positions:
                continue
            pos = positions[vnf]
            if chain.walk[pos] != vm:
                continue
            upstream = chain.walk[0]
            downstream = chain.walk[-1]
            for p, f in chain.vnf_positions():
                if f == vnf - 1:
                    upstream = chain.walk[p]
                if f == vnf + 1:
                    downstream = chain.walk[p]
                    break
            cost += oracle.distance(upstream, candidate)
            cost += oracle.distance(candidate, downstream)
        if cost < best_cost:
            replacement, best_cost = candidate, cost
    if replacement is None:
        raise DynamicError("no alternative VM available")

    out = ServiceOverlayForest(instance=new_instance)
    for chain in forest.chains:
        anchors = []
        for pos, f in chain.vnf_positions():
            node = chain.walk[pos]
            anchors.append((replacement if node == vm and f == vnf else node, f))
        out.add_chain(_rebuild_chain(new_instance, chain, anchors))
    out.tree_edges = set(forest.tree_edges)
    check_forest(new_instance, out)
    return new_instance, out
