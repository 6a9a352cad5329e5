"""VNF conflict resolution (Procedure 4 and Fig. 5 of the paper).

When SOFDA deploys the walks corresponding to the virtual edges of its
Steiner tree, two walks may compete for the same VM with *different* VNFs
-- a **VNF conflict**.  Procedure 4 resolves a conflict between the
incoming walk ``W`` (wanting ``f_j`` at VM ``u``) and the resident walk
``Wk`` (running ``f_i`` at ``u``) without adding links or enabling new
VMs:

1. **Case 1** (``j <= i``): attach ``W`` to ``Wk`` through ``u`` -- ``W``'s
   new prefix is ``Wk``'s walk up to ``u`` (reusing ``Wk``'s enabled VMs for
   ``f_1..f_i``); ``W`` keeps its own placements for ``f_{i+1}..f_{|C|}``.
2. **Case 2** (there is another conflict VM ``w`` where ``Wk`` runs ``f_h``
   with ``h >= j``): attach ``W`` to ``Wk`` through ``w`` and keep ``W``'s
   placements for ``f_{h+1}..f_{|C|}``.
3. **Case 3** (otherwise): attach ``Wk`` to ``W`` through ``u`` -- ``Wk``'s
   new prefix is ``W``'s walk up to ``u``, and ``Wk`` keeps its own
   placements for ``f_{j+1}..f_{|C|}``.

Conflicts are processed "by backtracking ``W``" (from the last VM towards
the source), which guarantees the kept suffix placements are conflict-free.
Because case 3 mutates an already-deployed walk, the resolution loop is
bounded and falls back to two always-feasible repairs (documented in
DESIGN.md and counted in :class:`ResolutionStats`):

- **repair**: recompute the chain over *unenabled* VMs only, ending at a
  fresh last VM, then run pass-through to the original hand-off node;
- **graft**: serve the hand-off node directly from an existing complete
  chain's delivery point via shortest-path tree edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Tuple

from repro.core.forest import DeployedChain, ServiceOverlayForest
from repro.core.problem import SOFInstance
from repro.core.transform import ChainWalk, chain_walk

Node = Hashable

#: Upper bound on resolution iterations before falling back to repairs.
MAX_RESOLUTION_ROUNDS = 12


@dataclass
class ResolutionStats:
    """Counters describing how chains were deployed (for experiments/tests)."""

    clean: int = 0
    case1: int = 0
    case2: int = 0
    case3: int = 0
    repairs: int = 0
    grafts: int = 0

    def total_conflicted(self) -> int:
        """Chains that hit at least one conflict."""
        return self.case1 + self.case2 + self.case3 + self.repairs + self.grafts

    def as_dict(self) -> Dict[str, int]:
        """Counters as a plain dict (stable keys for reports)."""
        return {
            "clean": self.clean,
            "case1": self.case1,
            "case2": self.case2,
            "case3": self.case3,
            "repairs": self.repairs,
            "grafts": self.grafts,
        }


def _rebuild_enabled(forest: ServiceOverlayForest) -> None:
    """Recompute the enabled map from chain placements (after rewiring)."""
    enabled: Dict[Node, int] = {}
    for chain in forest.chains:
        for pos, vnf in chain.placements.items():
            node = chain.walk[pos]
            existing = enabled.get(node)
            if existing is not None and existing != vnf:
                raise AssertionError(
                    f"internal error: rebuild found conflict at {node!r}"
                )
            enabled[node] = vnf
    forest.enabled = enabled


def _owner_of(forest: ServiceOverlayForest, node: Node) -> Optional[int]:
    """Index of a chain that places a VNF on ``node`` (None if unused)."""
    for idx, chain in enumerate(forest.chains):
        for pos, _ in chain.placements.items():
            if chain.walk[pos] == node:
                return idx
    return None


def _conflicts(
    forest: ServiceOverlayForest, chain: DeployedChain
) -> List[Tuple[int, Node, int, int]]:
    """All conflicts of ``chain`` against the forest.

    Returns ``(position, node, wanted_vnf, resident_vnf)`` sorted by
    position (so the *last* element is the first conflict by backtracking).
    """
    out = []
    for pos, vnf in sorted(chain.placements.items()):
        node = chain.walk[pos]
        resident = forest.enabled.get(node)
        if resident is not None and resident != vnf:
            out.append((pos, node, vnf, resident))
    return out


def _compress_segment(
    instance: SOFInstance, walk: List[Node], start: int, end: int
) -> List[Node]:
    """Replace ``walk[start:end+1]`` by a shortest path (cost never rises)."""
    if end <= start + 1:
        return walk
    path = instance.oracle.path(walk[start], walk[end])
    return walk[: start + 1] + path[1:] + walk[end + 1:]


def _splice(
    instance: SOFInstance,
    prefix_chain: DeployedChain,
    prefix_cut_pos: int,
    prefix_functions_through: int,
    suffix_chain: DeployedChain,
    suffix_from_pos: int,
    suffix_functions_from: int,
    attached_to: Optional[int],
) -> DeployedChain:
    """Build the attached chain: ``prefix_chain[:cut]`` + ``suffix_chain[from:]``.

    The merged chain carries the prefix chain's placements for VNFs
    ``0..prefix_functions_through`` and the suffix chain's placements for
    VNFs ``suffix_functions_from..|C|-1``; intermediate pass-through is
    compressed via a shortest path between the junction anchors.
    """
    new_walk = list(prefix_chain.walk[: prefix_cut_pos + 1])
    offset = len(new_walk) - 1 - suffix_from_pos
    new_placements: Dict[int, int] = {}
    for pos, vnf in prefix_chain.placements.items():
        if pos <= prefix_cut_pos and vnf <= prefix_functions_through:
            new_placements[pos] = vnf
    for pos, vnf in sorted(suffix_chain.placements.items()):
        if pos > suffix_from_pos and vnf >= suffix_functions_from:
            new_placements[pos + offset] = vnf
    new_walk.extend(suffix_chain.walk[suffix_from_pos + 1:])

    merged = DeployedChain(
        walk=new_walk,
        placements=new_placements,
        paid_from_edge=prefix_cut_pos,
        attached_to=attached_to,
    )
    # Compress the pass-through between the junction and the first suffix
    # placement (Example 7's (5,3,2,4,7) -> (5,7) shortening).  Only the
    # paid region may be rerouted; the borrowed prefix must stay identical.
    suffix_positions = [
        pos for pos, vnf in sorted(merged.placements.items())
        if vnf >= suffix_functions_from and pos > prefix_cut_pos
    ]
    if suffix_positions:
        first_anchor = suffix_positions[0]
        before = len(merged.walk)
        merged.walk = _compress_segment(
            instance, merged.walk, prefix_cut_pos, first_anchor
        )
        shift = len(merged.walk) - before
        if shift:
            merged.placements = {
                (pos + shift if pos >= first_anchor else pos): vnf
                for pos, vnf in merged.placements.items()
            }
    return merged


def resolve_and_add_chain(
    forest: ServiceOverlayForest,
    candidate: ChainWalk,
    stats: Optional[ResolutionStats] = None,
) -> int:
    """Deploy ``candidate`` into ``forest``, resolving VNF conflicts.

    Implements Procedure 4 (cases 1-3) with the bounded loop + repair
    fallbacks described in the module docstring.  Returns the index of the
    chain that ultimately provides the candidate's hand-off point.
    """
    instance = forest.instance
    stats = stats if stats is not None else ResolutionStats()
    num_functions = len(instance.chain)
    current = candidate.to_deployed_chain()

    for _ in range(MAX_RESOLUTION_ROUNDS):
        conflicts = _conflicts(forest, current)
        if not conflicts:
            idx = forest.add_chain(current)
            if current.attached_to is None:
                stats.clean += 1
            return idx

        pos_u, u, wanted, resident = conflicts[-1]  # first by backtracking
        wk_idx = _owner_of(forest, u)
        assert wk_idx is not None
        wk = forest.chains[wk_idx]
        wk_pos_u = next(
            pos for pos, vnf in wk.placements.items()
            if wk.walk[pos] == u and vnf == resident
        )

        if wanted <= resident:
            # Case 1: attach W to Wk through u.
            current = _splice(
                instance,
                prefix_chain=wk,
                prefix_cut_pos=wk_pos_u,
                prefix_functions_through=resident,
                suffix_chain=current,
                suffix_from_pos=pos_u,
                suffix_functions_from=resident + 1,
                attached_to=wk_idx,
            )
            if num_functions - 1 <= resident:
                # Wk already provides the whole chain; current degenerates
                # to Wk's prefix -- it still ends at the candidate's last VM
                # via pass-through, which is all the hand-off needs.
                pass
            stats.case1 += 1
            continue

        # Case 2: another conflict VM w (earlier on W) where Wk runs f_h,
        # h >= wanted.
        case2 = None
        for pos_w, w, _, resident_w in conflicts[:-1]:
            if _owner_of(forest, w) == wk_idx and resident_w >= wanted:
                case2 = (pos_w, w, resident_w)
                break
        if case2 is not None:
            pos_w, w, h = case2
            wk_pos_w = next(
                pos for pos, vnf in wk.placements.items()
                if wk.walk[pos] == w and vnf == h
            )
            current = _splice(
                instance,
                prefix_chain=wk,
                prefix_cut_pos=wk_pos_w,
                prefix_functions_through=h,
                suffix_chain=current,
                suffix_from_pos=pos_w,
                suffix_functions_from=h + 1,
                attached_to=wk_idx,
            )
            stats.case2 += 1
            continue

        # Case 3: attach Wk to W through u.  W's prefix is not yet deployed,
        # so Wk is rewired onto it and the loop re-examines W.
        rewired = _splice(
            instance,
            prefix_chain=current,
            prefix_cut_pos=pos_u,
            prefix_functions_through=wanted,
            suffix_chain=wk,
            suffix_from_pos=wk_pos_u,
            suffix_functions_from=wanted + 1,
            attached_to=None,  # becomes a root sharing W's physical prefix
        )
        # Guard: the rewired Wk must itself be conflict-free against the
        # *other* chains; otherwise give up on case 3 and repair.
        probe = forest.copy()
        del probe.chains[wk_idx]
        _rebuild_enabled(probe)
        if _conflicts(probe, rewired):
            break
        forest.chains[wk_idx] = rewired
        _rebuild_enabled(forest)
        stats.case3 += 1
        # u now runs `wanted`; the loop re-checks W's remaining conflicts.

    return repair_chain(forest, candidate, stats)


def repair_chain(
    forest: ServiceOverlayForest,
    candidate: ChainWalk,
    stats: ResolutionStats,
) -> int:
    """Fallback deployments guaranteeing feasibility (see module docstring).

    Public entry point: SOFDA's no-resolution ablation and the dynamic-case
    handlers route conflicted chains straight here.
    """
    instance = forest.instance
    source = candidate.source
    handoff = candidate.last_vm
    num_functions = len(instance.chain)
    free_vms = {vm for vm in instance.vms if vm not in forest.enabled}
    # Allow the hand-off VM itself when it is free or already runs f_|C|.
    allowed_last: List[Node] = []
    if handoff in free_vms or forest.enabled.get(handoff) == num_functions - 1:
        allowed_last.append(handoff)
    allowed_last.extend(sorted(free_vms - {handoff}, key=repr))

    if len(free_vms) + 1 >= num_functions:
        best: Optional[Tuple[float, ChainWalk, Node]] = None
        for last in allowed_last:
            pool = set(free_vms)
            pool.add(last)
            cw = chain_walk(instance, source, last, candidate_vms=pool)
            if cw is None:
                continue
            tail = (
                0.0 if last == handoff
                else instance.oracle.distance(last, handoff)
            )
            total = cw.total_cost + tail
            if best is None or total < best[0]:
                best = (total, cw, last)
            if last == handoff and best[2] == handoff:
                # A conflict-free chain straight to the hand-off point is
                # already ideal; no need to scan every free VM.
                break
        if best is not None:
            _, cw, last = best
            chain = cw.to_deployed_chain()
            if last != handoff:
                path = instance.oracle.path(last, handoff)
                chain.walk.extend(path[1:])
            if not _conflicts(forest, chain):
                stats.repairs += 1
                return forest.add_chain(chain)

    # Last resort: graft the hand-off point onto an existing complete chain.
    best_graft: Optional[Tuple[float, Node]] = None
    for chain in forest.chains:
        if not chain.placements:
            continue
        point = chain.last_vm
        d = instance.oracle.distance(point, handoff)
        if best_graft is None or d < best_graft[0]:
            best_graft = (d, point)
    if best_graft is None:
        raise RuntimeError(
            "cannot deploy chain: no free VMs and no existing chain to graft onto"
        )
    _, point = best_graft
    path = instance.oracle.path(point, handoff)
    for a, b in zip(path, path[1:]):
        forest.add_tree_edge(a, b)
    stats.grafts += 1
    # The serving chain is the grafted one; find its index.
    for idx, chain in enumerate(forest.chains):
        if chain.placements and chain.last_vm == point:
            return idx
    raise AssertionError("graft target vanished")
