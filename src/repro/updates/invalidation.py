"""Targeted cache invalidation for applied deltas.

The paper's cycle features are functions of a bounded neighbourhood
ball (radius-2 BFS ball, cycles up to length 5), so a graph delta can
only change the answer of queries whose seed set lies near the touched
nodes — exactly the locality argument of Berkholz et al. for answering
queries under updates (PAPERS.md).  Instead of dropping whole caches on
every update, we compute the *delta ball*: every node within
``INVALIDATION_RADIUS`` hops of a node the batch touched, measured over
the union of the pre- and post-apply adjacency (an added edge must
invalidate along the new path, a removed edge along the old one).

An expansion-cache entry is keyed by its frozenset of seed ids; it is
evicted iff its seeds intersect the delta ball
(:func:`expansion_eviction_predicate` with
:meth:`~repro.service.cache.LRUCache.evict_where`).  Everything else
stays warm — the ``delta_overlay`` bench regime asserts unrelated
topics keep their cache hits across an applied delta.

The link cache is keyed by normalised query *text*, which has no
locality in node-id space; it is dropped (and the linker rebuilt) only
when a delta changes the title/redirect surface — ``add_article``,
``remove_article``, ``set_redirect`` — and left alone for pure edge
deltas (:func:`deltas_touch_titles`).
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import chain

from repro.updates.deltas import Delta
from repro.updates.overlay import OverlayGraphView, OverlayState
from repro.wiki.compact import CompactGraphView

__all__ = [
    "INVALIDATION_RADIUS",
    "delta_ball",
    "changed_nodes",
    "deltas_touch_titles",
    "expansion_eviction_predicate",
]

# Max cycle length of the expansion analysis: a cached expansion whose
# seeds sit further than this from every touched node cannot have any
# touched node inside the subgraph its features were mined from.
INVALIDATION_RADIUS = 5

_TITLE_OPS = frozenset({"add_article", "remove_article", "set_redirect"})


def changed_nodes(deltas: Iterable[Delta]) -> frozenset[int]:
    """Nodes a batch names directly (BFS sources of the delta ball)."""
    nodes: set[int] = set()
    for delta in deltas:
        for field in (delta.node_id, delta.source, delta.target):
            if field is not None:
                nodes.add(field)
    return frozenset(nodes)


def deltas_touch_titles(deltas: Iterable[Delta]) -> bool:
    """True when the batch changes the title/redirect surface linking
    depends on (so the linker must be rebuilt and the link cache shed)."""
    return any(delta.op in _TITLE_OPS for delta in deltas)


def _split_by_base(node_ids: Iterable[int], index_of) -> tuple[set[int], set[int]]:
    """``(base indices, ids the base does not hold)`` of ``node_ids``."""
    indices: set[int] = set()
    outside: set[int] = set()
    for node in node_ids:
        idx = index_of.get(node)
        if idx is None:
            outside.add(node)
        else:
            indices.add(idx)
    return indices, outside


def delta_ball(
    sources: Iterable[int],
    *,
    base: CompactGraphView,
    before: OverlayState,
    after: OverlayState,
    radius: int = INVALIDATION_RADIUS,
) -> frozenset[int]:
    """BFS ball around ``sources`` over the union of both adjacencies.

    ``base`` is the frozen CSR graph both overlay states sit on;
    ``before`` is the state the batch was applied against, ``after`` the
    state with the batch folded in.  The BFS runs level by level in base
    index space.  A node outside both states' ``touched`` and
    ``removed`` sets has the same row on either side, so it is expanded
    straight from its CSR slice; only touched, removed or added nodes go
    through :meth:`OverlayGraphView.undirected_neighbors`, once per
    side.  (Every neighbour of a removed node is touched, so a clean
    row never names a node the overlay dropped.)
    """
    node_ids, index_of, offsets, targets = base.kernel_csr()[:4]
    views = (OverlayGraphView(base, before), OverlayGraphView(base, after))
    dirty, _ = _split_by_base(
        before.touched | before.removed | after.touched | after.removed,
        index_of,
    )
    frontier, frontier_outside = _split_by_base(sources, index_of)
    ball, ball_outside = set(frontier), set(frontier_outside)
    for _ in range(radius):
        if not frontier and not frontier_outside:
            break
        reached: set[int] = set()
        for idx in frontier - dirty:
            reached.update(targets[offsets[idx]:offsets[idx + 1]])
        via_overlay: set[int] = set()
        for node in chain(
            map(node_ids.__getitem__, frontier & dirty), frontier_outside
        ):
            for view in views:
                via_overlay |= view.undirected_neighbors(node)
        reached_base, reached_outside = _split_by_base(via_overlay, index_of)
        reached |= reached_base
        frontier = reached - ball
        frontier_outside = reached_outside - ball_outside
        ball |= frontier
        ball_outside |= frontier_outside
    return frozenset(map(node_ids.__getitem__, ball)).union(ball_outside)


def expansion_eviction_predicate(ball: frozenset[int]):
    """Predicate over expansion-cache keys (frozensets of seed ids)."""

    def doomed(key) -> bool:
        try:
            return not ball.isdisjoint(key)
        except TypeError:
            return True  # unknown key shape: evict conservatively
    return doomed
