"""Delta balls and the eviction predicates driven by them."""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import DeltaError
from repro.updates import (
    INVALIDATION_RADIUS,
    Delta,
    OverlayGraphView,
    OverlayState,
    apply_deltas,
    changed_nodes,
    delta_ball,
    deltas_touch_titles,
    expansion_eviction_predicate,
    validate_delta,
)
from repro.wiki import WikiGraphBuilder
from repro.wiki.compact import CompactGraphView
from repro.wiki.graph import WikiGraph
from repro.wiki.partition import PartitionedGraphView, partition_graph
from repro.wiki.schema import Article, Edge, EdgeKind


def _chain_graph(length=14):
    """Articles 0..length-1 in a straight line of link edges."""
    articles = {i: Article(i, f"Chain Node {i}") for i in range(length)}
    edges = [Edge(i, i + 1, EdgeKind.LINK) for i in range(length - 1)]
    return WikiGraph(articles, {}, edges)


class TestChangedNodes:
    def test_every_named_endpoint_is_a_source(self):
        batch = [
            Delta(op="add_article", seq=1, node_id=11, title="X"),
            Delta(op="add_edge", seq=2, source=3, target=4, kind="link"),
            Delta(op="set_redirect", seq=3, node_id=7, target=8),
        ]
        assert changed_nodes(batch) == frozenset({11, 3, 4, 7, 8})

    def test_title_surface_detection(self):
        edge_only = [Delta(op="remove_edge", seq=1, source=1, target=2,
                           kind="link")]
        assert not deltas_touch_titles(edge_only)
        for op, kwargs in (
            ("add_article", {"node_id": 9, "title": "T"}),
            ("remove_article", {"node_id": 9}),
            ("set_redirect", {"node_id": 9, "target": 10}),
        ):
            assert deltas_touch_titles(edge_only + [Delta(op=op, seq=2, **kwargs)])


class TestDeltaBall:
    def test_radius_bounds_the_ball_on_a_chain(self):
        base = CompactGraphView.from_graph(_chain_graph())
        empty = OverlayState()
        ball = delta_ball({0}, base=base, before=empty, after=empty)
        assert ball == frozenset(range(INVALIDATION_RADIUS + 1))
        assert delta_ball({0}, base=base, before=empty, after=empty,
                          radius=2) == frozenset({0, 1, 2})

    def test_ball_covers_both_old_and_new_adjacency(self):
        """A removed edge must invalidate along the OLD path and an
        added edge along the NEW one: the ball BFS walks the union."""
        base = CompactGraphView.from_graph(_chain_graph())
        before = OverlayState()
        after, applied = apply_deltas(base, before, [
            Delta(op="remove_edge", seq=1, source=2, target=3, kind="link"),
            Delta(op="add_edge", seq=2, source=2, target=9, kind="link"),
        ])
        ball = delta_ball(changed_nodes(applied), base=base, before=before,
                          after=after, radius=1)
        # sources 2, 3, 9; radius-1 union adjacency reaches both the
        # severed neighbour (3 via before) and the new one (9 via after).
        assert {2, 3, 9}.issubset(ball)
        assert 1 in ball and 4 in ball and 8 in ball and 10 in ball
        assert 6 not in ball

    def test_removed_node_still_seeds_the_ball(self):
        base = CompactGraphView.from_graph(_chain_graph())
        before = OverlayState()
        after, applied = apply_deltas(base, before, [
            Delta(op="remove_edge", seq=1, source=4, target=5, kind="link"),
            Delta(op="remove_edge", seq=2, source=5, target=6, kind="link"),
            Delta(op="remove_article", seq=3, node_id=5),
        ])
        ball = delta_ball(changed_nodes(applied), base=base, before=before,
                          after=after, radius=1)
        assert 5 in ball          # gone from `after`, still a source
        assert {4, 6}.issubset(ball)


# ----------------------------------------------------------------------
# Differential test: the CSR ball against a naive union-adjacency BFS
# ----------------------------------------------------------------------

_NEW = 10_000  # ids of added articles, far above any generated world's
_OPS = ("add_article", "remove_article", "add_edge", "remove_edge",
        "set_redirect", "re_add")


def _naive_neighbors(view, node):
    """Union of the six typed adjacency slots (redirects excluded)."""
    if node not in view:
        return set()
    return (set(view.links_from(node)) | view.links_to(node)
            | view.categories_of(node) | view.members_of(node)
            | view.parents_of(node) | view.children_of(node))


def _naive_ball(sources, before, after, radius):
    """The reference: BFS over the union of both overlay views."""
    ball = set(sources)
    frontier = set(sources)
    for _ in range(radius):
        reached = set()
        for node in frontier:
            reached |= _naive_neighbors(before, node)
            reached |= _naive_neighbors(after, node)
        frontier = reached - ball
        ball |= frontier
    return frozenset(ball)


def _world(rng):
    """A small schema-valid graph with links, memberships, containment
    and redirects."""
    builder = WikiGraphBuilder()
    articles = [builder.add_article(f"article {i}")
                for i in range(rng.randint(3, 14))]
    categories = [builder.add_category(f"category {i}")
                  for i in range(rng.randint(1, 4))]
    for article in articles:
        builder.add_belongs(article, rng.choice(categories))
    for _ in range(rng.randint(0, 3 * len(articles))):
        u, v = rng.sample(articles, 2)
        builder.add_link(u, v)
    for idx, child in enumerate(categories[1:], start=1):
        if rng.random() < 0.7:
            builder.add_inside(child, rng.choice(categories[:idx]))
    for i in range(rng.randint(0, 2)):
        redirect = builder.add_article(f"alias {i}", is_redirect=True)
        builder.add_redirect(redirect, rng.choice(articles))
    return builder.build()


def _existing_edges(view):
    edges = []
    for article in view.articles():
        node = article.node_id
        edges += [("link", node, t) for t in view.links_from(node)]
        edges += [("belongs", node, c) for c in view.categories_of(node)]
    for category in view.categories():
        node = category.node_id
        edges += [("inside", node, p) for p in view.parents_of(node)]
    return sorted(edges)


def _candidate(rng, view, state, op, seq, serial):
    articles = sorted(a.node_id for a in view.articles())
    categories = sorted(c.node_id for c in view.categories())
    if op == "add_article":
        return Delta(op=op, seq=seq, node_id=_NEW + serial,
                     title=f"fresh page {serial}")
    if op == "re_add":
        if not state.removed:
            return None
        return Delta(op="add_article", seq=seq,
                     node_id=rng.choice(sorted(state.removed)),
                     title=f"returning page {serial}")
    if op == "remove_article":
        return Delta(op=op, seq=seq, node_id=rng.choice(articles))
    if op == "remove_edge":
        edges = _existing_edges(view)
        if not edges:
            return None
        kind, source, target = rng.choice(edges)
        return Delta(op=op, seq=seq, source=source, target=target, kind=kind)
    if op == "add_edge":
        kind = rng.choice(("link", "belongs", "inside"))
        pool = {"link": (articles, articles),
                "belongs": (articles, categories),
                "inside": (categories, categories)}[kind]
        return Delta(op=op, seq=seq, source=rng.choice(pool[0]),
                     target=rng.choice(pool[1]), kind=kind)
    return Delta(op="set_redirect", seq=seq, node_id=rng.choice(articles),
                 target=rng.choice(articles))


def _delta_sequence(graph, rng, count):
    """Up to ``count`` valid deltas drawn against the evolving view; every
    op is tried in turn, with the order shuffled per round."""
    state = OverlayState()
    view = OverlayGraphView(graph, state)
    deltas = []
    for serial in range(count * 4):
        if len(deltas) == count:
            break
        op = _OPS[serial % len(_OPS)] if serial < len(_OPS) \
            else rng.choice(_OPS)
        delta = _candidate(rng, view, state, op, len(deltas) + 1, serial)
        if delta is None:
            continue
        try:
            validate_delta(view, delta)
        except DeltaError:
            continue
        state.apply_delta(view, delta)
        deltas.append((op, delta))
    return deltas


def _batches(deltas, rng):
    cut = 0
    while cut < len(deltas):
        size = rng.randint(1, 4)
        yield [delta for _op, delta in deltas[cut:cut + size]]
        cut += size


class TestDeltaBallDifferential:
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 2**32 - 1), num_shards=st.integers(1, 3),
           radius=st.integers(0, INVALIDATION_RADIUS),
           count=st.integers(1, 24))
    def test_csr_ball_matches_naive_bfs(self, seed, num_shards, radius, count):
        rng = random.Random(seed)
        graph = _world(rng)
        base = CompactGraphView.from_graph(graph)
        partitioned = PartitionedGraphView(partition_graph(graph, num_shards))
        deltas = _delta_sequence(graph, rng, count)
        state = OverlayState()
        for batch in _batches(deltas, rng):
            new_state, applied = apply_deltas(base, state, batch)
            assert applied == batch
            sources = changed_nodes(applied)
            ball = delta_ball(sources, base=base, before=state,
                              after=new_state, radius=radius)
            for reference_base in (base, partitioned):
                assert ball == _naive_ball(
                    sources,
                    OverlayGraphView(reference_base, state),
                    OverlayGraphView(reference_base, new_state),
                    radius,
                ), (reference_base, batch)
            state = new_state

    def test_generator_reaches_every_op(self):
        """The drawn sequences exercise all six ops, re-adds included."""
        seen = set()
        for seed in range(20):
            rng = random.Random(seed)
            seen |= {op for op, _delta in
                     _delta_sequence(_world(rng), rng, 24)}
        assert seen == set(_OPS)


class TestEvictionPredicate:
    def test_evicts_only_intersecting_seed_sets(self):
        doomed = expansion_eviction_predicate(frozenset({1, 2, 3}))
        assert doomed(frozenset({3, 50}))
        assert not doomed(frozenset({50, 51}))
        assert not doomed(frozenset())

    def test_unknown_key_shapes_evict_conservatively(self):
        doomed = expansion_eviction_predicate(frozenset({1}))
        assert doomed(42)  # not iterable: isdisjoint raises TypeError
