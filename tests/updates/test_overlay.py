"""Overlay read path vs the independent dict-path oracle.

The contract under test: for any valid delta batch,
``materialize_graph(OverlayGraphView(base, state))`` equals
``apply_deltas_to_graph(base_graph, deltas)`` — two implementations
that share no code beyond the :class:`Delta` type itself.
"""

import random

import pytest

from repro.errors import DeltaError
from repro.updates import (
    Delta,
    OverlayGraphView,
    OverlayState,
    apply_deltas,
    apply_deltas_to_graph,
    materialize_graph,
    validate_delta,
)

from update_helpers import assert_graph_equal

_NEW_BASE = 9_000_000  # node ids far above anything synthetic graphs use


def _scripted_batch(graph):
    """One handwritten batch exercising every op at least once."""
    articles = [a.node_id for a in graph.articles() if not a.is_redirect]
    linked = next(n for n in articles if graph.links_from(n))
    link_target = sorted(graph.links_from(linked))[0]
    categorized = next(n for n in articles if graph.categories_of(n))
    category = sorted(graph.categories_of(categorized))[0]
    loner = next(
        n for n in articles
        if not graph.redirects_of(n) and n not in (linked, link_target)
    )
    redirect_target = next(
        n for n in articles
        if n not in (loner, linked, link_target) and not graph.redirects_of(n)
    )
    return [
        Delta(op="add_article", seq=1, node_id=_NEW_BASE, title="Fresh Page One"),
        Delta(op="add_article", seq=2, node_id=_NEW_BASE + 1,
              title="Fresh Page Two"),
        Delta(op="add_edge", seq=3, source=_NEW_BASE, target=_NEW_BASE + 1,
              kind="link"),
        Delta(op="add_edge", seq=4, source=_NEW_BASE, target=linked,
              kind="link"),
        Delta(op="add_edge", seq=5, source=_NEW_BASE, target=category,
              kind="belongs"),
        Delta(op="remove_edge", seq=6, source=linked, target=link_target,
              kind="link"),
        Delta(op="set_redirect", seq=7, node_id=loner, target=redirect_target),
        Delta(op="remove_edge", seq=8, source=categorized, target=category,
              kind="belongs"),
        Delta(op="remove_article", seq=9, node_id=_NEW_BASE + 1),
    ]


def _random_batch(graph, seed, count=40):
    """Valid deltas generated against the evolving overlay view."""
    rng = random.Random(seed)
    state = OverlayState()
    view = OverlayGraphView(graph, state)
    deltas = []
    seq = 0
    attempts = 0
    while len(deltas) < count and attempts < count * 60:
        attempts += 1
        articles = [a.node_id for a in view.articles()]
        categories = [c.node_id for c in view.categories()]
        op = rng.choice(
            ("add_article", "remove_article", "add_edge", "add_edge",
             "remove_edge", "set_redirect")
        )
        if op == "add_article":
            node = _NEW_BASE + 100 + attempts
            candidate = Delta(op=op, seq=seq + 1, node_id=node,
                              title=f"Random Page {seed} {attempts}")
        elif op == "remove_article":
            candidate = Delta(op=op, seq=seq + 1, node_id=rng.choice(articles))
        elif op in ("add_edge", "remove_edge"):
            kind = rng.choice(("link", "belongs", "inside"))
            if kind == "link":
                source, target = rng.choice(articles), rng.choice(articles)
            elif kind == "belongs":
                source, target = rng.choice(articles), rng.choice(categories)
            else:
                source, target = rng.choice(categories), rng.choice(categories)
            candidate = Delta(op=op, seq=seq + 1, source=source,
                              target=target, kind=kind)
        else:
            candidate = Delta(op=op, seq=seq + 1,
                              node_id=rng.choice(articles),
                              target=rng.choice(articles))
        try:
            validate_delta(view, candidate)
        except DeltaError:
            continue
        state.apply_delta(view, candidate)
        deltas.append(candidate)
        seq += 1
    assert len(deltas) == count, "generator starved — loosen the attempt cap"
    return deltas


class TestOracleEquivalence:
    def test_scripted_batch_matches_oracle(self, small_benchmark):
        graph = small_benchmark.graph
        deltas = _scripted_batch(graph)
        state, applied = apply_deltas(graph, OverlayState(), deltas)
        assert applied == deltas
        live = materialize_graph(OverlayGraphView(graph, state))
        oracle = apply_deltas_to_graph(graph, deltas)
        assert_graph_equal(live, oracle)

    @pytest.mark.parametrize("seed", [101, 202, 303])
    def test_random_batches_match_oracle(self, small_benchmark, seed):
        graph = small_benchmark.graph
        deltas = _random_batch(graph, seed)
        state, applied = apply_deltas(graph, OverlayState(), deltas)
        assert applied == deltas
        live = materialize_graph(OverlayGraphView(graph, state))
        oracle = apply_deltas_to_graph(graph, deltas)
        assert_graph_equal(live, oracle)

    def test_incremental_equals_one_shot(self, small_benchmark):
        """Applying delta-by-delta lands on the same state as one batch."""
        graph = small_benchmark.graph
        deltas = _scripted_batch(graph)
        one_shot, _ = apply_deltas(graph, OverlayState(), deltas)
        stepped = OverlayState()
        for delta in deltas:
            stepped, _ = apply_deltas(graph, stepped, [delta])
        assert_graph_equal(
            materialize_graph(OverlayGraphView(graph, stepped)),
            materialize_graph(OverlayGraphView(graph, one_shot)),
        )


class TestIdempotencyAndAtomicity:
    def test_replay_below_last_seq_is_skipped(self, small_benchmark):
        graph = small_benchmark.graph
        deltas = _scripted_batch(graph)
        state, applied = apply_deltas(graph, OverlayState(), deltas)
        assert len(applied) == len(deltas)
        again, reapplied = apply_deltas(graph, state, deltas)
        assert reapplied == []
        assert again.last_seq == state.last_seq
        assert_graph_equal(
            materialize_graph(OverlayGraphView(graph, again)),
            materialize_graph(OverlayGraphView(graph, state)),
        )

    def test_failed_batch_leaves_state_untouched(self, small_benchmark):
        graph = small_benchmark.graph
        state = OverlayState()
        bad = [
            Delta(op="add_article", seq=1, node_id=_NEW_BASE, title="Okay"),
            Delta(op="add_edge", seq=2, source=_NEW_BASE, target=10**7,
                  kind="link"),  # unknown target: whole batch dies
        ]
        with pytest.raises(DeltaError):
            apply_deltas(graph, state, bad)
        assert state.is_empty
        assert _NEW_BASE not in OverlayGraphView(graph, state)

    def test_remove_then_re_add_yields_edgeless_article(self, small_benchmark):
        graph = small_benchmark.graph
        victim = next(
            a.node_id for a in graph.articles()
            if not a.is_redirect and not graph.redirects_of(a.node_id)
            and graph.links_from(a.node_id)
        )
        deltas = [
            Delta(op="remove_article", seq=1, node_id=victim),
            Delta(op="add_article", seq=2, node_id=victim, title="Reborn Page"),
        ]
        state, _ = apply_deltas(graph, OverlayState(), deltas)
        view = OverlayGraphView(graph, state)
        assert victim in view
        assert view.title(victim) == "Reborn Page"
        assert view.links_from(victim) == frozenset()
        assert view.links_to(victim) == frozenset()
        assert view.categories_of(victim) == frozenset()
        assert view.undirected_neighbors(victim) == frozenset()
        assert_graph_equal(
            materialize_graph(view), apply_deltas_to_graph(graph, deltas)
        )


    def test_re_add_under_a_new_title_frees_the_old_one(self, small_benchmark):
        graph = small_benchmark.graph
        victim = next(
            a for a in graph.articles()
            if not a.is_redirect and not graph.redirects_of(a.node_id)
        )
        state, _ = apply_deltas(graph, OverlayState(), [
            Delta(op="remove_article", seq=1, node_id=victim.node_id),
            Delta(op="add_article", seq=2, node_id=victim.node_id,
                  title="Renamed Page"),
        ])
        view = OverlayGraphView(graph, state)
        assert view.article_by_title("renamed page").node_id == victim.node_id
        assert view.article_by_title(victim.title) is None
        state, applied = apply_deltas(graph, state, [
            Delta(op="add_article", seq=3, node_id=_NEW_BASE,
                  title=victim.title),
        ])
        assert len(applied) == 1
        found = OverlayGraphView(graph, state).article_by_title(victim.title)
        assert found.node_id == _NEW_BASE


class TestViewFastPaths:
    def test_empty_overlay_counts_match_base(self, small_benchmark):
        graph = small_benchmark.graph
        view = OverlayGraphView(graph, OverlayState())
        assert view.num_articles == graph.num_articles
        assert view.num_categories == graph.num_categories
        assert view.num_edges == graph.num_edges
        assert len(view) == len(graph)

    def test_untouched_subgraph_delegates_to_base(self, small_benchmark):
        """Seed sets disjoint from the overlay keep the base's (compact)
        induced-subgraph implementation — the empty-overlay hot path."""
        graph = small_benchmark.graph
        state, _ = apply_deltas(graph, OverlayState(), [
            Delta(op="add_article", seq=1, node_id=_NEW_BASE, title="Far Away"),
        ])
        view = OverlayGraphView(graph, state)
        keep = sorted(a.node_id for a in graph.articles())[:5]
        mine = view.induced_subgraph(keep)
        base = graph.induced_subgraph(keep)
        assert type(mine) is type(base)
        assert sorted(mine.node_ids()) == sorted(base.node_ids())

    def test_touched_subgraph_sees_overlay_edges(self, small_benchmark):
        graph = small_benchmark.graph
        articles = [a.node_id for a in graph.articles() if not a.is_redirect]
        anchor = next(n for n in articles if graph.links_from(n))
        state, _ = apply_deltas(graph, OverlayState(), [
            Delta(op="add_article", seq=1, node_id=_NEW_BASE, title="Near By"),
            Delta(op="add_edge", seq=2, source=_NEW_BASE, target=anchor,
                  kind="link"),
        ])
        view = OverlayGraphView(graph, state)
        sub = view.induced_subgraph([anchor, _NEW_BASE])
        assert _NEW_BASE in sub
        assert anchor in sub.links_from(_NEW_BASE)
