"""The linker vocabulary derived from a title table equals the full scan.

``TitleTable(base, tokenizer).vocabulary(state)`` must equal
``EntityLinker(OverlayGraphView(base, state), tokenizer).vocabulary()``
for every overlay state: token collisions between distinct titles,
titles with no tokens or too many, removals, re-adds and redirects.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import DeltaError
from repro.linking.linker import MAX_TITLE_TOKENS, EntityLinker
from repro.retrieval.tokenizer import Tokenizer
from repro.service import ShardRouter, ShardedSnapshot
from repro.updates import (
    Delta,
    OverlayGraphView,
    OverlayState,
    UpdateCoordinator,
    apply_deltas,
    validate_delta,
)
from repro.updates.overlay import TitleTable
from repro.wiki import WikiGraphBuilder
from repro.wiki.compact import CompactGraphView
from repro.wiki.partition import PartitionedGraphView, partition_graph

_LONG = " ".join(f"w{i}" for i in range(MAX_TITLE_TOKENS + 1))
_EDGE = " ".join(f"w{i}" for i in range(MAX_TITLE_TOKENS))
# Distinct normalised titles that tokenise alike, titles with no tokens,
# and titles just over and at the token cap.
_TITLES = (
    "topic 1", "topic-1", "Topic 1!", "topic: 1", "(topic) 1",
    "alpha beta", "alpha-beta", "Alpha, Beta", "gamma",
    "!!!", "...", "?",
    _LONG, _LONG.replace(" ", "-"), _EDGE, _EDGE.replace(" ", "/"),
)
_NEW = 10_000
_OPS = ("add_article", "remove_article", "add_edge", "remove_edge",
        "set_redirect", "re_add")


def _world(rng):
    """A schema-valid graph whose titles collide after tokenisation."""
    builder = WikiGraphBuilder()
    titles = rng.sample(_TITLES, rng.randint(3, 10))
    articles = [builder.add_article(title) for title in titles[:-1]]
    categories = [builder.add_category(f"category {i}")
                  for i in range(rng.randint(1, 3))]
    for article in articles:
        builder.add_belongs(article, rng.choice(categories))
    for _ in range(rng.randint(0, 2 * len(articles))):
        u, v = rng.sample(articles, 2)
        builder.add_link(u, v)
    redirect = builder.add_article(titles[-1], is_redirect=True)
    builder.add_redirect(redirect, rng.choice(articles))
    return builder.build()


def _candidate(rng, view, state, op, seq, serial):
    articles = sorted(a.node_id for a in view.articles())
    categories = sorted(c.node_id for c in view.categories())
    if op == "add_article":
        return Delta(op=op, seq=seq, node_id=_NEW + serial,
                     title=rng.choice(_TITLES))
    if op == "re_add":
        if not state.removed:
            return None
        return Delta(op="add_article", seq=seq,
                     node_id=rng.choice(sorted(state.removed)),
                     title=rng.choice(_TITLES))
    if not articles:
        return None
    if op == "remove_article":
        return Delta(op=op, seq=seq, node_id=rng.choice(articles))
    if op == "remove_edge":
        edges = sorted(
            [("link", a, t) for a in articles for t in view.links_from(a)]
            + [("belongs", a, c) for a in articles
               for c in view.categories_of(a)]
        )
        if not edges:
            return None
        kind, source, target = rng.choice(edges)
        return Delta(op=op, seq=seq, source=source, target=target, kind=kind)
    if op == "add_edge":
        kind = rng.choice(("link", "belongs"))
        targets = articles if kind == "link" else categories
        return Delta(op=op, seq=seq, source=rng.choice(articles),
                     target=rng.choice(targets), kind=kind)
    return Delta(op="set_redirect", seq=seq, node_id=rng.choice(articles),
                 target=rng.choice(articles))


def _delta_sequence(graph, rng, count):
    """Up to ``count`` valid deltas drawn against the evolving view."""
    state = OverlayState()
    view = OverlayGraphView(graph, state)
    deltas = []
    for serial in range(count * 6):
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


def _assert_matches_scan(table, base, state, tokenizer):
    view = OverlayGraphView(base, state)
    derived = table.vocabulary(state)
    if view.num_articles == 0:
        assert derived == {}  # the linker refuses an empty graph
        return
    scan = EntityLinker(view, tokenizer)
    assert derived == scan.vocabulary()
    linker = EntityLinker(view, tokenizer, title_index=derived)
    assert linker.max_title_length == scan.max_title_length


class TestDerivedVocabulary:
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 2**32 - 1), num_shards=st.integers(1, 3),
           count=st.integers(1, 24))
    def test_vocabulary_matches_full_scan(self, seed, num_shards, count):
        rng = random.Random(seed)
        graph = _world(rng)
        tokenizer = Tokenizer()
        bases = (
            CompactGraphView.from_graph(graph),
            PartitionedGraphView(partition_graph(graph, num_shards)),
        )
        deltas = _delta_sequence(graph, rng, count)
        for base in bases:
            table = TitleTable(base, tokenizer)
            state = OverlayState()
            _assert_matches_scan(table, base, state, tokenizer)
            for batch in _batches(deltas, random.Random(seed)):
                state, applied = apply_deltas(base, state, batch)
                assert applied == batch
                _assert_matches_scan(table, base, state, tokenizer)

    def test_generator_reaches_every_op_and_title_shape(self):
        """The drawn sequences exercise all ops, re-adds included, and
        add titles that collide, have no tokens, or exceed the cap."""
        seen_ops, seen_titles = set(), set()
        for seed in range(30):
            rng = random.Random(seed)
            for op, delta in _delta_sequence(_world(rng), rng, 24):
                seen_ops.add(op)
                if delta.title is not None:
                    seen_titles.add(delta.title)
        assert seen_ops == set(_OPS)
        assert {"topic 1", "topic-1", "!!!", _LONG} <= seen_titles

    def test_empty_vocabulary_builds_an_empty_linker(self):
        builder = WikiGraphBuilder()
        builder.add_belongs(builder.add_article("!!!"),
                            builder.add_category("punctuation"))
        base = CompactGraphView.from_graph(builder.build())
        tokenizer = Tokenizer()
        vocabulary = TitleTable(base, tokenizer).vocabulary(OverlayState())
        assert vocabulary == {}
        linker = EntityLinker(base, tokenizer, title_index=vocabulary)
        assert linker.num_titles == 0
        assert linker.link_keywords("anything at all") == frozenset()


class TestCompactionAgreesWithServedVocabulary:
    def test_served_vocabulary_is_what_compaction_writes(
        self, small_benchmark, snapshot, tmp_path
    ):
        """The linker the coordinator served for generation N plus its
        overlay has the vocabulary ``compact()`` writes for N+1."""
        graph = small_benchmark.graph
        root = tmp_path / "serving"
        ShardedSnapshot.from_snapshot(snapshot, num_shards=2).save(root)
        router = ShardRouter(ShardedSnapshot.load(root))
        try:
            coordinator = UpdateCoordinator(router, snapshot_dir=root)
            articles = sorted(
                a.node_id for a in graph.articles()
                if not a.is_redirect and not graph.redirects_of(a.node_id)
            )
            title = graph.article(articles[0]).title
            deltas = [
                Delta(op="remove_article", seq=1, node_id=articles[0]),
                Delta(op="add_article", seq=2, node_id=9_200_000,
                      title=title + "!"),
                Delta(op="add_article", seq=3, node_id=articles[0],
                      title="Returning Live Title"),
                Delta(op="set_redirect", seq=4, node_id=articles[1],
                      target=articles[2]),
            ]
            coordinator.apply([d.to_payload() for d in deltas])
            served = router.linker.vocabulary()
            assert served[("returning", "live", "title")] == articles[0]
            assert served[Tokenizer().tokenize_phrase(title)] == 9_200_000
            coordinator.compact()
            written = ShardedSnapshot.load(root)
            assert written.generation == 2
            assert written.title_index == served
            assert router.linker.vocabulary() == served
        finally:
            router.close()
