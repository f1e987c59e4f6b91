"""Answer checks against in-process references built from the same seed.

An answer's fingerprint is its ranked doc ids, the repr of each score
(so equality is bit-exact, not approximate) and its sorted expansion
article ids.  Imports the program, so the run calls it only after the
timed window.
"""

from __future__ import annotations

from pathlib import Path


def fingerprint(answer: dict) -> tuple:
    return (
        tuple((row["doc_id"], repr(float(row["score"]))) for row in answer["results"]),
        tuple(answer["expansion"]["article_ids"]),
    )


def ranked_ids(answer: dict) -> list[str]:
    return [row["doc_id"] for row in answer["results"]]


def mean_precision(answers: list[dict], topics: list[dict]) -> float:
    """The paper's O(A, D) averaged over the topics, one answer each."""
    from repro.core.metrics import mean_precision as o_ad

    values = [o_ad(ranked_ids(answer), frozenset(topic["relevant"]))
              for answer, topic in zip(answers, topics)]
    return sum(values) / len(values)


class SingleShardReference:
    """An in-process single-shard ``ExpansionService`` (hot_http, cold_tail)."""

    def __init__(self, single_dir: Path) -> None:
        from repro.service import ExpansionService

        self._service = ExpansionService.from_snapshot(single_dir)

    def answer(self, text: str, top_k: int) -> dict:
        return self._service.expand_query(text, top_k=top_k).as_dict()

    def close(self) -> None:
        """Nothing to release: the service holds no threads or sockets."""


class LiveReference:
    """An in-process 2-shard ``ShardRouter`` under an ``UpdateCoordinator``
    that the acknowledged delta batches are replayed into (live_workers)."""

    def __init__(self, pristine_dir: Path) -> None:
        from repro.service import ShardedSnapshot, ShardRouter
        from repro.updates import UpdateCoordinator

        self._router = ShardRouter(ShardedSnapshot.load(pristine_dir))
        self._coordinator = UpdateCoordinator(self._router)

    def apply(self, deltas: list[dict], generation: int) -> int:
        """Apply one batch; returns its last seq."""
        return self._coordinator.apply(deltas, generation=generation)["last_seq"]

    def answer(self, text: str, top_k: int) -> dict:
        return self._router.expand_query(text, top_k=top_k).as_dict()

    def close(self) -> None:
        self._router.close()


def mismatches(served: list[tuple[str, dict]], reference, top_k: int) -> list[str]:
    """Compare each served ``(text, answer)`` with the reference's answer
    for the same text; returns one line per mismatching answer."""
    expected: dict[str, tuple] = {}
    problems = []
    for text, answer in served:
        if text not in expected:
            expected[text] = fingerprint(reference.answer(text, top_k))
        if fingerprint(answer) != expected[text]:
            problems.append(f"answer mismatch for {text!r}")
    return problems
