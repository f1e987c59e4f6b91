"""Seeded request streams for the perfbench workloads.

Standard library only, and independent of the program's own load
generator, so a change to the program cannot shift the inputs.  The
only program-derived input is the *world* file written by
``prep.py``: the benchmark topics, the linker's title vocabulary and
the ids of the non-redirect articles.  Everything else is a pure
function of ``(world, workload, seed, seconds)``.

Run it as a script to print a plan's digest in a fresh interpreter::

    python3 perfbench/gen.py --world world.json --workload hot_http \\
        --seed 1 --seconds 20
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import random
from dataclasses import dataclass, field

WORKLOADS = ("hot_http", "cold_tail", "live_workers")

TEMPLATES = ("{}", "{} overview", "what is {}", "history of {}",
             "tell me about {}")
ZIPF_S = 1.1
TOP_K = 10
PRECISION_TOP_K = 15

HOT_RATE = 100.0          # reads/s, Poisson, 2 connections
COLD_RATE = 50.0          # reads/s, Poisson, 2 connections
LIVE_READ_RATE = 30.0     # reads/s, Poisson, 1 connection
WRITE_INTERVAL_S = 1.0    # live_workers: one batch per second, 1 connection
COLD_WARM_PAIRS = 50
PROBE_WRITES = 40         # every workload: writes after the read window,
PROBE_RATE = 8.0          # paced at this many per second on one connection

# Fresh articles get ids far above every node of the synthetic world.
NODE_BASE = 9_100_000


@dataclass
class Plan:
    """Everything one run sends, in send order within each phase."""

    workload: str
    seed: int
    seconds: float
    rate: float
    connections: int
    precision: list[str] = field(default_factory=list)
    warm: list[str] = field(default_factory=list)
    reads: list[tuple[float, str]] = field(default_factory=list)
    writes: list[tuple[float, list[dict]]] = field(default_factory=list)  # in the window
    probe: list[tuple[float, list[dict]]] = field(default_factory=list)   # after it

    def lines(self):
        """Canonical JSON lines of the plan (the digest's input)."""
        head = {"workload": self.workload, "seed": self.seed,
                "seconds": self.seconds, "rate": self.rate,
                "connections": self.connections, "top_k": TOP_K}
        yield json.dumps(head, sort_keys=True)
        for phase in ("precision", "warm"):
            for text in getattr(self, phase):
                yield json.dumps([phase, text])
        for due, text in self.reads:
            yield json.dumps(["read", repr(due), text])
        for phase in ("writes", "probe"):
            for due, deltas in getattr(self, phase):
                yield json.dumps([phase, repr(due), deltas], sort_keys=True)

    def digest(self) -> str:
        sha = hashlib.sha256()
        for line in self.lines():
            sha.update(line.encode("utf-8") + b"\n")
        return sha.hexdigest()

    def distinct_reads(self) -> list[str]:
        return list(dict.fromkeys(text for _, text in self.reads))


def world_digest(world: dict) -> str:
    return hashlib.sha256(
        json.dumps(world, sort_keys=True).encode("utf-8")
    ).hexdigest()


def _rng(seed: int, workload: str, part: str) -> random.Random:
    """An independent stream per (seed, workload, part), stable across
    processes (no ``hash()``)."""
    material = f"perfbench/{seed}/{workload}/{part}".encode("utf-8")
    return random.Random(int.from_bytes(hashlib.sha256(material).digest(), "big"))


def _poisson_offsets(rng: random.Random, rate: float, seconds: float) -> list[float]:
    """Arrival offsets of a Poisson process conditioned on exactly
    ``rate * seconds`` arrivals in the window: sorted uniform draws."""
    return sorted(rng.uniform(0.0, seconds) for _ in range(round(rate * seconds)))


class _HotTexts:
    """Zipf(1.1) topic popularity, times a uniformly drawn template.

    Which topics are popular is part of the workload, not of the seed:
    the ranking is one fixed shuffle, so runs with different seeds draw
    different samples of the same traffic.
    """

    def __init__(self, topics: list[str]) -> None:
        self._ranked = list(topics)
        _rng(0, "hot", "ranking").shuffle(self._ranked)
        total, self._cum = 0.0, []
        for rank in range(1, len(self._ranked) + 1):
            total += 1.0 / rank ** ZIPF_S
            self._cum.append(total)

    def draw(self, rng: random.Random) -> str:
        index = bisect.bisect_left(self._cum, rng.random() * self._cum[-1])
        return rng.choice(TEMPLATES).format(self._ranked[index])

    @staticmethod
    def working_set(topics: list[str]) -> list[str]:
        return [template.format(topic) for topic in topics
                for template in TEMPLATES]


class _Pairs:
    """``A compared with B`` over the title vocabulary; no unordered pair
    is drawn twice in one run."""

    def __init__(self, titles: list[str], rng: random.Random) -> None:
        self._titles = titles
        self._rng = rng
        self._used: set[tuple[str, str]] = set()

    def draw(self) -> str:
        while True:
            a, b = self._rng.sample(self._titles, 2)
            key = (a, b) if a < b else (b, a)
            if key not in self._used:
                self._used.add(key)
                return f"{a} compared with {b}"


def write_batches(articles: list[int], rng: random.Random, count: int) -> list[list[dict]]:
    """``count`` delta batches with absolute seqs from 1 (a fresh server).

    Even batches add an article (a title change: the linker is rebuilt
    and the link cache flushed) and link it to an existing article; odd
    batches add one more edge from the article the previous batch added.
    Targets are non-redirect articles, never the same one twice per
    source, so every batch validates.
    """
    batches, seq, used = [], 0, {}
    for k in range(count):
        deltas = []
        if k % 2 == 0:
            source = NODE_BASE + k
            seq += 1
            deltas.append({"op": "add_article", "seq": seq, "node_id": source,
                           "title": f"perfbench fresh page {k}"})
        else:
            source = NODE_BASE + k - 1
        target = rng.choice(articles)
        while target in used.setdefault(source, set()):
            target = rng.choice(articles)
        used[source].add(target)
        seq += 1
        deltas.append({"op": "add_edge", "seq": seq, "source": source,
                       "target": target, "kind": "link"})
        batches.append(deltas)
    return batches


def make_plan(world: dict, workload: str, seed: int, seconds: float) -> Plan:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    topics = [topic["keywords"] for topic in world["topics"]]
    precision = list(topics)
    if workload == "cold_tail":
        pairs = _Pairs(world["titles"], _rng(seed, workload, "pairs"))
        offsets = _poisson_offsets(_rng(seed, workload, "arrivals"), COLD_RATE, seconds)
        plan = Plan(workload, seed, seconds, COLD_RATE, 2, precision,
                    warm=[pairs.draw() for _ in range(COLD_WARM_PAIRS)])
        plan.reads = [(due, pairs.draw()) for due in offsets]
    else:
        live = workload == "live_workers"
        rate = LIVE_READ_RATE if live else HOT_RATE
        texts = _HotTexts(topics)
        draws = _rng(seed, workload, "texts")
        offsets = _poisson_offsets(_rng(seed, workload, "arrivals"), rate, seconds)
        plan = Plan(workload, seed, seconds, rate, 1 if live else 2, precision,
                    warm=_HotTexts.working_set(topics))
        plan.reads = [(due, texts.draw(draws)) for due in offsets]
    in_window = int(seconds / WRITE_INTERVAL_S) if workload == "live_workers" else 0
    batches = write_batches(world["articles"], _rng(seed, workload, "writes"),
                            in_window + PROBE_WRITES)
    plan.writes = [(WRITE_INTERVAL_S * (k + 0.5), batch)
                   for k, batch in enumerate(batches[:in_window])]
    # Probe offsets count from the start of the probe, after the window.
    plan.probe = [((k + 0.5) / PROBE_RATE, batch)
                  for k, batch in enumerate(batches[in_window:])]
    return plan


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--world", required=True)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    with open(args.world, encoding="utf-8") as handle:
        world = json.load(handle)
    print(make_plan(world, args.workload, args.seed, args.seconds).digest())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
