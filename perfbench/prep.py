"""Derive the generator's world file and the single-shard reference
snapshot from the seed-7 benchmark.

Run with the program's sources on ``PYTHONPATH``::

    PYTHONPATH=src python3 perfbench/prep.py --out DIR

writes ``DIR/world.json`` (the 50 topics with their relevant documents,
the linker's title vocabulary and the non-redirect article ids) and
``DIR/single/`` (a one-shard snapshot the answer checks load in process).
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

SEED = 7


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    from repro.harness import default_benchmark
    from repro.service import Snapshot

    out = Path(args.out)
    benchmark = default_benchmark(SEED)
    snapshot = Snapshot.build(benchmark)
    snapshot.save(out / "single")
    world = {
        "seed": SEED,
        "topics": [
            {"keywords": topic.keywords, "relevant": sorted(topic.relevant)}
            for topic in benchmark.topics
        ],
        "titles": sorted(" ".join(tokens) for tokens in snapshot.title_index),
        "articles": sorted(article.node_id
                           for article in benchmark.graph.main_articles()),
    }
    (out / "world.json").write_text(json.dumps(world, sort_keys=True), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
