"""Traced in-process replay of one workload's request streams.

Builds the same serving stack ``repro serve`` builds (2-shard router,
async router, update coordinator and, for ``live_workers``, supervised
shard workers behind socket adapters), wraps the public entry points of
each layer from outside, and replays the plan's reads and writes one at
a time in schedule order.  Prints one JSON object of per-layer numbers.

A span's self time is its duration minus the part of it that its child
spans cover, with time that spans running side by side share split
evenly between them; time no span covers is ``bench.unattributed_ms``.
Children are found through a context variable, which the program's
executors carry; a span opened where no parent is visible (a plain
``run_in_executor`` call) is attached to the smallest span on the
event-loop thread that contains it.  Means are per read (per write for
``updates.*``), so ``sum(self times) + bench.unattributed_ms`` equals
``bench.traced_wall_ms``.

Run with the program's sources on ``PYTHONPATH``::

    PYTHONPATH=src python3 perfbench/replay.py --work DIR \\
        --workload hot_http --seed 1 --seconds 20
"""

from __future__ import annotations

import argparse
import asyncio
import contextvars
import functools
import gc
import inspect
import json
import shutil
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gen  # noqa: E402

# layer -> [(module path, owner name or None for a module function, attributes)]
LAYERS = {
    "linking.link": [("repro.linking.linker", "EntityLinker", ("link",))],
    "core.expand": [("repro.core.expansion", "NeighborhoodCycleExpander",
                     ("expand", "expand_batch"))],
    "retrieval.search": [("repro.retrieval.engine", "SearchEngine",
                          ("search_phrases", "search", "search_with_background"))],
    "retrieval.counts": [("repro.retrieval.engine", "SearchEngine",
                          ("leaf_collection_counts",))],
    "service.shard": [("repro.service.server", "ExpansionService",
                       ("expand_query", "batch_expand", "link_text",
                        "expand_seeds", "prefill_expansions"))],
    "service.router": [("repro.service.router", "ShardRouter",
                        ("expand_query", "batch_expand", "link_text",
                         "build_query", "global_background", "owner_shard",
                         "normalize"))],
    "service.async_router": [("repro.service.async_router", "AsyncShardRouter",
                              ("expand_query", "batch_expand"))],
    "service.socket_adapter": [("repro.service.socket_adapter", "SocketShardAdapter",
                                ("link_text", "expand_seeds", "prefill_expansions",
                                 "leaf_collection_counts", "search_with_background"))],
    "updates.apply": [("repro.updates.coordinator", "UpdateCoordinator", ("apply",))],
    "updates.log_append": [("repro.updates.log", "DeltaLog", ("append",))],
    "updates.delta_ball": [("repro.updates.coordinator", None, ("delta_ball",))],
    "updates.linker_rebuild": [("repro.linking.linker", "EntityLinker", ("__init__",))],
}


class Span:
    __slots__ = ("layer", "method", "start", "end", "parent", "thread")

    def __init__(self, layer: str, method: str, parent) -> None:
        self.layer = layer
        self.method = method
        self.parent = parent
        self.thread = threading.get_ident()
        self.start = time.perf_counter()
        self.end = None


class Tracer:
    """Spans of the request in flight, folded into per-layer totals when
    the request ends.  Requests are replayed one at a time."""

    def __init__(self) -> None:
        self._current = contextvars.ContextVar("perfbench_span", default=None)
        self._lock = threading.Lock()
        self._spans: list[Span] = []
        self._loop_thread = threading.get_ident()
        self.root: Span | None = None
        self.totals: dict[str, dict[str, dict[str, float]]] = {}
        self.requests = {"read": 0, "write": 0}
        self.wall_s = {"read": 0.0, "write": 0.0}
        self.unattributed_s = {"read": 0.0, "write": 0.0}
        self.read_bytes = 0
        self.socket_counts_calls = 0
        self.gc_pauses: list[float] = []
        self._gc_started = None

    # -- instrumentation ------------------------------------------------

    def install(self) -> None:
        import importlib

        for layer, targets in LAYERS.items():
            for module_name, owner_name, attributes in targets:
                module = importlib.import_module(module_name)
                owner = getattr(module, owner_name) if owner_name else module
                for attribute in attributes:
                    self._wrap(owner, attribute, layer)
        self._count_wire_bytes()
        gc.callbacks.append(self._on_gc)

    def _wrap(self, owner, attribute: str, layer: str) -> None:
        original = getattr(owner, attribute)
        tracer = self
        if inspect.iscoroutinefunction(original):
            async def wrapper(*args, **kwargs):
                span = tracer._open(layer, attribute)
                if span is None:
                    return await original(*args, **kwargs)
                token = tracer._current.set(span)
                try:
                    return await original(*args, **kwargs)
                finally:
                    tracer._current.reset(token)
                    tracer._close(span)
        else:
            def wrapper(*args, **kwargs):
                span = tracer._open(layer, attribute)
                if span is None:
                    return original(*args, **kwargs)
                token = tracer._current.set(span)
                try:
                    return original(*args, **kwargs)
                finally:
                    tracer._current.reset(token)
                    tracer._close(span)
        setattr(owner, attribute, functools.wraps(original)(wrapper))

    def _count_wire_bytes(self) -> None:
        """Bytes of every frame a read request sends or receives."""
        from repro.service import wire

        encode, read_frame, recv_frame = wire.encode_frame, wire.read_frame, wire.recv_frame
        tracer = self

        def counted(nbytes: int) -> None:
            if tracer._in_read():
                with tracer._lock:
                    tracer.read_bytes += nbytes

        def encode_frame(payload):
            frame = encode(payload)
            counted(len(frame))
            return frame

        async def read(reader, **kwargs):
            payload = await read_frame(reader, **kwargs)
            if payload is not None:
                counted(len(encode(payload)))
            return payload

        def recv(sock, **kwargs):
            payload = recv_frame(sock, **kwargs)
            if payload is not None:
                counted(len(encode(payload)))
            return payload

        wire.encode_frame = encode_frame
        wire.read_frame = read
        wire.recv_frame = recv

    def _in_read(self) -> bool:
        root = self.root
        return (root is not None and root.layer == "read"
                and self._current.get() is not None)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
        elif self._gc_started is not None:
            if self.root is not None:
                self.gc_pauses.append(time.perf_counter() - self._gc_started)
            self._gc_started = None

    def _open(self, layer: str, method: str) -> Span | None:
        if self.root is None:
            return None
        return Span(layer, method, self._current.get())

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        with self._lock:
            self._spans.append(span)

    # -- requests ---------------------------------------------------------

    def begin(self, kind: str):
        self.root = Span(kind, kind, None)
        return self._current.set(self.root)

    def finish(self, token) -> None:
        root = self.root
        root.end = time.perf_counter()
        self._current.reset(token)
        self.root = None
        with self._lock:
            spans, self._spans = self._spans, []
        self._fold(root, spans)

    def _fold(self, root: Span, spans: list[Span]) -> None:
        on_loop = [s for s in spans if s.thread == self._loop_thread]
        children: dict[int, list[Span]] = {id(root): []}
        for span in spans:
            parent = span.parent
            if parent is None:
                holders = [s for s in on_loop if s is not span
                           and s.start <= span.start and span.end <= s.end]
                parent = min(holders, key=lambda s: s.end - s.start, default=root)
                span.parent = parent
            children.setdefault(id(parent), []).append(span)
        kind = root.layer
        self.requests[kind] += 1
        self.wall_s[kind] += root.end - root.start
        self_s = _self_times(root, spans)
        self.unattributed_s[kind] += self_s[id(root)]
        totals = self.totals.setdefault(kind, {})
        for span in spans:
            layer = totals.setdefault(span.layer, {"self_s": 0.0, "wall_s": 0.0,
                                                   "calls": 0})
            layer["self_s"] += self_s[id(span)]
            if span.parent.layer != span.layer:  # outermost entry into the layer
                layer["calls"] += 1
                layer["wall_s"] += span.end - span.start
            if (kind == "read" and span.layer == "service.socket_adapter"
                    and span.method == "leaf_collection_counts"):
                self.socket_counts_calls += 1


def _self_times(root: Span, spans: list[Span]) -> dict[int, float]:
    """Self time of the root and of each span, keyed by ``id``.

    Each instant of the request goes to the innermost spans open at that
    instant, split evenly when several are open side by side (the shard
    calls run in parallel); an instant with no span open goes to the
    root.  So a span's self time is its duration minus the part its
    children cover, less what it shares with a sibling, and the self
    times add up to the root's duration.
    """
    self_s = {id(span): 0.0 for span in [root, *spans]}
    cuts = sorted({root.start, root.end,
                   *(t for span in spans for t in (span.start, span.end)
                     if root.start < t < root.end)})
    for lo, hi in zip(cuts, cuts[1:]):
        open_spans = [span for span in spans if span.start <= lo and hi <= span.end]
        parents = {id(span.parent) for span in open_spans}
        innermost = [span for span in open_spans if id(span) not in parents] or [root]
        share = (hi - lo) / len(innermost)
        for span in innermost:
            self_s[id(span)] += share
    return self_s


async def replay(plan: gen.Plan, service, coordinator, tracer: Tracer,
                 generation: int) -> None:
    for text in plan.precision:
        await service.expand_query(text, top_k=gen.PRECISION_TOP_K)
    for text in plan.warm:
        await service.expand_query(text, top_k=gen.TOP_K)
    events = [(due, 0, text) for due, text in plan.reads]
    events += [(due, 1, deltas) for due, deltas in plan.writes]
    events.sort(key=lambda event: (event[0], event[1]))
    # The write probe follows the read window.
    events += [(float("inf"), 1, deltas) for _, deltas in plan.probe]
    for _, is_write, item in events:
        token = tracer.begin("write" if is_write else "read")
        try:
            if is_write:
                summary = coordinator.apply(item, generation=generation)
                if summary["applied"] != len(item):
                    raise RuntimeError(f"replayed batch not fully applied: {summary}")
            else:
                await service.expand_query(item, top_k=gen.TOP_K)
        finally:
            tracer.finish(token)


def per_layer(tracer: Tracer, load_s: float, workers_s: float) -> dict:
    reads = max(1, tracer.requests["read"])
    writes = max(1, tracer.requests["write"])
    read_layers = tracer.totals.get("read", {})
    write_layers = tracer.totals.get("write", {})

    def read(layer: str, key: str) -> float:
        value = read_layers.get(layer, {}).get(key, 0.0)
        return value / reads * (1.0 if key == "calls" else 1000.0)

    def write(layer: str) -> float:
        return write_layers.get(layer, {}).get("self_s", 0.0) / writes * 1000.0

    traced_ms = tracer.wall_s["read"] / reads * 1000.0
    socket = read_layers.get("service.socket_adapter", {})
    metrics = {
        "linking.link.calls": (read("linking.link", "calls"), "count"),
        "linking.link.self_ms": (read("linking.link", "self_s"), "ms"),
        "core.expand.calls": (read("core.expand", "calls"), "count"),
        "core.expand.self_ms": (read("core.expand", "self_s"), "ms"),
        "retrieval.search.calls": (read("retrieval.search", "calls"), "count"),
        "retrieval.search.self_ms": (read("retrieval.search", "self_s"), "ms"),
        # Over the socket a counts call is a round trip to a worker.
        "retrieval.counts.calls": (
            read("retrieval.counts", "calls")
            + tracer.socket_counts_calls / reads, "count"),
        "retrieval.counts.self_ms": (read("retrieval.counts", "self_s"), "ms"),
        "service.shard.self_ms": (read("service.shard", "self_s"), "ms"),
        "service.router.self_ms": (read("service.router", "self_s"), "ms"),
        "service.async_router.self_ms": (read("service.async_router", "self_s"), "ms"),
        "service.socket_adapter.calls": (socket.get("calls", 0) / reads, "count"),
        "service.socket_adapter.wall_ms": (socket.get("wall_s", 0.0) / reads * 1000.0, "ms"),
        "service.socket_adapter.self_ms": (read("service.socket_adapter", "self_s"), "ms"),
        "service.wire.bytes": (tracer.read_bytes / reads, "bytes"),
        "updates.apply.self_ms": (write("updates.apply"), "ms"),
        "updates.log_append_ms": (write("updates.log_append"), "ms"),
        "updates.delta_ball_ms": (write("updates.delta_ball"), "ms"),
        "updates.linker_rebuild_ms": (write("updates.linker_rebuild"), "ms"),
        "updates.write_wall_ms": (tracer.wall_s["write"] / writes * 1000.0, "ms"),
        "runtime.gc_pause_ms": (sum(tracer.gc_pauses) * 1000.0 / reads, "ms"),
        "runtime.gc_max_pause_ms": (max(tracer.gc_pauses, default=0.0) * 1000.0, "ms"),
        "setup.snapshot_load_s": (load_s, "s"),
        "setup.workers_ready_s": (workers_s, "s"),
        "bench.traced_wall_ms": (traced_ms, "ms"),
        "bench.unattributed_ms": (tracer.unattributed_s["read"] / reads * 1000.0, "ms"),
    }
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--work", required=True)
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)

    work = Path(args.work)
    world = json.loads((work / "world.json").read_text(encoding="utf-8"))
    plan = gen.make_plan(world, args.workload, args.seed, args.seconds)
    tracer = Tracer()
    tracer.install()

    from repro.service import AsyncShardRouter, ShardedSnapshot, ShardRouter
    from repro.updates import UpdateCoordinator

    snapshot_dir = work / "replay"
    shutil.copytree(work / "pristine", snapshot_dir)
    started = time.perf_counter()
    snapshot = ShardedSnapshot.load(snapshot_dir)
    load_s = time.perf_counter() - started
    router = ShardRouter(snapshot)
    supervisor, workers_s = None, 0.0
    try:
        if plan.workload == "live_workers":
            from repro.service.socket_adapter import ShardCallPolicy
            from repro.service.supervisor import ShardSupervisor

            supervisor = ShardSupervisor(str(snapshot_dir), router.num_shards,
                                         metrics=router.metrics)
            started = time.perf_counter()
            supervisor.start()
            workers_s = time.perf_counter() - started
            service = AsyncShardRouter(router, supervisor=supervisor,
                                       policy=ShardCallPolicy(call_timeout_s=30.0))
        else:
            service = AsyncShardRouter(router)
        coordinator = UpdateCoordinator(router, snapshot_dir=snapshot_dir,
                                        supervisor=supervisor)
        try:
            asyncio.run(replay(plan, service, coordinator, tracer,
                               router.generation))
        finally:
            service.close()
    finally:
        if supervisor is not None:
            supervisor.stop()
        router.close()
    metrics = per_layer(tracer, load_s, workers_s)
    print(json.dumps({name: [value, unit] for name, (value, unit) in metrics.items()}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
