"""Delta evictions counted across supervised socket workers.

Under ``serve --workers`` the expansion caches live in the worker
processes, not in the router.  ``POST /admin/apply_delta`` must still
report what the workers evicted, and the eviction counter in
``/metrics`` must move by the same amount.
"""

import asyncio
import http.client
import json
import threading

from repro.obs.metrics import parse_prometheus_text
from repro.service import (
    AsyncShardRouter,
    HttpFrontEnd,
    ShardRouter,
    ShardSupervisor,
    ShardedSnapshot,
)
from repro.updates import UpdateCoordinator

_NEW = 9_400_000
_EXPANSION_EVICTIONS = (
    "repro_delta_invalidations_total", frozenset({("cache", "expansion")}),
)


class _Front:
    """An HttpFrontEnd on a private event-loop thread."""

    def __init__(self, front: HttpFrontEnd):
        self.front = front
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever, daemon=True)
        self.thread.start()
        server = asyncio.run_coroutine_threadsafe(
            front.start("127.0.0.1", 0), self.loop
        ).result(timeout=30)
        self.port = server.sockets[0].getsockname()[1]

    def request(self, method: str, path: str, payload=None) -> tuple[int, str]:
        body = json.dumps(payload).encode() if payload is not None else None
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            conn.request(method, path, body,
                         {"Content-Type": "application/json"} if body else {})
            response = conn.getresponse()
            return response.status, response.read().decode()
        finally:
            conn.close()

    def post(self, path: str, payload: dict) -> dict:
        status, body = self.request("POST", path, payload)
        assert status == 200, body
        return json.loads(body)

    def expansion_evictions(self) -> float:
        status, body = self.request("GET", "/metrics")
        assert status == 200
        return parse_prometheus_text(body)["samples"].get(
            _EXPANSION_EVICTIONS, 0.0
        )

    def close(self):
        asyncio.run_coroutine_threadsafe(
            self.front.stop(), self.loop
        ).result(timeout=30)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=30)
        self.front.service.close()


def test_apply_delta_counts_socket_worker_evictions(
    small_benchmark, snapshot, tmp_path
):
    sharded = ShardedSnapshot.from_snapshot(snapshot, num_shards=2)
    sharded.save(tmp_path)
    router = ShardRouter(sharded)
    supervisor = ShardSupervisor(str(tmp_path), 2, metrics=router.metrics)
    supervisor.start(timeout_s=120.0)
    front = None
    try:
        front = _Front(HttpFrontEnd(
            AsyncShardRouter(router, supervisor=supervisor),
            coordinator=UpdateCoordinator(
                router, snapshot_dir=tmp_path, supervisor=supervisor
            ),
        ))
        query = {"query": small_benchmark.topics[0].keywords}
        first = front.post("/expand", query)
        seeds = first["link"]["article_ids"]
        assert seeds, "the warmed topic must link to at least one article"
        assert front.post("/expand", query)["expansion_cached"]
        before = front.expansion_evictions()

        # A new article linked to one of the warmed seeds: the seed is a
        # source of the delta ball, so the worker owning the entry evicts it.
        summary = front.post("/admin/apply_delta", {"deltas": [
            {"op": "add_article", "seq": 1, "node_id": _NEW,
             "title": "Worker Eviction Page"},
            {"op": "add_edge", "seq": 2, "source": _NEW, "target": seeds[0],
             "kind": "link"},
        ], "generation": 1})
        assert summary["stale_workers"] == []
        evicted = summary["invalidated"]["expansion"]
        assert evicted >= 1, summary
        assert front.expansion_evictions() - before == evicted
        assert not front.post("/expand", query)["expansion_cached"]
    finally:
        if front is not None:
            front.close()
        else:
            router.close()
        supervisor.stop()
