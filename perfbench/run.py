"""perfbench: the serving stack measured end to end over HTTP.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload hot_http --seed 1 --seconds 20 --trace 0

``--workload all`` runs every workload in turn and prints one result
line for each.

One run builds the 2-shard seed-7 snapshot with ``repro snapshot``,
starts ``repro serve --http 0`` on fresh copies of it (several times, for
``setup_s``), sends the workload's seeded requests from this process
over at most two connections, checks every answer against an in-process
reference, and prints one JSON line last: ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` runs the same and then replays the request
streams in a traced in-process stack (``replay.py``) for the per-layer
metrics.  ``perfbench/workloads.json`` records what each workload is
for.  Exit status: 0 when every check passed, 1 when one failed, 2 when
the program's sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import load  # noqa: E402

SHARDS = 2
SETUP_SPAWNS = 3
# The read-path self times that, with bench.unattributed_ms, make up
# bench.traced_wall_ms.
LEDGER = ("linking.link.self_ms", "core.expand.self_ms",
          "retrieval.search.self_ms", "retrieval.counts.self_ms",
          "service.shard.self_ms", "service.router.self_ms",
          "service.async_router.self_ms", "service.socket_adapter.self_ms")


def _quantile(values: list[float], q: int) -> float:
    """The q-th percentile (``statistics.quantiles``, inclusive); 0.0 for
    fewer than two values, which only a failed run produces."""
    if len(values) < 2:
        return 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _ms(seconds: float) -> float:
    return seconds * 1000.0


def _run_checked(cmd: list[str], env: dict) -> subprocess.Popen:
    return subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True)


def _wait_checked(proc: subprocess.Popen, what: str) -> None:
    output, _ = proc.communicate(timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"{what} failed (rc={proc.returncode}):\n{output}")


def prepare(work: Path, env: dict) -> None:
    """Pristine 2-shard snapshot, single-shard reference and world file."""
    snapshot = _run_checked(
        [sys.executable, "-m", "repro.cli", "snapshot", "--out",
         str(work / "pristine"), "--shards", str(SHARDS), "--seed", "7"], env)
    prep = _run_checked(
        [sys.executable, str(HERE / "prep.py"), "--out", str(work)], env)
    _wait_checked(snapshot, "repro snapshot")
    _wait_checked(prep, "prep.py")


def fresh_digest(args, world_path: Path, env: dict) -> str:
    """The plan's digest recomputed in a fresh interpreter with another
    hash seed: the stream must not depend on the process."""
    child_env = dict(env, PYTHONHASHSEED=str(args.seed + 1))
    output = subprocess.run(
        [sys.executable, str(HERE / "gen.py"), "--world", str(world_path),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", repr(float(args.seconds))],
        env=child_env, check=True, capture_output=True, text=True).stdout
    return output.strip()


class Run:
    """One workload run: the server, its load and its checks."""

    def __init__(self, args, work: Path, env: dict, plan: gen.Plan) -> None:
        self.args = args
        self.work = work
        self.env = env
        self.plan = plan
        self.live = args.workload == "live_workers"
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def fail(self, message: str) -> None:
        self.problems.append(message)

    def count(self, outcomes) -> None:
        self.attempted += len(outcomes)
        for outcome in outcomes:
            if not outcome.ok:
                self.failed += 1
                self.fail(f"request failed: status {outcome.status} "
                          f"{outcome.error or outcome.body}")

    def serve_all(self) -> None:
        """Spawn the server SETUP_SPAWNS times (once when traced, which
        reports no setup_s), each on a fresh copy of the pristine
        snapshot; the last one serves the workload."""
        setups = []
        spawns = 1 if self.args.trace else SETUP_SPAWNS
        for attempt in range(spawns):
            snapshot = self.work / f"serve-{attempt}"
            shutil.copytree(self.work / "pristine", snapshot)
            server = load.Server(snapshot, workers=SHARDS if self.live else 0,
                                 env=self.env, log_path=self.work / "serve.log")
            try:
                server.start()
                setups.append(server.setup_s)
                if attempt == spawns - 1:
                    self.drive(server)
            finally:
                server.stop()
        self.setup_s = statistics.median(setups)

    def drive(self, server: load.Server) -> None:
        plan = self.plan
        health = server.healthz()
        self.generation = generation = health["snapshot_generation"]
        clients = [load.Client(server.port) for _ in range(2)]
        try:
            self.precision = load.sequential(clients[0], plan.precision,
                                             gen.PRECISION_TOP_K)
            self.warm = load.sequential(clients[0], plan.warm, gen.TOP_K)
            # The client's own collector must not pause the timed window.
            gc.collect()
            gc.freeze()
            gc.disable()
            try:
                cpu_start = server.cpu_seconds(health)
                if self.live:
                    window = load.open_loop(
                        [([clients[0]], plan.reads, "read"),
                         ([clients[1]], plan.writes, "write")],
                        gen.TOP_K, generation)
                else:
                    window = load.open_loop([(clients, plan.reads, "read")],
                                            gen.TOP_K)
                cpu_window = server.cpu_seconds(health)
                probe = load.open_loop([([clients[0]], plan.probe, "write")],
                                       gen.TOP_K, generation)
                cpu_probe = server.cpu_seconds(health)
            finally:
                gc.enable()
                gc.unfreeze()
            self.reads = [o for o in window if o.text is not None]
            self.writes = [o for o in window if o.text is None] + probe
            self.probe = probe
            self.cpu_window_s = cpu_window - cpu_start
            self.cpu_probe_s = cpu_probe - cpu_window
            health = server.healthz()
            self.rss_mb = server.peak_rss_mb(health)
            self.final_delta_seq = health["delta_seq"]
            self.reasked = (load.sequential(clients[0], plan.distinct_reads(),
                                            gen.TOP_K) if self.live else [])
        finally:
            for client in clients:
                client.close()

    def check(self, world: dict) -> None:
        import check

        plan = self.plan
        batches = [deltas for _, deltas in plan.writes + plan.probe]
        for outcomes in (self.precision, self.warm, self.reads, self.writes,
                         self.reasked):
            self.count(outcomes)
        for outcome, deltas in zip(self.writes, batches):
            if outcome.ok and outcome.body.get("applied") != len(deltas):
                self.failed += 1
                self.fail(f"delta batch not fully applied: {outcome.body}")
        acked = [o.body["last_seq"] for o in self.writes if o.ok]
        if not acked or self.final_delta_seq != max(acked):
            self.fail(f"/healthz delta_seq {self.final_delta_seq} is not the "
                      f"last acknowledged seq {max(acked, default=None)}")

        def served(outcomes):
            return [(o.text, o.body) for o in outcomes if o.ok]

        if self.live:
            reference = check.LiveReference(self.work / "pristine")
        else:
            reference = check.SingleShardReference(self.work / "single")
        try:
            ref_precision = [reference.answer(text, gen.PRECISION_TOP_K)
                             for text in plan.precision]
            wrong = check.mismatches(served(self.precision), reference,
                                     gen.PRECISION_TOP_K)
            before_writes = self.warm + ([] if self.live else self.reads)
            wrong += check.mismatches(served(before_writes), reference, gen.TOP_K)
            if self.live:
                for outcome, deltas in zip(self.writes, batches):
                    if outcome.ok:
                        reference.apply(deltas, self.generation)
                wrong += check.mismatches(served(self.reasked), reference, gen.TOP_K)
        finally:
            reference.close()
        self.failed += len(wrong)
        self.problems += wrong
        if all(o.ok for o in self.precision):
            self.mean_precision = check.mean_precision(
                [o.body for o in self.precision], world["topics"])
            expected = check.mean_precision(ref_precision, world["topics"])
            if self.mean_precision != expected:
                self.fail(f"mean_precision {self.mean_precision!r} over HTTP "
                          f"differs from in-process {expected!r}")
        else:
            self.mean_precision = 0.0  # the failures above already fail the run
        hits = self.expansion_hit_ratio()
        if self.args.workload == "hot_http" and hits < 0.99:
            self.fail(f"hot_http expansion hit ratio {hits:.4f} < 0.99")
        if self.args.workload == "cold_tail" and hits > 0.01:
            self.fail(f"cold_tail expansion hit ratio {hits:.4f} > 0.01")

    def _ok_reads(self):
        return [o for o in self.reads if o.ok]

    def expansion_hit_ratio(self) -> float:
        reads = self._ok_reads()
        return sum(o.body["expansion_cached"] for o in reads) / max(1, len(reads))

    def end_to_end(self) -> dict:
        return {
            "setup_s": (self.setup_s, "s"),
            "cpu_ms_per_read": (_ms(self.cpu_window_s) / max(1, len(self.reads)), "ms"),
            "cpu_ms_per_write": (_ms(self.cpu_probe_s) / max(1, len(self.probe)), "ms"),
            "rss_mb": (self.rss_mb, "MB"),
            "mean_precision": (self.mean_precision, "ratio"),
        }

    def from_responses(self) -> dict:
        """What the client saw, and the per-layer numbers the timed run's
        responses already carry."""
        reads = self._ok_reads()
        latencies = [_ms(o.done - o.due) for o in reads]
        # Batches alternate a title change and an edge-only change, about
        # 2.5x apart; a median over both kinds would jump between the two
        # modes, so the unit is a (title, edge) pair and its mean latency.
        probe = [_ms(o.done - o.due) for o in self.probe if o.ok]
        pairs = [(probe[i] + probe[i + 1]) / 2 for i in range(0, len(probe) - 1, 2)]
        overhead = [_ms(o.done - o.sent) - o.body["latency_ms"] for o in reads]
        unattributed = [o.body["latency_ms"] - sum(o.body["stages"].values())
                        for o in reads]
        # How late the generator woke for a request whose connection was
        # idle; waiting for a busy connection is latency, not lateness.
        late = [_ms(o.sent - o.due) for o in self.reads if not o.queued]
        n = max(1, len(reads))
        return {
            "client.p50_ms": (_median(latencies), "ms"),
            "client.p90_ms": (_quantile(latencies, 90), "ms"),
            "client.p99_ms": (_quantile(latencies, 99), "ms"),
            "client.write_p50_ms": (_median(pairs), "ms"),
            "service.http.overhead_ms": (_median(overhead), "ms"),
            "service.unattributed_ms": (_median(unattributed), "ms"),
            "core.expansion_hit_ratio": (self.expansion_hit_ratio(), "ratio"),
            "linking.link_hit_ratio": (
                sum(o.body["link_cached"] for o in reads) / n, "ratio"),
            "loadgen.late_p99_ms": (_quantile(late, 99), "ms"),
            "server.latency_mean_ms": (
                sum(o.body["latency_ms"] for o in reads) / n, "ms"),
        }


def traced_replay(args, work: Path, env: dict) -> dict:
    """Per-layer numbers from ``replay.py`` in a fresh process, in a
    process group of its own so that its shard workers go with it."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "replay.py"), "--work", str(work),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", repr(float(args.seconds))],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        output, errors = proc.communicate(timeout=120)
    finally:
        load.kill_group(proc)
    if proc.returncode != 0:
        raise RuntimeError(f"replay.py failed (rc={proc.returncode}):\n{errors}")
    return {name: tuple(value) for name, value in
            json.loads(output.strip().splitlines()[-1]).items()}


class _Phases:
    """Wall time of each phase of a run, printed to stderr at the end."""

    def __init__(self) -> None:
        self.last = time.perf_counter()
        self.times: list[tuple[str, float]] = []

    def mark(self, name: str) -> None:
        now = time.perf_counter()
        self.times.append((name, now - self.last))
        self.last = now

    def __str__(self) -> str:
        return " ".join(f"{name}={seconds:.1f}s" for name, seconds in self.times)


def execute(args, work: Path, env: dict) -> dict:
    phases = _Phases()
    prepare(work, env)
    phases.mark("prepare")
    world_path = work / "world.json"
    world = json.loads(world_path.read_text(encoding="utf-8"))
    plan = gen.make_plan(world, args.workload, args.seed, float(args.seconds))
    run = Run(args, work, env, plan)
    digest = plan.digest()
    if fresh_digest(args, world_path, env) != digest:
        run.fail("request stream digest differs between processes")
    record = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))
    if gen.world_digest(world) != record["world_sha256"]:
        run.fail("the seed-7 world the requests are drawn from has changed "
                 f"(sha256 {gen.world_digest(world)})")
    recorded = record["stream_sha256"][args.workload].get(str(args.seed))
    if args.seconds == record["stream_seconds"] and recorded not in (None, digest):
        run.fail(f"request stream sha256 {digest} differs from the recorded {recorded}")
    phases.mark("digests")
    run.serve_all()
    phases.mark("serve")
    run.check(world)
    phases.mark("check")

    if args.trace:
        metrics = run.from_responses()
        metrics.update(traced_replay(args, work, env))
        served_ms = metrics.pop("server.latency_mean_ms")[0]
        metrics["bench.trace_overhead_ratio"] = (
            metrics["bench.traced_wall_ms"][0] / served_ms if served_ms else 0.0,
            "ratio")
        ledger = sum(metrics[name][0] for name in LEDGER) \
            + metrics["bench.unattributed_ms"][0]
        if abs(ledger - metrics["bench.traced_wall_ms"][0]) > 1e-6:
            run.fail(f"per-layer self times + bench.unattributed_ms = {ledger} ms, "
                     f"not the traced wall {metrics['bench.traced_wall_ms'][0]} ms")
        phases.mark("replay")
    else:
        metrics = run.end_to_end()
    phases.mark("report")
    print(f"phases: {phases}", file=sys.stderr)
    for problem in run.problems[:20]:
        print(f"check: {problem}", file=sys.stderr)
    print(f"stream sha256 {digest} ({len(plan.reads)} reads, "
          f"{len(plan.writes)} writes in the window, {len(plan.probe)} after it)",
          file=sys.stderr)
    return {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=gen.WORKLOADS + ("all",),
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A shell that starts this in the background ignores SIGINT, and the
    # servers would inherit that; they stop on SIGINT, so restore it.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    # On SIGTERM, unwind so that the servers are stopped and the work
    # directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    src = root / "src"
    if not (src / "repro" / "cli.py").is_file():
        print(f"error: no program sources at {src}/repro; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    workloads = gen.WORKLOADS if args.workload == "all" else (args.workload,)
    correct = True
    for workload in workloads:
        run_args = argparse.Namespace(**dict(vars(args), workload=workload))
        work = root / ".perfbench" / f"{workload}-{os.getpid()}"
        work.mkdir(parents=True)
        started = time.perf_counter()
        try:
            result = execute(run_args, work, env)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        print(f"{workload}: run took {time.perf_counter() - started:.1f}s",
              file=sys.stderr)
        for name, metric in result["metrics"].items():
            print(f"{workload}: {name} = {metric['value']:.6g} {metric['unit']}",
                  file=sys.stderr)
        print(json.dumps(result), flush=True)
        correct = correct and result["correct"]
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
