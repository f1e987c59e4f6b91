"""The server under test as a subprocess, and the HTTP load that drives it.

One client process, at most two keep-alive connections, standard
library only.  Open-loop reads are timed from their *scheduled* send
time, so a stall shows up in every request queued behind it.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

_PORT_LINE = re.compile(r"http: serving on http://[\d.]+:(\d+)")
HOST = "127.0.0.1"


class Server:
    """``repro serve --snapshot DIR --http 0`` in its own process group."""

    def __init__(self, snapshot_dir: Path, *, workers: int, env: dict,
                 log_path: Path) -> None:
        self._snapshot_dir = snapshot_dir
        self._workers = workers
        self._env = env
        self._log_path = log_path
        self.proc: subprocess.Popen | None = None
        self.port: int | None = None
        self.setup_s: float | None = None

    def start(self, timeout_s: float = 120.0) -> None:
        """Spawn and wait for ``/healthz`` 200 with every worker up;
        ``setup_s`` is the time from spawn to that answer."""
        cmd = [sys.executable, "-m", "repro.cli", "serve",
               "--snapshot", str(self._snapshot_dir), "--http", "0"]
        if self._workers:
            cmd += ["--workers", str(self._workers)]
        port_seen = threading.Event()
        with open(self._log_path, "ab") as log:
            started = time.perf_counter()
            self.proc = subprocess.Popen(
                cmd, env=self._env, stdout=subprocess.PIPE, stderr=log,
                stdin=subprocess.DEVNULL, start_new_session=True, text=True,
            )
        self._drain = threading.Thread(
            target=self._read_stdout, args=(port_seen,), daemon=True)
        self._drain.start()
        deadline = started + timeout_s
        while not port_seen.wait(0.002):
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                raise RuntimeError(f"serve exited or hung before binding "
                                   f"(rc={self.proc.poll()}); see {self._log_path}")
        conn = http.client.HTTPConnection(HOST, self.port, timeout=10)
        try:
            while True:
                health = _healthz(conn)
                if health is not None and _workers_up(health, self._workers):
                    self.setup_s = time.perf_counter() - started
                    return
                if time.perf_counter() > deadline:
                    raise RuntimeError("serve never reported healthy")
                time.sleep(0.002)
        finally:
            conn.close()

    def _read_stdout(self, port_seen: threading.Event) -> None:
        with open(self._log_path, "a", encoding="utf-8") as log:
            for line in self.proc.stdout:
                log.write(line)
                match = _PORT_LINE.search(line)
                if match and self.port is None:
                    self.port = int(match.group(1))
                    port_seen.set()

    def healthz(self) -> dict:
        conn = http.client.HTTPConnection(HOST, self.port, timeout=30)
        try:
            health = _healthz(conn)
        finally:
            conn.close()
        if health is None:
            raise RuntimeError("/healthz did not answer 200")
        return health

    def pids(self, health: dict) -> list[int]:
        """The server and its shard-worker processes."""
        return [self.proc.pid] + [w["pid"] for w in health.get("workers", [])]

    def peak_rss_mb(self, health: dict) -> float:
        """Peak RSS (``VmHWM``) summed over the server and its workers."""
        total_kb = 0
        for pid in self.pids(health):
            status = Path(f"/proc/{pid}/status").read_text()
            total_kb += int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1))
        return total_kb / 1024.0

    def cpu_seconds(self, health: dict) -> float:
        """User + system CPU time used so far by the server and its workers.

        CPU time, unlike wall time, does not count the time the machine's
        hypervisor gave the CPU to someone else."""
        ticks = 0
        for pid in self.pids(health):
            fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
            ticks += int(fields[11]) + int(fields[12])  # utime, stime
        return ticks / os.sysconf("SC_CLK_TCK")

    def stop(self) -> None:
        """Interrupt the whole process group; kill whatever lingers."""
        if self.proc is None:
            return
        try:
            os.killpg(self.proc.pid, signal.SIGINT)
            self.proc.wait(timeout=15)
        except (ProcessLookupError, subprocess.TimeoutExpired):
            pass
        kill_group(self.proc)
        self._drain.join(timeout=5)
        self.proc = None


def kill_group(proc: subprocess.Popen, timeout_s: float = 10.0) -> None:
    """SIGKILL the process group that ``proc`` leads, reap ``proc`` and
    wait until no other member of the group is left."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.perf_counter() + timeout_s
    try:
        while time.perf_counter() < deadline:
            os.killpg(proc.pid, 0)
            time.sleep(0.01)
    except ProcessLookupError:
        pass


def _healthz(conn: http.client.HTTPConnection) -> dict | None:
    try:
        conn.request("GET", "/healthz")
        response = conn.getresponse()
        body = response.read()
    except OSError:
        conn.close()
        return None
    return json.loads(body) if response.status == 200 else None


def _workers_up(health: dict, workers: int) -> bool:
    states = [w.get("state") for w in health.get("workers", [])]
    return len(states) == workers and all(s == "up" for s in states)


# ----------------------------------------------------------------------
# Client side
# ----------------------------------------------------------------------

@dataclass
class Outcome:
    """One request as the client saw it.  The body stays raw bytes until
    first read, so the timed window does not pay for JSON parsing."""

    text: str | None          # the query; None for a write
    due: float                # scheduled send time (perf_counter)
    sent: float
    done: float
    status: int               # 0: transport error
    raw: bytes
    error: str = ""
    queued: bool = False      # its connection was still busy at the due time

    @cached_property
    def body(self) -> dict | None:
        try:
            return json.loads(self.raw)
        except ValueError:
            return None

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300 and self.body is not None


class Client:
    """One keep-alive HTTP/1.1 connection over a plain socket.

    ``http.client`` parses headers through the email package, which costs
    the client more CPU than the server spends on a cached answer; this
    reads only the status line and ``Content-Length``.  A transport error
    closes the socket and the next request reconnects.
    """

    def __init__(self, port: int) -> None:
        self._port = port
        self._sock: socket.socket | None = None
        self._buffer = b""

    def _connect(self) -> socket.socket:
        sock = socket.create_connection((HOST, self._port), timeout=60)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buffer = b""
        return sock

    def post(self, path: str, payload: dict) -> tuple[int, bytes, str]:
        data = json.dumps(payload).encode("utf-8")
        request = (f"POST {path} HTTP/1.1\r\nHost: {HOST}\r\n"
                   "Content-Type: application/json\r\n"
                   f"Content-Length: {len(data)}\r\n\r\n").encode("ascii") + data
        try:
            if self._sock is None:
                self._sock = self._connect()
            self._sock.sendall(request)
            head = self._read_until(b"\r\n\r\n")
            lines = head.split(b"\r\n")
            status = int(lines[0].split(b" ", 2)[1])
            length, close = 0, False
            for line in lines[1:]:
                name, _, value = line.partition(b":")
                name = name.strip().lower()
                if name == b"content-length":
                    length = int(value)
                elif name == b"connection":
                    close = value.strip().lower() == b"close"
            raw = self._read_exactly(length)
        except (OSError, ValueError, IndexError) as exc:
            self.close()
            return 0, b"", f"{type(exc).__name__}: {exc}"
        if close:
            self.close()
        return status, raw, ""

    def _read_until(self, marker: bytes) -> bytes:
        while True:
            index = self._buffer.find(marker)
            if index >= 0:
                head = self._buffer[:index]
                self._buffer = self._buffer[index + len(marker):]
                return head
            self._fill()

    def _read_exactly(self, length: int) -> bytes:
        while len(self._buffer) < length:
            self._fill()
        data, self._buffer = self._buffer[:length], self._buffer[length:]
        return data

    def _fill(self) -> None:
        chunk = self._sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self._buffer += chunk

    def expand(self, text: str, top_k: int) -> tuple[int, bytes, str]:
        return self.post("/expand", {"query": text, "top_k": top_k})

    def close(self) -> None:
        if self._sock is not None:
            self._sock.close()
            self._sock = None


def sequential(client: Client, texts: list[str], top_k: int) -> list[Outcome]:
    """Untimed phases: one request after another on one connection."""
    outcomes = []
    for text in texts:
        sent = time.perf_counter()
        status, raw, error = client.expand(text, top_k)
        outcomes.append(Outcome(text, sent, sent, time.perf_counter(),
                                status, raw, error))
    return outcomes


def open_loop(client_groups: list[tuple[list[Client], list[tuple[float, object]], str]],
              top_k: int, generation: int = 0) -> list[Outcome]:
    """Send every scheduled request at its due time.

    Each group is ``(clients, schedule, kind)``: the group's connections
    share one cursor over its ``(offset_s, item)`` schedule, so a free
    connection takes the next due request.  ``kind`` is ``"read"`` (item
    is a query text) or ``"write"`` (item is a delta batch).
    """
    lock = threading.Lock()
    outcomes: list[Outcome] = []
    t0 = time.perf_counter() + 0.05
    jobs = []
    for clients, schedule, kind in client_groups:
        cursor = [0]
        for client in clients:
            jobs.append((client, schedule, kind, cursor))

    def drive(job) -> None:
        client, schedule, kind, cursor = job
        while True:
            with lock:
                index = cursor[0]
                cursor[0] += 1
            if index >= len(schedule):
                return
            offset, item = schedule[index]
            due = t0 + offset
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            if kind == "read":
                status, raw, error = client.expand(item, top_k)
                outcome = Outcome(item, due, sent, time.perf_counter(),
                                  status, raw, error, queued=delay <= 0)
            else:
                status, raw, error = client.post(
                    "/admin/apply_delta",
                    {"generation": generation, "deltas": item})
                outcome = Outcome(None, due, sent, time.perf_counter(),
                                  status, raw, error, queued=delay <= 0)
            with lock:
                outcomes.append(outcome)

    _run_threads(drive, jobs)
    outcomes.sort(key=lambda outcome: outcome.due)
    return outcomes


def _run_threads(target, items) -> None:
    errors: list[BaseException] = []

    def guarded(item) -> None:
        try:
            target(item)
        except BaseException as exc:  # noqa: BLE001 — re-raised below
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(item,)) for item in items]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
