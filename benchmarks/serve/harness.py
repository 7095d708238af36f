"""Process and traffic plumbing of the serve benchmark.

* :class:`ServeProcess` runs one ``repro serve`` subprocess in its own
  session (so the whole tree -- shard workers included -- can be
  signalled at once), reads its URL from stdout, reports the tree's
  peak resident memory from ``/proc`` and stops it with SIGTERM, the
  graceful shutdown path that runs the close-time checkpoint.
* :func:`closed_loop` drives a server from threads of this process,
  each with one keep-alive ``http.client`` connection.  Every client
  sends its next request only after the previous answer arrived, and
  all clients of one stream pull from one shared, ordered request list.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

_URL = re.compile(r"on http://([\d.]+):(\d+)")
ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
TRACE_BOOTSTRAP = Path(__file__).resolve().parent / "trace"


def child_env(trace_out: Path | None = None) -> dict:
    """Environment of every ``repro`` subprocess the benchmark starts.

    The program comes from this checkout's ``src``; failpoints and the
    concurrency sanitizer stay off.  ``trace_out`` adds the span
    bootstrap to the path and names the directory its span files go to.
    """
    env = dict(os.environ)
    for name in ("REPRO_FAILPOINTS", "REPRO_SANITIZE", "REPRO_BENCH_TRACE_OUT"):
        env.pop(name, None)
    env["PYTHONPATH"] = str(SRC)
    if trace_out is not None:
        env["PYTHONPATH"] += os.pathsep + str(TRACE_BOOTSTRAP)
        env["REPRO_BENCH_TRACE_OUT"] = str(trace_out)
    return env


class ServeError(RuntimeError):
    """The server did not come up, or died while the benchmark needed it."""


class ServeProcess:
    """One ``python -m repro.cli serve ...`` subprocess."""

    def __init__(self, argv: list, *, cwd: Path, env: dict, log: Path) -> None:
        self.started = time.perf_counter()
        self._log_path = log
        self._log = open(log, "ab")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", *argv, "--port", "0"],
            cwd=cwd,
            env=env,
            stdout=subprocess.PIPE,
            stderr=self._log,
            start_new_session=True,
        )
        for raw in self.proc.stdout:
            match = _URL.search(raw.decode("utf-8", "replace"))
            if match:
                self.host, self.port = match.group(1), int(match.group(2))
                return
        self.kill()
        raise ServeError(f"repro serve exited before serving:\n{self._log_tail()}")

    def _log_tail(self) -> str:
        return self._log_path.read_bytes()[-4000:].decode("utf-8", "replace")

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=120)

    def get(self, path: str) -> tuple:
        conn = self.connect()
        try:
            conn.request("GET", path)
            resp = conn.getresponse()
            return resp.status, json.loads(resp.read())
        finally:
            conn.close()

    def _tree(self) -> list:
        """``_processes()`` rows of the server and all its descendants."""
        rows = _processes()
        children: dict = {}
        for row in rows:
            children.setdefault(row[2], []).append(row)
        tree, todo = [], [r for r in rows if r[0] == self.proc.pid]
        while todo:
            row = todo.pop()
            tree.append(row)
            todo.extend(children.get(row[0], ()))
        return tree

    def peak_rss_mb(self) -> float:
        """Sum of ``VmHWM`` over the process tree (workers, helpers), in MiB."""
        total_kb = 0
        for row in self._tree():
            try:
                with open(f"/proc/{row[0]}/status") as fh:
                    for line in fh:
                        if line.startswith("VmHWM:"):
                            total_kb += int(line.split()[1])
            except OSError:
                continue
        return total_kb / 1024.0

    def cpu_seconds(self) -> float:
        """User plus system CPU time of the live process tree, in seconds."""
        return sum(row[4] for row in self._tree()) / os.sysconf("SC_CLK_TCK")

    def stop(self, timeout: float = 120.0) -> None:
        """SIGTERM (the graceful close, with its checkpoint) and wait."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.kill()
            raise ServeError("repro serve did not exit after SIGTERM")
        self._log.close()
        self._reap_group()
        if self.proc.returncode != 0:
            raise ServeError(
                f"repro serve exited with {self.proc.returncode}:\n"
                f"{self._log_tail()}"
            )

    def _reap_group(self, timeout: float = 30.0) -> None:
        """Wait until no live process of the server's group remains.

        Helpers the server spawned (the multiprocessing resource
        tracker) exit shortly after it; SIGKILL whatever outlives
        ``timeout``.
        """
        deadline = time.monotonic() + timeout
        while any(
            row[3] == self.proc.pid and row[1] != "Z" for row in _processes()
        ):
            if time.monotonic() > deadline:
                try:
                    os.killpg(self.proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    return
            time.sleep(0.05)

    def kill(self) -> None:
        """Hard-stop the whole process group and reap the server."""
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        self._reap_group()
        self.proc.stdout.close()
        self._log.close()


def _processes() -> list:
    """``(pid, state, ppid, pgrp, cpu ticks)`` of every process in ``/proc``."""
    rows = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        # The command name may contain spaces; the fields follow its ")".
        # After it come state, ppid, pgrp, ...; utime and stime are the
        # 12th and 13th.
        f = stat.rsplit(")", 1)[1].split()
        rows.append((int(entry), f[0], int(f[1]), int(f[2]), int(f[11]) + int(f[12])))
    return rows


def post(conn: http.client.HTTPConnection, path: str, body: bytes) -> tuple:
    """One POST on a keep-alive connection; ``(status, response bytes)``."""
    conn.request(
        "POST", path, body=body, headers={"Content-Type": "application/json"}
    )
    resp = conn.getresponse()
    return resp.status, resp.read()


@dataclass
class Stream:
    """One ordered request list and the clients that work through it."""

    op: str  # "query" or "update"
    path: str
    bodies: list
    clients: int
    # Filled in by closed_loop: (index, sent, done, status, response).
    records: list = field(default_factory=list)


def closed_loop(server: ServeProcess, streams: list, *, cap_seconds: float) -> float:
    """Send every request of every stream once, closed loop.

    Every run therefore does the same work.  ``cap_seconds`` only bounds
    a pathologically slow run: no request is sent after it passes, and
    every request already sent completes.  Returns the measured wall
    time, first send to last answer.
    """
    start = time.perf_counter()
    deadline = start + cap_seconds
    lock = threading.Lock()
    next_index = {id(s): 0 for s in streams}

    def take(stream: Stream) -> int | None:
        with lock:
            i = next_index[id(stream)]
            if i >= len(stream.bodies) or time.perf_counter() >= deadline:
                return None
            next_index[id(stream)] = i + 1
            return i

    def client(stream: Stream) -> None:
        conn = server.connect()
        try:
            while True:
                i = take(stream)
                if i is None:
                    return
                sent = time.perf_counter()
                try:
                    status, data = post(conn, stream.path, stream.bodies[i])
                except (OSError, http.client.HTTPException) as exc:
                    conn.close()
                    conn = server.connect()
                    status, data = 0, repr(exc).encode()
                done = time.perf_counter()
                stream.records.append((i, sent, done, status, data))
        finally:
            conn.close()

    threads = [
        threading.Thread(target=client, args=(stream,), name=f"{stream.op}-{k}")
        for stream in streams
        for k in range(stream.clients)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    ends = [r[2] for s in streams for r in s.records]
    return (max(ends) if ends else time.perf_counter()) - start
