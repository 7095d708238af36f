"""A stdlib JSON-over-HTTP frontend for :class:`RegionService`.

``repro serve`` wires this up (DESIGN.md §11.5).  The protocol is the
typed codec verbatim -- request bodies are
``QueryRequest.to_dict()`` / ``UpdateRequest.to_dict()`` documents,
responses are ``RegionResult.to_dict()`` etc., so any JSON client
round-trips results bit-for-bit (non-finite floats ride as sentinel
strings):

=========  ======  ====================================================
path       method  body -> response
=========  ======  ====================================================
/query     POST    QueryRequest -> RegionResult (or {"results": [...]}
                   for ``topk`` > 1)
/update    POST    UpdateRequest -> UpdateResult (403 on a replica,
                   503 on a degraded/failed dataset)
/checkpoint POST   {"dataset": key?} -> CheckpointResult
/compact   POST    {"dataset": key?} -> CompactResult
/recover   POST    {"dataset": key?} -> replay / restart report (WAL
                   replay stats, or the shard router's restart summary)
/healthz   GET     {"status": "ok"|"degraded", ...} -- HTTP 200 when
                   every dataset is healthy and the follower (if any)
                   is keeping up, 503 otherwise
/stats     GET     RegionService.stats()
=========  ======  ====================================================

``"dataset"`` may be omitted from any body when the service serves
exactly one dataset.  Errors come back as ``{"error": ...}`` with 400
(bad request), 403 (mutation on a read-only replica), 404 (unknown
path or dataset), 413 (body over ``max_body_bytes``), 503 (dataset
degraded/failed -- DESIGN.md §12) or 500.

The server is a ``ThreadingHTTPServer``: each request runs on its own
thread against the thread-safe engine underneath (solves share warm
caches; updates drain solves via the session's update gate).  Handler
threads are protected from hostile or stuck clients by a per-connection
socket timeout and a request-body size cap.  A read-only replica
additionally runs a :class:`WalFollower` thread that polls the writer's
WAL and replays new records -- the one-writer / many-reader deployment
the per-process GIL pushes toward.
"""

from __future__ import annotations

import dataclasses
import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .. import faults
from .facade import DatasetUnavailable, RegionService
from .types import QueryRequest, UpdateRequest, dumps

#: Fires at the top of every POST dispatch -- the outermost place a
#: request can die; the generic handler must turn it into a named 500,
#: never a hung or half-written response.
FP_REQUEST = faults.register("httpd.request")


class _PayloadTooLarge(ValueError):
    """Request body exceeds the server's ``max_body_bytes``."""


class WalFollower(threading.Thread):
    """Poll-and-replay loop keeping a read-only replica caught up.

    Calls :meth:`RegionService.refresh` every ``interval`` seconds;
    replay itself serializes against in-flight queries via the
    session's update gate, so served answers are always a consistent
    epoch.  Consecutive failures back off exponentially (doubling up to
    ``max_backoff``) so a broken writer path is not hammered, and the
    streak is surfaced: after ``DEGRADED_AFTER`` straight failures the
    follower reports itself degraded and ``/healthz`` turns 503.
    ``stop()`` ends the loop promptly.
    """

    #: Consecutive failed ticks before the follower counts as degraded.
    DEGRADED_AFTER = 3

    def __init__(
        self,
        service: RegionService,
        key: str,
        interval: float = 1.0,
        max_backoff: float = 30.0,
    ) -> None:
        super().__init__(name=f"wal-follower-{key}", daemon=True)
        self.service = service
        self.key = key
        self.interval = float(interval)
        self.max_backoff = float(max_backoff)
        self.replayed = 0
        self.ticks = 0
        self.error_streak = 0
        self.last_error: str | None = None
        self._stop = threading.Event()

    @property
    def degraded(self) -> bool:
        return self.error_streak >= self.DEGRADED_AFTER

    @property
    def delay(self) -> float:
        """Seconds until the next tick: base interval, backed off."""
        if self.error_streak == 0:
            return self.interval
        return min(
            self.max_backoff, self.interval * (2.0 ** min(self.error_streak, 16))
        )

    def stop(self) -> None:
        self._stop.set()

    def tick(self) -> None:
        """One poll: refresh, then update streak and error bookkeeping."""
        try:
            stats = self.service.refresh(self.key)
            self.replayed += stats.applied
            self.last_error = None
            self.error_streak = 0
        except Exception as exc:  # keep following; surface via /healthz
            self.last_error = f"{type(exc).__name__}: {exc}"
            self.error_streak += 1
        self.ticks += 1

    def run(self) -> None:
        while not self._stop.wait(self.delay):
            self.tick()


class RegionServer(ThreadingHTTPServer):
    """The HTTP server; holds the service every handler dispatches to."""

    daemon_threads = True

    def __init__(
        self,
        address,
        service: RegionService,
        followers: list | None = None,
        quiet: bool = True,
        max_body_bytes: int = 8 << 20,
        request_timeout: float = 30.0,
    ) -> None:
        self.service = service
        self.followers = followers or []
        self.quiet = quiet
        self.max_body_bytes = int(max_body_bytes)
        self.request_timeout = float(request_timeout)
        super().__init__(address, _Handler)

    def shutdown(self) -> None:
        for follower in self.followers:
            follower.stop()
        super().shutdown()


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-serve/1.0"
    protocol_version = "HTTP/1.1"
    # TCP_NODELAY: a write never waits for the client to acknowledge
    # the previous one (stdlib paths such as send_error still write
    # headers and body separately).
    disable_nagle_algorithm = True

    @property
    def service(self) -> RegionService:
        return self.server.service

    # -- plumbing ------------------------------------------------------
    def setup(self) -> None:
        # Per-connection socket timeout: a client that stalls mid-body
        # (or never sends one) times out instead of pinning a handler
        # thread forever.  BaseHTTPRequestHandler honours self.timeout
        # via settimeout when set before setup() binds the rfile.
        self.timeout = getattr(self.server, "request_timeout", 30.0)
        super().setup()

    def log_message(self, fmt, *args) -> None:
        if not getattr(self.server, "quiet", True):
            super().log_message(fmt, *args)

    def _send(self, status: int, payload: dict, *, close: bool = False) -> None:
        body = dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if close:
            # Advertise the close: the client must not reuse a
            # connection we are about to drop.
            self.send_header("Connection", "close")
            self.close_connection = True
        # One write for status line, headers and body (end_headers()
        # would flush the headers alone): split writes cost a second
        # segment, and with Nagle on the body waits for the client's
        # delayed ACK of the headers (DESIGN.md §11.5).
        self._headers_buffer.extend((b"\r\n", body))
        self.flush_headers()

    def _body(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        if length == 0:
            return {}
        limit = getattr(self.server, "max_body_bytes", 8 << 20)
        if length > limit:
            raise _PayloadTooLarge(
                f"request body of {length} bytes exceeds the server's "
                f"{limit}-byte limit"
            )
        raw = self.rfile.read(length)
        data = json.loads(raw.decode("utf-8"))
        if not isinstance(data, dict):
            raise ValueError("request body must be a JSON object")
        return data

    def _default_dataset(self, body: dict) -> dict:
        if "dataset" not in body:
            keys = self.service.keys()
            if len(keys) == 1:
                body = dict(body, dataset=keys[0])
            else:
                raise KeyError(
                    "request names no 'dataset' and the service serves "
                    f"{len(keys)} -- pass one of {keys}"
                )
        return body

    # -- routes --------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        try:
            if self.path == "/healthz":
                service = self.service
                health = service.health()
                datasets = {}
                for key in service.keys():
                    session = service.session(key)
                    entry = health["datasets"].get(
                        key, {"state": "ok", "cause": None, "since": None}
                    )
                    datasets[key] = {
                        "n": session.dataset.n,
                        "epoch": session.epoch,
                        "state": entry["state"],
                        "cause": entry["cause"],
                    }
                followers = getattr(self.server, "followers", [])
                follower_degraded = any(f.degraded for f in followers)
                status = (
                    "ok"
                    if health["state"] == "ok" and not follower_degraded
                    else "degraded"
                )
                payload = {
                    "status": status,
                    "read_only": service.read_only,
                    "datasets": datasets,
                }
                if followers:
                    payload["follower"] = {
                        "ticks": sum(f.ticks for f in followers),
                        "replayed": sum(f.replayed for f in followers),
                        "error_streak": max(f.error_streak for f in followers),
                        "degraded": follower_degraded,
                        "last_error": next(
                            (f.last_error for f in followers if f.last_error),
                            None,
                        ),
                    }
                self._send(200 if status == "ok" else 503, payload)
            elif self.path == "/stats":
                self._send(200, self.service.stats())
            else:
                self._send(404, {"error": f"unknown path {self.path!r}"})
        except (socket.timeout, TimeoutError):
            self.close_connection = True
        except Exception as exc:
            self._send(500, {"error": f"{type(exc).__name__}: {exc}"})

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        try:
            faults.failpoint(FP_REQUEST)
            body = self._default_dataset(self._body())
            if self.path == "/query":
                request = QueryRequest.from_dict(body)
                if request.topk > 1:
                    results = self.service.query_topk(request)
                    self._send(200, {"results": [r.to_dict() for r in results]})
                else:
                    self._send(200, self.service.query(request).to_dict())
            elif self.path == "/update":
                request = UpdateRequest.from_dict(body)
                self._send(200, self.service.update(request).to_dict())
            elif self.path == "/checkpoint":
                self._send(
                    200, self.service.checkpoint(body["dataset"]).to_dict()
                )
            elif self.path == "/compact":
                self._send(200, self.service.compact(body["dataset"]).to_dict())
            elif self.path == "/recover":
                # Facade: WAL replay ReplayStats; shard router: restart
                # report dict.  Both serialize as plain JSON objects.
                out = self.service.recover(body["dataset"])
                if dataclasses.is_dataclass(out):
                    out = dataclasses.asdict(out)
                self._send(200, out)
            else:
                self._send(404, {"error": f"unknown path {self.path!r}"})
        except (socket.timeout, TimeoutError):
            # The client stalled mid-read; nothing was applied (the
            # body never arrived).  Drop the connection -- there is no
            # point writing a response into a dead socket.
            self.close_connection = True
        except _PayloadTooLarge as exc:
            # Close after responding: the unread body is still in
            # flight, and keep-alive would misparse it as a request.
            self._send(413, {"error": str(exc)}, close=True)
        except DatasetUnavailable as exc:
            self._send(
                503,
                {
                    "error": str(exc),
                    "dataset": exc.dataset,
                    "state": exc.state,
                    "cause": exc.cause,
                },
            )
        except PermissionError as exc:
            self._send(403, {"error": str(exc)})
        except (ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
            self._send(400, {"error": f"{type(exc).__name__}: {exc}"})
        except Exception as exc:
            self._send(500, {"error": f"{type(exc).__name__}: {exc}"})


def make_server(
    service: RegionService,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    followers: list | None = None,
    quiet: bool = True,
    max_body_bytes: int = 8 << 20,
    request_timeout: float = 30.0,
) -> RegionServer:
    """Build (but do not start) the HTTP server; ``port=0`` auto-picks."""
    return RegionServer(
        (host, port),
        service,
        followers=followers,
        quiet=quiet,
        max_body_bytes=max_body_bytes,
        request_timeout=request_timeout,
    )
