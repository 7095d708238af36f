"""Shard workers: one :class:`RegionService` per shard, behind a pipe.

A shard worker is a **process** (``multiprocessing`` spawn context, so
no forked locks or numpy state) owning one shard's CSV + bundle + WAL
triple.  The parent speaks a length-prefixed pipe protocol over a
``socketpair``: each frame is a 4-byte little-endian length followed by
a strict-JSON document through the :mod:`repro.service.types` codecs
(the same non-finite-safe float encoding the HTTP surface uses), so a
torn or interleaved frame can never be mistaken for a shorter valid
one.

The op dispatch itself is transport-independent: the router's tests
and the chaos matrix drive the identical :class:`ShardServer` dispatch
in-process through :class:`LocalShardBackend` (spawned children do not
inherit parent-armed failpoints), while production serving runs it
behind :class:`ProcessShardBackend`.

Worker lifecycle: on start the worker opens its shard per the spec --
replaying its WAL (crash recovery) -- and sends a ready frame; on
``close`` it runs the close-time durability policy and exits 0.  A
crash (or ``kill -9``) surfaces to the router as a dead pipe; the
router restarts the worker, whose open-time replay restores every
acknowledged update.
"""

from __future__ import annotations

import os
import socket
import struct
from typing import Optional

from .. import faults
from ..analysis.sanitizer import make_lock
from ..blas import blas_info, pin_one_thread
from ..core.geometry import Rect
from ..service.types import (
    QueryRequest,
    RegionResult,
    UpdateRequest,
    dumps,
    loads,
)
from .plan import ShardPlan, load_shard_dataset

#: Inside every worker-op dispatch (both backends): the chaos surface
#: of a shard dying or stalling mid-request.
FP_WORKER_REQUEST = faults.register("shard.worker.request")

_LEN = struct.Struct("<I")
_MAX_FRAME = 1 << 30


class ShardDeadError(ConnectionError):
    """The worker's pipe is gone (crash, kill, or protocol corruption)."""


class ShardOpenError(RuntimeError):
    """A shard worker started but could not open its shard."""


# ----------------------------------------------------------------------
# Length-prefixed frames
# ----------------------------------------------------------------------


def send_frame(sock: socket.socket, document: object) -> None:
    """Write one length-prefixed strict-JSON frame."""
    payload = dumps(document).encode("utf-8")
    try:
        sock.sendall(_LEN.pack(len(payload)) + payload)
    except OSError as exc:
        raise ShardDeadError(f"shard pipe write failed: {exc}") from exc


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    parts = []
    while n:
        try:
            chunk = sock.recv(n)
        except OSError as exc:
            raise ShardDeadError(f"shard pipe read failed: {exc}") from exc
        if not chunk:
            raise ShardDeadError("shard pipe closed mid-frame")
        parts.append(chunk)
        n -= len(chunk)
    return b"".join(parts)


def recv_frame(sock: socket.socket) -> object:
    """Read one length-prefixed strict-JSON frame."""
    (length,) = _LEN.unpack(_recv_exact(sock, _LEN.size))
    if length > _MAX_FRAME:
        raise ShardDeadError(f"shard frame length {length} is implausible")
    return loads(_recv_exact(sock, length))


# ----------------------------------------------------------------------
# The transport-independent dispatch
# ----------------------------------------------------------------------


def _rect(values) -> Optional[Rect]:
    if values is None:
        return None
    x0, y0, x1, y1 = (float(v) for v in values)
    return Rect(x0, y0, x1, y1)


class ShardServer:
    """One shard's op dispatch over its own :class:`RegionService`.

    ``tile`` is the shard's anchor domain: every canonical solve is
    restricted to it, which is the whole scatter-gather contract --
    the union of tile-restricted tied sets equals the unsharded ones.
    """

    def __init__(self, plan: ShardPlan, spec, shard: int) -> None:
        from ..service.facade import RegionService

        self.key = spec.key
        self.shard = shard
        self.tile = plan.tile(shard)
        self.service = RegionService()
        dataset = None
        if spec.data is not None and os.path.exists(spec.data):
            # Under the *plan* schema: a shard's CSV is a subset, so
            # re-inferring categorical domains from it would change
            # every representation's dimensionality.
            dataset = load_shard_dataset(plan, spec)
        self.open_result = self.service.open(spec, dataset=dataset)

    # ------------------------------------------------------------------
    def ready_payload(self) -> dict:
        return {
            "ok": True,
            "shard": self.shard,
            "key": self.key,
            "n": self.open_result.n,
            "epoch": self.open_result.epoch,
            "replayed": self.open_result.replayed,
            "blas": blas_info(),
        }

    def _solve_one(self, payload: dict) -> dict:
        request = QueryRequest.from_dict(
            {**payload["request"], "dataset": self.key}
        )
        session = self.service.session(self.key)
        q = self.service._asrs_query(request)
        holes = [_rect(h) for h in payload.get("holes", ())]
        seed = payload.get("seed")
        result, epoch = session.solve_canonical_with_epoch(
            q,
            domain=self.tile,
            holes=[h for h in holes if h is not None],
            seed_point=None if seed is None else (float(seed[0]), float(seed[1])),
        )
        return RegionResult.from_engine(
            result, epoch=epoch, elapsed_s=0.0
        ).to_dict()

    def handle(self, frame: dict) -> dict:
        """One op -> one response envelope (never raises; errors travel)."""
        op = frame.get("op")
        try:
            faults.failpoint(FP_WORKER_REQUEST)
            if op == "query":
                return {"ok": True, "value": self._solve_one(frame)}
            if op == "query_batch":
                # Each item carries its own seed (it depends on the
                # query size) and holes; requests are independent.
                values = [self._solve_one(item) for item in frame["items"]]
                return {"ok": True, "value": values}
            if op == "update":
                request = UpdateRequest.from_dict(
                    {**frame["request"], "dataset": self.key}
                )
                return {"ok": True, "value": self.service.update(request).to_dict()}
            if op == "checkpoint":
                return {
                    "ok": True,
                    "value": self.service.checkpoint(self.key).to_dict(),
                }
            if op == "compact":
                return {
                    "ok": True,
                    "value": self.service.compact(self.key).to_dict(),
                }
            if op == "recover":
                stats = self.service.recover(self.key)
                return {
                    "ok": True,
                    "value": {
                        "applied": stats.applied,
                        "final_epoch": stats.final_epoch,
                    },
                }
            if op == "health":
                return {"ok": True, "value": self.service.health()}
            if op == "stats":
                return {"ok": True, "value": self.service.stats()}
            if op == "epoch":
                session = self.service.session(self.key)
                return {
                    "ok": True,
                    "value": {"epoch": session.epoch, "n": session.dataset.n},
                }
            if op == "close":
                self.service.close()
                return {"ok": True, "value": {"closed": True}}
            return {"ok": False, "kind": "protocol", "error": f"unknown op {op!r}"}
        except Exception as exc:  # noqa: BLE001 -- the envelope IS the handler
            from ..service.facade import DatasetUnavailable

            if isinstance(exc, DatasetUnavailable):
                return {
                    "ok": False,
                    "kind": "unavailable",
                    "state": exc.state,
                    "cause": exc.cause,
                    "error": str(exc),
                }
            return {
                "ok": False,
                "kind": type(exc).__name__,
                "error": str(exc),
            }


# ----------------------------------------------------------------------
# Backends
# ----------------------------------------------------------------------


class LocalShardBackend:
    """The dispatch in-process: property tests and chaos cases.

    Same code path as the worker process (including the
    ``shard.worker.request`` failpoint site), minus the pipe.
    """

    def __init__(self, plan: ShardPlan, spec, shard: int) -> None:
        self._plan, self._spec, self._shard = plan, spec, shard
        self.server: Optional[ShardServer] = ShardServer(plan, spec, shard)
        self.ready = self.server.ready_payload()

    def request(self, frame: dict) -> dict:
        server = self.server  # one read: kill() may race a request
        if server is None:
            raise ShardDeadError("local shard backend is closed")
        return server.handle(frame)

    def alive(self) -> bool:
        return self.server is not None

    def close(self) -> None:
        if self.server is not None:
            self.server.handle({"op": "close"})
            self.server = None

    def kill(self) -> None:
        """Simulate a worker crash: drop the service without closing."""
        self.server = None


def worker_main(conn: socket.socket, plan_dict: dict, spec_dict: dict,
                shard: int) -> None:
    """The worker process entry point (module-level: spawn-picklable)."""
    from ..service.types import DatasetSpec

    # Shards are the router's parallelism: one BLAS thread each
    # (DESIGN.md §11.7).  numpy is loaded by this module's imports.
    pin_one_thread()
    try:
        server = ShardServer(
            ShardPlan.from_dict(plan_dict),
            DatasetSpec.from_dict(spec_dict),
            shard,
        )
    except Exception as exc:  # noqa: BLE001 -- report the open failure, then die
        try:
            send_frame(conn, {"ok": False, "kind": type(exc).__name__,
                              "error": str(exc)})
        finally:
            conn.close()
        return
    send_frame(conn, server.ready_payload())
    while True:
        try:
            frame = recv_frame(conn)
        except ShardDeadError:
            break  # parent went away; nothing to acknowledge to
        response = server.handle(frame)
        send_frame(conn, response)
        if frame.get("op") == "close":
            break
    conn.close()


class ProcessShardBackend:
    """One spawn-context worker process behind the frame protocol."""

    def __init__(self, plan: ShardPlan, spec, shard: int) -> None:
        import multiprocessing

        self._plan, self._spec, self._shard = plan, spec, shard
        ctx = multiprocessing.get_context("spawn")
        parent, child = socket.socketpair()
        self._sock = parent
        # One request and its response on the pipe at a time: routed
        # queries share the backend, and the worker answers in order.
        self._pipe = make_lock("ProcessShardBackend._pipe")
        self.process = ctx.Process(
            target=worker_main,
            args=(child, plan.to_dict(), spec.to_dict(), shard),
            daemon=True,
        )
        self.process.start()
        child.close()
        try:
            self.ready = recv_frame(parent)
            if not self.ready.get("ok"):
                raise ShardOpenError(
                    f"shard {shard} worker failed to open: "
                    f"{self.ready.get('error')}"
                )
        except BaseException:
            # No backend object survives a failed open: release its
            # pipe and reap its worker here, or nothing ever will.
            parent.close()
            self.process.join(timeout=10)
            if self.process.is_alive():
                self.process.kill()
                self.process.join(timeout=10)
            raise

    def request(self, frame: dict) -> dict:
        with self._pipe:
            send_frame(self._sock, frame)
            response = recv_frame(self._sock)
        if not isinstance(response, dict):
            raise ShardDeadError("shard worker sent a non-dict frame")
        return response

    def alive(self) -> bool:
        return self.process.is_alive()

    def close(self) -> None:
        try:
            self.request({"op": "close"})
        except ShardDeadError:
            pass
        finally:
            self._sock.close()
            self.process.join(timeout=30)

    def kill(self) -> None:
        """Hard-kill the worker (crash drills)."""
        if self.process.is_alive():
            self.process.kill()
        self.process.join(timeout=30)
        self._sock.close()
