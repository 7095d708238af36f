"""The HTTP frontend end to end (DESIGN.md §11.5).

In-process ``ThreadingHTTPServer`` for protocol coverage (every
endpoint, error statuses, read-only 403), and a real ``repro serve``
subprocess for the crash drill: query, update durably over HTTP,
``kill -9`` the writer, then recover from (CSV, WAL) and assert the
answers are bitwise-identical to both the pre-crash server's and a
cold session on the final dataset.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from repro.core import SpatialDataset
from repro.data.io import save_csv
from repro.engine import QuerySession
from repro.service import (
    DatasetSpec,
    DurabilityPolicy,
    QueryRequest,
    RegionResult,
    RegionService,
    UpdateRequest,
)
from repro.service.httpd import make_server

from .conftest import make_random_dataset

TERMS = ("fD:kind", "fS:score")


def _post(base: str, path: str, payload: dict) -> dict:
    body = json.dumps(payload).encode()
    request = urllib.request.Request(
        f"{base}{path}", data=body, headers={"Content-Type": "application/json"}
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return json.loads(response.read().decode())


def _get(base: str, path: str) -> dict:
    with urllib.request.urlopen(f"{base}{path}", timeout=30) as response:
        return json.loads(response.read().decode())


def _query_payload(ds, seed=7) -> dict:
    rng = np.random.default_rng(seed)
    dim = 3 + 1  # kind distribution (3 categories) + score sum
    return QueryRequest(
        dataset="d",
        terms=TERMS,
        width=12.0,
        height=9.0,
        target=tuple(rng.uniform(0, 4, size=dim)),
    ).to_dict()


@pytest.fixture()
def http_service(tmp_path):
    rng = np.random.default_rng(60)
    ds = make_random_dataset(rng, 100, extent=90.0)
    data = tmp_path / "d.csv"
    save_csv(ds, data)
    spec = DatasetSpec(
        key="d",
        data=str(data),
        categorical=("kind",),
        numeric=("score",),
        index=str(tmp_path / "d.idx"),
        wal=str(tmp_path / "d.wal"),
        durability=DurabilityPolicy(checkpoint_on_close=False),
    )
    service = RegionService()
    service.open(spec)
    server = make_server(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield f"http://{host}:{port}", service, ds
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


class TestEndpoints:
    def test_healthz_and_stats(self, http_service):
        base, service, ds = http_service
        health = _get(base, "/healthz")
        assert health["status"] == "ok"
        assert health["read_only"] is False
        assert health["datasets"]["d"] == {
            "n": ds.n, "epoch": 0, "state": "ok", "cause": None,
        }
        stats = _get(base, "/stats")
        assert stats["datasets"]["d"]["epoch"] == 0
        assert stats["pool"]["sessions"] == 1

    def test_query_matches_in_process(self, http_service):
        base, service, ds = http_service
        payload = _query_payload(ds)
        over_http = RegionResult.from_dict(_post(base, "/query", payload))
        in_process = service.query(QueryRequest.from_dict(payload))
        assert over_http.region == in_process.region
        assert over_http.score == in_process.score
        assert over_http.representation == in_process.representation

    def test_query_defaults_single_dataset(self, http_service):
        base, _, ds = http_service
        payload = _query_payload(ds)
        del payload["dataset"]
        result = _post(base, "/query", payload)
        assert "region" in result

    def test_update_then_checkpoint_then_compact(self, http_service, tmp_path):
        base, service, ds = http_service
        update = _post(
            base,
            "/update",
            UpdateRequest(
                dataset="d",
                append=((10.0, 10.0, {"kind": "k1", "score": 2.5}),),
                delete=(0,),
            ).to_dict(),
        )
        assert update["appended"] == 1 and update["deleted"] == 1
        assert update["wal_logged"] and update["epoch"] == 1
        _post(
            base,
            "/update",
            UpdateRequest(
                dataset="d", append=((11.0, 11.0, {"kind": "k0", "score": 1.0}),)
            ).to_dict(),
        )
        compacted = _post(base, "/compact", {"dataset": "d"})
        assert compacted["records_before"] == 2
        assert compacted["records_after"] == 1
        checkpoint = _post(base, "/checkpoint", {"dataset": "d"})
        assert checkpoint["wal_records_dropped"] == 1
        assert os.path.exists(checkpoint["index_path"])
        assert _get(base, "/healthz")["datasets"]["d"]["n"] == ds.n + 1

    def test_errors(self, http_service):
        base, _, ds = http_service
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(base, "/query", {"dataset": "nope", "terms": ["fD:kind"],
                                   "width": 1, "height": 1, "target": [0]})
        assert err.value.code == 400
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(base, "/nope")
        assert err.value.code == 404
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(base, "/query", {"terms": []})
        assert err.value.code == 400


class TestReadOnlyReplica:
    def test_update_forbidden(self, tmp_path):
        rng = np.random.default_rng(61)
        ds = make_random_dataset(rng, 60, extent=90.0)
        data = tmp_path / "d.csv"
        save_csv(ds, data)
        service = RegionService(read_only=True)
        service.open(
            DatasetSpec(key="d", data=str(data), categorical=("kind",),
                        numeric=("score",), wal=str(tmp_path / "d.wal"))
        )
        server = make_server(service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        base = f"http://{host}:{port}"
        try:
            assert _get(base, "/healthz")["read_only"] is True
            with pytest.raises(urllib.error.HTTPError) as err:
                _post(
                    base,
                    "/update",
                    UpdateRequest(
                        dataset="d",
                        append=((1.0, 1.0, {"kind": "k0", "score": 0.0}),),
                    ).to_dict(),
                )
            assert err.value.code == 403
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)


class TestServedBlasPin:
    def test_stats_reads_one_blas_thread(self, tmp_path):
        """`repro serve` pins its BLAS pool at start-up, names it on
        stdout and reports the live count at /stats."""
        from repro.blas import blas_info

        here = blas_info()
        ds = make_random_dataset(np.random.default_rng(5), 60, extent=50.0)
        data = tmp_path / "d.csv"
        save_csv(ds, data)
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        env["OPENBLAS_NUM_THREADS"] = "2"
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--data", str(data), "--categorical", "kind",
                "--numeric", "score", "--port", "0",
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            line = proc.stdout.readline()
            assert "on http://" in line, (line, proc.stderr.read())
            base = line.strip().rsplit(" on ", 1)[1]
            banner = proc.stdout.readline()
            blas = _get(base, "/stats")["blas"]
            if here is None:  # no known OpenBLAS: nothing pinned, said so
                assert blas is None
                assert banner.startswith("blas: no known OpenBLAS mapped")
            else:
                assert blas == {"library": here["library"], "threads": 1}
                assert banner.strip() == (
                    f"blas: {blas['library']} pinned to 1 thread(s)"
                )
        finally:
            proc.send_signal(signal.SIGINT)
            proc.wait(timeout=30)


class TestCrashRecovery:
    def test_kill_minus_nine_then_replay_is_bitwise_identical(self, tmp_path):
        """The acceptance drill: serve over HTTP, update durably, SIGKILL
        the writer, replay the WAL -- answers must be bitwise-identical
        to the pre-crash server's and to a cold session on the final
        dataset."""
        rng = np.random.default_rng(62)
        ds = make_random_dataset(rng, 120, extent=90.0)
        data = tmp_path / "d.csv"
        save_csv(ds, data)
        wal = tmp_path / "d.wal"
        index = tmp_path / "d.idx"
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--data", str(data), "--categorical", "kind",
                "--numeric", "score", "--index", str(index),
                "--wal", str(wal), "--port", "0",
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            line = proc.stdout.readline()
            assert "on http://" in line, (line, proc.stderr.read())
            base = line.strip().rsplit(" on ", 1)[1]

            payload = _query_payload(ds)
            payload["dataset"] = "cli"
            updates = [
                UpdateRequest(
                    dataset="cli",
                    append=(
                        (20.0, 20.0, {"kind": "k2", "score": 4.5}),
                        (30.0, 40.0, {"kind": "k0", "score": -1.25}),
                    ),
                    delete=(5, 11),
                ),
                UpdateRequest(
                    dataset="cli",
                    append=((50.0, 60.0, {"kind": "k1", "score": 0.125}),),
                ),
            ]
            for update in updates:
                reply = _post(base, "/update", update.to_dict())
                assert reply["wal_logged"]
            pre_crash = RegionResult.from_dict(_post(base, "/query", payload))
            assert _get(base, "/healthz")["datasets"]["cli"]["epoch"] == 2
        finally:
            # kill -9: no shutdown hook runs, no close-time checkpoint.
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)

        assert not index.exists()  # nothing ever checkpointed the bundle
        assert wal.exists()

        # Recover the writer from (CSV, WAL) -- replay_on_open default.
        recovered = RegionService()
        opened = recovered.open(
            DatasetSpec(
                key="cli", data=str(data), categorical=("kind",),
                numeric=("score",), index=str(index), wal=str(wal),
            )
        )
        assert opened.replayed == 2 and opened.epoch == 2
        after = recovered.query(QueryRequest.from_dict(payload))
        assert after.region == pre_crash.region
        assert after.score == pre_crash.score
        assert after.representation == pre_crash.representation

        # And against a cold session on the independently derived final
        # dataset (the ground truth the WAL must reconstruct).
        final = ds
        for update in updates:
            append = SpatialDataset.from_records(list(update.append), ds.schema)
            final = final.delete(np.asarray(update.delete, dtype=np.int64))
            final = final.append(append)
        session = recovered.session("cli")
        cold = QuerySession(final, granularity=session.granularity)
        agg = recovered.aggregator("cli", TERMS)
        from repro.core import ASRSQuery

        query = ASRSQuery.from_vector(
            12.0, 9.0, agg, np.asarray(payload["target"], dtype=np.float64)
        )
        cold_result = cold.solve(query)
        region = cold_result.region
        assert after.region == (
            region.x_min, region.y_min, region.x_max, region.y_max
        )
        assert after.score == cold_result.distance
        assert np.array_equal(
            np.asarray(after.representation), cold_result.representation
        )


class TestHostileClients:
    """The handler hardening satellites: oversized bodies and stalled
    connections must not tie up (or crash) serving threads."""

    def _serve(self, tmp_path, **server_kw):
        rng = np.random.default_rng(63)
        ds = make_random_dataset(rng, 60, extent=90.0)
        data = tmp_path / "d.csv"
        save_csv(ds, data)
        service = RegionService()
        service.open(
            DatasetSpec(key="d", data=str(data), categorical=("kind",),
                        numeric=("score",))
        )
        server = make_server(service, **server_kw)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        return server, thread, f"http://{host}:{port}", ds

    def _teardown(self, server, thread):
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)

    def test_oversized_body_is_413_and_connection_closes(self, tmp_path):
        server, thread, base, ds = self._serve(tmp_path, max_body_bytes=1024)
        try:
            big = {"dataset": "d", "junk": "x" * 4096}
            with pytest.raises(urllib.error.HTTPError) as err:
                _post(base, "/query", big)
            assert err.value.code == 413
            assert "1024" in json.loads(err.value.read().decode())["error"]
            # Rejected by Content-Length alone: the body was never read,
            # so the connection must close rather than desync on the
            # unread bytes.  A fresh request still serves.
            assert err.value.headers.get("Connection") == "close"
            assert _get(base, "/healthz")["status"] == "ok"
        finally:
            self._teardown(server, thread)

    def test_stalled_client_is_disconnected(self, tmp_path):
        server, thread, base, ds = self._serve(tmp_path, request_timeout=0.3)
        try:
            host, port = server.server_address[:2]
            with socket.create_connection((host, port), timeout=10) as sock:
                # Promise a body, never send it: the per-connection
                # timeout must kick the stalled client, not park the
                # handler thread forever.
                sock.sendall(
                    b"POST /query HTTP/1.1\r\nHost: x\r\n"
                    b"Content-Length: 50\r\n\r\n"
                )
                sock.settimeout(10)
                assert sock.recv(1024) == b""  # server hung up on us
            assert _get(base, "/healthz")["status"] == "ok"  # still serving
        finally:
            self._teardown(server, thread)


class _CountingSocket:
    """An accepted connection that records the size of every write."""

    def __init__(self, sock, writes):
        self._sock = sock
        self._writes = writes

    def send(self, data, *args):
        self._writes.append(len(data))
        return self._sock.send(data, *args)

    def sendall(self, data, *args):
        self._writes.append(len(data))
        return self._sock.sendall(data, *args)

    def __getattr__(self, name):
        return getattr(self._sock, name)


class TestSingleWriteResponses:
    """Each response leaves in one write on a TCP_NODELAY socket: a
    split header/body write makes the body wait for the client's
    delayed ACK (about 40 ms on Linux) on every keep-alive request."""

    def test_one_write_per_response_and_no_ack_stall(self, tmp_path):
        import http.client
        import time

        rng = np.random.default_rng(65)
        ds = make_random_dataset(rng, 60, extent=90.0)
        data = tmp_path / "d.csv"
        save_csv(ds, data)
        service = RegionService()
        service.open(
            DatasetSpec(key="d", data=str(data), categorical=("kind",),
                        numeric=("score",))
        )
        server = make_server(service, max_body_bytes=1024)
        writes, accepted = [], []
        accept = server.get_request

        def counting_accept():
            sock, addr = accept()
            accepted.append(sock)
            return _CountingSocket(sock, writes), addr

        server.get_request = counting_accept
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=30)

        def exchange(method, path, payload=None):
            before = len(writes)
            body = None if payload is None else json.dumps(payload).encode()
            conn.request(method, path, body=body,
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            response.read()
            return response.status, len(writes) - before

        try:
            assert exchange("POST", "/query", _query_payload(ds)) == (200, 1)
            assert exchange("GET", "/nope") == (404, 1)
            assert exchange("POST", "/query", {"terms": []}) == (400, 1)
            # Keep-alive: five health checks on one connection, none
            # waiting out a delayed ACK.
            for _ in range(5):
                t0 = time.perf_counter()
                assert exchange("GET", "/healthz") == (200, 1)
                assert time.perf_counter() - t0 < 0.02
            assert len(accepted) == 1
            nodelay = accepted[0].getsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY
            )
            assert nodelay != 0
            # The 413 close path: still one write, then the hang-up.
            big = {"dataset": "d", "junk": "x" * 2048}
            assert exchange("POST", "/query", big) == (413, 1)
        finally:
            conn.close()
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)


class _RefreshStub:
    """Stands in for RegionService in WalFollower unit tests."""

    def __init__(self):
        self.fail = False
        self.calls = 0

    def refresh(self, key):
        self.calls += 1
        if self.fail:
            raise OSError("writer path gone")
        return type("Stats", (), {"applied": 2})()


class TestWalFollowerBackoff:
    def test_streak_backoff_degraded_and_reset(self):
        from repro.service.httpd import WalFollower

        stub = _RefreshStub()
        follower = WalFollower(stub, "d", interval=0.25, max_backoff=1.5)
        assert follower.delay == 0.25
        follower.tick()
        assert follower.replayed == 2 and follower.error_streak == 0

        stub.fail = True
        delays = []
        for _ in range(5):
            follower.tick()
            delays.append(follower.delay)
        # Doubles per consecutive failure, then parks at max_backoff.
        assert delays == [0.5, 1.0, 1.5, 1.5, 1.5]
        assert follower.error_streak == 5
        assert follower.degraded  # >= DEGRADED_AFTER straight failures
        assert "writer path gone" in follower.last_error

        stub.fail = False
        follower.tick()  # one success clears the streak and the backoff
        assert follower.error_streak == 0
        assert not follower.degraded
        assert follower.delay == 0.25
        assert follower.last_error is None

    def test_degraded_follower_turns_healthz_503(self, tmp_path):
        rng = np.random.default_rng(64)
        ds = make_random_dataset(rng, 60, extent=90.0)
        data = tmp_path / "d.csv"
        save_csv(ds, data)
        service = RegionService(read_only=True)
        service.open(
            DatasetSpec(key="d", data=str(data), categorical=("kind",),
                        numeric=("score",), wal=str(tmp_path / "d.wal"))
        )
        from repro.service.httpd import WalFollower

        follower = WalFollower(service, "d", interval=60.0)  # never ticks
        server = make_server(service, followers=[follower])
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        base = f"http://{host}:{port}"
        try:
            health = _get(base, "/healthz")
            assert health["status"] == "ok"
            assert health["follower"]["degraded"] is False

            follower.error_streak = WalFollower.DEGRADED_AFTER
            follower.last_error = "OSError: writer path gone"
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(base, "/healthz")
            assert err.value.code == 503
            health = json.loads(err.value.read().decode())
            assert health["status"] == "degraded"
            assert health["follower"]["degraded"] is True
            assert health["follower"]["error_streak"] == WalFollower.DEGRADED_AFTER
            assert "writer path gone" in health["follower"]["last_error"]
            # Queries still serve while the follower is behind: the
            # replica degrades to staleness, never to refusal.
            assert "region" in _post(base, "/query", _query_payload(ds))
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
