"""End-to-end :class:`ShardRouter` behavior, both backends.

The contract under test: a routed query answers bitwise-identically to
an unsharded canonical solve over the same logical dataset -- through
updates, a worker crash, recovery (with WAL replay), checkpoint,
compaction, a clean close, and a cold reopen from disk.
"""

import dataclasses
import multiprocessing
import socket
import threading

import numpy as np
import pytest

from repro.blas import blas_info
from repro.core.geometry import Rect
from repro.core.objects import SpatialDataset
from repro.data.io import save_csv
from repro.service.facade import DatasetUnavailable, RegionService
from repro.service.types import DatasetSpec, QueryRequest, UpdateRequest
from repro.shard import (
    PlanMismatchError,
    ProcessShardBackend,
    ShardOpenError,
    ShardPlan,
    ShardRouter,
    split_dataset,
)

from ..conftest import make_random_dataset

WMAX, HMAX = 12.0, 12.0


def _oracle(dataset, request):
    """Unsharded canonical answers for ``request`` over ``dataset``."""
    service = RegionService()
    service.open(DatasetSpec(key=request.dataset), dataset=dataset)
    try:
        session = service.session(request.dataset)
        query = service._asrs_query(request)
        if request.topk > 1:
            results = session.solve_canonical_topk(query, request.topk)
        else:
            results = [session.solve_canonical(query)]
        return [
            (r.region, r.distance, r.representation.tobytes()) for r in results
        ]
    finally:
        service.close()


def _routed(router, request):
    if request.topk > 1:
        results = router.query_topk(request)
    else:
        results = [router.query(request)]
    return [
        (
            Rect(*r.region),
            r.score,
            np.asarray(r.representation, dtype=np.float64).tobytes(),
        )
        for r in results
    ]


def _assert_identical(dataset, router, request):
    assert _oracle(dataset, request) == _routed(router, request)


def _fixture(tmp_path, seed=99, n=50, nx=2, ny=1):
    ds = make_random_dataset(np.random.default_rng(seed), n, extent=80.0)
    plan = ShardPlan.build(ds, nx, ny, wmax=WMAX, hmax=HMAX)
    specs = split_dataset(
        ds, plan, str(tmp_path), categorical=("kind",), numeric=("score",)
    )
    return ds, plan, specs


def _apply(ds, request):
    """The oracle-side mutation: delete, then append (engine order)."""
    out = ds
    if request.delete:
        keep = np.ones(out.n, dtype=bool)
        keep[np.asarray(request.delete, dtype=np.int64)] = False
        out = out.subset(keep)
    if request.append:
        out = out.append(
            SpatialDataset.from_records(list(request.append), ds.schema)
        )
    return out


REQ = QueryRequest(
    dataset="default",
    terms=("fD:kind", "fA:score"),
    width=8.0,
    height=8.0,
    target=(1.0, 1.0, 1.0, 5.0),
)


class TestLocalBackend:
    def test_query_update_identity(self, tmp_path):
        ds, plan, specs = _fixture(tmp_path, seed=7000, n=40, nx=3, ny=2)
        router = ShardRouter(
            plan, specs, ds, backend="local", directory=str(tmp_path)
        )
        try:
            _assert_identical(ds, router, REQ)
            _assert_identical(ds, router, dataclasses.replace(REQ, topk=3))
            upd = UpdateRequest(
                dataset="default",
                delete=(0, 5),
                append=(
                    (40.0, 40.0, {"kind": "k1", "score": 2.0}),
                    (41.5, 12.0, {"kind": "k0", "score": -1.0}),
                ),
            )
            result = router.update(upd)
            assert result.appended == 2 and result.deleted == 2
            ds2 = _apply(ds, upd)
            _assert_identical(ds2, router, REQ)
        finally:
            router.close()

    def test_query_batch_matches_individual_queries(self, tmp_path):
        ds, plan, specs = _fixture(tmp_path, seed=7003, n=35)
        router = ShardRouter(
            plan, specs, ds, backend="local", directory=str(tmp_path)
        )
        try:
            other = QueryRequest(
                dataset="default",
                terms=("fD:kind", "fA:score"),
                width=5.0,
                height=9.5,
                target=(0.0, 2.0, 0.5, 1.0),
            )
            batch = router.query_batch([REQ, other])
            singles = [router.query(REQ), router.query(other)]
            for got, want in zip(batch, singles):
                assert got.region == want.region
                assert got.score == want.score
                assert np.array_equal(
                    np.asarray(got.representation),
                    np.asarray(want.representation),
                )
        finally:
            router.close()

    @pytest.mark.parametrize("nx", [1, 2])  # single-frame and threaded scatter
    def test_raising_delivery_refuses_the_query(
        self, tmp_path, monkeypatch, nx
    ):
        ds, plan, specs = _fixture(tmp_path, seed=7004, n=40, nx=nx)
        router = ShardRouter(
            plan, specs, ds, backend="local", directory=str(tmp_path)
        )
        try:
            def boom(frame):
                raise ValueError("delivery failed")

            # The last shard holds rows, so a merge without it would lie.
            monkeypatch.setattr(router._backends[-1], "request", boom)
            with pytest.raises(DatasetUnavailable, match="delivery failed"):
                router.query(REQ)
            with pytest.raises(DatasetUnavailable, match="delivery failed"):
                router.query_batch([REQ])
            monkeypatch.undo()
            _assert_identical(ds, router, REQ)
        finally:
            router.close()

    @pytest.mark.parametrize("nx", [1, 2])  # single-frame and threaded scatter
    def test_raising_delivery_keeps_the_update_pending(
        self, tmp_path, monkeypatch, nx
    ):
        ds, plan, specs = _fixture(tmp_path, seed=7005, n=40, nx=nx)
        router = ShardRouter(
            plan, specs, ds, backend="local", directory=str(tmp_path)
        )
        try:
            # One deleted row from every shard: every shard gets a frame.
            delete = sorted(
                {
                    int(np.flatnonzero(plan.covered_mask(s, ds.xs, ds.ys))[0])
                    for s in range(plan.n_shards)
                }
            )
            upd = UpdateRequest(dataset="default", delete=tuple(delete))

            def boom(frame):
                raise ValueError("delivery failed")

            monkeypatch.setattr(router._backends[-1], "request", boom)
            with pytest.raises(DatasetUnavailable, match="delivery failed"):
                router.update(upd)
            # Not acknowledged: the mirror never committed, and the
            # batch stays pending for recover() to drain.
            assert router.epoch == 0 and router.dataset.n == ds.n
            assert router.health()["state"] == "degraded"
            with pytest.raises(DatasetUnavailable, match="in flight"):
                router.query(REQ)
            monkeypatch.undo()
            out = router.recover()
            assert out["committed"] and out["resent"] == 1
            assert router.epoch == 1
            _assert_identical(_apply(ds, upd), router, REQ)
        finally:
            router.close()

    def test_oversized_query_rejected(self, tmp_path):
        ds, plan, specs = _fixture(tmp_path, seed=7001, n=20)
        router = ShardRouter(
            plan, specs, ds, backend="local", directory=str(tmp_path)
        )
        try:
            big = QueryRequest(
                dataset="default",
                terms=("fD:kind",),
                width=WMAX + 1.0,
                height=4.0,
                target=(1.0, 0.0, 0.0),
            )
            with pytest.raises(ValueError, match="halo budget"):
                router.query(big)
        finally:
            router.close()

    def test_append_outside_planned_box_rejected(self, tmp_path):
        ds, plan, specs = _fixture(tmp_path, seed=7002, n=20)
        router = ShardRouter(
            plan, specs, ds, backend="local", directory=str(tmp_path)
        )
        try:
            bad = UpdateRequest(
                dataset="default",
                append=(
                    (plan.x_edges[-1] + 1.0, 10.0, {"kind": "k0", "score": 0.0}),
                ),
            )
            with pytest.raises(ValueError, match="planned coverage box"):
                router.update(bad)
            # Nothing was applied: the router still serves the base set.
            _assert_identical(ds, router, REQ)
        finally:
            router.close()


def _assert_workers_pinned(router):
    """Every worker process runs one BLAS thread (DESIGN.md §11.7).

    Where numpy maps no known OpenBLAS, the workers (the same
    interpreter) must report none either; the drill goes on.
    """
    here = blas_info()
    pinned = None if here is None else {"library": here["library"], "threads": 1}
    shards = router.stats()["shards"]
    assert [s["blas"] for s in shards.values()] == [pinned] * len(shards)


class TestProcessBackend:
    def test_crash_recover_compact_reopen_drill(self, tmp_path):
        """The full lifecycle drill against real worker processes."""
        ds, plan, specs = _fixture(tmp_path, seed=99, n=50, nx=2, ny=1)
        base = str(tmp_path / "base.csv")
        save_csv(ds, base)
        router = ShardRouter(
            plan,
            specs,
            ds,
            backend="process",
            directory=str(tmp_path),
            base_data=base,
        )
        _assert_identical(ds, router, REQ)
        _assert_workers_pinned(router)

        upd = UpdateRequest(
            dataset="default",
            delete=(0, 3),
            append=((40.0, 40.0, {"kind": "k1", "score": 2.0}),),
        )
        result = router.update(upd)
        assert result.appended == 1 and result.deleted == 2
        ds2 = _apply(ds, upd)
        _assert_identical(ds2, router, REQ)

        # Two threads query at once: both fan-outs share the workers
        # (one round trip per pipe at a time) and stay bitwise.
        other = dataclasses.replace(
            REQ, width=5.0, height=9.5, target=(0.0, 2.0, 0.5, 1.0)
        )
        start = threading.Barrier(2)
        answers = {}

        def concurrent(name, request):
            start.wait()
            for _ in range(3):
                answers.setdefault(name, []).append(_routed(router, request))

        threads = [
            threading.Thread(target=concurrent, args=(name, request))
            for name, request in (("a", REQ), ("b", other))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert answers["a"] == [_oracle(ds2, REQ)] * 3
        assert answers["b"] == [_oracle(ds2, other)] * 3

        # Kill a worker: health degrades and queries refuse loudly
        # (the dead shard holds rows, so partial answers would lie).
        router.kill(1)
        assert router.health()["state"] == "degraded"
        with pytest.raises(DatasetUnavailable):
            router.query(REQ)

        # Recovery restarts the worker, which replays its WAL; the
        # served state must be exactly the pre-crash dataset.
        out = router.recover()
        assert out["restarted"] == ["shard001"]
        assert router.health()["state"] == "ok"
        _assert_workers_pinned(router)  # the restarted worker too
        _assert_identical(ds2, router, REQ)
        _assert_identical(ds2, router, other)

        ck = router.checkpoint("default")
        assert ck.n == ds2.n

        more = [
            UpdateRequest(
                dataset="default",
                append=((41.0, 41.0, {"kind": "k0", "score": 1.0}),),
            ),
            UpdateRequest(
                dataset="default",
                append=((42.0, 42.0, {"kind": "k2", "score": 3.0}),),
            ),
        ]
        for request in more:
            router.update(request)
        cp = router.compact("default")
        assert cp.records_before >= cp.records_after
        ds3 = _apply(_apply(ds2, more[0]), more[1])
        _assert_identical(ds3, router, REQ)

        # Clean close rewrites the base CSV + plan fingerprint, so a
        # cold reopen from the directory serves ds3 bitwise.
        router.close()
        router2 = ShardRouter.open(
            str(tmp_path), base_data=base, backend="process"
        )
        try:
            assert router2.dataset.n == ds3.n
            _assert_identical(ds3, router2, REQ)
        finally:
            router2.close()

    def test_stale_base_fails_closed(self, tmp_path):
        ds, plan, specs = _fixture(tmp_path, seed=123, n=30)
        base = str(tmp_path / "base.csv")
        save_csv(ds, base)
        router = ShardRouter(
            plan,
            specs,
            ds,
            backend="process",
            directory=str(tmp_path),
            base_data=base,
        )
        router.update(
            UpdateRequest(
                dataset="default",
                append=((30.0, 30.0, {"kind": "k1", "score": 1.0}),),
            )
        )
        router.close()
        # Tamper: regress the base CSV to the pre-update dataset.  The
        # plan fingerprint no longer matches, so open refuses rather
        # than serving a silently wrong mirror.
        save_csv(ds, base)
        with pytest.raises(PlanMismatchError):
            ShardRouter.open(str(tmp_path), base_data=base, backend="process")


class TestFailedWorkerOpen:
    def test_corrupt_bundle_releases_pipe_and_worker(self, tmp_path, monkeypatch):
        ds, plan, specs = _fixture(tmp_path, seed=7, n=40)
        with open(specs[1].index, "wb") as bundle:
            bundle.write(b"not a bundle" * 16)
        pairs, workers = [], []
        real_pair = socket.socketpair

        def recording_pair(*args):
            pair = real_pair(*args)
            pairs.append(pair)
            return pair

        ctx = multiprocessing.get_context("spawn")
        real_process = ctx.Process

        def recording_process(*args, **kwargs):
            workers.append(real_process(*args, **kwargs))
            return workers[-1]

        monkeypatch.setattr(socket, "socketpair", recording_pair)
        monkeypatch.setattr(ctx, "Process", recording_process)
        with pytest.raises(ShardOpenError, match="shard 1 worker failed to open"):
            ProcessShardBackend(plan, specs[1], 1)
        [(parent, child)] = pairs
        [worker] = workers
        assert parent.fileno() == -1 and child.fileno() == -1
        assert not worker.is_alive()
        assert worker.exitcode is not None
