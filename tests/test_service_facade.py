"""RegionService: the typed serving facade (DESIGN.md §11).

The contracts under test: facade answers are bitwise-identical to
direct ``QuerySession`` solves; the declarative ``DurabilityPolicy``
fires checkpoints/compactions exactly at its thresholds; WAL
compaction is equivalence-preserving (``compact()`` + replay ==
uncompacted replay == cold session on the final dataset, bitwise);
and read replicas follow a writer's log.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ASRSQuery
from repro.data.io import save_csv
from repro.engine import (
    QuerySession,
    UpdateBatch,
    WriteAheadLog,
    load_session,
    replay,
)
from repro.service import (
    DatasetSpec,
    DurabilityPolicy,
    QueryRequest,
    RegionService,
    UpdateRequest,
    term_specs,
)

from .conftest import make_random_dataset, random_aggregator

TERMS = ("fD:kind", "fS:score", "fA:score@kind=k0")


def _requests(ds, k=3, seed=7, **kwargs):
    rng = np.random.default_rng(seed)
    agg = random_aggregator()
    dim = agg.dim(ds)
    return [
        QueryRequest(
            dataset="d",
            terms=TERMS,
            width=12.0,
            height=9.0,
            target=tuple(rng.uniform(0, 4, size=dim)),
            **kwargs,
        )
        for _ in range(k)
    ]


def _asrs_queries(ds, requests):
    agg = random_aggregator()
    assert term_specs(agg) == TERMS  # the spec grammar round-trips
    return [
        ASRSQuery.from_vector(
            r.width, r.height, agg, np.asarray(r.target)
        )
        for r in requests
    ]


def _same_answer(a, b) -> bool:
    """Bitwise answer equality, ignoring per-call timing metadata."""
    return (
        a.region == b.region
        and a.score == b.score
        and a.representation == b.representation
        and a.epoch == b.epoch
    )


def _matches_engine(service_result, engine_result) -> bool:
    region = engine_result.region
    return (
        service_result.region
        == (region.x_min, region.y_min, region.x_max, region.y_max)
        and service_result.score == engine_result.distance
        and np.array_equal(
            np.asarray(service_result.representation), engine_result.representation
        )
    )


def _in_bounds_rows(rng, ds, n):
    from repro.core import SpatialDataset

    raw = make_random_dataset(rng, n, extent=90.0)
    b = ds.bounds()
    return SpatialDataset(
        np.clip(raw.xs, b.x_min, b.x_max),
        np.clip(raw.ys, b.y_min, b.y_max),
        ds.schema,
        {name: raw.column(name) for name in ds.schema.names},
    )


def _append_records(rng, ds, n):
    rows = _in_bounds_rows(rng, ds, n)
    return tuple(
        (
            float(rows.xs[i]),
            float(rows.ys[i]),
            {
                "kind": f"k{int(rows.column('kind')[i])}",
                "score": float(rows.column("score")[i]),
            },
        )
        for i in range(n)
    )


def _open_in_memory(ds, **spec_kwargs) -> RegionService:
    service = RegionService()
    service.open(DatasetSpec(key="d", **spec_kwargs), dataset=ds)
    return service


class TestQueries:
    def test_query_bitwise_identical_to_direct_solve(self):
        rng = np.random.default_rng(1)
        ds = make_random_dataset(rng, 150, extent=90.0)
        service = _open_in_memory(ds)
        requests = _requests(ds)
        direct = QuerySession(ds, granularity=service.session("d").granularity)
        for request, query in zip(requests, _asrs_queries(ds, requests)):
            assert _matches_engine(service.query(request), direct.solve(query))

    def test_query_batch_identical_and_counted(self):
        rng = np.random.default_rng(2)
        ds = make_random_dataset(rng, 120, extent=90.0)
        service = _open_in_memory(ds)
        requests = _requests(ds, k=4)
        results = service.query_batch(requests)
        with ThreadPoolExecutor(max_workers=2) as ex:
            threaded = list(ex.map(service.query, requests))
        direct = QuerySession(ds, granularity=service.session("d").granularity)
        expected = direct.solve_batch(_asrs_queries(ds, requests))
        assert len(results) == 4
        for got, again, want in zip(results, threaded, expected):
            assert _matches_engine(got, want)
            assert _matches_engine(again, want)
        assert service.stats()["datasets"]["d"]["queries"] == 8

    def test_ds_method_and_result_metadata(self):
        rng = np.random.default_rng(3)
        ds = make_random_dataset(rng, 80, extent=90.0)
        service = _open_in_memory(ds)
        request = _requests(ds, k=1, method="ds", include_stats=True)[0]
        result = service.query(request)
        assert result.epoch == 0
        assert result.elapsed_s > 0
        assert isinstance(result.stats, dict) and result.stats
        # and the whole thing survives its own codec
        from repro.service import RegionResult

        assert RegionResult.from_dict(result.to_dict()) == result

    def test_requests_intern_one_aggregator(self):
        rng = np.random.default_rng(4)
        ds = make_random_dataset(rng, 80, extent=90.0)
        service = _open_in_memory(ds)
        for request in _requests(ds, k=3):
            service.query(request)
        info = service.session("d").cache_info()
        assert info["compilers"] == 1  # every request hit the same object

    def test_aggregator_interning_is_bounded(self):
        rng = np.random.default_rng(5)
        ds = make_random_dataset(rng, 40, extent=90.0)
        service = RegionService(aggregator_cache_size=2)
        service.open(DatasetSpec(key="d"), dataset=ds)
        first = service.aggregator("d", ("fD:kind",))
        service.aggregator("d", ("fS:score",))
        assert service.aggregator("d", ("fD:kind",)) is first  # LRU hit
        service.aggregator("d", ("fA:score@kind=k0",))  # evicts fS:score
        assert len(service._aggregators) == 2
        # an evicted tuple re-parses: a fresh (but equivalent) object
        assert service.aggregator("d", ("fS:score",)) is not None

    def test_unknown_dataset(self):
        service = RegionService()
        with pytest.raises(KeyError, match="open"):
            service.query(
                QueryRequest(
                    dataset="nope", terms=("fD:kind",), width=1, height=1,
                    target=(0.0, 0.0, 0.0),
                )
            )


class TestUpdatesAndPolicy:
    def _open_durable(self, tmp_path, ds, **policy_kwargs):
        data = tmp_path / "d.csv"
        save_csv(ds, data)
        spec = DatasetSpec(
            key="d",
            data=str(data),
            categorical=("kind",),
            numeric=("score",),
            index=str(tmp_path / "d.idx"),
            wal=str(tmp_path / "d.wal"),
            durability=DurabilityPolicy(**policy_kwargs),
        )
        service = RegionService()
        service.open(spec)
        return service, spec

    def test_update_logs_and_answers_match_cold(self, tmp_path):
        rng = np.random.default_rng(10)
        ds = make_random_dataset(rng, 100, extent=90.0)
        service, _ = self._open_durable(tmp_path, ds)
        requests = _requests(ds, k=2)
        service.query(requests[0])
        result = service.update(
            UpdateRequest(
                dataset="d", append=_append_records(rng, ds, 5), delete=(3, 7)
            )
        )
        assert result.appended == 5 and result.deleted == 2
        assert result.wal_logged and result.epoch == 1
        assert not result.checkpointed and not result.compacted
        session = service.session("d")
        cold = QuerySession(session.dataset, granularity=session.granularity)
        for request, query in zip(requests, _asrs_queries(ds, requests)):
            assert _matches_engine(service.query(request), cold.solve(query))

    def test_checkpoint_every_records_trigger(self, tmp_path):
        rng = np.random.default_rng(11)
        ds = make_random_dataset(rng, 80, extent=90.0)
        service, spec = self._open_durable(
            tmp_path, ds, checkpoint_every_records=2
        )
        first = service.update(
            UpdateRequest(dataset="d", append=_append_records(rng, ds, 2))
        )
        assert not first.checkpointed
        assert service.session("d").wal.state()["records"] == 1
        second = service.update(
            UpdateRequest(dataset="d", append=_append_records(rng, ds, 2))
        )
        assert second.checkpointed
        assert service.session("d").wal.state()["records"] == 0
        assert os.path.exists(spec.index)
        # The persisted pair is the recovery point: a fresh service
        # restores to the live state with nothing left to replay.
        recovered = RegionService()
        opened = recovered.open(spec)
        assert opened.restored_from_bundle
        assert opened.epoch == 2 and opened.replayed == 0
        assert opened.n == service.session("d").dataset.n

    def test_checkpoint_bundle_holds_only_meta(self, tmp_path):
        """A checkpoint of a warm session writes the epoch record only:
        no warm array travels to disk."""
        import zipfile

        rng = np.random.default_rng(15)
        ds = make_random_dataset(rng, 80, extent=90.0)
        service, spec = self._open_durable(tmp_path, ds)
        for request in _requests(ds, k=2):
            service.query(request)
        service.update(
            UpdateRequest(dataset="d", append=_append_records(rng, ds, 2))
        )
        assert service.checkpoint("d").epoch == 1
        with zipfile.ZipFile(spec.index) as bundle:
            assert bundle.namelist() == ["meta.npy"]

    def test_restarted_service_answers_bitwise_equal(self, tmp_path):
        """Restart after a checkpoint with more records logged past it:
        the new service answers every request exactly as the old one."""
        rng = np.random.default_rng(16)
        ds = make_random_dataset(rng, 120, extent=90.0)
        service, spec = self._open_durable(
            tmp_path, ds, checkpoint_on_close=False
        )
        requests = _requests(ds, k=3)
        service.update(
            UpdateRequest(
                dataset="d", append=_append_records(rng, ds, 4), delete=(2, 9)
            )
        )
        service.checkpoint("d")
        service.update(
            UpdateRequest(dataset="d", append=_append_records(rng, ds, 3))
        )
        service.update(UpdateRequest(dataset="d", delete=(0, 5)))
        before = [service.query(r) for r in requests]
        service.close()

        restarted = RegionService()
        opened = restarted.open(spec)
        assert opened.restored_from_bundle
        assert (opened.epoch, opened.replayed) == (3, 2)
        after = [restarted.query(r) for r in requests]
        for a, b in zip(before, after):
            assert _same_answer(a, b)

    def test_checkpoint_every_bytes_trigger(self, tmp_path):
        rng = np.random.default_rng(12)
        ds = make_random_dataset(rng, 80, extent=90.0)
        service, spec = self._open_durable(
            tmp_path, ds, checkpoint_every_bytes=1
        )
        result = service.update(
            UpdateRequest(dataset="d", append=_append_records(rng, ds, 1))
        )
        assert result.checkpointed
        assert service.session("d").wal.state()["records"] == 0
        assert os.path.exists(spec.index)

    def test_checkpoint_on_close_trigger(self, tmp_path):
        rng = np.random.default_rng(13)
        ds = make_random_dataset(rng, 80, extent=90.0)
        service, spec = self._open_durable(tmp_path, ds)  # on_close is default
        service.update(
            UpdateRequest(dataset="d", append=_append_records(rng, ds, 2))
        )
        assert not os.path.exists(spec.index)
        reports = service.close()
        assert len(reports) == 1 and reports[0].wal_records_dropped == 1
        assert os.path.exists(spec.index)

    def test_no_close_checkpoint_when_disabled(self, tmp_path):
        rng = np.random.default_rng(14)
        ds = make_random_dataset(rng, 80, extent=90.0)
        service, spec = self._open_durable(
            tmp_path, ds, checkpoint_on_close=False
        )
        service.update(
            UpdateRequest(dataset="d", append=_append_records(rng, ds, 2))
        )
        assert service.close() == []
        assert not os.path.exists(spec.index)
        # the records survive as the recovery path
        assert WriteAheadLog(spec.wal).state()["records"] == 1

    def test_compact_every_records_trigger(self, tmp_path):
        rng = np.random.default_rng(15)
        ds = make_random_dataset(rng, 80, extent=90.0)
        service, spec = self._open_durable(
            tmp_path, ds, compact_every_records=2, checkpoint_on_close=False
        )
        for _ in range(2):
            result = service.update(
                UpdateRequest(dataset="d", append=_append_records(rng, ds, 2))
            )
        assert result.compacted and not result.checkpointed
        assert service.session("d").wal.state()["records"] == 1
        assert not os.path.exists(spec.index)  # compaction never saves bundles

    def test_concurrent_updates_and_checkpoints_stay_recoverable(self, tmp_path):
        """Checkpoints hold the session's gate shared, which still keeps
        updates out: an update landing between the CSV write and the
        bundle save would log a record the checkpoint then truncates
        without its data being in the CSV.  Hammer updates and
        checkpoints concurrently, then prove the persisted triple
        recovers to the live state."""
        import threading

        rng = np.random.default_rng(18)
        ds = make_random_dataset(rng, 60, extent=90.0)
        service, spec = self._open_durable(
            tmp_path, ds, checkpoint_on_close=False
        )
        rngs = [np.random.default_rng(100 + i) for i in range(4)]

        def mutate(worker_rng):
            for _ in range(5):
                service.update(
                    UpdateRequest(
                        dataset="d",
                        append=_append_records(
                            worker_rng, service.session("d").dataset, 1
                        ),
                    )
                )

        threads = [
            threading.Thread(target=mutate, args=(r,)) for r in rngs
        ]
        for thread in threads:
            thread.start()
        for _ in range(6):
            service.checkpoint("d")
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        service.checkpoint("d")

        live = service.session("d").dataset
        recovered = RegionService()
        recovered.open(spec)
        rec = recovered.session("d").dataset
        assert rec.n == live.n == ds.n + 20
        assert np.array_equal(rec.xs, live.xs)
        assert np.array_equal(rec.ys, live.ys)
        for name in ds.schema.names:
            assert np.array_equal(rec.column(name), live.column(name))

    def test_checkpoint_policy_requires_paths(self):
        rng = np.random.default_rng(16)
        ds = make_random_dataset(rng, 40, extent=90.0)
        service = RegionService()
        with pytest.raises(ValueError, match="data= and index="):
            service.open(
                DatasetSpec(
                    key="d",
                    wal="whatever.wal",
                    durability=DurabilityPolicy(checkpoint_every_records=1),
                ),
                dataset=ds,
            )

    def test_read_only_refuses_mutation(self, tmp_path):
        rng = np.random.default_rng(17)
        ds = make_random_dataset(rng, 40, extent=90.0)
        data = tmp_path / "d.csv"
        save_csv(ds, data)
        service = RegionService(read_only=True)
        service.open(
            DatasetSpec(key="d", data=str(data), categorical=("kind",),
                        numeric=("score",))
        )
        with pytest.raises(PermissionError, match="read-only"):
            service.update(
                UpdateRequest(dataset="d", append=_append_records(rng, ds, 1))
            )
        with pytest.raises(PermissionError, match="read-only"):
            service.checkpoint("d")


class TestCompaction:
    def _stream(self, rng, ds, rounds=4):
        batches = []
        current = ds
        for _ in range(rounds):
            appended = _in_bounds_rows(rng, current, 3)
            delete = np.sort(
                rng.choice(current.n, size=min(2, current.n), replace=False)
            )
            batches.append(UpdateBatch(append=appended, delete=delete))
            current = current.delete(delete).append(appended)
        return batches, current

    def test_compact_replay_identical_to_uncompacted(self, tmp_path):
        rng = np.random.default_rng(20)
        ds = make_random_dataset(rng, 90, extent=90.0)
        agg = random_aggregator()
        queries = [
            ASRSQuery.from_vector(
                12.0, 9.0, agg, np.random.default_rng(5).uniform(0, 4, agg.dim(ds))
            )
        ]
        batches, final_ds = self._stream(rng, ds)

        session = QuerySession(ds)
        session.solve(queries[0])
        from repro.engine import save_session

        bundle = tmp_path / "c.idx"
        save_session(session, bundle)
        wal_path = tmp_path / "c.wal"
        session.attach_wal(wal_path)
        for batch in batches:
            session.apply(batch)

        # Uncompacted replay (onto a copy of the log).
        import shutil

        uncompacted = tmp_path / "uncompacted.wal"
        shutil.copy(wal_path, uncompacted)
        plain = load_session(bundle, ds)
        replay(plain, WriteAheadLog(uncompacted))

        # Compacted replay.
        wal = WriteAheadLog(wal_path)
        cstats = wal.compact(ds.schema)
        assert cstats.records_before == len(batches)
        assert cstats.records_after == 1
        assert cstats.merged == len(batches) - 1
        compacted = load_session(bundle, ds)
        rstats = replay(compacted, wal)
        assert rstats.applied == 1

        cold = QuerySession(final_ds, granularity=session.granularity)
        for query in queries:
            live = session.solve(query)
            a, b, c = plain.solve(query), compacted.solve(query), cold.solve(query)
            for other in (a, b, c):
                assert live.region == other.region
                assert live.distance == other.distance
                assert np.array_equal(live.representation, other.representation)
        # datasets are bitwise equal too
        assert np.array_equal(compacted.dataset.xs, final_ds.xs)
        assert np.array_equal(compacted.dataset.ys, final_ds.ys)
        for name in final_ds.schema.names:
            assert np.array_equal(
                compacted.dataset.column(name), final_ds.column(name)
            )

    def test_compact_net_noop_stream(self, tmp_path):
        """Appending rows and then deleting exactly them compacts to one
        *empty* span record -- not an empty log, because a mid-span
        bundle holds mid-span data and must still fail closed."""
        rng = np.random.default_rng(21)
        ds = make_random_dataset(rng, 50, extent=90.0)
        session = QuerySession(ds)
        wal = session.attach_wal(tmp_path / "noop.wal")
        appended = _in_bounds_rows(rng, ds, 4)
        session.apply(UpdateBatch(append=appended))
        session.apply(
            UpdateBatch(delete=np.arange(ds.n, ds.n + 4))
        )
        cstats = wal.compact(ds.schema)
        assert cstats.records_after == 1
        state = wal.state()
        assert state["records"] == 1
        assert state["head_epoch"] == 2  # numbering unchanged
        fresh = QuerySession(ds)
        stats = replay(fresh, wal)
        assert stats.applied == 1  # the (empty) merged record
        assert fresh.dataset.n == ds.n
        assert fresh.epoch == 2  # fast-forwarded across the span

    def test_compacted_span_fails_closed_for_mid_span_bundle(self, tmp_path):
        rng = np.random.default_rng(22)
        ds = make_random_dataset(rng, 60, extent=90.0)
        from repro.engine import save_session

        session = QuerySession(ds)
        session.solve(
            ASRSQuery.from_vector(
                12.0, 9.0, random_aggregator(),
                np.zeros(random_aggregator().dim(ds)),
            )
        )
        wal = session.attach_wal(tmp_path / "span.wal")
        batches, _ = self._stream(rng, ds, rounds=3)
        session.apply(batches[0])
        session.apply(batches[1])
        mid_bundle = tmp_path / "mid.idx"
        mid_ds = session.dataset
        save_session(session, mid_bundle, checkpoint_wal=False)  # epoch 2
        session.apply(batches[2])
        wal.compact(ds.schema)
        restored = load_session(mid_bundle, mid_ds)
        with pytest.raises(ValueError, match="inside"):
            replay(restored, wal)

    def test_service_compact_keeps_epoch_numbering_stable(self, tmp_path):
        rng = np.random.default_rng(23)
        ds = make_random_dataset(rng, 70, extent=90.0)
        data = tmp_path / "d.csv"
        save_csv(ds, data)
        spec = DatasetSpec(
            key="d", data=str(data), categorical=("kind",), numeric=("score",),
            index=str(tmp_path / "d.idx"), wal=str(tmp_path / "d.wal"),
            durability=DurabilityPolicy(checkpoint_on_close=False),
        )
        service = RegionService()
        service.open(spec)
        for _ in range(3):
            service.update(
                UpdateRequest(dataset="d", append=_append_records(rng, ds, 2))
            )
        assert service.session("d").epoch == 3
        report = service.compact("d")
        assert report.records_before == 3 and report.records_after == 1
        # Epoch numbering is stable across compaction: the live session,
        # every replica and every saved bundle keep their epochs, and
        # further durable updates continue the same history...
        assert service.session("d").epoch == 3
        assert service.session("d").wal.state()["head_epoch"] == 3
        service.update(
            UpdateRequest(dataset="d", append=_append_records(rng, ds, 1))
        )
        assert service.session("d").epoch == 4
        assert service.session("d").wal.state()["records"] == 2
        # ...and a cold recovery over the baseline still lands on the
        # live dataset, bitwise, at the live epoch.
        recovered = RegionService()
        opened = recovered.open(spec)
        live_ds = service.session("d").dataset
        rec_ds = recovered.session("d").dataset
        assert opened.replayed == 2  # the merged span record + the new one
        assert opened.epoch == 4
        assert np.array_equal(rec_ds.xs, live_ds.xs)
        assert np.array_equal(rec_ds.ys, live_ds.ys)

    def test_replica_follows_writer_across_compaction(self, tmp_path):
        """Regression: compaction must not renumber epochs -- a replica
        that already replayed the original records must keep applying
        the writer's post-compaction updates (not skip them as 'already
        covered')."""
        rng = np.random.default_rng(24)
        ds = make_random_dataset(rng, 80, extent=90.0)
        data = tmp_path / "d.csv"
        save_csv(ds, data)
        spec = DatasetSpec(
            key="d", data=str(data), categorical=("kind",), numeric=("score",),
            index=str(tmp_path / "d.idx"), wal=str(tmp_path / "d.wal"),
            durability=DurabilityPolicy(checkpoint_on_close=False),
        )
        writer = RegionService()
        writer.open(spec)
        reader = RegionService(read_only=True)
        reader.open(spec)
        for _ in range(3):
            writer.update(
                UpdateRequest(dataset="d", append=_append_records(rng, ds, 2))
            )
        assert reader.refresh("d").applied == 3
        writer.compact("d")
        for _ in range(2):
            writer.update(
                UpdateRequest(dataset="d", append=_append_records(rng, ds, 1))
            )
        stats = reader.refresh("d")
        assert stats.applied == 2  # the new records, NOT silently skipped
        assert (
            reader.session("d").dataset.n == writer.session("d").dataset.n
        )
        request = _requests(ds, k=1)[0]
        assert _same_answer(writer.query(request), reader.query(request))

    def test_recompaction_preserves_the_full_span(self, tmp_path):
        """Regression: compacting an already-compacted log must keep
        covering the original epoch range, so bundles inside the *old*
        span still fail closed."""
        rng = np.random.default_rng(25)
        ds = make_random_dataset(rng, 60, extent=90.0)
        from repro.engine import save_session

        session = QuerySession(ds)
        wal = session.attach_wal(tmp_path / "re.wal")
        batches, _ = self._stream(rng, ds, rounds=3)
        session.apply(batches[0])
        session.apply(batches[1])
        mid_bundle = tmp_path / "mid.idx"
        mid_ds = session.dataset
        save_session(session, mid_bundle, checkpoint_wal=False)  # epoch 2
        session.apply(batches[2])
        wal.compact(ds.schema)  # spans [0, 3)
        session.append(_in_bounds_rows(rng, session.dataset, 2))
        cstats = wal.compact(ds.schema)  # must span [0, 4), not [0, 2)
        assert cstats.head_epoch == 4
        restored = load_session(mid_bundle, mid_ds)
        with pytest.raises(ValueError, match="inside"):
            replay(restored, wal)

    def test_open_dataset_survives_pool_eviction(self):
        """Regression: budget eviction clears caches but must never make
        an open dataset unqueryable or drop its mutated state."""
        rng = np.random.default_rng(26)
        ds_a = make_random_dataset(rng, 60, extent=90.0)
        ds_b = make_random_dataset(rng, 60, extent=90.0)
        service = RegionService(max_sessions=1)
        service.open(DatasetSpec(key="d"), dataset=ds_a)
        service.update(
            UpdateRequest(dataset="d", append=_append_records(rng, ds_a, 3))
        )
        service.open(DatasetSpec(key="b"), dataset=ds_b)  # evicts "d"
        request = _requests(ds_a, k=1)[0]
        result = service.query(request)  # re-admits, re-warms, answers
        assert result.epoch == 1
        assert service.session("d").dataset.n == ds_a.n + 3  # mutation kept
        session = service.session("d")
        cold = QuerySession(session.dataset, granularity=session.granularity)
        assert _matches_engine(
            service.query(request), cold.solve(_asrs_queries(ds_a, [request])[0])
        )

    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_compact_equals_uncompacted_replay_property(self, data):
        """Hypothesis: for random update streams, replaying the compacted
        log is dataset-bitwise-identical to replaying the original."""
        import shutil
        import tempfile

        rng = np.random.default_rng(data.draw(st.integers(0, 10**6)))
        ds = make_random_dataset(rng, data.draw(st.integers(10, 60)), extent=90.0)
        n_rounds = data.draw(st.integers(1, 5))
        session = QuerySession(ds)
        with tempfile.TemporaryDirectory() as tmp:
            wal_path = os.path.join(tmp, "p.wal")
            wal = session.attach_wal(wal_path)
            current = ds
            for _ in range(n_rounds):
                n_add = int(rng.integers(0, 4))
                n_del = int(rng.integers(0, min(3, current.n) + 1))
                if n_add == 0 and n_del == 0:
                    n_add = 1
                appended = (
                    _in_bounds_rows(rng, current, n_add) if n_add else None
                )
                delete = (
                    np.sort(rng.choice(current.n, size=n_del, replace=False))
                    if n_del
                    else None
                )
                session.apply(UpdateBatch(append=appended, delete=delete))
                current = session.dataset

            copy_path = os.path.join(tmp, "p.copy.wal")
            shutil.copy(wal_path, copy_path)
            plain = QuerySession(ds)
            replay(plain, WriteAheadLog(copy_path))
            wal.compact(ds.schema)
            compacted = QuerySession(ds)
            replay(compacted, wal)
            wal.close()
            assert compacted.dataset.n == plain.dataset.n == current.n
            assert np.array_equal(compacted.dataset.xs, plain.dataset.xs)
            assert np.array_equal(compacted.dataset.ys, plain.dataset.ys)
            for name in ds.schema.names:
                assert np.array_equal(
                    compacted.dataset.column(name), plain.dataset.column(name)
                )


class TestFollower:
    def test_replica_follows_writer_and_survives_checkpoint(self, tmp_path):
        rng = np.random.default_rng(30)
        ds = make_random_dataset(rng, 90, extent=90.0)
        data = tmp_path / "d.csv"
        save_csv(ds, data)
        spec = DatasetSpec(
            key="d", data=str(data), categorical=("kind",), numeric=("score",),
            index=str(tmp_path / "d.idx"), wal=str(tmp_path / "d.wal"),
            durability=DurabilityPolicy(checkpoint_on_close=False),
        )
        writer = RegionService()
        writer.open(spec)
        reader = RegionService(read_only=True)
        reader.open(spec)

        requests = _requests(ds, k=2)
        writer.update(
            UpdateRequest(dataset="d", append=_append_records(rng, ds, 3))
        )
        stats = reader.refresh("d")
        assert stats.applied == 1
        for request in requests:
            assert _same_answer(writer.query(request), reader.query(request))

        # Writer checkpoints (log truncated past the replica's history is
        # fine -- replica already caught up), then keeps going.
        writer.checkpoint("d")
        writer.update(
            UpdateRequest(dataset="d", append=_append_records(rng, ds, 2))
        )
        reader.refresh("d")
        assert (
            reader.session("d").dataset.n == writer.session("d").dataset.n
        )
        for request in requests:
            assert _same_answer(writer.query(request), reader.query(request))

    def test_replica_reopens_after_missed_checkpoint(self, tmp_path):
        """A replica that lagged across a checkpoint+truncate reloads the
        freshly persisted pair instead of serving stale state."""
        rng = np.random.default_rng(31)
        ds = make_random_dataset(rng, 80, extent=90.0)
        data = tmp_path / "d.csv"
        save_csv(ds, data)
        spec = DatasetSpec(
            key="d", data=str(data), categorical=("kind",), numeric=("score",),
            index=str(tmp_path / "d.idx"), wal=str(tmp_path / "d.wal"),
            durability=DurabilityPolicy(checkpoint_on_close=False),
        )
        writer = RegionService()
        writer.open(spec)
        reader = RegionService(read_only=True)
        reader.open(spec)
        # The replica never sees these records: the writer checkpoints
        # (truncating them) and mutates again before the next poll.
        writer.update(
            UpdateRequest(dataset="d", append=_append_records(rng, ds, 3))
        )
        writer.checkpoint("d")
        writer.update(
            UpdateRequest(dataset="d", append=_append_records(rng, ds, 2))
        )
        reader.refresh("d")
        assert reader.session("d").dataset.n == writer.session("d").dataset.n
        request = _requests(ds, k=1)[0]
        assert _same_answer(writer.query(request), reader.query(request))


class TestObservability:
    def test_cache_info_and_pool_info_report_durability(self, tmp_path):
        rng = np.random.default_rng(40)
        ds = make_random_dataset(rng, 60, extent=90.0)
        data = tmp_path / "d.csv"
        save_csv(ds, data)
        spec = DatasetSpec(
            key="d", data=str(data), categorical=("kind",), numeric=("score",),
            index=str(tmp_path / "d.idx"), wal=str(tmp_path / "d.wal"),
            durability=DurabilityPolicy(checkpoint_on_close=False),
        )
        service = RegionService()
        service.open(spec)
        service.update(
            UpdateRequest(dataset="d", append=_append_records(rng, ds, 2))
        )
        info = service.session("d").cache_info()
        assert info["epoch"] == 1
        assert info["bundle_version"] is None  # cold open, no bundle yet
        assert info["wal"]["records"] == 1
        assert info["wal"]["head_epoch"] == 1
        assert info["wal"]["path"] == spec.wal
        assert info["wal"]["bytes"] > 0

        stats = service.stats()
        entry = stats["datasets"]["d"]
        assert entry["updates"] == 1
        assert entry["epoch"] == 1
        assert entry["wal"]["records"] == 1
        assert stats["pool"]["sessions"] == 1

        service.checkpoint("d")
        assert service.session("d").cache_info()["wal"]["records"] == 0
        # a restore now reports its bundle vintage
        recovered = RegionService()
        recovered.open(spec)
        from repro.engine.persist import FORMAT_VERSION

        assert (
            recovered.session("d").cache_info()["bundle_version"]
            == FORMAT_VERSION
        )
        durability = recovered.stats()["datasets"]["d"]
        assert durability["bundle_version"] == FORMAT_VERSION

    def test_persist_reports_choreography(self, tmp_path):
        rng = np.random.default_rng(41)
        ds = make_random_dataset(rng, 50, extent=90.0)
        data = tmp_path / "d.csv"
        save_csv(ds, data)
        spec = DatasetSpec(
            key="d", data=str(data), categorical=("kind",), numeric=("score",),
            wal=str(tmp_path / "d.wal"),
            durability=DurabilityPolicy(checkpoint_on_close=False),
        )
        service = RegionService()
        service.open(spec)
        service.update(
            UpdateRequest(dataset="d", append=_append_records(rng, ds, 2))
        )
        # side-copy data save: the log must survive untouched
        side = service.persist("d", save_data=str(tmp_path / "side.csv"))
        assert side.wal_action == "side_copy"
        assert service.session("d").wal.state()["records"] == 1
        # baseline overwrite without a bundle: log resets to the fresh base
        base = service.persist("d", save_data=str(data))
        assert base.wal_action == "reset" and base.wal_dropped == 1
        assert service.session("d").wal.state()["records"] == 0
