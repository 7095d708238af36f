"""Crash recovery: the write-ahead log and replay (DESIGN.md §10).

The contract under test: ``replay(load_session(bundle), wal)`` lands on
a session bitwise-identical to applying the same batches to the live
session (and therefore to a cold session on the final dataset); torn
tails are truncated cleanly; checkpoints keep the bundle + WAL pair
replayable and detect gaps instead of serving stale state.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ASRSQuery, SpatialDataset
from repro.engine import (
    QuerySession,
    SessionPool,
    UpdateBatch,
    WriteAheadLog,
    load_session,
    replay,
    save_session,
)
from repro.engine.wal import _FRAME, _scan

from .conftest import make_random_dataset, random_aggregator


def _queries(ds, agg, k=3, seed=7):
    rng = np.random.default_rng(seed)
    dim = agg.dim(ds)
    return [
        ASRSQuery.from_vector(12.0, 9.0, agg, rng.uniform(0, 4, size=dim))
        for _ in range(k)
    ]


def _in_bounds_rows(rng, ds, n):
    raw = make_random_dataset(rng, n, extent=90.0)
    b = ds.bounds()
    return SpatialDataset(
        np.clip(raw.xs, b.x_min, b.x_max),
        np.clip(raw.ys, b.y_min, b.y_max),
        ds.schema,
        {name: raw.column(name) for name in ds.schema.names},
    )


def _interior_delete(rng, ds, n):
    protect = {
        int(np.argmin(ds.xs)),
        int(np.argmax(ds.xs)),
        int(np.argmin(ds.ys)),
        int(np.argmax(ds.ys)),
    }
    candidates = np.setdiff1d(np.arange(ds.n), np.array(sorted(protect)))
    n = min(n, candidates.size)
    return np.sort(rng.choice(candidates, size=n, replace=False))


def _identical(a, b):
    return (
        a.region == b.region
        and a.distance == b.distance
        and np.array_equal(a.representation, b.representation)
    )


def _same_dataset(a, b) -> bool:
    return (
        a.n == b.n
        and np.array_equal(a.xs, b.xs)
        and np.array_equal(a.ys, b.ys)
        and all(
            np.array_equal(a.column(name), b.column(name))
            for name in a.schema.names
        )
    )


class TestLogFormat:
    def test_record_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        ds = make_random_dataset(rng, 30)
        wal = WriteAheadLog(tmp_path / "w.wal")
        extra = make_random_dataset(rng, 4)
        wal.append(
            UpdateBatch(append=extra, delete=np.array([1, 5])),
            epoch=0,
            pre_n=ds.n,
            schema=ds.schema,
        )
        wal.append(
            UpdateBatch(delete=np.zeros(32, dtype=bool)),
            epoch=1,
            pre_n=32,
            schema=ds.schema,
        )
        records = wal.records(ds.schema)
        assert [(e, n) for e, n, _ in records] == [(0, 30), (1, 32)]
        batch = records[0][2]
        assert _same_dataset(batch.append, extra)
        np.testing.assert_array_equal(batch.delete, [1, 5])
        assert records[1][2].delete.dtype == bool

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "not.wal"
        path.write_bytes(b"definitely not a wal file")
        rng = np.random.default_rng(1)
        session = QuerySession(make_random_dataset(rng, 10))
        with pytest.raises(ValueError, match="bad magic"):
            replay(session, path)

    def test_newer_version_rejected(self, tmp_path):
        import struct

        from repro.engine.wal import WAL_MAGIC, WAL_VERSION

        path = tmp_path / "future.wal"
        path.write_bytes(WAL_MAGIC + struct.pack("<II", WAL_VERSION + 1, 0))
        rng = np.random.default_rng(2)
        session = QuerySession(make_random_dataset(rng, 10))
        with pytest.raises(ValueError, match="newer build"):
            replay(session, path)

    def test_missing_or_empty_log_is_a_noop(self, tmp_path):
        rng = np.random.default_rng(3)
        session = QuerySession(make_random_dataset(rng, 10))
        stats = replay(session, tmp_path / "absent.wal")
        assert stats.applied == 0 and stats.skipped == 0
        (tmp_path / "empty.wal").write_bytes(b"")
        stats = replay(session, tmp_path / "empty.wal")
        assert stats.applied == 0

    def test_fsync_batching_still_flushes_every_record(self, tmp_path):
        """With a large fsync batch, records are still OS-flushed per
        append, so a same-process scan sees them all."""
        rng = np.random.default_rng(4)
        ds = make_random_dataset(rng, 20)
        wal = WriteAheadLog(tmp_path / "w.wal", fsync_batch=100)
        for epoch in range(5):
            wal.append(
                UpdateBatch(delete=np.array([0])),
                epoch=epoch,
                pre_n=20 - epoch,
                schema=ds.schema,
            )
        assert len(wal.records(ds.schema)) == 5
        wal.sync()
        with pytest.raises(ValueError):
            WriteAheadLog(tmp_path / "w.wal", fsync_batch=0)


class TestReplay:
    def _logged_session(self, tmp_path, seed=11, n=120, rounds=3):
        """A warm session: bundle saved at epoch 0, then ``rounds``
        logged updates.  Returns (base dataset, session, queries,
        bundle path, wal)."""
        rng = np.random.default_rng(seed)
        ds = make_random_dataset(rng, n, extent=90.0)
        agg = random_aggregator()
        queries = _queries(ds, agg, seed=seed)
        session = QuerySession(ds)
        session.solve_batch(queries)
        bundle = tmp_path / "session.idx"
        save_session(session, bundle)
        wal = session.attach_wal(tmp_path / "session.wal")
        for _ in range(rounds):
            session.apply(
                UpdateBatch(
                    append=_in_bounds_rows(rng, session.dataset, 6),
                    delete=_interior_delete(rng, session.dataset, 4),
                )
            )
        return ds, session, queries, bundle, wal

    def test_replay_matches_live_session(self, tmp_path):
        ds, live, queries, bundle, wal = self._logged_session(tmp_path)
        restored = load_session(bundle, ds)
        stats = replay(restored, wal)
        assert stats.applied == 3 and stats.skipped == 0
        assert stats.final_epoch == live.epoch == restored.epoch
        assert _same_dataset(restored.dataset, live.dataset)
        cold = QuerySession(
            live.dataset, granularity=live.granularity, settings=live.settings
        )
        for query in queries:
            want = cold.solve(query)
            assert _identical(restored.solve(query), want)
            assert _identical(live.solve(query), want)

    def test_replay_skips_records_a_newer_bundle_covers(self, tmp_path):
        ds, live, queries, bundle, wal = self._logged_session(tmp_path)
        # Save a newer bundle mid-stream WITHOUT checkpointing (detach
        # the wal first): older records must be skipped on replay.
        live.wal = None
        mid_bundle = tmp_path / "mid.idx"
        save_session(live, mid_bundle)
        live.attach_wal(wal)
        rng = np.random.default_rng(99)
        mid_dataset = live.dataset
        live.apply(UpdateBatch(append=_in_bounds_rows(rng, live.dataset, 3)))
        restored = load_session(mid_bundle, mid_dataset)
        stats = replay(restored, wal)
        assert stats.skipped == 3 and stats.applied == 1
        assert _same_dataset(restored.dataset, live.dataset)

    def test_replay_does_not_relog(self, tmp_path):
        ds, live, queries, bundle, wal = self._logged_session(tmp_path)
        size_before = os.path.getsize(wal.path)
        restored = load_session(bundle, ds)
        restored.attach_wal(wal)  # the natural recovery sequence
        stats = replay(restored, wal)
        assert stats.applied == 3
        assert os.path.getsize(wal.path) == size_before
        # ...and the recovered session keeps logging new updates.
        rng = np.random.default_rng(5)
        restored.apply(
            UpdateBatch(delete=_interior_delete(rng, restored.dataset, 2))
        )
        assert os.path.getsize(wal.path) > size_before

    def test_gap_after_checkpoint_raises(self, tmp_path):
        ds, live, queries, bundle, wal = self._logged_session(tmp_path)
        # Checkpoint the log past the epoch-0 bundle: replay onto the
        # stale bundle must fail closed, not serve a hole in history.
        dropped = wal.checkpoint(2)
        assert dropped == 2
        restored = load_session(bundle, ds)
        with pytest.raises(ValueError, match="checkpointed at epoch 2"):
            replay(restored, wal)

    def test_lineage_mismatch_raises(self, tmp_path):
        ds, live, queries, bundle, wal = self._logged_session(tmp_path)
        rng = np.random.default_rng(21)
        other = QuerySession(make_random_dataset(rng, 77, extent=90.0))
        with pytest.raises(ValueError, match="different dataset lineages"):
            replay(other, wal)

    def test_save_session_checkpoints_attached_wal(self, tmp_path):
        ds, live, queries, bundle, wal = self._logged_session(tmp_path)
        assert len(wal.records(ds.schema)) == 3
        new_bundle = tmp_path / "new.idx"
        save_session(live, new_bundle)  # checkpoint-and-truncate
        assert wal.records(ds.schema) == []
        # The fresh pair replays to the same state (trivially: no
        # records pending).
        restored = load_session(new_bundle, live.dataset)
        stats = replay(restored, wal)
        assert stats.applied == 0
        for query in queries:
            assert _identical(restored.solve(query), live.solve(query))

    def test_pooled_session_checkpoints_through_save_session(self, tmp_path):
        """The pool keeps no save path: the session it holds is saved
        directly, and that checkpoint truncates the pooled log."""
        rng = np.random.default_rng(31)
        ds = make_random_dataset(rng, 80, extent=90.0)
        agg = random_aggregator()
        queries = _queries(ds, agg, seed=31)
        pool = SessionPool()
        pool.session("k", ds, wal=tmp_path / "pool.wal").solve(queries[0])
        pool.reaccount("k")
        pool.append("k", _in_bounds_rows(rng, ds, 5))
        session = pool.session("k")
        assert len(session.wal.records(ds.schema)) == 1
        save_session(session, tmp_path / "pool.idx")
        assert session.wal.records(ds.schema) == []
        # Crash recovery: the bundle opens at the checkpoint's epoch, a
        # fresh pool adopts it, and the (empty) log replays onto it.
        recovered = load_session(tmp_path / "pool.idx", session.dataset)
        SessionPool().adopt("k", recovered)
        stats = replay(recovered, tmp_path / "pool.wal")
        assert (stats.applied, recovered.epoch) == (0, 1)
        assert _identical(
            recovered.solve(queries[0]), session.solve(queries[0])
        )

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_ops=st.integers(1, 4))
    def test_replay_equals_live_apply_property(
        self, seed, n_ops, tmp_path_factory
    ):
        """Any logged append/delete stream replayed onto the stale
        bundle reproduces the live session's dataset and answers."""
        tmp_path = tmp_path_factory.mktemp("wal")
        rng = np.random.default_rng(seed)
        ds = make_random_dataset(rng, int(rng.integers(20, 60)), extent=60.0)
        agg = random_aggregator()
        queries = _queries(ds, agg, k=2, seed=seed % 1000)
        session = QuerySession(ds)
        session.solve(queries[0])
        bundle = tmp_path / "b.idx"
        save_session(session, bundle)
        wal = session.attach_wal(tmp_path / "b.wal")
        for _ in range(n_ops):
            op = rng.integers(0, 2)
            if op == 0 and session.dataset.n > 2:
                k = int(rng.integers(1, max(2, session.dataset.n // 4)))
                idx = np.sort(
                    rng.choice(session.dataset.n, size=k, replace=False)
                )
                session.delete(idx)
            else:
                session.append(
                    make_random_dataset(
                        rng, int(rng.integers(1, 8)), extent=60.0
                    )
                )
        restored = load_session(bundle, ds)
        stats = replay(restored, wal)
        assert stats.final_epoch == session.epoch
        assert _same_dataset(restored.dataset, session.dataset)
        for query in queries:
            assert _identical(restored.solve(query), session.solve(query))


class TestTornTail:
    def test_truncation_at_every_byte_of_the_last_record(self, tmp_path):
        """Cut the log mid-record at every byte offset of the final
        record: replay must truncate cleanly, never raise, and land on
        the dataset of the surviving prefix."""
        rng = np.random.default_rng(41)
        ds = make_random_dataset(rng, 60, extent=90.0)
        session = QuerySession(ds)
        bundle = tmp_path / "b.idx"
        save_session(session, bundle)
        wal = session.attach_wal(tmp_path / "b.wal")
        session.append(_in_bounds_rows(rng, ds, 4))
        session.delete(_interior_delete(rng, session.dataset, 3))
        frames, good_end, torn, _ = _scan(wal.path)
        assert len(frames) == 2 and not torn
        last_start = good_end - (_FRAME.size + len(frames[-1][2]))
        blob = open(wal.path, "rb").read()

        # Reference for the one-surviving-record dataset: apply record 0.
        from repro.engine.updates import apply_update
        from repro.engine.wal import _decode_record

        one_record = load_session(bundle, ds)
        apply_update(one_record, _decode_record(frames[0][2], ds.schema), log=False)

        for cut in range(last_start + 1, len(blob)):
            path = tmp_path / "torn.wal"
            path.write_bytes(blob[:cut])
            victim = load_session(bundle, ds)
            stats = replay(victim, path)  # must not raise
            assert stats.applied == 1
            assert stats.truncated_bytes == cut - last_start
            assert os.path.getsize(path) == last_start  # cleanly truncated
            assert _same_dataset(victim.dataset, one_record.dataset)
            # A truncated-then-reopened log accepts new appends.
            cont = WriteAheadLog(path)
            cont.append(
                UpdateBatch(delete=np.array([0])),
                epoch=victim.epoch,
                pre_n=victim.dataset.n,
                schema=ds.schema,
            )
            assert len(cont.records(ds.schema)) == 2

    def test_corrupt_byte_in_tail_record_is_truncated(self, tmp_path):
        """A flipped bit in the last record fails its CRC and is
        dropped like a torn tail."""
        rng = np.random.default_rng(43)
        ds = make_random_dataset(rng, 40, extent=90.0)
        session = QuerySession(ds)
        bundle = tmp_path / "b.idx"
        save_session(session, bundle)
        wal = session.attach_wal(tmp_path / "b.wal")
        session.append(_in_bounds_rows(rng, ds, 3))
        blob = bytearray(open(wal.path, "rb").read())
        blob[-1] ^= 0xFF
        path = tmp_path / "corrupt.wal"
        path.write_bytes(bytes(blob))
        victim = load_session(bundle, ds)
        stats = replay(victim, path)
        assert stats.applied == 0 and stats.truncated_bytes > 0
        assert _same_dataset(victim.dataset, ds)

    def test_checkpoint_drops_torn_tail(self, tmp_path):
        rng = np.random.default_rng(44)
        ds = make_random_dataset(rng, 40, extent=90.0)
        session = QuerySession(ds)
        wal = session.attach_wal(tmp_path / "b.wal")
        session.append(_in_bounds_rows(rng, ds, 3))
        session.append(_in_bounds_rows(rng, session.dataset, 2))
        wal.close()
        with open(wal.path, "ab") as fh:
            fh.write(b"\x99" * 11)  # torn tail garbage
        fresh = WriteAheadLog(wal.path)
        assert fresh.checkpoint(1) == 1  # drops record 0 and the garbage
        frames, _, torn, _ = _scan(wal.path)
        assert len(frames) == 1 and not torn
        assert frames[0][0] == 1


class TestFailureAtomicity:
    def test_failed_apply_rolls_back_its_wal_record(self, tmp_path, monkeypatch):
        """An apply that dies after logging must remove its record:
        an orphan at that epoch would be replayed in place of the batch
        a retry successfully logs at the same epoch."""
        from repro.index.grid_index import GridIndex

        rng = np.random.default_rng(61)
        ds = make_random_dataset(rng, 80, extent=90.0)
        session = QuerySession(ds)
        session.solve(_queries(ds, random_aggregator(), k=1)[0])
        bundle = tmp_path / "b.idx"
        save_session(session, bundle)
        wal = session.attach_wal(tmp_path / "b.wal")

        doomed = _in_bounds_rows(rng, ds, 3)
        boom = RuntimeError("simulated failure mid-apply")

        def exploding(self, dataset, kept):
            raise boom

        monkeypatch.setattr(GridIndex, "updated", exploding)
        with pytest.raises(RuntimeError, match="mid-apply"):
            session.append(doomed)
        monkeypatch.undo()

        assert session.epoch == 0  # nothing committed...
        assert wal.records(ds.schema) == []  # ...and nothing logged
        # The retry (a different batch) logs cleanly at epoch 0, and
        # replay recovers the retry's state, not the doomed batch's.
        retry = _in_bounds_rows(rng, ds, 5)
        session.append(retry)
        restored = load_session(bundle, ds)
        stats = replay(restored, wal)
        assert stats.applied == 1
        assert _same_dataset(restored.dataset, session.dataset)

    def test_pool_refuses_wal_on_resident_walless_session(self):
        rng = np.random.default_rng(62)
        ds = make_random_dataset(rng, 30)
        pool = SessionPool()
        pool.session("k", ds)
        with pytest.raises(ValueError, match="already resident without"):
            pool.session("k", wal="/tmp/ignored.wal")

    def test_two_failed_applies_leave_no_orphans(self, tmp_path):
        """Regression: rollback used to leave the append handle's
        position stale, so a second rollback truncated at the wrong
        offset and could zero-pad past (i.e. keep) the record it meant
        to remove.  Two consecutive failures, the second logging a
        *smaller* record, must leave an empty log.  The failure is
        injected between the log append and the swap (an update's
        derivation runs before it logs anything)."""
        from repro import faults

        rng = np.random.default_rng(63)
        ds = make_random_dataset(rng, 60, extent=90.0)
        session = QuerySession(ds)
        session.solve(_queries(ds, random_aggregator(), k=1)[0])
        wal = session.attach_wal(tmp_path / "b.wal")

        faults.enable("update.post-log", "raise")
        try:
            big = _in_bounds_rows(rng, ds, 40)  # large record
            with pytest.raises(faults.FailpointError):
                session.append(big)
            with pytest.raises(faults.FailpointError):
                session.delete(np.array([1]))  # much smaller record
        finally:
            faults.disable("update.post-log")
        assert wal.records(ds.schema) == []
        frames, _, torn, _ = _scan(wal.path)
        assert frames == [] and not torn
        # The log still accepts and replays a clean retry.
        session.delete(np.array([2]))
        assert [e for e, _, _ in wal.records(ds.schema)] == [0]

    def test_failed_derivation_logs_nothing(self, tmp_path, monkeypatch):
        """An update derives its new state before it logs: when the
        derivation raises, no record is written and the session is
        untouched, so a retry logs at the same epoch."""
        from repro.index.grid_index import GridIndex

        rng = np.random.default_rng(65)
        ds = make_random_dataset(rng, 60, extent=90.0)
        session = QuerySession(ds)
        session.solve(_queries(ds, random_aggregator(), k=1)[0])
        wal = session.attach_wal(tmp_path / "b.wal")

        def exploding(self, dataset, kept):
            raise RuntimeError("boom")

        monkeypatch.setattr(GridIndex, "updated", exploding)
        with pytest.raises(RuntimeError, match="boom"):
            session.delete(np.array([1]))
        monkeypatch.undo()
        assert session.epoch == 0 and session.dataset is ds
        assert wal.state()["records"] == 0
        session.delete(np.array([1]))
        assert [e for e, _, _ in wal.records(ds.schema)] == [0]

    def test_checkpointed_empty_log_fails_closed_on_old_bundle(self, tmp_path):
        """Regression: a checkpoint that empties the log must still
        refuse an older bundle -- silently replaying zero records would
        serve pre-update state as if it were current."""
        rng = np.random.default_rng(64)
        ds = make_random_dataset(rng, 50, extent=90.0)
        session = QuerySession(ds)
        old_bundle = tmp_path / "old.idx"
        save_session(session, old_bundle)
        wal = session.attach_wal(tmp_path / "b.wal")
        session.append(_in_bounds_rows(rng, ds, 4))
        new_bundle = tmp_path / "new.idx"
        save_session(session, new_bundle)  # checkpoint empties the log
        assert wal.records(ds.schema) == []
        stale = load_session(old_bundle, ds)
        with pytest.raises(ValueError, match="checkpointed at epoch 1"):
            replay(stale, wal)
        # The checkpoint-matching pair still replays (trivially).
        fresh = load_session(new_bundle, session.dataset)
        assert replay(fresh, wal).applied == 0

    def test_append_after_torn_tail_repairs_first(self, tmp_path):
        """Regression: reopening a torn log for append used to write
        past the garbage, making every new record unreplayable."""
        rng = np.random.default_rng(65)
        ds = make_random_dataset(rng, 50, extent=90.0)
        session = QuerySession(ds)
        bundle = tmp_path / "b.idx"
        save_session(session, bundle)
        wal = session.attach_wal(tmp_path / "b.wal")
        session.append(_in_bounds_rows(rng, ds, 3))
        wal.close()
        with open(wal.path, "ab") as fh:
            fh.write(b"\x7f" * 13)  # crash mid-append left a torn tail
        # A restarted server attaches a fresh log object and keeps
        # logging; the torn tail must be repaired before the append.
        session.wal = None
        session.attach_wal(WriteAheadLog(wal.path))
        session.delete(np.array([1]))
        restored = load_session(bundle, ds)
        stats = replay(restored, wal.path)
        assert stats.applied == 2  # both records, none lost to garbage
        assert stats.truncated_bytes == 0
        assert _same_dataset(restored.dataset, session.dataset)

    def test_append_without_replay_fails_instead_of_shadowing(self, tmp_path):
        """Regression: attaching a non-empty log to a fresh session and
        mutating WITHOUT replaying first would log a shadow epoch-0
        record; recovery would then apply the old record and silently
        drop the new one.  The append must refuse instead."""
        rng = np.random.default_rng(66)
        ds = make_random_dataset(rng, 50, extent=90.0)
        session = QuerySession(ds)
        wal = session.attach_wal(tmp_path / "b.wal")
        session.append(_in_bounds_rows(rng, ds, 3))
        assert session.epoch == 1

        amnesiac = QuerySession(ds)  # restart that forgot to replay
        amnesiac.attach_wal(WriteAheadLog(wal.path))
        with pytest.raises(ValueError, match="log head expects epoch 1"):
            amnesiac.append(_in_bounds_rows(rng, ds, 2))
        assert amnesiac.epoch == 0  # nothing applied either
        assert len(wal.records(ds.schema)) == 1  # nothing shadow-logged
        # Replay first, then mutation proceeds and logs at the head.
        recovered = QuerySession(ds)
        recovered.attach_wal(WriteAheadLog(wal.path))
        replay(recovered, wal.path)
        recovered.append(_in_bounds_rows(rng, recovered.dataset, 2))
        assert [e for e, _, _ in wal.records(ds.schema)] == [0, 1]

    def test_fresh_wal_adopts_restored_session_epoch(self, tmp_path):
        """A brand-new log attached to a session restored from an
        epoch>0 bundle must adopt that epoch as its baseline, not
        refuse the first mutation."""
        rng = np.random.default_rng(67)
        ds = make_random_dataset(rng, 60, extent=90.0)
        session = QuerySession(ds)
        session.append(_in_bounds_rows(rng, ds, 3))  # epoch 1, unlogged
        bundle = tmp_path / "b.idx"
        save_session(session, bundle)
        baseline = session.dataset

        restored = load_session(bundle, baseline)
        assert restored.epoch == 1
        wal = restored.attach_wal(tmp_path / "fresh.wal")
        restored.delete(np.array([4]))  # must adopt baseline epoch 1
        assert [e for e, _, _ in wal.records(ds.schema)] == [1]
        # The adopted baseline fails closed for an older lineage: a
        # cold epoch-0 session cannot replay this log.
        cold = QuerySession(baseline)
        with pytest.raises(ValueError, match="epoch 1 but the session"):
            replay(cold, wal)
        # And the matching bundle replays to the live state.
        recovered = load_session(bundle, baseline)
        replay(recovered, wal)
        assert _same_dataset(recovered.dataset, restored.dataset)
