"""Incremental dataset updates: append/delete/apply on a warm session.

The contract under test (DESIGN.md §9): after any sequence of updates,
a session's answers are **bitwise-identical** to a cold
:class:`~repro.engine.QuerySession` built on the final dataset at the
same granularity and settings -- while the warm path patches state
instead of rebuilding it.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ASRSQuery, SpatialDataset
from repro.engine import QuerySession, SessionPool, UpdateBatch
from repro.index.grid_index import GridIndex

from .conftest import make_random_dataset, random_aggregator


def _queries(ds, agg, k=4, seed=99):
    rng = np.random.default_rng(seed)
    dim = agg.dim(ds)
    out = []
    for _ in range(k):
        rep = rng.uniform(0, 4, size=dim)
        weights = np.round(rng.uniform(0.1, 2.0, size=dim), 3)
        out.append(ASRSQuery.from_vector(12.0, 9.0, agg, rep, weights=weights))
    return out


def _in_bounds_rows(rng, ds, n):
    """Rows inside ds's bounding box (keeps the incremental index path)."""
    raw = make_random_dataset(rng, n, extent=90.0)
    b = ds.bounds()
    return SpatialDataset(
        np.clip(raw.xs, b.x_min, b.x_max),
        np.clip(raw.ys, b.y_min, b.y_max),
        ds.schema,
        {name: raw.column(name) for name in ds.schema.names},
    )


def _interior_delete(rng, ds, n):
    """Row indices to delete that do not define the bounding box."""
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


def _assert_matches_cold(session, queries):
    cold = QuerySession(
        session.dataset,
        granularity=session.granularity,
        settings=session.settings,
    )
    for query in queries:
        assert _identical(session.solve(query), cold.solve(query))
        assert _identical(
            session.solve(query, method="ds"), cold.solve(query, method="ds")
        )


class TestDatasetMutation:
    def test_append_rows(self):
        rng = np.random.default_rng(0)
        ds = make_random_dataset(rng, 30, extent=50.0)
        extra = make_random_dataset(rng, 5, extent=50.0)
        grown = ds.append(extra)
        assert grown.n == 35
        np.testing.assert_array_equal(grown.xs[:30], ds.xs)
        np.testing.assert_array_equal(grown.xs[30:], extra.xs)
        np.testing.assert_array_equal(
            grown.column("kind")[30:], extra.column("kind")
        )

    def test_append_schema_mismatch_raises(self):
        rng = np.random.default_rng(0)
        ds = make_random_dataset(rng, 10)
        other = make_random_dataset(rng, 3, n_categories=5)
        with pytest.raises(ValueError, match="schema"):
            ds.append(other)

    def test_delete_by_indices_and_mask(self):
        rng = np.random.default_rng(1)
        ds = make_random_dataset(rng, 20)
        by_idx = ds.delete(np.array([0, 5, 19]))
        mask = np.zeros(20, dtype=bool)
        mask[[0, 5, 19]] = True
        by_mask = ds.delete(mask)
        assert by_idx.n == by_mask.n == 17
        np.testing.assert_array_equal(by_idx.xs, by_mask.xs)
        # Relative order of survivors is preserved.
        np.testing.assert_array_equal(by_idx.xs, ds.xs[~mask])

    def test_delete_validation(self):
        rng = np.random.default_rng(2)
        ds = make_random_dataset(rng, 8)
        with pytest.raises(IndexError):
            ds.delete(np.array([8]))
        with pytest.raises(ValueError):
            ds.delete(np.zeros(5, dtype=bool))

    def test_append_records(self):
        rng = np.random.default_rng(3)
        ds = make_random_dataset(rng, 4)
        grown = ds.append_records([(1.0, 2.0, {"kind": "k1", "score": 0.5})])
        assert grown.n == 5
        assert grown.object_at(4).attributes["kind"] == "k1"


class TestGridIndexUpdated:
    def test_bitwise_identical_to_cold_build(self):
        rng = np.random.default_rng(7)
        ds = make_random_dataset(rng, 300, extent=80.0)
        index = GridIndex.build(ds, 11, 9)
        dele = _interior_delete(rng, ds, 15)
        kept = np.setdiff1d(np.arange(ds.n), dele)
        new_ds = ds.subset(kept).append(_in_bounds_rows(rng, ds, 25))
        patched = index.updated(new_ds, kept)
        assert patched is not None
        new_index, dirty = patched
        cold = GridIndex.build(new_ds, 11, 9)
        assert 0 < dirty.size < index.n_cells
        np.testing.assert_array_equal(new_index._obj_col, cold._obj_col)
        np.testing.assert_array_equal(new_index._obj_row, cold._obj_row)
        for name in ("kind",):
            assert np.array_equal(
                new_index.categorical_table(name), cold.categorical_table(name)
            )
        for name in ("score",):
            assert np.array_equal(
                new_index.numeric_table(name), cold.numeric_table(name)
            )

    def test_bounds_change_returns_none(self):
        rng = np.random.default_rng(8)
        ds = make_random_dataset(rng, 50, extent=40.0)
        index = GridIndex.build(ds, 4, 4)
        b = ds.bounds()
        outside = SpatialDataset(
            np.array([b.x_max + 10.0]),
            np.array([b.y_max + 10.0]),
            ds.schema,
            {"kind": np.array([0]), "score": np.array([1.0])},
        )
        assert index.updated(ds.append(outside), np.arange(ds.n)) is None
        # Deleting a bounds-defining row also falls back.
        corner = int(np.argmax(ds.xs))
        kept = np.setdiff1d(np.arange(ds.n), [corner])
        assert index.updated(ds.subset(kept), kept) is None

    def test_empty_dataset_returns_none(self):
        rng = np.random.default_rng(9)
        ds = make_random_dataset(rng, 10)
        index = GridIndex.build(ds, 3, 3)
        assert index.updated(ds.subset(np.array([], dtype=int)), np.array([], dtype=int)) is None


class TestSessionUpdates:
    def test_epoch_and_stats(self):
        rng = np.random.default_rng(10)
        ds = make_random_dataset(rng, 200, extent=90.0)
        agg = random_aggregator()
        session = QuerySession(ds)
        queries = _queries(ds, agg)
        for query in queries:
            session.solve(query)
        assert session.epoch == 0
        stats = session.apply(
            UpdateBatch(
                append=_in_bounds_rows(rng, ds, 12),
                delete=_interior_delete(rng, ds, 8),
            )
        )
        assert session.epoch == 1
        assert stats.epoch == 1
        assert stats.appended == 12 and stats.deleted == 8
        assert stats.index_patched
        assert stats.dirty_cells > 0
        assert stats.tables_patched >= 1
        assert stats.reductions_patched >= 1
        # A localized update keeps most warm level-0 cell entries.
        assert stats.cell_entries_kept > 0

    def test_noop_update_does_not_bump_epoch(self):
        rng = np.random.default_rng(11)
        ds = make_random_dataset(rng, 30)
        session = QuerySession(ds)
        stats = session.apply(UpdateBatch())
        assert stats.epoch == 0 and session.epoch == 0
        stats = session.delete(np.array([], dtype=int))
        assert session.epoch == 0

    def test_append_then_solve_matches_cold_rebuild(self):
        rng = np.random.default_rng(12)
        ds = make_random_dataset(rng, 150, extent=90.0)
        agg = random_aggregator()
        session = QuerySession(ds)
        queries = _queries(ds, agg)
        for query in queries:
            session.solve(query)
        session.append(_in_bounds_rows(rng, ds, 20))
        _assert_matches_cold(session, queries)

    def test_delete_then_solve_matches_cold_rebuild(self):
        rng = np.random.default_rng(13)
        ds = make_random_dataset(rng, 150, extent=90.0)
        agg = random_aggregator()
        session = QuerySession(ds)
        queries = _queries(ds, agg)
        for query in queries:
            session.solve(query)
        session.delete(_interior_delete(rng, ds, 20))
        _assert_matches_cold(session, queries)

    def test_bounds_changing_update_matches_cold_rebuild(self):
        rng = np.random.default_rng(14)
        ds = make_random_dataset(rng, 100, extent=60.0)
        agg = random_aggregator()
        session = QuerySession(ds)
        queries = _queries(ds, agg)
        for query in queries:
            session.solve(query)
        b = ds.bounds()
        outside = SpatialDataset(
            np.array([b.x_max + 25.0, b.x_min - 5.0]),
            np.array([b.y_max + 3.0, b.y_min - 7.0]),
            ds.schema,
            {"kind": np.array([0, 1]), "score": np.array([1.0, -2.0])},
        )
        stats = session.append(outside)
        assert not stats.index_patched  # geometry shifted: cold fallback
        _assert_matches_cold(session, queries)

    def test_delete_to_empty_and_grow_back(self):
        rng = np.random.default_rng(15)
        ds = make_random_dataset(rng, 40, extent=50.0)
        agg = random_aggregator()
        session = QuerySession(ds)
        queries = _queries(ds, agg)
        session.solve(queries[0])
        session.delete(np.ones(ds.n, dtype=bool))
        assert session.dataset.n == 0
        empty_result = session.solve(queries[0])
        assert empty_result.distance == pytest.approx(
            queries[0].distance_to(agg.empty_representation(session.dataset))
        )
        session.append(ds)
        _assert_matches_cold(session, queries)

    def test_update_batch_from_records(self):
        rng = np.random.default_rng(16)
        ds = make_random_dataset(rng, 25)
        session = QuerySession(ds)
        stats = session.apply(
            UpdateBatch(append=[(1.0, 1.0, {"kind": "k0", "score": 2.0})])
        )
        assert stats.appended == 1
        assert session.dataset.n == 26

    def test_threaded_solves_after_update(self):
        rng = np.random.default_rng(17)
        ds = make_random_dataset(rng, 150, extent=90.0)
        agg = random_aggregator()
        session = QuerySession(ds)
        queries = _queries(ds, agg, k=6)
        session.solve_batch(queries)
        session.apply(
            UpdateBatch(
                append=_in_bounds_rows(rng, ds, 10),
                delete=_interior_delete(rng, ds, 10),
            )
        )
        with ThreadPoolExecutor(max_workers=4) as ex:
            parallel = list(ex.map(session.solve, queries))
        cold = QuerySession(
            session.dataset,
            granularity=session.granularity,
            settings=session.settings,
        ).solve_batch(queries)
        for p, c in zip(parallel, cold):
            assert _identical(p, c)

    def test_cache_nbytes_reaccounts_after_update(self):
        rng = np.random.default_rng(18)
        ds = make_random_dataset(rng, 200, extent=90.0)
        agg = random_aggregator()
        session = QuerySession(ds)
        for query in _queries(ds, agg):
            session.solve(query)
        before = session.cache_nbytes()
        assert before > 0
        session.append(_in_bounds_rows(rng, ds, 30))
        after = session.cache_nbytes()
        assert after > 0
        # Weight matrices and rect sets grew with the rows.
        assert after != before

    def test_bound_context_moving_append_refreshes_lattices(self):
        """Average-term bounds read the bound-context extremes at every
        lattice position.  An append that moves the selected max
        re-derives the cached lattice with the new context like any
        update, bit for bit a cold session's, and answers like one."""
        rng = np.random.default_rng(51)
        agg = random_aggregator(with_avg=True)
        ds = make_random_dataset(rng, 250, extent=90.0)
        session = QuerySession(ds)
        for query in _queries(ds, agg):
            session.solve(query)
        b = ds.bounds()
        spike = SpatialDataset(
            np.array([(b.x_min + b.x_max) / 2.0]),
            np.array([(b.y_min + b.y_max) / 2.0]),
            ds.schema,
            {"kind": np.array([0]), "score": np.array([999.0])},
        )
        stats = session.append(spike)  # k0 max score moves
        assert stats.index_patched
        assert stats.lattices_refreshed >= 1 and stats.lattices_dropped == 0
        cold = QuerySession(
            session.dataset,
            granularity=session.granularity,
            settings=session.settings,
        )
        for (width, height, _), lattice in session._lattices.items():
            want = cold.lattice_for(width, height, cold.compiler_for(agg))
            for got, expected in zip(lattice, want):
                np.testing.assert_array_equal(got, expected)
        _assert_matches_cold(session, _queries(session.dataset, agg, k=1))

    def test_rederived_lattice_bitwise_equal_cold(self):
        """The update re-derives the lattice from the patched channel
        table and the kept geometry, bit for bit a cold session's
        intervals, and the next solve uses it as is."""
        rng = np.random.default_rng(50)
        agg = random_aggregator()
        ds = make_random_dataset(rng, 250, extent=90.0)
        session = QuerySession(ds)
        queries = _queries(ds, agg)
        for query in queries:
            session.solve(query)
        stats = session.apply(
            UpdateBatch(
                append=_in_bounds_rows(rng, ds, 6),
                delete=_interior_delete(rng, ds, 6),
            )
        )
        assert stats.index_patched
        assert (stats.lattices_refreshed, stats.lattices_dropped) == (1, 0)
        ((width, height, _), rederived), = session._lattices.items()
        session.solve(queries[0])
        assert next(iter(session._lattices.values())) is rederived
        cold = QuerySession(
            session.dataset,
            granularity=session.granularity,
            settings=session.settings,
        )
        want = cold.lattice_for(width, height, cold.compiler_for(agg))
        for got, expected in zip(rederived, want):
            np.testing.assert_array_equal(got, expected)

    def test_lattice_patch_stats_stay_zero(self):
        """No update patches a lattice in place, so lattices_patched and
        lattice_positions_refreshed read 0 while the refresh is counted
        (the serve benchmark's trace bootstrap reads both fields)."""
        rng = np.random.default_rng(52)
        agg = random_aggregator()
        ds = make_random_dataset(rng, 200, extent=90.0)
        session = QuerySession(ds)
        for query in _queries(ds, agg):
            session.solve(query)
        stats = session.append(_in_bounds_rows(rng, ds, 5))
        assert stats.index_patched
        assert stats.lattices_refreshed == 1
        assert stats.lattices_patched == 0
        assert stats.lattice_positions_refreshed == 0

    def test_apply_update_takes_only_log_keyword(self, tmp_path):
        """``log`` is apply_update's one option: ``log=False`` (what WAL
        replay passes) applies the batch without writing a record."""
        import inspect

        from repro.engine.updates import apply_update

        params = list(inspect.signature(apply_update).parameters.values())
        assert [p.name for p in params if p.kind is p.KEYWORD_ONLY] == ["log"]
        assert not any(p.kind is p.VAR_KEYWORD for p in params)
        rng = np.random.default_rng(54)
        ds = make_random_dataset(rng, 30)
        session = QuerySession(ds)
        wal = session.attach_wal(tmp_path / "updates.wal")
        stats = apply_update(session, UpdateBatch(delete=np.array([0])), log=False)
        assert stats.deleted == 1 and not stats.wal_logged
        assert session.epoch == 1 and session.dataset.n == ds.n - 1
        assert wal.state()["records"] == 0

    def test_in_bounds_update_keeps_lattice_geometry(self, monkeypatch):
        """An in-bounds update preserves the index geometry, so the
        cached lattice geometry survives it: the refresh re-sums the
        ranges and never recomputes the corners."""
        import repro.engine.session as session_module

        rng = np.random.default_rng(55)
        agg = random_aggregator()
        ds = make_random_dataset(rng, 200, extent=90.0)
        session = QuerySession(ds)
        queries = _queries(ds, agg)
        for query in queries:
            session.solve(query)
        geometry = dict(session._lattice_geometry)
        assert geometry
        stats = session.delete(_interior_delete(rng, ds, 10))
        assert stats.index_patched
        for key, value in geometry.items():
            assert session._lattice_geometry[key] is value

        calls = []
        original = session_module.candidate_lattice_geometry

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(session_module, "candidate_lattice_geometry", counting)
        for query in queries:
            session.solve(query)
        assert calls == []
        monkeypatch.undo()
        _assert_matches_cold(session, queries)

    def test_bounds_changing_update_drops_lattice_geometry(self):
        """A cold index rebuild may move the grid, so the cached lattice
        geometry goes with it and is recomputed on the next solve."""
        rng = np.random.default_rng(56)
        ds = make_random_dataset(rng, 100, extent=60.0)
        agg = random_aggregator()
        session = QuerySession(ds)
        queries = _queries(ds, agg)
        for query in queries:
            session.solve(query)
        assert session._lattice_geometry
        b = ds.bounds()
        outside = SpatialDataset(
            np.array([b.x_max + 25.0]),
            np.array([b.y_min - 7.0]),
            ds.schema,
            {"kind": np.array([1]), "score": np.array([0.5])},
        )
        stats = session.append(outside)
        assert not stats.index_patched
        assert not session._lattice_geometry
        _assert_matches_cold(session, queries)

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_ops=st.integers(1, 4))
    def test_interleaved_updates_match_fresh_session(self, seed, n_ops):
        """Any append/delete/solve interleaving ends bitwise-identical
        to a fresh session built on the final dataset."""
        rng = np.random.default_rng(seed)
        ds = make_random_dataset(rng, int(rng.integers(20, 60)), extent=60.0)
        agg = random_aggregator()
        session = QuerySession(ds)
        queries = _queries(ds, agg, k=2, seed=seed % 1000)
        session.solve(queries[0])
        for _ in range(n_ops):
            op = rng.integers(0, 3)
            if op == 0 and session.dataset.n:
                k = int(rng.integers(1, max(2, session.dataset.n // 4)))
                idx = rng.choice(session.dataset.n, size=k, replace=False)
                session.delete(np.sort(idx))
            elif op == 1:
                session.append(
                    make_random_dataset(rng, int(rng.integers(1, 10)), extent=60.0)
                )
            else:
                session.solve(queries[int(rng.integers(0, len(queries)))])
        cold = QuerySession(
            session.dataset,
            granularity=session.granularity,
            settings=session.settings,
        )
        for query in queries:
            assert _identical(session.solve(query), cold.solve(query))


class TestPoolUpdates:
    def test_pool_apply_reaccounts_budget(self):
        rng = np.random.default_rng(20)
        ds = make_random_dataset(rng, 150, extent=90.0)
        agg = random_aggregator()
        pool = SessionPool(max_bytes=None)
        queries = _queries(ds, agg)
        pool.session("a", ds).solve(queries[0])
        pool.reaccount("a")
        before = pool.info()["bytes"]
        stats = pool.append("a", _in_bounds_rows(rng, ds, 20))
        assert stats.appended == 20
        # The measurement cache was refreshed by the apply itself.
        assert pool.info()["bytes"] != before

    def test_eviction_then_update_then_readmission(self):
        """A session evicted (caches cleared) still updates correctly and
        re-warms to answers identical to a fresh session."""
        rng = np.random.default_rng(21)
        ds_a = make_random_dataset(rng, 120, extent=90.0)
        ds_b = make_random_dataset(rng, 120, extent=90.0)
        agg = random_aggregator()
        queries = _queries(ds_a, agg)
        pool = SessionPool(max_sessions=1)
        session_a = pool.session("a", ds_a)
        session_a.solve(queries[0])
        pool.reaccount("a")
        pool.session("b", ds_b).solve(queries[0])
        pool.reaccount("b")  # evicts "a", clears its caches
        assert "a" not in pool
        assert not session_a.cache_info()["index_built"]
        # Update the evicted (cold) session, then re-admit and solve.
        session_a.apply(
            UpdateBatch(
                append=_in_bounds_rows(rng, ds_a, 15),
                delete=_interior_delete(rng, ds_a, 10),
            )
        )
        assert session_a.epoch == 1
        readmitted = pool.session("a", session_a.dataset)
        results = [readmitted.solve(q) for q in queries]
        cold = QuerySession(
            session_a.dataset,
            granularity=session_a.granularity,
            settings=session_a.settings,
        )
        for got, query in zip(results, queries):
            assert _identical(got, cold.solve(query))


class TestConcurrentUpdates:
    def test_update_gate_serializes_with_solves(self):
        """Updates racing a parallel batch never produce a torn answer:
        every result equals the pre- or post-update answer."""
        import threading

        rng = np.random.default_rng(22)
        ds = make_random_dataset(rng, 120, extent=90.0)
        agg = random_aggregator()
        session = QuerySession(ds)
        queries = _queries(ds, agg, k=8)
        before = [session.solve(q) for q in queries]

        extra = _in_bounds_rows(rng, ds, 15)
        results = {}

        def run_batch():
            with ThreadPoolExecutor(max_workers=3) as ex:
                results["batch"] = list(ex.map(session.solve, queries))

        worker = threading.Thread(target=run_batch)
        worker.start()
        session.append(extra)
        worker.join()

        after_session = QuerySession(
            session.dataset,
            granularity=session.granularity,
            settings=session.settings,
        )
        after = [after_session.solve(q) for q in queries]
        for got, pre, post in zip(results["batch"], before, after):
            assert _identical(got, pre) or _identical(got, post)
        # And the session itself now answers post-update.
        for query, post in zip(queries, after):
            assert _identical(session.solve(query), post)

    def test_query_runs_beside_an_update_derivation(self, monkeypatch):
        """An update derives its new state holding the gate shared: a
        query issued while the derivation is parked completes, with the
        pre-update answer, and the update commits after it."""
        import threading

        import repro.engine.updates as updates_module

        rng = np.random.default_rng(23)
        ds = make_random_dataset(rng, 120, extent=90.0)
        agg = random_aggregator()
        session = QuerySession(ds)
        query = _queries(ds, agg, k=1)[0]
        before = session.solve(query)

        parked, release = threading.Event(), threading.Event()
        real = updates_module.candidate_lattice_intervals

        def parking(*args, **kwargs):
            parked.set()
            assert release.wait(10)
            return real(*args, **kwargs)

        monkeypatch.setattr(updates_module, "candidate_lattice_intervals", parking)
        results = {}
        updater = threading.Thread(
            target=lambda: results.update(
                stats=session.append(_in_bounds_rows(rng, ds, 5))
            )
        )
        updater.start()
        try:
            assert parked.wait(10)
            during = session.solve(query)  # would deadlock if the gate were held
            assert session.epoch == 0
        finally:
            release.set()
            updater.join(10)
        assert not updater.is_alive()
        assert _identical(during, before)
        assert results["stats"].epoch == 1 and session.epoch == 1
        _assert_matches_cold(session, [query])

    def test_concurrent_updates_both_land(self):
        """Two updates deriving at once from the same state: the one that
        commits second derives again, so neither is lost."""
        import threading

        rng = np.random.default_rng(24)
        ds = make_random_dataset(rng, 150, extent=90.0)
        session = QuerySession(ds)
        agg = random_aggregator()
        session.solve(_queries(ds, agg, k=1)[0])
        first, second = _in_bounds_rows(rng, ds, 4), _in_bounds_rows(rng, ds, 6)
        barrier = threading.Barrier(2)

        def run(rows):
            barrier.wait(10)
            session.append(rows)

        threads = [threading.Thread(target=run, args=(r,)) for r in (first, second)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10)
        assert not any(t.is_alive() for t in threads)
        assert session.epoch == 2 and session.dataset.n == ds.n + 10
        appended = session.dataset.xs[ds.n :]
        assert any(
            np.array_equal(appended, np.concatenate([a.xs, b.xs]))
            for a, b in ((first, second), (second, first))
        )
        _assert_matches_cold(session, _queries(session.dataset, agg, k=2))
