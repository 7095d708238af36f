"""Tests for session persistence (engine/persist.py, DESIGN.md §8.3).

The contract: a ``load_session``-warmed session answers queries
bitwise-identically to the saved session and to the cold paths, never
pays the index build again, and refuses to serve a dataset it was not
built over.
"""

import json
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ASRSQuery, CompositeAggregator, SpatialDataset, SumAggregator
from repro.core.selection import SelectByValue, SelectWhere
from repro.dssearch import SearchSettings
from repro.engine import (
    QuerySession,
    aggregator_signature,
    load_session,
    save_session,
)
from repro.engine.persist import FORMAT_VERSION, dataset_fingerprint
from repro.index import gi_ds_search

from .conftest import make_random_dataset, random_aggregator

SMALL = SearchSettings(ncol=6, nrow=6, max_depth=16)


def _same_result(a, b) -> bool:
    return (
        a.region == b.region
        and a.distance == b.distance
        and np.array_equal(a.representation, b.representation)
    )


def _instance(seed: int, n: int):
    rng = np.random.default_rng(seed)
    dataset = make_random_dataset(rng, n, extent=60.0)
    aggregator = random_aggregator()
    dim = aggregator.dim(dataset)
    queries = [
        ASRSQuery.from_vector(13.0, 9.0, aggregator, rng.uniform(0, 4, dim))
        for _ in range(3)
    ]
    return dataset, aggregator, queries


class TestRoundTrip:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 50))
    def test_roundtrip_bitwise_identical(self, seed, n, tmp_path_factory):
        dataset, aggregator, queries = _instance(seed, n)
        session = QuerySession(dataset, settings=SMALL)
        expected = session.solve_batch(queries)

        path = tmp_path_factory.mktemp("persist") / "session.idx"
        save_session(session, path)
        restored = load_session(path, dataset)
        for want, got in zip(expected, restored.solve_batch(queries)):
            assert _same_result(want, got)

    def test_load_skips_cold_build_and_adopts_artefacts(self, tmp_path):
        dataset, aggregator, queries = _instance(5, 60)
        session = QuerySession(dataset, settings=SMALL)
        session.warm_for(queries[0])
        path = tmp_path / "session.idx"
        save_session(session, path)

        restored = load_session(path, dataset)
        info = restored.cache_info()
        assert info["index_built"]  # restored, not rebuilt
        assert info["reductions"] == 1
        assert len(restored._pending_tables) == 1
        assert len(restored._pending_lattices) == 1

        # The restored index must be the saved one, array for array.
        np.testing.assert_array_equal(restored.index.xs, session.index.xs)
        assert restored.index.sx == session.index.sx
        assert restored.granularity == session.granularity
        assert restored.settings == session.settings

        # Solving with a structurally equal aggregator *object* adopts
        # the persisted suffix table and lattice instead of recomputing.
        restored.solve(queries[0])
        info = restored.cache_info()
        table_id = id(restored.compiler_for(queries[0].aggregator))
        sig = aggregator_signature(aggregator)
        assert restored._tables[table_id] is restored._pending_tables[sig]

    def test_loaded_matches_cold_path(self, tmp_path):
        dataset, aggregator, queries = _instance(7, 40)
        session = QuerySession(dataset, settings=SMALL)
        session.solve_batch(queries)
        path = tmp_path / "session.idx"
        save_session(session, path)
        restored = load_session(path, dataset)
        for query in queries:
            cold = gi_ds_search(
                dataset,
                query,
                granularity=restored.granularity,
                settings=SMALL,
            )
            assert _same_result(cold, restored.solve(query))

    def test_adoption_does_not_double_count_bytes(self, tmp_path):
        """Adopted pending artefacts alias the id-keyed entries; the
        byte accounting must count each array once (SessionPool budgets
        depend on it)."""
        dataset, aggregator, queries = _instance(21, 50)
        session = QuerySession(dataset, settings=SMALL)
        session.warm_for(queries[0])
        path = tmp_path / "session.idx"
        save_session(session, path)
        restored = load_session(path, dataset)
        restored.solve(queries[0])  # adopts the pending table + lattice
        sig = aggregator_signature(aggregator)
        compiler = restored.compiler_for(queries[0].aggregator)
        assert restored._tables[id(compiler)] is restored._pending_tables[sig]
        with_alias = restored.cache_nbytes()
        # Dropping the pending references removes only aliases of the
        # adopted arrays -- a dedup-correct measurement cannot change.
        restored._pending_tables.clear()
        restored._pending_lattices.clear()
        assert restored.cache_nbytes() == with_alias

    def test_save_overwrites_atomically(self, tmp_path):
        """Re-saving over an existing bundle must leave a loadable file
        and no temp droppings."""
        dataset, aggregator, queries = _instance(23, 20)
        session = QuerySession(dataset, settings=SMALL)
        path = tmp_path / "session.idx"
        save_session(session, path)
        session.warm_for(queries[0])
        save_session(session, path)  # overwrite in place
        restored = load_session(path, dataset)
        assert restored.cache_info()["index_built"]
        leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []

    def test_bundle_members_match_the_savez_compressed_layout(self, tmp_path):
        """Bundles are deflated at level 1 and hold, member for member,
        the bytes ``np.savez_compressed`` stores: re-zipped with it, a
        bundle still answers bitwise."""
        dataset, aggregator, queries = _instance(29, 60)
        session = QuerySession(dataset, settings=SMALL)
        expected = session.solve_batch(queries)
        path = tmp_path / "session.idx"
        save_session(session, path)
        with np.load(path, allow_pickle=False) as bundle:
            arrays = {name: bundle[name] for name in bundle.files}
        rezipped = tmp_path / "rezipped.idx"
        with open(rezipped, "wb") as fh:
            np.savez_compressed(fh, **arrays)
        with zipfile.ZipFile(path) as new, zipfile.ZipFile(rezipped) as old:
            infos = new.infolist()
            assert infos
            assert {info.compress_type for info in infos} == {zipfile.ZIP_DEFLATED}
            assert sorted(new.namelist()) == sorted(old.namelist())
            for name in new.namelist():
                assert new.read(name) == old.read(name), name
        restored = load_session(rezipped, dataset)
        for want, got in zip(expected, restored.solve_batch(queries)):
            assert _same_result(want, got)

    def test_unwarmed_session_roundtrip(self, tmp_path):
        dataset, aggregator, queries = _instance(9, 20)
        session = QuerySession(dataset, settings=SMALL)  # nothing warm
        path = tmp_path / "session.idx"
        save_session(session, path)
        restored = load_session(path, dataset)
        assert restored.cache_info()["index_built"] is False
        assert _same_result(
            restored.solve(queries[0]),
            QuerySession(dataset, settings=SMALL).solve(queries[0]),
        )

    def test_empty_dataset_roundtrip(self, tmp_path):
        dataset, aggregator, queries = _instance(11, 5)
        empty = dataset.subset(np.zeros(dataset.n, dtype=bool))
        session = QuerySession(empty, settings=SMALL)
        result = session.solve(queries[0])
        path = tmp_path / "session.idx"
        save_session(session, path)
        restored = load_session(path, empty)
        assert _same_result(result, restored.solve(queries[0]))

    def test_unsignaturable_aggregator_skipped_but_loadable(self, tmp_path):
        """Predicate selections have no stable signature: their
        artefacts are not persisted, and the loaded session simply
        recomputes them."""
        dataset, _, _ = _instance(13, 30)
        aggregator = CompositeAggregator(
            [SumAggregator("score", SelectWhere(lambda d: d.xs > 0, "x>0"))]
        )
        assert aggregator_signature(aggregator) is None
        query = ASRSQuery.from_vector(10.0, 10.0, aggregator, np.zeros(1))
        session = QuerySession(dataset, settings=SMALL)
        expected = session.solve(query)
        path = tmp_path / "session.idx"
        save_session(session, path)
        restored = load_session(path, dataset)
        assert not restored._pending_tables
        assert _same_result(expected, restored.solve(query))


class TestValidation:
    def test_wrong_dataset_rejected(self, tmp_path):
        dataset, _, _ = _instance(15, 30)
        other, _, _ = _instance(16, 30)
        session = QuerySession(dataset, settings=SMALL)
        path = tmp_path / "session.idx"
        save_session(session, path)
        with pytest.raises(ValueError, match="different dataset"):
            load_session(path, other)

    def test_non_bundle_npz_rejected(self, tmp_path):
        dataset, _, _ = _instance(25, 10)
        path = tmp_path / "not_a_bundle.npz"
        np.savez(path, some_array=np.arange(3))
        with pytest.raises(ValueError, match="not a session bundle"):
            load_session(path, dataset)

    def test_format_version_rejected(self, tmp_path):
        dataset, _, _ = _instance(17, 10)
        session = QuerySession(dataset, settings=SMALL)
        path = tmp_path / "session.idx"
        save_session(session, path)
        with np.load(path, allow_pickle=False) as bundle:
            meta = json.loads(str(bundle["meta"][()]))
            arrays = {name: bundle[name] for name in bundle.files}
        meta["format_version"] = FORMAT_VERSION + 1
        arrays["meta"] = np.array(json.dumps(meta))
        with open(path, "wb") as fh:
            np.savez_compressed(fh, **arrays)
        with pytest.raises(ValueError, match="format version"):
            load_session(path, dataset)

    def test_fingerprint_tracks_attribute_values(self):
        dataset, _, _ = _instance(19, 10)
        tweaked_columns = {
            name: dataset.column(name).copy() for name in dataset.schema.names
        }
        tweaked_columns["score"][0] += 1.0
        from repro.core import SpatialDataset

        tweaked = SpatialDataset(
            dataset.xs, dataset.ys, dataset.schema, tweaked_columns
        )
        assert dataset_fingerprint(dataset) != dataset_fingerprint(tweaked)


def _rewrite_bundle(path, mutate, drop_arrays=()):
    """Re-zip a bundle with ``np.savez_compressed`` after editing it.

    Members whose names start with a ``drop_arrays`` prefix are left
    out; ``mutate(meta, arrays)`` then edits the meta document and the
    member dict in place.
    """
    with np.load(path, allow_pickle=False) as bundle:
        meta = json.loads(str(bundle["meta"][()]))
        arrays = {
            name: bundle[name]
            for name in bundle.files
            if not any(name.startswith(p) for p in drop_arrays)
        }
    mutate(meta, arrays)
    arrays["meta"] = np.array(json.dumps(meta))
    with open(path, "wb") as fh:
        np.savez_compressed(fh, **arrays)


class TestFormatV2:
    """Dataset epochs and index cell sums (since v2), and the one
    readable format version."""

    def test_epoch_roundtrips(self, tmp_path):
        from repro.engine import UpdateBatch

        dataset, aggregator, queries = _instance(31, 60)
        session = QuerySession(dataset, settings=SMALL)
        session.solve_batch(queries)
        session.apply(UpdateBatch(delete=np.array([1, 2])))
        assert session.epoch == 1
        path = tmp_path / "session.idx"
        save_session(session, path)
        restored = load_session(path, session.dataset)
        assert restored.epoch == 1
        for query in queries:
            assert _same_result(restored.solve(query), session.solve(query))

    def test_stale_bundle_refused_after_mutation(self, tmp_path):
        """A bundle saved pre-update must not serve the mutated dataset."""
        dataset, aggregator, queries = _instance(32, 40)
        session = QuerySession(dataset, settings=SMALL)
        session.solve(queries[0])
        path = tmp_path / "session.idx"
        save_session(session, path)
        session.delete(np.array([0]))
        with pytest.raises(ValueError, match="epoch 0"):
            load_session(path, session.dataset)

    @pytest.mark.parametrize("version", [None, 0, 1, 2, 3, FORMAT_VERSION + 1])
    def test_other_versions_refused(self, version, tmp_path):
        """Only FORMAT_VERSION loads.  A missing or older version is
        told to rebuild with `repro index-build`; a newer one is also
        told to upgrade."""
        dataset, _, _ = _instance(34, 10)
        path = tmp_path / "session.idx"
        save_session(QuerySession(dataset, settings=SMALL), path)

        def set_version(meta, arrays):
            if version is None:
                del meta["format_version"]
            else:
                meta["format_version"] = version

        _rewrite_bundle(path, set_version)
        with pytest.raises(ValueError, match=f"format version {version};") as info:
            load_session(path, dataset)
        message = str(info.value)
        assert "`repro index-build`" in message
        if version is not None and version > FORMAT_VERSION:
            assert "written by a newer build -- upgrade" in message
        else:
            assert "written by an older build" in message

    def test_future_version_message_names_range(self, tmp_path):
        dataset, _, _ = _instance(34, 10)
        session = QuerySession(dataset, settings=SMALL)
        path = tmp_path / "session.idx"
        save_session(session, path)
        _rewrite_bundle(
            path,
            lambda meta, arrays: meta.update(format_version=FORMAT_VERSION + 5),
        )
        with pytest.raises(ValueError, match="written by a newer build") as info:
            load_session(path, dataset)
        assert f"reads version {FORMAT_VERSION} only" in str(info.value)

    @pytest.mark.parametrize("member", ["index_cat_cells_", "index_num_cells_"])
    def test_bundle_without_index_cell_sums_refused(self, member, tmp_path):
        dataset, _, queries = _instance(36, 40)
        session = QuerySession(dataset, settings=SMALL)
        session.solve(queries[0])
        path = tmp_path / "session.idx"
        save_session(session, path)
        _rewrite_bundle(path, lambda meta, arrays: None, drop_arrays=(member,))
        with pytest.raises(ValueError, match="incomplete index"):
            load_session(path, dataset)


class TestFormatV3:
    """Per-compiler table cell sums + rebuild recipes (since v3), so a
    restored session accepts updates with no cold channel-table rebuild."""

    def test_cells_and_recipe_roundtrip(self, tmp_path):
        dataset, aggregator, queries = _instance(41, 60)
        session = QuerySession(dataset, settings=SMALL)
        session.warm_for(queries[0])
        path = tmp_path / "session.idx"
        save_session(session, path)
        restored = load_session(path, dataset)
        sig = aggregator_signature(aggregator)
        assert sig in restored._pending_table_cells
        assert sig in restored._pending_recipes
        compiler = session.compiler_for(queries[0].aggregator)
        np.testing.assert_array_equal(
            restored._pending_table_cells[sig],
            session._table_cells[id(compiler)],
        )

    def test_recipe_reconstructs_equivalent_aggregator(self):
        from repro.engine import aggregator_recipe
        from repro.engine.session import aggregator_from_recipe

        aggregator = random_aggregator()
        recipe = aggregator_recipe(aggregator)
        assert recipe is not None
        rebuilt = aggregator_from_recipe(recipe)
        assert aggregator_signature(rebuilt) == aggregator_signature(aggregator)

    def test_unrecipeable_value_skips_recipe_but_loads(self, tmp_path):
        """A selection value JSON cannot carry is persisted without a
        recipe; the bundle round-trips, and an update on the restored
        session drops that table to the lazy cold path -- answers
        unaffected."""
        from repro.engine import aggregator_recipe

        aggregator = CompositeAggregator(
            [SumAggregator("score", SelectByValue("kind", ("k0",)))]
        )
        assert aggregator_signature(aggregator) is not None
        assert aggregator_recipe(aggregator) is None

        # A dataset whose domain contains the tuple value, so the
        # selection is valid end to end yet JSON cannot carry it.
        from repro.core import (
            CategoricalAttribute,
            NumericAttribute,
            Schema,
            SpatialDataset,
        )

        rng = np.random.default_rng(45)
        schema = Schema.of(
            CategoricalAttribute("kind", (("k0",), "k1")),
            NumericAttribute("score"),
        )
        n = 40
        dataset = SpatialDataset(
            np.round(rng.uniform(0, 60, n)),
            np.round(rng.uniform(0, 60, n)),
            schema,
            {
                "kind": rng.integers(0, 2, n),
                "score": np.round(rng.uniform(-5, 10, n), 3),
            },
        )
        query = ASRSQuery.from_vector(10.0, 10.0, aggregator, np.zeros(1))
        session = QuerySession(dataset, settings=SMALL)
        session.solve(query)
        path = tmp_path / "session.idx"
        save_session(session, path)

        restored = load_session(path, dataset)
        sig = aggregator_signature(aggregator)
        assert sig in restored._pending_tables
        assert sig not in restored._pending_recipes
        stats = restored.delete(np.array([3]))
        assert stats.pending_tables_patched == 0
        assert stats.pending_tables_dropped == 1
        cold = QuerySession(restored.dataset, settings=SMALL)
        assert _same_result(restored.solve(query), cold.solve(query))

    def test_restored_session_updates_without_cold_table_rebuild(self, tmp_path):
        """The acceptance contract: mutate a load_session-restored
        session before any aggregator adoption -- the pending channel
        table is patched from its persisted cell sums, and the first
        solve adopts it without ever calling the cold
        channel_cells_and_table path.  The pending lattices are dropped
        and re-derived from that table."""
        dataset, aggregator, queries = _instance(43, 80)
        session = QuerySession(dataset, settings=SMALL)
        session.solve_batch(queries)
        path = tmp_path / "session.idx"
        save_session(session, path)

        restored = load_session(path, dataset)
        n_pending = len(restored._pending_lattices)
        assert n_pending
        stats = restored.delete(np.array([5, 11, 17]))
        assert stats.index_patched
        assert stats.pending_tables_patched == 1
        assert stats.pending_tables_dropped == 0
        assert stats.lattices_dropped == n_pending
        assert not restored._pending_lattices

        calls = []
        original = type(restored.index).channel_cells_and_table

        def counting(self, compiler):
            calls.append(compiler)
            return original(self, compiler)

        import repro.index.grid_index as grid_index_module

        try:
            grid_index_module.GridIndex.channel_cells_and_table = counting
            results = restored.solve_batch(queries)
        finally:
            grid_index_module.GridIndex.channel_cells_and_table = original
        assert calls == []  # no cold channel-table rebuild
        cold = QuerySession(restored.dataset, settings=SMALL)
        for got, want in zip(results, cold.solve_batch(queries)):
            assert _same_result(got, want)


class TestFormatV4:
    """Lattice intervals persist without their range sums; bundles that
    also carry them (``has_sums`` and ``lat_*_full``/``lat_*_over``,
    as earlier v4 writers emitted) load the same."""

    def _in_bounds_append(self, dataset, n=3):
        """Rows inside the dataset's bounds: the index is patched, not
        rebuilt."""
        b = dataset.bounds()
        return SpatialDataset(
            np.full(n, b.x_min + 1.0),
            np.full(n, b.y_min + 1.0),
            dataset.schema,
            {
                "kind": np.zeros(n, dtype=np.int64),
                "score": np.full(n, 1.5),
            },
        )

    @staticmethod
    def _add_lattice_range_sums(session, aggregator):
        """A ``_rewrite_bundle`` edit adding each lattice's real range
        sums in the earlier writers' layout."""
        from repro.index import range_sums
        from repro.index.gids import candidate_lattice_geometry

        table = session.channel_tables(session.compiler_for(aggregator))

        def add_sums(meta, arrays):
            assert meta["lattices"]
            for j, entry in enumerate(meta["lattices"]):
                entry["has_sums"] = True
                x0, _, over_ranges, full_ranges = candidate_lattice_geometry(
                    session.index, entry["width"], entry["height"]
                )
                # The geometry's ranges are per axis: flatten the
                # (nc, nr, C) sums to the earlier writers' (cells, C).
                cells = x0.size
                arrays[f"lat_{j}_full"] = range_sums(
                    table, *full_ranges
                ).reshape(cells, -1)
                arrays[f"lat_{j}_over"] = range_sums(
                    table, *over_ranges
                ).reshape(cells, -1)

        return add_sums

    def test_bundle_with_lattice_range_sums_loads_bitwise(self, tmp_path):
        dataset, aggregator, queries = _instance(47, 80)
        session = QuerySession(dataset, settings=SMALL)
        expected = session.solve_batch(queries)
        path = tmp_path / "v4sums.idx"
        save_session(session, path)
        _rewrite_bundle(path, self._add_lattice_range_sums(session, aggregator))

        restored = load_session(path, dataset)
        assert restored.bundle_version == FORMAT_VERSION
        assert restored._pending_lattices
        for want, got in zip(expected, restored.solve_batch(queries)):
            assert _same_result(want, got)

    def test_bundle_with_lattice_range_sums_updates_like_cold(self, tmp_path):
        """An update on a restore of such a bundle drops its pending
        lattices, range sums ignored, and answers like a cold session."""
        dataset, aggregator, queries = _instance(50, 80)
        session = QuerySession(dataset, settings=SMALL)
        session.solve_batch(queries)
        path = tmp_path / "v4sums.idx"
        save_session(session, path)
        _rewrite_bundle(path, self._add_lattice_range_sums(session, aggregator))

        restored = load_session(path, dataset)
        n_pending = len(restored._pending_lattices)
        assert n_pending
        stats = restored.append(self._in_bounds_append(dataset))
        assert stats.index_patched
        assert stats.pending_tables_patched == 1
        assert stats.lattices_dropped == n_pending
        cold = QuerySession(
            restored.dataset, granularity=restored.granularity, settings=SMALL
        )
        for got, want in zip(
            restored.solve_batch(queries), cold.solve_batch(queries)
        ):
            assert _same_result(got, want)

    def test_written_bundle_carries_no_lattice_range_sums(self, tmp_path):
        """Each lattice is written as its four interval arrays only: no
        ``has_sums`` flag and no ``lat_*_full``/``lat_*_over`` members."""
        dataset, aggregator, queries = _instance(46, 60)
        session = QuerySession(dataset, settings=SMALL)
        session.solve_batch(queries)
        path = tmp_path / "session.idx"
        save_session(session, path)
        with np.load(path, allow_pickle=False) as bundle:
            meta = json.loads(str(bundle["meta"][()]))
            members = set(bundle.files)
        assert meta["format_version"] == FORMAT_VERSION
        assert meta["lattices"]
        for j, entry in enumerate(meta["lattices"]):
            assert set(entry) == {"width", "height", "signature"}
            assert {name for name in members if name.startswith(f"lat_{j}_")} == {
                f"lat_{j}_{part}" for part in ("x0", "y0", "lo", "hi")
            }

    def test_lattice_intervals_roundtrip_and_adoption(self, tmp_path, monkeypatch):
        """A persisted lattice restores bit for bit, and the first solve
        adopts it as-is instead of recomputing the intervals."""
        import repro.engine.session as session_module

        dataset, aggregator, queries = _instance(48, 80)
        session = QuerySession(dataset, settings=SMALL)
        expected = session.solve_batch(queries)
        ((width, height, _), live), = session._lattices.items()
        path = tmp_path / "v4.idx"
        save_session(session, path)

        restored = load_session(path, dataset)
        sig = aggregator_signature(aggregator)
        pending = restored._pending_lattices[(width, height, sig)]
        for got, want in zip(pending, live):
            np.testing.assert_array_equal(got, want)

        calls = []
        original = session_module.candidate_lattice_intervals

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(session_module, "candidate_lattice_intervals", counting)
        results = restored.solve_batch(queries)
        assert calls == []  # adopted, not recomputed
        compiler = restored.compiler_for(aggregator)
        assert restored._lattices[(width, height, id(compiler))] is pending
        for got, want in zip(results, expected):
            assert _same_result(got, want)

    def test_lattices_dropped_counts_live_and_pending(self, tmp_path):
        """An update on a partly adopted restore drops the adopted
        (live) lattice and the still-pending one alike."""
        dataset, aggregator, queries = _instance(52, 80)
        rng = np.random.default_rng(52)
        other_size = ASRSQuery.from_vector(
            7.0, 5.0, aggregator, rng.uniform(0, 4, aggregator.dim(dataset))
        )
        session = QuerySession(dataset, settings=SMALL)
        session.solve(queries[0])
        session.solve(other_size)
        path = tmp_path / "session.idx"
        save_session(session, path)

        restored = load_session(path, dataset)
        assert len(restored._pending_lattices) == 2
        restored.solve(queries[0])  # adopts the 13 x 9 lattice only
        n_live = len(restored._lattices)
        n_pending = len(restored._pending_lattices)
        assert n_live == 1 and n_pending == 2
        stats = restored.append(self._in_bounds_append(dataset))
        assert stats.lattices_dropped == n_live + n_pending
        assert not restored._lattices and not restored._pending_lattices
        cold = QuerySession(
            restored.dataset, granularity=restored.granularity, settings=SMALL
        )
        for query in (queries[0], other_size):
            assert _same_result(restored.solve(query), cold.solve(query))

    def test_updated_restore_resaves_and_reloads(self, tmp_path):
        """A restore updated before any adoption saves its patched
        pending table (cells and recipe included, its dropped lattices
        not), and that bundle reloads over the mutated dataset."""
        dataset, aggregator, queries = _instance(53, 80)
        session = QuerySession(dataset, settings=SMALL)
        session.solve_batch(queries)
        path = tmp_path / "session.idx"
        save_session(session, path)

        restored = load_session(path, dataset)
        restored.delete(np.array([4, 9]))
        resaved = tmp_path / "resaved.idx"
        save_session(restored, resaved)

        reloaded = load_session(resaved, restored.dataset)
        sig = aggregator_signature(aggregator)
        assert reloaded.epoch == 1
        assert not reloaded._pending_lattices
        np.testing.assert_array_equal(
            reloaded._pending_table_cells[sig], restored._pending_table_cells[sig]
        )
        assert sig in reloaded._pending_recipes
        cold = QuerySession(
            restored.dataset, granularity=restored.granularity, settings=SMALL
        )
        for got, want in zip(
            reloaded.solve_batch(queries), cold.solve_batch(queries)
        ):
            assert _same_result(got, want)

    def test_wal_replay_onto_restore_equals_live(self, tmp_path):
        """Crash recovery: replaying an update stream onto a fresh
        restore (one coalesced apply) answers like the live session."""
        from repro.engine import WriteAheadLog, replay

        dataset, aggregator, queries = _instance(49, 80)
        live = QuerySession(dataset, settings=SMALL)
        live.solve_batch(queries)
        path = tmp_path / "v4w.idx"
        save_session(live, path)
        live.attach_wal(tmp_path / "v4w.wal")
        for _ in range(2):
            live.append(self._in_bounds_append(live.dataset))

        restored = load_session(path, dataset)
        rstats = replay(restored, WriteAheadLog(tmp_path / "v4w.wal"))
        assert rstats.applied == 2
        for got, want in zip(
            restored.solve_batch(queries), live.solve_batch(queries)
        ):
            assert _same_result(got, want)


class TestSignature:
    def test_structurally_equal_aggregators_share_signature(self):
        a = random_aggregator()
        b = random_aggregator()
        assert a is not b
        assert aggregator_signature(a) == aggregator_signature(b)

    def test_different_terms_different_signature(self):
        a = random_aggregator(with_avg=True)
        b = random_aggregator(with_avg=False)
        assert aggregator_signature(a) != aggregator_signature(b)
