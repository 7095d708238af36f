"""Tests for session persistence (engine/persist.py, DESIGN.md §8.3).

The contract: a ``load_session``-warmed session answers queries
bitwise-identically to the saved session and to the cold paths, never
pays the index build again, and refuses to serve a dataset it was not
built over.
"""

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
        import json

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


class TestFormatV2:
    """v2 bundles: dataset epoch + index cell sums (incremental updates)."""

    @staticmethod
    def _rewrite_meta(path, mutate, drop_arrays=()):
        import json

        with np.load(path, allow_pickle=False) as bundle:
            meta = json.loads(str(bundle["meta"][()]))
            arrays = {
                name: bundle[name]
                for name in bundle.files
                if not any(name.startswith(p) for p in drop_arrays)
            }
        mutate(meta)
        arrays["meta"] = np.array(json.dumps(meta))
        with open(path, "wb") as fh:
            np.savez_compressed(fh, **arrays)

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

    def test_v1_bundle_read_shim(self, tmp_path):
        """v1 bundles (no epoch, no cell sums) still load and answer
        identically; their restored index cannot be patched, so mutation
        raises a targeted error naming the bundle version instead of
        proceeding on missing cell sums."""
        dataset, aggregator, queries = _instance(33, 50)
        session = QuerySession(dataset, settings=SMALL)
        expected = session.solve_batch(queries)
        path = tmp_path / "session.idx"
        save_session(session, path)
        self._rewrite_meta(
            path,
            lambda meta: (meta.pop("epoch"), meta.update(format_version=1)),
            drop_arrays=(
                "index_cat_cells_",
                "index_num_cells_",
                "tabcells_",
            ),
        )
        restored = load_session(path, dataset)
        assert restored.epoch == 0
        for got, want in zip(restored.solve_batch(queries), expected):
            assert _same_result(got, want)
        # Mutation on the non-patchable restore is refused, naming the
        # version -- not silently degraded.
        with pytest.raises(ValueError, match="format v1 bundle"):
            restored.delete(np.array([3]))
        # The dataset was not touched by the refused mutation.
        assert restored.dataset.n == dataset.n
        # clear_caches drops the restored index; the session then
        # rebuilds from the live dataset and mutates correctly again.
        restored.clear_caches()
        stats = restored.delete(np.array([3]))
        assert stats.deleted == 1
        cold = QuerySession(restored.dataset, settings=SMALL)
        for got, want in zip(
            restored.solve_batch(queries), cold.solve_batch(queries)
        ):
            assert _same_result(got, want)

    def test_v2_bundle_still_mutates_with_cold_table_recompute(self, tmp_path):
        """v2 bundles (index cell sums but no per-compiler table cells)
        keep the old behavior: updates proceed, dropped channel tables
        recompute lazily, answers stay identical."""
        dataset, aggregator, queries = _instance(35, 50)
        session = QuerySession(dataset, settings=SMALL)
        session.solve_batch(queries)
        path = tmp_path / "session.idx"
        save_session(session, path)
        self._rewrite_meta(
            path,
            lambda meta: (
                meta.update(format_version=2),
                [(e.pop("has_cells", None), e.pop("recipe", None)) for e in meta["tables"]],
            ),
            drop_arrays=("tabcells_",),
        )
        restored = load_session(path, dataset)
        assert not restored._pending_table_cells
        stats = restored.delete(np.array([2, 4]))
        assert stats.index_patched  # index cell sums are v2 state
        assert stats.pending_tables_dropped == 1  # no cells -> lazy cold
        cold = QuerySession(restored.dataset, settings=SMALL)
        for got, want in zip(
            restored.solve_batch(queries), cold.solve_batch(queries)
        ):
            assert _same_result(got, want)

    def test_future_version_message_names_range(self, tmp_path):
        dataset, _, _ = _instance(34, 10)
        session = QuerySession(dataset, settings=SMALL)
        path = tmp_path / "session.idx"
        save_session(session, path)
        self._rewrite_meta(
            path, lambda meta: meta.update(format_version=FORMAT_VERSION + 5)
        )
        with pytest.raises(ValueError, match="written by a newer build"):
            load_session(path, dataset)


class TestFormatV3:
    """v3 bundles: per-compiler table cell sums + rebuild recipes, so a
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
        """The acceptance contract: mutate a load_session-restored v3
        session before any aggregator adoption -- the pending channel
        table is patched from its persisted cell sums, and the first
        solve adopts it without ever calling the cold
        channel_cells_and_table path."""
        dataset, aggregator, queries = _instance(43, 80)
        session = QuerySession(dataset, settings=SMALL)
        session.solve_batch(queries)
        path = tmp_path / "session.idx"
        save_session(session, path)

        restored = load_session(path, dataset)
        stats = restored.delete(np.array([5, 11, 17]))
        assert stats.pending_tables_patched == 1
        assert stats.pending_tables_dropped == 0

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
    """v4 bundles persist each lattice's (full, over) range sums, so a
    restored *pending* lattice rides the delta-aware refresh through
    updates and replay instead of dropping to a full lazy recompute."""

    def _localized_append(self, dataset, n=3):
        """Rows in the dataset's low corner: few dirty cells, and their
        suffix-quadrant shadow touches few lattice range corners, so the
        delta patch stays below the too-many-touched fallback."""
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

    def test_lattice_sums_roundtrip_and_adoption(self, tmp_path):
        dataset, aggregator, queries = _instance(47, 80)
        session = QuerySession(dataset, settings=SMALL)
        session.solve_batch(queries)
        assert session._lattice_sums  # live sums exist to persist
        path = tmp_path / "v4.idx"
        save_session(session, path)
        restored = load_session(path, dataset)
        assert restored.bundle_version == 4
        assert restored._pending_lattice_sums
        # Adoption installs the sums next to the adopted intervals, so
        # the lattice stays delta-patchable as a live artefact too.
        adopted_by = random_aggregator()
        compiler = restored.compiler_for(adopted_by)
        restored.channel_tables(compiler)
        restored.lattice_for(queries[0].width, queries[0].height, compiler)
        key = (float(queries[0].width), float(queries[0].height), id(compiler))
        assert key in restored._lattice_sums

    def test_pending_lattice_delta_patched_on_update(self, tmp_path):
        """The satellite contract: update a fresh restore before any
        adoption -- the pending lattice is patched in place (not
        dropped), the first solve adopts it without recomputing the
        intervals, and answers stay bitwise-identical to cold."""
        dataset, aggregator, queries = _instance(48, 80)
        session = QuerySession(dataset, settings=SMALL)
        session.solve_batch(queries)
        path = tmp_path / "v4u.idx"
        save_session(session, path)

        restored = load_session(path, dataset)
        stats = restored.append(self._localized_append(dataset))
        assert stats.pending_lattices_patched >= 1
        assert stats.pending_lattices_dropped == 0

        import repro.engine.session as session_module

        calls = []
        original = session_module.candidate_lattice_intervals

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        try:
            session_module.candidate_lattice_intervals = counting
            results = restored.solve_batch(queries)
        finally:
            session_module.candidate_lattice_intervals = original
        assert calls == []  # the patched pending lattice was adopted as-is
        cold = QuerySession(
            restored.dataset, granularity=restored.granularity, settings=SMALL
        )
        for got, want in zip(results, cold.solve_batch(queries)):
            assert _same_result(got, want)

    def test_pending_lattice_patched_through_wal_replay(self, tmp_path):
        """Crash recovery keeps the persisted lattices too: replaying a
        localized update stream onto a fresh v4 restore patches the
        pending lattices (one coalesced apply), identity-checked."""
        from repro.engine import WriteAheadLog, replay

        dataset, aggregator, queries = _instance(49, 80)
        live = QuerySession(dataset, settings=SMALL)
        live.solve_batch(queries)
        path = tmp_path / "v4w.idx"
        save_session(live, path)
        live.attach_wal(tmp_path / "v4w.wal")
        for _ in range(2):
            live.append(self._localized_append(live.dataset))

        restored = load_session(path, dataset)
        rstats = replay(restored, WriteAheadLog(tmp_path / "v4w.wal"))
        assert rstats.applied == 2
        assert rstats.lattices_patched >= 1  # patched by the coalesced apply
        for got, want in zip(
            restored.solve_batch(queries), live.solve_batch(queries)
        ):
            assert _same_result(got, want)

    def test_v3_bundle_without_sums_still_loads_and_updates(self, tmp_path):
        """Read shim: a bundle without lattice sums (pre-v4 layout) loads
        fine; updates just drop its pending lattices to the lazy path."""
        dataset, aggregator, queries = _instance(50, 60)
        session = QuerySession(dataset, settings=SMALL)
        session.solve_batch(queries)
        path = tmp_path / "v3like.idx"
        save_session(session, path)
        import json

        with np.load(path, allow_pickle=False) as bundle:
            meta = json.loads(str(bundle["meta"][()]))
            arrays = {
                name: bundle[name]
                for name in bundle.files
                if not (name.endswith("_full") or name.endswith("_over"))
            }
        meta["format_version"] = 3
        for entry in meta["lattices"]:
            entry.pop("has_sums", None)
        arrays["meta"] = np.array(json.dumps(meta))
        with open(path, "wb") as fh:
            np.savez_compressed(fh, **arrays)
        restored = load_session(path, dataset)
        assert restored.bundle_version == 3
        assert not restored._pending_lattice_sums
        stats = restored.append(self._localized_append(dataset))
        assert stats.pending_lattices_dropped >= 1
        cold = QuerySession(
            restored.dataset, granularity=restored.granularity, settings=SMALL
        )
        for got, want in zip(
            restored.solve_batch(queries), cold.solve_batch(queries)
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
