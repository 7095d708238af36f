"""Tests for the session bundle (engine/persist.py, DESIGN.md §8.3).

The contract: a bundle holds one ``meta`` member -- the epoch, dataset
fingerprint, granularity and settings of the session that wrote it.
``load_session`` returns a cold session at that epoch and grid, which
answers bitwise-identically to the session that was saved and to the
cold paths, and refuses a dataset the bundle was not written over.
Version 4 bundles, which also carried warm arrays, still open.
"""

import json
import shutil
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ASRSQuery, SpatialDataset
from repro.dssearch import SearchSettings
from repro.engine import QuerySession, load_session, save_session
from repro.engine.persist import FORMAT_VERSION, dataset_fingerprint
from repro.index import gi_ds_search

from .conftest import make_random_dataset, random_aggregator

SMALL = SearchSettings(ncol=6, nrow=6, max_depth=16)
#: A (CSV, bundle, WAL) triple written by the format-4 bundle writer,
#: which saved the warm index, channel tables, ASP reductions and
#: lattices next to ``meta``.  The bundle records epoch 1 over
#: ``data.csv`` at granularity 8 x 8; ``data.wal`` holds the two
#: updates after that checkpoint (epochs 1 and 2), and ``final.csv`` is
#: the dataset they lead to.  The writer is gone, so the files are kept
#: as they were written.
V4_FIXTURE = Path(__file__).parent / "fixtures" / "bundle_v4"


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


def _read_meta(path) -> dict:
    with np.load(path, allow_pickle=False) as bundle:
        return json.loads(str(bundle["meta"][()]))


def _rewrite_meta(path, mutate) -> None:
    """Re-zip a bundle after ``mutate(meta)`` edits its meta document."""
    meta = _read_meta(path)
    mutate(meta)
    with open(path, "wb") as fh:
        np.savez(fh, meta=np.array(json.dumps(meta)))


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

    def test_load_returns_a_cold_session_at_the_saved_epoch_and_grid(
        self, tmp_path
    ):
        dataset, aggregator, queries = _instance(5, 60)
        session = QuerySession(dataset, granularity=(5, 7), settings=SMALL)
        session.solve(queries[0])
        session.delete(np.array([3]))
        path = tmp_path / "session.idx"
        save_session(session, path)

        restored = load_session(path, session.dataset)
        assert restored.epoch == 1
        assert restored.granularity == (5, 7)
        assert restored.settings == SMALL
        assert restored.bundle_version == FORMAT_VERSION
        info = restored.cache_info()
        assert not info["index_built"]
        assert info["channel_tables"] == info["lattices"] == 0
        assert info["reductions"] == info["cached_spaces"] == 0

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

    def test_settings_override_is_honoured(self, tmp_path):
        dataset, _, queries = _instance(8, 40)
        path = tmp_path / "session.idx"
        save_session(QuerySession(dataset, settings=SMALL), path)
        other = SearchSettings(ncol=4, nrow=4, max_depth=12)
        restored = load_session(path, dataset, settings=other)
        assert restored.settings == other
        cold = QuerySession(dataset, granularity=restored.granularity, settings=other)
        assert _same_result(restored.solve(queries[0]), cold.solve(queries[0]))

    def test_save_overwrites_atomically(self, tmp_path):
        """Re-saving over an existing bundle must leave a loadable file
        and no temp droppings."""
        dataset, aggregator, queries = _instance(23, 20)
        session = QuerySession(dataset, settings=SMALL)
        path = tmp_path / "session.idx"
        save_session(session, path)
        session.delete(np.array([0]))
        save_session(session, path)  # overwrite in place
        restored = load_session(path, session.dataset)
        assert restored.epoch == 1
        leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []

    def test_bundle_holds_only_meta(self, tmp_path):
        """However warm the session, the bundle is one ``meta`` member
        carrying the epoch record and nothing else."""
        dataset, aggregator, queries = _instance(29, 60)
        session = QuerySession(dataset, settings=SMALL)
        session.solve_batch(queries)
        path = tmp_path / "session.idx"
        save_session(session, path)
        with zipfile.ZipFile(path) as bundle:
            assert bundle.namelist() == ["meta.npy"]
        meta = _read_meta(path)
        assert set(meta) == {
            "format_version",
            "granularity",
            "settings",
            "fingerprint",
            "epoch",
        }
        assert meta["format_version"] == FORMAT_VERSION == 5
        assert meta["granularity"] == list(session.granularity)
        assert meta["fingerprint"] == dataset_fingerprint(dataset)

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

    def test_cache_nbytes_counts_lattice_corners_once(self):
        """A lattice's corner arrays are its geometry's: the byte count
        the pool budgets by counts them once, and would count copies
        twice."""
        dataset, aggregator, queries = _instance(21, 50)
        session = QuerySession(dataset, settings=SMALL)
        session.solve(queries[0])
        (key, lattice), = session._lattices.items()
        geometry = session._lattice_geometry[key[:2]]
        assert lattice[0] is geometry[0] and lattice[1] is geometry[1]
        shared = session.cache_nbytes()
        x0, y0, lo, hi = lattice
        session._lattices[key] = (x0.copy(), y0.copy(), lo, hi)
        assert session.cache_nbytes() == shared + x0.nbytes + y0.nbytes


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
        _rewrite_meta(path, lambda meta: meta.update(format_version=FORMAT_VERSION + 1))
        with pytest.raises(ValueError, match="format version"):
            load_session(path, dataset)

    def test_fingerprint_tracks_attribute_values(self):
        dataset, _, _ = _instance(19, 10)
        tweaked_columns = {
            name: dataset.column(name).copy() for name in dataset.schema.names
        }
        tweaked_columns["score"][0] += 1.0
        tweaked = SpatialDataset(
            dataset.xs, dataset.ys, dataset.schema, tweaked_columns
        )
        assert dataset_fingerprint(dataset) != dataset_fingerprint(tweaked)


class TestFormatVersions:
    """Dataset epochs, and the readable format versions."""

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
        """Versions 4 and 5 load; a missing, older or newer version is
        refused by name."""
        dataset, _, _ = _instance(34, 10)
        path = tmp_path / "session.idx"
        save_session(QuerySession(dataset, settings=SMALL), path)

        def set_version(meta):
            if version is None:
                del meta["format_version"]
            else:
                meta["format_version"] = version

        _rewrite_meta(path, set_version)
        with pytest.raises(ValueError, match=f"format version {version};"):
            load_session(path, dataset)

    def test_future_version_message_names_range(self, tmp_path):
        dataset, _, _ = _instance(34, 10)
        session = QuerySession(dataset, settings=SMALL)
        path = tmp_path / "session.idx"
        save_session(session, path)
        _rewrite_meta(path, lambda meta: meta.update(format_version=FORMAT_VERSION + 5))
        with pytest.raises(ValueError, match="reads versions 4-5"):
            load_session(path, dataset)


def _malformed(case: str):
    """A ``meta`` edit per malformed-bundle case, and the field it names."""
    if case == "unknown-setting":
        return (lambda meta: meta["settings"].update(no_such_knob=1)), "settings"
    return (lambda meta: meta.pop(case)), case


@pytest.mark.parametrize("path_taken", ["open", "replay"])
@pytest.mark.parametrize(
    "case", ["fingerprint", "epoch", "settings", "granularity", "unknown-setting"]
)
def test_malformed_meta_refused_by_name(case, path_taken, tmp_path, capsys):
    """A bundle whose meta lacks a field, or carries a setting this build
    does not know, is refused with a ``ValueError`` naming the field:
    through ``RegionService.open`` and as ``repro replay``'s ``cannot
    load --index`` message, never as a raw ``KeyError``/``TypeError``."""
    from repro.cli import main
    from repro.data.io import load_csv_infer, save_csv
    from repro.service import DatasetSpec, RegionService

    dataset, _, _ = _instance(38, 30)
    data = tmp_path / "data.csv"
    save_csv(dataset, data)
    loaded = load_csv_infer(data, categorical=["kind"], numeric=["score"])
    bundle = tmp_path / "data.idx"
    save_session(QuerySession(loaded), bundle)
    mutate, field = _malformed(case)
    _rewrite_meta(bundle, mutate)

    if path_taken == "open":
        spec = DatasetSpec(
            key="d",
            data=str(data),
            categorical=("kind",),
            numeric=("score",),
            index=str(bundle),
        )
        with pytest.raises(ValueError, match=repr(field)):
            RegionService().open(spec)
        return
    wal = tmp_path / "data.wal"
    wal.write_bytes(b"")
    with pytest.raises(SystemExit) as info:
        main(
            [
                "replay",
                "--data", str(data),
                "--categorical", "kind",
                "--numeric", "score",
                "--index", str(bundle),
                "--wal", str(wal),
            ]
        )
    message = str(info.value.code)
    assert message.startswith(f"cannot load --index {bundle}")
    assert repr(field) in message


class TestVersion4Bundle:
    """A bundle in the layout the format-4 writer produced -- warm index,
    tables, reductions and lattices included -- opens at its epoch and
    grid, and the log checkpointed against it replays onto it."""

    def _copy(self, tmp_path) -> Path:
        for name in ("data.csv", "data.idx", "data.wal", "final.csv"):
            shutil.copy(V4_FIXTURE / name, tmp_path / name)
        return tmp_path

    @staticmethod
    def _load(path):
        from repro.data.io import load_csv_infer

        return load_csv_infer(path, categorical=["day_of_week"], numeric=["length"])

    @staticmethod
    def _spec(directory):
        from repro.service import DatasetSpec

        return DatasetSpec(
            key="d",
            data=str(directory / "data.csv"),
            categorical=("day_of_week",),
            numeric=("length",),
            index=str(directory / "data.idx"),
            wal=str(directory / "data.wal"),
        )

    @staticmethod
    def _requests(dataset):
        from repro.service import QueryRequest

        domain = dataset.schema["day_of_week"].domain
        target = tuple(30.0 if d in ("Sat", "Sun") else 0.0 for d in domain)
        return [
            QueryRequest(
                dataset="d",
                terms=("fD:day_of_week",),
                width=0.3,
                height=0.2,
                target=target,
            ),
            QueryRequest(
                dataset="d",
                terms=("fA:length", "fD:day_of_week"),
                width=0.25,
                height=0.25,
                target=(70.0, *target),
            ),
        ]

    def test_fixture_is_a_full_version_4_bundle(self):
        meta = _read_meta(V4_FIXTURE / "data.idx")
        assert meta["format_version"] == 4
        assert meta["tables"] and meta["lattices"] and meta["reductions"]
        with zipfile.ZipFile(V4_FIXTURE / "data.idx") as bundle:
            members = set(bundle.namelist())
        assert {"index_xs.npy", "tab_0.npy", "lat_0_lo.npy", "red_0.npy"} <= members

    def test_opens_at_its_epoch_and_grid(self):
        dataset = self._load(V4_FIXTURE / "data.csv")
        session = load_session(V4_FIXTURE / "data.idx", dataset)
        assert session.epoch == 1
        assert session.granularity == (8, 8)
        assert session.bundle_version == 4
        assert not session.cache_info()["index_built"]

    def test_checkpointed_wal_replays_bitwise(self, tmp_path):
        from repro.service import RegionService

        directory = self._copy(tmp_path)
        service = RegionService()
        opened = service.open(self._spec(directory))
        assert opened.restored_from_bundle
        assert (opened.epoch, opened.replayed, opened.replay_skipped) == (3, 2, 0)

        final = self._load(directory / "final.csv")
        live = service.dataset("d")
        np.testing.assert_array_equal(live.xs, final.xs)
        np.testing.assert_array_equal(live.ys, final.ys)
        cold = QuerySession(final, granularity=(8, 8))
        for request in self._requests(final):
            got = service.query(request)
            want = cold.solve(service._asrs_query(request))
            assert got.region == (
                want.region.x_min,
                want.region.y_min,
                want.region.x_max,
                want.region.y_max,
            )
            assert got.score == want.distance
            assert np.array_equal(np.asarray(got.representation), want.representation)

    def test_checkpoint_rewrites_it_as_meta_only(self, tmp_path):
        from repro.service import RegionService

        directory = self._copy(tmp_path)
        service = RegionService()
        service.open(self._spec(directory))
        before = [service.query(r) for r in self._requests(service.dataset("d"))]
        service.checkpoint("d")
        with zipfile.ZipFile(directory / "data.idx") as bundle:
            assert bundle.namelist() == ["meta.npy"]
        assert _read_meta(directory / "data.idx")["epoch"] == 3

        reopened = RegionService()
        opened = reopened.open(self._spec(directory))
        assert (opened.epoch, opened.replayed) == (3, 0)
        after = [reopened.query(r) for r in self._requests(reopened.dataset("d"))]
        for a, b in zip(before, after):
            assert (a.region, a.score, a.representation) == (
                b.region,
                b.score,
                b.representation,
            )
