"""Tests for the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main, parse_term
from repro.core.aggregators import (
    AverageAggregator,
    DistributionAggregator,
    SumAggregator,
)
from repro.core.selection import SelectAll, SelectByValue
from repro.data.io import load_csv_infer, save_csv


class TestParseTerm:
    def test_distribution(self):
        term = parse_term("fD:category")
        assert isinstance(term, DistributionAggregator)
        assert term.attribute == "category"
        assert isinstance(term.selection, SelectAll)

    def test_average_with_selection(self):
        term = parse_term("fA:price@category=Apartment")
        assert isinstance(term, AverageAggregator)
        assert term.attribute == "price"
        assert isinstance(term.selection, SelectByValue)
        assert term.selection.value == "Apartment"

    def test_sum(self):
        assert isinstance(parse_term("fS:visits"), SumAggregator)

    @pytest.mark.parametrize("bad", ["fQ:x", "fD", "fA:p@x"])
    def test_bad_specs(self, bad):
        with pytest.raises(SystemExit):
            parse_term(bad)


class TestLoadCsvInfer:
    def test_roundtrip(self, tmp_path, fig1_dataset):
        path = tmp_path / "d.csv"
        save_csv(fig1_dataset, path)
        loaded = load_csv_infer(path, categorical=["category"], numeric=["price"])
        assert loaded.n == fig1_dataset.n
        assert set(loaded.schema.categorical("category").domain) == {
            "Apartment",
            "Supermarket",
            "Restaurant",
            "BusStop",
        }

    def test_undeclared_column_rejected(self, tmp_path, fig1_dataset):
        path = tmp_path / "d.csv"
        save_csv(fig1_dataset, path)
        with pytest.raises(ValueError, match="need a"):
            load_csv_infer(path, categorical=["category"])

    def test_unknown_declared_column_rejected(self, tmp_path, fig1_dataset):
        path = tmp_path / "d.csv"
        save_csv(fig1_dataset, path)
        with pytest.raises(ValueError, match="not in CSV"):
            load_csv_infer(
                path, categorical=["category", "nope"], numeric=["price"]
            )

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="x,y"):
            load_csv_infer(path)


class TestCommands:
    def _write_fig1(self, tmp_path, fig1_dataset):
        path = tmp_path / "data.csv"
        save_csv(fig1_dataset, path)
        return str(path)

    def test_generate(self, tmp_path, capsys):
        out = tmp_path / "gen.csv"
        rc = main(["generate", "--kind", "city", "--n", "300", "--out", str(out)])
        assert rc == 0
        assert "300 objects" in capsys.readouterr().out
        assert out.exists()

    def test_search(self, tmp_path, fig1_dataset, capsys):
        data = self._write_fig1(tmp_path, fig1_dataset)
        rc = main(
            [
                "search",
                "--data", data,
                "--categorical", "category",
                "--numeric", "price",
                "--term", "fD:category",
                "--term", "fA:price@category=Apartment",
                "--width", "4", "--height", "4",
                # Domain is sorted alphabetically by load_csv_infer:
                # (Apartment, BusStop, Restaurant, Supermarket).
                "--target", "2,1,1,1,1.75",
                "--verbose",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "#1 region=" in out
        assert "distance=0" in out

    def test_search_topk(self, tmp_path, fig1_dataset, capsys):
        data = self._write_fig1(tmp_path, fig1_dataset)
        rc = main(
            [
                "search",
                "--data", data,
                "--categorical", "category",
                "--numeric", "price",
                "--term", "fD:category",
                "--width", "4", "--height", "4",
                "--target", "2,1,1,1",
                "--topk", "2",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "#1 region=" in out and "#2 region=" in out

    def test_search_dim_mismatch(self, tmp_path, fig1_dataset):
        data = self._write_fig1(tmp_path, fig1_dataset)
        with pytest.raises(SystemExit):
            main(
                [
                    "search",
                    "--data", data,
                    "--categorical", "category",
                    "--numeric", "price",
                    "--term", "fD:category",
                    "--width", "4", "--height", "4",
                    "--target", "1,2",
                ]
            )

    def test_maxrs(self, tmp_path, fig1_dataset, capsys):
        data = self._write_fig1(tmp_path, fig1_dataset)
        rc = main(
            [
                "maxrs",
                "--data", data,
                "--categorical", "category",
                "--numeric", "price",
                "--width", "4", "--height", "4",
            ]
        )
        assert rc == 0
        assert "score=6" in capsys.readouterr().out

    def test_batch(self, tmp_path, fig1_dataset, capsys):
        import json

        data = self._write_fig1(tmp_path, fig1_dataset)
        spec = {
            "terms": ["fD:category", "fA:price@category=Apartment"],
            "width": 4.0,
            "height": 4.0,
            "queries": [
                {"target": [2, 1, 1, 1, 1.75]},
                {"target": [3, 1, 1, 1, 1.6]},
                {"target": [2, 0, 2, 0, 2.9], "width": 5.0, "height": 5.0},
            ],
        }
        queries = tmp_path / "queries.json"
        queries.write_text(json.dumps(spec))
        rc = main(
            [
                "batch",
                "--data", data,
                "--categorical", "category",
                "--numeric", "price",
                "--queries", str(queries),
                "--verbose",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "query #0" in out and "query #2" in out
        assert "distance=0" in out  # the fig1 targets are achievable
        assert "QuerySession" in out

    def test_update_append_delete(self, tmp_path, fig1_dataset, capsys):
        """`update` patches the dataset and answers like a cold batch on
        the mutated data; --save-index writes an epoch-stamped bundle."""
        import json

        import numpy as np

        data = self._write_fig1(tmp_path, fig1_dataset)
        spec = {
            "terms": ["fD:category", "fA:price@category=Apartment"],
            "width": 4.0,
            "height": 4.0,
            "queries": [{"target": [2, 1, 1, 1, 1.75]}],
        }
        queries = tmp_path / "queries.json"
        queries.write_text(json.dumps(spec))
        # Append two objects inside the fig1 extent; delete two rows.
        extra = fig1_dataset.subset(np.array([0, 3]))
        append_csv = tmp_path / "extra.csv"
        save_csv(extra, append_csv)
        common = [
            "--categorical", "category",
            "--numeric", "price",
            "--queries", str(queries),
        ]
        bundle = tmp_path / "mutated.idx"
        saved_csv = tmp_path / "saved.csv"
        rc = main(
            [
                "update",
                "--data", data,
                *common,
                "--append", str(append_csv),
                "--delete", "1,7",
                "--save-index", str(bundle),
                "--save-data", str(saved_csv),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "applied update: +2 -2 objects (epoch 1" in out
        assert "query #0" in out
        assert "wrote updated session index (epoch 1)" in out
        assert "wrote mutated dataset (15 objects)" in out

        # The printed answers equal a cold batch over the same mutation.
        mutated = fig1_dataset.subset(
            np.array([i for i in range(fig1_dataset.n) if i not in (1, 7)])
        ).append(extra)
        mutated_csv = tmp_path / "mutated.csv"
        save_csv(mutated, mutated_csv)
        rc = main(["batch", "--data", str(mutated_csv), *common])
        assert rc == 0
        batch_out = capsys.readouterr().out
        update_answers = [l for l in out.splitlines() if l.startswith("query #")]
        assert update_answers == batch_out.strip().splitlines()

        # The saved bundle records the --save-data CSV's epoch (the pair
        # travels together: the bundle fingerprints the mutated data).
        from repro.engine import load_session

        saved = load_csv_infer(saved_csv, categorical=["category"], numeric=["price"])
        assert load_session(bundle, saved).epoch == 1

    def _update_spec(self, tmp_path):
        import json

        queries = tmp_path / "queries.json"
        queries.write_text(
            json.dumps(
                {
                    "terms": ["fD:category"],
                    "width": 4.0,
                    "height": 4.0,
                    "queries": [{"target": [2, 1, 1, 1]}],
                }
            )
        )
        return str(queries)

    def test_update_requires_a_mutation(self, tmp_path, fig1_dataset, capsys):
        """Argument errors route through parser.error: exit code 2 with
        the message on stderr, like any other argparse failure."""
        data = self._write_fig1(tmp_path, fig1_dataset)
        queries = self._update_spec(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "update",
                    "--data", data,
                    "--categorical", "category",
                    "--numeric", "price",
                    "--queries", queries,
                ]
            )
        assert excinfo.value.code == 2
        assert "--append CSV and/or --delete" in capsys.readouterr().err

    def test_update_bad_delete_exits_2(self, tmp_path, fig1_dataset, capsys):
        data = self._write_fig1(tmp_path, fig1_dataset)
        queries = self._update_spec(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "update",
                    "--data", data,
                    "--categorical", "category",
                    "--numeric", "price",
                    "--queries", queries,
                    "--delete", "1,spam",
                ]
            )
        assert excinfo.value.code == 2
        assert "expected I,J,K" in capsys.readouterr().err

    def _shard_plan(self, tmp_path, data, granularity):
        return main(
            [
                "shard-plan",
                "--data", data,
                "--categorical", "category",
                "--numeric", "price",
                "--nx", "1", "--ny", "1", "--wmax", "4", "--hmax", "4",
                "--granularity", granularity,
                "--out", str(tmp_path / "shards"),
            ]
        )

    def test_shard_plan_custom_granularity(self, tmp_path, fig1_dataset, capsys):
        import json

        import numpy as np

        data = self._write_fig1(tmp_path, fig1_dataset)
        assert self._shard_plan(tmp_path, data, "5,6") == 0
        bundles = sorted((tmp_path / "shards").glob("*.bundle"))
        assert bundles
        for bundle in bundles:
            with np.load(bundle, allow_pickle=False) as npz:
                assert json.loads(str(npz["meta"][()]))["granularity"] == [5, 6]

    def test_shard_plan_bad_granularity(self, tmp_path, fig1_dataset):
        data = self._write_fig1(tmp_path, fig1_dataset)
        with pytest.raises(SystemExit, match="granularity"):
            self._shard_plan(tmp_path, data, "wide")

    def test_shard_plan_nonpositive_granularity(self, tmp_path, fig1_dataset):
        data = self._write_fig1(tmp_path, fig1_dataset)
        with pytest.raises(SystemExit, match=">= 1"):
            self._shard_plan(tmp_path, data, "0,5")

    def test_replay_with_mismatched_index(self, tmp_path, fig1_dataset):
        """--index written over different data must fail loudly."""
        import numpy as np

        from repro.engine import QuerySession, save_session

        data = self._write_fig1(tmp_path, fig1_dataset)
        other_csv = tmp_path / "other.csv"
        save_csv(fig1_dataset.subset(np.arange(fig1_dataset.n - 1)), other_csv)
        other = load_csv_infer(other_csv, categorical=["category"], numeric=["price"])
        bundle = tmp_path / "other.idx"
        save_session(QuerySession(other), bundle)
        wal = tmp_path / "data.wal"
        wal.write_bytes(b"")
        with pytest.raises(SystemExit, match="different dataset"):
            main(
                [
                    "replay",
                    "--data", data,
                    "--categorical", "category",
                    "--numeric", "price",
                    "--index", str(bundle),
                    "--wal", str(wal),
                ]
            )

    def test_batch_missing_target(self, tmp_path, fig1_dataset):
        import json

        data = self._write_fig1(tmp_path, fig1_dataset)
        queries = tmp_path / "queries.json"
        queries.write_text(
            json.dumps(
                {
                    "terms": ["fD:category"],
                    "width": 4.0,
                    "height": 4.0,
                    "queries": [{}],
                }
            )
        )
        with pytest.raises(SystemExit, match="missing target"):
            main(
                [
                    "batch",
                    "--data", data,
                    "--categorical", "category",
                    "--numeric", "price",
                    "--queries", str(queries),
                ]
            )

    def test_batch_dim_mismatch(self, tmp_path, fig1_dataset):
        import json

        data = self._write_fig1(tmp_path, fig1_dataset)
        queries = tmp_path / "queries.json"
        queries.write_text(
            json.dumps(
                {
                    "terms": ["fD:category"],
                    "width": 4.0,
                    "height": 4.0,
                    "queries": [{"target": [1, 2]}],
                }
            )
        )
        with pytest.raises(SystemExit, match="dims"):
            main(
                [
                    "batch",
                    "--data", data,
                    "--categorical", "category",
                    "--numeric", "price",
                    "--queries", str(queries),
                ]
            )


class TestWalReplayCli:
    """The durable-update CLI: `update --wal` and the `replay` command."""

    def _setup(self, tmp_path, fig1_dataset):
        import json

        data = tmp_path / "data.csv"
        save_csv(fig1_dataset, data)
        queries = tmp_path / "queries.json"
        queries.write_text(
            json.dumps(
                {
                    "terms": ["fD:category", "fA:price@category=Apartment"],
                    "width": 4.0,
                    "height": 4.0,
                    "queries": [{"target": [2, 1, 1, 1, 1.75]}],
                }
            )
        )
        common = [
            "--categorical", "category",
            "--numeric", "price",
            "--queries", str(queries),
        ]
        return str(data), str(queries), common

    @staticmethod
    def _epoch0_bundle(data, bundle):
        """The bundle a checkpoint of the untouched --data would write."""
        from repro.engine import QuerySession, save_session

        dataset = load_csv_infer(data, categorical=["category"], numeric=["price"])
        save_session(QuerySession(dataset), bundle)

    def test_replay_help_smoke(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["replay", "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "--wal" in out and "--index" in out

    def test_update_wal_then_replay_recovers(
        self, tmp_path, fig1_dataset, capsys
    ):
        """Two `update --wal` runs (no bundle re-save: simulated crash)
        followed by `replay` answer exactly like a cold batch over the
        final dataset."""
        import numpy as np

        data, queries, common = self._setup(tmp_path, fig1_dataset)
        bundle = tmp_path / "fig1.idx"
        wal = tmp_path / "fig1.wal"
        self._epoch0_bundle(data, bundle)

        extra = fig1_dataset.subset(np.array([0, 3]))
        append_csv = tmp_path / "extra.csv"
        save_csv(extra, append_csv)
        rc = main(
            [
                "update", "--data", data, *common,
                "--index", str(bundle), "--wal", str(wal),
                "--append", str(append_csv),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "logged to WAL" in out

        # Second run continues the same history: it replays record 1
        # before logging record 2.
        rc = main(
            [
                "update", "--data", data, *common,
                "--index", str(bundle), "--wal", str(wal),
                "--delete", "1",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "replayed 1 WAL record(s)" in out
        assert "epoch 2" in out

        # Crash "happens" here: the bundle on disk is still epoch 0.
        rc = main(
            [
                "replay", "--data", data, *common,
                "--index", str(bundle), "--wal", str(wal),
            ]
        )
        assert rc == 0
        replay_out = capsys.readouterr().out
        assert "replayed 2 WAL record(s)" in replay_out
        assert "recovered session at epoch 2" in replay_out
        replay_answers = [
            line for line in replay_out.splitlines() if line.startswith("query #")
        ]

        # Ground truth: a cold batch over the final dataset.
        final = fig1_dataset.append(extra).delete(np.array([1]))
        final_csv = tmp_path / "final.csv"
        save_csv(final, final_csv)
        rc = main(["batch", "--data", str(final_csv), *common])
        assert rc == 0
        batch_answers = capsys.readouterr().out.strip().splitlines()
        assert replay_answers == batch_answers

    def test_replay_save_index_checkpoints_wal(
        self, tmp_path, fig1_dataset, capsys
    ):
        import numpy as np

        from repro.engine.wal import _scan

        data, queries, common = self._setup(tmp_path, fig1_dataset)
        bundle = tmp_path / "fig1.idx"
        wal = tmp_path / "fig1.wal"
        saved = tmp_path / "recovered.idx"
        saved_csv = tmp_path / "recovered.csv"
        self._epoch0_bundle(data, bundle)
        extra = fig1_dataset.subset(np.array([2]))
        append_csv = tmp_path / "extra.csv"
        save_csv(extra, append_csv)
        assert main(
            [
                "update", "--data", data, *common,
                "--index", str(bundle), "--wal", str(wal),
                "--append", str(append_csv),
            ]
        ) == 0
        frames, _, _, _ = _scan(str(wal))
        assert len(frames) == 1
        capsys.readouterr()
        # Recover to SIDE paths: the --data baseline is untouched, so
        # the log must survive (it still covers data.csv).
        assert main(
            [
                "replay", "--data", data, *common,
                "--index", str(bundle), "--wal", str(wal),
                "--save-index", str(saved), "--save-data", str(saved_csv),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "left untouched" in out
        frames, _, _, _ = _scan(str(wal))
        assert len(frames) == 1
        assert saved.exists() and saved_csv.exists()
        # Recover updating the baseline itself: now the checkpoint is
        # safe and fires.
        assert main(
            [
                "replay", "--data", data, *common,
                "--index", str(bundle), "--wal", str(wal),
                "--save-index", str(saved), "--save-data", data,
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "checkpointed WAL" in out
        frames, _, _, _ = _scan(str(wal))
        assert frames == []  # the new bundle + baseline cover the log
        # No temp droppings from the atomic writes.
        leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []
        # The caught-up (baseline data, saved bundle) pair reopens at
        # the recovered epoch with nothing left to replay.
        assert main(
            [
                "replay", "--data", data, *common,
                "--index", str(saved), "--wal", str(wal),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "recovered session at epoch 1" in out
        assert "replayed" not in out

    def test_update_wal_save_data_without_save_index_stays_usable(
        self, tmp_path, fig1_dataset, capsys
    ):
        """Regression: `--wal --save-data` (no --save-index) used to
        leave the new CSV paired with un-checkpointed records, so the
        next run died with a lineage mismatch.  Saving the data now
        resets the log to the CSV's fresh epoch-0 baseline."""
        import numpy as np

        data, queries, common = self._setup(tmp_path, fig1_dataset)
        wal = tmp_path / "fig1.wal"
        extra = fig1_dataset.subset(np.array([0, 3]))
        append_csv = tmp_path / "extra.csv"
        save_csv(extra, append_csv)
        for run in range(2):
            rc = main(
                [
                    "update", "--data", data, *common,
                    "--wal", str(wal),
                    "--append", str(append_csv),
                    "--save-data", data,
                ]
            )
            assert rc == 0
            out = capsys.readouterr().out
            assert "reset WAL" in out and "1 record(s) now baked" in out
            # Each run starts from the freshly saved CSV: epoch 1 again.
            assert "applied update: +2 -0 objects (epoch 1" in out

    def test_update_wal_save_data_side_copy_keeps_log(
        self, tmp_path, fig1_dataset, capsys
    ):
        """--save-data to a side path must NOT reset the WAL: the
        original --data file is unchanged and the log is its only
        durable record of the update."""
        import numpy as np

        from repro.engine.wal import _scan

        data, queries, common = self._setup(tmp_path, fig1_dataset)
        wal = tmp_path / "fig1.wal"
        extra = fig1_dataset.subset(np.array([0]))
        append_csv = tmp_path / "extra.csv"
        save_csv(extra, append_csv)
        rc = main(
            [
                "update", "--data", data, *common,
                "--wal", str(wal),
                "--append", str(append_csv),
                "--save-data", str(tmp_path / "backup.csv"),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "side copy" in out and "left untouched" in out
        frames, _, _, _ = _scan(str(wal))
        assert len(frames) == 1  # the record survives for --data
        # And the canonical pair still replays the update.
        rc = main(
            ["replay", "--data", data, *common[:4], "--wal", str(wal)]
        )
        assert rc == 0
        assert "replayed 1 WAL record(s)" in capsys.readouterr().out

    def test_save_index_without_save_data_keeps_wal(
        self, tmp_path, fig1_dataset, capsys
    ):
        """Regression: --save-index without --save-data used to
        checkpoint the WAL while the on-disk CSV was still pre-update —
        the bundle fingerprinted a dataset existing nowhere and the
        truncated records were the only copy of the updates."""
        import numpy as np

        from repro.engine.wal import _scan

        data, queries, common = self._setup(tmp_path, fig1_dataset)
        wal = tmp_path / "fig1.wal"
        extra = fig1_dataset.subset(np.array([0]))
        append_csv = tmp_path / "extra.csv"
        save_csv(extra, append_csv)
        rc = main(
            [
                "update", "--data", data, *common,
                "--wal", str(wal),
                "--append", str(append_csv),
                "--save-index", str(tmp_path / "orphan.idx"),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "left untouched" in out and "recovery path" in out
        frames, _, _, _ = _scan(str(wal))
        assert len(frames) == 1  # the record survives
        # The (original data, WAL) pair still recovers the update.
        rc = main(
            ["replay", "--data", data, *common[:4], "--wal", str(wal)]
        )
        assert rc == 0
        assert "replayed 1 WAL record(s)" in capsys.readouterr().out

    def test_save_data_side_copy_with_save_index_keeps_wal(
        self, tmp_path, fig1_dataset, capsys
    ):
        """Regression: --save-data to a side path plus --save-index used
        to checkpoint the WAL, severing the untouched --data baseline's
        recovery pair."""
        import numpy as np

        from repro.engine.wal import _scan

        data, queries, common = self._setup(tmp_path, fig1_dataset)
        wal = tmp_path / "fig1.wal"
        extra = fig1_dataset.subset(np.array([0]))
        append_csv = tmp_path / "extra.csv"
        save_csv(extra, append_csv)
        rc = main(
            [
                "update", "--data", data, *common,
                "--wal", str(wal),
                "--append", str(append_csv),
                "--save-data", str(tmp_path / "copy.csv"),
                "--save-index", str(tmp_path / "copy.idx"),
            ]
        )
        assert rc == 0
        assert "left untouched" in capsys.readouterr().out
        frames, _, _, _ = _scan(str(wal))
        assert len(frames) == 1
        # The canonical (data, wal) pair still recovers the update.
        rc = main(["replay", "--data", data, *common[:4], "--wal", str(wal)])
        assert rc == 0
        assert "replayed 1 WAL record(s)" in capsys.readouterr().out

    def test_replay_missing_wal_fails_closed(self, tmp_path, fig1_dataset):
        """A recovery command given a nonexistent log path must error,
        not print 'recovered' over stale state."""
        data, queries, common = self._setup(tmp_path, fig1_dataset)
        with pytest.raises(SystemExit, match="no such file"):
            main(
                [
                    "replay", "--data", data, *common[:4],
                    "--wal", str(tmp_path / "typo.wal"),
                ]
            )


class TestServeShardsOpenFailure:
    def test_corrupt_shard_bundle_exits_with_a_message(self, tmp_path):
        """A worker that cannot open its shard fails `serve --shards`
        with one line on stderr, not a traceback."""
        data = tmp_path / "tw.csv"
        assert main(["generate", "--kind", "tweets", "--n", "600",
                     "--out", str(data)]) == 0
        shards = tmp_path / "shards"
        assert main(["shard-plan", "--data", str(data),
                     "--categorical", "day_of_week", "--numeric", "length",
                     "--nx", "2", "--ny", "1", "--wmax", "0.6", "--hmax", "0.3",
                     "--out", str(shards)]) == 0
        (shards / "shard001.bundle").write_bytes(b"garbage" * 64)
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "serve",
             "--shards", str(shards), "--port", "0"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode != 0
        assert f"cannot open --shards {shards}: " in proc.stderr
        assert "shard 1 worker failed to open" in proc.stderr
        assert "Traceback" not in proc.stderr


def _readme_commands() -> list:
    """argv of every ``python -m repro.cli`` command in README.md's ``sh``
    blocks, with ``\\`` continuations joined and ``#`` comments dropped."""
    import re
    import shlex

    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", readme, re.S):
        for line in re.sub(r"\\\n\s*", " ", block).splitlines():
            if "python -m repro.cli" in line:
                tail = line.split("python -m repro.cli", 1)[1]
                commands.append(shlex.split(tail, comments=True))
    return commands


class TestReadmeCommands:
    """The README quickstart must keep parsing as the CLI changes."""

    def test_readme_names_the_quickstart_commands(self):
        names = {argv[0] for argv in _readme_commands()}
        assert {"generate", "search", "serve", "shard-plan", "lint"} <= names

    @pytest.mark.parametrize(
        "argv",
        _readme_commands(),
        ids=lambda argv: "-".join(argv[:1]),
    )
    def test_readme_command_parses(self, argv):
        from repro.cli import build_parser

        args = build_parser().parse_args(argv)  # exits 2 on a bad flag
        assert args.command == argv[0]
