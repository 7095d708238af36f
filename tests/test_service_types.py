"""The typed request/response codec of repro.service (DESIGN.md §11.2)."""

import json
import math
import threading
import urllib.request

import numpy as np
import pytest

from repro.core.geometry import Rect
from repro.core.query import RegionResult as EngineResult
from repro.data.io import save_csv
from repro.index.gids import GIDSStats
from repro.service import (
    CheckpointResult,
    CompactResult,
    DatasetSpec,
    DurabilityPolicy,
    OpenResult,
    QueryRequest,
    RegionResult,
    RegionService,
    UpdateRequest,
    UpdateResult,
    decode_float,
    encode_float,
)
from repro.service.httpd import make_server

from .conftest import make_random_dataset


def json_roundtrip(document: dict) -> dict:
    """Strict JSON: allow_nan=False proves no non-standard literals leak."""
    return json.loads(json.dumps(document, allow_nan=False))


class TestFloatCodec:
    @pytest.mark.parametrize("value", [0.0, -1.5, 1e300, 1e-300, 0.1 + 0.2])
    def test_finite_identity(self, value):
        assert decode_float(encode_float(value)) == value

    def test_nan(self):
        assert math.isnan(decode_float(encode_float(math.nan)))

    @pytest.mark.parametrize("value", [math.inf, -math.inf])
    def test_inf(self, value):
        assert decode_float(encode_float(value)) == value

    def test_bad_sentinel_rejected(self):
        with pytest.raises(ValueError, match="not an encoded float"):
            decode_float("nan-ish")


class TestRegionResultCodec:
    def test_roundtrip(self):
        result = RegionResult(
            region=(0.25, -1.0, 2.25, 1.0),
            score=0.125,
            representation=(1.0, 2.0, 0.0),
            stats={"cells_searched": 12},
            epoch=3,
            elapsed_s=0.004,
        )
        assert RegionResult.from_dict(json_roundtrip(result.to_dict())) == result

    def test_roundtrip_nan_inf_scores(self):
        # A degenerate target can yield a non-finite distance; the codec
        # must round-trip it through *strict* JSON.
        for score in (math.nan, math.inf, -math.inf):
            result = RegionResult(
                region=(0.0, 0.0, 1.0, 1.0),
                score=score,
                representation=(math.inf, -math.inf, math.nan),
            )
            back = RegionResult.from_dict(json_roundtrip(result.to_dict()))
            if math.isnan(score):
                assert math.isnan(back.score)
            else:
                assert back.score == score
            assert back.representation[0] == math.inf
            assert back.representation[1] == -math.inf
            assert math.isnan(back.representation[2])

    def test_no_representation(self):
        result = RegionResult(region=(0, 0, 1, 1), score=1.0)
        back = RegionResult.from_dict(json_roundtrip(result.to_dict()))
        assert back.representation is None


class TestStatsCodec:
    def test_nested_counters_survive_strict_json(self):
        stats = GIDSStats(
            total_cells=64,
            searched_cells=9,
            search={"spaces_processed": 5, "extra": {"bound": math.inf}},
        )
        engine_result = EngineResult(Rect(0.0, 0.0, 1.0, 1.0), 0.5)
        result = RegionResult.from_engine(
            engine_result, epoch=0, elapsed_s=0.0, stats=stats
        )
        back = RegionResult.from_dict(json_roundtrip(result.to_dict()))
        assert back.stats["searched_cells"] == 9
        assert back.stats["search"]["spaces_processed"] == 5
        assert decode_float(back.stats["search"]["extra"]["bound"]) == math.inf

    def test_query_include_stats_carries_search_counters(self, tmp_path):
        # /query encodes the facade's result with the same codec: the
        # GI-DS solve's nested ``search`` counters must reach the client.
        ds = make_random_dataset(np.random.default_rng(66), 60, extent=90.0)
        save_csv(ds, tmp_path / "d.csv")
        service = RegionService()
        service.open(
            DatasetSpec(key="d", data=str(tmp_path / "d.csv"),
                        categorical=("kind",), numeric=("score",))
        )
        request = QueryRequest(
            dataset="d", terms=("fD:kind", "fS:score"), width=12.0,
            height=9.0, target=(1.0, 2.0, 0.5, 3.0), include_stats=True,
        )
        server = make_server(service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        try:
            with urllib.request.urlopen(
                urllib.request.Request(
                    f"http://{host}:{port}/query",
                    data=json.dumps(request.to_dict()).encode(),
                    headers={"Content-Type": "application/json"},
                ),
                timeout=30,
            ) as response:
                result = RegionResult.from_dict(json.loads(response.read()))
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
        search = result.stats["search"]
        assert search["spaces_processed"] >= 1
        assert isinstance(search["candidate_points_evaluated"], int)
        assert search["verified_candidates"] >= search["incumbent_updates"]
        assert result.stats["searched_cells"] >= 1


class TestRequestCodecs:
    def test_query_request_roundtrip(self):
        request = QueryRequest(
            dataset="d",
            terms=("fD:category", "fA:price@category=Apartment"),
            width=0.5,
            height=0.25,
            target=(1.0, 2.0, 1e300),
            weights=(0.5, 0.5, 0.0),
            method="ds",
            delta=0.125,
            probe_cells=8,
            topk=3,
            p=2,
            include_stats=True,
        )
        back = QueryRequest.from_dict(json_roundtrip(request.to_dict()))
        assert back == request

    def test_query_request_defaults_survive(self):
        request = QueryRequest(
            dataset="d", terms=("fD:c",), width=1, height=1, target=(0.0,)
        )
        back = QueryRequest.from_dict(json_roundtrip(request.to_dict()))
        assert back == request
        assert back.method == "gids" and back.topk == 1 and back.weights is None

    def test_query_request_validation(self):
        with pytest.raises(ValueError, match="at least one term"):
            QueryRequest(dataset="d", terms=(), width=1, height=1, target=(0,))
        with pytest.raises(ValueError, match="method"):
            QueryRequest(
                dataset="d", terms=("fD:c",), width=1, height=1, target=(0,),
                method="magic",
            )
        with pytest.raises(ValueError, match="topk"):
            QueryRequest(
                dataset="d", terms=("fD:c",), width=1, height=1, target=(0,),
                topk=0,
            )

    def test_update_request_roundtrip(self):
        request = UpdateRequest(
            dataset="d",
            append=((0.5, 1.5, {"category": "Apartment", "price": 3.0}),),
            delete=(1, 4, 7),
        )
        back = UpdateRequest.from_dict(json_roundtrip(request.to_dict()))
        assert back == request

    def test_update_request_needs_a_mutation(self):
        with pytest.raises(ValueError, match="append and/or"):
            UpdateRequest(dataset="d")

    def test_dataset_spec_roundtrip(self):
        spec = DatasetSpec(
            key="tweets",
            data="tweets.csv",
            categorical=("day_of_week",),
            numeric=("length",),
            index="tweets.idx",
            wal="tweets.wal",
            granularity=(32, 16),
            durability=DurabilityPolicy(
                checkpoint_every_records=8,
                compact_every_records=4,
                checkpoint_on_close=False,
            ),
        )
        assert DatasetSpec.from_dict(json_roundtrip(spec.to_dict())) == spec

    def test_result_codecs_roundtrip(self):
        for result in (
            UpdateResult(dataset="d", epoch=2, appended=3, deleted=1,
                         wal_logged=True, checkpointed=True, elapsed_s=0.5),
            CheckpointResult(dataset="d", epoch=2, data_path="a.csv",
                             index_path="a.idx", wal_records_dropped=4, n=99),
            CompactResult(dataset="d", records_before=5, records_after=1,
                          bytes_before=1000, bytes_after=300, epoch=2),
            OpenResult(dataset="d", n=10, epoch=1, restored_from_bundle=True,
                       replayed=2),
        ):
            back = type(result).from_dict(json_roundtrip(result.to_dict()))
            assert back == result


class TestDurabilityPolicy:
    def test_validation(self):
        for field in (
            "checkpoint_every_records",
            "checkpoint_every_bytes",
            "compact_every_records",
        ):
            with pytest.raises(ValueError, match=field):
                DurabilityPolicy(**{field: 0})

    # The trigger matrix: (policy kwargs, wal state, checkpoint?, compact?)
    MATRIX = [
        # K-records trigger: below / at / above threshold.
        (dict(checkpoint_every_records=3), dict(records=2, bytes=10**9), False, False),
        (dict(checkpoint_every_records=3), dict(records=3, bytes=0), True, False),
        (dict(checkpoint_every_records=3), dict(records=7, bytes=0), True, False),
        # B-bytes trigger -- but never for an *empty* log (nothing to cover).
        (dict(checkpoint_every_bytes=100), dict(records=1, bytes=99), False, False),
        (dict(checkpoint_every_bytes=100), dict(records=1, bytes=100), True, False),
        (dict(checkpoint_every_bytes=100), dict(records=0, bytes=500), False, False),
        # Either trigger suffices.
        (
            dict(checkpoint_every_records=10, checkpoint_every_bytes=100),
            dict(records=2, bytes=150),
            True,
            False,
        ),
        # Compaction fires independently of checkpoints.
        (dict(compact_every_records=2), dict(records=2, bytes=50), False, True),
        (dict(compact_every_records=2), dict(records=1, bytes=50), False, False),
        # No triggers configured: nothing fires.
        (dict(), dict(records=10**6, bytes=10**12), False, False),
    ]

    @pytest.mark.parametrize("kwargs, state, checkpoint, compact", MATRIX)
    def test_trigger_matrix(self, kwargs, state, checkpoint, compact):
        policy = DurabilityPolicy(**kwargs)
        assert policy.checkpoint_due(state) is checkpoint
        assert policy.compact_due(state) is compact

    def test_roundtrip(self):
        policy = DurabilityPolicy(
            checkpoint_every_records=5,
            checkpoint_every_bytes=4096,
            checkpoint_on_close=False,
            compact_every_records=3,
            replay_on_open=False,
        )
        back = DurabilityPolicy.from_dict(json.loads(json.dumps(policy.to_dict())))
        assert back == policy
