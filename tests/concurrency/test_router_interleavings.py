"""Concurrent routed queries under pinned schedules (DESIGN.md §15.7).

Routed queries hold the router gate shared, so two of them fan out to
the shards at once, while an update holds it exclusively.  These cases
drive a two-shard :class:`ShardRouter` through ``LocalShardBackend``
under the interleaving harness, with the sanitizer checking lock order
and guarded access at every step:

* two concurrent queries return the bitwise answers of a serial run;
* an update racing two queries never yields a result whose region,
  score or epoch mixes the pre-update and post-update states, including
  an update that commits the instant a query leaves the gate.
"""

import contextlib
import dataclasses

import numpy as np
import pytest

from repro.analysis.interleave import run_interleaved
from repro.core.objects import SpatialDataset
from repro.service.types import QueryRequest, UpdateRequest
from repro.shard import ShardPlan, ShardRouter, split_dataset

from ..conftest import make_random_dataset

#: For the update race, seed 0 lands the update before both queries,
#: seed 42 after both, and seed 1 between them.
SEEDS = (0, 1, 42)

REQ = QueryRequest(
    dataset="default",
    terms=("fD:kind", "fA:score"),
    width=8.0,
    height=8.0,
    target=(1.0, 1.0, 1.0, 5.0),
)
OTHER = dataclasses.replace(REQ, width=5.0, height=9.5, target=(0.0, 2.0, 0.5, 1.0))


def _router(tmp_path, dataset):
    plan = ShardPlan.build(dataset, 2, 1, wmax=12.0, hmax=12.0)
    specs = split_dataset(
        dataset, plan, str(tmp_path), categorical=("kind",), numeric=("score",)
    )
    return ShardRouter(plan, specs, dataset, backend="local")


def _answer(result):
    return (
        result.region,
        result.score.hex(),
        np.asarray(result.representation, dtype=np.float64).tobytes(),
        result.epoch,
    )


def _dataset():
    return make_random_dataset(np.random.default_rng(7100), 40, extent=80.0)


class TestConcurrentQueries:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_two_queries_match_serial_bitwise(self, seed, tmp_path):
        router = _router(tmp_path, _dataset())
        try:
            serial = {
                "a": _answer(router.query(REQ)),
                "b": _answer(router.query(OTHER)),
            }
            got = {}
            run_interleaved(
                [
                    lambda: got.__setitem__("a", _answer(router.query(REQ))),
                    lambda: got.__setitem__("b", _answer(router.query(OTHER))),
                ],
                seed=seed,
            )
            assert got == serial
        finally:
            router.close()


def _worlds(tmp_path):
    """The dataset, an update that moves the answer, and the serial
    answers before (epoch 0) and after it (epoch 1)."""
    dataset = _dataset()
    pre_router = _router(tmp_path / "pre", dataset)
    try:
        pre = _answer(pre_router.query(REQ))
    finally:
        pre_router.close()
    # Delete every row inside the pre-update winner, so the update
    # provably moves the answer.
    x0, y0, x1, y1 = pre[0]
    inside = (
        (dataset.xs >= x0) & (dataset.xs <= x1)
        & (dataset.ys >= y0) & (dataset.ys <= y1)
    )
    update = UpdateRequest(
        dataset="default",
        delete=tuple(int(i) for i in np.flatnonzero(inside)),
        append=((41.0, 12.0, {"kind": "k1", "score": 2.0}),),
    )
    post_data = dataset.subset(~inside).append(
        SpatialDataset.from_records(list(update.append), dataset.schema)
    )
    post_router = _router(tmp_path / "post", post_data)
    try:
        post = _answer(post_router.query(REQ))
    finally:
        post_router.close()
    assert pre[:3] != post[:3]
    return dataset, update, pre, post[:3] + (1,)


class TestUpdateVsQueries:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_update_never_yields_a_mixed_answer(self, seed, tmp_path):
        dataset, update, pre, post = _worlds(tmp_path)
        router = _router(tmp_path / "raced", dataset)
        try:
            answers = []
            run_interleaved(
                [
                    lambda: answers.append(_answer(router.query(REQ))),
                    lambda: router.update(update),
                    lambda: answers.append(_answer(router.query(REQ))),
                ],
                seed=seed,
            )
            assert router.epoch == 1
            assert len(answers) == 2
            for answer in answers:
                assert answer in (pre, post)
            assert _answer(router.query(REQ)) == post
        finally:
            router.close()

    def test_update_landing_at_gate_release_keeps_epoch_paired(self, tmp_path):
        # The tightest race: the update commits the instant the query
        # leaves the gate.  The query's epoch must already be read.
        dataset, update, pre, post = _worlds(tmp_path)
        router = _router(tmp_path / "raced", dataset)
        shared = router._gate.shared
        landed = []

        @contextlib.contextmanager
        def shared_then_update():
            with shared():
                yield
            if not landed:
                landed.append(router.update(update))

        router._gate.shared = shared_then_update
        try:
            assert _answer(router.query(REQ)) == pre
            assert landed and router.epoch == 1
            assert _answer(router.query(REQ)) == post
        finally:
            router.close()
