"""The four serving-stack races, explored deterministically.

Each test runs a real engine scenario -- pool eviction vs. an
in-flight solve, the update gate vs. a query, WAL append vs.
checkpoint, facade health transitions vs. queries -- under the
cooperative interleaving harness with pinned seeds, with the sanitizer
checking lock order and guarded access at every step.  Passing means:
no lock-order inversion, no unguarded access, no deadlock, and the
answers still match serial execution bitwise.  The closing test pins
the cross-module acquisition edges the runs actually observed, so a
refactor that changes the locking shape (the ROADMAP's process-shard
work) shows up here first.
"""

import numpy as np
import pytest

from repro.analysis import sanitizer
from repro.analysis.interleave import run_interleaved
from repro.core import ASRSQuery
from repro.dssearch import SearchSettings
from repro.engine import QuerySession, SessionPool, UpdateBatch, WriteAheadLog
from repro.service import DatasetSpec, QueryRequest, RegionService, UpdateRequest

from ..conftest import make_random_dataset, random_aggregator

TINY = SearchSettings(ncol=5, nrow=5, max_depth=10)
SEEDS = (0, 7, 42)


def _workload(seed=11, n=30):
    rng = np.random.default_rng(seed)
    dataset = make_random_dataset(rng, n, extent=40.0)
    aggregator = random_aggregator()
    query = ASRSQuery.from_vector(
        10.0, 8.0, aggregator, rng.uniform(0, 4, aggregator.dim(dataset))
    )
    return dataset, query


def _same_result(a, b) -> bool:
    return (
        a.region == b.region
        and a.distance == b.distance
        and np.array_equal(a.representation, b.representation)
    )


class TestPoolEvictionVsSolve:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_evicting_mid_solve_is_clean_and_bitwise(self, seed):
        dataset, query = _workload()
        other = make_random_dataset(np.random.default_rng(5), 20, extent=40.0)
        serial = QuerySession(dataset, settings=TINY).solve(query)

        pool = SessionPool(max_sessions=1, settings=TINY)
        session = pool.session("a", dataset)
        results = []

        def solver():
            results.append(session.solve(query))

        def evictor():
            # Forces "a" out (max_sessions=1): _evict_lru clears the
            # solving session's caches under the pool lock, mid-solve.
            pool.session("b", other)

        run_interleaved([solver, evictor], seed=seed)
        assert pool.info()["evictions"] >= 1
        assert _same_result(results[0], serial)


class TestUpdateGateVsQuery:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_apply_races_solve_without_torn_state(self, seed):
        dataset, query = _workload()
        session = QuerySession(dataset, settings=TINY)
        pre = QuerySession(dataset, settings=TINY).solve(query)
        batch = UpdateBatch(delete=[0, 1])
        post_ds = dataset.delete([0, 1])
        post = QuerySession(post_ds, settings=TINY).solve(query)
        results = []

        def solver():
            results.append(session.solve(query))

        def updater():
            session.apply(batch)

        run_interleaved([solver, updater], seed=seed)
        # The gate guarantees the solve saw pre- or post-update state,
        # never a mix -- so the answer matches one of the two serial
        # worlds bitwise.
        assert _same_result(results[0], pre) or _same_result(results[0], post)
        assert session.epoch == 1


class TestSpaceMemoVsUpdates:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_memo_fills_race_updates_bitwise(self, seed):
        """Two solvers fill one shape's space memo (GI-DS and canonical
        solves, lock-free) while an updater applies batches that keep
        some entries and drop others; every answer equals a cold
        session at the epoch it was served at."""
        dataset, query = _workload(seed=19, n=60)
        rng = np.random.default_rng(seed)
        other = ASRSQuery.from_vector(
            query.width,
            query.height,
            query.aggregator,
            rng.uniform(0, 4, query.aggregator.dim(dataset)),
        )
        b = dataset.bounds()
        batches = [
            UpdateBatch(delete=[3, 4]),
            UpdateBatch(
                append=[
                    (b.x_min + 5.0, b.y_min + 5.0, {"kind": "k1", "score": 2.0})
                ]
            ),
        ]
        datasets = [dataset]
        replay = QuerySession(dataset, settings=TINY)
        for batch in batches:
            replay.apply(batch)
            datasets.append(replay.dataset)

        session = QuerySession(dataset, settings=TINY)
        session.solve(query)  # entries for the updater to carry forward
        results = []

        def solver(first, second):
            def run():
                for q in (first, second):
                    results.append(("gids", q, *session.solve_with_epoch(q)))
                    results.append(
                        ("canonical", q, *session.solve_canonical_with_epoch(q))
                    )

            return run

        def updater():
            for batch in batches:
                session.apply(batch)

        run_interleaved(
            [solver(query, other), solver(other, query), updater], seed=seed
        )
        assert session.epoch == len(batches)
        assert session.cache_info()["cached_spaces"] >= 1
        cold = [QuerySession(ds, settings=TINY) for ds in datasets]
        assert len(results) == 8
        for kind, q, got, epoch in results:
            want = (
                cold[epoch].solve(q)
                if kind == "gids"
                else cold[epoch].solve_canonical(q)
            )
            assert _same_result(got, want), (kind, epoch)


class TestWalAppendVsCheckpoint:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_append_races_checkpoint_and_state(self, seed, tmp_path):
        dataset, _ = _workload()
        wal = WriteAheadLog(tmp_path / f"race-{seed}.wal")
        session = QuerySession(dataset, settings=TINY)
        session.attach_wal(wal)
        batch = UpdateBatch(delete=[2])
        states = []

        def appender():
            session.apply(batch)

        def checkpointer():
            # Observes the log and checkpoints whatever epoch the
            # session has reached -- racing the append's frame write.
            states.append(wal.state())
            wal.checkpoint(session.epoch)
            states.append(wal.state())

        run_interleaved([appender, checkpointer], seed=seed)
        final = wal.state()
        # However the schedule fell, the log is consistent: every
        # surviving record is newer than the checkpoint epoch.
        assert session.epoch == 1
        assert final["records"] in (0, 1)
        assert all(s["records"] >= 0 for s in states)


class TestFacadeHealthVsQuery:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_update_health_transition_races_query(self, seed, tmp_path):
        dataset, _ = _workload()
        service = RegionService(settings=TINY)
        service.open(
            DatasetSpec(key="d", wal=str(tmp_path / f"svc-{seed}.wal")),
            dataset=dataset,
        )
        rng = np.random.default_rng(11)
        aggregator = random_aggregator()
        request = QueryRequest(
            dataset="d",
            terms=("fD:kind", "fS:score", "fA:score@kind=k0"),
            width=10.0,
            height=8.0,
            target=tuple(rng.uniform(0, 4, aggregator.dim(dataset))),
        )
        answers = []

        def querier():
            answers.append(service.query(request))

        def mutator():
            service.update(UpdateRequest(dataset="d", delete=(3,)))

        run_interleaved([querier, mutator], seed=seed)
        health = service.health()
        assert health["state"] == "ok"
        assert health["datasets"]["d"]["state"] == "ok"
        assert answers[0].epoch in (0, 1)


class TestObservedOrderGraph:
    def test_cross_module_edges_match_declared_ranking(self):
        # One eviction-under-pressure run exercises the deepest chain
        # the serving stack has: pool lock -> session caches (evict)
        # and pool lock -> WAL state (info).
        dataset, query = _workload()
        other = make_random_dataset(np.random.default_rng(9), 20, extent=40.0)
        pool = SessionPool(max_sessions=1, settings=TINY)
        session = pool.session("a", dataset)
        session.solve(query)
        pool.session("b", other)
        pool.info()

        graph = sanitizer.order_graph()
        assert graph["enabled"]
        edges = {(e["outer"], e["inner"]) for e in graph["edges"]}
        assert ("SessionPool._lock", "QuerySession._memo_lock") in edges
        # Every observed edge respects the declared outermost-first
        # ranking -- the runtime proof behind guards.LOCK_ORDER.
        from repro.analysis.guards import LOCK_RANK

        for outer, inner in edges:
            if outer in LOCK_RANK and inner in LOCK_RANK:
                assert LOCK_RANK[outer] < LOCK_RANK[inner], (outer, inner)
