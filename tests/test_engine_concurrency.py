"""Concurrency tests for the serving layer (DESIGN.md §8).

The contract under test: concurrent ``solve`` / ``solve_batch`` calls
on one shared :class:`QuerySession` -- and solves routed through a
:class:`SessionPool` under eviction pressure -- return results
bitwise-identical to serial execution.  Every cached artefact is a
deterministic function of the dataset, so a data race could only show
up as a corrupted artefact or a torn cache; these tests hammer exactly
those paths.
"""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core import ASRSQuery, Rect
from repro.dssearch import SearchSettings
from repro.engine import QuerySession, SessionPool

from .conftest import make_random_dataset, random_aggregator

SMALL = SearchSettings(ncol=6, nrow=6, max_depth=16)


def _same_result(a, b) -> bool:
    return (
        a.region == b.region
        and a.distance == b.distance
        and np.array_equal(a.representation, b.representation)
    )


def _workload(seed: int, n: int, n_queries: int):
    """A mixed workload: one shared aggregator, two region sizes."""
    rng = np.random.default_rng(seed)
    dataset = make_random_dataset(rng, n, extent=60.0)
    aggregator = random_aggregator()
    dim = aggregator.dim(dataset)
    queries = []
    for i in range(n_queries):
        width, height = (12.0, 8.0) if i % 2 == 0 else (9.0, 9.0)
        queries.append(
            ASRSQuery.from_vector(
                width, height, aggregator, rng.uniform(0, 4, dim)
            )
        )
    return dataset, queries


class TestConcurrentSession:
    def test_threads_match_serial_bitwise(self):
        """8 threads x repeated queries == the serial answers, bit for bit."""
        dataset, queries = _workload(17, 60, 10)
        serial_session = QuerySession(dataset, settings=SMALL)
        serial = [serial_session.solve(q) for q in queries]

        shared = QuerySession(dataset, settings=SMALL)
        jobs = [queries[i % len(queries)] for i in range(40)]
        with ThreadPoolExecutor(max_workers=8) as ex:
            results = list(ex.map(shared.solve, jobs))
        for i, got in enumerate(results):
            assert _same_result(got, serial[i % len(serial)])

    def test_concurrent_cold_start_computes_artefacts_once(self):
        """All threads racing on a cold session must converge on one
        artefact per key (downstream caches key by ``id()``)."""
        dataset, queries = _workload(23, 40, 6)
        session = QuerySession(dataset, settings=SMALL)
        barrier = threading.Barrier(6)

        def hammer(q):
            barrier.wait()
            return session.solve(q)

        with ThreadPoolExecutor(max_workers=6) as ex:
            list(ex.map(hammer, queries[:6]))
        info = session.cache_info()
        assert info["compilers"] == 1
        assert info["channel_tables"] == 1
        assert info["contexts"] == 1
        assert info["reductions"] == 2  # two region sizes
        assert info["lattices"] == 2

    def test_thread_pool_batch_identical_to_serial(self):
        dataset, queries = _workload(31, 50, 8)
        session = QuerySession(dataset, settings=SMALL)
        serial = session.solve_batch(queries)
        with ThreadPoolExecutor(max_workers=4) as ex:
            parallel = list(ex.map(session.solve, queries))
        cold = QuerySession(dataset, settings=SMALL)
        with ThreadPoolExecutor(max_workers=4) as ex:
            cold_parallel = list(ex.map(cold.solve, queries))
        assert len(parallel) == len(queries)
        for s, p, c in zip(serial, parallel, cold_parallel):
            assert _same_result(s, p)
            assert _same_result(s, c)

    def test_thread_pool_solves_with_stats(self):
        dataset, queries = _workload(37, 30, 4)
        session = QuerySession(dataset, settings=SMALL)
        with ThreadPoolExecutor(max_workers=2) as ex:
            results = list(
                ex.map(lambda q: session.solve(q, return_stats=True), queries)
            )
        serial = session.solve_batch(queries, return_stats=True)
        for (r_p, s_p), (r_s, s_s) in zip(results, serial):
            assert _same_result(r_p, r_s)
            assert s_p.total_cells == s_s.total_cells

    def test_concurrent_mixed_methods(self):
        """gids and ds solves interleaved on one session stay correct."""
        dataset, queries = _workload(41, 40, 6)
        session = QuerySession(dataset, settings=SMALL)
        expected = {
            ("gids", i): session.solve(q) for i, q in enumerate(queries)
        }
        expected.update(
            {("ds", i): session.solve(q, method="ds") for i, q in enumerate(queries)}
        )

        def run(job):
            method, i = job
            return job, session.solve(queries[i], method=method)

        jobs = [(m, i) for m in ("gids", "ds") for i in range(len(queries))] * 3
        with ThreadPoolExecutor(max_workers=8) as ex:
            for job, got in ex.map(run, jobs):
                assert _same_result(got, expected[job])

    def test_repopulated_entries_pin_their_key_objects(self):
        """Regression: entries repopulated after a mid-solve clear must
        pin the object whose id() keys them -- otherwise the object can
        be collected and its id reused by a different aggregator, which
        would then hit the stale artefact."""
        dataset, queries = _workload(47, 30, 2)
        session = QuerySession(dataset, settings=SMALL)
        compiler = session.compiler_for(queries[0].aggregator)
        session.clear_caches()  # compiler no longer referenced by _compilers
        session.channel_tables(compiler)
        session.context_for(compiler)
        assert id(compiler) in session._pins
        assert session._pins[id(compiler)] is compiler

    def test_clear_caches_during_solves_is_safe(self):
        """A concurrent clear (what pool eviction does) must never
        change answers, only force lazy re-warming."""
        dataset, queries = _workload(43, 50, 6)
        session = QuerySession(dataset, settings=SMALL)
        serial = [session.solve(q) for q in queries]
        stop = threading.Event()

        def clearer():
            while not stop.is_set():
                session.clear_caches()

        thread = threading.Thread(target=clearer)
        thread.start()
        try:
            with ThreadPoolExecutor(max_workers=4) as ex:
                for round_results in [
                    list(ex.map(session.solve, queries)) for _ in range(3)
                ]:
                    for got, want in zip(round_results, serial):
                        assert _same_result(got, want)
        finally:
            stop.set()
            thread.join()

    def test_canonical_solves_share_root_seeds_bitwise(self):
        """Concurrent canonical solves fill one session's root-seed map
        (whole bounds and two tiles per shape) while a clearer empties
        it; every answer equals the serial one, bit for bit."""
        dataset, queries = _workload(53, 60, 6)
        tiles = (
            None,
            Rect(-20.0, -20.0, 30.0, 80.0),
            Rect(30.0, -20.0, 80.0, 80.0),
        )
        jobs = [(i, t) for i in range(len(queries)) for t in range(len(tiles))]
        reference = QuerySession(dataset, settings=SMALL)
        expected = {
            (i, t): reference.solve_canonical(queries[i], domain=tiles[t])
            for i, t in jobs
        }
        shared = QuerySession(dataset, settings=SMALL)
        stop = threading.Event()

        def clearer():
            while not stop.wait(0.005):
                shared.clear_caches()

        def run(job):
            i, t = job
            return job, shared.solve_canonical(queries[i], domain=tiles[t])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        thread = threading.Thread(target=clearer)
        thread.start()
        try:
            with ThreadPoolExecutor(max_workers=6) as ex:
                for job, got in ex.map(run, jobs * 3):
                    assert _same_result(got, expected[job])
        finally:
            stop.set()
            thread.join(timeout=60)
            sys.setswitchinterval(interval)
        assert not thread.is_alive()
        for i, t in jobs:  # after the clears, a warm map serves them too
            assert _same_result(
                shared.solve_canonical(queries[i], domain=tiles[t]),
                expected[(i, t)],
            )


class TestSessionPool:
    def test_get_or_create_and_reuse(self):
        dataset, queries = _workload(3, 30, 2)
        pool = SessionPool(settings=SMALL)
        first = pool.session("a", dataset)
        assert pool.session("a") is first
        assert "a" in pool and len(pool) == 1

    def test_unknown_key_raises(self):
        pool = SessionPool()
        with pytest.raises(KeyError, match="unknown session key"):
            pool.session("nope")

    def test_max_sessions_evicts_lru(self):
        datasets = [
            make_random_dataset(np.random.default_rng(s), 20, extent=60.0)
            for s in range(3)
        ]
        pool = SessionPool(max_sessions=2, settings=SMALL)
        s0 = pool.session(0, datasets[0])
        pool.session(1, datasets[1])
        pool.session(0)  # touch 0: key 1 becomes LRU
        pool.session(2, datasets[2])
        assert 0 in pool and 2 in pool and 1 not in pool
        assert pool.info()["evictions"] == 1
        assert pool.session(0) is s0

    def test_byte_budget_eviction_clears_caches(self):
        dataset_a, queries_a = _workload(5, 60, 3)
        dataset_b, queries_b = _workload(7, 60, 3)
        pool = SessionPool(max_bytes=1, settings=SMALL)  # everything over budget
        session_a = pool.session("a", dataset_a)
        pool.session("a").solve_batch(queries_a)
        pool.reaccount("a")
        pool.session("b", dataset_b).solve_batch(queries_b)
        pool.reaccount("b")
        # "a" (LRU) was evicted and its caches dropped; "b" (MRU) survives
        # even though it alone exceeds the budget.
        assert "a" not in pool and "b" in pool
        assert session_a.cache_info()["index_built"] is False
        assert pool.info()["evictions"] >= 1

    def test_explicit_evict_and_clear(self):
        dataset, _ = _workload(9, 20, 2)
        pool = SessionPool(settings=SMALL)
        session = pool.session("a", dataset)
        session.solve(
            ASRSQuery.from_vector(
                5.0,
                5.0,
                random_aggregator(),
                np.zeros(random_aggregator().dim(dataset)),
            )
        )
        assert pool.evict("a") is True
        assert pool.evict("a") is False
        assert session.cache_info()["index_built"] is False
        pool.session("b", dataset)
        pool.clear()
        assert len(pool) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            SessionPool(max_bytes=0)
        with pytest.raises(ValueError):
            SessionPool(max_sessions=0)

    def test_concurrent_solves_under_eviction_pressure(self):
        """Many threads, many datasets, a budget that forces constant
        eviction: every answer must still match its serial baseline."""
        workloads = [_workload(seed, 40, 4) for seed in (11, 13, 19)]
        baselines = []
        for dataset, queries in workloads:
            session = QuerySession(dataset, settings=SMALL)
            baselines.append([session.solve(q) for q in queries])

        pool = SessionPool(max_bytes=1, settings=SMALL)
        for key, (dataset, _) in enumerate(workloads):
            pool.session(key, dataset)

        def run(job):
            key, qi = job
            dataset, queries = workloads[key]
            result = pool.session(key, dataset).solve(queries[qi])
            pool.reaccount(key)
            return job, result

        jobs = [
            (key, qi)
            for key in range(len(workloads))
            for qi in range(4)
        ] * 4
        with ThreadPoolExecutor(max_workers=8) as ex:
            for (key, qi), got in ex.map(run, jobs):
                assert _same_result(got, baselines[key][qi])
        assert pool.info()["evictions"] > 0


class TestPoolMeasurementRace:
    def test_eviction_clear_racing_readmission_is_remeasured(self):
        """Regression: `evict()` runs `clear_caches()` outside the pool
        lock, so it can land *after* a concurrent `apply()` re-admitted
        the same session and measured its (still-warm) footprint.  The
        stale big measurement then overstates the budget forever.  The
        fix re-measures under the pool lock after the clear."""
        from repro.engine import UpdateBatch

        dataset, queries = _workload(23, 60, 2)
        # A (generous) byte budget makes the pool cache measurements --
        # the staleness under test lives in that cache.
        pool = SessionPool(settings=SMALL, max_bytes=1 << 40)
        session = pool.session("a", dataset)
        session.solve(queries[0])
        pool.reaccount("a")
        assert pool.info()["bytes"] > 0

        in_apply = threading.Event()
        apply_go = threading.Event()
        in_clear = threading.Event()
        clear_go = threading.Event()

        real_apply = session.apply
        real_clear = session.clear_caches

        def gated_apply(batch):
            in_apply.set()
            assert apply_go.wait(5)
            return real_apply(batch)

        def gated_clear():
            in_clear.set()
            assert clear_go.wait(5)
            real_clear()

        session.apply = gated_apply
        session.clear_caches = gated_clear

        extra = dataset.subset(np.arange(3))
        apply_thread = threading.Thread(
            target=pool.apply, args=("a", UpdateBatch(append=extra))
        )
        apply_thread.start()
        assert in_apply.wait(5)  # pool.apply is inside session.apply

        evict_thread = threading.Thread(target=pool.evict, args=("a",))
        evict_thread.start()
        assert in_clear.wait(5)  # "a" is popped; clear is pending

        # The apply finishes and re-admits the session, measuring its
        # warm footprint under the pool lock...
        apply_go.set()
        apply_thread.join(timeout=10)
        assert not apply_thread.is_alive()
        assert "a" in pool
        # ...then the delayed clear lands, gutting the caches.
        clear_go.set()
        evict_thread.join(timeout=10)
        assert not evict_thread.is_alive()

        session.clear_caches = real_clear
        session.apply = real_apply
        # The pool must have re-measured after the clear: its cached
        # measurement matches the session's actual footprint.
        assert pool.info()["bytes"] == session.cache_nbytes()


class TestDeterministicInterleavings:
    """The same contracts, explored schedule-by-schedule (DESIGN.md §14).

    The thread-pool tests above sample whatever interleavings the OS
    happens to produce; these runs are *chosen*: the cooperative
    harness replays seeded and systematically-enumerated schedules
    through the sanitizer's yield points, so a regression that only
    bites under one ordering fails the same way every time.
    """

    def test_clear_vs_solve_explored_systematically(self, arm_sanitizer):
        from repro.analysis.interleave import explore

        dataset, queries = _workload(53, 30, 1)
        serial = QuerySession(dataset, settings=SMALL).solve(queries[0])

        def make_tasks():
            session = QuerySession(dataset, settings=SMALL)
            results = []

            def solver():
                results.append(session.solve(queries[0]))
                assert _same_result(results[0], serial)

            return [solver, session.clear_caches]

        # Exhaustive over the first decisions, seeded-random beyond.
        assert explore(make_tasks, rounds=6, depth=2, seed=13) == 6

    def test_pool_eviction_vs_solve_replayable(self, arm_sanitizer):
        from repro.analysis.interleave import run_interleaved

        dataset, queries = _workload(59, 30, 1)
        other = make_random_dataset(np.random.default_rng(61), 20, extent=60.0)
        serial = QuerySession(dataset, settings=SMALL).solve(queries[0])
        for seed in (1, 2, 3):
            pool = SessionPool(max_sessions=1, settings=SMALL)
            session = pool.session("a", dataset)
            results = []

            def solver():
                results.append(session.solve(queries[0]))

            def evictor():
                pool.session("b", other)

            trace = run_interleaved([solver, evictor], seed=seed).trace
            assert _same_result(results[0], serial)
            # Replaying the seed replays the schedule exactly.
            pool2 = SessionPool(max_sessions=1, settings=SMALL)
            session2 = pool2.session("a", dataset)
            results2 = []
            trace2 = run_interleaved(
                [lambda: results2.append(session2.solve(queries[0])),
                 lambda: pool2.session("b", other)],
                seed=seed,
            ).trace
            assert trace2 == trace
            assert _same_result(results2[0], serial)
