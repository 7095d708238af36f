"""The zero-churn query engine: QuerySession equivalence and caching.

The session's contract is *bitwise identity*: every cached artefact is a
deterministic function of the dataset, so warm and batch answers must
match the cold ``ds_search`` / ``gi_ds_search`` paths exactly -- region
coordinates, distance, and representation.  Plus regression tests for
the δ-aware initial-frontier pruning and the stats-snapshot fix.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ASRSQuery, Rect
from repro.dssearch import SearchSettings, ds_search
from repro.dssearch.canonical import TieCollectingEngine, run_pass1, run_pass2
from repro.dssearch.search import DSSearchEngine
from repro.engine import QuerySession
from repro.engine.updates import UpdateBatch
from repro.index import GridIndex, candidate_cell_arrays, gi_ds_search

from .conftest import make_random_dataset, random_aggregator

SMALL = SearchSettings(ncol=6, nrow=6, max_depth=16)


def _random_instance(seed: int, n: int):
    rng = np.random.default_rng(seed)
    dataset = make_random_dataset(rng, n, extent=60.0)
    aggregator = random_aggregator()
    dim = aggregator.dim(dataset)
    query = ASRSQuery.from_vector(
        13.0, 9.0, aggregator, rng.uniform(0.0, 4.0, dim)
    )
    return dataset, query


def _same_result(a, b) -> bool:
    return (
        a.region == b.region
        and a.distance == b.distance
        and np.array_equal(a.representation, b.representation)
    )


class TestSessionEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 60))
    def test_warm_gids_bitwise_identical_to_cold(self, seed, n):
        dataset, query = _random_instance(seed, n)
        session = QuerySession(dataset, settings=SMALL)
        cold = gi_ds_search(
            dataset, query, granularity=session.granularity, settings=SMALL
        )
        first = session.solve(query)
        warm = session.solve(query)  # every cache hit
        assert _same_result(cold, first)
        assert _same_result(cold, warm)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 60))
    def test_warm_ds_bitwise_identical_to_cold(self, seed, n):
        dataset, query = _random_instance(seed, n)
        session = QuerySession(dataset, settings=SMALL)
        cold = ds_search(dataset, query, SMALL)
        warm = session.solve(query, method="ds")
        warm2 = session.solve(query, method="ds")
        assert _same_result(cold, warm)
        assert _same_result(cold, warm2)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_solve_batch_identical_to_fresh_runs(self, seed):
        rng = np.random.default_rng(seed)
        dataset = make_random_dataset(rng, 40, extent=60.0)
        aggregator = random_aggregator()
        dim = aggregator.dim(dataset)
        # Shared aggregator and sizes across the batch, varying targets
        # (plus one size change to exercise a reduction-cache miss).
        queries = [
            ASRSQuery.from_vector(12.0, 8.0, aggregator, rng.uniform(0, 4, dim))
            for _ in range(4)
        ] + [
            ASRSQuery.from_vector(9.0, 9.0, aggregator, rng.uniform(0, 4, dim))
        ]
        session = QuerySession(dataset, settings=SMALL)
        batch = session.solve_batch(queries)
        for query, got in zip(queries, batch):
            cold = gi_ds_search(
                dataset, query, granularity=session.granularity, settings=SMALL
            )
            assert _same_result(cold, got)

    def test_batch_with_delta_matches_cold_approx(self):
        dataset, query = _random_instance(99, 50)
        session = QuerySession(dataset, settings=SMALL)
        warm = session.solve(query, delta=0.4)
        cold = gi_ds_search(
            dataset,
            query,
            granularity=session.granularity,
            settings=SMALL,
            delta=0.4,
        )
        assert _same_result(cold, warm)

    def test_empty_dataset(self):
        full = make_random_dataset(np.random.default_rng(1), 5, extent=10.0)
        empty = full.subset(np.zeros(full.n, dtype=bool))
        aggregator = random_aggregator()
        query = ASRSQuery.from_vector(
            2.0, 2.0, aggregator, np.zeros(aggregator.dim(empty))
        )
        session = QuerySession(empty, settings=SMALL)
        result = session.solve(query)
        cold = gi_ds_search(empty, query, settings=SMALL)
        assert _same_result(cold, result)


class TestSessionCaching:
    def test_caches_are_shared_across_batch(self):
        dataset, query = _random_instance(7, 40)
        session = QuerySession(dataset, settings=SMALL)
        session.solve_batch([query] * 5)
        info = session.cache_info()
        assert info["index_built"]
        assert info["compilers"] == 1
        assert info["channel_tables"] == 1
        assert info["contexts"] == 1
        assert info["empty_reps"] == 1
        assert info["reductions"] == 1
        assert info["lattices"] == 1
        assert info["cached_spaces"] >= 1

    def test_distinct_sizes_fill_reduction_cache(self):
        rng = np.random.default_rng(3)
        dataset = make_random_dataset(rng, 30, extent=60.0)
        aggregator = random_aggregator()
        dim = aggregator.dim(dataset)
        target = rng.uniform(0, 3, dim)
        session = QuerySession(dataset, settings=SMALL)
        session.solve(ASRSQuery.from_vector(10.0, 10.0, aggregator, target))
        session.solve(ASRSQuery.from_vector(5.0, 5.0, aggregator, target))
        info = session.cache_info()
        assert info["reductions"] == 2
        assert info["lattices"] == 2
        assert info["compilers"] == 1  # same aggregator object

    def test_method_validation(self):
        dataset, query = _random_instance(11, 10)
        session = QuerySession(dataset, settings=SMALL)
        with pytest.raises(ValueError, match="method"):
            session.solve(query, method="bogus")

    @pytest.mark.parametrize(
        "bad",
        [
            "AUTO",  # regression: used to splat 'A','U','T','O' into build
            "64",
            "64,64",
            (64,),
            (0, 64),
            (-3, 4),
            (64.0, 64),
            (True, True),
            64,
            None,
        ],
    )
    def test_granularity_validation(self, bad):
        dataset, _ = _random_instance(11, 10)
        with pytest.raises(ValueError, match="granularity"):
            QuerySession(dataset, granularity=bad, settings=SMALL)

    def test_granularity_accepts_auto_and_int_pairs(self):
        dataset, query = _random_instance(11, 10)
        assert QuerySession(dataset, settings=SMALL).granularity[0] >= 8
        session = QuerySession(
            dataset, granularity=(np.int64(5), 7), settings=SMALL
        )
        assert session.granularity == (5, 7)
        session.solve(query)  # the pair reaches GridIndex.build intact
        assert (session.index.sx, session.index.sy) == (5, 7)

    def test_clear_caches_preserves_answers(self):
        dataset, query = _random_instance(13, 30)
        session = QuerySession(dataset, settings=SMALL)
        first = session.solve(query)
        session.clear_caches()
        assert session.cache_info()["cached_spaces"] == 0
        assert not session.cache_info()["index_built"]
        again = session.solve(query)
        assert _same_result(first, again)


class TestDeltaThresholdPruning:
    """Regression: the initial cell frontier prunes against the δ-aware
    threshold ``best / (1 + δ)``, not the raw incumbent."""

    def _expected_pruned(self, dataset, query, index, delta):
        engine = DSSearchEngine(dataset, query, SMALL, delta=delta)
        x0, y0, lbs = candidate_cell_arrays(index, engine, query)
        threshold = engine.best_distance / (1.0 + delta)
        return int(x0.size - np.count_nonzero(lbs < threshold)), lbs, engine

    def test_initial_frontier_uses_delta_threshold(self):
        found_gap = False
        for seed in range(8):
            dataset, query = _random_instance(seed, 40)
            if dataset.n == 0:
                continue
            index = GridIndex.build(dataset, 6, 6)
            for delta in (0.0, 3.0):
                expected, lbs, engine = self._expected_pruned(
                    dataset, query, index, delta
                )
                # probe_cells=0 keeps the incumbent at the empty-region
                # seed, making the expected count exactly reproducible.
                _, stats = gi_ds_search(
                    dataset,
                    query,
                    index=index,
                    settings=SMALL,
                    delta=delta,
                    probe_cells=0,
                    return_stats=True,
                )
                assert stats.pruned_cells == expected
                if delta > 0:
                    threshold = engine.best_distance / (1.0 + delta)
                    in_gap = np.count_nonzero(
                        (lbs >= threshold) & (lbs < engine.best_distance)
                    )
                    found_gap = found_gap or in_gap > 0
        # At least one instance must exercise the δ-gap, otherwise this
        # regression test would pass vacuously even with the old code.
        assert found_gap

    def test_approx_result_within_factor(self):
        dataset, query = _random_instance(21, 50)
        exact = gi_ds_search(dataset, query, granularity=(6, 6), settings=SMALL)
        approx = gi_ds_search(
            dataset, query, granularity=(6, 6), settings=SMALL, delta=0.5
        )
        assert approx.distance <= (1.0 + 0.5) * exact.distance + 1e-9


class TestStatsSnapshot:
    def test_search_stats_are_a_copy(self):
        dataset, query = _random_instance(5, 30)
        engine = DSSearchEngine(dataset, query, SMALL)
        _, stats = gi_ds_search(
            dataset,
            query,
            granularity=(6, 6),
            settings=SMALL,
            return_stats=True,
            engine=engine,
        )
        assert stats.search is not engine.stats.__dict__
        before = dict(stats.search)
        engine.stats.spaces_processed += 1000
        engine.stats.extra["poisoned"] = True
        assert stats.search == before


class TestVerifiedCandidates:
    @pytest.mark.parametrize("seed", (3, 5, 11))
    def test_session_and_cold_gids_count_the_same_verifications(self, seed):
        dataset, query = _random_instance(seed, 50)
        session = QuerySession(dataset, settings=SMALL)
        cold_result, cold = gi_ds_search(
            dataset,
            query,
            granularity=session.granularity,
            settings=SMALL,
            return_stats=True,
        )
        for _ in range(2):  # a cold-cache and a warm-cache solve
            result, warm = session.solve(query, return_stats=True)
            assert _same_result(result, cold_result)
            assert (
                warm.search["verified_candidates"]
                == cold.search["verified_candidates"]
            )
        # Every incumbent update is verified first.
        assert cold.search["verified_candidates"] >= cold.search["incumbent_updates"]
        assert cold.search["incumbent_updates"] >= 1

    def test_pass2_counts_its_tie_checks(self):
        dataset, query = _random_instance(5, 50)
        dstar = run_pass1(DSSearchEngine(dataset, query, SMALL))
        collector = TieCollectingEngine(dataset, query, SMALL)
        tied = run_pass2(collector, dstar)
        assert collector.stats.verified_candidates >= len(tied) >= 1


class TestCanonicalRootSeeds:
    """Hole-free canonical solves seed both passes from the session's
    space memo for their shape (roots and split children); the reuse
    never changes an answer, and an update keeps only the entries no
    changed rectangle touches."""

    @staticmethod
    def _accumulations(session, monkeypatch) -> list:
        """Per engine the session assembles from now on, its stats."""
        made = []
        original = session._engine

        def recording(*args, **kwargs):
            engine = original(*args, **kwargs)
            made.append(engine.stats)
            return engine

        monkeypatch.setattr(session, "_engine", recording)
        return made

    @staticmethod
    def _summed_keys(monkeypatch) -> list:
        """The memo key of every space any engine sums from now on."""
        keys = []
        original = DSSearchEngine._accumulation

        def recording(self, grid, space, active, root):
            before = self.stats.accumulations
            out = original(self, grid, space, active, root)
            if self.stats.accumulations > before:
                keys.append(
                    (root, space.x_min, space.y_min, space.x_max, space.y_max)
                )
            return out

        monkeypatch.setattr(DSSearchEngine, "_accumulation", recording)
        return keys

    def _queries(self, seed: int = 41):
        dataset, query = _random_instance(seed, 60)
        rng = np.random.default_rng(seed)
        other = ASRSQuery.from_vector(
            query.width,
            query.height,
            query.aggregator,
            rng.uniform(0.0, 4.0, query.aggregator.dim(dataset)),
        )
        return dataset, query, other

    def test_second_solve_of_a_shape_computes_no_root(self, monkeypatch):
        dataset, query, other = self._queries()
        session = QuerySession(dataset, settings=SMALL)
        made = self._accumulations(session, monkeypatch)
        summed = self._summed_keys(monkeypatch)
        session.solve_canonical(query)
        # Pass 2 re-walked pass 1's spaces without summing them again.
        assert made[0].accumulations == session.cache_info()["cached_spaces"] >= 1
        assert made[1].accumulations == 0
        (memo,) = session._spaces.values()
        roots = {key for key in memo if key[0]}
        assert roots
        # Another target of the shape adds and sums no root: every root
        # it searches is served by key.  Its split children follow its
        # own search, so only they may be new.
        summed.clear()
        first = session.solve_canonical(other)
        assert {key for key in memo if key[0]} == roots
        assert not [key for key in summed if key[0]]
        made.clear()
        session.solve_canonical(query)
        session.solve_canonical_with_epoch(query)
        assert [stats.accumulations for stats in made] == [0, 0, 0, 0]
        # A hole cuts new pieces: those spaces are memoized per solve
        # and never stored.
        before = session.cache_info()["cached_spaces"]
        made.clear()
        session.solve_canonical(query, holes=(first.region,))
        assert sum(stats.accumulations for stats in made) >= 1
        assert session.cache_info()["cached_spaces"] == before

    def test_seeded_answers_equal_cold_sessions(self):
        dataset, query, other = self._queries(43)
        session = QuerySession(dataset, settings=SMALL)
        for q in (query, other, query):
            cold = QuerySession(dataset, settings=SMALL).solve_canonical(q)
            assert _same_result(session.solve_canonical(q), cold)

    def test_clear_caches_drops_the_seeds(self):
        dataset, query, _ = self._queries()
        session = QuerySession(dataset, settings=SMALL)
        session.warm_for(query)
        warm = session.cache_nbytes()
        session.solve_canonical(query)
        assert session.cache_info()["cached_spaces"] >= 1
        assert session.cache_nbytes() > warm
        session.clear_caches()
        assert session.cache_info()["cached_spaces"] == 0
        assert session.cache_nbytes() == 0

    def test_update_keeps_untouched_seeds(self):
        """An update drops the spaces a changed rectangle touches (here
        the whole-bounds piece) and keeps the rest: a tile's piece far
        from every change keeps its root entry, still the global
        overlap set of the piece."""
        dataset, query, other = self._queries(47)
        session = QuerySession(dataset, settings=SMALL)
        left = Rect(-100.0, -100.0, 20.0, 200.0)
        session.solve_canonical(query)
        session.solve_canonical(query, domain=left)
        rects = session.reduction_for(query.width, query.height)[0]
        bounds = rects.bounds()
        piece = bounds.intersection(left)
        whole_key = (True, bounds.x_min, bounds.y_min, bounds.x_max, bounds.y_max)
        piece_key = (True, piece.x_min, piece.y_min, piece.x_max, piece.y_max)
        (memo,) = session._spaces.values()
        assert whole_key in memo and piece_key in memo
        # Change rows without moving the bounds, all far right of the
        # tile: their query-sized rectangles cannot reach its piece.
        b = dataset.bounds()
        right = [
            int(i)
            for i in np.flatnonzero(dataset.xs > 45.0)
            if b.x_min < dataset.xs[i] < b.x_max
            and b.y_min < dataset.ys[i] < b.y_max
        ][:4]
        assert len(right) >= 2
        before = session.cache_info()["cached_spaces"]
        stats = session.apply(
            UpdateBatch(
                delete=right,
                append=[(50.0, 30.0, {"kind": "k0", "score": 1.0})],
            )
        )
        assert stats.cell_entries_kept + stats.cell_entries_dropped == before
        assert stats.cell_entries_kept >= 1 and stats.cell_entries_dropped >= 1
        (memo,) = session._spaces.values()
        assert len(memo) == stats.cell_entries_kept
        assert whole_key not in memo
        rects = session.reduction_for(query.width, query.height)[0]
        assert np.array_equal(
            memo[piece_key][0], np.flatnonzero(rects.overlap_mask(piece))
        )
        for q in (query, other):
            cold = QuerySession(session.dataset, settings=SMALL)
            for domain in (None, left):
                assert _same_result(
                    session.solve_canonical(q, domain=domain),
                    cold.solve_canonical(q, domain=domain),
                )

    def test_topk_with_holes_equals_cold_session(self):
        dataset, query, other = self._queries(53)
        session = QuerySession(dataset, settings=SMALL)
        session.solve_canonical(other)  # the shape's seeds are warm
        warm = session.solve_canonical_topk(query, 3)
        cold = QuerySession(dataset, settings=SMALL)
        cold = cold.solve_canonical_topk(query, 3)
        assert len(warm) == len(cold) == 3
        for a, b in zip(warm, cold):
            assert _same_result(a, b)
