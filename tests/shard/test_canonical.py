"""Canonical-solve invariants the shard merge depends on.

``solve_canonical`` must return the same optimal distance as the
schedule-dependent :meth:`QuerySession.solve`, be a pure function of
the problem (bitwise stable across fresh sessions), and decompose: the
minimum of per-tile restricted solves -- each using the router's global
seed -- equals the global answer.  That last property is the merge
lemma :class:`repro.shard.ShardRouter` is built on.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.asp.reduction import region_for_point
from repro.core import (
    ASRSQuery,
    CompositeAggregator,
    DistributionAggregator,
    SelectAll,
)
from repro.core.geometry import Rect
from repro.dssearch.canonical import (
    TieCollectingEngine,
    canonical_seed,
    run_pass1,
    run_pass2,
    solve_canonical,
)
from repro.dssearch.search import DSSearchEngine
from repro.engine.session import QuerySession
from repro.shard import ShardPlan

from ..conftest import make_random_dataset, random_aggregator


def _problem(seed: int = 17, n: int = 45, extent: float = 70.0):
    rng = np.random.default_rng(seed)
    ds = make_random_dataset(rng, n, extent=extent)
    agg = random_aggregator()
    target = rng.uniform(0.0, 4.0, size=agg.dim(ds))
    query = ASRSQuery.from_vector(9.0, 7.0, agg, target)
    return ds, query


def _key(result):
    return (result.region, result.distance, result.representation.tobytes())


class TestCanonicalAnswer:
    def test_same_optimum_as_solve(self):
        ds, query = _problem()
        session = QuerySession(ds)
        plain = session.solve(query)
        canon = session.solve_canonical(query)
        assert canon.distance == plain.distance
        assert np.isfinite(canon.distance)

    def test_bitwise_stable_across_fresh_sessions(self):
        ds, query = _problem(seed=23)
        a = QuerySession(ds).solve_canonical(query)
        b = QuerySession(ds).solve_canonical(query)
        assert _key(a) == _key(b)

    def test_topk_head_is_the_canonical_answer(self):
        ds, query = _problem(seed=29)
        session = QuerySession(ds)
        top = session.solve_canonical_topk(query, 3)
        assert len(top) == 3
        assert _key(top[0]) == _key(session.solve_canonical(query))
        scores = [r.distance for r in top]
        assert scores == sorted(scores)
        regions = {r.region for r in top}
        assert len(regions) == 3

    def test_epoch_variant_matches(self):
        ds, query = _problem(seed=31)
        session = QuerySession(ds)
        result, epoch = session.solve_canonical_with_epoch(query)
        assert epoch == session.epoch
        assert _key(result) == _key(session.solve_canonical(query))


class TestDecomposition:
    """min over per-tile restricted solves == the global answer."""

    @pytest.mark.parametrize("nx,ny", [(2, 1), (3, 2)])
    def test_tile_minimum_equals_global(self, nx, ny):
        ds, query = _problem(seed=41, n=55, extent=80.0)
        plan = ShardPlan.build(ds, nx, ny, wmax=query.width, hmax=query.height)
        session = QuerySession(ds)
        want = session.solve_canonical(query)

        # The router's global seed: rectangle-union bound from the
        # coordinate extremes (router._seed does the same arithmetic).
        bx = float(ds.xs.min()) - query.width
        by = float(ds.ys.min()) - query.height
        seed = canonical_seed(
            Rect(bx, by, bx + 1.0, by + 1.0),
            (),
            SimpleNamespace(width=query.width, height=query.height),
        )

        parts = [
            session.solve_canonical(
                query, domain=plan.tile(s), seed_point=seed
            )
            for s in range(plan.n_shards)
        ]
        best = min(parts, key=lambda r: (r.distance, r.region.x_min, r.region.y_min))
        assert _key(best) == _key(want)

    def test_holes_exclude_prior_answers(self):
        ds, query = _problem(seed=43)
        session = QuerySession(ds)
        first = session.solve_canonical(query)
        second = session.solve_canonical(query, holes=(first.region,))
        assert second.region != first.region
        assert second.distance >= first.distance


class _VerifyEveryCandidate(TieCollectingEngine):
    """The reference pass 2: verifies every candidate within the margin
    and records every tied anchor, with no per-set deduplication."""

    def offer_batch(self, px, py, dists):
        for i in np.flatnonzero(dists <= self.margin):
            x, y = float(px[i]), float(py[i])
            if self.true_distance(x, y) == self.dstar:
                self.tied.append((x, y))
        return False


class _RecordingCollector(TieCollectingEngine):
    """Pass 2 that also records the covered set of every candidate
    within the margin, before deduplication."""

    def arm(self, dstar):
        super().arm(dstar)
        self.offered = []

    def offer_batch(self, px, py, dists):
        w, h = self.query.width, self.query.height
        for i in np.flatnonzero(dists <= self.margin):
            region = region_for_point(float(px[i]), float(py[i]), w, h)
            self.offered.append(self.dataset.mask_in_region(region).tobytes())
        return super().offer_batch(px, py, dists)


def _plateau(seed: int):
    """Sparse points and large regions: each covered set is reachable
    from a wide anchor box, so pass 2 meets it through many candidates."""
    ds = make_random_dataset(np.random.default_rng(seed), 30, extent=80.0)
    agg = CompositeAggregator([DistributionAggregator("kind", SelectAll())])
    target = np.array([1.0, 1.0, 0.0])
    return ds, ASRSQuery.from_vector(15.0, 12.0, agg, target)


class _MemoOnlyCollector(TieCollectingEngine):
    """Pass 2 without rank keys: every candidate within the margin goes
    to the verified-set memo."""

    def offer_batch(self, px, py, dists):
        for i in np.flatnonzero(dists <= self.margin):
            x, y = float(px[i]), float(py[i])
            verified, first = self._verify_once(x, y)
            if first and verified == self.dstar:
                self.tied.append((x, y))
        return False


class _CountingCollector(TieCollectingEngine):
    """Pass 2 that counts the candidates it is offered, their distinct
    coordinate-rank keys, and its calls into ``_verify_once``."""

    def arm(self, dstar):
        super().arm(dstar)
        self.offered = 0
        self.keys = set()
        self.verify_calls = 0

    def offer_batch(self, px, py, dists):
        near = np.flatnonzero(dists <= self.margin)
        self.offered += near.size
        keys = self.dataset.region_rank_keys(
            px[near], py[near], self.query.width, self.query.height
        )
        self.keys.update(map(tuple, keys.tolist()))
        return super().offer_batch(px, py, dists)

    def _verify_once(self, x, y):
        self.verify_calls += 1
        return super()._verify_once(x, y)


class TestPass2RankDedupe:
    @pytest.mark.parametrize("seed", [0, 2, 4])
    def test_verify_calls_bounded_by_distinct_rank_keys(self, seed):
        ds, query = _plateau(seed)
        dstar = run_pass1(DSSearchEngine(ds, query))
        collector = _CountingCollector(ds, query)
        tied = run_pass2(collector, dstar)
        assert collector.verify_calls <= len(collector.keys)
        assert collector.verify_calls < collector.offered
        # Without the keys: the same anchors, the same verifications.
        reference = _MemoOnlyCollector(ds, query)
        assert run_pass2(reference, dstar) == tied
        assert (
            reference.stats.verified_candidates
            == collector.stats.verified_candidates
        )


class TestPass2VerifiesEachSetOnce:
    @pytest.mark.parametrize("seed", [0, 2, 4])
    def test_one_verification_per_distinct_covered_set(self, seed):
        ds, query = _plateau(seed)
        dstar = run_pass1(DSSearchEngine(ds, query))
        collector = _RecordingCollector(ds, query)
        tied = run_pass2(collector, dstar)
        distinct = set(collector.offered)
        assert len(collector.offered) > len(distinct)  # a real plateau
        assert collector.stats.verified_candidates == len(distinct)
        # One anchor per tied set, each covering a different set.
        w, h = query.width, query.height
        covered = [
            ds.mask_in_region(region_for_point(x, y, w, h)).tobytes()
            for x, y in tied
        ]
        assert len(set(covered)) == len(covered) >= 1

        reference = _VerifyEveryCandidate(ds, query)
        run_pass2(reference, dstar)
        assert reference.stats.verified_candidates == len(collector.offered)

    @pytest.mark.parametrize("seed", [0, 2, 4])
    def test_answer_equals_verify_every_candidate(self, seed):
        ds, query = _plateau(seed)
        want = solve_canonical(
            lambda: DSSearchEngine(ds, query),
            lambda: _VerifyEveryCandidate(ds, query),
            query,
        )
        cold = solve_canonical(
            lambda: DSSearchEngine(ds, query),
            lambda: TieCollectingEngine(ds, query),
            query,
        )
        session = QuerySession(ds)
        assert _key(cold) == _key(want)
        for _ in range(2):  # cold and warm root seeds
            assert _key(session.solve_canonical(query)) == _key(want)
