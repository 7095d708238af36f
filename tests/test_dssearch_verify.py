"""The verified-set memo: one region-semantics verification per covered set.

``DSSearchEngine.offer_batch`` verifies an improving candidate before it
becomes the incumbent.  A verified distance is a function of the covered
point set alone, and near-edge mirages (a claim a few ulps below the
verified value) are usually followed by more candidates covering the
same set, so each engine verifies a set once.  The reference below is
the loop without the memo: it verifies every offered candidate.  Both
must give bitwise-equal answers, and the memo engine must run exactly
one verification per distinct set the reference hands to verification.
"""

import functools
import os
import tempfile

import numpy as np
import pytest

from repro.asp.reduction import region_for_point
from repro.core import ASRSQuery
from repro.data import generate_tweet_dataset
from repro.data.io import load_csv_infer, save_csv
from repro.data.tweets import weekend_query
from repro.dssearch.canonical import TieCollectingEngine, solve_canonical
from repro.dssearch.search import DSSearchEngine
from repro.experiments.datasets import paper_query_size
from repro.index import gi_ds_search

from .shard.test_canonical import _VerifyEveryCandidate, _key, _plateau


class _VerifyEveryOffer(DSSearchEngine):
    """The incumbent loop without the memo, recording the covered set of
    every candidate it hands to verification."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.handed = []

    def offer_batch(self, px, py, dists):
        improved = False
        while True:
            i = int(np.argmin(dists))
            claimed = float(dists[i])
            if not claimed < self.best_distance:
                return improved
            x, y = float(px[i]), float(py[i])
            region = region_for_point(x, y, self.query.width, self.query.height)
            self.handed.append(self.dataset.mask_in_region(region).tobytes())
            verified = self.true_distance(x, y)
            if verified < self.best_distance:
                self.best_distance = verified
                self.best_point = (x, y)
                self.stats.incumbent_updates += 1
                improved = True
            if verified <= claimed:
                return improved
            dists[i] = np.inf


@functools.lru_cache(maxsize=None)
def _served_tweets():
    """Generator tweets n=2,000 as ``repro serve`` loads them: through a
    CSV, whose inferred day-of-week domain is sorted (Fri, Mon, Sat, ...).
    In that channel order most claimed F1 distances are mirages."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "tweets.csv")
        save_csv(generate_tweet_dataset(2_000, seed=7), path)
        return load_csv_infer(path, categorical=["day_of_week"], numeric=["length"])


def _tweets_f1(seed: int):
    """The F1 weekend query at 10q, its target scaled by U(0.9, 1.1) per
    entry as the serve benchmark does."""
    ds = _served_tweets()
    query = weekend_query(ds, *paper_query_size(ds, 10))
    scale = np.random.default_rng(seed).uniform(0.9, 1.1, query.query_rep.size)
    return ds, ASRSQuery.from_vector(
        query.width,
        query.height,
        query.aggregator,
        query.query_rep * scale,
        weights=query.metric.weights,
    )


PROBLEMS = [
    pytest.param(_plateau, seed, id=f"plateau-{seed}") for seed in (0, 2, 4)
] + [pytest.param(_tweets_f1, seed, id=f"tweets-f1-{seed}") for seed in (1, 2, 3)]


def _ds_run(engine):
    return engine.run()


def _gids_run(engine):
    # (89, 89) is a session's "auto" granularity at n = 2,000.
    return gi_ds_search(engine.dataset, engine.query, granularity=(89, 89), engine=engine)


class TestOneVerificationPerSet:
    @pytest.mark.parametrize("search", [_ds_run, _gids_run], ids=["ds", "gids"])
    @pytest.mark.parametrize("make, seed", PROBLEMS)
    def test_verifications_equal_distinct_sets_handed(self, make, seed, search):
        ds, query = make(seed)
        reference = _VerifyEveryOffer(ds, query)
        want = search(reference)
        engine = DSSearchEngine(ds, query)
        got = search(engine)
        assert _key(got) == _key(want)
        distinct = set(reference.handed)
        if make is _tweets_f1:
            assert len(reference.handed) > len(distinct)  # mirages
        assert reference.stats.verified_candidates == len(reference.handed)
        assert engine.stats.verified_candidates == len(distinct) >= 1
        assert engine.stats.incumbent_updates == reference.stats.incumbent_updates


class TestMemoAnswersEqualReference:
    @pytest.mark.parametrize("make, seed", PROBLEMS)
    def test_ds_gids_approx_and_canonical(self, make, seed):
        ds, query = make(seed)
        for search in (_ds_run, _gids_run):
            assert _key(search(DSSearchEngine(ds, query))) == _key(
                search(_VerifyEveryOffer(ds, query))
            )
        approx = [
            _gids_run(cls(ds, query, delta=0.1))
            for cls in (DSSearchEngine, _VerifyEveryOffer)
        ]
        assert _key(approx[0]) == _key(approx[1])
        want = solve_canonical(
            lambda: _VerifyEveryOffer(ds, query),
            lambda: _VerifyEveryCandidate(ds, query),
            query,
        )
        got = solve_canonical(
            lambda: DSSearchEngine(ds, query),
            lambda: TieCollectingEngine(ds, query),
            query,
        )
        assert _key(got) == _key(want)
