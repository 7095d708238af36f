"""Tests for dataset generators and CSV IO."""

import numpy as np
import pytest

from repro.core import (
    CategoricalAttribute,
    NumericAttribute,
    Rect,
    Schema,
    SpatialDataset,
)
from repro.data import (
    CATEGORIES,
    DAYS,
    SINGAPORE_BOUNDS,
    US_BOUNDS,
    category_aggregator,
    clustered_points,
    generate_city_dataset,
    generate_poisyn_dataset,
    generate_tweet_dataset,
    load_csv,
    poisyn_aggregator,
    poisyn_from_tweets,
    poisyn_query,
    save_csv,
    snap,
    uniform_points,
    weekend_aggregator,
    weekend_query,
)
from repro.data.io import load_csv_infer


class TestSynthetic:
    def test_snap(self):
        out = snap(np.array([1.2345678]), 1e-3)
        assert out[0] == pytest.approx(1.235)
        np.testing.assert_array_equal(snap(np.array([1.5]), 0.0), [1.5])

    def test_uniform_points_in_bounds(self):
        rng = np.random.default_rng(0)
        xs, ys = uniform_points(rng, 500, Rect(0, 10, 5, 20))
        assert xs.min() >= 0 and xs.max() <= 5
        assert ys.min() >= 10 and ys.max() <= 20

    def test_clustered_points_deterministic(self):
        a = clustered_points(np.random.default_rng(5), 200, Rect(0, 0, 10, 10))
        b = clustered_points(np.random.default_rng(5), 200, Rect(0, 0, 10, 10))
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[2], b[2])

    def test_clustered_points_have_background(self):
        xs, ys, ids = clustered_points(
            np.random.default_rng(1), 1000, Rect(0, 0, 10, 10), uniform_fraction=0.3
        )
        assert (ids == -1).sum() == 300

    def test_cluster_validation(self):
        with pytest.raises(ValueError):
            clustered_points(np.random.default_rng(0), 10, Rect(0, 0, 1, 1), n_clusters=0)


class TestTweets:
    def test_shape_and_domains(self):
        ds = generate_tweet_dataset(2000, seed=1)
        assert ds.n == 2000
        assert US_BOUNDS.contains_rect(ds.bounds())
        lengths = ds.column("length")
        assert lengths.min() >= 1.0 and lengths.max() <= 280.0

    def test_weekend_hotspots_exist(self):
        ds = generate_tweet_dataset(5000, seed=2)
        days = ds.column("day_of_week")
        weekend_share = ((days == 5) | (days == 6)).mean()
        # Hot-spot clusters push the weekend share above uniform 2/7.
        assert weekend_share > 0.30

    def test_determinism(self):
        a = generate_tweet_dataset(500, seed=3)
        b = generate_tweet_dataset(500, seed=3)
        np.testing.assert_array_equal(a.xs, b.xs)
        np.testing.assert_array_equal(a.column("day_of_week"), b.column("day_of_week"))

    def test_weekend_query_shape(self):
        ds = generate_tweet_dataset(3000, seed=4)
        q = weekend_query(ds, 0.5, 0.5)
        assert q.query_rep.shape == (7,)
        assert q.query_rep[:5].tolist() == [0.0] * 5
        assert q.query_rep[5] > 0 and q.query_rep[6] > 0
        np.testing.assert_allclose(q.metric.weights, [0.2] * 5 + [0.5] * 2)

    def test_weekend_query_finds_weekend_in_sorted_csv_domain(self, tmp_path):
        ds = generate_tweet_dataset(3000, seed=4)
        path = tmp_path / "tweets.csv"
        save_csv(ds, path)
        loaded = load_csv_infer(
            path, categorical=("day_of_week",), numeric=("length",)
        )
        domain = loaded.schema.categorical("day_of_week").domain
        assert domain == tuple(sorted(DAYS))  # Fri, Mon, Sat, Sun, ...
        q = weekend_query(loaded, 0.5, 0.5)
        generated = weekend_query(ds, 0.5, 0.5)
        for day in DAYS:
            code = domain.index(day)
            want = generated.query_rep[DAYS.index(day)]
            assert q.query_rep[code] == want
            assert q.metric.weights[code] == (0.5 if day in ("Sat", "Sun") else 0.2)
        assert q.query_rep[domain.index("Sat")] > 0
        assert q.query_rep[domain.index("Sun")] > 0

    def test_aggregator_dim(self):
        ds = generate_tweet_dataset(100, seed=0)
        assert weekend_aggregator().dim(ds) == len(DAYS)


class TestPoisyn:
    def test_recipe(self):
        tweets = generate_tweet_dataset(1000, seed=5)
        pois = poisyn_from_tweets(tweets, seed=6)
        assert pois.n == tweets.n
        np.testing.assert_array_equal(pois.xs, tweets.xs)
        ratings = pois.column("rating")
        assert ratings.min() >= 0.0 and ratings.max() == pytest.approx(10.0)
        visits = pois.column("visits")
        assert visits.min() >= 1 and visits.max() <= 500

    def test_direct_generation(self):
        ds = generate_poisyn_dataset(800, seed=7)
        assert ds.n == 800
        assert poisyn_aggregator().dim(ds) == 2

    def test_query_targets_max_visits_and_top_rating(self):
        ds = generate_poisyn_dataset(2000, seed=8)
        q = poisyn_query(ds, 0.5, 0.5)
        assert q.query_rep[1] == 10.0
        assert q.query_rep[0] >= 1.0
        assert q.metric.weights[0] == pytest.approx(1.0 / q.query_rep[0])


class TestCity:
    def test_districts_and_profiles(self):
        ds, districts = generate_city_dataset(3000, seed=9)
        assert ds.n == 3000
        assert set(districts) == {"Orchard", "Marina Bay", "Bugis"}
        agg = category_aggregator()
        orchard = agg.apply(ds, districts["Orchard"])
        marina = agg.apply(ds, districts["Marina Bay"])
        bugis = agg.apply(ds, districts["Bugis"])
        # All three districts are populated.
        assert orchard.sum() > 100 and marina.sum() > 100 and bugis.sum() > 100
        # Qualitative Fig-15 ordering: Orchard is closer to Marina Bay
        # than to Bugis (L1 on normalized distributions).
        def norm(v):
            return v / v.sum()

        d_marina = np.abs(norm(orchard) - norm(marina)).sum()
        d_bugis = np.abs(norm(orchard) - norm(bugis)).sum()
        assert d_marina < d_bugis

    def test_bounds(self):
        ds, _ = generate_city_dataset(1000, seed=10)
        # Districts are inside the island bounding box; background too.
        outer = SINGAPORE_BOUNDS.expand(0.05, 0.05)
        assert outer.contains_rect(ds.bounds())

    def test_categories(self):
        assert len(CATEGORIES) == 7


class TestCsvIO:
    def test_roundtrip(self, tmp_path, fig1_dataset):
        path = tmp_path / "fig1.csv"
        save_csv(fig1_dataset, path)
        loaded = load_csv(path, fig1_dataset.schema)
        assert loaded.n == fig1_dataset.n
        np.testing.assert_allclose(loaded.xs, fig1_dataset.xs)
        np.testing.assert_array_equal(
            loaded.column("category"), fig1_dataset.column("category")
        )
        np.testing.assert_allclose(loaded.column("price"), fig1_dataset.column("price"))

    def test_save_csv_bytes_pinned(self, tmp_path):
        # A string-domain and an int-domain categorical, and floats whose
        # text is easy to get wrong: nan, -0.0, 1e-300 and 0.1 + 0.2.
        schema = Schema.of(
            CategoricalAttribute("day", ("Mon", "Sat")),
            CategoricalAttribute("floor", (3, 10)),
            NumericAttribute("score"),
        )
        dataset = SpatialDataset(
            np.array([0.1 + 0.2, -0.0, 1e-300]),
            np.array([2.5, float("nan"), -7.0]),
            schema,
            {
                "day": np.array([1, 0, 1]),
                "floor": np.array([0, 1, 1]),
                "score": np.array([float("nan"), -0.0, 0.1 + 0.2]),
            },
        )
        path = tmp_path / "pinned.csv"
        save_csv(dataset, path)
        assert path.read_bytes() == (
            b"x,y,day,floor,score\r\n"
            b"0.30000000000000004,2.5,Sat,3,nan\r\n"
            b"-0.0,nan,Mon,10,-0.0\r\n"
            b"1e-300,-7.0,Sat,10,0.30000000000000004\r\n"
        )

    def test_header_mismatch_raises(self, tmp_path, fig1_dataset):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n")
        with pytest.raises(ValueError, match="header"):
            load_csv(path, fig1_dataset.schema)


class TestAtomicSaveModes:
    def test_save_csv_preserves_existing_mode(self, tmp_path, fig1_dataset):
        """Atomic rewrites must not flip a world-readable dataset to
        mkstemp's 0600 -- other services read these files."""
        import os

        from repro.data.io import save_csv

        path = tmp_path / "d.csv"
        save_csv(fig1_dataset, path)
        os.chmod(path, 0o644)
        save_csv(fig1_dataset, path)  # overwrite in place
        assert (os.stat(path).st_mode & 0o777) == 0o644
