"""Tests for the grid index: suffix tables, Lemma 8, and GI-DS."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import brute_force_search
from repro.core import ASRSQuery, ChannelCompiler
from repro.dssearch import SearchSettings, ds_search
from repro.index import (
    GridIndex,
    cell_sums_to_suffix_table,
    gi_ds_search,
    range_sums,
)

from .conftest import make_random_dataset, random_aggregator

SMALL = SearchSettings(ncol=6, nrow=6)


class TestSuffixTables:
    def test_suffix_table_by_hand(self):
        cells = np.arange(6, dtype=float).reshape(3, 2, 1)
        table = cell_sums_to_suffix_table(cells)
        assert table.shape == (4, 3, 1)
        # T[i,j] = sum of cells with i' >= i, j' >= j.
        assert table[0, 0, 0] == cells.sum()
        assert table[2, 1, 0] == cells[2, 1, 0]
        assert table[3, :, 0].tolist() == [0.0, 0.0, 0.0]
        assert table[:, 2, 0].tolist() == [0.0, 0.0, 0.0, 0.0]

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        sx=st.integers(1, 6),
        sy=st.integers(1, 6),
    )
    def test_lemma_8(self, seed, sx, sy):
        """Four-lookup algebra equals the direct cell-range sum."""
        rng = np.random.default_rng(seed)
        cells = rng.uniform(-2, 2, size=(sx, sy, 2))
        table = cell_sums_to_suffix_table(cells)
        for _ in range(10):
            l, r = sorted(rng.integers(0, sx + 1, 2))
            b, t = sorted(rng.integers(0, sy + 1, 2))
            got = range_sums(
                table, np.array(l), np.array(r), np.array(b), np.array(t)
            )
            want = cells[l:r, b:t].sum(axis=(0, 1))
            np.testing.assert_allclose(got, want, atol=1e-9)

    def test_empty_range_is_zero(self):
        cells = np.ones((3, 3, 1))
        table = cell_sums_to_suffix_table(cells)
        got = range_sums(table, np.array(2), np.array(2), np.array(0), np.array(3))
        assert got.tolist() == [0.0]


class TestGridIndex:
    def test_build_and_shape(self, fig1_dataset):
        index = GridIndex.build(fig1_dataset, 8, 4)
        assert index.n_cells == 32
        assert index.categorical_table("category").shape == (9, 5, 4)
        assert index.numeric_table("price").shape == (9, 5, 4)

    def test_validation(self, fig1_dataset):
        with pytest.raises(ValueError):
            GridIndex(fig1_dataset, 0, 4)
        empty = fig1_dataset.subset(np.zeros(fig1_dataset.n, dtype=bool))
        with pytest.raises(ValueError):
            GridIndex(empty, 4, 4)

    def test_count_in_cell_range_full_extent(self, fig1_dataset):
        index = GridIndex.build(fig1_dataset, 8, 4)
        # Whole grid: all 7 apartments (code 0).
        got = index.count_in_cell_range("category", 0, 0, 8, 0, 4)
        assert got == 7.0

    def test_channel_tables_totals(self, fig1_dataset, fig1_aggregator):
        index = GridIndex.build(fig1_dataset, 8, 4)
        compiler = ChannelCompiler(fig1_dataset, fig1_aggregator)
        tables = index.channel_tables(compiler)
        np.testing.assert_allclose(
            tables[0, 0], compiler.weights.sum(axis=0), atol=1e-9
        )

    def test_channel_tables_wrong_dataset_raises(
        self, fig1_dataset, fig1_aggregator
    ):
        index = GridIndex.build(fig1_dataset, 4, 4)
        other = fig1_dataset.subset(np.arange(fig1_dataset.n))
        compiler = ChannelCompiler(other, fig1_aggregator)
        with pytest.raises(ValueError):
            index.channel_tables(compiler)

    def test_index_nbytes_grows_with_granularity(self, fig1_dataset):
        small = GridIndex.build(fig1_dataset, 4, 4).index_nbytes()
        large = GridIndex.build(fig1_dataset, 16, 16).index_nbytes()
        assert large > small

    def test_degenerate_extent(self):
        rng = np.random.default_rng(3)
        ds = make_random_dataset(rng, 10, extent=0.0)
        index = GridIndex.build(ds, 4, 4)
        assert index.cell_width > 0 and index.cell_height > 0


class TestGIDS:
    """GI-DS must agree with plain DS-Search (both exact)."""

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 30),
        sx=st.integers(2, 10),
    )
    def test_matches_brute_force(self, seed, n, sx):
        rng = np.random.default_rng(seed)
        ds = make_random_dataset(rng, n, extent=60.0)
        agg = random_aggregator()
        dim = agg.dim(ds)
        rep = rng.uniform(0, 4, size=dim)
        query = ASRSQuery.from_vector(14.0, 11.0, agg, rep)
        expected = brute_force_search(ds, query)
        result = gi_ds_search(ds, query, granularity=(sx, sx), settings=SMALL)
        assert result.distance == pytest.approx(expected.distance, abs=1e-6)

    def test_matches_ds_search_on_fig1(self, fig1_dataset, fig1_aggregator):
        query = ASRSQuery.from_vector(
            4.0, 4.0, fig1_aggregator, [5, 0, 0, 0, 5.0]
        )
        plain = ds_search(fig1_dataset, query, SMALL)
        indexed = gi_ds_search(
            fig1_dataset, query, granularity=(6, 6), settings=SMALL
        )
        assert indexed.distance == pytest.approx(plain.distance, abs=1e-9)

    def test_prebuilt_index_reused(self, fig1_dataset, fig1_aggregator):
        index = GridIndex.build(fig1_dataset, 6, 6)
        query = ASRSQuery.from_vector(4.0, 4.0, fig1_aggregator, [2, 1, 1, 1, 1.75])
        r1 = gi_ds_search(fig1_dataset, query, index=index, settings=SMALL)
        r2 = gi_ds_search(fig1_dataset, query, index=index, settings=SMALL)
        assert r1.distance == pytest.approx(r2.distance)

    def test_stats(self, fig1_dataset, fig1_aggregator):
        query = ASRSQuery.from_vector(4.0, 4.0, fig1_aggregator, [5, 0, 0, 0, 5.0])
        result, stats = gi_ds_search(
            fig1_dataset, query, granularity=(6, 6), settings=SMALL, return_stats=True
        )
        assert stats.total_cells > 36  # padded lattice exceeds the index grid
        assert 0 < stats.searched_cells <= stats.total_cells
        assert stats.index_nbytes > 0
        assert 0.0 < stats.searched_ratio <= 1.0

    def test_empty_dataset(self, fig1_dataset, fig1_aggregator):
        empty = fig1_dataset.subset(np.zeros(fig1_dataset.n, dtype=bool))
        query = ASRSQuery.from_vector(1.0, 1.0, fig1_aggregator, [1, 0, 0, 0, 0])
        result = gi_ds_search(empty, query)
        assert result.distance == pytest.approx(1.0)

    def test_region_larger_than_data_extent(self):
        """Regression: a region dwarfing the data extent must not crash
        the probe phase and must agree with plain DS-Search."""
        rng = np.random.default_rng(3)
        ds = make_random_dataset(rng, 8, extent=4.0)
        agg = random_aggregator()
        dim = agg.dim(ds)
        # Every candidate region this size swallows the whole dataset.
        query = ASRSQuery.from_vector(500.0, 500.0, agg, rng.uniform(0, 4, dim))
        plain = ds_search(ds, query, SMALL)
        indexed = gi_ds_search(ds, query, granularity=(3, 3), settings=SMALL)
        assert indexed.distance == pytest.approx(plain.distance, abs=1e-9)

    def test_empty_candidate_lattice_is_guarded(self):
        """Regression: ``probe_cells`` with an empty candidate lattice
        used to reach ``argpartition(lbs, -1)`` and crash; the warm path
        can inject such a lattice (e.g. from a stale snapshot)."""
        rng = np.random.default_rng(4)
        ds = make_random_dataset(rng, 6, extent=10.0)
        agg = random_aggregator()
        dim = agg.dim(ds)
        query = ASRSQuery.from_vector(3.0, 3.0, agg, rng.uniform(0, 4, dim))
        empty = (
            np.empty(0),
            np.empty(0),
            np.empty((0, dim)),
            np.empty((0, dim)),
        )
        result, stats = gi_ds_search(
            ds,
            query,
            granularity=(3, 3),
            settings=SMALL,
            probe_cells=16,
            lattice_intervals=empty,
            return_stats=True,
        )
        # No candidate cells: the incumbent stays at the empty-region seed.
        assert stats.total_cells == 0
        assert result.distance == query.distance_to(
            agg.empty_representation(ds)
        )

    def test_huge_probe_count_evaluates_in_bounded_chunks(self):
        """``probe_cells`` past the lattice size probes every lattice
        cell, in chunks of at most 4,000,000 cover entries: on tweets
        2,000 (8,100 lattice cells) one batch would allocate a
        16.2 M-entry cover matrix and its 130 MB float copy."""
        import tracemalloc

        from repro.data import generate_tweet_dataset
        from repro.data.tweets import weekend_query
        from repro.engine import QuerySession
        from repro.experiments.datasets import paper_query_size

        ds = generate_tweet_dataset(2_000, seed=7)
        query = weekend_query(ds, *paper_query_size(ds, 10))
        session = QuerySession(ds)
        want, stats = session.solve(query, return_stats=True)
        assert stats.total_cells * ds.n > 3 * 4_000_000
        tracemalloc.start()
        try:
            got = session.solve(query, probe_cells=10**6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got.distance == want.distance
        assert peak < 64 * 2**20
        with pytest.raises(ValueError, match="probe_cells"):
            gi_ds_search(ds, query, probe_cells=-1)

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        delta=st.sampled_from([0.1, 0.3, 0.5]),
    )
    def test_app_gids_guarantee(self, seed, delta):
        """app-GIDS: Theorem 3's (1+δ) bound holds with the index too."""
        rng = np.random.default_rng(seed)
        ds = make_random_dataset(rng, 25, extent=60.0)
        agg = random_aggregator()
        dim = agg.dim(ds)
        query = ASRSQuery.from_vector(14.0, 11.0, agg, rng.uniform(0, 4, dim))
        exact = brute_force_search(ds, query)
        approx = gi_ds_search(
            ds, query, granularity=(6, 6), settings=SMALL, delta=delta
        )
        assert approx.distance <= (1.0 + delta) * exact.distance + 1e-6
        assert approx.distance >= exact.distance - 1e-6
