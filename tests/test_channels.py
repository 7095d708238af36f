"""Channel compiler tests: the vectorized path must agree with the
reference aggregator path, and interval bounds must be sound."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    AverageAggregator,
    ChannelCompiler,
    CompositeAggregator,
    SelectAll,
    SelectByValue,
    SumAggregator,
)

from .conftest import make_random_dataset, random_aggregator


class TestCompilation:
    def test_channel_layout(self, fig1_dataset, fig1_aggregator):
        compiler = ChannelCompiler(fig1_dataset, fig1_aggregator)
        # fD over 4 categories -> 4 channels; fA -> 2 channels.
        assert compiler.n_channels == 6
        assert compiler.rep_dim == 5
        assert compiler.weights.shape == (fig1_dataset.n, 6)

    def test_sum_term_channels(self, fig1_dataset):
        agg = CompositeAggregator([SumAggregator("price", SelectAll())])
        compiler = ChannelCompiler(fig1_dataset, agg)
        assert compiler.n_channels == 3  # value, positive part, negative part
        assert compiler.rep_dim == 1

    def test_rejects_unknown_term(self, fig1_dataset):
        from repro.core.aggregators import AggregatorTerm

        class Odd(AggregatorTerm):
            def dim(self, dataset):
                return 1

            def labels(self, dataset):
                return ("odd",)

            def apply_mask(self, dataset, mask):
                return np.zeros(1)

        with pytest.raises(TypeError):
            ChannelCompiler(fig1_dataset, CompositeAggregator([Odd("price")]))


class TestAgreementWithReference:
    def test_fig1_full_mask(self, fig1_dataset, fig1_aggregator):
        compiler = ChannelCompiler(fig1_dataset, fig1_aggregator)
        mask = np.ones(fig1_dataset.n, dtype=bool)
        np.testing.assert_allclose(
            compiler.rep_from_mask(mask), fig1_aggregator.apply_mask(fig1_dataset, mask)
        )

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 60))
    def test_random_masks(self, seed, n):
        rng = np.random.default_rng(seed)
        ds = make_random_dataset(rng, n)
        agg = random_aggregator()
        compiler = ChannelCompiler(ds, agg)
        mask = rng.random(n) < 0.5
        np.testing.assert_allclose(
            compiler.rep_from_mask(mask),
            agg.apply_mask(ds, mask),
            atol=1e-9,
        )
        # The index gather sums the rows a boolean gather would, in the
        # same order: the bits match the boolean-gather expression.
        one_row = np.zeros(n, dtype=bool)
        one_row[: min(n, 1)] = True
        for m in (mask, np.zeros(n, dtype=bool), np.ones(n, dtype=bool), one_row):
            want = compiler.rep_from_sums(compiler.weights[m].sum(axis=0))
            assert compiler.rep_from_mask(m).tobytes() == want.tobytes()

    def test_rep_from_indices(self, fig1_dataset, fig1_aggregator):
        compiler = ChannelCompiler(fig1_dataset, fig1_aggregator)
        idx = np.array([0, 1, 2, 3, 4])
        mask = np.zeros(fig1_dataset.n, dtype=bool)
        mask[idx] = True
        np.testing.assert_allclose(
            compiler.rep_from_indices(idx), compiler.rep_from_mask(mask)
        )


class TestBoundSoundness:
    """full ⊆ actual ⊆ over must imply lo <= rep(actual) <= hi."""

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 50))
    def test_random_splits(self, seed, n):
        rng = np.random.default_rng(seed)
        ds = make_random_dataset(rng, n)
        agg = random_aggregator()
        compiler = ChannelCompiler(ds, agg)

        full_mask = rng.random(n) < 0.3
        partial_mask = ~full_mask & (rng.random(n) < 0.5)
        over_mask = full_mask | partial_mask
        # The actual covering set: full plus a random subset of partial.
        actual_mask = full_mask | (partial_mask & (rng.random(n) < 0.5))

        full = compiler.weights[full_mask].sum(axis=0)
        over = compiler.weights[over_mask].sum(axis=0)
        ctx = compiler.make_context(np.flatnonzero(over_mask))
        lo, hi = compiler.bounds_from_sums(full, over, ctx)
        actual = compiler.rep_from_mask(actual_mask)
        assert np.all(lo <= actual + 1e-9), (lo, actual)
        assert np.all(actual <= hi + 1e-9), (actual, hi)

    def test_exact_when_no_partial(self, fig1_dataset, fig1_aggregator):
        compiler = ChannelCompiler(fig1_dataset, fig1_aggregator)
        mask = np.zeros(fig1_dataset.n, dtype=bool)
        mask[:5] = True
        sums = compiler.weights[mask].sum(axis=0)
        ctx = compiler.make_context()
        lo, hi = compiler.bounds_from_sums(sums, sums, ctx)
        rep = compiler.rep_from_mask(mask)
        np.testing.assert_allclose(lo, rep)
        np.testing.assert_allclose(hi, rep)

    def test_context_without_selected_objects(self, fig1_dataset):
        agg = CompositeAggregator(
            [AverageAggregator("price", SelectByValue("category", "BusStop"))]
        )
        compiler = ChannelCompiler(fig1_dataset, agg)
        # Restrict the active set to apartments only: no BusStop objects.
        active = np.flatnonzero(fig1_dataset.column("category") == 0)
        ctx = compiler.make_context(active)
        assert ctx.extremes(0) == (0.0, 0.0)
