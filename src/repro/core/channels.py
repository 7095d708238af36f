"""Channel compilation: composite aggregators as numpy weight columns.

DS-Search's hot loop (Function *Discretize*) must, for every grid cell,
know the aggregate representation of the rectangles *fully* covering it
and interval bounds derived from the rectangles *partially* covering it.
Doing this object-by-object in Python would dominate the runtime, so a
:class:`ChannelCompiler` lowers each aggregator term into one or more
per-object weight columns ("channels"):

* fD over a domain of size d  ->  d indicator channels;
* fS                          ->  value, positive-part and negative-part
                                  channels (mixed-sign values stay sound);
* fA                          ->  value-sum and count channels.

Grid code accumulates channel *sums* over the fully-covering set
(``full``) and the fully-or-partially-covering set (``over``) of every
cell with two 2-D difference arrays; the compiler then converts those
sums back into representations (clean cells) or per-dimension interval
bounds (dirty cells, Lemmas 4-5) without touching individual objects.

Average terms cannot be bounded from sums alone: the achievable mean of
``full ∪ (any subset of partial)`` depends on individual values.  We use
the sound relaxation documented in DESIGN.md §5.3, parameterised by a
:class:`BoundContext` holding the min/max selected value among the
rectangles active in the current search space.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Tuple

import numpy as np

from .aggregators import (
    AggregatorTerm,
    AverageAggregator,
    CompositeAggregator,
    DistributionAggregator,
    SumAggregator,
)
from .objects import SpatialDataset

#: Relative slack subtracted from computed lower bounds so floating-point
#: round-off in the channel sums can never turn a valid bound unsound.
BOUND_SLACK = 1e-9


class BoundContext:
    """Per-average-term value extremes over the active rectangle set."""

    def __init__(self, extremes: Dict[int, Tuple[float, float]]) -> None:
        self._extremes = extremes

    def extremes(self, term_index: int) -> Tuple[float, float]:
        """(vmin, vmax) of the term's selected values among active objects.

        Returns ``(0.0, 0.0)`` when no active object passes the term's
        selection: the only achievable average is then the empty-set 0.
        """
        return self._extremes.get(term_index, (0.0, 0.0))


class CompiledTerm(ABC):
    """A term lowered to channels; knows its slice of both layouts."""

    def __init__(
        self, term: AggregatorTerm, rep_slice: slice, chan_slice: slice
    ) -> None:
        self.term = term
        self.rep_slice = rep_slice
        self.chan_slice = chan_slice

    @abstractmethod
    def clean(self, sums: np.ndarray) -> np.ndarray:
        """Representation dims from exact channel sums (``(..., C) -> (..., dim)``)."""

    @abstractmethod
    def bounds(
        self, full: np.ndarray, over: np.ndarray, ctx: BoundContext, index: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-dimension (lo, hi) bounds from full/over channel sums."""


class _CompiledDistribution(CompiledTerm):
    def clean(self, sums: np.ndarray) -> np.ndarray:
        return sums

    def bounds(
        self, full: np.ndarray, over: np.ndarray, ctx: BoundContext, index: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        return full, np.maximum(over, full)


class _CompiledSum(CompiledTerm):
    # Channels: 0 = selected value, 1 = positive part, 2 = negative part.
    def clean(self, sums: np.ndarray) -> np.ndarray:
        return sums[..., 0:1]

    def bounds(
        self, full: np.ndarray, over: np.ndarray, ctx: BoundContext, index: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        partial_pos = np.maximum(over[..., 1] - full[..., 1], 0.0)
        partial_neg = np.minimum(over[..., 2] - full[..., 2], 0.0)
        lo = full[..., 0] + partial_neg
        hi = full[..., 0] + partial_pos
        return lo[..., np.newaxis], hi[..., np.newaxis]


class _CompiledAverage(CompiledTerm):
    # Channels: 0 = selected value sum, 1 = selected count.
    def clean(self, sums: np.ndarray) -> np.ndarray:
        cnt = sums[..., 1]
        with np.errstate(invalid="ignore", divide="ignore"):
            avg = np.where(cnt > 0, sums[..., 0] / np.maximum(cnt, 1.0), 0.0)
        return avg[..., np.newaxis]

    def bounds(
        self, full: np.ndarray, over: np.ndarray, ctx: BoundContext, index: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        vmin, vmax = ctx.extremes(index)
        full_sum = full[..., 0]
        full_cnt = full[..., 1]
        partial_cnt = np.maximum(over[..., 1] - full[..., 1], 0.0)
        avg_full = self.clean(full)[..., 0]
        # The achievable average over full ∪ (k of p partials), with each
        # partial value in [vmin, vmax], is extremized at k = 0 or k = p:
        #   min_k (S_f + k·vmin) / (C_f + k)  =  min(avg_full, (S_f + p·vmin)/(C_f + p))
        # and symmetrically for the max -- much tighter than the naive
        # min(avg_full, vmin) when few partials remain.  An empty full
        # set additionally admits the empty-selection value 0.
        denom = np.maximum(full_cnt + partial_cnt, 1.0)
        lo_all_in = (full_sum + partial_cnt * vmin) / denom
        hi_all_in = (full_sum + partial_cnt * vmax) / denom
        lo = np.where(
            partial_cnt <= 0,
            avg_full,
            np.where(
                full_cnt > 0,
                np.minimum(avg_full, lo_all_in),
                np.minimum(0.0, vmin),
            ),
        )
        hi = np.where(
            partial_cnt <= 0,
            avg_full,
            np.where(
                full_cnt > 0,
                np.maximum(avg_full, hi_all_in),
                np.maximum(0.0, vmax),
            ),
        )
        return lo[..., np.newaxis], hi[..., np.newaxis]


class ChannelCompiler:
    """Compiles ``(dataset, aggregator)`` into per-object weight channels.

    The compiled artefacts are reusable across the whole search: the
    weight matrix rows align with dataset rows (and therefore, after the
    ASP reduction, with the generated rectangles).
    """

    def __init__(
        self, dataset: SpatialDataset, aggregator: CompositeAggregator
    ) -> None:
        self._dataset = dataset
        self._aggregator = aggregator
        terms: list[CompiledTerm] = []
        columns: list[np.ndarray] = []
        avg_inputs: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}

        rep_at = 0
        chan_at = 0
        for index, term in enumerate(aggregator.terms):
            sel = term.selection.mask(dataset)
            if isinstance(term, DistributionAggregator):
                attr = dataset.schema.categorical(term.attribute)
                codes = dataset.column(term.attribute)
                d = attr.cardinality
                block = np.zeros((dataset.n, d))
                rows = np.flatnonzero(sel)
                block[rows, codes[rows]] = 1.0
                compiled: CompiledTerm = _CompiledDistribution(
                    term, slice(rep_at, rep_at + d), slice(chan_at, chan_at + d)
                )
                columns.append(block)
                rep_at += d
                chan_at += d
            elif isinstance(term, SumAggregator):
                values = dataset.column(term.attribute) * sel
                block = np.stack(
                    [values, np.maximum(values, 0.0), np.minimum(values, 0.0)],
                    axis=1,
                )
                compiled = _CompiledSum(
                    term, slice(rep_at, rep_at + 1), slice(chan_at, chan_at + 3)
                )
                columns.append(block)
                rep_at += 1
                chan_at += 3
            elif isinstance(term, AverageAggregator):
                values = dataset.column(term.attribute) * sel
                block = np.stack([values, sel.astype(np.float64)], axis=1)
                compiled = _CompiledAverage(
                    term, slice(rep_at, rep_at + 1), slice(chan_at, chan_at + 2)
                )
                columns.append(block)
                avg_inputs[index] = (dataset.column(term.attribute), sel)
                rep_at += 1
                chan_at += 2
            else:
                raise TypeError(
                    f"term {term!r} is not channel-compilable; "
                    "subclass a built-in aggregator or extend the compiler"
                )
            terms.append(compiled)

        self._terms = tuple(terms)
        self._weights = (
            np.concatenate(columns, axis=1)
            if columns
            else np.zeros((dataset.n, 0))
        )
        self._weights_ext: np.ndarray | None = None
        self._rep_dim = rep_at
        self._avg_inputs = avg_inputs

    # ------------------------------------------------------------------
    @property
    def dataset(self) -> SpatialDataset:
        return self._dataset

    @property
    def aggregator(self) -> CompositeAggregator:
        return self._aggregator

    @property
    def weights(self) -> np.ndarray:
        """Per-object channel weights, shape ``(n, n_channels)``."""
        return self._weights

    @property
    def weights_ext(self) -> np.ndarray:
        """Weights with the presence channel appended, ``(n, C+1)``.

        The discretization grid needs a weight-1 presence channel for
        its clean/dirty classification; materializing it here once lets
        every processed space gather one matrix instead of gathering and
        re-concatenating per space.
        """
        if self._weights_ext is None:
            self._weights_ext = np.concatenate(
                [self._weights, np.ones((self._dataset.n, 1))], axis=1
            )
        return self._weights_ext

    @property
    def n_channels(self) -> int:
        return int(self._weights.shape[1])

    @property
    def nbytes(self) -> int:
        """Bytes held by the compiled weight matrices (session accounting)."""
        total = self._weights.nbytes
        if self._weights_ext is not None:
            total += self._weights_ext.nbytes
        return total

    @property
    def rep_dim(self) -> int:
        return self._rep_dim

    # ------------------------------------------------------------------
    # Representations and bounds from channel sums
    # ------------------------------------------------------------------
    def rep_from_sums(self, sums: np.ndarray) -> np.ndarray:
        """Exact representations from channel sums, ``(..., C) -> (..., D)``."""
        parts = [t.clean(sums[..., t.chan_slice]) for t in self._terms]
        return np.concatenate(parts, axis=-1)

    def bounds_from_sums(
        self, full: np.ndarray, over: np.ndarray, ctx: BoundContext
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(lo, hi) representation bounds; ``full``/``over`` shaped (..., C)."""
        los: list[np.ndarray] = []
        his: list[np.ndarray] = []
        for index, t in enumerate(self._terms):
            lo, hi = t.bounds(
                full[..., t.chan_slice], over[..., t.chan_slice], ctx, index
            )
            los.append(lo)
            his.append(hi)
        return np.concatenate(los, axis=-1), np.concatenate(his, axis=-1)

    def rep_from_mask(self, mask: np.ndarray) -> np.ndarray:
        """Exact representation of the objects marked by a boolean mask."""
        sums = self._weights[mask].sum(axis=0)
        return self.rep_from_sums(sums)

    def rep_from_indices(self, indices: np.ndarray) -> np.ndarray:
        """Exact representation of the objects at the given row indices."""
        sums = self._weights[indices].sum(axis=0)
        return self.rep_from_sums(sums)

    # ------------------------------------------------------------------
    # Incremental row remapping (dataset updates)
    # ------------------------------------------------------------------
    def remapped(
        self,
        dataset: SpatialDataset,
        kept: np.ndarray,
        appended: "ChannelCompiler | None" = None,
    ) -> "ChannelCompiler":
        """A compiler over a row-mutated dataset, reusing this one's rows.

        ``dataset`` must be this compiler's dataset restricted to the
        ``kept`` row indices (ascending) with, optionally, the rows of
        ``appended``'s dataset concatenated at the end.  Channel weights
        and selection masks are per-row functions of the columns, so
        gathering the kept rows and concatenating the appended block is
        bitwise-identical to compiling ``dataset`` from scratch -- at
        memcpy cost for the surviving rows plus compile cost for only
        the appended ones.
        """
        if appended is not None and appended._aggregator is not self._aggregator:
            raise ValueError("appended compiler must share the aggregator object")
        clone = object.__new__(ChannelCompiler)
        clone._dataset = dataset
        clone._aggregator = self._aggregator
        clone._terms = self._terms
        clone._rep_dim = self._rep_dim
        if appended is None:
            clone._weights = self._weights[kept]
        else:
            clone._weights = np.concatenate(
                [self._weights[kept], appended._weights]
            )
        clone._weights_ext = None
        avg_inputs: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        for index, (_, sel) in self._avg_inputs.items():
            attribute = self._terms[index].term.attribute
            if appended is None:
                new_sel = sel[kept]
            else:
                new_sel = np.concatenate(
                    [sel[kept], appended._avg_inputs[index][1]]
                )
            avg_inputs[index] = (dataset.column(attribute), new_sel)
        clone._avg_inputs = avg_inputs
        return clone

    # ------------------------------------------------------------------
    # Bound contexts
    # ------------------------------------------------------------------
    def make_context(self, active_indices: np.ndarray | None = None) -> BoundContext:
        """Bound context for a subset of objects (``None`` = all objects)."""
        extremes: Dict[int, Tuple[float, float]] = {}
        for index, (values, sel) in self._avg_inputs.items():
            if active_indices is None:
                chosen = values[sel]
            else:
                sub = sel[active_indices]
                chosen = values[active_indices][sub]
            if chosen.size:
                extremes[index] = (float(chosen.min()), float(chosen.max()))
        return BoundContext(extremes)

    def __repr__(self) -> str:
        return (
            f"ChannelCompiler(n={self._dataset.n}, channels={self.n_channels}, "
            f"rep_dim={self._rep_dim})"
        )
