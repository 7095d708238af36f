"""Columnar storage of spatial objects.

A :class:`SpatialDataset` stores ``n`` spatial objects as parallel numpy
arrays: two coordinate columns plus one encoded column per schema
attribute.  All algorithms in this package operate on the columnar form;
a row-oriented :class:`SpatialObject` view is provided for convenience
and for small examples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Iterator, Mapping, Sequence

import numpy as np

from .attributes import CategoricalAttribute, Schema
from .geometry import Rect


@dataclass(frozen=True)
class SpatialObject:
    """A row view of one spatial object (``o.rho`` in the paper)."""

    x: float
    y: float
    attributes: Mapping[str, Hashable]

    def __getitem__(self, name: str) -> Hashable:
        return self.attributes[name]


class SpatialDataset:
    """An immutable columnar set ``O`` of spatial objects.

    Parameters
    ----------
    xs, ys:
        Coordinate arrays of equal length.
    schema:
        Attribute schema.  Categorical columns must already be encoded as
        integer codes; use :meth:`from_records` or :meth:`from_columns`
        to encode raw values.
    columns:
        Mapping from attribute name to encoded column.
    """

    def __init__(
        self,
        xs: np.ndarray,
        ys: np.ndarray,
        schema: Schema,
        columns: Mapping[str, np.ndarray],
    ) -> None:
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        if xs.ndim != 1 or ys.ndim != 1 or xs.shape != ys.shape:
            raise ValueError("xs and ys must be equal-length 1-D arrays")
        encoded: Dict[str, np.ndarray] = {}
        for attr in schema:
            if attr.name not in columns:
                raise ValueError(f"missing column for attribute {attr.name!r}")
            col = np.asarray(columns[attr.name])
            if col.shape != xs.shape:
                raise ValueError(
                    f"column {attr.name!r} has length {col.shape}, expected {xs.shape}"
                )
            if isinstance(attr, CategoricalAttribute):
                col = col.astype(np.int64, copy=False)
                if col.size and (col.min() < 0 or col.max() >= attr.cardinality):
                    raise ValueError(
                        f"column {attr.name!r} holds codes outside the domain"
                    )
            else:
                col = col.astype(np.float64, copy=False)
            encoded[attr.name] = col
        self._xs = xs
        self._ys = ys
        self._schema = schema
        self._columns = encoded
        # (sorted xs, sorted ys) for :meth:`region_rank_keys`, built on
        # first use: the dataset is immutable, so it never goes stale.
        self._sorted: tuple[np.ndarray, np.ndarray] | None = None
        #: Each row's CSV line, as ``data/io.save_csv`` formatted it;
        #: ``None`` until a save.  :meth:`subset` and :meth:`append` carry
        #: the surviving rows' lines into the datasets they derive (``None``
        #: for appended rows), so rewriting an updated dataset's CSV
        #: formats only the rows its updates added.  Once set, a list is
        #: never mutated: a save that fills rows in assigns a new one.
        self.csv_rows: list | None = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def from_columns(
        xs: Sequence[float],
        ys: Sequence[float],
        schema: Schema,
        raw_columns: Mapping[str, Sequence],
    ) -> "SpatialDataset":
        """Build a dataset from raw (unencoded) per-attribute columns."""
        return SpatialDataset(
            np.asarray(xs, dtype=np.float64),
            np.asarray(ys, dtype=np.float64),
            schema,
            schema.encode_columns(raw_columns),
        )

    @staticmethod
    def from_records(
        records: Sequence[tuple],
        schema: Schema,
    ) -> "SpatialDataset":
        """Build a dataset from ``(x, y, {attr: value, ...})`` records."""
        xs = [r[0] for r in records]
        ys = [r[1] for r in records]
        raw = {
            name: [r[2][name] for r in records] for name in schema.names
        }
        return SpatialDataset.from_columns(xs, ys, schema, raw)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return int(self._xs.shape[0])

    def __len__(self) -> int:
        return self.n

    @property
    def xs(self) -> np.ndarray:
        return self._xs

    @property
    def ys(self) -> np.ndarray:
        return self._ys

    @property
    def schema(self) -> Schema:
        return self._schema

    def column(self, name: str) -> np.ndarray:
        """The encoded column of attribute ``name``."""
        return self._columns[name]

    def bounds(self) -> Rect:
        """Minimum bounding rectangle of the object locations."""
        if self.n == 0:
            raise ValueError("empty dataset has no bounds")
        return Rect(
            float(self._xs.min()),
            float(self._ys.min()),
            float(self._xs.max()),
            float(self._ys.max()),
        )

    # ------------------------------------------------------------------
    # Region semantics (Lemma 1: strict containment)
    # ------------------------------------------------------------------
    def mask_in_region(self, region: Rect) -> np.ndarray:
        """Boolean mask of objects strictly inside ``region``.

        The paper's reduction (Lemma 1) uses open containment:
        ``p.x < o.x < p.x + a`` and ``p.y < o.y < p.y + b``.
        """
        return (
            (self._xs > region.x_min)
            & (self._xs < region.x_max)
            & (self._ys > region.y_min)
            & (self._ys < region.y_max)
        )

    def region_rank_keys(
        self, xs: np.ndarray, ys: np.ndarray, width: float, height: float
    ) -> np.ndarray:
        """``(m, 4)`` coordinate-rank keys of the regions anchored at ``(xs, ys)``.

        Row ``i`` is ``(#xs <= x, #xs < fl(x + width), #ys <= y,
        #ys < fl(y + height))`` for the region
        ``region_for_point(x, y, width, height)``.  Under
        :meth:`mask_in_region`'s open containment the x condition
        selects the contiguous run ``[a, b)`` of the x-sorted order and
        the y condition the run ``[c, d)`` of the y-sorted order, so two
        equal rows cover the same object set -- with duplicates, signed
        zeros and objects exactly on an edge alike.  The key is finer
        than the set: unequal rows may still cover equal sets.
        """
        if self._sorted is None:
            self._sorted = (np.sort(self._xs), np.sort(self._ys))
        sx, sy = self._sorted
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        return np.stack(
            [
                np.searchsorted(sx, xs, side="right"),
                np.searchsorted(sx, xs + width, side="left"),
                np.searchsorted(sy, ys, side="right"),
                np.searchsorted(sy, ys + height, side="left"),
            ],
            axis=1,
        )

    def count_in_region(self, region: Rect) -> int:
        return int(self.mask_in_region(region).sum())

    def subset(
        self, mask_or_indices: "np.ndarray | Sequence[int]"
    ) -> "SpatialDataset":
        """A new dataset restricted to the selected rows."""
        idx = np.asarray(mask_or_indices)
        out = SpatialDataset(
            self._xs[idx],
            self._ys[idx],
            self._schema,
            {name: col[idx] for name, col in self._columns.items()},
        )
        if self.csv_rows is not None:
            rows = np.flatnonzero(idx) if idx.dtype == bool else idx
            out.csv_rows = list(map(self.csv_rows.__getitem__, rows.tolist()))
        return out

    # ------------------------------------------------------------------
    # Mutation (immutable style: every change yields a new dataset)
    # ------------------------------------------------------------------
    def append(self, other: "SpatialDataset") -> "SpatialDataset":
        """A new dataset with ``other``'s rows appended after this one's.

        Row order is preserved -- existing rows keep their indices and
        appended rows land at the end -- which is what lets incremental
        index maintenance (:meth:`repro.index.GridIndex.updated`) stay
        bitwise-identical to a cold rebuild: per-cell weight sums extend
        the old summation sequence instead of reordering it.  Columns
        are already encoded, so no re-encoding happens; ``other`` must
        share this dataset's schema.
        """
        if other.schema != self._schema:
            raise ValueError(
                "appended rows must share the dataset schema "
                f"(got {list(other.schema.names)}, expected {list(self._schema.names)})"
            )
        out = SpatialDataset(
            np.concatenate([self._xs, other._xs]),
            np.concatenate([self._ys, other._ys]),
            self._schema,
            {
                name: np.concatenate([col, other._columns[name]])
                for name, col in self._columns.items()
            },
        )
        if self.csv_rows is not None:
            out.csv_rows = self.csv_rows + (other.csv_rows or [None] * other.n)
        return out

    def append_records(self, records: Sequence[tuple]) -> "SpatialDataset":
        """:meth:`append` from raw ``(x, y, {attr: value})`` records."""
        return self.append(SpatialDataset.from_records(list(records), self._schema))

    def delete(
        self, mask_or_indices: "np.ndarray | Sequence[int]"
    ) -> "SpatialDataset":
        """A new dataset without the selected rows (order preserved).

        Accepts a boolean mask over the current rows or an array of row
        indices.  Returns the surviving rows in their original relative
        order; use :meth:`delete_mask` when the caller also needs the
        keep-mask (incremental index maintenance does).
        """
        return self.subset(self.delete_mask(mask_or_indices))

    def delete_mask(
        self, mask_or_indices: "np.ndarray | Sequence[int]"
    ) -> np.ndarray:
        """Boolean *keep*-mask corresponding to a delete selection."""
        sel = np.asarray(mask_or_indices)
        keep = np.ones(self.n, dtype=bool)
        if sel.dtype == bool:
            if sel.shape != (self.n,):
                raise ValueError(
                    f"delete mask has shape {sel.shape}, expected ({self.n},)"
                )
            keep[sel] = False
        else:
            if sel.size and (sel.min() < -self.n or sel.max() >= self.n):
                raise IndexError(
                    f"delete index out of range for dataset of {self.n} rows"
                )
            keep[sel] = False
        return keep

    # ------------------------------------------------------------------
    # Row views
    # ------------------------------------------------------------------
    def object_at(self, i: int) -> SpatialObject:
        attrs: Dict[str, Hashable] = {}
        for attr in self._schema:
            raw = self._columns[attr.name][i]
            if isinstance(attr, CategoricalAttribute):
                attrs[attr.name] = attr.domain[int(raw)]
            else:
                attrs[attr.name] = float(raw)
        return SpatialObject(float(self._xs[i]), float(self._ys[i]), attrs)

    def __iter__(self) -> Iterator[SpatialObject]:
        return (self.object_at(i) for i in range(self.n))

    def __repr__(self) -> str:
        return (
            f"SpatialDataset(n={self.n}, attributes={list(self._schema.names)})"
        )
