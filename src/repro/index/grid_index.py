"""The grid index over a spatial dataset (Section 5.2).

Built once, query-independently: an ``sx x sy`` grid over the data
bounding box with per-attribute summary tables (suffix sums, Lemma 8).
At query time, :meth:`GridIndex.channel_tables` assembles a suffix table
of the query's compiled channel weights -- an O(n + cells·C) pass that
supports arbitrary selection functions; the persistent per-attribute
tables serve the common γ_all cases directly and determine the reported
index size.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..core.attributes import CategoricalAttribute, NumericAttribute
from ..core.channels import ChannelCompiler
from ..core.geometry import Rect
from ..core.objects import SpatialDataset
from .summary import cell_sums_to_suffix_table


class GridIndex:
    """A query-independent ``sx x sy`` grid index over a dataset."""

    def __init__(self, dataset: SpatialDataset, sx: int, sy: int) -> None:
        if sx < 1 or sy < 1:
            raise ValueError("index granularity must be positive")
        if dataset.n == 0:
            raise ValueError("cannot index an empty dataset")
        self.dataset = dataset
        self.sx = sx
        self.sy = sy
        bounds = dataset.bounds()
        # A degenerate extent (all objects on one line) still needs cells
        # of positive size for the bl-corner lattice.
        width = bounds.width if bounds.width > 0 else 1.0
        height = bounds.height if bounds.height > 0 else 1.0
        self.space = Rect(
            bounds.x_min, bounds.y_min, bounds.x_min + width, bounds.y_min + height
        )
        self.xs = np.linspace(self.space.x_min, self.space.x_max, sx + 1)
        self.ys = np.linspace(self.space.y_min, self.space.y_max, sy + 1)
        self.cell_width = width / sx
        self.cell_height = height / sy

        # Object -> cell assignment (objects on the top/right border fall
        # into the last cell).
        self._obj_col = np.clip(
            np.searchsorted(self.xs, dataset.xs, side="right") - 1, 0, sx - 1
        )
        self._obj_row = np.clip(
            np.searchsorted(self.ys, dataset.ys, side="right") - 1, 0, sy - 1
        )

        # Persistent per-attribute summary tables (the paper's Fig. 6).
        # The pre-suffix per-cell sums are kept alongside each table:
        # they are what incremental updates (:meth:`updated`) patch --
        # only dirty cells are re-summed, and re-running the suffix
        # cumsum over bitwise-identical cell sums reproduces the cold
        # table bit for bit.
        self._categorical_cells: Dict[str, np.ndarray] = {}
        self._numeric_cells: Dict[str, np.ndarray] = {}
        self._categorical_tables: Dict[str, np.ndarray] = {}
        self._numeric_tables: Dict[str, np.ndarray] = {}
        for attr in dataset.schema:
            if isinstance(attr, CategoricalAttribute):
                codes = dataset.column(attr.name)
                one_hot = np.zeros((dataset.n, attr.cardinality))
                one_hot[np.arange(dataset.n), codes] = 1.0
                cells = self._cell_sums(one_hot)
                self._categorical_cells[attr.name] = cells
                self._categorical_tables[attr.name] = cell_sums_to_suffix_table(cells)
            elif isinstance(attr, NumericAttribute):
                block = self._numeric_block(dataset.column(attr.name))
                cells = self._cell_sums(block)
                self._numeric_cells[attr.name] = cells
                self._numeric_tables[attr.name] = cell_sums_to_suffix_table(cells)

    # ------------------------------------------------------------------
    @staticmethod
    def build(dataset: SpatialDataset, sx: int, sy: int) -> "GridIndex":
        """Construct the index (alias of the constructor, reads nicer)."""
        return GridIndex(dataset, sx, sy)

    @property
    def n_cells(self) -> int:
        return self.sx * self.sy

    def cell_rect(self, col: int, row: int) -> Rect:
        return Rect(
            float(self.xs[col]),
            float(self.ys[row]),
            float(self.xs[col + 1]),
            float(self.ys[row + 1]),
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _numeric_block(values: np.ndarray) -> np.ndarray:
        """The [value, pos, neg, count] weight columns of a numeric attr."""
        return np.stack(
            [
                values,
                np.maximum(values, 0.0),
                np.minimum(values, 0.0),
                np.ones(values.shape[0]),
            ],
            axis=1,
        )

    def _cell_sums(self, per_object: np.ndarray) -> np.ndarray:
        """Per-cell sums of arbitrary per-object weight columns.

        ``np.bincount`` accumulates in row order, so every cell's sum is
        the sequential float sum of its member rows ascending -- the
        property incremental updates rely on for bitwise fidelity.
        """
        C = per_object.shape[1]
        cells = np.zeros((self.sx, self.sy, C))
        flat = self._obj_col * self.sy + self._obj_row
        for ch in range(C):
            cells[..., ch] = np.bincount(
                flat, weights=per_object[:, ch], minlength=self.sx * self.sy
            ).reshape(self.sx, self.sy)
        return cells

    def _suffix_table(self, per_object: np.ndarray) -> np.ndarray:
        """Suffix table of arbitrary per-object weight columns."""
        return cell_sums_to_suffix_table(self._cell_sums(per_object))

    def channel_tables(self, compiler: ChannelCompiler) -> np.ndarray:
        """Suffix table of a query's compiled channel weights.

        Shape ``(sx+1, sy+1, C)``; one O(n) pass per query, supporting
        arbitrary aggregator terms and selection functions.
        """
        if compiler.dataset is not self.dataset:
            raise ValueError("compiler was built over a different dataset")
        return self._suffix_table(compiler.weights)

    def channel_cells_and_table(
        self, compiler: ChannelCompiler
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(cell_sums, suffix_table)`` of a compiler's channel weights.

        Callers that may later patch the table incrementally (a
        :class:`~repro.engine.QuerySession`) keep the cell sums; the
        table equals :meth:`channel_tables` bit for bit.
        """
        if compiler.dataset is not self.dataset:
            raise ValueError("compiler was built over a different dataset")
        cells = self._cell_sums(compiler.weights)
        return cells, cell_sums_to_suffix_table(cells)

    def categorical_table(self, attribute: str) -> np.ndarray:
        """Persistent summary table of a categorical attribute.

        Derived lazily from the patched cell sums after an incremental
        update (:meth:`updated` defers the suffix cumsum of tables
        nobody may ever read).
        """
        table = self._categorical_tables[attribute]
        if table is None:
            table = cell_sums_to_suffix_table(self._categorical_cells[attribute])
            self._categorical_tables[attribute] = table
        return table

    def numeric_table(self, attribute: str) -> np.ndarray:
        """Persistent [value, pos, neg, count] table of a numeric attribute."""
        table = self._numeric_tables[attribute]
        if table is None:
            table = cell_sums_to_suffix_table(self._numeric_cells[attribute])
            self._numeric_tables[attribute] = table
        return table

    def count_in_cell_range(
        self, attribute: str, value_code: int, col_lo, col_hi, row_lo, row_hi
    ) -> np.ndarray:
        """Lemma 8 count query against the persistent tables."""
        from .summary import range_sums

        table = self.categorical_table(attribute)[..., value_code : value_code + 1]
        return range_sums(
            table,
            np.asarray(col_lo),
            np.asarray(col_hi),
            np.asarray(row_lo),
            np.asarray(row_hi),
        )[..., 0]

    # ------------------------------------------------------------------
    # Incremental maintenance (engine/updates.py, DESIGN.md §9)
    # ------------------------------------------------------------------
    def updated(
        self, dataset: SpatialDataset, kept: np.ndarray
    ) -> "tuple[GridIndex, np.ndarray] | None":
        """``(new_index, dirty_flat)`` over a row-mutated dataset, or ``None``.

        ``dataset`` must be this index's dataset restricted to the
        ``kept`` old-row indices (ascending, relative order preserved)
        with any appended rows at the end.  The derived index is
        bitwise-identical to ``GridIndex(dataset, self.sx, self.sy)``:
        cell geometry is reused, object->cell assignments are gathered
        (kept) or searchsorted (appended), and only the *dirty* cells --
        those that gained or lost a member -- have their per-attribute
        sums re-derived from their member rows; clean cells keep sums
        that are bitwise the cold ones because their member sequence is
        unchanged.  ``dirty_flat`` (sorted flat cell ids) lets callers
        patch their own per-cell artefacts the same way.

        Returns ``None`` when the incremental path cannot be faithful
        and the caller must rebuild cold: the data bounds changed (cell
        geometry would shift) or the mutated dataset is empty.
        """
        if dataset.n == 0:
            return None
        old_b, new_b = self.dataset.bounds(), dataset.bounds()
        if (old_b.x_min, old_b.y_min, old_b.x_max, old_b.y_max) != (
            new_b.x_min,
            new_b.y_min,
            new_b.x_max,
            new_b.y_max,
        ):
            return None

        kept = np.asarray(kept, dtype=np.int64)
        new = object.__new__(GridIndex)
        new.dataset = dataset
        new.sx, new.sy = self.sx, self.sy
        new.space = self.space
        new.xs, new.ys = self.xs, self.ys
        new.cell_width, new.cell_height = self.cell_width, self.cell_height

        app_xs, app_ys = dataset.xs[kept.size :], dataset.ys[kept.size :]
        app_col = np.clip(
            np.searchsorted(self.xs, app_xs, side="right") - 1, 0, self.sx - 1
        )
        app_row = np.clip(
            np.searchsorted(self.ys, app_ys, side="right") - 1, 0, self.sy - 1
        )
        new._obj_col = np.concatenate([self._obj_col[kept], app_col])
        new._obj_row = np.concatenate([self._obj_row[kept], app_row])

        deleted = np.ones(self.dataset.n, dtype=bool)
        deleted[kept] = False
        old_flat = self._obj_col * self.sy + self._obj_row
        dirty_flat = np.unique(
            np.concatenate([old_flat[deleted], app_col * self.sy + app_row])
        ).astype(np.int64)

        members, local = new.dirty_members(dirty_flat)
        new._categorical_cells = {}
        new._numeric_cells = {}
        # Suffix tables are derived lazily from the patched cell sums
        # (``None`` markers): the serving path queries the per-compiler
        # channel tables, not these, so an update stream should not pay
        # a suffix cumsum per attribute per update for tables nobody
        # reads.  Accessors materialize on demand, bitwise identically.
        new._categorical_tables = {}
        new._numeric_tables = {}
        for attr in dataset.schema:
            if isinstance(attr, CategoricalAttribute):
                codes = dataset.column(attr.name)[members]
                block = np.zeros((members.size, attr.cardinality))
                block[np.arange(members.size), codes] = 1.0
                new._categorical_cells[attr.name] = new.patch_cell_sums(
                    self._categorical_cells[attr.name], dirty_flat, local, block
                )
                new._categorical_tables[attr.name] = None
            elif isinstance(attr, NumericAttribute):
                block = self._numeric_block(dataset.column(attr.name)[members])
                new._numeric_cells[attr.name] = new.patch_cell_sums(
                    self._numeric_cells[attr.name], dirty_flat, local, block
                )
                new._numeric_tables[attr.name] = None
        return new, dirty_flat

    def dirty_members(
        self, dirty_flat: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(rows, local)``: this dataset's rows inside the dirty cells.

        ``rows`` are ascending dataset row indices; ``local[i]`` is the
        position of row ``rows[i]``'s cell within ``dirty_flat``.
        """
        flat = self._obj_col * self.sy + self._obj_row
        lookup = np.full(self.sx * self.sy, -1, dtype=np.int64)
        lookup[dirty_flat] = np.arange(dirty_flat.size)
        local = lookup[flat]
        rows = np.flatnonzero(local >= 0)
        return rows, local[rows]

    def patch_cell_sums(
        self,
        old_cells: np.ndarray,
        dirty_flat: np.ndarray,
        member_local: np.ndarray,
        member_weights: np.ndarray,
    ) -> np.ndarray:
        """Cell sums over *this* index's dataset, patched from old sums.

        Re-sums only the ``dirty_flat`` cells from ``member_weights``
        (the weight rows of :meth:`dirty_members`'s rows, in row order);
        every other cell keeps its old sum.  Bitwise-identical to
        :meth:`_cell_sums` over the full new weight matrix, because
        ``bincount`` accumulates each cell's members in the same
        ascending row order either way.
        """
        cells = old_cells.copy()
        C = cells.shape[2]
        flat_cells = cells.reshape(self.sx * self.sy, C)
        for ch in range(C):
            flat_cells[dirty_flat, ch] = np.bincount(
                member_local,
                weights=member_weights[:, ch],
                minlength=dirty_flat.size,
            )
        return cells

    # ------------------------------------------------------------------
    def index_nbytes(self) -> int:
        """Memory footprint of the persistent summary tables (Table 1).

        Includes the pre-suffix cell sums kept for incremental updates.
        """
        total = self._obj_col.nbytes + self._obj_row.nbytes
        for tables in (self._categorical_tables, self._numeric_tables):
            for table in tables.values():
                if table is not None:  # lazily-deferred after an update
                    total += table.nbytes
        for cells_dict in (self._categorical_cells, self._numeric_cells):
            for cells in cells_dict.values():
                total += cells.nbytes
        return total

    def __repr__(self) -> str:
        return f"GridIndex(sx={self.sx}, sy={self.sy}, n={self.dataset.n})"
