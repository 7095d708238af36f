"""Space discretization (Function *Discretize*, Section 4.3), vectorized.

A :class:`DiscretizationGrid` tiles a space with ``nrow x ncol`` cells
and accumulates, for every cell and every channel, the weight sums of
the rectangles that **fully** cover the cell and of those that fully
**or partially** cover it ("over").  Cells where the two presence counts
differ are *dirty*; the rest are *clean* (covered by a fixed rectangle
set, hence lying inside a single disjoint region).

The per-rectangle cell ranges are computed with ``searchsorted`` on the
grid boundaries, and the per-cell sums with 2-D difference arrays
(up to 4 corner updates per rectangle, one ``bincount`` per channel,
then two cumulative sums) -- O(n_active + cells · channels) per
discretization, which is what makes the Python implementation
practical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..analysis.sanitizer import make_lock, sanitize_class
from ..asp.rectset import RectSet
from ..core.geometry import Rect


@dataclass(frozen=True)
class CellRanges:
    """Half-open cell index ranges covered by each rectangle on one axis."""

    full_lo: np.ndarray
    full_hi: np.ndarray
    over_lo: np.ndarray
    over_hi: np.ndarray


def axis_cell_range(
    boundaries: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    n_cells: int,
    kind: str = "full",
) -> tuple[np.ndarray, np.ndarray]:
    """Cell index range [a, b) fully / openly covered by each [lo_i, hi_i].

    Cell ``i`` spans ``[boundaries[i], boundaries[i+1]]``.  ``"full"``
    coverage is closure containment; ``"over"`` is open-interval
    intersection, so a rectangle whose edge lies exactly on a cell border
    does not touch the neighbouring cell.  Shared by the discretization
    grid (per-rectangle ranges) and the GI-DS candidate lattice
    (per-cell bounding/bounded region ranges).
    """
    if kind == "full":
        a = boundaries.searchsorted(lo, side="left")
        b = boundaries.searchsorted(hi, side="right") - 1
    elif kind == "over":
        a = boundaries.searchsorted(lo, side="right") - 1
        b = boundaries.searchsorted(hi, side="left")
    else:
        raise ValueError(f"kind must be 'full' or 'over', got {kind!r}")
    # Raw ufunc clamps: np.clip's dispatch overhead dominates at this
    # call frequency (once per processed space).
    for arr in (a, b):
        np.maximum(arr, 0, out=arr)
        np.minimum(arr, n_cells, out=arr)
    np.maximum(b, a, out=b)
    return a, b


def _axis_ranges(
    boundaries: np.ndarray, lo: np.ndarray, hi: np.ndarray, n_cells: int
) -> CellRanges:
    """Both coverage kinds for one axis (see :func:`axis_cell_range`)."""
    full_lo, full_hi = axis_cell_range(boundaries, lo, hi, n_cells, "full")
    over_lo, over_hi = axis_cell_range(boundaries, lo, hi, n_cells, "over")
    return CellRanges(full_lo, full_hi, over_lo, over_hi)


#: Read-only ``arange`` cache: every grid needs ``0..n`` multipliers for
#: its boundary arrays, and grid shapes repeat heavily within a search.
#: Unlocked by design: entries are immutable (write=False) deterministic
#: functions of the key and dict get/set are atomic in CPython, so a
#: racing duplicate build is merely wasted work, never a wrong array.
_ARANGE_CACHE: dict = {}


def _arange(n: int) -> np.ndarray:
    arr = _ARANGE_CACHE.get(n)
    if arr is None:
        arr = np.arange(n, dtype=np.float64)
        arr.setflags(write=False)
        _ARANGE_CACHE[n] = arr
    return arr


class BufferPool:
    """Recycles float64 scratch buffers keyed by length.

    DS-Search builds one short-lived grid per processed space; its
    boundary buffers are dead the moment the space is processed, so an
    engine-owned pool turns thousands of allocations into a handful.
    Buffers must only be returned (:meth:`give`) once nothing references
    them anymore.

    The pool is thread-safe (DESIGN.md §8.1): one
    :class:`~repro.engine.QuerySession` pool is shared by every engine
    the session assembles, and concurrent solves take and give buffers
    freely.  :meth:`give` validates what it accepts -- only 1-D float64
    arrays, each at most once while pooled -- because a silently aliased
    or wrong-typed buffer would corrupt a *later, unrelated* grid, the
    kind of failure that is near-impossible to trace back here.
    """

    def __init__(self) -> None:
        self._free: dict[int, list] = {}  # guarded-by: _lock
        # ids of arrays currently sitting in the pool: a pooled array is
        # referenced by `_free`, so its id cannot be recycled by the
        # allocator while tracked -- the membership test is exact.
        self._pooled_ids: set[int] = set()  # guarded-by: _lock
        self._lock = make_lock("BufferPool._lock")

    def take(self, n: int) -> np.ndarray:
        with self._lock:
            stack = self._free.get(n)
            if stack:
                arr = stack.pop()
                self._pooled_ids.discard(id(arr))
                return arr
        return np.empty(n, dtype=np.float64)

    def give(self, arr: np.ndarray) -> None:
        if (
            not isinstance(arr, np.ndarray)
            or arr.dtype != np.float64
            or arr.ndim != 1
        ):
            raise ValueError(
                "BufferPool.give accepts only 1-D float64 arrays, got "
                f"{type(arr).__name__}"
                + (
                    f" dtype={arr.dtype} ndim={arr.ndim}"
                    if isinstance(arr, np.ndarray)
                    else ""
                )
            )
        with self._lock:
            if id(arr) in self._pooled_ids:
                raise ValueError(
                    "buffer returned to the pool twice -- a later take() "
                    "would hand out two aliases of the same scratch array"
                )
            self._pooled_ids.add(id(arr))
            self._free.setdefault(arr.shape[0], []).append(arr)


def _corner_updates(
    r0: np.ndarray, r1: np.ndarray, c0: np.ndarray, c1: np.ndarray, nrow: int, ncol: int
) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """In-table corner updates of one coverage kind.

    A rectangle covering cells ``[r0, r1) x [c0, c1)`` adds its weights
    at corners ``(r0, c0)`` and ``(r1, c1)`` and subtracts them at
    ``(r1, c0)`` and ``(r0, c1)``.  A corner on row ``nrow`` or column
    ``ncol`` only reaches cells past the table, which the prefix sums
    never return, so it is not emitted.  Returns the flat ``nrow x ncol``
    indices, corner kind by corner kind, and per kind the rows of the
    rectangles emitting it.
    """
    live = (r0 < r1) & (c0 < c1)
    row_in = live & (r1 < nrow)
    col_in = live & (c1 < ncol)
    picks = tuple(np.flatnonzero(m) for m in (live, row_in, col_in, row_in & col_in))
    p00, p10, p01, p11 = picks
    flat = np.concatenate(
        [
            r0[p00] * ncol + c0[p00],
            r1[p10] * ncol + c0[p10],
            r0[p01] * ncol + c1[p01],
            r1[p11] * ncol + c1[p11],
        ]
    )
    return flat, picks


def _accumulate_both(
    rows: CellRanges,
    cols: CellRanges,
    weights: np.ndarray,
    nrow: int,
    ncol: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Difference-array accumulation of full and over sums in one pass.

    The full and over accumulations share one ``bincount`` per channel
    (offsetting the over keys by one table length).  Channels are
    scattered from a channel-major signed-weight block: expanding
    composite ``key*channel`` arrays instead costs an extra ``8·m·C``
    integer and float temp on the hottest path of the whole package.
    Every cell receives its corner terms in the order a padded
    ``(nrow+1) x (ncol+1)`` table would, so the sums are that table's,
    bit for bit.
    """
    n_channels = weights.shape[1]
    size = nrow * ncol
    flat_f, picks_f = _corner_updates(
        rows.full_lo, rows.full_hi, cols.full_lo, cols.full_hi, nrow, ncol
    )
    flat_o, picks_o = _corner_updates(
        rows.over_lo, rows.over_hi, cols.over_lo, cols.over_hi, nrow, ncol
    )
    if flat_f.size == 0 and flat_o.size == 0:
        zero = np.zeros((nrow, ncol, n_channels))
        return zero, zero.copy()

    # Channel-major signed weights: row ``ch`` is the contiguous
    # bincount weight vector for channel ``ch``.
    signed = np.empty((n_channels, flat_f.size + flat_o.size))
    at = 0
    for picks in (picks_f, picks_o):
        for pick, negate in zip(picks, (False, True, True, False)):
            block = signed[:, at : at + pick.size]
            w = weights if pick.size == weights.shape[0] else weights[pick]
            if negate:
                np.negative(w.T, out=block)
            else:
                block[...] = w.T
            at += pick.size
    flat = np.concatenate([flat_f, flat_o + size])
    acc = np.empty((n_channels, 2 * size))
    for ch in range(n_channels):
        acc[ch] = np.bincount(flat, weights=signed[ch], minlength=2 * size)
    acc = acc.reshape(n_channels, 2, nrow, ncol)
    acc = acc.cumsum(axis=2).cumsum(axis=3)
    full = np.ascontiguousarray(np.moveaxis(acc[:, 0], 0, -1))
    over = np.ascontiguousarray(np.moveaxis(acc[:, 1], 0, -1))
    return full, over


@dataclass
class GridAccumulation:
    """Per-cell channel sums plus the clean/dirty classification."""

    full: np.ndarray  # (nrow, ncol, C) sums over fully-covering rectangles
    over: np.ndarray  # (nrow, ncol, C) sums over fully-or-partially covering
    dirty: np.ndarray  # (nrow, ncol) bool

    @property
    def clean(self) -> np.ndarray:
        return ~self.dirty


class DiscretizationGrid:
    """An ``nrow x ncol`` grid over a space."""

    def __init__(
        self, space: Rect, ncol: int, nrow: int, pool: BufferPool | None = None
    ) -> None:
        if ncol < 1 or nrow < 1:
            raise ValueError("grid must have at least one row and column")
        if space.width <= 0 or space.height <= 0:
            # Degenerate spaces (MBRs of collinear cells) get a hair of
            # padding so cells keep positive area.
            pad_x = 1e-12 * max(1.0, abs(space.x_min)) if space.width <= 0 else 0.0
            pad_y = 1e-12 * max(1.0, abs(space.y_min)) if space.height <= 0 else 0.0
            space = space.expand(pad_x, pad_y)
        self.space = space
        self.ncol = ncol
        self.nrow = nrow
        self._pool = pool
        self._centers: Tuple[np.ndarray, np.ndarray] | None = None
        # Cached-arange boundaries written into pooled buffers: the grid
        # is the per-space allocation hot spot, and linspace/arange
        # dispatch is measurable at one grid per processed space.  The
        # last boundary is pinned to the space edge to avoid
        # accumulation drift.
        self.xs = self._boundaries(space.x_min, space.x_max, space.width, ncol)
        self.ys = self._boundaries(space.y_min, space.y_max, space.height, nrow)

    def _boundaries(self, lo: float, hi: float, extent: float, n: int) -> np.ndarray:
        buf = self._pool.take(n + 1) if self._pool is not None else np.empty(n + 1)
        np.multiply(_arange(n + 1), extent / n, out=buf)
        buf += lo
        buf[-1] = hi
        return buf

    def release(self) -> None:
        """Return the boundary buffers to the pool.

        Only call once the grid (and anything holding views into its
        boundary arrays) is no longer used; the engine does this at the
        end of each processed space.
        """
        if self._pool is not None:
            self._pool.give(self.xs)
            self._pool.give(self.ys)
            self._pool = None
            self.xs = self.ys = None  # fail fast on use-after-release

    @property
    def cell_width(self) -> float:
        return (self.space.x_max - self.space.x_min) / self.ncol

    @property
    def cell_height(self) -> float:
        return (self.space.y_max - self.space.y_min) / self.nrow

    # ------------------------------------------------------------------
    def cell_rect(self, row: int, col: int) -> Rect:
        return Rect(
            float(self.xs[col]),
            float(self.ys[row]),
            float(self.xs[col + 1]),
            float(self.ys[row + 1]),
        )

    def cell_centers(self) -> Tuple[np.ndarray, np.ndarray]:
        """(cx, cy) arrays of shape (nrow, ncol), memoized.

        The search consults centers up to twice per space (clean-cell
        incumbent update, then dirty-cell probing); the memo halves that.
        The returned arrays do not alias the boundary buffers, so they
        stay valid after :meth:`release`.
        """
        if self._centers is None:
            cx = (self.xs[:-1] + self.xs[1:]) / 2.0
            cy = (self.ys[:-1] + self.ys[1:]) / 2.0
            self._centers = (
                np.broadcast_to(cx, (self.nrow, self.ncol)),
                np.broadcast_to(cy[:, np.newaxis], (self.nrow, self.ncol)),
            )
        return self._centers

    def mbr_of_cells(self, rows: np.ndarray, cols: np.ndarray) -> Rect:
        """MBR of a set of cells given by parallel row/col index arrays."""
        if rows.size == 0:
            raise ValueError("MBR of zero cells")
        return Rect(
            float(self.xs[cols.min()]),
            float(self.ys[rows.min()]),
            float(self.xs[cols.max() + 1]),
            float(self.ys[rows.max() + 1]),
        )

    # ------------------------------------------------------------------
    def accumulate(
        self,
        rects: RectSet,
        active: np.ndarray,
        weights: np.ndarray,
        _taken: RectSet | None = None,
        _has_presence: bool = False,
    ) -> GridAccumulation:
        """Channel sums for the active rectangles, plus dirty flags.

        ``weights`` must align with *dataset* rows; ``active`` selects the
        rectangle/object indices participating in this space.  An extra
        presence channel (weight 1 per rectangle) is appended internally
        to drive the clean/dirty classification -- unless
        ``_has_presence`` declares it is already the last ``weights``
        column (the engine passes the compiler's cached extended matrix,
        saving a per-space concatenation).  ``_taken`` lets callers that
        already materialized ``rects.take(active)`` avoid a second
        gather.
        """
        active = np.asarray(active)
        sub = _taken if _taken is not None else rects.take(active)
        if _has_presence:
            w_ext = weights[active]
        else:
            w = weights[active]
            w_ext = np.concatenate([w, np.ones((w.shape[0], 1))], axis=1)
        cols = _axis_ranges(self.xs, sub.x_min, sub.x_max, self.ncol)
        rows = _axis_ranges(self.ys, sub.y_min, sub.y_max, self.nrow)
        full, over = _accumulate_both(rows, cols, w_ext, self.nrow, self.ncol)
        # Presence counts are sums of ±1 terms: exact in float64, so the
        # comparison below is safe up to 2^53 rectangles.
        dirty = (over[..., -1] - full[..., -1]) > 0.5
        return GridAccumulation(full=full[..., :-1], over=over[..., :-1], dirty=dirty)


# Runtime sanitizer (DESIGN.md §14): enforce the guarded-by
# declarations above when REPRO_SANITIZE=1.
sanitize_class(BufferPool)
