"""The DS-Search kernels against their earlier dense implementations.

``_accumulate_both`` skips the corner updates that land past the cell
table, and ``_candidate_points`` cuts cells from sparse per-cell edge
lists instead of sorting a dense ``(cells, 2·active)`` float matrix per
axis.  Every float operation that survives keeps its operands and its
order, so both must return exactly the bytes of the references below:
the previous kernels, kept verbatim as test oracles.
"""

from typing import Tuple

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asp import RectSet
from repro.core import Rect
from repro.dssearch import DiscretizationGrid
from repro.dssearch.grid import CellRanges, _accumulate_both, _axis_ranges
from repro.dssearch.search import DSSearchEngine

# ----------------------------------------------------------------------
# Reference kernels (the dense implementations, verbatim)
# ----------------------------------------------------------------------


def _ragged_arange(counts: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(c)`` for each ``c`` in ``counts``."""
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    return np.arange(int(counts.sum())) - np.repeat(starts, counts)


def _corner_keys(
    r0: np.ndarray, r1: np.ndarray, c0: np.ndarray, c1: np.ndarray, stride: int
) -> tuple[np.ndarray, np.ndarray]:
    """(flat corner indices, keep mask) for one coverage kind."""
    keep = (r0 < r1) & (c0 < c1)
    if not keep.all():
        r0, r1, c0, c1 = r0[keep], r1[keep], c0[keep], c1[keep]
    flat = np.concatenate(
        [r0 * stride + c0, r1 * stride + c0, r0 * stride + c1, r1 * stride + c1]
    )
    return flat, keep


def reference_accumulate_both(
    rows: CellRanges,
    cols: CellRanges,
    weights: np.ndarray,
    nrow: int,
    ncol: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Difference-array accumulation of full and over sums in one pass.

    The full and over accumulations share one corner-key array per
    coverage kind and one ``bincount`` per channel (offsetting the over
    keys by one table length).  Channels are scattered from a
    channel-major signed-weight block: expanding composite
    ``key*channel`` arrays instead costs an extra ``8·m·C`` integer and
    float temp on the hottest path of the whole package.
    """
    n_channels = weights.shape[1]
    padded = (nrow + 1) * (ncol + 1)
    stride = ncol + 1
    flat_f, keep_f = _corner_keys(
        rows.full_lo, rows.full_hi, cols.full_lo, cols.full_hi, stride
    )
    flat_o, keep_o = _corner_keys(
        rows.over_lo, rows.over_hi, cols.over_lo, cols.over_hi, stride
    )
    if flat_f.size == 0 and flat_o.size == 0:
        zero = np.zeros((nrow, ncol, n_channels))
        return zero, zero.copy()

    w_f = weights if keep_f.all() else weights[keep_f]
    w_o = weights if keep_o.all() else weights[keep_o]
    m_f, m_o = w_f.shape[0], w_o.shape[0]
    # Channel-major signed weights: row ``ch`` is the contiguous
    # bincount weight vector for channel ``ch``.
    signed = np.empty((n_channels, 4 * m_f + 4 * m_o))
    wt_f, wt_o = w_f.T, w_o.T
    signed[:, 0 * m_f : 1 * m_f] = wt_f
    np.negative(wt_f, out=signed[:, 1 * m_f : 2 * m_f])
    signed[:, 2 * m_f : 3 * m_f] = signed[:, m_f : 2 * m_f]
    signed[:, 3 * m_f : 4 * m_f] = wt_f
    base = 4 * m_f
    signed[:, base + 0 * m_o : base + 1 * m_o] = wt_o
    np.negative(wt_o, out=signed[:, base + 1 * m_o : base + 2 * m_o])
    signed[:, base + 2 * m_o : base + 3 * m_o] = signed[:, base + m_o : base + 2 * m_o]
    signed[:, base + 3 * m_o : base + 4 * m_o] = wt_o
    flat = np.concatenate([flat_f, flat_o + padded])
    acc = np.empty((n_channels, 2 * padded))
    for ch in range(n_channels):
        acc[ch] = np.bincount(flat, weights=signed[ch], minlength=2 * padded)
    acc = acc.reshape(n_channels, 2, nrow + 1, ncol + 1)
    acc = acc.cumsum(axis=2).cumsum(axis=3)
    full = np.ascontiguousarray(np.moveaxis(acc[:, 0, :nrow, :ncol], 0, -1))
    over = np.ascontiguousarray(np.moveaxis(acc[:, 1, :nrow, :ncol], 0, -1))
    return full, over


def reference_candidate_points(
    grid: DiscretizationGrid,
    rows: np.ndarray,
    cols: np.ndarray,
    sub: RectSet,
) -> tuple[np.ndarray, np.ndarray]:
    """Candidate points of all cells' edge-induced sub-cells, batched.

    For every cell, the rectangle edges crossing its interior cut it
    into sub-intervals per axis; the candidate points are the cross
    products of the interval midpoints (cell borders included as cut
    ends, duplicate edges deduplicated, matching the open-face
    midpoint convention shared with the brute-force oracles).  The
    whole batch is computed with ragged-array arithmetic -- numpy
    passes over a ``(cells, 2·active)`` matrix per axis -- because a
    per-cell Python loop here was the single largest slice of the
    search runtime.
    """

    def axis_mids(values: np.ndarray, sel: np.ndarray, lo: np.ndarray,
                  hi: np.ndarray):
        # values: (2m,) edge coordinates; sel: (k, 2m) edges strictly
        # inside each cell; lo/hi: (k,) cell borders.  Returns the
        # (k, 2m+1) midpoint matrix and the per-cell midpoint count.
        k = lo.shape[0]
        vals = np.where(sel, values[np.newaxis, :], np.inf)
        vals.sort(axis=1)
        # Dedup within each row: repeats (and the inf padding, where
        # inf == inf) become padding, and a second sort compacts the
        # survivors to the row front.
        vals[:, 1:][vals[:, 1:] == vals[:, :-1]] = np.inf
        vals.sort(axis=1)
        counts = np.isfinite(vals).sum(axis=1) + 1
        np.minimum(vals, hi[:, np.newaxis], out=vals)  # padding -> hi
        left = np.empty((k, vals.shape[1] + 1))
        left[:, 0] = lo
        left[:, 1:] = vals
        right = np.empty_like(left)
        right[:, :-1] = vals
        right[:, -1] = hi
        mids = left
        mids += right
        mids *= 0.5
        return mids, counts

    gxs, gys = grid.xs, grid.ys
    ex = np.concatenate([sub.x_min, sub.x_max])
    ey = np.concatenate([sub.y_min, sub.y_max])
    lox, hix = gxs[cols], gxs[cols + 1]
    loy, hiy = gys[rows], gys[rows + 1]
    # Rectangles overlapping each cell, then their edges strictly
    # inside the cell, all as (cells, 2·active) masks.
    xov = (sub.x_min[np.newaxis, :] < hix[:, np.newaxis]) & (
        lox[:, np.newaxis] < sub.x_max[np.newaxis, :]
    )
    yov = (sub.y_min[np.newaxis, :] < hiy[:, np.newaxis]) & (
        loy[:, np.newaxis] < sub.y_max[np.newaxis, :]
    )
    ov = xov & yov
    ov2 = np.concatenate([ov, ov], axis=1)
    in_x = ov2 & (ex[np.newaxis, :] > lox[:, np.newaxis]) & (
        ex[np.newaxis, :] < hix[:, np.newaxis]
    )
    in_y = ov2 & (ey[np.newaxis, :] > loy[:, np.newaxis]) & (
        ey[np.newaxis, :] < hiy[:, np.newaxis]
    )
    mx, nx = axis_mids(ex, in_x, lox, hix)
    my, ny = axis_mids(ey, in_y, loy, hiy)

    # Ragged cross product: cell c contributes nx[c]·ny[c] points,
    # x-major within each y (tile xs per y, repeat each y nx times).
    per_cell = nx * ny
    n_points = int(per_cell.sum())
    width = mx.shape[1]
    flat_y = my[np.arange(ny.size).repeat(ny), _ragged_arange(ny)]
    py = np.repeat(flat_y, np.repeat(nx, ny))
    cell_of = np.repeat(np.arange(per_cell.size), per_cell)
    starts = np.concatenate([[0], np.cumsum(per_cell)[:-1]])
    within = np.arange(n_points) - np.repeat(starts, per_cell)
    px = mx.ravel()[cell_of * width + within % np.repeat(nx, per_cell)]
    return px, py


# ----------------------------------------------------------------------
# The identity checks
# ----------------------------------------------------------------------


def _assert_kernels_match(
    grid: DiscretizationGrid,
    sub: RectSet,
    weights: np.ndarray,
    cells: np.ndarray,
) -> None:
    """Both kernels equal their references, byte for byte."""
    cols = _axis_ranges(grid.xs, sub.x_min, sub.x_max, grid.ncol)
    rows = _axis_ranges(grid.ys, sub.y_min, sub.y_max, grid.nrow)
    got = _accumulate_both(rows, cols, weights, grid.nrow, grid.ncol)
    want = reference_accumulate_both(rows, cols, weights, grid.nrow, grid.ncol)
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.dtype == w.dtype
        assert g.tobytes() == w.tobytes()

    cell_rows, cell_cols = np.nonzero(cells)
    got = DSSearchEngine._candidate_points(grid, cell_rows, cell_cols, sub)
    want = reference_candidate_points(grid, cell_rows, cell_cols, sub)
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.dtype == w.dtype
        assert g.tobytes() == w.tobytes()


def _edge_pool(borders: np.ndarray) -> list:
    """Edge coordinates around one axis of a grid: every cell border,
    one ulp either side of it, snapped values across (and past) the
    space, and both signed zeros."""
    lo, hi = float(borders[0]), float(borders[-1])
    pool = [0.0, -0.0]
    for b in borders.tolist():
        pool += [b, float(np.nextafter(b, -np.inf)), float(np.nextafter(b, np.inf))]
    pool += np.arange(np.floor(lo) - 1.0, np.ceil(hi) + 1.5, 0.5).tolist()
    return pool


@st.composite
def kernel_cases(draw):
    ncol = draw(st.integers(1, 6))
    nrow = draw(st.integers(1, 6))
    # Snapped spaces; a zero extent is the degenerate space the grid pads.
    x0 = draw(st.integers(-6, 6)) / 2.0
    y0 = draw(st.integers(-6, 6)) / 2.0
    w = draw(st.sampled_from([0.0, 0.5, 1.0, 3.0, 7.5]))
    h = draw(st.sampled_from([0.0, 0.5, 1.0, 3.0, 7.5]))
    grid = DiscretizationGrid(Rect(x0, y0, x0 + w, y0 + h), ncol, nrow)
    x_pool, y_pool = _edge_pool(grid.xs), _edge_pool(grid.ys)

    n = draw(st.integers(1, 40))
    coords = []
    for _ in range(n):
        if draw(st.booleans()) and draw(st.booleans()):
            # A rectangle covering the whole space (borders included).
            coords.append((
                float(grid.xs[0]) - draw(st.sampled_from([0.0, 1.0])),
                float(grid.ys[0]) - draw(st.sampled_from([0.0, 1.0])),
                float(grid.xs[-1]) + draw(st.sampled_from([0.0, 1.0])),
                float(grid.ys[-1]) + draw(st.sampled_from([0.0, 1.0])),
            ))
            continue
        # Equal draws give zero-width (or zero-height) rectangles.
        xa, xb = draw(st.sampled_from(x_pool)), draw(st.sampled_from(x_pool))
        ya, yb = draw(st.sampled_from(y_pool)), draw(st.sampled_from(y_pool))
        coords.append((min(xa, xb), min(ya, yb), max(xa, xb), max(ya, yb)))
    x_min, y_min, x_max, y_max = (np.array(c) for c in zip(*coords))
    sub = RectSet(x_min, y_min, x_max, y_max)

    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    channels = draw(st.integers(1, 4))
    # Unrounded weights over a wide range of magnitudes: a change in
    # summation order shows in the bits.
    scale = 10.0 ** rng.integers(-6, 7, size=(n, channels))
    weights = np.concatenate(
        [rng.normal(size=(n, channels)) * scale, np.ones((n, 1))], axis=1
    )
    cells = rng.random((nrow, ncol)) < 0.7
    cells.flat[draw(st.integers(0, nrow * ncol - 1))] = True
    return grid, sub, weights, cells


class TestKernelIdentity:
    @settings(max_examples=300, deadline=None)
    @given(case=kernel_cases())
    def test_kernels_equal_the_dense_references(self, case):
        _assert_kernels_match(*case)

    def test_one_by_one_grid_with_signed_zero_edges(self):
        grid = DiscretizationGrid(Rect(-1.0, -1.0, 1.0, 1.0), 1, 1)
        sub = RectSet(
            [-0.0, 0.0, -3.0, -1.0],
            [0.0, -0.0, -3.0, -1.0],
            [0.5, 0.5, 3.0, 1.0],
            [0.5, 0.5, 3.0, 1.0],
        )
        weights = np.array(
            [[0.1, 1.0], [0.2, 1.0], [0.3, 1.0], [1e-17, 1.0]]
        )
        _assert_kernels_match(grid, sub, weights, np.ones((1, 1), dtype=bool))
        px, py = DSSearchEngine._candidate_points(
            grid, np.array([0]), np.array([0]), sub
        )
        # 0.0 and -0.0 cut the cell once per axis: 3 x 3 sub-cells.
        assert px.size == py.size == 9

    def test_edges_one_ulp_from_cell_borders(self):
        grid = DiscretizationGrid(Rect(0.0, 0.0, 4.0, 4.0), 4, 4)
        below, above = np.nextafter(2.0, -np.inf), np.nextafter(2.0, np.inf)
        sub = RectSet(
            [below, 2.0, above, 0.0],
            [above, below, 2.0, 0.0],
            [3.5, 3.5, 3.5, 4.0],
            [3.5, 3.5, 3.5, 4.0],
        )
        weights = np.concatenate(
            [np.random.default_rng(5).normal(size=(4, 3)), np.ones((4, 1))],
            axis=1,
        )
        _assert_kernels_match(grid, sub, weights, np.ones((4, 4), dtype=bool))

    def test_degenerate_padded_space(self):
        grid = DiscretizationGrid(Rect(3.0, 1.0, 3.0, 1.0), 2, 3)
        sub = RectSet(
            [2.0, 3.0, float(grid.xs[1])],
            [0.0, 1.0, float(grid.ys[2])],
            [4.0, 3.0, 5.0],
            [2.0, 1.0, 5.0],
        )
        weights = np.array([[0.7, 1.0], [0.11, 1.0], [0.013, 1.0]])
        _assert_kernels_match(grid, sub, weights, np.ones((3, 2), dtype=bool))
