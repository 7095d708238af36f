"""GI-DS (Algorithm 2): grid-index-accelerated DS-Search.

For every cell of the candidate bottom-left-corner lattice we bound the
distance of all candidate regions *bl-corner-located* in the cell
(Section 5.3): the **bounding region** of a cell is the union of all its
candidate regions, the **bounded region** their intersection; objects in
the bounded region belong to every candidate, objects outside the
bounding region to none, so Lemma 8 range sums over the two regions feed
the Equation-1 machinery.  Cells are then searched greedily, best bound
first, sharing one incumbent, until the smallest pending bound reaches
the incumbent (or ``d_opt / (1+δ)`` in the approximate variant).

The candidate lattice extends the index grid ``ceil(a / cell_w)``
columns left and ``ceil(b / cell_h)`` rows down, because a region whose
bottom-left corner lies up to one region-size below/left of the data
bounding box can still contain objects; corners further out produce
empty regions, which the engine's empty-region seed already covers.

The lattice is held in struct-of-arrays form (parallel ``x0``/``y0``/
``lb`` columns, DESIGN.md §7.2): the frontier is one ``argsort`` over
the surviving bounds instead of a Python tuple heap, and per-cell
``Rect`` objects exist only for the few cells that actually get
searched.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.channels import BoundContext
from ..core.geometry import Rect
from ..core.objects import SpatialDataset
from ..core.query import ASRSQuery, RegionResult
from ..dssearch.bounds import apply_slack
from ..dssearch.grid import axis_cell_range
from ..dssearch.search import DSSearchEngine, SearchSettings
from .grid_index import GridIndex
from .summary import range_sums


@dataclass
class GIDSStats:
    """Instrumentation for Table 1 (ratio of cells searched, index size)."""

    total_cells: int = 0
    searched_cells: int = 0
    pruned_cells: int = 0
    index_nbytes: int = 0
    search: dict = field(default_factory=dict)

    @property
    def searched_ratio(self) -> float:
        return self.searched_cells / self.total_cells if self.total_cells else 0.0


def candidate_lattice_geometry(
    index: GridIndex, width: float, height: float
) -> tuple:
    """The data-independent geometry of the candidate lattice.

    Returns ``(x0, y0, over_ranges, full_ranges)``: the per-cell lattice
    corner arrays plus the Lemma-8 cell-range index arrays of each
    cell's bounding (union) and bounded (intersection) regions.  The
    lattice is the product of its columns and rows, so each range
    depends on one axis only: column ranges are shaped ``(nc, 1)`` and
    row ranges ``(nr,)``, and :func:`range_sums` broadcasts them over
    the ``(nc, nr)`` cells (cell ``c * nr + r``, the order of ``x0`` and
    ``y0``).  Depends only on the index *geometry* (space, cell sizes,
    boundary arrays) and the region size -- not on the data values -- so
    a :class:`~repro.engine.QuerySession` caches it per ``(width,
    height)`` and keeps it across in-bounds incremental updates, which
    preserve the index geometry exactly (DESIGN.md §9).
    """
    a, b = float(width), float(height)
    pad_cols = int(np.ceil(a / index.cell_width))
    pad_rows = int(np.ceil(b / index.cell_height))
    cols = np.arange(-pad_cols, index.sx)
    rows = np.arange(-pad_rows, index.sy)

    x0 = index.space.x_min + cols * index.cell_width
    x1 = x0 + index.cell_width
    y0 = index.space.y_min + rows * index.cell_height
    y1 = y0 + index.cell_height

    # Bounding region (union of candidate regions): overlap cell range.
    oc_lo, oc_hi = axis_cell_range(index.xs, x0, x1 + a, index.sx, "over")
    or_lo, or_hi = axis_cell_range(index.ys, y0, y1 + b, index.sy, "over")
    # Bounded region (intersection): fully-contained cell range.  When
    # the region is smaller than a lattice cell the intersection is
    # empty and the range collapses.
    fc_lo, fc_hi = axis_cell_range(
        index.xs, x1, np.maximum(x0 + a, x1), index.sx, "full"
    )
    fr_lo, fr_hi = axis_cell_range(
        index.ys, y1, np.maximum(y0 + b, y1), index.sy, "full"
    )
    return (
        np.repeat(x0, rows.size),
        np.tile(y0, cols.size),
        (oc_lo[:, np.newaxis], oc_hi[:, np.newaxis], or_lo, or_hi),
        (fc_lo[:, np.newaxis], fc_hi[:, np.newaxis], fr_lo, fr_hi),
    )


#: About how many lattice cells :func:`candidate_lattice_intervals` sums
#: and bounds per block.
LATTICE_BLOCK_CELLS = 8192


def candidate_lattice_intervals(
    index: GridIndex,
    compiler,
    width: float,
    height: float,
    tables: np.ndarray | None = None,
    ctx: BoundContext | None = None,
    geometry: tuple | None = None,
):
    """Target-independent half of the candidate-cell bounds.

    Returns ``(x0, y0, lo, hi)``: the lattice corners plus per-cell
    representation interval bounds.  Everything here depends only on the
    index, the compiled channels and the region *size* -- not on the
    query target -- so a :class:`~repro.engine.QuerySession` caches the
    whole tuple per ``(width, height, aggregator)`` and reduces a warm
    query's lattice work to one ``lower_bound_many`` call.  ``geometry``
    optionally injects a memoized :func:`candidate_lattice_geometry`
    result (the searchsorted range arrays are the expensive part that
    survives an incremental dataset update).
    """
    if geometry is None:
        geometry = candidate_lattice_geometry(index, width, height)
    x0, y0, over_ranges, full_ranges = geometry

    if tables is None:
        tables = index.channel_tables(compiler)
    if ctx is None:
        ctx = compiler.make_context()
    # A block of leading range entries at a time -- lattice columns for
    # the per-axis geometry, whose row ranges broadcast -- flattened to
    # the cell order (cell c * nr + r).  Sums and bounds are elementwise,
    # so the blocks give the whole-lattice result bit for bit while the
    # (cells, C) temporaries stay a block's size: an update derives
    # lattices beside solves.
    ndim = max(r.ndim for r in full_ranges)
    lead = max(r.shape[0] for r in full_ranges if r.ndim == ndim)
    step = max(1, LATTICE_BLOCK_CELLS * lead // max(x0.size, 1))
    channels = tables.shape[-1]
    lo = hi = None
    done = 0
    for first in range(0, max(lead, 1), step):
        part = slice(first, first + step)
        full = range_sums(
            tables, *(r[part] if r.ndim == ndim else r for r in full_ranges)
        ).reshape(-1, channels)
        over = range_sums(
            tables, *(r[part] if r.ndim == ndim else r for r in over_ranges)
        ).reshape(-1, channels)
        block_lo, block_hi = compiler.bounds_from_sums(full, over, ctx)
        if lo is None:
            lo = np.empty((x0.size, block_lo.shape[1]), dtype=block_lo.dtype)
            hi = np.empty((x0.size, block_hi.shape[1]), dtype=block_hi.dtype)
        lo[done : done + len(block_lo)] = block_lo
        hi[done : done + len(block_hi)] = block_hi
        done += len(block_lo)
    return x0, y0, lo, hi


def candidate_cell_arrays(
    index: GridIndex,
    engine: DSSearchEngine,
    query: ASRSQuery,
    tables: np.ndarray | None = None,
    ctx: BoundContext | None = None,
    intervals: tuple | None = None,
):
    """Struct-of-arrays lower bounds for the whole candidate lattice.

    Returns ``(x0, y0, lbs)``: parallel arrays holding each lattice
    cell's bottom-left corner and its Equation-1 lower bound.  Cells are
    uniform (``index.cell_width x index.cell_height``), so the corners
    fully determine the geometry -- no per-cell Python objects.

    ``tables`` / ``ctx`` / ``intervals`` let a warm
    :class:`~repro.engine.QuerySession` inject its memoized channel
    suffix table, bound context, or the fully cached lattice intervals;
    each defaults to a fresh computation.
    """
    if intervals is None:
        intervals = candidate_lattice_intervals(
            index, engine.compiler, query.width, query.height, tables, ctx
        )
    x0, y0, lo, hi = intervals
    lbs = apply_slack(
        query.metric.lower_bound_many(lo, hi, query.query_rep)
    )
    return x0, y0, lbs


def candidate_cell_bounds(
    index: GridIndex,
    engine: DSSearchEngine,
    query: ASRSQuery,
):
    """Lower bounds for every candidate lattice cell, as ``Rect`` objects.

    Compatibility/reference shape of :func:`candidate_cell_arrays`:
    returns ``(cell_rects, lbs)`` with one :class:`Rect` per cell.  The
    search itself stays on the array form; this materialization is for
    callers (tests, notebooks) that want geometry objects.
    """
    x0, y0, lbs = candidate_cell_arrays(index, engine, query)
    cw, ch = index.cell_width, index.cell_height
    rects = [
        Rect(float(x), float(y), float(x) + cw, float(y) + ch)
        for x, y in zip(x0.tolist(), y0.tolist())
    ]
    return rects, lbs


def gi_ds_search(
    dataset: SpatialDataset,
    query: ASRSQuery,
    index: GridIndex | None = None,
    granularity: tuple[int, int] = (64, 64),
    settings: SearchSettings | None = None,
    delta: float = 0.0,
    probe_cells: int = 16,
    return_stats: bool = False,
    *,
    engine: DSSearchEngine | None = None,
    channel_tables: np.ndarray | None = None,
    bound_context: BoundContext | None = None,
    lattice_intervals: tuple | None = None,
):
    """Solve an ASRS query with the grid-index-enhanced DS-Search.

    ``delta > 0`` gives the paper's *app-GIDS* approximate variant
    (Section 6): the answer is within ``(1 + delta)`` of optimal.
    ``probe_cells`` warm-starts the incumbent by exactly evaluating the
    center points of the most promising candidate cells, so the first
    drilled cells already face a competitive pruning threshold.

    The keyword-only ``engine`` / ``channel_tables`` / ``bound_context``
    parameters are the warm path used by
    :class:`~repro.engine.QuerySession`: a session injects an engine
    built from its cached compiler, ASP reduction and space memo plus
    its memoized suffix table, so repeat queries skip every per-dataset
    precomputation.
    """
    if engine is None:
        engine = DSSearchEngine(dataset, query, settings, delta=delta)
    stats = GIDSStats()
    if dataset.n == 0:
        result = engine.result()
        return (result, stats) if return_stats else result

    if index is None:
        index = GridIndex.build(dataset, *granularity)
    stats.index_nbytes = index.index_nbytes()

    x0, y0, lbs = candidate_cell_arrays(
        index,
        engine,
        query,
        tables=channel_tables,
        ctx=bound_context,
        intervals=lattice_intervals,
    )
    stats.total_cells = int(x0.size)
    cw, ch = index.cell_width, index.cell_height

    # Guard against an empty candidate lattice (e.g. injected intervals
    # from a stale snapshot): ``min(probe_cells, 0)`` would otherwise
    # reach ``argpartition(lbs, -1)`` on an empty array and crash.
    if probe_cells and stats.total_cells:
        from ..asp.evaluate import points_distances

        k = min(probe_cells, stats.total_cells)
        top = np.argpartition(lbs, k - 1)[:k]
        px = x0[top] + cw / 2.0
        py = y0[top] + ch / 2.0
        dists = points_distances(query, engine.compiler, engine.rects, px, py)
        engine.offer_batch(px, py, dists)

    # Frontier: cell bounds never change once computed, so a single
    # ascending argsort visits cells in exactly the order a min-heap
    # would pop them (stable sort = insertion-order tiebreak), with no
    # per-cell tuple allocations.  Pruning uses the δ-aware threshold,
    # not the raw incumbent, so app-GIDS prunes as aggressively as
    # Section 6 allows.
    survivors = np.flatnonzero(lbs < engine._threshold())
    stats.pruned_cells = stats.total_cells - int(survivors.size)
    frontier = survivors[np.argsort(lbs[survivors], kind="stable")]

    for i in frontier.tolist():
        lb = float(lbs[i])
        if lb >= engine._threshold():
            break
        cx0, cy0 = float(x0[i]), float(y0[i])
        cell = Rect(cx0, cy0, cx0 + cw, cy0 + ch)
        # A cell's active set and accumulation are target-independent:
        # a session's engine serves them from its space memo (DESIGN.md
        # §7.1), which also remembers the cells no rectangle overlaps.
        active = engine.root_active(cell)
        if not active.size:
            continue
        stats.searched_cells += 1
        engine.search_space(cell, lb, active, root=True)

    result: RegionResult = engine.result()
    stats.search = dict(engine.stats.__dict__)
    stats.search["extra"] = dict(engine.stats.extra)
    if return_stats:
        return result, stats
    return result
