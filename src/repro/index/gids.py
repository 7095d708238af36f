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


#: Per-(size, aggregator) cap on memoized level-0 cell entries: bounds a
#: long-lived session's memory when hard queries search many cells.
CELL_CACHE_CAP = 4096


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

    Returns ``(x0, y0, over_ranges, full_ranges)``: the lattice corner
    arrays plus the Lemma-8 cell-range index arrays of each cell's
    bounding (union) and bounded (intersection) regions.  Depends only
    on the index *geometry* (space, cell sizes, boundary arrays) and the
    region size -- not on the data values -- so a
    :class:`~repro.engine.QuerySession` caches it per ``(width,
    height)`` and keeps it across in-bounds incremental updates, which
    preserve the index geometry exactly (DESIGN.md §9).
    """
    a, b = float(width), float(height)
    pad_cols = int(np.ceil(a / index.cell_width))
    pad_rows = int(np.ceil(b / index.cell_height))
    cols = np.arange(-pad_cols, index.sx)
    rows = np.arange(-pad_rows, index.sy)
    cc, rr = np.meshgrid(cols, rows, indexing="ij")
    cc, rr = cc.ravel(), rr.ravel()

    x0 = index.space.x_min + cc * index.cell_width
    x1 = x0 + index.cell_width
    y0 = index.space.y_min + rr * index.cell_height
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
    return x0, y0, (oc_lo, oc_hi, or_lo, or_hi), (fc_lo, fc_hi, fr_lo, fr_hi)


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
    full = range_sums(tables, *full_ranges)
    over = range_sums(tables, *over_ranges)
    if ctx is None:
        ctx = compiler.make_context()
    lo, hi = compiler.bounds_from_sums(full, over, ctx)
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
    cell_cache: dict | None = None,
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
    built from its cached compiler and ASP reduction plus its memoized
    suffix table, so repeat queries skip every per-dataset precomputation.
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
        cx1, cy1 = cx0 + cw, cy0 + ch
        cell = Rect(cx0, cy0, cx1, cy1)
        # The root-space work of a searched cell -- active set, gathered
        # rectangles, grid accumulation -- is target-independent, so a
        # session memoizes it per cell (DESIGN.md §7.1).  An empty tuple
        # marks a cell with no overlapping rectangles.
        entry = cell_cache.get(i) if cell_cache is not None else None
        if entry is None:
            entry = engine.root_state(cell)
            if cell_cache is not None and len(cell_cache) < CELL_CACHE_CAP:
                cell_cache[i] = entry
        if not entry:
            continue
        active, sub, acc = entry
        stats.searched_cells += 1
        engine.search_space(cell, lb, active, seed=(sub, acc))

    result: RegionResult = engine.result()
    stats.search = dict(engine.stats.__dict__)
    stats.search["extra"] = dict(engine.stats.extra)
    if return_stats:
        return result, stats
    return result
