"""DS-Search (Algorithm 1): discretize-and-split search for ASRS.

The engine reduces the ASRS instance to ASP (one rectangle per object),
then processes spaces from a min-heap keyed by lower bound:

1. **Discretize** the space with an ``ncol x nrow`` grid; clean cells
   yield exact candidate distances (their centers update the incumbent),
   dirty cells yield Equation-1 lower bounds.
2. **Prune** dirty cells whose bounds reach the incumbent distance.
3. If the space satisfies the **drop condition**, resolve every
   surviving dirty cell *exactly* by enumerating the uniform sub-cells
   induced by the rectangle edges crossing it (at drop-condition cell
   sizes at most one distinct edge per axis crosses a cell, so at most
   four candidate points); this hardening makes the algorithm
   unconditionally exact (DESIGN.md §5.2).  Otherwise **split** the
   surviving cells into up to two MBR child spaces and push them.

The search terminates when the heap's smallest lower bound reaches the
incumbent.  The incumbent is seeded with the *empty region* (a valid
answer containing no objects), which lets the search stay inside the MBR
of the ASP rectangles.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ..asp.evaluate import points_distances
from ..asp.rectset import RectSet
from ..asp.reduction import reduce_to_asp, region_for_point
from ..core.channels import ChannelCompiler
from ..core.geometry import Rect
from ..core.objects import SpatialDataset
from ..core.query import ASRSQuery, RegionResult
from .bounds import apply_slack
from .drop import gps_accuracy, satisfies_drop_condition
from .grid import BufferPool, DiscretizationGrid, GridAccumulation
from .split import split_space

#: Per-shape cap on memoized space entries (DESIGN.md §7.1): bounds a
#: long-lived session's memory when hard queries search many spaces.
CELL_CACHE_CAP = 4096


def _ragged_arange(counts: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(c)`` for each ``c`` in ``counts``."""
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    return np.arange(int(counts.sum())) - np.repeat(starts, counts)


class SpaceVisit(NamedTuple):
    """What a visit to a space derives before the target enters.

    The clean cells' ``(rows, cols)`` in row-major order and their
    exact representations, and the dirty cells' ``(rows, cols)`` in
    row-major order and their Equation-1 representation intervals
    ``lo``/``hi``.  ``reps`` is ``None`` when no cell is clean, ``lo``
    and ``hi`` when none is dirty.  The space memo stores one visit per
    space (DESIGN.md §7.1); its arrays are read-only, since concurrent
    solves share them.
    """

    clean_rows: np.ndarray
    clean_cols: np.ndarray
    reps: np.ndarray | None
    dirty_rows: np.ndarray
    dirty_cols: np.ndarray
    lo: np.ndarray | None
    hi: np.ndarray | None

    @property
    def nbytes(self) -> int:
        return sum(arr.nbytes for arr in self if arr is not None)


@dataclass(frozen=True)
class SearchSettings:
    """Tuning knobs of DS-Search.

    ``ncol``/``nrow`` control the discretization grid (the paper finds
    30 x 30 best).  ``small_active_cutoff`` drops a space to exact
    resolution once few rectangles remain -- cheaper than more grid
    rounds and still exact.  ``max_depth`` caps the split recursion;
    thanks to the exact dirty-cell resolution this is *also* safe: a
    depth-capped space is resolved by edge enumeration instead of being
    abandoned.
    """

    ncol: int = 30
    nrow: int = 30
    anchor: str = "top_right"
    small_active_cutoff: int = 64
    max_depth: int = 60
    resolution: float | None = None  # absolute floor for ΔX and ΔY
    resolution_factor: float = 1e-3  # default floor: factor x query size
    adaptive_grid: bool = True
    probe_dirty_cells: int = 8
    split_strategy: str = "quadratic"  # or "bisect" (ablation)

    def __post_init__(self) -> None:
        if self.ncol < 1 or self.nrow < 1:
            raise ValueError("grid dimensions must be positive")
        if self.max_depth < 1:
            raise ValueError("max_depth must be positive")
        if self.probe_dirty_cells < 0:
            raise ValueError("probe_dirty_cells must be non-negative")

    def grid_shape(self, n_active: int) -> tuple[int, int]:
        """Grid dimensions for a space with ``n_active`` rectangles.

        With ``adaptive_grid`` the cell count tracks the active-set size,
        so deep spaces with few rectangles pay for few cells: per-space
        cost is O(active + cells·channels) and balancing the two terms
        minimizes it without affecting exactness.
        """
        if not self.adaptive_grid:
            return self.ncol, self.nrow
        side = int(np.ceil(np.sqrt(max(2.0 * n_active, 36.0))))
        return min(self.ncol, side), min(self.nrow, side)


@dataclass
class SearchStats:
    """Counters describing one search run (used by tests and benches)."""

    spaces_processed: int = 0
    clean_cells: int = 0
    dirty_cells: int = 0
    pruned_dirty_cells: int = 0
    resolved_dirty_cells: int = 0
    splits: int = 0
    max_depth_seen: int = 0
    candidate_points_evaluated: int = 0
    incumbent_updates: int = 0
    #: region-semantics re-evaluations (:meth:`DSSearchEngine.true_distance`):
    #: one per distinct covered point set an engine verifies, however
    #: many candidates (mirages, tied anchors) cover that set
    verified_candidates: int = 0
    #: spaces whose grid sums were computed, not served by the space memo
    accumulations: int = 0
    #: memo entries refused because a space's active set differed from
    #: the entry's (see :meth:`DSSearchEngine._accumulation`)
    memo_mismatches: int = 0
    extra: dict = field(default_factory=dict)


class DSSearchEngine:
    """Reusable DS-Search engine for one (dataset, query) pair.

    GI-DS drives this engine over many index cells while sharing the
    incumbent; plain DS-Search calls :meth:`run` once on the full space.
    """

    def __init__(
        self,
        dataset: SpatialDataset,
        query: ASRSQuery,
        settings: SearchSettings | None = None,
        compiler: ChannelCompiler | None = None,
        delta: float = 0.0,
        *,
        rects: RectSet | None = None,
        accuracy: tuple[float, float] | None = None,
        empty_rep: np.ndarray | None = None,
        pool: BufferPool | None = None,
        spaces: dict | None = None,
    ) -> None:
        if not delta >= 0:  # NaN too: it would make every prune test false
            raise ValueError("delta must be non-negative")
        self.dataset = dataset
        self.query = query
        self.settings = settings or SearchSettings()
        self.compiler = compiler or ChannelCompiler(dataset, query.aggregator)
        self.delta = delta
        # The keyword-only parameters are the warm path of
        # :class:`~repro.engine.QuerySession`: a session hands in its
        # memoized ASP reduction, GPS accuracy, empty representation,
        # scratch-buffer pool and space memo so repeat queries skip
        # every O(n) precomputation.  Each defaults to the cold
        # computation.
        self.rects: RectSet = (
            rects
            if rects is not None
            else reduce_to_asp(
                dataset, query.width, query.height, self.settings.anchor
            )
        )
        dx, dy = accuracy if accuracy is not None else gps_accuracy(self.rects)
        # Floor the accuracies: splitting below the floor is replaced by
        # the exact per-cell edge enumeration, so results stay exact
        # while tie plateaus (many positionally distinct regions with
        # identical contents) stop forcing splits down to GPS scale.
        # The default floor scales with the query size -- sub-millesimal
        # region shifts carry no application meaning.
        if self.settings.resolution is not None:
            floor_x = floor_y = self.settings.resolution
        else:
            floor_x = self.settings.resolution_factor * query.width
            floor_y = self.settings.resolution_factor * query.height
        self.delta_x, self.delta_y = max(dx, floor_x), max(dy, floor_y)
        self.stats = SearchStats()
        self._pool = pool if pool is not None else BufferPool()
        #: The space memo this engine reads and fills (DESIGN.md §7.1):
        #: each processed space's target-independent ``(active,
        #: visit)`` (a :class:`SpaceVisit`), shared by the engines of one
        #: query shape.  ``None`` memoizes nothing.
        self.spaces = spaces
        # Verified distance per covered set, keyed by coordinate-rank
        # tuple and by packed membership mask (see :meth:`_verify_once`).
        self._verified: dict[tuple | bytes, float] = {}

        # Seed: the empty region is always a valid answer.  The seed
        # point sits two query sizes below-left of the rectangle union:
        # one size is not enough, because fl((x_min - w) + w) can round
        # *up* to x_min or beyond and the seed region would then contain
        # the extreme object while claiming the empty distance.
        if empty_rep is None:
            empty_rep = query.aggregator.empty_representation(dataset)
        self.best_distance = query.distance_to(empty_rep)
        if dataset.n:
            bounds = self.rects.bounds()
            self.best_point = (
                bounds.x_min - 2.0 * query.width,
                bounds.y_min - 2.0 * query.height,
            )
        else:
            self.best_point = (0.0, 0.0)
        self._tiebreak = itertools.count()

    # ------------------------------------------------------------------
    def run(self) -> RegionResult:
        """Plain DS-Search over the whole ASP space."""
        if self.dataset.n:
            self.search_space(self.rects.bounds(), 0.0, np.arange(self.rects.n))
        return self.result()

    def result(self) -> RegionResult:
        """The incumbent as an ASRS region (Theorem 1)."""
        x, y = self.best_point
        region = region_for_point(x, y, self.query.width, self.query.height)
        rep = self.query.aggregator.apply(self.dataset, region)
        return RegionResult(region=region, distance=self.best_distance, representation=rep)

    # ------------------------------------------------------------------
    # Incumbent maintenance
    # ------------------------------------------------------------------
    def true_distance(self, x: float, y: float, mask: np.ndarray | None = None) -> float:
        """Distance actually achieved by the region anchored at ``(x, y)``.

        Evaluates *region* containment -- ``x < o.x < fl(x + a)`` -- the
        semantics :meth:`result` reports and callers can verify.  The
        ASP coverage test compares against precomputed rectangle edges
        (``x > fl(o.x - a)``) instead; the two agree everywhere except
        when the point sits within a float ulp of a rectangle edge,
        where the rounding in ``fl(x + a)`` vs ``fl(o.x - a)`` can
        disagree about the boundary object.  ``mask`` is that region's
        membership mask, when the caller has already built it.
        """
        self.stats.verified_candidates += 1
        if mask is None:
            region = region_for_point(x, y, self.query.width, self.query.height)
            mask = self.dataset.mask_in_region(region)
        return self.query.distance_to(self.compiler.rep_from_mask(mask))

    def _verify_once(self, x: float, y: float) -> tuple[float, bool]:
        """``(verified distance, first time)`` of the set covered at ``(x, y)``.

        A verified distance is a function of the covered point set
        alone, so this engine runs :meth:`true_distance` once per set:
        on a tie plateau, or for a run of near-edge mirages, hundreds
        of candidates cover one and the same set.  A candidate is
        looked up by its coordinate-rank tuple first
        (:meth:`~repro.core.objects.SpatialDataset.region_rank_key`,
        O(log n)): equal tuples cover equal sets.  The tuple is finer
        than the set, so on a miss the exact packed membership bytes
        decide, and the distance is stored under both keys.
        """
        w, h = self.query.width, self.query.height
        rank = self.dataset.region_rank_key(x, y, w, h)
        verified = self._verified.get(rank)
        if verified is not None:
            return verified, False
        mask = self.dataset.mask_in_region(region_for_point(x, y, w, h))
        packed = np.packbits(mask).tobytes()
        verified = self._verified.get(packed)
        fresh = verified is None
        if fresh:
            verified = self._verified[packed] = self.true_distance(x, y, mask)
        self._verified[rank] = verified
        return verified, fresh

    def offer_batch(
        self, px: np.ndarray, py: np.ndarray, dists: np.ndarray
    ) -> bool:
        """Verified incumbent update from a batch of evaluated candidates.

        Every improving candidate is re-evaluated at region semantics
        (:meth:`_verify_once`) before it becomes the incumbent, so the
        reported distance is always one the returned rectangle achieves.
        Without this, a candidate landing within an ulp of a rectangle
        edge can claim a distance its region does not attain -- and the
        bogus incumbent then prunes the genuine optimum away (the
        region/distance desync of ``seed=2438094, n=26``).

        ``dists`` may be mutated (mirage candidates are masked out).
        Returns whether the incumbent improved.
        """
        improved = False
        while True:
            i = int(np.argmin(dists))
            claimed = float(dists[i])
            if not claimed < self.best_distance:
                return improved
            x, y = float(px[i]), float(py[i])
            verified, _ = self._verify_once(x, y)
            if verified < self.best_distance:
                self.best_distance = verified
                self.best_point = (x, y)
                self.stats.incumbent_updates += 1
                improved = True
            if verified <= claimed:
                # The verified value is at least as good as claimed, so
                # no remaining candidate (all >= claimed) can beat it.
                return improved
            dists[i] = np.inf  # near-edge mirage: rescan the rest

    # ------------------------------------------------------------------
    def root_active(self, space: Rect) -> np.ndarray:
        """Indices of the rectangles whose open interior meets ``space``.

        A root's active set is this global overlap set, a pure function
        of the space, so the memo serves it by key alone.  An empty set
        is memoized here, since no accumulation ever follows it.
        """
        key = (True, space.x_min, space.y_min, space.x_max, space.y_max)
        memo = self.spaces
        entry = memo.get(key) if memo is not None else None
        if entry is not None:
            return entry[0]
        active = np.flatnonzero(self.rects.overlap_mask(space))
        if not active.size and memo is not None and len(memo) < CELL_CACHE_CAP:
            active.setflags(write=False)
            memo[key] = (active, None)
        return active

    def search_space(
        self,
        space: Rect,
        space_lb: float,
        active: np.ndarray,
        root: bool = False,
    ) -> None:
        """Run the discretize-split loop on one space.

        Heap entries carry either a concrete active-index array or a
        lazy ``(parent_rects, parent_active)`` pair; the child's indices
        are materialized only when the entry is actually popped below
        the threshold, so entries pruned by a shrinking incumbent never
        pay for the overlap test or the index copy.

        ``root`` declares ``active`` the global overlap set of ``space``
        (what :meth:`root_active` returns), so the space's memo entry is
        trusted by key.  Every other space -- split children, and the
        ``arange`` root of :meth:`run` -- uses an entry only if its
        materialized active set equals the entry's.
        """
        if active.size == 0:
            return
        heap: list = []
        heapq.heappush(
            heap, (space_lb, next(self._tiebreak), space, active, 0)
        )
        while heap:
            lb, _, space, payload, depth = heapq.heappop(heap)
            if lb >= self._threshold():
                break
            if type(payload) is tuple:
                parent_sub, parent_active = payload
                payload = parent_active[parent_sub.overlap_mask(space)]
            if payload.size == 0:
                continue
            self._process_space(heap, space, payload, depth, root)
            root = False  # everything below the first pop is a child

    def _threshold(self) -> float:
        """Bound below which a cell/space can still improve the result.

        Exact search prunes against the incumbent; the (1+δ)-approximate
        variant of Section 6 prunes against ``d_opt / (1 + δ)``, which
        dynamically tracks the incumbent.
        """
        return self.best_distance / (1.0 + self.delta)

    # ------------------------------------------------------------------
    def _process_space(
        self,
        heap: list,
        space: Rect,
        active: np.ndarray,
        depth: int,
        root: bool,
    ) -> None:
        st = self.stats
        st.spaces_processed += 1
        st.max_depth_seen = max(st.max_depth_seen, depth)
        settings = self.settings

        ncol, nrow = settings.grid_shape(active.size)
        grid = DiscretizationGrid(space, ncol, nrow, pool=self._pool)
        try:
            visit, sub = self._accumulation(grid, space, active, root)
            self._discretize_and_expand(heap, grid, active, depth, visit, sub)
        finally:
            # The grid's boundary buffers are dead once the space is
            # processed (children carry plain floats); recycle them.
            grid.release()

    def _accumulation(
        self,
        grid: DiscretizationGrid,
        space: Rect,
        active: np.ndarray,
        root: bool,
    ) -> tuple:
        """``(visit, sub)`` of a space: memoized, or summed on ``grid``.

        The visit (:class:`SpaceVisit`) depends on the space, its active
        rectangles, their channel weights and values and the grid shape
        (a function of ``active.size``), never on the target or the
        incumbent, so a memo hit is bit for bit the visit it replaces.
        A child's active set is derived from its parent's, and the MBRs
        :func:`~repro.dssearch.split.split_space` builds can round past
        the parent's pinned last boundary, so a rectangle can meet a
        child space yet not the parent: a child's entry is used only
        when the active sets match.  ``sub`` is the gathered active
        rectangles when a miss had to gather them, else ``None``.
        """
        key = (root, space.x_min, space.y_min, space.x_max, space.y_max)
        memo = self.spaces
        entry = memo.get(key) if memo is not None else None
        if entry is not None:
            if root or np.array_equal(entry[0], active):
                return entry[1], None
            self.stats.memo_mismatches += 1
        sub = self.rects.take(active)
        acc = grid.accumulate(
            self.rects,
            active,
            self.compiler.weights_ext,
            _taken=sub,
            _has_presence=True,
        )
        self.stats.accumulations += 1
        visit = self._visit_of(acc, active)
        if entry is None and memo is not None and len(memo) < CELL_CACHE_CAP:
            active.setflags(write=False)
            memo[key] = (active, visit)
        return visit, sub

    def _visit_of(self, acc: GridAccumulation, active: np.ndarray) -> SpaceVisit:
        """The target-independent half of a visit, from the grid sums.

        Clean cells' exact representations and dirty cells' Equation-1
        intervals (with the bound context of the space's active values),
        in row-major cell order; the target enters later, through
        ``distance_many`` and ``lower_bound_many`` alone.
        """
        compiler = self.compiler
        clean_rows, clean_cols = np.nonzero(~acc.dirty)
        reps = (
            compiler.rep_from_sums(acc.full[clean_rows, clean_cols])
            if clean_rows.size
            else None
        )
        dirty_rows, dirty_cols = np.nonzero(acc.dirty)
        lo = hi = None
        if dirty_rows.size:
            lo, hi = compiler.bounds_from_sums(
                acc.full[dirty_rows, dirty_cols],
                acc.over[dirty_rows, dirty_cols],
                compiler.make_context(active),
            )
        visit = SpaceVisit(clean_rows, clean_cols, reps, dirty_rows, dirty_cols, lo, hi)
        for arr in visit:
            if arr is not None:
                arr.setflags(write=False)
        return visit

    def _discretize_and_expand(
        self,
        heap: list,
        grid: DiscretizationGrid,
        active: np.ndarray,
        depth: int,
        visit: SpaceVisit,
        sub: RectSet | None,
    ) -> None:
        st = self.stats
        settings = self.settings
        target = self.query.query_rep

        # Clean cells: exact distances; best center updates the incumbent.
        n_clean = visit.clean_rows.size
        st.clean_cells += n_clean
        if n_clean:
            dists = self.query.metric.distance_many(visit.reps, target)
            if float(dists.min()) < self.best_distance:
                rows, cols = visit.clean_rows, visit.clean_cols
                cx, cy = grid.cell_centers()
                self.offer_batch(cx[rows, cols], cy[rows, cols], dists)

        # Dirty cells: Equation-1 lower bounds, then prune.
        dirty_rows, dirty_cols = visit.dirty_rows, visit.dirty_cols
        st.dirty_cells += dirty_rows.size
        if dirty_rows.size == 0:
            return
        lbs = apply_slack(
            self.query.metric.lower_bound_many(visit.lo, visit.hi, target)
        )
        keep = lbs < self._threshold()
        st.pruned_dirty_cells += int((~keep).sum())
        if not keep.any():
            return
        dirty_rows, dirty_cols, lbs = dirty_rows[keep], dirty_cols[keep], lbs[keep]
        # The space's rectangles and weight rows, gathered once for the
        # probes, the exact resolution and the children's payload.
        if sub is None:
            sub = self.rects.take(active)
        taken = (sub, self.compiler.weights[active])

        # Probe the most promising dirty cells' centers: an exact point
        # evaluation is cheap and an early incumbent improvement prunes
        # whole subtrees that splitting would otherwise have to visit.
        # The post-probe re-prune is fused with the drop/split dispatch:
        # the surviving arrays are filtered exactly once here, and both
        # the exact resolution and the split consume them as-is.
        n_probe = min(settings.probe_dirty_cells, lbs.size)
        if n_probe:
            probe = np.argpartition(lbs, n_probe - 1)[:n_probe]
            cx, cy = grid.cell_centers()
            px = cx[dirty_rows[probe], dirty_cols[probe]]
            py = cy[dirty_rows[probe], dirty_cols[probe]]
            dists = points_distances(
                self.query, self.compiler, self.rects, px, py, taken=taken
            )
            st.candidate_points_evaluated += n_probe
            if self.offer_batch(px, py, dists):
                keep = lbs < self._threshold()
                if not keep.any():
                    return
                if not keep.all():
                    dirty_rows, dirty_cols, lbs = (
                        dirty_rows[keep],
                        dirty_cols[keep],
                        lbs[keep],
                    )

        drop = (
            satisfies_drop_condition(
                grid.cell_width, grid.cell_height, self.delta_x, self.delta_y
            )
            or active.size <= settings.small_active_cutoff
            or depth >= settings.max_depth
        )
        if drop:
            self._resolve_cells_exactly(grid, dirty_rows, dirty_cols, taken)
            return

        st.splits += 1
        children = split_space(
            grid, dirty_rows, dirty_cols, lbs, strategy=settings.split_strategy
        )
        for child in children:
            if child.lower_bound >= self._threshold():
                continue
            # Lazy payload: the child's active indices are derived from
            # (sub, active) only if the entry survives to its pop.
            heapq.heappush(
                heap,
                (
                    child.lower_bound,
                    next(self._tiebreak),
                    child.space,
                    (sub, active),
                    depth + 1,
                ),
            )

    # ------------------------------------------------------------------
    def _resolve_cells_exactly(
        self,
        grid: DiscretizationGrid,
        rows: np.ndarray,
        cols: np.ndarray,
        taken: tuple,
    ) -> None:
        """Exact per-cell resolution at the drop condition.

        Every surviving dirty cell is cut by the rectangle edges crossing
        its interior into uniform sub-cells; the candidate points of all
        cells are evaluated against the active rectangles in one batch.
        The caller has already pruned ``rows``/``cols`` against the
        current threshold (the re-prune is fused into the dispatch).
        ``taken`` is the space's gathered ``(rectangles, weight rows)``.
        """
        st = self.stats
        sub = taken[0]
        st.resolved_dirty_cells += rows.size
        px, py = self._candidate_points(grid, rows, cols, sub)
        st.candidate_points_evaluated += px.size
        # Chunk so the (points x active) coverage matrix stays small.
        chunk = max(1, 4_000_000 // max(1, sub.n))
        for start in range(0, px.size, chunk):
            bx, by = px[start : start + chunk], py[start : start + chunk]
            dists = points_distances(
                self.query, self.compiler, self.rects, bx, by, taken=taken
            )
            self.offer_batch(bx, by, dists)

    @staticmethod
    def _candidate_points(
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
        whole batch is computed with ragged-array arithmetic -- each
        edge bucketed into the one grid column (row) whose interior
        holds it, each cell paired with its column's (row's) edges, the
        pairs whose rectangle misses the cell dropped, then one sort of
        the crossing (cell, edge) pairs -- because a per-cell Python
        loop here was the single largest slice of the search runtime.
        Only a cell's own column can hold an edge strictly inside it,
        so the pairs are the dense ``(cells, 2·active)`` crossing masks'
        nonzeros, in the same order.
        """
        m = sub.n
        gxs, gys = grid.xs, grid.ys
        lox, hix = gxs[cols], gxs[cols + 1]
        loy, hiy = gys[rows], gys[rows + 1]

        def crossing(borders: np.ndarray, values: np.ndarray, lines: np.ndarray):
            # borders: the grid boundaries of one axis; values: (2m,)
            # edge coordinates (minima, then maxima); lines: (k,) each
            # cell's column (row).  Returns the (cell, cut) pairs of the
            # edges strictly inside a cell whose rectangle overlaps it,
            # cell-major and by edge index within a cell.
            n_lines = borders.size - 1
            line = borders.searchsorted(values, side="right") - 1
            np.maximum(line, 0, out=line)
            np.minimum(line, n_lines - 1, out=line)
            held = np.zeros(n_lines, dtype=bool)
            held[lines] = True
            edge = np.flatnonzero(
                held[line] & (borders[line] < values) & (values < borders[line + 1])
            )
            line = line[edge]
            edge = edge[np.argsort(line, kind="stable")]
            count = np.bincount(line, minlength=n_lines)
            per = count[lines]
            first = (np.cumsum(count) - count)[lines]
            cell = np.repeat(np.arange(lines.size), per)
            edge = edge[np.repeat(first, per) + _ragged_arange(per)]
            rect = np.where(edge < m, edge, edge - m)
            ov = (
                (sub.x_min[rect] < hix[cell])
                & (lox[cell] < sub.x_max[rect])
                & (sub.y_min[rect] < hiy[cell])
                & (loy[cell] < sub.y_max[rect])
            )
            return cell[ov], values[edge[ov]]

        def axis_mids(cell: np.ndarray, cut: np.ndarray, lo: np.ndarray,
                      hi: np.ndarray):
            # cell/cut: the crossing pairs; lo/hi: (k,) cell borders.
            # Returns the midpoints of all cells, cell by cell, each
            # cell's count and each cell's offset into them.
            order = np.lexsort((cut, cell))
            cell, cut = cell[order], cut[order]
            # One cut per distinct coordinate of a cell (0.0 == -0.0:
            # either one cuts the cell alike).
            fresh = np.ones(cut.size, dtype=bool)
            fresh[1:] = (cell[1:] != cell[:-1]) | (cut[1:] != cut[:-1])
            cell, cut = cell[fresh], cut[fresh]
            counts = np.bincount(cell, minlength=lo.size) + 1
            starts = np.cumsum(counts) - counts
            # Cell c's intervals run [lo, cut_0], [cut_0, cut_1], ...,
            # [cut_last, hi]: the j-th cut overall (cell-major) closes
            # interval j + cell and opens the next one.
            at = np.arange(cut.size) + cell
            left = np.empty(cut.size + lo.size)
            right = np.empty_like(left)
            left[starts] = lo
            left[at + 1] = cut
            right[at] = cut
            right[starts + counts - 1] = hi
            mids = left
            mids += right
            mids *= 0.5
            return mids, counts, starts

        ex = np.concatenate([sub.x_min, sub.x_max])
        ey = np.concatenate([sub.y_min, sub.y_max])
        mx, nx, sx = axis_mids(*crossing(gxs, ex, cols), lox, hix)
        my, ny, _ = axis_mids(*crossing(gys, ey, rows), loy, hiy)

        # Ragged cross product: cell c contributes nx[c]·ny[c] points,
        # x-major within each y (tile xs per y, repeat each y nx times).
        per_cell = nx * ny
        py = np.repeat(my, np.repeat(nx, ny))
        within = _ragged_arange(per_cell) % np.repeat(nx, per_cell)
        px = mx[np.repeat(sx, per_cell) + within]
        return px, py


def ds_search(
    dataset: SpatialDataset,
    query: ASRSQuery,
    settings: SearchSettings | None = None,
    exclude: Rect | None = None,
    return_stats: bool = False,
):
    """Solve an ASRS query exactly with DS-Search (Algorithm 1).

    ``exclude`` bars candidate regions overlapping the given rectangle
    -- the "find a *different* region like this one" mode of the paper's
    case study, where the query-by-example region itself would otherwise
    be returned at distance zero.  Exclusion is exact: the allowed
    bottom-left-corner domain (the complement of an expanded forbidden
    rectangle) is decomposed into at most four strips, each searched
    with a shared incumbent.

    Returns the :class:`RegionResult`; with ``return_stats=True`` a
    ``(result, stats)`` pair.
    """
    engine = DSSearchEngine(dataset, query, settings)
    if exclude is None or dataset.n == 0:
        result = engine.run()
    else:
        from ..core.geometry import subtract

        # Bottom-left corners whose region's interior meets `exclude`.
        forbidden = Rect(
            exclude.x_min - query.width,
            exclude.y_min - query.height,
            exclude.x_max,
            exclude.y_max,
        )
        # Relocate the empty-region seed outside the forbidden zone (it
        # defaults to just left/below the rectangle union, which the
        # forbidden zone may cover).  Two query sizes of margin, for the
        # same rounding reason as the constructor's seed.
        bounds = engine.rects.bounds()
        engine.best_point = (
            min(bounds.x_min, forbidden.x_min) - 2.0 * query.width,
            min(bounds.y_min, forbidden.y_min) - 2.0 * query.height,
        )
        for piece in subtract(engine.rects.bounds(), forbidden):
            active = np.flatnonzero(engine.rects.overlap_mask(piece))
            engine.search_space(piece, 0.0, active)
        result = engine.result()
    if return_stats:
        return result, engine.stats
    return result
