"""The zero-churn query engine: a dataset-bound :class:`QuerySession`.

Serving many ASRS queries over one dataset repeats a lot of work that
depends only on the dataset (or on coarse query parameters), not on the
query target: the grid index and its channel suffix tables, the channel
compilation of each aggregator, the ASP reduction for each region size,
the GPS accuracies, the bound contexts, and the empty-region seed.  A
cold :func:`~repro.dssearch.ds_search` / :func:`~repro.index.gi_ds_search`
call recomputes all of it per query.

A :class:`QuerySession` binds a dataset once and memoizes every one of
those artefacts (DESIGN.md §7):

* the :class:`~repro.index.GridIndex` (built lazily on the first GI-DS
  solve);
* one :class:`~repro.core.channels.ChannelCompiler` per aggregator;
* the index channel suffix table and full-dataset
  :class:`~repro.core.channels.BoundContext` per compiler;
* the ASP :class:`~repro.asp.rectset.RectSet` and its GPS accuracy per
  ``(width, height, anchor)``;
* the empty representation per aggregator;
* the candidate-lattice interval bounds per ``(width, height,
  aggregator)``, and in the same key the space memo: the active set and
  target-independent visit of every space the search processed;
* one shared :class:`~repro.dssearch.grid.BufferPool` of grid scratch
  buffers.

Caches key aggregators by object identity: reusing the *same*
aggregator object across queries -- the natural way to phrase a
workload -- hits every cache, while structurally equal copies are
merely cache misses, never wrong answers.  All cached artefacts are
deterministic functions of the dataset, so session answers are
bitwise-identical to cold calls made at the session's configuration
(granularity and settings).

Sessions are thread-safe (DESIGN.md §8.1): every memoization goes
through an in-flight-deduplicated get-or-compute, so concurrent
``solve`` calls share warm artefacts, never compute one twice, and
return results bitwise-identical to serial execution.  Each solve
assembles its own :class:`~repro.dssearch.search.DSSearchEngine`
(private incumbent state); the only cross-thread mutables are the
caches, whose values are deterministic and used read-only, and the
lock-guarded :class:`~repro.dssearch.grid.BufferPool`.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Callable, Dict, Iterable, Sequence, Tuple

import numpy as np

from ..analysis.sanitizer import make_lock, sanitize_class
from ..asp.rectset import RectSet
from ..asp.reduction import reduce_to_asp
from ..core.aggregators import CompositeAggregator
from ..core.channels import BoundContext, ChannelCompiler
from ..core.geometry import Rect
from ..core.objects import SpatialDataset
from ..core.query import ASRSQuery, RegionResult
from ..dssearch import canonical
from ..dssearch.drop import gps_accuracy
from ..dssearch.grid import BufferPool
from ..dssearch.search import DSSearchEngine, SearchSettings
from ..index.gids import (
    GIDSStats,
    candidate_lattice_geometry,
    candidate_lattice_intervals,
    gi_ds_search,
)
from ..index.grid_index import GridIndex
from .gate import SharedExclusiveGate

if TYPE_CHECKING:  # circular at runtime: updates.py/wal.py import sessions
    from .updates import UpdateStats
    from .wal import WriteAheadLog


def _validated_granularity(
    granularity: Tuple[int, int] | str, n: int
) -> Tuple[int, int]:
    """``(sx, sy)`` from the granularity argument, or raise ``ValueError``.

    Accepts ``"auto"`` or a pair of integers >= 1.  Any other string
    used to reach ``GridIndex.build(dataset, *granularity)`` and splat
    its *characters* as arguments -- validated here instead.
    """
    if isinstance(granularity, str):
        if granularity != "auto":
            raise ValueError(
                "granularity must be 'auto' or a pair of ints >= 1, "
                f"got {granularity!r}"
            )
        # A session amortizes the index build, so it affords a finer
        # grid than a cold call: tighter cell bounds prune more and
        # shrink the per-cell active sets.  ~2·sqrt(n) per axis
        # (capped) measures best on the Fig. 10 workloads.
        side = int(round(2.0 * np.sqrt(max(n, 1))))
        return (min(256, max(8, side)),) * 2
    try:
        sx, sy = granularity
    except (TypeError, ValueError):
        raise ValueError(
            "granularity must be 'auto' or a pair of ints >= 1, "
            f"got {granularity!r}"
        ) from None
    if not all(
        isinstance(v, (int, np.integer)) and not isinstance(v, bool) and v >= 1
        for v in (sx, sy)
    ):
        raise ValueError(
            "granularity must be 'auto' or a pair of ints >= 1, "
            f"got {granularity!r}"
        )
    return (int(sx), int(sy))


class QuerySession:
    """Binds a dataset once; amortizes all index state across queries.

    Parameters
    ----------
    dataset:
        The spatial dataset every query of this session runs against.
    granularity:
        Grid-index granularity ``(sx, sy)`` for GI-DS solves, or
        ``"auto"``; the index is built lazily on first use.
    settings:
        DS-Search settings shared by all solves (the ``anchor`` also
        keys the ASP-reduction cache).
    """

    def __init__(
        self,
        dataset: SpatialDataset,
        granularity: Tuple[int, int] | str = "auto",
        settings: SearchSettings | None = None,
    ) -> None:
        self.dataset = dataset
        self.granularity = _validated_granularity(granularity, dataset.n)
        self.settings = settings or SearchSettings()
        #: Mutation counter: bumped by every effective append/delete/
        #: apply.  Bundles record it (engine/persist.py): it tells
        #: replay which log records the checkpointed CSV already holds.
        self.epoch = 0
        #: Optional :class:`~repro.engine.wal.WriteAheadLog`: when
        #: attached, every effective mutation is durably logged before
        #: state changes (see :meth:`attach_wal`).
        self.wal = None
        #: Format version of the bundle this session was opened from
        #: (``load_session`` sets it; ``None`` otherwise).  Purely
        #: diagnostic -- ``cache_info()``/``SessionPool.info()`` surface
        #: it so operators can see which layout a restart read.
        self.bundle_version: int | None = None
        self._pool = BufferPool()
        self._index: GridIndex | None = None
        # Every aggregator/compiler whose id() keys a cache entry is
        # pinned here, atomically with the entry (inside _memo's store):
        # an id-keyed entry must never outlive its key object, or
        # CPython id reuse could hand a *different* aggregator a stale
        # artefact -- including entries repopulated by an in-flight
        # solve after a mid-solve clear_caches.
        self._pins: Dict[int, object] = {}  # guarded-by: _memo_lock
        self._compilers: Dict[int, ChannelCompiler] = {}
        self._tables: Dict[int, np.ndarray] = {}
        # Pre-suffix per-cell channel sums, kept next to each suffix
        # table so incremental updates can re-sum only dirty cells
        # (engine/updates.py).
        self._table_cells: Dict[int, np.ndarray] = {}
        self._contexts: Dict[int, BoundContext] = {}
        self._empty_reps: Dict[int, np.ndarray] = {}
        self._reductions: Dict[
            Tuple[float, float, str], Tuple[RectSet, Tuple[float, float]]
        ] = {}
        self._lattices: Dict[Tuple[float, float, int], tuple] = {}
        # Lattice *geometry* per (width, height): corner arrays plus the
        # Lemma-8 range indices.  Compiler-independent, and preserved
        # across in-bounds incremental updates (the index geometry does
        # not move), so the lattice refresh after an update pays only
        # the range sums, not the searchsorted geometry pass.
        self._lattice_geometry: Dict[Tuple[float, float], tuple] = {}
        # The space memo (DESIGN.md §7.1): per (width, height,
        # compiler), a dict from (root, x_min, y_min, x_max, y_max) to
        # the space's (active, visit), filled by every engine this
        # session assembles.
        self._spaces: Dict[Tuple[float, float, int], dict] = {}
        # Concurrency (DESIGN.md §8.1): the index gets a dedicated lock
        # (its build is the one expensive single-shot artefact); every
        # other cache goes through the in-flight-deduplicated _memo.
        self._index_lock = make_lock("QuerySession._index_lock")
        self._memo_lock = make_lock("QuerySession._memo_lock")
        self._inflight: Dict[tuple, threading.Event] = {}  # guarded-by: _memo_lock
        # Update gate (DESIGN.md §9.3): solves/warms -- and the
        # facade's checkpoint/compact/persist, which must only keep
        # updates out -- hold it shared; apply/append/delete hold it
        # exclusively: they wait for in-flight holders to drain and
        # block new ones, so a solve sees either the pre- or the
        # post-update session, never a mix.
        self._update_gate = SharedExclusiveGate("QuerySession._update_gate")

    # ------------------------------------------------------------------
    # Memoization machinery
    # ------------------------------------------------------------------
    def _memo(self, cache: dict, key, compute: Callable, pin=None):
        """Get-or-compute with per-key in-flight deduplication.

        The fast path is a bare ``dict.get`` (atomic in CPython).  On a
        miss, exactly one thread computes while any concurrent requester
        of the *same* key waits on an event -- compute-once matters
        beyond efficiency, because downstream caches key artefacts by
        ``id()`` and must all observe the same object.  ``compute``
        runs with no lock held, so nested memoizations (lattice ->
        tables -> index) cannot deadlock; the artefact dependency graph
        is acyclic, so neither can the event waits.

        ``pin`` names the object whose ``id()`` appears in ``key``; it
        is stored into ``_pins`` under the same lock acquisition as the
        entry, so a concurrent ``clear_caches`` (which drops entries
        and pins together) can never leave an entry keyed by the id of
        a collectable object.
        """
        value = cache.get(key)
        if value is not None:
            return value
        inflight_key = (id(cache), key)
        with self._memo_lock:
            value = cache.get(key)
            if value is not None:
                return value
            event = self._inflight.get(inflight_key)
            if event is None:
                self._inflight[inflight_key] = event = threading.Event()
                owner = True
            else:
                owner = False
        if not owner:
            event.wait()
            value = cache.get(key)
            if value is not None:
                return value
            # The owner failed (its compute raised): take over.
            return self._memo(cache, key, compute, pin=pin)
        try:
            value = compute()
            with self._memo_lock:
                if pin is not None:
                    self._pins[id(pin)] = pin
                cache[key] = value
        finally:
            with self._memo_lock:
                del self._inflight[inflight_key]
            event.set()
        return value

    # ------------------------------------------------------------------
    # Memoized artefacts
    # ------------------------------------------------------------------
    @property
    def index(self) -> GridIndex:
        """The session's grid index, built on first access."""
        idx = self._index
        if idx is None:
            with self._index_lock:
                if self._index is None:
                    self._index = GridIndex.build(self.dataset, *self.granularity)
                idx = self._index
        return idx

    def compiler_for(self, aggregator: CompositeAggregator) -> ChannelCompiler:
        """The memoized channel compiler of an aggregator object."""
        return self._memo(
            self._compilers,
            id(aggregator),
            lambda: ChannelCompiler(self.dataset, aggregator),
            pin=aggregator,
        )

    def channel_tables(self, compiler: ChannelCompiler) -> np.ndarray:
        """The memoized index suffix table of a compiler's channels."""

        def compute():
            cells, table = self.index.channel_cells_and_table(compiler)
            with self._memo_lock:
                self._table_cells[id(compiler)] = cells
            return table

        return self._memo(self._tables, id(compiler), compute, pin=compiler)

    def context_for(self, compiler: ChannelCompiler) -> BoundContext:
        """The memoized full-dataset bound context of a compiler."""
        return self._memo(
            self._contexts, id(compiler), compiler.make_context, pin=compiler
        )

    def empty_rep_for(self, aggregator: CompositeAggregator) -> np.ndarray:
        """The memoized empty-region representation of an aggregator."""
        return self._memo(
            self._empty_reps,
            id(aggregator),
            lambda: aggregator.empty_representation(self.dataset),
            pin=aggregator,
        )

    def lattice_for(
        self, width: float, height: float, compiler: ChannelCompiler
    ) -> tuple:
        """The memoized candidate-lattice intervals for a region size.

        Target-independent (DESIGN.md §7.1): a warm GI-DS solve reduces
        its whole lattice-bounding phase to one ``lower_bound_many``.
        """
        key = (float(width), float(height), id(compiler))

        def compute():
            geometry = self._memo(
                self._lattice_geometry,
                (float(width), float(height)),
                lambda: candidate_lattice_geometry(self.index, width, height),
            )
            return candidate_lattice_intervals(
                self.index,
                compiler,
                width,
                height,
                tables=self.channel_tables(compiler),
                ctx=self.context_for(compiler),
                geometry=geometry,
            )

        return self._memo(self._lattices, key, compute, pin=compiler)

    def reduction_for(
        self, width: float, height: float
    ) -> Tuple[RectSet, Tuple[float, float]]:
        """The memoized ASP reduction + GPS accuracy for a region size."""
        key = (float(width), float(height), self.settings.anchor)

        def compute():
            rects = reduce_to_asp(
                self.dataset, width, height, self.settings.anchor
            )
            return (rects, gps_accuracy(rects))

        return self._memo(self._reductions, key, compute)

    def warm(
        self, aggregator: CompositeAggregator, width: float, height: float
    ) -> "QuerySession":
        """Precompute every target-independent artefact of a query shape.

        After warming, the first ``solve`` of a query with this
        aggregator object and region size pays only the target-dependent
        search.
        """
        with self._update_gate.shared():
            compiler = self.compiler_for(aggregator)
            self.empty_rep_for(aggregator)
            if self.dataset.n:
                self.channel_tables(compiler)
                self.context_for(compiler)
                self.reduction_for(width, height)
                self.lattice_for(width, height, compiler)
        return self

    def warm_for(self, query: ASRSQuery) -> "QuerySession":
        """:meth:`warm` for a query's aggregator and region size."""
        return self.warm(query.aggregator, query.width, query.height)

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------
    def _engine(
        self,
        query: ASRSQuery,
        delta: float,
        factory: type[DSSearchEngine] = DSSearchEngine,
    ) -> DSSearchEngine:
        """A search engine assembled entirely from cached artefacts."""
        compiler = self.compiler_for(query.aggregator)
        if self.dataset.n:
            rects, accuracy = self.reduction_for(query.width, query.height)
        else:
            rects, accuracy = None, None
        spaces = self._memo(
            self._spaces,
            (float(query.width), float(query.height), id(compiler)),
            dict,
            pin=compiler,
        )
        return factory(
            self.dataset,
            query,
            self.settings,
            compiler=compiler,
            delta=delta,
            rects=rects,
            accuracy=accuracy,
            empty_rep=self.empty_rep_for(query.aggregator),
            pool=self._pool,
            spaces=spaces,
        )

    def solve(
        self,
        query: ASRSQuery,
        method: str = "gids",
        delta: float = 0.0,
        probe_cells: int = 16,
        return_stats: bool = False,
    ):
        """Solve one ASRS query on the warm path.

        ``method`` is ``"gids"`` (Algorithm 2 over the session index,
        the default) or ``"ds"`` (plain Algorithm 1, no index).
        Results are bitwise-identical to the corresponding cold call
        *at the session's configuration*:
        ``gi_ds_search(dataset, query, granularity=session.granularity,
        settings=session.settings)`` resp. ``ds_search(dataset, query,
        session.settings)``.  A cold call at a different granularity
        can return a different equally-optimal region on tie plateaus.

        Safe to call from many threads at once: every solve runs on a
        private engine, and shared cached artefacts are read-only.
        """
        if method not in ("gids", "ds"):
            raise ValueError(f"method must be 'gids' or 'ds', got {method!r}")
        with self._update_gate.shared():
            return self._solve_gated(
                query, method, delta, probe_cells, return_stats
            )

    def solve_with_epoch(
        self,
        query: ASRSQuery,
        method: str = "gids",
        delta: float = 0.0,
        probe_cells: int = 16,
        return_stats: bool = False,
    ) -> tuple:
        """:meth:`solve` plus the dataset epoch the answer was computed at.

        The epoch is read under the same update-gate hold as the solve,
        so a concurrent mutation can never make the label disagree with
        the dataset the search actually ran on -- what a serving layer
        stamping results with epochs (``repro.service``) needs.
        """
        if method not in ("gids", "ds"):
            raise ValueError(f"method must be 'gids' or 'ds', got {method!r}")
        with self._update_gate.shared():
            return (
                self._solve_gated(query, method, delta, probe_cells, return_stats),
                self.epoch,
            )

    def _solve_gated(self, query, method, delta, probe_cells, return_stats):
        """The solve body; callers hold the shared side of the update gate."""
        engine = self._engine(query, delta)
        if self.dataset.n == 0:
            result: RegionResult = engine.result()
            if return_stats:
                # Match the stats type of the corresponding cold call.
                return result, (
                    GIDSStats() if method == "gids" else engine.stats
                )
            return result
        if method == "ds":
            result = engine.run()
            return (result, engine.stats) if return_stats else result
        compiler = engine.compiler
        return gi_ds_search(
            self.dataset,
            query,
            index=self.index,
            probe_cells=probe_cells,
            return_stats=return_stats,
            engine=engine,
            channel_tables=self.channel_tables(compiler),
            bound_context=self.context_for(compiler),
            lattice_intervals=self.lattice_for(
                query.width, query.height, compiler
            ),
        )

    def solve_batch(
        self,
        queries: Sequence[ASRSQuery] | Iterable[ASRSQuery],
        method: str = "gids",
        delta: float = 0.0,
        probe_cells: int = 16,
        return_stats: bool = False,
    ) -> list:
        """Solve a batch of queries, sharing every cached artefact.

        Queries that reuse aggregator objects and region sizes hit the
        session caches; the first query of each distinct shape warms
        them.  Returns one entry per query, in order -- plain
        :class:`RegionResult` s, or ``(result, stats)`` pairs with
        ``return_stats=True``.  Callers wanting concurrency call
        :meth:`solve` from their own threads (DESIGN.md §8.1).
        """
        return [
            self.solve(
                q,
                method=method,
                delta=delta,
                probe_cells=probe_cells,
                return_stats=return_stats,
            )
            for q in queries
        ]

    # ------------------------------------------------------------------
    # Canonical solving (dssearch/canonical.py, DESIGN.md §15)
    # ------------------------------------------------------------------
    def _canonical_engines(self, query: ASRSQuery) -> tuple:
        """The pass-1 and pass-2 engine factories of a canonical solve."""
        return (
            lambda: self._engine(query, 0.0),
            lambda: self._engine(
                query, 0.0, factory=canonical.TieCollectingEngine
            ),
        )

    def _canonical(
        self, query: ASRSQuery, holes: Sequence["Rect"], **kwargs
    ) -> RegionResult:
        """One canonical solve; the caller holds the shared gate."""
        return canonical.solve_canonical(
            *self._canonical_engines(query), query, holes=holes, **kwargs
        )

    def solve_canonical(
        self,
        query: ASRSQuery,
        *,
        domain: "Rect | None" = None,
        holes: Sequence["Rect"] = (),
        seed_point: tuple | None = None,
    ) -> RegionResult:
        """Solve with the decomposition-independent canonical answer.

        Same optimal distance as :meth:`solve`, but on tie plateaus the
        returned region is a pure function of the problem (DESIGN.md
        §15) instead of the search schedule -- which is what lets a
        shard router (:mod:`repro.shard`) merge per-shard answers into
        the bitwise-identical result this unsharded call returns.
        ``domain`` restricts anchor points (a shard passes its tile),
        ``holes`` excludes anchor rectangles (top-k rounds), and
        ``seed_point`` overrides the empty-region seed (a shard passes
        the router-computed global seed).
        """
        with self._update_gate.shared():
            return self._canonical(
                query, domain=domain, holes=holes, seed_point=seed_point
            )

    def solve_canonical_with_epoch(
        self,
        query: ASRSQuery,
        *,
        domain: "Rect | None" = None,
        holes: Sequence["Rect"] = (),
        seed_point: tuple | None = None,
    ) -> tuple:
        """:meth:`solve_canonical` plus the epoch it was computed at."""
        with self._update_gate.shared():
            return (
                self._canonical(
                    query, domain=domain, holes=holes, seed_point=seed_point
                ),
                self.epoch,
            )

    def solve_canonical_topk(
        self,
        query: ASRSQuery,
        k: int,
        *,
        exclude: "Rect | None" = None,
    ) -> list:
        """Canonical top-k: every round answered canonically, so the
        whole result list is decomposition-independent (the per-round
        exclusion holes derive from canonical answers)."""
        with self._update_gate.shared():
            return canonical.solve_canonical_topk(
                *self._canonical_engines(query),
                query,
                k,
                dataset_n=self.dataset.n,
                exclude=exclude,
            )

    # ------------------------------------------------------------------
    # Incremental mutation (engine/updates.py, DESIGN.md §9)
    # ------------------------------------------------------------------
    def apply(self, batch) -> "UpdateStats":
        """Apply a batched mutation (deletes, then appends) in place.

        Every subsequent answer is bitwise-identical to a cold
        ``QuerySession(final_dataset, granularity=self.granularity,
        settings=self.settings)``, but warm artefacts are surgically
        patched instead of rebuilt: only dirty index cells are
        re-summed, lattice intervals recompute lazily from the patched
        tables, and memoized spaces survive wherever no changed
        rectangle touches them.  Exclusive with in-flight solves (the
        update gate drains them first).  Returns an
        :class:`~repro.engine.updates.UpdateStats`.
        """
        from .updates import apply_update

        return apply_update(self, batch)

    def append(self, objects) -> "UpdateStats":
        """Append objects (a same-schema dataset or records) in place."""
        from .updates import UpdateBatch

        return self.apply(UpdateBatch(append=objects))

    def delete(self, mask_or_indices) -> "UpdateStats":
        """Delete the selected current rows in place."""
        from .updates import UpdateBatch

        return self.apply(UpdateBatch(delete=mask_or_indices))

    def attach_wal(self, wal) -> "WriteAheadLog":
        """Attach a write-ahead log; mutations then log before applying.

        ``wal`` is a :class:`~repro.engine.wal.WriteAheadLog` or a
        path (one is created).  Once attached, every effective
        ``apply``/``append``/``delete`` durably logs its batch before
        any session state changes, and :func:`~repro.engine.persist.
        save_session` checkpoints the log (drops the records the
        bundle's epoch covers).  Returns the attached log.  Replay
        never re-logs, so ``attach_wal`` + :func:`~repro.engine.wal.
        replay` is the natural crash-recovery sequence.
        """
        from .wal import WriteAheadLog

        if not isinstance(wal, WriteAheadLog):
            wal = WriteAheadLog(wal)
        self.wal = wal
        return wal

    # ------------------------------------------------------------------
    def clear_caches(self) -> None:
        """Drop every memoized artefact (memory pressure relief).

        The next solve re-warms lazily; answers are unaffected.  The
        space memo is additionally capped at
        :data:`repro.dssearch.search.CELL_CACHE_CAP` entries per
        ``(width, height, aggregator)`` key, so calling this is only
        needed to reclaim memory across many distinct query shapes.

        Safe to call while other threads are mid-solve (a
        :class:`~repro.engine.pool.SessionPool` evicting under memory
        pressure does exactly that): running solves hold direct
        references to the artefacts they already fetched and recompute
        anything they re-request, so their answers are unchanged.
        """
        with self._memo_lock:
            self._index = None
            self._pins.clear()
            self._compilers.clear()
            self._tables.clear()
            self._table_cells.clear()
            self._contexts.clear()
            self._empty_reps.clear()
            self._reductions.clear()
            self._lattices.clear()
            self._lattice_geometry.clear()
            self._spaces.clear()

    def cache_info(self) -> dict:
        """Occupancy of the session caches (for tests and diagnostics).

        Beyond cache occupancy, reports the session's durability state
        (``epoch``, ``bundle_version``, and -- when a write-ahead log is
        attached -- its path, head epoch, byte size and the number of
        records since the last checkpoint), so ``SessionPool.info()``
        and the service ``/stats`` endpoint can show operators how far
        a restart or a read replica would have to replay.
        """
        wal = self.wal
        return {
            "index_built": self._index is not None,
            "compilers": len(self._compilers),
            "channel_tables": len(self._tables),
            "contexts": len(self._contexts),
            "empty_reps": len(self._empty_reps),
            "reductions": len(self._reductions),
            "lattices": len(self._lattices),
            # list(): solves may insert space memos concurrently.
            "cached_spaces": sum(len(m) for m in list(self._spaces.values())),
            "epoch": self.epoch,
            "bundle_version": self.bundle_version,
            "wal": None if wal is None else wal.state(),
        }

    def cache_nbytes(self) -> int:
        """Approximate bytes held by the session caches.

        Drives :class:`~repro.engine.pool.SessionPool` eviction; counts
        the numpy payloads (index tables, channel weights, suffix
        tables, lattice intervals, ASP rectangles, memoized spaces) and
        ignores interpreter overhead.
        """
        total = 0
        # A lattice's corner arrays are its geometry's, so each
        # distinct array counts once.
        seen: set = set()

        def arr_bytes(arr) -> int:
            if id(arr) in seen:
                return 0
            seen.add(id(arr))
            return arr.nbytes

        index = self._index
        if index is not None:
            total += index.index_nbytes() + index.xs.nbytes + index.ys.nbytes
        for compiler in list(self._compilers.values()):
            total += compiler.nbytes
        for table in list(self._tables.values()):
            total += arr_bytes(table)
        for cells in list(self._table_cells.values()):
            total += arr_bytes(cells)
        for rep in list(self._empty_reps.values()):
            total += rep.nbytes
        for rects, _ in list(self._reductions.values()):
            total += rects.nbytes
        for lattice in list(self._lattices.values()):
            total += sum(arr_bytes(arr) for arr in lattice)
        for geometry in list(self._lattice_geometry.values()):
            x0, y0, over_ranges, full_ranges = geometry
            total += arr_bytes(x0) + arr_bytes(y0)
            total += sum(arr_bytes(arr) for arr in over_ranges)
            total += sum(arr_bytes(arr) for arr in full_ranges)
        for memo in list(self._spaces.values()):
            for active, visit in list(memo.values()):
                total += active.nbytes
                if visit is not None:
                    total += visit.nbytes
        return total

    def __repr__(self) -> str:
        return (
            f"QuerySession(n={self.dataset.n}, granularity={self.granularity}, "
            f"caches={self.cache_info()})"
        )


# Runtime sanitizer (DESIGN.md §14): enforce the guarded-by
# declarations above when REPRO_SANITIZE=1.
sanitize_class(QuerySession)
