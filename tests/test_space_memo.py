"""The DS-Search space memo (DESIGN.md §7.1).

Every space a session's engines process -- GI-DS cells, canonical
pieces and their split children -- leaves its target-independent
``(active, visit)`` in one memo per query shape.  The memo may change
where a visit comes from, never an answer: these tests
hold memoized solves bitwise to memo-free cold calls on datasets drawn
against the float surface (snapped coordinates, duplicates, points one
ulp off grid borders and rectangle edges, collinear runs), check that
a child entry is used only for the active set it was computed from,
count what a warm solve re-computes, and check what survives an
update.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asp.reduction import reduce_to_asp
from repro.core import (
    ASRSQuery,
    AverageAggregator,
    CompositeAggregator,
    Rect,
    SelectAll,
    SpatialDataset,
    SumAggregator,
)
from repro.dssearch import SearchSettings, canonical, ds_search
from repro.dssearch.canonical import TieCollectingEngine
from repro.dssearch.grid import DiscretizationGrid
from repro.dssearch.search import CELL_CACHE_CAP, DSSearchEngine, SpaceVisit
from repro.engine import QuerySession
from repro.engine.updates import UpdateBatch
from repro.index import gi_ds_search

from .conftest import make_random_dataset, random_aggregator

SMALL = SearchSettings(ncol=6, nrow=6, max_depth=16)
GRANULARITY = (8, 8)
#: Extent of the drawn datasets: the (8, 8) index puts a border every 8.
EXTENT = 64.0
STEP = 0.5


class _MemoFreeEngine(DSSearchEngine):
    """The reference: an engine that never reads or fills a memo."""

    spaces = property(lambda self: None, lambda self, value: None)


class _MemoFreeCollector(TieCollectingEngine):
    spaces = property(lambda self: None, lambda self, value: None)


def _bits(result) -> tuple:
    region = result.region
    return (
        tuple(float(v).hex() for v in (region.x_min, region.y_min, region.x_max, region.y_max)),
        float(result.distance).hex(),
        np.ascontiguousarray(result.representation).tobytes(),
    )


def _memo_free_canonical(dataset, query, **kwargs):
    return canonical.solve_canonical(
        lambda: _MemoFreeEngine(dataset, query, SMALL),
        lambda: _MemoFreeCollector(dataset, query, SMALL),
        query,
        **kwargs,
    )


def _memo_free_topk(dataset, query, k):
    return canonical.solve_canonical_topk(
        lambda: _MemoFreeEngine(dataset, query, SMALL),
        lambda: _MemoFreeCollector(dataset, query, SMALL),
        query,
        k,
        dataset_n=dataset.n,
    )


def _surface_dataset(seed: int, n: int) -> SpatialDataset:
    """Coordinates on the float surface of the ROADMAP's two ulp bugs."""
    rng = np.random.default_rng(seed)
    xs = np.round(rng.uniform(0.0, EXTENT, n) / STEP) * STEP
    ys = np.round(rng.uniform(0.0, EXTENT, n) / STEP) * STEP
    dup = rng.random(n) < 0.15
    src = rng.integers(0, n, n)
    xs[dup], ys[dup] = xs[src[dup]], ys[src[dup]]
    xs[rng.random(n) < 0.1] = xs[0]  # a vertical collinear run
    ys[rng.random(n) < 0.1] = ys[0]  # a horizontal one
    for coords in (xs, ys):
        # One ulp off the snapped lattice, which holds the index
        # borders and (with snapped query sizes) the rectangle edges.
        shift = rng.integers(-1, 2, n) * (rng.random(n) < 0.3)
        coords[shift > 0] = np.nextafter(coords[shift > 0], np.inf)
        coords[shift < 0] = np.nextafter(coords[shift < 0], -np.inf)
    if n >= 2:  # pin the bounds, so the index borders fall on the lattice
        xs[:2], ys[:2] = (0.0, EXTENT), (0.0, EXTENT)
    template = make_random_dataset(rng, n, extent=EXTENT)
    return SpatialDataset(
        xs,
        ys,
        template.schema,
        {"kind": template.column("kind"), "score": template.column("score")},
    )


def _shape_queries(seed: int, dataset, count: int = 3) -> list:
    """``count`` targets of one query shape (one aggregator object)."""
    rng = np.random.default_rng(seed + 1)
    aggregator = random_aggregator()
    width = STEP * int(rng.integers(2, 30))
    height = STEP * int(rng.integers(2, 30))
    if rng.random() < 0.5:
        width = float(np.nextafter(width, np.inf))
    base = rng.uniform(0.0, 4.0, aggregator.dim(dataset))
    return [
        ASRSQuery.from_vector(
            width, height, aggregator, base * rng.uniform(0.9, 1.1, base.shape)
        )
        for _ in range(count)
    ]


def _check_transparent(seed: int, n: int) -> None:
    dataset = _surface_dataset(seed, n)
    queries = _shape_queries(seed, dataset)
    session = QuerySession(dataset, granularity=GRANULARITY, settings=SMALL)
    tile = Rect(-EXTENT, -EXTENT, 0.5 * EXTENT, 2.0 * EXTENT)
    for query in queries:
        for delta in (0.0, 0.1):
            cold = gi_ds_search(
                dataset, query, granularity=GRANULARITY, settings=SMALL, delta=delta
            )
            assert _bits(session.solve(query, delta=delta)) == _bits(cold)
        assert _bits(session.solve(query, method="ds")) == _bits(
            ds_search(dataset, query, SMALL)
        )
        for domain in (None, tile):
            assert _bits(session.solve_canonical(query, domain=domain)) == _bits(
                _memo_free_canonical(dataset, query, domain=domain)
            )
        warm = session.solve_canonical_topk(query, 3)
        cold = _memo_free_topk(dataset, query, 3)
        assert [_bits(r) for r in warm] == [_bits(r) for r in cold]
    if n >= 2:
        assert session.cache_info()["cached_spaces"] >= 1


class TestTransparency:
    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 300))
    def test_memoized_solves_equal_memo_free_cold_calls(self, seed, n):
        _check_transparent(seed, n)

    @pytest.mark.parametrize(
        "seed, n", [(0, 1), (1, 2), (5, 37), (11, 180), (17, 300)]
    )
    def test_pinned_surface_cases(self, seed, n):
        _check_transparent(seed, n)


def _instance(seed: int = 31, n: int = 80):
    rng = np.random.default_rng(seed)
    dataset = make_random_dataset(rng, n, extent=60.0)
    aggregator = random_aggregator()
    queries = [
        ASRSQuery.from_vector(
            13.0, 9.0, aggregator, rng.uniform(0.0, 4.0, aggregator.dim(dataset))
        )
        for _ in range(2)
    ]
    return dataset, queries


def _recording_engines(session, monkeypatch) -> list:
    """Every engine the session assembles from now on, in order."""
    made = []
    original = session._engine

    def recording(*args, **kwargs):
        engine = original(*args, **kwargs)
        made.append(engine)
        return engine

    monkeypatch.setattr(session, "_engine", recording)
    return made


class TestValidation:
    def test_a_mismatched_child_entry_is_refused(self):
        """A child entry is served only for the active set it holds.

        Every child entry of the shape is replaced by a poisoned one --
        one active index short, with a visit that calls every cell
        clean at the empty representation -- so using any of them would
        change the answer."""
        dataset, (query, _) = _instance(n=300)
        cold = ds_search(dataset, query, SMALL)
        session = QuerySession(dataset, settings=SMALL)
        session.solve(query, method="ds")
        (memo,) = session._spaces.values()
        children = [key for key in memo if not key[0]]
        assert children
        poisoned = {}
        dim = query.aggregator.dim(dataset)
        none = np.zeros(0, dtype=np.intp)
        for key in children:
            active, visit = memo[key]
            rows = np.concatenate([visit.clean_rows, visit.dirty_rows])
            cols = np.concatenate([visit.clean_cols, visit.dirty_cols])
            order = np.lexsort((cols, rows))
            memo[key] = poisoned[key] = (
                active[:-1],
                SpaceVisit(
                    rows[order], cols[order], np.zeros((rows.size, dim)),
                    none, none, None, None,
                ),
            )
        result, stats = session.solve(query, method="ds", return_stats=True)
        assert _bits(result) == _bits(cold)
        assert stats.memo_mismatches >= 1
        # A refused entry is recomputed, and stays as it was.
        assert stats.accumulations == stats.memo_mismatches
        assert all(memo[key] is poisoned[key] for key in children)

    def test_mismatches_reach_include_stats(self):
        from repro.service import DatasetSpec, QueryRequest, RegionService, term_specs

        dataset, (query, _) = _instance()
        service = RegionService()
        service.open(DatasetSpec(key="d", granularity=GRANULARITY), dataset=dataset)
        request = QueryRequest(
            dataset="d",
            terms=term_specs(query.aggregator),
            width=query.width,
            height=query.height,
            target=tuple(query.query_rep),
            include_stats=True,
        )
        first = service.query(request).stats["search"]
        again = service.query(request).stats["search"]
        assert first["accumulations"] >= 1
        assert again["accumulations"] == again["memo_mismatches"] == 0


class TestCounting:
    def test_repeated_gids_query_accumulates_nothing(self):
        dataset, (query, other) = _instance()
        session = QuerySession(dataset, granularity=GRANULARITY, settings=SMALL)
        _, first = session.solve(query, return_stats=True)
        session.solve(other)
        _, again = session.solve(query, return_stats=True)
        assert first.search["accumulations"] >= 1
        assert again.search["spaces_processed"] == first.search["spaces_processed"]
        assert again.search["accumulations"] == 0

    def test_repeated_canonical_query_accumulates_nothing(self, monkeypatch):
        dataset, (query, _) = _instance(37)
        session = QuerySession(dataset, settings=SMALL)
        made = _recording_engines(session, monkeypatch)
        session.solve_canonical(query)
        first = [e.stats for e in made]
        made.clear()
        session.solve_canonical(query)
        again = [e.stats for e in made]
        assert len(first) == len(again) == 2  # both passes ran
        assert first[0].accumulations >= 1
        assert [s.spaces_processed for s in again] == [
            s.spaces_processed for s in first
        ]
        assert [s.accumulations for s in again] == [0, 0]

    def test_cold_pass2_recomputes_no_pass1_space(self, monkeypatch):
        """A cold canonical solve shares a per-solve memo between its
        passes: no space pass 1 summed is summed again by pass 2."""
        dataset, (query, _) = _instance(41)
        phases = {"pass1": [], "pass2": []}
        phase = ["pass1"]
        accumulate = DiscretizationGrid.accumulate

        def recording(grid, rects, active, *args, **kwargs):
            space = grid.space
            phases[phase[0]].append(
                (space.x_min, space.y_min, space.x_max, space.y_max,
                 np.asarray(active).tobytes())
            )
            return accumulate(grid, rects, active, *args, **kwargs)

        run_pass2 = canonical.run_pass2

        def pass2(*args, **kwargs):
            phase[0] = "pass2"
            return run_pass2(*args, **kwargs)

        monkeypatch.setattr(DiscretizationGrid, "accumulate", recording)
        monkeypatch.setattr(canonical, "run_pass2", pass2)
        collectors = []

        def make_collector():
            collectors.append(TieCollectingEngine(dataset, query, SMALL))
            return collectors[-1]

        canonical.solve_canonical(
            lambda: DSSearchEngine(dataset, query, SMALL), make_collector, query
        )
        assert phases["pass1"] and collectors
        assert collectors[0].stats.spaces_processed >= 1
        assert not set(phases["pass1"]) & set(phases["pass2"])
        assert collectors[0].stats.accumulations == len(phases["pass2"])
        assert len(phases["pass2"]) < collectors[0].stats.spaces_processed


def _changed_rects(old_ds, kept, append_ds, query) -> np.ndarray:
    """``(4, m)`` ASP rectangles of the deleted and appended rows."""
    old = reduce_to_asp(old_ds, query.width, query.height, SMALL.anchor)
    gone = np.ones(old_ds.n, dtype=bool)
    gone[kept] = False
    parts = [np.stack([old.x_min[gone], old.y_min[gone], old.x_max[gone], old.y_max[gone]])]
    if append_ds is not None and append_ds.n:
        new = reduce_to_asp(append_ds, query.width, query.height, SMALL.anchor)
        parts.append(np.stack([new.x_min, new.y_min, new.x_max, new.y_max]))
    return np.concatenate(parts, axis=1)


def _update_stream(seed: int, n_updates: int, move_bounds: bool):
    rng = np.random.default_rng(seed)
    dataset = make_random_dataset(rng, int(rng.integers(30, 90)), extent=60.0)
    aggregator = random_aggregator()
    queries = [
        ASRSQuery.from_vector(
            11.0, 8.0, aggregator, rng.uniform(0.0, 4.0, aggregator.dim(dataset))
        )
        for _ in range(2)
    ]
    session = QuerySession(dataset, granularity=(6, 6), settings=SMALL)
    for query in queries:
        session.solve(query)
        session.solve_canonical(query)
    for step in range(n_updates):
        old_ds = session.dataset
        b = old_ds.bounds()
        interior = np.flatnonzero(
            (old_ds.xs > b.x_min) & (old_ds.xs < b.x_max)
            & (old_ds.ys > b.y_min) & (old_ds.ys < b.y_max)
        )
        delete = np.sort(rng.choice(interior, min(3, interior.size), replace=False))
        m = int(rng.integers(1, 4))
        xs = np.round(rng.uniform(b.x_min, b.x_max, m))
        ys = np.round(rng.uniform(b.y_min, b.y_max, m))
        if move_bounds and step % 2 == 0:
            xs[0] = b.x_max + float(rng.integers(1, 9))
        append = SpatialDataset(
            xs,
            ys,
            old_ds.schema,
            {"kind": rng.integers(0, 3, m), "score": np.round(rng.uniform(0, 5, m), 2)},
        )
        kept = np.setdiff1d(np.arange(old_ds.n), delete)
        stats = session.apply(UpdateBatch(append=append, delete=delete))
        yield session, queries, (old_ds, kept, append), stats


def _check_survivors(session, queries, change, stats) -> None:
    old_ds, kept, append = change
    moved = old_ds.bounds() != session.dataset.bounds()
    entries = sum(len(memo) for memo in session._spaces.values())
    assert stats.cell_entries_kept == entries
    if moved:
        assert entries == 0
    rects = session.reduction_for(queries[0].width, queries[0].height)[0]
    changed = _changed_rects(old_ds, kept, append, queries[0])
    for memo in session._spaces.values():
        for key, (active, _) in memo.items():
            x0, y0, x1, y1 = key[1:]
            assert not (
                (changed[0] < x1) & (x0 < changed[2])
                & (changed[1] < y1) & (y0 < changed[3])
            ).any()
            assert active.size == 0 or active.max() < session.dataset.n
            if key[0]:
                expected = np.flatnonzero(rects.overlap_mask(Rect(x0, y0, x1, y1)))
                assert np.array_equal(active, expected)
    cold = QuerySession(session.dataset, granularity=(6, 6), settings=SMALL)
    for query in queries:
        assert _bits(session.solve(query)) == _bits(cold.solve(query))
        assert _bits(session.solve_canonical(query)) == _bits(
            cold.solve_canonical(query)
        )


class TestUpdateSurvival:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), move_bounds=st.booleans())
    def test_survivors_are_untouched_and_answers_cold(self, seed, move_bounds):
        for session, queries, change, stats in _update_stream(seed, 4, move_bounds):
            _check_survivors(session, queries, change, stats)

    @pytest.mark.parametrize("seed, move_bounds", [(3, False), (8, True)])
    def test_pinned_streams(self, seed, move_bounds):
        kept = 0
        for session, queries, change, stats in _update_stream(seed, 4, move_bounds):
            _check_survivors(session, queries, change, stats)
            kept += stats.cell_entries_kept
        if not move_bounds:
            assert kept > 0  # in-bounds updates carry entries forward


def _f2_aggregator():
    """The paper's F2 shape over the test schema: a sum and an average,
    whose Equation-1 intervals read the space's value extremes."""
    return CompositeAggregator(
        [SumAggregator("score", SelectAll()), AverageAggregator("score", SelectAll())]
    )


def _fresh_visit(session, query, key, active) -> tuple:
    """A space's visit derived afresh from ``grid.accumulate``: the clean
    cells' coordinates and representations, the dirty cells' coordinates
    and Equation-1 intervals under the space's own bound context."""
    compiler = session.compiler_for(query.aggregator)
    rects, _ = session.reduction_for(query.width, query.height)
    space = Rect(*key[1:])
    grid = DiscretizationGrid(space, *SMALL.grid_shape(active.size))
    acc = grid.accumulate(rects, active, compiler.weights)
    clean = ~acc.dirty
    rows, cols = np.nonzero(clean)
    dirty_rows, dirty_cols = np.nonzero(acc.dirty)
    reps = lo = hi = None
    if rows.size:
        reps = compiler.rep_from_sums(acc.full[clean])
    if dirty_rows.size:
        lo, hi = compiler.bounds_from_sums(
            acc.full[dirty_rows, dirty_cols],
            acc.over[dirty_rows, dirty_cols],
            compiler.make_context(active),
        )
    return rows, cols, reps, dirty_rows, dirty_cols, lo, hi


def _assert_visits_fresh(session, query) -> int:
    """Every memo entry of the query's shape is bitwise a fresh visit,
    and read-only; returns how many entries were checked."""
    compiler = session.compiler_for(query.aggregator)
    key = (float(query.width), float(query.height), id(compiler))
    memo = session._spaces.get(key, {})  # moved bounds drop the memo
    checked = 0
    for key, (active, visit) in memo.items():
        assert not active.flags.writeable
        if visit is None:
            assert active.size == 0
            continue
        want = _fresh_visit(session, query, key, active)
        for got, expected in zip(visit, want):
            if expected is None:
                assert got is None
                continue
            assert not got.flags.writeable
            assert got.shape == expected.shape and got.dtype == expected.dtype
            assert got.tobytes() == expected.tobytes()
        checked += 1
    return checked


def _visit_case(seed: int, n: int, f2: bool):
    dataset = _surface_dataset(seed, n)
    queries = _shape_queries(seed, dataset, count=2)
    if f2:
        aggregator = _f2_aggregator()
        rng = np.random.default_rng(seed + 2)
        queries = [
            ASRSQuery.from_vector(
                q.width, q.height, aggregator, rng.uniform(0.0, 4.0, 2)
            )
            for q in queries
        ]
    return dataset, queries


class TestVisitReplay:
    """A memo entry holds the space's visit -- everything derived before
    the target enters -- and a hit replays it bit for bit."""

    def _check(self, seed: int, n: int, f2: bool) -> None:
        dataset, (query, other) = _visit_case(seed, n, f2)
        session = QuerySession(dataset, granularity=GRANULARITY, settings=SMALL)
        for method in ("gids", "ds"):
            session.solve(query, method=method)
        session.solve_canonical(query)
        _, stats = session.solve(other, return_stats=True)
        again = session.solve(query, method="ds", return_stats=True)[1]
        # Every visit came from the memo, but for a refused entry or
        # one a full memo could not take.
        (memo,) = session._spaces.values()
        full = len(memo) >= CELL_CACHE_CAP
        assert again.accumulations == again.memo_mismatches or full
        checked = _assert_visits_fresh(session, query)
        if n >= 2:
            assert checked >= 1

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 250), f2=st.booleans())
    def test_memoized_visits_equal_fresh_derivations(self, seed, n, f2):
        self._check(seed, n, f2)

    @pytest.mark.parametrize(
        "seed, n, f2",
        [
            (0, 1, True),
            (5, 37, False),
            (11, 180, True),
            (17, 250, True),
            (6829696, 1, False),  # GI-DS fills the memo before run()'s space
        ],
    )
    def test_pinned_visit_cases(self, seed, n, f2):
        self._check(seed, n, f2)

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), move_bounds=st.booleans())
    def test_survivors_equal_fresh_derivations_on_the_updated_data(
        self, seed, move_bounds
    ):
        for session, queries, _, stats in _update_stream(seed, 3, move_bounds):
            # Before any solve refills the memo: only carried entries.
            kept = sum(_assert_visits_fresh(session, q) for q in queries[:1])
            assert kept <= stats.cell_entries_kept

    def test_pinned_survivor_stream(self):
        carried = 0
        for session, queries, _, stats in _update_stream(3, 4, False):
            carried += _assert_visits_fresh(session, queries[0])
        assert carried > 0

    def test_cache_nbytes_counts_the_memo_arrays(self):
        dataset, (query, _) = _visit_case(11, 180, True)
        session = QuerySession(dataset, granularity=GRANULARITY, settings=SMALL)
        session.solve(query)
        session.solve_canonical(query)
        memo_bytes = 0
        for memo in session._spaces.values():
            for active, visit in memo.values():
                memo_bytes += active.nbytes
                if visit is not None:
                    memo_bytes += sum(a.nbytes for a in visit if a is not None)
        assert memo_bytes > 0
        total = session.cache_nbytes()
        session._spaces.clear()
        assert total - session.cache_nbytes() == memo_bytes
