"""Canonical exact solves: decomposition-independent answers (DESIGN.md §15).

DS-Search's incumbent loop is first-found-wins: on a tie plateau (many
regions achieving the optimal distance) the returned anchor depends on
the order candidate spaces happen to be evaluated, which in turn
depends on the grid shape, the search domain, and every other artefact
of *how* the search was decomposed.  That is fine for a single process
-- the session docs already warn that a different granularity can
return a different equally-optimal region -- but it is fatal for a
scatter-gather router whose per-shard searches must merge into the
bitwise-identical answer an unsharded solve produces.

This module makes the answer a pure function of the *problem* rather
than the *search schedule*, in two passes:

1. **Pass 1** is the ordinary exact search (restricted to an anchor
   ``domain`` and around exclusion ``holes`` when asked): it
   establishes the optimal distance ``d*`` with full incumbent pruning.
2. **Pass 2** re-searches with the incumbent frozen a hair above
   ``d*`` (a small relative margin, so grid-rounded lower bounds and
   claimed candidate distances cannot prune a genuine tie away) and
   *collects* every evaluated candidate whose verified distance equals
   ``d*`` instead of replacing the incumbent.  Because
   §5.2's exact dirty-cell resolution enumerates one candidate per
   membership-distinct sub-cell of every surviving cell, pass 2
   evaluates at least one anchor for **every** point set achieving
   ``d*`` -- regardless of how the space was gridded or partitioned.
3. Each tied anchor is then mapped to the **canonical region of its
   covered point set** (:func:`canonical_region`): a deterministic
   arrangement over the feasible anchor interval picks the
   lexicographically first cell midpoint whose region covers exactly
   that set.  The final answer is the lexicographically smallest
   canonical region over all tied point sets.

Pass 2 repeats none of pass 1's target-independent work: both engines
share one space memo (DESIGN.md §7.1), so every space pass 1 processed
-- the pieces and their split children -- serves pass 2 its
visit (a session keeps the memo of hole-free solves across
solves), and pass 2 verifies each covered point set once.

The composition is decomposition-independent: a shard restricted to an
anchor tile enumerates the tied point sets reachable from its tile,
canonicalizes each, and the router's lexicographic merge over shards
equals the unsharded pass over the whole domain.  Residual caveat
(documented in DESIGN.md §15): a point within a float ulp of a region
edge can make the claimed/verified semantics disagree; both sides
disagree *identically*, so routed-vs-unsharded identity still holds.

Ties with the empty region are resolved before pass 2 ever runs: when
``d*`` bitwise-equals the empty-representation distance the canonical
answer is the seed region itself (the incumbent never moved -- strict
improvement is required -- so pass 1 already holds it).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..asp.reduction import region_for_point
from ..core.geometry import Rect
from ..core.objects import SpatialDataset
from ..core.query import ASRSQuery, RegionResult
from .search import DSSearchEngine
from .topk import subtract_many

Anchor = Tuple[float, float]


class TieCollectingEngine(DSSearchEngine):
    """The pass-2 engine: frozen threshold, one tied anchor per set.

    :meth:`arm` pins ``best_distance`` a small margin above ``d*`` so
    the ``lb >= threshold`` prune keeps every space that could hold a
    tie even under grid-dependent float rounding of the bounds;
    :meth:`offer_batch` never moves the incumbent, it
    verifies candidates at region semantics (the same
    :meth:`~DSSearchEngine.true_distance` the exact search trusts) and
    records the anchors that achieve ``d*`` bitwise.

    On a tie plateau hundreds of candidates cover one and the same set;
    the engine's :meth:`~DSSearchEngine._verify_once` verifies each set
    once, and only the first anchor of each tied set is recorded --
    :func:`canonical_pick` canonicalizes per set, so the answer does not
    depend on which anchor stands for it.  A batch's candidates are
    keyed by coordinate rank in one vectorized pass
    (:meth:`~repro.core.objects.SpatialDataset.region_rank_keys`), and
    a key the verified-set memo already holds is skipped before any
    call: equal keys cover equal sets, so it belongs to a set already
    verified.  Its visits come from the space memo it shares
    with the pass-1 engine (see :func:`solve_canonical`).
    """

    def arm(self, dstar: float) -> None:
        self.dstar = float(dstar)
        self.tied: List[Anchor] = []
        # Claimed candidate distances and Equation-1 lower bounds are
        # grid-accumulated floats: a genuinely tied anchor can carry a
        # claimed value (or sit inside a space whose bound lands) a few
        # ulps above d*, and *which* ulps depends on the grid -- i.e.
        # on the decomposition.  Freezing the threshold exactly one ulp
        # above d* therefore made the collected tie set grid-dependent.
        # The margin keeps every near-tie alive through pruning and
        # filtering; the exact ``true_distance == d*`` verification
        # below still decides membership, so widening it can only cost
        # extra verifications, never admit a wrong anchor.
        self.margin = dstar * (1.0 + 1e-9) + 1e-9
        self.best_distance = self.margin

    def offer_batch(
        self, px: np.ndarray, py: np.ndarray, dists: np.ndarray
    ) -> bool:
        near = np.flatnonzero(dists <= self.margin)
        if not near.size:
            return False
        keys = self.dataset.region_rank_keys(
            px[near], py[near], self.query.width, self.query.height
        )
        # First occurrence of each key, in offer order: a set's first
        # candidate is always one, so the recorded anchors are those
        # a key-free pass would record.
        _, first = np.unique(keys, axis=0, return_index=True)
        first.sort()
        for j, key in zip(first, map(tuple, keys[first].tolist())):
            if key in self._verified:
                continue
            x, y = float(px[near[j]]), float(py[near[j]])
            verified, fresh = self._verify_once(x, y)
            if fresh and verified == self.dstar:
                self.tied.append((x, y))
        return False  # the incumbent never improves in pass 2


def canonical_seed(
    bounds: Rect, holes: Sequence[Rect], query: ASRSQuery
) -> Anchor:
    """The empty-region seed anchor, as :func:`ds_search_topk` places it.

    A pure function of the rectangle-union bounds and the exclusion
    holes, so a router that knows the global point extremes computes the
    identical seed without seeing the data.
    """
    seed_x = min([bounds.x_min] + [h.x_min for h in holes]) - 2.0 * query.width
    seed_y = min([bounds.y_min] + [h.y_min for h in holes]) - 2.0 * query.height
    return seed_x, seed_y


def search_pieces(
    engine: DSSearchEngine, domain: Optional[Rect], holes: Sequence[Rect]
) -> List[Rect]:
    """The allowed anchor domain as disjoint rectangles."""
    bounds = engine.rects.bounds()
    outer = bounds if domain is None else bounds.intersection(domain)
    if outer is None:
        return []
    return subtract_many(outer, list(holes))


def _search_domain(
    engine: DSSearchEngine, domain: Optional[Rect], holes: Sequence[Rect]
) -> None:
    """Search every piece of ``domain`` minus ``holes`` from its root."""
    for piece in search_pieces(engine, domain, holes):
        active = engine.root_active(piece)
        if active.size:
            engine.search_space(piece, 0.0, active, root=True)


def run_pass1(
    engine: DSSearchEngine,
    *,
    domain: Optional[Rect] = None,
    holes: Sequence[Rect] = (),
    seed_point: Optional[Anchor] = None,
) -> float:
    """The ordinary exact search over ``domain`` minus ``holes``.

    Mutates ``engine`` (incumbent + stats) and returns the optimal
    distance.  ``seed_point`` overrides the empty-region seed -- a
    shard passes the router-computed *global* seed so its local empty
    answer is positionally identical to the unsharded one.
    """
    if engine.dataset.n == 0:
        if seed_point is not None:
            engine.best_point = (float(seed_point[0]), float(seed_point[1]))
        return engine.best_distance
    if seed_point is None:
        seed_point = canonical_seed(engine.rects.bounds(), holes, engine.query)
    engine.best_point = (float(seed_point[0]), float(seed_point[1]))
    _search_domain(engine, domain, holes)
    return engine.best_distance


def run_pass2(
    collector: TieCollectingEngine,
    dstar: float,
    *,
    domain: Optional[Rect] = None,
    holes: Sequence[Rect] = (),
) -> List[Anchor]:
    """Collect anchors achieving ``dstar`` over ``domain`` minus ``holes``.

    Returns one anchor per tied point set (see
    :class:`TieCollectingEngine`).
    """
    collector.arm(dstar)
    if collector.dataset.n == 0:
        return []
    _search_domain(collector, domain, holes)
    return list(collector.tied)


def _cuts(
    lo: float, hi: float, flips: np.ndarray, width: float, holes_lo_hi: list
) -> List[float]:
    """Sorted arrangement cuts inside the open feasible interval."""
    cuts = {float(lo), float(hi)}
    for value in flips:
        v = float(value)
        cuts.add(v)
        cuts.add(v - width)
    for a, b in holes_lo_hi:
        cuts.add(float(a))
        cuts.add(float(b))
    return sorted(c for c in cuts if lo <= c <= hi)


def canonical_region(
    dataset: SpatialDataset,
    query: ASRSQuery,
    x: float,
    y: float,
    holes: Sequence[Rect] = (),
    mask: Optional[np.ndarray] = None,
) -> Optional[Rect]:
    """The canonical region of the point set covered at anchor ``(x, y)``.

    A deterministic function of the covered set ``S`` alone (plus the
    holes): every other point whose membership could flip inside S's
    feasible anchor box contributes arrangement cuts at its coordinate
    and at coordinate-minus-query-size, and the lexicographically first
    cell midpoint whose region covers exactly ``S`` (and whose anchor
    avoids every hole's open interior) wins.  Any two datasets agreeing
    on the neighbourhood of ``S`` -- a shard holding its tile plus a
    two-query-size halo, or the unsharded whole -- compute identical
    cuts and hence the bitwise-identical region.

    Returns ``None`` for an empty ``S`` (the caller owns the empty
    canonical answer, which is seed-positional, not set-positional) or
    in the float-degenerate case where no arrangement midpoint
    reproduces ``S`` exactly; callers fall back loudly, never silently.
    """
    w, h = query.width, query.height
    if mask is None:
        mask = dataset.mask_in_region(region_for_point(x, y, w, h))
    if not mask.any():
        return None
    sx, sy = dataset.xs[mask], dataset.ys[mask]
    x_lo, x_hi = float(sx.max()) - w, float(sx.min())
    y_lo, y_hi = float(sy.max()) - h, float(sy.min())
    if not (x_lo < x_hi and y_lo < y_hi):
        return None
    near = (
        (dataset.xs > x_lo)
        & (dataset.xs < x_hi + w)
        & (dataset.ys > y_lo)
        & (dataset.ys < y_hi + h)
        & ~mask
    )
    xs = _cuts(x_lo, x_hi, dataset.xs[near], w, [(hole.x_min, hole.x_max) for hole in holes])
    ys = _cuts(y_lo, y_hi, dataset.ys[near], h, [(hole.y_min, hole.y_max) for hole in holes])
    for ax, bx in zip(xs, xs[1:]):
        mx = 0.5 * (ax + bx)
        if not (ax < mx < bx):
            continue
        for ay, by in zip(ys, ys[1:]):
            my = 0.5 * (ay + by)
            if not (ay < my < by):
                continue
            if any(hole.contains_point_open(mx, my) for hole in holes):
                continue
            region = region_for_point(mx, my, w, h)
            if np.array_equal(dataset.mask_in_region(region), mask):
                return region
    return None


def canonical_pick(
    dataset: SpatialDataset,
    query: ASRSQuery,
    anchors: Sequence[Anchor],
    holes: Sequence[Rect] = (),
) -> Optional[Rect]:
    """The lexicographically smallest canonical region over tied anchors.

    Anchors covering the same point set dedupe to one canonicalization;
    distinct tied sets compete by ``(x_min, y_min)`` of their canonical
    regions -- a total order, since a region is determined by its
    anchor once the query size is fixed.
    """
    best: Optional[Rect] = None
    seen = set()
    for x, y in anchors:
        mask = dataset.mask_in_region(
            region_for_point(x, y, query.width, query.height)
        )
        key = mask.tobytes()
        if key in seen:
            continue
        seen.add(key)
        region = canonical_region(dataset, query, x, y, holes, mask=mask)
        if region is None:
            continue
        if best is None or (region.x_min, region.y_min) < (best.x_min, best.y_min):
            best = region
    return best


def solve_canonical(
    make_engine: Callable[[], DSSearchEngine],
    make_collector: Callable[[], TieCollectingEngine],
    query: ASRSQuery,
    *,
    domain: Optional[Rect] = None,
    holes: Sequence[Rect] = (),
    seed_point: Optional[Anchor] = None,
) -> RegionResult:
    """Both passes plus canonicalization: the full canonical solve.

    The two factories supply fresh engines (a session passes its
    cache-assembling ``_engine``; cold callers build
    :class:`DSSearchEngine` / :class:`TieCollectingEngine` directly),
    sharing the rectangles, weights and settings.

    Both engines search the same pieces, so they share one space memo
    and pass 2 re-walks pass 1's spaces without re-summing them; the
    answer is bitwise the memo-free one.  A session engine brings its
    shape's memo, so later hole-free solves reuse the spaces too.  An
    engine without one, or a solve with holes, gets a per-solve memo:
    pieces cut around holes depend on earlier answers and would only
    grow a shared memo.
    """
    engine = make_engine()
    if holes or engine.spaces is None:
        engine.spaces = {}
    d_empty = engine.best_distance
    dstar = run_pass1(engine, domain=domain, holes=holes, seed_point=seed_point)
    if engine.dataset.n == 0 or dstar == d_empty:
        # The incumbent never moved: the canonical answer is the seed
        # region itself, a pure function of bounds + holes.
        return engine.result()
    collector = make_collector()
    collector.spaces = engine.spaces
    anchors = run_pass2(collector, dstar, domain=domain, holes=holes)
    anchors.append(engine.best_point)
    region = canonical_pick(engine.dataset, query, anchors, holes)
    if region is None:
        # Float-degenerate plateau (no arrangement midpoint reproduces
        # the tied set): serve the pass-1 incumbent.  DESIGN.md §15
        # documents this as the one case outside the identity contract.
        return engine.result()
    rep = query.aggregator.apply(engine.dataset, region)
    return RegionResult(region=region, distance=dstar, representation=rep)


def solve_canonical_topk(
    make_engine: Callable[[], DSSearchEngine],
    make_collector: Callable[[], TieCollectingEngine],
    query: ASRSQuery,
    k: int,
    *,
    dataset_n: int,
    exclude: Optional[Rect] = None,
) -> List[RegionResult]:
    """Canonical top-k: :func:`ds_search_topk`'s round structure, each
    round answered canonically so the per-round holes -- and therefore
    every later round -- are decomposition-independent too.

    ``dataset_n`` is the dataset's point count, mirroring the topk
    loop's empty-dataset short-circuit (one empty result, no holes).
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    results: List[RegionResult] = []
    holes: List[Rect] = []
    if exclude is not None:
        holes.append(
            Rect(
                exclude.x_min - query.width,
                exclude.y_min - query.height,
                exclude.x_max,
                exclude.y_max,
            )
        )
    for _ in range(k):
        result = solve_canonical(
            make_engine, make_collector, query, holes=list(holes)
        )
        results.append(result)
        if dataset_n == 0:
            break
        found = result.region
        holes.append(
            Rect(
                found.x_min - query.width,
                found.y_min - query.height,
                found.x_max,
                found.y_max,
            )
        )
    return results
