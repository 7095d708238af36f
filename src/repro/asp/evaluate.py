"""Exact point evaluation in the reduced ASP problem.

``F(p)`` -- the aggregate representation of a point -- is computed from
the set of rectangles strictly covering ``p`` (Section 4.1).  These
helpers evaluate single points or batches against an *active subset* of
the rectangles, which is how DS-Search resolves surviving dirty cells
exactly at the drop condition (DESIGN.md §5.2).
"""

from __future__ import annotations

import numpy as np

from ..core.channels import ChannelCompiler
from ..core.query import ASRSQuery
from .rectset import RectSet


def point_representation(
    compiler: ChannelCompiler,
    rects: RectSet,
    x: float,
    y: float,
    active: np.ndarray | None = None,
) -> np.ndarray:
    """``F(p)`` for a point, from the rectangles covering it.

    ``active`` (optional) restricts attention to a subset of rectangle
    indices; rectangles outside it are treated as absent.  Callers must
    guarantee that no *inactive* rectangle covers the point (DS-Search
    guarantees this because active sets are computed by spatial overlap
    with the enclosing space).
    """
    if active is None:
        covering = np.flatnonzero(rects.covering_mask(x, y))
    else:
        active = np.asarray(active)
        sub = rects.take(active)
        covering = active[sub.covering_mask(x, y)]
    return compiler.rep_from_indices(covering)


def point_distance(
    query: ASRSQuery,
    compiler: ChannelCompiler,
    rects: RectSet,
    x: float,
    y: float,
    active: np.ndarray | None = None,
) -> float:
    """Distance of a point's representation to the query representation."""
    rep = point_representation(compiler, rects, x, y, active)
    return query.distance_to(rep)


def points_distances(
    query: ASRSQuery,
    compiler: ChannelCompiler,
    rects: RectSet,
    xs: np.ndarray,
    ys: np.ndarray,
    taken: tuple[RectSet, np.ndarray] | None = None,
) -> np.ndarray:
    """Vectorized distances for a batch of candidate points.

    Builds an ``(m, n_active)`` coverage matrix; intended for the small
    batches produced by dirty-cell resolution, not for full scans.
    ``taken`` is ``(rects.take(active), compiler.weights[active])`` for
    an active subset the caller has already gathered (DS-Search gathers
    once per space, not once per call); without it every rectangle
    counts.
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if taken is None:
        # Whole-set evaluation: skip the take()/gather, which would copy
        # four n-sized coordinate columns per probe call.
        sub, weights = rects, compiler.weights
    else:
        sub, weights = taken
    cover = (
        (sub.x_min[np.newaxis, :] < xs[:, np.newaxis])
        & (xs[:, np.newaxis] < sub.x_max[np.newaxis, :])
        & (sub.y_min[np.newaxis, :] < ys[:, np.newaxis])
        & (ys[:, np.newaxis] < sub.y_max[np.newaxis, :])
    )
    sums = cover.astype(np.float64) @ weights
    reps = compiler.rep_from_sums(sums)
    return query.metric.distance_many(reps, query.query_rep)
