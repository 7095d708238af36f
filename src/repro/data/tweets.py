"""Tweet-like dataset (substitute for the paper's 3.2e8-tweet corpus).

The paper's Tweet data covers the continental US (lat [24.39, 49.39],
lon [-124.87, -66.86]) with GPS accuracy 1e-8.  We generate clustered
synthetic tweets over the same bounding box with:

* ``day_of_week`` -- categorical Mon..Sun; a configurable fraction of
  clusters are *weekend hot-spots* (mostly Sat/Sun tweets), giving the
  paper's composite aggregator F1 a well-defined optimum;
* ``length`` -- tweet text length in [1, 280], used by the POISyn
  derivation exactly as the paper derives ratings from tweet lengths.

Coordinates are snapped to a 1e-5-degree lattice (a coarser but
behaviour-preserving stand-in for the paper's 1e-8; see DESIGN.md §3).
"""

from __future__ import annotations

import numpy as np

from ..core.aggregators import CompositeAggregator, DistributionAggregator
from ..core.attributes import CategoricalAttribute, NumericAttribute, Schema
from ..core.geometry import Rect
from ..core.objects import SpatialDataset
from ..core.query import ASRSQuery
from ..core.selection import SelectAll
from .synthetic import clustered_points

US_BOUNDS = Rect(-124.87, 24.39, -66.86, 49.39)

DAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")

TWEET_SCHEMA = Schema.of(
    CategoricalAttribute("day_of_week", DAYS),
    NumericAttribute("length", lo=1.0, hi=140.0),
)


def generate_tweet_dataset(
    n: int,
    seed: int = 0,
    n_clusters: int = 25,
    weekend_hotspot_fraction: float = 0.2,
    bounds: Rect = US_BOUNDS,
    resolution: float = 1e-5,
) -> SpatialDataset:
    """Generate ``n`` synthetic geo-tagged tweets.

    A ``weekend_hotspot_fraction`` of the clusters posts ~90% of its
    tweets on Saturday/Sunday; the rest follow a mild weekday-leaning
    profile, mirroring the skew the paper's F1 experiments exploit.
    """
    rng = np.random.default_rng(seed)
    xs, ys, cluster_ids = clustered_points(
        rng, n, bounds, n_clusters=n_clusters, resolution=resolution
    )
    n_hot = max(1, int(round(weekend_hotspot_fraction * n_clusters)))
    hot_clusters = set(range(n_hot))  # the most popular clusters are hot

    weekday_profile = np.array([0.17, 0.17, 0.17, 0.17, 0.16, 0.08, 0.08])
    weekend_profile = np.array([0.02, 0.02, 0.02, 0.02, 0.02, 0.45, 0.45])
    days = np.empty(n, dtype=np.int64)
    for is_hot, profile in ((True, weekend_profile), (False, weekday_profile)):
        mask = np.isin(cluster_ids, list(hot_clusters)) == is_hot
        days[mask] = rng.choice(7, size=int(mask.sum()), p=profile)

    # 2014-2016 tweets were capped at 140 characters and skewed toward
    # the cap; Beta(5, 2) reproduces that high-mass-near-max profile
    # (which also keeps POISyn ratings concentrated high, as the paper's
    # length-derived ratings were).
    lengths = np.clip(np.round(140.0 * rng.beta(5.0, 2.0, size=n)), 1.0, 140.0)
    return SpatialDataset(
        xs, ys, TWEET_SCHEMA, {"day_of_week": days, "length": lengths}
    )


def weekend_aggregator() -> CompositeAggregator:
    """Composite Aggregator 1 (Section 7.1): day-of-week distribution."""
    return CompositeAggregator([DistributionAggregator("day_of_week", SelectAll())])


def regional_max_estimate(
    dataset: SpatialDataset,
    mask: np.ndarray,
    width: float,
    height: float,
    weights: np.ndarray | None = None,
    margin: float = 2.0,
) -> float:
    """Estimate ``T``: the maximum mass a ``width x height`` region can hold.

    Takes the max over four half-cell-shifted histograms of the selected
    objects and inflates it by ``margin``.  The paper defines its F1/F2
    targets as the *maximum a region can have*; an aspirational
    (over-)estimate preserves that semantics and keeps the resulting
    optimum basin sharp -- a target that undershoots what regions
    achieve creates a plateau of exact ties that any exact algorithm
    must enumerate.
    """
    xs, ys = dataset.xs[mask], dataset.ys[mask]
    if xs.size == 0:
        return 0.0
    if weights is None:
        weights = np.ones(xs.size)
    else:
        weights = np.asarray(weights, dtype=np.float64)[mask]
    bounds = dataset.bounds()
    best = 0.0
    for shift_x in (0.0, width / 2.0):
        for shift_y in (0.0, height / 2.0):
            nx = max(1, int(np.ceil((bounds.width + width) / width)))
            ny = max(1, int(np.ceil((bounds.height + height) / height)))
            cols = np.clip(
                ((xs - bounds.x_min + shift_x) / width).astype(int), 0, nx - 1
            )
            rows = np.clip(
                ((ys - bounds.y_min + shift_y) / height).astype(int), 0, ny - 1
            )
            hist = np.bincount(cols * ny + rows, weights=weights, minlength=nx * ny)
            best = max(best, float(hist.max()))
    return best * margin


def weekend_query(
    dataset: SpatialDataset,
    width: float,
    height: float,
    margin: float = 2.0,
) -> ASRSQuery:
    """The paper's F1 query: find the most weekend-heavy region.

    The target representation is 0 on the weekdays and, on ``Sat`` and
    ``Sun``, the maximum Saturday/Sunday tweet counts a region of the
    query size can hold (estimated aspirationally; see
    :func:`regional_max_estimate`); weights are 1/5 on the weekdays and
    1/2 on the weekend.  Days are looked up by name in the schema's
    domain, so a CSV-loaded dataset (whose inferred domain is sorted:
    ``Fri, Mon, Sat, ...``) gets the same query as a generated one
    (``DAYS`` order: ``(0, 0, 0, 0, 0, T6, T7)``).
    """
    agg = weekend_aggregator()
    domain = dataset.schema.categorical("day_of_week").domain
    codes = dataset.column("day_of_week")
    target_rep = np.zeros(len(domain))
    weights = np.full(len(domain), 1 / 5)
    for day in ("Sat", "Sun"):
        code = domain.index(day)
        target_rep[code] = regional_max_estimate(
            dataset, codes == code, width, height, margin=margin
        )
        weights[code] = 1 / 2
    return ASRSQuery.from_vector(width, height, agg, target_rep, weights=weights)
