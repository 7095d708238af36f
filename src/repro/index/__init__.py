"""Grid index and the GI-DS search (Section 5)."""

from .gids import (
    GIDSStats,
    candidate_cell_arrays,
    candidate_cell_bounds,
    gi_ds_search,
)
from .grid_index import GridIndex
from .summary import cell_sums_to_suffix_table, range_sums

__all__ = [
    "GIDSStats",
    "GridIndex",
    "candidate_cell_arrays",
    "candidate_cell_bounds",
    "cell_sums_to_suffix_table",
    "gi_ds_search",
    "range_sums",
]
