"""Soundness of GI-DS candidate-cell lower bounds (Section 5.3).

For every candidate lattice cell, the Equation-1 bound derived from the
bounding/bounded regions must not exceed the true distance of *any*
candidate region bottom-left-cornered in that cell.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ASRSQuery
from repro.dssearch.search import DSSearchEngine
from repro.index import GridIndex
from repro.index.gids import candidate_cell_bounds

from .conftest import make_random_dataset, random_aggregator


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 40),
    sx=st.integers(2, 8),
)
def test_candidate_cell_bounds_are_sound(seed, n, sx):
    rng = np.random.default_rng(seed)
    ds = make_random_dataset(rng, n, extent=60.0)
    agg = random_aggregator()
    dim = agg.dim(ds)
    query = ASRSQuery.from_vector(14.0, 11.0, agg, rng.uniform(0, 4, dim))
    engine = DSSearchEngine(ds, query)
    index = GridIndex.build(ds, sx, sx)

    cell_rects, lbs = candidate_cell_bounds(index, engine, query)

    # Sample random bl-corners per cell and verify lb <= true distance.
    for cell, lb in zip(cell_rects[:: max(1, len(cell_rects) // 25)],
                        lbs[:: max(1, len(cell_rects) // 25)]):
        for _ in range(3):
            px = rng.uniform(cell.x_min, cell.x_max)
            py = rng.uniform(cell.y_min, cell.y_max)
            from repro.asp import region_for_point

            region = region_for_point(px, py, query.width, query.height)
            true_dist = query.distance_of_region(ds, region)
            assert lb <= true_dist + 1e-6, (cell, lb, true_dist)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_lattice_covers_all_data_corners(seed):
    """Candidate cells must cover every bl-corner whose region can hold objects."""
    rng = np.random.default_rng(seed)
    ds = make_random_dataset(rng, 20, extent=60.0)
    agg = random_aggregator()
    query = ASRSQuery.from_vector(14.0, 11.0, agg, np.zeros(agg.dim(ds)))
    engine = DSSearchEngine(ds, query)
    index = GridIndex.build(ds, 5, 5)
    cell_rects, _ = candidate_cell_bounds(index, engine, query)

    bounds = ds.bounds()
    # Any corner with a non-empty region lies in [xmin - a, xmax] x ...
    for _ in range(20):
        px = rng.uniform(bounds.x_min - query.width, bounds.x_max)
        py = rng.uniform(bounds.y_min - query.height, bounds.y_max)
        assert any(
            c.contains_point_closed(px, py) for c in cell_rects
        ), (px, py)


def _meshgrid_geometry(index, width, height):
    """The per-cell lattice geometry as it was first written: every
    Lemma-8 range array materialized per lattice cell (the reference
    for the per-axis form)."""
    from repro.dssearch.grid import axis_cell_range

    a, b = float(width), float(height)
    pad_cols = int(np.ceil(a / index.cell_width))
    pad_rows = int(np.ceil(b / index.cell_height))
    cc, rr = np.meshgrid(
        np.arange(-pad_cols, index.sx), np.arange(-pad_rows, index.sy), indexing="ij"
    )
    cc, rr = cc.ravel(), rr.ravel()
    x0 = index.space.x_min + cc * index.cell_width
    x1 = x0 + index.cell_width
    y0 = index.space.y_min + rr * index.cell_height
    y1 = y0 + index.cell_height
    over = (
        *axis_cell_range(index.xs, x0, x1 + a, index.sx, "over"),
        *axis_cell_range(index.ys, y0, y1 + b, index.sy, "over"),
    )
    full = (
        *axis_cell_range(index.xs, x1, np.maximum(x0 + a, x1), index.sx, "full"),
        *axis_cell_range(index.ys, y1, np.maximum(y0 + b, y1), index.sy, "full"),
    )
    return x0, y0, over, full


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 80),
    sx=st.integers(1, 12),
    sy=st.integers(1, 12),
    # Region sizes from a hundredth of a cell (the bounded region is
    # empty) to most of the data extent.
    w=st.floats(0.05, 50.0),
    h=st.floats(0.05, 50.0),
)
def test_per_axis_lattice_geometry_matches_per_cell(seed, n, sx, sy, w, h):
    """The per-axis geometry yields the per-cell geometry's corners and
    lattice intervals, byte for byte."""
    from repro.core.channels import ChannelCompiler
    from repro.index.gids import (
        candidate_lattice_geometry,
        candidate_lattice_intervals,
    )

    rng = np.random.default_rng(seed)
    ds = make_random_dataset(rng, n, extent=60.0, snap=None if seed % 2 else 1.0)
    index = GridIndex.build(ds, sx, sy)
    compiler = ChannelCompiler(ds, random_aggregator())
    reference = _meshgrid_geometry(index, w, h)
    geometry = candidate_lattice_geometry(index, w, h)
    assert geometry[0].tobytes() == reference[0].tobytes()
    assert geometry[1].tobytes() == reference[1].tobytes()
    got = candidate_lattice_intervals(index, compiler, w, h, geometry=geometry)
    want = candidate_lattice_intervals(index, compiler, w, h, geometry=reference)
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
