"""Unit tests for the columnar spatial dataset."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.asp.reduction import region_for_point
from repro.core import (
    CategoricalAttribute,
    NumericAttribute,
    Rect,
    Schema,
    SpatialDataset,
)


def small_dataset():
    schema = Schema.of(
        CategoricalAttribute("cat", ("a", "b")),
        NumericAttribute("v"),
    )
    return SpatialDataset.from_columns(
        xs=[0.0, 1.0, 2.0, 3.0],
        ys=[0.0, 1.0, 2.0, 3.0],
        schema=schema,
        raw_columns={"cat": ["a", "b", "a", "b"], "v": [1.0, 2.0, 3.0, 4.0]},
    )


class TestConstruction:
    def test_from_records(self, fig1_dataset):
        assert fig1_dataset.n == 15
        assert len(fig1_dataset) == 15

    def test_mismatched_lengths_raise(self):
        schema = Schema.of(NumericAttribute("v"))
        with pytest.raises(ValueError):
            SpatialDataset(
                np.array([0.0, 1.0]), np.array([0.0]), schema, {"v": np.array([1.0])}
            )

    def test_missing_column_raises(self):
        schema = Schema.of(NumericAttribute("v"))
        with pytest.raises(ValueError, match="missing column"):
            SpatialDataset(np.array([0.0]), np.array([0.0]), schema, {})

    def test_bad_codes_raise(self):
        schema = Schema.of(CategoricalAttribute("cat", ("a",)))
        with pytest.raises(ValueError, match="outside the domain"):
            SpatialDataset(
                np.array([0.0]), np.array([0.0]), schema, {"cat": np.array([5])}
            )

    def test_column_length_mismatch_raises(self):
        schema = Schema.of(NumericAttribute("v"))
        with pytest.raises(ValueError, match="length"):
            SpatialDataset(
                np.array([0.0, 1.0]),
                np.array([0.0, 1.0]),
                schema,
                {"v": np.array([1.0])},
            )


class TestRegionSemantics:
    def test_strict_containment(self):
        ds = small_dataset()
        # Object at (1, 1) is strictly inside; (0,0) and (2,2) lie on edges.
        mask = ds.mask_in_region(Rect(0.0, 0.0, 2.0, 2.0))
        assert mask.tolist() == [False, True, False, False]

    def test_count_in_region(self):
        ds = small_dataset()
        assert ds.count_in_region(Rect(-1.0, -1.0, 4.0, 4.0)) == 4
        assert ds.count_in_region(Rect(10.0, 10.0, 11.0, 11.0)) == 0

    def test_bounds(self):
        ds = small_dataset()
        assert ds.bounds() == Rect(0.0, 0.0, 3.0, 3.0)

    def test_empty_bounds_raise(self):
        schema = Schema.of(NumericAttribute("v"))
        ds = SpatialDataset(np.array([]), np.array([]), schema, {"v": np.array([])})
        with pytest.raises(ValueError):
            ds.bounds()


class TestViewsAndSubset:
    def test_object_at_decodes(self):
        ds = small_dataset()
        obj = ds.object_at(1)
        assert obj.x == 1.0 and obj.y == 1.0
        assert obj["cat"] == "b"
        assert obj["v"] == 2.0

    def test_iteration(self):
        ds = small_dataset()
        cats = [o["cat"] for o in ds]
        assert cats == ["a", "b", "a", "b"]

    def test_subset_by_mask(self):
        ds = small_dataset()
        sub = ds.subset(ds.column("cat") == 0)
        assert sub.n == 2
        assert sub.column("v").tolist() == [1.0, 3.0]

    def test_subset_by_indices(self):
        ds = small_dataset()
        sub = ds.subset(np.array([3, 0]))
        assert sub.xs.tolist() == [3.0, 0.0]

    def test_repr(self):
        assert "SpatialDataset" in repr(small_dataset())


def _coordinate_dataset(xs, ys):
    schema = Schema.of(NumericAttribute("v"))
    return SpatialDataset(
        np.asarray(xs, dtype=np.float64),
        np.asarray(ys, dtype=np.float64),
        schema,
        {"v": np.zeros(len(xs))},
    )


def _nudge(value: float, ulps: int) -> float:
    toward = np.inf if ulps > 0 else -np.inf
    for _ in range(abs(ulps)):
        value = float(np.nextafter(value, toward))
    return value


def _upper_edge_anchor(edge: float, size: float) -> float:
    """An anchor ``x`` with ``fl(x + size) == edge`` where one is near."""
    value = edge - size
    for _ in range(4):
        if value + size < edge:
            value = _nudge(value, 1)
        elif value + size > edge:
            value = _nudge(value, -1)
    return value


def _assert_equal_keys_cover_equal_sets(ds, ax, ay, width, height):
    keys = ds.region_rank_keys(np.asarray(ax), np.asarray(ay), width, height)
    assert keys.shape == (len(ax), 4)
    covered = {}
    for key, x, y in zip(map(tuple, keys.tolist()), ax, ay):
        mask = ds.mask_in_region(region_for_point(x, y, width, height))
        covered.setdefault(key, mask.tobytes())
        assert covered[key] == mask.tobytes(), (key, x, y)


@st.composite
def _edge_problems(draw):
    """Snapped coordinates with duplicates and signed zeros, and anchors
    whose region edges sit on an object or one ulp either side of it."""
    n = draw(st.integers(1, 300))
    step = draw(st.sampled_from([0.1, 0.25, 1.0]))
    cells = st.lists(st.integers(-6, 6), min_size=n, max_size=n)
    signs = st.lists(st.booleans(), min_size=n, max_size=n)
    axes = []
    for _ in range(2):
        values = np.asarray(draw(cells), dtype=np.float64) * step
        negative = np.asarray(draw(signs))
        values[(values == 0.0) & negative] = -0.0
        axes.append(values)
    sizes = (
        step * draw(st.sampled_from([1.0, 2.0, 3.0, 2.5])),
        step * draw(st.sampled_from([1.0, 2.0, 0.5])),
    )
    # Per axis: the object row, lower (else upper) edge on it, and
    # whether a zero anchor flips its sign.
    one_axis = st.tuples(st.integers(0, n - 1), st.booleans(), st.booleans())
    picks = draw(
        st.lists(
            st.tuples(one_axis, one_axis, st.booleans()), min_size=1, max_size=12
        )
    )
    anchors = []
    for x_pick, y_pick, corner in picks:
        if corner:  # both edges on one object
            y_pick = (x_pick[0],) + y_pick[1:]
        for ux in (-1, 0, 1):
            for uy in (-1, 0, 1):
                anchor = []
                for (row, lower, flip), ulps, values, size in zip(
                    (x_pick, y_pick), (ux, uy), axes, sizes
                ):
                    edge = _nudge(float(values[row]), ulps)
                    value = edge if lower else _upper_edge_anchor(edge, size)
                    anchor.append(-value if value == 0.0 and flip else value)
                anchors.append(anchor)
    ax, ay = (list(c) for c in zip(*anchors))
    return axes[0], axes[1], sizes[0], sizes[1], ax, ay


class TestRegionRankKeys:
    @given(_edge_problems())
    def test_equal_keys_cover_bitwise_equal_sets(self, problem):
        xs, ys, width, height, ax, ay = problem
        ds = _coordinate_dataset(xs, ys)
        _assert_equal_keys_cover_equal_sets(ds, ax, ay, width, height)

    def test_signed_zero_and_on_edge_objects(self):
        ds = _coordinate_dataset([0.0, -0.0, 1.0, 1.0, 2.0], [0.5] * 5)
        below = _nudge(0.0, -1)
        ax = [0.0, -0.0, below, 1.0, _nudge(1.0, -1), 0.5, -0.5, -1.0]
        _assert_equal_keys_cover_equal_sets(ds, ax, [0.0] * len(ax), 1.0, 1.0)
        keys = ds.region_rank_keys(np.array([0.0, -0.0, below]), np.zeros(3), 1.0, 1.0)
        # Both zeros exclude the objects at 0 and the one at 1 (open
        # containment); one ulp below zero takes in the zeros.
        assert keys[0].tolist() == keys[1].tolist() == [2, 2, 0, 5]
        assert keys[2].tolist() == [0, 2, 0, 5]
