import numpy as np
import pytest
from helpers import polygon_area
from scipy.spatial import ConvexHull

from hoiplan.polygons import (convex_distance, convex_hull, convex_intersects, point_in_convex,
                              polygon_centroid, polygon_contains)


def test_hull_of_square():
    pts = [(0, 0), (1, 0), (1, 1), (0, 1), (0.5, 0.5)]
    hull = convex_hull(pts)
    assert len(hull) == 4
    assert polygon_area(hull) == pytest.approx(1.0)


def test_hull_matches_scipy_oracle():
    rng = np.random.default_rng(17)
    for _ in range(50):
        pts = rng.normal(size=(20, 2))
        ours = {tuple(v) for v in convex_hull(pts)}
        oracle = {tuple(pts[i]) for i in ConvexHull(pts).vertices}
        assert ours == oracle


def test_hull_is_ccw():
    rng = np.random.default_rng(18)
    pts = rng.normal(size=(15, 2))
    hull = convex_hull(pts)
    x, y = hull[:, 0], hull[:, 1]
    signed = 0.5 * (np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))
    assert signed > 0


def test_point_in_convex():
    square = np.array([(0, 0), (2, 0), (2, 2), (0, 2)], dtype=float)
    assert point_in_convex(square, (1, 1))
    assert point_in_convex(square, (0, 0))
    assert not point_in_convex(square, (2.1, 1))


def test_polygon_contains():
    outer = np.array([(0, 0), (4, 0), (4, 4), (0, 4)], dtype=float)
    inner = np.array([(1, 1), (2, 1), (2, 2), (1, 2)], dtype=float)
    assert polygon_contains(outer, inner)
    assert not polygon_contains(inner, outer)


def test_intersects_and_distance():
    a = np.array([(0, 0), (1, 0), (1, 1), (0, 1)], dtype=float)
    b = np.array([(0.5, 0.5), (1.5, 0.5), (1.5, 1.5), (0.5, 1.5)], dtype=float)
    c = np.array([(3, 0), (4, 0), (4, 1), (3, 1)], dtype=float)
    assert convex_intersects(a, b)
    assert not convex_intersects(a, c)
    assert convex_distance(a, b) == 0.0
    assert convex_distance(a, c) == pytest.approx(2.0)


def test_touching_counts_as_intersecting():
    a = np.array([(0, 0), (1, 0), (1, 1), (0, 1)], dtype=float)
    b = np.array([(1, 0), (2, 0), (2, 1), (1, 1)], dtype=float)
    assert convex_intersects(a, b)
    assert convex_distance(a, b) == 0.0


def test_distance_diagonal_gap():
    a = np.array([(0, 0), (1, 0), (1, 1), (0, 1)], dtype=float)
    b = np.array([(2, 2), (3, 2), (3, 3), (2, 3)], dtype=float)
    assert convex_distance(a, b) == pytest.approx(np.sqrt(2.0))


def test_centroid_of_rect():
    rect = np.array([(0, 0), (4, 0), (4, 2), (0, 2)], dtype=float)
    assert np.allclose(polygon_centroid(rect), [2, 1])
