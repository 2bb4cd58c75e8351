"""Small 2D convex polygon toolbox used for footprints, sampling, and rasterization.

The distance/intersection kernels run on plain floats, one pair of shapes per
call. The planner measures whole windows of grid cells with numpy and calls
them only for the cells numpy cannot settle: a distance within 1e-9 of a
threshold, or a cell that may overlap a footprint. They are the exact
reference that its grids and goal sets match bit for bit.
"""

import math

import numpy as np


def convex_hull(points) -> np.ndarray:
    """Convex hull of 2D points (monotone chain), CCW, starting at the lowest point."""
    pts = sorted({(float(x), float(y)) for x, y in np.asarray(points, dtype=float)})
    if len(pts) <= 2:
        return np.array(pts, dtype=float).reshape(-1, 2)

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return np.array(lower[:-1] + upper[:-1], dtype=float)


def polygon_centroid(poly) -> np.ndarray:
    """Area centroid; falls back to the vertex mean for degenerate polygons."""
    poly = np.asarray(poly, dtype=float)
    x, y = poly[:, 0], poly[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    cross = x * yn - xn * y
    a = cross.sum() / 2.0
    if abs(a) < 1e-12:
        return poly.mean(axis=0)
    cx = ((x + xn) * cross).sum() / (6.0 * a)
    cy = ((y + yn) * cross).sum() / (6.0 * a)
    return np.array([cx, cy])


def _vertices(poly) -> list[tuple[float, float]]:
    if isinstance(poly, list):
        return poly
    return [(float(p[0]), float(p[1])) for p in poly]


def point_in_convex(poly, p, tol: float = 1e-9) -> bool:
    """Point inside (or within tol of) a CCW convex polygon."""
    verts = _vertices(poly)
    n = len(verts)
    px, py = float(p[0]), float(p[1])
    if n == 0:
        return False
    if n == 1:
        return math.hypot(verts[0][0] - px, verts[0][1] - py) <= tol
    for i in range(n):
        ax, ay = verts[i]
        bx, by = verts[(i + 1) % n]
        ex, ey = bx - ax, by - ay
        if ex * (py - ay) - ey * (px - ax) < -tol * max(1.0, math.hypot(ex, ey)):
            return False
    return True


def polygon_contains(outer, inner, tol: float = 1e-9) -> bool:
    outer_v = _vertices(outer)
    return all(point_in_convex(outer_v, v, tol) for v in _vertices(inner))


def convex_intersects(a, b) -> bool:
    """Separating-axis test for two convex polygons; touching counts as intersecting."""
    va = _vertices(a)
    vb = _vertices(b)
    if not va or not vb:
        return False
    for verts in (va, vb):
        n = len(verts)
        for i in range(n):
            ex = verts[(i + 1) % n][0] - verts[i][0]
            ey = verts[(i + 1) % n][1] - verts[i][1]
            if ex * ex + ey * ey < 1e-24:
                continue
            # axis perpendicular to the edge; a yes/no test needs no normalizing
            ax, ay = -ey, ex
            amin = amax = va[0][0] * ax + va[0][1] * ay
            for x, y in va[1:]:
                v = x * ax + y * ay
                if v < amin:
                    amin = v
                elif v > amax:
                    amax = v
            bmin = bmax = vb[0][0] * ax + vb[0][1] * ay
            for x, y in vb[1:]:
                v = x * ax + y * ay
                if v < bmin:
                    bmin = v
                elif v > bmax:
                    bmax = v
            if amax < bmin or bmax < amin:
                return False
    return True


def _seg_point(ax, ay, bx, by, px, py) -> float:
    abx, aby = bx - ax, by - ay
    denom = abx * abx + aby * aby
    if denom < 1e-18:
        return math.hypot(px - ax, py - ay)
    t = ((px - ax) * abx + (py - ay) * aby) / denom
    if t < 0.0:
        t = 0.0
    elif t > 1.0:
        t = 1.0
    return math.hypot(ax + t * abx - px, ay + t * aby - py)


def segment_distance(p1, p2, q1, q2) -> float:
    """Minimum distance between two 2D segments."""
    ax, ay = float(p1[0]), float(p1[1])
    bx, by = float(p2[0]), float(p2[1])
    cx, cy = float(q1[0]), float(q1[1])
    dx, dy = float(q2[0]), float(q2[1])
    d1x, d1y = bx - ax, by - ay
    d2x, d2y = dx - cx, dy - cy
    cross = d1x * d2y - d1y * d2x
    if abs(cross) > 1e-15:
        rx, ry = cx - ax, cy - ay
        t = (rx * d2y - ry * d2x) / cross
        u = (rx * d1y - ry * d1x) / cross
        if 0.0 <= t <= 1.0 and 0.0 <= u <= 1.0:
            return 0.0
    return min(_seg_point(ax, ay, bx, by, cx, cy),
               _seg_point(ax, ay, bx, by, dx, dy),
               _seg_point(cx, cy, dx, dy, ax, ay),
               _seg_point(cx, cy, dx, dy, bx, by))


def convex_distance(a, b) -> float:
    """Distance between two convex polygons; 0 when they intersect or touch."""
    va = _vertices(a)
    vb = _vertices(b)
    if convex_intersects(va, vb):
        return 0.0
    best = math.inf
    na, nb = len(va), len(vb)
    for i in range(na):
        p1 = va[i]
        p2 = va[(i + 1) % na]
        for j in range(nb):
            d = segment_distance(p1, p2, vb[j], vb[(j + 1) % nb])
            if d < best:
                best = d
    return best


def point_to_convex_distance(p, poly) -> float:
    """Distance from a point to a convex polygon; 0 inside or on the boundary."""
    verts = _vertices(poly)
    px, py = float(p[0]), float(p[1])
    if point_in_convex(verts, (px, py), tol=0.0):
        return 0.0
    n = len(verts)
    best = math.inf
    for i in range(n):
        ax, ay = verts[i]
        bx, by = verts[(i + 1) % n]
        d = _seg_point(ax, ay, bx, by, px, py)
        if d < best:
            best = d
    return best
