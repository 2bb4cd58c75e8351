"""Shared fixture builders, the layout invariant checker, and search oracles."""

import heapq
import math

import numpy as np

from hoiplan.geometry import Pose, quat_rotate
from hoiplan.planner import NoPath, OccupancyGrid, PathResult, _window
from hoiplan.polygons import convex_distance, point_to_convex_distance, polygon_contains
from hoiplan.relations import Adjacent, Facing, On, compass_vector
from hoiplan.scene import (ObjectSpec, Scene, bottom_height, footprint, top_surface_height)

SQRT2 = math.sqrt(2.0)


def grid_from_rows(rows, resolution=1.0):
    """Rows of '.'/'#' with row 0 at the top; builds occupied[ix, iy]."""
    ny = len(rows)
    nx = len(rows[0])
    occ = np.zeros((nx, ny), dtype=bool)
    for r, row in enumerate(rows):
        for c, ch in enumerate(row):
            occ[c, ny - 1 - r] = ch == "#"
    return OccupancyGrid(resolution, np.zeros(2), occ)


def dijkstra_oracle(grid, start, goal):
    """Independent 8-connected pair-cost Dijkstra used to certify A* optimality.

    Returns (straight, diagonal) move counts of a cheapest path, or None when
    the goal is unreachable.
    """
    dist = {start: (0, 0)}
    heap = [(0.0, start)]
    done = set()
    while heap:
        d, cell = heapq.heappop(heap)
        if cell in done:
            continue
        done.add(cell)
        if cell == goal:
            return dist[cell]
        x, y = cell
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1)):
            nxt = (x + dx, y + dy)
            if not grid.is_free(nxt):
                continue
            if dx and dy and not (grid.is_free((x + dx, y)) and grid.is_free((x, y + dy))):
                continue
            s, di = dist[cell]
            cand = (s + (0 if dx and dy else 1), di + (1 if dx and dy else 0))
            cost = cand[0] + cand[1] * SQRT2
            if nxt not in dist or cost < dist[nxt][0] + dist[nxt][1] * SQRT2 - 1e-12:
                dist[nxt] = cand
                heapq.heappush(heap, (cost, nxt))
    return None


def rasterize_oracle(scene, exclude=frozenset(), resolution=0.05, agent_radius=0.3, poses=None):
    """Scalar reference for planner.rasterize: one exact distance test per cell."""
    x0, y0, x1, y1 = scene.bounds
    nx = max(1, int(math.ceil((x1 - x0) / resolution - 1e-9)))
    ny = max(1, int(math.ceil((y1 - y0) / resolution - 1e-9)))
    occupied = np.zeros((nx, ny), dtype=bool)
    grid = OccupancyGrid(resolution, np.array([x0, y0]), occupied)
    half_diag = resolution * math.sqrt(0.5)
    for obj in scene.objects:
        if obj.id in exclude:
            continue
        pose = poses[obj.id] if poses and obj.id in poses else obj.initial_pose
        poly = footprint(obj, pose)
        verts = [(float(x), float(y)) for x, y in poly]
        xs, ys = _window(grid, poly, agent_radius)
        for ix in xs:
            cx = x0 + (ix + 0.5) * resolution
            for iy in ys:
                if occupied[ix, iy]:
                    continue
                # coarse center test decides all but the boundary band
                center_d = point_to_convex_distance(
                    (cx, y0 + (iy + 0.5) * resolution), verts)
                if center_d > agent_radius + half_diag + 1e-12:
                    continue
                if center_d <= agent_radius - half_diag:
                    occupied[ix, iy] = True
                    continue
                if convex_distance(grid.cell_rect((ix, iy)), verts) <= agent_radius + 1e-12:
                    occupied[ix, iy] = True
    return grid


def cells_near_footprint_oracle(grid, poly, distance):
    """Scalar reference for planner._cells_near_footprint."""
    verts = [(float(x), float(y)) for x, y in poly]
    xs, ys = _window(grid, poly, distance)
    return {(ix, iy) for ix in xs for iy in ys
            if not grid.occupied[ix, iy]
            and point_to_convex_distance(grid.center_of((ix, iy)), verts) <= distance}


# (dx, dy, diagonal); pops follow the (f, h, x, y) heap key, not this order
_MOVES = ((1, 0, False), (-1, 0, False), (0, 1, False), (0, -1, False),
          (1, 1, True), (1, -1, True), (-1, 1, True), (-1, -1, True))


def astar_cells_oracle(grid, start, goals):
    """Dict-and-tuple reference for planner.astar_cells, heap key (f, h, x, y)."""
    goal_set = {tuple(g) for g in goals}
    gx_min = min(g[0] for g in goal_set)
    gx_max = max(g[0] for g in goal_set)
    gy_min = min(g[1] for g in goal_set)
    gy_max = max(g[1] for g in goal_set)

    def h(x, y):
        dx = max(0, gx_min - x, x - gx_max)
        dy = max(0, gy_min - y, y - gy_max)
        return max(dx, dy) + (SQRT2 - 1.0) * min(dx, dy)

    start = tuple(start)
    g_cost = {start: 0.0}
    counts = {start: (0, 0)}
    parent = {}
    h0 = h(*start)
    heap = [(h0, h0, start[0], start[1])]
    closed = set()
    nx, ny = grid.shape
    occ = grid.occupied
    while heap:
        f, hc, x, y = heapq.heappop(heap)
        cell = (x, y)
        if cell in closed:
            continue
        closed.add(cell)
        if cell in goal_set:
            cells = [cell]
            while cells[-1] != start:
                cells.append(parent[cells[-1]])
            cells.reverse()
            return PathResult(cells, counts[cell][0], counts[cell][1])
        g_here = g_cost[cell]
        s_here, d_here = counts[cell]
        for dx, dy, diagonal in _MOVES:
            px, py = x + dx, y + dy
            if not (0 <= px < nx and 0 <= py < ny) or occ[px, py]:
                continue
            # no corner cutting: both orthogonal neighbors must be free
            if diagonal and (occ[px, y] or occ[x, py]):
                continue
            nxt = (px, py)
            cand = g_here + (SQRT2 if diagonal else 1.0)
            old = g_cost.get(nxt)
            if old is None or cand < old - 1e-12:
                g_cost[nxt] = cand
                counts[nxt] = (s_here, d_here + 1) if diagonal else (s_here + 1, d_here)
                parent[nxt] = cell
                hn = h(px, py)
                heapq.heappush(heap, (cand + hn, hn, px, py))
    raise NoPath(f"no route from {start} to the goal set")


def box(oid, hx, hy, hz, static=False, pos=(0.0, 0.0, 0.0), quat=(1.0, 0.0, 0.0, 0.0),
        canonical=(1.0, 0.0, 0.0)):
    return ObjectSpec(oid, np.array([hx, hy, hz]), np.array(canonical, dtype=float), static,
                      Pose(np.array(pos, dtype=float), np.array(quat, dtype=float)))


def workspace_scene():
    """Door (static) plus a movable table, monitor, and chair."""
    return Scene(
        objects=[
            box("door", 0.5, 0.05, 1.0, static=True, pos=(0.0, -4.5, 1.0), canonical=(0, 1, 0)),
            box("table", 0.8, 0.5, 0.375, pos=(3.0, 3.0, 0.375), canonical=(0, 1, 0)),
            box("monitor", 0.3, 0.05, 0.25, pos=(-3.0, 3.0, 0.25), canonical=(0, 1, 0)),
            box("chair", 0.25, 0.25, 0.45, pos=(-3.0, -3.0, 0.45), canonical=(0, 1, 0)),
        ],
        bounds=np.array([-5.0, -5.0, 5.0, 5.0]),
        north=np.array([0.0, 1.0]),
    )


def workspace_relations():
    return [
        Adjacent("table", "door", "north", 1.5),
        On("monitor", "table"),
        Adjacent("chair", "table", "south", 1.0),
        Facing("monitor", "chair"),
        Facing("chair", "monitor"),
    ]


def assert_layout_invariants(scene, relations, scene_map, tol=1e-6):
    """Check the solved map against every relation's geometric contract."""
    def pose_of(oid):
        if scene_map.has(oid):
            return scene_map.pose(oid)
        return scene.object(oid).initial_pose

    assert sorted(e.object_id for e in scene_map.entries) == scene.movable_ids
    for entry in scene_map.entries:
        x, y = entry.position[:2]
        assert scene.bounds[0] - tol <= x <= scene.bounds[2] + tol, entry.object_id
        assert scene.bounds[1] - tol <= y <= scene.bounds[3] + tol, entry.object_id

    adjacency_parents = {}
    for r in relations:
        if isinstance(r, Adjacent):
            adjacency_parents.setdefault(r.obj1, []).append(r)

    for r in relations:
        a, b = pose_of(r.obj1), pose_of(r.obj2)
        if isinstance(r, On):
            gap = abs(bottom_height(scene.object(r.obj1), a)
                      - top_surface_height(scene.object(r.obj2), b))
            assert gap <= tol, f"on({r.obj1}, {r.obj2}): height gap {gap}"
            assert polygon_contains(footprint(scene.object(r.obj2), b),
                                    footprint(scene.object(r.obj1), a), tol=tol), \
                f"on({r.obj1}, {r.obj2}): footprint escapes support"
        elif isinstance(r, Adjacent):
            # only binding when the adjacency is the object's sole positional input
            graph_preds = [x for x in relations
                           if not isinstance(x, Facing) and x.obj1 == r.obj1]
            if len(graph_preds) == 1:
                expected = b.position[:2] + r.distance * compass_vector(r.direction, scene.north)
                err = float(np.linalg.norm(a.position[:2] - expected))
                assert err <= tol, f"adjacent({r.obj1}, {r.obj2}): XY error {err}"
        elif isinstance(r, Facing):
            if scene.object(r.obj1).is_static:
                continue
            to_target = b.position[:2] - a.position[:2]
            to_target = to_target / np.linalg.norm(to_target)
            world = quat_rotate(a.orientation, scene.object(r.obj1).canonical_dir)[:2]
            world = world / np.linalg.norm(world)
            assert float(world @ to_target) >= 1.0 - tol, \
                f"facing({r.obj1}, {r.obj2}): misaligned"


def make_random_scene(rng):
    """Random solvable scene: 3-10 objects with an acyclic, conflict-free relation set.

    Adjacency offsets are deterministic, so the generator can track each
    relation's implied final footprint and only emit relations whose exact
    solution is collision-free; the solver is then expected to score a clean
    accuracy report on every scene.
    """
    n_static = int(rng.integers(1, 3))
    n_support = int(rng.integers(1, 3))
    n_small = int(rng.integers(1, 5))
    n_plain = int(rng.integers(0, 3))

    objects = []
    relations = []
    final_boxes = []  # (center_xy, half_x, half_y) at solved positions

    def is_clear(center, hx, hy, margin=0.1):
        if abs(center[0]) + hx > 9.0 or abs(center[1]) + hy > 9.0:
            return False
        for c, ox, oy in final_boxes:
            if abs(center[0] - c[0]) < hx + ox + margin \
                    and abs(center[1] - c[1]) < hy + oy + margin:
                return False
        return True

    def claim(center, hx, hy):
        final_boxes.append((np.asarray(center, dtype=float), float(hx), float(hy)))

    def far_corner():
        # parking spot for initial poses of objects that will be moved anyway
        return rng.uniform(-9.0, 9.0, size=2)

    statics = []
    for i in range(n_static):
        hx, hy = rng.uniform(0.3, 0.6, size=2)
        hz = rng.uniform(0.3, 1.0)
        for _ in range(200):
            p = rng.uniform(-5.0, 5.0, size=2)
            if is_clear(p, hx, hy, margin=0.5):
                break
        claim(p, hx, hy)
        oid = f"static{i}"
        statics.append((oid, np.array(p)))
        objects.append(box(oid, hx, hy, hz, static=True, pos=(p[0], p[1], hz)))

    def adjacent_to(oid, hx, hy, anchors, d_lo, d_hi):
        """Emit an adjacency whose implied position is collision-free."""
        directions = ["north", "south", "east", "west", "northeast", "northwest",
                      "southeast", "southwest"]
        for _ in range(300):
            anchor_id, anchor_xy = anchors[int(rng.integers(0, len(anchors)))]
            direction = directions[int(rng.integers(0, len(directions)))]
            distance = float(np.round(rng.uniform(d_lo, d_hi), 3))
            implied = anchor_xy + distance * compass_vector(direction, np.array([0.0, 1.0]))
            circum = float(np.hypot(hx, hy))
            if is_clear(implied, circum, circum, margin=0.15):
                claim(implied, circum, circum)
                relations.append(Adjacent(oid, anchor_id, direction, distance))
                return implied
        raise AssertionError("generator could not place a collision-free adjacency")

    supports = []
    for i in range(n_support):
        hx, hy = rng.uniform(0.8, 1.2, size=2)
        hz = rng.uniform(0.2, 0.5)
        oid = f"support{i}"
        p0 = far_corner()
        objects.append(box(oid, hx, hy, hz, pos=(p0[0], p0[1], hz)))
        implied = adjacent_to(oid, hx, hy, statics, 2.2, 3.5)
        supports.append((oid, implied))

    for i in range(n_small):
        h = rng.uniform(0.05, 0.15, size=3)
        oid = f"item{i}"
        p0 = far_corner()
        objects.append(box(oid, h[0], h[1], h[2], pos=(p0[0], p0[1], h[2])))
        support_id, _ = supports[int(rng.integers(0, len(supports)))]
        relations.append(On(oid, support_id))
        if rng.uniform() < 0.5:
            target = f"static{rng.integers(0, n_static)}"
            relations.append(Facing(oid, target))

    for i in range(n_plain):
        h = rng.uniform(0.1, 0.3, size=3)
        oid = f"loose{i}"
        p0 = far_corner()
        objects.append(box(oid, h[0], h[1], h[2], pos=(p0[0], p0[1], h[2])))
        anchors = statics + supports
        adjacent_to(oid, h[0], h[1], anchors, 2.0, 3.2)

    scene = Scene(objects, bounds=np.array([-10.0, -10.0, 10.0, 10.0]))
    order = rng.permutation(len(relations))
    return scene, [relations[i] for i in order]
