"""Shared fixture builders and serializers, the layout invariant checker, and the
scalar oracles of the batched planner, rotation, scoring and IK kernels."""

import heapq
import math
from dataclasses import dataclass

import numpy as np

from hoiplan.geometry import (DegenerateRotation, Pose, compose, quat_conjugate, quat_normalize,
                              quat_rotate, quat_to_matrix)
from hoiplan.motion import (EmptyContact, GraspPose, IkChain, IkResult, object_contact_span,
                            pose_delta, segment_phases)
from hoiplan.layout import UnknownObject
from hoiplan.planner import (APPROACH_DISTANCE, DEFAULT_AGENT_RADIUS, DEFAULT_RESOLUTION,
                             ExecutionPlan, GoalOccupied, NoPath, OccupancyGrid, PathResult,
                             PlanStep, StartOccupied, _window, astar_cells, rasterize)
from hoiplan.polygons import convex_distance, point_to_convex_distance, polygon_contains
from hoiplan.relations import Adjacent, Facing, On, compass_vector
from hoiplan.reward import (BODY_ERROR_SCALE, ENERGY_SCALE, BodyWeights,
                            finite_difference_accels, tracking_error)
from hoiplan.scene import (MotionSequence, ObjectSpec, Scene, bottom_height, footprint,
                           top_surface_height)

SQRT2 = math.sqrt(2.0)


def random_quat(rng: np.random.Generator) -> np.ndarray:
    return quat_normalize(rng.normal(size=4))


def pose_matrix(pose: Pose) -> np.ndarray:
    """Homogeneous 4x4 matrix of a pose."""
    m = np.eye(4)
    m[:3, :3] = quat_to_matrix(pose.orientation)
    m[:3, 3] = pose.position
    return m


def polygon_area(poly) -> float:
    poly = np.asarray(poly, dtype=float)
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


def stack_poses(poses) -> tuple[np.ndarray, np.ndarray]:
    """A pose list as a (positions (T, 3), quaternions (T, 4)) trajectory."""
    return (np.array([p.position for p in poses]).reshape(-1, 3),
            np.array([p.orientation for p in poses]).reshape(-1, 4))


def average_pose(poses) -> Pose:
    """Mean pose: arithmetic position mean, sign-aligned normalized quaternion mean."""
    poses = list(poses)
    if not poses:
        raise EmptyContact("cannot average zero poses")
    pos = np.mean([p.position for p in poses], axis=0)
    ref = poses[0].orientation
    acc = np.zeros(4)
    for p in poses:
        q = p.orientation
        acc += q if float(q @ ref) >= 0 else -q
    return Pose(pos, quat_normalize(acc))


def grasp_world_pose(object_pose: Pose, grasp: GraspPose) -> Pose:
    """Wrist world pose implied by the grasp rigidly attached to the object."""
    return compose(object_pose, grasp.wrist_pose)


def grasps_to_json(grasps: dict[str, GraspPose | None]) -> dict:
    out = {}
    for hand in ("left", "right"):
        g = grasps.get(hand)
        if g is None:
            out[hand] = None
            continue
        entry = {"pos": [float(v) for v in g.wrist_pose.position],
                 "quat": [float(v) for v in g.wrist_pose.orientation]}
        if g.finger_pose is not None:
            entry["fingers"] = [float(v) for v in g.finger_pose]
        out[hand] = entry
    return out


def weights_to_json(weights: BodyWeights) -> dict:
    return {"w_q": {k: float(v) for k, v in sorted(weights.w_q.items())},
            "w_p": {k: float(v) for k, v in sorted(weights.w_p.items())}}


def render_response(relations_text: str, plan_text: str) -> str:
    """Canonical response text; extract_sections on it is the identity."""
    return (f"```relations\n{relations_text.strip()}\n```\n\n"
            f"```plan\n{plan_text.strip()}\n```\n")


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


def plan_routes_oracle(scene, scene_map, steps, agent_radius=DEFAULT_AGENT_RADIUS,
                       resolution=DEFAULT_RESOLUTION, agent_start=None,
                       approach_distance=APPROACH_DISTANCE):
    """Reference for planner.plan_routes: rasterizes the whole scene on every step
    and takes its goal sets from the scalar cells_near_footprint_oracle."""
    poses = {o.id: o.initial_pose for o in scene.objects}
    if agent_start is None:
        agent_start = np.array([(scene.bounds[0] + scene.bounds[2]) / 2.0,
                                (scene.bounds[1] + scene.bounds[3]) / 2.0])
    agent = np.asarray(agent_start, dtype=float).reshape(2)

    plan_steps = []
    for step in steps:
        if not scene_map.has(step.object_id):
            raise UnknownObject(f"no scene-map target for {step.object_id!r}",
                                id=step.object_id)
        obj = scene.object(step.object_id)
        grid = rasterize(scene, exclude={step.object_id}, resolution=resolution,
                         agent_radius=agent_radius, poses=poses)
        start = grid.cell_of(agent)
        if not grid.is_free(start):
            raise StartOccupied(f"agent position {tuple(map(float, agent))} is occupied")

        route = []
        goals = cells_near_footprint_oracle(grid, footprint(obj, poses[step.object_id]),
                                            approach_distance)
        if not goals:
            raise GoalOccupied(f"no free cell within {approach_distance} m of "
                               f"{step.object_id!r}")
        if start not in goals:
            leg = astar_cells(grid, start, goals)
            route.extend(grid.center_of(c) for c in leg.cells)
            start = leg.cells[-1]

        target_pose = scene_map.pose(step.object_id)
        goals = cells_near_footprint_oracle(grid, footprint(obj, target_pose),
                                            approach_distance)
        if not goals:
            raise GoalOccupied(f"no free cell within {approach_distance} m of "
                               f"{step.object_id!r}'s target")
        if start not in goals:
            leg = astar_cells(grid, start, goals)
            cells = leg.cells[1:] if route else leg.cells
            route.extend(grid.center_of(c) for c in cells)
            start = leg.cells[-1]

        if route:
            agent = np.array(route[-1])
        poses[step.object_id] = target_pose
        plan_steps.append(PlanStep(step.object_id, step.text, route))
    return ExecutionPlan(plan_steps)


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


# ---------------------------------------------------------------------------
# scalar oracles for the batched rotation, scoring and IK kernels: the
# per-vector, per-frame and per-chain code those kernels replaced

def same_bits(a, b) -> bool:
    """Equal shape and equal bits (so -0.0 differs from 0.0 and NaN equals NaN)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def quat_normalize_oracle(q):
    q = np.asarray(q, dtype=float)
    n = float(np.linalg.norm(q))
    if n < 1e-12:
        raise DegenerateRotation("quaternion norm is zero")
    if abs(n - 1.0) < 1e-9:
        return q
    return q / n


def _q_multiply(a, b):
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return np.array([
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    ])


def _q_conjugate(q):
    return np.array([q[0], -q[1], -q[2], -q[3]])


def _q_rotate(q, v):
    u = np.asarray(q[1:], dtype=float)
    t = 2.0 * np.cross(u, v)
    return v + float(q[0]) * t + np.cross(u, t)


def _q_from_axis_angle(a):
    angle = float(np.linalg.norm(a))
    if angle < 1e-12:
        return quat_normalize_oracle(np.array([1.0, 0.5 * a[0], 0.5 * a[1], 0.5 * a[2]]))
    axis = a / angle
    half = 0.5 * angle
    s = math.sin(half)
    return np.array([math.cos(half), s * axis[0], s * axis[1], s * axis[2]])


def geodesic_angle_oracle(a, b) -> float:
    rel = _q_multiply(_q_conjugate(a), b)
    return 2.0 * math.atan2(float(np.linalg.norm(rel[1:])), abs(float(rel[0])))


def rot6d_decode_oracle(r6):
    r6 = np.asarray(r6, dtype=float).reshape(6)
    a, b = r6[:3], r6[3:]
    na = float(np.linalg.norm(a))
    if na <= 1e-8:
        raise DegenerateRotation("first 6D column is near zero")
    x = a / na
    b_perp = b - np.dot(x, b) * x
    nb = float(np.linalg.norm(b_perp))
    if nb <= 1e-8:
        raise DegenerateRotation("6D columns are parallel")
    y = b_perp / nb
    return np.stack([x, y, np.cross(x, y)], axis=1)


def matrix_to_quat_oracle(m):
    m = np.asarray(m, dtype=float)
    t = m[0, 0] + m[1, 1] + m[2, 2]
    if t > 0:
        s = math.sqrt(t + 1.0) * 2.0
        q = np.array([0.25 * s, (m[2, 1] - m[1, 2]) / s, (m[0, 2] - m[2, 0]) / s,
                      (m[1, 0] - m[0, 1]) / s])
    elif m[0, 0] > m[1, 1] and m[0, 0] > m[2, 2]:
        s = math.sqrt(1.0 + m[0, 0] - m[1, 1] - m[2, 2]) * 2.0
        q = np.array([(m[2, 1] - m[1, 2]) / s, 0.25 * s, (m[0, 1] + m[1, 0]) / s,
                      (m[0, 2] + m[2, 0]) / s])
    elif m[1, 1] > m[2, 2]:
        s = math.sqrt(1.0 + m[1, 1] - m[0, 0] - m[2, 2]) * 2.0
        q = np.array([(m[0, 2] - m[2, 0]) / s, (m[0, 1] + m[1, 0]) / s, 0.25 * s,
                      (m[1, 2] + m[2, 1]) / s])
    else:
        s = math.sqrt(1.0 + m[2, 2] - m[0, 0] - m[1, 1]) * 2.0
        q = np.array([(m[1, 0] - m[0, 1]) / s, (m[0, 2] + m[2, 0]) / s,
                      (m[1, 2] + m[2, 1]) / s, 0.25 * s])
    return quat_canonical_oracle(quat_normalize_oracle(q))


def quat_canonical_oracle(q):
    q = np.asarray(q, dtype=float)
    for c in q:
        if abs(c) > 1e-12:
            return q if c > 0 else -q
    return q


def body_reward_oracle(sim_frame, ref_frame, weights, active_object=None) -> float:
    """Frames map link names to anything with .position and .orientation."""
    w_q = dict(weights.w_q)
    w_p = dict(weights.w_p)
    if active_object is not None:
        w_q[active_object] = w_p[active_object] = 1.0
    links = sorted(sim_frame)
    sq = sum(w_q.get(b, 0.0) for b in links)
    sp = sum(w_p.get(b, 0.0) for b in links)
    sum_q = 0.0
    sum_p = 0.0
    for b in links:
        e_q = geodesic_angle_oracle(sim_frame[b].orientation, ref_frame[b].orientation)
        e_p = float(np.linalg.norm(sim_frame[b].position - ref_frame[b].position))
        sum_q += w_q.get(b, 0.0) / sq * e_q * e_q
        sum_p += w_p.get(b, 0.0) / sp * e_p * e_p
    return 0.5 * math.exp(-BODY_ERROR_SCALE * sum_q) + 0.5 * math.exp(-BODY_ERROR_SCALE * sum_p)


def _energy_oracle(accels) -> float:
    a = np.asarray(accels, dtype=float).reshape(-1, 3)
    return math.exp(-ENERGY_SCALE * float((a * a).sum()))


@dataclass
class _Link:
    position: np.ndarray
    orientation: np.ndarray


def score_motion_oracle(ref, sim, weights, joint_names=None) -> dict:
    """Per-frame scorer: one Pose dict and one body reward per frame."""
    t = ref.num_frames
    if joint_names is None:
        names = [f"joint{j}" for j in range(ref.num_joints)]
        weights = BodyWeights({n: 1.0 for n in names}, {n: 1.0 for n in names})
    else:
        names = joint_names
    effectors = [j for j, n in enumerate(names)
                 if n in ("left_wrist", "right_wrist", "left_foot", "right_foot")]
    accels = finite_difference_accels(sim.joints[:, effectors, :], sim.fps)

    def frame(m, i):
        out = {n: _Link(m.joints[i, j], matrix_to_quat_oracle(rot6d_decode_oracle(
            m.joint_rot6d[i, j]))) for j, n in enumerate(names)}
        out["object"] = _Link(m.object_pos[i], quat_normalize_oracle(m.object_quat[i]))
        return out

    body_sum = 0.0
    energy_sum = 0.0
    for i in range(t):
        body_sum += body_reward_oracle(frame(sim, i), frame(ref, i), weights, "object")
        energy_sum += _energy_oracle(accels[i - 1]) if effectors and 1 <= i <= t - 2 else 1.0
    r_body = body_sum / t
    r_energy = energy_sum / t
    err = tracking_error(sim, ref)
    return {"frames": t, "tracking_error": {"e_h_cm": err.e_h_cm, "e_o_cm": err.e_o_cm},
            "reward": {"r_body": r_body, "r_hand": 1.0, "r_energy": r_energy,
                       "total": 0.8 * r_body + 0.2 * 1.0 + 0.05 * r_energy}}


def fk_oracle(chain, rotations):
    pts = [chain.base]
    frames = []
    frame = np.array([1.0, 0.0, 0.0, 0.0])
    for length, q in zip(chain.lengths, rotations):
        frames.append(frame)
        frame = _q_multiply(frame, q)
        pts.append(pts[-1] + _q_rotate(frame, np.array([length, 0.0, 0.0])))
    return np.array(pts), frames


def _align_quat_oracle(v_from, v_to):
    a = v_from / np.linalg.norm(v_from)
    b = v_to / np.linalg.norm(v_to)
    c = np.cross(a, b)
    d = float(a @ b)
    n = float(np.linalg.norm(c))
    if n < 1e-12:
        if d > 0:
            return np.array([1.0, 0.0, 0.0, 0.0])
        perp = np.cross(a, [1.0, 0.0, 0.0])
        if np.linalg.norm(perp) < 1e-9:
            perp = np.cross(a, [0.0, 1.0, 0.0])
        perp /= np.linalg.norm(perp)
        return np.array([0.0, perp[0], perp[1], perp[2]])
    return _q_from_axis_angle(c / n * math.atan2(n, d))


def ik_solve_oracle(chain, target, initial_rotations=None, max_iters=100, tol=1e-5):
    """One chain, one joint at a time: CCD as ik_solve ran before it was batched."""
    target = np.asarray(target, dtype=float).reshape(3)
    n = len(chain.lengths)
    rotations = [quat_normalize_oracle(q) for q in initial_rotations] \
        if initial_rotations is not None else [np.array([1.0, 0.0, 0.0, 0.0])] * n
    pts, frames = fk_oracle(chain, rotations)
    residual = float(np.linalg.norm(pts[-1] - target))
    history = [residual]
    iterations = 0
    while residual > tol and iterations < max_iters:
        for i in range(n - 1, -1, -1):
            v1 = pts[-1] - pts[i]
            v2 = target - pts[i]
            if np.linalg.norm(v1) < 1e-12 or np.linalg.norm(v2) < 1e-12:
                continue
            g = _align_quat_oracle(v1, v2)
            local = _q_multiply(_q_multiply(_q_conjugate(frames[i]), g), frames[i])
            rotations[i] = quat_normalize_oracle(_q_multiply(local, rotations[i]))
            pts, frames = fk_oracle(chain, rotations)
        residual = float(np.linalg.norm(pts[-1] - target))
        history.append(residual)
        iterations += 1
    return IkResult(rotations, pts, residual, iterations, residual <= tol, history)


def quat_to_matrix_oracle(q):
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def _rot6d_encode_oracle(q):
    m = quat_to_matrix_oracle(q)
    return np.concatenate([m[:, 0], m[:, 1]])


def _pose_jump_oracle(traj) -> float:
    worst = 0.0
    for a, b in zip(traj, traj[1:]):
        worst = max(worst, float(np.linalg.norm(b.position - a.position))
                    + geodesic_angle_oracle(a.orientation, b.orientation))
    return worst


def _smooth_boundary_oracle(traj, boundary, window, static_pose, direction):
    delta = pose_delta(static_pose, traj[boundary])
    out = list(traj)
    if float(np.abs(delta).max()) < 1e-12:
        return out
    for k in range(window):
        i = boundary + k if direction == "forward" else boundary - k
        if not 0 <= i < len(traj):
            break
        alpha = 1.0 - k / window
        out[i] = Pose(traj[i].position + alpha * delta[:3],
                      _q_multiply(_q_from_axis_angle(alpha * delta[3:]), traj[i].orientation))
    return out


def points_in_wrist_frame_oracle(object_traj, wrist_traj, rest_points) -> np.ndarray:
    """points_in_wrist_frame one frame at a time, on pose lists."""
    rest_points = np.asarray(rest_points, dtype=float)
    out = np.empty((len(object_traj), rest_points.shape[0], 3))
    for t, (obj, wrist) in enumerate(zip(object_traj, wrist_traj)):
        k_global = quat_rotate(obj.orientation, rest_points) + obj.position
        out[t] = quat_rotate(quat_conjugate(wrist.orientation), k_global - wrist.position)
    return out


def postprocess_oracle(motion, grasps, threshold, min_run, window, wrist_joints, arm_chains,
                       static_pre=None, static_post=None):
    """postprocess_motion frame by frame: one wrist pose, one encode and one CCD chain
    per frame. Contact segmentation and pose_delta are shared with hoiplan.motion."""
    t = motion.num_frames
    seg = segment_phases(motion.contact, threshold, min_run)
    span = object_contact_span(seg)
    before = [Pose(motion.object_pos[i], motion.object_quat[i]) for i in range(t)]
    pre = static_pre if static_pre is not None else before[0]
    post = static_post if static_post is not None else before[-1]
    traj = [pre] * t
    if span is not None:
        s, e = span
        traj = [pre] * s + before[s:e] + [post] * (t - e)
        win = max(1, min(window, e - s))
        if s > 0:
            traj = _smooth_boundary_oracle(traj, s, win, pre, "forward")
        if e < t:
            traj = _smooth_boundary_oracle(traj, e - 1, win, post, "backward")
    joints = motion.joints.copy()
    rot6d = motion.joint_rot6d.copy()
    diagnostics = {
        "segmentation": {hand: {"pre": list(seg.hand(hand).pre),
                                "contact": list(seg.hand(hand).contact),
                                "post": list(seg.hand(hand).post)} for hand in ("left", "right")},
        "object_jump_before": _pose_jump_oracle(before),
        "object_jump_after": _pose_jump_oracle(traj),
        "wrists": {},
    }
    for hand in ("left", "right"):
        grasp = grasps.get(hand)
        phases = seg.hand(hand)
        if grasp is None or not phases.has_contact or hand not in wrist_joints:
            continue
        w = wrist_joints[hand]
        g = grasp.wrist_pose
        old = [Pose(motion.joints[i, w],
                    matrix_to_quat_oracle(rot6d_decode_oracle(motion.joint_rot6d[i, w])))
               for i in range(t)]
        cs, ce = phases.contact
        new = list(old)
        for i in range(cs, ce):
            new[i] = Pose(_q_rotate(traj[i].orientation, g.position) + traj[i].position,
                          _q_multiply(traj[i].orientation, g.orientation))
        if cs > 0:
            new[:cs] = _smooth_boundary_oracle(old, cs, window, new[cs], "backward")[:cs]
        if ce < t:
            new[ce:] = _smooth_boundary_oracle(old, ce - 1, window, new[ce - 1], "forward")[ce:]
        residuals = []
        for i in range(t):
            joints[i, w] = new[i].position
            rot6d[i, w] = _rot6d_encode_oracle(new[i].orientation)
        if hand in arm_chains:
            shoulder, elbow, wrist = arm_chains[hand]
            for i in range(t):
                if np.allclose(new[i].position, old[i].position, atol=1e-12):
                    continue
                l1 = float(np.linalg.norm(motion.joints[i, elbow] - motion.joints[i, shoulder]))
                l2 = float(np.linalg.norm(motion.joints[i, wrist] - motion.joints[i, elbow]))
                if l1 <= 1e-9 or l2 <= 1e-9:
                    continue
                result = ik_solve_oracle(IkChain([l1, l2], base=motion.joints[i, shoulder]),
                                         new[i].position, max_iters=30, tol=1e-6)
                joints[i, elbow] = result.joint_positions[1]
                residuals.append(result.residual)
        deviation = 0.0
        for i in range(cs, ce):
            inv = _q_conjugate(traj[i].orientation)
            rel = Pose(_q_rotate(inv, new[i].position - traj[i].position),
                       _q_multiply(inv, new[i].orientation))
            deviation = max(deviation, float(np.linalg.norm(rel.position - g.position))
                            + geodesic_angle_oracle(rel.orientation, g.orientation))
        diagnostics["wrists"][hand] = {"grasp_deviation": deviation,
                                       "ik_residual_max": max(residuals) if residuals else 0.0}
    out = MotionSequence(motion.fps, joints, rot6d, np.array([p.position for p in traj]),
                         np.array([p.orientation for p in traj]), motion.contact.copy())
    return out, diagnostics
