"""Step ordering, occupancy-grid rasterization, and A* waypoint routing.

The A* search is 8-connected only, with sqrt(2) diagonal cost; diagonal moves
may not cut corners past occupied cells. Its heuristic is the octile distance
to the bounding box of the goal set, which is admissible and consistent and
equals the exact octile distance for a single goal. Ties break on lower
heuristic first, then lexicographic (x, y), which makes every path
byte-reproducible. Path costs are tracked as (straight, diagonal) move counts
so optimality checks can compare costs exactly.
"""

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import HoiplanError
from .geometry import Pose
from .layout import CycleDetected, SceneMap, UnknownObject
from .polygons import convex_distance, point_to_convex_distance
from .relations import ActionStep, On, SpatialRelation
from .scene import Scene, SchemaError, dump_json, footprint, loads, read_text, write_text

SQRT2 = math.sqrt(2.0)

DEFAULT_RESOLUTION = 0.05
DEFAULT_AGENT_RADIUS = 0.3
APPROACH_DISTANCE = 1.0  # how close the agent must get before interacting
DEFAULT_STRIDE = 1.0     # meters between emitted waypoints (walking speed x 1 s)


class StartOccupied(HoiplanError):
    code = "planner.start_occupied"


class GoalOccupied(HoiplanError):
    code = "planner.goal_occupied"


class NoPath(HoiplanError):
    code = "planner.no_path"


class MissingStep(HoiplanError):
    code = "planner.missing_step"


class DuplicateStep(HoiplanError):
    code = "planner.duplicate_step"


class UnknownStep(HoiplanError):
    code = "planner.unknown_step"


# ---------------------------------------------------------------------------
# occupancy grid

@dataclass
class OccupancyGrid:
    resolution: float
    origin: np.ndarray          # world position of cell (0, 0)'s lower corner
    occupied: np.ndarray        # bool, indexed [ix, iy]

    def __post_init__(self):
        if self.resolution <= 0:
            raise ValueError("resolution must be positive")
        self.origin = np.asarray(self.origin, dtype=float).reshape(2)
        self.occupied = np.asarray(self.occupied, dtype=bool)

    @property
    def shape(self) -> tuple[int, int]:
        return self.occupied.shape

    def cell_of(self, xy) -> tuple[int, int]:
        xy = np.asarray(xy, dtype=float)
        ix = int(math.floor((xy[0] - self.origin[0]) / self.resolution))
        iy = int(math.floor((xy[1] - self.origin[1]) / self.resolution))
        return ix, iy

    def center_of(self, cell) -> tuple[float, float]:
        ix, iy = cell
        return (self.origin[0] + (ix + 0.5) * self.resolution,
                self.origin[1] + (iy + 0.5) * self.resolution)

    def in_bounds(self, cell) -> bool:
        ix, iy = cell
        return 0 <= ix < self.shape[0] and 0 <= iy < self.shape[1]

    def is_free(self, cell) -> bool:
        return self.in_bounds(cell) and not self.occupied[cell]

    def cell_rect(self, cell) -> np.ndarray:
        x0 = self.origin[0] + cell[0] * self.resolution
        y0 = self.origin[1] + cell[1] * self.resolution
        r = self.resolution
        return np.array([(x0, y0), (x0 + r, y0), (x0 + r, y0 + r), (x0, y0 + r)])


def _window(grid: OccupancyGrid, poly: np.ndarray, margin: float) -> tuple[range, range]:
    """Cell index ranges covering the polygon's bounding box grown by ``margin``."""
    lo = grid.cell_of(poly.min(axis=0) - margin)
    hi = grid.cell_of(poly.max(axis=0) + margin)
    nx, ny = grid.shape
    return (range(max(0, lo[0]), min(nx - 1, hi[0]) + 1),
            range(max(0, lo[1]), min(ny - 1, hi[1]) + 1))


def rasterize(scene: Scene, exclude=frozenset(), resolution: float = DEFAULT_RESOLUTION,
              agent_radius: float = DEFAULT_AGENT_RADIUS,
              poses: dict[str, Pose] | None = None) -> OccupancyGrid:
    """Mark cells whose rectangle comes within ``agent_radius`` of any footprint.

    ``poses`` overrides object poses (defaults to each object's initial pose),
    so the grid can be rebuilt as objects are relocated mid-plan.
    """
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


# ---------------------------------------------------------------------------
# A* search

@dataclass
class PathResult:
    cells: list[tuple[int, int]]
    straight: int
    diagonal: int

    @property
    def cost(self) -> float:
        return self.straight + self.diagonal * SQRT2


# (dx, dy, diagonal); pops follow the (f, h, x, y) heap key, not this order
_MOVES = ((1, 0, False), (-1, 0, False), (0, 1, False), (0, -1, False),
          (1, 1, True), (1, -1, True), (-1, 1, True), (-1, -1, True))


def astar_cells(grid: OccupancyGrid, start: tuple[int, int], goals) -> PathResult:
    """Shortest path from a cell to the nearest of a set of goal cells.

    Heuristic: octile distance to the goal set's bounding box, which is
    admissible, consistent and O(1) per node. Raises NoPath when the goal set
    is unreachable.
    """
    goal_set = {tuple(g) for g in goals}
    if not grid.is_free(start):
        raise StartOccupied(f"start cell {start} is occupied or out of bounds")
    if not goal_set:
        raise GoalOccupied("goal set is empty")
    gx_min = min(g[0] for g in goal_set)
    gx_max = max(g[0] for g in goal_set)
    gy_min = min(g[1] for g in goal_set)
    gy_max = max(g[1] for g in goal_set)

    def h(x, y):
        dx = max(0, gx_min - x, x - gx_max)
        dy = max(0, gy_min - y, y - gy_max)
        return max(dx, dy) + (SQRT2 - 1.0) * min(dx, dy)

    start = tuple(start)
    g_cost: dict[tuple[int, int], float] = {start: 0.0}
    counts = {start: (0, 0)}
    parent: dict[tuple[int, int], tuple[int, int]] = {}
    h0 = h(*start)
    heap = [(h0, h0, start[0], start[1])]
    closed = set()
    nx, ny = grid.shape
    occ = grid.occupied
    push = heapq.heappush
    pop = heapq.heappop
    while heap:
        f, hc, x, y = pop(heap)
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
                push(heap, (cand + hn, hn, px, py))
    raise NoPath(f"no route from {start} to the goal set")


def downsample(waypoints, stride: float) -> list[tuple[float, float]]:
    """Thin a waypoint list so consecutive points are at least ``stride`` apart.

    The final point is always kept (replacing the previous one if it landed
    closer than the stride), so routes still terminate at their goal.
    """
    pts = [tuple(float(v) for v in p) for p in waypoints]
    if stride <= 0 or len(pts) <= 1:
        return pts
    out = [pts[0]]
    for p in pts[1:]:
        if math.dist(out[-1], p) >= stride:
            out.append(p)
    last = pts[-1]
    if out[-1] != last:
        if len(out) > 1 and math.dist(out[-2], last) < stride:
            out[-1] = last
        else:
            out.append(last)
    return out


def astar(grid: OccupancyGrid, start_xy, goal_xy) -> list[tuple[float, float]]:
    """Route between world positions; returns cell-center waypoints in meters."""
    start = grid.cell_of(start_xy)
    goal = grid.cell_of(goal_xy)
    if not grid.is_free(start):
        raise StartOccupied(f"start {tuple(map(float, start_xy))} is occupied")
    if not grid.is_free(goal):
        raise GoalOccupied(f"goal {tuple(map(float, goal_xy))} is occupied")
    if start == goal:
        return [grid.center_of(start)]
    result = astar_cells(grid, start, {goal})
    return [grid.center_of(c) for c in result.cells]


# ---------------------------------------------------------------------------
# step ordering

def dependency_order(scene: Scene, relations: list[SpatialRelation],
                     proposed: list[ActionStep],
                     corrections: list | None = None) -> list[ActionStep]:
    """Validate a proposed step order and minimally repair support violations.

    When object a rests on object b, a must be handled first. A compliant
    proposal is returned verbatim; otherwise a stable topological sort keeps
    the proposed relative order wherever the constraints allow.
    """
    if corrections is None:
        corrections = []
    movables = set(scene.movable_ids)
    index = {}
    for i, step in enumerate(proposed):
        if step.object_id in index:
            raise DuplicateStep(f"step for {step.object_id!r} appears twice", id=step.object_id)
        if step.object_id not in movables:
            raise UnknownStep(f"step references unknown or static object {step.object_id!r}",
                              id=step.object_id)
        index[step.object_id] = i
    for oid in sorted(movables - set(index)):
        raise MissingStep(f"no step for movable object {oid!r}", id=oid)

    constraints = [(r.obj1, r.obj2) for r in relations
                   if isinstance(r, On) and r.obj1 in movables and r.obj2 in movables]
    if all(index[a] < index[b] for a, b in constraints):
        return list(proposed)

    successors: dict[str, list[str]] = {oid: [] for oid in index}
    indegree = {oid: 0 for oid in index}
    for a, b in set(constraints):
        successors[a].append(b)
        indegree[b] += 1
    ready = sorted((oid for oid, d in indegree.items() if d == 0), key=index.__getitem__)
    ordered: list[str] = []
    while ready:
        oid = ready.pop(0)
        ordered.append(oid)
        for nxt in successors[oid]:
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                ready.append(nxt)
        ready.sort(key=index.__getitem__)
    if len(ordered) != len(index):
        cyclic = sorted(oid for oid, d in indegree.items() if d > 0)
        raise CycleDetected(cyclic)

    by_id = {s.object_id: s for s in proposed}
    result = [by_id[oid] for oid in ordered]
    for new_i, step in enumerate(result):
        if index[step.object_id] != new_i:
            corrections.append({"object": step.object_id,
                                "from": index[step.object_id], "to": new_i})
    return result


# ---------------------------------------------------------------------------
# route planning

@dataclass
class PlanStep:
    object_id: str
    text: str
    route: list[tuple[float, float]] = field(default_factory=list)


@dataclass
class ExecutionPlan:
    steps: list[PlanStep]


def plan_to_json(plan: ExecutionPlan) -> dict:
    return {"steps": [{"object": s.object_id, "text": s.text,
                       "route": [[float(x), float(y)] for x, y in s.route]}
                      for s in plan.steps]}


def parse_plan_json(text: str) -> ExecutionPlan:
    doc = loads(text)
    if not isinstance(doc, dict) or not isinstance(doc.get("steps"), list):
        raise SchemaError("expected an object with a 'steps' list", "/steps")
    steps = []
    for i, raw in enumerate(doc["steps"]):
        try:
            steps.append(PlanStep(raw["object"], raw["text"],
                                  [(float(x), float(y)) for x, y in raw["route"]]))
        except (KeyError, TypeError, ValueError) as e:
            raise SchemaError(f"bad step: {e}", f"/steps/{i}") from e
    return ExecutionPlan(steps)


def save_plan(plan: ExecutionPlan, path):
    write_text(path, dump_json(plan_to_json(plan)))


def load_plan(path) -> ExecutionPlan:
    return parse_plan_json(read_text(path))


def _cells_near_footprint(grid: OccupancyGrid, poly: np.ndarray,
                          distance: float) -> set[tuple[int, int]]:
    """Free cells whose center lies within ``distance`` of the polygon."""
    verts = [(float(x), float(y)) for x, y in poly]
    xs, ys = _window(grid, poly, distance)
    return {(ix, iy) for ix in xs for iy in ys
            if not grid.occupied[ix, iy]
            and point_to_convex_distance(grid.center_of((ix, iy)), verts) <= distance}


def plan_routes(scene: Scene, scene_map: SceneMap, steps: list[ActionStep],
                agent_radius: float = DEFAULT_AGENT_RADIUS,
                resolution: float = DEFAULT_RESOLUTION,
                agent_start=None,
                approach_distance: float = APPROACH_DISTANCE) -> ExecutionPlan:
    """Route every step: walk to the object, then carry it to its target.

    Objects already relocated stay at their targets for later steps; the
    manipulated object is excluded from its own step's grid. An empty route
    means the agent already stood within the approach distance.
    """
    poses: dict[str, Pose] = {o.id: o.initial_pose for o in scene.objects}
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

        route: list[tuple[float, float]] = []
        current_poly = footprint(obj, poses[step.object_id])
        goals = _cells_near_footprint(grid, current_poly, approach_distance)
        if not goals:
            raise GoalOccupied(f"no free cell within {approach_distance} m of "
                               f"{step.object_id!r}")
        if start not in goals:
            leg = astar_cells(grid, start, goals)
            route.extend(grid.center_of(c) for c in leg.cells)
            start = leg.cells[-1]

        target_pose = scene_map.pose(step.object_id)
        target_poly = footprint(obj, target_pose)
        goals = _cells_near_footprint(grid, target_poly, approach_distance)
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
