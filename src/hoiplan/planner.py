"""Step ordering, occupancy-grid rasterization, and A* waypoint routing.

Rasterization and goal sets measure every cell of an object's bounding window
at once with numpy, in the scalar kernels' operation order. np.hypot may still
round apart from math.hypot in the last bit, so a cell whose distance lies
within _TIE_GUARD of a threshold, or whose rectangle may overlap the
footprint, is decided by the scalar kernels of polygons.py: the grid equals a
per-cell scalar loop bit for bit.

plan_routes keeps one such mask per object pose: a mask is computed when a
step first needs it and again only after its object moves, and each step's
grid is the OR of every mask but the carried object's. OR is order-free, so
that grid equals a fresh rasterize of the step bit for bit.

The A* search is 8-connected only, with sqrt(2) diagonal cost; diagonal moves
may not cut corners past occupied cells. One byte per cell holds which of the
eight moves are legal from it, built with numpy shifts before the search, so
the loop tests neither occupancy nor corners. Its heuristic is the octile
distance to the bounding box of the goal set, which is admissible and
consistent and equals the exact octile distance for a single goal. Ties
break on lower heuristic first, then lexicographic (x, y), which makes every
path byte-reproducible. Path costs are reported as (straight, diagonal) move
counts so optimality checks can compare costs exactly.
"""

import functools
import heapq
import math
from array import array
from dataclasses import dataclass, field

import numpy as np

from .errors import HoiplanError
from .geometry import Pose
from .layout import CycleDetected, SceneMap, UnknownObject
from .polygons import convex_distance, point_to_convex_distance
from .relations import ActionStep, On, SpatialRelation
from .scene import (MAX_COORDINATE, Scene, dump_json, footprint, loads, read_field, read_floats,
                    read_name, read_text, require, write_text)

SQRT2 = math.sqrt(2.0)

DEFAULT_RESOLUTION = 0.05
DEFAULT_AGENT_RADIUS = 0.3
APPROACH_DISTANCE = 1.0  # how close the agent must get before interacting
DEFAULT_STRIDE = 1.0     # meters between emitted waypoints (walking speed x 1 s)
MAX_GRID_CELLS = 1 << 24  # 4096 x 4096 cells: a 205 m square at the default resolution

# A vectorized distance this close to a threshold is recomputed by the scalar
# kernel: np.hypot and math.hypot may differ in the last bit.
_TIE_GUARD = 1e-9


class StartOccupied(HoiplanError):
    code = "planner.start_occupied"


class GoalOccupied(HoiplanError):
    code = "planner.goal_occupied"


class NoPath(HoiplanError):
    code = "planner.no_path"


class GridTooLarge(HoiplanError):
    code = "planner.grid_too_large"


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


def _segment_distance(ax, ay, bx, by, px, py) -> np.ndarray:
    """``polygons._seg_point`` over broadcast arrays, in the same operation order."""
    abx, aby = bx - ax, by - ay
    denom = abx * abx + aby * aby
    short = denom < 1e-18
    t = ((px - ax) * abx + (py - ay) * aby) / np.where(short, 1.0, denom)
    t = np.where(short, 0.0, np.clip(t, 0.0, 1.0))
    return np.hypot(ax + t * abx - px, ay + t * aby - py)


def _center_distance(grid: OccupancyGrid, poly: np.ndarray, xs: range, ys: range) -> np.ndarray:
    """``point_to_convex_distance`` from every cell center of a window, as [ix, iy]."""
    r = grid.resolution
    px = (grid.origin[0] + (np.arange(xs.start, xs.stop) + 0.5) * r)[:, None, None]
    py = (grid.origin[1] + (np.arange(ys.start, ys.stop) + 0.5) * r)[None, :, None]
    ax, ay = poly[:, 0], poly[:, 1]
    bx, by = np.roll(ax, -1), np.roll(ay, -1)
    outside = ((bx - ax) * (py - ay) - (by - ay) * (px - ax) < 0).any(axis=2)
    return np.where(outside, _segment_distance(ax, ay, bx, by, px, py).min(axis=2), 0.0)


def _rect_distance(grid: OccupancyGrid, poly: np.ndarray, ix: np.ndarray,
                   iy: np.ndarray) -> np.ndarray:
    """``convex_distance(grid.cell_rect(cell), poly)`` for cells known to be disjoint
    from the polygon: the least distance of a cell corner to a footprint edge or
    of a footprint vertex to a cell edge."""
    x0 = grid.origin[0] + ix * grid.resolution
    y0 = grid.origin[1] + iy * grid.resolution
    x1, y1 = x0 + grid.resolution, y0 + grid.resolution
    cx = np.stack([x0, x1, x1, x0], axis=1)[:, :, None]   # corners in cell_rect order
    cy = np.stack([y0, y0, y1, y1], axis=1)[:, :, None]
    ax, ay = poly[:, 0], poly[:, 1]
    corners = _segment_distance(ax, ay, np.roll(ax, -1), np.roll(ay, -1), cx, cy)
    vertices = _segment_distance(cx, cy, np.roll(cx, -1, axis=1), np.roll(cy, -1, axis=1),
                                 ax, ay)
    return np.minimum(corners.min(axis=(1, 2)), vertices.min(axis=(1, 2)))


def _ties(d: np.ndarray, poly: np.ndarray, *thresholds: float) -> np.ndarray:
    """Cells whose vectorized distance is too near a threshold to decide it."""
    if len(poly) < 3:   # the vectorized inside test assumes a polygon
        return np.ones(d.shape, dtype=bool)
    tie = np.zeros(d.shape, dtype=bool)
    for t in thresholds:
        tie |= np.abs(d - t) <= _TIE_GUARD
    return tie


def _empty_grid(scene: Scene, resolution: float) -> OccupancyGrid:
    """A free grid over the scene bounds; GridTooLarge past MAX_GRID_CELLS cells."""
    x0, y0, x1, y1 = map(float, scene.bounds)
    # counted in floats: a tiny resolution makes these inf, not 300-digit integers
    nx = max(1.0, float(np.ceil((x1 - x0) / resolution - 1e-9)))
    ny = max(1.0, float(np.ceil((y1 - y0) / resolution - 1e-9)))
    cells = nx * ny
    if cells > MAX_GRID_CELLS:
        raise GridTooLarge(f"the bounds at resolution {resolution:g} m need more than "
                           f"{MAX_GRID_CELLS} cells",
                           cells=cells if cells < math.inf else None, limit=MAX_GRID_CELLS)
    return OccupancyGrid(resolution, np.array([x0, y0]),
                         np.zeros((int(nx), int(ny)), dtype=bool))


def _object_hits(scene: Scene, grid: OccupancyGrid, poly: np.ndarray,
                 agent_radius: float) -> tuple[tuple[slice, slice], np.ndarray]:
    """The cells of the footprint's window whose rectangle comes within
    ``agent_radius`` of it, as (window slices, hit mask over the window)."""
    half_diag = grid.resolution * math.sqrt(0.5)
    far = agent_radius + half_diag + 1e-12    # a center farther than this: free
    near = agent_radius - half_diag           # a center this close: occupied
    reach = agent_radius + 1e-12              # otherwise the cell's rectangle decides
    # a cell whose center lies this close may overlap the footprint, and then
    # only the scalar separating-axis test decides
    touch = half_diag + _TIE_GUARD * max(1.0, float(np.abs(scene.bounds).max()))
    xs, ys = _window(grid, poly, agent_radius)
    d = _center_distance(grid, poly, xs, ys)
    exact = _ties(d, poly, far, near)
    hit = (d <= near) & ~exact
    band = (d > near) & (d <= far) & ~exact
    exact |= band & (d <= touch)
    band &= ~exact
    bx, by = np.nonzero(band)
    rect_d = _rect_distance(grid, poly, bx + xs.start, by + ys.start)
    rect_tie = _ties(rect_d, poly, reach)
    hit[bx, by] = (rect_d <= reach) & ~rect_tie
    exact[bx[rect_tie], by[rect_tie]] = True
    if exact.any():
        verts = [(float(x), float(y)) for x, y in poly]
        for ix, iy in zip(*np.nonzero(exact)):
            cell = (xs.start + int(ix), ys.start + int(iy))
            d_cell = point_to_convex_distance(grid.center_of(cell), verts)
            hit[ix, iy] = d_cell <= near or (
                d_cell <= far and convex_distance(grid.cell_rect(cell), verts) <= reach)
    return (slice(xs.start, xs.stop), slice(ys.start, ys.stop)), hit


def rasterize(scene: Scene, exclude=frozenset(), resolution: float = DEFAULT_RESOLUTION,
              agent_radius: float = DEFAULT_AGENT_RADIUS,
              poses: dict[str, Pose] | None = None) -> OccupancyGrid:
    """Mark cells whose rectangle comes within ``agent_radius`` of any footprint.

    ``poses`` overrides object poses (defaults to each object's initial pose),
    so the grid can be rebuilt as objects are relocated mid-plan. Raises
    GridTooLarge before allocating a grid of more than MAX_GRID_CELLS cells.
    """
    grid = _empty_grid(scene, resolution)
    for obj in scene.objects:
        if obj.id in exclude:
            continue
        pose = poses[obj.id] if poses and obj.id in poses else obj.initial_pose
        window, hit = _object_hits(scene, grid, footprint(obj, pose), agent_radius)
        grid.occupied[window] |= hit
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


# (dx, dy, diagonal); pops follow the (f, h, cell) heap key, not this order
_MOVES = ((1, 0, False), (-1, 0, False), (0, 1, False), (0, -1, False),
          (1, 1, True), (1, -1, True), (-1, 1, True), (-1, -1, True))


def _move_mask(occupied: np.ndarray) -> bytearray:
    """One byte per cell of the padded, flattened grid: bit k is set when move k
    of _MOVES is legal from that cell, i.e. its target is free and, for a
    diagonal, so are both orthogonal cells it passes (no corner cutting)."""
    nx, ny = occupied.shape
    w = ny + 2
    free = np.zeros((nx + 2, w), dtype=np.uint8)
    free[1:-1, 1:-1] = ~occupied
    free = free.ravel()
    lo, hi = w + 1, free.size - w - 1    # every cell whose 8 neighbors exist
    out = bytearray(free.size)
    mask = np.frombuffer(out, dtype=np.uint8)[lo:hi]
    for k, (mx, my, diagonal) in enumerate(_MOVES):
        bits = free[lo + mx * w + my:hi + mx * w + my]
        if diagonal:
            bits = bits & free[lo + mx * w:hi + mx * w] & free[lo + my:hi + my]
        mask |= bits << k
    return out


@functools.lru_cache(maxsize=8)
def _move_options(w: int) -> tuple:
    """options[bits]: (index offset, step cost, dx, dy) of each move that a mask
    byte ``bits`` allows, on a flattened grid of row length ``w``."""
    options = [()]
    for mx, my, diagonal in _MOVES:
        move = (mx * w + my, SQRT2 if diagonal else 1.0, mx, my)
        options += [allowed + (move,) for allowed in options]
    return tuple(options)


def astar_cells(grid: OccupancyGrid, start: tuple[int, int], goals) -> PathResult:
    """Shortest path from a cell to the nearest of a set of goal cells.

    ``goals`` is an (n, 2) integer array or any collection of (x, y) cells;
    cells outside the grid cannot be reached but still widen the bounding box.
    Heuristic: octile distance to the goal set's bounding box, which is
    admissible, consistent and O(1) per node. Raises NoPath when the goal set
    is unreachable.

    The search runs on the grid padded by one occupied cell on every side and
    flattened, so cell (x, y) is index (x + 1) * w + y + 1 with w = ny + 2.
    That index orders cells exactly like (x, y), so the heap key (f, h, index)
    pops nodes in the same order as (f, h, x, y).
    """
    goals = np.array(goals if isinstance(goals, np.ndarray) else list(goals),
                     dtype=np.int64).reshape(-1, 2)
    if not grid.is_free(start):
        raise StartOccupied(f"start cell {start} is occupied or out of bounds")
    if not len(goals):
        raise GoalOccupied("goal set is empty")
    nx, ny = grid.shape
    w = ny + 2
    gx, gy = goals[:, 0], goals[:, 1]
    # per-axis distances to the goal set's bounding box, by padded coordinate
    xs, ys = np.arange(-1, nx + 1), np.arange(-1, ny + 1)
    hx = np.maximum(np.maximum(gx.min() - xs, xs - gx.max()), 0).tolist()
    hy = np.maximum(np.maximum(gy.min() - ys, ys - gy.max()), 0).tolist()
    bend = SQRT2 - 1.0   # a diagonal step's cost beyond a straight one
    inside = (gx >= 0) & (gx < nx) & (gy >= 0) & (gy < ny)
    targets = set(((gx[inside] + 1) * w + gy[inside] + 1).tolist())
    legal = _move_mask(grid.occupied)
    options = _move_options(w)

    size = len(legal)
    g_cost = array("d", [math.inf]) * size
    parent = array("i", [0]) * size    # padded indices stay below 3 * MAX_GRID_CELLS + 6
    closed = bytearray(size)
    first = int((start[0] + 1) * w + start[1] + 1)
    g_cost[first] = 0.0
    a, b = hx[start[0] + 1], hy[start[1] + 1]
    h0 = a + bend * b if a > b else b + bend * a
    heap = [(h0, h0, first)]
    push = heapq.heappush
    pop = heapq.heappop
    while heap:
        _, _, p = pop(heap)
        if closed[p]:
            continue
        closed[p] = 1
        if p in targets:
            path = [p]
            while path[-1] != first:
                path.append(parent[path[-1]])
            cells = [(q // w - 1, q % w - 1) for q in reversed(path)]
            diagonal = sum(a[0] != b[0] and a[1] != b[1] for a, b in zip(cells, cells[1:]))
            return PathResult(cells, len(cells) - 1 - diagonal, diagonal)
        g_here = g_cost[p]
        x, y = divmod(p, w)
        for off, step, mx, my in options[legal[p]]:
            q = p + off
            cand = g_here + step
            if cand < g_cost[q] - 1e-12:
                g_cost[q] = cand
                parent[q] = p
                # octile distance: max(a, b) + (sqrt(2) - 1) * min(a, b)
                a, b = hx[x + mx], hy[y + my]
                hq = a + bend * b if a > b else b + bend * a
                push(heap, (cand + hq, hq, q))
    raise NoPath(f"no route from {tuple(start)} to the goal set")


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
    raw_steps = read_field(loads(text), "steps", "")
    require(isinstance(raw_steps, list), "expected a list", "/steps")
    steps = []
    for i, raw in enumerate(raw_steps):
        path = f"/steps/{i}"
        object_id = read_name(read_field(raw, "object", path), f"{path}/object")
        step_text = read_name(read_field(raw, "text", path), f"{path}/text")
        route = read_field(raw, "route", path)
        require(isinstance(route, list), "expected a list", f"{path}/route")
        steps.append(PlanStep(object_id, step_text, [
            tuple(read_floats(p, 2, f"{path}/route/{j}", MAX_COORDINATE))
            for j, p in enumerate(route)]))
    return ExecutionPlan(steps)


def save_plan(plan: ExecutionPlan, path):
    write_text(path, dump_json(plan_to_json(plan)))


def load_plan(path) -> ExecutionPlan:
    return parse_plan_json(read_text(path))


def _cells_near_footprint(grid: OccupancyGrid, poly: np.ndarray, distance: float) -> np.ndarray:
    """Free cells whose center lies within ``distance`` of the polygon, as an
    (n, 2) array of (x, y) in row-major order."""
    xs, ys = _window(grid, poly, distance)
    d = _center_distance(grid, poly, xs, ys)
    exact = _ties(d, poly, distance)
    near = (d <= distance) & ~exact
    if exact.any():
        verts = [(float(x), float(y)) for x, y in poly]
        for ix, iy in zip(*np.nonzero(exact)):
            cell = (xs.start + int(ix), ys.start + int(iy))
            near[ix, iy] = point_to_convex_distance(grid.center_of(cell), verts) <= distance
    near &= ~grid.occupied[xs.start:xs.stop, ys.start:ys.stop]
    return np.argwhere(near) + (xs.start, ys.start)


def plan_routes(scene: Scene, scene_map: SceneMap, steps: list[ActionStep],
                agent_radius: float = DEFAULT_AGENT_RADIUS,
                resolution: float = DEFAULT_RESOLUTION,
                agent_start=None,
                approach_distance: float = APPROACH_DISTANCE) -> ExecutionPlan:
    """Route every step: walk to the object, then carry it to its target.

    Objects already relocated stay at their targets for later steps; the
    manipulated object is excluded from its own step's grid. An empty route
    means the agent already stood within the approach distance. Each step's
    grid equals ``rasterize(scene, exclude={id}, poses=poses)``.
    """
    poses: dict[str, Pose] = {o.id: o.initial_pose for o in scene.objects}
    if agent_start is None:
        agent_start = np.array([(scene.bounds[0] + scene.bounds[2]) / 2.0,
                                (scene.bounds[1] + scene.bounds[3]) / 2.0])
    agent = np.asarray(agent_start, dtype=float).reshape(2)

    hits = {}    # object id -> (window, hit mask) at the object's current pose
    grid = None  # built at the first step: UnknownObject comes before GridTooLarge
    plan_steps = []
    for step in steps:
        if not scene_map.has(step.object_id):
            raise UnknownObject(f"no scene-map target for {step.object_id!r}",
                                id=step.object_id)
        obj = scene.object(step.object_id)
        if grid is None:
            grid = _empty_grid(scene, resolution)
        grid.occupied[:] = False
        for other in scene.objects:
            if other.id == step.object_id:
                continue
            if other.id not in hits:
                hits[other.id] = _object_hits(scene, grid, footprint(other, poses[other.id]),
                                              agent_radius)
            window, hit = hits[other.id]
            grid.occupied[window] |= hit
        start = grid.cell_of(agent)
        if not grid.is_free(start):
            raise StartOccupied(f"agent position {tuple(map(float, agent))} is occupied")

        route: list[tuple[float, float]] = []
        target_pose = scene_map.pose(step.object_id)
        for pose, suffix in ((poses[step.object_id], ""), (target_pose, "'s target")):
            goals = _cells_near_footprint(grid, footprint(obj, pose), approach_distance)
            if not len(goals):
                raise GoalOccupied(f"no free cell within {approach_distance} m of "
                                   f"{step.object_id!r}{suffix}")
            if not (goals == start).all(axis=1).any():
                leg = astar_cells(grid, start, goals)
                route.extend(grid.center_of(c) for c in (leg.cells[1:] if route else leg.cells))
                start = leg.cells[-1]

        if route:
            agent = np.array(route[-1])
        poses[step.object_id] = target_pose
        hits.pop(step.object_id, None)
        plan_steps.append(PlanStep(step.object_id, step.text, route))
    return ExecutionPlan(plan_steps)
