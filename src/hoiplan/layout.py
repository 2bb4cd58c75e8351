"""Scene-map solver: spatial relations in, exact object placements out.

Positional relations (on/adjacent) form a directed graph with edges pointing
from the reference object to the constrained one. Static objects seed the
solve; each movable object is resolved once all of its predecessors are,
taking the average of the per-predecessor position suggestions. Facing
constraints are applied afterwards as yaw-only orientations.

The solve is deterministic: ready nodes are processed in sorted-id order and
every random draw comes from a generator keyed on (seed, child, parent).
"""

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .errors import HoiplanError
from .geometry import Pose, quat_from_yaw, quat_normalize, quat_rotate, quat_to_matrix
from .polygons import polygon_centroid, polygon_contains
from .relations import Adjacent, Facing, On, SpatialRelation, compass_vector
from .scene import (Scene, bottom_height, dump_json, footprint, footprint_circumradius, loads,
                    read_field, read_name, read_pose, read_text, require, resting_descent,
                    top_surface_height, write_text)


class UnknownObject(HoiplanError):
    code = "layout.unknown_object"


class CycleDetected(HoiplanError):
    code = "layout.cycle_detected"

    def __init__(self, cycle: list[str]):
        super().__init__(" -> ".join(cycle + cycle[:1]), cycle=cycle)
        self.cycle = cycle


class Unsolvable(HoiplanError):
    code = "layout.unsolvable"

    def __init__(self, remaining: list[str]):
        super().__init__(f"no progress possible for {sorted(remaining)}",
                         remaining=sorted(remaining))
        self.remaining = sorted(remaining)


class CoincidentPositions(HoiplanError):
    code = "layout.coincident_positions"


class ConflictingFacing(HoiplanError):
    code = "layout.conflicting_facing"


class DegenerateFacing(HoiplanError):
    code = "layout.degenerate_facing"


# How many horizontal samples to try before giving up on a clean "on" spot.
ON_SAMPLE_TRIES = 64


@dataclass(frozen=True)
class LayoutWarning:
    kind: str
    object_id: str
    message: str


@dataclass
class SceneGraph:
    nodes: list[str]
    edges: list[tuple[str, str, SpatialRelation]]  # (parent, child, relation)
    facing: list[Facing]
    static_ids: set[str]
    movable_ids: set[str]
    predecessors: dict[str, list[tuple[str, SpatialRelation]]] = field(default_factory=dict)

    def __post_init__(self):
        if not self.predecessors:
            self.predecessors = {n: [] for n in self.nodes}
            for parent, child, rel in self.edges:
                self.predecessors[child].append((parent, rel))
            for preds in self.predecessors.values():
                preds.sort(key=lambda pr: pr[0])


@dataclass
class SceneMapEntry:
    object_id: str
    position: np.ndarray
    orientation: np.ndarray

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=float).reshape(3)
        self.orientation = quat_normalize(self.orientation)


@dataclass
class SceneMap:
    entries: list[SceneMapEntry]

    def __post_init__(self):
        self._index: dict[str, SceneMapEntry] = {}
        for e in self.entries:
            self._index.setdefault(e.object_id, e)  # on a duplicate id the first wins

    def entry(self, object_id: str) -> SceneMapEntry:
        e = self._index.get(object_id)
        if e is None:
            raise UnknownObject(f"no scene-map entry for {object_id!r}", id=object_id)
        return e

    def pose(self, object_id: str) -> Pose:
        e = self.entry(object_id)
        return Pose(e.position, e.orientation)

    def has(self, object_id: str) -> bool:
        return object_id in self._index


def scene_map_to_json(scene_map: SceneMap) -> dict:
    return {"entries": [{"id": e.object_id,
                         "pos": [float(v) for v in e.position],
                         "quat": [float(v) for v in e.orientation]}
                        for e in scene_map.entries]}


def parse_scene_map_json(text: str) -> SceneMap:
    raw_entries = read_field(loads(text), "entries", "")
    require(isinstance(raw_entries, list), "expected a list", "/entries")
    entries = []
    seen = set()
    for i, raw in enumerate(raw_entries):
        path = f"/entries/{i}"
        object_id = read_name(read_field(raw, "id", path), f"{path}/id")
        require(object_id not in seen, f"repeated id {object_id!r}", f"{path}/id")
        seen.add(object_id)
        pose = read_pose(raw, path)
        entries.append(SceneMapEntry(object_id, pose.position, pose.orientation))
    return SceneMap(entries)


def save_scene_map(scene_map: SceneMap, path):
    write_text(path, dump_json(scene_map_to_json(scene_map)))


def load_scene_map(path) -> SceneMap:
    return parse_scene_map_json(read_text(path))


# ---------------------------------------------------------------------------
# graph construction

def build_graph(scene: Scene, relations: list[SpatialRelation]) -> SceneGraph:
    """Build the positional scene graph; facing relations are kept aside.

    Raises UnknownObject for ids missing from the scene and CycleDetected if
    the positional edges contain a directed cycle.
    """
    for r in relations:
        for oid in (r.obj1, r.obj2):
            if not scene.has_object(oid):
                raise UnknownObject(f"relation references unknown object {oid!r}", id=oid)
    nodes = sorted(o.id for o in scene.objects)
    edges = [(r.obj2, r.obj1, r) for r in relations if isinstance(r, (On, Adjacent))]
    facing = [r for r in relations if isinstance(r, Facing)]
    _check_acyclic(nodes, edges)
    return SceneGraph(nodes, edges, facing,
                      static_ids=set(scene.static_ids), movable_ids=set(scene.movable_ids))


def _check_acyclic(nodes, edges):
    children: dict[str, list[str]] = {n: [] for n in nodes}
    for parent, child, _ in edges:
        children[parent].append(child)
    state = {n: 0 for n in nodes}  # 0 new, 1 on stack, 2 done
    stack_path: list[str] = []

    def visit(n):
        state[n] = 1
        stack_path.append(n)
        for c in sorted(children[n]):
            if state[c] == 1:
                cycle = stack_path[stack_path.index(c):]
                raise CycleDetected(cycle)
            if state[c] == 0:
                visit(c)
        stack_path.pop()
        state[n] = 2

    for n in nodes:
        if state[n] == 0:
            visit(n)


# ---------------------------------------------------------------------------
# position pass

def _edge_rng(seed: int, child: str, parent: str) -> np.random.Generator:
    digest = hashlib.sha256(f"{child}\x00{parent}".encode("utf-8")).digest()
    words = [int.from_bytes(digest[i:i + 4], "little") for i in range(0, 16, 4)]
    return np.random.default_rng(np.random.SeedSequence([seed & 0xFFFFFFFFFFFFFFFF] + words))


def _sample_on_position(rng, scene, parent_id, parent_pose, child_id, siblings, warnings):
    """Pick a spot on the parent's top surface avoiding already-placed siblings.

    Containment margins and sibling clearance both use the child's XY
    circumradius, so placements stay valid even if the orientation pass later
    yaws the children. Falls back to the support centroid (with a warning)
    when rejection sampling runs out of tries.
    """
    parent = scene.object(parent_id)
    child = scene.object(child_id)
    support = footprint(parent, parent_pose)
    z = top_surface_height(parent, parent_pose) + resting_descent(child, child.initial_pose.orientation)
    radius = footprint_circumradius(child, child.initial_pose.orientation)
    min_x, min_y = support.min(axis=0)
    max_x, max_y = support.max(axis=0)
    lo = np.array([min_x + radius, min_y + radius])
    hi = np.array([max_x - radius, max_y - radius])
    if np.all(lo <= hi):
        for _ in range(ON_SAMPLE_TRIES):
            xy = rng.uniform(lo, hi)
            candidate = footprint(child, Pose(np.array([xy[0], xy[1], z]),
                                              child.initial_pose.orientation))
            if not polygon_contains(support, candidate, tol=1e-9):
                continue
            if any(float(np.linalg.norm(xy - c)) < radius + r for c, r in siblings):
                continue
            return np.array([xy[0], xy[1], z])
    center = polygon_centroid(support)
    warnings.append(LayoutWarning("placement_congestion", child_id,
                                  f"no clear spot on {parent_id!r} after {ON_SAMPLE_TRIES} tries; "
                                  "using the support centroid"))
    return np.array([center[0], center[1], z])


def compute_positions(graph: SceneGraph, scene: Scene, seed: int,
                      warnings: list | None = None,
                      trace: list | None = None) -> dict[str, np.ndarray]:
    """Resolve movable-object positions by propagating through the graph.

    Each ready node takes the average of its predecessors' suggestions; any
    "on" edge then re-pins the height so support alignment survives the
    averaging. Unconstrained movables keep their initial position. ``trace``,
    when given, collects node ids in resolution order.
    """
    if warnings is None:
        warnings = []
    positions: dict[str, np.ndarray] = {}
    for sid in graph.static_ids:
        positions[sid] = scene.object(sid).initial_pose.position.copy()

    placed_on: dict[str, list] = {}  # support id -> placed child (center_xy, circumradius)
    remaining = sorted(graph.movable_ids)
    while remaining:
        ready = [v for v in remaining
                 if all(p in positions for p, _ in graph.predecessors[v])]
        if not ready:
            raise Unsolvable(remaining)
        for v in ready:
            spec = scene.object(v)
            preds = graph.predecessors[v]
            if not preds:
                positions[v] = spec.initial_pose.position.copy()
                remaining.remove(v)
                if trace is not None:
                    trace.append(v)
                continue
            suggestions = []
            on_parents = []
            for parent, rel in preds:
                parent_pose = Pose(positions[parent], scene.object(parent).initial_pose.orientation)
                if isinstance(rel, On):
                    rng = _edge_rng(seed, v, parent)
                    suggestions.append(_sample_on_position(
                        rng, scene, parent, parent_pose, v,
                        placed_on.get(parent, []), warnings))
                    on_parents.append((parent, parent_pose))
                else:
                    offset2 = rel.distance * compass_vector(rel.direction, scene.north)
                    z = resting_descent(spec, spec.initial_pose.orientation)
                    suggestions.append(np.array([positions[parent][0] + offset2[0],
                                                 positions[parent][1] + offset2[1], z]))
            pos = np.mean(suggestions, axis=0)
            if on_parents:
                # never let averaging break the resting-height constraint
                top = max(top_surface_height(scene.object(p), pp) for p, pp in on_parents)
                pos[2] = top + resting_descent(spec, spec.initial_pose.orientation)
                child_radius = footprint_circumradius(spec, spec.initial_pose.orientation)
                for parent, _ in on_parents:
                    placed_on.setdefault(parent, []).append((pos[:2].copy(), child_radius))
            if len(suggestions) > 1:
                residual = max(float(np.linalg.norm(s - pos)) for s in suggestions)
                if residual > 1e-6:
                    warnings.append(LayoutWarning("constraint_residual", v,
                                                  f"predecessor suggestions disagree by {residual:.3g} m"))
            positions[v] = pos
            remaining.remove(v)
            if trace is not None:
                trace.append(v)
    return {m: positions[m] for m in sorted(graph.movable_ids)}


# ---------------------------------------------------------------------------
# orientation pass

def compute_orientations(scene: Scene, positions: dict[str, np.ndarray],
                         facing: list[Facing],
                         warnings: list | None = None) -> dict[str, np.ndarray]:
    """Yaw-only orientations from facing constraints; others keep their initial one."""
    if warnings is None:
        warnings = []

    def position_of(oid):
        if oid in positions:
            return positions[oid]
        return scene.object(oid).initial_pose.position

    oriented: dict[str, np.ndarray] = {}
    seen = set()
    for f in facing:
        if f.obj1 in seen:
            raise ConflictingFacing(f"{f.obj1!r} has more than one facing constraint", id=f.obj1)
        seen.add(f.obj1)
        if scene.object(f.obj1).is_static:
            warnings.append(LayoutWarning("facing_static", f.obj1,
                                          "facing constraint on a static object ignored"))
            continue
        p1 = position_of(f.obj1)
        p2 = position_of(f.obj2)
        target = np.asarray(p2[:2], dtype=float) - np.asarray(p1[:2], dtype=float)
        if float(np.linalg.norm(target)) < 1e-6:
            raise CoincidentPositions(
                f"{f.obj1!r} and {f.obj2!r} coincide in XY; facing is undefined",
                obj1=f.obj1, obj2=f.obj2)
        canon = scene.object(f.obj1).canonical_dir[:2]
        if float(np.linalg.norm(canon)) < 1e-8:
            raise DegenerateFacing(
                f"{f.obj1!r} has a vertical canonical direction; cannot face anything",
                id=f.obj1)
        yaw = np.arctan2(target[1], target[0]) - np.arctan2(canon[1], canon[0])
        oriented[f.obj1] = quat_from_yaw(float(yaw))

    out = {}
    for m in sorted(positions):
        out[m] = oriented.get(m, scene.object(m).initial_pose.orientation.copy())
    return out


def solve(scene: Scene, relations: list[SpatialRelation], seed: int,
          warnings: list | None = None) -> SceneMap:
    """Full layout solve: graph, positions, orientations, assembled scene map."""
    graph = build_graph(scene, relations)
    positions = compute_positions(graph, scene, seed, warnings)
    orientations = compute_orientations(scene, positions, graph.facing, warnings)
    entries = [SceneMapEntry(m, positions[m], orientations[m]) for m in sorted(positions)]
    return SceneMap(entries)


# ---------------------------------------------------------------------------
# geometric accuracy checker

@dataclass
class AccuracyReport:
    """Share of objects with positional / orientation defects, plus the ids."""

    pe_p: float
    pe_o: float
    position_bad: list[str]
    orientation_bad: list[str]


def _obb_penetration(c1, r1, h1, c2, r2, h2) -> float:
    """Penetration depth of two oriented boxes (0 when separated or touching).

    Standard 15-axis separating-axis test; returns the smallest overlap.
    """
    t = np.asarray(c2, dtype=float) - np.asarray(c1, dtype=float)
    axes = []
    for i in range(3):
        axes.append(r1[:, i])
    for i in range(3):
        axes.append(r2[:, i])
    for i in range(3):
        for j in range(3):
            cr = np.cross(r1[:, i], r2[:, j])
            n = float(np.linalg.norm(cr))
            if n > 1e-9:
                axes.append(cr / n)
    depth = np.inf
    for axis in axes:
        ra = float(np.abs(axis @ r1) @ h1)
        rb = float(np.abs(axis @ r2) @ h2)
        overlap = ra + rb - abs(float(axis @ t))
        if overlap <= 0:
            return 0.0
        depth = min(depth, overlap)
    return float(depth)


def geometric_accuracy(scene: Scene, scene_map: SceneMap,
                       relations: list[SpatialRelation],
                       height_tol: float = 1e-6, contain_tol: float = 1e-6,
                       penetration_tol: float = 1e-6,
                       facing_tol: float = 1e-6) -> AccuracyReport:
    """Fraction of placed objects with positional or orientation errors.

    Positional errors are wrong support heights, footprints escaping their
    support, or box penetration with any other object; orientation errors are
    facing constraints pointing the wrong way.
    """
    poses: dict[str, Pose] = {}
    for o in scene.objects:
        poses[o.id] = scene_map.pose(o.id) if scene_map.has(o.id) else o.initial_pose

    placed = [e.object_id for e in scene_map.entries]
    position_bad = set()
    orientation_bad = set()

    for r in relations:
        if isinstance(r, On):
            child, parent = r.obj1, r.obj2
            gap = abs(bottom_height(scene.object(child), poses[child])
                      - top_surface_height(scene.object(parent), poses[parent]))
            if gap > height_tol:
                position_bad.add(child)
            if not polygon_contains(footprint(scene.object(parent), poses[parent]),
                                    footprint(scene.object(child), poses[child]),
                                    tol=contain_tol):
                position_bad.add(child)
        elif isinstance(r, Facing):
            if not scene_map.has(r.obj1):
                continue
            p1 = poses[r.obj1].position[:2]
            p2 = poses[r.obj2].position[:2]
            to_target = p2 - p1
            n = float(np.linalg.norm(to_target))
            if n < 1e-9:
                orientation_bad.add(r.obj1)
                continue
            world_dir = quat_rotate(poses[r.obj1].orientation,
                                    scene.object(r.obj1).canonical_dir)[:2]
            wn = float(np.linalg.norm(world_dir))
            if wn < 1e-9 or float(world_dir @ to_target) / (wn * n) < 1.0 - facing_tol:
                orientation_bad.add(r.obj1)

    ids = sorted(poses)
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            if a not in placed and b not in placed:
                continue
            sa, sb = scene.object(a), scene.object(b)
            depth = _obb_penetration(poses[a].position, quat_to_matrix(poses[a].orientation),
                                     sa.half_extents,
                                     poses[b].position, quat_to_matrix(poses[b].orientation),
                                     sb.half_extents)
            if depth > penetration_tol:
                if a in placed:
                    position_bad.add(a)
                if b in placed:
                    position_bad.add(b)

    n = max(1, len(placed))
    return AccuracyReport(len(position_bad) / n, len(orientation_bad) / n,
                          sorted(position_bad), sorted(orientation_bad))
