"""Seeded input generators for the benchmark workloads.

Every generator is valid by construction: it never runs hoiplan to find out
whether an input works. Rooms place objects in a lattice of 2.5 m slots whose
borders stay clear, so the agent start is free and every footprint borders a
connected corridor network. Motion clips keep every recomputed wrist inside
its arm's reach. The files written here are all the program sees.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

SLOT = 2.5            # room lattice pitch (m)
SLOT_HALF = 0.65      # footprints stay this close to their slot centre (m)
CONTACT_FRAMES = 40   # carried frames per clip; sets how many frames need IK

COMPASS = {(1, 0): "east", (-1, 0): "west", (0, 1): "north", (0, -1): "south",
           (1, 1): "northeast", (-1, 1): "northwest", (1, -1): "southeast",
           (-1, -1): "southwest"}


def write_json(path, doc):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def yaw_quat(yaw: float) -> list[float]:
    return [math.cos(0.5 * yaw), 0.0, 0.0, math.sin(0.5 * yaw)]


def _box(oid, half, static, pos, yaw=0.0, canonical=(0.0, 1.0, 0.0)) -> dict:
    return {"id": oid, "half_extents": [float(h) for h in half],
            "canonical_dir": list(canonical), "static": static,
            "pose": {"pos": [float(p) for p in pos], "quat": yaw_quat(yaw)}}


# ---------------------------------------------------------------------------
# rooms for `plan`

@dataclass
class Room:
    """A generated room plus what its solved layout must satisfy."""

    scene: dict
    response: str                       # mock LLM reply: relations and plan blocks
    agent_start: tuple[float, float]
    targets: dict[str, tuple] = field(default_factory=dict)   # id -> ("at", x, y) | ("on", support)
    supports: dict[str, str] = field(default_factory=dict)    # item id -> support id


def _ray_offset(src, dst):
    """Compass direction and slot count from src to dst, or None off the 8 rays."""
    dx, dy = dst[0] - src[0], dst[1] - src[1]
    k = max(abs(dx), abs(dy))
    if k == 0 or not (dx == 0 or dy == 0 or abs(dx) == abs(dy)):
        return None
    return (dx // k, dy // k), k


def make_room(rng: np.random.Generator, size: float, n_objects: int,
              n_movable: int) -> Room:
    """A size x size m room with n_objects, n_movable of them movable: statics,
    supports with items on them, and loose objects placed next to a static or
    a support.

    Each movable's start and target slots are at least two slots apart, so the
    agent always walks to an object and then to its target, and ends every
    step at least a metre from what it just put down.
    """
    n = int(round(size / SLOT))
    half = size / 2.0

    def centre(slot):
        return (-half + SLOT * (slot[0] + 0.5), -half + SLOT * (slot[1] + 0.5))

    free = [(i, j) for i in range(n) for j in range(n)]
    order = rng.permutation(len(free))
    free = [free[k] for k in order]

    def take(*preferences):
        for ok in preferences or (lambda s: True,):
            for s in free:
                if ok(s):
                    free.remove(s)
                    return s
        raise ValueError(f"room of {size} m has no slot left for {n_objects} objects")

    def start_for(target):
        # two or three slots away: far enough that the agent always walks,
        # near enough that leg lengths do not swing the cost between seeds
        def gap(s):
            return max(abs(s[0] - target[0]), abs(s[1] - target[1]))
        return take(lambda s: gap(s) in (2, 3), lambda s: gap(s) >= 2)

    n_static = n_objects - n_movable
    n_support = max(1, round(0.3 * n_movable))
    n_item = min(3 * n_support, max(1, round(0.45 * n_movable)))
    n_loose = n_movable - n_support - n_item

    objects, relations, plan_ids = [], [], []
    room = Room({}, "", (-half + SLOT, -half + SLOT))
    statics = []

    def add_static():
        slot = take()
        hx, hy = rng.uniform(0.2, 0.45, size=2)
        hz = rng.uniform(0.4, 1.0)
        oid = f"pillar{len(statics)}"
        cx, cy = centre(slot)
        objects.append(_box(oid, (hx, hy, hz), True, (cx, cy, hz),
                            yaw=float(rng.uniform(-math.pi, math.pi))))
        statics.append((oid, slot))

    # a few statics anchor the adjacencies; the rest fill slots left over
    for _ in range(min(n_static, 3)):
        add_static()

    def adjacent(oid, anchors):
        """Take a free slot on a compass ray of an anchor; emit the relation."""
        options = [(a, s, _ray_offset(slot, s)) for a, slot in anchors for s in free]
        options = [o for o in options if o[2] is not None]
        if not options:
            raise ValueError(f"room of {size} m has no ray slot left for {oid}")
        anchor, slot, ((dx, dy), k) = options[int(rng.integers(len(options)))]
        free.remove(slot)
        distance = k * SLOT * (math.sqrt(2.0) if dx and dy else 1.0)
        relations.append(f"adjacent({oid}, {anchor}, {COMPASS[(dx, dy)]}, {distance!r})")
        room.targets[oid] = ("at",) + centre(slot)
        return slot

    supports = []
    for i in range(n_support):
        oid = f"table{i}"
        hx, hy = rng.uniform(0.4, SLOT_HALF, size=2)
        hz = rng.uniform(0.3, 0.45)
        target = adjacent(oid, statics)
        start = start_for(target)
        objects.append(_box(oid, (hx, hy, hz), False, centre(start) + (hz,)))
        supports.append((oid, target))
        plan_ids.append(oid)

    for i in range(n_item):
        oid = f"cup{i}"
        support, target = supports[i % n_support]
        h = rng.uniform(0.05, 0.12, size=3)
        start = start_for(target)
        jitter = rng.uniform(-0.3, 0.3, size=2)
        cx, cy = centre(start)
        objects.append(_box(oid, h, False, (cx + jitter[0], cy + jitter[1], h[2])))
        relations.append(f"on({oid}, {support})")
        if rng.uniform() < 0.5:
            relations.append(f"facing({oid}, pillar{int(rng.integers(n_static))})")
        room.targets[oid] = ("on", support)
        plan_ids.append(oid)

    for i in range(n_loose):
        oid = f"crate{i}"
        hx, hy = rng.uniform(0.15, 0.4, size=2)
        hz = rng.uniform(0.15, 0.4)
        target = adjacent(oid, statics + supports)
        start = start_for(target)
        jitter = rng.uniform(-0.05, 0.05, size=2)
        cx, cy = centre(start)
        objects.append(_box(oid, (hx, hy, hz), False, (cx + jitter[0], cy + jitter[1], hz),
                            canonical=(1.0, 0.0, 0.0)))
        if rng.uniform() < 0.5:
            relations.append(f"facing({oid}, pillar{int(rng.integers(n_static))})")
        plan_ids.append(oid)

    while len(statics) < n_static:
        add_static()

    # the proposed order is shuffled, so supports often precede their items
    # and the planner has to correct the order
    plan_ids = [plan_ids[k] for k in rng.permutation(len(plan_ids))]
    relations = [relations[k] for k in rng.permutation(len(relations))]
    plan = "\n".join(f"lift the {o}, move the {o}, put down the {o}" for o in plan_ids)
    room.response = ("Placing every object next to its anchor.\n\n```relations\n"
                     + "\n".join(relations) + "\n```\n\n```plan\n" + plan + "\n```\n")
    room.scene = {"bounds": [-half, -half, half, half], "north": [0.0, 1.0],
                  "objects": [objects[k] for k in rng.permutation(len(objects))]}
    room.supports = {oid: room.targets[oid][1] for oid in room.targets
                     if room.targets[oid][0] == "on"}
    return room


# ---------------------------------------------------------------------------
# motion clips for `postprocess` and `score`

JOINTS_22 = ["root", "lower_abdomen", "upper_abdomen", "chest", "neck", "head",
             "left_clavicle", "right_clavicle", "left_upper_arm", "right_upper_arm",
             "left_lower_arm", "right_lower_arm", "left_wrist", "right_wrist",
             "left_thigh", "right_thigh", "left_calf", "right_calf",
             "left_foot", "right_foot", "left_toe", "right_toe"]
JOINTS_4 = ["root", "right_upper_arm", "right_lower_arm", "right_wrist"]
ARMS = {"left": ("left_upper_arm", "left_lower_arm", "left_wrist"),
        "right": ("right_upper_arm", "right_lower_arm", "right_wrist")}


def quat_mul(a, b):
    """Hamilton product of (..., 4) wxyz arrays."""
    aw, ax, ay, az = np.moveaxis(a, -1, 0)
    bw, bx, by, bz = np.moveaxis(b, -1, 0)
    return np.stack([aw * bw - ax * bx - ay * by - az * bz,
                     aw * bx + ax * bw + ay * bz - az * by,
                     aw * by - ax * bz + ay * bw + az * bx,
                     aw * bz + ax * by - ay * bx + az * bw], axis=-1)


def quat_apply(q, v):
    """Rotate (..., 3) vectors by (..., 4) unit quaternions."""
    u, w = q[..., 1:], q[..., :1]
    t = 2.0 * np.cross(u, v)
    return v + w * t + np.cross(u, t)


def quat_matrix(q):
    w, x, y, z = np.moveaxis(q, -1, 0)
    return np.stack([
        np.stack([1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)], -1),
        np.stack([2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)], -1),
        np.stack([2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)], -1),
    ], axis=-2)


def rot6d(q):
    """First two rotation-matrix columns, column-major, of (..., 4) quaternions."""
    m = quat_matrix(q)
    return np.concatenate([m[..., :, 0], m[..., :, 1]], axis=-1)


def axis_angle_quat(axis_angle):
    angle = np.linalg.norm(axis_angle, axis=-1, keepdims=True)
    axis = axis_angle / np.maximum(angle, 1e-12)
    return np.concatenate([np.cos(0.5 * angle), np.sin(0.5 * angle) * axis], axis=-1)


@dataclass
class Clip:
    joints: np.ndarray          # (T, J, 3)
    rot6d: np.ndarray           # (T, J, 6)
    obj_pos: np.ndarray         # (T, 3)
    obj_quat: np.ndarray        # (T, 4)
    labels: np.ndarray          # (T, 2) contact, left then right
    grasps: dict
    names: list[str]
    wrist_joints: dict          # hand -> joint index
    arm_chains: dict            # hand -> (shoulder, elbow, wrist)
    contact: dict               # hand -> (start, end) frames
    grasp_pose: dict            # hand -> (pos (3,), quat (4,)) in the object frame


def make_clip(rng: np.random.Generator, frames: int, skeleton: int, hands) -> Clip:
    """A pick-and-carry clip: the object rests, is carried, and rests again.

    Wrists track object * grasp with centimetre noise during contact and drift
    outside it; each arm is bent so the recomputed wrist stays within reach.
    """
    names = JOINTS_22 if skeleton == 22 else JOINTS_4
    index = {name: j for j, name in enumerate(names)}
    t = np.arange(frames)
    s = int(rng.integers(frames // 3, frames // 3 + 40))
    e = s + CONTACT_FRAMES

    a = np.array([rng.uniform(0.6, 1.2), rng.uniform(-0.5, 0.5), 0.4])
    b = np.array([rng.uniform(-1.2, -0.6), rng.uniform(0.8, 1.4), 0.4])
    yaw_a, yaw_b = rng.uniform(-1.0, 1.0, size=2)
    u = np.clip((t - s) / max(1, e - s - 1), 0.0, 1.0)
    blend = 3 * u * u - 2 * u ** 3
    obj_pos = (1 - blend)[:, None] * a + blend[:, None] * b
    obj_pos[:, 2] += 0.3 * np.sin(np.pi * u)
    # generated rest phases drift a little, as a learned generator's would
    rest = (t < s) | (t >= e)
    obj_pos[rest] += 0.01 * np.stack([np.sin(0.7 * t), np.cos(0.3 * t), 0 * t], -1)[rest]
    yaw = (1 - blend) * yaw_a + blend * yaw_b
    obj_quat = np.stack([np.cos(0.5 * yaw), 0 * yaw, 0 * yaw, np.sin(0.5 * yaw)], -1)

    joints = np.zeros((frames, len(names), 3))
    body_quat = axis_angle_quat(rng.normal(scale=0.3, size=(len(names), 3))
                                + 0.2 * np.sin(0.05 * t[:, None, None]
                                               + rng.uniform(0, 6, size=(len(names), 3))))
    pelvis = np.stack([0.3 * np.sin(0.01 * t), 0.2 * np.cos(0.013 * t), 0.9 + 0 * t], -1)
    joints[:] = pelvis[:, None, :] + rng.normal(scale=0.4, size=(len(names), 3))[None]

    grasps, grasp_pose, wrist_joints, arm_chains, contact = \
        {"left": None, "right": None}, {}, {}, {}, {}
    for hand in hands:
        side = 1.0 if hand == "left" else -1.0
        g_pos = np.array([rng.uniform(-0.05, 0.05), side * rng.uniform(0.2, 0.3),
                          rng.uniform(0.05, 0.15)])
        g_quat = np.array(yaw_quat(float(rng.uniform(-0.6, 0.6))))
        wrist_pos = quat_apply(obj_quat, np.broadcast_to(g_pos, (frames, 3))) + obj_pos
        wrist_quat = quat_mul(obj_quat, np.broadcast_to(g_quat, (frames, 4)))
        off = ~((t >= s) & (t < e))
        wrist_pos[off] += 0.02 * np.stack([np.sin(0.5 * t), 0.2 + 0 * t, 0.1 + 0 * t], -1)[off]
        wrist_pos += rng.normal(scale=0.003, size=(frames, 3))
        noise = axis_angle_quat(rng.normal(scale=0.01, size=(frames, 3)))
        wrist_quat = quat_mul(noise, wrist_quat)
        # shoulder 0.63 m from the wrist; the bent elbow leaves about 10 cm of reach
        shoulder = wrist_pos + np.array([0.15 * side, 0.5, 0.35]) \
            + 0.02 * np.sin(0.02 * t)[:, None]
        elbow = shoulder + 0.55 * (wrist_pos - shoulder) + np.array([0.0, 0.0, -0.2])
        shoulder_j, elbow_j, wrist_j = (index[n] for n in ARMS[hand])
        joints[:, shoulder_j], joints[:, elbow_j], joints[:, wrist_j] = shoulder, elbow, wrist_pos
        body_quat[:, wrist_j] = wrist_quat
        grasps[hand] = {"pos": g_pos.tolist(), "quat": g_quat.tolist(),
                        "fingers": rng.uniform(size=5).tolist()}
        grasp_pose[hand] = (g_pos, g_quat)
        wrist_joints[hand] = wrist_j
        arm_chains[hand] = (shoulder_j, elbow_j, wrist_j)
        contact[hand] = (s, e)

    labels = np.zeros((frames, 2))
    for hand, (cs, ce) in contact.items():
        labels[cs:ce, 0 if hand == "left" else 1] = 1.0
    return Clip(joints, rot6d(body_quat), obj_pos, obj_quat, labels, grasps, names,
                wrist_joints, arm_chains, contact, grasp_pose)


def clip_json(clip: Clip) -> dict:
    return {"fps": 30, "frames": [
        {"joints": clip.joints[i].tolist(), "joint_rot6d": clip.rot6d[i].tolist(),
         "object": {"pos": clip.obj_pos[i].tolist(), "quat": clip.obj_quat[i].tolist()},
         "contact": clip.labels[i].tolist()} for i in range(len(clip.joints))]}
