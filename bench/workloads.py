"""The benchmark's workloads: items built from seeded inputs, and the checks
that decide whether an item's outputs are correct.

An item is one or two `hoiplan` CLI commands on one generated input. A
workload hands out items in cycles; every cycle holds the same mix of input
classes, so a run made of whole cycles weighs the classes alike whatever the
seed. Cycle k draws its inputs from (seed, workload, k) alone.
"""

import hashlib
import json
import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import gen

AGENT_RADIUS = 0.3        # hoiplan's default, which every command here uses
RESOLUTION = 0.05
APPROACH = 1.0            # the planner's approach distance
WORKSPACE_INSTRUCTION = "set up a workspace in front of the door"
GOLDEN = ("plan.json", "scene_map.json", "scene.svg")


@dataclass
class Item:
    id: str                               # equal ids mean equal inputs
    commands: list[list[str]]
    outputs: list[Path]
    check: Callable[[], list[str]]        # problems in the outputs; empty when correct

    def digest(self) -> str:
        h = hashlib.sha256()
        for path in self.outputs:
            h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
        return h.hexdigest()


def _rng(seed: int, workload: str, cycle: int) -> np.random.Generator:
    key = int.from_bytes(hashlib.sha256(workload.encode()).digest()[:4], "little")
    return np.random.default_rng([seed, key, cycle])


# ---------------------------------------------------------------------------
# shared geometry for the checks (independent of hoiplan's own code)

def _yaw(quat) -> float:
    w, x, y, z = quat
    if abs(x) > 1e-9 or abs(y) > 1e-9:
        raise ValueError("pose is not a pure yaw")
    return 2.0 * math.atan2(z, w)


def _rect_distance(points, centre, half, yaw) -> np.ndarray:
    """Distance from each point to a yawed rectangle (0 inside)."""
    c, s = math.cos(yaw), math.sin(yaw)
    d = np.asarray(points, dtype=float) - np.asarray(centre[:2], dtype=float)
    local = np.stack([d[:, 0] * c + d[:, 1] * s, -d[:, 0] * s + d[:, 1] * c], axis=-1)
    q = np.maximum(np.abs(local) - np.asarray(half[:2], dtype=float), 0.0)
    return np.hypot(q[:, 0], q[:, 1])


def _cell_centre(xy, origin) -> np.ndarray:
    cell = np.floor((np.asarray(xy, dtype=float) - origin) / RESOLUTION)
    return origin + (cell + 0.5) * RESOLUTION


def _path_problems(points, obstacles) -> list[str]:
    """A route must step between 8-adjacent cells and keep clear of obstacles.

    A cell is free when its square stays farther than the agent radius from
    every footprint, so its centre must too. `obstacles` holds
    (id, centre, half extents, yaw).
    """
    problems = []
    if len(points) > 1:
        steps = np.abs(np.diff(points, axis=0)) / RESOLUTION
        unit = np.abs(steps - np.round(steps)) < 1e-6
        rounded = np.round(steps)
        if not (unit.all() and (rounded <= 1).all() and (rounded.sum(axis=1) >= 1).all()):
            problems.append("route steps between cells that are not 8-adjacent")
    for oid, centre, half, yaw in obstacles:
        d = _rect_distance(points, centre, half, yaw)
        if (d <= AGENT_RADIUS).any():
            problems.append(f"route passes within the agent radius of {oid}")
    return problems


# ---------------------------------------------------------------------------
# plan-rooms

# (size m, objects, movables); with the workspace item a cycle holds an odd
# number of classes, so the median and p90 fall inside one class each
ROOM_CLASSES = ((10.0, 6, 4), (12.5, 12, 4), (15.0, 18, 4), (20.0, 30, 4))


def _plan_commands(scene, fixtures, out, extra=()):
    return [["plan", str(scene), "--instruction", WORKSPACE_INSTRUCTION, "--backend", "mock",
             "--fixtures", str(fixtures), "--seed", "0", "--out", str(out), *extra],
            ["render", str(scene), str(out / "scene_map.json"), "--plan",
             str(out / "plan.json"), "--out", str(out / "scene.svg")]]


def workspace_item(root: Path, work: Path) -> Item:
    """The README's workspace run, whose outputs are pinned in the goldens."""
    from helpers import workspace_scene
    from hoiplan import render_prompt, save_fixture, save_scene

    d = work / "workspace"
    scene = workspace_scene()
    d.mkdir(parents=True, exist_ok=True)
    save_scene(scene, d / "scene.json")
    response = (root / "tests" / "fixtures" / "llm_response_workspace.txt").read_text("utf-8")
    save_fixture(d / "fx", render_prompt(scene, WORKSPACE_INSTRUCTION), response)
    out = d / "out"
    golden = root / "tests" / "fixtures" / "golden"

    def check():
        return [f"{name} differs from the golden" for name in GOLDEN
                if (out / name).read_bytes() != (golden / name).read_bytes()]
    return Item("workspace", _plan_commands(d / "scene.json", d / "fx", out),
                [out / n for n in GOLDEN], check)


def room_item(work: Path, rng, cycle: int, size: float, n_objects: int, n_movable: int) -> Item:
    from hoiplan import load_scene, render_prompt, save_fixture

    room = gen.make_room(rng, size, n_objects, n_movable)
    item_id = f"c{cycle}-room{size:g}"
    d = work / item_id
    gen.write_json(d / "scene.json", room.scene)
    save_fixture(d / "fx", render_prompt(load_scene(d / "scene.json"), WORKSPACE_INSTRUCTION),
                 room.response)
    out = d / "out"
    start = ",".join(repr(v) for v in room.agent_start)
    return Item(item_id, _plan_commands(d / "scene.json", d / "fx", out, [f"--agent-start={start}"]),
                [out / n for n in GOLDEN], lambda: _room_problems(room, out))


def _room_problems(room: gen.Room, out: Path) -> list[str]:
    objects = {o["id"]: o for o in room.scene["objects"]}
    movable = sorted(o for o in objects if not objects[o]["static"])
    entries = {e["id"]: e for e in json.loads((out / "scene_map.json").read_text())["entries"]}
    steps = json.loads((out / "plan.json").read_text())["steps"]
    ET.fromstring((out / "scene.svg").read_text())
    problems = []
    if sorted(entries) != movable or sorted(s["object"] for s in steps) != movable:
        return ["scene map or plan does not cover exactly the movable objects"]

    poses = {o: (objects[o]["pose"]["pos"], _yaw(objects[o]["pose"]["quat"])) for o in objects}
    targets = {o: (entries[o]["pos"], _yaw(entries[o]["quat"])) for o in movable}
    for oid, target in room.targets.items():
        pos = targets[oid][0]
        if target[0] == "at":
            if math.dist(pos[:2], target[1:]) > 1e-6:
                problems.append(f"{oid} is not at its adjacency target")
        else:
            support = target[1]
            s_pos, s_yaw = targets[support]
            s_half = objects[support]["half_extents"]
            top = s_pos[2] + s_half[2]
            if _rect_distance([pos[:2]], s_pos, s_half, s_yaw)[0] > 0 \
                    or abs(pos[2] - objects[oid]["half_extents"][2] - top) > 1e-9:
                problems.append(f"{oid} does not rest on {support}")

    order = {s["object"]: i for i, s in enumerate(steps)}
    for item, support in room.supports.items():
        if order[item] > order[support]:
            problems.append(f"{item} is moved after its support {support}")

    origin = np.array(room.scene["bounds"][:2], dtype=float)
    here = _cell_centre(room.agent_start, origin)
    for step in steps:
        oid = step["object"]
        route = np.array(step["route"], dtype=float).reshape(-1, 2)
        if len(route):
            if np.abs(route[0] - here).max() > 1e-9:
                problems.append(f"route of {oid} does not start where the agent stands")
            obstacles = [(o, poses[o][0], objects[o]["half_extents"], poses[o][1])
                         for o in objects if o != oid]
            problems += [f"{oid}: {p}" for p in _path_problems(route, obstacles)]
        walk = np.vstack([here, route])
        half = objects[oid]["half_extents"]
        if _rect_distance(walk, poses[oid][0], half, poses[oid][1]).min() > APPROACH + 1e-9:
            problems.append(f"the agent never reaches {oid}")
        if _rect_distance(walk[-1:], targets[oid][0], half, targets[oid][1])[0] > APPROACH + 1e-9:
            problems.append(f"the agent does not end next to {oid}'s target")
        here = walk[-1]
        poses[oid] = targets[oid]
    return problems


def plan_rooms(root: Path, work: Path, seed: int, cycle: int) -> list[Item]:
    rng = _rng(seed, "plan-rooms", cycle)
    return [workspace_item(root, work)] + [room_item(work, rng, cycle, *c) for c in ROOM_CLASSES]


# ---------------------------------------------------------------------------
# motion-clips

CLIP_FRAMES = 300
# (skeleton joints, hands in contact), cheapest first. Two fifths of a cycle
# are one-hand 22-joint clips and two fifths two-hand ones, so the median and
# p90 each fall well inside a class that holds many of a run's items.
CLIP_CLASSES = ((4, ("right",)), (22, ("left",)), (22, ("right",)),
                (22, ("left", "right")), (22, ("left", "right")))


def clip_item(work: Path, rng, cycle: int, k: int, skeleton: int, hands) -> Item:
    clip = gen.make_clip(rng, CLIP_FRAMES, skeleton, hands)
    item_id = f"c{cycle}-{k}-clip{skeleton}-{len(hands)}"
    d = work / item_id
    gen.write_json(d / "motion.json", gen.clip_json(clip))
    gen.write_json(d / "grasp.json", clip.grasps)
    wrists = ",".join(str(clip.wrist_joints.get(h, "")) for h in ("left", "right"))
    chains = ";".join(",".join(map(str, clip.arm_chains[h])) if h in clip.arm_chains else ""
                      for h in ("left", "right"))
    clean, report = d / "clean.json", d / "report.json"
    commands = [["postprocess", "--motion", str(d / "motion.json"), "--grasp",
                 str(d / "grasp.json"), "--out", str(clean), "--wrist-joints", wrists,
                 "--arm-chains", chains],
                ["score", "--ref", str(d / "motion.json"), "--sim", str(clean),
                 "--joint-names", ",".join(clip.names), "--out", str(report)]]
    # the check rereads the input so that cached items hold no frame arrays
    held = {h: (clip.contact[h], clip.grasp_pose[h], clip.arm_chains[h]) for h in clip.contact}
    return Item(item_id, commands, [clean, d / "clean.diagnostics.json", report],
                lambda: _clip_problems(d, held))


def _arrays(doc):
    frames = doc["frames"]
    return (np.array([f["joints"] for f in frames]), np.array([f["joint_rot6d"] for f in frames]),
            np.array([f["object"]["pos"] for f in frames]),
            np.array([f["object"]["quat"] for f in frames]))


def _clip_problems(d: Path, held: dict) -> list[str]:
    """`held` maps each hand in contact to ((start, end), grasp pose, arm chain)."""
    joints0, _, pos0, quat0 = _arrays(json.loads((d / "motion.json").read_text()))
    joints, r6, pos, quat = _arrays(json.loads((d / "clean.json").read_text()))
    diag = json.loads((d / "clean.diagnostics.json").read_text())
    report = json.loads((d / "report.json").read_text())
    if joints.shape != joints0.shape:
        return ["cleaned clip changed shape"]
    problems = []
    s = min(contact[0] for contact, _, _ in held.values())
    e = max(contact[1] for contact, _, _ in held.values())
    if not ((pos[:s] == pos0[0]).all() and (quat[:s] == quat0[0]).all()
            and (pos[e:] == pos0[-1]).all() and (quat[e:] == quat0[-1]).all()):
        problems.append("object is not pinned outside the contact span")
    for hand, ((cs, ce), (g_pos, g_quat), (sh, el, wr)) in held.items():
        want = gen.quat_apply(quat[cs:ce], np.broadcast_to(g_pos, (ce - cs, 3))) + pos[cs:ce]
        want_r6 = gen.rot6d(gen.quat_mul(quat[cs:ce], np.broadcast_to(g_quat, (ce - cs, 4))))
        if np.abs(joints[cs:ce, wr] - want).max() > 1e-9 \
                or np.abs(r6[cs:ce, wr] - want_r6).max() > 1e-9:
            problems.append(f"{hand} wrist does not follow the grasp during contact")
        l1 = np.linalg.norm(joints0[:, el] - joints0[:, sh], axis=1)
        l2 = np.linalg.norm(joints0[:, wr] - joints0[:, el], axis=1)
        if np.abs(np.linalg.norm(joints[:, el] - joints[:, sh], axis=1) - l1).max() > 1e-9 \
                or np.abs(np.linalg.norm(joints[:, wr] - joints[:, el], axis=1) - l2).max() > 1e-4:
            problems.append(f"{hand} arm changed its segment lengths")
        wd = diag["wrists"][hand]
        if wd["grasp_deviation"] > 1e-9 or wd["ik_residual_max"] > 1e-4:
            problems.append(f"{hand} diagnostics report a grasp or IK error")
    e_h = float(np.linalg.norm(joints - joints0, axis=2).mean(axis=1).mean()) * 100.0
    e_o = float(np.linalg.norm(pos - pos0, axis=1).mean()) * 100.0
    err, r = report["tracking_error"], report["reward"]
    if report["frames"] != len(joints) or not math.isclose(err["e_h_cm"], e_h, rel_tol=1e-9) \
            or not math.isclose(err["e_o_cm"], e_o, rel_tol=1e-9, abs_tol=1e-12):
        problems.append("score reports the wrong tracking error")
    if not (0 < r["r_body"] <= 1 and r["r_hand"] == 1.0 and 0 < r["r_energy"] <= 1
            and abs(r["total"] - (0.8 * r["r_body"] + 0.2 * r["r_hand"]
                                  + 0.05 * r["r_energy"])) < 1e-12):
        problems.append("score reports an inconsistent reward")
    return problems


def motion_clips(root: Path, work: Path, seed: int, cycle: int) -> list[Item]:
    rng = _rng(seed, "motion-clips", cycle)
    return [clip_item(work, rng, cycle, k, *c) for k, c in enumerate(CLIP_CLASSES)]


# name -> (cycle builder, distinct cycles). Later cycles reuse the inputs of
# cycle k % distinct. A run at the seed code completes at least that many
# cycles, so a faster program runs the same inputs more often rather than new
# ones, and peak RSS (set by the largest A* search or clip) does not rise just
# because more cycles fit. Room costs vary most between inputs, so rooms get
# the most distinct cycles.
WORKLOADS = {"plan-rooms": (plan_rooms, 6), "motion-clips": (motion_clips, 3)}
