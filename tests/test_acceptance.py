"""Acceptance suite: one test per release criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

import itertools
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from conftest import WORKSPACE_INSTRUCTION, build_interaction_motion
from helpers import (assert_layout_invariants, dijkstra_oracle, grasps_to_json, make_random_scene,
                     random_quat, stack_poses, workspace_scene)

from hoiplan.cli import main
from hoiplan.geometry import (Pose, matrix_to_quat, quat_conjugate, quat_geodesic_angle,
                              quat_multiply, quat_rotate, quat_to_matrix, rot6d_decode,
                              rot6d_encode)
from hoiplan.layout import geometric_accuracy, solve
from hoiplan.llm import render_prompt, save_fixture
from hoiplan.motion import GraspPose, points_in_wrist_frame, relative_pose_loss
from hoiplan.planner import NoPath, OccupancyGrid, astar_cells, dependency_order
from hoiplan.relations import (ActionStep, On, ParseError, TemplateMismatch, parse_plan,
                               parse_relations, render_plan_step)
from hoiplan.reward import (DEFAULT_BODY_WEIGHTS, BodyWeights, FingerFrame, alpha_gate,
                            body_reward, energy_reward, hand_reward, total_reward)
from hoiplan.scene import (DuplicateId, MotionSequence, Scene, SchemaError, load_motion,
                           parse_motion_json, parse_scene_json, save_motion)

GOLDEN = Path(__file__).parent / "fixtures" / "golden"


def _report(number: int, name: str):
    print(f"[acceptance] criterion {number} ({name}): PASS")


def random_pose(rng):
    return Pose(rng.uniform(-2, 2, size=3), random_quat(rng))


# ---------------------------------------------------------------------------
# 1. layout invariants on random scenes

def test_c1_layout_invariant_suite():
    rng = np.random.default_rng(987)
    start = time.monotonic()
    for i in range(100):
        scene, relations = make_random_scene(rng)
        assert 3 <= len(scene.objects) <= 10
        scene_map = solve(scene, relations, seed=i)
        assert_layout_invariants(scene, relations, scene_map, tol=1e-6)
        report = geometric_accuracy(scene, scene_map, relations)
        assert report.pe_p == 0.0, report.position_bad
        assert report.pe_o == 0.0, report.orientation_bad
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"layout suite took {elapsed:.2f}s"
    _report(1, "layout invariants, PE_p = PE_o = 0")


# ---------------------------------------------------------------------------
# 2. A* optimality against a Dijkstra oracle

def _astar_counts(grid, start, goal):
    try:
        result = astar_cells(grid, start, {goal})
    except NoPath:
        return None
    for cell in result.cells:
        assert grid.is_free(cell)
    return result.straight, result.diagonal


def test_c2_astar_optimality():
    start_time = time.monotonic()
    # every occupancy pattern of a 4x4 grid, corner to corner
    for pattern in range(65536):
        occ = np.array([(pattern >> i) & 1 for i in range(16)], dtype=bool).reshape(4, 4)
        if occ[0, 0] or occ[3, 3]:
            continue
        grid = OccupancyGrid(1.0, np.zeros(2), occ)
        got = _astar_counts(grid, (0, 0), (3, 3))
        assert got == dijkstra_oracle(grid, (0, 0), (3, 3)), f"pattern {pattern}"

    rng = np.random.default_rng(555)
    for _ in range(200):
        occ = rng.uniform(size=(32, 32)) < rng.uniform(0.1, 0.45)
        grid = OccupancyGrid(1.0, np.zeros(2), occ)
        free = [tuple(int(v) for v in c) for c in np.argwhere(~occ)]
        if len(free) < 2:
            continue
        idx = rng.choice(len(free), size=2, replace=False)
        start, goal = free[idx[0]], free[idx[1]]
        assert _astar_counts(grid, start, goal) == dijkstra_oracle(grid, start, goal)
    elapsed = time.monotonic() - start_time
    assert elapsed < 30.0, f"A* suite took {elapsed:.2f}s"
    _report(2, "A* cost equals Dijkstra exactly, cells free")


# ---------------------------------------------------------------------------
# 3. dependency ordering over exhaustive permutations

def _ordering_scene(ids):
    from helpers import box
    objects = [box(oid, 0.2, 0.2, 0.2, pos=(2.0 * i - 4, 0, 0.2))
               for i, oid in enumerate(ids)]
    return Scene(objects, bounds=np.array([-8.0, -8.0, 8.0, 8.0]))


def _random_on_forest(rng, ids):
    """Random acyclic On relations: each object may rest on a later-indexed one."""
    relations = []
    for i, oid in enumerate(ids[:-1]):
        if rng.uniform() < 0.6:
            parent = ids[int(rng.integers(i + 1, len(ids)))]
            relations.append(On(oid, parent))
    return relations


def test_c3_dependency_ordering_exhaustive():
    rng = np.random.default_rng(777)
    for n in range(2, 6):
        ids = [f"o{i}" for i in range(n)]
        scene = _ordering_scene(ids)
        chain = [On(ids[i], ids[i + 1]) for i in range(n - 1)]
        relation_sets = [chain] + [_random_on_forest(rng, ids) for _ in range(6)]
        for relations in relation_sets:
            pairs = [(r.obj1, r.obj2) for r in relations]
            for perm in itertools.permutations(ids):
                steps = [ActionStep(o, render_plan_step(o)) for o in perm]
                out = dependency_order(scene, relations, steps)
                order = {s.object_id: i for i, s in enumerate(out)}
                assert sorted(order) == sorted(ids)
                for a, b in pairs:
                    assert order[a] < order[b], (perm, pairs)
    # the canonical support example: the supported object moves first
    scene = _ordering_scene(["table", "vase"])
    out = dependency_order(scene, [On("vase", "table")],
                           [ActionStep(o, render_plan_step(o)) for o in ("table", "vase")])
    assert [s.object_id for s in out] == ["vase", "table"]
    _report(3, "exhaustive precedence satisfaction")


# ---------------------------------------------------------------------------
# 4. relative-pose loss vs a brute-force oracle

def _loss_oracle(object_traj, wrist_traj, rest, reference, labels):
    """Independent scalar-loop evaluation of the masked relative-pose loss."""
    total = 0.0
    for t in range(len(object_traj)):
        r_o = quat_to_matrix(object_traj[t].orientation)
        r_w = quat_to_matrix(wrist_traj[t].orientation)
        r_w_inv = np.linalg.inv(r_w)
        frame_sum = 0.0
        for j in range(rest.shape[0]):
            k_global = r_o @ rest[j] + object_traj[t].position
            k_w = r_w_inv @ (k_global - wrist_traj[t].position)
            for axis in range(3):
                frame_sum += abs(k_w[axis] - reference[t, j, axis])
        total += labels[t] * frame_sum
    return total


def test_c4_relative_pose_loss():
    rng = np.random.default_rng(321)
    # rigidly consistent fixtures score zero
    for _ in range(10):
        rest = rng.uniform(-0.3, 0.3, size=(100, 3))
        grasp = random_pose(rng)
        object_poses = [random_pose(rng) for _ in range(15)]
        from hoiplan.geometry import compose
        object_traj = stack_poses(object_poses)
        wrist_traj = stack_poses([compose(o, grasp) for o in object_poses])
        reference = points_in_wrist_frame(object_traj, wrist_traj, rest)
        labels = rng.uniform(size=15)
        loss, _ = relative_pose_loss(object_traj, wrist_traj, rest, reference, labels)
        assert loss <= 1e-9

    # random sequences match the brute-force oracle
    for _ in range(100):
        t = int(rng.integers(2, 10))
        n = int(rng.integers(2, 30))
        rest = rng.normal(size=(n, 3))
        object_traj = [random_pose(rng) for _ in range(t)]
        wrist_traj = [random_pose(rng) for _ in range(t)]
        reference = rng.normal(size=(t, n, 3))
        labels = rng.uniform(size=t)
        loss, per_frame = relative_pose_loss(stack_poses(object_traj), stack_poses(wrist_traj),
                                             rest, reference, labels)
        assert abs(loss - _loss_oracle(object_traj, wrist_traj, rest, reference,
                                       labels)) <= 1e-9

    # the mask zeroes non-contact frames exactly
    t = 8
    rest = rng.normal(size=(10, 3))
    object_traj = stack_poses([random_pose(rng) for _ in range(t)])
    wrist_traj = stack_poses([random_pose(rng) for _ in range(t)])
    reference = rng.normal(size=(t, 10, 3))
    labels = np.array([1.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0])
    _, per_frame = relative_pose_loss(object_traj, wrist_traj, rest, reference, labels)
    assert np.all(per_frame[labels == 0.0] == 0.0)
    assert np.all(per_frame[labels == 1.0] > 0.0)
    _report(4, "relative-pose loss matches oracle at 1e-9")


# ---------------------------------------------------------------------------
# 5. post-processing guarantees through the CLI

def test_c5_postprocess_via_cli(tmp_path):
    motion, grasp = build_interaction_motion(t=110, contact_range=(25, 85), noise=0.02)
    window = 15
    save_motion(motion, tmp_path / "motion.json")
    (tmp_path / "grasp.json").write_text(
        json.dumps(grasps_to_json({"left": None, "right": grasp})))
    rc = main(["postprocess", "--motion", str(tmp_path / "motion.json"),
               "--grasp", str(tmp_path / "grasp.json"),
               "--out", str(tmp_path / "out.json"),
               "--wrist-joints", ",3", "--arm-chains", ";1,2,3",
               "--window", str(window)])
    assert rc == 0
    source = load_motion(tmp_path / "motion.json")
    out = load_motion(tmp_path / "out.json")
    s, e = 25, 85

    # wrist-in-object transform constant (= grasp) across contact frames
    for t in range(s, e):
        obj_q = out.object_quat[t]
        wrist_q = matrix_to_quat(rot6d_decode(out.joint_rot6d[t, 3]))
        rel_pos = quat_rotate(quat_conjugate(obj_q), out.joints[t, 3] - out.object_pos[t])
        rel_q = quat_multiply(quat_conjugate(obj_q), wrist_q)
        assert np.linalg.norm(rel_pos - grasp.wrist_pose.position) <= 1e-9
        assert quat_geodesic_angle(rel_q, grasp.wrist_pose.orientation) <= 1e-9

    # object exactly static outside contact
    for t in range(s):
        assert np.array_equal(out.object_pos[t], out.object_pos[0])
        assert np.array_equal(out.object_quat[t], out.object_quat[0])
    for t in range(e, out.num_frames):
        assert np.array_equal(out.object_pos[t], out.object_pos[-1])
        assert np.array_equal(out.object_quat[t], out.object_quat[-1])

    # ramp continuity at both phase boundaries
    for boundary in (s, e):
        jump_pos = np.linalg.norm(out.object_pos[boundary] - out.object_pos[boundary - 1])
        jump_rot = quat_geodesic_angle(out.object_quat[boundary - 1],
                                       out.object_quat[boundary])
        assert jump_pos + jump_rot <= 1e-9, f"discontinuity at frame {boundary}"

    # frames beyond both ramp windows are bit-identical to the input
    untouched = range(s + window, e - 1 - window)
    assert len(untouched) > 0
    for t in untouched:
        assert np.array_equal(out.object_pos[t], source.object_pos[t])
        assert np.array_equal(out.object_quat[t], source.object_quat[t])
    _report(5, "postprocess rigidity, static phases, seam continuity")


# ---------------------------------------------------------------------------
# 6. reward evaluator vs an independently scripted implementation

def _angle_oracle(q1, q2):
    """Rotation angle via matrices, not quaternions."""
    rel = quat_to_matrix(q1).T @ quat_to_matrix(q2)
    axis = 0.5 * np.array([rel[2, 1] - rel[1, 2], rel[0, 2] - rel[2, 0],
                           rel[1, 0] - rel[0, 1]])
    sin_term = float(np.linalg.norm(axis))
    cos_term = 0.5 * (float(np.trace(rel)) - 1.0)
    return math.atan2(sin_term, cos_term)


def _reward_oracle(sim, ref, w_q, w_p, active_object, fingers_sim, fingers_ref,
                   hand_distance, accels):
    links = sorted(sim)
    wq = {b: w_q.get(b, 0.0) for b in links}
    wp = {b: w_p.get(b, 0.0) for b in links}
    if active_object is not None:
        wq[active_object] = 1.0
        wp[active_object] = 1.0
    qs = math.fsum(wq.values())
    ps = math.fsum(wp.values())
    term_q = math.fsum((wq[b] / qs) * _angle_oracle(sim[b].orientation,
                                                    ref[b].orientation) ** 2
                       for b in links)
    term_p = math.fsum((wp[b] / ps) * sum((sim[b].position[i] - ref[b].position[i]) ** 2
                                          for i in range(3))
                       for b in links)
    r_body = 0.5 * math.exp(-15.0 * term_q) + 0.5 * math.exp(-15.0 * term_p)

    f = fingers_sim.shape[0]
    if hand_distance <= 0.25:
        alpha = 1.0
    elif hand_distance >= 1.0:
        alpha = 0.0
    else:
        alpha = (1.0 - hand_distance) / 0.75
    acc = 0.0
    for i in range(f):
        e_o = math.dist(fingers_sim[i, 0], fingers_ref[i, 0])
        e_w = math.dist(fingers_sim[i, 1], fingers_ref[i, 1])
        acc += alpha * e_o + (1.0 - alpha) * e_w
    r_hand = math.exp(-(5.0 / f) * acc)

    r_energy = math.exp(-(1.0 / 900.0) * math.fsum(
        a[0] * a[0] + a[1] * a[1] + a[2] * a[2] for a in accels))
    return r_body, r_hand, r_energy, 0.8 * r_body + 0.2 * r_hand + 0.05 * r_energy


def test_c6_reward_matches_independent_implementation():
    rng = np.random.default_rng(246)
    links = sorted(DEFAULT_BODY_WEIGHTS.w_q)
    for i in range(1000):
        sim = {b: Pose(rng.normal(size=3) * 0.2, random_quat(rng)) for b in links}
        ref = {b: Pose(rng.normal(size=3) * 0.2, random_quat(rng)) for b in links}
        active = None
        if i % 3 == 0:
            sim["crate"] = Pose(rng.normal(size=3), random_quat(rng))
            ref["crate"] = Pose(rng.normal(size=3), random_quat(rng))
            active = "crate"
        f = int(rng.integers(1, 8))
        fingers = rng.normal(size=(f, 2, 3)) * 0.1
        fingers_ref = rng.normal(size=(f, 2, 3)) * 0.1
        d = float(rng.uniform(0.0, 1.4))
        accels = rng.normal(size=(4, 3)) * 10.0

        got = total_reward(sim, ref, DEFAULT_BODY_WEIGHTS, accels, active_object=active,
                           sim_fingers=FingerFrame(fingers[:, 0], fingers[:, 1]),
                           ref_fingers=FingerFrame(fingers_ref[:, 0], fingers_ref[:, 1]),
                           hand_object_distance_ref=d)
        want = _reward_oracle(sim, ref, DEFAULT_BODY_WEIGHTS.w_q, DEFAULT_BODY_WEIGHTS.w_p,
                              active, fingers, fingers_ref, d, accels)
        assert abs(got.r_body - want[0]) <= 1e-12
        assert abs(got.r_hand - want[1]) <= 1e-12
        assert abs(got.r_energy - want[2]) <= 1e-12
        assert abs(got.total - want[3]) <= 1e-12

    # exact perfect-tracking values
    frame = {b: Pose(np.zeros(3), np.array([1.0, 0, 0, 0])) for b in links}
    perfect = total_reward(frame, dict(frame), DEFAULT_BODY_WEIGHTS, np.zeros((2, 3)),
                           sim_fingers=FingerFrame(np.zeros((2, 3)), np.zeros((2, 3))),
                           ref_fingers=FingerFrame(np.zeros((2, 3)), np.zeros((2, 3))),
                           hand_object_distance_ref=0.2)
    assert (perfect.r_body, perfect.r_hand, perfect.r_energy) == (1.0, 1.0, 1.0)
    assert perfect.total == 1.05

    # distance-gate endpoints straight from the formula definition
    assert alpha_gate(0.25) == 1.0
    assert alpha_gate(1.0) == 0.0

    # weight-table normalization invariance
    rng = np.random.default_rng(135)
    sim = {b: Pose(rng.normal(size=3) * 0.1, random_quat(rng)) for b in links}
    ref = {b: Pose(rng.normal(size=3) * 0.1, random_quat(rng)) for b in links}
    base = body_reward(sim, ref, DEFAULT_BODY_WEIGHTS)
    scaled = BodyWeights({k: 3.7 * v for k, v in DEFAULT_BODY_WEIGHTS.w_q.items()},
                         {k: 3.7 * v for k, v in DEFAULT_BODY_WEIGHTS.w_p.items()})
    assert abs(body_reward(sim, ref, scaled) - base) <= 1e-12
    _report(6, "reward matches second implementation at 1e-12")


# ---------------------------------------------------------------------------
# 7. rotation codec round trip

def test_c7_rotation_codec():
    rng = np.random.default_rng(654)
    for _ in range(1000):
        m = quat_to_matrix(random_quat(rng))
        decoded = rot6d_decode(rot6d_encode(m))
        assert np.linalg.norm(decoded - m) <= 1e-9
        assert np.linalg.norm(decoded.T @ decoded - np.eye(3)) <= 1e-9
        assert abs(np.linalg.det(decoded) - 1.0) <= 1e-9
    _report(7, "6D codec round trip at 1e-9, decode orthonormal")


# ---------------------------------------------------------------------------
# 8. end-to-end determinism with the mock backend

def _run_pipeline(scene_path, fixtures_dir, out_dir):
    rc = main(["plan", str(scene_path), "--instruction", WORKSPACE_INSTRUCTION,
               "--backend", "mock", "--fixtures", str(fixtures_dir),
               "--seed", "0", "--out", str(out_dir)])
    assert rc == 0
    rc = main(["render", str(scene_path), str(out_dir / "scene_map.json"),
               "--plan", str(out_dir / "plan.json"), "--out", str(out_dir / "scene.svg")])
    assert rc == 0
    return {name: (out_dir / name).read_bytes()
            for name in ("plan.json", "scene_map.json", "scene.svg")}


def test_c8_end_to_end_determinism(tmp_path, capsys):
    from hoiplan.scene import save_scene
    scene = workspace_scene()
    scene_path = tmp_path / "scene.json"
    save_scene(scene, scene_path)
    fixtures_dir = tmp_path / "fx"
    response = (Path(__file__).parent / "fixtures" / "llm_response_workspace.txt").read_text()
    save_fixture(fixtures_dir, render_prompt(scene, WORKSPACE_INSTRUCTION), response)

    runs = []
    for i in range(5):
        out_dir = tmp_path / f"run{i}"
        runs.append(_run_pipeline(scene_path, fixtures_dir, out_dir))
        capsys.readouterr()
    for name in ("plan.json", "scene_map.json", "scene.svg"):
        blobs = {r[name] for r in runs}
        assert len(blobs) == 1, f"{name} differed across runs"
        golden = GOLDEN / name
        assert golden.exists(), f"golden {name} missing; regenerate via tools in README"
        assert runs[0][name] == golden.read_bytes(), f"{name} deviates from the golden copy"
    _report(8, "plan/scene-map/SVG byte-identical across 5 runs + golden")


# ---------------------------------------------------------------------------
# 9. fuzz: structured errors only, never a crash

def _random_inputs(rng, count, flavor):
    structured = ('on(', 'adjacent(', 'facing(', 'lift the ', ', move the ', 'put down the ',
                  '{"bounds"', '"objects"', '"frames"', '[', ']', '{', '}', ',', '"', '0.5',
                  'north', 'null', 'true')
    for _ in range(count):
        kind = rng.integers(0, 3)
        if kind == 0:
            yield bytes(rng.integers(0, 256, size=rng.integers(0, 50))).decode("latin1")
        elif kind == 1:
            yield "".join(chr(rng.integers(32, 127)) for _ in range(rng.integers(0, 60)))
        else:
            yield "".join(str(rng.choice(structured)) for _ in range(rng.integers(1, 8)))


def test_c9_fuzz_never_crashes():
    rng = np.random.default_rng(8888)
    for text in _random_inputs(rng, 40000, "relations"):
        try:
            parse_relations(text)
        except ParseError:
            pass
    for text in _random_inputs(rng, 20000, "plan"):
        try:
            parse_plan(text)
        except TemplateMismatch:
            pass
    for text in _random_inputs(rng, 20000, "scene"):
        try:
            parse_scene_json(text)
        except (SchemaError, DuplicateId):
            pass
    for text in _random_inputs(rng, 20000, "motion"):
        try:
            parse_motion_json(text)
        except SchemaError:
            pass
    _report(9, "100k fuzz inputs, structured errors only")
