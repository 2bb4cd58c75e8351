import itertools
import math

import numpy as np
import pytest
from conftest import build_interaction_motion
from helpers import (average_pose, fk_oracle, grasp_world_pose, ik_solve_oracle,
                     points_in_wrist_frame_oracle, postprocess_oracle, random_quat, same_bits,
                     stack_poses)
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from hoiplan.geometry import (Pose, compose, invert, quat_conjugate, quat_from_axis_angle,
                              quat_from_yaw, quat_geodesic_angle, quat_multiply, quat_rotate)
from hoiplan.motion import (EmptyContact, GraspPose, HandPhases, IkChain, ShapeMismatch,
                            UnknownDirection, WindowOutOfRange, build_conditions, ik_solve,
                            ik_solve_batch, object_contact_span, points_in_wrist_frame,
                            pose_delta, postprocess_motion, ramp_poses, recompute_wrist,
                            relative_pose_loss, sample_box_surface, segment_hand, segment_phases,
                            smooth_boundary)
from hoiplan.scene import MotionSequence, dump_json, motion_to_json


# a failing oracle example is reported as drawn, not shrunk for minutes first
NO_SHRINK = (Phase.explicit, Phase.reuse, Phase.generate)


def random_pose(rng):
    return Pose(rng.uniform(-2, 2, size=3), random_quat(rng))


def segment_oracle(labels, threshold, min_run):
    """Brute force over all candidate windows: longest all-on run of length >= min_run."""
    t = len(labels)
    best = None
    for s in range(t):
        for e in range(s + 1, t + 1):
            if e - s < min_run:
                continue
            if any(labels[i] < threshold for i in range(s, e)):
                continue
            if s > 0 and labels[s - 1] >= threshold:
                continue
            if e < t and labels[e] >= threshold:
                continue
            if best is None or (e - s) > (best[1] - best[0]):
                best = (s, e)
    if best is None:
        return HandPhases((0, t), (t, t), (t, t))
    return HandPhases((0, best[0]), best, (best[1], t))


class TestSegmentation:
    def test_basic_split(self):
        phases = segment_hand([0, 0, 1, 1, 1, 0], threshold=0.5, min_run=1)
        assert phases.pre == (0, 2)
        assert phases.contact == (2, 5)
        assert phases.post == (5, 6)

    def test_all_zeros(self):
        phases = segment_hand([0.0] * 6, threshold=0.5, min_run=1)
        assert phases.pre == (0, 6)
        assert not phases.has_contact

    def test_short_blip_erased(self):
        labels = [0, 0, 1, 0, 0, 1, 1, 1, 1, 0]
        phases = segment_hand(labels, threshold=0.5, min_run=3)
        assert phases.contact == (5, 9)

    def test_exhaustive_length_8_vs_oracle(self):
        for min_run in (1, 2, 3):
            for bits in itertools.product([0.0, 1.0], repeat=8):
                got = segment_hand(bits, threshold=0.5, min_run=min_run)
                want = segment_oracle(bits, 0.5, min_run)
                assert got == want, (bits, min_run, got, want)

    def test_partition_property(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            t = int(rng.integers(1, 30))
            labels = rng.uniform(size=t)
            phases = segment_hand(labels, threshold=0.5, min_run=int(rng.integers(1, 5)))
            assert phases.pre[0] == 0
            assert phases.pre[1] == phases.contact[0]
            assert phases.contact[1] == phases.post[0] or not phases.has_contact
            if phases.has_contact:
                assert phases.post[1] == t
            else:
                assert phases.pre == (0, t)

    def test_threshold_monotonicity(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            labels = rng.uniform(size=20)
            lo = segment_hand(labels, threshold=0.3, min_run=2)
            hi = segment_hand(labels, threshold=0.7, min_run=2)
            lo_len = lo.contact[1] - lo.contact[0]
            hi_len = hi.contact[1] - hi.contact[0]
            assert hi_len <= lo_len

    def test_two_hand_wrapper(self):
        labels = np.array([[0, 1], [0, 1], [1, 1], [1, 0], [1, 0]], dtype=float)
        seg = segment_phases(labels, threshold=0.5, min_run=2)
        assert seg.left.contact == (2, 5)
        assert seg.right.contact == (0, 3)

    def test_average_pose(self):
        rng = np.random.default_rng(5)
        p = random_pose(rng)
        # averaging a pose with itself (opposite quaternion sign) is identity-safe
        flipped = Pose(p.position, -p.orientation)
        avg = average_pose([p, flipped, p])
        assert avg.almost_equal(p, 1e-12)


class TestRelativePoseLoss:
    def make_rigid_fixture(self, rng, t=12, n=20):
        rest = rng.uniform(-0.2, 0.2, size=(n, 3))
        grasp = random_pose(rng)
        object_poses = [random_pose(rng) for _ in range(t)]
        object_traj = stack_poses(object_poses)
        wrist_traj = stack_poses([compose(o, grasp) for o in object_poses])
        labels = (rng.uniform(size=t) > 0.3).astype(float)
        reference = points_in_wrist_frame(object_traj, wrist_traj, rest)
        return object_traj, wrist_traj, rest, reference, labels

    def test_rigid_attachment_zero_loss(self):
        rng = np.random.default_rng(10)
        object_traj, wrist_traj, rest, ref, labels = self.make_rigid_fixture(rng)
        loss, per_frame = relative_pose_loss(object_traj, wrist_traj, rest, ref, labels)
        assert loss <= 1e-9
        assert np.all(per_frame <= 1e-9)

    def test_zero_labels_zero_loss(self):
        rng = np.random.default_rng(11)
        object_traj, wrist_traj, rest, ref, _ = self.make_rigid_fixture(rng)
        t = len(object_traj[0])
        other = stack_poses([random_pose(rng) for _ in range(t)])
        loss, per_frame = relative_pose_loss(object_traj, other, rest, ref, np.zeros(t))
        assert loss == 0.0
        assert np.all(per_frame == 0.0)

    def test_translation_perturbation_matches_arithmetic(self):
        rng = np.random.default_rng(12)
        object_traj, wrist_traj, rest, ref, _ = self.make_rigid_fixture(rng, t=6, n=100)
        labels = np.zeros(6)
        labels[2] = 1.0
        delta = rng.normal(size=3) * 0.05
        wrist_pos, wrist_quat = wrist_traj
        bumped = wrist_pos.copy()
        bumped[2] += delta
        loss, per_frame = relative_pose_loss(object_traj, (bumped, wrist_quat), rest, ref, labels)
        rotated = quat_rotate(quat_conjugate(wrist_quat[2]), delta)
        expected = 100 * np.abs(rotated).sum()
        assert loss == pytest.approx(expected, abs=1e-9)
        assert per_frame[2] == pytest.approx(expected, abs=1e-9)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            t, n = int(rng.integers(2, 8)), int(rng.integers(2, 12))
            rest = rng.normal(size=(n, 3))
            object_traj = [random_pose(rng) for _ in range(t)]
            wrist_traj = [random_pose(rng) for _ in range(t)]
            ref = rng.normal(size=(t, n, 3))
            labels = rng.uniform(size=t)
            loss, _ = relative_pose_loss(stack_poses(object_traj), stack_poses(wrist_traj),
                                         rest, ref, labels)
            oracle = 0.0
            for i in range(t):
                ro = np.array([[float(x) for x in row] for row in
                               np.asarray(__import__("hoiplan.geometry", fromlist=["quat_to_matrix"])
                                          .quat_to_matrix(object_traj[i].orientation))])
                rw = __import__("hoiplan.geometry", fromlist=["quat_to_matrix"]) \
                    .quat_to_matrix(wrist_traj[i].orientation)
                for j in range(n):
                    k_global = ro @ rest[j] + object_traj[i].position
                    k_w = np.linalg.inv(rw) @ (k_global - wrist_traj[i].position)
                    oracle += labels[i] * np.abs(k_w - ref[i, j]).sum()
            assert loss == pytest.approx(oracle, abs=1e-9)

    def test_shape_mismatch(self):
        rng = np.random.default_rng(14)
        object_traj = stack_poses([random_pose(rng) for _ in range(3)])
        wrist_traj = stack_poses([random_pose(rng) for _ in range(4)])
        with pytest.raises(ShapeMismatch):
            relative_pose_loss(object_traj, wrist_traj, np.zeros((5, 3)),
                               np.zeros((3, 5, 3)), np.zeros(3))
        with pytest.raises(ShapeMismatch):  # one quaternion short
            relative_pose_loss(object_traj, (wrist_traj[0][:3], wrist_traj[1][:2]),
                               np.zeros((5, 3)), np.zeros((3, 5, 3)), np.zeros(3))


@st.composite
def poses(draw):
    """A pose with any position in a 10 m cube and any drawn quaternion, normalized."""
    quat = np.array([draw(st.floats(-2.0, 2.0)) for _ in range(4)])
    if np.linalg.norm(quat) < 1e-3:
        quat = np.array([1.0, 0.0, 0.0, 0.0])
    return Pose(np.array([draw(st.floats(-5.0, 5.0)) for _ in range(3)]), quat)


@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          phases=NO_SHRINK)
@given(st.integers(0, 8).flatmap(lambda t: st.tuples(st.lists(poses(), min_size=t, max_size=t),
                                                     st.lists(poses(), min_size=t, max_size=t))),
       st.lists(st.tuples(*[st.floats(-1.0, 1.0)] * 3), max_size=6))
def test_points_in_wrist_frame_matches_per_frame_oracle(trajectories, rest):
    object_poses, wrist_poses = trajectories
    rest = np.array(rest).reshape(-1, 3)
    got = points_in_wrist_frame(stack_poses(object_poses), stack_poses(wrist_poses), rest)
    assert same_bits(got, points_in_wrist_frame_oracle(object_poses, wrist_poses, rest))


def pose_at(traj, t) -> Pose:
    return Pose(traj[0][t], traj[1][t])



class TestSmoothing:
    def make_traj(self, rng, t=30):
        return stack_poses([random_pose(rng) for _ in range(t)])

    def test_zero_delta_unchanged(self):
        rng = np.random.default_rng(20)
        traj = self.make_traj(rng)
        out = smooth_boundary(traj, 5, 10, pose_at(traj, 5))
        for t in range(len(traj[0])):
            assert pose_at(traj, t).almost_equal(pose_at(out, t), 1e-12)

    def test_boundary_frame_equals_static(self):
        rng = np.random.default_rng(21)
        traj = self.make_traj(rng)
        static = random_pose(rng)
        out = smooth_boundary(traj, 8, 10, static)
        assert pose_at(out, 8).almost_equal(static, 1e-9)

    def test_linear_position_ramp(self):
        static = Pose(np.array([0.1, 0.0, 0.0]), np.array([1, 0, 0, 0]))
        pos, _ = smooth_boundary(stack_poses([Pose.identity()] * 30), 0, 10, static)
        for k in range(10):
            assert pos[k, 0] == pytest.approx(0.1 * (1 - k / 10), abs=1e-15)
        for k in range(10, 30):
            assert pos[k, 0] == 0.0

    def test_frames_past_window_bit_identical(self):
        rng = np.random.default_rng(22)
        traj = self.make_traj(rng)
        out = smooth_boundary(traj, 3, 6, random_pose(rng))
        assert same_bits(out[0][9:], traj[0][9:]) and same_bits(out[1][9:], traj[1][9:])

    def test_backward_direction(self):
        static = Pose(np.array([0.0, 1.0, 0.0]), np.array([1, 0, 0, 0]))
        pos, _ = smooth_boundary(stack_poses([Pose.identity()] * 20), 10, 5, static,
                                 direction="backward")
        assert pos[10, 1] == pytest.approx(1.0)
        assert pos[7, 1] == pytest.approx(1 - 3 / 5)
        assert pos[5, 1] == 0.0
        assert pos[11, 1] == 0.0

    def test_monotone_delta_magnitude(self):
        rng = np.random.default_rng(23)
        static = random_pose(rng)
        pos, quat = smooth_boundary(stack_poses([Pose.identity()] * 25), 0, 12, static)
        mags = [np.linalg.norm(p) + quat_geodesic_angle(np.array([1, 0, 0, 0]), q)
                for p, q in zip(pos[:12], quat[:12])]
        assert all(a >= b - 1e-12 for a, b in zip(mags, mags[1:]))

    def test_window_out_of_range(self):
        traj = stack_poses([Pose.identity()] * 5)
        with pytest.raises(WindowOutOfRange):
            smooth_boundary(traj, 7, 3, pose_at(traj, 0))
        with pytest.raises(WindowOutOfRange):
            ramp_poses(traj, 2, 0, np.zeros(6))

    @pytest.mark.parametrize("direction", ["Forward", "back", ""])
    def test_unknown_direction_is_refused(self, direction):
        # "Forward" used to ramp backward; a zero delta used to return before any check
        traj = stack_poses([Pose.identity()] * 5)
        with pytest.raises(UnknownDirection) as e:
            ramp_poses(traj, 2, 2, np.zeros(6), direction)
        assert e.value.code == "motion.unknown_direction"
        with pytest.raises(UnknownDirection):
            smooth_boundary(traj, 2, 2, Pose(np.ones(3), np.array([1.0, 0, 0, 0])), direction)


class TestRecomputeWrist:
    def test_static_object_gives_constant_grasp_pose(self):
        rng = np.random.default_rng(30)
        grasp = GraspPose(random_pose(rng))
        wrist = stack_poses([random_pose(rng) for _ in range(10)])
        out = recompute_wrist(stack_poses([Pose.identity()] * 10), wrist, grasp, (0, 10))
        for t in range(10):
            assert pose_at(out, t).almost_equal(grasp.wrist_pose, 1e-12)

    def test_translated_object_translates_wrist(self):
        rng = np.random.default_rng(31)
        grasp = GraspPose(random_pose(rng))
        v = np.array([0.3, -0.2, 0.1])
        obj = stack_poses([Pose(v, np.array([1, 0, 0, 0]))] * 4)
        pos, quat = recompute_wrist(obj, stack_poses([random_pose(rng)] * 4), grasp, (0, 4))
        for p, q in zip(pos, quat):
            assert np.allclose(p, grasp.wrist_pose.position + v, atol=1e-12)
            assert quat_geodesic_angle(q, grasp.wrist_pose.orientation) < 1e-12

    def test_yawed_object_matches_matrix_oracle(self):
        rng = np.random.default_rng(32)
        grasp = GraspPose(random_pose(rng))
        q = quat_from_yaw(math.pi / 2)
        obj = [Pose(np.array([1.0, 2.0, 0.0]), q)] * 3
        out = recompute_wrist(stack_poses(obj), stack_poses([random_pose(rng)] * 3), grasp,
                              (0, 3))
        oracle = compose(obj[0], grasp.wrist_pose)
        for t in range(3):
            assert pose_at(out, t).almost_equal(oracle, 1e-12)

    def test_rigid_constraint_holds_on_moving_object(self):
        rng = np.random.default_rng(33)
        grasp = GraspPose(random_pose(rng))
        obj = [random_pose(rng) for _ in range(20)]
        wrist = stack_poses([random_pose(rng) for _ in range(20)])
        out = recompute_wrist(stack_poses(obj), wrist, grasp, (4, 16), window=4)
        for i in range(4, 16):
            rel = compose(invert(obj[i]), pose_at(out, i))
            assert rel.almost_equal(grasp.wrist_pose, 1e-9)
        # flanks ramp toward the recomputed boundary poses
        assert same_bits(out[0][0], wrist[0][0]) and same_bits(out[1][0], wrist[1][0])
        assert pose_at(out, 19).almost_equal(pose_at(wrist, 19), 1e-12)

    def test_empty_contact(self):
        rng = np.random.default_rng(34)
        with pytest.raises(EmptyContact):
            recompute_wrist(stack_poses([random_pose(rng)]), stack_poses([random_pose(rng)]),
                            GraspPose(random_pose(rng)), (1, 1))

    def test_trajectory_arrays_differ_in_length(self):
        rng = np.random.default_rng(35)
        obj = stack_poses([random_pose(rng) for _ in range(4)])
        wrist = stack_poses([random_pose(rng) for _ in range(4)])
        for bad in ((obj[0], obj[1][:3]), obj), (obj, (wrist[0], wrist[1][:3])):
            with pytest.raises(ShapeMismatch):
                recompute_wrist(*bad, GraspPose(random_pose(rng)), (1, 3))


class TestBuildConditions:
    def make_motion(self, rng, t=8, j=3, contact=None):
        contact_arr = np.zeros((t, 2))
        if contact is not None:
            contact_arr[:] = contact
        return MotionSequence(
            fps=30,
            joints=rng.normal(size=(t, j, 3)),
            joint_rot6d=np.tile(np.array([1.0, 0, 0, 0, 1.0, 0]), (t, j, 1)),
            object_pos=rng.normal(size=(t, 3)),
            object_quat=np.array([random_quat(rng) for _ in range(t)]),
            contact=contact_arr,
        )

    def test_single_frame_carries_full_pose(self):
        rng = np.random.default_rng(40)
        motion = self.make_motion(rng, t=1, j=2)
        seg = segment_phases(motion.contact, min_run=1)
        cond = build_conditions(motion, seg, {"left": None, "right": None})
        d = 2 * 9
        assert cond.s_r.shape == (1, d + 12)
        assert np.array_equal(cond.s_r[0, :6], motion.joints[0].reshape(-1))
        assert np.all(cond.w == 0)

    def test_noncontact_rows_static_and_w_zero(self):
        rng = np.random.default_rng(41)
        contact = np.zeros((12, 2))
        contact[4:8, 1] = 1.0
        motion = self.make_motion(rng, t=12, j=2)
        motion.contact[:] = contact
        seg = segment_phases(motion.contact, min_run=2)
        grasp = GraspPose(random_pose(rng))
        cond = build_conditions(motion, seg, {"left": None, "right": grasp})
        d = 2 * 9
        static_pre = np.concatenate(
            [motion.object_pos[0],
             np.asarray(__import__("hoiplan.geometry", fromlist=["quat_to_matrix"])
                        .quat_to_matrix(motion.object_quat[0])).reshape(9)])
        for t in range(0, 4):
            assert np.allclose(cond.s_r[t, d:], static_pre) or t == 0
            assert np.all(cond.w[t] == 0)
        for t in range(4, 8):
            assert np.all(cond.w[t, 9:] != 0) or np.any(cond.w[t, 9:] != 0)
            assert np.all(cond.w[t, :9] == 0)
        assert np.array_equal(cond.contact_mask[:, 1],
                              (contact[:, 1] >= 0.5).astype(float))

    def test_mask_sparsity_matches_reference_bitmap(self):
        rng = np.random.default_rng(42)
        t, j = 70, 2
        contact = np.zeros((t, 2))
        contact[20:50, 0] = 1.0
        motion = self.make_motion(rng, t=t, j=j)
        motion.contact[:] = contact
        seg = segment_phases(motion.contact, min_run=2)
        grasp = GraspPose(random_pose(rng))
        waypoints = rng.normal(size=(2, 2))
        cond = build_conditions(motion, seg, {"left": grasp, "right": None},
                                waypoints=waypoints, waypoint_stride=30)
        d = j * 9
        # independently scripted expectation of which rows may be nonzero
        expected = np.zeros((t, d + 12), dtype=bool)
        expected[0, :] = True
        expected[t - 1, d:] = True
        expected[30, d:d + 2] = True
        expected[60, d:d + 2] = True
        for frame in range(t):
            if frame < 20 or frame >= 50:
                expected[frame, d:] = True
        got_nonzero = cond.s_r != 0
        assert not np.any(got_nonzero & ~expected)
        w_nonzero = np.any(cond.w != 0, axis=1)
        assert np.array_equal(np.nonzero(w_nonzero)[0], np.arange(20, 50))

    def test_waypoints_every_30(self):
        rng = np.random.default_rng(43)
        motion = self.make_motion(rng, t=95, j=1)
        motion.contact[10:92, 0] = 1.0  # carry spans the waypoint frames
        seg = segment_phases(motion.contact, min_run=1)
        wps = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        cond = build_conditions(motion, seg, {"left": None, "right": None}, waypoints=wps)
        d = 9
        assert np.array_equal(cond.s_r[30, d:d + 2], [1.0, 2.0])
        assert np.array_equal(cond.s_r[60, d:d + 2], [3.0, 4.0])
        assert np.array_equal(cond.s_r[90, d:d + 2], [5.0, 6.0])

    def test_waypoints_skip_static_frames(self):
        rng = np.random.default_rng(44)
        motion = self.make_motion(rng, t=95, j=1)
        motion.contact[40:92, 0] = 1.0  # frame 30 is still static
        seg = segment_phases(motion.contact, min_run=1)
        wps = np.array([[1.0, 2.0], [3.0, 4.0]])
        cond = build_conditions(motion, seg, {"left": None, "right": None}, waypoints=wps)
        d = 9
        assert np.array_equal(cond.s_r[30, d:d + 3],
                              np.concatenate([motion.object_pos[0]]))
        assert np.array_equal(cond.s_r[60, d:d + 2], [3.0, 4.0])


class TestIk:
    def test_target_at_effector_zero_iterations(self):
        chain = IkChain([1.0, 1.0])
        result = ik_solve(chain, np.array([2.0, 0.0, 0.0]))
        assert result.iterations == 0
        assert result.converged
        for q in result.rotations:
            assert quat_geodesic_angle(q, np.array([1, 0, 0, 0])) < 1e-12

    def test_two_link_reachable_matches_analytic(self):
        rng = np.random.default_rng(50)
        l1, l2 = 1.0, 0.7
        chain = IkChain([l1, l2])
        for _ in range(25):
            d = rng.uniform(abs(l1 - l2) + 0.05, l1 + l2 - 0.05)
            angle = rng.uniform(0, 2 * math.pi)
            target = np.array([d * math.cos(angle), d * math.sin(angle), 0.0])
            result = ik_solve(chain, target, max_iters=200, tol=1e-6)
            assert result.converged
            assert result.residual <= 1e-4
            # law of cosines oracle: elbow distance from base must equal l1
            elbow = result.joint_positions[1]
            assert np.linalg.norm(elbow - chain.base) == pytest.approx(l1, abs=1e-9)
            assert np.linalg.norm(result.joint_positions[2] - elbow) == pytest.approx(
                l2, abs=1e-9)

    def test_unreachable_flags_and_extends(self):
        chain = IkChain([1.0, 1.0])
        target = np.array([5.0, 0.0, 0.0])
        result = ik_solve(chain, target, max_iters=50, tol=1e-5)
        assert not result.converged
        assert result.residual == pytest.approx(3.0, abs=1e-6)
        ee = result.joint_positions[-1]
        assert np.linalg.norm(ee) == pytest.approx(2.0, abs=1e-9)
        assert ee @ target / (np.linalg.norm(ee) * np.linalg.norm(target)) == pytest.approx(
            1.0, abs=1e-9)

    def test_residual_history_non_increasing(self):
        rng = np.random.default_rng(51)
        for _ in range(10):
            chain = IkChain(list(rng.uniform(0.4, 1.2, size=3)))
            target = rng.normal(size=3)
            result = ik_solve(chain, target, max_iters=40, tol=1e-8)
            hist = result.residual_history
            assert all(a >= b - 1e-9 for a, b in zip(hist, hist[1:]))

    def test_pose_target_accepted(self):
        chain = IkChain([1.0])
        result = ik_solve(chain, Pose(np.array([0.0, 1.0, 0.0]), np.array([1, 0, 0, 0])))
        assert result.converged

    def test_bad_chain(self):
        with pytest.raises(ShapeMismatch):
            IkChain([])
        with pytest.raises(ShapeMismatch):
            IkChain([1.0, -0.5])


def test_object_contact_span():
    left = HandPhases((0, 5), (5, 9), (9, 12))
    right = HandPhases((0, 2), (2, 11), (11, 12))
    from hoiplan.motion import PhaseSegmentation
    assert object_contact_span(PhaseSegmentation(left, right)) == (2, 11)
    empty = HandPhases((0, 12), (12, 12), (12, 12))
    assert object_contact_span(PhaseSegmentation(empty, empty)) is None


def test_sample_box_surface_on_surface():
    h = np.array([0.3, 0.2, 0.5])
    pts = sample_box_surface(h, count=200, seed=0)
    assert pts.shape == (200, 3)
    on_face = np.isclose(np.abs(pts), h, atol=1e-12)
    assert np.all(on_face.any(axis=1))
    assert np.all(np.abs(pts) <= h + 1e-12)
    # seeded determinism
    assert np.array_equal(pts, sample_box_surface(h, count=200, seed=0))


def test_grasp_world_pose_matches_compose():
    rng = np.random.default_rng(60)
    obj = random_pose(rng)
    grasp = GraspPose(random_pose(rng))
    assert grasp_world_pose(obj, grasp).almost_equal(compose(obj, grasp.wrist_pose), 1e-12)


# ---------------------------------------------------------------------------
# lockstep CCD against the one-chain oracle

TARGET_KINDS = ("reachable", "unreachable", "base", "antiparallel", "parallel")


@st.composite
def ik_cases(draw, links):
    """(chain, target, initial rotations or None) with a target of a chosen kind."""
    floats = st.floats(-1.0, 1.0)
    lengths = [draw(st.floats(0.05, 1.5)) for _ in range(links)]
    chain = IkChain(lengths, base=np.array([draw(floats) for _ in range(3)]))
    rotations = None
    if draw(st.booleans()):
        rotations = np.array([[draw(st.floats(-2.0, 2.0)) for _ in range(4)]
                              for _ in range(links)])
        rotations[np.linalg.norm(rotations, axis=1) < 1e-3] = [1.0, 0.0, 0.0, 0.0]
    kind = draw(st.sampled_from(TARGET_KINDS))
    direction = np.array([draw(floats) for _ in range(3)])
    if np.linalg.norm(direction) < 1e-3:
        direction = np.array([0.0, 0.0, 1.0])
    direction /= np.linalg.norm(direction)
    if kind == "reachable":
        target = chain.base + direction * draw(st.floats(0.0, 1.0)) * chain.reach
    elif kind == "unreachable":
        target = chain.base + direction * draw(st.floats(1.05, 3.0)) * chain.reach
    elif kind == "base":
        target = chain.base.copy()
    else:  # on the line through a joint and the end effector, beyond or behind it
        pts, _ = fk_oracle(chain, rotations if rotations is not None
                            else [np.array([1.0, 0.0, 0.0, 0.0])] * links)
        pivot = pts[draw(st.integers(0, links - 1))]
        k = draw(st.floats(0.1, 2.0)) * (-1.0 if kind == "antiparallel" else 1.0)
        target = pivot + k * (pts[-1] - pivot)
    return chain, target, rotations


def assert_same_result(got, want):
    assert same_bits(np.array(got.rotations), np.array(want.rotations))
    assert same_bits(got.joint_positions, want.joint_positions)
    assert same_bits(got.residual_history, want.residual_history)
    assert got.residual.hex() == want.residual.hex()
    assert (got.iterations, got.converged) == (want.iterations, want.converged)
    assert type(got.iterations) is int and type(got.residual) is float


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          phases=NO_SHRINK)
@given(st.integers(1, 3).flatmap(ik_cases), st.integers(0, 40),
       st.sampled_from([1e-5, 1e-6, 1e-9]))
def test_ik_solve_matches_one_chain_oracle(case, max_iters, tol):
    chain, target, rotations = case
    assert_same_result(ik_solve(chain, target, rotations, max_iters, tol),
                       ik_solve_oracle(chain, target, rotations, max_iters, tol))


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          phases=NO_SHRINK)
@given(st.integers(1, 3).flatmap(lambda n: st.lists(ik_cases(n), min_size=1, max_size=12)),
       st.integers(1, 30), st.booleans())
def test_lockstep_ik_matches_oracle_per_chain(cases, max_iters, with_rotations):
    """Chains that stop after different sweep counts or skip joints do not disturb the rest."""
    identity = [[1.0, 0.0, 0.0, 0.0]] * len(cases[0][0].lengths)
    initial = [r if r is not None else identity for _, _, r in cases] \
        if with_rotations else None
    rot, pts, residual, iterations, history = ik_solve_batch(
        [c.lengths for c, _, _ in cases], [c.base for c, _, _ in cases],
        [t for _, t, _ in cases], initial, max_iters=max_iters, tol=1e-6)
    for k, (chain, target, _) in enumerate(cases):
        want = ik_solve_oracle(chain, target, initial[k] if initial else None, max_iters, 1e-6)
        assert same_bits(rot[k], np.array(want.rotations))
        assert same_bits(pts[k], want.joint_positions)
        assert residual[k].hex() == want.residual.hex() and iterations[k] == want.iterations
        assert same_bits(history[:want.iterations + 1, k], want.residual_history)


def test_ik_initial_rotations_need_one_per_link():
    with pytest.raises(ShapeMismatch):
        ik_solve(IkChain([1.0, 1.0]), [1.0, 0.0, 0.0], initial_rotations=[[1.0, 0, 0, 0]])


@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          phases=NO_SHRINK)
@given(st.integers(10, 40), st.data())
def test_postprocess_matches_per_frame_oracle(t, data):
    """Batched pinning, wrist rebuild, encode, lockstep IK and deviation against the
    frame loop, with the first/last frame or a given pose as the static poses."""
    s = data.draw(st.integers(0, t - 2))
    e = data.draw(st.integers(s + 1, t))
    motion, grasp = build_interaction_motion(t=t, contact_range=(s, e), seed=data.draw(
        st.integers(0, 1000)), noise=data.draw(st.sampled_from([0.0, 0.01, 0.05])))
    grasps = {"left": None, "right": grasp}
    if data.draw(st.booleans()):  # a second hand, held over its own frames
        ls = data.draw(st.integers(0, t - 1))
        motion.contact[ls:data.draw(st.integers(ls + 1, t)), 0] = 1.0
        rng = np.random.default_rng(ls)
        grasps["left"] = GraspPose(Pose(rng.normal(scale=0.2, size=3), random_quat(rng)))
    wrists = {"left": 0, "right": 3}
    chains = data.draw(st.sampled_from([{}, {"right": (1, 2, 3)},
                                        {"left": (1, 2, 0), "right": (1, 2, 3)}]))
    args = (data.draw(st.sampled_from([0.0, 0.5, 1.0])), data.draw(st.integers(1, 6)),
            data.draw(st.integers(1, 15)), wrists, chains,
            data.draw(st.none() | poses()), data.draw(st.none() | poses()))
    got, got_diag = postprocess_motion(motion, grasps, *args)
    want, want_diag = postprocess_oracle(motion, grasps, *args)
    assert dump_json(motion_to_json(got)) == dump_json(motion_to_json(want))
    assert dump_json(got_diag) == dump_json(want_diag)
