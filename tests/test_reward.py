import json
import math

import numpy as np
import pytest
from helpers import body_reward_oracle, random_quat, score_motion_oracle, weights_to_json
from hypothesis import given, settings
from hypothesis import strategies as st

import hoiplan.reward
from hoiplan.cli import main
from hoiplan.geometry import Pose, quat_from_axis_angle, rot6d_encode
from hoiplan.reward import (ALPHA_FAR, ALPHA_NEAR, DEFAULT_BODY_WEIGHTS, BodyWeights,
                            FingerFrame, FingerSetMismatch, LengthMismatch, LinkSetMismatch,
                            NonFiniteInput, RewardBreakdown, alpha_gate, body_reward,
                            energy_reward, finite_difference_accels, hand_reward,
                            score_motion, total_reward, tracking_error)
from hoiplan.scene import MotionSequence, dump_json, save_motion


def identity_frame(links):
    return {b: Pose(np.zeros(3), np.array([1.0, 0, 0, 0])) for b in links}


LINKS = sorted(DEFAULT_BODY_WEIGHTS.w_q)


class TestBodyReward:
    def test_perfect_tracking(self):
        frame = identity_frame(LINKS)
        assert body_reward(frame, identity_frame(LINKS)) == 1.0

    def test_single_link_orientation_error(self):
        # one link with w_q = 1 normalized, angle^2 = 1/15 -> 0.5 e^-1 + 0.5
        weights = BodyWeights({"root": 1.0}, {"root": 1.0})
        angle = math.sqrt(1.0 / 15.0)
        sim = {"root": Pose(np.zeros(3), quat_from_axis_angle(np.array([0, 0, angle])))}
        ref = identity_frame(["root"])
        got = body_reward(sim, ref, weights)
        assert got == pytest.approx(0.5 * math.exp(-1.0) + 0.5, abs=1e-12)

    def test_root_position_error(self):
        # 0.1 m root error with normalized w_p(root) = 1: 0.5 + 0.5 exp(-0.15)
        weights = BodyWeights({"root": 1.0}, {"root": 1.0})
        sim = {"root": Pose(np.array([0.1, 0, 0]), np.array([1.0, 0, 0, 0]))}
        got = body_reward(sim, identity_frame(["root"]), weights)
        assert got == pytest.approx(0.5 + 0.5 * math.exp(-0.15), abs=1e-12)

    def test_normalization_invariance(self):
        rng = np.random.default_rng(1)
        sim = {b: Pose(rng.normal(size=3) * 0.05,
                       quat_from_axis_angle(rng.normal(size=3) * 0.1)) for b in LINKS}
        ref = identity_frame(LINKS)
        base = body_reward(sim, ref, DEFAULT_BODY_WEIGHTS)
        scaled = BodyWeights({k: 7.5 * v for k, v in DEFAULT_BODY_WEIGHTS.w_q.items()},
                             {k: 7.5 * v for k, v in DEFAULT_BODY_WEIGHTS.w_p.items()})
        assert body_reward(sim, ref, scaled) == pytest.approx(base, abs=1e-12)

    def test_active_object_enters_with_unit_weight(self):
        links = ["root", "crate"]
        sim = identity_frame(links)
        sim["crate"] = Pose(np.array([0.2, 0, 0]), np.array([1.0, 0, 0, 0]))
        ref = identity_frame(links)
        weights = BodyWeights({"root": 1.0}, {"root": 1.0})
        got = body_reward(sim, ref, weights, active_object="crate")
        # both root and crate carry unnormalized 1; crate contributes 0.5 * 0.04
        expected = 0.5 + 0.5 * math.exp(-15.0 * 0.5 * 0.04)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_no_active_object_drops_term(self):
        weights = BodyWeights({"root": 1.0}, {"root": 1.0})
        sim = identity_frame(["root"])
        assert body_reward(sim, identity_frame(["root"]), weights,
                           active_object=None) == 1.0

    def test_link_set_mismatch(self):
        with pytest.raises(LinkSetMismatch):
            body_reward(identity_frame(["root"]), identity_frame(["root", "head"]))

    def test_decreasing_in_error(self):
        weights = BodyWeights({"root": 1.0}, {"root": 1.0})
        ref = identity_frame(["root"])
        last = 1.1
        for mag in (0.0, 0.1, 0.2, 0.4):
            sim = {"root": Pose(np.array([mag, 0, 0]), np.array([1.0, 0, 0, 0]))}
            got = body_reward(sim, ref, weights)
            assert got < last
            last = got


class TestAlphaGate:
    def test_gate_endpoints(self):
        assert alpha_gate(0.25) == 1.0
        assert alpha_gate(1.0) == 0.0
        assert alpha_gate(0.1) == 1.0
        assert alpha_gate(2.0) == 0.0

    def test_midpoint(self):
        assert alpha_gate(0.625) == pytest.approx(0.5, abs=1e-15)

    def test_continuous_piecewise_linear(self):
        xs = np.linspace(0.0, 1.5, 301)
        ys = [alpha_gate(float(x)) for x in xs]
        diffs = np.abs(np.diff(ys))
        assert diffs.max() <= (xs[1] - xs[0]) / (ALPHA_FAR - ALPHA_NEAR) + 1e-12
        assert all(0.0 <= y <= 1.0 for y in ys)


class TestHandReward:
    def test_perfect(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(5, 3))
        frame = FingerFrame(pts, pts * 0.5)
        assert hand_reward(frame, FingerFrame(pts.copy(), pts * 0.5), 0.1) == 1.0

    def test_near_uses_object_frame_only(self):
        sim = FingerFrame(np.zeros((2, 3)), np.ones((2, 3)))
        ref = FingerFrame(np.zeros((2, 3)), np.zeros((2, 3)))
        # d <= 0.25: wrist-frame error ignored
        assert hand_reward(sim, ref, 0.2) == 1.0

    def test_far_uses_wrist_frame_only(self):
        sim = FingerFrame(np.ones((2, 3)), np.zeros((2, 3)))
        ref = FingerFrame(np.zeros((2, 3)), np.zeros((2, 3)))
        assert hand_reward(sim, ref, 1.5) == 1.0

    def test_formula_value(self):
        sim = FingerFrame(np.array([[0.1, 0, 0]]), np.zeros((1, 3)))
        ref = FingerFrame(np.zeros((1, 3)), np.zeros((1, 3)))
        got = hand_reward(sim, ref, 0.0)
        assert got == pytest.approx(math.exp(-5.0 * 0.1), abs=1e-12)

    def test_per_finger_distances(self):
        sim = FingerFrame(np.array([[0.1, 0, 0], [0.1, 0, 0]]),
                          np.array([[0.2, 0, 0], [0.2, 0, 0]]))
        ref = FingerFrame(np.zeros((2, 3)), np.zeros((2, 3)))
        got = hand_reward(sim, ref, [0.0, 2.0])
        assert got == pytest.approx(math.exp(-(5.0 / 2.0) * (0.1 + 0.2)), abs=1e-12)

    def test_mismatch(self):
        with pytest.raises(FingerSetMismatch):
            hand_reward(FingerFrame(np.zeros((2, 3)), np.zeros((2, 3))),
                        FingerFrame(np.zeros((3, 3)), np.zeros((3, 3))), 0.1)

    def test_continuous_in_distance(self):
        rng = np.random.default_rng(3)
        sim = FingerFrame(rng.normal(size=(4, 3)) * 0.1, rng.normal(size=(4, 3)) * 0.1)
        ref = FingerFrame(np.zeros((4, 3)), np.zeros((4, 3)))
        ds = np.linspace(0.0, 1.2, 200)
        vals = [hand_reward(sim, ref, float(d)) for d in ds]
        assert np.abs(np.diff(vals)).max() < 0.05


class TestEnergyReward:
    def test_zero_accel(self):
        assert energy_reward(np.zeros((4, 3))) == 1.0

    def test_single_effector_900(self):
        a = np.array([[30.0, 0.0, 0.0]])  # norm^2 = 900
        assert energy_reward(a) == pytest.approx(math.exp(-1.0), abs=1e-15)

    def test_monotone(self):
        last = 1.1
        for mag in (0.0, 5.0, 10.0, 20.0):
            got = energy_reward(np.array([[mag, 0, 0]]))
            assert got < last or mag == 0.0
            last = got

    def test_non_finite(self):
        with pytest.raises(NonFiniteInput):
            energy_reward(np.array([[np.inf, 0, 0]]))


class TestTotalReward:
    def test_perfect_is_1_05(self):
        frame = identity_frame(LINKS)
        fingers = FingerFrame(np.zeros((3, 3)), np.zeros((3, 3)))
        got = total_reward(frame, identity_frame(LINKS), DEFAULT_BODY_WEIGHTS,
                           np.zeros((2, 3)), sim_fingers=fingers,
                           ref_fingers=FingerFrame(np.zeros((3, 3)), np.zeros((3, 3))),
                           hand_object_distance_ref=0.1)
        assert (got.r_body, got.r_hand, got.r_energy) == (1.0, 1.0, 1.0)
        assert got.total == 1.05

    def test_weighted_sum(self):
        frame = identity_frame(LINKS)
        got = total_reward(frame, identity_frame(LINKS))
        assert got.total == pytest.approx(0.8 * got.r_body + 0.2 * got.r_hand
                                          + 0.05 * got.r_energy, abs=0)

    def test_decomposition_reassembles(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            sim = {b: Pose(rng.normal(size=3) * 0.1, random_quat(rng)) for b in LINKS}
            ref = {b: Pose(rng.normal(size=3) * 0.1, random_quat(rng)) for b in LINKS}
            accels = rng.normal(size=(4, 3)) * 3
            got = total_reward(sim, ref, DEFAULT_BODY_WEIGHTS, accels)
            assert got.total == 0.8 * got.r_body + 0.2 * got.r_hand + 0.05 * got.r_energy
            assert 0.0 < got.r_body <= 1.0
            assert 0.0 < got.r_energy <= 1.0


class TestTrackingError:
    def make_motion(self, joints, object_pos):
        t, j, _ = joints.shape
        return MotionSequence(30, joints, np.tile(np.array([1.0, 0, 0, 0, 1, 0]), (t, j, 1)),
                              object_pos, np.tile(np.array([1.0, 0, 0, 0]), (t, 1)),
                              np.zeros((t, 2)))

    def test_identical_zero(self):
        rng = np.random.default_rng(5)
        joints = rng.normal(size=(6, 4, 3))
        obj = rng.normal(size=(6, 3))
        m = self.make_motion(joints, obj)
        err = tracking_error(m, self.make_motion(joints.copy(), obj.copy()))
        assert err.e_h_cm == 0.0 and err.e_o_cm == 0.0

    def test_constant_offset_1cm(self):
        rng = np.random.default_rng(6)
        joints = rng.normal(size=(6, 4, 3))
        obj = rng.normal(size=(6, 3))
        sim = self.make_motion(joints + np.array([0.01, 0, 0]), obj + np.array([0.01, 0, 0]))
        err = tracking_error(sim, self.make_motion(joints, obj))
        assert err.e_h_cm == pytest.approx(1.0, abs=1e-9)
        assert err.e_o_cm == pytest.approx(1.0, abs=1e-9)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(7)
        joints_a = rng.normal(size=(5, 3, 3))
        joints_b = rng.normal(size=(5, 3, 3))
        obj_a = rng.normal(size=(5, 3))
        obj_b = rng.normal(size=(5, 3))
        err = tracking_error(self.make_motion(joints_a, obj_a),
                             self.make_motion(joints_b, obj_b))
        total_h = 0.0
        for t in range(5):
            per_joint = 0.0
            for j in range(3):
                per_joint += math.dist(joints_a[t, j], joints_b[t, j])
            total_h += per_joint / 3
        total_o = sum(math.dist(obj_a[t], obj_b[t]) for t in range(5))
        assert err.e_h_cm == pytest.approx(total_h / 5 * 100, abs=1e-9)
        assert err.e_o_cm == pytest.approx(total_o / 5 * 100, abs=1e-9)

    def test_length_mismatch(self):
        rng = np.random.default_rng(8)
        a = self.make_motion(rng.normal(size=(4, 2, 3)), rng.normal(size=(4, 3)))
        b = self.make_motion(rng.normal(size=(5, 2, 3)), rng.normal(size=(5, 3)))
        with pytest.raises(LengthMismatch):
            tracking_error(a, b)


def test_finite_difference_accels():
    fps = 30.0
    t = np.arange(10) / fps
    # constant acceleration trajectory: p = 0.5 * a * t^2
    a_true = np.array([1.0, -2.0, 0.5])
    p = 0.5 * a_true * t[:, None] ** 2
    accels = finite_difference_accels(p[:, None, :], fps)
    assert np.allclose(accels, a_true, atol=1e-6)


@pytest.mark.parametrize("doc, path", [
    ({"w_q": [1], "w_p": {}}, "/w_q"),
    ({"w_q": {"root": "x"}, "w_p": {}}, "/w_q/root"),
    ({"w_q": {"root": True}, "w_p": {}}, "/w_q/root"),
    ({"w_q": {"root": 1.0}, "w_p": {"left_wrist": None}}, "/w_p/left_wrist"),
    ({"w_q": {}, "w_p": 3}, "/w_p"),
])
def test_weights_tables_must_map_names_to_numbers(tmp_path, doc, path):
    import json as _json
    from hoiplan.reward import load_weights
    from hoiplan.scene import SchemaError
    (tmp_path / "weights.json").write_text(_json.dumps(doc))
    with pytest.raises(SchemaError) as e:
        load_weights(tmp_path / "weights.json")
    assert e.value.path == path


def test_weights_json_round_trip(tmp_path):
    from hoiplan.reward import load_weights
    import json as _json
    path = tmp_path / "weights.json"
    path.write_text(_json.dumps(weights_to_json(DEFAULT_BODY_WEIGHTS)))
    again = load_weights(path)
    assert again.w_q == DEFAULT_BODY_WEIGHTS.w_q
    assert again.w_p == DEFAULT_BODY_WEIGHTS.w_p


# ---------------------------------------------------------------------------
# batched scoring against the per-frame scorer

def random_motion(rng, t, j):
    quats = rng.normal(size=(t, j, 4))
    rot6d = rot6d_encode(quats / np.linalg.norm(quats, axis=-1, keepdims=True))
    return MotionSequence(30, rng.normal(scale=0.5, size=(t, j, 3)), rot6d,
                          rng.normal(size=(t, 3)), rng.normal(size=(t, 4)), np.zeros((t, 2)))


def perturbed(rng, motion, scale):
    """A copy with noise of the given scale on joints, 6D codes and object pose,
    leaving about 30% of the frames exact."""
    out = MotionSequence(motion.fps, motion.joints.copy(), motion.joint_rot6d.copy(),
                         motion.object_pos.copy(), motion.object_quat.copy(),
                         motion.contact.copy())
    keep = rng.uniform(size=motion.num_frames) < 0.3
    for arr in (out.joints, out.joint_rot6d, out.object_pos, out.object_quat):
        noise = rng.normal(scale=scale, size=arr.shape)
        noise[keep] = 0.0
        arr += noise
    return out


_LINK_NAMES = sorted(hoiplan.reward.DEFAULT_W_Q) + ["left_toe", "custom"]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 9), st.integers(1, 12), st.floats(0.0, 0.5), st.booleans(),
       st.integers(0, 2**32 - 1), st.data())
def test_score_motion_matches_per_frame_oracle(t, j, scale, named, seed, data):
    rng = np.random.default_rng(seed)
    ref = random_motion(rng, t, j)
    sim = perturbed(rng, ref, scale)
    names = data.draw(st.lists(st.sampled_from(_LINK_NAMES), min_size=j, max_size=j,
                               unique=True)) if named else None
    weights = DEFAULT_BODY_WEIGHTS
    if data.draw(st.booleans()):
        weights = BodyWeights({n: data.draw(st.floats(0.0, 2.0)) for n in _LINK_NAMES[::2]},
                              {n: data.draw(st.floats(0.0, 2.0)) for n in _LINK_NAMES[1::2]})
    got = score_motion(ref, sim, weights, names)
    assert dump_json(got) == dump_json(score_motion_oracle(ref, sim, weights, names))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 5), st.integers(0, 2**32 - 1), st.booleans())
def test_body_reward_matches_oracle(links, seed, active):
    rng = np.random.default_rng(seed)
    names = [f"l{i}" for i in range(links)]
    sim = {n: Pose(rng.normal(size=3), random_quat(rng)) for n in names}
    ref = {n: Pose(rng.normal(size=3), random_quat(rng)) for n in names}
    weights = BodyWeights({n: float(rng.uniform()) for n in names},
                          {n: float(rng.uniform()) for n in names})
    obj = names[-1] if active else None
    want = body_reward_oracle(sim, ref, weights, obj)
    assert body_reward(sim, ref, weights, obj).hex() == want.hex()


def test_score_decodes_each_motion_in_one_batch(monkeypatch):
    """A 300x22 clip is decoded in at most two calls, not once per frame and joint."""
    rng = np.random.default_rng(5)
    ref = random_motion(rng, 300, 22)
    sim = perturbed(rng, ref, 0.01)
    calls = []
    decode = hoiplan.reward.rot6d_decode

    def counted(r6):
        calls.append(np.shape(r6))
        return decode(r6)
    monkeypatch.setattr(hoiplan.reward, "rot6d_decode", counted)
    for names in ([f"joint{j}" for j in range(22)], None):
        calls.clear()
        score_motion(ref, sim, DEFAULT_BODY_WEIGHTS, names)
        assert 1 <= len(calls) <= 2


@pytest.mark.parametrize("names,message", [
    ("root,root,left_wrist,right_wrist", "joint name 'root' is given more than once"),
    ("root,object,left_wrist,right_wrist", "joint name 'object' is reserved")])
def test_duplicate_or_reserved_joint_name_is_rejected(names, message, tmp_path, capsys):
    rng = np.random.default_rng(6)
    ref = random_motion(rng, 12, 4)
    save_motion(ref, tmp_path / "ref.json")
    save_motion(perturbed(rng, ref, 0.05), tmp_path / "sim.json")
    rc = main(["score", "--ref", str(tmp_path / "ref.json"), "--sim", str(tmp_path / "sim.json"),
               "--joint-names", names])
    assert rc == 1
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["code"] == "reward.link_set_mismatch"
    assert error["message"].startswith(message)
