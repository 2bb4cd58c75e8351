"""Tracking reward for scoring a simulated motion against its kinematic reference.

The total is a fixed blend ``0.8 * body + 0.2 * hand + 0.05 * energy``. The
body term scores weighted link orientation/position errors, the hand term
scores finger positions relative to the object or wrist (blended by a
distance gate), and the energy term penalizes end-effector acceleration.
Everything is a pure function so the evaluator doubles as a standalone
motion-quality metric.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import HoiplanError
from .geometry import Pose, quat_geodesic_angle
from .scene import MotionSequence, SchemaError, finite, loads, read_text

BODY_WEIGHT = 0.8
HAND_WEIGHT = 0.2
ENERGY_WEIGHT = 0.05
BODY_ERROR_SCALE = 15.0
HAND_ERROR_SCALE = 5.0
ENERGY_SCALE = 1.0 / 900.0
ALPHA_NEAR = 0.25   # meters; at or below this the object frame fully applies
ALPHA_FAR = 1.0     # meters; at or beyond this the wrist frame fully applies


class LinkSetMismatch(HoiplanError):
    code = "reward.link_set_mismatch"


class FingerSetMismatch(HoiplanError):
    code = "reward.finger_set_mismatch"


class NonFiniteInput(HoiplanError):
    code = "reward.non_finite_input"


class LengthMismatch(HoiplanError):
    code = "reward.length_mismatch"


# Paired links carry half of their listed weight per side; everything not
# listed is zero. Position tracking covers only the root and end effectors.
DEFAULT_W_Q = {
    "root": 1.0,
    "lower_abdomen": 0.2,
    "upper_abdomen": 0.2,
    "chest": 0.2,
    "neck": 0.2,
    "head": 0.2,
    "left_clavicle": 0.05, "right_clavicle": 0.05,
    "left_upper_arm": 0.1, "right_upper_arm": 0.1,
    "left_lower_arm": 0.1, "right_lower_arm": 0.1,
    "left_wrist": 0.15, "right_wrist": 0.15,
    "left_thigh": 0.25, "right_thigh": 0.25,
    "left_calf": 0.15, "right_calf": 0.15,
    "left_foot": 0.1, "right_foot": 0.1,
}
DEFAULT_W_P = {
    "root": 1.0,
    "left_wrist": 0.15, "right_wrist": 0.15,
    "left_foot": 0.05, "right_foot": 0.05,
}
OBJECT_WEIGHT = 1.0  # the active target object enters with w_q = w_p = 1


@dataclass
class BodyWeights:
    """Unnormalized per-link weights; normalization happens over the links present."""

    w_q: dict[str, float]
    w_p: dict[str, float]

    def normalized(self, links) -> tuple[dict[str, float], dict[str, float]]:
        q = {b: self.w_q.get(b, 0.0) for b in links}
        p = {b: self.w_p.get(b, 0.0) for b in links}
        sq = sum(q.values())
        sp = sum(p.values())
        if sq <= 0 or sp <= 0:
            raise LinkSetMismatch("weights over the given links sum to zero")
        return {b: v / sq for b, v in q.items()}, {b: v / sp for b, v in p.items()}


DEFAULT_BODY_WEIGHTS = BodyWeights(dict(DEFAULT_W_Q), dict(DEFAULT_W_P))


def _weight_table(raw, path: str) -> dict[str, float]:
    if not isinstance(raw, dict):
        raise SchemaError("expected an object mapping link names to numbers", path)
    for name, v in raw.items():
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise SchemaError("expected a number", f"{path}/{name}")
    finite(list(raw.values()), path)
    return {name: float(v) for name, v in raw.items()}


def load_weights(path) -> BodyWeights:
    doc = loads(read_text(path))
    if not isinstance(doc, dict) or "w_q" not in doc or "w_p" not in doc:
        raise SchemaError("expected an object with 'w_q' and 'w_p'", "")
    return BodyWeights(_weight_table(doc["w_q"], "/w_q"), _weight_table(doc["w_p"], "/w_p"))


def weights_to_json(weights: BodyWeights) -> dict:
    return {"w_q": {k: float(v) for k, v in sorted(weights.w_q.items())},
            "w_p": {k: float(v) for k, v in sorted(weights.w_p.items())}}


# ---------------------------------------------------------------------------
# reward terms

@dataclass
class RewardBreakdown:
    r_body: float
    r_hand: float
    r_energy: float
    total: float


def body_reward(sim_frame: dict[str, Pose], ref_frame: dict[str, Pose],
                weights: BodyWeights = DEFAULT_BODY_WEIGHTS,
                active_object: str | None = None) -> float:
    """Weighted link orientation/position accuracy against the reference frame.

    Orientation errors are geodesic angles in radians, position errors are
    Euclidean distances in meters. The active object, when given, joins the
    link set with unnormalized weight 1 on both terms; weights are then
    normalized over the links actually present.
    """
    links = set(sim_frame)
    if links != set(ref_frame):
        raise LinkSetMismatch("simulated and reference frames list different links")
    if active_object is not None and active_object not in links:
        raise LinkSetMismatch(f"active object {active_object!r} missing from the frames")
    effective = BodyWeights(dict(weights.w_q), dict(weights.w_p))
    if active_object is not None:
        effective.w_q[active_object] = OBJECT_WEIGHT
        effective.w_p[active_object] = OBJECT_WEIGHT
    w_q, w_p = effective.normalized(sorted(links))
    sum_q = 0.0
    sum_p = 0.0
    for b in sorted(links):
        e_q = quat_geodesic_angle(sim_frame[b].orientation, ref_frame[b].orientation)
        e_p = float(np.linalg.norm(sim_frame[b].position - ref_frame[b].position))
        sum_q += w_q[b] * e_q * e_q
        sum_p += w_p[b] * e_p * e_p
    return 0.5 * math.exp(-BODY_ERROR_SCALE * sum_q) \
        + 0.5 * math.exp(-BODY_ERROR_SCALE * sum_p)


def alpha_gate(distance: float) -> float:
    """Blend weight for the object-frame finger error: 1 near, 0 far, linear between."""
    if distance <= ALPHA_NEAR:
        return 1.0
    if distance >= ALPHA_FAR:
        return 0.0
    return (ALPHA_FAR - distance) / (ALPHA_FAR - ALPHA_NEAR)


@dataclass
class FingerFrame:
    """Finger positions expressed in the object frame and in the wrist frame."""

    in_object: np.ndarray  # (F, 3)
    in_wrist: np.ndarray   # (F, 3)

    def __post_init__(self):
        self.in_object = np.asarray(self.in_object, dtype=float)
        self.in_wrist = np.asarray(self.in_wrist, dtype=float)
        if self.in_object.shape != self.in_wrist.shape or self.in_object.ndim != 2 \
                or self.in_object.shape[1] != 3:
            raise FingerSetMismatch("finger arrays must both be (F, 3)")


def hand_reward(sim: FingerFrame, ref: FingerFrame, hand_object_distance_ref) -> float:
    """Finger accuracy blended between object-relative and wrist-relative errors.

    ``hand_object_distance_ref`` is the hand-object distance in the reference
    motion (scalar, or one value per finger when the fingers span both hands);
    it drives the alpha gate.
    """
    if sim.in_object.shape != ref.in_object.shape:
        raise FingerSetMismatch("simulated and reference finger counts differ")
    f = sim.in_object.shape[0]
    if f == 0:
        raise FingerSetMismatch("no fingers given")
    d = np.asarray(hand_object_distance_ref, dtype=float).reshape(-1)
    if d.shape[0] == 1:
        d = np.repeat(d, f)
    if d.shape[0] != f:
        raise FingerSetMismatch("need one distance, or one per finger")
    total = 0.0
    for i in range(f):
        a = alpha_gate(float(d[i]))
        e_o = float(np.linalg.norm(sim.in_object[i] - ref.in_object[i]))
        e_w = float(np.linalg.norm(sim.in_wrist[i] - ref.in_wrist[i]))
        total += a * e_o + (1.0 - a) * e_w
    return math.exp(-(HAND_ERROR_SCALE / f) * total)


def energy_reward(end_effector_accels) -> float:
    """Penalty on end-effector linear acceleration (feet and hands, no fingers)."""
    a = np.asarray(end_effector_accels, dtype=float).reshape(-1, 3)
    if not np.all(np.isfinite(a)):
        raise NonFiniteInput("accelerations must be finite")
    return math.exp(-ENERGY_SCALE * float((a * a).sum()))


def total_reward(sim_frame: dict[str, Pose], ref_frame: dict[str, Pose],
                 weights: BodyWeights = DEFAULT_BODY_WEIGHTS,
                 end_effector_accels=None,
                 active_object: str | None = None,
                 sim_fingers: FingerFrame | None = None,
                 ref_fingers: FingerFrame | None = None,
                 hand_object_distance_ref=None) -> RewardBreakdown:
    """Blended tracking reward; perfect tracking scores (1, 1, 1, 1.05)."""
    r_body = body_reward(sim_frame, ref_frame, weights, active_object)
    if sim_fingers is not None and ref_fingers is not None:
        r_hand = hand_reward(sim_fingers, ref_fingers,
                             hand_object_distance_ref if hand_object_distance_ref is not None
                             else 0.0)
    else:
        r_hand = 1.0
    r_energy = energy_reward(end_effector_accels if end_effector_accels is not None
                             else np.zeros((0, 3)))
    total = BODY_WEIGHT * r_body + HAND_WEIGHT * r_hand + ENERGY_WEIGHT * r_energy
    return RewardBreakdown(r_body, r_hand, r_energy, total)


# ---------------------------------------------------------------------------
# sequence-level metrics

@dataclass
class TrackingError:
    """Mean positional tracking error in centimeters for joints and the object."""

    e_h_cm: float
    e_o_cm: float


def tracking_error(sim_seq: MotionSequence, ref_seq: MotionSequence) -> TrackingError:
    """Mean per-frame, per-joint Euclidean error plus object position error, in cm."""
    if sim_seq.num_frames != ref_seq.num_frames:
        raise LengthMismatch("sequences differ in frame count")
    if sim_seq.num_joints != ref_seq.num_joints:
        raise LengthMismatch("sequences differ in joint count")
    joint_err = np.linalg.norm(sim_seq.joints - ref_seq.joints, axis=2)
    obj_err = np.linalg.norm(sim_seq.object_pos - ref_seq.object_pos, axis=1)
    return TrackingError(float(joint_err.mean(axis=1).mean()) * 100.0,
                         float(obj_err.mean()) * 100.0)


def finite_difference_accels(positions, fps: float) -> np.ndarray:
    """Central-difference linear accelerations of an (T, N, 3) position track."""
    p = np.asarray(positions, dtype=float)
    if p.shape[0] < 3:
        return np.zeros((0,) + p.shape[1:])
    return (p[2:] - 2.0 * p[1:-1] + p[:-2]) * float(fps) * float(fps)


def score_motion(ref: MotionSequence, sim: MotionSequence, weights: BodyWeights,
                 joint_names: list[str] | None = None) -> dict:
    """Sequence-level report: mean per-frame rewards plus tracking error.

    Without ``joint_names`` every joint weighs 1 and the energy term reads
    1.0, since end effectors cannot be identified; with names, ``weights``
    applies and the wrists and feet drive the energy term. The motion format
    carries no finger tracks, so the hand term is 1.0.
    """
    if (ref.num_frames, ref.num_joints) != (sim.num_frames, sim.num_joints):
        raise LengthMismatch("reference and simulated motions disagree in shape")
    t = ref.num_frames
    if joint_names is None:
        names = [f"joint{j}" for j in range(ref.num_joints)]
        weights = BodyWeights({n: 1.0 for n in names}, {n: 1.0 for n in names})
    else:
        names = joint_names
        if len(names) != ref.num_joints:
            raise LengthMismatch(f"{len(names)} joint names given for {ref.num_joints} joints")

    effectors = [j for j, n in enumerate(names)
                 if n in ("left_wrist", "right_wrist", "left_foot", "right_foot")]
    sim_accels = finite_difference_accels(sim.joints[:, effectors, :], sim.fps) \
        if effectors else np.zeros((0, 0, 3))

    body_sum = 0.0
    energy_sum = 0.0
    for i in range(t):
        sim_frame = {n: sim.joint_pose(i, j) for j, n in enumerate(names)}
        ref_frame = {n: ref.joint_pose(i, j) for j, n in enumerate(names)}
        sim_frame["object"] = sim.object_pose(i)
        ref_frame["object"] = ref.object_pose(i)
        body_sum += body_reward(sim_frame, ref_frame, weights, active_object="object")
        if effectors and 1 <= i <= t - 2:
            energy_sum += energy_reward(sim_accels[i - 1])
        else:
            energy_sum += 1.0
    r_body = body_sum / t
    r_hand = 1.0
    r_energy = energy_sum / t
    err = tracking_error(sim, ref)
    return {
        "frames": t,
        "tracking_error": {"e_h_cm": err.e_h_cm, "e_o_cm": err.e_o_cm},
        "reward": {
            "r_body": r_body,
            "r_hand": r_hand,
            "r_energy": r_energy,
            "total": BODY_WEIGHT * r_body + HAND_WEIGHT * r_hand + ENERGY_WEIGHT * r_energy,
        },
    }
