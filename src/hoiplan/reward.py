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
from .geometry import (Pose, matrix_to_quat, per_element, quat_geodesic_angle, quat_normalize,
                       rot6d_decode, vec_norm)
from .scene import MotionSequence, loads, read_field, read_number, read_text, require

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
    require(isinstance(raw, dict), "expected an object mapping link names to numbers", path)
    return {name: read_number(v, f"{path}/{name}") for name, v in raw.items()}


def load_weights(path) -> BodyWeights:
    doc = loads(read_text(path))
    return BodyWeights(*(_weight_table(read_field(doc, key, ""), f"/{key}")
                         for key in ("w_q", "w_p")))


# ---------------------------------------------------------------------------
# reward terms

@dataclass
class RewardBreakdown:
    r_body: float
    r_hand: float
    r_energy: float
    total: float


def _effective(weights: BodyWeights, active_object: str | None) -> BodyWeights:
    """``weights`` with the active object, if any, at unnormalized weight 1."""
    extra = {} if active_object is None else {active_object: OBJECT_WEIGHT}
    return BodyWeights({**weights.w_q, **extra}, {**weights.w_p, **extra})


def body_reward_batch(sim_quat, ref_quat, sim_pos, ref_pos, w_q, w_p) -> np.ndarray:
    """Per-frame body reward of (T, L, 4) orientations and (T, L, 3) positions.

    ``w_q`` and ``w_p`` hold one normalized weight per link. Each frame adds
    its weighted squared errors over the links in order, so every frame
    rounds exactly as ``body_reward`` on that frame alone.
    """
    e_q = quat_geodesic_angle(sim_quat, ref_quat)
    e_p = vec_norm(np.asarray(sim_pos, dtype=float) - ref_pos)
    sum_q = np.zeros(len(e_q))
    sum_p = np.zeros(len(e_p))
    for b, (wq, wp) in enumerate(zip(w_q, w_p)):
        sum_q += wq * e_q[:, b] * e_q[:, b]
        sum_p += wp * e_p[:, b] * e_p[:, b]
    return 0.5 * per_element(math.exp, -BODY_ERROR_SCALE * sum_q) \
        + 0.5 * per_element(math.exp, -BODY_ERROR_SCALE * sum_p)


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
    links = sorted(links)
    w_q, w_p = _effective(weights, active_object).normalized(links)

    def rows(frame, field):
        return np.array([[getattr(frame[b], field) for b in links]])
    return float(body_reward_batch(rows(sim_frame, "orientation"), rows(ref_frame, "orientation"),
                                   rows(sim_frame, "position"), rows(ref_frame, "position"),
                                   [w_q[b] for b in links], [w_p[b] for b in links])[0])


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


def energy_reward_batch(end_effector_accels) -> np.ndarray:
    """Per-frame energy reward of (T, E, 3) end-effector accelerations."""
    a = np.asarray(end_effector_accels, dtype=float)
    if not np.all(np.isfinite(a)):
        raise NonFiniteInput("accelerations must be finite")
    a = a.reshape(len(a), math.prod(a.shape[1:]))
    return per_element(math.exp, -ENERGY_SCALE * (a * a).sum(axis=1))


def energy_reward(end_effector_accels) -> float:
    """Penalty on end-effector linear acceleration (feet and hands, no fingers)."""
    return float(energy_reward_batch(
        np.asarray(end_effector_accels, dtype=float).reshape(1, -1, 3))[0])


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
    applies and the wrists and feet drive the energy term. Names must be
    distinct, and ``object`` names the active object, not a joint. The motion
    format carries no finger tracks, so the hand term is 1.0.
    """
    if (ref.num_frames, ref.num_joints) != (sim.num_frames, sim.num_joints):
        raise LengthMismatch("reference and simulated motions disagree in shape")
    t = ref.num_frames
    if joint_names is None:
        names = [f"joint{j}" for j in range(ref.num_joints)]
        weights = BodyWeights({n: 1.0 for n in names}, {n: 1.0 for n in names})
    else:
        names = list(joint_names)
        if len(names) != ref.num_joints:
            raise LengthMismatch(f"{len(names)} joint names given for {ref.num_joints} joints")
        if "object" in names:
            raise LinkSetMismatch("joint name 'object' is reserved for the active object")
        repeated = [n for i, n in enumerate(names) if n in names[:i]]
        if repeated:
            raise LinkSetMismatch(f"joint name {repeated[0]!r} is given more than once")

    labels = [*names, "object"]  # one column per joint, then the active object
    order = sorted(range(len(labels)), key=labels.__getitem__)
    links = [labels[k] for k in order]
    w_q, w_p = _effective(weights, "object").normalized(links)
    # decoded frame-major, sim before ref, so the first degenerate code in
    # that order names the error
    quat = matrix_to_quat(rot6d_decode(np.stack([sim.joint_rot6d, ref.joint_rot6d], axis=1)))

    def columns(joint_rows, object_rows):
        return np.concatenate([joint_rows, object_rows[:, None]], axis=1)[:, order]
    per_frame = body_reward_batch(
        columns(quat[:, 0], quat_normalize(sim.object_quat)),
        columns(quat[:, 1], quat_normalize(ref.object_quat)),
        columns(sim.joints, sim.object_pos), columns(ref.joints, ref.object_pos),
        [w_q[b] for b in links], [w_p[b] for b in links])

    energy = [1.0] * t
    effectors = [j for j, n in enumerate(names)
                 if n in ("left_wrist", "right_wrist", "left_foot", "right_foot")]
    if effectors and t >= 3:
        energy[1:t - 1] = energy_reward_batch(
            finite_difference_accels(sim.joints[:, effectors, :], sim.fps)).tolist()

    body_sum = 0.0
    energy_sum = 0.0
    for body, en in zip(per_frame.tolist(), energy):  # added in frame order
        body_sum += body
        energy_sum += en
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
