"""Deterministic kinematic processing around the learned motion models.

Covers contact-phase segmentation, the wrist-object relative-pose loss, the
boundary-smoothing ramp, rigid wrist recomputation from a grasp held through
the contact phase, condition-tensor assembly, and a small CCD inverse
kinematics solver. Everything here is a pure function of its inputs.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import HoiplanError
from .geometry import (Pose, compose, quat_conjugate, quat_from_axis_angle,
                       quat_geodesic_angle, quat_multiply, quat_normalize, quat_rotate,
                       quat_to_axis_angle, quat_to_matrix, rot6d_encode)
from .scene import MotionSequence, SchemaError, finite, loads, read_text

CONTACT_THRESHOLD = 0.5
CONTACT_MIN_RUN = 5      # frames; about a sixth of a second at 30 fps
SMOOTHING_WINDOW = 15    # frames
WAYPOINT_STRIDE = 30     # frames between conditioned 2D waypoints
REST_SURFACE_SAMPLES = 100
REST_SURFACE_SEED = 11


class ShapeMismatch(HoiplanError):
    code = "motion.shape_mismatch"


class WindowOutOfRange(HoiplanError):
    code = "motion.window_out_of_range"


class EmptyContact(HoiplanError):
    code = "motion.empty_contact"


class JointOutOfRange(HoiplanError):
    code = "motion.joint_out_of_range"


# ---------------------------------------------------------------------------
# contact phases

@dataclass(frozen=True)
class HandPhases:
    """Pre/contact/post frame ranges partitioning [0, T) for one hand."""

    pre: tuple[int, int]
    contact: tuple[int, int]
    post: tuple[int, int]

    @property
    def has_contact(self) -> bool:
        return self.contact[1] > self.contact[0]


@dataclass(frozen=True)
class PhaseSegmentation:
    left: HandPhases
    right: HandPhases

    def hand(self, name: str) -> HandPhases:
        return self.left if name == "left" else self.right


def segment_hand(labels, threshold: float = CONTACT_THRESHOLD,
                 min_run: int = CONTACT_MIN_RUN) -> HandPhases:
    """Segment one hand's label track into pre/contact/post phases.

    The contact phase is the longest run of frames at or above the threshold
    after discarding runs shorter than ``min_run`` (the first such run wins
    ties); the flanks become pre- and post-contact.
    """
    labels = np.asarray(labels, dtype=float).reshape(-1)
    t = len(labels)
    if t < 1:
        raise ShapeMismatch("labels must cover at least one frame")
    runs = []
    start = None
    for i, on in enumerate(labels >= threshold):
        if on and start is None:
            start = i
        elif not on and start is not None:
            runs.append((start, i))
            start = None
    if start is not None:
        runs.append((start, t))
    runs = [(s, e) for s, e in runs if e - s >= min_run]
    if not runs:
        return HandPhases((0, t), (t, t), (t, t))
    s, e = max(runs, key=lambda r: r[1] - r[0])
    return HandPhases((0, s), (s, e), (e, t))


def segment_phases(labels, threshold: float = CONTACT_THRESHOLD,
                   min_run: int = CONTACT_MIN_RUN) -> PhaseSegmentation:
    """Per-hand segmentation of a (T, 2) label array (left, right)."""
    labels = np.asarray(labels, dtype=float)
    if labels.ndim != 2 or labels.shape[1] != 2:
        raise ShapeMismatch(f"labels must be (T, 2), got {labels.shape}")
    return PhaseSegmentation(segment_hand(labels[:, 0], threshold, min_run),
                             segment_hand(labels[:, 1], threshold, min_run))


def average_pose(poses) -> Pose:
    """Mean pose: arithmetic position mean, sign-aligned normalized quaternion mean."""
    poses = list(poses)
    if not poses:
        raise EmptyContact("cannot average zero poses")
    pos = np.mean([p.position for p in poses], axis=0)
    ref = poses[0].orientation
    acc = np.zeros(4)
    for p in poses:
        q = p.orientation
        acc += q if float(q @ ref) >= 0 else -q
    return Pose(pos, quat_normalize(acc))


# ---------------------------------------------------------------------------
# wrist-object relative pose

@dataclass
class GraspPose:
    """Optimized grasp: wrist pose in the object frame plus opaque finger state."""

    wrist_pose: Pose
    finger_pose: np.ndarray | None = None

    def __post_init__(self):
        if self.finger_pose is not None:
            self.finger_pose = np.asarray(self.finger_pose, dtype=float)


def parse_grasps_json(text: str) -> dict[str, GraspPose | None]:
    """Per-hand grasp file: {"left": {"pos", "quat", "fingers"?} | null, "right": ...}."""
    doc = loads(text)
    if not isinstance(doc, dict):
        raise SchemaError("expected an object with 'left' and 'right'", "")
    out: dict[str, GraspPose | None] = {}
    for hand in ("left", "right"):
        raw = doc.get(hand)
        if raw is None:
            out[hand] = None
            continue
        try:
            pose = Pose(finite(raw["pos"], f"/{hand}/pos"), finite(raw["quat"], f"/{hand}/quat"))
            fingers = finite(raw["fingers"], f"/{hand}/fingers") if "fingers" in raw else None
        except (KeyError, TypeError, ValueError) as e:
            raise SchemaError(f"bad grasp: {e}", f"/{hand}") from e
        out[hand] = GraspPose(pose, fingers)
    return out


def grasps_to_json(grasps: dict[str, GraspPose | None]) -> dict:
    out = {}
    for hand in ("left", "right"):
        g = grasps.get(hand)
        if g is None:
            out[hand] = None
            continue
        entry = {"pos": [float(v) for v in g.wrist_pose.position],
                 "quat": [float(v) for v in g.wrist_pose.orientation]}
        if g.finger_pose is not None:
            entry["fingers"] = [float(v) for v in g.finger_pose]
        out[hand] = entry
    return out


def load_grasps(path) -> dict[str, GraspPose | None]:
    return parse_grasps_json(read_text(path))


def points_in_wrist_frame(object_traj, wrist_traj, rest_points) -> np.ndarray:
    """Object surface points expressed in the wrist frame at every time step."""
    rest_points = np.asarray(rest_points, dtype=float)
    if len(object_traj) != len(wrist_traj):
        raise ShapeMismatch("object and wrist trajectories differ in length")
    out = np.empty((len(object_traj), rest_points.shape[0], 3))
    for t, (obj, wrist) in enumerate(zip(object_traj, wrist_traj)):
        k_global = quat_rotate(obj.orientation, rest_points) + obj.position
        out[t] = quat_rotate(quat_conjugate(wrist.orientation), k_global - wrist.position)
    return out


def relative_pose_loss(object_traj, wrist_traj, rest_points, wrist_reference,
                       labels) -> tuple[float, np.ndarray]:
    """Contact-masked L1 distance between surface points seen from the wrist.

    Per frame the rest points are carried to world by the object pose, pulled
    into the wrist frame, and compared against the reference; the per-frame
    term is scaled by that frame's contact label. Returns the total plus the
    per-frame breakdown.
    """
    rest_points = np.asarray(rest_points, dtype=float)
    wrist_reference = np.asarray(wrist_reference, dtype=float)
    labels = np.asarray(labels, dtype=float).reshape(-1)
    t = len(object_traj)
    if not (len(wrist_traj) == t and wrist_reference.shape[0] == t and labels.shape[0] == t):
        raise ShapeMismatch("trajectory, reference, and label lengths disagree")
    if wrist_reference.shape[1:] != rest_points.shape:
        raise ShapeMismatch("reference shape does not match the rest points")
    predicted = points_in_wrist_frame(object_traj, wrist_traj, rest_points)
    per_frame = labels * np.abs(predicted - wrist_reference).sum(axis=(1, 2))
    return float(per_frame.sum()), per_frame


def sample_box_surface(half_extents, count: int = REST_SURFACE_SAMPLES,
                       seed: int = REST_SURFACE_SEED) -> np.ndarray:
    """Seeded uniform samples on a box surface, area-weighted across faces."""
    h = np.asarray(half_extents, dtype=float).reshape(3)
    rng = np.random.default_rng(seed)
    areas = np.array([h[1] * h[2], h[1] * h[2], h[0] * h[2],
                      h[0] * h[2], h[0] * h[1], h[0] * h[1]])
    face = rng.choice(6, size=count, p=areas / areas.sum())
    uv = rng.uniform(-1.0, 1.0, size=(count, 2))
    pts = np.empty((count, 3))
    for i in range(count):
        axis = face[i] // 2
        sign = 1.0 if face[i] % 2 == 0 else -1.0
        rest = [a for a in range(3) if a != axis]
        pts[i, axis] = sign * h[axis]
        pts[i, rest[0]] = uv[i, 0] * h[rest[0]]
        pts[i, rest[1]] = uv[i, 1] * h[rest[1]]
    return pts


# ---------------------------------------------------------------------------
# boundary smoothing

def pose_delta(target: Pose, base: Pose) -> np.ndarray:
    """6-vector (position delta, axis-angle delta) such that base + delta = target."""
    dpos = target.position - base.position
    drot = quat_to_axis_angle(quat_multiply(target.orientation,
                                            quat_conjugate(base.orientation)))
    return np.concatenate([dpos, drot])


def apply_pose_delta(pose: Pose, delta, alpha: float) -> Pose:
    """Blend a 6-vector delta onto a pose; rotation via the exponential map."""
    delta = np.asarray(delta, dtype=float).reshape(6)
    pos = pose.position + alpha * delta[:3]
    rot = quat_multiply(quat_from_axis_angle(alpha * delta[3:]), pose.orientation)
    return Pose(pos, rot)


def ramp_poses(traj, boundary: int, window: int, delta,
               direction: str = "forward") -> list[Pose]:
    """Fade a pose delta from full strength at the boundary to zero over a window.

    ``forward`` touches frames [boundary, boundary+window); ``backward``
    touches (boundary-window, boundary]. Frames at or past the window end are
    returned untouched (bit-identical).
    """
    traj = list(traj)
    t = len(traj)
    if not 0 <= boundary < t:
        raise WindowOutOfRange(f"boundary {boundary} outside [0, {t})")
    if window < 1:
        raise WindowOutOfRange(f"window must be at least 1, got {window}")
    out = list(traj)
    if float(np.abs(np.asarray(delta, dtype=float)).max()) < 1e-12:
        return out  # nothing to smooth; keep frames bit-identical
    for k in range(window):
        idx = boundary + k if direction == "forward" else boundary - k
        if not 0 <= idx < t:
            break
        alpha = 1.0 - k / window
        out[idx] = apply_pose_delta(traj[idx], delta, alpha)
    return out


def smooth_boundary(traj, boundary: int, window: int, static_pose: Pose,
                    direction: str = "forward") -> list[Pose]:
    """Ramp a trajectory so its boundary frame lands exactly on the static pose."""
    traj = list(traj)
    if not 0 <= boundary < len(traj):
        raise WindowOutOfRange(f"boundary {boundary} outside [0, {len(traj)})")
    delta = pose_delta(static_pose, traj[boundary])
    return ramp_poses(traj, boundary, window, delta, direction)


# ---------------------------------------------------------------------------
# wrist recomputation

def grasp_world_pose(object_pose: Pose, grasp: GraspPose) -> Pose:
    """Wrist world pose implied by the grasp rigidly attached to the object."""
    return compose(object_pose, grasp.wrist_pose)


def recompute_wrist(object_traj, wrist_traj, grasp: GraspPose, contact: tuple[int, int],
                    window: int = SMOOTHING_WINDOW) -> list[Pose]:
    """Rigidly recompute contact-phase wrist poses from the object and grasp.

    Contact frames become exactly object_pose * grasp; the pre- and
    post-contact flanks are ramped toward the recomputed boundary values so
    the hand does not pop at the phase edges.
    """
    s, e = contact
    t = len(object_traj)
    if len(wrist_traj) != t:
        raise ShapeMismatch("object and wrist trajectories differ in length")
    if not (0 <= s < e <= t):
        raise EmptyContact(f"contact range {contact} is empty or out of bounds")
    out = list(wrist_traj)
    for i in range(s, e):
        out[i] = grasp_world_pose(object_traj[i], grasp)
    if s > 0:
        out[:s] = smooth_boundary(wrist_traj, s, window, out[s], direction="backward")[:s]
    if e < t:
        out[e:] = smooth_boundary(wrist_traj, e - 1, window, out[e - 1], direction="forward")[e:]
    return out


# ---------------------------------------------------------------------------
# condition tensors

@dataclass
class ConditionTensors:
    """Sparse conditioning arrays: masked motion, wrist-object pose, contact mask."""

    s_r: np.ndarray           # (T, D + 12)
    w: np.ndarray             # (T, 18): per hand, position + 6D rotation in object frame
    contact_mask: np.ndarray  # (T, 2)


def _object_row(pose: Pose) -> np.ndarray:
    return np.concatenate([pose.position, quat_to_matrix(pose.orientation).reshape(9)])


def _human_row(motion: MotionSequence, t: int) -> np.ndarray:
    return np.concatenate([motion.joints[t].reshape(-1), motion.joint_rot6d[t].reshape(-1)])


def object_contact_span(seg: PhaseSegmentation) -> tuple[int, int] | None:
    """Union of both hands' contact ranges; None when nothing is ever held."""
    ranges = [h.contact for h in (seg.left, seg.right) if h.contact[1] > h.contact[0]]
    if not ranges:
        return None
    return min(r[0] for r in ranges), max(r[1] for r in ranges)


def build_conditions(motion: MotionSequence, seg: PhaseSegmentation,
                     grasps: dict[str, GraspPose | None],
                     waypoints=None, waypoint_stride: int = WAYPOINT_STRIDE) -> ConditionTensors:
    """Assemble the conditioning tensors for motion re-generation.

    The masked motion carries the full first frame, the final object pose, a
    2D waypoint every ``waypoint_stride`` frames, and the static object pose
    on every frame outside the combined contact span. The wrist-object block
    holds each granted hand's grasp pose (position + 6D rotation in the
    object frame) on its contact frames only.
    """
    t = motion.num_frames
    d = motion.num_joints * 9
    s_r = np.zeros((t, d + 12))
    s_r[0, :d] = _human_row(motion, 0)
    s_r[0, d:] = _object_row(motion.object_pose(0))
    s_r[t - 1, d:] = _object_row(motion.object_pose(t - 1))

    span = object_contact_span(seg)
    pre_static = _object_row(motion.object_pose(0))
    post_static = _object_row(motion.object_pose(t - 1))
    for frame in range(t):
        if span is None or frame < span[0]:
            s_r[frame, d:] = pre_static
        elif frame >= span[1]:
            s_r[frame, d:] = post_static

    if waypoints is not None and span is not None:
        waypoints = np.asarray(waypoints, dtype=float)
        if waypoints.ndim != 2 or waypoints.shape[1] != 2:
            raise ShapeMismatch(f"waypoints must be (K, 2), got {waypoints.shape}")
        k = 0
        for frame in range(waypoint_stride, t - 1, waypoint_stride):
            if k >= len(waypoints):
                break
            # waypoints describe the carried object; static frames keep their pose
            if span[0] <= frame < span[1]:
                s_r[frame, d:d + 2] = waypoints[k]
            k += 1

    w = np.zeros((t, 18))
    contact_mask = np.zeros((t, 2))
    for col, hand in enumerate(("left", "right")):
        phases = seg.hand(hand)
        cs, ce = phases.contact
        contact_mask[cs:ce, col] = 1.0
        grasp = grasps.get(hand)
        if grasp is None or not phases.has_contact:
            continue
        row = np.concatenate([grasp.wrist_pose.position,
                              rot6d_encode(grasp.wrist_pose.orientation)])
        w[cs:ce, col * 9:(col + 1) * 9] = row
    return ConditionTensors(s_r, w, contact_mask)


# ---------------------------------------------------------------------------
# cyclic coordinate descent IK

@dataclass
class IkChain:
    """Ball-jointed chain; segment i extends along local +x for length[i]."""

    lengths: list[float]
    base: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        self.lengths = [float(l) for l in self.lengths]
        if not self.lengths or any(l <= 0 for l in self.lengths):
            raise ShapeMismatch("chain lengths must all be positive")
        self.base = np.asarray(self.base, dtype=float).reshape(3)

    @property
    def reach(self) -> float:
        return sum(self.lengths)


@dataclass
class IkResult:
    rotations: list[np.ndarray]        # per-joint local quaternions
    joint_positions: np.ndarray        # (n+1, 3): joints plus end effector
    residual: float
    iterations: int
    converged: bool
    residual_history: list[float]


def _fk(chain: IkChain, rotations) -> tuple[np.ndarray, list[np.ndarray]]:
    """Joint positions plus end effector, and each joint's parent frame."""
    pts = [chain.base]
    frames = []
    frame = np.array([1.0, 0.0, 0.0, 0.0])
    for length, q in zip(chain.lengths, rotations):
        frames.append(frame)
        frame = quat_multiply(frame, q)
        pts.append(pts[-1] + quat_rotate(frame, np.array([length, 0.0, 0.0])))
    return np.array(pts), frames


def _align_quat(v_from, v_to) -> np.ndarray:
    """Quaternion rotating v_from onto v_to (both assumed nonzero)."""
    a = v_from / np.linalg.norm(v_from)
    b = v_to / np.linalg.norm(v_to)
    c = np.cross(a, b)
    d = float(a @ b)
    n = float(np.linalg.norm(c))
    if n < 1e-12:
        if d > 0:
            return np.array([1.0, 0.0, 0.0, 0.0])
        # antiparallel: rotate pi about any perpendicular axis
        perp = np.cross(a, [1.0, 0.0, 0.0])
        if np.linalg.norm(perp) < 1e-9:
            perp = np.cross(a, [0.0, 1.0, 0.0])
        perp /= np.linalg.norm(perp)
        return np.array([0.0, perp[0], perp[1], perp[2]])
    angle = math.atan2(n, d)
    axis = c / n
    return quat_from_axis_angle(axis * angle)


def ik_solve(chain: IkChain, target, initial_rotations=None, max_iters: int = 100,
             tol: float = 1e-5) -> IkResult:
    """Cyclic coordinate descent toward a target end-effector position.

    ``target`` may be a 3-vector or a Pose (only its position is used). An
    unreachable target is not an error: the result comes back flagged with
    ``converged=False`` and the chain stretched toward the target.
    """
    target_pos = target.position if isinstance(target, Pose) else \
        np.asarray(target, dtype=float).reshape(3)
    n = len(chain.lengths)
    rotations = [quat_normalize(q) for q in initial_rotations] if initial_rotations \
        else [np.array([1.0, 0.0, 0.0, 0.0]) for _ in range(n)]

    pts, frames = _fk(chain, rotations)
    residual = float(np.linalg.norm(pts[-1] - target_pos))
    history = [residual]
    iterations = 0
    while residual > tol and iterations < max_iters:
        for i in range(n - 1, -1, -1):
            pivot = pts[i]
            v1 = pts[-1] - pivot
            v2 = target_pos - pivot
            if np.linalg.norm(v1) < 1e-12 or np.linalg.norm(v2) < 1e-12:
                continue
            g = _align_quat(v1, v2)
            # g is a world-frame rotation; express it in joint i's parent frame
            local = quat_multiply(quat_multiply(quat_conjugate(frames[i]), g), frames[i])
            rotations[i] = quat_normalize(quat_multiply(local, rotations[i]))
            pts, frames = _fk(chain, rotations)
        residual = float(np.linalg.norm(pts[-1] - target_pos))
        history.append(residual)
        iterations += 1
    return IkResult(rotations, pts, residual, iterations, residual <= tol, history)


# ---------------------------------------------------------------------------
# end-to-end post-processing

def pose_jump(traj) -> float:
    """Largest frame-to-frame pose change: position norm plus rotation angle."""
    worst = 0.0
    for a, b in zip(traj, traj[1:]):
        jump = float(np.linalg.norm(b.position - a.position)) \
            + quat_geodesic_angle(a.orientation, b.orientation)
        worst = max(worst, jump)
    return worst


def postprocess_motion(motion: MotionSequence, grasps: dict[str, GraspPose | None],
                       threshold: float = CONTACT_THRESHOLD,
                       min_run: int = CONTACT_MIN_RUN,
                       window: int = SMOOTHING_WINDOW,
                       wrist_joints: dict[str, int] | None = None,
                       arm_chains: dict[str, tuple[int, int, int]] | None = None,
                       static_pre: Pose | None = None,
                       static_post: Pose | None = None) -> tuple[MotionSequence, dict]:
    """Pin the object static outside contact, smooth the seams, rebuild wrists.

    Outside the combined contact span the object pose is replaced by the
    static pre/post pose (defaulting to the first/last frame); ramps inside
    the contact phase remove the resulting seams. Hands with a grasp get
    their wrist joint rigidly recomputed from the object trajectory, with an
    optional per-arm CCD pass to keep the elbow consistent. Returns the new
    sequence plus a diagnostics dict. Raises JointOutOfRange for a wrist or
    arm-chain index that names no joint of the motion.
    """
    chains = (arm_chains or {}).values()
    for j in [*(wrist_joints or {}).values(), *(j for chain in chains for j in chain)]:
        if not 0 <= j < motion.num_joints:
            raise JointOutOfRange(f"joint index {j} is outside the motion's "
                                  f"{motion.num_joints} joints", index=j,
                                  joints=motion.num_joints)
    t = motion.num_frames
    seg = segment_phases(motion.contact, threshold, min_run)
    span = object_contact_span(seg)

    before = [motion.object_pose(i) for i in range(t)]
    traj = list(before)
    pre_pose = static_pre if static_pre is not None else before[0]
    post_pose = static_post if static_post is not None else before[-1]

    if span is None:
        traj = [pre_pose] * t
    else:
        s, e = span
        for i in range(s):
            traj[i] = pre_pose
        for i in range(e, t):
            traj[i] = post_pose
        win = max(1, min(window, e - s))
        if s > 0:
            traj = smooth_boundary(traj, s, win, pre_pose, direction="forward")
        if e < t:
            traj = smooth_boundary(traj, e - 1, win, post_pose, direction="backward")

    joints = motion.joints.copy()
    rot6d = motion.joint_rot6d.copy()
    diagnostics = {
        "segmentation": {
            hand: {"pre": list(seg.hand(hand).pre), "contact": list(seg.hand(hand).contact),
                   "post": list(seg.hand(hand).post)}
            for hand in ("left", "right")
        },
        "object_jump_before": pose_jump(before),
        "object_jump_after": pose_jump(traj),
        "wrists": {},
    }

    for hand in ("left", "right"):
        grasp = grasps.get(hand)
        phases = seg.hand(hand)
        if grasp is None or not phases.has_contact:
            continue
        if wrist_joints is None or hand not in wrist_joints:
            continue
        widx = wrist_joints[hand]
        old_wrist = [motion.joint_pose(i, widx) for i in range(t)]
        new_wrist = recompute_wrist(traj, old_wrist, grasp, phases.contact, window)
        ik_residuals = []
        for i in range(t):
            joints[i, widx] = new_wrist[i].position
            rot6d[i, widx] = rot6d_encode(new_wrist[i].orientation)
        if arm_chains and hand in arm_chains:
            shoulder, elbow, wrist = arm_chains[hand]
            for i in range(t):
                if np.allclose(new_wrist[i].position, old_wrist[i].position, atol=1e-12):
                    continue
                l1 = float(np.linalg.norm(motion.joints[i, elbow] - motion.joints[i, shoulder]))
                l2 = float(np.linalg.norm(motion.joints[i, wrist] - motion.joints[i, elbow]))
                if l1 <= 1e-9 or l2 <= 1e-9:
                    continue
                chain = IkChain([l1, l2], base=motion.joints[i, shoulder])
                result = ik_solve(chain, new_wrist[i].position, max_iters=30, tol=1e-6)
                joints[i, elbow] = result.joint_positions[1]
                ik_residuals.append(result.residual)
        deviation = 0.0
        for i in range(*phases.contact):
            obj = traj[i]
            wrist_in_obj = Pose(
                quat_rotate(quat_conjugate(obj.orientation),
                            new_wrist[i].position - obj.position),
                quat_multiply(quat_conjugate(obj.orientation), new_wrist[i].orientation))
            deviation = max(deviation,
                            float(np.linalg.norm(wrist_in_obj.position
                                                 - grasp.wrist_pose.position))
                            + quat_geodesic_angle(wrist_in_obj.orientation,
                                                  grasp.wrist_pose.orientation))
        diagnostics["wrists"][hand] = {
            "grasp_deviation": deviation,
            "ik_residual_max": max(ik_residuals) if ik_residuals else 0.0,
        }

    out = MotionSequence(motion.fps, joints, rot6d,
                         np.array([p.position for p in traj]),
                         np.array([p.orientation for p in traj]),
                         motion.contact.copy())
    return out, diagnostics
