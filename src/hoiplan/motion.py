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
from .geometry import (Pose, cross, matrix_to_quat, per_element, quat_conjugate,
                       quat_from_axis_angle, quat_geodesic_angle, quat_multiply,
                       quat_normalize, quat_rotate, quat_to_axis_angle, quat_to_matrix,
                       rot6d_decode, rot6d_encode, vec_norm)
from .scene import MotionSequence, loads, read_floats, read_pose, read_text, require

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


class UnknownDirection(HoiplanError):
    code = "motion.unknown_direction"


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
    require(isinstance(doc, dict), "expected an object with 'left' and 'right'", "")
    for key in doc:
        require(key in ("left", "right"), "unknown key; expected 'left' or 'right'", f"/{key}")
    out: dict[str, GraspPose | None] = {}
    for hand in ("left", "right"):
        raw = doc.get(hand)
        path = f"/{hand}"
        out[hand] = None if raw is None else GraspPose(
            read_pose(raw, path),
            read_floats(raw["fingers"], None, f"{path}/fingers") if "fingers" in raw else None)
    return out


def load_grasps(path) -> dict[str, GraspPose | None]:
    return parse_grasps_json(read_text(path))


def points_in_wrist_frame(object_traj, wrist_traj, rest_points) -> np.ndarray:
    """Object surface points expressed in the wrist frame at every time step.

    Each trajectory is a (positions (T, 3), unit quaternions (T, 4)) pair;
    the result is (T, N, 3) for N rest points.
    """
    obj_pos, obj_quat, wrist_pos, wrist_quat = (np.asarray(a, dtype=float)
                                                for a in (*object_traj, *wrist_traj))
    if not len(obj_pos) == len(obj_quat) == len(wrist_pos) == len(wrist_quat):
        raise ShapeMismatch("trajectory arrays differ in length")
    k_global = quat_rotate(obj_quat[:, None], rest_points) + obj_pos[:, None]
    return quat_rotate(quat_conjugate(wrist_quat)[:, None], k_global - wrist_pos[:, None])


def relative_pose_loss(object_traj, wrist_traj, rest_points, wrist_reference,
                       labels) -> tuple[float, np.ndarray]:
    """Contact-masked L1 distance between surface points seen from the wrist.

    Per frame the rest points are carried to world by the object pose, pulled
    into the wrist frame, and compared against the reference; the per-frame
    term is scaled by that frame's contact label. The trajectories are
    (positions, quaternions) pairs as in ``points_in_wrist_frame``. Returns
    the total plus the per-frame breakdown.
    """
    rest_points = np.asarray(rest_points, dtype=float)
    wrist_reference = np.asarray(wrist_reference, dtype=float)
    labels = np.asarray(labels, dtype=float).reshape(-1)
    t = len(object_traj[0])
    if not (len(wrist_traj[0]) == t and wrist_reference.shape[0] == t and labels.shape[0] == t):
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


def ramp_poses(traj, boundary: int, window: int, delta,
               direction: str = "forward") -> tuple[np.ndarray, np.ndarray]:
    """Fade a pose delta from full strength at the boundary to zero over a window.

    ``traj`` is a (positions (T, 3), unit quaternions (T, 4)) pair, and a new
    pair comes back. ``forward`` touches frames [boundary, boundary+window);
    ``backward`` touches (boundary-window, boundary]. Frames at or past the
    window end keep their bits. Rotations blend via the exponential map.
    """
    if direction not in ("forward", "backward"):
        raise UnknownDirection(f"direction must be 'forward' or 'backward', got {direction!r}")
    pos, quat = (np.array(a, dtype=float) for a in traj)
    t = len(pos)
    if not 0 <= boundary < t:
        raise WindowOutOfRange(f"boundary {boundary} outside [0, {t})")
    if window < 1:
        raise WindowOutOfRange(f"window must be at least 1, got {window}")
    delta = np.asarray(delta, dtype=float).reshape(6)
    if float(np.abs(delta).max()) < 1e-12:
        return pos, quat  # nothing to smooth; keep frames bit-identical
    forward = direction == "forward"
    k = np.arange(min(window, t - boundary if forward else boundary + 1))
    frames = boundary + k if forward else boundary - k
    alpha = (1.0 - k / window)[:, None]
    pos[frames] += alpha * delta[:3]
    quat[frames] = quat_normalize(quat_multiply(quat_from_axis_angle(alpha * delta[3:]),
                                                quat[frames]))
    return pos, quat


def smooth_boundary(traj, boundary: int, window: int, static_pose: Pose,
                    direction: str = "forward") -> tuple[np.ndarray, np.ndarray]:
    """Ramp a (positions, quaternions) trajectory so its boundary frame lands
    exactly on the static pose."""
    pos, quat = traj
    if not 0 <= boundary < len(pos):
        raise WindowOutOfRange(f"boundary {boundary} outside [0, {len(pos)})")
    delta = pose_delta(static_pose, Pose(pos[boundary], quat[boundary]))
    return ramp_poses(traj, boundary, window, delta, direction)


# ---------------------------------------------------------------------------
# wrist recomputation

def recompute_wrist(object_traj, wrist_traj, grasp: GraspPose, contact: tuple[int, int],
                    window: int = SMOOTHING_WINDOW) -> tuple[np.ndarray, np.ndarray]:
    """Rigidly recompute contact-phase wrist poses from the object and grasp.

    Both trajectories are (positions (T, 3), unit quaternions (T, 4)) pairs,
    and the new wrist trajectory comes back as one. Contact frames become
    exactly object pose * grasp; the pre- and post-contact flanks are ramped
    toward the recomputed boundary values so the hand does not pop at the
    phase edges.
    """
    s, e = contact
    obj_pos, obj_quat = object_traj
    t = len(obj_pos)
    if not t == len(obj_quat) == len(wrist_traj[0]) == len(wrist_traj[1]):
        raise ShapeMismatch("trajectory arrays differ in length")
    if not (0 <= s < e <= t):
        raise EmptyContact(f"contact range {contact} is empty or out of bounds")
    g = grasp.wrist_pose
    held_pos = quat_rotate(obj_quat[s:e], g.position) + obj_pos[s:e]
    held_quat = quat_normalize(quat_multiply(obj_quat[s:e], g.orientation))
    pre = post = wrist_traj
    if s > 0:
        pre = smooth_boundary(wrist_traj, s, window, Pose(held_pos[0], held_quat[0]),
                              direction="backward")
    if e < t:
        post = smooth_boundary(wrist_traj, e - 1, window, Pose(held_pos[-1], held_quat[-1]),
                               direction="forward")
    return tuple(np.concatenate([a[:s], held, b[e:]])
                 for a, held, b in zip(pre, (held_pos, held_quat), post))


# ---------------------------------------------------------------------------
# condition tensors

@dataclass
class ConditionTensors:
    """Sparse conditioning arrays: masked motion, wrist-object pose, contact mask."""

    s_r: np.ndarray           # (T, D + 12)
    w: np.ndarray             # (T, 18): per hand, position + 6D rotation in object frame
    contact_mask: np.ndarray  # (T, 2)


def _object_row(pos, quat) -> np.ndarray:
    return np.concatenate([pos, quat_to_matrix(quat_normalize(quat)).reshape(9)])


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
    s_r[0, d:] = _object_row(motion.object_pos[0], motion.object_quat[0])
    s_r[t - 1, d:] = _object_row(motion.object_pos[-1], motion.object_quat[-1])

    span = object_contact_span(seg)
    s, e = span or (t, t)  # static frames: before the span, or all without one
    s_r[:s, d:] = s_r[0, d:]
    s_r[e:, d:] = s_r[t - 1, d:]

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


def _fk(lengths, rotations, start, frame) -> tuple[np.ndarray, np.ndarray]:
    """Positions (K, n+1, 3) and parent frames (K, n+1, 4) from start (K, 3) in frame (K, 4) on."""
    k, n = lengths.shape
    pts = np.empty((k, n + 1, 3))
    frames = np.empty((k, n + 1, 4))
    pts[:, 0], frames[:, 0] = start, frame
    segment = np.zeros((k, 3))
    for i in range(n):
        frame = frames[:, i + 1] = quat_multiply(frame, rotations[:, i])
        segment[:, 0] = lengths[:, i]
        pts[:, i + 1] = pts[:, i] + quat_rotate(frame, segment)
    return pts, frames


def _align_quat(v_from, v_to) -> np.ndarray:
    """Quaternions rotating each row of v_from onto v_to (rows assumed nonzero)."""
    a = v_from / vec_norm(v_from)[:, None]
    b = v_to / vec_norm(v_to)[:, None]
    c = cross(a, b)
    d = np.vecdot(a, b)
    n = vec_norm(c)
    with np.errstate(divide="ignore", invalid="ignore"):  # (anti)parallel rows, replaced below
        q = quat_from_axis_angle(c / n[:, None] * per_element(math.atan2, n, d)[:, None])
    parallel = n < 1e-12
    if parallel.any():
        # identity, or for antiparallel rows a half turn about a perpendicular axis
        a = a[parallel]
        perp = cross(a, np.array([1.0, 0.0, 0.0]))
        thin = vec_norm(perp) < 1e-9
        perp[thin] = cross(a[thin], np.array([0.0, 1.0, 0.0]))
        perp /= vec_norm(perp)[:, None]
        half_turn = np.concatenate([np.zeros((len(perp), 1)), perp], axis=1)
        q[parallel] = np.where((d[parallel] > 0)[:, None], [1.0, 0.0, 0.0, 0.0], half_turn)
    return q


def ik_solve_batch(lengths, base, target, initial_rotations=None, max_iters: int = 100,
                   tol: float = 1e-5):
    """Cyclic coordinate descent on K chains of n links at once, in lockstep.

    ``lengths`` is (K, n), ``base`` and ``target`` (K, 3) and
    ``initial_rotations`` (K, n, 4) or None for identities. Each chain sweeps
    until its own residual is at most ``tol`` or it has run ``max_iters``
    sweeps, and comes out exactly as ``ik_solve`` on that chain alone. Returns
    rotations (K, n, 4), joint positions (K, n+1, 3), residuals (K,),
    iterations (K,) and the residual after each sweep, (max iterations + 1, K).
    """
    lengths = np.asarray(lengths, dtype=float)
    base = np.asarray(base, dtype=float)
    target = np.asarray(target, dtype=float)
    k, n = lengths.shape
    rot = np.tile([1.0, 0.0, 0.0, 0.0], (k, n, 1)) if initial_rotations is None \
        else np.array(quat_normalize(initial_rotations))
    pts, frames = _fk(lengths, rot, base, np.tile([1.0, 0.0, 0.0, 0.0], (k, 1)))
    residual = vec_norm(pts[:, -1] - target)
    history = [residual]
    iterations = np.zeros(k, dtype=int)
    active = np.arange(k)
    for _ in range(max_iters):  # every chain still active has run the same sweeps
        active = active[residual[active] > tol]
        if not active.size:
            break
        for i in range(n - 1, -1, -1):
            pivot = pts[active, i]
            v1 = pts[active, -1] - pivot
            v2 = target[active] - pivot
            moves = ~((vec_norm(v1) < 1e-12) | (vec_norm(v2) < 1e-12))
            rows = active[moves]
            g = _align_quat(v1[moves], v2[moves])
            # g is a world-frame rotation; express it in joint i's parent frame
            parent = frames[rows, i]
            local = quat_multiply(quat_multiply(quat_conjugate(parent), g), parent)
            rot[rows, i] = quat_normalize(quat_multiply(local, rot[rows, i]))
            # joints 0..i and their frames did not move
            pts[rows, i:], frames[rows, i:] = _fk(lengths[rows, i:], rot[rows, i:],
                                                  pts[rows, i], frames[rows, i])
        residual = residual.copy()
        residual[active] = vec_norm(pts[active, -1] - target[active])
        history.append(residual)
        iterations[active] += 1
    return rot, pts, residual, iterations, np.array(history)


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
    if initial_rotations is not None:
        initial_rotations = np.asarray(initial_rotations, dtype=float)
        if initial_rotations.shape != (n, 4):
            raise ShapeMismatch(f"need one quaternion per link, got shape "
                                f"{initial_rotations.shape} for {n} links")
        initial_rotations = initial_rotations[None]
    rot, pts, residual, iterations, history = ik_solve_batch(
        [chain.lengths], chain.base[None], target_pos[None], initial_rotations, max_iters, tol)
    done = int(iterations[0])
    return IkResult(list(rot[0]), pts[0], float(residual[0]), done, bool(residual[0] <= tol),
                    history[:done + 1, 0].tolist())


# ---------------------------------------------------------------------------
# end-to-end post-processing

def pose_jump(traj) -> float:
    """Largest frame-to-frame change of a (positions, quaternions) trajectory:
    position norm plus rotation angle."""
    pos, quat = traj
    jumps = vec_norm(pos[1:] - pos[:-1]) + quat_geodesic_angle(quat[:-1], quat[1:])
    return max([0.0, *jumps.tolist()])


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

    before = motion.object_pos, quat_normalize(motion.object_quat)
    pre_pose = static_pre if static_pre is not None else Pose(before[0][0], before[1][0])
    post_pose = static_post if static_post is not None else Pose(before[0][-1], before[1][-1])
    s, e = span or (t, t)  # no contact span: the whole clip is static-pre
    traj = tuple(np.concatenate([np.tile(first, (s, 1)), held[s:e], np.tile(last, (t - e, 1))])
                 for first, held, last in zip((pre_pose.position, pre_pose.orientation), before,
                                              (post_pose.position, post_pose.orientation)))
    if span is not None:
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

    obj_pos, obj_quat = traj
    for hand in ("left", "right"):
        grasp = grasps.get(hand)
        phases = seg.hand(hand)
        if grasp is None or not phases.has_contact:
            continue
        if wrist_joints is None or hand not in wrist_joints:
            continue
        widx = wrist_joints[hand]
        old_pos = motion.joints[:, widx]
        old_quat = matrix_to_quat(rot6d_decode(motion.joint_rot6d[:, widx]))
        new_pos, new_quat = recompute_wrist(traj, (old_pos, old_quat), grasp, phases.contact,
                                            window)
        joints[:, widx] = new_pos
        rot6d[:, widx] = rot6d_encode(new_quat)
        ik_residuals = []
        if arm_chains and hand in arm_chains:
            shoulder, elbow, wrist = arm_chains[hand]
            l1 = vec_norm(motion.joints[:, elbow] - motion.joints[:, shoulder])
            l2 = vec_norm(motion.joints[:, wrist] - motion.joints[:, elbow])
            moved = ~np.isclose(new_pos, old_pos, atol=1e-12).all(axis=1)
            rows = np.flatnonzero(moved & ~((l1 <= 1e-9) | (l2 <= 1e-9)))
            _, pts, residual, _, _ = ik_solve_batch(
                np.stack([l1[rows], l2[rows]], axis=1), motion.joints[rows, shoulder],
                new_pos[rows], max_iters=30, tol=1e-6)
            joints[rows, elbow] = pts[:, 1]
            ik_residuals = residual.tolist()
        cs, ce = phases.contact
        inverse = quat_conjugate(obj_quat[cs:ce])
        in_obj_pos = quat_rotate(inverse, new_pos[cs:ce] - obj_pos[cs:ce])
        in_obj_quat = quat_normalize(quat_multiply(inverse, new_quat[cs:ce]))
        deviation = vec_norm(in_obj_pos - grasp.wrist_pose.position) \
            + quat_geodesic_angle(in_obj_quat, grasp.wrist_pose.orientation)
        diagnostics["wrists"][hand] = {
            "grasp_deviation": max([0.0, *deviation.tolist()]),
            "ik_residual_max": max(ik_residuals) if ik_residuals else 0.0,
        }

    out = MotionSequence(motion.fps, joints, rot6d, obj_pos, obj_quat, motion.contact.copy())
    return out, diagnostics
