"""Scene and motion data model with strict, round-trip-stable JSON I/O.

Objects are axis-aligned boxes in their local frame; an optional point cloud
carries the real surface geometry for BPS encoding. On disk everything is
plain JSON with a fixed field order and shortest round-trip float formatting,
so saves are byte-stable and load(save(x)) == x.
"""

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import HoiplanError
from .geometry import Pose, quat_normalize, quat_rotate, vec_norm
from .polygons import convex_hull


class SchemaError(HoiplanError):
    """Malformed document; ``path`` is a JSON pointer to the offending value."""

    code = "scene.schema_error"

    def __init__(self, message: str, path: str = ""):
        super().__init__(f"{path or '/'}: {message}", path=path)
        self.path = path


class DuplicateId(HoiplanError):
    code = "scene.duplicate_id"


class ReadError(HoiplanError):
    code = "io.read_error"


class WriteError(HoiplanError):
    code = "io.write_error"


# ---------------------------------------------------------------------------
# data model

def _norm(v) -> float:
    """Euclidean norm of a float vector: inf, with no overflow warning, past the
    double range, so that the caller's range check rejects it."""
    with np.errstate(over="ignore"):
        return float(np.linalg.norm(v))


@dataclass
class ObjectSpec:
    id: str
    half_extents: np.ndarray
    canonical_dir: np.ndarray
    is_static: bool
    initial_pose: Pose
    point_cloud: np.ndarray | None = None

    def __post_init__(self):
        self.half_extents = np.asarray(self.half_extents, dtype=float).reshape(3)
        if not np.all(self.half_extents > 0):
            raise SchemaError("half_extents must be positive", f"/objects/{self.id}/half_extents")
        d = np.asarray(self.canonical_dir, dtype=float).reshape(3)
        n = _norm(d)
        if abs(n - 1.0) > 1e-6:
            raise SchemaError("canonical_dir must be unit length", f"/objects/{self.id}/canonical_dir")
        self.canonical_dir = d / n
        if self.point_cloud is not None:
            self.point_cloud = np.asarray(self.point_cloud, dtype=float).reshape(-1, 3)


@dataclass
class Scene:
    objects: list[ObjectSpec]
    bounds: np.ndarray  # (x0, y0, x1, y1)
    north: np.ndarray = field(default_factory=lambda: np.array([0.0, 1.0]))

    def __post_init__(self):
        self.bounds = np.asarray(self.bounds, dtype=float).reshape(4)
        if not (self.bounds[0] < self.bounds[2] and self.bounds[1] < self.bounds[3]):
            raise SchemaError("bounds must satisfy x0 < x1 and y0 < y1", "/bounds")
        n = np.asarray(self.north, dtype=float).reshape(2)
        norm = _norm(n)
        if not 1e-9 <= norm < math.inf:
            raise SchemaError("north must be a nonzero 2-vector of finite length", "/north")
        self.north = n / norm
        seen = set()
        for i, o in enumerate(self.objects):
            if o.id in seen:
                raise DuplicateId(f"duplicate object id {o.id!r}", id=o.id)
            seen.add(o.id)
            x, y = o.initial_pose.position[:2]
            if not (self.bounds[0] <= x <= self.bounds[2]
                    and self.bounds[1] <= y <= self.bounds[3]):
                raise SchemaError(f"object {o.id!r} sits outside the scene bounds",
                                  f"/objects/{i}/pose/pos")
        self._index = {o.id: o for o in self.objects}

    def object(self, object_id: str) -> ObjectSpec:
        return self._index[object_id]

    def has_object(self, object_id: str) -> bool:
        return object_id in self._index

    @property
    def movable_ids(self) -> list[str]:
        return sorted(o.id for o in self.objects if not o.is_static)

    @property
    def static_ids(self) -> list[str]:
        return sorted(o.id for o in self.objects if o.is_static)


@dataclass
class MotionSequence:
    """Per-frame human joints, object pose, and per-hand contact labels."""

    fps: int
    joints: np.ndarray       # (T, J, 3)
    joint_rot6d: np.ndarray  # (T, J, 6)
    object_pos: np.ndarray   # (T, 3)
    object_quat: np.ndarray  # (T, 4) wxyz
    contact: np.ndarray      # (T, 2) in [0, 1], left then right

    def __post_init__(self):
        self.joints = np.asarray(self.joints, dtype=float)
        self.joint_rot6d = np.asarray(self.joint_rot6d, dtype=float)
        self.object_pos = np.asarray(self.object_pos, dtype=float)
        self.object_quat = np.asarray(self.object_quat, dtype=float)
        self.contact = np.asarray(self.contact, dtype=float)
        if self.fps <= 0:
            raise SchemaError("fps must be positive", "/fps")
        t = self.joints.shape[0]
        if (self.joint_rot6d.shape[0] != t or self.object_pos.shape != (t, 3)
                or self.object_quat.shape != (t, 4) or self.contact.shape != (t, 2)):
            raise SchemaError("frame arrays disagree on length", "/frames")
        if self.joints.ndim != 3 or self.joints.shape[2] != 3:
            raise SchemaError("joints must be (T, J, 3)", "/frames")
        if self.joint_rot6d.shape != (t, self.joints.shape[1], 6):
            raise SchemaError("joint_rot6d must be (T, J, 6)", "/frames")
        if t and (self.contact.min() < 0.0 or self.contact.max() > 1.0):
            raise SchemaError("contact labels must lie in [0, 1]", "/frames")

    @property
    def num_frames(self) -> int:
        return self.joints.shape[0]

    @property
    def num_joints(self) -> int:
        return self.joints.shape[1]


# ---------------------------------------------------------------------------
# box geometry

_CORNER_SIGNS = np.array([[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)],
                         dtype=float)


def box_corners(obj: ObjectSpec, pose: Pose) -> np.ndarray:
    """World positions of the oriented box's 8 corners."""
    local = _CORNER_SIGNS * obj.half_extents
    return quat_rotate(pose.orientation, local) + pose.position


def top_surface_height(obj: ObjectSpec, pose: Pose) -> float:
    """Highest world z over the oriented box."""
    return float(box_corners(obj, pose)[:, 2].max())


def bottom_height(obj: ObjectSpec, pose: Pose) -> float:
    return float(box_corners(obj, pose)[:, 2].min())


def resting_descent(obj: ObjectSpec, orientation) -> float:
    """Distance from box center down to its lowest corner for a given orientation."""
    local = _CORNER_SIGNS * obj.half_extents
    return float(-quat_rotate(orientation, local)[:, 2].min())


def footprint(obj: ObjectSpec, pose: Pose) -> np.ndarray:
    """Convex hull (CCW) of the box corners projected onto world XY."""
    return convex_hull(box_corners(obj, pose)[:, :2])


def footprint_circumradius(obj: ObjectSpec, orientation) -> float:
    """Largest XY distance from center to a corner; invariant under extra yaw."""
    local = _CORNER_SIGNS * obj.half_extents
    xy = quat_rotate(orientation, local)[:, :2]
    return float(np.linalg.norm(xy, axis=1).max())


# ---------------------------------------------------------------------------
# file and JSON boundary: every loader and saver in the package goes through here

def read_text(path) -> str:
    """A file's contents decoded as UTF-8; any other encoding is a SchemaError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise SchemaError(f"file is not UTF-8: {e}", "") from e
    except OSError as e:
        raise ReadError(f"cannot read {str(path)!r}: {e.strerror or e}", path=str(path)) from e


def _reject_constant(name: str):
    raise SchemaError(f"non-finite number {name} is not allowed", "")


def loads(text: str):
    """Parse JSON; NaN and Infinity tokens and over-deep nesting are SchemaErrors."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except ValueError as e:  # JSONDecodeError, or an integer too long to convert
        raise SchemaError(f"invalid JSON: {e}", "") from e
    except RecursionError as e:
        raise SchemaError("invalid JSON: nested too deeply", "") from e


def dump_json(doc) -> str:
    r"""``json.dumps(doc, indent=2) + "\n"``, byte for byte, written directly.

    The stdlib encoder falls back to pure Python whenever ``indent`` is set and
    takes one generator step per number; here a list of plain floats becomes
    one join of ``float.__repr__``, so a motion file costs about one repr per
    number. Scalars go through ``json.dumps``, so they and the errors match.
    """
    out: list[str] = []
    _write_json(doc, "\n", out)
    out.append("\n")
    return "".join(out)


def _write_json(value, newline: str, out: list[str]):
    """Append ``value``'s indent-2 text; ``newline`` is a newline and the current indent."""
    if isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "," + inner
        if type(value[0]) is float:
            try:
                text = sep.join(map(float.__repr__, value))
            except TypeError:  # not every item is a float
                text = None
            if text is not None and "n" not in text:  # no nan or inf: JSON spells them apart
                out.append(f"[{inner}{text}{newline}]")
                return
        out.append("[" + inner)
        for i, item in enumerate(value):
            if i:
                out.append(sep)
            _write_json(item, inner, out)
        out.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        out.append("{")
        for i, (key, item) in enumerate(value.items()):
            if not isinstance(key, (str, int, float)) and key is not None:  # bools are ints
                raise TypeError(f"keys must be str, int, float, bool or None, "
                                f"not {key.__class__.__name__}")
            text = key if isinstance(key, str) else json.dumps(key)
            out.append(("," + inner if i else inner) + json.dumps(text) + ": ")
            _write_json(item, inner, out)
        out.append(newline + "}")
    else:
        out.append(json.dumps(value))


def write_text(path, text: str):
    """Write UTF-8 text, creating missing parent directories."""
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    except OSError as e:
        raise WriteError(f"cannot write {str(path)!r}: {e.strerror or e}", path=str(path)) from e


# Coordinates and lengths in metres past this magnitude are refused: far above
# any room, far below 1e154, past which squaring one overflows.
MAX_COORDINATE = 1e9


def require(cond: bool, message: str, path: str):
    if not cond:
        raise SchemaError(message, path)


def read_field(mapping, key, path: str):
    """``mapping[key]``, where ``path`` points at ``mapping``."""
    require(isinstance(mapping, dict), "expected an object", path)
    require(key in mapping, f"missing required field {key!r}", path)
    return mapping[key]


def read_number(value, path: str, limit: float = math.inf) -> float:
    """A JSON number (never a boolean or a string) as a finite float of
    magnitude at most ``limit``."""
    require(isinstance(value, (int, float)) and not isinstance(value, bool),
            "expected a number", path)
    try:
        x = float(value)
    except OverflowError:  # an integer literal past the double range
        raise SchemaError("number does not fit in a double", path) from None
    require(math.isfinite(x), "number must be finite", path)  # 1e999 parses as inf
    if abs(x) > limit:
        raise SchemaError(f"magnitude must not exceed {limit:g}", path)
    return x


def read_floats(value, n: int | None, path: str, limit: float = math.inf) -> list[float]:
    """A list of ``n`` numbers (any number if None), each as ``read_number`` reads it."""
    require(isinstance(value, list) and (n is None or len(value) == n),
            "expected a list of numbers" if n is None else f"expected a list of {n} numbers", path)
    return [read_number(v, f"{path}/{i}", limit) for i, v in enumerate(value)]


def read_name(value, path: str) -> str:
    """An id or a name: a non-empty string."""
    require(isinstance(value, str) and value != "", "expected a non-empty string", path)
    return value


def read_pose(value, path: str) -> Pose:
    """A ``{pos, quat}`` pose: a position within MAX_COORDINATE and a
    quaternion whose norm is finite and nonzero."""
    pos = read_floats(read_field(value, "pos", path), 3, f"{path}/pos", MAX_COORDINATE)
    quat = read_floats(read_field(value, "quat", path), 4, f"{path}/quat")
    require(1e-9 < _norm(quat) < math.inf,
            "quaternion norm must be finite and nonzero", f"{path}/quat")
    return Pose(np.array(pos), np.array(quat))


def _pose_to_json(pose: Pose) -> dict:
    return {"pos": pose.position.tolist(), "quat": pose.orientation.tolist()}


# ---------------------------------------------------------------------------
# scene I/O

def parse_scene_json(text: str) -> Scene:
    doc = loads(text)
    bounds = read_floats(read_field(doc, "bounds", ""), 4, "/bounds", MAX_COORDINATE)
    north = read_floats(read_field(doc, "north", ""), 2, "/north")
    raw_objects = read_field(doc, "objects", "")
    require(isinstance(raw_objects, list), "expected a list", "/objects")
    objects = []
    for i, raw in enumerate(raw_objects):
        path = f"/objects/{i}"
        oid = read_name(read_field(raw, "id", path), f"{path}/id")
        half = read_floats(read_field(raw, "half_extents", path), 3, f"{path}/half_extents",
                           MAX_COORDINATE)
        require(all(h > 0 for h in half), "half_extents must be positive", f"{path}/half_extents")
        canon = read_floats(read_field(raw, "canonical_dir", path), 3, f"{path}/canonical_dir")
        require(abs(_norm(canon) - 1.0) <= 1e-6,
                "canonical_dir must be unit length", f"{path}/canonical_dir")
        static = read_field(raw, "static", path)
        require(isinstance(static, bool), "static must be a boolean", f"{path}/static")
        pose = read_pose(read_field(raw, "pose", path), f"{path}/pose")
        cloud = None
        if "points" in raw and raw["points"] is not None:
            pts = raw["points"]
            require(isinstance(pts, list) and len(pts) > 0, "points must be a non-empty list",
                    f"{path}/points")
            cloud = np.array([read_floats(p, 3, f"{path}/points/{j}", MAX_COORDINATE)
                              for j, p in enumerate(pts)])
        objects.append(ObjectSpec(oid, np.array(half), np.array(canon), static, pose, cloud))
    return Scene(objects, np.array(bounds), np.array(north))


def scene_to_json(scene: Scene) -> dict:
    out_objects = []
    for o in scene.objects:
        entry = {
            "id": o.id,
            "half_extents": o.half_extents.tolist(),
            "canonical_dir": o.canonical_dir.tolist(),
            "static": bool(o.is_static),
            "pose": _pose_to_json(o.initial_pose),
        }
        if o.point_cloud is not None:
            entry["points"] = o.point_cloud.tolist()
        out_objects.append(entry)
    return {
        "bounds": scene.bounds.tolist(),
        "north": scene.north.tolist(),
        "objects": out_objects,
    }


def load_scene(path) -> Scene:
    return parse_scene_json(read_text(path))


def save_scene(scene: Scene, path):
    write_text(path, dump_json(scene_to_json(scene)))


# ---------------------------------------------------------------------------
# motion I/O

def parse_motion_json(text: str) -> MotionSequence:
    doc = loads(text)
    fps = read_field(doc, "fps", "")
    require(isinstance(fps, int) and not isinstance(fps, bool) and fps > 0,
            "fps must be a positive integer", "/fps")
    raw_frames = read_field(doc, "frames", "")
    require(isinstance(raw_frames, list) and len(raw_frames) > 0,
            "frames must be a non-empty list", "/frames")
    arrays = _motion_arrays(raw_frames, text)
    return MotionSequence(fps, *(_walk_frames(raw_frames) if arrays is None else arrays))


# A quaternion norm the walker accepts lies in (1e-9, inf). np.linalg.norm and
# vec_norm may round apart, so norms near either end are left to the walker.
_SAFE_QUAT_NORM = (1e-8, 1e150)


def _motion_arrays(raw_frames: list, text: str):
    """The frame arrays of a motion the walker would accept, built with one
    ``np.array`` per field, or None whenever that is not certain.

    Invalid input always goes to ``_walk_frames``, which gives each error its
    code, JSON pointer and message.
    """
    if "true" in text or "false" in text:
        return None  # np.array reads a bool as 0 or 1; a null fails below (dtype or TypeError)
    try:
        fields = [np.array(rows) for rows in (
            [f["joints"] for f in raw_frames], [f["joint_rot6d"] for f in raw_frames],
            [f["object"]["pos"] for f in raw_frames], [f["object"]["quat"] for f in raw_frames],
            [f["contact"] for f in raw_frames])]
    except (KeyError, TypeError, ValueError):  # a missing key, a list or a ragged row
        return None
    t = len(raw_frames)
    j = fields[0].shape[1] if fields[0].ndim == 3 else 0
    shapes = [(t, j, 3), (t, j, 6), (t, 3), (t, 4), (t, 2)]
    if any(a.dtype.kind not in "if" or a.shape != shape for a, shape in zip(fields, shapes)):
        return None  # a string, an integer past int64 or a wrong length
    joints, rot6d, pos, quat, contact = (a.astype(float, copy=False) for a in fields)
    with np.errstate(over="ignore"):  # a norm past the double range is rejected below
        norm = vec_norm(quat)
    if not ((np.abs(joints) <= MAX_COORDINATE).all() and np.isfinite(rot6d).all()
            and (np.abs(pos) <= MAX_COORDINATE).all()
            and ((contact >= 0.0) & (contact <= 1.0)).all()
            and ((norm > _SAFE_QUAT_NORM[0]) & (norm < _SAFE_QUAT_NORM[1])).all()):
        return None
    return joints, rot6d, pos, quat_normalize(quat), contact


def _walk_frames(raw_frames: list):
    """The frame arrays, checked number by number in frame order."""
    joints = []
    rot6d = []
    obj_pos = []
    obj_quat = []
    contact = []
    num_joints = None
    for t, raw in enumerate(raw_frames):
        path = f"/frames/{t}"
        jraw = read_field(raw, "joints", path)
        require(isinstance(jraw, list) and len(jraw) > 0, "joints must be a non-empty list",
                f"{path}/joints")
        if num_joints is None:
            num_joints = len(jraw)
        require(len(jraw) == num_joints, "joint count must be constant across frames",
                f"{path}/joints")
        joints.append([read_floats(p, 3, f"{path}/joints/{j}", MAX_COORDINATE)
                       for j, p in enumerate(jraw)])
        rraw = read_field(raw, "joint_rot6d", path)
        require(isinstance(rraw, list) and len(rraw) == num_joints,
                "joint_rot6d must match the joint count", f"{path}/joint_rot6d")
        rot6d.append([read_floats(r, 6, f"{path}/joint_rot6d/{j}") for j, r in enumerate(rraw)])
        pose = read_pose(read_field(raw, "object", path), f"{path}/object")
        obj_pos.append(pose.position)
        obj_quat.append(pose.orientation)
        labels = read_floats(read_field(raw, "contact", path), 2, f"{path}/contact")
        require(all(0.0 <= v <= 1.0 for v in labels), "contact labels must lie in [0, 1]",
                f"{path}/contact")
        contact.append(labels)
    return tuple(map(np.array, (joints, rot6d, obj_pos, obj_quat, contact)))


def motion_to_json(motion: MotionSequence) -> dict:
    frames = [{"joints": j, "joint_rot6d": r, "object": {"pos": p, "quat": q}, "contact": c}
              for j, r, p, q, c in zip(motion.joints.tolist(), motion.joint_rot6d.tolist(),
                                       motion.object_pos.tolist(), motion.object_quat.tolist(),
                                       motion.contact.tolist())]
    return {"fps": int(motion.fps), "frames": frames}


def load_motion(path) -> MotionSequence:
    return parse_motion_json(read_text(path))


def save_motion(motion: MotionSequence, path):
    """Write ``dump_json(motion_to_json(motion))``: the text between the numbers, the
    same in every frame, is cut once from a two-frame skeleton's dump."""
    t = motion.num_frames
    fields = (motion.joints, motion.joint_rot6d, motion.object_pos, motion.object_quat,
              motion.contact)
    values = np.concatenate([a.reshape(t, -1) for a in fields], axis=1) if t else None
    if values is None or not np.isfinite(values).all():  # JSON spells nan and inf apart
        return write_text(path, dump_json(motion_to_json(motion)))
    # 0.5 is a valid number in every slot, and no key or integer contains it
    skeleton = MotionSequence(motion.fps, *(np.full((2, *a.shape[1:]), 0.5) for a in fields))
    pieces = dump_json(motion_to_json(skeleton)).split("0.5")
    out = [""] * (2 * values.size + 1)
    out[1::2] = map(float.__repr__, values.ravel().tolist())
    out[2::2] = pieces[1:values.shape[1] + 1] * t  # the last one joins frame to frame
    out[0], out[-1] = pieces[0], pieces[-1]
    text, out = "".join(out), None  # free the pieces before write_text encodes the text
    write_text(path, text)
