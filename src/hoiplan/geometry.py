"""Rotation, pose, and point-cloud geometry primitives shared by all modules.

Conventions
-----------
- Quaternions are wxyz and kept unit length.
- Rotation matrices act on column vectors; world frame is z-up.
- The 6D rotation code is the first two matrix columns, column-major:
  ``(r00, r10, r20, r01, r11, r21)``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import HoiplanError

# Basis-point-set defaults; the encoding is only comparable across clouds
# produced with the same (size, seed, radius) triple.
BPS_BASIS_SIZE = 1024
BPS_RADIUS = 1.0
BPS_SEED = 7


class DegenerateRotation(HoiplanError):
    code = "geometry.degenerate_rotation"


class EmptyCloud(HoiplanError):
    code = "geometry.empty_cloud"


# ---------------------------------------------------------------------------
# batched elementwise helpers
#
# The quaternion and 6D kernels below (all but quat_to_axis_angle and
# quat_from_yaw) take one quaternion, vector or matrix, or a batch of them
# along the leading axes, and give each row the same bits as a call on that
# row alone. So norms and dot products go through np.vecdot on rows of unit
# stride, which rounds like np.linalg.norm and np.dot of one vector (summing
# v*v, einsum, or vecdot on strided rows do not), and transcendental functions
# go through `per_element`.

def vec_norm(v) -> np.ndarray:
    """Euclidean norm over the last axis."""
    v = np.ascontiguousarray(v, dtype=float)
    return np.sqrt(np.vecdot(v, v))


def per_element(fn, *arrays) -> np.ndarray:
    """``fn`` (e.g. math.atan2) applied per element through Python floats.

    numpy's own arctan2, exp and sin round differently from the math module on
    a few percent of inputs.
    """
    shape = np.shape(arrays[0])
    flat = [np.ravel(a).tolist() for a in arrays]
    return np.array(list(map(fn, *flat)), dtype=float).reshape(shape)


# ---------------------------------------------------------------------------
# quaternions: wxyz along the last axis

def quat_normalize(q) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    n = vec_norm(q)[..., None]
    if (n < 1e-12).any():
        raise DegenerateRotation("quaternion norm is zero")
    unit = np.abs(n - 1.0) < 1e-9  # keep already-unit quaternions bit-stable
    return q if unit.all() else np.where(unit, q, q / n)


def cross(a, b) -> np.ndarray:
    """numpy's cross product over the last axis, bit for bit, without its axis moves."""
    a0, a1, a2, b0, b1, b2 = a[..., 0], a[..., 1], a[..., 2], b[..., 0], b[..., 1], b[..., 2]
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=-1)


def quat_multiply(a, b) -> np.ndarray:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    aw, ax, ay, az = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bw, bx, by, bz = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    return np.stack([
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    ], axis=-1)


def quat_conjugate(q) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    return np.concatenate([q[..., :1], -q[..., 1:]], axis=-1)


def quat_rotate(q, v) -> np.ndarray:
    """Rotate 3-vectors by unit quaternions: one by one, a batch by one, or row by row."""
    q = np.asarray(q, dtype=float)
    v = np.asarray(v, dtype=float)
    u, w = q[..., 1:], q[..., :1]
    t = 2.0 * cross(u, v)
    return v + w * t + cross(u, t)


def quat_to_matrix(q) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    return np.stack([
        np.stack([1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)], axis=-1),
        np.stack([2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)], axis=-1),
        np.stack([2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)], axis=-1),
    ], axis=-2)


def matrix_to_quat(m) -> np.ndarray:
    """Convert orthonormal (..., 3, 3) matrices to wxyz quaternions (Shepperd)."""
    m = np.asarray(m, dtype=float)
    m00, m11, m22 = m[..., 0, 0], m[..., 1, 1], m[..., 2, 2]
    t = m00 + m11 + m22
    # the branch of each matrix: its largest of w, x, y and z
    bw = t > 0
    bx = ~bw & (m00 > m11) & (m00 > m22)
    by = ~bw & ~bx & (m11 > m22)
    arg = np.select([bw, bx, by], [t + 1.0, 1.0 + m00 - m11 - m22, 1.0 + m11 - m00 - m22],
                    1.0 + m22 - m00 - m11)
    with np.errstate(divide="ignore", invalid="ignore"):  # in the branches not taken
        s = np.sqrt(arg) * 2.0
        big = 0.25 * s
        d21 = (m[..., 2, 1] - m[..., 1, 2]) / s
        d02 = (m[..., 0, 2] - m[..., 2, 0]) / s
        d10 = (m[..., 1, 0] - m[..., 0, 1]) / s
        s01 = (m[..., 0, 1] + m[..., 1, 0]) / s
        s02 = (m[..., 0, 2] + m[..., 2, 0]) / s
        s12 = (m[..., 1, 2] + m[..., 2, 1]) / s
    branches = [bw, bx, by]
    q = np.stack([np.select(branches, [big, d21, d02], d10),
                  np.select(branches, [d21, big, s01], s02),
                  np.select(branches, [d02, s01, big], s12),
                  np.select(branches, [d10, s02, s12], big)], axis=-1)
    return quat_canonical(quat_normalize(q))


def quat_canonical(q) -> np.ndarray:
    """Flip sign so the first nonzero component is positive (q and -q are equal rotations)."""
    q = np.asarray(q, dtype=float)
    nonzero = np.abs(q) > 1e-12
    lead = np.take_along_axis(q, nonzero.argmax(axis=-1)[..., None], axis=-1)
    return np.where(nonzero.any(axis=-1, keepdims=True) & (lead < 0), -q, q)


def quat_from_axis_angle(a) -> np.ndarray:
    """Exponential map: axis*angle 3-vectors (radians) to quaternions."""
    a = np.asarray(a, dtype=float)
    angle = vec_norm(a)[..., None]
    half = 0.5 * angle
    with np.errstate(divide="ignore", invalid="ignore"):
        q = np.concatenate([per_element(math.cos, half),
                            per_element(math.sin, half) * (a / angle)], axis=-1)
    tiny = quat_normalize(np.concatenate([np.ones_like(half), 0.5 * a], axis=-1))
    return np.where(angle < 1e-12, tiny, q)


def quat_to_axis_angle(q) -> np.ndarray:
    """Log map: quaternion to axis*angle 3-vector, shortest arc."""
    q = np.asarray(q, dtype=float)
    if q[0] < 0:
        q = -q
    s = float(np.linalg.norm(q[1:]))
    if s < 1e-12:
        return 2.0 * q[1:]
    angle = 2.0 * math.atan2(s, float(q[0]))
    return q[1:] / s * angle


def quat_from_yaw(angle: float) -> np.ndarray:
    return np.array([math.cos(0.5 * angle), 0.0, 0.0, math.sin(0.5 * angle)])


def quat_geodesic_angle(a, b):
    """Angle in radians of the rotation taking a to b, in [0, pi]; one per row of a batch."""
    rel = quat_multiply(quat_conjugate(a), b)
    return 2.0 * per_element(math.atan2, vec_norm(rel[..., 1:]), np.abs(rel[..., 0]))


# ---------------------------------------------------------------------------
# poses

@dataclass
class Pose:
    """Rigid transform: position in meters plus a unit wxyz quaternion."""

    position: np.ndarray
    orientation: np.ndarray

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=float).reshape(3)
        self.orientation = quat_normalize(self.orientation)

    @staticmethod
    def identity() -> "Pose":
        return Pose(np.zeros(3), np.array([1.0, 0.0, 0.0, 0.0]))

    def transform_point(self, v) -> np.ndarray:
        return quat_rotate(self.orientation, v) + self.position

    def almost_equal(self, other: "Pose", tol: float = 1e-9) -> bool:
        return (np.linalg.norm(self.position - other.position) <= tol
                and quat_geodesic_angle(self.orientation, other.orientation) <= tol)


def compose(parent: Pose, local: Pose) -> Pose:
    return Pose(parent.transform_point(local.position),
                quat_multiply(parent.orientation, local.orientation))


def invert(p: Pose) -> Pose:
    inv_q = quat_conjugate(p.orientation)
    return Pose(quat_rotate(inv_q, -p.position), inv_q)


# ---------------------------------------------------------------------------
# 6D rotation codec

def rot6d_encode(orientation) -> np.ndarray:
    """First two columns of the rotation matrix, column-major order.

    Accepts (..., 3, 3) matrices or (..., 4) wxyz quaternions.
    """
    m = np.asarray(orientation, dtype=float)
    if m.shape[-1:] == (4,):
        m = quat_to_matrix(m)
    if m.shape[-2:] != (3, 3):
        raise DegenerateRotation(f"expected quaternion or 3x3 matrix, got shape {m.shape}")
    return np.concatenate([m[..., :, 0], m[..., :, 1]], axis=-1)


def rot6d_decode(r6) -> np.ndarray:
    """Gram-Schmidt the two encoded columns of (..., 6) codes; third column by cross product.

    Raises DegenerateRotation at the first code, in row-major order, whose
    first column is near zero or whose columns are (anti-)parallel.
    """
    r6 = np.asarray(r6, dtype=float)
    if r6.shape[-1:] != (6,):
        r6 = r6.reshape(6)  # one code in any 6-element shape
    a, b = r6[..., :3], r6[..., 3:]
    with np.errstate(divide="ignore", invalid="ignore"):
        na = vec_norm(a)[..., None]
        x = a / na
        b_perp = b - np.vecdot(x, b)[..., None] * x
        nb = vec_norm(b_perp)[..., None]
        y = b_perp / nb
    zero, parallel = (na <= 1e-8).ravel(), (nb <= 1e-8).ravel()
    if zero.any() or parallel.any():
        first = int((zero | parallel).argmax())
        raise DegenerateRotation("first 6D column is near zero" if zero[first]
                                 else "6D columns are parallel")
    return np.stack([x, y, cross(x, y)], axis=-1)


# ---------------------------------------------------------------------------
# basis point sets

@dataclass
class BpsEncoding:
    """Distances from a fixed, seeded set of basis points to a surface cloud."""

    distances: np.ndarray
    basis_seed: int

    def __post_init__(self):
        self.distances = np.asarray(self.distances, dtype=float)


def bps_basis(basis_size: int = BPS_BASIS_SIZE, seed: int = BPS_SEED,
              radius: float = BPS_RADIUS) -> np.ndarray:
    """Fixed basis points sampled uniformly inside a ball of the given radius."""
    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(basis_size, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    r = radius * rng.uniform(size=(basis_size, 1)) ** (1.0 / 3.0)
    return dirs * r


def nearest_distances(queries, cloud) -> np.ndarray:
    """Per query point, the Euclidean distance to its nearest cloud point."""
    queries = np.asarray(queries, dtype=float).reshape(-1, 3)
    cloud = np.asarray(cloud, dtype=float).reshape(-1, 3)
    if cloud.shape[0] == 0:
        raise EmptyCloud("point cloud is empty")
    out = np.empty(queries.shape[0])
    # chunk to bound the (chunk, P) distance matrix
    step = max(1, int(4e6 // max(1, cloud.shape[0])))
    for i in range(0, queries.shape[0], step):
        d = queries[i:i + step, None, :] - cloud[None, :, :]
        out[i:i + step] = np.sqrt((d * d).sum(axis=2)).min(axis=1)
    return out


def normalize_cloud(points) -> tuple[np.ndarray, np.ndarray, float]:
    """Center a cloud on its centroid and scale it into the unit ball.

    Returns (normalized points, center, scale); scale is 1 for a single
    coincident cluster.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    if points.shape[0] == 0:
        raise EmptyCloud("point cloud is empty")
    # sum in a canonical order so the encoding is exactly permutation-invariant
    order = np.lexsort((points[:, 2], points[:, 1], points[:, 0]))
    center = points[order].mean(axis=0)
    shifted = points - center
    scale = float(np.linalg.norm(shifted, axis=1).max())
    if scale < 1e-12:
        scale = 1.0
    return shifted / scale, center, scale


def bps_encode(points, basis_size: int = BPS_BASIS_SIZE, basis_seed: int = BPS_SEED,
               radius: float = BPS_RADIUS, normalize: bool = True) -> BpsEncoding:
    """Encode a surface point cloud as nearest distances to the seeded basis.

    With ``normalize`` the cloud is first centered and scaled into the unit
    ball so clouds of different size share the same basis support.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    if points.shape[0] == 0:
        raise EmptyCloud("point cloud is empty")
    if normalize:
        points, _, _ = normalize_cloud(points)
    basis = bps_basis(basis_size, basis_seed, radius)
    return BpsEncoding(nearest_distances(basis, points), basis_seed)
