import itertools
import math

import numpy as np
import pytest
from helpers import (_q_multiply, _q_rotate, geodesic_angle_oracle, matrix_to_quat_oracle,
                     pose_matrix, quat_canonical_oracle, quat_normalize_oracle,
                     quat_to_matrix_oracle, random_quat, rot6d_decode_oracle, same_bits)
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from hoiplan.geometry import (BpsEncoding, DegenerateRotation, EmptyCloud, Pose, bps_basis,
                              bps_encode, compose, cross, invert, matrix_to_quat,
                              nearest_distances, quat_from_axis_angle, quat_from_yaw,
                              quat_geodesic_angle, quat_canonical, quat_multiply,
                              quat_normalize, quat_rotate, quat_to_axis_angle, quat_to_matrix,
                              rot6d_decode, rot6d_encode, vec_norm)


# a failing oracle example is reported as drawn, not shrunk for minutes first
NO_SHRINK = (Phase.explicit, Phase.reuse, Phase.generate)


def yaw_matrix(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def random_pose(rng):
    return Pose(rng.uniform(-2, 2, size=3), random_quat(rng))


class TestQuaternions:
    def test_matrix_round_trip(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            q = random_quat(rng)
            m = quat_to_matrix(q)
            q2 = matrix_to_quat(m)
            assert quat_geodesic_angle(q, q2) < 1e-9

    def test_rotate_matches_matrix(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            q = random_quat(rng)
            v = rng.normal(size=3)
            assert np.allclose(quat_rotate(q, v), quat_to_matrix(q) @ v, atol=1e-12)

    def test_axis_angle_round_trip(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            a = rng.normal(size=3) * rng.uniform(0, 3)
            q = quat_from_axis_angle(a)
            a2 = quat_to_axis_angle(q)
            q2 = quat_from_axis_angle(a2)
            assert quat_geodesic_angle(q, q2) < 1e-9

    def test_geodesic_angle_of_yaw(self):
        q = quat_from_yaw(0.7)
        assert quat_geodesic_angle(np.array([1.0, 0, 0, 0]), q) == pytest.approx(0.7, abs=1e-12)


class TestRot6d:
    def test_identity(self):
        assert np.allclose(rot6d_encode(np.eye(3)), [1, 0, 0, 0, 1, 0])

    def test_yaw_90(self):
        assert np.allclose(rot6d_encode(yaw_matrix(math.pi / 2)), [0, 1, 0, -1, 0, 0],
                           atol=1e-12)

    def test_accepts_quaternion(self):
        q = quat_from_yaw(math.pi / 2)
        assert np.allclose(rot6d_encode(q), [0, 1, 0, -1, 0, 0], atol=1e-12)

    def test_decode_identity(self):
        assert np.allclose(rot6d_decode([1, 0, 0, 0, 1, 0]), np.eye(3))

    def test_decode_scale_invariance(self):
        assert np.allclose(rot6d_decode([2, 0, 0, 0, 3, 0]), np.eye(3))

    def test_decode_parallel_columns(self):
        with pytest.raises(DegenerateRotation):
            rot6d_decode([1, 0, 0, 1, 0, 0])

    def test_decode_zero_column(self):
        with pytest.raises(DegenerateRotation):
            rot6d_decode([0, 0, 0, 0, 1, 0])

    def test_round_trip_1000_random_rotations(self):
        rng = np.random.default_rng(12345)
        for _ in range(1000):
            m = quat_to_matrix(random_quat(rng))
            m2 = rot6d_decode(rot6d_encode(m))
            assert np.linalg.norm(m2 - m) < 1e-9

    def test_decode_always_orthonormal(self):
        rng = np.random.default_rng(99)
        for _ in range(200):
            r6 = rng.normal(size=6)
            try:
                m = rot6d_decode(r6)
            except DegenerateRotation:
                continue
            assert np.linalg.norm(m.T @ m - np.eye(3)) < 1e-9
            assert abs(np.linalg.det(m) - 1.0) < 1e-9


class TestPose:
    def test_constructor_normalizes(self):
        p = Pose([0, 0, 0], [2.0, 0, 0, 0])
        assert abs(np.linalg.norm(p.orientation) - 1.0) < 1e-6

    def test_zero_quaternion_rejected(self):
        with pytest.raises(DegenerateRotation):
            Pose([0, 0, 0], [0, 0, 0, 0])

    def test_compose_identity(self):
        rng = np.random.default_rng(7)
        p = random_pose(rng)
        q = compose(Pose.identity(), p)
        assert p.almost_equal(q, 1e-12)

    def test_invert_twice(self):
        rng = np.random.default_rng(8)
        p = random_pose(rng)
        assert invert(invert(p)).almost_equal(p, 1e-9)

    def test_compose_invert_is_identity(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            p = random_pose(rng)
            assert compose(invert(p), p).almost_equal(Pose.identity(), 1e-9)

    def test_chains_match_homogeneous_matrix_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            chain = [random_pose(rng) for _ in range(4)]
            composed = chain[0]
            oracle = pose_matrix(chain[0])
            for p in chain[1:]:
                composed = compose(composed, p)
                oracle = oracle @ pose_matrix(p)
            assert np.linalg.norm(pose_matrix(composed) - oracle) < 1e-9
            inv = invert(composed)
            assert np.linalg.norm(pose_matrix(inv) - np.linalg.inv(oracle)) < 1e-9

    def test_associativity(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            a, b, c = (random_pose(rng) for _ in range(3))
            left = compose(compose(a, b), c)
            right = compose(a, compose(b, c))
            assert left.almost_equal(right, 1e-9)


class TestBps:
    def test_single_point_distance(self):
        d = nearest_distances(np.array([[1.0, 0.0, 0.0]]), np.array([[0.0, 0.0, 0.0]]))
        assert d[0] == pytest.approx(1.0, abs=1e-15)

    def test_empty_cloud(self):
        with pytest.raises(EmptyCloud):
            bps_encode(np.zeros((0, 3)))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(21)
        cloud = rng.normal(size=(60, 3))
        enc1 = bps_encode(cloud, basis_size=128)
        enc2 = bps_encode(cloud[rng.permutation(60)], basis_size=128)
        assert np.array_equal(enc1.distances, enc2.distances)

    def test_matches_brute_force_nearest_neighbor(self):
        # unit-cube surface samples checked against an exhaustive double loop
        rng = np.random.default_rng(22)
        face = rng.integers(0, 6, size=80)
        uv = rng.uniform(-0.5, 0.5, size=(80, 2))
        cloud = np.zeros((80, 3))
        for i in range(80):
            axis = face[i] // 2
            sign = 1.0 if face[i] % 2 else -1.0
            rest = [a for a in range(3) if a != axis]
            cloud[i, axis] = 0.5 * sign
            cloud[i, rest[0]] = uv[i, 0]
            cloud[i, rest[1]] = uv[i, 1]
        basis = bps_basis(64, seed=1)
        got = nearest_distances(basis, cloud)
        for i, b in enumerate(basis):
            best = min(math.dist(b, p) for p in cloud)
            assert abs(got[i] - best) <= 1e-12

    def test_adding_points_never_increases_distances(self):
        rng = np.random.default_rng(23)
        cloud = rng.normal(size=(40, 3))
        extra = np.vstack([cloud, rng.normal(size=(20, 3))])
        basis = bps_basis(32, seed=2)
        assert np.all(nearest_distances(basis, extra) <= nearest_distances(basis, cloud) + 1e-15)

    def test_encoding_shape_and_nonnegative(self):
        rng = np.random.default_rng(24)
        enc = bps_encode(rng.normal(size=(30, 3)), basis_size=256, basis_seed=5)
        assert isinstance(enc, BpsEncoding)
        assert enc.distances.shape == (256,)
        assert np.all(enc.distances >= 0)
        assert enc.basis_seed == 5

    def test_basis_inside_ball(self):
        basis = bps_basis(512, seed=3, radius=1.0)
        assert np.linalg.norm(basis, axis=1).max() <= 1.0 + 1e-12


def test_quat_multiply_matches_matrix_product():
    rng = np.random.default_rng(30)
    for _ in range(50):
        a, b = random_quat(rng), random_quat(rng)
        m = quat_to_matrix(quat_multiply(a, b))
        assert np.allclose(m, quat_to_matrix(a) @ quat_to_matrix(b), atol=1e-12)


# ---------------------------------------------------------------------------
# batched kernels against their scalar oracles, bit for bit

def _special_rotations():
    """Signed permutation matrices (trace exactly 0 or -1, diagonal ties, quaternions
    with leading zeros) and half turns about diagonal axes (m00 == m11 ties)."""
    out = []
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product((1.0, -1.0), repeat=3):
            m = np.zeros((3, 3))
            m[list(perm), range(3)] = signs
            if np.linalg.det(m) > 0:
                out.append(m)
    for axis in ((1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1), (1, -1, 0), (0, 1, -1)):
        a = np.array(axis, dtype=float) / np.linalg.norm(axis)
        out.append(2.0 * np.outer(a, a) - np.eye(3))
    return out


SPECIAL_CODES = [np.concatenate([m[:, 0], m[:, 1]]) for m in _special_rotations()]
_component = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 1e-9, -1e-13]),
                       st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False))
_code = st.one_of(
    st.sampled_from(SPECIAL_CODES),
    st.tuples(st.sampled_from(SPECIAL_CODES), st.floats(0.01, 100.0)).map(lambda c: c[0] * c[1]),
    st.lists(_component, min_size=6, max_size=6).map(np.array))


def _first_oracle_error(codes):
    for code in codes:
        try:
            rot6d_decode_oracle(code)
        except DegenerateRotation as e:
            return str(e)
    return None


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          phases=NO_SHRINK)
@given(st.lists(_code, min_size=1, max_size=24), st.integers(1, 3))
def test_decode_to_quat_batch_matches_scalar_oracle(codes, rows):
    codes = np.array(codes)
    batch = codes.reshape(rows, -1, 6) if len(codes) % rows == 0 else codes
    expected = _first_oracle_error(codes)
    if expected is not None:
        with pytest.raises(DegenerateRotation) as e:
            rot6d_decode(batch)
        assert str(e.value) == expected
        return
    matrices = rot6d_decode(batch)
    quats = matrix_to_quat(matrices)
    for code, m, q in zip(codes, matrices.reshape(-1, 3, 3), quats.reshape(-1, 4)):
        want_m = rot6d_decode_oracle(code)
        want_q = matrix_to_quat_oracle(want_m)
        assert same_bits(m, want_m) and same_bits(q, want_q)
        assert same_bits(rot6d_decode(code), want_m)   # one code, no batch axis
        assert same_bits(matrix_to_quat(want_m), want_q)


def test_special_rotations_cover_every_branch_and_sign():
    qs = [matrix_to_quat_oracle(rot6d_decode_oracle(c)) for c in SPECIAL_CODES]
    traces = {float(np.trace(m)) for m in _special_rotations()}
    assert 0.0 in traces and -1.0 in traces
    assert {int(np.argmax(np.abs(q))) for q in qs} == {0, 1, 2, 3}
    assert any(q[0] == 0.0 and q[1] == 0.0 for q in qs)  # two leading zeros
    raw = _special_rotations()
    assert same_bits(matrix_to_quat(np.array(raw)), [matrix_to_quat_oracle(m) for m in raw])


@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          phases=NO_SHRINK)
@given(st.lists(st.tuples(st.sampled_from(SPECIAL_CODES + [None]), st.floats(0.25, 4.0),
                          st.integers(0, 2**32 - 1)), min_size=1, max_size=8))
def test_matrix_to_quat_of_scaled_rotations_matches_oracle(cases):
    """Scaled rotations leave the quaternion off unit length, so normalize divides."""
    mats = []
    for code, scale, seed in cases:
        rot = rot6d_decode_oracle(code) if code is not None else \
            quat_to_matrix(random_quat(np.random.default_rng(seed)))
        mats.append(scale * rot)
    got = matrix_to_quat(np.array(mats))
    for m, q in zip(mats, got):
        assert same_bits(q, matrix_to_quat_oracle(m))


@pytest.mark.parametrize("bad,message", [
    ([0, 0, 0, 0, 1, 0], "first 6D column is near zero"),
    ([1e-9, 0, 0, 0, 1, 0], "first 6D column is near zero"),
    ([1, 2, 3, 2, 4, 6], "6D columns are parallel"),
    ([1, 0, 0, -3, 0, 0], "6D columns are parallel"),
    ([1, 0, 0, 0, 0, 0], "6D columns are parallel")])
@pytest.mark.parametrize("where", [0, 4, 9])
def test_degenerate_code_in_a_batch_raises_the_scalar_message(bad, message, where):
    codes = np.tile([1.0, 0, 0, 0, 1, 0], (10, 1))
    codes[where] = bad
    with pytest.raises(DegenerateRotation, match=f"^{message}$"):
        rot6d_decode_oracle(bad)
    with pytest.raises(DegenerateRotation, match=f"^{message}$"):
        rot6d_decode(codes.reshape(2, 5, 6))
    if where < 9:  # the first bad code in row-major order decides the message
        other = [1, 0, 0, 2, 0, 0] if "zero" in message else [0, 0, 0, 1, 1, 1]
        codes[9] = other
        with pytest.raises(DegenerateRotation, match=f"^{message}$"):
            rot6d_decode(codes)


_quat = st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-2.0, 2.0)),
                 min_size=4, max_size=4).map(np.array)


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          phases=NO_SHRINK)
@given(st.lists(st.tuples(_quat, _quat), min_size=1, max_size=12))
def test_geodesic_angle_and_normalize_batches_match_oracle(pairs):
    a = np.array([p[0] for p in pairs])
    b = np.array([p[1] for p in pairs])
    got = quat_geodesic_angle(a, b)
    for i, (qa, qb) in enumerate(pairs):
        want = geodesic_angle_oracle(qa, qb)
        assert same_bits(got[i], want) and same_bits(quat_geodesic_angle(qa, qb), want)
    live = [q for q in a if np.linalg.norm(q) >= 1e-12]
    if live:
        assert same_bits(quat_normalize(np.array(live)), np.array([quat_normalize_oracle(q) for q in live]))
    assert same_bits(quat_canonical(a), np.array([quat_canonical_oracle(q) for q in a]))


@pytest.mark.parametrize("q", [[-1e-13, 0.0, 0.0, 0.0], [0.0, -0.0, -1e-13, 2e-13],
                               [0.0, -1e-12, -0.5, 0.1], [-0.0, 0.0, 0.0, -1.0]])
def test_canonical_sign_ignores_components_up_to_1e_12(q):
    assert same_bits(quat_canonical(q), quat_canonical_oracle(q))
    assert same_bits(quat_canonical([q, q]), [quat_canonical_oracle(q)] * 2)


@pytest.mark.parametrize("width", [3, 4, 6])
def test_vec_norm_of_strided_rows_matches_linalg_norm(width):
    """vecdot on rows of non-unit stride rounds apart from np.linalg.norm."""
    rows = np.random.default_rng(8).normal(size=(width, 4000)).T  # each row strided
    assert same_bits(vec_norm(rows), [np.linalg.norm(r) for r in rows])


# signed zeros, subnormals (the smallest, and the largest below the normal range)
# and +-2.0, whose products are exact
_edge = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308,
                                   -2.225073858507201e-308, 2.0, -2.0]),
                  st.floats(-2.0, 2.0))
_rows = st.integers(1, 5).flatmap(lambda n: st.lists(
    st.lists(_edge, min_size=7, max_size=7), min_size=n, max_size=n).map(np.array))


@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          phases=NO_SHRINK)
@given(_rows, _rows)
def test_component_kernels_match_numpy_cross_and_scalar_oracles(a, b):
    """cross, quat_multiply, quat_rotate and quat_to_matrix bit for bit, broadcast as the
    callers do: one by many (box corners), (T, 1, .) by (P, .) (points in the wrist
    frame) and row by row."""
    qa, qb, va, vb = a[:, :4], b[:, :4], a[:, 4:], b[:, 4:]
    k = min(len(a), len(b))
    for x, y in ((va[0], vb), (va[:, None], vb), (va[:k], vb[:k])):
        assert same_bits(cross(x, y), np.cross(x, y))
    assert same_bits(quat_rotate(qa[0], vb), [_q_rotate(qa[0], v) for v in vb])
    assert same_bits(quat_rotate(qa[:, None], vb), [[_q_rotate(q, v) for v in vb] for q in qa])
    assert same_bits(quat_rotate(qa[:k], vb[:k]), [_q_rotate(q, v) for q, v in zip(qa, vb)])
    assert same_bits(quat_multiply(qa[0], qb), [_q_multiply(qa[0], q) for q in qb])
    assert same_bits(quat_multiply(qa[:, None], qb),
                     [[_q_multiply(p, q) for q in qb] for p in qa])
    assert same_bits(quat_multiply(qa[:k], qb[:k]), [_q_multiply(p, q) for p, q in zip(qa, qb)])
    assert same_bits(quat_to_matrix(qa[0]), quat_to_matrix_oracle(qa[0]))
    assert same_bits(quat_to_matrix(qa[:, None]), [[quat_to_matrix_oracle(q)] for q in qa])
