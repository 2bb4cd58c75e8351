import json
import math

import numpy as np
import pytest
from helpers import grasps_to_json, polygon_area, weights_to_json
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import hoiplan.scene
from hoiplan.geometry import Pose, quat_from_axis_angle, quat_from_yaw, quat_normalize
from hoiplan.scene import (DuplicateId, MotionSequence, ObjectSpec, Scene, SchemaError,
                           bottom_height, box_corners, dump_json, footprint, load_motion,
                           load_scene, motion_to_json, parse_motion_json, parse_scene_json,
                           save_motion, save_scene, scene_to_json, top_surface_height)


def unit_cube(oid="box", static=False, pos=(0.0, 0.0, 0.0), quat=(1.0, 0.0, 0.0, 0.0)):
    return ObjectSpec(oid, np.full(3, 0.5), np.array([1.0, 0.0, 0.0]), static,
                      Pose(np.array(pos), np.array(quat)))


def small_scene():
    return Scene(
        objects=[unit_cube("a", static=True, pos=(0, 0, 0.5)),
                 unit_cube("b", pos=(2, 2, 0.5)),
                 unit_cube("c", pos=(-2, 1, 0.5))],
        bounds=np.array([-5.0, -5.0, 5.0, 5.0]),
    )


class TestSceneIO:
    def test_empty_object_list_round_trips(self):
        scene = Scene([], np.array([0.0, 0.0, 1.0, 1.0]))
        text = dump_json(scene_to_json(scene))
        again = parse_scene_json(text)
        assert dump_json(scene_to_json(again)) == text

    def test_three_object_round_trip(self, tmp_path):
        scene = small_scene()
        scene.objects[1].point_cloud = np.random.default_rng(1).normal(size=(10, 3))
        path = tmp_path / "scene.json"
        save_scene(scene, path)
        again = load_scene(path)
        assert [o.id for o in again.objects] == ["a", "b", "c"]
        assert np.array_equal(again.objects[1].point_cloud, scene.objects[1].point_cloud)
        # byte-exact second save
        save_scene(again, tmp_path / "scene2.json")
        assert (tmp_path / "scene.json").read_bytes() == (tmp_path / "scene2.json").read_bytes()

    def test_duplicate_id(self):
        with pytest.raises(DuplicateId):
            Scene([unit_cube("x"), unit_cube("x")], np.array([-1.0, -1.0, 1.0, 1.0]))

    def test_pose_outside_bounds_rejected(self):
        with pytest.raises(SchemaError) as e:
            Scene([unit_cube("far", pos=(7.0, 0.0, 0.5))], np.array([-5.0, -5.0, 5.0, 5.0]))
        assert "bounds" in str(e.value)

    def test_schema_error_paths(self):
        doc = {"bounds": [0, 0, 1, 1], "north": [0, 1],
               "objects": [{"id": "a", "half_extents": [1, 1, 1],
                            "canonical_dir": [1, 0, 0], "static": False}]}
        with pytest.raises(SchemaError) as e:
            parse_scene_json(json.dumps(doc))
        assert e.value.path == "/objects/0"
        assert "pose" in str(e.value)

    def test_invalid_json(self):
        with pytest.raises(SchemaError):
            parse_scene_json("{not json")

    @pytest.mark.parametrize("text", ["[" * 100000, "[" + "9" * 5000 + "]"],
                             ids=["nested-too-deeply", "integer-too-long"])
    def test_unparseable_document_is_schema_error(self, text):
        with pytest.raises(SchemaError):
            parse_scene_json(text)

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_token_is_schema_error(self, token):
        doc = scene_to_json(small_scene())
        doc["bounds"][2] = float(token)  # stdlib json writes it as the bare token
        with pytest.raises(SchemaError) as e:
            parse_scene_json(json.dumps(doc))
        assert token in str(e.value)

    def test_bad_half_extents(self):
        doc = {"bounds": [0, 0, 1, 1], "north": [0, 1],
               "objects": [{"id": "a", "half_extents": [0, 1, 1],
                            "canonical_dir": [1, 0, 0], "static": False,
                            "pose": {"pos": [0, 0, 0], "quat": [1, 0, 0, 0]}}]}
        with pytest.raises(SchemaError) as e:
            parse_scene_json(json.dumps(doc))
        assert e.value.path == "/objects/0/half_extents"


class TestMotionIO:
    def make_motion(self, t=4, j=2):
        rng = np.random.default_rng(0)
        return MotionSequence(
            fps=30,
            joints=rng.normal(size=(t, j, 3)),
            joint_rot6d=np.tile(np.array([1.0, 0, 0, 0, 1.0, 0]), (t, j, 1)),
            object_pos=rng.normal(size=(t, 3)),
            object_quat=np.tile(np.array([1.0, 0, 0, 0]), (t, 1)),
            contact=rng.uniform(size=(t, 2)),
        )

    def test_round_trip(self, tmp_path):
        motion = self.make_motion()
        path = tmp_path / "motion.json"
        save_motion(motion, path)
        again = load_motion(path)
        assert np.array_equal(again.joints, motion.joints)
        assert np.array_equal(again.object_pos, motion.object_pos)
        assert np.array_equal(again.contact, motion.contact)
        save_motion(again, tmp_path / "motion2.json")
        assert path.read_bytes() == (tmp_path / "motion2.json").read_bytes()

    def test_missing_contact_pointer(self):
        doc = motion_to_json(self.make_motion())
        del doc["frames"][0]["contact"]
        with pytest.raises(SchemaError) as e:
            parse_motion_json(json.dumps(doc))
        assert e.value.path == "/frames/0"
        assert "contact" in str(e.value)

    def test_contact_out_of_range(self):
        doc = motion_to_json(self.make_motion())
        doc["frames"][1]["contact"] = [0.2, 1.4]
        with pytest.raises(SchemaError) as e:
            parse_motion_json(json.dumps(doc))
        assert e.value.path == "/frames/1/contact"

    def test_inconsistent_joint_count(self):
        doc = motion_to_json(self.make_motion())
        doc["frames"][2]["joints"] = doc["frames"][2]["joints"][:1]
        with pytest.raises(SchemaError) as e:
            parse_motion_json(json.dumps(doc))
        assert e.value.path == "/frames/2/joints"

    def test_fps_must_be_positive_int(self):
        doc = motion_to_json(self.make_motion())
        doc["fps"] = 0
        with pytest.raises(SchemaError):
            parse_motion_json(json.dumps(doc))


SENTINEL = 12345.678


def _set(doc, where, value):
    for key in where[:-1]:
        doc = doc[key]
    doc[where[-1]] = value


def _overflow_cases():
    from hoiplan.layout import SceneMap, SceneMapEntry, scene_map_to_json
    from hoiplan.motion import GraspPose
    from hoiplan.planner import ExecutionPlan, PlanStep, plan_to_json
    from hoiplan.reward import DEFAULT_BODY_WEIGHTS
    motion = motion_to_json(TestMotionIO().make_motion())
    scene = scene_to_json(small_scene())
    scene["objects"][0]["points"] = [[0.1, 0.2, 0.3] for _ in range(3)]
    entry = SceneMapEntry("b", np.zeros(3), np.array([1.0, 0.0, 0.0, 0.0]))
    grasp = GraspPose(Pose(np.zeros(3), np.array([1.0, 0.0, 0.0, 0.0])), np.zeros(2))
    plan = ExecutionPlan([PlanStep("b", "move b", [(0.0, 0.0), (0.5, 0.5)])])
    return [
        ("scene", scene, ["bounds", 2]),
        ("scene", scene, ["north", 0]),
        ("scene", scene, ["objects", 1, "half_extents", 0]),
        ("scene", scene, ["objects", 1, "pose", "pos", 2]),
        ("scene", scene, ["objects", 1, "pose", "quat", 3]),
        ("scene", scene, ["objects", 0, "points", 1, 0]),
        ("motion", motion, ["frames", 2, "joints", 1, 0]),
        ("motion", motion, ["frames", 1, "joint_rot6d", 0, 3]),
        ("motion", motion, ["frames", 3, "object", "pos", 1]),
        ("motion", motion, ["frames", 0, "object", "quat", 0]),
        ("scene_map", scene_map_to_json(SceneMap([entry])), ["entries", 0, "pos", 1]),
        ("grasps", grasps_to_json({"left": grasp, "right": None}), ["left", "fingers", 1]),
        ("plan", plan_to_json(plan), ["steps", 0, "route", 1, 0]),
        ("weights", weights_to_json(DEFAULT_BODY_WEIGHTS), ["w_p", "root"]),
    ]


def _parser(kind):
    from hoiplan.layout import parse_scene_map_json
    from hoiplan.motion import parse_grasps_json
    from hoiplan.planner import parse_plan_json
    from hoiplan.reward import load_weights
    return {"scene": parse_scene_json, "motion": parse_motion_json,
            "scene_map": parse_scene_map_json, "grasps": parse_grasps_json,
            "plan": parse_plan_json, "weights": load_weights}[kind]


@pytest.mark.parametrize("literal", ["1e999", "-1e999", "9" * 401],
                         ids=["inf", "-inf", "401-digit-integer"])
@pytest.mark.parametrize("case", range(len(_overflow_cases())),
                         ids=[f"{kind}:{'/'.join(map(str, where))}"
                              for kind, _, where in _overflow_cases()])
def test_number_past_the_double_range_is_schema_error(case, literal, tmp_path):
    # 1e999 parses as inf and a 401-digit integer has no float value; both
    # used to pass the loaders or end in an OverflowError traceback
    kind, doc, where = _overflow_cases()[case]
    _set(doc, where, SENTINEL)
    text = json.dumps(doc).replace(repr(SENTINEL), literal)
    if kind == "weights":
        (tmp_path / "w.json").write_text(text)
        text = tmp_path / "w.json"
    with pytest.raises(SchemaError) as e:
        _parser(kind)(text)
    assert e.value.path == "/" + "/".join(map(str, where))


def _parse_with(kind, doc, where, literal, tmp_path):
    """Parse ``doc`` of ``kind`` with the value at ``where`` spelled ``literal``."""
    _set(doc, where, SENTINEL)
    text = json.dumps(doc).replace(repr(SENTINEL), literal)
    if kind == "weights":
        (tmp_path / "w.json").write_text(text)
        text = tmp_path / "w.json"
    return _parser(kind)(text)


@pytest.mark.parametrize("literal", ["true", '"1.0"', "[0.5]", "null", "{}"],
                         ids=["bool", "string", "list", "null", "object"])
@pytest.mark.parametrize("case", range(len(_overflow_cases())),
                         ids=[f"{kind}:{'/'.join(map(str, where))}"
                              for kind, _, where in _overflow_cases()])
def test_non_number_in_a_numeric_slot_is_schema_error(case, literal, tmp_path):
    # every loader reads its numbers through one reader: a boolean or a string
    # used to pass the scene-map, plan and grasp loaders as 1.0 or a float
    kind, doc, where = _overflow_cases()[case]
    with pytest.raises(SchemaError) as e:
        _parse_with(kind, doc, where, literal, tmp_path)
    assert e.value.path == "/" + "/".join(map(str, where))


def _name_cases():
    from hoiplan.layout import SceneMap, SceneMapEntry, scene_map_to_json
    from hoiplan.planner import ExecutionPlan, PlanStep, plan_to_json
    entry = SceneMapEntry("b", np.zeros(3), np.array([1.0, 0.0, 0.0, 0.0]))
    plan = ExecutionPlan([PlanStep("b", "move b", [(0.0, 0.0)])])
    return [("scene", scene_to_json(small_scene()), ["objects", 2, "id"]),
            ("scene_map", scene_map_to_json(SceneMap([entry])), ["entries", 0, "id"]),
            ("plan", plan_to_json(plan), ["steps", 0, "object"]),
            ("plan", plan_to_json(plan), ["steps", 0, "text"])]


@pytest.mark.parametrize("literal", ["5", '["a"]', '""', "null", "true", "{}"],
                         ids=["number", "list", "empty", "null", "bool", "object"])
@pytest.mark.parametrize("case", range(len(_name_cases())),
                         ids=[f"{kind}:{'/'.join(map(str, where))}"
                              for kind, _, where in _name_cases()])
def test_id_that_is_not_a_non_empty_string_is_schema_error(case, literal, tmp_path):
    kind, doc, where = _name_cases()[case]
    with pytest.raises(SchemaError) as e:
        _parse_with(kind, doc, where, literal, tmp_path)
    assert e.value.path == "/" + "/".join(map(str, where))


def _coordinate_cases():
    """Slots of ``_overflow_cases``' documents that hold metres: bounds, half
    extents, positions, cloud points, joints and route points."""
    docs = {kind: doc for kind, doc, _ in _overflow_cases()}
    return [(kind, docs[kind], where) for kind, where in [
        ("scene", ["bounds", 0]), ("scene", ["objects", 1, "half_extents", 2]),
        ("scene", ["objects", 1, "pose", "pos", 0]), ("scene", ["objects", 0, "points", 2, 1]),
        ("motion", ["frames", 1, "joints", 0, 2]), ("motion", ["frames", 3, "object", "pos", 1]),
        ("scene_map", ["entries", 0, "pos", 2]), ("grasps", ["left", "pos", 0]),
        ("plan", ["steps", 0, "route", 1, 1])]]


@pytest.mark.parametrize("literal", ["1e200", "-1000000000.5", "2" + "0" * 9],
                         ids=["huge", "just-past", "integer"])
@pytest.mark.parametrize("case", range(len(_coordinate_cases())),
                         ids=[f"{kind}:{'/'.join(map(str, where))}"
                              for kind, _, where in _coordinate_cases()])
def test_coordinate_past_the_limit_is_schema_error(case, literal, tmp_path):
    # squaring a coordinate near 1e154 overflows: 1e200 half extents made
    # route print numpy overflow warnings and render write 200-digit numbers
    kind, doc, where = _coordinate_cases()[case]
    with pytest.raises(SchemaError) as e:
        _parse_with(kind, doc, where, literal, tmp_path)
    assert e.value.path == "/" + "/".join(map(str, where))
    assert str(e.value) == f"{e.value.path}: magnitude must not exceed 1e+09"


def test_coordinates_at_the_limit_are_admitted():
    assert hoiplan.scene.MAX_COORDINATE == 1e9
    doc = scene_to_json(small_scene())
    doc["bounds"] = [-1e9, -1e9, 1e9, 1e9]
    doc["objects"][0]["half_extents"] = [1e9, 0.5, 0.5]
    doc["objects"][0]["pose"]["pos"] = [-1e9, 1e9, -1e9]
    scene = parse_scene_json(json.dumps(doc))
    assert scene.objects[0].initial_pose.position.tolist() == [-1e9, 1e9, -1e9]
    motion = TestMotionIO().make_motion()
    motion.joints[2, 1] = [1e9, -1e9, 0.0]
    motion.object_pos[0] = [0.0, -1e9, 1e9]
    again = parse_motion_json(dump_json(motion_to_json(motion)))
    assert np.array_equal(again.joints, motion.joints)
    assert np.array_equal(again.object_pos, motion.object_pos)


@pytest.mark.parametrize("kind,where,literal,path", [
    ("motion", ["frames", 2, "joints", 1, 0], "1e999", "/frames/2/joints/1/0"),
    ("motion", ["frames", 2, "joints", 1, 0], "9" * 401, "/frames/2/joints/1/0"),
    ("scene", ["objects", 1, "pose", "pos", 2], "-1e999", "/objects/1/pose/pos/2"),
    ("scene", ["objects", 2, "half_extents", 0], "1e999", "/objects/2/half_extents/0"),
    ("scene", ["bounds", 3], "9" * 401, "/bounds/3")],
    ids=["motion-inf", "motion-integer", "scene-pose", "scene-half-extents", "scene-bounds"])
def test_out_of_range_error_names_the_value(kind, where, literal, path):
    doc = (motion_to_json(TestMotionIO().make_motion()) if kind == "motion"
           else scene_to_json(small_scene()))
    _set(doc, where, SENTINEL)
    with pytest.raises(SchemaError) as e:
        _parser(kind)(json.dumps(doc).replace(repr(SENTINEL), literal))
    assert e.value.path == path


_SPECIAL_FLOATS = [-0.0, 5e-324, 1e16, 1e-7, 1e22, 2.0 ** 53 + 2, 0.1]
_json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-10 ** 100, 10 ** 100), st.floats(),
    st.floats().map(np.float64), st.sampled_from(_SPECIAL_FLOATS), st.text(),
    st.sampled_from(["é", "\u2028", '"\\\n\t', "\x00", "\U0001f600"]))
_float_rows = st.lists(st.one_of(st.floats(), st.sampled_from(_SPECIAL_FLOATS)),
                       min_size=1, max_size=6)
_json_docs = st.recursive(
    st.one_of(_json_scalars, _float_rows),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.one_of(st.text(max_size=6), st.integers(), st.floats(), st.booleans(),
                                  st.none()), inner, max_size=4)),
    max_leaves=30)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_json_docs)
def test_dump_json_matches_stdlib_indent_2(doc):
    assert dump_json(doc) == json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize("doc", [[1.0, {1, 2}], {"a": np.int64(3)}, {(1, 2): 0.5},
                                 [np.bool_(True)], [1.5, np.float32(2.0)], object()],
                         ids=["set", "int64", "tuple-key", "numpy-bool", "float32", "object"])
def test_dump_json_raises_where_stdlib_does(doc):
    with pytest.raises(TypeError) as want:
        json.dumps(doc, indent=2)
    with pytest.raises(TypeError) as got:
        dump_json(doc)
    assert str(got.value) == str(want.value)


# replaced in the JSON text by literals json.dumps cannot write
_LITERALS = {"@inf": "1e999", "@-inf": "-1e999", "@int": "9" * 400, "@-int": "-" + "7" * 400}
# among them integers near the int64 and uint64 ends, where np.array picks another dtype
_EDGE_NUMBERS = [0, -0.0, 5e-324, 1e300, 2 ** 53 + 1, 2 ** 63 - 1, 2 ** 63 + 1025, 2 ** 64 - 1,
                 -2 ** 63, -2 ** 63 - 1, 2 ** 64]
_QUAT_SCALES = [0.0, 1e-12, 9.9e-10, 1e-9, 1.0000001e-9, 5e-9, 1e-8, 1.1e-8, 1e149, 1e151, 1e155,
                1e200]
_REPLACEMENTS = [True, False, None, "1.0", {}, [], 0.5, [0.5], {"pos": [0, 0, 0]}, *_LITERALS]
_CONTACT_EDGES = [-5e-324, -1e-300, 1.0000000000000002, 1 + 1e-15, 0, 1, -0.0]


def _paths(value, path=()):
    """(path, value) of everything inside a JSON document."""
    items = (value.items() if isinstance(value, dict) else
             enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        yield path + (key,), item
        yield from _paths(item, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def _mutated_motions(draw):
    # the valid document comes from a seeded generator: drawing every number
    # through hypothesis would take most of the test's time
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    t, j, edges = draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.booleans())

    def number():
        if edges and rng.random() < 0.2:
            return _EDGE_NUMBERS[rng.integers(len(_EDGE_NUMBERS))]
        return float(rng.uniform(-1e3, 1e3)) if rng.random() < 0.5 else int(rng.integers(-1e6, 1e6))

    def row(n):
        return [number() for _ in range(n)]
    doc = {"fps": 30, "frames": [
        {"joints": [row(3) for _ in range(j)], "joint_rot6d": [row(6) for _ in range(j)],
         "object": {"pos": row(3), "quat": rng.uniform(-1, 1, 4).tolist()},
         "contact": [[0, 1, -0.0, float(rng.random())][rng.integers(4)] for _ in range(2)]}
        for _ in range(t)]}
    for _ in range(draw(st.integers(0, 2))):
        paths = [p for p, _ in _paths(doc)]
        rows = [p for p, v in _paths(doc) if isinstance(v, list)
                and not any(isinstance(x, (list, dict)) for x in v)]
        frames = [v for p, v in _paths(doc) if len(p) == 2 and p[0] == "frames"
                  and isinstance(v, dict)]
        leaves = [p for p, v in _paths(doc) if type(v) in (int, float)]
        kind = draw(st.sampled_from(["drop", "replace", "number", "ragged", "extra-joint",
                                     "contact", "quat"]))
        frame = draw(st.sampled_from(frames)) if frames else {}
        if kind == "drop":
            keyed = [p for p in paths if isinstance(_at(doc, p[:-1]), dict)]
            path = draw(st.sampled_from(keyed or [("fps",)]))
            _at(doc, path[:-1]).pop(path[-1], None)
        elif kind == "replace" and paths:
            path = draw(st.sampled_from(paths))
            _at(doc, path[:-1])[path[-1]] = draw(st.sampled_from(_REPLACEMENTS))
        elif kind == "number" and leaves:  # np.array reads a bool among numbers as 0 or 1
            path = draw(st.sampled_from(leaves))
            _at(doc, path[:-1])[path[-1]] = draw(st.sampled_from([True, False, None, "0.5",
                                                                  *_LITERALS]))
        elif kind == "ragged" and rows:
            target = _at(doc, draw(st.sampled_from(rows)))
            if draw(st.booleans()):
                target.append(0.25)
            elif target:
                target.pop()
        elif kind == "extra-joint":
            key = draw(st.sampled_from(["joints", "joint_rot6d"]))
            if isinstance(frame.get(key), list):
                frame[key].append([0.5] * (3 if key == "joints" else 6))
        elif kind == "contact" and isinstance(frame.get("contact"), list) and frame["contact"]:
            frame["contact"][draw(st.integers(0, len(frame["contact"]) - 1))] = \
                draw(st.sampled_from(_CONTACT_EDGES))
        elif kind == "quat" and isinstance(frame.get("object"), dict) \
                and isinstance(frame["object"].get("quat"), list):
            scale = draw(st.sampled_from(_QUAT_SCALES))
            frame["object"]["quat"] = [v * scale if isinstance(v, float) else v
                                       for v in frame["object"]["quat"]]
    text = json.dumps(doc)
    for marker, literal in _LITERALS.items():
        text = text.replace(json.dumps(marker), literal)
    return text


def _parse_outcome(text):
    try:
        m = parse_motion_json(text)
    except Exception as e:  # compared field by field with the walker's
        return type(e).__name__, getattr(e, "code", None), getattr(e, "path", None), str(e)
    return m.fps, [(a.dtype.str, a.shape, a.tobytes())
                   for a in (m.joints, m.joint_rot6d, m.object_pos, m.object_quat, m.contact)]


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(_mutated_motions())
def test_array_first_motion_load_matches_the_walker(text):
    """The array path gives the walker's arrays bit for bit, or the walker's error."""
    got = _parse_outcome(text)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hoiplan.scene, "_motion_arrays", lambda frames, text: None)
        want = _parse_outcome(text)
    assert got == want


def test_valid_motion_loads_without_the_per_number_walker(monkeypatch, tmp_path):
    rng = np.random.default_rng(3)
    motion = MotionSequence(30, rng.normal(size=(300, 22, 3)), rng.normal(size=(300, 22, 6)),
                            rng.normal(size=(300, 3)), quat_normalize(rng.normal(size=(300, 4))),
                            rng.uniform(size=(300, 2)))
    save_motion(motion, tmp_path / "motion.json")

    def refuse(*args):
        raise AssertionError("a valid motion went through the per-number walker")
    monkeypatch.setattr(hoiplan.scene, "read_floats", refuse)
    monkeypatch.setattr(hoiplan.scene, "read_pose", refuse)
    again = load_motion(tmp_path / "motion.json")
    for name in ("joints", "joint_rot6d", "object_pos", "object_quat", "contact"):
        assert np.array_equal(getattr(again, name), getattr(motion, name)), name


def test_null_in_any_motion_slot_gets_the_walker_error_at_its_pointer():
    """A null anywhere in a motion leaves the array path for the walker's error."""
    doc = motion_to_json(TestMotionIO().make_motion())
    for path, _ in list(_paths(doc)):
        mutated = json.loads(json.dumps(doc))
        _set(mutated, path, None)
        text = json.dumps(mutated)
        got = _parse_outcome(text)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hoiplan.scene, "_motion_arrays", lambda frames, text: None)
            assert got == _parse_outcome(text)
        assert got[0] == "SchemaError" and got[2] == "/" + "/".join(map(str, path))


# exact reprs with an exponent, the smallest subnormal and a signed zero
_SAVE_VALUES = [0.5, -0.0, 5e-324, 1e-7, 1e16, -2.5e-5, 2.0 ** 53 + 2]


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(st.integers(1, 4), st.integers(0, 3), st.integers(0, 2 ** 32 - 1),
       st.sampled_from([None, math.nan, math.inf, -math.inf]))
def test_save_motion_writes_the_bytes_of_dump_json(t, j, seed, bad):
    rng = np.random.default_rng(seed)

    def values(*shape):
        return np.where(rng.random(shape) < 0.3, rng.choice(_SAVE_VALUES, shape),
                        rng.normal(scale=10.0 ** rng.integers(-3, 4), size=shape))
    contact = rng.choice([0.0, -0.0, 5e-324, 0.5, 1.0, rng.random()], (t, 2))
    fields = [values(t, j, 3), values(t, j, 6), values(t, 3), values(t, 4)]
    if bad is not None:  # JSON spells nan and inf apart from their reprs
        field = fields[rng.choice([k for k, f in enumerate(fields) if f.size])]
        field.reshape(t, -1)[rng.integers(t), 0] = bad
    motion = MotionSequence(int(rng.integers(1, 121)), *fields, contact)
    written = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hoiplan.scene, "write_text", lambda path, text: written.append(text))
        save_motion(motion, "motion.json")
    assert written == [dump_json(motion_to_json(motion))]


class TestBoxGeometry:
    def test_top_surface_unit_cube(self):
        obj = unit_cube()
        assert top_surface_height(obj, Pose.identity()) == pytest.approx(0.5)

    def test_top_surface_raised(self):
        obj = unit_cube()
        assert top_surface_height(obj, Pose(np.array([0, 0, 1.0]),
                                            np.array([1, 0, 0, 0]))) == pytest.approx(1.5)

    def test_top_surface_rotated_45_about_x(self):
        obj = unit_cube()
        q = quat_from_axis_angle(np.array([math.pi / 4, 0, 0]))
        got = top_surface_height(obj, Pose(np.zeros(3), q))
        # corner enumeration oracle
        expected = max(c[2] for c in box_corners(obj, Pose(np.zeros(3), q)))
        assert got == pytest.approx(expected)
        assert got == pytest.approx(math.sqrt(0.5), abs=1e-6)

    def test_bottom_height(self):
        obj = unit_cube()
        assert bottom_height(obj, Pose(np.array([0, 0, 2.0]),
                                       np.array([1, 0, 0, 0]))) == pytest.approx(1.5)

    def test_footprint_axis_aligned(self):
        obj = unit_cube()
        poly = footprint(obj, Pose.identity())
        assert polygon_area(poly) == pytest.approx(1.0)
        assert len(poly) == 4

    def test_footprint_yawed_box(self):
        obj = ObjectSpec("slab", np.array([1.0, 0.5, 0.2]), np.array([1.0, 0, 0]),
                         False, Pose.identity())
        poly = footprint(obj, Pose(np.zeros(3), quat_from_yaw(math.pi / 2)))
        xs, ys = poly[:, 0], poly[:, 1]
        assert xs.min() == pytest.approx(-0.5)
        assert xs.max() == pytest.approx(0.5)
        assert ys.min() == pytest.approx(-1.0)
        assert ys.max() == pytest.approx(1.0)

    def test_footprint_area_yaw_invariant(self):
        obj = ObjectSpec("slab", np.array([0.8, 0.3, 0.2]), np.array([1.0, 0, 0]),
                         False, Pose.identity())
        rng = np.random.default_rng(2)
        base = polygon_area(footprint(obj, Pose.identity()))
        assert abs(base - 4 * 0.8 * 0.3) <= 1e-9
        for _ in range(20):
            q = quat_from_yaw(rng.uniform(0, 2 * math.pi))
            assert polygon_area(footprint(obj, Pose(np.zeros(3), q))) == pytest.approx(base)

    def test_top_surface_yaw_invariant(self):
        obj = unit_cube()
        rng = np.random.default_rng(3)
        for _ in range(20):
            q = quat_from_yaw(rng.uniform(0, 2 * math.pi))
            assert top_surface_height(obj, Pose(np.zeros(3), q)) == pytest.approx(0.5)
