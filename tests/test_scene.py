import json
import math

import numpy as np
import pytest

from hoiplan.geometry import Pose, quat_from_axis_angle, quat_from_yaw
from hoiplan.polygons import polygon_area
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
