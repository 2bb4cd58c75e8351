import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import build_interaction_motion
from helpers import (assert_layout_invariants, grasp_world_pose, grasps_to_json, weights_to_json,
                     workspace_relations, workspace_scene)

from hoiplan.cli import main
from hoiplan.geometry import Pose, matrix_to_quat, quat_conjugate, quat_geodesic_angle, \
    quat_multiply, quat_rotate, rot6d_decode
from hoiplan.layout import load_scene_map
from hoiplan.planner import load_plan
from hoiplan.scene import dump_json, load_motion, loads, motion_to_json, save_motion, \
    save_scene

GOLDEN = Path(__file__).parent / "fixtures" / "golden"


class TestPlanCommand:
    def test_full_pipeline(self, workspace_files, capsys):
        rc = main(["plan", str(workspace_files["scene"]),
                   "--instruction", workspace_files["instruction"],
                   "--backend", "mock", "--fixtures", str(workspace_files["fixtures"]),
                   "--seed", "0", "--out", str(workspace_files["out"]),
                   "--resolution", "0.1"])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        # the mock proposal says table first; the monitor rests on it and must move first
        assert summary["steps"] == ["monitor", "table", "chair"]
        assert summary["corrections"]

        scene_map = load_scene_map(workspace_files["out"] / "scene_map.json")
        assert_layout_invariants(workspace_scene(), workspace_relations(), scene_map)
        plan = load_plan(workspace_files["out"] / "plan.json")
        assert [s.object_id for s in plan.steps] == ["monitor", "table", "chair"]
        assert any(s.route for s in plan.steps)

    def test_unknown_backend_usage_error(self, workspace_files):
        with pytest.raises(SystemExit) as e:
            main(["plan", str(workspace_files["scene"]), "--instruction", "x",
                  "--backend", "carrier-pigeon"])
        assert e.value.code == 2

    def test_missing_fixtures_is_usage_error(self, workspace_files, capsys):
        with pytest.raises(SystemExit) as e:
            main(["plan", str(workspace_files["scene"]), "--instruction",
                  workspace_files["instruction"], "--out", str(workspace_files["out"])])
        assert e.value.code == 2
        assert "--fixtures" in capsys.readouterr().err

    def test_cycle_exits_1_with_payload(self, tmp_path, capsys, workspace_files):
        from hoiplan.llm import render_prompt, save_fixture
        from hoiplan.scene import load_scene
        scene = load_scene(workspace_files["scene"])
        bad = ("```relations\non(monitor, table)\non(table, monitor)\n```\n"
               "```plan\nlift the monitor, move the monitor, put down the monitor\n"
               "lift the table, move the table, put down the table\n"
               "lift the chair, move the chair, put down the chair\n```\n")
        save_fixture(workspace_files["fixtures"], render_prompt(scene, "cycle"), bad)
        rc = main(["plan", str(workspace_files["scene"]), "--instruction", "cycle",
                   "--backend", "mock", "--fixtures", str(workspace_files["fixtures"]),
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["code"] == "layout.cycle_detected"

    def test_missing_fixture_exits_1(self, workspace_files, capsys):
        rc = main(["plan", str(workspace_files["scene"]), "--instruction", "unseen",
                   "--backend", "mock", "--fixtures", str(workspace_files["fixtures"]),
                   "--out", str(workspace_files["out"])])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["code"] == "llm.missing_fixture"


class TestRenderCommand:
    def test_scene_only(self, workspace_files, tmp_path):
        out = tmp_path / "scene.svg"
        rc = main(["render", str(workspace_files["scene"]), "--out", str(out)])
        assert rc == 0
        text = out.read_text()
        assert text.startswith("<svg")
        assert text.count("<polygon") >= 4

    def test_empty_scene_renders_bounds_only(self, tmp_path):
        from hoiplan.scene import Scene
        save_scene(Scene([], np.array([0.0, 0.0, 2.0, 3.0])), tmp_path / "empty.json")
        out = tmp_path / "empty.svg"
        assert main(["render", str(tmp_path / "empty.json"), "--out", str(out)]) == 0
        text = out.read_text()
        assert text.count("<rect") == 1
        assert "<polygon" not in text and "<polyline" not in text

    def test_scene_map_naming_an_unknown_object_is_domain_error(self, workspace_files,
                                                                 tmp_path, capsys):
        doc = json.loads((GOLDEN / "scene_map.json").read_text())
        doc["entries"].append(dict(doc["entries"][0], id="ghost"))
        (tmp_path / "map.json").write_text(json.dumps(doc))
        assert main(["render", str(workspace_files["scene"]), str(tmp_path / "map.json"),
                     "--out", str(tmp_path / "a.svg")]) == 1
        err = capsys.readouterr().err
        assert json.loads(err) == {"error": {
            "code": "layout.unknown_object", "detail": {"id": "ghost"},
            "message": "scene-map entry 'ghost' names no object in the scene"}}
        assert not (tmp_path / "a.svg").exists()

    def test_render_with_map_and_plan_byte_stable(self, workspace_files, tmp_path):
        main(["plan", str(workspace_files["scene"]),
              "--instruction", workspace_files["instruction"],
              "--backend", "mock", "--fixtures", str(workspace_files["fixtures"]),
              "--out", str(workspace_files["out"]), "--resolution", "0.1"])
        args = ["render", str(workspace_files["scene"]),
                str(workspace_files["out"] / "scene_map.json"),
                "--plan", str(workspace_files["out"] / "plan.json")]
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert "<polyline" in a.read_text()

    def test_arrows_match_solved_facing(self, workspace_files, tmp_path):
        import re
        main(["plan", str(workspace_files["scene"]),
              "--instruction", workspace_files["instruction"],
              "--backend", "mock", "--fixtures", str(workspace_files["fixtures"]),
              "--out", str(workspace_files["out"]), "--resolution", "0.1"])
        out = tmp_path / "map.svg"
        main(["render", str(workspace_files["scene"]),
              str(workspace_files["out"] / "scene_map.json"), "--out", str(out)])
        scene_map = load_scene_map(workspace_files["out"] / "scene_map.json")
        scene = workspace_scene()
        svg = out.read_text()
        lines = re.findall(r'<line x1="([\d.-]+)" y1="([\d.-]+)" x2="([\d.-]+)" '
                           r'y2="([\d.-]+)"', svg)
        # recover each arrow's world direction (svg y is flipped) and compare
        starts = {}
        for e in scene_map.entries:
            starts[e.object_id] = e.position[:2]
        matched = 0
        for x1, y1, x2, y2 in lines:
            x1, y1, x2, y2 = map(float, (x1, y1, x2, y2))
            world_start = np.array([x1 / 100.0 + scene.bounds[0],
                                    scene.bounds[3] - y1 / 100.0])
            d_svg = np.array([x2 - x1, -(y2 - y1)])
            for e in scene_map.entries:
                if np.linalg.norm(world_start - e.position[:2]) < 1e-6:
                    want = quat_rotate(e.orientation,
                                       scene.object(e.object_id).canonical_dir)[:2]
                    got = d_svg / np.linalg.norm(d_svg)
                    want = want / np.linalg.norm(want)
                    assert float(got @ want) > 0.999, e.object_id
                    matched += 1
        assert matched >= 2  # monitor and chair both carry facing constraints


class TestScoreCommand:
    def test_identical_files(self, tmp_path, capsys):
        motion, _ = build_interaction_motion()
        save_motion(motion, tmp_path / "ref.json")
        save_motion(motion, tmp_path / "sim.json")
        rc = main(["score", "--ref", str(tmp_path / "ref.json"),
                   "--sim", str(tmp_path / "sim.json")])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["tracking_error"] == {"e_h_cm": 0.0, "e_o_cm": 0.0}
        assert report["reward"]["r_body"] == 1.0
        assert report["reward"]["total"] == 1.05

    def test_default_weights_table_used(self, tmp_path, capsys):
        # named skeleton: unlisted joints carry zero weight, listed ones the table's
        motion, _ = build_interaction_motion(t=12)
        save_motion(motion, tmp_path / "ref.json")
        sim = build_interaction_motion(t=12)[0]
        sim.joints[:, 0, :] += 0.05  # root position error only
        save_motion(sim, tmp_path / "sim.json")
        rc = main(["score", "--ref", str(tmp_path / "ref.json"),
                   "--sim", str(tmp_path / "sim.json"),
                   "--joint-names", "root,left_upper_arm,left_lower_arm,left_wrist"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["reward"]["r_body"] < 1.0
        assert report["tracking_error"]["e_h_cm"] > 0

    def test_report_written_to_file(self, tmp_path):
        motion, _ = build_interaction_motion(t=9)
        save_motion(motion, tmp_path / "ref.json")
        save_motion(motion, tmp_path / "sim.json")
        out = tmp_path / "report.json"
        rc = main(["score", "--ref", str(tmp_path / "ref.json"),
                   "--sim", str(tmp_path / "sim.json"), "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert set(report) == {"frames", "tracking_error", "reward"}

    def test_report_matches_golden_schema(self, tmp_path):
        from pathlib import Path
        motion, _ = build_interaction_motion(t=9)
        save_motion(motion, tmp_path / "ref.json")
        save_motion(motion, tmp_path / "sim.json")
        out = tmp_path / "report.json"
        assert main(["score", "--ref", str(tmp_path / "ref.json"),
                     "--sim", str(tmp_path / "sim.json"), "--out", str(out)]) == 0
        golden = Path(__file__).parent / "fixtures" / "golden" / "score_report.json"
        assert out.read_bytes() == golden.read_bytes()

    def test_custom_weights_file(self, tmp_path, capsys):
        from hoiplan.reward import DEFAULT_BODY_WEIGHTS
        motion, _ = build_interaction_motion(t=9)
        save_motion(motion, tmp_path / "ref.json")
        save_motion(motion, tmp_path / "sim.json")
        wpath = tmp_path / "weights.json"
        wpath.write_text(json.dumps(weights_to_json(DEFAULT_BODY_WEIGHTS)))
        rc = main(["score", "--ref", str(tmp_path / "ref.json"),
                   "--sim", str(tmp_path / "sim.json"), "--weights", str(wpath)])
        assert rc == 0

    def test_shape_mismatch_is_domain_error(self, tmp_path, capsys):
        save_motion(build_interaction_motion(t=9)[0], tmp_path / "ref.json")
        save_motion(build_interaction_motion(t=12)[0], tmp_path / "sim.json")
        rc = main(["score", "--ref", str(tmp_path / "ref.json"),
                   "--sim", str(tmp_path / "sim.json")])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["code"] == "reward.length_mismatch"


class TestPostprocessCommand:
    def run_postprocess(self, tmp_path, motion, grasp, extra=(), out="out.json"):
        save_motion(motion, tmp_path / "motion.json")
        (tmp_path / "grasp.json").write_text(
            json.dumps(grasps_to_json({"left": None, "right": grasp})))
        out = tmp_path / out
        rc = main(["postprocess", "--motion", str(tmp_path / "motion.json"),
                   "--grasp", str(tmp_path / "grasp.json"),
                   "--out", str(out),
                   "--wrist-joints", ",3", "--arm-chains", ";1,2,3", *extra])
        assert rc == 0
        return load_motion(out), json.loads(out.with_suffix(".diagnostics.json").read_text())

    def test_object_static_outside_contact(self, tmp_path):
        motion, grasp = build_interaction_motion()
        out, diag = self.run_postprocess(tmp_path, motion, grasp)
        s, e = diag["segmentation"]["right"]["contact"]
        assert (s, e) == (30, 60)
        for t in range(s):
            assert np.array_equal(out.object_pos[t], out.object_pos[0])
        for t in range(e, out.num_frames):
            assert np.array_equal(out.object_pos[t], out.object_pos[-1])

    def test_wrist_rigidity_inside_contact(self, tmp_path):
        motion, grasp = build_interaction_motion()
        out, diag = self.run_postprocess(tmp_path, motion, grasp)
        s, e = diag["segmentation"]["right"]["contact"]
        for t in range(s, e):
            obj_q = out.object_quat[t]
            wrist_pos = out.joints[t, 3]
            wrist_q = matrix_to_quat(rot6d_decode(out.joint_rot6d[t, 3]))
            rel_pos = quat_rotate(quat_conjugate(obj_q), wrist_pos - out.object_pos[t])
            rel_q = quat_multiply(quat_conjugate(obj_q), wrist_q)
            assert np.linalg.norm(rel_pos - grasp.wrist_pose.position) <= 1e-9
            assert quat_geodesic_angle(rel_q, grasp.wrist_pose.orientation) <= 1e-9

    def test_out_into_missing_directory(self, tmp_path):
        motion, grasp = build_interaction_motion()
        out, diag = self.run_postprocess(tmp_path, motion, grasp, out="new/dir/out.json")
        assert out.num_frames == motion.num_frames
        assert diag["segmentation"]["right"]["contact"] == [30, 60]

    def test_boundary_jump_reduced(self, tmp_path):
        motion, grasp = build_interaction_motion(noise=0.05)
        out, diag = self.run_postprocess(tmp_path, motion, grasp)
        assert diag["object_jump_after"] < diag["object_jump_before"]

    def test_static_rigid_fixture_unchanged(self, tmp_path):
        # object never moves and the wrist already matches the grasp exactly
        motion, grasp = build_interaction_motion(noise=0.0)
        motion.object_pos[:] = motion.object_pos[0]
        motion.object_quat[:] = motion.object_quat[0]
        from hoiplan.geometry import compose
        for t in range(motion.num_frames):
            w = grasp_world_pose(Pose(motion.object_pos[t], motion.object_quat[t]), grasp)
            motion.joints[t, 3] = w.position
            from hoiplan.geometry import rot6d_encode
            motion.joint_rot6d[t, 3] = rot6d_encode(w.orientation)
        out, _ = self.run_postprocess(tmp_path, motion, grasp)
        assert np.array_equal(out.object_pos, motion.object_pos)
        assert np.array_equal(out.object_quat, motion.object_quat)
        assert np.array_equal(out.joints[:, 3], motion.joints[:, 3])
        assert np.array_equal(out.joint_rot6d[:, 3], motion.joint_rot6d[:, 3])


class TestRouteCommand:
    def test_simple_route(self, workspace_files, capsys):
        rc = main(["route", str(workspace_files["scene"]),
                   "--start=-4,-4", "--goal=4,4", "--resolution", "0.1"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["route"]) >= 2
        import math
        for a, b in zip(doc["route"], doc["route"][1:-1]):
            assert math.dist(a, b) >= 1.0 - 1e-9

    def test_blocked_route_domain_error(self, tmp_path, capsys):
        from helpers import box
        from hoiplan.scene import Scene
        wall = box("wall", 0.2, 3.0, 1.0, static=True, pos=(0.0, 0.0, 1.0))
        scene = Scene([wall], bounds=np.array([-3.0, -3.0, 3.0, 3.0]))
        save_scene(scene, tmp_path / "scene.json")
        rc = main(["route", str(tmp_path / "scene.json"),
                   "--start=-2,0", "--goal=2,0", "--resolution", "0.1"])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["code"] == "planner.no_path"


class TestNonUtf8Input:
    """Every file the CLI reads is decoded as UTF-8 at one boundary; a file
    that is not UTF-8 is a structured schema error, never a traceback."""

    @pytest.mark.parametrize("slot", ["plan-scene", "plan-fixture", "render-scene-map",
                                      "render-plan", "score-ref", "score-weights",
                                      "postprocess-motion", "postprocess-grasp"])
    def test_exits_1_with_schema_error(self, slot, workspace_files, tmp_path, capsys):
        motion, grasp = build_interaction_motion(t=9)
        save_motion(motion, tmp_path / "motion.json")
        (tmp_path / "grasp.json").write_text(
            json.dumps(grasps_to_json({"left": None, "right": grasp})))
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"id": "\xff"}\n')
        if slot == "plan-fixture":
            for fixture in workspace_files["fixtures"].glob("*.txt"):
                fixture.write_bytes(b"```relations\n\xff\n```\n")
        scene, motion_path, grasp_path = (str(workspace_files["scene"]),
                                          str(tmp_path / "motion.json"),
                                          str(tmp_path / "grasp.json"))

        def plan(scene_path):
            return ["plan", scene_path, "--instruction", workspace_files["instruction"],
                    "--backend", "mock", "--fixtures", str(workspace_files["fixtures"]),
                    "--out", str(tmp_path / "out")]
        argv = {
            "plan-scene": plan(str(bad)),
            "plan-fixture": plan(scene),
            "render-scene-map": ["render", scene, str(bad), "--out", str(tmp_path / "a.svg")],
            "render-plan": ["render", scene, "--plan", str(bad), "--out", str(tmp_path / "a.svg")],
            "score-ref": ["score", "--ref", str(bad), "--sim", motion_path],
            "score-weights": ["score", "--ref", motion_path, "--sim", motion_path,
                              "--weights", str(bad)],
            "postprocess-motion": ["postprocess", "--motion", str(bad), "--grasp", grasp_path,
                                   "--out", str(tmp_path / "o.json")],
            "postprocess-grasp": ["postprocess", "--motion", motion_path, "--grasp", str(bad),
                                  "--out", str(tmp_path / "o.json")],
        }[slot]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert json.loads(err)["error"]["code"] == "scene.schema_error"


class TestBoundaryErrors:
    """Non-finite numbers and unreadable or unwritable paths exit 1 with a
    structured JSON payload on stderr, never a traceback."""

    def run_error(self, argv, capsys):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        return json.loads(err)["error"]

    def test_nan_weight_is_schema_error(self, tmp_path, capsys):
        from hoiplan.reward import DEFAULT_BODY_WEIGHTS
        save_motion(build_interaction_motion(t=9)[0], tmp_path / "ref.json")
        weights = weights_to_json(DEFAULT_BODY_WEIGHTS)
        weights["w_q"][next(iter(weights["w_q"]))] = float("nan")
        (tmp_path / "weights.json").write_text(json.dumps(weights))
        ref = str(tmp_path / "ref.json")
        error = self.run_error(["score", "--ref", ref, "--sim", ref,
                                "--weights", str(tmp_path / "weights.json")], capsys)
        assert error["code"] == "scene.schema_error"

    def test_nan_joint_is_schema_error(self, tmp_path, capsys):
        save_motion(build_interaction_motion(t=9)[0], tmp_path / "ref.json")
        doc = motion_to_json(build_interaction_motion(t=9)[0])
        doc["frames"][4]["joints"][1][2] = float("nan")
        (tmp_path / "sim.json").write_text(json.dumps(doc))
        error = self.run_error(["score", "--ref", str(tmp_path / "ref.json"),
                                "--sim", str(tmp_path / "sim.json")], capsys)
        assert error["code"] == "scene.schema_error"

    def test_missing_input_is_read_error(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        error = self.run_error(["score", "--ref", missing, "--sim", missing], capsys)
        assert error["code"] == "io.read_error"
        assert error["detail"] == {"path": missing}

    def test_out_below_a_regular_file_is_write_error(self, tmp_path, capsys):
        save_motion(build_interaction_motion(t=9)[0], tmp_path / "ref.json")
        (tmp_path / "file").write_text("not a directory")
        out = str(tmp_path / "file" / "report.json")
        ref = str(tmp_path / "ref.json")
        error = self.run_error(["score", "--ref", ref, "--sim", ref, "--out", out], capsys)
        assert error["code"] == "io.write_error"
        assert error["detail"] == {"path": out}


    def test_overflowing_bounds_is_schema_error(self, tmp_path, capsys):
        # 1e999 parses as inf; rasterize used to die on it with OverflowError
        doc = {"bounds": [0, 0, 1.5, 1], "north": [0, 1], "objects": []}
        (tmp_path / "scene.json").write_text(json.dumps(doc).replace("1.5", "1e999"))
        error = self.run_error(["route", str(tmp_path / "scene.json"),
                                "--start=0.5,0.5", "--goal=0.6,0.5"], capsys)
        assert error["code"] == "scene.schema_error"
        assert "/bounds" in error["message"]

    @pytest.mark.parametrize("pointer", ["/north", "/objects/0/canonical_dir",
                                         "/objects/0/pose/quat", "/frames/4/object/quat",
                                         "/objects/0/half_extents/0"])
    def test_overflowing_norm_is_schema_error_without_warning(self, pointer, workspace_files,
                                                              tmp_path, capsys):
        # squaring 1e200 overflows the norm: no numpy warning may reach stderr,
        # and a north vector must not collapse to [0, 0]; a 1e200 half extent
        # is past the coordinate limit, and used to overflow the planner
        if pointer.startswith("/frames"):
            doc = motion_to_json(build_interaction_motion(t=9)[0])
            doc["frames"][4]["object"]["quat"] = [1e200, 0.0, 0.0, 0.0]
            (tmp_path / "ref.json").write_text(json.dumps(doc))
            argv = ["score", "--ref", str(tmp_path / "ref.json"),
                    "--sim", str(tmp_path / "ref.json")]
        else:
            doc = json.loads(workspace_files["scene"].read_text())
            owner, key = doc, pointer.split("/")[1:]
            for part in key[:-1]:
                owner = owner[int(part)] if part.isdigit() else owner[part]
            if key[-1].isdigit():
                owner[int(key[-1])] = 1e200
            else:
                owner[key[-1]] = [1e200] + [0.0] * (len(owner[key[-1]]) - 1)
            (tmp_path / "scene.json").write_text(json.dumps(doc))
            argv = ["plan", str(tmp_path / "scene.json"),
                    "--instruction", workspace_files["instruction"], "--backend", "mock",
                    "--fixtures", str(workspace_files["fixtures"]), "--out", str(tmp_path / "out")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # a numpy overflow warning would raise here
            assert main(argv) == 1
        err = capsys.readouterr().err
        error = loads(err)["error"]
        assert err == json.dumps({"error": error}) + "\n"
        assert error["code"] == "scene.schema_error"
        assert error["detail"] == {"path": pointer}

    def test_huge_grid_is_refused_before_allocation(self, tmp_path, capsys):
        scene = {"bounds": [-1e6, -1e6, 1e6, 1e6], "north": [0, 1], "objects": []}
        (tmp_path / "scene.json").write_text(json.dumps(scene))
        error = self.run_error(["route", str(tmp_path / "scene.json"),
                                "--start=0,0", "--goal=1,1"], capsys)
        assert error["code"] == "planner.grid_too_large"
        assert error["detail"]["limit"] == 1 << 24

    @pytest.mark.parametrize("resolution", ["1e-320", "1e-300", "1e-150"])
    @pytest.mark.parametrize("command", ["route", "plan"])
    def test_tiny_resolution_is_grid_too_large(self, command, resolution, workspace_files,
                                               tmp_path, capsys):
        # 1e-320 made the cell count inf (OverflowError), 1e-300 a 300-digit integer
        scene = str(workspace_files["scene"])
        argv = {"route": ["route", scene, "--start=0,0", "--goal=1,1"],
                "plan": ["plan", scene, "--instruction", workspace_files["instruction"],
                         "--backend", "mock", "--fixtures", str(workspace_files["fixtures"]),
                         "--out", str(tmp_path / "out")]}[command]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv + ["--resolution", resolution]) == 1
        err = capsys.readouterr().err
        error = loads(err)["error"]
        assert err == json.dumps({"error": error}) + "\n"
        assert len(err) < 200
        assert error["code"] == "planner.grid_too_large"
        assert error["detail"]["limit"] == 1 << 24
        if resolution == "1e-150":
            assert 1e300 < error["detail"]["cells"] < math.inf
        else:  # the count is past the double range
            assert error["detail"]["cells"] is None

    def test_joint_index_past_the_skeleton_is_domain_error(self, tmp_path, capsys):
        argv = postprocess_argv(tmp_path)
        for flags in (["--wrist-joints", ",99"], ["--wrist-joints", ",3", "--arm-chains",
                                                  ";1,2,4"]):
            error = self.run_error(argv + flags, capsys)
            assert error["code"] == "motion.joint_out_of_range"
            assert error["detail"]["joints"] == 4


@pytest.mark.parametrize("kind,where,value,pointer", [
    ("grasp", ["right", "pos"], ["0", "0.1", "0"], "/right/pos/0"),
    ("grasp", ["right", "pos"], [True, 0, 0], "/right/pos/0"),
    ("grasp", ["right", "pos"], [[0, 0, 0]], "/right/pos"),
    ("grasp", ["right", "quat"], [0, 0, 0, 0], "/right/quat"),
    ("grasp", ["left"], [1, 2], "/left"),
    ("grasp", ["right", "fingers"], [0.5, False], "/right/fingers/1"),
    ("grasp", ["Left"], {"pos": [0, 0, 0], "quat": [1, 0, 0, 0]}, "/Left"),
    ("scene_map", ["entries", 0, "pos"], ["1", 0, 0], "/entries/0/pos/0"),
    ("scene_map", ["entries", 1, "id"], 5, "/entries/1/id"),
    ("scene_map", ["entries", 0, "id"], ["a"], "/entries/0/id"),
    ("scene_map", ["entries", 2, "quat"], [0, 0, 0, 0], "/entries/2/quat"),
    ("scene_map", ["entries", 2, "id"], "chair", "/entries/2/id"),
    ("plan", ["steps", 0, "route"], [[True, 1]], "/steps/0/route/0/0"),
    ("plan", ["steps", 1, "route"], [[0, 0], ["1.5", 1]], "/steps/1/route/1/0"),
    ("plan", ["steps", 0, "object"], 7, "/steps/0/object"),
    ("plan", ["steps", 2, "text"], "", "/steps/2/text")],
    ids=["grasp-string", "grasp-bool", "grasp-nested", "grasp-zero-quat", "grasp-list",
         "grasp-finger-bool", "grasp-unknown-key", "map-string", "map-number-id",
         "map-list-id", "map-zero-quat", "map-repeated-id", "plan-bool", "plan-string",
         "plan-number-object", "plan-empty-text"])
def test_malformed_value_is_schema_error_at_its_pointer(kind, where, value, pointer,
                                                        workspace_files, tmp_path, capsys):
    # the scene-map, plan and grasp loaders used to let these through, end in a
    # traceback, or report a Python message without the value's pointer
    if kind == "grasp":
        argv = postprocess_argv(tmp_path)
        path = tmp_path / "grasp.json"
    else:
        path = tmp_path / f"{kind}.json"
        argv = ["render", str(workspace_files["scene"]),
                *([str(path)] if kind == "scene_map" else ["--plan", str(path)]),
                "--out", str(tmp_path / "a.svg")]
        path.write_text((GOLDEN / path.name).read_text())
    doc = json.loads(path.read_text())
    owner = doc
    for key in where[:-1]:
        owner = owner[key]
    owner[where[-1]] = value
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 1
    err = capsys.readouterr().err
    error = loads(err)["error"]
    assert err == json.dumps({"error": error}) + "\n"
    assert error["code"] == "scene.schema_error"
    assert error["detail"] == {"path": pointer}


def postprocess_argv(tmp_path):
    """postprocess on a 4-joint motion whose right hand holds a grasp."""
    motion, grasp = build_interaction_motion(t=20, contact_range=(5, 15))
    save_motion(motion, tmp_path / "motion.json")
    (tmp_path / "grasp.json").write_text(
        json.dumps(grasps_to_json({"left": None, "right": grasp})))
    return ["postprocess", "--motion", str(tmp_path / "motion.json"),
            "--grasp", str(tmp_path / "grasp.json"), "--out", str(tmp_path / "out.json")]


@pytest.mark.parametrize("flag,value", [
    ("--wrist-joints", "a,b"), ("--wrist-joints", ",-1"), ("--wrist-joints", "1.5,"),
    ("--wrist-joints", "1,2,3"), ("--arm-chains", ";1,x,3"), ("--arm-chains", ";1,-2,3"),
    ("--arm-chains", ";1,2")])
def test_malformed_joint_index_is_usage_error(flag, value, tmp_path, capsys):
    with pytest.raises(SystemExit) as e:
        main(postprocess_argv(tmp_path) + [flag, value])
    assert e.value.code == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [
    ("--threshold", "nan"), ("--threshold", "inf"), ("--threshold", "-0.1"),
    ("--threshold", "2"), ("--min-run", "-2"), ("--min-run", "0"), ("--min-run", "1.5"),
    ("--window", "0"), ("--window", "-1"), ("--window", "x")])
def test_invalid_postprocess_flag_is_usage_error(flag, value, tmp_path, capsys):
    with pytest.raises(SystemExit) as e:
        main(postprocess_argv(tmp_path) + [flag, value])
    assert e.value.code == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--threshold", "0"], ["--threshold", "1"],
                                   ["--min-run", "1", "--window", "1"]])
def test_postprocess_flag_range_ends_are_accepted(flags, tmp_path, capsys):
    assert main(postprocess_argv(tmp_path) + flags) == 0


@pytest.mark.parametrize("command,flags", [
    ("route", ["--resolution", "0"]), ("route", ["--resolution", "nan"]),
    ("route", ["--resolution", "-1"]), ("route", ["--resolution", "inf"]),
    ("route", ["--start=nan,0"]), ("route", ["--goal=0,inf"]),
    ("route", ["--agent-radius", "-5"]), ("route", ["--agent-radius", "nan"]),
    ("route", ["--stride", "-1"]), ("route", ["--stride", "inf"]),
    ("plan", ["--resolution", "0"]), ("plan", ["--agent-radius", "-0.1"]),
    ("plan", ["--agent-start=inf,0"])])
def test_invalid_numeric_flag_is_usage_error(command, flags, workspace_files, capsys):
    scene = str(workspace_files["scene"])
    argv = {"route": ["route", scene, "--start=-4,-4", "--goal=4,4"],
            "plan": ["plan", scene, "--instruction", workspace_files["instruction"],
                     "--fixtures", str(workspace_files["fixtures"]),
                     "--out", str(workspace_files["out"])]}[command]
    with pytest.raises(SystemExit) as e:
        main(argv + flags)
    assert e.value.code == 2
    assert flags[0].split("=")[0] in capsys.readouterr().err
