import math

import numpy as np
import pytest
from helpers import assert_layout_invariants, box, make_random_scene, workspace_relations, \
    workspace_scene

from hoiplan.geometry import Pose, quat_from_yaw, quat_geodesic_angle
from hoiplan.layout import (CoincidentPositions, ConflictingFacing, CycleDetected, SceneMap,
                            SceneMapEntry, UnknownObject, build_graph, compute_orientations,
                            compute_positions, geometric_accuracy, parse_scene_map_json,
                            scene_map_to_json, solve)
from hoiplan.relations import Adjacent, Facing, On
from hoiplan.scene import Scene, dump_json


def two_object_scene():
    return Scene([box("door", 0.5, 0.05, 1.0, static=True, pos=(0, 0, 1.0)),
                  box("table", 0.8, 0.5, 0.375, pos=(3, 3, 0.375))],
                 bounds=np.array([-5.0, -5.0, 5.0, 5.0]))


class TestBuildGraph:
    def test_edge_direction_is_reference_to_constrained(self):
        scene = workspace_scene()
        g = build_graph(scene, [On("monitor", "table")])
        assert g.edges == [("table", "monitor", On("monitor", "table"))]
        assert g.predecessors["monitor"] == [("table", On("monitor", "table"))]

    def test_no_relations_no_edges(self):
        g = build_graph(workspace_scene(), [])
        assert g.edges == []
        assert g.facing == []

    def test_cycle_detected(self):
        scene = Scene([box("a", 0.3, 0.3, 0.3, pos=(0, 0, 0.3)),
                       box("b", 0.3, 0.3, 0.3, pos=(2, 0, 0.3))],
                      bounds=np.array([-5.0, -5.0, 5.0, 5.0]))
        with pytest.raises(CycleDetected) as e:
            build_graph(scene, [On("a", "b"), On("b", "a")])
        assert set(e.value.cycle) == {"a", "b"}

    def test_unknown_object(self):
        with pytest.raises(UnknownObject):
            build_graph(workspace_scene(), [On("ghost", "table")])

    def test_facing_kept_separate(self):
        g = build_graph(workspace_scene(), [Facing("monitor", "chair")])
        assert g.edges == []
        assert g.facing == [Facing("monitor", "chair")]


class TestComputePositions:
    def test_adjacent_north_offset(self):
        scene = Scene([box("door", 0.5, 0.05, 1.0, static=True, pos=(0, 0, 1.0)),
                       box("table", 0.8, 0.5, 0.375, pos=(3, 3, 0.375))],
                      bounds=np.array([-5.0, -5.0, 5.0, 5.0]),
                      north=np.array([0.0, 1.0]))
        g = build_graph(scene, [Adjacent("table", "door", "north", 1.0)])
        pos = compute_positions(g, scene, seed=0)
        assert pos["table"][:2] == pytest.approx([0.0, 1.0])
        assert pos["table"][2] == pytest.approx(0.375)

    def test_on_height_alignment(self):
        scene = Scene([box("table", 0.8, 0.5, 0.375, static=True, pos=(0, 0, 0.375)),
                       box("box", 0.1, 0.1, 0.25, pos=(3, 3, 0.25))],
                      bounds=np.array([-5.0, -5.0, 5.0, 5.0]))
        g = build_graph(scene, [On("box", "table")])
        pos = compute_positions(g, scene, seed=4)
        assert pos["box"][2] == pytest.approx(1.0)

    def test_diamond_average(self):
        scene = Scene([box("s1", 0.2, 0.2, 0.5, static=True, pos=(0, 0, 0.5)),
                       box("s2", 0.2, 0.2, 0.5, static=True, pos=(4, 0, 0.5)),
                       box("m", 0.2, 0.2, 0.2, pos=(0, 3, 0.2))],
                      bounds=np.array([-6.0, -6.0, 6.0, 6.0]))
        rels = [Adjacent("m", "s1", "east", 1.0), Adjacent("m", "s2", "west", 1.0)]
        g = build_graph(scene, rels)
        pos = compute_positions(g, scene, seed=0)
        # average of (1, 0) and (3, 0)
        assert pos["m"][:2] == pytest.approx([2.0, 0.0])

    def test_unconstrained_movable_keeps_initial_position(self):
        scene = two_object_scene()
        g = build_graph(scene, [])
        pos = compute_positions(g, scene, seed=0)
        assert pos["table"] == pytest.approx([3, 3, 0.375])

    def test_chained_on_placement(self):
        scene = Scene([box("floor_unit", 1.5, 1.5, 0.2, static=True, pos=(0, 0, 0.2)),
                       box("tray", 0.5, 0.5, 0.05, pos=(3, 3, 0.05)),
                       box("cup", 0.05, 0.05, 0.08, pos=(-3, 3, 0.08))],
                      bounds=np.array([-5.0, -5.0, 5.0, 5.0]))
        rels = [On("tray", "floor_unit"), On("cup", "tray")]
        g = build_graph(scene, rels)
        pos = compute_positions(g, scene, seed=7)
        assert pos["tray"][2] == pytest.approx(0.45)
        assert pos["cup"][2] == pytest.approx(0.58)

    def test_on_siblings_do_not_overlap(self):
        objects = [box("table", 1.0, 1.0, 0.375, static=True, pos=(0, 0, 0.375))]
        rels = []
        for i in range(4):
            objects.append(box(f"item{i}", 0.12, 0.12, 0.1, pos=(3, 3, 0.1)))
            rels.append(On(f"item{i}", "table"))
        scene = Scene(objects, bounds=np.array([-5.0, -5.0, 5.0, 5.0]))
        scene_map = solve(scene, rels, seed=11)
        report = geometric_accuracy(scene, scene_map, rels)
        assert report.pe_p == 0.0


class TestComputeOrientations:
    def test_identity_when_aligned(self):
        scene = workspace_scene()
        positions = {"monitor": np.array([0.0, 0.0, 1.0]), "chair": np.array([2.0, 0.0, 0.45]),
                     "table": np.array([0.0, -3.0, 0.375])}
        # canonical_dir of monitor is (0, 1, 0); chair at +x means yaw -90
        got = compute_orientations(scene, positions, [Facing("monitor", "chair")])
        assert quat_geodesic_angle(got["monitor"], quat_from_yaw(-math.pi / 2)) < 1e-9

    def test_canonical_x_cases(self):
        scene = Scene([box("m", 0.2, 0.2, 0.2, pos=(0, 0, 0.2), canonical=(1, 0, 0)),
                       box("c", 0.2, 0.2, 0.2, static=True, pos=(2, 0, 0.2))],
                      bounds=np.array([-5.0, -5.0, 5.0, 5.0]))
        positions = {"m": np.array([0.0, 0.0, 0.2])}
        got = compute_orientations(scene, positions, [Facing("m", "c")])
        assert quat_geodesic_angle(got["m"], np.array([1, 0, 0, 0])) < 1e-9

    def test_target_north_gives_yaw_90(self):
        scene = Scene([box("m", 0.2, 0.2, 0.2, pos=(0, 0, 0.2), canonical=(1, 0, 0)),
                       box("c", 0.2, 0.2, 0.2, static=True, pos=(0, 2, 0.2))],
                      bounds=np.array([-5.0, -5.0, 5.0, 5.0]))
        positions = {"m": np.array([0.0, 0.0, 0.2])}
        got = compute_orientations(scene, positions, [Facing("m", "c")])
        assert quat_geodesic_angle(got["m"], quat_from_yaw(math.pi / 2)) < 1e-9

    def test_conflicting_facing(self):
        scene = workspace_scene()
        positions = {"monitor": np.array([0.0, 0.0, 1.0]), "chair": np.array([2.0, 0.0, 0.45]),
                     "table": np.array([0.0, -3.0, 0.375])}
        with pytest.raises(ConflictingFacing):
            compute_orientations(scene, positions,
                                 [Facing("monitor", "chair"), Facing("monitor", "table")])

    def test_coincident_positions(self):
        scene = workspace_scene()
        positions = {"monitor": np.array([2.0, 0.0, 1.0]), "chair": np.array([2.0, 0.0, 0.45]),
                     "table": np.array([0.0, -3.0, 0.375])}
        with pytest.raises(CoincidentPositions):
            compute_orientations(scene, positions, [Facing("monitor", "chair")])

    def test_unfaced_objects_keep_initial_orientation(self):
        scene = two_object_scene()
        positions = {"table": np.array([0.0, 1.0, 0.375])}
        got = compute_orientations(scene, positions, [])
        assert quat_geodesic_angle(got["table"],
                                   scene.object("table").initial_pose.orientation) < 1e-12


class TestSolve:
    def test_workspace_invariants_over_100_seeds(self):
        scene = workspace_scene()
        relations = workspace_relations()
        for seed in range(100):
            scene_map = solve(scene, relations, seed)
            assert_layout_invariants(scene, relations, scene_map)
            report = geometric_accuracy(scene, scene_map, relations)
            assert report.pe_p == 0.0
            assert report.pe_o == 0.0

    def test_determinism_and_order_independence(self):
        scene = workspace_scene()
        relations = workspace_relations()
        ref = dump_json(scene_map_to_json(solve(scene, relations, seed=3)))
        assert dump_json(scene_map_to_json(solve(scene, relations, seed=3))) == ref
        shuffled = list(reversed(relations))
        assert dump_json(scene_map_to_json(solve(scene, shuffled, seed=3))) == ref

    def test_seed_changes_on_sampling(self):
        scene = workspace_scene()
        relations = workspace_relations()
        a = solve(scene, relations, seed=0).entry("monitor").position
        b = solve(scene, relations, seed=1).entry("monitor").position
        assert not np.allclose(a, b)

    def test_random_scenes_keep_invariants(self):
        rng = np.random.default_rng(2024)
        for i in range(15):
            scene, relations = make_random_scene(rng)
            scene_map = solve(scene, relations, seed=i)
            assert_layout_invariants(scene, relations, scene_map)

    def test_resolution_order_respects_predecessors(self):
        rng = np.random.default_rng(31337)
        for i in range(20):
            scene, relations = make_random_scene(rng)
            graph = build_graph(scene, relations)
            trace = []
            compute_positions(graph, scene, seed=i, trace=trace)
            assert sorted(trace) == sorted(graph.movable_ids)
            seen = set(graph.static_ids)
            for node in trace:
                for parent, _ in graph.predecessors[node]:
                    assert parent in seen, f"{node} resolved before {parent}"
                seen.add(node)

    def test_scene_map_round_trip(self):
        scene = workspace_scene()
        scene_map = solve(scene, workspace_relations(), seed=5)
        text = dump_json(scene_map_to_json(scene_map))
        again = parse_scene_map_json(text)
        assert dump_json(scene_map_to_json(again)) == text

    def test_scene_map_lookup_first_entry_wins(self):
        first = SceneMapEntry("cup", np.zeros(3), np.array([1.0, 0.0, 0.0, 0.0]))
        second = SceneMapEntry("cup", np.ones(3), np.array([1.0, 0.0, 0.0, 0.0]))
        scene_map = SceneMap([first, second])
        assert scene_map.entry("cup") is first
        assert np.array_equal(scene_map.pose("cup").position, np.zeros(3))
        assert scene_map.has("cup") and not scene_map.has("mug")
        with pytest.raises(UnknownObject):
            scene_map.entry("mug")


class TestGeometricAccuracy:
    def test_solver_output_scores_zero(self):
        scene = workspace_scene()
        relations = workspace_relations()
        scene_map = solve(scene, relations, seed=9)
        report = geometric_accuracy(scene, scene_map, relations)
        assert report.pe_p == 0.0 and report.pe_o == 0.0

    def test_wrong_height_flagged(self):
        scene = workspace_scene()
        relations = workspace_relations()
        scene_map = solve(scene, relations, seed=9)
        bad = scene_map.entry("monitor")
        bad.position = bad.position + np.array([0.0, 0.0, 0.3])
        report = geometric_accuracy(scene, scene_map, relations)
        assert "monitor" in report.position_bad
        assert report.pe_p == pytest.approx(1 / 3)

    def test_penetration_flagged(self):
        scene = workspace_scene()
        relations = workspace_relations()
        scene_map = solve(scene, relations, seed=9)
        table = scene_map.entry("table")
        chair = scene_map.entry("chair")
        chair.position = table.position.copy()
        report = geometric_accuracy(scene, scene_map, relations)
        assert "chair" in report.position_bad

    def test_wrong_orientation_flagged(self):
        scene = workspace_scene()
        relations = workspace_relations()
        scene_map = solve(scene, relations, seed=9)
        entry = scene_map.entry("chair")
        entry.orientation = quat_from_yaw(2.5)
        report = geometric_accuracy(scene, scene_map, relations)
        assert "chair" in report.orientation_bad
