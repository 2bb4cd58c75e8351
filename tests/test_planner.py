import heapq
import importlib.util
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from helpers import astar_cells_oracle, box, cells_near_footprint_oracle, dijkstra_oracle, \
    grid_from_rows, plan_routes_oracle, rasterize_oracle, workspace_relations, workspace_scene
from hypothesis import given, settings
from hypothesis import strategies as st

from hoiplan import planner
from hoiplan.errors import HoiplanError
from hoiplan.geometry import quat_from_axis_angle, quat_from_yaw, quat_multiply
from hoiplan.layout import CycleDetected, SceneMap, SceneMapEntry, UnknownObject, solve
from hoiplan.llm import extract_sections
from hoiplan.planner import (MAX_GRID_CELLS, SQRT2, DuplicateStep, ExecutionPlan, GoalOccupied,
                             GridTooLarge, MissingStep, NoPath, OccupancyGrid, PathResult,
                             StartOccupied, UnknownStep, astar, astar_cells, dependency_order,
                             downsample, load_plan, parse_plan_json, plan_routes, plan_to_json,
                             rasterize, save_plan)
from hoiplan.polygons import convex_distance, convex_intersects, point_to_convex_distance
from hoiplan.relations import ActionStep, On, parse_plan, parse_relations, render_plan_step
from hoiplan.scene import Scene, dump_json, footprint, parse_scene_json


class TestAstar:
    def test_empty_3x3_corner_to_corner_8_connected(self):
        grid = grid_from_rows(["...", "...", "..."])
        result = astar_cells(grid, (0, 0), {(2, 2)})
        assert (result.straight, result.diagonal) == (0, 2)

    def test_start_equals_goal(self):
        grid = grid_from_rows(["...", "...", "..."])
        waypoints = astar(grid, (0.5, 0.5), (0.5, 0.5))
        assert waypoints == [(0.5, 0.5)]

    def test_wall_blocks(self):
        grid = grid_from_rows([".#.", ".#.", ".#."])
        with pytest.raises(NoPath):
            astar_cells(grid, (0, 0), {(2, 0)})

    def test_start_and_goal_occupied(self):
        grid = grid_from_rows(["#.", ".."])
        with pytest.raises(StartOccupied) as start:
            astar(grid, (0.5, 1.5), (1.5, 1.5))
        with pytest.raises(GoalOccupied) as goal:
            astar(grid, np.array([0.5, 0.5]), np.array([0.5, 1.5]))
        # coordinates print as plain floats, not numpy reprs
        assert str(start.value) == "start (0.5, 1.5) is occupied"
        assert str(goal.value) == "goal (0.5, 1.5) is occupied"

    def test_no_corner_cutting(self):
        # the diagonal between two occupied cells must be avoided
        grid = grid_from_rows([".#", "#."])  # occupied at (1,1) and (0,0)
        with pytest.raises(NoPath):
            astar_cells(grid, (0, 1), {(1, 0)})

    def test_path_cells_are_free_and_adjacent(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            occ = rng.uniform(size=(12, 12)) < 0.3
            grid = OccupancyGrid(0.5, np.zeros(2), occ)
            free = [tuple(c) for c in np.argwhere(~occ)]
            if len(free) < 2:
                continue
            start, goal = (free[i] for i in rng.choice(len(free), size=2, replace=False))
            try:
                result = astar_cells(grid, start, {goal})
            except NoPath:
                assert dijkstra_oracle(grid, start, goal) is None
                continue
            for c in result.cells:
                assert grid.is_free(c)
            for a, b in zip(result.cells, result.cells[1:]):
                assert max(abs(a[0] - b[0]), abs(a[1] - b[1])) == 1

    def test_matches_dijkstra_on_random_grids(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            occ = rng.uniform(size=(10, 10)) < 0.35
            occ[0, 0] = occ[9, 9] = False
            grid = OccupancyGrid(1.0, np.zeros(2), occ)
            oracle = dijkstra_oracle(grid, (0, 0), (9, 9))
            try:
                result = astar_cells(grid, (0, 0), {(9, 9)})
                assert oracle == (result.straight, result.diagonal)
            except NoPath:
                assert oracle is None

    def test_deterministic_tie_breaking(self):
        grid = grid_from_rows(["....", "....", "....", "...."])
        a = astar_cells(grid, (0, 0), {(3, 1)}).cells
        b = astar_cells(grid, (0, 0), {(3, 1)}).cells
        assert a == b

    def test_multi_goal_picks_nearest(self):
        grid = grid_from_rows(["....", "....", "....", "...."])
        result = astar_cells(grid, (0, 0), {(3, 3), (1, 0)})
        assert result.cells[-1] == (1, 0)


@st.composite
def multi_goal_cases(draw):
    """A random grid up to 8x8 with a free start and 2-8 distinct free goals."""
    nx = draw(st.integers(2, 8))
    ny = draw(st.integers(2, 8))
    percent_occupied = draw(st.integers(0, 60))
    occ = np.array(draw(st.lists(st.integers(0, 99).map(lambda v: v < percent_occupied),
                                 min_size=nx * ny, max_size=nx * ny)),
                   dtype=bool).reshape(nx, ny)
    cells = draw(st.lists(st.tuples(st.integers(0, nx - 1), st.integers(0, ny - 1)),
                          min_size=3, max_size=9, unique=True))
    for c in cells:
        occ[c] = False
    return OccupancyGrid(1.0, np.zeros(2), occ), cells[0], cells[1:]


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(multi_goal_cases())
def test_multi_goal_astar_matches_dijkstra(case):
    grid, start, goals = case
    reachable = [c for c in (dijkstra_oracle(grid, start, g) for g in goals) if c is not None]
    try:
        result = astar_cells(grid, start, set(goals))
    except NoPath:
        assert reachable == []
        return
    assert (result.straight, result.diagonal) == min(reachable, key=lambda c: c[0] + c[1] * SQRT2)
    assert result.cells[0] == start
    assert result.cells[-1] in goals
    for c in result.cells:
        assert grid.is_free(c)
    steps = [(abs(a[0] - b[0]), abs(a[1] - b[1])) for a, b in zip(result.cells, result.cells[1:])]
    assert all(max(step) == 1 for step in steps)
    assert sum(min(step) for step in steps) == result.diagonal


def _outside(lo, hi):
    """An integer coordinate within five cells of, but outside, [lo, hi)."""
    return st.integers(lo - 5, lo - 1) | st.integers(hi, hi + 4)


@st.composite
def goal_set_cases(draw):
    """A random grid up to 60x60, a free start, 1 to 2000 free goals and up to
    three goals outside the grid, which only widen the goal bounding box.

    Half the grids are diagonal walls of cells that touch only at their
    corners, with random holes: only the no-corner-cutting rule stops a search
    from slipping through such a wall.
    """
    nx = draw(st.integers(2, 60))
    ny = draw(st.integers(2, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        x, y = np.ogrid[:nx, :ny]
        occ = (((x - y) % draw(st.integers(2, 6)) == 0)
               & (rng.uniform(size=(nx, ny)) >= draw(st.sampled_from([0.0, 0.05, 0.2]))))
    else:
        occ = rng.uniform(size=(nx, ny)) < draw(st.sampled_from([0.0, 0.1, 0.3, 0.5]))
    free = np.argwhere(~occ)
    if len(free) < 2:
        occ[:] = False
        free = np.argwhere(~occ)
    picks = rng.permutation(len(free))[:1 + draw(st.integers(1, 2000))]
    start, *goals = (tuple(int(v) for v in free[i]) for i in picks)
    outside = draw(st.lists(st.tuples(st.integers(-5, nx + 4), _outside(0, ny))
                            | st.tuples(_outside(0, nx), st.integers(-5, ny + 4)), max_size=3))
    return OccupancyGrid(1.0, np.zeros(2), occ), start, set(goals) | set(outside)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(goal_set_cases())
def test_astar_cells_matches_scalar_oracle(case):
    grid, start, goals = case
    try:
        expected = astar_cells_oracle(grid, start, goals)
    except NoPath:
        expected = None
    # a set of cells, and the (n, 2) row-major array that plan_routes passes
    for given_goals in (goals, np.array(sorted(goals))):
        if expected is None:
            with pytest.raises(NoPath):
                astar_cells(grid, start, given_goals)
            continue
        result = astar_cells(grid, start, given_goals)
        assert (result.cells, result.straight, result.diagonal) == \
            (expected.cells, expected.straight, expected.diagonal)


class TestDownsample:
    def test_short_route_unchanged(self):
        assert downsample([(0, 0)], 1.0) == [(0.0, 0.0)]

    def test_spacing_enforced(self):
        pts = [(0.0, 0.1 * i) for i in range(30)]
        out = downsample(pts, 1.0)
        for a, b in zip(out, out[1:-1]):
            assert math.dist(a, b) >= 1.0 - 1e-12
        assert out[-1] == pts[-1]
        assert out[0] == (0.0, 0.0)

    def test_goal_always_present(self):
        pts = [(0.0, 0.0), (0.0, 0.6), (0.0, 1.2), (0.0, 1.3)]
        out = downsample(pts, 1.0)
        assert out[-1] == (0.0, 1.3)


class TestRasterize:
    def empty_scene(self):
        return Scene([], bounds=np.array([0.0, 0.0, 2.0, 2.0]))

    def test_empty_scene_all_free(self):
        grid = rasterize(self.empty_scene(), resolution=0.5)
        assert grid.shape == (4, 4)
        assert not grid.occupied.any()

    def test_box_occupies_covered_cells(self):
        scene = Scene([box("slab", 0.4, 0.4, 0.2, static=True, pos=(1.0, 1.0, 0.2))],
                      bounds=np.array([0.0, 0.0, 2.0, 2.0]))
        grid = rasterize(scene, resolution=0.5, agent_radius=0.0)
        # footprint spans [0.6, 1.4]^2: the middle 2x2 block only
        expected = np.zeros((4, 4), dtype=bool)
        expected[1:3, 1:3] = True
        assert np.array_equal(grid.occupied, expected)

    def test_matches_polygon_intersection_oracle(self):
        rng = np.random.default_rng(11)
        from hoiplan.geometry import Pose, quat_from_yaw
        for _ in range(10):
            yaw = rng.uniform(0, 2 * math.pi)
            pos = rng.uniform(0.8, 1.2, size=2)
            scene = Scene([box("slab", 0.4, 0.25, 0.2, static=True,
                               pos=(pos[0], pos[1], 0.2),
                               quat=tuple(quat_from_yaw(yaw)))],
                          bounds=np.array([0.0, 0.0, 2.0, 2.0]))
            grid = rasterize(scene, resolution=0.25, agent_radius=0.0)
            poly = footprint(scene.object("slab"), scene.object("slab").initial_pose)
            for ix in range(grid.shape[0]):
                for iy in range(grid.shape[1]):
                    expected = convex_intersects(grid.cell_rect((ix, iy)), poly)
                    assert grid.occupied[ix, iy] == expected, (ix, iy)

    def test_exclusion(self):
        scene = Scene([box("slab", 0.5, 0.5, 0.2, static=True, pos=(1.0, 1.0, 0.2))],
                      bounds=np.array([0.0, 0.0, 2.0, 2.0]))
        grid = rasterize(scene, exclude={"slab"}, resolution=0.5)
        assert not grid.occupied.any()

    def test_inflation_grows_filled_region(self):
        scene = Scene([box("slab", 0.3, 0.3, 0.2, static=True, pos=(1.0, 1.0, 0.2))],
                      bounds=np.array([0.0, 0.0, 2.0, 2.0]))
        plain = rasterize(scene, resolution=0.25, agent_radius=0.0)
        inflated = rasterize(scene, resolution=0.25, agent_radius=0.3)
        assert inflated.occupied.sum() > plain.occupied.sum()
        assert np.all(inflated.occupied[plain.occupied])


RESOLUTIONS = (0.05, 0.1, 0.125, 0.2, 0.25, 0.3)


@st.composite
def raster_cases(draw):
    """Scenes of 1-3 boxes on grids up to 40x40 cells, with the agent radius.

    Half the scenes are grid-aligned: half extents, positions and radius are
    multiples of half a cell, so cell centers and corners fall exactly on
    the thresholds. The others are yawed and tilted (4-6-vertex footprints).
    """
    res = draw(st.sampled_from(RESOLUTIONS))
    nx, ny = draw(st.integers(2, 40)), draw(st.integers(2, 40))
    x0, y0 = draw(st.sampled_from([(0.0, 0.0), (-3.1, 2.7), (250.0, -40.0)]))
    w, h = nx * res, ny * res
    aligned = draw(st.booleans())
    objects = []
    for i in range(draw(st.integers(1, 3))):
        if aligned:
            half = [draw(st.integers(1, 8)) * res / 2 for _ in range(3)]
            pos = (x0 + draw(st.integers(0, 2 * nx)) * res / 2,
                   y0 + draw(st.integers(0, 2 * ny)) * res / 2, 1.0)
            quat = quat_from_yaw(draw(st.sampled_from([0.0, math.pi / 2])))
        else:
            half = [draw(st.floats(0.02, 1.0)) for _ in range(3)]
            pos = (x0 + draw(st.floats(0.0, w)), y0 + draw(st.floats(0.0, h)), 1.0)
            quat = quat_from_yaw(draw(st.floats(0.0, 2 * math.pi)))
            tilt = draw(st.floats(0.0, 1.2))
            axis = draw(st.floats(0.0, 2 * math.pi))
            quat = quat_multiply(quat, quat_from_axis_angle(
                tilt * np.array([math.cos(axis), math.sin(axis), 0.0])))
        objects.append(box(f"o{i}", *half, pos=pos, quat=tuple(quat)))
    if aligned:
        radius = draw(st.integers(0, 8)) * res / 2
    else:
        radius = draw(st.sampled_from([0.0, 0.3]) | st.floats(0.01, 0.6))
    return Scene(objects, bounds=np.array([x0, y0, x0 + w, y0 + h])), res, radius


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(raster_cases(), st.sampled_from(["radius", "cells", "approach"]))
def test_rasterize_and_goal_sets_match_scalar_oracle(case, goal_distance):
    scene, res, radius = case
    grid = rasterize(scene, resolution=res, agent_radius=radius)
    expected = rasterize_oracle(scene, resolution=res, agent_radius=radius)
    assert np.array_equal(grid.occupied, expected.occupied)
    distance = {"radius": radius, "cells": 3 * res, "approach": 1.0}[goal_distance]
    for obj in scene.objects:
        poly = footprint(obj, obj.initial_pose)
        goals = planner._cells_near_footprint(grid, poly, distance)
        assert set(map(tuple, goals.tolist())) == cells_near_footprint_oracle(grid, poly, distance)


def _yawed_box_on_empty_grid(seed):
    rng = np.random.default_rng(seed)
    scene = Scene([box("b", *rng.uniform(0.1, 0.6, size=3), pos=(2.0, 2.0, 1.0),
                       quat=tuple(quat_from_yaw(rng.uniform(0, 2 * math.pi))))],
                  bounds=np.array([0.0, 0.0, 4.0, 4.0]))
    grid = rasterize(scene, exclude={"b"}, resolution=0.05)
    return scene, grid, footprint(scene.object("b"), scene.object("b").initial_pose)


# np.hypot and math.hypot may round apart in the last bit. A cell that the
# scalar kernel puts exactly at a threshold, and np.hypot just past it, must
# still be decided by the scalar kernel.

def test_goal_set_tie_is_decided_by_the_scalar_kernel():
    for seed in range(100):
        scene, grid, poly = _yawed_box_on_empty_grid(seed)
        xs, ys = planner._window(grid, poly, 1.0)
        fast = planner._center_distance(grid, poly, xs, ys)
        for ix, iy in np.argwhere(fast > 0):
            cell = (xs.start + int(ix), ys.start + int(iy))
            distance = point_to_convex_distance(grid.center_of(cell), poly)
            if fast[ix, iy] > distance:
                goals = planner._cells_near_footprint(grid, poly, distance)
                goals = set(map(tuple, goals.tolist()))
                assert cell in goals
                assert goals == cells_near_footprint_oracle(grid, poly, distance)
                return
    pytest.fail("no cell whose vectorized distance exceeds the scalar one")


def test_rasterize_tie_is_decided_by_the_scalar_kernel():
    for seed in range(100):
        scene, grid, poly = _yawed_box_on_empty_grid(seed)
        xs, ys = planner._window(grid, poly, 0.5)
        ix, iy = (a.ravel() for a in np.meshgrid(np.array(xs), np.array(ys), indexing="ij"))
        fast = planner._rect_distance(grid, poly, ix, iy)
        for cell, d in zip(zip(ix.tolist(), iy.tolist()), fast):
            exact = convex_distance(grid.cell_rect(cell), poly)
            radius = exact - 1e-12   # so that the threshold radius + 1e-12 is exact
            if d > exact > 0.1 and radius + 1e-12 == exact:
                occupied = rasterize(scene, resolution=0.05, agent_radius=radius).occupied
                assert occupied[cell]
                assert np.array_equal(occupied, rasterize_oracle(
                    scene, resolution=0.05, agent_radius=radius).occupied)
                return
    pytest.fail("no cell whose vectorized distance exceeds the scalar one")


def test_grid_cell_cap():
    scene = Scene([], bounds=np.array([-1e6, -1e6, 1e6, 1e6]))
    with pytest.raises(GridTooLarge) as e:
        rasterize(scene)
    assert e.value.detail == {"cells": 40_000_000 ** 2, "limit": MAX_GRID_CELLS}
    side = math.isqrt(MAX_GRID_CELLS) * 0.05
    assert rasterize(Scene([], bounds=np.array([0.0, 0.0, side, side]))).occupied.size \
        == MAX_GRID_CELLS


def step(oid):
    return ActionStep(oid, render_plan_step(oid))


class TestDependencyOrder:
    def scene_with(self, ids):
        objects = [box(oid, 0.2, 0.2, 0.2, pos=(i * 1.5 - 3, 0, 0.2))
                   for i, oid in enumerate(ids)]
        return Scene(objects, bounds=np.array([-6.0, -6.0, 6.0, 6.0]))

    def test_vase_before_table(self):
        scene = self.scene_with(["table", "vase"])
        corrections = []
        out = dependency_order(scene, [On("vase", "table")],
                               [step("table"), step("vase")], corrections)
        assert [s.object_id for s in out] == ["vase", "table"]
        assert corrections

    def test_compliant_order_returned_verbatim(self):
        scene = self.scene_with(["table", "vase"])
        proposed = [step("vase"), step("table")]
        corrections = []
        out = dependency_order(scene, [On("vase", "table")], proposed, corrections)
        assert out == proposed
        assert corrections == []

    def test_no_relations_verbatim(self):
        scene = self.scene_with(["a", "b", "c"])
        proposed = [step("c"), step("a"), step("b")]
        assert dependency_order(scene, [], proposed) == proposed

    def test_chain_reversal(self):
        # c on b on a: must come out [c, b, a] whatever the proposal
        scene = self.scene_with(["a", "b", "c"])
        relations = [On("c", "b"), On("b", "a")]
        for perm in itertools.permutations(["a", "b", "c"]):
            out = dependency_order(scene, relations, [step(o) for o in perm])
            ids = [s.object_id for s in out]
            assert ids.index("c") < ids.index("b") < ids.index("a")

    def test_stability_preserves_unconstrained_order(self):
        scene = self.scene_with(["a", "b", "x", "y"])
        relations = [On("b", "a")]
        out = dependency_order(scene, relations,
                               [step("x"), step("a"), step("y"), step("b")])
        ids = [s.object_id for s in out]
        assert ids.index("b") < ids.index("a")
        assert ids.index("x") < ids.index("y")

    def test_missing_and_duplicate(self):
        scene = self.scene_with(["a", "b"])
        with pytest.raises(MissingStep):
            dependency_order(scene, [], [step("a")])
        with pytest.raises(DuplicateStep):
            dependency_order(scene, [], [step("a"), step("a")])
        with pytest.raises(UnknownStep):
            dependency_order(scene, [], [step("a"), step("ghost")])

    def test_static_objects_not_required(self):
        objects = [box("table", 0.5, 0.5, 0.4, static=True, pos=(0, 0, 0.4)),
                   box("vase", 0.1, 0.1, 0.2, pos=(2, 2, 0.2))]
        scene = Scene(objects, bounds=np.array([-4.0, -4.0, 4.0, 4.0]))
        out = dependency_order(scene, [On("vase", "table")], [step("vase")])
        assert [s.object_id for s in out] == ["vase"]

    def test_on_cycle_raises(self):
        scene = self.scene_with(["a", "b"])
        with pytest.raises(CycleDetected):
            dependency_order(scene, [On("a", "b"), On("b", "a")],
                             [step("a"), step("b")])


class TestPlanRoutes:
    def test_workspace_routes_avoid_obstacles(self):
        scene = workspace_scene()
        relations = workspace_relations()
        scene_map = solve(scene, relations, seed=0)
        steps = [step("monitor"), step("table"), step("chair")]
        steps = dependency_order(scene, relations, steps)
        plan = plan_routes(scene, scene_map, steps, resolution=0.1)
        assert [s.object_id for s in plan.steps] == ["monitor", "table", "chair"]
        # re-check every route cell against a freshly built grid
        poses = {o.id: o.initial_pose for o in scene.objects}
        for s in plan.steps:
            grid = rasterize(scene, exclude={s.object_id}, resolution=0.1, poses=poses)
            for xy in s.route:
                assert grid.is_free(grid.cell_of(xy)), (s.object_id, xy)
            for a, b in zip(s.route, s.route[1:]):
                assert math.dist(a, b) <= grid.resolution * SQRT2 + 1e-9
            poses[s.object_id] = scene_map.pose(s.object_id)

    def test_agent_already_near_object(self):
        scene = Scene([box("block", 0.2, 0.2, 0.2, pos=(0.0, 0.0, 0.2))],
                      bounds=np.array([-3.0, -3.0, 3.0, 3.0]))
        scene_map = solve(scene, [], seed=0)  # stays in place
        plan = plan_routes(scene, scene_map, [step("block")], resolution=0.1,
                           agent_start=(0.55, 0.0))
        assert plan.steps[0].route == []

    def test_occupied_agent_message_prints_plain_floats(self):
        scene = Scene([box("block", 0.2, 0.2, 0.2, pos=(0.0, 0.0, 0.2)),
                       box("pillar", 0.3, 0.3, 1.0, static=True, pos=(2.0, 2.0, 1.0))],
                      bounds=np.array([-3.0, -3.0, 3.0, 3.0]))
        with pytest.raises(StartOccupied) as e:
            plan_routes(scene, solve(scene, [], seed=0), [step("block")], resolution=0.1,
                        agent_start=(2.0, 2.0))
        assert str(e.value) == "agent position (2.0, 2.0) is occupied"

    def test_routes_end_near_targets(self):
        scene = workspace_scene()
        relations = workspace_relations()
        scene_map = solve(scene, relations, seed=0)
        steps = dependency_order(scene, relations,
                                 [step("monitor"), step("table"), step("chair")])
        plan = plan_routes(scene, scene_map, steps, resolution=0.1)
        for s in plan.steps:
            if not s.route:
                continue
            target = scene_map.pose(s.object_id)
            poly = footprint(scene.object(s.object_id), target)
            from hoiplan.polygons import convex_distance
            end = np.array(s.route[-1]).reshape(1, 2)
            assert convex_distance(end, poly) <= 1.0 + 1e-9

    def test_carried_object_excluded_from_its_own_grid(self):
        # the crate blocks the whole corridor; its carry leg can only cross
        # its own initial cells because the manipulated object is excluded
        from hoiplan.layout import SceneMap, SceneMapEntry
        scene = Scene([box("crate", 0.9, 0.5, 0.4, pos=(0.0, 0.0, 0.4))],
                      bounds=np.array([-1.0, -4.0, 1.0, 4.0]))
        scene_map = SceneMap([SceneMapEntry("crate", np.array([0.0, 2.5, 0.4]),
                                            np.array([1.0, 0.0, 0.0, 0.0]))])
        plan = plan_routes(scene, scene_map, [step("crate")], resolution=0.1,
                           agent_start=(0.0, -3.0))
        route = plan.steps[0].route
        assert route
        blocked = rasterize(scene, resolution=0.1)  # crate not excluded here
        assert any(not blocked.is_free(blocked.cell_of(xy)) for xy in route)

    def test_plan_json_round_trip(self, tmp_path):
        scene = workspace_scene()
        relations = workspace_relations()
        scene_map = solve(scene, relations, seed=0)
        steps = dependency_order(scene, relations,
                                 [step("monitor"), step("table"), step("chair")])
        plan = plan_routes(scene, scene_map, steps, resolution=0.1)
        save_plan(plan, tmp_path / "plan.json")
        again = load_plan(tmp_path / "plan.json")
        assert dump_json(plan_to_json(again)) == dump_json(plan_to_json(plan))


@st.composite
def route_cases(draw):
    """Scenes of 1-6 boxes, some static, yawed and some tilted, with targets for a
    random order of steps. The agent starts at the centre, anywhere, or just
    beside the first step's object, often already inside its goal set; now
    and then a step has no target."""
    res = draw(st.floats(0.1, 0.25))
    radius = draw(st.sampled_from([0.0, 0.3]) | st.floats(0.0, 0.6))
    w, h = draw(st.floats(3.0, 7.0)), draw(st.floats(3.0, 7.0))
    x0, y0 = draw(st.sampled_from([(0.0, 0.0), (-3.1, 2.7)]))

    def anywhere():
        return x0 + draw(st.floats(0.0, w)), y0 + draw(st.floats(0.0, h))

    objects = []
    for i in range(draw(st.integers(1, 6))):
        quat = quat_from_yaw(draw(st.floats(0.0, 2 * math.pi)))
        if draw(st.booleans()):
            axis = draw(st.floats(0.0, 2 * math.pi))
            quat = quat_multiply(quat, quat_from_axis_angle(
                draw(st.floats(0.0, 1.2)) * np.array([math.cos(axis), math.sin(axis), 0.0])))
        half = [draw(st.floats(0.05, 0.6)) for _ in range(3)]
        objects.append(box(f"o{i}", *half, static=draw(st.booleans()),
                           pos=(*anywhere(), 1.0), quat=tuple(quat)))
    scene = Scene(objects, bounds=np.array([x0, y0, x0 + w, y0 + h]))
    ids = draw(st.permutations([o.id for o in objects]))
    steps = [step(oid) for oid in ids[:draw(st.integers(1, len(ids)))]]
    entries = [SceneMapEntry(s.object_id, np.array([*anywhere(), 1.0]),
                             quat_from_yaw(draw(st.floats(0.0, 2 * math.pi)))) for s in steps]
    if entries and draw(st.integers(0, 9)) == 9:
        entries.pop(draw(st.integers(0, len(entries) - 1)))
    start = draw(st.sampled_from(["centre", "anywhere", "beside"]))
    if start == "centre":
        agent_start = None
    elif start == "anywhere":
        agent_start = anywhere()
    else:
        obj = scene.object(steps[0].object_id if steps else ids[0])
        poly = footprint(obj, obj.initial_pose)
        agent_start = (poly[:, 0].max() + radius + draw(st.floats(0.0, 0.6)), poly[:, 1].mean())
    return scene, SceneMap(entries), steps, {
        "agent_radius": radius, "resolution": res, "agent_start": agent_start,
        "approach_distance": draw(st.sampled_from([1.0, 0.5]))}


def _plan_or_error(plan_fn, scene, scene_map, steps, options):
    try:
        return dump_json(plan_to_json(plan_fn(scene, scene_map, steps, **options)))
    except HoiplanError as e:
        return type(e), str(e)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(route_cases())
def test_plan_routes_matches_per_step_rasterize_oracle(case):
    assert _plan_or_error(plan_routes, *case) == _plan_or_error(plan_routes_oracle, *case)


def test_plan_routes_error_order_and_empty_plan():
    # a grid far past the cell cap: only a step that reaches the grid raises
    scene = Scene([box("a", 0.2, 0.2, 0.2, pos=(0.0, 0.0, 0.2))],
                  bounds=np.array([-1e6, -1e6, 1e6, 1e6]))
    scene_map = SceneMap([SceneMapEntry("a", np.array([1.0, 1.0, 0.2]),
                                        np.array([1.0, 0.0, 0.0, 0.0]))])
    for fn in (plan_routes, plan_routes_oracle):
        assert fn(scene, scene_map, []).steps == []
        with pytest.raises(UnknownObject):
            fn(scene, SceneMap([]), [step("a")])
        with pytest.raises(GridTooLarge):
            fn(scene, scene_map, [step("a")])


BENCH_GEN = Path(__file__).resolve().parent.parent / "bench" / "gen.py"


def bench_room(size, n_objects, n_movable, seed):
    """A room from the plan-rooms generator, solved and ordered as `plan` does."""
    spec = importlib.util.spec_from_file_location("bench_gen", BENCH_GEN)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    room = gen.make_room(np.random.default_rng(seed), size, n_objects, n_movable)
    scene = parse_scene_json(json.dumps(room.scene))
    sections = extract_sections(room.response)
    relations = parse_relations(sections["relations_text"])
    steps = dependency_order(scene, relations, parse_plan(sections["plan_text"]))
    return scene, solve(scene, relations, 0), steps, room.agent_start


def test_plan_routes_matches_oracle_on_a_bench_room():
    scene, scene_map, steps, agent_start = bench_room(10.0, 6, 4, seed=0)
    plan = plan_routes(scene, scene_map, steps, resolution=0.05, agent_start=agent_start)
    assert all(s.route for s in plan.steps)
    assert dump_json(plan_to_json(plan)) == dump_json(plan_to_json(plan_routes_oracle(
        scene, scene_map, steps, resolution=0.05, agent_start=agent_start)))


def test_plan_routes_computes_each_object_mask_once_per_pose(monkeypatch):
    scene, scene_map, steps, agent_start = bench_room(10.0, 6, 4, seed=1)
    calls = []
    hits = planner._object_hits

    def counted(*args):
        calls.append(args)
        return hits(*args)
    monkeypatch.setattr(planner, "_object_hits", counted)
    plan_routes(scene, scene_map, steps, resolution=0.05, agent_start=agent_start)
    assert len(scene.objects) == 6 and len(steps) == 4
    # rasterizing every step would take (6 - 1) * 4 = 20
    assert 0 < len(calls) <= len(scene.objects) + len(steps)
