"""Span recorder that times hoiplan's layers from outside the package.

`instrument` wraps the public functions of each module and rebinds every name
that holds them in a loaded `hoiplan.*` namespace, so calls made through
`hoiplan.cli` and calls between modules are both timed; nothing under `src/`
changes. Spans (name, start, end, parent, item) stay in compact in-memory
columns until `write` dumps them at the end of the run. A layer's self time
is its spans' durations minus the time covered by their child spans; the
root span of each item is `cli`, so the self times of all layers add up to
the traced item time.
"""

import json
import os
import sys
import time
from array import array
from collections import defaultdict


class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.item = array("i")
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self.current_item = -1

    def begin(self, name: str) -> int:
        k = self._name_index.get(name)
        if k is None:
            k = self._name_index[name] = len(self.names)
            self.names.append(name)
        i = len(self.name)
        self.name.append(k)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.item.append(self.current_item)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def finish(self, i: int):
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, n=1):
        self.counts[name] += n

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per span name, over every recorded span."""
        child = [0.0] * len(self.name)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, float] = defaultdict(float)
        for i, k in enumerate(self.name):
            out[self.names[k]] += self.end[i] - self.start[i] - child[i]
        return out

    def root_time(self) -> float:
        return sum(self.end[i] - self.start[i] for i, p in enumerate(self.parent) if p < 0)

    def write(self, path, identity: dict):
        """Spans as columns; times in microseconds from the first span."""
        t0 = self.start[0] if self.start else 0.0
        doc = {"identity": identity, "names": self.names,
               "columns": ["name", "start_us", "end_us", "parent", "item"],
               "name": self.name.tolist(),
               "start_us": [round((t - t0) * 1e6, 1) for t in self.start],
               "end_us": [round((t - t0) * 1e6, 1) for t in self.end],
               "parent": self.parent.tolist(), "item": self.item.tolist(),
               "counts": dict(self.counts)}
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f, separators=(",", ":"))


def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs.get(key)


def _wrap(rec: Recorder, fn, name, count=None, grows=None):
    """Time fn as a span of `name`; `count(rec, args, kwargs, result, grown)`
    runs after the span ends, where `grown` is how much the list argument
    named by `grows` (position, keyword) lengthened during the call."""
    def wrapper(*args, **kwargs):
        acc = _arg(args, kwargs, *grows) if grows else None
        n0 = len(acc) if acc is not None else 0
        i = rec.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.finish(i)
        if count is not None:
            count(rec, args, kwargs, result, len(acc) - n0 if acc is not None else 0)
        return result
    return wrapper


def _calls(counter):
    def count(rec, args, kwargs, result, grown):
        rec.count(counter)
    return count


def _rasterize(rec, args, kwargs, grid, grown):
    rec.count("planner.rasterize.calls")
    rec.count("planner.rasterize.cells", grid.occupied.size)
    rec.count("planner.rasterize.occupied", int(grid.occupied.sum()))


def _astar(rec, args, kwargs, result, grown):
    goals = _arg(args, kwargs, 2, "goals")
    rec.count("planner.astar.calls")
    rec.count("planner.astar.goal_cells", 1 if isinstance(goals, tuple) else len(goals))
    rec.count("planner.astar.path_cells", len(result.cells))


def _ik(rec, args, kwargs, result, grown):
    rec.count("motion.ik.calls")
    rec.count("motion.ik.iterations", result.iterations)
    rec.count("motion.ik.converged", int(result.converged))


def _bytes_read(rec, args, kwargs, result, grown):
    rec.count("scene.bytes_read", os.path.getsize(args[0]))


def _bytes_written(rec, args, kwargs, text, grown):
    rec.count("scene.bytes_written", len(text.encode("utf-8")))


def _grown(counter):
    def count(rec, args, kwargs, result, grown):
        rec.count(counter, grown)
    return count


# What each layer's metrics should move (self time in ms, counts per item):
#   planner.rasterize.*        item_ms_p50/p90 on plan-rooms (re-rasterized every
#                              step)
#   planner.astar.*            item_ms_p50/p90 on plan-rooms (goal-set searches)
#   planner.plan_routes.ms     plan-rooms only; its self time is mostly goal sets
#   planner.order.*            plan-rooms only
#   llm.*, relations.parse, layout.solve.*, svg.render
#                              plan-rooms; expected under a few percent, so no
#                              gain should be claimed from them
#   motion.ik.*, motion.wrist, motion.smooth, motion.segment, motion.postprocess
#                              item_ms_p50 on motion-clips (IK dominates)
#   geometry.rot6d_decode.*, geometry.matrix_to_quat, reward.*
#                              item_ms_p90 on motion-clips (22-joint scoring);
#                              reward.score is the self time of the score command
#   scene.load/save, scene.bytes_*
#                              JSON I/O of every loader and saver: item_ms_p50 and
#                              peak_rss_mb on motion-clips
#   cli.ms                     the remainder of each item (argument parsing, glue)
# The planner is not touched by motion-clips; motion and reward not by
# plan-rooms, which reports 0 for them.

# (module, attribute, layer, counter, list argument whose growth is counted)
LAYERS = [
    ("hoiplan.planner", "rasterize", "planner.rasterize", _rasterize, None),
    ("hoiplan.planner", "astar_cells", "planner.astar", _astar, None),
    ("hoiplan.planner", "astar", "planner.astar", None, None),
    ("hoiplan.planner", "plan_routes", "planner.plan_routes", None, None),
    ("hoiplan.planner", "dependency_order", "planner.order",
     _grown("planner.order.corrections"), (3, "corrections")),
    ("hoiplan.llm", "render_prompt", "llm.render_prompt", None, None),
    ("hoiplan.llm", "complete", "llm.complete", None, None),
    ("hoiplan.llm", "MockBackend.complete", "llm.complete", _calls("llm.complete.attempts"),
     None),
    ("hoiplan.llm", "HttpBackend.complete", "llm.complete", _calls("llm.complete.attempts"),
     None),
    ("hoiplan.relations", "parse_relations", "relations.parse", None, None),
    ("hoiplan.relations", "parse_plan", "relations.parse", None, None),
    ("hoiplan.layout", "solve", "layout.solve", _grown("layout.solve.warnings"),
     (3, "warnings")),
    ("hoiplan.svg", "render_scene_svg", "svg.render", None, None),
    ("hoiplan.motion", "postprocess_motion", "motion.postprocess", None, None),
    ("hoiplan.motion", "ik_solve", "motion.ik", _ik, None),
    ("hoiplan.motion", "recompute_wrist", "motion.wrist", None, None),
    ("hoiplan.motion", "smooth_boundary", "motion.smooth", None, None),
    ("hoiplan.motion", "ramp_poses", "motion.smooth", None, None),
    ("hoiplan.motion", "segment_phases", "motion.segment", None, None),
    ("hoiplan.geometry", "rot6d_decode", "geometry.rot6d_decode",
     _calls("geometry.rot6d_decode.calls"), None),
    ("hoiplan.geometry", "matrix_to_quat", "geometry.matrix_to_quat", None, None),
    ("hoiplan.reward", "body_reward", "reward.body", _calls("reward.body.calls"), None),
    ("hoiplan.reward", "energy_reward", "reward.energy", None, None),
    ("hoiplan.reward", "tracking_error", "reward.tracking_error", None, None),
    ("hoiplan.cli", "cmd_score", "reward.score", None, None),
    ("hoiplan.scene", "load_scene", "scene.load", _bytes_read, None),
    ("hoiplan.scene", "load_motion", "scene.load", _bytes_read, None),
    ("hoiplan.layout", "load_scene_map", "scene.load", _bytes_read, None),
    ("hoiplan.planner", "load_plan", "scene.load", _bytes_read, None),
    ("hoiplan.motion", "load_grasps", "scene.load", _bytes_read, None),
    ("hoiplan.reward", "load_weights", "scene.load", _bytes_read, None),
    ("hoiplan.scene", "dump_json", "scene.save", _bytes_written, None),
    ("hoiplan.scene", "save_scene", "scene.save", None, None),
    ("hoiplan.scene", "save_motion", "scene.save", None, None),
    ("hoiplan.layout", "save_scene_map", "scene.save", None, None),
    ("hoiplan.planner", "save_plan", "scene.save", None, None),
]


def instrument(rec: Recorder):
    """Wrap every function in LAYERS; returns a callable that undoes it."""
    loaded = [m for name, m in sys.modules.items()
              if m is not None and (name == "hoiplan" or name.startswith("hoiplan."))]
    undo = []
    for module, attr, layer, count, grows in LAYERS:
        owner = sys.modules[module]
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = getattr(owner, leaf)
        wrapper = _wrap(rec, original, layer, count, grows)
        holders = [owner] if path else loaded
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, wrapper)
                    undo.append((holder, key, original))

    def restore():
        for holder, key, original in reversed(undo):
            setattr(holder, key, original)
    return restore
