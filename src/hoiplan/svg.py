"""Deterministic top-down SVG renders of scenes, solved layouts, and routes."""

import numpy as np

from .geometry import quat_rotate
from .layout import SceneMap, UnknownObject
from .planner import ExecutionPlan
from .scene import Scene, footprint

_STATIC_FILL = "#9aa0a6"
_INITIAL_STROKE = "#b9c2cc"
_TARGET_FILL = "#7aa6d9"
_ARROW_STROKE = "#2b5a8c"
_ROUTE_COLORS = ("#e07b39", "#4f9d69", "#b05cbf", "#c9a227", "#5ab5c2")
SCALE = 100.0  # svg units per meter


def _fmt(v: float) -> str:
    return f"{v:.2f}"


class _Canvas:
    def __init__(self, bounds):
        self.x0, self.y0, self.x1, self.y1 = (float(b) for b in bounds)
        self.parts: list[str] = []

    def point(self, xy) -> tuple[float, float]:
        # world y up, svg y down
        return ((xy[0] - self.x0) * SCALE, (self.y1 - xy[1]) * SCALE)

    def polygon(self, poly, fill, stroke, extra=""):
        pts = " ".join(f"{_fmt(px)},{_fmt(py)}" for px, py in (self.point(p) for p in poly))
        self.parts.append(f'<polygon points="{pts}" fill="{fill}" stroke="{stroke}" '
                          f'stroke-width="1"{extra} />')

    def line(self, a, b, stroke, width=2.0):
        ax, ay = self.point(a)
        bx, by = self.point(b)
        self.parts.append(f'<line x1="{_fmt(ax)}" y1="{_fmt(ay)}" x2="{_fmt(bx)}" '
                          f'y2="{_fmt(by)}" stroke="{stroke}" stroke-width="{_fmt(width)}" />')

    def polyline(self, pts, stroke):
        body = " ".join(f"{_fmt(px)},{_fmt(py)}" for px, py in (self.point(p) for p in pts))
        self.parts.append(f'<polyline points="{body}" fill="none" stroke="{stroke}" '
                          f'stroke-width="2" stroke-dasharray="6,4" />')

    def label(self, xy, text):
        px, py = self.point(xy)
        self.parts.append(f'<text x="{_fmt(px)}" y="{_fmt(py)}" font-size="12" '
                          f'font-family="monospace" text-anchor="middle">{text}</text>')

    def to_svg(self) -> str:
        w = (self.x1 - self.x0) * SCALE
        h = (self.y1 - self.y0) * SCALE
        head = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(w)}" '
                f'height="{_fmt(h)}" viewBox="0 0 {_fmt(w)} {_fmt(h)}">')
        frame = (f'<rect x="0" y="0" width="{_fmt(w)}" height="{_fmt(h)}" fill="#ffffff" '
                 f'stroke="#333333" stroke-width="2" />')
        return "\n".join([head, frame] + self.parts + ["</svg>"]) + "\n"


def _draw_arrow(canvas: _Canvas, origin, direction, length):
    direction = np.asarray(direction, dtype=float)
    n = float(np.linalg.norm(direction))
    if n < 1e-9:
        return
    d = direction / n
    tip = origin + d * length
    canvas.line(origin, tip, _ARROW_STROKE)
    side = np.array([-d[1], d[0]])
    back = tip - d * (0.25 * length)
    canvas.polygon([tip, back + side * 0.12 * length, back - side * 0.12 * length],
                   _ARROW_STROKE, _ARROW_STROKE)


def render_scene_svg(scene: Scene, scene_map: SceneMap | None = None,
                     plan: ExecutionPlan | None = None) -> str:
    """Footprints, canonical-direction arrows, and routes as an SVG string.

    Statics render gray, movable targets blue over their dashed initial
    outline; the output is byte-stable for identical inputs.
    """
    canvas = _Canvas(scene.bounds)
    for obj in scene.objects:
        poly = footprint(obj, obj.initial_pose)
        if obj.is_static:
            canvas.polygon(poly, _STATIC_FILL, "#5f6368")
        else:
            canvas.polygon(poly, "none", _INITIAL_STROKE, extra=' stroke-dasharray="4,3"')

    if scene_map is not None:
        for entry in scene_map.entries:
            if not scene.has_object(entry.object_id):
                raise UnknownObject(f"scene-map entry {entry.object_id!r} names no object "
                                    "in the scene", id=entry.object_id)
            obj = scene.object(entry.object_id)
            pose = scene_map.pose(entry.object_id)
            poly = footprint(obj, pose)
            canvas.polygon(poly, _TARGET_FILL, "#2b5a8c")
            world_dir = quat_rotate(pose.orientation, obj.canonical_dir)[:2]
            arrow_len = float(max(obj.half_extents[:2])) * 1.5
            _draw_arrow(canvas, pose.position[:2], world_dir, arrow_len)
            canvas.label(pose.position[:2], entry.object_id)
    for obj in scene.objects:
        if obj.is_static:
            world_dir = quat_rotate(obj.initial_pose.orientation, obj.canonical_dir)[:2]
            _draw_arrow(canvas, obj.initial_pose.position[:2], world_dir,
                        float(max(obj.half_extents[:2])) * 1.5)
            canvas.label(obj.initial_pose.position[:2], obj.id)

    if plan is not None:
        for i, step in enumerate(plan.steps):
            if len(step.route) >= 2:
                canvas.polyline(step.route, _ROUTE_COLORS[i % len(_ROUTE_COLORS)])
    return canvas.to_svg()
