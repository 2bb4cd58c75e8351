"""Command-line surface: plan, render, score, postprocess, route.

Exit codes: 0 success, 1 domain error (structured JSON on stderr), 2 usage
error. With the mock backend and a fixed seed every command is deterministic
down to the output bytes.
"""

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .errors import HoiplanError
from .layout import load_scene_map, save_scene_map, solve
from .llm import HttpBackend, MockBackend, complete, render_prompt
from .motion import (CONTACT_MIN_RUN, CONTACT_THRESHOLD, SMOOTHING_WINDOW, load_grasps,
                     postprocess_motion)
from .planner import (DEFAULT_AGENT_RADIUS, DEFAULT_RESOLUTION, DEFAULT_STRIDE, astar,
                      dependency_order, downsample, load_plan, plan_routes, rasterize,
                      save_plan)
from .relations import parse_plan, parse_relations
from .reward import DEFAULT_BODY_WEIGHTS, load_weights, score_motion
from .scene import dump_json, load_motion, load_scene, save_motion, write_text
from .svg import render_scene_svg


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _positive(text: str) -> float:
    value = _finite(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a number greater than 0, got {text!r}")
    return value


def _nonnegative(text: str) -> float:
    value = _finite(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a number of at least 0, got {text!r}")
    return value


def _unit_interval(text: str) -> float:
    value = _finite(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"expected a number in [0, 1], got {text!r}")
    return value


def _count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer of at least 1, got {text!r}")
    return value


def _parse_xy(text: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected 'x,y'")
    return np.array([_finite(parts[0]), _finite(parts[1])])


def _joint_index(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a joint index, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"joint index must not be negative, got {text!r}")
    return value


def _parse_pair(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected 'left,right' joint indices")
    return {hand: _joint_index(p) for hand, p in zip(("left", "right"), parts)
            if p.strip() != ""}


def _parse_chains(text: str):
    chains = {}
    for hand, chunk in zip(("left", "right"), text.split(";")):
        chunk = chunk.strip()
        if not chunk:
            continue
        idx = [_joint_index(v) for v in chunk.split(",")]
        if len(idx) != 3:
            raise argparse.ArgumentTypeError("each chain is 'shoulder,elbow,wrist'")
        chains[hand] = tuple(idx)
    return chains


# ---------------------------------------------------------------------------
# commands

def cmd_plan(args) -> int:
    scene = load_scene(args.scene)
    bundle = render_prompt(scene, args.instruction)
    backend = MockBackend(args.fixtures) if args.backend == "mock" else HttpBackend.from_env()
    response = complete(bundle, backend)
    relations = parse_relations(response.relations_text)
    proposed = parse_plan(response.plan_text)

    warnings: list = []
    scene_map = solve(scene, relations, args.seed, warnings)
    corrections: list = []
    steps = dependency_order(scene, relations, proposed, corrections)
    plan = plan_routes(scene, scene_map, steps, agent_radius=args.agent_radius,
                       resolution=args.resolution, agent_start=args.agent_start)

    out = Path(args.out)
    save_scene_map(scene_map, out / "scene_map.json")
    save_plan(plan, out / "plan.json")
    summary = {
        "scene_map": str(out / "scene_map.json"),
        "plan": str(out / "plan.json"),
        "steps": [s.object_id for s in plan.steps],
        "corrections": corrections,
        "warnings": [{"kind": w.kind, "object": w.object_id, "message": w.message}
                     for w in warnings],
    }
    sys.stdout.write(dump_json(summary))
    return 0


def cmd_render(args) -> int:
    scene = load_scene(args.scene)
    scene_map = load_scene_map(args.scene_map) if args.scene_map else None
    plan = load_plan(args.plan) if args.plan else None
    write_text(args.out, render_scene_svg(scene, scene_map, plan))
    return 0


def cmd_score(args) -> int:
    ref = load_motion(args.ref)
    sim = load_motion(args.sim)
    weights = load_weights(args.weights) if args.weights else DEFAULT_BODY_WEIGHTS
    names = args.joint_names.split(",") if args.joint_names else None
    text = dump_json(score_motion(ref, sim, weights, names))
    if args.out:
        write_text(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_postprocess(args) -> int:
    motion = load_motion(args.motion)
    grasps = load_grasps(args.grasp)
    out_motion, diagnostics = postprocess_motion(
        motion, grasps, threshold=args.threshold, min_run=args.min_run,
        window=args.window, wrist_joints=args.wrist_joints, arm_chains=args.arm_chains)
    save_motion(out_motion, args.out)
    sidecar = Path(args.out).with_suffix(".diagnostics.json")
    write_text(sidecar, dump_json(diagnostics))
    sys.stdout.write(dump_json({"motion": str(args.out), "diagnostics": str(sidecar)}))
    return 0


def cmd_route(args) -> int:
    scene = load_scene(args.scene)
    grid = rasterize(scene, resolution=args.resolution, agent_radius=args.agent_radius)
    waypoints = astar(grid, args.start, args.goal)
    if args.stride:
        waypoints = downsample(waypoints, args.stride)
    text = dump_json({"route": [[x, y] for x, y in waypoints]})
    if args.out:
        write_text(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# argument parsing

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hoiplan",
                                     description="Scene layout solving, route planning, "
                                                 "and motion post-processing.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="instruction + scene -> scene_map.json and plan.json")
    p.add_argument("scene")
    p.add_argument("--instruction", required=True)
    p.add_argument("--backend", choices=["mock", "http"], default="mock")
    p.add_argument("--fixtures", help="fixture directory for the mock backend")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=".")
    p.add_argument("--resolution", type=_positive, default=DEFAULT_RESOLUTION)
    p.add_argument("--agent-radius", type=_nonnegative, default=DEFAULT_AGENT_RADIUS)
    p.add_argument("--agent-start", type=_parse_xy, default=None)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("render", help="scene (+ scene map, plan) -> top-down SVG")
    p.add_argument("scene")
    p.add_argument("scene_map", nargs="?", default=None)
    p.add_argument("--plan")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("score", help="reward + tracking error of sim vs reference motion")
    p.add_argument("--ref", required=True)
    p.add_argument("--sim", required=True)
    p.add_argument("--weights", help="body weight JSON; defaults to the built-in table")
    p.add_argument("--joint-names", help="comma list naming each joint column")
    p.add_argument("--out")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("postprocess", help="pin static phases, smooth seams, rebuild wrists")
    p.add_argument("--motion", required=True)
    p.add_argument("--grasp", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--threshold", type=_unit_interval, default=CONTACT_THRESHOLD)
    p.add_argument("--min-run", type=_count, default=CONTACT_MIN_RUN)
    p.add_argument("--window", type=_count, default=SMOOTHING_WINDOW)
    p.add_argument("--wrist-joints", type=_parse_pair, help="'left,right' wrist joint indices")
    p.add_argument("--arm-chains", type=_parse_chains,
                   help="'ls,le,lw;rs,re,rw' joint index chains")
    p.set_defaults(func=cmd_postprocess)

    p = sub.add_parser("route", help="single collision-free route between two points")
    p.add_argument("scene")
    p.add_argument("--start", type=_parse_xy, required=True)
    p.add_argument("--goal", type=_parse_xy, required=True)
    p.add_argument("--resolution", type=_positive, default=DEFAULT_RESOLUTION)
    p.add_argument("--agent-radius", type=_nonnegative, default=DEFAULT_AGENT_RADIUS)
    p.add_argument("--stride", type=_nonnegative, default=DEFAULT_STRIDE)
    p.add_argument("--out")
    p.set_defaults(func=cmd_route)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "plan" and args.backend == "mock" and not args.fixtures:
        parser.error("plan: --fixtures is required with the mock backend")
    try:
        return args.func(args)
    except HoiplanError as e:
        sys.stderr.write(json.dumps({"error": e.payload()}, default=str) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
