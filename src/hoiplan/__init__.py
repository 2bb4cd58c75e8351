"""Deterministic scene-layout solving, route planning, and motion post-processing.

The pipeline: an LLM (or any text source) proposes spatial relations and an
execution plan for a scene; the layout solver turns the relations into exact
object poses; the task planner orders the steps and routes collision-free 2D
waypoints between them; the motion tools post-process interaction sequences
and score them against references.
"""

from .errors import HoiplanError
from .geometry import (BpsEncoding, DegenerateRotation, EmptyCloud, Pose, bps_basis,
                       bps_encode, compose, invert, rot6d_decode, rot6d_encode)
from .layout import (AccuracyReport, CoincidentPositions, ConflictingFacing, CycleDetected,
                     SceneGraph, SceneMap, SceneMapEntry, UnknownObject, Unsolvable,
                     build_graph, compute_orientations, compute_positions,
                     geometric_accuracy, load_scene_map, save_scene_map, solve)
from .llm import (HttpBackend, LlmResponse, MissingFixture, MockBackend, PromptBundle,
                  SectionMissing, complete, extract_sections, render_prompt, save_fixture)
from .motion import (ConditionTensors, EmptyContact, GraspPose, HandPhases, IkChain,
                     IkResult, PhaseSegmentation, ShapeMismatch, WindowOutOfRange,
                     build_conditions, ik_solve, postprocess_motion, recompute_wrist,
                     relative_pose_loss, sample_box_surface, segment_phases,
                     smooth_boundary)
from .planner import (DuplicateStep, ExecutionPlan, GoalOccupied, MissingStep, NoPath,
                      OccupancyGrid, PlanStep, StartOccupied, astar, astar_cells,
                      dependency_order, downsample, load_plan, plan_routes, rasterize,
                      save_plan)
from .relations import (ActionStep, Adjacent, ArityError, BadDistance, Facing,
                        InconsistentObject, On, ParseError, SpatialRelation,
                        TemplateMismatch, UnknownRelation, parse_plan, parse_relations,
                        render_plan_step, render_relations)
from .reward import (DEFAULT_BODY_WEIGHTS, BodyWeights, FingerFrame, RewardBreakdown,
                     TrackingError, alpha_gate, body_reward, energy_reward, hand_reward,
                     score_motion, total_reward, tracking_error)
from .scene import (DuplicateId, MotionSequence, ObjectSpec, Scene, SchemaError, footprint,
                    load_motion, load_scene, save_motion, save_scene, top_surface_height)
from .svg import render_scene_svg

__version__ = "0.1.0"
