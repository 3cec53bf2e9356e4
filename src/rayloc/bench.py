"""Desk-scale benchmark harness: wires world generation, simulation, scoring,
and disambiguation into repeatable experiments."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .config import RunConfig
from .crops import CropSpec
from .disambig import DisambigConfig, LocalizationResult, localize
from .errors import ValidationError
from .floorplan import FloorPlan, Pose
from .metrics import EvalRecord, EvalReport, evaluate
from .scoring import GridScorer, PoseGridSpec, default_cell_stride
from .synth import NoiseSpec, RandomProjectionEmbedder, generate_world, simulate_observation


@dataclass(frozen=True)
class Benchmark:
    scorer: GridScorer  # holds the map, the pose grid and the ray sensor
    embedder: RandomProjectionEmbedder
    gt_pool: tuple[Pose, ...]
    crop_spec: CropSpec
    sigma: float


def build_pipeline(
    cfg: RunConfig, plan: FloorPlan, threads: int | None = None
) -> tuple[GridScorer, RandomProjectionEmbedder]:
    """The run config's table scorer (built on `threads` threads, by default
    every usable CPU) and reference embedder for one map."""
    stride = cfg.grid.cell_stride_m
    if stride is None:
        stride = default_cell_stride(plan.resolution)
    grid = PoseGridSpec(cell_stride=stride, n_orientations=cfg.grid.n_orientations)
    rays = cfg.rays
    scorer = GridScorer(
        plan, grid, n_rays=rays.n_rays, fov=rays.fov, max_range=rays.max_range_m,
        threads=threads,
    )
    embedder = RandomProjectionEmbedder(
        dim=cfg.embedder.dim, seed=cfg.embedder.seed, max_range=rays.max_range_m
    )
    return scorer, embedder


def build_benchmark(cfg: RunConfig = RunConfig(), threads: int | None = None) -> Benchmark:
    """Generate the config's world and build its rendered-fan table once."""
    plan, poses = generate_world(cfg.world)
    scorer, embedder = build_pipeline(cfg, plan, threads)
    return Benchmark(
        scorer=scorer,
        embedder=embedder,
        gt_pool=tuple(poses),
        crop_spec=cfg.crop,
        sigma=cfg.bench.sigma_m,
    )


def sample_queries(bench: Benchmark, n: int, seed: int = 0) -> list[Pose]:
    """Seeded draw of ground-truth query poses from the benchmark pool."""
    pool = bench.gt_pool
    if not pool:
        raise ValidationError("benchmark has no valid ground-truth poses")
    rng = np.random.default_rng(np.random.SeedSequence([seed, len(pool)]))
    idx = rng.choice(len(pool), size=min(n, len(pool)), replace=n > len(pool))
    return [pool[int(i)] for i in idx]


def room_of(plan: FloorPlan, pose: Pose) -> int:
    """Texture id at the pose's cell (0 where untextured)."""
    if plan.texture is None:
        return 0
    row, col = plan.world_to_cell(pose.x, pose.y)
    row = min(max(row, 0), plan.height_cells - 1)
    col = min(max(col, 0), plan.width_cells - 1)
    return int(plan.texture[row, col])


def rotated_twin_pose(plan: FloorPlan, pose: Pose) -> Pose:
    """The congruent counterpart of a pose in a 180-degree-symmetric map."""
    ox, oy = plan.origin
    return Pose(
        2 * ox + plan.width_m - (pose.x - 0.0),
        2 * oy + plan.height_m - (pose.y - 0.0),
        pose.theta + math.pi,
    )


def run_query(
    bench: Benchmark,
    gt_pose: Pose,
    noise: NoiseSpec = NoiseSpec(),
    seed: int = 0,
    config: DisambigConfig = DisambigConfig(),
) -> tuple[LocalizationResult, EvalRecord, bool]:
    """Simulate one observation, localize it, and report (result, eval
    record, correct-room flag)."""
    scorer, embedder = bench.scorer, bench.embedder
    pred, signature = simulate_observation(
        scorer.plan, gt_pose, noise=noise, seed=seed,
        n_rays=scorer.n_rays, fov=scorer.fov, max_range=scorer.max_range,
    )
    result = localize(
        scorer.plan, pred, scorer.grid, embedder.embed_signature(signature),
        embedder.embed_crop, config=config, crop_spec=bench.crop_spec,
        sigma=bench.sigma, scorer=scorer,
    )
    record = EvalRecord(predicted=result.pose, ground_truth=gt_pose)
    correct_room = room_of(scorer.plan, result.pose) == room_of(scorer.plan, gt_pose)
    return result, record, correct_room


@dataclass(frozen=True)
class BenchmarkOutcome:
    report: EvalReport
    room_accuracy: float


def run_benchmark(
    bench: Benchmark,
    queries: list[Pose],
    noise: NoiseSpec = NoiseSpec(),
    config: DisambigConfig = DisambigConfig(),
    seed: int = 0,
) -> BenchmarkOutcome:
    records = []
    rooms = []
    for i, pose in enumerate(queries):
        _, record, correct = run_query(bench, pose, noise=noise, seed=seed + i, config=config)
        records.append(record)
        rooms.append(correct)
    return BenchmarkOutcome(
        report=evaluate(records), room_accuracy=float(np.mean(rooms))
    )


def sweep_points(
    param: str,
    values: list[float],
    base_config: DisambigConfig = DisambigConfig(),
    crop_spec: CropSpec = CropSpec(),
) -> list[tuple[float, DisambigConfig, CropSpec]]:
    """(value, disambiguation config, crop spec) for each value of one knob
    (w, x, or crop-m); a bad value raises ValidationError here, before any
    table is built."""
    points = []
    for value in map(float, values):
        config, crop = base_config, crop_spec
        if param == "w":
            config = replace(base_config, w=value)
        elif param == "x":
            if not value.is_integer():
                raise ValidationError(f"x must be an integer, got {value}")
            config = replace(base_config, x=int(value))
        elif param == "crop-m":
            crop = replace(crop_spec, side_m=value)
        else:
            raise ValidationError(f"unknown sweep parameter {param!r}")
        points.append((value, config, crop))
    return points


def sweep(
    bench: Benchmark,
    points: list[tuple[float, DisambigConfig, CropSpec]],
    queries: list[Pose],
    noise: NoiseSpec = NoiseSpec(),
    seed: int = 0,
) -> list[tuple[float, BenchmarkOutcome]]:
    """Re-run the benchmark at each point from :func:`sweep_points`."""
    rows = []
    for value, config, crop in points:
        b = replace(bench, crop_spec=crop)
        rows.append((value, run_benchmark(b, queries, noise=noise, config=config, seed=seed)))
    return rows
