"""Desk-scale benchmark harness: wires world generation, simulation, scoring,
and disambiguation into repeatable experiments."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .crops import CropSpec
from .disambig import DisambigConfig, LocalizationResult, localize
from .errors import ValidationError
from .floorplan import DEFAULT_FOV, DEFAULT_MAX_RANGE, DEFAULT_N_RAYS, FloorPlan, Pose
from .metrics import EvalRecord, EvalReport, evaluate
from .scoring import DEFAULT_SIGMA, GridScorer, PoseGridSpec, default_cell_stride
from .synth import (
    NoiseSpec,
    RandomProjectionEmbedder,
    WorldSpec,
    generate_world,
    simulate_observation,
)


@dataclass(frozen=True)
class Benchmark:
    plan: FloorPlan
    scorer: GridScorer
    grid: PoseGridSpec
    embedder: RandomProjectionEmbedder
    gt_pool: tuple[Pose, ...]
    crop_spec: CropSpec
    sigma: float
    n_rays: int
    fov: float
    max_range: float


def build_benchmark(
    world: WorldSpec = WorldSpec(),
    n_orientations: int = 36,
    cell_stride: float | None = None,
    n_rays: int = DEFAULT_N_RAYS,
    fov: float = DEFAULT_FOV,
    max_range: float = DEFAULT_MAX_RANGE,
    sigma: float = DEFAULT_SIGMA,
    crop_spec: CropSpec = CropSpec(),
    embed_dim: int = 64,
    embed_seed: int = 7,
) -> Benchmark:
    """Generate the world and precompute the rendered-fan table once."""
    plan, poses = generate_world(world)
    if cell_stride is None:
        cell_stride = default_cell_stride(plan.resolution)
    grid = PoseGridSpec(cell_stride=cell_stride, n_orientations=n_orientations)
    scorer = GridScorer(
        plan, grid, n_rays=n_rays, fov=fov, max_range=max_range
    )
    embedder = RandomProjectionEmbedder(
        dim=embed_dim, seed=embed_seed, max_range=max_range
    )
    return Benchmark(
        plan=plan,
        scorer=scorer,
        grid=grid,
        embedder=embedder,
        gt_pool=tuple(poses),
        crop_spec=crop_spec,
        sigma=sigma,
        n_rays=n_rays,
        fov=fov,
        max_range=max_range,
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
    threads: int = 1,
) -> tuple[LocalizationResult, EvalRecord, bool]:
    """Simulate one observation, localize it, and report (result, eval
    record, correct-room flag)."""
    pred, signature = simulate_observation(
        bench.plan,
        gt_pose,
        noise=noise,
        seed=seed,
        n_rays=bench.n_rays,
        fov=bench.fov,
        max_range=bench.max_range,
    )
    query_embedding = bench.embedder.embed_signature(signature)
    result = localize(
        bench.plan,
        pred,
        bench.grid,
        query_embedding,
        bench.embedder.embed_crop,
        config=config,
        crop_spec=bench.crop_spec,
        sigma=bench.sigma,
        scorer=bench.scorer,
        n_rays=bench.n_rays,
        fov=bench.fov,
        max_range=bench.max_range,
        threads=threads,
    )
    record = EvalRecord(predicted=result.pose, ground_truth=gt_pose)
    correct_room = room_of(bench.plan, result.pose) == room_of(bench.plan, gt_pose)
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
    threads: int = 1,
) -> BenchmarkOutcome:
    records = []
    rooms = []
    for i, pose in enumerate(queries):
        _, record, correct = run_query(
            bench, pose, noise=noise, seed=seed + i, config=config, threads=threads
        )
        records.append(record)
        rooms.append(correct)
    return BenchmarkOutcome(
        report=evaluate(records), room_accuracy=float(np.mean(rooms))
    )


def sweep(
    bench: Benchmark,
    param: str,
    values: list[float],
    queries: list[Pose],
    noise: NoiseSpec = NoiseSpec(),
    base_config: DisambigConfig = DisambigConfig(),
    seed: int = 0,
    threads: int = 1,
) -> list[tuple[float, BenchmarkOutcome]]:
    """Re-run the benchmark for each value of one knob (w, x, or crop-m)."""
    rows = []
    for value in values:
        b = bench
        config = base_config
        if param == "w":
            config = replace(base_config, w=float(value))
        elif param == "x":
            config = replace(base_config, x=int(value))
        elif param == "crop-m":
            b = replace(bench, crop_spec=replace(bench.crop_spec, side_m=float(value)))
        else:
            raise ValidationError(f"unknown sweep parameter {param!r}")
        rows.append(
            (
                float(value),
                run_benchmark(
                    b, queries, noise=noise, config=config, seed=seed, threads=threads
                ),
            )
        )
    return rows
