"""The run config -> scorer/embedder/benchmark mapping and sweep points."""

import math

import numpy as np
import pytest

from rayloc.bench import build_benchmark, build_pipeline, sweep_points
from rayloc.config import BenchParams, EmbedderParams, GridParams, RayParams, RunConfig
from rayloc.crops import CropSpec
from rayloc.disambig import DisambigConfig
from rayloc.scoring import GridScorer, PoseGridSpec, default_cell_stride
from rayloc.synth import RandomProjectionEmbedder, WorldSpec, generate_world

SMALL_WORLD = WorldSpec(extent=(6.0, 4.0), seed=3)


def test_build_benchmark_honours_every_field():
    cfg = RunConfig(
        world=SMALL_WORLD,
        grid=GridParams(cell_stride_m=0.3, n_orientations=6),
        rays=RayParams(n_rays=9, fov_deg=75.0, max_range_m=6.0),
        bench=BenchParams(sigma_m=0.3),
        crop=CropSpec(side_m=2.5, out_px=12),
        embedder=EmbedderParams(dim=12, seed=4),
    )
    bench = build_benchmark(cfg)
    plan, poses = generate_world(SMALL_WORLD)
    grid = PoseGridSpec(cell_stride=0.3, n_orientations=6)
    scorer = bench.scorer
    assert scorer.grid == grid
    assert (scorer.n_rays, scorer.fov, scorer.max_range) == (9, math.radians(75.0), 6.0)
    assert np.array_equal(scorer.plan.occupancy, plan.occupancy)
    reference = GridScorer(plan, grid, n_rays=9, fov=math.radians(75.0), max_range=6.0)
    assert np.array_equal(scorer.table, reference.table)
    embedder = RandomProjectionEmbedder(dim=12, seed=4, max_range=6.0)
    assert np.array_equal(bench.embedder.projection, embedder.projection)
    assert bench.embedder.max_range == 6.0
    assert bench.sigma == 0.3
    assert bench.crop_spec == CropSpec(side_m=2.5, out_px=12)
    assert bench.gt_pool == tuple(poses)


@pytest.mark.parametrize("resolution", [0.05, 0.25])
def test_null_stride_follows_the_map_resolution(resolution):
    plan, _ = generate_world(WorldSpec(extent=(6.0, 4.0), resolution=resolution))
    cfg = RunConfig(grid=GridParams(n_orientations=2), rays=RayParams(n_rays=4))
    scorer, _ = build_pipeline(cfg, plan)
    assert scorer.grid.cell_stride == default_cell_stride(resolution)


def test_sweep_points_set_one_knob_each():
    base, crop = DisambigConfig(w=0.3, x=7), CropSpec(side_m=4.0)
    assert sweep_points("w", [0.0, 1.0], base, crop) == [
        (0.0, DisambigConfig(w=0.0, x=7), crop),
        (1.0, DisambigConfig(w=1.0, x=7), crop),
    ]
    assert sweep_points("x", [2.0], base, crop) == [(2.0, DisambigConfig(w=0.3, x=2), crop)]
    assert sweep_points("crop-m", [3.0], base, crop) == [(3.0, base, CropSpec(side_m=3.0))]
