"""Pose-centered oriented crops."""

import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rayloc.crops import (
    OCCUPANCY_ONLY,
    OCCUPANCY_TEXTURE,
    PAD_OCCUPANCY,
    PAD_TEXTURE,
    CropSpec,
    block_mean,
    export_crop,
    extract_crop,
)
from rayloc.errors import OutOfBoundsError, ValidationError
from rayloc.floorplan import FloorPlan, Pose
from rayloc.synth import WorldSpec, generate_world


class TestCropSpec:
    def test_validation(self):
        with pytest.raises(ValidationError):
            CropSpec(side_m=0.0)
        with pytest.raises(ValidationError):
            CropSpec(out_px=1)
        with pytest.raises(ValidationError):
            CropSpec(channels="depth")

    def test_resolve_px_defaults_to_map_resolution(self, box_plan):
        assert CropSpec(side_m=0.5).resolve_px(box_plan) == 5
        assert CropSpec(side_m=0.5, out_px=9).resolve_px(box_plan) == 9


class TestExtractCrop:
    def test_center_pixel_is_pose_cell(self, textured_box_plan):
        # odd out_px with meters_per_px == map resolution: samples land on
        # cell centers, so the center pixel is exactly the pose's cell
        spec = CropSpec(side_m=0.5, out_px=5)
        crop = extract_crop(textured_box_plan, Pose(0.65, 0.45, 0.0), spec)
        assert crop.out_px == 5
        assert crop.occupancy()[2, 2] == 0
        assert crop.texture()[2, 2] == textured_box_plan.texture[4, 6]

    def test_facing_direction_is_up(self, textured_box_plan):
        # facing +x: the crop's top row samples cells ahead of the pose
        spec = CropSpec(side_m=0.3, out_px=3)
        crop = extract_crop(textured_box_plan, Pose(0.45, 0.45, 0.0), spec)
        # one pixel "up" from center = 0.1 m along +x = cell (4, 5)
        assert crop.texture()[0, 1] == textured_box_plan.texture[4, 5]
        assert crop.texture()[1, 1] == textured_box_plan.texture[4, 4]

    def test_quarter_turn_rotates_raster(self, textured_box_plan):
        spec = CropSpec(side_m=0.5, out_px=5)
        pose = Pose(0.45, 0.45, 0.3)
        a = extract_crop(textured_box_plan, pose, spec)
        b = extract_crop(textured_box_plan, pose.rotated(math.pi / 2), spec)
        for k in range(a.n_channels):
            ra = a.pixels[:, :, k]
            rb = b.pixels[:, :, k]
            assert np.array_equal(rb, np.rot90(ra, k=1)) or np.array_equal(
                rb, np.rot90(ra, k=-1)
            )

    def test_full_turn_is_identity(self, textured_box_plan):
        spec = CropSpec(side_m=0.5, out_px=5)
        pose = Pose(0.52, 0.38, 1.1)
        a = extract_crop(textured_box_plan, pose, spec)
        b = extract_crop(textured_box_plan, pose.rotated(2 * math.pi), spec)
        assert np.array_equal(a.pixels, b.pixels)

    def test_padding_outside_map(self, textured_box_plan):
        # a large window overhanging the map pads with wall / texture 0
        spec = CropSpec(side_m=4.0, out_px=41)
        crop = extract_crop(textured_box_plan, Pose(0.5, 0.5, 0.0), spec)
        assert crop.occupancy()[0, 0] == 1
        assert crop.texture()[0, 0] == 0

    def test_occupancy_only_channel(self, textured_box_plan):
        spec = CropSpec(side_m=0.5, out_px=5, channels="occupancy")
        crop = extract_crop(textured_box_plan, Pose(0.5, 0.5, 0.0), spec)
        assert crop.n_channels == 1
        assert crop.texture() is None

    def test_untextured_plan_gives_zero_texture(self, box_plan):
        spec = CropSpec(side_m=0.5, out_px=5)
        crop = extract_crop(box_plan, Pose(0.5, 0.5, 0.0), spec)
        assert crop.n_channels == 2
        assert np.all(crop.texture() == 0)

    def test_out_of_bounds_pose(self, box_plan):
        with pytest.raises(OutOfBoundsError):
            extract_crop(box_plan, Pose(5.0, 5.0, 0.0), CropSpec())

    def test_meters_per_px(self, box_plan):
        crop = extract_crop(box_plan, Pose(0.5, 0.5), CropSpec(side_m=2.0, out_px=10))
        assert crop.meters_per_px == pytest.approx(0.2)


def _reference_extract_crop(plan, pose, spec) -> np.ndarray:
    """Reference crop pixels: 2-D fancy indexing of clipped cells, padded
    with np.where, channels stacked."""
    px = spec.resolve_px(plan)
    mpp = spec.side_m / px
    c = (px - 1) / 2.0
    u = np.arange(px, dtype=float)
    v = np.arange(px, dtype=float)
    u_loc = (u[None, :] - c) * mpp
    v_loc = (c - v[:, None]) * mpp
    cos_t = math.cos(pose.theta)
    sin_t = math.sin(pose.theta)
    wx = pose.x + u_loc * sin_t + v_loc * cos_t
    wy = pose.y - u_loc * cos_t + v_loc * sin_t
    cols = np.floor((wx - plan.origin[0]) / plan.resolution).astype(np.int64)
    rows = np.floor((wy - plan.origin[1]) / plan.resolution).astype(np.int64)
    inside = (
        (cols >= 0) & (cols < plan.width_cells) & (rows >= 0) & (rows < plan.height_cells)
    )
    r = np.clip(rows, 0, plan.height_cells - 1)
    q = np.clip(cols, 0, plan.width_cells - 1)
    occ = np.where(inside, plan.occupancy[r, q].astype(np.uint8), PAD_OCCUPANCY)
    if spec.channels == OCCUPANCY_ONLY:
        return occ[:, :, None]
    if plan.texture is not None:
        tex = np.where(inside, plan.texture[r, q], PAD_TEXTURE)
    else:
        tex = np.full(occ.shape, PAD_TEXTURE, dtype=np.uint8)
    return np.stack([occ, tex.astype(np.uint8)], axis=2)


_ORACLE_PLANS = [
    generate_world(WorldSpec(extent=(6.0, 4.0), seed=3))[0],  # twin rooms, textured
    generate_world(WorldSpec(extent=(5.0, 3.0), texture_policy="none", seed=1))[0],
    FloorPlan(  # offset origin, coarse cells, no texture
        occupancy=np.random.default_rng(0).random((7, 11)) < 0.3,
        resolution=0.25,
        origin=(-1.3, 2.2),
    ),
]


class TestExtractCropOracle:
    @settings(max_examples=150)
    @given(
        plan_index=st.integers(0, len(_ORACLE_PLANS) - 1),
        fx=st.floats(0.0, 1.0, exclude_max=True),
        fy=st.floats(0.0, 1.0, exclude_max=True),
        theta=st.floats(-10.0, 10.0),
        side_m=st.floats(0.05, 8.0),
        out_px=st.one_of(st.none(), st.integers(2, 61)),
        channels=st.sampled_from([OCCUPANCY_ONLY, OCCUPANCY_TEXTURE]),
    )
    @example(plan_index=0, fx=0.5, fy=0.5, theta=0.0, side_m=5.0, out_px=None,
             channels=OCCUPANCY_TEXTURE)  # the localizer's default crop
    @example(plan_index=2, fx=0.0, fy=0.0, theta=2.0, side_m=8.0, out_px=7,
             channels=OCCUPANCY_TEXTURE)  # corner pose, window far past the map
    def test_matches_reference(self, plan_index, fx, fy, theta, side_m, out_px, channels):
        plan = _ORACLE_PLANS[plan_index]
        pose = Pose(plan.origin[0] + fx * plan.width_m, plan.origin[1] + fy * plan.height_m, theta)
        assume(plan.in_bounds(pose.x, pose.y))
        spec = CropSpec(side_m=side_m, out_px=out_px, channels=channels)
        crop = extract_crop(plan, pose, spec)
        expected = _reference_extract_crop(plan, pose, spec)
        assert crop.pixels.shape == expected.shape and crop.pixels.dtype == np.uint8
        assert crop.pixels.tobytes() == expected.tobytes()
        assert crop.meters_per_px == spec.side_m / spec.resolve_px(plan)


class TestExportCrop:
    def test_writes_channels_and_record(self, textured_box_plan, tmp_path):
        spec = CropSpec(side_m=0.5, out_px=5)
        for i, pose in enumerate([Pose(0.45, 0.45, 0.0), Pose(0.55, 0.55, 1.0)]):
            crop = extract_crop(textured_box_plan, pose, spec)
            record = export_crop(crop, str(tmp_path), f"crop_{i:05d}")
            assert set(record) == {"pose", "meters_per_px", "files"}
            assert set(record["files"]) == {"occupancy", "texture"}
            for fname in record["files"].values():
                assert (tmp_path / fname).exists()
            assert record["pose"] == {"x": pose.x, "y": pose.y, "theta": pose.theta}
            assert record["meters_per_px"] == crop.meters_per_px
            # the record is what the mining manifest stores, so it must be JSON
            assert json.loads(json.dumps(record)) == record

    def test_occupancy_only_crop_writes_one_file(self, textured_box_plan, tmp_path):
        spec = CropSpec(side_m=0.5, out_px=5, channels="occupancy")
        crop = extract_crop(textured_box_plan, Pose(0.45, 0.45, 0.0), spec)
        assert export_crop(crop, str(tmp_path), "c")["files"] == {"occupancy": "c_occupancy.pgm"}


def _naive_block_mean(arr, blocks):
    n = arr.shape[0]
    edges = np.linspace(0, n, blocks + 1).astype(int)
    out = np.zeros((blocks, blocks))
    for i in range(blocks):
        for j in range(blocks):
            patch = arr[edges[i] : edges[i + 1], edges[j] : edges[j + 1]]
            if patch.size:
                out[i, j] = patch.mean()
    return out


class TestBlockMean:
    @settings(max_examples=200)
    @given(
        n=st.integers(2, 64),
        blocks=st.integers(1, 10),
        batch=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=3, blocks=8, batch=2, seed=0)  # empty blocks pool to 0.0
    def test_matches_naive_loop(self, n, blocks, batch, seed):
        rng = np.random.default_rng(seed)
        binary = rng.integers(0, 2, size=(batch, n, n))
        real = rng.normal(size=(batch, n, n))
        pooled_binary = block_mean(binary, blocks)
        pooled_real = block_mean(real, blocks)
        # a second call with the same (n, blocks) reads the cached layout
        pooled_again = block_mean(binary, blocks)
        assert pooled_binary.shape == pooled_real.shape == (batch, blocks, blocks)
        for k in range(batch):
            expect = _naive_block_mean(binary[k].astype(float), blocks)
            assert pooled_binary[k].tobytes() == expect.tobytes()
            assert pooled_again[k].tobytes() == expect.tobytes()
            assert np.allclose(
                pooled_real[k], _naive_block_mean(real[k], blocks), rtol=0, atol=1e-12
            )
            # a slice pools exactly as it does inside the batch
            assert block_mean(real[k], blocks).tobytes() == pooled_real[k].tobytes()
