"""Pose-centered oriented crops."""

import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rayloc import crops
from rayloc.contrastive import LinearEmbedder, crop_features
from rayloc.crops import (
    N_TEXTURE_IDS,
    OCCUPANCY_ONLY,
    OCCUPANCY_TEXTURE,
    PAD_OCCUPANCY,
    PAD_TEXTURE,
    POOL_BLOCKS,
    Crop,
    CropSpec,
    export_crop,
    extract_crop,
    pool_crop,
)
from rayloc.errors import OutOfBoundsError, ValidationError
from rayloc.floorplan import FloorPlan, Pose
from rayloc.synth import RandomProjectionEmbedder, WorldSpec, generate_world


class TestCropSpec:
    def test_validation(self):
        with pytest.raises(ValidationError):
            CropSpec(side_m=0.0)
        with pytest.raises(ValidationError):
            CropSpec(out_px=1)
        with pytest.raises(ValidationError):
            CropSpec(channels="depth")

    @pytest.mark.parametrize("out_px", [3.0, 2.5, True, "5", np.float64(4.0)])
    def test_non_integer_out_px_rejected(self, out_px):
        with pytest.raises(ValidationError, match="integer"):
            CropSpec(out_px=out_px)

    @pytest.mark.parametrize("out_px", [2, 9, np.int64(9), np.int32(2), np.uint8(5)])
    def test_integer_out_px_accepted(self, box_plan, out_px):
        spec = CropSpec(side_m=0.5, out_px=out_px)
        crop = extract_crop(box_plan, Pose(0.45, 0.45, 0.0), spec)
        assert crop.out_px == out_px

    def test_resolve_px_defaults_to_map_resolution(self, box_plan):
        assert CropSpec(side_m=0.5).resolve_px(box_plan) == 5
        assert CropSpec(side_m=0.5, out_px=9).resolve_px(box_plan) == 9


class TestCrop:
    @pytest.mark.parametrize(
        "shape", [(10, 16, 2), (16, 10, 2), (0, 0, 2), (1, 1, 1), (16, 16), (16, 16, 3), (16,), ()]
    )
    def test_unpoolable_pixels_rejected(self, shape):
        with pytest.raises(ValidationError, match="shape"):
            Crop(pixels=np.zeros(shape, np.uint8), meters_per_px=0.1, source_pose=Pose(0, 0, 0))

    @pytest.mark.parametrize("shape", [(2, 2, 1), (2, 2, 2), (16, 16, 1), (16, 16, 2)])
    def test_square_pixels_accepted(self, shape):
        crop = Crop(pixels=np.ones(shape, np.uint8), meters_per_px=0.1, source_pose=Pose(0, 0, 0))
        assert crop.pixels.shape == shape and not crop.pixels.flags.writeable


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
    FloorPlan(  # fine cells: 0.4 x 0.3 m, far smaller than most windows
        occupancy=np.random.default_rng(1).random((30, 40)) < 0.3,
        resolution=0.01,
        origin=(0.5, -0.25),
        texture=np.random.default_rng(2).integers(0, 256, (30, 40)),
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
    @example(plan_index=0, fx=0.0, fy=0.0, theta=math.pi / 4, side_m=5.0, out_px=None,
             channels=OCCUPANCY_TEXTURE)  # corner pose, the diagonal out of the map
    @example(plan_index=3, fx=0.5, fy=0.5, theta=1.0, side_m=8.0, out_px=None,
             channels=OCCUPANCY_TEXTURE)  # 800 px whose half-diagonal is 14x the map's width
    @example(plan_index=3, fx=0.0, fy=0.999, theta=math.pi / 4, side_m=3.0, out_px=61,
             channels=OCCUPANCY_ONLY)  # corner pose of the fine map
    @example(plan_index=1, fx=0.3, fy=0.6, theta=0.5, side_m=5.0, out_px=None,
             channels=OCCUPANCY_ONLY)  # untextured plan, occupancy only
    @example(plan_index=1, fx=0.3, fy=0.6, theta=0.5, side_m=9.0, out_px=None,
             channels=OCCUPANCY_TEXTURE)  # untextured plan, padded texture channel
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
        if plan.texture is None and channels == OCCUPANCY_TEXTURE:
            assert np.all(crop.texture() == PAD_TEXTURE)

    def test_canvas_is_read_only_built_once_and_widened_on_demand(self):
        rng = np.random.default_rng(4)
        plan = FloorPlan(
            occupancy=rng.random((6, 9)) < 0.4, resolution=0.1, texture=rng.integers(0, 256, (6, 9))
        )
        assert "_canvas" not in plan.__dict__  # nothing is built before the first crop
        pose = Pose(0.45, 0.25, 0.3)

        def canvas():
            return plan._crop_canvas(0, crops._PAD)  # the one it holds: 0 never widens it

        extract_crop(plan, pose, CropSpec(side_m=1.0))
        first, margin = canvas()
        # 10 px of 0.1 m: a half-diagonal of 0.45 * sqrt(2) m, 6.4 cells, so 7 + 1
        assert margin == 8
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0] = 0
        grid = first.reshape(6 + 2 * margin, 9 + 2 * margin)
        inner = grid[margin:-margin, margin:-margin]
        assert np.array_equal(inner & 0xFF, plan.occupancy) and np.array_equal(inner >> 8, plan.texture)
        ring = grid.copy()
        ring[margin:-margin, margin:-margin] = crops._PAD
        assert np.all(ring == crops._PAD)
        for side_m in (1.0, 0.5, 0.2):  # no wider margin: the same canvas
            extract_crop(plan, pose, CropSpec(side_m=side_m))
            assert canvas()[0] is first
        extract_crop(plan, pose, CropSpec(side_m=3.0))
        wide, wide_margin = canvas()
        assert wide is not first and wide_margin == 22 and not wide.flags.writeable
        extract_crop(plan, pose, CropSpec(side_m=1.0))
        assert canvas()[0] is wide  # a narrower crop reads the wider canvas


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


def _reference_crop_features(crop):
    """crop_features as the one-hot maps it pools: occupancy, then texture == k."""
    maps = [crop.occupancy()]
    if crop.texture() is not None:
        maps += [crop.texture() == k for k in range(1, N_TEXTURE_IDS + 1)]
    return np.ravel([_naive_block_mean(m.astype(float), POOL_BLOCKS) for m in maps])


def _reference_embed_crop(emb, crop):
    """RandomProjectionEmbedder.embed_crop with its own 256-bin texture histogram."""
    tex = crop.texture()
    if tex is None:
        counts = np.zeros(256, dtype=np.int64)
    else:
        counts = np.bincount(tex.ravel().astype(np.int64), minlength=256)
    geom = _naive_block_mean(crop.occupancy().astype(float), POOL_BLOCKS)
    return emb._project(
        np.concatenate(
            [emb.texture_weight * emb._texture_feature(counts), emb.geom_weight * geom.ravel()]
        )
    )


def _outcome(embed, *args):
    try:
        return embed(*args).tobytes()
    except ValidationError as exc:  # an all-zero feature vector is degenerate
        return str(exc)


@st.composite
def _random_crops(draw):
    """uint8 crops of 2..64 px (below 8 px some blocks are empty), one or two
    channels, non-binary occupancy and texture ids up to 255 (a uint8 key wraps)."""
    n = draw(st.integers(2, 64))
    channels = draw(st.sampled_from([1, 2]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pixels = rng.integers(0, 256, size=(n, n, channels), dtype=np.uint8)
    if channels == 2 and draw(st.booleans()):  # mostly ids the features keep
        pixels[:, :, 1] = rng.integers(0, N_TEXTURE_IDS + 2, size=(n, n))
    if draw(st.booleans()):  # binary occupancy, as extract_crop gives
        pixels[:, :, 0] &= 1
    return Crop(pixels=pixels, meters_per_px=0.1, source_pose=Pose(0.0, 0.0, 0.0))


class TestPoolCrop:
    @settings(max_examples=200)
    @given(crop=_random_crops())
    @example(
        crop=Crop(
            pixels=np.arange(18, dtype=np.uint8).reshape(3, 3, 2),
            meters_per_px=0.1,
            source_pose=Pose(0.0, 0.0, 0.0),
        )
    )  # 3 px: most of the 8 x 8 blocks are empty and pool to 0.0
    def test_matches_naive_loop(self, crop):
        means, totals = pool_crop(crop)
        # a second call with the same size reads the cached block layout
        again, totals_again = pool_crop(crop)
        tex = crop.texture()
        maps = [crop.occupancy()] + [
            np.zeros_like(crop.occupancy()) if tex is None else tex == k
            for k in range(1, N_TEXTURE_IDS + 1)
        ]
        assert means.shape == (1 + N_TEXTURE_IDS, POOL_BLOCKS * POOL_BLOCKS)
        for row, m in enumerate(maps):
            expect = _naive_block_mean(m.astype(float), POOL_BLOCKS).ravel()
            assert means[row].tobytes() == expect.tobytes()
            assert again[row].tobytes() == expect.tobytes()
            assert totals[row] == totals_again[row] == int(m.astype(np.int64).sum())

    @settings(max_examples=200)
    @given(crop=_random_crops())
    def test_features_and_embeddings_match_references(self, crop):
        feats = crop_features(crop)
        expect = _reference_crop_features(crop)
        assert feats.shape == expect.shape == (64 if crop.texture() is None else 1088,)
        assert feats.tobytes() == expect.tobytes()
        assert feats.base is None  # its own array, not a view of all 17 pooled rows
        rng = np.random.default_rng(crop.out_px)
        linear = LinearEmbedder(weights=rng.normal(size=(8, feats.size)))
        assert _outcome(linear.embed_crop, crop) == _outcome(linear.embed_features, expect)
        for emb in (
            RandomProjectionEmbedder(),
            RandomProjectionEmbedder(texture_weight=1.0, geom_weight=1.0),
        ):
            assert _outcome(emb.embed_crop, crop) == _outcome(_reference_embed_crop, emb, crop)
