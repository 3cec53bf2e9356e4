"""World generation, observation simulation, and the reference embedder."""

import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import ndimage

from rayloc.crops import CropSpec, extract_crop
from rayloc.errors import ConfigurationError, ValidationError
from rayloc.floorplan import TWO_PI, FloorPlan, Pose, ray_bearings, render_gt_rays
from rayloc.synth import (
    POSE_CLEARANCE_M,
    NoiseSpec,
    ObservationSignature,
    RandomProjectionEmbedder,
    WorldSpec,
    _check_connected,
    _label_components,
    _dilate_square,
    _texture_counts_along_rays,
    generate_world,
    relabel_texture,
    simulate_observation,
    valid_gt_poses,
)


class TestWorldSpec:
    def test_layout_validation(self):
        WorldSpec(layout="twin-rooms")
        WorldSpec(layout="corridor-of-3")
        WorldSpec(layout="random-partition")
        with pytest.raises(ValidationError):
            WorldSpec(layout="maze")
        with pytest.raises(ValidationError):
            WorldSpec(resolution=0.0)
        with pytest.raises(ValidationError):
            WorldSpec(texture_policy="striped")

    def test_extent_too_small(self):
        with pytest.raises(ConfigurationError):
            generate_world(WorldSpec(extent=(1.0, 1.0)))
        with pytest.raises(ConfigurationError):
            generate_world(WorldSpec(layout="corridor-of-9", extent=(3.0, 3.0)))
        with pytest.raises(ConfigurationError):
            generate_world(WorldSpec(layout="random-partition", extent=(1.0, 1.0)))

    @pytest.mark.parametrize("extent", [(3.0, 2.0), (4.5, 2.3), (4.6, 2.2)])
    def test_twin_rooms_extent_below_its_margins(self, extent):
        with pytest.raises(ConfigurationError, match=r"at least 4\.6 x 2\.3 m"):
            generate_world(WorldSpec(extent=extent))

    def test_twin_rooms_minimum_extent_builds(self):
        plan, _ = generate_world(WorldSpec(extent=(4.6, 2.3), seed=2))
        assert plan.occupancy.shape == (23, 46)


class TestGenerateWorld:
    def test_deterministic(self):
        a_plan, a_poses = generate_world(WorldSpec(seed=3))
        b_plan, b_poses = generate_world(WorldSpec(seed=3))
        assert np.array_equal(a_plan.occupancy, b_plan.occupancy)
        assert np.array_equal(a_plan.texture, b_plan.texture)
        assert a_poses == b_poses

    def test_seeds_differ(self):
        a, _ = generate_world(WorldSpec(seed=3))
        b, _ = generate_world(WorldSpec(seed=4))
        assert not np.array_equal(a.occupancy, b.occupancy)

    def test_twin_rooms_is_rotationally_symmetric(self):
        plan, _ = generate_world(WorldSpec(seed=0))
        occ = plan.occupancy
        assert np.array_equal(occ, occ[::-1, ::-1])

    def test_twin_rooms_textures_label_the_rooms(self):
        plan, _ = generate_world(WorldSpec(seed=0))
        ids = set(np.unique(plan.texture).tolist())
        assert ids == {0, 1, 2}
        # left half is never texture 2 and right half never texture 1
        half = plan.width_cells // 2
        assert 2 not in np.unique(plan.texture[:, : half - 5])
        assert 1 not in np.unique(plan.texture[:, half + 5 :])

    def test_twin_pose_fans_are_congruent(self):
        plan, poses = generate_world(WorldSpec(seed=0))
        for pose in poses[:: max(1, len(poses) // 10)]:
            twin = Pose(
                plan.width_m - pose.x, plan.height_m - pose.y, pose.theta + math.pi
            )
            a = render_gt_rays(plan, pose, n_rays=24)
            b = render_gt_rays(plan, twin, n_rays=24)
            assert np.max(np.abs(a.depths - b.depths)) < 1e-9

    def test_corridor_layout(self):
        plan, poses = generate_world(WorldSpec(layout="corridor-of-3", seed=1))
        # three rooms plus the corridor
        assert set(np.unique(plan.texture).tolist()) == {0, 1, 2, 3, 4}
        assert poses  # free textured space exists

    def test_corridor_of_one(self):
        plan, poses = generate_world(
            WorldSpec(layout="corridor-of-1", extent=(5.0, 5.0), seed=1)
        )
        assert poses

    def test_random_partition_has_multiple_rooms(self):
        plan, poses = generate_world(WorldSpec(layout="random-partition", seed=2))
        assert len(set(np.unique(plan.texture).tolist()) - {0}) >= 2
        assert poses

    def test_texture_policy_none(self):
        plan, poses = generate_world(WorldSpec(texture_policy="none", seed=0))
        assert plan.texture is None


def _grid(height, width, density, seed):
    """A seeded random wall grid; density 0 is all free, 1 all wall."""
    return np.random.default_rng(seed).random((height, width)) < density


_grid_args = dict(
    height=st.integers(1, 24),
    width=st.integers(1, 24),
    density=st.sampled_from([0.0, 0.05, 0.3, 0.5, 0.8, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)


class TestMorphologyOracles:
    """The NumPy dilation and component count against scipy.ndimage."""

    @given(radius=st.integers(1, 30), **_grid_args)  # past the map size
    @example(radius=3, height=1, width=17, density=0.1, seed=1)
    @example(radius=3, height=17, width=1, density=0.1, seed=1)
    @example(radius=2, height=9, width=7, density=1.0, seed=0)
    @example(radius=2, height=9, width=7, density=0.0, seed=0)
    @settings(max_examples=300)
    def test_dilation_matches_ndimage(self, radius, height, width, density, seed):
        occ = _grid(height, width, density, seed)
        footprint = np.ones((2 * radius + 1, 2 * radius + 1), dtype=bool)
        expected = ndimage.binary_dilation(occ, structure=footprint)
        assert np.array_equal(_dilate_square(occ, radius), expected)

    @given(**_grid_args)
    @example(height=1, width=17, density=0.5, seed=1)
    @example(height=17, width=1, density=0.5, seed=1)
    @example(height=9, width=7, density=1.0, seed=0)
    @example(height=9, width=7, density=0.0, seed=0)
    @settings(max_examples=300)
    def test_components_match_ndimage_label(self, height, width, density, seed):
        free = ~_grid(height, width, density, seed)
        labels, count = _label_components(free)
        expected, expected_count = ndimage.label(free)
        assert count == expected_count == _label_components(free, labels=False)[1]
        assert np.array_equal(labels, expected)

    def test_diagonal_contact_does_not_connect(self):
        free = np.array([[True, False], [False, True]])
        assert _label_components(free)[1] == ndimage.label(free)[1] == 2
        checkerboard = (np.indices((6, 7)).sum(axis=0) % 2).astype(bool)
        assert _label_components(checkerboard)[1] == 21


class TestCheckConnected:
    @staticmethod
    def _walled(walls_at_cols=(), walls_at_rows=()):
        occ = np.zeros((12, 20), dtype=bool)
        occ[[0, -1], :] = occ[:, [0, -1]] = True
        occ[:, list(walls_at_cols)] = True
        occ[list(walls_at_rows), :] = True
        return occ

    def test_connected_layout_passes(self):
        _check_connected(self._walled(), "box")

    @pytest.mark.parametrize(
        "cols, rows, at_least",
        [((10,), (), 2), ((6, 13), (), 3), ((6, 13), (5,), 6)],
    )
    def test_split_layout_reports_component_count(self, cols, rows, at_least):
        occ = self._walled(cols, rows)
        _, count = ndimage.label(~occ)
        assert count >= at_least
        with pytest.raises(ConfigurationError, match=rf"box: .* not connected \({count} components\)"):
            _check_connected(occ, "box")

    def test_generated_layout_can_be_split(self):
        # at 0.5 m cells the baffles close the door off from both rooms
        with pytest.raises(ConfigurationError, match=r"twin-rooms: .* \(5 components\)"):
            generate_world(WorldSpec(resolution=0.5, seed=3))

    @pytest.mark.parametrize("seed", [453, 912, 944, 965, 1071, 1112])
    def test_sealed_pockets_become_wall(self, seed):
        # clutter seals a pocket of 25-30 cells in one room and the
        # symmetrization its rotated twin; both are walled in, and the map
        # stays connected and 180-degree symmetric
        plan, poses = generate_world(WorldSpec(seed=seed))
        occ = plan.occupancy
        assert ndimage.label(~occ)[1] == 1
        assert np.array_equal(occ, occ[::-1, ::-1])
        assert poses and not plan.texture[occ].any()


class TestValidGtPoses:
    def test_poses_are_clear_and_textured(self):
        plan, poses = generate_world(WorldSpec(seed=0))
        assert poses
        for pose in poses[::7]:
            assert plan.is_free(pose.x, pose.y)
            r, c = plan.world_to_cell(pose.x, pose.y)
            assert plan.texture[r, c] > 0
            # clearance: no wall within 0.4 m in the four axis directions
            for bearing in (0.0, math.pi / 2, math.pi, 3 * math.pi / 2):
                fan = render_gt_rays(
                    plan, Pose(pose.x, pose.y, bearing), n_rays=2, fov=1e-6
                )
                assert fan.depths.min() > 0.4

    def test_headings_on_orientation_centers(self):
        plan, poses = generate_world(WorldSpec(seed=0))
        step = 2 * math.pi / 36
        for pose in poses[::11]:
            k = pose.theta / step
            assert abs(k - round(k)) < 1e-9

    def test_deterministic(self):
        plan, _ = generate_world(WorldSpec(seed=0))
        assert valid_gt_poses(plan, seed=5) == valid_gt_poses(plan, seed=5)

    @pytest.mark.parametrize(
        "spec",
        [
            WorldSpec(seed=2),
            WorldSpec(seed=3),
            WorldSpec(layout="corridor-of-4", extent=(10.0, 4.0), seed=1),
            WorldSpec(layout="random-partition", seed=4),
            WorldSpec(layout="corridor-of-3", texture_policy="none", seed=7),
        ],
    )
    def test_matches_per_cell_draws(self, spec):
        plan, poses = generate_world(spec)
        ref = _reference_gt_poses(plan, seed=spec.seed)
        assert len(poses) == len(ref) > 0
        for p, q in zip(poses, ref):
            assert (p.x.hex(), p.y.hex(), p.theta.hex()) == (q.x.hex(), q.y.hex(), q.theta.hex())


def _reference_gt_poses(plan, seed, clearance_m=POSE_CLEARANCE_M, n_orientations=36):
    """valid_gt_poses as a per-cell loop: one heading draw and one Pose per
    eligible cell, in row-major order."""
    from scipy import ndimage

    radius = max(1, int(math.ceil(clearance_m / plan.resolution)))
    footprint = np.ones((2 * radius + 1, 2 * radius + 1), dtype=bool)
    ok = ~ndimage.binary_dilation(plan.occupancy, structure=footprint)
    if plan.texture is not None:
        ok &= plan.texture > 0
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x6A5E5]))
    poses = []
    for r, c in np.argwhere(ok):
        x, y = plan.cell_center(int(r), int(c))
        theta = 2 * math.pi * int(rng.integers(n_orientations)) / n_orientations
        poses.append(Pose(x, y, theta))
    return poses


class TestRelabelTexture:
    def test_offsets_nonzero_ids_only(self):
        plan, _ = generate_world(WorldSpec(seed=0))
        shifted = relabel_texture(plan, 10)
        assert set(np.unique(shifted.texture).tolist()) == {0, 11, 12}
        assert np.array_equal(shifted.occupancy, plan.occupancy)

    def test_validation(self):
        plan, _ = generate_world(WorldSpec(seed=0))
        with pytest.raises(ValidationError):
            relabel_texture(plan, -1)
        with pytest.raises(ValidationError):
            relabel_texture(plan, 300)
        untextured, _ = generate_world(WorldSpec(texture_policy="none", seed=0))
        with pytest.raises(ValidationError):
            relabel_texture(untextured, 1)


@pytest.fixture(scope="module")
def twin_world():
    return generate_world(WorldSpec(seed=0))


class TestSimulateObservation:
    @pytest.fixture()
    def world(self, twin_world):
        plan, poses = twin_world
        return plan, poses[len(poses) // 2]

    def test_noiseless_equals_rendered(self, world):
        plan, pose = world
        pred, signature = simulate_observation(plan, pose, n_rays=16)
        fan = render_gt_rays(plan, pose, n_rays=16)
        assert np.array_equal(pred, fan.depths)
        assert np.array_equal(signature.depths, fan.depths)

    def test_seeded_noise_is_reproducible(self, world):
        plan, pose = world
        noise = NoiseSpec(depth_sigma=0.2, dropout=0.1)
        a, _ = simulate_observation(plan, pose, noise=noise, seed=9)
        b, _ = simulate_observation(plan, pose, noise=noise, seed=9)
        c, _ = simulate_observation(plan, pose, noise=noise, seed=10)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_full_dropout_clamps_everything(self, world):
        plan, pose = world
        pred, _ = simulate_observation(
            plan, pose, noise=NoiseSpec(dropout=1.0), max_range=7.0
        )
        assert np.all(pred == 7.0)

    def test_depths_clipped_to_range(self, world):
        plan, pose = world
        pred, _ = simulate_observation(
            plan, pose, noise=NoiseSpec(depth_sigma=50.0), seed=1
        )
        assert np.all((pred >= 0.0) & (pred <= 10.0))

    def test_signature_counts_room_textures(self, world):
        plan, pose = world
        _, signature = simulate_observation(plan, pose)
        counts = signature.texture_counts
        assert counts.sum() > 0
        room = plan.texture[plan.world_to_cell(pose.x, pose.y)]
        assert counts[room] > 0

    @pytest.mark.parametrize(
        "depths, counts",
        [([], 256), ([[1.0, 2.0]], 256), ([1.0, math.nan], 256), ([1.0], 255), ([1.0], 17)],
    )
    def test_signature_shapes_are_checked(self, depths, counts):
        with pytest.raises(ValidationError):
            ObservationSignature(
                depths=depths, texture_counts=np.zeros(counts), fov=1.0, max_range=10.0
            )

    @pytest.mark.parametrize("bad", [-1, -50])
    def test_negative_texture_count_rejected(self, bad):
        counts = np.zeros(256, dtype=np.int64)
        counts[3] = bad
        with pytest.raises(ValidationError, match="texture_counts"):
            ObservationSignature(depths=[1.0, 2.0], texture_counts=counts, fov=1.0, max_range=10.0)

    def test_noise_spec_validation(self):
        with pytest.raises(ValidationError):
            NoiseSpec(depth_sigma=-1.0)
        with pytest.raises(ValidationError):
            NoiseSpec(dropout=1.5)
        with pytest.raises(ValidationError):
            NoiseSpec(depth_sigma=math.nan)
        with pytest.raises(ValidationError):
            NoiseSpec(dropout=math.nan)


def _reference_texture_counts(plan, pose, fan, n_rays, fov):
    """_texture_counts_along_rays as a per-ray loop: one np.arange of samples
    and one bincount per ray."""
    step = plan.resolution / 2.0
    bearings = ray_bearings(pose.theta, n_rays, fov)
    counts = np.zeros(256, dtype=np.int64)
    for i in range(n_rays):
        ts = np.arange(0.5 * step, fan.depths[i], step)
        if ts.size == 0:
            continue
        xs = pose.x + math.cos(bearings[i]) * ts
        ys = pose.y + math.sin(bearings[i]) * ts
        cols = np.floor((xs - plan.origin[0]) / plan.resolution).astype(np.int64)
        rows = np.floor((ys - plan.origin[1]) / plan.resolution).astype(np.int64)
        inside = (
            (cols >= 0)
            & (cols < plan.width_cells)
            & (rows >= 0)
            & (rows < plan.height_cells)
        )
        if plan.texture is None:
            ids = np.zeros(int(inside.sum()), dtype=np.int64)
        else:
            ids = plan.texture[rows[inside], cols[inside]].astype(np.int64)
        counts += np.bincount(ids, minlength=256)
        counts[0] += int((~inside).sum())  # out-of-map samples count as id 0
    return counts


@functools.cache
def _sampling_plans() -> tuple[FloorPlan, ...]:
    """Generated worlds with and without texture, plus open maps whose rays
    leave the map, so that samples fall off it."""
    specs = [
        WorldSpec(seed=1),
        WorldSpec(seed=2, texture_policy="none"),
        WorldSpec(layout="corridor-of-3", extent=(10.0, 4.0), resolution=0.05),
        WorldSpec(layout="random-partition", seed=5, resolution=0.07),
    ]
    rng = np.random.default_rng(0)
    open_textured = FloorPlan(
        occupancy=np.zeros((30, 40), dtype=bool),
        resolution=0.1,
        texture=rng.integers(0, 256, size=(30, 40)).astype(np.uint8),
        origin=(-1.5, 0.25),
    )
    open_bare = FloorPlan(occupancy=np.zeros((12, 9), dtype=bool), resolution=0.25)
    return (*(generate_world(spec)[0] for spec in specs), open_textured, open_bare)


class TestTextureCountsOracle:
    """The one sampling pass over every ray against the per-ray loop."""

    @given(
        which=st.integers(0, 5),
        cell=st.integers(0, 2**32 - 1),
        offset=st.tuples(st.floats(0.0, 0.999), st.floats(0.0, 0.999)),
        theta=st.floats(0.0, 7.0),
        n_rays=st.integers(2, 48),
        fov=st.one_of(
            st.floats(1e-3, TWO_PI, exclude_max=True), st.just(float(np.nextafter(TWO_PI, 0.0)))
        ),
        # below one sample step, about a step, and rays that end at max_range
        max_range=st.one_of(st.floats(1e-4, 0.02), st.floats(0.02, 0.2), st.floats(0.2, 12.0)),
    )
    @example(which=4, cell=0, offset=(0.5, 0.5), theta=0.0, n_rays=40,
             fov=float(np.nextafter(TWO_PI, 0.0)), max_range=10.0)
    @example(which=5, cell=7, offset=(0.0, 0.0), theta=1.0, n_rays=3, fov=2.0, max_range=1e-4)
    @example(which=0, cell=3, offset=(0.2, 0.7), theta=2.0, n_rays=40, fov=1.9, max_range=0.05)
    @example(which=0, cell=0, offset=(0.0, 0.0), theta=2.2e-311, n_rays=3,
             fov=float(np.nextafter(TWO_PI, 0.0)), max_range=0.015625)
    @settings(max_examples=300, deadline=None)
    def test_matches_per_ray_loop(self, which, cell, offset, theta, n_rays, fov, max_range):
        plan = _sampling_plans()[which]
        free = np.argwhere(~plan.occupancy)
        row, col = free[cell % len(free)]
        x = plan.origin[0] + (col + offset[0]) * plan.resolution
        y = plan.origin[1] + (row + offset[1]) * plan.resolution
        assume(plan.in_bounds(x, y) and plan.is_free(x, y))
        pose = Pose(x, y, theta)
        fan = render_gt_rays(plan, pose, n_rays=n_rays, fov=fov, max_range=max_range)
        got = _texture_counts_along_rays(plan, pose, fan)
        want = _reference_texture_counts(plan, pose, fan, n_rays, fov)
        assert got.dtype == want.dtype and got.shape == want.shape == (256,)
        assert got.tobytes() == want.tobytes()


class TestRandomProjectionEmbedder:
    @pytest.fixture()
    def world(self, twin_world):
        return twin_world

    def test_unit_norm_and_deterministic(self, world):
        plan, poses = world
        emb = RandomProjectionEmbedder(dim=32, seed=7)
        crop = extract_crop(plan, poses[0], CropSpec())
        a = emb.embed_crop(crop)
        b = RandomProjectionEmbedder(dim=32, seed=7).embed_crop(crop)
        assert np.linalg.norm(a) == pytest.approx(1.0)
        assert np.array_equal(a, b)

    def test_signature_crop_texture_agreement(self, world):
        # an observation embedding must be closer to the crop at its own pose
        # than to the crop at the congruent pose in the other room
        plan, poses = world
        emb = RandomProjectionEmbedder(dim=64, seed=7)
        hits = 0
        sample = poses[:: max(1, len(poses) // 20)]
        for pose in sample:
            _, signature = simulate_observation(plan, pose)
            q = emb.embed_signature(signature)
            twin = Pose(
                plan.width_m - pose.x, plan.height_m - pose.y, pose.theta + math.pi
            )
            own = emb.embed_crop(extract_crop(plan, pose, CropSpec()))
            other = emb.embed_crop(extract_crop(plan, twin, CropSpec()))
            if float(q @ own) > float(q @ other):
                hits += 1
        assert hits / len(sample) > 0.9

    def test_crop_smaller_than_block_grid(self, textured_box_plan):
        # 4 px cannot fill 8x8 pooling blocks; empty blocks must not yield NaN
        crop = extract_crop(textured_box_plan, Pose(0.5, 0.5, 0.0), CropSpec(out_px=4))
        v = RandomProjectionEmbedder().embed_crop(crop)
        assert np.all(np.isfinite(v))
        assert np.linalg.norm(v) == pytest.approx(1.0)

    def test_dim_validation(self):
        with pytest.raises(ValidationError):
            RandomProjectionEmbedder(dim=1)

    @pytest.mark.parametrize("max_range", [0.0, -1.0, math.nan, math.inf])
    def test_invalid_max_range_rejected(self, max_range):
        # max_range 0 used to turn an all-zero signature into a NaN embedding
        with pytest.raises(ValidationError, match="max_range"):
            RandomProjectionEmbedder(max_range=max_range)

    @pytest.mark.parametrize("bad", [1e200, -0.5, 10.5])
    def test_signature_depths_beyond_range_rejected(self, world, bad):
        # 1e200 m used to overflow the projection into a zero or NaN embedding
        plan, poses = world
        _, signature = simulate_observation(plan, poses[0], max_range=10.0)
        depths = signature.depths.copy()
        depths[3] = bad
        signature = dataclasses.replace(signature, depths=depths)
        with np.errstate(all="raise"), pytest.raises(ValidationError, match="signature depths"):
            RandomProjectionEmbedder(max_range=10.0).embed_signature(signature)
