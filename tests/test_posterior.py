"""Pose-grid scoring, probability-map invariants, and candidate selection."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rayloc import scoring
from rayloc.errors import EmptyDomainError, FormatError, ValidationError
from rayloc.floorplan import Pose, cast_rays, ray_bearings, render_gt_rays
from rayloc.scoring import (
    DEPTH_QUANTUM,
    CandidateSet,
    GridScorer,
    PoseGridSpec,
    ProbMap,
    argmax_pose,
    build_dafpm,
    default_cell_stride,
    probmap_graymap,
    read_probmap_values,
    top_x,
    write_probmap,
)
from rayloc.synth import WorldSpec, generate_world


def _uniform_probmap(rows=2, cols=3, n_ori=4):
    mask = np.ones((rows, cols), dtype=bool)
    values = np.full((rows, cols, n_ori), 1.0 / (rows * cols * n_ori))
    return ProbMap(values=values, spec=PoseGridSpec(0.5, n_ori), mask=mask)


class TestDefaultCellStride:
    def test_rule(self):
        assert default_cell_stride(0.1) == 0.1
        assert default_cell_stride(0.25) == 0.25
        assert default_cell_stride(0.05) == 0.1


class TestPoseGridSpec:
    def test_validation(self):
        with pytest.raises(ValidationError):
            PoseGridSpec(cell_stride=0.0)
        with pytest.raises(ValidationError):
            PoseGridSpec(cell_stride=0.1, n_orientations=0)

    def test_shape_and_centers(self, box_plan):
        spec = PoseGridSpec(cell_stride=0.1, n_orientations=4)
        assert spec.shape_for(box_plan) == (10, 10)
        ys, xs = spec.cell_centers(box_plan)
        assert xs[0] == pytest.approx(0.05)
        assert ys[-1] == pytest.approx(0.95)
        assert np.allclose(
            spec.orientation_centers(), [0, math.pi / 2, math.pi, 3 * math.pi / 2]
        )


class TestProbMap:
    def test_invariants_enforced(self):
        spec = PoseGridSpec(0.5, 2)
        mask = np.array([[True, False]])
        good = np.zeros((1, 2, 2))
        good[0, 0, :] = 0.5
        ProbMap(values=good, spec=spec, mask=mask)  # valid

        bad_mask = good.copy()
        bad_mask[0, 1, 0] = 1e-12  # nonzero in a masked cell
        with pytest.raises(ValidationError):
            ProbMap(values=bad_mask, spec=spec, mask=mask)

        with pytest.raises(ValidationError):
            ProbMap(values=good * 2, spec=spec, mask=mask)  # sums to 2

        nan = good.copy()
        nan[0, 0, 0] = np.nan  # a NaN total must not pass the sum check
        with pytest.raises(ValidationError, match="sum to 1"):
            ProbMap(values=nan, spec=spec, mask=mask)

        neg = good.copy()
        neg[0, 0, 0] = -0.5
        neg[0, 0, 1] = 1.5
        with pytest.raises(ValidationError):
            ProbMap(values=neg, spec=spec, mask=mask)

    def test_flat_index_round_trip(self):
        pmap = _uniform_probmap(rows=3, cols=4, n_ori=5)
        n_ori = 5
        for idx in range(3 * 4 * 5):
            pose = pmap.pose_of_flat_index(idx)
            rc, o = divmod(idx, n_ori)
            r, c = divmod(rc, 4)
            assert pose.x == pytest.approx((c + 0.5) * 0.5)
            assert pose.y == pytest.approx((r + 0.5) * 0.5)
            assert pose.theta == pytest.approx(2 * math.pi * o / n_ori)


class TestCandidateSet:
    def test_requires_sorted_scores(self):
        with pytest.raises(ValidationError):
            CandidateSet(poses=(Pose(0, 0), Pose(1, 1)), scores=np.array([0.1, 0.2]))
        with pytest.raises(ValidationError):
            CandidateSet(poses=(Pose(0, 0),), scores=np.array([0.1, 0.05]))

    def test_default_linear_indices(self):
        cs = CandidateSet(poses=(Pose(0, 0), Pose(1, 1)), scores=np.array([0.2, 0.1]))
        assert cs.linear_indices.tolist() == [0, 1]
        assert len(cs) == 2


@pytest.fixture(scope="module")
def world():
    plan, poses = generate_world(
        WorldSpec(layout="random-partition", extent=(6.0, 5.0), seed=11)
    )
    return plan, poses


class TestGridScorer:
    def test_score_matches_direct_formula(self, world):
        plan, poses = world
        grid = PoseGridSpec(cell_stride=0.2, n_orientations=8)
        scorer = GridScorer(plan, grid, n_rays=16)
        gt = poses[0]
        fan = render_gt_rays(plan, gt, n_rays=16)
        pmap = scorer.score(fan.depths, sigma=0.5)

        # independent recomputation at one free grid pose
        r, c = scorer.free_rc[7]
        ys, xs = grid.cell_centers(plan)
        theta = grid.orientation_centers()[3]
        ref_fan = render_gt_rays(plan, Pose(xs[c], ys[r], theta), n_rays=16)
        q = lambda d: np.round(d / DEPTH_QUANTUM) * DEPTH_QUANTUM  # noqa: E731
        err = np.abs(q(ref_fan.depths) - q(fan.depths)).mean()
        expected_unnorm = math.exp(-err / 0.5)

        all_err = np.abs(scorer.table - q(fan.depths)).mean(axis=2)
        total = np.exp(-all_err / 0.5).sum()
        assert pmap.values[r, c, 3] == pytest.approx(expected_unnorm / total, rel=1e-12)

    def test_noiseless_query_recovers_gt(self, world):
        plan, poses = world
        grid = PoseGridSpec(cell_stride=0.1, n_orientations=36)
        scorer = GridScorer(plan, grid, n_rays=40)
        gt = poses[len(poses) // 2]
        fan = render_gt_rays(plan, gt, n_rays=40)
        best = argmax_pose(scorer.score(fan.depths))
        assert best.distance_to(gt) < 0.5

    def test_wrong_ray_count_rejected(self, world):
        plan, _ = world
        scorer = GridScorer(plan, PoseGridSpec(0.5, 2), n_rays=8)
        with pytest.raises(ValidationError):
            scorer.score(np.ones(5))
        with pytest.raises(ValidationError):
            scorer.score(np.ones(8), sigma=0.0)

    @pytest.mark.parametrize(
        "bad", [np.nan, np.inf, -np.inf, -1e-9, 10.0 + 1e-9]
    )
    def test_depths_outside_range_rejected(self, world, bad):
        plan, _ = world
        scorer = GridScorer(plan, PoseGridSpec(0.5, 2), n_rays=8, max_range=10.0)
        pred = np.full(8, 2.0)
        pred[3] = bad
        with pytest.raises(ValidationError, match="finite"):
            scorer.score(pred)

    def test_depths_at_range_accepted(self, world):
        plan, _ = world
        scorer = GridScorer(plan, PoseGridSpec(0.5, 2), n_rays=8, max_range=10.0)
        # decoded depths may sit an ulp above max_range, as RayFan allows
        pred = np.array([0.0, 10.0, np.nextafter(10.0, 11.0)] + [5.0] * 5)
        assert np.isfinite(scorer.score(pred).values).all()

    def test_threads_validated(self, world):
        plan, _ = world
        with pytest.raises(ValidationError, match="threads"):
            GridScorer(plan, PoseGridSpec(0.5, 2), n_rays=8, threads=0)

    def test_build_dafpm_uses_prebuilt_scorer(self, world):
        plan, poses = world
        grid = PoseGridSpec(cell_stride=0.3, n_orientations=4)
        scorer = GridScorer(plan, grid, n_rays=12)
        fan = render_gt_rays(plan, poses[0], n_rays=12)
        a = build_dafpm(plan, fan.depths, grid, scorer=scorer)
        b = build_dafpm(plan, fan.depths, grid, n_rays=12)
        assert np.array_equal(a.values, b.values)


def _reference_table(scorer: GridScorer) -> np.ndarray:
    """The table cast in one cast_rays call over every ray, quantized."""
    bearings = np.stack(
        [
            ray_bearings(t, scorer.n_rays, scorer.fov)
            for t in scorer.grid.orientation_centers()
        ]
    ).ravel()
    depths, _ = cast_rays(
        scorer.plan,
        np.repeat(scorer.free_x, bearings.size),
        np.repeat(scorer.free_y, bearings.size),
        np.tile(bearings, scorer.n_free),
        scorer.max_range,
    )
    depths = np.round(depths / DEPTH_QUANTUM) * DEPTH_QUANTUM
    return depths.reshape(scorer.table.shape)


class TestBlockedTableBuild:
    @settings(max_examples=30, deadline=None)
    @given(
        extent=st.tuples(st.sampled_from([4.0, 5.0, 6.0]), st.sampled_from([3.0, 4.0])),
        seed=st.integers(0, 50),
        stride=st.sampled_from([0.2, 0.3, 0.45]),
        n_ori=st.integers(1, 8),
        n_rays=st.integers(2, 12),
        max_range=st.sampled_from([1.5, 10.0]),
        threads=st.sampled_from([1, 2, 3]),
        block_cells=st.integers(1, 4),
        spare_rays=st.integers(0, 95),
    )
    def test_matches_single_cast(
        self, extent, seed, stride, n_ori, n_rays, max_range, threads,
        block_cells, spare_rays,
    ):
        plan, _ = generate_world(
            WorldSpec(layout="random-partition", extent=extent, seed=seed)
        )
        grid = PoseGridSpec(cell_stride=stride, n_orientations=n_ori)
        per_cell = n_ori * n_rays
        with pytest.MonkeyPatch.context() as mp:
            # a few cells per block, plus rays that must round down to whole cells
            mp.setattr(
                scoring, "BLOCK_RAYS", block_cells * per_cell + spare_rays % per_cell
            )
            scorer = GridScorer(
                plan, grid, n_rays=n_rays, max_range=max_range, threads=threads
            )
        assert scorer.n_free > 2 * block_cells  # several blocks, the last ragged or not
        assert scorer.table.tobytes() == _reference_table(scorer).tobytes()


class TestSelection:
    def test_argmax_and_top_x_agree(self):
        rng = np.random.default_rng(9)
        mask = np.ones((3, 3), dtype=bool)
        mask[1, 1] = False
        raw = rng.random((3, 3, 4))
        raw[~mask] = 0.0
        values = raw / raw.sum()
        pmap = ProbMap(values=values, spec=PoseGridSpec(0.5, 4), mask=mask)
        cs = top_x(pmap, 5)
        assert cs.poses[0] == argmax_pose(pmap)
        assert np.all(np.diff(cs.scores) <= 0)
        # masked cell never appears among candidates
        for p in top_x(pmap, 100).poses:
            assert not (abs(p.x - 0.75) < 1e-9 and abs(p.y - 0.75) < 1e-9)

    def test_tie_breaks_to_lowest_linear_index(self):
        mask = np.ones((1, 2), dtype=bool)
        values = np.full((1, 2, 3), 1.0 / 6.0)  # all tied
        pmap = ProbMap(values=values, spec=PoseGridSpec(0.5, 3), mask=mask)
        cs = top_x(pmap, 6)
        assert cs.linear_indices.tolist() == [0, 1, 2, 3, 4, 5]
        assert argmax_pose(pmap) == pmap.pose_of_flat_index(0)

    def test_x_larger_than_grid_saturates(self):
        pmap = _uniform_probmap(2, 2, 2)
        assert len(top_x(pmap, 10_000)) == 8

    def test_validation(self):
        pmap = _uniform_probmap()
        with pytest.raises(ValidationError):
            top_x(pmap, 0)
        empty_mask = np.zeros((2, 3), dtype=bool)
        with pytest.raises(ValidationError):
            # all-masked map cannot even be constructed (sum would be 0)
            ProbMap(
                values=np.zeros((2, 3, 4)),
                spec=PoseGridSpec(0.5, 4),
                mask=empty_mask,
            )


class TestProbMapExport:
    def test_round_trip(self, tmp_path):
        pmap = _uniform_probmap(3, 2, 4)
        path = str(tmp_path / "map.dpmf")
        write_probmap(pmap, path)
        values = read_probmap_values(path)
        assert values.shape == (3, 2, 4)
        assert np.allclose(values, pmap.values, atol=1e-7)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.dpmf"
        path.write_bytes(b"NOPE" + b"\x00" * 12)
        with pytest.raises(FormatError):
            read_probmap_values(str(path))

    def test_truncated(self, tmp_path):
        pmap = _uniform_probmap()
        path = tmp_path / "t.dpmf"
        write_probmap(pmap, str(path))
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(FormatError):
            read_probmap_values(str(path))

    def test_graymap_scaling(self):
        mask = np.ones((1, 2), dtype=bool)
        values = np.zeros((1, 2, 1))
        values[0, 0, 0] = 0.75
        values[0, 1, 0] = 0.25
        pmap = ProbMap(values=values, spec=PoseGridSpec(0.5, 1), mask=mask)
        gray = probmap_graymap(pmap)
        assert gray.dtype == np.uint8
        assert gray[0, 0] == 255
        assert gray[0, 1] == round(0.25 / 0.75 * 255)
