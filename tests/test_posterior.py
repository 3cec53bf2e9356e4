"""Pose-grid scoring, probability-map invariants, and candidate selection."""

import functools
import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rayloc import crops, scoring
from rayloc.bench import rotated_twin_pose
from rayloc.crops import CropSpec, extract_crop
from rayloc.disambig import DisambigConfig, localize
from rayloc.errors import EmptyDomainError, FormatError, ValidationError
from rayloc.floorplan import FloorPlan, Pose, cast_rays, ray_bearings, render_gt_rays
from rayloc.scoring import (
    DEPTH_QUANTUM,
    MAX_TABLE_RANGE,
    CandidateSet,
    GridScorer,
    PoseGridSpec,
    ProbMap,
    argmax_pose,
    default_cell_stride,
    probmap_graymap,
    read_probmap_values,
    top_x,
    write_probmap,
)
from rayloc.synth import RandomProjectionEmbedder, WorldSpec, _symmetrize, generate_world


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

    @settings(max_examples=200, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)),
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([1.0, 1 + 5e-7, 1 - 5e-7, 1 + 2e-6, 1 - 2e-6, 0.5, 2.0]),
        masked_leak=st.sampled_from([0.0, 1e-300, 1e-12, -1e-12, 0.5]),
        negative=st.booleans(),
    )
    def test_accepts_exactly_the_valid_maps(self, shape, seed, scale, masked_leak, negative):
        rng = np.random.default_rng(seed)
        mask = rng.random(shape[:2]) < 0.7
        values = rng.random(shape) * (rng.random(shape) < 0.6)
        values[~mask] = 0.0
        if values.sum() > 0:
            values = values / values.sum() * scale
        if masked_leak and not mask.all():
            r, c = np.argwhere(~mask)[rng.integers((~mask).sum())]
            values[r, c, rng.integers(shape[2])] = masked_leak
        if negative:
            values.flat[rng.integers(values.size)] = -rng.random()
        valid = (
            np.all(values[~mask] == 0)
            and np.all(values >= 0)
            and abs(values.sum() - 1.0) <= 1e-6
        )
        spec = PoseGridSpec(0.5, shape[2])
        if valid:
            pmap = ProbMap(values=values, spec=spec, mask=mask)
            assert np.array_equal(pmap.values, values)
        else:
            with pytest.raises(ValidationError):
                ProbMap(values=values, spec=spec, mask=mask)

    @settings(max_examples=100, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)),
        seed=st.integers(0, 2**32 - 1),
        bad=st.sampled_from([np.nan, np.inf, -np.inf, -1e-300, -0.25]),
    )
    def test_non_finite_or_negative_entry_rejected(self, shape, seed, bad):
        rng = np.random.default_rng(seed)
        mask = rng.random(shape[:2]) < 0.7
        mask.flat[rng.integers(mask.size)] = True
        values = rng.random(shape)
        values[~mask] = 0.0
        values /= values.sum()
        values.flat[rng.integers(values.size)] = bad  # masked or not
        with pytest.raises(ValidationError):
            ProbMap(values=values, spec=PoseGridSpec(0.5, shape[2]), mask=mask)

    @settings(max_examples=50, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 12)),
        stride=st.floats(0.01, 2.0),
        origin=st.tuples(st.floats(-50, 50), st.floats(-50, 50)),
    )
    def test_flat_index_round_trips_through_the_pose(self, shape, stride, origin):
        values = np.full(shape, 1.0 / math.prod(shape))
        pmap = ProbMap(
            values=values, spec=PoseGridSpec(stride, shape[2]),
            mask=np.ones(shape[:2], dtype=bool), origin=origin,
        )
        for idx in range(values.size):
            pose = pmap.pose_of_flat_index(idx)
            r = math.floor((pose.y - origin[1]) / stride)
            c = math.floor((pose.x - origin[0]) / stride)
            o = round(pose.theta / (2 * math.pi) * shape[2])
            assert np.ravel_multi_index((r, c, o), shape) == idx


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

        all_err = np.abs(scorer.table * DEPTH_QUANTUM - q(fan.depths)).mean(axis=2)
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

    def test_localize_uses_prebuilt_scorer(self, world):
        plan, poses = world
        grid = PoseGridSpec(cell_stride=0.3, n_orientations=4)
        scorer = GridScorer(plan, grid, n_rays=12, fov=1.5, max_range=8.0)
        fan = render_gt_rays(plan, poses[0], n_rays=12, fov=1.5, max_range=8.0)
        embedder = RandomProjectionEmbedder(dim=8, seed=0, max_range=8.0)
        query = embedder.embed_crop(extract_crop(plan, poses[0], CropSpec()))
        args = (plan, fan.depths, grid, query, embedder.embed_crop)
        config = DisambigConfig(x=5)
        a = localize(*args, config=config, scorer=scorer)
        b = localize(*args, config=config, n_rays=12, fov=1.5, max_range=8.0)
        assert np.array_equal(a.dafpm.values, b.dafpm.values)
        assert a.pose == b.pose

    def test_localize_rejects_a_plan_or_grid_not_the_scorers(self, world):
        plan, poses = world
        grid = PoseGridSpec(cell_stride=0.3, n_orientations=4)
        scorer = GridScorer(plan, grid, n_rays=12)
        fan = render_gt_rays(plan, poses[0], n_rays=12)
        embedder = RandomProjectionEmbedder(dim=8, seed=0)
        query = embedder.embed_crop(extract_crop(plan, poses[0], CropSpec()))
        # a map of the same extent would crop silently wrong candidates
        same_extent, _ = generate_world(
            WorldSpec(layout="random-partition", extent=(6.0, 5.0), seed=12)
        )
        copied = FloorPlan(occupancy=plan.occupancy, resolution=plan.resolution, texture=plan.texture)
        for other_plan, other_grid in (
            (same_extent, grid), (copied, grid), (plan, PoseGridSpec(0.3, 8)),
            (plan, PoseGridSpec(0.2, 4)),
        ):
            with pytest.raises(ValidationError, match="scorer's own"):
                localize(other_plan, fan.depths, other_grid, query, embedder.embed_crop,
                         scorer=scorer)
        # an equal grid is the scorer's grid
        localize(plan, fan.depths, PoseGridSpec(0.3, 4), query, embedder.embed_crop, scorer=scorer)

    @pytest.mark.parametrize(
        "sensor",
        [dict(fov=math.nan), dict(fov=7.0), dict(fov=0.0), dict(fov=-1.0), dict(fov=2 * math.pi),
         dict(max_range=0.0), dict(max_range=-1.0), dict(max_range=math.nan)],
        ids=lambda sensor: "{}={}".format(*next(iter(sensor.items()))),
    )
    def test_invalid_ray_sensor_rejected_before_the_build(self, world, monkeypatch, sensor):
        def no_cast(*args, **kwargs):
            raise AssertionError("rays cast for an invalid sensor")

        monkeypatch.setattr(scoring, "cast_rays", no_cast)
        plan, _ = world
        with pytest.raises(ValidationError, match=next(iter(sensor))):
            GridScorer(plan, PoseGridSpec(0.5, 2), n_rays=8, **sensor)


def _reference_table(scorer: GridScorer) -> np.ndarray:
    """The table cast in one cast_rays call over every ray, in int32 units of
    DEPTH_QUANTUM."""
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
    return np.rint(depths / DEPTH_QUANTUM).astype(np.int32).reshape(scorer.table.shape)


class TestBlockedTableBuild:
    @settings(max_examples=30)
    @given(
        extent=st.tuples(st.sampled_from([4.0, 5.0, 6.0]), st.sampled_from([3.0, 4.0])),
        seed=st.integers(0, 50),
        stride=st.sampled_from([0.2, 0.3, 0.45]),
        n_ori=st.integers(2, 8),
        n_rays=st.integers(2, 12),
        max_range=st.sampled_from([1.5, 10.0]),
        threads=st.sampled_from([1, 2, 3]),
        block_bearings=st.integers(1, 3),
        spare_rays=st.integers(0, 95),
    )
    def test_matches_single_cast(
        self, extent, seed, stride, n_ori, n_rays, max_range, threads,
        block_bearings, spare_rays,
    ):
        plan, _ = generate_world(
            WorldSpec(layout="random-partition", extent=extent, seed=seed)
        )
        grid = PoseGridSpec(cell_stride=stride, n_orientations=n_ori)
        n_free = GridScorer(plan, grid, n_rays=n_rays, max_range=0.1).n_free
        with pytest.MonkeyPatch.context() as mp:
            # a few bearings per block, plus rays that must round down to whole
            # bearings (every free cell casts each one)
            mp.setattr(
                scoring, "BLOCK_RAYS", block_bearings * n_free + spare_rays % n_free
            )
            scorer = GridScorer(
                plan, grid, n_rays=n_rays, max_range=max_range, threads=threads
            )
        assert n_ori * n_rays > block_bearings  # several blocks, the last ragged or not
        assert scorer.table.tobytes() == _reference_table(scorer).tobytes()

    @pytest.mark.parametrize(
        "spec,stride,digest",
        [
            (
                WorldSpec(seed=1), 0.1,
                "807999a60405197f5c1673fe87b2f641ca3aba568f79a98f8d00c033ce0649d0",
            ),
            (
                WorldSpec(layout="corridor-of-4", extent=(10.0, 4.0), seed=1), 0.1,
                "1ea06001f7dcf15fb9f50f28266a447a1cbbf70e242345054afb7597bd8a8414",
            ),
            (
                # a stride whose cell centres share no traversal key
                WorldSpec(seed=1), 0.137,
                "a4655944428276557e3005fc1332916daa5437b63fd5d0ac0059dfa176eff7cd",
            ),
        ],
    )
    def test_pinned_tables(self, spec, stride, digest):
        """The perfbench-sized tables, byte for byte as the per-ray traversal
        built them, at any thread count."""
        plan, _ = generate_world(spec)
        for threads in (1, 2, 3):
            scorer = GridScorer(
                plan, PoseGridSpec(stride, 36), n_rays=40, fov=math.radians(108),
                max_range=10.0, threads=threads,
            )
            assert hashlib.sha256(scorer.table.tobytes()).hexdigest() == digest

    def test_block_working_set(self, monkeypatch):
        """A full twin-rooms block peaks within the budget that BLOCK_RAYS is
        sized by, 60 traced bytes per ray and 5 MB: the cast with its depth
        and hit arrays, which the block then quantises and writes in place."""
        plan, _ = generate_world(WorldSpec(seed=1))
        plan._walk_grid  # built once per plan, outside any block
        blocks = []
        cast = scoring.cast_rays

        def traced_cast(*args):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            depths, hits = cast(*args)
            blocks.append((tracemalloc.get_traced_memory()[1] - base, depths.size))
            return depths, hits

        monkeypatch.setattr(scoring, "cast_rays", traced_cast)
        tracemalloc.start()
        try:
            scorer = GridScorer(
                plan, PoseGridSpec(0.1, 4), n_rays=40, fov=math.radians(108),
                max_range=10.0, threads=1,
            )
        finally:
            tracemalloc.stop()
        full = scoring.BLOCK_RAYS // scorer.n_free * scorer.n_free
        peaks = [peak for peak, rays in blocks if rays == full]
        assert len(peaks) > 1 and blocks[0][1] == full
        assert max(peaks) <= min(60 * full, 5_000_000)


def _float_posterior(scorer: GridScorer, pred: np.ndarray, sigma: float) -> np.ndarray:
    """Reference posterior on the float64 table in metres:
    exp(-mean|pred - rendered| / sigma), normalized."""
    pred = np.round(np.asarray(pred, dtype=float) / DEPTH_QUANTUM) * DEPTH_QUANTUM
    err = np.abs(scorer.table * DEPTH_QUANTUM - pred).mean(axis=2)
    scores = np.exp(-err / sigma)
    values = np.zeros((scorer.rows, scorer.cols, scorer.grid.n_orientations))
    values[scorer.free_rc[:, 0], scorer.free_rc[:, 1], :] = scores / scores.sum()
    return values


def _stable_top_x(
    values: np.ndarray, mask: np.ndarray, x: int, rtol: float = 0.0
) -> np.ndarray:
    """Reference selection: a full stable descending sort of the free poses.
    Scores within `rtol` of their sorted predecessor count as tied and are
    ordered by linear index."""
    flat = values.reshape(-1)
    free_flat = np.flatnonzero(np.repeat(mask.reshape(-1), values.shape[2]))
    scores = flat[free_flat]
    order = np.argsort(-scores, kind="stable")
    ranked = scores[order]
    group = np.cumsum(np.r_[0, ranked[1:] < ranked[:-1] * (1.0 - rtol)])
    return free_flat[order[np.lexsort((order, group))][:x]]


def _assert_grid_candidates(pmap: ProbMap, candidates: CandidateSet) -> None:
    """Each candidate's pose is pose_of_flat_index of its linear index and its
    score is that entry of the map, bit for bit, as Python floats."""
    for pose, score, index in zip(candidates.poses, candidates.scores, candidates.linear_indices):
        expected = pmap.pose_of_flat_index(index)
        assert all(type(v) is float for v in (pose.x, pose.y, pose.theta))
        assert np.array([pose.x, pose.y, pose.theta]).tobytes() == np.array(
            [expected.x, expected.y, expected.theta]
        ).tobytes()
        assert score.tobytes() == pmap.values.flat[index].tobytes()


@functools.lru_cache(maxsize=None)
def _twin_scorer() -> GridScorer:
    plan, _ = generate_world(WorldSpec(extent=(6.0, 4.0), seed=0))
    return GridScorer(plan, PoseGridSpec(cell_stride=0.2, n_orientations=36), n_rays=8)


class TestIntegerScoring:
    @settings(max_examples=30)
    @given(
        extent=st.tuples(st.sampled_from([4.0, 5.0, 6.0]), st.sampled_from([3.0, 4.0])),
        seed=st.integers(0, 50),
        stride=st.sampled_from([0.2, 0.3, 0.45]),
        n_ori=st.integers(1, 8),
        n_rays=st.integers(2, 12),
        max_range=st.sampled_from([1.5, 10.0]),
        sigma=st.sampled_from([0.05, 0.5, 2.0]),
        x=st.integers(1, 300),
        pred_seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_float_oracle(
        self, extent, seed, stride, n_ori, n_rays, max_range, sigma, x, pred_seed
    ):
        plan, _ = generate_world(
            WorldSpec(layout="random-partition", extent=extent, seed=seed)
        )
        grid = PoseGridSpec(cell_stride=stride, n_orientations=n_ori)
        scorer = GridScorer(plan, grid, n_rays=n_rays, max_range=max_range)
        pred = np.random.default_rng(pred_seed).uniform(0.0, max_range, n_rays)
        pmap = scorer.score(pred, sigma)
        expected = _float_posterior(scorer, pred, sigma)
        np.testing.assert_allclose(pmap.values, expected, rtol=1e-12, atol=0)
        # Poses with equal integer error sums tie exactly and go by index.
        # The float means of such sums can differ in the last bits (a mirrored
        # pose sums the same errors in another order), so the reference treats
        # scores within rounding as tied; distinct sums differ by >= 4e-8
        # relative here.
        candidates = top_x(pmap, x)
        expected_top = _stable_top_x(expected, scorer.mask, x, rtol=1e-12)
        assert candidates.linear_indices.tolist() == expected_top.tolist()
        _assert_grid_candidates(pmap, candidates)

    # the float oracle above does not shift by the smallest sum, so where scores
    # underflow it disagrees with the scorer (or divides 0 by 0); here the map
    # is its own oracle
    @settings(max_examples=25)
    @given(
        sigma=st.floats(1e-5, 1e-3),
        pred_seed=st.integers(0, 2**32 - 1),
        past_cut=st.integers(1, 40),
    )
    @example(sigma=1e-4, pred_seed=0, past_cut=25)
    def test_scores_underflowed_to_zero_keep_the_tie_rule(self, sigma, pred_seed, past_cut):
        scorer = _twin_scorer()
        pred = np.random.default_rng(pred_seed).uniform(0.0, scorer.max_range, scorer.n_rays)
        pmap = scorer.score(pred, sigma)
        positive = int(np.count_nonzero(pmap.values))
        assume(positive + past_cut <= scorer.n_free * scorer.grid.n_orientations)
        x = positive + past_cut  # the cut falls among free poses scored exactly 0
        candidates = top_x(pmap, x)
        assert candidates.scores[positive - 1] > 0 and not candidates.scores[positive:].any()
        expected = _stable_top_x(pmap.values, scorer.mask, x)
        assert candidates.linear_indices.tolist() == expected.tolist()
        _assert_grid_candidates(pmap, candidates)

    def test_small_sigma_keeps_twin_tie_and_argmax(self):
        plan, _ = generate_world(WorldSpec(extent=(6.0, 4.0), seed=0))  # twin rooms
        grid = PoseGridSpec(cell_stride=0.1, n_orientations=8)
        scorer = GridScorer(plan, grid, n_rays=16)
        r, c = scorer.free_rc[scorer.n_free // 3]
        o = 3
        ys, xs = grid.cell_centers(plan)
        fan = render_gt_rays(plan, Pose(xs[c], ys[r], grid.orientation_centers()[o]), n_rays=16)
        noise = np.random.default_rng(5).normal(0.0, 0.01, 16)
        pred = np.clip(fan.depths + noise, 0.0, scorer.max_range)
        values = scorer.score(pred, sigma=1e-4).values  # exp(-err / sigma) underflows

        assert np.isfinite(values).all() and abs(values.sum() - 1.0) <= 1e-12
        twin = (scorer.rows - 1 - r, scorer.cols - 1 - c, (o + 4) % 8)
        assert values[r, c, o] > 0
        assert values[r, c, o].tobytes() == values[twin].tobytes()
        pred_units = np.rint(pred / DEPTH_QUANTUM).astype(np.int64)
        sums = np.abs(scorer.table.astype(np.int64) - pred_units).sum(axis=2)
        cells = scorer.free_rc[:, 0] * scorer.cols + scorer.free_rc[:, 1]
        linear = cells[:, None] * 8 + np.arange(8)  # increasing, like the sums' order
        assert int(np.argmax(values)) == linear.ravel()[np.argmin(sums)]

    def test_max_range_fits_int32(self, box_plan):
        grid = PoseGridSpec(0.5, 2)
        with pytest.raises(ValidationError, match="int32"):
            GridScorer(box_plan, grid, n_rays=4, max_range=np.nextafter(MAX_TABLE_RANGE, 3e3))
        scorer = GridScorer(box_plan, grid, n_rays=4, max_range=MAX_TABLE_RANGE)
        assert scorer.table.dtype == np.int32
        pmap = scorer.score(np.full(4, MAX_TABLE_RANGE))  # the largest depth still fits
        assert np.isfinite(pmap.values).all()


class TestTwinTies:
    @settings(max_examples=12)
    @given(
        extent=st.sampled_from([(4.0, 3.0), (5.0, 4.0), (3.3, 6.1)]),
        seed=st.integers(0, 2**16),
        pick=st.integers(0, 2**16),
        noise_seed=st.integers(0, 2**32 - 1),
    )
    def test_symmetrized_random_partition_twins_tie(self, extent, seed, pick, noise_seed):
        # every grid pose and its rotated twin score bit-for-bit alike
        world, _ = generate_world(WorldSpec(layout="random-partition", extent=extent, seed=seed))
        plan = FloorPlan(occupancy=_symmetrize(world.occupancy), resolution=world.resolution)
        grid = PoseGridSpec(cell_stride=plan.resolution, n_orientations=8)
        scorer = GridScorer(plan, grid, n_rays=16)
        r, c = scorer.free_rc[pick % scorer.n_free]
        ys, xs = grid.cell_centers(plan)
        fan = render_gt_rays(plan, Pose(xs[c], ys[r], grid.orientation_centers()[pick % 8]), n_rays=16)
        noise = np.random.default_rng(noise_seed).normal(0.0, 0.05, 16)
        pmap = scorer.score(np.clip(fan.depths + noise, 0.0, scorer.max_range))

        values = pmap.values
        step = 2 * math.pi / grid.n_orientations
        for flat in np.flatnonzero(np.repeat(scorer.mask.ravel(), grid.n_orientations)):
            twin = rotated_twin_pose(plan, pmap.pose_of_flat_index(flat))
            index = (
                round(twin.y / grid.cell_stride - 0.5),
                round(twin.x / grid.cell_stride - 0.5),
                round(twin.theta / step) % grid.n_orientations,
            )
            assert values.flat[flat].tobytes() == values[index].tobytes()


REFERENCE_BLOCK_CELLS = 64  # free cells per block of the reference error sum


def _blocked_error_sums(table: np.ndarray, pred_units: np.ndarray) -> np.ndarray:
    """Reference error sum on the (n_free, n_ori, n_rays) table: blocks of
    cells, |table - pred| summed over the short ray axis in int64."""
    err = np.empty(table.shape[:2], dtype=np.int64)
    diff = np.empty((REFERENCE_BLOCK_CELLS, *table.shape[1:]), dtype=np.int32)
    for lo in range(0, table.shape[0], REFERENCE_BLOCK_CELLS):
        block = table[lo : lo + REFERENCE_BLOCK_CELLS]
        d = np.subtract(block, pred_units, out=diff[: len(block)])
        np.abs(d, out=d)
        d.sum(axis=2, dtype=np.int64, out=err[lo : lo + len(block)])
    return err


def _reference_values(scorer: GridScorer, pred: np.ndarray, sigma: float) -> np.ndarray:
    """The posterior from the reference error sum, in score's float order."""
    pred_units = np.rint(np.asarray(pred, dtype=float) / DEPTH_QUANTUM).astype(np.int32)
    err = _blocked_error_sums(scorer.table, pred_units)
    scores = np.exp((err.min() - err) * (DEPTH_QUANTUM / (scorer.n_rays * sigma)))
    values = np.zeros((scorer.rows, scorer.cols, scorer.grid.n_orientations))
    values[scorer.free_rc[:, 0], scorer.free_rc[:, 1], :] = scores / scores.sum()
    return values


_INT32_MAX = 2**31 - 1
# (n_rays, max_range, accumulator): sensors at both sides of the int32 bound
# n_rays * (max_range in quanta + 1) <= 2**31 - 1
RAY_SENSORS = [
    (40, 10.0, np.int32),
    (2, (_INT32_MAX // 2 - 1) * DEPTH_QUANTUM, np.int32),  # sums at the int32 limit
    (3, (_INT32_MAX // 3 - 1) * DEPTH_QUANTUM, np.int32),
    (3, (_INT32_MAX // 3) * DEPTH_QUANTUM, np.int64),  # one quantum too many
    (2, MAX_TABLE_RANGE, np.int64),  # per-ray errors at the int32 limit
    (4, MAX_TABLE_RANGE, np.int64),
]


@functools.lru_cache(maxsize=None)
def _sensor_scorer(n_rays: int, max_range: float) -> GridScorer:
    """A 6 x 6-cell box scorer with 3 orientations, built once per sensor;
    each example overwrites its whole table."""
    occ = np.ones((8, 8), dtype=bool)
    occ[1:-1, 1:-1] = False
    plan = FloorPlan(occupancy=occ, resolution=0.1)
    return GridScorer(plan, PoseGridSpec(0.1, 3), n_rays=n_rays, max_range=max_range, threads=1)


class TestRayMajorErrorSum:
    @settings(max_examples=80)
    @given(
        sensor=st.sampled_from(RAY_SENSORS),
        seed=st.integers(0, 2**32 - 1),
        extreme=st.booleans(),
        sigma=st.sampled_from([1e-4, 0.5, 1e3]),
    )
    def test_matches_blocked_reference(self, sensor, seed, extreme, sigma):
        n_rays, max_range, accumulator = sensor
        scorer = _sensor_scorer(n_rays, max_range)
        top = int(np.rint(max_range / DEPTH_QUANTUM))
        rng = np.random.default_rng(seed)
        # a random table written into the scorer's storage, seen through `table`
        scorer.table[...] = rng.integers(0, top, size=scorer.table.shape, endpoint=True)
        pred_units = rng.integers(0, top, size=n_rays, endpoint=True)
        if extreme:  # every ray of some poses is off by the whole range
            pred_units[:] = top
            scorer.table[rng.random(scorer.table.shape[:2]) < 0.5] = 0
        pred = pred_units * DEPTH_QUANTUM
        assert np.array_equal(np.rint(pred / DEPTH_QUANTUM), pred_units)

        sums = scorer._error_sums(pred_units.astype(np.int32))
        assert sums.dtype == accumulator
        reference = _blocked_error_sums(scorer.table, pred_units.astype(np.int32))
        assert np.array_equal(sums, reference)
        if extreme:
            assert reference.max() == n_rays * top
        values = scorer.score(pred, sigma).values
        assert values.tobytes() == _reference_values(scorer, pred, sigma).tobytes()

    def test_table_is_a_view_of_the_ray_major_storage(self, box_plan):
        scorer = GridScorer(box_plan, PoseGridSpec(0.1, 4), n_rays=6)
        storage = scorer._rays
        assert storage.shape == (6, scorer.n_free, 4)
        assert storage.dtype == np.int32 and storage.flags.c_contiguous
        # one copy of the table: `table` is a view with the old shape and size
        assert scorer.table.base is storage
        assert np.shares_memory(scorer.table, storage)
        assert scorer.table.shape == (scorer.n_free, 4, 6)
        assert scorer.table.dtype == np.int32
        assert scorer.table.nbytes == storage.nbytes == scorer.n_free * 4 * 6 * 4
        # the crop stage's caches hand out arrays that no caller can corrupt
        for cached in (*crops._sample_offsets(5, 0.1), *crops._pool_blocks(5)):
            assert not cached.flags.writeable
            with pytest.raises(ValueError):
                cached[...] = 0


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

    @settings(max_examples=50)
    @given(
        shape=st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 5)),
        levels=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_stable_sort_with_ties(self, shape, levels, seed):
        rng = np.random.default_rng(seed)
        mask = rng.random(shape[:2]) < 0.8
        mask.flat[rng.integers(mask.size)] = True
        raw = rng.integers(0, levels + 1, size=shape).astype(float)  # many ties, some 0
        raw[~mask] = 0.0
        if not raw.any():
            raw[mask] = 1.0
        pmap = ProbMap(values=raw / raw.sum(), spec=PoseGridSpec(0.5, shape[2]), mask=mask)
        for x in range(1, raw.size + 2):
            expected = _stable_top_x(pmap.values, mask, x)
            candidates = top_x(pmap, x)
            assert candidates.linear_indices.tolist() == expected.tolist()
            _assert_grid_candidates(pmap, candidates)

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
