"""Similarity map construction, fusion, and the end-to-end pipeline."""

import numpy as np
import pytest

from rayloc.disambig import DisambigConfig, build_dpm, fuse_and_select, localize
from rayloc.errors import EmptyDomainError, ValidationError
from rayloc.floorplan import Pose, render_gt_rays
from rayloc.scoring import CandidateSet, PoseGridSpec, argmax_pose
from rayloc.synth import RandomProjectionEmbedder, WorldSpec, generate_world, simulate_observation


class TestDisambigConfig:
    def test_validation(self):
        with pytest.raises(ValidationError):
            DisambigConfig(w=-0.1)
        with pytest.raises(ValidationError):
            DisambigConfig(w=1.1)
        with pytest.raises(ValidationError):
            DisambigConfig(softmax_temperature=0.0)
        with pytest.raises(ValidationError):
            DisambigConfig(x=0)
        DisambigConfig(w=0.0)
        DisambigConfig(w=1.0)


class TestBuildDpm:
    def test_matches_manual_softmax(self):
        rng = np.random.default_rng(0)
        query = rng.normal(size=8)
        query /= np.linalg.norm(query)
        crops = rng.normal(size=(5, 8))
        crops /= np.linalg.norm(crops, axis=1, keepdims=True)
        temperature = 0.5
        dpm = build_dpm(query, crops, temperature)
        logits = crops @ query / temperature
        manual = np.exp(logits) / np.exp(logits).sum()
        assert np.allclose(dpm, manual, atol=1e-12)
        assert dpm.sum() == pytest.approx(1.0)

    def test_shift_invariance_of_softmax(self):
        # large logits must not overflow thanks to the max shift
        query = np.array([1.0, 0.0])
        crops = np.array([[1.0, 0.0], [0.0, 1.0]])
        dpm = build_dpm(query, crops, temperature=1e-4)
        assert np.all(np.isfinite(dpm))
        assert dpm.sum() == pytest.approx(1.0)
        assert dpm[0] > 0.999

    def test_validation(self):
        with pytest.raises(EmptyDomainError):
            build_dpm(np.ones(3), np.zeros((0, 3)))
        with pytest.raises(ValidationError):
            build_dpm(np.ones(3), np.ones((2, 4)))
        with pytest.raises(ValidationError):
            build_dpm(np.ones(3), np.ones((2, 3)), temperature=0.0)


def _candidates(scores, xs=None):
    scores = np.asarray(scores, dtype=float)
    poses = tuple(Pose(float(i), 0.0) for i in range(scores.size))
    idx = np.arange(scores.size) if xs is None else np.asarray(xs)
    return CandidateSet(poses=poses, scores=scores, linear_indices=idx)


class TestFuseAndSelect:
    def test_w_zero_follows_depth(self):
        cands = _candidates([0.5, 0.3, 0.2])
        dpm = np.array([0.0, 0.0, 1.0])
        pose, fused = fuse_and_select(cands, dpm, DisambigConfig(w=0.0))
        assert pose == cands.poses[0]
        assert np.allclose(fused, [0.5, 0.3, 0.2])

    def test_w_one_follows_similarity(self):
        cands = _candidates([0.5, 0.3, 0.2])
        dpm = np.array([0.0, 0.0, 1.0])
        pose, fused = fuse_and_select(cands, dpm, DisambigConfig(w=1.0))
        assert pose == cands.poses[2]
        assert np.allclose(fused, dpm)

    def test_linear_in_w(self):
        cands = _candidates([0.4, 0.4, 0.2])
        dpm = np.array([0.1, 0.6, 0.3])
        depth = cands.scores / cands.scores.sum()
        for w in (0.0, 0.25, 0.5, 0.75, 1.0):
            _, fused = fuse_and_select(cands, dpm, DisambigConfig(w=w))
            assert np.allclose(fused, (1 - w) * depth + w * dpm, atol=1e-12)
            assert fused.sum() == pytest.approx(1.0)

    def test_depth_scores_renormalized(self):
        # candidate scores are a truncated slice of the posterior; fusion must
        # renormalize them over the candidate set
        cands = _candidates([0.02, 0.01, 0.01])
        dpm = np.full(3, 1 / 3)
        _, fused = fuse_and_select(cands, dpm, DisambigConfig(w=0.0))
        assert np.allclose(fused, [0.5, 0.25, 0.25])

    def test_tie_breaks_to_lowest_linear_index(self):
        cands = _candidates([0.5, 0.5], xs=[40, 7])
        dpm = np.array([0.5, 0.5])
        pose, _ = fuse_and_select(cands, dpm, DisambigConfig(w=0.5))
        assert pose == cands.poses[1]  # linear index 7 < 40

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            fuse_and_select(_candidates([0.6, 0.4]), np.ones(3) / 3, DisambigConfig())


@pytest.fixture(scope="module")
def setup():
    plan, poses = generate_world(
        WorldSpec(layout="random-partition", extent=(6.0, 5.0), seed=4)
    )
    grid = PoseGridSpec(cell_stride=0.2, n_orientations=12)
    embedder = RandomProjectionEmbedder(dim=32, seed=7)
    gt = poses[len(poses) // 3]
    pred, signature = simulate_observation(plan, gt, n_rays=24)
    query = embedder.embed_signature(signature)
    return plan, grid, embedder, gt, pred, query


class TestLocalizePipeline:
    def test_returns_consistent_result(self, setup):
        plan, grid, embedder, gt, pred, query = setup
        result = localize(
            plan, pred, grid, query, embedder.embed_crop,
            config=DisambigConfig(x=20), n_rays=24,
        )
        assert len(result.candidates) == 20
        assert result.dpm.shape == (20,)
        assert result.fused.shape == (20,)
        assert result.pose in result.candidates.poses
        assert result.dpm.sum() == pytest.approx(1.0)

    def test_x_saturates_to_free_pose_count(self, setup):
        plan, grid, embedder, gt, pred, query = setup
        result = localize(
            plan, pred, grid, query, embedder.embed_crop,
            config=DisambigConfig(x=10_000_000), n_rays=24,
        )
        rows, cols = grid.shape_for(plan)
        assert len(result.candidates) <= rows * cols * grid.n_orientations

    def test_w_zero_equals_depth_argmax(self, setup):
        plan, grid, embedder, gt, pred, query = setup
        result = localize(
            plan, pred, grid, query, embedder.embed_crop,
            config=DisambigConfig(w=0.0, x=50), n_rays=24,
        )
        assert result.pose == argmax_pose(result.dafpm)

    def test_noiseless_query_lands_near_gt(self, setup):
        plan, _, embedder, gt, _, query = setup
        grid = PoseGridSpec(cell_stride=0.1, n_orientations=36)
        fan = render_gt_rays(plan, gt, n_rays=24)
        result = localize(
            plan, fan.depths, grid, query, embedder.embed_crop, n_rays=24,
        )
        assert result.pose.distance_to(gt) < 0.5
