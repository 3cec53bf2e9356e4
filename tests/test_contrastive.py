"""Contrastive loss, analytic gradients, sample mining, and embedder training."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_array

from rayloc.contrastive import (
    DENOM_NEGATIVES_ONLY,
    DENOM_WITH_POSITIVE,
    ContrastiveBatch,
    LinearEmbedder,
    MiningSpec,
    PerturbSpec,
    _nce_grad_raw,
    _nce_loss_raw,
    TrainingSample,
    _random_free_pose,
    _slot_backprop,
    _slot_rows,
    _train_batched,
    add_peer_negatives,
    build_training_samples,
    crop_features,
    mine_samples,
    point_info_nce,
    point_info_nce_grad,
    read_embeddings,
    read_sample_manifest,
    train_linear_embedder,
    write_embeddings,
    write_sample_manifest,
)
from rayloc.crops import CropSpec, extract_crop
from rayloc.errors import (
    ConfigurationError,
    FormatError,
    MiningExhaustedError,
    TrainingFailureError,
    ValidationError,
)
from rayloc.floorplan import FloorPlan, Pose
from rayloc.synth import WorldSpec, generate_world


def _unit(rng, n, dim):
    v = rng.normal(size=(n, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _reference_nce_loss(
    anchors, positives, pos_negs, ori_negs, pairs, tau, denominator
) -> float:
    """Per-pair loop with unshifted exponentials, the oracle for the shared
    kernel; it overflows for tau much below 0.05."""
    total = 0.0
    exp_p = np.exp(anchors @ pos_negs.T / tau) if pos_negs.size else np.zeros((anchors.shape[0], 0))
    exp_a = np.exp(anchors @ ori_negs.T / tau) if ori_negs.size else np.zeros((anchors.shape[0], 0))
    z = exp_p.sum(axis=1) + exp_a.sum(axis=1)
    for j, l in pairs:
        s = float(anchors[j] @ positives[l])
        denom = z[j]
        if denominator == DENOM_WITH_POSITIVE:
            denom = denom + math.exp(s / tau)
        total += -(s / tau) + math.log(denom)
    return total


def _reference_nce_grad(
    anchors, positives, pos_negs, ori_negs, pairs, tau, denominator
) -> dict:
    g_anchor = np.zeros_like(anchors)
    g_pos = np.zeros_like(positives)
    g_pneg = np.zeros_like(pos_negs)
    g_aneg = np.zeros_like(ori_negs)

    exp_p = np.exp(anchors @ pos_negs.T / tau) if pos_negs.size else np.zeros((anchors.shape[0], 0))
    exp_a = np.exp(anchors @ ori_negs.T / tau) if ori_negs.size else np.zeros((anchors.shape[0], 0))
    z = exp_p.sum(axis=1) + exp_a.sum(axis=1)

    for j, l in pairs:
        s = float(anchors[j] @ positives[l])
        if denominator == DENOM_WITH_POSITIVE:
            e_pos = math.exp(s / tau)
            denom = z[j] + e_pos
            ds = (-1.0 + e_pos / denom) / tau
        else:
            denom = z[j]
            ds = -1.0 / tau
        g_anchor[j] += ds * positives[l]
        g_pos[l] += ds * anchors[j]
        if pos_negs.size:
            w = exp_p[j] / (tau * denom)  # (Mp,)
            g_anchor[j] += w @ pos_negs
            g_pneg += np.outer(w, anchors[j])
        if ori_negs.size:
            w = exp_a[j] / (tau * denom)
            g_anchor[j] += w @ ori_negs
            g_aneg += np.outer(w, anchors[j])
    return {
        "anchors": g_anchor,
        "positives": g_pos,
        "position_negatives": g_pneg,
        "orientation_negatives": g_aneg,
    }


class TestContrastiveBatch:
    def test_unit_norm_enforced(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValidationError):
            ContrastiveBatch(
                anchors=np.array([[2.0, 0.0]]),
                positives=_unit(rng, 1, 2),
                position_negatives=_unit(rng, 1, 2),
                orientation_negatives=np.zeros((0, 2)),
            )

    def test_needs_a_negative(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValidationError):
            ContrastiveBatch(
                anchors=_unit(rng, 1, 4),
                positives=_unit(rng, 1, 4),
                position_negatives=np.zeros((0, 4)),
                orientation_negatives=np.zeros((0, 4)),
            )

    def test_default_pairing_and_tau(self):
        rng = np.random.default_rng(0)
        batch = ContrastiveBatch(
            anchors=_unit(rng, 3, 4),
            positives=_unit(rng, 3, 4),
            position_negatives=_unit(rng, 2, 4),
            orientation_negatives=_unit(rng, 1, 4),
        )
        assert batch.pairs == ((0, 0), (1, 1), (2, 2))
        assert batch.tau == pytest.approx(0.07)
        with pytest.raises(ValidationError):
            ContrastiveBatch(
                anchors=_unit(rng, 1, 4),
                positives=_unit(rng, 1, 4),
                position_negatives=_unit(rng, 1, 4),
                orientation_negatives=np.zeros((0, 4)),
                tau=0.0,
            )

    @pytest.mark.parametrize("pairs", [((5, 0),), ((-1, 0),), ((0, 0), (0, 2))])
    def test_pair_indices_in_range(self, pairs):
        rng = np.random.default_rng(0)
        with pytest.raises(ValidationError, match="out of range"):
            ContrastiveBatch(
                anchors=_unit(rng, 2, 4),
                positives=_unit(rng, 2, 4),
                position_negatives=_unit(rng, 1, 4),
                orientation_negatives=np.zeros((0, 4)),
                pairs=pairs,
            )

    def test_empty_family_keeps_embedding_width(self):
        rng = np.random.default_rng(0)
        arrays = dict(
            anchors=_unit(rng, 2, 4),
            positives=_unit(rng, 2, 4),
            position_negatives=_unit(rng, 3, 4),
        )
        batch = ContrastiveBatch(**arrays, orientation_negatives=[])
        assert batch.orientation_negatives.shape == (0, 4)
        grads = point_info_nce_grad(batch)
        assert grads["orientation_negatives"].shape == (0, 4)
        ref = ContrastiveBatch(**arrays, orientation_negatives=np.zeros((0, 4)))
        assert point_info_nce(batch) == point_info_nce(ref)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValidationError):
            ContrastiveBatch(
                anchors=_unit(rng, 1, 4),
                positives=_unit(rng, 1, 3),
                position_negatives=_unit(rng, 1, 4),
                orientation_negatives=np.zeros((0, 4)),
            )


class TestLossValues:
    @pytest.mark.parametrize("tau", [0.1, 1e-3, 1e-4])
    def test_hand_computed_single_pair(self, tau):
        # one anchor, one positive, one position negative in 2D
        anchor = np.array([[1.0, 0.0]])
        positive = np.array([[math.cos(0.2), math.sin(0.2)]])
        negative = np.array([[math.cos(1.3), math.sin(1.3)]])
        batch = ContrastiveBatch(
            anchors=anchor,
            positives=positive,
            position_negatives=negative,
            orientation_negatives=np.zeros((0, 2)),
            tau=tau,
        )
        s_pos = math.cos(0.2)
        s_neg = math.cos(1.3)
        expect_neg_only = (s_neg - s_pos) / tau
        expect_with_pos = -s_pos / tau + np.logaddexp(s_neg / tau, s_pos / tau)
        assert point_info_nce(batch) == pytest.approx(expect_neg_only, rel=1e-12)
        assert point_info_nce(batch, DENOM_WITH_POSITIVE) == pytest.approx(
            expect_with_pos, rel=1e-12
        )
        for denominator in (DENOM_NEGATIVES_ONLY, DENOM_WITH_POSITIVE):
            grads = point_info_nce_grad(batch, denominator)
            assert all(np.all(np.isfinite(g)) for g in grads.values())
        # negatives-only: the positive's logit is outside the denominator
        assert np.array_equal(
            point_info_nce_grad(batch)["positives"], -anchor / tau
        )

    def test_with_positive_mode_is_larger_and_positive(self):
        rng = np.random.default_rng(4)
        batch = ContrastiveBatch(
            anchors=_unit(rng, 2, 8),
            positives=_unit(rng, 2, 8),
            position_negatives=_unit(rng, 3, 8),
            orientation_negatives=_unit(rng, 1, 8),
        )
        with_pos = point_info_nce(batch, DENOM_WITH_POSITIVE)
        assert with_pos > 0  # -log softmax probability
        # adding the positive term can only grow the denominator
        assert with_pos > point_info_nce(batch, DENOM_NEGATIVES_ONLY)

    def test_unknown_mode(self):
        rng = np.random.default_rng(4)
        batch = ContrastiveBatch(
            anchors=_unit(rng, 1, 4),
            positives=_unit(rng, 1, 4),
            position_negatives=_unit(rng, 1, 4),
            orientation_negatives=np.zeros((0, 4)),
        )
        with pytest.raises(ValidationError):
            point_info_nce(batch, "softmax")
        with pytest.raises(ValidationError):
            point_info_nce_grad(batch, "softmax")


class TestGradients:
    @pytest.mark.parametrize("denominator", [DENOM_NEGATIVES_ONLY, DENOM_WITH_POSITIVE])
    def test_matches_finite_differences(self, denominator):
        rng = np.random.default_rng(17)
        h = 1e-5
        arrays = {
            "anchors": _unit(rng, 2, 6),
            "positives": _unit(rng, 3, 6),
            "position_negatives": _unit(rng, 2, 6),
            "orientation_negatives": _unit(rng, 1, 6),
        }
        pairs = [(0, 0), (0, 2), (1, 1)]
        tau = 0.07

        def loss(a):
            return _nce_loss_raw(
                a["anchors"],
                a["positives"],
                a["position_negatives"],
                a["orientation_negatives"],
                pairs,
                tau,
                denominator,
            )

        grads = _nce_grad_raw(
            arrays["anchors"],
            arrays["positives"],
            arrays["position_negatives"],
            arrays["orientation_negatives"],
            pairs,
            tau,
            denominator,
        )
        for name in arrays:
            fd = np.zeros_like(arrays[name])
            for idx in np.ndindex(arrays[name].shape):
                plus = {k: v.copy() for k, v in arrays.items()}
                minus = {k: v.copy() for k, v in arrays.items()}
                plus[name][idx] += h
                minus[name][idx] -= h
                fd[idx] = (loss(plus) - loss(minus)) / (2 * h)
            scale = max(np.abs(fd).max(), 1e-8)
            assert np.abs(grads[name] - fd).max() / scale < 1e-4

    def test_batch_api_matches_raw(self):
        rng = np.random.default_rng(8)
        batch = ContrastiveBatch(
            anchors=_unit(rng, 2, 5),
            positives=_unit(rng, 2, 5),
            position_negatives=_unit(rng, 2, 5),
            orientation_negatives=_unit(rng, 2, 5),
        )
        grads = point_info_nce_grad(batch)
        raw = _nce_grad_raw(
            batch.anchors,
            batch.positives,
            batch.position_negatives,
            batch.orientation_negatives,
            batch.pairs,
            batch.tau,
            DENOM_NEGATIVES_ONLY,
        )
        for name in grads:
            assert np.array_equal(grads[name], raw[name])


def _relative_gap(got, ref, tau) -> float:
    """Largest difference, relative to the reference's magnitude but never to
    less than the 1/tau scale of a logit (entries can cancel to near 0)."""
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    if not ref.size:
        return 0.0
    return float(np.abs(got - ref).max() / max(np.abs(ref).max(), 1.0 / tau))


class TestKernelMatchesReference:
    @settings(max_examples=300)
    @given(
        dim=st.integers(2, 32),
        tau=st.sampled_from([0.05, 0.07, 0.5, 1.0]),
        n_anchors=st.integers(1, 4),
        n_positives=st.integers(1, 4),
        n_families=st.sampled_from([(0, 3), (4, 0), (1, 1), (3, 2)]),
        raw_pairs=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=8),
        denominator=st.sampled_from([DENOM_NEGATIVES_ONLY, DENOM_WITH_POSITIVE]),
        seed=st.integers(0, 2**32 - 1),
    )
    # repeated anchor and positive indices
    @example(
        dim=3, tau=0.07, n_anchors=2, n_positives=2, n_families=(2, 0),
        raw_pairs=[(0, 1), (0, 1), (1, 1), (0, 0)],
        denominator=DENOM_WITH_POSITIVE, seed=0,
    )
    # an empty batch: a loss of 0.0 and zero gradients
    @example(
        dim=4, tau=0.07, n_anchors=2, n_positives=3, n_families=(1, 2),
        raw_pairs=[], denominator=DENOM_NEGATIVES_ONLY, seed=0,
    )
    def test_loss_and_grad(
        self, dim, tau, n_anchors, n_positives, n_families, raw_pairs, denominator, seed
    ):
        rng = np.random.default_rng(seed)
        batch = ContrastiveBatch(
            anchors=_unit(rng, n_anchors, dim),
            positives=_unit(rng, n_positives, dim),
            position_negatives=_unit(rng, n_families[0], dim),
            orientation_negatives=_unit(rng, n_families[1], dim),
            pairs=[(j % n_anchors, l % n_positives) for j, l in raw_pairs],
            tau=tau,
        )
        args = (
            batch.anchors,
            batch.positives,
            batch.position_negatives,
            batch.orientation_negatives,
            batch.pairs,
            tau,
            denominator,
        )
        assert _relative_gap(
            point_info_nce(batch, denominator), _reference_nce_loss(*args), tau
        ) <= 1e-12
        grads = point_info_nce_grad(batch, denominator)
        ref = _reference_nce_grad(*args)
        assert grads.keys() == ref.keys()
        for name in ref:
            assert grads[name].shape == ref[name].shape
            assert _relative_gap(grads[name], ref[name], tau) <= 1e-12
        if not batch.pairs:
            assert point_info_nce(batch, denominator) == 0.0
            assert not any(g.any() for g in grads.values())


@pytest.fixture(scope="module")
def mining_world():
    plan_a, poses_a = generate_world(WorldSpec(seed=21))
    plan_b, poses_b = generate_world(WorldSpec(seed=22))
    dataset = []
    for j in range(8):
        dataset.append((plan_a, poses_a[j * 37 % len(poses_a)]))
        dataset.append((plan_b, poses_b[j * 53 % len(poses_b)]))
    return dataset


class TestMining:
    CROP = CropSpec(side_m=3.0, out_px=15)

    def test_deterministic_per_anchor(self, mining_world):
        spec = MiningSpec(n_inner=2, n_cross=2, n_ori=1, seed=5)
        a = mine_samples(mining_world, 3, PerturbSpec(), spec, self.CROP)
        b = mine_samples(mining_world, 3, PerturbSpec(), spec, self.CROP)
        assert np.array_equal(a.positive.pixels, b.positive.pixels)
        for ca, cb in zip(a.position_negatives, b.position_negatives):
            assert np.array_equal(ca.pixels, cb.pixels)
        assert a.cross_plan_indices == b.cross_plan_indices

    def test_random_free_pose_reads_cached_free_cells(self, mining_world):
        plan = mining_world[0][0]
        cells = plan._free_cells
        assert cells is plan._free_cells and not cells.flags.writeable
        assert np.array_equal(cells, np.argwhere(~plan.occupancy))
        rng, ref_rng = np.random.default_rng(4), np.random.default_rng(4)
        for _ in range(20):
            pose = _random_free_pose(rng, plan)
            # the reference rescans the grid on every draw
            free_rc = np.argwhere(~plan.occupancy)
            r, c = free_rc[ref_rng.integers(free_rc.shape[0])]
            x, y = plan.cell_center(int(r), int(c))
            theta = ref_rng.uniform(0.0, 2 * math.pi)
            assert (pose.x, pose.y, pose.theta) == (x, y, theta)

    def test_positive_within_perturbation_bounds(self, mining_world):
        perturb = PerturbSpec(pos_b=0.4, ang_b=0.2)
        spec = MiningSpec(n_inner=1, n_cross=1, n_ori=1, seed=5)
        for j in range(len(mining_world)):
            sample = mine_samples(mining_world, j, perturb, spec, self.CROP)
            gt = sample.anchor_pose
            pos = sample.positive.source_pose
            assert gt.distance_to(pos) <= 0.4 + 1e-9
            d_theta = abs(pos.theta - gt.theta) % (2 * math.pi)
            assert min(d_theta, 2 * math.pi - d_theta) <= 0.2 + 1e-9

    def test_inner_negatives_respect_distance_band(self, mining_world):
        spec = MiningSpec(
            inner_neg_dist=(1.0, 2.5), n_inner=3, n_cross=0, n_ori=0, seed=2
        )
        sample = mine_samples(mining_world, 0, PerturbSpec(0, 0), spec, self.CROP)
        gt = sample.anchor_pose
        assert len(sample.position_negatives) == 3
        for crop in sample.position_negatives:
            d = gt.distance_to(crop.source_pose)
            assert 1.0 - 1e-9 <= d <= 2.5 + 1e-9

    def test_orientation_negative_rotates_in_place(self, mining_world):
        spec = MiningSpec(n_inner=0, n_cross=0, n_ori=2, seed=2)
        sample = mine_samples(mining_world, 1, PerturbSpec(0, 0), spec, self.CROP)
        gt = sample.anchor_pose
        assert len(sample.orientation_negatives) == 2
        # two turns evenly spaced about pi: 120 and 240 degrees
        for crop, turn in zip(sample.orientation_negatives, (2 * math.pi / 3, 4 * math.pi / 3)):
            p = crop.source_pose
            assert (p.x, p.y) == (gt.x, gt.y)
            assert p.theta == pytest.approx((gt.theta + turn) % (2 * math.pi))

    def test_orientation_negatives_are_distinct_crops(self, mining_world):
        spec = MiningSpec(n_inner=0, n_cross=0, n_ori=3, seed=2)
        sample = mine_samples(mining_world, 1, PerturbSpec(0, 0), spec, self.CROP)
        gt = sample.anchor_pose
        thetas = [crop.source_pose.theta for crop in sample.orientation_negatives]
        turns = (math.pi / 2, math.pi, 3 * math.pi / 2)  # 90, 180 and 270 degrees
        assert thetas == pytest.approx([(gt.theta + t) % (2 * math.pi) for t in turns])
        pixels = [crop.pixels.tobytes() for crop in sample.orientation_negatives]
        assert len(set(pixels)) == 3
        # one negative is the single turn by ori_neg_rotation itself, bit for bit
        single = mine_samples(
            mining_world, 1, PerturbSpec(0, 0), MiningSpec(n_inner=0, n_cross=0, n_ori=1, seed=2),
            self.CROP,
        )
        assert single.orientation_negatives[0].source_pose == gt.rotated(math.pi)

    def test_cross_negatives_come_from_other_plans(self, mining_world):
        spec = MiningSpec(n_inner=0, n_cross=4, n_ori=1, seed=9)
        sample = mine_samples(mining_world, 2, PerturbSpec(), spec, self.CROP)
        plan, _ = mining_world[2]
        assert len(sample.cross_plan_indices) == 4
        for idx in sample.cross_plan_indices:
            assert mining_world[idx][0] is not plan

    def test_cross_requires_second_plan(self, mining_world):
        plan, pose = mining_world[0]
        single = [(plan, pose), (plan, mining_world[2][1])]
        with pytest.raises(ConfigurationError):
            mine_samples(
                single, 0, PerturbSpec(), MiningSpec(n_cross=1), self.CROP
            )

    def test_index_validation(self, mining_world):
        with pytest.raises(ValidationError):
            mine_samples(mining_world, 99, PerturbSpec(), MiningSpec(), self.CROP)
        with pytest.raises(ValidationError):
            mine_samples([], 0, PerturbSpec(), MiningSpec(), self.CROP)

    def test_mining_spec_validation(self):
        with pytest.raises(ValidationError):
            MiningSpec(inner_neg_dist=(2.0, 1.0))
        with pytest.raises(ValidationError):
            MiningSpec(n_inner=0, n_cross=0, n_ori=0)
        with pytest.raises(ValidationError):
            MiningSpec(n_inner=-1)
        with pytest.raises(ValidationError):
            MiningSpec(ori_neg_rotation=math.nan)
        with pytest.raises(ValidationError):
            PerturbSpec(pos_b=math.nan)
        with pytest.raises(ValidationError):
            PerturbSpec(ang_b=-0.1)


class TestCropFeatures:
    def test_shape_and_block_means(self, textured_box_plan):
        crop = extract_crop(
            textured_box_plan, Pose(0.5, 0.5, 0.0), CropSpec(side_m=0.8, out_px=16)
        )
        feats = crop_features(crop)
        assert feats.shape == (8 * 8 * (1 + 16),)
        # occupancy, then one indicator map per texture id 1..16, each in 8x8 blocks of 2x2 px
        maps = [crop.occupancy()] + [crop.texture() == k for k in range(1, 17)]
        expect = [m.astype(float).reshape(8, 2, 8, 2).mean(axis=(1, 3)) for m in maps]
        assert np.array_equal(feats, np.ravel(expect))
        assert feats[64:192].any() and not feats[192:].any()  # ids 1 and 2 only

    def test_occupancy_only_crop(self, box_plan):
        crop = extract_crop(
            box_plan,
            Pose(0.5, 0.5, 0.0),
            CropSpec(side_m=0.8, out_px=8, channels="occupancy"),
        )
        assert crop_features(crop).shape == (64,)


class TestLinearEmbedder:
    def test_unit_norm_output(self):
        rng = np.random.default_rng(3)
        emb = LinearEmbedder(weights=rng.normal(size=(8, 20)))
        v = emb.embed_features(rng.normal(size=20))
        assert np.linalg.norm(v) == pytest.approx(1.0)

    def test_degenerate_rejected(self):
        emb = LinearEmbedder(weights=np.zeros((4, 6)))
        with pytest.raises(ValidationError):
            emb.embed_features(np.ones(6))

    def test_feature_width_mismatch_names_both_widths(self, mining_world):
        # weights 272 wide against the fixed layout, which pools crops 1088 wide
        embedder = LinearEmbedder(weights=np.ones((4, 272)))
        plan, pose = mining_world[0]
        crop = extract_crop(plan, pose, CropSpec(side_m=3.0, out_px=16))
        with pytest.raises(ValidationError, match=r"272 features, got shape \(1088,\)"):
            embedder.embed_crop(crop)


def _toy_samples(n=12, n_feats=10, dim=6, seed=0):
    """Synthetic training set where anchors correlate with a fixed projection
    of the positive features."""
    rng = np.random.default_rng(seed)
    target = rng.normal(size=(dim, n_feats))
    samples_raw = []
    for _ in range(n):
        pos = rng.random(n_feats)
        negs = rng.random((3, n_feats))
        anchor = target @ pos
        anchor /= np.linalg.norm(anchor)
        samples_raw.append((anchor, pos, negs))

    return [
        TrainingSample(
            anchor_embedding=a,
            positive_features=p,
            position_negative_features=ns,
            orientation_negative_features=np.zeros((0, n_feats)),
        )
        for a, p, ns in samples_raw
    ]


def _ragged_samples(n_feats=10, dim=6, seed=4):
    """Samples with differing negative counts, including some with no
    position negatives and some with no orientation negatives."""
    rng = np.random.default_rng(seed)
    return [
        TrainingSample(
            anchor_embedding=_unit(rng, 1, dim)[0],
            positive_features=rng.random(n_feats),
            position_negative_features=rng.random((n_pos, n_feats)),
            orientation_negative_features=rng.random((n_ori, n_feats)),
        )
        for n_pos, n_ori in [(3, 0), (0, 2), (1, 1), (5, 2), (0, 1), (2, 0), (4, 3)]
    ]


def _per_sample_reference(samples, weights, epochs, learning_rate, tau, denominator):
    """Full-batch descent one sample at a time from the reference loss and
    gradient, backpropagated through each crop's unit normalisation. Each
    peer index is expanded into a copy of that sample's positive, placed
    after the mined position negatives."""
    trace = np.empty(epochs)
    for epoch in range(epochs):
        loss = 0.0
        grad_w = np.zeros_like(weights)
        for s in samples:
            position_negatives = np.vstack(
                [s.position_negative_features]
                + [samples[k].positive_features for k in s.peer_indices]
            )
            feats = np.vstack(
                [
                    s.positive_features[None, :],
                    position_negatives,
                    s.orientation_negative_features,
                ]
            )
            u = feats @ weights.T
            norms = np.linalg.norm(u, axis=1, keepdims=True)
            g = u / norms
            split = 1 + position_negatives.shape[0]
            args = (s.anchor_embedding[None, :], g[:1], g[1:split], g[split:])
            loss += _reference_nce_loss(*args, [(0, 0)], tau, denominator)
            grads = _reference_nce_grad(*args, [(0, 0)], tau, denominator)
            d_g = np.vstack(
                [
                    grads["positives"],
                    grads["position_negatives"],
                    grads["orientation_negatives"],
                ]
            )
            d_u = (d_g - g * np.sum(g * d_g, axis=1, keepdims=True)) / norms
            grad_w += d_u.T @ feats
        trace[epoch] = loss / len(samples)
        weights = weights - learning_rate * grad_w / len(samples)
    return weights, trace


_sample_set_args = dict(
    seed=st.integers(0, 2**32 - 1),
    n_samples=st.integers(1, 6),
    n_feats=st.integers(2, 9),
    n_dead=st.integers(0, 6),
    denom=st.sampled_from([DENOM_NEGATIVES_ONLY, DENOM_WITH_POSITIVE]),
)


def _random_sample_set(rng, n_samples, n_feats, n_dead):
    """A small random training set, its anchor dimension and its dead
    columns. Peers' positives reappear as position negatives, both as copied
    rows and by index (duplicates and self-peers included), the samples hold
    different crop counts, so that they are padded, an orientation negative
    may repeat within a sample, and the dead feature columns are zero in
    every crop."""
    dim = int(rng.integers(2, 6))
    dead = rng.permutation(n_feats)[: min(n_dead, n_feats - 1)]
    pool = rng.random((int(rng.integers(1, 8)), n_feats))
    pool[:, dead] = 0.0
    positives = pool[rng.integers(len(pool), size=n_samples)]
    samples = []
    for i in range(n_samples):
        mined = pool[rng.integers(len(pool), size=int(rng.integers(0, 4)))]
        copies = positives[rng.integers(n_samples, size=int(rng.integers(0, 4)))]
        peers = tuple(rng.integers(n_samples, size=int(rng.integers(0, 4))).tolist())
        n_negatives = len(mined) + len(copies) + len(peers)
        n_ori = int(rng.integers(0, 3)) if n_negatives else int(rng.integers(1, 3))
        ori = pool[rng.integers(len(pool))]
        samples.append(
            TrainingSample(
                anchor_embedding=_unit(rng, 1, dim)[0],
                positive_features=positives[i],
                position_negative_features=np.vstack([mined, copies]),
                orientation_negative_features=np.repeat(ori[None], n_ori, axis=0),
                peer_indices=peers,
            )
        )
    return samples, dim, dead


class TestTraining:
    def test_loss_decreases(self):
        samples = _toy_samples()
        _, trace = train_linear_embedder(
            samples, dim=6, epochs=60, learning_rate=0.5, seed=1
        )
        assert trace.shape == (60,)
        assert trace[-1] < trace[0]

    def test_batched_equals_per_sample(self):
        # ragged sets are padded inside the batched loop; uniform ones are not
        rng = np.random.default_rng(2)
        w0 = rng.normal(scale=0.1, size=(6, 10))
        for samples in (_toy_samples(n=6), _ragged_samples()):
            for denom in (DENOM_NEGATIVES_ONLY, DENOM_WITH_POSITIVE):
                wa, ta = _train_batched(samples, w0.copy(), 5, 0.3, 0.07, denom)
                wb, tb = _per_sample_reference(samples, w0.copy(), 5, 0.3, 0.07, denom)
                assert np.allclose(wa, wb, atol=1e-12)
                assert np.allclose(ta, tb, atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(**_sample_set_args)
    def test_shared_rows_and_dead_columns_match_per_sample(
        self, seed, n_samples, n_feats, n_dead, denom
    ):
        rng = np.random.default_rng(seed)
        samples, dim, dead = _random_sample_set(rng, n_samples, n_feats, n_dead)
        # a step small enough that no weight grows large, so that 1e-12 is a
        # summation-order bound (the weights stay below about 11)
        w0 = rng.normal(size=(dim, n_feats))
        wa, ta = _train_batched(samples, w0.copy(), 4, 0.05, 0.07, denom)
        wb, tb = _per_sample_reference(samples, w0.copy(), 4, 0.05, 0.07, denom)
        assert np.allclose(wa, wb, rtol=0, atol=1e-12)
        assert np.allclose(ta, tb, rtol=0, atol=1e-12)
        assert np.array_equal(wa[:, dead], w0[:, dead])

    @settings(max_examples=40, deadline=None)
    @given(**_sample_set_args)
    def test_step_matches_finite_differences(self, seed, n_samples, n_feats, n_dead, denom):
        # one epoch's update is -learning_rate times the gradient of the mean
        # loss, which is the first trace entry; check it against central
        # differences of that loss over every live weight, with no oracle
        rng = np.random.default_rng(seed)
        samples, dim, dead = _random_sample_set(rng, n_samples, n_feats, n_dead)
        w0 = rng.normal(size=(dim, n_feats))
        lr, tau, h = 0.5, 0.07, 1e-6

        def loss(w):
            return _train_batched(samples, w, 1, lr, tau, denom)[1][0]

        w1 = _train_batched(samples, w0.copy(), 1, lr, tau, denom)[0]
        grad = (w0 - w1) / lr
        live = np.setdiff1d(np.arange(n_feats), dead)
        fd = np.zeros((dim, live.size))
        for e, k in np.ndindex(fd.shape):
            step = np.zeros_like(w0)
            step[e, live[k]] = h
            fd[e, k] = (loss(w0 + step) - loss(w0 - step)) / (2 * h)
        scale = max(np.abs(fd).max(), 1.0)
        assert np.abs(grad[:, live] - fd).max() / scale < 1e-6
        assert np.array_equal(w1[:, dead], w0[:, dead])

    def test_zero_crop_fails_at_epoch_zero(self):
        samples = _ragged_samples()
        s = samples[3]
        zero_crop = np.zeros((1, s.positive_features.size))
        samples[3] = replace(
            s, orientation_negative_features=np.vstack([s.orientation_negative_features, zero_crop])
        )
        w0 = np.random.default_rng(0).normal(size=(6, 10))
        with pytest.raises(TrainingFailureError, match="degenerate") as info:
            _train_batched(samples, w0, 5, 0.3, 0.07, DENOM_WITH_POSITIVE)
        assert info.value.epoch == 0

    def test_padding_is_not_a_zero_crop(self):
        # samples of 2 to 8 crops are padded to 8 slots; no padded slot may
        # count as a degenerate crop, even when a column is dead everywhere
        def dead_column(feats):
            return np.pad(feats, ((0, 0), (0, 1)))

        samples = [
            replace(
                s,
                positive_features=np.append(s.positive_features, 0.0),
                position_negative_features=dead_column(s.position_negative_features),
                orientation_negative_features=dead_column(s.orientation_negative_features),
            )
            for s in _ragged_samples()
        ]
        w0 = np.random.default_rng(0).normal(size=(6, 11))
        weights, trace = _train_batched(samples, w0, 5, 0.3, 0.07, DENOM_WITH_POSITIVE)
        assert np.all(np.isfinite(trace))
        assert np.array_equal(weights[:, -1], w0[:, -1])

    def test_ragged_public_path(self):
        _, trace = train_linear_embedder(
            _ragged_samples(), dim=6, epochs=40, learning_rate=0.5, seed=1
        )
        assert np.all(np.isfinite(trace))
        assert trace[-1] < trace[0]

    def test_feature_length_mismatch_rejected(self):
        samples = _ragged_samples()
        s = samples[0]
        for bad in (
            dict(positive_features=s.positive_features[:9]),
            dict(position_negative_features=s.position_negative_features[:, :9]),
            dict(orientation_negative_features=np.zeros((1, 11))),
        ):
            fields = dict(
                anchor_embedding=s.anchor_embedding,
                positive_features=s.positive_features,
                position_negative_features=s.position_negative_features,
                orientation_negative_features=s.orientation_negative_features,
            )
            fields.update(bad)
            with pytest.raises(ValidationError):
                train_linear_embedder(samples[:1] + [TrainingSample(**fields)], dim=6)

    def test_deterministic(self):
        samples = _toy_samples()
        e1, t1 = train_linear_embedder(samples, dim=6, epochs=10, seed=3)
        e2, t2 = train_linear_embedder(samples, dim=6, epochs=10, seed=3)
        assert np.array_equal(e1.weights, e2.weights)
        assert np.array_equal(t1, t2)

    def test_validation(self):
        with pytest.raises(ValidationError):
            train_linear_embedder([], dim=6)
        samples = _toy_samples(n=2)
        with pytest.raises(ValidationError):
            train_linear_embedder(samples, dim=1)
        no_neg = [
            TrainingSample(
                anchor_embedding=s.anchor_embedding,
                positive_features=s.positive_features,
                position_negative_features=np.zeros((0, 10)),
                orientation_negative_features=np.zeros((0, 10)),
            )
            for s in samples
        ]
        with pytest.raises(ConfigurationError):
            train_linear_embedder(no_neg, dim=6)

    def test_peers_count_as_negatives_and_must_be_in_range(self):
        samples = [
            replace(s, position_negative_features=np.zeros((0, 10)), peer_indices=((i + 1) % 3,))
            for i, s in enumerate(_toy_samples(n=3))
        ]
        _, trace = train_linear_embedder(samples, dim=6, epochs=3)
        assert np.all(np.isfinite(trace))
        # a peer outside the trained list, as when a prefix is trained on
        # without restricting the peers to it
        for bad in (3, -1, 0.5):
            broken = samples[:2] + [replace(samples[2], peer_indices=(bad,))]
            with pytest.raises(ValidationError, match="peer index"):
                train_linear_embedder(broken, dim=6, epochs=3)

    @pytest.mark.parametrize(
        "bad",
        [
            dict(epochs=0),
            dict(epochs=-1),
            dict(learning_rate=math.nan),
            dict(learning_rate=math.inf),
            dict(learning_rate=0.0),
            dict(learning_rate=-0.5),
            dict(tau=math.nan),
            dict(tau=math.inf),
            dict(tau=0.0),
            dict(tau=-0.07),
        ],
    )
    def test_bad_schedule_rejected(self, bad):
        with pytest.raises(ValidationError, match=next(iter(bad))):
            train_linear_embedder(_toy_samples(n=2), dim=6, **bad)

    @pytest.mark.parametrize(
        "name, value",
        [("seed", -1), ("seed", 2.5), ("seed", True), ("dim", 2.5), ("dim", True),
         ("epochs", 2.5), ("epochs", True)],
    )
    def test_bad_integer_arguments_rejected(self, name, value):
        kwargs = {"dim": 6, "epochs": 2, name: value}
        message = f"{name} must be >= 0" if value == -1 else f"{name} must be an integer"
        with pytest.raises(ValidationError, match=message):
            train_linear_embedder(_toy_samples(n=2), **kwargs)

    @pytest.mark.parametrize("case", ["mixed lengths", "2-D", "dim", "nan", "inf"])
    def test_bad_anchor_rejected(self, case):
        # every anchor must be a finite vector of length dim
        samples, dim = _toy_samples(n=3), 6
        a = samples[1].anchor_embedding
        if case == "mixed lengths":
            samples[1] = replace(samples[1], anchor_embedding=a[:5])
        elif case == "2-D":
            samples = [replace(s, anchor_embedding=s.anchor_embedding[None, :]) for s in samples]
        elif case == "dim":
            dim = 5
        else:
            samples[1] = replace(samples[1], anchor_embedding=np.where(a == a.max(), float(case), a))
        with pytest.raises(ValidationError, match="anchor_embedding"):
            train_linear_embedder(samples, dim=dim, epochs=2)


def _sparse_scatter(padded_rows, valid, d_slots, anchors, n_rows):
    """The reference for _slot_backprop: a (samples x rows) sparse matrix of
    the real slots' gradients, whose transpose sums them onto each row."""
    rows = padded_rows[valid]
    indptr = np.concatenate([[0], np.cumsum(valid.sum(axis=1))])
    scatter = csr_array((d_slots[valid], rows, indptr), shape=(len(valid), n_rows))
    return scatter.T @ anchors


class TestSlotBackprop:
    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_samples=st.integers(1, 8),
        dim=st.integers(2, 5),
        max_peers=st.integers(0, 6),
    )
    @example(seed=0, n_samples=1, dim=2, max_peers=0)
    @example(seed=1, n_samples=3, dim=3, max_peers=6)
    def test_bit_identical_to_sparse_scatter(self, seed, n_samples, dim, max_peers):
        # samples with no mined crops or no peers, duplicate peers and
        # self-peers, padded to the largest slot count; the gradients span
        # twelve orders of magnitude, so that summation order shows. Training
        # takes dim >= 2: at width 1, einsum sums a row's terms in its own order
        rng = np.random.default_rng(seed)
        samples = [
            TrainingSample(
                anchor_embedding=np.zeros(dim),
                positive_features=np.zeros(1),
                position_negative_features=np.zeros((int(rng.integers(0, 4)), 1)),
                orientation_negative_features=np.zeros((int(rng.integers(0, 3)), 1)),
                peer_indices=tuple(
                    rng.integers(n_samples, size=int(rng.integers(0, max_peers + 1))).tolist()
                ),
            )
            for _ in range(n_samples)
        ]
        padded_rows, valid = _slot_rows(samples)
        anchors = rng.normal(size=(n_samples, dim)) * 10.0 ** rng.integers(-6, 7, size=(n_samples, 1))
        d_slots = rng.normal(size=valid.shape) * 10.0 ** rng.integers(-6, 7, size=valid.shape)
        d_slots[rng.random(valid.shape) < 0.1] = 0.0  # as an underflowed softmax weight
        d_slots[~valid] = np.nan  # a padded slot must never be read
        got = _slot_backprop(padded_rows, valid, anchors, n_samples)(d_slots)
        want = _sparse_scatter(
            padded_rows, valid, d_slots, anchors, int(padded_rows[valid].max()) + 1
        )
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_samples=st.integers(0, 8),
        n_slots=st.integers(1, 6),
        n_rows=st.integers(1, 9),
        dim=st.integers(2, 5),
        padded=st.booleans(),
    )
    @example(seed=0, n_samples=0, n_slots=3, n_rows=3, dim=2, padded=False)  # an empty batch
    @example(seed=2, n_samples=6, n_slots=5, n_rows=1, dim=3, padded=True)
    def test_shared_rows_bit_identical_to_sparse_scatter(
        self, seed, n_samples, n_slots, n_rows, dim, padded
    ):
        # the batch loss's layout: every row is shared, so any slot may read
        # any row, some rows are never read and a sample may read a row twice
        rng = np.random.default_rng(seed)
        padded_rows = rng.integers(n_rows, size=(n_samples, n_slots))
        valid = rng.random(padded_rows.shape) < 0.7 if padded else np.ones(padded_rows.shape, bool)
        anchors = rng.normal(size=(n_samples, dim)) * 10.0 ** rng.integers(-6, 7, size=(n_samples, 1))
        d_slots = rng.normal(size=valid.shape) * 10.0 ** rng.integers(-6, 7, size=valid.shape)
        d_slots[rng.random(valid.shape) < 0.1] = 0.0
        d_slots[~valid] = np.nan
        got = _slot_backprop(padded_rows, valid, anchors, n_rows)(d_slots)
        want = _sparse_scatter(padded_rows, valid, d_slots, anchors, n_rows)
        assert got.shape == want.shape == (n_rows, dim)
        assert got.tobytes() == want.tobytes()


class TestBuildTrainingSamples:
    def test_alignment_required(self, mining_world):
        spec = MiningSpec(n_inner=1, n_cross=1, n_ori=1, seed=0)
        crop = CropSpec(side_m=3.0, out_px=15)
        mined = [mine_samples(mining_world, j, PerturbSpec(), spec, crop) for j in range(3)]
        with pytest.raises(ValidationError):
            build_training_samples(mined, np.zeros((2, 8)))
        samples = build_training_samples(mined, np.eye(3, 8))
        assert len(samples) == 3
        assert samples[0].position_negative_features.shape[0] == 2
        assert samples[0].orientation_negative_features.shape[0] == 1
        # an empty family keeps the feature width
        bare = replace(mined[0], orientation_negatives=())
        (sample,) = build_training_samples([bare], np.eye(1, 8))
        assert sample.orientation_negative_features.shape == (0, 8 * 8 * 17)
        assert np.array_equal(
            sample.position_negative_features, samples[0].position_negative_features
        )


class TestPeerNegatives:
    def test_appends_peers_and_filters_near_duplicates(self, mining_world):
        spec = MiningSpec(n_inner=1, n_cross=1, n_ori=1, seed=0)
        crop = CropSpec(side_m=3.0, out_px=15)
        mined = [
            mine_samples(mining_world, j, PerturbSpec(), spec, crop)
            for j in range(len(mining_world))
        ]
        samples = build_training_samples(mined, np.eye(len(mined), 8))
        out = add_peer_negatives(samples, mining_world, n_peers=4, min_dist=1.5, seed=1)
        assert len(out) == len(samples)
        for j, (before, after) in enumerate(zip(samples, out)):
            assert len(after.peer_indices) == len(before.peer_indices) + 4
            plan, gt = mining_world[j]
            for k in after.peer_indices:
                peer_plan, peer = mining_world[k]
                assert k != j
                assert peer_plan is not plan or math.hypot(peer.x - gt.x, peer.y - gt.y) >= 1.5
        # a second call appends to the peers already recorded
        again = add_peer_negatives(out, mining_world, n_peers=2, min_dist=1.5, seed=2)
        assert [s.peer_indices[:4] for s in again] == [s.peer_indices for s in out]
        assert all(len(s.peer_indices) == 6 for s in again)

    def test_reuses_feature_arrays(self, mining_world):
        # peers are recorded by index: every feature array is the input's own
        spec = MiningSpec(n_inner=1, n_cross=1, n_ori=1, seed=0)
        crop = CropSpec(side_m=3.0, out_px=15)
        mined = [mine_samples(mining_world, j, PerturbSpec(), spec, crop) for j in range(4)]
        samples = build_training_samples(mined, np.eye(4, 8))
        out = add_peer_negatives(samples, mining_world[:4], n_peers=1, min_dist=0.0, seed=0)
        for before, after in zip(samples, out):
            for name in (
                "anchor_embedding",
                "positive_features",
                "position_negative_features",
                "orientation_negative_features",
            ):
                assert getattr(after, name) is getattr(before, name)

    @pytest.mark.parametrize("pool", [[-1], [5], [0.5], [0, 1.0]])
    def test_pool_entries_must_be_indices(self, mining_world, pool):
        # -1 would wrap to the last anchor, which could then draw its own
        # positive; 5 is past the end and 0.5 would be truncated to 0
        spec = MiningSpec(n_inner=1, n_cross=1, n_ori=1, seed=0)
        crop = CropSpec(side_m=3.0, out_px=15)
        mined = [mine_samples(mining_world, j, PerturbSpec(), spec, crop) for j in range(3)]
        samples = build_training_samples(mined, np.eye(3, 8))
        with pytest.raises(ValidationError, match="pool entry"):
            add_peer_negatives(samples, mining_world[:3], n_peers=1, min_dist=0.0, pool=pool)

    def test_exhaustion(self, mining_world):
        spec = MiningSpec(n_inner=1, n_cross=1, n_ori=1, seed=0)
        crop = CropSpec(side_m=3.0, out_px=15)
        mined = [mine_samples(mining_world, j, PerturbSpec(), spec, crop) for j in range(2)]
        samples = build_training_samples(mined, np.eye(2, 8))
        with pytest.raises(MiningExhaustedError):
            add_peer_negatives(samples, mining_world[:2], n_peers=5, seed=0)

    def test_noop_for_zero_peers(self, mining_world):
        spec = MiningSpec(n_inner=1, n_cross=1, n_ori=1, seed=0)
        crop = CropSpec(side_m=3.0, out_px=15)
        mined = [mine_samples(mining_world, j, PerturbSpec(), spec, crop) for j in range(2)]
        samples = build_training_samples(mined, np.eye(2, 8))
        out = add_peer_negatives(samples, mining_world[:2], n_peers=0)
        assert all(a is b for a, b in zip(out, samples))


def _reference_peers(dataset, n_peers, min_dist, seed, pool):
    """Peer indices per anchor from the scalar eligibility comprehension,
    or None where an anchor has fewer than n_peers eligible peers."""
    candidates = list(range(len(dataset))) if pool is None else list(pool)
    chosen = []
    for j, (plan, gt) in enumerate(dataset):
        eligible = [
            k
            for k in candidates
            if k != j
            and (
                dataset[k][0] is not plan
                or math.hypot(dataset[k][1].x - gt.x, dataset[k][1].y - gt.y)
                >= min_dist
            )
        ]
        if len(eligible) < n_peers:
            return None
        rng = np.random.default_rng(np.random.SeedSequence([seed, j]))
        peers = rng.choice(len(eligible), size=n_peers, replace=False)
        chosen.append([eligible[int(k)] for k in peers])
    return chosen


_COORD = st.integers(-3000, 3000).map(lambda v: v / 1000)


class TestPeerEligibility:
    @settings(max_examples=300)
    @given(
        points=st.lists(st.tuples(st.integers(0, 2), _COORD, _COORD), min_size=1, max_size=12),
        min_dist=st.sampled_from([0.0, 0.5, 1.5, 2.0]),
        boundary=st.none()
        | st.tuples(st.integers(0, 11), st.integers(0, 11), st.sampled_from([math.hypot, np.hypot])),
        pool=st.none() | st.lists(st.integers(0, 11), max_size=14),
        n_peers=st.integers(1, 4),
        seed=st.integers(0, 2**16),
    )
    # pairs at which np.hypot rounds below and above math.hypot
    @example(
        points=[(0, 0.0, 0.0), (0, -1.295, 0.757), (1, 0.0, 0.0)],
        min_dist=0.0, boundary=(0, 1, math.hypot), pool=None, n_peers=2, seed=0,
    )
    @example(
        points=[(0, 0.0, 0.0), (0, -1.068, 1.053), (1, 0.0, 0.0)],
        min_dist=0.0, boundary=(0, 1, np.hypot), pool=None, n_peers=2, seed=0,
    )
    def test_matches_scalar_comprehension(self, points, min_dist, boundary, pool, n_peers, seed):
        n = len(points)
        # value-equal but distinct floorplans: eligibility is by identity
        plans = [FloorPlan(occupancy=np.zeros((2, 2), dtype=bool), resolution=0.1) for _ in range(3)]
        dataset = [(plans[p], Pose(x, y)) for p, x, y in points]
        if boundary is not None:
            # a peer exactly at min_dist, by either rounding of the distance
            i, k, hypot = boundary
            a, b = dataset[i % n][1], dataset[k % n][1]
            min_dist = float(hypot(b.x - a.x, b.y - a.y))
        if pool is not None:
            pool = [k % n for k in pool]
        samples = [
            TrainingSample(
                anchor_embedding=np.array([1.0, 0.0]),
                positive_features=np.array([float(k)]),
                position_negative_features=np.zeros((0, 1)),
                orientation_negative_features=np.zeros((0, 1)),
            )
            for k in range(n)
        ]
        expect = _reference_peers(dataset, n_peers, min_dist, seed, pool)
        if expect is None:
            with pytest.raises(MiningExhaustedError):
                add_peer_negatives(samples, dataset, n_peers, min_dist, seed, pool)
            return
        out = add_peer_negatives(samples, dataset, n_peers, min_dist, seed, pool)
        assert [list(s.peer_indices) for s in out] == expect


class TestFileFormats:
    def test_embeddings_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        embs = rng.normal(size=(5, 16))
        path = str(tmp_path / "e.emb")
        write_embeddings(path, embs)
        back = read_embeddings(path)
        assert back.shape == (5, 16)
        assert np.allclose(back, embs, atol=1e-6)

    def test_embeddings_bad_magic(self, tmp_path):
        path = tmp_path / "bad.emb"
        path.write_bytes(b"XXXX" + b"\x00" * 8)
        with pytest.raises(FormatError):
            read_embeddings(str(path))

    def test_embeddings_truncated(self, tmp_path):
        path = str(tmp_path / "t.emb")
        write_embeddings(path, np.ones((3, 4)))
        with open(path, "rb") as fh:
            data = fh.read()
        with open(path, "wb") as fh:
            fh.write(data[:-6])
        with pytest.raises(FormatError):
            read_embeddings(path)

    def test_manifest_round_trip(self, tmp_path):
        records = [{"anchor": 0, "files": ["a.pgm"]}, {"anchor": 1, "files": []}]
        path = str(tmp_path / "m.jsonl")
        write_sample_manifest(path, records)
        assert read_sample_manifest(path) == records
