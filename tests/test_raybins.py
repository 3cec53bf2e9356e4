"""Depth-bin discretization, decoding, and the regression loss."""

import numpy as np
import pytest

from rayloc.errors import ValidationError
from rayloc.raybins import BinSpec, bin_centers, encode_depth, expected_depths, floc_loss


class TestBinSpec:
    def test_validation(self):
        with pytest.raises(ValidationError):
            BinSpec(d_min=0.0)
        with pytest.raises(ValidationError):
            BinSpec(d_min=2.0, d_max=1.0)
        with pytest.raises(ValidationError):
            BinSpec(n_bins=0)
        with pytest.raises(ValidationError):
            BinSpec(gamma=0.0)


class TestBinCenters:
    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
    def test_matches_direct_formula(self, gamma):
        spec = BinSpec(d_min=0.1, d_max=10.0, n_bins=64, gamma=gamma)
        centers = bin_centers(spec)
        for k in range(1, spec.n_bins + 1):
            direct = (
                spec.d_min**gamma
                + (k / spec.n_bins) * (spec.d_max**gamma - spec.d_min**gamma)
            ) ** (1.0 / gamma)
            assert abs(centers[k - 1] - direct) < 1e-12

    def test_strictly_increasing_and_endpoint(self):
        for gamma in (0.5, 1.0, 2.0):
            centers = bin_centers(BinSpec(gamma=gamma))
            assert np.all(np.diff(centers) > 0)
            assert centers[-1] == pytest.approx(10.0, abs=1e-12)

    def test_gamma_one_is_linear(self):
        centers = bin_centers(BinSpec(d_min=1.0, d_max=5.0, n_bins=4, gamma=1.0))
        assert np.allclose(centers, [2.0, 3.0, 4.0, 5.0], atol=1e-12)


class TestEncodeDecode:
    def test_round_trip(self):
        spec = BinSpec(d_min=0.1, d_max=10.0, n_bins=64, gamma=2.0)
        rng = np.random.default_rng(3)
        centers = bin_centers(spec)
        # depths outside [centers[0], centers[-1]] clamp by design, so sample
        # inside the representable range
        depths = rng.uniform(centers[0], centers[-1], size=500)
        rows = encode_depth(depths, spec)
        back = expected_depths(rows, spec)
        assert np.max(np.abs(back - depths)) < 1e-9

    def test_exact_centers_one_hot(self):
        spec = BinSpec(n_bins=16)
        centers = bin_centers(spec)
        rows = encode_depth(centers, spec)
        assert np.array_equal(rows, np.eye(16))

    def test_out_of_range_clamps(self):
        spec = BinSpec(d_min=1.0, d_max=2.0, n_bins=4)
        lo = encode_depth(0.5, spec)
        hi = encode_depth(9.0, spec)
        centers = bin_centers(spec)
        assert expected_depths(lo, spec)[0] == pytest.approx(centers[0])
        assert expected_depths(hi, spec)[0] == pytest.approx(centers[-1])

    def test_scalar_in_scalar_row_out(self):
        spec = BinSpec(n_bins=8)
        row = encode_depth(3.0, spec)
        assert row.shape == (8,)
        assert row.sum() == pytest.approx(1.0)

    def test_row_validation(self):
        spec = BinSpec(n_bins=4)
        with pytest.raises(ValidationError):
            expected_depths(np.array([0.5, 0.5, 0.5, 0.5]), spec)  # sums to 2
        with pytest.raises(ValidationError):
            expected_depths(np.array([-0.5, 1.5, 0.0, 0.0]), spec)
        with pytest.raises(ValidationError):
            expected_depths(np.full(5, 0.2), spec)  # wrong bin count


class TestFlocLoss:
    def test_identical_fans(self):
        v = np.array([1.0, 2.0, 3.0])
        assert floc_loss(v, v, mode="penalty") == pytest.approx(0.0, abs=1e-12)
        assert floc_loss(v, v, mode="literal") == pytest.approx(1.0, abs=1e-12)

    def test_hand_computed(self):
        pred = np.array([1.0, 0.0])
        gt = np.array([0.0, 1.0])
        # L1 = 2, cosine = 0
        assert floc_loss(pred, gt, mode="penalty") == pytest.approx(3.0)
        assert floc_loss(pred, gt, mode="literal") == pytest.approx(2.0)

    def test_modes_differ_by_twice_cosine(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            pred = rng.uniform(0.1, 10.0, size=40)
            gt = rng.uniform(0.1, 10.0, size=40)
            cos = pred @ gt / (np.linalg.norm(pred) * np.linalg.norm(gt))
            pen = floc_loss(pred, gt, mode="penalty")
            lit = floc_loss(pred, gt, mode="literal")
            assert lit - pen == pytest.approx(2.0 * cos - 1.0, abs=1e-9)

    def test_zero_vector_guard(self):
        z = np.zeros(4)
        assert np.isfinite(floc_loss(z, z))

    def test_validation(self):
        with pytest.raises(ValidationError):
            floc_loss(np.zeros(3), np.zeros(4))
        with pytest.raises(ValidationError):
            floc_loss(np.ones(3), np.ones(3), mode="other")
        with pytest.raises(ValidationError):
            floc_loss(np.ones(3), np.ones(3), epsilon=0.0)
