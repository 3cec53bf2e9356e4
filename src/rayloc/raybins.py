"""Power-law depth-bin discretization, expected-depth decoding, and the
ray-regression training loss."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

ROW_SUM_TOL = 1e-4


@dataclass(frozen=True)
class BinSpec:
    """Discretization of the depth range [d_min, d_max] into D bins.

    Bin center k (1-based) is (d_min^gamma + (k/D) * (d_max^gamma -
    d_min^gamma))^(1/gamma); gamma controls how resolution is allocated
    across ranges. k = D always lands exactly on d_max.
    """

    d_min: float = 0.1
    d_max: float = 10.0
    n_bins: int = 64
    gamma: float = 1.0

    def __post_init__(self):
        if not self.d_min > 0:
            raise ValidationError(f"d_min must be > 0, got {self.d_min}")
        if not self.d_max > self.d_min:
            raise ValidationError("d_max must be > d_min")
        if self.n_bins < 1:
            raise ValidationError(f"n_bins must be >= 1, got {self.n_bins}")
        if not self.gamma > 0:
            raise ValidationError(f"gamma must be > 0, got {self.gamma}")


def bin_centers(spec: BinSpec) -> np.ndarray:
    """Centers d_1 .. d_D of the power-law bins, strictly increasing."""
    k = np.arange(1, spec.n_bins + 1, dtype=float)
    lo = spec.d_min**spec.gamma
    hi = spec.d_max**spec.gamma
    return (lo + (k / spec.n_bins) * (hi - lo)) ** (1.0 / spec.gamma)


def _check_rows(probs: np.ndarray) -> np.ndarray:
    probs = np.asarray(probs, dtype=float)
    if probs.ndim == 1:
        probs = probs[None, :]
    if probs.ndim != 2:
        raise ValidationError("probability rows must form a 2D array")
    if np.any(probs < 0):
        raise ValidationError("bin probabilities must be non-negative")
    sums = probs.sum(axis=1)
    if np.any(np.abs(sums - 1.0) > ROW_SUM_TOL):
        worst = float(np.abs(sums - 1.0).max())
        raise ValidationError(f"probability rows must sum to 1 (off by {worst:.2e})")
    return probs


def expected_depths(probs: np.ndarray, spec: BinSpec) -> np.ndarray:
    """Per-ray depth as the probability-weighted sum of bin centers."""
    probs = _check_rows(probs)
    if probs.shape[1] != spec.n_bins:
        raise ValidationError(
            f"expected {spec.n_bins} bins per row, got {probs.shape[1]}"
        )
    return probs @ bin_centers(spec)


def encode_depth(depth: float | np.ndarray, spec: BinSpec) -> np.ndarray:
    """Inverse of expected_depths: probability rows whose expectation equals
    the given depth exactly (two-bin linear interpolation between bracketing
    centers; out-of-range depths clamp to the edge bins)."""
    depths = np.atleast_1d(np.asarray(depth, dtype=float))
    centers = bin_centers(spec)
    rows = np.zeros((depths.size, spec.n_bins))
    d = np.clip(depths, centers[0], centers[-1])
    if spec.n_bins == 1:
        rows[:, 0] = 1.0
    else:
        hi = np.searchsorted(centers, d, side="left")
        hi = np.clip(hi, 1, spec.n_bins - 1)
        lo = hi - 1
        span = centers[hi] - centers[lo]
        w_hi = (d - centers[lo]) / span
        exact = d == centers[lo]
        w_hi = np.where(exact, 0.0, w_hi)
        rows[np.arange(depths.size), lo] = 1.0 - w_hi
        rows[np.arange(depths.size), hi] += w_hi
    if np.isscalar(depth) or np.ndim(depth) == 0:
        return rows[0]
    return rows


def floc_loss(
    pred: np.ndarray,
    gt: np.ndarray,
    mode: str = "penalty",
    epsilon: float = 1e-8,
) -> float:
    """L1 depth loss plus a cosine shape term.

    mode "penalty" (default) returns ||pred - gt||_1 + (1 - cos(pred, gt)),
    the usable training objective; mode "literal" returns
    ||pred - gt||_1 + cos(pred, gt), the additive-cosine variant.
    """
    pred = np.asarray(pred, dtype=float).ravel()
    gt = np.asarray(gt, dtype=float).ravel()
    if pred.shape != gt.shape:
        raise ValidationError(
            f"pred and gt must have equal length ({pred.size} vs {gt.size})"
        )
    if mode not in ("penalty", "literal"):
        raise ValidationError(f"unknown loss mode {mode!r}")
    if not epsilon > 0:
        raise ValidationError("epsilon must be > 0")
    l1 = float(np.abs(pred - gt).sum())
    denom = max(float(np.linalg.norm(pred) * np.linalg.norm(gt)), epsilon)
    cos = float(pred @ gt) / denom
    if mode == "literal":
        return l1 + cos
    return l1 + (1.0 - cos)
