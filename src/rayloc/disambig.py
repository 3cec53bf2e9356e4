"""Candidate disambiguation: visual-to-crop similarity map, fusion with the
depth posterior, and the end-to-end localization pipeline."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .crops import Crop, CropSpec, extract_crop
from .errors import EmptyDomainError, ValidationError
from .floorplan import DEFAULT_FOV, DEFAULT_MAX_RANGE, DEFAULT_N_RAYS, FloorPlan, Pose
from .scoring import (
    DEFAULT_SIGMA,
    CandidateSet,
    GridScorer,
    PoseGridSpec,
    ProbMap,
    top_x,
)


@dataclass(frozen=True)
class DisambigConfig:
    w: float = 0.5  # fusion weight on the similarity map
    softmax_temperature: float = 1.0
    x: int = 100  # candidate count

    def __post_init__(self):
        if not 0.0 <= self.w <= 1.0:
            raise ValidationError("w must lie in [0, 1]")
        if not self.softmax_temperature > 0:
            raise ValidationError("softmax_temperature must be > 0")
        if self.x < 1:
            raise ValidationError("x must be >= 1")


def build_dpm(
    query_embedding: np.ndarray,
    crop_embeddings: np.ndarray,
    temperature: float = 1.0,
) -> np.ndarray:
    """Softmax over cosine similarities between the query embedding and each
    candidate crop embedding; sums to 1."""
    query = np.asarray(query_embedding, dtype=float).ravel()
    crops = np.atleast_2d(np.asarray(crop_embeddings, dtype=float))
    if crops.shape[0] == 0:
        raise EmptyDomainError("no crop embeddings to score")
    if crops.shape[1] != query.size:
        raise ValidationError(
            f"embedding dimension mismatch ({crops.shape[1]} vs {query.size})"
        )
    if not temperature > 0:
        raise ValidationError("temperature must be > 0")
    sims = crops @ query
    logits = sims / temperature
    logits = logits - logits.max()  # shift-invariant
    weights = np.exp(logits)
    return weights / weights.sum()


def fuse_and_select(
    candidates: CandidateSet,
    dpm: np.ndarray,
    config: DisambigConfig,
) -> tuple[Pose, np.ndarray]:
    """Convex combination of the candidate-restricted renormalized depth
    posterior and the similarity map; returns the winning pose and the fused
    scores. Ties break toward the lowest grid linear index."""
    dpm = np.asarray(dpm, dtype=float).ravel()
    if dpm.size != len(candidates):
        raise ValidationError(
            f"dpm length {dpm.size} does not match {len(candidates)} candidates"
        )
    depth_scores = candidates.scores / candidates.scores.sum()
    fused = (1.0 - config.w) * depth_scores + config.w * dpm
    best = min(
        range(len(candidates)),
        key=lambda i: (-fused[i], int(candidates.linear_indices[i])),
    )
    return candidates.poses[best], fused


@dataclass(frozen=True)
class LocalizationResult:
    pose: Pose
    dafpm: ProbMap
    candidates: CandidateSet
    dpm: np.ndarray
    fused: np.ndarray


def localize(
    plan: FloorPlan,
    pred_depths: np.ndarray,
    grid: PoseGridSpec,
    query_embedding: np.ndarray,
    crop_embedder,
    config: DisambigConfig = DisambigConfig(),
    crop_spec: CropSpec = CropSpec(),
    sigma: float = DEFAULT_SIGMA,
    scorer: GridScorer | None = None,
    n_rays: int = DEFAULT_N_RAYS,
    fov: float = DEFAULT_FOV,
    max_range: float = DEFAULT_MAX_RANGE,
) -> LocalizationResult:
    """End-to-end single-frame localization.

    Depth posterior -> top-X candidates -> per-candidate crop embeddings, in
    candidate order -> similarity map -> fusion -> final pose. A prebuilt
    `scorer` carries its own ray sensor, must be given its own plan and grid,
    and amortizes the rendered-fan table across queries; without one, a table
    is built from `grid`, `n_rays`, `fov` and `max_range` for this call alone.
    """
    if scorer is None:
        scorer = GridScorer(plan, grid, n_rays=n_rays, fov=fov, max_range=max_range)
    elif plan is not scorer.plan or grid != scorer.grid:
        raise ValidationError("localize: plan and grid must be the scorer's own")
    dafpm = scorer.score(pred_depths, sigma)
    candidates = top_x(dafpm, config.x)

    crop_embeddings = np.stack(
        [
            np.asarray(crop_embedder(extract_crop(plan, pose, crop_spec)))
            for pose in candidates.poses
        ]
    )

    dpm = build_dpm(query_embedding, crop_embeddings, config.softmax_temperature)
    pose, fused = fuse_and_select(candidates, dpm, config)
    return LocalizationResult(
        pose=pose, dafpm=dafpm, candidates=candidates, dpm=dpm, fused=fused
    )
