"""Dual-level positive/negative mining and the contrastive objective.

Positive pairs couple an observation with the floorplan crop at its
(perturbed) ground-truth pose. Position-level negatives move the pose within
the same floorplan (at a controlled distance band) or into other floorplans;
orientation-level negatives keep the position and rotate the heading.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .crops import Crop, CropSpec, block_mean, extract_crop
from .errors import (
    ConfigurationError,
    FormatError,
    MiningExhaustedError,
    TrainingFailureError,
    ValidationError,
)
from .floorplan import TWO_PI, FloorPlan, Pose

DEFAULT_TAU = 0.07
UNIT_NORM_TOL = 1e-6
MAX_MINING_RETRIES = 200

EMB_MAGIC = b"EMB1"

DENOM_NEGATIVES_ONLY = "negatives-only"
DENOM_WITH_POSITIVE = "with-positive"


@dataclass(frozen=True)
class PerturbSpec:
    """Uniform positive-sample perturbation: radius u ~ U(0, pos_b) with a
    random direction, angle u ~ U(0, ang_b) with a random sign."""

    pos_b: float = 0.5  # meters
    ang_b: float = 0.26  # radians

    def __post_init__(self):
        if self.pos_b < 0 or self.ang_b < 0:
            raise ValidationError("perturbation bounds must be >= 0")


@dataclass(frozen=True)
class MiningSpec:
    inner_neg_dist: tuple[float, float] = (1.5, 3.0)  # meters from GT
    ori_neg_rotation: float = math.pi
    n_inner: int = 1
    n_cross: int = 8
    n_ori: int = 1
    seed: int = 0

    def __post_init__(self):
        lo, hi = self.inner_neg_dist
        if not lo < hi:
            raise ValidationError("inner_neg_dist must be a (lower, upper) interval")
        if min(self.n_inner, self.n_cross, self.n_ori) < 0:
            raise ValidationError("negative counts must be >= 0")
        if self.n_inner + self.n_cross + self.n_ori < 1:
            raise ValidationError("at least one negative sample is required")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class MinedSample:
    positive: Crop
    position_negatives: tuple[Crop, ...]
    orientation_negatives: tuple[Crop, ...]
    anchor_pose: Pose
    cross_plan_indices: tuple[int, ...] = ()


@dataclass(frozen=True)
class ContrastiveBatch:
    """Unit-norm embeddings for one loss evaluation.

    pairs lists (anchor_index, positive_index); the denominators sum over
    every position-level and orientation-level negative for the pair's anchor.
    """

    anchors: np.ndarray  # (J, E)
    positives: np.ndarray  # (L, E)
    position_negatives: np.ndarray  # (Mp, E)
    orientation_negatives: np.ndarray  # (Ma, E)
    pairs: tuple[tuple[int, int], ...] = field(default=None)
    tau: float = DEFAULT_TAU

    def __post_init__(self):
        arrays = {}
        dim = None
        for name in ("anchors", "positives", "position_negatives", "orientation_negatives"):
            arr = np.atleast_2d(np.asarray(getattr(self, name), dtype=float))
            if arr.size:
                if dim is None:
                    dim = arr.shape[1]
                elif arr.shape[1] != dim:
                    raise ValidationError(f"{name}: embedding dimension mismatch")
                norms = np.linalg.norm(arr, axis=1)
                if np.any(np.abs(norms - 1.0) > UNIT_NORM_TOL):
                    raise ValidationError(f"{name}: embeddings must be unit-norm")
            arr = arr.copy()
            arr.setflags(write=False)
            arrays[name] = arr
        if arrays["position_negatives"].size + arrays["orientation_negatives"].size == 0:
            raise ValidationError("batch needs at least one negative embedding")
        if not self.tau > 0:
            raise ValidationError("tau must be > 0")
        pairs = self.pairs
        if pairs is None:
            if arrays["anchors"].shape[0] != arrays["positives"].shape[0]:
                raise ValidationError("default pairing needs equal anchor/positive counts")
            pairs = tuple((j, j) for j in range(arrays["anchors"].shape[0]))
        for name, arr in arrays.items():
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "pairs", tuple((int(j), int(l)) for j, l in pairs))

    @property
    def dim(self) -> int:
        return self.anchors.shape[1]


# ---------------------------------------------------------------------------
# Loss and analytic gradients
# ---------------------------------------------------------------------------


def _nce_loss_raw(
    anchors: np.ndarray,
    positives: np.ndarray,
    pos_negs: np.ndarray,
    ori_negs: np.ndarray,
    pairs,
    tau: float,
    denominator: str,
) -> float:
    """Loss on raw arrays without norm validation (finite differences need to
    evaluate at slightly off-sphere points)."""
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


def _check_denominator(denominator: str) -> None:
    if denominator not in (DENOM_NEGATIVES_ONLY, DENOM_WITH_POSITIVE):
        raise ValidationError(f"unknown denominator mode {denominator!r}")


def point_info_nce(
    batch: ContrastiveBatch, denominator: str = DENOM_NEGATIVES_ONLY
) -> float:
    """Contrastive loss over the batch.

    "negatives-only" (default) divides exp(f.g+ / tau) by the sum of
    exponentiated negative similarities alone; "with-positive" adds the
    positive term to the denominator (the standard InfoNCE form).
    """
    _check_denominator(denominator)
    return _nce_loss_raw(
        batch.anchors,
        batch.positives,
        batch.position_negatives,
        batch.orientation_negatives,
        batch.pairs,
        batch.tau,
        denominator,
    )


def _nce_grad_raw(
    anchors: np.ndarray,
    positives: np.ndarray,
    pos_negs: np.ndarray,
    ori_negs: np.ndarray,
    pairs,
    tau: float,
    denominator: str,
) -> dict[str, np.ndarray]:
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


def point_info_nce_grad(
    batch: ContrastiveBatch, denominator: str = DENOM_NEGATIVES_ONLY
) -> dict[str, np.ndarray]:
    """Exact gradient of point_info_nce with respect to every embedding."""
    _check_denominator(denominator)
    return _nce_grad_raw(
        batch.anchors,
        batch.positives,
        batch.position_negatives,
        batch.orientation_negatives,
        batch.pairs,
        batch.tau,
        denominator,
    )


# ---------------------------------------------------------------------------
# Sample mining
# ---------------------------------------------------------------------------


def _anchor_rng(seed: int, anchor_index: int) -> np.random.Generator:
    # per-anchor stream: independent and reproducible regardless of the order
    # anchors are mined in
    return np.random.default_rng(np.random.SeedSequence([seed, anchor_index]))


def _perturbed_pose(rng: np.random.Generator, pose: Pose, perturb: PerturbSpec, plan: FloorPlan) -> Pose:
    for _ in range(MAX_MINING_RETRIES):
        radius = rng.uniform(0.0, perturb.pos_b) if perturb.pos_b > 0 else 0.0
        direction = rng.uniform(0.0, TWO_PI)
        d_theta = rng.uniform(0.0, perturb.ang_b) if perturb.ang_b > 0 else 0.0
        sign = 1.0 if rng.random() < 0.5 else -1.0
        cand = Pose(
            pose.x + radius * math.cos(direction),
            pose.y + radius * math.sin(direction),
            pose.theta + sign * d_theta,
        )
        if plan.is_free(cand.x, cand.y):
            return cand
    raise MiningExhaustedError("could not place a free perturbed positive pose")


def _inner_negative_pose(
    rng: np.random.Generator, gt: Pose, band: tuple[float, float], plan: FloorPlan
) -> Pose:
    lo, hi = band
    for _ in range(MAX_MINING_RETRIES):
        dist = rng.uniform(lo, hi)
        direction = rng.uniform(0.0, TWO_PI)
        x = gt.x + dist * math.cos(direction)
        y = gt.y + dist * math.sin(direction)
        if plan.is_free(x, y):
            return Pose(x, y, rng.uniform(0.0, TWO_PI))
    raise MiningExhaustedError(
        f"no free pose found {lo}-{hi} m from the anchor after {MAX_MINING_RETRIES} tries"
    )


def _random_free_pose(rng: np.random.Generator, plan: FloorPlan) -> Pose:
    free_rc = np.argwhere(~plan.occupancy)
    if free_rc.size == 0:
        raise MiningExhaustedError("floorplan has no free cells")
    r, c = free_rc[rng.integers(free_rc.shape[0])]
    x, y = plan.cell_center(int(r), int(c))
    return Pose(x, y, rng.uniform(0.0, TWO_PI))


def mine_samples(
    dataset: list[tuple[FloorPlan, Pose]],
    anchor_index: int,
    perturb: PerturbSpec,
    mining: MiningSpec,
    crop: CropSpec,
) -> MinedSample:
    """Mine the positive and both negative families for one anchor.

    Deterministic given mining.seed and anchor_index (per-anchor splittable
    random streams, so anchors can be mined concurrently in any order).
    """
    if not dataset:
        raise ValidationError("dataset must be nonempty")
    if not 0 <= anchor_index < len(dataset):
        raise ValidationError(f"anchor_index {anchor_index} out of range")
    plan, gt = dataset[anchor_index]
    others = [i for i, (p, _) in enumerate(dataset) if p is not plan]
    if mining.n_cross > 0 and not others:
        raise ConfigurationError(
            "cross-floorplan negatives require at least two floorplans"
        )
    rng = _anchor_rng(mining.seed, anchor_index)

    positive = extract_crop(plan, _perturbed_pose(rng, gt, perturb, plan), crop)

    position_negatives = []
    cross_indices = []
    for _ in range(mining.n_inner):
        pose = _inner_negative_pose(rng, gt, mining.inner_neg_dist, plan)
        position_negatives.append(extract_crop(plan, pose, crop))
    for _ in range(mining.n_cross):
        other = others[rng.integers(len(others))]
        other_plan = dataset[other][0]
        pose = _random_free_pose(rng, other_plan)
        position_negatives.append(extract_crop(other_plan, pose, crop))
        cross_indices.append(other)

    orientation_negatives = [
        extract_crop(plan, gt.rotated(mining.ori_neg_rotation), crop)
        for _ in range(mining.n_ori)
    ]
    return MinedSample(
        positive=positive,
        position_negatives=tuple(position_negatives),
        orientation_negatives=tuple(orientation_negatives),
        anchor_pose=gt,
        cross_plan_indices=tuple(cross_indices),
    )


# ---------------------------------------------------------------------------
# Trainable linear embedder over crop features
# ---------------------------------------------------------------------------


def crop_features(crop: Crop, n_texture_ids: int = 16, blocks: int = 8) -> np.ndarray:
    """Fixed featurization of a crop for the linear embedder: block-averaged
    occupancy plus block-averaged one-hot texture indicator maps (texture ids
    are categorical, so they are one-hot encoded before flattening)."""
    maps = crop.occupancy()[None]
    tex = crop.texture()
    if tex is not None:
        ids = np.arange(1, n_texture_ids + 1)[:, None, None]
        maps = np.concatenate([maps, tex[None] == ids])
    return block_mean(maps, blocks).ravel()


@dataclass(frozen=True)
class LinearEmbedder:
    """Unit-normalized linear map from crop feature vectors to dimension E."""

    weights: np.ndarray  # (E, F)
    n_texture_ids: int = 16
    blocks: int = 8

    def embed_features(self, feats: np.ndarray) -> np.ndarray:
        u = self.weights @ feats
        norm = np.linalg.norm(u)
        if norm < 1e-12:
            raise ValidationError("degenerate embedding (zero after projection)")
        return u / norm

    def embed_crop(self, crop: Crop) -> np.ndarray:
        return self.embed_features(crop_features(crop, self.n_texture_ids, self.blocks))

    def __call__(self, crop: Crop) -> np.ndarray:
        return self.embed_crop(crop)


@dataclass(frozen=True)
class TrainingSample:
    """One anchor for embedder training: a frozen visual-side embedding plus
    the feature vectors of its positive and negative crops."""

    anchor_embedding: np.ndarray  # (E,) unit-norm, frozen
    positive_features: np.ndarray  # (F,)
    position_negative_features: np.ndarray  # (Mp, F)
    orientation_negative_features: np.ndarray  # (Ma, F)


def build_training_samples(
    mined: list[MinedSample],
    anchor_embeddings: np.ndarray,
    n_texture_ids: int = 16,
    blocks: int = 8,
) -> list[TrainingSample]:
    if len(mined) != len(anchor_embeddings):
        raise ValidationError("one anchor embedding per mined sample required")
    samples = []
    for sample, emb in zip(mined, anchor_embeddings):
        positive = crop_features(sample.positive, n_texture_ids, blocks)
        position_negatives, orientation_negatives = (
            np.reshape(
                [crop_features(c, n_texture_ids, blocks) for c in crops],
                (-1, positive.size),
            )
            for crops in (sample.position_negatives, sample.orientation_negatives)
        )
        samples.append(
            TrainingSample(
                anchor_embedding=np.asarray(emb, dtype=float),
                positive_features=positive,
                position_negative_features=position_negatives,
                orientation_negative_features=orientation_negatives,
            )
        )
    return samples


def add_peer_negatives(
    samples: list[TrainingSample],
    dataset: list[tuple[FloorPlan, Pose]],
    n_peers: int,
    min_dist: float = 1.5,
    seed: int = 0,
    pool: list[int] | None = None,
) -> list[TrainingSample]:
    """Append other anchors' positive crops as extra position negatives.

    Mined negatives are a sparse sample of crop space; reusing peers'
    positives (the in-batch-negative idiom) exposes each anchor to the same
    crop population it is ranked against at retrieval time. Peers on the same
    floorplan closer than ``min_dist`` to the anchor are excluded so that
    near-duplicates of the positive are never pushed away. ``pool`` restricts
    eligible peers (e.g. to the training split). Deterministic per anchor."""
    if len(samples) != len(dataset):
        raise ValidationError("samples and dataset must be aligned")
    if n_peers < 1:
        return list(samples)
    candidates = list(range(len(samples))) if pool is None else list(pool)
    out = []
    for j, s in enumerate(samples):
        plan, gt = dataset[j]
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
            raise MiningExhaustedError(
                f"anchor {j}: only {len(eligible)} eligible peers for {n_peers} requested"
            )
        rng = np.random.default_rng(np.random.SeedSequence([seed, j]))
        peers = rng.choice(len(eligible), size=n_peers, replace=False)
        extra = np.stack([samples[eligible[int(k)]].positive_features for k in peers])
        out.append(
            TrainingSample(
                anchor_embedding=s.anchor_embedding,
                positive_features=s.positive_features,
                position_negative_features=np.vstack(
                    [s.position_negative_features, extra]
                )
                if s.position_negative_features.size
                else extra,
                orientation_negative_features=s.orientation_negative_features,
            )
        )
    return out


def train_linear_embedder(
    samples: list[TrainingSample],
    dim: int = 32,
    epochs: int = 100,
    learning_rate: float = 0.05,
    seed: int = 0,
    tau: float = DEFAULT_TAU,
    denominator: str = DENOM_WITH_POSITIVE,
    n_texture_ids: int = 16,
    blocks: int = 8,
) -> tuple[LinearEmbedder, np.ndarray]:
    """Full-batch gradient descent of the contrastive loss over a linear
    crop embedder; the visual-side (anchor) embeddings stay frozen.

    Returns the trained embedder and the per-epoch mean loss trace.
    Deterministic given the seed.
    """
    if not samples:
        raise ValidationError("sample set must be nonempty")
    if dim < 2:
        raise ValidationError("embedding dimension must be >= 2")
    for s in samples:
        if s.position_negative_features.shape[0] + s.orientation_negative_features.shape[0] == 0:
            raise ConfigurationError("every anchor needs at least one negative")
    _check_denominator(denominator)

    n_features = samples[0].positive_features.size
    for s in samples:
        if (
            s.positive_features.shape != (n_features,)
            or s.position_negative_features.shape[1:] != (n_features,)
            or s.orientation_negative_features.shape[1:] != (n_features,)
        ):
            raise ValidationError(
                f"every crop needs {n_features} features (positive_features, "
                "position_negative_features and orientation_negative_features)"
            )
    rng = np.random.default_rng(seed)
    weights = rng.normal(scale=1.0 / math.sqrt(n_features), size=(dim, n_features))
    weights, trace = _train_batched(samples, weights, epochs, learning_rate, tau, denominator)
    return (
        LinearEmbedder(weights=weights, n_texture_ids=n_texture_ids, blocks=blocks),
        trace,
    )


def _train_batched(
    samples: list[TrainingSample],
    weights: np.ndarray,
    epochs: int,
    learning_rate: float,
    tau: float,
    denominator: str,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized full-batch descent. Crop order per sample: positive, then
    position negatives, then orientation negatives. Samples with fewer crops
    are padded to the largest count; a padded slot has a -inf logit, a norm
    of 1 and so a zero gradient."""
    n = len(samples)
    counts = np.array(
        [
            1 + s.position_negative_features.shape[0] + s.orientation_negative_features.shape[0]
            for s in samples
        ]
    )
    n_crops = int(counts.max())
    feats = np.zeros((n, n_crops, weights.shape[1]))  # (S, C, F)
    for i, s in enumerate(samples):
        feats[i, : counts[i]] = np.vstack(
            [
                s.positive_features[None, :],
                s.position_negative_features,
                s.orientation_negative_features,
            ]
        )
    valid = np.arange(n_crops)[None, :] < counts[:, None]  # (S, C)
    valid_flat = valid.ravel()
    anchors = np.stack([s.anchor_embedding for s in samples])  # (S, E)
    flat = feats.reshape(n * n_crops, -1)

    trace = np.empty(epochs)
    for epoch in range(epochs):
        u = flat @ weights.T  # (S*C, E)
        norms = np.linalg.norm(u, axis=1)
        if np.any(norms[valid_flat] < 1e-12):
            raise TrainingFailureError(epoch, "degenerate embedding during training")
        norms[~valid_flat] = 1.0
        g = u / norms[:, None]
        g3 = g.reshape(n, n_crops, -1)
        sims = np.einsum("se,sce->sc", anchors, g3) / tau  # (S, C)
        sims[~valid] = -np.inf
        s_neg = sims[:, 1:]
        if denominator == DENOM_WITH_POSITIVE:
            m = sims.max(axis=1, keepdims=True)
            log_z = m[:, 0] + np.log(np.exp(sims - m).sum(axis=1))
            p = np.exp(sims - log_z[:, None])  # softmax over all crops
            d_sims = p.copy()
            d_sims[:, 0] -= 1.0
        else:
            m = s_neg.max(axis=1, keepdims=True)
            log_z = m[:, 0] + np.log(np.exp(s_neg - m).sum(axis=1))
            d_sims = np.empty_like(sims)
            d_sims[:, 0] = -1.0
            d_sims[:, 1:] = np.exp(s_neg - log_z[:, None])
        losses = -sims[:, 0] + log_z
        mean_loss = float(losses.mean())
        if not math.isfinite(mean_loss):
            raise TrainingFailureError(epoch)
        trace[epoch] = mean_loss

        d_g = (d_sims / tau)[:, :, None] * anchors[:, None, :]  # (S, C, E)
        d_g_flat = d_g.reshape(n * n_crops, -1)
        # backprop through the unit normalization
        inner = np.einsum("ke,ke->k", g, d_g_flat)
        d_u = (d_g_flat - g * inner[:, None]) / norms[:, None]
        grad_w = d_u.T @ flat
        weights = weights - learning_rate * grad_w / n
    return weights, trace


# ---------------------------------------------------------------------------
# Embedding file format and sample manifests
# ---------------------------------------------------------------------------


def write_embeddings(path: str, embeddings: np.ndarray) -> None:
    """Binary embedding file: magic, count and dimension as u32 little-endian,
    then float32 values. Lets externally computed embeddings be dropped in."""
    arr = np.atleast_2d(np.asarray(embeddings, dtype=float))
    with open(path, "wb") as fh:
        fh.write(EMB_MAGIC)
        fh.write(struct.pack("<II", arr.shape[0], arr.shape[1]))
        fh.write(arr.astype("<f4").tobytes())


def read_embeddings(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != EMB_MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}")
        header = fh.read(8)
        if len(header) != 8:
            raise FormatError(f"{path}: truncated header")
        count, dim = struct.unpack("<II", header)
        data = fh.read(count * dim * 4)
        if len(data) != count * dim * 4:
            raise FormatError(f"{path}: truncated values")
    return np.frombuffer(data, dtype="<f4").reshape(count, dim).astype(float)


def write_sample_manifest(path: str, records: list[dict]) -> None:
    """JSON lines, one record per anchor with crop file paths and roles."""
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True))
            fh.write("\n")


def read_sample_manifest(path: str) -> list[dict]:
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records
