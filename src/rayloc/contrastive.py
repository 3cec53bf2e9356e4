"""Dual-level positive/negative mining and the contrastive objective.

Positive pairs couple an observation with the floorplan crop at its
(perturbed) ground-truth pose. Position-level negatives move the pose within
the same floorplan (at a controlled distance band) or into other floorplans;
orientation-level negatives keep the position and rotate the heading.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from .crops import N_TEXTURE_IDS, Crop, CropSpec, extract_crop, pool_crop
from .errors import (
    ConfigurationError,
    MiningExhaustedError,
    TrainingFailureError,
    ValidationError,
)
from .floorplan import TWO_PI, FloorPlan, Pose, _read_tensor, _write_tensor

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
        if not (self.pos_b >= 0 and self.ang_b >= 0):
            raise ValidationError("perturbation bounds must be >= 0")


@dataclass(frozen=True)
class MiningSpec:
    """Negative mining. The ``n_ori`` orientation-level negatives are the
    anchor's pose turned in place by ``ori_neg_rotation * 2j / (n_ori + 1)``
    for j = 1..n_ori: evenly spaced turns centred on ``ori_neg_rotation``, so
    the default pi gives 180 degrees for one and 90, 180 and 270 for three."""

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
        if not math.isfinite(self.ori_neg_rotation):
            raise ValidationError(f"ori_neg_rotation must be finite, got {self.ori_neg_rotation}")
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
        for name, arr in arrays.items():
            # an empty family keeps the embedding width
            object.__setattr__(self, name, arr if arr.size else np.zeros((0, dim)))
        n_anchors, n_positives = len(self.anchors), len(self.positives)
        pairs = self.pairs
        if pairs is None:
            if n_anchors != n_positives:
                raise ValidationError("default pairing needs equal anchor/positive counts")
            pairs = tuple((j, j) for j in range(n_anchors))
        pairs = tuple((int(j), int(l)) for j, l in pairs)
        for j, l in pairs:
            if not (0 <= j < n_anchors and 0 <= l < n_positives):
                raise ValidationError(
                    f"pair {(j, l)} out of range: {n_anchors} anchors, {n_positives} positives"
                )
        object.__setattr__(self, "pairs", pairs)

    @property
    def dim(self) -> int:
        return self.anchors.shape[1]


# ---------------------------------------------------------------------------
# Loss and analytic gradients
# ---------------------------------------------------------------------------


def _check_denominator(denominator: str) -> None:
    if denominator not in (DENOM_NEGATIVES_ONLY, DENOM_WITH_POSITIVE):
        raise ValidationError(f"unknown denominator mode {denominator!r}")


def _slot_nce(rows, anchors, slot_rows, valid, tau: float, denominator: str):
    """Each sample's loss and its gradient with respect to the similarities
    rows[slot_rows[s]] . anchors[s] of its (S, C) slots: slot 0 is the
    positive, the rest are negatives and ~valid marks a padded slot. Each
    log-sum-exp is shifted by its maximum, so a small tau cannot overflow."""
    _check_denominator(denominator)
    logits = np.einsum("sce,se->sc", rows[slot_rows], anchors) / tau
    logits[~valid] = -np.inf
    start = 0 if denominator == DENOM_WITH_POSITIVE else 1
    scored = logits[:, start:]
    m = scored.max(axis=1, keepdims=True)
    log_z = m[:, 0] + np.log(np.exp(scored - m).sum(axis=1))
    d_logits = np.zeros_like(logits)
    d_logits[:, start:] = np.exp(scored - log_z[:, None])
    d_logits[:, 0] -= 1.0
    return -logits[:, 0] + log_z, d_logits / tau


def _pair_slots(positives, pos_negs, ori_negs, pairs):
    """The batch as slots, one sample per pair p: the rows are the positives,
    then the shared negatives, and p reads its positive and every negative."""
    j, l = np.asarray(pairs, dtype=int).reshape(-1, 2).T
    rows = np.vstack([positives, pos_negs, ori_negs])
    negatives = np.arange(len(positives), len(rows))
    slot_rows = np.column_stack([l, np.broadcast_to(negatives, (len(l), negatives.size))])
    return j, rows, slot_rows, np.ones(slot_rows.shape, dtype=bool)


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
    j, rows, slot_rows, valid = _pair_slots(positives, pos_negs, ori_negs, pairs)
    return float(_slot_nce(rows, anchors[j], slot_rows, valid, tau, denominator)[0].sum())


def _raw_args(batch: ContrastiveBatch) -> tuple:
    """A batch's embeddings, pairs and tau in the raw functions' argument order."""
    return (
        batch.anchors, batch.positives, batch.position_negatives,
        batch.orientation_negatives, batch.pairs, batch.tau,
    )


def point_info_nce(
    batch: ContrastiveBatch, denominator: str = DENOM_NEGATIVES_ONLY
) -> float:
    """Contrastive loss over the batch.

    "negatives-only" (default) divides exp(f.g+ / tau) by the sum of
    exponentiated negative similarities alone; "with-positive" adds the
    positive term to the denominator (the standard InfoNCE form).
    """
    return _nce_loss_raw(*_raw_args(batch), denominator)


def _nce_grad_raw(
    anchors: np.ndarray,
    positives: np.ndarray,
    pos_negs: np.ndarray,
    ori_negs: np.ndarray,
    pairs,
    tau: float,
    denominator: str,
) -> dict[str, np.ndarray]:
    j, rows, slot_rows, valid = _pair_slots(positives, pos_negs, ori_negs, pairs)
    a = anchors[j]
    d = _slot_nce(rows, a, slot_rows, valid, tau, denominator)[1]
    g_anchor = np.zeros_like(anchors)
    d_pn, d_on = np.split(d[:, 1:], [len(pos_negs)], axis=1)
    np.add.at(g_anchor, j, d[:, :1] * positives[slot_rows[:, 0]] + d_pn @ pos_negs + d_on @ ori_negs)
    g_rows = _slot_backprop(slot_rows, valid, a, len(rows))(d)
    g_pos, g_pn, g_on = np.split(g_rows, np.cumsum([len(positives), len(pos_negs)]))
    return {
        "anchors": g_anchor,
        "positives": g_pos,
        "position_negatives": g_pn,
        "orientation_negatives": g_on,
    }


def point_info_nce_grad(
    batch: ContrastiveBatch, denominator: str = DENOM_NEGATIVES_ONLY
) -> dict[str, np.ndarray]:
    """Exact gradient of point_info_nce with respect to every embedding."""
    return _nce_grad_raw(*_raw_args(batch), denominator)


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
    free_rc = plan._free_cells
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

    n_ori = mining.n_ori
    turns = [mining.ori_neg_rotation * (2 * j / (n_ori + 1)) for j in range(1, n_ori + 1)]
    orientation_negatives = [extract_crop(plan, gt.rotated(turn), crop) for turn in turns]
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


def crop_features(crop: Crop) -> np.ndarray:
    """Fixed featurization of a crop for the linear embedder, in its own array: block-averaged
    occupancy plus, with a texture channel, each block's share of each texture id."""
    means, _ = pool_crop(crop)
    return means[: 1 if crop.texture() is None else 1 + N_TEXTURE_IDS].flatten()


@dataclass(frozen=True)
class LinearEmbedder:
    """Unit-normalized linear map from crop feature vectors to dimension E."""

    weights: np.ndarray  # (E, F)

    def embed_features(self, feats: np.ndarray) -> np.ndarray:
        if np.shape(feats) != self.weights.shape[1:]:
            raise ValidationError(
                f"embedder weights take {self.weights.shape[1]} features, "
                f"got shape {np.shape(feats)}"
            )
        u = self.weights @ feats
        norm = np.linalg.norm(u)
        if norm < 1e-12:
            raise ValidationError("degenerate embedding (zero after projection)")
        return u / norm

    def embed_crop(self, crop: Crop) -> np.ndarray:
        return self.embed_features(crop_features(crop))


@dataclass(frozen=True)
class TrainingSample:
    """One anchor for embedder training: a frozen visual-side embedding plus
    the feature vectors of its positive and negative crops. peer_indices name
    samples whose positive_features are extra position negatives, after the
    mined ones; they index the list that is trained on."""

    anchor_embedding: np.ndarray  # (E,) unit-norm, frozen
    positive_features: np.ndarray  # (F,)
    position_negative_features: np.ndarray  # (Mp, F)
    orientation_negative_features: np.ndarray  # (Ma, F)
    peer_indices: tuple[int, ...] = ()


def build_training_samples(
    mined: list[MinedSample],
    anchor_embeddings: np.ndarray,
) -> list[TrainingSample]:
    if len(mined) != len(anchor_embeddings):
        raise ValidationError("one anchor embedding per mined sample required")
    samples = []
    for sample, emb in zip(mined, anchor_embeddings):
        positive = crop_features(sample.positive)
        negatives = (  # position, then orientation negatives
            np.reshape([crop_features(c) for c in crops], (-1, positive.size))
            for crops in (sample.position_negatives, sample.orientation_negatives)
        )
        samples.append(TrainingSample(np.asarray(emb, dtype=float), positive, *negatives))
    return samples


def _indices(values, n: int, what: str) -> list[int]:
    """values, each an int in [0, n): a negative index would wrap, a float truncate."""
    values = list(values)
    for v in values:
        if not (isinstance(v, numbers.Integral) and 0 <= v < n):
            raise ValidationError(f"{what} {v!r} is not an index in [0, {n})")
    return values


def add_peer_negatives(
    samples: list[TrainingSample],
    dataset: list[tuple[FloorPlan, Pose]],
    n_peers: int,
    min_dist: float = 1.5,
    seed: int = 0,
    pool: list[int] | None = None,
) -> list[TrainingSample]:
    """Give each sample other anchors' positive crops as extra position
    negatives, recorded by index in ``peer_indices``; no feature row is copied.

    Mined negatives are a sparse sample of crop space; reusing peers'
    positives (the in-batch-negative idiom) exposes each anchor to the same
    crop population it is ranked against at retrieval time. Peers on the same
    floorplan closer than ``min_dist`` to the anchor are excluded so that
    near-duplicates of the positive are never pushed away. ``pool`` restricts
    eligible peers, each an index into ``samples``; a caller that trains on a
    prefix of the samples must keep the peers in it (e.g. ``pool=range(n_train)``).
    Deterministic per anchor."""
    if len(samples) != len(dataset):
        raise ValidationError("samples and dataset must be aligned")
    if n_peers < 1:
        return list(samples)
    pool = range(len(samples)) if pool is None else pool
    candidates = np.array(_indices(pool, len(samples), "pool entry"), dtype=int)
    plan_ids = {}  # floorplans compare by identity, as in mine_samples
    plan_of = np.array([plan_ids.setdefault(id(plan), len(plan_ids)) for plan, _ in dataset])
    xy = np.array([(gt.x, gt.y) for _, gt in dataset]).reshape(-1, 2)
    cand_plan, cand_xy = plan_of[candidates], xy[candidates]
    out = []
    for j, s in enumerate(samples):
        dx, dy = (cand_xy - xy[j]).T
        dist = np.hypot(dx, dy)
        # np.hypot and math.hypot can differ by an ulp; distances within
        # rounding of min_dist are taken from math.hypot, the scalar definition
        for i in np.flatnonzero(np.abs(dist - min_dist) <= 1e-12 * min_dist):
            dist[i] = math.hypot(dx[i], dy[i])
        far = (cand_plan != plan_of[j]) | (dist >= min_dist)
        eligible = candidates[(candidates != j) & far]
        if len(eligible) < n_peers:
            raise MiningExhaustedError(
                f"anchor {j}: only {len(eligible)} eligible peers for {n_peers} requested"
            )
        rng = np.random.default_rng(np.random.SeedSequence([seed, j]))
        peers = rng.choice(len(eligible), size=n_peers, replace=False)
        out.append(replace(s, peer_indices=s.peer_indices + tuple(eligible[peers].tolist())))
    return out


def train_linear_embedder(
    samples: list[TrainingSample],
    dim: int = 32,
    epochs: int = 100,
    learning_rate: float = 0.05,
    seed: int = 0,
    tau: float = DEFAULT_TAU,
    denominator: str = DENOM_WITH_POSITIVE,
) -> tuple[LinearEmbedder, np.ndarray]:
    """Full-batch gradient descent of the contrastive loss over a linear
    crop embedder; the visual-side (anchor) embeddings stay frozen.

    Each sample's peer_indices index ``samples``, the list trained on.
    Returns the trained embedder and the per-epoch mean loss trace.
    Deterministic given the seed.
    """
    if not samples:
        raise ValidationError("sample set must be nonempty")
    for name, value, low in (("dim", dim, 2), ("epochs", epochs, 1), ("seed", seed, 0)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValidationError(f"{name} must be an integer, got {value!r}")
        if value < low:
            raise ValidationError(f"{name} must be >= {low}, got {value}")
    for name, value in (("learning_rate", learning_rate), ("tau", tau)):
        if not (math.isfinite(value) and value > 0):
            raise ValidationError(f"{name} must be finite and > 0, got {value}")
    _check_denominator(denominator)

    n_features = samples[0].positive_features.size
    for s in samples:
        _indices(s.peer_indices, len(samples), "peer index")
        n_mined = len(s.position_negative_features) + len(s.orientation_negative_features)
        if n_mined + len(s.peer_indices) == 0:
            raise ConfigurationError("every anchor needs at least one negative")
        if (
            s.positive_features.shape != (n_features,)
            or s.position_negative_features.shape[1:] != (n_features,)
            or s.orientation_negative_features.shape[1:] != (n_features,)
        ):
            raise ValidationError(
                f"every crop needs {n_features} features (positive_features, "
                "position_negative_features and orientation_negative_features)"
            )
        anchor = np.asarray(s.anchor_embedding)
        if anchor.shape != (dim,) or not np.isfinite(anchor).all():
            raise ValidationError(
                f"every anchor_embedding must be a finite vector of length dim={dim}, "
                f"got shape {anchor.shape}"
            )
    rng = np.random.default_rng(seed)
    weights = rng.normal(scale=1.0 / math.sqrt(n_features), size=(dim, n_features))
    weights, trace = _train_batched(samples, weights, epochs, learning_rate, tau, denominator)
    return LinearEmbedder(weights=weights), trace


def _slot_rows(samples: list[TrainingSample]) -> tuple[np.ndarray, np.ndarray]:
    """The (S, C) row of the training matrix that each sample's crop slots
    read, padded with row 0, and the mask of real slots. The rows are every
    sample's positive, then each sample's mined position and orientation
    negatives; a sample's slots are its positive, mined position negatives,
    peers' positives, then orientation negatives."""
    slot_rows, counts = [], []
    start = len(samples)  # the sample's first mined row
    for i, s in enumerate(samples):
        ori_start = start + len(s.position_negative_features)
        end = ori_start + len(s.orientation_negative_features)
        rows = [i, *range(start, ori_start), *s.peer_indices, *range(ori_start, end)]
        slot_rows += rows
        counts.append(len(rows))
        start = end
    valid = np.arange(max(counts))[None, :] < np.array(counts)[:, None]
    padded_rows = np.zeros(valid.shape, dtype=int)
    padded_rows[valid] = slot_rows
    return padded_rows, valid


def _slot_backprop(padded_rows, valid, anchors: np.ndarray, n_shared: int):
    """The backprop of the slot gather: a function from the (S, C) slot
    gradients d to each row's d_g[r], the sum of d[s, c] * anchors[s] over
    the real slots (s, c) that read row r.

    Each row sums its terms sample by sample and slot by slot from zero, as a
    sparse (rows x samples) matrix product does, with the same bits for
    anchors of two or more dimensions. A row from n_shared on (a mined row) is
    read by one slot, in row order, so its gradient is one product. A shared
    row may be read by any slots: a padded (n_shared, M) table lists those
    cells in slot order, and its spare cells read a zero."""
    n_slots = valid.shape[1]
    cells = np.flatnonzero(valid)  # in the order of padded_rows[valid]
    rows = padded_rows[valid]
    mined = rows >= n_shared
    mined_cells = cells[mined]
    mined_samples = mined_cells // n_slots
    rows, cells = rows[~mined], cells[~mined]
    reads = np.bincount(rows, minlength=n_shared)
    read = np.arange(reads.max())[None, :] < reads[:, None]  # (n_shared, M)
    table = np.full(read.shape, valid.size)  # a spare cell reads the appended zero
    table[read] = cells[np.argsort(rows, kind="stable")]  # slot order within a row
    table_samples = np.where(read, table // n_slots, 0)
    # shared rows go in blocks of about 1 MB of gathered anchors, sorted by
    # read count so that each block's table is cut to its widest row
    per_block = max(1, 2**17 // (max(1, read.shape[1]) * anchors.shape[1]))
    by_reads = np.argsort(reads, kind="stable")
    blocks = []
    for lo in range(0, n_shared, per_block):
        rows_b = by_reads[lo : lo + per_block]
        width = reads[rows_b[-1]]
        blocks.append((rows_b, table[rows_b, :width], table_samples[rows_b, :width]))

    def backprop(d_slots: np.ndarray) -> np.ndarray:
        d = np.append(d_slots, 0.0)
        d_g = np.empty((n_shared + len(mined_cells), anchors.shape[1]))
        # mode="clip" lets take write straight into d_g; every index is valid
        mined_g = np.take(anchors, mined_samples, axis=0, out=d_g[n_shared:], mode="clip")
        np.multiply(mined_g, d[mined_cells, None], out=mined_g)
        mined_g += 0.0  # as a sum from zero: a zero product is +0.0, never -0.0
        for rows_b, cells_b, samples_b in blocks:
            d_g[rows_b] = np.einsum("sm,sme->se", d[cells_b], anchors[samples_b])
        return d_g

    return backprop


def _train_batched(
    samples: list[TrainingSample],
    weights: np.ndarray,
    epochs: int,
    learning_rate: float,
    tau: float,
    denominator: str,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized full-batch descent. The rows of x are every sample's
    positive, then every sample's mined crops (see _slot_rows), so a peer's
    slot reads the row of its positive rather than a copy of it. Crops are
    embedded over the feature columns that are non-zero in some crop; the
    other columns get an exactly zero gradient and keep their weights. Samples
    with fewer crops are padded to the largest count with -inf logits, which
    have a zero gradient."""
    n = len(samples)
    blocks = [s.positive_features[None, :] for s in samples] + [
        f for s in samples for f in (s.position_negative_features, s.orientation_negative_features)
    ]
    live = np.flatnonzero(np.any([f.any(axis=0) for f in blocks], axis=0))
    bounds = np.cumsum([0] + [len(f) for f in blocks])
    x = np.empty((bounds[-1], live.size))
    for f, lo, hi in zip(blocks, bounds, bounds[1:]):
        x[lo:hi] = f[:, live]  # no full-width copy is made

    padded_rows, valid = _slot_rows(samples)
    anchors = np.stack([s.anchor_embedding for s in samples])  # (S, E)
    backprop = _slot_backprop(padded_rows, valid, anchors, n)

    w = weights[:, live]
    trace = np.empty(epochs)
    for epoch in range(epochs):
        u = x @ w.T  # (U, E)
        norms = np.linalg.norm(u, axis=1)
        if np.any(norms < 1e-12):
            raise TrainingFailureError(epoch, "degenerate embedding during training")
        g = np.divide(u, norms[:, None], out=u)  # in place: u is not needed again
        losses, d_slots = _slot_nce(g, anchors, padded_rows, valid, tau, denominator)
        mean_loss = float(losses.mean())
        if not math.isfinite(mean_loss):
            raise TrainingFailureError(epoch)
        trace[epoch] = mean_loss

        d_g = backprop(d_slots)  # (U, E)
        # backprop through the unit normalization
        inner = np.einsum("ke,ke->k", g, d_g)
        d_u = np.divide(d_g - g * inner[:, None], norms[:, None], out=d_g)
        w = w - learning_rate * (d_u.T @ x) / n
    weights = weights.copy()
    weights[:, live] = w
    return weights, trace


# ---------------------------------------------------------------------------
# Embedding file format and sample manifests
# ---------------------------------------------------------------------------


def write_embeddings(path: str, embeddings: np.ndarray) -> None:
    """EMB1 tensor file of (count, dim) embeddings. Lets externally computed
    embeddings be dropped in."""
    _write_tensor(path, EMB_MAGIC, np.atleast_2d(np.asarray(embeddings, dtype=float)))


def read_embeddings(path: str) -> np.ndarray:
    return _read_tensor(path, EMB_MAGIC, 2)


def write_sample_manifest(path: str, records: list[dict]) -> None:
    """JSON lines, one record per anchor with crop file paths and roles."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(record, sort_keys=True) + "\n" for record in records)


def read_sample_manifest(path: str) -> list[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]
