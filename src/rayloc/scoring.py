"""Pose-space discretization and ray-agreement scoring.

The pose posterior ("depth posterior" below) scores every free grid pose by
how well a predicted ray fan matches the fan rendered from the floorplan at
that pose, then normalizes to a probability map over (row, col, orientation).
"""

from __future__ import annotations

import math
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyDomainError, FormatError, ValidationError
from .floorplan import (
    DEFAULT_FOV,
    DEFAULT_MAX_RANGE,
    DEFAULT_N_RAYS,
    TWO_PI,
    FloorPlan,
    Pose,
    cast_rays,
    ray_bearings,
)

DEFAULT_SIGMA = 0.5  # meters; likelihood scale
DEPTH_QUANTUM = 1e-6  # meters; depths are quantized before comparison so that
# congruent geometry produces exactly tied scores (tie-break is then by index)

PROBMAP_MAGIC = b"DPMF"

BLOCK_RAYS = 100_000  # rays cast per table-build block, rounded down to whole cells


def default_cell_stride(resolution: float) -> float:
    """Grid stride rule: the map resolution for coarse maps, 0.1 m otherwise."""
    return resolution if resolution >= 0.1 else 0.1


@dataclass(frozen=True)
class PoseGridSpec:
    """Discretization of (x, y, theta) into rows x cols x orientations."""

    cell_stride: float
    n_orientations: int = 36

    def __post_init__(self):
        if not self.cell_stride > 0:
            raise ValidationError("cell_stride must be > 0")
        if self.n_orientations < 1:
            raise ValidationError("n_orientations must be >= 1")

    def shape_for(self, plan: FloorPlan) -> tuple[int, int]:
        rows = max(1, int(math.floor(plan.height_m / self.cell_stride + 1e-9)))
        cols = max(1, int(math.floor(plan.width_m / self.cell_stride + 1e-9)))
        return rows, cols

    def orientation_centers(self) -> np.ndarray:
        return TWO_PI * np.arange(self.n_orientations) / self.n_orientations

    def cell_centers(
        self, plan: FloorPlan
    ) -> tuple[np.ndarray, np.ndarray]:
        rows, cols = self.shape_for(plan)
        ys = plan.origin[1] + (np.arange(rows) + 0.5) * self.cell_stride
        xs = plan.origin[0] + (np.arange(cols) + 0.5) * self.cell_stride
        return ys, xs


@dataclass(frozen=True)
class ProbMap:
    """Normalized pose posterior over the discretized pose space.

    values has shape (rows, cols, n_orientations), row-major with the
    orientation axis minor; masked (wall / out-of-map) cells are exactly 0 and
    the unmasked entries sum to 1.
    """

    values: np.ndarray
    spec: PoseGridSpec
    mask: np.ndarray  # (rows, cols) bool; True where the cell is free
    origin: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        mask = np.asarray(self.mask, dtype=bool)
        if values.ndim != 3 or values.shape[2] != self.spec.n_orientations:
            raise ValidationError("values must be (rows, cols, n_orientations)")
        if mask.shape != values.shape[:2]:
            raise ValidationError("mask shape must match the spatial grid")
        if np.any(values < 0):
            raise ValidationError("probabilities must be non-negative")
        if np.any(values[~mask] != 0):
            raise ValidationError("masked entries must be exactly 0")
        total = values.sum()
        if not abs(total - 1.0) <= 1e-6:
            raise ValidationError(f"probabilities must sum to 1, got {total}")
        values = values.copy()
        values.setflags(write=False)
        mask = mask.copy()
        mask.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "origin", (float(self.origin[0]), float(self.origin[1])))

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.values.shape

    def pose_of_flat_index(self, idx: int) -> Pose:
        rows, cols, n_ori = self.values.shape
        rc, o = divmod(int(idx), n_ori)
        r, c = divmod(rc, cols)
        x = self.origin[0] + (c + 0.5) * self.spec.cell_stride
        y = self.origin[1] + (r + 0.5) * self.spec.cell_stride
        theta = TWO_PI * o / n_ori
        return Pose(x, y, theta)


@dataclass(frozen=True)
class CandidateSet:
    """Top-scoring grid poses, strictly non-increasing, ties by linear index."""

    poses: tuple[Pose, ...]
    scores: np.ndarray
    linear_indices: np.ndarray = field(default=None)

    def __post_init__(self):
        scores = np.asarray(self.scores, dtype=float)
        if len(self.poses) != scores.size:
            raise ValidationError("poses and scores must have equal length")
        if np.any(np.diff(scores) > 0):
            raise ValidationError("candidate scores must be non-increasing")
        idx = self.linear_indices
        if idx is None:
            idx = np.arange(scores.size, dtype=np.int64)
        idx = np.asarray(idx, dtype=np.int64)
        scores = scores.copy()
        scores.setflags(write=False)
        idx = idx.copy()
        idx.setflags(write=False)
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "linear_indices", idx)
        object.__setattr__(self, "poses", tuple(self.poses))

    def __len__(self) -> int:
        return len(self.poses)


class GridScorer:
    """Precomputes the full table of rendered ray fans for one floorplan and
    one pose grid, then scores predicted fans against it.

    The table is the expensive part (one cast per free cell x orientation x
    ray); queries against it are cheap, so one scorer serves any number of
    localizations on the same map. The table is filled in blocks of whole free
    cells on `threads` worker threads and does not depend on their count.
    """

    def __init__(
        self,
        plan: FloorPlan,
        grid: PoseGridSpec,
        n_rays: int = DEFAULT_N_RAYS,
        fov: float = DEFAULT_FOV,
        max_range: float = DEFAULT_MAX_RANGE,
        threads: int = 1,
    ):
        if threads < 1:
            raise ValidationError(f"threads must be >= 1, got {threads}")
        self.plan = plan
        self.grid = grid
        self.n_rays = n_rays
        self.fov = fov
        self.max_range = max_range

        rows, cols = grid.shape_for(plan)
        self.rows, self.cols = rows, cols
        ys, xs = grid.cell_centers(plan)
        cell_cols = np.floor((xs - plan.origin[0]) / plan.resolution).astype(int)
        cell_rows = np.floor((ys - plan.origin[1]) / plan.resolution).astype(int)
        cell_cols = np.clip(cell_cols, 0, plan.width_cells - 1)
        cell_rows = np.clip(cell_rows, 0, plan.height_cells - 1)
        free = ~plan.occupancy[np.ix_(cell_rows, cell_cols)]
        self.mask = free
        if not free.any():
            raise EmptyDomainError("floorplan has no free pose-grid cells")
        self.free_rc = np.argwhere(free)  # (n_free, 2) as (row, col)
        self.free_y = ys[self.free_rc[:, 0]]
        self.free_x = xs[self.free_rc[:, 1]]

        n_free = self.free_rc.shape[0]
        thetas = grid.orientation_centers()
        # bearings of one cell's rays, orientation-major: (n_ori * n_rays,)
        bearings = np.concatenate([ray_bearings(t, n_rays, fov) for t in thetas])
        per_cell = bearings.size
        cells = max(1, BLOCK_RAYS // per_cell)
        table = np.empty((n_free, grid.n_orientations, n_rays), dtype=float)

        def fill(lo: int) -> None:
            x, y = self.free_x[lo : lo + cells], self.free_y[lo : lo + cells]
            d, _ = cast_rays(
                plan, np.repeat(x, per_cell), np.repeat(y, per_cell),
                np.tile(bearings, x.size), max_range,
            )
            d = np.round(d / DEPTH_QUANTUM) * DEPTH_QUANTUM
            table[lo : lo + x.size] = d.reshape(x.size, *table.shape[1:])

        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(fill, range(0, n_free, cells)))
        self.table = table

    @property
    def n_free(self) -> int:
        return self.free_rc.shape[0]

    def score(self, pred_depths: np.ndarray, sigma: float = DEFAULT_SIGMA) -> ProbMap:
        """Score exp(-mean|pred - rendered| / sigma) per free pose, normalized."""
        if not sigma > 0:
            raise ValidationError("sigma must be > 0")
        pred = np.asarray(pred_depths, dtype=float).ravel()
        if pred.size != self.n_rays:
            raise ValidationError(
                f"predicted fan has {pred.size} rays, scorer expects {self.n_rays}"
            )
        # same tolerance as RayFan: decoded depths can sit an ulp above max_range
        if not np.all((pred >= 0) & (pred <= self.max_range + 1e-12)):
            raise ValidationError(
                f"predicted depths must be finite and lie in [0, {self.max_range}]"
            )
        pred = np.round(pred / DEPTH_QUANTUM) * DEPTH_QUANTUM
        err = np.abs(self.table - pred).mean(axis=2)  # (n_free, n_ori)
        scores = np.exp(-err / sigma)
        total = scores.sum()  # single deterministic reduction
        values = np.zeros((self.rows, self.cols, self.grid.n_orientations))
        values[self.free_rc[:, 0], self.free_rc[:, 1], :] = scores / total
        return ProbMap(
            values=values, spec=self.grid, mask=self.mask, origin=self.plan.origin
        )


def build_dafpm(
    plan: FloorPlan,
    pred_depths: np.ndarray,
    grid: PoseGridSpec,
    sigma: float = DEFAULT_SIGMA,
    scorer: GridScorer | None = None,
    n_rays: int | None = None,
    fov: float = DEFAULT_FOV,
    max_range: float = DEFAULT_MAX_RANGE,
) -> ProbMap:
    """Pose posterior from ray agreement alone.

    Pass a prebuilt :class:`GridScorer` to amortize the rendered-fan table
    across queries on the same map.
    """
    pred = np.asarray(pred_depths, dtype=float).ravel()
    if scorer is None:
        scorer = GridScorer(
            plan, grid, n_rays=n_rays or pred.size, fov=fov, max_range=max_range
        )
    return scorer.score(pred, sigma=sigma)


def argmax_pose(pmap: ProbMap) -> Pose:
    """Pose of the maximal posterior entry; ties go to the lowest linear
    index (row-major, orientation-minor)."""
    flat = pmap.values.reshape(-1)
    if not flat.any():
        raise EmptyDomainError("probability map is all zero")
    return pmap.pose_of_flat_index(int(np.argmax(flat)))


def top_x(pmap: ProbMap, x: int = 100) -> CandidateSet:
    """The x highest-probability free poses (all of them if fewer), with the
    same tie rule as argmax_pose."""
    if x < 1:
        raise ValidationError(f"x must be >= 1, got {x}")
    flat = pmap.values.reshape(-1)
    n_ori = pmap.spec.n_orientations
    free_flat = np.flatnonzero(np.repeat(pmap.mask.reshape(-1), n_ori))
    if free_flat.size == 0:
        raise EmptyDomainError("probability map has no free poses")
    order = np.argsort(-flat[free_flat], kind="stable")
    chosen = free_flat[order[: min(x, free_flat.size)]]
    poses = tuple(pmap.pose_of_flat_index(i) for i in chosen)
    return CandidateSet(poses=poses, scores=flat[chosen], linear_indices=chosen)


# ---------------------------------------------------------------------------
# ProbMap export
# ---------------------------------------------------------------------------


def write_probmap(pmap: ProbMap, path: str) -> None:
    """Binary tensor file: magic, dims as u32 little-endian, float32 values
    row-major with orientation minor."""
    rows, cols, n_ori = pmap.shape
    with open(path, "wb") as fh:
        fh.write(PROBMAP_MAGIC)
        fh.write(struct.pack("<III", rows, cols, n_ori))
        fh.write(pmap.values.astype("<f4").tobytes())


def read_probmap_values(path: str) -> np.ndarray:
    """Read back the raw (rows, cols, n_orientations) tensor."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != PROBMAP_MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}")
        header = fh.read(12)
        if len(header) != 12:
            raise FormatError(f"{path}: truncated header")
        rows, cols, n_ori = struct.unpack("<III", header)
        data = fh.read(rows * cols * n_ori * 4)
        if len(data) != rows * cols * n_ori * 4:
            raise FormatError(f"{path}: truncated tensor")
    return np.frombuffer(data, dtype="<f4").reshape(rows, cols, n_ori).astype(float)


def probmap_graymap(pmap: ProbMap) -> np.ndarray:
    """Max-over-orientation 8-bit visualization raster."""
    best = pmap.values.max(axis=2)
    peak = best.max()
    if peak <= 0:
        return np.zeros(best.shape, dtype=np.uint8)
    return np.round(best / peak * 255.0).astype(np.uint8)
