"""Pose-space discretization and ray-agreement scoring.

The pose posterior ("depth posterior" below) scores every free grid pose by
how well a predicted ray fan matches the fan rendered from the floorplan at
that pose, then normalizes to a probability map over (row, col, orientation).
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyDomainError, ValidationError
from .floorplan import (
    DEFAULT_FOV,
    DEFAULT_MAX_RANGE,
    DEFAULT_N_RAYS,
    TWO_PI,
    FloorPlan,
    Pose,
    _read_tensor,
    _write_tensor,
    cast_rays,
    check_depth_range,
    check_ray_sensor,
    ray_bearings,
)

DEFAULT_SIGMA = 0.5  # meters; likelihood scale
DEPTH_QUANTUM = 1e-6  # meters; the table and predicted depths are integers in
# this unit, so congruent geometry produces exactly tied scores (tie-break is
# then by index)
MAX_TABLE_RANGE = (2**31 - 1) * DEPTH_QUANTUM  # meters; the largest int32 depth

PROBMAP_MAGIC = b"DPMF"

BLOCK_RAYS = 85_000  # rays cast per table-build block, as every free cell times a
# run of bearings: a block's cast peaks at about 57 traced bytes per ray on the
# twin-rooms grid (51 on the corridor), so each block stays under 5 MB


def usable_cpus() -> int:
    """CPUs this process may run on: the default table-build thread count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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
    localizations on the same map. It holds int32 depths in DEPTH_QUANTUM
    units (so `max_range` <= MAX_TABLE_RANGE), stored ray-major as (n_rays,
    n_free, n_orientations); `table` is its (n_free, n_orientations, n_rays)
    view. Each block casts every free cell against a run of bearings in
    ray-major order (`BLOCK_RAYS` rays in all, rounded down to whole bearings;
    a peak of about 57 traced bytes per ray on the twin-rooms grid), on
    `threads` worker threads (default: :func:`usable_cpus`); the table does
    not depend on their count. Error sums are exact in int32 when n_rays times the largest
    per-ray error (max_range in quanta, plus one for `check_depth_range`'s
    slack) fits, else in int64.
    """

    def __init__(
        self,
        plan: FloorPlan,
        grid: PoseGridSpec,
        n_rays: int = DEFAULT_N_RAYS,
        fov: float = DEFAULT_FOV,
        max_range: float = DEFAULT_MAX_RANGE,
        threads: int | None = None,
    ):
        if threads is None:
            threads = usable_cpus()
        if threads < 1:
            raise ValidationError(f"threads must be >= 1, got {threads}")
        check_ray_sensor(max_range, fov)
        if not max_range <= MAX_TABLE_RANGE:
            raise ValidationError(
                f"max_range must be <= {MAX_TABLE_RANGE:.6f} m for an int32 "
                f"table, got {max_range}"
            )
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
        # bearings of one cell's rays, ray-major: bearing j is ray j // n_ori
        # of orientation j % n_ori, so a block fills runs of _rays[ray]
        bearings = np.stack([ray_bearings(t, n_rays, fov) for t in thetas], axis=1).ravel()
        per_block = max(1, BLOCK_RAYS // n_free)  # bearings cast per block
        self._rays = np.empty((n_rays, n_free, grid.n_orientations), dtype=np.int32)
        self.table = self._rays.transpose(1, 2, 0)  # a view: no second copy
        bound = n_rays * (np.rint(max_range / DEPTH_QUANTUM) + 1)
        self._err_dtype = np.int32 if bound <= np.iinfo(np.int32).max else np.int64
        n_ori = grid.n_orientations

        def fill(lo: int) -> None:
            d, _ = cast_rays(
                plan, self.free_x[:, None], self.free_y[:, None],
                bearings[None, lo : lo + per_block], max_range,
            )
            np.rint(np.divide(d, DEPTH_QUANTUM, out=d), out=d)  # quantised in place
            hi = lo + d.shape[1]
            for j in range(lo - lo % n_ori, hi, n_ori):  # bearing 0 of each ray in the block
                a, b = max(j, lo), min(j + n_ori, hi)
                self._rays[j // n_ori, :, a - j : b - j] = d[:, a - lo : b - lo]

        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(fill, range(0, bearings.size, per_block)))

    @property
    def n_free(self) -> int:
        return self.free_rc.shape[0]

    def score(self, pred_depths: np.ndarray, sigma: float = DEFAULT_SIGMA) -> ProbMap:
        """Score exp(-mean|pred - rendered| / sigma) per free pose, normalized.

        Each error is an exact integer sum in DEPTH_QUANTUM units, so
        congruent poses tie exactly; shifting by the smallest sum keeps the
        peak from underflowing at small sigma."""
        if not sigma > 0:
            raise ValidationError("sigma must be > 0")
        pred = np.asarray(pred_depths, dtype=float).ravel()
        if pred.size != self.n_rays:
            raise ValidationError(
                f"predicted fan has {pred.size} rays, scorer expects {self.n_rays}"
            )
        check_depth_range(pred, self.max_range)
        err = self._error_sums(np.rint(pred / DEPTH_QUANTUM).astype(np.int32))
        scores = np.exp((err.min() - err) * (DEPTH_QUANTUM / (self.n_rays * sigma)))
        total = scores.sum()  # single deterministic reduction
        values = np.zeros((self.rows, self.cols, self.grid.n_orientations))
        values[self.free_rc[:, 0], self.free_rc[:, 1], :] = scores / total
        return ProbMap(
            values=values, spec=self.grid, mask=self.mask, origin=self.plan.origin
        )

    def _error_sums(self, pred: np.ndarray) -> np.ndarray:
        """S per (cell, orientation) = sum over rays of |table - pred| in quanta."""
        err = np.zeros(self._rays.shape[1:], dtype=self._err_dtype)
        diff = np.empty(self._rays.shape[1:], dtype=np.int32)
        for row, p in zip(self._rays, pred):  # one pass per contiguous ray row
            err += np.abs(np.subtract(row, p, out=diff), out=diff)
        return err


def argmax_pose(pmap: ProbMap) -> Pose:
    """Pose of the maximal posterior entry; ties go to the lowest linear
    index (row-major, orientation-minor)."""
    flat = pmap.values.reshape(-1)
    if not flat.any():
        raise EmptyDomainError("probability map is all zero")
    return pmap.pose_of_flat_index(int(np.argmax(flat)))


def top_x(pmap: ProbMap, x: int = 100) -> CandidateSet:
    """The x highest-probability free poses (all of them if fewer), with the
    same tie rule as argmax_pose; poses by :meth:`ProbMap.pose_of_flat_index`'s
    arithmetic."""
    if x < 1:
        raise ValidationError(f"x must be >= 1, got {x}")
    _, cols, n_ori = pmap.values.shape
    free = np.flatnonzero(pmap.mask)
    if free.size == 0:
        raise EmptyDomainError("probability map has no free poses")
    scores = pmap.values.reshape(-1, n_ori).take(free, axis=0).reshape(-1)  # in index order
    k = min(x, scores.size)
    # the k-th largest score, then every score above it and the lowest-index
    # ones equal to it: the first k of a stable descending sort, in any order
    kth = np.partition(scores, scores.size - k)[scores.size - k]
    at_least = np.flatnonzero(scores >= kth)
    above = scores[at_least] > kth
    picked = np.concatenate([at_least[above], at_least[~above][: k - np.count_nonzero(above)]])
    picked = picked[np.lexsort((picked, -scores[picked]))]
    cell, o = np.divmod(picked, n_ori)
    rc = free[cell]
    r, c = np.divmod(rc, cols)
    xs = pmap.origin[0] + (c + 0.5) * pmap.spec.cell_stride
    ys = pmap.origin[1] + (r + 0.5) * pmap.spec.cell_stride
    thetas = TWO_PI * o / n_ori
    poses = tuple(map(Pose, xs.tolist(), ys.tolist(), thetas.tolist()))
    return CandidateSet(poses=poses, scores=scores[picked], linear_indices=rc * n_ori + o)


# ---------------------------------------------------------------------------
# ProbMap export
# ---------------------------------------------------------------------------


def write_probmap(pmap: ProbMap, path: str) -> None:
    """DPMF tensor file of the (rows, cols, n_orientations) values, row-major
    with orientation minor."""
    _write_tensor(path, PROBMAP_MAGIC, pmap.values)


def read_probmap_values(path: str) -> np.ndarray:
    """Read back the raw (rows, cols, n_orientations) tensor."""
    return _read_tensor(path, PROBMAP_MAGIC, 3)


def probmap_graymap(pmap: ProbMap) -> np.ndarray:
    """Max-over-orientation 8-bit visualization raster."""
    best = pmap.values.max(axis=2)
    peak = best.max()
    if peak <= 0:
        return np.zeros(best.shape, dtype=np.uint8)
    return np.round(best / peak * 255.0).astype(np.uint8)
