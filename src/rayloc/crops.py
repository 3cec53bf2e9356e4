"""Pose-centered, orientation-aligned local floorplan crops.

A crop samples the map around a pose with the camera's facing direction
mapped to the crop's "up" axis (row 0). Occupancy and texture are categorical,
so lookups are nearest-neighbor; samples outside the map take the pad value
(wall for occupancy, 0 for texture).
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import OutOfBoundsError, ValidationError
from .floorplan import FloorPlan, Pose, write_pgm

OCCUPANCY_ONLY = "occupancy"
OCCUPANCY_TEXTURE = "occupancy+texture"

PAD_OCCUPANCY = 1  # outside the building behaves like wall
PAD_TEXTURE = 0
_PAD = PAD_OCCUPANCY | PAD_TEXTURE << 8  # a padded cell of the crop canvas

# the one pooled layout of every crop embedder (pool_crop): one feature per
# texture id in 1..N_TEXTURE_IDS, and maps block-averaged to POOL_BLOCKS x POOL_BLOCKS
N_TEXTURE_IDS = 16
POOL_BLOCKS = 8


@dataclass(frozen=True)
class CropSpec:
    side_m: float = 5.0
    out_px: int | None = None  # default: side_m / map resolution, rounded
    channels: str = OCCUPANCY_TEXTURE

    def __post_init__(self):
        if not 0 < self.side_m < math.inf:
            raise ValidationError(f"side_m must be finite and > 0, got {self.side_m}")
        px = self.out_px
        if px is not None and (isinstance(px, bool) or not isinstance(px, (int, np.integer)) or px < 2):
            raise ValidationError(f"out_px must be an integer >= 2, got {px!r}")
        if self.channels not in (OCCUPANCY_ONLY, OCCUPANCY_TEXTURE):
            raise ValidationError(f"unknown channel mode {self.channels!r}")

    def resolve_px(self, plan: FloorPlan) -> int:
        if self.out_px is not None:
            return self.out_px
        return max(2, int(round(self.side_m / plan.resolution)))


@dataclass(frozen=True)
class Crop:
    pixels: np.ndarray  # (out_px, out_px, channels) uint8
    meters_per_px: float
    source_pose: Pose

    def __post_init__(self):
        pixels = np.asarray(self.pixels, dtype=np.uint8).copy()
        n = pixels.shape[0] if pixels.ndim else 0
        if pixels.shape not in ((n, n, 1), (n, n, 2)) or n < 2:
            raise ValidationError(f"crop pixels must have shape (n, n, 1 | 2), n >= 2: {pixels.shape}")
        pixels.setflags(write=False)
        object.__setattr__(self, "pixels", pixels)

    @property
    def out_px(self) -> int:
        return self.pixels.shape[0]

    @property
    def n_channels(self) -> int:
        return self.pixels.shape[2]

    def occupancy(self) -> np.ndarray:
        return self.pixels[:, :, 0]

    def texture(self) -> np.ndarray | None:
        if self.pixels.shape[2] < 2:
            return None
        return self.pixels[:, :, 1]


@functools.lru_cache(maxsize=64)
def _sample_offsets(px: int, mpp: float) -> tuple[np.ndarray, np.ndarray]:
    """Read-only offsets (m) right of facing, (1, px), and along facing, (px, 1)."""
    c = (px - 1) / 2.0
    u = np.arange(px, dtype=float)  # columns left to right, rows top to bottom
    offsets = ((u[None, :] - c) * mpp, (c - u[:, None]) * mpp)
    for a in offsets:
        a.setflags(write=False)
    return offsets


def extract_crop(plan: FloorPlan, pose: Pose, spec: CropSpec) -> Crop:
    """Nearest-neighbor crop centered on the pose, facing direction up.

    The crop window may overhang the map; overhanging samples are padded.
    Sample points are pixel centers; with an odd out_px and meters_per_px
    equal to the map resolution they land exactly on cell centers, which makes
    quarter-turn rotations of the pose exact quarter-turns of the raster.
    Offsets are cached per (out_px, meters_per_px), and both channels are one
    flat take from the plan's padded canvas (:meth:`FloorPlan._crop_canvas`).
    Every sample lies within the window's half-diagonal D of a pose inside the
    map, so its cell is at most ceil(D / resolution) cells outside the map,
    plus one for the rounding of its coordinates: that is the canvas margin.
    """
    if not plan.in_bounds(pose.x, pose.y):
        raise OutOfBoundsError(f"crop pose ({pose.x}, {pose.y}) outside map")
    px = spec.resolve_px(plan)
    mpp = spec.side_m / px
    u_loc, v_loc = _sample_offsets(px, mpp)
    half = (px - 1) / 2.0 * mpp
    canvas, margin = plan._crop_canvas(
        math.ceil(math.hypot(half, half) / plan.resolution) + 1, _PAD
    )
    cos_t = math.cos(pose.theta)
    sin_t = math.sin(pose.theta)
    # local up -> facing direction, local right -> 90 deg clockwise from it
    cols = np.add(pose.x + u_loc * sin_t, v_loc * cos_t)
    rows = np.add(pose.y - u_loc * cos_t, v_loc * sin_t)
    for coord, origin in ((cols, plan.origin[0]), (rows, plan.origin[1])):
        np.subtract(coord, origin, out=coord)
        np.divide(coord, plan.resolution, out=coord)
        np.floor(coord, out=coord)
    # integer-valued floats far below 2**53: the flat canvas index is exact
    rows *= plan.width_cells + 2 * margin
    rows += cols
    rows += margin * (plan.width_cells + 2 * margin + 1)
    pixels = canvas.take(rows.astype(np.intp)).view(np.uint8).reshape(px, px, 2)
    if spec.channels == OCCUPANCY_ONLY:
        pixels = pixels[:, :, :1]
    return Crop(pixels=pixels, meters_per_px=mpp, source_pose=pose)


@functools.lru_cache(maxsize=64)
def _pool_blocks(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only layout of an (n, n) crop's blocks: the (POOL_BLOCKS, n)
    0/1 matrix of which rows (or columns) each block spans, each pixel's flat
    block id as an intp, and each block's pixel count, 1 for an empty block
    (its sums are 0, so it pools to 0.0)."""
    edges = np.linspace(0, n, POOL_BLOCKS + 1).astype(int)
    of_pixel = np.repeat(np.arange(POOL_BLOCKS, dtype=np.intp), np.diff(edges))
    spans = (of_pixel == np.arange(POOL_BLOCKS)[:, None]).astype(float)
    block = (of_pixel[:, None] * POOL_BLOCKS + of_pixel[None, :]).ravel()
    divisor = np.maximum(np.bincount(block, minlength=POOL_BLOCKS * POOL_BLOCKS), 1)
    for a in (spans, block, divisor):
        a.setflags(write=False)
    return spans, block, divisor


def pool_crop(crop: Crop) -> tuple[np.ndarray, np.ndarray]:
    """``(means, totals)``: row 0 of the ``(1 + N_TEXTURE_IDS, POOL_BLOCKS ** 2)``
    means is each block's mean occupancy, row k its share of texture id k (other
    ids are dropped); ``totals`` is each row's exact integer sum over the crop.
    Block edges are ``linspace(0, n, POOL_BLOCKS + 1)`` truncated to integers.
    Every sum is of integers far below 2**53, so it is exact in any order."""
    spans, block, divisor = _pool_blocks(crop.out_px)
    nb = POOL_BLOCKS * POOL_BLOCKS
    sums = np.zeros((1 + N_TEXTURE_IDS, nb))
    sums[0] = (spans @ crop.occupancy() @ spans.T).ravel()
    tex = crop.texture()
    if tex is not None:
        keys = np.multiply(tex, nb, dtype=np.intp).reshape(-1)  # a uint8 product wraps
        keys += block
        sums[1:] = np.bincount(keys, minlength=sums.size)[nb : sums.size].reshape(-1, nb)
    return sums / divisor, sums.sum(axis=1)


def export_crop(crop: Crop, out_dir: str, stem: str) -> dict:
    """Write one graymap per crop channel as ``{stem}_{channel}.pgm`` (occupancy
    as free = white) and return the crop's manifest record: its source
    ``pose``, its ``meters_per_px`` and its ``files`` as ``{channel: filename}``."""
    files = {}
    for ch, name in enumerate(["occupancy", "texture"][: crop.n_channels]):
        files[name] = f"{stem}_{name}.pgm"
        values = crop.pixels[:, :, ch]
        if name == "occupancy":
            values = np.where(values > 0, 0, 255).astype(np.uint8)
        write_pgm(os.path.join(out_dir, files[name]), values)
    return {"pose": crop.source_pose.as_dict(), "meters_per_px": crop.meters_per_px, "files": files}
