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

# the one pooled layout of every crop embedder: one feature per texture id in
# 1..N_TEXTURE_IDS, and maps block-averaged to POOL_BLOCKS x POOL_BLOCKS
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
        if self.out_px is not None and self.out_px < 2:
            raise ValidationError("out_px must be >= 2")
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
    Offsets are cached per (out_px, meters_per_px); a channel is one flat take.
    """
    if not plan.in_bounds(pose.x, pose.y):
        raise OutOfBoundsError(f"crop pose ({pose.x}, {pose.y}) outside map")
    px = spec.resolve_px(plan)
    mpp = spec.side_m / px
    u_loc, v_loc = _sample_offsets(px, mpp)
    cos_t = math.cos(pose.theta)
    sin_t = math.sin(pose.theta)
    # local up -> facing direction, local right -> 90 deg clockwise from it
    wx = pose.x + u_loc * sin_t + v_loc * cos_t
    wy = pose.y - u_loc * cos_t + v_loc * sin_t

    cols = np.floor((wx - plan.origin[0]) / plan.resolution).astype(np.int64)
    rows = np.floor((wy - plan.origin[1]) / plan.resolution).astype(np.int64)
    outside = cols.view(np.uint64) >= plan.width_cells  # negative: a huge unsigned
    outside |= rows.view(np.uint64) >= plan.height_cells
    flat = rows * plan.width_cells + cols  # garbage where outside, padded below
    layers = [(plan.occupancy.view(np.uint8), PAD_OCCUPANCY), (plan.texture, PAD_TEXTURE)]
    layers = layers[: 1 if spec.channels == OCCUPANCY_ONLY else 2]
    pixels = np.empty((px, px, len(layers)), dtype=np.uint8)
    for out, (layer, pad) in zip(np.moveaxis(pixels, 2, 0), layers):
        if layer is None:  # an untextured plan
            out.fill(pad)
            continue
        np.take(layer.reshape(-1), flat, out=out, mode="clip")
        np.copyto(out, pad, where=outside)
    return Crop(pixels=pixels, meters_per_px=mpp, source_pose=pose)


@functools.lru_cache(maxsize=64)
def _pool_layout(n: int, blocks: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only block starts, (blocks, blocks) pixel counts and non-empty mask."""
    edges = np.linspace(0, n, blocks + 1).astype(int)
    counts = np.outer(np.diff(edges), np.diff(edges))
    layout = (edges[:-1], counts, counts > 0)
    for a in layout:
        a.setflags(write=False)
    return layout


def block_mean(arr: np.ndarray, blocks: int) -> np.ndarray:
    """Average-pool the last two axes of a (..., n, n) array to (..., blocks, blocks).

    Block edges are ``linspace(0, n, blocks + 1)`` truncated to integers. Each
    block is its sum divided by its pixel count, so 0/1 input pools exactly; a
    block with no pixels (n < blocks) pools to 0.0.
    """
    arr = np.asarray(arr, dtype=float)
    starts, counts, nonempty = _pool_layout(arr.shape[-1], blocks)
    sums = np.add.reduceat(np.add.reduceat(arr, starts, axis=-1), starts, axis=-2)
    # reduceat yields a single pixel, not 0, for an empty block: mask it out
    return np.divide(sums, counts, out=np.zeros_like(sums), where=nonempty)


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
