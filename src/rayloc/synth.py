"""Synthetic floorplan generation and observation simulation.

The twin-rooms layout engineers the repetitive-structure ambiguity on
purpose: the map is symmetric under a 180-degree rotation about its center,
so every pose has a congruent counterpart whose rendered ray fan is
identical, while per-room texture ids keep the two sides distinguishable.
"""

from __future__ import annotations

import math
import re
import dataclasses
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .crops import Crop, block_mean
from .errors import ConfigurationError, ValidationError
from .floorplan import (
    DEFAULT_FOV,
    DEFAULT_MAX_RANGE,
    DEFAULT_N_RAYS,
    TWO_PI,
    FloorPlan,
    Pose,
    ray_bearings,
    render_gt_rays,
)

LAYOUT_TWIN = "twin-rooms"
LAYOUT_CORRIDOR = re.compile(r"^corridor-of-(\d+)$")
LAYOUT_RANDOM = "random-partition"

MAX_TEXTURE_IDS = 254
POSE_CLEARANCE_M = 0.45


@dataclass(frozen=True)
class WorldSpec:
    layout: str = LAYOUT_TWIN
    extent: tuple[float, float] = (12.0, 6.0)  # meters (width, height)
    resolution: float = 0.1
    texture_policy: str = "distinct"  # distinct id per room
    seed: int = 0

    def __post_init__(self):
        if self.layout != LAYOUT_TWIN and self.layout != LAYOUT_RANDOM:
            if not LAYOUT_CORRIDOR.match(self.layout):
                raise ValidationError(f"unknown layout {self.layout!r}")
        if not self.resolution > 0:
            raise ValidationError("resolution must be > 0")
        if self.texture_policy not in ("distinct", "none"):
            raise ValidationError(f"unknown texture policy {self.texture_policy!r}")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class NoiseSpec:
    depth_sigma: float = 0.0  # meters
    dropout: float = 0.0  # probability a ray is clamped to max_range

    def __post_init__(self):
        if self.depth_sigma < 0 or not 0.0 <= self.dropout <= 1.0:
            raise ValidationError("invalid noise parameters")


@dataclass(frozen=True)
class ObservationSignature:
    """Stand-in for a camera observation: the noiseless rendered ray fan plus
    a histogram of the texture ids sampled along those rays."""

    depths: np.ndarray  # (N,) noiseless rendered depths
    texture_counts: np.ndarray  # (256,) counts per texture id
    fov: float
    max_range: float
    noise: NoiseSpec = NoiseSpec()

    def __post_init__(self):
        depths = np.asarray(self.depths, dtype=float).copy()
        counts = np.asarray(self.texture_counts, dtype=np.int64).copy()
        depths.setflags(write=False)
        counts.setflags(write=False)
        object.__setattr__(self, "depths", depths)
        object.__setattr__(self, "texture_counts", counts)


def _cells(meters: float, resolution: float) -> int:
    return max(1, int(round(meters / resolution)))


def _symmetrize(occ: np.ndarray) -> np.ndarray:
    # exact 180-degree rotational symmetry about the map center
    return occ | occ[::-1, ::-1]


def _check_connected(occ: np.ndarray, layout: str) -> None:
    free = ~occ
    _, count = ndimage.label(free)
    if count != 1:
        raise ConfigurationError(
            f"{layout}: generated free space is not connected ({count} components)"
        )


def _twin_rooms(spec: WorldSpec) -> tuple[np.ndarray, np.ndarray]:
    res = spec.resolution
    width = _cells(spec.extent[0], res)
    height = _cells(spec.extent[1], res)
    border = _cells(0.5, res)
    mid_half = max(1, _cells(1.0, res) // 2)
    if width <= 2 * border + 2 * mid_half + 2 or height <= 2 * border + 2:
        raise ConfigurationError("twin-rooms: extent too small for the layout")

    occ = np.zeros((height, width), dtype=bool)
    occ[:border, :] = True
    occ[-border:, :] = True
    occ[:, :border] = True
    occ[:, -border:] = True
    mid_lo = width // 2 - mid_half
    mid_hi = width // 2 + mid_half
    occ[:, mid_lo:mid_hi] = True

    # Interior clutter makes every vantage point inside a room geometrically
    # distinctive (otherwise poses staring at a bare wall produce identical
    # ray fans under slides and quarter turns).  Everything is placed in the
    # left room only; the 180-degree symmetrization below drops a rotated
    # copy into the right room, preserving congruence.
    rng = np.random.default_rng(spec.seed)
    margin = border + _cells(0.8, res)

    # free-standing pillars of varied footprint
    for side_w, side_h in ((0.6, 0.4), (0.3, 0.3), (0.4, 0.7)):
        pw = _cells(side_w, res)
        ph = _cells(side_h, res)
        r_hi = height - margin - ph
        c_hi = mid_lo - _cells(0.8, res) - pw
        if r_hi <= margin or c_hi <= margin:
            continue
        r0 = int(rng.integers(margin, r_hi))
        c0 = int(rng.integers(margin, c_hi))
        occ[r0 : r0 + ph, c0 : c0 + pw] = True

    # short baffles protruding from each wall of the left room break the
    # slide-along-a-flat-wall ambiguity for poses close to that wall
    stub_w = max(2, _cells(0.2, res))
    room_lo, room_hi = border, mid_lo  # column span of the left room interior
    for _ in range(3):
        depth_cells = _cells(float(rng.uniform(0.3, 0.6)), res)
        c0 = int(rng.integers(room_lo + _cells(0.5, res), room_hi - _cells(0.7, res)))
        occ[border : border + depth_cells, c0 : c0 + stub_w] = True  # top wall
        c1 = int(rng.integers(room_lo + _cells(0.5, res), room_hi - _cells(0.7, res)))
        depth_cells = _cells(float(rng.uniform(0.3, 0.6)), res)
        occ[height - border - depth_cells : height - border, c1 : c1 + stub_w] = True
    for _ in range(2):
        depth_cells = _cells(float(rng.uniform(0.3, 0.6)), res)
        r0 = int(rng.integers(border + _cells(0.5, res), height - border - _cells(0.7, res)))
        occ[r0 : r0 + stub_w, border : border + depth_cells] = True  # left wall
        depth_cells = _cells(float(rng.uniform(0.3, 0.6)), res)
        r1 = int(rng.integers(border + _cells(0.5, res), height - border - _cells(0.7, res)))
        occ[r1 : r1 + stub_w, mid_lo - depth_cells : mid_lo] = True  # shared wall
    occ = _symmetrize(occ)

    # centered door through the shared wall (also rotationally symmetric)
    door_half = max(1, _cells(1.2, res) // 2)
    d_lo = height // 2 - door_half
    d_hi = height // 2 + door_half
    door = np.zeros_like(occ)
    door[d_lo:d_hi, mid_lo:mid_hi] = True
    door = door | door[::-1, ::-1]
    occ[door] = False

    texture = np.zeros((height, width), dtype=np.uint8)
    if spec.texture_policy == "distinct":
        free = ~occ
        cols = np.arange(width)[None, :]
        texture[free & (cols < mid_lo)] = 1
        texture[free & (cols >= mid_hi)] = 2
    _check_connected(occ, spec.layout)
    return occ, texture


def _corridor(spec: WorldSpec, k: int) -> tuple[np.ndarray, np.ndarray]:
    res = spec.resolution
    width = _cells(spec.extent[0], res)
    height = _cells(spec.extent[1], res)
    border = _cells(0.3, res)
    wall = max(2, _cells(0.2, res))
    corridor_h = _cells(1.4, res)
    if k < 1:
        raise ConfigurationError("corridor layout needs at least one room")
    room_w = (width - 2 * border - (k - 1) * wall) // k
    room_h = height - 2 * border - wall - corridor_h
    if room_w < _cells(1.5, res) or room_h < _cells(1.5, res):
        raise ConfigurationError(f"corridor-of-{k}: extent too small for {k} rooms")

    occ = np.ones((height, width), dtype=bool)
    texture = np.zeros((height, width), dtype=np.uint8)
    # corridor along the bottom
    c_lo = height - border - corridor_h
    occ[c_lo : height - border, border : width - border] = False
    if spec.texture_policy == "distinct":
        texture[c_lo : height - border, border : width - border] = min(k + 1, MAX_TEXTURE_IDS)
    door_half = max(1, _cells(0.8, res) // 2)
    for i in range(k):
        left = border + i * (room_w + wall)
        occ[border : border + room_h, left : left + room_w] = False
        if spec.texture_policy == "distinct":
            texture[border : border + room_h, left : left + room_w] = min(i + 1, MAX_TEXTURE_IDS)
        mid = left + room_w // 2
        occ[border + room_h : c_lo, mid - door_half : mid + door_half] = False
    _check_connected(occ, spec.layout)
    return occ, texture


def _random_partition(spec: WorldSpec) -> tuple[np.ndarray, np.ndarray]:
    res = spec.resolution
    width = _cells(spec.extent[0], res)
    height = _cells(spec.extent[1], res)
    border = max(2, _cells(0.3, res))
    wall = max(2, _cells(0.2, res))
    min_side = _cells(2.0, res)
    if width <= 2 * border + min_side or height <= 2 * border + min_side:
        raise ConfigurationError("random-partition: extent too small")

    rng = np.random.default_rng(spec.seed)
    occ = np.zeros((height, width), dtype=bool)
    occ[:border, :] = True
    occ[-border:, :] = True
    occ[:, :border] = True
    occ[:, -border:] = True

    rooms: list[tuple[int, int, int, int]] = []

    def split(r0, r1, c0, c1, depth):
        h, w = r1 - r0, c1 - c0
        if depth <= 0 or (h < 2 * min_side + wall and w < 2 * min_side + wall):
            rooms.append((r0, r1, c0, c1))
            return
        if w >= h and w >= 2 * min_side + wall:
            cut = int(rng.integers(c0 + min_side, c1 - min_side - wall + 1))
            occ[r0:r1, cut : cut + wall] = True
            door_half = max(1, _cells(0.8, res) // 2)
            mid = int(rng.integers(r0 + door_half, r1 - door_half))
            occ[mid - door_half : mid + door_half, cut : cut + wall] = False
            split(r0, r1, c0, cut, depth - 1)
            split(r0, r1, cut + wall, c1, depth - 1)
        elif h >= 2 * min_side + wall:
            cut = int(rng.integers(r0 + min_side, r1 - min_side - wall + 1))
            occ[cut : cut + wall, c0:c1] = True
            door_half = max(1, _cells(0.8, res) // 2)
            mid = int(rng.integers(c0 + door_half, c1 - door_half))
            occ[cut : cut + wall, mid - door_half : mid + door_half] = False
            split(r0, cut, c0, c1, depth - 1)
            split(cut + wall, r1, c0, c1, depth - 1)
        else:
            rooms.append((r0, r1, c0, c1))

    split(border, height - border, border, width - border, depth=4)

    texture = np.zeros((height, width), dtype=np.uint8)
    if spec.texture_policy == "distinct":
        for i, (r0, r1, c0, c1) in enumerate(rooms):
            region = ~occ[r0:r1, c0:c1]
            texture[r0:r1, c0:c1][region] = min(i + 1, MAX_TEXTURE_IDS)
    _check_connected(occ, spec.layout)
    return occ, texture


def generate_world(spec: WorldSpec) -> tuple[FloorPlan, list[Pose]]:
    """Deterministically build a floorplan for the spec and list the poses
    suitable as ground truth (free, clear of walls, inside a textured room,
    headings on the default 10-degree orientation centers)."""
    match = LAYOUT_CORRIDOR.match(spec.layout)
    if spec.layout == LAYOUT_TWIN:
        occ, texture = _twin_rooms(spec)
    elif spec.layout == LAYOUT_RANDOM:
        occ, texture = _random_partition(spec)
    elif match:
        occ, texture = _corridor(spec, int(match.group(1)))
    else:  # pragma: no cover - blocked by WorldSpec validation
        raise ValidationError(f"unknown layout {spec.layout!r}")

    plan = FloorPlan(
        occupancy=occ,
        resolution=spec.resolution,
        texture=texture if spec.texture_policy == "distinct" else None,
    )
    poses = valid_gt_poses(plan, seed=spec.seed)
    return plan, poses


def relabel_texture(plan: FloorPlan, offset: int) -> FloorPlan:
    """Shift all nonzero texture ids by ``offset``.

    Each generated world labels its rooms 1, 2, ... independently; when worlds
    are combined into one dataset, offsetting per world keeps room appearance
    unique across buildings (two buildings do not share decor)."""
    if plan.texture is None:
        raise ValidationError("floorplan has no texture channel to relabel")
    if offset < 0 or int(plan.texture.max()) + offset > MAX_TEXTURE_IDS:
        raise ValidationError(f"texture offset {offset} out of range")
    texture = plan.texture.copy()
    texture[texture > 0] += offset
    return dataclasses.replace(plan, texture=texture)


def valid_gt_poses(
    plan: FloorPlan,
    clearance_m: float = POSE_CLEARANCE_M,
    n_orientations: int = 36,
    seed: int = 0,
) -> list[Pose]:
    """Cell-center poses at least clearance_m from any wall, in textured free
    space, each with a seeded heading on an orientation-bin center."""
    radius = max(1, int(math.ceil(clearance_m / plan.resolution)))
    footprint = np.ones((2 * radius + 1, 2 * radius + 1), dtype=bool)
    blocked = ndimage.binary_dilation(plan.occupancy, structure=footprint)
    ok = ~blocked
    if plan.texture is not None:
        ok &= plan.texture > 0
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x6A5E5]))
    poses = []
    for r, c in np.argwhere(ok):
        x, y = plan.cell_center(int(r), int(c))
        theta = TWO_PI * int(rng.integers(n_orientations)) / n_orientations
        poses.append(Pose(x, y, theta))
    return poses


def simulate_observation(
    plan: FloorPlan,
    pose: Pose,
    noise: NoiseSpec = NoiseSpec(),
    seed: int = 0,
    n_rays: int = DEFAULT_N_RAYS,
    fov: float = DEFAULT_FOV,
    max_range: float = DEFAULT_MAX_RANGE,
) -> tuple[np.ndarray, ObservationSignature]:
    """Noisy predicted ray depths plus the noiseless observation signature.

    Predicted depths are the rendered fan plus Gaussian noise, with dropped
    rays clamped to max_range; the signature is built from the noiseless
    geometry. Deterministic given the seed.
    """
    fan = render_gt_rays(plan, pose, n_rays=n_rays, fov=fov, max_range=max_range)
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    pred = fan.depths + rng.normal(0.0, noise.depth_sigma, size=n_rays)
    if noise.dropout > 0:
        drop = rng.random(n_rays) < noise.dropout
        pred = np.where(drop, max_range, pred)
    pred = np.clip(pred, 0.0, max_range)

    counts = _texture_counts_along_rays(plan, pose, fan, n_rays, fov)
    signature = ObservationSignature(
        depths=fan.depths,
        texture_counts=counts,
        fov=fov,
        max_range=max_range,
        noise=noise,
    )
    return pred, signature


def _texture_counts_along_rays(
    plan: FloorPlan, pose: Pose, fan, n_rays: int, fov: float
) -> np.ndarray:
    step = plan.resolution / 2.0
    bearings = ray_bearings(pose.theta, n_rays, fov)
    counts = np.zeros(256, dtype=np.int64)
    for i in range(n_rays):
        ts = np.arange(0.5 * step, fan.depths[i], step)
        if ts.size == 0:
            continue
        xs = pose.x + math.cos(bearings[i]) * ts
        ys = pose.y + math.sin(bearings[i]) * ts
        cols = np.floor((xs - plan.origin[0]) / plan.resolution).astype(np.int64)
        rows = np.floor((ys - plan.origin[1]) / plan.resolution).astype(np.int64)
        inside = (
            (cols >= 0)
            & (cols < plan.width_cells)
            & (rows >= 0)
            & (rows < plan.height_cells)
        )
        if plan.texture is None:
            ids = np.zeros(int(inside.sum()), dtype=np.int64)
        else:
            ids = plan.texture[rows[inside], cols[inside]].astype(np.int64)
        counts += np.bincount(ids, minlength=256)
        counts[0] += int((~inside).sum())  # out-of-map samples count as id 0
    return counts


class RandomProjectionEmbedder:
    """Reference embedder: a shared seeded random projection applied to a
    common hand-built feature space, so that texture agreement between an
    observation and a crop yields higher cosine similarity.

    Deterministic given its construction arguments; outputs are unit-norm.
    """

    def __init__(
        self,
        dim: int = 64,
        seed: int = 7,
        n_texture_ids: int = 16,
        geom_blocks: int = 8,
        texture_weight: float = 3.0,
        geom_weight: float = 0.1,
        max_range: float = DEFAULT_MAX_RANGE,
    ):
        if dim < 2:
            raise ValidationError("embedding dimension must be >= 2")
        self.dim = dim
        self.n_texture_ids = n_texture_ids
        self.geom_blocks = geom_blocks
        self.geom_len = geom_blocks * geom_blocks
        self.texture_weight = texture_weight
        self.geom_weight = geom_weight
        self.max_range = max_range
        rng = np.random.default_rng(np.random.SeedSequence([seed, dim]))
        n_features = n_texture_ids + self.geom_len
        self.projection = rng.normal(size=(dim, n_features)) / math.sqrt(n_features)

    def _project(self, features: np.ndarray) -> np.ndarray:
        u = self.projection @ features
        norm = float(np.linalg.norm(u))
        if norm < 1e-12:
            raise ValidationError(
                "degenerate embedding (zero feature vector); use a different "
                "projection seed"
            )
        return u / norm

    def _texture_feature(self, counts: np.ndarray) -> np.ndarray:
        hist = counts[1 : self.n_texture_ids + 1].astype(float)
        total = hist.sum()
        if total > 0:
            hist = hist / total
        return hist

    def embed_signature(self, signature: ObservationSignature) -> np.ndarray:
        hist = self._texture_feature(signature.texture_counts)
        positions = np.linspace(0.0, 1.0, self.geom_len)
        src = np.linspace(0.0, 1.0, signature.depths.size)
        geom = np.interp(positions, src, signature.depths / self.max_range)
        return self._project(
            np.concatenate([self.texture_weight * hist, self.geom_weight * geom])
        )

    def embed_crop(self, crop: Crop) -> np.ndarray:
        tex = crop.texture()
        if tex is None:
            counts = np.zeros(256, dtype=np.int64)
        else:
            counts = np.bincount(tex.ravel().astype(np.int64), minlength=256)
        hist = self._texture_feature(counts)
        geom = block_mean(crop.occupancy(), self.geom_blocks)
        return self._project(
            np.concatenate([self.texture_weight * hist, self.geom_weight * geom.ravel()])
        )

    def __call__(self, item) -> np.ndarray:
        if isinstance(item, ObservationSignature):
            return self.embed_signature(item)
        if isinstance(item, Crop):
            return self.embed_crop(item)
        raise ValidationError(f"cannot embed {type(item).__name__}")
