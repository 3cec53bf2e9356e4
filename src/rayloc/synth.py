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

from .crops import N_TEXTURE_IDS, POOL_BLOCKS, Crop, pool_crop
from .errors import ConfigurationError, ValidationError
from .floorplan import (
    DEFAULT_FOV,
    DEFAULT_MAX_RANGE,
    DEFAULT_N_RAYS,
    TWO_PI,
    FloorPlan,
    Pose,
    RayFan,
    check_depth_range,
    check_ray_sensor,
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
        if self.layout not in (LAYOUT_TWIN, LAYOUT_RANDOM) and not LAYOUT_CORRIDOR.match(self.layout):
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
        if not self.depth_sigma >= 0 or not 0.0 <= self.dropout <= 1.0:
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
        if depths.ndim != 1 or depths.size == 0 or not np.all(np.isfinite(depths)):
            raise ValidationError("signature depths must be a nonempty list of finite numbers")
        if counts.shape != (256,):
            raise ValidationError(f"texture_counts must hold 256 counts, got shape {counts.shape}")
        if np.any(counts < 0):
            raise ValidationError("texture_counts must be >= 0")
        depths.setflags(write=False)
        counts.setflags(write=False)
        object.__setattr__(self, "depths", depths)
        object.__setattr__(self, "texture_counts", counts)


def _cells(meters: float, resolution: float) -> int:
    return max(1, int(round(meters / resolution)))


def _walled(height: int, width: int, border: int) -> np.ndarray:
    """An all-wall grid whose interior, border cells in from each edge, is free."""
    occ = np.ones((height, width), dtype=bool)
    occ[border : height - border, border : width - border] = False
    return occ


def _symmetrize(occ: np.ndarray) -> np.ndarray:
    # exact 180-degree rotational symmetry about the map center
    return occ | occ[::-1, ::-1]


def _dilate_square(occ: np.ndarray, radius: int) -> np.ndarray:
    """Binary dilation by a (2 radius + 1)-cell square; cells outside the map
    count as free. Separable: a running-sum window along each axis in turn."""

    def along_rows(grid: np.ndarray) -> np.ndarray:
        n = grid.shape[1]
        sums = np.zeros((grid.shape[0], n + 1), dtype=np.int64)
        np.cumsum(grid, axis=1, out=sums[:, 1:])
        cols = np.arange(n)
        return sums[:, np.minimum(cols + radius + 1, n)] > sums[:, np.maximum(cols - radius, 0)]

    return along_rows(along_rows(occ).T).T


def _label_components(free: np.ndarray, labels: bool = True) -> tuple[np.ndarray | None, int]:
    """The 4-connected components of the True cells, labelled 1, 2, ... in
    the raster order of their first cell as scipy.ndimage.label numbers them
    (0 on the other cells), and their count: label each row's runs of True,
    then join the runs that touch vertically. With labels=False the labels
    are None: the count alone skips the last pass over the runs and cells."""
    starts = free.copy()
    starts[:, 1:] &= ~free[:, :-1]  # a run starts at each row's first column
    run = np.cumsum(starts).reshape(free.shape) - 1
    touch = free[:-1] & free[1:]
    upper, lower = run[:-1][touch], run[1:][touch]
    # a pair's contacts are adjacent in row-major order: keep the first
    first = np.ones(upper.size, dtype=bool)
    first[1:] = (upper[1:] != upper[:-1]) | (lower[1:] != lower[:-1])
    parent = list(range(int(starts.sum())))

    def root(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]  # path halving
            a = parent[a]
        return a

    for a, b in zip(upper[first].tolist(), lower[first].tolist()):
        a, b = root(a), root(b)
        if a < b:  # runs go in raster order: a root is its component's first run
            parent[b] = a
        elif b < a:
            parent[a] = b
    is_root = np.array(parent, dtype=np.intp) == np.arange(len(parent))
    count = int(is_root.sum())
    if not labels:
        return None, count
    run_labels = np.append(np.cumsum(is_root)[[root(a) for a in range(len(parent))]], 0)
    return np.where(free, run_labels[run], 0), count  # a run of -1 reads the appended 0


def _check_connected(occ: np.ndarray, layout: str, count: int | None = None) -> None:
    if count is None:
        count = _label_components(~occ, labels=False)[1]
    if count != 1:
        raise ConfigurationError(
            f"{layout}: generated free space is not connected ({count} components)"
        )


def _twin_rooms(spec: WorldSpec, height: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    res = spec.resolution
    border = _cells(0.5, res)
    mid_half = max(1, _cells(1.0, res) // 2)
    # the baffles below sit between margins of 0.5 and 0.7 m inside each room
    baffle_span = _cells(0.5, res) + _cells(0.7, res) + 1
    min_width = 2 * (mid_half + border + baffle_span)
    min_height = 2 * border + baffle_span
    if width < min_width or height < min_height:
        raise ConfigurationError(
            f"twin-rooms: extent must be at least {min_width * res:g} x "
            f"{min_height * res:g} m at resolution {res:g} m, got "
            f"{spec.extent[0]:g} x {spec.extent[1]:g} m"
        )

    occ = _walled(height, width, border)
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
    occ[_symmetrize(door)] = False
    # clutter can seal a pocket off, and the symmetrization its rotated twin:
    # wall in every component but the door's, unless the door joins no room
    count = _label_components(~occ, labels=False)[1]
    if count > 1:
        labels = _label_components(~occ)[0]
        joined = labels == labels[d_lo, mid_lo]
        if not joined[:, :mid_lo].any():
            _check_connected(occ, spec.layout, count)
        occ |= ~joined

    texture = np.zeros((height, width), dtype=np.uint8)
    cols = np.arange(width)[None, :]
    texture[~occ & (cols < mid_lo)] = 1
    texture[~occ & (cols >= mid_hi)] = 2
    return occ, texture


def _corridor(spec: WorldSpec, height: int, width: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    res = spec.resolution
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
    texture[c_lo : height - border, border : width - border] = min(k + 1, MAX_TEXTURE_IDS)
    door_half = max(1, _cells(0.8, res) // 2)
    for i in range(k):
        left = border + i * (room_w + wall)
        occ[border : border + room_h, left : left + room_w] = False
        texture[border : border + room_h, left : left + room_w] = min(i + 1, MAX_TEXTURE_IDS)
        mid = left + room_w // 2
        occ[border + room_h : c_lo, mid - door_half : mid + door_half] = False
    _check_connected(occ, spec.layout)
    return occ, texture


def _random_partition(spec: WorldSpec, height: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    res = spec.resolution
    border = max(2, _cells(0.3, res))
    wall = max(2, _cells(0.2, res))
    min_side = _cells(2.0, res)
    if width <= 2 * border + min_side or height <= 2 * border + min_side:
        raise ConfigurationError("random-partition: extent too small")

    rng = np.random.default_rng(spec.seed)
    occ = _walled(height, width, border)
    door_half = max(1, _cells(0.8, res) // 2)
    rooms: list[tuple[int, int, int, int]] = []

    def split(rows, cols, depth):
        h, w = rows[1] - rows[0], cols[1] - cols[0]
        if depth <= 0 or max(h, w) < 2 * min_side + wall:
            rooms.append((*rows, *cols))
            return
        # a wall with a door across the longer side (the columns on a tie); a
        # cut across the columns is a cut across the rows of occ.T
        grid, (a0, a1), (b0, b1) = (occ.T, cols, rows) if w >= h else (occ, rows, cols)
        cut = int(rng.integers(a0 + min_side, a1 - min_side - wall + 1))
        grid[cut : cut + wall, b0:b1] = True
        mid = int(rng.integers(b0 + door_half, b1 - door_half))
        grid[cut : cut + wall, mid - door_half : mid + door_half] = False
        for part in ((a0, cut), (cut + wall, a1)):
            split(*((rows, part) if w >= h else (part, cols)), depth - 1)

    split((border, height - border), (border, width - border), depth=4)

    texture = np.zeros((height, width), dtype=np.uint8)
    for i, (r0, r1, c0, c1) in enumerate(rooms):
        region = ~occ[r0:r1, c0:c1]
        texture[r0:r1, c0:c1][region] = min(i + 1, MAX_TEXTURE_IDS)
    _check_connected(occ, spec.layout)
    return occ, texture


def generate_world(spec: WorldSpec) -> tuple[FloorPlan, list[Pose]]:
    """Deterministically build a floorplan for the spec and list the poses
    suitable as ground truth (free, clear of walls, inside a textured room,
    headings on the default 10-degree orientation centers)."""
    shape = _cells(spec.extent[1], spec.resolution), _cells(spec.extent[0], spec.resolution)
    match = LAYOUT_CORRIDOR.match(spec.layout)
    if match:
        occ, texture = _corridor(spec, *shape, int(match.group(1)))
    else:
        generator = _twin_rooms if spec.layout == LAYOUT_TWIN else _random_partition
        occ, texture = generator(spec, *shape)
    plan = FloorPlan(
        occupancy=occ,
        resolution=spec.resolution,
        texture=texture if spec.texture_policy == "distinct" else None,
    )
    return plan, valid_gt_poses(plan, seed=spec.seed)


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
    ok = ~_dilate_square(plan.occupancy, radius)
    if plan.texture is not None:
        ok &= plan.texture > 0
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x6A5E5]))
    rows, cols = np.nonzero(ok)
    xs, ys = plan.cell_center(rows, cols)
    thetas = TWO_PI * rng.integers(n_orientations, size=rows.size) / n_orientations
    return [Pose(x, y, t) for x, y, t in zip(xs.tolist(), ys.tolist(), thetas.tolist())]


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

    counts = _texture_counts_along_rays(plan, pose, fan)
    signature = ObservationSignature(
        depths=fan.depths,
        texture_counts=counts,
        fov=fov,
        max_range=max_range,
        noise=noise,
    )
    return pred, signature


def _texture_counts_along_rays(plan: FloorPlan, pose: Pose, fan: RayFan) -> np.ndarray:
    """Texture-id histogram of samples every half cell along each ray, short
    of its depth; samples off the map or on an untextured plan count as id 0."""
    step = plan.resolution / 2.0
    # every ray samples a prefix of the longest ray's samples: as many as
    # np.arange(0.5 * step, depth, step) holds
    ts = np.arange(0.5 * step, fan.depths.max(), step)
    keep = np.arange(ts.size) < np.ceil((fan.depths - 0.5 * step) / step)[:, None]
    bearings = ray_bearings(pose.theta, fan.n_rays, fan.fov).tolist()
    cos = np.array([math.cos(b) for b in bearings])[:, None]  # math, as np.cos may differ by an ulp
    sin = np.array([math.sin(b) for b in bearings])[:, None]
    cols = np.floor(((pose.x + cos * ts)[keep] - plan.origin[0]) / plan.resolution).astype(np.int64)
    rows = np.floor(((pose.y + sin * ts)[keep] - plan.origin[1]) / plan.resolution).astype(np.int64)
    inside = (cols >= 0) & (cols < plan.width_cells) & (rows >= 0) & (rows < plan.height_cells)
    ids = np.zeros(cols.size, dtype=np.int64)
    if plan.texture is not None:
        ids[inside] = plan.texture[rows[inside], cols[inside]]
    return np.bincount(ids, minlength=256)


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
        texture_weight: float = 3.0,
        geom_weight: float = 0.1,
        max_range: float = DEFAULT_MAX_RANGE,
    ):
        if dim < 2:
            raise ValidationError("embedding dimension must be >= 2")
        check_ray_sensor(max_range)
        self.dim = dim
        self.geom_len = POOL_BLOCKS * POOL_BLOCKS
        self.texture_weight = texture_weight
        self.geom_weight = geom_weight
        self.max_range = max_range
        rng = np.random.default_rng(np.random.SeedSequence([seed, dim]))
        n_features = N_TEXTURE_IDS + self.geom_len
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
        hist = counts[1 : N_TEXTURE_IDS + 1].astype(float)
        total = hist.sum()
        if total > 0:
            hist = hist / total
        return hist

    def embed_signature(self, signature: ObservationSignature) -> np.ndarray:
        check_depth_range(signature.depths, self.max_range, "signature depths")
        hist = self._texture_feature(signature.texture_counts)
        positions = np.linspace(0.0, 1.0, self.geom_len)
        src = np.linspace(0.0, 1.0, signature.depths.size)
        geom = np.interp(positions, src, signature.depths / self.max_range)
        return self._project(
            np.concatenate([self.texture_weight * hist, self.geom_weight * geom])
        )

    def embed_crop(self, crop: Crop) -> np.ndarray:
        means, totals = pool_crop(crop)
        hist = self._texture_feature(totals)
        return self._project(
            np.concatenate([self.texture_weight * hist, self.geom_weight * means[0]])
        )

