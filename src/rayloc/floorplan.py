"""Floorplan representation, persistence, and exact 2D ray casting.

Conventions used throughout the package:

* occupancy arrays have shape (height_cells, width_cells); ``occupancy[row, col]``
  is True for wall cells.
* world x maps to columns, world y to rows; the center of cell (row, col) is
  ``origin + ((col + 0.5) * res, (row + 0.5) * res)``.
* bearings are radians, counter-clockwise, 0 along +x.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    FormatError,
    OccupiedOriginError,
    OutOfBoundsError,
    ValidationError,
)

TWO_PI = 2.0 * math.pi

DEFAULT_MAX_RANGE = 10.0  # meters; indoor scale
DEFAULT_N_RAYS = 40
DEFAULT_FOV = math.radians(108.0)  # horizontal field of view

WALL_THRESHOLD = 128  # graymap pixel < 128 => wall


@dataclass(frozen=True)
class Pose:
    """Continuous 2D pose; theta is canonicalized to [0, 2*pi)."""

    x: float
    y: float
    theta: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "theta", float(self.theta) % TWO_PI)

    def position(self) -> tuple[float, float]:
        return (self.x, self.y)

    def rotated(self, dtheta: float) -> "Pose":
        return Pose(self.x, self.y, self.theta + dtheta)

    def distance_to(self, other: "Pose") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


@dataclass(frozen=True)
class FloorPlan:
    """Immutable multi-channel occupancy grid with metric resolution."""

    occupancy: np.ndarray  # bool (H, W); True = wall
    resolution: float  # meters per cell
    origin: tuple[float, float] = (0.0, 0.0)
    texture: np.ndarray | None = None  # uint8 ids, same shape, optional

    def __post_init__(self):
        occ = np.asarray(self.occupancy, dtype=bool)
        if occ.ndim != 2 or occ.size == 0:
            raise ValidationError("occupancy must be a non-empty 2D grid")
        if not self.resolution > 0:
            raise ValidationError(f"resolution must be > 0, got {self.resolution}")
        occ = occ.copy()
        occ.setflags(write=False)
        object.__setattr__(self, "occupancy", occ)
        object.__setattr__(self, "origin", (float(self.origin[0]), float(self.origin[1])))
        if self.texture is not None:
            tex = np.asarray(self.texture, dtype=np.uint8)
            if tex.shape != occ.shape:
                raise ValidationError(
                    f"texture shape {tex.shape} does not match occupancy {occ.shape}"
                )
            tex = tex.copy()
            tex.setflags(write=False)
            object.__setattr__(self, "texture", tex)

    @property
    def height_cells(self) -> int:
        return self.occupancy.shape[0]

    @property
    def width_cells(self) -> int:
        return self.occupancy.shape[1]

    @property
    def width_m(self) -> float:
        return self.width_cells * self.resolution

    @property
    def height_m(self) -> float:
        return self.height_cells * self.resolution

    def world_to_cell(self, x: float, y: float) -> tuple[int, int]:
        """(row, col) of the cell containing world point (x, y)."""
        col = int(math.floor((x - self.origin[0]) / self.resolution))
        row = int(math.floor((y - self.origin[1]) / self.resolution))
        return row, col

    def cell_center(self, row: int, col: int) -> tuple[float, float]:
        return (
            self.origin[0] + (col + 0.5) * self.resolution,
            self.origin[1] + (row + 0.5) * self.resolution,
        )

    def in_bounds(self, x: float, y: float) -> bool:
        row, col = self.world_to_cell(x, y)
        return 0 <= row < self.height_cells and 0 <= col < self.width_cells

    def is_free(self, x: float, y: float) -> bool:
        row, col = self.world_to_cell(x, y)
        if not (0 <= row < self.height_cells and 0 <= col < self.width_cells):
            return False
        return not bool(self.occupancy[row, col])

    def free_fraction(self) -> float:
        return 1.0 - float(self.occupancy.mean())


@dataclass(frozen=True)
class RayFan:
    """Metric depths over an equiangular horizontal fan.

    Ray i's world bearing is theta + fov * (i / (N - 1) - 1/2), left to right.
    Rays that exit the map or exceed max_range carry depth == max_range and
    hit == False.
    """

    depths: np.ndarray  # (N,) meters
    fov: float  # radians
    max_range: float  # meters
    hits: np.ndarray = field(default=None)  # (N,) bool

    def __post_init__(self):
        depths = np.asarray(self.depths, dtype=float)
        if not (0.0 < self.fov < TWO_PI):
            raise ValidationError(f"fov must be in (0, 2*pi), got {self.fov}")
        if np.any(depths < 0) or np.any(depths > self.max_range + 1e-12):
            raise ValidationError("depths must lie in [0, max_range]")
        hits = self.hits
        if hits is None:
            hits = depths < self.max_range
        hits = np.asarray(hits, dtype=bool)
        depths = depths.copy()
        depths.setflags(write=False)
        hits = hits.copy()
        hits.setflags(write=False)
        object.__setattr__(self, "depths", depths)
        object.__setattr__(self, "hits", hits)

    @property
    def n_rays(self) -> int:
        return self.depths.shape[0]


def ray_bearings(theta: float, n_rays: int, fov: float) -> np.ndarray:
    """World bearings of an equiangular fan, left to right."""
    if n_rays < 2:
        raise ValidationError(f"n_rays must be >= 2, got {n_rays}")
    i = np.arange(n_rays, dtype=float)
    return theta + fov * (i / (n_rays - 1) - 0.5)


# ---------------------------------------------------------------------------
# Ray casting
# ---------------------------------------------------------------------------


def cast_rays(
    plan: FloorPlan,
    xs: np.ndarray,
    ys: np.ndarray,
    bearings: np.ndarray,
    max_range: float = DEFAULT_MAX_RANGE,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized grid traversal (Amanatides-Woo) for a batch of rays.

    Each ray visits every crossed cell exactly once; the returned depth is the
    distance to the near boundary of the first wall cell. Rays that leave the
    map or exceed max_range are clamped to max_range with hit == False.

    Origins must lie in free cells inside the map (not validated here; the
    scalar wrapper :func:`cast_ray` validates).
    """
    xs = np.asarray(xs, dtype=float).ravel()
    ys = np.asarray(ys, dtype=float).ravel()
    bearings = np.asarray(bearings, dtype=float).ravel()
    n = xs.size
    res = plan.resolution
    h, w = plan.height_cells, plan.width_cells
    occ = plan.occupancy

    px = (xs - plan.origin[0]) / res
    py = (ys - plan.origin[1]) / res
    cx = np.floor(px).astype(np.int64)
    cy = np.floor(py).astype(np.int64)

    dx = np.cos(bearings)
    dy = np.sin(bearings)
    step_x = np.where(dx >= 0, 1, -1).astype(np.int64)
    step_y = np.where(dy >= 0, 1, -1).astype(np.int64)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv_dx = np.where(dx != 0, 1.0 / dx, np.inf)
        inv_dy = np.where(dy != 0, 1.0 / dy, np.inf)
        # distance (in cell units) to the first x/y grid-line crossing
        t_max_x = np.where(
            dx != 0, (cx + (dx > 0).astype(float) - px) * inv_dx, np.inf
        )
        t_max_y = np.where(
            dy != 0, (cy + (dy > 0).astype(float) - py) * inv_dy, np.inf
        )
    t_delta_x = np.abs(inv_dx)
    t_delta_y = np.abs(inv_dy)

    depth = np.full(n, float(max_range))
    hit = np.zeros(n, dtype=bool)
    range_cells = max_range / res

    active = np.arange(n)
    while active.size:
        tx = t_max_x[active]
        ty = t_max_y[active]
        go_x = tx <= ty
        t_cross = np.where(go_x, tx, ty)

        cx[active] += np.where(go_x, step_x[active], 0)
        cy[active] += np.where(go_x, 0, step_y[active])
        t_max_x[active] += np.where(go_x, t_delta_x[active], 0.0)
        t_max_y[active] += np.where(go_x, 0.0, t_delta_y[active])

        acx = cx[active]
        acy = cy[active]
        beyond = t_cross >= range_cells
        inside = (acx >= 0) & (acx < w) & (acy >= 0) & (acy < h)
        wall = np.zeros(active.size, dtype=bool)
        ok = inside & ~beyond
        wall[ok] = occ[acy[ok], acx[ok]]

        hit_now = wall
        if np.any(hit_now):
            idx = active[hit_now]
            depth[idx] = t_cross[hit_now] * res
            hit[idx] = True
        done = hit_now | beyond | ~inside
        active = active[~done]

    return depth, hit


def cast_ray(
    plan: FloorPlan,
    x: float,
    y: float,
    bearing: float,
    max_range: float = DEFAULT_MAX_RANGE,
) -> tuple[float, bool]:
    """Depth from (x, y) to the first wall boundary along ``bearing``.

    Raises OutOfBoundsError if the origin is outside the map and
    OccupiedOriginError if it lies inside a wall cell.
    """
    if not plan.in_bounds(x, y):
        raise OutOfBoundsError(f"ray origin ({x}, {y}) outside map")
    if not plan.is_free(x, y):
        raise OccupiedOriginError(f"ray origin ({x}, {y}) inside a wall cell")
    depth, hit = cast_rays(plan, [x], [y], [bearing], max_range)
    return float(depth[0]), bool(hit[0])


def render_gt_rays(
    plan: FloorPlan,
    pose: Pose,
    n_rays: int = DEFAULT_N_RAYS,
    fov: float = DEFAULT_FOV,
    max_range: float = DEFAULT_MAX_RANGE,
) -> RayFan:
    """Cast the full fan for a pose against the floorplan geometry."""
    if not plan.in_bounds(pose.x, pose.y):
        raise OutOfBoundsError(f"pose ({pose.x}, {pose.y}) outside map")
    if not plan.is_free(pose.x, pose.y):
        raise OccupiedOriginError(f"pose ({pose.x}, {pose.y}) inside a wall cell")
    bearings = ray_bearings(pose.theta, n_rays, fov)
    depths, hits = cast_rays(
        plan,
        np.full(n_rays, pose.x),
        np.full(n_rays, pose.y),
        bearings,
        max_range,
    )
    return RayFan(depths=depths, fov=fov, max_range=max_range, hits=hits)


def march_ray(
    plan: FloorPlan,
    x: float,
    y: float,
    bearing: float,
    max_range: float = DEFAULT_MAX_RANGE,
    step: float | None = None,
) -> tuple[float, bool]:
    """Brute-force marching reference: sample points every ``step`` meters and
    report the first sample inside a wall cell. When two consecutive samples
    land in diagonally adjacent cells, the intermediate cell crossed between
    them is checked as well, so every traversed cell is examined even when the
    chord through it is shorter than the step. Independent of the incremental
    traversal used by the engine; used as a test oracle. Default step is
    resolution / 20."""
    if step is None:
        step = plan.resolution / 20.0
    res = plan.resolution
    dx = math.cos(bearing)
    dy = math.sin(bearing)
    ts = np.arange(0.0, max_range + step, step)
    pxs = x + dx * ts
    pys = y + dy * ts
    cols = np.floor((pxs - plan.origin[0]) / res).astype(np.int64)
    rows = np.floor((pys - plan.origin[1]) / res).astype(np.int64)

    def is_wall(r: np.ndarray, c: np.ndarray) -> np.ndarray:
        inside = (
            (c >= 0) & (c < plan.width_cells) & (r >= 0) & (r < plan.height_cells)
        )
        out = np.zeros(r.shape, dtype=bool)
        out[inside] = plan.occupancy[r[inside], c[inside]]
        return out

    best = math.inf
    wall = is_wall(rows, cols)
    wall[0] = False  # the start pose itself is known free
    if wall.any():
        best = float(ts[int(np.argmax(wall))])

    # diagonal transitions: the segment cut a corner through one extra cell
    diag = (np.abs(np.diff(rows)) == 1) & (np.abs(np.diff(cols)) == 1)
    (where,) = np.nonzero(diag)
    for k in where:
        if ts[k] >= best:
            break
        r0, c0 = int(rows[k]), int(cols[k])
        r1, c1 = int(rows[k + 1]), int(cols[k + 1])
        x_b = plan.origin[0] + max(c0, c1) * res
        y_b = plan.origin[1] + max(r0, r1) * res
        t_x = (x_b - x) / dx
        t_y = (y_b - y) / dy
        # the ray visits whichever boundary is crossed first (x on ties,
        # matching the engine's traversal order)
        mid_r, mid_c = (r0, c1) if t_x <= t_y else (r1, c0)
        if is_wall(np.array([mid_r]), np.array([mid_c]))[0]:
            best = min(best, float(min(t_x, t_y)))
    if best > max_range or not math.isfinite(best):
        return float(max_range), False
    return best, True


# ---------------------------------------------------------------------------
# Persistence: portable graymaps + JSON metadata
# ---------------------------------------------------------------------------


def read_pgm(path: str) -> np.ndarray:
    """Read a binary (P5) or ASCII (P2) portable graymap as uint8."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise FormatError(f"cannot read graymap {path}: {exc}") from exc

    tokens = []
    pos = 0

    def next_token():
        nonlocal pos
        while pos < len(data):
            c = data[pos : pos + 1]
            if c == b"#":
                while pos < len(data) and data[pos : pos + 1] not in (b"\n", b"\r"):
                    pos += 1
            elif c.isspace():
                pos += 1
            else:
                start = pos
                while pos < len(data) and not data[pos : pos + 1].isspace():
                    pos += 1
                return data[start:pos]
        raise FormatError(f"truncated graymap header in {path}")

    magic = next_token()
    if magic not in (b"P5", b"P2"):
        raise FormatError(f"{path}: expected P5 or P2 graymap, got {magic!r}")
    try:
        width = int(next_token())
        height = int(next_token())
        maxval = int(next_token())
    except ValueError as exc:
        raise FormatError(f"{path}: malformed graymap header") from exc
    if width <= 0 or height <= 0:
        raise FormatError(f"{path}: non-positive graymap dimensions")
    if not (0 < maxval <= 255):
        raise FormatError(f"{path}: only 8-bit graymaps supported (maxval {maxval})")

    if magic == b"P5":
        pos += 1  # single whitespace after maxval
        raster = data[pos : pos + width * height]
        if len(raster) < width * height:
            raise FormatError(f"{path}: truncated P5 raster")
        arr = np.frombuffer(raster, dtype=np.uint8, count=width * height)
    else:
        try:
            values = [int(t) for t in data[pos:].split()]
        except ValueError as exc:
            raise FormatError(f"{path}: malformed P2 raster") from exc
        if len(values) < width * height:
            raise FormatError(f"{path}: truncated P2 raster")
        arr = np.asarray(values[: width * height], dtype=np.uint8)
    return arr.reshape(height, width).copy()


def write_pgm(path: str, values: np.ndarray) -> None:
    """Write a uint8 array as a binary (P5) graymap."""
    arr = np.asarray(values, dtype=np.uint8)
    if arr.ndim != 2:
        raise ValidationError("graymap values must be 2D")
    header = f"P5\n{arr.shape[1]} {arr.shape[0]}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(arr.tobytes())


def _metadata_path(map_path: str) -> str:
    base, _ = os.path.splitext(map_path)
    return base + ".json"


def load_floorplan(path: str) -> FloorPlan:
    """Load a floorplan from a graymap plus its sibling JSON metadata.

    Metadata keys: resolution_m (number), origin_m ([x, y]),
    texture_path (optional string, relative to the map file). Unknown keys
    are ignored. Pixel value < 128 means wall.
    """
    pixels = read_pgm(path)
    meta_path = _metadata_path(path)
    try:
        with open(meta_path, "r", encoding="utf-8") as fh:
            meta = json.load(fh)
    except OSError as exc:
        raise FormatError(f"missing metadata {meta_path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FormatError(f"corrupt metadata {meta_path}: {exc}") from exc

    if not isinstance(meta, dict) or "resolution_m" not in meta:
        raise FormatError(f"{meta_path}: missing resolution_m")
    try:
        resolution = float(meta["resolution_m"])
        origin_x, origin_y = (float(v) for v in meta.get("origin_m", [0.0, 0.0]))
    except (TypeError, ValueError) as exc:
        raise FormatError(
            f"{meta_path}: resolution_m must be a number and origin_m a pair "
            f"of numbers ({exc})"
        ) from exc
    if not all(map(math.isfinite, (resolution, origin_x, origin_y))):
        raise FormatError(f"{meta_path}: resolution_m and origin_m must be finite")
    if resolution <= 0:
        raise ValidationError(f"{meta_path}: resolution_m must be > 0")
    origin = (origin_x, origin_y)

    texture = None
    tex_path = meta.get("texture_path")
    if tex_path:
        full = os.path.join(os.path.dirname(os.path.abspath(path)), tex_path)
        texture = read_pgm(full)
        if texture.shape != pixels.shape:
            raise ValidationError(
                f"texture {tex_path} dimensions {texture.shape} do not match "
                f"map {pixels.shape}"
            )
    occupancy = pixels < WALL_THRESHOLD
    return FloorPlan(
        occupancy=occupancy, resolution=resolution, origin=origin, texture=texture
    )


def save_floorplan(plan: FloorPlan, path: str) -> None:
    """Write map graymap, sibling metadata, and texture layer (if present)."""
    pixels = np.where(plan.occupancy, 0, 255).astype(np.uint8)
    write_pgm(path, pixels)
    meta = {
        "resolution_m": plan.resolution,
        "origin_m": [plan.origin[0], plan.origin[1]],
    }
    if plan.texture is not None:
        base, _ = os.path.splitext(os.path.basename(path))
        tex_name = base + "_texture.pgm"
        write_pgm(os.path.join(os.path.dirname(os.path.abspath(path)), tex_name), plan.texture)
        meta["texture_path"] = tex_name
    with open(_metadata_path(path), "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")
