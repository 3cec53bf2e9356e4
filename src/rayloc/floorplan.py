"""Floorplan representation, persistence, and exact 2D ray casting.

Conventions used throughout the package:

* occupancy arrays have shape (height_cells, width_cells); ``occupancy[row, col]``
  is True for wall cells.
* world x maps to columns, world y to rows; the center of cell (row, col) is
  ``origin + ((col + 0.5) * res, (row + 0.5) * res)``.
* bearings are radians, counter-clockwise, 0 along +x.
"""

from __future__ import annotations

import functools
import json
import math
import os
import struct
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

WALL_THRESHOLD = 128  # a pixel below 128 on the 0-255 scale is a wall

_STEP_BUDGET = 64  # stencil steps first generated per ray, doubled per segment
_SEGMENT_ENTRIES = 1 << 18  # most stencil steps generated at once


@dataclass(frozen=True)
class Pose:
    """Continuous 2D pose; theta is canonicalized to [0, 2*pi)."""

    x: float
    y: float
    theta: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "theta", float(self.theta) % TWO_PI)

    def rotated(self, dtheta: float) -> "Pose":
        return Pose(self.x, self.y, self.theta + dtheta)

    def distance_to(self, other: "Pose") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)

    def as_dict(self) -> dict:
        return {"x": self.x, "y": self.y, "theta": self.theta}


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

    @functools.cached_property
    def _walk_grid(self) -> np.ndarray:
        """What :func:`cast_rays` walks, flat, one copy per quadrant: each
        cell of the occupancy grid padded with a one-cell off-map ring holds
        its :func:`_clearance` in that quadrant when free, 0 when a wall and
        -1 on the ring. int16 when every clearance (at most h + w + 2) fits,
        else int32: 8 or 16 bytes per padded cell."""
        h, w = self.height_cells, self.width_cells
        blocked = np.ones((h + 2, w + 2), dtype=bool)
        blocked[1:-1, 1:-1] = self.occupancy
        plane = _clearance(blocked, np.int16 if h + w + 2 < 2**15 else np.int32)
        plane[:, [0, -1], :] = plane[:, :, [0, -1]] = -1
        return plane.reshape(-1)

    def _crop_canvas(self, margin: int, pad: int) -> tuple[np.ndarray, int]:
        """What crops sample, flat and read-only, with the margin it has (at
        least ``margin``): one ``'<u2'`` per cell, occupancy in the low byte
        and texture (the pad's on an untextured plan) in the high byte, padded
        with ``pad`` for ``margin`` cells on every side. One canvas per plan,
        rebuilt only when a crop needs a wider margin."""
        cached = self.__dict__.get("_canvas")
        if cached is None or cached[1] < margin:
            h, w = self.height_cells, self.width_cells
            canvas = np.full((h + 2 * margin, w + 2 * margin), pad, dtype="<u2")
            texture = pad >> 8 if self.texture is None else self.texture.astype("<u2")
            canvas[margin : margin + h, margin : margin + w] = self.occupancy | texture << 8
            canvas.setflags(write=False)
            cached = self.__dict__["_canvas"] = (canvas.reshape(-1), margin)
        return cached

    @functools.cached_property
    def _free_cells(self) -> np.ndarray:
        """(row, col) of every free cell in row-major order, read-only."""
        cells = np.argwhere(~self.occupancy)
        cells.setflags(write=False)
        return cells

    def is_free(self, x: float, y: float) -> bool:
        row, col = self.world_to_cell(x, y)
        if not (0 <= row < self.height_cells and 0 <= col < self.width_cells):
            return False
        return not bool(self.occupancy[row, col])


def check_depth_range(depths: np.ndarray, max_range: float, what: str = "predicted depths") -> None:
    """The one depth-range rule: reject depths that are non-finite or outside
    [0, max_range], with an ulp of slack above max_range for decoded depths."""
    if not np.all((depths >= 0) & (depths <= max_range + 1e-12)):
        raise ValidationError(f"{what} must be finite and lie in [0, {max_range}]")


def check_ray_sensor(max_range: float, fov: float | None = None) -> None:
    """The one ray-sensor rule: a finite max_range > 0 and a fov in (0, 2*pi)."""
    if fov is not None and not 0.0 < fov < TWO_PI:
        raise ValidationError(f"fov must be in (0, 2*pi), got {fov}")
    if not 0.0 < max_range < math.inf:
        raise ValidationError(f"max_range must be finite and > 0, got {max_range}")


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
        check_ray_sensor(self.max_range, self.fov)
        check_depth_range(depths, self.max_range, "depths")
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


def _clearance(blocked: np.ndarray, dtype=np.int32) -> np.ndarray:
    """Per quadrant q = (step_x < 0) + 2 * (step_y < 0) and cell: the fewest
    unit steps in that quadrant's two directions (+-1 column, +-1 row) from
    the cell to a True cell of ``blocked``, 0 on those. A ray heading into
    quadrant q from a cell of clearance c therefore enters only free cells
    in its next c - 1 steps. Every path must end on a True cell (a blocked
    outer ring ensures it, and bounds every clearance by h + w); ``(4, h, w)``
    of ``dtype``."""
    h, w = blocked.shape
    out = np.empty((4, h, w), dtype=dtype)
    cols = np.arange(w)
    for q in range(4):
        view = (slice(None, None, -1 if q & 2 else 1), slice(None, None, -1 if q & 1 else 1))
        ahead = np.full(w, h + w)  # clearance of the row ahead, none yet
        for row, dist in zip(blocked[view][::-1], out[q][view][::-1]):
            # c(col) = min over k >= 0 of k + (0 on a blocked cell, else 1 + ahead)
            reach = np.where(row, 0, ahead + 1) + cols
            dist[:] = ahead = np.minimum.accumulate(reach[::-1])[::-1] - cols
    return out


def _index_dtype(n_rays: int, h: int, w: int, n_pairs: int) -> type:
    """The one index-width rule of :func:`cast_rays`, whose ray state holds
    three indices per ray: its flat index into the batch (below ``n_rays``);
    its cell in the walk plane, which an out-of-range crossing moves past
    the plane by the plane's size (below 8 (h + 2) (w + 2)); and its
    stencil, first as its (key, bearing) pair (below ``n_pairs``), then as
    its position in a segment's (step, stencil) table of at most
    min(``n_pairs``, ``n_rays``) stencils in use, at most a segment of
    h + w + 2 steps plus one clearance jump (below 2 (h + w + 3) of those).
    int32 when every bound is at most 2**31, else int64."""
    n_stencils = min(n_pairs, n_rays)
    bound = max(n_rays, n_pairs, 8 * (h + 2) * (w + 2), 2 * (h + w + 3) * n_stencils)
    return np.int32 if bound <= 2**31 else np.int64


def _stencil_rays(
    plan: FloorPlan, xs: np.ndarray, ys: np.ndarray, bearings: np.ndarray
) -> tuple[np.ndarray, list[np.ndarray]]:
    """The rays of a :func:`cast_rays` batch as the rows of one ``(3, n)``
    array of :func:`_index_dtype`: their flat indices into the broadcast
    batch, their start cells in ``plan._walk_grid`` (in their quadrant's
    copy) and their stencils; and the stencils' traversal state before the
    first step, as :func:`_extend_stencils` takes it. A ray whose origin is
    off the map starts on the ring's first cell, every neighbour of which
    is on the ring (or clipped onto it), so its first step ends it."""
    shape = np.broadcast_shapes(xs.shape, ys.shape, bearings.shape)
    size = math.prod(shape)
    h, w = plan.height_cells, plan.width_cells
    px, py = (xs - plan.origin[0]) / plan.resolution, (ys - plan.origin[1]) / plan.resolution
    fx, fy = np.floor(px), np.floor(py)
    inside = (fx >= 0) & (fx < w) & (fy >= 0) & (fy < h)
    # an origin's key: floor(p) - p and floor(p) + 1 - p per axis (+ 0.0: no
    # negative zero, as from an integer cell), on which every float of its
    # traversal depends; equal keys are equal bytes
    key = np.empty(inside.shape + (4,))
    key[..., 0], key[..., 1] = (fx + 0.0) - px, (fx + 1.0) - px
    key[..., 2], key[..., 3] = (fy + 0.0) - py, (fy + 1.0) - py
    keys, pair_of = np.unique(key.reshape(-1, 4).view("V32"), return_inverse=True)
    keys = keys.view(float).reshape(-1, 4)
    angles, angle_of = np.unique(bearings, return_inverse=True)
    index = _index_dtype(size, h, w, keys.shape[0] * angles.size)
    dx, dy = np.cos(angles), np.sin(angles)
    # a subnormal component (its 1 / d overflows) never reaches a grid line in range
    dx, dy = (np.where(np.abs(d) < np.finfo(float).tiny, 0.0, d) for d in (dx, dy))
    quadrant = ((dx < 0) + 2 * (dy < 0)) * ((h + 2) * (w + 2))

    # a ray's start cell and stencil, each one broadcast add over the batch:
    # a stencil per (key, bearing) pair
    rays = np.empty((3, size), dtype=index)
    rays[0] = np.arange(size, dtype=index)
    start = np.where(inside, (fy + 1) * (w + 2) + fx + 1, 0).astype(index)
    np.add(start, quadrant.astype(index)[angle_of].reshape(bearings.shape),
           out=rays[1].reshape(shape))
    np.add((pair_of * angles.size).astype(index).reshape(inside.shape),
           angle_of.astype(index).reshape(bearings.shape), out=rays[2].reshape(shape))
    # every pair's stencil when there are no more of those than rays, else
    # only those that occur
    if keys.shape[0] * angles.size <= size:
        stencils = np.arange(keys.shape[0] * angles.size)
    else:
        stencils, rays[2] = np.unique(rays[2], return_inverse=True)
    pair, angle = np.divmod(stencils, angles.size)
    # 1 / d, and 0 where an axis never steps so that _extend_stencils adds 0
    inv_dx = np.divide(1.0, dx, out=np.zeros_like(dx), where=dx != 0)
    inv_dy = np.divide(1.0, dy, out=np.zeros_like(dy), where=dy != 0)
    # distance (in cell units) to the first x/y grid-line crossing
    t_max_x = keys[pair, (dx > 0).astype(int)[angle]] * inv_dx[angle]
    t_max_y = keys[pair, (dy > 0).astype(int)[angle] + 2] * inv_dy[angle]
    t_max = np.where(np.stack([dx, dy])[:, angle] != 0, np.stack([t_max_x, t_max_y]), np.inf)
    state = [
        t_max, np.abs(np.stack([inv_dx, inv_dy]))[:, angle],
        np.where(dx >= 0, 1, -1).astype(index)[angle],
        np.where(dy >= 0, w + 2, -(w + 2)).astype(index)[angle],
        np.zeros(stencils.size, dtype=index),
    ]
    return rays, state


def _extend_stencils(state: list[np.ndarray], m: int) -> tuple[np.ndarray, np.ndarray]:
    """The next ``m`` steps of the stencils in ``state`` = [t_max (2, n),
    t_delta (2, n), step_x, step_y, offset], advanced in place: per step and
    stencil, the offset of the cell entered and its crossing distance, as
    flat ``(m, n)`` arrays. Each step is the Amanatides-Woo step (x on ties,
    the crossing is min(t_max_x, t_max_y)), so every float is the one a
    per-ray walk computes."""
    t_max, t_delta, step_x, step_y, offset = state
    go_x = np.empty((m, offset.size), dtype=bool)
    crossings = np.empty((m, offset.size))
    t_max_x, t_max_y = t_max
    # t_max -= go_x * (-t_delta_x, t_delta_y) + (0, -t_delta_y) adds t_delta
    # to the axis that steps and subtracts +0.0 from the other, which changes
    # no float (not even -0.0): a masked add without the mask
    scale = t_delta * np.array([[-1.0], [1.0]])
    shift = t_delta * np.array([[0.0], [-1.0]])
    sub = np.empty(t_max.shape)
    for go, crossing in zip(go_x, crossings):
        np.less_equal(t_max_x, t_max_y, out=go)
        np.minimum(t_max_x, t_max_y, out=crossing)
        np.multiply(go, scale, out=sub)
        sub += shift
        t_max -= sub
    offsets = go_x * (step_x - step_y)
    offsets += step_y
    offsets[0] += offset
    for prev, row in zip(offsets, offsets[1:]):
        row += prev
    offset[:] = offsets[-1]
    return offsets.reshape(-1), crossings.reshape(-1)


def cast_rays(
    plan: FloorPlan,
    xs: np.ndarray,
    ys: np.ndarray,
    bearings: np.ndarray,
    max_range: float = DEFAULT_MAX_RANGE,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact grid traversal (Amanatides-Woo) for a batch of rays.

    ``xs``, ``ys`` and ``bearings`` broadcast together; the depths and hits
    have the broadcast shape. Each ray crosses cells in order; its depth is
    the distance to the near boundary of the first wall cell. Rays that
    leave the map or exceed max_range are clamped to max_range with hit ==
    False. Origins must lie in free cells inside the map (not validated
    here; the scalar wrapper :func:`cast_ray` validates); a ray whose origin
    lies outside the map returns max_range, no hit.

    The traversal's floats (first crossings, per-axis increments, the
    x-or-y choice of each step and each crossing distance) depend only on
    the bearing and on the origin's per-axis keys, ``floor(p) - p`` and
    ``floor(p) + 1 - p`` with p in cell units. Rays that share all three
    share one *stencil*: per step, the offset of the cell entered relative
    to the start cell and the crossing distance, computed once by the
    traversal's own arithmetic. A ray then walks its stencil by clearance
    jumps: from a free cell whose :func:`_clearance` in the ray's quadrant
    is c, the next c - 1 cells are free, so it advances c steps at once.
    Only an index moves, so each depth is the stored float of the
    step-by-step traversal. Stencils are generated whole when many rays
    share them, else in growing segments for the rays that still need
    them, and never beyond the h + w + 2 steps that reach the map edge.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    bearings = np.asarray(bearings, dtype=float)
    depth = np.full(np.broadcast_shapes(xs.shape, ys.shape, bearings.shape), float(max_range))
    hit = np.zeros(depth.shape, dtype=bool)
    flat_depth, flat_hit = depth.reshape(-1), hit.reshape(-1)
    plane = plan._walk_grid
    range_cells = max_range / plan.resolution
    # per live ray: its flat index into the batch, its start cell in the plane
    # and, once the stencils are numbered, its position in a segment's flat
    # (step, stencil) table: past the start cell's clearance
    rays, state = _stencil_rays(plan, xs, ys, bearings)
    first = plane.take(rays[1])
    first[first < 1] = 1
    first -= 1
    rays[2] += np.multiply(first, state[-1].size, dtype=rays.dtype)
    del first
    # a crossing count within range_cells is at most 2 * range_cells + 2
    cap = int(min(plan.height_cells + plan.width_cells + 2, 2 * range_cells + 2))
    done = 0  # steps of every stencil generated so far
    budget = _STEP_BUDGET  # steps per ray, doubled every segment
    while rays.shape[1] and done < cap:
        n = state[-1].size
        m = min(cap - done, max(1, min(budget * rays.shape[1], _SEGMENT_ENTRIES) // n))
        offsets, crossings = _extend_stencils(state, m)
        offsets[crossings >= range_cells] = plane.size  # read as off the map, below
        last = done + m >= cap
        if last:  # a ray past the last segment is done: it reads one more sentinel
            offsets = np.append(offsets, offsets.dtype.type(plane.size))
        waiting = []
        while rays.shape[1]:
            if not last:
                beyond = rays[2] >= m * n
                if beyond.any():
                    waiting.append(rays.compress(beyond, axis=1))
                    rays = rays.compress(~beyond, axis=1)
            cell = np.add(offsets.take(rays[2], mode="clip"), rays[1], dtype=np.intp)
            jump = plane.take(cell, mode="clip")  # a sentinel reads the last, off-map cell
            del cell
            wall = (jump == 0).nonzero()[0]  # few: one index for both rows
            if wall.size:
                ids = rays[0].take(wall).astype(np.intp)  # scatters fastest as intp
                flat_depth[ids] = crossings.take(rays[2].take(wall)) * plan.resolution
                flat_hit[ids] = True
            del wall
            # every ray jumps; those that hit or left the map then drop out,
            # the others moving to the front of the state they already hold
            rays[2] += np.multiply(jump, n, dtype=rays.dtype)
            go = (jump > 0).nonzero()[0]
            del jump
            for row in rays:
                row.take(go, out=row[: go.size])
            rays = rays[:, : go.size]
            del go
        done += m
        if not waiting:
            break
        # the waiting rays whose stencils ended this segment in range go on
        rays = np.concatenate(waiting, axis=1)
        rays[2] -= m * n
        stencil = rays[2] % n
        live = crossings[(m - 1) * n + stencil] < range_cells
        del waiting, offsets, crossings  # before the next segment is allocated
        rays, stencil = rays.compress(live, axis=1), stencil.compress(live)
        needed = np.zeros(n, dtype=bool)
        needed[stencil] = True
        state = [a.compress(needed, axis=-1) for a in state]
        rays[2] = rays[2] // n * state[-1].size + (np.cumsum(needed) - 1)[stencil]
        budget *= 2
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
    depth, hit = cast_rays(plan, x, y, bearing, max_range)
    return float(depth), bool(hit)


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
    depths, hits = cast_rays(plan, pose.x, pose.y, bearings, max_range)
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
# Persistence: portable graymaps + JSON metadata, float32 tensors
# ---------------------------------------------------------------------------


def read_pgm(path: str) -> tuple[np.ndarray, int]:
    """Read a binary (P5) or ASCII (P2) portable graymap: raw uint8 values and maxval."""
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
        arr = np.asarray(values[: width * height])
    if arr.min() < 0 or arr.max() > maxval:
        raise FormatError(f"{path}: graymap values must lie in [0, maxval {maxval}]")
    return arr.reshape(height, width).astype(np.uint8), maxval


def write_pgm(path: str, values: np.ndarray) -> None:
    """Write a uint8 array as a binary (P5) graymap."""
    arr = np.asarray(values, dtype=np.uint8)
    if arr.ndim != 2:
        raise ValidationError("graymap values must be 2D")
    header = f"P5\n{arr.shape[1]} {arr.shape[0]}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(arr.tobytes())


def _write_tensor(path: str, magic: bytes, values: np.ndarray) -> None:
    """Binary tensor file (DPMF, EMB1): the 4-byte magic, each dimension as a
    little-endian u32, then the values as little-endian float32, row-major."""
    arr = np.asarray(values)
    with open(path, "wb") as fh:
        fh.write(magic + struct.pack(f"<{arr.ndim}I", *arr.shape))
        fh.write(arr.astype("<f4").tobytes())


def _read_tensor(path: str, magic: bytes, ndim: int) -> np.ndarray:
    """Read back a ``_write_tensor`` file of ``ndim`` dimensions as float64."""
    with open(path, "rb") as fh:
        found = fh.read(4)
        header = fh.read(4 * ndim)
        data = fh.read()  # never sized from the header: a corrupt one may be huge
    if found != magic:
        raise FormatError(f"{path}: bad magic {found!r}")
    if len(header) != 4 * ndim:
        raise FormatError(f"{path}: truncated header")
    shape = struct.unpack(f"<{ndim}I", header)
    if len(data) < 4 * math.prod(shape):
        raise FormatError(f"{path}: truncated values")
    return np.frombuffer(data, dtype="<f4", count=math.prod(shape)).reshape(shape).astype(float)


def _metadata_path(map_path: str) -> str:
    base, _ = os.path.splitext(map_path)
    return base + ".json"


def load_floorplan(path: str) -> FloorPlan:
    """Load a floorplan from a graymap plus its sibling JSON metadata.

    Metadata keys: resolution_m (number), origin_m ([x, y]),
    texture_path (optional string, relative to the map file). Unknown keys
    are ignored. A pixel is a wall when value * 255 < 128 * maxval.
    """
    pixels, maxval = read_pgm(path)
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
    if tex_path is not None and not isinstance(tex_path, str):
        raise FormatError(f"{meta_path}: texture_path must be a string")
    if tex_path:
        full = os.path.join(os.path.dirname(os.path.abspath(path)), tex_path)
        texture, _ = read_pgm(full)
        if texture.shape != pixels.shape:
            raise ValidationError(
                f"texture {tex_path} dimensions {texture.shape} do not match "
                f"map {pixels.shape}"
            )
    occupancy = pixels.astype(np.int32) * 255 < WALL_THRESHOLD * maxval
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
