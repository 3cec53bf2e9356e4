"""Ray casting, floorplan containers, and graymap persistence."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rayloc import floorplan
from rayloc.errors import (
    FormatError,
    OccupiedOriginError,
    OutOfBoundsError,
    ValidationError,
)
from rayloc.floorplan import (
    FloorPlan,
    Pose,
    RayFan,
    cast_ray,
    cast_rays,
    load_floorplan,
    march_ray,
    ray_bearings,
    read_pgm,
    render_gt_rays,
    save_floorplan,
    write_pgm,
)
from rayloc.synth import WorldSpec, generate_world


class TestPose:
    def test_theta_canonicalized(self):
        assert Pose(0, 0, 2 * math.pi + 0.5).theta == pytest.approx(0.5)
        assert Pose(0, 0, -0.5).theta == pytest.approx(2 * math.pi - 0.5)
        assert 0.0 <= Pose(0, 0, -37.2).theta < 2 * math.pi

    def test_rotated_and_distance(self):
        p = Pose(1.0, 2.0, 0.3)
        assert p.rotated(math.pi).theta == pytest.approx(0.3 + math.pi)
        assert p.distance_to(Pose(4.0, 6.0)) == pytest.approx(5.0)


class TestFloorPlan:
    def test_validation(self):
        with pytest.raises(ValidationError):
            FloorPlan(occupancy=np.zeros((3,), dtype=bool), resolution=0.1)
        with pytest.raises(ValidationError):
            FloorPlan(occupancy=np.zeros((3, 3), dtype=bool), resolution=0.0)
        with pytest.raises(ValidationError):
            FloorPlan(
                occupancy=np.zeros((3, 3), dtype=bool),
                resolution=0.1,
                texture=np.zeros((2, 2), dtype=np.uint8),
            )

    def test_immutable(self, box_plan):
        with pytest.raises(ValueError):
            box_plan.occupancy[0, 0] = False

    def test_coordinate_conventions(self, box_plan):
        assert box_plan.world_to_cell(0.45, 0.85) == (8, 4)
        assert box_plan.cell_center(8, 4) == pytest.approx((0.45, 0.85))
        assert box_plan.width_m == pytest.approx(1.0)
        assert box_plan.height_m == pytest.approx(1.0)
        assert box_plan.is_free(0.5, 0.5)
        assert not box_plan.is_free(0.05, 0.5)  # wall ring
        assert not box_plan.is_free(-1.0, 0.5)  # outside
        assert box_plan.in_bounds(0.05, 0.05)
        assert not box_plan.in_bounds(1.05, 0.5)


class TestRayBearings:
    def test_fan_spans_fov(self):
        fov = math.radians(108.0)
        b = ray_bearings(1.0, 40, fov)
        assert b.shape == (40,)
        assert b[0] == pytest.approx(1.0 - fov / 2)
        assert b[-1] == pytest.approx(1.0 + fov / 2)
        mid = ray_bearings(1.0, 41, fov)
        assert mid[20] == pytest.approx(1.0)

    def test_needs_two_rays(self):
        with pytest.raises(ValidationError):
            ray_bearings(0.0, 1, 1.0)


class TestCastRay:
    def test_axis_aligned_depths(self, box_plan):
        # interior spans [0.1, 0.9] on both axes; wall ring is one cell thick
        x, y = 0.45, 0.45
        d, hit = cast_ray(box_plan, x, y, 0.0)
        assert hit and d == pytest.approx(0.45, abs=1e-12)
        d, hit = cast_ray(box_plan, x, y, math.pi)
        assert hit and d == pytest.approx(0.35, abs=1e-12)
        d, hit = cast_ray(box_plan, x, y, math.pi / 2)
        assert hit and d == pytest.approx(0.45, abs=1e-12)
        d, hit = cast_ray(box_plan, x, y, -math.pi / 2)
        assert hit and d == pytest.approx(0.35, abs=1e-12)

    def test_diagonal_depth(self, box_plan):
        # 45 degrees from (0.5, 0.5): first crossing into the wall ring is at
        # x = y = 0.9, i.e. 0.4 * sqrt(2) along the ray
        d, hit = cast_ray(box_plan, 0.5, 0.5, math.pi / 4)
        assert hit and d == pytest.approx(0.4 * math.sqrt(2), abs=1e-12)

    def test_max_range_clamp(self, box_plan):
        d, hit = cast_ray(box_plan, 0.45, 0.45, 0.0, max_range=0.2)
        assert not hit and d == 0.2

    def test_exit_open_map(self):
        # no walls at all: the ray leaves the map and clamps to max_range
        plan = FloorPlan(occupancy=np.zeros((5, 5), dtype=bool), resolution=0.1)
        d, hit = cast_ray(plan, 0.25, 0.25, 0.0, max_range=3.0)
        assert not hit and d == 3.0

    def test_origin_validation(self, box_plan):
        with pytest.raises(OutOfBoundsError):
            cast_ray(box_plan, 5.0, 5.0, 0.0)
        with pytest.raises(OccupiedOriginError):
            cast_ray(box_plan, 0.05, 0.05, 0.0)

    def test_batch_matches_scalar(self, box_plan):
        rng = np.random.default_rng(0)
        bearings = rng.uniform(0, 2 * math.pi, size=64)
        xs = np.full(64, 0.37)
        ys = np.full(64, 0.52)
        depths, hits = cast_rays(box_plan, xs, ys, bearings)
        for i in range(64):
            d, h = cast_ray(box_plan, 0.37, 0.52, bearings[i])
            assert depths[i] == d and hits[i] == h

    def test_nonzero_origin(self):
        occ = np.zeros((10, 10), dtype=bool)
        occ[0, :] = occ[-1, :] = True
        occ[:, 0] = occ[:, -1] = True
        plan = FloorPlan(occupancy=occ, resolution=0.1, origin=(3.0, -2.0))
        d, hit = cast_ray(plan, 3.45, -1.55, 0.0)
        assert hit and d == pytest.approx(0.45, abs=1e-12)


class TestMarchOracleAgreement:
    def test_random_worlds(self):
        # small version of the acceptance sweep: engine vs independent marcher
        rng = np.random.default_rng(42)
        for seed, layout in [(5, "twin-rooms"), (6, "random-partition")]:
            plan, poses = generate_world(WorldSpec(layout=layout, seed=seed))
            for pose in [poses[i] for i in rng.choice(len(poses), 10, replace=False)]:
                bearings = rng.uniform(0, 2 * math.pi, size=8)
                for b in bearings:
                    d_engine, _ = cast_ray(plan, pose.x, pose.y, float(b))
                    d_march, _ = march_ray(plan, pose.x, pose.y, float(b))
                    assert abs(d_engine - d_march) <= plan.resolution


def _reference_cast_rays(plan, xs, ys, bearings, max_range):
    """The straightforward Amanatides-Woo traversal that cast_rays replaced:
    every ray's state is gathered and scattered through `active` on each step.
    Test oracle for the stencil traversal, which must agree bit for bit."""
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


AXIS_BEARINGS = [0.0, math.pi / 2, math.pi, 3 * math.pi / 2]


class TestClearance:
    @settings(max_examples=60)
    @given(
        h=st.integers(1, 14), w=st.integers(1, 14),
        density=st.sampled_from([0.0, 0.05, 0.2, 0.5]), seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_brute_force(self, h, w, density, seed):
        # a random grid inside a blocked ring, as cast_rays pads the map
        blocked = np.ones((h + 2, w + 2), dtype=bool)
        blocked[1:-1, 1:-1] = np.random.default_rng(seed).random((h, w)) < density
        got = floorplan._clearance(blocked)
        rows, cols = np.nonzero(blocked)
        for q in range(4):
            sc, sr = (-1 if q & 1 else 1), (-1 if q & 2 else 1)
            for r in range(h + 2):
                for c in range(w + 2):
                    dc, dr = (cols - c) * sc, (rows - r) * sr
                    ahead = (dc >= 0) & (dr >= 0)
                    assert got[q, r, c] == (dc + dr)[ahead].min()

    def test_cached_per_plan(self, box_plan):
        assert box_plan._walk_grid is box_plan._walk_grid


class TestWalkPlane:
    @pytest.mark.parametrize("w,dtype", [(32764, np.int16), (32765, np.int32)])
    def test_bytes_per_padded_cell(self, w, dtype):
        # int16 while every clearance (at most h + w + 2 on the padded grid)
        # fits, else int32: one copy per quadrant
        occ = np.zeros((1, w), dtype=bool)
        occ[0, -1] = True
        plan = FloorPlan(occupancy=occ, resolution=0.01)
        plane = plan._walk_grid
        assert plane.dtype == dtype
        assert plane.nbytes == 4 * np.dtype(dtype).itemsize * 3 * (w + 2)
        # a ray along the strip jumps up to w - 1 cells at once, onto the wall
        depth, hit = cast_ray(plan, 0.005, 0.005, 0.0, max_range=1000.0)
        assert hit and depth == pytest.approx((w - 1.5) * 0.01, abs=1e-9)

    def test_codes_clearance_walls_and_ring(self):
        occ = np.random.default_rng(4).random((7, 9)) < 0.3
        plan = FloorPlan(occupancy=occ, resolution=0.1)
        plane = plan._walk_grid.reshape(4, 9, 11)
        blocked = np.ones((9, 11), dtype=bool)
        blocked[1:-1, 1:-1] = occ
        clearance = floorplan._clearance(blocked)
        assert plane.dtype == np.int16
        assert (plane[:, 1:-1, 1:-1] == np.where(occ, 0, clearance[:, 1:-1, 1:-1])).all()
        ring = np.ones((9, 11), dtype=bool)
        ring[1:-1, 1:-1] = False
        assert (plane[:, ring] == -1).all()


class TestIndexWidth:
    """cast_rays' index-width rule at its 2**31 boundary, by arithmetic."""

    def test_each_bound_at_the_boundary(self):
        small = dict(h=1, w=1)
        assert floorplan._index_dtype(2**31, n_pairs=1, **small) is np.int32
        assert floorplan._index_dtype(2**31 + 1, n_pairs=1, **small) is np.int64
        # stencils first numbered by (key, bearing) pair
        assert floorplan._index_dtype(10, n_pairs=2**31, **small) is np.int32
        assert floorplan._index_dtype(10, n_pairs=2**31 + 1, **small) is np.int64
        # walk-plane cells: 8 (h + 2) (w + 2) = 2**31 at h = w = 2**14 - 2
        assert floorplan._index_dtype(10, 2**14 - 2, 2**14 - 2, 1) is np.int32
        assert floorplan._index_dtype(10, 2**14 - 2, 2**14 - 1, 1) is np.int64
        # segment positions: 2 (h + w + 3) stencils in use, 10 per stencil here
        n = 2**31 // 10
        assert floorplan._index_dtype(n, n_pairs=n, **small) is np.int32
        assert floorplan._index_dtype(n + 1, n_pairs=n + 1, **small) is np.int64

    def test_one_bearing_per_origin(self):
        # n distinct origins and bearings make n**2 pairs, which wrap int32
        # once n > 46,340, though only n stencils are in use
        assert floorplan._index_dtype(46_340, 10, 10, 46_340**2) is np.int32
        assert floorplan._index_dtype(46_341, 10, 10, 46_341**2) is np.int64

    def test_rule_sees_every_pair(self, box_plan, monkeypatch):
        seen = []
        rule = floorplan._index_dtype
        monkeypatch.setattr(
            floorplan, "_index_dtype", lambda *args: seen.append(args) or rule(*args)
        )
        n = 30
        xs = np.linspace(0.11, 0.85, n)
        ys = np.linspace(0.13, 0.87, n)
        bearings = np.linspace(0.05, 6.0, n)
        got = cast_rays(box_plan, xs, ys, bearings)
        assert seen == [(n, box_plan.height_cells, box_plan.width_cells, n * n)]
        ref = _reference_cast_rays(box_plan, xs, ys, bearings, floorplan.DEFAULT_MAX_RANGE)
        assert np.array_equal(got, ref)


@st.composite
def ray_batches(draw):
    """A random open or walled grid and a batch of rays whose origins lie in
    its cells: on cell boundaries (a pose-grid stride of twice the
    resolution), at cell centers or anywhere; bearings include the four axis
    directions; max_range is rarely a multiple of the resolution."""
    h, w = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    res = draw(st.sampled_from([0.05, 0.1, 0.25, 0.3]))
    origin = draw(st.sampled_from([(0.0, 0.0), (-1.3, 2.05), (0.07, -0.4)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    occ = rng.random((h, w)) < draw(st.sampled_from([0.0, 0.1, 0.3]))
    if draw(st.booleans()):
        occ[0, :] = occ[-1, :] = occ[:, 0] = occ[:, -1] = True
    plan = FloorPlan(occupancy=occ, resolution=res, origin=origin)

    n = draw(st.integers(1, 40))
    where = draw(st.sampled_from(["boundary", "stride", "center", "anywhere"]))
    if where in ("boundary", "stride"):
        # pose-grid cell centres: on cell boundaries at twice the resolution;
        # at the resolution, whose centres share a few traversal keys; or at
        # 1.37 times it, whose centres share none
        stride = res * (2 if where == "boundary" else draw(st.sampled_from([1, 1.37])))
        xs = origin[0] + (rng.integers(0, max(1, int(w * res / stride)), n) + 0.5) * stride
        ys = origin[1] + (rng.integers(0, max(1, int(h * res / stride)), n) + 0.5) * stride
    else:
        frac = np.full((2, n), 0.5) if where == "center" else rng.random((2, n))
        xs = origin[0] + (rng.integers(0, w, n) + frac[0]) * res
        ys = origin[1] + (rng.integers(0, h, n) + frac[1]) * res
    # keep only origins whose cell, as the traversal floors it, is in the map
    cols = np.floor((xs - origin[0]) / res)
    rows = np.floor((ys - origin[1]) / res)
    inside = (cols >= 0) & (cols < w) & (rows >= 0) & (rows < h)
    xs, ys = xs[inside], ys[inside]
    bearings = np.where(
        rng.random(xs.size) < 0.3,
        rng.choice(AXIS_BEARINGS, xs.size),
        rng.uniform(-math.pi, 3 * math.pi, xs.size),
    )
    max_range = draw(
        st.one_of(st.floats(0.01, 6.0), st.integers(1, 40).map(lambda k: k * res))
    )
    return plan, xs, ys, bearings, max_range


class TestCastRaysOracle:
    @settings(max_examples=300)
    @given(ray_batches())
    def test_matches_reference_traversal(self, batch):
        plan, xs, ys, bearings, max_range = batch
        depths, hits = cast_rays(plan, xs, ys, bearings, max_range)
        ref_depths, ref_hits = _reference_cast_rays(plan, xs, ys, bearings, max_range)
        assert np.array_equal(depths, ref_depths)
        assert np.array_equal(hits, ref_hits)

    @settings(max_examples=150)
    @given(ray_batches())
    def test_broadcast_matches_reference_traversal(self, batch):
        # every origin of the batch against every bearing, as GridScorer casts
        plan, xs, ys, bearings, max_range = batch
        depths, hits = cast_rays(plan, xs[:, None], ys[:, None], bearings[None, :], max_range)
        ref_depths, ref_hits = _reference_cast_rays(
            plan, np.repeat(xs, bearings.size), np.repeat(ys, bearings.size),
            np.tile(bearings, xs.size), max_range,
        )
        assert depths.shape == hits.shape == (xs.size, bearings.size)
        assert np.array_equal(depths.ravel(), ref_depths)
        assert np.array_equal(hits.ravel(), ref_hits)

    @settings(max_examples=150)
    @given(ray_batches(), st.integers(1, 20), st.integers(0, 2**32 - 1), st.booleans())
    def test_origins_off_the_map_cast_max_range(self, batch, n_off, seed, broadcast):
        # in-map origins mixed with off-map ones past each side, some on the
        # map's far edge, which floors to the first column or row past it
        plan, xs, ys, bearings, max_range = batch
        rng = np.random.default_rng(seed)
        h, w, res = plan.height_cells, plan.width_cells, plan.resolution
        side = rng.integers(0, 4, n_off)
        past = np.where(rng.random(n_off) < 0.3, 0.0, rng.uniform(1e-6, 3.0, n_off))
        cols = np.select(
            [side == 0, side == 1], [-1e-6 - past, w + past], rng.uniform(-3, w + 3, n_off)
        )
        rows = np.select(
            [side == 2, side == 3], [-1e-6 - past, h + past], rng.uniform(-3, h + 3, n_off)
        )
        all_xs = np.concatenate([xs, plan.origin[0] + cols * res])
        all_ys = np.concatenate([ys, plan.origin[1] + rows * res])
        # in the map as the traversal floors an origin
        c = np.floor((all_xs - plan.origin[0]) / res)
        r = np.floor((all_ys - plan.origin[1]) / res)
        on_map = (c >= 0) & (c < w) & (r >= 0) & (r < h)
        order = rng.permutation(all_xs.size)
        all_xs, all_ys, on_map = all_xs[order], all_ys[order], on_map[order]
        if broadcast:
            fan = np.concatenate([bearings[:5], AXIS_BEARINGS])
            depths, hits = cast_rays(
                plan, all_xs[:, None], all_ys[:, None], fan[None, :], max_range
            )
            all_xs = np.repeat(all_xs, fan.size)
            all_ys = np.repeat(all_ys, fan.size)
            on_map = np.repeat(on_map, fan.size)
            all_bearings = np.tile(fan, order.size)
            depths, hits = depths.ravel(), hits.ravel()
        else:
            all_bearings = rng.uniform(-math.pi, 3 * math.pi, order.size)
            depths, hits = cast_rays(plan, all_xs, all_ys, all_bearings, max_range)
        ref_depths, ref_hits = _reference_cast_rays(
            plan, all_xs[on_map], all_ys[on_map], all_bearings[on_map], max_range
        )
        assert np.array_equal(depths[on_map], ref_depths)
        assert np.array_equal(hits[on_map], ref_hits)
        assert (depths[~on_map] == max_range).all() and not hits[~on_map].any()

    def test_empty_and_scalar_batches(self, box_plan):
        depths, hits = cast_rays(box_plan, np.zeros((0, 1)), 0.5, np.zeros((1, 3)))
        assert depths.shape == hits.shape == (0, 3)
        depth, hit = cast_rays(box_plan, 0.5, 0.5, 0.0)
        assert depth.shape == () and hit and depth == pytest.approx(0.4, abs=1e-12)

    def test_long_range_on_a_fine_map(self, monkeypatch):
        # 0.01 m cells and a 100 m range: stencils stop at the map edge, never
        # at the 10,000 cells of the range
        h, w = 150, 240
        occ = np.zeros((h, w), dtype=bool)
        occ[60:70, 100:180] = True
        plan = FloorPlan(occupancy=occ, resolution=0.01)
        steps = []
        extend = floorplan._extend_stencils
        monkeypatch.setattr(
            floorplan, "_extend_stencils", lambda state, m: steps.append(m) or extend(state, m)
        )
        rng = np.random.default_rng(3)
        xs, ys = rng.uniform(0.0, 2.4, 50), rng.uniform(0.0, 0.55, 50)
        bearings = rng.uniform(0, 2 * math.pi, 60)
        depths, hits = cast_rays(plan, xs[:, None], ys[:, None], bearings[None, :], 100.0)
        assert sum(steps) <= h + w + 2
        ref = _reference_cast_rays(
            plan, np.repeat(xs, 60), np.repeat(ys, 60), np.tile(bearings, 50), 100.0
        )
        assert np.array_equal(depths.ravel(), ref[0]) and np.array_equal(hits.ravel(), ref[1])

    @pytest.mark.parametrize("bearing", AXIS_BEARINGS)
    @pytest.mark.parametrize("max_range", [0.77, 0.4])
    def test_single_ray_on_a_boundary(self, box_plan, bearing, max_range):
        # origins on cell boundaries; from (0.5, 0.5) the ring's wall is
        # crossed at exactly 0.4 m, the range where a crossing stops counting
        for x, y in [(0.5, 0.5), (0.3, 0.5), (0.5, 0.3), (0.1, 0.1)]:
            got = cast_rays(box_plan, [x], [y], [bearing], max_range)
            ref = _reference_cast_rays(box_plan, [x], [y], [bearing], max_range)
            assert np.array_equal(got, ref)

    @pytest.mark.parametrize("bearing", [5e-324, -5e-324, 2.2e-311, -1e-310])
    def test_subnormal_bearing_casts_as_bearing_zero(self, box_plan, bearing):
        # 1 / sin(bearing) used to overflow into a RuntimeWarning and nan depths
        xs, ys = [0.5, 0.3, 0.37, 0.1], [0.5, 0.3, 0.52, 0.1]
        got = cast_rays(box_plan, xs, ys, [bearing] * 4, 0.77)
        assert np.array_equal(got, cast_rays(box_plan, xs, ys, [0.0] * 4, 0.77))


class TestRayFan:
    def test_render_gt_rays(self, box_plan):
        fan = render_gt_rays(box_plan, Pose(0.5, 0.5, 0.0), n_rays=5)
        assert fan.n_rays == 5
        assert fan.hits.all()
        assert np.all(fan.depths <= fan.max_range)

    def test_validation(self):
        with pytest.raises(ValidationError):
            RayFan(depths=np.array([-0.1, 0.2]), fov=1.0, max_range=10.0)
        with pytest.raises(ValidationError):
            RayFan(depths=np.array([0.1, 11.0]), fov=1.0, max_range=10.0)
        with pytest.raises(ValidationError):
            RayFan(depths=np.array([0.1, 0.2]), fov=0.0, max_range=10.0)
        # NaN compares false both ways, so a pair of range checks lets it through
        with pytest.raises(ValidationError, match="finite"):
            RayFan(depths=np.array([np.nan, 1.0]), fov=1.0, max_range=10.0)

    def test_default_hits(self):
        fan = RayFan(depths=np.array([1.0, 10.0]), fov=1.0, max_range=10.0)
        assert fan.hits.tolist() == [True, False]


class TestPersistence:
    def test_pgm_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        arr = rng.integers(0, 256, size=(7, 11), dtype=np.uint8)
        path = str(tmp_path / "a.pgm")
        write_pgm(path, arr)
        values, maxval = read_pgm(path)
        assert np.array_equal(values, arr) and maxval == 255

    def test_read_ascii_pgm(self, tmp_path):
        path = tmp_path / "a.pgm"
        path.write_text("P2\n# comment\n3 2\n255\n0 128 255\n10 20 30\n")
        arr, maxval = read_pgm(str(path))
        assert maxval == 255
        assert arr.shape == (2, 3)
        assert arr.tolist() == [[0, 128, 255], [10, 20, 30]]

    def test_read_pgm_errors(self, tmp_path):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"P6\n2 2\n255\n\x00\x00\x00\x00")
        with pytest.raises(FormatError):
            read_pgm(str(bad))
        trunc = tmp_path / "trunc.pgm"
        trunc.write_bytes(b"P5\n4 4\n255\n\x00\x00")
        with pytest.raises(FormatError):
            read_pgm(str(trunc))
        with pytest.raises(FormatError):
            read_pgm(str(tmp_path / "missing.pgm"))
        # values outside [0, maxval]; a P2 value past 255 was an OverflowError
        for name, body in [
            ("p2_big.pgm", b"P2\n2 1\n255\n0 300\n"),
            ("p2_negative.pgm", b"P2\n2 1\n255\n-1 0\n"),
            ("p2_above_maxval.pgm", b"P2\n2 1\n1\n0 5\n"),
            ("p5_above_maxval.pgm", b"P5\n2 1\n15\n\x00\x10"),
        ]:
            (tmp_path / name).write_bytes(body)
            with pytest.raises(FormatError, match="maxval"):
                read_pgm(str(tmp_path / name))

    def test_floorplan_round_trip(self, textured_box_plan, tmp_path):
        path = str(tmp_path / "map.pgm")
        save_floorplan(textured_box_plan, path)
        loaded = load_floorplan(path)
        assert np.array_equal(loaded.occupancy, textured_box_plan.occupancy)
        assert np.array_equal(loaded.texture, textured_box_plan.texture)
        assert loaded.resolution == textured_box_plan.resolution
        assert loaded.origin == textured_box_plan.origin

    @pytest.mark.parametrize(
        "maxval,raster,walls",
        [
            (1, [[0, 1, 1], [1, 0, 1]], [[1, 0, 0], [0, 1, 0]]),
            (15, [[0, 7, 8], [15, 3, 12]], [[1, 1, 0], [0, 1, 0]]),
            (255, [[0, 127, 128], [255, 10, 200]], [[1, 1, 0], [0, 1, 0]]),
        ],
    )
    def test_wall_threshold_scales_with_maxval(self, tmp_path, maxval, raster, walls):
        # a wall is a value below 128 on the 0-255 scale: value * 255 < 128 * maxval;
        # texture ids are read as raw values
        body = "\n".join(" ".join(map(str, row)) for row in raster)
        for name in ("map.pgm", "tex.pgm"):
            (tmp_path / name).write_text(f"P2\n3 2\n{maxval}\n{body}\n")
        (tmp_path / "map.json").write_text('{"resolution_m": 0.1, "texture_path": "tex.pgm"}')
        plan = load_floorplan(str(tmp_path / "map.pgm"))
        assert plan.occupancy.astype(int).tolist() == walls
        assert plan.texture.tolist() == raster

    def test_missing_metadata(self, box_plan, tmp_path):
        path = str(tmp_path / "map.pgm")
        save_floorplan(box_plan, path)
        (tmp_path / "map.json").unlink()
        with pytest.raises(FormatError):
            load_floorplan(path)

    def test_corrupt_metadata(self, box_plan, tmp_path):
        path = str(tmp_path / "map.pgm")
        save_floorplan(box_plan, path)
        (tmp_path / "map.json").write_text("{not json")
        with pytest.raises(FormatError):
            load_floorplan(path)

    def test_missing_resolution(self, box_plan, tmp_path):
        path = str(tmp_path / "map.pgm")
        save_floorplan(box_plan, path)
        (tmp_path / "map.json").write_text("{}")
        with pytest.raises(FormatError):
            load_floorplan(path)
