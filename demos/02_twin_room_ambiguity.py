"""Why depth alone cannot localize in repetitive buildings.

The twin-rooms world is exactly symmetric under a 180-degree rotation about
its center: every pose has a congruent counterpart in the other room whose
rendered depth fan is identical. This demo shows that the depth posterior
ties the two poses exactly, so a depth-only localizer picks a room by
tie-break, i.e. at chance. Run with:

    python3 demos/02_twin_room_ambiguity.py
"""

import math

import numpy as np

from rayloc import (
    GridScorer,
    Pose,
    PoseGridSpec,
    WorldSpec,
    generate_world,
    render_gt_rays,
)
from rayloc.bench import room_of, rotated_twin_pose

plan, poses = generate_world(WorldSpec(seed=0))
gt = poses[len(poses) // 4]
twin = rotated_twin_pose(plan, gt)

print(f"ground truth: ({gt.x:.2f}, {gt.y:.2f}), heading {math.degrees(gt.theta):.0f} deg, room {room_of(plan, gt)}")
print(f"rotated twin: ({twin.x:.2f}, {twin.y:.2f}), heading {math.degrees(twin.theta):.0f} deg, room {room_of(plan, twin)}")

fan_gt = render_gt_rays(plan, gt)
fan_twin = render_gt_rays(plan, twin)
print(f"\nmax fan difference between the two poses: {np.max(np.abs(fan_gt.depths - fan_twin.depths)):.2e} m")

grid = PoseGridSpec(cell_stride=0.1, n_orientations=36)
dafpm = GridScorer(plan, grid).score(fan_gt.depths)


def grid_value(pose: Pose) -> float:
    r = int(round(pose.y / grid.cell_stride - 0.5))
    c = int(round(pose.x / grid.cell_stride - 0.5))
    o = int(round(pose.theta / (2 * math.pi / 36))) % 36
    return float(dafpm.values[r, c, o])


p_gt = grid_value(gt)
p_twin = grid_value(twin)
print(f"posterior at ground truth: {p_gt:.3e}")
print(f"posterior at twin pose:    {p_twin:.3e}")
print(f"difference:                {abs(p_gt - p_twin):.3e}  (exact tie)")
print(
    "\nWith an exact tie the depth-only argmax falls back to the lowest grid"
    "\nindex, so over many queries the chosen room is essentially a coin flip."
)
