import numpy as np
import pytest
from hypothesis import settings

from rayloc.floorplan import FloorPlan

# time per example varies with machine load, so a per-example deadline
# would fail tests on timing alone
settings.register_profile("rayloc", deadline=None)
settings.load_profile("rayloc")


@pytest.fixture()
def box_plan() -> FloorPlan:
    """10 x 10 cells at 0.1 m: a one-cell wall ring around empty space."""
    occ = np.zeros((10, 10), dtype=bool)
    occ[0, :] = occ[-1, :] = True
    occ[:, 0] = occ[:, -1] = True
    return FloorPlan(occupancy=occ, resolution=0.1)


@pytest.fixture()
def textured_box_plan() -> FloorPlan:
    occ = np.zeros((10, 10), dtype=bool)
    occ[0, :] = occ[-1, :] = True
    occ[:, 0] = occ[:, -1] = True
    texture = np.zeros((10, 10), dtype=np.uint8)
    texture[~occ] = 1
    texture[1:9, 5:9] = 2
    texture[occ] = 0
    return FloorPlan(occupancy=occ, resolution=0.1, texture=texture)
