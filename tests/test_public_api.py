"""Every public name resolves, and so does every rayloc name a demo imports
(read with ast; the demos are not run)."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rayloc

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def _rayloc_imports(path: Path) -> list[tuple[str, str]]:
    """(module, name) for each `from rayloc... import name` in a file, and
    (module, "") for each `import rayloc...`."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "rayloc":
            found += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            found += [(a.name, "") for a in node.names if a.name.split(".")[0] == "rayloc"]
    return found


def test_all_names_resolve():
    missing = [name for name in rayloc.__all__ if not hasattr(rayloc, name)]
    assert not missing
    assert len(set(rayloc.__all__)) == len(rayloc.__all__)


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(demo):
    imports = _rayloc_imports(demo)
    assert imports, f"{demo.name} imports nothing from rayloc"
    for module, name in imports:
        mod = importlib.import_module(module)
        assert not name or hasattr(mod, name), f"{demo.name}: {module}.{name} is gone"


_NO_SCIPY_PROBE = """
import sys
import numpy as np
import rayloc.cli
from rayloc.contrastive import (MiningSpec, PerturbSpec, add_peer_negatives,
                                build_training_samples, mine_samples, train_linear_embedder)
from rayloc.crops import CropSpec
from rayloc.synth import WorldSpec, generate_world, simulate_observation, valid_gt_poses

dataset = []
for layout, extent in (("twin-rooms", (12.0, 6.0)), ("corridor-of-3", (12.0, 6.0)),
                       ("random-partition", (12.0, 6.0))):
    plan, poses = generate_world(WorldSpec(layout=layout, extent=extent, seed=1))
    assert valid_gt_poses(plan, seed=2)
    simulate_observation(plan, poses[0], seed=3)
    dataset.append((plan, poses[0]))
mining = MiningSpec(n_inner=1, n_cross=1, n_ori=1)
mined = [mine_samples(dataset, j, PerturbSpec(), mining, CropSpec()) for j in range(3)]
samples = build_training_samples(mined, np.eye(3, 4))
samples = add_peer_negatives(samples, dataset, n_peers=1)
_, trace = train_linear_embedder(samples, dim=4, epochs=3)
assert np.isfinite(trace).all()
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_cli_and_training_run_without_scipy():
    # SciPy's import is a large share of a process's start-up and memory;
    # rayloc needs only NumPy, so the CLI, world generation, observation
    # simulation, mining and embedder training must run without importing it
    src = str(Path(rayloc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_PROBE], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
