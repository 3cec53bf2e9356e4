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


def test_cli_starts_without_scipy():
    # SciPy's import is a large share of a `rayloc localize` process's start-up,
    # and localize never uses it; only world generation imports it, on demand
    src = str(Path(rayloc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    probe = "import sys, rayloc.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
