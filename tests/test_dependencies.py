"""numpy is the only runtime dependency: the package and its gate run with
scipy blocked from import. Engine modules never import the layers above them."""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import importlib
import pkgutil
import sys

sys.modules["scipy"] = None  # any import of scipy or a submodule now fails

import cutchoose

names = sorted(info.name for info in pkgutil.iter_modules(cutchoose.__path__))
assert "cli" in names, names
for name in names:
    importlib.import_module(f"cutchoose.{name}")

from cutchoose import cli

sys.exit(cli.main(["selftest", "--only", "diamond-distance"]))
"""


def test_runs_without_scipy(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "PASS" in result.stdout


ENGINE_MODULES = ("linalg", "states", "strategies", "protocol", "families", "bounds",
                  "combs", "optimize", "sampling")
UPPER_LAYERS = {"config", "report", "cli", "acceptance"}


def imported_modules(tree):
    """Last component of every module an ``import`` statement names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.rsplit(".", 1)[-1] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module is not None:
                yield node.module.rsplit(".", 1)[-1]
            if node.module in (None, "cutchoose"):  # from . import config
                yield from (alias.name for alias in node.names)


def test_engine_modules_do_not_import_upper_layers():
    for name in ENGINE_MODULES:
        path = ROOT / "src" / "cutchoose" / f"{name}.py"
        found = UPPER_LAYERS.intersection(imported_modules(ast.parse(path.read_text("utf-8"))))
        assert not found, f"{name} imports {sorted(found)}"


def test_only_linalg_checks_unitarity():
    # every other module goes through linalg.require_unitary; a trap is
    # checked on its action only (protocol.receive_action), never by U†U
    for path in sorted((ROOT / "src" / "cutchoose").glob("*.py")):
        if path.stem == "linalg":
            continue
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            name = name or (node.name if isinstance(node, ast.alias) else None)
            assert name != "is_unitary", f"{path.stem} uses is_unitary (line {node.lineno})"
