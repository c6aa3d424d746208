"""numpy is the only runtime dependency: the package and its gate run with
scipy blocked from import."""

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
