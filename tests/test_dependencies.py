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


def names(path):
    """``(name, line)`` for every identifier, attribute and imported alias of a module."""
    for node in ast.walk(ast.parse(path.read_text("utf-8"))):
        name = getattr(node, "id", None) or getattr(node, "attr", None)
        name = name or (node.name if isinstance(node, ast.alias) else None)
        if name:
            yield name, node.lineno


def modules_naming(name, allowed=()):
    """``module:line`` for every use of ``name`` outside the ``allowed`` modules."""
    return [f"{path.stem}:{line}" for path in sorted((ROOT / "src" / "cutchoose").glob("*.py"))
            if path.stem not in allowed for found, line in names(path) if found == name]


def test_only_linalg_checks_unitarity():
    # every other module goes through linalg.require_unitary; a trap is
    # checked on its action only (protocol.receive_action), never by U†U
    assert not modules_naming("is_unitary", ("linalg",))


def test_only_the_reference_names_action_unitary():
    # a round's matrix is built only where it is defined (protocol) and where
    # the dense reference plays it (combs); the engine stays on vectors
    assert not modules_naming("action_unitary", ("protocol", "combs"))


def test_only_the_gate_names_the_comb_view():
    # the per-round protocol through the network engine is a reference: it is
    # defined in combs and read by the gate's cross-engine criterion, and no
    # production path evaluates through it
    assert not modules_naming("round_outcome_table_via_combs", ("combs", "acceptance"))


def test_the_per_round_engine_names_no_rank_one_effect():
    # a per-round rule is its block of effect rows, checked once by
    # protocol.receive_rounds; no per-round effect object is built or unwrapped
    found = [f"{stem}:{line}" for stem in ("protocol", "families")
             for name, line in names(ROOT / "src" / "cutchoose" / f"{stem}.py")
             if name == "RankOneEffect"]
    assert not found


def test_tolerances_are_named_module_constants():
    # a tolerance is a module constant that its check uses by name (linalg's
    # table; the gate's allowances at the top of acceptance.py)
    found = set()
    for path in sorted((ROOT / "src" / "cutchoose").glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                found.update(f"{path.stem}:{node.lineno} {node.value!r}" for node in ast.walk(fn)
                             if isinstance(node, ast.Constant) and isinstance(node.value, float)
                             and 0.0 < node.value < 1e-6)
    assert not found, sorted(found)


def test_the_sampler_never_reads_the_exact_products():
    # every run is drawn round by round from the round factors, so the sampled
    # rates check the exact per-output-round products (protocol._per_ell)
    # rather than repeat them; a joint-measurement rule is the per-round rule
    tree = ast.parse((ROOT / "src" / "cutchoose" / "protocol.py").read_text("utf-8"))
    sampler, = (node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "monte_carlo_run")
    assert "_per_ell" not in {getattr(node, "id", None) for node in ast.walk(sampler)}
    assert not modules_naming("GlobalAcceptance")
