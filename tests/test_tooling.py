"""The scripts and the benchmark driver start, and every name they import
from `semeplan` exists, so moving a name they use fails here first."""
import ast
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
TOOLS = sorted(ROOT.glob("scripts/*.py")) + sorted(ROOT.glob("perfbench/*.py"))
ENTRY_POINTS = sorted(ROOT.glob("scripts/*.py")) + [ROOT / "perfbench" / "run.py"]


@pytest.mark.parametrize("script", ENTRY_POINTS,
                         ids=lambda path: str(path.relative_to(ROOT)))
def test_help_exits_zero(script):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, str(script), "--help"], env=env, check=True,
                   capture_output=True, timeout=120)


@pytest.mark.parametrize("tool", TOOLS, ids=lambda path: str(path.relative_to(ROOT)))
def test_semeplan_imports_resolve(tool):
    # Imports inside functions too: perfbench/run.py imports its stages late.
    for node in ast.walk(ast.parse(tool.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module.split(".")[0] == "semeplan":
            exec(compile(ast.Module([node], type_ignores=[]), str(tool), "exec"), {})
