"""The scripts and the benchmark driver start, and every name they import
from `semeplan` exists, so moving a name they use fails here first."""
import ast
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
TOOLS = sorted(ROOT.glob("scripts/*.py")) + sorted(ROOT.glob("perfbench/*.py"))
ENTRY_POINTS = sorted(ROOT.glob("scripts/*.py")) + [ROOT / "perfbench" / "run.py"]


def _env() -> dict:
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))


@pytest.mark.parametrize("script", ENTRY_POINTS,
                         ids=lambda path: str(path.relative_to(ROOT)))
def test_help_exits_zero(script):
    subprocess.run([sys.executable, str(script), "--help"], env=_env(), check=True,
                   capture_output=True, timeout=120)


def test_console_script_target_resolves():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert list(scripts) == ["semeplan"]
    for name, target in scripts.items():
        module, attr = target.split(":")
        assert callable(getattr(importlib.import_module(module), attr)), target
        # As the installed script calls it, in a child process: the target
        # freezes the collector before it exits.
        subprocess.run([sys.executable, "-c",
                        f"import sys; from {module} import {attr}; "
                        f"sys.argv = [{name!r}, '--help']; sys.exit({attr}())"],
                       env=_env(), check=True, capture_output=True, timeout=120)


@pytest.mark.parametrize("tool", TOOLS, ids=lambda path: str(path.relative_to(ROOT)))
def test_semeplan_imports_resolve(tool):
    # Imports inside functions too: perfbench/run.py imports its stages late.
    for node in ast.walk(ast.parse(tool.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module.split(".")[0] == "semeplan":
            exec(compile(ast.Module([node], type_ignores=[]), str(tool), "exec"), {})


def test_traced_sites_and_dbgen_report_the_database_bytes(tmp_path):
    # The benchmark's tracer wraps the public functions of every layer and
    # reads the saved file through save_database's path argument.
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import tracing
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    from semeplan import cli
    from semeplan.synthetic import demo_scenario, write_scenario

    scenario = tmp_path / "demo.json"
    write_scenario(demo_scenario(), scenario)
    out = tmp_path / "run"
    base = ["--scenario", str(scenario), "--out", str(out),
            "--mode", "incoherent", "--wall-loss-db", "30"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.main(["sites"] + base) == 0
        assert cli.main(["dbgen", "--force"] + base) == 0
    finally:
        tracer.uninstall()
    metrics, stages = tracing.layer_metrics(tracer)
    assert [stage["name"] for stage in stages] == ["cli.main", "cli.main"]
    assert metrics["propagation.db_bytes_written"] == (out / "mapdb.bin").stat().st_size
    assert metrics["propagation.point_power_calls"] == 2
    # Per stage one reference field and one site power; dbgen adds one
    # call per entry site (5 on the demo town)
    assert metrics["geometry.occlusion_calls"] == 2 * 2 + 5
