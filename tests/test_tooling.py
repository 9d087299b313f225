"""The scripts and the benchmark driver start, and every name they import
from `semeplan` exists, so moving a name they use fails here first."""
import argparse
import ast
import importlib
import inspect
import os
import pathlib
import re
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


def test_every_source_parses_as_python_3_10():
    # pyproject.toml promises Python 3.10; a newer construct fails only there
    sources = [path for folder in ("src", "tests", "scripts", "perfbench")
               for path in sorted((ROOT / folder).rglob("*.py"))]
    assert len(sources) > 30
    failures = []
    for path in sources:
        try:
            ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
                      feature_version=(3, 10))
        except SyntaxError as exc:
            failures.append(f"{path.relative_to(ROOT)}:{exc.lineno}: {exc.msg}")
    assert not failures, failures


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


def test_readme_pipeline_flags_are_the_stage_options():
    # A flag the stages dropped or renamed cannot stay documented.
    from semeplan.cli import build_parser
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Pipeline\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", section))
    [stages] = [action for action in build_parser()._actions
                if isinstance(action, argparse._SubParsersAction)]
    options = {option for stage in stages.choices.values()
               for action in stage._actions for option in action.option_strings
               if option.startswith("--")} - {"--help"}
    assert named == options


@pytest.mark.parametrize("tool", TOOLS, ids=lambda path: str(path.relative_to(ROOT)))
def test_semeplan_imports_resolve(tool):
    # Imports inside functions too: perfbench/run.py imports its stages late.
    for node in ast.walk(ast.parse(tool.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module.split(".")[0] == "semeplan":
            exec(compile(ast.Module([node], type_ignores=[]), str(tool), "exec"), {})


def _traced_names() -> set:
    """The dotted names perfbench/tracing.py times or counts (TIME_METRICS,
    CALL_METRICS) or hooks and wraps in `Tracer.install`, read from its
    source."""
    names = set()
    for node in ast.walk(ast.parse((ROOT / "perfbench" / "tracing.py").read_text(
            encoding="utf-8"))):
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            target = node.targets[0].id
            if target == "TIME_METRICS":
                names.update(name for _, fns in ast.literal_eval(node.value).values()
                             for name in fns)
            elif target == "CALL_METRICS":
                names.update(ast.literal_eval(node.value).values())
            elif target == "hooks":
                names.update(ast.literal_eval(key) for key in node.value.keys)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "_wrap" and isinstance(node.args[0], ast.Constant):
            names.add(node.args[0].value)
    return names


def test_every_traced_name_is_a_semeplan_function():
    # A timed function renamed or moved would read 0 in the benchmark
    # instead of failing; propagation.see_contribution is the one name the
    # tracer keeps for a function that no longer exists.
    names = _traced_names()
    assert {"propagation.save_database", "siteplanner.qualify_sites",
            "objectives.Evaluator.__call__", "nsga2.evolve"} <= names
    unresolved = set()
    for name in sorted(names):
        layer, *attrs = name.split(".")
        obj = importlib.import_module(f"semeplan.{layer}")
        for attr in attrs:
            obj = getattr(obj, attr, None)
        if not (inspect.isfunction(obj) and obj.__module__ == f"semeplan.{layer}"):
            unresolved.add(name)
    assert unresolved <= {"propagation.see_contribution"}


def test_traced_sites_and_dbgen_report_the_database_bytes(tmp_path):
    # The benchmark's tracer wraps the public functions of every layer and
    # reads the saved file through save_database's path argument.
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import tracing
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    from semeplan import cli
    from semeplan.synthetic import demo_scenario
    from toys import write_scenario

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
        assert cli.main(["optimize", "--iters", "2"] + base) == 0
        assert cli.main(["report"] + base) == 0
    finally:
        tracer.uninstall()
    metrics, stages = tracing.layer_metrics(tracer)
    assert [stage["name"] for stage in stages] == ["cli.main"] * 4
    size = (out / "mapdb.bin").stat().st_size
    assert metrics["propagation.db_bytes_written"] == size
    assert metrics["propagation.db_bytes_read"] == 2 * size  # optimize, report
    assert metrics["nsga2.generations"] == 2
    assert metrics["objectives.eval_calls"] > 0
    assert metrics["propagation.point_power_calls"] == 2
    # Per stage one reference field and one site power; dbgen adds one
    # call per entry site (5 on the demo town)
    assert metrics["geometry.occlusion_calls"] == 2 * 2 + 5
    # The blind-spot hook counts the region cells of the last blind spot
    from semeplan import analysis, propagation
    db = propagation.load_database(out / "mapdb.bin")
    _, blindspot = analysis.reference_blindspot(db.reference, db.wavelength, -65.0)
    cells = sum(len(blindspot.region_cells(t)) for t in range(db.time_instants))
    assert cells > 0
    assert metrics["analysis.blindspot_cells"] == cells
