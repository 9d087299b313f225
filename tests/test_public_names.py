"""Every public function, class and method in `src/semeplan` has a caller
inside the package, or a reason in NO_PIPELINE_CALLER why it is public
without one.

A name counts as called when another statement of `src/semeplan` loads it
as a bare name or as an attribute.  Imports and the re-exports of
`__init__.py` do not count, so a name only the tests reach is caught.
"""
import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "semeplan"

NO_PIPELINE_CALLER = {
    "hypervolume": "front-quality measure for scripts/run_benchmark.py and "
                   "the acceptance tests",
    "buildings_from_geojson": "turns map footprints into the buildings of a "
                              "scenario document, before any stage runs",
    "coverable_toy": "bundled scenario: blind spots a known deployment covers",
    "demo_scenario": "bundled scenario: the demo town of scripts/run_demo.py",
    "benchmark_problem": "bundled problem of scripts/run_benchmark.py",
    "write_scenario": "writes a bundled scenario to a file the CLI reads",
}


def _modules():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))}


def _public_definitions(modules):
    """(module, name) of each public top-level def or class, and
    (module, "Class.method") of each public method."""
    for module, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    or node.name.startswith("_"):
                continue
            yield module, node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) \
                            and not item.name.startswith("_"):
                        yield module, f"{node.name}.{item.name}"


def _loaded_names(modules):
    names = set()
    for module, tree in modules.items():
        if module == "__init__":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_public_name_has_a_caller():
    modules = _modules()
    loaded = _loaded_names(modules)
    uncalled = [f"{module}.{name}" for module, name in _public_definitions(modules)
                if name.rsplit(".", 1)[-1] not in loaded
                and name not in NO_PIPELINE_CALLER]
    assert uncalled == []


def test_allow_list_names_exist_without_a_caller():
    modules = _modules()
    loaded = _loaded_names(modules)
    defined = {name for _, name in _public_definitions(modules)}
    for name in NO_PIPELINE_CALLER:
        assert name in defined, f"{name} is gone; drop it from the list"
        assert name not in loaded, f"{name} has a caller; drop it from the list"
