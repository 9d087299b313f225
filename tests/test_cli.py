import json
import os
import shutil
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

import semeplan
from semeplan import cli, propagation
from semeplan.cli import build_parser, main
from semeplan.scenario import load_scenario
from semeplan.synthetic import coverable_toy, demo_scenario, write_scenario
from dbtools import with_header, with_nan
from test_scenario import LEAF_MUTATIONS, _DELETE, _leaf_paths

FAST_GA = ["--pop", "8", "--iters", "30", "--seed", "3",
           "--mutation-rate", "0.2"]


@pytest.fixture()
def workspace(tmp_path):
    scenario = tmp_path / "scenario.json"
    write_scenario(coverable_toy(), scenario)
    out = tmp_path / "run"
    base = ["--scenario", str(scenario), "--out", str(out),
            "--mode", "incoherent"]
    return scenario, out, base


def read_rows(path):
    with open(path, encoding="utf-8") as fh:
        return [line.strip() for line in fh
                if line.strip() and not line.startswith("#")]


def test_sites_writes_report_and_plan(workspace):
    scenario, out, base = workspace
    assert main(["sites"] + base) == 0
    rows = read_rows(out / "feasibility.csv")
    # header + N sites x W regions x 2 classes
    assert len(rows) - 1 == 2 * 2 * 2
    plan = json.loads((out / "siteplan.json").read_text())
    assert len(plan["assignments"]) == 2
    assert (out / "region_ems_roi1.csv").exists()
    assert (out / "region_ase_roi1.csv").exists()


def test_sites_empty_site_list(tmp_path):
    doc = coverable_toy()
    doc["sites"] = []
    scenario = tmp_path / "empty.json"
    write_scenario(doc, scenario)
    out = tmp_path / "out"
    assert main(["sites", "--scenario", str(scenario), "--out", str(out)]) == 0
    assert len(read_rows(out / "feasibility.csv")) == 1  # header only


def test_unreadable_scenario_is_config_error(tmp_path):
    missing = tmp_path / "nope.json"
    assert main(["sites", "--scenario", str(missing),
                 "--out", str(tmp_path / "o")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["dbgen", "--scenario", str(bad),
                 "--out", str(tmp_path / "o2")]) == 2


def test_dbgen_cache_hit_and_invalversion(workspace, capsys):
    scenario, out, base = workspace
    assert main(["dbgen"] + base) == 0
    first = (out / "mapdb.bin").read_bytes()
    capsys.readouterr()
    assert main(["dbgen"] + base) == 0
    assert "cache hit" in capsys.readouterr().out
    assert (out / "mapdb.bin").read_bytes() == first

    # editing the scenario invalidates the cache
    doc = coverable_toy()
    doc["frequency_hz"] = 3.6e9
    write_scenario(doc, scenario)
    assert main(["dbgen"] + base) == 0
    assert (out / "mapdb.bin").read_bytes() != first


def test_dbgen_cache_hit_skips_the_field_computation(workspace, monkeypatch,
                                                      capsys):
    _, out, base = workspace
    assert main(["dbgen"] + base) == 0
    capsys.readouterr()

    def fail(*args, **kwargs):
        raise AssertionError("reference field computed on a cache hit")

    monkeypatch.setattr(propagation, "reference_field", fail)
    assert main(["dbgen"] + base) == 0
    assert "cache hit" in capsys.readouterr().out


def _counting(monkeypatch, name):
    """Count the calls to propagation.<name> while passing them through."""
    calls = []
    original = getattr(propagation, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(propagation, name, counted)
    return calls


def test_sites_and_forced_dbgen_compute_the_reference_twice(workspace,
                                                            monkeypatch):
    # Once per stage: dbgen hands its reference on to the database build.
    _, out, base = workspace
    calls = _counting(monkeypatch, "reference_field")
    assert main(["sites"] + base) == 0
    assert main(["dbgen", "--force"] + base) == 0
    assert len(calls) == 2


def test_report_forms_each_map_once(workspace, monkeypatch):
    _, out, base = workspace
    assert main(["dbgen"] + base) == 0
    assert main(["optimize"] + base + FAST_GA) == 0
    calls = _counting(monkeypatch, "power_map_watts")
    assert main(["report"] + base) == 0
    instants = len(coverable_toy()["bts"]["time_instants"])
    assert len(calls) == 4 * instants  # representatives x instants


# Each case sets the leaf at a path of keys and indices of the demo document.
MALFORMED = {
    "grid_nx_text": (["grid", "nx"], "abc"),
    "frequency_text": (["frequency_hz"], "x"),
    "frequency_nan": (["frequency_hz"], float("nan")),
    "sector_power_inf": (["bts", "time_instants", 0, "sectors", 0, "tx_power_w"],
                         float("inf")),
    "grid_null": (["grid"], None),
    "site_number": (["sites", 0], 5),
    "building_number": (["buildings"], [5]),
    "instant_number": (["bts", "time_instants"], [5]),
    "install_cost_text": (["catalog", 0, "install_cost"], "x"),
    "building_height_nan": (["buildings", 0, "height_m"], float("nan")),
    "grid_nx_fraction": (["grid", "nx"], 33.7),
    "sector_power_numeric_text": (["bts", "time_instants", 0, "sectors", 0,
                                   "tx_power_w"], "20"),
    "frequency_numeric_text": (["frequency_hz"], "3.5e9"),
    "grid_height_bool": (["grid", "height_m"], True),
    "grid_nx_beyond_float": (["grid", "nx"], 10 ** 400),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_scenario_value_is_config_error(tmp_path, case, capsys):
    path, value = MALFORMED[case]
    doc = demo_scenario()
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(doc))  # NaN and Infinity as Python writes them
    assert main(["sites", "--scenario", str(scenario),
                 "--out", str(tmp_path / "out")]) == 2
    assert "error:" in capsys.readouterr().err


def _drop_plan(header):
    del header["plan"]


def _spoil_gene(header):
    header["plan"]["assignments"][0][0][0] = "x"  # not a gene value


def _float_nx(header):
    header["grid"]["nx"] = float(header["grid"]["nx"])


def _wavelength_text(header):
    header["wavelength_m"] = str(header["wavelength_m"])


def _duplicate_entry(header):
    # The file size still matches: the last grid now claims the first key.
    header["entries"][-1] = header["entries"][0]


def _wider_spacing(header):
    header["grid"]["spacing_m"] += 1.0


def _unknown_mode(header):
    header["metadata"]["mode"] = "sideways"


def _extra_entry(blob, new_site):
    """Plan, directory and grids agree on one more entry, which the scenario
    cannot hold: kind 1 at a site past its last, or kind 5 (the toy catalog
    has 4) at its last site.  The entry sorts last and repeats the last grid."""
    grid_bytes = []

    def add(header):
        grid = header["grid"]
        grid_bytes.append(8 * header["time_instants"] * 3 * grid["ny"] * grid["nx"])
        sites = header["plan"]["assignments"]
        if new_site:
            sites.append([])
        kind = 1 if new_site else 5
        sites[-1].append([kind, 1])
        header["entries"].append([len(sites) - 1, kind])

    damaged = with_header(blob, add)
    return damaged + blob[-grid_bytes[0]:]


DAMAGES = {
    "truncated": lambda blob: blob[:len(blob) // 2],
    "garbage": lambda blob: bytes(range(256)) * 8,
    "no_plan": lambda blob: with_header(blob, _drop_plan),
    "bad_plan": lambda blob: with_header(blob, _spoil_gene),
    "nan_grid": with_nan,
    "nx_float": lambda blob: with_header(blob, _float_nx),
    "wavelength_text": lambda blob: with_header(blob, _wavelength_text),
    "duplicate_entry": lambda blob: with_header(blob, _duplicate_entry),
    "grid_spacing": lambda blob: with_header(blob, _wider_spacing),
    "unknown_mode": lambda blob: with_header(blob, _unknown_mode),
    "foreign_site": lambda blob: _extra_entry(blob, new_site=True),
    "foreign_kind": lambda blob: _extra_entry(blob, new_site=False),
}


@pytest.mark.parametrize("damage", sorted(DAMAGES))
def test_damaged_database_is_stale(workspace, damage):
    _, out, base = workspace
    assert main(["dbgen"] + base) == 0
    assert main(["optimize"] + base + FAST_GA) == 0
    fresh = (out / "mapdb.bin").read_bytes()
    (out / "mapdb.bin").write_bytes(DAMAGES[damage](fresh))
    assert main(["optimize"] + base + FAST_GA) == 3
    assert main(["report"] + base) == 3
    assert main(["dbgen"] + base) == 0
    assert (out / "mapdb.bin").read_bytes() == fresh


@pytest.fixture(scope="module")
def saved_database(tmp_path_factory):
    """Options, scenario and file path of a saved coverable toy database."""
    scenario = tmp_path_factory.mktemp("saved") / "scenario.json"
    write_scenario(coverable_toy(), scenario)
    argv = ["--scenario", str(scenario), "--out", str(scenario.parent / "run"),
            "--mode", "incoherent"]
    assert main(["dbgen"] + argv) == 0
    args = build_parser().parse_args(["optimize"] + argv)
    return args, load_scenario(scenario), (scenario.parent / "run" / "mapdb.bin")


def _outside_plan(header):
    return json.dumps({k: v for k, v in header.items() if k != "plan"},
                      sort_keys=True)


# Each leaf of the header takes a drawn text or one of LEAF_MUTATIONS.  The
# database is then stale, or current with the header outside the plan
# unchanged: a plan's region indices are matched against nothing.
@given(data=st.data(), text=st.text("0123456789.eE-x", max_size=6))
def test_mutated_database_header_is_stale_or_unchanged(saved_database, data, text):
    args, scenario, path = saved_database
    fresh = path.read_bytes()
    original = propagation.load_database(path).header
    leaf = data.draw(st.sampled_from(_leaf_paths(original)))
    try:
        for value in [text] + LEAF_MUTATIONS:
            def mutate(header):
                node = header
                for key in leaf[:-1]:
                    node = node[key]
                if value is _DELETE:
                    del node[leaf[-1]]
                else:
                    node[leaf[-1]] = value
            path.write_bytes(with_header(fresh, mutate))
            try:
                db, _ = cli._current_db(args, scenario)
            except cli.StaleCacheError:
                continue
            assert _outside_plan(db.header) == _outside_plan(original)
    finally:
        path.write_bytes(fresh)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_non_finite_computed_field_fails_and_writes_no_database(tmp_path):
    doc = coverable_toy()
    for instant in doc["bts"]["time_instants"]:
        for sector in instant["sectors"]:
            sector["tx_power_w"] = 1e308  # the radiated power overflows
    scenario = tmp_path / "scenario.json"
    write_scenario(doc, scenario)
    base = ["--scenario", str(scenario), "--out", str(tmp_path / "run")]
    assert main(["sites"] + base) == 4
    assert main(["dbgen"] + base) == 4
    assert not (tmp_path / "run" / "mapdb.bin").exists()


def test_report_refuses_an_archive_written_with_other_options(workspace):
    _, out, base = workspace
    assert main(["dbgen"] + base) == 0
    assert main(["optimize"] + base + FAST_GA) == 0
    assert main(["report"] + base + ["--coverage-units", "m2"]) == 3
    assert not (out / "solutions.csv").exists()
    assert main(["report"] + base) == 0


def test_optimize_without_database_is_stale(workspace):
    _, out, base = workspace
    assert main(["optimize"] + base + FAST_GA) == 3


def test_optimize_with_mismatched_options_is_stale(workspace):
    _, out, base = workspace
    assert main(["dbgen"] + base) == 0
    swapped = [arg if arg != "incoherent" else "coherent" for arg in base]
    assert main(["optimize"] + swapped + FAST_GA) == 3


def test_pipeline_and_reports(workspace):
    scenario, out, base = workspace
    assert main(["dbgen"] + base) == 0
    assert main(["optimize"] + base + FAST_GA) == 0
    assert (out / "archive.csv").exists()
    assert (out / "trace.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["ga"]["seeds"] == [3]
    assert main(["report"] + base) == 0
    rows = read_rows(out / "solutions.csv")
    assert len(rows) == 1 + 4  # header + four representatives
    assert (out / "reduction.csv").exists()
    assert (out / "map_best_coverage.csv").exists()
    assert (out / "cdf_best_coverage_t1.csv").exists()


def test_optimize_same_seed_identical_archive(workspace, tmp_path):
    scenario, out, base = workspace
    assert main(["dbgen"] + base) == 0
    assert main(["optimize"] + base + FAST_GA) == 0
    first = (out / "archive.csv").read_bytes()
    assert main(["optimize"] + base + FAST_GA) == 0
    assert (out / "archive.csv").read_bytes() == first


def test_restarts_write_per_seed_archives(workspace):
    scenario, out, base = workspace
    assert main(["dbgen"] + base) == 0
    assert main(["optimize"] + base + FAST_GA + ["--restarts", "3"]) == 0
    for seed in (3, 4, 5):
        assert (out / f"archive_seed{seed}.csv").exists()
        assert (out / f"trace_seed{seed}.csv").exists()
    rows = read_rows(out / "restarts_summary.csv")
    assert len(rows) == 1 + 3


def test_restarts_score_each_distinct_chromosome_once(workspace, tmp_path,
                                                     monkeypatch):
    # The restarts share one memo: a chromosome scored by the first restart
    # is not scored again by the second, and each restart still writes what
    # a separate run with its seed writes.
    from semeplan.objectives import Evaluator
    scored = []
    score = Evaluator.__call__

    def counting(self, genes):
        scored.append(tuple(genes))
        return score(self, genes)

    monkeypatch.setattr(Evaluator, "__call__", counting)
    scenario, out, base = workspace
    assert main(["dbgen"] + base) == 0
    ga = ["--pop", "8", "--iters", "30", "--mutation-rate", "0.2"]
    assert main(["optimize"] + base + ga + ["--seed", "3", "--restarts", "2"]) == 0
    assert len(scored) == len(set(scored))
    restarts_scored = len(scored)
    for seed in (3, 4):
        alone = tmp_path / f"alone{seed}"
        alone.mkdir()
        shutil.copyfile(out / "mapdb.bin", alone / "mapdb.bin")
        single = ["--scenario", str(scenario), "--out", str(alone),
                  "--mode", "incoherent"]
        assert main(["optimize"] + single + ga + ["--seed", str(seed)]) == 0
        for name in ("archive", "trace"):
            assert (out / f"{name}_seed{seed}.csv").read_bytes() \
                == (alone / f"{name}.csv").read_bytes()
    # the separate runs ask for the same chromosomes, and score some twice
    separate = scored[restarts_scored:]
    assert set(separate) == set(scored[:restarts_scored])
    assert len(separate) > len(set(separate))


def test_report_on_handmade_singleton_archive(workspace):
    scenario, out, base = workspace
    assert main(["dbgen"] + base) == 0
    os.makedirs(out, exist_ok=True)
    archive = out / "archive.csv"
    archive.write_text(
        "coverage_deficit,cost_fraction,energy_fraction,genes\n"
        "12.5,0.0,0.0,0;0\n")
    assert main(["report"] + base) == 0
    rows = read_rows(out / "solutions.csv")
    assert len(rows) == 1 + 4
    payloads = {row.split(",", 1)[1] for row in rows[1:]}
    assert len(payloads) == 1  # four identical representative rows
    # the empty deployment carries zero cost and energy
    cells = rows[1].split(",")
    assert cells[0] == "best_coverage"
    total_cost, total_energy = float(cells[-3]), float(cells[-2])
    assert total_cost == 0.0 and total_energy == 0.0


def test_report_empty_archive_fails(workspace):
    scenario, out, base = workspace
    assert main(["dbgen"] + base) == 0
    (out / "archive.csv").write_text(
        "coverage_deficit,cost_fraction,energy_fraction,genes\n")
    assert main(["report"] + base) == 4


def test_outputs_carry_hash_and_config(workspace):
    scenario, out, base = workspace
    for stage in (["sites"], ["dbgen"],
                  ["optimize"] + FAST_GA + ["--restarts", "2"],
                  ["report", "--archive", str(out / "archive_seed3.csv")]):
        assert main(stage + base) == 0
    names = {path.name for path in out.glob("*.csv")}
    assert {"feasibility.csv", "region_ems_roi1.csv", "region_ase_roi1.csv",
            "archive_seed3.csv", "trace_seed3.csv", "trace_seed4.csv",
            "restarts_summary.csv", "solutions.csv", "reduction.csv",
            "map_best_coverage.csv", "cdf_best_coverage_t1.csv"} <= names
    for name in sorted(names):
        head = (out / name).read_text().splitlines()[:2]
        assert head[0].startswith("# scenario_hash="), name
        assert head[1].startswith("# config="), name


def test_lockfile_warns_but_proceeds(workspace, capsys):
    scenario, out, base = workspace
    os.makedirs(out, exist_ok=True)
    (out / ".lock").write_text("12345")
    assert main(["sites"] + base) == 0
    assert "another run may be active" in capsys.readouterr().err


def test_run_removes_only_its_own_lockfile(workspace):
    scenario, out, base = workspace
    assert main(["sites"] + base) == 0
    assert not (out / ".lock").exists()
    (out / ".lock").write_text("12345")
    assert main(["sites"] + base) == 0
    assert (out / ".lock").read_text() == "12345"


@pytest.mark.parametrize("case", ["optimize_pop_2", "sites_missing_scenario"])
def test_config_error_leaves_no_output_directory(workspace, case):
    scenario, out, base = workspace
    if case == "optimize_pop_2":
        argv = ["optimize"] + base + ["--pop", "2"]
    else:
        argv = ["sites", "--scenario", str(scenario.parent / "missing.json"),
                "--out", str(out)]
    assert main(argv) == 2
    assert not out.exists()
    out.mkdir()
    assert main(argv) == 2
    assert out.is_dir()  # a directory the run did not create is kept


def test_bad_flags_are_config_errors(workspace):
    scenario, out, base = workspace
    assert main(["optimize"] + base + ["--mode", "sideways"]) == 2
    assert main(["frobnicate"] + base) == 2


# Each case gives a stage and one out-of-range option value for it.
OUT_OF_RANGE = {
    "pop_2": ["optimize", "--pop", "2"],
    "pop_negative": ["optimize", "--pop", "-4"],
    "iters_0": ["optimize", "--iters", "0"],
    "mutation_rate_above_1": ["optimize", "--mutation-rate", "1.5"],
    "restarts_0": ["optimize", "--restarts", "0"],
    "seed_negative": ["optimize", "--seed", "-1"],
    "pth_nan": ["sites", "--pth-dbm", "nan"],
    "pth_inf": ["sites", "--pth-dbm", "inf"],
    "wall_loss_nan": ["sites", "--wall-loss-db", "nan"],
    "wall_loss_negative": ["sites", "--wall-loss-db", "-5"],
    "roi_min_cells_negative": ["sites", "--roi-min-cells", "-3"],
}


@pytest.mark.parametrize("case", sorted(OUT_OF_RANGE))
def test_out_of_range_option_is_config_error(workspace, case, capsys):
    _, out, base = workspace
    assert main(["dbgen"] + base) == 0
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    stage, *option = OUT_OF_RANGE[case]
    ga = FAST_GA if stage == "optimize" else []
    assert main([stage] + base + ga + option) == 2
    assert "error:" in capsys.readouterr().err
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before


def test_odd_population_rounds_up(workspace):
    _, out, base = workspace
    assert main(["dbgen"] + base) == 0
    assert main(["optimize"] + base + FAST_GA + ["--pop", "3"]) == 0
    assert json.loads((out / "manifest.json").read_text())["ga"]["population"] == 4


def test_documented_defaults(tmp_path):
    doc = coverable_toy()
    scenario = tmp_path / "scenario.json"
    write_scenario(doc, scenario)
    out = tmp_path / "run"
    base = ["--scenario", str(scenario), "--out", str(out)]
    for stage in (["sites"], ["dbgen"], ["optimize", "--iters", "2"]):
        assert main(stage + base) == 0
    echo = ('{"coverage_units": "normalized", "mode": "coherent", '
            '"pth_dbm": -65.0, "roi_min_cells": 4, "wall_loss_db": 20.0}')
    assert (out / "feasibility.csv").read_text().splitlines()[1] \
        == f"# config={echo}"
    db = propagation.load_database(out / "mapdb.bin")
    assert db.mode == "coherent"
    assert db.header["metadata"]["params"] == {
        "pth_dbm": -65.0, "roi_min_cells": 4.0, "wall_loss_db": 20.0}
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"] == json.loads(echo)
    assert manifest["ga"] == {"population": max(4, 2 * len(doc["sites"])),
                              "iterations": 2, "seeds": [0],
                              "crossover": "uniform", "mutation_rate": 0.005}
    assert build_parser().parse_args(["optimize"] + base).iters == 10_000


# Columns that hold words or gene lists; every other cell is a number.
TEXT_COLUMNS = {"kind_class", "verdict", "reason", "solution", "coverage_units",
                "genes"}


def test_every_csv_cell_is_a_plain_number(workspace):
    scenario, out, base = workspace
    for stage in (["sites"], ["dbgen"], ["optimize"] + FAST_GA, ["report"]):
        assert main(stage + base) == 0
    tables = sorted(out.glob("*.csv"))
    names = {path.name for path in tables}
    assert {"region_ems_roi1.csv", "map_best_coverage.csv"} <= names
    for path in tables:
        header, *rows = [row.split(",") for row in read_rows(path)]
        assert rows, path.name
        for row in rows:
            for column, cell in zip(header, row):
                if column == "genes":
                    list(map(int, cell.split(";")))
                elif column not in TEXT_COLUMNS:
                    float(cell)  # raises on np.float64(...) and other reprs


def test_cli_starts_without_scipy():
    # scipy is a test dependency only; importing it costs every stage ~0.4 s.
    src = os.path.dirname(os.path.dirname(semeplan.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c", "import semeplan.cli, sys; "
                    "assert 'scipy' not in sys.modules"],
                   env=env, check=True, timeout=120)
