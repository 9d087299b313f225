import gc
import json
import os
import shutil
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import semeplan
from semeplan import analysis, cli, propagation, siteplanner
from semeplan.cli import build_parser, main
from semeplan.scenario import load_scenario
from semeplan.synthetic import demo_scenario, write_scenario
from dbtools import in_memory, with_header, with_nan
from toys import coverable_toy
from test_scenario import DEMO, LEAF_MUTATIONS, _DELETE, _leaf_paths

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


def test_sites_and_forced_dbgen_compute_the_site_power_once_per_stage(
        tmp_path, monkeypatch):
    # One point_power_dbm call per stage gives the base station's power at
    # every site.  dbgen radiates each entry site with its column, bit for
    # bit what a fresh call for the entry sites gives.
    scenario = tmp_path / "demo.json"
    write_scenario(demo_scenario(), scenario)
    base = ["--scenario", str(scenario), "--out", str(tmp_path / "run"),
            "--mode", "incoherent", "--wall-loss-db", "30"]
    fresh = propagation.point_power_dbm
    calls = _counting(monkeypatch, "point_power_dbm")
    radiated, site_fields = [], propagation._site_fields

    def recording(scenario, site, incident_dbm, *args):
        radiated.append((site.position, incident_dbm.copy()))
        return site_fields(scenario, site, incident_dbm, *args)

    monkeypatch.setattr(propagation, "_site_fields", recording)
    assert main(["sites"] + base) == 0
    assert len(calls) == 1
    assert main(["dbgen", "--force"] + base) == 0
    assert len(calls) == 2
    expected = fresh(load_scenario(scenario), [position for position, _ in radiated],
                     wall_loss_db=30.0)
    assert len(radiated) == 5
    for column, (_, incident_dbm) in zip(expected.T, radiated):
        assert incident_dbm.tobytes() == column.tobytes()


def test_every_stage_derives_the_regions_of_the_stored_reference(tmp_path):
    # At this threshold a demo cell lies within the complex64 rounding of
    # its power: sites and dbgen must find the regions that optimize and
    # report rebuild from the reference stored in mapdb.bin.
    scenario = tmp_path / "demo.json"
    write_scenario(demo_scenario(), scenario)
    pth = -61.43935612440987
    base = ["--scenario", str(scenario), "--out", str(tmp_path / "run"),
            "--mode", "incoherent", "--wall-loss-db", "30", "--roi-min-cells", "1",
            "--pth-dbm", repr(pth)]
    assert main(["dbgen"] + base) == 0
    sc = load_scenario(scenario)
    _, rois, _, _, _ = cli._prepare(build_parser().parse_args(["sites"] + base), sc)
    db = propagation.load_database(tmp_path / "run" / "mapdb.bin")
    _, blindspot = analysis.reference_blindspot(db.reference, db.wavelength, pth, 1)
    assert rois == siteplanner.build_rois(blindspot.components, sc.grid)


@pytest.mark.parametrize("fault", ["raises", "nan", "inf"])
@pytest.mark.parametrize("k", [0, 1])
def test_failed_streamed_dbgen_keeps_the_previous_database(workspace, monkeypatch,
                                                           capsys, fault, k):
    # The k-th site's fields fail to compute, or hold a non-finite value:
    # dbgen exits 4 part way through the streamed write, and the previous
    # file stays as it was, with no temporary file left beside it.
    _, out, base = workspace
    assert main(["dbgen"] + base) == 0
    before = (out / "mapdb.bin").read_bytes()
    names = sorted(p.name for p in out.iterdir())
    site_fields, sites = propagation._site_fields, []

    def faulty(*args):
        fields = site_fields(*args)
        sites.append(args[1])
        if len(sites) == k + 1:
            if fault == "raises":
                raise RuntimeError("site fields failed")
            fields[-1, -1, -1, -1, -1] = complex(float(fault), 0.0)
        return fields

    monkeypatch.setattr(propagation, "_site_fields", faulty)
    assert main(["dbgen", "--force"] + base) == 4
    assert len(sites) == k + 1
    assert (out / "mapdb.bin").read_bytes() == before
    assert sorted(p.name for p in out.iterdir()) == names
    monkeypatch.undo()
    assert main(["dbgen", "--force"] + base) == 0
    assert (out / "mapdb.bin").read_bytes() == before
    capsys.readouterr()
    assert main(["dbgen"] + base) == 0
    assert "cache hit" in capsys.readouterr().out


@pytest.mark.parametrize("document, options", [
    (demo_scenario, ["--mode", "incoherent", "--wall-loss-db", "30"]),
    (coverable_toy, ["--mode", "coherent"]),
], ids=["demo", "coverable"])
def test_streamed_dbgen_writes_the_bytes_of_the_built_database(tmp_path, document,
                                                               options):
    # dbgen streams each site's fields into the file with the site power of
    # its site qualification; a library caller keeps every entry in memory
    # with the same powers.  The one writer gives equal bytes.
    scenario = tmp_path / "scenario.json"
    write_scenario(document(), scenario)
    base = ["--scenario", str(scenario), "--out", str(tmp_path / "run")] + options
    assert main(["dbgen", "--force"] + base) == 0
    args = build_parser().parse_args(["dbgen"] + base)
    sc = load_scenario(scenario)
    reference, rois, _, plan, incident = cli._prepare(args, sc)
    db = in_memory(propagation.build_database(
        sc, reference, plan.db_assignments(rois, sc.grid.height), mode=args.mode,
        params=cli._db_params(args), plan=plan, incident_dbm=incident))
    assert len(db.entries) > 0
    propagation.save_database(db, tmp_path / "built.bin")
    assert (tmp_path / "built.bin").read_bytes() == \
        (tmp_path / "run" / "mapdb.bin").read_bytes()


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


def sites_on_demo_with(tmp_path, path, value) -> int:
    """Exit code of `sites` into `tmp_path/out` on the demo document with the
    leaf at `path`, a list of keys and indices, set to `value`."""
    doc = demo_scenario()
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(doc))  # NaN and Infinity as Python writes them
    return main(["sites", "--scenario", str(scenario),
                 "--out", str(tmp_path / "out")])


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_scenario_value_is_config_error(tmp_path, case, capsys):
    assert sites_on_demo_with(tmp_path, *MALFORMED[case]) == 2
    assert "error:" in capsys.readouterr().err


# A misspelt key in each section of the demo document, by the section's name
# in the error message.
TYPOS = {
    "scenario": ["frequency"],
    "grid": ["grid", "spacing"],
    "bts": ["bts", "positon"],
    "bts instant 1": ["bts", "time_instants", 0, "sector"],
    "bts sector 1 at instant 1": ["bts", "time_instants", 0, "sectors", 0,
                                  "az_beamwidth"],
    "building 0": ["buildings", 0, "height"],
    "catalog entry 0": ["catalog", 0, "cost"],
    "site 0": ["sites", 0, "normals"],
}


@pytest.mark.parametrize("section", sorted(TYPOS))
def test_unknown_scenario_key_is_config_error(tmp_path, section, capsys):
    path = TYPOS[section]
    assert sites_on_demo_with(tmp_path, path, 60) == 2
    assert f"error: {section}: unknown key {path[-1]!r}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _drop_plan(header):
    del header["plan"]


def _spoil_gene(header):
    header["plan"]["assignments"][0][0][0] = "x"  # not a gene value


def _float_nx(header):
    header["grid"]["nx"] = float(header["grid"]["nx"])


def _uncountable_nx(header):
    # more cells than an array can index, the far corner still in bounds
    header["grid"]["nx"] = 2 ** 62


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
    "nx_uncountable": lambda blob: with_header(blob, _uncountable_nx),
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
    assert main(["sites"] + base) == 2
    assert main(["dbgen"] + base) == 2
    assert not (tmp_path / "run" / "mapdb.bin").exists()


def _set_every(node, path, value) -> None:
    """Set the leaf at `path`, a list of keys and indices where "*" stands
    for every index, to `value`; a mapping without the last key is skipped."""
    key, rest = path[0], path[1:]
    for k in (range(len(node)) if key == "*" else [key]):
        if rest:
            _set_every(node[k], rest, value)
        elif not isinstance(node, dict) or k in node:
            node[k] = value


# Each case sets every leaf at a path of the demo document to a finite but
# absurd value, which the scenario reader refuses or which makes a field or
# power a stage derives overflow; the error names the element.  The sector
# powers overflow only as the complex64 every stage rounds the reference to,
# so no cell would be blind.
OVERFLOWS = {
    "sector_tx_power_w": (["bts", "time_instants", "*", "sectors", "*", "tx_power_w"],
                          1e300, "tx_power_w"),
    "sector_max_gain_dbi": (["bts", "time_instants", 0, "sectors", 0, "max_gain_dbi"],
                            1e6, "radiated from (8.0, 68.0, 18.0)"),
    "catalog_gain_dbi": (["catalog", "*", "gain_dbi"], 1e6, "catalog kind SR"),
    "catalog_sensitivity_dbm": (["catalog", "*", "sensitivity_dbm"], -1e300,
                                "catalog kind SR"),
    "catalog_tx_power_dbm": (["catalog", "*", "tx_power_dbm"], 1e6, "catalog kind SR"),
    "grid_spacing_m": (["grid", "spacing_m"], 1e300, "grid corners and height_m"),
    "grid_height_m": (["grid", "height_m"], 1e300, "grid corners and height_m"),
    "grid_nx": (["grid", "nx"], 1e300, "grid corners and height_m"),
    # the far corner stays inside the coordinate bound, the cell count does not
    "grid_nx_1e149": (["grid", "nx"], 1e149, "grid: nx * ny"),
    "grid_ny_1e100": (["grid", "ny"], 1e100, "grid: nx * ny"),
    "bts_height": (["bts", "position", 2], 1e300, "bts position"),
    "footprint_vertex": (["buildings", 0, "footprint", 0, 0], -1e300, "building 0"),
    "facade_normal": (["sites", 0, "normal", 0], 1e300, "site 0 normal"),
    "catalog_aperture_m2": (["catalog", "*", "aperture_m2"], 1e300,
                            "site at (95.0, 150.2, 8.0)"),
}
# Fields that overflow only as the complex64 mapdb.bin stores: sites passes.
DBGEN_ONLY = {"catalog_aperture_m2"}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("stage, case", [
    (stage, case) for stage in ("sites", "dbgen") for case in sorted(OVERFLOWS)
    if stage == "dbgen" or case not in DBGEN_ONLY])
def test_overflowing_scenario_value_is_config_error(tmp_path, case, stage, capsys):
    path, value, named = OVERFLOWS[case]
    doc = demo_scenario()
    _set_every(doc, path, value)
    scenario = tmp_path / "scenario.json"
    write_scenario(doc, scenario)
    out = tmp_path / "run"
    assert main([stage, "--scenario", str(scenario), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert named in err
    assert not out.exists()


def _leaf(doc, path):
    for key in path:
        doc = doc[key]
    return doc


DEMO_NUMBERS = [path for path in _leaf_paths(DEMO)
                if type(_leaf(DEMO, path)) in (int, float)]


def _files(out) -> dict:
    return {path: path.read_bytes() for path in out.rglob("*") if path.is_file()}


# Any number of the demo document at +-1e300: each stage runs or refuses the
# document, and a refusal writes nothing.
@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(path=st.sampled_from(DEMO_NUMBERS), value=st.sampled_from([1e300, -1e300]))
def test_extreme_scenario_number_exits_0_or_2(tmp_path_factory, path, value):
    doc = demo_scenario()
    _set_every(doc, path, value)
    scenario = tmp_path_factory.mktemp("extreme") / "scenario.json"
    write_scenario(doc, scenario)
    out = scenario.parent / "run"
    for stage in ("sites", "dbgen"):
        before = _files(out)
        code = main([stage, "--scenario", str(scenario), "--out", str(out)])
        assert code in (0, 2)
        if code == 2:
            assert _files(out) == before


@pytest.mark.parametrize("stage", ["sites", "dbgen", "optimize", "report"])
def test_infinite_wavelength_is_a_config_error(tmp_path, stage, capsys):
    # 299792458 / 1e-300 overflows: no stage may write a header holding it.
    doc = coverable_toy()
    doc["frequency_hz"] = 1e-300
    scenario = tmp_path / "scenario.json"
    write_scenario(doc, scenario)
    out = tmp_path / "run"
    assert main([stage, "--scenario", str(scenario), "--out", str(out)]) == 2
    assert "frequency_hz" in capsys.readouterr().err
    assert not out.exists()


def test_out_naming_a_file_is_a_config_error(workspace, capsys):
    _, out, base = workspace
    out.write_text("not a directory")
    assert main(["sites"] + base) == 2
    assert "is not a directory" in capsys.readouterr().err
    assert out.read_text() == "not a directory"


def test_out_below_a_file_is_a_config_error(workspace, capsys):
    _, out, base = workspace
    out.write_text("not a directory")
    argv = ["sites"] + base
    argv[argv.index("--out") + 1] = str(out / "sub")
    assert main(argv) == 2
    assert "is not a directory" in capsys.readouterr().err
    assert out.read_text() == "not a directory"


@pytest.mark.parametrize("case", ["optimize_without_database", "sites_bad_scenario"])
def test_failed_run_removes_every_directory_it_created(workspace, case):
    scenario, out, base = workspace
    nested = out / "new1" / "new2" / "new3"
    if case == "optimize_without_database":
        argv, code = ["optimize"] + base + FAST_GA, 3
    else:
        scenario.write_text("{not json")
        argv, code = ["sites"] + base, 2
    argv[argv.index("--out") + 1] = str(nested)
    assert main(argv) == code
    assert not out.exists()
    (out / "new1").mkdir(parents=True)  # directories the run did not create stay
    assert main(argv) == code
    assert [p.name for p in out.rglob("*")] == ["new1"]


def test_report_archive_naming_a_directory_is_stale(workspace):
    # A missing archive.csv, or a directory in its place
    _, out, base = workspace
    assert main(["dbgen"] + base) == 0
    assert main(["report"] + base) == 3
    assert not (out / "solutions.csv").exists()
    (out / "archive.csv").mkdir()
    assert main(["report"] + base) == 3
    assert not (out / "solutions.csv").exists()


def test_report_refuses_an_archive_written_with_other_options(workspace):
    _, out, base = workspace
    assert main(["dbgen"] + base) == 0
    assert main(["optimize"] + base + FAST_GA) == 0
    assert main(["report"] + base + ["--coverage-units", "m2"]) == 3
    assert not (out / "solutions.csv").exists()
    assert main(["report"] + base) == 0


def test_optimize_without_database_is_stale(workspace, capsys):
    _, out, base = workspace
    for stage, options in (("optimize", FAST_GA), ("report", [])):
        assert main([stage] + base + options) == 3
        error = capsys.readouterr().err
        assert error.startswith("error: ") and error.count("\n") == 1, error
        assert "mapdb.bin" in error and "dbgen" in error, error


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


def test_an_instant_without_a_blind_spot_is_skipped(tmp_path):
    # The middle instant's sector covers every cell.  Its normalized deficit
    # would be 0/0, its reduction 0/0 m2 and its CDF would have no values.
    doc = coverable_toy()
    sector = doc["bts"]["time_instants"][0]["sectors"][0]
    doc["bts"]["time_instants"].insert(1, {"sectors": [dict(sector, tx_power_w=1e3)]})
    scenario = tmp_path / "scenario.json"
    write_scenario(doc, scenario)
    out = tmp_path / "run"
    base = ["--scenario", str(scenario), "--out", str(out), "--mode", "incoherent"]
    for stage in (["sites"], ["dbgen"], ["optimize"] + FAST_GA, ["report"]):
        assert main(stage + base) == 0
    db = propagation.load_database(out / "mapdb.bin")
    _, blindspot = analysis.reference_blindspot(db.reference, db.wavelength, -65.0)
    assert [len(cells) > 0 for cells in blindspot.cells_per_t()] == [True, False, True]
    _, archive = analysis.read_archive_csv(out / "archive.csv")
    assert archive and all(entry.objectives[0] >= 0.0 for entry in archive)
    assert sorted(path.name for path in out.glob("cdf_*.csv")) == sorted(
        f"cdf_{name}_t{t}.csv" for name in analysis.REPRESENTATIVE_NAMES
        for t in (1, 3))
    instants = {row.split(",")[2] for row in read_rows(out / "reduction.csv")[1:]}
    assert instants == {"1", "3"}


def test_optimize_same_seed_identical_archive(workspace, tmp_path):
    scenario, out, base = workspace
    assert main(["dbgen"] + base) == 0
    assert main(["optimize"] + base + FAST_GA) == 0
    first = (out / "archive.csv").read_bytes()
    assert main(["optimize"] + base + FAST_GA) == 0
    assert (out / "archive.csv").read_bytes() == first


def test_restarts_write_one_archive_and_one_trace(workspace):
    scenario, out, base = workspace
    assert main(["dbgen"] + base) == 0
    assert main(["optimize"] + base + FAST_GA + ["--restarts", "3"]) == 0
    assert sorted(path.name for path in out.iterdir()) == [
        "archive.csv", "manifest.json", "mapdb.bin", "trace.csv"]
    for name in ("archive.csv", "trace.csv"):
        assert "# seed=3,4,5\n" in (out / name).read_text()
    assert len(read_rows(out / "trace.csv")) == 1 + 3 * (30 + 1)
    assert main(["report"] + base) == 0


def test_single_seed_run_after_restarts_leaves_its_own_files(workspace, tmp_path):
    # Nothing a restarts run writes outlives a later single-seed run, and
    # report reads that run's front.
    scenario, out, base = workspace
    assert main(["dbgen"] + base) == 0
    assert main(["optimize"] + base + FAST_GA + ["--restarts", "2"]) == 0
    fresh = tmp_path / "fresh"
    fresh.mkdir()
    shutil.copyfile(out / "mapdb.bin", fresh / "mapdb.bin")
    into_fresh = [str(fresh) if arg == str(out) else arg for arg in base]
    for stage in (["optimize"] + FAST_GA, ["report"]):
        assert main(stage + base) == 0
        assert main(stage + into_fresh) == 0
    assert _listing(out) == _listing(fresh)


def nondominated_merge(rows):
    """Archive rows of several fronts that no other row dominates, each
    once, in (objectives, genes) order."""
    parsed = {}
    for row in rows:
        *values, genes = row.split(",")
        parsed[row] = tuple(map(float, values)), tuple(map(int, genes.split(";")))

    def dominated(o):
        return any(all(a <= b for a, b in zip(p, o)) and p != o
                   for p, _ in parsed.values())

    return sorted((row for row, (o, _) in parsed.items() if not dominated(o)),
                  key=parsed.__getitem__)


def test_restarts_score_each_distinct_chromosome_once(workspace, tmp_path,
                                                     monkeypatch):
    # The restarts share one memo: a chromosome scored by the first restart
    # is not scored again by the second.  Each restart's block of the trace
    # is what a separate run with its seed writes, and the archive is the
    # non-dominated merge of the separate runs' archives.
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
    alone = {}
    for seed in (3, 4):
        alone[seed] = tmp_path / f"alone{seed}"
        alone[seed].mkdir()
        shutil.copyfile(out / "mapdb.bin", alone[seed] / "mapdb.bin")
        single = ["--scenario", str(scenario), "--out", str(alone[seed]),
                  "--mode", "incoherent"]
        assert main(["optimize"] + single + ga + ["--seed", str(seed)]) == 0

    def split(path):
        """The three `# ` lines and the column row, then the rows."""
        lines = path.read_text().splitlines()
        return lines[:4], lines[4:]

    for name in ("trace.csv", "archive.csv"):
        (head3, rows3), (head4, rows4) = (split(alone[seed] / name) for seed in (3, 4))
        head, rows = split(out / name)
        assert head == head3[:2] + ["# seed=3,4"] + head3[3:]
        assert head4 == head3[:2] + ["# seed=4"] + head3[3:]
        assert rows == (rows3 + rows4 if name == "trace.csv"
                        else nondominated_merge(rows3 + rows4))
    # the separate runs ask for the same chromosomes, and score some twice
    separate = scored[restarts_scored:]
    assert set(separate) == set(scored[:restarts_scored])
    assert len(separate) > len(set(separate))


def archive_headers(scenario, base):
    """The `# ` lines report requires of an archive for these options."""
    args = build_parser().parse_args(["report"] + base)
    lines = cli._headers(load_scenario(scenario).content_hash(), args)
    return "".join(f"# {line}\n" for line in lines)


def test_report_on_handmade_singleton_archive(workspace):
    scenario, out, base = workspace
    assert main(["dbgen"] + base) == 0
    os.makedirs(out, exist_ok=True)
    archive = out / "archive.csv"
    archive.write_text(
        archive_headers(scenario, base) +
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
        archive_headers(scenario, base) +
        "coverage_deficit,cost_fraction,energy_fraction,genes\n")
    assert main(["report"] + base) == 4


def _drop_lines(*starts):
    """An archive damage that drops the lines beginning with any of `starts`."""
    return lambda lines: [line for line in lines if not line.startswith(starts)]


def _edit_row(edit):
    """An archive damage that applies `edit` to the cells of the first row."""
    def damage(lines):
        first = lines.index("coverage_deficit,cost_fraction,energy_fraction,genes") + 1
        lines[first] = ",".join(edit(lines[first].split(",")))
        return lines
    return damage


# Each case turns the lines of a current archive of the coverable toy (two
# sites) into lines that report must refuse.
ARCHIVE_DAMAGES = {
    "no_header_lines": _drop_lines("# scenario_hash=", "# config="),
    "no_hash_line": _drop_lines("# scenario_hash="),
    "no_config_line": _drop_lines("# config="),
    "no_column_row": _drop_lines("coverage_deficit,"),
    "one_gene": _edit_row(lambda cells: cells[:3] + ["1"]),
    "three_genes": _edit_row(lambda cells: cells[:3] + ["1;1;1"]),
    "nan_coverage": _edit_row(lambda cells: ["nan"] + cells[1:]),
    "two_cells": _edit_row(lambda cells: cells[:1] + cells[3:]),
}


@pytest.mark.parametrize("damage", sorted(ARCHIVE_DAMAGES))
def test_report_refuses_a_damaged_archive(workspace, damage, capsys):
    _, out, base = workspace
    assert main(["dbgen"] + base) == 0
    assert main(["optimize"] + base + FAST_GA) == 0
    archive = out / "archive.csv"
    lines = archive.read_text().splitlines()
    archive.write_text("\n".join(ARCHIVE_DAMAGES[damage](lines)) + "\n")
    capsys.readouterr()
    assert main(["report"] + base) == 3
    assert "rerun optimize" in capsys.readouterr().err
    assert not (out / "solutions.csv").exists()


def _listing(directory) -> dict:
    """Every file below `directory` and its bytes."""
    return {path.relative_to(directory): path.read_bytes()
            for path in sorted(directory.rglob("*")) if path.is_file()}


@pytest.mark.parametrize("gene", [9, -1])
def test_report_refuses_a_gene_outside_the_site_plan(tmp_path, gene, capsys):
    scenario = tmp_path / "scenario.json"
    write_scenario(demo_scenario(), scenario)
    out = tmp_path / "run"
    base = ["--scenario", str(scenario), "--out", str(out)]
    assert main(["dbgen"] + base) == 0
    assert main(["optimize"] + base + FAST_GA) == 0
    assert main(["report"] + base) == 0
    archive = out / "archive.csv"
    edited = _edit_row(lambda cells: cells[:3] + [
        ";".join([str(gene)] + cells[3].split(";")[1:])])(
            archive.read_text().splitlines())
    archive.write_text("\n".join(edited) + "\n")
    before = _listing(out)
    capsys.readouterr()
    assert main(["report"] + base) == 3
    assert "rerun optimize" in capsys.readouterr().err
    assert _listing(out) == before


def test_outputs_carry_hash_and_config(workspace):
    scenario, out, base = workspace
    for stage in (["sites"], ["dbgen"],
                  ["optimize"] + FAST_GA + ["--restarts", "2"], ["report"]):
        assert main(stage + base) == 0
    names = {path.name for path in out.glob("*.csv")}
    assert {"feasibility.csv", "region_ems_roi1.csv", "region_ase_roi1.csv",
            "archive.csv", "trace.csv", "solutions.csv", "reduction.csv",
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


@pytest.mark.parametrize("stage", ["sites", "optimize", "report"])
def test_force_is_a_dbgen_option_only(workspace, stage):
    _, out, base = workspace
    assert main([stage, "--force"] + base) == 2
    assert not out.exists()


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
    # The coverage deficit divides by |pth-dbm|
    "pth_zero_sites": ["sites", "--pth-dbm", "0"],
    "pth_zero_dbgen": ["dbgen", "--pth-dbm", "-0.0"],
    "pth_zero_optimize": ["optimize", "--pth-dbm", "0"],
    "pth_zero_report": ["report", "--pth-dbm", "-0.0"],
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
    capsys.readouterr()
    assert main([stage] + base + ga + option) == 2
    error = capsys.readouterr().err
    if option[0] in ("--pop", "--iters", "--mutation-rate", "--seed"):
        # GaConfig's bounds: main prints the refusal as one error line
        assert error.startswith("error: ") and error.count("\n") == 1, error
    else:
        assert "error:" in error
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


def python(*args, **kwargs) -> subprocess.CompletedProcess:
    """This interpreter run on `args` in a child process that imports the
    semeplan under test, with stdout block-buffered so a lost flush shows."""
    src = os.path.dirname(os.path.dirname(semeplan.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run([sys.executable, *args], env=env, timeout=120, **kwargs)


def test_cli_starts_without_scipy():
    # scipy is a test dependency only; importing it costs every stage ~0.4 s.
    python("-c", "import semeplan.cli, sys; assert 'scipy' not in sys.modules",
           check=True)


def test_package_root_imports_nothing():
    # Importing a submodule runs the root first; it adds nothing to that.
    python("-c", "import semeplan, sys; assert not [name for name in sys.modules "
           "if name == 'numpy' or name.startswith(('numpy.', 'semeplan.'))]",
           check=True)


def test_cli_starts_without_dataclasses():
    # Building a @dataclass at import costs every stage about 0.7 ms.
    python("-c", "import semeplan.cli, sys; "
           "assert 'dataclasses' not in sys.modules", check=True)


def test_process_entry_writes_the_bytes_of_main(workspace, tmp_path, capsys):
    # `python -m semeplan.cli` goes through cli.run, which freezes the
    # collector before the process exits; main() in this process never does.
    scenario, out, base = workspace

    def into(directory):
        return [str(directory) if arg == str(out) else arg for arg in base]

    child_out = tmp_path / "child"
    frozen = gc.get_freeze_count()
    for stage in (["sites"], ["dbgen"], ["optimize"] + FAST_GA, ["report"]):
        assert main(stage + base) == 0
        assert gc.get_freeze_count() == frozen
        summary = capsys.readouterr().out.replace(str(out), str(child_out))
        child = python("-m", "semeplan.cli", *stage, *into(child_out),
                       capture_output=True, text=True)
        assert child.returncode == 0, child.stderr
        assert child.stdout == summary
        assert child.stdout.startswith(f"{stage[0]}: ") \
            and child.stdout.count("\n") == 1 and child.stdout.endswith("\n")
    names = sorted(path.name for path in out.iterdir())
    assert sorted(path.name for path in child_out.iterdir()) == names
    assert {"mapdb.bin", "archive.csv", "reduction.csv"} <= set(names)
    for name in names:
        assert (child_out / name).read_bytes() == (out / name).read_bytes(), name

    # The exit codes come back through the entry function unchanged.
    malformed = tmp_path / "malformed.json"
    doc = coverable_toy()
    doc["grid"]["nx"] = "abc"
    malformed.write_text(json.dumps(doc))
    (child_out / "archive.csv").write_text(
        archive_headers(scenario, base) +
        "coverage_deficit,cost_fraction,energy_fraction,genes\n")
    cases = [(2, ["sites", "--scenario", str(malformed),
                  "--out", str(tmp_path / "o2")]),
             (3, ["optimize"] + into(tmp_path / "o3") + FAST_GA),
             (4, ["report"] + into(child_out))]
    for code, argv in cases:
        child = python("-m", "semeplan.cli", *argv, capture_output=True, text=True)
        assert child.returncode == code, child.stderr
        assert child.stderr.startswith("error: "), child.stderr
    assert child.stderr == "error: archive is empty\n"  # the exit-4 case, run last
