import copy
import json
import math
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from semeplan.scenario import (ScenarioError, load_scenario, scenario_from_dict,
                               scenario_to_dict)
from semeplan.synthetic import DEFAULT_CATALOG, demo_scenario
from toys import write_scenario

MINIMAL = {
    "frequency_hz": 3.5e9,
    "grid": {"origin": [0.0, 0.0], "spacing_m": 5.0, "nx": 4, "ny": 4,
             "height_m": 1.5},
    "bts": {"position": [0.0, 0.0, 10.0],
            "time_instants": [{"sectors": [{
                "azimuth_deg": 0.0, "downtilt_deg": 2.0,
                "tx_power_w": 20.0, "max_gain_dbi": 16.3}]}]},
    "buildings": [{"footprint": [[2.0, 2.0], [8.0, 2.0], [8.0, 8.0], [2.0, 8.0]],
                   "height_m": 10.0}],
}


def test_minimal_scenario_loads():
    sc = scenario_from_dict(MINIMAL)
    assert sc.bts.sector_count == 1
    assert sc.time_instants == 1
    assert sc.n_sites == 0
    assert sc.catalog == ()


def test_facade_site_rejects_active_kinds():
    doc = copy.deepcopy(MINIMAL)
    doc["sites"] = [{"position": [5.0, 5.0, 4.0], "mount": "facade",
                     "normal": [1.0, 0.0, 0.0],
                     "admissible_kinds": ["SP-EMS", "SR"]}]
    with pytest.raises(ScenarioError, match="facade admits only EMS kinds"):
        scenario_from_dict(doc)


def test_catalog_table_values_accepted():
    doc = copy.deepcopy(MINIMAL)
    doc["catalog"] = copy.deepcopy(DEFAULT_CATALOG)
    sc = scenario_from_dict(doc)
    by_kind = {k.kind: k for k in sc.catalog}
    assert by_kind["SP-EMS"].install_cost == 500.0
    assert by_kind["SP-EMS"].energy_w == 0.0
    assert by_kind["SP-EMS"].tx_power_dbm is None
    assert by_kind["IAB"].install_cost == 7500.0
    assert by_kind["IAB"].energy_w == 350.0
    assert by_kind["IAB"].tx_power_dbm == 33.0


def test_wavelength_values():
    sc = scenario_from_dict(MINIMAL)
    assert abs(sc.wavelength - 299_792_458.0 / 3.5e9) == 0.0
    assert abs(sc.wavelength - 0.085655) < 1e-6

    doc = copy.deepcopy(MINIMAL)
    doc["frequency_hz"] = 299_792_458.0
    assert scenario_from_dict(doc).wavelength == 1.0

    doc["frequency_hz"] = 1.75e9
    assert abs(scenario_from_dict(doc).wavelength - 0.171310) < 1e-6


def test_round_trip_identity(tmp_path):
    sc = scenario_from_dict(demo_scenario())
    path = tmp_path / "scenario.json"
    write_scenario(scenario_to_dict(sc), path)
    again = load_scenario(path)
    assert again == sc
    assert scenario_from_dict(scenario_to_dict(sc)) == sc


def test_sector_count_mismatch_rejected():
    doc = copy.deepcopy(MINIMAL)
    sector = doc["bts"]["time_instants"][0]["sectors"][0]
    doc["bts"]["time_instants"] = [{"sectors": [sector]},
                                   {"sectors": [sector, sector]}]
    with pytest.raises(ScenarioError, match="sector count"):
        scenario_from_dict(doc)


@pytest.mark.parametrize("mutate,match", [
    (lambda d: d.update(frequency_hz=0.0), "frequency_hz"),
    (lambda d: d["bts"].update(position=[0, 0, -1.0]), "height"),
    (lambda d: d["grid"].update(spacing_m=0.0), "spacing"),
    (lambda d: d["buildings"][0].update(height_m=0.0), "height"),
    (lambda d: d["bts"]["time_instants"][0]["sectors"][0].update(
        tx_power_w=0.0), "tx_power"),
    (lambda d: d["bts"]["time_instants"][0]["sectors"][0].update(
        az_beamwidth_deg=200.0), "beamwidth"),
    (lambda d: d["buildings"][0].update(footprint=[]), "missing footprint"),
    (lambda d: d["buildings"][0].update(footprint=[[0, 0], [5, 0]]),
     "at least 3 vertices"),
    (lambda d: d["bts"].update(time_instants=[]), "at least one time instant"),
    (lambda d: d["bts"]["time_instants"][0].update(sectors=[]),
     "at least one sector"),
    (lambda d: d.update(catalog=[dict(DEFAULT_CATALOG[0], tx_power_dbm=30.0)]),
     "must not define tx_power_dbm"),
    (lambda d: d.update(catalog=[dict(DEFAULT_CATALOG[0], aperture_m2=0.0)]),
     "aperture_m2 > 0"),
    (lambda d: d.update(sites=[{"position": [5.0, 5.0, 4.0], "mount": "facade",
                                "normal": [0.0, 0.0, 0.0]}]), "nonzero"),
    (lambda d: d.update(sites=[{"position": [5.0, 5.0, 4.0], "mount": "pole",
                                "admissible_kinds": ["UAV"]}]),
     "unknown admissible kind"),
    # A replacement document: not a JSON object
    (lambda d: [d], "must be a JSON object"),
])
def test_invariant_violations_rejected(mutate, match):
    doc = copy.deepcopy(MINIMAL)
    doc = mutate(doc) or doc
    with pytest.raises(ScenarioError, match=match):
        scenario_from_dict(doc)


def test_self_intersecting_footprint_rejected():
    doc = copy.deepcopy(MINIMAL)
    doc["buildings"][0]["footprint"] = [[0, 0], [10, 10], [10, 0], [0, 10]]
    with pytest.raises(ScenarioError, match="not simple"):
        scenario_from_dict(doc)


def test_site_outside_grid_rejected():
    doc = copy.deepcopy(MINIMAL)
    doc["sites"] = [{"position": [100.0, 0.0, 4.0], "mount": "pole"}]
    with pytest.raises(ScenarioError, match="outside the scenario grid"):
        scenario_from_dict(doc)


def test_facade_needs_normal():
    doc = copy.deepcopy(MINIMAL)
    doc["sites"] = [{"position": [5.0, 5.0, 4.0], "mount": "facade"}]
    with pytest.raises(ScenarioError, match="normal"):
        scenario_from_dict(doc)


def test_default_admissible_kinds():
    doc = copy.deepcopy(MINIMAL)
    doc["catalog"] = copy.deepcopy(DEFAULT_CATALOG)
    doc["sites"] = [
        {"position": [5.0, 5.0, 4.0], "mount": "facade", "normal": [0, -1, 0]},
        {"position": [10.0, 10.0, 4.0], "mount": "pole"},
    ]
    sc = scenario_from_dict(doc)
    assert set(sc.sites[0].admissible_kinds) == {"SP-EMS", "RP-EMS"}
    assert set(sc.sites[1].admissible_kinds) == {"SP-EMS", "RP-EMS", "SR", "IAB"}
    assert sc.admissible_kind_values(0) == (1, 2)
    assert sc.admissible_kind_values(1) == (1, 2, 3, 4)


def test_passive_kind_validation():
    doc = copy.deepcopy(MINIMAL)
    doc["catalog"] = [{"kind": "SP-EMS", "install_cost": 500.0, "energy_w": 0.0,
                       "reflection_efficiency": 1.5, "aperture_m2": 4.58}]
    with pytest.raises(ScenarioError, match="reflection_efficiency"):
        scenario_from_dict(doc)
    doc["catalog"] = [{"kind": "SR", "install_cost": 3000.0, "energy_w": 20.0}]
    with pytest.raises(ScenarioError, match="tx_power_dbm"):
        scenario_from_dict(doc)


def test_parse_failure_names_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ScenarioError, match="not valid JSON"):
        load_scenario(path)
    with pytest.raises(ScenarioError, match="cannot read"):
        load_scenario(tmp_path / "missing.json")


def test_geojson_conversion(tmp_path):
    # scripts/geojson_buildings.py prints the buildings of a scenario document
    doc = {"type": "FeatureCollection", "features": [
        {"type": "Feature",
         "geometry": {"type": "Polygon",
                      "coordinates": [[[0, 0], [10, 0], [10, 10], [0, 10],
                                       [0, 0]]]},
         "properties": {"height": 22.0}},
        {"type": "Feature",
         "geometry": {"type": "Polygon",
                      "coordinates": [[[12, 0], [16, 0], [16, 4]]]},
         "properties": {}},
        {"type": "Feature", "geometry": {"type": "Point", "coordinates": [1, 2]},
         "properties": {}},
    ]}
    path = tmp_path / "footprints.geojson"
    path.write_text(json.dumps(doc))
    script = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "geojson_buildings.py"
    printed = subprocess.run([sys.executable, str(script), str(path), "--height", "7"],
                             check=True, capture_output=True, text=True, timeout=60)
    buildings = json.loads(printed.stdout)
    assert [b["height_m"] for b in buildings] == [22.0, 7.0]
    merged = dict(MINIMAL, buildings=buildings)
    sc = scenario_from_dict(merged)
    assert len(sc.buildings[0].footprint) == 4  # closing vertex dropped


def test_content_hash_stable_and_sensitive():
    a = scenario_from_dict(demo_scenario())
    b = scenario_from_dict(demo_scenario())
    assert a.content_hash() == b.content_hash()
    doc = demo_scenario()
    doc["frequency_hz"] = 3.6e9
    assert scenario_from_dict(doc).content_hash() != a.content_hash()


def test_building_material_keys_are_ignored():
    doc = copy.deepcopy(MINIMAL)
    doc["buildings"][0].update(permittivity=5.3, conductivity_s_per_m=0.1)
    with_material = scenario_from_dict(doc)
    plain = scenario_from_dict(MINIMAL)
    assert with_material == plain
    assert with_material.content_hash() == plain.content_hash()
    assert "permittivity" not in scenario_to_dict(with_material)["buildings"][0]


def _leaf_paths(node, path=()):
    """The path of keys and indices to every scalar of a JSON document."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return [path]
    return [leaf for key, child in items for leaf in _leaf_paths(child, path + (key,))]


DEMO = demo_scenario()
_DELETE = object()
# Besides a drawn text: the non-finite and negative numbers, null, a list,
# or no key at all.  No value is large enough to size a huge grid.
LEAF_MUTATIONS = [math.nan, math.inf, -math.inf, -1, None, [1.0], _DELETE]


# The loader alone: a mutated document that loads is not run.
@settings(max_examples=150)
@given(path=st.sampled_from(_leaf_paths(DEMO)),
       text=st.text("0123456789.eE-x", max_size=6))
def test_mutated_demo_document_loads_or_raises_scenario_error(path, text):
    for value in [text] + LEAF_MUTATIONS:
        doc = copy.deepcopy(DEMO)
        node = doc
        for key in path[:-1]:
            node = node[key]
        if value is _DELETE:
            del node[path[-1]]
        else:
            node[path[-1]] = value
        try:
            scenario_from_dict(doc)
        except ScenarioError:
            pass
