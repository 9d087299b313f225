import copy
import sys

import numpy as np
import pytest

from semeplan import propagation
from semeplan.geometry import count_blocking_footprints
from semeplan.propagation import (MapDatabase, fields_to_power_watts,
                                  MissingEntryError, build_database,
                                  database_header, load_database,
                                  power_map_dbm, power_map_watts,
                                  reference_field,
                                  point_power_dbm, save_database,
                                  _sector_gain_dbi)
from dbtools import in_memory, see_contribution, site_powers
from semeplan.scenario import BtsSector, scenario_from_dict
from semeplan.synthetic import demo_scenario
from semeplan.units import FREE_SPACE_IMPEDANCE, watts_to_dbm
from test_cli import DAMAGES

SECTOR = BtsSector(azimuth_deg=30.0, downtilt_deg=5.0, tx_power_w=20.0,
                   max_gain_dbi=16.3, az_beamwidth_deg=65.0,
                   el_beamwidth_deg=10.0)


def _direction(az_deg, el_deg):
    az, el = np.radians(az_deg), np.radians(el_deg)
    return np.array([np.cos(el) * np.cos(az), np.cos(el) * np.sin(az),
                     np.sin(el)])


def open_field(nx=12, ny=12, sectors=None, buildings=(), sites=(),
               catalog=(), tx=20.0):
    sectors = sectors or [{"azimuth_deg": 0.0, "downtilt_deg": 0.0,
                           "tx_power_w": tx, "max_gain_dbi": 16.3,
                           "az_beamwidth_deg": 65.0, "el_beamwidth_deg": 10.0}]
    return scenario_from_dict({
        "frequency_hz": 3.5e9,
        "grid": {"origin": [0.0, 0.0], "spacing_m": 5.0, "nx": nx, "ny": ny,
                 "height_m": 1.5},
        "bts": {"position": [0.0, 0.0, 1.5],
                "time_instants": [{"sectors": sectors}]},
        "buildings": list(buildings),
        "catalog": list(catalog),
        "sites": list(sites),
    })


def test_sector_gain_boresight_exact():
    boresight = _direction(30.0, -5.0)
    assert _sector_gain_dbi(SECTOR, boresight)[0] == pytest.approx(16.3, abs=1e-12)


def test_sector_gain_half_power_at_half_beamwidth():
    direction = _direction(30.0 + 65.0 / 2.0, -5.0)
    assert _sector_gain_dbi(SECTOR, direction)[0] == pytest.approx(16.3 - 3.0, abs=1e-9)


def test_sector_gain_backlobe_floor():
    assert _sector_gain_dbi(SECTOR, -_direction(30.0, -5.0))[0] \
        == pytest.approx(16.3 - 30.0, abs=1e-9)


def test_free_space_follows_friis():
    # Along boresight the engine must match the Friis formula to 0.01 dB
    # from 10 m to 10 km.
    sc = open_field()
    distances = np.logspace(1, 4, 25)
    points = np.column_stack([distances, np.zeros(25), np.full(25, 1.5)])
    got = point_power_dbm(sc, points)[0]
    eirp_dbm = watts_to_dbm(20.0) + 16.3
    friis = eirp_dbm - 20.0 * np.log10(4.0 * np.pi * distances / sc.wavelength)
    assert np.abs(got - friis).max() < 0.01


def test_doubling_distance_costs_6db():
    sc = open_field()
    pts = np.array([[100.0, 0.0, 1.5], [200.0, 0.0, 1.5]])
    p = point_power_dbm(sc, pts)[0]
    assert p[0] - p[1] == pytest.approx(6.0206, abs=1e-3)


def test_single_wall_costs_exactly_wall_loss():
    slab = {"footprint": [[40.0, -10.0], [44.0, -10.0], [44.0, 10.0],
                          [40.0, 10.0]], "height_m": 50.0}
    free = open_field()
    walled = open_field(buildings=[slab])
    pts = np.array([[100.0, 0.0, 1.5]])
    p_free = point_power_dbm(free, pts)[0, 0]
    p_wall = point_power_dbm(walled, pts)[0, 0]
    assert p_free - p_wall == pytest.approx(20.0, abs=1e-9)


def test_reference_field_finite_and_shaped():
    sc = open_field(nx=8, ny=6)
    ref = reference_field(sc)
    assert ref.shape == (1, 3, 6, 8)
    assert np.isfinite(ref).all()


def _db_for(sc, assignments, mode="coherent"):
    return in_memory(build_database(sc, reference_field(sc), assignments,
                                    incident_dbm=site_powers(sc), mode=mode))


def _targets(sc, point):
    return np.tile(np.asarray(point, float), (sc.time_instants, 1))


def test_all_zero_chromosome_reproduces_reference():
    sc = open_field(catalog=[{"kind": "SR", "install_cost": 3000.0,
                              "energy_w": 20.0, "tx_power_dbm": 24.0,
                              "gain_dbi": 12.0, "sensitivity_dbm": -60.0}],
                    sites=[{"position": [20.0, 20.0, 6.0], "mount": "pole"}])
    assignments = {(0, 1): _targets(sc, [50.0, 50.0, 1.5])}
    for mode in ("coherent", "incoherent"):
        db = _db_for(sc, assignments, mode)
        zero = power_map_watts(db, [0], 0)
        direct = (np.abs(db.reference[0]) ** 2).sum(axis=0) \
            * sc.wavelength ** 2 / (8.0 * np.pi * FREE_SPACE_IMPEDANCE)
        np.testing.assert_allclose(zero, direct, rtol=1e-12)


def test_incoherent_mode_is_monotone():
    sc = open_field(
        catalog=[{"kind": "IAB", "install_cost": 7500.0, "energy_w": 350.0,
                  "tx_power_dbm": 33.0, "gain_dbi": 12.0,
                  "sensitivity_dbm": -80.0}],
        sites=[{"position": [20.0, 20.0, 6.0], "mount": "pole"},
               {"position": [40.0, 10.0, 6.0], "mount": "pole"}])
    assignments = {(0, 1): _targets(sc, [50.0, 50.0, 1.5]),
                   (1, 1): _targets(sc, [30.0, 50.0, 1.5])}
    db = _db_for(sc, assignments, "incoherent")
    base = power_map_watts(db, [1, 0], 0)
    more = power_map_watts(db, [1, 1], 0)
    assert (more >= base).all()


def test_ems_peak_power_matches_aperture_gain_budget():
    # Peak re-radiated power = incident power + 10 log10(4 pi A / lambda^2)
    # minus the free-space spreading to the target (efficiency 1).
    catalog = [{"kind": "SP-EMS", "install_cost": 500.0, "energy_w": 0.0,
                "reflection_efficiency": 1.0, "aperture_m2": 4.58}]
    site = {"position": [25.0, 0.0, 1.5], "mount": "pole",
            "admissible_kinds": ["SP-EMS"]}
    sc = open_field(catalog=catalog, sites=[site])
    target = np.array([25.0, 30.0, 1.5])  # grid cell (iy=6, ix=5)
    grid_cell = (6, 5)
    contribution = see_contribution(sc, sc.sites[0], sc.catalog[0],
                                    _targets(sc, target))
    peak_w = (np.abs(contribution[0][:, grid_cell[0], grid_cell[1]]) ** 2
              ).sum() * sc.wavelength ** 2 / (8 * np.pi * FREE_SPACE_IMPEDANCE)
    incident = point_power_dbm(sc, np.array(site["position"]))[0, 0]
    gain_db = 10.0 * np.log10(4.0 * np.pi * 4.58 / sc.wavelength ** 2)
    spreading = 20.0 * np.log10(4.0 * np.pi * 30.0 / sc.wavelength)
    expected = incident + gain_db - spreading
    assert watts_to_dbm(peak_w) == pytest.approx(expected, abs=1e-9)


def test_repeater_below_sensitivity_is_silent():
    catalog = [{"kind": "SR", "install_cost": 3000.0, "energy_w": 20.0,
                "tx_power_dbm": 24.0, "gain_dbi": 12.0,
                "sensitivity_dbm": 30.0}]  # unreachable threshold
    site = {"position": [25.0, 0.0, 6.0], "mount": "pole"}
    sc = open_field(catalog=catalog, sites=[site])
    contribution = see_contribution(sc, sc.sites[0], sc.catalog[0],
                                    _targets(sc, [40.0, 40.0, 1.5]))
    assert np.all(contribution == 0.0)


def test_reconfigurable_skin_same_target_same_field():
    catalog = [{"kind": "RP-EMS", "install_cost": 750.0, "energy_w": 2.0,
                "reflection_efficiency": 0.8, "aperture_m2": 4.58}]
    doc = {
        "frequency_hz": 3.5e9,
        "grid": {"origin": [0.0, 0.0], "spacing_m": 5.0, "nx": 10, "ny": 10,
                 "height_m": 1.5},
        "bts": {"position": [0.0, 0.0, 10.0], "time_instants": [
            {"sectors": [{"azimuth_deg": 0.0, "downtilt_deg": 2.0,
                          "tx_power_w": 20.0, "max_gain_dbi": 16.3}]},
            {"sectors": [{"azimuth_deg": 0.0, "downtilt_deg": 2.0,
                          "tx_power_w": 20.0, "max_gain_dbi": 16.3}]},
        ]},
        "catalog": catalog,
        "sites": [{"position": [20.0, 5.0, 6.0], "mount": "pole",
                   "admissible_kinds": ["RP-EMS"]}],
    }
    sc = scenario_from_dict(doc)
    target = [40.0, 25.0, 1.5]
    contribution = see_contribution(sc, sc.sites[0], sc.catalog[0],
                                    np.array([target, target]))
    np.testing.assert_array_equal(contribution[0], contribution[1])


def test_aim_at_the_site_itself_falls_back_to_the_x_boresight():
    # A boresight of zero length points along +x: the fields equal, bit for
    # bit, those of the same device aimed 10 m along +x
    sc = scenario_from_dict(demo_scenario())
    site = sc.sites[0]
    at_site = _targets(sc, site.position)
    along_x = _targets(sc, np.add(site.position, [10.0, 0.0, 0.0]))
    for kind in sc.catalog:
        fields = see_contribution(sc, site, kind, at_site)
        assert np.abs(fields).max() > 0.0
        assert fields.tobytes() == see_contribution(sc, site, kind, along_x).tobytes()


def test_database_entry_counting(coverable):
    # 2 sites x 4 kinds feasible in the coverable toy
    db = coverable["dbs"]["coherent"]
    assert len(db.entries) == 8
    assert sorted(db.entries) == [(n, s) for n in range(2) for s in (1, 2, 3, 4)]


def test_database_determinism_and_roundtrip(tmp_path, coverable):
    c = coverable
    assignments = c["plan"].db_assignments(c["rois"], c["scenario"].grid.height)
    db1 = _db_for(c["scenario"], assignments)
    db2 = _db_for(c["scenario"], assignments)
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_database(db1, p1)
    save_database(db2, p2)
    assert p1.read_bytes() == p2.read_bytes()

    loaded = load_database(p1)
    assert loaded.header == db1.header
    assert sorted(loaded.entries) == sorted(db1.entries)
    np.testing.assert_allclose(loaded.reference, db1.reference,
                               rtol=1e-6)
    key = sorted(db1.entries)[0]
    np.testing.assert_allclose(loaded.entries[key], db1.entries[key],
                               rtol=1e-5, atol=1e-12)


def test_missing_entry_raises(coverable):
    db = coverable["dbs"]["coherent"]
    with pytest.raises(MissingEntryError, match="site 1"):
        power_map_watts(db, [0, 9], 0)


def test_database_with_no_feasible_pairs_keeps_reference():
    sc = open_field(nx=6, ny=6)
    db = _db_for(sc, {})
    assert db.entries == {}
    assert db.reference.shape == (1, 3, 6, 6)
    np.testing.assert_allclose(power_map_watts(db, [], 0),
                               fields_to_power_watts(db.reference[0],
                                                     sc.wavelength))


def test_load_database_rejects_foreign_files(tmp_path, coverable):
    from semeplan.propagation import DatabaseError
    bogus = tmp_path / "bogus.bin"
    bogus.write_bytes(b"definitely not a database")
    with pytest.raises(DatabaseError, match="not a map database"):
        load_database(bogus)
    with pytest.raises(DatabaseError, match="cannot read"):
        load_database(tmp_path / "missing.bin")
    # truncated in the magic, the header or the grids, or padded
    good = tmp_path / "good.bin"
    save_database(coverable["dbs"]["coherent"], good)
    blob = good.read_bytes()
    for damaged in (blob[:6], blob[:20], blob[:len(blob) // 2], blob[:-1],
                    blob + b"\0"):
        bogus.write_bytes(damaged)
        with pytest.raises(DatabaseError):
            load_database(bogus)
    # a non-finite field value, a header count that is not an integer, a
    # directory that names one entry twice, or a mode no sum is defined for
    for damage, match in (("nan_grid", "non-finite"), ("nx_float", "integer"),
                          ("duplicate_entry", "repeats"),
                          ("unknown_mode", "unknown mode")):
        bogus.write_bytes(DAMAGES[damage](blob))
        with pytest.raises(DatabaseError, match=match):
            load_database(bogus)


class _ExplodingGrid:
    def __array__(self, *args, **kwargs):
        raise RuntimeError("grid unavailable")


def test_failed_save_keeps_previous_database(tmp_path, coverable):
    db = coverable["dbs"]["coherent"]
    path = tmp_path / "mapdb.bin"
    save_database(db, path)
    before = path.read_bytes()
    broken = MapDatabase(reference=db.reference,
                         entries={**db.entries, (9, 9): _ExplodingGrid()},
                         header={**db.header,
                                 "entries": db.header["entries"] + [[9, 9]]})
    with pytest.raises(RuntimeError, match="grid unavailable"):
        save_database(broken, path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["mapdb.bin"]


def test_save_into_a_missing_directory_raises_and_leaves_no_file(tmp_path,
                                                                coverable):
    from semeplan.propagation import DatabaseError
    with pytest.raises(DatabaseError, match="cannot write"):
        save_database(coverable["dbs"]["coherent"], tmp_path / "missing" / "mapdb.bin")
    assert list(tmp_path.iterdir()) == []


def test_destructive_interference_cancels_exactly():
    sc = open_field(nx=4, ny=4)
    ref = reference_field(sc)
    db = MapDatabase(reference=ref, entries={(0, 1): -ref},
                     header=database_header(sc, "coherent", {}, [(0, 1)], None))
    assert power_map_watts(db, [1], 0).max() == 0.0
    assert power_map_dbm(db, [1], 0)[2, 2] == -np.inf


def test_power_map_dbm_matches_watts(coverable):
    db = coverable["dbs"]["coherent"]
    genes = [1, 0]
    w = power_map_watts(db, genes, 0)
    d = power_map_dbm(db, genes, 0)
    np.testing.assert_allclose(d, watts_to_dbm(w), rtol=1e-12)
    iy, ix = 3, 7
    field = db.reference[0][:, iy, ix] + db.entries[(0, 1)][0][:, iy, ix]
    assert watts_to_dbm(fields_to_power_watts(field, db.wavelength)) \
        == pytest.approx(d[iy, ix])


def _every_kind_everywhere(sc):
    """Every admissible (site, kind) pair, each aimed at its own point."""
    return {(n, s): _targets(sc, [60.0 + 10.0 * n, 40.0 + 5.0 * s, 1.5])
            for n in range(len(sc.sites)) for s in sc.admissible_kind_values(n)}


def test_database_equals_fresh_calls_in_both_modes():
    # The demo town has three sectors per instant at one base station and
    # up to four kinds per site, so wall counts are shared within a build.
    doc = demo_scenario()
    sc, unused = scenario_from_dict(doc), scenario_from_dict(doc)
    assignments = _every_kind_everywhere(sc)
    assert max(sum(1 for key in assignments if key[0] == n)
               for n in range(len(sc.sites))) >= 3
    dbs = {mode: _db_for(sc, assignments, mode)
           for mode in ("coherent", "incoherent")}
    # Nothing holds the scenario: it has the references of an unused copy.
    # (A scenario is a tuple, which takes no weak reference.)
    assert sys.getrefcount(sc) == sys.getrefcount(unused)
    # A scenario of its own per call: no counts from another call reach it.
    reference = reference_field(scenario_from_dict(doc))
    fresh = {}
    for (n, s), targets in assignments.items():
        own = scenario_from_dict(doc)
        fresh[(n, s)] = see_contribution(own, own.sites[n], own.catalog[s - 1],
                                         targets)
    for db in dbs.values():
        assert np.array_equal(db.reference, reference)
        assert sorted(db.entries) == sorted(fresh)
        for key, entry in fresh.items():
            assert np.array_equal(db.entries[key], entry), key


def test_build_radiates_at_the_wall_loss_its_header_records():
    # params is the one source of the wall loss: the entries radiate at
    # the value the header says.
    sc = scenario_from_dict(demo_scenario())
    assignments = _every_kind_everywhere(sc)
    db = in_memory(build_database(sc, reference_field(sc, wall_loss_db=30.0),
                                  assignments, incident_dbm=site_powers(sc, 30.0),
                                  params={"wall_loss_db": 30.0}))
    assert db.header["metadata"]["params"] == {"wall_loss_db": 30.0}
    for (n, s), targets in assignments.items():
        entry = see_contribution(sc, sc.sites[n], sc.catalog[s - 1], targets,
                                 wall_loss_db=30.0)
        assert db.entries[(n, s)].tobytes() == entry.tobytes(), (n, s)


def test_sectors_sharing_the_base_station_superpose_exactly():
    # Each single-sector scenario differs from the others, so none shares
    # wall counts; their fields add up to the three-sector field bit for bit.
    doc = demo_scenario()
    total = reference_field(scenario_from_dict(doc))
    instants = doc["bts"]["time_instants"]
    summed = 0.0
    for k in range(len(instants[0]["sectors"])):
        single = copy.deepcopy(doc)
        for instant in single["bts"]["time_instants"]:
            instant["sectors"] = instant["sectors"][k:k + 1]
        summed = summed + reference_field(scenario_from_dict(single))
    assert np.array_equal(total, summed)


def test_wall_counts_do_not_leak_between_scenarios():
    # Same base station and sites, different buildings, both alive at once.
    doc = demo_scenario()
    moved = copy.deepcopy(doc)
    for building in moved["buildings"]:
        building["footprint"] = [[x + 7.0, y - 3.0] for x, y in building["footprint"]]
    sc, other = scenario_from_dict(doc), scenario_from_dict(moved)
    assignments = _every_kind_everywhere(sc)
    db = _db_for(sc, assignments)
    db_other = _db_for(other, assignments)
    assert not np.array_equal(db.reference, db_other.reference)
    for key in assignments:
        assert not np.array_equal(db.entries[key], db_other.entries[key]), key


def test_equal_scenarios_give_equal_fields_and_are_released():
    # Two equal copies give the same field, and computing it keeps
    # neither copy alive.
    doc = demo_scenario()
    a, b, unused = (scenario_from_dict(doc) for _ in range(3))
    assert a == b and a is not b and hash(a) == hash(b)
    first = reference_field(a)
    assert np.array_equal(reference_field(b), first)
    assert sys.getrefcount(a) == sys.getrefcount(b) == sys.getrefcount(unused)


def test_build_counts_each_entry_sites_walls_once(monkeypatch):
    # One occlusion call per entry site over the grid, shared by the site's
    # kinds.  The base station's power at the sites is handed in, as dbgen
    # hands in the one its site qualification computed.
    sc = scenario_from_dict(demo_scenario())
    assignments = _every_kind_everywhere(sc)
    reference = reference_field(sc)
    incident = site_powers(sc)
    calls = []

    def counting(origin, targets, footprints):
        calls.append(len(targets))
        return count_blocking_footprints(origin, targets, footprints)

    monkeypatch.setattr(propagation, "count_blocking_footprints", counting)
    in_memory(build_database(sc, reference, assignments, incident_dbm=incident))
    sites = {n for n, _ in assignments}
    assert calls == [sc.grid.nx * sc.grid.ny] * len(sites)


def _count_radiate_calls(monkeypatch):
    calls, radiate = [], propagation._radiate

    def counting(*args):
        calls.append(len(args[2]))  # the sources radiated together
        return radiate(*args)

    monkeypatch.setattr(propagation, "_radiate", counting)
    return calls


def test_base_station_radiates_every_sector_and_instant_in_one_call(monkeypatch):
    sc = scenario_from_dict(demo_scenario())
    assert sc.time_instants == 2 and sc.bts.sector_count == 3
    calls = _count_radiate_calls(monkeypatch)
    reference_field(sc)
    point_power_dbm(sc, [site.position for site in sc.sites])
    assert calls == [sc.time_instants * sc.bts.sector_count] * 2


def test_build_radiates_each_entry_site_once(monkeypatch):
    # One call per entry site for all of its (kind, instant) sources; the
    # base station's power at the sites is handed in.
    sc = scenario_from_dict(demo_scenario())
    assignments = _every_kind_everywhere(sc)
    reference = reference_field(sc)
    incident = site_powers(sc)
    calls = _count_radiate_calls(monkeypatch)
    in_memory(build_database(sc, reference, assignments, incident_dbm=incident))
    sites = sorted({n for n, _ in assignments})
    assert len(sites) == 5
    assert calls == [sum(1 for key in assignments if key[0] == n) * sc.time_instants
                     for n in sites]


def test_streamed_build_radiates_each_site_when_its_first_entry_is_read(monkeypatch):
    # Nothing is radiated before an entry is read; read in directory order,
    # every site radiates once, into the values each entry has on its own.
    sc = scenario_from_dict(demo_scenario())
    assignments = _every_kind_everywhere(sc)
    incident = site_powers(sc)
    alone = {key: see_contribution(sc, sc.sites[key[0]], sc.catalog[key[1] - 1], targets)
             for key, targets in assignments.items()}
    reference = reference_field(sc)
    calls = _count_radiate_calls(monkeypatch)
    streamed = build_database(sc, reference, assignments, incident_dbm=incident)
    assert len(calls) == 0
    assert list(streamed.entries) == sorted(assignments)
    assert len(streamed.entries) == len(assignments)
    for key in sorted(assignments):
        assert streamed.entries[key].tobytes() == alone[key].tobytes()
    assert len(calls) == len({n for n, _ in assignments})
    with pytest.raises(KeyError):
        streamed.entries[(0, 99)]


def test_streamed_membership_radiates_nothing_and_a_map_each_deployed_site_once(
        monkeypatch):
    # `in` reads the key directory; a power map over k deployed sites
    # radiates each of them once, even though reading a site's entry drops
    # the site read before it
    sc = scenario_from_dict(demo_scenario())
    assignments = _every_kind_everywhere(sc)
    incident = site_powers(sc)
    reference = reference_field(sc)
    calls = _count_radiate_calls(monkeypatch)
    streamed = build_database(sc, reference, assignments, incident_dbm=incident)
    assert all(key in streamed.entries for key in assignments)
    assert (0, 99) not in streamed.entries
    assert len(calls) == 0
    deployed = sorted({n for n, _ in assignments})[:2]
    genes = [0] * len(sc.sites)
    for n in deployed:
        genes[n] = min(s for m, s in assignments if m == n)
    power_map_watts(streamed, genes, 0)
    assert len(calls) == len(deployed) == 2


def test_slabs_sharing_a_phase_equal_lone_sources_bit_for_bit(monkeypatch):
    # A site radiates all its (kind, instant) sources in one call, with one
    # phase per distinct pre-travelled path: none for IAB, the backhaul
    # length for the others.  Each slab equals its source radiated alone.
    sc = scenario_from_dict(demo_scenario())
    assert sc.time_instants == 2
    calls, radiate = [], propagation._radiate

    def capturing(*args):
        calls.append((args, radiate(*args)))
        return calls[-1][1]

    monkeypatch.setattr(propagation, "_radiate", capturing)
    n = next(n for n in range(len(sc.sites))
             if {sc.catalog[s - 1].kind for s in sc.admissible_kind_values(n)}
             >= {"SP-EMS", "RP-EMS", "IAB"})
    incident = site_powers(sc)
    in_memory(build_database(sc, reference_field(sc),
                             {key: v for key, v in _every_kind_everywhere(sc).items()
                              if key[0] == n}, incident_dbm=incident))
    (scenario, position, sources, points, walls, wall_loss_db), slabs = calls[-1]
    assert len({src.extra_path_m for src in sources}) == 2
    assert len(sources) == 2 * len(sc.admissible_kind_values(n))
    for src, slab in zip(sources, slabs):
        alone = radiate(scenario, position, [src], points, walls, wall_loss_db)
        assert alone[0].tobytes() == slab.tobytes()


def test_build_database_rejects_a_foreign_reference():
    sc = open_field(nx=6, ny=6)
    with pytest.raises(ValueError, match="reference field"):
        build_database(sc, reference_field(open_field(nx=5, ny=6)), {},
                       incident_dbm=site_powers(sc))
