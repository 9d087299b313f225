import copy

import numpy as np
import pytest
from hypothesis import given, strategies as st

from semeplan.scenario import scenario_from_dict
from semeplan.siteplanner import (FeasibilityRow, Roi, ase_radii, ase_region,
                                  build_rois, ems_region, max_single_hop_range,
                                  path_within_reach, qualify_sites,
                                  region_raster)
from semeplan.synthetic import DEFAULT_CATALOG
from semeplan.units import dbm_to_watts
import siteplanner_oracle as oracle
from dbtools import site_powers
from siteplanner_oracle import ase_site_verdict, ems_site_verdict
from toys import coverable_toy


def paper_bts_scenario(tx_power_w=20.0, max_gain_dbi=16.3, catalog=(),
                       sites=(), buildings=()):
    return scenario_from_dict({
        "frequency_hz": 3.5e9,
        "grid": {"origin": [0.0, 0.0], "spacing_m": 5.0, "nx": 20, "ny": 20,
                 "height_m": 1.5},
        "bts": {"position": [10.0, 50.0, 18.0],
                "time_instants": [{"sectors": [{
                    "azimuth_deg": 0.0, "downtilt_deg": 2.0,
                    "tx_power_w": tx_power_w, "max_gain_dbi": max_gain_dbi,
                    "az_beamwidth_deg": 65.0, "el_beamwidth_deg": 10.0}]}]},
        "buildings": list(buildings),
        "catalog": list(catalog),
        "sites": list(sites),
    })


def _roi(x, y, index=1):
    return Roi(index=index, cells=(((0, 0),),), barycenters=(((x, y)),),
               avg_barycenter=(x, y), cell_area=25.0)


def ems_rules(sc, site, roi, incident_dbm, pth_dbm):
    """The passive-skin rules for one (site, region) pair, membership
    tested on the site alone."""
    inside = bool(ems_region(sc, roi, pth_dbm)(np.asarray(site.position, float)))
    return ems_site_verdict(sc, site, roi, inside, incident_dbm, pth_dbm)


def ase_rules(sc, site, roi, kind, incident_dbm, pth_dbm):
    """The active-device rules for one (site, region, kind) triple,
    membership tested on the site alone."""
    inside = bool(ase_region(sc, roi, kind, pth_dbm)(np.asarray(site.position, float)))
    return ase_site_verdict(kind, inside, incident_dbm)


def test_range_formula_matches_db_domain_oracle():
    sc = paper_bts_scenario()
    got = max_single_hop_range(sc, pth_dbm=-65.0)
    # independent check in the dB domain
    decades = (10.0 * np.log10(20.0 * 1e3) + 16.3 + 0.0 + 65.0) / 20.0
    oracle = sc.wavelength / (4.0 * np.pi) * 10.0 ** decades
    assert got == pytest.approx(oracle, rel=1e-12)
    assert got == pytest.approx(1.12e4, rel=1e-2)


def test_range_scales_with_gain_and_threshold():
    base = max_single_hop_range(paper_bts_scenario(), -65.0)
    doubled = max_single_hop_range(
        paper_bts_scenario(max_gain_dbi=16.3 + 6.0205999132796239), -65.0)
    assert doubled == pytest.approx(2.0 * base, rel=1e-12)
    tighter = max_single_hop_range(paper_bts_scenario(), -45.0)
    assert tighter == pytest.approx(base / 10.0, rel=1e-12)


def test_ellipse_midpoint_and_boundary():
    sc = paper_bts_scenario()
    roi = _roi(200.0, 50.0)
    inside = ems_region(sc, roi, pth_dbm=-65.0)
    mid = (np.asarray(sc.bts.position) + np.array([200.0, 50.0, 1.5])) / 2.0
    assert bool(inside(mid))

    # Exact boundary point on the focal axis: distances R/2 + c and R/2 - c.
    assert bool(path_within_reach(np.array([3.0, 0.0, 0.0]),
                                  np.zeros(3), np.array([2.0, 0.0, 0.0]), 4.0))
    assert not bool(path_within_reach(np.array([3.0 + 1e-9, 0.0, 0.0]),
                                      np.zeros(3), np.array([2.0, 0.0, 0.0]),
                                      4.0))


def test_ellipse_brute_force_oracle():
    rng = np.random.default_rng(7)
    f1 = np.array([5.0, -3.0, 2.0])
    f2 = np.array([40.0, 20.0, 1.5])
    reach = 80.0
    pts = rng.uniform(-60, 100, size=(2000, 3))
    got = path_within_reach(pts, f1, f2, reach)
    expect = np.array([
        np.sqrt(((p - f1) ** 2).sum()) + np.sqrt(((p - f2) ** 2).sum()) <= reach
        for p in pts])
    assert (got == expect).all()


def test_ellipse_foci_symmetry():
    rng = np.random.default_rng(11)
    for _ in range(100):
        f1, f2 = rng.uniform(-50, 50, size=(2, 3))
        reach = float(np.linalg.norm(f1 - f2) * rng.uniform(1.0, 3.0))
        pts = rng.uniform(-80, 80, size=(50, 3))
        ab = path_within_reach(pts, f1, f2, reach)
        ba = path_within_reach(pts, f2, f1, reach)
        assert (ab == ba).all()


def test_ase_region_is_disk_intersection():
    sc = paper_bts_scenario(catalog=copy.deepcopy(DEFAULT_CATALOG))
    kind = sc.catalog[2]  # SR
    roi = _roi(60.0, 50.0)
    rho_bts, rho_roi = ase_radii(sc, kind, pth_dbm=-65.0)
    inside = ase_region(sc, roi, kind, pth_dbm=-65.0)
    rng = np.random.default_rng(3)
    pts = rng.uniform(-2000, 2000, size=(2000, 3))
    got = inside(pts)
    bts = np.asarray(sc.bts.position)
    bary = np.array([60.0, 50.0, 1.5])
    expect = (np.linalg.norm(pts - bts, axis=1) <= rho_bts) \
        & (np.linalg.norm(pts - bary, axis=1) <= rho_roi)
    assert (got == expect).all()


def test_ase_radii_formula():
    sc = paper_bts_scenario(catalog=copy.deepcopy(DEFAULT_CATALOG))
    kind = sc.catalog[3]  # IAB: 33 dBm, 12 dBi, -60 dBm sensitivity
    rho_bts, rho_roi = ase_radii(sc, kind, pth_dbm=-65.0)
    lam = sc.wavelength
    g_ase = 10 ** 1.2
    expect_bts = lam / (4 * np.pi) * np.sqrt(
        20.0 * 10 ** 1.63 * g_ase / dbm_to_watts(-60.0))
    expect_roi = lam / (4 * np.pi) * np.sqrt(
        dbm_to_watts(33.0) * 1.0 * g_ase / dbm_to_watts(-65.0))
    assert rho_bts == pytest.approx(expect_bts, rel=1e-12)
    assert rho_roi == pytest.approx(expect_roi, rel=1e-12)


def test_ase_region_empty_when_disks_disjoint():
    catalog = [{"kind": "SR", "install_cost": 3000.0, "energy_w": 20.0,
                "tx_power_dbm": -60.0, "gain_dbi": 0.0,
                "sensitivity_dbm": 30.0}]  # tiny radii
    sc = paper_bts_scenario(catalog=catalog)
    roi = _roi(95.0, 95.0)
    rho_bts, rho_roi = ase_radii(sc, roi_kind := sc.catalog[0], pth_dbm=-65.0)
    assert rho_bts + rho_roi < np.linalg.norm(
        np.asarray(sc.bts.position[:2]) - np.array([95.0, 95.0]))
    mask = region_raster(ase_region(sc, roi, roi_kind, -65.0), sc.grid)
    assert not mask.any()


def test_ems_verdict_rule_order():
    sc = paper_bts_scenario()
    # facade site whose outward normal faces the BTS
    site_ok = scenario_from_dict({
        "frequency_hz": 3.5e9,
        "grid": {"origin": [0.0, 0.0], "spacing_m": 5.0, "nx": 20, "ny": 20,
                 "height_m": 1.5},
        "bts": {"position": [10.0, 50.0, 18.0],
                "time_instants": [{"sectors": [{
                    "azimuth_deg": 0.0, "downtilt_deg": 2.0,
                    "tx_power_w": 20.0, "max_gain_dbi": 16.3}]}]},
        "buildings": [], "catalog": [],
        "sites": [{"position": [50.0, 50.0, 6.0], "mount": "facade",
                   "normal": [-1.0, 0.0, 0.0]}]}).sites[0]
    roi_front = _roi(20.0, 50.0)   # reflection back toward the BTS side
    roi_behind = _roi(90.0, 50.0)  # behind the wall

    strong = np.array([-40.0])
    weak = np.array([-80.0])

    assert ems_rules(sc, site_ok, roi_front, strong, -65.0) == ""
    # barycenter behind the wall: reflection angle fails
    assert ems_rules(sc, site_ok, roi_behind, strong, -65.0) \
        == "unfeasible_reflection_angle"
    # angles checked before power: reflection angle wins over weak power
    assert ems_rules(sc, site_ok, roi_behind, weak, -65.0) \
        == "unfeasible_reflection_angle"
    assert ems_rules(sc, site_ok, roi_front, weak, -65.0) \
        == "low_incidence_power"

    away = type(site_ok)(position=site_ok.position, mount="facade",
                         normal=(1.0, 0.0, 0.0),
                         admissible_kinds=site_ok.admissible_kinds)
    assert ems_rules(sc, away, roi_behind, strong, -65.0) \
        == "unfeasible_incident_angle"

    far_roi = _roi(1e7, 50.0)
    assert ems_rules(sc, site_ok, far_roi, strong, -65.0) \
        == "outside_region"


def test_bts_along_normal_passes_angle():
    sc = paper_bts_scenario()
    site = scenario_from_dict({
        "frequency_hz": 3.5e9,
        "grid": {"origin": [0.0, 0.0], "spacing_m": 5.0, "nx": 20, "ny": 20,
                 "height_m": 1.5},
        "bts": {"position": [10.0, 50.0, 18.0],
                "time_instants": [{"sectors": [{
                    "azimuth_deg": 0.0, "downtilt_deg": 2.0,
                    "tx_power_w": 20.0, "max_gain_dbi": 16.3}]}]},
        "buildings": [], "catalog": [],
        "sites": [{"position": [50.0, 50.0, 18.0], "mount": "facade",
                   "normal": [-1.0, 0.0, 0.0]}]}).sites[0]
    # BTS sits exactly along the outward normal: incident angle 0
    verdict = ems_rules(sc, site, _roi(30.0, 50.0), np.array([-30.0]), -65.0)
    assert verdict == ""


def test_ase_verdict_below_sensitivity():
    sc = paper_bts_scenario(catalog=copy.deepcopy(DEFAULT_CATALOG))
    kind = sc.catalog[2]
    site = scenario_from_dict({
        "frequency_hz": 3.5e9,
        "grid": {"origin": [0.0, 0.0], "spacing_m": 5.0, "nx": 20, "ny": 20,
                 "height_m": 1.5},
        "bts": {"position": [10.0, 50.0, 18.0],
                "time_instants": [{"sectors": [{
                    "azimuth_deg": 0.0, "downtilt_deg": 2.0,
                    "tx_power_w": 20.0, "max_gain_dbi": 16.3}]}]},
        "buildings": [], "catalog": [],
        "sites": [{"position": [50.0, 50.0, 6.0], "mount": "pole"}]}).sites[0]
    roi = _roi(70.0, 50.0)
    assert ase_rules(sc, site, roi, kind, np.array([-30.0]), -65.0) == ""
    assert ase_rules(sc, site, roi, kind, np.array([-30.0, -70.0]),
                     -65.0) == "below_sensitivity"


def test_qualify_sites_empty_and_counting(coverable):
    sc = paper_bts_scenario(catalog=copy.deepcopy(DEFAULT_CATALOG))
    report, plan = qualify_sites(sc, [_roi(60.0, 50.0)], -65.0, site_powers(sc))
    assert len(report) == 0
    assert plan.n_sites == 0

    c = coverable
    n, w = c["scenario"].n_sites, len(c["rois"])
    assert len(c["report"]) == n * w * 2
    for row in c["report"]:
        assert isinstance(row, FeasibilityRow)
        assert (row.reason == "") == row.feasible


def test_report_reasons_recompute():
    # Every verdict, feasible or not, equals the rules applied to its triple
    # alone, region membership tested on the one site.  The coverable toy
    # gets a lattice of poles and facades facing three ways, and two far
    # regions, so that every reason occurs.
    from semeplan.analysis import reference_blindspot
    from semeplan.propagation import reference_field
    doc = coverable_toy()
    for x in np.linspace(2.0, 113.0, 7).tolist():
        for y in np.linspace(2.0, 113.0, 7).tolist():
            doc["sites"].append({"position": [x, y, 6.0], "mount": "pole"})
            doc["sites"] += [{"position": [x, y, 6.0], "mount": "facade",
                              "normal": normal}
                             for normal in ([1.0, 0.0, 0.0], [-1.0, 0.0, 0.0],
                                            [0.0, 1.0, 0.0])]
    sc = scenario_from_dict(doc)
    _, blindspot = reference_blindspot(reference_field(sc), sc.wavelength, -65.0)
    far = [Roi(index=w, cells=((), ()), barycenters=(None, None),
               avg_barycenter=(x, 60.0), cell_area=25.0)
           for w, x in ((3, 3000.0), (4, -20000.0))]
    rois = build_rois(blindspot.components, sc.grid) + tuple(far)
    assert [r.index for r in rois] == [1, 2, 3, 4]
    incident = site_powers(sc)
    report, _ = qualify_sites(sc, rois, -65.0, incident)
    active = [k for k in sc.catalog if k.is_active]
    for row in report:
        site, roi = sc.sites[row.site], rois[row.roi - 1]
        if row.kind_class == "EMS":
            reason = ems_rules(sc, site, roi, incident[:, row.site], -65.0)
        else:
            reasons = [ase_rules(sc, site, roi, kind, incident[:, row.site], -65.0)
                       for kind in active]
            reason = "" if "" in reasons else reasons[0]
        assert (row.feasible, row.reason) == (reason == "", reason)
    assert {(row.kind_class, row.reason) for row in report} == {
        ("EMS", ""), ("EMS", "outside_region"), ("EMS", "unfeasible_incident_angle"),
        ("EMS", "unfeasible_reflection_angle"), ("EMS", "low_incidence_power"),
        ("ASE", ""), ("ASE", "outside_region"), ("ASE", "below_sensitivity")}


def test_region_grows_with_tx_power():
    low = paper_bts_scenario(tx_power_w=5.0)
    high = paper_bts_scenario(tx_power_w=50.0)
    roi = _roi(80.0, 50.0)
    rng = np.random.default_rng(5)
    pts = rng.uniform(-3e4, 3e4, size=(4000, 3))
    inside_low = ems_region(low, roi, -65.0)(pts)
    inside_high = ems_region(high, roi, -65.0)(pts)
    assert (inside_high | ~inside_low).all()  # low region contained in high


def test_build_rois_time_matching():
    grid = scenario_from_dict({
        "frequency_hz": 3.5e9,
        "grid": {"origin": [0.0, 0.0], "spacing_m": 5.0, "nx": 10, "ny": 10,
                 "height_m": 1.5},
        "bts": {"position": [1.0, 1.0, 10.0],
                "time_instants": [{"sectors": [{
                    "azimuth_deg": 0.0, "downtilt_deg": 2.0,
                    "tx_power_w": 20.0, "max_gain_dbi": 16.3}]}]},
    }).grid
    comp_a_t0 = ((1, 1), (1, 2), (2, 1), (2, 2))
    comp_b_t0 = ((7, 7), (7, 8), (8, 7), (8, 8))
    comp_a_t1 = ((1, 2), (1, 3), (2, 2), (2, 3))  # overlaps A
    comp_c_t1 = ((5, 0), (5, 1), (6, 0), (6, 1))  # brand new
    rois = build_rois([[comp_a_t0, comp_b_t0], [comp_a_t1, comp_c_t1]], grid)
    assert len(rois) == 3
    a, b, c = rois
    assert a.cells == (comp_a_t0, comp_a_t1)
    assert b.cells == (comp_b_t0, ())
    assert c.cells == ((), comp_c_t1)
    assert b.barycenters[1] is None
    # average barycenter over existing instants only: x means 7.5 then 12.5
    assert a.avg_barycenter[0] == pytest.approx((7.5 + 12.5) / 2.0)
    assert b.avg_barycenter == b.barycenters[0]
    assert c.target_points(1.5)[0][0] == pytest.approx(c.avg_barycenter[0])
    # a component overlapping two chains joins the larger overlap, and the
    # other chain vanishes
    joined = comp_a_t1 + ((7, 7),)
    a, b = build_rois([[comp_a_t0, comp_b_t0], [joined]], grid)
    assert a.cells == (comp_a_t0, joined)
    assert b.cells == (comp_b_t0, ())


# Lattice coordinates shared by the base station (50, 50), the sites and the
# region barycenters, so that a site often lines up with either; 3000 puts a
# region out of every device's reach.
_COORDS = [0.0, 10.0, 40.0, 50.0, 60.0, 90.0, 100.0]
# Unit normals whose products with lattice directions are exact, so that a
# normal is often exactly perpendicular to the direction to the base station
# or to a region: along an axis when the site shares that coordinate, along
# a diagonal when its offsets have equal size.
_NORMALS = [[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, -1.0, 0.0],
            [1.0, 1.0, 0.0], [1.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [-1.0, -1.0, 0.0]]


@st.composite
def site_layouts(draw):
    """A two-instant scenario with facade and pole sites on the lattice,
    regions, a threshold and the base station's power at every site."""
    sites = []
    for _ in range(draw(st.integers(0, 8))):
        site = {"position": [draw(st.sampled_from(_COORDS)),
                             draw(st.sampled_from(_COORDS)),
                             draw(st.sampled_from([6.0, 12.0]))],
                "mount": draw(st.sampled_from(["facade", "pole"]))}
        if site["mount"] == "facade":
            site["normal"] = draw(st.sampled_from(_NORMALS))
        sites.append(site)
    sector = {"azimuth_deg": 0.0, "downtilt_deg": 2.0, "tx_power_w": 20.0,
              "max_gain_dbi": 16.3}
    sc = scenario_from_dict({
        "frequency_hz": 3.5e9,
        "grid": {"origin": [0.0, 0.0], "spacing_m": 10.0, "nx": 11, "ny": 11,
                 "height_m": 1.5},
        "bts": {"position": [50.0, 50.0, 18.0],
                "time_instants": [{"sectors": [sector]}, {"sectors": [sector]}]},
        "buildings": [], "catalog": copy.deepcopy(DEFAULT_CATALOG), "sites": sites})
    place = st.sampled_from(_COORDS + [3000.0])
    rois = [_roi(draw(place), draw(place), index=w)
            for w in range(1, draw(st.integers(1, 3)) + 1)]
    power = st.sampled_from([-90.0, -66.0, -65.0, -61.0, -60.0, -40.0])
    incident = np.array([[draw(power) for _ in sites] for _ in range(2)]).reshape(2, -1)
    return sc, rois, draw(st.sampled_from([-65.0, -30.0, -15.0])), incident


@given(site_layouts())
def test_qualify_sites_equals_the_per_triple_oracle(layout):
    sc, rois, pth_dbm, incident = layout
    assert qualify_sites(sc, rois, pth_dbm, incident) \
        == oracle.qualify_sites(sc, rois, pth_dbm, incident)
