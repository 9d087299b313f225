"""Reference site qualification: one verdict function per (site, region)
or (site, region, kind) triple, applied one triple at a time.

`siteplanner.qualify_sites` judges every triple at once from one ordered
rule table per region, and must give the same rows and the same site plan.
"""
from typing import Sequence

import numpy as np

from semeplan.siteplanner import FeasibilityRow, SitePlan, ase_region, ems_region


def _angle_deg(v1, v2) -> float:
    v1 = np.asarray(v1, dtype=float)
    v2 = np.asarray(v2, dtype=float)
    cosang = np.dot(v1, v2) / (np.linalg.norm(v1) * np.linalg.norm(v2))
    return float(np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0))))


def ems_site_verdict(scenario, site, roi, inside: bool, incident_dbm: np.ndarray,
                     pth_dbm: float) -> str:
    """First failing passive-skin rule, or "" when the site is feasible.

    `inside` tells whether the site lies in the region's `ems_region`.
    Rule order: region membership, incidence angle, reflection angle,
    incident power.  Pole sites carry no wall, so the angle rules do not
    apply to them.
    """
    if not inside:
        return "outside_region"
    position = np.asarray(site.position, dtype=float)
    if site.mount == "facade":
        normal = np.asarray(site.normal, dtype=float)
        to_bts = np.asarray(scenario.bts.position, dtype=float) - position
        if _angle_deg(normal, to_bts) >= 90.0:
            return "unfeasible_incident_angle"
        bx, by = roi.avg_barycenter
        to_roi = np.array([bx, by, scenario.grid.height]) - position
        if _angle_deg(normal, to_roi) >= 90.0:
            return "unfeasible_reflection_angle"
    if bool((incident_dbm < pth_dbm).any()):
        return "low_incidence_power"
    return ""


def ase_site_verdict(kind, inside: bool, incident_dbm: np.ndarray) -> str:
    """First failing active-device rule, or "" when the site is feasible;
    `inside` tells whether the site lies in the region's `ase_region`."""
    if not inside:
        return "outside_region"
    if bool((incident_dbm < kind.sensitivity_dbm).any()):
        return "below_sensitivity"
    return ""


def qualify_sites(scenario, rois: Sequence, pth_dbm: float, incident_dbm: np.ndarray):
    """The feasibility rows and site plan, one triple at a time; region
    membership is tested on each site alone."""
    active = [(s, k) for s, k in enumerate(scenario.catalog, start=1) if k.is_active]
    rows, ems_ok, ase_ok = [], {}, {}
    for n, site in enumerate(scenario.sites):
        position = np.asarray(site.position, dtype=float)
        for roi in rois:
            inside = bool(ems_region(scenario, roi, pth_dbm)(position))
            reason = ems_site_verdict(scenario, site, roi, inside,
                                      incident_dbm[:, n], pth_dbm)
            ems_ok[(n, roi.index)] = reason == ""
            rows.append(FeasibilityRow(n, roi.index, "EMS", reason == "", reason))
            reasons = []
            for s, kind in active:
                inside = bool(ase_region(scenario, roi, kind, pth_dbm)(position))
                reasons.append(ase_site_verdict(kind, inside, incident_dbm[:, n]))
                ase_ok[(n, roi.index, s)] = reasons[-1] == ""
            reason = "" if "" in reasons else (reasons + ["outside_region"])[0]
            rows.append(FeasibilityRow(n, roi.index, "ASE", reason == "", reason))
    assignments = []
    for n, site in enumerate(scenario.sites):
        pos_xy = np.asarray(site.position, dtype=float)[:2]
        entries = []
        for s in scenario.admissible_kind_values(n):
            ok = [r for r in rois
                  if (ems_ok[(n, r.index)] if scenario.catalog[s - 1].is_passive
                      else ase_ok[(n, r.index, s)])]
            if ok:
                target = min(ok, key=lambda r: (
                    float(np.linalg.norm(pos_xy - np.asarray(r.avg_barycenter))),
                    r.index))
                entries.append((s, target.index))
        assignments.append(tuple(entries))
    return tuple(rows), SitePlan(tuple(assignments))
