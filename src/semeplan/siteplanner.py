"""Deployable-region computation and candidate-site qualification.

Passive skins must sit inside an ellipse whose foci are the base station
and the region-of-interest barycenter (total single-bounce path within the
free-space range budget), and must pass incidence/reflection angle and
incident-power rules.  Active devices must sit in the intersection of a
visibility disk around the base station and a reach disk around the
region, and must clear their sensitivity threshold.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import propagation
from .csvfile import write_csv, write_grid_csv
from .scenario import CandidateSite, GridSpec, Scenario, SeeType
from .units import dbm_to_watts


@dataclass(frozen=True)
class Roi:
    """One region of interest tracked across time instants.

    `cells` holds the (iy, ix) grid cells per instant; an empty tuple
    marks instants where the region vanishes.  The average barycenter is
    the arithmetic mean of the per-instant barycenters that exist.
    """
    index: int  # 1-based
    cells: tuple[tuple[tuple[int, int], ...], ...]
    barycenters: tuple[tuple[float, float] | None, ...]
    avg_barycenter: tuple[float, float]
    cell_area: float

    def target_points(self, height: float) -> np.ndarray:
        """Per-instant aim points at the given height, (T, 3).

        Instants where the region vanishes fall back to the average
        barycenter.
        """
        pts = []
        for b in self.barycenters:
            b = b if b is not None else self.avg_barycenter
            pts.append((b[0], b[1], height))
        return np.asarray(pts, dtype=float)


def _barycenter(cells: Sequence[tuple[int, int]], grid: GridSpec):
    if not cells:
        return None
    arr = np.asarray(cells, dtype=float)
    x, y = grid.cell_xy(arr[:, 0], arr[:, 1])
    return (float(x.mean()), float(y.mean()))


def build_rois(components_per_t: Sequence[Sequence[Sequence[tuple[int, int]]]],
               grid: GridSpec) -> tuple[Roi, ...]:
    """Match per-instant connected components into time-tracked regions.

    Components at consecutive instants are paired greedily by cell
    overlap (largest first); anything unmatched starts its own region
    with empty cell sets at the other instants.
    """
    t_count = len(components_per_t)
    chains: list[list[tuple[tuple[int, int], ...]]] = []
    for comp in components_per_t[0] if t_count else []:
        chains.append([tuple(comp)])
    for t in range(1, t_count):
        comps = [tuple(c) for c in components_per_t[t]]
        comp_sets = [frozenset(c) for c in comps]
        chain_sets = [frozenset(chain[-1]) if chain[-1] else frozenset()
                      for chain in chains]
        pairs = []
        for ci, cs in enumerate(chain_sets):
            for ki, ks in enumerate(comp_sets):
                overlap = len(cs & ks)
                if overlap > 0:
                    pairs.append((-overlap, ci, ki))
        pairs.sort()
        used_chain, used_comp = set(), set()
        matched = {}
        for _, ci, ki in pairs:
            if ci in used_chain or ki in used_comp:
                continue
            used_chain.add(ci)
            used_comp.add(ki)
            matched[ci] = ki
        for ci, chain in enumerate(chains):
            chain.append(comps[matched[ci]] if ci in matched else ())
        for ki, comp in enumerate(comps):
            if ki not in used_comp:
                chains.append([()] * t + [comp])
    rois = []
    for w, chain in enumerate(chains, start=1):
        barys = tuple(_barycenter(c, grid) for c in chain)
        present = [b for b in barys if b is not None]
        avg = (float(np.mean([b[0] for b in present])),
               float(np.mean([b[1] for b in present])))
        rois.append(Roi(index=w, cells=tuple(chain), barycenters=barys,
                        avg_barycenter=avg, cell_area=grid.cell_area))
    return tuple(rois)


# ---------------------------------------------------------------------------
# Region predicates


def max_single_hop_range(scenario: Scenario, pth_dbm: float) -> float:
    """Largest total bounce path (m) that still meets the power threshold.

    Free-space budget with the maximum sector gain and transmit power.
    """
    g_tx = 10.0 ** (scenario.bts.max_gain_dbi / 10.0)
    p_th = float(dbm_to_watts(pth_dbm))
    return scenario.wavelength / (4.0 * np.pi) * np.sqrt(
        scenario.bts.max_tx_power_w * g_tx / p_th)


def path_within_reach(points, focus_a, focus_b, reach: float) -> np.ndarray:
    """True where dist(p, focus_a) + dist(p, focus_b) <= reach (an ellipse)."""
    p = np.asarray(points, dtype=float)
    a = np.asarray(focus_a, dtype=float)
    b = np.asarray(focus_b, dtype=float)
    d = np.linalg.norm(p - a, axis=-1) + np.linalg.norm(p - b, axis=-1)
    return d <= reach


def ems_region(scenario: Scenario, roi: Roi,
               pth_dbm: float) -> Callable[[np.ndarray], np.ndarray]:
    """Ellipse membership test for passive-skin sites (boundary included).

    The returned predicate takes (..., 3) points and checks that the path
    base station -> point -> region barycenter fits the range budget.
    """
    reach = max_single_hop_range(scenario, pth_dbm)
    focus_a = np.asarray(scenario.bts.position, dtype=float)
    bx, by = roi.avg_barycenter
    focus_b = np.array([bx, by, scenario.grid.height])

    def inside(points) -> np.ndarray:
        return path_within_reach(points, focus_a, focus_b, reach)

    return inside


def ase_radii(scenario: Scenario, kind: SeeType,
              pth_dbm: float) -> tuple[float, float]:
    """(visibility radius around the BTS, reach radius around the region)."""
    if not kind.is_active:
        raise ValueError(f"ase_radii needs an active kind, got {kind.kind}")
    lam = scenario.wavelength
    g_ase = 10.0 ** (kind.gain_dbi / 10.0)
    g_tx = 10.0 ** (scenario.bts.max_gain_dbi / 10.0)
    p_sense = float(dbm_to_watts(kind.sensitivity_dbm))
    p_th = float(dbm_to_watts(pth_dbm))
    p_ase = float(dbm_to_watts(kind.tx_power_dbm))
    rho_bts = lam / (4.0 * np.pi) * np.sqrt(
        scenario.bts.max_tx_power_w * g_tx * g_ase / p_sense)
    rho_roi = lam / (4.0 * np.pi) * np.sqrt(p_ase * g_ase / p_th)
    return float(rho_bts), float(rho_roi)


def ase_region(scenario: Scenario, roi: Roi, kind: SeeType,
               pth_dbm: float) -> Callable[[np.ndarray], np.ndarray]:
    """Two-disk intersection test for active-device sites (geometry only)."""
    rho_bts, rho_roi = ase_radii(scenario, kind, pth_dbm)
    center_a = np.asarray(scenario.bts.position, dtype=float)
    bx, by = roi.avg_barycenter
    center_b = np.array([bx, by, scenario.grid.height])

    def inside(points) -> np.ndarray:
        p = np.asarray(points, dtype=float)
        return (np.linalg.norm(p - center_a, axis=-1) <= rho_bts) \
            & (np.linalg.norm(p - center_b, axis=-1) <= rho_roi)

    return inside


def region_raster(predicate, grid: GridSpec) -> np.ndarray:
    """Sample a region predicate on the grid, (ny, nx) booleans."""
    return np.asarray(predicate(grid.centers())).reshape(grid.ny, grid.nx)


# ---------------------------------------------------------------------------
# Per-site verdicts


def _angle_deg(v1, v2) -> float:
    v1 = np.asarray(v1, dtype=float)
    v2 = np.asarray(v2, dtype=float)
    cosang = np.dot(v1, v2) / (np.linalg.norm(v1) * np.linalg.norm(v2))
    return float(np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0))))


def ems_site_verdict(scenario: Scenario, site: CandidateSite, roi: Roi,
                     inside: bool, incident_dbm: np.ndarray, pth_dbm: float) -> str:
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
        if site.normal is None:
            raise ValueError("facade site is missing its outward wall normal")
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


def ase_site_verdict(kind: SeeType, inside: bool,
                     incident_dbm: np.ndarray) -> str:
    """First failing active-device rule, or "" when the site is feasible;
    `inside` tells whether the site lies in the region's `ase_region`."""
    if not inside:
        return "outside_region"
    if bool((incident_dbm < kind.sensitivity_dbm).any()):
        return "below_sensitivity"
    return ""


# ---------------------------------------------------------------------------
# Qualification


@dataclass(frozen=True)
class FeasibilityRow:
    site: int        # 0-based site index
    roi: int         # 1-based region index
    kind_class: str  # "EMS" or "ASE"
    feasible: bool
    reason: str      # empty when feasible


@dataclass(frozen=True)
class SitePlan:
    """Feasible gene values per site and the region each pair serves.

    `assignments[n]` lists (gene value, roi index) pairs, sorted by gene
    value; gene value s maps to catalog entry s-1.
    """
    assignments: tuple[tuple[tuple[int, int], ...], ...]

    @property
    def n_sites(self) -> int:
        return len(self.assignments)

    def kind_values(self, site: int) -> tuple[int, ...]:
        return tuple(s for s, _ in self.assignments[site])

    def alphabets(self) -> tuple[tuple[int, ...], ...]:
        """Per-site gene alphabets including the no-device value 0."""
        return tuple((0,) + self.kind_values(n) for n in range(self.n_sites))

    def db_assignments(self, rois: Sequence[Roi], height: float) -> dict:
        by_index = {r.index: r for r in rois}
        return {(n, s): by_index[w].target_points(height)
                for n in range(self.n_sites)
                for s, w in self.assignments[n]}

    def to_jsonable(self) -> list:
        return [[[s, w] for s, w in site] for site in self.assignments]

    @classmethod
    def from_jsonable(cls, data) -> "SitePlan":
        return cls(assignments=tuple(
            tuple((int(s), int(w)) for s, w in site) for site in data))


def qualify_sites(scenario: Scenario, rois: Sequence[Roi], pth_dbm: float,
                  *, wall_loss_db: float = propagation.DEFAULT_WALL_LOSS_DB
                  ) -> tuple[tuple[FeasibilityRow, ...], SitePlan]:
    """Evaluate every (site, region, class) triple and build the site plan.

    The report carries one verdict per triple regardless of what the site
    operator allows there; the plan intersects location feasibility with
    each site's admissible kinds and aims every retained (site, kind) at
    its nearest feasible region.
    """
    active_kinds = [(s, k) for s, k in enumerate(scenario.catalog, start=1)
                    if k.is_active]
    positions = np.asarray([s.position for s in scenario.sites], float).reshape(-1, 3)
    incident = propagation.point_power_dbm(scenario, positions,
                                           wall_loss_db=wall_loss_db)
    # Region membership of every site at once, per region and per kind
    ems_inside = {roi.index: ems_region(scenario, roi, pth_dbm)(positions).tolist()
                  for roi in rois}
    ase_inside = {(roi.index, s): ase_region(scenario, roi, kind, pth_dbm)(
        positions).tolist() for roi in rois for s, kind in active_kinds}

    rows: list[FeasibilityRow] = []
    ems_ok: dict[tuple[int, int], bool] = {}
    ase_ok: dict[tuple[int, int, int], bool] = {}
    for n, site in enumerate(scenario.sites):
        site_incident = incident[:, n]
        for roi in rois:
            reason = ems_site_verdict(scenario, site, roi, ems_inside[roi.index][n],
                                      site_incident, pth_dbm)
            ems_ok[(n, roi.index)] = reason == ""
            rows.append(FeasibilityRow(site=n, roi=roi.index, kind_class="EMS",
                                       feasible=reason == "", reason=reason))
            class_reason = None
            feasible = False
            for s, kind in active_kinds:
                k_reason = ase_site_verdict(kind, ase_inside[(roi.index, s)][n],
                                            site_incident)
                ase_ok[(n, roi.index, s)] = k_reason == ""
                if k_reason == "":
                    feasible = True
                elif class_reason is None:
                    class_reason = k_reason
            rows.append(FeasibilityRow(
                site=n, roi=roi.index, kind_class="ASE", feasible=feasible,
                reason="" if feasible else (class_reason or "outside_region")))

    assignments = []
    for n, site in enumerate(scenario.sites):
        pos_xy = positions[n, :2]
        distance = {r.index: float(np.linalg.norm(pos_xy - np.asarray(r.avg_barycenter)))
                    for r in rois}
        entries = []
        for s in scenario.admissible_kind_values(n):
            kind = scenario.catalog[s - 1]
            if kind.is_passive:
                feasible_rois = [r for r in rois if ems_ok[(n, r.index)]]
            else:
                feasible_rois = [r for r in rois if ase_ok[(n, r.index, s)]]
            if not feasible_rois:
                continue
            target = min(feasible_rois, key=lambda r: (distance[r.index], r.index))
            entries.append((s, target.index))
        assignments.append(tuple(entries))
    return tuple(rows), SitePlan(tuple(assignments))


def write_feasibility_csv(report: Sequence[FeasibilityRow], path,
                          header_lines: Sequence[str] = ()) -> None:
    """CSV rows (site_id, roi, class, verdict, reason); site ids are 1-based."""
    write_csv(path, header_lines,
              ["site_id", "roi", "kind_class", "verdict", "reason"],
              ((str(row.site + 1), str(row.roi), row.kind_class,
                "feasible" if row.feasible else "excluded", row.reason)
               for row in report))


def write_region_raster_csv(mask: np.ndarray, grid: GridSpec, path,
                            header_lines: Sequence[str] = ()) -> None:
    write_grid_csv(path, header_lines, grid, "inside",
                   np.where(mask.ravel(), "1", "0").tolist())
