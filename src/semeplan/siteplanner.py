"""Deployable-region computation and candidate-site qualification.

Passive skins must sit inside an ellipse whose foci are the base station
and the region-of-interest barycenter (total single-bounce path within the
free-space range budget), and must pass incidence/reflection angle and
incident-power rules.  Active devices must sit in the intersection of a
visibility disk around the base station and a reach disk around the
region, and must clear their sensitivity threshold.
"""
from __future__ import annotations

from typing import Callable, NamedTuple, Sequence

import numpy as np

from .csvfile import write_csv, write_grid_csv
from .scenario import GridSpec, Scenario, ScenarioError, SeeType
from .units import dbm_to_watts


class Roi(NamedTuple):
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


def _reach(scenario: Scenario, eirp_w: float, p_min_dbm: float) -> float:
    """Free-space distance (m) at which `eirp_w` falls to `p_min_dbm`."""
    p_min_w = float(dbm_to_watts(p_min_dbm))
    return scenario.wavelength / (4.0 * np.pi) * np.sqrt(eirp_w / p_min_w)


def max_single_hop_range(scenario: Scenario, pth_dbm: float) -> float:
    """Largest total bounce path (m) that still meets the power threshold.

    Free-space budget with the maximum sector gain and transmit power.
    """
    g_tx = 10.0 ** (scenario.bts.max_gain_dbi / 10.0)
    return _reach(scenario, scenario.bts.max_tx_power_w * g_tx, pth_dbm)


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
    focus_b = (*roi.avg_barycenter, scenario.grid.height)

    def inside(points) -> np.ndarray:
        return path_within_reach(points, scenario.bts.position, focus_b, reach)

    return inside


def ase_radii(scenario: Scenario, kind: SeeType,
              pth_dbm: float) -> tuple[float, float]:
    """(visibility radius around the BTS, reach radius around the region).

    A radius that overflows raises ScenarioError naming the kind's values.
    """
    if not kind.is_active:
        raise ValueError(f"ase_radii needs an active kind, got {kind.kind}")
    try:
        g_ase = 10.0 ** (kind.gain_dbi / 10.0)
        g_tx = 10.0 ** (scenario.bts.max_gain_dbi / 10.0)
        rho_bts = _reach(scenario, scenario.bts.max_tx_power_w * g_tx * g_ase,
                         kind.sensitivity_dbm)
        rho_roi = _reach(scenario, float(dbm_to_watts(kind.tx_power_dbm)) * g_ase,
                         pth_dbm)
    except (OverflowError, ZeroDivisionError):
        rho_bts = rho_roi = np.inf
    if not np.isfinite([rho_bts, rho_roi]).all():
        raise ScenarioError(
            f"catalog kind {kind.kind} (gain_dbi {kind.gain_dbi!r}, tx_power_dbm "
            f"{kind.tx_power_dbm!r}, sensitivity_dbm {kind.sensitivity_dbm!r}): "
            "its region radius is not finite")
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
# Qualification


class FeasibilityRow(NamedTuple):
    site: int        # 0-based site index
    roi: int         # 1-based region index
    kind_class: str  # "EMS" or "ASE"
    feasible: bool
    reason: str      # empty when feasible


class SitePlan(NamedTuple):
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
                  incident_dbm: np.ndarray
                  ) -> tuple[tuple[FeasibilityRow, ...], SitePlan]:
    """Evaluate every (site, region, class) triple and build the site plan.

    Per region, one table lists each class's rules in the order they are
    checked, each a mask over the sites; a verdict names the first rule the
    site breaks.  EMS: region, incidence angle, reflection angle (pole sites
    carry no wall and pass both), incident power.  Each active kind: region,
    sensitivity; the ASE class is feasible when one kind is, and otherwise
    takes the first kind's reason.  The report holds a verdict per triple
    whatever the site admits; the plan intersects feasibility with each
    site's admissible kinds and aims every retained (site, kind) at its
    nearest feasible region.  `incident_dbm` is the BTS power at every
    site, (T, n_sites) in dBm, as `propagation.point_power_dbm` gives it.
    """
    sites = scenario.sites
    positions = np.asarray([s.position for s in sites], float).reshape(-1, 3)
    facades = [n for n, site in enumerate(sites) if site.mount == "facade"]
    normals = np.asarray([sites[n].normal for n in facades], float).reshape(-1, 3)

    def faces_away(point) -> np.ndarray:
        """Facade sites whose outward normal is 90 degrees or more off the
        direction to `point`."""
        to_point = np.asarray(point, dtype=float) - positions[facades]
        cosang = (normals * to_point).sum(axis=1) / (
            np.linalg.norm(normals, axis=1) * np.linalg.norm(to_point, axis=1))
        away = np.zeros(len(sites), dtype=bool)
        away[facades] = np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0))) >= 90.0
        return away

    active = [(s, k) for s, k in enumerate(scenario.catalog, start=1) if k.is_active]
    bts_away = faces_away(scenario.bts.position)
    weak = (incident_dbm < pth_dbm).any(axis=0)
    verdicts = []  # per region: the EMS verdicts, then each active kind's
    for roi in rois:
        table = [[(~ems_region(scenario, roi, pth_dbm)(positions), "outside_region"),
                  (bts_away, "unfeasible_incident_angle"),
                  (faces_away((*roi.avg_barycenter, scenario.grid.height)),
                   "unfeasible_reflection_angle"),
                  (weak, "low_incidence_power")]]
        table += [[(~ase_region(scenario, roi, kind, pth_dbm)(positions),
                    "outside_region"),
                   ((incident_dbm < kind.sensitivity_dbm).any(axis=0),
                    "below_sensitivity")] for _, kind in active]
        verdicts.append([np.select(*zip(*rules), "").tolist() for rules in table])

    rows = []
    for n in range(len(sites)):
        for roi, (ems, *kinds) in zip(rois, verdicts):
            ase = [reasons[n] for reasons in kinds]
            ase_reason = "" if "" in ase else next(iter(ase), "outside_region")
            rows += [FeasibilityRow(n, roi.index, "EMS", ems[n] == "", ems[n]),
                     FeasibilityRow(n, roi.index, "ASE", ase_reason == "", ase_reason)]

    table_row = {s: k for k, (s, _) in enumerate(active, start=1)}  # passive: 0
    assignments = []
    for n in range(len(sites)):
        pos_xy = positions[n, :2]
        distance = {r.index: float(np.linalg.norm(pos_xy - np.asarray(r.avg_barycenter)))
                    for r in rois}
        entries = []
        for s in scenario.admissible_kind_values(n):
            feasible_rois = [r for r, v in zip(rois, verdicts)
                             if v[table_row.get(s, 0)][n] == ""]
            if feasible_rois:
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
