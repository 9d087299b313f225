"""Post-processing: blind-spot extraction, CDFs, representative solutions,
difference-map statistics, and the CSV tables built from them."""
from __future__ import annotations

import itertools
import math
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .csvfile import write_csv
from .nsga2 import ArchiveEntry
from .objectives import deployment_totals
from .propagation import fields_to_power_watts
from .scenario import SeeType
from .siteplanner import Roi
from .units import watts_to_dbm

REPRESENTATIVE_NAMES = ("best_coverage", "best_compromise",
                        "coverage_cost", "coverage_energy")


class BlindSpot(NamedTuple):
    """Regions of the cells below the power threshold, per instant.

    `components[t]` holds the 8-connected regions of failing cells at t
    with at least the `min_cells` that `extract_blindspot` was given,
    labeled in row-major order of their first cell.
    """
    components: tuple[tuple[tuple[tuple[int, int], ...], ...], ...]

    @property
    def time_instants(self) -> int:
        return len(self.components)

    def region_cells(self, t: int) -> np.ndarray:
        """Union of the filtered regions at t, as an (k, 2) array of (iy, ix)."""
        cells = [c for comp in self.components[t] for c in comp]
        return np.asarray(cells, dtype=int).reshape(-1, 2)

    def cells_per_t(self) -> list[np.ndarray]:
        return [self.region_cells(t) for t in range(self.time_instants)]


def _label_components(mask: np.ndarray, min_cells: int):
    """8-connected regions of at least `min_cells` cells, each its sorted
    cells; the row-major scan meets them in the order of their first cell."""
    ys, xs = np.nonzero(mask)
    scan = list(zip(ys.tolist(), xs.tolist()))
    unseen = set(scan)
    comps = []
    for start in scan:
        if start not in unseen:
            continue
        unseen.remove(start)
        cells, stack = [], [start]
        while stack:
            y, x = stack.pop()
            cells.append((y, x))
            for near in itertools.product((y - 1, y, y + 1), (x - 1, x, x + 1)):
                if near in unseen:
                    unseen.remove(near)
                    stack.append(near)
        if len(cells) >= min_cells:
            comps.append(tuple(sorted(cells)))
    return tuple(comps)


def extract_blindspot(power_dbm: np.ndarray, pth_dbm: float,
                      min_cells: int = 4) -> BlindSpot:
    """Blind spot of a (T, ny, nx) power map: cells strictly below threshold."""
    power_dbm = np.asarray(power_dbm, dtype=float)
    if power_dbm.ndim != 3:
        raise ValueError("power map must have shape (T, ny, nx)")
    return BlindSpot(tuple(_label_components(below, min_cells)
                           for below in power_dbm < pth_dbm))


def reference_blindspot(reference: np.ndarray, wavelength: float, pth_dbm: float,
                        min_cells: int = 4) -> tuple[np.ndarray, BlindSpot]:
    """(T, ny, nx) dBm power of a reference field and its blind spot."""
    power = np.stack([watts_to_dbm(fields_to_power_watts(values, wavelength))
                      for values in reference])
    return power, extract_blindspot(power, pth_dbm, min_cells=min_cells)


def empirical_cdf(values: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """Fraction of values <= each threshold."""
    values = np.sort(np.asarray(values, dtype=float))
    if len(values) == 0:
        raise ValueError("empirical_cdf needs at least one value")
    idx = np.searchsorted(values, np.asarray(thresholds, dtype=float),
                          side="right")
    return idx / len(values)


def coverage_cdf(power_dbm: np.ndarray, blindspot: BlindSpot, t: int,
                 thresholds) -> np.ndarray:
    """CDF of a deployment's (ny, nx) dBm map at instant t over the
    reference blind spot.

    The region is fixed to the reference blind spot so curves for
    different deployments share a domain.
    """
    cells = blindspot.region_cells(t)
    if len(cells) == 0:
        raise ValueError(f"blind spot is empty at instant {t}")
    return empirical_cdf(power_dbm[cells[:, 0], cells[:, 1]], thresholds)


# ---------------------------------------------------------------------------
# Representative front members


def _argmin_entry(archive: Sequence[ArchiveEntry], score) -> ArchiveEntry:
    # min() keeps the first of equal keys, so archive order breaks ties
    return min(archive, key=lambda e: (score(e.objectives), *e.objectives[:2]))


def select_representatives(archive: Sequence[ArchiveEntry]) -> dict[str, ArchiveEntry]:
    """Flag the four standard trade-off picks from the front.

    best_coverage minimizes the coverage deficit alone; best_compromise
    minimizes the Manhattan sum of all three objectives; coverage_cost
    and coverage_energy drop the energy and cost terms respectively.
    Ties break on lowest coverage deficit, then lowest cost, then archive
    order.
    """
    if len(archive) == 0:
        raise ValueError("archive is empty")
    return {
        "best_coverage": _argmin_entry(archive, lambda o: o[0]),
        "best_compromise": _argmin_entry(
            archive, lambda o: abs(o[0]) + abs(o[1]) + abs(o[2])),
        "coverage_cost": _argmin_entry(archive, lambda o: abs(o[0]) + abs(o[1])),
        "coverage_energy": _argmin_entry(archive, lambda o: abs(o[0]) + abs(o[2])),
    }


# ---------------------------------------------------------------------------
# Reduction statistics


class RoiReduction(NamedTuple):
    roi: int
    t: int
    area_ref_m2: float
    area_m2: float          # reference cells still uncovered under the deployment
    reduction_pct: float
    gain_min_db: float      # improvement = P(deployment) - P(reference)
    gain_max_db: float
    gain_avg_db: float


def reduction_stats(ref_power: np.ndarray, new_power: np.ndarray,
                    rois: Sequence[Roi], pth_dbm: float) -> list[RoiReduction]:
    """Per-(region, instant) area reduction and difference-map statistics.

    Area under the deployment counts the reference-region cells still
    below threshold, so the reduction lies in [0, 100] percent.
    """
    out = []
    for roi in rois:
        for t, cells in enumerate(roi.cells):
            if not cells:
                continue
            idx = np.asarray(cells, dtype=int)
            ref = ref_power[t][idx[:, 0], idx[:, 1]]
            new = new_power[t][idx[:, 0], idx[:, 1]]
            area_ref = len(cells) * roi.cell_area
            still_blind = int((new < pth_dbm).sum())
            area_new = still_blind * roi.cell_area
            gain = new - ref
            out.append(RoiReduction(
                roi=roi.index, t=t,
                area_ref_m2=area_ref, area_m2=area_new,
                reduction_pct=100.0 * (area_ref - area_new) / area_ref,
                gain_min_db=float(gain.min()),
                gain_max_db=float(gain.max()),
                gain_avg_db=float(gain.mean()),
            ))
    return out


# ---------------------------------------------------------------------------
# Report tables


def write_solution_table(representatives: Mapping[str, ArchiveEntry],
                         catalog: Sequence[SeeType], path,
                         header_lines: Sequence[str] = (),
                         coverage_units: str = "m2") -> None:
    """One row per named front member: its objectives, device count per
    catalog kind, and installed cost and energy."""
    kinds = list(dict.fromkeys(k.kind for k in catalog))
    columns = (["solution", "coverage_deficit", "coverage_units",
                "cost_fraction", "energy_fraction", "n_devices"]
               + [f"n_{k}" for k in kinds] + ["total_cost", "total_energy_w",
                                              "genes"])
    rows = []
    for name, entry in representatives.items():
        deployed = [catalog[s - 1].kind for s in entry.genes if s > 0]
        cost, energy = deployment_totals(entry.genes, catalog)
        rows.append([name, repr(entry.objectives[0]), coverage_units,
                     repr(entry.objectives[1]), repr(entry.objectives[2]),
                     str(len(deployed))]
                    + [str(deployed.count(k)) for k in kinds]
                    + [repr(cost), repr(energy),
                       ";".join(str(g) for g in entry.genes)])
    write_csv(path, header_lines, columns, rows)


def write_reduction_table(stats_by_solution: Mapping[str, Sequence[RoiReduction]],
                          path, header_lines: Sequence[str] = ()) -> None:
    """Difference-map table; gain columns are positive for improvements,
    drop columns carry the opposite (reference minus deployment) sign."""
    columns = ["solution", "roi", "t", "area_ref_m2", "area_m2",
               "reduction_pct", "gain_min_db", "gain_max_db", "gain_avg_db",
               "drop_min_db", "drop_max_db", "drop_avg_db"]
    rows = []
    for name, stats in stats_by_solution.items():
        for r in stats:
            rows.append([name, str(r.roi), str(r.t + 1), repr(r.area_ref_m2),
                         repr(r.area_m2), repr(r.reduction_pct),
                         repr(r.gain_min_db), repr(r.gain_max_db),
                         repr(r.gain_avg_db), repr(-r.gain_max_db),
                         repr(-r.gain_min_db), repr(-r.gain_avg_db)])
    write_csv(path, header_lines, columns, rows)


def write_cdf_csv(thresholds: np.ndarray, probabilities: np.ndarray, path,
                  header_lines: Sequence[str] = ()) -> None:
    rows = [[repr(float(p)), repr(float(c))]
            for p, c in zip(thresholds, probabilities)]
    write_csv(path, header_lines, ["power_dbm", "cdf"], rows)


_ARCHIVE_COLUMNS = ["coverage_deficit", "cost_fraction", "energy_fraction", "genes"]


def write_archive_csv(archive: Sequence[ArchiveEntry], path,
                      header_lines: Sequence[str] = ()) -> None:
    rows = [[repr(e.objectives[0]), repr(e.objectives[1]), repr(e.objectives[2]),
             ";".join(str(g) for g in e.genes)] for e in archive]
    write_csv(path, header_lines, _ARCHIVE_COLUMNS, rows)


def read_archive_csv(path) -> tuple[list[str], tuple[ArchiveEntry, ...]]:
    """The `# ` header lines and the entries of an archive CSV.

    ValueError unless the column row is the one `write_archive_csv` writes
    and every row holds three finite objectives and a gene list.
    """
    entries = []
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line for line in fh if line.strip()]
    headers = [line[2:].strip() for line in lines if line.startswith("# ")]
    rows = [line.strip() for line in lines if not line.startswith("#")]
    if rows[:1] != [",".join(_ARCHIVE_COLUMNS)]:
        raise ValueError("the column row is missing")
    for line in rows[1:]:
        *values, genes = line.split(",")
        objectives = tuple(map(float, values))
        if len(objectives) != 3 or not all(map(math.isfinite, objectives)):
            raise ValueError(f"row {line!r} does not hold three finite objectives")
        entries.append(ArchiveEntry(
            genes=tuple(int(g) for g in genes.split(";")) if genes else (),
            objectives=objectives))
    return headers, tuple(entries)
