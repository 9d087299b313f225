"""Slow objective path: full power maps from the database, then the deficit.

The reference for `objectives.Evaluator`, which restricts the fields to the
blind-spot cells once and memoizes its scores, and must give the same
objectives.
"""
import warnings
from typing import Sequence

import numpy as np

from semeplan.objectives import (ObjectiveVector, _deficit, deployment_totals,
                                 max_totals, repair)
from semeplan.propagation import MapDatabase, power_map_dbm
from semeplan.scenario import SeeType
from semeplan.siteplanner import SitePlan


def coverage_deficit(db: MapDatabase, genes, cells_per_t: Sequence[np.ndarray],
                     pth_dbm: float, *, normalized: bool = False) -> float:
    """Area-weighted shortfall below the threshold over the blind spot.

    `cells_per_t` lists the blind-spot cells (iy, ix) of the reference
    scenario at each instant.  With `normalized` the per-instant sum is
    divided by the blind-spot area instead of carrying m^2 units.
    """
    t_count = db.time_instants
    if all(len(c) == 0 for c in cells_per_t):
        warnings.warn("blind spot is empty at every instant; deficit is 0")
        return 0.0
    cell_area = db.grid.cell_area
    total = 0.0
    for t in range(t_count):
        cells = np.asarray(cells_per_t[t], dtype=int)
        if cells.size == 0:
            continue
        power = power_map_dbm(db, genes, t)[cells[:, 0], cells[:, 1]]
        deficit = _deficit(power, pth_dbm).sum() * cell_area
        if normalized:
            deficit /= len(cells) * cell_area
        total += deficit
    return total / t_count


def fractions(genes, catalog: Sequence[SeeType],
              plan: SitePlan) -> tuple[float, float]:
    """Installed cost and energy over those of the dearest feasible deployment."""
    cost, energy = deployment_totals(genes, catalog)
    max_cost, max_energy = max_totals(catalog, plan)
    return (cost / max_cost if max_cost > 0 else 0.0,
            energy / max_energy if max_energy > 0 else 0.0)


def evaluate(db: MapDatabase, genes, cells_per_t, pth_dbm: float,
             catalog: Sequence[SeeType], plan: SitePlan,
             *, normalized: bool = False) -> tuple[np.ndarray, ObjectiveVector]:
    """Repair the chromosome and score all three objectives."""
    repaired = repair(genes, plan.alphabets())
    vec = ObjectiveVector(coverage_deficit(db, repaired, cells_per_t, pth_dbm,
                                           normalized=normalized),
                          *fractions(repaired, catalog, plan))
    return repaired, vec
