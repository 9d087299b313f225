"""Deployment objectives: coverage deficit, install cost, energy use.

All three are minimized.  Cost and energy normalize against the most
expensive feasible deployment, so they live in [0, 1]; the coverage
deficit is the blind-spot area-weighted shortfall below the power
threshold, averaged over time instants, in dBm-domain units.
"""
from __future__ import annotations

import warnings
from typing import NamedTuple, Sequence

import numpy as np

from .propagation import (MapDatabase, deployment_power_watts, deployment_term,
                          selected_keys)
from .scenario import SeeType
from .siteplanner import SitePlan
from .units import POWER_FLOOR_DBM, watts_to_dbm


class ObjectiveVector(NamedTuple):
    coverage: float
    cost: float
    energy: float


def repair(genes, alphabets: Sequence[Sequence[int]]) -> np.ndarray:
    """Zero out genes selecting a kind that is not feasible at their site.

    `alphabets[n]` lists the gene values allowed at site n, 0 included, as
    `SitePlan.alphabets()` gives them.
    """
    return np.array([g if g in alpha else 0
                     for g, alpha in zip(map(int, genes), alphabets, strict=True)],
                    dtype=int)


def deployment_totals(genes, catalog: Sequence[SeeType]) -> tuple[float, float]:
    """(install cost, energy use) of the devices a chromosome deploys.

    Both sums run in site order, so equal genes give bit-identical totals.
    """
    cost = energy = 0.0
    for s in genes:
        if s > 0:
            kind = catalog[s - 1]
            cost += kind.install_cost
            energy += kind.energy_w
    return cost, energy


def max_totals(catalog: Sequence[SeeType], plan: SitePlan) -> tuple[float, float]:
    """(cost, energy) of the dearest feasible deployment, each summed in
    site order over the per-site maxima: the normalizers of the cost and
    energy fractions."""
    cost = energy = 0.0
    for n in range(plan.n_sites):
        kinds = [catalog[s - 1] for s in plan.kind_values(n)]
        cost += max((k.install_cost for k in kinds), default=0.0)
        energy += max((k.energy_w for k in kinds), default=0.0)
    return cost, energy


def _deficit(power_dbm: np.ndarray, pth_dbm: float) -> np.ndarray:
    power_dbm = np.maximum(power_dbm, POWER_FLOOR_DBM)
    short = pth_dbm - power_dbm
    return np.where(short > 0.0, short / abs(pth_dbm), 0.0)


class Evaluator:
    """Fast chromosome scorer over a fixed database and blind spot.

    Precomputes the reference's and every entry's superposition term
    (`propagation.deployment_term`: the complex field, or its power in the
    incoherent mode) restricted to the blind-spot cells, so one call is a
    handful of small array sums.  Pure and stateless between calls:
    identical genes give bit-identical outputs, and each call returns a
    fresh repaired-genes array.  `nsga2.evolve` memoizes the calls it makes.
    """

    def __init__(self, db: MapDatabase, cells_per_t, pth_dbm: float,
                 catalog: Sequence[SeeType], plan: SitePlan,
                 *, normalized: bool = False):
        self.db = db
        self.pth_dbm = float(pth_dbm)
        self.catalog = tuple(catalog)
        self.alphabets = plan.alphabets()
        self.normalized = normalized
        self.cells_per_t = [np.asarray(c, dtype=int).reshape(-1, 2)
                            for c in cells_per_t]
        if all(len(c) == 0 for c in self.cells_per_t):
            warnings.warn("blind spot is empty at every instant; deficit is 0")
        self._cell_area = db.grid.cell_area

        def restrict(grid_values):
            return [deployment_term(db, grid_values[t][:, c[:, 0], c[:, 1]])
                    for t, c in enumerate(self.cells_per_t)]

        self._ref_terms = restrict(db.reference)
        self._entry_terms = {key: restrict(entry) for key, entry in db.entries.items()}
        self._max_cost, self._max_energy = max_totals(self.catalog, plan)

    def _coverage(self, genes: np.ndarray) -> float:
        keys = selected_keys(self.db, genes)
        total = 0.0
        for t, cells in enumerate(self.cells_per_t):
            if len(cells) == 0:
                continue
            power_w = deployment_power_watts(
                self.db, self._ref_terms[t],
                [self._entry_terms[key][t] for key in keys])
            deficit = _deficit(watts_to_dbm(power_w), self.pth_dbm).sum() \
                * self._cell_area
            if self.normalized:
                deficit /= len(cells) * self._cell_area
            total += deficit
        return total / self.db.time_instants

    def __call__(self, genes) -> tuple[np.ndarray, ObjectiveVector]:
        repaired = repair(genes, self.alphabets)
        cost, energy = deployment_totals(repaired.tolist(), self.catalog)
        vec = ObjectiveVector(
            coverage=self._coverage(repaired),
            cost=cost / self._max_cost if self._max_cost > 0 else 0.0,
            energy=energy / self._max_energy if self._max_energy > 0 else 0.0,
        )
        return repaired, vec
