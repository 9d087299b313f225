"""Small engineered scenarios for the tests, the enumeration benchmark
problem that acceptance test c01 searches, and `write_scenario`, which
saves a scenario document as the JSON file the CLI reads."""
import copy
import json

import numpy as np

from semeplan.analysis import reference_blindspot
from semeplan.objectives import Evaluator
from semeplan.propagation import MapDatabase, database_header, reference_field
from semeplan.scenario import scenario_from_dict
from semeplan.siteplanner import build_rois, qualify_sites
from semeplan.synthetic import DEFAULT_CATALOG, _rect, _sector
from semeplan.units import FREE_SPACE_IMPEDANCE, dbm_to_watts
from dbtools import site_powers


def pareto_toy() -> dict:
    """Small heterogeneous planning problem for exhaustive enumeration.

    One sector, two instants, two radially aligned slab pairs whose
    doubled penetration loss opens two corner shadow pockets, and six
    pole sites (all admitting all four device kinds) along the lit
    corridors.
    """
    sites = []
    for i, (x, y) in enumerate([(105.0, 100.0), (105.0, 36.0), (78.0, 92.0),
                                (78.0, 44.0), (112.0, 88.0), (40.0, 68.0)]):
        sites.append({"position": [x, y, 6.0], "mount": "pole",
                      "name": f"pole-{i + 1}"})
    return {
        "frequency_hz": 3.5e9,
        "grid": {"origin": [0.0, 0.0], "spacing_m": 5.0,
                 "nx": 28, "ny": 28, "height_m": 1.5},
        "bts": {
            "position": [8.0, 68.0, 18.0],
            "time_instants": [
                {"sectors": [_sector(0.0, 4.0)]},
                {"sectors": [_sector(10.0, 7.0)]},
            ],
        },
        "buildings": [
            {"footprint": _rect(54.0, 88.0, 66.0, 108.0), "height_m": 16.0},
            {"footprint": _rect(89.0, 108.0, 101.0, 128.0), "height_m": 16.0},
            {"footprint": _rect(54.0, 28.0, 66.0, 48.0), "height_m": 16.0},
            {"footprint": _rect(89.0, 8.0, 101.0, 28.0), "height_m": 16.0},
        ],
        "catalog": copy.deepcopy(DEFAULT_CATALOG),
        "sites": sites,
    }


def coverable_toy() -> dict:
    """Scenario whose blind spots a known all-node deployment fully covers.

    Two radial slab pairs open two pockets; a pole site next to each
    pocket admits the access-backhaul node, and installing it at both
    sites restores the threshold everywhere.
    """
    return {
        "frequency_hz": 3.5e9,
        "grid": {"origin": [0.0, 0.0], "spacing_m": 5.0,
                 "nx": 24, "ny": 24, "height_m": 1.5},
        "bts": {
            "position": [6.0, 58.0, 18.0],
            "time_instants": [
                {"sectors": [_sector(0.0, 4.0)]},
                {"sectors": [_sector(6.0, 6.0)]},
            ],
        },
        "buildings": [
            {"footprint": _rect(46.0, 72.0, 58.0, 92.0), "height_m": 16.0},
            {"footprint": _rect(76.0, 86.0, 88.0, 106.0), "height_m": 16.0},
            {"footprint": _rect(46.0, 24.0, 58.0, 44.0), "height_m": 16.0},
            {"footprint": _rect(76.0, 10.0, 88.0, 30.0), "height_m": 16.0},
        ],
        "catalog": copy.deepcopy(DEFAULT_CATALOG),
        "sites": [
            {"position": [92.0, 80.0, 8.0], "mount": "pole", "name": "north"},
            {"position": [92.0, 36.0, 8.0], "mount": "pole", "name": "south"},
        ],
    }


# Per-site saturating entries for the hand-built benchmark database: the
# designated kind fully lifts its patch, every other kind radiates nothing.
BENCH_LIVE_KINDS = {0: 1, 1: 1, 2: 2, 3: 3, 4: 4}
BENCH_PATCH_WEIGHTS = (0.34, 0.27, 0.20, 0.12, 0.07, 0.0)
BENCH_LIFT_DBM = -40.0


def benchmark_problem(pth_dbm: float = -65.0):
    """Enumeration-friendly benchmark built on the pareto_toy scenario.

    Returns (scenario, blindspot, plan, database, evaluator): the reference
    field is the real engine output, while device entries are synthetic
    saturating patches.  Splitting the blind cells into disjoint per-site
    chunks keeps the objective landscape additive, so the exhaustively
    computed front is small and a short GA run can recover all of it.
    """
    scenario = scenario_from_dict(pareto_toy())
    reference = reference_field(scenario)
    _, blindspot = reference_blindspot(reference, scenario.wavelength, pth_dbm)
    rois = build_rois(blindspot.components, scenario.grid)
    _, plan = qualify_sites(scenario, rois, pth_dbm, site_powers(scenario))

    t_count = scenario.time_instants
    weights = np.asarray(BENCH_PATCH_WEIGHTS)
    patches: dict[int, list] = {n: [] for n in range(scenario.n_sites)}
    for t in range(t_count):
        cells = sorted(map(tuple, blindspot.region_cells(t).tolist()))
        edges = np.floor(np.cumsum(np.concatenate([[0.0], weights]))
                         / weights.sum() * len(cells)).astype(int)
        for n in range(scenario.n_sites):
            patches[n].append(cells[edges[n]:edges[n + 1]])

    amp = float(np.sqrt(dbm_to_watts(BENCH_LIFT_DBM) * 8.0 * np.pi
                        * FREE_SPACE_IMPEDANCE) / scenario.wavelength)
    entries = {}
    for n in range(scenario.n_sites):
        for s in plan.kind_values(n):
            values = np.zeros((t_count, 3, scenario.grid.ny, scenario.grid.nx),
                              dtype=np.complex128)
            if BENCH_LIVE_KINDS.get(n) == s:
                for t in range(t_count):
                    for (iy, ix) in patches[n][t]:
                        values[t, 2, iy, ix] = amp
            entries[(n, s)] = values
    db = MapDatabase(reference=reference, entries=entries,
                     header=database_header(scenario, "incoherent", {}, entries, plan))
    evaluator = Evaluator(db, blindspot.cells_per_t(), pth_dbm,
                          scenario.catalog, plan)
    return scenario, blindspot, plan, db, evaluator


def write_scenario(doc: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
