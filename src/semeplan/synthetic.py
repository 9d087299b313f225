"""Built-in synthetic scenarios for experiments and tests.

These are small engineered worlds: a sectorized mast illuminates a grid,
a row of concrete slabs casts time-varying shadows, and pole or facade
sites sit where devices can plausibly help.  Values are chosen so the
interesting structure (blind spots, feasibility, trade-offs) appears at
desk scale.
"""
from __future__ import annotations

import copy
import json

DEFAULT_CATALOG = [
    {"kind": "SP-EMS", "install_cost": 500.0, "energy_w": 0.0,
     "reflection_efficiency": 0.8, "aperture_m2": 4.58},
    {"kind": "RP-EMS", "install_cost": 750.0, "energy_w": 2.0,
     "reflection_efficiency": 0.8, "aperture_m2": 4.58},
    {"kind": "SR", "install_cost": 3000.0, "energy_w": 20.0,
     "tx_power_dbm": 24.0, "gain_dbi": 12.0, "sensitivity_dbm": -60.0},
    {"kind": "IAB", "install_cost": 7500.0, "energy_w": 350.0,
     "tx_power_dbm": 33.0, "gain_dbi": 12.0, "sensitivity_dbm": -60.0},
]


def _rect(x0, y0, x1, y1):
    return [[x0, y0], [x1, y0], [x1, y1], [x0, y1]]


def _sector(azimuth, downtilt, power_w=20.0, gain=16.3, az_bw=60.0, el_bw=30.0):
    return {"azimuth_deg": azimuth, "downtilt_deg": downtilt,
            "tx_power_w": power_w, "max_gain_dbi": gain,
            "az_beamwidth_deg": az_bw, "el_beamwidth_deg": el_bw}


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


def demo_scenario() -> dict:
    """Three-sector demo town with two shadow pockets and a facade site.

    The main sector points east through two radial slab pairs; the other
    sectors serve the west side.  A wall south of the north-east pocket
    hosts a facade skin that can reflect into it.
    """
    return {
        "frequency_hz": 3.5e9,
        "grid": {"origin": [0.0, 0.0], "spacing_m": 5.0,
                 "nx": 34, "ny": 34, "height_m": 1.5},
        "bts": {
            "position": [8.0, 68.0, 18.0],
            "time_instants": [
                {"sectors": [_sector(0.0, 3.0), _sector(120.0, 3.0),
                             _sector(240.0, 3.0)]},
                {"sectors": [_sector(10.0, 4.0), _sector(130.0, 3.0),
                             _sector(235.0, 3.0)]},
            ],
        },
        "buildings": [
            {"footprint": _rect(54.0, 88.0, 66.0, 108.0), "height_m": 16.0},
            {"footprint": _rect(89.0, 108.0, 101.0, 128.0), "height_m": 16.0},
            {"footprint": _rect(54.0, 28.0, 66.0, 48.0), "height_m": 16.0},
            {"footprint": _rect(89.0, 8.0, 101.0, 28.0), "height_m": 16.0},
            {"footprint": _rect(89.0, 150.4, 101.0, 164.0), "height_m": 16.0},
        ],
        "catalog": copy.deepcopy(DEFAULT_CATALOG),
        "sites": [
            {"position": [95.0, 150.2, 8.0], "mount": "facade",
             "normal": [0.0, -1.0, 0.0], "name": "north-wall"},
            {"position": [105.0, 100.0, 6.0], "mount": "pole", "name": "p1"},
            {"position": [105.0, 36.0, 6.0], "mount": "pole", "name": "p2"},
            {"position": [112.0, 88.0, 6.0], "mount": "pole", "name": "p3"},
            {"position": [40.0, 68.0, 6.0], "mount": "pole", "name": "p4"},
        ],
    }


def write_scenario(doc: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


# Per-site saturating entries for the hand-built benchmark database: the
# designated kind fully lifts its patch, every other kind radiates nothing.
BENCH_LIVE_KINDS = {0: 1, 1: 1, 2: 2, 3: 3, 4: 4}
BENCH_PATCH_WEIGHTS = (0.34, 0.27, 0.20, 0.12, 0.07, 0.0)
BENCH_LIFT_DBM = -40.0


def benchmark_problem(pth_dbm: float = -65.0):
    """Enumeration-friendly benchmark built on the pareto_toy scenario.

    Returns (scenario, blindspot, plan, database): the reference field is
    the real engine output, while device entries are synthetic saturating
    patches.  Splitting the blind cells into disjoint per-site chunks
    keeps the objective landscape additive, so the exhaustively computed
    front is small and a short GA run can recover all of it.
    """
    import numpy as np

    from .analysis import reference_blindspot
    from .objectives import Evaluator
    from .propagation import MapDatabase, database_header, reference_field
    from .scenario import scenario_from_dict
    from .siteplanner import build_rois, qualify_sites
    from .units import FREE_SPACE_IMPEDANCE, dbm_to_watts

    scenario = scenario_from_dict(pareto_toy())
    reference = reference_field(scenario)
    _, blindspot = reference_blindspot(reference, scenario.wavelength, pth_dbm)
    rois = build_rois(blindspot.components, scenario.grid)
    _, plan = qualify_sites(scenario, rois, pth_dbm)

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
    db = MapDatabase(grid=scenario.grid, wavelength=scenario.wavelength,
                     reference=reference, entries=entries,
                     header=database_header(scenario, "incoherent", {}, entries, plan))
    evaluator = Evaluator(db, blindspot.cells_per_t(), pth_dbm,
                          scenario.catalog, plan)
    return scenario, blindspot, plan, db, evaluator
