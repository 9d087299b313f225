"""The bundled demo town and the default device catalog.

The demo town is a small engineered world: a sectorized mast illuminates
a grid, concrete slabs cast time-varying shadows, and pole or facade
sites sit where devices can plausibly help.  Its values are chosen so
the interesting structure (blind spots, feasibility, trade-offs) appears
at desk scale.  `scripts/run_demo.py`, `scripts/golden_digests.py`,
`perfbench/run.py` and the tests save the document as the JSON file the
CLI reads.
"""
from __future__ import annotations

import copy

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
