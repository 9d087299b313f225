"""Seeded synthetic town for the benchmark's town-build workload.

The town is a square grid of 5 m cells with non-overlapping rectangular
buildings of random height, a three-sector base station with two time
instants, and candidate sites: about two thirds are poles in open space and
one third sit 0.2 m outside a building wall with the wall's outward normal.
Two facade walls face away from the base station, so the passive-skin
incidence rule rejects them; the other facade walls face both the base
station and the largest estimated blind region, so they pass the incidence
and reflection rules.

Two properties set the cost of the pipeline, and the generator holds both
nearly fixed from seed to seed.  Poles and facing facades have a clear
plan-view line of sight to the base station, so they pass the incident-power
and sensitivity rules, and with the facade rules above the database has the
same number of entries, which sets the cost of `dbgen`, for every seed.
And of a fixed number of drawn layouts the one is kept whose estimated blind
spot (`blind_masks`) is closest to a target, since the blind spot's size
sets the regions that `sites` tracks and writes.  Drawing a fixed number
keeps the generator's own run time, the workload's set-up, the same for
every seed.
Draws come from the standard library's `random`, so one seed gives one
JSON document on every platform.
"""
from __future__ import annotations

import random

import numpy as np
from scipy import ndimage

NX = NY = 64
SPACING_M = 5.0
N_BUILDINGS = 20
N_SITES = 30
N_AVERTED = 2            # facade sites on walls facing away from the base station
MIN_BTS_DISTANCE_M = 60.0
N_LAYOUTS = 40
BLIND_TARGET = 1800  # estimated blind cells over both instants
RX_HEIGHT_M = 1.5
TX_POWER_W = 20.0
WAVELENGTH_M = 299_792_458.0 / 3.5e9
WALL_LOSS_DB = 20.0  # the CLI default, which the town-build workload uses
PTH_DBM = -65.0      # likewise
BTS_HEIGHT_M = 25.0
POLE_HEIGHT_M = 6.0
FACADE_OFFSET_M = 0.2
FACING_MAX_DEG = 75.0  # facing facades: base station and main blind region

CATALOG = [
    {"kind": "SP-EMS", "install_cost": 500.0, "energy_w": 0.0,
     "reflection_efficiency": 0.8, "aperture_m2": 4.58},
    {"kind": "RP-EMS", "install_cost": 750.0, "energy_w": 2.0,
     "reflection_efficiency": 0.8, "aperture_m2": 4.58},
    {"kind": "SR", "install_cost": 3000.0, "energy_w": 20.0,
     "tx_power_dbm": 24.0, "gain_dbi": 12.0, "sensitivity_dbm": -60.0},
    {"kind": "IAB", "install_cost": 7500.0, "energy_w": 350.0,
     "tx_power_dbm": 33.0, "gain_dbi": 12.0, "sensitivity_dbm": -60.0},
]


def _sector(azimuth, downtilt):
    return {"azimuth_deg": azimuth, "downtilt_deg": downtilt,
            "tx_power_w": TX_POWER_W, "max_gain_dbi": 16.3,
            "az_beamwidth_deg": 60.0, "el_beamwidth_deg": 30.0}


def _sectors(azimuth):
    """Three sectors per instant; the second instant turns and tilts them."""
    return [[_sector(azimuth + k * 120.0, 3.0) for k in range(3)],
            [_sector(azimuth + 10.0 + k * 120.0, 5.0) for k in range(3)]]


def _overlaps(a, b, gap):
    return not (a[2] + gap <= b[0] or b[2] + gap <= a[0]
                or a[3] + gap <= b[1] or b[3] + gap <= a[1])


def _inside(rect, x, y, margin):
    return (rect[0] - margin <= x <= rect[2] + margin
            and rect[1] - margin <= y <= rect[3] + margin)


def _blocked(rects, a, b):
    """True when segment a-b crosses any rectangle in plan view (slab clip)."""
    dx, dy = b[0] - a[0], b[1] - a[1]
    for x0, y0, x1, y1, _ in rects:
        lo, hi = 0.0, 1.0
        for p, q0, q1 in ((dx, x0 - a[0], x1 - a[0]), (dy, y0 - a[1], y1 - a[1])):
            if abs(p) < 1e-12:
                if q0 > 0.0 or q1 < 0.0:
                    lo, hi = 1.0, 0.0
                continue
            t0, t1 = sorted((q0 / p, q1 / p))
            lo, hi = max(lo, t0), min(hi, t1)
        if lo <= hi:
            return True
    return False


def blind_masks(rects, bts_xy, azimuth) -> np.ndarray:
    """Estimated cells below PTH_DBM: one (NY, NX) mask per instant.

    Friis spreading with the README's sector pattern (quadratic rolloff,
    30 dB floor), the sectors' powers added, and WALL_LOSS_DB for every
    building the ray leaves below its roof.  It ignores interference
    between sectors, so it only approximates the program's blind spot, but
    it predicts its size to about 1%.
    """
    xs = np.arange(NX) * SPACING_M
    dx = np.tile(xs, NY) - bts_xy[0]
    dy = np.repeat(xs, NX) - bts_xy[1]
    dz = RX_HEIGHT_M - BTS_HEIGHT_M
    walls = np.zeros(NX * NY, dtype=int)
    for x0, y0, x1, y1, height in rects:
        lo, hi = np.zeros(NX * NY), np.ones(NX * NY)
        for d, q0, q1 in ((dx, x0 - bts_xy[0], x1 - bts_xy[0]),
                          (dy, y0 - bts_xy[1], y1 - bts_xy[1])):
            with np.errstate(divide="ignore", invalid="ignore"):
                t0, t1 = q0 / d, q1 / d
            flat = d == 0.0
            inside = q0 <= 0.0 <= q1
            lo = np.maximum(lo, np.where(flat, -np.inf if inside else np.inf,
                                         np.minimum(t0, t1)))
            hi = np.minimum(hi, np.where(flat, np.inf if inside else -np.inf,
                                         np.maximum(t0, t1)))
        walls += (lo <= hi) & (BTS_HEIGHT_M + hi * dz < height)
    dist = np.sqrt(dx ** 2 + dy ** 2 + dz ** 2)
    az = np.degrees(np.arctan2(dy, dx))
    el = np.degrees(np.arcsin(dz / dist))
    path_db = 20.0 * np.log10(WAVELENGTH_M / (4.0 * np.pi * dist)) - WALL_LOSS_DB * walls
    masks = []
    for sectors in _sectors(azimuth):
        eirp_w = np.zeros(NX * NY)
        for s in sectors:
            d_az = (az - s["azimuth_deg"] + 180.0) % 360.0 - 180.0
            rolloff = (12.0 * (d_az / s["az_beamwidth_deg"]) ** 2
                       + 12.0 * ((el + s["downtilt_deg"]) / s["el_beamwidth_deg"]) ** 2)
            eirp_w += s["tx_power_w"] * 10.0 ** (
                (s["max_gain_dbi"] - np.minimum(rolloff, 30.0)) / 10.0)
        masks.append(30.0 + 10.0 * np.log10(eirp_w) + path_db < PTH_DBM)
    return np.reshape(masks, (-1, NY, NX))


def main_region_centre(masks) -> tuple[float, float]:
    """(x, y) of the barycenter of the largest 8-connected blind region at
    the first instant: the region the program's facade rules will see."""
    labels, _ = ndimage.label(masks[0], structure=np.ones((3, 3), int))
    sizes = np.bincount(labels.ravel())
    sizes[0] = 0
    iy, ix = np.nonzero(labels == sizes.argmax())
    return float(ix.mean()) * SPACING_M, float(iy.mean()) * SPACING_M


def _faces(normal, pos, target) -> bool:
    """True when `target` lies within FACING_MAX_DEG of the wall normal."""
    to = np.subtract(target, pos)
    return float(np.dot(normal, to)) >= np.cos(np.radians(FACING_MAX_DEG)) * float(
        np.linalg.norm(to))


def _far(bts_xy, x, y):
    return (x - bts_xy[0]) ** 2 + (y - bts_xy[1]) ** 2 >= MIN_BTS_DISTANCE_M ** 2


def _layout(rng, extent):
    """Base station (x, y), sector azimuth and non-overlapping buildings
    (x0, y0, x1, y1, height)."""
    bts_xy = (round(rng.uniform(50.0, 90.0), 1),
              round(rng.uniform(0.35 * extent, 0.65 * extent), 1))
    azimuth = round(rng.uniform(-20.0, 20.0), 1)
    rects = []
    while len(rects) < N_BUILDINGS:
        w = rng.uniform(12.0, 36.0)
        h = rng.uniform(12.0, 36.0)
        x0 = rng.uniform(10.0, extent - 10.0 - w)
        y0 = rng.uniform(10.0, extent - 10.0 - h)
        rect = (round(x0, 1), round(y0, 1), round(x0 + w, 1), round(y0 + h, 1),
                round(rng.uniform(10.0, 30.0), 1))
        if _inside(rect, *bts_xy, margin=20.0):
            continue
        if any(_overlaps(rect, other, gap=6.0) for other in rects):
            continue
        rects.append(rect)
    return bts_xy, azimuth, rects


def town(seed: int) -> dict:
    """Scenario document for one seeded town (see the module docstring)."""
    rng = random.Random(seed)
    extent = (NX - 1) * SPACING_M
    layouts = [_layout(rng, extent) for _ in range(N_LAYOUTS)]
    bts_xy, azimuth, rects = min(layouts, key=lambda layout: abs(
        int(blind_masks(layout[2], layout[0], layout[1]).sum()) - BLIND_TARGET))
    centre = main_region_centre(blind_masks(rects, bts_xy, azimuth))

    n_facade = N_SITES // 3
    sites = []
    while len(sites) < n_facade:
        rect = rects[rng.randrange(len(rects))]
        x0, y0, x1, y1, height = rect
        side = rng.randrange(4)
        along = rng.uniform(0.25, 0.75)
        if side == 0:    # south wall
            pos, normal = (x0 + along * (x1 - x0), y0 - FACADE_OFFSET_M), (0.0, -1.0)
        elif side == 1:  # east wall
            pos, normal = (x1 + FACADE_OFFSET_M, y0 + along * (y1 - y0)), (1.0, 0.0)
        elif side == 2:  # north wall
            pos, normal = (x0 + along * (x1 - x0), y1 + FACADE_OFFSET_M), (0.0, 1.0)
        else:            # west wall
            pos, normal = (x0 - FACADE_OFFSET_M, y0 + along * (y1 - y0)), (-1.0, 0.0)
        pos = (round(pos[0], 2), round(pos[1], 2), min(8.0, height - 2.0))
        normal = (normal[0], normal[1], 0.0)
        facing = (normal[0] * (bts_xy[0] - pos[0])
                  + normal[1] * (bts_xy[1] - pos[1])) > 0.0
        if len(sites) < N_AVERTED:
            if facing:
                continue
        elif (not _faces(normal, pos, (*bts_xy, BTS_HEIGHT_M))
              or not _faces(normal, pos, (*centre, RX_HEIGHT_M))
              or not _far(bts_xy, *pos[:2]) or _blocked(rects, bts_xy, pos)):
            continue
        sites.append({"position": list(pos),
                      "mount": "facade", "normal": list(normal),
                      "name": f"facade-{len(sites) + 1}"})
    while len(sites) < N_SITES:
        x = round(rng.uniform(5.0, extent - 5.0), 1)
        y = round(rng.uniform(5.0, extent - 5.0), 1)
        if (any(_inside(r, x, y, margin=3.0) for r in rects)
                or not _far(bts_xy, x, y) or _blocked(rects, bts_xy, (x, y))):
            continue
        sites.append({"position": [x, y, POLE_HEIGHT_M], "mount": "pole",
                      "name": f"pole-{len(sites) - n_facade + 1}"})

    return {
        "frequency_hz": 3.5e9,
        "grid": {"origin": [0.0, 0.0], "spacing_m": SPACING_M,
                 "nx": NX, "ny": NY, "height_m": 1.5},
        "bts": {
            "position": [bts_xy[0], bts_xy[1], BTS_HEIGHT_M],
            "time_instants": [{"sectors": sectors}
                              for sectors in _sectors(azimuth)],
        },
        "buildings": [{"footprint": [[x0, y0], [x1, y0], [x1, y1], [x0, y1]],
                       "height_m": height}
                      for x0, y0, x1, y1, height in rects],
        "catalog": [dict(entry) for entry in CATALOG],
        "sites": sites,
    }
