"""Shared helpers for building tiny hand-specified databases in tests."""
import json

import numpy as np

from semeplan.propagation import (DEFAULT_WALL_LOSS_DB, MapDatabase, _site_fields,
                                  database_header, point_power_dbm)
from semeplan.scenario import scenario_from_dict
from semeplan.units import FREE_SPACE_IMPEDANCE, dbm_to_watts


def field_from_dbm(dbm, wavelength):
    """Field amplitude (single component) giving the stated received power."""
    watts = dbm_to_watts(dbm)
    return np.sqrt(watts * 8.0 * np.pi * FREE_SPACE_IMPEDANCE) / wavelength


def site_powers(scenario, wall_loss_db=DEFAULT_WALL_LOSS_DB) -> np.ndarray:
    """The base station's power at every site, (T, n_sites) in dBm: what
    `qualify_sites` and `build_database` take as `incident_dbm`."""
    return point_power_dbm(scenario, [site.position for site in scenario.sites],
                           wall_loss_db=wall_loss_db)


def in_memory(db):
    """`db` with every entry computed and kept: `build_database` computes a
    site's entries when they are read and keeps only the last site's."""
    return db._replace(entries=dict(db.entries))


def see_contribution(scenario, site, kind, roi_targets, *,
                     wall_loss_db=DEFAULT_WALL_LOSS_DB) -> np.ndarray:
    """Field radiated by one device at one site, one slab per time instant:
    the database entry of that (site, kind) pair, computed on its own."""
    incident_dbm = point_power_dbm(scenario, site.position,
                                   wall_loss_db=wall_loss_db)[:, 0]
    return _site_fields(scenario, site, incident_dbm, [(kind, roi_targets)],
                        wall_loss_db)[0]


def tiny_db(cell_powers_dbm, wavelength=0.0857, spacing=5.0, mode="coherent"):
    """1 x k grid database whose reference has the given cell powers."""
    powers = np.atleast_2d(np.asarray(cell_powers_dbm, dtype=float))
    t_count, k = powers.shape
    scenario = scenario_from_dict({
        "frequency_hz": 299_792_458.0 / wavelength,
        "grid": {"origin": [0.0, 0.0], "spacing_m": spacing, "nx": k, "ny": 1,
                 "height_m": 1.5},
        "bts": {"position": [0.0, 0.0, 10.0],
                "time_instants": [{"sectors": [{
                    "azimuth_deg": 0.0, "downtilt_deg": 0.0,
                    "tx_power_w": 1.0, "max_gain_dbi": 0.0}]}] * t_count},
    })
    values = np.zeros((t_count, 3, 1, k), dtype=np.complex128)
    for t in range(t_count):
        for ix in range(k):
            values[t, 2, 0, ix] = field_from_dbm(powers[t, ix], wavelength)
    return MapDatabase(reference=values, entries={},
                       header=database_header(scenario, mode, {}, [], None))


def with_header(blob, edit):
    """The database file `blob` with `edit` applied to its JSON header."""
    start = len(b"SEMEDB01") + 4
    end = start + int.from_bytes(blob[start - 4:start], "little")
    header = json.loads(blob[start:end])
    edit(header)
    raw = json.dumps(header).encode()
    return blob[:start - 4] + len(raw).to_bytes(4, "little") + raw + blob[end:]


def with_nan(blob):
    """The database file `blob` with its last field value, which belongs to
    the last grid, set to NaN."""
    return blob[:-8] + np.array([complex(np.nan, 0.0)], dtype="<c8").tobytes()
