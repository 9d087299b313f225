"""Shared helpers for building tiny hand-specified databases in tests."""
import numpy as np

from semeplan.propagation import (DEFAULT_WALL_LOSS_DB, DbMeta, FieldGrid,
                                  MapDatabase, _site_fields, point_power_dbm)
from semeplan.scenario import scenario_from_dict
from semeplan.units import FREE_SPACE_IMPEDANCE, dbm_to_watts


def field_from_dbm(dbm, wavelength):
    """Field amplitude (single component) giving the stated received power."""
    watts = dbm_to_watts(dbm)
    return np.sqrt(watts * 8.0 * np.pi * FREE_SPACE_IMPEDANCE) / wavelength


def see_contribution(scenario, site, kind, roi_targets, *,
                     wall_loss_db=DEFAULT_WALL_LOSS_DB) -> FieldGrid:
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
    grid = scenario_from_dict({
        "frequency_hz": 299_792_458.0 / wavelength,
        "grid": {"origin": [0.0, 0.0], "spacing_m": spacing, "nx": k, "ny": 1,
                 "height_m": 1.5},
        "bts": {"position": [0.0, 0.0, 10.0],
                "time_instants": [{"sectors": [{
                    "azimuth_deg": 0.0, "downtilt_deg": 0.0,
                    "tx_power_w": 1.0, "max_gain_dbi": 0.0}]}] * t_count},
    }).grid
    values = np.zeros((t_count, 3, 1, k), dtype=np.complex128)
    for t in range(t_count):
        for ix in range(k):
            values[t, 2, 0, ix] = field_from_dbm(powers[t, ix], wavelength)
    ref = FieldGrid(grid=grid, values=values)
    return MapDatabase(grid=grid, wavelength=wavelength, reference=ref,
                       entries={}, meta=DbMeta(scenario_hash="t", mode=mode))
