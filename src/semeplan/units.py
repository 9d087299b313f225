"""Physical constants and power-unit conversions."""
from __future__ import annotations

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0  # m/s
FREE_SPACE_IMPEDANCE = 376.730313668  # ohm, sqrt(mu0/eps0)

# Lowest power reported in dBm by deficit computations; keeps perfectly
# cancelled or unreachable cells from producing infinite deficits.
POWER_FLOOR_DBM = -300.0


def dbm_to_watts(dbm):
    return 1e-3 * np.power(10.0, np.asarray(dbm, dtype=float) / 10.0)


def watts_to_dbm(watts):
    watts = np.asarray(watts, dtype=float)
    with np.errstate(divide="ignore"):
        return 10.0 * np.log10(watts * 1e3)
