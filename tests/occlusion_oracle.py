"""Unculled occlusion count: every target against every footprint edge.

The reference for `geometry.count_blocking_footprints`, whose angular cull
must give the same integer counts.
"""
import numpy as np

from semeplan.geometry import segment_edge_params


def brute_force_counts(origin, targets, footprints):
    origin = np.asarray(origin, dtype=float)
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    counts = np.zeros(len(targets), dtype=np.int64)
    dz = targets[:, 2] - origin[2]
    for polygon, height in footprints:
        blocked = np.zeros(len(targets), dtype=bool)
        for i in range(len(polygon)):
            hit, t = segment_edge_params(origin[:2], targets[:, :2], polygon[i],
                                         polygon[(i + 1) % len(polygon)])
            if hit.any():
                with np.errstate(invalid="ignore"):  # t is inf on edge-parallel rays
                    blocked |= hit & (origin[2] + t * dz < height)
        counts += blocked
    return counts
