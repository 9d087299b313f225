"""Unculled occlusion count: every target against every footprint edge, one
edge at a time.

The reference for `geometry.count_blocking_footprints`, whose angular cull
and (targets, edges) broadcast must give the same integer counts.
"""
import numpy as np

# Crossings closer than this (as a fraction of segment length) to either
# endpoint are ignored, so a source sitting exactly on a wall does not
# occlude itself.
ENDPOINT_TOL = 1e-9


def segment_edge_params(origin_xy: np.ndarray, targets_xy: np.ndarray,
                        edge_a: np.ndarray, edge_b: np.ndarray):
    """Intersection parameters of origin->target segments with one edge.

    Returns (hit, t): boolean mask over targets and the segment parameter
    t in (0, 1) at the crossing point.  Endpoint grazes are excluded.
    """
    r = targets_xy - origin_xy  # (M, 2)
    s = edge_b - edge_a
    den = r[:, 0] * s[1] - r[:, 1] * s[0]
    qp = edge_a - origin_xy
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t = (qp[0] * s[1] - qp[1] * s[0]) / den
        u = (qp[0] * r[:, 1] - qp[1] * r[:, 0]) / den
    hit = (np.abs(den) > 1e-15) \
        & (t > ENDPOINT_TOL) & (t < 1.0 - ENDPOINT_TOL) \
        & (u >= -1e-12) & (u <= 1.0 + 1e-12)
    return hit, t


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
