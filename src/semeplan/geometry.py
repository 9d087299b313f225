"""Planar geometry: polygon validation and segment/footprint occlusion tests.

Everything operates on plain numpy arrays so it stays independent of the
scenario types.
"""
from __future__ import annotations

import math

import numpy as np

# Crossings closer than this (as a fraction of segment length) to either
# endpoint are ignored, so a source sitting exactly on a wall does not
# occlude itself.
_ENDPOINT_TOL = 1e-9


def polygon_is_simple(vertices: np.ndarray) -> bool:
    """True if the closed polygon has no self-intersections.

    Adjacent edges sharing a vertex are allowed; any other contact
    (crossing or touching) makes the polygon non-simple.  An edge whose
    ends are equal within `np.allclose`'s default tolerances is degenerate
    and makes the polygon non-simple too.
    """
    pts = np.asarray(vertices, dtype=float).tolist()
    n = len(pts)
    if n < 3:
        return False
    edges = []
    for (x1, y1), (x2, y2) in zip(pts, pts[1:] + pts[:1]):
        if (abs(x1 - x2) <= 1e-8 + 1e-5 * abs(x2)
                and abs(y1 - y2) <= 1e-8 + 1e-5 * abs(y2)):
            return False  # degenerate edge
        edges.append((x1, y1, x2, y2))
    for i in range(n):
        # edge i + 1 and, for edge 0, edge n - 1 are adjacent
        for j in range(i + 2, n - (i == 0)):
            if _segments_touch(*edges[i], *edges[j]):
                return False
    return True


def _segments_touch(px1, py1, px2, py2, qx1, qy1, qx2, qy2) -> bool:
    rx, ry = px2 - px1, py2 - py1
    sx, sy = qx2 - qx1, qy2 - qy1
    den = rx * sy - ry * sx
    wx, wy = qx1 - px1, qy1 - py1
    if abs(den) < 1e-15:
        # Parallel: overlap only if collinear and the 1D projections meet.
        if abs(wx * ry - wy * rx) > 1e-12:
            return False
        rr = rx * rx + ry * ry
        t0 = (wx * rx + wy * ry) / rr
        t1 = ((qx2 - px1) * rx + (qy2 - py1) * ry) / rr
        return max(t0, t1) >= 0.0 and min(t0, t1) <= 1.0
    t = (wx * sy - wy * sx) / den
    u = (wx * ry - wy * rx) / den
    return 0.0 <= t <= 1.0 and 0.0 <= u <= 1.0


def _distance_to_segment(a, b) -> float:
    """Plan distance from (0, 0) to the segment a-b."""
    sx, sy = b[0] - a[0], b[1] - a[1]
    length2 = sx * sx + sy * sy
    lam = min(max(-(a[0] * sx + a[1] * sy) / length2, 0.0), 1.0) if length2 else 0.0
    return math.hypot(a[0] + lam * sx, a[1] + lam * sy)


def _shadow(origin_xy: np.ndarray, polygon: np.ndarray):
    """Where a footprint can block segments from `origin_xy`, or None.

    Returns (cos_c, sin_c, tan_half, min_reach): a target can be blocked
    only if its bearing is within atan(tan_half) of the bearing
    (cos_c, sin_c) and its plan distance is at least `min_reach`.  None
    means no such bound is safe and every target must be tested.
    """
    ox, oy = origin_xy.tolist()
    rel = [(x - ox, y - oy) for x, y in polygon.tolist()]
    edges = list(zip(rel, rel[1:] + rel[:1]))
    reach = max(math.hypot(x, y) for x, y in rel)
    # The middle of a long wall can be nearer than its corners, so this is
    # the nearest boundary point, not the nearest vertex.
    nearest = min(_distance_to_segment(a, b) for a, b in edges)
    # Crossings count up to 1e-12 of an edge beyond its ends; the slacks
    # cover that with three orders of magnitude to spare.
    slack = 1e-9 * reach
    if nearest <= slack:
        return None  # the origin is on a wall
    sweep = [0.0]  # bearing of each vertex relative to the first
    for (x0, y0), (x1, y1) in edges[:-1]:
        sweep.append(sweep[-1] + math.atan2(x0 * y1 - y0 * x1, x0 * x1 + y0 * y1))
    lo, hi = min(sweep), max(sweep)
    half = 0.5 * (hi - lo) + slack / nearest + 1e-9
    # An origin inside winds the edges a full turn in steps of less than
    # half a turn, so its vertices span more than half a turn: caught here.
    if half >= 0.5 * math.pi:
        return None  # the wedge spans half a turn or more
    centre = math.atan2(rel[0][1], rel[0][0]) + 0.5 * (lo + hi)
    return math.cos(centre), math.sin(centre), math.tan(half), nearest - slack


def count_blocking_footprints(origin: np.ndarray, targets: np.ndarray,
                              footprints: list[tuple[np.ndarray, float]]) -> np.ndarray:
    """Number of footprints occluding each origin->target 3D segment.

    A footprint (polygon, height) blocks a segment when the segment
    crosses one of its edges in plan view at a point where the linearly
    interpolated segment height is below the footprint height.

    Each footprint's edges are tested only against the targets that can
    cross them; the counts equal those of testing every target.  Seen
    from the origin, a footprint covers a wedge of bearings, and its
    nearest boundary point (point-to-segment distance, not the nearest
    vertex) is at some distance d.  With R the distance to its farthest
    vertex, a target is tested when its bearing is inside the wedge
    widened by 1e-9 * R / d + 1e-9 rad on each side and its plan distance
    is at least d - 1e-9 * R.  The widening covers the 1e-12 tolerance on
    the edge parameter with room to spare.  Every target is tested when
    the origin lies on a wall (d <= 1e-9 * R) or inside the footprint, or
    when the widened wedge spans half a turn or more.
    """
    origin = np.asarray(origin, dtype=float)
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    m = len(targets)
    counts = np.zeros(m, dtype=np.int64)
    o_xy = origin[:2]
    o_z = origin[2]
    dz = targets[:, 2] - o_z
    rel = targets[:, :2] - o_xy
    reaches = np.hypot(rel[:, 0], rel[:, 1])
    for polygon, height in footprints:
        shadow = _shadow(o_xy, polygon)
        if shadow is None:
            idx = slice(None)
        else:
            cos_c, sin_c, tan_half, min_reach = shadow
            along, across = (rel @ np.array([[cos_c, -sin_c], [sin_c, cos_c]])).T
            idx = np.flatnonzero((np.abs(across) <= tan_half * along)
                                 & (reaches >= min_reach))
            if not len(idx):
                continue
        # All E edges against the K culled targets in one (K, E) test
        r = rel[idx]
        s = np.concatenate([polygon[1:], polygon[:1]]) - polygon  # edge vectors
        qp = polygon - o_xy
        den = r[:, :1] * s[:, 1] - r[:, 1:] * s[:, 0]
        # Pairs with |den| <= 1e-15 are masked out below; only such a pair can
        # overflow (numerators stay near 1e10, so it takes |den| < 1e-298).
        # On edge-parallel rays t is inf, and t * dz may be nan.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            t = (qp[:, 0] * s[:, 1] - qp[:, 1] * s[:, 0]) / den
            u = (qp[:, 0] * r[:, 1:] - qp[:, 1] * r[:, :1]) / den
            z_at = o_z + t * dz[idx, None]
        hit = (np.abs(den) > 1e-15) \
            & (t > _ENDPOINT_TOL) & (t < 1.0 - _ENDPOINT_TOL) \
            & (u >= -1e-12) & (u <= 1.0 + 1e-12) & (z_at < height)
        counts[idx] += hit.any(axis=1)
    return counts
