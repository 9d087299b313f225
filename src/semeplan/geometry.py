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


def _wedges(rel: np.ndarray):
    """Where each footprint can block segments from the origin.

    `rel` holds the footprints' vertices relative to the origin, (F, V, 2),
    each polygon padded to V vertices by repeating its last one.  Returns
    (centre, half, min_reach, cullable), each (F,): a target can be blocked
    by footprint f only if its bearing is within half[f] of centre[f] and
    its plan distance is at least min_reach[f].  Where cullable[f] is
    False no such bound is safe and every target must be tested.
    """
    x, y = rel[..., 0], rel[..., 1]
    reach = np.hypot(x, y).max(axis=1)
    # The middle of a long wall can be nearer than its corners, so this is
    # the nearest boundary point, not the nearest vertex.  A padding edge
    # has no length and gives its vertex's distance.
    sx, sy = np.roll(x, -1, axis=1) - x, np.roll(y, -1, axis=1) - y
    length2 = sx * sx + sy * sy
    lam = np.clip(np.divide(-(x * sx + y * sy), length2,
                            out=np.zeros_like(length2), where=length2 > 0), 0.0, 1.0)
    nearest = np.hypot(x + lam * sx, y + lam * sy).min(axis=1)
    # Crossings count up to 1e-12 of an edge beyond its ends; the slacks
    # cover that with three orders of magnitude to spare.
    slack = 1e-9 * reach
    on_wall = nearest <= slack
    # Bearing of each later vertex relative to the first (the initial 0.0);
    # a padding vertex adds 0.
    sweep = np.cumsum(np.arctan2(x[:, :-1] * y[:, 1:] - y[:, :-1] * x[:, 1:],
                                 x[:, :-1] * x[:, 1:] + y[:, :-1] * y[:, 1:]), axis=1)
    lo, hi = sweep.min(axis=1, initial=0.0), sweep.max(axis=1, initial=0.0)
    half = 0.5 * (hi - lo) + 1e-9 + np.divide(
        slack, nearest, out=np.full_like(nearest, np.inf), where=~on_wall)
    # An origin inside winds the edges a full turn in steps of less than
    # half a turn, so its vertices span more than half a turn: caught here.
    cullable = half < 0.5 * math.pi
    centre = np.arctan2(y[:, 0], x[:, 0]) + 0.5 * (lo + hi)
    return centre, half, nearest - slack, cullable


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

    The targets are sorted by bearing once per call and listed twice, the
    second copy a turn on, so each wedge selects one run of them.  All
    (footprint, target) pairs so selected then meet the footprints' edges
    one edge index at a time.
    """
    origin = np.asarray(origin, dtype=float)
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    m = len(targets)
    if not footprints or not m:
        return np.zeros(m, dtype=np.int64)
    o_xy = origin[:2]
    o_z = origin[2]
    rel = targets[:, :2] - o_xy
    dz = targets[:, 2] - o_z
    reaches = np.hypot(rel[:, 0], rel[:, 1])
    sizes = np.array([len(polygon) for polygon, _ in footprints])
    n_max = int(sizes.max())
    # Every polygon padded to n_max vertices by repeating its last one
    pad = (np.cumsum(sizes) - sizes)[:, None] \
        + np.minimum(np.arange(n_max), sizes[:, None] - 1)
    vertices = np.concatenate([polygon for polygon, _ in footprints]).astype(
        float, copy=False)[pad]  # (F, V, 2)
    heights = np.array([height for _, height in footprints], dtype=float)
    qp = vertices - o_xy
    centre, half, min_reach, cullable = _wedges(qp)

    # Runs of the bearing-sorted targets, listed twice (the second time a
    # turn on): each cullable wedge's run starts at its lower bearing,
    # wrapped into [-pi, pi), and spans its width, under half a turn, so it
    # holds no target twice; the other footprints take every target.
    bearing = np.arctan2(rel[:, 1], rel[:, 0])
    order = np.argsort(bearing)
    twice = np.concatenate([bearing[order], bearing[order] + 2.0 * math.pi])
    wedge = np.flatnonzero(cullable)
    lo = np.remainder(centre[wedge] - half[wedge] + math.pi, 2.0 * math.pi) - math.pi
    wide = np.flatnonzero(~cullable)
    starts = np.concatenate([np.searchsorted(twice, lo, "left"),
                             np.zeros(len(wide), dtype=np.intp)])
    stops = np.concatenate([np.searchsorted(twice, lo + 2.0 * half[wedge], "right"),
                            np.full(len(wide), m, dtype=np.intp)])
    lengths = stops - starts
    pair_f = np.repeat(np.concatenate([wedge, wide]), lengths)
    pair_t = order[(np.arange(len(pair_f))
                    + np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)) % m]
    near = reaches[pair_t] >= np.where(cullable, min_reach, -np.inf)[pair_f]
    pair_f, pair_t = pair_f[near], pair_t[near]

    # The edge test of every pair, one edge index at a time.  A padding
    # edge has no length, so den = 0 there and it never hits.
    edges = np.roll(vertices, -1, axis=1) - vertices  # edge vectors
    t_num = qp[..., 0] * edges[..., 1] - qp[..., 1] * edges[..., 0]
    per_pair = np.take(np.concatenate([edges[..., 0], edges[..., 1], qp[..., 0],
                                       qp[..., 1], t_num, heights[:, None]], axis=1),
                       pair_f, axis=0).T
    sx, sy, qx, qy, t_num = per_pair[:-1].reshape(5, n_max, -1)
    pair_height = per_pair[-1]
    rx, ry = rel[pair_t, 0], rel[pair_t, 1]
    pair_dz = dz[pair_t]
    blocked = np.zeros(len(pair_t), dtype=bool)
    # Pairs with |den| <= 1e-15 are masked out below; only such a pair can
    # overflow (numerators stay near 1e10, so it takes |den| < 1e-298).
    # On edge-parallel rays t is inf, and t * dz may be nan.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for j in range(n_max):
            den = rx * sy[j] - ry * sx[j]
            t = t_num[j] / den
            u = (qx[j] * ry - qy[j] * rx) / den
            blocked |= (np.abs(den) > 1e-15) \
                & (t > _ENDPOINT_TOL) & (t < 1.0 - _ENDPOINT_TOL) \
                & (u >= -1e-12) & (u <= 1.0 + 1e-12) & (o_z + t * pair_dz < pair_height)
    return np.bincount(pair_t[blocked], minlength=m).astype(np.int64, copy=False)
