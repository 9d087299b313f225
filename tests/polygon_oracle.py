"""Reference polygon check: `geometry.polygon_is_simple` as it was written
with numpy, one `np.allclose` per edge and numpy vectors per edge pair.

`geometry.polygon_is_simple` makes the same tests on plain floats, and must
give the same answer for every polygon.
"""
import numpy as np


def _cross2(ax, ay, bx, by):
    return ax * by - ay * bx


def polygon_is_simple(vertices: np.ndarray) -> bool:
    v = np.asarray(vertices, dtype=float)
    n = len(v)
    if n < 3:
        return False
    edges = [(v[i], v[(i + 1) % n]) for i in range(n)]
    for i in range(n):
        a1, a2 = edges[i]
        if np.allclose(a1, a2):
            return False  # degenerate edge
        for j in range(i + 1, n):
            adjacent = j == i + 1 or (i == 0 and j == n - 1)
            if adjacent:
                continue
            b1, b2 = edges[j]
            if _segments_touch(a1, a2, b1, b2):
                return False
    return True


def _segments_touch(p1, p2, q1, q2) -> bool:
    r = p2 - p1
    s = q2 - q1
    den = _cross2(r[0], r[1], s[0], s[1])
    qp = q1 - p1
    if abs(den) < 1e-15:
        # Parallel: overlap only if collinear and the 1D projections meet.
        if abs(_cross2(qp[0], qp[1], r[0], r[1])) > 1e-12:
            return False
        t0 = np.dot(qp, r) / np.dot(r, r)
        t1 = np.dot(q2 - p1, r) / np.dot(r, r)
        lo, hi = min(t0, t1), max(t0, t1)
        return hi >= 0.0 and lo <= 1.0
    t = _cross2(qp[0], qp[1], s[0], s[1]) / den
    u = _cross2(qp[0], qp[1], r[0], r[1]) / den
    return 0.0 <= t <= 1.0 and 0.0 <= u <= 1.0
