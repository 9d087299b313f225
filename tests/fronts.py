"""Front-quality oracles for the tests: the exhaustive front of an
enumerated objective array, and the dominated hypervolume of a point set
(minimization, 2 or 3 objectives)."""
from typing import Sequence

import numpy as np


def true_front(objectives: np.ndarray) -> np.ndarray:
    """Rank-0 mask over an (n, m) objective array, by a lexicographic sweep.

    Only a point sorted before p can dominate p, and whatever dominates a
    dropped point is dominated by a kept one, so testing each point against
    the points kept so far finds the front.
    """
    mask = np.zeros(len(objectives), dtype=bool)
    kept = objectives[:0]
    for i in np.lexsort(objectives.T[::-1]):
        o = objectives[i]
        if not ((kept <= o).all(axis=1) & (kept < o).any(axis=1)).any():
            mask[i] = True
            kept = np.vstack([kept, o])
    return mask


def _staircase_area(points_2d: np.ndarray, ref: Sequence[float]) -> float:
    """Union area of [p, ref] boxes for 2D minimization points."""
    pts = [p for p in points_2d if p[0] < ref[0] and p[1] < ref[1]]
    if not pts:
        return 0.0
    pts.sort(key=lambda p: (p[0], p[1]))
    area = 0.0
    best_y = ref[1]
    staircase = []
    for p in pts:
        if p[1] < best_y:
            staircase.append(p)
            best_y = p[1]
    for i, p in enumerate(staircase):
        next_x = staircase[i + 1][0] if i + 1 < len(staircase) else ref[0]
        area += (next_x - p[0]) * (ref[1] - p[1])
    return area


def hypervolume(points: Sequence[Sequence[float]], reference: Sequence[float]) -> float:
    """Dominated hypervolume of minimization points against a reference.

    Points at or beyond the reference contribute nothing.  Supports 2 and
    3 objectives (slab sweep over the last objective).
    """
    pts = np.asarray(points, dtype=float)
    ref = np.asarray(reference, dtype=float)
    if pts.ndim != 2 or pts.shape[1] not in (2, 3):
        raise ValueError("hypervolume expects an (n, 2) or (n, 3) point array")
    pts = pts[(pts < ref).all(axis=1)]
    if len(pts) == 0:
        return 0.0
    if pts.shape[1] == 2:
        return _staircase_area(pts, ref)
    z_values = np.unique(pts[:, 2])
    volume = 0.0
    for i, z in enumerate(z_values):
        z_top = z_values[i + 1] if i + 1 < len(z_values) else ref[2]
        active = pts[pts[:, 2] <= z][:, :2]
        volume += _staircase_area(active, ref[:2]) * (z_top - z)
    return float(volume)
