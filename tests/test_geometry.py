import pathlib
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import polygon_oracle
from occlusion_oracle import brute_force_counts
from semeplan.geometry import count_blocking_footprints, polygon_is_simple
from semeplan.scenario import scenario_from_dict
from semeplan.synthetic import demo_scenario

ROOT = pathlib.Path(__file__).resolve().parents[1]
SQUARE = np.array([[0.0, 0.0], [10.0, 0.0], [10.0, 10.0], [0.0, 10.0]])


def test_square_is_simple():
    assert polygon_is_simple(SQUARE)


def test_bowtie_is_not_simple():
    bowtie = np.array([[0.0, 0.0], [10.0, 10.0], [10.0, 0.0], [0.0, 10.0]])
    assert not polygon_is_simple(bowtie)


def test_degenerate_polygons_rejected():
    assert not polygon_is_simple(np.array([[0.0, 0.0], [1.0, 1.0]]))
    repeated = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
    assert not polygon_is_simple(repeated)


@st.composite
def grid_polygons(draw):
    """3 to 7 vertices on a 5 x 5 grid, so that repeated vertices (degenerate
    edges), collinear overlaps and vertices touching edges are common.  The
    grid is shifted and scaled by a power of two, which keeps every product
    exact, to bring the step near the tolerances of the edge test."""
    n = draw(st.integers(3, 7))
    grid = st.tuples(st.integers(0, 4), st.integers(0, 4))
    pts = np.array(draw(st.lists(grid, min_size=n, max_size=n)), dtype=float)
    shift = draw(st.sampled_from([0.0, 1024.0, 100000.0]))
    scale = draw(st.sampled_from([1.0, 2.0 ** -4, 2.0 ** -24, 2.0 ** -27, 2.0 ** 16]))
    return (pts + shift) * scale


@settings(max_examples=300)
@given(grid_polygons())
@example(SQUARE)
@example(np.array([[0.0, 0.0], [4.0, 0.0], [4.0, 2.0], [1.0, 2.0], [1.0, 4.0],
                   [0.0, 4.0]]))  # simple, concave
@example(np.array([[0.0, 0.0], [0.0, 0.0], [2.0, 0.0], [2.0, 2.0]]))  # repeated vertex
@example(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1e-9], [0.0, 1.0]]))  # edge below atol
@example(np.array([[0.0, 0.0], [4.0, 0.0], [4.0, 2.0], [2.0, 2.0], [2.0, 0.0],
                   [1.0, 0.0], [1.0, 3.0], [0.0, 3.0]]))  # collinear overlap
@example(np.array([[0.0, 0.0], [4.0, 0.0], [4.0, 4.0], [2.0, 0.0]]))  # vertex on an edge
@example(np.array([[0.0, 0.0], [2.0, 2.0], [4.0, 0.0], [4.0, 4.0], [2.0, 2.0],
                   [0.0, 4.0]]))  # two vertices touch
def test_polygon_check_matches_the_numpy_oracle(polygon):
    assert polygon_is_simple(polygon) == polygon_oracle.polygon_is_simple(polygon)


def test_segment_through_building_blocks():
    fp = [(SQUARE + [20.0, -5.0], 30.0)]  # x in [20, 30], tall
    origin = np.array([0.0, 0.0, 10.0])
    targets = np.array([[50.0, 0.0, 1.5], [50.0, 40.0, 1.5]])
    counts = count_blocking_footprints(origin, targets, fp)
    assert counts.tolist() == [1, 0]


def test_height_gate_lets_ray_pass_over():
    # Crossing at the midpoint, ray height ~ 15 m there: a 10 m slab is
    # cleared, a 30 m slab blocks.
    origin = np.array([0.0, 0.0, 30.0])
    targets = np.array([[100.0, 0.0, 1.5]])
    low = [(SQUARE + [45.0, -5.0], 10.0)]
    high = [(SQUARE + [45.0, -5.0], 30.0)]
    assert count_blocking_footprints(origin, targets, low).tolist() == [0]
    assert count_blocking_footprints(origin, targets, high).tolist() == [1]


def test_source_on_wall_does_not_self_block():
    fp = [(SQUARE, 20.0)]
    origin = np.array([10.0, 5.0, 6.0])  # exactly on the east wall
    targets = np.array([[40.0, 5.0, 1.5]])  # heading away from the slab
    assert count_blocking_footprints(origin, targets, fp).tolist() == [0]


def test_multiple_buildings_accumulate():
    fps = [(SQUARE + [20.0, -5.0], 25.0), (SQUARE + [40.0, -5.0], 25.0)]
    origin = np.array([0.0, 0.0, 10.0])
    targets = np.array([[60.0, 0.0, 1.5]])
    assert count_blocking_footprints(origin, targets, fps).tolist() == [2]


def test_long_wall_blocks_target_nearer_than_its_corners():
    # Facing the middle of a 200 m wall from 1 m away, a target 6 m out is
    # beyond the wall yet far nearer than either corner (about 100 m).
    wall = [(np.array([[-100.0, 0.0], [100.0, 0.0], [100.0, 2.0],
                       [-100.0, 2.0]]), 30.0)]
    origin = np.array([0.0, -1.0, 10.0])
    targets = np.array([[0.0, 5.0, 1.5], [3.0, 4.0, 1.5], [0.0, -0.5, 1.5],
                        [0.0, 5e-7, 1.5]])  # last: just past the wall
    counts = count_blocking_footprints(origin, targets, wall)
    assert counts.tolist() == [1, 1, 0, 1]
    assert counts.tolist() == brute_force_counts(origin, targets, wall).tolist()


# Integer coordinates put targets exactly on vertices and on the lines that
# extend the edges, where the edge parameter sits at its tolerance.
coord = st.integers(-12, 12).map(float)
size = st.integers(1, 8).map(float)


@st.composite
def footprints(draw):
    x0, y0, w, h = draw(coord), draw(coord), draw(size), draw(size)
    if draw(st.booleans()):
        polygon = [[x0, y0], [x0 + w, y0], [x0 + w, y0 + h], [x0, y0 + h]]
    else:  # L shape: a notch cut from the top-right corner
        w1 = draw(st.integers(1, 8).map(float))
        h1 = draw(st.integers(1, 8).map(float))
        polygon = [[x0, y0], [x0 + w + w1, y0], [x0 + w + w1, y0 + h1],
                   [x0 + w, y0 + h1], [x0 + w, y0 + h + h1], [x0, y0 + h + h1]]
    if draw(st.booleans()):
        polygon = polygon[::-1]  # clockwise
    return np.array(polygon), float(draw(st.integers(2, 40)))


def _on_edge(polygon, i, lam):
    a, b = polygon[i], polygon[(i + 1) % len(polygon)]
    return a + lam * (b - a)


@st.composite
def occlusion_cases(draw):
    fps = draw(st.lists(footprints(), min_size=1, max_size=4))
    polygon = fps[0][0]
    i = draw(st.integers(0, len(polygon) - 1))
    origin_xy = draw(st.sampled_from([
        np.array([draw(coord), draw(coord)]),          # anywhere
        _on_edge(polygon, i, draw(st.sampled_from([0.0, 0.5, 0.25]))),  # on a wall
        polygon[[i, (i + 2) % len(polygon)]].mean(axis=0),  # inside or across
    ]))
    origin = np.append(origin_xy, float(draw(st.integers(1, 45))))
    points = [np.array([draw(coord), draw(coord)]) for _ in range(20)]
    for poly, _ in fps:  # vertices and points on the extended edge lines
        points += list(poly)
        points += [_on_edge(poly, j, float(draw(st.integers(-3, 4))) / 2.0)
                   for j in range(len(poly))]
    heights = draw(st.lists(st.integers(0, 45), min_size=len(points),
                            max_size=len(points)))
    targets = np.column_stack([np.array(points), np.array(heights, float)])
    return origin, targets, fps


@given(occlusion_cases())
def test_culled_counts_equal_brute_force(case):
    origin, targets, fps = case
    np.testing.assert_array_equal(count_blocking_footprints(origin, targets, fps),
                                  brute_force_counts(origin, targets, fps))


@given(footprints(), st.floats(0.0, 2.0 * np.pi), st.floats(0.0, 1.0))
def test_culled_counts_equal_brute_force_on_rotated_footprints(fp, angle, lam):
    # Off-axis edges give non-integer vertices; origins on a wall and inside.
    c, s = np.cos(angle), np.sin(angle)
    polygon = fp[0] @ np.array([[c, s], [-s, c]])
    fps = [(polygon, fp[1])]
    ring = np.linspace(0.0, 2.0 * np.pi, 48, endpoint=False)
    xy = np.vstack([30.0 * np.column_stack([np.cos(ring), np.sin(ring)]), polygon])
    targets = np.column_stack([xy, np.full(len(xy), 1.5)])
    for origin_xy in (_on_edge(polygon, 0, lam), polygon.mean(axis=0),
                      polygon[0] + 3.0 * (polygon[0] - polygon.mean(axis=0))):
        origin = np.append(origin_xy, 5.0)
        np.testing.assert_array_equal(count_blocking_footprints(origin, targets, fps),
                                      brute_force_counts(origin, targets, fps))


@st.composite
def star_polygons(draw):
    """5 to 9 integer vertices around a centre, convex or, with a smaller
    inner radius on every other vertex, concave."""
    n = draw(st.integers(5, 9))
    cx, cy = draw(coord), draw(coord)
    outer = draw(st.integers(6, 20))
    inner = draw(st.integers(3, outer))
    turn = draw(st.floats(0.0, 1.0))
    angles = 2.0 * np.pi * (np.arange(n) + turn) / n
    radii = np.where(np.arange(n) % 2, inner, outer)
    polygon = np.round(np.column_stack([cx + radii * np.cos(angles),
                                        cy + radii * np.sin(angles)]))
    assume(polygon_is_simple(polygon))
    if draw(st.booleans()):
        polygon = polygon[::-1]  # clockwise
    return polygon, float(draw(st.integers(2, 40)))


@given(star_polygons(), footprints(), st.integers(0, 8),
       st.sampled_from([-2.0, -1.0, 0.0, 1.0, 3.0]), st.integers(1, 45),
       st.lists(st.integers(0, 45), min_size=8, max_size=8))
def test_culled_counts_equal_brute_force_on_many_sided_footprints(
        star, other, i, lam, origin_z, heights):
    # The origin sits on the line through edge i of the star, at a vertex or
    # outside the edge.  Targets on that line, and targets offset from any
    # origin along an edge, make rays parallel to that edge (den = 0, where
    # t is inf).  All coordinates are integers, so den is exactly 0.
    polygon = star[0]
    a = polygon[i % len(polygon)]
    b = polygon[(i + 1) % len(polygon)]
    fps = [star, other]
    ring = np.linspace(0.0, 2.0 * np.pi, 24, endpoint=False)
    for origin_xy in (a + lam * (b - a), polygon.mean(axis=0).round(),
                      np.array([-30.0, 7.0])):
        xy = [30.0 * np.column_stack([np.cos(ring), np.sin(ring)]), polygon]
        xy += [a + mu * (b - a) for mu in (-3.0, -1.0, 0.0, 1.0, 2.0, 4.0)]
        for poly, _ in fps:
            edges = np.concatenate([poly[1:], poly[:1]]) - poly
            xy += [origin_xy + k * edges for k in (-2.0, 1.0, 3.0)]
        xy = np.vstack(xy)
        z = np.resize(np.array(heights, float), len(xy))
        targets = np.column_stack([xy, z])
        origin = np.append(origin_xy, float(origin_z))
        np.testing.assert_array_equal(count_blocking_footprints(origin, targets, fps),
                                      brute_force_counts(origin, targets, fps))


@st.composite
def radial_polygons(draw):
    """3 to 8 vertices at distinct bearings (multiples of 22.5 degrees)
    around a centre, at radii 2 to 12: concave where a vertex dips inward.
    Coordinates are rounded to 0.5 m, so some vertices and edge lines sit
    exactly on the origins and targets drawn below."""
    n = draw(st.integers(3, 8))
    steps = np.sort(draw(st.lists(st.integers(0, 15), min_size=n, max_size=n,
                                  unique=True)))
    radii = np.array(draw(st.lists(st.integers(2, 12), min_size=n, max_size=n)), float)
    centre = np.array([draw(coord), draw(coord)])
    angles = steps * (np.pi / 8.0)
    polygon = np.round(2.0 * (centre + radii[:, None] * np.column_stack(
        [np.cos(angles), np.sin(angles)]))) / 2.0
    assume(polygon_is_simple(polygon))
    if draw(st.booleans()):
        polygon = polygon[::-1]  # clockwise
    return polygon, float(draw(st.integers(2, 40))), centre


@st.composite
def seam_cases(draw):
    polygon, height, centre = draw(radial_polygons())
    fps = [(polygon, height)] + draw(st.lists(footprints(), max_size=2))
    i = draw(st.integers(0, len(polygon) - 1))
    a, b = polygon[i], polygon[(i + 1) % len(polygon)]
    place = draw(st.sampled_from(["wall", "vertex", "centre", "seam", "anywhere"]))
    if place == "wall":
        origin_xy = a + draw(st.sampled_from([0.25, 0.5, 0.75])) * (b - a)
    elif place == "vertex":
        origin_xy = a.copy()
    elif place == "centre":  # inside unless every vertex lies in one half-plane
        origin_xy = centre
    elif place == "seam":
        # East of the polygon at its height: its wedge crosses the bearing +-pi.
        origin_xy = np.array([polygon[:, 0].max() + draw(st.integers(1, 20)),
                              draw(st.sampled_from([polygon[:, 1].mean(), centre[1],
                                                    a[1]]))])
    else:
        origin_xy = np.array([draw(coord), draw(coord)])
    origin = np.append(origin_xy, float(draw(st.integers(1, 45))))
    ring = np.linspace(0.0, 2.0 * np.pi, 24, endpoint=False)
    ray = np.array([draw(st.integers(-3, 3)), draw(st.integers(-3, 3))], float)
    xy = [origin_xy[None],                                     # at the origin
          origin_xy + np.outer([1.0, 2.0, 5.0, 9.0], ray),    # one bearing
          origin_xy - np.outer([1.0, 4.0, 10.0, 25.0], [1.0, 0.0]),  # on +-pi
          origin_xy + np.outer([-6.0, -14.0, -30.0], [1.0, 1e-9]),  # just above it
          origin_xy + np.outer([-6.0, -14.0, -30.0], [1.0, -1e-9]),  # just below
          origin_xy + 30.0 * np.column_stack([np.cos(ring), np.sin(ring)])]
    for poly, _ in fps:  # vertices and points on the extended edge lines
        xy += [poly] + [_on_edge(poly, j, float(draw(st.integers(-3, 4))) / 2.0)[None]
                        for j in range(len(poly))]
    xy = np.vstack(xy)
    heights = draw(st.lists(st.integers(0, 45), min_size=8, max_size=8))
    targets = np.column_stack([xy, np.resize(np.array(heights, float), len(xy))])
    return origin, targets, fps


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=300)
@given(seam_cases())
def test_counts_equal_brute_force_at_walls_vertices_and_the_seam(case):
    # Floating-point warnings are errors: no wedge of the cull may compute
    # on an inf or a nan, the uncullable ones included.
    origin, targets, fps = case
    with np.errstate(all="raise"):
        counts = count_blocking_footprints(origin, targets, fps)
    np.testing.assert_array_equal(counts, brute_force_counts(origin, targets, fps))


def test_counts_equal_brute_force_from_every_demo_origin():
    # The demo town and the benchmark's seeded town, whose occlusion the
    # town-build workload runs.
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import town
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    for document in (demo_scenario(), town.town(21)):
        sc = scenario_from_dict(document)
        targets = sc.grid.centers()
        fps = sc.footprints()
        for origin in [sc.bts.position] + [site.position for site in sc.sites]:
            np.testing.assert_array_equal(
                count_blocking_footprints(origin, targets, fps),
                brute_force_counts(origin, targets, fps))
