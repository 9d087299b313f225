from collections import deque

import numpy as np
import pytest
from hypothesis import given, strategies as st

from semeplan.analysis import (BlindSpot, coverage_cdf, empirical_cdf,
                               extract_blindspot, read_archive_csv,
                               reduction_stats, select_representatives,
                               write_archive_csv, write_reduction_table,
                               write_solution_table)
from semeplan.nsga2 import ArchiveEntry
from semeplan.propagation import power_map_dbm
from semeplan.siteplanner import Roi

PTH = -65.0


def bfs_components(mask, min_cells):
    """Independent 8-connected labeling oracle."""
    ny, nx = mask.shape
    seen = np.zeros_like(mask, dtype=bool)
    comps = []
    for iy in range(ny):
        for ix in range(nx):
            if not mask[iy, ix] or seen[iy, ix]:
                continue
            queue = deque([(iy, ix)])
            seen[iy, ix] = True
            cells = []
            while queue:
                cy, cx = queue.popleft()
                cells.append((cy, cx))
                for dy in (-1, 0, 1):
                    for dx in (-1, 0, 1):
                        ny2, nx2 = cy + dy, cx + dx
                        if 0 <= ny2 < ny and 0 <= nx2 < nx \
                                and mask[ny2, nx2] and not seen[ny2, nx2]:
                            seen[ny2, nx2] = True
                            queue.append((ny2, nx2))
            if len(cells) >= min_cells:
                comps.append(tuple(sorted(cells)))
    comps.sort(key=lambda c: c[0])
    return tuple(comps)


def test_all_covered_map_has_no_regions():
    power = np.full((1, 6, 6), -40.0)
    bs = extract_blindspot(power, PTH)
    assert not bs.masks.any()
    assert bs.components == ((),)


def test_min_area_filter_keeps_raw_mask():
    power = np.full((1, 6, 6), -40.0)
    power[0, 3, 3] = -70.0
    bs = extract_blindspot(power, PTH, min_cells=2)
    assert bs.masks[0, 3, 3]
    assert bs.masks.sum() == 1
    assert bs.components == ((),)
    assert len(bs.region_cells(0)) == 0


def test_two_separated_clusters():
    power = np.full((1, 10, 10), -40.0)
    power[0, 1:3, 1:3] = -70.0
    power[0, 7:9, 6:9] = -70.0
    bs = extract_blindspot(power, PTH, min_cells=2)
    assert len(bs.components[0]) == 2
    sizes = sorted(len(c) for c in bs.components[0])
    assert sizes == [4, 6]


def test_threshold_is_strict():
    power = np.full((1, 4, 4), PTH)
    bs = extract_blindspot(power, PTH)
    assert not bs.masks.any()


def test_components_match_bfs_oracle_on_hand_mask():
    mask = np.zeros((10, 10), dtype=bool)
    mask[0, 0:3] = True
    mask[1, 1] = True
    mask[4, 4] = True          # single speck, filtered at min_cells=2
    mask[6:9, 6:9] = True
    mask[5, 5] = True          # touches the block diagonally: 8-connectivity
    power = np.where(mask, -70.0, -40.0)[None, :, :]
    bs = extract_blindspot(power, PTH, min_cells=2)
    assert bs.components[0] == bfs_components(mask, 2)


def test_components_match_bfs_oracle_on_random_masks():
    rng = np.random.default_rng(8)
    for _ in range(20):
        mask = rng.random((12, 12)) < 0.35
        power = np.where(mask, -70.0, -40.0)[None, :, :]
        bs = extract_blindspot(power, PTH, min_cells=3)
        assert bs.components[0] == bfs_components(mask, 3)


@st.composite
def label_masks(draw):
    """Boolean masks: random, diagonal-only contacts, border-only, empty and
    full, on grids of 1-12 rows and 1-12 columns."""
    ny, nx = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    iy, ix = np.indices((ny, nx))
    kind = draw(st.sampled_from(("random", "diagonal", "border", "empty",
                                 "full")))
    if kind == "empty":
        return np.zeros((ny, nx), dtype=bool)
    if kind == "full":
        return np.ones((ny, nx), dtype=bool)
    bits = np.array(draw(st.lists(st.booleans(), min_size=ny * nx,
                                  max_size=ny * nx))).reshape(ny, nx)
    if kind == "diagonal":  # one checkerboard colour: cells touch at corners only
        return bits & ((iy + ix) % 2 == draw(st.integers(0, 1)))
    if kind == "border":
        return bits & ((iy == 0) | (ix == 0) | (iy == ny - 1) | (ix == nx - 1))
    return bits


@given(label_masks(), st.integers(0, 12))
def test_components_match_bfs_oracle_on_mask_kinds(mask, min_cells):
    power = np.where(mask, -70.0, -40.0)[None, :, :]
    bs = extract_blindspot(power, PTH, min_cells=min_cells)
    assert bs.components[0] == bfs_components(mask, min_cells)


def test_labeling_row_major_deterministic():
    power = np.full((1, 6, 6), -40.0)
    power[0, 4, 0:2] = -70.0   # lower block, later in row-major order
    power[0, 0, 3:5] = -70.0   # first row, earliest first cell
    bs = extract_blindspot(power, PTH, min_cells=2)
    assert bs.components[0][0][0] == (0, 3)
    assert bs.components[0][1][0] == (4, 0)


def test_empirical_cdf_properties():
    rng = np.random.default_rng(0)
    values = rng.uniform(-80, -40, size=200)
    grid = np.linspace(-90, -30, 61)
    cdf = empirical_cdf(values, grid)
    assert cdf[0] == 0.0
    assert cdf[-1] == 1.0
    assert (np.diff(cdf) >= 0.0).all()
    # counting oracle
    for p_hat, c in zip(grid[::7], cdf[::7]):
        assert c == pytest.approx((values <= p_hat).mean())


def test_coverage_cdf_reference_region(coverable):
    power = power_map_dbm(coverable["dbs"]["coherent"], [0, 0], 0)
    bs = coverable["blindspot"]
    grid = np.linspace(-80, -30, 51)
    cdf = coverage_cdf(power, bs, 0, grid)
    # all reference blind cells sit below the threshold by construction
    at_pth = coverage_cdf(power, bs, 0, np.array([PTH]))
    assert at_pth[0] == 1.0
    assert (np.diff(cdf) >= 0).all()
    with pytest.raises(ValueError, match="at least one value|empty"):
        empty = BlindSpot(masks=np.zeros((1, 2, 2), bool), components=((),))
        coverage_cdf(power, empty, 0, grid)


def archive_of(vectors):
    return tuple(ArchiveEntry(genes=(i,), objectives=tuple(v))
                 for i, v in enumerate(vectors))


def test_representatives_hand_example():
    archive = archive_of([(0.0, 0.9, 0.9), (0.1, 0.1, 0.5), (0.2, 0.5, 0.05)])
    reps = select_representatives(archive)
    assert reps["best_coverage"].genes == (0,)
    assert reps["best_compromise"].genes == (1,)
    assert reps["coverage_cost"].genes == (1,)
    assert reps["coverage_energy"].genes == (2,)


def test_representatives_singleton():
    archive = archive_of([(0.5, 0.5, 0.5)])
    reps = select_representatives(archive)
    assert all(entry.genes == (0,) for entry in reps.values())


def test_representatives_brute_force_and_permutation():
    rng = np.random.default_rng(17)
    scores = {
        "best_coverage": lambda o: o[0],
        "best_compromise": lambda o: abs(o[0]) + abs(o[1]) + abs(o[2]),
        "coverage_cost": lambda o: abs(o[0]) + abs(o[1]),
        "coverage_energy": lambda o: abs(o[0]) + abs(o[2]),
    }
    for _ in range(30):
        vecs = [tuple(v) for v in rng.random((int(rng.integers(1, 12)), 3))]
        archive = archive_of(vecs)
        reps = select_representatives(archive)
        for name, score in scores.items():
            best = min(score(v) for v in vecs)
            assert score(reps[name].objectives) == pytest.approx(best)
        perm = rng.permutation(len(vecs))
        shuffled = archive_of([vecs[i] for i in perm])
        reps2 = select_representatives(shuffled)
        for name in scores:
            assert reps2[name].objectives == reps[name].objectives


def table_rows(path):
    """The data rows of a written CSV table, each a {column: cell} dict."""
    lines = [line for line in path.read_text().splitlines()
             if not line.startswith("#")]
    columns = lines[0].split(",")
    return [dict(zip(columns, line.split(","))) for line in lines[1:]]


def test_reduction_stats_zero_and_full(tmp_path):
    grid_area = 25.0
    roi = Roi(index=1, cells=(((2, 2), (2, 3)), ((2, 2),)),
              barycenters=((12.0, 10.0), (10.0, 10.0)),
              avg_barycenter=(11.0, 10.0), cell_area=grid_area)
    ref = np.full((2, 6, 6), -70.0)
    stats = reduction_stats(ref, ref.copy(), [roi], PTH)
    assert all(s.reduction_pct == 0.0 for s in stats)
    assert all(s.gain_min_db == 0.0 and s.gain_max_db == 0.0 for s in stats)

    lifted = np.full((2, 6, 6), -50.0)
    stats = reduction_stats(ref, lifted, [roi], PTH)
    assert all(s.reduction_pct == 100.0 for s in stats)
    assert all(s.gain_avg_db == pytest.approx(20.0) for s in stats)
    path = tmp_path / "reduction.csv"
    write_reduction_table({"lifted": stats}, path)
    for row in table_rows(path):  # drop columns: gains with the sign flipped
        assert float(row["drop_avg_db"]) == -float(row["gain_avg_db"]) == -20.0
        assert float(row["drop_min_db"]) == -float(row["gain_max_db"])
        assert float(row["drop_max_db"]) == -float(row["gain_min_db"])
    assert stats[0].area_ref_m2 == 2 * grid_area
    assert stats[1].area_ref_m2 == 1 * grid_area


def test_reduction_counts_reference_cells_only():
    roi = Roi(index=1, cells=(((0, 0), (0, 1)),), barycenters=((2.5, 0.0),),
              avg_barycenter=(2.5, 0.0), cell_area=25.0)
    ref = np.full((1, 2, 2), -70.0)
    new = ref.copy()
    new[0, 0, 0] = -60.0  # one of two reference cells recovered
    stats = reduction_stats(ref, new, [roi], PTH)
    assert stats[0].reduction_pct == pytest.approx(50.0)
    assert 0.0 <= stats[0].reduction_pct <= 100.0


def test_summarize_counts_devices(coverable, tmp_path):
    entry = ArchiveEntry(genes=(3, 4), objectives=(0.0, 0.5, 0.5))
    path = tmp_path / "solutions.csv"
    write_solution_table({"best_coverage": entry},
                         coverable["scenario"].catalog, path)
    [row] = table_rows(path)
    assert row["solution"] == "best_coverage" and row["genes"] == "3;4"
    assert row["n_SP-EMS"] == row["n_RP-EMS"] == "0"
    assert row["n_SR"] == row["n_IAB"] == "1"
    assert row["n_devices"] == "2"
    assert row["total_cost"] == "10500.0"
    assert row["total_energy_w"] == "370.0"


def test_archive_csv_round_trip(tmp_path):
    archive = archive_of([(0.25, 0.5, 0.75), (1.0, 0.0, 0.125)])
    path = tmp_path / "archive.csv"
    write_archive_csv(archive, path, ["scenario_hash=x"])
    again = read_archive_csv(path)
    assert [e.objectives for e in again] == [e.objectives for e in archive]
    assert [e.genes for e in again] == [e.genes for e in archive]
