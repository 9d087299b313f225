import numpy as np
import pytest

from semeplan.csvfile import write_csv
from semeplan.propagation import export_power_csv
from semeplan.scenario import GridSpec
from semeplan.siteplanner import write_region_raster_csv


def test_failed_write_keeps_previous_file(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["h"], ["x"], [("1",), ("2",)])
    before = path.read_bytes()

    def rows():
        yield ("7",)
        raise RuntimeError("row source failed")

    with pytest.raises(RuntimeError, match="row source failed"):
        write_csv(path, ["h2"], ["x"], rows())
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv"]


def reference_grid_csv(header_lines, grid, column, cells) -> bytes:
    """A grid CSV written row by row, each coordinate formed on its own."""
    text = "".join(f"# {line}\n" for line in header_lines) + f"x_m,y_m,{column}\n"
    cells = iter(cells)
    for iy in range(grid.ny):
        for ix in range(grid.nx):
            x = grid.origin[0] + float(ix) * grid.spacing
            y = grid.origin[1] + float(iy) * grid.spacing
            text += f"{x!r},{y!r},{next(cells)}\n"
    return text.encode()


def test_grid_writers_equal_a_row_by_row_writer(tmp_path):
    # Two grids with negative origins and fractional spacings, alternated so
    # that a prefix cached for the other grid would show.
    grids = [GridSpec(origin=(-12.5, -3.75), spacing=0.3, nx=7, ny=5, height=1.5),
             GridSpec(origin=(-0.1, 2.2), spacing=2.5 / 3.0, nx=4, ny=6,
                      height=2.0)]
    rng = np.random.default_rng(0)
    for k in range(4):
        grid = grids[k % 2]
        headers = ["scenario_hash=abc", f"pass={k}"]
        power = rng.normal(-70.0, 10.0, (grid.ny, grid.nx))
        mask = rng.random((grid.ny, grid.nx)) < 0.5
        export_power_csv(grid, power, tmp_path / "map.csv", headers)
        write_region_raster_csv(mask, grid, tmp_path / "region.csv", headers)
        assert (tmp_path / "map.csv").read_bytes() == reference_grid_csv(
            headers, grid, "power_dbm", map(repr, power.ravel().tolist()))
        assert (tmp_path / "region.csv").read_bytes() == reference_grid_csv(
            headers, grid, "inside", ("1" if v else "0" for v in mask.ravel()))
