"""Crash-safe file replacement and the one `#`-header CSV writer."""
from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterable, Sequence


@contextmanager
def replaced_atomically(path, mode: str = "w"):
    """Open a sibling temporary file that replaces `path` on a clean exit.

    If the body raises, the temporary file is removed and `path` keeps its
    previous contents.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def write_csv(path, header_lines: Sequence[str], columns: Sequence[str],
              rows: Iterable[Sequence[str]]) -> None:
    """`# `-prefixed header lines, a column row, then one line per row of cells."""
    with replaced_atomically(path) as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def write_grid_csv(path, header_lines: Sequence[str], grid, column: str,
                   cells: Iterable[str]) -> None:
    """One (x_m, y_m, column) row per cell of a GridSpec, row-major order."""
    # Python scalars: numpy 2 scalars repr as np.float64(...).
    write_csv(path, header_lines, ["x_m", "y_m", column],
              ((repr(x), repr(y), cell)
               for (x, y, _), cell in zip(grid.centers().tolist(), cells)))
