"""Crash-safe file replacement and the one `#`-header CSV writer."""
from __future__ import annotations

import functools
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


def _write(path, header_lines: Sequence[str], columns: Sequence[str],
           body: str) -> None:
    """`# `-prefixed header lines, a column row, then `body`, in one write."""
    with replaced_atomically(path) as fh:
        fh.write("".join(f"# {line}\n" for line in header_lines)
                 + ",".join(columns) + "\n" + body)


def write_csv(path, header_lines: Sequence[str], columns: Sequence[str],
              rows: Iterable[Sequence[str]]) -> None:
    """`# `-prefixed header lines, a column row, then one line per row of cells."""
    _write(path, header_lines, columns,
           "".join([",".join(row) + "\n" for row in rows]))


@functools.lru_cache(maxsize=4)
def _cell_prefixes(grid) -> tuple[str, ...]:
    """The "x_m,y_m," start of each cell's row of a GridSpec, row-major."""
    # Python scalars: numpy 2 scalars repr as np.float64(...).
    return tuple([f"{x!r},{y!r}," for x, y, _ in grid.centers().tolist()])


def write_grid_csv(path, header_lines: Sequence[str], grid, column: str,
                   cells: Iterable[str]) -> None:
    """One (x_m, y_m, column) row per cell of a GridSpec, row-major order."""
    _write(path, header_lines, ["x_m", "y_m", column],
           "".join([f"{prefix}{cell}\n"
                    for prefix, cell in zip(_cell_prefixes(grid), cells)]))
