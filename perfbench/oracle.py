"""Independent checks of the pipeline outputs.

Nothing here calls the program's objective, sorting or hypervolume code.
The field database is read with the layout the README documents, the
blind spot is recomputed with `scipy.ndimage`, and every archive member's
objectives are recomputed from the database, the catalog and
`siteplan.json`.

Tolerance: recomputed coverage deficits must match `archive.csv` within
1e-9 relative (1e-12 absolute); cost and energy fractions within 1e-12
relative.  The file stores complex64 grids and both sides widen them to
float64 before summing, so only summation order can differ.
"""
from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

DB_MAGIC = b"SEMEDB01"
FREE_SPACE_IMPEDANCE = 376.730313668  # ohm
POWER_FLOOR_DBM = -300.0  # deficits treat cells below this as at this power
COVERAGE_RTOL, COVERAGE_ATOL = 1e-9, 1e-12
FRACTION_RTOL = 1e-12
REPRESENTATIVES = ("best_coverage", "best_compromise", "coverage_cost",
                   "coverage_energy")


class OracleError(AssertionError):
    pass


def check(condition, message: str) -> None:
    if not condition:
        raise OracleError(message)


@dataclass
class FieldDb:
    header: dict
    reference: np.ndarray  # (T, 3, ny, nx) complex64, read-only view
    entries: dict          # (site, gene value) -> (T, 3, ny, nx) complex64

    @property
    def wavelength(self) -> float:
        return float(self.header["wavelength_m"])

    @property
    def cell_area(self) -> float:
        return float(self.header["grid"]["spacing_m"]) ** 2


def read_mapdb(path: str) -> FieldDb:
    """Parse mapdb.bin: magic, uint32 header length, JSON header, grids."""
    with open(path, "rb") as fh:
        blob = fh.read()
    check(blob[:8] == DB_MAGIC, f"{path}: bad magic {blob[:8]!r}")
    header_len = int.from_bytes(blob[8:12], "little")
    header = json.loads(blob[12:12 + header_len].decode())
    grid = header["grid"]
    shape = (int(header["time_instants"]), 3, int(grid["ny"]), int(grid["nx"]))
    keys = [(int(n), int(s)) for n, s in header["entries"]]
    check(keys == sorted(set(keys)), "database entry directory is not sorted/unique")
    grid_bytes = int(np.prod(shape)) * 8
    expected = 12 + header_len + (1 + len(keys)) * grid_bytes
    check(len(blob) == expected,
          f"database is {len(blob)} bytes, layout says {expected}")
    data = np.frombuffer(blob, dtype="<c8", offset=12 + header_len)
    data = data.reshape((1 + len(keys),) + shape)
    return FieldDb(header=header, reference=data[0],
                   entries={key: data[k + 1] for k, key in enumerate(keys)})


def power_watts(fields: np.ndarray, wavelength: float) -> np.ndarray:
    """Isotropic received power of complex field components (axis 0)."""
    fields = fields.astype(np.complex128)
    intensity = (fields.real ** 2 + fields.imag ** 2).sum(axis=0)
    return intensity * (wavelength ** 2 / (8.0 * np.pi * FREE_SPACE_IMPEDANCE))


def to_dbm(watts: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return 10.0 * np.log10(watts * 1e3)


def blind_spot(db: FieldDb, pth_dbm: float, min_cells: int):
    """Per instant: (cells (k, 2) of the kept regions, number of regions)."""
    out = []
    for t in range(db.reference.shape[0]):
        mask = to_dbm(power_watts(db.reference[t], db.wavelength)) < pth_dbm
        labels, count = ndimage.label(mask, structure=np.ones((3, 3), int))
        sizes = np.bincount(labels.ravel(), minlength=count + 1)
        keep = sizes >= min_cells
        keep[0] = False
        out.append((np.argwhere(keep[labels]), int(keep.sum())))
    return out


class ObjectiveModel:
    """Recomputes (coverage deficit, cost fraction, energy fraction)."""

    def __init__(self, db: FieldDb, spot, plan, catalog, pth_dbm: float,
                 coherent: bool, normalized: bool):
        self.plan = plan  # per site: list of (gene value, roi)
        self.catalog = catalog
        self.pth = pth_dbm
        self.coherent = coherent
        self.normalized = normalized
        self.cell_area = db.cell_area
        self.wavelength = db.wavelength
        self.cells = [cells for cells, _ in spot]

        def restrict(grids):
            return [grids[t][:, c[:, 0], c[:, 1]].astype(np.complex128)
                    for t, c in enumerate(self.cells)]

        self.ref = restrict(db.reference)
        self.entries = {key: restrict(g) for key, g in db.entries.items()}
        self.max_cost = sum(max((catalog[s - 1]["install_cost"] for s, _ in site),
                                default=0.0) for site in plan)
        self.max_energy = sum(max((catalog[s - 1]["energy_w"] for s, _ in site),
                                  default=0.0) for site in plan)

    def coverage(self, genes) -> float:
        selected = [(n, s) for n, s in enumerate(genes) if s]
        total = 0.0
        for t, cells in enumerate(self.cells):
            if len(cells) == 0:
                continue
            if self.coherent:
                fields = self.ref[t].copy()
                for key in selected:
                    fields += self.entries[key][t]
                watts = power_watts(fields, self.wavelength)
            else:
                watts = power_watts(self.ref[t], self.wavelength)
                for key in selected:
                    watts = watts + power_watts(self.entries[key][t], self.wavelength)
            dbm = np.maximum(to_dbm(watts), POWER_FLOOR_DBM)
            short = np.clip(self.pth - dbm, 0.0, None) / abs(self.pth)
            deficit = short.sum() * self.cell_area
            if self.normalized:
                deficit /= len(cells) * self.cell_area
            total += deficit
        return total / len(self.cells)

    def fractions(self, genes) -> tuple[float, float]:
        cost = sum(self.catalog[s - 1]["install_cost"] for s in genes if s)
        energy = sum(self.catalog[s - 1]["energy_w"] for s in genes if s)
        return (cost / self.max_cost if self.max_cost > 0 else 0.0,
                energy / self.max_energy if self.max_energy > 0 else 0.0)


def read_csv(path: str) -> tuple[dict, list[str], list[list[str]]]:
    """(`# key=value` header lines, column names, rows) of a program CSV."""
    meta, rows = {}, []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("# "):
                key, _, value = line[2:].partition("=")
                meta[key] = value
            elif line:
                rows.append(line.split(","))
    return meta, rows[0], rows[1:]


def read_archive(path: str):
    meta, columns, rows = read_csv(path)
    check(columns == ["coverage_deficit", "cost_fraction", "energy_fraction",
                      "genes"], f"unexpected archive columns {columns}")
    genes = [tuple(int(g) for g in r[3].split(";")) for r in rows]
    objectives = np.array([[float(v) for v in r[:3]] for r in rows])
    return meta, genes, objectives.reshape(-1, 3)


def check_objectives(model: ObjectiveModel, genes, objectives) -> None:
    """Every member is feasible and its objectives recompute within tolerance."""
    check(len(genes) > 0, "archive is empty")
    check(len(set(genes)) == len(genes), "archive repeats a chromosome")
    n_sites = len(model.plan)
    for g, obj in zip(genes, objectives):
        check(len(g) == n_sites, f"chromosome {g} has {len(g)} genes, {n_sites} sites")
        for n, s in enumerate(g):
            check(s == 0 or s in {v for v, _ in model.plan[n]},
                  f"chromosome {g}: gene {s} is not feasible at site {n}")
        cov = model.coverage(g)
        check(abs(cov - obj[0]) <= COVERAGE_ATOL + COVERAGE_RTOL * abs(cov),
              f"chromosome {g}: coverage {obj[0]!r}, recomputed {cov!r}")
        for value, expect in zip(obj[1:], model.fractions(g)):
            check(abs(value - expect) <= FRACTION_RTOL * max(1.0, abs(expect)),
                  f"chromosome {g}: fraction {value!r}, recomputed {expect!r}")


def check_nondominated(genes, objectives) -> None:
    """Brute force over all ordered pairs: no member dominates another."""
    no_worse = (objectives[:, None, :] <= objectives[None, :, :]).all(axis=2)
    better = (objectives[:, None, :] < objectives[None, :, :]).any(axis=2)
    for i, j in np.argwhere(no_worse & better)[:1]:
        raise OracleError(f"archive member {genes[i]} dominates {genes[j]}")


def check_solutions(path: str, genes, objectives) -> None:
    _, columns, rows = read_csv(path)
    names = [r[columns.index("solution")] for r in rows]
    check(names == list(REPRESENTATIVES), f"solutions.csv lists {names}")
    members = {g: tuple(o) for g, o in zip(genes, objectives)}
    for r in rows:
        g = tuple(int(v) for v in r[columns.index("genes")].split(";"))
        obj = tuple(float(r[columns.index(c)]) for c in
                    ("coverage_deficit", "cost_fraction", "energy_fraction"))
        check(members.get(g) == obj, f"representative {r[0]} is not an archive member")
    best = [r for r in rows if r[0] == "best_coverage"][0]
    check(float(best[columns.index("coverage_deficit")]) == objectives[:, 0].min(),
          "best_coverage is not the archive's lowest coverage deficit")


def hypervolume(points: np.ndarray, ref) -> float:
    """Exact dominated volume of 3-D minimisation points below `ref`.

    Sweeps z upward; between consecutive z levels the dominated slice is
    the 2-D area of the staircase of all points seen so far.
    """
    pts = [tuple(p) for p in points if all(p[k] < ref[k] for k in range(3))]
    pts.sort(key=lambda p: p[2])
    volume = 0.0
    stair: list[tuple[float, float]] = []  # 2-D non-dominated, x ascending
    for i, (x, y, z) in enumerate(pts):
        if not any(sx <= x and sy <= y for sx, sy in stair):
            stair = sorted([(sx, sy) for sx, sy in stair
                            if not (x <= sx and y <= sy)] + [(x, y)])
        z_next = pts[i + 1][2] if i + 1 < len(pts) else ref[2]
        if z_next > z:
            area = 0.0
            for k, (sx, sy) in enumerate(stair):
                x_next = stair[k + 1][0] if k + 1 < len(stair) else ref[0]
                area += (x_next - sx) * (ref[1] - sy)
            volume += area * (z_next - z)
    return volume


def output_digests(out_dir: str) -> dict:
    """sha256 of every deterministic output: CSVs, manifest, site plan, db."""
    digests = {}
    for name in sorted(os.listdir(out_dir)):
        if name.endswith(".csv") or name in ("manifest.json", "siteplan.json",
                                              "mapdb.bin"):
            h = hashlib.sha256()
            with open(os.path.join(out_dir, name), "rb") as fh:
                for block in iter(lambda: fh.read(1 << 20), b""):
                    h.update(block)
            digests[name] = h.hexdigest()
    return digests
