"""Simplified propagation engine and the precomputed field database.

The engine models every radiator as a directive spherical-wave source:
free-space spreading, a quadratic gain rolloff with a 30 dB front-to-back
floor, and a fixed per-building penetration loss when the plan-view path
crosses a footprint below its height.  Device contributions are stored per
(site, kind) so that any deployment evaluates as a field superposition
over the reference map.
"""
from __future__ import annotations

import functools
import itertools
import json
import math
from collections.abc import Mapping
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .csvfile import replaced_atomically, write_grid_csv
from .geometry import count_blocking_footprints
from .scenario import (BtsSector, CandidateSite, GridSpec, Scenario, ScenarioError,
                       SeeType, _finite, _parse_grid, grid_to_dict)
from .siteplanner import SitePlan
from .units import FREE_SPACE_IMPEDANCE, dbm_to_watts, watts_to_dbm

DEFAULT_WALL_LOSS_DB = 20.0
BACKLOBE_FLOOR_DB = 30.0
COMBINING_MODES = ("coherent", "incoherent")

_DB_MAGIC = b"SEMEDB01"


class DatabaseError(RuntimeError):
    """Database file problems or database/chromosome mismatches."""


class MissingEntryError(DatabaseError):
    """A chromosome references a (site, kind) pair absent from the database."""


# ---------------------------------------------------------------------------
# Antenna patterns


def _wrap_deg(angle):
    return (np.asarray(angle, dtype=float) + 180.0) % 360.0 - 180.0


def _sector_gain_dbi(sector: BtsSector, directions: np.ndarray) -> np.ndarray:
    """Sectorized panel: independent quadratic rolloff in azimuth and elevation."""
    d = np.atleast_2d(directions)
    az = np.degrees(np.arctan2(d[:, 1], d[:, 0]))
    el = np.degrees(np.arcsin(np.clip(d[:, 2], -1.0, 1.0)))
    d_az = _wrap_deg(az - sector.azimuth_deg)
    d_el = el - (-sector.downtilt_deg)
    att = 12.0 * (d_az / sector.az_beamwidth_deg) ** 2 \
        + 12.0 * (d_el / sector.el_beamwidth_deg) ** 2
    return sector.max_gain_dbi - np.minimum(att, BACKLOBE_FLOOR_DB)


def _pencil_gain_dbi(boresight: np.ndarray, max_gain_dbi: float,
                     directions: np.ndarray) -> np.ndarray:
    """Symmetric beam about a unit `boresight`; its width follows from the
    directive gain."""
    # Classic aperture estimate: G ~ 41253 / (bw_az * bw_el) in degrees.
    g_lin = 10.0 ** (max_gain_dbi / 10.0)
    beamwidth_deg = float(np.sqrt(41253.0 / max(g_lin, 1.0)))
    d = np.atleast_2d(directions)
    cos_psi = np.clip(d @ boresight, -1.0, 1.0)
    psi = np.degrees(np.arccos(cos_psi))
    att = 12.0 * (psi / beamwidth_deg) ** 2
    return max_gain_dbi - np.minimum(att, BACKLOBE_FLOOR_DB)


# ---------------------------------------------------------------------------
# Spherical-wave sources


class _Source(NamedTuple):
    power_w: float             # power fed into the pattern
    gain_dbi: Callable[[np.ndarray], np.ndarray]  # directions (M, 3) -> dBi (M,)
    extra_path_m: float = 0.0  # pre-travelled path, adds phase only


def _polarization(directions: np.ndarray) -> np.ndarray:
    """Vertical transverse unit vectors, (M, 3)."""
    z = np.array([0.0, 0.0, 1.0])
    p = z - directions * directions[:, 2:3]
    norms = np.linalg.norm(p, axis=1)
    degenerate = norms < 1e-9
    if degenerate.any():
        x = np.array([1.0, 0.0, 0.0])
        alt = x - directions[degenerate] * directions[degenerate, 0:1]
        alt /= np.linalg.norm(alt, axis=1, keepdims=True)
        p[degenerate] = alt
        norms[degenerate] = 1.0
    return p / norms[:, None]


def _radiate(scenario: Scenario, position: np.ndarray, sources: Sequence[_Source],
             points: np.ndarray, walls: np.ndarray, wall_loss_db: float) -> np.ndarray:
    """Complex field components (S, 3, M) at the points, one slab per source.

    Every source sits at `position`, so the path geometry is formed once,
    and the phase once per distinct pre-travelled path.  `walls` counts
    the footprints that block the path from `position` to each point.  A
    source without power leaves its slab zero.  A field that overflows to
    a non-finite value raises ScenarioError naming `position`.
    """
    wavelength = scenario.wavelength
    delta = points - position
    dist = np.linalg.norm(delta, axis=1)
    dist = np.maximum(dist, 1e-6)
    directions = delta / dist[:, None]
    # Complex once, so that no source's product casts it again (same values)
    polarization = _polarization(directions).T.astype(np.complex128)
    loss = 10.0 ** (-wall_loss_db * walls / 20.0)
    slabs = np.zeros((len(sources), 3, len(points)), dtype=np.complex128)
    phases = {extra: np.exp(-2j * np.pi * (dist + extra) / wavelength)
              for extra in {src.extra_path_m for src in sources}}
    for slab, src in zip(slabs, sources):
        if src.power_w <= 0.0:
            continue
        gain_db = src.gain_dbi(directions)
        eirp = src.power_w * 10.0 ** (gain_db / 10.0)
        amplitude = np.sqrt(2.0 * FREE_SPACE_IMPEDANCE * eirp / (4.0 * np.pi)) \
            / dist * loss
        # Into the slab without a temporary; adding 0.0 then gives what adding
        # x to the zeroed slab gave, bit for bit (-0.0 becomes +0.0)
        np.multiply(amplitude * phases[src.extra_path_m], polarization, out=slab)
        slab += 0.0
    if not np.isfinite(slabs).all():
        raise ScenarioError(f"the field radiated from {tuple(position.tolist())} "
                            "overflows: check the radiator there")
    return slabs


def _bts_fields(scenario: Scenario, points: np.ndarray,
                wall_loss_db: float) -> np.ndarray:
    """BTS field components at the points, shape (T, 3, M).

    Every sector of every instant radiates in one call; each instant then
    adds its sectors in order.
    """
    position = np.asarray(scenario.bts.position, dtype=float)
    walls = count_blocking_footprints(position, points, scenario.footprints())
    sources = [_Source(power_w=sector.tx_power_w,
                       gain_dbi=functools.partial(_sector_gain_dbi, sector))
               for sectors in scenario.bts.sectors for sector in sectors]
    slabs = _radiate(scenario, position, sources, points, walls, wall_loss_db)
    total = np.zeros((scenario.time_instants, 3, len(points)), dtype=np.complex128)
    for v in range(scenario.bts.sector_count):
        total += slabs[v::scenario.bts.sector_count]
    return total


# ---------------------------------------------------------------------------
# Fields: (T, 3, ny, nx) complex128 arrays, indexed [t][component xyz][iy][ix]


def fields_to_power_watts(values: np.ndarray, wavelength: float) -> np.ndarray:
    """Received power for an isotropic receiver from complex field components.

    `values` has the component axis first; the result drops that axis.
    """
    intensity = np.abs(values) ** 2
    return intensity.sum(axis=0) * wavelength ** 2 \
        / (8.0 * np.pi * FREE_SPACE_IMPEDANCE)


def reference_field(scenario: Scenario, *,
                    wall_loss_db: float = DEFAULT_WALL_LOSS_DB) -> np.ndarray:
    """Field of the BTS alone over the grid, one slab per time instant."""
    grid = scenario.grid
    values = _bts_fields(scenario, grid.centers(), wall_loss_db)
    return values.reshape(-1, 3, grid.ny, grid.nx)


def point_power_dbm(scenario: Scenario, points, *,
                    wall_loss_db: float = DEFAULT_WALL_LOSS_DB) -> np.ndarray:
    """BTS-only received power at arbitrary 3D points, shape (T, M) in dBm."""
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    return np.stack([watts_to_dbm(fields_to_power_watts(values, scenario.wavelength))
                     for values in _bts_fields(scenario, points, wall_loss_db)])


def _site_fields(scenario: Scenario, site: CandidateSite, incident_dbm: np.ndarray,
                 aimed_kinds: Sequence[tuple[SeeType, Sequence]],
                 wall_loss_db: float) -> np.ndarray:
    """Field radiated by one site for each (kind, roi_targets) pair, shape
    (kinds, T, 3, ny, nx).

    `incident_dbm` is the BTS power at the site per instant, and
    `roi_targets` gives the aim point for each instant (the covered
    region's barycenter at receiver height).  Passive skins re-radiate the
    incident BTS power through an aperture-gain beam; the static variant
    keeps a single pointing at the time-averaged target, the
    reconfigurable one re-aims per instant.  Repeaters forward with their
    own power when the backhaul power clears the sensitivity threshold;
    access-backhaul nodes radiate regardless, as regenerative micro cells.
    Every (kind, instant) source of the site radiates in one call.  Fields
    that are not finite as the complex64 `mapdb.bin` stores raise
    ScenarioError naming the site.
    """
    grid = scenario.grid
    points = grid.centers()
    wavelength = scenario.wavelength
    position = np.asarray(site.position, dtype=float)
    backhaul_m = float(np.linalg.norm(position - np.asarray(scenario.bts.position)))
    walls = count_blocking_footprints(position, points, scenario.footprints())
    sources = []
    for kind, roi_targets in aimed_kinds:
        targets = np.asarray(roi_targets, dtype=float)
        if targets.ndim != 2 or targets.shape[0] != scenario.time_instants:
            raise ValueError("roi_targets must provide one 3D point per time instant")
        for t in range(scenario.time_instants):
            if kind.is_passive:
                aim = targets.mean(axis=0) if kind.kind == "SP-EMS" else targets[t]
                gain = 4.0 * np.pi * kind.aperture_m2 / wavelength ** 2 \
                    * kind.reflection_efficiency
                power_w = float(dbm_to_watts(incident_dbm[t]))
            else:
                aim = targets[t]
                gain = 10.0 ** (kind.gain_dbi / 10.0)
                # A repeater whose backhaul misses its sensitivity is silent
                silent = kind.kind == "SR" and incident_dbm[t] < kind.sensitivity_dbm
                power_w = 0.0 if silent else float(dbm_to_watts(kind.tx_power_dbm))
            # IAB is regenerative: its phase is independent of the backhaul path
            extra = 0.0 if kind.kind == "IAB" else backhaul_m
            boresight = aim - position
            norm = np.linalg.norm(boresight)
            if norm < 1e-9:
                boresight = np.array([1.0, 0.0, 0.0])
                norm = 1.0
            gain_dbi = functools.partial(_pencil_gain_dbi, boresight / norm,
                                         float(10.0 * np.log10(gain)))
            sources.append(_Source(power_w=power_w, gain_dbi=gain_dbi,
                                   extra_path_m=extra))
    values = _radiate(scenario, position, sources, points, walls, wall_loss_db)
    if not np.isfinite(values.astype(np.complex64)).all():
        raise ScenarioError(f"site at {site.position}: its field overflows the "
                            "complex64 that mapdb.bin stores; check the catalog "
                            "kinds it admits")
    return values.reshape(len(aimed_kinds), scenario.time_instants, 3,
                          grid.ny, grid.nx)


# ---------------------------------------------------------------------------
# Map database


class MapDatabase(NamedTuple):
    """Reference and per-(site, kind) entry fields, each (T, 3, ny, nx)
    complex128, plus the header (`database_header`) saved with them.

    Entry keys are (site index 0-based, catalog gene value 1-based).
    """
    reference: np.ndarray
    entries: Mapping
    header: dict

    @property
    def grid(self) -> GridSpec:
        return _parse_grid(self.header["grid"])

    @property
    def wavelength(self) -> float:
        return self.header["wavelength_m"]

    @property
    def mode(self) -> str:
        return self.header["metadata"]["mode"]

    @property
    def time_instants(self) -> int:
        return self.reference.shape[0]


def database_header(scenario: Scenario, mode: str, params: Mapping[str, float],
                    keys: Iterable[tuple[int, int]], plan: SitePlan | None) -> dict:
    """The header of a database of `scenario` built with `mode` and the
    options `params`, holding the (site, gene value) entries `keys` and
    embedding the site plan `plan` for the later stages."""
    return {"metadata": {"scenario_hash": scenario.content_hash(), "mode": mode,
                         "params": {k: float(v) for k, v in params.items()}},
            "grid": grid_to_dict(scenario.grid),
            "wavelength_m": scenario.wavelength,
            "time_instants": scenario.time_instants,
            "entries": sorted([int(n), int(s)] for n, s in keys),
            "plan": {} if plan is None else {"assignments": plan.to_jsonable()}}


class _StreamedEntries(Mapping):
    """Entry fields computed when read, one site's at a time.

    `radiate(n)` returns site n's entries as a dict.  Reading the keys in
    directory order, as `save_database` does, radiates every site once and
    holds only the last site's fields.
    """

    def __init__(self, radiate: Callable[[int], dict], keys: list[tuple[int, int]]):
        self._radiate = radiate
        self._keys = keys
        self._site_entries: dict = {}

    def __getitem__(self, key):
        if key not in self._site_entries:
            if key not in self._keys:
                raise KeyError(key)
            self._site_entries = {}  # dropped before the next site radiates
            self._site_entries = self._radiate(key[0])
        return self._site_entries[key]

    def __iter__(self):
        return iter(self._keys)

    def __len__(self):
        return len(self._keys)


def build_database(scenario: Scenario, reference: np.ndarray,
                   assignments: Mapping[tuple[int, int], Sequence],
                   *, incident_dbm: np.ndarray, mode: str = "coherent",
                   wall_loss_db: float = DEFAULT_WALL_LOSS_DB,
                   params: Mapping[str, float] | None = None,
                   plan: SitePlan | None = None) -> MapDatabase:
    """Bundle the reference field with every assigned device contribution.

    `reference` is the scenario's `reference_field` at the same wall loss.
    `assignments` maps (site index, gene value) to the per-instant aim
    points for that pair, as produced by the site planner.
    `incident_dbm` is the BTS power at every scenario site, (T, n_sites)
    in dBm, as `point_power_dbm` gives it for `scenario.sites` at the same
    wall loss.  The entries are computed when read, a site's kinds in one
    `_site_fields` call, and only the last site's are kept, so
    `save_database` writes each site's fields as soon as they exist; a
    caller that reads entries repeatedly keeps `dict(db.entries)`.
    """
    if mode not in COMBINING_MODES:
        raise ValueError(f"mode must be one of {COMBINING_MODES}, got {mode!r}")
    grid = scenario.grid
    if reference.shape != (scenario.time_instants, 3, grid.ny, grid.nx):
        raise ValueError("reference field does not match the scenario")
    keys = sorted(assignments)

    def radiate(n: int) -> dict:
        site_keys = [key for key in keys if key[0] == n]
        return dict(zip(site_keys, _site_fields(
            scenario, scenario.sites[n], incident_dbm[:, n],
            [(scenario.catalog[s - 1], assignments[(n, s)]) for _, s in site_keys],
            wall_loss_db)))

    header = database_header(scenario, mode,
                             {"wall_loss_db": wall_loss_db, **(params or {})},
                             keys, plan)
    return MapDatabase(reference=reference, entries=_StreamedEntries(radiate, keys),
                       header=header)


def selected_keys(db: MapDatabase, genes) -> list[tuple[int, int]]:
    """The (site, gene value) entries a chromosome deploys, in site order."""
    keys = [(n, s) for n, s in enumerate(np.asarray(genes, dtype=int).tolist())
            if s != 0]
    for n, s in keys:
        if (n, s) not in db.entries:
            raise MissingEntryError(
                f"no database entry for site {n}, kind value {s}; "
                "the database is stale for this chromosome")
    return keys


def deployment_term(db: MapDatabase, values: np.ndarray) -> np.ndarray:
    """What one field adds to a deployment under the database's mode.

    Coherent mode adds complex fields, incoherent mode adds powers (W).
    """
    if db.mode == "coherent":
        return values
    return fields_to_power_watts(values, db.wavelength)


def deployment_power_watts(db: MapDatabase, reference_term: np.ndarray,
                           entry_terms) -> np.ndarray:
    """Received power (W): the reference term plus each entry term, in order.

    The terms come from `deployment_term`; coherent sums convert to power
    once, at the end.
    """
    total = reference_term.copy()
    for term in entry_terms:
        total += term
    if db.mode == "coherent":
        return fields_to_power_watts(total, db.wavelength)
    return total


def power_map_watts(db: MapDatabase, genes, t: int) -> np.ndarray:
    """Received power (W) over the whole grid for one deployment and instant."""
    return deployment_power_watts(
        db, deployment_term(db, db.reference[t]),
        [deployment_term(db, db.entries[key][t])
         for key in selected_keys(db, genes)])


def power_map_dbm(db: MapDatabase, genes, t: int) -> np.ndarray:
    return watts_to_dbm(power_map_watts(db, genes, t))


# ---------------------------------------------------------------------------
# Persistence: JSON header plus raw little-endian complex64 grids


def save_database(db: MapDatabase, path) -> None:
    """Write the header, the reference, then the entries in directory order.

    Each grid is read from `db` and written, as complex64, before the next
    one is read, so a database from `build_database` never holds all of
    its entries.  A grid with a value that is not finite as complex64
    raises DatabaseError, since `load_database` would reject the file.  On
    any failure `path` keeps its previous contents.
    """
    header = json.dumps(db.header, sort_keys=True, separators=(",", ":")).encode()
    grids = itertools.chain([db.reference], (db.entries[(n, s)]
                                             for n, s in db.header["entries"]))
    try:
        with replaced_atomically(path, "wb") as fh:
            fh.write(_DB_MAGIC)
            fh.write(np.array(len(header), dtype="<u4").tobytes())
            fh.write(header)
            for grid in grids:
                raw = np.ascontiguousarray(grid, dtype="<c8")
                if not np.isfinite(raw).all():
                    raise DatabaseError(f"not writing {path}: a field value is "
                                        "not finite")
                fh.write(raw)
    except OSError as exc:
        raise DatabaseError(f"cannot write database {path}: {exc}")


def _whole(value) -> int:
    """A header count or index: a JSON integer, not 34.0 or true."""
    if type(value) is not int or value < 0:
        raise ValueError(f"expected a JSON integer >= 0, got {value!r}")
    return value


def load_database(path) -> MapDatabase:
    """Read a database file; DatabaseError if it is not one, if its header
    does not describe it to the byte or has a field of the wrong type, or
    if a grid value is not finite."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise DatabaseError(f"cannot read database {path}: {exc}")
    offset = len(_DB_MAGIC) + 4
    if len(blob) < offset or blob[:len(_DB_MAGIC)] != _DB_MAGIC:
        raise DatabaseError(f"{path} is not a map database file")
    header_len = int.from_bytes(blob[len(_DB_MAGIC):offset], "little")
    if len(blob) < offset + header_len:
        raise DatabaseError(f"{path} is truncated inside its header")
    try:
        header = json.loads(blob[offset:offset + header_len].decode())
        # The scenario's grid reader, but a count must be a JSON integer
        _parse_grid(header["grid"])
        shape = (_whole(header["time_instants"]), 3,
                 _whole(header["grid"]["ny"]), _whole(header["grid"]["nx"]))
        keys = [(_whole(n), _whole(s)) for n, s in header["entries"]]
        if len(set(keys)) != len(keys):
            raise ValueError("the entry directory repeats an entry")
        _finite(header["wavelength_m"], "wavelength_m")
        if header["metadata"]["mode"] not in COMBINING_MODES:
            raise ValueError(f"unknown mode {header['metadata']['mode']!r}")
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise DatabaseError(f"{path} has a malformed header: {exc!r}")
    offset += header_len
    expected = offset + (1 + len(keys)) * math.prod(shape) * np.dtype("<c8").itemsize
    if len(blob) != expected:
        raise DatabaseError(f"{path} is {len(blob)} bytes, its header "
                            f"describes {expected}")
    grids = np.frombuffer(blob, dtype="<c8", offset=offset).reshape(1 + len(keys), *shape)
    if not all(np.isfinite(grid).all() for grid in grids):
        raise DatabaseError(f"{path} holds a non-finite field value")
    grids = grids.astype(np.complex128)
    return MapDatabase(reference=grids[0], entries=dict(zip(keys, grids[1:])),
                       header=header)


def export_power_csv(grid: GridSpec, power_dbm: np.ndarray, path,
                     header_lines: Sequence[str] = ()) -> None:
    """Write one (x, y, power dBm) row per cell of a (ny, nx) map, row-major."""
    write_grid_csv(path, header_lines, grid, "power_dbm",
                   map(repr, power_dbm.ravel().tolist()))

