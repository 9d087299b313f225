"""Static world model: geometry, base station, device catalog, grid, sites.

A Scenario is immutable after load and safe to share across workers.  The
loader validates every invariant and names the offending element in the
error message.  File format: a single JSON document, schema described in
the README.
"""
from __future__ import annotations

import hashlib
import json
import math
import numbers
from typing import Any, Mapping, NamedTuple

import numpy as np

from .geometry import polygon_is_simple
from .units import SPEED_OF_LIGHT

Point2 = tuple[float, float]
Point3 = tuple[float, float, float]

PASSIVE_KINDS = ("SP-EMS", "RP-EMS")
ACTIVE_KINDS = ("SR", "IAB")
KNOWN_KINDS = PASSIVE_KINDS + ACTIVE_KINDS

# Every coordinate's magnitude stays below this, so the squared distance
# between two points of a scenario is finite.
COORDINATE_LIMIT_M = 1e150


class ScenarioError(ValueError):
    """Malformed scenario file or violated invariant."""


def _finite(value, what: str) -> float:
    """`value` as a finite float, else a ScenarioError naming `what`.

    Only a JSON number passes: a bool or a numeric string does not.
    """
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        number = float(value) if real else math.nan
    except OverflowError:  # an integer beyond the float range
        number = math.nan
    if not math.isfinite(number):
        raise ScenarioError(f"{what}: expected a finite number, got {value!r}")
    return number


def _count(value, what: str) -> int:
    """`value` as a whole number, else a ScenarioError naming `what`."""
    number = _finite(value, what)
    if not number.is_integer():
        raise ScenarioError(f"{what}: expected a whole number, got {value!r}")
    return int(number)


def _known(raw: Mapping, keys: tuple[str, ...], what: str) -> None:
    """A ScenarioError naming the first key of `raw` outside `keys`."""
    for key in raw.keys():
        if key not in keys:
            raise ScenarioError(f"{what}: unknown key {key!r}")


def _bounded(coords: tuple[float, ...], what: str) -> tuple[float, ...]:
    """`coords`, else a ScenarioError naming `what` if one reaches the limit."""
    if any(abs(c) >= COORDINATE_LIMIT_M for c in coords):
        raise ScenarioError(f"{what}: coordinates must lie within "
                            f"±{COORDINATE_LIMIT_M:g} m, got {coords!r}")
    return coords


def _point(values, dims: int, what: str) -> tuple[float, ...]:
    coords = values if isinstance(values, (list, tuple)) else ()
    if len(coords) != dims:
        raise ScenarioError(f"{what}: expected a {dims}D point, got {values!r}")
    return _bounded(tuple(_finite(c, what) for c in coords), what)


class Building(NamedTuple):
    footprint: tuple[Point2, ...]
    height: float


class BtsSector(NamedTuple):
    azimuth_deg: float
    downtilt_deg: float
    tx_power_w: float
    max_gain_dbi: float
    az_beamwidth_deg: float = 65.0
    el_beamwidth_deg: float = 10.0


class Bts(NamedTuple):
    position: Point3
    frequency_hz: float
    sectors: tuple[tuple[BtsSector, ...], ...]  # indexed [time instant][sector]

    @property
    def time_instants(self) -> int:
        return len(self.sectors)

    @property
    def sector_count(self) -> int:
        return len(self.sectors[0]) if self.sectors else 0

    @property
    def max_gain_dbi(self) -> float:
        return max(s.max_gain_dbi for group in self.sectors for s in group)

    @property
    def max_tx_power_w(self) -> float:
        return max(s.tx_power_w for group in self.sectors for s in group)


class SeeType(NamedTuple):
    """One deployable device class from the catalog.

    Passive kinds (SP-EMS, RP-EMS) redirect the incident wave and carry an
    aperture area plus a reflection efficiency.  Active kinds (SR, IAB)
    re-transmit with their own power, gain and sensitivity.
    """
    kind: str
    install_cost: float
    energy_w: float
    tx_power_dbm: float | None = None
    gain_dbi: float | None = None
    sensitivity_dbm: float | None = None
    reflection_efficiency: float | None = None
    aperture_m2: float | None = None

    @property
    def is_active(self) -> bool:
        return self.kind in ACTIVE_KINDS

    @property
    def is_passive(self) -> bool:
        return self.kind in PASSIVE_KINDS


class CandidateSite(NamedTuple):
    position: Point3
    mount: str  # "facade" or "pole"
    normal: Point3 | None = None  # outward wall normal, facade only
    admissible_kinds: tuple[str, ...] = ()
    name: str = ""


class GridSpec(NamedTuple):
    origin: Point2
    spacing: float
    nx: int
    ny: int
    height: float

    @property
    def cell_area(self) -> float:
        return self.spacing * self.spacing

    def cell_xy(self, iy, ix):
        """Plan coordinates of sample (iy, ix); accepts arrays."""
        x = self.origin[0] + np.asarray(ix, dtype=float) * self.spacing
        y = self.origin[1] + np.asarray(iy, dtype=float) * self.spacing
        return x, y

    def centers(self) -> np.ndarray:
        """All sample positions at receiver height, shape (ny*nx, 3), row-major."""
        iy, ix = np.mgrid[0:self.ny, 0:self.nx]
        x, y = self.cell_xy(iy.ravel(), ix.ravel())
        z = np.full(x.shape, self.height)
        return np.column_stack([x, y, z])

    @property
    def bounds(self) -> tuple[float, float, float, float]:
        """(xmin, ymin, xmax, ymax) of the sample lattice."""
        return (self.origin[0], self.origin[1],
                self.origin[0] + (self.nx - 1) * self.spacing,
                self.origin[1] + (self.ny - 1) * self.spacing)


class Scenario(NamedTuple):
    grid: GridSpec
    bts: Bts
    buildings: tuple[Building, ...]
    catalog: tuple[SeeType, ...]
    sites: tuple[CandidateSite, ...]

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.bts.frequency_hz

    @property
    def n_sites(self) -> int:
        return len(self.sites)

    @property
    def time_instants(self) -> int:
        return self.bts.time_instants

    def admissible_kind_values(self, site_index: int) -> tuple[int, ...]:
        """Catalog positions (1-based gene values) admissible at a site."""
        site = self.sites[site_index]
        return tuple(s for s, entry in enumerate(self.catalog, start=1)
                     if entry.kind in site.admissible_kinds)

    def footprints(self) -> list[tuple[np.ndarray, float]]:
        return [(np.asarray(b.footprint, dtype=float), b.height) for b in self.buildings]

    def content_hash(self) -> str:
        blob = json.dumps(scenario_to_dict(self), sort_keys=True,
                          separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Parsing and validation


def _parse_building(raw: Mapping, idx: int) -> Building:
    what = f"building {idx}"
    # permittivity and conductivity_s_per_m: retired material keys, ignored
    _known(raw, ("footprint", "height_m", "permittivity", "conductivity_s_per_m"),
           what)
    verts = raw.get("footprint")
    if not verts:
        raise ScenarioError(f"{what}: missing footprint")
    pts = [_point(v, 2, what) for v in verts]
    if len(pts) > 3 and pts[0] == pts[-1]:
        pts = pts[:-1]  # tolerate GeoJSON-style closed rings
    if len(pts) < 3:
        raise ScenarioError(f"{what}: footprint needs at least 3 vertices")
    if not polygon_is_simple(np.asarray(pts)):
        raise ScenarioError(f"{what}: footprint polygon is not simple")
    height = _finite(raw.get("height_m", 0.0), f"{what} height_m")
    if height <= 0:
        raise ScenarioError(f"{what}: height must be > 0, got {height}")
    return Building(footprint=tuple(pts), height=height)


def _parse_sector(raw: Mapping, t: int, v: int) -> BtsSector:
    what = f"bts sector {v} at instant {t}"
    _known(raw, BtsSector._fields, what)

    def number(name, default=None):
        return _finite(raw[name] if default is None else raw.get(name, default),
                       f"{what} {name}")

    try:
        sector = BtsSector(
            azimuth_deg=number("azimuth_deg"),
            downtilt_deg=number("downtilt_deg", 0.0),
            tx_power_w=number("tx_power_w"),
            max_gain_dbi=number("max_gain_dbi"),
            az_beamwidth_deg=number("az_beamwidth_deg", 65.0),
            el_beamwidth_deg=number("el_beamwidth_deg", 10.0),
        )
    except KeyError as exc:
        raise ScenarioError(f"{what}: missing field {exc.args[0]}")
    if sector.tx_power_w <= 0:
        raise ScenarioError(f"{what}: tx_power_w must be > 0")
    for bw in (sector.az_beamwidth_deg, sector.el_beamwidth_deg):
        if not 0.0 < bw < 180.0:
            raise ScenarioError(f"{what}: beamwidth must be in (0, 180), got {bw}")
    return sector


def _parse_bts(raw: Mapping, frequency_hz: float) -> Bts:
    if frequency_hz <= 0 or not math.isfinite(SPEED_OF_LIGHT / frequency_hz):
        raise ScenarioError(f"frequency_hz must be > 0 with a finite wavelength, "
                            f"got {frequency_hz}")
    _known(raw, ("position", "time_instants"), "bts")
    position = _point(raw.get("position"), 3, "bts position")
    if position[2] <= 0:
        raise ScenarioError(f"bts position: height must be > 0, got {position[2]}")
    instants = raw.get("time_instants")
    if not instants:
        raise ScenarioError("bts: needs at least one time instant")
    groups = []
    for t, entry in enumerate(instants, start=1):
        _known(entry, ("sectors",), f"bts instant {t}")
        sectors = entry.get("sectors")
        if not sectors:
            raise ScenarioError(f"bts instant {t}: needs at least one sector")
        groups.append(tuple(_parse_sector(s, t, v)
                            for v, s in enumerate(sectors, start=1)))
    counts = {len(g) for g in groups}
    if len(counts) != 1:
        raise ScenarioError(
            f"bts: sector count must be equal across time instants, got {sorted(counts)}")
    return Bts(position=position, frequency_hz=frequency_hz,
               sectors=tuple(groups))


def _parse_see(raw: Mapping, idx: int) -> SeeType:
    what = f"catalog entry {idx}"
    _known(raw, SeeType._fields, what)
    kind = raw.get("kind")
    if kind not in KNOWN_KINDS:
        raise ScenarioError(f"{what}: unknown kind {kind!r}, expected one of {KNOWN_KINDS}")
    cost = _finite(raw.get("install_cost", 0.0), f"{what} install_cost")
    energy = _finite(raw.get("energy_w", 0.0), f"{what} energy_w")
    if cost < 0 or energy < 0:
        raise ScenarioError(f"{what}: install_cost and energy_w must be >= 0")
    entry = SeeType(kind=kind, install_cost=cost, energy_w=energy, **{
        name: None if raw.get(name) is None else _finite(raw[name], f"{what} {name}")
        for name in ("tx_power_dbm", "gain_dbi", "sensitivity_dbm",
                     "reflection_efficiency", "aperture_m2")})
    if entry.is_passive:
        if entry.tx_power_dbm is not None:
            raise ScenarioError(f"{what}: passive kind {kind} must not define tx_power_dbm")
        eff = entry.reflection_efficiency
        if eff is None or not 0.0 < eff <= 1.0:
            raise ScenarioError(
                f"{what}: passive kind {kind} needs reflection_efficiency in (0, 1]")
        if entry.aperture_m2 is None or entry.aperture_m2 <= 0:
            raise ScenarioError(f"{what}: passive kind {kind} needs aperture_m2 > 0")
    else:
        for field_name in ("tx_power_dbm", "gain_dbi", "sensitivity_dbm"):
            if getattr(entry, field_name) is None:
                raise ScenarioError(f"{what}: active kind {kind} needs {field_name}")
    return entry


def _parse_site(raw: Mapping, idx: int, grid: GridSpec) -> CandidateSite:
    what = f"site {idx}"
    _known(raw, CandidateSite._fields, what)
    position = _point(raw.get("position"), 3, what)
    mount = raw.get("mount")
    if mount not in ("facade", "pole"):
        raise ScenarioError(f"{what}: mount must be 'facade' or 'pole', got {mount!r}")
    normal = None
    if mount == "facade":
        if raw.get("normal") is None:
            raise ScenarioError(f"{what}: facade site needs an outward wall normal")
        normal = _point(raw["normal"], 3, f"{what} normal")
        norm = float(np.linalg.norm(normal))
        if norm < 1e-12:
            raise ScenarioError(f"{what}: facade normal must be nonzero")
        normal = tuple(float(c / norm) for c in normal)
    kinds = raw.get("admissible_kinds")
    if kinds is None:
        kinds = PASSIVE_KINDS if mount == "facade" else KNOWN_KINDS
    kinds = tuple(kinds)
    for kind in kinds:
        if kind not in KNOWN_KINDS:
            raise ScenarioError(f"{what}: unknown admissible kind {kind!r}")
    if mount == "facade" and any(k not in PASSIVE_KINDS for k in kinds):
        raise ScenarioError(f"{what}: facade admits only EMS kinds, got {kinds}")
    xmin, ymin, xmax, ymax = grid.bounds
    x, y, _ = position
    if not (xmin <= x <= xmax and ymin <= y <= ymax):
        raise ScenarioError(
            f"{what}: position ({x}, {y}) lies outside the scenario grid bounds")
    return CandidateSite(position=position, mount=mount, normal=normal,
                         admissible_kinds=kinds, name=str(raw.get("name", "")))


def _parse_grid(raw: Mapping) -> GridSpec:
    _known(raw, ("origin", "spacing_m", "nx", "ny", "height_m"), "grid")
    try:
        grid = GridSpec(
            origin=_point(raw.get("origin", (0.0, 0.0)), 2, "grid origin"),
            spacing=_finite(raw["spacing_m"], "grid spacing_m"),
            nx=_count(raw["nx"], "grid nx"),
            ny=_count(raw["ny"], "grid ny"),
            height=_finite(raw["height_m"], "grid height_m"),
        )
    except KeyError as exc:
        raise ScenarioError(f"grid: missing field {exc.args[0]}")
    if grid.spacing <= 0:
        raise ScenarioError(f"grid: spacing_m must be > 0, got {grid.spacing}")
    if grid.nx < 1 or grid.ny < 1:
        raise ScenarioError("grid: nx and ny must be >= 1")
    _bounded((*grid.bounds, grid.height), "grid corners and height_m")
    return grid


def scenario_from_dict(raw: Mapping[str, Any]) -> Scenario:
    if not isinstance(raw, Mapping):
        raise ScenarioError("scenario document must be a JSON object")
    _known(raw, ("frequency_hz", "grid", "bts", "buildings", "catalog", "sites"),
           "scenario")
    for key in ("frequency_hz", "grid", "bts"):
        if key not in raw:
            raise ScenarioError(f"scenario: missing top-level key {key!r}")
    try:
        grid = _parse_grid(raw["grid"])
        bts = _parse_bts(raw["bts"], _finite(raw["frequency_hz"], "frequency_hz"))
        buildings = tuple(_parse_building(b, i)
                          for i, b in enumerate(raw.get("buildings", ())))
        catalog = tuple(_parse_see(c, i) for i, c in enumerate(raw.get("catalog", ())))
        sites = tuple(_parse_site(s, i, grid)
                      for i, s in enumerate(raw.get("sites", ())))
    except (TypeError, AttributeError) as exc:
        # A section that is not the JSON object or array the schema asks for.
        raise ScenarioError(f"scenario: a section has the wrong JSON type: {exc}")
    return Scenario(grid=grid, bts=bts, buildings=buildings,
                    catalog=catalog, sites=sites)


def load_scenario(path) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario file {path} is not valid JSON: {exc}")
    return scenario_from_dict(raw)


# ---------------------------------------------------------------------------
# Serialization


def _drop_none(d: dict) -> dict:
    return {k: v for k, v in d.items() if v is not None}


def grid_to_dict(grid: GridSpec) -> dict:
    """The `grid` section of a scenario document, also a database header's."""
    return {"origin": list(grid.origin), "spacing_m": grid.spacing,
            "nx": grid.nx, "ny": grid.ny, "height_m": grid.height}


def scenario_to_dict(scenario: Scenario) -> dict:
    return {
        "frequency_hz": scenario.bts.frequency_hz,
        "grid": grid_to_dict(scenario.grid),
        "bts": {
            "position": list(scenario.bts.position),
            "time_instants": [
                {"sectors": [s._asdict() for s in group]}
                for group in scenario.bts.sectors
            ],
        },
        "buildings": [
            {
                "footprint": [list(p) for p in b.footprint],
                "height_m": b.height,
            }
            for b in scenario.buildings
        ],
        "catalog": [_drop_none(entry._asdict()) for entry in scenario.catalog],
        "sites": [
            _drop_none({
                "position": list(s.position),
                "mount": s.mount,
                "normal": None if s.normal is None else list(s.normal),
                "admissible_kinds": list(s.admissible_kinds),
                "name": s.name or None,
            })
            for s in scenario.sites
        ],
    }
