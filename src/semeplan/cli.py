"""Command-line pipeline: sites -> dbgen -> optimize -> report.

Each command recomputes the cheap stages deterministically from the
scenario file and run options; the expensive field database is cached on
disk and keyed by the scenario content hash plus the options that shape
it.  Every output file carries that hash and a config echo in comment
lines, so reruns with one seed are byte-identical.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import analysis, nsga2, objectives, propagation, siteplanner
from .csvfile import replaced_atomically, write_csv
from .scenario import Scenario, ScenarioError, load_scenario

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_STALE = 3
EXIT_RUNTIME = 4

CDF_GRID_DBM = np.arange(-80.0, -29.9, 0.5)


class StaleCacheError(RuntimeError):
    pass


def _echo(args: argparse.Namespace) -> str:
    """The options that shape the outputs, as one JSON line."""
    return json.dumps({
        "mode": args.mode, "pth_dbm": args.pth_dbm,
        "roi_min_cells": args.roi_min_cells, "wall_loss_db": args.wall_loss_db,
        "coverage_units": args.coverage_units}, sort_keys=True)


def _db_params(args: argparse.Namespace) -> dict:
    """The options a cached database must have been built with."""
    return {"pth_dbm": args.pth_dbm, "roi_min_cells": float(args.roi_min_cells),
            "wall_loss_db": args.wall_loss_db}


def _headers(scenario_hash: str, args: argparse.Namespace) -> list[str]:
    return [f"scenario_hash={scenario_hash}", f"config={_echo(args)}"]


def _prepare(args: argparse.Namespace, scenario: Scenario):
    """Reference field, regions, feasibility report and site plan for the options."""
    reference = propagation.reference_field(scenario,
                                            wall_loss_db=args.wall_loss_db)
    _, blindspot = analysis.reference_blindspot(
        reference, scenario.wavelength, args.pth_dbm, args.roi_min_cells)
    rois = siteplanner.build_rois(blindspot.components, scenario.grid)
    report, plan = siteplanner.qualify_sites(scenario, rois, args.pth_dbm,
                                             wall_loss_db=args.wall_loss_db)
    return reference, rois, report, plan


def _db_path(args: argparse.Namespace) -> str:
    return os.path.join(args.out, "mapdb.bin")


def _current_db(args: argparse.Namespace, scenario: Scenario):
    """The cached database and its site plan, if the database is current:
    its header equals the one dbgen would write for this scenario, these
    options and the embedded plan.

    A missing, unreadable, truncated or foreign file, one with a
    non-finite grid value, without a readable site plan or with a plan
    for other sites or kinds, or any other header raises StaleCacheError.
    """
    path = _db_path(args)
    if not os.path.exists(path):
        raise StaleCacheError(f"database {path} is missing; run dbgen first")
    try:
        db = propagation.load_database(path)
    except propagation.DatabaseError as exc:
        raise StaleCacheError(f"{exc}; rerun dbgen")
    try:
        plan = siteplanner.SitePlan.from_jsonable(db.header["plan"]["assignments"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise StaleCacheError(f"database {path} has no readable site plan "
                              f"({exc!r}); rerun dbgen")
    if plan.n_sites != scenario.n_sites or any(
            set(plan.kind_values(n)) - set(scenario.admissible_kind_values(n))
            for n in range(plan.n_sites)):
        raise StaleCacheError(f"database {path} embeds a site plan for other "
                              "sites or kinds; rerun dbgen")
    keys = [(n, s) for n in range(plan.n_sites) for s in plan.kind_values(n)]
    expected = propagation.database_header(scenario, args.mode, _db_params(args),
                                           keys, plan)
    if db.header != expected:
        raise StaleCacheError(f"database {path} was built from another scenario "
                              "or other options, or is damaged; rerun dbgen")
    return db, plan


# ---------------------------------------------------------------------------
# Commands


def cmd_sites(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    _, rois, report, plan = _prepare(args, scenario)
    headers = _headers(scenario.content_hash(), args)
    os.makedirs(args.out, exist_ok=True)
    siteplanner.write_feasibility_csv(
        report, os.path.join(args.out, "feasibility.csv"), headers)
    with replaced_atomically(os.path.join(args.out, "siteplan.json")) as fh:
        json.dump({"scenario_hash": scenario.content_hash(),
                   "assignments": plan.to_jsonable()}, fh, sort_keys=True)
        fh.write("\n")
    active = [k for k in scenario.catalog if k.is_active]
    for roi in rois:
        regions = {"ems": siteplanner.ems_region(scenario, roi, args.pth_dbm)}
        if active:
            regions["ase"] = siteplanner.ase_region(scenario, roi, active[0],
                                                    args.pth_dbm)
        for name, region in regions.items():
            siteplanner.write_region_raster_csv(
                siteplanner.region_raster(region, scenario.grid), scenario.grid,
                os.path.join(args.out, f"region_{name}_roi{roi.index}.csv"),
                headers)
    print(f"sites: {len(report)} verdicts, {len(rois)} regions, "
          f"{sum(len(a) for a in plan.assignments)} feasible pairs")
    return EXIT_OK


def cmd_dbgen(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    path = _db_path(args)
    if not args.force:
        try:
            _current_db(args, scenario)
            print(f"dbgen: cache hit, {path} is current")
            return EXIT_OK
        except StaleCacheError:
            pass
    reference, rois, _, plan = _prepare(args, scenario)
    os.makedirs(args.out, exist_ok=True)
    db = propagation.build_database(
        scenario, reference, plan.db_assignments(rois, scenario.grid.height),
        mode=args.mode, wall_loss_db=args.wall_loss_db,
        params=_db_params(args), plan=plan)
    propagation.save_database(db, path)
    print(f"dbgen: wrote {path} with {len(db.entries)} entries")
    return EXIT_OK


def cmd_optimize(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    population = max(4, 2 * scenario.n_sites) if args.pop is None else args.pop
    population += population % 2
    try:
        gas = [nsga2.GaConfig(population=population, iterations=args.iters,
                              seed=args.seed + k, crossover=args.crossover,
                              mutation_rate=args.mutation_rate)
               for k in range(args.restarts)]
    except ValueError as exc:  # GaConfig owns the GA bounds
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    db, plan = _current_db(args, scenario)
    _, blindspot = analysis.reference_blindspot(
        db.reference, db.wavelength, args.pth_dbm, args.roi_min_cells)
    evaluator = objectives.Evaluator(
        db, blindspot.cells_per_t(), args.pth_dbm, scenario.catalog, plan,
        normalized=args.coverage_units == "normalized")
    headers = _headers(scenario.content_hash(), args)
    os.makedirs(args.out, exist_ok=True)
    summary_rows = []
    memo: dict = {}  # one evaluator, so restarts share its scores
    for ga in gas:
        result = nsga2.evolve(ga, evaluator, plan.alphabets(), memo)
        suffix = f"_seed{ga.seed}" if args.restarts > 1 else ""
        archive_path = os.path.join(args.out, f"archive{suffix}.csv")
        analysis.write_archive_csv(result.archive, archive_path,
                                   headers + [f"seed={ga.seed}"])
        trace_path = os.path.join(args.out, f"trace{suffix}.csv")
        write_csv(trace_path, headers + [f"seed={ga.seed}"],
                  ["generation", "front_size", "min_coverage", "min_cost",
                   "min_energy"],
                  ((str(row.generation), str(row.front_size),
                    *(repr(b) for b in row.best)) for row in result.trace))
        best = min(e.objectives[0] for e in result.archive)
        summary_rows.append((ga.seed, len(result.archive), best))
        print(f"optimize: seed {ga.seed} -> {len(result.archive)} front members, "
              f"best coverage deficit {best:.6g}")
    manifest = {
        "scenario_hash": scenario.content_hash(),
        "config": json.loads(_echo(args)),
        "ga": {"population": population, "iterations": args.iters,
               "seeds": [ga.seed for ga in gas], "crossover": args.crossover,
               "mutation_rate": args.mutation_rate},
    }
    with replaced_atomically(os.path.join(args.out, "manifest.json")) as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if args.restarts > 1:
        write_csv(os.path.join(args.out, "restarts_summary.csv"), headers,
                  ["seed", "front_size", "min_coverage"],
                  ((str(seed), str(size), repr(best))
                   for seed, size, best in summary_rows))
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    db, _ = _current_db(args, scenario)
    archive_path = args.archive or os.path.join(args.out, "archive.csv")
    if not os.path.exists(archive_path):
        raise StaleCacheError(f"archive {archive_path} is missing; "
                              "run optimize first")
    headers = _headers(scenario.content_hash(), args)
    written, archive = analysis.read_archive_csv(archive_path)
    # The seed line is not compared: any restart's archive may be reported.
    if any(line.split("=", 1)[0] in ("scenario_hash", "config")
           and line not in headers for line in written):
        raise StaleCacheError(f"archive {archive_path} was written from another "
                              "scenario or with other options; rerun optimize")
    if len(archive) == 0:
        print("report: archive is empty", file=sys.stderr)
        return EXIT_RUNTIME
    ref_power, blindspot = analysis.reference_blindspot(
        db.reference, db.wavelength, args.pth_dbm, args.roi_min_cells)
    rois = siteplanner.build_rois(blindspot.components, scenario.grid)
    os.makedirs(args.out, exist_ok=True)

    representatives = analysis.select_representatives(archive)
    analysis.write_solution_table(
        representatives, scenario.catalog,
        os.path.join(args.out, "solutions.csv"), headers,
        coverage_units=args.coverage_units)

    reductions = {}
    for name in analysis.REPRESENTATIVE_NAMES:
        genes = np.asarray(representatives[name].genes, int)
        power = np.stack([propagation.power_map_dbm(db, genes, t)
                          for t in range(db.time_instants)])
        reductions[name] = analysis.reduction_stats(ref_power, power, rois,
                                                    args.pth_dbm)
        propagation.export_power_csv(
            db.grid, power[0], os.path.join(args.out, f"map_{name}.csv"),
            headers + [f"solution={name}", f"pth_dbm={args.pth_dbm!r}"])
        for t in range(db.time_instants):
            if len(blindspot.region_cells(t)) == 0:
                continue
            cdf = analysis.coverage_cdf(power[t], blindspot, t, CDF_GRID_DBM)
            analysis.write_cdf_csv(
                CDF_GRID_DBM, cdf,
                os.path.join(args.out, f"cdf_{name}_t{t + 1}.csv"),
                headers + [f"solution={name}"])
    analysis.write_reduction_table(
        reductions, os.path.join(args.out, "reduction.csv"), headers)
    print(f"report: {len(archive)} front members, "
          f"{len(analysis.REPRESENTATIVE_NAMES)} representatives")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing


def _number(kind, minimum=None):
    """An argparse type: a finite `kind` number, at least `minimum` if given."""
    def parse(text: str):
        value = kind(text)
        if not math.isfinite(value) or (minimum is not None and value < minimum):
            bound = "" if minimum is None else f" >= {minimum}"
            raise argparse.ArgumentTypeError(
                f"expected a finite number{bound}, got {text}")
        return value
    parse.__name__ = kind.__name__  # argparse reports "invalid <name> value"
    return parse


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scenario", required=True, help="scenario JSON file")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--pth-dbm", type=_number(float), default=-65.0,
                        help="coverage power threshold (default -65)")
    parser.add_argument("--mode", choices=propagation.COMBINING_MODES,
                        default="coherent", help="field combining mode")
    parser.add_argument("--roi-min-cells", type=_number(int, 0), default=4,
                        help="minimum region size in cells (default 4)")
    parser.add_argument("--wall-loss-db", type=_number(float, 0.0),
                        default=propagation.DEFAULT_WALL_LOSS_DB,
                        help="per-building penetration loss (default 20)")
    parser.add_argument("--coverage-units", choices=("normalized", "m2"),
                        default="normalized",
                        help="coverage deficit units: blind-spot-area "
                             "normalized (default) or raw m2")
    parser.add_argument("--force", action="store_true",
                        help="ignore cached artifacts")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semeplan",
        description="Plan smart EM entity deployments that recover coverage "
                    "in blind-spot regions at minimum cost and energy.")
    sub = parser.add_subparsers(dest="command", required=True)
    p_sites = sub.add_parser("sites", help="qualify candidate sites")
    _add_common(p_sites)
    p_dbgen = sub.add_parser("dbgen", help="precompute the field database")
    _add_common(p_dbgen)
    p_opt = sub.add_parser("optimize", help="run the multi-objective search")
    _add_common(p_opt)
    p_opt.add_argument("--pop", type=int, default=None,
                       help="population size (default 2x site count)")
    p_opt.add_argument("--iters", type=int, default=10_000,
                       help="generations (default 10000)")
    p_opt.add_argument("--seed", type=int, default=0, help="RNG seed")
    p_opt.add_argument("--restarts", type=_number(int, 1), default=1,
                       help="number of seeds to run (seed, seed+1, ...)")
    p_opt.add_argument("--crossover", choices=("uniform", "one_point"),
                       default="uniform")
    p_opt.add_argument("--mutation-rate", type=float, default=0.005)
    p_rep = sub.add_parser("report", help="tables, maps and CDFs for a front")
    _add_common(p_rep)
    p_rep.add_argument("--archive", default=None,
                       help="archive CSV (default <out>/archive.csv)")
    return parser


class _OutDirLock:
    """Advisory lock; concurrent runs on one output directory are unsupported.

    A run that finds the lock warns and proceeds, and leaves that lock in
    place; only a lock this run created is removed on exit.  An output
    directory this run created is removed on exit if the run left it empty.
    """

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.path = os.path.join(out_dir, ".lock")
        self.owned = False
        self.created = False

    def __enter__(self):
        try:
            os.makedirs(self.out_dir)
            self.created = True
        except FileExistsError:
            pass
        try:
            fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            print(f"warning: {self.path} exists; another run may be active",
                  file=sys.stderr)
        else:
            self.owned = True
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(str(os.getpid()))
        return self

    def __exit__(self, *exc):
        if self.owned:
            try:
                os.remove(self.path)
            except OSError:
                pass
        if self.created:
            try:
                os.rmdir(self.out_dir)
            except OSError:  # the run wrote into it
                pass
        return False


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        with _OutDirLock(args.out):
            if args.command == "sites":
                return cmd_sites(args)
            if args.command == "dbgen":
                return cmd_dbgen(args)
            if args.command == "optimize":
                return cmd_optimize(args)
            return cmd_report(args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (StaleCacheError, propagation.MissingEntryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STALE
    except Exception as exc:  # noqa: BLE001 - deliberate catch-all at the boundary
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
