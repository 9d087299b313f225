"""Command-line pipeline: sites -> dbgen -> optimize -> report.

Each command recomputes the cheap stages deterministically from the
scenario file and run options; the expensive field database is cached on
disk and keyed by the scenario content hash plus the options that shape
it.  Every output file carries that hash and a config echo in comment
lines, so reruns with one seed are byte-identical.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
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


def _echo(args: argparse.Namespace) -> dict:
    """The options that shape the outputs."""
    return {"mode": args.mode, "pth_dbm": args.pth_dbm,
            "roi_min_cells": args.roi_min_cells, "wall_loss_db": args.wall_loss_db,
            "coverage_units": args.coverage_units}


def _db_params(args: argparse.Namespace) -> dict:
    """The options a cached database must have been built with."""
    return {"pth_dbm": args.pth_dbm, "roi_min_cells": float(args.roi_min_cells),
            "wall_loss_db": args.wall_loss_db}


def _headers(scenario_hash: str, args: argparse.Namespace) -> list[str]:
    return [f"scenario_hash={scenario_hash}",
            f"config={json.dumps(_echo(args), sort_keys=True)}"]


def _prepare(args: argparse.Namespace, scenario: Scenario):
    """Reference field, regions, feasibility report, site plan and the BTS
    power at every site for the options.

    The reference is rounded to the complex64 that `mapdb.bin` stores, so
    every stage derives the same blind spot and regions from it; one that
    overflows there raises ScenarioError."""
    reference = propagation.reference_field(scenario, wall_loss_db=args.wall_loss_db)
    reference = reference.astype(np.complex64).astype(np.complex128)
    if not np.isfinite(reference).all():
        raise ScenarioError("bts: the base station's field overflows the complex64 "
                            "that mapdb.bin stores; lower the sectors' tx_power_w")
    _, blindspot = analysis.reference_blindspot(
        reference, scenario.wavelength, args.pth_dbm, args.roi_min_cells)
    rois = siteplanner.build_rois(blindspot.components, scenario.grid)
    incident = propagation.point_power_dbm(
        scenario, [site.position for site in scenario.sites],
        wall_loss_db=args.wall_loss_db)
    report, plan = siteplanner.qualify_sites(scenario, rois, args.pth_dbm, incident)
    return reference, rois, report, plan, incident


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


def cmd_sites(args: argparse.Namespace) -> None:
    scenario = load_scenario(args.scenario)
    _, rois, report, plan, _ = _prepare(args, scenario)
    headers = _headers(scenario.content_hash(), args)
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


def cmd_dbgen(args: argparse.Namespace) -> None:
    scenario = load_scenario(args.scenario)
    path = _db_path(args)
    if not args.force:
        try:
            _current_db(args, scenario)
            print(f"dbgen: cache hit, {path} is current")
            return
        except StaleCacheError:
            pass
    reference, rois, _, plan, incident = _prepare(args, scenario)
    # Each site's fields are computed as the save reaches its entries
    db = propagation.build_database(
        scenario, reference, plan.db_assignments(rois, scenario.grid.height),
        mode=args.mode, params=_db_params(args), plan=plan, incident_dbm=incident)
    propagation.save_database(db, path)
    print(f"dbgen: wrote {path} with {len(db.entries)} entries")


def cmd_optimize(args: argparse.Namespace) -> None:
    scenario = load_scenario(args.scenario)
    population = max(4, 2 * scenario.n_sites) if args.pop is None else args.pop
    population += population % 2
    try:
        gas = [nsga2.GaConfig(population=population, iterations=args.iters,
                              seed=args.seed + k, crossover=args.crossover,
                              mutation_rate=args.mutation_rate)
               for k in range(args.restarts)]
    except ValueError as exc:  # GaConfig owns the GA bounds
        raise _ConfigError(str(exc)) from exc
    db, plan = _current_db(args, scenario)
    _, blindspot = analysis.reference_blindspot(
        db.reference, db.wavelength, args.pth_dbm, args.roi_min_cells)
    evaluator = objectives.Evaluator(
        db, blindspot.cells_per_t(), args.pth_dbm, scenario.catalog, plan,
        normalized=args.coverage_units == "normalized")
    memo: dict = {}  # one evaluator, so restarts share its scores
    results = [nsga2.evolve(ga, evaluator, plan.alphabets(), memo) for ga in gas]
    # one front: the non-dominated members of the union of the restarts' fronts
    members = [entry for result in results for entry in result.archive]
    ranks = nsga2.fast_nondominated_sort([e.objectives for e in members], 1)
    archive = nsga2.pareto_archive(e for e, rank in zip(members, ranks) if rank == 0)
    seeds = ",".join(str(ga.seed) for ga in gas)
    headers = _headers(scenario.content_hash(), args) + [f"seed={seeds}"]
    analysis.write_archive_csv(archive, os.path.join(args.out, "archive.csv"), headers)
    write_csv(os.path.join(args.out, "trace.csv"), headers,
              ["generation", "front_size", "min_coverage", "min_cost", "min_energy"],
              ((str(row.generation), str(row.front_size), *(repr(b) for b in row.best))
               for result in results for row in result.trace))
    best = min(e.objectives[0] for e in archive)
    print(f"optimize: seed {seeds} -> {len(archive)} front members, "
          f"best coverage deficit {best:.6g}")
    manifest = {
        "scenario_hash": scenario.content_hash(),
        "config": _echo(args),
        "ga": {"population": population, "iterations": args.iters,
               "seeds": [ga.seed for ga in gas], "crossover": args.crossover,
               "mutation_rate": args.mutation_rate},
    }
    with replaced_atomically(os.path.join(args.out, "manifest.json")) as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_report(args: argparse.Namespace) -> None:
    scenario = load_scenario(args.scenario)
    db, plan = _current_db(args, scenario)
    archive_path = os.path.join(args.out, "archive.csv")
    headers = _headers(scenario.content_hash(), args)
    try:
        written, archive = analysis.read_archive_csv(archive_path)
    except (OSError, ValueError) as exc:
        raise StaleCacheError(f"archive {archive_path} is damaged: {exc}; "
                              "rerun optimize")
    if [line for line in written
            if line.split("=", 1)[0] in ("scenario_hash", "config")] != headers:
        raise StaleCacheError(f"archive {archive_path} was not written from this "
                              "scenario with these options; rerun optimize")
    if any(len(entry.genes) != scenario.n_sites for entry in archive):
        raise StaleCacheError(f"archive {archive_path} holds a deployment that is "
                              f"not {scenario.n_sites} genes long; rerun optimize")
    alphabets = plan.alphabets()
    if any(gene not in alphabet for entry in archive
           for gene, alphabet in zip(entry.genes, alphabets)):
        raise StaleCacheError(f"archive {archive_path} deploys a kind that the site "
                              "plan of the database does not hold; rerun optimize")
    ref_power, blindspot = analysis.reference_blindspot(
        db.reference, db.wavelength, args.pth_dbm, args.roi_min_cells)
    rois = siteplanner.build_rois(blindspot.components, scenario.grid)

    # Raises ValueError on an empty archive, before any file is written
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


# ---------------------------------------------------------------------------
# Argument parsing


def _number(kind, minimum=None, nonzero=False):
    """An argparse type: a finite `kind` number, at least `minimum` if given,
    and not 0 if `nonzero`."""
    def parse(text: str):
        value = kind(text)
        if not math.isfinite(value) or (minimum is not None and value < minimum):
            bound = "" if minimum is None else f" >= {minimum}"
            raise argparse.ArgumentTypeError(
                f"expected a finite number{bound}, got {text}")
        if nonzero and value == 0:
            raise argparse.ArgumentTypeError(f"expected a nonzero number, got {text}")
        return value
    parse.__name__ = kind.__name__  # argparse reports "invalid <name> value"
    return parse


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scenario", required=True, help="scenario JSON file")
    parser.add_argument("--out", required=True, help="output directory")
    # Not 0: the coverage deficit is the shortfall divided by |pth-dbm|
    parser.add_argument("--pth-dbm", type=_number(float, nonzero=True), default=-65.0,
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semeplan",
        description="Plan smart EM entity deployments that recover coverage "
                    "in blind-spot regions at minimum cost and energy.")
    sub = parser.add_subparsers(dest="command", required=True)
    p_sites = sub.add_parser("sites", help="qualify candidate sites")
    _add_common(p_sites)
    p_sites.set_defaults(run=cmd_sites)
    p_dbgen = sub.add_parser("dbgen", help="precompute the field database")
    _add_common(p_dbgen)
    p_dbgen.set_defaults(run=cmd_dbgen)
    p_dbgen.add_argument("--force", action="store_true",
                         help="rebuild the database even if it is current")
    p_opt = sub.add_parser("optimize", help="run the multi-objective search")
    _add_common(p_opt)
    p_opt.set_defaults(run=cmd_optimize)
    p_opt.add_argument("--pop", type=int, default=None,
                       help="population size (default 2x site count)")
    p_opt.add_argument("--iters", type=int, default=10_000,
                       help="generations (default 10000)")
    p_opt.add_argument("--seed", type=int, default=0, help="RNG seed")
    p_opt.add_argument("--restarts", type=_number(int, 1), default=1,
                       help="seeds to run (seed, seed+1, ...) into one front")
    p_opt.add_argument("--crossover", choices=("uniform", "one_point"),
                       default="uniform")
    p_opt.add_argument("--mutation-rate", type=float, default=0.005)
    p_rep = sub.add_parser("report", help="tables, maps and CDFs for a front")
    _add_common(p_rep)
    p_rep.set_defaults(run=cmd_report)
    return parser


class _ConfigError(ValueError):
    """An option value a stage refuses, or an --out that cannot be made a
    directory: a config error."""


@contextlib.contextmanager
def _out_dir_lock(out_dir: str):
    """Advisory lock; concurrent runs on one output directory are unsupported.

    Entering makes the output directory and its missing parents first, so a
    path that cannot be a directory raises _ConfigError before anything is
    written.  A run that finds the lock warns and proceeds, and leaves that
    lock in place; only a lock this run created is removed on exit.  The
    directories this run created are removed on exit, innermost first, up
    to the first one the run left non-empty.
    """
    lock = os.path.join(out_dir, ".lock")
    owned = False
    created: list[str] = []  # outermost first

    def make(path: str) -> None:
        """`os.makedirs(path, exist_ok=True)`, noting each directory it makes."""
        head = os.path.dirname(path.rstrip(os.sep))
        if head and not os.path.lexists(head):
            make(head)
        if not os.path.isdir(path):
            os.mkdir(path)
            created.append(path)

    try:
        try:
            make(out_dir)
        except OSError as exc:
            raise _ConfigError(f"--out {out_dir} is not a directory and "
                               f"cannot be made one: {exc}") from exc
        try:
            fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            print(f"warning: {lock} exists; another run may be active",
                  file=sys.stderr)
        else:
            owned = True
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(str(os.getpid()))
        yield
    finally:
        if owned:
            try:
                os.remove(lock)
            except OSError:
                pass
        for path in reversed(created):
            try:
                os.rmdir(path)
            except OSError:  # the run wrote into it
                break


def main(argv=None) -> int:
    """Run one stage and map its outcome to an exit code: the stages only
    raise, and this is the one place that picks the code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        with _out_dir_lock(args.out), np.errstate(all="ignore"):
            args.run(args)
        return EXIT_OK
    except (ScenarioError, _ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (StaleCacheError, propagation.MissingEntryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STALE
    except Exception as exc:  # noqa: BLE001 - deliberate catch-all at the boundary
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def run() -> None:
    """`main` as a process: `python -m semeplan.cli` and the `semeplan` script.

    Freezing the collector's objects skips the collection at exit that would
    only tear them down; exit still flushes stdout and runs atexit.  `main`
    itself never freezes, as tests call it in one process."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
