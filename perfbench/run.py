#!/usr/bin/env python3
"""Benchmark of the semeplan pipeline (sites -> dbgen -> optimize -> report).

Usage, from the repository root:

    python3 perfbench/run.py --workload demo-search --seed 1 --seconds 50 --trace 0

Every workload builds its scenario from `--seed`, runs the stages it needs
first (set-up, timed on its own), then repeats its measured stages for about
`--seconds` seconds.  Each stage is a child process of this script, one at a
time, with BLAS/OpenMP threads pinned to 1.  Afterwards an independent oracle
(`oracle.py`) checks the outputs and the output digests are compared across
repetitions and with earlier runs of the same code and seed.

Times are normalised to the speed of the machine while they were taken: a
fixed calibration unit of work (`Clock`) runs in short bursts before and
after every stage, and set-up and measured times are each scaled by
`CAL_REF_S` over the median duration of the unit during their own phase.
The host's speed drifts by up to 20% over tens of seconds, and normalising
narrowed the run-to-run spread on most workloads; the raw times are kept in
the run record.

`--trace 0` prints the end-to-end metrics of BENCHMARK.json.  `--trace 1`
runs the same stages in this process through `semeplan.cli.main`: once
plainly, then at least twice with every layer's public functions wrapped
(`tracing.py`), and prints the per-layer metrics.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  A run record with the
environment, the town's counts, the output digests and every check goes to
`.perfbench/records/`; traced runs also write their spans to
`.perfbench/spans/`.
"""
import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported, here and in every child
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import glob  # noqa: E402
import gzip  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402

import numpy as np  # noqa: E402
import oracle  # noqa: E402
import town  # noqa: E402
import tracing  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


@dataclass(frozen=True)
class Workload:
    town: bool                # seeded synthetic town, else the bundled demo town
    options: tuple            # CLI options shared by every stage
    setup: tuple              # stages run before measuring
    measured: tuple           # stages repeated while measuring
    setup_repeats: int        # set-ups per untraced run; setup_s is their median


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "demo-search": Workload(
        town=False, options=("--mode", "incoherent", "--wall-loss-db", "30"),
        setup=(("sites",), ("dbgen",)),
        measured=(("optimize", "--pop", "10", "--mutation-rate", "0.1",
                   "--iters", "2000", "--seed", "{seed}"), ("report",)),
        setup_repeats=3),
    "town-build": Workload(
        town=True, options=("--mode", "coherent"), setup=(),
        measured=(("sites",), ("dbgen", "--force")),
        setup_repeats=5),
}
STAGES = ("sites", "dbgen", "optimize", "report")

# Median duration of the calibration unit on the machine the bounds were
# set on (2-vCPU VM, Python 3.11, numpy 2.4); normalised times read as
# seconds on that machine.  Never change it: it relates every past record.
CAL_REF_S = 0.0022
CAL_BURST_S = 0.15       # length of each calibration burst
_CAL_FIELD = np.random.default_rng(0).random((3, 2048))  # small: no mmap churn


class Clock:
    """Samples the machine's speed with a fixed unit of work."""

    def __init__(self):
        self.samples: list[float] = []

    def calibrate(self) -> None:
        """Time the unit repeatedly for CAL_BURST_S.

        The unit mixes a Python loop with small-array numpy arithmetic, the
        two kinds of work the pipeline does.
        """
        end = time.perf_counter() + CAL_BURST_S
        while time.perf_counter() < end:
            start = time.perf_counter()
            acc, table = 0.0, {}
            for i in range(4000):
                acc += i * 0.5
                table[i & 255] = acc
            for _ in range(100):
                np.sqrt(_CAL_FIELD * _CAL_FIELD + 1.0).sum()
            self.samples.append(time.perf_counter() - start)

    def factor(self) -> float:
        """Scale from seconds on this clock's phase to seconds at CAL_REF_S speed."""
        return CAL_REF_S / statistics.median(self.samples)


@dataclass
class StageRun:
    stage: str
    wall_s: float
    rss_mb: float
    cpu_s: float
    exit_code: int


class Ledger:
    """Operations attempted and failed: stage commands and checks."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.checks: dict[str, str] = {}

    def stage(self, run: StageRun) -> bool:
        self.attempted += 1
        if run.exit_code != 0:
            self.failures.append(f"{run.stage} exited with {run.exit_code}")
        return run.exit_code == 0

    def check(self, name: str, fn, *args):
        """Run one check; any exception is a failed operation."""
        self.attempted += 1
        try:
            result = fn(*args)
        except Exception as exc:  # noqa: BLE001 - each check's failure is counted
            self.checks[name] = f"FAIL: {type(exc).__name__}: {exc}"
            self.failures.append(f"{name}: {exc}")
            return None
        self.checks[name] = "ok"
        return result


# ---------------------------------------------------------------------------
# Running stages


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def stage_argv(stage_args, scenario_path, out_dir, options, seed) -> list:
    stage, *extra = [a.format(seed=seed) for a in stage_args]
    return [stage, "--scenario", scenario_path, "--out", out_dir, *options, *extra]


def run_stage(stage_args, scenario_path, out_dir, options, seed, log) -> StageRun:
    """One CLI command as a child process; max-RSS and CPU from os.wait4."""
    argv = stage_argv(stage_args, scenario_path, out_dir, options, seed)
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "semeplan.cli", *argv], cwd=ROOT,
                            env=_child_env(), stdout=log, stderr=subprocess.STDOUT)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return StageRun(argv[0], wall, usage.ru_maxrss / 1024.0,
                    usage.ru_utime + usage.ru_stime, proc.returncode)


def _file_state(out_dir):
    return {e.name: (e.stat().st_mtime_ns, e.stat().st_size)
            for e in os.scandir(out_dir) if e.is_file()}


def bytes_written(before, after) -> int:
    return sum(size for name, (mtime, size) in after.items()
               if before.get(name) != (mtime, size))


def scenario_doc(workload: Workload, seed: int) -> dict:
    if workload.town:
        return town.town(seed)
    from semeplan.synthetic import demo_scenario
    return demo_scenario()


def set_up(ledger, clock, workload, seed, out_dir, log):
    """Write the scenario and run the set-up stages; returns (path, seconds).

    The seconds exclude the calibrations made between stages.
    """
    os.makedirs(out_dir)
    start = time.perf_counter()
    path = os.path.join(out_dir, "scenario.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scenario_doc(workload, seed), fh, indent=2, sort_keys=True)
    elapsed = time.perf_counter() - start
    for stage_args in workload.setup:
        clock.calibrate()
        run = run_stage(stage_args, path, out_dir, workload.options, seed, log)
        elapsed += run.wall_s
        if not ledger.stage(run):
            raise RuntimeError(f"set-up stage {stage_args[0]} failed; see {log.name}")
    clock.calibrate()
    return path, elapsed


# ---------------------------------------------------------------------------
# Output checks


def check_outputs(ledger, out_dir, scenario_path) -> dict:
    """Oracle checks of the final outputs; returns the run's counts."""
    from semeplan.scenario import load_scenario

    counts = {}
    with open(scenario_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    scenario = ledger.check("scenario.loads", load_scenario, scenario_path)
    counts.update(cells=doc["grid"]["nx"] * doc["grid"]["ny"],
                  buildings=len(doc.get("buildings", [])),
                  candidate_sites=len(doc["sites"]))

    def sites_consistent():
        meta, _, rows = oracle.read_csv(os.path.join(out_dir, "feasibility.csv"))
        config = json.loads(meta["config"])
        with open(os.path.join(out_dir, "siteplan.json"), encoding="utf-8") as fh:
            plan_doc = json.load(fh)
        plan = [[tuple(p) for p in site] for site in plan_doc["assignments"]]
        n_rois = len(glob.glob(os.path.join(out_dir, "region_ems_roi*.csv")))
        oracle.check(scenario is None
                     or meta["scenario_hash"] == scenario.content_hash(),
                     "feasibility.csv was written for another scenario")
        oracle.check(plan_doc["scenario_hash"] == meta["scenario_hash"],
                     "siteplan.json and feasibility.csv disagree on the scenario")
        oracle.check(len(rows) == 2 * n_rois * len(doc["sites"]),
                     f"{len(rows)} verdicts for {n_rois} regions")
        oracle.check(len(plan) == len(doc["sites"]), "site plan length")
        pairs = sum(len(site) for site in plan)
        oracle.check(pairs >= 1, "no feasible (site, kind) pair")
        counts.update(regions=n_rois, feasible_pairs=pairs)
        return config, plan, meta["scenario_hash"]

    config, plan, scenario_hash = ledger.check("sites.consistent", sites_consistent) \
        or (None, None, None)
    if config is None:
        return counts

    def database():
        db = oracle.read_mapdb(os.path.join(out_dir, "mapdb.bin"))
        meta = db.header["metadata"]
        oracle.check(meta["scenario_hash"] == scenario_hash, "database scenario hash")
        oracle.check(meta["mode"] == config["mode"], "database combining mode")
        expected = sorted((n, s) for n, site in enumerate(plan) for s, _ in site)
        oracle.check(sorted(db.entries) == expected,
                     "database entries differ from the site plan")
        counts["entries"] = len(db.entries)
        return db

    db = ledger.check("mapdb.layout", database)
    if db is None:
        return counts

    def blind_spot():
        spot = oracle.blind_spot(db, config["pth_dbm"], config["roi_min_cells"])
        cells = sum(len(c) for c, _ in spot)
        regions = [k for _, k in spot]
        oracle.check(cells > 0, "blind spot is empty")
        oracle.check(max(regions) <= counts["regions"] <= sum(regions),
                     f"{counts['regions']} tracked regions from per-instant "
                     f"region counts {regions}")
        counts["blindspot_cells"] = cells
        return spot

    spot = ledger.check("blindspot", blind_spot)
    archive_path = os.path.join(out_dir, "archive.csv")
    if spot is None or not os.path.exists(archive_path):
        return counts

    model = oracle.ObjectiveModel(db, spot, plan, doc["catalog"], config["pth_dbm"],
                                  coherent=config["mode"] == "coherent",
                                  normalized=config["coverage_units"] == "normalized")
    archive = ledger.check("archive.read", oracle.read_archive, archive_path)
    if archive is None:
        return counts
    _, genes, objectives = archive
    counts["archive_size"] = len(genes)
    ledger.check("archive.objectives", oracle.check_objectives, model, genes,
                 objectives)
    ledger.check("archive.nondominated", oracle.check_nondominated, genes,
                 objectives)
    ledger.check("report.solutions", oracle.check_solutions,
                 os.path.join(out_dir, "solutions.csv"), genes, objectives)

    def front_hv():
        empty = model.coverage([0] * len(plan))
        ref = (1.1 * empty, 1.1, 1.1)
        oracle.check(empty > 0, "empty deployment has no coverage deficit")
        return oracle.hypervolume(objectives, ref) / (ref[0] * ref[1] * ref[2])

    hv = ledger.check("front_hv", front_hv)
    if hv is not None:
        counts["front_hv"] = hv
    return counts


def same_digests(name, first, later):
    diff = sorted(k for k in set(first) | set(later) if first.get(k) != later.get(k))
    if diff:
        raise AssertionError(f"{name}: outputs differ: {', '.join(diff)}")


# ---------------------------------------------------------------------------
# Records


def code_digest() -> str:
    """sha256 over the program's and the benchmark's Python sources."""
    h = hashlib.sha256()
    for base in (SRC, BENCH_DIR):
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(f for f in filenames if f.endswith(".py")):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def environment() -> dict:
    import numpy
    import scipy
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True).stdout.strip() or None
    return {"git_sha": sha, "code_digest": code_digest(),
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


def earlier_records(workload, seed, digest):
    found = []
    for path in sorted(glob.glob(os.path.join(STATE, "records", "*.json"))):
        try:
            with open(path, encoding="utf-8") as fh:
                rec = json.load(fh)
        except (OSError, ValueError):
            continue
        if (rec.get("workload"), rec.get("seed"),
                rec.get("env", {}).get("code_digest")) == (workload, seed, digest):
            found.append(rec)
    return found


def write_record(record, stem) -> str:
    os.makedirs(os.path.join(STATE, "records"), exist_ok=True)
    path = os.path.join(STATE, "records", stem + ".json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return path


# ---------------------------------------------------------------------------
# Untraced and traced runs


def measure_untraced(ledger, clock, workload, seed, seconds, out_dir, path, log):
    """Repeat the measured stages for about `seconds`, calibrating between them.

    Returns the repetitions (lists of StageRun) and the output digests after
    each.
    """
    reps, digests = [], []
    start = time.perf_counter()
    while True:
        rep = []
        for stage_args in workload.measured:
            run = run_stage(stage_args, path, out_dir, workload.options, seed, log)
            clock.calibrate()
            rep.append(run)
            if not ledger.stage(run):
                return reps, digests
        reps.append(rep)
        digests.append(oracle.output_digests(out_dir))
        elapsed = time.perf_counter() - start
        if elapsed + sum(r.wall_s for r in rep) > seconds:
            return reps, digests


def run_in_process(ledger, workload, seed, out_dir, path, tracer=None):
    """One pass of the measured stages through cli.main in this process."""
    from semeplan import cli
    times, written = {}, 0
    for stage_args in workload.measured:
        argv = stage_argv(stage_args, path, out_dir, workload.options, seed)
        before = _file_state(out_dir)
        if tracer is not None:
            tracer.install()
        try:
            with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                start = time.perf_counter()
                code = cli.main(argv)
                times[argv[0]] = time.perf_counter() - start
        finally:
            if tracer is not None:
                tracer.uninstall()
        ledger.stage(StageRun(argv[0], times[argv[0]], 0.0, 0.0, code))
        written += bytes_written(before, _file_state(out_dir))
    return times, written


def median(values):
    return statistics.median(values) if values else 0.0


def traced_run(ledger, workload, seed, seconds, out_dir, path, spans_stem):
    """Per-layer metrics: one untraced pass, then at least two traced ones."""
    plain, _ = run_in_process(ledger, workload, seed, out_dir, path)
    untraced_wall = sum(plain.values())
    passes, pass_times, digests = [], [], []
    start = time.perf_counter()
    while True:
        tracer = tracing.Tracer()
        times, written = run_in_process(ledger, workload, seed, out_dir, path, tracer)
        metrics, breakdown = tracing.layer_metrics(tracer)
        metrics["cli.bytes_written"] = written
        passes.append((metrics, breakdown))
        pass_times.append(times)
        digests.append(oracle.output_digests(out_dir))
        traced_wall = sum(b["span_s"] for b in breakdown)
        if len(passes) >= 2 and time.perf_counter() - start + traced_wall > seconds:
            break
    os.makedirs(os.path.join(STATE, "spans"), exist_ok=True)
    with gzip.open(os.path.join(STATE, "spans", spans_stem + ".csv.gz"), "wt",
                   encoding="utf-8") as fh:
        tracer.write_csv(fh)

    def stage_spans():
        """One `cli.main` root span per measured stage, as long as the time
        taken around that call, with the layers' self times adding up to it."""
        for times, (_, breakdown) in zip(pass_times, passes):
            roots = [b["name"] for b in breakdown]
            if roots != ["cli.main"] * len(times):
                raise AssertionError(f"root spans {roots} for stages {list(times)}")
            for (stage, seconds), b in zip(times.items(), breakdown):
                if abs(b["span_s"] - seconds) > 1e-3:
                    raise AssertionError(f"{stage}: span {b['span_s']!r} s, "
                                         f"timed {seconds!r} s around cli.main")
                total = sum(b["self_s"].values())
                if abs(total - b["span_s"]) > 1e-6:
                    raise AssertionError(f"{stage}: layer self times sum to "
                                         f"{total!r}, span is {b['span_s']!r}")

    ledger.check("trace.stage_spans", stage_spans)
    metrics = {}
    for name in passes[0][0]:
        values = [m[name] for m, _ in passes]
        metrics[name] = median(values) if name.endswith(("_s", "_us")) else values[0]
    traced_wall = median([sum(b["span_s"] for b in br) for _, br in passes])
    for stage in STAGES:
        metrics[f"cli.{stage}_s"] = plain.get(stage, 0.0)
    metrics.update({"cli.untraced_wall_s": untraced_wall,
                    "cli.traced_wall_s": traced_wall,
                    "cli.trace_overhead_s": traced_wall - untraced_wall})
    return metrics, [m for m, _ in passes], [b for _, b in passes], digests


# ---------------------------------------------------------------------------


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "semeplan", "cli.py")):
        print(f"error: {SRC}/semeplan not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import semeplan
    if not os.path.abspath(semeplan.__file__).startswith(SRC + os.sep):
        print(f"error: imported semeplan from {semeplan.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    spec = load_spec()
    workload = WORKLOADS[args.workload]
    env = environment()
    stem = (f"{args.workload}_seed{args.seed}_trace{args.trace}_"
            f"{time.strftime('%Y%m%dT%H%M%S')}_{os.getpid()}")
    work = os.path.join(STATE, "work", stem)
    os.makedirs(work)
    ledger = Ledger()
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "env": env}
    with open(os.path.join(work, "stages.log"), "w", encoding="utf-8") as log:
        clock = Clock()
        setups = [set_up(ledger, clock, workload, args.seed,
                         os.path.join(work, f"setup{r}"), log)
                  for r in range(1 if args.trace else workload.setup_repeats)]
        path = setups[0][0]
        out_dir = os.path.dirname(path)
        setup_digests = [oracle.output_digests(os.path.dirname(p)) for p, _ in setups]
        if args.trace:
            metrics, passes, breakdowns, digests = traced_run(
                ledger, workload, args.seed, args.seconds, out_dir, path, stem)
            record.update(per_pass=passes, stage_breakdown=breakdowns)
        else:
            setup_factor = clock.factor()
            clock = Clock()  # the measured phase has calibrations of its own
            clock.calibrate()
            reps, digests = measure_untraced(
                ledger, clock, workload, args.seed, args.seconds, out_dir, path, log)
            if not reps:
                print(f"error: measured stages failed; see {log.name}", file=sys.stderr)
                return 1
            factor = clock.factor()
            stage_walls = {
                f"{stage}_s": median([r.wall_s for rep in reps for r in rep
                                      if r.stage == stage])
                for stage in STAGES if any(r.stage == stage for r in reps[0])}
            raw = {"wall_s": median([sum(r.wall_s for r in rep) for rep in reps]),
                   "setup_s": median([s for _, s in setups]),
                   "cpu_s": median([sum(r.cpu_s for r in rep) for rep in reps]),
                   **stage_walls}
            metrics = {"wall_s": factor * raw["wall_s"],
                       "setup_s": setup_factor * raw["setup_s"],
                       "peak_rss_mb": max(r.rss_mb for rep in reps for r in rep)}
            record.update(stages={k: factor * v for k, v in stage_walls.items()},
                          raw=raw, calibration_factor=factor,
                          setup_calibration_factor=setup_factor,
                          repetitions=[[vars(r) for r in rep] for rep in reps],
                          setup_s_each=[s for _, s in setups])

    def within_run():
        for i, d in enumerate(setup_digests[1:], 1):
            same_digests(f"set-up {i}", setup_digests[0], d)
        for i, d in enumerate(digests[1:], 1):
            same_digests(f"repetition {i}", digests[0], d)

    ledger.check("determinism.within_run", within_run)
    counts = check_outputs(ledger, out_dir, path)
    if args.trace:
        metrics["nsga2.front_hv"] = counts.get("front_hv", 0.0)
    final_digests = digests[-1] if digests else {}
    earlier = earlier_records(args.workload, args.seed, env["code_digest"])

    def across_runs():
        for rec in earlier:
            same_digests(f"run {rec['stem']}", rec["digests"], final_digests)
            if args.trace and rec["trace"]:
                for name, unit in ((m["name"], m["unit"]) for m in spec["per_layer"]):
                    if unit not in ("s", "us") and rec["metrics"][name] != metrics[name]:
                        raise AssertionError(f"{name}: {metrics[name]} here, "
                                             f"{rec['metrics'][name]} in {rec['stem']}")
        return len(earlier)

    if args.trace:
        def counts_repeat():
            for name, unit in ((m["name"], m["unit"]) for m in spec["per_layer"]):
                if unit in ("s", "us") or name == "nsga2.front_hv":
                    continue
                values = {p[name] for p in passes}
                if len(values) != 1:
                    raise AssertionError(f"{name} differs across traced passes: "
                                         f"{sorted(values)}")
        ledger.check("trace.counts_repeat", counts_repeat)
    record["earlier_runs_compared"] = ledger.check("determinism.across_runs",
                                                   across_runs)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"metrics not computed: {missing}")
    result = {"correct": not ledger.failures, "attempted": ledger.attempted,
              "failed": len(ledger.failures),
              "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                          for m in wanted}}
    record.update(stem=stem, counts=counts, digests=final_digests,
                  checks=ledger.checks, failures=ledger.failures,
                  metrics=metrics, result=result)
    if args.trace:
        record["trace_overhead_s"] = metrics["cli.trace_overhead_s"]
    record_path = write_record(record, stem)
    if ledger.failures:
        for failure in ledger.failures:
            print(f"FAILED: {failure}", file=sys.stderr)
    else:
        shutil.rmtree(work)
    summary = {**record.get("stages", {}), **counts}
    print(f"{args.workload} seed {args.seed}: {json.dumps(summary, sort_keys=True)}"
          f"; record {os.path.relpath(record_path, ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
