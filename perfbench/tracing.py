"""In-memory span tracing of the semeplan layers, applied from outside.

`Tracer.install` wraps every public function defined in each layer module
(plus `Evaluator.__init__` and `Evaluator.__call__`).  It rebinds the module
attribute and the same name in every semeplan module that imported it with
`from ... import`, so calls through either path are traced.  Each call
records a span (name, start, end, parent) in memory; `uninstall` restores
the original objects.  `layer_metrics` turns the spans and the counters
gathered by the hooks into the per-layer metrics of BENCHMARK.json.

Time metrics come in three kinds:
  incl  wall time of the named functions' outermost spans (children included)
  own   time spent in the named functions' own layer: the span plus every
        descendant reached without leaving that layer, minus the child spans
        of other layers
  self  span time minus all child spans
A layer's `self_s` is the sum of `self` over all its spans; for every stage
the layers' `self_s` add up to the stage's `cli.main` span.
"""
from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("scenario", "geometry", "propagation", "siteplanner", "analysis",
          "objectives", "nsga2", "cli")

# metric -> (kind, span names)
TIME_METRICS = {
    "scenario.load_s": ("incl", ("scenario.load_scenario",)),
    "geometry.occlusion_s": ("incl", ("geometry.count_blocking_footprints",)),
    "propagation.reference_field_s": ("incl", ("propagation.reference_field",)),
    "propagation.see_contribution_s": ("own", ("propagation.see_contribution",)),
    "propagation.point_power_s": ("incl", ("propagation.point_power_dbm",)),
    "propagation.save_database_s": ("incl", ("propagation.save_database",)),
    "propagation.load_database_s": ("incl", ("propagation.load_database",)),
    "propagation.power_map_s": ("incl", ("propagation.power_map_dbm",
                                         "propagation.power_map_watts")),
    "propagation.export_power_csv_s": ("incl", ("propagation.export_power_csv",)),
    "siteplanner.qualify_sites_s": ("own", ("siteplanner.qualify_sites",)),
    "siteplanner.build_rois_s": ("incl", ("siteplanner.build_rois",)),
    "siteplanner.region_raster_s": ("incl", ("siteplanner.region_raster",)),
    "siteplanner.write_csv_s": ("incl", ("siteplanner.write_feasibility_csv",
                                         "siteplanner.write_region_raster_csv")),
    "analysis.extract_blindspot_s": ("incl", ("analysis.extract_blindspot",)),
    "analysis.report_s": ("own", ("analysis.select_representatives",
                                  "analysis.reduction_stats",
                                  "analysis.coverage_cdf")),
    "analysis.write_csv_s": ("incl", ("analysis.write_solution_table",
                                      "analysis.write_reduction_table",
                                      "analysis.write_cdf_csv",
                                      "analysis.write_archive_csv")),
    "analysis.read_archive_s": ("incl", ("analysis.read_archive_csv",)),
    "objectives.setup_s": ("incl", ("objectives.Evaluator.__init__",)),
    "objectives.eval_s": ("incl", ("objectives.Evaluator.__call__",)),
    "nsga2.sort_s": ("incl", ("nsga2.fast_nondominated_sort",)),
    "nsga2.crowding_s": ("incl", ("nsga2.crowding_distance",)),
    "nsga2.evolve_self_s": ("self", ("nsga2.evolve",)),
}

CALL_METRICS = {
    "scenario.load_calls": "scenario.load_scenario",
    "geometry.occlusion_calls": "geometry.count_blocking_footprints",
    "propagation.reference_field_calls": "propagation.reference_field",
    "propagation.see_contribution_calls": "propagation.see_contribution",
    "propagation.point_power_calls": "propagation.point_power_dbm",
    "propagation.load_database_calls": "propagation.load_database",
    "propagation.power_map_calls": "propagation.power_map_watts",
    "analysis.extract_blindspot_calls": "analysis.extract_blindspot",
    "objectives.eval_calls": "objectives.Evaluator.__call__",
    "nsga2.sort_calls": "nsga2.fast_nondominated_sort",
    "nsga2.crowding_calls": "nsga2.crowding_distance",
}


class Counters:
    """Work counts gathered by the hooks.

    A hook runs after its callee's span has closed but while the caller's
    span is still open, so its cost lands in the caller's self time.  The
    hooks on the hot calls (`count_blocking_footprints`, `Evaluator.__call__`)
    therefore only append to a list; `layer_metrics` does the counting after
    the pass.  The other hooks run once or twice per stage.
    """

    def __init__(self):
        self.counts = Counter()
        self.occlusions = []    # (origin, number of targets, footprints) per call
        self.genes = []         # repaired genes of each evaluation, as bytes

    def occlusion(self, args, kwargs, result):
        self.occlusions.append((args[0], len(args[1]), args[2]))

    def save_database(self, args, kwargs, result):
        self.counts["db_bytes_written"] += os.path.getsize(args[1])

    def load_database(self, args, kwargs, result):
        self.counts["db_bytes_read"] += os.path.getsize(args[0])

    def qualify_sites(self, args, kwargs, result):
        self.counts["verdicts"] += len(result[0])

    def extract_blindspot(self, args, kwargs, result):
        self.counts["blindspot_cells"] = sum(
            len(result.region_cells(t)) for t in range(result.time_instants))

    def evaluate(self, args, kwargs, result):
        self.genes.append(result[0].tobytes())

    def evolve(self, args, kwargs, result):
        self.counts["generations"] += len(result.trace) - 1
        self.counts["archive_size"] = len(result.archive)

    def edge_tests(self) -> int:
        """Sum over occlusion calls of targets x footprint edges."""
        return sum(n * sum(len(p) for p, _ in footprints)
                   for _, n, footprints in self.occlusions)

    def distinct_origins(self) -> int:
        return len({tuple(float(c) for c in origin) for origin, _, _ in self.occlusions})


class Tracer:
    def __init__(self):
        self.spans: list = []   # index -> (name, start, end, parent index)
        self.counters = Counters()
        self._stack: list[int] = []
        self._patches: list = []

    def _wrap(self, name, fn, hook=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent)
            if hook is not None:
                hook(args, kwargs, result)
            return result
        return traced

    def _rebind(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        c = self.counters
        hooks = {
            "geometry.count_blocking_footprints": c.occlusion,
            "propagation.save_database": c.save_database,
            "propagation.load_database": c.load_database,
            "siteplanner.qualify_sites": c.qualify_sites,
            "analysis.extract_blindspot": c.extract_blindspot,
            "nsga2.evolve": c.evolve,
        }
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "semeplan" or n.startswith("semeplan."))]
        for layer in LAYERS:
            module = sys.modules[f"semeplan.{layer}"]
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                name = f"{layer}.{attr}"
                wrapped = self._wrap(name, fn, hooks.get(name))
                for other in modules:
                    for other_attr, value in list(vars(other).items()):
                        if value is fn:
                            self._rebind(other, other_attr, wrapped)
        evaluator = sys.modules["semeplan.objectives"].Evaluator
        self._rebind(evaluator, "__init__",
                     self._wrap("objectives.Evaluator.__init__", evaluator.__init__))
        self._rebind(evaluator, "__call__",
                     self._wrap("objectives.Evaluator.__call__", evaluator.__call__,
                                c.evaluate))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write_csv(self, fh) -> None:
        fh.write("id,name,start_s,end_s,parent\n")
        t0 = self.spans[0][1] if self.spans else 0.0
        for i, (name, start, end, parent) in enumerate(self.spans):
            fh.write(f"{i},{name},{start - t0:.9f},{end - t0:.9f},{parent}\n")


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def layer_metrics(tracer: Tracer) -> tuple[dict, list]:
    """(per-layer metrics, per-stage self-time breakdown) from one traced pass.

    The breakdown lists, for each root span (one `cli.main` call per
    stage), its name, its duration and the self time of each layer inside it.
    """
    spans = tracer.spans
    n = len(spans)
    names = [s[0] for s in spans]
    parents = [s[3] for s in spans]
    dur = [s[2] - s[1] for s in spans]
    self_t = list(dur)
    for i in range(n):
        if parents[i] >= 0:
            self_t[parents[i]] -= dur[i]
    by_name = defaultdict(list)
    for i, name in enumerate(names):
        by_name[name].append(i)

    def incl(fns):
        total = 0.0
        for fn in fns:
            for i in by_name.get(fn, ()):
                p = parents[i]
                while p >= 0 and names[p] not in fns:
                    p = parents[p]
                if p < 0:
                    total += dur[i]
        return total

    def own(fns):
        owner = [False] * n  # parents precede children, so one pass suffices
        total = 0.0
        for i in range(n):
            p = parents[i]
            owner[i] = names[i] in fns or (
                p >= 0 and owner[p] and _layer(names[i]) == _layer(names[p]))
            if owner[i]:
                total += self_t[i]
        return total

    kinds = {"incl": incl, "own": own,
             "self": lambda fns: sum(self_t[i] for fn in fns for i in by_name.get(fn, ()))}
    metrics = {name: kinds[kind](set(fns)) for name, (kind, fns) in TIME_METRICS.items()}
    for name, fn in CALL_METRICS.items():
        metrics[name] = len(by_name.get(fn, ()))

    layer_self = Counter()
    stages = {}
    root = [0] * n
    for i in range(n):
        root[i] = i if parents[i] < 0 else root[parents[i]]
        layer_self[_layer(names[i])] += self_t[i]
        if parents[i] < 0:
            stages[i] = {"name": names[i], "span_s": dur[i], "self_s": Counter()}
        stages[root[i]]["self_s"][_layer(names[i])] += self_t[i]
    for layer in LAYERS:
        metrics["cli.stage_self_s" if layer == "cli" else f"{layer}.self_s"] = \
            layer_self[layer]

    c = tracer.counters
    calls = metrics["geometry.occlusion_calls"]
    evals = metrics["objectives.eval_calls"]
    metrics["geometry.edge_tests"] = c.edge_tests()
    metrics["geometry.distinct_source_ratio"] = (c.distinct_origins() / calls
                                                 if calls else 0.0)
    for key in ("db_bytes_written", "db_bytes_read"):
        metrics[f"propagation.{key}"] = c.counts[key]
    metrics["siteplanner.verdicts"] = c.counts["verdicts"]
    metrics["analysis.blindspot_cells"] = c.counts["blindspot_cells"]
    unique = len(set(c.genes))
    metrics["objectives.unique_evals"] = unique
    metrics["objectives.unique_ratio"] = unique / evals if evals else 0.0
    metrics["objectives.eval_us"] = (1e6 * metrics["objectives.eval_s"] / evals
                                     if evals else 0.0)
    metrics["nsga2.generations"] = c.counts["generations"]
    metrics["nsga2.archive_size"] = c.counts["archive_size"]
    breakdown = [{**s, "self_s": dict(s["self_s"])} for _, s in sorted(stages.items())]
    return metrics, breakdown
