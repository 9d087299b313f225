#!/usr/bin/env python3
"""Run the fixed golden pipelines and print the sha256 of every output file.

Two scenarios, four stages each (sites, dbgen, optimize, report):
  demo/           the bundled demo town, incoherent mode, 30 dB walls,
                  GA at population 10 for 2000 generations, seed 21
  town/           the seeded 64x64 benchmark town (perfbench/town.py, seed 21),
                  coherent mode, GA for 40 generations, seed 21

A change that claims byte-identical outputs runs this script on the parent
commit and on the change, into two empty directories, and diffs the output:

    python scripts/golden_digests.py <out>

Paths in the listing are relative to <out>, so the listings compare directly.
"""
import argparse
import contextlib
import hashlib
import io
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import town  # noqa: E402
from semeplan.cli import main as semeplan  # noqa: E402
from semeplan.synthetic import demo_scenario  # noqa: E402

DEMO_OPTIONS = ["--mode", "incoherent", "--wall-loss-db", "30"]
DEMO_GA = ["--pop", "10", "--mutation-rate", "0.1", "--iters", "2000",
           "--seed", "21"]

# (directory, scenario document, stages, options shared by every stage)
PIPELINES = [
    ("demo", demo_scenario,
     [["sites"], ["dbgen"], ["optimize"] + DEMO_GA, ["report"]],
     DEMO_OPTIONS),
    ("town", lambda: town.town(21),
     [["sites"], ["dbgen", "--force"], ["optimize", "--iters", "40", "--seed", "21"],
      ["report"]],
     ["--mode", "coherent"]),
]


def run(out: str) -> int:
    for name, document, stages, options in PIPELINES:
        run_dir = os.path.join(out, name)
        os.makedirs(run_dir)
        scenario = os.path.join(run_dir, "scenario.json")
        with open(scenario, "w", encoding="utf-8") as fh:
            json.dump(document(), fh, indent=2, sort_keys=True)
        for stage in stages:
            argv = stage + ["--scenario", scenario, "--out", run_dir] + options
            with contextlib.redirect_stdout(io.StringIO()):
                code = semeplan(argv)
            if code != 0:
                print(f"error: {name}: {stage[0]} exited {code}", file=sys.stderr)
                return code
    for base, _, files in sorted(os.walk(out)):
        for fname in sorted(files):
            path = os.path.join(base, fname)
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            print(f"{digest}  {os.path.relpath(path, out)}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("out", help="empty or missing output directory")
    args = parser.parse_args()
    if os.path.isdir(args.out) and os.listdir(args.out):
        parser.error(f"{args.out} is not empty")
    return run(args.out)


if __name__ == "__main__":
    sys.exit(main())
