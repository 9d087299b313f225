#!/usr/bin/env python3
"""End-to-end demo: build the bundled scenario, run the full pipeline,
and print where the artifacts landed.

Usage: python scripts/run_demo.py [outdir] [--iters N] [--seed S]
"""
import argparse
import json
import os
import sys

from semeplan.cli import main as semeplan
from semeplan.synthetic import demo_scenario


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("outdir", nargs="?", default="demo_out")
    parser.add_argument("--iters", type=int, default=300)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--mode", default="incoherent",
                        choices=("coherent", "incoherent"))
    parser.add_argument("--wall-loss-db", type=float, default=30.0,
                        help="deeper shadows than the 20 dB engine default "
                             "make the demo trade-offs more pronounced")
    args = parser.parse_args()

    os.makedirs(args.outdir, exist_ok=True)
    scenario_path = os.path.join(args.outdir, "scenario.json")
    with open(scenario_path, "w", encoding="utf-8") as fh:
        json.dump(demo_scenario(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    base = ["--scenario", scenario_path, "--out", args.outdir,
            "--mode", args.mode, "--wall-loss-db", str(args.wall_loss_db)]

    for step in (["sites"] + base,
                 ["dbgen"] + base,
                 ["optimize"] + base + ["--iters", str(args.iters),
                                        "--seed", str(args.seed),
                                        "--mutation-rate", "0.1"],
                 ["report"] + base):
        code = semeplan(step)
        if code != 0:
            print(f"step {step[0]} failed with exit code {code}",
                  file=sys.stderr)
            return code

    print(f"\nartifacts in {args.outdir}/:")
    for name in sorted(os.listdir(args.outdir)):
        print(f"  {name}")
    print("\nkey tables: solutions.csv (front representatives), "
          "reduction.csv (per-region recovery), cdf_*.csv (power curves)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
