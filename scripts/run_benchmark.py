#!/usr/bin/env python3
"""Exhaustive-enumeration benchmark for the genetic search.

Enumerates all 5^6 deployments of the bundled toy problem, extracts the
true Pareto front, then runs the GA for several seeds and reports subset
membership, hypervolume ratio, and runtime per seed.

Usage: python scripts/run_benchmark.py [--seeds N] [--iters I] [--pop P]
"""
import argparse
import itertools
import sys
import time

import numpy as np

from semeplan.nsga2 import GaConfig, evolve, hypervolume
from semeplan.synthetic import benchmark_problem


def true_front_mask(objectives: np.ndarray) -> np.ndarray:
    """Rank-0 mask by a lexicographic sweep: only a point sorted earlier can
    dominate a point, so each is tested against the points kept so far."""
    mask = np.zeros(len(objectives), dtype=bool)
    kept = objectives[:0]
    for i in np.lexsort(objectives.T[::-1]):
        o = objectives[i]
        if not ((kept <= o).all(axis=1) & (kept < o).any(axis=1)).any():
            mask[i] = True
            kept = np.vstack([kept, o])
    return mask


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--iters", type=int, default=500)
    parser.add_argument("--pop", type=int, default=12)
    parser.add_argument("--mutation-rate", type=float, default=0.2)
    args = parser.parse_args()

    scenario, blindspot, plan, db, evaluator = benchmark_problem()
    n, s = scenario.n_sites, len(scenario.catalog)
    print(f"toy problem: {n} sites x {s} kinds -> {(s + 1) ** n} deployments")

    started = time.monotonic()
    chromosomes = list(itertools.product(range(s + 1), repeat=n))
    objectives = np.array([evaluator(np.array(c, int))[1]
                           for c in chromosomes])
    mask = true_front_mask(objectives)
    elapsed = time.monotonic() - started
    optimal = {chromosomes[i] for i in np.nonzero(mask)[0]}
    front = objectives[mask]
    print(f"enumeration + front extraction: {elapsed:.1f}s, "
          f"front size {len(optimal)}")
    order = np.argsort(front[:, 0])
    for row in front[order]:
        print(f"  coverage={row[0]:10.4f}  cost={row[1]:.4f}  "
              f"energy={row[2]:.4f}")

    ref_point = front.max(axis=0) * 1.1
    total_hv = hypervolume(front, ref_point)
    print(f"front hypervolume: {total_hv:.6g}\n")

    for seed in range(args.seeds):
        config = GaConfig(population=args.pop, iterations=args.iters,
                          seed=seed, mutation_rate=args.mutation_rate)
        started = time.monotonic()
        result = evolve(config, evaluator, plan.alphabets())
        elapsed = time.monotonic() - started
        subset = all(e.genes in optimal for e in result.archive)
        ratio = hypervolume([e.objectives for e in result.archive],
                            ref_point) / total_hv
        print(f"seed {seed}: {elapsed:5.1f}s  archive {len(result.archive):3d}"
              f"  subset={subset}  hypervolume ratio {ratio:.5f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
