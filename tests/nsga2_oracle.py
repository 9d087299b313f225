"""Reference generational loop: `nsga2.evolve` as it drew its random stream
with one `rng.choice` per tournament and numpy arrays for chromosomes.

`nsga2.evolve` makes the same draws in the same order more cheaply, and must
give the same archive and trace for every configuration and seed.  The
ranking and the archive here are built on the pairwise `dominates` alone,
so none of `nsga2`'s selection code checks itself.
"""
from typing import Callable, Sequence

import numpy as np

from semeplan.nsga2 import (CROSSOVER_RATE, ArchiveEntry, EvolveError, EvolveResult,
                            GaConfig, GenerationStats)

TOURNAMENT_SIZE = 2


def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """True when a is no worse everywhere and strictly better somewhere."""
    not_worse = all(x <= y for x, y in zip(a, b))
    strictly = any(x < y for x, y in zip(a, b))
    return not_worse and strictly


def nondominated_ranks(objectives: Sequence[Sequence[float]]) -> list[int]:
    """Front index per individual by iterative peeling with pairwise checks."""
    n = len(objectives)
    dominated_by = [[q for q in range(n) if dominates(objectives[q], objectives[p])]
                    for p in range(n)]
    remaining = set(range(n))
    ranks = [None] * n
    level = 0
    while remaining:
        front = {p for p in remaining
                 if not any(q in remaining for q in dominated_by[p])}
        for p in front:
            ranks[p] = level
        remaining -= front
        level += 1
    return ranks


def pareto_archive(genes_list, objectives) -> tuple[ArchiveEntry, ...]:
    """Rank-0 members, the first of each chromosome, by (objectives, genes)."""
    ranks = nondominated_ranks(objectives)
    first: dict[tuple[int, ...], tuple[float, ...]] = {}
    for genes, objs, rank in zip(genes_list, objectives, ranks):
        if rank == 0:
            first.setdefault(tuple(int(g) for g in genes),
                             tuple(float(v) for v in objs))
    entries = [ArchiveEntry(genes=g, objectives=o) for g, o in first.items()]
    return tuple(sorted(entries, key=lambda e: (e.objectives, e.genes)))


def crowding_distance(front: Sequence[Sequence[float]]) -> list[float]:
    n = len(front)
    if n <= 2:
        return [float("inf")] * n
    dist = [0.0] * n
    m = len(front[0])
    for k in range(m):
        order = sorted(range(n), key=lambda i: front[i][k])
        lo = front[order[0]][k]
        hi = front[order[-1]][k]
        span = hi - lo
        if span <= 0.0:
            continue
        dist[order[0]] = dist[order[-1]] = float("inf")
        for j in range(1, n - 1):
            gap = front[order[j + 1]][k] - front[order[j - 1]][k]
            dist[order[j]] += gap / span
    return dist


def _tournament(rng, ranks, crowding):
    n = len(ranks)
    picks = rng.choice(n, size=min(TOURNAMENT_SIZE, n), replace=False)
    best = picks[0]
    for idx in picks[1:]:
        if (ranks[idx], -crowding[idx], idx) < (ranks[best], -crowding[best], best):
            best = idx
    return best


def _rank_and_crowd(objectives):
    ranks = nondominated_ranks(objectives)
    crowding = [0.0] * len(objectives)
    by_front: dict[int, list[int]] = {}
    for i, r in enumerate(ranks):
        by_front.setdefault(r, []).append(i)
    for members in by_front.values():
        dists = crowding_distance([objectives[i] for i in members])
        for i, d in zip(members, dists):
            crowding[i] = d
    return ranks, crowding


def _stats(generation, genes_list, objectives, ranks) -> GenerationStats:
    front_genes = {tuple(int(g) for g in genes_list[i])
                   for i, r in enumerate(ranks) if r == 0}
    arr = np.asarray(objectives, dtype=float)
    return GenerationStats(generation=generation, front_size=len(front_genes),
                           best=tuple(float(v) for v in arr.min(axis=0)))


def evolve(config: GaConfig, evaluator: Callable,
           alphabets: Sequence[Sequence[int]]) -> EvolveResult:
    rng = np.random.default_rng(config.seed)
    alphabets = tuple(tuple(sorted(set(a) | {0})) for a in alphabets)
    n_genes = len(alphabets)

    def evaluate(genes, generation):
        try:
            repaired, vec = evaluator(np.asarray(genes, dtype=int))
        except Exception as exc:
            raise EvolveError(f"evaluator failed at generation {generation}: "
                              f"{exc}") from exc
        return np.asarray(repaired, dtype=int), tuple(float(v) for v in vec)

    def random_genes():
        return np.array([alpha[rng.integers(len(alpha))] for alpha in alphabets],
                        dtype=int)

    def mutate(genes):
        mask = rng.random(n_genes) < config.mutation_rate
        for n in np.nonzero(mask)[0]:
            genes[n] = alphabets[n][rng.integers(len(alphabets[n]))]
        return genes

    def cross(a, b):
        a = a.copy()
        b = b.copy()
        if n_genes >= 2:
            if config.crossover == "uniform":
                swap = rng.random(n_genes) < 0.5
                a[swap], b[swap] = b[swap], a[swap].copy()
            else:
                point = int(rng.integers(1, n_genes))
                a[:point], b[:point] = b[:point], a[:point].copy()
        return a, b

    pop_genes = [random_genes() for _ in range(config.population)]
    pop_genes[0] = np.zeros(n_genes, dtype=int)  # the empty deployment
    pop = [evaluate(g, 0) for g in pop_genes]
    ranks, crowding = _rank_and_crowd([o for _, o in pop])
    trace = [_stats(0, [g for g, _ in pop], [o for _, o in pop], ranks)]

    combined = pop
    for generation in range(1, config.iterations + 1):
        offspring = []
        while len(offspring) < config.population:
            pa = pop[_tournament(rng, ranks, crowding)][0]
            pb = pop[_tournament(rng, ranks, crowding)][0]
            if rng.random() < CROSSOVER_RATE:
                ca, cb = cross(pa, pb)
            else:
                ca, cb = pa.copy(), pb.copy()
            for child in (ca, cb):
                if len(offspring) < config.population:
                    offspring.append(evaluate(mutate(child), generation))
        combined = pop + offspring
        comb_objs = [o for _, o in combined]
        comb_ranks, comb_crowd = _rank_and_crowd(comb_objs)
        order = sorted(range(len(combined)),
                       key=lambda i: (comb_ranks[i], -comb_crowd[i], i))
        selected = order[:config.population]
        pop = [combined[i] for i in selected]
        # the survivors' combined-population ranks drive the next tournament
        ranks = [comb_ranks[i] for i in selected]
        crowding = [comb_crowd[i] for i in selected]
        trace.append(_stats(generation, [g for g, _ in combined], comb_objs,
                            comb_ranks))

    archive = pareto_archive([g for g, _ in combined], [o for _, o in combined])
    return EvolveResult(archive=archive, trace=trace)
