"""Integer-encoded elitist NSGA-II and Pareto-front utilities.

Generational loop: binary tournament selection, uniform or one-point
crossover on the integer string, per-gene mutation resampling from the
feasible alphabet, then mu+lambda survivor selection.  Survivors are kept in
crowded-comparison order (front, then crowding, then index), and a
tournament goes to the contestant at the lower position.  Fully
reproducible from the seed.
"""
from __future__ import annotations

import math
from typing import Callable, NamedTuple, Sequence

import numpy as np


CROSSOVER_RATE = 0.9  # chance that a parent pair is crossed, not copied

# Chromosomes `evolve` remembers the scores of; the oldest is dropped first.
# The evaluator is pure, so the limit bounds memory and cannot change a
# result.  An entry takes about 0.8 kB at 30 sites, so the memo stays near
# 3.2 MB.  Repeats come mostly from recent generations: on a 30-site town
# searched at the CLI defaults, 4,096 entries catch 21 % of the calls and
# 65,536 (about 50 MB) only 32 %.
_MEMO_LIMIT = 1 << 12

_BLOCK = 1024  # random words `_Stream` reads from the bit generator at once


class EvolveError(RuntimeError):
    pass


class GaConfig:
    __slots__ = ("population", "iterations", "mutation_rate", "seed", "crossover")

    def __init__(self, population: int, iterations: int,
                 mutation_rate: float = 0.005, seed: int = 0,
                 crossover: str = "uniform"):  # or "one_point"
        if population < 4 or population % 2 != 0:
            raise ValueError(f"population must be an even integer >= 4, "
                             f"got {population}")
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        if not 0.0 <= mutation_rate <= 1.0:
            raise ValueError(f"mutation_rate must be in [0, 1], "
                             f"got {mutation_rate}")
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        if crossover not in ("uniform", "one_point"):
            raise ValueError(f"unknown crossover operator {crossover!r}")
        self.population = population
        self.iterations = iterations
        self.mutation_rate = mutation_rate
        self.seed = seed
        self.crossover = crossover


def fast_nondominated_sort(objectives: Sequence[Sequence[float]],
                           keep: int) -> list[int]:
    """Front index per individual (0 = non-dominated), Deb's O(MN^2) scheme.

    `no_worse[p, q]`, p is no worse than q in every objective, is built from
    one (n, n) `<=` comparison per objective column.  p dominates q exactly
    when p is no worse than q and q is not no worse than p; this holds with
    NaN too, which compares false both ways.  Front peeling then follows the
    usual domination-count bookkeeping.

    Peeling stops at the first front that brings the members placed to
    `keep` or more (`len(objectives)` ranks every front), and every member
    left gets the next index: selecting `keep` survivors never reaches them.
    """
    n = len(objectives)
    if n == 0:
        return []
    first, *rest = (np.array(column, dtype=float) for column in zip(*objectives))
    no_worse = first[:, None] <= first
    for column in rest:
        no_worse &= column[:, None] <= column
    dom = no_worse & ~no_worse.T  # dom[p, q]: p dominates q
    counts = dom.sum(axis=0)
    ranks = np.empty(n, dtype=int)
    current = np.flatnonzero(counts == 0)
    front = placed = 0
    while current.size:
        ranks[current] = front
        front += 1
        placed += current.size
        if placed >= keep:
            ranks[counts > 0] = front
            break
        # nothing in this front or a later one dominates these, so -1 stays
        counts[current] = -1
        counts -= dom[current].sum(axis=0)
        current = np.flatnonzero(counts == 0)
    return ranks.tolist()


def crowding_distance(front: Sequence[Sequence[float]]) -> list[float]:
    """Crowding of each front member; boundary individuals get +inf.

    Objectives with zero spread contribute nothing (and assign no
    boundary bonus), so duplicated fronts stay finite.
    """
    n = len(front)
    if n <= 2:
        return [float("inf")] * n
    dist = [0.0] * n
    for column in zip(*front):
        order = sorted(range(n), key=column.__getitem__)
        span = column[order[-1]] - column[order[0]]
        if span <= 0.0:
            continue
        dist[order[0]] = dist[order[-1]] = float("inf")
        for prev, i, nxt in zip(order, order[1:], order[2:]):
            dist[i] += (column[nxt] - column[prev]) / span
    return dist


class ArchiveEntry(NamedTuple):
    genes: tuple[int, ...]
    objectives: tuple[float, float, float]


def pareto_archive(front) -> tuple[ArchiveEntry, ...]:
    """The archive of a front, given as its members' (genes, objectives)
    pairs: one entry per chromosome, the first one met, sorted by
    (objectives, genes)."""
    entries = {}
    for genes, objectives in front:
        genes = tuple(int(g) for g in genes)
        entries.setdefault(genes, ArchiveEntry(genes, tuple(map(float, objectives))))
    return tuple(sorted(entries.values(), key=lambda e: (e.objectives, e.genes)))


class GenerationStats(NamedTuple):
    generation: int
    front_size: int
    best: tuple[float, float, float]  # per-objective minimum in the population


class EvolveResult(NamedTuple):
    archive: tuple[ArchiveEntry, ...]
    trace: list[GenerationStats]


class _Stream:
    """The draws of `np.random.default_rng(seed)`, made from the same words.

    The PCG64 words are read `_BLOCK` at a time with one `random_raw` call
    and kept as lists: each word's double `(w >> 11) * 2**-53` and its low
    and high 32-bit halves.  A double takes a whole word.  `below(k)` is
    numpy's bounded 32-bit draw (Lemire 2019): it takes the low half of a
    new word and keeps the high half for the next 32-bit draw, which a
    double never takes.  So `random()`, `randoms(n)` and `below(k)` return
    what a Generator of the same seed returns from `random()`, `random(n)`
    and `integers(k)`, in the same order.
    """
    __slots__ = ("_raw", "_doubles", "_lows", "_highs", "_next", "_kept")

    def __init__(self, seed: int):
        self._raw = np.random.default_rng(seed).bit_generator.random_raw
        self._doubles = self._lows = self._highs = []
        self._next = _BLOCK  # index of the next unread word
        self._kept = None  # high half left by the last 32-bit draw

    def _refill(self):
        words = self._raw(_BLOCK)
        self._doubles = ((words >> 11) * 2.0 ** -53).tolist()
        self._lows = (words & 0xFFFFFFFF).tolist()
        self._highs = (words >> 32).tolist()
        self._next = 0

    def random(self) -> float:
        if self._next == _BLOCK:
            self._refill()
        self._next += 1
        return self._doubles[self._next - 1]

    def randoms(self, n: int) -> list[float]:
        start = self._next
        if start + n <= _BLOCK:
            self._next = start + n
            return self._doubles[start:start + n]
        head = self._doubles[start:]
        self._refill()
        return head + self.randoms(n - len(head))

    def below(self, k: int) -> int:
        """Uniform in [0, k) for 1 <= k <= 2**32; `below(1)` draws nothing."""
        if k == 1:
            return 0
        while True:
            half = self._kept
            if half is None:
                if self._next == _BLOCK:
                    self._refill()
                i = self._next
                self._next = i + 1
                self._kept = self._highs[i]
                half = self._lows[i]
            else:
                self._kept = None
            scaled = half * k
            low = scaled & 0xFFFFFFFF
            # reject the low ends that would make some results likelier
            if low >= k or low >= (0x100000000 - k) % k:
                return scaled >> 32


def _contestant_draw(stream: _Stream, size: int) -> tuple[int, int, int, int]:
    """The contestants of both binary tournaments of a parent pair.

    Each tournament draws what `rng.choice(size, 2, replace=False)` draws:
    Floyd's algorithm draws a in [0, size-2], then b in [0, size-1] (b == a
    picks size-1), then a one-step shuffle draws once more.  A winner does
    not depend on the order of its two contestants, so the shuffle draw is
    ignored.
    """
    below = stream.below
    a1, b1, _ = below(size - 1), below(size), below(2)
    a2, b2, _ = below(size - 1), below(size), below(2)
    return a1, (b1 if b1 != a1 else size - 1), a2, (b2 if b2 != a2 else size - 1)


def _ranked(objectives, keep) -> tuple[list[int], list[int]]:
    """Members in crowded-comparison order, and front 0's indices, ascending.

    The order is by front, then by crowding, largest first, then by index
    (Deb et al. 2002).  Fronts are peeled and crowded only until the order
    holds `keep` members; survivor selection never reaches a later one.
    Front 0 is always peeled whole: the trace row and the archive read it.
    """
    ranks = fast_nondominated_sort(objectives, keep)
    fronts: list[list[int]] = [[] for _ in range(max(ranks) + 1)]
    for i, r in enumerate(ranks):
        fronts[r].append(i)
    order: list[int] = []
    for members in fronts:
        if len(order) >= keep:
            break
        dists = crowding_distance([objectives[i] for i in members])
        order += [i for _, i in sorted(zip([-d for d in dists], members))]
    return order, fronts[0]


def _stats(generation, front) -> GenerationStats:
    """Front 0's (genes, objectives) pairs: its distinct chromosomes, and each
    objective's minimum, which lies on front 0 when objectives are finite."""
    return GenerationStats(generation=generation,
                           front_size=len({g for g, _ in front}),
                           best=tuple(map(min, zip(*(o for _, o in front)))))


def evolve(config: GaConfig, evaluator: Callable,
           alphabets: Sequence[Sequence[int]],
           memo: dict | None = None) -> EvolveResult:
    """Run the generational loop and return the final front plus a trace.

    `evaluator(genes) -> (repaired genes, objective tuple)` must be pure; it
    receives the chromosome as a tuple of ints, and every objective it
    returns must be finite.  Its results are memoized on the incoming genes
    for the last `_MEMO_LIMIT` distinct chromosomes scored, so a repeated
    chromosome is not scored again.  The memo is `memo` when given: calls
    that pass the same dict with the same evaluator share their scores, and
    a chromosome scored in one is not scored again in another.
    `alphabets[n]` lists the feasible gene values at site n (0 is always
    added).  Each parent is the winner of a binary tournament on the
    crowded-comparison order.  Each trace row reads front 0 of its
    generation's combined parent+offspring population, and the archive is
    the deduplicated front 0 of the last one.
    """
    stream = _Stream(config.seed)
    random, randoms, below = stream.random, stream.randoms, stream.below
    alphabets = tuple(tuple(sorted({0, *map(int, a)})) for a in alphabets)
    n_genes = len(alphabets)
    size = config.population
    memo = {} if memo is None else memo

    def evaluate(genes, generation):
        scored = memo.get(genes)
        if scored is not None:
            return scored
        try:
            repaired, vec = evaluator(genes)
        except Exception as exc:
            raise EvolveError(f"evaluator failed at generation {generation}: "
                              f"{exc}") from exc
        vec = tuple(map(float, vec))
        if not all(map(math.isfinite, vec)):
            raise EvolveError(f"evaluator returned a non-finite objective "
                              f"{vec} at generation {generation}")
        memo[genes] = scored = tuple(np.asarray(repaired, dtype=int).tolist()), vec
        if len(memo) > _MEMO_LIMIT:
            del memo[next(iter(memo))]
        return scored

    def mutate(genes):
        for n, u in enumerate(randoms(n_genes)):
            if u < config.mutation_rate:
                genes[n] = alphabets[n][below(len(alphabets[n]))]
        return tuple(genes)

    def cross(a, b):
        a, b = list(a), list(b)
        if n_genes >= 2:
            if config.crossover == "uniform":
                for n, u in enumerate(randoms(n_genes)):
                    if u < 0.5:
                        a[n], b[n] = b[n], a[n]
            else:
                point = 1 + below(n_genes - 1)
                a[:point], b[:point] = b[:point], a[:point]
        return a, b

    pop_genes = [tuple(alpha[below(len(alpha))] for alpha in alphabets)
                 for _ in range(size)]
    pop_genes[0] = (0,) * n_genes  # the empty deployment
    pop = [evaluate(g, 0) for g in pop_genes]
    initial, first = _ranked([o for _, o in pop], size)
    front = [pop[i] for i in first]
    trace = [_stats(0, front)]
    # a tournament goes to the member placed first in crowded-comparison
    # order; survivors are kept in that order, so from generation 2 on a
    # member's place is its position
    place = {i: p for p, i in enumerate(initial)}

    for generation in range(1, config.iterations + 1):
        offspring = []
        for _ in range(size // 2):
            a1, b1, a2, b2 = _contestant_draw(stream, size)
            pa = pop[a1 if place[a1] < place[b1] else b1][0]
            pb = pop[a2 if place[a2] < place[b2] else b2][0]
            if random() < CROSSOVER_RATE:
                ca, cb = cross(pa, pb)
            else:
                ca, cb = list(pa), list(pb)
            offspring.append(evaluate(mutate(ca), generation))
            offspring.append(evaluate(mutate(cb), generation))
        combined = pop + offspring
        order, first = _ranked([o for _, o in combined], size)
        pop = [combined[i] for i in order[:size]]
        place = range(size)
        front = [combined[i] for i in first]
        trace.append(_stats(generation, front))

    return EvolveResult(archive=pareto_archive(front), trace=trace)


# ---------------------------------------------------------------------------
# Hypervolume (minimization, 2 or 3 objectives)


def _staircase_area(points_2d: np.ndarray, ref: Sequence[float]) -> float:
    """Union area of [p, ref] boxes for 2D minimization points."""
    pts = [p for p in points_2d if p[0] < ref[0] and p[1] < ref[1]]
    if not pts:
        return 0.0
    pts.sort(key=lambda p: (p[0], p[1]))
    area = 0.0
    best_y = ref[1]
    staircase = []
    for p in pts:
        if p[1] < best_y:
            staircase.append(p)
            best_y = p[1]
    for i, p in enumerate(staircase):
        next_x = staircase[i + 1][0] if i + 1 < len(staircase) else ref[0]
        area += (next_x - p[0]) * (ref[1] - p[1])
    return area


def hypervolume(points: Sequence[Sequence[float]], reference: Sequence[float]) -> float:
    """Dominated hypervolume of minimization points against a reference.

    Points at or beyond the reference contribute nothing.  Supports 2 and
    3 objectives (slab sweep over the last objective).
    """
    pts = np.asarray(points, dtype=float)
    ref = np.asarray(reference, dtype=float)
    if pts.ndim != 2 or pts.shape[1] not in (2, 3):
        raise ValueError("hypervolume expects an (n, 2) or (n, 3) point array")
    pts = pts[(pts < ref).all(axis=1)]
    if len(pts) == 0:
        return 0.0
    if pts.shape[1] == 2:
        return _staircase_area(pts, ref)
    z_values = np.unique(pts[:, 2])
    volume = 0.0
    for i, z in enumerate(z_values):
        z_top = z_values[i + 1] if i + 1 < len(z_values) else ref[2]
        active = pts[pts[:, 2] <= z][:, :2]
        volume += _staircase_area(active, ref[:2]) * (z_top - z)
    return float(volume)
