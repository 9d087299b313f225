import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import nsga2_oracle
from fronts import hypervolume
from nsga2_oracle import dominates, nondominated_ranks
from semeplan import nsga2
from semeplan.nsga2 import (_BLOCK, EvolveError, GaConfig, _contestant_draw,
                            _Stream, crowding_distance, evolve,
                            fast_nondominated_sort)


def test_dominates_basics():
    assert dominates((0, 0, 0), (1, 1, 1))
    assert not dominates((1, 1, 1), (1, 1, 1))
    assert not dominates((0, 2, 0), (1, 1, 1))
    assert not dominates((1, 1, 1), (0, 2, 0))
    assert dominates((1, 1, 0), (1, 1, 1))


def test_sort_chain_and_duplicates():
    chain = [(0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (2.0, 2.0, 2.0)]
    assert fast_nondominated_sort(chain, len(chain)) == [0, 1, 2]
    same = [(1.0, 2.0, 3.0)] * 5
    assert fast_nondominated_sort(same, len(same)) == [0] * 5


@st.composite
def populations(draw):
    """2 or 3 objectives, up to 130 members, values from a small set so
    that ties and duplicate rows occur; NaN compares false both ways."""
    n_objectives = draw(st.integers(2, 3))
    size = draw(st.integers(0, 130))
    value = st.sampled_from([-1.0, 0.0, 0.5, 2.0, 3.5, float("nan")])
    return draw(st.lists(st.tuples(*[value] * n_objectives),
                         min_size=size, max_size=size))


@settings(max_examples=40)
@given(populations())
def test_sort_matches_brute_force_on_random_populations(objs):
    assert fast_nondominated_sort(objs, len(objs)) == nondominated_ranks(objs)


def test_sort_with_keep_on_a_chain():
    chain = [(0.0, 0.0), (0.0, 0.0), (1.0, 1.0), (2.0, 2.0), (3.0, 3.0)]
    assert fast_nondominated_sort(chain, 1) == [0, 0, 1, 1, 1]
    assert fast_nondominated_sort(chain, 3) == [0, 0, 1, 2, 2]
    assert fast_nondominated_sort(chain, 4) == [0, 0, 1, 2, 3]
    assert fast_nondominated_sort(chain, 9) == [0, 0, 1, 2, 3]


@settings(max_examples=40)
@given(populations(), st.data())
def test_sort_with_keep_peels_only_the_fronts_that_reach_keep(objs, data):
    keep = data.draw(st.integers(1, len(objs) + 1))
    full = nondominated_ranks(objs)
    if not objs:
        assert fast_nondominated_sort(objs, keep) == []
        return
    # the fronts up to the first that places `keep` members keep their index
    last = next((f for f in range(max(full) + 1)
                 if sum(r <= f for r in full) >= keep), max(full))
    assert fast_nondominated_sort(objs, keep) \
        == [r if r <= last else last + 1 for r in full]


def test_crowding_small_fronts_infinite():
    assert crowding_distance([(1.0, 2.0, 3.0)]) == [float("inf")]
    assert crowding_distance([(1.0, 2.0, 3.0), (0.0, 3.0, 2.0)]) \
        == [float("inf")] * 2


def test_crowding_three_collinear_points():
    # one varying objective: interior point gets (next - prev) / range = 1
    front = [(0.0, 7.0, 7.0), (0.5, 7.0, 7.0), (1.0, 7.0, 7.0)]
    dist = crowding_distance(front)
    assert dist[0] == float("inf")
    assert dist[2] == float("inf")
    assert dist[1] == pytest.approx(1.0)


def test_crowding_duplicated_interior_points_finite():
    front = [(0.0, 0.0), (0.5, 0.5), (0.5, 0.5), (1.0, 1.0)]
    dist = crowding_distance(front)
    assert dist[1] == pytest.approx(dist[2])
    assert np.isfinite(dist[1])


def leading_ones_evaluator(genes):
    genes = np.asarray(genes, int)
    cost = genes.sum() / (4.0 * len(genes))
    spread = float(((genes > 0) & (genes % 2 == 0)).sum()) / len(genes)
    coverage = float(len(genes) - np.count_nonzero(genes))
    return genes, (coverage, cost, spread)


def test_evolve_deterministic_and_consistent():
    alph = [(0, 1, 2, 3, 4)] * 5
    cfg = GaConfig(population=8, iterations=30, seed=123, mutation_rate=0.2)
    a = evolve(cfg, leading_ones_evaluator, alph)
    b = evolve(cfg, leading_ones_evaluator, alph)
    assert [e.genes for e in a.archive] == [e.genes for e in b.archive]
    assert [e.objectives for e in a.archive] == [e.objectives for e in b.archive]
    assert len(a.archive) > 0
    # mutual non-domination inside the archive
    for e in a.archive:
        for f in a.archive:
            assert not dominates(e.objectives, f.objectives) or e is f


def table_evaluator(seed, n_genes):
    """Pure scorer from a random table, rounded so that ties occur."""
    table = np.random.default_rng(seed).integers(0, 4, size=(3, n_genes, 8))

    def evaluator(genes):
        genes = np.asarray(genes, int)
        rows = table[:, np.arange(len(genes)), genes]
        return genes, tuple(float(v) for v in rows.sum(axis=1) / 3.0)
    return evaluator


GA_RUNS = dict(
    alphabets=st.lists(st.sets(st.integers(0, 7), max_size=3).map(sorted),
                       min_size=1, max_size=6),
    half_population=st.integers(2, 8), iterations=st.integers(1, 12),
    mutation_rate=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    seed=st.integers(0, 2 ** 16),
    crossover=st.sampled_from(["uniform", "one_point"]))


@given(**GA_RUNS)
@example(alphabets=[[1, 2]] * 4, half_population=2, iterations=6, mutation_rate=0.0,
         seed=0, crossover="uniform")
@example(alphabets=[[1, 2]] * 4, half_population=2, iterations=6, mutation_rate=1.0,
         seed=1, crossover="one_point")
@example(alphabets=[[3, 5]], half_population=3, iterations=6, mutation_rate=0.5,
         seed=2, crossover="uniform")
@example(alphabets=[[], [], [4]], half_population=2, iterations=6, mutation_rate=1.0,
         seed=3, crossover="one_point")
@example(alphabets=[[1, 2, 3, 5, 7]] * 6, half_population=30, iterations=8,
         mutation_rate=0.2, seed=4, crossover="uniform")
# front 0 alone holds the population in every generation: 9 chromosomes
@example(alphabets=[[1, 2]] * 2, half_population=4, iterations=8, mutation_rate=0.1,
         seed=6, crossover="uniform")
# every generation needs three or more fronts to place the survivors
@example(alphabets=[[1, 2, 3, 4, 5, 6, 7]] * 5, half_population=8, iterations=8,
         mutation_rate=0.5, seed=43, crossover="uniform")
# one-point crossover of two genes has a single cut point: no draw
@example(alphabets=[[1, 2], [3]], half_population=2, iterations=6, mutation_rate=0.3,
         seed=10, crossover="one_point")
# single-value alphabets: initial genes and mutations draw nothing
@example(alphabets=[[], []], half_population=2, iterations=4, mutation_rate=1.0,
         seed=11, crossover="uniform")
# generation 1 draws initial members 6 and 3, distinct chromosomes that tie on
# front 0 and crowding 17/15: the lower index wins, and the other winner
# changes the trace
@example(alphabets=[[1, 2, 3]] * 3, half_population=4, iterations=4, mutation_rate=0.2,
         seed=240, crossover="uniform")
def test_evolve_matches_the_choice_oracle(alphabets, half_population, iterations,
                                          mutation_rate, seed, crossover):
    # the oracle draws each tournament with `rng.choice` on numpy chromosomes;
    # the same seed must give the same archive and trace, draw for draw
    cfg = GaConfig(population=2 * half_population, iterations=iterations,
                   mutation_rate=mutation_rate, seed=seed, crossover=crossover)
    evaluator = table_evaluator(seed, len(alphabets))
    got = evolve(cfg, evaluator, alphabets)
    want = nsga2_oracle.evolve(cfg, evaluator, alphabets)
    assert got.archive == want.archive
    assert got.trace == want.trace


@given(**GA_RUNS)
# the last generation's front 0 holds chromosomes that earlier ones beat
@example(alphabets=[[0, 2, 6], [6], [0, 7], [0, 2, 3], [3], [0, 7]],
         half_population=7, iterations=12, mutation_rate=0.0, seed=32662,
         crossover="uniform")
@example(alphabets=[[0, 4, 7], [2, 3, 6], [2, 5, 6], [0], [2]], half_population=4,
         iterations=9, mutation_rate=1.0, seed=32858, crossover="uniform")
def test_archive_is_the_front_of_everything_scored(alphabets, half_population,
                                                   iterations, mutation_rate, seed,
                                                   crossover):
    cfg = GaConfig(population=2 * half_population, iterations=iterations,
                   mutation_rate=mutation_rate, seed=seed, crossover=crossover)
    evaluator = table_evaluator(seed, len(alphabets))
    scored = []

    def recorded(genes):
        repaired, vec = evaluator(genes)
        scored.append((tuple(int(g) for g in repaired), vec))
        return repaired, vec

    archive = evolve(cfg, recorded, alphabets).archive
    genes = [e.genes for e in archive]
    assert len(set(genes)) == len(genes)
    assert not any(dominates(o, e.objectives) for _, o in scored for e in archive)
    # and every chromosome that nothing scored beats is kept
    assert all(g in genes or any(dominates(p, o) for _, p in scored)
               for g, o in scored)


# bounds where numpy's bounded draw rejects often: up to 30 % of words
LARGE_BOUNDS = [3_000_000_000, 3_500_000_001, 2 ** 32 - 3, 2 ** 32 - 1, 2 ** 32]


def random_bound(plan):
    return plan.choice([1, plan.randint(2, 12), plan.randint(13, 5000),
                        plan.choice(LARGE_BOUNDS)])


@pytest.mark.parametrize("seed", range(24))
def test_stream_reproduces_the_generator(seed):
    # a seeded mix of every kind of draw `evolve` makes, against a Generator
    plan = random.Random(seed)
    ours, theirs = _Stream(seed), np.random.default_rng(seed)
    refills_crossed = 0
    for _ in range(1500):
        kind = plan.randrange(5)
        if kind == 0:
            assert ours.random() == theirs.random()
        elif kind == 1:
            n = plan.randint(0, 40)
            assert ours.randoms(n) == theirs.random(n).tolist()
            refills_crossed += ours._next < n
        elif kind == 2:
            k = random_bound(plan)
            assert ours.below(k) == theirs.integers(k)
        elif kind == 3:
            n = plan.randint(2, 9)
            assert 1 + ours.below(n - 1) == theirs.integers(1, n)
        else:
            highs = [random_bound(plan) for _ in range(plan.randint(1, 8))]
            assert [ours.below(k) for k in highs] \
                == theirs.integers(0, np.array(highs)).tolist()
    assert refills_crossed > 0  # runs that cross a block refill
    assert ours.random() == theirs.random()


def test_stream_rejects_and_keeps_halves_as_numpy_does():
    # long runs at one bound each: rejection at large bounds, no draw at 1
    for k in [1, 2, 3, 7, 2 ** 31 + 1] + LARGE_BOUNDS:
        ours, theirs = _Stream(k % 97), np.random.default_rng(k % 97)
        got = [ours.below(k) for _ in range(3 * _BLOCK)]
        assert got == theirs.integers(k, size=3 * _BLOCK).tolist()
        assert ours.randoms(5) == theirs.random(5).tolist()


@pytest.mark.parametrize("size", [4, 7, 10, 20, 120])
def test_contestant_draw_reproduces_two_choice_calls(size):
    for seed in range(40):
        ours, theirs = _Stream(seed), np.random.default_rng(seed)
        for k in range(25):
            a1, b1, a2, b2 = _contestant_draw(ours, size)
            first = theirs.choice(size, 2, replace=False).tolist()
            second = theirs.choice(size, 2, replace=False).tolist()
            assert {a1, b1} == set(first) and {a2, b2} == set(second)
            # draws of other kinds in between must stay in step
            if k % 3 == 0:
                assert ours.random() == theirs.random()
            if k % 4 == 1:
                assert ours.below(7) == theirs.integers(7)
            if k % 5 == 2:
                assert ours.randoms(3) == theirs.random(3).tolist()
        assert ours.random() == theirs.random()


def test_evolve_elitism_monotone_best():
    alph = [(0, 1, 2, 3, 4)] * 6
    cfg = GaConfig(population=8, iterations=40, seed=5, mutation_rate=0.3)
    result = evolve(cfg, leading_ones_evaluator, alph)
    best = np.array([row.best for row in result.trace])
    assert (np.diff(best, axis=0) <= 1e-12).all()


def test_evolve_respects_alphabets():
    alph = [(0, 2), (0, 3), (0,)]
    seen = set()

    def evaluator(genes):
        genes = np.asarray(genes, int)
        seen.add(tuple(genes))
        return genes, (float(genes.sum()), 0.0, 0.0)

    cfg = GaConfig(population=6, iterations=25, seed=9, mutation_rate=0.5)
    evolve(cfg, evaluator, alph)
    for genes in seen:
        assert genes[0] in (0, 2)
        assert genes[1] in (0, 3)
        assert genes[2] == 0


def test_evolve_single_site_trivial():
    cfg = GaConfig(population=4, iterations=5, seed=0, mutation_rate=0.5)
    result = evolve(cfg, leading_ones_evaluator, [(0, 1)])
    assert len(result.archive) >= 1


def test_evolve_reports_failing_generation():
    calls = {"n": 0}

    def flaky(genes):
        calls["n"] += 1
        if calls["n"] > 10:
            raise ValueError("boom")
        return np.asarray(genes, int), (0.0, 0.0, 0.0)

    # 8^6 chromosomes, so an 11th distinct one is scored after generation 0
    cfg = GaConfig(population=4, iterations=50, seed=0, mutation_rate=0.5)
    with pytest.raises(EvolveError, match="generation") as failure:
        evolve(cfg, flaky, [tuple(range(8))] * 6)
    assert "generation 0" not in str(failure.value)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_evolve_rejects_a_non_finite_objective(bad):
    def evaluator(genes):
        genes = np.asarray(genes, int)
        return genes, (float(genes.sum()), bad if genes[0] == 2 else 0.0, 0.0)

    cfg = GaConfig(population=6, iterations=25, seed=9, mutation_rate=0.5)
    with pytest.raises(EvolveError, match=r"non-finite .* at generation \d+"):
        evolve(cfg, evaluator, [(0, 1, 2)] * 3)


def recording(evaluator, calls):
    """`evaluator`, appending the genes of every call to `calls`."""
    def recorded(genes):
        calls.append(tuple(int(g) for g in genes))
        return evaluator(genes)
    return recorded


def memo_misses(requests, limit):
    """The requests that a memo of `limit` chromosomes, dropping the oldest
    first, passes on to the evaluator."""
    memo, misses = {}, []
    for genes in requests:
        if genes not in memo:
            misses.append(genes)
            memo[genes] = None
            if len(memo) > limit:
                del memo[next(iter(memo))]
    return misses


def scored_and_requested(coverable, evaluator, cfg):
    """(chromosomes `evolve` scored, chromosomes the memo-free oracle scored),
    after checking that both runs give the same archive and trace."""
    scored, requested = [], []
    alphabets = coverable["plan"].alphabets()
    got = evolve(cfg, recording(evaluator, scored), alphabets)
    want = nsga2_oracle.evolve(cfg, recording(evaluator, requested), alphabets)
    assert got.archive == want.archive
    assert got.trace == want.trace
    return scored, requested


def test_evolve_scores_each_distinct_chromosome_once(coverable, coverable_evaluators):
    cfg = GaConfig(population=8, iterations=30, seed=4, mutation_rate=0.3)
    for evaluator in coverable_evaluators.values():
        scored, requested = scored_and_requested(coverable, evaluator, cfg)
        assert len(scored) < len(requested)
        assert Counter(scored) == Counter(set(requested))
        assert scored == memo_misses(requested, nsga2._MEMO_LIMIT)


def test_results_survive_memo_eviction(coverable, coverable_evaluators, monkeypatch):
    cfg = GaConfig(population=8, iterations=30, seed=9, mutation_rate=0.3)
    evaluator = coverable_evaluators["coherent"]
    unevicted = evolve(cfg, evaluator, coverable["plan"].alphabets())
    monkeypatch.setattr(nsga2, "_MEMO_LIMIT", 4)
    scored, requested = scored_and_requested(coverable, evaluator, cfg)
    assert scored == memo_misses(requested, 4)
    assert len(scored) > len(set(scored))  # evicted chromosomes were scored again
    assert evolve(cfg, evaluator, coverable["plan"].alphabets()) == unevicted


def test_admit_keeps_each_undominated_chromosome_once():
    kept = []
    tie = (1.0, 2.0, 3.0)
    for objectives, genes in [(tie, (2,)), (tie, (1,)), (tie, (2,)),
                              ((2.0, 2.0, 3.0), (3,)), ((0.0, 5.0, 0.0), (4,))]:
        nsga2._admit(kept, objectives, genes)
    # the tie twice, the repeat and the dominated chromosome not at all
    assert kept == [((0.0, 5.0, 0.0), (4,)), (tie, (1,)), (tie, (2,))]
    nsga2._admit(kept, (1.0, 1.0, 3.0), (5,))
    assert kept == [((0.0, 5.0, 0.0), (4,)), ((1.0, 1.0, 3.0), (5,))]


def test_config_validation():
    with pytest.raises(ValueError, match="population"):
        GaConfig(population=5, iterations=10)
    with pytest.raises(ValueError, match="population"):
        GaConfig(population=2, iterations=10)
    with pytest.raises(ValueError, match="iterations"):
        GaConfig(population=4, iterations=0)
    with pytest.raises(ValueError, match="mutation_rate"):
        GaConfig(population=4, iterations=1, mutation_rate=1.5)
    with pytest.raises(ValueError, match="crossover"):
        GaConfig(population=4, iterations=1, crossover="twirl")


def test_reference_injection():
    cfg = GaConfig(population=4, iterations=1, seed=0)
    seen = []

    def evaluator(genes):
        genes = np.asarray(genes, int)
        seen.append(tuple(genes))
        return genes, (1.0, 1.0, 1.0)

    evolve(cfg, evaluator, [(0, 1)] * 4)
    assert seen[0] == (0, 0, 0, 0)


def test_hypervolume_single_point():
    assert hypervolume([[1.0, 1.0, 1.0]], [2.0, 2.0, 2.0]) == pytest.approx(1.0)
    assert hypervolume([[1.0, 1.0]], [3.0, 2.0]) == pytest.approx(2.0)
    assert hypervolume([[2.0, 2.0, 2.0]], [2.0, 2.0, 2.0]) == 0.0


def test_hypervolume_two_overlapping_boxes():
    # boxes [1,4]x[2,4] and [2,4]x[1,4]: union area 9 - 4 + ... = hand: 6+6-4=8
    got = hypervolume([[1.0, 2.0], [2.0, 1.0]], [4.0, 4.0])
    assert got == pytest.approx(8.0)
    got3 = hypervolume([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0]], [4.0, 4.0, 1.0])
    assert got3 == pytest.approx(8.0)


def test_hypervolume_dominated_points_do_not_add():
    pts = [[1.0, 1.0, 1.0], [1.5, 1.5, 1.5]]
    assert hypervolume(pts, [2.0, 2.0, 2.0]) == pytest.approx(1.0)


@settings(max_examples=25)
@given(st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1)),
                min_size=1, max_size=12))
def test_hypervolume_matches_monte_carlo(points):
    ref = (1.1, 1.1, 1.1)
    exact = hypervolume(points, ref)
    rng = np.random.default_rng(0)
    samples = rng.uniform(0.0, 1.1, size=(20000, 3))
    pts = np.asarray(points)
    inside = np.zeros(len(samples), dtype=bool)
    for p in pts:
        inside |= (samples >= p).all(axis=1)
    mc = inside.mean() * 1.1 ** 3
    assert exact == pytest.approx(mc, abs=0.05)
