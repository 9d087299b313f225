import numpy as np
import pytest
from hypothesis import given, strategies as st

from semeplan.objectives import (Evaluator, deployment_totals, max_totals,
                                 repair)
from semeplan.propagation import MapDatabase, MissingEntryError
from dbtools import tiny_db
from objectives_oracle import coverage_deficit, evaluate, fractions
from semeplan.scenario import SeeType
from semeplan.siteplanner import SitePlan
from semeplan.synthetic import DEFAULT_CATALOG

PTH = -65.0

CATALOG = tuple(SeeType(
    kind=e["kind"], install_cost=e["install_cost"], energy_w=e["energy_w"],
    tx_power_dbm=e.get("tx_power_dbm"), gain_dbi=e.get("gain_dbi"),
    sensitivity_dbm=e.get("sensitivity_dbm"),
    reflection_efficiency=e.get("reflection_efficiency"),
    aperture_m2=e.get("aperture_m2")) for e in DEFAULT_CATALOG)


def all_kind_plan(n_sites):
    return SitePlan(tuple(((1, 1), (2, 1), (3, 1), (4, 1))
                          for _ in range(n_sites)))


def test_cost_endpoints_and_example():
    plan = all_kind_plan(2)
    assert fractions([0, 0], CATALOG, plan)[0] == 0.0
    assert fractions([4, 4], CATALOG, plan)[0] == 1.0
    got = fractions([1, 4], CATALOG, plan)[0]
    assert abs(got - 8000.0 / 15000.0) < 1e-12


def test_energy_endpoints_and_example():
    plan = all_kind_plan(2)
    assert fractions([1, 1], CATALOG, plan)[1] == 0.0  # skins draw nothing
    assert fractions([0, 0], CATALOG, plan)[1] == 0.0
    got = fractions([3, 4], CATALOG, plan)[1]
    assert abs(got - 370.0 / 700.0) < 1e-12
    assert fractions([4, 4], CATALOG, plan)[1] == 1.0


def test_max_cost_uses_feasible_kinds_only():
    plan = SitePlan((((1, 1), (2, 1)), ((1, 1), (2, 1), (3, 1), (4, 1))))
    assert max_totals(CATALOG, plan) == (750.0 + 7500.0, 2.0 + 350.0)


def test_coverage_two_cell_hand_example():
    db = tiny_db([[-70.0, -60.0]])
    got = coverage_deficit(db, [0] * 0, [np.array([[0, 0], [0, 1]])], PTH)
    # (-65 - -70) / 65 and 0, averaged over the two blind-spot cells
    assert abs(got - (5.0 / 65.0 + 0.0) / 2) < 1e-12


def test_cell_exactly_at_threshold_contributes_zero():
    db = tiny_db([[-65.0, -60.0]])
    assert coverage_deficit(db, [], [np.array([[0, 0], [0, 1]])], PTH) == 0.0


def test_empty_blindspot_warns_and_returns_zero():
    db = tiny_db([[-30.0, -20.0]])
    with pytest.warns(UserWarning, match="empty"):
        assert coverage_deficit(db, [], [np.zeros((0, 2), int)], PTH) == 0.0
    with pytest.warns(UserWarning, match="empty"):
        evaluator = Evaluator(db, [np.zeros((0, 2), int)], PTH, CATALOG, SitePlan(()))
    assert evaluator([])[1].coverage == 0.0


def test_repair_zeroes_infeasible_genes():
    plan = SitePlan((((1, 1),), ((3, 2), (4, 2)), ()))
    repaired = repair([2, 3, 4], plan.alphabets())
    assert repaired.tolist() == [0, 3, 0]
    repaired = repair([1, 4, 0], plan.alphabets())
    assert repaired.tolist() == [1, 4, 0]


def test_evaluator_matches_slow_path(coverable, coverable_evaluators):
    c = coverable
    cells = c["blindspot"].cells_per_t()
    rng = np.random.default_rng(0)
    for mode in ("coherent", "incoherent"):
        db = c["dbs"][mode]
        ev = coverable_evaluators[mode]
        for _ in range(10):
            genes = rng.integers(0, 5, size=c["scenario"].n_sites)
            fast_genes, fast_vec = ev(genes)
            slow_genes, slow_vec = evaluate(db, genes, cells, PTH,
                                            c["scenario"].catalog, c["plan"])
            assert fast_genes.tolist() == slow_genes.tolist()
            for a, b in zip(fast_vec, slow_vec):
                assert a == pytest.approx(b, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("mode", ["coherent", "incoherent"])
def test_evaluator_equals_slow_path_exactly(coverable, coverable_evaluators,
                                            mode):
    c = coverable
    cells = c["blindspot"].cells_per_t()
    rng = np.random.default_rng(1)
    for genes in rng.integers(0, 5, size=(20, c["scenario"].n_sites)):
        fast_genes, fast_vec = coverable_evaluators[mode](genes)
        slow_genes, slow_vec = evaluate(c["dbs"][mode], genes, cells, PTH,
                                        c["scenario"].catalog, c["plan"])
        assert fast_genes.tolist() == slow_genes.tolist()
        assert fast_vec == slow_vec


@pytest.mark.parametrize("mode", ["coherent", "incoherent"])
def test_evaluator_names_an_entry_missing_from_the_database(coverable, mode):
    db = coverable["dbs"][mode]
    site = 1
    kind = coverable["plan"].kind_values(site)[0]
    stale = MapDatabase(reference=db.reference,
                        entries={key: grid for key, grid in db.entries.items()
                                 if key != (site, kind)},
                        header=db.header)
    ev = Evaluator(stale, coverable["blindspot"].cells_per_t(), PTH,
                   coverable["scenario"].catalog, coverable["plan"])
    genes = np.zeros(coverable["scenario"].n_sites, dtype=int)
    genes[site] = kind
    with pytest.raises(MissingEntryError, match=f"site {site}"):
        ev(genes)


def test_evaluate_is_pure(coverable_evaluators):
    ev = coverable_evaluators["coherent"]
    a = ev(np.array([2, 3]))[1]
    b = ev(np.array([2, 3]))[1]
    assert a == b


def _fresh_evaluator(coverable, mode):
    return Evaluator(coverable["dbs"][mode], coverable["blindspot"].cells_per_t(),
                     PTH, coverable["scenario"].catalog, coverable["plan"])


def _gene_stream(coverable, count=60, seed=5):
    """Chromosomes over a small alphabet, so many of them repeat."""
    rng = np.random.default_rng(seed)
    stream = list(rng.integers(0, 5, size=(count, coverable["scenario"].n_sites)))
    assert len({tuple(g) for g in stream}) < count
    return stream


def _same_bits(got, want):
    assert got[0].tolist() == want[0].tolist()
    assert np.array(got[1]).tobytes() == np.array(want[1]).tobytes()


@pytest.mark.parametrize("mode", ["coherent", "incoherent"])
def test_warm_evaluator_equals_fresh_one(coverable, mode):
    warm = _fresh_evaluator(coverable, mode)
    for genes in _gene_stream(coverable):
        _same_bits(warm(genes), _fresh_evaluator(coverable, mode)(genes))


def test_mutating_a_returned_array_cannot_change_a_later_result(coverable):
    ev = _fresh_evaluator(coverable, "incoherent")
    want = _fresh_evaluator(coverable, "incoherent")(np.array([4, 3]))
    genes = np.array([4, 3])
    repaired, _ = ev(genes)
    repaired[:] = 1
    genes[:] = 0
    _same_bits(ev(np.array([4, 3])), want)


def test_zero_deficit_iff_all_cells_covered(coverable, coverable_evaluators):
    from semeplan.propagation import power_map_dbm
    c = coverable
    ev = coverable_evaluators["incoherent"]
    db = c["dbs"]["incoherent"]
    for genes in ([0, 0], [4, 0], [4, 4], [3, 3]):
        _, vec = ev(np.array(genes))
        covered = True
        for t in range(db.time_instants):
            cells = c["blindspot"].region_cells(t)
            power = power_map_dbm(db, genes, t)[cells[:, 0], cells[:, 1]]
            covered &= bool((power >= PTH).all())
        assert (vec.coverage == 0.0) == covered


def test_incoherent_monotone_under_added_device(coverable_evaluators):
    ev = coverable_evaluators["incoherent"]
    rng = np.random.default_rng(42)
    for _ in range(25):
        genes = rng.integers(0, 5, size=2)
        bigger = genes.copy()
        zeros = np.nonzero(bigger == 0)[0]
        if len(zeros) == 0:
            continue
        bigger[zeros[0]] = rng.integers(1, 5)
        assert ev(bigger)[1].coverage <= ev(genes)[1].coverage + 1e-12


@given(st.lists(st.integers(0, 4), min_size=4, max_size=4),
       st.lists(st.integers(0, 4), min_size=4, max_size=4))
def test_deployment_totals_additive_on_disjoint_supports(a, b):
    a = np.array(a)
    b = np.array(b)
    b[a > 0] = 0  # force disjoint installed sites
    merged = a + b
    both = np.add(deployment_totals(a, CATALOG), deployment_totals(b, CATALOG))
    assert deployment_totals(merged, CATALOG) == pytest.approx(tuple(both))
