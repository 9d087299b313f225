"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.
"""
import itertools
import time

import numpy as np
import pytest

from semeplan.analysis import (empirical_cdf, read_archive_csv, reduction_stats,
                               reference_blindspot, select_representatives)
from semeplan.cli import main
from semeplan.nsga2 import (ArchiveEntry, GaConfig, evolve,
                            fast_nondominated_sort)
from semeplan.objectives import Evaluator
from semeplan.propagation import (build_database, power_map_dbm,
                                  power_map_watts, reference_field)
from semeplan.scenario import SeeType, scenario_from_dict
from semeplan.siteplanner import (SitePlan, ase_radii, ase_region, ems_region,
                                  max_single_hop_range, path_within_reach,
                                  build_rois)
from semeplan.synthetic import DEFAULT_CATALOG, demo_scenario
from semeplan.units import FREE_SPACE_IMPEDANCE
from dbtools import see_contribution, site_powers
from fronts import hypervolume, true_front
from nsga2_oracle import dominates
from objectives_oracle import coverage_deficit, fractions
from toys import benchmark_problem, coverable_toy, pareto_toy, write_scenario

PTH = -65.0


def report(criterion, name):
    print(f"\n[acceptance] C{criterion:02d} {name}: PASS")


def test_true_front_sweep_matches_pairwise_oracle():
    def pairwise(objectives):
        return np.array([not ((objectives <= o).all(axis=1)
                              & (objectives < o).any(axis=1)).any()
                         for o in objectives], dtype=bool)

    rng = np.random.default_rng(11)
    for _ in range(60):
        n = int(rng.integers(1, 80))
        objectives = rng.integers(0, 4, size=(n, 3)).astype(float)
        assert (true_front(objectives) == pairwise(objectives)).all()


def test_c01_exhaustive_pareto_recovery():
    scenario, blindspot, plan, db, evaluator = benchmark_problem(PTH)
    assert scenario.n_sites == 6 and len(scenario.catalog) == 4
    assert len(scenario.buildings) == 4
    assert scenario.time_instants == 2
    assert scenario.bts.sector_count == 1
    assert all(len(a) == 4 for a in plan.assignments)  # all sites feasible

    started = time.monotonic()
    chromosomes = list(itertools.product(range(5), repeat=6))
    assert len(chromosomes) == 15625
    objectives = np.array([evaluator(np.array(c, int))[1]
                           for c in chromosomes])
    mask = true_front(objectives)
    enumerated_s = time.monotonic() - started
    optimal = {chromosomes[i] for i in np.nonzero(mask)[0]}
    front_points = objectives[mask]
    ref_point = front_points.max(axis=0) * 1.1
    total_hv = hypervolume(front_points, ref_point)

    runs = []
    for seed in (0, 1, 2, 3, 4, 7):
        config = GaConfig(population=12, iterations=500, seed=seed,
                          mutation_rate=0.2)
        scored = set()

        def recorded(genes):
            scored.add(tuple(int(g) for g in genes))
            return evaluator(genes)

        started = time.monotonic()
        result = evolve(config, recorded, plan.alphabets())
        elapsed = time.monotonic() - started

        assert elapsed <= 60.0
        assert all(entry.genes in optimal for entry in result.archive)
        assert {entry.genes for entry in result.archive} == optimal & scored
        got_hv = hypervolume([e.objectives for e in result.archive], ref_point)
        assert got_hv >= 0.99 * total_hv
        runs.append(f"seed {seed}: {elapsed:.2f}s archive {len(result.archive)} "
                    f"hypervolume ratio {got_hv / total_hv:.5f}")
    report(1, f"exhaustive Pareto-front recovery on the toy problem "
              f"(front {len(optimal)}, enumerated in {enumerated_s:.1f}s; "
              f"{'; '.join(runs)})")


def test_c01_demo_archive_is_the_front_of_everything_scored(tmp_path, monkeypatch):
    # The demo golden run.  Its last generation's front 0 holds members that
    # chromosomes scored earlier beat; the archive holds what nothing the
    # run scored beats, so every chromosome of the exhaustive front that
    # the run met.
    score = Evaluator.__call__
    scorers, scored = [], {}

    def recorded(self, genes):
        scorers.append(self)
        repaired, vec = score(self, genes)
        scored[tuple(int(g) for g in repaired)] = tuple(vec)
        return repaired, vec

    scenario = tmp_path / "scenario.json"
    write_scenario(demo_scenario(), scenario)
    base = ["--scenario", str(scenario), "--out", str(tmp_path),
            "--mode", "incoherent", "--wall-loss-db", "30"]
    assert main(["sites"] + base) == 0
    assert main(["dbgen"] + base) == 0
    monkeypatch.setattr(Evaluator, "__call__", recorded)
    assert main(["optimize"] + base + ["--pop", "10", "--mutation-rate", "0.1",
                                       "--iters", "2000", "--seed", "21"]) == 0
    monkeypatch.undo()
    _, archive = read_archive_csv(tmp_path / "archive.csv")
    kept = {entry.genes for entry in archive}

    genes = list(scored)
    front = true_front(np.array([scored[g] for g in genes]))
    assert kept == {g for g, on in zip(genes, front) if on}
    assert all(scored[entry.genes] == entry.objectives for entry in archive)

    chromosomes = list(itertools.product(*scorers[0].alphabets))
    assert len(chromosomes) == 1875
    objectives = np.array([score(scorers[0], c)[1] for c in chromosomes])
    mask = true_front(objectives)
    optimal = {chromosomes[i] for i in np.flatnonzero(mask)}
    assert optimal & set(scored) <= kept
    ref_point = objectives[mask].max(axis=0) * 1.1
    total_hv = hypervolume(objectives[mask], ref_point)
    got_hv = hypervolume([entry.objectives for entry in archive], ref_point)
    assert got_hv >= 0.99 * total_hv
    report(1, f"demo archive: {len(kept)} members, the front of {len(scored)} "
              f"chromosomes scored; {len(kept & optimal)} of the exhaustive "
              f"front's {len(optimal)}, hypervolume ratio {got_hv / total_hv:.6f}")


def test_c02_nondominated_sort_oracle():
    def brute_force(objs):
        remaining = set(range(len(objs)))
        ranks = [0] * len(objs)
        level = 0
        while remaining:
            front = {p for p in remaining
                     if not any(dominates(objs[q], objs[p])
                                for q in remaining if q != p)}
            for p in front:
                ranks[p] = level
            remaining -= front
            level += 1
        return ranks

    rng = np.random.default_rng(2024)
    for _ in range(200):
        n = int(rng.integers(1, 65))
        objs = rng.integers(0, 6, size=(n, 3)).astype(float)
        if n >= 4:  # force duplicate vectors into the population
            objs[rng.integers(n)] = objs[rng.integers(n)]
        objs = [tuple(row) for row in objs]
        assert fast_nondominated_sort(objs, len(objs)) == brute_force(objs)
    report(2, "fast non-dominated sort equals the pairwise oracle")


def test_c03_cost_energy_exactness():
    catalog = tuple(SeeType(
        kind=e["kind"], install_cost=e["install_cost"], energy_w=e["energy_w"],
        tx_power_dbm=e.get("tx_power_dbm"), gain_dbi=e.get("gain_dbi"),
        sensitivity_dbm=e.get("sensitivity_dbm"),
        reflection_efficiency=e.get("reflection_efficiency"),
        aperture_m2=e.get("aperture_m2")) for e in DEFAULT_CATALOG)
    assert [k.install_cost for k in catalog] == [500.0, 750.0, 3000.0, 7500.0]
    assert [k.energy_w for k in catalog] == [0.0, 2.0, 20.0, 350.0]

    for n_sites in (2, 5, 20):
        plan = SitePlan(tuple(((1, 1), (2, 1), (3, 1), (4, 1))
                              for _ in range(n_sites)))
        assert fractions([0] * n_sites, catalog, plan)[0] == 0.0
        assert fractions([4] * n_sites, catalog, plan) == (1.0, 1.0)
    plan2 = SitePlan(tuple(((1, 1), (2, 1), (3, 1), (4, 1)) for _ in range(2)))
    assert abs(fractions([1, 4], catalog, plan2)[0] - 8000.0 / 15000.0) < 1e-12
    report(3, "cost and energy terms exact at the catalog endpoints")


def test_c04_geometry_oracles():
    scenario = scenario_from_dict(pareto_toy())
    rois = [r for r in build_rois(
        reference_blindspot(reference_field(scenario), scenario.wavelength,
                            PTH)[1].components,
        scenario.grid)]
    roi = rois[0]
    rng = np.random.default_rng(99)

    points = rng.uniform(-2e4, 2e4, size=(10_000, 3))
    reach = max_single_hop_range(scenario, PTH)
    bts = np.asarray(scenario.bts.position)
    bary = np.array([roi.avg_barycenter[0], roi.avg_barycenter[1],
                     scenario.grid.height])
    expected = np.array([
        np.sqrt(((p - bts) ** 2).sum()) + np.sqrt(((p - bary) ** 2).sum())
        <= reach for p in points])
    assert (ems_region(scenario, roi, PTH)(points) == expected).all()

    kind = scenario.catalog[2]
    rho_bts, rho_roi = ase_radii(scenario, kind, PTH)
    expected = np.array([
        np.sqrt(((p - bts) ** 2).sum()) <= rho_bts
        and np.sqrt(((p - bary) ** 2).sum()) <= rho_roi for p in points])
    assert (ase_region(scenario, roi, kind, PTH)(points) == expected).all()

    for _ in range(1000):
        f1, f2 = rng.uniform(-100, 100, size=(2, 3))
        reach = float(np.linalg.norm(f1 - f2)) * float(rng.uniform(1.0, 2.5))
        pts = rng.uniform(-150, 150, size=(20, 3))
        assert (path_within_reach(pts, f1, f2, reach)
                == path_within_reach(pts, f2, f1, reach)).all()
    report(4, "region predicates match the two-distance oracles")


def test_c05_range_formula():
    scenario = scenario_from_dict({
        "frequency_hz": 3.5e9,
        "grid": {"origin": [0.0, 0.0], "spacing_m": 5.0, "nx": 4, "ny": 4,
                 "height_m": 1.5},
        "bts": {"position": [0.0, 0.0, 18.0],
                "time_instants": [{"sectors": [{
                    "azimuth_deg": 0.0, "downtilt_deg": 2.0,
                    "tx_power_w": 20.0, "max_gain_dbi": 16.3}]}]},
    })
    got = max_single_hop_range(scenario, pth_dbm=-65.0)
    # hand evaluation in the dB domain: (43.0103 + 16.3 + 0 + 65) / 20 decades
    decades = (10.0 * np.log10(20.0e3) + 16.3 + 0.0 + 65.0) / 20.0
    hand = scenario.wavelength / (4.0 * np.pi) * 10.0 ** decades
    assert abs(got - hand) / hand < 1e-3
    assert got == pytest.approx(1.12e4, rel=0.01)
    report(5, "single-hop range formula matches the dB-domain evaluation")


def test_c06_superposition_equivalence():
    doc = {
        "frequency_hz": 3.5e9,
        "grid": {"origin": [0.0, 0.0], "spacing_m": 5.0, "nx": 10, "ny": 10,
                 "height_m": 1.5},
        "bts": {"position": [2.0, 2.0, 12.0], "time_instants": [
            {"sectors": [{"azimuth_deg": 45.0, "downtilt_deg": 3.0,
                          "tx_power_w": 5.0, "max_gain_dbi": 16.3}]},
            {"sectors": [{"azimuth_deg": 50.0, "downtilt_deg": 4.0,
                          "tx_power_w": 5.0, "max_gain_dbi": 16.3}]},
        ]},
        "buildings": [{"footprint": [[18.0, 10.0], [26.0, 10.0], [26.0, 22.0],
                                     [18.0, 22.0]], "height_m": 14.0}],
        "catalog": DEFAULT_CATALOG,
        "sites": [{"position": [10.0, 30.0, 6.0], "mount": "pole"},
                  {"position": [30.0, 10.0, 6.0], "mount": "pole"},
                  {"position": [40.0, 40.0, 6.0], "mount": "pole"}],
    }
    scenario = scenario_from_dict(doc)
    targets = {
        (0, 1): np.array([[35.0, 35.0, 1.5], [30.0, 40.0, 1.5]]),
        (1, 3): np.array([[40.0, 25.0, 1.5], [40.0, 30.0, 1.5]]),
        (2, 4): np.array([[20.0, 40.0, 1.5], [25.0, 40.0, 1.5]]),
    }
    genes = [1, 3, 4]
    lam = scenario.wavelength

    # from-scratch recomputation, no database involved
    ref = reference_field(scenario)
    fields = {key: see_contribution(scenario, scenario.sites[n],
                                    scenario.catalog[s - 1], targets[(n, s)])
              for key in targets for n, s in [key]}
    for mode in ("coherent", "incoherent"):
        db = build_database(scenario, ref, targets,
                            incident_dbm=site_powers(scenario), mode=mode)
        for t in range(2):
            via_db = power_map_watts(db, genes, t)
            if mode == "coherent":
                total = ref[t] + sum(f[t] for f in fields.values())
                scratch = (np.abs(total) ** 2).sum(axis=0) * lam ** 2 \
                    / (8.0 * np.pi * FREE_SPACE_IMPEDANCE)
            else:
                parts = [ref[t]] + [f[t] for f in fields.values()]
                scratch = sum((np.abs(p) ** 2).sum(axis=0) for p in parts) \
                    * lam ** 2 / (8.0 * np.pi * FREE_SPACE_IMPEDANCE)
            np.testing.assert_allclose(via_db, scratch, rtol=1e-9)
    report(6, "database power equals from-scratch superposition, both modes")


def test_c07_coverage_term_semantics(coverable, coverable_evaluators):
    # hand-computed two-cell example
    from dbtools import tiny_db
    db = tiny_db([[-70.0, -60.0]])
    got = coverage_deficit(db, [], [np.array([[0, 0], [0, 1]])], PTH)
    # (-65 - -70) / 65 and 0, averaged over the two blind-spot cells
    assert abs(got - (5.0 / 65.0 + 0.0) / 2) < 1e-12

    # zero iff every blind-spot cell meets the threshold
    c = coverable
    ev = coverable_evaluators["incoherent"]
    db_inc = c["dbs"]["incoherent"]
    for genes in itertools.product(range(5), repeat=2):
        genes = np.array(genes)
        _, vec = ev(genes)
        covered = all(
            (power_map_dbm(db_inc, genes, t)[cells[:, 0], cells[:, 1]] >= PTH).all()
            for t in range(db_inc.time_instants)
            for cells in [c["blindspot"].region_cells(t)])
        assert (vec.coverage == 0.0) == covered

    # monotone under adding devices, 100 random pairs
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 100:
        genes = rng.integers(0, 5, size=2)
        zeros = np.nonzero(genes == 0)[0]
        if len(zeros) == 0:
            continue
        bigger = genes.copy()
        bigger[zeros[0]] = rng.integers(1, 5)
        assert ev(bigger)[1].coverage <= ev(genes)[1].coverage + 1e-12
        checked += 1
    report(7, "coverage deficit semantics and incoherent monotonicity")


def test_c08_representative_selection(coverable, coverable_evaluators):
    rng = np.random.default_rng(21)
    scores = {
        "best_coverage": lambda o: o[0],
        "best_compromise": lambda o: abs(o[0]) + abs(o[1]) + abs(o[2]),
        "coverage_cost": lambda o: abs(o[0]) + abs(o[1]),
        "coverage_energy": lambda o: abs(o[0]) + abs(o[2]),
    }
    for _ in range(100):
        vecs = [tuple(v) for v in rng.random((int(rng.integers(1, 20)), 3))]
        archive = tuple(ArchiveEntry(genes=(i,), objectives=v)
                        for i, v in enumerate(vecs))
        reps = select_representatives(archive)
        for name, score in scores.items():
            assert score(reps[name].objectives) \
                == pytest.approx(min(score(v) for v in vecs))

    # constructed-coverable scenario: the known all-node deployment covers
    # everything, verified by direct evaluation before the GA runs
    c = coverable
    ev = coverable_evaluators["incoherent"]
    known = np.array([4, 4])
    _, vec_known = ev(known)
    assert vec_known.coverage == 0.0

    result = evolve(GaConfig(population=8, iterations=60, seed=1,
                             mutation_rate=0.25), ev, c["plan"].alphabets())
    reps = select_representatives(result.archive)
    best = reps["best_coverage"]
    assert best.objectives[0] == 0.0
    db = c["dbs"]["incoherent"]
    ref_power = np.stack([power_map_dbm(db, [0, 0], t) for t in range(2)])
    new_power = np.stack([power_map_dbm(db, list(best.genes), t)
                          for t in range(2)])
    stats = reduction_stats(ref_power, new_power, c["rois"], PTH)
    assert stats, "expected at least one region"
    assert all(s.reduction_pct == 100.0 for s in stats)
    report(8, "representative picks match the argmin oracles; "
              "best-coverage fully clears the toy blind spots")


def test_c09_cdf_properties():
    rng = np.random.default_rng(31)
    grid = np.linspace(-80.0, -30.0, 101)
    for _ in range(50):
        values = rng.uniform(-85, -35, size=int(rng.integers(5, 400)))
        cdf = empirical_cdf(values, grid)
        assert (np.diff(cdf) >= 0.0).all()
        assert cdf[0] == 0.0 or values.min() <= grid[0]
        assert empirical_cdf(values, np.array([values.min() - 1.0]))[0] == 0.0
        assert empirical_cdf(values, np.array([values.max()]))[0] == 1.0
        sample = rng.choice(grid, size=5)
        for p_hat in sample:
            assert empirical_cdf(values, np.array([p_hat]))[0] \
                == pytest.approx((values <= p_hat).mean())
    report(9, "CDF is a nondecreasing [0, 1] curve matching the counting oracle")


def test_c10_end_to_end_determinism(tmp_path):
    scenario_path = tmp_path / "scenario.json"
    write_scenario(coverable_toy(), scenario_path)
    outputs = []
    for run in ("a", "b"):
        out = tmp_path / run
        base = ["--scenario", str(scenario_path), "--out", str(out),
                "--mode", "incoherent"]
        assert main(["sites"] + base) == 0
        assert main(["dbgen"] + base) == 0
        assert main(["optimize"] + base + ["--pop", "8", "--iters", "40",
                                           "--seed", "11",
                                           "--mutation-rate", "0.2"]) == 0
        assert main(["report"] + base) == 0
        outputs.append(out)
    a, b = outputs
    names = sorted(p.name for p in a.iterdir() if p.suffix == ".csv")
    assert "archive.csv" in names and "solutions.csv" in names
    for name in names + ["mapdb.bin", "manifest.json", "siteplan.json"]:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    report(10, "two identical pipeline runs produce byte-identical outputs")
