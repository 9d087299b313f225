import pytest
from hypothesis import settings

from semeplan.analysis import reference_blindspot
from semeplan.objectives import Evaluator
from semeplan.propagation import build_database, reference_field
from semeplan.scenario import scenario_from_dict
from semeplan.siteplanner import build_rois, qualify_sites
from dbtools import in_memory, site_powers
from toys import coverable_toy

settings.register_profile("suite", max_examples=50, deadline=None)
settings.load_profile("suite")

PTH_DBM = -65.0


@pytest.fixture(scope="session")
def coverable():
    """Fully solved coverable toy: scenario, blind spot, regions, plan, dbs."""
    scenario = scenario_from_dict(coverable_toy())
    reference = reference_field(scenario)
    power, blindspot = reference_blindspot(reference, scenario.wavelength, PTH_DBM)
    rois = build_rois(blindspot.components, scenario.grid)
    incident = site_powers(scenario)
    report, plan = qualify_sites(scenario, rois, PTH_DBM, incident)
    assignments = plan.db_assignments(rois, scenario.grid.height)
    dbs = {mode: in_memory(build_database(scenario, reference, assignments,
                                          incident_dbm=incident, mode=mode))
           for mode in ("coherent", "incoherent")}
    return {
        "scenario": scenario,
        "reference_power": power,
        "blindspot": blindspot,
        "rois": rois,
        "report": report,
        "plan": plan,
        "dbs": dbs,
    }


@pytest.fixture(scope="session")
def coverable_evaluators(coverable):
    return {mode: Evaluator(db, coverable["blindspot"].cells_per_t(), PTH_DBM,
                            coverable["scenario"].catalog, coverable["plan"])
            for mode, db in coverable["dbs"].items()}
