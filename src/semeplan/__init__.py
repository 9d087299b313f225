"""Planning toolkit for heterogeneous smart EM entity deployments."""

from .scenario import (Scenario, ScenarioError, load_scenario,
                       scenario_from_dict, scenario_to_dict)
from .propagation import (MapDatabase, build_database, load_database,
                          save_database, reference_field)
from .siteplanner import (Roi, SitePlan, build_rois, qualify_sites,
                          max_single_hop_range)
from .objectives import Evaluator, ObjectiveVector
from .nsga2 import ArchiveEntry, GaConfig, evolve, hypervolume
from .analysis import (BlindSpot, extract_blindspot, coverage_cdf,
                       select_representatives, reduction_stats)

__version__ = "0.1.0"
