"""Utilization-balancing configuration allocation simulator for CGRA fabrics.

Maps dataflow workloads onto a rectangular FU grid, replays execution traces
under fixed-origin and rotating allocation policies, and projects the
lifetime impact of the resulting per-cell stress.  The names below are the
package's entry points; everything else is reached through its submodules.
"""

from .aging import AgingParams
from .allocation import Pivot, allocate
from .dse import run_scenario_with_map
from .fabric import MemoryModel, check_physical_legality, execute, reconfig_plan
from .mapper import DoesNotFitError, FabricDims, map_dfg
from .workload import GeneratorParams, generate_random_workload, parse_workload

__all__ = [
    "AgingParams",
    "DoesNotFitError",
    "FabricDims",
    "GeneratorParams",
    "MemoryModel",
    "Pivot",
    "allocate",
    "check_physical_legality",
    "execute",
    "generate_random_workload",
    "map_dfg",
    "parse_workload",
    "reconfig_plan",
    "run_scenario_with_map",
    "__version__",
]
__version__ = "0.1.0"
