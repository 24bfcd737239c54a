"""Utilization-balancing configuration allocation simulator for CGRA fabrics.

Maps dataflow workloads onto a rectangular FU grid, replays execution traces
under fixed-origin and rotating allocation policies, and projects the
lifetime impact of the resulting per-cell stress.
"""

from .aging import (
    AgingParams,
    delay_curve,
    delay_increase,
    delta_vt_raw,
    lifetime,
    lifetime_improvement,
)
from .allocation import (
    ORIGIN,
    AllocationPolicy,
    PhysicalAllocation,
    Pivot,
    allocate,
    pivot_at,
)
from .dse import (
    PRESETS,
    EmptyScenarioError,
    ScenarioResult,
    run_scenario_with_map,
    sweep,
)
from .fabric import (
    ExecResult,
    MemoryModel,
    ReconfigPlan,
    check_physical_legality,
    execute,
    plan_table,
    reconfig_plan,
)
from .mapper import (
    DoesNotFitError,
    FabricDims,
    Placement,
    VirtualConfiguration,
    map_dfg,
    op_width,
)
from .metrics import (
    UtilizationMap,
    UtilizationSummary,
    export_heatmap,
    parse_heatmap,
    summarize,
    utilization_rates,
)
from .workload import (
    Dfg,
    GeneratorParams,
    Opcode,
    Operation,
    RefKind,
    ValueRef,
    Workload,
    WorkloadError,
    WorkloadSemanticError,
    WorkloadSyntaxError,
    generate_random_workload,
    input_ref,
    op_ref,
    parse_workload,
    serialize_workload,
    topological_order,
    validate_dfg,
)

__version__ = "0.1.0"
