"""Per-execution replay: the reference that `dse.replay_trace` is checked against.

It walks the trace one execution at a time: take the next pivot, bind the
configuration there, and bump every physical cell the binding occupies.  Its
cost grows with the number of executions, so tests keep their traces small.
"""

from cgralloc.allocation import AllocationPolicy, PivotScheduler, allocate, pivot_for_execution
from cgralloc.mapper import FabricDims, VirtualConfiguration
from cgralloc.metrics import UtilizationMap
from cgralloc.workload import Workload


def replay_per_execution(
    workload: Workload,
    mapped: dict[int, VirtualConfiguration],
    dims: FabricDims,
    policy: AllocationPolicy,
) -> UtilizationMap:
    """Replay the trace execution by execution; skipped DFGs are dropped."""
    scheduler = PivotScheduler(dims)
    umap = UtilizationMap(dims)
    for dfg_index, repeats in workload.trace:
        vc = mapped.get(dfg_index)
        if vc is None:
            continue
        for _ in range(repeats):
            alloc = allocate(vc, pivot_for_execution(policy, scheduler), dims)
            for cells in alloc.cell_map.values():
                for row, col in cells:
                    umap.active_count[row][col] += 1
            umap.total_executions += 1
    return umap
