"""Per-execution replay: the reference that `dse.replay_trace` is checked against.

It walks the trace one execution at a time: take the next pivot, bind the
configuration there, and bump every physical cell the binding occupies.  Its
pivot walk is its own: a row and a column counter, advanced column-fastest
under ROTATING and never under FIXED_ORIGIN.  Its cost grows with the number
of executions, so tests keep their traces small.
"""

from cgralloc.allocation import AllocationPolicy, Pivot, allocate
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
    rotating = policy is AllocationPolicy.ROTATING
    row = col = 0
    umap = UtilizationMap(dims)
    for dfg_index, repeats in workload.trace:
        vc = mapped.get(dfg_index)
        if vc is None:
            continue
        for _ in range(repeats):
            alloc = allocate(vc, Pivot(row, col), dims)
            for cells in alloc.cell_map.values():
                for r, c in cells:
                    umap.active_count[r][c] += 1
            umap.total_executions += 1
            if rotating:
                col += 1
                if col == dims.num_cols:
                    col, row = 0, row + 1
                    if row == dims.num_rows:
                        row = 0
    return umap
