"""Per-execution replay: the reference that `dse.replay_trace` is checked against.

It walks the trace one execution at a time: take the next pivot, bind the
configuration there, and bump every physical cell the binding occupies.  Its
pivot walk is its own: a row and a column counter, advanced column-fastest
under ROTATING and never under FIXED_ORIGIN.  Its cost grows with the number
of executions, so tests keep their traces small.

Run as a script, it needs neither pytest nor hypothesis: it compares both
replays on a fixed set of seeded scenarios and exits 1 on any mismatch.

    PYTHONPATH=src python tests/replay_oracle.py
"""

import random
import sys

from cgralloc.allocation import AllocationPolicy, Pivot, allocate
from cgralloc.dse import map_workload, replay_trace
from cgralloc.mapper import FabricDims, VirtualConfiguration
from cgralloc.metrics import UtilizationMap
from cgralloc.workload import Dfg, GeneratorParams, Workload, generate_random_workload

EMPTY_DFG = Dfg(name="empty", num_inputs=0, ops=(), outputs=())
FABRICS = ((1, 1), (1, 5), (5, 1), (8, 2))  # (cols, rows): a point, a column, a row, a grid


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


def seeded_scenarios():
    """(dims, workload) on each fabric of FABRICS, for each of 25 seeds.

    Memory ops are four columns wide, so on narrow fabrics some DFGs do not
    fit; the last DFG is empty; repeat counts reach past three pivot periods.
    """
    for seed in range(25):
        rng = random.Random(seed)
        for cols, rows in FABRICS:
            dims = FabricDims(num_cols=cols, num_rows=rows)
            params = GeneratorParams(num_dfgs=rng.randint(1, 5), ops_per_dfg=(1, 6),
                                     memory_op_fraction=rng.choice((0.0, 0.3)), num_inputs=2)
            dfgs = generate_random_workload(params, seed).dfgs + (EMPTY_DFG,)
            trace = tuple((rng.randrange(len(dfgs)), rng.randint(1, 3 * dims.num_cells + 2))
                          for _ in range(rng.randint(1, 8)))
            yield dims, Workload(dfgs, trace)


def mismatches() -> list[str]:
    """One line per seeded scenario and policy where the two replays differ."""
    found = []
    for dims, workload in seeded_scenarios():
        mapped, _ = map_workload(workload, dims)
        for policy in AllocationPolicy:
            got = replay_trace(workload, mapped, dims, policy)
            want = replay_per_execution(workload, mapped, dims, policy)
            if (got.total_executions, got.active_count) != (want.total_executions,
                                                            want.active_count):
                found.append(f"{dims.num_cols}x{dims.num_rows} {policy.value} "
                             f"trace {workload.trace}: got {got.total_executions} "
                             f"{got.active_count}, expected {want.total_executions} "
                             f"{want.active_count}")
    return found


if __name__ == "__main__":
    lines = mismatches()
    print("\n".join(lines) or "counted replay matches per-execution replay")
    sys.exit(1 if lines else 0)
