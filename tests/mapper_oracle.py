"""Per-cell first-fit placement: the reference that `mapper.map_dfg` is checked against.

It keeps one boolean per fabric cell and probes every (row, column) spot
cell by cell, placing the ops in list order: a workload lists every op after
the ops it reads, so that order is a dependency order.  Its cost grows with
ops x columns x rows x width, so tests keep their fabrics small.

Run as a script, it needs neither pytest nor hypothesis: it maps seeded
generated DFGs on every fabric from 1x1 to 8x4 both ways and exits 1 on any
mismatch.

    PYTHONPATH=src python tests/mapper_oracle.py
"""

import sys

from cgralloc.mapper import DoesNotFitError, FabricDims, Placement, map_dfg
from cgralloc.workload import Dfg, GeneratorParams, generate_random_workload


def columns(opcode: str) -> int:
    """Columns an op occupies, as README states: 4 for load and store, 1 for ALU ops."""
    return 4 if opcode in ("load", "store") else 1


def map_dfg_per_cell(d: Dfg, dims: FabricDims) -> tuple[Placement, ...]:
    """First-fit placements indexed by op id, or DoesNotFitError."""
    num_rows, num_cols = dims.num_rows, dims.num_cols
    free = [[True] * num_cols for _ in range(num_rows)]
    load_cols: set[int] = set()
    store_cols: set[int] = set()
    placed: dict[int, Placement] = {}

    for op_id, op in enumerate(d.ops):
        width = columns(op.opcode)
        earliest = 0
        for ref in op.sources:
            if ref >= 0:  # an op; a negative ref reads an input
                earliest = max(earliest, placed[ref].col_start + placed[ref].width)

        spot = None
        for col in range(earliest, num_cols - width + 1):
            if op.opcode == "load" and col in load_cols:
                continue
            if op.opcode == "store" and col in store_cols:
                continue
            for row in range(num_rows):
                if all(free[row][c] for c in range(col, col + width)):
                    spot = (row, col)
                    break
            if spot is not None:
                break
        if spot is None:
            raise DoesNotFitError(op_id, earliest, dims)

        row, col = spot
        for c in range(col, col + width):
            free[row][c] = False
        if op.opcode == "load":
            load_cols.add(col)
        elif op.opcode == "store":
            store_cols.add(col)
        placed[op_id] = Placement(row=row, col_start=col, width=width)

    return tuple(placed[i] for i in range(len(d.ops)))


def _outcome(place) -> tuple:
    """The placements `place()` returns, or the op and frontier column of its misfit."""
    try:
        return tuple(place())
    except DoesNotFitError as e:
        return ("misfit", e.op_id, e.frontier_col)


def mismatches() -> list[str]:
    """One line per seeded DFG and fabric where map_dfg and map_dfg_per_cell differ.

    Each of 40 seeds generates 10 DFGs of 1-16 ops, 30% of them loads and stores,
    and maps each on every fabric of 1-8 columns and 1-4 rows.
    """
    params = GeneratorParams(num_dfgs=10, ops_per_dfg=(1, 16), memory_op_fraction=0.3)
    found = []
    for seed in range(40):
        for d in generate_random_workload(params, seed).dfgs:
            for cols in range(1, 9):
                for rows in range(1, 5):
                    dims = FabricDims(num_cols=cols, num_rows=rows)
                    got = _outcome(lambda: map_dfg(d, dims).placements)
                    want = _outcome(lambda: map_dfg_per_cell(d, dims))
                    if got != want:
                        found.append(f"seed {seed} {d.name} on {cols}x{rows}: "
                                     f"got {got}, expected {want}")
    return found


if __name__ == "__main__":
    lines = mismatches()
    print("\n".join(lines) or "map_dfg matches per-cell first fit")
    sys.exit(1 if lines else 0)
