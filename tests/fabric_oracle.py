"""Reconfiguration plans and allocations against their definitions, on a grid of fabric sizes.

`plan_mismatches` checks `fabric.reconfig_plan` at every pivot against its per-column
definition: physical column pc listens to line ((pc - col) mod num_cols) mod num_config_lines,
every column shifts its bits by the pivot row, the wrap mux is on only at column col and only
if col != 0, and loading takes ceil(num_cols / num_config_lines) cycles.

`allocation_mismatches` checks `allocation.allocate` at every pivot against the per-cell
definition: logical (r, c) lands on ((r + pivot.row) mod num_rows, (c + pivot.col) mod
num_cols), so op k's cells are ((row + pivot.row) mod num_rows, (col_start + j + pivot.col) mod
num_cols) for j < width.  Its configurations are mapped generated DFGs, and hand-built
placements that leave the fabric: a row of -1 or num_rows and beyond, a col_start of -1 or
num_cols and beyond, a run past the right edge, every width from 0 to num_cols.  A placement of
negative width, wider than the fabric or with a non-int field must raise ValueError.

Both functions read one table per fabric size inside the package, so FABRIC_GRID lists the
sizes interleaved in one process: the same num_cols with other num_config_lines and
num_rows, and the same num_config_lines with other sizes, follow each other, and a table keyed
on too few fields is read for the wrong fabric.

Run as a script (no pytest needed); it exits 1 on any mismatch:

    PYTHONPATH=src python tests/fabric_oracle.py
"""

import sys

from cgralloc.allocation import Pivot, allocate
from cgralloc.fabric import reconfig_plan
from cgralloc.mapper import DoesNotFitError, FabricDims, Placement, VirtualConfiguration, map_dfg
from cgralloc.workload import Dfg, GeneratorParams, Operation, generate_random_workload

SIZES = ((1, 1), (1, 5), (5, 1), (8, 2), (10, 2), (3, 2), (5, 3))  # (num_cols, num_rows)
# num_config_lines: one line, three, one more than the columns, and the default four
LINE_RULES = (lambda cols: 1, lambda cols: 3, lambda cols: cols + 1, lambda cols: 4)
FABRIC_GRID = tuple(FabricDims(cols, rows, lines(cols))
                    for lines in LINE_RULES for cols, rows in SIZES)
DFG_PARAMS = GeneratorParams(num_dfgs=40, ops_per_dfg=(2, 8), memory_op_fraction=0.3)
_ONE_OP = Dfg("any", 2, (Operation("add", (~0, ~1)),), (0,))


def configuration(*placements: Placement) -> VirtualConfiguration:
    """Hand-built placements under any DFG: allocate reads the placements only."""
    return VirtualConfiguration(_ONE_OP, placements)


def size_grid(cols: int, rows: int) -> list[FabricDims]:
    """The grid's fabrics of one size: each rule's num_config_lines, in grid order."""
    return [d for d in FABRIC_GRID if (d.num_cols, d.num_rows) == (cols, rows)]


def pivots(dims: FabricDims):
    return [Pivot(r, c) for r in range(dims.num_rows) for c in range(dims.num_cols)]


def plan_by_columns(pivot: Pivot, dims: FabricDims) -> tuple:
    cols, n = dims.num_cols, dims.num_config_lines
    return (tuple(((pc - pivot.col) % cols) % n for pc in range(cols)),
            tuple(pivot.row for _ in range(cols)),
            tuple(pc == pivot.col != 0 for pc in range(cols)),
            (cols + n - 1) // n)


def cells_by_definition(vc: VirtualConfiguration, pivot: Pivot, dims: FabricDims) -> tuple:
    return tuple(tuple(((row + pivot.row) % dims.num_rows,
                        (col + j + pivot.col) % dims.num_cols) for j in range(width))
                 for row, col, width in vc.placements)


def off_fabric_placements(dims: FabricDims) -> list[Placement]:
    """Rows and columns on, next to and far off the fabric, with every width it holds."""
    rows, cols = dims.num_rows, dims.num_cols
    return [Placement(r, c, w) for r in (-1, 0, rows - 1, rows, 3 * rows + 1, -2 * rows - 1)
            for c in (-1, 0, cols - 1, cols, 2 * cols + 1, -3 * cols) for w in range(cols + 1)]


def bad_placements(dims: FabricDims) -> list[Placement]:
    """Placements that allocate must refuse with ValueError."""
    cols = dims.num_cols
    return [Placement(0, 0, cols + 1), Placement(0, cols - 1, 2 * cols + 3), Placement(0, 0, -1),
            Placement(-1, -1, -cols - 2), Placement(0.0, 0, 1), Placement(0, 0.0, 1),
            Placement(0, 0, 1.0), Placement(0, "0", 1)]


def plan_mismatches(grid=FABRIC_GRID) -> list[str]:
    found = []
    for dims in grid:
        for pivot in pivots(dims):
            got = _outcome(lambda: reconfig_plan(pivot, dims))
            want = plan_by_columns(pivot, dims)
            if got != want:
                found.append(f"plan at {tuple(pivot)} on {dims}: got {got}, expected {want}")
    return found


def _mapped(dims: FabricDims, dfgs) -> list[VirtualConfiguration]:
    vcs = []
    for d in dfgs:
        try:
            vcs.append(map_dfg(d, dims))
        except DoesNotFitError:
            continue
    return vcs


def _outcome(call):
    """call()'s result, or the exception it raises."""
    try:
        return call()
    except Exception as e:  # a wrong exception is a mismatch too
        return e


def allocation_mismatches(grid=FABRIC_GRID) -> list[str]:
    found = []
    dfgs = generate_random_workload(DFG_PARAMS, 8).dfgs
    for dims in grid:
        vcs = _mapped(dims, dfgs)
        vcs.append(configuration(*off_fabric_placements(dims)))
        bad = [configuration(p) for p in bad_placements(dims)]
        for pivot in pivots(dims):
            for vc in vcs:
                got = _outcome(lambda: allocate(vc, pivot, dims))
                want = (vc, pivot, cells_by_definition(vc, pivot, dims))
                if got != want:
                    found.append(f"allocate at {tuple(pivot)} on {dims}: got {got!r}, "
                                 f"expected cell map {want[2]}")
            for vc in bad:
                got = _outcome(lambda: allocate(vc, pivot, dims))
                if not isinstance(got, ValueError):
                    found.append(f"allocate at {tuple(pivot)} on {dims}: {vc.placements[0]} "
                                 f"gave {got!r}, expected ValueError")
    return found


def failures() -> list[str]:
    return plan_mismatches() + allocation_mismatches()


if __name__ == "__main__":
    lines = failures()
    print("\n".join(lines) or f"plans and allocations match their definitions on "
                               f"{len(FABRIC_GRID)} fabrics")
    sys.exit(1 if lines else 0)
