"""Column-bitmask placement against its per-cell reference.

Both place ops in list order, which is a dependency order on the DFGs a
workload may hold: every op reads only inputs and ops listed before it.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from cgralloc.dse import map_workload
from cgralloc.mapper import DoesNotFitError, FabricDims, map_dfg
from cgralloc.workload import (
    ALU_OPCODES,
    Dfg,
    Operation,
    Workload,
    arity,
)

from mapper_oracle import map_dfg_per_cell, mismatches


@st.composite
def dfgs(draw):
    """A valid DFG: every op reads inputs or earlier non-store ops."""
    num_inputs = draw(st.integers(1, 3))
    n = draw(st.integers(0, 24))
    opcodes = st.sampled_from(ALU_OPCODES + ("load", "store"))
    available = [~i for i in range(num_inputs)]
    ops = []
    for i in range(n):
        opcode = draw(opcodes)
        srcs = tuple(draw(st.sampled_from(available)) for _ in range(arity(opcode)))
        ops.append(Operation(opcode, srcs))
        if opcode != "store":
            available.append(i)
    return Dfg(name="g", num_inputs=num_inputs, ops=tuple(ops), outputs=())


def dfg(*ops: tuple[str, tuple[int, ...]]) -> Dfg:
    """A DFG of (opcode, sources) ops, one input."""
    return Dfg(name="g", num_inputs=1, outputs=(), ops=tuple(Operation(*op) for op in ops))


# a load after an ALU op, on fabrics too narrow for it: op 1 misfits from column 1
LOAD_AFTER_ADD = dfg(("add", (~0, ~0)), ("load", (0,)))
# three ALU ops fill columns 0-2 of one row: on 7 columns the load's only start is
# num_cols - 4 = 3, and on 6 it has none
LAST_MEMORY_START = dfg(("add", (~0, ~0)), ("add", (~0, ~0)), ("add", (~0, ~0)),
                        ("load", (~0,)))
# the second load finds column 0's load port taken and begins at column 1
PORT_CONFLICT = dfg(("load", (~0,)), ("load", (~0,)), ("store", (~0, ~0)))
# one row: columns 0-1 are full before op 2's earliest column 2, and op 3 scans past
# columns 0-2 to column 3, the last of 4 (on 3 columns it misfits)
FULL_BEFORE_EARLIEST = dfg(("add", (~0, ~0)), ("add", (~0, ~0)), ("add", (1, ~0)),
                           ("add", (~0, ~0)))
# on 5x2, the second load's only start, column 1, is free on row 0 except in its last
# column, where op 2 sits: it misfits
WINDOW_END_TAKEN = dfg(("add", (~0, ~0)), ("load", (~0,)), ("add", (1, 0)), ("load", (~0,)))


# narrow fabrics get a branch of their own: misfits and port conflicts happen there
@settings(deadline=None, max_examples=300)
@given(d=dfgs(), cols=st.integers(1, 10) | st.integers(1, 40), rows=st.integers(1, 8))
@example(d=LOAD_AFTER_ADD, cols=1, rows=2)
@example(d=LOAD_AFTER_ADD, cols=2, rows=2)
@example(d=LOAD_AFTER_ADD, cols=3, rows=2)
@example(d=LAST_MEMORY_START, cols=7, rows=1)
@example(d=LAST_MEMORY_START, cols=6, rows=1)
@example(d=PORT_CONFLICT, cols=8, rows=2)
@example(d=FULL_BEFORE_EARLIEST, cols=4, rows=1)
@example(d=FULL_BEFORE_EARLIEST, cols=3, rows=1)
@example(d=WINDOW_END_TAKEN, cols=5, rows=2)
def test_map_dfg_matches_per_cell_first_fit(d, cols, rows):
    dims = FabricDims(num_cols=cols, num_rows=rows)
    try:
        want = map_dfg_per_cell(d, dims)
    except DoesNotFitError as e:
        want = (e.op_id, e.frontier_col)
    try:
        got = map_dfg(d, dims).placements
    except DoesNotFitError as e:
        got = (e.op_id, e.frontier_col)
    else:  # no two placements share a cell: replay counts each placement's width whole
        cells = {(p.row, c) for p in got for c in range(p.col_start, p.col_start + p.width)}
        assert len(cells) == sum(p.width for p in got)
    assert got == want



@settings(deadline=None, max_examples=300)
@given(d=dfgs(), cols=st.integers(1, 6), rows=st.integers(1, 4))
# four ALU ops on 2x2 take a cell each and fit, so the bound must not skip them; five cannot
@example(d=dfg(*[("add", (~0, ~0))] * 4), cols=2, rows=2)
@example(d=dfg(*[("add", (~0, ~0))] * 5), cols=2, rows=2)
def test_map_workload_skips_exactly_what_first_fit_rejects(d, cols, rows):
    dims = FabricDims(num_cols=cols, num_rows=rows)
    try:
        want = map_dfg(d, dims).placements
    except DoesNotFitError:
        want = None
    if len(d.ops) > dims.num_cells:  # the bound map_workload checks before first fit
        assert want is None, "a DFG with more ops than cells fit"
    mapped, skipped = map_workload(Workload(dfgs=(d,), trace=((0, 1),)), dims)
    assert (mapped[0].placements if mapped else None) == want
    assert skipped == ([] if mapped else [(0, "g")])


def test_seeded_dfgs_on_every_small_fabric_match_per_cell_first_fit():
    assert mismatches() == []
