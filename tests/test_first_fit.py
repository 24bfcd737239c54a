"""Column-bitmask placement against its per-cell reference.

Both place ops in list order, which is a dependency order on the DFGs a
workload may hold: every op reads only inputs and ops listed before it.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from cgralloc.mapper import DoesNotFitError, FabricDims, map_dfg
from cgralloc.workload import (
    ALU_OPCODES,
    Dfg,
    Operation,
    arity,
)

from mapper_oracle import map_dfg_per_cell


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
        ops.append(Operation(i, opcode, srcs))
        if opcode != "store":
            available.append(i)
    return Dfg(name="g", num_inputs=num_inputs, ops=tuple(ops), outputs=())


@settings(deadline=None, max_examples=300)
@given(d=dfgs(), cols=st.integers(1, 40), rows=st.integers(1, 8))
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
    assert got == want

