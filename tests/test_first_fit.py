"""Column-bitmask placement against its per-cell reference.

The reference places ops in the order of its own heap-based topological
sort; `map_dfg` walks them in list order.  On the DFGs a workload may hold,
where every op reads only ops listed before it, the two orders agree.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from cgralloc.mapper import DoesNotFitError, FabricDims, map_dfg
from cgralloc.workload import (
    ALU_OPCODES,
    Dfg,
    Operation,
    arity,
    input_ref,
    op_ref,
)

from mapper_oracle import map_dfg_per_cell


@st.composite
def dfgs(draw):
    """A valid DFG: every op reads inputs or earlier non-store ops."""
    num_inputs = draw(st.integers(1, 3))
    n = draw(st.integers(0, 24))
    opcodes = st.sampled_from(ALU_OPCODES + ("load", "store"))
    available = [input_ref(i) for i in range(num_inputs)]
    ops = []
    for i in range(n):
        opcode = draw(opcodes)
        srcs = tuple(draw(st.sampled_from(available)) for _ in range(arity(opcode)))
        ops.append(Operation(i, opcode, srcs))
        if opcode != "store":
            available.append(op_ref(i))
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

