"""Column-bitmask placement and topological order against their per-cell references."""

from hypothesis import given, settings
from hypothesis import strategies as st

from cgralloc.mapper import DoesNotFitError, FabricDims, map_dfg
from cgralloc.workload import (
    ALU_OPCODES,
    Dfg,
    Opcode,
    Operation,
    RefKind,
    input_ref,
    op_ref,
    topological_order,
)

from mapper_oracle import map_dfg_per_cell, smallest_ready_order


@st.composite
def dfgs(draw, shuffle_ids=True):
    """A valid DFG; with shuffle_ids, op ids are permuted so sources may refer forward.

    Every op reads inputs or earlier non-store ops, so the graph is acyclic
    before the permutation and stays so after it.
    """
    num_inputs = draw(st.integers(1, 3))
    n = draw(st.integers(0, 24))
    opcodes = st.sampled_from(ALU_OPCODES + (Opcode.LOAD, Opcode.STORE))
    available = [input_ref(i) for i in range(num_inputs)]
    ops = []
    for i in range(n):
        opcode = draw(opcodes)
        srcs = tuple(draw(st.sampled_from(available)) for _ in range(opcode.arity))
        ops.append(Operation(i, opcode, srcs))
        if opcode is not Opcode.STORE:
            available.append(op_ref(i))
    perm = draw(st.permutations(range(n))) if shuffle_ids else list(range(n))
    renamed = [None] * n
    for op in ops:
        srcs = tuple(op_ref(perm[r.index]) if r.kind is RefKind.OP else r for r in op.sources)
        renamed[perm[op.id]] = Operation(perm[op.id], op.opcode, srcs)
    return Dfg(name="g", num_inputs=num_inputs, ops=tuple(renamed), outputs=())


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


@settings(deadline=None)
@given(d=st.one_of(dfgs(shuffle_ids=False), dfgs()))
def test_topological_order_takes_smallest_ready_id(d):
    assert topological_order(d) == smallest_ready_order(d)
