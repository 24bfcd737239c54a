import pytest

from cgralloc.mapper import DoesNotFitError, FabricDims, map_dfg
from cgralloc.workload import (
    OPCODES,
    Dfg,
    GeneratorParams,
    Operation,
    WorkloadSemanticError,
    generate_random_workload,
    arity,
)

DIMS_16x2 = FabricDims(num_cols=16, num_rows=2)


def single_add() -> Dfg:
    return Dfg(name="a", num_inputs=2,
               ops=(Operation("add", (~0, ~1)),),
               outputs=(0,))


def occupied(vc) -> set[tuple[int, int]]:
    """Every (row, col) some placement covers."""
    return {(p.row, c) for p in vc.placements for c in range(p.col_start, p.col_start + p.width)}


def assert_well_formed(vc, dims):
    # brute-force re-check of the placement invariants, independent of the
    # mapper's own bookkeeping
    seen = set()
    loads, stores = {}, {}
    for op_id, p in enumerate(vc.placements):
        assert p.col_start >= 0 and p.row >= 0
        assert p.col_start + p.width <= dims.num_cols
        assert p.row < dims.num_rows
        for c in range(p.col_start, p.col_start + p.width):
            assert (p.row, c) not in seen
            seen.add((p.row, c))
        op = vc.dfg.ops[op_id]
        if op.opcode == "load":
            loads[p.col_start] = loads.get(p.col_start, 0) + 1
        elif op.opcode == "store":
            stores[p.col_start] = stores.get(p.col_start, 0) + 1
    assert all(n <= 1 for n in loads.values())
    assert all(n <= 1 for n in stores.values())
    assert len(vc.placements) == len(vc.dfg.ops)
    for op, consumer in zip(vc.dfg.ops, vc.placements):
        for s in op.sources:
            if s >= 0:
                producer = vc.placements[s]
                assert producer.col_start + producer.width <= consumer.col_start


def test_op_width():
    # one op of every opcode, each reading only inputs
    ops = tuple(Operation(k, (~0, ~1)[:arity(k)]) for k in OPCODES)
    vc = map_dfg(Dfg(name="all", num_inputs=2, ops=ops, outputs=()),
                 FabricDims(num_cols=16, num_rows=len(ops)))
    widths = {op.opcode: p.width for op, p in zip(ops, vc.placements, strict=True)}
    assert widths == {k: 4 if k in ("load", "store") else 1 for k in OPCODES}


def test_dims_defaults_and_validation():
    dims = FabricDims(num_cols=16, num_rows=3)
    assert dims.num_config_lines == 4
    assert dims.num_cells == 48
    with pytest.raises(ValueError):
        FabricDims(num_cols=0, num_rows=2)
    with pytest.raises(ValueError):
        FabricDims(num_cols=2, num_rows=2, num_config_lines=0)


@pytest.mark.parametrize("build, message", [
    # unchecked, first fit failed with a bare TypeError on the float
    (lambda: FabricDims(8.5, 2), "num_cols must be an int, got 8.5"),
    # unchecked, True counted as 1: a 1x1 fabric
    (lambda: FabricDims(True, True), "num_cols must be an int, got True"),
    (lambda: FabricDims(8, 2, num_config_lines=4.0), "num_config_lines must be an int, got 4.0"),
    (lambda: FabricDims(8, 2)._replace(num_rows=2.0), "num_rows must be an int, got 2.0"),
], ids=["float cols", "bool dims", "float lines", "_replace"])
def test_dims_fields_must_be_ints(build, message):
    with pytest.raises(ValueError) as e:
        build()
    assert str(e.value) == message


def test_single_add_goes_to_origin():
    vc = map_dfg(single_add(), DIMS_16x2)
    p = vc.placements[0]
    assert (p.row, p.col_start, p.width) == (0, 0, 1)
    assert occupied(vc) == {(0, 0)}


def test_greedy_hand_trace():
    # a=ADD(in0,in1); b=ADD(a,in0); c=LOAD(addr=a): b takes the column right
    # of a, c cannot use row 0 there (b holds it) and drops to row 1
    d = Dfg(name="t", num_inputs=2, ops=(
        Operation("add", (~0, ~1)),
        Operation("add", (0, ~0)),
        Operation("load", (0,)),
    ), outputs=(1, 2))
    vc = map_dfg(d, DIMS_16x2)
    a, b, c = vc.placements
    assert (a.row, a.col_start, a.width) == (0, 0, 1)
    assert (b.row, b.col_start, b.width) == (0, 1, 1)
    assert (c.row, c.col_start, c.width) == (1, 1, 4)
    assert occupied(vc) == {(0, 0), (0, 1), (1, 1), (1, 2), (1, 3), (1, 4)}
    assert_well_formed(vc, DIMS_16x2)


def test_capacity_error_reports_op_and_frontier():
    ops = (Operation("add", (~0, ~1)),) * 5
    d = Dfg(name="wide", num_inputs=2, ops=ops, outputs=())
    with pytest.raises(DoesNotFitError) as exc:
        map_dfg(d, FabricDims(num_cols=1, num_rows=2))
    assert exc.value.op_id == 2
    assert exc.value.frontier_col == 0


@pytest.mark.parametrize("bad", [2, 1, 9])  # forward, self, out of range
def test_op_read_not_listed_before_its_reader_is_rejected_not_placed(bad):
    # no parse checks it: a library caller hands map_dfg the DFG directly
    d = Dfg(name="bad", num_inputs=2, ops=(
        Operation("add", (~0, ~1)),
        Operation("sub", (0, bad)),
        Operation("xor", (0, ~1)),
    ), outputs=())
    with pytest.raises(WorkloadSemanticError,
                       match=f"^op 1 references op {bad}, which is not listed before it$"):
        map_dfg(d, DIMS_16x2)


def test_memory_op_never_fits_narrow_fabric():
    d = Dfg(name="m", num_inputs=1,
            ops=(Operation("load", (~0,)),), outputs=(0,))
    with pytest.raises(DoesNotFitError):
        map_dfg(d, FabricDims(num_cols=3, num_rows=4))


def test_memory_port_rule_separates_load_col_starts():
    d = Dfg(name="2loads", num_inputs=1, ops=(
        Operation("load", (~0,)),
        Operation("load", (~0,)),
    ), outputs=(0, 1))
    vc = map_dfg(d, DIMS_16x2)
    assert vc.placements[0].col_start != vc.placements[1].col_start
    assert_well_formed(vc, DIMS_16x2)


def test_load_and_store_may_share_col_start():
    d = Dfg(name="ls", num_inputs=2, ops=(
        Operation("load", (~0,)),
        Operation("store", (~0, ~1)),
    ), outputs=(0,))
    vc = map_dfg(d, DIMS_16x2)
    assert vc.placements[0].col_start == vc.placements[1].col_start == 0
    assert vc.placements[0].row != vc.placements[1].row


def test_map_is_deterministic():
    w = generate_random_workload(GeneratorParams(num_dfgs=20), 5)
    for d in w.dfgs:
        assert map_dfg(d, DIMS_16x2) == map_dfg(d, DIMS_16x2)


def test_placement_invariants_over_many_random_dfgs():
    # >= 1000 generated DFGs across several shapes; every mapped result must
    # pass the independent invariant re-check and be translation-canonical
    total = 0
    cases = [
        (GeneratorParams(num_dfgs=400, ops_per_dfg=(1, 6), memory_op_fraction=0.2), 1),
        (GeneratorParams(num_dfgs=400, ops_per_dfg=(3, 10), memory_op_fraction=0.1), 2),
        (GeneratorParams(num_dfgs=300, ops_per_dfg=(2, 8), memory_op_fraction=0.4,
                         num_inputs=2), 3),
    ]
    for params, seed in cases:
        w = generate_random_workload(params, seed)
        for d in w.dfgs:
            try:
                vc = map_dfg(d, DIMS_16x2)
            except DoesNotFitError:
                continue
            total += 1
            assert_well_formed(vc, DIMS_16x2)
            assert min(p.col_start for p in vc.placements) == 0
            assert min(p.row for p in vc.placements) == 0
            assert (0, 0) in occupied(vc)
    assert total >= 1000



def test_empty_dfg_uses_no_cells():
    vc = map_dfg(Dfg(name="empty", num_inputs=0, ops=(), outputs=()), DIMS_16x2)
    assert vc.placements == ()
    assert occupied(vc) == set()
