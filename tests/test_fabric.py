import random
import tracemalloc

import pytest

from cgralloc.allocation import Pivot, allocate
from cgralloc.fabric import (
    MemoryModel,
    check_physical_legality,
    execute,
    plan_table,
    reconfig_plan,
)
from cgralloc.mapper import DoesNotFitError, FabricDims, map_dfg
from cgralloc.workload import (
    Dfg,
    GeneratorParams,
    Operation,
    generate_random_workload,
)

from execute_oracle import execute_by_columns
from fabric_oracle import SIZES, plan_mismatches, size_grid

DIMS_16x2 = FabricDims(num_cols=16, num_rows=2)
DIMS_8x2 = FabricDims(num_cols=8, num_rows=2)


def run_single_op(opcode, a, b, dims=DIMS_16x2):
    d = Dfg(name="one", num_inputs=2,
            ops=(Operation(opcode, (~0, ~1)),),
            outputs=(0,))
    vc = map_dfg(d, dims)
    return execute(vc, Pivot(0, 0), [a, b], MemoryModel(), dims).outputs[0]


# ---------------------------------------------------------------------------
# reconfiguration plans
# ---------------------------------------------------------------------------

def test_plan_at_origin_is_baseline_wiring():
    plan = reconfig_plan(Pivot(0, 0), DIMS_16x2)
    assert plan.line_select == tuple(i % 4 for i in range(16))
    assert plan.line_select[:8] == (0, 1, 2, 3, 0, 1, 2, 3)
    assert plan.barrel_shift_rows == (0,) * 16
    assert not any(plan.wrap_feedback_enabled)
    assert plan.reconfig_cycles == 4


def test_plan_horizontal_shift_rotates_line_selects():
    plan = reconfig_plan(Pivot(0, 1), FabricDims(num_cols=4, num_rows=2))
    assert plan.line_select == (3, 0, 1, 2)
    assert plan.wrap_feedback_enabled == (False, True, False, False)


def test_plan_vertical_shift_sets_every_barrel_shifter():
    plan = reconfig_plan(Pivot(1, 0), DIMS_16x2)
    assert plan.barrel_shift_rows == (1,) * 16
    assert not any(plan.wrap_feedback_enabled)


def test_reconfig_cycles_ceil_division():
    assert reconfig_plan(Pivot(0, 0), FabricDims(num_cols=10, num_rows=2)).reconfig_cycles == 3
    assert reconfig_plan(Pivot(0, 0), FabricDims(num_cols=8, num_rows=2)).reconfig_cycles == 2
    assert reconfig_plan(
        Pivot(0, 0), FabricDims(num_cols=5, num_rows=2, num_config_lines=5)
    ).reconfig_cycles == 1


def test_plan_memory_does_not_grow_with_config_lines():
    # one line per column is all a plan reads: 10**6 lines on 16 columns must not
    # build a 10**6-entry list (about 47 MB at its peak)
    dims = FabricDims(num_cols=16, num_rows=2, num_config_lines=10**6)
    tracemalloc.start()
    try:
        plan = reconfig_plan(Pivot(1, 3), dims)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert plan.line_select == tuple((pc - 3) % 16 for pc in range(16))
    assert plan.reconfig_cycles == 1


def test_plan_table_rows():
    text = plan_table(reconfig_plan(Pivot(1, 1), FabricDims(num_cols=4, num_rows=2)))
    lines = text.strip().splitlines()
    assert lines[0] == "reconfig_cycles=1"
    assert lines[1].split() == ["column", "line_select", "shift", "wrap"]
    assert len(lines) == 2 + 4
    assert lines[3].split() == ["1", "0", "1", "yes"]  # seam column hosts logical 0


@pytest.mark.parametrize("size", SIZES, ids=lambda size: "{}x{}".format(*size))
def test_plan_matches_per_column_definition_at_every_pivot(size):
    # physical column pc hosts logical column (pc - col) mod L and listens to
    # that column's line; every column shifts by row; the mux is on only where
    # logical column 0 landed, and only if it moved.  The size's num_config_lines
    # (1, 3, cols + 1 and 4) follow each other, and the sizes follow each other in
    # one process, so a line table keyed on too few fields is read for another fabric.
    assert plan_mismatches(size_grid(*size)) == []


def test_reconfig_cycles_pivot_independent():
    for dims in (DIMS_8x2, DIMS_16x2, FabricDims(num_cols=32, num_rows=4)):
        base = reconfig_plan(Pivot(0, 0), dims).reconfig_cycles
        for r in range(dims.num_rows):
            for c in range(dims.num_cols):
                assert reconfig_plan(Pivot(r, c), dims).reconfig_cycles == base


# ---------------------------------------------------------------------------
# datapath semantics
# ---------------------------------------------------------------------------

def test_add_outputs_sum():
    assert run_single_op("add", 2, 3) == 5


def test_alu_semantics_32bit():
    assert run_single_op("add", 0xFFFFFFFF, 1) == 0
    assert run_single_op("sub", 0, 1) == 0xFFFFFFFF
    assert run_single_op("and", 0b1100, 0b1010) == 0b1000
    assert run_single_op("or", 0b1100, 0b1010) == 0b1110
    assert run_single_op("xor", 0b1100, 0b1010) == 0b0110
    assert run_single_op("shl", 1, 33) == 2       # shift uses low 5 bits
    assert run_single_op("shl", 1, 31) == 0x80000000
    assert run_single_op("shr", 0x80000000, 31) == 1  # logical shift
    assert run_single_op("cmplt", 0xFFFFFFFF, 0) == 1  # -1 < 0 signed
    assert run_single_op("cmplt", 0, 1) == 1
    assert run_single_op("cmplt", 1, 0) == 0


def test_load_of_unwritten_address_is_zero():
    d = Dfg(name="l", num_inputs=1,
            ops=(Operation("load", (~0,)),), outputs=(0,))
    vc = map_dfg(d, DIMS_16x2)
    assert execute(vc, Pivot(0, 0), [1234], MemoryModel(), DIMS_16x2).outputs == (0,)


def test_load_reads_preexisting_memory():
    d = Dfg(name="l", num_inputs=1,
            ops=(Operation("load", (~0,)),), outputs=(0,))
    vc = map_dfg(d, DIMS_16x2)
    mem = MemoryModel({16: 99})
    assert execute(vc, Pivot(0, 0), [16], mem, DIMS_16x2).outputs == (99,)


def store_then_load_dfg() -> Dfg:
    # the load's address comes through a 4-deep ALU chain, forcing its
    # starting column to the store's completion boundary
    ops = [Operation("store", (~0, ~1))]
    prev = ~0
    for i in range(1, 5):
        ops.append(Operation("add", (prev, ~2)))
        prev = i
    ops.append(Operation("load", (prev,)))
    return Dfg(name="sl", num_inputs=3, ops=tuple(ops), outputs=(5,))


def test_store_visible_to_strictly_later_load():
    vc = map_dfg(store_then_load_dfg(), DIMS_16x2)
    store, load = vc.placements[0], vc.placements[5]
    assert load.col_start >= store.col_start + store.width
    # in0=16 address, in1=7 stored word, in2=0 keeps the chain at 16
    result = execute(vc, Pivot(0, 0), [16, 7, 0], MemoryModel(), DIMS_16x2)
    assert result.outputs == (7,)
    assert result.memory.read(16) == 7


def test_store_invisible_to_overlapping_load():
    # load and store both begin at column 0: the store completes after the
    # load reads, so the load sees the old contents
    d = Dfg(name="overlap", num_inputs=2, ops=(
        Operation("store", (~0, ~1)),
        Operation("load", (~0,)),
    ), outputs=(1,))
    vc = map_dfg(d, DIMS_16x2)
    assert vc.placements[0].col_start == vc.placements[1].col_start
    result = execute(vc, Pivot(0, 0), [16, 7], MemoryModel(), DIMS_16x2)
    assert result.outputs == (0,)
    assert result.memory.read(16) == 7  # the store still lands afterwards


def test_later_store_wins_final_memory():
    d = Dfg(name="ww", num_inputs=3, ops=(
        Operation("store", (~0, ~1)),
        Operation("store", (~0, ~2)),
    ), outputs=())
    vc = map_dfg(d, DIMS_16x2)
    first, second = vc.placements[0], vc.placements[1]
    assert first.col_start < second.col_start  # port rule staggers them
    result = execute(vc, Pivot(0, 0), [8, 11, 22], MemoryModel(), DIMS_16x2)
    assert result.memory.read(8) == 22


def test_empty_dfg_executes_to_nothing():
    d = Dfg(name="empty", num_inputs=0, ops=(), outputs=())
    vc = map_dfg(d, DIMS_16x2)
    result = execute(vc, Pivot(0, 0), [], MemoryModel(), DIMS_16x2)
    assert result.outputs == ()
    assert result.memory == MemoryModel()


def test_execute_rejects_wrong_input_count():
    vc = map_dfg(store_then_load_dfg(), DIMS_16x2)
    with pytest.raises(ValueError):
        execute(vc, Pivot(0, 0), [1, 2], MemoryModel(), DIMS_16x2)


PIVOT_TAKERS = {
    "allocate": lambda vc, pivot: allocate(vc, pivot, DIMS_8x2),
    "reconfig_plan": lambda vc, pivot: reconfig_plan(pivot, DIMS_8x2),
    "execute": lambda vc, pivot: execute(vc, pivot, [16, 7, 0], MemoryModel(), DIMS_8x2),
}


@pytest.mark.parametrize("row, col", [(-1, 0), (2, 0), (0, -1), (0, 8)])
@pytest.mark.parametrize("taker", PIVOT_TAKERS)
def test_pivot_outside_fabric_is_rejected(taker, row, col):
    vc = map_dfg(store_then_load_dfg(), DIMS_8x2)
    with pytest.raises(ValueError) as info:
        PIVOT_TAKERS[taker](vc, Pivot(row, col))
    assert str(info.value) == f"pivot Pivot(row={row}, col={col}) outside 8x2 fabric"


@pytest.mark.parametrize("row, col", [(0.5, 0), (0, 0.5), (True, 0), (0, False), (1.0, 1)])
@pytest.mark.parametrize("taker", PIVOT_TAKERS)
def test_pivot_of_non_ints_is_rejected(taker, row, col):
    """A float or a bool is no cell, even where it compares equal to one in range."""
    vc = map_dfg(store_then_load_dfg(), DIMS_8x2)
    with pytest.raises(ValueError) as info:
        PIVOT_TAKERS[taker](vc, Pivot(row, col))
    assert str(info.value) == f"pivot Pivot(row={row!r}, col={col!r}) must hold ints"


def fitted_random_vcs(dims, count, seed, params=None):
    params = params or GeneratorParams(
        num_dfgs=4 * count, ops_per_dfg=(2, 6), memory_op_fraction=0.3, num_inputs=3
    )
    w = generate_random_workload(params, seed)
    vcs = []
    for d in w.dfgs:
        try:
            vcs.append(map_dfg(d, dims))
        except DoesNotFitError:
            continue
        if len(vcs) == count:
            break
    assert len(vcs) == count
    return vcs


def test_pivot_invariance_against_origin_oracle():
    # oracle run at pivot (0,0); every other pivot must match outputs and
    # final memory exactly
    rng = random.Random(99)
    for vc in fitted_random_vcs(DIMS_8x2, 40, seed=17):
        inputs = [rng.getrandbits(32) for _ in range(vc.dfg.num_inputs)]
        seed_mem = {rng.getrandbits(6): rng.getrandbits(32) for _ in range(4)}
        oracle = execute(vc, Pivot(0, 0), inputs, MemoryModel(seed_mem), DIMS_8x2)
        for r in range(2):
            for c in range(8):
                got = execute(vc, Pivot(r, c), inputs, MemoryModel(seed_mem), DIMS_8x2)
                assert got.outputs == oracle.outputs
                assert got.memory == oracle.memory


@pytest.mark.parametrize("dims", [DIMS_8x2, DIMS_16x2, FabricDims(num_cols=32, num_rows=4)],
                         ids=lambda d: f"{d.num_cols}x{d.num_rows}")
def test_execute_matches_column_stepping_oracle(dims):
    # two inputs, mostly small, so load and store addresses alias often; an
    # occasional full word and the preset memory words reach the sign bit
    params = GeneratorParams(num_dfgs=300, ops_per_dfg=(4, 12), memory_op_fraction=0.5,
                             num_inputs=2)
    vcs = fitted_random_vcs(dims, 60, seed=31, params=params)
    rng = random.Random(dims.num_cols)
    for vc in vcs:
        inputs = [rng.getrandbits(32) if rng.random() < 0.25 else rng.randrange(4)
                  for _ in range(vc.dfg.num_inputs)]
        seed_mem = {addr: rng.getrandbits(32) for addr in range(4)}
        expected = execute_by_columns(vc, inputs, seed_mem, dims.num_cols)
        moved = Pivot(rng.randrange(dims.num_rows), rng.randrange(dims.num_cols))
        for pivot in (Pivot(0, 0), moved):
            got = execute(vc, pivot, inputs, MemoryModel(seed_mem), dims)
            assert (got.outputs, got.memory.as_dict()) == expected, (vc.dfg.name, pivot)


@pytest.mark.parametrize("dims", [DIMS_8x2, DIMS_16x2], ids=lambda d: f"{d.num_cols}x{d.num_rows}")
def test_schedule_is_the_column_stepping_order(dims):
    params = GeneratorParams(num_dfgs=300, ops_per_dfg=(4, 12), memory_op_fraction=0.5,
                             num_inputs=2)
    for vc in fitted_random_vcs(dims, 60, seed=37, params=params):
        order = []
        execute_by_columns(vc, [0] * vc.dfg.num_inputs, {}, dims.num_cols, order)
        assert vc.schedule == tuple(order), vc.dfg.name
        assert vc.schedule is vc.schedule


# ---------------------------------------------------------------------------
# physical legality
# ---------------------------------------------------------------------------

def test_origin_allocation_legal_under_baseline_plan():
    vc = map_dfg(store_then_load_dfg(), DIMS_16x2)
    alloc = allocate(vc, Pivot(0, 0), DIMS_16x2)
    plan = reconfig_plan(Pivot(0, 0), DIMS_16x2)
    assert check_physical_legality(alloc, plan, DIMS_16x2) == []


def test_mismatched_plan_reports_line_select_violations():
    vc = map_dfg(store_then_load_dfg(), DIMS_16x2)
    alloc = allocate(vc, Pivot(0, 2), DIMS_16x2)
    baseline_plan = reconfig_plan(Pivot(0, 0), DIMS_16x2)
    violations = check_physical_legality(alloc, baseline_plan, DIMS_16x2)
    assert violations
    assert any("line select" in v for v in violations)


def test_random_pairs_with_matching_plans_all_legal():
    rng = random.Random(5)
    vcs = fitted_random_vcs(DIMS_8x2, 50, seed=23)
    checked = 0
    while checked < 1000:
        vc = rng.choice(vcs)
        pivot = Pivot(rng.randrange(2), rng.randrange(8))
        alloc = allocate(vc, pivot, DIMS_8x2)
        plan = reconfig_plan(pivot, DIMS_8x2)
        assert check_physical_legality(alloc, plan, DIMS_8x2) == []
        checked += 1


def test_misplaced_wrap_feedback_is_flagged_at_every_moved_pivot():
    # any pivot that moves the start column needs the feedback mux there and
    # nowhere else: off, or engaged one column over, must be reported
    cols = DIMS_8x2.num_cols
    for vc in fitted_random_vcs(DIMS_8x2, 20, seed=29):
        for r in range(DIMS_8x2.num_rows):
            for c in range(1, cols):
                pivot = Pivot(r, c)
                alloc = allocate(vc, pivot, DIMS_8x2)
                plan = reconfig_plan(pivot, DIMS_8x2)
                moved = tuple(pc == (c + 1) % cols for pc in range(cols))
                for wrap, on in (((False,) * cols, []), (moved, [(c + 1) % cols])):
                    bad = plan._replace(wrap_feedback_enabled=wrap)
                    assert check_physical_legality(alloc, bad, DIMS_8x2) == [
                        f"wrap feedback at columns {on}, expected [{c}]"], (pivot, wrap)


def _corruptible_allocation():
    # rows (0, 1, 0) differ from op ids (0, 1, 2), so a mix-up of the two shows in the text;
    # at pivot (1, 2) op 0 sits on (1, 2), op 1 on (0, 2) and op 2 on (1, 3)..(1, 6)
    d = Dfg(name="three", num_inputs=2, ops=(
        Operation("add", (~0, ~1)),
        Operation("add", (~0, ~1)),
        Operation("load", (0,)),
    ), outputs=(1, 2))
    pivot = Pivot(1, 2)
    return allocate(map_dfg(d, DIMS_8x2), pivot, DIMS_8x2), reconfig_plan(pivot, DIMS_8x2)


def test_legality_reports_exact_messages_for_corrupted_allocations():
    alloc, plan = _corruptible_allocation()
    assert check_physical_legality(alloc, plan, DIMS_8x2) == []
    cells = alloc.cell_map

    missing = alloc._replace(cell_map=cells[:2])
    assert check_physical_legality(missing, plan, DIMS_8x2) == [
        "cell map lists 2 ops, 3 placed",
    ]

    narrow = alloc._replace(cell_map=(cells[0], cells[1], cells[2][:3]))
    assert check_physical_legality(narrow, plan, DIMS_8x2) == [
        "op 2: cell map does not cover its 4 column(s)",
    ]

    out_of_bounds = alloc._replace(cell_map=(cells[0], ((2, 2),), cells[2]))
    assert check_physical_legality(out_of_bounds, plan, DIMS_8x2) == [
        "op 1: physical cell (2, 2) out of bounds",
    ]

    shifts = list(plan.barrel_shift_rows)
    shifts[4] = 0
    wrong_shift = plan._replace(barrel_shift_rows=tuple(shifts))
    assert check_physical_legality(alloc, wrong_shift, DIMS_8x2) == [
        "column 4: barrel shift 0, op 2 needs 1",
    ]

    overlapping = alloc._replace(cell_map=(cells[0], cells[0], cells[2]))
    assert check_physical_legality(overlapping, plan, DIMS_8x2) == [
        "column 2: barrel shift 1, op 1 needs 0",
        "physical cells overlap (cell map not injective)",
    ]


def test_cell_map_key_no_op_owns_is_a_violation():
    d = Dfg(name="one", num_inputs=2, ops=(Operation("add", (~0, ~1)),),
            outputs=(0,))
    pivot = Pivot(0, 1)
    alloc = allocate(map_dfg(d, DIMS_8x2), pivot, DIMS_8x2)
    plan = reconfig_plan(pivot, DIMS_8x2)
    assert alloc.cell_map == (((0, 1),),)  # cell_map[k] is op k's cells
    assert check_physical_legality(alloc, plan, DIMS_8x2) == []
    extra = alloc._replace(cell_map=alloc.cell_map + (((0, 1),),))
    assert check_physical_legality(extra, plan, DIMS_8x2) == [
        "cell map lists 2 ops, 1 placed",
    ]
    empty = alloc._replace(cell_map=())  # the op's own entry is gone
    assert check_physical_legality(empty, plan, DIMS_8x2) == [
        "cell map lists 0 ops, 1 placed",
    ]


def test_wrap_feedback_messages_are_exact():
    alloc, plan = _corruptible_allocation()  # pivot (1, 2): the mux belongs on column 2
    origin = allocate(alloc.vc, Pivot(0, 0), DIMS_8x2)
    origin_plan = reconfig_plan(Pivot(0, 0), DIMS_8x2)

    def wired(plan, on, flag=True):  # the mux engaged at the columns in `on`
        return plan._replace(wrap_feedback_enabled=tuple(
            flag if pc in on else False for pc in range(DIMS_8x2.num_cols)))

    for flag in (True, 2):  # any truthy flag engages the mux
        assert check_physical_legality(origin, wired(origin_plan, {0}, flag), DIMS_8x2) == [
            "wrap feedback at columns [0], expected []",
        ]
        assert check_physical_legality(alloc, wired(plan, {3}, flag), DIMS_8x2) == [
            "wrap feedback at columns [3], expected [2]",
        ]
        assert check_physical_legality(alloc, wired(plan, {2}, flag), DIMS_8x2) == []
    assert check_physical_legality(alloc, wired(plan, set()), DIMS_8x2) == [
        "wrap feedback at columns [], expected [2]",
    ]


def test_plan_for_another_fabric_width_is_one_violation():
    dfg = store_then_load_dfg()
    wide = allocate(map_dfg(dfg, DIMS_16x2), Pivot(0, 12), DIMS_16x2)
    narrow = allocate(map_dfg(dfg, DIMS_8x2), Pivot(0, 4), DIMS_8x2)
    assert check_physical_legality(wide, reconfig_plan(Pivot(0, 4), DIMS_8x2), DIMS_16x2) == [
        "plan covers 8 columns, fabric has 16",
    ]
    assert check_physical_legality(narrow, reconfig_plan(Pivot(0, 4), DIMS_16x2), DIMS_8x2) == [
        "plan covers 16 columns, fabric has 8",
    ]
    plan = reconfig_plan(Pivot(0, 4), DIMS_8x2)
    for field in ("line_select", "barrel_shift_rows", "wrap_feedback_enabled"):
        short = plan._replace(**{field: getattr(plan, field)[:-1]})
        assert check_physical_legality(narrow, short, DIMS_8x2) == [
            "plan covers 7 columns, fabric has 8",
        ], field


def test_memory_model_equality_ignores_zero_writes():
    a = MemoryModel()
    a.write(4, 0)
    assert a == MemoryModel()
    b = MemoryModel({4: 9})
    b.write(4, 0)
    assert b == MemoryModel()
    assert MemoryModel({1: 2}) != MemoryModel()


def test_memory_model_copy_is_independent():
    a = MemoryModel({1: 2})
    b = a.copy()
    b.write(1, 3)
    assert a.read(1) == 2 and b.read(1) == 3
