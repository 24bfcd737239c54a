from collections import Counter

import pytest

from cgralloc.allocation import (
    ORIGIN,
    AllocationPolicy,
    PivotScheduler,
    Pivot,
    allocate,
    pivot_for_execution,
)
from cgralloc.mapper import FabricDims, Placement, VirtualConfiguration, map_dfg
from cgralloc.workload import (
    Dfg,
    GeneratorParams,
    Opcode,
    Operation,
    generate_random_workload,
    input_ref,
    op_ref,
)

DIMS_16x2 = FabricDims(num_cols=16, num_rows=2)


def vc_single_cell_at(row: int, col: int) -> VirtualConfiguration:
    d = Dfg(name="cell", num_inputs=2,
            ops=(Operation(0, Opcode.ADD, (input_ref(0), input_ref(1))),),
            outputs=(op_ref(0),))
    p = Placement(op_id=0, row=row, col_start=col, width=1)
    return VirtualConfiguration(dfg=d, placements=(p,),
                                num_cols_used=col + 1, num_rows_used=row + 1)


def test_scheduler_starts_at_origin():
    s = PivotScheduler(DIMS_16x2)
    assert s.next_pivot() == Pivot(0, 0)
    assert s.count == 1


def test_scheduler_wraps_to_next_row_after_full_sweep():
    s = PivotScheduler(DIMS_16x2)
    pivots = [s.next_pivot() for _ in range(17)]
    assert pivots[15] == Pivot(0, 15)
    assert pivots[16] == Pivot(1, 0)


def test_scheduler_period_covers_grid_exactly_once():
    # brute-force enumeration: one period is a permutation of the grid
    s = PivotScheduler(DIMS_16x2)
    period = [s.next_pivot() for _ in range(32)]
    assert len(set(period)) == 32
    assert {(p.row, p.col) for p in period} == {
        (r, c) for r in range(2) for c in range(16)
    }
    # and the next period repeats the same sequence
    assert [s.next_pivot() for _ in range(32)] == period


def test_scheduler_rejects_negative_start():
    with pytest.raises(ValueError):
        PivotScheduler(DIMS_16x2, start=-1)


def test_allocate_at_origin_is_identity():
    w = generate_random_workload(GeneratorParams(num_dfgs=5), 2)
    for d in w.dfgs:
        vc = map_dfg(d, DIMS_16x2)
        alloc = allocate(vc, ORIGIN, DIMS_16x2)
        for p in vc.placements:
            assert alloc.cell_map[p.op_id] == tuple(
                (p.row, c) for c in range(p.col_start, p.col_start + p.width)
            )


def test_allocate_modular_translation():
    dims = FabricDims(num_cols=4, num_rows=2)
    vc = vc_single_cell_at(1, 3)
    alloc = allocate(vc, Pivot(row=1, col=2), dims)
    assert alloc.cell_map[0] == ((0, 1),)


def test_allocate_wraps_memory_op_past_right_edge():
    d = Dfg(name="m", num_inputs=1,
            ops=(Operation(0, Opcode.LOAD, (input_ref(0),)),), outputs=(op_ref(0),))
    p = Placement(op_id=0, row=0, col_start=12, width=4)
    vc = VirtualConfiguration(dfg=d, placements=(p,), num_cols_used=16, num_rows_used=1)
    alloc = allocate(vc, Pivot(row=0, col=2), DIMS_16x2)
    assert [c for _, c in alloc.cell_map[0]] == [14, 15, 0, 1]


def test_allocate_rejects_out_of_bounds_pivot():
    vc = vc_single_cell_at(0, 0)
    with pytest.raises(ValueError):
        allocate(vc, Pivot(row=2, col=0), DIMS_16x2)


def test_fixed_policy_pins_origin_and_keeps_scheduler():
    s = PivotScheduler(DIMS_16x2)
    for _ in range(5):
        assert pivot_for_execution(AllocationPolicy.FIXED_ORIGIN, s) == ORIGIN
    assert s.count == 0


def test_rotating_policy_advances():
    dims = FabricDims(num_cols=4, num_rows=2)
    s = PivotScheduler(dims)
    pivots = [pivot_for_execution(AllocationPolicy.ROTATING, s) for _ in range(3)]
    assert pivots == [Pivot(0, 0), Pivot(0, 1), Pivot(0, 2)]


def test_rotating_origin_matches_fixed_at_start():
    s = PivotScheduler(DIMS_16x2)
    assert pivot_for_execution(AllocationPolicy.ROTATING, s) == ORIGIN


def test_allocation_is_bijective_for_every_pivot():
    dims = FabricDims(num_cols=4, num_rows=3)
    w = generate_random_workload(
        GeneratorParams(num_dfgs=30, ops_per_dfg=(1, 6), memory_op_fraction=0.2), 4
    )
    checked = 0
    for d in w.dfgs:
        try:
            vc = map_dfg(d, dims)
        except Exception:
            continue
        logical = vc.occupied_cells
        for r in range(dims.num_rows):
            for c in range(dims.num_cols):
                alloc = allocate(vc, Pivot(r, c), dims)
                physical = [cell for cells in alloc.cell_map.values() for cell in cells]
                assert len(physical) == len(set(physical)) == len(logical)
                checked += 1
    assert checked > 0


def test_full_rotation_occupies_every_cell_equally():
    # closed form: over exactly rows*cols consecutive rotating executions,
    # each physical cell is occupied in exactly |occupied(vc)| of them
    dims = FabricDims(num_cols=8, num_rows=2)
    w = generate_random_workload(GeneratorParams(num_dfgs=8, ops_per_dfg=(2, 5),
                                                 memory_op_fraction=0.2), 6)
    for d in w.dfgs:
        try:
            vc = map_dfg(d, dims)
        except Exception:
            continue
        scheduler = PivotScheduler(dims)
        tally: Counter = Counter()
        for _ in range(dims.num_cells):
            pivot = pivot_for_execution(AllocationPolicy.ROTATING, scheduler)
            for cells in allocate(vc, pivot, dims).cell_map.values():
                tally.update(cells)
        expected = len(vc.occupied_cells)
        assert all(tally[(r, c)] == expected
                   for r in range(dims.num_rows) for c in range(dims.num_cols))
