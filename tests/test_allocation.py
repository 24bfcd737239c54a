from collections import Counter

import pytest

from cgralloc.allocation import AllocationPolicy, Pivot, allocate, pivot_at
from cgralloc.mapper import FabricDims, Placement, VirtualConfiguration, map_dfg
from cgralloc.workload import (
    Dfg,
    GeneratorParams,
    Operation,
    generate_random_workload,
)

from fabric_oracle import allocation_mismatches, cells_by_definition, configuration, pivots

DIMS_16x2 = FabricDims(num_cols=16, num_rows=2)
ROTATING = AllocationPolicy.ROTATING


def vc_single_cell_at(row: int, col: int) -> VirtualConfiguration:
    d = Dfg(name="cell", num_inputs=2,
            ops=(Operation("add", (~0, ~1)),),
            outputs=(0,))
    p = Placement(row=row, col_start=col, width=1)
    return VirtualConfiguration(dfg=d, placements=(p,))


def test_scheduler_starts_at_origin():
    assert pivot_at(ROTATING, 0, DIMS_16x2) == Pivot(0, 0)
    assert pivot_at(ROTATING, 1, DIMS_16x2) == Pivot(0, 1)


def test_scheduler_wraps_to_next_row_after_full_sweep():
    pivots = [pivot_at(ROTATING, k, DIMS_16x2) for k in range(34)]
    assert pivots[15] == Pivot(0, 15)
    assert pivots[16] == Pivot(1, 0)
    assert pivots[31] == Pivot(1, 15)
    assert pivots[32:] == [Pivot(0, 0), Pivot(0, 1)]  # back to the origin row


def test_scheduler_period_covers_grid_exactly_once():
    for cols, rows in [(16, 2), (1, 5), (5, 1), (3, 4)]:
        # brute-force enumeration: one period is a permutation of the grid
        dims = FabricDims(num_cols=cols, num_rows=rows)
        period = [pivot_at(ROTATING, k, dims) for k in range(dims.num_cells)]
        assert {(p.row, p.col) for p in period} == {
            (r, c) for r in range(rows) for c in range(cols)
        }
        assert len(set(period)) == dims.num_cells
        # and the next two periods repeat the same sequence
        for start in (dims.num_cells, 2 * dims.num_cells):
            assert [pivot_at(ROTATING, start + k, dims) for k in range(dims.num_cells)] == period


def test_allocate_at_origin_is_identity():
    w = generate_random_workload(GeneratorParams(num_dfgs=5), 2)
    for d in w.dfgs:
        vc = map_dfg(d, DIMS_16x2)
        alloc = allocate(vc, Pivot(0, 0), DIMS_16x2)
        for op_id, p in enumerate(vc.placements):
            assert alloc.cell_map[op_id] == tuple(
                (p.row, c) for c in range(p.col_start, p.col_start + p.width)
            )


def test_allocate_modular_translation():
    dims = FabricDims(num_cols=4, num_rows=2)
    vc = vc_single_cell_at(1, 3)
    alloc = allocate(vc, Pivot(row=1, col=2), dims)
    assert alloc.cell_map[0] == ((0, 1),)


def test_allocate_wraps_memory_op_past_right_edge():
    d = Dfg(name="m", num_inputs=1,
            ops=(Operation("load", (~0,)),), outputs=(0,))
    p = Placement(row=0, col_start=12, width=4)
    vc = VirtualConfiguration(dfg=d, placements=(p,))
    alloc = allocate(vc, Pivot(row=0, col=2), DIMS_16x2)
    assert [c for _, c in alloc.cell_map[0]] == [14, 15, 0, 1]


def test_allocate_rejects_out_of_bounds_pivot():
    vc = vc_single_cell_at(0, 0)
    with pytest.raises(ValueError):
        allocate(vc, Pivot(row=2, col=0), DIMS_16x2)


def test_fixed_policy_pins_origin_and_keeps_scheduler():
    # every execution, across more than one rotating period, loads at the origin
    for k in range(3 * DIMS_16x2.num_cells + 2):
        assert pivot_at(AllocationPolicy.FIXED_ORIGIN, k, DIMS_16x2) == Pivot(0, 0)


def test_rotating_policy_advances():
    dims = FabricDims(num_cols=4, num_rows=2)
    pivots = [pivot_at(ROTATING, k, dims) for k in range(3)]
    assert pivots == [Pivot(0, 0), Pivot(0, 1), Pivot(0, 2)]


def test_rotating_origin_matches_fixed_at_start():
    assert pivot_at(ROTATING, 0, DIMS_16x2) == Pivot(0, 0)
    assert pivot_at(ROTATING, DIMS_16x2.num_cells, DIMS_16x2) == Pivot(0, 0)


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
        logical = {(p.row, c) for p in vc.placements
                   for c in range(p.col_start, p.col_start + p.width)}
        for r in range(dims.num_rows):
            for c in range(dims.num_cols):
                alloc = allocate(vc, Pivot(r, c), dims)
                physical = [cell for cells in alloc.cell_map for cell in cells]
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
        tally: Counter = Counter()
        for k in range(dims.num_cells):
            for cells in allocate(vc, pivot_at(ROTATING, k, dims), dims).cell_map:
                tally.update(cells)
        expected = len({(p.row, c) for p in vc.placements
                        for c in range(p.col_start, p.col_start + p.width)})
        assert all(tally[(r, c)] == expected
                   for r in range(dims.num_rows) for c in range(dims.num_cols))


def test_allocate_is_the_torus_shift_of_every_cell_at_every_pivot():
    # logical (row, col) lands on ((row + r) mod R, (col + c) mod C), for mapped DFGs and for
    # placements off the fabric of every width up to num_cols, on fabrics whose sizes follow
    # each other in one process: a cell table keyed on num_cols alone is read for 1x1 and 1x5
    assert allocation_mismatches() == []


DIMS_8x3 = FabricDims(num_cols=8, num_rows=3)


@pytest.mark.parametrize("placement", [
    pytest.param(Placement(-1, 2, 1), id="row -1"),
    pytest.param(Placement(3, 2, 1), id="row num_rows"),
    pytest.param(Placement(1, -1, 4), id="col_start -1"),
    pytest.param(Placement(2, 6, 4), id="past the right edge"),
    pytest.param(Placement(0, 3, 8), id="as wide as the fabric"),
    pytest.param(Placement(0, 3, 0), id="width 0"),
])
def test_placement_off_the_fabric_lands_on_its_torus_shift(placement):
    vc = configuration(placement)
    for pivot in pivots(DIMS_8x3):
        assert allocate(vc, pivot, DIMS_8x3).cell_map == cells_by_definition(vc, pivot, DIMS_8x3)


@pytest.mark.parametrize("placement", [
    pytest.param(Placement(0, 0, 9), id="wider than the fabric"),
    pytest.param(Placement(1, 6, 19), id="past the doubled table"),
    pytest.param(Placement(0, 0, -1), id="negative width"),
    pytest.param(Placement(0.0, 0, 1), id="float row"),
    pytest.param(Placement(0, 0.0, 1), id="float col_start"),
    pytest.param(Placement(0, 0, 1.0), id="float width"),
])
def test_placement_no_slice_of_the_table_spells_is_a_value_error(placement):
    """Never a different cell map: no truncated slice at the seam, no negative index."""
    vc = configuration(placement)
    for pivot in pivots(DIMS_8x3):
        with pytest.raises(ValueError):
            allocate(vc, pivot, DIMS_8x3)
