from collections import Counter

import pytest

from cgralloc.allocation import AllocationPolicy, allocate, pivot_at
from cgralloc.dse import replay_trace
from cgralloc.mapper import DoesNotFitError, FabricDims, map_dfg
from cgralloc.metrics import UtilizationMap, export_heatmap, summarize
from cgralloc.workload import (
    Dfg,
    GeneratorParams,
    Operation,
    Workload,
    generate_random_workload,
)
from heatmap_reader import parse_heatmap

DIMS_16x2 = FabricDims(num_cols=16, num_rows=2)


def single_add_vc(dims=DIMS_16x2):
    d = Dfg(name="a", num_inputs=2,
            ops=(Operation("add", (~0, ~1)),),
            outputs=(0,))
    return map_dfg(d, dims)


def single_load_vc(dims=DIMS_16x2):
    d = Dfg(name="l", num_inputs=1,
            ops=(Operation("load", (~0,)),),
            outputs=(0,))
    return map_dfg(d, dims)


def replay_one(vc, dims=DIMS_16x2, executions=1, policy=AllocationPolicy.FIXED_ORIGIN):
    """Map of a one-entry trace: `executions` runs of one configuration."""
    w = Workload(dfgs=(vc.dfg,), trace=((0, executions),))
    return replay_trace(w, {0: vc}, dims, policy)


def test_record_single_execution():
    m = replay_one(single_add_vc())
    assert m.active_count[0][0] == 1
    assert m.total_executions == 1
    assert sum(sum(row) for row in m.active_count) == 1


def test_utilization_map_is_an_immutable_named_tuple():
    m = replay_one(single_add_vc(), executions=3)
    assert m == (DIMS_16x2, m.active_count, 3)
    with pytest.raises(AttributeError):
        m.total_executions = 0


def test_memory_op_bumps_all_four_cells():
    m = replay_one(single_load_vc())
    assert m.active_count[0][:4] == [1, 1, 1, 1]
    assert sum(sum(row) for row in m.active_count) == 4


def test_rates_simple_fraction():
    dims = FabricDims(num_cols=2, num_rows=1)
    # the two-cell fabric alternates the single op between its cells
    m = replay_one(single_add_vc(dims), dims, 100, AllocationPolicy.ROTATING)
    assert m.active_count == [[50, 50]]
    assert m.total_executions == 100
    assert export_heatmap(m) == "#rows=1,cols=2,executions=100\n0.500000,0.500000\n"


def test_all_zero_counts_give_all_zero_rates():
    # executions of an empty configuration count toward the total but
    # occupy no cells
    empty = map_dfg(Dfg(name="empty", num_inputs=0, ops=(), outputs=()), DIMS_16x2)
    m = replay_one(empty, executions=5)
    assert m.total_executions == 5
    assert m.active_count == [[0] * 16, [0] * 16]
    s = summarize(m)
    assert s.avg == s.max == s.min == 0.0
    assert s.histogram[0] == DIMS_16x2.num_cells


def test_rates_match_fraction_of_executions():
    m = replay_one(single_add_vc(), executions=100)
    assert m.active_count[0][0] == m.total_executions == 100
    assert m.active_count[1][5] == 0


def test_recount_oracle_over_replayed_scenario():
    # oracle: tally each execution's occupied cells with a bare Counter and
    # compare against the map's counts cell by cell
    dims = FabricDims(num_cols=8, num_rows=2)
    w = generate_random_workload(
        GeneratorParams(num_dfgs=10, ops_per_dfg=(1, 5), memory_op_fraction=0.2,
                        trace_length=30, max_repeat=3), 21
    )
    mapped = {}
    for i, d in enumerate(w.dfgs):
        try:
            mapped[i] = map_dfg(d, dims)
        except DoesNotFitError:
            continue
    m = replay_trace(w, mapped, dims, AllocationPolicy.ROTATING)
    oracle: Counter = Counter()
    executions = 0
    for idx, reps in w.trace:
        if idx not in mapped:
            continue
        for _ in range(reps):
            pivot = pivot_at(AllocationPolicy.ROTATING, executions, dims)
            for cells in allocate(mapped[idx], pivot, dims).cell_map:
                oracle.update(cells)
            executions += 1
    assert m.total_executions == executions > 0
    for r in range(dims.num_rows):
        for c in range(dims.num_cols):
            assert m.active_count[r][c] == oracle[(r, c)]


def test_summarize_uniform_rates():
    dims = FabricDims(num_cols=2, num_rows=2)
    s = summarize(UtilizationMap(dims, [[25, 25], [25, 25]], 100))
    assert s.avg == s.max == s.min == 0.25
    assert s.argmax == (0, 0)


def test_summarize_corner_case_and_argmax_tiebreak():
    dims = FabricDims(num_cols=2, num_rows=2)
    s = summarize(UtilizationMap(dims, [[10, 0], [0, 10]], 10))
    assert s.max == 1.0
    assert s.min == 0.0
    assert s.avg == 0.5
    assert s.argmax == (0, 0)  # lexicographic winner among ties


def test_summarize_histogram_counts_cells():
    m = replay_one(single_load_vc(), executions=10)
    s = summarize(m)
    assert len(s.histogram) == 20
    assert sum(s.histogram) == DIMS_16x2.num_cells
    assert s.histogram[0] == 28   # untouched cells in the first bin
    assert s.histogram[-1] == 4   # rate-1.0 cells land in the closed last bin


def test_summary_dict_fields():
    m = replay_one(single_add_vc())
    doc = summarize(m).to_dict()
    assert set(doc) == {"avg", "max", "min", "argmax", "histogram", "num_bins"}
    assert doc["argmax"] == [0, 0]


def test_export_heatmap_minimal():
    dims = FabricDims(num_cols=1, num_rows=1)
    d = Dfg(name="a", num_inputs=2,
            ops=(Operation("add", (~0, ~1)),), outputs=())
    m = replay_one(map_dfg(d, dims), dims)
    assert export_heatmap(m) == "#rows=1,cols=1,executions=1\n1.000000\n"


def test_heatmap_roundtrip_idempotent():
    m = replay_one(single_load_vc(), executions=7, policy=AllocationPolicy.ROTATING)
    rates, dims, executions = parse_heatmap(export_heatmap(m))
    assert dims == DIMS_16x2
    assert executions == 7
    assert rates == [[float(f"{n / 7:.6f}") for n in row] for row in m.active_count]


def test_heatmap_shape_matches_dims():
    m = replay_one(single_add_vc())
    lines = export_heatmap(m).strip().splitlines()
    assert len(lines) == 1 + 2
    assert all(len(line.split(",")) == 16 for line in lines[1:])


def test_parse_heatmap_rejects_garbage():
    with pytest.raises(ValueError):
        parse_heatmap("0.5,0.5\n")
    with pytest.raises(ValueError):
        parse_heatmap("#rows=2,cols=2,executions=1\n0.000000,0.000000\n")


def test_mass_conservation_across_policies():
    # rotation redistributes occupancy without changing total mass, so the
    # average utilization matches the fixed-origin run exactly
    dims = FabricDims(num_cols=8, num_rows=2)
    w = generate_random_workload(
        GeneratorParams(num_dfgs=12, ops_per_dfg=(1, 5), memory_op_fraction=0.15,
                        trace_length=40), 31
    )
    mapped = {}
    for i, d in enumerate(w.dfgs):
        try:
            mapped[i] = map_dfg(d, dims)
        except DoesNotFitError:
            continue
    masses = {}
    for policy in AllocationPolicy:
        m = replay_trace(w, mapped, dims, policy)
        masses[policy] = sum(sum(row) for row in m.active_count)
    assert masses[AllocationPolicy.FIXED_ORIGIN] == masses[AllocationPolicy.ROTATING]


def test_full_rotation_yields_exact_uniform_rates():
    for cols in (4, 8, 16):
        dims = FabricDims(num_cols=cols, num_rows=2)
        vc = single_load_vc(dims)
        m = replay_one(vc, dims, dims.num_cells, AllocationPolicy.ROTATING)
        occupied = len({(p.row, c) for p in vc.placements
                        for c in range(p.col_start, p.col_start + p.width)})
        assert m.active_count == [[occupied] * cols, [occupied] * cols]
        s = summarize(m)
        assert s.avg == s.max == s.min == occupied / dims.num_cells
