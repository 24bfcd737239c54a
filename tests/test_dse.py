import json
from itertools import product

import pytest

from cgralloc import dse
from cgralloc.aging import AgingParams
from cgralloc.allocation import AllocationPolicy
from cgralloc.dse import (
    PRESETS,
    EmptyScenarioError,
    ScenarioResult,
    map_workload,
    replay_trace,
    results_table,
    run_scenario_with_map,
    sweep,
)
from cgralloc.mapper import FabricDims, map_dfg
from cgralloc.workload import (
    Dfg,
    GeneratorParams,
    Operation,
    Workload,
    WorkloadSemanticError,
    generate_random_workload,
    parse_workload,
    serialize_workload,
)

AGING = AgingParams()
DIMS_16x2 = FabricDims(num_cols=16, num_rows=2)


def single_op_workload(executions: int) -> Workload:
    d = Dfg(name="one", num_inputs=2,
            ops=(Operation("add", (~0, ~1)),),
            outputs=(0,))
    return Workload(dfgs=(d,), trace=((0, executions),))


def memory_only_workload() -> Workload:
    d = Dfg(name="mem", num_inputs=1,
            ops=(Operation("load", (~0,)),),
            outputs=(0,))
    return Workload(dfgs=(d,), trace=((0, 10),))


def run_one(workload, dims=DIMS_16x2, policy=AllocationPolicy.ROTATING) -> ScenarioResult:
    result, _ = run_scenario_with_map(dims, workload, AGING, (policy,))
    return result


def run_paired(workload, dims=DIMS_16x2, **kwargs) -> ScenarioResult:
    result, _ = run_scenario_with_map(dims, workload, AGING, **kwargs)
    return result


def test_presets_carry_the_three_design_points():
    assert PRESETS == {
        "BE": FabricDims(num_cols=16, num_rows=2),
        "BP": FabricDims(num_cols=32, num_rows=4),
        "BU": FabricDims(num_cols=32, num_rows=8),
    }


def test_rotating_full_period_is_exactly_uniform():
    w = single_op_workload(DIMS_16x2.num_cells)
    result = run_one(w)
    assert result.summary.max == result.summary.min == result.summary.avg == 1 / 32
    assert result.total_executions == 32


def test_fixed_origin_max_is_corner():
    w = single_op_workload(DIMS_16x2.num_cells)
    result = run_one(w, policy=AllocationPolicy.FIXED_ORIGIN)
    assert result.summary.max == 1.0
    assert result.summary.argmax == (0, 0)
    assert result.lifetime_years == 3.0


def test_run_scenario_deterministic():
    w = generate_random_workload(GeneratorParams(num_dfgs=15, trace_length=30), 8)
    a = run_one(w)
    b = run_one(w)
    assert a == b
    assert json.dumps(a.to_dict()) == json.dumps(b.to_dict())


def test_run_scenario_skips_unmappable_dfgs():
    w = memory_only_workload()
    small = FabricDims(num_cols=16, num_rows=2)
    ok = run_one(w, dims=small)
    assert ok.skipped_dfgs == ()
    with pytest.raises(EmptyScenarioError):
        run_one(w, dims=FabricDims(num_cols=2, num_rows=2))


def test_skipped_trace_entries_are_dropped():
    fits = Dfg(name="fits", num_inputs=2,
               ops=(Operation("add", (~0, ~1)),),
               outputs=(0,))
    too_big = Dfg(name="toobig", num_inputs=1,
                  ops=(Operation("load", (~0,)),),
                  outputs=(0,))
    w = Workload(dfgs=(fits, too_big), trace=((0, 3), (1, 5), (0, 2)))
    dims = FabricDims(num_cols=2, num_rows=2)
    result = run_one(w, dims=dims)
    assert result.skipped_dfgs == ((1, "toobig"),)
    assert result.total_executions == 5


def test_over_capacity_dfg_is_skipped_without_first_fit(monkeypatch):
    dims = FabricDims(num_cols=2, num_rows=2)
    add = Operation("add", (~0, ~0))
    exact = Dfg(name="exact", num_inputs=1, ops=(add,) * 4, outputs=())  # one op per cell
    over = Dfg(name="over", num_inputs=1, ops=(add,) * 5, outputs=())
    seen = []

    def recording_map_dfg(d, dims):
        seen.append(d.name)
        return map_dfg(d, dims)

    monkeypatch.setattr(dse, "map_dfg", recording_map_dfg)
    mapped, skipped = map_workload(Workload(dfgs=(over, exact), trace=((1, 1),)), dims)
    assert seen == ["exact"]
    assert list(mapped) == [1] and skipped == [(0, "over")]


def test_compare_policies_pairs_the_fields():
    w = generate_random_workload(
        GeneratorParams(num_dfgs=20, ops_per_dfg=(2, 6), trace_length=60), 12
    )
    result = run_paired(w)
    mapped, _ = map_workload(w, DIMS_16x2)
    worst = {policy: max(map(max, replay_trace(w, mapped, DIMS_16x2, policy).active_count))
             for policy in AllocationPolicy}
    assert result.baseline_max_util == 1.0
    assert result.proposed_max_util == result.summary.max < 1.0
    # the ratio of the two worst counts, not of the two rounded rates
    assert result.lifetime_improvement == (worst[AllocationPolicy.FIXED_ORIGIN]
                                           / worst[AllocationPolicy.ROTATING])
    assert result.lifetime_improvement > 1.0


def test_compare_policies_avg_matches_between_runs():
    w = generate_random_workload(GeneratorParams(num_dfgs=10, trace_length=40), 14)
    mapped, _ = map_workload(w, DIMS_16x2)
    from cgralloc.metrics import summarize
    base = summarize(replay_trace(w, mapped, DIMS_16x2, AllocationPolicy.FIXED_ORIGIN))
    prop = summarize(replay_trace(w, mapped, DIMS_16x2, AllocationPolicy.ROTATING))
    assert base.avg == prop.avg
    paired = run_paired(w)
    assert paired.summary.avg == base.avg


def test_compare_identical_policies_improvement_is_one():
    w = single_op_workload(50)
    pair = (AllocationPolicy.FIXED_ORIGIN, AllocationPolicy.FIXED_ORIGIN)
    result = run_paired(w, policies=pair)
    assert result.lifetime_improvement == 1.0
    assert result.baseline_max_util == result.proposed_max_util == 1.0


def test_compare_policies_exact_synthetic_ratio():
    # 1000 executions of one single-cell config: fixed keeps the corner at
    # 1.0 while rotating spreads over 32 cells -> max count 32 of 1000
    w = single_op_workload(1000)
    result = run_paired(w)
    assert result.baseline_max_util == 1.0
    assert result.proposed_max_util == 32 / 1000
    assert result.lifetime_improvement == 1000 / 32


def test_sweep_cardinality_and_order():
    w = single_op_workload(20)
    results = sweep([16, 32], [2, 4, 8], w, AGING)
    assert [r.label for r in results] == [
        "L16W2", "L16W4", "L16W8", "L32W2", "L32W4", "L32W8"
    ]
    assert all(r.error is None for r in results)


def test_sweep_single_point():
    w = single_op_workload(20)
    results = sweep([8], [2], w, AGING)
    assert len(results) == 1
    assert results[0].label == "L8W2"


def test_sweep_records_errors_and_continues():
    w = memory_only_workload()
    results = sweep([2, 16], [2], w, AGING)
    assert results[0].label == "L2W2"
    assert results[0].error == "L2W2: no DFG of the workload fits"
    assert results[1].error is None


@pytest.mark.parametrize("seed", range(5))
def test_sweep_equals_a_scenario_per_point(seed):
    # unsorted and repeated column counts; 1x1 fits nothing, narrow points skip some DFGs
    cols, rows = [12, 3, 1, 6, 12, 5, 30], [2, 1, 4]
    w = generate_random_workload(
        GeneratorParams(num_dfgs=12, ops_per_dfg=(3, 14), memory_op_fraction=0.3,
                        trace_length=40), seed)
    want = []
    for c, r in sorted(product(cols, rows)):
        dims = FabricDims(num_cols=c, num_rows=r)
        try:
            want.append(run_scenario_with_map(dims, w, AGING)[0])
        except EmptyScenarioError as e:
            want.append(ScenarioResult(dims, error=str(e)))
    assert sweep(cols, rows, w, AGING) == want
    assert want[0].error == "L1W1: no DFG of the workload fits"
    assert any(r.error is None and r.skipped_dfgs for r in want)
    assert any(r.error is None and not r.skipped_dfgs for r in want)


@pytest.mark.parametrize("trace, message", [
    (((0, -3),), "trace[0]: repeat count -3 must be >= 1"),
    (((0, 5), (0, -3)), "trace[1]: repeat count -3 must be >= 1"),
    (((0, 2), (0, 0)), "trace[1]: repeat count 0 must be >= 1"),
    (((0, -1), (0, 2), (0, 0)),
     "trace[0]: repeat count -1 must be >= 1; trace[2]: repeat count 0 must be >= 1"),
], ids=["negative", "negative after positive", "zero", "two entries"])
def test_hand_built_repeat_counts_below_one_raise_before_any_replay(trace, message):
    """parse_workload rejects these counts in a file.  A hand-built Workload holding them
    gets the same error when it is built, by the constructor, _make or _replace, so no
    run_scenario_with_map or sweep can replay it: unchecked, the first two replay to -3
    executions and utilization 1.5.  The text comes from a Workload built past the check."""
    good = single_op_workload(1)
    unchecked = tuple.__new__(Workload, (good.dfgs, trace))
    with pytest.raises(WorkloadSemanticError) as parsed:
        parse_workload(serialize_workload(unchecked))
    assert str(parsed.value) == message
    for build in (lambda: Workload(good.dfgs, trace), lambda: Workload(dfgs=good.dfgs, trace=trace),
                  lambda: Workload._make((good.dfgs, trace)), lambda: good._replace(trace=trace)):
        with pytest.raises(WorkloadSemanticError) as e:
            build()
        assert e.value.violations == parsed.value.violations
    assert good._replace(trace=((0, 1), (0, 2))).trace == ((0, 1), (0, 2))  # good counts pass


@pytest.mark.parametrize("policies", [
    pytest.param((), id="none"),
    pytest.param(("rotating",), id="a policy's value"),
    pytest.param(tuple(AllocationPolicy) + (AllocationPolicy.ROTATING,), id="three"),
])
def test_run_scenario_needs_one_or_two_policies(policies):
    """Unchecked, no policy ended in an UnboundLocalError, the string "rotating" replayed
    fixed-origin without a word, and three policies dropped the pairing."""
    w = generate_random_workload(GeneratorParams(), 1)
    with pytest.raises(ValueError, match="^policies must be one or two AllocationPolicy members"):
        run_scenario_with_map(PRESETS["BE"], w, AGING, policies)


def test_sweep_rejects_empty_axis():
    with pytest.raises(ValueError):
        sweep([], [2], single_op_workload(5), AGING)


def test_sweep_avg_util_non_increasing_in_rows():
    # fixed workload, growing fabric: same utilization mass over more cells
    w = generate_random_workload(
        GeneratorParams(num_dfgs=40, ops_per_dfg=(2, 5), memory_op_fraction=0.1,
                        trace_length=60), 18
    )
    results = sweep([16], [2, 4, 8], w, AGING)
    assert all(r.error is None and not r.skipped_dfgs for r in results)
    avgs = [r.summary.avg for r in results]
    assert avgs[0] >= avgs[1] >= avgs[2]


def test_results_table_layout():
    w = single_op_workload(32)
    results = sweep([16], [2], w, AGING)
    table = results_table(results)
    lines = table.strip().splitlines()
    assert lines[0].split() == [
        "scenario", "avg_util", "baseline_worst", "proposed_worst", "lifetime_improv"
    ]
    assert lines[1].startswith("L16W2")
    assert "32.00x" in lines[1]  # fixed corner 1.0 over rotating 1/32


def test_results_table_marks_errors():
    failed = ScenarioResult(FabricDims(num_cols=2, num_rows=2), error="nothing fits")
    table = results_table([failed])
    assert table.splitlines()[1].split() == ["L2W2", "ERROR", "nothing", "fits"]


def test_result_dict_roundtrips_through_json():
    w = single_op_workload(32)
    result = run_paired(w)
    doc = json.loads(json.dumps(result.to_dict()))
    assert doc["label"] == "L16W2"
    assert doc["baseline_max_util"] == 1.0
    assert doc["argmax_cell"] == list(result.summary.argmax)


def test_run_scenario_with_map_exposes_counts():
    w = single_op_workload(32)
    result, umap = run_scenario_with_map(DIMS_16x2, w, AGING, (AllocationPolicy.ROTATING,))
    assert umap.total_executions == result.total_executions == 32
    assert sum(sum(row) for row in umap.active_count) == 32


def test_single_policy_leaves_pair_fields_empty():
    result = run_one(single_op_workload(32))
    assert result.label == "L16W2"
    assert result.baseline_max_util is None
    assert result.proposed_max_util is None
    assert result.lifetime_improvement is None


def test_paired_run_returns_map_of_last_policy():
    w = single_op_workload(32)
    result, umap = run_scenario_with_map(DIMS_16x2, w, AGING)
    assert result.summary.max == result.proposed_max_util == 1 / 32
    assert max(max(row) for row in umap.active_count) == 1
