"""Counted replay against the per-execution reference, on random scenarios."""

import time

from hypothesis import example, given, settings
from hypothesis import strategies as st

from cgralloc import dse
from cgralloc.allocation import AllocationPolicy
from cgralloc.dse import map_workload, replay_trace
from cgralloc.mapper import FabricDims
from cgralloc.workload import GeneratorParams, Workload, generate_random_workload

from replay_oracle import (EMPTY_DFG, FABRICS, fixed_origin_closed_form,
                           fixed_origin_mismatches, inexact_numbers, mismatches,
                           replay_per_execution, undrawn_sides)


@st.composite
def scenarios(draw):
    """Small fabric plus a workload whose last DFG is empty.

    Memory ops are four columns wide, so on narrow fabrics some DFGs do not
    fit; repeat counts reach past one full pivot period.
    """
    dims = FabricDims(num_cols=draw(st.integers(1, 6)), num_rows=draw(st.integers(1, 4)))
    params = GeneratorParams(num_dfgs=draw(st.integers(1, 5)), ops_per_dfg=(1, 6),
                             memory_op_fraction=draw(st.sampled_from([0.0, 0.3])),
                             num_inputs=2)
    dfgs = generate_random_workload(params, draw(st.integers(0, 2**16))).dfgs + (EMPTY_DFG,)
    entry = st.tuples(st.integers(0, len(dfgs) - 1), st.integers(1, 3 * dims.num_cells + 2))
    trace = draw(st.lists(entry, min_size=1, max_size=8))
    return dims, Workload(dfgs=dfgs, trace=tuple(trace))


def _alu_workload(trace, num_ops=1):
    """DFG 0 has num_ops ALU ops (one by default) and DFG 1 is empty."""
    dfgs = generate_random_workload(GeneratorParams(num_dfgs=1, ops_per_dfg=(num_ops, num_ops),
                                                    memory_op_fraction=0.0), 0).dfgs
    return Workload(dfgs=dfgs + (EMPTY_DFG,), trace=trace)


@settings(deadline=None)
@given(scenario=scenarios(), policy=st.sampled_from(AllocationPolicy))
@example(scenario=(FabricDims(num_cols=1, num_rows=1), _alu_workload(((0, 3), (1, 2)))),
         policy=AllocationPolicy.ROTATING)
@example(scenario=(FabricDims(num_cols=5, num_rows=1), _alu_workload(((0, 3), (1, 1), (0, 12)))),
         policy=AllocationPolicy.ROTATING)
@example(scenario=(FabricDims(num_cols=1, num_rows=5), _alu_workload(((0, 7), (0, 4)))),
         policy=AllocationPolicy.ROTATING)
# on 3x2 (P = 6): leftovers 5 from execution 4 cross the period end; 12 is 2 P;
# 13 from execution 3 is 2 P plus 1 leftover, starting mid-period
@example(scenario=(FabricDims(num_cols=3, num_rows=2), _alu_workload(((0, 4), (0, 5)))),
         policy=AllocationPolicy.ROTATING)
@example(scenario=(FabricDims(num_cols=3, num_rows=2), _alu_workload(((0, 12),))),
         policy=AllocationPolicy.ROTATING)
@example(scenario=(FabricDims(num_cols=3, num_rows=2), _alu_workload(((0, 3), (0, 13)))),
         policy=AllocationPolicy.ROTATING)
# three ops on 3x2: 15 from execution 5 is 2 P plus 3 leftovers that wrap past the period
# end; under FIXED_ORIGIN (P = 1) runs of k x 6 are all full periods, at pivot 0
@example(scenario=(FabricDims(num_cols=3, num_rows=2), _alu_workload(((0, 5), (0, 15)), 3)),
         policy=AllocationPolicy.ROTATING)
@example(scenario=(FabricDims(num_cols=3, num_rows=2), _alu_workload(((0, 12), (0, 18)), 3)),
         policy=AllocationPolicy.FIXED_ORIGIN)
def test_counted_replay_matches_per_execution_replay(scenario, policy):
    dims, workload = scenario
    mapped, _ = map_workload(workload, dims)
    got = replay_trace(workload, mapped, dims, policy)
    want = replay_per_execution(workload, mapped, dims, policy)
    assert got.total_executions == want.total_executions
    assert got.active_count == want.active_count


def _skipping_workload(trace):
    """DFG 0 has one ALU op, DFG 1 six (more than a 1x1 or 5x1 fabric has cells), DFG 2 three."""
    one, six, three = (_alu_workload(((0, 1),), n).dfgs[0] for n in (1, 6, 3))
    return Workload(dfgs=(one, six, three), trace=trace)


@st.composite
def fixed_scenarios(draw):
    """One of FABRICS, the DFGs of scenarios(), a trace with repeats up to 10**30, and that
    trace shuffled."""
    _, workload = draw(scenarios())
    cols, rows = draw(st.sampled_from(FABRICS))
    entry = st.tuples(st.integers(0, len(workload.dfgs) - 1),
                      st.one_of(st.integers(1, 40), st.integers(1, 10**30)))
    trace = draw(st.lists(entry, min_size=1, max_size=10))
    return (FabricDims(num_cols=cols, num_rows=rows), workload._replace(trace=tuple(trace)),
            draw(st.permutations(trace)))


@settings(deadline=None)
@given(scenario=fixed_scenarios())
@example(scenario=(FabricDims(num_cols=8, num_rows=2),
                   _alu_workload(((0, 10**30), (1, 3), (0, 7)), 3), [(1, 3), (0, 7), (0, 10**30)]))
# DFG 0 in non-adjacent entries
@example(scenario=(FabricDims(num_cols=5, num_rows=1), _skipping_workload(((0, 3), (2, 2), (0, 5))),
                   [(0, 5), (2, 2), (0, 3)]))
# DFG 1 is skipped on 1x1 and 5x1, and DFG 2 too on 1x1
@example(scenario=(FabricDims(num_cols=1, num_rows=1),
                   _skipping_workload(((1, 4), (0, 2), (2, 9), (1, 1))),
                   [(2, 9), (1, 1), (0, 2), (1, 4)]))
@example(scenario=(FabricDims(num_cols=5, num_rows=1),
                   _skipping_workload(((1, 4), (0, 2), (2, 9), (1, 1))),
                   [(1, 1), (2, 9), (1, 4), (0, 2)]))
def test_fixed_origin_replay_is_each_dfgs_repeat_sum_times_its_cells(scenario):
    dims, workload, shuffled = scenario
    mapped, _ = map_workload(workload, dims)
    got = replay_trace(workload, mapped, dims, AllocationPolicy.FIXED_ORIGIN)
    assert got == fixed_origin_closed_form(workload, mapped, dims)
    assert got == replay_trace(workload._replace(trace=tuple(shuffled)), mapped, dims,
                               AllocationPolicy.FIXED_ORIGIN)


def test_replay_drops_entries_of_skipped_dfgs():
    """A skipped DFG's entries count nowhere, and none lands on another DFG."""
    dims = FabricDims(num_cols=5, num_rows=1)
    workload = _skipping_workload(((0, 2), (1, 7), (1, 4), (2, 3), (1, 1)))
    mapped, _ = map_workload(workload, dims)
    assert sorted(mapped) == [0, 2]  # DFG 1 is skipped
    kept = workload._replace(trace=((0, 2), (2, 3)))
    for policy in AllocationPolicy:
        got = replay_trace(workload, mapped, dims, policy)
        assert got == replay_trace(kept, mapped, dims, policy)
        assert got == replay_per_execution(workload, mapped, dims, policy)
        assert got.total_executions == 5
        # DFG 0 once per execution of its 2, DFG 2 three cells per execution of its 3
        assert sum(map(sum, got.active_count)) == 2 * 1 + 3 * 3


def test_replay_builds_only_the_pivots_the_trace_hits(monkeypatch):
    built = []
    pivot_at = dse.pivot_at

    def counting_pivot_at(policy, k, dims):
        built.append(k)
        return pivot_at(policy, k, dims)

    monkeypatch.setattr(dse, "pivot_at", counting_pivot_at)
    dims = FabricDims(num_cols=64, num_rows=64)
    period, rows = dims.num_cells, dims.num_rows
    rotating, fixed = AllocationPolicy.ROTATING, AllocationPolicy.FIXED_ORIGIN
    # a sparse DFG (leftovers below P) builds at most the pivots it hits; whole periods,
    # which ROTATING adds without a pivot and FIXED_ORIGIN (period 1) counts at its one
    # pivot; a dense DFG (leftovers reaching P, here P + 1 and P + 4 that wrap past the
    # period end, the second after two full periods) builds one pivot per pivot row, though
    # it hits all P; and a dense DFG 0 beside a sparse DFG 2 that hits 3 pivots
    for trace, policy, most in ((((0, 3),), rotating, 3),
                                (((0, period), (0, 5 * period)), rotating, 0),
                                (((0, period - 1), (0, 2)), rotating, rows),
                                (((0, 3 * period - 1), (0, 5)), rotating, rows),
                                (((0, period - 1), (2, 3), (0, 2)), rotating, rows + 3),
                                (((0, period), (0, 7)), fixed, 1)):
        built.clear()
        workload = _skipping_workload(trace)
        mapped, _ = map_workload(workload, dims)
        got = replay_trace(workload, mapped, dims, policy)
        assert got.active_count == replay_per_execution(
            workload, mapped, dims, policy).active_count
        assert len(built) <= most, f"{len(built)} pivots built for {trace} under {policy}"
        if most == rows:  # only the dense DFG: each pivot row's first pivot
            assert sorted(built) == list(range(0, period, dims.num_cols))
    assert built == [0]  # the FIXED_ORIGIN run did build its pivot


def test_replay_cost_does_not_grow_with_repeat_counts():
    dims = FabricDims(num_cols=64, num_rows=64)
    for policy in AllocationPolicy:
        period = dse.pivot_period(policy, dims)
        # 10**30 is a multiple of both periods, 1 and 2**12
        huge = _alu_workload(((0, 10**30), (1, 3 * period), (0, 5 * period)), 3)
        mapped, _ = map_workload(huge, dims)
        start = time.perf_counter()
        got = replay_trace(huge, mapped, dims, policy)
        assert time.perf_counter() - start < 1.0
        one_period = replay_per_execution(huge._replace(trace=((0, period),)), mapped, dims,
                                          policy)
        periods = 10**30 // period + 5
        assert got.total_executions == 10**30 + 8 * period
        assert got.active_count == [[n * periods for n in row]
                                    for row in one_period.active_count], policy


def test_dense_histogram_slots_hold_counts_past_16_bits():
    """140,000 single executions on a 2 x 1 fabric (P = 2) alternate pivots, so each slot
    of the DFG's packed histogram holds 70,000 > 2^16: a slot of 16 bits cannot."""
    dims = FabricDims(num_cols=2, num_rows=1)
    workload = _alu_workload(((0, 1),) * 140_000)
    mapped, _ = map_workload(workload, dims)
    got = replay_trace(workload, mapped, dims, AllocationPolicy.ROTATING)
    assert got.active_count == [[70_000, 70_000]]


def test_seeded_scenarios_match_per_execution_replay():
    assert mismatches() == []


def test_seeded_scenarios_draw_both_sides_of_the_dense_threshold():
    assert undrawn_sides() == []


def test_seeded_fixed_origin_replays_match_the_closed_form():
    assert fixed_origin_mismatches() == []


def test_every_reported_number_is_its_exact_value_rounded_once():
    assert inexact_numbers() == []
