"""Counted replay against the per-execution reference, on random scenarios."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from cgralloc import dse
from cgralloc.allocation import AllocationPolicy
from cgralloc.dse import map_workload, replay_trace
from cgralloc.mapper import FabricDims
from cgralloc.workload import Dfg, GeneratorParams, Workload, generate_random_workload

from replay_oracle import replay_per_execution

EMPTY_DFG = Dfg(name="empty", num_inputs=0, ops=(), outputs=())


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


def _one_op_workload(trace):
    dfgs = generate_random_workload(GeneratorParams(num_dfgs=1, ops_per_dfg=(1, 1),
                                                    memory_op_fraction=0.0), 0).dfgs
    return Workload(dfgs=dfgs + (EMPTY_DFG,), trace=trace)


@settings(deadline=None)
@given(scenario=scenarios(), policy=st.sampled_from(AllocationPolicy))
@example(scenario=(FabricDims(num_cols=1, num_rows=1), _one_op_workload(((0, 3), (1, 2)))),
         policy=AllocationPolicy.ROTATING)
@example(scenario=(FabricDims(num_cols=5, num_rows=1), _one_op_workload(((0, 3), (1, 1), (0, 12)))),
         policy=AllocationPolicy.ROTATING)
@example(scenario=(FabricDims(num_cols=1, num_rows=5), _one_op_workload(((0, 7), (0, 4)))),
         policy=AllocationPolicy.ROTATING)
def test_counted_replay_matches_per_execution_replay(scenario, policy):
    dims, workload = scenario
    mapped, _ = map_workload(workload, dims)
    got = replay_trace(workload, mapped, dims, policy)
    want = replay_per_execution(workload, mapped, dims, policy)
    assert got.total_executions == want.total_executions
    assert got.active_count == want.active_count


def test_replay_builds_only_the_pivots_the_trace_hits(monkeypatch):
    built = []
    pivot_at = dse.pivot_at

    def counting_pivot_at(policy, k, dims):
        built.append(k)
        return pivot_at(policy, k, dims)

    monkeypatch.setattr(dse, "pivot_at", counting_pivot_at)
    dims = FabricDims(num_cols=64, num_rows=64)
    workload = _one_op_workload(((0, 3),))
    mapped, _ = map_workload(workload, dims)
    got = replay_trace(workload, mapped, dims, AllocationPolicy.ROTATING)
    assert got.active_count == replay_per_execution(
        workload, mapped, dims, AllocationPolicy.ROTATING).active_count
    assert len(built) <= 3, f"{len(built)} pivots built for 3 executions"
