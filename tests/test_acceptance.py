"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines alongside pytest's own verdicts.
"""

import random

import pytest

from cgralloc.aging import AgingParams, delay_increase, delta_vt_raw, lifetime, lifetime_improvement
from cgralloc.allocation import AllocationPolicy, Pivot, pivot_at
from cgralloc.fabric import MemoryModel, execute, reconfig_plan
from cgralloc.mapper import DoesNotFitError, FabricDims, map_dfg
from cgralloc.metrics import summarize
from cgralloc.dse import map_workload, replay_trace
from cgralloc.workload import GeneratorParams, Workload, generate_random_workload

AGING = AgingParams()

SWEPT_DIMS = [
    FabricDims(num_cols=c, num_rows=r) for c in (8, 16, 32) for r in (2, 4, 8)
]

CORPUS_SEED = 2024


def _report(criterion: int, label: str, ok: bool) -> None:
    print(f"[acceptance] criterion {criterion} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {criterion} ({label}) failed"


@pytest.fixture(scope="module")
def corpus_200():
    # 200 random DFGs with a long trace; the shared corpus for criteria 3/6
    params = GeneratorParams(num_dfgs=200, ops_per_dfg=(3, 10),
                             memory_op_fraction=0.15, num_inputs=4,
                             trace_length=300, max_repeat=4)
    return generate_random_workload(params, CORPUS_SEED)


@pytest.fixture(scope="module")
def corpus_memory_heavy():
    params = GeneratorParams(num_dfgs=60, ops_per_dfg=(2, 8),
                             memory_op_fraction=0.4, num_inputs=3,
                             trace_length=120, max_repeat=3)
    return generate_random_workload(params, CORPUS_SEED + 1)


def test_criterion_1_reported_ratio_reproduction():
    pairs = [
        (0.945, 0.411, 2.29),
        (0.981, 0.224, 4.37),
        (0.981, 0.123, 7.97),
    ]
    ok = True
    for u_base, u_prop, expected in pairs:
        got = lifetime_improvement(u_base, u_prop)
        ok = ok and abs(got - expected) / expected <= 0.005
    _report(1, "worst-utilization lifetime ratios", ok)


def test_criterion_2_lifetime_narrative():
    ok = 3.0 <= lifetime(AGING, 0.945) <= 3.3 and 7.0 <= lifetime(AGING, 0.411) <= 7.5
    _report(2, "lifetimes at 94.5% and 41.1% load", ok)


def test_criterion_3_corner_bias(corpus_200):
    dims = FabricDims(num_cols=16, num_rows=2)
    mapped, skipped = map_workload(corpus_200, dims)
    umap = replay_trace(corpus_200, mapped, dims, AllocationPolicy.FIXED_ORIGIN)
    total, counts = umap.total_executions, umap.active_count
    coldest = min(map(min, counts))
    ok = counts[0][0] == total > 0 and 5 * coldest < total
    print(f"[acceptance]   corner={counts[0][0]}/{total} min={coldest}/{total} "
          f"mapped={len(mapped)}/{len(corpus_200.dfgs)}")
    _report(3, "fixed-origin corner at 100%, cold cells below 20%", ok)


def test_criterion_4_uniformization_oracle():
    ok = True
    for cols in (4, 8, 16):
        dims = FabricDims(num_cols=cols, num_rows=2)
        params = GeneratorParams(num_dfgs=10, ops_per_dfg=(1, 4),
                                 memory_op_fraction=0.2 if cols >= 4 else 0.0,
                                 num_inputs=3)
        workload = generate_random_workload(params, CORPUS_SEED + cols)
        vc = None
        for d in workload.dfgs:
            try:
                vc = map_dfg(d, dims)
                break
            except DoesNotFitError:
                continue
        assert vc is not None
        one_period = Workload(dfgs=(vc.dfg,), trace=((0, dims.num_cells),))
        umap = replay_trace(one_period, {0: vc}, dims, AllocationPolicy.ROTATING)
        occupied = len({(p.row, c) for p in vc.placements
                        for c in range(p.col_start, p.col_start + p.width)})
        counts_ok = all(
            umap.active_count[r][c] == occupied
            for r in range(dims.num_rows) for c in range(dims.num_cols)
        )
        ok = ok and counts_ok and umap.total_executions == dims.num_cells
    _report(4, "full rotation spreads one configuration exactly evenly", ok)


def test_criterion_5_semantics_preservation():
    dims = FabricDims(num_cols=8, num_rows=2)
    params = GeneratorParams(num_dfgs=500, ops_per_dfg=(2, 6),
                             memory_op_fraction=0.3, num_inputs=3)
    workload = generate_random_workload(params, CORPUS_SEED + 5)
    vcs = []
    for d in workload.dfgs:
        try:
            vcs.append(map_dfg(d, dims))
        except DoesNotFitError:
            continue
        if len(vcs) == 100:
            break
    assert len(vcs) >= 100

    rng = random.Random(CORPUS_SEED)
    ok = True
    for vc in vcs:
        inputs = [rng.getrandbits(32) for _ in range(vc.dfg.num_inputs)]
        seed_mem = {rng.getrandbits(8): rng.getrandbits(32) for _ in range(4)}
        oracle = execute(vc, Pivot(0, 0), inputs, MemoryModel(seed_mem), dims)
        for r in range(dims.num_rows):
            for c in range(dims.num_cols):
                got = execute(vc, Pivot(r, c), inputs, MemoryModel(seed_mem), dims)
                ok = ok and got.outputs == oracle.outputs and got.memory == oracle.memory
    _report(5, "outputs and memory identical across all 16 pivots", ok)


def test_criterion_6_mass_conservation(corpus_200, corpus_memory_heavy):
    ok = True
    for workload in (corpus_200, corpus_memory_heavy):
        for dims in SWEPT_DIMS:
            mapped, _ = map_workload(workload, dims)
            if not mapped:
                continue
            fixed = summarize(replay_trace(workload, mapped, dims, AllocationPolicy.FIXED_ORIGIN))
            rotating = summarize(replay_trace(workload, mapped, dims, AllocationPolicy.ROTATING))
            avg_ok = fixed.avg == rotating.avg
            max_ok = rotating.max <= fixed.max
            ok = ok and avg_ok and max_ok
    _report(6, "average utilization policy-invariant, rotating max never worse", ok)


def test_criterion_7_reconfiguration_parity():
    ok = True
    for dims in SWEPT_DIMS:
        baseline = reconfig_plan(Pivot(0, 0), dims)
        ok = ok and baseline.line_select == tuple(
            i % dims.num_config_lines for i in range(dims.num_cols)
        )
        for r in range(dims.num_rows):
            for c in range(dims.num_cols):
                plan = reconfig_plan(Pivot(r, c), dims)
                ok = ok and plan.reconfig_cycles == baseline.reconfig_cycles
    _report(7, "reconfiguration cycle count pivot-independent", ok)


def test_criterion_8_aging_model_properties():
    t0, u0 = 5000.0, 0.5
    axes = [
        [delta_vt_raw(AgingParams(temperature_k=260.0 + 20.0 * i), t0, u0) for i in range(10)],
        [delta_vt_raw(AgingParams(vdd=0.6 + 0.1 * i), t0, u0) for i in range(10)],
        [delta_vt_raw(AGING, 100.0 * (i + 1), u0) for i in range(10)],
        [delta_vt_raw(AGING, t0, 0.1 * (i + 1)) for i in range(10)],
    ]
    monotone = all(all(b > a for a, b in zip(vals, vals[1:])) for vals in axes)
    constant = all(
        abs(lifetime(AGING, i / 100) * (i / 100) - 3.0) <= 3.0 * 1e-12
        for i in range(1, 101)
    )
    anchor = delay_increase(AGING, 3.0, 1.0) == 0.10
    _report(8, "drift monotone, lifetime*u constant, anchor exact", monotone and constant and anchor)


def test_criterion_9_scheduler_coverage():
    ok = True
    for dims in SWEPT_DIMS:
        expected = {(r, c) for r in range(dims.num_rows) for c in range(dims.num_cols)}
        for period in range(3):  # L*W pivots per period, so covering all means once each
            start = period * dims.num_cells
            seen = {(p.row, p.col) for p in
                    (pivot_at(AllocationPolicy.ROTATING, start + k, dims)
                     for k in range(dims.num_cells))}
            ok = ok and seen == expected
    _report(9, "every pivot period covers every cell exactly once", ok)
