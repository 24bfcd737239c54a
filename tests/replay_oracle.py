"""Per-execution replay: the reference that `dse.replay_trace` is checked against.

It walks the trace one execution at a time: take the next pivot, bind the
configuration there, and bump every physical cell the binding occupies.  Its
pivot walk is its own: a row and a column counter, advanced column-fastest
under ROTATING and never under FIXED_ORIGIN.  Its cost grows with the number
of executions, so tests keep their traces small.

Its counts are also the input of an exact oracle for the reported numbers:
each summary rate and bin, the lifetime and the paired lifetime improvement must equal its
`fractions.Fraction` value rounded once by `float()`, and argmax must name
the smallest (row, col) of a busiest cell.

Under FIXED_ORIGIN every execution sits at the origin, so trace order is
irrelevant and the map has a closed form: each mapped DFG's summed repeats
times its placed cells, with no replay at all (`fixed_origin_closed_form`).

Under ROTATING, `dse.replay_trace` takes one of two paths per DFG, by its leftover
executions n (each entry's repeats mod the period P): a sparse one while t x n < P,
and a dense one once t x n >= P, for the ratio t = `dse._DENSE_RATIO`.  The seeded
scenarios draw both sides, and dense DFGs below one period (P / t <= n < P) at the
fabric sizes `dse` sweeps (P from 16 to 256); `undrawn_sides` checks that from each
trace and its mapped DFGs, not from `replay_trace`.

Run as a script, it needs neither pytest nor hypothesis: it compares both
replays, checks the FIXED_ORIGIN closed form and every reported number
against the exact oracle on fixed sets of seeded scenarios, and exits 1 on
any mismatch or if either replay path, or a dense DFG below one period, is
never drawn.

    PYTHONPATH=src python tests/replay_oracle.py
"""

import math
import random
import sys
from fractions import Fraction
from itertools import product

from cgralloc.aging import AgingParams
from cgralloc.allocation import AllocationPolicy, Pivot, allocate
from cgralloc.dse import _DENSE_RATIO, map_workload, replay_trace, run_scenario_with_map
from cgralloc.mapper import FabricDims, VirtualConfiguration
from cgralloc.metrics import UtilizationMap
from cgralloc.workload import Dfg, GeneratorParams, Workload, generate_random_workload

EMPTY_DFG = Dfg(name="empty", num_inputs=0, ops=(), outputs=())
# (cols, rows): a point, a column, a row, a grid, and the BE preset
FABRICS = ((1, 1), (1, 5), (5, 1), (8, 2), (16, 2))
EXACT_FABRICS = ((1, 1), (5, 1), (8, 2), (16, 2), (32, 8))  # up to the BE and BU presets
DSE_FABRICS = tuple(product((8, 16, 32), (2, 4, 8)))  # the points of a `dse` sweep


def replay_per_execution(
    workload: Workload,
    mapped: dict[int, VirtualConfiguration],
    dims: FabricDims,
    policy: AllocationPolicy,
) -> UtilizationMap:
    """Replay the trace execution by execution; skipped DFGs are dropped."""
    rotating = policy is AllocationPolicy.ROTATING
    row = col = total = 0
    grid = [[0] * dims.num_cols for _ in range(dims.num_rows)]
    for dfg_index, repeats in workload.trace:
        vc = mapped.get(dfg_index)
        if vc is None:
            continue
        for _ in range(repeats):
            alloc = allocate(vc, Pivot(row, col), dims)
            for cells in alloc.cell_map:
                for r, c in cells:
                    grid[r][c] += 1
            total += 1
            if rotating:
                col += 1
                if col == dims.num_cols:
                    col, row = 0, row + 1
                    if row == dims.num_rows:
                        row = 0
    return UtilizationMap(dims, grid, total)


def seeded_scenarios(fabrics=FABRICS, seeds=range(25)):
    """(dims, workload) on each (cols, rows) fabric, for each seed.

    Memory ops are four columns wide, so on narrow fabrics some DFGs do not
    fit; the last DFG is empty; repeat counts reach past three pivot periods.
    """
    for seed in seeds:
        rng = random.Random(seed)
        for cols, rows in fabrics:
            dims = FabricDims(num_cols=cols, num_rows=rows)
            params = GeneratorParams(num_dfgs=rng.randint(1, 5), ops_per_dfg=(1, 6),
                                     memory_op_fraction=rng.choice((0.0, 0.3)), num_inputs=2)
            dfgs = generate_random_workload(params, seed).dfgs + (EMPTY_DFG,)
            trace = tuple((rng.randrange(len(dfgs)), rng.randint(1, 3 * dims.num_cells + 2))
                          for _ in range(rng.randint(1, 8)))
            yield dims, Workload(dfgs, trace)


def dense_scenarios(seeds=range(25)):
    """(dims, workload) on each fabric of FABRICS, for each seed, where leftovers pile up.

    One or two DFGs (one may be empty) run 3 to 10 entries of 1 to 2 P + 1 repeats, so
    most mapped DFGs' leftover executions reach P, some with full periods as well, and
    some leftovers wrap past the end of the period.
    """
    for seed in seeds:
        rng = random.Random(1000 + seed)
        for cols, rows in FABRICS:
            dims = FabricDims(num_cols=cols, num_rows=rows)
            params = GeneratorParams(num_dfgs=rng.randint(1, 2), ops_per_dfg=(1, 4),
                                     memory_op_fraction=rng.choice((0.0, 0.3)), num_inputs=2)
            dfgs = generate_random_workload(params, seed).dfgs + (EMPTY_DFG,)
            trace = tuple((rng.randrange(len(dfgs)), rng.randint(1, 2 * dims.num_cells + 1))
                          for _ in range(rng.randint(3, 10)))
            yield dims, Workload(dfgs, trace)


def band_scenarios(seeds=range(25)):
    """(dims, workload) on each fabric of DSE_FABRICS, for each seed, where leftovers stay
    about one period or below.

    One to three DFGs (one may be empty) run 2 to 6 entries of 1 to P / 4 repeats, some
    after a full period, so mapped DFGs' leftover executions fall below the dense switch
    or between it and P.
    """
    for seed in seeds:
        rng = random.Random(2000 + seed)
        for cols, rows in DSE_FABRICS:
            dims = FabricDims(num_cols=cols, num_rows=rows)
            params = GeneratorParams(num_dfgs=rng.randint(1, 3), ops_per_dfg=(1, 6),
                                     memory_op_fraction=rng.choice((0.0, 0.3)), num_inputs=2)
            dfgs = generate_random_workload(params, seed).dfgs + (EMPTY_DFG,)
            trace = tuple((rng.randrange(len(dfgs)), rng.choice((0, dims.num_cells))
                           + rng.randint(1, dims.num_cells // 4))
                          for _ in range(rng.randint(2, 6)))
            yield dims, Workload(dfgs, trace)


def all_scenarios():
    yield from seeded_scenarios()
    yield from dense_scenarios()
    yield from band_scenarios()


def leftover_sides(workload: Workload, mapped: dict[int, VirtualConfiguration],
                   period: int) -> dict[str, int]:
    """How many mapped DFGs of the trace fall on each side of the dense switch.

    With n a DFG's leftover executions and t = _DENSE_RATIO: "sparse": n >= 1 and t x n < P;
    "dense": t x n >= P; "dense below one period": dense with n < P; "dense with full
    periods": dense, and some entry ran P or more repeats; "dense with a wrapped leftover":
    dense, and some entry's leftover ran past the end of the period.
    """
    leftover, full, wraps, total = {}, set(), set(), 0
    for dfg_index, repeats in workload.trace:
        if dfg_index not in mapped:
            continue
        start, left = total % period, repeats % period
        leftover[dfg_index] = leftover.get(dfg_index, 0) + left
        if repeats >= period:
            full.add(dfg_index)
        if start + left > period:
            wraps.add(dfg_index)
        total += repeats
    dense = {d for d, n in leftover.items() if _DENSE_RATIO * n >= period}
    return {"sparse": sum(1 for n in leftover.values() if n and _DENSE_RATIO * n < period),
            "dense": len(dense),
            "dense below one period": sum(leftover[d] < period for d in dense),
            "dense with full periods": len(dense & full),
            "dense with a wrapped leftover": len(dense & wraps)}


def undrawn_sides() -> list[str]:
    """One line per kind of DFG, or of scenario, that no seeded ROTATING scenario draws."""
    drawn = dict.fromkeys(("sparse", "dense", "dense below one period",
                           "dense with full periods", "dense with a wrapped leftover"), 0)
    all_sparse = 0  # scenarios whose mapped DFGs all stay below the switch
    for dims, workload in all_scenarios():
        mapped, _ = map_workload(workload, dims)
        sides = leftover_sides(workload, mapped, dims.num_cells)
        for side, n in sides.items():
            drawn[side] += n
        all_sparse += sides["sparse"] > 0 and not sides["dense"]
    lines = [f"no seeded scenario draws a DFG that is {side}" for side, n in drawn.items()
             if n == 0]
    return lines + ([] if all_sparse else ["no seeded scenario keeps every DFG sparse"])


def mismatches() -> list[str]:
    """One line per seeded scenario and policy where the two replays differ."""
    found = []
    for dims, workload in all_scenarios():
        mapped, _ = map_workload(workload, dims)
        for policy in AllocationPolicy:
            got = replay_trace(workload, mapped, dims, policy)
            want = replay_per_execution(workload, mapped, dims, policy)
            if (got.total_executions, got.active_count) != (want.total_executions,
                                                            want.active_count):
                found.append(f"{dims.num_cols}x{dims.num_rows} {policy.value} "
                             f"trace {workload.trace}: got {got.total_executions} "
                             f"{got.active_count}, expected {want.total_executions} "
                             f"{want.active_count}")
    return found


def fixed_origin_closed_form(
    workload: Workload, mapped: dict[int, VirtualConfiguration], dims: FabricDims
) -> UtilizationMap:
    """The FIXED_ORIGIN map without a replay: sum each mapped DFG's repeats over the
    whole trace, then add that sum to each cell its placements occupy at the origin."""
    sums = dict.fromkeys(mapped, 0)
    for dfg_index, repeats in workload.trace:
        if dfg_index in sums:
            sums[dfg_index] += repeats
    grid = [[0] * dims.num_cols for _ in range(dims.num_rows)]
    for d, n in sums.items():
        for row, col, width in mapped[d].placements:
            for c in range(col, col + width):
                grid[row][c] += n
    return UtilizationMap(dims, grid, sum(sums.values()))


def fixed_origin_mismatches() -> list[str]:
    """One line per seeded scenario whose FIXED_ORIGIN replay is not the closed form."""
    found = []
    for dims, workload in seeded_scenarios():
        mapped, _ = map_workload(workload, dims)
        got = replay_trace(workload, mapped, dims, AllocationPolicy.FIXED_ORIGIN)
        want = fixed_origin_closed_form(workload, mapped, dims)
        if got != want:
            found.append(f"{dims.num_cols}x{dims.num_rows} fixed trace {workload.trace}: "
                         f"got {got.total_executions} {got.active_count}, closed form "
                         f"{want.total_executions} {want.active_count}")
    return found


def exact_summary(counts: list[list[int]], total: int) -> dict:
    """avg, max, min and histogram of the rates n / total, each exact, then rounded once,
    and argmax as the smallest (row, col) of a busiest cell."""
    rates = [Fraction(n, total) for row in counts for n in row]
    histogram = [0] * 20
    for rate in rates:
        histogram[min(math.floor(20 * rate), 19)] += 1
    top = max(map(max, counts))
    argmax = min((r, c) for r, row in enumerate(counts) for c, n in enumerate(row) if n == top)
    return {"avg": float(sum(rates) / len(rates)), "max": float(max(rates)),
            "min": float(min(rates)), "histogram": histogram, "argmax": list(argmax)}


def exact_lifetime(aging: AgingParams, top: int, total: int) -> float:
    """The reference lifetime over the worst rate top / total, exact, then rounded once;
    unbounded when the worst cell is idle."""
    if top == 0:
        return math.inf
    return float(Fraction(aging.reference_lifetime_years) * total / top)


def inexact_numbers() -> list[str]:
    """One line per reported number that is not its exact value rounded once.

    On 40 seeded scenarios per fabric of EXACT_FABRICS, the counts come from
    the per-execution replay.  Both policies' summaries and lifetimes are
    checked, and the paired run's lifetime improvement against the fixed and
    rotating worst counts b and p: float(Fraction(b, p)), unbounded when p is 0.
    """
    found = []
    aging = AgingParams()
    for dims, workload in seeded_scenarios(EXACT_FABRICS, range(40)):
        mapped, _ = map_workload(workload, dims)
        worst = []
        for policy in AllocationPolicy:
            want = replay_per_execution(workload, mapped, dims, policy)
            if want.total_executions == 0:  # the runner rejects such a trace
                break
            worst.append(max(map(max, want.active_count)))
            result = run_scenario_with_map(dims, workload, aging, (policy,))[0]
            got = {**result.summary.to_dict(), "lifetime_years": result.lifetime_years}
            exact = exact_summary(want.active_count, want.total_executions)
            exact["lifetime_years"] = exact_lifetime(aging, worst[-1], want.total_executions)
            found += [f"{dims.num_cols}x{dims.num_rows} {policy.value} trace {workload.trace}: "
                      f"{key} {got[key]!r}, exact {value!r}"
                      for key, value in exact.items() if got[key] != value]
        else:  # both runs counted executions: check the pair
            base, prop = worst
            want = float(Fraction(base, prop)) if prop else math.inf
            got = run_scenario_with_map(dims, workload, aging)[0].lifetime_improvement
            if got != want:
                found.append(f"{dims.num_cols}x{dims.num_rows} trace {workload.trace}: "
                             f"lifetime_improvement {got!r}, exact {want!r}")
    return found


if __name__ == "__main__":
    lines = mismatches() + undrawn_sides() + fixed_origin_mismatches() + inexact_numbers()
    print("\n".join(lines) or "counted replay, on its sparse and dense paths (dense below "
          "one period included), matches per-execution replay and the fixed-origin closed "
          "form, and every reported number is exact")
    sys.exit(1 if lines else 0)
