"""Scenario runner and design-space exploration over fabric sizes and policies.

A scenario maps every DFG of a workload once, replays the trace under one or
more allocation policies, and reduces the last run's utilization to summary
statistics plus the projected lifetime of the worst-stressed cell.  Paired
runs compare the fixed-origin baseline against the rotating allocator on the
same workload and report the lifetime improvement, which equals the ratio of
the two worst cells' occupied counts (both runs share the execution total).
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from fractions import Fraction
from functools import cache
from itertools import accumulate, chain, product
from operator import add
from struct import pack, unpack
from typing import NamedTuple

from . import aging
from .allocation import AllocationPolicy, pivot_at, pivot_period
from .mapper import DoesNotFitError, FabricDims, VirtualConfiguration, map_dfg
from .metrics import UtilizationMap, UtilizationSummary, summarize
from .workload import Workload


class EmptyScenarioError(Exception):
    """Every DFG of the workload was skipped; nothing to run."""


PRESETS: dict[str, FabricDims] = {
    "BE": FabricDims(num_cols=16, num_rows=2),
    "BP": FabricDims(num_cols=32, num_rows=4),
    "BU": FabricDims(num_cols=32, num_rows=8),
}

_DENSE_RATIO = 8  # t of replay_trace's dense switch, measured there
_PAIR = (AllocationPolicy.FIXED_ORIGIN, AllocationPolicy.ROTATING)  # baseline, proposed
_NOTHING_RUN = UtilizationSummary(avg=0.0, max=0.0, min=0.0, argmax=(0, 0), histogram=())


def _label(dims: FabricDims) -> str:
    return f"L{dims.num_cols}W{dims.num_rows}"


def null_if_unbounded(x: float | None) -> float | None:
    """JSON has no infinity: an unbounded lifetime or improvement is written as null."""
    return None if x == math.inf else x


def text_or_unbounded(x: float, fmt: str) -> str:
    """Text form of a lifetime or improvement; infinity reads `unbounded`."""
    return "unbounded" if x == math.inf else fmt.format(x)


class ScenarioResult(NamedTuple):
    """One fabric point: the last run's summary, paired with a baseline's worst cell.

    In a paired run, lifetime_improvement is the baseline's worst-cell count
    over the last run's (math.inf when the latter is 0).
    """

    dims: FabricDims
    summary: UtilizationSummary = _NOTHING_RUN
    total_executions: int = 0
    lifetime_years: float = 0.0
    skipped_dfgs: tuple[tuple[int, str], ...] = ()
    baseline_max_util: float | None = None
    lifetime_improvement: float | None = None
    error: str | None = None

    @property
    def label(self) -> str:
        return _label(self.dims)

    @property
    def proposed_max_util(self) -> float | None:
        return None if self.baseline_max_util is None else self.summary.max

    def to_dict(self) -> dict:
        """The `dse -o` record."""
        return {
            "label": self.label,
            "num_cols": self.dims.num_cols,
            "num_rows": self.dims.num_rows,
            "total_executions": self.total_executions,
            "avg_util": self.summary.avg,
            "max_util": self.summary.max,
            "min_util": self.summary.min,
            "argmax_cell": list(self.summary.argmax),
            "lifetime_years": null_if_unbounded(self.lifetime_years),
            "skipped_dfgs": [[i, name] for i, name in self.skipped_dfgs],
            "baseline_max_util": self.baseline_max_util,
            "proposed_max_util": self.proposed_max_util,
            "lifetime_improvement": null_if_unbounded(self.lifetime_improvement),
            "error": self.error,
        }

    def run_doc(self, policy: str) -> dict:
        """The `simulate --summary` document of a run under one policy."""
        return {
            "label": self.label,
            "num_cols": self.dims.num_cols,
            "num_rows": self.dims.num_rows,
            "policy": policy,
            "total_executions": self.total_executions,
            "skipped_dfgs": [[i, name] for i, name in self.skipped_dfgs],
            "lifetime_years": null_if_unbounded(self.lifetime_years),
            **self.summary.to_dict(),
        }

    def run_line(self, policy: str) -> str:
        """The line `simulate` prints."""
        s = self.summary
        return (f"{self.label} policy={policy} executions={self.total_executions} "
                f"avg={s.avg:.6f} max={s.max:.6f} min={s.min:.6f} "
                f"lifetime={text_or_unbounded(self.lifetime_years, '{:.2f}y')}")


def map_workload(
    workload: Workload, dims: FabricDims
) -> tuple[dict[int, VirtualConfiguration], list[tuple[int, str]]]:
    """Map every DFG once; DFGs that do not fit are skipped, not split.  One with more ops
    than cells is skipped before first fit."""
    mapped: dict[int, VirtualConfiguration] = {}
    for i, dfg in enumerate(workload.dfgs):
        try:
            if len(dfg.ops) <= dims.num_cells:  # placements never overlap: a cell per op
                mapped[i] = map_dfg(dfg, dims)
        except DoesNotFitError:
            pass
    return mapped, [(i, dfg.name) for i, dfg in enumerate(workload.dfgs) if i not in mapped]


def replay_trace(
    workload: Workload,
    mapped: dict[int, VirtualConfiguration],
    dims: FabricDims,
    policy: AllocationPolicy,
) -> UtilizationMap:
    """Replay the trace from execution 0, counting per-cell utilization.

    Skipped DFGs' entries are dropped.  Execution k lands on pivot_at(policy, k, dims), of
    period P = pivot_period(policy, dims).  With P = 1 a DFG's repeats are summed into one count
    at pivot 0.  Else a run is q full periods, adding q x placed cells to every cell after the
    fold, plus one or two ranges of leftover pivots.  A sparse DFG counts its leftover pivots in
    C and adds its placed cells once per pivot hit (only those are built).  A dense one packs
    its pivot histogram into an int of P 64-bit slots, added to a sum per placed cell offset.
    Both pay per placed cell: sparse one Python addition per pivot hit, dense one P-slot big-int
    addition.  The placed cells cancel, so a DFG goes dense when its leftover executions (which
    bound its pivots hit) reach P / t: t x leftover >= P, t = _DENSE_RATIO.  t = 8 is measured:
    in-process rotating replay of the benchmark's workloads (seeds 1 and 101, one Xeon core,
    best of 15) took dse_sweep's 9 fabrics from about 55 ms at t = 1 to 35-39 ms, level with
    t = 16, 32 and always dense, while map_heavy's 3 presets stayed at 35-39 ms (68-78 always
    dense) and replay_long's at 29-33 for every t.  A leftover is under P, so no slot exceeds
    len(trace) and no carry crosses slots (pack raises on a count >= 2^64).  Each sum is
    unpacked once, one slice per pivot row, onto a 2 x rows by 2 x cols grid folded onto the
    torus.  Cost: O(trace entries) + pivots hit (under P / t) x placed cells per sparse DFG +
    one pack per dense DFG, one big-int addition per placed cell and one unpack per distinct
    offset.  Memory: the 4 x cells grid + one 8P-byte int per distinct offset, at most
    8 x cells^2 bytes, reached by DFGs of P / t leftover executions.
    """
    period = pivot_period(policy, dims)
    runs: dict[int, list[range]] = defaultdict(list)  # DFG -> its leftover pivot numbers
    if period == 1:  # every execution is a full period, so trace order is irrelevant
        sums: dict[int, int] = defaultdict(int)
        for dfg_index, repeats in workload.trace:
            sums[dfg_index] += repeats
        full = {d: sums[d] for d in mapped if d in sums}  # skipped DFGs' sums are dropped
        total = sum(full.values())
    else:
        full, total = {}, 0  # DFG -> full periods run; executions so far
        for dfg_index, repeats in workload.trace:
            if dfg_index not in mapped:
                continue
            start = total % period
            total += repeats
            if repeats >= period:
                q, repeats = divmod(repeats, period)
                full[dfg_index] = full.get(dfg_index, 0) + q
            if repeats > period - start:  # the leftover wraps past the end of the period
                runs[dfg_index] += range(start, period), range(start + repeats - period)
            elif repeats:
                runs[dfg_index].append(range(start, start + repeats))

    num_cols, width, half = dims.num_cols, 2 * dims.num_cols, 2 * dims.num_cells
    grid = [0] * (2 * half)  # 2 x rows by 2 x cols, row-major: a shifted cell needs no modulo
    base = cache(lambda k: (p := pivot_at(policy, k, dims)).row * width + p.col)
    dense: dict[int, int] = {}  # cell offset -> dense DFGs' summed pivot histograms, packed
    uniform = 0  # added to every cell after the fold
    for d in full.keys() | runs.keys():
        offsets = [row * width + c for row, col, w in mapped[d].placements
                   for c in range(col, col + w)]
        if period == 1:  # every repeat is a full period, run at pivot 0
            per_pivot = {0: full[d]}
        else:  # a full period lands each placed cell once on every fabric cell
            uniform += full.get(d, 0) * len(offsets)
            if _DENSE_RATIO * sum(map(len, runs[d])) >= period:  # dense: a histogram of P
                diff = [0] * (period + 1)  # diff[P] only closes ranges
                for r in runs[d]:
                    diff[r.start] += 1
                    diff[r.stop] -= 1
                hist = int.from_bytes(pack(f"<{period}Q", *accumulate(diff[:period])), "little")
                for x in offsets:
                    dense[x] = dense.get(x, 0) + hist
                continue
            per_pivot = Counter(chain.from_iterable(runs[d]))
        for k, n in per_pivot.items():
            at = base(k)
            for x in offsets:
                grid[at + x] += n
    for x, n in dense.items():  # unpacked once, then one slice per pivot row
        counts = unpack(f"<{period}Q", n.to_bytes(8 * period, "little"))
        for k in range(0, period, num_cols):
            at = base(k) + x
            grid[at:at + num_cols] = map(add, grid[at:at + num_cols], counts[k:k + num_cols])
    rows = list(map(add, grid[:half], grid[half:]))  # fold the rows, then the columns
    return UtilizationMap(dims, [[n + uniform for n in map(add, rows[i:i + num_cols],
                                                           rows[i + num_cols:i + width])]
                                 for i in range(0, half, width)], total)


def run_scenario_with_map(
    dims: FabricDims,
    workload: Workload,
    aging_params: aging.AgingParams,
    policies: tuple[AllocationPolicy, ...] = _PAIR,
) -> tuple[ScenarioResult, UtilizationMap]:
    """Map once, replay under each policy, summarize the last run.

    Returns the result and the utilization map of the last run.  Every run
    starts at execution 0 and skips exactly the same DFGs, so all share the
    execution total T and the occupied mass, and the average matches exactly.
    With two policies the first is the baseline: its worst-cell count b is
    kept as an int, and the result carries baseline_max_util = b / T and
    lifetime_improvement = b / (the second run's worst-cell count).  Raises ValueError
    unless `policies` is one or two AllocationPolicy members.
    """
    if not 1 <= len(policies) <= 2 or not all(isinstance(p, AllocationPolicy) for p in policies):
        raise ValueError(f"policies must be one or two AllocationPolicy members, got {policies!r}")
    return _run_mapped(dims, workload, map_workload(workload, dims)[0], aging_params, policies)


def _run_mapped(dims: FabricDims, workload: Workload, mapped: dict[int, VirtualConfiguration],
                aging_params: aging.AgingParams, policies: tuple[AllocationPolicy, ...]
                ) -> tuple[ScenarioResult, UtilizationMap]:
    """run_scenario_with_map on the DFGs mapped on `dims`; the others are skipped."""
    if not mapped:
        raise EmptyScenarioError(f"{_label(dims)}: no DFG of the workload fits")
    worst: list[int] = []
    for policy in policies:
        umap = replay_trace(workload, mapped, dims, policy)
        if umap.total_executions == 0:
            raise EmptyScenarioError(f"{_label(dims)}: trace only references skipped DFGs")
        worst.append(max(map(max, umap.active_count)))
    base, prop = worst if len(worst) == 2 else (None, None)
    result = ScenarioResult(
        dims=dims,
        summary=summarize(umap),
        total_executions=umap.total_executions,
        lifetime_years=aging.lifetime(aging_params, Fraction(worst[-1], umap.total_executions)),
        skipped_dfgs=tuple((i, d.name) for i, d in enumerate(workload.dfgs) if i not in mapped),
        baseline_max_util=None if base is None else base / umap.total_executions,
        lifetime_improvement=None if base is None else (base / prop if prop else math.inf),
    )
    return result, umap


def sweep(
    col_values: list[int],
    row_values: list[int],
    workload: Workload,
    aging_params: aging.AgingParams,
) -> list[ScenarioResult]:
    """Paired comparison at every (cols, rows) point, ordered by (cols, rows).

    Each row count is mapped once, at the largest column count C: first fit
    scans columns left to right, so a DFG fits C' <= C columns exactly when its
    C-column ops all end by column C', with the same placements.  Scenario
    failures (nothing fits) become entries with an error; the sweep keeps going.
    """
    if not col_values or not row_values:
        raise ValueError("need at least one column count and one row count")
    grid = [FabricDims(num_cols=c, num_rows=r) for c, r in sorted(product(col_values, row_values))]
    results: dict[FabricDims, ScenarioResult] = {}  # a repeated point is run once
    for rows in sorted(set(row_values)):  # one row count's mapping is alive at a time
        mapped, _ = map_workload(workload, FabricDims(num_cols=max(col_values), num_rows=rows))
        ends = {i: max((c + w for _, c, w in vc.placements), default=0)
                for i, vc in mapped.items()}
        for cols in sorted(set(col_values)):
            dims = FabricDims(num_cols=cols, num_rows=rows)
            fits = {i: vc for i, vc in mapped.items() if ends[i] <= cols}
            try:
                results[dims] = _run_mapped(dims, workload, fits, aging_params, _PAIR)[0]
            except EmptyScenarioError as e:
                results[dims] = ScenarioResult(dims, error=str(e))
    return [results[dims] for dims in grid]


def results_table(results: list[ScenarioResult]) -> str:
    """Aligned text table over the paired-result columns."""
    headers = ["scenario", "avg_util", "baseline_worst", "proposed_worst", "lifetime_improv"]
    rows = [headers]
    for res in results:
        if res.error is not None:
            rows.append([res.label, "ERROR", res.error, "", ""])
            continue
        paired = ["", "", ""] if res.baseline_max_util is None else [
            f"{res.baseline_max_util:.4f}",
            f"{res.proposed_max_util:.4f}",
            text_or_unbounded(res.lifetime_improvement, "{:.2f}x"),
        ]
        rows.append([res.label, f"{res.summary.avg:.4f}", *paired])
    widths = [max(len(row[i]) for row in rows) for i in range(len(headers))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]
    return "\n".join(lines) + "\n"
