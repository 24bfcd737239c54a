"""Scenario runner and design-space exploration over fabric sizes and policies.

A scenario maps every DFG of a workload once, replays the trace under one or
more allocation policies, and reduces the last run's utilization to summary
statistics plus the projected lifetime of the worst-stressed cell.  Paired
runs compare the fixed-origin baseline against the rotating allocator on the
same workload and report the lifetime improvement, which equals the ratio of
the two worst-case utilizations.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import product, repeat

from . import aging
from .allocation import AllocationPolicy, PivotScheduler, allocate, pivot_for_execution
from .mapper import DoesNotFitError, FabricDims, VirtualConfiguration, map_dfg
from .metrics import UtilizationMap, UtilizationSummary, record_execution, summarize
from .workload import Workload


class EmptyScenarioError(Exception):
    """Every DFG of the workload was skipped; nothing to run."""


PRESETS: dict[str, FabricDims] = {
    "BE": FabricDims(num_cols=16, num_rows=2),
    "BP": FabricDims(num_cols=32, num_rows=4),
    "BU": FabricDims(num_cols=32, num_rows=8),
}


@dataclass(frozen=True)
class ScenarioResult:
    label: str
    num_cols: int
    num_rows: int
    total_executions: int
    avg_util: float
    max_util: float
    min_util: float
    argmax_cell: tuple[int, int]
    lifetime_years: float
    skipped_dfgs: tuple[tuple[int, str], ...] = ()
    baseline_max_util: float | None = None
    proposed_max_util: float | None = None
    lifetime_improvement: float | None = None
    error: str | None = None

    @classmethod
    def failed(cls, label: str, dims: FabricDims, error: str) -> "ScenarioResult":
        return cls(
            label=label,
            num_cols=dims.num_cols,
            num_rows=dims.num_rows,
            total_executions=0,
            avg_util=0.0,
            max_util=0.0,
            min_util=0.0,
            argmax_cell=(0, 0),
            lifetime_years=0.0,
            error=error,
        )

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "num_cols": self.num_cols,
            "num_rows": self.num_rows,
            "total_executions": self.total_executions,
            "avg_util": self.avg_util,
            "max_util": self.max_util,
            "min_util": self.min_util,
            "argmax_cell": list(self.argmax_cell),
            "lifetime_years": self.lifetime_years,
            "skipped_dfgs": [[i, name] for i, name in self.skipped_dfgs],
            "baseline_max_util": self.baseline_max_util,
            "proposed_max_util": self.proposed_max_util,
            "lifetime_improvement": self.lifetime_improvement,
            "error": self.error,
        }


def map_workload(
    workload: Workload, dims: FabricDims
) -> tuple[dict[int, VirtualConfiguration], list[tuple[int, str]]]:
    """Map every DFG once; DFGs that do not fit are skipped, not split."""
    mapped: dict[int, VirtualConfiguration] = {}
    skipped: list[tuple[int, str]] = []
    for i, dfg in enumerate(workload.dfgs):
        try:
            mapped[i] = map_dfg(dfg, dims)
        except DoesNotFitError:
            skipped.append((i, dfg.name))
    return mapped, skipped


def replay_trace(
    workload: Workload,
    mapped: dict[int, VirtualConfiguration],
    dims: FabricDims,
    policy: AllocationPolicy,
) -> UtilizationMap:
    """Replay the trace with a fresh pivot scheduler, recording utilization.

    Trace entries whose DFG was skipped are dropped entirely; the global
    pivot counter advances once per executed configuration.
    """
    scheduler = PivotScheduler(dims)
    umap = UtilizationMap(dims)
    for dfg_index, repeats in workload.trace:
        vc = mapped.get(dfg_index)
        if vc is None:
            continue
        for _ in range(repeats):
            pivot = pivot_for_execution(policy, scheduler)
            record_execution(umap, allocate(vc, pivot, dims))
    return umap


def run_scenario_with_map(
    dims: FabricDims,
    workload: Workload,
    aging_params: aging.AgingParams,
    policies: tuple[AllocationPolicy, ...] = (AllocationPolicy.FIXED_ORIGIN,
                                              AllocationPolicy.ROTATING),
) -> tuple[ScenarioResult, UtilizationMap]:
    """Map once, replay under each policy, summarize the last run.

    Returns the result and the utilization map of the last run.  With two
    policies the first is the baseline: its worst-case utilization is paired
    with the second's.  Every run uses a fresh scheduler and skips exactly the
    same DFGs, so average utilization matches between them.
    """
    label = f"L{dims.num_cols}W{dims.num_rows}"
    mapped, skipped = map_workload(workload, dims)
    if not mapped:
        raise EmptyScenarioError(f"{label}: no DFG of the workload fits {dims}")
    summaries: list[UtilizationSummary] = []
    for policy in policies:
        umap = replay_trace(workload, mapped, dims, policy)
        if umap.total_executions == 0:
            raise EmptyScenarioError(f"{label}: trace only references skipped DFGs")
        summaries.append(summarize(umap))
    last = summaries[-1]
    paired = {}
    if len(summaries) == 2:
        base = summaries[0].max
        paired = dict(
            baseline_max_util=base,
            proposed_max_util=last.max,
            lifetime_improvement=aging.lifetime_improvement(base, last.max),
        )
    result = ScenarioResult(
        label=label,
        num_cols=dims.num_cols,
        num_rows=dims.num_rows,
        total_executions=umap.total_executions,
        avg_util=last.avg,
        max_util=last.max,
        min_util=last.min,
        argmax_cell=last.argmax,
        lifetime_years=aging.lifetime(aging_params, last.max),
        skipped_dfgs=tuple(skipped),
        **paired,
    )
    return result, umap


def _sweep_point(dims: FabricDims, workload: Workload,
                 aging_params: aging.AgingParams) -> ScenarioResult:
    try:
        return run_scenario_with_map(dims, workload, aging_params)[0]
    except EmptyScenarioError as e:
        return ScenarioResult.failed(f"L{dims.num_cols}W{dims.num_rows}", dims, str(e))


def sweep(
    col_values: list[int],
    row_values: list[int],
    workload: Workload,
    aging_params: aging.AgingParams,
    jobs: int = 1,
) -> list[ScenarioResult]:
    """Paired comparison at every (cols, rows) point, ordered by (cols, rows).

    Scenario failures (nothing fits) become failed entries; the sweep keeps
    going.  Points are independent, so jobs > 1 fans them out to at most
    that many worker processes without changing the results or their order.
    """
    if not col_values or not row_values:
        raise ValueError("need at least one column count and one row count")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    grid = [FabricDims(num_cols=c, num_rows=r)
            for c, r in sorted(product(col_values, row_values))]
    workers = min(jobs, len(grid))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_sweep_point, grid, repeat(workload), repeat(aging_params)))
    return [_sweep_point(dims, workload, aging_params) for dims in grid]


def results_table(results: list[ScenarioResult]) -> str:
    """Aligned text table over the paired-result columns."""
    headers = ["scenario", "avg_util", "baseline_worst", "proposed_worst", "lifetime_improv"]
    rows = [headers]
    for res in results:
        if res.error is not None:
            rows.append([res.label, "ERROR", res.error, "", ""])
            continue
        rows.append([
            res.label,
            f"{res.avg_util:.4f}",
            "" if res.baseline_max_util is None else f"{res.baseline_max_util:.4f}",
            "" if res.proposed_max_util is None else f"{res.proposed_max_util:.4f}",
            "" if res.lifetime_improvement is None else f"{res.lifetime_improvement:.2f}x",
        ])
    widths = [max(len(row[i]) for row in rows) for i in range(len(headers))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]
    return "\n".join(lines) + "\n"
