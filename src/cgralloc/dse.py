"""Scenario runner and design-space exploration over fabric sizes and policies.

A scenario maps every DFG of a workload once, replays the trace under one or
more allocation policies, and reduces the last run's utilization to summary
statistics plus the projected lifetime of the worst-stressed cell.  Paired
runs compare the fixed-origin baseline against the rotating allocator on the
same workload and report the lifetime improvement, which equals the ratio of
the two worst-case utilizations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

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

_NOTHING_RUN = UtilizationSummary(avg=0.0, max=0.0, min=0.0, argmax=(0, 0), histogram=())


def _label(dims: FabricDims) -> str:
    return f"L{dims.num_cols}W{dims.num_rows}"


def null_if_unbounded(x: float | None) -> float | None:
    """JSON has no infinity: an unbounded lifetime or improvement is written as null."""
    return None if x == math.inf else x


def text_or_unbounded(x: float, fmt: str) -> str:
    """Text form of a lifetime or improvement; infinity reads `unbounded`."""
    return "unbounded" if x == math.inf else fmt.format(x)


@dataclass(frozen=True)
class ScenarioResult:
    """One fabric point: the last run's summary, paired with a baseline's worst cell."""

    dims: FabricDims
    summary: UtilizationSummary = _NOTHING_RUN
    total_executions: int = 0
    lifetime_years: float = 0.0
    skipped_dfgs: tuple[tuple[int, str], ...] = ()
    baseline_max_util: float | None = None
    error: str | None = None

    @classmethod
    def failed(cls, dims: FabricDims, error: str) -> "ScenarioResult":
        return cls(dims=dims, error=error)

    @property
    def label(self) -> str:
        return _label(self.dims)

    @property
    def proposed_max_util(self) -> float | None:
        return None if self.baseline_max_util is None else self.summary.max

    @property
    def lifetime_improvement(self) -> float | None:
        if self.baseline_max_util is None:
            return None
        return aging.lifetime_improvement(self.baseline_max_util, self.summary.max)

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
    """Replay the trace from execution 0, counting per-cell utilization.

    Trace entries whose DFG was skipped are dropped entirely; the execution
    counter advances once per executed configuration.  Execution k lands on
    pivot_at(policy, k, dims), which repeats with period P = pivot_period(
    policy, dims), so only the pivots below P that the trace hits are built.
    A run of `repeats` executions starting at k puts ceil((repeats - i) / P)
    of them on pivot number (k + i) mod P for each i < P.  Executions are
    counted per (DFG, pivot); each DFG's occupancy is then added once per
    pivot it landed on, so the cost is bounded by DFGs x min(executions, P) x
    cells, whatever the repeat counts.
    """
    period = pivot_period(policy, dims)
    hits: dict[int, dict[int, int]] = {}
    umap = UtilizationMap(dims)
    for dfg_index, repeats in workload.trace:
        if dfg_index not in mapped:
            continue
        start = umap.total_executions
        per_pivot = hits.setdefault(dfg_index, {})
        for i in range(min(repeats, period)):
            k = (start + i) % period
            per_pivot[k] = per_pivot.get(k, 0) + (repeats - i - 1) // period + 1
        umap.total_executions += repeats
    counts = umap.active_count
    num_rows, num_cols = dims.num_rows, dims.num_cols
    pivots = {k: pivot_at(policy, k, dims) for k in set().union(*hits.values())}
    for dfg_index, per_pivot in hits.items():
        cells = mapped[dfg_index].occupied_cells
        for k, n in per_pivot.items():
            pivot_row, pivot_col = pivots[k].row, pivots[k].col  # torus shift, as in allocate
            for row, col in cells:
                counts[(row + pivot_row) % num_rows][(col + pivot_col) % num_cols] += n
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
    with the second's.  Every run starts at execution 0 and skips exactly the
    same DFGs, so average utilization matches between them.
    """
    mapped, skipped = map_workload(workload, dims)
    if not mapped:
        raise EmptyScenarioError(f"{_label(dims)}: no DFG of the workload fits")
    worst: list[float] = []
    for policy in policies:
        umap = replay_trace(workload, mapped, dims, policy)
        if umap.total_executions == 0:
            raise EmptyScenarioError(f"{_label(dims)}: trace only references skipped DFGs")
        summary = summarize(umap)
        worst.append(summary.max)
    result = ScenarioResult(
        dims=dims,
        summary=summary,
        total_executions=umap.total_executions,
        lifetime_years=aging.lifetime(aging_params, summary.max),
        skipped_dfgs=tuple(skipped),
        baseline_max_util=worst[0] if len(worst) == 2 else None,
    )
    return result, umap


def sweep(
    col_values: list[int],
    row_values: list[int],
    workload: Workload,
    aging_params: aging.AgingParams,
) -> list[ScenarioResult]:
    """Paired comparison at every (cols, rows) point, ordered by (cols, rows).

    Scenario failures (nothing fits) become failed entries; the sweep keeps
    going.
    """
    if not col_values or not row_values:
        raise ValueError("need at least one column count and one row count")
    grid = [FabricDims(num_cols=c, num_rows=r)
            for c, r in sorted(product(col_values, row_values))]
    results = []
    for dims in grid:
        try:
            results.append(run_scenario_with_map(dims, workload, aging_params)[0])
        except EmptyScenarioError as e:
            results.append(ScenarioResult.failed(dims, str(e)))
    return results


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
