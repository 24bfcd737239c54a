"""Per-cell utilization accounting across configuration executions.

Utilization of a cell is the fraction of executions in which the cell was
occupied, irrespective of how long each configuration runs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .mapper import FabricDims

HISTOGRAM_BINS = 20  # uniform bins over [0, 1]


class EmptyMapError(ValueError):
    """Rates requested from a map that recorded no executions."""


class UtilizationMap:
    """Mutable per-cell activity counters; one instance per scenario run."""

    def __init__(self, dims: FabricDims):
        self.dims = dims
        self.active_count: list[list[int]] = [
            [0] * dims.num_cols for _ in range(dims.num_rows)
        ]
        self.total_executions = 0


def utilization_rates(m: UtilizationMap) -> list[list[float]]:
    """Per-cell occupancy fraction over everything recorded so far."""
    if m.total_executions == 0:
        raise EmptyMapError("no executions recorded")
    total = m.total_executions
    return [[count / total for count in row] for row in m.active_count]


@dataclass(frozen=True)
class UtilizationSummary:
    avg: float
    max: float
    min: float
    argmax: tuple[int, int]
    histogram: tuple[int, ...]  # HISTOGRAM_BINS counts

    def to_dict(self) -> dict:
        return {
            "avg": self.avg,
            "max": self.max,
            "min": self.min,
            "argmax": list(self.argmax),
            "histogram": list(self.histogram),
            "num_bins": HISTOGRAM_BINS,
        }


def summarize(m: UtilizationMap) -> UtilizationSummary:
    """Aggregate rates: average, extremes, argmax, fixed-width histogram.

    Argmax ties break by (row, col) lexicographic order.  Histogram bins are
    uniform over [0, 1]; the last bin is closed so a rate of 1.0 lands in it.
    """
    rates = utilization_rates(m)
    flat = [(rate, r, c) for r, row in enumerate(rates) for c, rate in enumerate(row)]
    best_rate, best_r, best_c = flat[0]
    worst = flat[0][0]
    hist = [0] * HISTOGRAM_BINS
    # a left-to-right running sum: sum() of floats rounds differently from Python 3.12 on
    total = 0.0
    for rate, r, c in flat:
        total += rate
        if rate > best_rate:
            best_rate, best_r, best_c = rate, r, c
        if rate < worst:
            worst = rate
        hist[min(int(rate * HISTOGRAM_BINS), HISTOGRAM_BINS - 1)] += 1
    return UtilizationSummary(
        avg=total / len(flat),
        max=best_rate,
        min=worst,
        argmax=(best_r, best_c),
        histogram=tuple(hist),
    )


def export_heatmap(m: UtilizationMap) -> str:
    """CSV heatmap: header, then one line of 6-decimal fractions per row."""
    lines = [f"#rows={m.dims.num_rows},cols={m.dims.num_cols},executions={m.total_executions}"]
    lines.extend(",".join(f"{rate:.6f}" for rate in row) for row in utilization_rates(m))
    return "\n".join(lines) + "\n"
