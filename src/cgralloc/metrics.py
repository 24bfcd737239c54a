"""Per-cell utilization accounting across configuration executions.

Utilization of a cell is the fraction of executions in which the cell was
occupied, irrespective of how long each configuration runs.  Replay keeps
integer counts; every reported number is one division of those integers,
which Python rounds correctly, so it is the float nearest its exact value.
Rotation moves occupancy without changing its total, so the average comes
out bit-identical under every policy.
"""

from __future__ import annotations

from typing import NamedTuple

from .mapper import FabricDims

HISTOGRAM_BINS = 20  # uniform bins over [0, 1]


class UtilizationMap(NamedTuple):
    """Per-cell occupied counts (row-major) of one run of total_executions executions."""

    dims: FabricDims
    active_count: list[list[int]]
    total_executions: int


class UtilizationSummary(NamedTuple):
    avg: float
    max: float
    min: float
    argmax: tuple[int, int]
    histogram: tuple[int, ...]  # HISTOGRAM_BINS counts

    def to_dict(self) -> dict:
        return {**self._asdict(), "argmax": list(self.argmax), "histogram": list(self.histogram),
                "num_bins": HISTOGRAM_BINS}


def summarize(m: UtilizationMap) -> UtilizationSummary:
    """Average, extremes, argmax and histogram of the rates n / T, from the counts.

    Argmax ties break by (row, col) lexicographic order.  Histogram bins are
    uniform over [0, 1]; the last bin is closed so a rate of 1.0 lands in it.
    """
    total = m.total_executions
    flat = [n for row in m.active_count for n in row]
    top = max(flat)
    hist = [0] * HISTOGRAM_BINS
    for n in flat:
        hist[min(HISTOGRAM_BINS * n // total, HISTOGRAM_BINS - 1)] += 1
    return UtilizationSummary(
        avg=sum(flat) / (len(flat) * total),
        max=top / total,
        min=min(flat) / total,
        argmax=divmod(flat.index(top), m.dims.num_cols),
        histogram=tuple(hist),
    )


def export_heatmap(m: UtilizationMap) -> str:
    """CSV heatmap: header, then one line of 6-decimal fractions n / T per row."""
    total = m.total_executions
    lines = [f"#rows={m.dims.num_rows},cols={m.dims.num_cols},executions={total}"]
    lines.extend(",".join(f"{n / total:.6f}" for n in row) for row in m.active_count)
    return "\n".join(lines) + "\n"
