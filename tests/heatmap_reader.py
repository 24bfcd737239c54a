"""Reader for the `simulate --heatmap` CSV, the inverse of `metrics.export_heatmap`.

Only tests read heatmaps back, so the reader lives here.
"""

from cgralloc.mapper import FabricDims


def parse_heatmap(text: str) -> tuple[list[list[float]], FabricDims, int]:
    """Rates (rounded to 6 decimals, as written), fabric dims and execution count."""
    lines = [ln for ln in text.splitlines() if ln]
    if not lines or not lines[0].startswith("#"):
        raise ValueError("missing heatmap header")
    fields = dict(part.split("=") for part in lines[0][1:].split(","))
    num_rows, num_cols = int(fields["rows"]), int(fields["cols"])
    executions = int(fields["executions"])
    rows = [[float(tok) for tok in ln.split(",")] for ln in lines[1:]]
    if len(rows) != num_rows or any(len(row) != num_cols for row in rows):
        raise ValueError("heatmap body does not match header dimensions")
    return rows, FabricDims(num_cols=num_cols, num_rows=num_rows), executions
