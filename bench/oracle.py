"""Independent oracles for the benchmark's correctness checks.

Nothing here imports cgralloc.  Every expected value is rebuilt from the
generated workload file and the documented semantics (README file formats,
the mapper's first-fit rule, the pivot counter k mod L*W visited
column-fastest, 32-bit wrapping ALU ops, column-ordered memory visibility),
so a defect in the program cannot also hide in its own check.
"""

from __future__ import annotations

import heapq
import json
import math
from collections import Counter

WORD_MASK = 0xFFFFFFFF
MEMORY_OPS = ("load", "store")
REF_LIFETIME_YEARS = 3.0  # cgralloc's default --ref-lifetime at utilization 1.0
HEATMAP_TOLERANCE = 0.5e-6 + 1e-12  # 6-decimal rounding
REL_TOL = 1e-9


class Checker:
    """Counts attempted checks and records the ones that fail."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)
        return ok


def load_workload(path) -> dict:
    with open(path, encoding="utf-8") as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# Mapping: greedy first-fit, restated from the mapper's documented rule
# ---------------------------------------------------------------------------

def _producers(op: dict) -> list[int]:
    return [s["index"] for s in op["srcs"] if s["kind"] == "op"]


def _topological(ops: list[dict]) -> list[int]:
    consumers: dict[int, list[int]] = {i: [] for i in range(len(ops))}
    indegree = []
    for op in ops:
        prods = set(_producers(op))
        indegree.append(len(prods))
        for p in prods:
            consumers[p].append(op["id"])
    ready = [i for i, deg in enumerate(indegree) if deg == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        node = heapq.heappop(ready)
        order.append(node)
        for c in consumers[node]:
            indegree[c] -= 1
            if indegree[c] == 0:
                heapq.heappush(ready, c)
    return order


def place(dfg: dict, cols: int, rows: int) -> list[tuple[int, int, int]] | None:
    """Per op id, (row, col_start, width); None when some op has no spot."""
    ops = dfg["ops"]
    free = [[True] * cols for _ in range(rows)]
    begun = {"load": set(), "store": set()}
    placed: dict[int, tuple[int, int, int]] = {}
    for op_id in _topological(ops):
        opcode = ops[op_id]["opcode"]
        width = 4 if opcode in MEMORY_OPS else 1
        earliest = max((placed[p][1] + placed[p][2] for p in _producers(ops[op_id])), default=0)
        spot = None
        for col in range(earliest, cols - width + 1):
            if col in begun.get(opcode, ()):
                continue
            row = next((r for r in range(rows) if all(free[r][col:col + width])), None)
            if row is not None:
                spot = (row, col)
                break
        if spot is None:
            return None
        row, col = spot
        free[row][col:col + width] = [False] * width
        if opcode in begun:
            begun[opcode].add(col)
        placed[op_id] = (row, col, width)
    return [placed[i] for i in range(len(ops))]


def place_all(workload: dict, cols: int, rows: int) -> list[list[tuple[int, int, int]] | None]:
    return [place(d, cols, rows) for d in workload["dfgs"]]


def cells_of(placement: list[tuple[int, int, int]]) -> list[tuple[int, int]]:
    return [(row, c) for row, col, width in placement for c in range(col, col + width)]


# ---------------------------------------------------------------------------
# Replay: per-cell activity counts under either policy
# ---------------------------------------------------------------------------

def count_grid(workload: dict, placements: list, skipped: set[int], cols: int, rows: int,
               rotating: bool) -> tuple[list[list[int]], int]:
    """Activity counts per cell and the number of executions replayed.

    Trace entries of skipped DFGs are dropped and do not advance the pivot
    counter.  Under rotation, DFG d's k-th..(k+reps-1)-th executions land on
    pivots k mod P onwards (P = cols*rows); whole cycles of P executions put
    exactly |mask| hits on every cell, so only the remainder is walked.
    """
    num_pivots = cols * rows
    counts = [[0] * cols for _ in range(rows)]
    per_pivot: dict[int, Counter] = {}
    full_cycles: Counter = Counter()
    k = 0
    for d, reps in workload["trace"]:
        if d in skipped:
            continue
        if not rotating:
            per_pivot.setdefault(d, Counter())[0] += reps
        else:
            cycles, rem = divmod(reps, num_pivots)
            full_cycles[d] += cycles
            hist = per_pivot.setdefault(d, Counter())
            for j in range(rem):
                hist[(k + j) % num_pivots] += 1
        k += reps
    for d, hist in per_pivot.items():
        if placements[d] is None:
            raise ValueError(f"dfg {d} was not skipped but has no first-fit placement")
        cells = cells_of(placements[d])
        for p, n in hist.items():
            pr, pc = p // cols, p % cols
            for r, c in cells:
                counts[(r + pr) % rows][(c + pc) % cols] += n
        if full_cycles[d]:
            bump = full_cycles[d] * len(cells)
            for row in counts:
                for c in range(cols):
                    row[c] += bump
    return counts, k


def mapped_cell_executions(workload: dict, placements: list, skipped: set[int]) -> int:
    """Sum over replayed trace entries of repeats x occupied cells."""
    return sum(reps * len(cells_of(placements[d]))
               for d, reps in workload["trace"] if d not in skipped)


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-15)


def grid_stats(counts: list[list[int]], executions: int, bins: int = 20) -> dict:
    rates = [(n / executions, r, c) for r, row in enumerate(counts) for c, n in enumerate(row)]
    top = max(rate for rate, _, _ in rates)
    argmax = next([r, c] for rate, r, c in rates if rate == top)
    hist = [0] * bins
    for rate, _, _ in rates:
        hist[min(int(rate * bins), bins - 1)] += 1
    return {"max": top, "min": min(rate for rate, _, _ in rates), "argmax": argmax, "histogram": hist}


def check_summary(ck: Checker, tag: str, doc: dict, workload: dict, placements: list,
                  rotating: bool) -> None:
    """Summary JSON of one simulate command against the oracle grid."""
    cols, rows = doc["num_cols"], doc["num_rows"]
    skipped = {i for i, _ in doc["skipped_dfgs"]}
    try:
        counts, n = count_grid(workload, placements, skipped, cols, rows, rotating)
    except ValueError as e:
        ck.check(f"{tag}: oracle grid", False, str(e))
        return
    want = grid_stats(counts, n, doc["num_bins"])
    ck.check(f"{tag}: total_executions", doc["total_executions"] == n,
             f"{doc['total_executions']} != {n}")
    ck.check(f"{tag}: max/min/argmax",
             _close(doc["max"], want["max"]) and _close(doc["min"], want["min"])
             and doc["argmax"] == want["argmax"],
             f"got {doc['max']}/{doc['min']}/{doc['argmax']}, want "
             f"{want['max']}/{want['min']}/{want['argmax']}")
    ck.check(f"{tag}: histogram", doc["histogram"] == want["histogram"])
    mass = mapped_cell_executions(workload, placements, skipped)
    ck.check(f"{tag}: conservation", _close(doc["avg"] * cols * rows * n, mass),
             f"avg*cells*executions={doc['avg'] * cols * rows * n} != {mass}")
    ck.check(f"{tag}: lifetime", _close(doc["lifetime_years"], REF_LIFETIME_YEARS / doc["max"]),
             f"{doc['lifetime_years']} != {REF_LIFETIME_YEARS}/{doc['max']}")


def check_heatmap(ck: Checker, tag: str, text: str, workload: dict, placements: list,
                  skipped: set[int], cols: int, rows: int, rotating: bool) -> None:
    """Heatmap CSV against the oracle grid, cell by cell."""
    try:
        counts, n = count_grid(workload, placements, skipped, cols, rows, rotating)
    except ValueError as e:
        ck.check(f"{tag}: oracle grid", False, str(e))
        return
    lines = text.splitlines()
    header = f"#rows={rows},cols={cols},executions={n}"
    if not ck.check(f"{tag}: heatmap header", lines[:1] == [header], f"{lines[:1]} != {header}"):
        return
    body = [[float(tok) for tok in line.split(",")] for line in lines[1:]]
    bad = [(r, c) for r in range(rows) for c in range(cols)
           if len(body) != rows or len(body[r]) != cols
           or abs(body[r][c] - counts[r][c] / n) > HEATMAP_TOLERANCE]
    ck.check(f"{tag}: heatmap cells", not bad, f"{len(bad)} cell(s) off, first {bad[:1]}")


def check_map_dump(ck: Checker, tag: str, rc: int, stdout: str, stderr: str,
                   workload: dict, placements: list) -> None:
    """`map --dump` placements, misfit report and exit code against first-fit."""
    dumped: dict[int, list[tuple[int, int, int, int]]] = {}
    current = None
    for line in stdout.splitlines():
        if line.startswith("dfg "):
            current = int(line.split()[1])
            dumped[current] = []
        else:
            dumped[current].append(tuple(int(t) for t in line.strip("()").split(",")))
    misfits = {int(line.split()[1]) for line in stderr.splitlines() if line.startswith("dfg ")}
    want_misfits = {i for i, p in enumerate(placements) if p is None}
    ck.check(f"{tag}: exit code", rc == (4 if misfits else 0), f"rc={rc}, {len(misfits)} misfit(s)")
    ck.check(f"{tag}: coverage",
             set(dumped) | misfits == set(range(len(placements))) and not set(dumped) & misfits
             and want_misfits <= misfits,
             f"{len(dumped)} dumped, {len(misfits)} misfit(s), oracle {len(want_misfits)}")
    wrong = [i for i, got in dumped.items()
             if placements[i] is None
             or got != [(op, *p) for op, p in enumerate(placements[i])]]
    ck.check(f"{tag}: placements", not wrong, f"{len(wrong)} DFG(s) differ, first {wrong[:1]}")


def check_dse(ck: Checker, records: list[dict], workload: dict, cols_values: list[int],
              rows_values: list[int]) -> None:
    """DSE JSON: one paired record per (cols, rows), each against both grids."""
    shapes = sorted((c, r) for c in cols_values for r in rows_values)
    ck.check("dse: points", [(d["num_cols"], d["num_rows"]) for d in records] == shapes)
    for doc in records:
        tag = f"dse {doc['label']}"
        if not ck.check(f"{tag}: error", doc["error"] is None, str(doc["error"])):
            continue
        cols, rows = doc["num_cols"], doc["num_rows"]
        placements = place_all(workload, cols, rows)
        skipped = {i for i, _ in doc["skipped_dfgs"]}
        try:
            fixed, n = count_grid(workload, placements, skipped, cols, rows, False)
            rot, _ = count_grid(workload, placements, skipped, cols, rows, True)
        except ValueError as e:
            ck.check(f"{tag}: oracle grid", False, str(e))
            continue
        base_max = max(map(max, fixed)) / n
        prop_max = max(map(max, rot)) / n
        ck.check(f"{tag}: executions", doc["total_executions"] == n)
        ck.check(f"{tag}: baseline/proposed max",
                 _close(doc["baseline_max_util"], base_max)
                 and _close(doc["proposed_max_util"], prop_max)
                 and _close(doc["max_util"], prop_max),
                 f"got {doc['baseline_max_util']}/{doc['proposed_max_util']}, "
                 f"want {base_max}/{prop_max}")
        ck.check(f"{tag}: conservation",
                 _close(doc["avg_util"] * cols * rows * n,
                        mapped_cell_executions(workload, placements, skipped)))
        ck.check(f"{tag}: lifetime_improvement",
                 _close(doc["lifetime_improvement"],
                        doc["baseline_max_util"] / doc["proposed_max_util"]),
                 f"{doc['lifetime_improvement']} != "
                 f"{doc['baseline_max_util']}/{doc['proposed_max_util']}")


# ---------------------------------------------------------------------------
# Execution: logical-order evaluation of a placed DFG
# ---------------------------------------------------------------------------

def _signed(v: int) -> int:
    return v - (1 << 32) if v & 0x80000000 else v


ALU = {
    "add": lambda a, b: (a + b) & WORD_MASK,
    "sub": lambda a, b: (a - b) & WORD_MASK,
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "shl": lambda a, b: (a << (b & 31)) & WORD_MASK,
    "shr": lambda a, b: a >> (b & 31),
    "cmplt": lambda a, b: int(_signed(a) < _signed(b)),
}


def evaluate(dfg: dict, placement: list[tuple[int, int, int]], inputs: list[int],
             memory: dict[int, int]) -> tuple[tuple[int, ...], dict[int, int]]:
    """Outputs and final nonzero memory of one execution.

    Ops run in (start column, id) order; a store becomes visible at its
    completion boundary, so a load sees it iff the store completes at or
    before the load's start column.
    """
    ops = dfg["ops"]
    mem = {a & WORD_MASK: w & WORD_MASK for a, w in memory.items() if w & WORD_MASK}
    words = [v & WORD_MASK for v in inputs]
    values: dict[int, int] = {}

    def value(ref: dict) -> int:
        return words[ref["index"]] if ref["kind"] == "input" else values[ref["index"]]

    def publish(upto: int) -> None:
        while pending and pending[0][0] <= upto:
            _, _, addr, word = heapq.heappop(pending)
            if word:
                mem[addr] = word
            else:
                mem.pop(addr, None)

    pending: list[tuple[int, int, int, int]] = []
    for seq, op_id in enumerate(sorted(range(len(ops)), key=lambda i: (placement[i][1], i))):
        op = ops[op_id]
        _, start, width = placement[op_id]
        publish(start)
        srcs = [value(s) for s in op["srcs"]]
        if op["opcode"] == "load":
            values[op_id] = mem.get(srcs[0] & WORD_MASK, 0)
        elif op["opcode"] == "store":
            heapq.heappush(pending, (start + width, seq, srcs[0] & WORD_MASK, srcs[1] & WORD_MASK))
        else:
            values[op_id] = ALU[op["opcode"]](srcs[0], srcs[1])
    publish(math.inf)
    return tuple(value(ref) for ref in dfg["outputs"]), mem


def check_fabric(ck: Checker, tag: str, dfg: dict, placement: list[tuple[int, int, int]],
                 inputs: list[int], memory: dict[int, int], variants: dict[tuple, list[int]],
                 violations: dict[int, list[str]]) -> None:
    """Every pivot's (outputs, memory) equals the logical-order oracle; no violations.

    `variants` maps each distinct (outputs, sorted memory items) result to
    the pivot indices that produced it.
    """
    outputs, mem = evaluate(dfg, placement, inputs, memory)
    want = (outputs, tuple(sorted(mem.items())))
    wrong = sorted(k for got, pivots in variants.items() if got != want for k in pivots)
    ck.check(f"{tag}: outputs and memory", not wrong,
             f"{len(wrong)} pivot(s) differ from the logical-order oracle, first {wrong[:1]}")
    ck.check(f"{tag}: legality", not violations,
             f"{len(violations)} pivot(s) with violations, first {next(iter(violations.values()), '')}")
