"""Functional fabric model: datapath execution and reconfiguration plans.

Execution fidelity is functional-with-column-ordering: values flow left to
right, ops read their operands at their starting column and publish results
at their completion boundary.  Crossbar wiring, context-register timing and
electrical behaviour are below this model's abstraction level.

The reconfiguration plan captures how a pivoted configuration is loaded:
which configuration line each physical column listens to, the vertical
barrel-shift applied to its bits, and where the wrap-around feedback mux is
engaged.  Loading always takes ceil(num_cols / num_config_lines) cycles, so
moving a configuration costs no extra reconfiguration time.
"""

from __future__ import annotations

import operator
from functools import cache, partial
from itertools import compress
from typing import NamedTuple

from .allocation import PhysicalAllocation, Pivot, check_pivot
from .mapper import FabricDims, VirtualConfiguration
from .workload import WORD_MASK


class ReconfigPlan(NamedTuple):
    """Per-physical-column wiring to realize a pivoted load.

    With pivot (0, 0) this degenerates to the baseline wiring: column i
    listens to line i mod n, no vertical shift, no wrap feedback.
    """

    line_select: tuple[int, ...]
    barrel_shift_rows: tuple[int, ...]
    wrap_feedback_enabled: tuple[bool, ...]
    reconfig_cycles: int


def reconfig_plan(pivot: Pivot, dims: FabricDims) -> ReconfigPlan:
    """Wiring for loading a configuration shifted by `pivot`.

    Physical column pc hosts logical column (pc - pivot.col) mod num_cols, so
    it selects that column's configuration line; every column shifts its bits
    down by pivot.row; the column hosting logical column 0 takes the initial
    input context through the feedback mux whenever the start column moved.
    Line select and wrap mux are slices of two 2 x num_cols tables, built once per fabric size.
    """
    row, col = check_pivot(pivot, dims)
    num_cols, n = dims.num_cols, dims.num_config_lines
    lines, wrap = _plan_tables(num_cols, n)
    start = -col % num_cols  # physical column pc hosts logical column start + pc mod num_cols
    return _plan((lines[start:start + num_cols], (row,) * num_cols,
                  wrap[start:start + num_cols], -(-num_cols // n)))


def plan_table(plan: ReconfigPlan) -> str:
    """Render a plan as an aligned text table, one row per physical column."""
    line_select, shifts, wrap_on, cycles = plan
    lines = [f"reconfig_cycles={cycles}", "column  line_select  shift  wrap"]
    for pc, (sel, shift, wrap) in enumerate(zip(line_select, shifts, wrap_on)):
        lines.append(f"{pc:<6}  {sel:<11}  {shift:<5}  {'yes' if wrap else 'no'}")
    return "\n".join(lines) + "\n"


class MemoryModel:
    """Sparse 32-bit word store standing in for the data cache.

    Reads of unwritten addresses return 0, so an explicit zero write is
    indistinguishable from no write; equality compares nonzero content only.
    """

    __slots__ = ("_words",)

    def __init__(self, initial: dict[int, int] | None = None):
        self._words: dict[int, int] = {}
        for addr, word in (initial or {}).items():
            self.write(addr, word)

    def read(self, addr: int) -> int:
        return self._words.get(addr & WORD_MASK, 0)

    def write(self, addr: int, word: int) -> None:
        addr &= WORD_MASK
        if word := word & WORD_MASK:
            self._words[addr] = word
        else:
            self._words.pop(addr, None)

    def copy(self) -> "MemoryModel":
        clone = MemoryModel.__new__(MemoryModel)  # skips __init__
        clone._words = self._words.copy()
        return clone

    def as_dict(self) -> dict[int, int]:
        return dict(self._words)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MemoryModel):
            return NotImplemented
        return self._words == other._words


class ExecResult(NamedTuple):
    outputs: tuple[int, ...]
    memory: MemoryModel


_plan = partial(tuple.__new__, ReconfigPlan)  # build the records in C
_exec_result = partial(tuple.__new__, ExecResult)
_plan_tables = cache(lambda C, n: (tuple([c % n for c in range(C)]) * 2,
                                   (False,) * C + (True,) + (False,) * (C - 1)))


_ALU = {
    "add": lambda a, b: (a + b) & WORD_MASK,
    "sub": lambda a, b: (a - b) & WORD_MASK,
    "and": operator.and_,
    "or": operator.or_,
    "xor": operator.xor,
    "shl": lambda a, b: (a << (b & 31)) & WORD_MASK,
    "shr": lambda a, b: a >> (b & 31),  # logical: words are never negative
    # flipping the sign bit orders two's-complement words as unsigned ones
    "cmplt": lambda a, b: int((a ^ 0x80000000) < (b ^ 0x80000000)),
}


def execute(
    vc: VirtualConfiguration,
    pivot: Pivot,
    inputs: list[int],
    mem: MemoryModel,
    dims: FabricDims,
) -> ExecResult:
    """Run one configuration; mutates and returns `mem` as the final state.

    The pivot is only checked to name a cell.  A torus translation keeps every op's
    column relative to the start column, so the result cannot depend on it;
    check_physical_legality is the check that can fail for a moved load.

    Ops run in `vc.schedule` order, so a load sees a store iff the store
    completes at or before the load's start.  A store's operands are resolved
    where it writes: values are assigned once, and every producer completes
    by the store's start.
    """
    dfg = vc.dfg
    if len(inputs) != dfg.num_inputs:
        raise ValueError(f"expected {dfg.num_inputs} inputs, got {len(inputs)}")
    check_pivot(pivot, dims)

    words = [v & WORD_MASK for v in inputs]
    values: dict[int, int] = {}
    ops = dfg.ops
    for op_id in vc.schedule:
        opcode, sources = ops[op_id]
        s = sources[0]
        a = words[~s] if s < 0 else values[s]
        if opcode == "load":
            values[op_id] = mem.read(a)
            continue
        s = sources[1]
        b = words[~s] if s < 0 else values[s]
        if opcode == "store":
            mem.write(a, b)
        else:
            values[op_id] = _ALU[opcode](a, b)

    return _exec_result((tuple([words[~s] if s < 0 else values[s] for s in dfg.outputs]), mem))


def check_physical_legality(
    alloc: PhysicalAllocation, plan: ReconfigPlan, dims: FabricDims
) -> list[str]:
    """Verify an allocation is realizable under a plan (empty list = ok).

    A plan for another fabric width is one violation naming both widths.
    Otherwise this checks that the cell map holds one entry per op, cell_map[k] as wide as
    op k, with no cell twice; that every placed cell's column bits are reachable (the plan's
    line select and barrel shift reproduce the logical column contents at the physical
    location); and that the wrap feedback mux is engaged exactly at the start column when the
    pivot moved it, so any dependency crossing the physical right edge has a path.
    """
    num_rows, num_cols, n = dims.num_rows, dims.num_cols, dims.num_config_lines
    line_select, shifts, wrap, _ = plan
    for per_column in line_select, shifts, wrap:
        if len(per_column) != num_cols:
            return [f"plan covers {len(per_column)} columns, fabric has {num_cols}"]

    violations: list[str] = []
    cell_map, placements = alloc.cell_map, alloc.vc.placements
    logical_cells: set[tuple[int, int]] = set()
    physical_cells: list[tuple[int, int]] = []
    for op_id, (row, col_start, width) in enumerate(placements[:len(cell_map)]):
        cells = cell_map[op_id]  # a zip of the two unpacks about 5% slower
        if len(cells) != width:
            violations.append(f"op {op_id}: cell map does not cover its {width} column(s)")
            continue
        physical_cells.extend(cells)
        for lc, (pr, pc) in enumerate(cells, col_start):
            logical_cells.add((row, lc))
            if not (0 <= pr < num_rows and 0 <= pc < num_cols):
                violations.append(f"op {op_id}: physical cell ({pr}, {pc}) out of bounds")
                continue
            if line_select[pc] != lc % n:
                violations.append(f"column {pc}: line select {line_select[pc]}, "
                                  f"op {op_id} needs {lc % n}")
            if shifts[pc] != (pr - row) % num_rows:
                violations.append(f"column {pc}: barrel shift {shifts[pc]}, "
                                  f"op {op_id} needs {(pr - row) % num_rows}")

    if len(cell_map) != len(placements):  # the loop above stopped at the shorter of the two
        violations.append(f"cell map lists {len(cell_map)} ops, {len(placements)} placed")
    distinct = len(set(physical_cells))
    if distinct != len(physical_cells):
        violations.append("physical cells overlap (cell map not injective)")
    elif distinct != len(logical_cells):
        violations.append("physical cell count does not match logical occupancy")

    expected_wrap = [alloc.pivot.col] if alloc.pivot.col else []
    if (actual_wrap := [*compress(range(num_cols), wrap)]) != expected_wrap:
        violations.append(f"wrap feedback at columns {actual_wrap}, expected {expected_wrap}")
    return violations
