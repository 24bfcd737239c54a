"""Greedy first-fit placement of DFGs onto a rectangular FU fabric.

The fabric is a grid of functional units: data flows strictly left to right,
each op occupies one row and a run of columns set by its latency (one column
for ALU ops, four for memory ops).  The mapper reproduces the corner bias of
conventional greedy allocation: ops go to the first free spot scanning
columns outward and rows top-down, so cell (0, 0) is always used.
"""

from __future__ import annotations

from functools import cached_property, partial
from typing import NamedTuple

from .workload import Dfg, WorkloadSemanticError

ALU_WIDTH = 1
MEMORY_WIDTH = 4


class _FabricDims(NamedTuple):
    num_cols: int
    num_rows: int
    num_config_lines: int = 4  # reconfiguration buses feeding the columns


class FabricDims(_FabricDims):
    """Fabric geometry: num_cols x num_rows FU cells, checked on construction and _replace."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # _replace builds through _make

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name, x in zip(self._fields, self):
            if type(x) is not int:  # a bool is 1, a float breaks first fit's masks
                raise ValueError(f"{name} must be an int, got {x!r}")
        if self.num_cols < 1 or self.num_rows < 1:
            raise ValueError("fabric needs at least one row and one column")
        if self.num_config_lines < 1:
            raise ValueError("num_config_lines must be >= 1")
        return self

    @property
    def num_cells(self) -> int:
        return self.num_cols * self.num_rows


class Placement(NamedTuple):
    """Where one op sits; immutable, unpacks in field order.  The op is its position."""

    row: int
    col_start: int
    width: int


class _VirtualConfiguration(NamedTuple):
    dfg: Dfg
    placements: tuple[Placement, ...]


class VirtualConfiguration(_VirtualConfiguration):
    """A mapped DFG in logical fabric coordinates: placements[k] is where op k sits.
    No __slots__, so the instance dict caches the schedule that execute reads per pivot."""

    @cached_property
    def schedule(self) -> tuple[int, ...]:
        """Op ids sorted by (col_start, 1, op_id), or (col_start + width, 0, op_id) for a
        store: it writes at its completion boundary, before the ops starting there."""
        ops = self.dfg.ops
        return tuple(op_id for _, _, op_id in sorted(
            (col + width, 0, op_id) if ops[op_id].opcode == "store" else (col, 1, op_id)
            for op_id, (_, col, width) in enumerate(self.placements)))


class DoesNotFitError(Exception):
    """Some op cannot be placed within the fabric."""

    def __init__(self, op_id: int, frontier_col: int, dims: FabricDims):
        super().__init__(f"op {op_id} does not fit: no free slot from frontier column "
                         f"{frontier_col} on a {dims.num_cols}x{dims.num_rows} fabric")
        self.op_id, self.frontier_col = op_id, frontier_col


def map_dfg(d: Dfg, dims: FabricDims) -> VirtualConfiguration:
    """First-fit greedy placement.

    Ops are visited in list order, which is their dependency order: an op
    may read only ops listed before it (parse_workload enforces this), and
    an op ref that breaks the rule raises WorkloadSemanticError instead of
    being placed.  Each op's earliest legal column is the maximum completion
    boundary of its producers (0 if none).  From there columns are scanned
    outward and, within a column, rows top-down; the op takes the first spot
    where its full width is free, fits inside the fabric, and respects the
    memory-port rule (at most one load and one store may begin per column).
    A column's used rows are one bitmask; its lowest free row is `~used & (used + 1)`.
    """
    num_rows, num_cols = dims.num_rows, dims.num_cols
    all_rows = (1 << num_rows) - 1
    taken = [0] * num_cols  # per column, a bitmask of the rows already used
    load_cols, store_cols = set(), set()  # columns where a load, or a store, already begins
    ends = [0] * len(d.ops)  # per op id, its completion boundary once placed
    placements = []  # in op id order
    for op_id, (opcode, sources) in enumerate(d.ops):
        earliest = 0
        for s in sources:
            if s >= 0:  # a negative ref reads an input
                if s >= op_id:  # an unplaced op's end would read as a column
                    raise WorkloadSemanticError(
                        [f"op {op_id} references op {s}, which is not listed before it"])
                if ends[s] > earliest:
                    earliest = ends[s]
        if opcode == "load" or opcode == "store":
            ports = load_cols if opcode == "load" else store_cols
            for col in range(earliest, num_cols - MEMORY_WIDTH + 1):
                used = taken[col]
                if used != all_rows and col not in ports:
                    for c in range(col + 1, col + MEMORY_WIDTH):
                        used |= taken[c]
                    if used != all_rows:
                        break
            else:
                raise DoesNotFitError(op_id, earliest, dims)
            row_bit = ~used & (used + 1)
            for c in range(col, col + MEMORY_WIDTH):
                taken[c] |= row_bit
            ports.add(col)
            width = MEMORY_WIDTH
        else:
            for col in range(earliest, num_cols):
                used = taken[col]
                if used != all_rows:
                    break
            else:
                raise DoesNotFitError(op_id, earliest, dims)
            row_bit = ~used & (used + 1)
            taken[col] = used | row_bit
            width = ALU_WIDTH
        ends[op_id] = col + width
        placements.append(_placement((row_bit.bit_length() - 1, col, width)))

    return VirtualConfiguration(d, tuple(placements))


_placement = partial(tuple.__new__, Placement)  # builds the record in C, with no Python frame
