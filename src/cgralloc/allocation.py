"""Per-execution binding of virtual configurations to physical fabric cells.

Two policies: the conventional fixed-origin binding (logical equals physical,
every execution lands on the top-left corner) and a rotating binding that
shifts the whole configuration by a pivot offset that advances on every
execution, sweeping the entire grid so each cell carries an equal share of
the load over time.  Shifted configurations wrap around both fabric edges,
torus style.
"""

from __future__ import annotations

from enum import Enum
from functools import cache, partial
from typing import NamedTuple

from .mapper import FabricDims, VirtualConfiguration


class AllocationPolicy(Enum):
    FIXED_ORIGIN = "fixed"
    ROTATING = "rotating"


class Pivot(NamedTuple):
    """Offset applied to a whole configuration for one execution."""

    row: int
    col: int


def pivot_period(policy: AllocationPolicy, dims: FabricDims) -> int:
    """Number of distinct pivots a policy cycles through: 1 fixed, num_cells rotating."""
    return dims.num_cells if policy is AllocationPolicy.ROTATING else 1


def pivot_at(policy: AllocationPolicy, k: int, dims: FabricDims) -> Pivot:
    """Pivot of execution number k (from 0).

    FIXED_ORIGIN always loads at the origin.  ROTATING visits the grid
    column-fastest, so execution k lands on pivot number k mod num_cells and
    every period of num_cells executions covers each cell exactly once.
    """
    return Pivot(*divmod(k % pivot_period(policy, dims), dims.num_cols))


def check_pivot(pivot: Pivot, dims: FabricDims) -> tuple[int, int]:
    """The pivot's (row, col); ValueError unless they are ints (a bool is not) naming a cell."""
    row, col = pivot
    if type(row) is not int or type(col) is not int:
        raise ValueError(f"pivot {pivot} must hold ints")
    if not (0 <= row < dims.num_rows and 0 <= col < dims.num_cols):
        raise ValueError(f"pivot {pivot} outside {dims.num_cols}x{dims.num_rows} fabric")
    return row, col


class PhysicalAllocation(NamedTuple):
    """Toroidal translation of a virtual configuration by one pivot: cell_map[k] lists the
    physical cells of op k, logical (r, c) landing on ((r + pivot.row) mod num_rows,
    (c + pivot.col) mod num_cols)."""

    vc: VirtualConfiguration
    pivot: Pivot
    cell_map: tuple[tuple[tuple[int, int], ...], ...]


def allocate(vc: VirtualConfiguration, pivot: Pivot, dims: FabricDims) -> PhysicalAllocation:
    """Bind a configuration at the given pivot; pure, always legal.

    Translation is a bijection on the torus, so a legal virtual configuration
    stays overlap-free at every pivot; memory ops may straddle the physical
    right edge via wrap-around.  Op k's cells slice a row of one table per fabric size, 2 x cells
    shared cell tuples; a non-int field or a width outside 0..num_cols raises ValueError.
    """
    num_rows, num_cols = dims.num_rows, dims.num_cols
    (pivot_row, pivot_col), rows = check_pivot(pivot, dims), _torus_rows(num_rows, num_cols)
    cell_map = []  # in op id order
    try:
        for row, col, width in vc.placements:
            if not 0 <= width <= num_cols:  # so a slice of 2 x num_cols cells cannot truncate
                raise ValueError(f"placement width {width} outside 0..{num_cols}")
            col = (col + pivot_col) % num_cols
            cell_map.append(rows[(row + pivot_row) % num_rows][col:col + width])
    except TypeError:
        raise ValueError("placements must hold ints") from None
    return _allocation((vc, pivot, tuple(cell_map)))


_allocation = partial(tuple.__new__, PhysicalAllocation)  # builds the record in C
_torus_rows = cache(lambda R, C: [tuple([(r, c % C) for c in range(2 * C)]) for r in range(R)])
