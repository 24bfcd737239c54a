"""The contract of the records that parse, map and the fabric build per op or pivot.

`Operation`, `Dfg`, `Workload` and `Placement` are immutable, hashable and
equal by value, and they unpack in field order: the loops that read them and
the `map --dump` line rely on that order.  An op and its placement carry no id:
each is its position in `Dfg.ops` and `placements`.  A ref is a plain int.  The fabric's
`ReconfigPlan` and `ExecResult` are immutable and unpack in field order too.
These tests need no pytest: `PYTHONPATH=src python tests/test_records.py`
runs them all and exits 1 if one fails.
"""

from dataclasses import replace

from cgralloc.allocation import Pivot
from cgralloc.fabric import MemoryModel, execute, reconfig_plan
from cgralloc.mapper import FabricDims, map_dfg
from cgralloc.workload import (
    OPCODES,
    GeneratorParams,
    generate_random_workload,
    parse_workload,
    serialize_workload,
)

DIMS_16x2 = FabricDims(num_cols=16, num_rows=2)
PARAMS = GeneratorParams(num_dfgs=8, ops_per_dfg=(4, 12), memory_op_fraction=0.3)


def _text() -> str:
    return serialize_workload(generate_random_workload(PARAMS, 3))


def _records() -> dict[str, tuple[object, tuple[str, ...]]]:
    """One parsed or mapped instance of each record, with its field names in order."""
    w = parse_workload(_text())
    d = w.dfgs[0]
    vc = map_dfg(d, DIMS_16x2)
    pivot = Pivot(1, 3)
    inputs = list(range(1, d.num_inputs + 1))
    return {
        "Operation": (d.ops[0], ("opcode", "sources")),
        "Dfg": (d, ("name", "num_inputs", "ops", "outputs")),
        "Workload": (w, ("dfgs", "trace")),
        "Placement": (next(p for p in vc.placements if len(set(p)) == 3),
                      ("row", "col_start", "width")),
        "ReconfigPlan": (reconfig_plan(pivot, DIMS_16x2), (
            "line_select", "barrel_shift_rows", "wrap_feedback_enabled", "reconfig_cycles")),
        "ExecResult": (execute(vc, pivot, inputs, MemoryModel({4: 5}), DIMS_16x2),
                       ("outputs", "memory")),
    }


def test_every_field_of_every_record_rejects_assignment():
    for name, (record, fields) in _records().items():
        for field in fields:
            try:
                setattr(record, field, getattr(record, field))
            except AttributeError:
                continue
            raise AssertionError(f"{name}.{field} accepted an assignment")


def test_every_record_unpacks_in_field_order():
    for name, (record, fields) in _records().items():
        values = tuple(getattr(record, field) for field in fields)
        assert len(set(map(repr, values))) == len(values), name  # so a swap would show
        assert record._fields == fields, name
        assert tuple(record) == values, name


def test_two_parses_of_one_text_are_equal_and_hash_alike():
    text = _text()
    first, second = parse_workload(text), parse_workload(text)
    assert first is not second
    assert first == second
    assert hash(first) == hash(second)


def test_placements_unpack_in_field_order():
    w = parse_workload(_text())
    placements = [p for d in w.dfgs for p in map_dfg(d, DIMS_16x2).placements]
    assert any(p.row != p.col_start for p in placements)  # so a swap of the two would show
    for p in placements:
        assert tuple(p) == (p.row, p.col_start, p.width)


def test_parsed_ops_share_one_string_per_opcode():
    text = serialize_workload(generate_random_workload(replace(PARAMS, num_dfgs=2), 3))
    ops = [op for d in parse_workload(text).dfgs for op in d.ops]
    assert len(ops) > len(OPCODES)  # so some opcode is read more than once
    for op in ops:
        assert op.opcode is OPCODES[OPCODES.index(op.opcode)], op


def test_parsed_refs_are_plain_ints():
    w = parse_workload(_text())
    refs = [r for d in w.dfgs for op in d.ops for r in op.sources + d.outputs]
    assert any(r < 0 for r in refs) and any(r >= 0 for r in refs)  # inputs and ops
    for r in refs:
        assert type(r) is int, r


if __name__ == "__main__":
    import sys

    tests = [(name, test) for name, test in globals().items() if name.startswith("test_")]
    failures = []
    for name, test in tests:
        try:
            test()
        except Exception as e:  # report every failing test, not only the first
            failures.append(f"{name}: {type(e).__name__}: {e}")
    print("\n".join(failures) or f"{len(tests)} record tests pass")
    sys.exit(1 if failures else 0)
