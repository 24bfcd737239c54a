"""The contract of the records the package builds: every one is a named tuple.

All 15 records, from the workload's `Operation`, `Dfg` and `Workload` to the `dse`
`ScenarioResult`, are immutable, hashable and equal by value, and they unpack in field
order: the loops that read them and the `map --dump` line rely on that order.  An op and
its placement carry no id: each is its position in `Dfg.ops` and `placements`, and
`cell_map[k]` is op k's physical cells.  A ref is a plain int.  `FabricDims`,
`AgingParams` and `Workload` check their values when built, and `_replace` re-runs those
checks.  No
record needs `dataclasses`, so `cgralloc.cli` imports without it.
These tests need no pytest: `PYTHONPATH=src python tests/test_records.py`
runs them all and exits 1 if one fails.
"""

import enum
import math
import subprocess
import sys
from pathlib import Path

from cgralloc import aging, allocation, dse, fabric, mapper, metrics, workload
from cgralloc.aging import AgingParams
from cgralloc.allocation import Pivot, allocate
from cgralloc.dse import run_scenario_with_map
from cgralloc.fabric import MemoryModel, execute, reconfig_plan
from cgralloc.mapper import FabricDims, map_dfg
from cgralloc.workload import (
    OPCODES,
    GeneratorParams,
    generate_random_workload,
    parse_workload,
    serialize_workload,
)

SRC = Path(__file__).resolve().parent.parent / "src"
DIMS_16x2 = FabricDims(num_cols=16, num_rows=2)
PARAMS = GeneratorParams(num_dfgs=8, ops_per_dfg=(4, 12), memory_op_fraction=0.3)


def _text() -> str:
    return serialize_workload(generate_random_workload(PARAMS, 3))


def _records() -> dict[str, tuple[object, tuple[str, ...]]]:
    """One parsed, mapped or run instance of each record, with its field names in order."""
    w = parse_workload(_text())
    d = w.dfgs[0]
    vc = map_dfg(d, DIMS_16x2)
    pivot = Pivot(1, 3)
    inputs = list(range(1, d.num_inputs + 1))
    result, umap = run_scenario_with_map(DIMS_16x2, w, AgingParams())
    return {
        "Operation": (d.ops[0], ("opcode", "sources")),
        "Dfg": (d, ("name", "num_inputs", "ops", "outputs")),
        "Workload": (w, ("dfgs", "trace")),
        "GeneratorParams": (PARAMS._replace(max_repeat=7), (  # 7: no two fields print alike
            "num_dfgs", "ops_per_dfg", "memory_op_fraction", "num_inputs", "trace_length",
            "max_repeat")),
        "FabricDims": (DIMS_16x2, ("num_cols", "num_rows", "num_config_lines")),
        "Placement": (next(p for p in vc.placements if len(set(p)) == 3),
                      ("row", "col_start", "width")),
        "VirtualConfiguration": (vc, ("dfg", "placements")),
        "Pivot": (pivot, ("row", "col")),
        "PhysicalAllocation": (allocate(vc, pivot, DIMS_16x2), ("vc", "pivot", "cell_map")),
        "ReconfigPlan": (reconfig_plan(pivot, DIMS_16x2), (
            "line_select", "barrel_shift_rows", "wrap_feedback_enabled", "reconfig_cycles")),
        "ExecResult": (execute(vc, pivot, inputs, MemoryModel({4: 5}), DIMS_16x2),
                       ("outputs", "memory")),
        "UtilizationMap": (umap, ("dims", "active_count", "total_executions")),
        "UtilizationSummary": (result.summary, ("avg", "max", "min", "argmax", "histogram")),
        "ScenarioResult": (result, (
            "dims", "summary", "total_executions", "lifetime_years", "skipped_dfgs",
            "baseline_max_util", "lifetime_improvement", "error")),
        "AgingParams": (AgingParams(), (
            "temperature_k", "vdd", "delay_threshold", "reference_lifetime_years")),
    }


def test_every_record_class_of_the_package_is_a_named_tuple_listed_here():
    classes = {name: value for module in (aging, allocation, dse, fabric, mapper, metrics, workload)
               for name, value in vars(module).items() if isinstance(value, type)
               and value.__module__ == module.__name__ and not name.startswith("_")}
    records = {name for name, cls in classes.items() if issubclass(cls, tuple)}
    assert records == set(_records()) and len(records) == 15, records ^ set(_records())
    # besides errors and enums, the one class that is not a record: the mutable data store
    assert {name for name, cls in classes.items()
            if not issubclass(cls, (tuple, Exception, enum.Enum))} == {"MemoryModel"}


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
        assert isinstance(record, tuple) and record == values, name  # equal to a plain tuple


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
    text = serialize_workload(generate_random_workload(PARAMS._replace(num_dfgs=2), 3))
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


def test_replace_re_runs_the_constructor_checks_with_their_exact_messages():
    dims, params, w = FabricDims(8, 2), AgingParams(), parse_workload(_text())
    cases = [
        (dims, {"num_cols": 0}, "fabric needs at least one row and one column"),
        (dims, {"num_cols": 8.0}, "num_cols must be an int, got 8.0"),
        (dims, {"num_rows": True}, "num_rows must be an int, got True"),
        (dims, {"num_rows": 0}, "fabric needs at least one row and one column"),
        (dims, {"num_config_lines": 0}, "num_config_lines must be >= 1"),
        (params, {"temperature_k": 0.0}, "temperature must be > 0 K"),
        (params, {"vdd": math.nan}, "vdd must be finite, got nan"),
        (params, {"vdd": -1.0}, "vdd must be > 0 V"),
        (params, {"delay_threshold": 1.5}, "delay_threshold must be in (0, 1]"),
        (params, {"reference_lifetime_years": math.inf},
         "reference_lifetime_years must be finite, got inf"),
        (params, {"reference_lifetime_years": 0.0}, "reference_lifetime_years must be > 0"),
        (w, {"trace": ((0, 2), (1, 0))}, "trace[1]: repeat count 0 must be >= 1"),
    ]
    for record, change, message in cases:
        for build in (lambda: type(record)(**{**record._asdict(), **change}),
                      lambda: record._replace(**change)):
            try:
                build()
            except ValueError as e:
                assert str(e) == message, (change, str(e))
            else:
                raise AssertionError(f"{record!r} took {change} without its check")
    assert dims._replace(num_cols=3) == FabricDims(3, 2)  # a good value still goes through
    assert type(params._replace(vdd=0.9)) is AgingParams
    assert type(w) is type(w._replace(trace=((0, 1),))) is workload.Workload


def test_the_cli_imports_without_dataclasses():
    # -S as well as -I: no site hook may load dataclasses before cgralloc does
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); import cgralloc.cli; "
            "print('dataclasses' in sys.modules)")
    out = subprocess.run([sys.executable, "-I", "-S", "-c", code], capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out == "False\n", out


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
