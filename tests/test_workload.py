import json
import random

import pytest

from cgralloc.workload import (
    Dfg,
    DfgCycleError,
    GeneratorParams,
    Opcode,
    Operation,
    RefKind,
    Workload,
    WorkloadSemanticError,
    WorkloadSyntaxError,
    generate_random_workload,
    input_ref,
    op_ref,
    parse_workload,
    serialize_workload,
    topological_order,
    validate_dfg,
)

MINIMAL = json.dumps({
    "format": 1,
    "dfgs": [{
        "name": "one",
        "num_inputs": 2,
        "ops": [{"id": 0, "opcode": "add",
                 "srcs": [{"kind": "input", "index": 0}, {"kind": "input", "index": 1}]}],
        "outputs": [{"kind": "op", "index": 0}],
    }],
    "trace": [[0, 1]],
})


def chain_dfg(length: int, num_inputs: int = 2) -> Dfg:
    ops = [Operation(0, Opcode.ADD, (input_ref(0), input_ref(1)))]
    for i in range(1, length):
        ops.append(Operation(i, Opcode.ADD, (op_ref(i - 1), input_ref(0))))
    return Dfg(name="chain", num_inputs=num_inputs, ops=tuple(ops),
               outputs=(op_ref(length - 1),))


def test_parse_minimal():
    w = parse_workload(MINIMAL)
    assert len(w.dfgs) == 1
    assert len(w.dfgs[0].ops) == 1
    assert w.dfgs[0].ops[0].opcode is Opcode.ADD
    assert sum(reps for _, reps in w.trace) == 1


def test_parse_reports_dangling_op_id():
    doc = json.loads(MINIMAL)
    doc["dfgs"][0]["ops"][0]["srcs"][1] = {"kind": "op", "index": 99}
    with pytest.raises(WorkloadSemanticError, match="99"):
        parse_workload(json.dumps(doc))


def test_parse_rejects_empty_trace():
    doc = json.loads(MINIMAL)
    doc["trace"] = []
    with pytest.raises(WorkloadSemanticError, match="empty trace"):
        parse_workload(json.dumps(doc))


def test_parse_syntax_error_reports_position():
    with pytest.raises(WorkloadSyntaxError, match=r"line \d+, column \d+"):
        parse_workload("{ not json ]")


def test_parse_deep_nesting_is_a_syntax_error():
    with pytest.raises(WorkloadSyntaxError, match="nesting"):
        parse_workload("[" * 100000 + "]" * 100000)


def test_parse_rejects_unknown_format():
    doc = json.loads(MINIMAL)
    doc["format"] = 2
    with pytest.raises(WorkloadSemanticError, match="format"):
        parse_workload(json.dumps(doc))


def test_parse_rejects_bad_trace_entry():
    doc = json.loads(MINIMAL)
    doc["trace"] = [[0, 0]]
    with pytest.raises(WorkloadSemanticError, match="repeat"):
        parse_workload(json.dumps(doc))
    doc["trace"] = [[5, 1]]
    with pytest.raises(WorkloadSemanticError, match="out of range"):
        parse_workload(json.dumps(doc))


def test_roundtrip_minimal():
    w = parse_workload(MINIMAL)
    assert parse_workload(serialize_workload(w)) == w


def test_roundtrip_all_opcodes():
    ops = []
    for i, opcode in enumerate(Opcode):
        if opcode is Opcode.LOAD:
            srcs = (input_ref(0),)
        else:
            srcs = (input_ref(0), input_ref(1))
        ops.append(Operation(i, opcode, srcs))
    d = Dfg(name="all", num_inputs=2, ops=tuple(ops), outputs=(op_ref(0),))
    assert validate_dfg(d) == []
    w = Workload(dfgs=(d,), trace=((0, 3),))
    assert parse_workload(serialize_workload(w)) == w


def test_roundtrip_random_workloads():
    for seed in range(25):
        w = generate_random_workload(GeneratorParams(num_dfgs=10), seed)
        assert parse_workload(serialize_workload(w)) == w


def test_validate_accepts_chain():
    assert validate_dfg(chain_dfg(3)) == []


def test_validate_reports_self_loop_as_cycle():
    d = Dfg(name="loop", num_inputs=1,
            ops=(Operation(0, Opcode.ADD, (op_ref(0), input_ref(0))),),
            outputs=())
    assert "cycle at op 0" in validate_dfg(d)


def test_validate_reports_load_arity():
    d = Dfg(name="badload", num_inputs=2,
            ops=(Operation(0, Opcode.LOAD, (input_ref(0), input_ref(1))),),
            outputs=())
    assert any("load takes 1 source" in v for v in validate_dfg(d))


def test_validate_reports_store_sourced_as_value():
    d = Dfg(name="storeval", num_inputs=2,
            ops=(Operation(0, Opcode.STORE, (input_ref(0), input_ref(1))),
                 Operation(1, Opcode.ADD, (op_ref(0), input_ref(0)))),
            outputs=())
    assert any("store" in v for v in validate_dfg(d))


def test_validate_reports_nondense_ids():
    d = Dfg(name="ids", num_inputs=1,
            ops=(Operation(5, Opcode.ADD, (input_ref(0), input_ref(0))),),
            outputs=())
    assert any("dense" in v for v in validate_dfg(d))


def test_topological_order_chain():
    assert topological_order(chain_dfg(3)) == [0, 1, 2]


def test_topological_order_breaks_ties_by_id():
    d = Dfg(name="pair", num_inputs=2,
            ops=(Operation(0, Opcode.ADD, (input_ref(0), input_ref(1))),
                 Operation(1, Opcode.SUB, (input_ref(0), input_ref(1)))),
            outputs=())
    assert topological_order(d) == [0, 1]


def test_topological_order_detects_cycle():
    d = Dfg(name="loop", num_inputs=1,
            ops=(Operation(0, Opcode.ADD, (op_ref(1), input_ref(0))),
                 Operation(1, Opcode.ADD, (op_ref(0), input_ref(0)))),
            outputs=())
    with pytest.raises(DfgCycleError):
        topological_order(d)


def test_topological_order_random_dags_brute_force():
    # oracle: the order must be a permutation in which every producer
    # precedes every consumer, checked edge by edge
    rng = random.Random(7)
    for _ in range(20):
        n = 50
        ops = []
        for i in range(n):
            if i == 0 or rng.random() < 0.2:
                srcs = (input_ref(0), input_ref(0))
            else:
                a = op_ref(rng.randrange(i))
                b = op_ref(rng.randrange(i)) if rng.random() < 0.7 else input_ref(0)
                srcs = (a, b)
            ops.append(Operation(i, Opcode.ADD, srcs))
        # shuffle ids so dependencies are not simply "smaller id first"
        perm = list(range(n))
        rng.shuffle(perm)
        remap = {old: new for new, old in enumerate(perm)}
        shuffled = [None] * n
        for op in ops:
            new_srcs = tuple(
                op_ref(remap[r.index]) if r.kind is RefKind.OP else r for r in op.sources
            )
            shuffled[remap[op.id]] = Operation(remap[op.id], op.opcode, new_srcs)
        d = Dfg(name="dag", num_inputs=1, ops=tuple(shuffled), outputs=())
        assert validate_dfg(d) == []

        order = topological_order(d)
        assert sorted(order) == list(range(n))
        pos = {op_id: k for k, op_id in enumerate(order)}
        for op in d.ops:
            for ref in op.sources:
                if ref.kind is RefKind.OP:
                    assert pos[ref.index] < pos[op.id]


def test_generator_deterministic():
    params = GeneratorParams()
    assert generate_random_workload(params, 1) == generate_random_workload(params, 1)
    assert generate_random_workload(params, 1) != generate_random_workload(params, 2)


def test_generator_zero_memory_fraction():
    w = generate_random_workload(GeneratorParams(memory_op_fraction=0.0, num_dfgs=30), 3)
    for d in w.dfgs:
        assert all(not op.opcode.is_memory for op in d.ops)


def test_generator_output_validity():
    w = generate_random_workload(
        GeneratorParams(num_dfgs=100, ops_per_dfg=(50, 50), memory_op_fraction=0.3), 11
    )
    assert len(w.dfgs) == 100
    for d in w.dfgs:
        assert len(d.ops) == 50
        assert validate_dfg(d) == []


def test_generator_trace_invariants():
    w = generate_random_workload(GeneratorParams(num_dfgs=5, trace_length=40), 9)
    assert len(w.trace) == 40
    assert all(0 <= idx < 5 and reps >= 1 for idx, reps in w.trace)
    assert sum(reps for _, reps in w.trace) >= 40


def test_generator_rejects_infeasible_params():
    with pytest.raises(ValueError):
        generate_random_workload(GeneratorParams(num_inputs=0), 0)
    with pytest.raises(ValueError):
        generate_random_workload(GeneratorParams(num_dfgs=0), 0)
    with pytest.raises(ValueError):
        generate_random_workload(GeneratorParams(ops_per_dfg=(5, 2)), 0)
    with pytest.raises(ValueError):
        generate_random_workload(GeneratorParams(memory_op_fraction=1.5), 0)
    with pytest.raises(ValueError):
        generate_random_workload(GeneratorParams(trace_length=0), 0)
