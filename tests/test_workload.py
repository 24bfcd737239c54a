import copy
import json
import random
import re
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgralloc import workload
from cgralloc.workload import (
    OPCODES,
    Dfg,
    GeneratorParams,
    Operation,
    Workload,
    WorkloadError,
    WorkloadSemanticError,
    WorkloadSyntaxError,
    _Workload,
    generate_random_workload,
    parse_workload,
    serialize_workload,
)
from gen_oracle import generate_by_public_calls, mismatches
from parse_messages import MALFORMED, layouts
from serialize_oracle import (NOT_INT, NOT_PAIRS, NOT_STR, UNKNOWN_OPCODES, UNPRINTABLE,
                              compact_mismatches, construction_mismatches, edge_case_workload,
                              hand_built_verdicts, peak_failures, serialize_by_encoder, verdict)
from serialize_oracle import outcome as _outcome
from serialize_oracle import whole_document_outcome as _whole_document_outcome

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
    ops = [Operation("add", (~0, ~1))]
    for i in range(1, length):
        ops.append(Operation("add", (i - 1, ~0)))
    return Dfg(name="chain", num_inputs=num_inputs, ops=tuple(ops),
               outputs=(length - 1,))


def problems(d: Dfg) -> list[str]:
    """The rules `d` breaks, as `parse_workload` reports them for the file the
    independent encoder writes for it, without their `dfgs[0]: ` prefix."""
    try:
        parse_workload(serialize_by_encoder(Workload((d,), ((0, 1),))))
    except WorkloadSemanticError as e:
        assert all(v.startswith("dfgs[0]: ") for v in e.violations), e.violations
        return [v[len("dfgs[0]: "):] for v in e.violations]
    return []


def test_parse_minimal():
    w = parse_workload(MINIMAL)
    assert len(w.dfgs) == 1
    assert len(w.dfgs[0].ops) == 1
    assert w.dfgs[0].ops[0].opcode == "add"
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


# 0 when the interpreter has no limit on int() of a decimal string, or it is switched off
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not DIGIT_LIMIT, reason="no integer digit limit")
def test_parse_integer_over_the_digit_limit_is_a_syntax_error():
    text = MINIMAL.replace('"num_inputs": 2', '"num_inputs": ' + "9" * (DIGIT_LIMIT + 1))
    with pytest.raises(WorkloadSyntaxError, match="digits"):
        parse_workload(text)


def test_parse_rejects_unknown_format():
    doc = json.loads(MINIMAL)
    for fmt in (2, True, 1.0, "1"):
        doc["format"] = fmt
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


@pytest.mark.parametrize("case", MALFORMED)
def test_parse_reports_exact_messages(case):
    doc, message = MALFORMED[case]
    for text in layouts(doc).values():
        with pytest.raises(WorkloadSemanticError) as info:
            parse_workload(text)
        assert str(info.value) == message


def small_workload() -> Workload:
    """Built when a test asks, so that a constructor fault fails that test, not the module."""
    return Workload(dfgs=(
        Dfg("a", 2, (Operation("add", (~0, ~1)),), (0,)),
        Dfg("mem", 1, (Operation("load", (~0,)), Operation("store", (~0, 0))), (0,)),
        Dfg("c", 2, (Operation("sub", (~1, ~0)), Operation("xor", (0, ~0))), (1, 0)),
    ), trace=((0, 1), (2, 3), (1, 2), (0, 10)))


def test_compact_parse_matches_the_whole_document_parse_byte_by_byte():
    """Every prefix of gen's text, every one-byte deletion, every byte turned into a space
    and the layout's traps give the same Workload, or the same error, as the whole document."""
    small = small_workload()
    text = serialize_workload(small)
    assert _outcome(text) == small
    texts = [text[:k] for k in range(len(text))]
    texts += [text[:i] + text[i + 1:] for i in range(len(text))]
    texts += [text[:i] + " " + text[i + 1:] for i in range(len(text))]
    texts += [text + " \t\r\n", text + "\x0c", text + "\u00a0", text + "}",
              text.replace(',"trace"', ', "trace"'), text.replace("},{", "}, {"),
              '{"format":1,"dfgs":[],"trace":[]}\n', '{"format":1,"dfgs":[],"trace":[[0,1]]}\n']
    long_ref = text.replace('"num_inputs":2', f'"num_inputs":{10**70}', 1).replace(
        '"index":1}', f'"index":{10**69}}}', 1)  # a ref text past the 64 characters _OP reads
    assert type(_whole_document_outcome(long_ref)) is Workload
    for t in texts + [long_ref]:
        assert _outcome(t) == _whole_document_outcome(t), repr(t)


def test_compact_reader_matches_the_whole_document_parse_on_mutated_gen_texts():
    """Every one-character substitution and insertion of small gen texts, the hand-built grid's
    texts, the edge cases and a 200-DFG text: the same Workload, or the same error."""
    assert compact_mismatches() == []


def test_compact_reader_takes_linear_time_on_unclosed_refs():
    """Half a megabyte of ops whose first ref never closes: were a ref's text not cut at 64
    characters, each op would rescan the rest of the text, 30 s or more here."""
    text = ('{"format":1,"dfgs":[{"name":"d","num_inputs":1,"ops":['
            + '{"id":0,"opcode":"add","srcs":[{' * 16000 + '],"outputs":[]}],"trace":[[0,1]]}\n')
    start = time.perf_counter()
    got = _outcome(text)
    assert time.perf_counter() - start < 1.0
    assert got == _whole_document_outcome(text)


def test_extra_key_nested_near_the_decoder_limit_reads_alike_in_both_layouts():
    """The compact reader takes no key that gen does not write, so a DFG with one is decoded
    whole in either layout: one verdict at every depth, on both sides of the nesting limit."""
    compact = serialize_workload(small_workload())
    indented = json.dumps(json.loads(compact), indent=1)
    verdicts = set()
    for depth in range(1, 2 * sys.getrecursionlimit()):
        nested = "[" * depth + "]" * depth
        got = _outcome(compact.replace('"outputs":', f'"x":{nested},"outputs":', 1))
        assert got == _outcome(indented.replace('"outputs": ', f'"x": {nested}, "outputs": ', 1))
        verdicts.add(got == small_workload() or got)
    assert verdicts == {True, (WorkloadSyntaxError, "nesting too deep")}


def _nodes(node, path=()):
    """Path to every node of a JSON document, the root included."""
    yield path
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _nodes(child, path + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _nodes(child, path + (i,))


def _replaced(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def _valid_doc(seed):
    params = GeneratorParams(num_dfgs=2, ops_per_dfg=(1, 4), memory_op_fraction=0.4,
                             num_inputs=2, trace_length=2)
    return json.loads(serialize_workload(generate_random_workload(params, seed)))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 6) | st.floats(allow_nan=False)
    | st.sampled_from(["add", "load", "store", "input", "op", ""]) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                 max_size=3),
    max_leaves=6,
)


@settings(deadline=None)
@given(seed=st.integers(0, 2**16), pick=st.integers(0, 10**6), value=JSON_VALUES)
def test_parse_any_one_node_replaced_returns_or_raises_workload_error(seed, pick, value):
    doc = _valid_doc(seed)
    paths = list(_nodes(doc))
    replaced = _replaced(doc, paths[pick % len(paths)], value)
    compact = json.dumps(replaced, separators=(",", ":")) + "\n"
    assert _outcome(compact) == _outcome(json.dumps(replaced, indent=1))


def test_parse_type_confusion_at_every_node_raises_workload_error():
    # a list or a dict where a string is expected, a bool where an int is
    doc = _valid_doc(3)
    for path in _nodes(doc):
        node = doc
        for key in path:
            node = node[key]
        if type(node) is str:
            values = ([], {}, ["add"], {"add": 1})
        elif type(node) is int:
            values = (True, False)
        else:
            continue
        for value in values:
            with pytest.raises(WorkloadError):
                parse_workload(json.dumps(_replaced(doc, path, value)))


def test_roundtrip_minimal():
    w = parse_workload(MINIMAL)
    assert parse_workload(serialize_workload(w)) == w


def test_roundtrip_all_opcodes():
    ops = []
    for i, opcode in enumerate(OPCODES):
        if opcode == "load":
            srcs = (~0,)
        else:
            srcs = (~0, ~1)
        ops.append(Operation(opcode, srcs))
    d = Dfg(name="all", num_inputs=2, ops=tuple(ops), outputs=(0,))
    assert problems(d) == []
    w = Workload(dfgs=(d,), trace=((0, 3),))
    assert parse_workload(serialize_workload(w)) == w


def test_roundtrip_random_workloads():
    for seed in range(25):
        w = generate_random_workload(GeneratorParams(num_dfgs=10), seed)
        assert parse_workload(serialize_workload(w)) == w


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("params", [
    GeneratorParams(num_dfgs=1, ops_per_dfg=(1, 1), trace_length=1),
    GeneratorParams(num_dfgs=30),
    GeneratorParams(num_dfgs=20, ops_per_dfg=(20, 60), num_inputs=8, max_repeat=4),
    GeneratorParams(num_dfgs=10, memory_op_fraction=1.0, num_inputs=1, max_repeat=1000),
], ids=["one op", "default sizes", "map_heavy sizes", "memory only"])
def test_serialize_equals_json_encoder_on_generated_workloads(params, seed):
    w = generate_random_workload(params, seed)
    assert serialize_workload(w) == serialize_by_encoder(w)


def test_serialize_equals_json_encoder_on_edge_cases():
    w = edge_case_workload()
    text = serialize_workload(w)
    assert text == serialize_by_encoder(w)
    assert text.isascii()
    empty = _Workload(dfgs=(), trace=())  # no Workload has an empty trace
    assert serialize_workload(empty) == serialize_by_encoder(empty) == (
        '{"format":1,"dfgs":[],"trace":[]}\n')


def test_parse_peaks_at_the_decoded_document():
    """gen's compact layout is read one DFG at a time, so its parse peaks well under
    json.loads (bound 0.3x); any other layout is decoded whole, and each decoded DFG is
    dropped once its records are built, so that parse holds no more than json.loads does."""
    assert peak_failures() == []


def _unspellable(opcode="add", ref=~1, num_inputs=2, name="d"):
    """The dfgs and trace of a one-op workload, with one field as given."""
    return (Dfg(name, num_inputs, (Operation(opcode, (~0, ref)),), (0,)),), ((0, 1),)


_NOT_AN_INDEX = "dfgs[0].ops[0].srcs[1]: 'index' must be an integer"


@pytest.mark.parametrize("fields, message", [
    # unchecked, 'x"y' was written between quotes: text that parse_workload rejects
    pytest.param(_unspellable(opcode='x"y'), "dfgs[0].ops[0]: unknown opcode 'x\"y'",
                 id="quoted opcode"),
    pytest.param(_unspellable(opcode="mul"), "dfgs[0].ops[0]: unknown opcode 'mul'",
                 id="unknown opcode"),
    pytest.param(_unspellable(opcode=["add"]), "dfgs[0].ops[0]: unknown opcode ['add']",
                 id="list opcode"),
    # a ref that is not an int is read as an op ref whose index is not one: unchecked, the
    # ref text wrote an extra key, and true and 1.0 were written as the ref 1
    pytest.param(_unspellable(ref='1, "x": 5'), _NOT_AN_INDEX, id="index text"),
    pytest.param(_unspellable(ref=1.0), _NOT_AN_INDEX, id="float index"),
    pytest.param(_unspellable(ref=True), _NOT_AN_INDEX, id="bool ref"),
    pytest.param(_unspellable(ref="1"), _NOT_AN_INDEX, id="str ref"),
    pytest.param(_unspellable(num_inputs=2.0), "dfgs[0]: 'num_inputs' must be an integer",
                 id="float num_inputs"),
    # unchecked, 5 was written as a number and 'a\nb' escaped
    pytest.param(_unspellable(name=5), "dfgs[0]: 'name' must be a string", id="int name"),
    pytest.param(_unspellable(name="a\nb"), "dfgs[0]: 'name' must be printable text",
                 id="name with a newline"),
    pytest.param(_unspellable(name="\ud800"), "dfgs[0]: 'name' must be printable text",
                 id="name with a lone surrogate"),
])
def test_serialize_rejects_what_the_format_cannot_spell(fields, message):
    """serialize_workload never receives such a workload: building it raises the parse's
    message for the file that spells it, and the encoder's text, where it can write the
    field, parses to the same message."""
    assert verdict(lambda: Workload(*fields)) == ("WorkloadSemanticError", message)
    if type(fields[0][0].ops[0].sources[1]) is not str:  # the encoder cannot write a str ref
        assert hand_built_verdicts(*fields)[1] == ("WorkloadSemanticError", message)


@pytest.mark.parametrize("entry", [
    pytest.param(("0", 1), id="str dfg index"),
    pytest.param((0, True), id="bool repeats"),
    pytest.param((0, 1.5), id="float repeats"),
    pytest.param((0, None), id="None repeats"),
    pytest.param((0,), id="one value"),
    pytest.param((0, 1, 2), id="three values"),
    pytest.param(1, id="int entry"),
    pytest.param([0, 1], id="list entry"),
    pytest.param({0: 1, 1: 1}, id="dict entry"),
    pytest.param("01", id="two-character str entry"),
])
def test_hand_built_trace_entries_must_be_tuples_of_two_ints(entry):
    """The constructor (positional and keyword), _make and _replace give parse_workload's
    verdict on the file with the same trace, for such an entry alone or in trace order with a
    repeat count below 1.  A file spells a pair as a list, so a list entry is read as the file
    reads it: [0, 1] is the pair (0, 1); a file's object keys are str, so a dict is never one."""
    good = parse_workload(MINIMAL)
    verdicts = []
    for trace in (((0, 1), entry), ((0, 1), entry, (0, 0))):
        doc = json.loads(MINIMAL)
        doc["trace"] = trace
        verdicts.append(verdict(lambda: parse_workload(json.dumps(doc))))
        for build in (lambda: Workload(good.dfgs, trace),
                      lambda: Workload(dfgs=good.dfgs, trace=trace),
                      lambda: Workload._make((good.dfgs, trace)),
                      lambda: good._replace(trace=trace)):
            assert verdict(build) == verdicts[-1]
    count_below_one = "trace[2]: repeat count 0 must be >= 1"
    if type(entry) is list:
        assert verdicts == [("built", good._replace(trace=((0, 1), (0, 1)))),
                            ("WorkloadSemanticError", count_below_one)]
    else:
        must_be = "trace[1]: must be [dfg_index, repeat_count]"
        assert verdicts == [("WorkloadSemanticError", must_be),
                            ("WorkloadSemanticError", f"{must_be}; {count_below_one}")]


def test_a_hand_built_trace_is_read_as_the_list_a_file_holds():
    """An iterator is read once: an empty one is the empty trace, not a Workload without one."""
    dfgs = parse_workload(MINIMAL).dfgs
    assert Workload(dfgs, iter([[0, 2]])).trace == ((0, 2),)
    with pytest.raises(WorkloadSemanticError, match="^empty trace$"):
        Workload(dfgs, iter(()))


def test_hand_built_workloads_get_the_parse_verdict_on_the_grid():
    """Each file rule broken alone and several together, on seeded generated workloads, plus
    anchors that spell the parse's message out."""
    assert construction_mismatches() == []


def _value_refs(ops, n):
    """Refs to one of three inputs or to one of the first n ops that is not a store."""
    return st.integers(-3, n - 1).filter(lambda r: r < 0 or ops[r].opcode != "store")


@st.composite
def hand_built_fields(draw):
    """DFGs and a trace, any field of which breaks a file rule with odds drawn per example, from
    none to 1 in 2: a name, a count of inputs, an opcode, a number of sources, an int ref of any
    range, a trace entry, the trace's length."""
    odds = draw(st.sampled_from([0, 60, 12, 2]))

    def pick(valid, broken):
        return draw(broken if odds and draw(st.integers(1, odds)) == 1 else valid)

    dfgs = []
    for _ in range(draw(st.integers(0, 3))):
        name = pick(st.sampled_from(["d", "", "caf\u00e9", 'say "hi"']),
                    st.sampled_from(NOT_STR + UNPRINTABLE))
        num_inputs = pick(st.just(3), st.integers(-2, 2) | st.sampled_from(NOT_INT))
        ops = []
        for k in range(draw(st.integers(0, 5))):
            opcode = pick(st.sampled_from(OPCODES), st.sampled_from(UNKNOWN_OPCODES))
            count = pick(st.just(workload.arity(opcode)), st.integers(0, 3))
            ops.append(Operation(opcode, tuple(pick(_value_refs(ops, k), st.integers())
                                               for _ in range(count))))
        outputs = [pick(_value_refs(ops, len(ops)), st.integers())
                   for _ in range(draw(st.integers(0, 2)))]
        dfgs.append(Dfg(name, num_inputs, tuple(ops), tuple(outputs)))
    bad_entry = (st.tuples(st.integers(-1, len(dfgs) + 1), st.integers(-1, 4) | st.integers())
                 | st.sampled_from(NOT_PAIRS))
    entry = st.tuples(st.integers(0, len(dfgs) - 1), st.integers(1, 4)) if dfgs else bad_entry
    return dfgs, [pick(entry, bad_entry) for _ in range(pick(st.integers(1, 4), st.just(0)))]


@settings(deadline=None, max_examples=300)
@given(fields=hand_built_fields())
def test_hand_built_workload_gets_the_parse_verdict_on_the_encoder_text(fields):
    got, want = hand_built_verdicts(*fields)
    assert got == want
    assert got[0] != "built" or type(got[1]) is Workload


def test_parse_of_gen_text_reads_each_dfg_once(monkeypatch):
    """The compact reader alone reads gen's text: no DFG goes through the whole-document walk,
    and the CLI's Workload is built inside the parse, not through the checking constructor."""
    calls = []

    def counting(owner, name):
        original = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args: calls.append(name) or original(*args))

    counting(workload, "_parse_dfg")
    counting(Workload, "__new__")
    w = generate_random_workload(GeneratorParams(num_dfgs=30), 5)
    text = serialize_workload(w)
    assert parse_workload(text) == w
    assert calls == []
    parse_workload(text.replace('"dfg0"', '"dfg\\u0030"'))  # an escape: decoded whole
    assert calls == ["_parse_dfg"] * 30


def test_validate_accepts_chain():
    assert problems(chain_dfg(3)) == []


def test_validate_rejects_self_reference():
    d = Dfg(name="loop", num_inputs=1,
            ops=(Operation("add", (0, ~0)),),
            outputs=())
    assert problems(d) == ["op 0 references op 0, which is not listed before it"]


def test_validate_reports_load_arity():
    d = Dfg(name="badload", num_inputs=2,
            ops=(Operation("load", (~0, ~1)),),
            outputs=())
    assert any("load takes 1 source" in v for v in problems(d))


def test_validate_reports_store_sourced_as_value():
    d = Dfg(name="storeval", num_inputs=2,
            ops=(Operation("store", (~0, ~1)),
                 Operation("add", (0, ~0))),
            outputs=())
    assert any("store" in v for v in problems(d))


def test_validate_reports_nondense_ids():
    # an op's id is its position, so only a file can hold another one
    doc = json.loads(MINIMAL)
    doc["dfgs"][0]["ops"][0]["id"] = 5
    with pytest.raises(WorkloadSemanticError, match="dense"):
        parse_workload(json.dumps(doc))


def test_topological_order_random_dags_brute_force():
    # oracle: a list order is valid exactly when it is a topological order;
    # every edge whose producer is not listed before its reader, found edge
    # by edge, must be reported once per source slot, in list order
    rng = random.Random(7)
    for _ in range(20):
        n = 50
        ops = []
        for i in range(n):
            if i == 0 or rng.random() < 0.2:
                srcs = (~0, ~0)
            else:
                a = rng.randrange(i)
                b = rng.randrange(i) if rng.random() < 0.7 else ~0
                srcs = (a, b)
            ops.append(Operation("add", srcs))
        assert problems(Dfg(name="dag", num_inputs=1, ops=tuple(ops), outputs=())) == []

        # shuffle the positions so some producer is listed after one of its readers
        perm = list(range(n))
        rng.shuffle(perm)
        remap = {old: new for new, old in enumerate(perm)}
        shuffled = [None] * n
        for i, op in enumerate(ops):
            new_srcs = tuple(remap[r] if r >= 0 else r for r in op.sources)
            shuffled[remap[i]] = Operation(op.opcode, new_srcs)
        d = Dfg(name="dag", num_inputs=1, ops=tuple(shuffled), outputs=())

        late = [f"op {i} references op {r}, which is not listed before it"
                for i, op in enumerate(d.ops) for r in op.sources if r >= i]
        assert late  # a random order of 50 ops almost surely breaks some edge
        assert problems(d) == late


def test_generator_deterministic():
    params = GeneratorParams()
    assert generate_random_workload(params, 1) == generate_random_workload(params, 1)
    assert generate_random_workload(params, 1) != generate_random_workload(params, 2)


def test_generator_zero_memory_fraction():
    w = generate_random_workload(GeneratorParams(memory_op_fraction=0.0, num_dfgs=30), 3)
    for d in w.dfgs:
        assert all(op.opcode not in ("load", "store") for op in d.ops)


def test_generator_output_validity():
    w = generate_random_workload(
        GeneratorParams(num_dfgs=100, ops_per_dfg=(50, 50), memory_op_fraction=0.3), 11
    )
    assert len(w.dfgs) == 100
    for d in w.dfgs:
        assert len(d.ops) == 50
        assert problems(d) == []


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


@pytest.mark.parametrize("value", [4.0, 2.5, True])
@pytest.mark.parametrize("field", ["num_dfgs", "ops_min", "ops_max", "num_inputs",
                                   "trace_length", "max_repeat"])
def test_generator_rejects_a_count_that_is_not_an_int(field, value):
    """randint takes 4.0 on some Python versions and not on others, and the draw the
    generator makes checks no type, so every count is checked before the first draw."""
    fields = {"ops_min": {"ops_per_dfg": (value, 5)}, "ops_max": {"ops_per_dfg": (1, value)}}
    name = "ops_per_dfg" if field.startswith("ops_") else field
    with pytest.raises(ValueError, match=f"^{name} must be an int, got {re.escape(repr(value))}$"):
        generate_random_workload(GeneratorParams(**fields.get(field, {field: value})), 0)


@pytest.mark.parametrize("field, value", [
    ("ops_per_dfg", 5), ("ops_per_dfg", (1, 2, 3)), ("ops_per_dfg", [3, 10]),
    ("memory_op_fraction", "0.1"), ("memory_op_fraction", None), ("memory_op_fraction", True),
])
def test_generator_rejects_a_field_of_the_wrong_type(field, value):
    """Each raises a ValueError that names the field, not a bare TypeError from the draws."""
    with pytest.raises(ValueError, match=f"^{field} must be "):
        generate_random_workload(GeneratorParams(**{field: value}), 0)


@pytest.mark.parametrize("seed", [-1, -2**70, 1.0, True, "1", None])
def test_generator_rejects_a_seed_that_is_not_a_non_negative_int(seed):
    """CPython seeds with abs(seed), so seed -1 would repeat the workload of seed 1."""
    with pytest.raises(ValueError, match="^seed must be"):
        generate_random_workload(GeneratorParams(), seed)


def test_generator_makes_the_public_calls_draws_on_the_grid():
    assert mismatches() == []


@settings(deadline=None, max_examples=200)
@given(num_dfgs=st.integers(1, 6), lo=st.integers(1, 30), extra=st.integers(0, 30),
       frac=st.floats(0, 1), inputs=st.integers(1, 20), length=st.integers(1, 50),
       repeat=st.integers(1, 2**40), seed=st.integers(0, 2**80))
def test_generator_makes_the_public_calls_draws(num_dfgs, lo, extra, frac, inputs, length,
                                                repeat, seed):
    params = GeneratorParams(num_dfgs, (lo, lo + extra), frac, inputs, length, repeat)
    assert generate_random_workload(params, seed) == generate_by_public_calls(params, seed)
