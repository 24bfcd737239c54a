"""The workload text by way of the stdlib JSON encoder: the reference that
`workload.serialize_workload` is checked against, and the parse's memory check.

`serialize_by_encoder` builds the whole document as dicts and lists, then hands
it to ``json.dumps(doc, separators=(",", ":"))``, so layout, escaping and
number spelling are the encoder's, not a restatement of the hand-laid writer.

`construction_mismatches` builds a seeded grid of hand-built `(dfgs, trace)` pairs, each
file rule broken alone and several together, and each of the five sequences (dfgs, the trace,
a DFG's ops or outputs, an op's sources) set to each of `NOT_LISTS`.  It checks that
`Workload(dfgs, trace)` gives the verdict of `parse_workload` on the encoder's text for
`_Workload(dfgs, trace)`, a record built past every check: the same Workload, or the same
`WorkloadError` class and text.  A few anchor pairs also carry the parse's message spelled
out, because a fault in the code that both sides share would make them agree.

`compact_mismatches` checks the compact reader, which reads `gen`'s exact layout by regular
expressions, against the whole-document parse of the same document laid out with indent=1,
a layout that reader never takes: on small gen texts with loads and stores and every
one-character substitution and insertion of them, on the grid's encoder texts, on the edge
cases and on a 200-DFG text, both give the same Workload or the same error.

`peak_failures` bounds the tracemalloc peak of `parse_workload(text)` by that
of `json.loads(text)`, in two layouts.  `gen`'s compact text is read one DFG
at a time, so the parse holds the records and one DFG's split, not the
document: about 0.15x, bounded at 0.3x.  Any other layout, here the indented
one, is decoded whole, and a parse that drops each decoded DFG once its records
are built never holds more than the decoded document: about 1.0x, bounded at
1.05x.

Run as a script (no pytest or Hypothesis needed) to check, on fixed seeds,
writer == encoder, the round trip, the hand-built grid, the compact reader and the peak
bound; it exits 1 on any failure:

    PYTHONPATH=src:tests python tests/serialize_oracle.py
"""

import json
import random
import sys
import tracemalloc

from cgralloc.workload import (WORKLOAD_FORMAT, Dfg, GeneratorParams, Operation, Workload,
                               WorkloadError, WorkloadSyntaxError, _Workload,
                               generate_random_workload, parse_workload, serialize_workload)

PEAK_BOUNDS = {"compact": 0.3, "indented": 1.05}  # parse_workload's peak over json.loads's
PEAK_PARAMS = GeneratorParams(num_dfgs=200, ops_per_dfg=(20, 60), num_inputs=8)


def _ref(r: int) -> dict:
    """The file's spelling of a ref: op r when r >= 0, input -1 - r otherwise."""
    return {"kind": "op", "index": r} if r >= 0 else {"kind": "input", "index": -1 - r}


def _fields(value, n: int):
    """The n fields of a hand-built record, or None unless it is a tuple of n: a list is an
    array in the file, not an object, whatever it holds."""
    return value if isinstance(value, tuple) and len(value) == n else None


def _array(value, doc):
    """A list or a tuple as the file's array of doc(position, item); any other value as it is."""
    return [doc(k, x) for k, x in enumerate(value)] if isinstance(value, (list, tuple)) else value


def _ref_doc(_, r):
    return _ref(r)


def _op_doc(op_id: int, op):
    if (fields := _fields(op, 2)) is None:
        return op  # written as it is: not an object
    opcode, sources = fields
    return {"id": op_id, "opcode": opcode, "srcs": _array(sources, _ref_doc)}


def _dfg_doc(_, d):
    if (fields := _fields(d, 4)) is None:
        return d  # written as it is: not an object
    name, num_inputs, ops, outputs = fields
    return {
        "name": name,
        "num_inputs": num_inputs,
        "ops": _array(ops, _op_doc),
        "outputs": _array(outputs, _ref_doc),
    }


def serialize_by_encoder(w: Workload) -> str:
    """A DFG is read by position, as a tuple of four values, an op as a tuple of two, and the
    DFGs, ops and refs as a list or a tuple of them; any other value is written as it is."""
    doc = {
        "format": WORKLOAD_FORMAT,
        "dfgs": _array(w.dfgs, _dfg_doc),
        "trace": w.trace,  # as it is: a tuple or a list, the trace or an entry, is a list
    }
    return json.dumps(doc, separators=(",", ":")) + "\n"


def _peak(fn, text: str) -> int:
    """Bytes allocated at the peak of fn(text), its result included."""
    tracemalloc.start()
    try:
        fn(text)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def peak_failures() -> list[str]:
    """One line per seed and layout where parse_workload peaks above its PEAK_BOUNDS entry
    times json.loads on a PEAK_PARAMS workload.  A compact parse that decodes the whole
    document peaks at about 1.0x; an indented parse that keeps every decoded DFG to its end
    peaks at about 1.16-1.19x."""
    found = []
    for seed in (1, 101):
        compact = serialize_workload(generate_random_workload(PEAK_PARAMS, seed))
        indented = json.dumps(json.loads(compact), indent=1)
        for layout, text in (("compact", compact), ("indented", indented)):
            ratio = _peak(parse_workload, text) / _peak(json.loads, text)
            if ratio > PEAK_BOUNDS[layout]:
                found.append(f"peak seed {seed}, {layout}: parse_workload peaks at {ratio:.3f}x "
                             f"json.loads, bound {PEAK_BOUNDS[layout]}")
    return found


def edge_case_workload() -> Workload:
    """Empty ops and outputs; names that need escaping or are not ASCII."""
    add = Operation("add", (~0, ~1))
    names = ["", 'say "hi"', "back\\slash", "caf\u00e9", "\u65e5\u672c", "\U0001f600"]
    return Workload(dfgs=(
        Dfg(name="no ops", num_inputs=2, ops=(), outputs=(~1,)),
        Dfg(name="no outputs", num_inputs=2, ops=(add,), outputs=()),
        Dfg(name="nothing", num_inputs=0, ops=(), outputs=()),
        *(Dfg(name=n, num_inputs=2, ops=(add,), outputs=(0, ~0))
          for n in names),
    ), trace=((0, 1), (2, 3)))


def verdict(build) -> tuple:
    """("built", build()), or the class name and text of the WorkloadError it raises."""
    try:
        return "built", build()
    except WorkloadError as e:
        return type(e).__name__, str(e)


def hand_built_verdicts(dfgs, trace) -> tuple[tuple, tuple]:
    """The verdicts of Workload(dfgs, trace) and of the parse of the encoder's text for it."""
    return (verdict(lambda: Workload(dfgs, trace)),
            verdict(lambda: parse_workload(serialize_by_encoder(_Workload(dfgs, trace)))))


# Values of the JSON types, so that the parse reads back what the encoder writes
NOT_STR = (5, None, ["d"], 1.5, True)
UNPRINTABLE = ("a\nb", "\ud800", "\x7f", "tab\there", "\u2028")
NOT_INT = (2.0, True, "2", None, [2])
NOT_INT_REFS = (1.0, -1.0, True, False, 2.5)  # the encoder writes -1.0 as input index 0.0
UNKNOWN_OPCODES = ("mul", 'x"y', "", "ADD", "load ", None, 5, 1.5, ["add"], {"op": "add"})
NOT_PAIRS = ((0, 1.5), (0, True), (False, 1), ("0", 1), (0,), (0, 1, 2), (), 1, None, "ab",
             "01", (0, None), (0, "1"), {"0": 0},
             {0: 1, 1: 1},  # the file's keys are str: {"0": 1, "1": 1} unpacks to ("0", "1")
             [0, 1])  # the file reads [0, 1] as the pair (0, 1)
NOT_RECORDS = (5, None, 1.5, (), (1, 2, 3), ["load", (~0,)], ["d", 1, (), ()])  # no tuple of 2 or 4
NOT_LISTS = (5, None, 1.5, True, "ab", {"a": 1})  # nor is any a list in the file
SEQUENCES = ("dfgs", "trace", "ops", "outputs", "srcs")
GRID_PARAMS = GeneratorParams(num_dfgs=3, ops_per_dfg=(1, 5), memory_op_fraction=0.3,
                              num_inputs=2, trace_length=4, max_repeat=3)
GRID_COMBOS = 40  # pairs per seed with two to four rules broken together


def _some_op(rng, dfgs):
    """A random DFG index, and a random op index in it (every grid DFG has an op)."""
    i = rng.randrange(len(dfgs))
    return i, rng.randrange(len(dfgs[i].ops))


def _set_op(dfgs, i, k, op):
    dfgs[i] = dfgs[i]._replace(ops=dfgs[i].ops[:k] + (op,) + dfgs[i].ops[k + 1:])


def _any_ref(rng, dfg, k):
    """An int ref that reads op k itself, a later op, no op or no input, or any int."""
    n, ni = len(dfg.ops), dfg.num_inputs if type(dfg.num_inputs) is int else 2
    return rng.choice([k, k + 1, n, n + rng.randrange(10**20), ~ni, ~(ni + rng.randrange(9)),
                       -rng.randrange(1, 2**70), rng.randrange(-2**70, 2**70)])


def _break_name(rng, dfgs, trace):
    i = rng.randrange(len(dfgs))
    dfgs[i] = dfgs[i]._replace(name=rng.choice(NOT_STR + UNPRINTABLE))


def _break_num_inputs(rng, dfgs, trace):
    i = rng.randrange(len(dfgs))
    dfgs[i] = dfgs[i]._replace(num_inputs=rng.choice(NOT_INT + (-1, -2, -10**20)))


def _break_opcode(rng, dfgs, trace):
    i, k = _some_op(rng, dfgs)
    _set_op(dfgs, i, k, dfgs[i].ops[k]._replace(opcode=rng.choice(UNKNOWN_OPCODES)))


def _break_arity(rng, dfgs, trace):
    i, k = _some_op(rng, dfgs)
    opcode, sources = dfgs[i].ops[k]
    count = rng.choice([c for c in range(4) if c != (1 if opcode == "load" else 2)])
    _set_op(dfgs, i, k, Operation(opcode, (sources * 3 + (~0,) * 3)[:count]))


def _break_source(rng, dfgs, trace):
    i, k = _some_op(rng, dfgs)
    opcode, sources = dfgs[i].ops[k]
    j = rng.randrange(len(sources)) if sources else 0
    ref = _any_ref(rng, dfgs[i], k)
    _set_op(dfgs, i, k, Operation(opcode, sources[:j] + (ref,) + sources[j + 1:]))


def _break_ref_type(rng, dfgs, trace):
    i, k = _some_op(rng, dfgs)
    opcode, sources = dfgs[i].ops[k]
    _set_op(dfgs, i, k, Operation(opcode, (rng.choice(NOT_INT_REFS),) + sources[1:]))


def _break_output(rng, dfgs, trace):
    i = rng.randrange(len(dfgs))
    ref = _any_ref(rng, dfgs[i], len(dfgs[i].ops))  # read after every op
    dfgs[i] = dfgs[i]._replace(outputs=dfgs[i].outputs + (ref,))


def _break_store_source(rng, dfgs, trace):
    i = rng.randrange(len(dfgs))
    n = len(dfgs[i].ops)  # a store, then an op that reads it as a value
    store, reader = Operation("store", (~0, ~0)), Operation("add", (n, ~0))
    dfgs[i] = dfgs[i]._replace(ops=dfgs[i].ops + (store, reader))


def _break_dfg_shape(rng, dfgs, trace):
    dfgs[rng.randrange(len(dfgs))] = rng.choice(NOT_RECORDS + (tuple(dfgs[0]) + (0,),))


def _break_op_shape(rng, dfgs, trace):
    i, k = _some_op(rng, dfgs)
    _set_op(dfgs, i, k, rng.choice(NOT_RECORDS + (tuple(dfgs[i].ops[k]) + (0,),)))


def _break_record_types(rng, dfgs, trace):
    """Breaks no rule: a DFG and its ops as plain tuples build as the records they equal."""
    i = rng.randrange(len(dfgs))
    name, num_inputs, ops, outputs = dfgs[i]
    ops = tuple(tuple(op) if isinstance(op, Operation) else op for op in ops)
    dfgs[i] = (name, num_inputs, ops, outputs)


def _break_entry_type(rng, dfgs, trace):
    trace[rng.randrange(len(trace))] = rng.choice(NOT_PAIRS)


def _break_entry_index(rng, dfgs, trace):
    trace[rng.randrange(len(trace))] = (rng.choice([-1, len(dfgs), len(dfgs) + 9, -10**20]), 1)


def _break_repeats(rng, dfgs, trace):
    trace[rng.randrange(len(trace))] = (0, rng.choice([0, -1, -10**20]))


def _break_trace_length(rng, dfgs, trace):
    trace.clear()


def _set_sequence(rng, dfgs, trace, field: str, value):
    """(dfgs, trace) with one of SEQUENCES set to value: dfgs or the trace itself, or the ops
    or outputs of a random DFG that is a tuple of 4, or the sources of a random op in it that
    is a tuple of 2 (its ops where it has none; dfgs where no DFG is a tuple of 4)."""
    records = [i for i, d in enumerate(dfgs) if _fields(d, 4)]
    if field == "trace":
        return dfgs, value
    if field == "dfgs" or not records:
        return value, trace
    i = rng.choice(records)
    name, num_inputs, ops, outputs = dfgs[i]
    if field == "outputs":
        outputs = value
    elif field == "srcs" and (at := [k for k, op in enumerate(ops) if _fields(op, 2)]):
        k = rng.choice(at)
        ops = ops[:k] + ((ops[k][0], value),) + ops[k + 1:]
    else:
        ops = value
    dfgs[i] = (name, num_inputs, ops, outputs)
    return dfgs, trace


def _break_sequence(rng, dfgs, trace):
    return _set_sequence(rng, dfgs, trace, rng.choice(SEQUENCES), rng.choice(NOT_LISTS))


BREAKERS = (_break_name, _break_num_inputs, _break_opcode, _break_arity, _break_source,
            _break_ref_type, _break_output, _break_store_source, _break_op_shape,
            _break_record_types, _break_dfg_shape, _break_entry_type, _break_entry_index,
            _break_repeats, _break_trace_length,
            _break_sequence)  # run in this order: records become tuples late, the lists go last

_STORE_THEN_LOAD = Dfg("d", 1, (Operation("store", (~0, ~0)), Operation("load", (0, ~5))), (1,))
ANCHORS = (  # (dfgs, trace, the parse's exact message)
    ((_STORE_THEN_LOAD,), ((0, 2), (7, 3)),
     "dfgs[0]: op 1: load takes 1 source(s), got 2; "
     "dfgs[0]: op 1 sources op 0, a store, which produces no value; "
     "dfgs[0]: op 1 references nonexistent input 5 (have 1); trace[1]: dfg index 7 out of range"),
    ((Dfg("d", 1, (Operation("load", (~0,)),), (0,)),), ((0, 1), (1, 1)),
     "trace[1]: dfg index 1 out of range"),
    ((Dfg(5, 1, (), ()), _STORE_THEN_LOAD, Dfg("e", 1, (Operation("mul", (~0, ~0)),), ())),
     ((0, 0), (9, 1)), "dfgs[0]: 'name' must be a string; dfgs[2].ops[0]: unknown opcode 'mul'"),
    ((Dfg("d", 1, (Operation("load", (~0,)),), (0,)),), ((0, 1), {0: 1, 1: 1}, "01"),
     "trace[1]: must be [dfg_index, repeat_count]; trace[2]: must be [dfg_index, repeat_count]"),
    ((None, ("d", 1, (("load", (~0,), 0),), ())), ((0, 1),),
     "dfgs[0]: must be an object; dfgs[1].ops[0]: must be an object"),
    ((("d", 1, 5, ()),), ((0, 1),), "dfgs[0]: 'ops' and 'outputs' must be lists"),
    ((("d", 1, (("load", 5),), ()),), ((0, 1),), "dfgs[0].ops[0]: 'srcs' must be a list"),
    (5, ((0, 1),), "'dfgs' must be a list"),
)


def grid(seed: int):
    """(label, dfgs, trace) on a generated workload: intact, each rule broken alone, GRID_COMBOS
    pairs with two to four broken together, and each of SEQUENCES set to each of NOT_LISTS."""
    rng, base = random.Random(seed), generate_random_workload(GRID_PARAMS, seed)
    plans = [(), *((b,) for b in BREAKERS)]
    plans += [tuple(rng.sample(BREAKERS, rng.randint(2, 4))) for _ in range(GRID_COMBOS)]
    for plan in plans:
        dfgs, trace = list(base.dfgs), list(base.trace)
        for brk in sorted(plan, key=BREAKERS.index):  # a breaker may return a new pair
            dfgs, trace = brk(rng, dfgs, trace) or (dfgs, trace)
        yield "+".join(b.__name__[len("_break_"):] for b in plan) or "intact", dfgs, trace
    for field in SEQUENCES:
        for value in NOT_LISTS:
            yield (f"{field} {value!r}",
                   *_set_sequence(rng, list(base.dfgs), list(base.trace), field, value))


def _records(w) -> bool:
    """Whether w is a Workload of Dfg and Operation records, not of plain tuples."""
    return type(w) is Workload and all(
        type(d) is Dfg and all(type(op) is Operation for op in d.ops) for d in w.dfgs)


def construction_mismatches() -> list[str]:
    """One line per grid or anchor pair where the two verdicts differ, or where an anchor's
    verdict is not its message."""
    found = []
    for dfgs, trace, message in ANCHORS:
        for side in hand_built_verdicts(dfgs, trace):
            if side != ("WorkloadSemanticError", message):
                found.append(f"anchor {trace}: got {side!r}")
    for seed in (1, 101):
        for label, dfgs, trace in grid(seed):
            got, want = hand_built_verdicts(dfgs, trace)
            if got != want or (got[0] == "built" and not _records(got[1])):
                found.append(f"seed {seed}, {label}: Workload gives {got!r}, the parse {want!r}")
    return found


def outcome(text: str):
    """What parse_workload makes of `text`: the Workload, or the error's class and message."""
    try:
        return parse_workload(text)
    except WorkloadError as e:
        return type(e), str(e)


def whole_document_outcome(text: str):
    """The outcome of the whole-document parse, found without the compact reader: JSON that
    decodes is parsed re-laid with indent=1, which that reader never reads, and a decode
    error is spelled from json.loads's own error."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        return WorkloadSyntaxError, f"line {e.lineno}, column {e.colno}: {e.msg}"
    return outcome(json.dumps(doc, indent=1))


# Every single-character substitution and insertion from these, on small gen texts
MUTATION_CHARS = '0123456789,:[]{}"aiopdx-\\ \x7f'
MUTATED_PARAMS = GeneratorParams(num_dfgs=2, ops_per_dfg=(2, 3), memory_op_fraction=0.5,
                                 num_inputs=2, trace_length=1, max_repeat=3)
MUTATED_SEEDS = (920, 352)  # 538 and 571 bytes, each passing _one_digit_from_each_op_rule


def _one_digit_from_each_op_rule(w: Workload) -> bool:
    """Whether w holds a load, an op other than a store that reads an op (a digit from reading
    itself, which only the order rule catches) and an op that reads an op listed after a
    store (a digit from reading the store)."""
    readers = [(d.ops[:k], op) for d in w.dfgs for k, op in enumerate(d.ops)
               if any(r >= 0 for r in op.sources)]
    return (any(op.opcode == "load" for d in w.dfgs for op in d.ops)
            and any(op.opcode != "store" for _, op in readers)
            and any(any(o.opcode == "store" for o in before) for before, _ in readers))


def mutated_texts(text: str):
    for i in range(len(text) + 1):
        for c in MUTATION_CHARS:
            yield text[:i] + c + text[i:]
            if text[i:i + 1] not in ("", c):
                yield text[:i] + c + text[i + 1:]


def differential_texts():
    """(label, text): small gen texts with loads and stores and their one-character mutants,
    the hand-built grid's encoder texts, the edge cases and one 200-DFG text."""
    for seed in MUTATED_SEEDS:
        w = generate_random_workload(MUTATED_PARAMS, seed)
        assert _one_digit_from_each_op_rule(w), seed  # so a mutant can break each rule
        text = serialize_workload(w)
        yield f"gen seed {seed}", text
        for mutant in mutated_texts(text):
            yield f"gen seed {seed} mutant", mutant
    for seed in (1, 101):
        for label, dfgs, trace in grid(seed):
            yield f"grid seed {seed}, {label}", serialize_by_encoder(_Workload(dfgs, trace))
    yield "edge cases", serialize_workload(edge_case_workload())
    yield "200 DFGs", serialize_workload(generate_random_workload(PEAK_PARAMS, 1))


def compact_mismatches() -> list[str]:
    """One line per differential text where parse_workload's outcome differs from the
    whole-document parse's."""
    found = []
    for label, text in differential_texts():
        got, want = outcome(text), whole_document_outcome(text)
        if got != want or (type(want) is Workload and not _records(got)):
            found.append(f"{label}: {text!r} reads as {got!r}, the whole document as {want!r}")
    return found


def failures() -> list[str]:
    """One line per fixed-seed workload where the writer, the round trip or the peak fails,
    per hand-built pair whose verdict is not the parse's, and per differential text whose
    compact read is not the whole-document parse's."""
    found = construction_mismatches()
    if found:  # the workloads below are built through the same constructor
        return found
    found = compact_mismatches()
    cases = [("edge cases", edge_case_workload())]
    for seed in (1, 101):
        for label, params in (
                ("map_heavy sizes", GeneratorParams(num_dfgs=1000, ops_per_dfg=(20, 60),
                                                    num_inputs=8, trace_length=1000,
                                                    max_repeat=4)),
                ("memory only", GeneratorParams(num_dfgs=10, memory_op_fraction=1.0,
                                                num_inputs=1, max_repeat=1000))):
            cases.append((f"{label} seed {seed}", generate_random_workload(params, seed)))
    for label, w in cases:
        text = serialize_workload(w)
        if text != serialize_by_encoder(w):
            found.append(f"{label}: serialize_workload differs from the JSON encoder")
        if parse_workload(text) != w:
            found.append(f"{label}: parse_workload(serialize_workload(w)) != w")
    return found + peak_failures()


if __name__ == "__main__":
    lines = failures()
    print("\n".join(lines) or "writer matches the encoder, round trips, hand-built workloads "
          "get the parse's verdicts, gen texts and their mutants read as the whole document "
          "and peak holds")
    sys.exit(1 if lines else 0)
