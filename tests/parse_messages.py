"""Malformed workload documents and the exact message `parse_workload` must give for each.

`tests/test_workload.py` runs every case under pytest.  The table needs no
pytest, so interpreters without it check the same messages by running this file:

    PYTHONPATH=src:tests python tests/parse_messages.py

Each case is parsed in two layouts, ``json.dumps(doc)`` and `gen`'s compact one, which
`parse_workload` reads by regular expressions; both must give the same message.
It prints each mismatch and exits 1 if there is any.
"""

import json
import sys

from cgralloc.workload import WorkloadSemanticError, parse_workload


def _ref(kind, index):
    return {"kind": kind, "index": index}


def _doc(ops, trace=([0, 1],), outputs=(("op", 0),), num_inputs=2, name="d"):
    return _dfgs({"name": name, "num_inputs": num_inputs, "ops": list(ops),
                  "outputs": [_ref(k, i) for k, i in outputs]}, trace=trace)


def _dfgs(*dfgs, trace=([0, 1],)):
    return {"format": 1, "dfgs": list(dfgs), "trace": list(trace)}


_ADD = {"id": 0, "opcode": "add", "srcs": [_ref("input", 0), _ref("input", 1)]}

# (document, exact WorkloadSemanticError message), recorded before the parser
# switched to dict lookups; every problem is reported, in document order.
# The four cases before the negative indexes were recorded when the DFG rules moved
# into the parse walk, and the negative indexes before refs became ints in memory.
MALFORMED = {
    # a newline would forge lines of `map --dump`; a lone surrogate cannot be printed
    "name with newlines": (_doc([_ADD], name="a\n(0, 0, 0, 1)\ndfg 7 forged"),
                           "dfgs[0]: 'name' must be printable text"),
    "name with a lone surrogate": (_doc([_ADD], name="\ud800"),
                                   "dfgs[0]: 'name' must be printable text"),
    "bad opcode": (_doc([{**_ADD, "opcode": "mul"}]),
                   "dfgs[0].ops[0]: unknown opcode 'mul'"),
    "list opcode": (_doc([{**_ADD, "opcode": []}]),
                    "dfgs[0].ops[0]: unknown opcode []"),
    "missing opcode": (_doc([{"id": 0, "srcs": _ADD["srcs"]}]),
                       "dfgs[0].ops[0]: unknown opcode None"),
    "bad kind": (_doc([{**_ADD, "srcs": [_ref("input", 0), _ref("const", 1)]}]),
                 "dfgs[0].ops[0].srcs[1]: kind must be 'input' or 'op'"),
    "dict kind": (_doc([{**_ADD, "srcs": [_ref("input", 0), _ref({}, 1)]}]),
                  "dfgs[0].ops[0].srcs[1]: kind must be 'input' or 'op'"),
    "bool index": (_doc([{**_ADD, "srcs": [_ref("input", 0), _ref("input", True)]}]),
                   "dfgs[0].ops[0].srcs[1]: 'index' must be an integer"),
    # ("input", 1) is read first, and true and 1.0 compare equal to 1
    "bool index after its int": (
        _doc([{**_ADD, "srcs": [_ref("input", 1), _ref("input", True)]}]),
        "dfgs[0].ops[0].srcs[1]: 'index' must be an integer"),
    "float index after its int": (
        _doc([{**_ADD, "srcs": [_ref("input", 1), _ref("input", 1.0)]}]),
        "dfgs[0].ops[0].srcs[1]: 'index' must be an integer"),
    "bool trace entry": (_doc([_ADD], trace=([0, True],)),
                         "trace[0]: must be [dfg_index, repeat_count]"),
    "short trace entry": (_doc([_ADD], trace=([0],)),
                          "trace[0]: must be [dfg_index, repeat_count]"),
    # recorded before each entry was unpacked once: these unpack into two strs or not at all
    "two-char trace entry": (_doc([_ADD], trace=("ab",)),
                             "trace[0]: must be [dfg_index, repeat_count]"),
    "two-key trace entry": (_doc([_ADD], trace=({"a": 1, "b": 2},)),
                            "trace[0]: must be [dfg_index, repeat_count]"),
    "long trace entry": (_doc([_ADD], trace=([0, 1, 2],)),
                         "trace[0]: must be [dfg_index, repeat_count]"),
    "empty trace entry": (_doc([_ADD], trace=([],)),
                          "trace[0]: must be [dfg_index, repeat_count]"),
    "float repeat count": (_doc([_ADD], trace=([0, 1.0],)),
                           "trace[0]: must be [dfg_index, repeat_count]"),
    "forward reference": (
        _doc([{"id": 0, "opcode": "add", "srcs": [_ref("op", 1), _ref("input", 0)]},
              {"id": 1, "opcode": "sub", "srcs": [_ref("op", 0), _ref("input", 1)]}]),
        "dfgs[0]: op 0 references op 1, which is not listed before it"),
    "forward and self references": (
        _doc([{"id": 0, "opcode": "add", "srcs": [_ref("op", 1), _ref("input", 0)]},
              {"id": 1, "opcode": "add", "srcs": [_ref("op", 2), _ref("input", 0)]},
              {"id": 2, "opcode": "xor", "srcs": [_ref("op", 1), _ref("op", 2)]}]),
        "dfgs[0]: op 0 references op 1, which is not listed before it; "
        "dfgs[0]: op 1 references op 2, which is not listed before it; "
        "dfgs[0]: op 2 references op 2, which is not listed before it"),
    "store used as a value": (
        _doc([{"id": 0, "opcode": "store", "srcs": [_ref("input", 0), _ref("input", 1)]},
              {"id": 1, "opcode": "add", "srcs": [_ref("op", 0), _ref("input", 1)]}]),
        "dfgs[0]: op 1 sources op 0, a store, which produces no value; "
        "dfgs[0]: output 0 sources op 0, a store, which produces no value"),
    "several problems": (
        _doc([{"id": 1, "opcode": "load", "srcs": [_ref("input", 0), _ref("input", 3)]}],
             trace=([1, 0], "x", [0, 2]), outputs=(("op", 4),), num_inputs=1),
        "dfgs[0]: op at position 0 has id 1; ids must be dense 0..0; "
        "dfgs[0]: op 1: load takes 1 source(s), got 2; "
        "dfgs[0]: op 1 references nonexistent input 3 (have 1); "
        "dfgs[0]: output 0 references nonexistent op 4; "
        "trace[0]: dfg index 1 out of range; trace[0]: repeat count 0 must be >= 1; "
        "trace[1]: must be [dfg_index, repeat_count]"),
    # one past the last input, read by an op and by an output
    "input index equal to num_inputs": (
        _doc([{**_ADD, "srcs": [_ref("input", 0), _ref("input", 2)]}],
             outputs=(("input", 2),)),
        "dfgs[0]: op 0 references nonexistent input 2 (have 2); "
        "dfgs[0]: output 0 references nonexistent input 2 (have 2)"),
    "negative num_inputs": (_doc([], outputs=(), num_inputs=-1),
                            "dfgs[0]: num_inputs is -1, must be >= 0"),
    # each op's problems are reported with that op, its wrong id among them
    "wrong id reported with its op": (
        _doc([{"id": 0, "opcode": "add", "srcs": [_ref("op", 0), _ref("input", 0)]},
              {"id": 5, "opcode": "add", "srcs": [_ref("input", 0), _ref("input", 0)]}]),
        "dfgs[0]: op 0 references op 0, which is not listed before it; "
        "dfgs[0]: op at position 1 has id 5; ids must be dense 0..1"),
    # a wrong id does not hide a store read as a value
    "store used as a value among wrong ids": (
        _doc([{"id": 0, "opcode": "store", "srcs": [_ref("input", 0), _ref("input", 1)]},
              {"id": 7, "opcode": "add", "srcs": [_ref("op", 0), _ref("input", 0)]}]),
        "dfgs[0]: op at position 1 has id 7; ids must be dense 0..1; "
        "dfgs[0]: op 7 sources op 0, a store, which produces no value; "
        "dfgs[0]: output 0 sources op 0, a store, which produces no value"),
    # a negative index read as a ref would be another value: ~-1 is op 0, -1 is input 0
    "negative input index in srcs": (
        _doc([{**_ADD, "srcs": [_ref("input", 0), _ref("input", -1)]}]),
        "dfgs[0]: op 0 references nonexistent input -1 (have 2)"),
    "negative input index in outputs": (
        _doc([_ADD], outputs=(("input", -1),)),
        "dfgs[0]: output 0 references nonexistent input -1 (have 2)"),
    "negative op index": (
        _doc([_ADD, {"id": 1, "opcode": "add", "srcs": [_ref("op", -1), _ref("input", 0)]}],
             outputs=(("op", -1),)),
        "dfgs[0]: op 1 references nonexistent op -1; "
        "dfgs[0]: output 0 references nonexistent op -1"),
    # The shape texts below were recorded before each op's refs were read in the op walk.
    "op not an object": (_doc([_ADD, [0, "add"]]), "dfgs[0].ops[1]: must be an object"),
    "string id": (_doc([{**_ADD, "id": "0"}]), "dfgs[0].ops[0]: 'id' must be an integer"),
    "bool id": (_doc([{**_ADD, "id": False}]), "dfgs[0].ops[0]: 'id' must be an integer"),
    "missing srcs": (_doc([{"id": 0, "opcode": "add"}]), "dfgs[0].ops[0]: 'srcs' must be a list"),
    "src not an object": (_doc([{**_ADD, "srcs": [_ref("input", 0), 1]}]),
                          "dfgs[0].ops[0].srcs[1]: must be an object"),
    # a shape problem of a ref is reported even after a range problem of the same op
    "src not an object after a bad range": (
        _doc([{**_ADD, "srcs": [_ref("input", 9), None]}]),
        "dfgs[0].ops[0].srcs[1]: must be an object"),
    "output not an object": (
        _dfgs({"name": "d", "num_inputs": 2, "ops": [_ADD], "outputs": [_ref("op", 0), "op 0"]}),
        "dfgs[0].outputs[1]: must be an object"),
    "output kind": (_doc([_ADD], outputs=(("op", 0), ("value", 0))),
                    "dfgs[0].outputs[1]: kind must be 'input' or 'op'"),
    "output index": (_doc([_ADD], outputs=(("op", "0"),)),
                     "dfgs[0].outputs[0]: 'index' must be an integer"),
    "output missing index": (_doc([_ADD], outputs=(("input", None),)),
                             "dfgs[0].outputs[0]: 'index' must be an integer"),
    # a bad op ends its DFG's walk: the outputs are not read
    "bad op before bad outputs": (_doc([{**_ADD, "srcs": {}}], outputs=(("x", 0),)),
                                  "dfgs[0].ops[0]: 'srcs' must be a list"),
    "name not a string": (_doc([_ADD], name=7), "dfgs[0]: 'name' must be a string"),
    "num_inputs not an integer": (_doc([_ADD], num_inputs=2.0),
                                  "dfgs[0]: 'num_inputs' must be an integer"),
    "ops not a list": (_dfgs({"name": "d", "num_inputs": 2, "ops": {}, "outputs": []}),
                       "dfgs[0]: 'ops' and 'outputs' must be lists"),
    "outputs missing": (_dfgs({"name": "d", "num_inputs": 2, "ops": []}),
                        "dfgs[0]: 'ops' and 'outputs' must be lists"),
    # every malformed DFG is reported, and its violations and the trace's are not
    "two malformed dfgs": (
        _dfgs({"name": "a", "num_inputs": -1, "ops": [_ADD], "outputs": [_ref("op", 5)]},
              "b",
              {"name": "c", "num_inputs": 2, "ops": [_ADD], "outputs": [[]]},
              trace=([9, 0],)),
        "dfgs[1]: must be an object; dfgs[2].outputs[0]: must be an object"),
    "top level not an object": ([], "top level must be an object"),
    "missing format": ({"dfgs": [], "trace": []}, "unsupported format None, expected 1"),
    "format 2": ({"format": 2, "dfgs": [], "trace": []}, "unsupported format 2, expected 1"),
    "format true": ({"format": True, "dfgs": [], "trace": []},
                    "unsupported format True, expected 1"),
    "dfgs not a list": ({"format": 1, "dfgs": {}, "trace": []}, "'dfgs' must be a list"),
    "trace not a list": ({"format": 1, "dfgs": [], "trace": None}, "'trace' must be a list"),
    # recorded when gen's layout got its own reader, which reads this trace
    "trace a number": ({**_doc([_ADD]), "trace": 5}, "'trace' must be a list"),
    "empty trace": (_doc([_ADD], trace=()), "empty trace"),
}


def layouts(doc) -> dict[str, str]:
    """The document spaced as ``json.dumps`` writes it, and compact as `gen` writes it."""
    return {"spaced": json.dumps(doc), "compact": json.dumps(doc, separators=(",", ":")) + "\n"}


def mismatches() -> list[str]:
    """One line per case and layout whose parse does not raise exactly its recorded message."""
    found = []
    for case, (doc, message) in MALFORMED.items():
        for layout, text in layouts(doc).items():
            try:
                parse_workload(text)
                got = "no error"
            except WorkloadSemanticError as e:
                got = str(e)
            if got != message:
                found.append(f"{case} ({layout}): got {got!r}, expected {message!r}")
    return found


if __name__ == "__main__":
    lines = mismatches()
    print("\n".join(lines) or f"{len(MALFORMED)} parse messages match in both layouts")
    sys.exit(1 if lines else 0)
