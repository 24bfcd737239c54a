"""Dataflow workloads: straight-line DFGs plus an execution trace.

A workload bundles one or more dataflow graphs with a trace that says which
graph executes and how many times in a row.  Each graph is a straight-line
region written in program order: each operation reads external inputs or
results of operations listed before it in the same graph, with no loops and
no branches.  So the list order is the dependency order; a reference to the
reading op itself or to a later op is an error.  ``parse_workload`` checks every rule, and so
does building a ``Workload``, on its file form: any iterable but a ``str`` or a ``dict`` is a
list there, and any other value meets the parse's own check and message.  A bare ``Dfg`` meets
only ``map_dfg``'s order guard.

Value semantics are 32-bit two's-complement with wrapping arithmetic.  Shift
amounts use the low 5 bits.  ``cmplt`` compares signed values and yields 0/1.
``shr`` is a logical right shift.

Workload file format (JSON, ``"format": 1``), indented here for reading.  ``gen`` writes it
compact; a parse reads that exact layout by regular expressions, one split of each DFG's ops,
and decodes any other layout, and any text breaking a rule, whole (9x the bytes on map_heavy)::

    {
      "format": 1,
      "dfgs": [
        {"name": "dfg0",
         "num_inputs": 2,
         "ops": [
           {"id": 0, "opcode": "add",
            "srcs": [{"kind": "input", "index": 0},
                     {"kind": "input", "index": 1}]}
         ],
         "outputs": [{"kind": "op", "index": 0}]}
      ],
      "trace": [[0, 1]]
    }

In memory an op is ``(opcode, sources)`` and its id is its position (the file's ``"id"``
is checked, not kept).  A ref is a plain ``int``: ``k >= 0`` reads op k and ``~i``
(``-1 - i``) reads input i: the output above is ``0``, the two sources ``-1, -2``.

``OPCODES`` lists the opcode strings.  ``load`` takes one source (the
address); ``store`` takes two (address, value) and produces no value; every
other opcode takes exactly two sources.
"""

from __future__ import annotations

import json
import random
import re
from collections.abc import Iterable
from functools import cache, partial
from itertools import chain, compress, count
from operator import lt
from typing import NamedTuple

WORKLOAD_FORMAT = 1
WORD_MASK = 0xFFFFFFFF
_COMPACT_HEAD = f'{{"format":{WORKLOAD_FORMAT},"dfgs":['  # serialize_workload's first bytes
_decode = json.JSONDecoder().raw_decode  # the trace: one value at an index; skips no whitespace


class WorkloadError(ValueError):
    """Base class for workload file and structure errors."""


class WorkloadSyntaxError(WorkloadError):
    """Input text is not well-formed (position reported in the message)."""


class WorkloadSemanticError(WorkloadError):
    """Structurally valid text describing an invalid workload."""

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = list(violations)


ALU_OPCODES = ("add", "sub", "and", "or", "xor", "shl", "shr", "cmplt")
OPCODES = ALU_OPCODES + ("load", "store")


def arity(opcode: str) -> int:
    """Number of sources an opcode takes."""
    return 1 if opcode == "load" else 2


_OPCODES = {op: op for op in OPCODES}  # one shared str, where json.loads makes one per value

# gen's layout: a DFG's head; an op and its comma (group 3, set for any opcode but load, reads
# a second source; a longer ref text is read whole, so no try at an op reads more than 2 x 64
# characters and reading time stays linear in the text); the outputs; one ref, its "}" cut
_DFG_HEAD = re.compile(r'\{"name":"([ !#-\[\]-~]*)","num_inputs":(0|[1-9][0-9]*),"ops":\[')
_OP = re.compile(r'\{"id":([0-9]+),"opcode":"(load|(?:%s|store)())","srcs":\[(\{[^}]{0,64}'
                 r'(?(3)\},\{[^}]{0,64}))\}\]\}(?:,(?=\{)|\Z)' % "|".join(ALU_OPCODES))
_OUTPUTS = re.compile(r'\],"outputs":\[(?:(\{[^\]]*)\})?\]\}')
_REF = re.compile(r'\{"kind":"(?:(input)|op)","index":(0|[1-9][0-9]*)')


class Operation(NamedTuple):
    opcode: str
    sources: tuple[int, ...]  # refs: k reads op k, ~i reads input i


class Dfg(NamedTuple):
    name: str
    num_inputs: int
    ops: tuple[Operation, ...]  # op k is ops[k]
    outputs: tuple[int, ...]


class _Workload(NamedTuple):
    dfgs: tuple[Dfg, ...]
    trace: tuple[tuple[int, int], ...]  # (dfg index, repeat count)


class Workload(_Workload):
    """A workload that meets every file rule: construction, _make and _replace read a DFG (a
    4-tuple) and an op (a 2-tuple) as objects, an iterable but a str or dict as a list, a ref
    r < 0 as input ~r and any other as op r, as parse_workload does, raise its error, keep its
    records."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # _replace builds through _make

    def __new__(cls, dfgs, trace):
        def listed(value, read):  # [read(position, item), ...]; any other value goes in as is
            is_list = isinstance(value, Iterable) and not isinstance(value, (str, dict))
            return [*map(read, count(), value)] if is_list else value

        def ref(_, r) -> dict:  # a non-int ref is an op ref whose index is not an integer
            neg = type(r) is int and r < 0
            return {"kind": "input", "index": ~r} if neg else {"kind": "op", "index": r}
        shaped = lambda v, n: isinstance(v, tuple) and len(v) == n  # else the file has no object
        op = lambda k, o: shaped(o, 2) and {"id": k, "opcode": o[0], "srcs": listed(o[1], ref)}
        dfg = lambda _, d: shaped(d, 4) and {"name": d[0], "num_inputs": d[1],
                                             "ops": listed(d[2], op), "outputs": listed(d[3], ref)}
        entry = lambda _, e: None if isinstance(e, dict) else e  # a file's dict keys are str
        return _checked(listed(dfgs, dfg), listed(trace, entry))


# ---------------------------------------------------------------------------
# File I/O
# ---------------------------------------------------------------------------

def parse_workload(text: str) -> Workload:
    """Parse and validate a workload file; round-trips with serialize_workload."""
    if (streamed := _parse_compact(text)) is not None:  # gen's layout; any other is read whole
        return streamed
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise WorkloadSyntaxError(f"line {e.lineno}, column {e.colno}: {e.msg}") from e
    except RecursionError:
        raise WorkloadSyntaxError("nesting too deep") from None
    except ValueError as e:  # an int over the digit limit; its subclass JSONDecodeError is above
        raise WorkloadSyntaxError(str(e)) from None

    if not isinstance(doc, dict):
        raise WorkloadSemanticError(["top level must be an object"])
    fmt = doc.get("format")
    if type(fmt) is not int or fmt != WORKLOAD_FORMAT:  # true and 1.0 compare equal to 1
        raise WorkloadSemanticError([f"unsupported format {fmt!r}, expected {WORKLOAD_FORMAT}"])

    return _checked(doc.get("dfgs"), doc.get("trace"))


def _checked(raw_dfgs: object, raw_trace: object) -> Workload:
    """Raises a dfgs or trace that is not a list, the malformed DFGs alone, or every violation."""
    if not isinstance(raw_dfgs, list):
        raise WorkloadSemanticError(["'dfgs' must be a list"])
    if not isinstance(raw_trace, list):
        raise WorkloadSemanticError(["'trace' must be a list"])
    malformed: list[str] = []
    violations: list[str] = []  # reported only if every DFG is well-formed
    dfgs = []
    for di, raw in enumerate(raw_dfgs):
        try:
            dfgs.append(_parse_dfg(raw, f"dfgs[{di}]", violations))
        except _Malformed as e:
            malformed.append(e.args[0])
        raw_dfgs[di] = None  # the records just built reuse its memory: the peak is `doc` alone
    if malformed:
        raise WorkloadSemanticError(malformed)

    trace = _parse_trace(raw_trace, len(dfgs), violations)
    if violations:
        raise WorkloadSemanticError(violations)
    return _workload((tuple(dfgs), trace))


def _parse_compact(text: str) -> Workload | None:
    """gen's layout, read by the patterns above: the whole-document parse's Workload, or None
    where the text deviates from that layout or breaks a rule (that parse then reports it)."""
    if not text.startswith(_COMPACT_HEAD):
        return None
    @cache  # per parse, as is refs
    def ref(t: str) -> int:  # '{"kind":"input","index":1' is ~1, '{"kind":"op","index":1' 1
        if (m := _REF.fullmatch(t)) is None:
            raise ValueError(t)
        return ~int(m[2]) if m[1] else int(m[2])
    refs = cache(lambda t: tuple(map(ref, t.split("},"))))  # a srcs or outputs text, "}" cut
    at, dfgs, ids = len(_COMPACT_HEAD) - 1, [], []  # at the "[" before dfg 0
    try:
        while text.startswith("," if dfgs else "[", at):
            head = _DFG_HEAD.match(text, at + 1)
            if not (tail := head and _OUTPUTS.search(text, head.end())):
                return None
            parts = _OP.split(text[head.end():tail.start()])  # per op: gap, id, opcode, _, srcs
            n, num_inputs = len(parts) // 5, int(head[2])
            ids += map(str, range(len(ids), n))
            srcs, outputs = [*map(refs, parts[4::5])], refs(tail[1]) if tail[1] else ()
            opcodes = [*map(_OPCODES.__getitem__, parts[2::5])]
            stores = {*compress(range(n), map("store".__eq__, opcodes))}
            if (any(parts[::5]) or parts[1::5] != ids[:n] or max(outputs, default=-1) >= n
                    or not all(map(lt, map(max, srcs), range(n)))
                    or min(chain(outputs, *srcs), default=0) < -num_inputs
                    or stores and not stores.isdisjoint(chain(outputs, *srcs))):
                return None
            dfgs.append(Dfg(head[1], num_inputs, tuple(map(_operation, zip(opcodes, srcs))),
                            outputs))
            at = tail.end()
        if not text.startswith('],"trace":', at):
            return None
        raw_trace, at = _decode(text, at + len('],"trace":'))
    except (ValueError, RecursionError):  # not a ref, a number over the digit limit, the trace
        return None
    if not isinstance(raw_trace, list) or text[at:].rstrip(" \t\n\r") != "}":  # not isspace()
        return None
    trace = _parse_trace(raw_trace, len(dfgs), violations := [])
    return None if violations else _workload((tuple(dfgs), trace))


def _parse_trace(raw_trace: list, num_dfgs: int, violations: list[str]) -> tuple:
    if not raw_trace:
        violations.append("empty trace")
    trace = []
    for ti, entry in enumerate(raw_trace):
        try:  # a decoded value unpacks into two only as a 2-list, 2-key object or 2-char str
            idx, reps = entry
        except (TypeError, ValueError):
            idx = reps = None
        if type(idx) is not int or type(reps) is not int:
            violations.append(f"trace[{ti}]: must be [dfg_index, repeat_count]")
            continue
        if not 0 <= idx < num_dfgs:
            violations.append(f"trace[{ti}]: dfg index {idx} out of range")
        if reps < 1:
            violations.append(f"trace[{ti}]: repeat count {reps} must be >= 1")
        trace.append((idx, reps))
    return tuple(trace)


def _parse_dfg(raw: object, where: str, violations: list[str]) -> Dfg:
    """One DFG, its broken rules appended to `violations`; raises _Malformed on a shape problem.

    One walk reads each op and its refs, then the outputs with the same ref loop.  A ref is
    range-checked before it becomes an int (~-1 would read op 0); a bad one is a violation."""
    if not isinstance(raw, dict):
        raise _Malformed(f"{where}: must be an object")
    name = raw.get("name")
    num_inputs = raw.get("num_inputs")
    raw_ops = raw.get("ops")
    raw_outputs = raw.get("outputs")
    if not isinstance(name, str):
        raise _Malformed(f"{where}: 'name' must be a string")
    if not name.isprintable():
        raise _Malformed(f"{where}: 'name' must be printable text")
    if type(num_inputs) is not int:
        raise _Malformed(f"{where}: 'num_inputs' must be an integer")
    if not isinstance(raw_ops, list) or not isinstance(raw_outputs, list):
        raise _Malformed(f"{where}: 'ops' and 'outputs' must be lists")
    if num_inputs < 0:
        violations.append(f"{where}: num_inputs is {num_inputs}, must be >= 0")

    n = len(raw_ops)
    ops = []
    for oi, rop in enumerate([*raw_ops, None]):
        if oi == n:  # after every op, so none is listed later
            op_id, raw_refs = None, raw_outputs
        else:
            if not isinstance(rop, dict):
                raise _Malformed(f"{where}.ops[{oi}]: must be an object")
            raw_opcode, op_id, raw_refs = rop.get("opcode"), rop.get("id"), rop.get("srcs")
            opcode = _OPCODES.get(raw_opcode) if type(raw_opcode) is str else None
            if opcode is None:
                raise _Malformed(f"{where}.ops[{oi}]: unknown opcode {raw_opcode!r}")
            num_srcs = arity(opcode)
            if type(op_id) is not int:
                raise _Malformed(f"{where}.ops[{oi}]: 'id' must be an integer")
            if not isinstance(raw_refs, list):
                raise _Malformed(f"{where}.ops[{oi}]: 'srcs' must be a list")
            if op_id != oi:
                violations.append(f"{where}: op at position {oi} has id {op_id}; "
                                  f"ids must be dense 0..{n - 1}")
            if len(raw_refs) != num_srcs:
                violations.append(f"{where}: op {op_id}: {opcode} takes {num_srcs} source(s), "
                                  f"got {len(raw_refs)}")
        refs = []
        for k, ref in enumerate(raw_refs):
            if not isinstance(ref, dict):
                raise _bad_ref(where, oi, op_id, k, "must be an object")
            kind, index = ref.get("kind"), ref.get("index")
            if kind != "input" and kind != "op":
                raise _bad_ref(where, oi, op_id, k, "kind must be 'input' or 'op'")
            if type(index) is not int:  # true and 1.0 compare equal to 1
                raise _bad_ref(where, oi, op_id, k, "'index' must be an integer")
            if kind == "input":
                if 0 <= index < num_inputs:
                    refs.append(~index)
                    continue
                problem = f"references nonexistent input {index} (have {num_inputs})"
            elif not 0 <= index < n:
                problem = f"references nonexistent op {index}"
            elif index >= oi:
                problem = f"references op {index}, which is not listed before it"
            elif ops[index][0] == "store":
                problem = f"sources op {index}, a store, which produces no value"
            else:
                refs.append(index)
                continue
            reader = f"output {k}" if op_id is None else f"op {op_id}"
            violations.append(f"{where}: {reader} {problem}")
        if op_id is None:
            return Dfg(name, num_inputs, tuple(ops), tuple(refs))
        ops.append(_operation((opcode, tuple(refs))))


_operation = partial(tuple.__new__, Operation)  # builds the record in C, with no Python frame
_workload = partial(tuple.__new__, Workload)  # unchecked: for the records a parse or gen built


class _Malformed(Exception):
    """A DFG whose shape cannot be read; args: (the problem, with its location)."""


def _bad_ref(where: str, oi: int, op_id: int | None, k: int, problem: str) -> _Malformed:
    at = f"outputs[{k}]" if op_id is None else f"ops[{oi}].srcs[{k}]"
    return _Malformed(f"{where}.{at}: {problem}")


def serialize_workload(w: Workload) -> str:
    """Canonical text form, exactly ``json.dumps(doc, separators=(",", ":")) + "\\n"`` of
    the document the module docstring shows: compact, no whitespace between tokens;
    parse_workload(serialize_workload(w)) == w."""
    ref = cache(lambda r: f'{{"kind":"input","index":{~r}}}' if r < 0
                else f'{{"kind":"op","index":{r}}}')  # per call, as is the text of each ref list
    refs = cache(lambda rs: ",".join(map(ref, rs)))
    dfgs = []
    for d in w.dfgs:
        ops = [f'{{"id":{op_id},"opcode":"{opcode}","srcs":[{refs(sources)}]}}'
               for op_id, (opcode, sources) in enumerate(d.ops)]
        dfgs.append(f'{{"name":{json.dumps(d.name)},"num_inputs":{d.num_inputs},'
                    f'"ops":[{",".join(ops)}],"outputs":[{refs(d.outputs)}]}}')
    trace = ",".join([f"[{idx},{reps}]" for idx, reps in w.trace])
    return f'{{"format":{WORKLOAD_FORMAT},"dfgs":[{",".join(dfgs)}],"trace":[{trace}]}}\n'


# ---------------------------------------------------------------------------
# Synthetic workload generation
# ---------------------------------------------------------------------------

MAX_OUTPUTS = 3  # a generated DFG exposes 1..MAX_OUTPUTS of its values
MAX_INPUTS = 2**16  # the generator lists every input of a DFG before it draws


class GeneratorParams(NamedTuple):
    """Knobs for synthetic workload generation.

    The size distribution of real translated regions is not prescribed
    anywhere; these defaults are a pragmatic choice, not a derived one.
    """

    num_dfgs: int = 20
    ops_per_dfg: tuple[int, int] = (3, 10)
    memory_op_fraction: float = 0.15
    num_inputs: int = 4
    trace_length: int = 100
    max_repeat: int = 8


def generate_random_workload(params: GeneratorParams, seed: int) -> Workload:
    """Deterministic synthetic workload; all generated DFGs are valid.  It makes exactly the
    draws Random.choice, randint and randrange would, in their order, which the golden "gen"
    digest and tests/gen_oracle.py pin.  Raises ValueError for a count or seed that is not an
    int, a negative seed, or infeasible parameters (zero inputs: every op needs a source).
    """
    if type(params.ops_per_dfg) is not tuple or len(params.ops_per_dfg) != 2:
        raise ValueError(f"ops_per_dfg must be a (lo, hi) pair, got {params.ops_per_dfg!r}")
    lo, hi = params.ops_per_dfg
    for name, x in (("num_dfgs", params.num_dfgs), ("ops_per_dfg", lo), ("ops_per_dfg", hi),
                    ("num_inputs", params.num_inputs), ("trace_length", params.trace_length),
                    ("max_repeat", params.max_repeat), ("seed", seed)):
        if type(x) is not int:  # below() skips randrange's int checks; bools are not counts
            raise ValueError(f"{name} must be an int, got {x!r}")
    if seed < 0:  # CPython seeds with abs(seed): -1 would draw the workload of seed 1
        raise ValueError(f"seed must be a non-negative int, got {seed}")
    if params.num_dfgs < 1:
        raise ValueError("num_dfgs must be >= 1")
    if not 1 <= lo <= hi:
        raise ValueError(f"ops_per_dfg range ({lo}, {hi}) must satisfy 1 <= lo <= hi")
    if type(fraction := params.memory_op_fraction) not in (int, float) or not 0 <= fraction <= 1:
        raise ValueError("memory_op_fraction must be in [0, 1]")
    if not 1 <= params.num_inputs <= MAX_INPUTS:
        raise ValueError(f"num_inputs must be in 1..{MAX_INPUTS} (ops need source values)")
    if params.trace_length < 1:
        raise ValueError("trace_length must be >= 1")
    if params.max_repeat < 1:
        raise ValueError("max_repeat must be >= 1")

    rng = random.Random(seed)
    below = rng._randbelow  # the one draw choice(s), randint(a, b) and randrange(n) make
    dfgs = []
    for di in range(params.num_dfgs):
        available = [~i for i in range(params.num_inputs)]
        ops = []
        for oid in range(lo + below(hi - lo + 1)):
            if rng.random() < params.memory_op_fraction:
                opcode = "load" if rng.random() < 0.5 else "store"
            else:
                opcode = ALU_OPCODES[below(len(ALU_OPCODES))]
            n = len(available)
            first = available[below(n)]  # a load's one source; every other opcode draws two
            ops.append(_operation((opcode, (first,) if opcode == "load"
                                   else (first, available[below(n)]))))
            if opcode != "store":
                available.append(oid)
        outputs = tuple(rng.sample(available, min(len(available), 1 + below(MAX_OUTPUTS))))
        dfgs.append(Dfg(f"dfg{di}", params.num_inputs, tuple(ops), outputs))
    return _workload((tuple(dfgs), tuple([(below(params.num_dfgs), 1 + below(params.max_repeat))
                                          for _ in range(params.trace_length)])))
