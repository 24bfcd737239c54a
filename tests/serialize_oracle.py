"""The workload text by way of the stdlib JSON encoder: the reference that
`workload.serialize_workload` is checked against, and the parse's memory check.

`serialize_by_encoder` builds the whole document as dicts and lists, then hands
it to ``json.dumps(doc, separators=(",", ":"))``, so layout, escaping and
number spelling are the encoder's, not a restatement of the hand-laid writer.

`peak_failures` bounds the tracemalloc peak of `parse_workload(text)` by that
of `json.loads(text)`, in two layouts.  `gen`'s compact text is decoded one DFG
at a time, so the parse holds the records and one decoded DFG, not the
document: about 0.16x, bounded at 0.3x.  Any other layout, here the indented
one, is decoded whole, and a parse that drops each decoded DFG once its records
are built never holds more than the decoded document: about 1.0x, bounded at
1.05x.

Run as a script (no pytest or Hypothesis needed) to check, on fixed seeds,
writer == encoder, the round trip and the peak bound; it exits 1 on any
failure:

    PYTHONPATH=src:tests python tests/serialize_oracle.py
"""

import json
import sys
import tracemalloc

from cgralloc.workload import (WORKLOAD_FORMAT, Dfg, GeneratorParams, Operation, Workload,
                               generate_random_workload, parse_workload, serialize_workload)

PEAK_BOUNDS = {"compact": 0.3, "indented": 1.05}  # parse_workload's peak over json.loads's
PEAK_PARAMS = GeneratorParams(num_dfgs=200, ops_per_dfg=(20, 60), num_inputs=8)


def _ref(r: int) -> dict:
    """The file's spelling of a ref: op r when r >= 0, input -1 - r otherwise."""
    return {"kind": "op", "index": r} if r >= 0 else {"kind": "input", "index": -1 - r}


def serialize_by_encoder(w: Workload) -> str:
    doc = {
        "format": WORKLOAD_FORMAT,
        "dfgs": [
            {
                "name": d.name,
                "num_inputs": d.num_inputs,
                "ops": [
                    {
                        "id": op_id,
                        "opcode": op.opcode,
                        "srcs": [_ref(r) for r in op.sources],
                    }
                    for op_id, op in enumerate(d.ops)
                ],
                "outputs": [_ref(r) for r in d.outputs],
            }
            for d in w.dfgs
        ],
        "trace": [[idx, reps] for idx, reps in w.trace],
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


def failures() -> list[str]:
    """One line per fixed-seed workload where the writer, the round trip or the peak fails."""
    cases = [("edge cases", edge_case_workload())]
    for seed in (1, 101):
        for label, params in (
                ("map_heavy sizes", GeneratorParams(num_dfgs=1000, ops_per_dfg=(20, 60),
                                                    num_inputs=8, trace_length=1000,
                                                    max_repeat=4)),
                ("memory only", GeneratorParams(num_dfgs=10, memory_op_fraction=1.0,
                                                num_inputs=1, max_repeat=1000))):
            cases.append((f"{label} seed {seed}", generate_random_workload(params, seed)))
    found = []
    for label, w in cases:
        text = serialize_workload(w)
        if text != serialize_by_encoder(w):
            found.append(f"{label}: serialize_workload differs from the JSON encoder")
        if parse_workload(text) != w:
            found.append(f"{label}: parse_workload(serialize_workload(w)) != w")
    return found + peak_failures()


if __name__ == "__main__":
    lines = failures()
    print("\n".join(lines) or "writer matches the encoder, round trips and peak hold")
    sys.exit(1 if lines else 0)
