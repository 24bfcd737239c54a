"""The workload text by way of the stdlib JSON encoder: the reference that
`workload.serialize_workload` is checked against.

It builds the whole document as dicts and lists, then hands it to
``json.dumps(doc, indent=2)``, so layout, escaping and number spelling are
the encoder's, not a restatement of the fixed-layout writer.
"""

import json

from cgralloc.workload import WORKLOAD_FORMAT, Workload


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
                        "id": op.id,
                        "opcode": op.opcode,
                        "srcs": [_ref(r) for r in op.sources],
                    }
                    for op in d.ops
                ],
                "outputs": [_ref(r) for r in d.outputs],
            }
            for d in w.dfgs
        ],
        "trace": [[idx, reps] for idx, reps in w.trace],
    }
    return json.dumps(doc, indent=2) + "\n"
