"""The workload text by way of the stdlib JSON encoder: the reference that
`workload.serialize_workload` is checked against.

It builds the whole document as dicts and lists, then hands it to
``json.dumps(doc, indent=2)``, so layout, escaping and number spelling are
the encoder's, not a restatement of the fixed-layout writer.
"""

import json

from cgralloc.workload import WORKLOAD_FORMAT, Workload


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
                        "srcs": [{"kind": r.kind, "index": r.index} for r in op.sources],
                    }
                    for op in d.ops
                ],
                "outputs": [{"kind": r.kind, "index": r.index} for r in d.outputs],
            }
            for d in w.dfgs
        ],
        "trace": [[idx, reps] for idx, reps in w.trace],
    }
    return json.dumps(doc, indent=2) + "\n"
