"""The traced benchmark wraps cgralloc functions by attribute name.

`bench/tracing.install` replaces module attributes such as
`dse.run_scenario_with_map` with span-recording wrappers.  A rename in the
package would make it fail or silently record nothing, so this runs it, in a
separate interpreter because it patches modules in place, against the current
package and checks that every layer span still appears.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import tracing
from cgralloc import cli

tracer = tracing.Tracer()
tracing.install(tracer)
for argv in (["gen", "--seed", "1", "--dfgs", "10", "--trace-len", "20", "-o", "w.json"],
             ["simulate", "w.json", "--preset", "BE", "--policy", "rotating"],
             ["dse", "w.json", "-L", "8", "16", "-W", "2"]):
    assert cli.main(argv) == 0, argv
print(json.dumps(sorted({s["name"] for s in tracer.spans})))
"""


def test_bench_tracer_still_finds_every_layer(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "src"), str(ROOT / "bench")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=True,
    )
    names = set(json.loads(proc.stdout.splitlines()[-1]))
    assert {"dse.scenario", "dse.replay", "mapper.map", "dse.sweep"} <= names
    assert {"workload.gen", "workload.parse", "metrics.summarize", "aging.call"} <= names
