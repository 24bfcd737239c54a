"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --workloads replay_long map_heavy --seeds 1 2 3 4 5 6 7 8 9 10

Runs bench/run.py once per (workload, seed), one run at a time, and prints
per metric the median over seeds and the interquartile range as a share of
that median (statistics.quantiles, n=4), next to the metric's bound from
BENCHMARK.json.  A benchmark is steady when every spread but setup_s's stays
well inside its bound.  With --out, the raw values are written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--out")
    args = ap.parse_args()

    values: dict[str, dict[str, list[float]]] = {}
    ok = True
    for workload in args.workloads:
        values[workload] = {}
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            result = json.loads(proc.stdout.splitlines()[-1]) if proc.returncode == 0 else None
            if result is None or not result["correct"]:
                print(f"{workload} seed {seed}: FAILED\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
                ok = False
                continue
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
        for metric in bench["end_to_end"]:
            vals = values[workload].get(metric["name"], [])
            if len(vals) < 2:
                continue
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            print(f"{workload:<14} {metric['name']:<12} median={med:<12.6g} "
                  f"iqr/median={(q3 - q1) / med:.4f} bound={metric['bound']} n={len(vals)}")
    if args.out:
        Path(args.out).write_text(json.dumps(values, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
