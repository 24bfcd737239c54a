"""cgralloc benchmark: CLI sessions on seeded workloads, checked by oracles.

Run from the repository root:

    python3 bench/run.py --workload replay_long --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload map_heavy --trace 1     # per-layer spans
    python3 bench/run.py --self-test                        # every check can fail

Each session runs in a fresh interpreter (bench/session.py), one at a time,
until the next one would overrun --seconds.  With --trace 0 the sessions run
untraced and the end-to-end metrics are medians over them.  With --trace 1
traced and untraced sessions alternate; per-layer metrics are medians over
the traced ones and trace.overhead_frac compares the two kinds.  The first
session's outputs are checked against oracles (bench/oracle.py); every later
session must reproduce them byte for byte.  Human-readable lines come first;
the last stdout line is one JSON object (correct, attempted, failed,
metrics).  A report with provenance goes to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import session

ROOT = Path(__file__).resolve().parent.parent
RUN_DEADLINE_S = 170  # a run, its last session included, ends within 180 s

# name: (unit, workloads it applies to, definition) -- printed for every workload.
END_TO_END = {
    "setup_s": ("s", None, "fresh interpreter to workload file written (median)"),
    "session_s": ("s", None, "time of the measured commands of one session (median)"),
    "work_per_s": ("1/s", None, "unit of work per second of the commands doing it (median)"),
    "simulate_exec_per_s": ("executions/s", ("replay_long", "map_heavy"),
                            "sum executions / sum simulate seconds, per session (median)"),
    "simulate_s": ("s", ("replay_long", "map_heavy"), "one simulate command (median)"),
    "map_s": ("s", ("map_heavy",), "one map command (median)"),
    "dse_s": ("s", ("dse_sweep",), "the 3x3 dse sweep (median)"),
    "dse_exec_per_s": ("executions/s", ("dse_sweep",),
                       "executions over points x both policies / dse_s, per session (median)"),
    "verify_checks_per_s": ("checks/s", ("fabric_verify",),
                            "(execute + plan + legality) pivot checks per second (median)"),
    "peak_rss_mb": ("MiB", None, "maximum RSS of a session process (max)"),
    "failed_frac": ("ratio", None, "failed operations / attempted"),
}
JSON_END_TO_END = ("setup_s", "session_s", "work_per_s", "peak_rss_mb")
WORK_UNIT = {"replay_long": "simulated executions", "map_heavy": "simulated executions",
             "dse_sweep": "simulated executions", "fabric_verify": "pivot checks"}


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_session(sdir: Path, workload: str, seed: int, trace: bool, check: bool,
                timeout: float, self_test: bool = False) -> dict:
    sdir.mkdir(parents=True)
    argv = [sys.executable, "-I", str(ROOT / "bench" / "session.py"), "--root", str(ROOT),
            "--workload", workload, "--seed", str(seed), "--trace", str(int(trace)),
            "--check", str(int(check))] + (["--self-test"] if self_test else [])
    spawned = time.monotonic()
    try:
        proc = subprocess.run(argv + ["--spawned-at", repr(spawned)], cwd=sdir,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"session timed out after {timeout:.0f} s"}
    wall = time.monotonic() - spawned
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"session exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    result["traced"] = trace
    return result


def end_to_end(workload: str, sessions: list[dict], scaled: bool = True
               ) -> dict[str, tuple[float, int] | None]:
    """(value, sample count) per END_TO_END metric; None where it does not apply.

    Times are in reference seconds (each session's host seconds times its
    calibration scale), or in raw host seconds with scaled=False.
    """
    def scale(s: dict) -> float:
        return s["scale"] if scaled else 1.0

    def command_s(name: str):
        times = [c["s"] * scale(s) for s in sessions for c in s["commands"] if c["name"] == name]
        return (statistics.median(times), len(times)) if times else None

    n = len(sessions)
    rate = (statistics.median([s["work"] / (s["work_s"] * scale(s)) for s in sessions]), n)
    values = {
        "setup_s": (statistics.median([s["setup_s"] * scale(s) for s in sessions]), n),
        "session_s": (statistics.median([s["session_s"] * scale(s) for s in sessions]), n),
        "work_per_s": rate,
        "simulate_exec_per_s": rate,
        "simulate_s": command_s("simulate"),
        "map_s": command_s("map"),
        "dse_s": command_s("dse"),
        "dse_exec_per_s": rate,
        "verify_checks_per_s": rate,
        "peak_rss_mb": (max(s["peak_rss_mb"] for s in sessions), n),
    }
    return {name: (values.get(name) if apps is None or workload in apps else None)
            for name, (_, apps, _) in END_TO_END.items() if name != "failed_frac"}


def per_layer(sessions: list[dict]) -> dict[str, float]:
    traced = [s for s in sessions if s["traced"]]
    untraced = [s for s in sessions if not s["traced"]]
    layers = {name: statistics.median([s["layers"][name] for s in traced]) for name in traced[0]["layers"]}
    layers["trace.overhead_frac"] = (
        statistics.median([s["session_s"] * s["scale"] for s in traced])
        / statistics.median([s["session_s"] * s["scale"] for s in untraced]) - 1.0)
    return layers


def fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def measure(args: argparse.Namespace) -> int:
    out_dir = ROOT / "bench" / "out"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = out_dir / f"work-{tag}-{os.getpid()}"
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "git_commit": git_commit(ROOT),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    sessions: list[dict] = []
    failures: list[str] = []
    attempted = 0
    start = time.monotonic()
    try:
        while True:
            traced = bool(args.trace) and len(sessions) % 2 == 0
            res = run_session(work_dir / f"s{len(sessions)}", args.workload, args.seed, traced,
                              check=not sessions,
                              timeout=RUN_DEADLINE_S - (time.monotonic() - start))
            attempted += 1
            if "error" in res:
                failures.append(res["error"])
                break
            attempted += res["attempted"]
            failures += res["failures"]
            if sessions:
                attempted += 1
                if res["digests"] != sessions[0]["digests"]:
                    changed = sorted(k for k in res["digests"].keys() | sessions[0]["digests"].keys()
                                     if res["digests"].get(k) != sessions[0]["digests"].get(k))
                    failures.append(f"session {len(sessions)} outputs differ from session 0: {changed}")
            sessions.append(res)
            elapsed = time.monotonic() - start
            expected = statistics.median([s["wall_s"] - s["check_s"] for s in sessions])
            kinds = {s["traced"] for s in sessions}
            if elapsed + 2 * expected > RUN_DEADLINE_S:
                break
            if elapsed + expected > args.seconds and (not args.trace or len(kinds) == 2):
                break
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    untraced = [s for s in sessions if not s["traced"]]
    if not untraced or (args.trace and len(untraced) == len(sessions)):  # need both kinds
        for f in failures:
            print(f"FAILED: {f}", file=sys.stderr)
        return 1

    failed = len(failures)
    e2e = end_to_end(args.workload, untraced)
    raw = end_to_end(args.workload, untraced, scaled=False)
    provenance["cgralloc_version"] = sessions[0]["version"]
    provenance["digests"] = sessions[0]["digests"]
    print(f"bench {args.workload} seed={args.seed} trace={args.trace} sessions={len(sessions)} "
          f"commit={provenance['git_commit']} cgralloc={provenance['cgralloc_version']} "
          f"python={provenance['python']} nproc={provenance['nproc']} "
          f"load={provenance['loadavg_start'][0]:.2f}")
    print(f"  work unit: {WORK_UNIT[args.workload]}; times in reference seconds, host seconds x "
          f"calibration scale (median {statistics.median(s['scale'] for s in untraced):.4f})")
    for name, (unit, _, definition) in END_TO_END.items():
        if name == "failed_frac":
            print(f"  {name:<22} {failed / attempted:<12.6g} {unit:<13} {failed} of {attempted}")
        elif e2e[name] is None:
            print(f"  {name:<22} {'n/a':<12} {unit:<13} not measured by this workload")
        else:
            value, n = e2e[name]
            print(f"  {name:<22} {value:<12.6g} {unit:<13} n={n}: {definition}; "
                  f"raw host {raw[name][0]:.6g}")
    for f in failures[:20]:
        print(f"  FAILED: {f}")

    report = {"provenance": provenance, "end_to_end": {k: v and v[0] for k, v in e2e.items()},
              "end_to_end_raw_host": {k: v and v[0] for k, v in raw.items()},
              "failed": failed, "attempted": attempted, "failures": failures,
              "sessions": [{k: v for k, v in s.items() if k not in ("spans", "digests")}
                           for s in sessions]}
    if args.trace:
        metrics = per_layer(sessions)
        units = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())
                 ["per_layer"]}
        for name, value in metrics.items():
            print(f"  {name:<28} {fmt(value):<14} {units.get(name, '')}")
        report["per_layer"] = metrics
        out = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
        spans = [dict(span, session=i) for i, s in enumerate(sessions) if s["spans"]
                 for span in s["spans"]]
        (out_dir / f"{tag}.spans.json").write_text(json.dumps(spans))
    else:
        out = {name: {"value": e2e[name][0], "unit": END_TO_END[name][0]}
               for name in JSON_END_TO_END}
    (out_dir / f"{tag}.json").write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0


def self_test() -> int:
    """One checked session per workload, then each corruption must be flagged."""
    work_dir = ROOT / "bench" / "out" / f"selftest-{os.getpid()}"
    ok = True
    try:
        for name in session.WORKLOADS:
            res = run_session(work_dir / name, name, 1, trace=False, check=True,
                              timeout=RUN_DEADLINE_S, self_test=True)
            if "error" in res:
                print(f"{name}: {res['error']}")
                return 1
            clean = len(res["failures"])
            ok &= clean == 0
            print(f"{name}: clean outputs, failed_frac={clean / res['attempted']:.6g} "
                  f"({clean} of {res['attempted']})")
            for corruption, flagged in res["self_test"].items():
                ok &= flagged > 0
                print(f"{name}: {corruption}: failed_frac={flagged / res['attempted']:.6g} "
                      f"({flagged} of {res['attempted']}) -> {'flagged' if flagged else 'MISSED'}")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(session.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int,
                    default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not (ROOT / "src" / "cgralloc" / "__init__.py").is_file():
        print(f"no cgralloc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    if args.workload is None:
        ap.error("--workload is required")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
