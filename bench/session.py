"""One benchmark session in a fresh interpreter: set up, run, check.

run.py starts this file once per session:

    python3 -I bench/session.py --root ROOT --workload NAME --seed N \
        --spawned-at T --trace 0|1 --check 0|1 [--self-test]

with the session directory as working directory.  Set-up time runs from T
(the parent's CLOCK_MONOTONIC reading just before it spawned this process)
to the generated workload file being written.  The measured commands call
the public entry point `cgralloc.cli.main(argv)`, except fabric_verify,
which reaches `cgralloc.fabric` directly because no CLI command does.
Calibration kernel passes (calibration.py) run before, between and after
them, untimed.  Checks run after the measured part, untimed.  Times in the
result are raw host seconds; `scale` converts them to reference seconds.  The last stdout line is one
JSON object describing the session.
"""

import argparse
import contextlib
import hashlib
import io
import json
import random
import resource
import sys
import time
from pathlib import Path

WORKLOAD_FILE = "workload.json"
PRESET_DIMS = {"BE": (16, 2), "BP": (32, 4), "BU": (32, 8)}  # (cols, rows), as documented
DSE_COLS, DSE_ROWS = [8, 16, 32], [2, 4, 8]
FABRIC_PRESET = "BP"


def _simulate(preset: str, policy: str, heatmap: bool) -> list[str]:
    argv = ["simulate", WORKLOAD_FILE, "--preset", preset, "--policy", policy,
            "--summary", f"summary-{preset}-{policy}.json"]
    return argv + (["--heatmap", f"heatmap-{preset}-{policy}.csv"] if heatmap else [])


# Each workload: `cgralloc gen` arguments (besides --seed) and measured commands.
WORKLOADS = {
    "replay_long": (
        ["--dfgs", "200", "--trace-len", "20000"],
        [_simulate(p, pol, True) for p in PRESET_DIMS for pol in ("fixed", "rotating")],
    ),
    "map_heavy": (
        ["--dfgs", "1000", "--ops-min", "20", "--ops-max", "60", "--inputs", "8",
         "--trace-len", "1000", "--max-repeat", "4"],
        [["map", WORKLOAD_FILE, "--preset", p, "--dump"] for p in ("BP", "BU")]
        + [_simulate(p, "rotating", False) for p in PRESET_DIMS],
    ),
    "dse_sweep": (
        ["--dfgs", "200", "--trace-len", "4000"],
        [["dse", WORKLOAD_FILE, "-L", *map(str, DSE_COLS), "-W", *map(str, DSE_ROWS),
          "-o", "dse.json"]],
    ),
    "fabric_verify": (["--dfgs", "200"], []),
}


def run_cli(cli, tracer, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with tracer.span(f"cmd.{argv[0]}"):
            start = time.perf_counter()
            rc = cli.main(argv)
            seconds = time.perf_counter() - start
    return {"argv": argv, "rc": rc, "s": seconds, "stdout": out.getvalue(), "stderr": err.getvalue()}


def set_up_fabric(tracer, seed: int):
    """Parse and map the workload on BP; seeded inputs and memory per DFG."""
    from cgralloc import DoesNotFitError, FabricDims, map_dfg, parse_workload

    text = Path(WORKLOAD_FILE).read_text(encoding="utf-8")
    with tracer.span("workload.parse", bytes=len(text)):
        workload = parse_workload(text)
    cols, rows = PRESET_DIMS[FABRIC_PRESET]
    dims = FabricDims(num_cols=cols, num_rows=rows)
    vcs = []
    for dfg in workload.dfgs:
        with tracer.span("mapper.map", attempted=1, mapped=0, ops_placed=0) as rec:
            try:
                vc = map_dfg(dfg, dims)
            except DoesNotFitError:
                vc = None
            else:
                rec["attrs"].update(mapped=1, ops_placed=len(vc.placements))
        vcs.append(vc)
    rng = random.Random(seed)
    stimuli = [([rng.randrange(64) for _ in range(d.num_inputs)],
                {addr: rng.getrandbits(32) for addr in range(64)}) for d in workload.dfgs]
    return dims, vcs, stimuli


def verify_fabric(tracer, cal, dims, vcs, stimuli) -> list[dict]:
    """Every mapped DFG at every pivot: plan, allocate + legality, execute."""
    from cgralloc import (MemoryModel, Pivot, allocate, check_physical_legality, execute,
                          reconfig_plan)

    pivots = [Pivot(r, c) for r in range(dims.num_rows) for c in range(dims.num_cols)]
    records = []
    for index, vc in enumerate(vcs):
        if vc is None:
            continue
        inputs, memory = stimuli[index]
        initial = MemoryModel(memory)
        with tracer.span("cmd.verify"):
            start = time.perf_counter()
            with tracer.span("fabric.plan"):
                plans = [reconfig_plan(p, dims) for p in pivots]
            with tracer.span("allocation.allocate"):
                allocs = [allocate(vc, p, dims) for p in pivots]
            with tracer.span("fabric.legality") as rec:
                violations = [check_physical_legality(a, plan, dims) for a, plan in zip(allocs, plans)]
            with tracer.span("fabric.execute", checks=len(pivots)):
                results = [execute(vc, p, list(inputs), initial.copy(), dims) for p in pivots]
            seconds = time.perf_counter() - start
        rec["attrs"]["violations"] = sum(map(len, violations))
        # keep distinct (outputs, memory) results only, so the benchmark's own
        # retention does not dominate peak RSS
        variants: dict[tuple, list[int]] = {}
        for k, r in enumerate(results):
            variants.setdefault((r.outputs, tuple(sorted(r.memory.as_dict().items()))), []).append(k)
        records.append({"dfg": index, "s": seconds, "pivots": len(pivots), "variants": variants,
                        "violations": {k: v for k, v in enumerate(violations) if v}})
        cal.between()
    return records


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_outputs(ck, name: str, commands: list[dict], fabric: list[dict], stimuli) -> None:
    """Oracle checks over every output of the session (see oracle.py)."""
    import oracle

    workload = oracle.load_workload(WORKLOAD_FILE)
    placements = {}

    def placed(cols, rows):
        if (cols, rows) not in placements:
            placements[cols, rows] = oracle.place_all(workload, cols, rows)
        return placements[cols, rows]

    for cmd in commands:
        argv = cmd["argv"]
        if argv[0] == "simulate":
            preset, policy = argv[argv.index("--preset") + 1], argv[argv.index("--policy") + 1]
            cols, rows = PRESET_DIMS[preset]
            tag = f"simulate {preset} {policy}"
            doc = json.loads(Path(argv[argv.index("--summary") + 1]).read_text())
            ck.check(f"{tag}: dims", (doc["num_cols"], doc["num_rows"]) == (cols, rows))
            oracle.check_summary(ck, tag, doc, workload, placed(cols, rows), policy == "rotating")
            if "--heatmap" in argv:
                text = Path(argv[argv.index("--heatmap") + 1]).read_text()
                oracle.check_heatmap(ck, tag, text, workload, placed(cols, rows),
                                     {i for i, _ in doc["skipped_dfgs"]}, cols, rows,
                                     policy == "rotating")
        elif argv[0] == "map":
            preset = argv[argv.index("--preset") + 1]
            oracle.check_map_dump(ck, f"map {preset}", cmd["rc"], cmd["stdout"], cmd["stderr"],
                                  workload, placed(*PRESET_DIMS[preset]))
        elif argv[0] == "dse":
            records = json.loads(Path("dse.json").read_text())
            oracle.check_dse(ck, records, workload, DSE_COLS, DSE_ROWS)
    if name == "fabric_verify":
        bp = placed(*PRESET_DIMS[FABRIC_PRESET])
        verified = {rec["dfg"] for rec in fabric}
        ck.check("fabric: mapped DFGs", verified == {i for i, p in enumerate(bp) if p is not None})
        for rec in fabric:
            i = rec["dfg"]
            inputs, memory = stimuli[i]
            oracle.check_fabric(ck, f"fabric dfg{i}", workload["dfgs"][i], bp[i], inputs, memory,
                                rec["variants"], rec["violations"])


def self_test(name: str, commands: list[dict], fabric: list[dict], stimuli) -> dict[str, int]:
    """Corrupt one output at a time; each corruption must fail some check."""
    import oracle

    def failures(cmds=commands, fab=fabric) -> int:
        ck = oracle.Checker()
        check_outputs(ck, name, cmds, fab, stimuli)
        return len(ck.failures)

    def rewrite(path: str, change) -> int:
        original = Path(path).read_text()
        Path(path).write_text(change(original))
        try:
            return failures()
        finally:
            Path(path).write_text(original)

    def bump_first_cell(text: str) -> str:
        header, first, rest = text.split("\n", 2)
        executions = int(header.rsplit("=", 1)[1])
        cells = first.split(",")
        cells[0] = f"{float(cells[0]) + 1 / executions:.6f}"
        return "\n".join([header, ",".join(cells), rest])

    def edit_json(key: str, scale: float):
        def change(text: str) -> str:
            doc = json.loads(text)
            target = doc[0] if isinstance(doc, list) else doc
            target[key] *= scale
            return json.dumps(doc)
        return change

    found = {}
    if name == "replay_long":
        found["heatmap cell bumped"] = rewrite("heatmap-BE-fixed.csv", bump_first_cell)
        found["rotating heatmap cell bumped"] = rewrite("heatmap-BU-rotating.csv", bump_first_cell)
        found["summary max wrong"] = rewrite("summary-BP-rotating.json", edit_json("max", 1.001))
        found["summary avg wrong"] = rewrite("summary-BE-fixed.json", edit_json("avg", 1.001))
    elif name == "map_heavy":
        cmd = dict(commands[0])
        lines = cmd["stdout"].split("\n")
        op, row, col, width = lines[1].strip("()").split(", ")
        lines[1] = f"({op}, {row}, {int(col) + 1}, {width})"
        cmd["stdout"] = "\n".join(lines)
        found["map placement moved"] = failures(cmds=[cmd] + commands[1:])
        found["summary max wrong"] = rewrite("summary-BU-rotating.json", edit_json("max", 0.999))
    elif name == "dse_sweep":
        found["dse lifetime_improvement wrong"] = rewrite("dse.json",
                                                          edit_json("lifetime_improvement", 1.001))
        found["dse baseline max wrong"] = rewrite("dse.json", edit_json("baseline_max_util", 1.001))
    elif name == "fabric_verify":
        (outputs, memory), _ = next(iter(fabric[0]["variants"].items()))
        changed = ((outputs[0] ^ 1,) + outputs[1:], memory)
        rec = dict(fabric[0], variants={**fabric[0]["variants"], changed: [5]})
        found["fabric output changed"] = failures(fab=[rec] + fabric[1:])
        rec = dict(fabric[0], violations={0: ["injected"]})
        found["fabric violation reported"] = failures(fab=[rec] + fabric[1:])
    return found


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--check", type=int, choices=(0, 1), default=1)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    root = Path(args.root).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "bench")]

    import cgralloc
    from cgralloc import cli

    if not Path(cgralloc.__file__).resolve().is_relative_to(root / "src"):
        print(f"cgralloc imported from {cgralloc.__file__}, not from the checkout", file=sys.stderr)
        return 3
    import tracing
    from calibration import Calibration

    tracer = tracing.Tracer() if args.trace else tracing.NullTracer()
    if args.trace:
        tracing.install(tracer)

    gen_args, argvs = WORKLOADS[args.workload]
    with tracer.span("setup"):
        gen = run_cli(cli, tracer, ["gen", "--seed", str(args.seed), *gen_args, "-o", WORKLOAD_FILE])
        if args.workload == "fabric_verify":
            fabric_setup = set_up_fabric(tracer, args.seed)
    setup_s = time.monotonic() - args.spawned_at

    cal = Calibration()
    cal.sample(4)
    commands = []
    for argv in argvs:
        commands.append(run_cli(cli, tracer, argv))
        cal.between()
    fabric = verify_fabric(tracer, cal, *fabric_setup) if args.workload == "fabric_verify" else []
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    cal.sample(4)

    import oracle

    start = time.perf_counter()
    ck = oracle.Checker()
    for cmd in [gen] + commands:
        expected = (0, 4) if cmd["argv"][0] == "map" else (0,)
        ck.check(f"{cmd['argv'][0]} exit code", cmd["rc"] in expected,
                 f"rc={cmd['rc']}: {cmd['stderr'][-300:]}")
    for i, cmd in enumerate(commands):
        Path(f"cmd{i}.out").write_text(f"rc={cmd['rc']}\n{cmd['stdout']}")
        Path(f"cmd{i}.err").write_text(cmd["stderr"])
    if fabric:
        Path("fabric-results.json").write_text(json.dumps(
            [[rec["dfg"], [[out, mem, pivots] for (out, mem), pivots in rec["variants"].items()],
              sorted(rec["violations"].items())] for rec in fabric], separators=(",", ":")))
    stimuli = fabric_setup[2] if args.workload == "fabric_verify" else None
    if args.check and gen["rc"] == 0:
        check_outputs(ck, args.workload, commands, fabric, stimuli)
    corruptions = self_test(args.workload, commands, fabric, stimuli) if args.self_test else {}
    check_s = time.perf_counter() - start

    if args.workload == "fabric_verify":
        work = sum(rec["pivots"] for rec in fabric)
        work_s = sum(rec["s"] for rec in fabric)
    elif args.workload == "dse_sweep":
        work = 2 * sum(d["total_executions"] for d in json.loads(Path("dse.json").read_text()))
        work_s = commands[0]["s"]
    else:
        sims = [c for c in commands if c["argv"][0] == "simulate"]
        work = sum(json.loads(Path(c["argv"][c["argv"].index("--summary") + 1]).read_text())
                   ["total_executions"] for c in sims)
        work_s = sum(c["s"] for c in sims)

    result = {
        "version": cgralloc.__version__,
        "scale": cal.scale,
        "kernel_s": cal.samples,
        "setup_s": setup_s,
        "commands": [{"name": c["argv"][0], "rc": c["rc"], "s": c["s"]} for c in commands]
        + [{"name": "verify", "rc": 0, "s": rec["s"]} for rec in fabric],
        "session_s": sum(c["s"] for c in commands) + sum(rec["s"] for rec in fabric),
        "work": work,
        "work_s": work_s,
        "peak_rss_mb": peak_rss_mb,
        "check_s": check_s,
        "attempted": ck.attempted,
        "failures": ck.failures,
        "self_test": corruptions,
        "digests": {p.name: digest(p) for p in sorted(Path(".").iterdir()) if p.is_file()},
        "layers": tracing.layer_metrics(tracer.spans, cal.scale) if args.trace else None,
        "spans": tracer.spans if args.trace else None,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
