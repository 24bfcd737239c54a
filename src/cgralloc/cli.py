"""Command-line front end: gen, map, simulate, dse, age.

Exit codes: 0 success, 2 invalid arguments, 3 input/output failure,
4 mapping infeasibility.  All randomness flows from --seed.

Each command runs with the cyclic garbage collector paused: its data is acyclic,
so reference counting frees it, and rescans of the parsed workload are waste.

`map --dump` placement grammar: one header line `dfg <index> <name>` per
DFG followed by one `(op, row, col_start, width)` tuple line per op.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys

from . import aging, dse, metrics
from .allocation import AllocationPolicy, pivot_at
from .fabric import plan_table, reconfig_plan
from .mapper import DoesNotFitError, FabricDims, map_dfg
from .workload import (
    GeneratorParams,
    WorkloadError,
    WorkloadSyntaxError,
    generate_random_workload,
    parse_workload,
    serialize_workload,
)

EXIT_OK = 0
EXIT_IO = 3
EXIT_NO_FIT = 4


def _add_dims_args(p: argparse.ArgumentParser, nargs: str | None = None) -> None:
    p.add_argument("-L", "--cols", type=int, nargs=nargs, help="fabric columns")
    p.add_argument("-W", "--rows", type=int, nargs=nargs, help="fabric rows")
    p.add_argument("--preset", choices=sorted(dse.PRESETS),
                   help="named design point (mutually exclusive with -L/-W)")


def _resolve_dims(args: argparse.Namespace, parser: argparse.ArgumentParser) -> tuple:
    """Columns and rows of --preset, or as given to -L and -W."""
    if args.preset is not None:
        if args.cols is not None or args.rows is not None:
            parser.error("--preset and explicit -L/-W are mutually exclusive")
        preset = dse.PRESETS[args.preset]
        return preset.num_cols, preset.num_rows
    if args.cols is None or args.rows is None:
        parser.error("need either --preset or both -L and -W")
    return args.cols, args.rows


def _fabric(args: argparse.Namespace, parser: argparse.ArgumentParser,
            num_config_lines: int = 4) -> FabricDims:
    cols, rows = _resolve_dims(args, parser)
    try:
        return FabricDims(num_cols=cols, num_rows=rows, num_config_lines=num_config_lines)
    except ValueError as e:
        parser.error(str(e))


def _add_ref_lifetime_arg(p: argparse.ArgumentParser) -> None:
    # lifetime is ref_lifetime / u: temperature, vdd and the threshold cancel out of it
    p.add_argument("--ref-lifetime", type=float, default=3.0,
                   help="years to threshold at full utilization")


def _aging(parser: argparse.ArgumentParser, **fields: float) -> aging.AgingParams:
    try:
        return aging.AgingParams(**fields)
    except ValueError as e:
        parser.error(str(e))


def _read_workload(path: str):
    with open(path, encoding="utf-8") as f:
        try:
            text = f.read()
        except UnicodeDecodeError as e:
            raise WorkloadSyntaxError(f"not UTF-8 text: {e}") from None
    return parse_workload(text)


def _write_json(path: str, doc: object) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2, allow_nan=False)
        f.write("\n")


def cmd_gen(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    try:
        params = GeneratorParams(
            num_dfgs=args.dfgs,
            ops_per_dfg=(args.ops_min, args.ops_max),
            memory_op_fraction=args.mem_frac,
            num_inputs=args.inputs,
            trace_length=args.trace_len,
            max_repeat=args.max_repeat,
        )
        workload = generate_random_workload(params, args.seed)
    except ValueError as e:
        parser.error(str(e))
    with open(args.output, "w", encoding="utf-8") as f:
        f.write(serialize_workload(workload))
    return EXIT_OK


def cmd_map(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    dims = _fabric(args, parser)
    workload = _read_workload(args.workload)
    misfits, dump = [], []
    for i, dfg in enumerate(workload.dfgs):
        try:
            vc = map_dfg(dfg, dims)
        except DoesNotFitError as e:  # keep the text: e's traceback would hold this frame
            misfits.append(f"dfg {i} {dfg.name}: {e}")
            continue
        if args.dump:
            dump.append(f"dfg {i} {dfg.name}")
            dump.extend(f"({op}, {r}, {c}, {w})" for op, (r, c, w) in enumerate(vc.placements))
    if dump:  # one write; a print() per line is about 3x slower on 1000-DFG dumps
        print("\n".join(dump))
    if misfits:
        print("\n".join(misfits), file=sys.stderr)
        return EXIT_NO_FIT
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    dims = _fabric(args, parser, args.lines)
    aging_params = _aging(parser, reference_lifetime_years=args.ref_lifetime)
    workload = _read_workload(args.workload)
    policy = AllocationPolicy(args.policy)
    try:
        result, umap = dse.run_scenario_with_map(dims, workload, aging_params, (policy,))
    except dse.EmptyScenarioError as e:
        print(str(e), file=sys.stderr)
        return EXIT_NO_FIT
    if args.heatmap:
        with open(args.heatmap, "w", encoding="utf-8") as f:
            f.write(metrics.export_heatmap(umap))
    if args.summary:
        _write_json(args.summary, result.run_doc(args.policy))
    if args.dump_plan:  # the plan of the run's final execution
        pivot = pivot_at(policy, result.total_executions - 1, dims)
        print(f"pivot=({pivot.row}, {pivot.col})")
        print(plan_table(reconfig_plan(pivot, dims)), end="")
    print(result.run_line(args.policy))
    return EXIT_OK


def cmd_dse(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    cols, rows = _resolve_dims(args, parser)
    if args.preset is not None:
        cols, rows = [cols], [rows]
    aging_params = _aging(parser, reference_lifetime_years=args.ref_lifetime)
    workload = _read_workload(args.workload)
    try:
        results = dse.sweep(cols, rows, workload, aging_params)
    except ValueError as e:
        parser.error(str(e))
    print(dse.results_table(results), end="")
    if args.output:
        _write_json(args.output, [r.to_dict() for r in results])
    return EXIT_OK


def cmd_age(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    aging_params = _aging(parser, delay_threshold=args.threshold,
                          reference_lifetime_years=args.ref_lifetime)
    u = args.u
    if u is None and args.summary is not None:
        with open(args.summary, encoding="utf-8") as f:
            try:
                u = json.load(f)["max"]
            except (ValueError, RecursionError, KeyError, TypeError):
                u = None
        if isinstance(u, bool) or not isinstance(u, (int, float)) or not 0 <= u <= 1:
            print(f"{args.summary}: not a summary JSON with a numeric \"max\" in [0, 1]",
                  file=sys.stderr)
            return EXIT_IO
    if u is None:
        parser.error("need --u or --summary")
    try:
        life = aging.lifetime(aging_params, u)
        lines = [f"lifetime(u={u:g}) = {dse.text_or_unbounded(life, '{:.2f} years')}"]
        if args.u2 is not None:
            life2 = aging.lifetime(aging_params, args.u2)
            improvement = aging.lifetime_improvement(u, args.u2)
            lines += [f"lifetime(u={args.u2:g}) = {dse.text_or_unbounded(life2, '{:.2f} years')}",
                      f"improvement = {dse.text_or_unbounded(improvement, '{:.2f}x')}"]
        if args.curve:
            points = aging.delay_curve(aging_params, u, args.horizon, args.points)
    except ValueError as e:
        parser.error(str(e))
    print("\n".join(lines))
    if args.curve:
        with open(args.curve, "w", encoding="utf-8") as f:
            f.write(aging.delay_curve_csv(points))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cgralloc",
        description="Utilization-balancing configuration allocation simulator "
                    "for rectangular CGRA fabrics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a random workload file")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--dfgs", type=int, default=20)
    p_gen.add_argument("--ops-min", type=int, default=3)
    p_gen.add_argument("--ops-max", type=int, default=10)
    p_gen.add_argument("--mem-frac", type=float, default=0.15)
    p_gen.add_argument("--inputs", type=int, default=4)
    p_gen.add_argument("--trace-len", type=int, default=100)
    p_gen.add_argument("--max-repeat", type=int, default=8)
    p_gen.add_argument("-o", "--output", required=True)
    p_gen.set_defaults(func=cmd_gen, parser=p_gen)

    p_map = sub.add_parser("map", help="place every DFG of a workload")
    p_map.add_argument("workload")
    _add_dims_args(p_map)
    p_map.add_argument("--dump", action="store_true", help="print placements")
    p_map.set_defaults(func=cmd_map, parser=p_map)

    p_sim = sub.add_parser("simulate", help="replay a trace and record utilization")
    p_sim.add_argument("workload")
    _add_dims_args(p_sim)
    p_sim.add_argument("--lines", type=int, default=4,
                       help="configuration lines, read by --dump-plan (default 4)")
    _add_ref_lifetime_arg(p_sim)
    p_sim.add_argument("--policy", choices=[p.value for p in AllocationPolicy],
                       default="fixed")
    p_sim.add_argument("--heatmap", help="write per-cell utilization CSV here")
    p_sim.add_argument("--summary", help="write summary JSON here")
    p_sim.add_argument("--dump-plan", action="store_true",
                       help="print the reconfiguration plan of the final execution")
    p_sim.set_defaults(func=cmd_simulate, parser=p_sim)

    p_dse = sub.add_parser("dse", help="paired policy comparison over fabric sizes")
    p_dse.add_argument("workload")
    _add_dims_args(p_dse, nargs="+")
    _add_ref_lifetime_arg(p_dse)
    p_dse.add_argument("-o", "--output", help="write results JSON here")
    p_dse.set_defaults(func=cmd_dse, parser=p_dse)

    p_age = sub.add_parser("age", help="lifetime and delay-curve queries")
    p_age.add_argument("--u", type=float, default=None, help="utilization in [0,1]")
    p_age.add_argument("--u2", type=float, default=None,
                       help="second utilization; prints the improvement ratio")
    p_age.add_argument("--summary", help="take u from a simulate summary JSON")
    p_age.add_argument("--threshold", type=float, default=0.10,
                       help="delay-degradation threshold fraction, read by --curve")
    _add_ref_lifetime_arg(p_age)
    p_age.add_argument("--curve", help="write a delay-curve CSV here")
    p_age.add_argument("--horizon", type=float, default=10.0, help="curve span in years")
    p_age.add_argument("--points", type=int, default=101)
    p_age.set_defaults(func=cmd_age, parser=p_age)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    collecting = gc.isenabled()
    gc.disable()
    try:
        args, extra = parser.parse_known_args(argv)
        if extra:  # reported by the subcommand's parser, so its usage line is shown
            args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
        return args.func(args, args.parser)
    except SystemExit as e:  # parser.error, inside a command with its subcommand's usage
        return int(e.code or 0)
    except WorkloadError as e:
        print(f"bad workload file: {e}", file=sys.stderr)
        return EXIT_IO
    except OSError as e:
        print(str(e), file=sys.stderr)
        return EXIT_IO
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
