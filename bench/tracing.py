"""In-memory spans around the cgralloc layer functions the CLI calls.

The traced run installs wrappers on module attributes (the names the CLI and
dse look up at call time), so the program itself is unchanged.  Each span
records its name, start, end, parent span and command span.  Spans are
opened per layer call, never per simulated execution: replay's per-execution
allocate/record calls stay inside the dse.replay span.  Bookkeeping that
derives counts runs in `bench.*` spans so it is not charged to the CLI.
"""

from __future__ import annotations

import functools
import itertools
from contextlib import contextmanager, nullcontext
from time import perf_counter_ns

class NullTracer:
    """Tracing off: the same call sites, no recording."""

    def span(self, name: str, **attrs):
        return nullcontext({"attrs": attrs})


class Tracer:
    """Spans kept in memory; each links to its parent and to its root span
    (a measured command, or the session's set-up)."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._ids = itertools.count()

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1] if self._stack else None
        rec = {"id": next(self._ids), "parent": parent["id"] if parent else None,
               "name": name, "attrs": attrs}
        rec["command"] = parent["command"] if parent else rec["id"]
        self._stack.append(rec)
        rec["start_ns"] = perf_counter_ns()
        try:
            yield rec
        finally:
            rec["end_ns"] = perf_counter_ns()
            self._stack.pop()
            self.spans.append(rec)


def _placed_cells(vc) -> int:
    return sum(p.width for p in vc.placements)


def install(tracer: Tracer) -> None:
    """Wrap the layer entry points of an imported cgralloc."""
    from cgralloc import aging, cli, dse, metrics

    def wrap(module, attr, name, before=None, after=None):
        orig = getattr(module, attr)

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            with tracer.span(name, **(before(*args) if before else {})) as rec:
                out = orig(*args, **kwargs)
            if after is not None:
                with tracer.span("bench.count"):
                    rec["attrs"].update(after(out, *args))
            return out

        setattr(module, attr, traced)

    def map_one(dfg, dims):
        with tracer.span("mapper.map", attempted=1, mapped=0, ops_placed=0) as rec:
            vc = orig_map_dfg(dfg, dims)
            rec["attrs"].update(mapped=1, ops_placed=len(vc.placements))
        return vc

    def replay_counts(umap, workload, mapped, dims, policy):
        n = umap.total_executions
        rotating = policy.value == "rotating"
        return {
            "executions": n,
            "distinct_pivots": min(n, dims.num_cells) if rotating else min(n, 1),
            "cell_updates": sum(reps * _placed_cells(mapped[d])
                                for d, reps in workload.trace if d in mapped),
        }

    orig_map_dfg = cli.map_dfg
    cli.map_dfg = map_one
    wrap(cli, "generate_random_workload", "workload.gen")
    wrap(cli, "serialize_workload", "workload.serialize")
    wrap(cli, "parse_workload", "workload.parse", before=lambda text: {"bytes": len(text)})
    wrap(dse, "map_workload", "mapper.map", before=lambda w, dims: {"attempted": len(w.dfgs)},
         after=lambda out, w, dims: {"mapped": len(out[0]),
                                     "ops_placed": sum(len(vc.placements) for vc in out[0].values())})
    wrap(dse, "replay_trace", "dse.replay", after=replay_counts)
    wrap(dse, "run_scenario_with_map", "dse.scenario")
    wrap(dse, "sweep", "dse.sweep",
         after=lambda out, *args: {"points": len(out),
                                     "points_failed": sum(r.error is not None for r in out)})
    wrap(dse, "summarize", "metrics.summarize")
    wrap(metrics, "summarize", "metrics.summarize")
    wrap(metrics, "export_heatmap", "metrics.heatmap")
    wrap(aging, "lifetime", "aging.call")
    wrap(aging, "lifetime_improvement", "aging.call")


def _s(ns: float) -> float:
    return ns / 1e9


def layer_metrics(spans: list[dict], scale: float) -> dict[str, float]:
    """Per-layer totals of one traced session (the per_layer metric set).

    Span durations are multiplied by `scale`, the session's conversion from
    host to reference seconds (see calibration.py).
    """
    dur = {s["id"]: (s["end_ns"] - s["start_ns"]) * scale for s in spans}
    child_ns: dict[int, int] = {}
    for s in spans:
        if s["parent"] is not None:
            child_ns[s["parent"]] = child_ns.get(s["parent"], 0) + dur[s["id"]]

    def total(name: str) -> float:
        return _s(sum(dur[s["id"]] for s in spans if s["name"] == name))

    def attr(name: str, key: str) -> int:
        return sum(s["attrs"].get(key, 0) for s in spans if s["name"] == name)

    def self_s(names) -> float:
        return _s(sum(dur[s["id"]] - child_ns.get(s["id"], 0) for s in spans if s["name"] in names))

    commands = [s for s in spans if s["parent"] is None and s["name"].startswith("cmd.")]
    command_s = _s(sum(dur[s["id"]] for s in commands))
    cli_self = self_s({s["name"] for s in commands})
    parse_s, parse_bytes = total("workload.parse"), attr("workload.parse", "bytes")
    map_s, attempted = total("mapper.map"), attr("mapper.map", "attempted")
    replay_s, executions = total("dse.replay"), attr("dse.replay", "executions")
    return {
        "workload.gen_s": total("workload.gen"),
        "workload.serialize_s": total("workload.serialize"),
        "workload.parse_s": parse_s,
        "workload.parse_mb_per_s": parse_bytes / 2**20 / parse_s if parse_s else 0.0,
        "workload.bytes": parse_bytes,
        "mapper.map_s": map_s,
        "mapper.ops_placed_per_s": attr("mapper.map", "ops_placed") / map_s if map_s else 0.0,
        "mapper.dfgs_attempted": attempted,
        "mapper.fit_ratio": attr("mapper.map", "mapped") / attempted if attempted else 0.0,
        "dse.replay_s": replay_s,
        "dse.replay_executions": executions,
        "dse.replay_ns_per_exec": replay_s * 1e9 / executions if executions else 0.0,
        "allocation.distinct_pivots": attr("dse.replay", "distinct_pivots"),
        "allocation.allocate_s": total("allocation.allocate"),
        "metrics.cell_updates": attr("dse.replay", "cell_updates"),
        "metrics.summarize_s": total("metrics.summarize"),
        "metrics.heatmap_s": total("metrics.heatmap"),
        "aging.calls": sum(s["name"] == "aging.call" for s in spans),
        "aging.s": total("aging.call"),
        "dse.sweep_s": total("dse.sweep"),
        "dse.points": attr("dse.sweep", "points"),
        "dse.points_failed": attr("dse.sweep", "points_failed"),
        "dse.self_s": self_s({"dse.sweep", "dse.scenario"}),
        "fabric.execute_s": total("fabric.execute"),
        "fabric.plan_s": total("fabric.plan"),
        "fabric.legality_s": total("fabric.legality"),
        "fabric.checks": attr("fabric.execute", "checks"),
        "fabric.violations": attr("fabric.legality", "violations"),
        "cli.self_s": cli_self,
        "trace.layer_cover_frac": 1.0 - cli_self / command_s if command_s else 0.0,
    }
