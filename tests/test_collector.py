"""`cli.main` runs each command with the cyclic garbage collector paused.

That is safe only while a command's data is acyclic, so that reference
counting frees it, and while `main` hands the caller's collector state back
whatever the command does.  These tests pin both.
"""

import gc
import json

import pytest

from cgralloc import cli, dse
from cgralloc.aging import AgingParams
from cgralloc.workload import (
    GeneratorParams,
    generate_random_workload,
    parse_workload,
    serialize_workload,
)

# DFGs of 20-60 ops: all fit on BP, most do not fit on BE
PARAMS = GeneratorParams(num_dfgs=40, ops_per_dfg=(20, 60), num_inputs=8, trace_length=100,
                         max_repeat=4)


def _generated_text() -> str:
    return serialize_workload(generate_random_workload(PARAMS, 1))


def _cyclic_garbage_after(argv: list[str], capsys) -> tuple[int, int]:
    """Exit code of the command, and the objects gc.collect() then finds."""
    gc.collect()
    code = cli.main(argv)
    capsys.readouterr()
    return code, gc.collect()


def test_map_with_misfits_leaves_no_more_cyclic_garbage_than_without(tmp_path, capsys):
    path = tmp_path / "w.json"
    path.write_text(_generated_text())
    code, fitting = _cyclic_garbage_after(["map", str(path), "--preset", "BP"], capsys)
    assert code == 0
    code, misfitting = _cyclic_garbage_after(["map", str(path), "--preset", "BE"], capsys)
    assert code == 4
    assert misfitting <= fitting


def test_parse_and_scenario_leave_no_cyclic_garbage():
    text = _generated_text()
    collecting = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for dims in dse.PRESETS.values():  # BE skips most DFGs
            dse.run_scenario_with_map(dims, parse_workload(text), AgingParams())
        assert gc.collect() == 0
    finally:
        if collecting:
            gc.enable()


ONE_DFG = {
    "format": 1,
    "dfgs": [{
        "name": "two",
        "num_inputs": 2,
        "ops": [{"id": i, "opcode": "add",
                 "srcs": [{"kind": "input", "index": 0}, {"kind": "input", "index": 1}]}
                for i in range(2)],
        "outputs": [{"kind": "op", "index": 1}],
    }],
    "trace": [[0, 1]],
}


@pytest.fixture(params=[True, False], ids=["caller-collecting", "caller-paused"])
def caller_collecting(request):
    """The collector state the caller of main had; restored after the test."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


@pytest.fixture
def workload_files(tmp_path):
    (tmp_path / "two.json").write_text(json.dumps(ONE_DFG))
    (tmp_path / "bad.json").write_text("{ not json ]")
    return tmp_path


@pytest.mark.parametrize("command, argv, code", [
    ("gen", ["gen", "--dfgs", "2", "-o", "{dir}/w.json"], 0),
    ("dse", ["dse", "{dir}/two.json"], 2),  # neither --preset nor -L/-W
    ("simulate", ["simulate", "{dir}/bad.json", "--preset", "BE"], 3),
    ("map", ["map", "{dir}/two.json", "-L", "1", "-W", "1"], 4),  # the second add has no cell
], ids=["gen-exit-0", "dse-exit-2", "simulate-exit-3", "map-exit-4"])
def test_main_pauses_the_collector_and_restores_the_callers_state(
        workload_files, monkeypatch, capsys, caller_collecting, command, argv, code):
    seen = []
    run = getattr(cli, f"cmd_{command}")

    def spy(args, parser):
        seen.append(gc.isenabled())
        return run(args, parser)

    monkeypatch.setattr(cli, f"cmd_{command}", spy)
    assert cli.main([a.format(dir=workload_files) for a in argv]) == code
    assert seen == [False]
    assert gc.isenabled() is caller_collecting


def test_main_restores_the_callers_collector_state_when_a_command_raises(
        tmp_path, monkeypatch, caller_collecting):
    seen = []

    def boom(args, parser):
        seen.append(gc.isenabled())
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_gen", boom)
    with pytest.raises(RuntimeError, match="boom"):
        cli.main(["gen", "-o", str(tmp_path / "w.json")])
    assert seen == [False]
    assert gc.isenabled() is caller_collecting
