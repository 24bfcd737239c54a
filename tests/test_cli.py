import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import cgralloc
from cgralloc.cli import main
from cgralloc.workload import MAX_INPUTS, parse_workload, serialize_workload
from heatmap_reader import parse_heatmap

SINGLE_ADD_WORKLOAD = {
    "format": 1,
    "dfgs": [{
        "name": "one",
        "num_inputs": 2,
        "ops": [{"id": 0, "opcode": "add",
                 "srcs": [{"kind": "input", "index": 0}, {"kind": "input", "index": 1}]}],
        "outputs": [{"kind": "op", "index": 0}],
    }],
    "trace": [[0, 32]],
}


@pytest.fixture
def single_add_path(tmp_path):
    path = tmp_path / "one.json"
    path.write_text(json.dumps(SINGLE_ADD_WORKLOAD))
    return str(path)


def test_gen_is_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["gen", "--seed", "1", "--dfgs", "10", "-o", str(a)]) == 0
    assert main(["gen", "--seed", "1", "--dfgs", "10", "-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert main(["gen", "--seed", "2", "--dfgs", "10", "-o", str(b)]) == 0
    assert a.read_bytes() != b.read_bytes()


def test_gen_output_is_canonical(tmp_path):
    path = tmp_path / "w.json"
    assert main(["gen", "--seed", "3", "-o", str(path)]) == 0
    w = parse_workload(path.read_text())
    assert serialize_workload(w) == path.read_text()


def test_gen_rejects_bad_params(tmp_path):
    assert main(["gen", "--dfgs", "0", "-o", str(tmp_path / "w.json")]) == 2


def test_gen_rejects_a_negative_seed(tmp_path, capsys):
    """CPython seeds with abs(seed), so --seed -1 would write the file of --seed 1."""
    out = tmp_path / "w.json"
    assert main(["gen", "--seed", "-1", "-o", str(out)]) == 2
    assert "error: seed must be a non-negative int, got -1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("inputs", [MAX_INPUTS + 1, 100_000_000])
def test_gen_inputs_over_the_cap_exit_2_in_bounded_memory(tmp_path, inputs):
    # in its own process under a 512 MiB address-space limit, so a missing cap fails
    # with MemoryError instead of exhausting the host
    limit = 512 * 2**20
    code = (f"import resource, sys; resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n"
            "from cgralloc.cli import main; sys.exit(main(sys.argv[1:]))")
    env = {**os.environ, "PYTHONPATH": str(Path(cgralloc.__file__).parents[1])}
    out = tmp_path / "w.json"
    argv = ["gen", "--dfgs", "2", "--inputs", str(inputs), "--ops-max", "3", "-o", str(out)]
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.endswith(
        f"cgralloc gen: error: num_inputs must be in 1..{MAX_INPUTS} (ops need source values)\n")
    assert not out.exists()


def test_unknown_flag_exits_2():
    assert main(["gen", "--frobnicate", "1"]) == 2


def test_gen_then_map_pipeline(tmp_path):
    path = tmp_path / "w.json"
    assert main(["gen", "--seed", "4", "--dfgs", "15", "-o", str(path)]) == 0
    assert main(["map", str(path), "-L", "32", "-W", "8"]) == 0


def test_map_single_add_dump(single_add_path, capsys):
    assert main(["map", single_add_path, "-L", "16", "-W", "2", "--dump"]) == 0
    out = capsys.readouterr().out
    assert "dfg 0 one" in out
    assert "(0, 0, 0, 1)" in out


def test_map_dump_grammar(tmp_path, capsys):
    path = tmp_path / "w.json"
    assert main(["gen", "--seed", "5", "--dfgs", "8", "-o", str(path)]) == 0
    assert main(["map", str(path), "-L", "32", "-W", "4", "--dump"]) == 0
    out = capsys.readouterr().out
    header = re.compile(r"^dfg (\d+) (\S+)$")
    placement = re.compile(r"^\((\d+), (\d+), (\d+), (1|4)\)$")
    saw_header = saw_placement = False
    for line in out.strip().splitlines():
        if header.match(line):
            saw_header = True
        elif placement.match(line):
            saw_placement = True
        else:
            raise AssertionError(f"line does not match dump grammar: {line!r}")
    assert saw_header and saw_placement


def test_map_reports_misfits_with_exit_4(tmp_path, capsys):
    doc = {
        "format": 1,
        "dfgs": [{
            "name": "wide",
            "num_inputs": 2,
            "ops": [
                {"id": i, "opcode": "add",
                 "srcs": [{"kind": "input", "index": 0}, {"kind": "input", "index": 1}]}
                for i in range(5)
            ],
            "outputs": [{"kind": "op", "index": 4}],
        }],
        "trace": [[0, 1]],
    }
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    assert main(["map", str(path), "-L", "1", "-W", "2"]) == 4
    assert "wide" in capsys.readouterr().err


def test_map_requires_dims(single_add_path):
    assert main(["map", single_add_path]) == 2


def test_preset_conflicts_with_dims(single_add_path):
    assert main(["map", single_add_path, "--preset", "BE", "-L", "8", "-W", "2"]) == 2


def test_simulate_fixed_corner(single_add_path, tmp_path, capsys):
    summary_path = tmp_path / "summary.json"
    heatmap_path = tmp_path / "heat.csv"
    code = main([
        "simulate", single_add_path, "-L", "16", "-W", "2", "--policy", "fixed",
        "--summary", str(summary_path), "--heatmap", str(heatmap_path),
    ])
    assert code == 0
    summary = json.loads(summary_path.read_text())
    assert summary["max"] == 1.0
    assert summary["argmax"] == [0, 0]
    assert summary["policy"] == "fixed"
    assert summary["total_executions"] == 32
    rates, dims, executions = parse_heatmap(heatmap_path.read_text())
    assert executions == 32
    assert rates[0][0] == 1.0
    assert "max=1.000000" in capsys.readouterr().out


def test_simulate_rotating_uniform_heatmap(single_add_path, tmp_path):
    heatmap_path = tmp_path / "heat.csv"
    code = main([
        "simulate", single_add_path, "-L", "16", "-W", "2", "--policy", "rotating",
        "--heatmap", str(heatmap_path),
    ])
    assert code == 0
    rates, _, _ = parse_heatmap(heatmap_path.read_text())
    assert all(rate == 1 / 32 for row in rates for rate in row)


def test_simulate_dump_plan(single_add_path, capsys):
    code = main(["simulate", single_add_path, "-L", "16", "-W", "2",
                 "--policy", "rotating", "--dump-plan"])
    assert code == 0
    out = capsys.readouterr().out
    # 32 executions of a 16x2 schedule end at pivot (1, 15)
    assert "pivot=(1, 15)" in out
    assert "reconfig_cycles=4" in out
    assert "column  line_select  shift  wrap" in out


# deleted flags: the context-line model's, and the aging inputs no output reads
@pytest.mark.parametrize("command,flag", [
    pytest.param("map", "--context", id="map"),
    pytest.param("simulate", "--context", id="simulate"),
    *[(command, flag) for command in ("simulate", "dse", "age")
      for flag in ("--temperature", "--vdd")],
    ("simulate", "--threshold"),
    ("dse", "--threshold"),
])
def test_context_flag_is_rejected(single_add_path, capsys, command, flag):
    argv = ([command, "--u", "0.5"] if command == "age"
            else [command, single_add_path, "--preset", "BE"])
    assert main(argv + [flag, "4"]) == 2
    assert f"unrecognized arguments: {flag} 4" in capsys.readouterr().err


def test_lines_flag_is_read_by_simulate_only(single_add_path, capsys):
    assert main(["map", single_add_path, "--preset", "BE", "--lines", "4"]) == 2
    assert "unrecognized arguments: --lines 4" in capsys.readouterr().err
    assert main(["simulate", single_add_path, "--preset", "BE", "--lines", "2", "--dump-plan"]) == 0
    assert "reconfig_cycles=8" in capsys.readouterr().out  # 16 columns over 2 lines


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_idle_worst_cell_writes_null_not_infinity(tmp_path, capsys):
    # a DFG without ops occupies no cell, so the worst utilization is 0 and
    # the lifetime (and its improvement) is unbounded
    path = tmp_path / "idle.json"
    path.write_text(json.dumps({"format": 1, "dfgs": [{"name": "e", "num_inputs": 0, "ops": [],
                                                        "outputs": []}], "trace": [[0, 3]]}))
    summary, results = tmp_path / "s.json", tmp_path / "d.json"
    assert main(["simulate", str(path), "--preset", "BE", "--summary", str(summary)]) == 0
    assert capsys.readouterr().out.endswith(" lifetime=unbounded\n")
    assert main(["dse", str(path), "--preset", "BE", "-o", str(results)]) == 0
    assert capsys.readouterr().out.splitlines()[1].split() == [
        "L16W2", "0.0000", "0.0000", "0.0000", "unbounded"]
    doc = json.loads(summary.read_text(), parse_constant=_reject_constant)
    assert doc["max"] == 0.0 and doc["lifetime_years"] is None
    [record] = json.loads(results.read_text(), parse_constant=_reject_constant)
    assert record["lifetime_years"] is None and record["lifetime_improvement"] is None
    assert record["baseline_max_util"] == record["proposed_max_util"] == 0.0


def test_lifetime_past_the_float_range_is_unbounded(single_add_path, tmp_path, capsys):
    # the rotating worst cell is busy in 1 of 32 executions: 32 x 1e308 years is past
    # the largest float, so every command reads it as unbounded, as age always did
    summary, results = tmp_path / "s.json", tmp_path / "d.json"
    assert main(["simulate", single_add_path, "--preset", "BE", "--policy", "rotating",
                 "--ref-lifetime", "1e308", "--summary", str(summary)]) == 0
    assert capsys.readouterr().out.endswith(" lifetime=unbounded\n")
    assert main(["dse", single_add_path, "--preset", "BE", "--ref-lifetime", "1e308",
                 "-o", str(results)]) == 0
    assert main(["age", "--u", "1e-10", "--ref-lifetime", "1e308"]) == 0
    assert capsys.readouterr().out.endswith("lifetime(u=1e-10) = unbounded\n")
    doc = json.loads(summary.read_text(), parse_constant=_reject_constant)
    assert doc["max"] == 1 / 32 and doc["lifetime_years"] is None
    [record] = json.loads(results.read_text(), parse_constant=_reject_constant)
    assert record["lifetime_years"] is None and record["lifetime_improvement"] == 32.0


def test_simulate_missing_input_exits_3(tmp_path):
    assert main(["simulate", str(tmp_path / "nope.json"), "-L", "16", "-W", "2"]) == 3


def test_simulate_bad_workload_exits_3(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{ not json ]")
    assert main(["simulate", str(path), "-L", "16", "-W", "2"]) == 3


def test_simulate_deeply_nested_workload_exits_3(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    assert main(["simulate", str(path), "-L", "16", "-W", "2"]) == 3


@pytest.mark.parametrize("command", ["map", "simulate", "dse"])
def test_non_utf8_workload_exits_3(tmp_path, capsys, command):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{}")
    assert main([command, str(path), "--preset", "BE"]) == 3
    err = capsys.readouterr().err
    assert "bad workload file:" in err
    assert "Traceback" not in err


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="no integer digit limit")
@pytest.mark.parametrize("command", ["map", "simulate", "dse"])
def test_integer_over_the_digit_limit_exits_3(tmp_path, capsys, command):
    digits = "9" * (sys.get_int_max_str_digits() + 1)
    path = tmp_path / "big.json"
    path.write_text(json.dumps(SINGLE_ADD_WORKLOAD).replace('"num_inputs": 2',
                                                            f'"num_inputs": {digits}'))
    assert main([command, str(path), "--preset", "BE"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("bad workload file: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["map", "simulate", "dse"])
def test_forward_reference_workload_exits_3(tmp_path, capsys, command):
    add = {"id": 0, "opcode": "add", "srcs": [{"kind": "input", "index": 0},
                                              {"kind": "input", "index": 1}]}
    reader = {**add, "srcs": [{"kind": "op", "index": 1}, {"kind": "input", "index": 0}]}
    dfg = {**SINGLE_ADD_WORKLOAD["dfgs"][0], "ops": [reader, {**add, "id": 1}]}
    path = tmp_path / "forward.json"
    path.write_text(json.dumps({**SINGLE_ADD_WORKLOAD, "dfgs": [dfg]}))
    assert main([command, str(path), "--preset", "BE"]) == 3
    assert capsys.readouterr().err == (
        "bad workload file: dfgs[0]: op 0 references op 1, which is not listed before it\n")


@pytest.mark.parametrize("policy, expected", [
    ("rotating", "executions=1000000000 avg=0.031250 max=0.031250 min=0.031250"),
    ("fixed", "executions=1000000000 avg=0.031250 max=1.000000 min=0.000000"),
])
def test_simulate_huge_repeat_count_runs_in_bounded_time(tmp_path, capsys, policy, expected):
    # a billion executions of one ALU op: replay counts them per pivot
    # instead of replaying each one
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({**SINGLE_ADD_WORKLOAD, "trace": [[0, 1_000_000_000]]}))
    start = time.perf_counter()
    assert main(["simulate", str(path), "--preset", "BE", "--policy", policy]) == 0
    assert time.perf_counter() - start < 1.0
    assert expected in capsys.readouterr().out


def test_age_reports_reference_lifetime(capsys):
    assert main(["age", "--u", "1.0"]) == 0
    assert "3.00 years" in capsys.readouterr().out


def test_age_reports_improvement(capsys):
    assert main(["age", "--u", "0.945", "--u2", "0.411"]) == 0
    out = capsys.readouterr().out
    assert "improvement = 2.30x" in out
    assert "7.30 years" in out
    assert main(["age", "--u", "0.5", "--u2", "0"]) == 0
    assert capsys.readouterr().out == (
        "lifetime(u=0.5) = 6.00 years\nlifetime(u=0) = unbounded\nimprovement = unbounded\n")


def test_age_curve_output(tmp_path, capsys):
    curve = tmp_path / "curve.csv"
    assert main(["age", "--u", "1.0", "--curve", str(curve),
                 "--horizon", "3", "--points", "4"]) == 0
    lines = curve.read_text().strip().splitlines()
    assert lines[0] == "t_years,delay_fraction"
    assert len(lines) == 5
    assert lines[-1].startswith("3.000000,0.100000000")


def test_age_reads_summary_file(single_add_path, tmp_path, capsys):
    summary_path = tmp_path / "summary.json"
    main(["simulate", single_add_path, "-L", "16", "-W", "2", "--policy", "fixed",
          "--summary", str(summary_path)])
    capsys.readouterr()
    assert main(["age", "--summary", str(summary_path)]) == 0
    assert "3.00 years" in capsys.readouterr().out


@pytest.mark.parametrize("text", [
    "{ not json",
    '{"min": 0.5}',
    '{"max": "0.5"}',
    '{"max": true}',
    "[0.5]",
    "[" * 100000 + "]" * 100000,
    '{"max": NaN}',
    '{"max": Infinity}',
    '{"max": 1.5}',
    '{"max": -0.25}',
])
def test_age_rejects_malformed_summary(tmp_path, capsys, text):
    path = tmp_path / "summary.json"
    path.write_text(text)
    assert main(["age", "--summary", str(path)]) == 3
    assert "max" in capsys.readouterr().err


def test_age_rejects_out_of_range_u():
    assert main(["age", "--u", "1.5"]) == 2


def test_age_requires_some_input():
    assert main(["age"]) == 2


@pytest.mark.parametrize("flag,value", [("--ref-lifetime", "nan"), ("--threshold", "nan")])
def test_non_finite_aging_inputs_exit_2(single_add_path, tmp_path, capsys, flag, value):
    summary = tmp_path / "s.json"
    assert main(["age", "--u", "0.5", flag, value]) == 2
    if flag == "--ref-lifetime":  # the one aging flag that simulate and dse read
        assert main(["simulate", single_add_path, "--preset", "BE", "--summary", str(summary),
                     flag, value]) == 2
        assert main(["dse", single_add_path, "--preset", "BE", flag, value]) == 2
    assert not summary.exists()
    out, err = capsys.readouterr()
    assert out == ""
    assert "must be finite" in err and "unrecognized" not in err


@pytest.mark.parametrize("extra", [
    ["--curve", "c.csv", "--points", "0"],
    ["--curve", "c.csv", "--horizon", "nan"],
    ["--curve", "c.csv", "--horizon", "-1"],
    ["--u2", "2"],
])
def test_age_usage_error_prints_nothing(tmp_path, capsys, monkeypatch, extra):
    monkeypatch.chdir(tmp_path)
    assert main(["age", "--u", "0.5"] + extra) == 2
    assert capsys.readouterr().out == ""
    assert not (tmp_path / "c.csv").exists()


def test_dse_preset_equals_explicit_dims(single_add_path, tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["dse", single_add_path, "--preset", "BE", "-o", str(a)]) == 0
    assert main(["dse", single_add_path, "-L", "16", "-W", "2", "-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    out = capsys.readouterr().out
    assert "scenario" in out and "L16W2" in out


def test_dse_table_and_json(single_add_path, tmp_path, capsys):
    out_path = tmp_path / "results.json"
    code = main(["dse", single_add_path, "-L", "8", "16", "-W", "2", "4",
                 "-o", str(out_path)])
    assert code == 0
    results = json.loads(out_path.read_text())
    assert [r["label"] for r in results] == ["L8W2", "L8W4", "L16W2", "L16W4"]
    assert all(r["baseline_max_util"] == 1.0 for r in results)
    table = capsys.readouterr().out
    assert table.splitlines()[0].startswith("scenario")


def test_dse_preset_conflicts_with_dims(single_add_path):
    assert main(["dse", single_add_path, "--preset", "BE", "-L", "8"]) == 2


def test_dse_requires_dims_or_preset(single_add_path, capsys):
    assert main(["dse", single_add_path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: cgralloc dse ")  # the subcommand's usage, not the root's
    assert err.endswith("cgralloc dse: error: need either --preset or both -L and -W\n")


@pytest.mark.parametrize("command", ["dse", "map"])
def test_unrecognized_argument_shows_the_subcommands_usage(single_add_path, capsys, command):
    assert main([command, single_add_path, "--preset", "BE", "--temperature", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: cgralloc {command} ")
    assert err.endswith(f"cgralloc {command}: error: unrecognized arguments: --temperature 1\n")


def test_dse_rejects_invalid_dims(single_add_path, capsys):
    assert main(["dse", single_add_path, "-L", "0", "-W", "2"]) == 2
    assert "Traceback" not in capsys.readouterr().err
