"""Byte-identity of every CLI output on a small pinned workload.

The digests in EXPECTED were recorded before the scenario entry points were
merged; the map digests in MAP_EXPECTED before the mapper's column bitmasks
and the table-driven parser, and its dse digests (one point that fits
nothing, one that fits) when a failed point's error text was reduced to its
label.  The "gen" digest was re-recorded when `gen` began writing compact
JSON (``separators=(",", ":")`` in place of ``indent=2``): the same document,
which ``json.load`` reads equal to the indented file.  "BP-rotating.summary",
"BU-fixed.summary", "BU-rotating.summary" and "dse.json" were re-recorded when
every reported number became one division of the integer counts: ``avg`` is
now the sum of the counts over cells x executions, where it was a running
float sum of per-cell rates, and the lifetime improvement is the ratio of the
two worst counts, where it was the ratio of two rounded rates.  Only last
digits of ``avg`` and of the improvement moved.  "BE-rotating.summary" and
"dse.json" were re-recorded again when ``lifetime_years`` became the
reference lifetime times the execution total over the worst count, rounded
once, where it was the reference lifetime over an already rounded rate; only
last digits of ``lifetime_years`` moved.  A change that alters
any byte of the workload file, a heatmap CSV, a summary JSON, the DSE JSON,
a placement dump, a misfit report or the printed text fails here; a change
that means to alter an output format must re-record them and say so.
"""

import hashlib
import io
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from cgralloc.cli import main

GEN_ARGS = ["gen", "--seed", "1", "--dfgs", "40", "--trace-len", "300"]
PRESET_NAMES = ("BE", "BP", "BU")
POLICIES = ("fixed", "rotating")
# DFGs of 20-60 ops: all fit on BP, most do not fit on BE
MAP_GEN_ARGS = ["gen", "--seed", "1", "--dfgs", "40", "--ops-min", "20", "--ops-max", "60",
                "--inputs", "8", "--trace-len", "10"]

EXPECTED = {
    "gen": "0b6b6e8a7ed029e95116505c999b68f4b10bca44ffc241376e0d0941f15db8b4",
    "BE-fixed.stdout": "57d1bd7331d1e6d4a8f328fba401587fecec68ea2e009bda665b0bf8dbd0b8ca",
    "BE-fixed.heatmap": "99e56ab53e1866f873f823dbf3be565150a6498c65f7b2e0c1c4d34da1c81ead",
    "BE-fixed.summary": "e0e34637836145998d38ef66a0d4a8ec6d73fb2b197988a71acef5abfdc2da5d",
    "BE-rotating.stdout": "b7064bc7785c40d09857c349763976b9569475fff3fd280848c9a799b41b6af8",
    "BE-rotating.heatmap": "a8e3a119b90af442a8183c7ce240fbf106be778b47d980ec5a90292f5195def4",
    "BE-rotating.summary": "8f8b180aeeb3a7d9b9524c85acb308f4755d75571039e3db2472f8afb70d4950",
    "BP-fixed.stdout": "3287cc68bc59fe2aff36842eaa5735a08c4f822a9f1978b82232c9310bfcd21b",
    "BP-fixed.heatmap": "d6dea6f0f4d69da0e5264b784afc672bb590d3cad0e1e7a79b79d609bed982c7",
    "BP-fixed.summary": "27e0180bfd3a86531dead458a575064f77dc3a621615db649702c50698a14120",
    "BP-rotating.stdout": "314e845c09d8a8b6ab268ac00e3b2247a26a3ed00629bb0104493be6ef5cdcea",
    "BP-rotating.heatmap": "24f81c9e4f07b2ee9c2a77afb83e6fbce60887c3eabe77b714905195f8055ca8",
    "BP-rotating.summary": "06f2fb7e59d71f9f8fe37c20691b5127fa6112514589b3e8dd5496659f98ece3",
    "BU-fixed.stdout": "4b8ed00076a52a59d00d9f8208faf8071956b05e3090fc44662c067e6f80204f",
    "BU-fixed.heatmap": "51827cba06f894dbb4936702bb6d5fa591a179f7d4a05f23ef22a585ae147f1d",
    "BU-fixed.summary": "494da7153fcd25edbea1ae8528f1c536960b0adfd1fc1d4d5d42ce1df63b52de",
    "BU-rotating.stdout": "6f4ffab08474abf71a9520b2914bd20c2041a9e4c84b0b7a15ebf403ba09c234",
    "BU-rotating.heatmap": "58d5c96e6b89c8ee8465f004cedf4411618c66c872c0e399850bddc0cf517b2f",
    "BU-rotating.summary": "448064260d01c2cfe856e04d71514e269f7fe3c3338cf175cea91324faec38a6",
    "dse.stdout": "0080f1eff49e9b398d1580879f5e63bdda30063b5b7b00f62ca3f0dda60f698a",
    "dse.json": "9fe385d8246b77501c22c01d997820484944f6013bd4e69473036b97950d8e93",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(argv: list[str]) -> bytes:
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    assert code == 0, argv
    return out.getvalue().encode()


MAP_EXPECTED = {
    "BP.exit": 0,
    "BP.stdout": "c76a24c72c187acfba946ff70593ee148087586e7a26a278bc6fd1a07e0e0523",
    "BP.stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "BE.exit": 4,
    "BE.stdout": "8c763e24c7201042a6fb353de1b15cce06bf21bb94167a16488b002bde778eb4",
    "BE.stderr": "aeb01dc711cc3a21c4f365f7a4d799949d7bd3e4e6457cb20ec50db15b325c8e",
    "dse.stdout": "61e9fa30ace43a0d36cf8ba85a1d38eea6c53c8da312c9bda94c6816ff5e1de7",
    "dse.json": "d39152076f3cc56fa9db3c0952567aaedf73b423355d7bfb47ec649c876a5862",
}


def golden_digests(tmp: Path) -> dict[str, str]:
    """sha256 of every output the pinned commands produce, keyed by output."""
    workload = tmp / "w.json"
    digests = {"gen": _sha(_run(GEN_ARGS + ["-o", str(workload)]) + workload.read_bytes())}
    for preset in PRESET_NAMES:
        for policy in POLICIES:
            key = f"{preset}-{policy}"
            heatmap, summary = tmp / f"{key}.csv", tmp / f"{key}.json"
            stdout = _run(["simulate", str(workload), "--preset", preset, "--policy", policy,
                           "--heatmap", str(heatmap), "--summary", str(summary),
                           "--dump-plan"])
            digests[f"{key}.stdout"] = _sha(stdout)
            digests[f"{key}.heatmap"] = _sha(heatmap.read_bytes())
            digests[f"{key}.summary"] = _sha(summary.read_bytes())
    dse_json = tmp / "dse.json"
    stdout = _run(["dse", str(workload), "-L", "8", "16", "-W", "2", "4", "-o", str(dse_json)])
    digests["dse.stdout"] = _sha(stdout)
    digests["dse.json"] = _sha(dse_json.read_bytes())
    return digests


def test_cli_outputs_are_byte_identical(tmp_path):
    assert golden_digests(tmp_path) == EXPECTED


def map_digests(tmp: Path) -> dict[str, object]:
    """Exit code and sha256 of stdout and stderr of `map --dump` on BP and BE,
    and sha256 of `dse -L 8 16 -W 2 -o` output, whose L8W2 point fits nothing."""
    workload = tmp / "heavy.json"
    _run(MAP_GEN_ARGS + ["-o", str(workload)])
    digests: dict[str, object] = {}
    for preset in ("BP", "BE"):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            digests[f"{preset}.exit"] = main(["map", str(workload), "--preset", preset, "--dump"])
        digests[f"{preset}.stdout"] = _sha(out.getvalue().encode())
        digests[f"{preset}.stderr"] = _sha(err.getvalue().encode())
    dse_json = tmp / "dse.json"
    digests["dse.stdout"] = _sha(_run(["dse", str(workload), "-L", "8", "16", "-W", "2",
                                       "-o", str(dse_json)]))
    digests["dse.json"] = _sha(dse_json.read_bytes())
    return digests


def test_map_dump_and_misfit_report_are_byte_identical(tmp_path):
    assert map_digests(tmp_path) == MAP_EXPECTED


# The same checks without pytest: PYTHONPATH=src python3 tests/test_golden.py
if __name__ == "__main__":
    import sys
    import tempfile

    mismatched = []
    for digests, expected in ((golden_digests, EXPECTED), (map_digests, MAP_EXPECTED)):
        with tempfile.TemporaryDirectory() as tmp:
            got = digests(Path(tmp))
        mismatched += [f"{digests.__name__}: {key}: got {got.get(key)!r}, "
                       f"expected {expected.get(key)!r}"
                       for key in sorted(got.keys() | expected.keys())
                       if got.get(key) != expected.get(key)]
    print("\n".join(mismatched) or "golden digests match")
    sys.exit(1 if mismatched else 0)
