"""The package's top-level names: exactly the entry points README and bench/ use."""

import contextlib
import io
import re
from pathlib import Path

import cgralloc

REPO = Path(__file__).resolve().parent.parent
README = REPO / "README.md"
LINE_CEILING = 1678  # ROADMAP's ceiling on src/cgralloc/*.py without __init__.py


def test_package_exports_only_the_entry_points():
    assert sorted(cgralloc.__all__) == sorted([
        "AgingParams", "DoesNotFitError", "FabricDims", "GeneratorParams", "MemoryModel",
        "Pivot", "allocate", "check_physical_legality", "execute", "generate_random_workload",
        "map_dfg", "parse_workload", "reconfig_plan", "run_scenario_with_map", "__version__",
    ])
    assert all(hasattr(cgralloc, name) for name in cgralloc.__all__)
    public = {n for n, v in vars(cgralloc).items()
              if not n.startswith("_") and type(v) is not type(cgralloc)}
    assert public == set(cgralloc.__all__) - {"__version__"}


def test_source_stays_under_the_line_ceiling():
    files = [p for p in (REPO / "src" / "cgralloc").glob("*.py") if p.name != "__init__.py"]
    lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in files)
    assert files  # a wrong path would count no lines
    assert lines <= LINE_CEILING, f"{lines} lines over the ceiling of {LINE_CEILING}"


def test_readme_library_example_runs_as_written():
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out, names = io.StringIO(), {}
    with contextlib.redirect_stdout(out):
        exec(code, names)
    baseline, proposed, improvement = map(float, out.getvalue().split())
    assert baseline == 1.0 and 0 < proposed < 1.0
    # the fixed run's worst cell is busy in every execution, so its count is T
    umap = names["umap"]
    assert improvement == umap.total_executions / max(map(max, umap.active_count))
