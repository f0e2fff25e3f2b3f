"""The names that the benchmark's tracer wraps and reads exist in the
package, so a refactor cannot silently break a traced run."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tables():
    """ENTRY_POINTS and CACHES of the tracer, read without importing it."""
    tables = {}
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("ENTRY_POINTS", "CACHES"):
                tables[name] = ast.literal_eval(node.value)
    return tables["ENTRY_POINTS"], tables["CACHES"]


def test_traced_entry_points_and_caches_exist():
    entry_points, caches = _tables()
    assert entry_points and caches
    for short, names in entry_points.items():
        module = importlib.import_module(f"ribbonhom.{short}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{short}.{name}"
    for key, (short, attr) in caches.items():
        module = importlib.import_module(f"ribbonhom.{short}")
        cached = getattr(module, attr, None)
        assert callable(getattr(cached, "cache_info", None)), key
        info = cached.cache_info()
        assert info.hits >= 0 and info.misses >= 0, key


def test_tracer_sees_the_rank_layer(monkeypatch):
    # the tracer wraps `rank_exact` where `complexes` holds it and reads
    # the row count of each input; the benchmark's tests pin the largest
    # one of the default homology window at 1,146 rows
    from ribbonhom import complexes
    inputs = []
    rank_exact = complexes.rank_exact

    def spy(rows):
        inputs.append(rows)
        return rank_exact(rows)

    monkeypatch.setattr(complexes, "rank_exact", spy)
    complexes.homology_dims((1, 4), (1, 5))
    assert inputs and all(isinstance(rows, list) for rows in inputs)
    assert all(isinstance(row, dict) for rows in inputs for row in rows)
    assert max(len(rows) for rows in inputs) == 1146


def test_traced_run_prints_the_untraced_report(tmp_path):
    # besides its tables the tracer wraps `PartitionFunction.value`, reads
    # its `window`, rebinds `_graph_value` and reads `RibbonGraph`,
    # `valency_types` and `cli._SUITE_FNS`; a traced run must start and
    # print the report of the untraced one
    root = TRACING.parents[1]
    args = ["partition", "--algebra",
            str(root / "perfbench" / "twisted_11.json"), "--vertices", "2",
            "--edges", "1:3", "--format", "structured"]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    summary = tmp_path / "t.json"
    traced, plain = (
        subprocess.run([sys.executable, *argv, *args], env=env, cwd=root,
                       capture_output=True, text=True)
        for argv in ([str(TRACING), str(summary), "--"],
                     ["-m", "ribbonhom.cli"]))
    assert traced.returncode == 0, traced.stderr
    assert plain.returncode == 0, plain.stderr
    assert traced.stdout == plain.stdout
    layers = json.loads(summary.read_text())
    assert layers["counts"]["ainfinity.state_sums"] > 0
    assert layers["calls"]["ainfinity.PartitionFunction.value"] > 0
