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
    # the row count of each input.  The largest one of the default homology
    # window is the connected boundary (2, 6) -> (1, 5): 1,018 of the 1,128
    # connected classes land in a pass of (1, 5).  The benchmark's tests
    # pin 1,146, the full complex's (2, 6) classes, which are no longer
    # ranked
    from ribbonhom import complexes
    inputs = []
    rank_exact = complexes.rank_exact

    def spy(rows):
        inputs.append(rows)
        return rank_exact(rows)

    monkeypatch.setattr(complexes, "rank_exact", spy)
    # each connected rank is cached, so an earlier test may hold them all
    complexes._connected_rank.cache_clear()
    complexes.homology_dims((1, 4), (1, 5))
    assert inputs and all(isinstance(rows, list) for rows in inputs)
    assert all(isinstance(row, dict) for rows in inputs for row in rows)
    assert max(len(rows) for rows in inputs) == 1018


def _traced_layers(tmp_path, args):
    """Run the CLI with `args` traced and untraced; check that both exit 0
    and print the same bytes, and return the tracer's layer summary."""
    root = TRACING.parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    summary = tmp_path / "t.json"
    traced, plain = (
        subprocess.run([sys.executable, *argv, *args], env=env, cwd=root,
                       capture_output=True)
        for argv in ([str(TRACING), str(summary), "--"],
                     ["-m", "ribbonhom.cli"]))
    assert traced.returncode == 0, traced.stderr
    assert plain.returncode == 0, plain.stderr
    assert traced.stdout == plain.stdout
    return json.loads(summary.read_text())


def test_traced_run_prints_the_untraced_report(tmp_path):
    # besides its tables the tracer wraps `PartitionFunction.value`, reads
    # its `window`, rebinds `_graph_value` and reads `RibbonGraph` and
    # `valency_types`; a traced run must start and print the report of the
    # untraced one
    algebra = TRACING.parent / "twisted_11.json"
    layers = _traced_layers(tmp_path, [
        "partition", "--algebra", str(algebra), "--vertices", "2",
        "--edges", "1:3", "--format", "structured"])
    assert layers["counts"]["ainfinity.state_sums"] > 0
    assert layers["calls"]["ainfinity.PartitionFunction.value"] > 0


def test_traced_verify_prints_the_untraced_report(tmp_path):
    # the tracer wraps each entry of `cli._SUITE_FNS`, which `cmd_verify`
    # looks up when it runs the suite
    layers = _traced_layers(tmp_path, ["verify", "all", "--edges", "3"])
    suites = importlib.import_module("ribbonhom.cli").SUITES
    assert all(layers["calls"][f"cli.suite.{name}"] == 1 for name in suites)
