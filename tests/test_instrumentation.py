"""The names that the benchmark's tracer wraps and reads exist in the
package, so a refactor cannot silently break a traced run."""

import ast
import importlib
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
