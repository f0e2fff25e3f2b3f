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
