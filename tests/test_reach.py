"""Every top-level function and class of the package is reached from the
package itself, so `src/` holds no code that only the tests call."""

import ast
from pathlib import Path

import ribbonhom

SRC = Path(ribbonhom.__file__).parent

# definitions that no code in the package uses, each kept for a reason
ALLOWED = {
    # A + C with no coupling, the first input of the minimal-model
    # transfer (ROADMAP item 5)
    "ainfinity.direct_sum",
    # the composition of legged chains that the legged complex builds on
    # (ROADMAP item 7)
    "tcft.compose",
    # the benchmark's probe writes back the algebra file it reads
    "jsonio.algebra_to_json",
}
# worked examples: tests and the benchmark's probe build them
ALLOWED_MODULES = {"fixtures"}


def _used_names(node):
    """Every name a node reads, as a bare name or as an attribute."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def test_every_definition_is_reached_from_the_package():
    defined, used = [], set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defined.append((path.stem, stmt.name))
                # a definition that names itself, recursion say, is not
                # reached by that
                used.update(n for n in _used_names(stmt) if n != stmt.name)
            else:
                used.update(_used_names(stmt))
    unreached = [f"{module}.{name}" for module, name in defined
                 if name not in used and module not in ALLOWED_MODULES
                 and f"{module}.{name}" not in ALLOWED]
    assert not unreached, f"only the tests reach: {', '.join(unreached)}"
    # an allowance for a name the package now uses, or that is gone, is
    # stale
    assert ALLOWED <= {f"{m}.{n}" for m, n in defined if n not in used}
