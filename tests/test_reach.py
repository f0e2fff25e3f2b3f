"""Every top-level function and class of the package is reached from the
package itself, so `src/` holds no code that only the tests call, and
only one function makes graph classes."""

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


def _outside(node, allowed):
    """The nodes under `node`, skipping the subtrees of `allowed`."""
    if any(node is a for a in allowed):
        return
    yield node
    for child in ast.iter_child_nodes(node):
        yield from _outside(child, allowed)


def _binds(stmt, name):
    targets = (stmt.targets if isinstance(stmt, ast.Assign)
               else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return any(isinstance(t, ast.Name) and t.id == name for t in targets)


def _name(node):
    """The name a node reads or imports, if any."""
    if isinstance(node, ast.alias):
        return node.name
    return getattr(node, "id", None) or getattr(node, "attr", None)


def test_classes_are_made_in_one_place():
    # a class is equal only to itself, so there is one way from a diagram
    # to its class: `graphs._classify` alone runs the canonical search,
    # builds a RibbonGraph and touches the class table.  The exceptions
    # are the table's own definition and EMPTY_GRAPH, the class without
    # vertices, which no search makes
    graphs = ast.parse((SRC / "graphs.py").read_text())
    allowed = [s for s in graphs.body
               if isinstance(s, ast.FunctionDef) and s.name == "_classify"
               or _binds(s, "EMPTY_GRAPH")]
    allowed += [s for c in graphs.body
                if isinstance(c, ast.ClassDef) and c.name == "RibbonGraph"
                for s in c.body if _binds(s, "_intern")]
    assert len(allowed) == 3
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = graphs if path.stem == "graphs" else \
            ast.parse(path.read_text())
        for node in _outside(tree, allowed):
            if (_name(node) in ("_canonical_search", "_intern")
                    or isinstance(node, ast.Call)
                    and _name(node.func) == "RibbonGraph"):
                found.append(f"{path.stem}:{node.lineno} {ast.unparse(node)}")
    assert not found, f"a second way to a class: {', '.join(found)}"


def test_raw_diagrams_are_read_only_where_they_are_made():
    # `canonicalize` is the one reader of raw diagrams into classes, and
    # every function past it takes classes: it is called only where a raw
    # diagram is made, by a union, an integration, a gluing or a file
    calls = set()
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call) and \
                        _name(node.func) == "canonicalize":
                    calls.add(f"{path.stem}.{getattr(stmt, 'name', None)}")
    assert calls == {"graphs.disjoint_union", "feynman.integral_I",
                     "tcft.glue", "jsonio.graph_from_json"}


def _scopes_reading(node, name, scope=()):
    """The dotted scopes (classes and functions) in which `name` is read."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            yield from _scopes_reading(child, name, scope + (child.name,))
            continue
        if isinstance(child, (ast.Name, ast.Attribute)) and \
                _name(child) == name:
            yield ".".join(scope)
        yield from _scopes_reading(child, name, scope)


def test_the_form_is_inverted_once():
    # a form keeps its dual pairing, the transpose of its inverse, from the
    # inversion that checks it is nondegenerate; no other code inverts
    found = [f"{path.stem}.{scope}" for path in sorted(SRC.glob("*.py"))
             for scope in _scopes_reading(ast.parse(path.read_text()),
                                          "mat_inverse")]
    assert found == ["superspace.SymplecticForm.__init__"]


def test_only_the_verbs_build_report_rows():
    # every row carries a "kind"; a suite returns the fields of what it
    # found and `cmd_verify` writes the rows, so a dict with that key is
    # built only inside a verb
    cli = ast.parse((SRC / "cli.py").read_text())
    verbs = [s for s in cli.body if isinstance(s, ast.FunctionDef)
             and s.name.startswith("cmd_")]
    assert len(verbs) == 6
    found = [f"cli:{node.lineno} {ast.unparse(node)}"
             for node in _outside(cli, verbs) if isinstance(node, ast.Dict)
             and any(isinstance(k, ast.Constant) and k.value == "kind"
                     for k in node.keys)]
    assert not found, f"a row built outside a verb: {', '.join(found)}"
