"""Every public function and method of ein3 has a caller.

A caller is code of the package outside the definition itself, the
benchmark harness under perfbench/, or the tuple of library entry points
below.  A name counts as it appears in the syntax tree (a Name or an
Attribute node, not a docstring), and a method's name only as an Attribute
node (x.name): a local variable or parameter of the same name does not
keep a method alive.  perfbench also names what it traces in
strings, and such a string counts only when it is a definition's full
trace name, module then qualified name, such as "sampling.sample_surface" or
"symplectic.SympSpace.transverse".
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]

# public names kept without a caller in the package or the benchmark, for
# the open ROADMAP items that read them: `reflect` (item 4, the product of
# two reflections as evidence that eta classifies) and
# `triple_lightcone_empty` (item 2, a second causal reading for
# maslov-bridge); a name that gains a caller leaves the tuple
ENTRY_POINTS = ("reflect", "triple_lightcone_empty")


def _public_definitions():
    """(module, qualified name, node) of every public top-level function and
    every public method of a top-level class."""
    out = []
    for path in sorted((ROOT / "src" / "ein3").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                out.append((path.stem, node.name, node))
            elif isinstance(node, ast.ClassDef):
                out += [(path.stem, f"{node.name}.{m.name}", m) for m in node.body
                        if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")]
    return out


def _names(tree):
    """(line, name, whether an Attribute node) of every Name and Attribute
    node of a tree."""
    return [(n.lineno, n.id, False) if isinstance(n, ast.Name) else (n.lineno, n.attr, True)
            for n in ast.walk(tree) if isinstance(n, (ast.Name, ast.Attribute))]


def _callers():
    """The names of the package, per module, and those of the benchmark: the
    names of its syntax trees, and its strings."""
    package = {path.stem: _names(ast.parse(path.read_text()))
               for path in (ROOT / "src" / "ein3").glob("*.py")}
    names, strings = set(), set()
    for path in (ROOT / "perfbench").glob("*.py"):
        tree = ast.parse(path.read_text())
        names.update((name, attribute) for _, name, attribute in _names(tree))
        strings.update(n.value for n in ast.walk(tree)
                       if isinstance(n, ast.Constant) and isinstance(n.value, str))
    return package, (names, strings)


def _called(module, qualname, node, package, bench):
    """Whether a definition's name is used outside the definition itself; a
    method's only as an attribute."""
    bench_names, bench_strings = bench
    method = "." in qualname
    return (any(used == node.name and (attribute or not method)
                for used, attribute in bench_names)
            or f"{module}.{qualname}" in bench_strings
            or any(used == node.name and (attribute or not method)
                   and not (where == module and node.lineno <= line <= node.end_lineno)
                   for where, names in package.items() for line, used, attribute in names))


def test_every_public_function_has_a_caller():
    package, bench = _callers()
    uncalled = [f"{module}.{qualname}" for module, qualname, node in _public_definitions()
                if not (_called(module, qualname, node, package, bench)
                        or node.name in ENTRY_POINTS)]
    assert uncalled == []


def test_no_entry_point_has_a_caller():
    package, bench = _callers()
    called = [f"{module}.{qualname}" for module, qualname, node in _public_definitions()
              if node.name in ENTRY_POINTS and _called(module, qualname, node, package, bench)]
    assert called == []


def test_every_entry_point_is_defined():
    defined = {node.name for *_, node in _public_definitions()}
    assert set(ENTRY_POINTS) <= defined
