import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads.  ``import a.b`` binds a, and
    ``from __future__`` imports are directives, not names."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(imported - read)


def readers(source: str, name: str) -> set[str]:
    """The innermost enclosing function of every read of ``name``, as a bare
    name or an attribute, or "<module>" for a read outside any function."""
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if ((isinstance(node, ast.Name) and node.id == name
             and isinstance(node.ctx, ast.Load))
                or (isinstance(node, ast.Attribute) and node.attr == name)):
            found.add(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "<module>")
    return found


def test_unused_imports_finds_names_never_read():
    source = ("from __future__ import annotations\nimport os.path\n"
              "import numpy as np\nfrom math import pi, tau\nx = np.pi + tau\n")
    assert unused_imports(source) == ["os", "pi"]


def test_no_unused_imports():
    # The package's __init__ imports are its public API, so it is exempt.
    paths = [p for p in sorted((ROOT / "src" / "afdof").glob("*.py"))
             if p.name != "__init__.py"] + sorted((ROOT / "tests").glob("*.py"))
    unused = {p.relative_to(ROOT).as_posix(): unused_imports(p.read_text())
              for p in paths}
    assert {path: names for path, names in unused.items() if names} == {}


def test_readers_finds_enclosing_functions():
    source = ("TOL = 1\nx = TOL\ndef f():\n    def g():\n        return m.TOL\n"
              "    return g\ndef h(TOL=2):\n    TOL = 3\n")
    assert readers(source, "TOL") == {"<module>", "g"}


def test_one_zero_rule():
    # Only scheme._label_ids reads COEF_TOL, so no second zero rule for
    # end-to-end coefficients can creep back into the package.
    found = {f"{p.stem}.{scope}"
             for p in sorted((ROOT / "src" / "afdof").glob("*.py"))
             for scope in readers(p.read_text(), "COEF_TOL")}
    assert found == {"scheme._label_ids"}


def test_sources_parse_as_python_3_10():
    # pyproject.toml supports Python 3.10, so no file may use later syntax.
    paths = [p for d in ("src", "tests", "bench")
             for p in sorted((ROOT / d).rglob("*.py"))]
    assert len(paths) > 10
    for path in paths:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
