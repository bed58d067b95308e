import ast
import re
from pathlib import Path

import toruslab

PACKAGE = Path(toruslab.__file__).parent
README = Path(__file__).parents[1] / "README.md"


def test_star_import_gives_every_export():
    # a name left in __all__ after its definition is gone fails here
    namespace = {}
    exec("from toruslab import *", namespace)
    assert set(toruslab.__all__) <= set(namespace)


def _references(node):
    """The names a syntax tree reads: loaded names, attributes, imported
    names and the modules they are imported from."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, (ast.Import, ast.ImportFrom)):
            out.update(a.name.rsplit(".", 1)[-1] for a in n.names)
            if isinstance(n, ast.ImportFrom) and n.module:
                out.add(n.module.rsplit(".", 1)[-1])
    return out


def _library_references():
    """Every name the package's modules read, apart from __init__.py and
    a function's or class's reading of its own name."""
    out = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
            names = _references(stmt)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names.discard(stmt.name)
            out |= names
    return out


def _readme_names():
    """The identifiers in README's code: its fenced blocks and the
    inline code spans of its prose."""
    text = README.read_text()
    fence = re.compile(r"^```[^\n]*\n(.*?)^```", re.M | re.S)
    code = fence.findall(text) + re.findall(r"`([^`]+)`", fence.sub("", text))
    return set(re.findall(r"[A-Za-z_]\w*", " ".join(code)))


def test_every_export_has_a_library_or_readme_caller():
    # an export that only tests call is a second API to keep in step
    known = _library_references() | _readme_names()
    assert [name for name in toruslab.__all__ if name not in known] == []


def _unused_imports(tree):
    """The names a module imports and never reads."""
    imported = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.ImportFrom) and n.module == "__future__":
            continue
        if isinstance(n, (ast.Import, ast.ImportFrom)):
            imported.update(a.asname or a.name.split(".")[0]
                            for a in n.names)
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
    return sorted(imported - read)


def test_every_import_of_the_tests_and_tools_is_read():
    here = Path(__file__).parent
    paths = sorted([*here.glob("*.py"), *(here.parent / "tools").glob("*.py")])
    unused = {path.name: names for path in paths
              if (names := _unused_imports(ast.parse(path.read_text())))}
    assert unused == {}
