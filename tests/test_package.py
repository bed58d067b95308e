import ast
import inspect
import re
from pathlib import Path

import toruslab
from toruslab import cli

PACKAGE = Path(toruslab.__file__).parent
ROOT = Path(__file__).parents[1]
README = ROOT / "README.md"


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


def _docstring_examples(tree):
    """The code of the doctest examples in a module's docstrings."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
            lines = [line.strip()[4:] for line in
                     (ast.get_docstring(node) or "").splitlines()
                     if line.strip().startswith((">>> ", "... "))]
            if lines:
                yield ast.parse("\n".join(lines))


def _trees_outside_the_tests():
    """The syntax trees of the code that may read the package outside
    tests/: the package and its docstring examples, the python blocks of
    README, perfbench/ less its tests, and tools/."""
    trees = []
    for path in sorted([*PACKAGE.glob("*.py"), *(ROOT / "perfbench").glob(
            "*.py"), *(ROOT / "tools").glob("*.py")]):
        tree = ast.parse(path.read_text())
        trees += [tree, *_docstring_examples(tree)]
    fence = re.compile(r"^```python\n(.*?)^```", re.M | re.S)
    return trees + [ast.parse(block)
                    for block in fence.findall(README.read_text())]


def _unread_defaults(name, params, trees):
    """The defaulted parameters of the function `name` that no call of a
    function of that name in trees passes, by keyword or by position; a
    call that unpacks *args or **kwargs passes them all."""
    passed, n_positional = set(), 0
    for tree in trees:
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call) or name != getattr(
                    call.func, "id", getattr(call.func, "attr", None)):
                continue
            if any(isinstance(a, ast.Starred) for a in call.args) \
                    or any(k.arg is None for k in call.keywords):
                return []
            n_positional = max(n_positional, len(call.args))
            passed |= {k.arg for k in call.keywords}
    return [f"{name}({p.name}=)" for i, p in enumerate(params)
            if p.default is not p.empty and p.name not in passed
            and not (p.kind <= p.POSITIONAL_OR_KEYWORD and i < n_positional)]


def test_every_member_and_default_has_a_reader_outside_the_tests():
    # one that only tests read is an option or an API no run exercises.
    # The census goes by name: a method counts as read when any attribute
    # of its name is read, so a common name such as `of` passes on the
    # strength of another object's reads
    trees = _trees_outside_the_tests()
    known = set().union(*map(_references, trees))
    members = [f"{cls.name}.{fn.name}"
               for path in sorted(PACKAGE.glob("*.py"))
               for cls in ast.walk(ast.parse(path.read_text()))
               if isinstance(cls, ast.ClassDef)
               for fn in cls.body if isinstance(fn, ast.FunctionDef)
               and not fn.name.startswith("_") and fn.name not in known]
    defaults = [unread for name in toruslab.__all__
                if inspect.isfunction(fn := getattr(toruslab, name))
                for unread in _unread_defaults(
                    name, list(inspect.signature(fn).parameters.values()),
                    trees)]
    assert (members, defaults) == ([], [])


def _cfg_reads(fn, functions):
    """The config keys that the cli function fn reads from its `cfg`:
    cfg["key"], cfg.get("key") and a string passed beside cfg, as to
    _need(cfg, "key"), and the reads of each cli function it passes cfg
    to. Recording the whole of cfg, as _params does, reads no key."""
    reads = set()
    for node in ast.walk(functions[fn]):
        if isinstance(node, ast.Subscript) and getattr(
                node.value, "id", None) == "cfg" \
                and isinstance(node.slice, ast.Constant):
            reads.add(node.slice.value)
        elif isinstance(node, ast.Call):
            func = node.func
            keys = []
            if isinstance(func, ast.Attribute) and func.attr == "get" \
                    and getattr(func.value, "id", None) == "cfg":
                keys = node.args[:1]
            elif any(getattr(a, "id", None) == "cfg" for a in node.args):
                keys = node.args
                if getattr(func, "id", None) in functions:
                    reads |= _cfg_reads(func.id, functions)
            reads |= {a.value for a in keys if isinstance(a, ast.Constant)}
    return reads


# flags that a command takes and does not read, each with its reason
_UNREAD_FLAGS = {
    # perfbench's orbit workload passes --seed to freq
    ("freq", "seed"),
}


def test_every_flag_is_read_by_its_command():
    # a flag the run ignores passes for one it obeyed
    functions = {node.name: node for node in ast.parse(
        Path(cli.__file__).read_text()).body
        if isinstance(node, ast.FunctionDef)}
    unread = {(" ".join(key), flag)
              for key, (handler, flags) in cli._COMMANDS.items()
              for flag in cli._settable(flags)
              if flag not in _cfg_reads(handler.__name__, functions)}
    assert unread == _UNREAD_FLAGS
