"""Import toruslab from a source tree, exactly as committed where possible.

On Python 3.11, ``toruslab.systems._Slots`` fails at import with
``ValueError: mutable default <class 'slice'> ...`` because its dataclass
fields default to ``slice(0, 0)`` (unhashable before 3.12). Only when a
plain import raises that exact error does ``load`` re-import the package
with the four defaults rewritten, in memory, to
``dc_field(default_factory=lambda: slice(0, 0))``. Nothing else in the
source changes, so the numbers stay comparable with a tree where the fix
has landed and the rewrite no longer fires.
"""

from __future__ import annotations

import importlib
import importlib.abc
import importlib.machinery
import importlib.util
import sys
from pathlib import Path

_ERROR_PREFIX = "mutable default <class 'slice'> for field"
_OLD = "slice = slice(0, 0)"
_NEW = "slice = dc_field(default_factory=lambda: slice(0, 0))"
_EXPECTED_COUNT = 4


class ShimMismatch(RuntimeError):
    """The source no longer has the text the rewrite expects."""


def patched_systems_source(text: str) -> str:
    """The systems source with the four slice defaults rewritten."""
    found = text.count(_OLD)
    if found != _EXPECTED_COUNT or "dc_field" not in text:
        raise ShimMismatch(
            f"expected {_EXPECTED_COUNT} '{_OLD}' defaults and a dc_field "
            f"import in toruslab/systems.py, found {found}")
    return text.replace(_OLD, _NEW)


class _PatchedSystemsLoader(importlib.machinery.SourceFileLoader):
    # get_code is overridden so neither a stale nor a fresh .pyc is used
    def get_code(self, fullname):
        text = Path(self.path).read_text()
        return compile(patched_systems_source(text), self.path, "exec",
                       dont_inherit=True)


class _PatchedSystemsFinder(importlib.abc.MetaPathFinder):
    def __init__(self, path: Path):
        self.path = path

    def find_spec(self, fullname, path=None, target=None):
        if fullname != "toruslab.systems":
            return None
        loader = _PatchedSystemsLoader(fullname, str(self.path))
        return importlib.util.spec_from_file_location(
            fullname, str(self.path), loader=loader)


def _forget_toruslab() -> None:
    for name in [m for m in sys.modules
                 if m == "toruslab" or m.startswith("toruslab.")]:
        del sys.modules[name]


def load(src: Path) -> bool:
    """Import ``toruslab.cli`` from ``src``; return whether the shim fired.

    Raises ImportError when ``src`` holds no toruslab package, so a
    checkout without the program cannot pass for one that has it.
    """
    pkg = src / "toruslab"
    if not (pkg / "__init__.py").is_file():
        raise ImportError(f"no toruslab package under {src}")
    sys.path.insert(0, str(src))
    try:
        importlib.import_module("toruslab.cli")
        fired = False
    except ValueError as e:
        if not str(e).startswith(_ERROR_PREFIX):
            raise
        _forget_toruslab()
        sys.meta_path.insert(0, _PatchedSystemsFinder(pkg / "systems.py"))
        importlib.import_module("toruslab.cli")
        fired = True
    loaded = Path(sys.modules["toruslab"].__file__).resolve()
    if loaded.parent != pkg.resolve():
        raise ImportError(f"toruslab was imported from {loaded}, "
                          f"not from {pkg}")
    return fired
