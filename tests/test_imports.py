"""Import lint of the package, with the standard library's `ast` only.

Every name a module of `src/relcor` imports must be used in that module, or
be re-exported through the `__all__` of a package `__init__`.  Every name in
the `__all__` of `relcor` and `relcor.lang` must import.  No module rebinds
a module-level name from a function (`global`): state that a call hands to
a later one belongs to an object the caller holds.  Every module-level
function and class is read by some module, listed in an `__all__` or wrapped
by the benchmark's tracer.  Importing relcor loads no `pickle`,
`multiprocessing` or `concurrent.futures`.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest
from test_bench_hooks import _load_tracer

SRC = Path(__file__).parent.parent / "src" / "relcor"


def _bound_name(alias: ast.alias, module_import: bool) -> str:
    if alias.asname:
        return alias.asname
    return alias.name.split(".")[0] if module_import else alias.name


def unused_imports(source: str) -> list:
    """Names that `source` imports (at any depth) and never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[_bound_name(alias, True)] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[_bound_name(alias, False)] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | exported(tree)
    return sorted((line, name) for name, line in imported.items() if name not in used)


def exported(tree: ast.Module) -> set:
    """The names that the module's `__all__` lists."""
    out = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            out |= set(ast.literal_eval(node.value))
    return out


def test_the_lint_sees_unused_and_used_imports():
    source = (
        "from __future__ import annotations\n"
        "import json\n"
        "import os.path\n"
        "from .a import b, c as d, e\n"
        "def f(x: e):\n"
        "    from .g import h\n"
        "    return os.path.join(d, x)\n"
        "__all__ = ['b']\n"
    )
    assert unused_imports(source) == [(2, "json"), (6, "h")]


def test_no_unused_import():
    found = {str(path.relative_to(SRC)): unused_imports(path.read_text())
             for path in sorted(SRC.rglob("*.py"))}
    assert {path: names for path, names in found.items() if names} == {}


def unread_definitions(sources: dict) -> list:
    """The module-level functions and classes of `sources` (module name ->
    source), as "module.name", that no module reads (by a Name, an
    attribute or an import alias) and no `__all__` lists."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        read |= exported(tree)
        for n in ast.walk(tree):
            if isinstance(n, ast.Name):
                read.add(n.id)
            elif isinstance(n, ast.Attribute):
                read.add(n.attr)
            elif isinstance(n, ast.alias):
                read.add(n.name)
    return sorted(f"{module}.{n.name}" for module, tree in trees.items() for n in tree.body
                  if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and n.name not in read)


def test_the_lint_sees_unread_definitions():
    sources = {
        "pkg.a": (
            "__all__ = ['listed']\n"
            "def listed(): pass\n"
            "def imported(): pass\n"
            "def by_attribute(): pass\n"
            "def by_name(): pass\n"
            "def recursive(n):\n"
            "    return recursive(n - 1)\n"
            "def dead(): pass\n"
            "class Dead:\n"
            "    def method(self): pass\n"
            "handler = by_name\n"
        ),
        "pkg.b": "from . import a\nfrom .a import imported\nf = a.by_attribute\n",
    }
    assert unread_definitions(sources) == ["pkg.a.Dead", "pkg.a.dead"]


#: module-level names that only the benchmark's tracer reads, each kept for
#: its per-layer numbers alone
TRACED_ONLY = {"relcor.mutate.semantic_fingerprint", "relcor.specs.abs_oracle"}


def test_every_definition_is_read_exported_or_traced():
    """A function or class that nothing reads is dead code, unless the
    benchmark's tracer (`perfbench/tracer.py`, loaded from its file) wraps
    it; and the names that only the tracer keeps are the known ones."""
    traced = {f"{module}.{owner or attr}" for module, owner, attr, _, _ in _load_tracer().TARGETS}
    sources = {".".join(path.relative_to(SRC.parent).with_suffix("").parts): path.read_text()
               for path in sorted(SRC.rglob("*.py"))}
    unread = set(unread_definitions(sources))
    assert unread - traced == set()
    assert unread & traced == TRACED_ONLY


def global_statements(source: str) -> list:
    """The line and names of each `global` statement in `source`."""
    return [(n.lineno, n.names) for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Global)]


def test_the_lint_sees_global_statements():
    source = "x = 0\ndef f():\n    global x\n    x = 1\ndef g():\n    return x\n"
    assert global_statements(source) == [(3, ["x"])]


def test_no_global_statement():
    found = {str(path.relative_to(SRC)): global_statements(path.read_text())
             for path in sorted(SRC.rglob("*.py"))}
    assert {path: names for path, names in found.items() if names} == {}


@pytest.mark.parametrize("package", ["relcor", "relcor.lang"])
def test_every_exported_name_imports(package):
    module = importlib.import_module(package)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_importing_relcor_loads_no_pickle_or_process_pool():
    """Each benchmark unit pays for every module relcor imports in its
    `setup_s`; batch workers are forked and send rows with `marshal`, so
    none of these is needed."""
    probe = ("import sys, relcor.repair; "
             "print(sorted({'pickle', 'multiprocessing', 'concurrent.futures'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.split() == ["[]"]
