"""Import lint of the package, with the standard library's `ast` and
`symtable` only.

Every name a module of `src/relcor` imports must be used in that module, or
be re-exported through the `__all__` of a package `__init__`.  Every name in
the `__all__` of `relcor` and `relcor.lang` must import.  No module rebinds
a module-level name from a function (`global`): state that a call hands to
a later one belongs to an object the caller holds.  Every module-level
function and class is read by some module (a name resolved to module scope,
an attribute of an imported module or an import), listed in an `__all__` or
wrapped by the benchmark's tracer.  Importing relcor loads no `pickle`,
`multiprocessing` or `concurrent.futures`.
"""

import ast
import importlib
import os
import subprocess
import symtable
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


def _module_reads(module: str, tree: ast.Module, source: str) -> set:
    """The module-level names, as "module.name", that `module` reads: by a
    name that resolves to its module scope (a function calling itself does
    not count), by an attribute of a name that an import binds to a
    module, by importing it, or by listing it in its `__all__`.  `module`
    is the dotted path of its file, which ends in `__init__` for a package,
    whose names are read as the package's."""
    package = module.rsplit(".", 1)[0]
    bound = {}  # name -> the module, or module.name, that an import binds to it
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                top = alias.name.split(".")[0]  # what `import a.b` binds
                bound[alias.asname or top] = alias.name if alias.asname else top
        elif isinstance(node, ast.ImportFrom):
            base = package.rsplit(".", node.level - 1)[0] if node.level else ""
            origin = ".".join(filter(None, (base, node.module)))
            bound.update((alias.asname or alias.name, f"{origin}.{alias.name}")
                         for alias in node.names)
    name = module.removesuffix(".__init__")
    read = {f"{name}.{n}" for n in exported(tree)} | set(bound.values())
    read |= {f"{bound[n.value.id]}.{n.attr}" for n in ast.walk(tree)
             if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
             and n.value.id in bound}  # one that is no module names no definition

    def scope(table, owner: str) -> None:  # `owner`: the module-level definition it is in
        read.update(f"{name}.{sym.get_name()}" for sym in table.get_symbols()
                    if sym.is_referenced() and sym.get_name() != owner
                    and (sym.is_global() or table.get_type() == "module"))
        for child in table.get_children():
            scope(child, owner or child.get_name())

    scope(symtable.symtable(source, module, "exec"), "")
    return read


def unread_definitions(sources: dict) -> list:
    """The module-level functions and classes of `sources` (module name ->
    source), as "module.name", that no module reads (`_module_reads`)."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set().union(*(_module_reads(m, trees[m], sources[m]) for m in sources))
    defined = (f"{module.removesuffix('.__init__')}.{n.name}"
               for module, tree in trees.items() for n in tree.body
               if isinstance(n, (ast.FunctionDef, ast.ClassDef)))
    return sorted(set(defined) - read)


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
            "def hidden(): pass\n"
            "def other(): pass\n"
            "handler = by_name\n"
        ),
        "pkg.b": (
            "from . import a\n"
            "from .a import imported\n"
            "f = a.by_attribute\n"
            "def reader(obj):\n"
            "    hidden = obj.other\n"
            "    return hidden, obj.hidden\n"
            "reader(None)\n"
        ),
    }
    assert unread_definitions(sources) == [
        "pkg.a.Dead", "pkg.a.dead", "pkg.a.hidden", "pkg.a.other", "pkg.a.recursive"]


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
