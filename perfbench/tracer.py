"""Per-layer tracing of relcor from outside the package.

`Tracer.install()` replaces selected relcor functions and methods with
timing wrappers.  relcor copies functions between modules with
``from .x import f``, so a wrapper is bound in place of every module
global that *is* the original, not just the defining one.  Each wrapper
counts calls and accumulates total time and self time (its own time minus
the time of wrapped calls nested inside it).  Everything stays in memory
until `Tracer.report()`; `Tracer.restart()` reports and starts again from
zero, so that set-up and the timed work can be counted apart.

lru-cached functions are wrapped around the cache; their hits and misses
are read from the original's ``cache_info()``.  ``State.__hash__`` is
deliberately not wrapped: millions of calls through a Python wrapper would
distort the layers that hash states.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (module, class or None, attribute, metric prefix, how the result is recorded)
TARGETS = (
    ("relcor.lang.parser", None, "parse", "parser.parse", None),
    ("relcor.lang.interp", None, "execute", "interp.execute", "outcome"),
    ("relcor.lang.interp", None, "compile_program", "interp.compile_program", None),
    ("relcor.lang.ast_nodes", None, "replace_nodes", "ast_nodes.replace_nodes", None),
    ("relcor.lang.semantics", None, "denote", "semantics.denote", None),
    ("relcor.relations", "Relation", "closure", "relations.closure", None),
    ("relcor.relations", "Relation", "domain", "relations.domain", None),
    ("relcor.relations", None, "competence_domain", "relations.competence_domain", None),
    ("relcor.relations", None, "is_correct", "relations.is_correct", None),
    ("relcor.relations", None, "more_correct", "relations.more_correct", None),
    ("relcor.specs", "PredicateSpec", "enumerate", "specs.enumerate", "size"),
    ("relcor.specs", "EnumeratedSpec", "enumerate", "specs.enumerate", "size"),
    ("relcor.specs", None, "abs_oracle", "specs.abs_oracle", None),
    ("relcor.specs", "PredicateSpec", "membership", "specs.membership", None),
    ("relcor.specs", "EnumeratedSpec", "membership", "specs.membership", None),
    ("relcor.specs", "PredicateSpec", "in_dom", "specs.in_dom", None),
    ("relcor.specs", "EnumeratedSpec", "in_dom", "specs.in_dom", None),
    ("relcor.suites", None, "cached_execute", "suites.cached_execute", None),
    ("relcor.suites", None, "run_suite", "suites.run_suite", "durations"),
    ("relcor.suites", None, "select_tests", "suites.select_tests", None),
    ("relcor.mutate", None, "generate", "mutate.generate", "size"),
    ("relcor.mutate", None, "semantic_fingerprint", "mutate.semantic_fingerprint", None),
    ("relcor.repair", None, "classify_mutants", "repair.classify_mutants", None),
    ("relcor.repair", None, "repair", "repair.repair", None),
)

OUTCOMES = {"FinalState": "final", "NonTermination": "nontermination", "Undefined": "undefined"}
CACHED = {"interp.compile_program", "suites.cached_execute"}  # lru-cached targets
# names of the per-call counters recorded under "size"
SIZE_NAMES = {"specs.enumerate": "pairs", "mutate.generate": "mutants"}

_RAISED = object()


class _Stat:
    __slots__ = ("calls", "total", "own", "size", "durations")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.own = 0.0
        self.size = 0
        self.durations = []


def metric_names() -> list:
    """Every per-layer metric name `Tracer.report` emits, in order."""
    names = []
    for prefix in dict.fromkeys(t[3] for t in TARGETS):
        if prefix == "interp.execute":
            for tag in OUTCOMES.values():
                names += [f"{prefix}.{tag}.calls", f"{prefix}.{tag}.self_s"]
            continue
        names += [f"{prefix}.calls", f"{prefix}.self_s"]
        if prefix in CACHED:
            names += [f"{prefix}.hits", f"{prefix}.misses", f"{prefix}.hit_ratio"]
        if prefix in SIZE_NAMES:
            names.append(f"{prefix}.{SIZE_NAMES[prefix]}")
        if prefix == "suites.run_suite":
            names += [f"{prefix}.p50_ms", f"{prefix}.p90_ms"]
    return names


def relcor_modules() -> list:
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "relcor" or n.startswith("relcor."))]


class Tracer:
    def __init__(self):
        self.stats: dict = {}
        self._stack = [0.0]  # time of wrapped calls nested in each open call
        self._originals: dict = {}  # id(original) -> (original, wrapper)
        self._rebound: list = []  # (owner, attribute, original)
        self._cache_base: dict = {}
        self.missing: list = []

    def _stat(self, name: str) -> _Stat:
        return self.stats.setdefault(name, _Stat())

    def _wrap(self, fn, prefix: str, record):
        stack = self._stack
        clock = time.perf_counter
        if record == "outcome":
            by_type = {t: self._stat(f"{prefix}.{tag}") for t, tag in OUTCOMES.items()}
            raised = self._stat(f"{prefix}.raised")
            pick = lambda result: by_type.get(type(result).__name__, raised)
        else:
            stat = self._stat(prefix)
            pick = lambda result: stat

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = _RAISED
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = clock() - start
                own = elapsed - stack.pop()
                stack[-1] += elapsed
                st = pick(result)
                st.calls += 1
                st.total += elapsed
                st.own += own
                if record == "size" and result is not _RAISED:
                    st.size += len(result)
                elif record == "durations":
                    st.durations.append(elapsed)

        return wrapper

    def install(self) -> "Tracer":
        for modname, owner, attr, prefix, record in TARGETS:
            try:
                host = importlib.import_module(modname)
                if owner is not None:
                    host = getattr(host, owner)
                original = getattr(host, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{modname}.{owner + '.' if owner else ''}{attr}")
                continue
            if isinstance(host, type):
                original = host.__dict__[attr]
            wrapper = self._wrap(original, prefix, record)
            self._originals[id(original)] = (original, wrapper)
            if prefix in CACHED and hasattr(original, "cache_info"):
                self._cache_base[prefix] = (original, original.cache_info())
            if isinstance(host, type):
                setattr(host, attr, wrapper)
                self._rebound.append((host, attr, original))
        for mod in relcor_modules():
            for name, value in list(vars(mod).items()):
                entry = self._originals.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(mod, name, entry[1])
                    self._rebound.append((mod, name, value))
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._rebound):
            setattr(owner, attr, original)
        self._rebound.clear()

    def unwrapped(self) -> list:
        """Places in relcor that still hold an original of a wrapped function."""
        left = []
        for mod in relcor_modules():
            holders = [(mod.__name__, vars(mod))]
            holders += [(f"{mod.__name__}.{k}", vars(v)) for k, v in vars(mod).items()
                        if isinstance(v, type) and v.__module__ == mod.__name__]
            for where, namespace in holders:
                for name, value in namespace.items():
                    entry = self._originals.get(id(value))
                    if entry is not None and entry[0] is value:
                        left.append(f"{where}.{name}")
        return left

    def report(self) -> dict:
        """Per-layer metrics: name -> value, for every name in metric_names()."""
        out = {}
        for name in metric_names():
            prefix, _, field = name.rpartition(".")
            st = self.stats.get(prefix, _Stat())
            if field == "calls":
                out[name] = st.calls
            elif field == "self_s":
                out[name] = st.own
            elif field in ("pairs", "mutants"):
                out[name] = st.size
            elif field in ("p50_ms", "p90_ms"):
                d = sorted(st.durations)
                q = 0.5 if field == "p50_ms" else 0.9
                out[name] = 1000 * d[min(len(d) - 1, int(q * len(d)))] if d else 0.0
            elif field in ("hits", "misses", "hit_ratio"):
                hits, misses = self.cache_counts(prefix)
                out[name] = {"hits": hits, "misses": misses,
                             "hit_ratio": hits / (hits + misses) if hits + misses else 0.0}[field]
        return out

    def exclude(self, seconds: float) -> None:
        """Leave `seconds` spent outside relcor out of the self time of the
        innermost open wrapped call."""
        self._stack[-1] += seconds

    def restart(self) -> dict:
        """The report so far; counting then starts again from zero."""
        out = self.report()
        for st in self.stats.values():
            st.__init__()
        self._cache_base = {p: (original, original.cache_info())
                            for p, (original, _) in self._cache_base.items()}
        return out

    def cache_counts(self, prefix: str) -> tuple:
        """(hits, misses) of an lru-cached target since install()."""
        if prefix not in self._cache_base:
            return 0, 0
        original, before = self._cache_base[prefix]
        now = original.cache_info()
        return now.hits - before.hits, now.misses - before.misses
