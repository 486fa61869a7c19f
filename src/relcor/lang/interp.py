"""Fuel-bounded interpreter for the toy language.

Programs are compiled to Python source (one function per program) and
exec'd; the compiled form is cached per (program, space, mode).  Two
evaluation modes exist:

* ``exact`` — values are confined to the declared intervals; an assignment
  whose value leaves the target's domain makes the state undefined.  This
  is the operational twin of the denotational semantics.
* ``wide`` — machine-style unbounded integers, no interval checks.  Used
  where exhaustive state spaces are infeasible.

Division truncates toward zero and modulus takes the dividend's sign
(C semantics) in both modes.  Each completed loop-body iteration consumes
one unit of fuel; exhaustion yields ``NonTermination``.  Block locals are
initialized to the low end of their interval (zero in wide mode); programs
are expected to assign locals before reading them, which is also what
keeps their denotations deterministic.

Exact mode also detects repeats.  Each entry into a loop keeps the set of
states, over every variable in scope, seen at the loop head after each
completed iteration, and the run yields ``NonTermination`` as soon as one
recurs.  That changes no outcome for any fuel: a run is deterministic, so a
repeated head state means it cycles forever and would only have exhausted
its fuel later.  What it changes is cost, because exact-mode values stay in
finite intervals: a divergent run stops after at most |states in scope| + 1
iterations of its loop however much fuel it has, so `tabulate` over a
whole space (which `semantics.denote` uses) stays linear in the space even
where the program diverges everywhere.  Wide mode has no such bound (its
values grow), so it keeps fuel alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from ..errors import RelcorError
from ..space import ArrayDomain, State, StateSpace
from .ast_nodes import (
    Abort,
    And,
    ArrayRead,
    ArrayTarget,
    Assign,
    BinOp,
    Block,
    BoolLit,
    Cmp,
    If,
    IfElse,
    IntLit,
    Neg,
    Not,
    Or,
    Seq,
    Skip,
    Var,
    VarTarget,
    While,
)


@dataclass(frozen=True)
class FinalState:
    state: State


@dataclass(frozen=True)
class NonTermination:
    pass


@dataclass(frozen=True)
class Undefined:
    site: str


NONTERMINATION = NonTermination()


class UndefinedEval(Exception):
    """Raised by compiled code when evaluation is partial at this state."""

    def __init__(self, site: str):
        self.site = site


class _Aborted(Exception):
    pass


class _OutOfFuel(Exception):
    pass


class _Repeated(Exception):
    pass


_NO_END = (_OutOfFuel, _Repeated, _Aborted)  # abort never terminates in any state


def cdiv(a: int, b: int) -> int:
    if b == 0:
        raise UndefinedEval("division by zero")
    q = abs(a) // abs(b)
    return q if (a < 0) == (b < 0) else -q


def cmod(a: int, b: int) -> int:
    return a - b * cdiv(a, b)


def _aread(arr: tuple, i: int, length: int, name: str):
    if not 0 <= i < length:
        raise UndefinedEval(f"index {i} out of bounds for {name}[{length}]")
    return arr[i]


# -- code generation ---------------------------------------------------------------

_V = "v_"  # prefix keeping program variables clear of generated helpers


class _Emitter:
    def __init__(self, space: StateSpace, exact: bool, prefix: str = _V):
        self.space = space
        self.exact = exact
        self.prefix = prefix
        self.arrays = {n: d.length for n, d in space.vars if isinstance(d, ArrayDomain)}
        self.domains = dict(space.vars)
        self.lines: list[str] = []
        self.tmp = 0

    def fresh(self) -> str:
        self.tmp += 1
        return f"_t{self.tmp}"

    def emit(self, depth: int, text: str) -> None:
        self.lines.append("    " * depth + text)

    # expressions ------------------------------------------------------------

    def expr(self, e) -> str:
        if isinstance(e, IntLit):
            return f"({e.value})"
        if isinstance(e, Var):
            return self.prefix + e.name
        if isinstance(e, ArrayRead):
            length = self.arrays[e.name]
            return f"_aread({self.prefix}{e.name}, {self.expr(e.index)}, {length}, {e.name!r})"
        if isinstance(e, Neg):
            return f"(-{self.expr(e.operand)})"
        if isinstance(e, BinOp):
            l, r = self.expr(e.left), self.expr(e.right)
            if e.op == "/":
                return f"cdiv({l}, {r})"
            if e.op == "%":
                return f"cmod({l}, {r})"
            return f"({l} {e.op} {r})"
        raise TypeError(f"not an expression node: {e!r}")

    def cond(self, c) -> str:
        if isinstance(c, BoolLit):
            return str(c.value)
        if isinstance(c, Cmp):
            return f"({self.expr(c.left)} {c.op} {self.expr(c.right)})"
        if isinstance(c, Not):
            return f"(not {self.cond(c.operand)})"
        if isinstance(c, And):
            return f"({self.cond(c.left)} and {self.cond(c.right)})"
        if isinstance(c, Or):
            return f"({self.cond(c.left)} or {self.cond(c.right)})"
        raise TypeError(f"not a condition node: {c!r}")

    # statements --------------------------------------------------------------

    def _check_interval(self, depth: int, tmp: str, dom, what: str) -> None:
        self.emit(
            depth,
            f"if not ({dom.lo} <= {tmp} <= {dom.hi}):"
            f" raise UndefinedEval('value outside the domain of {what}')",
        )

    def stmt(self, s, depth: int) -> None:
        if isinstance(s, Skip):
            self.emit(depth, "pass")
        elif isinstance(s, Abort):
            self.emit(depth, "raise _Aborted()")
        elif isinstance(s, Assign):
            t = s.target
            value = self.expr(s.expr)
            if isinstance(t, VarTarget):
                if self.exact:
                    tmp = self.fresh()
                    self.emit(depth, f"{tmp} = {value}")
                    self._check_interval(depth, tmp, self.domains[t.name], t.name)
                    self.emit(depth, f"{self.prefix}{t.name} = {tmp}")
                else:
                    self.emit(depth, f"{self.prefix}{t.name} = {value}")
            else:
                length = self.arrays[t.name]
                ti = self.fresh()
                tv = self.fresh()
                self.emit(depth, f"{ti} = {self.expr(t.index)}")
                self.emit(
                    depth,
                    f"if not 0 <= {ti} < {length}:"
                    f" raise UndefinedEval('index out of bounds for {t.name}')",
                )
                self.emit(depth, f"{tv} = {value}")
                if self.exact:
                    self._check_interval(depth, tv, self.domains[t.name].elem, t.name)
                a = self.prefix + t.name
                self.emit(depth, f"{a} = {a}[:{ti}] + ({tv},) + {a}[{ti} + 1:]")
        elif isinstance(s, Seq):
            self.stmt(s.first, depth)
            self.stmt(s.second, depth)
        elif isinstance(s, If):
            self.emit(depth, f"if {self.cond(s.cond)}:")
            self.stmt(s.then, depth + 1)
        elif isinstance(s, IfElse):
            self.emit(depth, f"if {self.cond(s.cond)}:")
            self.stmt(s.then, depth + 1)
            self.emit(depth, "else:")
            self.stmt(s.orelse, depth + 1)
        elif isinstance(s, While):
            if self.exact:
                seen = self.fresh()
                self.emit(depth, f"{seen} = set()")
            self.emit(depth, f"while {self.cond(s.cond)}:")
            self.stmt(s.body, depth + 1)
            self.emit(depth + 1, "fuel -= 1")
            self.emit(depth + 1, "if fuel < 0: raise _OutOfFuel()")
            if self.exact:
                head = self.fresh()
                in_scope = "".join(f"{self.prefix}{n}, " for n in self.domains)
                self.emit(depth + 1, f"{head} = ({in_scope})")
                self.emit(depth + 1, f"if {head} in {seen}: raise _Repeated()")
                self.emit(depth + 1, f"{seen}.add({head})")
        elif isinstance(s, Block):
            if self.exact:
                if s.interval is None:
                    raise RelcorError(
                        f"block local {s.name!r} needs a : lo..hi annotation in exact mode"
                    )
                init = s.interval.lo
                saved = self.domains.get(s.name)
                self.domains[s.name] = s.interval
            else:
                init = 0
                saved = None
            self.emit(depth, f"{self.prefix}{s.name} = {init}")
            self.stmt(s.body, depth)
            if self.exact:
                if saved is None:
                    self.domains.pop(s.name, None)
                else:
                    self.domains[s.name] = saved
        else:
            raise TypeError(f"not a statement node: {s!r}")


@lru_cache(maxsize=4096)
def compile_program(p, space: StateSpace, mode: str = "exact"):
    """Compile a program for `space`; returns f(values_tuple, fuel) -> values_tuple."""
    if mode not in ("exact", "wide"):
        raise ValueError(f"unknown mode {mode!r}")
    em = _Emitter(space, mode == "exact")
    names = ", ".join(_V + n for n in space.names) or "_nothing"
    em.emit(0, f"def _run(_values, fuel):")
    if space.names:
        em.emit(1, f"({names},) = _values")
    em.stmt(p, 1)
    em.emit(1, f"return ({names},)" if space.names else "return ()")
    src = "\n".join(em.lines)
    namespace = {
        "cdiv": cdiv,
        "cmod": cmod,
        "_aread": _aread,
        "UndefinedEval": UndefinedEval,
        "_Aborted": _Aborted,
        "_OutOfFuel": _OutOfFuel,
        "_Repeated": _Repeated,
    }
    exec(compile(src, "<compiled-program>", "exec"), namespace)
    return namespace["_run"]


def execute(p, s: State, fuel: int, mode: str = "exact"):
    """Run program `p` on state `s`; returns FinalState, NonTermination, or
    Undefined."""
    run = compile_program(p, s.space, mode)
    try:
        values = run(s.values, fuel)
    except _NO_END:
        return NONTERMINATION
    except UndefinedEval as u:
        return Undefined(u.site)
    return FinalState(State(s.space, values))


def tabulate(p, space: StateSpace, states, fuel: int) -> set:
    """The pairs (s, t) of the `states` of `space` on which the exact-mode
    run of `p` ends in t; states where it is undefined or does not
    terminate within `fuel` contribute none."""
    run = compile_program(p, space, "exact")
    pairs = set()
    for s in states:
        try:
            pairs.add((s, State(space, run(s.values, fuel))))
        except (*_NO_END, UndefinedEval):
            pass
    return pairs


# -- per-state evaluation helpers used by the denotational semantics ----------------


def compile_expr(e, arrays: dict):
    """Compile an integer expression to env(dict) -> int."""
    em = _Emitter.__new__(_Emitter)
    em.arrays = arrays
    em.prefix = ""
    src = em.expr(e)
    code = compile(src, "<expr>", "eval")
    globs = {"cdiv": cdiv, "cmod": cmod, "_aread": _aread, "__builtins__": {}}
    return lambda env: eval(code, globs, env)


def compile_cond(c, arrays: dict):
    """Compile a condition to env(dict) -> bool."""
    em = _Emitter.__new__(_Emitter)
    em.arrays = arrays
    em.prefix = ""
    src = em.cond(c)
    code = compile(src, "<cond>", "eval")
    globs = {"cdiv": cdiv, "cmod": cmod, "_aread": _aread, "__builtins__": {}}
    return lambda env: eval(code, globs, env)
