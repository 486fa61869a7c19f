"""Fuel-bounded interpreter for the toy language.

Programs are compiled to Python source (one function per program, or a
few per batch of mutants and one per mutant changed within a loop; see
below) and exec'd; a program's compiled form is cached per (program,
space, mode).  Two evaluation modes exist:

* ``exact`` — values are confined to the declared intervals; an assignment
  whose value leaves the target's domain makes the state undefined.  This
  is the operational twin of the denotational semantics.
* ``wide`` — machine-style unbounded integers, no interval checks.  Used
  where exhaustive state spaces are infeasible.

Division truncates toward zero and modulus takes the dividend's sign
(C semantics) in both modes.  Each completed loop-body iteration consumes
one unit of fuel; exhaustion yields ``NonTermination``, as `abort` and the
checks below do: compiled code raises one exception, `_NoEnd`, for every
run that never ends.  A block local may not redeclare a variable in scope
(a `RelcorError` in both modes, as in the parser).  In wide mode it starts
at zero.  Exact mode requires its interval (`local_interval`) and refuses,
with a `RelcorError` as it compiles the block, a local that some path
through the block may read before it assigns it (`exposed`): no exact run
reads a local's initial value, so one run per state defines [p], and [p]
is a function.  The local starts at the low end of its interval, which
only repeat detection's loop-head states hold.

Both modes can end a run that will never end before its fuel runs out, and
neither changes an outcome for any fuel by doing so: the run would only
have exhausted its fuel later.

* Exact mode detects repeats.  Each entry into a loop keeps the set of
  states, over every variable in scope, seen at the loop head after each
  completed iteration, and the run yields ``NonTermination`` as soon as one
  recurs: a run is deterministic, so a repeated head state means it cycles
  forever.  Exact-mode values stay in finite intervals, so a divergent run
  stops after at most |states in scope| + 1 iterations of its loop however
  much fuel it has: every run ends, also at unbounded fuel (`math.inf`,
  which `semantics` runs at), and running a program on a whole space (as
  `semantics.denote` does) stays linear in the space even where the
  program diverges everywhere.
* Wide-mode values keep growing, so a state rarely repeats.  Instead, a
  loop whose guard and body (scalar assignments, `if`s, block locals and
  inner loops only) read no array and divide only by non-zero integer
  literals gets a recurrent-set check (Gupta et al., "Proving
  non-termination", POPL 2008).  At a check point the run takes one
  concrete body step from the current head state and builds a box from it
  over the variables whose head values an iteration may read: a variable
  that rose gets [v, +inf), one that fell (-inf, v], one that stayed
  [v, v].  The others, those that the body assigns on every path before it
  reads them and the body's block locals, are left out of the box and may
  take any value.  If interval arithmetic shows that the guard holds on the
  whole box (a comparison whose sides differ by a constant holds on all of
  it or on none) and that the body maps the box into itself, the loop can
  never exit, and the run yields ``NonTermination`` at once.  A body with `if`s
  and inner loops runs on the box along the one path that the box decides,
  with no joins and no widening: each guard met must hold on the whole box
  or on none of it, and an inner loop must end within `_UNROLL` iterations,
  or the check gives up.  Its concrete step gives up at the same bound, as
  the box, which holds the head state, cannot take a longer path.  Such a
  body cannot be undefined on the box (no array access, no divisor that
  can be zero), so ``Undefined`` was not possible either.  Each checked
  loop has check points of its own, counted in the fuel consumed since the
  run's start: its first iteration at which that reaches 8, and then the
  first at which it has doubled since the loop's last check.  An inner
  loop entered again does not restart its schedule, so a run makes about
  log2(fuel) checks plus at most one per checked loop it enters (a schema
  counts them per step and per suffix; see below).  The check compiles to
  Python on its first call, once per distinct loop (`_recurrence`),
  whichever programs hold it, and takes the loop's variables as
  arguments.  It takes the concrete step with the program's own
  expressions and returns as soon as the guard is not certain on the box;
  only a box that passes has its image computed.  A checked loop tests
  its fuel once per iteration, against its next check point, which is
  never below fuel -1, and tests for exhaustion only there.  A program
  without such a loop compiles exactly as it would without the check.

A wide-mode counting loop, one whose guard is one `<`, `<=`, `>` or `>=`
and whose iteration adds invariant amounts to some variables and amounts
affine in those to the others (`acceleration`), runs in closed form, with
no check and no check point: if its guard holds, `_exit` finds the first k
in 1..fuel at which it fails, and every variable takes its value after k
iterations at once while the fuel drops by k; with no such k, the run
yields ``NonTermination``, as iterating would.

A batch of single-site mutants of one base compiles once, as a mutant
schema (Untch, Offutt and Harrold, "Mutation analysis using mutant
schemata", ISSTA 1993; `compile_schema`), split at the base's cuts: the
statements of its outermost `Seq` chain, in order.  Cuts do not descend
into a `Block`, so a run's state at a cut is its values tuple, with no
block local in it, and a block-wrapped program is a single cut.  Each cut
compiles to a step, `_step<c>(_m, values, fuel) -> (values, fuel)`: the
cut's statement with a dispatch on a mutant index `_m`.  Each statement
within it whose own expressions (an assignment's, or an `if`'s guard) hold
the change of some mutants gets `if not lo <= _m <= hi:`, which runs the
base statement, and one branch per mutant, which runs that statement as it
appears in the mutant's own tree.  The base is `_m = 0`.  One more
function, the suffix `_run(c, values, fuel) -> values`, runs the base from
cut c to the end, with no dispatch.  It is entered only after a mutant's
step, so it starts at cut 1, and a run whose step is the base's last cut
ends with that step.  The mutants are found by identity, as `replace_nodes`
shares every subtree off the changed spine: the emitter follows each one
down the `Seq` chain to its cut, and on down block and `if` bodies to the
innermost statement holding its change.  Nothing in a
`while`, guard or body, gets a dispatch, so no loop pays for a selector on
every iteration.  A mutant changed there gets its own step for its cut
instead: the mutant's cut statement compiled on its own, as
`_step<c>(values, fuel) -> (values, fuel)`, in a module of its own, so
that no module holds a copy of the loop per mutant.  An own step compiles
on its first call, in whichever process makes the mutant's row, so a batch
that makes no row of a loop mutant (that of an already correct root, say)
compiles none of them; one that Python refuses raises the user error
there, as the mutant compiled alone would.  So every mutant of
the batch is covered, by a dispatch or by its own step.  Each step, and
the suffix, schedules its loops' check points from its own entry, as a
run does from its start; no check point changes an outcome, so neither
does where one falls.

A covered mutant changed at cut c matches its base everywhere else, so its
run is the base's steps before c, its step for c, then the base's suffix
from c + 1.  `compile_schema` returns the compiled `Schema` to its caller,
the batch kernel (`suites`), and keeps nothing.  The kernel runs each step
of the base, and each mutant's step, once per distinct state that the base
has at the step's cut, and looks the rest of a mutant's run up by state
(split-stream execution; Just, Ernst and Fraser, "Efficient mutation
analysis by propagating and partitioning infected execution states", ISSTA
2014).  The dispatch nests the code one level
deeper, and so does the suffix's test of c; a schema that Python refuses
as nested too deeply is dropped, so that each mutant compiles on its own,
as it would without schemata.

The same emitter compiles single expressions and conditions
(`compile_eval`), for the guards and assigned values of the structural
semantics and for spec predicates, whose primed names read output values,
and a predicate spec's verdicts, loops over value tuples with its
predicates inlined (`compile_spec`).  An array read at a literal index
inside the array compiles to a plain subscript; every other index goes
through the bounds check `_aread`, so a literal outside the array is
undefined, as a computed index is.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, fields
from functools import lru_cache, partial
from itertools import product

from ..errors import RelcorError
from ..space import ArrayDomain, State, StateSpace
from .ast_nodes import (
    Abort,
    And,
    ArrayRead,
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
    preorder,
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


class _NoEnd(Exception):
    """Raised by compiled code for a run that never ends."""


def cdiv(a: int, b: int) -> int:
    """C division: the quotient truncated toward zero."""
    if b == 0:
        raise UndefinedEval("division by zero")
    q = a // b  # floored, so one below the truncated quotient when inexact and negative
    return q + 1 if q < 0 and q * b != a else q


def cmod(a: int, b: int) -> int:
    """C remainder: a - b * cdiv(a, b), with the sign of the dividend."""
    if b == 0:
        raise UndefinedEval("division by zero")
    r = a % b  # floored, with the sign of the divisor
    return r - b if r and (a < 0) != (b < 0) else r


def _aread(arr: tuple, i: int, length: int, name: str):
    if not 0 <= i < length:
        raise UndefinedEval(f"index {i} out of bounds for {name}[{length}]")
    return arr[i]


def local_interval(s: Block):
    """The interval of block `s`'s local, which exact mode requires."""
    if s.interval is None:
        raise RelcorError(f"block local {s.name!r} needs a : lo..hi annotation in exact mode")
    return s.interval


# -- recurrent boxes (wide mode) ---------------------------------------------------
#
# An interval is a pair (lo, hi); lo is an int or -inf, hi an int or +inf,
# so no operation below ever adds +inf to -inf.  The infinities are floats.
# An int meets one in comparisons, which Python makes exactly, and in
# arithmetic only as a literal c with |c| < 2**53 (`_small`), in x + c,
# c + x, x - c, x * c and c * x: a float infinity plus or times such an int
# is that infinity or its negation, as `_add` and `_mul` would give, and an
# int stays exact.  Any other int, however huge, meets an infinity only in
# `_add` and `_mul`, which never convert it (a huge int cannot be).

_INF = float("inf")
_CHECK_FROM = 8  # consumed fuel at a run's first check point


def _small(e) -> bool:
    """Whether expression `e` is an integer literal that plain `+` and `*`
    may meet with a float infinity."""
    return isinstance(e, IntLit) and -2**53 < e.value < 2**53


def _add(x, y):
    return x if isinstance(x, float) else y if isinstance(y, float) else x + y


def _mul(x, y):
    if x == 0 or y == 0:
        return 0  # 0 * inf = 0: the factor is exactly zero
    if isinstance(x, float) or isinstance(y, float):
        return _INF if (x > 0) == (y > 0) else -_INF
    return x * y


def _div(x, c: int):
    return (x if c > 0 else -x) if isinstance(x, float) else cdiv(x, c)


_BOXABLE = (Seq, Skip, Assign, VarTarget, IntLit, Var, Neg, BinOp, BoolLit, Cmp, Not, And, Or,
            If, IfElse, Block, While)
_UNROLL = 16  # iterations of an inner loop that a divergence check follows before it gives up


def _boxable(loop: While) -> bool:
    """Whether the loop's guard and body are total on every box: scalar
    assignments, `if`s, block locals and inner loops, no array, divisors
    non-zero literals only."""
    return all(
        isinstance(n, _BOXABLE)
        and not (isinstance(n, BinOp) and n.op in "/%"
                 and not (isinstance(n.right, IntLit) and n.right.value != 0))
        for part in (loop.cond, loop.body) for n in preorder(part)
    )


def _assigned(s) -> dict:
    """The variables that statement `s` may assign, but for its own block
    locals, in order."""
    local = {n.name for n in preorder(s) if isinstance(n, Block)}
    return dict.fromkeys(n.target.name for n in preorder(s)
                         if isinstance(n, Assign) and n.target.name not in local)


def exposed(s) -> set:
    """The variables that some path through statement `s` reads before it
    assigns them, a block local within `s` counting as assigned: for the
    divergence check's box (`_live`) and the block locals that exact mode
    refuses (`_Emitter._local`)."""
    out = set()

    def walk(s, done: frozenset) -> frozenset:  # -> the variables assigned on every path
        if isinstance(s, (Assign, If, IfElse, While)):  # an array target's index is read too
            read = s if isinstance(s, Assign) else s.cond
            out.update(n.name for n in preorder(read) if isinstance(n, Var) and n.name not in done)
        if isinstance(s, Assign):
            return done | {s.target.name}
        if isinstance(s, Seq):
            return walk(s.second, walk(s.first, done))
        if isinstance(s, Block):
            return walk(s.body, done | {s.name}) - {s.name}
        if isinstance(s, (If, IfElse)):
            then = walk(s.then, done)
            return then & walk(s.orelse, done) if isinstance(s, IfElse) else done
        if isinstance(s, While):
            walk(s.body, done)
        return done

    walk(s, frozenset())
    return out


def _live(loop: While) -> set:
    """The variables whose values at the loop's head an iteration may read:
    those of its guard, and those its body may read before it assigns them."""
    return {n.name for n in preorder(loop.cond) if isinstance(n, Var)} | exposed(loop.body)


def _closed_form(loop: While):
    """`acceleration.closed_form` of a wide-mode loop.  The module is
    imported on first use: exact mode and programs without loops never
    need it."""
    from . import acceleration

    return acceleration.closed_form(loop, _V)


# -- code generation ---------------------------------------------------------------

_V = "v_"  # prefix keeping program variables clear of generated helpers
_OUT = "o_"  # prefix of the output values that primed names (x') read


def _var(name: str) -> str:
    return _OUT + name[:-1] if name.endswith("'") else _V + name


class _Emitter:
    def __init__(self, space: StateSpace, exact: bool):
        self.space = space
        self.exact = exact
        self.arrays = {n: d.length for n, d in space.vars if isinstance(d, ArrayDomain)}
        self.domains = dict(space.vars)
        self.lines: list[str] = []
        self.tmp = 0
        #: the functions that the code calls beyond `_RUNTIME`, by name: the
        #: divergence check of each checked wide-mode loop, and `_exit` where a
        #: loop is accelerated
        self.helpers: dict = {}
        #: the checked loops emitted so far; loop k keeps its next check point in `_chk<k>`
        self.checked = 0
        #: the mutant programs a schema dispatches on, in index order (see `schema`)
        self.covered: list = []

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
            return _var(e.name)
        if isinstance(e, ArrayRead):
            length = self.arrays[e.name.rstrip("'")]
            if isinstance(e.index, IntLit) and 0 <= e.index.value < length:
                return f"{_var(e.name)}[{e.index.value}]"  # in bounds: no check to make
            return f"_aread({_var(e.name)}, {self.expr(e.index)}, {length}, {e.name!r})"
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
            self.emit(depth, "raise _NoEnd()")
        elif isinstance(s, Assign):
            t = s.target
            value = self.expr(s.expr)
            if isinstance(t, VarTarget):
                if self.exact:
                    tmp = self.fresh()
                    self.emit(depth, f"{tmp} = {value}")
                    self._check_interval(depth, tmp, self.domains[t.name], t.name)
                    self.emit(depth, f"{_V}{t.name} = {tmp}")
                else:
                    self.emit(depth, f"{_V}{t.name} = {value}")
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
                a = _V + t.name
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
        elif isinstance(s, While) and not self.exact and (closed := _closed_form(s)):
            from .acceleration import exit_count

            *coef, values = closed
            self.helpers["_exit"] = exit_count
            self.emit(depth, f"if {self.cond(s.cond)}:")
            self.emit(depth + 1, f"_k = _exit({', '.join(coef)}, fuel)")
            self.emit(depth + 1, "if _k is None: raise _NoEnd()")
            if values:
                self.emit(depth + 1, f"{', '.join(values)} = {', '.join(values.values())}")
            self.emit(depth + 1, "fuel -= _k")
        elif isinstance(s, While):
            if self.exact:
                seen = self.fresh()
                self.emit(depth, f"{seen} = set()")
            self.emit(depth, f"while {self.cond(s.cond)}:")
            self.stmt(s.body, depth + 1)
            self.emit(depth + 1, "fuel -= 1")
            if self.exact or not _boxable(s):
                self.emit(depth + 1, "if fuel < 0: raise _NoEnd()")
            else:  # one test per iteration: as _chk<k> >= -1, fuel -1 is a check point
                k = self.checked
                self.checked += 1
                names, self.helpers[f"_rec{k}"] = _recurrence(s)
                values = ", ".join(_V + n for n in names)
                self.emit(depth + 1, f"if fuel <= _chk{k}:")
                self.emit(depth + 2, "if fuel < 0: raise _NoEnd()")
                self.emit(depth + 2, f"_chk{k} = max(2 * fuel - _fuel0, -1)")  # consumed doubled
                self.emit(depth + 2, f"if _rec{k}({values}): raise _NoEnd()")
            if self.exact:
                head = self.fresh()
                in_scope = "".join(f"{_V}{n}, " for n in self.domains)
                self.emit(depth + 1, f"{head} = ({in_scope})")
                self.emit(depth + 1, f"if {head} in {seen}: raise _NoEnd()")
                self.emit(depth + 1, f"{seen}.add({head})")
        elif isinstance(s, Block):
            with self._local(s, depth):
                self.stmt(s.body, depth)
        else:
            raise TypeError(f"not a statement node: {s!r}")

    @contextmanager
    def _local(self, s: Block, depth: int):
        """Declare block `s`'s local while its body is emitted; a local may
        not redeclare a name in scope, as in `StateSpace.extend`, and in
        exact mode it may not be read before it is assigned (`exposed`)."""
        if s.name in self.domains:
            raise RelcorError(f"block local {s.name!r} redeclares a variable in scope")
        if self.exact and s.name in exposed(s.body):
            raise RelcorError(f"block local {s.name!r} may be read before it is assigned,"
                              f" which exact mode refuses")
        self.domains[s.name] = s.interval
        self.emit(depth, f"{_V}{s.name} = {local_interval(s).lo if self.exact else 0}")
        yield
        del self.domains[s.name]

    # mutant schemata ---------------------------------------------------------

    def schema(self, s, depth: int, mutants) -> None:
        """Emit base statement `s` with a dispatch on the mutant index `_m`.
        `mutants` pairs each mutant program that differs from the base only
        within `s` with its own node in the place of `s`.  A mutant is
        dispatched at the innermost statement whose own expressions hold
        its difference, and only outside loops.  `self.covered` lists the
        dispatched mutants in index order, from 1 (the base is 0)."""
        own, below = [], {}
        for p, m in mutants:
            where = _difference(s, m)
            if where == "":
                own.append(m)
                self.covered.append(p)
            elif where is not None:
                below.setdefault(where, []).append((p, getattr(m, where)))
        lo, hi = len(self.covered) - len(own) + 1, len(self.covered)
        if own:
            self.emit(depth, f"if not {lo} <= _m <= {hi}:")
            depth += 1
        if not below:
            self.stmt(s, depth)
        elif isinstance(s, Seq):
            self.schema(s.first, depth, below.get("first", ()))
            self.schema(s.second, depth, below.get("second", ()))
        elif isinstance(s, Block):
            with self._local(s, depth):
                self.schema(s.body, depth, below["body"])
        else:
            self.emit(depth, f"if {self.cond(s.cond)}:")
            self.schema(s.then, depth + 1, below.get("then", ()))
            if isinstance(s, IfElse):
                self.emit(depth, "else:")
                self.schema(s.orelse, depth + 1, below.get("orelse", ()))
        for k, m in enumerate(own, lo):
            self.emit(depth - 1, f"elif _m == {k}:" if k < hi else "else:")
            self.stmt(m, depth)


class _Boxes(_Emitter):
    """Emits a loop's divergence check (`_recurrence`): its interval
    arithmetic in three-address form, one local per bound, so that no
    expression nests deeper than the program's own.  An interval is a pair
    of Python operands (lo, hi), the same one twice for a single value.
    Two single values, or an interval and a `_small` literal (on either
    side of `+` and `*`, on the right of `-`), meet in plain Python
    operators; every other pair goes through `_add` and `_mul`."""

    def __init__(self):
        super().__init__(StateSpace(()), exact=False)
        self.depth = 1  # of the lines that `image` emits
        #: the variables whose intervals live in their own two locals
        #: `_p<name>`, `_q<name>`, assigned in place (see `image`)
        self.pinned: set = set()

    def let(self, value: str) -> str:
        t = self.fresh()
        self.emit(self.depth, f"{t} = {value}")
        return t

    def stmt(self, s, depth: int) -> None:
        """As a program runs `s`, but an inner loop gives up, returning False,
        where `image` would: after `_UNROLL` iterations whose guard held."""
        if not isinstance(s, While):
            return super().stmt(s, depth)
        self.emit(depth, f"for _ in range({_UNROLL}):")
        self.emit(depth + 1, f"if not {self.cond(s.cond)}: break")
        self.stmt(s.body, depth + 1)
        self.emit(depth, "else: return False")

    def pin(self, name: str, value: tuple) -> tuple:
        """Emit `name`'s interval `value` into its own two locals."""
        own = (f"_p{name}", f"_q{name}")
        self.pinned.add(name)
        if value != own:
            self.emit(self.depth, f"{own[0]}, {own[1]} = {value[0]}, {value[1]}")
        return own

    def image(self, s, env: dict) -> None:
        """Emit the run of statement `s` from the box `env` (name ->
        interval), which it updates, along the one path that the box
        decides: every guard met must hold on all of it or on none of it,
        and an inner loop must stop within `_UNROLL` iterations; the
        emitted code returns False where the path is not decided.  Python
        takes an `if`'s branch and a loop's iterations at run time, so each
        variable that such a statement assigns keeps its interval in its
        own two locals from there on, whichever branch assigned it."""
        if isinstance(s, Seq):
            self.image(s.first, env)
            self.image(s.second, env)
        elif isinstance(s, Assign):
            name, value = s.target.name, self.ival(s.expr, env)
            if name in self.pinned:
                value = self.pin(name, value)
            elif value[0].startswith("_p"):  # a copy, as the other's may change in place
                value = (self.let(value[0]), self.let(value[1]))
            env[name] = value
        elif isinstance(s, Block):
            env[s.name] = ("0",) * 2  # a fresh name: `_local` refuses one that shadows
            self.image(s.body, env)
            del env[s.name]
        elif isinstance(s, (If, IfElse, While)):
            for name in _assigned(s):
                env[name] = self.pin(name, env[name])
            depth = self.depth
            if isinstance(s, While):
                self.emit(depth, f"for _ in range({_UNROLL}):")
                self.depth += 1
                holds, fails = self.certain(s.cond, env)
                self.emit(self.depth, f"if {fails}: break")
                self.emit(self.depth, f"if not {holds}: return False")
                self.image(s.body, env)
            else:
                holds, fails = self.certain(s.cond, env)
                for head, branch in ((f"if {holds}:", s.then),
                                     (f"elif {fails}:", getattr(s, "orelse", Skip()))):
                    self.emit(depth, head)
                    self.depth, start = depth + 1, len(self.lines)
                    self.image(branch, env)
                    if len(self.lines) == start:
                        self.emit(self.depth, "pass")
            self.depth = depth
            self.emit(depth, "else: return False")

    def ival(self, e, env: dict) -> tuple:
        """The interval of expression `e` where each variable ranges over its
        interval in `env`; exact when every interval is a single value."""
        if isinstance(e, IntLit):
            return (f"({e.value})",) * 2
        if isinstance(e, Var):
            return env[e.name]
        if isinstance(e, Neg):
            lo, hi = self.ival(e.operand, env)
            if lo == hi:
                return (self.let(f"-{lo}"),) * 2
            return self.let(f"-{hi}"), self.let(f"-{lo}")
        lo, hi = self.ival(e.left, env)
        if e.op in "/%":  # by a non-zero literal
            c = e.right.value
            if lo == hi:
                return (self.let(f"{'cdiv' if e.op == '/' else 'cmod'}({lo}, {c})"),) * 2
            if e.op == "/":  # truncation is monotone in the dividend
                lo, hi = (lo, hi) if c > 0 else (hi, lo)
                return self.let(f"_div({lo}, {c})"), self.let(f"_div({hi}, {c})")
            m = abs(c) - 1  # the remainder takes the dividend's sign, |r| <= min(|x|, m)
            rlo, rhi = self.fresh(), self.fresh()
            self.emit(self.depth, f"if {lo} == {hi}: {rlo} = {rhi} = cmod({lo}, {c})")
            self.emit(self.depth, f"else: {rlo} = 0 if {lo} >= 0 else max({lo}, {-m});"
                         f" {rhi} = 0 if {hi} <= 0 else min({hi}, {m})")
            return rlo, rhi
        rlo, rhi = self.ival(e.right, env)
        if lo == hi and rlo == rhi:
            return (self.let(f"{lo} {e.op} {rlo}"),) * 2
        if _small(e.right) or e.op != "-" and _small(e.left):  # x op c, or c + x, c * x
            if _small(e.right):
                c = e.right.value
            else:
                c, lo, hi = e.left.value, rlo, rhi
            if e.op != "*":
                return self.let(f"{lo} {e.op} ({c})"), self.let(f"{hi} {e.op} ({c})")
            if c == 0:
                return ("(0)",) * 2
            lo, hi = (lo, hi) if c > 0 else (hi, lo)
            return self.let(f"({c}) * {lo}"), self.let(f"({c}) * {hi}")
        if e.op == "+":
            return self.let(f"_add({lo}, {rlo})"), self.let(f"_add({hi}, {rhi})")
        if e.op == "-":
            return self.let(f"_add({lo}, -{rhi})"), self.let(f"_add({hi}, -{rlo})")
        ends = ", ".join(self.let(f"_mul({x}, {y})")  # a single value's ends are one
                         for x in dict.fromkeys((lo, hi)) for y in dict.fromkeys((rlo, rhi)))
        return self.let(f"min({ends})"), self.let(f"max({ends})")

    def certain(self, c, env: dict) -> tuple:
        """Two Python conditions: that condition `c` holds on every state of
        the box `env`, and that it holds on none.  A comparison whose sides
        differ by a constant is decided by that constant, where intervals
        would take the variables of its two sides as independent."""
        if isinstance(c, BoolLit):
            return str(c.value), str(not c.value)
        if isinstance(c, Not):
            return self.certain(c.operand, env)[::-1]
        if isinstance(c, (And, Or)):
            (lt, lf), (rt, rf) = self.certain(c.left, env), self.certain(c.right, env)
            if isinstance(c, And):
                return f"({lt} and {rt})", f"({lf} or {rf})"
            return f"({lt} or {rt})", f"({lf} and {rf})"
        from .acceleration import gap

        diff = gap(c, _V)
        if diff is not None and set(diff) <= {()}:  # sides that cancel decide it everywhere
            v = diff.get((), 0)
            holds = {"<": v < 0, "<=": v <= 0, ">": v > 0, ">=": v >= 0, "==": v == 0,
                     "!=": v != 0}[c.op]
            return str(holds), str(not holds)
        op, a, b = c.op, self.ival(c.left, env), self.ival(c.right, env)
        if op in (">", ">="):
            op, a, b = ("<" if op == ">" else "<="), b, a
        if op == "<":
            return f"({a[1]} < {b[0]})", f"({a[0]} >= {b[1]})"
        if op == "<=":
            return f"({a[1]} <= {b[0]})", f"({a[0]} > {b[1]})"
        ends = list(dict.fromkeys((*a, *b)))
        same = f"({' == '.join(ends)})" if len(ends) > 1 else "True"
        apart = f"({a[1]} < {b[0]} or {b[1]} < {a[0]})"
        return (same, apart) if op == "==" else (apart, same)


@lru_cache(maxsize=4096)
def _recurrence(loop: While) -> tuple:
    """The divergence check of a `_boxable` wide-mode loop (see the module
    docstring), as (names, f): `names` are the variables of its guard and
    body but for its body's block locals, sorted, and f(*values) -> bool,
    over their values at the loop's head, tells whether the loop can never
    exit.  After the concrete step and the box, f returns False as soon as
    the guard is not certain on the box; only then does it compute the
    box's image.  f compiles on its first call, once per distinct loop,
    whichever programs hold it."""
    live = _live(loop)
    names = tuple(sorted(live | set(_assigned(loop.body))))

    def compile_it():
        em, assigned = _Boxes(), [n for n in _assigned(loop.body) if n in live]
        em.emit(0, f"def _rec({', '.join(_V + n for n in names)}):")
        em.lines += [f"    _h{n} = {_V}{n}" for n in assigned]  # the head's values
        em.stmt(loop.body, 1)
        # a variable the body leaves alone stays put; one it assigns before it
        # reads it may take any value
        box = {n: (_V + n,) * 2 if n in live else ("-_INF", "_INF") for n in names}
        for n in assigned:
            v, h, lo, hi = _V + n, "_h" + n, "_l" + n, "_u" + n
            em.emit(1, f"if {v} > {h}: {lo} = {h}; {hi} = _INF")
            em.emit(1, f"elif {v} < {h}: {lo} = -_INF; {hi} = {h}")
            em.emit(1, f"else: {lo} = {hi} = {h}")
            box[n] = (lo, hi)
        em.emit(1, f"if not {em.certain(loop.cond, box)[0]}: return False")
        image = dict(box)
        em.image(loop.body, image)
        inside = [f"{box[n][0]} <= {image[n][0]} and {image[n][1]} <= {box[n][1]}"
                  for n in assigned]
        em.emit(1, f"return {' and '.join(inside) or 'True'}")
        return _define(em, "_rec")

    return names, _on_first_call(compile_it, "_rec")


#: the fields of the statements that hold statements, and all their fields
_BODIES = {Seq: ("first", "second"), If: ("then",), IfElse: ("then", "orelse"), Block: ("body",)}
_FIELDS = {cls: tuple(f.name for f in fields(cls)) for cls in _BODIES}


def _difference(s, m):
    """Where node `m` of a mutant differs from statement `s` of its base:
    the name of the one field of `s` that holds a statement and differs
    while nothing else does, None if `s` is a loop, or "" for the whole
    statement.  Fields compare by identity: a mutant built by
    `replace_nodes` shares every subtree off its changed spine with its base."""
    if isinstance(s, While):
        return None
    if type(m) is not type(s) or type(s) not in _BODIES:
        return ""
    changed = [f for f in _FIELDS[type(s)] if getattr(m, f) is not getattr(s, f)]
    return changed[0] if len(changed) == 1 and changed[0] in _BODIES[type(s)] else ""


_RUNTIME = {
    "cdiv": cdiv,
    "cmod": cmod,
    "_aread": _aread,
    "UndefinedEval": UndefinedEval,
    "_NoEnd": _NoEnd,
    "_add": _add,
    "_mul": _mul,
    "_div": _div,
    "_INF": _INF,
}


def _tuple(names) -> str:
    names = list(names)
    return f"({', '.join(names)},)" if names else "()"


def _unpack(em: _Emitter, values: str, names: list, depth: int = 1) -> None:
    if names:
        em.emit(depth, f"({', '.join(names)},) = {values}")


def _define(em: _Emitter, name: str):
    """Compile the emitted source and return its function `name`.  Python's
    own limits on nesting (statically nested blocks, indentation levels,
    parentheses, the compiler's recursion) are the input's fault, so they
    are user errors.  The emitted lines are dropped before compiling."""
    source = "\n".join(em.lines)
    em.lines = []
    try:
        code = compile(source, "<compiled-program>", "exec")
    except (SyntaxError, RecursionError) as e:
        if isinstance(e, SyntaxError) and "too many" not in str(e.msg):
            raise
        raise RelcorError(f"nested too deeply for Python to compile: {e}") from None
    namespace = {**_RUNTIME, **em.helpers}
    exec(code, namespace)
    return namespace[name]


def _emit_def(em: _Emitter, head: str, body, returns: str = "") -> None:
    """Emit `def <head>_values, fuel)`, which runs the statements that
    `body()` emits at depth 1 and returns the values they leave, followed by
    `returns`."""
    names = [_V + n for n in em.space.names]
    em.emit(0, f"def {head}_values, fuel):")
    _unpack(em, "_values", names)
    prologue, checked = len(em.lines), em.checked
    body()
    if em.checked > checked:  # the fuel at the function's first check points
        em.lines[prologue:prologue] = ["    _fuel0 = fuel"] + [
            f"    _chk{k} = max(fuel - {_CHECK_FROM}, -1)" for k in range(checked, em.checked)]
    em.emit(1, f"return {_tuple(names)}{returns}")


def _check_mode(mode: str) -> None:
    if mode not in ("exact", "wide"):
        raise ValueError(f"unknown mode {mode!r}")


class Schema:
    """A mutant schema split at the cuts of its base (see the module
    docstring).  Not a dataclass, whose generated methods would cost every
    import of this module about half a millisecond."""

    def __init__(self, steps: tuple, suffix, sites: dict):
        #: per cut, f(_m, values, fuel) -> (values, fuel): the cut's
        #: statement as mutant _m has it, the base's for _m = 0
        self.steps = steps
        #: f(c, values, fuel) -> values: the base from cut c >= 1 to the end
        self.suffix = suffix
        #: each covered mutant -> (its cut c, its step f(values, fuel) ->
        #: (values, fuel), which runs cut c as the mutant has it): steps[c]
        #: bound to the mutant's index, or the mutant's own step
        self.sites = sites


@lru_cache(maxsize=4096)
def compile_program(p, space: StateSpace, mode: str = "exact"):
    """Compile a program for `space`; returns f(values_tuple, fuel) -> values_tuple."""
    _check_mode(mode)
    em = _Emitter(space, mode == "exact")
    _emit_def(em, "_run(", partial(em.stmt, p, 1))
    return _define(em, "_run")


def _cuts(s, mutants, out: list) -> list:
    """Append to `out` the cuts of statement `s`, the statements of its
    outermost `Seq` chain in order, each paired with those of `mutants`
    (pairs of a mutant program and its node in the place of `s`) that
    differ from `s` within that cut alone, each with its node there."""
    if not isinstance(s, Seq):
        out.append((s, mutants))
        return out
    first, second = [], []
    for p, m in mutants:  # by identity, as in `_difference`
        if type(m) is Seq and m.second is s.second and m.first is not s.first:
            first.append((p, m.first))
        elif type(m) is Seq and m.first is s.first and m.second is not s.second:
            second.append((p, m.second))
    _cuts(s.first, first, out)
    return _cuts(s.second, second, out)


def _emit_suffix(em: _Emitter, cuts: list) -> None:
    for c, (s, _) in enumerate(cuts[1:], 1):  # the suffix is entered after a step
        em.emit(1, f"if _c <= {c}:")
        em.stmt(s, 2)


def _on_first_call(compile_it, name: str):
    """A function `name` that calls what `compile_it()` returns, which it
    makes on its first call, in whichever process makes that call."""
    compiled = []

    def call(*args):
        if not compiled:
            compiled.append(compile_it())
        return compiled[0](*args)

    call.__name__ = name
    return call


def _own_step(c: int, m, space: StateSpace, exact: bool):
    """Statement `m`, a mutant's cut c, as a step `_step<c>(values, fuel) ->
    (values, fuel)` compiled on its own, on its first call."""
    def compile_it():
        em = _Emitter(space, exact)
        _emit_def(em, f"_step{c}(", partial(em.stmt, m, 1), ", fuel")
        return _define(em, f"_step{c}")

    return _on_first_call(compile_it, f"_step{c}")


def compile_schema(base, mutants, space: StateSpace, mode: str) -> Schema | None:
    """Compile `base` and its single-site `mutants` once, as a mutant schema
    split at the cuts of `base` (see the module docstring).

    Each mutant must be built from `base` by `replace_nodes`.  Those whose
    change lies within one cut are covered: dispatched in the cut's step
    where the change lies outside every loop, and given their own step for
    the cut where it lies within one.  One equal to `base` is not covered.
    Returns None when no mutant is covered or when the schema cannot be
    compiled (nested too deeply for Python, say), so that every mutant then
    compiles on its own.
    """
    _check_mode(mode)
    em = _Emitter(space, mode == "exact")
    mutants = dict.fromkeys(mutants)
    mutants.pop(base, None)  # a program equal to the base is no mutant of it
    cuts = _cuts(base, [(m, m) for m in mutants], [])
    sites, looped = {}, []
    try:
        for c, (s, changed) in enumerate(cuts):
            first = len(em.covered)
            _emit_def(em, f"_step{c}(_m, ", partial(em.schema, s, 1, changed), ", fuel")
            sites.update((p, (c, k)) for k, p in enumerate(em.covered[first:], first + 1))
            looped += [(c, p, m) for p, m in changed if p not in sites]  # changed within a loop
        if not sites and not looped:
            return None
        _emit_def(em, "_run(_c, ", partial(_emit_suffix, em, cuts))
        em.emit(0, f"_steps = {_tuple(f'_step{c}' for c in range(len(cuts)))}")
        suffix = _define(em, "_run")
        steps = suffix.__globals__["_steps"]  # defined beside the suffix
        sites = {p: (c, partial(steps[c], k)) for p, (c, k) in sites.items()}
        sites.update((p, (c, _own_step(c, m, space, em.exact))) for c, p, m in looped)
    except RelcorError:
        return None
    return Schema(steps, suffix, sites)


@lru_cache(maxsize=4096)
def compile_eval(node, space: StateSpace, primed: bool = False):
    """Compile one expression or condition over `space` to f(values) -> value,
    or, when `primed`, to f(values, out_values), where a primed name (x')
    reads out_values.  Where it is undefined, f raises UndefinedEval."""
    em = _Emitter(space, exact=True)
    em.emit(0, "def _eval(_values, _out):" if primed else "def _eval(_values):")
    _unpack(em, "_values", [_V + n for n in space.names])
    if primed:
        _unpack(em, "_out", [_OUT + n for n in space.names])
    value = em.cond(node) if isinstance(node, (BoolLit, Cmp, Not, And, Or)) else em.expr(node)
    em.emit(1, f"return {value}")
    return _define(em, "_eval")


def primed_names(e) -> set:
    """The variables whose output `e` reads: x for ``x'`` and a for ``a'[i]``."""
    return {n.name[:-1] for n in preorder(e) if isinstance(n, (Var, ArrayRead))
            and n.name.endswith("'")}


def _equated(rel) -> tuple | None:
    """(v, e) where `rel` is ``v' == e`` or ``e == v'``, with v a scalar and
    e reading no primed name; else None."""
    if isinstance(rel, Cmp) and rel.op == "==":
        for v, e in ((rel.left, rel.right), (rel.right, rel.left)):
            if isinstance(v, Var) and v.name.endswith("'") and not primed_names(e):
                return v.name[:-1], e
    return None


def compile_spec(dom, rel, space: StateSpace, outputs, undefined) -> tuple:
    """Compile a predicate spec, its domain predicate `dom` and its relation
    predicate `rel` (whose primed names read an output), to the functions
    of its verdicts over value tuples, `(in_dom, split, count)`:

    * ``in_dom(values)``: whether the domain predicate holds and, unless
      `outputs` is None, some output of ``itertools.product(*outputs)`` is
      related, tried in that order up to the first.  With `outputs` the
      answers are kept by value tuple, so each input is searched once.
      Where `rel` is ``v' == e`` or ``e == v'`` (`_equated`), the search is
      one evaluation of e, whose value is a witness if it lies in v's
      domain; where e is undefined, every output tried would be, and each
      is reported so, in the order of the search.
    * ``split(inputs, row)``: the indices of `inputs` in dom(R) where the
      outcome in `row` is related (passing) and those where it is not
      (failing), as two lists.  A raw outcome that is no values tuple
      fails.
    * ``count(inputs, row, indices)``: how many of `indices` pass in `row`.

    An undefined evaluation counts as false, after a call of
    ``undefined(e, values)`` for the domain predicate or ``undefined(e,
    values, out)`` for the relation."""
    em = _Emitter(space, exact=True)
    em.helpers.update(_undefined=undefined, _outputs=outputs, _product=product)
    ins, outs = [_V + n for n in space.names], [_OUT + n for n in space.names]
    kept = outputs is not None

    def related(depth: int, *then: str) -> None:  # `then` where `_o` is related to `_v`
        _unpack(em, "_o", outs, depth)
        em.emit(depth, "try:")
        em.emit(depth + 1, f"if {em.cond(rel)}:")
        for line in then:
            em.emit(depth + 2, line)
        em.emit(depth, "except UndefinedEval as _e:")
        em.emit(depth + 1, "_undefined(_e, _v, _o)")

    em.emit(0, "def _search(_v):")
    _unpack(em, "_v", ins)
    em.emit(1, "try:")
    em.emit(2, f"if not {em.cond(dom)}:")
    em.emit(3, "return False")
    em.emit(1, "except UndefinedEval as _e:")
    em.emit(2, "return _undefined(_e, _v)")
    equated = _equated(rel) if kept else None
    if equated:
        v, e = equated
        d = space.domain_of(v)
        em.emit(1, "try:")
        em.emit(2, f"_w = {em.expr(e)}")
        em.emit(1, "except UndefinedEval as _e:")
        em.emit(2, "for _o in _product(*_outputs):")
        em.emit(3, "_undefined(_e, _v, _o)")
        em.emit(2, "return False")
        em.emit(1, f"return {d.lo} <= _w <= {d.hi}")
    else:
        if kept:
            em.emit(1, "for _o in _product(*_outputs):")
            related(2, "return True")
        em.emit(1, f"return {not kept}")
    if kept:
        em.emit(0, "_known = {}")
        em.emit(0, "def _in_dom(_v):")
        em.emit(1, "_d = _known.get(_v)")
        em.emit(1, "if _d is None:")
        em.emit(2, "_d = _known[_v] = _search(_v)")
        em.emit(1, "return _d")
    else:
        em.emit(0, "_in_dom = _search")
    em.emit(0, "def _split(_inputs, _row):")
    em.emit(1, "_pass, _fail = [], []")
    em.emit(1, "for _i, _v in enumerate(_inputs):")
    em.emit(2, "if not _in_dom(_v):")
    em.emit(3, "continue")
    em.emit(2, "_o = _row[_i]")
    em.emit(2, "if type(_o) is tuple:")
    _unpack(em, "_v", ins, 3)
    related(3, "_pass.append(_i)", "continue")
    em.emit(2, "_fail.append(_i)")
    em.emit(1, "return _pass, _fail")
    em.emit(0, "def _count(_inputs, _row, _indices):")
    em.emit(1, "_n = 0")
    em.emit(1, "for _i in _indices:")
    em.emit(2, "_o = _row[_i]")
    em.emit(2, "if type(_o) is tuple:")
    em.emit(3, "_v = _inputs[_i]")
    _unpack(em, "_v", ins, 3)
    related(3, "_n += 1")
    em.emit(1, "return _n")
    em.emit(0, "_verdicts = (_in_dom, _split, _count)")
    return _define(em, "_verdicts")


def run_outcome(run, values: tuple, fuel: int):
    """The raw outcome of a compiled program `run` on `values`: the final
    values tuple, NONTERMINATION, or Undefined."""
    try:
        return run(values, fuel)
    except _NoEnd:
        return NONTERMINATION
    except UndefinedEval as u:
        return Undefined(u.site)


def execute(p, s: State, fuel: int, mode: str = "exact"):
    """Run program `p` on state `s`; returns FinalState, NonTermination, or
    Undefined."""
    out = run_outcome(compile_program(p, s.space, mode), s.values, fuel)
    return FinalState(State(s.space, out)) if type(out) is tuple else out

