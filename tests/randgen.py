"""Seeded random generators for relations, spaces, and programs.

Everything takes an explicit random.Random so the property suites are
reproducible from a single seed.
"""

from __future__ import annotations

import itertools
import random

from relcor.lang import ast_nodes as A
from relcor.lang.interp import exposed
from relcor.relations import Relation
from relcor.space import ArrayDomain, Interval, StateSpace


def small_space(rng: random.Random, max_states: int = 5) -> StateSpace:
    """One variable over an interval of at most `max_states` values."""
    size = rng.randint(1, max_states)
    lo = rng.randint(-2, 2)
    return StateSpace((("v", Interval(lo, lo + size - 1)),))


def random_relation(rng: random.Random, space: StateSpace) -> Relation:
    states = list(space.states())
    pairs = {
        (s, t) for s in states for t in states if rng.random() < 0.35
    }
    return Relation(space, frozenset(pairs))


def random_deterministic(rng: random.Random, space: StateSpace) -> Relation:
    """A partial function: each state maps to at most one output."""
    states = list(space.states())
    pairs = set()
    for s in states:
        if rng.random() < 0.6:
            pairs.add((s, rng.choice(states)))
    return Relation(space, frozenset(pairs))


def correct_program_for(rng: random.Random, rel: Relation) -> Relation:
    """A deterministic relation whose competence domain is all of dom(rel)."""
    states = list(rel.space.states())
    by_input = {}
    for s, t in rel.pairs:
        by_input.setdefault(s, []).append(t)
    pairs = set()
    for s in states:
        if s in by_input:
            pairs.add((s, rng.choice(sorted(by_input[s], key=lambda t: t.values))))
        elif rng.random() < 0.5:
            pairs.add((s, rng.choice(states)))
    return Relation(rel.space, frozenset(pairs))


def random_predicate(rng: random.Random, names: list, primed: bool, arrays: tuple = ()) -> str:
    """A C-style spec predicate over the scalar `names`, and over their
    primed outputs when `primed`.  With `arrays`, a term may also read an
    element of one of them, `a[i]`, or when `primed` `a'[i]`, at an index
    that may be out of bounds (a literal index is in -1..2, two of whose
    values fall inside the two elements of a `program_space` array).  `/`
    and `%` may divide by zero, so the predicate can be undefined at some
    states."""
    pool = list(names) + ([f"{n}'" for n in names] if primed else [])
    array_pool = list(arrays) + ([f"{a}'" for a in arrays] if primed else [])

    def term() -> str:
        if arrays and rng.random() < 0.4:
            index = rng.choice(pool) if rng.random() < 0.3 else rng.choice((-1, 0, 0, 1, 1, 2))
            return f"{rng.choice(array_pool)}[{index}]"
        return str(rng.randint(-2, 3)) if rng.random() < 0.3 else rng.choice(pool)

    def atom() -> str:
        lhs = term()
        if rng.random() < 0.5:
            lhs = f"{lhs} {rng.choice('+-*/%')} {term()}"
        return f"{lhs} {rng.choice(('<', '<=', '>', '>=', '==', '!='))} {term()}"

    def cond(depth: int) -> str:
        roll = rng.random()
        if depth <= 0 or roll < 0.5:
            return atom()
        if roll < 0.7:
            return f"({cond(depth - 1)}) && ({cond(depth - 1)})"
        if roll < 0.9:
            return f"({cond(depth - 1)}) || ({cond(depth - 1)})"
        return f"!({cond(depth - 1)})"

    return "true" if rng.random() < 0.15 else cond(2)


# -- random programs ---------------------------------------------------------------


def program_space(rng: random.Random, max_states: int = 500, array: bool = False) -> StateSpace:
    """One to three scalar variables, and with `array` an array `a` of two
    elements, over at most `max_states` states."""
    while True:
        nvars = rng.randint(1, 3)
        vars_ = []
        total = 1
        for i in range(nvars):
            size = rng.randint(2, 8)
            lo = rng.randint(-3, 1)
            vars_.append((f"v{i}", Interval(lo, lo + size - 1)))
            total *= size
        if array:
            lo = rng.randint(-1, 0)
            vars_.append(("a", ArrayDomain(2, Interval(lo, lo + 1))))
            total *= 4
        if total <= max_states:
            return StateSpace(tuple(vars_))


def _expr(rng: random.Random, names: list, depth: int, straight: bool = False,
          arrays: tuple = ()) -> A.Node:
    """With `straight`, every `*`, `/` and `%` has a non-zero literal right
    operand: a product of two variables cannot square a value on every
    iteration of a loop, and no divisor can be zero.  A leaf may read one of
    the `arrays`, at an index that may be out of bounds."""
    if depth <= 0 or rng.random() < 0.4:
        if arrays and rng.random() < 0.25:
            return A.ArrayRead(rng.choice(arrays), _expr(rng, names, 0))
        if rng.random() < 0.5:
            return A.IntLit(rng.randint(-2, 3))
        return A.Var(rng.choice(names))
    op = rng.choice(A.ARITH_OPS)
    left = _expr(rng, names, depth - 1, straight, arrays)
    if straight and op in "*/%":
        return A.BinOp(op, left, A.IntLit(rng.choice((-3, -2, -1, 1, 2, 3))))
    return A.BinOp(op, left, _expr(rng, names, depth - 1, straight, arrays))


def _cond(rng: random.Random, names: list, depth: int, straight: bool = False,
          arrays: tuple = ()) -> A.Node:
    if depth <= 0 or rng.random() < 0.6:
        op = rng.choice(("<", "<=", ">", ">=", "==", "!="))
        return A.Cmp(op, _expr(rng, names, 1, straight, arrays),
                     _expr(rng, names, 1, straight, arrays))
    kind = rng.random()

    def sub():
        return _cond(rng, names, depth - 1, straight, arrays)

    if kind < 0.4:
        return A.And(sub(), sub())
    if kind < 0.8:
        return A.Or(sub(), sub())
    return A.Not(sub())


def _stmt(rng: random.Random, names: list, depth: int, fresh, unassigned_reads: bool,
          wide: bool = False, in_loop: bool = False, arrays: tuple = ()) -> A.Node:
    def sub(names=names, in_loop=in_loop):
        return _stmt(rng, names, depth - 1, fresh, unassigned_reads, wide, in_loop, arrays)

    roll = rng.random()
    if depth <= 0 or roll < 0.35:
        if arrays and rng.random() < 0.3:
            target = A.ArrayTarget(rng.choice(arrays), _expr(rng, names, 1))
        else:
            target = A.VarTarget(rng.choice(names))
        return A.Assign(target, _expr(rng, names, 2, wide and in_loop, arrays))
    if roll < 0.43:
        return A.Skip()
    if roll < 0.46:
        return A.Abort()
    if roll < 0.6:
        return A.Seq(sub(), sub())
    if roll < 0.7:
        return A.If(_cond(rng, names, 1, arrays=arrays), sub())
    if roll < 0.8:
        return A.IfElse(_cond(rng, names, 1, arrays=arrays), sub(), sub())
    if roll < 0.88:
        return A.While(_cond(rng, names, 1, arrays=arrays), sub(in_loop=True))
    # a block local, named apart from every other local of the program so
    # that the program prints and parses back
    name = f"t{next(fresh)}"
    lo = rng.randint(-1, 1)
    if unassigned_reads and rng.random() < 0.5:
        first = A.Assign(A.VarTarget(rng.choice(names)), A.Var(name))  # reads it unassigned
    else:
        first = A.Assign(A.VarTarget(name), _expr(rng, names, 2, wide and in_loop, arrays))
    body = A.Seq(first, sub(names + [name]))
    return A.Block(name, Interval(lo, lo + rng.randint(1, 2)), body)


def random_program(rng: random.Random, space: StateSpace, unassigned_reads: bool = True,
                   wide: bool = False) -> A.Node:
    """A random statement over the variables of `space`, with block locals
    (`int t : lo..hi;`).  With `unassigned_reads`, a block may read its local
    before assigning it, so that [p] quantifies over the local's initial
    value and exact mode refuses such a program; otherwise every block assigns
    its local first, and one exact-mode run per state defines [p].  With
    `wide`, an assignment inside a loop multiplies and divides by non-zero
    literals only (see `_expr`), so that its values grow at most
    exponentially with the number of iterations and a wide-mode run of 10^4
    iterations stays cheap.  The arrays of `space` are read and assigned
    too."""
    names = [n for n, d in space.vars if not isinstance(d, ArrayDomain)]
    arrays = tuple(n for n, d in space.vars if isinstance(d, ArrayDomain))
    return _stmt(rng, names, rng.randint(1, 3), itertools.count(), unassigned_reads, wide,
                 arrays=arrays)


def random_straight_loop(rng: random.Random, space: StateSpace) -> A.Node:
    """A `while` loop of the kind the wide-mode divergence check accepts: its
    body is one to three scalar assignments, and its guard and body multiply
    and divide by non-zero literals only."""
    names = list(space.names)
    body = A.Assign(A.VarTarget(rng.choice(names)), _expr(rng, names, 2, straight=True))
    for _ in range(rng.randint(0, 2)):
        body = A.Seq(body, A.Assign(A.VarTarget(rng.choice(names)),
                                    _expr(rng, names, 2, straight=True)))
    return A.While(_cond(rng, names, 1, straight=True), body)


def random_nested_loop(rng: random.Random, space: StateSpace) -> A.Node:
    """A `while` loop that the wide-mode divergence check accepts and whose
    body holds more than assignments: two or three statements, at least one
    of them an `if`, an `if`-`else`, an inner loop or a block whose local is
    assigned first, nested up to two deep, over scalar assignments, guards
    and `if`s that multiply and divide by non-zero literals only."""
    fresh = itertools.count()

    def cond(names):
        return _cond(rng, names, 1, straight=True)

    def assign(names):
        return A.Assign(A.VarTarget(rng.choice(names)), _expr(rng, names, 2, straight=True))

    def stmt(names, depth):
        roll = rng.random()
        if depth == 0 or roll < 0.3:
            return assign(names)
        if roll < 0.45:
            return A.If(cond(names), stmts(names, depth - 1))
        if roll < 0.6:
            return A.IfElse(cond(names), stmts(names, depth - 1), stmts(names, depth - 1))
        if roll < 0.85:
            return A.While(cond(names), stmts(names, depth - 1))
        name = f"t{next(fresh)}"
        first = A.Assign(A.VarTarget(name), _expr(rng, names, 2, straight=True))
        return A.Block(name, Interval(-1, 1), A.Seq(first, stmts(names + [name], depth - 1)))

    def stmts(names, depth):
        body = stmt(names, depth)
        for _ in range(rng.randint(0, 1)):
            body = A.Seq(body, stmt(names, depth))
        return body

    names = list(space.names)
    while True:
        body = A.Seq(stmt(names, 2), stmts(names, 2))
        if any(isinstance(n, (A.If, A.IfElse, A.While, A.Block)) for n in A.preorder(body)):
            return A.While(cond(names), body)


def random_chain(rng: random.Random, space: StateSpace, wide: bool = False) -> A.Node:
    """Two to five `random_program` statements, each block assigning its
    local first, in sequence and grouped by `Seq` at random: a base whose
    mutants a schema splits over several cuts."""
    def group(parts):
        if len(parts) == 1:
            return parts[0]
        k = rng.randint(1, len(parts) - 1)
        return A.Seq(group(parts[:k]), group(parts[k:]))

    return group([random_program(rng, space, unassigned_reads=False, wide=wide)
                  for _ in range(rng.randint(2, 5))])


def in_loops(p: A.Node) -> set:
    """The preorder indices of the nodes of `p` inside a `while`, guard or body."""
    inside = set()
    for i, n in enumerate(A.preorder(p)):
        if isinstance(n, A.While):
            inside.update(range(i + 1, i + len(A.preorder(n))))
    return inside


def reads_a_local_unassigned(p: A.Node) -> bool:
    """Whether some block local of `p` may be read before it is assigned
    (`interp.exposed` of the block's body), which exact mode refuses."""
    return any(n.name in exposed(n.body) for n in A.preorder(p) if isinstance(n, A.Block))


def holds_more_than_assignments(loop: A.While) -> bool:
    """Whether the body of `loop` holds an `if`, a block or a loop."""
    return any(isinstance(n, (A.If, A.IfElse, A.Block, A.While)) for n in A.preorder(loop.body))


def random_accelerable_loop(rng: random.Random, space: StateSpace) -> A.Node:
    """A `while` loop that wide mode runs in closed form
    (`acceleration.closed_form`), over a space of at least three scalar
    variables: one or two counters, each adding an amount that the loop
    leaves alone, a literal or a product of a literal and a variable that
    no statement assigns; up to two other variables, each adding an amount
    affine in the counters; and a guard, one of `<`, `<=`, `>` and `>=`,
    between two sides whose difference is affine in the assigned variables.
    The assignments come in random order, so some read a counter before
    its update and some after."""
    names = list(space.names)
    rng.shuffle(names)
    ncounters = rng.randint(1, min(2, len(names) - 2))
    nothers = rng.randint(0, min(2, len(names) - ncounters - 1))
    counters = names[:ncounters]
    others = names[ncounters:ncounters + nothers]
    invariant = names[ncounters + nothers:]

    def amount() -> A.Node:  # left alone by the loop
        roll = rng.random()
        lit = A.IntLit(rng.randint(-3, 3))
        if roll < 0.5:
            return lit
        var = A.Var(rng.choice(invariant))
        if roll < 0.7:
            return var
        return A.Neg(var) if roll < 0.8 else A.BinOp("*", lit, var)

    def plus(e: A.Node, term: A.Node) -> A.Node:
        return A.BinOp(rng.choice("+-"), e, term) if rng.random() < 0.8 else A.BinOp("+", term, e)

    steps = [A.Assign(A.VarTarget(y), plus(A.Var(y), amount())) for y in counters]
    for x in others:
        term = A.BinOp("*", amount(), A.Var(rng.choice(counters)))
        steps.append(A.Assign(A.VarTarget(x), plus(plus(A.Var(x), term), amount())))
    rng.shuffle(steps)
    body = steps[0]
    for s in steps[1:]:
        body = A.Seq(body, s)
    assigned = counters + others
    side = A.Var(rng.choice(assigned))
    for _ in range(rng.randint(0, 1)):
        side = plus(side, A.BinOp("*", A.IntLit(rng.randint(-2, 2)), A.Var(rng.choice(assigned))))
    other = amount() if rng.random() < 0.7 else plus(amount(), A.Var(rng.choice(assigned)))
    left, right = (side, other) if rng.random() < 0.5 else (other, side)
    return A.While(A.Cmp(rng.choice(("<", "<=", ">", ">=")), left, right), body)
