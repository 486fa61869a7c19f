"""Seeded random generators for relations, spaces, and programs.

Everything takes an explicit random.Random so the property suites are
reproducible from a single seed.
"""

from __future__ import annotations

import itertools
import random

from relcor.lang import ast_nodes as A
from relcor.relations import Relation
from relcor.space import Interval, StateSpace


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


def random_predicate(rng: random.Random, names: list, primed: bool) -> str:
    """A C-style spec predicate over `names`, and over their primed outputs
    when `primed`.  `/` and `%` may divide by zero, so the predicate can be
    undefined at some states."""
    pool = list(names) + ([f"{n}'" for n in names] if primed else [])

    def term() -> str:
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


def program_space(rng: random.Random, max_states: int = 500) -> StateSpace:
    while True:
        nvars = rng.randint(1, 3)
        vars_ = []
        total = 1
        for i in range(nvars):
            size = rng.randint(2, 8)
            lo = rng.randint(-3, 1)
            vars_.append((f"v{i}", Interval(lo, lo + size - 1)))
            total *= size
        if total <= max_states:
            return StateSpace(tuple(vars_))


def _expr(rng: random.Random, names: list, depth: int) -> A.Node:
    if depth <= 0 or rng.random() < 0.4:
        if rng.random() < 0.5:
            return A.IntLit(rng.randint(-2, 3))
        return A.Var(rng.choice(names))
    op = rng.choice(A.ARITH_OPS)
    return A.BinOp(op, _expr(rng, names, depth - 1), _expr(rng, names, depth - 1))


def _cond(rng: random.Random, names: list, depth: int) -> A.Node:
    if depth <= 0 or rng.random() < 0.6:
        op = rng.choice(("<", "<=", ">", ">=", "==", "!="))
        return A.Cmp(op, _expr(rng, names, 1), _expr(rng, names, 1))
    kind = rng.random()
    if kind < 0.4:
        return A.And(_cond(rng, names, depth - 1), _cond(rng, names, depth - 1))
    if kind < 0.8:
        return A.Or(_cond(rng, names, depth - 1), _cond(rng, names, depth - 1))
    return A.Not(_cond(rng, names, depth - 1))


def _stmt(rng: random.Random, names: list, depth: int, fresh, unassigned_reads: bool) -> A.Node:
    def sub(names=names):
        return _stmt(rng, names, depth - 1, fresh, unassigned_reads)

    roll = rng.random()
    if depth <= 0 or roll < 0.35:
        return A.Assign(A.VarTarget(rng.choice(names)), _expr(rng, names, 2))
    if roll < 0.43:
        return A.Skip()
    if roll < 0.46:
        return A.Abort()
    if roll < 0.6:
        return A.Seq(sub(), sub())
    if roll < 0.7:
        return A.If(_cond(rng, names, 1), sub())
    if roll < 0.8:
        return A.IfElse(_cond(rng, names, 1), sub(), sub())
    if roll < 0.88:
        return A.While(_cond(rng, names, 1), sub())
    # a block local, named apart from every other local of the program so
    # that the program prints and parses back
    name = f"t{next(fresh)}"
    lo = rng.randint(-1, 1)
    if unassigned_reads and rng.random() < 0.5:
        first = A.Assign(A.VarTarget(rng.choice(names)), A.Var(name))  # reads it unassigned
    else:
        first = A.Assign(A.VarTarget(name), _expr(rng, names, 2))
    body = A.Seq(first, sub(names + [name]))
    return A.Block(name, Interval(lo, lo + rng.randint(1, 2)), body)


def random_program(rng: random.Random, space: StateSpace, unassigned_reads: bool = True) -> A.Node:
    """A random statement over the variables of `space`, with block locals
    (`int t : lo..hi;`).  With `unassigned_reads`, a block may read its local
    before assigning it, so that [p] quantifies over the local's initial
    value; otherwise every block assigns its local first, and one exact-mode
    run per state defines [p]."""
    return _stmt(rng, list(space.names), rng.randint(1, 3), itertools.count(), unassigned_reads)
