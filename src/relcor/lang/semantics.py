"""Denotational semantics: the function a program computes on a finite space.

`denote(p, space)` is the relation [p] on `space`: the compiled exact-mode
program runs on every state of the space, and each run that ends gives one
pair.  Fuel is `UNBOUNDED`: the interpreter stops a divergent run as soon
as a loop-head state repeats, so every run ends, and its outcome is final.
Exact mode refuses a block whose local may be read before it is assigned
(`interp.exposed`), so no run depends on a local's initial value, and
[p] is a function.

`denote_structural` defines [p] by structural recursion and is the
tests' reference.  It maps each construct compositionally to a finite
relation:

* abort -> the empty relation; skip -> the identity.
* assignment -> {(s, s[target := E(s)]) | E defined at s, value in domain}
* sequence -> relational composition.
* conditional / alternation -> guard-restricted union of the branches.
* while -> closure of the guarded body, restricted to exits where the
  guard is false.
* block -> the body's relation on the extended space, with the local's
  initial and final values existentially projected away.

Guards and assigned values are compiled by the interpreter's emitter
(`interp.compile_eval`); the recursion keeps its own interval and index
checks, and takes a block's interval from `interp.local_interval`, as the
emitter does.  Partiality shrinks the domain: a state where an expression
or guard cannot be evaluated (or where an assigned value leaves the
declared interval) contributes no pair.  Both routes raise a space over
`DEFAULT_CAP` states (`CapacityError`) and a block local without an
interval (`RelcorError`) before they build any state; the recursion also
raises `CapacityError` for a block whose extended space is over the cap,
which the runs never build.  The recursion accepts a block local read
before it is assigned and quantifies over its initial value, so [p] may
then be no function.
"""

from __future__ import annotations

import math

from ..relations import Relation, empty, identity
from ..space import State, StateSpace
from . import ast_nodes as A
from .interp import UndefinedEval, compile_eval, compile_program, local_interval, run_outcome

#: the fuel of exact runs over a space: repeat detection ends every one
UNBOUNDED = math.inf


def _split_by_guard(cond, space: StateSpace, states):
    """Partition states into (guard true, guard false); undefined guards
    fall in neither part."""
    f = compile_eval(cond, space)
    true_set, false_set = set(), set()
    for s in states:
        try:
            (true_set if f(s.values) else false_set).add(s)
        except UndefinedEval:
            pass
    return true_set, false_set


def denote(p, space: StateSpace) -> Relation:
    """The relation [p] on `space`: the final states of `p`'s exact-mode
    runs, one per state (see the module docstring)."""
    space.check_enumerable()
    run = compile_program(p, space, "exact")
    outs = ((s, run_outcome(run, s.values, UNBOUNDED)) for s in space.states())
    return Relation(space, {(s, State(space, t)) for s, t in outs if type(t) is tuple})


def denote_structural(p, space: StateSpace) -> Relation:
    """The relation [p] on `space`, computed by structural recursion."""
    space.check_enumerable()
    _check_blocks(p, space)
    return _denote(p, space, list(space.states()))


def _check_blocks(s, space: StateSpace) -> None:
    """Raise the errors of the extended space of every block in `s`, in
    preorder, before any state is built: a local without an interval
    (`RelcorError`) and a space over the cap (`CapacityError`)."""
    if isinstance(s, A.Block):
        space = space.extend(s.name, local_interval(s))
        space.check_enumerable()
    for c in s.children():
        _check_blocks(c, space)


def _denote(p, space: StateSpace, states: list) -> Relation:
    if isinstance(p, A.Abort):
        return empty(space)
    if isinstance(p, A.Skip):
        return identity(space)
    if isinstance(p, A.Assign):
        return _denote_assign(p, space, states)
    if isinstance(p, A.Seq):
        return _denote(p.first, space, states).compose(
            _denote(p.second, space, states)
        )
    if isinstance(p, A.If):
        t_true, t_false = _split_by_guard(p.cond, space, states)
        body = _denote(p.then, space, states)
        pairs = {pr for pr in body.pairs if pr[0] in t_true}
        pairs |= {(s, s) for s in t_false}
        return Relation(space, pairs)
    if isinstance(p, A.IfElse):
        t_true, t_false = _split_by_guard(p.cond, space, states)
        then = _denote(p.then, space, states)
        orelse = _denote(p.orelse, space, states)
        pairs = {pr for pr in then.pairs if pr[0] in t_true}
        pairs |= {pr for pr in orelse.pairs if pr[0] in t_false}
        return Relation(space, pairs)
    if isinstance(p, A.While):
        t_true, t_false = _split_by_guard(p.cond, space, states)
        body = _denote(p.body, space, states)
        step = Relation(space, {pr for pr in body.pairs if pr[0] in t_true})
        closed = step.closure()
        return Relation(space, {pr for pr in closed.pairs if pr[1] in t_false})
    if isinstance(p, A.Block):
        ext = space.extend(p.name, local_interval(p))
        inner = _denote(p.body, ext, list(ext.states()))
        pairs = {
            (State(space, s.values[:-1]), State(space, t.values[:-1]))
            for (s, t) in inner.pairs
        }
        return Relation(space, pairs)
    raise TypeError(f"not a statement node: {p!r}")


def _denote_assign(p: A.Assign, space: StateSpace, states: list) -> Relation:
    val = compile_eval(p.expr, space)
    t = p.target
    dom = space.domain_of(t.name)
    vi = space.names.index(t.name)
    pairs = set()
    if isinstance(t, A.VarTarget):
        for s in states:
            try:
                v = val(s.values)
            except UndefinedEval:
                continue
            if v in dom:
                pairs.add((s, State(space, s.values[:vi] + (v,) + s.values[vi + 1 :])))
    else:
        idx = compile_eval(t.index, space)
        for s in states:
            try:
                i = idx(s.values)
                v = val(s.values)
            except UndefinedEval:
                continue
            if 0 <= i < dom.length and v in dom.elem:
                a = s.values[vi]
                new = a[:i] + (v,) + a[i + 1 :]
                pairs.add((s, State(space, s.values[:vi] + (new,) + s.values[vi + 1 :])))
    return Relation(space, pairs)
