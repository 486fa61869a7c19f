"""Denotational semantics: the function a program computes on a finite space.

`denote(p, space)` is the relation [p] on `space`.  It has two routes:

* Tabulated execution, the usual one: the compiled exact-mode program runs
  on every state of the space, and each run that ends gives one pair.
  Fuel is `UNBOUNDED`: the interpreter stops a divergent run as soon as a
  loop-head state repeats, so every run ends, and its outcome is final.
* Structural recursion, `denote_structural`.  It defines [p] and is the
  tests' reference; `denote` falls back to it for a program whose block
  local may be read before it is assigned (`interp.exposed`, which also
  builds the wide-mode divergence check's box), because [p] then
  quantifies over the local's initial value, which a single run cannot do.

The recursion maps each construct compositionally to a finite relation:

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
declared interval) contributes no pair.  Both routes raise the same
errors, before they build any state: a space or a block's extended space
over `DEFAULT_CAP` states (`CapacityError`) and a block local without an
interval (`RelcorError`).

`exact_row` takes the same two routes to give [p] at some states as a row
of raw outcomes, the form of `suites.outcome_row`.
"""

from __future__ import annotations

import math

from ..relations import Relation, empty, identity, require_deterministic
from ..space import State, StateSpace
from . import ast_nodes as A
from .interp import (NONTERMINATION, UndefinedEval, compile_eval, compile_program, exposed,
                     local_interval, run_outcome)

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


def tabulable(p, space: StateSpace) -> bool:
    """Whether one run per state defines [p]: no block local may be read
    before it is assigned (`interp.exposed`).  First the walk visits every
    block in preorder and checks its extended space, so it raises the
    errors the structural recursion raises for blocks, in the same order,
    before any state is built."""
    blocks = []

    def walk(s, sp: StateSpace) -> None:
        if isinstance(s, A.Block):
            sp = sp.extend(s.name, local_interval(s))
            sp.check_enumerable()
            blocks.append(s)
        for c in s.children():
            walk(c, sp)

    walk(p, space)
    return not any(b.name in exposed(b.body) for b in blocks)


def _runs(p, space: StateSpace, states, fuel: int):
    """(s, the raw outcome of p's exact-mode run on s) for each of `states`."""
    run = compile_program(p, space, "exact")
    return ((s, run_outcome(run, s.values, fuel)) for s in states)


def denote(p, space: StateSpace) -> Relation:
    """The relation [p] on `space`, by running `p` on every state, or by
    `denote_structural` when a block local may be read before it is
    assigned (see the module docstring)."""
    space.check_enumerable()
    if not tabulable(p, space):
        return denote_structural(p, space)
    runs = _runs(p, space, space.states(), UNBOUNDED)
    return Relation(space, {(s, State(space, t)) for s, t in runs if type(t) is tuple})


def exact_row(p, space: StateSpace, states, fuel: int) -> tuple:
    """The outcome of `p` at each of `states` of `space`, in order: its
    exact-mode run at `fuel` (`interp.run_outcome`) when one run per state
    defines [p], and otherwise its image under [p], the final values or
    NONTERMINATION outside dom([p]).  Raises NonDeterministicError when [p]
    is not a function."""
    if tabulable(p, space):
        return tuple([out for _, out in _runs(p, space, states, fuel)])
    rel = denote_structural(p, space)
    require_deterministic(rel, "an exact row")
    image = {s: t.values for s, t in rel.pairs}
    return tuple([image.get(s, NONTERMINATION) for s in states])


def denote_structural(p, space: StateSpace) -> Relation:
    """The relation [p] on `space`, computed by structural recursion."""
    space.check_enumerable()
    tabulable(p, space)  # the capacity and interval checks of every block
    return _denote(p, space, list(space.states()))


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
