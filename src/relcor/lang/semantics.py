"""Denotational semantics: the function a program computes on a finite space.

`denote(p, space)` is the relation [p] on `space`.  It has two routes:

* Tabulated execution, the usual one: the compiled exact-mode program runs
  on every state of the space (`interp.tabulate`), and each run that ends
  gives one pair.  Fuel is `conclusive_fuel`, which no terminating run
  exhausts, and the interpreter stops a divergent run as soon as a loop-head
  state repeats, so the outcome of every run is final.
* Structural recursion, `denote_structural`.  It defines [p] and is the
  tests' reference; `denote` falls back to it for a program whose block
  local may be read before it is assigned, because [p] then quantifies over
  the local's initial value, which a single run cannot do.

The recursion maps each construct compositionally to a finite relation:

* abort -> the empty relation; skip -> the identity.
* assignment -> {(s, s[target := E(s)]) | E defined at s, value in domain}
* sequence -> relational composition.
* conditional / alternation -> guard-restricted union of the branches.
* while -> closure of the guarded body, restricted to exits where the
  guard is false.
* block -> the body's relation on the extended space, with the local's
  initial and final values existentially projected away.

Partiality shrinks the domain: a state where an expression or guard
cannot be evaluated (or where an assigned value leaves the declared
interval) contributes no pair.  Both routes raise the same errors: a space
or a block's extended space over `cap` states (`CapacityError`) and a block
local without an interval (`RelcorError`).
"""

from __future__ import annotations

from ..errors import RelcorError
from ..relations import Relation, empty, identity
from ..space import DEFAULT_CAP, ArrayDomain, State, StateSpace
from . import ast_nodes as A
from .interp import UndefinedEval, compile_cond, compile_expr, tabulate


def default_fuel(space: StateSpace) -> int:
    """Ample fuel for exact-mode runs: 10 * (longest interval size)^2."""
    longest = 1
    for _, d in space.vars:
        size = d.elem.size if isinstance(d, ArrayDomain) else d.size
        longest = max(longest, size)
    return 10 * longest * longest


def _arrays(space: StateSpace) -> dict:
    return {n: d.length for n, d in space.vars if isinstance(d, ArrayDomain)}


def _split_by_guard(cond, space: StateSpace, states):
    """Partition states into (guard true, guard false); undefined guards
    fall in neither part."""
    f = compile_cond(cond, _arrays(space))
    true_set, false_set = set(), set()
    for s in states:
        env = dict(zip(space.names, s.values))
        try:
            (true_set if f(env) else false_set).add(s)
        except UndefinedEval:
            pass
    return true_set, false_set


def conclusive_fuel(p, space: StateSpace) -> int:
    """Fuel that no terminating exact-mode run of `p` on `space` exhausts:
    the sum over `While` nodes of |space x block locals in scope|, plus one.

    A terminating deterministic run never revisits a (loop, state) pair, so
    each loop completes at most that many iterations in one run.
    """

    def bound(s, size: int) -> int:
        if isinstance(s, A.While):
            return size + bound(s.body, size)
        if isinstance(s, A.Block):
            return bound(s.body, size * _interval(s).size)
        if isinstance(s, A.Seq):
            return bound(s.first, size) + bound(s.second, size)
        if isinstance(s, A.If):
            return bound(s.then, size)
        if isinstance(s, A.IfElse):
            return bound(s.then, size) + bound(s.orelse, size)
        return 0

    return bound(p, space.num_states) + 1


def _interval(block: A.Block):
    if block.interval is None:
        raise RelcorError(
            f"block local {block.name!r} needs a : lo..hi annotation in exact mode"
        )
    return block.interval


def _tabulable(p, space: StateSpace, cap: int) -> bool:
    """Whether one run per state defines [p]: every block local is assigned
    on every path before it is read.  Raises the errors the structural
    recursion raises for blocks, in the same order."""

    def reads_unset(node, unset) -> bool:
        return any(isinstance(n, A.Var) and n.name in unset for n in A.preorder(node))

    def assigned(s, sp: StateSpace, unset: frozenset):
        """The locals still unassigned after `s`, or None when `s` may read one."""
        if isinstance(s, (A.Skip, A.Abort)):
            return unset
        if isinstance(s, A.Assign):  # a target is no Var, but an array index may read one
            return None if reads_unset(s, unset) else unset - {s.target.name}
        if isinstance(s, A.Seq):
            mid = assigned(s.first, sp, unset)
            return None if mid is None else assigned(s.second, sp, mid)
        if isinstance(s, (A.If, A.While)):
            body = s.then if isinstance(s, A.If) else s.body
            if reads_unset(s.cond, unset) or assigned(body, sp, unset) is None:
                return None
            return unset  # the body may not run
        if isinstance(s, A.IfElse):
            if reads_unset(s.cond, unset):
                return None
            then = assigned(s.then, sp, unset)
            orelse = assigned(s.orelse, sp, unset)
            return None if then is None or orelse is None else then | orelse
        if isinstance(s, A.Block):
            ext = sp.extend(s.name, _interval(s))
            ext.check_enumerable(cap)
            inner = assigned(s.body, ext, unset | {s.name})
            return None if inner is None else inner - {s.name}
        raise TypeError(f"not a statement node: {s!r}")

    return assigned(p, space, frozenset()) is not None


def denote(p, space: StateSpace, cap: int = DEFAULT_CAP) -> Relation:
    """The relation [p] on `space`, by running `p` on every state, or by
    `denote_structural` when a block local may be read before it is
    assigned (see the module docstring)."""
    space.check_enumerable(cap)
    if not _tabulable(p, space, cap):
        return denote_structural(p, space, cap)
    return Relation(space, tabulate(p, space, space.states(cap), conclusive_fuel(p, space)))


def denote_structural(p, space: StateSpace, cap: int = DEFAULT_CAP) -> Relation:
    """The relation [p] on `space`, computed by structural recursion."""
    space.check_enumerable(cap)
    states = list(space.states(cap))
    return _denote(p, space, states, cap)


def _denote(p, space: StateSpace, states: list, cap: int) -> Relation:
    if isinstance(p, A.Abort):
        return empty(space)
    if isinstance(p, A.Skip):
        return identity(space, cap)
    if isinstance(p, A.Assign):
        return _denote_assign(p, space, states)
    if isinstance(p, A.Seq):
        return _denote(p.first, space, states, cap).compose(
            _denote(p.second, space, states, cap)
        )
    if isinstance(p, A.If):
        t_true, t_false = _split_by_guard(p.cond, space, states)
        body = _denote(p.then, space, states, cap)
        pairs = {pr for pr in body.pairs if pr[0] in t_true}
        pairs |= {(s, s) for s in t_false}
        return Relation(space, pairs)
    if isinstance(p, A.IfElse):
        t_true, t_false = _split_by_guard(p.cond, space, states)
        then = _denote(p.then, space, states, cap)
        orelse = _denote(p.orelse, space, states, cap)
        pairs = {pr for pr in then.pairs if pr[0] in t_true}
        pairs |= {pr for pr in orelse.pairs if pr[0] in t_false}
        return Relation(space, pairs)
    if isinstance(p, A.While):
        t_true, t_false = _split_by_guard(p.cond, space, states)
        body = _denote(p.body, space, states, cap)
        step = Relation(space, {pr for pr in body.pairs if pr[0] in t_true})
        closed = step.closure()
        return Relation(space, {pr for pr in closed.pairs if pr[1] in t_false})
    if isinstance(p, A.Block):
        ext = space.extend(p.name, _interval(p))
        ext.check_enumerable(cap)
        ext_states = list(ext.states(cap))
        inner = _denote(p.body, ext, ext_states, cap)
        pairs = {
            (State(space, s.values[:-1]), State(space, t.values[:-1]))
            for (s, t) in inner.pairs
        }
        return Relation(space, pairs)
    raise TypeError(f"not a statement node: {p!r}")


def _denote_assign(p: A.Assign, space: StateSpace, states: list) -> Relation:
    arrays = _arrays(space)
    val = compile_expr(p.expr, arrays)
    t = p.target
    pairs = set()
    if isinstance(t, A.VarTarget):
        dom = space.domain_of(t.name)
        vi = space.names.index(t.name)
        for s in states:
            env = dict(zip(space.names, s.values))
            try:
                v = val(env)
            except UndefinedEval:
                continue
            if v in dom:
                pairs.add((s, State(space, s.values[:vi] + (v,) + s.values[vi + 1 :])))
    else:
        dom = space.domain_of(t.name)
        elem = dom.elem
        length = dom.length
        vi = space.names.index(t.name)
        idx = compile_expr(t.index, arrays)
        for s in states:
            env = dict(zip(space.names, s.values))
            try:
                i = idx(env)
                v = val(env)
            except UndefinedEval:
                continue
            if 0 <= i < length and v in elem:
                a = s.values[vi]
                new = a[:i] + (v,) + a[i + 1 :]
                pairs.add((s, State(space, s.values[:vi] + (new,) + s.values[vi + 1 :])))
    return Relation(space, pairs)
