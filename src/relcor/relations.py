"""Exact calculus of finite binary relations over a state space.

Relations are explicit pair sets with extensional equality.  All operations
are pure; refinement is evaluated literally from its defining equation.

Correctness is decided from competence domains alone.  A relation and both
spec classes in `relcor.specs` answer the same two questions, `domain()`
(dom(R)) and `membership(s, t)` ((s, t) in R), so `competence_domain`
(dom(R & P), one `membership` check per pair of P), `is_correct` and
`more_correct` take either a relation or a spec and never enumerate a
predicate spec.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

from .errors import NonDeterministicError, RelcorError, SpaceMismatchError
from .space import ArrayDomain, Interval, StateSet, StateSpace


@dataclass(frozen=True)
class Relation:
    space: StateSpace
    pairs: frozenset = field(default_factory=frozenset)
    #: a function by construction (`semantics.denote`), so that
    #: `is_deterministic` need not walk the pairs; no part of equality
    function: bool = field(default=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "pairs", frozenset(self.pairs))

    # -- set operations ----------------------------------------------------

    def _check(self, other: "Relation") -> None:
        if self.space != other.space:
            raise SpaceMismatchError("relations live on different state spaces")

    def union(self, other: "Relation") -> "Relation":
        self._check(other)
        return Relation(self.space, self.pairs | other.pairs)

    def __or__(self, other):
        return self.union(other)

    def __len__(self) -> int:
        return len(self.pairs)

    # -- relational operators ----------------------------------------------

    def compose(self, other: "Relation") -> "Relation":
        self._check(other)
        by_src: dict = {}
        for (m, t) in other.pairs:
            by_src.setdefault(m, []).append(t)
        out = set()
        for (s, m) in self.pairs:
            for t in by_src.get(m, ()):
                out.add((s, t))
        return Relation(self.space, out)

    def closure(self) -> "Relation":
        """Reflexive transitive closure, iterated to fixpoint."""
        states = {s for p in self.pairs for s in p}
        cur = Relation(self.space, self.pairs | {(s, s) for s in states})
        while True:
            nxt = cur.union(cur.compose(cur))
            if len(nxt) == len(cur):
                # the fixpoint so far only covers states touched by R;
                # R^0 = I over the whole space
                return nxt.union(identity(self.space))
            cur = nxt

    def domain(self) -> StateSet:
        return StateSet(self.space, frozenset(s for (s, _) in self.pairs))

    def membership(self, s, t) -> bool:
        return (s, t) in self.pairs

    # -- predicates ----------------------------------------------------------

    def is_deterministic(self) -> bool:
        if self.function:
            return True
        seen = {}
        for (s, t) in self.pairs:
            if seen.setdefault(s, t) != t:
                return False
        return True


# -- constructors -------------------------------------------------------------


def empty(space: StateSpace) -> Relation:
    return Relation(space, frozenset())


def identity(space: StateSpace) -> Relation:
    return Relation(space, {(s, s) for s in space.states()})


# -- refinement and correctness ------------------------------------------------


def refines(rp: Relation, r: Relation) -> bool:
    """rp refines r: RL & R'L & (R | R') == R, with RL read as dom(R) x S."""
    if rp.space != r.space:
        raise SpaceMismatchError("relations live on different state spaces")
    dom_r = r.domain().members
    dom_rp = rp.domain().members
    both = dom_r & dom_rp
    lhs = {(s, t) for (s, t) in r.pairs | rp.pairs if s in both}
    return lhs == r.pairs


def require_deterministic(p: Relation, what: str) -> None:
    """Raise NonDeterministicError unless p is a function."""
    if not p.is_deterministic():
        raise NonDeterministicError(f"{what} requires a deterministic program relation")


def competence_domain(r, p: Relation, warn_nondeterministic: bool = True) -> StateSet:
    """dom(R & P): the initial states on which p's behavior satisfies r.

    `r` is a Relation or a spec; the cost is one `r.membership` check per
    pair of p, O(|p|).
    """
    if r.space != p.space:
        raise SpaceMismatchError("relations live on different state spaces")
    if warn_nondeterministic and not p.is_deterministic():
        import logging

        logging.getLogger(__name__).warning(
            "competence_domain called with a non-deterministic program relation"
        )
    return StateSet(p.space, frozenset(s for (s, t) in p.pairs if r.membership(s, t)))


def is_correct(p: Relation, r) -> bool:
    """Absolute correctness of a deterministic program function: dom(R & P) == dom(R).

    `r` is a Relation or a spec.  The cost is one `competence_domain(r, p)`
    (O(|p|) membership checks) plus `r.domain()`, which a spec computes once
    and keeps; a predicate spec is never enumerated.
    """
    require_deterministic(p, "is_correct")
    return competence_domain(r, p, warn_nondeterministic=False) == r.domain()


def more_correct(pp: Relation, p: Relation, r, strict: bool = False) -> bool:
    """pp at-least-as-correct-as p with respect to r: CD(pp) >= CD(p).

    `r` is a Relation or a spec; the cost is two `competence_domain` calls,
    O(|pp| + |p|) membership checks, and nothing enumerates r.
    """
    require_deterministic(pp, "more_correct's candidate")
    require_deterministic(p, "more_correct's base")
    cd_pp = competence_domain(r, pp, warn_nondeterministic=False).members
    cd_p = competence_domain(r, p, warn_nondeterministic=False).members
    return cd_pp > cd_p if strict else cd_pp >= cd_p


def correctness_order(programs: list, r) -> dict:
    """Group programs with equal competence domains and Hasse-reduce the
    strict relative-correctness order between groups.

    Returns {"groups": [[index, ...], ...], "edges": [(gi, gj), ...],
    "competence_domains": [StateSet, ...]} with edges pointing from less
    correct to more correct.
    """
    cds = [competence_domain(r, p, warn_nondeterministic=False) for p in programs]
    groups: list[list[int]] = []
    group_cd: list = []
    for i, cd in enumerate(cds):
        for gi, gcd in enumerate(group_cd):
            if cd == gcd:
                groups[gi].append(i)
                break
        else:
            groups.append([i])
            group_cd.append(cd)
    n = len(groups)
    lt = [[group_cd[i].members < group_cd[j].members for j in range(n)] for i in range(n)]
    edges = [
        (i, j)
        for i in range(n)
        for j in range(n)
        if lt[i][j] and not any(lt[i][k] and lt[k][j] for k in range(n))
    ]
    return {"groups": groups, "edges": edges, "competence_domains": cds}


# -- JSON literal format --------------------------------------------------------


def space_to_json(space: StateSpace) -> dict:
    out = []
    for name, dom in space.vars:
        if isinstance(dom, Interval):
            out.append({"name": name, "min": dom.lo, "max": dom.hi})
        else:
            out.append(
                {"name": name, "size": dom.length, "min": dom.elem.lo, "max": dom.elem.hi}
            )
    return {"vars": out}


@contextmanager
def reading(what: str):
    """Report a document that does not have the expected shape (a missing
    key, a value of the wrong type) as a RelcorError, a user error."""
    try:
        yield
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise RelcorError(f"malformed {what}: {exc.__class__.__name__}: {exc}") from exc


def space_from_json(doc: dict) -> StateSpace:
    with reading("space document"):
        vars_ = []
        for v in doc["vars"]:
            if "size" in v:
                vars_.append((v["name"], ArrayDomain(v["size"], Interval(v["min"], v["max"]))))
            else:
                vars_.append((v["name"], Interval(v["min"], v["max"])))
        return StateSpace(tuple(vars_))


def _value_to_json(v):
    return list(v) if isinstance(v, tuple) else v


def relation_to_json(rel: Relation) -> dict:
    pairs = sorted(rel.pairs, key=lambda p: (p[0].values, p[1].values))
    return {
        "space": space_to_json(rel.space),
        "pairs": [
            [
                {n: _value_to_json(s[n]) for n in rel.space.names},
                {n: _value_to_json(t[n]) for n in rel.space.names},
            ]
            for (s, t) in pairs
        ],
    }


def relation_from_json(doc: dict) -> Relation:
    with reading("relation document"):
        space = space_from_json(doc["space"])
        pairs = set()
        for src, dst in doc["pairs"]:
            pairs.add((space.state(src), space.state(dst)))
        return Relation(space, pairs)
