"""Specifications and the absolute-correctness oracle.

A spec is either an enumerated relation or a predicate pair: a domain
predicate over input variables and a relation predicate over input and
output variables.  Output variables are written with a prime suffix
(``x'``); C-style ``&&``, ``||``, ``!``, ``/`` and ``%`` are accepted and
compiled to Python with truncating division semantics.

Both spec classes answer the questions exact mode asks through the same two
methods that `relcor.relations.Relation` has, so `is_correct` and
`more_correct` take a spec directly:

* ``competence_domain(p)`` is dom(R & P) = {s | (s, t) in P and (s, t) in R}:
  one ``membership`` check per pair of the program relation, O(|P|), for
  deterministic and nondeterministic P alike.
* ``domain()`` is dom(R).  For an enumerated spec it is the relation's domain,
  computed when the spec is built.  For a predicate spec it is the set of
  states where the domain predicate holds and some output satisfies the
  relation predicate; the first call finds one witness output per state,
  stopping at the first, and the result is kept for the life of the spec.
  That costs at most |S| evaluations per state and usually far fewer.
  ``in_dom``, which the testing-mode oracle uses, reads the domain
  predicate alone, so it differs from ``domain()`` at states that have no
  witness output.

Neither method enumerates the spec's |S|^2 pairs; ``enumerate`` still
builds the full relation for callers that need its pairs.  A predicate that
raises (say, a division by zero) counts as false where it is undefined; the
spec counts such evaluations in ``undefined`` and logs a warning the first
time only.
"""

from __future__ import annotations

import ast as pyast
import logging
import re
from dataclasses import dataclass

from .errors import CapacityError, ParseError
from .relations import Relation
from .space import DEFAULT_CAP, State, StateSet, StateSpace
from .lang.interp import FinalState, cdiv, cmod

log = logging.getLogger(__name__)

_PRIME = re.compile(r"([A-Za-z_]\w*)\s*'")
_NOT = re.compile(r"!(?!=)")

_OUT_SUFFIX = "__out"


class _CTransform(pyast.NodeTransformer):
    """Rewrite / and % to C-style truncating helpers."""

    def visit_BinOp(self, node):
        self.generic_visit(node)
        if isinstance(node.op, (pyast.Div, pyast.FloorDiv)):
            return pyast.copy_location(
                pyast.Call(pyast.Name("cdiv", pyast.Load()), [node.left, node.right], []),
                node,
            )
        if isinstance(node.op, pyast.Mod):
            return pyast.copy_location(
                pyast.Call(pyast.Name("cmod", pyast.Load()), [node.left, node.right], []),
                node,
            )
        return node


def compile_predicate(src: str, space: StateSpace, primed: bool):
    """Compile a predicate string to a callable on value environments.

    Returns f(env) -> bool where env maps input names (and, when `primed`,
    `name__out` entries) to values.
    """
    text = _PRIME.sub(rf"\1{_OUT_SUFFIX}", src)
    text = text.replace("&&", " and ").replace("||", " or ")
    text = _NOT.sub(" not ", text)
    text = re.sub(r"\btrue\b", "True", text)
    text = re.sub(r"\bfalse\b", "False", text).strip()  # eval mode rejects a leading space
    try:
        tree = pyast.parse(text, mode="eval")
    except SyntaxError as e:
        raise ParseError(f"bad predicate {src!r}: {e.msg}") from None
    allowed = set(space.names)
    if primed:
        allowed |= {n + _OUT_SUFFIX for n in space.names}
    allowed |= {"cdiv", "cmod", "True", "False"}
    for node in pyast.walk(tree):
        if isinstance(node, pyast.Name) and node.id not in allowed:
            name = node.id.removesuffix(_OUT_SUFFIX) + (
                "'" if node.id.endswith(_OUT_SUFFIX) else ""
            )
            raise ParseError(f"undeclared variable {name!r} in predicate {src!r}")
        if isinstance(node, pyast.Call) and not (
            isinstance(node.func, pyast.Name) and node.func.id in ("cdiv", "cmod")
        ):
            raise ParseError(f"function calls are not allowed in predicate {src!r}")
    tree = pyast.fix_missing_locations(_CTransform().visit(tree))
    code = compile(tree, "<predicate>", "eval")
    globs = {"__builtins__": {}, "cdiv": cdiv, "cmod": cmod, "True": True, "False": False}

    def run(env):
        return bool(eval(code, globs, env))

    return run


def _in_env(s: State) -> dict:
    return dict(zip(s.space.names, s.values))


def _out_env(s: State) -> dict:
    return {n + _OUT_SUFFIX: v for n, v in zip(s.space.names, s.values)}


@dataclass(frozen=True)
class OracleVerdict:
    passed: bool
    vacuous: bool = False


class EnumeratedSpec:
    def __init__(self, rel: Relation):
        self.rel = rel
        self.space = rel.space
        self._dom = rel.domain().members

    def in_dom(self, s: State) -> bool:
        return s in self._dom

    def membership(self, s: State, s_out: State) -> bool:
        return (s, s_out) in self.rel.pairs

    def domain(self) -> StateSet:
        return StateSet(self.space, self._dom)

    def competence_domain(self, p: Relation) -> StateSet:
        return self.rel.competence_domain(p)

    def enumerate(self, cap: int = DEFAULT_CAP) -> Relation:
        return self.rel


class PredicateSpec:
    def __init__(self, space: StateSpace, dom_src: str, rel_src: str):
        self.space = space
        self.dom_src = dom_src
        self.rel_src = rel_src
        self._dom = compile_predicate(dom_src, space, primed=False)
        self._rel = compile_predicate(rel_src, space, primed=True)
        self._domain = None
        #: evaluations of either predicate that raised and so counted as false
        self.undefined = 0

    def _count_undefined(self, where, e: Exception) -> bool:
        self.undefined += 1
        if self.undefined == 1:
            log.warning(
                "predicate undefined at %r: %s (later undefined evaluations are "
                "counted in PredicateSpec.undefined, not logged)", where, e,
            )
        return False

    def in_dom(self, s: State) -> bool:
        try:
            return self._dom(_in_env(s))
        except Exception as e:  # partial predicate: undefined counts as outside
            return self._count_undefined(s, e)

    def _related(self, env: dict, where) -> bool:
        try:
            return self._rel(env)
        except Exception as e:
            return self._count_undefined(where, e)

    def membership(self, s: State, s_out: State) -> bool:
        if not self.in_dom(s):
            return False
        return self._related({**_in_env(s), **_out_env(s_out)}, (s, s_out))

    def domain(self) -> StateSet:
        if self._domain is None:
            states = list(self.space.states())
            out_envs = [(t, _out_env(t)) for t in states]
            witnessed = set()
            for s in states:
                if self.in_dom(s):
                    ie = _in_env(s)
                    if any(self._related({**ie, **oe}, (s, t)) for t, oe in out_envs):
                        witnessed.add(s)
            self._domain = StateSet(self.space, frozenset(witnessed))
        return self._domain

    def competence_domain(self, p: Relation) -> StateSet:
        return StateSet(self.space, frozenset(s for (s, t) in p.pairs if self.membership(s, t)))

    def enumerate(self, cap: int = DEFAULT_CAP) -> Relation:
        n = self.space.num_states
        if n * n > cap:
            raise CapacityError(
                f"enumerating the spec could produce {n*n} pairs, cap is {cap}"
            )
        states = list(self.space.states(cap))
        in_envs = [(s, _in_env(s)) for s in states if self.in_dom(s)]
        out_envs = [(t, _out_env(t)) for t in states]
        pairs = set()
        for s, ie in in_envs:
            for t, oe in out_envs:
                if self._related({**ie, **oe}, (s, t)):
                    pairs.add((s, t))
        return Relation(self.space, pairs)


Spec = EnumeratedSpec | PredicateSpec


def abs_oracle(spec: Spec, s: State, outcome) -> OracleVerdict:
    """The oracle (s in dom(R)) => (s, s') in R.

    Inputs outside dom(R) pass vacuously; in-domain inputs pass only when
    execution terminated in a state related to s by the spec.
    """
    if not spec.in_dom(s):
        return OracleVerdict(passed=True, vacuous=True)
    if isinstance(outcome, FinalState):
        return OracleVerdict(passed=spec.membership(s, outcome.state))
    return OracleVerdict(passed=False)


def enumerate_spec(spec: Spec, cap: int = DEFAULT_CAP) -> Relation:
    return spec.enumerate(cap)


# -- JSON format -------------------------------------------------------------------


def spec_to_json(spec: Spec) -> dict:
    from .relations import relation_to_json, space_to_json

    if isinstance(spec, EnumeratedSpec):
        doc = relation_to_json(spec.rel)
        doc["type"] = "enumerated"
        return doc
    return {
        "type": "predicate",
        "space": space_to_json(spec.space),
        "dom": spec.dom_src,
        "rel": spec.rel_src,
    }


def spec_from_json(doc: dict) -> Spec:
    from .relations import relation_from_json, space_from_json

    if doc["type"] == "enumerated":
        return EnumeratedSpec(relation_from_json(doc))
    if doc["type"] == "predicate":
        return PredicateSpec(space_from_json(doc["space"]), doc["dom"], doc["rel"])
    raise ParseError(f"unknown spec type {doc.get('type')!r}")
