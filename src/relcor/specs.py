"""Specifications and the absolute-correctness oracle.

A spec is either an enumerated relation or a predicate pair: a domain
predicate over input variables and a relation predicate over input and
output variables.  A predicate is a `cond` of the program language
(`parser.parse_predicate`): comparisons of integer expressions joined by
``&&``, ``||`` and ``!``, with C division.  In the relation predicate a
primed name (``x'``, ``a'[i]``) reads the output.  Predicates compile
through the interpreter's emitter (`interp.compile_eval`), as programs do.

Both spec classes answer the questions of the relation-level checks
through the same two methods that `relcor.relations.Relation` has, so
`competence_domain`, `is_correct` and `more_correct` take a spec directly:

* ``membership(s, t)`` is (s, t) in R.  `relations.competence_domain` makes
  one check per pair of the program relation, O(|P|), for deterministic and
  nondeterministic P alike.
* ``domain()`` is dom(R).  For an enumerated spec it is the relation's domain,
  computed when the spec is built.  For a predicate spec it is the set of
  states where the domain predicate holds and some output satisfies the
  relation predicate, built on the first call from ``in_dom``'s answers
  (below) and kept for the life of the spec.

Neither method enumerates the spec's |S|^2 pairs; ``enumerate`` still
builds the full relation for callers that need its pairs.  A predicate
that is undefined at a state (a division by zero, an index out of bounds)
counts as false there; the spec counts such evaluations in ``undefined``
and logs a warning the first time only.

``in_dom(s)``, which test selection uses, is s in dom(R).  On a space
that `StateSpace.check_enumerable` accepts it searches for a witness
output, stopping at the first, once per state: the answers are kept by
value tuple, and ``domain()`` and the verdicts' ``split`` read them too, so
exact and testing verdicts agree.  The relation predicate reads an output
only through its primed names, so the search tries only the values of the
variables it primes, in the order of `space.states()`, with every other
output variable at its domain's first value.  That is at most |read
outputs| evaluations per state, the product of those variables' domain
sizes, not |S|, and the first undefined evaluation is logged at the pair
where a search over all of S would first meet one.  A relation ``v' ==
e`` or ``e == v'``, with v a scalar and e reading no primed name (the
bundled arraysum spec's ``x' == a[1] + a[2] + a[3]``), takes one
evaluation of e per state: its value is the witness if it lies in v's
domain.  Where e is undefined, each output the search would try counts one
undefined evaluation, in the search's order, so ``undefined`` and the
warning are as they would be without the shortcut.  On a larger space (the
Fermat study's has 10^27 states) it reads the domain predicate alone, at
every call, and the spec's author must make sure that the predicate implies
a witness.

The verdicts of both modes (`suites`) are folded from rows of raw outcomes
(a final values tuple, ``NONTERMINATION`` or an ``Undefined``), over the
value tuples of the inputs, by two methods:

* ``split(inputs, row)`` takes the base's row and returns the indices of
  the inputs in dom(R) where it passes and those where it fails, as two
  lists, deciding each input's membership in dom(R) as ``in_dom`` does.
* ``count(inputs, row, indices)`` is how many of `indices` pass in `row`.

An outcome passes where it is a values tuple related to its input.  An
enumerated spec looks it up in the input's image, a set of value tuples
built from the relation's pairs on the first call.  A predicate spec
compiles ``in_dom``, ``split`` and ``count`` together on first use
(`interp.compile_spec`), each a loop over value tuples with the domain
predicate, the witness search and the relation predicate inlined, and
counts an undefined evaluation as `membership` does: the base's row first,
input by input with in_dom's search, then each row on the passing indices
and then on the failing ones.  A mutant batch (`suites`) stops a row at its
first failure on the passing indices and counts it no further; it holds a
job's undefined evaluations back with ``held``, on whichever process made
the row, and counts them, logging the first, with ``add_undefined``.  The
domain predicate is not evaluated again for an outcome, since it holds at
every input in dom(R).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from .errors import CapacityError, ParseError
from .relations import Relation, reading, relation_from_json, space_from_json
from .space import DEFAULT_CAP, State, StateSet, StateSpace
from .lang.interp import FinalState, UndefinedEval, compile_eval, compile_spec, primed_names
from .lang.parser import parse_predicate

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class OracleVerdict:
    passed: bool
    vacuous: bool = False


class EnumeratedSpec:
    def __init__(self, rel: Relation):
        self.rel = rel
        self.space = rel.space
        self._dom = rel.domain().members
        self._images = None

    def in_dom(self, s: State) -> bool:
        return s in self._dom

    def _image(self) -> dict:
        """The outputs that each input of dom(R) is related to, as value
        tuples, built from the relation's pairs on the first call."""
        if self._images is None:
            images = {}
            for a, b in self.rel.pairs:
                images.setdefault(a.values, set()).add(b.values)
            self._images = images
        return self._images

    def split(self, inputs, row) -> tuple:
        images, passing, failing = self._image(), [], []
        for i, values in enumerate(inputs):
            image = images.get(values)
            if image is not None:
                (passing if row[i] in image else failing).append(i)
        return passing, failing

    def count(self, inputs, row, indices) -> int:
        images = self._image()
        return sum([row[i] in images[inputs[i]] for i in indices])

    def membership(self, s: State, s_out: State) -> bool:
        return (s, s_out) in self.rel.pairs

    def domain(self) -> StateSet:
        return StateSet(self.space, self._dom)

    def enumerate(self) -> Relation:
        return self.rel


class PredicateSpec:
    def __init__(self, space: StateSpace, dom_src: str, rel_src: str):
        self.space = space
        self.dom_src = dom_src
        self.rel_src = rel_src
        #: the domain predicate, parsed
        self.dom_cond = parse_predicate(dom_src, space)
        self._dom = compile_eval(self.dom_cond, space)
        self._rel_cond = parse_predicate(rel_src, space, primed=True)
        self._rel = compile_eval(self._rel_cond, space, primed=True)
        self._domain = None
        #: (in_dom, split, count) over value tuples, compiled on first use
        self._verdicts = None
        #: evaluations of either predicate that were undefined and so counted as false
        self.undefined = 0
        #: while `held` runs: [undefined evaluations held back, the first's (site, values, out)]
        self._held = None

    def _compiled(self) -> tuple:
        if self._verdicts is None:
            outputs = None  # where the space is too large to search for a witness
            if self.space.num_states <= DEFAULT_CAP:
                read = primed_names(self._rel_cond)
                # per variable, the output values that the witness search tries
                outputs = [tuple(d.values()) if name in read else (next(d.values()),)
                           for name, d in self.space.vars]
            self._verdicts = compile_spec(self.dom_cond, self._rel_cond, self.space, outputs,
                                          self._count_undefined)
        return self._verdicts

    def _count_undefined(self, e: UndefinedEval, values: tuple, out: tuple | None = None) -> bool:
        held = self._held
        if held is None:
            self.add_undefined(1, (e.site, values, out))
        else:
            held[0] += 1
            held[1] = held[1] or (e.site, values, out)
        return False

    def held(self, f, *args) -> tuple:
        """`f(*args)` with the undefined evaluations it makes held back,
        neither counted nor logged: (its value, (their count, the first's
        (site, values, out))), for `add_undefined` to count later."""
        self._held = held = [0, None]
        try:
            return f(*args), tuple(held)
        finally:
            self._held = None

    def add_undefined(self, count: int, first: tuple | None) -> None:
        """Count `count` undefined evaluations, and log `first`, the first's
        (site, values, out), if they are the first of this spec."""
        self.undefined += count
        if count and self.undefined == count:
            site, values, out = first
            s = State(self.space, values)
            log.warning(
                "predicate undefined at %r: %s (later undefined evaluations are "
                "counted in PredicateSpec.undefined, not logged)",
                s if out is None else (s, State(self.space, out)), site,
            )

    def _dom_holds(self, s: State) -> bool:
        try:
            return self._dom(s.values)
        except UndefinedEval as e:  # partial predicate: undefined counts as outside
            return self._count_undefined(e, s.values)

    def in_dom(self, s: State) -> bool:
        return self._compiled()[0](s.values)

    def split(self, inputs, row) -> tuple:
        return self._compiled()[1](inputs, row)

    def count(self, inputs, row, indices) -> int:
        return self._compiled()[2](inputs, row, indices)

    def _related(self, s: State, t: tuple) -> bool:
        """Whether output values `t` are related to `s`."""
        try:
            return self._rel(s.values, t)
        except UndefinedEval as e:
            return self._count_undefined(e, s.values, t)

    def membership(self, s: State, s_out: State) -> bool:
        # s_out itself witnesses s, so the domain predicate is all in_dom adds
        return self._dom_holds(s) and self._related(s, s_out.values)

    def domain(self) -> StateSet:
        if self._domain is None:
            self._domain = StateSet(self.space, frozenset(
                s for s in self.space.states() if self.in_dom(s)))
        return self._domain

    def enumerate(self) -> Relation:
        n = self.space.num_states
        if n * n > DEFAULT_CAP:
            raise CapacityError(
                f"enumerating the spec could produce {n*n} pairs, cap is {DEFAULT_CAP}"
            )
        states = list(self.space.states())
        inputs = [s for s in states if self._dom_holds(s)]
        return Relation(self.space, {(s, t) for s in inputs for t in states
                                     if self._related(s, t.values)})


Spec = EnumeratedSpec | PredicateSpec


def abs_oracle(spec: Spec, s: State, outcome) -> OracleVerdict:
    """The oracle (s in dom(R)) => (s, s') in R.

    Inputs outside dom(R) pass vacuously; in-domain inputs pass only when
    execution terminated in a state related to s by the spec.
    """
    if not spec.in_dom(s):
        return OracleVerdict(passed=True, vacuous=True)
    return OracleVerdict(passed=isinstance(outcome, FinalState)
                         and spec.membership(s, outcome.state))


# -- JSON format -------------------------------------------------------------------


def spec_from_json(doc: dict) -> Spec:
    with reading("spec document"):
        if doc["type"] == "enumerated":
            return EnumeratedSpec(relation_from_json(doc))
        if doc["type"] == "predicate":
            return PredicateSpec(space_from_json(doc["space"]), doc["dom"], doc["rel"])
        raise ParseError(f"unknown spec type {doc.get('type')!r}")
