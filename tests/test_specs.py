import ast as pyast
import itertools
import logging
import random
import re

import pytest

from randgen import program_space, random_predicate, random_program, random_relation
from relcor import suites
from relcor.errors import CapacityError, ParseError
from relcor.lang.interp import FinalState, NonTermination, UndefinedEval, cdiv, cmod, compile_eval
from relcor.lang.parser import parse, parse_predicate
from relcor.lang.semantics import UNBOUNDED, denote
from relcor.mutate import generate
from relcor.relations import Relation, competence_domain, is_correct, relation_to_json, space_to_json
from relcor.space import ArrayDomain, Interval, State, StateSpace
from relcor.specs import (
    EnumeratedSpec,
    PredicateSpec,
    abs_oracle,
    spec_from_json,
)
from relcor.studies import load_fixture_json

SP = StateSpace((("n", Interval(0, 12)), ("x", Interval(0, 4)), ("y", Interval(0, 4))))


def st(n, x, y):
    return SP.state({"n": n, "x": x, "y": y})


def test_domain_predicate_with_c_connectives():
    spec = PredicateSpec(SP, "(n % 2 == 1) || (n % 4 == 0)", "n == x'*x' - y'*y'")
    in_dom = sorted(n for n in range(13) if spec.in_dom(st(n, 0, 0)))
    # 11 == 6*6 - 5*5 satisfies the domain predicate, but x' and y' stop at 4
    assert in_dom == [0, 1, 3, 4, 5, 7, 8, 9, 12]


def test_predicate_may_begin_with_negation():
    space = StateSpace((("x", Interval(0, 3)),))
    spec = PredicateSpec(space, "!(x > 1)", "true")
    assert [spec.in_dom(s) for s in space.states()] == [
        s["x"] <= 1 for s in space.states()
    ]


def test_primed_variables_refer_to_outputs():
    spec = PredicateSpec(SP, "true", "n == x'*x' - y'*y'")
    assert spec.membership(st(5, 0, 0), st(5, 3, 2))
    assert not spec.membership(st(5, 0, 0), st(5, 2, 3))


def test_predicate_division_truncates_toward_zero():
    spec = PredicateSpec(
        StateSpace((("n", Interval(-5, 5)),)), "true", "n' == n / 2"
    )
    s = spec.space.state({"n": -3})
    assert spec.membership(s, spec.space.state({"n": -1}))
    assert not spec.membership(s, spec.space.state({"n": -2}))


def test_unknown_names_are_rejected():
    with pytest.raises(ParseError):
        PredicateSpec(SP, "q == 1", "true")


def test_function_calls_are_rejected():
    with pytest.raises(ParseError):
        PredicateSpec(SP, "abs(n) == 1", "true")


def test_undefined_domain_predicate_means_not_in_dom():
    spec = PredicateSpec(SP, "1 / (n - 1) > 0", "true")
    assert not spec.in_dom(st(1, 0, 0))
    assert spec.in_dom(st(2, 0, 0))


def test_undefined_predicate_is_counted_and_logged_once(caplog):
    spec = PredicateSpec(SP, "1 / (n - 1) > 0", "true")
    with caplog.at_level(logging.WARNING, logger="relcor.specs"):
        dom = spec.domain()
        spec.in_dom(st(1, 0, 0))
    # n == 1 divides by zero at 5 * 5 states; in_dom reads the answer that
    # domain() found, without evaluating again
    assert spec.undefined == 25
    assert len(caplog.records) == 1
    # truncating division: 1 / (n - 1) > 0 holds at n == 2 only
    assert {s["n"] for s in dom.members} == {2}


def test_state_without_a_witness_output_is_outside_the_domain():
    space = StateSpace((("x", Interval(0, 3)),))
    spec = PredicateSpec(space, "true", "x' == x + 10")
    p = parse("x = x;", space)
    program = denote(p, space)
    assert len(spec.domain()) == 0
    assert spec.domain() == spec.enumerate().domain()
    assert len(competence_domain(spec, program)) == 0
    assert is_correct(program, spec)
    # testing mode agrees: every input is outside dom(R), so passes vacuously
    assert not any(spec.in_dom(s) for s in space.states())
    report = suites.run_suite(p, p, spec, suites.TestSuite(tuple(space.states())), 10)
    assert report.cumulabs and suites.classify(report) == "absolutely_correct"


def test_in_dom_searches_for_a_witness_once_per_state_on_enumerable_spaces_only():
    space = StateSpace((("x", Interval(0, 3)),))
    # an output that is no witness makes the relation undefined, so the
    # undefined count tells the outputs tried before the first witness
    spec = PredicateSpec(space, "true", "x' == 2 * x || 1 / 0 == 0")
    answers, tried = [], []
    for s in space.states():
        before = spec.undefined
        answers.append(spec.in_dom(s))
        tried.append(spec.undefined - before + answers[-1])
    assert answers == [True, True, False, False]
    # x = 0 stops at its first witness; x = 2 and x = 3 try every output
    assert tried == [1, 3, 4, 4]
    assert [spec.in_dom(s) for s in space.states()] == answers and spec.undefined == 10
    large = PredicateSpec(SP.extend("z", Interval(0, 10**6)), "true", "x' == x + 10")
    assert large.in_dom(large.space.state({"n": 0, "x": 0, "y": 0, "z": 0}))


def test_enumerate_matches_brute_force():
    small = StateSpace((("a", ArrayDomain(4, Interval(0, 1))), ("x", Interval(0, 3))))
    spec = PredicateSpec(small, "true", "x' == a[1] + a[2] + a[3]")
    rel = spec.enumerate()
    expected = {
        (s, t)
        for s in small.states()
        for t in small.states()
        if t["x"] == s["a"][1] + s["a"][2] + s["a"][3]
    }
    assert rel.pairs == frozenset(expected)


def test_enumerated_spec_wraps_a_relation():
    s0, s1 = st(0, 0, 0), st(1, 0, 0)
    spec = EnumeratedSpec(Relation(SP, frozenset({(s0, s1)})))
    assert spec.in_dom(s0) and not spec.in_dom(s1)
    assert spec.membership(s0, s1) and not spec.membership(s0, s0)


def test_abs_oracle_vacuous_outside_the_domain():
    spec = PredicateSpec(SP, "n == 1", "n' == n")
    verdict = abs_oracle(spec, st(2, 0, 0), NonTermination())
    assert verdict.passed and verdict.vacuous


def test_abs_oracle_in_domain():
    spec = PredicateSpec(SP, "n == 1", "n' == n")
    s = st(1, 0, 0)
    assert abs_oracle(spec, s, FinalState(s)).passed
    assert not abs_oracle(spec, s, FinalState(st(2, 0, 0))).passed
    assert not abs_oracle(spec, s, NonTermination()).passed


def test_enumerating_a_spec_is_capped_at_ten_million_pairs():
    # 3162^2 pairs are under the cap, 3163^2 over it
    spec = PredicateSpec(StateSpace((("x", Interval(0, 3162)),)), "true", "x' == x")
    with pytest.raises(CapacityError, match="could produce 10004569 pairs"):
        spec.enumerate()


def test_spec_json_roundtrip():
    doc = {"type": "predicate", "space": space_to_json(SP), "dom": "n % 2 == 1", "rel": "x' > x"}
    back = spec_from_json(doc)
    assert back.space == SP
    assert back.dom_src == doc["dom"] and back.rel_src == doc["rel"]

    s0, s1 = st(1, 0, 0), st(1, 1, 0)
    enum = EnumeratedSpec(Relation(SP, frozenset({(s0, s1)})))
    back2 = spec_from_json(dict(relation_to_json(enum.rel), type="enumerated"))
    assert back2.rel == enum.rel


@pytest.mark.parametrize("src", [
    "x ** 2 == 1", "not x == 1", "x < 1 < 2", "(x).real == 1", "x == (1 if x > 0 else 2)",
])
def test_python_only_syntax_is_rejected(src):
    space = StateSpace((("x", Interval(0, 3)),))
    with pytest.raises(ParseError, match="in predicate"):
        PredicateSpec(space, src, "true")
    with pytest.raises(ParseError, match="in predicate"):
        PredicateSpec(space, "true", src)


def test_only_the_relation_predicate_reads_outputs():
    with pytest.raises(ParseError, match="only a relation predicate"):
        PredicateSpec(SP, "n' == 1", "true")
    with pytest.raises(ParseError, match="undeclared variable 'q'"):
        PredicateSpec(SP, "true", "q' == 1")


def test_a_primed_array_read_reads_the_output_array():
    space = StateSpace((("a", ArrayDomain(2, Interval(0, 2))),))
    spec = PredicateSpec(space, "true", "a'[1] == a[0]")
    for s in space.states():
        for t in space.states():
            assert spec.membership(s, t) == (t["a"][1] == s["a"][0])
    with pytest.raises(ParseError, match="is an array"):
        PredicateSpec(space, "true", "a' == a")


def test_a_primed_literal_index_out_of_bounds_is_undefined_and_counted():
    """A literal index inside the array compiles to a plain subscript, one
    outside it still raises, also on a primed name, and a spec counts it."""
    space = StateSpace((("a", ArrayDomain(4, Interval(0, 1))),))
    s = space.state({"a": (0, 0, 0, 1)})
    read = lambda src: compile_eval(parse_predicate(src, space, primed=True), space, primed=True)
    assert read("a'[3] == 1")(s.values, s.values)
    with pytest.raises(UndefinedEval, match=r"index 4 out of bounds for a'\[4\]"):
        read("a'[4] == 0")(s.values, s.values)
    spec = PredicateSpec(space, "true", "a'[4] == 0")
    assert not any(spec.in_dom(t) for t in space.states())
    assert spec.undefined == 16 * 16  # every output of every state is tried
    assert not spec.membership(s, s) and spec.undefined == 16 * 16 + 1
    assert all(PredicateSpec(space, "true", "a'[3] == a[0]").in_dom(t) for t in space.states())


def test_a_negative_index_is_undefined_not_the_last_element():
    space = StateSpace((("a", ArrayDomain(3, Interval(0, 2))),))
    spec = PredicateSpec(space, "a[0 - 1] == a[2]", "true")
    assert not any(spec.in_dom(s) for s in space.states())
    assert spec.undefined == space.num_states


# -- the predicate compiler that specs used before they joined the language ----------

_PRIME = re.compile(r"([A-Za-z_]\w*)\s*'")
_NOT = re.compile(r"!(?!=)")


class _CTransform(pyast.NodeTransformer):
    def visit_BinOp(self, node):
        self.generic_visit(node)
        helper = {pyast.Div: "cdiv", pyast.Mod: "cmod"}.get(type(node.op))
        if helper is None:
            return node
        return pyast.copy_location(
            pyast.Call(pyast.Name(helper, pyast.Load()), [node.left, node.right], []), node)


def _reference_predicate(src: str):
    """f(env) -> bool: the text rewritten to Python and evaluated by `eval`."""
    text = _PRIME.sub(r"\1__out", src).replace("&&", " and ").replace("||", " or ")
    text = _NOT.sub(" not ", text)
    text = re.sub(r"\bfalse\b", "False", re.sub(r"\btrue\b", "True", text)).strip()
    tree = pyast.fix_missing_locations(_CTransform().visit(pyast.parse(text, mode="eval")))
    code = compile(tree, "<predicate>", "eval")
    globs = {"__builtins__": {}, "cdiv": cdiv, "cmod": cmod}
    return lambda env: bool(eval(code, globs, env))


class _CArray(tuple):
    """An array value that, as in C and unlike a Python tuple, has no element
    at a negative index."""

    def __getitem__(self, i):
        if i < 0:
            raise IndexError(i)
        return tuple.__getitem__(self, i)


def _env(s, suffix: str = "") -> dict:
    return {n + suffix: _CArray(v) if isinstance(v, tuple) else v
            for n, v in s.bindings().items()}


class _ReferenceSpec:
    """In_dom, membership, domain and enumerate of a predicate spec, evaluated
    by the old compiler and counting every raising evaluation as undefined.
    In_dom searches for a witness output, as it does on every space that
    can be enumerated, among the output states in which every variable that
    the relation source does not prime holds its domain's first value."""

    def __init__(self, space, dom_src, rel_src):
        self.space = space
        self.dom = _reference_predicate(dom_src)
        self.rel = _reference_predicate(rel_src)
        primed = set(_PRIME.findall(rel_src))
        self.fixed = {n: next(d.values()) for n, d in space.vars if n not in primed}
        self.undefined = 0

    def _holds(self, f, env) -> bool:
        try:
            return f(env)
        except Exception:
            self.undefined += 1
            return False

    def dom_holds(self, s) -> bool:
        return self._holds(self.dom, _env(s))

    def related(self, s, t) -> bool:
        return self._holds(self.rel, {**_env(s), **_env(t, "__out")})

    def in_dom(self, s) -> bool:  # s in dom(R), on a space small enough to search
        return self.dom_holds(s) and any(
            self.related(s, t) for t in self.space.states()
            if all(t[n] == v for n, v in self.fixed.items()))

    def membership(self, s, t) -> bool:
        return self.dom_holds(s) and self.related(s, t)

    def domain(self) -> set:
        return {s for s in self.space.states() if self.in_dom(s)}

    def enumerate(self) -> set:
        states = list(self.space.states())
        inputs = [s for s in states if self.dom_holds(s)]
        return {(s, t) for s in inputs for t in states if self.related(s, t)}


def _full_search(ref: _ReferenceSpec, states: list):
    """The first witness output of each state, or None where there is none,
    by a search over every state, and where that search meets its first
    undefined evaluation: a state for the domain predicate, a pair of
    states for the relation."""
    witnesses, first = [], None
    for s in states:
        before = ref.undefined
        holds = ref.dom_holds(s)
        if ref.undefined > before and first is None:
            first = s
        witness = None
        for t in states if holds else ():
            before = ref.undefined
            if ref.related(s, t):
                witness = t
                break
            if ref.undefined > before and first is None:
                first = (s, t)
        witnesses.append(witness)
    return witnesses, first


def test_the_witness_search_warns_first_where_a_search_over_states_would(caplog):
    """in_dom searches only the outputs that the relation reads, but it logs
    its first undefined evaluation at the pair of states where a search
    over `space.states()` meets the first; it counts the evaluations it
    makes, as the projected reference does."""
    rng = random.Random(4545)
    warned = 0
    for _ in range(120):
        sp = program_space(rng, max_states=30)
        spec = PredicateSpec(sp, "true", random_predicate(rng, list(sp.names), primed=True))
        full = _ReferenceSpec(sp, "true", spec.rel_src)
        _, first = _full_search(full, list(sp.states()))
        ref = _ReferenceSpec(sp, "true", spec.rel_src)
        for s in sp.states():
            ref.in_dom(s)
        assert ref.undefined <= full.undefined
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="relcor.specs"):
            for s in sp.states():
                spec.in_dom(s)
        assert spec.undefined == ref.undefined
        assert [r.args[0] for r in caplog.records] == ([first] if first else [])
        warned += first is not None
    assert warned > 10


def test_predicates_agree_with_the_old_compiler():
    rng = random.Random(4242)
    undefined = partial = 0
    for _ in range(120):
        sp = program_space(rng, max_states=30)
        names = list(sp.names)
        srcs = (random_predicate(rng, names, primed=False),
                random_predicate(rng, names, primed=True))
        states = list(sp.states())
        new, ref = PredicateSpec(sp, *srcs), _ReferenceSpec(sp, *srcs)
        assert [new.in_dom(s) for s in states] == [ref.in_dom(s) for s in states]
        assert ([new.membership(s, t) for s in states for t in states]
                == [ref.membership(s, t) for s in states for t in states])
        assert new.undefined == ref.undefined
        new, ref = PredicateSpec(sp, *srcs), _ReferenceSpec(sp, *srcs)
        assert new.domain().members == ref.domain()
        assert new.undefined == ref.undefined
        new, ref = PredicateSpec(sp, *srcs), _ReferenceSpec(sp, *srcs)
        assert new.enumerate().pairs == ref.enumerate()
        assert new.undefined == ref.undefined
        undefined += new.undefined > 0
        partial += 0 < len(new.domain()) < sp.num_states
    assert undefined > 10 and partial > 10


def test_the_witness_search_over_read_outputs_agrees_with_a_search_over_every_state(caplog):
    """in_dom tries only the outputs that the relation predicate primes; its
    answers and its logged warning are those of a search over
    `space.states()`, on spaces with and without an array, for relations
    that prime nothing, that prime a variable declared after one they leave
    alone, whose witnesses need an output array other than the first, and
    that are undefined somewhere."""
    rng = random.Random(2525)
    cases = dict.fromkeys(("primes nothing", "primes past an unprimed variable",
                           "needs an array past the first", "undefined"), 0)
    for i in range(300):
        sp = program_space(rng, max_states=40, array=i % 3 > 0)
        scalars = [n for n in sp.names if n != "a"]
        arrays = ("a",) if "a" in sp.names else ()
        dom = "true" if i % 2 else random_predicate(rng, scalars, primed=False, arrays=arrays)
        rel = random_predicate(rng, scalars, primed=True, arrays=arrays)
        states = list(sp.states())
        witnesses, first = _full_search(_ReferenceSpec(sp, dom, rel), states)
        spec = PredicateSpec(sp, dom, rel)
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="relcor.specs"):
            assert [spec.in_dom(s) for s in states] == [t is not None for t in witnesses]
        assert [r.args[0] for r in caplog.records] == ([first] if first else [])
        read = set(_PRIME.findall(rel))
        cases["primes nothing"] += not read
        cases["primes past an unprimed variable"] += any(
            u not in read and v in read for u, v in itertools.combinations(sp.names, 2))
        cases["needs an array past the first"] += bool(arrays) and any(
            t["a"] != states[0]["a"] for t in witnesses if t)
        cases["undefined"] += first is not None
    assert min(cases.values()) > 10, cases


def test_the_bundled_arraysum_spec_tries_only_the_values_of_x_per_state():
    """Its relation, x' == a[1] + a[2] + a[3], primes only x, so in_dom makes
    at most |dom(x)| = 7 evaluations per state of its 2,835, where a search
    over every output state makes up to 31. A state whose witness is x' = v
    makes v + 1: 11,340 evaluations in all, and 7 where the sum is 6."""
    doc = load_fixture_json("arraysum_spec.json")
    space = spec_from_json(doc).space
    # an output that is no witness makes the relation undefined, so the
    # undefined count tells the outputs tried before the first witness
    spec = PredicateSpec(space, doc["dom"], f"({doc['rel']}) || 1 / 0 == 0")
    tried = []
    for s in space.states():
        before = spec.undefined
        assert spec.in_dom(s)
        tried.append(spec.undefined - before + 1)
    assert len(tried) == space.num_states == 2835
    assert tried == [sum(s["a"][1:]) + 1 for s in space.states()]
    assert sum(tried) == 11_340 and max(tried) == space.domain_of("x").size == 7


# -- the fold of verdicts against a naive one ---------------------------------------


class _ReferenceFold(_ReferenceSpec):
    """`_ReferenceSpec` with in_dom's answers kept by `State`, one oracle per
    in-domain input, and the place of the first undefined evaluation."""

    def __init__(self, *args):
        super().__init__(*args)
        self.known, self.first = {}, None

    def _note(self, before: int, holds: bool, where) -> bool:
        if self.first is None and self.undefined > before:
            self.first = where
        return holds

    def dom_holds(self, s) -> bool:  # arguments are evaluated left to right
        return self._note(self.undefined, super().dom_holds(s), s)

    def related(self, s, t) -> bool:
        return self._note(self.undefined, super().related(s, t), (s, t))

    def in_dom(self, s) -> bool:
        if s not in self.known:
            self.known[s] = super().in_dom(s)
        return self.known[s]

    def oracle(self, s):
        return lambda out: type(out) is tuple and self.related(s, State(self.space, out))


class _EnumeratedReference:
    undefined, first = 0, None

    def __init__(self, rel):
        self.rel, self.dom = rel, rel.domain()

    def in_dom(self, s) -> bool:
        return s in self.dom

    def oracle(self, s):
        return lambda out: type(out) is tuple and (s, State(self.rel.space, out)) in self.rel.pairs


def _reference_reports(ref, suite, rows) -> list:
    """The report of each row against the first, the base's: each input
    decided in or out of dom(R) in order and, when in, judged on the base
    by its own oracle; then each other row judged by those oracles, on the
    base's passing inputs first and then on its failing ones."""
    judged = []  # (input, its oracle, whether the base passes)
    for i, s in enumerate(suite.inputs):
        if ref.in_dom(s):
            passes = ref.oracle(s)
            judged.append((i, passes, passes(rows[0][i])))
    reports = []
    for k, row in enumerate(rows):
        cells = [len(suite) - len(judged), 0, 0, 0]  # n0..n3; outside dom(R) both pass
        order = [j for j in judged if j[2]] + [j for j in judged if not j[2]]
        for i, passes, base in order:
            ok = base if k == 0 else passes(row[i])
            cells[0 if base and ok else 1 if ok else 3 if base else 2] += 1
        reports.append(suites.SuiteReport(*cells))
    return reports


@pytest.mark.parametrize("mode", ["wide", "exact"])
def test_the_fold_equals_a_naive_fold_with_one_oracle_per_input(mode, caplog):
    """Every row's n0-n3, `PredicateSpec.undefined` and the first warning's
    pair equal those of `_reference_reports`, over two batches per spec
    (so the second reads in_dom's kept answers), on random predicate specs
    with arrays and undefined evaluations and on enumerated specs."""
    rng = random.Random(3131 if mode == "wide" else 3132)
    cases = dict.fromkeys(("enumerated", "warned", "undefined in a row",
                           "in dom(R) by a witness other than itself",
                           "outside dom(R) for want of a witness"), 0)
    for i in range(120):
        sp = program_space(rng, max_states=30, array=i % 3 > 0)
        scalars = [n for n in sp.names if n != "a"]
        arrays = ("a",) if "a" in sp.names else ()
        if i % 4 == 0:
            rel = random_relation(rng, sp)
            spec, ref = EnumeratedSpec(rel), _EnumeratedReference(rel)
        else:
            dom = "true" if i % 2 else random_predicate(rng, scalars, primed=False, arrays=arrays)
            rel = random_predicate(rng, scalars, primed=True, arrays=arrays)
            if i % 4 == 1:  # undefined at outputs where the first scalar is 0
                rel = f"({rel}) || 1 / {scalars[0]}' > 0"
            spec, ref = PredicateSpec(sp, dom, rel), _ReferenceFold(sp, dom, rel)
        states = list(sp.states())
        if mode == "exact":
            suite, fuel = suites.TestSuite(tuple(states)), UNBOUNDED
        else:
            suite = suites.TestSuite(tuple(rng.sample(states, rng.randint(1, len(states)))))
            fuel = rng.choice((0, 3, 40))
        base = random_program(rng, sp, unassigned_reads=False, wide=mode == "wide")
        programs = [base] + [m.program for m in generate(base, ("AORB", "literal+-1"))][:8]
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="relcor.specs"):
            for batch in (programs, programs[::-1]):
                rows = [suites.outcome_row(p, suite, fuel, mode) for p in batch]
                pairs = suites._reports(spec, suite, rows)
                reports = [next(pairs)[0]]
                split = getattr(spec, "undefined", 0)
                reports += [report for report, _ in pairs]
                assert reports == _reference_reports(ref, suite, rows)
                assert getattr(spec, "undefined", 0) == ref.undefined
                cases["undefined in a row"] += ref.undefined > split
        assert [r.args[0] for r in caplog.records] == ([ref.first] if ref.first else [])
        cases["enumerated"] += isinstance(spec, EnumeratedSpec)
        cases["warned"] += ref.first is not None
        if isinstance(spec, PredicateSpec):
            held = [s for s in states if ref.dom_holds(s)]
            cases["in dom(R) by a witness other than itself"] += any(
                not ref.related(s, s) for s in held if ref.in_dom(s))
            cases["outside dom(R) for want of a witness"] += any(not ref.in_dom(s) for s in held)
    suites.outcome_row.cache_clear()
    assert min(cases.values()) > 3, cases
