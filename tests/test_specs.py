import logging

import pytest

from relcor.errors import ParseError
from relcor.lang.interp import FinalState, NonTermination
from relcor.lang.parser import parse
from relcor.lang.semantics import denote
from relcor.relations import Relation, is_correct
from relcor.space import ArrayDomain, Interval, StateSpace
from relcor.specs import (
    EnumeratedSpec,
    PredicateSpec,
    abs_oracle,
    compile_predicate,
    enumerate_spec,
    spec_from_json,
    spec_to_json,
)

SP = StateSpace((("n", Interval(0, 12)), ("x", Interval(0, 4)), ("y", Interval(0, 4))))


def st(n, x, y):
    return SP.state({"n": n, "x": x, "y": y})


def test_domain_predicate_with_c_connectives():
    spec = PredicateSpec(SP, "(n % 2 == 1) || (n % 4 == 0)", "n == x'*x' - y'*y'")
    in_dom = sorted(n for n in range(13) if spec.in_dom(st(n, 0, 0)))
    assert in_dom == [0, 1, 3, 4, 5, 7, 8, 9, 11, 12]


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
        compile_predicate("q == 1", SP, primed=False)


def test_function_calls_are_rejected():
    with pytest.raises(ParseError):
        compile_predicate("abs(n) == 1", SP, primed=False)


def test_undefined_domain_predicate_means_not_in_dom():
    spec = PredicateSpec(SP, "1 / (n - 1) > 0", "true")
    assert not spec.in_dom(st(1, 0, 0))
    assert spec.in_dom(st(2, 0, 0))


def test_undefined_predicate_is_counted_and_logged_once(caplog):
    spec = PredicateSpec(SP, "1 / (n - 1) > 0", "true")
    with caplog.at_level(logging.WARNING, logger="relcor.specs"):
        dom = spec.domain()
        spec.in_dom(st(1, 0, 0))
    # n == 1 divides by zero at 5 * 5 states, then once more in in_dom
    assert spec.undefined == 26
    assert len(caplog.records) == 1
    # truncating division: 1 / (n - 1) > 0 holds at n == 2 only
    assert {s["n"] for s in dom.members} == {2}


def test_state_without_a_witness_output_is_outside_the_domain():
    space = StateSpace((("x", Interval(0, 3)),))
    spec = PredicateSpec(space, "true", "x' == x + 10")
    program = denote(parse("x = x;", space), space)
    assert len(spec.domain()) == 0
    assert spec.domain() == spec.enumerate().domain()
    assert len(spec.competence_domain(program)) == 0
    assert is_correct(program, spec)


def test_enumerate_matches_brute_force():
    small = StateSpace((("a", ArrayDomain(4, Interval(0, 1))), ("x", Interval(0, 3))))
    spec = PredicateSpec(small, "true", "x' == a[1] + a[2] + a[3]")
    rel = enumerate_spec(spec)
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


def test_spec_json_roundtrip():
    spec = PredicateSpec(SP, "n % 2 == 1", "x' > x")
    doc = spec_to_json(spec)
    back = spec_from_json(doc)
    assert back.space == SP
    assert back.dom_src == spec.dom_src and back.rel_src == spec.rel_src

    s0, s1 = st(1, 0, 0), st(1, 1, 0)
    enum = EnumeratedSpec(Relation(SP, frozenset({(s0, s1)})))
    back2 = spec_from_json(spec_to_json(enum))
    assert back2.rel == enum.rel
