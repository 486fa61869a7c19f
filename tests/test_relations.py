import json

import pytest

from relcor.cli import main
from relcor.errors import NonDeterministicError, SpaceMismatchError
from relcor.relations import (
    Relation,
    competence_domain,
    correctness_order,
    empty,
    identity,
    is_correct,
    more_correct,
    refines,
    relation_from_json,
    relation_to_json,
)
from relcor.lang.parser import parse
from relcor.lang.semantics import denote
from relcor.space import Interval, StateSpace
from relcor.specs import PredicateSpec

SP = StateSpace((("v", Interval(0, 2)),))


def st(v):
    return SP.state({"v": v})


def rel(*pairs):
    return Relation(SP, frozenset((st(a), st(b)) for a, b in pairs))


def test_constructors():
    assert len(empty(SP)) == 0
    assert identity(SP).pairs == rel((0, 0), (1, 1), (2, 2)).pairs


def test_set_operators():
    a = rel((0, 1), (1, 2))
    b = rel((1, 2), (2, 0))
    assert (a | b).pairs == rel((0, 1), (1, 2), (2, 0)).pairs


def test_composition():
    a = rel((0, 1), (1, 2))
    b = rel((1, 2), (2, 2))
    # a;b relates s to u when some t has (s,t) in a and (t,u) in b
    assert a.compose(b).pairs == rel((0, 2), (1, 2)).pairs


def test_converse_and_domain_range():
    a = rel((0, 1), (0, 2))
    assert {s["v"] for s in a.domain().members} == {0}


def test_reflexive_transitive_closure():
    step = rel((0, 1), (1, 2))
    closed = step.closure()
    # hand-computed: identity plus every forward reachability pair
    assert closed.pairs == rel(
        (0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (0, 2)
    ).pairs


def test_predicates():
    assert identity(SP).is_deterministic()
    assert rel((0, 1), (0, 2)).is_deterministic() is False


def test_space_mismatch_is_rejected():
    other = StateSpace((("w", Interval(0, 2)),))
    b = Relation(other, frozenset())
    with pytest.raises(SpaceMismatchError):
        rel((0, 1)).union(b)


def test_refinement_examples():
    r = rel((0, 0), (0, 1), (1, 1))
    # same domain, fewer images on it: refines
    assert refines(rel((0, 0), (1, 1)), r)
    # larger domain, same images on dom(r): refines
    assert refines(rel((0, 0), (0, 1), (1, 1), (2, 2)), r)
    # smaller domain: does not refine
    assert not refines(rel((0, 0)), r)
    # extra image on dom(r): does not refine
    assert not refines(rel((0, 0), (0, 2), (1, 1)), r)


def test_refinement_is_reflexive_and_antisymmetric_here():
    a = rel((0, 1), (1, 2))
    b = rel((0, 1), (1, 2), (2, 0))
    assert refines(a, a)
    assert refines(b, a) and not refines(a, b)


def test_competence_domain_and_correctness():
    r = rel((0, 1), (1, 2), (2, 0))
    p = rel((0, 1), (1, 0), (2, 0))
    cd = competence_domain(r, p, warn_nondeterministic=False)
    assert {s["v"] for s in cd.members} == {0, 2}
    same = competence_domain(r, rel((0, 1), (1, 1), (2, 0)), warn_nondeterministic=False)
    assert cd == same and len({cd, same}) == 1 and cd != r.domain()
    assert not is_correct(p, r)
    assert is_correct(rel((0, 1), (1, 2), (2, 0)), r)


def test_correctness_equals_refinement_for_deterministic_programs():
    r = rel((0, 1), (0, 2), (1, 1))
    p = rel((0, 2), (1, 1), (2, 2))
    assert is_correct(p, r) == refines(p, r)


def test_is_correct_rejects_nondeterministic_candidate():
    r = rel((0, 1))
    with pytest.raises(NonDeterministicError):
        is_correct(rel((0, 1), (0, 2)), r)


def test_only_a_denoted_relation_is_taken_as_a_function_unwalked():
    """`denote` marks [p] a function, so the correctness checks walk none of
    its pairs; any other relation, one read from JSON too, is walked, and a
    nondeterministic one is refused.  The mark is no part of equality."""
    spec = PredicateSpec(SP, "true", "v' == v")
    p = denote(parse("v = v;", SP), SP)
    same, read = Relation(SP, p.pairs), relation_from_json(relation_to_json(p))
    assert p.function and not same.function and not read.function
    assert p == same == read and hash(p) == hash(same)
    assert is_correct(p, spec) and more_correct(p, p, spec, strict=False)
    # the mark is trusted: a relation marked so is not walked, even where it
    # is no function, as no relation that `denote` builds can be
    assert Relation(SP, rel((0, 1), (0, 2)).pairs, function=True).is_deterministic()
    with pytest.raises(NonDeterministicError):
        is_correct(relation_from_json(relation_to_json(rel((0, 1), (0, 2)))), spec)


def test_relcheck_refuses_a_nondeterministic_relation_read_from_json(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"type": "predicate", "space": relation_to_json(rel())["space"],
                                "dom": "true", "rel": "v' == v"}))
    both = tmp_path / "both.json"
    both.write_text(json.dumps(relation_to_json(rel((0, 1), (0, 2), (1, 1)))))
    one = tmp_path / "one.json"
    one.write_text(json.dumps(relation_to_json(rel((0, 0), (1, 1)))))
    for query in (["--correct", str(both)], ["--more-correct", str(one), str(both)],
                  ["--more-correct", str(both), str(one)]):
        assert main(["relcheck", "--spec", str(spec), *query]) == 2
        assert "NonDeterministicError" in capsys.readouterr().err
    assert main(["relcheck", "--spec", str(spec), "--more-correct", str(one), str(one)]) == 0


def test_more_correct_by_competence_domain_inclusion():
    r = rel((0, 1), (1, 2), (2, 0))
    worse = rel((0, 1), (1, 0), (2, 2))   # competence domain {0}
    better = rel((0, 1), (1, 2), (2, 2))  # competence domain {0, 1}
    assert more_correct(better, worse, r)
    assert more_correct(better, worse, r, strict=True)
    assert not more_correct(worse, better, r)
    assert more_correct(better, better, r) and not more_correct(
        better, better, r, strict=True
    )


def test_correctness_order_groups_and_hasse_edges():
    r = rel((0, 1), (1, 2), (2, 0))
    p0 = rel((0, 0), (1, 0), (2, 2))        # CD {}
    p1 = rel((0, 1), (1, 0), (2, 2))        # CD {0}
    p2 = rel((0, 1), (1, 0), (2, 0))        # CD {0, 2}
    p3 = rel((0, 1), (1, 2), (2, 0))        # CD {0, 1, 2}
    p4 = rel((0, 1), (1, 1), (2, 0))        # CD {0, 2}: same group as p2
    order = correctness_order([p0, p1, p2, p3, p4], r)
    groups = [sorted(g) for g in order["groups"]]
    assert [0] in groups and [1] in groups and [2, 4] in groups and [3] in groups
    # edges are transitively reduced: no direct 0 -> 2 jump over 1
    by_index = {i: gi for gi, g in enumerate(order["groups"]) for i in g}
    edges = {(by_index[0], by_index[1]), (by_index[1], by_index[2]),
             (by_index[2], by_index[3])}
    assert set(map(tuple, ((a, b) for a, b in order["edges"]))) == edges


def test_relation_json_roundtrip():
    a = rel((0, 1), (2, 0))
    doc = relation_to_json(a)
    assert relation_from_json(doc) == a
