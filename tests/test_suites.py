import random

import pytest
from randgen import program_space, random_predicate, random_program, random_relation
from relcor.errors import EmptySuiteError
from relcor.lang.parser import parse
from relcor.mutate import ARRAY_INDEX, BINARY_ARITH, INTEGER_LITERAL, generate
from relcor.space import ArrayDomain, Interval, StateSpace
from relcor.specs import EnumeratedSpec, PredicateSpec
from relcor.suites import TestSuite as Suite
from relcor.suites import (
    cached_execute,
    classify,
    load_test_data,
    run_suite,
    select_tests,
    suite_labels,
)

SP = StateSpace((("x", Interval(0, 9)),))
SPEC = PredicateSpec(SP, "x <= 7", "x' == x + 2")

BASE = parse("x = x + 1;", SP)       # never meets the spec
HALF = parse("if (x < 4) { x = x + 2; } else { x = 0; }", SP)
GOOD = parse("x = x + 2;", SP)


def test_exhaustive_selection_covers_the_domain():
    suite = select_tests(SPEC, strategy="exhaustive")
    assert [s["x"] for s in suite.inputs] == list(range(8))


def test_random_selection_is_seeded_and_in_domain():
    a = select_tests(SPEC, strategy="random", seed=3, count=20)
    b = select_tests(SPEC, strategy="random", seed=3, count=20)
    assert a.inputs == b.inputs
    assert all(s["x"] <= 7 for s in a.inputs)
    c = select_tests(SPEC, strategy="random", seed=4, count=20)
    assert c.inputs != a.inputs


def test_random_selection_samples_the_variables_the_domain_predicate_reads():
    sp = StateSpace((("a", ArrayDomain(2, Interval(1, 3))), ("x", Interval(0, 9)),
                     ("y", Interval(2, 9))))
    spec = PredicateSpec(sp, "a[1] > 1 && x < 5", "true")
    inputs = select_tests(spec, strategy="random", seed=1, count=30).inputs
    assert {s["y"] for s in inputs} == {2}  # not read: the default, the low end of 2..9
    assert len({s["x"] for s in inputs}) > 1 and len({s["a"] for s in inputs}) > 1


def test_random_selection_samples_every_variable_when_the_domain_predicate_reads_none():
    sp = StateSpace((("x", Interval(0, 7)), ("y", Interval(0, 7))))
    spec = PredicateSpec(sp, "true", "x' == x && y' == y")
    inputs = select_tests(spec, strategy="random", seed=0, count=24).inputs
    assert len(set(inputs)) > 12
    assert len({s["x"] for s in inputs}) > 1 and len({s["y"] for s in inputs}) > 1
    # a Fermat-like spec reads n only: x and y keep their defaults
    sp = StateSpace((("n", Interval(1, 99)), ("x", Interval(0, 50)), ("y", Interval(0, 50))))
    spec = PredicateSpec(sp, "(n % 2 == 1) || (n % 4 == 0)", "x' * x' - y' * y' == n")
    inputs = select_tests(spec, strategy="random", seed=0, count=24).inputs
    assert len({s["n"] for s in inputs}) > 1
    assert {(s["x"], s["y"]) for s in inputs} == {(0, 0)}


def test_competence_domain_selection():
    suite = select_tests(SPEC, base=HALF, strategy="competence_domain_of_base")
    assert [s["x"] for s in suite.inputs] == [0, 1, 2, 3]


def test_file_selection(tmp_path):
    path = tmp_path / "inputs.txt"
    path.write_text("x=3\nx=5\n")
    suite = select_tests(SPEC, strategy="file", path=str(path))
    assert [s["x"] for s in suite.inputs] == [3, 5]


def test_file_selection_defaults_missing_variables(tmp_path):
    sp = StateSpace((("x", Interval(0, 9)), ("y", Interval(0, 9))))
    path = tmp_path / "inputs.txt"
    path.write_text("x=3\n")
    states = load_test_data(str(path), sp)
    assert states[0]["x"] == 3 and states[0]["y"] == 0


def test_empty_selection_raises():
    impossible = PredicateSpec(SP, "x > 100", "true")
    with pytest.raises(EmptySuiteError):
        select_tests(impossible, strategy="exhaustive")


def exhaustive():
    return select_tests(SPEC, strategy="exhaustive")


def test_run_suite_counts_cells():
    report = run_suite(HALF, BASE, SPEC, exhaustive(), fuel=100)
    # base never passes; candidate passes on x in 0..3
    assert (report.n0, report.n1, report.n2, report.n3) == (0, 4, 4, 0)
    assert report.cumulrel and report.cumulstrict and not report.cumulabs
    assert classify(report) == "strictly_more_correct"


def test_classify_absolutely_correct():
    report = run_suite(GOOD, BASE, SPEC, exhaustive(), fuel=100)
    assert report.cumulabs
    assert classify(report) == "absolutely_correct"


def test_classify_regression():
    report = run_suite(BASE, HALF, SPEC, exhaustive(), fuel=100)
    assert report.n3 == 4 and not report.cumulrel
    assert classify(report) == "not_more_correct"


def test_classify_as_correct_when_nothing_changes():
    report = run_suite(BASE, BASE, SPEC, exhaustive(), fuel=100)
    assert (report.n1, report.n3) == (0, 0)
    assert classify(report) == "as_correct"


def test_report_bytes_are_deterministic():
    a = run_suite(HALF, BASE, SPEC, exhaustive(), fuel=100)
    b = run_suite(HALF, BASE, SPEC, exhaustive(), fuel=100)
    assert a == b


# -- the verdict kernel --------------------------------------------------------------


def _runs(call) -> int:
    """The runs that `call()` adds to the execution cache."""
    before = cached_execute.cache_info().misses
    call()
    return cached_execute.cache_info().misses - before


def test_suite_labels_run_the_base_once_and_each_program_once_per_input():
    suite = exhaustive()  # x in 0..7; GOOD passes each, BASE none
    wide = Suite(tuple(SP.state({"x": x}) for x in range(10)))  # 8, 9 outside dom(R)
    bad = parse("x = x + 3;", SP)
    cached_execute.cache_clear()
    assert _runs(lambda: suite_labels(GOOD, [], SPEC, wide, 100)) == len(suite)
    assert _runs(lambda: suite_labels(GOOD, [bad], SPEC, wide, 100)) == len(suite)
    assert suite_labels(GOOD, [bad, GOOD, HALF], SPEC, suite, 100) == [
        "not_more_correct", "absolutely_correct", "not_more_correct"]
    # against a base that passes nowhere, HALF passes on x in 0..3 only
    cached_execute.cache_clear()
    assert _runs(lambda: suite_labels(BASE, [HALF], SPEC, suite, 100)) == 2 * len(suite)
    assert suite_labels(BASE, [HALF, BASE], SPEC, suite, 100) == [
        "strictly_more_correct", "as_correct"]


def _random_spec(rng, sp):
    if rng.random() < 0.5:
        return EnumeratedSpec(random_relation(rng, sp))
    names = [n for n, d in sp.vars if not isinstance(d, ArrayDomain)]
    return PredicateSpec(sp, random_predicate(rng, names, primed=False),
                         random_predicate(rng, names, primed=True))


@pytest.mark.parametrize("mode", ["wide", "exact"])
def test_suite_labels_equal_the_full_report_and_take_no_more_runs(mode):
    rng = random.Random(1717 if mode == "wide" else 1718)
    seen, kinds = set(), set()
    saved = 0
    for i in range(150):
        sp = program_space(rng, max_states=30, array=i % 3 == 2)
        base = random_program(rng, sp, unassigned_reads=False, wide=mode == "wide")
        mutants = generate(base, ("AORB", "literal+-1", "index+-1"))
        spec = _random_spec(rng, sp)
        states = list(sp.states())
        suite = Suite(tuple(rng.sample(states, rng.randint(1, len(states)))))
        fuel = 40
        programs = [m.program for m in mutants]
        cached_execute.cache_clear()
        labels = suite_labels(base, programs, spec, suite, fuel, mode)
        assert labels == [classify(run_suite(p, base, spec, suite, fuel, mode))
                          for p in programs]
        for p in programs[:5]:
            cached_execute.cache_clear()
            suite_labels(base, [], spec, suite, fuel, mode)  # the base's runs
            kernel = _runs(lambda: suite_labels(base, [p], spec, suite, fuel, mode))
            cached_execute.cache_clear()
            suite_labels(base, [], spec, suite, fuel, mode)
            full = _runs(lambda: run_suite(p, base, spec, suite, fuel, mode))
            assert kernel <= full
            saved += full - kernel
        seen.update((type(spec).__name__, label) for label in labels)
        kinds.update(m.site.kind for m in mutants)
    cached_execute.cache_clear()
    assert saved > 0 and kinds == {BINARY_ARITH, INTEGER_LITERAL, ARRAY_INDEX}
    assert len(seen) == 8  # every label, for both spec classes
