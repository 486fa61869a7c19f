import math
import os
import random
import threading
from collections import Counter
from dataclasses import replace as dc_replace
from functools import partial
from types import SimpleNamespace

import pytest
from randgen import (
    in_loops,
    program_space,
    random_chain,
    random_predicate,
    random_program,
    random_relation,
)
from relcor import suites
from relcor.errors import EmptySuiteError, RelcorError
from relcor.lang import semantics
from relcor.lang.interp import (
    NONTERMINATION,
    FinalState,
    NonTermination,
    Undefined,
    compile_program,
    compile_schema,
    execute,
    run_outcome,
)
from relcor.lang.parser import parse
from relcor.lang.ast_nodes import (ArrayTarget, BinOp, Block, If, IfElse, Var, VarTarget, While,
                                   preorder, replace_nodes)
from relcor.mutate import (
    ARRAY_INDEX,
    BINARY_ARITH,
    INTEGER_LITERAL,
    OPERATOR_FAMILIES,
    generate,
    outcome_digest,
)
from relcor.repair import RepairConfig, repair
from relcor.space import ArrayDomain, Interval, State, StateSpace
from relcor.specs import EnumeratedSpec, PredicateSpec, abs_oracle
from relcor.suites import SuiteReport
from relcor.suites import TestSuite as Suite
from relcor.suites import (
    classify,
    load_test_data,
    outcome_row,
    run_suite,
    select_tests,
    suite_labels,
)

SP = StateSpace((("x", Interval(0, 9)),))
SPEC = PredicateSpec(SP, "x <= 7", "x' == x + 2")

BASE = parse("x = x + 1;", SP)       # never meets the spec
HALF = parse("if (x < 4) { x = x + 2; } else { x = 0; }", SP)
GOOD = parse("x = x + 2;", SP)


def labels_of(*args) -> list:
    """The labels of the programs of `suite_labels(*args)`, without the
    base's own, every row of the batch made."""
    return [label for label, _ in suite_labels(*args)][1:]


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


# -- rows and the verdict kernel ----------------------------------------------------


@pytest.fixture
def runs(monkeypatch):
    """`runs()` is the number of runs of compiled code made so far for rows,
    wide (whose cache starts empty) and exact.  A run is a program's, a step
    of the schema's base or a covered mutant's step; the suffix that ends a
    step's run is not counted apart.  `runs.made` lists every call as (kind,
    its arguments): kind "run", "base" (arguments: the cut, values, fuel),
    "step" (the step, as `Schema.sites` holds it, values, fuel) or "suffix"
    (the cut, values, fuel).  A schema's steps are functions `_step<c>`: the
    cut's step bound to a mutant index, 0 for the base, or a mutant's own
    step.  Its suffix is the function `_run` bound to a cut; a program
    compiled alone is an unbound `_run`.  Only this process's runs are
    seen, so no batch forks workers while the fixture counts."""
    made = []
    monkeypatch.setattr(suites, "_FORK_AFTER_S", math.inf)
    run_outcome = suites.run_outcome

    def record(run, values, fuel):
        func, args = getattr(run, "func", run), getattr(run, "args", ())
        name = getattr(func, "__name__", "")
        kind = ("base" if name.startswith("_step") and args == (0,)
                else "step" if name.startswith("_step")
                else "suffix" if name == "_run" and func is not run else "run")
        made.append((kind, (_cut_of(run), values, fuel) if kind == "base"
                     else (run, values, fuel) if kind == "step"
                     else (*args, values, fuel) if kind == "suffix" else ()))
        return run_outcome(run, values, fuel)

    for module in (suites, semantics):
        monkeypatch.setattr(module, "run_outcome", record)
    outcome_row.cache_clear()
    count = lambda: sum(kind != "suffix" for kind, _ in made)
    count.made = made
    yield count
    outcome_row.cache_clear()


def test_suite_labels_run_the_base_once_and_each_program_once_per_input(runs):
    suite = exhaustive()  # x in 0..7; GOOD passes each, BASE none
    wide = Suite(tuple(SP.state({"x": x}) for x in range(10)))  # 8, 9 outside dom(R)
    bad = parse("x = x + 3;", SP)
    assert next(suite_labels(GOOD, [], SPEC, wide, 100))[0] == "absolutely_correct"
    assert runs() == len(wide)  # inputs outside dom(R) take a run too
    labels_of(GOOD, [bad], SPEC, wide, 100)
    assert runs() == 2 * len(wide)
    assert labels_of(GOOD, [bad], SPEC, wide, 100) == ["not_more_correct"]
    assert classify(run_suite(bad, GOOD, SPEC, wide, 100)) == "not_more_correct"
    assert runs() == 2 * len(wide)  # neither the same batch again nor a report runs
    assert labels_of(GOOD, [bad, GOOD, HALF], SPEC, suite, 100) == [
        "not_more_correct", "absolutely_correct", "not_more_correct"]
    # against a base that passes nowhere, HALF passes on x in 0..3 only
    before = runs()
    assert labels_of(BASE, [HALF, BASE], SPEC, suite, 100) == [
        "strictly_more_correct", "as_correct"]
    assert runs() - before == len(suite)  # BASE's row; HALF's is cached
    assert next(suite_labels(BASE, [], SPEC, suite, 100))[0] == "as_correct"  # its own
    assert runs() - before == len(suite)


def test_repair_fingerprints_its_kept_children_without_a_run(runs):
    wide = Suite(tuple(SP.state({"x": x}) for x in range(10)))
    seeded = parse("x = x - 2;", SP)  # its mutant x = x + 2 is kept, and a solution
    cfg = RepairConfig(operators=("AORB",), suite=wide, fuel=100, max_depth=1, mode="testing")
    tree, _ = repair(seeded, SPEC, cfg)
    assert tree.solutions and len(tree.nodes) > 1
    programs = {seeded} | {m.program for m in generate(seeded, ("AORB",))}
    # the root's row, made by the base's step of its first batch, then one
    # step per mutant and input, which is the whole of a one-statement
    # program; no program runs alone, and the kept child's fingerprint reads
    # its row
    assert runs() == len(wide) * len(programs)
    kinds = Counter(kind for kind, _ in runs.made)
    assert kinds["run"] == 0 and kinds["base"] == len(wide)
    assert kinds["step"] == len(wide) * (len(programs) - 1)


@pytest.mark.parametrize("mode", ["testing", "exact"])
def test_a_repair_takes_its_roots_row_and_verdict_from_its_first_batch(mode):
    """The root of a depth-1 repair has the fingerprint of its row made
    alone, and is a solution exactly when it passes every in-domain input
    on that row: on random programs with random specs and suites, and on a
    correct root, in both modes."""
    rng = random.Random(1818 if mode == "testing" else 1819)
    roots = [(GOOD, SPEC, Suite(tuple(SP.states())), 100)]
    for i in range(120):
        sp = program_space(rng, max_states=30, array=i % 3 == 2)
        # exact mode refuses a block local read before it is assigned
        base = random_program(rng, sp, unassigned_reads=i % 4 == 0 and mode == "testing",
                              wide=mode == "testing")
        states = list(sp.states())
        suite = Suite(tuple(rng.sample(states, rng.randint(1, len(states)))))
        roots.append((base, _random_spec(rng, sp), suite, rng.choice((0, 3, 40))))
    solutions = set()
    for base, spec, suite, fuel in roots:
        sp = spec.space
        cfg = RepairConfig(operators=OPERATOR_FAMILIES, suite=suite, fuel=fuel,
                           max_depth=1, mode=mode)
        outcome_row.cache_clear()
        tree = repair(base, spec, cfg)[0]
        root = tree.nodes["base"]
        assert not root.solution or (tree.solutions == ["base"] and len(tree.nodes) == 1)
        outcome_row.cache_clear()  # so the reference row is made by the root alone
        if mode == "exact":
            suite, fuel = Suite(tuple(sp.states())), semantics.UNBOUNDED
        row = outcome_row(base, suite, fuel, "wide" if mode == "testing" else "exact")
        assert root.fingerprint == outcome_digest(row)
        assert root.solution == all(_passes(spec, s, out)
                                    for s, out in zip(suite.inputs, row) if spec.in_dom(s))
        solutions.add(root.solution)
    outcome_row.cache_clear()
    assert solutions == {True, False}


def _passes(spec, s, out) -> bool:
    """The oracle at an input `s` in dom(R): the run ends, in an output that
    the spec relates to `s`."""
    return type(out) is tuple and spec.membership(s, State(spec.space, out))


def _random_spec(rng, sp):
    if rng.random() < 0.5:
        return EnumeratedSpec(random_relation(rng, sp))
    names = [n for n, d in sp.vars if not isinstance(d, ArrayDomain)]
    return PredicateSpec(sp, random_predicate(rng, names, primed=False),
                         random_predicate(rng, names, primed=True))


def _batches(rng, mode: str, n: int):
    """`n` random batches (base, mutants, spec, suite, fuel): programs with
    loops and arrays, mutants of every family, a random spec of either class
    and a random suite, which may hold inputs outside dom(R)."""
    for i in range(n):
        sp = program_space(rng, max_states=30, array=i % 3 == 2)
        base = random_program(rng, sp, unassigned_reads=False, wide=mode == "wide")
        mutants = generate(base, ("AORB", "literal+-1", "index+-1"))
        spec = _random_spec(rng, sp)
        states = list(sp.states())
        suite = Suite(tuple(rng.sample(states, rng.randint(1, len(states)))))
        yield base, mutants, spec, suite, rng.choice((0, 3, 40))


@pytest.mark.parametrize("mode", ["wide", "exact"])
def test_suite_labels_equal_the_full_report_and_take_no_more_runs(mode, runs):
    rng = random.Random(1717 if mode == "wide" else 1718)
    seen, kinds = set(), set()
    for base, mutants, spec, suite, fuel in _batches(rng, mode, 150):
        programs = [m.program for m in mutants]
        outcome_row.cache_clear()
        # at most one run per row and input; a wide row is cached, so each
        # program's is made once, and an exact row is made on every read
        batch = len(suite) * (len({base, *programs}) if mode == "wide" else 1 + len(programs))
        before, calls = runs(), len(runs.made)
        labels = labels_of(base, programs, spec, suite, fuel, mode)
        labelled = runs() - before
        # where the schema runs the base, each of its steps runs at most once
        # per distinct state at its cut, in place of one run per input
        stepped = [args for kind, args in runs.made[calls:] if kind == "base"]
        assert len(stepped) == len(set(stepped))
        assert 0 < labelled and labelled - len(stepped) <= batch - (len(suite) if stepped else 0)
        suffixes = [args for kind, args in runs.made[calls:] if kind == "suffix"]
        assert len(suffixes) == len(set(suffixes))
        made = len(runs.made)
        assert labels == [classify(run_suite(p, base, spec, suite, fuel, mode))
                          for p in programs]
        assert labels_of(base, programs, spec, suite, fuel, mode) == labels
        if mode == "wide":  # every row is cached: neither reports nor the batch run
            assert len(runs.made) == made
        else:  # each report reads the base's row and the program's; the batch runs again
            assert runs() - before == 2 * labelled + 2 * len(suite) * len(programs)
        seen.update((type(spec).__name__, label) for label in labels)
        kinds.update(m.site.kind for m in mutants)
    assert kinds == {BINARY_ARITH, INTEGER_LITERAL, ARRAY_INDEX}
    assert len(seen) == 8  # every label, for both spec classes


def _split_batches(rng, n: int, mode: str = "wide"):
    """`n` batches (base, mutants, spec, suite, fuel) whose base is a
    `random_chain`, so that its mutants sit at several cuts, with a suite
    that repeats inputs, at fuel 0, 3 or 40."""
    for i in range(n):
        sp = program_space(rng, max_states=30, array=i % 3 == 2)
        base = random_chain(rng, sp, wide=mode == "wide")
        mutants = generate(base, ("AORB", "literal+-1", "index+-1"))
        states = list(sp.states())
        suite = Suite(tuple(rng.choices(states, k=rng.randint(1, 2 * len(states)))))
        yield base, mutants, PredicateSpec(sp, "true", "true"), suite, rng.choice((0, 3, 40))


def _cut_states(schema, values: tuple, fuel: int) -> tuple:
    """The run of the base of `schema` from `values`, step by step: its
    (values, fuel left) at each cut that it reaches, and its outcome."""
    chain = []
    for step in schema.steps:
        chain.append((values, fuel))
        out = run_outcome(partial(step, 0), values, fuel)
        if type(out) is not tuple:
            return chain, out
        values, fuel = out
    return chain, values


def _program_batches(rng, n: int):
    """`n` pairs of batches (mode, base, mutants, suite, fuels), one per mode
    over one space: a random program, its mutants of every family, every
    state, at fuels 0, 1, 8 and 10^4.  An exact base reads each block local
    after assigning it, since exact mode refuses a local that may be read
    before (`interp.exposed`); a wide base may read it before."""
    for i in range(n):
        sp = program_space(rng, max_states=12, array=i % 2 == 1)
        for mode in ("exact", "wide"):
            base = random_program(rng, sp, unassigned_reads=mode == "wide", wide=mode == "wide")
            yield mode, base, generate(base, OPERATOR_FAMILIES), Suite(tuple(sp.states())), \
                (0, 1, 8, 10**4)


def test_split_rows_equal_the_rows_of_each_program_compiled_alone():
    """The rows of a batch, made by split-stream execution, equal those of
    each program compiled alone, in both modes: on random programs with
    their mutants of every family, on every state, at fuels from 0 to 10^4,
    and on random chains, whose mutants sit at several cuts, with suites
    that repeat inputs and bases that end before a mutant's cut.  Every
    mutant is covered: one changed outside every loop by a dispatch in its
    cut's step, one changed within a loop by its own step."""
    batches = [*_program_batches(random.Random(1313), 80)]
    for mode, seed in (("wide", 3131), ("exact", 3132)):
        batches += [(mode, base, mutants, suite, (fuel,)) for base, mutants, _, suite, fuel
                    in _split_batches(random.Random(seed), 60, mode)]
    covered = in_loop = 0
    outcomes, ended, seen = set(), set(), set()
    for mode, base, mutants, suite, fuels in batches:
        sp = suite.inputs[0].space
        programs = [m.program for m in mutants]
        schema = compile_schema(base, programs, sp, mode)
        sites = schema.sites if schema else {}
        assert set(sites) == set(programs)
        inside = in_loops(base)
        own = {p for p, (_, step) in sites.items() if not isinstance(step, partial)}
        assert own == {m.program for m in mutants if m.site.path in inside}
        covered += len(sites)
        in_loop += len(own)
        for fuel in fuels:
            outcome_row.cache_clear()
            rows = dict(zip([base] + programs,
                            suites._batch_rows(base, programs, suite, fuel, mode)))
            if mode == "wide":  # and cached
                assert rows == {p: outcome_row(p, suite, fuel, mode) for p in rows}
            for s in suite.inputs if schema else ():  # where the base ends before a mutant's cut
                chain, out = _cut_states(schema, s.values, fuel)
                ended.update(type(out) for cut, _ in sites.values() if cut >= len(chain))
            for p, row in rows.items():
                alone = compile_program(p, sp, mode)
                assert row == tuple(run_outcome(alone, s.values, fuel) for s in suite.inputs)
            outcomes.update(type(out) for row in rows.values() for out in row)
        seen.update(n.op if isinstance(n, BinOp) else type(n) for n in preorder(base))
    outcome_row.cache_clear()
    compile_program.cache_clear()
    assert covered > 1000 and in_loop > 200
    assert outcomes == {tuple, NonTermination, Undefined}
    assert ended == {NonTermination, Undefined}
    assert {While, Block, If, IfElse, ArrayTarget, "/", "%"} <= seen


def test_split_rows_key_the_rest_of_a_run_by_its_fuel_left():
    # cut 0 burns 3 fuel where x == 0 and leaves y as it was, so the base's
    # and the mutant's runs reach cut 1 in one state with different fuel left
    sp = StateSpace((("x", Interval(0, 1)), ("y", Interval(0, 3))))
    base = parse("if (x == 0) { while (y < 3) { y = y + 1; } y = 0; }"
                 " while (y < 2) { y = y + 1; }", sp)
    flipped = parse("if (x == 1) { while (y < 3) { y = y + 1; } y = 0; }"
                    " while (y < 2) { y = y + 1; }", sp)
    mutants = [m.program for m in generate(base, ("literal+-1",))]
    assert flipped in mutants
    suite = Suite((sp.state({"x": 0, "y": 0}), sp.state({"x": 1, "y": 0})))
    outcome_row.cache_clear()
    labels_of(base, mutants, PredicateSpec(sp, "true", "true"), suite, 4)
    assert outcome_row(base, suite, 4, "wide") == (NonTermination(), (1, 2))
    assert outcome_row(flipped, suite, 4, "wide") == ((0, 2), NonTermination())
    outcome_row.cache_clear()


def _cut_of(step) -> int:
    """The cut of a schema's step, from its name, `_step<c>`."""
    return int(getattr(step, "func", step).__name__[len("_step"):])


def test_split_rows_run_the_base_once_each_step_once_and_each_suffix_once(runs):
    """Each step of the base, and each covered mutant's step, runs once per
    distinct (values, fuel) that the base has at the step's cut, where the
    base reaches it, and each suffix key at most once."""
    rng = random.Random(3232)
    steps = suffixes = reached = own = 0
    for base, mutants, spec, suite, fuel in _split_batches(rng, 100):
        programs = [m.program for m in mutants]
        schema = compile_schema(base, programs, spec.space, "wide")
        sites = schema.sites if schema else {}
        covered = {base, *sites} if schema else set()
        chains = [_cut_states(schema, s.values, fuel)[0] for s in suite.inputs] if schema else []
        distinct = [len({chain[c] for chain in chains if c < len(chain)})
                    for c in range(len(schema.steps) if schema else 0)]
        outcome_row.cache_clear()
        start = len(runs.made)
        labels_of(base, programs, spec, suite, fuel)
        made = runs.made[start:]
        kinds = Counter(kind for kind, _ in made)
        stepped = [args for kind, args in made if kind == "base"]
        assert len(stepped) == len(set(stepped))
        assert Counter(cut for cut, *_ in stepped) == {c: n for c, n in enumerate(distinct) if n}
        assert kinds["run"] == len(suite) * len({base, *programs} - covered)
        by_step = Counter(args[0] for kind, args in made if kind == "step")
        assert all(n == distinct[_cut_of(step)] for step, n in by_step.items())
        assert len(by_step) == sum(distinct[c] > 0 for c, _ in sites.values())
        keys = [args for kind, args in made if kind == "suffix"]
        assert len(keys) == len(set(keys))
        assert all(cut < len(schema.steps) for cut, *_ in keys)  # a last cut's step ends its run
        steps += kinds["step"]
        suffixes += len(keys)
        reached += sum(sum(c < len(chain) for chain in chains) for c, _ in sites.values())
        own += sum(not isinstance(step, partial) for step in by_step)
        made = len(runs.made)  # every row of the batch is cached now
        for p in programs:
            outcome_row(p, suite, fuel, "wide")
        assert len(runs.made) == made
    outcome_row.cache_clear()
    assert 0 < suffixes < steps / 2
    assert steps < reached * 0.6 and own > 400  # the partition shares steps, own steps too


def test_a_loop_mutant_steps_once_per_distinct_loop_entry_state(runs):
    """Exact mode on every state of the arraysum program's space with the
    elements narrowed to 0..1 (560 states).  Each step of the base, and each
    mutant's step, runs once per distinct state of the base at its cut: 560
    before `x = 0`, 80 before `i = 0` and 16 at the loop, where x and i are
    0 and only the array varies.  A repair of the program runs no program
    whole: the root's row is the one its first batch makes."""
    sp = StateSpace((("a", ArrayDomain(4, Interval(0, 1))), ("x", Interval(0, 6)),
                     ("i", Interval(0, 4))))
    base = parse("x = 0; i = 0; while (i < 3) { x = x + a[i]; i = i + 1; }", sp)
    spec = PredicateSpec(sp, "true", "x' == a[1] + a[2] + a[3]")
    operators = ("literal+-1", "index+-1")
    programs = [m.program for m in generate(base, operators)]
    every_state = Suite(tuple(sp.states()))
    labels_of(base, programs, spec, every_state, semantics.UNBOUNDED, "exact")
    assert Counter(kind for kind, _ in runs.made)["run"] == 0
    assert Counter(args[0] for kind, args in runs.made if kind == "base") == {0: 560, 1: 80, 2: 16}
    by_step = Counter(args[0] for kind, args in runs.made if kind == "step")
    assert Counter((_cut_of(step), n) for step, n in by_step.items()) == {
        (0, 560): 2, (1, 80): 2, (2, 16): 6}
    assert sum(not isinstance(step, partial) for step in by_step) == 6  # own steps
    keys = [args for kind, args in runs.made if kind == "suffix"]
    assert len(keys) == len(set(keys))
    assert {cut for cut, *_ in keys} == {1, 2}  # the loop's steps end their runs
    runs.made.clear()
    tree, _ = repair(base, spec, RepairConfig(operators=operators, max_depth=2, mode="exact"))
    assert tree.solutions == ["base.7"]
    assert Counter(kind for kind, _ in runs.made)["run"] == 0  # the root's row is its batch's
    assert Counter(args[0] for kind, args in runs.made if kind == "base") == {0: 560, 1: 80, 2: 16}


def _raw(outcome):
    return outcome.state.values if isinstance(outcome, FinalState) else outcome


def _reference_report(suite, base_passes: list, passes: list) -> SuiteReport:
    cells = [0, 0, 0, 0]  # n0..n3
    for b, c in zip(base_passes, passes):
        cells[0 if b and c else 1 if c else 3 if b else 2] += 1
    return SuiteReport(*cells)


def _twin(spec):
    """A spec equal to `spec` that shares none of its memoised answers or counts."""
    if isinstance(spec, PredicateSpec):
        return PredicateSpec(spec.space, spec.dom_src, spec.rel_src)
    return spec


@pytest.mark.parametrize("mode", ["wide", "exact"])
def test_rows_and_folds_equal_a_reference_that_runs_each_input_alone(mode):
    """Rows against `execute` of each program compiled alone (no schema, no
    row), and reports and labels against `abs_oracle` on those outcomes;
    `PredicateSpec.undefined` counts the same on both sides.  `in_loops`
    counts the covered mutants changed within a loop, which run their own
    step."""
    rng = random.Random(2121 if mode == "wide" else 2122)
    covered = in_loops = undefined = 0
    outcomes, sites, seen = set(), set(), set()
    for base, mutants, spec, suite, fuel in _batches(rng, mode, 100):
        programs = [m.program for m in mutants]
        schema = compile_schema(base, programs, spec.space, mode)
        schema_sites = schema.sites if schema else {}
        covered += len(schema_sites)
        in_loops += sum(not isinstance(step, partial) for _, step in schema_sites.values())
        ref_spec = _twin(spec)
        outcome_row.cache_clear()
        labels = labels_of(base, programs, spec, suite, fuel, mode)
        rows = {p: outcome_row(p, suite, fuel, mode) for p in [base] + programs}

        compile_program.cache_clear()
        ref_rows = {p: tuple(_raw(execute(p, s, fuel, mode)) for s in suite.inputs)
                    for p in rows}
        assert rows == ref_rows
        ref_passes = lambda p: [abs_oracle(ref_spec, s, execute(p, s, fuel, mode)).passed
                                for s in suite.inputs]
        base_passes = ref_passes(base)
        assert labels == [classify(_reference_report(suite, base_passes, ref_passes(p)))
                          for p in programs]
        if isinstance(spec, PredicateSpec):
            assert spec.undefined == ref_spec.undefined
        before = getattr(spec, "undefined", 0)
        for p in programs:  # a report judges the base again, as the reference does
            assert run_suite(p, base, spec, suite, fuel, mode) == _reference_report(
                suite, ref_passes(base), ref_passes(p))
        if isinstance(spec, PredicateSpec):
            assert spec.undefined == ref_spec.undefined
            undefined += spec.undefined - before  # of the relation predicate on outputs
        outcomes.update(type(out) for row in rows.values() for out in row)
        sites.update(out.site for row in rows.values() for out in row
                     if isinstance(out, Undefined))
        seen.update((type(spec).__name__, label) for label in labels)
    compile_program.cache_clear()
    outcome_row.cache_clear()
    assert covered > 1000 and in_loops > 200 and undefined > 0
    assert outcomes == {tuple, NonTermination, Undefined}
    assert "division by zero" in sites and any("out of bounds" in s for s in sites)
    assert len(seen) == 8


# -- rows on forked workers ---------------------------------------------------------


def _open_fds() -> set:
    return set(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else set()


def _nothing_left(fds: set) -> None:
    """No child process, exited or not, and no pipe is left of a batch."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert _open_fds() == fds


@pytest.fixture
def forking(monkeypatch):
    """Every batch with two jobs or more forks two workers at its first job,
    on any host.  `forking.decoded` lists the rows this process received
    from workers, as they were sent, and `forking.forks` counts the forks."""
    monkeypatch.setattr(suites, "_FORK_AFTER_S", 0)
    monkeypatch.setattr(suites, "_spare_cpus", lambda: 2)
    decoded, forks = [], []
    decode, fork = suites._decode, os.fork
    monkeypatch.setattr(suites, "_decode", lambda row: decoded.append(row) or decode(row))
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    outcome_row.cache_clear()
    yield SimpleNamespace(decoded=decoded, forks=forks)
    outcome_row.cache_clear()


def _labelled(monkeypatch, fork_after: float, *batch) -> list:
    """The (label, row) pairs of `suite_labels(*batch)`, made from empty
    caches by a batch that forks once its rows have taken `fork_after`."""
    monkeypatch.setattr(suites, "_FORK_AFTER_S", fork_after)
    outcome_row.cache_clear()
    return list(suite_labels(*batch))


def _random_batches(seed: int, n: int) -> list:
    """Batches (base, programs, spec, suite, fuel, mode) from `_batches` in
    both modes, each also at fuel 10^4, where the divergence checks end many
    runs of a loop."""
    rng = random.Random(seed)
    return [(base, [m.program for m in mutants], spec, suite, f, mode)
            for mode in ("wide", "exact")
            for base, mutants, spec, suite, fuel in _batches(rng, mode, n)
            for f in (fuel, 10**4)]


def _shadowing(rng, p, space: StateSpace):
    """`p` with one of its blocks, at random, renamed to redeclare a name in
    scope there (a variable of `space` or an enclosing local), with that
    name; None if `p` has no block."""
    seen, blocks = [], []  # preorder; (index, block, the names in scope there)

    def walk(node, scope: list) -> None:
        if isinstance(node, Block):
            blocks.append((len(seen), node, scope))
            scope = [*scope, node.name]
        seen.append(node)
        for c in node.children():
            walk(c, scope)

    walk(p, list(space.names))
    if not blocks:
        return None
    i, block, scope = rng.choice(blocks)
    local = scope[len(space.names):]  # an enclosing local, where there is one, more often
    name = rng.choice(local if local and rng.random() < 0.75 else scope)
    body = replace_nodes(block, {j: dc_replace(n, name=name) for j, n in enumerate(preorder(block))
                                 if isinstance(n, (Var, VarTarget)) and n.name == block.name})
    return replace_nodes(p, {i: dc_replace(body, name=name)}), name


@pytest.mark.parametrize("fork", [False, True])
def test_no_mode_runs_a_local_that_shadows(request, fork):
    """A random program with one block renamed to redeclare a name in scope,
    a variable of the space or an enclosing local, is refused with a
    RelcorError in both modes by `compile_program`, `execute` and the batch
    kernel (with workers forked at its first job, too), by `denote`, which
    compiles it, and by `denote_structural`, which extends the space."""
    if fork:
        request.getfixturevalue("forking")
    rng = random.Random(2323)
    refused = []
    for mode in ("wide", "exact"):
        for base, _, spec, suite, fuel in _batches(rng, mode, 1000):
            shadowing = _shadowing(rng, base, spec.space)
            if shadowing is None:
                continue
            if len(refused) == (30 if mode == "wide" else 60):
                break
            p, name = shadowing
            programs = [m.program for m in generate(p, OPERATOR_FAMILIES)]
            for run_mode in ("wide", "exact"):
                for call in (partial(compile_program, p, spec.space, run_mode),
                             partial(execute, p, suite.inputs[0], fuel, run_mode),
                             lambda: list(suite_labels(p, programs, spec, suite, fuel, run_mode))):
                    with pytest.raises(RelcorError, match="redeclares|duplicate variable names"):
                        call()
            with pytest.raises(RelcorError, match="redeclares"):
                semantics.denote(p, spec.space)
            with pytest.raises(RelcorError, match="duplicate variable names"):
                semantics.denote_structural(p, spec.space)
            refused.append(name in spec.space.names)
    assert len(refused) == 60 and 3 < refused.count(False) < refused.count(True)


def _fermat_batch() -> tuple:
    from relcor.studies import fermat

    built = fermat.build()
    base = built["base"]
    return (base, [m.program for m in generate(base, ("AORB",))], built["spec"],
            built["suite"], fermat.FUEL, "wide")


def test_rows_made_on_forked_workers_equal_rows_made_in_process(monkeypatch, forking):
    """Rows and labels of random batches in both modes and of the Fermat
    level-1 batch, with workers forked at the first job, equal those made
    in process.  The workers send every kind of outcome, NONTERMINATION is
    the same object after decoding, and each batch reaps its workers and
    closes its pipes."""
    fds = _open_fds()
    forked = []  # workers per batch
    for batch in [*_random_batches(1919, 40), _fermat_batch()]:
        alone = _labelled(monkeypatch, math.inf, *batch)
        forks = len(forking.forks)
        pairs = _labelled(monkeypatch, 0, *batch)
        forked.append(len(forking.forks) - forks)
        _nothing_left(fds)
        assert pairs == alone
        assert all(out is NONTERMINATION for _, row in pairs for out in row
                   if isinstance(out, NonTermination))
    assert max(forked) == forked[-1] == 2 and forked.count(0) < len(forked) / 4
    sent = {type(out) for row in forking.decoded for out in row}
    assert sent == {tuple, type(None), str}  # final values, NONTERMINATION, Undefined
    assert len(forking.decoded) > 500


def test_rows_that_a_worker_leaves_unsent_are_made_in_process(monkeypatch, forking):
    """A worker that ends after sending its first row, holding its second
    job: this process makes the rows it did not send."""
    encode = suites._encode
    ended_r, ended_w = os.pipe()
    sent = []

    def once(row):
        if sent:  # in a worker that has sent a row
            os.write(ended_w, b"x")
            os._exit(0)
        sent.append(row)
        return encode(row)

    monkeypatch.setattr(suites, "_encode", once)
    monkeypatch.setattr(suites, "_spare_cpus", lambda: 1)
    fds = _open_fds()
    for batch in [*_random_batches(2020, 15), _fermat_batch()]:
        alone = _labelled(monkeypatch, math.inf, *batch)
        assert _labelled(monkeypatch, 0, *batch) == alone
        _nothing_left(fds)
    os.close(ended_w)
    ended = len(os.read(ended_r, 1 << 16))
    os.close(ended_r)
    assert 0 < ended <= len(forking.decoded) <= len(forking.forks)


@pytest.mark.parametrize("leave", ["throw", "close"])
def test_a_batch_left_midway_leaves_no_process(forking, leave):
    """An exception raised in the batch at a row, or a consumer that stops
    taking rows, kills and reaps the workers and closes their pipes."""
    fds = _open_fds()
    base, programs, _, suite, fuel, mode = _fermat_batch()
    rows = suites._batch_rows(base, programs, suite, fuel, mode)
    next(rows), next(rows), next(rows)  # the base's, then the first two jobs'
    assert len(forking.forks) == 2
    if leave == "throw":
        with pytest.raises(KeyboardInterrupt):
            rows.throw(KeyboardInterrupt)
    else:
        rows.close()
    _nothing_left(fds)


@pytest.mark.parametrize("why", ["one CPU", "a second thread", "no fork"])
def test_a_batch_stays_in_process_where_it_may_not_fork(monkeypatch, why):
    """Past its gate, on one CPU, while a second thread is alive or without
    `os.fork`, a batch makes every row in process: a fork would raise."""
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    if why == "one CPU":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
    elif why == "no fork":
        monkeypatch.delattr(os, "fork")
    done = threading.Event()
    thread = threading.Thread(target=done.wait)
    if why == "a second thread":
        thread.start()
    try:
        for batch in _random_batches(2121, 5):
            assert _labelled(monkeypatch, 0, *batch) == _labelled(monkeypatch, math.inf, *batch)
    finally:
        done.set()
        if why == "a second thread":
            thread.join(timeout=10)
    assert not thread.is_alive()
    outcome_row.cache_clear()


class _Forked(Exception):
    pass


def _fork_point(monkeypatch, base, cost):
    """The clock and the jobs left where a batch of `base`'s AORB mutants
    forks, or None if it never does, under a clock that only runs move:
    each run of a step adds `cost(k)` seconds, k its mutant (0 for the
    base).  A spare CPU is pretended."""
    now, point = [0.0], []
    run = suites.run_outcome

    def timed(step, values, fuel):
        now[0] += cost(step.args[0])
        return run(step, values, fuel)

    def forked(jobs, make, count):
        point.append((now[0], len(jobs)))
        raise _Forked()

    monkeypatch.setattr(suites, "run_outcome", timed)
    monkeypatch.setattr(suites, "time", SimpleNamespace(perf_counter=lambda: now[0]))
    monkeypatch.setattr(suites, "_spare_cpus", lambda: 1)
    monkeypatch.setattr(suites, "_Workers", forked)
    programs = [m.program for m in generate(base, ("AORB",))]
    outcome_row.cache_clear()
    try:
        list(suites._batch_rows(base, programs, Suite(tuple(SP.states())), 10, "wide"))
    except _Forked:
        return point[0]
    finally:
        outcome_row.cache_clear()
    return None


def test_a_batch_whose_first_rows_are_slow_forks_before_they_have_taken_the_gate(monkeypatch):
    """Rows that take 30 ms each, 10 runs of 3 ms: once the first row has
    taken a tenth of `_FORK_AFTER_S`, the pace of the rows shows that those
    left would take more than all of it, so the batch forks at 30 ms, with
    all but one of its jobs left."""
    point = _fork_point(monkeypatch, parse("x = x + 1 + 1;", SP), lambda k: 0.003 if k else 0)
    assert point == (pytest.approx(0.03), 7)


def test_a_batch_of_many_fast_rows_never_forks(monkeypatch):
    """200 rows of 0.4 ms each, 80 ms in all, after a base whose runs take
    0.2 s: the pace of the rows is timed from the base's row on, and the
    rows left never look like the 0.1 s that a fork pays for."""
    base = parse("x = x" + " + 1" * 50 + ";", SP)
    assert _fork_point(monkeypatch, base, lambda k: 0.00004 if k else 0.02) is None
