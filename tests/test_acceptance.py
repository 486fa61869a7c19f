"""End-to-end acceptance suite: the three bundled studies, randomized
property suites over the relation calculus and the interpreter, and report
determinism."""

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from randgen import (
    correct_program_for,
    program_space,
    random_deterministic,
    random_predicate,
    random_program,
    random_relation,
    small_space,
)
from relcor import suites
from relcor.errors import CapacityError, NonDeterministicError
from relcor.lang.ast_nodes import (
    Abort, Assign, Block, If, IfElse, Seq, Skip, While, preorder, replace_nodes,
)
from relcor.lang.interp import FinalState, NonTermination, execute
from relcor.lang.semantics import UNBOUNDED, denote, denote_structural, tabulable
from relcor.mutate import generate
from relcor.relations import competence_domain, is_correct, more_correct, refines
from relcor.repair import RepairConfig, classify_mutants, repair, tree_to_json
from relcor.space import Interval
from relcor.specs import EnumeratedSpec, PredicateSpec
from relcor.suites import classify, run_suite, select_tests


STATEMENTS = (Abort, Skip, Assign, Seq, If, IfElse, While, Block)


def test_lattice_study_matches_expected_facts():
    from relcor.studies import lattice

    assert lattice.check(lattice.run()) == []


def test_arraysum_study_matches_expected_facts():
    from relcor.studies import arraysum

    assert arraysum.check(arraysum.run()) == []


def test_fermat_study_matches_expected_facts(fermat_report):
    from relcor.studies import fermat

    assert fermat.check(fermat_report) == []


def test_property_suites_hold_with_zero_counterexamples():
    _refinement_partial_order_laws(n=1000)
    _correctness_iff_competence_domain_is_full(n=1000)
    _relative_correctness_is_reflexive_and_transitive(n=1000)
    _correct_programs_are_more_correct_than_everything(n=500)
    _denote_agrees_with_bounded_execution(n=500)
    _testing_mode_agrees_with_exact_mode(n=100)
    _spec_domains_agree_with_the_enumerated_spec(n=200)


def test_fermat_report_is_byte_identical_across_runs(fermat_report):
    from relcor.studies import fermat

    first = json.dumps(fermat_report, sort_keys=True, indent=1).encode()
    second = json.dumps(fermat.run(), sort_keys=True, indent=1).encode()
    assert first == second


def fermat_depth1_tree_bytes() -> bytes:
    """The Fermat study's repair stopped after its first level, as JSON."""
    from relcor.studies import fermat

    built = fermat.build()
    cfg = RepairConfig(operators=("AORB",), suite=built["suite"], fuel=fermat.FUEL,
                       max_depth=1, mode="testing")
    tree, _ = repair(built["base"], built["spec"], cfg)
    return json.dumps(tree_to_json(tree, built["spec"].space), sort_keys=True, indent=1).encode()


def narrow_arraysum_tree_bytes() -> bytes:
    """The exact-mode arraysum repair with array elements narrowed from
    0..2 to 0..1 (560 states), as JSON."""
    from relcor.lang.parser import parse
    from relcor.specs import spec_from_json
    from relcor.studies import load_fixture_json, load_fixture_text

    doc = load_fixture_json("arraysum_spec.json")
    for var in doc["space"]["vars"]:
        if var["name"] == "a":
            var["max"] = 1
    spec = spec_from_json(doc)
    base = parse(load_fixture_text("arraysum.imp"), spec.space)
    cfg = RepairConfig(operators=("literal+-1", "index+-1"), max_depth=2, mode="exact")
    tree, _ = repair(base, spec, cfg)
    return json.dumps(tree_to_json(tree, spec.space), sort_keys=True, indent=1).encode()


LOOP_FREE = """
int t : 0..7;
t = (x + y) % 8;
if (x < 4) {
  x = (x + y - y) % 8;
} else {
  x = (x + y * 3) % 8;
}
y = (y + t - t) % 8;
"""


def loop_free_batch_bytes() -> bytes:
    """A testing-mode batch of a loop-free program, which runs through a
    mutant schema: its labels and its repair tree, as JSON."""
    from relcor.lang.interp import compile_schema
    from relcor.lang.parser import parse
    from relcor.space import Interval, StateSpace

    space = StateSpace((("x", Interval(0, 7)), ("y", Interval(0, 7))))
    spec = PredicateSpec(space, "true", "x' == (x + y + y) % 8 && y' == y")
    base = parse(LOOP_FREE, space)
    suite = select_tests(spec, strategy="exhaustive")
    operators = ("AORB", "literal+-1")
    mutants = generate(base, operators)
    labels = [(m.ordinal, label)
              for m, label, _ in classify_mutants(base, mutants, spec, suite, "testing")]
    schema = compile_schema(base, [m.program for m in mutants], space, "wide")
    assert len(schema.sites) == len(mutants)
    cfg = RepairConfig(operators=operators, suite=suite, max_depth=2, mode="testing")
    tree, _ = repair(base, spec, cfg)
    doc = {"labels": labels, "tree": tree_to_json(tree, space)}
    return json.dumps(doc, sort_keys=True, indent=1).encode()


def _fingerprints_are_semantic_fingerprints(base, spec, suite, operators) -> None:
    """A testing-mode repair, which must not call `cached_execute`, gives
    every node the fingerprint that `semantic_fingerprint` gives on the
    suite's inputs, and both are the SHA-256 of each outcome's final values
    (their repr) or type name, each followed by ``|``."""
    from relcor.mutate import semantic_fingerprint

    calls = suites.cached_execute.cache_info()
    cfg = RepairConfig(operators=operators, suite=suite, max_depth=2, mode="testing")
    tree, _ = repair(base, spec, cfg)
    assert suites.cached_execute.cache_info()[:2] == calls[:2]  # hits, misses
    assert len(tree.nodes) > 2 and tree.solutions
    for node in tree.nodes.values():
        assert node.fingerprint == semantic_fingerprint(node.program, suite.inputs, cfg.fuel)
        outcomes = [execute(node.program, s, cfg.fuel, "wide") for s in suite.inputs]
        text = "".join((repr(out.state.values) if isinstance(out, FinalState)
                        else type(out).__name__) + "|" for out in outcomes)
        assert node.fingerprint == hashlib.sha256(text.encode()).hexdigest()


def test_testing_mode_fingerprints_are_semantic_fingerprints_of_the_suite(tmp_path):
    from relcor.lang.parser import parse
    from relcor.space import StateSpace

    space = StateSpace((("x", Interval(0, 7)), ("y", Interval(0, 7))))
    spec = PredicateSpec(space, "true", "x' == (x + y + y) % 8 && y' == y")
    _fingerprints_are_semantic_fingerprints(
        parse(LOOP_FREE, space), spec, select_tests(spec, strategy="exhaustive"),
        ("AORB", "literal+-1"))
    # a file suite with inputs outside dom(R), whose outcomes the digests hold
    # too: at x = 20 every program runs forever
    space = StateSpace((("x", Interval(0, 20)),))
    spec = PredicateSpec(space, "x <= 18", "x' == x + 2")
    path = tmp_path / "inputs.txt"
    path.write_text("".join(f"x={x}\n" for x in (0, 3, 7, 12, 18, 19, 20)))
    suite = select_tests(spec, strategy="file", path=str(path))
    assert not all(spec.in_dom(s) for s in suite.inputs)
    base = "while (x == 20) { x = x; } if (x < 10) { x = x - 2; } else { x = x + 3; }"
    _fingerprints_are_semantic_fingerprints(parse(base, space), spec, suite,
                                            ("AORB", "literal+-1"))


def _cold_runs(builder: str) -> list:
    """`builder()`'s bytes from two fresh processes with PYTHONHASHSEED 1 and 2."""
    here = Path(__file__).parent
    script = f"import sys, test_acceptance; sys.stdout.buffer.write(test_acceptance.{builder}())"
    path = os.pathsep.join([str(here.parent / "src"), str(here)])
    runs = [
        subprocess.Popen([sys.executable, "-c", script],
                         env=dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path),
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        for hash_seed in ("1", "2")
    ]
    cold = []
    try:
        for run in runs:
            out, err = run.communicate(timeout=300)
            assert run.returncode == 0, err.decode()
            cold.append(out)
    finally:
        for run in runs:
            run.kill()
    return cold


def test_fermat_depth1_tree_is_identical_in_cold_processes_with_other_hash_seeds():
    cold = _cold_runs("fermat_depth1_tree_bytes")
    assert cold[0] == cold[1] == fermat_depth1_tree_bytes()


def test_narrow_arraysum_exact_tree_is_identical_in_cold_processes_with_other_hash_seeds():
    cold = _cold_runs("narrow_arraysum_tree_bytes")
    assert cold[0] == cold[1] == narrow_arraysum_tree_bytes()
    assert b'"solutions"' in cold[0]


def test_loop_free_schema_batch_is_identical_in_cold_processes_with_other_hash_seeds():
    cold = _cold_runs("loop_free_batch_bytes")
    assert cold[0] == cold[1] == loop_free_batch_bytes()
    doc = json.loads(cold[0])
    assert {"strictly_more_correct", "not_more_correct"} <= {label for _, label in doc["labels"]}
    assert doc["tree"]["solutions"] and max(n["depth"] for n in doc["tree"]["nodes"]) == 2


# -- property suite bodies ----------------------------------------------------------


def _refinement_partial_order_laws(n):
    rng = random.Random(101)
    antisym = transitive = 0
    for _ in range(n):
        sp = small_space(rng)
        a, b, c = (random_relation(rng, sp) for _ in range(3))
        assert refines(a, a)
        if refines(a, b) and refines(b, a):
            antisym += 1
            assert a == b
        if refines(a, b) and refines(b, c):
            transitive += 1
            assert refines(a, c)
    assert antisym > 0 and transitive > 0


def _correctness_iff_competence_domain_is_full(n):
    rng = random.Random(202)
    for _ in range(n):
        sp = small_space(rng)
        r = random_relation(rng, sp)
        p = random_deterministic(rng, sp)
        cd = competence_domain(r, p, warn_nondeterministic=False)
        assert refines(p, r) == (cd == r.domain())
        assert is_correct(p, r) == (cd == r.domain())


def _relative_correctness_is_reflexive_and_transitive(n):
    rng = random.Random(303)
    chained = 0
    for _ in range(n):
        sp = small_space(rng)
        r = random_relation(rng, sp)
        p1, p2, p3 = (random_deterministic(rng, sp) for _ in range(3))
        assert more_correct(p1, p1, r)
        assert not more_correct(p1, p1, r, strict=True)
        if more_correct(p1, p2, r) and more_correct(p2, p3, r):
            chained += 1
            assert more_correct(p1, p3, r)
    assert chained > 0


def _correct_programs_are_more_correct_than_everything(n):
    rng = random.Random(404)
    for _ in range(n):
        sp = small_space(rng)
        r = random_relation(rng, sp)
        p = correct_program_for(rng, r)
        q = random_deterministic(rng, sp)
        assert is_correct(p, r)
        assert more_correct(p, q, r)


def _denote_agrees_with_bounded_execution(n):
    rng = random.Random(505)
    spot = random.Random(515)  # apart from `rng`, so that the programs stay the same
    fallbacks = diverging = blocks = 0
    for _ in range(n):
        sp = program_space(rng, max_states=500)
        p = random_program(rng, sp)
        rel = denote_structural(p, sp)
        assert denote(p, sp) == rel
        images = {}
        for s, t in rel.pairs:
            images.setdefault(s, set()).add(t)
        fallbacks += not rel.is_deterministic()
        outcomes = [execute(p, s, UNBOUNDED, mode="exact") for s in sp.states()]
        for s, out in zip(sp.states(), outcomes):
            if isinstance(out, FinalState):
                # a block local starts at the low end of its interval, one
                # of the initial values [p] quantifies over
                assert out.state in images[s]
        diverging += any(isinstance(out, NonTermination) for out in outcomes)
        blocks += any(isinstance(node, Block) for node in preorder(p))
        # a block over 0..10^7 anywhere puts its extended space over the cap
        nodes = preorder(p)
        i = spot.choice([i for i, node in enumerate(nodes) if isinstance(node, STATEMENTS)])
        big = replace_nodes(p, {i: Block("big", Interval(0, 10**7), nodes[i])})
        for route in (denote, denote_structural):
            with pytest.raises(CapacityError):
                route(big, sp)
    assert fallbacks > 0 and diverging > 0 and blocks > fallbacks


def _testing_mode_agrees_with_exact_mode(n):
    rng = random.Random(606)
    done = 0
    while done < n:
        sp = program_space(rng, max_states=60)
        base = random_program(rng, sp, unassigned_reads=False)
        mutants = generate(base, ("AORB", "literal+-1"))
        r = random_relation(rng, sp)
        if not mutants or not r.pairs:
            continue
        spec = EnumeratedSpec(r)
        _agree(rng, base, mutants, spec, select_tests(spec, strategy="exhaustive"))
        done += 1
    # predicate specs, on suites of every state: in_dom must say s in dom(R),
    # also where the domain predicate holds and no output satisfies the relation
    rng = random.Random(607)
    witnessless = labels = 0
    seen = set()
    while labels < n:
        sp = program_space(rng, max_states=40)
        base = random_program(rng, sp, unassigned_reads=False)
        mutants = generate(base, ("AORB", "literal+-1"))
        if not mutants:
            continue
        names = list(sp.names)
        spec = PredicateSpec(sp, random_predicate(rng, names, primed=False),
                             random_predicate(rng, names, primed=True))
        witnessless += any(spec._dom_holds(s) for s in sp.states() if not spec.in_dom(s))
        seen.add(_agree(rng, base, mutants, spec, suites.TestSuite(tuple(sp.states()))))
        labels += 1
    assert witnessless > 10 and len(seen) == 4


def _agree(rng, base, mutants, spec, suite) -> str:
    """Assert that the suite classifies a random mutant as exact mode does;
    returns the label."""
    sp = spec.space
    m = rng.choice(mutants)
    base_fn = denote(base, sp)
    mut_fn = denote(m.program, sp)
    if is_correct(mut_fn, spec):
        exact_label = "absolutely_correct"
    elif more_correct(mut_fn, base_fn, spec, strict=True):
        exact_label = "strictly_more_correct"
    elif more_correct(mut_fn, base_fn, spec):
        exact_label = "as_correct"
    else:
        exact_label = "not_more_correct"
    report = run_suite(m.program, base, spec, suite, UNBOUNDED, mode="exact")
    assert classify(report) == exact_label
    return exact_label


def _meet_domain(r, p) -> frozenset:
    """dom(R & P), from the pair sets."""
    return frozenset(s for (s, _) in r.pairs & p.pairs)


def _enumerated_label(mut_fn, base_fn, r):
    """The exact classification, from the set algebra of the enumerated spec."""
    dom = frozenset(s for (s, _) in r.pairs)
    cd_m = _meet_domain(r, mut_fn)
    cd_b = _meet_domain(r, base_fn)
    if cd_m == dom:
        return "absolutely_correct"
    if cd_m > cd_b:
        return "strictly_more_correct"
    if cd_m >= cd_b:
        return "as_correct"
    return "not_more_correct"


def _spec_domains_agree_with_the_enumerated_spec(n):
    """Exact labels against the set algebra of the enumerated spec, also for
    bases that may read a block local before assigning it; where [p] of the
    base or of a mutant is then no function, exact mode raises."""
    rng = random.Random(707)
    partial_domains = labels = structural = nondeterministic = 0
    seen = set()
    while labels < n or structural < n // 20 or nondeterministic < n // 40:
        sp = program_space(rng, max_states=40)
        if rng.random() < 0.5:
            spec = EnumeratedSpec(random_relation(rng, sp))
        else:
            names = list(sp.names)
            spec = PredicateSpec(sp, random_predicate(rng, names, primed=False),
                                 random_predicate(rng, names, primed=True))
        r = spec.enumerate()
        assert spec.domain() == r.domain()
        partial_domains += 0 < len(r.domain()) < sp.num_states
        base = random_program(rng, sp, unassigned_reads=True)
        base_fn = denote(base, sp)
        # a random relation stands in for a nondeterministic program
        for p in (base_fn, random_relation(rng, sp)):
            meet = _meet_domain(r, p)
            assert competence_domain(spec, p, warn_nondeterministic=False).members == meet
            assert competence_domain(r, p, warn_nondeterministic=False).members == meet
        mutants = generate(base, ("AORB", "literal+-1"))
        sample = rng.sample(mutants, min(3, len(mutants)))
        fns = [denote(m.program, sp) for m in sample]
        if not all(fn.is_deterministic() for fn in [base_fn, *fns]):
            with pytest.raises(NonDeterministicError):
                classify_mutants(base, sample, spec, None, mode="exact")
            nondeterministic += 1
            continue
        structural += bool(sample) and not tabulable(base, sp)
        classified = classify_mutants(base, sample, spec, None, mode="exact")
        for (_, label, _), fn in zip(classified, fns):
            assert label == _enumerated_label(fn, base_fn, r)
            seen.add(label)
            labels += 1
    assert partial_domains > 0
    assert seen == {"absolutely_correct", "strictly_more_correct", "as_correct",
                    "not_more_correct"}
