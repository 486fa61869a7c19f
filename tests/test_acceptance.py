"""End-to-end acceptance suite: the three bundled studies, randomized
property suites over the relation calculus and the interpreter, and report
determinism."""

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
from relcor.errors import CapacityError
from relcor.lang.ast_nodes import Block, preorder
from relcor.lang.interp import FinalState, NonTermination, execute
from relcor.lang.semantics import conclusive_fuel, denote, denote_structural
from relcor.mutate import generate
from relcor.relations import competence_domain, is_correct, more_correct, refines
from relcor.repair import RepairConfig, classify_mutants, repair, tree_to_json
from relcor.specs import EnumeratedSpec, PredicateSpec
from relcor.suites import classify, run_suite, select_tests


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
        fuel = conclusive_fuel(p, sp)
        outcomes = [execute(p, s, fuel, mode="exact") for s in sp.states()]
        for s, out in zip(sp.states(), outcomes):
            if isinstance(out, FinalState):
                # a block local starts at the low end of its interval, one
                # of the initial values [p] quantifies over
                assert out.state in images[s]
        diverging += any(isinstance(out, NonTermination) for out in outcomes)
        if any(isinstance(node, Block) for node in preorder(p)):
            blocks += 1
            for route in (denote, denote_structural):
                with pytest.raises(CapacityError):
                    route(p, sp, cap=sp.num_states)
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
        suite = select_tests(spec, strategy="exhaustive")
        m = rng.choice(mutants)
        fuel = max(conclusive_fuel(base, sp), conclusive_fuel(m.program, sp))
        base_fn = denote(base, sp)
        mut_fn = denote(m.program, sp)
        if is_correct(mut_fn, r):
            exact_label = "absolutely_correct"
        elif more_correct(mut_fn, base_fn, r, strict=True):
            exact_label = "strictly_more_correct"
        elif more_correct(mut_fn, base_fn, r):
            exact_label = "as_correct"
        else:
            exact_label = "not_more_correct"
        report = run_suite(m.program, base, spec, suite, fuel, mode="exact")
        assert classify(report) == exact_label
        done += 1


def _enumerated_label(mut_fn, base_fn, r):
    """The exact classification, from the set algebra of the enumerated spec."""
    dom = r.domain().members
    cd_m = (r & mut_fn).domain().members
    cd_b = (r & base_fn).domain().members
    if cd_m == dom:
        return "absolutely_correct"
    if cd_m > cd_b:
        return "strictly_more_correct"
    if cd_m >= cd_b:
        return "as_correct"
    return "not_more_correct"


def _spec_domains_agree_with_the_enumerated_spec(n):
    rng = random.Random(707)
    partial_domains = labels = 0
    seen = set()
    while labels < n:
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
        base = random_program(rng, sp, unassigned_reads=False)
        base_fn = denote(base, sp)
        # a random relation stands in for a nondeterministic program
        for p in (base_fn, random_relation(rng, sp)):
            assert spec.competence_domain(p) == (r & p).domain()
            assert competence_domain(r, p, warn_nondeterministic=False) == (r & p).domain()
        mutants = generate(base, ("AORB", "literal+-1"))
        sample = rng.sample(mutants, min(3, len(mutants)))
        for m, label, _ in classify_mutants(base, sample, spec, None, mode="exact"):
            assert label == _enumerated_label(denote(m.program, sp), base_fn, r)
            seen.add(label)
            labels += 1
    assert partial_domains > 0
    assert seen == {"absolutely_correct", "strictly_more_correct", "as_correct",
                    "not_more_correct"}
