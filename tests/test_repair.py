import json
import math

import pytest

import relcor.repair
from relcor.errors import RelcorError
from relcor.lang.parser import parse
from relcor.lang.semantics import UNBOUNDED
from relcor.mutate import INTEGER_LITERAL, Patch, sites
from relcor.repair import (
    KEPT,
    RepairConfig,
    classify_mutants,
    repair,
    tree_to_dot,
    tree_to_json,
    verify_fault,
)
from relcor.mutate import generate
from relcor.relations import space_from_json
from relcor.space import Interval, StateSpace
from relcor.specs import PredicateSpec
from relcor.suites import TestSuite as Suite
from relcor.suites import outcome_row, select_tests

SP = StateSpace((("x", Interval(0, 20)),))
SPEC = PredicateSpec(SP, "x <= 18", "x' == x + 2")

SEEDED = parse("x = x - 2;", SP)  # one flipped operator away from correct


def make_exact_cfg(**kw):
    return RepairConfig(operators=("AORB",), mode="exact", **kw)


def make_testing_cfg(**kw):
    suite = select_tests(SPEC, strategy="exhaustive")
    return RepairConfig(operators=("AORB",), suite=suite, fuel=100,
                        mode="testing", **kw)


def test_config_rejects_an_unknown_operator_family_and_negative_fuel():
    with pytest.raises(RelcorError, match="unknown operator family 'ROR'"):
        RepairConfig(operators=("AORB", "ROR"))
    with pytest.raises(RelcorError, match="fuel must be >= 0"):
        RepairConfig(fuel=-1)


@pytest.mark.parametrize("fuel", [math.inf, 2.5, True])
def test_config_rejects_a_fuel_that_is_no_count_of_iterations(fuel):
    # at math.inf, a wide run of a loop that never ends, and that no check
    # proves, would never run out of fuel
    with pytest.raises(RelcorError, match="fuel must be >= 0 and an int"):
        RepairConfig(fuel=fuel)


def test_single_seeded_fault_repaired_at_depth_one():
    tree, metrics = repair(SEEDED, SPEC, make_exact_cfg())
    assert metrics.fault_depth_ub == 1
    assert tree.solutions
    label = tree.solutions[0]
    assert tree.nodes[label].depth == 1
    assert tree.nodes[label].classification == "absolutely_correct"


def test_testing_mode_agrees_on_the_seeded_fault():
    tree, metrics = repair(SEEDED, SPEC, make_testing_cfg())
    assert metrics.fault_depth_ub == 1
    assert tree.solutions


def test_already_correct_base_is_its_own_solution():
    tree, metrics = repair(parse("x = x + 2;", SP), SPEC, make_exact_cfg())
    assert tree.solutions == ["base"]
    assert metrics.fault_depth_ub == 0
    assert metrics.fault_density_lb == 0


def test_fault_density_counts_strictly_more_correct_root_children():
    tree, metrics = repair(SEEDED, SPEC, make_exact_cfg())
    strict_children = [
        n for n in tree.nodes.values()
        if n.depth == 1 and n.classification in
        ("strictly_more_correct", "absolutely_correct")
    ]
    merged = sum(len(n.aliases) for n in strict_children)
    assert metrics.fault_density_lb == len(strict_children) + merged


def test_unrepairable_program_reports_dead_ends():
    # every AORB mutant of x % 1 still has an empty competence domain
    hopeless = parse("x = x % 1;", SP)
    tree, metrics = repair(hopeless, SPEC, make_exact_cfg(max_depth=2))
    assert not tree.solutions
    assert metrics.fault_depth_ub is None
    assert "base" in tree.dead_ends


def test_max_depth_bounds_the_search():
    tree, _ = repair(SEEDED, SPEC, make_exact_cfg(max_depth=1))
    assert all(n.depth <= 1 for n in tree.nodes.values())


def test_max_frontier_expands_only_the_first_kept_children(monkeypatch):
    # x - 2 - 2 has two kept children, (x * 2) - 2 and (x - 2) * 2, each
    # right at one state, and neither has a kept child of its own
    spec = PredicateSpec(SP, "x <= 16", "x' == x + 4")
    base = parse("x = x - 2 - 2;", SP)
    expanded = []
    monkeypatch.setattr(relcor.repair, "generate",
                        lambda p, operators: expanded.append(p) or generate(p, operators))
    full, _ = repair(base, spec, make_exact_cfg(max_depth=2))
    children = [child for parent, child, _ in full.edges if parent == "base"]
    assert children == ["base.2", "base.6"] and not full.solutions
    assert full.dead_ends == children
    assert expanded == [base, *(full.nodes[c].program for c in children)]
    expanded.clear()
    cut, _ = repair(base, spec, make_exact_cfg(max_depth=2, max_frontier=1))
    assert expanded == [base, cut.nodes["base.2"].program]
    assert cut.nodes.keys() == full.nodes.keys() and cut.edges == full.edges
    assert cut.dead_ends == ["base.2"] and not cut.nodes["base.6"].dead_end


def test_config_rejects_an_unknown_mode_and_a_max_depth_below_1():
    with pytest.raises(RelcorError, match="unknown repair mode 'bogus'"):
        RepairConfig(mode="bogus")
    for depth in (0, -1):
        with pytest.raises(RelcorError, match="max_depth must be >= 1"):
            RepairConfig(max_depth=depth)
    assert RepairConfig(max_depth=1, mode="exact").mode == "exact"


def test_classify_mutants_rejects_an_unknown_mode_as_a_user_error():
    suite = select_tests(SPEC, strategy="exhaustive")
    with pytest.raises(RelcorError, match="unknown classification mode 'bogus'"):
        classify_mutants(SEEDED, generate(SEEDED, ("AORB",)), SPEC, suite, mode="bogus")


def test_classify_mutants_modes_agree_on_exhaustive_suite():
    mutants = generate(SEEDED, ("AORB",))
    exact = classify_mutants(SEEDED, mutants, SPEC, None, mode="exact")
    suite = select_tests(SPEC, strategy="exhaustive")
    # exact-mode execution over the full domain matches denotational labels
    from relcor.suites import classify, run_suite

    for m, label, _ in exact:
        report = run_suite(m.program, SEEDED, SPEC, suite, fuel=100, mode="exact")
        assert classify(report) == label


def test_testing_mode_labels_without_full_reports(monkeypatch):
    import relcor.repair
    import relcor.suites

    def no_report(*args, **kwargs):
        raise AssertionError("testing-mode classify_mutants built a full report")

    def no_cached_run(*args, **kwargs):
        raise AssertionError("testing-mode classify_mutants ran through cached_execute")

    mutants = generate(SEEDED, ("AORB",))
    exact = classify_mutants(SEEDED, mutants, SPEC, None, mode="exact")
    assert not hasattr(relcor.repair, "run_suite")
    monkeypatch.setattr(relcor.suites, "run_suite", no_report)
    monkeypatch.setattr(relcor.suites, "cached_execute", no_cached_run)
    suite = select_tests(SPEC, strategy="exhaustive")
    testing = classify_mutants(SEEDED, mutants, SPEC, suite, "testing", 100)
    assert [(m, label) for m, label, _ in exact] == [(m, label) for m, label, _ in testing]
    # each mode hands back the row its verdicts read for every kept mutant, and no other row
    every_state = Suite(tuple(SP.states()))
    for classified, row_of in (
        (exact, lambda p: outcome_row(p, every_state, UNBOUNDED, "exact")),
        (testing, lambda p: outcome_row(p, suite, 100, "wide")),
    ):
        kept = [(m, row) for m, label, row in classified if label in KEPT]
        assert kept and all(row == row_of(m.program) for m, row in kept)
        assert all(row is None for _, label, row in classified if label not in KEPT)


def test_verify_fault_on_a_literal_patch():
    base = parse("x = x + 1;", SP)
    site = next(site for site in sites(base) if site.kind == INTEGER_LITERAL)
    good = verify_fault(base, Patch(((site, 2),)), SPEC)
    assert good["is_fault_removal"]
    assert len(good["cd_after"]) > len(good["cd_before"])
    bad = verify_fault(base, Patch(((site, 3),)), SPEC)
    assert not bad["is_fault_removal"]


def test_tree_json_roundtrip():
    tree, _ = repair(SEEDED, SPEC, make_exact_cfg())
    doc = json.loads(json.dumps(tree_to_json(tree, SP)))
    assert space_from_json(doc["space"]) == SP
    assert {n["label"] for n in doc["nodes"]} == set(tree.nodes)
    assert doc["solutions"] == tree.solutions
    for n in doc["nodes"]:
        assert parse(n["source"], SP) == tree.nodes[n["label"]].program


def test_dot_export_mentions_every_node():
    tree, _ = repair(SEEDED, SPEC, make_exact_cfg())
    dot = tree_to_dot(tree)
    assert dot.startswith("digraph")
    for label in tree.nodes:
        assert f'"{label}"' in dot


def test_exact_repair_refuses_a_local_read_before_it_is_assigned():
    # t is read before it is assigned, so [p] takes both of its values: t = 1
    # gives x + 1, and t = 0 runs forever.  Exact mode refuses the program
    # rather than run it from one of them; testing mode runs t from 0.
    sp = StateSpace((("x", Interval(0, 5)),))
    spec = PredicateSpec(sp, "x <= 3", "x' == x + 2")
    base = parse("int t : 0..1; while (t == 0) { skip; } x = x + 1;", sp)
    with pytest.raises(RelcorError, match="'t' may be read before it is assigned"):
        repair(base, spec, RepairConfig(operators=("literal+-1",), mode="exact"))
    suite = select_tests(spec, strategy="exhaustive")
    tree, _ = repair(base, spec, RepairConfig(operators=("literal+-1",), suite=suite, fuel=10,
                                              max_depth=1))
    assert tree.dead_ends == ["base"] and tree.solutions == []
