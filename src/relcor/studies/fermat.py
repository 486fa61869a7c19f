"""Fermat decomposition study: stepwise repair of a triply-seeded base
program, execution mode, suite n in [1,100] intersected with the spec
domain, fuel 10^4.
"""

from __future__ import annotations

from ..lang.parser import parse
from ..mutate import generate
from ..repair import RepairConfig, classify_mutants, repair, tree_to_dot, tree_to_json
from ..specs import spec_from_json
from ..suites import TestSuite, outcome_row, run_suite
from . import load_fixture_json, load_fixture_text

__all__ = ["build", "run", "check"]  # the interface of a study (see `studies`)

FUEL = 10**4
N_RANGE = (1, 100)


def build() -> dict:
    spec = spec_from_json(load_fixture_json("fermat_spec.json"))
    space = spec.space
    base = parse(load_fixture_text("fermat_base.imp"), space)
    correct = parse(load_fixture_text("fermat_correct.imp"), space)
    lo, hi = N_RANGE
    inputs = tuple(
        s
        for n in range(lo, hi + 1)
        for s in [space.state({"n": n, "x": 0, "y": 0})]
        if spec.in_dom(s)
    )
    return {"spec": spec, "base": base, "correct": correct, "suite": TestSuite(inputs)}


def run() -> dict:
    built = build()
    spec, base, correct, suite = (
        built["spec"],
        built["base"],
        built["correct"],
        built["suite"],
    )
    mutants = generate(base, ("AORB",))
    level1 = [(m, label, run_suite(m.program, base, spec, suite, FUEL))
              for m, label, _ in classify_mutants(base, mutants, spec, suite, "testing", FUEL)]
    counts = {"absolutely_correct": 0, "strictly_more_correct": 0,
              "as_correct": 0, "not_more_correct": 0}
    for _, label, _ in level1:
        counts[label] += 1

    cfg = RepairConfig(operators=("AORB",), suite=suite, fuel=FUEL,
                       max_depth=5, max_frontier=64, mode="testing")
    tree, metrics = repair(base, spec, cfg)

    depth1_dead_ends = [
        lbl for lbl in tree.dead_ends if tree.nodes[lbl].depth == 1
    ]
    agrees = None
    if tree.solutions:
        solution = tree.nodes[min(tree.solutions, key=lambda l: tree.nodes[l].depth)]
        agrees = (outcome_row(solution.program, suite, FUEL, "wide")
                  == outcome_row(correct, suite, FUEL, "wide"))
    return {
        "suite_size": len(suite),
        "mutant_count": len(mutants),
        "level1": [
            {"ordinal": m.ordinal, "operator": m.operator,
             "site": m.site.path, "classification": label,
             "n0": rep.n0, "n1": rep.n1, "n2": rep.n2, "n3": rep.n3}
            for m, label, rep in level1
        ],
        "level1_counts": counts,
        "fault_density_lb": metrics.fault_density_lb,
        "fault_depth_ub": metrics.fault_depth_ub,
        "solutions": tree.solutions,
        "dead_ends": tree.dead_ends,
        "depth1_dead_ends": depth1_dead_ends,
        "solution_agrees_with_correct_program": agrees,
        "tree": tree_to_json(tree, spec.space),
        "dot": tree_to_dot(tree),
    }


def check(report: dict) -> list:
    expected = load_fixture_json("fermat_expected.json")
    failures = []

    def expect(cond, msg):
        if not cond:
            failures.append(msg)

    c = report["level1_counts"]
    expect(report["mutant_count"] == expected["mutant_count"],
           f"mutant count {report['mutant_count']} != {expected['mutant_count']}")
    expect(c["absolutely_correct"] == expected["level1_absolutely_correct"],
           f"{c['absolutely_correct']} level-1 mutants absolutely correct")
    expect(c["strictly_more_correct"] >= expected["level1_strictly_more_correct_min"],
           f"only {c['strictly_more_correct']} level-1 mutants strictly more-correct")
    expect(report["fault_density_lb"] >= expected["fault_density_lb_min"],
           f"fault density lower bound {report['fault_density_lb']} < "
           f"{expected['fault_density_lb_min']}")
    expect(report["fault_depth_ub"] == expected["fault_depth_ub"],
           f"fault depth {report['fault_depth_ub']} != {expected['fault_depth_ub']}")
    expect(len(report["depth1_dead_ends"]) >= expected["depth1_dead_end_min"],
           "no depth-1 dead end in the repair tree")
    expect(report["solution_agrees_with_correct_program"]
           == expected["solution_agrees_with_correct_program"],
           "solution disagrees with the shipped correct program on the suite")
    return failures
