"""The benchmark's workloads.

Each workload has three parts:

* ``setup(seed)`` loads fixtures, parses programs and builds the spec and
  suite; it is timed into ``setup_s``.
* ``run(ctx)`` is the relcor work a user waits for; it is timed into
  ``wall_s`` and returns the result plus the number of mutants classified.
* ``check(ctx, out)`` verifies the result without trusting the measured
  code (frozen digests, expected facts, the tree-walking evaluator in
  `refimpl`).  It returns ({check name: passed}, the exact counts that must
  repeat between runs, the number of mutants classified).

Only ``mutate_large`` uses the seed; the other two run frozen fixtures.
"""

from __future__ import annotations

import hashlib
import json
import random

from relcor.lang.ast_nodes import BinOp, preorder
from relcor.lang.interp import FinalState, NonTermination, execute
from relcor.lang.parser import parse
from relcor.lang.semantics import denote
from relcor.mutate import BINARY_ARITH, MutationSite, Patch, apply_patch, generate
from relcor.relations import Relation, competence_domain
from relcor.repair import RepairConfig, classify_mutants, repair, tree_to_json
from relcor.space import ArrayDomain, Interval, StateSpace
from relcor.specs import EnumeratedSpec, spec_from_json
from relcor.studies import fermat, load_fixture_json, load_fixture_text
from relcor.suites import select_tests

import refimpl

FUEL = 10**4


def _tree_counts(tree) -> dict:
    return {
        "repair.nodes": len(tree.nodes),
        "repair.aliases": sum(len(n.aliases) for n in tree.nodes.values()),
        "repair.dead_ends": len(tree.dead_ends),
    }


def _tree_digest(tree, space) -> str:
    """SHA-256 of the repair tree, restricted to the fields the seed had, so
    that fields added to the export later do not change it."""
    doc = tree_to_json(tree, space)
    keep = ("label", "parent", "classification", "fingerprint", "depth",
            "dead_end", "solution", "aliases", "source")
    frozen = {
        "root": doc["root"],
        "nodes": [{k: n[k] for k in keep} for n in doc["nodes"]],
        "edges": doc["edges"],
        "dead_ends": doc["dead_ends"],
        "solutions": doc["solutions"],
    }
    return hashlib.sha256(json.dumps(frozen, sort_keys=True, indent=1).encode()).hexdigest()


def _only_root_expanded(tree) -> bool:
    return all(n.depth <= 1 for n in tree.nodes.values())


# -- fermat -------------------------------------------------------------------------
#
# The bundled Fermat study's repair, stopped after the first level: testing
# mode, wide integers, fuel 10^4, the 75-input suite, AORB mutants.  The
# full five-level study takes about a minute, too long to repeat inside one
# benchmark run.

# Digest of the depth-1 tree produced by the seed code (relcor 0.1.0).
FERMAT_DEPTH1_TREE_SHA256 = "e32b2396d4ac4f66955d52f14e14de8dbe88687851db5886e571941be373555e"


def setup_fermat(seed):
    return fermat.build()


def run_fermat(ctx):
    cfg = RepairConfig(operators=("AORB",), suite=ctx["suite"], fuel=FUEL,
                       max_depth=1, max_frontier=64, mode="testing")
    tree, metrics = repair(ctx["base"], ctx["spec"], cfg)
    return {"tree": tree, "metrics": metrics}


def check_fermat(ctx, out):
    expected = load_fixture_json("fermat_expected.json")
    tree = out["tree"]
    mutants = len(generate(ctx["base"], ("AORB",)))
    depth1 = [n for n in tree.nodes.values() if n.depth == 1]
    improving = len(depth1) + sum(len(n.aliases) for n in tree.nodes.values())
    checks = {
        "tree_matches_seed_digest":
            _tree_digest(tree, ctx["spec"].space) == FERMAT_DEPTH1_TREE_SHA256,
        "mutant_count": mutants == expected["mutant_count"],
        "level1_absolutely_correct":
            len(tree.solutions) == expected["level1_absolutely_correct"],
        "level1_strictly_more_correct":
            improving >= expected["level1_strictly_more_correct_min"],
        "only_root_expanded": _only_root_expanded(tree),
    }
    return checks, _tree_counts(tree), mutants


# -- arraysum_exact -----------------------------------------------------------------
#
# Exact-mode repair of the bundled arraysum program against the bundled
# spec (literal+-1 and index+-1, max_depth 2), with the array elements
# narrowed from 0..2 to 0..1.  That shrinks the space from 2,835 to 560
# states and the enumerated spec from 1,148,175 to 44,800 pairs, so that one
# repair takes seconds instead of most of a minute.

ARRAYSUM_ELEM_MAX = 1


def setup_arraysum_exact(seed):
    doc = load_fixture_json("arraysum_spec.json")
    for var in doc["space"]["vars"]:
        if var["name"] == "a":
            var["max"] = ARRAYSUM_ELEM_MAX
    spec = spec_from_json(doc)
    return {"spec": spec, "program": parse(load_fixture_text("arraysum.imp"), spec.space),
            "operators": ("literal+-1", "index+-1")}


def run_arraysum_exact(ctx):
    cfg = RepairConfig(operators=ctx["operators"], max_depth=2, mode="exact")
    tree, metrics = repair(ctx["program"], ctx["spec"], cfg)
    return {"tree": tree, "metrics": metrics}


def _exact_domains(space) -> dict:
    return {name: (d.length, d.elem.lo, d.elem.hi) if isinstance(d, ArrayDomain) else (d.lo, d.hi)
            for name, d in space.vars}


def check_arraysum_exact(ctx, out):
    tree, metrics = out["tree"], out["metrics"]
    space = ctx["spec"].space
    names, domains = space.names, _exact_domains(space)
    states = [s.values for s in space.states()]

    def sums_right(program, values) -> bool:
        res = refimpl.evaluate(program, names, values, FUEL, domains)
        if res[0] != "final":
            return False
        got = dict(zip(names, res[1]))
        a = got["a"]
        return got["x"] == a[1] + a[2] + a[3]

    solution = tree.nodes.get("base.7")
    base_cd = {v for v in states if sums_right(ctx["program"], v)}
    relcor_cd = competence_domain(ctx["spec"].enumerate(), denote(ctx["program"], space),
                                  warn_nondeterministic=False)
    checks = {
        "solutions": tree.solutions == ["base.7"],
        "fault_density": metrics.fault_density_lb == 1,
        "fault_depth": metrics.fault_depth_ub == 1,
        "solution_sums_a1_to_a3_everywhere":
            solution is not None and all(sums_right(solution.program, v) for v in states),
        "base_competence_domain_matches_relcor":
            base_cd == {s.values for s in relcor_cd.members} and 0 < len(base_cd) < len(states),
        "only_root_expanded": _only_root_expanded(tree),
    }
    return checks, _tree_counts(tree), len(generate(ctx["program"], ctx["operators"]))


# -- mutate_large -------------------------------------------------------------------
#
# A seeded straight-line reference program over four variables in 0..7, with
# three seeded AORB faults.  The spec is the reference's input/output graph;
# every AORB and literal+-1 mutant of the faulty base is classified in
# testing mode on a seeded 40-input suite.

MUTATE_STATEMENTS = 24
MUTATE_SUITE = 40
MUTATE_FAULTS = 3
MUTATE_SAMPLE = 24


def _as_refimpl(outcome):
    if isinstance(outcome, FinalState):
        return ("final", outcome.state.values)
    if isinstance(outcome, NonTermination):
        return refimpl.NONTERMINATION
    return refimpl.UNDEFINED


def setup_mutate_large(seed):
    rng = random.Random(seed)
    source, sites = refimpl.generate_program(rng, MUTATE_STATEMENTS)
    lo, hi = refimpl.VALUE_RANGE
    space = StateSpace(tuple((v, Interval(lo, hi)) for v in refimpl.VARS))
    reference = parse(source, space)
    pairs = set()
    for s in space.states():
        res = execute(reference, s, FUEL, "exact")
        if not isinstance(res, FinalState):
            raise RuntimeError(f"reference program is not total: {res!r} at {s!r}")
        pairs.add((s, res.state))
    spec = EnumeratedSpec(Relation(space, pairs))
    nodes = preorder(reference)
    binops = [i for i, n in enumerate(nodes) if isinstance(n, BinOp)]
    faults = []
    for i in sorted(rng.sample(binops, MUTATE_FAULTS)):
        op = rng.choice([o for o in "+-*/%" if o != nodes[i].op])
        faults.append((MutationSite(i, BINARY_ARITH), op))
    base = apply_patch(reference, Patch(tuple(faults)))
    suite = select_tests(spec, strategy="random", seed=seed, count=MUTATE_SUITE)
    return {"seed": seed, "space": space, "reference": reference, "base": base,
            "spec": spec, "suite": suite, "sites": sites}


def run_mutate_large(ctx):
    mutants = generate(ctx["base"], ("AORB", "literal+-1"))
    classified = classify_mutants(ctx["base"], mutants, ctx["spec"], ctx["suite"],
                                  "testing", FUEL)
    return {"classified": classified, "mutants": len(mutants)}


def check_mutate_large(ctx, out):
    names = ctx["space"].names
    ev = lambda program, values: refimpl.evaluate(program, names, values, FUEL)
    graph = {s.values: t.values for s, t in ctx["spec"].rel.pairs}
    reference_graph = {s.values: ev(ctx["reference"], s.values)[1]
                       for s in ctx["space"].states()}
    inputs = [s.values for s in ctx["suite"].inputs]
    expected = [reference_graph[v] for v in inputs]
    base_outs = [ev(ctx["base"], v) for v in inputs]
    relcor_base = [_as_refimpl(execute(ctx["base"], s, FUEL, "wide")) for s in ctx["suite"].inputs]
    classified = out["classified"]
    sample = random.Random(ctx["seed"]).sample(classified, min(MUTATE_SAMPLE, len(classified)))
    verdicts_agree = all(
        refimpl.classify(base_outs, [ev(m.program, v) for v in inputs], expected) == label
        for m, label, _ in sample
    )
    sites = ctx["sites"]
    checks = {
        "mutant_count": out["mutants"] == 4 * sites["binops"] + 2 * sites["literals"],
        "spec_is_reference_graph": graph == reference_graph,
        "base_outputs": base_outs == relcor_base,
        "sampled_verdicts": verdicts_agree,
    }
    labels = {}
    for _, label, _ in classified:
        labels[f"label.{label}"] = labels.get(f"label.{label}", 0) + 1
    return checks, labels, out["mutants"]


WORKLOADS = {
    "fermat": (setup_fermat, run_fermat, check_fermat),
    "arraysum_exact": (setup_arraysum_exact, run_arraysum_exact, check_arraysum_exact),
    "mutate_large": (setup_mutate_large, run_mutate_large, check_mutate_large),
}
