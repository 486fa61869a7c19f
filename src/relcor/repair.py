"""Stepwise repair: climb the relative-correctness ordering by mutation.

Starting from a base program, generate single-site mutants, keep those that
are strictly more-correct than their base, and recurse on them breadth
first until an absolutely correct program appears or the search bounds are
hit.  Nodes whose mutant batch contains no strictly more-correct member
are dead ends; behaviorally identical candidates (equal semantic
fingerprints) are merged rather than revisited.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import RelcorError
from .lang.ast_nodes import Node, to_source
from .lang.interp import compile_schema
from .lang.semantics import denote
from .mutate import apply_patch, generate, outcome_digest, semantic_fingerprint
from .relations import competence_domain, is_correct, require_deterministic, space_to_json
from .space import StateSpace
from .specs import Spec
from .suites import TestSuite, label_of, outcome_row, suite_labels


@dataclass(frozen=True)
class RepairConfig:
    operators: tuple = ("AORB",)
    suite: TestSuite | None = None
    fuel: int = 10**4
    max_depth: int = 5
    max_frontier: int = 64
    mode: str = "testing"  # testing | exact


@dataclass
class RepairNode:
    label: str  # "base", "base.12", "base.12.28", ...
    program: Node
    parent: str | None
    classification: str | None  # relative to the parent; None for the root
    fingerprint: str
    depth: int
    dead_end: bool = False
    solution: bool = False
    aliases: list = field(default_factory=list)  # merged equal-fingerprint labels


@dataclass
class RepairTree:
    root: str
    nodes: dict  # label -> RepairNode
    edges: list  # (parent label, child label, mutant ordinal)
    dead_ends: list = field(default_factory=list)
    solutions: list = field(default_factory=list)


@dataclass(frozen=True)
class FaultMetrics:
    fault_density_lb: int
    fault_depth_ub: int | None  # None when no solution was found


def classify_mutants(base: Node, mutants, spec: Spec, suite: TestSuite | None,
                     mode: str = "testing", fuel: int = 10**4) -> list:
    """Per-mutant classification against `base`.

    Returns [(mutant, classification, None), ...].  Testing mode labels
    the batch on the suite with `suites.suite_labels`, which runs the base
    once and each mutant once per in-domain input; exact mode compares
    competence domains of the full denotations (ground truth on finite
    spaces), taken from the spec by membership: the base's once per batch
    and each mutant's once.  Both compile the batch once, as a mutant schema
    (`interp.compile_schema`).
    """
    if mode not in ("testing", "exact"):
        raise ValueError(f"unknown classification mode {mode!r}")
    if mode == "testing" and suite is None:
        raise RelcorError("testing mode requires a suite")
    programs = [m.program for m in mutants]
    compile_schema(base, programs, spec.space, "wide" if mode == "testing" else "exact")
    if mode == "testing":
        labels = suite_labels(base, programs, spec, suite, fuel)
        return [(m, label, None) for m, label in zip(mutants, labels)]
    results = []
    space = spec.space
    p = denote(base, space)
    require_deterministic(p, "classify_mutants's base")
    cd_p = competence_domain(spec, p, warn_nondeterministic=False).members
    dom = spec.domain().members
    for m in mutants:
        pm = denote(m.program, space)
        require_deterministic(pm, "classify_mutants's mutant")
        cd_m = competence_domain(spec, pm, warn_nondeterministic=False).members
        strictly = cd_m > cd_p  # so that the subset test `>=` runs only when needed
        results.append((m, label_of(cd_m == dom, strictly or cd_m >= cd_p, strictly), None))
    return results


def _is_solution(program: Node, spec: Spec, cfg: RepairConfig) -> bool:
    """Exact mode: `program` is correct.  Testing mode: its row passes the
    oracle at every in-domain suite input."""
    if cfg.mode == "exact":
        return is_correct(denote(program, spec.space), spec)
    row = outcome_row(program, cfg.suite, cfg.fuel, "wide")
    return all(spec.oracle_at(s)(out)
               for s, out in zip(cfg.suite.inputs, row) if spec.in_dom(s))


def _fingerprinter(spec: Spec, cfg: RepairConfig):
    """The program fingerprint of a repair: in testing mode the digest of
    the program's row on the suite, which labelling the program has already
    made; in exact mode `semantic_fingerprint` over the whole space."""
    if cfg.mode == "testing":
        return lambda prog: outcome_digest(outcome_row(prog, cfg.suite, cfg.fuel, "wide"))
    probe = tuple(spec.space.states())
    return lambda prog: semantic_fingerprint(prog, probe, cfg.fuel, "exact")


def repair(base: Node, spec: Spec, cfg: RepairConfig) -> tuple:
    """Breadth-first stepwise repair; returns (RepairTree, FaultMetrics)."""
    if cfg.max_depth < 1:
        raise RelcorError("max_depth must be >= 1")
    fp = _fingerprinter(spec, cfg)

    root = RepairNode(
        label="base",
        program=base,
        parent=None,
        classification=None,
        fingerprint=fp(base),
        depth=0,
        solution=_is_solution(base, spec, cfg),
    )
    tree = RepairTree(root="base", nodes={"base": root}, edges=[])
    if root.solution:
        tree.solutions.append("base")
        return tree, FaultMetrics(fault_density_lb=0, fault_depth_ub=0)

    seen_fp = {root.fingerprint: root.label}
    frontier = [root]
    solved = False
    while frontier and not solved and frontier[0].depth < cfg.max_depth:
        next_frontier = []
        for node in frontier:
            mutants = generate(node.program, cfg.operators)
            classified = classify_mutants(
                node.program, mutants, spec, cfg.suite, cfg.mode, cfg.fuel
            )
            grew = False
            for m, label, _ in classified:
                if label not in ("strictly_more_correct", "absolutely_correct"):
                    continue
                grew = True
                child_label = f"{node.label}.{m.ordinal}"
                digest = fp(m.program)
                if digest in seen_fp:
                    tree.nodes[seen_fp[digest]].aliases.append(child_label)
                    continue
                child = RepairNode(
                    label=child_label,
                    program=m.program,
                    parent=node.label,
                    classification=label,
                    fingerprint=digest,
                    depth=node.depth + 1,
                    solution=(label == "absolutely_correct"),
                )
                seen_fp[digest] = child_label
                tree.nodes[child_label] = child
                tree.edges.append((node.label, child_label, m.ordinal))
                if child.solution:
                    tree.solutions.append(child_label)
                    solved = True
                else:
                    next_frontier.append(child)
            if not grew:
                node.dead_end = True
                tree.dead_ends.append(node.label)
        frontier = next_frontier[: cfg.max_frontier]

    density = sum(1 for (p, c, _) in tree.edges if p == "base")
    depth_ub = min(
        (tree.nodes[lbl].depth for lbl in tree.solutions), default=None
    )
    return tree, FaultMetrics(fault_density_lb=density, fault_depth_ub=depth_ub)


def verify_fault(base: Node, patch, spec: Spec) -> dict:
    """Exact-mode fault-removal check for a (possibly multi-site) patch."""
    space = spec.space
    patched = apply_patch(base, patch)
    cd_before = competence_domain(spec, denote(base, space), warn_nondeterministic=False)
    cd_after = competence_domain(spec, denote(patched, space), warn_nondeterministic=False)
    return {
        "is_fault_removal": cd_after.members > cd_before.members,
        "cd_before": cd_before,
        "cd_after": cd_after,
        "patched": patched,
    }


# -- export ------------------------------------------------------------------

_DOT_COLORS = {
    None: "lightblue",
    "strictly_more_correct": "palegreen",
    "absolutely_correct": "gold",
}


def tree_to_dot(tree: RepairTree) -> str:
    lines = ["digraph repair {", "  rankdir=BT;"]
    for label in sorted(tree.nodes):
        node = tree.nodes[label]
        color = _DOT_COLORS.get(node.classification, "white")
        shape = "doublecircle" if node.solution else ("box" if node.dead_end else "ellipse")
        extra = " (dead end)" if node.dead_end else (" (correct)" if node.solution else "")
        lines.append(
            f'  "{label}" [label="{label}{extra}", style=filled,'
            f' fillcolor={color}, shape={shape}];'
        )
    for parent, child, ordinal in tree.edges:
        lines.append(f'  "{parent}" -> "{child}" [label="{ordinal}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def tree_to_json(tree: RepairTree, space: StateSpace) -> dict:
    return {
        "space": space_to_json(space),
        "root": tree.root,
        "nodes": [
            {
                "label": n.label,
                "parent": n.parent,
                "classification": n.classification,
                "fingerprint": n.fingerprint,
                "depth": n.depth,
                "dead_end": n.dead_end,
                "solution": n.solution,
                "aliases": n.aliases,
                "source": to_source(n.program),
            }
            for _, n in sorted(tree.nodes.items())
        ],
        "edges": [list(e) for e in tree.edges],
        "dead_ends": tree.dead_ends,
        "solutions": tree.solutions,
    }
