"""Stepwise repair: climb the relative-correctness ordering by mutation.

Starting from a base program, generate single-site mutants, keep those that
are strictly more-correct than their base, and recurse on them breadth
first until an absolutely correct program appears or the search bounds are
hit.  Nodes whose mutant batch contains no strictly more-correct member
are dead ends; behaviorally identical candidates (equal semantic
fingerprints) are merged rather than revisited.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import RelcorError
from .lang.ast_nodes import Node, to_source
from .lang.parser import parse
from .lang.semantics import denote
from .mutate import generate, semantic_fingerprint
from .relations import (
    competence_domain,
    is_correct,
    relation_from_json,
    require_deterministic,
    space_from_json,
    space_to_json,
)
from .space import DEFAULT_CAP, StateSpace
from .specs import Spec
from .suites import TestSuite, classify, run_suite


@dataclass(frozen=True)
class RepairConfig:
    operators: tuple = ("AORB",)
    suite: TestSuite | None = None
    fuel: int = 10**4
    max_depth: int = 5
    max_frontier: int = 64
    mode: str = "testing"  # testing | exact
    cap: int = DEFAULT_CAP


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
                     mode: str = "testing", fuel: int = 10**4,
                     cap: int = DEFAULT_CAP) -> list:
    """Per-mutant classification against `base`.

    Returns [(mutant, classification, report-or-None), ...].  Testing mode
    scores a suite run; exact mode compares competence domains of the full
    denotations (ground truth on finite spaces), taken from the spec by
    membership: the base's once per batch and each mutant's once.
    """
    results = []
    if mode == "testing":
        if suite is None:
            raise RelcorError("testing mode requires a suite")
        for m in mutants:
            report = run_suite(m.program, base, spec, suite, fuel)
            results.append((m, classify(report), report))
        return results
    if mode != "exact":
        raise ValueError(f"unknown classification mode {mode!r}")
    space = spec.space
    p = denote(base, space, cap)
    require_deterministic(p, "classify_mutants's base")
    cd_p = competence_domain(spec, p, warn_nondeterministic=False).members
    dom = spec.domain().members
    for m in mutants:
        pm = denote(m.program, space, cap)
        require_deterministic(pm, "classify_mutants's mutant")
        cd_m = competence_domain(spec, pm, warn_nondeterministic=False).members
        if cd_m == dom:
            label = "absolutely_correct"
        elif cd_m > cd_p:
            label = "strictly_more_correct"
        elif cd_m >= cd_p:
            label = "as_correct"
        else:
            label = "not_more_correct"
        results.append((m, label, None))
    return results


def _is_solution(program: Node, spec: Spec, cfg: RepairConfig) -> bool:
    if cfg.mode == "exact":
        return is_correct(denote(program, spec.space, cfg.cap), spec)
    report = run_suite(program, program, spec, cfg.suite, cfg.fuel)
    return report.cumulabs


def _probe(spec: Spec, cfg: RepairConfig):
    if cfg.mode == "testing":
        return cfg.suite.inputs
    return tuple(spec.space.states(cfg.cap))


def repair(base: Node, spec: Spec, cfg: RepairConfig) -> tuple:
    """Breadth-first stepwise repair; returns (RepairTree, FaultMetrics)."""
    if cfg.max_depth < 1:
        raise RelcorError("max_depth must be >= 1")
    probe = _probe(spec, cfg)
    exec_mode = "wide" if cfg.mode == "testing" else "exact"
    fp = lambda prog: semantic_fingerprint(prog, probe, cfg.fuel, exec_mode)

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
                node.program, mutants, spec, cfg.suite, cfg.mode, cfg.fuel, cfg.cap
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


def verify_fault(base: Node, patch, spec: Spec, cap: int = DEFAULT_CAP) -> dict:
    """Exact-mode fault-removal check for a (possibly multi-site) patch."""
    from .mutate import apply_patch

    space = spec.space
    patched = apply_patch(base, patch)
    cd_before = competence_domain(spec, denote(base, space, cap), warn_nondeterministic=False)
    cd_after = competence_domain(spec, denote(patched, space, cap), warn_nondeterministic=False)
    return {
        "is_fault_removal": cd_after.members > cd_before.members,
        "cd_before": cd_before,
        "cd_after": cd_after,
        "patched": patched,
    }


# -- export / import ------------------------------------------------------------------

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


def tree_from_json(doc: dict) -> RepairTree:
    space = space_from_json(doc["space"])
    nodes = {}
    for nd in doc["nodes"]:
        nodes[nd["label"]] = RepairNode(
            label=nd["label"],
            program=parse(nd["source"], space),
            parent=nd["parent"],
            classification=nd["classification"],
            fingerprint=nd["fingerprint"],
            depth=nd["depth"],
            dead_end=nd["dead_end"],
            solution=nd["solution"],
            aliases=list(nd["aliases"]),
        )
    return RepairTree(
        root=doc["root"],
        nodes=nodes,
        edges=[tuple(e) for e in doc["edges"]],
        dead_ends=list(doc["dead_ends"]),
        solutions=list(doc["solutions"]),
    )


def export_tree(tree: RepairTree, fmt: str, space: StateSpace | None = None) -> str:
    if fmt.upper() == "DOT":
        return tree_to_dot(tree)
    if fmt.upper() == "JSON":
        if space is None:
            raise RelcorError("JSON export needs the state space")
        return json.dumps(tree_to_json(tree, space), sort_keys=True, indent=1)
    raise ValueError(f"unknown export format {fmt!r}")
