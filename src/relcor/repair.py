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
from .lang.semantics import UNBOUNDED, denote
from .mutate import OPERATOR_FAMILIES, apply_patch, generate, outcome_digest
from .relations import competence_domain, space_to_json
from .space import StateSpace
from .specs import Spec
from .suites import TestSuite, suite_labels


@dataclass(frozen=True)
class RepairConfig:
    operators: tuple = ("AORB",)
    suite: TestSuite | None = None
    fuel: int = 10**4
    max_depth: int = 5
    max_frontier: int = 64
    mode: str = "testing"  # testing | exact

    def __post_init__(self):
        if type(self.fuel) is not int or self.fuel < 0:  # a bool is no count either
            raise RelcorError(f"fuel must be >= 0 and an int, a count of loop iterations,"
                              f" got {self.fuel!r}")
        if unknown := [f for f in self.operators if f not in OPERATOR_FAMILIES]:
            raise RelcorError(f"unknown operator family {unknown[0]!r}")
        if self.mode not in ("testing", "exact"):
            raise RelcorError(f"unknown repair mode {self.mode!r}")
        if self.max_depth < 1:
            raise RelcorError("max_depth must be >= 1")


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


def _verdict_rows(spec: Spec, suite: TestSuite | None, mode: str, fuel: int) -> tuple:
    """The (suite, fuel, run mode) whose rows give every verdict on a base
    and its mutants: the suite in wide mode for testing, and every state of
    the space at `UNBOUNDED` fuel in exact mode for exact, where every run
    ends by itself (see `semantics`)."""
    if mode == "testing":
        if suite is None:
            raise RelcorError("testing mode requires a suite")
        return suite, fuel, "wide"
    if mode == "exact":
        return TestSuite(tuple(spec.space.states())), UNBOUNDED, "exact"
    raise RelcorError(f"unknown classification mode {mode!r}")


#: the labels of the mutants that repair keeps
KEPT = ("strictly_more_correct", "absolutely_correct")


def classify_mutants(base: Node, mutants, spec: Spec, suite: TestSuite | None,
                     mode: str = "testing", fuel: int = 10**4) -> list:
    """Per-mutant classification against `base`.

    Returns [(mutant, classification, row), ...], where row is the
    mutant's row when it is kept (`KEPT`) and None otherwise.  Both modes
    label the batch with `suites.suite_labels`, which reads the base's row
    once and each mutant's row once, and drop the base's own label.  Testing
    mode runs the suite at `fuel`.  Exact mode runs every state of the space
    to its end, at `UNBOUNDED` fuel, so that a row is [p] and the labels
    compare competence domains: the ground truth on finite spaces.
    `suite_labels` compiles the batch once, as a mutant schema, and fills
    the rows of the mutants it covers by split-stream execution in both
    modes.
    """
    suite, fuel, run_mode = _verdict_rows(spec, suite, mode, fuel)
    labelled = suite_labels(base, [m.program for m in mutants], spec, suite, fuel, run_mode)
    next(labelled)  # the base's own
    return [(m, label, row if label in KEPT else None)
            for m, (label, row) in zip(mutants, labelled)]


def repair(base: Node, spec: Spec, cfg: RepairConfig) -> tuple:
    """Breadth-first stepwise repair; returns (RepairTree, FaultMetrics).
    The root's fingerprint and solution check come from the base's own pair
    in its first batch (`suites.suite_labels`)."""
    suite, fuel, run_mode = _verdict_rows(spec, cfg.suite, cfg.mode, cfg.fuel)
    root = RepairNode(label="base", program=base, parent=None, classification=None,
                      fingerprint="", depth=0)
    tree = RepairTree(root="base", nodes={"base": root}, edges=[])
    seen_fp = {}
    frontier = [root]
    solved = False
    while frontier and not solved and frontier[0].depth < cfg.max_depth:
        next_frontier = []
        for node in frontier:
            mutants = generate(node.program, cfg.operators)
            labelled = suite_labels(node.program, [m.program for m in mutants],
                                    spec, suite, fuel, run_mode)
            label, row = next(labelled)
            if node is root:
                root.fingerprint = outcome_digest(row)
                seen_fp[root.fingerprint] = "base"
                if label == "absolutely_correct":
                    root.solution = True
                    tree.solutions.append("base")
                    return tree, FaultMetrics(fault_density_lb=0, fault_depth_ub=0)
            grew = False
            for m, (label, row) in zip(mutants, labelled):
                if label not in KEPT:
                    continue
                grew = True
                child_label = f"{node.label}.{m.ordinal}"
                digest = outcome_digest(row)
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
