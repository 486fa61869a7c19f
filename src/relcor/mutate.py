"""Deterministic single-site mutant generation over program ASTs.

Sites are addressed by preorder index, so regenerating mutants from the
same program always yields the same ordinals.  Operator families:

* ``AORB``       — each binary arithmetic operator replaced by each of the
                   other four, in the fixed order +, -, *, /, %.
* ``literal+-1`` — each integer literal k replaced by k+1 and k-1.
* ``index+-1``   — each array-index expression e replaced by e+1 and e-1.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace as dc_replace

from .errors import PatchError
from .lang.ast_nodes import (
    ARITH_OPS,
    ArrayRead,
    ArrayTarget,
    BinOp,
    IntLit,
    Node,
    preorder,
    replace_nodes,
    to_source,
)
from .lang.interp import FinalState
from .suites import cached_execute

BINARY_ARITH = "binary-arith-op"
INTEGER_LITERAL = "integer-literal"
ARRAY_INDEX = "array-index"

OPERATOR_FAMILIES = ("AORB", "literal+-1", "index+-1")

_FAMILY_KIND = {"AORB": BINARY_ARITH, "literal+-1": INTEGER_LITERAL, "index+-1": ARRAY_INDEX}


@dataclass(frozen=True)
class MutationSite:
    path: int  # preorder index in the base program
    kind: str


@dataclass(frozen=True)
class Mutant:
    ordinal: int
    site: MutationSite
    operator: str
    replacement: str
    program: Node


@dataclass(frozen=True)
class Patch:
    """A possibly multi-site substitution; sites must be disjoint."""

    substitutions: tuple  # of (MutationSite, replacement Node | op str | int)


def _node_kind(node: Node) -> str | None:
    if isinstance(node, BinOp):
        return BINARY_ARITH
    if isinstance(node, IntLit):
        return INTEGER_LITERAL
    if isinstance(node, (ArrayRead, ArrayTarget)):
        return ARRAY_INDEX
    return None


def sites(p: Node) -> list:
    """Mutation sites, in deterministic preorder."""
    kinds = ((i, _node_kind(node)) for i, node in enumerate(preorder(p)))
    return [MutationSite(i, k) for i, k in kinds if k is not None]


def _mutations_at(node: Node, family: str):
    """Yield (operator tag, replacement description, replacement value for
    `_fragment_for`)."""
    if family == "AORB":
        for op in ARITH_OPS:
            if op != node.op:
                yield f"AORB:{node.op}->{op}", op, op
    elif family == "literal+-1":
        for value in (node.value + 1, node.value - 1):
            yield f"literal{value - node.value:+d}", str(value), value
    else:
        for delta, op in ((1, "+"), (-1, "-")):
            yield f"index{op}1", f"[{op}1]", delta


def generate(p: Node, operators=("AORB",)) -> list:
    """All single-site mutants of `p` under the given operator families,
    with deterministic consecutive ordinals."""
    for fam in operators:
        if fam not in OPERATOR_FAMILIES:
            raise ValueError(f"unknown operator family {fam!r}")
    mutants = []
    nodes = preorder(p)
    for site in sites(p):
        node = nodes[site.path]
        for fam in operators:
            if _FAMILY_KIND[fam] != site.kind:
                continue
            for tag, desc, value in _mutations_at(node, fam):
                program = replace_nodes(p, {site.path: _fragment_for(node, site, value)})
                mutants.append(Mutant(ordinal=len(mutants) + 1, site=site, operator=tag,
                                      replacement=desc, program=program))
    return mutants


def _fragment_for(node: Node, site: MutationSite, replacement) -> Node:
    if _node_kind(node) != site.kind:
        raise PatchError(
            f"site {site.path} is {type(node).__name__}, not of kind {site.kind}"
        )
    if site.kind == BINARY_ARITH:
        if isinstance(replacement, str) and replacement in ARITH_OPS:
            return dc_replace(node, op=replacement)
    elif site.kind == INTEGER_LITERAL:
        if isinstance(replacement, int):
            return IntLit(replacement)
    elif site.kind == ARRAY_INDEX:
        if isinstance(replacement, int) and replacement != 0:
            op = "+" if replacement > 0 else "-"
            return dc_replace(node, index=BinOp(op, node.index, IntLit(abs(replacement))))
    if isinstance(replacement, Node):
        return replacement
    raise PatchError(f"cannot apply replacement {replacement!r} at a {site.kind} site")


def apply_patch(p: Node, patch: Patch) -> Node:
    """Simultaneous substitution at all patch sites."""
    nodes = preorder(p)
    subs = {}
    seen = set()
    for site, replacement in patch.substitutions:
        if site.path in seen:
            raise PatchError(f"duplicate patch site {site.path}")
        seen.add(site.path)
        if not 0 <= site.path < len(nodes):
            raise PatchError(f"site {site.path} out of range")
        subs[site.path] = _fragment_for(nodes[site.path], site, replacement)
    return replace_nodes(p, subs)


def outcome_digest(outcomes) -> str:
    """SHA-256 over raw outcomes (as in `suites.outcome_row`): for each, the
    repr of its final values, or the outcome's type name where the run does
    not end in a state, then ``|``.

    Equal outcomes share one repr, made once per distinct outcome: a row of
    exact mode spans a whole space but holds few distinct outcomes (16 of
    560 on the narrowed arraysum space).  That gives the same text only
    because outcomes hold ints and tuples of ints, never a `bool` or a
    `float`, which equal an int of another repr (``1 == True == 1.0``);
    `Undefined` outcomes of different sites are distinct keys of one text."""
    outcomes = tuple(outcomes)
    texts = {out: (repr(out) if type(out) is tuple else type(out).__name__) + "|"
             for out in set(outcomes)}
    return hashlib.sha256("".join(map(texts.__getitem__, outcomes)).encode()).hexdigest()


def semantic_fingerprint(p: Node, probe, fuel: int) -> str:
    """Digest of the program's wide-mode behavior on the probe inputs
    (`outcome_digest`), run through `suites.cached_execute`.

    Equal digests flag behavioral-identity candidates (e.g. mutants that
    regenerate each other).  `repair` digests instead the rows that its
    batches make for their verdicts (`suites.suite_labels`), equal to those
    of `suites.outcome_row`: the same bytes for testing mode, and in exact
    mode the digest of [p] over the whole space.
    """
    return outcome_digest(out.state.values if isinstance(out, FinalState) else out
                          for out in (cached_execute(p, s, fuel, "wide") for s in probe))


def mutant_manifest(p: Node, mutants: list) -> dict:
    """JSON-ready manifest of a mutant batch."""
    return {
        "base": to_source(p),
        "mutants": [
            {
                "ordinal": m.ordinal,
                "site": {"path": m.site.path, "kind": m.site.kind},
                "operator": m.operator,
                "replacement": m.replacement,
                "source": to_source(m.program),
            }
            for m in mutants
        ],
    }
