"""Array-sum study: a loop that sums a[0..N-1] against a spec asking for
the sum of a[1..N], analyzed exactly on a small finite space (N=3).

Two multi-site patches repair it:

    s1: initialize i to 1 and run the loop to i < N+1
    s2: read a[i+1] instead of a[i]

Each one alone yields an absolutely correct program; applying both at
once reintroduces two faults (the loop then reads a[2..N+1]).  Either half
of s1 alone is not a fault removal.
"""

from __future__ import annotations

from ..lang.ast_nodes import ArrayRead, Assign, Cmp, IntLit, VarTarget, While, preorder
from ..lang.parser import parse
from ..lang.semantics import denote
from ..mutate import ARRAY_INDEX, INTEGER_LITERAL, MutationSite, Patch, apply_patch
from ..relations import competence_domain, is_correct, more_correct
from ..repair import verify_fault
from ..specs import spec_from_json
from . import load_fixture_json, load_fixture_text


def build() -> dict:
    spec = spec_from_json(load_fixture_json("arraysum_spec.json"))
    program = parse(load_fixture_text("arraysum.imp"), spec.space)
    return {"spec": spec, "program": program, "patches": patches(program)}


def patches(program) -> dict:
    """Locate the patch sites in the fixture program by shape."""
    nodes = preorder(program)
    init_lit = bound_lit = read_site = None
    for i, node in enumerate(nodes):
        if (
            isinstance(node, Assign)
            and isinstance(node.target, VarTarget)
            and node.target.name == "i"
            and isinstance(node.expr, IntLit)
            and node.expr.value == 0
        ):
            init_lit = i + 2  # Assign -> target -> expr
        if isinstance(node, While) and isinstance(node.cond, Cmp):
            if isinstance(node.cond.right, IntLit):
                bound_lit = i + 3  # While -> Cmp -> left -> right
        if isinstance(node, ArrayRead):
            read_site = i
    if None in (init_lit, bound_lit, read_site):
        raise ValueError("fixture program does not have the expected shape")
    init = (MutationSite(init_lit, INTEGER_LITERAL), 1)
    bound = (MutationSite(bound_lit, INTEGER_LITERAL), 4)
    s1 = Patch((init, bound))
    s2 = Patch(((MutationSite(read_site, ARRAY_INDEX), 1),))
    return {
        "s1": s1,
        "s2": s2,
        "init_alone": Patch((init,)),
        "bound_alone": Patch((bound,)),
    }


def run() -> dict:
    built = build()
    spec = built["spec"]
    program = built["program"]
    space = spec.space
    prog_fn = denote(program, space)
    cd = competence_domain(spec, prog_fn, warn_nondeterministic=False)
    expected_cd = frozenset(s for s in space.states() if s["a"][0] == s["a"][3])

    out = {
        "competence_domain_matches_a0_eq_a3": cd.members == expected_cd,
        "competence_domain_size": len(cd),
        "space_size": space.num_states,
    }
    p = built["patches"]
    for name in ("s1", "s2"):
        out[f"{name}_is_fault_removal"] = verify_fault(program, p[name], spec)[
            "is_fault_removal"
        ]
        patched = apply_patch(program, p[name])
        out[f"{name}_alone_absolutely_correct"] = is_correct(denote(patched, space), spec)
    both = apply_patch(program, Patch(p["s1"].substitutions + p["s2"].substitutions))
    out["both_applied_absolutely_correct"] = is_correct(denote(both, space), spec)
    for name in ("init_alone", "bound_alone"):
        patched = apply_patch(program, p[name])
        out[f"{name.split('_')[0]}_alone_strictly_more_correct"] = more_correct(
            denote(patched, space), prog_fn, spec, strict=True
        )
    return out


def check(report: dict) -> list:
    expected = load_fixture_json("arraysum_expected.json")
    failures = []
    if not report["competence_domain_matches_a0_eq_a3"]:
        failures.append(
            "competence domain of the base program is not {s | a[0] == a[3]}"
        )
    for key in (
        "s1_is_fault_removal",
        "s2_is_fault_removal",
        "s1_alone_absolutely_correct",
        "s2_alone_absolutely_correct",
        "both_applied_absolutely_correct",
        "init_alone_strictly_more_correct",
        "bound_alone_strictly_more_correct",
    ):
        if report[key] != expected[key]:
            failures.append(f"{key}: expected {expected[key]}, got {report[key]}")
    return failures
