import dataclasses
import random

import pytest

import relcor.mutate
from randgen import program_space, random_program
from relcor.errors import PatchError
from relcor.lang import ast_nodes as A
from relcor.lang.ast_nodes import preorder, replace_nodes, to_source
from relcor.lang.parser import parse
from relcor.mutate import (
    ARRAY_INDEX,
    BINARY_ARITH,
    INTEGER_LITERAL,
    MutationSite,
    Patch,
    apply_patch,
    generate,
    mutant_manifest,
    semantic_fingerprint,
    sites,
)
from relcor.space import ArrayDomain, Interval, StateSpace

SP = StateSpace(
    (
        ("a", ArrayDomain(4, Interval(0, 2))),
        ("x", Interval(0, 6)),
        ("i", Interval(0, 4)),
    )
)

LOOP = parse("x = 0; i = 0; while (i < 3) { x = x + a[i]; i = i + 1; }", SP)


def test_site_inventory():
    found = sites(LOOP)
    kinds = [s.kind for s in found]
    # two binary ops (x+a[i], i+1), one array index, four literals
    assert kinds.count(BINARY_ARITH) == 2
    assert kinds.count(ARRAY_INDEX) == 1
    assert kinds.count(INTEGER_LITERAL) == 4


def test_aorb_yields_four_mutants_per_operator_in_fixed_order():
    mutants = generate(parse("x = x + 1;", SP), ("AORB",))
    assert [m.operator for m in mutants] == [
        "AORB:+->-", "AORB:+->*", "AORB:+->/", "AORB:+->%",
    ]
    assert [m.ordinal for m in mutants] == [1, 2, 3, 4]
    assert to_source(mutants[0].program).strip() == "x = x - 1;"


def test_ordinals_are_deterministic_across_runs():
    a = generate(LOOP, ("AORB", "literal+-1", "index+-1"))
    b = generate(LOOP, ("AORB", "literal+-1", "index+-1"))
    assert [(m.ordinal, m.operator, m.site) for m in a] == [
        (m.ordinal, m.operator, m.site) for m in b
    ]
    # 2 binary ops * 4 + 4 literals * 2 + 1 index * 2
    assert len(a) == 18


def test_literal_and_index_operators():
    mutants = generate(parse("x = a[i];", SP), ("index+-1",))
    texts = sorted(to_source(m.program).strip() for m in mutants)
    assert texts == ["x = a[i + 1];", "x = a[i - 1];"]

    mutants = generate(parse("i = 2;", SP), ("literal+-1",))
    texts = sorted(to_source(m.program).strip() for m in mutants)
    assert texts == ["i = 1;", "i = 3;"]


def test_unknown_operator_family_rejected():
    with pytest.raises(ValueError):
        generate(LOOP, ("AORB", "swap-args"))


def test_mutants_are_single_site():
    base_src = to_source(LOOP)
    for m in generate(LOOP, ("AORB",)):
        diff = [
            (a, b)
            for a, b in zip(base_src.splitlines(), to_source(m.program).splitlines())
            if a != b
        ]
        assert len(diff) == 1


def test_apply_patch_is_simultaneous():
    p = parse("x = 0; i = 0;", SP)
    found = sites(p, (INTEGER_LITERAL,))
    patch = Patch(((found[0], 5), (found[1], 4)))
    assert to_source(apply_patch(p, patch)).split() == ["x", "=", "5;", "i", "=", "4;"]


def test_apply_patch_rejects_overlapping_sites():
    p = parse("x = 1;", SP)
    site = sites(p, (INTEGER_LITERAL,))[0]
    with pytest.raises(PatchError):
        apply_patch(p, Patch(((site, 2), (site, 3))))


def test_apply_patch_rejects_kind_mismatch():
    p = parse("x = 1;", SP)
    with pytest.raises(PatchError):
        apply_patch(p, Patch(((MutationSite(0, BINARY_ARITH), "+"),)))


def test_fingerprint_separates_behaviors():
    probe = tuple(SP.states())
    p1 = parse("x = x + 1;", SP)
    p2 = parse("x = x + 2;", SP)
    p3 = parse("x = 1 + x;", SP)  # syntactically different, same behavior
    fp = lambda p: semantic_fingerprint(p, probe, fuel=50)
    assert fp(p1) != fp(p2)
    assert fp(p1) == fp(p3)


def test_manifest_lists_every_mutant():
    mutants = generate(LOOP, ("AORB",))
    doc = mutant_manifest(LOOP, mutants)
    assert len(doc["mutants"]) == 8
    entry = doc["mutants"][0]
    assert {"ordinal", "operator", "site", "source"} <= set(entry)


# -- replace_nodes against the quadratic reference ---------------------------------


def _reference_replace_nodes(node, substitutions):
    """The original algorithm, kept as the reference: it sizes the subtree at
    every node with a fresh `preorder` walk and rebuilds every inner node."""
    counter = [0]

    def rebuild(n):
        idx = counter[0]
        counter[0] += len(preorder(n))
        if idx in substitutions:
            return substitutions[idx]
        updates = {}
        inner = [idx + 1]

        def rebuild_at(child):
            save = counter[0]
            counter[0] = inner[0]
            new = rebuild(child)
            inner[0] = counter[0]
            counter[0] = save
            return new

        for f in dataclasses.fields(n):
            v = getattr(n, f.name)
            if isinstance(v, A.Node):
                updates[f.name] = rebuild_at(v)
        return dataclasses.replace(n, **updates) if updates else n

    return rebuild(node)


_CONDITIONS = (A.Cmp, A.And, A.Or, A.Not, A.BoolLit)
_TARGETS = (A.VarTarget, A.ArrayTarget)
_STATEMENTS = (A.Assign, A.Seq, A.If, A.IfElse, A.While, A.Skip, A.Abort, A.Block)


def _wrap(node):
    """A printable replacement for `node`; except for an assignment target,
    it contains `node` itself."""
    if isinstance(node, _CONDITIONS):
        return A.Not(node)
    if isinstance(node, _TARGETS):
        return dataclasses.replace(node)
    if isinstance(node, _STATEMENTS):
        return A.Seq(node, A.Skip())
    return A.Neg(node)


def _random_programs(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        space = program_space(rng, max_states=40)
        yield rng, space, random_program(rng, space)


def _substitutions(rng, nodes):
    """Single-site, multi-site, and nested (a site inside another) dicts."""
    sizes = [len(preorder(n)) for n in nodes]
    i = rng.randrange(len(nodes))
    yield {i: _wrap(nodes[i])}
    picked = rng.sample(range(len(nodes)), min(len(nodes), rng.randint(2, 4)))
    yield {j: _wrap(nodes[j]) for j in picked}
    outer = [j for j in range(len(nodes)) if sizes[j] > 1]
    if outer:
        j = rng.choice(outer)
        k = rng.randrange(j + 1, j + sizes[j])
        yield {j: _wrap(nodes[j]), k: _wrap(nodes[k])}


def test_replace_nodes_matches_the_quadratic_reference():
    nested = 0
    for rng, _, base in _random_programs(31, 300):
        nodes = preorder(base)
        for subs in _substitutions(rng, nodes):
            got = replace_nodes(base, subs)
            want = _reference_replace_nodes(base, subs)
            assert got == want
            assert to_source(got) == to_source(want)
            nested += len(subs) == 2 and max(subs) < min(subs) + len(preorder(nodes[min(subs)]))
    assert nested > 0


def test_replace_nodes_shares_every_untouched_subtree():
    for rng, _, base in _random_programs(32, 300):
        nodes = preorder(base)
        sizes = [len(preorder(n)) for n in nodes]
        site = rng.randrange(len(nodes))
        mutant = replace_nodes(base, {site: _wrap(nodes[site])})
        in_mutant = {id(n) for n in preorder(mutant)}
        for j, n in enumerate(nodes):
            if j != site:
                on_spine = j < site < j + sizes[j]
                assert (id(n) in in_mutant) == (not on_spine)


def test_mutant_hash_and_equality_match_a_freshly_parsed_tree():
    checked = 0
    for _, space, tree in _random_programs(33, 150):
        base = parse(to_source(tree), space)  # the parser's normal form
        assert parse(to_source(base), space) == base
        hash(base)  # store hashes in the subtrees the mutants will share
        for m in generate(base, ("AORB", "literal+-1")):
            fresh = parse(to_source(m.program), space)
            assert m.program == fresh
            assert hash(m.program) == hash(fresh)
            checked += 1
    assert checked > 1000


def test_generate_is_unchanged_from_the_quadratic_reference(monkeypatch):
    programs = [LOOP] + [p for _, _, p in _random_programs(34, 100)]
    ops = ("AORB", "literal+-1", "index+-1")

    def listing(p):
        return [(m.ordinal, m.site, m.operator, m.replacement, m.program, to_source(m.program))
                for m in generate(p, ops)]

    new = [listing(p) for p in programs]
    monkeypatch.setattr(relcor.mutate, "replace_nodes", _reference_replace_nodes)
    assert new == [listing(p) for p in programs]
