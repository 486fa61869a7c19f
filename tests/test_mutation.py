import dataclasses
import math
import os
import pickle
import random
from functools import partial

import pytest

import relcor.mutate
from randgen import holds_more_than_assignments, in_loops, program_space, random_program
from relcor import suites
from relcor.errors import PatchError, RelcorError
from relcor.lang import ast_nodes as A
from relcor.lang import interp
from relcor.lang.acceleration import closed_form
from relcor.lang.ast_nodes import preorder, replace_nodes, to_source
from relcor.lang.interp import (
    NONTERMINATION,
    NonTermination,
    Undefined,
    compile_program,
    execute,
    run_outcome,
)
from relcor.lang.parser import parse
from relcor.mutate import (
    ARRAY_INDEX,
    BINARY_ARITH,
    INTEGER_LITERAL,
    OPERATOR_FAMILIES,
    MutationSite,
    Patch,
    apply_patch,
    generate,
    mutant_manifest,
    semantic_fingerprint,
    sites,
)
from relcor.repair import RepairConfig, classify_mutants, repair
from relcor.space import ArrayDomain, Interval, StateSpace
from relcor.specs import PredicateSpec
from relcor.suites import TestSuite as Suite
from relcor.suites import outcome_row

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
    found = [site for site in sites(p) if site.kind == INTEGER_LITERAL]
    patch = Patch(((found[0], 5), (found[1], 4)))
    assert to_source(apply_patch(p, patch)).split() == ["x", "=", "5;", "i", "=", "4;"]


def test_apply_patch_rejects_overlapping_sites():
    p = parse("x = 1;", SP)
    site = next(site for site in sites(p) if site.kind == INTEGER_LITERAL)
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


def test_exact_fingerprints_see_runs_longer_than_the_fuel():
    sp = StateSpace((("x", Interval(0, 10)),))
    spec = PredicateSpec(sp, "true", "x' == 0")
    cfg = RepairConfig(operators=("AORB",), fuel=3, max_depth=1, mode="exact")
    down = "while (x > 0) { x = x - 1; }"
    assert execute(parse(down, sp), sp.state({"x": 10}), cfg.fuel, "exact") == NONTERMINATION
    fp = lambda source: repair(parse(source, sp), spec, cfg)[0].nodes["base"].fingerprint
    assert fp(down) == fp("x = 0;")
    assert fp(down) != fp(down + " x = 5;")


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
    shared = 0
    for rng, _, base in _random_programs(32, 300):
        nodes = preorder(base)
        sizes = [len(preorder(n)) for n in nodes]
        assert [A.size(n) for n in nodes] == sizes
        picked = rng.sample(range(len(nodes)), min(len(nodes), rng.randint(1, 3)))
        subs = {j: _wrap(nodes[j]) for j in picked}
        mutant = replace_nodes(base, subs)
        assert mutant == _reference_replace_nodes(base, subs)
        # a site inside a replaced subtree is ignored
        sites = [j for j in picked if not any(k < j < k + sizes[k] for k in picked)]
        in_mutant = {id(n) for n in preorder(mutant)}
        for j, n in enumerate(nodes):
            on_spine = any(j < k < j + sizes[j] for k in sites)
            copied = j in sites and isinstance(n, _TARGETS)  # `_wrap` copies targets
            assert (id(n) in in_mutant) == (not on_spine and not copied)
            shared += not on_spine
        assert replace_nodes(base, {len(nodes): A.Skip(), -1: A.Skip()}) is base
        n = A.size(mutant)  # kept in the node, and pickled with it
        copy = pickle.loads(pickle.dumps(mutant))
        assert copy == mutant and vars(copy)["_size"] == n == len(preorder(mutant))
    assert shared > 1000


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


# -- mutant schemata ---------------------------------------------------------------

FUELS = (0, 1, 8, 10**4)

@pytest.fixture
def compiled(monkeypatch):
    """The name of the function of every compile made while the test runs:
    "_run" for programs and schemata, "_eval" for expressions, "_rec" for
    divergence checks.  Only this process's compiles are seen, so no batch
    forks workers while the fixture counts."""
    names = []
    monkeypatch.setattr(suites, "_FORK_AFTER_S", math.inf)
    define = interp._define
    monkeypatch.setattr(interp, "_define", lambda em, name: names.append(name) or define(em, name))
    compile_program.cache_clear()
    interp._recurrence.cache_clear()
    outcome_row.cache_clear()
    yield names
    compile_program.cache_clear()
    outcome_row.cache_clear()


def _schema_run(schema, cut: int, step, values: tuple, fuel: int) -> tuple:
    """One run of a mutant of `schema` changed at `cut`: the base's steps
    before that cut, the mutant's `step` at it, then the base's suffix."""
    for base_step in schema.steps[:cut]:
        values, fuel = base_step(0, values, fuel)
    values, fuel = step(values, fuel)
    return schema.suffix(cut + 1, values, fuel)


def test_a_schema_runs_each_mutant_as_the_mutant_compiled_alone():
    """Every mutant is covered: one changed outside every loop by a dispatch
    in its cut's step, one changed within a loop by its own step."""
    rng = random.Random(1313)
    covered = looped = 0
    kinds, seen = set(), set()
    for i in range(80):
        sp = program_space(rng, max_states=12, array=i % 2 == 1)
        for mode in ("exact", "wide"):
            base = random_program(rng, sp, wide=mode == "wide")
            mutants = generate(base, OPERATOR_FAMILIES)
            inside = in_loops(base)
            schema = interp.compile_schema(base, [m.program for m in mutants], sp, mode)
            assert (set(schema.sites) if schema else set()) == {m.program for m in mutants}
            if schema is None:
                continue
            own = {p for p, (_, step) in schema.sites.items() if not isinstance(step, partial)}
            assert own == {m.program for m in mutants if m.site.path in inside}
            covered += len(schema.sites)
            looped += len(own)
            runners = {p: partial(_schema_run, schema, *site) for p, site in schema.sites.items()}
            runners[base] = partial(_schema_run, schema, 0, partial(schema.steps[0], 0))
            for p, run in runners.items():
                alone = compile_program(p, sp, mode)
                for s in sp.states():
                    outcomes = [run_outcome(run, s.values, fuel) for fuel in FUELS]
                    assert outcomes == [run_outcome(alone, s.values, fuel) for fuel in FUELS]
                    kinds.update(type(out) for out in outcomes)
            seen.update(n.op if isinstance(n, A.BinOp) else type(n) for n in preorder(base))
    compile_program.cache_clear()
    assert covered > 1000 and looped > 200
    assert kinds == {tuple, NonTermination, Undefined}
    assert {A.While, A.Block, A.If, A.IfElse, A.ArrayTarget, "/", "%"} <= seen


def test_a_schema_leaves_out_programs_equal_to_its_base():
    rng = random.Random(1515)
    statements = 0
    covered_by = lambda schema: set(schema.sites) if schema else set()
    for i in range(40):
        sp = program_space(rng, max_states=12, array=i % 2 == 1)
        base = random_program(rng, sp, wide=True)
        programs = [m.program for m in generate(base, OPERATOR_FAMILIES)]
        twin = parse(to_source(base), sp)
        assert twin == base and twin is not base
        covered = covered_by(interp.compile_schema(base, [base, twin, *programs], sp, "wide"))
        assert base not in covered
        assert covered == covered_by(interp.compile_schema(base, programs, sp, "wide"))
        statements += not isinstance(base, (A.Seq, A.While))  # one cut that can hold a site
    assert statements > 10


def test_a_batch_compiles_once_plus_once_per_mutant_in_a_loop(compiled):
    """The schema once, with a step per cut, and an own step for each mutant
    changed within a loop; no program compiles alone."""
    rng = random.Random(1414)
    looping = dispatching = 0
    for i in range(100):
        sp = program_space(rng, max_states=12, array=i % 2 == 1)
        base = random_program(rng, sp, wide=True)
        mutants = generate(base, OPERATOR_FAMILIES)
        if not mutants:
            continue
        spec = PredicateSpec(sp, "true", "v0' >= v0")
        suite = Suite(tuple(sp.states()))
        compile_program.cache_clear()
        outcome_row.cache_clear()
        compiled.clear()
        classify_mutants(base, mutants, spec, suite, "testing", 100)
        inside = in_loops(base)
        looped = {m.program for m in mutants if m.site.path in inside}
        assert compiled.count("_run") == 1 and compile_program.cache_info().misses == 0
        assert sum(name.startswith("_step") for name in compiled) == len(looped)
        looping += bool(looped)
        dispatching += len(looped) < len({m.program for m in mutants})
    assert looping > 10 and dispatching > 50


def test_the_fermat_level1_batch_compiles_each_mutant_alone(compiled):
    """Fermat's base is one cut, a block, and every mutant is changed within
    its loop, so each mutant's own step is the mutant compiled alone; the
    schema compiles beside them, and `compile_program` never.  The base is
    compiled once, as the schema's step: its suffix, entered only after the
    last cut, holds no statement."""
    from relcor.studies import fermat

    built = fermat.build()
    base = built["base"]
    mutants = generate(base, ("AORB",))
    inside = in_loops(base)
    assert len(mutants) == 48 and all(m.site.path in inside for m in mutants)
    classify_mutants(base, mutants, built["spec"], built["suite"], "testing", fermat.FUEL)
    assert compiled.count("_run") == 1 and compiled.count("_step0") == 48
    assert compile_program.cache_info().misses == 0
    schema = interp.compile_schema(base, [m.program for m in mutants], built["spec"].space, "wide")
    assert len(schema.steps) == 1
    assert schema.suffix.__code__.co_names == ()  # no global, so no statement runs


def test_the_fermat_level1_batch_compiles_each_divergence_check_once(compiled):
    """At most one check per distinct boxable loop of the base and its
    mutants, not one per module that holds the loop, each compiled on its
    first call: of the 26 loops whose bodies are assignments, the 16 that
    are accelerated need none and the other 10 are all called; 5 of the 25
    that hold more are never called."""
    from relcor.studies import fermat

    built = fermat.build()
    base = built["base"]
    mutants = generate(base, ("AORB",))
    loops = [n for p in (base, *(m.program for m in mutants)) for n in preorder(p)
             if isinstance(n, A.While) and interp._boxable(n)]
    assert len(loops) == 131 and len(set(loops)) == 51
    plain = {loop for loop in loops if not holds_more_than_assignments(loop)}
    assert len(plain) == 26
    assert len({loop for loop in plain if closed_form(loop, interp._V)}) == 16
    classify_mutants(base, mutants, built["spec"], built["suite"], "testing", fermat.FUEL)
    assert compiled.count("_rec") == 30


def test_a_repair_of_a_correct_root_compiles_no_own_step(compiled):
    """The root's verdict is read before any mutant's row is made, so none
    of the own steps of the correct Fermat program's mutants, all changed
    within a loop, compiles."""
    from relcor.studies import fermat

    built = fermat.build()
    cfg = RepairConfig(operators=("AORB",), suite=built["suite"], fuel=fermat.FUEL,
                       max_depth=1, mode="testing")
    tree, metrics = repair(built["correct"], built["spec"], cfg)
    assert tree.solutions == ["base"] and list(tree.nodes) == ["base"]
    assert (metrics.fault_density_lb, metrics.fault_depth_ub) == (0, 0)
    assert compiled.count("_run") == 1  # the schema, whose step runs the root
    assert [name for name in compiled if name.startswith("_step")] == []


@pytest.mark.parametrize("fork_after", [math.inf, 0])
def test_an_own_step_that_python_refuses_raises_where_its_row_is_made(monkeypatch, fork_after):
    """The user error of a refused own step comes out of the batch whether
    it makes its rows in process or beside forked workers, which it then
    reaps."""
    define = interp._define

    def refuse(em, name):
        if name.startswith("_step"):  # only an own step is compiled by that name
            raise RelcorError("nested too deeply for Python to compile: refused")
        return define(em, name)

    monkeypatch.setattr(interp, "_define", refuse)
    monkeypatch.setattr(suites, "_FORK_AFTER_S", fork_after)
    monkeypatch.setattr(suites, "_spare_cpus", lambda: 1)
    spec = PredicateSpec(SP, "true", "x' >= 0")
    suite = Suite(tuple(SP.states())[:40])
    mutants = generate(LOOP, ("AORB",))
    assert len(mutants) > 2 and all(m.site.path in in_loops(LOOP) for m in mutants)
    outcome_row.cache_clear()
    with pytest.raises(RelcorError, match="nested too deeply"):
        classify_mutants(LOOP, mutants, spec, suite, "testing", 100)
    with pytest.raises(ChildProcessError):  # the worker is reaped
        os.waitpid(-1, os.WNOHANG)
    outcome_row.cache_clear()


def test_a_schema_too_deep_for_python_falls_back_to_compiling_each_mutant(compiled):
    sp = StateSpace((("x", Interval(0, 3)),))
    spec = PredicateSpec(sp, "true", "x' >= x")
    suite = Suite(tuple(sp.states()))
    labels = []
    for depth, schema in ((97, True), (98, False)):  # the dispatch adds one indentation level
        base = parse("if (x < 1) { " * depth + "x = x + 1;" + " }" * depth, sp)
        mutants = generate(base, ("AORB",))
        for mode in ("testing", "exact"):
            compile_program.cache_clear()
            outcome_row.cache_clear()
            compiled.clear()
            classified = classify_mutants(base, mutants, spec, suite, mode, 10)
            labels.append([label for _, label, _ in classified])
            # the schema (compiled, or attempted and refused), then the base
            # and the four mutants unless the schema holds them
            assert compiled.count("_run") == (1 if schema else 6)
    assert labels[0] == labels[1] == labels[2] == labels[3]
    assert len(set(labels[0])) > 1
