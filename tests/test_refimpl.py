"""Outcomes against the benchmark's tree-walking evaluator,
`perfbench/refimpl.py`.  It shares no code with relcor's code emitter,
which compiles programs, spec predicates and the structural semantics'
guards alike, so a fault in how the emitter compiles an expression or a
statement cannot hide in a reference that goes through the emitter too.
The evaluator is loaded by path, as `test_bench_hooks.py` loads the
benchmark's tracer."""

import importlib.util
import random
from collections import Counter
from functools import partial
from pathlib import Path

from randgen import (
    holds_more_than_assignments,
    program_space,
    random_chain,
    random_nested_loop,
    random_predicate,
    random_program,
    random_straight_loop,
)
from relcor.lang import interp
from relcor.lang.ast_nodes import Seq, While, preorder
from relcor.lang.interp import (
    FinalState,
    NonTermination,
    UndefinedEval,
    compile_eval,
    compile_program,
    compile_schema,
    execute,
    run_outcome,
)
from relcor.lang.parser import parse_predicate
from relcor.mutate import generate
from relcor.space import ArrayDomain, Interval, StateSpace
from relcor.specs import PredicateSpec
from relcor.suites import TestSuite as Suite
from relcor.suites import _batch_rows, outcome_row

REFIMPL = Path(__file__).parent.parent / "perfbench" / "refimpl.py"
FUELS = (0, 3, 100)


def _load_refimpl():
    spec = importlib.util.spec_from_file_location("_perfbench_refimpl", REFIMPL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


refimpl = _load_refimpl()


def _reference(p, s, fuel: int, mode: str):
    """The tree-walker's outcome of `p` on state `s`, in relcor's raw form."""
    domains = None
    if mode == "exact":
        domains = {n: (d.length, d.elem.lo, d.elem.hi) if isinstance(d, ArrayDomain)
                   else (d.lo, d.hi) for n, d in s.space.vars}
    out = refimpl.evaluate(p, s.space.names, s.values, fuel, domains)
    return out[1] if out[0] == "final" else out


def _raw(outcome):
    """An outcome of relcor in the tree-walker's form: the final values, or
    the kind of a run that does not end."""
    if type(outcome) is tuple:
        return outcome
    if isinstance(outcome, FinalState):
        return outcome.state.values
    return refimpl.NONTERMINATION if isinstance(outcome, NonTermination) else refimpl.UNDEFINED


def _kind(raw):
    return raw if raw in (refimpl.NONTERMINATION, refimpl.UNDEFINED) else "final"


def test_execute_agrees_with_the_tree_walker():
    rng = random.Random(4242)
    kinds, compared = set(), 0
    for i in range(300):
        sp = program_space(rng, max_states=60, array=i % 2 == 1)
        for mode in ("exact", "wide"):
            p = random_program(rng, sp, unassigned_reads=False, wide=mode == "wide")
            for s in sp.states():
                for fuel in FUELS:
                    got = _raw(execute(p, s, fuel, mode))
                    assert got == _reference(p, s, fuel, mode), (p, s, fuel, mode)
                    kinds.add(_kind(got))
                    compared += 1
    assert kinds == {"final", refimpl.NONTERMINATION, refimpl.UNDEFINED}
    assert compared > 30_000


def _nests_loops(p) -> bool:
    return any(isinstance(n, While) for w in preorder(p) if isinstance(w, While)
               for n in preorder(w.body))


def test_batch_rows_agree_with_the_tree_walker(checks):
    """Rows that the batch kernel fills by split-stream execution, in both
    modes, on straight-line bases with `if`s, blocks and loops, some nested,
    and in wide mode a last loop of the kind the recurrent box check
    accepts, over suites that repeat inputs.  Every row, of the base and of
    every mutant, equals the tree-walker's outcomes and those of the program
    compiled alone; this includes the rows of the mutants changed within a
    loop, which their own steps fill."""
    rng = random.Random(4343)
    kinds, own_kinds, compared, nested, proved = set(), set(), 0, 0, 0
    for i in range(24):
        sp = program_space(rng, max_states=30, array=i % 2 == 1)
        for mode in ("exact", "wide"):
            base = random_chain(rng, sp, wide=mode == "wide")
            while i % 4 == 3 and not _nests_loops(base):
                base = random_chain(rng, sp, wide=mode == "wide")
            if mode == "wide" and i % 2 == 0:  # a scalar space
                base = Seq(base, random_straight_loop(rng, sp))
            programs = [m.program for m in generate(base, ("AORB", "literal+-1", "index+-1"))]
            schema = compile_schema(base, programs, sp, mode)
            sites = schema.sites if schema else {}
            states = list(sp.states())
            suite = Suite(tuple(rng.choices(states, k=min(12, 2 * len(states)))))
            fuel = rng.choice(FUELS)
            outcome_row.cache_clear()
            before = checks.count(True)
            rows = list(zip([base, *programs], _batch_rows(base, programs, suite, fuel, mode)))
            proved += checks.count(True) - before
            for p, row in rows:
                assert [_raw(out) for out in row] == [
                    _reference(p, s, fuel, mode) for s in suite.inputs], (p, fuel, mode)
                alone = compile_program(p, sp, mode)
                assert row == tuple(run_outcome(alone, s.values, fuel) for s in suite.inputs)
                kinds.update(_kind(_raw(out)) for out in row)
                if p in sites and not isinstance(sites[p][1], partial):  # an own step's row
                    own_kinds.update(_kind(_raw(out)) for out in row)
                compared += len(row)
            nested += _nests_loops(base)
    outcome_row.cache_clear()
    assert kinds == own_kinds == {"final", refimpl.NONTERMINATION, refimpl.UNDEFINED}
    assert compared > 30_000 and nested > 10 and proved > 50


def test_wide_runs_at_high_fuel_agree_with_the_tree_walker(checks):
    """Wide-mode runs at fuel 10^4, where the recurrent-box check ends many
    divergent runs early: no proof may change an outcome."""
    rng = random.Random(4444)
    kinds = Counter()
    for i in range(40):
        sp = program_space(rng, max_states=24)
        p = (random_straight_loop(rng, sp) if i % 2
             else random_program(rng, sp, unassigned_reads=False, wide=True))
        for s in sp.states():
            got = _raw(execute(p, s, 10**4, "wide"))
            assert got == _reference(p, s, 10**4, "wide"), (p, s)
            kinds[_kind(got)] += 1
    assert set(kinds) == {"final", refimpl.NONTERMINATION, refimpl.UNDEFINED}
    # each proof ends one run; the other divergent runs exhaust their fuel or abort
    assert kinds[refimpl.NONTERMINATION] > checks.count(True) > 50


def test_every_proof_of_a_loop_that_holds_more_than_assignments_is_a_run_that_never_ends(
        monkeypatch):
    """Every wide run at fuel 10^4 that the check of a loop holding more
    than assignments ends, on random nested loops and in the Fermat level-1
    batch (131 runs, of mutants 20 and 22), exhausts its fuel in the
    tree-walker."""
    proofs = []
    recurrence = interp._recurrence

    def flagged(loop):
        names, check = recurrence(loop)
        if not holds_more_than_assignments(loop):
            return names, check
        return names, lambda *values: proofs.append(check(*values)) or proofs[-1]

    monkeypatch.setattr(interp, "_recurrence", flagged)
    compile_program.cache_clear()

    def proved_runs(p, states) -> int:
        count = 0
        for s in states:
            proofs.clear()
            got = execute(p, s, 10**4, "wide")
            if any(proofs):
                assert got == NonTermination()
                assert _reference(p, s, 10**4, "wide") == refimpl.NONTERMINATION, (p, s)
                count += 1
        return count

    from relcor.studies import fermat

    rng = random.Random(4545)
    try:
        spaces = [program_space(rng, max_states=24) for _ in range(20)]
        random_proofs = sum(proved_runs(random_nested_loop(rng, sp), sp.states())
                            for sp in spaces)
        built = fermat.build()
        mutants = [m.program for m in generate(built["base"], ("AORB",))]
        fermat_proofs = [proved_runs(p, built["suite"].inputs) for p in mutants]
    finally:
        compile_program.cache_clear()
    assert random_proofs > 30
    assert sum(fermat_proofs) == 131 and fermat_proofs[19] == 66 and fermat_proofs[21] == 65


def test_spec_predicates_agree_with_the_tree_walker():
    """`compile_eval(cond, space, primed=True)`, through which every spec
    predicate goes, gives the tree-walker's value of random relation
    predicates and of fixed ones on pairs of states, reading x' and a'[i]
    from the outputs, and raises UndefinedEval exactly where the
    tree-walker finds the predicate undefined.  The fixed ones cover C `/`
    and `%` on negative operands, division by zero and an out-of-bounds
    a'[i]."""
    rng = random.Random(5151)
    sp = StateSpace((("x", Interval(-3, 3)), ("y", Interval(-3, 2)),
                     ("a", ArrayDomain(2, Interval(-2, 1)))))
    fixed = ["x / y == x' / y'", "x % y' < x' % y", "(x - 7) / 2 + (y' - 5) % 3 == -x'",
             "a'[x] == a[x'] || a'[y' + 1] > y", "x' / 0 == 1 && a'[2] > 0"]
    cases = [(sp, text) for text in fixed]
    for i in range(200):
        space = program_space(rng, max_states=60)
        cases.append((space, random_predicate(rng, list(space.names), primed=True)))
    machine, outcomes = refimpl._Machine(None, 0), Counter()
    for space, text in cases:
        node = parse_predicate(text, space, primed=True)
        compiled, states = compile_eval(node, space, primed=True), list(space.states())
        for _ in range(60):
            s, t = rng.choice(states), rng.choice(states)
            env = {**dict(zip(space.names, s.values)),
                   **{f"{n}'": v for n, v in zip(space.names, t.values)}}
            try:
                expected = machine.cond(node, env)
            except refimpl._Undefined:
                expected = refimpl.UNDEFINED
            try:
                got = compiled(s.values, t.values)
            except UndefinedEval:
                got = refimpl.UNDEFINED
            assert got == expected, (text, s.values, t.values)
            outcomes[str(got)] += 1
    assert sum(outcomes.values()) == 12300
    assert min(outcomes.values()) > 300  # true, false and undefined
