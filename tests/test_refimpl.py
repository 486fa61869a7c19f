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
from pathlib import Path

from randgen import program_space, random_chain, random_program, random_straight_loop
from relcor.lang.interp import FinalState, NonTermination, _Recurrence, compile_schema, execute
from relcor.mutate import generate
from relcor.space import ArrayDomain
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


def test_batch_rows_agree_with_the_tree_walker():
    """Rows that the batch kernel fills by split-stream execution, in both
    modes, on straight-line bases with `if`s, blocks and loops."""
    rng = random.Random(4343)
    kinds, compared = set(), 0
    for i in range(40):
        sp = program_space(rng, max_states=30, array=i % 2 == 1)
        for mode in ("exact", "wide"):
            base = random_chain(rng, sp, wide=mode == "wide")
            programs = [m.program for m in generate(base, ("AORB", "literal+-1", "index+-1"))]
            schema = compile_schema(base, programs, sp, mode)
            covered = list(schema.sites) if schema else []
            states = list(sp.states())
            suite = Suite(tuple(rng.sample(states, min(12, len(states)))))
            fuel = rng.choice(FUELS)
            outcome_row.cache_clear()
            rows = zip([base, *covered], _batch_rows(base, covered, suite, fuel, mode))
            for p, row in rows:
                assert [_raw(out) for out in row] == [
                    _reference(p, s, fuel, mode) for s in suite.inputs], (p, fuel, mode)
                kinds.update(_kind(_raw(out)) for out in row)
                compared += len(row)
    outcome_row.cache_clear()
    assert kinds == {"final", refimpl.NONTERMINATION, refimpl.UNDEFINED}
    assert compared > 10_000


def test_wide_runs_at_high_fuel_agree_with_the_tree_walker(monkeypatch):
    """Wide-mode runs at fuel 10^4, where the recurrent-box check ends many
    divergent runs early: no proof may change an outcome."""
    proofs = []
    diverges = _Recurrence.diverges
    monkeypatch.setattr(_Recurrence, "diverges",
                        lambda rec, values: proofs.append(diverges(rec, values)) or proofs[-1])
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
    assert kinds[refimpl.NONTERMINATION] > proofs.count(True) > 50
