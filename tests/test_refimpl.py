"""Outcomes against the benchmark's tree-walking evaluator,
`perfbench/refimpl.py`.  It shares no code with relcor's code emitter,
which compiles programs, spec predicates and the structural semantics'
guards alike, so a fault in how the emitter compiles an expression or a
statement cannot hide in a reference that goes through the emitter too.
The evaluator is loaded by path, as `test_bench_hooks.py` loads the
benchmark's tracer."""

import importlib.util
import random
from pathlib import Path

from randgen import program_space, random_chain, random_program
from relcor.lang.interp import FinalState, NonTermination, compile_schema, execute
from relcor.mutate import generate
from relcor.space import ArrayDomain
from relcor.specs import PredicateSpec
from relcor.suites import TestSuite as Suite
from relcor.suites import outcome_row, suite_labels

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
    """Wide rows filled by the split-stream batch kernel, and exact rows of
    the schema's runners, on straight-line bases with `if`s, blocks and
    loops."""
    rng = random.Random(4343)
    kinds, compared = set(), 0
    for i in range(40):
        sp = program_space(rng, max_states=30, array=i % 2 == 1)
        for mode in ("exact", "wide"):
            base = random_chain(rng, sp, wide=mode == "wide")
            programs = [m.program for m in generate(base, ("AORB", "literal+-1", "index+-1"))]
            runners = compile_schema(base, programs, sp, mode)
            states = list(sp.states())
            suite = Suite(tuple(rng.sample(states, min(12, len(states)))))
            fuel = rng.choice(FUELS)
            outcome_row.cache_clear()
            if mode == "wide":  # the kernel fills the rows of the covered mutants
                suite_labels(base, list(runners), PredicateSpec(sp, "true", "true"), suite, fuel)
            for p in runners:
                row = outcome_row(p, suite, fuel, mode)
                assert [_raw(out) for out in row] == [
                    _reference(p, s, fuel, mode) for s in suite.inputs], (p, fuel, mode)
                kinds.update(_kind(_raw(out)) for out in row)
                compared += len(row)
    outcome_row.cache_clear()
    assert kinds == {"final", refimpl.NONTERMINATION, refimpl.UNDEFINED}
    assert compared > 10_000
