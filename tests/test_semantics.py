"""Denotational semantics (exact relations) and the bounded interpreter."""

import random
import time

from randgen import program_space, random_program
from relcor.lang import interp
from relcor.lang.ast_nodes import While
from relcor.lang.interp import (
    FinalState,
    NonTermination,
    Undefined,
    cdiv,
    cmod,
    compile_program,
    execute,
)
from relcor.lang.parser import parse
from relcor.lang.semantics import conclusive_fuel, default_fuel, denote, denote_structural
from relcor.relations import identity
from relcor.space import ArrayDomain, Interval, StateSpace

SP = StateSpace((("x", Interval(0, 3)),))

ARR = StateSpace(
    (
        ("a", ArrayDomain(4, Interval(0, 2))),
        ("x", Interval(0, 6)),
        ("i", Interval(0, 4)),
    )
)


def test_abort_denotes_the_empty_relation():
    assert len(denote(parse("abort;", SP), SP)) == 0


def test_skip_denotes_the_identity():
    assert denote(parse("skip;", SP), SP) == identity(SP)


def test_assignment_is_partial_outside_the_interval():
    # x+2 leaves 0..3 for x in {2,3}, so those states have no image
    p = parse("x = x + 2;", SP)
    rel = denote(p, SP)
    assert {(s["x"], t["x"]) for s, t in rel.pairs} == {(0, 2), (1, 3)}


def test_division_by_zero_is_undefined():
    p = parse("x = 1 / (x - 1);", SP)
    rel = denote(p, SP)
    # x=1 divides by zero; x=0 gives -1 which leaves the interval
    assert {(s["x"], t["x"]) for s, t in rel.pairs} == {(2, 1), (3, 0)}


def test_sequence_composes():
    p = parse("x = x + 1; x = x + 1;", SP)
    rel = denote(p, SP)
    assert {(s["x"], t["x"]) for s, t in rel.pairs} == {(0, 2), (1, 3)}


def test_conditional_keeps_false_branch_on_identity():
    p = parse("if (x < 2) { x = x + 1; }", SP)
    rel = denote(p, SP)
    assert {(s["x"], t["x"]) for s, t in rel.pairs} == {
        (0, 1), (1, 2), (2, 2), (3, 3)
    }


def test_if_else():
    p = parse("if (x == 0) { x = 3; } else { x = 0; }", SP)
    rel = denote(p, SP)
    assert {(s["x"], t["x"]) for s, t in rel.pairs} == {
        (0, 3), (1, 0), (2, 0), (3, 0)
    }


def test_while_collects_terminating_states_only():
    p = parse("while (x < 3) { x = x + 1; }", SP)
    rel = denote(p, SP)
    assert {(s["x"], t["x"]) for s, t in rel.pairs} == {
        (0, 3), (1, 3), (2, 3), (3, 3)
    }


def test_nonterminating_loop_denotes_empty():
    assert len(denote(parse("while (x >= 0) { skip; }", SP), SP)) == 0


def test_block_local_is_projected_away():
    p = parse("{ int t : 0..3; t = x; x = t; }", SP)
    assert denote(p, SP) == identity(SP)


def test_a_local_read_before_it_is_assigned_takes_every_initial_value():
    # one run (t starting at 1) gives x' = 1; [p] relates x to every t
    p = parse("{ int t : 1..3; x = t; }", SP)
    rel = denote(p, SP)
    assert rel == denote_structural(p, SP)
    assert {(s["x"], t["x"]) for s, t in rel.pairs} == {
        (x, v) for x in range(4) for v in (1, 2, 3)
    }
    # t stays unassigned on one path before x = t reads it
    for src in ("{ int t : 0..2; if (x < 1) { t = 0; } else { skip; } x = t; }",
                "{ int t : 0..2; while (x < 1) { t = 1; x = x + 1; } x = t; }"):
        p = parse(src, SP)
        rel = denote(p, SP)
        assert rel == denote_structural(p, SP)
        assert not rel.is_deterministic()


def test_conclusive_fuel_counts_the_block_locals_in_scope():
    p = parse("while (x < 3) { int t : 0..1; t = 0; while (t < 1) { t = t + 1; } x = x + 1; }", SP)
    assert conclusive_fuel(p, SP) == 4 + 4 * 2 + 1
    assert conclusive_fuel(parse("x = 1;", SP), SP) == 1


def test_array_sum_loop_denotation():
    p = parse("x = 0; i = 0; while (i < 3) { x = x + a[i]; i = i + 1; }", ARR)
    rel = denote(p, ARR)
    assert all(t["x"] == sum(s["a"][0:3]) and t["i"] == 3 and t["a"] == s["a"]
               for s, t in rel.pairs)
    assert len(rel) == ARR.num_states


def test_execute_array_sum():
    p = parse("x = 0; i = 0; while (i < 3) { x = x + a[i]; i = i + 1; }", ARR)
    s = ARR.state({"a": (1, 2, 0, 2), "x": 0, "i": 0})
    out = execute(p, s, fuel=100)
    assert isinstance(out, FinalState)
    assert out.state["x"] == 3 and out.state["i"] == 3


def test_execute_agrees_with_denote_here():
    p = parse("while (x < 3) { x = x + 2; }", SP)
    rel = denote(p, SP)
    for s in SP.states():
        out = execute(p, s, fuel=default_fuel(SP))
        if isinstance(out, FinalState):
            assert (s, out.state) in rel.pairs
        else:
            assert s not in rel.domain()


def test_execute_runs_out_of_fuel():
    p = parse("while (x < 3) { skip; }", SP)
    out = execute(p, SP.state({"x": 0}), fuel=50)
    assert isinstance(out, NonTermination)


def test_execute_flags_undefined_evaluation():
    p = parse("x = x - 1;", SP)
    out = execute(p, SP.state({"x": 0}), fuel=10, mode="exact")
    assert isinstance(out, Undefined)


def test_wide_mode_ignores_intervals():
    p = parse("x = x - 1;", SP)
    out = execute(p, SP.state({"x": 0}), fuel=10, mode="wide")
    assert isinstance(out, FinalState)
    assert out.state["x"] == -1


def test_out_of_bounds_array_read_is_undefined():
    p = parse("x = a[i];", ARR)
    s = ARR.state({"a": (0, 0, 0, 0), "x": 0, "i": 4})
    assert isinstance(execute(p, s, fuel=10), Undefined)


def test_division_truncates_toward_zero():
    assert cdiv(7, 2) == 3
    assert cdiv(-7, 2) == -3
    assert cdiv(7, -2) == -3
    assert cmod(-7, 2) == -1
    assert cmod(7, -2) == 1
    assert cdiv(-7, 2) * 2 + cmod(-7, 2) == -7


def test_default_fuel_scales_with_the_largest_interval():
    assert default_fuel(SP) == 10 * 4 * 4


class _FuelOnlyEmitter(interp._Emitter):
    """Exact-mode loops without repeat detection: fuel alone bounds them."""

    def stmt(self, s, depth):
        if not isinstance(s, While):
            return super().stmt(s, depth)
        self.emit(depth, f"while {self.cond(s.cond)}:")
        self.stmt(s.body, depth + 1)
        self.emit(depth + 1, "fuel -= 1")
        self.emit(depth + 1, "if fuel < 0: raise _OutOfFuel()")


def test_repeat_detection_changes_no_outcome(monkeypatch):
    rng = random.Random(808)
    cases = []
    for _ in range(300):
        sp = program_space(rng, max_states=60)
        p = random_program(rng, sp)
        cases.append((p, sp, (0, 1, 7, conclusive_fuel(p, sp))))
    # a loop that changes only a block local still ends
    p = parse("{ int t : 0..3; t = 0; while (t < 3) { t = t + 1; } x = t; }", SP)
    cases.append((p, SP, (0, 1, 7, conclusive_fuel(p, SP))))

    def outcomes():
        compile_program.cache_clear()
        return [[execute(p, s, fuel, "exact") for s in sp.states() for fuel in fuels]
                for p, sp, fuels in cases]

    new = outcomes()
    monkeypatch.setattr(interp, "_Emitter", _FuelOnlyEmitter)
    try:
        old = outcomes()
    finally:
        compile_program.cache_clear()
    assert new == old
    kinds = {type(out) for outs in new for out in outs}
    assert kinds == {FinalState, NonTermination, Undefined}


def test_denote_beats_the_recursion_on_a_loop_that_never_ends():
    p = parse("x = 0; i = 0; while (i < 3) { x = x + a[i]; i = i + 0; }", ARR)

    def best_of_three(route):
        times = []
        for _ in range(3):
            start = time.perf_counter()
            rel = route(p, ARR)
            times.append(time.perf_counter() - start)
        assert len(rel) == 0
        return min(times)

    assert best_of_three(denote) < best_of_three(denote_structural)
