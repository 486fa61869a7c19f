"""Denotational semantics (exact relations) and the bounded interpreter."""

import random
import time
from collections import Counter
from functools import lru_cache
from itertools import product

import pytest
from randgen import (
    holds_more_than_assignments,
    program_space,
    random_accelerable_loop,
    random_nested_loop,
    random_program,
    random_relation,
    random_straight_loop,
    reads_a_local_unassigned,
)
from relcor.errors import CapacityError, RelcorError
from relcor.lang import ast_nodes as A
from relcor.lang import interp
from relcor.lang.acceleration import closed_form
from relcor.lang.ast_nodes import While, preorder
from relcor.lang.interp import (
    FinalState,
    NonTermination,
    Undefined,
    cdiv,
    cmod,
    compile_eval,
    compile_program,
    execute,
    run_outcome,
)
from relcor.lang.parser import parse
from relcor.lang.semantics import UNBOUNDED, denote, denote_structural
from relcor.mutate import OPERATOR_FAMILIES, generate
from relcor.repair import RepairConfig, classify_mutants, repair
from relcor.relations import identity
from relcor.space import ArrayDomain, Interval, StateSpace
from relcor.specs import EnumeratedSpec, PredicateSpec
from relcor.suites import TestSuite as Suite
from relcor.suites import outcome_row, suite_labels
from test_refimpl import _kind, _raw, _reference

SP = StateSpace((("x", Interval(0, 3)),))
INF = float("inf")

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


def _refused_by_exact_mode(p, sp) -> None:
    """Exact mode refuses `p` where it compiles it, in `compile_program`,
    `execute` and `denote`; wide mode runs it, the local starting at 0."""
    s = next(iter(sp.states()))
    for call in (lambda: compile_program(p, sp, "exact"), lambda: execute(p, s, 10, "exact"),
                 lambda: denote(p, sp)):
        with pytest.raises(RelcorError, match="may be read before it is assigned"):
            call()
    assert isinstance(execute(p, s, 10, "wide"), FinalState)


def test_a_local_read_before_it_is_assigned_takes_every_initial_value():
    # [p] relates x to every t; a run would give one of them
    p = parse("{ int t : 1..3; x = t; }", SP)
    rel = denote_structural(p, SP)
    assert {(s["x"], t["x"]) for s, t in rel.pairs} == {
        (x, v) for x in range(4) for v in (1, 2, 3)
    }
    _refused_by_exact_mode(p, SP)
    assert execute(p, SP.state({"x": 3}), 10, "wide").state["x"] == 0
    # t stays unassigned on one path before x = t reads it
    for src in ("{ int t : 0..2; if (x < 1) { t = 0; } else { skip; } x = t; }",
                "{ int t : 0..2; while (x < 1) { t = 1; x = x + 1; } x = t; }"):
        p = parse(src, SP)
        assert not denote_structural(p, SP).is_deterministic()
        _refused_by_exact_mode(p, SP)


def test_a_local_read_only_in_an_array_target_index_is_read_before_it_is_assigned():
    # t picks the element that x goes into before t = 0 assigns it, so [p]
    # writes x into a[0] or a[1]
    p = parse("int t : 0..1; a[t] = x; t = 0;", ARR)
    assert not denote_structural(p, ARR).is_deterministic()
    _refused_by_exact_mode(p, ARR)


def _starts_by_reading_its_local(p) -> bool:
    """Whether some block of `p` starts with an assignment of its local's
    value: where `random_program` makes a block read its local unassigned."""
    return any(isinstance(b.body.first, A.Assign) and b.body.first.expr == A.Var(b.name)
               for b in preorder(p) if isinstance(b, A.Block))


def _with_a_block(rng, sp, **kw):
    """A `random_program` over `sp` that holds a block."""
    while True:
        p = random_program(rng, sp, **kw)
        if any(isinstance(n, A.Block) for n in preorder(p)):
            return p


def test_exact_mode_refuses_exactly_the_programs_that_read_a_local_unassigned():
    """On random programs with and without blocks that read their local
    before assigning it: exact-mode `compile_program`, `execute`, `denote`,
    a `suite_labels` batch and `repair` raise RelcorError exactly where some
    block local is in `interp.exposed` of the block's body, which is where
    `random_program` made a block read its local first.  Wide mode runs
    every program as the tree-walker does, a local starting at 0.
    `denote_structural` still gives [p]: on an accepted program it equals
    `denote`, and on a refused one it holds each exact run that starts a
    local at the low end of its interval, and is no function for some."""
    rng = random.Random(2727)
    counts = Counter()
    for i in range(200):
        sp = program_space(rng, max_states=24, array=i % 3 == 2)
        p = (_with_a_block if i % 4 else random_program)(rng, sp, unassigned_reads=i % 2 == 0,
                                                        wide=True)
        refused = reads_a_local_unassigned(p)
        assert refused == _starts_by_reading_its_local(p)
        states = list(sp.states())
        spec, suite = EnumeratedSpec(random_relation(rng, sp)), Suite(tuple(states))
        programs = [m.program for m in generate(p, OPERATOR_FAMILIES)]
        cfg = RepairConfig(operators=OPERATOR_FAMILIES, max_depth=1, mode="exact")
        for call in (lambda: compile_program(p, sp, "exact"),
                     lambda: execute(p, states[0], UNBOUNDED, "exact"),
                     lambda: denote(p, sp),
                     lambda: list(suite_labels(p, programs, spec, suite, UNBOUNDED, "exact")),
                     lambda: repair(p, spec, cfg)):
            if refused:
                with pytest.raises(RelcorError, match="may be read before it is assigned"):
                    call()
            else:
                call()
        rel = denote_structural(p, sp)
        if refused:
            for s in states:
                out = _reference(p, s, 100, "exact")
                if _kind(out) == "final":
                    assert (s, sp.state(dict(zip(sp.names, out)))) in rel.pairs
            counts["no function"] += not rel.is_deterministic()
        else:
            assert denote(p, sp) == rel
        for s in rng.sample(states, min(3, len(states))):
            for fuel in (0, 3, 100):
                assert _raw(execute(p, s, fuel, "wide")) == _reference(p, s, fuel, "wide")
        counts["refused" if refused else "accepted"] += 1
    compile_program.cache_clear()
    outcome_row.cache_clear()
    assert counts["refused"] > 20 and counts["accepted"] > 100 and counts["no function"] > 2, counts


def test_no_mutant_changes_whether_exact_mode_accepts_its_program():
    """No single-site mutation of any family changes which block locals may
    be read before they are assigned: every mutant of a program that exact
    mode accepts compiles in exact mode, and every mutant of one that it
    refuses is refused, so an exact repair never meets the refusal in the
    middle of its search."""
    rng = random.Random(2828)
    counts = Counter()
    for i in range(400):
        sp = program_space(rng, max_states=24, array=i % 2 == 1)
        p = _with_a_block(rng, sp, unassigned_reads=i % 4 < 2)
        refused = reads_a_local_unassigned(p)
        for m in generate(p, OPERATOR_FAMILIES):
            if refused:
                with pytest.raises(RelcorError, match="may be read before it is assigned"):
                    compile_program(m.program, sp, "exact")
            else:
                compile_program(m.program, sp, "exact")
            counts[m.site.kind, refused] += 1
    compile_program.cache_clear()
    assert len(counts) >= 6 and min(counts.values()) > 20, counts


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
        out = execute(p, s, fuel=UNBOUNDED)
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


@pytest.mark.parametrize("mode", ["exact", "wide"])
def test_a_literal_index_in_bounds_reads_without_a_check(mode, monkeypatch):
    """A literal index inside the array compiles to a plain subscript, with
    no call of the bounds check; one outside it, at either end, is still
    undefined, as a computed index is."""
    checked = []
    aread = interp._RUNTIME["_aread"]
    monkeypatch.setitem(interp._RUNTIME, "_aread", lambda *args: checked.append(args[1]) or
                        aread(*args))
    compile_program.cache_clear()
    s = ARR.state({"a": (1, 2, 0, 2), "x": 0, "i": 0})
    outs = [execute(parse(f"x = a[{k}];", ARR), s, fuel=10, mode=mode) for k in (0, 3, 4, -1)]
    compile_program.cache_clear()
    assert [out.state["x"] for out in outs[:2]] == [1, 2]
    assert outs[2:] == [Undefined("index 4 out of bounds for a[4]"),
                        Undefined("index -1 out of bounds for a[4]")]
    assert checked == [4, -1]


def test_division_truncates_toward_zero():
    assert cdiv(7, 2) == 3
    assert cdiv(-7, 2) == -3
    assert cdiv(7, -2) == -3
    assert cmod(-7, 2) == -1
    assert cmod(7, -2) == 1
    assert cdiv(-7, 2) * 2 + cmod(-7, 2) == -7

    def ref_div(a, b):  # by sign and magnitude
        q = abs(a) // abs(b)
        return q if (a < 0) == (b < 0) else -q

    rng = random.Random(1919)
    big = 2**70
    pairs = [(a, b) for a in (2**63, -(2**63), 2**64 + 1, -(2**64) - 1)
             for b in (7, -7, 2**63 - 1, -(2**63))]
    pairs += [tuple(rng.choice((rng.randint(-9, 9), rng.randint(-big, big))) for _ in "ab")
              for _ in range(20000)]
    for a, b in pairs:
        if b == 0:
            for f in (cdiv, cmod):
                with pytest.raises(interp.UndefinedEval):
                    f(a, b)
            continue
        q = ref_div(a, b)
        assert (cdiv(a, b), cmod(a, b)) == (q, a - b * q)


def test_python_compiler_limits_are_user_errors():
    state = SP.state({"x": 0})
    for program in ("while (x < 1) { " * 25 + "skip;" + " }" * 25,
                    "if (x < 1) { " * 99 + "skip;" + " }" * 99,
                    "x = " + " + ".join(["x"] * 220) + ";"):
        p = parse(program, SP)
        for mode in ("exact", "wide"):
            with pytest.raises(RelcorError, match="nested too deeply"):
                execute(p, state, 10, mode)
    with pytest.raises(RelcorError, match="nested too deeply"):
        PredicateSpec(SP, "x == " + " + ".join(["x"] * 220), "true")


def test_the_divergence_check_compiles_wherever_its_loop_does(checks, no_acceleration):
    # the longest chain of additions that Python compiles in a checked
    # loop's body, and in its guard, where exact mode has no check: the
    # check's interval arithmetic is flat
    state = SP.state({"x": 0})
    for template in ("while (x >= 0) {{ x = {}; }}", "while ({} >= 0) {{ x = x - 0; }}"):
        def program(terms):
            return parse(template.format(" + ".join(["x"] * terms)), SP)

        terms = 1
        while True:
            try:
                compile_program(program(terms + 1), SP, "exact")
            except RelcorError:
                break
            terms += 1
        assert terms >= 150
        checks.clear()
        assert execute(program(terms), state, 100, "wide") == NonTermination()
        assert checks == [True]


def _conclusive_fuel(p, space: StateSpace) -> int:
    """Fuel that no terminating exact-mode run of `p` on `space` exhausts:
    the sum over its loops of |space x block locals in scope|, plus one.  A
    terminating deterministic run never revisits a (loop, state) pair, so
    each loop completes at most that many iterations in one run."""

    def bound(s, size: int) -> int:
        if isinstance(s, While):
            return size + bound(s.body, size)
        if isinstance(s, A.Block):
            return bound(s.body, size * s.interval.size)
        if isinstance(s, A.Seq):
            return bound(s.first, size) + bound(s.second, size)
        if isinstance(s, A.If):
            return bound(s.then, size)
        if isinstance(s, A.IfElse):
            return bound(s.then, size) + bound(s.orelse, size)
        return 0

    return bound(p, space.num_states) + 1


class _FuelOnlyEmitter(interp._Emitter):
    """Exact-mode loops without repeat detection: fuel alone bounds them."""

    def stmt(self, s, depth):
        if not isinstance(s, While):
            return super().stmt(s, depth)
        self.emit(depth, f"while {self.cond(s.cond)}:")
        self.stmt(s.body, depth + 1)
        self.emit(depth + 1, "fuel -= 1")
        self.emit(depth + 1, "if fuel < 0: raise _NoEnd()")


def test_repeat_detection_changes_no_outcome(monkeypatch):
    rng = random.Random(808)
    cases = []
    for _ in range(300):
        sp = program_space(rng, max_states=60)
        p = random_program(rng, sp, unassigned_reads=False)
        cases.append((p, sp))
    # a loop that changes only a block local still ends
    cases.append((parse("{ int t : 0..3; t = 0; while (t < 3) { t = t + 1; } x = t; }", SP), SP))

    def outcomes(top):  # the last fuel: unbounded, or one no terminating run exhausts
        compile_program.cache_clear()
        return [[execute(p, s, fuel, "exact") for s in sp.states()
                 for fuel in (0, 1, 7, top(p, sp))] for p, sp in cases]

    new = outcomes(lambda p, sp: UNBOUNDED)
    monkeypatch.setattr(interp, "_Emitter", _FuelOnlyEmitter)
    try:  # fuel alone never ends a run at unbounded fuel
        old = outcomes(_conclusive_fuel)
    finally:
        compile_program.cache_clear()
    assert new == old
    kinds = {type(out) for outs in new for out in outs}
    assert kinds == {FinalState, NonTermination, Undefined}


def test_exact_runs_at_unbounded_fuel_end_as_fuel_alone_ends_them(monkeypatch):
    """On random programs with loops in loops and block locals in loops,
    every exact run at unbounded fuel ends, with the outcome that loops
    without repeat detection give at a fuel that no terminating run
    exhausts."""
    rng = random.Random(818)
    cases, inner = [], Counter()
    while min(inner[While], inner[A.Block]) < 40:  # programs with each kind within a loop
        sp = program_space(rng, max_states=40)
        p = random_program(rng, sp, unassigned_reads=False)
        within = {type(n) for loop in preorder(p) if isinstance(loop, While)
                  for n in preorder(loop.body) if isinstance(n, (While, A.Block))}
        inner.update(within)
        if within:
            cases.append((p, sp))

    def outcomes(fuel):
        compile_program.cache_clear()
        return [execute(p, s, fuel(p, sp), "exact") for p, sp in cases for s in sp.states()]

    new = outcomes(lambda p, sp: UNBOUNDED)
    monkeypatch.setattr(interp, "_Emitter", _FuelOnlyEmitter)
    try:
        old = outcomes(_conclusive_fuel)
    finally:
        compile_program.cache_clear()
    assert new == old
    assert {type(out) for out in new} == {FinalState, NonTermination, Undefined}


class _WideFuelOnlyEmitter(interp._Emitter):
    """Wide-mode loops without the divergence check: fuel alone bounds them."""

    def stmt(self, s, depth):
        if self.exact or not isinstance(s, While):
            return super().stmt(s, depth)
        self.emit(depth, f"while {self.cond(s.cond)}:")
        self.stmt(s.body, depth + 1)
        self.emit(depth + 1, "fuel -= 1")
        self.emit(depth + 1, "if fuel < 0: raise _NoEnd()")


WIDE = StateSpace((("x", Interval(-4, 4)), ("y", Interval(-2, 2))))
ABC = StateSpace(tuple((n, Interval(0, 1)) for n in "abc"))

# loops the divergence check accepts, on WIDE: rising, falling and unchanged
# variables, `/` and `%` by literals of both signs on dividends of both signs,
# a block local in scope, and loops that end late, some of them only after
# the first check point, where a box check that is wrong by one comparison,
# one sign or one connective would claim them
BOXABLE_LOOPS = (
    "y = 20; while (x < 100) { x = x - y; y = y - 1; }",
    "while (x < 8) { x = x + 1 - x / 8; }",
    "while (x != 8) { x = x + 1; }",
    "x = x + 10; while (x % 3 >= 0) { x = x - 1; }",
    "while (x / -2 > -5) { x = x + 1; }",
    "while (x < 20 || x < 10) { x = x + 1; }",
    "while (x < 20 && x > -5) { x = x + 1; }",
    "while (!(x >= 20)) { x = x + 1; }",
    "while (-x > -20) { x = x + 1; }",
    "while (x <= 7) { x = x + 1 - x / 8; }",
    "while (x / 10 == 0) { x = x + 1; }",
    "x = 8; while (x != 0) { x = x - 1; }",
    "while (x * 2 > -20) { x = x - 1; }",
    "while (x > 0) { x = x + 1; }",
    "while (x < 3) { x = x - y; }",
    "while (x <= 4) { x = x * 2 - 1; y = y + x; }",
    "while (x % 3 < 3) { x = x + 1; }",
    "while (x % -3 > -3) { x = x - 2; }",
    "while (x / -2 <= 0) { x = x + 3; }",
    "while (x / 2 != 0) { x = x / 2; }",
    "while (x != 7) { x = x / -2 - 3; y = y % 2; }",
    "while (x >= y) { x = x + x % -2 + 2; y = y - 1; }",
    "while (!(x < -100) && y * 0 == 0) { x = x - 1; }",
    "while (x * x >= 0) { x = x * -1; }",
    "while (true) { skip; }",
    "{ int t; t = x; while (t < 100000) { t = t - 1; } x = t; }",
    "{ int t; t = 0; while (t < 50) { t = t + 1; x = x + t; } }",
    "while (x < 200) { x = x + 1; }",
    "while (y < 100) { y = y + x; x = x + 1; }",
)

# loops whose bodies hold more than assignments, on WIDE: an inner loop
# that the box check follows to its end, one longer than it follows, one
# whose end the box cannot decide, an `if` it cannot decide, and block
# locals and `if`-`else`s that it decides either way
NESTED_LOOPS = (
    "while (x >= 0) { y = 0; while (y < 10) { y = y + 1; } x = x + 1; }",
    "while (x >= 0) { y = 0; while (y < 20) { y = y + 1; } x = x + 1; }",
    "while (x >= 0) { y = x; while (y > 0) { y = y - 1; } x = x + 1; }",
    "while (x > -100) { if (x % 2 == 0) { y = y + 1; } x = x + 1; }",
    "while (x != 5) { int t; t = x; if (t > 0) { x = x + 1; } else { x = x - 1; } }",
    "while (y >= x) { { int t; t = y - x; y = y + t % 3; } if (x < 0) { x = x - 1; } }",
    "while (x < 50) { while (y < 3) { y = y + 1; } if (y == 3) { x = x + 1; } }",
)


# -- the interpreted recurrent-box check, the compiled check's reference -----------
#
# An interval is a pair (lo, hi); lo is an int or -inf, hi an int or +inf.


def _ref_ival(e, env: dict):
    """The interval of expression `e` where each variable ranges over its
    interval in `env`; exact when every interval is a single value."""
    if isinstance(e, A.IntLit):
        return (e.value, e.value)
    if isinstance(e, A.Var):
        return env[e.name]
    if isinstance(e, A.Neg):
        lo, hi = _ref_ival(e.operand, env)
        return (-hi, -lo)
    lo, hi = _ref_ival(e.left, env)
    if e.op in "/%":  # by a non-zero literal
        c = e.right.value
        if e.op == "/":  # truncation is monotone in the dividend
            return ((interp._div(lo, c), interp._div(hi, c)) if c > 0
                    else (interp._div(hi, c), interp._div(lo, c)))
        if lo == hi:
            return (cmod(lo, c), cmod(lo, c))
        m = abs(c) - 1  # the remainder takes the dividend's sign, |r| <= min(|x|, m)
        return (0 if lo >= 0 else max(lo, -m), 0 if hi <= 0 else min(hi, m))
    rlo, rhi = _ref_ival(e.right, env)
    if e.op == "+":
        return (interp._add(lo, rlo), interp._add(hi, rhi))
    if e.op == "-":
        return (interp._add(lo, -rhi), interp._add(hi, -rlo))
    ends = [interp._mul(x, y) for x in (lo, hi) for y in (rlo, rhi)]
    return (min(ends), max(ends))


def _ref_cmp(op: str, a, b):
    """True if `a op b` holds for every pair of values in the intervals,
    False if for none, None if it depends."""
    if op in (">", ">="):
        op, a, b = ("<" if op == ">" else "<="), b, a
    if op == "<":
        return True if a[1] < b[0] else False if a[0] >= b[1] else None
    if op == "<=":
        return True if a[1] <= b[0] else False if a[0] > b[1] else None
    same = a[0] == a[1] == b[0] == b[1]
    apart = a[1] < b[0] or b[1] < a[0]
    eq = True if same else False if apart else None
    return eq if op == "==" or eq is None else not eq


def _ref_degree(e):
    """A bound on the degree of expression `e` as a polynomial, or None if
    it divides or reads an array."""
    if isinstance(e, (A.IntLit, A.Var)):
        return int(isinstance(e, A.Var))
    if isinstance(e, A.Neg):
        return _ref_degree(e.operand)
    if not isinstance(e, A.BinOp) or e.op in "/%":
        return None
    left, right = _ref_degree(e.left), _ref_degree(e.right)
    if left is None or right is None:
        return None
    return left + right if e.op == "*" else max(left, right)


@lru_cache(maxsize=None)
def _ref_constant_gap(c):
    """The value of `c.left - c.right` where it is one value on every state,
    else None; None too where a side divides or reads an array.  Found
    without expanding it: a polynomial of degree at most d in each of its m
    variables that takes one value on the grid {0..d}^m is constant.  (The
    compiled check expands the sides and gives up past `acceleration._TERMS`
    terms, which no guard of these tests reaches.)"""
    degrees = (_ref_degree(c.left), _ref_degree(c.right))
    if None in degrees:
        return None
    names = sorted({n.name for side in (c.left, c.right) for n in preorder(side)
                    if isinstance(n, A.Var)})
    gaps = set()
    for point in product(range(max(degrees) + 1), repeat=len(names)):
        env = {n: (v, v) for n, v in zip(names, point)}
        gaps.add(_ref_ival(c.left, env)[0] - _ref_ival(c.right, env)[0])
    return gaps.pop() if len(gaps) == 1 else None


def _ref_holds(c, env: dict):
    """True if condition `c` holds on every state of the box `env`, False
    if on none, None if it depends.  A comparison whose sides differ by a
    constant is decided by that constant alone."""
    if isinstance(c, A.BoolLit):
        return c.value
    if isinstance(c, A.Cmp):
        gap = _ref_constant_gap(c)
        if gap is not None:
            return _ref_cmp(c.op, (gap, gap), (0, 0))
        return _ref_cmp(c.op, _ref_ival(c.left, env), _ref_ival(c.right, env))
    if isinstance(c, A.Not):
        v = _ref_holds(c.operand, env)
        return None if v is None else not v
    left, right = _ref_holds(c.left, env), _ref_holds(c.right, env)
    if isinstance(c, A.And):
        return False if False in (left, right) else left and right
    return True if True in (left, right) else None if None in (left, right) else False


def _ref_paths(s):
    """Each path through statement `s`, as the variables it reads and
    assigns in order, ("read", names) and ("write", name): each `if` taken
    both ways and each loop run zero times or once, which is enough to
    find every variable that some path reads before it assigns it."""
    def reads(node):
        return [("read", {n.name for n in preorder(node) if isinstance(n, A.Var)})]

    if isinstance(s, A.Assign):
        yield reads(s.expr) + [("write", s.target.name)]
    elif isinstance(s, A.Seq):
        for first in _ref_paths(s.first):
            for second in _ref_paths(s.second):
                yield first + second
    elif isinstance(s, A.Block):  # a local starts at 0 in wide mode
        for path in _ref_paths(s.body):
            yield [("write", s.name)] + path
    elif isinstance(s, (A.If, A.IfElse, A.While)):
        taken = s.body if isinstance(s, A.While) else s.then
        skipped = s.orelse if isinstance(s, A.IfElse) else A.Skip()
        for branch in (taken, skipped):
            for path in _ref_paths(branch):
                yield reads(s.cond) + path
    else:
        yield []


@lru_cache(maxsize=None)
def _ref_live(loop) -> set:
    """The variables that some path through the guard and the body of
    `loop` reads before it assigns them."""
    live = set()
    for path in _ref_paths(A.Seq(A.If(loop.cond, A.Skip()), loop.body)):
        written = set()
        for kind, names in path:
            if kind == "read":
                live |= names - written
            else:
                written.add(names)
    return live


class _GaveUp(Exception):
    pass


def _ref_run(s, env: dict) -> dict:
    """The box `env` after statement `s`, along the one path that the box
    decides; gives up where a guard is neither certain nor impossible on
    it, or where an inner loop would make `interp._UNROLL` iterations.  On
    a box of single values this is a concrete run."""
    if isinstance(s, A.Assign):
        return {**env, s.target.name: _ref_ival(s.expr, env)}
    if isinstance(s, A.Seq):
        return _ref_run(s.second, _ref_run(s.first, env))
    if isinstance(s, A.Block):
        out = _ref_run(s.body, {**env, s.name: (0, 0)})
        return {n: v for n, v in out.items() if n != s.name}
    if isinstance(s, (A.If, A.IfElse)):
        holds = _ref_holds(s.cond, env)
        if holds is None:
            raise _GaveUp("an undecided if")
        if holds:
            return _ref_run(s.then, env)
        return _ref_run(s.orelse, env) if isinstance(s, A.IfElse) else env
    if isinstance(s, A.While):
        for _ in range(interp._UNROLL):
            holds = _ref_holds(s.cond, env)
            if holds is None:
                raise _GaveUp("an undecided inner loop")
            if not holds:
                return env
            env = _ref_run(s.body, env)
        raise _GaveUp("an inner loop past the bound")
    return env


def _ref_check(loop, values: tuple) -> str:
    """Whether `loop`, at the head with its variables (sorted by name, but
    for its body's block locals) at `values`, can never exit: "proved", or
    why not.  One concrete step, a box grown from it over the variables
    whose values at the head an iteration may read, the guard on the whole
    box and the box's image inside the box.  The other variables are left
    out of both, so that reading one of them would raise a KeyError."""
    local = {n.name for n in preorder(loop.body) if isinstance(n, A.Block)}
    names = sorted({n.name for part in (loop.cond, loop.body) for n in preorder(part)
                    if isinstance(n, (A.Var, A.VarTarget)) and n.name not in local})
    live = _ref_live(loop)
    here = {n: v for n, v in zip(names, values) if n in live}
    try:
        after = _ref_run(loop.body, {n: (v, v) for n, v in here.items()})
    except _GaveUp as e:
        return f"the concrete step: {e}"
    box = {}
    for n, v in here.items():
        w = after[n][0]
        box[n] = (v, INF) if w > v else (-INF, v) if w < v else (v, v)
    if _ref_holds(loop.cond, box) is not True:
        return "the guard on the box"
    try:
        image = _ref_run(loop.body, box)
    except _GaveUp as e:
        return f"the box: {e}"
    if all(box[n][0] <= image[n][0] and image[n][1] <= box[n][1] for n in box):
        return "proved"
    return "the image"


def _ref_diverges(loop, values: tuple) -> bool:
    return _ref_check(loop, values) == "proved"


def test_divergence_proofs_change_no_outcome(monkeypatch, checks, no_acceleration):
    rng = random.Random(909)
    cases = [(random_program(rng, sp, wide=True), sp)
             for sp in (program_space(rng, max_states=60) for _ in range(300))]
    cases += [(random_straight_loop(rng, sp), sp)
              for sp in (program_space(rng, max_states=60) for _ in range(200))]
    runs = [(p, s) for p, sp in cases for s in rng.sample(list(sp.states()), min(4, sp.num_states))]
    runs += [(parse(src, WIDE), s) for src in BOXABLE_LOOPS for s in WIDE.states()]
    fuels = (0, 1, 7, 8, 9, 100, 10**4)

    def outcomes():
        compile_program.cache_clear()
        return [execute(p, s, fuel, "wide") for p, s in runs for fuel in fuels]

    new = outcomes()
    monkeypatch.setattr(interp, "_Emitter", _WideFuelOnlyEmitter)
    try:
        old = outcomes()
    finally:
        compile_program.cache_clear()
    assert new == old
    assert {type(out) for out in new} == {FinalState, NonTermination, Undefined}
    assert checks.count(True) > 1000 and checks.count(False) > 1000


def test_only_programs_with_a_boxable_loop_compile_differently(monkeypatch):
    sources = []
    define, emitter = interp._define, interp._Emitter
    monkeypatch.setattr(interp, "_define",
                        lambda em, name: sources.append("\n".join(em.lines)) or define(em, name))

    def source(p, sp, mode, emitter_class):
        monkeypatch.setattr(interp, "_Emitter", emitter_class)
        compile_program.cache_clear()
        compile_program(p, sp, mode)
        return sources[-1]

    rng = random.Random(910)
    cases = []
    for i in range(200):
        sp = program_space(rng, max_states=60)
        cases.append((random_program(rng, sp, wide=True) if i % 2
                      else random_straight_loop(rng, sp), sp))
    cases += [(random_accelerable_loop(rng, ABC), ABC) for _ in range(20)]
    changed = accelerated = 0
    try:
        for p, sp in cases:
            loops = [n for n in preorder(p) if isinstance(n, While) and interp._boxable(n)]
            checked = [n for n in loops if closed_form(n, interp._V) is None]
            for mode in ("exact", "wide"):
                if mode == "exact" and reads_a_local_unassigned(p):
                    for emitter_class in (emitter, _WideFuelOnlyEmitter):
                        with pytest.raises(RelcorError, match="read before it is assigned"):
                            source(p, sp, mode, emitter_class)
                    continue
                new = source(p, sp, mode, emitter)
                old = source(p, sp, mode, _WideFuelOnlyEmitter)
                assert (new != old) == (mode == "wide" and bool(loops))
                # an accelerated loop has no check point
                assert ("_fuel0" in new) == (mode == "wide" and bool(checked))
                changed += new != old
                accelerated += new != old and len(checked) < len(loops)
    finally:
        compile_program.cache_clear()
    assert 70 < changed < 170 and accelerated > 20


def test_an_inner_loop_entered_again_does_not_restart_its_schedule(checks, no_acceleration):
    # the inner loop is entered afresh on each of about 900 outer iterations
    # and runs 10 iterations each time, yet each loop checks only as the
    # run's consumed fuel reaches 8, 16, ..., 8192, and no check proves the
    # outer loop, which exhausts the fuel
    p = parse("while (x < 1000) { y = 0; while (y < 10) { y = y + 1; } x = x + 1; }", WIDE)
    assert execute(p, WIDE.state({"x": 0, "y": 0}), 10**4, "wide") == NonTermination()
    assert 10 < len(checks) <= 2 * 11 and not any(checks)


def _shared_checks(consumed: int) -> int:
    """The checks that a schedule shared by all the loops of a run makes by
    the time the run has consumed `consumed` fuel: at most one as that
    reaches each of 8, 16, 32, ..."""
    return sum(1 for j in range(64) if interp._CHECK_FROM << j <= consumed)


def test_sibling_loops_check_no_more_than_a_shared_schedule_plus_one_each(checks,
                                                                         no_acceleration):
    """A run through two sibling checked loops makes no more checks than
    one schedule shared by its loops would, plus one per checked loop that
    it enters: a loop entered late may check at its first iteration."""
    # the first loop checks as 8 fuel is consumed and exits; the second
    # checks at 9, 18 and 36, where a shared schedule would check at 16 and 32
    p = parse("while (x < 8) { x = x + 1; } while (y < 40) { y = y + 1; }", WIDE)
    assert execute(p, WIDE.state({"x": 0, "y": 0}), 100, "wide").state["y"] == 40
    assert len(checks) == 4 == _shared_checks(48) + 1
    rng = random.Random(916)
    sp = StateSpace(tuple((n, Interval(-9, 9)) for n in "abcd"))
    both_checked = beyond = 0
    for _ in range(500):
        # counting loops, iterated here, often end only after a check or more
        loops = (random_accelerable_loop(rng, sp), random_accelerable_loop(rng, sp))
        first, both = (interp._own_step(0, p, sp, False) for p in (loops[0], A.Seq(*loops)))
        guards = [compile_eval(loop.cond, sp) for loop in loops]
        for _ in range(4):
            values = tuple(rng.randint(-9, 9) for _ in "abcd")
            for fuel in (9, 100, 10**4):
                checks.clear()
                between = run_outcome(first, values, fuel)  # the state after the first loop
                entered = guards[0](values) + (type(between) is tuple and guards[1](between[0]))
                in_first = len(checks)
                checks.clear()
                out = run_outcome(both, values, fuel)
                consumed = fuel - out[1] if type(out) is tuple else fuel
                assert len(checks) <= _shared_checks(consumed) + entered, (loops, values, fuel)
                both_checked += 0 < in_first < len(checks)
                beyond += len(checks) > _shared_checks(consumed)
    assert both_checked > 40 and beyond > 10


def test_the_box_check_proves_loops_that_keep_their_direction(checks, no_acceleration):
    # 0 * inf = 0, a negative factor, `%` and `/` of a falling dividend, a
    # negated falling value, and assignments taken in their order; the sides
    # of `x * 0 < 1` cancel, so it is decided without 0 * inf, but not those
    # of `x * 0 < y + 1`
    for src in ("while (x * 0 < 1) { x = x + 1; }", "while (x * 0 < y + 1) { x = x + 1; }",
                "while (x * -1 < 5) { x = x + 1; }",
                "while (x % 3 > -3) { x = x - 1; }", "while (x / -2 >= 0) { x = x - 1; }",
                "while (-x >= 0 && y == 0) { x = x - 1; }", "while (x < 5) { x = x + 1; x = 0; }"):
        checks.clear()
        p = parse(src, WIDE)
        assert execute(p, WIDE.state({"x": 0, "y": 0}), 10**4, "wide") == NonTermination()
        assert checks == [True], src


def test_the_compiled_box_check_proves_what_the_interpreted_one_proves(monkeypatch,
                                                                       no_acceleration):
    """At every check point of wide runs at fuel 10^4, the compiled check
    answers as the interpreted reference does, on the loops above and on
    random straight and nested loops.  The checks of nested loops give up
    for every reason the reference knows."""
    answers, reasons = [], Counter()  # (compiled, interpreted); why nested checks answer
    recurrence = interp._recurrence

    def compared(loop):
        names, check = recurrence(loop)

        def both(*values):
            reason = _ref_check(loop, values)
            if holds_more_than_assignments(loop):
                reasons[reason] += 1
            answers.append((check(*values), reason == "proved"))
            return answers[-1][0]
        return names, both

    monkeypatch.setattr(interp, "_recurrence", compared)
    compile_program.cache_clear()
    rng = random.Random(912)
    # comparisons and connectives under a negation, whose "holds on none"
    # decides, some at a bound that the first check point reaches exactly
    negated = ("while (!(x > 20 || x < -100)) { x = x - 1; }",
               "while (!(x > 20 && x < -100)) { x = x - 1; }",
               "while (!(y != 0) && x < 100) { x = x - 1; }",
               "while (!(x <= 12) || x < 13) { x = x + 1; }",
               "while (!(x < 12) || x < 12) { x = x + 1; }")
    runs = [(parse(src, WIDE), s)
            for src in (*BOXABLE_LOOPS, *negated, *NESTED_LOOPS) for s in WIDE.states()]
    for make in (random_straight_loop, random_nested_loop):
        for _ in range(200):
            sp = program_space(rng, max_states=60)
            p = make(rng, sp)
            runs += [(p, s) for s in rng.sample(list(sp.states()), min(4, sp.num_states))]
    try:
        for p, s in runs:
            execute(p, s, 10**4, "wide")
    finally:
        compile_program.cache_clear()
    assert [got for got, _ in answers] == [want for _, want in answers]
    proved = sum(got for got, _ in answers)
    assert proved > 300 and len(answers) - proved > 300
    assert set(reasons) >= {"proved", "the concrete step: an inner loop past the bound",
                            "the box: an undecided if", "the box: an undecided inner loop"}
    assert reasons["proved"] > 100


def test_the_fermat_level1_batch_makes_6301_checks_and_563_proofs(checks):
    """432 proofs of loops whose bodies are assignments, and 131 of the outer
    loop, which holds a loop and an `if`: the runs of mutants 20 and 22
    that would exhaust their fuel, whose inner loops set r to 0 or to 1.
    The counting loops (the first loop and the inner one, of the base and
    of most mutants) are accelerated and make no check; with acceleration
    off the batch makes 14,088 checks and 1,122 proofs, 991 of them of
    loops of assignments."""
    from relcor.studies import fermat

    built = fermat.build()
    outcome_row.cache_clear()
    try:
        labels = classify_mutants(built["base"], generate(built["base"], ("AORB",)),
                                  built["spec"], built["suite"], "testing", fermat.FUEL)
    finally:
        outcome_row.cache_clear()
    assert len(labels) == 48
    assert len(checks) == 6301 and checks.count(True) == 563


def test_a_squaring_loop_is_proved_before_its_digits_blow_up():
    p = parse("while (x > 0) { x = x * x; }", WIDE)
    start = time.perf_counter()
    assert execute(p, WIDE.state({"x": 2, "y": 0}), 10**9, "wide") == NonTermination()
    assert time.perf_counter() - start < 0.5


def test_loops_that_end_late_are_not_claimed(no_acceleration):
    p = parse("while (x < 1000000) { x = x + 1; }", WIDE)
    out = execute(p, WIDE.state({"x": 0, "y": 0}), 10**6, "wide")
    assert isinstance(out, FinalState) and out.state.values == (1000000, 0)
    from relcor.studies import fermat

    built = fermat.build()
    assert len(built["suite"].inputs) == 75
    for s in built["suite"].inputs:
        assert isinstance(execute(built["correct"], s, fermat.FUEL, "wide"), FinalState)


def test_loops_outside_the_boxable_fragment_are_left_to_fuel(no_acceleration):
    for src in ("x = 0; i = 0; while (i >= 0) { x = x + a[i % 4]; i = i + 1; }",
                "while (i >= 0) { if (x % (i + 1) < 3) { i = i + 1; } }",
                "while (i >= 0) { x = i / (x + 1); i = i + 1; }",
                "while (i >= 0) { i = i + 1; while (x < 0) { x = x / i; } }"):
        p = parse(src, ARR)
        assert "_rec0" not in compile_program(p, ARR, "wide").__globals__
        s = ARR.state({"a": (0, 0, 0, 0), "x": 0, "i": 0})
        assert execute(p, s, 1000, "wide") == NonTermination()
    for src in ("while (i >= 0) { i = i + 1; }", "while (i >= 0) { if (x < 3) { i = i + 1; } }"):
        p = parse(src, ARR)
        assert "_rec0" in compile_program(p, ARR, "wide").__globals__
        assert "_rec0" not in compile_program(p, ARR, "exact").__globals__


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


def test_capacity_errors_come_before_any_state_is_built():
    # 16 * 2^19 states at the 19th block pass the cap; the 20th block's do
    # not, and the recursion raises before it builds any; runs never build it
    sp = StateSpace((("x", Interval(0, 15)),))
    p = parse("".join(f"int t{i} : 0..1 = 0; " for i in range(20)) + "x = x;", sp)
    start = time.perf_counter()
    with pytest.raises(CapacityError):
        denote_structural(p, sp)
    assert time.perf_counter() - start < 1.0
    assert denote(p, sp) == identity(sp)
    # a space over the cap is refused by both routes before any state is built
    big = StateSpace(tuple((f"v{i}", Interval(0, 15)) for i in range(6)))
    for route in (denote, denote_structural):
        start = time.perf_counter()
        with pytest.raises(CapacityError):
            route(parse("v0 = v0;", big), big)
        assert time.perf_counter() - start < 1.0
