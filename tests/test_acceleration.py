"""Wide-mode loop acceleration (`relcor.lang.acceleration`): the exit count
against brute force, and accelerated loops against the fuel-only emitter
(`test_semantics._WideFuelOnlyEmitter`) and the benchmark's tree-walker
(`perfbench/refimpl.py`)."""

import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

from randgen import random_accelerable_loop
from relcor.lang import acceleration, interp
from relcor.lang.acceleration import closed_form, exit_count
from relcor.lang.interp import NonTermination, compile_program, run_outcome
from relcor.lang.parser import parse
from relcor.space import Interval, StateSpace
from test_refimpl import refimpl
from test_semantics import _WideFuelOnlyEmitter

SRC = Path(__file__).parent.parent / "src"


def _first_exit(a: int, b: int, c: int, fuel: int):
    return next((k for k in range(1, fuel + 1) if a * k * k + b * k + c <= 0), None)


def test_the_exit_count_is_the_first_k_at_which_the_quadratic_stops_being_positive(
        monkeypatch):
    """Random small quadratics of every sign of a, with and without an exit,
    quadratics scaled past 2^64 whose roots lie near chosen points in
    1..300, some exactly on an integer, so that the estimate from `isqrt`
    sometimes lands one below the exit, and double roots; fuels 0, 1,
    random, and exactly the exit.  No call takes more than one integer
    square root."""
    roots = []
    isqrt = acceleration.isqrt
    monkeypatch.setattr(acceleration, "isqrt", lambda d: roots.append(isqrt(d)) or roots[-1])
    rng = random.Random(2323)
    cases = []
    for _ in range(3000):
        a = rng.choice((0, rng.randint(-40, 40)))
        cases.append((a, rng.randint(-3000, 3000), rng.randint(1, 10**5)))
    for _ in range(3000):
        s, q = rng.randint(2**64, 2**100), rng.randint(1, 7)
        p1, p2 = rng.randint(1, 300 * q), rng.randint(-300 * q, 300 * q)
        if rng.random() < 0.3:  # linear
            cases.append((0, -s * q, s * p1 + rng.randint(-3, 3)))
        elif p2 > 0:  # s * (q*k - p1) * (q*k - p2), convex: both roots past 0
            cases.append((s * q * q, -s * q * (p1 + p2), s * p1 * p2 + rng.randint(-3, 3)))
        elif p2 < 0:  # the same, concave: one root past 0
            cases.append((-s * q * q, s * q * (p1 + p2), -s * p1 * p2 + rng.randint(-3, 3)))
    # a double root, which only an exit exactly there touches
    cases += [(s, -2 * s * r, s * r * r + e) for s in (1, 3, 2**70) for r in range(1, 30)
              for e in (0, 1)]
    kinds = set()
    below = 0
    for a, b, c in cases:
        if c <= 0:
            continue
        k = _first_exit(a, b, c, 10**4)
        for fuel in {0, 1, rng.randint(0, 400), k or 0}:
            roots.clear()
            got = exit_count(a, b, c, fuel)
            assert got == _first_exit(a, b, c, fuel), (a, b, c, fuel)
            assert len(roots) <= 1, (a, b, c, fuel)
            kinds.add((int(math.copysign(1, a)) if a else 0, got is None, got == fuel))
            if roots and got is not None:  # the estimate from isqrt's root
                estimate = -((b + roots[0]) // (2 * a))
                below += got > estimate
    assert {(sign, none, False) for sign in (-1, 0, 1) for none in (False, True)} <= kinds
    assert {(-1, False, True), (0, False, True), (1, False, True)} <= kinds
    assert below > 10


SPACE = StateSpace(tuple((n, Interval(0, 1)) for n in ("a", "b", "c", "d", "e")))


def _outcomes(p, runs) -> list:
    compile_program.cache_clear()
    run = compile_program(p, SPACE, "wide")
    return [run_outcome(run, values, fuel) for values, fuel in runs]


def _exit_fuel(run, values: tuple):
    """The least fuel at which `run` from `values` ends, or None."""
    lo, hi = 0, 10**40
    if run_outcome(run, values, hi) == NonTermination():
        return None
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if run_outcome(run, values, mid) != NonTermination() else (mid + 1, hi)
    return lo


def test_accelerated_loops_agree_with_the_fuel_only_emitter_and_the_tree_walker(monkeypatch):
    """Random counting loops from head values up to 10^30, many of them
    close to each other so that the loop exits soon, and loops whose guard's
    sides meet exactly, at each comparison, at fuels 0, 1, k - 1, k and
    k + 1 (k being the exit count, where it is at most 10^4) and 10^4."""
    rng = random.Random(2424)
    cases = [(parse(src, SPACE), (0, 0, 0, 0, 0)) for src in (
        "while (a <= 10) { a = a + 1; }", "while (a < 10) { a = a + 2; }",
        "while (10 >= b) { b = b + 2; a = a + b; }", "while (a - 12 > b) { a = a - 1; b = b + 1; }")]
    for _ in range(60):
        p = random_accelerable_loop(rng, SPACE)
        for _ in range(3):
            big = rng.randint(-10**30, 10**30)
            cases.append((p, tuple(rng.choice((rng.randint(-20, 20), big + rng.randint(-50, 50)))
                                   for _ in SPACE.names)))
    ends, no_end, compared = 0, 0, 0
    try:
        for p, values in cases:
            assert closed_form(p, interp._V) is not None, p
            compile_program.cache_clear()  # lest the fuel-only emitter's compile of p run
            k = _exit_fuel(compile_program(p, SPACE, "wide"), values)
            fuels = {0, 1, 10**4}
            if k is not None and k <= 10**4:
                fuels |= {k - 1, k, k + 1} - {-1}
            ends += k is not None and 0 < k <= 10**4
            no_end += k is None
            runs = [(values, fuel) for fuel in sorted(fuels)]
            got = _outcomes(p, runs)
            with monkeypatch.context() as fuel_only:
                fuel_only.setattr(interp, "_Emitter", _WideFuelOnlyEmitter)
                assert got == _outcomes(p, runs), (p, values)
            for out, (_, fuel) in zip(got, runs):
                ref = refimpl.evaluate(p, SPACE.names, values, fuel)
                assert out == (ref[1] if ref[0] == "final" else NonTermination()), (p, fuel)
                compared += 1
    finally:
        compile_program.cache_clear()
    assert ends > 30 and no_end > 30 and compared > 500


def test_a_billion_iterations_take_one_step():
    sp = StateSpace((("x", Interval(0, 1)),))
    run = compile_program(parse("while (x < 1000000000) { x = x + 1; }", sp), sp, "wide")
    start = time.perf_counter()
    assert run_outcome(run, (0,), 10**9) == (10**9,)
    assert time.perf_counter() - start < 0.5
    assert run_outcome(run, (0,), 10**9 - 1) == NonTermination()


def test_a_guard_that_expands_past_64_terms_is_left_to_fuel(monkeypatch):
    """`(a + b + c + d + e + 1)` to the 30th power has 324,632 terms; its
    expansion gives up past `acceleration._TERMS` (64), so the loop
    compiles at once and iterates, as the fuel-only emitter's does."""
    guard = " * ".join(["(a + b + c + d + e + 1)"] * 30)
    p = parse(f"while ({guard} > e) {{ e = e + 1; }}", SPACE)
    assert closed_form(p, interp._V) is None
    runs = [((0, 0, 0, 0, 0), 100), ((-1, 0, 0, 0, 0), 1)]
    start = time.perf_counter()
    got = _outcomes(p, runs)
    assert time.perf_counter() - start < 2
    monkeypatch.setattr(interp, "_Emitter", _WideFuelOnlyEmitter)
    try:
        assert got == _outcomes(p, runs) == [NonTermination(), (-1, 0, 0, 0, 0)]
    finally:
        compile_program.cache_clear()


def test_the_fermat_level1_rows_equal_those_of_the_fuel_only_emitter(monkeypatch):
    """The rows of the Fermat base and its 48 AORB mutants at the study's
    fuel, whose first and inner loops are accelerated and whose outer loop
    is checked, equal those of loops that fuel alone bounds."""
    from relcor import suites
    from relcor.mutate import generate
    from relcor.studies import fermat

    built = fermat.build()
    base = built["base"]
    mutants = [m.program for m in generate(base, ("AORB",))]
    monkeypatch.setattr(suites, "_FORK_AFTER_S", math.inf)

    def rows():
        suites.outcome_row.cache_clear()
        compile_program.cache_clear()
        return list(suites._batch_rows(base, mutants, built["suite"], fermat.FUEL, "wide"))

    try:
        accelerated = rows()
        monkeypatch.setattr(interp, "_Emitter", _WideFuelOnlyEmitter)
        assert accelerated == rows()
    finally:
        suites.outcome_row.cache_clear()
        compile_program.cache_clear()
    assert len(accelerated) == 49


def test_a_squaring_loop_whose_guard_sides_cancel_is_proved_at_fuel_10_4():
    """`v0 <= v0` holds on every box, as its sides cancel, so the divergence
    check proves the loop at its first check point, before the digits of
    v0, which double on every iteration, exhaust the machine's memory.  The
    run is made in a child process capped at 1 GiB of address space and
    20 s, so that a regression fails the test rather than the machine."""
    code = ("from relcor.lang.interp import execute\n"
            "from relcor.lang.parser import parse\n"
            "from relcor.space import Interval, StateSpace\n"
            "sp = StateSpace((('v0', Interval(-4, 4)),))\n"
            "p = parse('while (v0 <= v0) { v0 = v0 * v0 - v0 * -2; v0 = v0; }', sp)\n"
            "print(execute(p, sp.state({'v0': 4}), 10**4, 'wide'))\n")

    def cap():
        import resource

        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    child = subprocess.run([sys.executable, "-c", code], preexec_fn=cap, timeout=20,
                           capture_output=True, text=True,
                           env={**os.environ, "PYTHONPATH": str(SRC)})
    assert child.stdout.strip() == "NonTermination()", child.stderr
