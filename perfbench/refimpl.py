"""Reference code of the benchmark, kept apart from relcor's own machinery.

* `generate_program` writes the seeded straight-line reference program of
  the `mutate_large` workload as source text and counts the mutation sites
  it wrote.
* `evaluate` is a small tree-walking evaluator over relcor's AST node
  classes.  It shares no code with relcor's code emitter, so the
  benchmark can recompute program outputs and verdicts without trusting
  the code it measures.
"""

from __future__ import annotations

VARS = ("w", "x", "y", "z")
VALUE_RANGE = (0, 7)

# Every template keeps each variable in 0..7 and is total: operands are
# non-negative and the only divisors are positive literals.  Each one holds
# three binary operators and two integer literals.
_TEMPLATES = (
    lambda v, a, b, rng: f"{v} = ({a} + {b} * {rng.randint(1, 7)}) % 8;",
    lambda v, a, b, rng: f"{v} = ({a} * {b} + {rng.randint(0, 7)}) % 8;",
    lambda v, a, b, rng: f"{v} = ({a} + 8 - {b}) % 8;",
    lambda v, a, b, rng: f"{v} = ({a} / {rng.randint(1, 3)} + {b}) % 8;",
)
_CMP = ("<", "<=", ">", ">=", "==", "!=")


def generate_program(rng, statements: int, if_every: int = 5):
    """Seeded reference program of `statements` top-level statements.

    Every `if_every`-th statement is an if/else holding two assignments, so
    the shape, and with it the number of mutation sites, is the same for
    every seed.  Returns (source, {"binops": n, "literals": n}).
    """
    lines = []
    assigns = conds = 0

    def assign(indent):
        nonlocal assigns
        assigns += 1
        template = rng.choice(_TEMPLATES)
        return indent + template(rng.choice(VARS), rng.choice(VARS), rng.choice(VARS), rng)

    for i in range(statements):
        if (i + 1) % if_every == 0:
            conds += 1
            a, op, k = rng.choice(VARS), rng.choice(_CMP), rng.randint(1, 6)
            lines.append(f"if ({a} {op} {k}) {{")
            lines.append(assign("  "))
            lines.append("} else {")
            lines.append(assign("  "))
            lines.append("}")
        else:
            lines.append(assign(""))
    return "\n".join(lines) + "\n", {"binops": 3 * assigns, "literals": 2 * assigns + conds}


# -- evaluator ---------------------------------------------------------------------

NONTERMINATION = ("nontermination",)
UNDEFINED = ("undefined",)


class _Undefined(Exception):
    pass


class _Diverged(Exception):
    pass


def _cdiv(a: int, b: int) -> int:
    if b == 0:
        raise _Undefined()
    q = abs(a) // abs(b)
    return q if (a < 0) == (b < 0) else -q


_ARITH = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": _cdiv,
    "%": lambda a, b: a - b * _cdiv(a, b),
}
_COMPARE = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}


class _Machine:
    def __init__(self, domains: dict | None, fuel: int):
        # domains: name -> (lo, hi) for scalars, (length, lo, hi) for arrays;
        # None means wide mode (unbounded integers, only index checks).
        self.domains = domains
        self.fuel = fuel

    def expr(self, e, env):
        kind = type(e).__name__
        if kind == "IntLit":
            return e.value
        if kind == "Var":
            return env[e.name]
        if kind == "ArrayRead":
            arr = env[e.name]
            i = self.expr(e.index, env)
            if not 0 <= i < len(arr):
                raise _Undefined()
            return arr[i]
        if kind == "Neg":
            return -self.expr(e.operand, env)
        if kind == "BinOp":
            return _ARITH[e.op](self.expr(e.left, env), self.expr(e.right, env))
        raise TypeError(f"not an expression: {e!r}")

    def cond(self, c, env) -> bool:
        kind = type(c).__name__
        if kind == "BoolLit":
            return c.value
        if kind == "Cmp":
            return _COMPARE[c.op](self.expr(c.left, env), self.expr(c.right, env))
        if kind == "Not":
            return not self.cond(c.operand, env)
        if kind == "And":
            return self.cond(c.left, env) and self.cond(c.right, env)
        if kind == "Or":
            return self.cond(c.left, env) or self.cond(c.right, env)
        raise TypeError(f"not a condition: {c!r}")

    def _in_domain(self, name, value) -> bool:
        if self.domains is None:
            return True
        lo, hi = self.domains[name][-2:]
        return lo <= value <= hi

    def stmt(self, s, env) -> None:
        kind = type(s).__name__
        if kind == "Skip":
            return
        if kind == "Abort":
            raise _Diverged()
        if kind == "Assign":
            t = s.target
            if type(t).__name__ == "VarTarget":
                value = self.expr(s.expr, env)
                if not self._in_domain(t.name, value):
                    raise _Undefined()
                env[t.name] = value
            else:
                arr = env[t.name]
                i = self.expr(t.index, env)
                if not 0 <= i < len(arr):
                    raise _Undefined()
                value = self.expr(s.expr, env)
                if not self._in_domain(t.name, value):
                    raise _Undefined()
                env[t.name] = arr[:i] + (value,) + arr[i + 1:]
        elif kind == "Seq":
            self.stmt(s.first, env)
            self.stmt(s.second, env)
        elif kind == "If":
            if self.cond(s.cond, env):
                self.stmt(s.then, env)
        elif kind == "IfElse":
            self.stmt(s.then if self.cond(s.cond, env) else s.orelse, env)
        elif kind == "While":
            while self.cond(s.cond, env):
                self.stmt(s.body, env)
                self.fuel -= 1
                if self.fuel < 0:
                    raise _Diverged()
        elif kind == "Block":
            saved = self.domains
            if saved is not None:
                iv = s.interval
                self.domains = {**saved, s.name: (iv.lo, iv.hi)}
                env[s.name] = iv.lo
            else:
                env[s.name] = 0
            self.stmt(s.body, env)
            del env[s.name]
            self.domains = saved
        else:
            raise TypeError(f"not a statement: {s!r}")


def evaluate(program, names: tuple, values: tuple, fuel: int, domains: dict | None = None):
    """Run `program` on one input; returns ("final", values), NONTERMINATION
    or UNDEFINED.  `domains` switches on exact mode (see `_Machine`)."""
    env = dict(zip(names, values))
    machine = _Machine(domains, fuel)
    try:
        machine.stmt(program, env)
    except _Undefined:
        return UNDEFINED
    except _Diverged:
        return NONTERMINATION
    return ("final", tuple(env[n] for n in names))


def classify(base_outs, cand_outs, expected) -> str:
    """Suite verdict of a candidate against its base, where `expected[i]` is
    the only output the spec relates to input i."""
    base_pass = [b == ("final", e) for b, e in zip(base_outs, expected)]
    cand_pass = [c == ("final", e) for c, e in zip(cand_outs, expected)]
    if all(cand_pass):
        return "absolutely_correct"
    if not any(b and not c for b, c in zip(base_pass, cand_pass)):
        if any(c and not b for b, c in zip(base_pass, cand_pass)):
            return "strictly_more_correct"
        return "as_correct"
    return "not_more_correct"
