"""Loop acceleration for wide mode, over a polynomial normal form.

A counting loop, one whose guard is a single `<`, `<=`, `>` or `>=` and
whose body is scalar assignments of `+`, `-`, `*` and negation alone, runs
in closed form when one iteration, taken symbolically over the head's
values, has this shape:

* each counter adds an amount that the loop leaves alone (invariant);
* each other assigned variable adds an amount that is affine in the
  counters, with invariant coefficients;
* the guard's `lhs - rhs` is affine in the assigned variables.

After k iterations each variable is then a polynomial of degree at most 2
in k, and so is the guard's `lhs - rhs`: the loop exits at the first k at
which that quadratic stops being positive, found exactly (`exit_count`),
and every variable takes its value there at once (Bozga, Iosif and
Konečný, "Fast acceleration of ultimately periodic relations", CAV 2010;
Frohn, "A calculus for modular loop acceleration", TACAS 2020).  The
interpreter's emitter compiles such a loop with `closed_form`, and the
divergence check decides a comparison whose sides differ by a constant
with `gap`.  Exact mode never needs this module, so it is imported on
first use.

A polynomial is a dict {monomial: coefficient} with no zero coefficient,
a monomial being a sorted tuple of the Python names of its factors: the
program's variables by their names in the emitted code and `_k`, the
iterations an accelerated loop makes.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt

from .ast_nodes import Assign, BinOp, Cmp, IntLit, Neg, Seq, Skip, Var, VarTarget, While, preorder

_BODY = (Seq, Skip, Assign, VarTarget, IntLit, Var, Neg, BinOp)
_TERMS = 64  # the most terms of a polynomial that is expanded or emitted


def _add(p: dict, q: dict, sign: int = 1) -> dict:
    out = dict(p)
    for m, c in q.items():
        out[m] = out.get(m, 0) + sign * c
        if not out[m]:
            del out[m]
    return out


def _mul(p: dict, q: dict) -> dict:
    out = {}
    for m, c in p.items():
        for n, d in q.items():
            mn = tuple(sorted(m + n))
            out[mn] = out.get(mn, 0) + c * d
    return {m: c for m, c in out.items() if c}


def polynomial(e, prefix: str, env: dict):
    """Expression `e` as a polynomial, each variable x read as its
    polynomial in `env` under `prefix + x`, or as itself; None if `e`
    divides, reads an array or expands past `_TERMS` terms."""
    if isinstance(e, IntLit):
        return {(): e.value} if e.value else {}
    if isinstance(e, Var):
        return env.get(prefix + e.name, {(prefix + e.name,): 1})
    if isinstance(e, Neg):
        p = polynomial(e.operand, prefix, env)
        return None if p is None else {m: -c for m, c in p.items()}
    if not isinstance(e, BinOp) or e.op in "/%":
        return None
    left, right = polynomial(e.left, prefix, env), polynomial(e.right, prefix, env)
    if left is None or right is None:
        return None
    p = _mul(left, right) if e.op == "*" else _add(left, right, 1 if e.op == "+" else -1)
    return p if len(p) <= _TERMS else None


def gap(c: Cmp, prefix: str):
    """The polynomial `c.left - c.right`, or None."""
    left, right = polynomial(c.left, prefix, {}), polynomial(c.right, prefix, {})
    return None if left is None or right is None else _add(left, right, -1)


def _subst(p: dict, table: dict, other: dict) -> dict:
    """Polynomial `p`, each of whose monomials holds at most one name of
    `table`, once: that name replaced by its polynomial there, and a
    monomial that holds none multiplied by `other`."""
    out = {}
    for m, c in p.items():
        x = next((v for v in m if v in table), None)
        out = _add(out, _mul({tuple(v for v in m if v != x): c}, table[x] if x else other))
    return out


def _source(p: dict) -> str:
    return " + ".join(" * ".join(m) if c == 1 and m else " * ".join((str(c), *m))
                      for m, c in p.items()) or "0"


@lru_cache(maxsize=4096)
def closed_form(loop: While, prefix: str):
    """The closed form of a counting loop whose variables are named
    `prefix + x` in the emitted code, or None if the loop is not one:
    Python sources of the integer coefficients (a, b, c) of the doubled
    guard, which holds after k iterations iff a*k*k + b*k + c > 0, and of
    the value of each variable that an iteration changes after `_k`
    iterations, by name."""
    cond = loop.cond
    if not (isinstance(cond, Cmp) and cond.op in ("<", "<=", ">", ">=")
            and all(isinstance(n, _BODY) for n in preorder(loop.body))):
        return None
    step = {}  # each assigned variable after one iteration, over the head's values
    for n in preorder(loop.body):
        if isinstance(n, Assign):
            step[prefix + n.target.name] = polynomial(n.expr, prefix, step)
    g = gap(cond, prefix)
    if g is None or None in step.values():
        return None
    delta = {x: _add(p, {(x,): 1}, -1) for x, p in step.items()}
    counters = {x: d for x, d in delta.items() if not any(step.keys() & set(m) for m in d)}

    def affine(p, over) -> bool:  # each monomial holds at most one assigned name, of `over`
        return all(len(a := [v for v in m if v in step]) == 0 or a[0] in over and len(a) == 1
                   for m in p)

    if not (affine(g, step) and all(affine(d, counters) for d in delta.values())):
        return None
    # twice the values after k iterations: a counter y adds its invariant d on
    # each, so twice its sum over them is 2*y*k + d*(k*k - k)
    k, kk = ("_k",), ("_k", "_k")
    sums = {y: _add({tuple(sorted((y, *k))): 2}, _mul(d, {kk: 1, k: -1}))
            for y, d in counters.items()}
    twice = {x: _add({(x,): 2}, _subst(d, sums, {k: 2})) for x, d in delta.items()}
    sign = 1 if cond.op in (">", ">=") else -1
    coef = [{}, {}, {}]  # c, b, a
    for m, v in _subst(g, twice, {(): 2}).items():
        coef[m.count("_k")][tuple(n for n in m if n != "_k")] = sign * v
    if cond.op in ("<=", ">="):  # g >= 0 iff 2*g + 2 > 0
        coef[0] = _add(coef[0], {(): 2})
    if any(len(p) > _TERMS for p in (*coef, *twice.values())):
        return None
    values = {x: _source({m: c // 2 for m, c in p.items()}) if all(c % 2 == 0 for c in p.values())
              else f"({_source(p)}) // 2" for x, p in twice.items() if p != {(x,): 2}}
    return (*map(_source, coef[::-1]), values)


def exit_count(a: int, b: int, c: int, fuel: int):
    """The first k in 1..fuel at which a*k*k + b*k + c <= 0, or None, where
    c > 0: after how many iterations an accelerated loop exits.  Plain
    integer arithmetic, with one integer square root of the discriminant
    where a != 0."""
    if a == 0:
        if b >= 0:
            return None
        k = -(c // b)  # the ceiling of c / -b
        return k if k <= fuel else None
    d = b * b - 4 * a * c
    if d < 0:
        return None  # no real root: it keeps the sign of c
    # it crosses 0 at (-b - sqrt(d)) / 2a, whose ceiling is k or, for a < 0, k + 1
    k = -((b + isqrt(d)) // (2 * a))
    if k < 1:
        k = 1
    if (a * k + b) * k + c > 0:
        k += 1
        if (a * k + b) * k + c > 0:
            return None
    return k if k <= fuel else None
