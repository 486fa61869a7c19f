"""AST for the C-like toy language.

Nodes are frozen dataclasses.  `preorder` walks a tree in a fixed order
(node first, then dataclass fields left to right) and is the basis of the
deterministic site numbering used by the mutation operators;
`replace_nodes` rebuilds a tree with substitutions at given preorder
positions.

Trees share structure.  A tree built by `replace_nodes` is a new spine from
the root down to each substituted site, and every subtree off that spine is
the very object of the original tree.  `replace_nodes` steps over a subtree
that holds no site by its size (`size`, computed once per node and kept in
it), so once the original's sizes are known a single-site mutant costs
O(depth) time and O(depth) new nodes.

Every node keeps the structural hash its dataclass generates, but computes
it on first use and stores it in the instance (`space.hash_once`).  Hashing
a tree therefore touches each node once in its life; a mutant's first hash
touches only its new spine, and every later one is O(1).  That makes a
whole program a cheap key for the execution caches (`compile_program`,
`suites.outcome_row`, `suites.cached_execute`).  Equality is unchanged: equal trees still compare equal
and hash equal, whether or not they share nodes.

Nodes must never be mutated, not even with `object.__setattr__`: one node
may sit in many trees at once, and its stored hash and size would go stale.
"""

from __future__ import annotations

import dataclasses
from bisect import bisect_left
from dataclasses import dataclass

from ..space import Interval, hash_once


def _node(cls):
    """A frozen dataclass whose hash is computed once (see module docstring),
    with its field names, in order, in `_field_names`."""
    cls = hash_once(dataclass(frozen=True)(cls))
    cls._field_names = tuple(f.name for f in dataclasses.fields(cls))
    return cls


class Node:
    _field_names = ()

    def children(self) -> list:
        return [v for f in self._field_names if isinstance(v := getattr(self, f), Node)]


# -- expressions (integer-valued) ---------------------------------------------

ARITH_OPS = ("+", "-", "*", "/", "%")


@_node
class IntLit(Node):
    value: int


@_node
class Var(Node):
    name: str


@_node
class ArrayRead(Node):
    name: str
    index: Node


@_node
class BinOp(Node):
    op: str  # one of ARITH_OPS
    left: Node
    right: Node


@_node
class Neg(Node):
    operand: Node


# -- conditions (boolean-valued) ----------------------------------------------

CMP_OPS = ("<", "<=", ">", ">=", "==", "!=")


@_node
class BoolLit(Node):
    value: bool


@_node
class Cmp(Node):
    op: str  # one of CMP_OPS
    left: Node
    right: Node


@_node
class And(Node):
    left: Node
    right: Node


@_node
class Or(Node):
    left: Node
    right: Node


@_node
class Not(Node):
    operand: Node


# -- statements ----------------------------------------------------------------


@_node
class Abort(Node):
    pass


@_node
class Skip(Node):
    pass


@_node
class VarTarget(Node):
    name: str


@_node
class ArrayTarget(Node):
    name: str
    index: Node


@_node
class Assign(Node):
    target: Node  # VarTarget | ArrayTarget
    expr: Node


@_node
class Seq(Node):
    first: Node
    second: Node


@_node
class If(Node):
    cond: Node
    then: Node


@_node
class IfElse(Node):
    cond: Node
    then: Node
    orelse: Node


@_node
class While(Node):
    cond: Node
    body: Node


@_node
class Block(Node):
    """Scope of a local integer variable over the rest of the block."""

    name: str
    interval: Interval | None  # required for exact-mode semantics
    body: Node


# -- generic traversal and rebuilding -------------------------------------------


def preorder(node: Node) -> list:
    """All nodes in deterministic preorder (node before its children)."""
    out = [node]
    for c in node.children():
        out.extend(preorder(c))
    return out


def size(node: Node) -> int:
    """The number of nodes in the subtree, computed on first use and kept in
    the node.  Unlike a hash, a size is the same in every process, so it is
    pickled with the node."""
    try:
        return node._size
    except AttributeError:
        n = 1 + sum(size(c) for c in node.children())
        object.__setattr__(node, "_size", n)
        return n


def replace_nodes(node: Node, substitutions: dict):
    """Rebuild `node` replacing the nodes at the given preorder indices.

    `substitutions` maps preorder index -> replacement node.  Replaced
    subtrees are not descended into (their indices still count the original
    subtree's nodes, matching `preorder` on the original tree), so a
    substitution inside a replaced subtree is ignored, and so is an index
    outside the tree.

    Only the spine from the root to each site is rebuilt.  A child whose
    index range [i, i + size) holds no site, found by bisection in the
    sorted sites, is stepped over and returned as the same object.
    """
    sites = sorted(substitutions)

    def holds_site(lo: int, hi: int) -> bool:
        k = bisect_left(sites, lo)
        return k < len(sites) and sites[k] < hi

    def rebuild(n: Node, idx: int):
        if idx in substitutions:
            return substitutions[idx]
        pos = idx + 1
        values = []
        changed = False
        for name in n._field_names:
            v = getattr(n, name)
            if isinstance(v, Node):
                end = pos + size(v)
                if holds_site(pos, end):
                    new = rebuild(v, pos)
                    changed |= new is not v
                    v = new
                pos = end
            values.append(v)
        return type(n)(*values) if changed else n

    return rebuild(node, 0) if holds_site(0, size(node)) else node


# -- pretty printing -------------------------------------------------------------

_PREC = {"||": 1, "&&": 2, "+": 4, "-": 4, "*": 5, "/": 5, "%": 5}


def _expr_src(e: Node, parent_prec: int = 0) -> str:
    if isinstance(e, IntLit):
        return str(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, ArrayRead):
        return f"{e.name}[{_expr_src(e.index)}]"
    if isinstance(e, Neg):
        return f"-{_expr_src(e.operand, 6)}"
    if isinstance(e, BinOp):
        p = _PREC[e.op]
        s = f"{_expr_src(e.left, p)} {e.op} {_expr_src(e.right, p + 1)}"
        return f"({s})" if p < parent_prec else s
    raise TypeError(f"not an expression node: {e!r}")


def _cond_src(c: Node, parent_prec: int = 0) -> str:
    if isinstance(c, BoolLit):
        return "true" if c.value else "false"
    if isinstance(c, Cmp):
        return f"{_expr_src(c.left)} {c.op} {_expr_src(c.right)}"
    if isinstance(c, Not):
        return f"!({_cond_src(c.operand)})"
    if isinstance(c, And):
        s = f"{_cond_src(c.left, 2)} && {_cond_src(c.right, 3)}"
        return f"({s})" if parent_prec > 2 else s
    if isinstance(c, Or):
        s = f"{_cond_src(c.left, 1)} || {_cond_src(c.right, 2)}"
        return f"({s})" if parent_prec > 1 else s
    raise TypeError(f"not a condition node: {c!r}")


def to_source(s: Node, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(s, Skip):
        return f"{pad}skip;"
    if isinstance(s, Abort):
        return f"{pad}abort;"
    if isinstance(s, Assign):
        t = s.target
        lhs = t.name if isinstance(t, VarTarget) else f"{t.name}[{_expr_src(t.index)}]"
        return f"{pad}{lhs} = {_expr_src(s.expr)};"
    if isinstance(s, Seq):
        return f"{to_source(s.first, indent)}\n{to_source(s.second, indent)}"
    if isinstance(s, If):
        return (
            f"{pad}if ({_cond_src(s.cond)}) {{\n"
            f"{to_source(s.then, indent + 1)}\n{pad}}}"
        )
    if isinstance(s, IfElse):
        return (
            f"{pad}if ({_cond_src(s.cond)}) {{\n{to_source(s.then, indent + 1)}\n"
            f"{pad}}} else {{\n{to_source(s.orelse, indent + 1)}\n{pad}}}"
        )
    if isinstance(s, While):
        return (
            f"{pad}while ({_cond_src(s.cond)}) {{\n"
            f"{to_source(s.body, indent + 1)}\n{pad}}}"
        )
    if isinstance(s, Block):
        iv = f" : {s.interval.lo}..{s.interval.hi}" if s.interval else ""
        return f"{pad}int {s.name}{iv};\n{to_source(s.body, indent)}"
    raise TypeError(f"not a statement node: {s!r}")
