"""Recursive-descent parser for the toy language and its spec predicates.

Concrete syntax (C-like):

    stmt   := "skip" ";" | "abort" ";"
            | name "=" expr ";" | name "[" expr "]" "=" expr ";"
            | "int" name [":" int ".." int] ["=" expr] ";"   (block-local)
            | "if" "(" cond ")" body ["else" body]
            | "while" "(" cond ")" body
            | "{" stmt* "}"
    body   := "{" stmt* "}" | stmt
    expr   := term (("+"|"-") term)*
    term   := factor (("*"|"/"|"%") factor)*
    factor := int | name | name "[" expr "]" | "-" factor | "(" expr ")"
    cond   := conj ("||" conj)* ; conj := atom ("&&" atom)*
    atom   := "!" atom | "true" | "false" | expr cmpop expr | "(" cond ")"

A spec predicate (`parse_predicate`) is a `cond` over the variables of a
space.  In a relation predicate a primed name (`x'`, `a'[i]`) reads the
output value of that variable; it is a `Var` or `ArrayRead` whose name ends
in a prime.  The grammar is the whole language of predicates: there is no
other syntax for them, and the usual scope checks apply.

A block-local declaration scopes over the remaining statements of the
enclosing block.  The optional `: lo..hi` annotation gives the local's
finite domain, required for exact-mode semantics.  Scope checks always
apply: a name must be a variable of the space or a local in scope, and a
local may not redeclare either, as the interpreter and the semantics
refuse a local that shadows; sibling blocks may reuse a name.

A unary minus on an integer literal (`-1`, also `-(1)`) is read as a
negative `IntLit`, which is how `to_source` prints one, so
`parse(to_source(t)) == t` for every parsed tree and every mutant of one.

Statements may nest at most `MAX_NESTING` levels deep, where a statement's
level counts the statements and braces enclosing it and the statements
before it in its sequence (a sequence is a right-nested chain of `Seq`
nodes), so a straight-line program has at most `MAX_NESTING` statements.
Expressions and conditions continue their statement's count: a level
counts each enclosing operand, index, unary `-` or `!` and parenthesis, and
in a left-nested chain `a + b + c` each operator takes the chain before it
one level further down.  Nothing may lie `MAX_DEPTH` or more levels deep,
which leaves every statement at least `MAX_DEPTH - MAX_NESTING` levels for
its expressions; a predicate starts at level 0.  Every walk over a tree, the parser's own included, recurses once
per level, so a deeper input is rejected with a `ParseError` here instead
of failing later with a `RecursionError`.
"""

from __future__ import annotations

import re
from contextlib import contextmanager

from ..errors import ParseError
from ..space import Interval, StateSpace, ArrayDomain
from .ast_nodes import (
    Abort,
    And,
    ArrayRead,
    ArrayTarget,
    Assign,
    BinOp,
    Block,
    BoolLit,
    Cmp,
    If,
    IfElse,
    IntLit,
    Neg,
    Not,
    Or,
    Seq,
    Skip,
    Var,
    VarTarget,
    While,
)

KEYWORDS = {"skip", "abort", "if", "else", "while", "int", "true", "false"}

MAX_NESTING = 200
MAX_DEPTH = MAX_NESTING + 50

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+|//[^\n]*|/\*.*?\*/)"
    r"|(?P<num>\d+)"
    r"|(?P<name>[A-Za-z_]\w*)"
    r"|(?P<op>\.\.|<=|>=|==|!=|&&|\|\||[-+*/%<>=!(){};:,\[\]'])",
    re.S,
)


def _tokenize(text: str) -> list:
    toks = []
    pos = 0
    line, col = 1, 1
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        lexeme = m.group(0)
        kind = m.lastgroup
        if kind != "ws":
            toks.append((kind, lexeme, line, col))
        nl = lexeme.count("\n")
        if nl:
            line += nl
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col += len(lexeme)
        pos = m.end()
    toks.append(("eof", "", line, col))
    return toks


class _Parser:
    def __init__(self, text: str, declared: set, arrays: set, primed: bool = False):
        self.toks = _tokenize(text)
        self.i = 0
        self.declared = declared
        self.arrays = arrays
        self.primed = primed  # whether primed names (outputs) may be read
        self.locals: list[str] = []
        self.depth = 0  # nesting level of the node parsed next
        self.height = 0  # levels below the expression or condition parsed last

    def peek(self):
        return self.toks[self.i]

    def next(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def error(self, msg, tok=None):
        tok = tok or self.peek()
        raise ParseError(msg, tok[2], tok[3])

    def expect(self, lexeme):
        kind, lx, line, col = self.peek()
        if lx != lexeme:
            self.error(f"expected {lexeme!r}, found {lx or 'end of input'!r}")
        return self.next()

    def at(self, lexeme) -> bool:
        return self.peek()[1] == lexeme

    def at_name(self) -> bool:
        kind, lx, *_ = self.peek()
        return kind == "name" and lx not in KEYWORDS

    def check_var(self, name, tok, want_array=False):
        if name not in self.declared and name not in self.locals:
            self.error(f"undeclared variable {name!r}", tok)
        if want_array != (name in self.arrays):
            kind = "an array" if name in self.arrays else "a scalar"
            self.error(f"{name!r} is {kind}", tok)

    # -- statements ---------------------------------------------------------

    def end(self, tree):
        if self.peek()[0] != "eof":
            self.error(f"unexpected {self.peek()[1]!r}")
        return tree

    def check_depth(self):
        if self.depth >= MAX_NESTING:
            self.error(f"statements nest more than {MAX_NESTING} levels deep")

    def parse_stmts(self):
        stmts = []
        base = self.depth
        while not self.at("}") and self.peek()[0] != "eof":
            self.depth = base + len(stmts)
            if self.at("int"):
                stmts.append(self.parse_decl())
                break  # the declaration consumed the rest of the scope
            stmts.append(self.parse_stmt())
        self.depth = base
        if not stmts:
            return Skip()
        out = stmts[-1]
        for s in reversed(stmts[:-1]):
            out = Seq(s, out)
        return out

    def parse_decl(self):
        self.check_depth()
        self.expect("int")
        kind, name, line, col = self.next()
        if kind != "name" or name in KEYWORDS:
            raise ParseError("expected variable name after 'int'", line, col)
        if name in self.declared or name in self.locals:
            raise ParseError(f"redeclaration of {name!r}", line, col)
        interval = None
        if self.at(":"):
            self.next()
            interval = Interval(self.parse_int_bound(), self.parse_range_end())
        init = None
        if self.at("="):
            self.next()
            init = self.parse_expr()
        self.expect(";")
        self.locals.append(name)
        self.depth += 1 if init is None else 2  # Block, then Seq(init, rest)
        rest = self.parse_stmts()
        self.locals.pop()
        if init is not None:
            rest = Seq(Assign(VarTarget(name), init), rest)
        return Block(name, interval, rest)

    def parse_int_bound(self) -> int:
        sign = 1
        if self.at("-"):
            self.next()
            sign = -1
        kind, lx, line, col = self.next()
        if kind != "num":
            raise ParseError("expected integer bound", line, col)
        return sign * int(lx)

    def parse_range_end(self) -> int:
        self.expect("..")
        return self.parse_int_bound()

    def parse_stmt(self):
        self.check_depth()
        kind, lx, line, col = self.peek()
        if lx == "skip":
            self.next()
            self.expect(";")
            return Skip()
        if lx == "abort":
            self.next()
            self.expect(";")
            return Abort()
        if lx == "{":
            self.next()
            self.depth += 1
            body = self.parse_stmts()
            self.depth -= 1
            self.expect("}")
            return body
        if lx == "if":
            self.next()
            self.expect("(")
            cond = self.parse_cond()
            self.expect(")")
            then = self.parse_body()
            if self.at("else"):
                self.next()
                return IfElse(cond, then, self.parse_body())
            return If(cond, then)
        if lx == "while":
            self.next()
            self.expect("(")
            cond = self.parse_cond()
            self.expect(")")
            return While(cond, self.parse_body())
        if self.at_name():
            tok = self.next()
            name = tok[1]
            if self.at("["):
                self.next()
                idx = self.parse_expr()
                self.expect("]")
                self.check_var(name, tok, want_array=True)
                target = ArrayTarget(name, idx)
            else:
                self.check_var(name, tok)
                target = VarTarget(name)
            self.expect("=")
            expr = self.parse_expr()
            self.expect(";")
            return Assign(target, expr)
        self.error(f"expected a statement, found {lx or 'end of input'!r}")

    def parse_body(self):
        """The body of an `if`, `else` or `while`, one level below it."""
        self.depth += 1
        if self.at("{"):
            self.next()
            body = self.parse_stmts()
            self.expect("}")
        else:
            body = self.parse_stmt()
        self.depth -= 1
        return body

    # -- expressions and conditions ------------------------------------------
    #
    # Each method returns a node and leaves in `self.height` the number of
    # levels its tree reaches below `self.depth`, the level it was parsed at.

    @contextmanager
    def below(self, left: int = -1):
        """Parse one level down: an operand, an index or a parenthesis.  The
        level is checked on the way in, before the parser recurses into it.
        For the right operand of a binary node, `left` is the height of its
        left operand, which the node also takes one level down."""
        self.depth += 1
        self.check_level(self.depth)
        yield
        self.depth -= 1
        self.height = max(self.height, left) + 1
        self.check_level(self.depth + self.height)

    def check_level(self, level: int):
        if level >= MAX_DEPTH:
            self.error(f"expressions nest more than {MAX_DEPTH} levels deep")

    def parse_expr(self):
        e = self.parse_term()
        while self.peek()[1] in ("+", "-"):
            op = self.next()[1]
            with self.below(self.height):
                e = BinOp(op, e, self.parse_term())
        return e

    def parse_term(self):
        e = self.parse_factor()
        while self.peek()[1] in ("*", "/", "%"):
            op = self.next()[1]
            with self.below(self.height):
                e = BinOp(op, e, self.parse_factor())
        return e

    def parse_factor(self):
        kind, lx, line, col = self.peek()
        if kind == "num":
            self.next()
            self.height = 0
            return IntLit(int(lx))
        if lx == "-":
            self.next()
            with self.below():
                operand = self.parse_factor()
            if isinstance(operand, IntLit):
                return IntLit(-operand.value)
            return Neg(operand)
        if lx == "(":
            self.next()
            with self.below():
                e = self.parse_expr()
            self.expect(")")
            return e
        if self.at_name():
            tok = self.next()
            name, prime = tok[1], ""
            if self.at("'"):
                if not self.primed:
                    self.error(f"{name}' names an output, which only a relation predicate reads")
                self.next()
                prime = "'"
            if self.at("["):
                self.next()
                with self.below():
                    idx = self.parse_expr()
                self.expect("]")
                self.check_var(name, tok, want_array=True)
                return ArrayRead(name + prime, idx)
            self.check_var(name, tok)
            self.height = 0
            return Var(name + prime)
        self.error(f"expected an expression, found {lx or 'end of input'!r}")

    def parse_cond(self):
        c = self.parse_conj()
        while self.at("||"):
            self.next()
            with self.below(self.height):
                c = Or(c, self.parse_conj())
        return c

    def parse_conj(self):
        c = self.parse_cond_atom()
        while self.at("&&"):
            self.next()
            with self.below(self.height):
                c = And(c, self.parse_cond_atom())
        return c

    def parse_cond_atom(self):
        kind, lx, line, col = self.peek()
        if lx == "!":
            self.next()
            with self.below():
                return Not(self.parse_cond_atom())
        if lx in ("true", "false"):
            self.next()
            self.height = 0
            return BoolLit(lx == "true")
        if lx == "(":
            # could open a grouped condition or a parenthesized arithmetic
            # operand; try the comparison reading first and backtrack
            save = self.i, self.depth
            try:
                return self.parse_cmp()
            except ParseError:
                self.i, self.depth = save
            self.next()
            with self.below():
                c = self.parse_cond()
            self.expect(")")
            return c
        return self.parse_cmp()

    def parse_cmp(self):
        left = self.parse_expr()
        kind, lx, line, col = self.peek()
        if lx not in ("<", "<=", ">", ">=", "==", "!="):
            self.error(f"expected a comparison operator, found {lx!r}")
        self.next()
        with self.below(self.height):
            return Cmp(lx, left, self.parse_expr())


def _scope(space: StateSpace) -> tuple:
    return set(space.names), {n for n, d in space.vars if isinstance(d, ArrayDomain)}


def parse(text: str, space: StateSpace):
    """Parse program source over the variables of `space` into an AST."""
    p = _Parser(text, *_scope(space))
    return p.end(p.parse_stmts())


def parse_predicate(text: str, space: StateSpace, primed: bool = False):
    """Parse a spec predicate over the variables of `space` into a condition
    node; with `primed`, the predicate may also read outputs (`x'`)."""
    try:
        p = _Parser(text, *_scope(space), primed)
        return p.end(p.parse_cond())
    except ParseError as e:
        raise ParseError(f"in predicate {text!r}: {e}") from None
