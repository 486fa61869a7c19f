"""Recursive-descent parser for the toy language.

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

A block-local declaration scopes over the remaining statements of the
enclosing block.  The optional `: lo..hi` annotation gives the local's
finite domain, required for exact-mode semantics.

A unary minus on an integer literal (`-1`, also `-(1)`) is read as a
negative `IntLit`, which is how `to_source` prints one, so
`parse(to_source(t)) == t` for every parsed tree and every mutant of one.

Statements may nest at most `MAX_NESTING` levels deep, where a statement's
level counts the statements and braces enclosing it and the statements
before it in its sequence (a sequence is a right-nested chain of `Seq`
nodes), so a straight-line program has at most `MAX_NESTING` statements.
Every walk over a program recurses on that chain, so a deeper program is
rejected with a `ParseError` here instead of failing later with a
`RecursionError`.
"""

from __future__ import annotations

import re

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

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+|//[^\n]*|/\*.*?\*/)"
    r"|(?P<num>\d+)"
    r"|(?P<name>[A-Za-z_]\w*)"
    r"|(?P<op>\.\.|<=|>=|==|!=|&&|\|\||[-+*/%<>=!(){};:,\[\]])",
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
    def __init__(self, text: str, declared: set | None, arrays: set):
        self.toks = _tokenize(text)
        self.i = 0
        self.declared = declared  # None disables scope checking
        self.arrays = arrays
        self.locals: list[str] = []
        self.depth = 0  # nesting level of the statement parsed next

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
        if self.declared is None:
            return
        if name not in self.declared and name not in self.locals:
            self.error(f"undeclared variable {name!r}", tok)
        if want_array != (name in self.arrays):
            kind = "an array" if name in self.arrays else "a scalar"
            self.error(f"{name!r} is {kind}", tok)

    # -- statements ---------------------------------------------------------

    def parse_program(self):
        body = self.parse_stmts(top=True)
        if self.peek()[0] != "eof":
            self.error(f"unexpected {self.peek()[1]!r}")
        return body

    def check_depth(self):
        if self.depth >= MAX_NESTING:
            self.error(f"statements nest more than {MAX_NESTING} levels deep")

    def parse_stmts(self, top=False):
        stmts = []
        saved_locals = len(self.locals)
        base = self.depth
        while not self.at("}") and self.peek()[0] != "eof":
            self.depth = base + len(stmts)
            if self.at("int"):
                blk = self.parse_decl(top)
                stmts.append(blk)
                break  # the declaration consumed the rest of the scope
            stmts.append(self.parse_stmt())
        self.depth = base
        del self.locals[saved_locals:]
        if not stmts:
            return Skip()
        out = stmts[-1]
        for s in reversed(stmts[:-1]):
            out = Seq(s, out)
        return out

    def parse_decl(self, top):
        self.check_depth()
        self.expect("int")
        kind, name, line, col = self.next()
        if kind != "name" or name in KEYWORDS:
            raise ParseError("expected variable name after 'int'", line, col)
        if self.declared is not None and (name in self.declared or name in self.locals):
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
        rest = self.parse_stmts(top)
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

    # -- expressions ----------------------------------------------------------

    def parse_expr(self):
        e = self.parse_term()
        while self.peek()[1] in ("+", "-"):
            op = self.next()[1]
            e = BinOp(op, e, self.parse_term())
        return e

    def parse_term(self):
        e = self.parse_factor()
        while self.peek()[1] in ("*", "/", "%"):
            op = self.next()[1]
            e = BinOp(op, e, self.parse_factor())
        return e

    def parse_factor(self):
        kind, lx, line, col = self.peek()
        if kind == "num":
            self.next()
            return IntLit(int(lx))
        if lx == "-":
            self.next()
            operand = self.parse_factor()
            if isinstance(operand, IntLit):
                return IntLit(-operand.value)
            return Neg(operand)
        if lx == "(":
            self.next()
            e = self.parse_expr()
            self.expect(")")
            return e
        if self.at_name():
            tok = self.next()
            if self.at("["):
                self.next()
                idx = self.parse_expr()
                self.expect("]")
                self.check_var(tok[1], tok, want_array=True)
                return ArrayRead(tok[1], idx)
            self.check_var(tok[1], tok)
            return Var(tok[1])
        self.error(f"expected an expression, found {lx or 'end of input'!r}")

    # -- conditions -------------------------------------------------------------

    def parse_cond(self):
        c = self.parse_conj()
        while self.at("||"):
            self.next()
            c = Or(c, self.parse_conj())
        return c

    def parse_conj(self):
        c = self.parse_cond_atom()
        while self.at("&&"):
            self.next()
            c = And(c, self.parse_cond_atom())
        return c

    def parse_cond_atom(self):
        kind, lx, line, col = self.peek()
        if lx == "!":
            self.next()
            return Not(self.parse_cond_atom())
        if lx == "true":
            self.next()
            return BoolLit(True)
        if lx == "false":
            self.next()
            return BoolLit(False)
        if lx == "(":
            # could open a grouped condition or a parenthesized arithmetic
            # operand; try the comparison reading first and backtrack
            save = self.i
            try:
                return self.parse_cmp()
            except ParseError:
                self.i = save
            self.next()
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
        return Cmp(lx, left, self.parse_expr())


def parse(text: str, space: StateSpace | None = None):
    """Parse program source into an AST.

    When `space` is given, variable references are checked against its
    declarations (plus block locals); otherwise scope checking is skipped.
    """
    declared = None
    arrays: set = set()
    if space is not None:
        declared = set(space.names)
        arrays = {n for n, d in space.vars if isinstance(d, ArrayDomain)}
    return _Parser(text, declared, arrays).parse_program()
