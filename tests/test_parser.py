import pytest

from relcor.errors import ParseError
from relcor.lang import ast_nodes as A
from relcor.lang.interp import FinalState, execute
from relcor.lang.parser import MAX_DEPTH, MAX_NESTING, parse, parse_predicate
from relcor.lang.ast_nodes import to_source
from relcor.lang.semantics import denote, denote_structural
from relcor.mutate import generate
from relcor.space import ArrayDomain, Interval, StateSpace

SP = StateSpace(
    (
        ("a", ArrayDomain(4, Interval(0, 2))),
        ("x", Interval(0, 6)),
        ("i", Interval(0, 4)),
    )
)


def test_skip_abort_and_assignment():
    p = parse("skip; abort; x = 3;", SP)
    assert p == A.Seq(
        A.Skip(),
        A.Seq(A.Abort(), A.Assign(A.VarTarget("x"), A.IntLit(3))),
    )


def test_loop_program_shape():
    p = parse("x = 0; i = 0; while (i < 3) { x = x + a[i]; i = i + 1; }", SP)
    assert isinstance(p, A.Seq)
    loop = p.second.second
    assert isinstance(loop, A.While)
    assert loop.cond == A.Cmp("<", A.Var("i"), A.IntLit(3))
    body = loop.body
    assert body.first == A.Assign(
        A.VarTarget("x"),
        A.BinOp("+", A.Var("x"), A.ArrayRead("a", A.Var("i"))),
    )


def test_arithmetic_precedence():
    p = parse("x = 1 + 2 * 3 - 4 / 2;", SP)
    expr = p.expr
    # (1 + (2*3)) - (4/2)
    assert expr == A.BinOp(
        "-",
        A.BinOp("+", A.IntLit(1), A.BinOp("*", A.IntLit(2), A.IntLit(3))),
        A.BinOp("/", A.IntLit(4), A.IntLit(2)),
    )


def test_unary_minus_and_parens():
    p = parse("x = -(1 + 2);", SP)
    assert p.expr == A.Neg(A.BinOp("+", A.IntLit(1), A.IntLit(2)))


def test_minus_on_a_literal_is_a_negative_literal():
    assert parse("x = -1;", SP).expr == A.IntLit(-1)
    assert parse("x = -(2);", SP).expr == A.IntLit(-2)
    assert parse("x = - -3;", SP).expr == A.IntLit(3)
    assert parse("x = i - -1;", SP).expr == A.BinOp("-", A.Var("i"), A.IntLit(-1))
    assert parse("x = -i;", SP).expr == A.Neg(A.Var("i"))
    for expr in (A.IntLit(-1), A.BinOp("*", A.IntLit(-2), A.IntLit(-1)),
                 A.BinOp("-", A.IntLit(0), A.IntLit(-4))):
        tree = A.Assign(A.VarTarget("x"), expr)
        assert parse(to_source(tree), SP) == tree


def _straight_line(n: int) -> str:
    return "\n".join("x = (x + a[i % 4]) % 7;" if k % 2 else "i = (i + 1) % 5;" for k in range(n))


def test_statements_nest_at_most_max_nesting_levels():
    with pytest.raises(ParseError, match="nest more than"):
        parse(_straight_line(MAX_NESTING + 1), SP)
    with pytest.raises(ParseError, match="nest more than"):
        parse("if (x < 1) { " * MAX_NESTING + "skip;" + " }" * MAX_NESTING, SP)
    with pytest.raises(ParseError, match="nest more than"):
        parse("{ " * 2000 + "skip;" + " }" * 2000, SP)
    with pytest.raises(ParseError, match="nest more than"):
        parse("".join(f"int t{k} : 0..1 = 0; " for k in range(MAX_NESTING)), SP)


def test_a_program_just_under_the_nesting_limit_runs_everywhere():
    p = parse(_straight_line(MAX_NESTING), SP)
    small = StateSpace((("a", ArrayDomain(4, Interval(0, 1))), ("x", Interval(0, 6)),
                        ("i", Interval(0, 4))))
    s = small.state({"a": (1, 0, 1, 1), "x": 0, "i": 0})
    for mode in ("exact", "wide"):
        out = execute(p, s, 10, mode)
        assert isinstance(out, FinalState) and out.state["i"] == MAX_NESTING // 2 % 5
    assert len(denote(p, small)) == small.num_states
    assert len(generate(p, ("index+-1",))) == MAX_NESTING  # two per read of a
    assert parse(to_source(p), SP) == p


def _chain(terms: int, op: str = " + ", term: str = "x") -> str:
    return op.join([term] * terms)


def test_expressions_nest_at_most_max_depth_levels():
    room = MAX_DEPTH  # levels below a first statement or a predicate
    too_deep = [
        f"x = {_chain(1000, term='0')};",
        "x = " + "(" * 400 + "x" + ")" * 400 + ";",
        "x = " + "-" * room + "x;",
        "if (" + "!" * room + "(x < 1)) { skip; }",
        "if (" + _chain(room, " && ", "x < 1") + ") { skip; }",
        f"x = a[{_chain(room, term='i')}];",
        # each part fits alone: a deep first operand goes down with its chain
        "x = " + "(" * (room // 2) + "x" + ")" * (room // 2) + " + 0" * (room // 2 + 1) + ";",
    ]
    for text in too_deep:
        with pytest.raises(ParseError, match="nest more than"):
            parse(text, SP)
    parse("x = " + "(" * (room // 2) + "x" + ")" * (room // 2) + " + 0" * (room // 2 - 1) + ";", SP)
    parse(f"x = {_chain(room)};", SP)
    parse_predicate(f"x == {_chain(room - 1)}", SP)
    parse_predicate(_chain(room - 3, " && ", "((x < 1))"), SP)  # each atom backtracks
    with pytest.raises(ParseError, match="nest more than"):
        parse_predicate(f"x == {_chain(room)}", SP)


def test_a_program_at_the_depth_limit_runs_everywhere():
    room = MAX_DEPTH - (MAX_NESTING - 1)  # levels below the last statement
    head = "i = (i + 1) % 5;\n" * (MAX_NESTING - 1)
    with pytest.raises(ParseError, match="nest more than"):
        parse(head + f"x = {_chain(room + 1, term='i')};", SP)
    with pytest.raises(ParseError, match="nest more than"):
        parse(head + "x = " + "-" * (room - 2) + "((i));", SP)
    small = StateSpace((("x", Interval(0, 6)), ("i", Interval(0, 4))))
    s = small.state({"x": 0, "i": 0})
    for last in ("x = i" + " + 0" * (room - 1) + ";", "x = " + "-" * (room - 3) + "((i));"):
        p = parse(head + last, SP)
        assert parse(to_source(p), SP) == p
        nodes = A.preorder(p)
        deepest = max(k for k, n in enumerate(nodes) if n == A.Var("i"))
        mutant = A.replace_nodes(p, {deepest: A.Var("x")})
        reparsed = parse(to_source(mutant), SP)
        assert mutant != p and reparsed == mutant and hash(reparsed) == hash(mutant)
        for mode in ("exact", "wide"):
            out = execute(p, s, 10, mode)
            assert isinstance(out, FinalState) and out.state["x"] == (MAX_NESTING - 1) % 5
        assert denote(p, small) == denote_structural(p, small)


def test_condition_connectives():
    p = parse("if (!(x == 1) && (i < 2 || x > 3)) { skip; }", SP)
    cond = p.cond
    assert isinstance(cond, A.And)
    assert isinstance(cond.left, A.Not)
    assert isinstance(cond.right, A.Or)


def test_if_else():
    p = parse("if (x < 1) { x = 1; } else { x = 2; }", SP)
    assert isinstance(p, A.IfElse)


def test_array_assignment_target():
    p = parse("a[i] = 1;", SP)
    assert p == A.Assign(A.ArrayTarget("a", A.Var("i")), A.IntLit(1))


def test_block_local_declaration():
    p = parse("{ int t : 0..5; t = x; x = t; }", SP)
    assert isinstance(p, A.Block)
    assert p.name == "t"
    assert p.interval == Interval(0, 5)


def test_undeclared_variable_is_a_parse_error():
    with pytest.raises(ParseError):
        parse("z = 1;", SP)


def test_array_used_as_scalar_is_rejected():
    with pytest.raises(ParseError):
        parse("x = a;", SP)


def test_scalar_indexed_as_array_is_rejected():
    with pytest.raises(ParseError):
        parse("x = x[0];", SP)


def test_error_carries_line_and_column():
    with pytest.raises(ParseError) as exc:
        parse("x = 0;\nx = ;", SP)
    assert exc.value.line == 2
    assert exc.value.col >= 4


def test_missing_semicolon():
    with pytest.raises(ParseError):
        parse("x = 1", SP)


def test_source_roundtrip():
    text = (
        "x = 0; i = 0;\n"
        "while (i < 3) { if (x < 6) { x = x + a[i]; } else { skip; } i = i + 1; }"
    )
    p = parse(text, SP)
    assert parse(to_source(p), SP) == p


def _parse_error_at(text: str) -> tuple:
    with pytest.raises(ParseError) as exc:
        parse(text, SP)
    return str(exc.value).split(": ", 1)[1], exc.value.line, exc.value.col


def test_a_local_may_not_redeclare_a_name_in_scope():
    """A block local is a fresh variable: one that redeclares a variable of
    the space or an enclosing local, at any depth, is a parse error at its
    name.  Sibling blocks may reuse a name, and a local is out of scope
    after its block."""
    assert _parse_error_at("int x : 0..1; x = 0;") == ("redeclaration of 'x'", 1, 5)
    assert _parse_error_at("skip; int a : 0..1;") == ("redeclaration of 'a'", 1, 11)
    assert _parse_error_at("int t : 0..1; int t : 0..1;") == ("redeclaration of 't'", 1, 19)
    nested = ("int t : 0..1 = 0;\n"
              "if (x < 1) {\n"
              "  while (i < 2) {\n"
              "    { int u : 0..1; i = 2; { int t : 0..2; t = 1; } }\n"
              "  }\n"
              "}\n")
    assert _parse_error_at(nested) == ("redeclaration of 't'", 4, 34)
    siblings = parse("{ int t : 0..1; t = 0; } if (x < 1) { int t : 0..3 = x; i = t; }"
                     " else { int t : 0..2 = 1; x = t; }", SP)
    assert [n.name for n in A.preorder(siblings) if isinstance(n, A.Block)] == ["t"] * 3
    assert _parse_error_at("{ int t : 0..1; t = 0; } t = 1;") == (
        "undeclared variable 't'", 1, 26)
