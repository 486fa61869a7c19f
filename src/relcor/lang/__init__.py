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
    Node,
    Not,
    Or,
    Program,
    Seq,
    Skip,
    Var,
    VarTarget,
    While,
    preorder,
    replace_nodes,
    to_source,
)
from .interp import (
    FinalState,
    NonTermination,
    Undefined,
    compile_program,
    execute,
)
from .parser import parse
from .semantics import default_fuel, denote

__all__ = [
    "Abort", "And", "ArrayRead", "ArrayTarget", "Assign", "BinOp", "Block",
    "BoolLit", "Cmp", "If", "IfElse", "IntLit", "Neg", "Node", "Not", "Or",
    "Program", "Seq", "Skip", "Var", "VarTarget", "While",
    "preorder", "replace_nodes", "to_source",
    "FinalState", "NonTermination", "Undefined",
    "compile_program", "execute",
    "parse", "denote", "default_fuel",
]
