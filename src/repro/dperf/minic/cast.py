"""AST node classes for the mini-C dialect (the "cast" = C AST).

Every node records its source position so diagnostics, block ids and
instrumentation can point back at lines — mirroring how dPerf's
Rose-based translator works on the real AST.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple


@dataclass(eq=False)
class Node:
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


# --------------------------------------------------------------------------
# Types
# --------------------------------------------------------------------------

@dataclass(eq=False)
class CType(Node):
    """A scalar C type name (arrays are carried by declarators)."""

    name: str = "int"  # void|int|long|float|double|char

    @property
    def is_float(self) -> bool:
        return self.name in ("float", "double")


# --------------------------------------------------------------------------
# Expressions
# --------------------------------------------------------------------------

@dataclass(eq=False)
class Expr(Node):
    pass


@dataclass(eq=False)
class IntLit(Expr):
    value: int = 0


@dataclass(eq=False)
class FloatLit(Expr):
    value: float = 0.0


@dataclass(eq=False)
class StringLit(Expr):
    value: str = ""


@dataclass(eq=False)
class Ident(Expr):
    name: str = ""


@dataclass(eq=False)
class BinOp(Expr):
    op: str = "+"
    left: Expr = None  # type: ignore[assignment]
    right: Expr = None  # type: ignore[assignment]


@dataclass(eq=False)
class UnOp(Expr):
    op: str = "-"  # - ! ~ ++ --
    operand: Expr = None  # type: ignore[assignment]
    postfix: bool = False


@dataclass(eq=False)
class Assign(Expr):
    op: str = "="  # = += -= *= /= %=
    target: Expr = None  # type: ignore[assignment]  (Ident or Index)
    value: Expr = None  # type: ignore[assignment]


@dataclass(eq=False)
class Cond(Expr):
    """Ternary ``c ? a : b``."""

    cond: Expr = None  # type: ignore[assignment]
    then: Expr = None  # type: ignore[assignment]
    other: Expr = None  # type: ignore[assignment]


@dataclass(eq=False)
class Call(Expr):
    name: str = ""
    args: List[Expr] = field(default_factory=list)


@dataclass(eq=False)
class Index(Expr):
    """``base[i]`` or ``base[i][j]`` (indices in order)."""

    base: Ident = None  # type: ignore[assignment]
    indices: List[Expr] = field(default_factory=list)


@dataclass(eq=False)
class Cast(Expr):
    type: CType = None  # type: ignore[assignment]
    expr: Expr = None  # type: ignore[assignment]


# --------------------------------------------------------------------------
# Statements
# --------------------------------------------------------------------------

@dataclass(eq=False)
class Stmt(Node):
    pass


@dataclass(eq=False)
class VarDecl(Node):
    """One declarator: ``double u[n][m] = init``."""

    name: str = ""
    type: CType = None  # type: ignore[assignment]
    dims: List[Expr] = field(default_factory=list)  # empty → scalar
    init: Optional[Expr] = None

    @property
    def is_array(self) -> bool:
        return bool(self.dims)


@dataclass(eq=False)
class DeclStmt(Stmt):
    decls: List[VarDecl] = field(default_factory=list)


@dataclass(eq=False)
class ExprStmt(Stmt):
    expr: Expr = None  # type: ignore[assignment]


@dataclass(eq=False)
class Block(Stmt):
    stmts: List[Stmt] = field(default_factory=list)


@dataclass(eq=False)
class If(Stmt):
    cond: Expr = None  # type: ignore[assignment]
    then: Stmt = None  # type: ignore[assignment]
    other: Optional[Stmt] = None


@dataclass(eq=False)
class While(Stmt):
    cond: Expr = None  # type: ignore[assignment]
    body: Stmt = None  # type: ignore[assignment]


@dataclass(eq=False)
class For(Stmt):
    init: Optional[Stmt] = None  # DeclStmt or ExprStmt or None
    cond: Optional[Expr] = None
    step: Optional[Expr] = None
    body: Stmt = None  # type: ignore[assignment]


@dataclass(eq=False)
class Return(Stmt):
    value: Optional[Expr] = None


@dataclass(eq=False)
class Break(Stmt):
    pass


@dataclass(eq=False)
class Continue(Stmt):
    pass


@dataclass(eq=False)
class Empty(Stmt):
    pass


# --------------------------------------------------------------------------
# Top level
# --------------------------------------------------------------------------

@dataclass(eq=False)
class Param(Node):
    name: str = ""
    type: CType = None  # type: ignore[assignment]
    # array params: list of dim exprs; first may be None (``double u[]``)
    dims: List[Optional[Expr]] = field(default_factory=list)

    @property
    def is_array(self) -> bool:
        return bool(self.dims)


@dataclass(eq=False)
class FuncDef(Node):
    name: str = ""
    return_type: CType = None  # type: ignore[assignment]
    params: List[Param] = field(default_factory=list)
    body: Block = None  # type: ignore[assignment]


@dataclass(eq=False)
class Program(Node):
    funcs: List[FuncDef] = field(default_factory=list)
    globals: List[DeclStmt] = field(default_factory=list)
    preprocessor: List[str] = field(default_factory=list)

    def func(self, name: str) -> FuncDef:
        for f in self.funcs:
            if f.name == name:
                return f
        raise KeyError(f"no function {name!r}")

    @property
    def func_names(self) -> List[str]:
        return [f.name for f in self.funcs]


# --------------------------------------------------------------------------
# Generic traversal
# --------------------------------------------------------------------------

def children(node: Node) -> List[Node]:
    """Direct child nodes, in source order (used by walkers)."""
    out: List[Node] = []

    def add(x):
        if isinstance(x, Node):
            out.append(x)

    if isinstance(node, Program):
        for g in node.globals:
            add(g)
        for f in node.funcs:
            add(f)
    elif isinstance(node, FuncDef):
        add(node.return_type)
        for p in node.params:
            add(p)
        add(node.body)
    elif isinstance(node, Param):
        add(node.type)
        for d in node.dims:
            add(d)
    elif isinstance(node, DeclStmt):
        for d in node.decls:
            add(d)
    elif isinstance(node, VarDecl):
        add(node.type)
        for d in node.dims:
            add(d)
        add(node.init)
    elif isinstance(node, ExprStmt):
        add(node.expr)
    elif isinstance(node, Block):
        for s in node.stmts:
            add(s)
    elif isinstance(node, If):
        add(node.cond)
        add(node.then)
        add(node.other)
    elif isinstance(node, While):
        add(node.cond)
        add(node.body)
    elif isinstance(node, For):
        add(node.init)
        add(node.cond)
        add(node.step)
        add(node.body)
    elif isinstance(node, Return):
        add(node.value)
    elif isinstance(node, BinOp):
        add(node.left)
        add(node.right)
    elif isinstance(node, UnOp):
        add(node.operand)
    elif isinstance(node, Assign):
        add(node.target)
        add(node.value)
    elif isinstance(node, Cond):
        add(node.cond)
        add(node.then)
        add(node.other)
    elif isinstance(node, Call):
        for a in node.args:
            add(a)
    elif isinstance(node, Index):
        add(node.base)
        for i in node.indices:
            add(i)
    elif isinstance(node, Cast):
        add(node.type)
        add(node.expr)
    return out


def walk(node: Node):
    """Yield ``node`` and all descendants, pre-order."""
    stack = [node]
    while stack:
        current = stack.pop()
        yield current
        stack.extend(reversed(children(current)))
