"""Static analyses over the mini-C AST and CFG.

These mirror the information dPerf extracts via Rose (paper §III-D):
communication-call discovery inside basic blocks, loop nesting,
block-level def/use (the data-dependence view), the call graph, and
symbolic trip-count estimation used when scaling block benchmarks up
to large instances.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Set

from . import cast as A
from .cfg import Cfg, build_cfg
from .semantics import COMM_APIS


@dataclass(frozen=True)
class CommCallSite:
    func: str          # enclosing function
    api: str           # e.g. p2psap_send
    line: int
    loop_depth: int

    @property
    def is_send(self) -> bool:
        return "send" in self.api.lower()

    @property
    def is_recv(self) -> bool:
        return "recv" in self.api.lower()


def find_comm_calls(program: A.Program) -> List[CommCallSite]:
    """All communication API call sites, with their loop depth."""
    sites: List[CommCallSite] = []
    for func in program.funcs:
        depths = loop_depth_map(func)
        for stmt, depth in depths.items():
            # Container statements contribute only their control
            # expressions; their bodies appear as separate map entries.
            if isinstance(stmt, A.If):
                roots: List[A.Node] = [stmt.cond]
            elif isinstance(stmt, A.While):
                roots = [stmt.cond]
            elif isinstance(stmt, A.For):
                roots = [e for e in (stmt.cond, stmt.step) if e is not None]
            else:
                roots = [stmt]
            for root in roots:
                for node in A.walk(root):
                    if isinstance(node, A.Call) and node.name in COMM_APIS:
                        sites.append(
                            CommCallSite(func.name, node.name, node.line, depth)
                        )
    # deterministic order
    sites.sort(key=lambda s: (s.func, s.line, s.api))
    return sites


def loop_depth_map(func: A.FuncDef) -> Dict[A.Stmt, int]:
    """Map every *simple* statement to its loop nesting depth."""
    out: Dict[A.Stmt, int] = {}

    def visit(stmt: A.Stmt, depth: int) -> None:
        if isinstance(stmt, A.Block):
            for s in stmt.stmts:
                visit(s, depth)
        elif isinstance(stmt, A.If):
            out[stmt] = depth
            visit(stmt.then, depth)
            if stmt.other is not None:
                visit(stmt.other, depth)
        elif isinstance(stmt, A.While):
            out[stmt] = depth
            visit(stmt.body, depth + 1)
        elif isinstance(stmt, A.For):
            out[stmt] = depth
            if stmt.init is not None:
                visit(stmt.init, depth)
            visit(stmt.body, depth + 1)
        else:
            out[stmt] = depth

    visit(func.body, 0)
    return out


# -- def/use (block-level data dependence) -----------------------------------

@dataclass
class DefUse:
    defs: Dict[int, Set[str]] = field(default_factory=dict)
    uses: Dict[int, Set[str]] = field(default_factory=dict)

    def flows(self) -> Set[tuple]:
        """(def_block, use_block, var) pairs — block-level DDG edges."""
        edges = set()
        for db, dvars in self.defs.items():
            for ub, uvars in self.uses.items():
                if db == ub:
                    continue
                for v in dvars & uvars:
                    edges.add((db, ub, v))
        return edges


def _expr_defs_uses(expr: A.Expr, defs: Set[str], uses: Set[str]) -> None:
    if isinstance(expr, A.Assign):
        target = expr.target
        if isinstance(target, A.Ident):
            defs.add(target.name)
        elif isinstance(target, A.Index):
            defs.add(target.base.name)
            for i in target.indices:
                _expr_defs_uses(i, defs, uses)
        if expr.op != "=":  # compound assignment also reads the target
            if isinstance(target, A.Ident):
                uses.add(target.name)
            elif isinstance(target, A.Index):
                uses.add(target.base.name)
        _expr_defs_uses(expr.value, defs, uses)
    elif isinstance(expr, A.UnOp) and expr.op in ("++", "--"):
        operand = expr.operand
        if isinstance(operand, A.Ident):
            defs.add(operand.name)
            uses.add(operand.name)
        elif isinstance(operand, A.Index):
            defs.add(operand.base.name)
            uses.add(operand.base.name)
            for i in operand.indices:
                _expr_defs_uses(i, defs, uses)
    elif isinstance(expr, A.Ident):
        uses.add(expr.name)
    elif isinstance(expr, A.Index):
        uses.add(expr.base.name)
        for i in expr.indices:
            _expr_defs_uses(i, defs, uses)
    else:
        for child in A.children(expr):
            if isinstance(child, A.Expr):
                _expr_defs_uses(child, defs, uses)


def def_use(cfg: Cfg) -> DefUse:
    """Block-level def/use sets for a function's CFG."""
    du = DefUse()
    for block in cfg.blocks:
        defs: Set[str] = set()
        uses: Set[str] = set()
        for stmt in block.stmts:
            if isinstance(stmt, A.DeclStmt):
                for d in stmt.decls:
                    defs.add(d.name)
                    if d.init is not None:
                        _expr_defs_uses(d.init, defs, uses)
                    for dim in d.dims:
                        _expr_defs_uses(dim, defs, uses)
            elif isinstance(stmt, A.ExprStmt):
                _expr_defs_uses(stmt.expr, defs, uses)
            elif isinstance(stmt, A.Return) and stmt.value is not None:
                _expr_defs_uses(stmt.value, defs, uses)
        if block.cond is not None:
            _expr_defs_uses(block.cond, defs, uses)
        du.defs[block.bid] = defs
        du.uses[block.bid] = uses
    return du


# -- call graph ------------------------------------------------------------

def call_graph(program: A.Program) -> Dict[str, Set[str]]:
    """Caller → set of user-defined callees."""
    defined = set(program.func_names)
    graph: Dict[str, Set[str]] = {name: set() for name in defined}
    for func in program.funcs:
        for node in A.walk(func.body):
            if isinstance(node, A.Call) and node.name in defined:
                graph[func.name].add(node.name)
    return graph


# -- trip-count estimation --------------------------------------------------

def _static_value(e: Optional[A.Expr],
                  env: Mapping[str, float]) -> Optional[float]:
    """The value of a constant expression over ``env``'s bindings, or
    None.  Module level, not a closure inside
    :func:`estimate_trip_count`: a recursive nested function refers to
    itself through its own cell, so every call would leave a cycle."""
    if e is None:
        return None
    if isinstance(e, A.IntLit):
        return float(e.value)
    if isinstance(e, A.FloatLit):
        return e.value
    if isinstance(e, A.Ident):
        return env.get(e.name)
    if isinstance(e, A.UnOp) and e.op == "-":
        v = _static_value(e.operand, env)
        return -v if v is not None else None
    if isinstance(e, A.BinOp):
        l, r = _static_value(e.left, env), _static_value(e.right, env)
        if l is None or r is None:
            return None
        try:
            return {
                "+": l + r, "-": l - r, "*": l * r,
                "/": l / r if r else None, "%": l % r if r else None,
            }.get(e.op)
        except ZeroDivisionError:
            return None
    return None


def estimate_trip_count(
    loop: A.For, env: Mapping[str, float] | None = None
) -> Optional[int]:
    """Trip count of a canonical counted loop, if statically resolvable.

    Recognizes ``for (i = a; i < b; i++ / i += c)`` (also ``<=``, ``--``,
    ``-=``) where ``a``, ``b``, ``c`` are integer literals or names
    resolvable through ``env`` (the scale-up parameter bindings).
    Returns ``None`` for anything non-canonical.
    """
    env = env or {}

    # induction variable + start
    var = None
    start = None
    if isinstance(loop.init, A.DeclStmt) and len(loop.init.decls) == 1:
        d = loop.init.decls[0]
        var, start = d.name, _static_value(d.init, env)
    elif isinstance(loop.init, A.ExprStmt) and isinstance(loop.init.expr, A.Assign):
        a = loop.init.expr
        if a.op == "=" and isinstance(a.target, A.Ident):
            var, start = a.target.name, _static_value(a.value, env)
    if var is None or start is None:
        return None

    # bound
    cond = loop.cond
    if not (isinstance(cond, A.BinOp) and cond.op in ("<", "<=", ">", ">=")):
        return None
    if isinstance(cond.left, A.Ident) and cond.left.name == var:
        bound = _static_value(cond.right, env)
        op = cond.op
    elif isinstance(cond.right, A.Ident) and cond.right.name == var:
        bound = _static_value(cond.left, env)
        op = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}[cond.op]
    else:
        return None
    if bound is None:
        return None

    # step
    step = None
    s = loop.step
    if isinstance(s, A.UnOp) and s.op in ("++", "--") \
            and isinstance(s.operand, A.Ident) and s.operand.name == var:
        step = 1.0 if s.op == "++" else -1.0
    elif isinstance(s, A.Assign) and isinstance(s.target, A.Ident) \
            and s.target.name == var:
        if s.op == "+=":
            step = _static_value(s.value, env)
        elif s.op == "-=":
            v = _static_value(s.value, env)
            step = -v if v is not None else None
        elif s.op == "=" and isinstance(s.value, A.BinOp):
            b = s.value
            if b.op == "+" and isinstance(b.left, A.Ident) and b.left.name == var:
                step = _static_value(b.right, env)
            elif b.op == "-" and isinstance(b.left, A.Ident) and b.left.name == var:
                v = _static_value(b.right, env)
                step = -v if v is not None else None
    if step is None or step == 0:
        return None

    span = bound - start
    if op in ("<=", ">="):
        span += 1 if step > 0 else -1
    trips = span / step
    if trips <= 0:
        return 0
    import math

    return int(math.ceil(trips))


def count_operations(node: A.Node) -> Dict[str, int]:
    """Static operation census of a subtree (feeds the GCC cost model).

    Categories: flops (float arithmetic candidates), int_ops, mem
    (array element accesses), calls, branches, assigns.
    """
    counts = {"flops": 0, "int_ops": 0, "mem": 0, "calls": 0,
              "branches": 0, "assigns": 0}
    for n in A.walk(node):
        if isinstance(n, A.BinOp):
            if n.op in ("+", "-", "*", "/", "%"):
                counts["flops"] += 1
            else:
                counts["int_ops"] += 1
        elif isinstance(n, A.UnOp):
            counts["int_ops"] += 1
        elif isinstance(n, A.Index):
            counts["mem"] += 1
        elif isinstance(n, A.Call):
            counts["calls"] += 1
        elif isinstance(n, A.Assign):
            counts["assigns"] += 1
        elif isinstance(n, (A.If, A.While, A.For, A.Cond)):
            counts["branches"] += 1
    return counts


def analyze_function(func: A.FuncDef) -> Dict[str, object]:
    """Bundle of per-function facts used in reports and tests."""
    cfg = build_cfg(func)
    du = def_use(cfg)
    return {
        "name": func.name,
        "n_blocks": cfg.n_blocks,
        "max_loop_depth": cfg.max_loop_depth(),
        "ops": count_operations(func.body),
        "ddg_edges": len(du.flows()),
    }
