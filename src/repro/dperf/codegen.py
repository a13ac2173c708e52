"""Translation of mini-C to Python source (see :mod:`.interp`).

Each function becomes a Python function of a per-rank factory
``_make(_rt)``; C variables become Python locals (arrays also bind
their numpy data and shape), globals are cells of the factory.  The
census a run records is the one a statement-by-statement walk of the
AST records, in the same dict order:

* charges are batched per straight-line run (a :mod:`~.minic.cfg`
  basic block, cut again at every event) and applied in order of
  first occurrence, so a census gains its keys in execution order;
* a run is flushed before every ``papi_block_*``, ``dperf_region_*``,
  communication and user-function call, before every branch (``if``,
  loop tests, ``&&``, ``||``, ``?:``) and before ``return``/``break``;
* loop-control work (init, test, step) is charged straight into the
  loop's control-block census unless it calls out, when the
  attribution is really pushed;
* an ``int_op`` vs ``fp_*`` charge follows the operands' runtime types
  (``floor()`` yields an int); where those are only known at run time
  the category is computed there;
* bounds checks and every ``InterpError`` stay, raised only when the
  faulting code runs, and a ``count_steps`` build ticks the same steps.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .instrument import BlockTable
from .interp import _FLOAT_TYPES
from .minic import cast as A
from .minic.cfg import SIMPLE_STMTS
from .minic.semantics import BUILTINS, COMM_APIS, DPERF_APIS, PAPI_APIS

#: Builtins whose result type does not depend on the argument types.
_MATH_TYPES = {"floor": "int", "ceil": "int", "abs": "int"}


def _py_type(type_name: str) -> str:
    """The Python type a C scalar type holds at run time."""
    return "float" if type_name in _FLOAT_TYPES else "int"


_BLOCKING = ("p2psap_recv", "mpi_recv", "p2psap_barrier", "mpi_barrier",
             "p2psap_allreduce_max", "mpi_allreduce_max")

_ARITH_FP = {"+": "fp_add", "-": "fp_add", "*": "fp_mul", "/": "fp_div"}
_COMPARE = ("<", "<=", ">", ">=", "==", "!=")
_BITWISE = ("&", "|", "^", "<<", ">>")


class _Var:
    """A resolved mini-C variable: its Python name and what is static."""

    __slots__ = ("py", "ty", "ctype", "ndim", "is_float", "is_global")

    def __init__(self, py, ty, ctype, ndim=None, is_float=None,
                 is_global=False):
        self.py = py            # Python name (arrays: the CArray)
        self.ty = ty            # "int" | "float" | "arr"
        self.ctype = ctype
        self.ndim = ndim        # declared arrays only; None = runtime
        self.is_float = is_float
        self.is_global = is_global


class _Ex:
    """A compiled expression: Python code plus what is known about it.

    ``ty`` is the runtime type the walk would see: "int", "float",
    "str", "none", "arr" (a CArray) or "dyn" (only known at run time).
    ``safe`` code has no side effects, cannot raise and charges nothing
    at run time, so it may be evaluated late or twice.
    """

    __slots__ = ("code", "ty", "safe", "const")

    def __init__(self, code, ty, safe=False, const=False):
        self.code = code
        self.ty = ty
        self.safe = safe or const
        self.const = const


def _py_names(var: _Var) -> List[str]:
    """The Python names a variable occupies (arrays: data and shape)."""
    if var.ty != "arr":
        return [var.py]
    return [var.py, var.py + "_d"] + [f"{var.py}_n{k}" for k in range(var.ndim)]


_ZERO = _Ex("0", "int", const=True)


class _Loop:
    __slots__ = ("head", "scopes", "outer_ctrl")

    def __init__(self, head, scopes, outer_ctrl):
        self.head = head
        self.scopes = scopes
        self.outer_ctrl = outer_ctrl


def _has_events(node: Optional[A.Node], funcs) -> bool:
    """Whether ``node`` calls anything that touches the recorder (or
    may): every call but a builtin's."""
    if node is None:
        return False
    return any(isinstance(n, A.Call) and (n.name in funcs
                                          or n.name not in BUILTINS)
               for n in A.walk(node))


def _generator_funcs(program: A.Program) -> set:
    """Functions that may block: they contain a blocking comm call or
    call (transitively) a function that does."""
    funcs = {f.name: f for f in program.funcs}
    calls = {}
    gens = set()
    for f in program.funcs:
        names = {n.name for n in A.walk(f.body) if isinstance(n, A.Call)}
        calls[f.name] = {n for n in names if n in funcs}
        if any(n not in funcs and n in COMM_APIS and n.lower() in _BLOCKING
               for n in names):
            gens.add(f.name)
    changed = True
    while changed:
        changed = False
        for name, callees in calls.items():
            if name not in gens and callees & gens:
                gens.add(name)
                changed = True
    return gens


class _Compiler:
    """Translates one program into the source of a per-rank factory."""

    def __init__(self, program: A.Program, table: Optional[BlockTable],
                 count_steps: bool) -> None:
        self.program = program
        self.table = table
        self.count_steps = count_steps
        self.funcs = {f.name: f for f in program.funcs}
        self.gens = _generator_funcs(program)
        self.consts: List[Any] = []
        self.globals: Dict[str, _Var] = {}
        # loop-control blocks exist only for instrumented programs; with
        # none, every charge goes to the active block
        self.has_ctrl = table is not None and any(
            table.control_block_for(n) is not None
            for n in A.walk(program) if isinstance(n, (A.For, A.While))
        )

    # -- program level ------------------------------------------------------
    def compile(self) -> str:
        out = ["def _make(_rt):",
               "    _rec = _rt.recorder",
               "    _comm = _rt.comm",
               "    _out = _rt.output",
               "    _step = _rt.step",
               "    _rank = _comm.rank",
               "    _size = _comm.size"]
        for decl_stmt in self.program.globals:
            for d in decl_stmt.decls:
                self._declare_global(d)
        names = [n for v in self.globals.values() for n in _py_names(v)]
        if names:
            out.append("    " + " = ".join(names) + " = None")
        for func in self.program.funcs:
            out.extend("    " + line for line in self._function(func))
        out.extend("    " + line for line in self._global_init())
        table = ", ".join(f"{f.name!r}: f_{f.name}" for f in self.program.funcs)
        out.append(f"    return _init, {{{table}}}")
        return "\n".join(out) + "\n"

    def _declare_global(self, d: A.VarDecl) -> None:
        is_float = d.type.name in _FLOAT_TYPES
        if d.is_array:
            var = _Var(f"g_{d.name}", "arr", d.type.name, len(d.dims),
                       is_float, is_global=True)
        else:
            var = _Var(f"g_{d.name}", _py_type(d.type.name), d.type.name,
                       is_global=True)
        self.globals.setdefault(d.name, var)

    def _function(self, func: A.FuncDef) -> List[str]:
        fc = _FuncCompiler(self, func.name in self.gens)
        params = []
        scope: Dict[str, _Var] = {}
        for p in func.params:
            if p.is_array:
                var = _Var(f"p_{p.name}", "arr", p.type.name)
            else:
                var = _Var(f"p_{p.name}", _py_type(p.type.name), p.type.name)
            scope[p.name] = var
            params.append(var.py)
        fc.scopes.append(scope)
        fc.body_ctrl = "_ctrl" if self.has_ctrl else None
        fc.return_type = func.return_type.name
        fc.block(func.body, step=False)
        fc.flush()
        return fc.render(f"def f_{func.name}({', '.join(params + ['_ctrl'])}):")

    def _global_init(self) -> List[str]:
        fc = _FuncCompiler(self, False)
        fc.scopes.append({})
        fc.at_global = True
        for decl_stmt in self.program.globals:
            fc.decl(decl_stmt)
        fc.flush()
        fc.is_gen = any("yield" in t for _, t in fc.lines)
        return fc.render("def _init():")


class _FuncCompiler:
    """Compiles one function body (or the global initializers)."""

    def __init__(self, comp: _Compiler, is_gen: bool) -> None:
        self.comp = comp
        self.funcs = comp.funcs
        self.is_gen = is_gen
        self.lines: List[tuple] = []
        self.level = 1
        self.ntemp = 0
        self.nvar = 0
        self.pending: List[tuple] = []
        self.target = "_rec.active"
        self.scopes: List[Dict[str, _Var]] = []
        self.loops: List[_Loop] = []
        self.body_ctrl: Any = None
        self.return_type = "void"
        self.assigned_globals: set = set()
        self.at_global = False

    # -- emission -------------------------------------------------------------
    def emit(self, text: str) -> None:
        self.lines.append((self.level, text))

    @contextmanager
    def indented(self, header: str):
        self.emit(header)
        self.level += 1
        start = len(self.lines)
        yield
        if len(self.lines) == start:
            self.emit("pass")
        self.level -= 1

    def render(self, header: str) -> List[str]:
        out = [header]
        if self.assigned_globals:
            out.append("    nonlocal " + ", ".join(sorted(self.assigned_globals)))
        out.extend("    " * level + text for level, text in self.lines)
        if len(out) == 1:
            out.append("    pass")
        if self.is_gen and not any("yield" in t for _, t in self.lines):
            out += ["    return None", "    yield  # keeps this a generator"]
        return out

    @staticmethod
    def fail(message: str) -> _Ex:
        """Code that raises ``message`` when it runs."""
        return _Ex(f"_fail({message!r})", "dyn")

    def temp(self) -> str:
        self.ntemp += 1
        return f"_t{self.ntemp}"

    def const(self, value: Any) -> str:
        self.comp.consts.append(value)
        return f"_K[{len(self.comp.consts) - 1}]"

    # -- charges ----------------------------------------------------------------
    def charge(self, category: str) -> None:
        self.pending.append(("s", category))

    def charge_dyn(self, expr: str) -> None:
        """A category computed at flush time (``None``: no charge)."""
        self.pending.append(("d", expr))

    def flush(self) -> None:
        """Apply the pending charges, in order of first occurrence."""
        if not self.pending:
            return
        merged: Dict[Any, list] = {}
        for kind, what in self.pending:
            key = what if kind == "s" else (len(merged), what)
            if key in merged:
                merged[key][1] += 1
            else:
                merged[key] = [kind, 1, what]
        self.pending = []
        self.emit(f"_a = {self.target}")
        for kind, n, what in merged.values():
            if kind == "s":
                self.emit(f"_a[{what!r}] = _a.get({what!r}, 0.0) + {float(n)!r}")
            else:
                self.emit(f"_c = {what}")
                self.emit("if _c is not None: _a[_c] = _a.get(_c, 0.0) + 1.0")

    def settle(self, ex: Optional[_Ex]) -> Optional[_Ex]:
        """Flush before ``ex`` runs (it charges nothing at run time)."""
        if ex is not None and any(k == "d" for k, _ in self.pending):
            ex = self.mat(ex)
        self.flush()
        return ex

    def census(self, ctrl: Any) -> str:
        if ctrl == "_ctrl":
            return ("(_rec.active if _ctrl is None else"
                    " _rec.census_for(_ctrl))")
        return f"_rec.census_for({ctrl})"

    def region(self, ctrl: Any, build: Callable, events: bool):
        """Compile ``build()`` with its charges attributed to the
        loop-control block ``ctrl``; leaves nothing pending."""
        if ctrl is None:
            return self.settle(build())
        self.flush()
        if events:  # the region calls out: really push the attribution
            guard = "if _ctrl is not None: " if ctrl == "_ctrl" else ""
            self.emit(f"{guard}_rec.attr_push({ctrl})")
            result = self.settle(build())
            self.emit(f"{guard}_rec.attr_pop()")
            return result
        saved, self.target = self.target, self.census(ctrl)
        result = self.settle(build())
        self.target = saved
        return result

    # -- expression helpers -----------------------------------------------------
    def mat(self, ex: _Ex) -> _Ex:
        """Evaluate ``ex`` now, into a temporary."""
        if ex.const:
            return ex
        t = self.temp()
        self.emit(f"{t} = {ex.code}")
        return _Ex(t, ex.ty, safe=True)

    def hoist(self, exs: List[_Ex], mark: int) -> List[_Ex]:
        """Keep left-to-right order: when code was emitted after ``mark``
        (while compiling a later operand), evaluate ``exs`` before it,
        in order."""
        if len(self.lines) == mark:
            return exs
        out, lines = [], []
        for ex in exs:
            if not ex.const:
                t = self.temp()
                lines.append((self.level, f"{t} = {ex.code}"))
                ex = _Ex(t, ex.ty, safe=True)
            out.append(ex)
        self.lines[mark:mark] = lines
        return out

    def seq(self, exprs: Sequence[A.Expr]) -> List[_Ex]:
        """Compile operands evaluated left to right."""
        out: List[_Ex] = []
        for e in exprs:
            mark = len(self.lines)
            ex = self.ex(e)
            out = self.hoist(out, mark) + [ex]
        return out

    def capture(self, ex: _Ex) -> tuple:
        """(code, name): ``name`` holds ``ex``'s value once code ran."""
        if ex.code.startswith("_t") and ex.code[2:].isdigit():
            return ex.code, ex.code
        t = self.temp()
        return f"({t} := {ex.code})", t

    @staticmethod
    def coerce(ex: _Ex, ctype: str) -> str:
        want = _py_type(ctype)
        if ex.ty == want:
            return ex.code
        if ex.ty in ("int", "float", "arr"):
            return f"{want}({ex.code})"
        return f"_coerce({ex.code}, {ctype!r})"

    def lookup(self, name: str) -> Optional[_Var]:
        for scope in reversed(self.scopes):
            var = scope.get(name)
            if var is not None:
                return var
        return self.comp.globals.get(name)

    def assigned(self, var: _Var) -> str:
        """``var``'s Python name, as an assignment target."""
        if var.is_global:
            self.assigned_globals.update(_py_names(var))
        return var.py

    def declare(self, d: A.VarDecl, ty: str, ndim=None, is_float=None) -> _Var:
        if self.at_global:
            return self.comp.globals[d.name]
        self.nvar += 1
        var = _Var(f"v{self.nvar}_{d.name}", ty, d.type.name, ndim, is_float)
        self.scopes[-1][d.name] = var
        return var

    # -- expressions ---------------------------------------------------------------
    def ex(self, e: A.Expr) -> _Ex:
        kind = type(e)
        if kind is A.IntLit:
            return _Ex(f"({e.value!r})" if e.value < 0 else repr(e.value),
                       "int", const=True)
        if kind is A.FloatLit:
            return _Ex(f"({e.value!r})", "float", const=True)
        if kind is A.StringLit:
            return _Ex(repr(e.value), "str", const=True)
        if kind is A.Ident:
            var = self.lookup(e.name)
            if var is None:
                return self.fail(f'line {e.line}: undefined variable {e.name!r}')
            if var.ty == "arr":
                return _Ex(var.py, "arr", safe=True)
            self.charge("scalar_load")
            return _Ex(var.py, var.ty, safe=True)
        if kind is A.Index:
            return self.index_read(e)
        if kind is A.BinOp:
            if e.op in ("&&", "||"):
                return self.logical(e)
            left, right = self.seq([e.left, e.right])
            return self.arith(e.op, left, right, e.line)
        if kind is A.Assign:
            return self.assign(e, want=True)
        if kind is A.Call:
            return self.call(e, want=True)
        if kind is A.UnOp:
            return self.unop(e, want=True)
        if kind is A.Cast:
            self.charge("int_op")
            inner = self.ex(e.expr)
            if inner.ty == "none":
                return _Ex("None", "none")
            ty = _py_type(e.type.name)
            # int(x) of a float raises on inf and nan
            return _Ex(self.coerce(inner, e.type.name), ty,
                       safe=inner.safe and inner.ty in ("int", ty))
        if kind is A.Cond:
            return self.cond(e)
        return self.fail(f'unsupported expression {kind.__name__}')

    def test(self, e: A.Expr) -> _Ex:
        """Compile a condition; comparisons yield Python bools here."""
        if isinstance(e, A.BinOp) and e.op in _COMPARE:
            left, right = self.seq([e.left, e.right])
            self.charge("int_op")
            return _Ex(f"({left.code} {e.op} {right.code})", "int",
                       safe=left.safe and right.safe)
        if isinstance(e, A.UnOp) and e.op == "!":
            value = self.ex(e.operand)
            self.charge("int_op")
            return _Ex(f"(not {value.code})", "int", safe=value.safe)
        return self.ex(e)

    def arith(self, op: str, left: _Ex, right: _Ex, line: int) -> _Ex:
        """Binary operators (also the ``op`` of ``op=``)."""
        lt, rt = left.ty, right.ty
        safe = left.safe and right.safe and lt in ("int", "float") \
            and rt in ("int", "float")
        if op in _ARITH_FP:
            fp = _ARITH_FP[op]
            if lt in ("int", "dyn") and rt in ("int", "dyn") and "dyn" in (lt, rt):
                lcode, lname = self.capture(left)
                rcode, rname = self.capture(right)
                self.charge_dyn(f"_int_op({lname}, {rname}, {fp!r})")
                left, right = _Ex(lcode, lt), _Ex(rcode, rt)
            else:
                self.charge("int_op" if lt == rt == "int" else fp)
            both = {lt, rt}
            ty = "int" if both == {"int"} else (
                "float" if both <= {"int", "float"} else "dyn")
            if op == "/":
                return _Ex(f"_div({left.code}, {right.code}, {line})", ty)
            return _Ex(f"({left.code} {op} {right.code})", ty, safe=safe)
        if op == "%":
            self.charge("int_op")
            return _Ex(f"_mod({left.code}, {right.code}, {line})", "int")
        if op in _COMPARE:
            self.charge("int_op")
            return _Ex(f"(1 if {left.code} {op} {right.code} else 0)", "int",
                       safe=safe)
        if op in _BITWISE:
            self.charge("int_op")
            lc = left.code if lt == "int" else f"int({left.code})"
            rc = right.code if rt == "int" else f"int({right.code})"
            return _Ex(f"({lc} {op} {rc})", "int")
        return self.fail(f'unsupported operator {op!r}')

    def logical(self, e: A.BinOp) -> _Ex:
        self.charge("branch")
        left = self.settle(self.ex(e.left))
        t = self.temp()
        short = "0" if e.op == "&&" else "1"
        with self.indented(f"if {'' if e.op == '&&' else 'not '}{left.code}:"):
            right = self.ex(e.right)
            self.emit(f"{t} = 1 if {right.code} else 0")
            self.flush()
        with self.indented("else:"):
            self.emit(f"{t} = {short}")
        return _Ex(t, "int", safe=True)

    def cond(self, e: A.Cond) -> _Ex:
        self.charge("branch")
        test = self.settle(self.ex(e.cond))
        t = self.temp()
        with self.indented(f"if {test.code}:"):
            then = self.ex(e.then)
            self.emit(f"{t} = {then.code}")
            self.flush()
        with self.indented("else:"):
            other = self.ex(e.other)
            self.emit(f"{t} = {other.code}")
            self.flush()
        ty = then.ty if then.ty == other.ty else "dyn"
        return _Ex(t, ty, safe=True)

    # -- array elements --------------------------------------------------------------
    def element(self, e: A.Index):
        """Resolve ``e``'s base and indices (charges ``addr`` + index
        work).  Returns (var, index codes) or an error _Ex."""
        var = self.lookup(e.base.name)
        if var is None:
            return self.fail(f'line {e.line}: undefined variable {e.base.name!r}')
        if var.ty != "arr":
            return self.fail(f'line {e.line}: {e.base.name!r} is not an array')
        codes: List[_Ex] = []
        for index_expr in e.indices:
            self.charge("addr")
            mark = len(self.lines)
            ex = self.ex(index_expr)
            codes = self.hoist(codes, mark)
            if ex.ty != "int":
                ex = _Ex(f"int({ex.code})", "int")
            codes.append(ex)
        return var, codes

    def checked(self, var: _Var, e: A.Index, idx: List[_Ex]) -> tuple:
        """(index code, bounds condition, oob call) of a full access to a
        declared array."""
        all_safe = all(i.safe for i in idx)
        uses, checks, reports = [], [], []
        for k, i in enumerate(idx):
            bound = f"{var.py}_n{k}"
            if i.const or (all_safe and i.code.isidentifier()):
                use = i.code
                checks.append(f"0 <= {use} < {bound}")
            else:
                use = self.temp()
                checks.append(f"0 <= ({use} := {i.code}) < {bound}")
            uses.append(use)
            reports.append(i.code if all_safe else use)
        if all_safe:
            cond = " and ".join(checks)
        else:
            cond = " & ".join(f"({c})" for c in checks)
        shape = ", ".join(f"{var.py}_n{k}" for k in range(len(idx)))
        oob = (f"_oob({e.line}, {e.base.name!r}, ({', '.join(reports)},),"
               f" ({shape},))")
        return uses, cond, oob

    def index_read(self, e: A.Index) -> _Ex:
        got = self.element(e)
        if isinstance(got, _Ex):
            return got
        var, idx = got
        if var.ndim is not None and len(idx) == var.ndim:
            self.charge("mem_load")
            uses, cond, oob = self.checked(var, e, idx)
            return _Ex(f"({var.py}_d.item({', '.join(uses)}) if {cond} else {oob})",
                       "float" if var.is_float else "int")
        call = (f"_read({var.py}, ({', '.join(i.code for i in idx)},),"
                f" {e.line}, {e.base.name!r})")
        if var.ndim is not None and len(idx) < var.ndim:
            return _Ex(call, "arr")
        if var.ndim is not None:  # too many indices: _read raises
            return _Ex(call, "dyn")
        code, name = self.capture(_Ex(call, "dyn"))
        self.charge_dyn(f"None if isinstance({name}, CArray) else 'mem_load'")
        return _Ex(code, "dyn")

    def store(self, e: A.Index, value: _Ex) -> None:
        """Emit ``e = value`` (value's code runs first, as in C)."""
        mark = len(self.lines)
        got = self.element(e)
        value, = self.hoist([value], mark)
        if isinstance(got, _Ex):
            self.emit(f"{value.code}, {got.code}")
            return
        var, idx = got
        if var.ndim is not None and len(idx) == var.ndim:
            self.charge("mem_store")
            uses, cond, oob = self.checked(var, e, idx)
            key = uses[0] if len(uses) == 1 else f"({', '.join(uses)})"
            self.emit(f"{var.py}_d[{key} if {cond} else {oob}] = {value.code}")
            return
        self.charge("mem_store")
        if not value.safe:
            value = self.mat(value)
        self.emit(f"_write({var.py}, ({', '.join(i.code for i in idx)},),"
                  f" {value.code}, {e.line}, {e.base.name!r})")

    # -- assignment ----------------------------------------------------------------
    def read_lvalue(self, target: A.Expr) -> _Ex:
        if isinstance(target, A.Index):
            return self.index_read(target)
        if not isinstance(target, A.Ident):
            return self.fail(f"line {target.line}: invalid lvalue")
        self.charge("scalar_load")
        var = self.lookup(target.name)
        if var is None:
            return self.fail(f"line {target.line}: undefined variable {target.name!r}")
        if var.ty == "arr":
            return _Ex(f"_scalar({var.py}, {target.line}, {target.name!r})", "dyn")
        return _Ex(var.py, var.ty, safe=True)

    def write_lvalue(self, target: A.Expr, value: _Ex) -> None:
        """Emit ``target = value`` (value's code runs first, as in C)."""
        if isinstance(target, A.Index):
            self.store(target, value)
            return
        error = None
        if not isinstance(target, A.Ident):
            error = f"line {target.line}: invalid assignment target"
        else:
            self.charge("scalar_store")
            var = self.lookup(target.name)
            if var is None:
                error = f"line {target.line}: assignment to undefined {target.name!r}"
            elif var.ty == "arr":
                error = f"line {target.line}: cannot assign to array {target.name!r}"
        if error is not None:
            self.emit(f"{value.code}, {self.fail(error).code}")
        else:
            self.emit(f"{self.assigned(var)} = {self.coerce(value, var.ctype)}")

    def assign(self, e: A.Assign, want: bool) -> Optional[_Ex]:
        value = self.ex(e.value)
        if e.op != "=":
            if not value.safe:
                value = self.mat(value)
            value = self.arith(e.op[0], self.read_lvalue(e.target), value, e.line)
        if want:
            value = self.mat(value)
        self.write_lvalue(e.target, value)
        return value if want else None

    def unop(self, e: A.UnOp, want: bool) -> Optional[_Ex]:
        op = e.op
        if op in ("++", "--"):
            old = self.read_lvalue(e.operand)
            if want and e.postfix:
                old = self.mat(old)
            new = self.arith(op[0], old, _Ex("1", "int", const=True), e.line)
            if want:
                new = self.mat(new)
            self.write_lvalue(e.operand, new)
            return (old if e.postfix else new) if want else None
        value = self.ex(e.operand)
        if op == "-":
            if value.ty == "dyn":
                code, name = self.capture(value)
                self.charge_dyn(f"'int_op' if isinstance({name}, int) else 'fp_add'")
                return _Ex(f"(-{code})", "dyn")
            self.charge("int_op" if value.ty == "int" else "fp_add")
            ty = value.ty if value.ty in ("int", "float") else "dyn"
            return _Ex(f"(-{value.code})", ty, safe=value.safe and ty != "dyn")
        if op == "!":
            self.charge("int_op")
            return _Ex(f"(0 if {value.code} else 1)", "int", safe=value.safe)
        if op == "~":
            self.charge("int_op")
            code = value.code if value.ty == "int" else f"int({value.code})"
            return _Ex(f"(~{code})", "int")
        return self.fail(f'unsupported unary {op!r}')

    # -- calls ------------------------------------------------------------------
    def call(self, e: A.Call, want: bool) -> _Ex:
        name = e.name
        if name in self.funcs:
            return self.user_call(e, want)
        if name in BUILTINS:
            return self.builtin(e)
        if name in COMM_APIS:
            return self.comm(e)
        if name in PAPI_APIS or name in DPERF_APIS:
            arg = e.args[0] if e.args else None
            which = "begin" if name.endswith("begin") else "end"
            if name in PAPI_APIS:
                if not isinstance(arg, A.IntLit):
                    return self.fail(f"line {e.line}: {name} needs int literal")
                event = f"_rec.block_{which}({arg.value!r})"
            else:
                if not isinstance(arg, A.StringLit):
                    return self.fail(f"line {e.line}: {name} needs a string")
                event = f"_rec.region({arg.value!r}, {which!r})"
            self.flush()
            self.emit(event)
            return _ZERO
        return self.fail(f'line {e.line}: unknown function {name!r}')

    def user_call(self, e: A.Call, want: bool) -> _Ex:
        func = self.funcs[e.name]
        self.charge("call")
        args = self.seq(e.args)
        params = func.params
        simple = len(args) == len(params) and all(
            (a.ty == "arr") == p.is_array for a, p in zip(args, params))
        if simple:
            args = [a if a.safe else self.mat(a) for a in args]
            call_args = [a.code if p.is_array else self.coerce(a, p.type.name)
                         for a, p in zip(args, params)]
        else:
            args = [self.mat(a) for a in args]
            call_args = [f"*_bind({self.const(func)}, [{', '.join(a.code for a in args)}])"]
        self.flush()
        call = f"f_{e.name}({', '.join(call_args + [str(self.body_ctrl)])})"
        if e.name in self.comp.gens:
            call = f"(yield from {call})"
        ret = func.return_type.name
        ty = "none" if ret == "void" else _py_type(ret)
        if not want:
            self.emit(call)
            return _Ex("None", "none")
        t = self.temp()
        self.emit(f"{t} = {call}")
        return _Ex(t, ty, safe=True)

    def builtin(self, e: A.Call) -> _Ex:
        name = e.name
        args = self.seq(e.args)
        self.charge(f"builtin:{name}")
        if name == "printf":
            fmt, rest = args[0], args[1:]
            self.emit(f"_out.append(_printf({fmt.code}, [{', '.join(a.code for a in rest)}]))")
            return _ZERO
        if len(args) != BUILTINS[name]:
            return _Ex(f"_builtin({name!r}, {e.line}, {', '.join(a.code for a in args)})",
                       "dyn")
        codes = [a.code for a in args]
        numeric = all(a.ty in ("int", "float") for a in args)
        floats = [a.code if a.ty == "float" else f"float({a.code})" for a in args]
        if numeric and name == "fabs":
            return _Ex(f"abs({floats[0]})", "float")
        if numeric and name in ("fmax", "fmin"):
            return _Ex(f"{name[1:]}({floats[0]}, {floats[1]})", "float")
        ty = _MATH_TYPES.get(name, "float")
        if name in ("floor", "ceil") and not numeric:
            ty = "dyn"  # math.floor of a non-float need not be an int
        return _Ex(f"_builtin({name!r}, {e.line}, {', '.join(codes)})", ty)

    def comm(self, e: A.Call) -> _Ex:
        name = e.name
        low = name.lower()
        if low in ("p2psap_init", "p2psap_finalize"):
            return _ZERO
        if low == "p2psap_rank":
            return _Ex("_rank", "int", safe=True)
        if low == "p2psap_size":
            return _Ex("_size", "int", safe=True)
        if low in ("p2psap_barrier", "mpi_barrier"):
            self.flush()
            self.emit(f"_rec.comm(CommRecord(api={name!r}, kind='barrier'))")
            self.emit("yield from _comm.barrier()")
            return _ZERO
        if low in ("p2psap_allreduce_max", "mpi_allreduce_max"):
            value = self.ex(e.args[0])
            t = self.temp()
            self.emit(f"{t} = {self.coerce(value, 'double')}")
            self.flush()
            self.emit(f"_rec.comm(CommRecord(api={name!r}, kind='allreduce',"
                      " count=1, elem_bytes=8))")
            self.emit(f"{t} = yield from _comm.allreduce_max({t})")
            return _Ex(t, "float", safe=True)
        sends = ("p2psap_send", "p2psap_isend", "mpi_send", "mpi_isend")
        if low in sends or low in ("p2psap_recv", "mpi_recv"):
            peer, buf, count = self.temp(), self.temp(), self.temp()
            self.emit(f"{peer} = {self.coerce(self.ex(e.args[0]), 'int')}")
            self.emit(f"{buf} = _buf({self.ex(e.args[1]).code}, {e.line}, {name!r}, 1)")
            self.emit(f"{count} = {self.coerce(self.ex(e.args[2]), 'int')}")
            self.emit(f"_check_count({e.line}, {buf}, {count})")
            self.flush()
            kind = "recv" if low in ("p2psap_recv", "mpi_recv") else (
                "isend" if "isend" in low else "send")
            self.emit(f"_rec.comm(CommRecord(api={name!r}, kind={kind!r},"
                      f" peer={peer}, count={count},"
                      f" count_expr={self.const(e.args[2])}, elem_bytes=8))")
            if kind == "recv":
                data = self.temp()
                self.emit(f"{data} = yield from _comm.data_recv({peer}, {count}, 'm')")
                self.emit(f"{buf}.data[:{count}] = {data}")
            else:
                self.emit(f"_comm.data_send({peer}, {buf}.data[:{count}], 'm')")
            return _ZERO
        return self.fail(f'line {e.line}: comm API {name!r} not handled')

    def effect(self, e: A.Expr) -> None:
        """Compile an expression whose value is discarded."""
        if isinstance(e, A.Assign):
            self.assign(e, want=False)
        elif isinstance(e, A.UnOp) and e.op in ("++", "--"):
            self.unop(e, want=False)
        elif isinstance(e, A.Call) and e.name in self.funcs:
            self.user_call(e, want=False)
        else:
            ex = self.ex(e)
            if not ex.safe:
                self.emit(ex.code)

    # -- statements -------------------------------------------------------------
    def block(self, block: A.Block, step: bool = True) -> None:
        if step and self.comp.count_steps:
            self.emit("_step()")
        self.scopes.append({})
        for stmt in block.stmts:
            self.stmt(stmt)
        self.scopes.pop()

    def child(self, stmt: A.Stmt) -> None:
        """A statement run in its own scope (if arms, loop bodies)."""
        self.scopes.append({})
        self.stmt(stmt)
        self.scopes.pop()

    def stmt(self, s: A.Stmt) -> None:
        if isinstance(s, A.Block):
            self.block(s)
            return
        if self.comp.count_steps:
            self.emit("_step()")
        if isinstance(s, SIMPLE_STMTS):  # straight-line: charges stay pending
            if isinstance(s, A.ExprStmt):
                self.effect(s.expr)
            elif isinstance(s, A.DeclStmt):
                self.decl(s)
        elif isinstance(s, A.If):
            self.if_stmt(s)
        elif isinstance(s, (A.While, A.For)):
            self.loop(s)
        elif isinstance(s, A.Return):
            self.ret(s)
        elif isinstance(s, (A.Break, A.Continue)):
            self.flush()
            if not self.loops:
                what = "break" if isinstance(s, A.Break) else "continue"
                self.emit(self.fail(f'line {s.line}: {what} outside of a loop').code)
            elif isinstance(s, A.Break):
                self.emit("break")
            else:
                self.back_edge(self.loops[-1])
                self.emit("continue")
        else:
            self.emit(self.fail(f'unsupported statement {type(s).__name__}').code)

    def decl(self, s: A.DeclStmt) -> None:
        for d in s.decls:
            is_float = d.type.name in _FLOAT_TYPES
            if d.is_array:
                dims = []
                for dim_expr in d.dims:
                    t = self.temp()
                    self.emit(f"{t} = _dim({self.ex(dim_expr).code}, {d.line}, {d.name!r})")
                    dims.append(t)
                var = self.declare(d, "arr", len(dims), is_float)
                py = self.assigned(var)
                dtype = "np.float64" if is_float else "np.int64"
                self.emit(f"{py} = CArray(np.zeros(({', '.join(dims)},), {dtype}),"
                          f" {is_float})")
                self.emit(f"{py}_d = {py}.data")
                for k, t in enumerate(dims):
                    self.emit(f"{py}_n{k} = {t}")
                if d.init is not None:
                    self.emit(self.fail(f'line {d.line}: array initializers are not supported').code)
            else:
                value = (_ZERO if d.init is None
                         else self.ex(d.init))
                var = self.declare(d, "float" if is_float else "int")
                self.emit(f"{self.assigned(var)} = "
                          f"{self.coerce(value, d.type.name)}")
                self.charge("scalar_store")

    def if_stmt(self, s: A.If) -> None:
        self.charge("branch")
        ctrl = self.body_ctrl
        test = self.region(ctrl, lambda: self.test(s.cond),
                           _has_events(s.cond, self.funcs))
        with self.indented(f"if {test.code}:"):
            self.child(s.then)
            self.flush()
        if s.other is not None:
            with self.indented("else:"):
                self.child(s.other)
                self.flush()

    def loop(self, s) -> None:
        table = self.comp.table
        ctrl = table.control_block_for(s) if table is not None else None
        is_for = isinstance(s, A.For)
        init = s.init if is_for else None
        step = s.step if is_for else None
        cond = s.cond
        outer = self.body_ctrl
        fused = not any(_has_events(p, self.funcs) for p in (init, step, cond))

        def head(first: bool) -> Optional[_Ex]:
            """[init | step], then the loop-top step tick, ``branch`` and
            the test: each iteration's loop-control work."""
            pre = init if first else step

            def run_pre():
                if pre is not None:
                    self.stmt(pre) if first else self.effect(pre)

            def run_top():
                if self.comp.count_steps:
                    self.emit("_step()")
                self.charge("branch")

            def run_test():
                return None if cond is None else self.test(cond)

            if fused:
                return self.region(
                    ctrl, lambda: (run_pre(), run_top(), run_test())[2], False)
            self.region(ctrl, run_pre, _has_events(pre, self.funcs))
            self.region(ctrl, run_top, False)
            return self.region(ctrl, run_test, _has_events(cond, self.funcs))

        self.flush()
        self.scopes.append({})
        test = head(True)
        ctx = _Loop(head, list(self.scopes), outer)
        opened = 0
        if test is not None:
            self.emit(f"if {test.code}:")
            self.level += 1
            opened += 1
        self.emit("while True:")
        self.level += 1
        opened += 1
        start = len(self.lines)
        self.loops.append(ctx)
        self.body_ctrl = ctrl if ctrl is not None else outer
        self.child(s.body)
        self.body_ctrl = outer
        self.loops.pop()
        self.flush()
        self.back_edge(ctx)
        if len(self.lines) == start:
            self.emit("pass")
        self.level -= opened
        self.scopes.pop()

    def back_edge(self, ctx: _Loop) -> None:
        """Emit the step expression and the next test (``break`` when
        it fails): the end of a loop body and every ``continue``."""
        scopes, body_ctrl = self.scopes, self.body_ctrl
        self.scopes, self.body_ctrl = list(ctx.scopes), ctx.outer_ctrl
        test = ctx.head(False)
        self.scopes, self.body_ctrl = scopes, body_ctrl
        if test is not None:
            self.emit(f"if not {test.code}: break")

    def ret(self, s: A.Return) -> None:
        value = None
        if s.value is not None:
            value = self.ex(s.value)
            if not value.safe:
                value = self.mat(value)
        self.flush()
        if value is None or value.ty == "none" or self.return_type == "void":
            self.emit("return None")
        else:
            self.emit(f"return {self.coerce(value, self.return_type)}")


def translate(program: A.Program, block_table: Optional[BlockTable],
              count_steps: bool) -> Tuple[str, List[Any], set]:
    """(source of ``_make``, the constants it reads as ``_K``, the names
    of the functions compiled to generators)."""
    compiler = _Compiler(program, block_table, count_steps)
    return compiler.compile(), compiler.consts, compiler.gens
