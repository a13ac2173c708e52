"""Mini-C execution with operation accounting, compiled to Python.

This is the "execution of instrumented code" stage of dPerf (Fig. 6):
the program runs for real — arrays hold real numbers, messages carry
real data between ranks — while every operation is charged to the
innermost active instrumented block of the per-rank
:class:`~repro.dperf.papi.SkeletonRecorder`.

:class:`CompiledProgram` translates each mini-C function once into
Python source (:mod:`~repro.dperf.codegen`, which states the census
invariants the translation keeps) and ``exec``-s it; this module holds
what that code runs against: the runtime helpers, the communication
runtimes and the rank scheduler.

Each rank is a generator: a blocking communication call (receive,
barrier, reduction) is a ``yield``, a call to a user function that may
block is a ``yield from``.  :func:`run_distributed` runs every rank on
the calling thread, round-robin, each until it blocks; when every
unfinished rank is blocked it raises at once, naming what each waits on.
"""

from __future__ import annotations

import inspect
import math
import re
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from .instrument import BlockTable
from .minic import cast as A
from .papi import Census, CommRecord, SkeletonRecorder


class InterpError(Exception):
    pass


class CArray:
    """A mini-C array backed by a numpy array (views share storage)."""

    __slots__ = ("data", "is_float")

    def __init__(self, data: np.ndarray, is_float: bool) -> None:
        self.data = data
        self.is_float = is_float

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def view(self, index: int) -> "CArray":
        return CArray(self.data[index], self.is_float)


# --------------------------------------------------------------------------
# Communication runtimes
# --------------------------------------------------------------------------
#
# ``data_recv``, ``barrier`` and ``allreduce_max`` are generators: they
# yield a description of what the rank waits on until it can proceed.

class NullComm:
    """Single-process runtime: rank 0 of 1; point-to-point is an error."""

    rank = 0
    size = 1

    def data_send(self, dst: int, values: np.ndarray, tag: str) -> None:
        raise InterpError("p2psap send with no peers (NullComm)")

    def data_recv(self, src: int, count: int, tag: str):
        raise InterpError("p2psap recv with no peers (NullComm)")
        yield  # pragma: no cover - makes this a generator

    def barrier(self):
        return
        yield  # pragma: no cover

    def allreduce_max(self, value: float):
        return value
        yield  # pragma: no cover


class _Network:
    """State shared by the ranks of one distributed run."""

    def __init__(self, size: int) -> None:
        self.size = size
        self.channels: Dict[tuple, deque] = {}
        self.barrier_gen = 0
        self.arrived = 0
        self.slots: List[float] = [0.0] * size
        self.progress = 0  # completed comm operations, for deadlock checks

    def channel(self, src: int, dst: int) -> deque:
        ch = self.channels.get((src, dst))
        if ch is None:
            ch = self.channels[(src, dst)] = deque()
        return ch


class RankComm:
    """One rank's endpoint of a single-thread multi-rank run."""

    def __init__(self, rank: int, net: _Network) -> None:
        self.rank = rank
        self.size = net.size
        self._net = net

    def data_send(self, dst: int, values: np.ndarray, tag: str) -> None:
        if not (0 <= dst < self.size):
            raise InterpError(f"send to invalid rank {dst}")
        self._net.channel(self.rank, dst).append(np.array(values, copy=True))
        self._net.progress += 1

    def data_recv(self, src: int, count: int, tag: str):
        if not (0 <= src < self.size):
            raise InterpError(f"recv from invalid rank {src}")
        ch = self._net.channel(src, self.rank)
        while not ch:
            yield f"recv from {src}"
        data = ch.popleft()
        self._net.progress += 1
        if len(data) != count:
            raise InterpError(
                f"rank {self.rank}: recv count {count} != sent {len(data)}"
            )
        return data

    def barrier(self):
        net = self._net
        gen = net.barrier_gen
        net.arrived += 1
        net.progress += 1
        if net.arrived == net.size:
            net.arrived = 0
            net.barrier_gen += 1
        while net.barrier_gen == gen:
            yield "barrier"

    def allreduce_max(self, value: float):
        self._net.slots[self.rank] = value
        yield from self.barrier()
        result = max(self._net.slots)
        yield from self.barrier()  # keep slots stable until everyone has read
        return result


# --------------------------------------------------------------------------
# Runtime helpers called by compiled code
# --------------------------------------------------------------------------

_FLOAT_TYPES = ("float", "double")

_PRINTF_SPEC = re.compile(r"%[-+ #0-9.]*([dioufgGeEsxX%])")


def _coerce(value: Any, type_name: str) -> Any:
    if value is None:
        return None
    if type_name in _FLOAT_TYPES:
        return float(value)
    return int(value)  # truncation toward zero, as in C


def _fail(message: str):
    raise InterpError(message)


def _oob(line: int, name: str, idx: tuple, shape: tuple):
    for axis, i in enumerate(idx):
        if not (0 <= i < shape[axis]):
            raise InterpError(
                f"line {line}: index {i} out of bounds for axis"
                f" {axis} of {name!r} (size {shape[axis]})"
            )
    raise AssertionError("index in bounds")  # pragma: no cover


def _resolve(array: CArray, idx: tuple, line: int, name: str):
    """Checks of an element access whose shape is only known at run time."""
    data = array.data
    if len(idx) > data.ndim:
        raise InterpError(
            f"line {line}: {name!r} has {data.ndim} dims,"
            f" indexed with {len(idx)}"
        )
    for axis, i in enumerate(idx):
        if not (0 <= i < data.shape[axis]):
            _oob(line, name, idx, data.shape)
    return data


def _read(array: CArray, idx: tuple, line: int, name: str) -> Any:
    data = _resolve(array, idx, line, name)
    if len(idx) < data.ndim:
        # Partial indexing yields a row view (C array decay).
        return CArray(data[idx], array.is_float)
    value = data[idx]
    return float(value) if array.is_float else int(value)


def _write(array: CArray, idx: tuple, value: Any, line: int, name: str):
    data = _resolve(array, idx, line, name)
    if len(idx) != data.ndim:
        raise InterpError(f"line {line}: cannot assign to a whole row")
    data[idx] = value


def _scalar(value: Any, line: int, name: str) -> Any:
    if isinstance(value, CArray):
        raise InterpError(
            f"line {line}: cannot use array {name!r} as a scalar"
        )
    return value


def _dim(value: Any, line: int, name: str) -> int:
    dim = int(value)
    if dim <= 0:
        raise InterpError(f"line {line}: array {name!r} dimension {dim} <= 0")
    return dim


# One implementation per arithmetic operator, shared by ``a op b`` and
# ``a op= b``.

def _div(left: Any, right: Any, line: int) -> Any:
    if isinstance(left, int) and isinstance(right, int):
        if right == 0:
            raise InterpError(f"line {line}: integer division by zero")
        return -(-left // right) if (left < 0) != (right < 0) else left // right
    if right == 0.0:
        return math.inf if left > 0 else (-math.inf if left < 0 else math.nan)
    return left / right


def _mod(left: Any, right: Any, line: int) -> int:
    if not (isinstance(left, int) and isinstance(right, int)):
        raise InterpError(f"line {line}: % requires integers")
    if right == 0:
        raise InterpError(f"line {line}: modulo by zero")
    rem = abs(left) % abs(right)  # C: the sign follows the dividend
    return -rem if left < 0 else rem


def _int_op(left: Any, right: Any, fp: str) -> str:
    return "int_op" if isinstance(left, int) and isinstance(right, int) else fp


_MATH: Dict[str, Callable] = {
    "fabs": lambda x: abs(float(x)),
    "sqrt": math.sqrt,
    "exp": math.exp,
    "log": math.log,
    "pow": math.pow,
    "fmax": lambda a, b: max(float(a), float(b)),
    "fmin": lambda a, b: min(float(a), float(b)),
    "floor": math.floor,
    "ceil": math.ceil,
    "abs": lambda x: abs(int(x)),
}

def _builtin(name: str, line: int, *args: Any) -> Any:
    try:
        return _MATH[name](*args)
    except ValueError as err:
        raise InterpError(f"line {line}: {name}: {err}") from None


def _buf(value: Any, line: int, name: str, i: int) -> CArray:
    if not isinstance(value, CArray):
        raise InterpError(f"line {line}: {name} argument {i} must be an array")
    if value.data.ndim != 1:
        raise InterpError(
            f"line {line}: {name} needs a 1-D buffer "
            "(pass a row, e.g. u[i])"
        )
    return value


def _check_count(line: int, buf: CArray, count: int) -> None:
    if count < 0 or count > len(buf.data):
        raise InterpError(
            f"line {line}: count {count} out of range for buffer"
            f" of {len(buf.data)}"
        )


def _bind(func: A.FuncDef, args: Sequence[Any]) -> List[Any]:
    """Check and coerce a call's arguments against ``func``'s params."""
    name = func.name
    if len(args) != len(func.params):
        raise InterpError(
            f"{name}() takes {len(func.params)} args, got {len(args)}"
        )
    bound = []
    for param, arg in zip(func.params, args):
        if param.is_array:
            if isinstance(arg, np.ndarray):
                arg = CArray(arg, param.type.name in _FLOAT_TYPES)
            if not isinstance(arg, CArray):
                raise InterpError(
                    f"{name}(): parameter {param.name!r} expects an array"
                )
            bound.append(arg)
        else:
            bound.append(_coerce(arg, param.type.name))
    return bound


def _printf(fmt: str, args: List[Any]) -> str:
    """Minimal C printf semantics for trace/debug output."""
    arg_iter = iter(args)

    def repl(match: re.Match) -> str:
        spec = match.group(0)
        conv = match.group(1)
        if conv == "%":
            return "%"
        try:
            value = next(arg_iter)
        except StopIteration:
            raise InterpError("printf: not enough arguments") from None
        if conv in "diouxX":
            return (spec[:-1] + conv.replace("i", "d").replace("u", "d")) \
                % int(value)
        if conv in "fgGeE":
            return spec % float(value)
        return spec % str(value)

    return _PRINTF_SPEC.sub(repl, fmt)


_NAMESPACE = {
    "np": np, "CArray": CArray, "CommRecord": CommRecord,
    "InterpError": InterpError, "_coerce": _coerce, "_fail": _fail,
    "_oob": _oob, "_read": _read, "_write": _write, "_scalar": _scalar,
    "_dim": _dim, "_div": _div, "_mod": _mod, "_int_op": _int_op,
    "_builtin": _builtin, "_buf": _buf, "_check_count": _check_count,
    "_bind": _bind, "_printf": _printf,
}


# --------------------------------------------------------------------------
# Compiled programs and their execution
# --------------------------------------------------------------------------

@dataclass
class RankRun:
    """Result of one rank's instrumented execution."""

    rank: int
    entries: list
    value: Any
    output: List[str]
    census: Census
    block_exec_counts: Dict[int, int] = field(default_factory=dict)


class _Runtime:
    """Per-rank state the compiled code is bound to."""

    __slots__ = ("recorder", "comm", "output", "steps", "max_steps")

    def __init__(self, recorder, comm, max_steps) -> None:
        self.recorder = recorder
        self.comm = comm
        self.output: List[str] = []
        self.steps = 0
        self.max_steps = max_steps

    def step(self) -> None:
        self.steps += 1
        if self.steps > self.max_steps:
            raise InterpError(f"step limit {self.max_steps} exceeded")


class CompiledProgram:
    """A mini-C program compiled once to Python, runnable on any number
    of ranks.  ``source`` is the generated Python (for inspection).
    ``count_steps`` compiles in the step ticks a ``max_steps`` limit
    needs; only such a build accepts one."""

    def __init__(self, program: A.Program,
                 block_table: Optional[BlockTable] = None,
                 count_steps: bool = False) -> None:
        # imported on first use: a process that never runs mini-C does
        # not pay for loading the translator
        from .codegen import translate

        self.source, consts, self._gens = translate(program, block_table,
                                                    count_steps)
        self.count_steps = count_steps
        self._funcs = {f.name: f for f in program.funcs}
        namespace = dict(_NAMESPACE, _K=consts)
        exec(compile(self.source, "<minic>", "exec"), namespace)
        self._make = namespace["_make"]

    def _rank(self, runtime: _Runtime, entry: str, args: Sequence[Any]):
        """One rank's execution, as a generator returning its value."""
        init, funcs = self._make(runtime)
        if inspect.isgeneratorfunction(init):
            yield from init()
        else:
            init()
        func = self._funcs.get(entry)
        if func is None:
            raise InterpError(f"no function {entry!r}")
        bound = _bind(func, args)
        if entry in self._gens:
            value = yield from funcs[entry](*bound, None)
        else:
            value = funcs[entry](*bound, None)
        return value

    def _check_steps(self, max_steps: Optional[int]) -> None:
        if (max_steps is not None) != self.count_steps:
            raise ValueError("max_steps needs a program compiled with "
                             "count_steps=True, and only such a program")

    def run_single(self, entry: str, args: Sequence[Any] = (),
                   max_steps: Optional[int] = None) -> RankRun:
        """Run single-rank (rank 0 of 1, no peers)."""
        self._check_steps(max_steps)
        recorder = SkeletonRecorder(0)
        runtime = _Runtime(recorder, NullComm(), max_steps)
        try:
            next(self._rank(runtime, entry, list(args)))
        except StopIteration as done:
            value = done.value
        else:  # pragma: no cover - NullComm never blocks
            raise InterpError("single rank blocked")
        entries = recorder.finish()
        return RankRun(0, entries, value, runtime.output,
                       recorder.total_census(), recorder.block_exec_counts)

    def run_distributed(
        self, entry: str, nprocs: int,
        args: Sequence[Any] | Callable[[int], Sequence[Any]] = (),
        max_steps: Optional[int] = None,
    ) -> List[RankRun]:
        """Run ``nprocs`` ranks round-robin on this thread."""
        if nprocs < 1:
            raise ValueError("nprocs must be >= 1")
        self._check_steps(max_steps)
        net = _Network(nprocs)
        runtimes, ranks = [], []
        for rank in range(nprocs):
            runtime = _Runtime(SkeletonRecorder(rank), RankComm(rank, net),
                               max_steps)
            rank_args = args(rank) if callable(args) else list(args)
            runtimes.append(runtime)
            ranks.append(self._rank(runtime, entry, rank_args))
        values = _schedule(ranks, net)
        runs = []
        for rank, (runtime, value) in enumerate(zip(runtimes, values)):
            recorder = runtime.recorder
            entries = recorder.finish()
            runs.append(RankRun(rank, entries, value, runtime.output,
                                recorder.total_census(),
                                recorder.block_exec_counts))
        return runs


def _schedule(ranks: List[Any], net: _Network) -> List[Any]:
    """Round-robin: run each unfinished rank until it blocks.  Raises
    the first rank failure, or a deadlock once no rank can proceed."""
    values: List[Any] = [None] * len(ranks)
    waits: Dict[int, str] = {}
    live = list(range(len(ranks)))
    while live:
        progress = net.progress
        still = []
        for rank in live:
            try:
                waits[rank] = ranks[rank].send(None)
                still.append(rank)
            except StopIteration as done:
                values[rank] = done.value
                waits.pop(rank, None)
                net.progress += 1
            except Exception as err:  # noqa: BLE001 - reported per rank
                raise InterpError(f"rank {rank} failed: {err}") from err
        live = still
        if live and net.progress == progress:
            blocked = "; ".join(f"rank {r} blocked in {waits[r]}" for r in live)
            raise InterpError(f"deadlock: {blocked}")
    return values


def run_single(
    program: A.Program,
    entry: str,
    args: Sequence[Any] = (),
    block_table: Optional[BlockTable] = None,
    max_steps: Optional[int] = None,
) -> RankRun:
    """Compile and run a program single-rank (rank 0 of 1)."""
    compiled = CompiledProgram(program, block_table, max_steps is not None)
    return compiled.run_single(entry, args, max_steps)


def run_distributed(
    program: A.Program,
    entry: str,
    nprocs: int,
    args: Sequence[Any] | Callable[[int], Sequence[Any]] = (),
    block_table: Optional[BlockTable] = None,
    max_steps: Optional[int] = None,
) -> List[RankRun]:
    """Compile and run ``nprocs`` ranks with real messaging.

    ``args`` is either a fixed argument list or ``rank -> args``.
    Raises the first rank's error if any rank fails.
    """
    compiled = CompiledProgram(program, block_table, max_steps is not None)
    return compiled.run_distributed(entry, nprocs, args, max_steps)
