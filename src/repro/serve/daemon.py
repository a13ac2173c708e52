"""The query daemon: sockets, worker threads, graceful drain.

:class:`ServeDaemon` wraps one :class:`~repro.serve.engine.QueryEngine`
behind a Unix or TCP stream socket speaking the NDJSON protocol of
:mod:`repro.serve.protocol`.  An acceptor thread hands connections to
a bounded worker pool; each connection runs a frame loop that answers
requests in order.  Request handling runs on a second bounded pool so
a wedged compute can be timed out with a clean ``timeout`` reply
instead of hanging the connection.

Shutdown is a **drain**: on ``stop()`` (or SIGTERM/SIGINT under
:meth:`serve_forever`) the listener closes first, every frame already
received is answered, then connections close and both pools join.  A
client that sent a request before the drain began always gets its
reply.
"""

from __future__ import annotations

import logging
import os
import signal
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor, TimeoutError as FutureTimeout
from typing import Any, Dict, Optional

from ..scenarios.spec import parse_plan
from .engine import ComputeAbandoned, QueryEngine
from .protocol import (
    MAX_BATCH,
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    encode,
    error_reply,
    parse_address,
    parse_request,
)
from .query import QuerySpec

#: Default worker threads (connections and request handlers alike).
DEFAULT_WORKERS = 4

#: Default per-request compute timeout (seconds).
DEFAULT_REQUEST_TIMEOUT = 60.0

#: Socket poll interval — how often idle loops notice the drain flag.
_POLL_SECONDS = 0.2

_LOG = logging.getLogger("repro.serve")


def _count(request: Dict[str, Any], name: str, default: int) -> int:
    value = request.get(name, default)
    if type(value) is not int:  # bools are not counts
        raise ProtocolError("bad-request", f"{name!r} must be an integer")
    return value


class ServeDaemon:
    """One engine behind one listening socket (see module doc).

    ``address`` is ``host:port`` for TCP (port 0 picks a free port —
    read the bound address back from :attr:`address` after
    :meth:`start`) or a filesystem path for a Unix socket.
    """

    def __init__(
        self,
        engine: QueryEngine,
        address: str = "127.0.0.1:0",
        workers: int = DEFAULT_WORKERS,
        request_timeout: float = DEFAULT_REQUEST_TIMEOUT,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers!r}")
        if request_timeout <= 0:
            raise ValueError(
                f"request_timeout must be > 0, got {request_timeout!r}"
            )
        self.engine = engine
        self.workers = workers
        self.request_timeout = request_timeout
        self._family, self._sockaddr = parse_address(address)
        self._listener: Optional[socket.socket] = None
        self._acceptor: Optional[threading.Thread] = None
        self._conn_pool: Optional[ThreadPoolExecutor] = None
        self._req_pool: Optional[ThreadPoolExecutor] = None
        self._stop = threading.Event()
        self._conns: Dict[int, socket.socket] = {}
        self._conns_lock = threading.Lock()
        self._unix_path: Optional[str] = None

    # -- lifecycle ----------------------------------------------------------
    @property
    def address(self) -> str:
        """The bound address (resolved port for TCP port 0)."""
        if self._listener is None:
            raise RuntimeError("daemon is not started")
        if self._family == socket.AF_UNIX:
            return str(self._sockaddr)
        host, port = self._listener.getsockname()[:2]
        return f"{host}:{port}"

    @property
    def running(self) -> bool:
        return self._listener is not None and not self._stop.is_set()

    def start(self) -> "ServeDaemon":
        """Bind, listen, and start accepting (returns self)."""
        if self._listener is not None:
            raise RuntimeError("daemon already started")
        listener = socket.socket(self._family, socket.SOCK_STREAM)
        if self._family == socket.AF_INET:
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        else:
            self._unix_path = str(self._sockaddr)
            try:
                os.unlink(self._unix_path)
            except OSError:
                pass
        listener.bind(self._sockaddr)
        listener.listen(128)
        listener.settimeout(_POLL_SECONDS)
        self._listener = listener
        self._stop.clear()
        self._conn_pool = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="serve-conn"
        )
        self._req_pool = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="serve-req"
        )
        self._acceptor = threading.Thread(
            target=self._accept_loop, name="serve-accept", daemon=True
        )
        self._acceptor.start()
        return self

    def stop(self) -> None:
        """Drain and shut down (idempotent, blocks until quiescent)."""
        if self._listener is None:
            return
        self._stop.set()
        try:
            self._listener.close()
        except OSError:
            pass
        if self._acceptor is not None:
            self._acceptor.join()
            self._acceptor = None
        # connection loops notice the drain flag after answering every
        # frame they already received, then exit; wait for all of them
        if self._conn_pool is not None:
            self._conn_pool.shutdown(wait=True)
            self._conn_pool = None
        if self._req_pool is not None:
            self._req_pool.shutdown(wait=True)
            self._req_pool = None
        with self._conns_lock:
            leftovers = list(self._conns.values())
            self._conns.clear()
        for conn in leftovers:
            try:
                conn.close()
            except OSError:
                pass
        if self._unix_path is not None:
            try:
                os.unlink(self._unix_path)
            except OSError:
                pass
        self._listener = None

    def serve_forever(self) -> None:
        """Block until SIGTERM/SIGINT, then drain (main thread only)."""
        stop_signal = threading.Event()

        def _on_signal(_signum: int, _frame: Any) -> None:
            stop_signal.set()

        previous = {
            sig: signal.signal(sig, _on_signal)
            for sig in (signal.SIGTERM, signal.SIGINT)
        }
        try:
            stop_signal.wait()
        finally:
            for sig, handler in previous.items():
                signal.signal(sig, handler)
            self.stop()

    def __enter__(self) -> "ServeDaemon":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()

    # -- accept / connection loops ------------------------------------------
    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _peer = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break  # listener closed under us: drain has begun
            self.engine.stats.bump("connections")
            with self._conns_lock:
                self._conns[conn.fileno()] = conn
            self._conn_pool.submit(self._serve_connection, conn)

    def _serve_connection(self, conn: socket.socket) -> None:
        """Frame loop: answer complete frames in order, poll the drain
        flag between reads, never let one bad client take the daemon
        down."""
        key = conn.fileno()
        conn.settimeout(_POLL_SECONDS)
        buf = b""
        try:
            while True:
                while b"\n" in buf:
                    line, buf = buf.split(b"\n", 1)
                    if not line:
                        continue
                    reply = self._handle_line(line)
                    conn.sendall(encode(reply))
                if len(buf) > MAX_LINE_BYTES:
                    # unframeable: no newline in sight, nothing a reply
                    # could be matched to — drop the connection
                    self.engine.stats.bump("dropped_connections")
                    return
                if self._stop.is_set():
                    return  # drained: every received frame was answered
                try:
                    chunk = conn.recv(65536)
                except socket.timeout:
                    continue
                except OSError:
                    return
                if not chunk:
                    return  # client EOF
                buf += chunk
        except OSError:
            return  # client went away mid-reply: their loss only
        finally:
            with self._conns_lock:
                self._conns.pop(key, None)
            try:
                conn.close()
            except OSError:
                pass

    # -- request handling ----------------------------------------------------
    def _handle_line(self, line: bytes) -> Dict[str, Any]:
        """One frame to one reply — *never* raises.

        The request's deadline is stamped *here* and carried into the
        engine: when ``future.result`` times out below, the abandoned
        worker thread consults that same deadline inside the engine
        and bails (``ComputeAbandoned``) instead of simulating the
        rest of a pool nobody is waiting for — the compute lock frees
        within one scenario run, not one full pool.
        """
        try:
            request = parse_request(line)
        except ProtocolError as exc:
            self.engine.stats.bump("protocol_errors")
            return exc.reply()
        deadline = time.monotonic() + self.request_timeout
        future = self._req_pool.submit(self._dispatch, request, deadline)
        try:
            return future.result(timeout=self.request_timeout)
        except FutureTimeout:
            self.engine.stats.bump("request_timeouts")
            return error_reply(
                "timeout",
                f"request exceeded {self.request_timeout}s",
            )
        except ComputeAbandoned:
            # the worker noticed the expired deadline before
            # future.result did (e.g. while queued behind another
            # compute): same outcome, same reply
            self.engine.stats.bump("request_timeouts")
            return error_reply(
                "timeout",
                f"request exceeded {self.request_timeout}s",
            )
        except Exception as exc:  # noqa: BLE001 — the keep-serving contract
            self.engine.stats.bump("internal_errors")
            _LOG.exception("internal error answering %r op",
                           request.get("op"))
            return error_reply("internal-error", str(exc))

    def _dispatch(self, request: Dict[str, Any],
                  deadline: Optional[float] = None) -> Dict[str, Any]:
        op = request["op"]
        try:
            if op == "ping":
                return {"ok": True, "op": "ping",
                        "protocol": PROTOCOL_VERSION}
            if op == "query":
                return self._op_query(request, deadline)
            if op == "batch":
                return self._op_batch(request, deadline)
            if op == "price":
                return self._op_price(request)
            if op == "stats":
                return self._op_stats()
            if op == "shutdown":
                threading.Thread(target=self.stop, daemon=True).start()
                return {"ok": True, "draining": True}
            raise ProtocolError("unknown-op", f"op {op!r}")
        except ProtocolError as exc:
            self.engine.stats.bump("protocol_errors")
            return exc.reply()
        except (KeyError, ValueError) as exc:
            self.engine.stats.bump("protocol_errors")
            return error_reply("bad-query", str(exc))

    def _op_query(self, request: Dict[str, Any],
                  deadline: Optional[float] = None) -> Dict[str, Any]:
        payload = request.get("query")
        if payload is None:
            raise ProtocolError("bad-request", "query op needs a 'query'")
        query = QuerySpec.from_dict(payload)
        answer = self.engine.answer(query, deadline)
        self.engine.stats.bump("served")
        return {"ok": True, "answer": answer.to_dict()}

    def _op_batch(self, request: Dict[str, Any],
                  deadline: Optional[float] = None) -> Dict[str, Any]:
        payloads = request.get("queries")
        if not isinstance(payloads, list):
            raise ProtocolError("bad-request", "batch op needs 'queries'")
        if len(payloads) > MAX_BATCH:
            raise ProtocolError(
                "batch-too-large",
                f"batch of {len(payloads)} exceeds {MAX_BATCH}",
            )
        # validate the whole batch before answering any of it: a batch
        # is atomic, so a typo in query 40 can't waste 39 computes
        queries = [QuerySpec.from_dict(p) for p in payloads]
        answers = self.engine.batch(queries, deadline)
        self.engine.stats.bump("served", len(answers))
        return {"ok": True, "answers": [a.to_dict() for a in answers]}

    def _op_price(self, request: Dict[str, Any]) -> Dict[str, Any]:
        raw = request.get("workloads")
        if not isinstance(raw, list) or not raw:
            raise ProtocolError(
                "bad-request", "price op needs a non-empty 'workloads' list"
            )
        if len(raw) > MAX_BATCH:
            raise ProtocolError(
                "batch-too-large",
                f"batch of {len(raw)} exceeds {MAX_BATCH}",
            )
        try:
            platform = parse_plan("platform", request.get("platform", {}))
            plans = [parse_plan("workload", payload) for payload in raw]
        except ValueError as exc:
            raise ProtocolError("bad-request", str(exc)) from None
        n_peers = _count(request, "n_peers", 4)
        pool = _count(request, "pool", max(n_peers, 8))
        priced = self.engine.price_batch(platform, pool, n_peers, plans)
        return {"ok": True, "priced": priced}

    def _op_stats(self) -> Dict[str, Any]:
        with self._conns_lock:
            open_conns = len(self._conns)
        return {
            "ok": True,
            "stats": self.engine.snapshot(),
            "daemon": {
                "address": self.address,
                "workers": self.workers,
                "open_connections": open_conns,
                "protocol": PROTOCOL_VERSION,
            },
        }
