"""The serving tier's one HTTP/1.1 front end and its client calls.

Three parties speak the same deliberately small HTTP dialect — request line,
headers, ``Content-Length`` bodies, keep-alive: the single-process server
(:mod:`repro.service.server`), the fleet gateway (:mod:`repro.service.fleet`,
which is a server on one side and a client on the other), and the load
generator (:mod:`repro.service.loadgen`).  None of them is a general web
server and none should grow into one.

:class:`HttpFront` is everything the server and the gateway share: the
listener's start/drain/stop, the keep-alive connection loop, the endpoint
table, and the signal-and-drain :meth:`~HttpFront.main`.  A role subclass
supplies only what differs — its ``/run`` and ``/plan`` handlers, its
health, readiness and metrics documents, and when it counts as idle.

On the client side, :func:`request_once` is every call the tier makes to
another process under one deadline; given a :class:`ConnectionPool` it
reuses kept-alive connections (the gateway's attempts, each load-generator
worker's connection), without one it dials a connection of its own (health
probes, ``/metrics`` scrapes).
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import signal
import time
from collections import Counter

from ..obs.context import TRACE_HEADER_LOWER, TraceContext
from ..obs.tracer import ENV_TRACE_DIR
from .promexport import PROM_CONTENT_TYPE, render_prometheus
from .protocol import RequestError, algos_doc

__all__ = [
    "MAX_BODY",
    "REASONS",
    "BadRequest",
    "ConnectionPool",
    "HttpFront",
    "NoResponse",
    "http_call",
    "json_body",
    "read_http_request",
    "request_once",
    "write_response",
]

REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    502: "Bad Gateway",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

MAX_BODY = 1 << 20


class BadRequest(Exception):
    """Unparseable HTTP or request body: answer 400."""


class NoResponse(ConnectionError):
    """The peer closed or reset the connection before a status line came."""


async def read_http_request(reader: asyncio.StreamReader):
    """Parse one request off ``reader``: (method, target, headers, body).

    Returns ``None`` on a cleanly closed connection; raises
    :class:`BadRequest` on malformed bytes or an oversized body.
    """
    start = await reader.readline()
    if not start:
        return None
    try:
        method, target, _version = start.decode("latin-1").split()
    except ValueError:
        raise BadRequest(f"malformed request line: {start[:80]!r}")
    headers: dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, sep, value = line.decode("latin-1").partition(":")
        if not sep:
            raise BadRequest(f"malformed header line: {line[:80]!r}")
        headers[name.strip().lower()] = value.strip()
    try:
        length = int(headers.get("content-length", "0") or "0")
    except ValueError:
        raise BadRequest("non-integer Content-Length")
    if length < 0 or length > MAX_BODY:
        raise BadRequest(f"body of {length} bytes exceeds the {MAX_BODY} limit")
    body = await reader.readexactly(length) if length else b""
    return method, target, headers, body


def json_body(body: bytes):
    """Decode a request's JSON body; :class:`BadRequest` when it is not JSON."""
    try:
        return json.loads(body.decode("utf-8") or "null")
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise BadRequest(f"invalid JSON body: {exc}") from None


async def write_response(
    writer: asyncio.StreamWriter,
    status: int,
    doc: dict | str,
    extra_headers: list,
    keep_alive: bool,
) -> None:
    """Write one HTTP/1.1 response: a dict as JSON, a str as the Prometheus
    text of ``/metrics?format=prometheus``."""
    if isinstance(doc, str):
        body, content_type = doc.encode("utf-8"), PROM_CONTENT_TYPE
    else:
        body, content_type = json.dumps(doc).encode("utf-8"), "application/json"
    lines = [
        f"HTTP/1.1 {status} {REASONS.get(status, 'Unknown')}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    lines.extend(f"{name}: {value}" for name, value in extra_headers)
    writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body)
    await writer.drain()


async def http_call(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    method: str,
    path: str,
    payload: dict | None = None,
    timeout: float | None = 30.0,
    *,
    keep_alive: bool = True,
    headers: list | None = None,
) -> tuple[int, dict, dict, bool]:
    """One client request on an open connection, under one deadline.

    ``timeout`` bounds sending the request and reading its status line,
    headers and body together; ``None`` sets no deadline here, for a caller
    that already holds one (:func:`request_once`).  ``headers`` adds extra
    request headers (name, value) — the trace-context header travels this
    way so request bodies stay strictly validated.  Returns ``(status,
    headers, doc, server_closed)`` where ``headers`` maps lower-cased names
    to values and ``server_closed`` is True when the response asked to close
    the connection.  Raises :class:`NoResponse` when the peer closes or
    resets the connection before the status line.
    """
    body = json.dumps(payload).encode("utf-8") if payload is not None else b""
    extra = "".join(f"{name}: {value}\r\n" for name, value in headers) if headers else ""
    head = (
        f"{method} {path} HTTP/1.1\r\n"
        f"Host: repro\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"{extra}"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n\r\n"
    )
    call = _roundtrip(reader, writer, head.encode("latin-1") + body)
    return await (call if timeout is None else asyncio.wait_for(call, timeout))


async def _roundtrip(
    reader: asyncio.StreamReader, writer: asyncio.StreamWriter, request: bytes
) -> tuple[int, dict, dict, bool]:
    try:
        writer.write(request)
        await writer.drain()
        status_line = await reader.readline()
    except (ConnectionResetError, BrokenPipeError) as exc:
        raise NoResponse(f"connection reset before the status line: {exc}") from exc
    if not status_line:
        raise NoResponse("server closed the connection")
    status = int(status_line.split()[1])
    headers: dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _sep, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0") or "0")
    raw = await reader.readexactly(length) if length else b""
    doc = json.loads(raw) if raw else {}
    return status, headers, doc, headers.get("connection", "").lower() == "close"


class ConnectionPool:
    """Idle kept-alive client connections, per ``(host, port)``.

    :func:`request_once` takes from and hands back to it; :meth:`park`
    opens one ahead of a first request.  A connection is either idle here
    or in use by exactly one request, so the idle ones per address never
    outnumber the most requests (and parked connections) ever in flight to
    it at once: the pool needs no cap."""

    def __init__(self) -> None:
        self._idle: dict[tuple[str, int], list] = {}
        #: connections opened per address
        self.connects: Counter[tuple[str, int]] = Counter()

    def take(self, addr: tuple[str, int]):
        """The most recently used idle connection to ``addr`` that the peer
        has not closed (closing those it has), else None."""
        idle = self._idle.get(addr)
        while idle:
            reader, writer = idle.pop()
            if not reader.at_eof() and not writer.is_closing():
                return reader, writer
            writer.close()
        return None

    def put(self, addr: tuple[str, int], conn) -> None:
        self._idle.setdefault(addr, []).append(conn)

    async def park(self, addr: tuple[str, int]) -> None:
        """Open one connection to ``addr`` and leave it idle here, for a
        client that must hold its connection before it sends."""
        self.put(addr, await _dial(addr, self))

    async def close(self) -> None:
        """Close every idle connection."""
        writers = [writer for idle in self._idle.values() for _reader, writer in idle]
        self._idle.clear()
        for writer in writers:
            writer.close()
        for writer in writers:
            with contextlib.suppress(Exception):
                await writer.wait_closed()


async def request_once(
    host: str,
    port: int,
    method: str,
    path: str,
    payload: dict | None = None,
    timeout: float = 30.0,
    *,
    headers: list | None = None,
    pool: ConnectionPool | None = None,
) -> tuple[int, dict, dict]:
    """One request -> (status, headers, doc), under one deadline.

    ``timeout`` bounds the whole request: connect, send, status line,
    headers and body.  Without ``pool`` the request gets a connection of its
    own, closed afterwards — a health probe must find out whether the
    listener still accepts.  With ``pool`` it takes an idle kept-alive
    connection to ``host:port``, or opens one, and hands it back after a
    complete response that did not say ``Connection: close``; a timeout,
    cancellation, error or partial read closes it instead.  A reused
    connection that the peer closed or reset before the status line (it
    hung up while the connection sat idle) is retried once on a new
    connection, inside the same deadline."""
    return await asyncio.wait_for(
        _request((host, port), method, path, payload, headers, pool), timeout
    )


async def _request(addr, method, path, payload, headers, pool):
    if pool is not None:
        conn = pool.take(addr)
        if conn is not None:
            with contextlib.suppress(NoResponse):  # stale: once more, freshly
                return await _exchange(addr, conn, method, path, payload, headers, pool)
    conn = await _dial(addr, pool)
    return await _exchange(addr, conn, method, path, payload, headers, pool)


async def _dial(addr, pool):
    """A new connection to ``addr``, counted in ``pool.connects``."""
    conn = await asyncio.open_connection(*addr)
    if pool is not None:
        pool.connects[addr] += 1
    return conn


async def _exchange(addr, conn, method, path, payload, headers, pool):
    """One request on ``conn``, then keep it in ``pool`` or close it."""
    reader, writer = conn
    keep = False
    try:
        status, resp_headers, doc, closed = await http_call(
            reader, writer, method, path, payload,
            timeout=None, keep_alive=pool is not None, headers=headers,
        )
        keep = pool is not None and not closed
        return status, resp_headers, doc
    finally:
        if keep:
            pool.put(addr, conn)
        else:
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()


class HttpFront:
    """The HTTP surface of ``repro serve`` and ``repro fleet``.

    A role subclass passes its ``config`` (with ``host``, ``port``,
    ``drain_timeout`` and ``trace_dir``) up, sets ``metrics`` (a
    :class:`~repro.service.metrics.RequestMetrics`) and ``obs`` (a tracer),
    and supplies :meth:`serve_run`, :meth:`serve_plan`, :meth:`health_doc`,
    :meth:`ready_doc`, :meth:`metrics_doc` and :meth:`banner`; :meth:`idle`
    may add to the in-flight test.  A handler may raise :class:`BadRequest`
    (see :func:`json_body`) or :class:`~repro.service.protocol.RequestError`
    before it admits the request: the front answers 400 and keeps the
    connection.
    """

    #: the prefix of every line :meth:`main` prints ("repro-serve", ...)
    name: str

    def __init__(self, config) -> None:
        self.config = config
        # set before the role forks workers or spawns children so they
        # inherit it and trace their side of each request
        self._trace_env_set = False
        if config.trace_dir and os.environ.get(ENV_TRACE_DIR, "") != config.trace_dir:
            os.environ[ENV_TRACE_DIR] = config.trace_dir
            self._trace_env_set = True
        self.draining = False
        self.port = config.port
        self._server: asyncio.AbstractServer | None = None
        self._writers: set[asyncio.StreamWriter] = set()

    # -- what a role supplies ----------------------------------------------
    async def serve_run(self, body: bytes, headers: dict) -> tuple[int, dict, list]:
        raise NotImplementedError

    async def serve_plan(self, body: bytes, headers: dict) -> tuple[int, dict, list]:
        raise NotImplementedError

    def health_doc(self) -> dict:
        raise NotImplementedError

    def ready_doc(self) -> dict:
        """The ``/readyz`` document; its ``"ready"`` flag picks 200 or 503."""
        raise NotImplementedError

    def metrics_doc(self) -> dict:
        raise NotImplementedError

    def banner(self) -> str:
        """The parenthesised detail of the ``listening on`` line."""
        raise NotImplementedError

    def idle(self) -> bool:
        """Nothing left for a drain to wait for."""
        return self.metrics.inflight == 0

    # -- the request lifecycle, for the role's handlers ----------------------
    def request_span(self, name: str, headers: dict, attrs: dict):
        """This hop's span for one request, a child of the trace context
        the caller sent (None when tracing is off)."""
        if not self.obs.enabled:
            return None
        incoming = TraceContext.parse(headers.get(TRACE_HEADER_LOWER, ""))
        return self.obs.start_span(name, parent=incoming, attrs=attrs)

    def refuse(self, span, status: int, error: str, **attrs) -> tuple[int, dict, list]:
        """Turn a request away before admission with ``Retry-After: 1``:
        503 while draining, 429 (counted as rejected) at capacity."""
        if status == 429:
            self.metrics.rejected += 1
        self.metrics.response_only(status)
        if span is not None:
            span.set(status_code=status, **attrs)
            span.end("error")
        return status, {"ok": False, "error": error}, [("Retry-After", "1")]

    def finish(self, span, status: int, started: float) -> None:
        """Count an admitted request's answer and end its span."""
        self.metrics.request_finished(status, time.monotonic() - started)
        if span is not None:
            span.set(status_code=status)
            span.end("ok" if status == 200 else "error")

    # -- lifecycle ---------------------------------------------------------
    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_conn, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def drain(self, timeout: float | None = None) -> bool:
        """Stop accepting work; wait until idle. True if it got there."""
        self.draining = True
        if self._server is not None:
            self._server.close()
        self.obs.event("drain_started", attrs={"inflight": self.metrics.inflight})
        budget = self.config.drain_timeout if timeout is None else timeout
        deadline = time.monotonic() + budget
        while not self.idle() and time.monotonic() < deadline:
            await asyncio.sleep(0.02)
        clean = self.idle()
        self.obs.event(
            "drain_finished",
            attrs={"clean": clean, "inflight": self.metrics.inflight},
        )
        return clean

    async def stop(self) -> None:
        self.draining = True
        if self._server is not None:
            self._server.close()
        # idle keep-alive connections first (a gateway keeps some to every
        # replica): from 3.12 on, wait_closed waits for every connection
        for writer in list(self._writers):
            with contextlib.suppress(Exception):
                writer.close()
        if self._server is not None:
            with contextlib.suppress(Exception, asyncio.TimeoutError):
                await asyncio.wait_for(self._server.wait_closed(), 2.0)
        self.obs.close()
        if self._trace_env_set:
            os.environ.pop(ENV_TRACE_DIR, None)
            self._trace_env_set = False

    @classmethod
    def main(cls, *args) -> int:
        """Build ``cls(*args)``, serve until SIGTERM/SIGINT, then drain.

        Prints the ``listening on http://…`` and ``drained cleanly`` lines
        that shard supervisors, CI and the benchmarks parse; returns the
        process exit code (1 when the drain timed out)."""

        async def run() -> int:
            front = cls(*args)
            await front.start()
            stop_event = asyncio.Event()
            loop = asyncio.get_running_loop()
            for sig in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(sig, stop_event.set)
                except NotImplementedError:  # pragma: no cover - non-posix loops
                    signal.signal(sig, lambda *_: stop_event.set())
            # the banner only after the handlers: a supervisor may send
            # SIGTERM the moment it reads it, and that must drain, not kill
            print(
                f"{front.name}: listening on http://{front.config.host}:{front.port} "
                f"({front.banner()})",
                flush=True,
            )
            await stop_event.wait()
            print(f"{front.name}: draining...", flush=True)
            clean = await front.drain()
            await front.stop()
            if clean:
                total = front.metrics.requests_total
                print(f"{front.name}: drained cleanly after {total} request(s)", flush=True)
                return 0
            print(
                f"{front.name}: drain timed out with {front.metrics.inflight} "
                "request(s) still in flight",
                flush=True,
            )
            return 1

        return asyncio.run(run())

    # -- the endpoint table ------------------------------------------------
    async def _route(
        self, method: str, path: str, query: str, headers: dict, body: bytes
    ) -> tuple[int, dict | str, list]:
        if path in ("/run", "/plan"):
            if method != "POST":
                self.metrics.response_only(405)
                return 405, {"ok": False, "error": f"use POST {path}"}, [("Allow", "POST")]
            serve = self.serve_run if path == "/run" else self.serve_plan
            try:
                return await serve(body, headers)
            except BadRequest as exc:
                self.metrics.response_only(400)
                return 400, {"ok": False, "error": str(exc)}, []
            except RequestError as exc:
                self.metrics.response_only(400)
                return 400, {"ok": False, "error": str(exc), "field": exc.field}, []
        if method != "GET":
            self.metrics.response_only(405)
            return 405, {"ok": False, "error": f"{method} not allowed here"}, [("Allow", "GET")]
        if path == "/healthz":
            return 200, self.health_doc(), []
        if path == "/readyz":
            doc = self.ready_doc()
            if doc["ready"]:
                return 200, doc, []
            return 503, doc, [("Retry-After", "1")]
        if path == "/metrics":
            if "format=prometheus" in query:
                return 200, render_prometheus(self.metrics_doc()), []
            return 200, self.metrics_doc(), []
        if path == "/algos":
            return 200, algos_doc(), []
        if path == "/":
            return (
                200,
                {"endpoints": ["/run", "/plan", "/healthz", "/readyz", "/metrics", "/algos"]},
                [],
            )
        self.metrics.response_only(404)
        return 404, {"ok": False, "error": f"no route for {path}"}, []

    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._writers.add(writer)
        try:
            while True:
                try:
                    parsed = await read_http_request(reader)
                except BadRequest as exc:
                    self.metrics.response_only(400)
                    await write_response(writer, 400, {"ok": False, "error": str(exc)}, [], False)
                    break
                if parsed is None:
                    break
                method, target, headers, body = parsed
                path, _, query = target.partition("?")
                keep_alive = (
                    not self.draining and headers.get("connection", "").lower() != "close"
                )
                status, doc, extra = await self._route(
                    method.upper(), path, query, headers, body
                )
                await write_response(writer, status, doc, extra, keep_alive)
                if not keep_alive:
                    break
        except (
            ConnectionResetError,
            BrokenPipeError,
            asyncio.IncompleteReadError,
            asyncio.LimitOverrunError,
        ):
            pass  # client went away mid-request; nothing to answer
        finally:
            self._writers.discard(writer)
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()
