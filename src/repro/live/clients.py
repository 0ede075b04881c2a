"""Stdlib asyncio clients for the live plane's three wire dialects.

One connection per request, mirroring the study's harness (connection
cost is part of the model).  Both helpers return ``(value, body)`` —
the structured answer the service computed plus the serialized wire
body (LDIF / ClassAd text / encoded SQL result).  Refusals raise
:class:`~repro.errors.ServiceUnavailableError` so load generators can
count them the same way the DES workload does; any other malformed
exchange raises :class:`ProtocolError`.

Each exchange is one non-blocking socket (``TCP_NODELAY``, as at the
listeners) that the running loop drives: ``sock_connect``, one
``sock_sendall`` of the whole request, then ``sock_recv_into`` until the
reply is framed.  The socket's family comes from the host
(:func:`~repro.live.protocols.address_family`); ``sock_connect``
resolves a name such as ``localhost`` through ``loop.getaddrinfo``.
The reply is received into one buffer, borrowed from a few kept for
reuse and grown to the reply's size; head and body are framed in place.
The head — an ``OK``/``ERR`` line, or an HTTP status line and headers —
is at most ``MAX_LINE`` bytes a line; the body is counted by the head
and decoded straight from the buffer once the count is reached, which
completes the reply (the server's close is not awaited).  Reusing the
buffers keeps a large reply (460 KB on a GIIS query-all) from costing a
fresh allocation, and its page faults, on every request.  EOF before
the reply is complete, a head that does not parse, a length that is not
a non-negative decimal, a value that is not JSON and a body that is not
UTF-8 all raise :class:`ProtocolError`; a refused connect raises
:class:`OSError`.

``timeout`` (wall seconds; ``None`` waits forever) is one deadline for
the whole reply, counted from the moment the connection is up; it
raises :class:`asyncio.TimeoutError`.
"""

from __future__ import annotations

import asyncio
import json
import socket
import typing as _t
import weakref

from repro.errors import ReproError, ServiceUnavailableError
from repro.live.protocols import MAX_LINE, address_family

__all__ = ["ProtocolError", "line_query", "http_query"]


class ProtocolError(ReproError):
    """The server's reply did not parse as the expected dialect."""


def _length(text: str) -> int:
    text = text.strip()
    if not (text.isascii() and text.isdigit()) or len(text) > 18:
        raise ProtocolError(f"bad body length {text!r}")
    return int(text)


def _json(text: str, what: str) -> _t.Any:
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ProtocolError(f"bad {what}: {exc}") from exc


# Receive buffers of finished replies, lent to the next replies on the same
# event loop (so never shared between threads): at most _SPARES per loop,
# each kept only while it is at most _SPARE_BYTES.
_FIRST_READ = 16 * 1024  # a new buffer's size; it doubles while its reply needs more
_SPARES = 8
_SPARE_BYTES = 1024 * 1024
_spares: weakref.WeakKeyDictionary[asyncio.AbstractEventLoop, list[bytearray]] = (
    weakref.WeakKeyDictionary()
)


class _Reply:
    """One request's bytes, and its reply framed into ``result``.

    The reply lands in one buffer, borrowed at the first read and given
    back by :meth:`release` once the exchange is over.  Subclasses parse
    the head in :meth:`head_done` (``True`` once it is complete, with
    ``need`` and ``value`` set) and may override how :meth:`answer`
    turns the body into the result.
    """

    def __init__(self, request: bytes) -> None:
        loop = asyncio.get_running_loop()
        self.request = request
        self.result: asyncio.Future = loop.create_future()
        try:
            self.spare = _spares[loop]
        except KeyError:
            self.spare = _spares[loop] = []
        self.buf: bytearray | None = None  # the reply so far is ``buf[:filled]``
        self.filled = 0
        self.pos = 0  # start of the first unparsed line of the head
        self.start = 0  # where the body starts, once the head is parsed
        self.need = -1  # the body length, once the head is parsed
        self.value: _t.Any = None  # the structured answer the head carries
        self.complete = False  # the result is the answer, not an error

    def get_buffer(self) -> memoryview:
        if self.buf is None:
            self.buf = self.spare.pop() if self.spare else bytearray(_FIRST_READ)
        buf = self.buf
        if len(buf) == self.filled:
            # Grown here, never in buffer_updated, while no read holds a view;
            # and as bytes arrive, never to a length the head only claims.
            more = len(buf) if self.need < 0 else self.start + self.need - self.filled
            buf.extend(bytes(min(len(buf), more)))
        return memoryview(buf)[self.filled :]

    def buffer_updated(self, nbytes: int) -> None:
        self.filled += nbytes
        try:
            if self.need < 0:
                if not self.head_done():
                    return
                self.start = self.pos
            end = self.start + self.need
            if self.filled >= end:
                body = memoryview(_t.cast(bytearray, self.buf))[self.start : end]
                try:
                    text = str(body, "utf-8")
                except UnicodeDecodeError as exc:
                    raise ProtocolError(f"body is not UTF-8: {exc}") from exc
                self.result.set_result(self.answer(text))
                self.complete = True
        except ReproError as exc:
            self.result.set_exception(exc)

    def eof_received(self) -> None:
        where = "a response" if not self.filled else "the reply was complete"
        self.result.set_exception(ProtocolError(f"connection closed before {where}"))

    def release(self) -> None:
        # Only a reply that completed gives its buffer back: an exception's
        # traceback holds the frames, and so the views, that read into it,
        # and a buffer with a live view cannot grow.
        buf, self.buf = self.buf, None
        if buf is not None and self.complete and len(buf) <= _SPARE_BYTES:
            if len(self.spare) < _SPARES:
                self.spare.append(buf)

    def line(self) -> bytearray | None:
        """Consume the next complete line of the head; ``None`` until there is one."""
        buf = _t.cast(bytearray, self.buf)
        end = buf.find(b"\n", self.pos, self.filled)
        if end < 0:
            if self.filled - self.pos > MAX_LINE:
                raise ProtocolError("reply line too long")
            return None
        line = buf[self.pos : end + 1]
        self.pos = end + 1
        return line

    def head_done(self) -> bool:
        raise NotImplementedError

    def answer(self, body: str) -> tuple[_t.Any, str]:
        return self.value, body


class _LineReply(_Reply):
    """``OK <json-value> <nbytes>\\n`` plus the body, or ``ERR <kind> <message>\\n``."""

    def head_done(self) -> bool:
        line = self.line()
        if line is None:
            return False
        text = line.decode("utf-8", "replace").rstrip("\n")
        if text.startswith("ERR "):
            _err, _, detail = text.partition(" ")
            kind, _, message = detail.partition(" ")
            if kind in ("refused", "crashed"):
                raise ServiceUnavailableError(message or kind)
            raise ProtocolError(f"{kind}: {message}")
        if not text.startswith("OK "):
            raise ProtocolError(f"unexpected response line {text!r}")
        head, _, nbytes = text.rpartition(" ")
        self.value = _json(head[3:], "OK frame")  # strip the "OK " prefix
        self.need = _length(nbytes)
        return True


class _HttpReply(_Reply):
    """A status line, headers, a blank line, then ``Content-Length`` bytes."""

    status: int | None = None
    length = 0

    def head_done(self) -> bool:
        while (line := self.line()) is not None:
            text = line.decode("latin-1")
            if self.status is None:
                parts = text.split(None, 2)
                if len(parts) < 2 or not (parts[1].isascii() and parts[1].isdigit()):
                    raise ProtocolError(f"bad status line {bytes(line)!r}")
                self.status = int(parts[1])
            elif text in ("\r\n", "\n"):
                self.need = self.length
                return True
            else:
                name, _, header_value = text.partition(":")
                name = name.strip().lower()
                if name == "content-length":
                    self.length = _length(header_value)
                elif name == "x-repro-value":
                    self.value = _json(header_value.strip(), "X-Repro-Value")
        return False

    def answer(self, body: str) -> tuple[_t.Any, str]:
        if self.status == 503:
            raise ServiceUnavailableError(body.strip() or "refused")
        if self.status != 200:
            raise ProtocolError(f"HTTP {self.status}: {body.strip()}")
        return self.value, body


async def _receive(
    loop: asyncio.AbstractEventLoop, sock: socket.socket, reply: _Reply
) -> tuple[_t.Any, str]:
    await loop.sock_sendall(sock, reply.request)
    result = reply.result
    while not result.done():
        nbytes = await loop.sock_recv_into(sock, reply.get_buffer())
        if nbytes:
            reply.buffer_updated(nbytes)
        else:
            reply.eof_received()
    return result.result()


async def _exchange(
    host: str, port: int, reply: _Reply, timeout: float | None
) -> tuple[_t.Any, str]:
    loop = asyncio.get_running_loop()
    sock = socket.socket(address_family(host), socket.SOCK_STREAM)
    try:
        sock.setblocking(False)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        await loop.sock_connect(sock, (host, port))
        if timeout is None:
            return await _receive(loop, sock, reply)
        return await asyncio.wait_for(_receive(loop, sock, reply), timeout)
    finally:
        sock.close()
        reply.release()


async def line_query(
    host: str,
    port: int,
    payload: _t.Any,
    *,
    verb: str = "SEARCH",
    timeout: float | None = None,
) -> tuple[_t.Any, str]:
    """One exchange against an MDS/Hawkeye line-framed listener."""
    request = f"{verb} {json.dumps(payload, separators=(',', ':'))}\n".encode()
    return await _exchange(host, port, _LineReply(request), timeout)


async def http_query(
    host: str,
    port: int,
    payload: _t.Any,
    *,
    path: str = "/query",
    timeout: float | None = None,
) -> tuple[_t.Any, str]:
    """One HTTP POST against an R-GMA servlet listener."""
    body = json.dumps(payload, separators=(",", ":")).encode()
    request = (
        f"POST {path} HTTP/1.1\r\n"
        f"Host: {host}:{port}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: close\r\n\r\n"
    ).encode() + body
    return await _exchange(host, port, _HttpReply(request), timeout)
