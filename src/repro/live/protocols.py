"""Wire protocols for the live plane, one dialect per studied system.

Each exposed :class:`~repro.live.runtime.LiveService` gets its own TCP
listener speaking the idiom of the system it reproduces:

* **MDS** — an LDAP-flavoured line protocol: the client sends one
  request line (``SEARCH <json>``, ``REGISTER <json>`` …); the server
  answers ``OK <json-value> <nbytes>`` followed by ``nbytes`` of LDIF
  body (:mod:`repro.ldap.ldif`), or ``ERR <kind> <message>``.
* **Hawkeye** — the same line framing with ClassAd bodies
  (``ad.serialize()`` text, :mod:`repro.classad`): ``QUERY <json>`` for
  reads, ``ADVERTISE <json>`` into the Manager's ingest port.
* **R-GMA** — servlets, so HTTP/1.1: ``POST /query`` with a JSON body;
  the 200 response carries the typed tab-framed SQL result set
  (:func:`repro.relational.types.encode_result`) and echoes the
  structured answer in an ``X-Repro-Value`` header.  Refusals are 503,
  application errors 500.

Every exchange is one request per connection — connection setup is part
of the studied cost model, so clients reconnect per query exactly like
the paper's harness did.

**Framing.**  The running loop drives each accepted socket, non-blocking,
from its reader and writer callbacks (``add_reader``/``add_writer``, so
the live plane needs a selector event loop: the Windows proactor loop
has neither).  One small object per connection gathers the bytes in a
``bytearray`` and frames the request itself, in whatever chunks the
bytes arrive:

* line dialects: one request line, at most ``MAX_LINE`` bytes before its
  ``\\n`` (else ``ERR protocol line too long``);
* HTTP: a request line and header lines of at most ``MAX_LINE`` bytes
  each (else 400), a blank line, then exactly ``Content-Length`` body
  bytes.  A length that is not a non-negative decimal is answered 400,
  one over ``MAX_BODY`` 413.

EOF ends the last line, so a final line without ``\\n`` is still served;
EOF before any byte, or inside a counted body, closes with no reply.
Bytes after a complete request are read and ignored.  Once a request is
framed, one task awaits ``LiveService.request``; the reply leaves in one
``sendmsg`` of header and body, the kernel's own bytes (not re-encoded,
never copied).  What the kernel does not take at once is kept as views
of those bytes and finished from the writer callback; then the socket
closes.  A peer that resets, or a send that fails, closes it at once,
and whatever would be written after that is dropped.

**Read deadline.**  A connection has ``READ_TIMEOUT`` wall seconds from
accept to a complete request.  A peer that stalls is aborted with no
reply and never reaches the service.  Serving the request is not under
the deadline: how long that takes is what the model studies.
"""

from __future__ import annotations

import asyncio
import errno
import functools
import json
import socket
import typing as _t

from repro.core.components import System
from repro.errors import ClassAdSyntaxError, ServiceCrashError, ServiceUnavailableError

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.live.runtime import LiveService

__all__ = ["Listener", "server_for", "address_family", "MAX_LINE", "MAX_BODY", "READ_TIMEOUT"]

#: Framing limits: a request line and an HTTP body we are willing to read.
MAX_LINE = 64 * 1024
MAX_BODY = 4 * 1024 * 1024
#: Wall seconds from accept to a complete request; a slower peer is aborted.
READ_TIMEOUT = 30.0
#: Wall seconds a listener stops accepting after the process ran out of
#: descriptors or buffers (``accept`` keeps failing until some are freed).
ACCEPT_RETRY_DELAY = 0.1
_BACKLOG = 100  # also the most connections one reader callback accepts
_RECV_BYTES = 64 * 1024
_OUT_OF_RESOURCES = frozenset({errno.EMFILE, errno.ENFILE, errno.ENOBUFS, errno.ENOMEM})

_HAWKEYE_INGEST_VERB = "ADVERTISE"

#: Request verbs each line dialect accepts; anything else is a protocol error.
_LINE_VERBS = {
    System.MDS: frozenset({"SEARCH", "REGISTER"}),
    System.HAWKEYE: frozenset({"QUERY", _HAWKEYE_INGEST_VERB}),
}


def _encode_value(value: _t.Any) -> str:
    try:
        return json.dumps(value, separators=(",", ":"))
    except TypeError:
        return json.dumps({"repr": repr(value)}, separators=(",", ":"))


def _decode_ad_payload(payload: dict) -> dict:
    """ADVERTISE carries a ClassAd as serialized text; managers want the object."""
    ad_text = payload.get("ad")
    if isinstance(ad_text, str):
        from repro.classad.ads import ClassAd

        payload = dict(payload)
        payload["ad"] = ClassAd.deserialize(ad_text)
    return payload


class _LineTooLong(Exception):
    """A line ran past ``MAX_LINE`` bytes without its ``\\n``."""


class _Exchange:
    """One accepted connection: frame one request, answer it once, close.

    The loop calls :meth:`readable` and, while a reply is only partly
    sent, :meth:`writable`.  Subclasses implement :meth:`frame`, which
    ends the framing either with :meth:`serve` (the request goes to the
    service) or with :meth:`reply` (answered without the service; ``b""``
    closes with no reply), and :meth:`reply_to`, which turns the
    service's answer or error into the reply's header and body bytes.
    """

    loop: asyncio.AbstractEventLoop
    sock: socket.socket | None  # ``None`` once closed
    fd: int

    def __init__(self, service: "LiveService") -> None:
        self.service = service
        self.buf = bytearray()
        self.pos = 0  # start of the first unconsumed line in ``buf``
        self.scan = 0  # ``buf`` before this holds no ``\n`` past ``pos``
        self.deadline: asyncio.TimerHandle | None = None  # armed until framed
        self.task: asyncio.Task | None = None  # held: the loop keeps tasks weakly
        self.unsent: list = []  # the reply's bytes, or views of them, not yet sent

    def start(self, sock: socket.socket, loop: asyncio.AbstractEventLoop) -> None:
        self.sock, self.loop, self.fd = sock, loop, sock.fileno()
        self.deadline = loop.call_later(READ_TIMEOUT, self.close)
        loop.add_reader(self.fd, self.readable)

    def readable(self) -> None:
        try:
            data = _t.cast(socket.socket, self.sock).recv(_RECV_BYTES)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:  # reset by the peer
            return self.close()
        if data:
            self.data_received(data)
        else:
            self.eof_received()

    def data_received(self, data: bytes) -> None:
        if self.deadline is not None:  # once framed, later bytes are ignored
            self.buf += data
            self.frame(eof=False)

    def eof_received(self) -> None:
        self.loop.remove_reader(self.fd)  # the reply may still be on its way
        if self.deadline is not None:
            self.frame(eof=True)

    def close(self) -> None:
        """Close once, sent or not; anything written after that is dropped."""
        self.framed()
        sock, self.sock = self.sock, None
        if sock is not None:
            self.loop.remove_reader(self.fd)
            self.loop.remove_writer(self.fd)
            sock.close()

    def framed(self) -> None:
        if self.deadline is not None:
            self.deadline.cancel()
            self.deadline = None

    def line(self, eof: bool) -> bytearray | None:
        """Consume the next line (with its ``\\n``); ``None`` until it is complete.

        EOF ends a final line that has no ``\\n``; ``b""`` then means
        nothing was left.  The limit is the one the stream reader's
        ``readline`` applied: more than ``MAX_LINE`` bytes before the
        ``\\n`` raises :class:`_LineTooLong`.
        """
        buf, pos = self.buf, self.pos
        end = buf.find(b"\n", max(pos, self.scan))
        if end < 0:
            self.scan = len(buf)
            if len(buf) - pos > MAX_LINE:
                raise _LineTooLong
            if not eof:
                return None
            end = len(buf)
        elif end - pos > MAX_LINE:
            raise _LineTooLong
        else:
            end += 1
        self.pos = end
        return buf[pos:end]

    def frame(self, eof: bool) -> None:
        raise NotImplementedError

    def serve(self, payload: _t.Any) -> None:
        self.framed()
        self.task = self.loop.create_task(self.answer(payload))

    async def answer(self, payload: _t.Any) -> None:
        try:
            self.reply(*await self.reply_to(payload))
        except asyncio.CancelledError:  # the loop is going away mid-request
            self.close()
            raise

    async def reply_to(self, payload: _t.Any) -> tuple[bytes, bytes]:
        raise NotImplementedError

    def reply(self, head: bytes, body: bytes = b"") -> None:
        """Answer and close: one ``sendmsg``, finished from the writer callback if need be."""
        self.framed()
        if self.sock is not None:
            self.unsent = [head, body]
            self.writable()
            if self.sock is not None:  # the kernel took only part of it
                self.loop.add_writer(self.fd, self.writable)

    def writable(self) -> None:
        unsent = self.unsent
        try:
            sent = _t.cast(socket.socket, self.sock).sendmsg(unsent)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:  # the peer is gone
            return self.close()
        for i, data in enumerate(unsent):
            if sent < len(data):  # a view of the same bytes: nothing is copied
                self.unsent = [memoryview(data)[sent:], *unsent[i + 1 :]]
                return
            sent -= len(data)
        self.close()


class _LineExchange(_Exchange):
    """One line-framed exchange (MDS and Hawkeye dialects)."""

    def __init__(self, service: "LiveService", verbs: frozenset[str]) -> None:
        super().__init__(service)
        self.verbs = verbs

    def frame(self, eof: bool) -> None:
        try:
            line = self.line(eof)
        except _LineTooLong:
            return self.reply(b"ERR protocol line too long\n")
        if line is None:
            return None
        if not line:
            return self.reply(b"")
        text = line.decode("utf-8", "replace").strip()
        verb, _, rest = text.partition(" ")
        if not verb:
            return self.reply(b"ERR protocol empty request\n")
        if verb not in self.verbs:
            return self.reply(f"ERR protocol unknown verb {verb!r}\n".encode())
        try:
            payload = json.loads(rest) if rest else {}
        except (ValueError, RecursionError) as exc:  # malformed, or nested too deep
            return self.reply(f"ERR protocol bad json: {exc}\n".encode())
        if verb == _HAWKEYE_INGEST_VERB and isinstance(payload, dict):
            try:
                payload = _decode_ad_payload(payload)
            except (ClassAdSyntaxError, ValueError, RecursionError) as exc:
                # not ClassAd text, an integer too long to convert, or nested too deep
                return self.reply(f"ERR protocol bad ad: {exc}\n".encode())
        return self.serve(payload)

    async def reply_to(self, payload: _t.Any) -> tuple[bytes, bytes]:
        try:
            kr = await self.service.request(payload)
        except ServiceUnavailableError as exc:
            return f"ERR refused {exc}\n".encode(), b""
        except ServiceCrashError as exc:
            return f"ERR crashed {exc}\n".encode(), b""
        except Exception as exc:
            # One of two broad catches (one per dialect), on purpose: a kernel may
            # raise anything, its own bugs included, and the client still gets an
            # answer rather than a dropped connection and a logged traceback.
            return f"ERR error {type(exc).__name__}: {exc}\n".encode(), b""
        body = kr.wire or b""  # the kernel's own bytes: not re-encoded
        return f"OK {_encode_value(kr.value)} {len(body)}\n".encode(), body


def _http_response(status: str, body: bytes, value: _t.Any = None) -> tuple[bytes, bytes]:
    """The response's head, and its body as it is."""
    head = (
        f"HTTP/1.1 {status}\r\n"
        "Content-Type: text/plain; charset=utf-8\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: close\r\n"
    )
    if value is not None:
        head += f"X-Repro-Value: {_encode_value(value)}\r\n"
    return (head + "\r\n").encode(), body  # the kernel's own bytes: not re-encoded


class _HttpExchange(_Exchange):
    """One HTTP/1.1 exchange (the R-GMA servlet dialect)."""

    method: str | None = None  # from the request line
    declared = 0  # the last Content-Length header
    length = -1  # the body length, once the head is complete

    def respond(self, status: str, body: bytes) -> None:
        self.reply(*_http_response(status, body))

    def frame(self, eof: bool) -> None:
        while self.length < 0:
            try:
                line = self.line(eof)
            except _LineTooLong:
                return self.respond("400 Bad Request", b"line too long\n")
            if line is None:
                return None
            if self.method is None:
                if not line:
                    return self.reply(b"")
                try:
                    self.method, _path, _version = line.decode().split(None, 2)
                except ValueError:
                    return self.respond("400 Bad Request", b"malformed request line\n")
            elif line in (b"\r\n", b"\n", b""):
                self.length = self.declared
            else:
                name, _, value = line.decode("latin-1").partition(":")
                if name.strip().lower() == "content-length":
                    value = value.strip()
                    if not (value.isascii() and value.isdigit()):
                        return self.respond("400 Bad Request", b"bad content-length\n")
                    # (no length of more than 18 digits is within MAX_BODY)
                    if len(value) > 18 or int(value) > MAX_BODY:
                        body = f"body over {MAX_BODY} bytes\n".encode()
                        return self.respond("413 Payload Too Large", body)
                    self.declared = int(value)
        end = self.pos + self.length
        if len(self.buf) < end:
            return self.reply(b"") if eof else None
        if self.method.upper() != "POST":
            return self.respond("405 Method Not Allowed", b"POST a JSON query\n")
        raw = self.buf[self.pos : end]
        try:
            payload = json.loads(raw) if raw else {}
        except (ValueError, RecursionError) as exc:  # malformed, or nested too deep
            return self.respond("400 Bad Request", f"bad json: {exc}\n".encode())
        return self.serve(payload)

    async def reply_to(self, payload: _t.Any) -> tuple[bytes, bytes]:
        try:
            kr = await self.service.request(payload)
        except ServiceUnavailableError as exc:
            return _http_response("503 Service Unavailable", f"{exc}\n".encode())
        except Exception as exc:
            # One of two broad catches (one per dialect), on purpose: a kernel may
            # raise anything, its own bugs included, and the client still gets an
            # answer rather than a dropped connection and a logged traceback.
            return _http_response(
                "500 Internal Server Error", f"{type(exc).__name__}: {exc}\n".encode()
            )
        return _http_response("200 OK", kr.wire or b"", value=kr.value)


def address_family(host: str) -> socket.AddressFamily:
    """IPv6 for an IPv6 literal; IPv4 for anything else, names included, at both ends."""
    return socket.AF_INET6 if ":" in host else socket.AF_INET


class Listener:
    """A listening socket the running loop accepts on from a reader callback.

    The part of :class:`asyncio.Server` the deployment uses: ``sockets``,
    :meth:`close`, :meth:`wait_closed` and ``async with``.  Accepted
    connections are not tracked: each one closes itself once answered,
    cut off or reset.
    """

    def __init__(self, sock: socket.socket, factory: _t.Callable[[], _Exchange]) -> None:
        self.sockets: tuple[socket.socket, ...] = (sock,)
        self.factory = factory
        self.loop = asyncio.get_running_loop()
        self.retry: asyncio.TimerHandle | None = None
        self.serve()

    def serve(self) -> None:
        self.retry = None
        self.loop.add_reader(self.sockets[0].fileno(), self.accept)

    def accept(self) -> None:
        sock, loop = self.sockets[0], self.loop
        for _ in range(_BACKLOG):
            try:
                conn, _addr = sock.accept()
            except (BlockingIOError, InterruptedError):
                return
            except ConnectionAbortedError:  # reset while it waited to be accepted
                continue
            except OSError as exc:
                if exc.errno not in _OUT_OF_RESOURCES:
                    raise
                # The socket stays readable while accept fails: pause, not spin.
                loop.remove_reader(sock.fileno())
                self.retry = loop.call_later(ACCEPT_RETRY_DELAY, self.serve)
                return
            conn.setblocking(False)
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.factory().start(conn, loop)

    def close(self) -> None:
        if self.retry is not None:
            self.retry.cancel()
            self.retry = None
        for sock in self.sockets:
            self.loop.remove_reader(sock.fileno())
            sock.close()
        self.sockets = ()

    async def wait_closed(self) -> None:
        """Nothing to wait for: the socket is closed by :meth:`close` itself."""

    async def __aenter__(self) -> "Listener":
        return self

    async def __aexit__(self, *exc: _t.Any) -> None:
        self.close()


async def server_for(system: System, service: "LiveService", host: str) -> Listener:
    """Bind ``service`` on an OS-assigned port speaking its system's dialect."""
    factory: _t.Callable[[], _Exchange]
    if system is System.RGMA:
        factory = functools.partial(_HttpExchange, service)
    else:
        factory = functools.partial(_LineExchange, service, _LINE_VERBS[system])
    sock = socket.create_server((host, 0), family=address_family(host), backlog=_BACKLOG)
    sock.setblocking(False)
    return Listener(sock, factory)
