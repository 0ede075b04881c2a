"""Wire framing at both ends: any chunking of the bytes, and nothing left open.

Listeners and clients frame their own bytes, so these tests feed each end
its input one byte at a time, add bytes after a complete request, and end
a request line at EOF instead of ``\\n``.  Every reply a client cannot
parse must raise :class:`ProtocolError` (a load run counts it and goes
on), a reply the kernel takes in pieces is sent from views of its own
bytes, and no exchange -- answered, refused, malformed or timed out -- may
leave a socket open, a reader or writer registered with the loop, or
anything for the garbage collector to warn about.
"""

import asyncio
import gc
import json
import os
import re
import types
import warnings

import pytest

from repro.core.components import System
from repro.core.metrics import OUTCOME_ERROR
from repro.core.params import WorkloadParams
from repro.core.topology.catalog import exp1_plan
from repro.errors import ServiceUnavailableError
from repro.live import clients, protocols
from repro.live.clients import ProtocolError, http_query, line_query
from repro.live.loadgen import default_payload, query_once, run_load
from repro.live.runtime import AsyncioRuntime, LiveClock

TS = 0.02  # wall seconds per model second
SYSTEMS = ("mds-gris-cache", "hawkeye-agent", "rgma-ps-lucky")


def in_loop(coro):
    return asyncio.run(coro)


def request_for(system: System, payload=None) -> bytes:
    """The request our clients send, spelled out byte by byte."""
    text = json.dumps(default_payload(system) if payload is None else payload)
    if system is System.RGMA:
        body = text.encode()
        return b"POST /query HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % len(body) + body
    verb = "SEARCH" if system is System.MDS else "QUERY"
    return f"{verb} {text}\n".encode()


def parse_reply(system: System, raw: bytes):
    """Split a complete reply into ``(value, body)``, checking its framing strictly."""
    if system is System.RGMA:
        head, _, body = raw.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        assert lines[0] == "HTTP/1.1 200 OK", raw[:200]
        headers = dict(line.split(": ", 1) for line in lines[1:])
        assert int(headers["Content-Length"]) == len(body)
        return json.loads(headers["X-Repro-Value"]), body.decode()
    line, _, body = raw.partition(b"\n")
    assert line.startswith(b"OK "), raw[:200]
    frame, _, nbytes = line.decode().rpartition(" ")
    assert int(nbytes) == len(body)
    return json.loads(frame[3:]), body.decode()


async def exchange(host, port, chunks, *, eof: bool = False, pause: float = 0.0) -> bytes:
    """Send ``chunks`` one write each, optionally half-close, read until the server closes."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        for chunk in chunks:
            writer.write(chunk)
            await writer.drain()
            if pause:
                await asyncio.sleep(pause)
        if eof:
            writer.write_eof()
        return await asyncio.wait_for(reader.read(), timeout=10.0)
    finally:
        writer.close()
        await writer.wait_closed()


def one_byte_at_a_time(data: bytes) -> list[bytes]:
    return [data[i : i + 1] for i in range(len(data))]


async def read_request(reader: asyncio.StreamReader) -> None:
    """Consume one request of either dialect (so closing never resets the peer)."""
    first = await reader.readline()
    if first.startswith(b"POST"):
        head = await reader.readuntil(b"\r\n\r\n")
        length = re.search(rb"Content-Length: (\d+)", head)
        await reader.readexactly(int(length.group(1)) if length else 0)


async def stub_server(reply: bytes, *, pause: float | None = None):
    """A listener that answers every request with ``reply``, one byte per write if ``pause``."""

    async def handle(reader, writer):
        try:
            await read_request(reader)
            chunks = [reply] if pause is None else one_byte_at_a_time(reply)
            for chunk in chunks:
                writer.write(chunk)
                await writer.drain()
                if pause:
                    await asyncio.sleep(pause)
        finally:
            writer.close()

    server = await asyncio.start_server(handle, "127.0.0.1", 0)
    return server, server.sockets[0].getsockname()[1]


def query_stub(system: System, port: int, **kwargs):
    payload = default_payload(system)
    if system is System.RGMA:
        return http_query("127.0.0.1", port, payload, **kwargs)
    verb = "SEARCH" if system is System.MDS else "QUERY"
    return line_query("127.0.0.1", port, payload, verb=verb, **kwargs)


# -- listeners -----------------------------------------------------------------


@pytest.mark.parametrize("name", SYSTEMS)
def test_a_request_dribbled_one_byte_at_a_time_is_served(name):
    async def main():
        dep = AsyncioRuntime(time_scale=TS).compile(exp1_plan(name))
        system = dep.plan.system
        async with dep:
            port = dep.ports[dep.entry]
            dribble = one_byte_at_a_time(request_for(system))
            raw = await exchange(dep.host, port, dribble, pause=0.001)
            value, body = parse_reply(system, raw)
            expected, _body = await query_once(dep)
            assert type(value) is type(expected) and set(value) == set(expected)
            assert body
            assert dep.services[dep.entry].requests == 2

    in_loop(main())


@pytest.mark.parametrize("name", SYSTEMS)
def test_bytes_after_a_complete_request_are_ignored(name):
    async def main():
        dep = AsyncioRuntime(time_scale=TS).compile(exp1_plan(name))
        system = dep.plan.system
        async with dep:
            port = dep.ports[dep.entry]
            trailing = request_for(system) + b"garbage\nPOST / HTTP/1.1\r\n\r\nmore"
            for chunks in ([trailing], [request_for(system), b"garbage\n", b"more"]):
                value, body = parse_reply(system, await exchange(dep.host, port, chunks))
                assert value and body
            assert dep.services[dep.entry].requests == 2

    in_loop(main())


@pytest.mark.parametrize("name", ("mds-gris-cache", "hawkeye-agent"))
def test_a_final_line_without_newline_is_served_at_eof(name):
    async def main():
        dep = AsyncioRuntime(time_scale=TS).compile(exp1_plan(name))
        system = dep.plan.system
        async with dep:
            port = dep.ports[dep.entry]
            request = request_for(system).rstrip(b"\n")
            value, body = parse_reply(system, await exchange(dep.host, port, [request], eof=True))
            assert value and body
            # Nothing at all before EOF: closed without a reply, never served.
            assert await exchange(dep.host, port, [], eof=True) == b""
            assert dep.services[dep.entry].requests == 1

    in_loop(main())


def test_http_headers_ended_by_eof_are_served():
    async def main():
        dep = AsyncioRuntime(time_scale=TS).compile(exp1_plan("rgma-ps-lucky"))
        async with dep:
            port = dep.ports[dep.entry]
            # No blank line, no body: EOF ends the head, the payload is empty.
            for request in (b"POST /query HTTP/1.1\r\nHost: x\r\n", b"POST /query HTTP/1.1"):
                raw = await exchange(dep.host, port, [request], eof=True)
                assert raw.startswith(b"HTTP/1.1 200 OK\r\n"), raw
            # EOF inside a counted body: no request, no reply.
            short = b"POST /query HTTP/1.1\r\nContent-Length: 10\r\n\r\n{}"
            assert await exchange(dep.host, port, [short], eof=True) == b""
            assert dep.services[dep.entry].requests == 2

    in_loop(main())


# -- clients -------------------------------------------------------------------


@pytest.mark.parametrize("name", SYSTEMS)
def test_a_reply_dribbled_one_byte_at_a_time_is_read(name):
    async def main():
        dep = AsyncioRuntime(time_scale=TS).compile(exp1_plan(name))
        system = dep.plan.system
        async with dep:
            raw = await exchange(dep.host, dep.ports[dep.entry], [request_for(system)])
        server, port = await stub_server(raw, pause=0.0005)
        async with server:
            assert await query_stub(system, port) == parse_reply(system, raw)

    in_loop(main())


MALFORMED_REPLIES = {
    "line: EOF before the header": (System.MDS, b""),
    "line: EOF inside the header": (System.MDS, b"OK {} 3"),
    "line: short body": (System.MDS, b"OK {} 10\nabc"),
    "line: bad length": (System.MDS, b"OK {} ten\n"),
    "line: negative length": (System.MDS, b"OK {} -1\n"),
    "line: bad value json": (System.HAWKEYE, b"OK {nope 0\n"),
    "line: bad status line": (System.HAWKEYE, b"HELLO there\n"),
    "line: body not utf-8": (System.HAWKEYE, b"OK {} 2\n\xff\xfe"),
    "http: EOF before the header": (System.RGMA, b""),
    "http: EOF inside the headers": (System.RGMA, b"HTTP/1.1 200 OK\r\nContent-Len"),
    "http: short body": (System.RGMA, b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nabc"),
    "http: bad length": (System.RGMA, b"HTTP/1.1 200 OK\r\nContent-Length: ten\r\n\r\n"),
    "http: negative length": (System.RGMA, b"HTTP/1.1 200 OK\r\nContent-Length: -5\r\n\r\n"),
    "http: bad value json": (
        System.RGMA,
        b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\nX-Repro-Value: {nope\r\n\r\n",
    ),
    "http: bad status line": (System.RGMA, b"HTTP/1.1 OK\r\n\r\n"),
    "http: not http": (System.RGMA, b"garbage\r\n\r\n"),
    "http: body not utf-8": (System.RGMA, b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n\xff\xfe"),
    # A length the head only claims reserves no memory before the bytes arrive.
    "line: huge length, short body": (System.MDS, b"OK {} 999999999999999999\nabc"),
    "http: huge length, short body": (
        System.RGMA,
        b"HTTP/1.1 200 OK\r\nContent-Length: 999999999999999999\r\n\r\nabc",
    ),
}


@pytest.mark.parametrize("case", MALFORMED_REPLIES)
def test_every_malformed_reply_raises_protocol_error(case):
    system, reply = MALFORMED_REPLIES[case]

    async def main():
        server, port = await stub_server(reply)
        async with server:
            with pytest.raises(ProtocolError):
                await query_stub(system, port)

    in_loop(main())


def test_refusals_stay_refusals_in_both_dialects():
    async def main():
        for system, reply in (
            (System.MDS, b"ERR refused service x refused connection (accept queue full)\n"),
            (System.HAWKEYE, b"ERR crashed collector died\n"),
            (System.RGMA, b"HTTP/1.1 503 Service Unavailable\r\nContent-Length: 5\r\n\r\nbusy\n"),
        ):
            server, port = await stub_server(reply)
            async with server:
                with pytest.raises(ServiceUnavailableError):
                    await query_stub(system, port)

    in_loop(main())


def test_large_replies_reuse_one_receive_buffer_and_failed_ones_keep_theirs():
    body = "0123456789abcdef" * 20_000  # 320 KB, several reads
    ok = b"OK {} %d\n" % len(body) + body.encode()

    async def main():
        ok_server, ok_port = await stub_server(ok)
        refusing, refused_port = await stub_server(b"ERR refused busy\n")
        async with ok_server, refusing:
            assert await query_stub(System.MDS, ok_port) == ({}, body)
            await asyncio.sleep(0)  # the close gives the buffer back
            spare = clients._spares[asyncio.get_running_loop()]
            [buf] = spare
            assert len(buf) >= len(ok)
            assert await query_stub(System.MDS, ok_port) == ({}, body)
            await asyncio.sleep(0)
            assert len(spare) == 1 and spare[0] is buf
            # A failed reply's exception can hold a view of its buffer, which
            # could then never grow: it is not lent again.
            with pytest.raises(ServiceUnavailableError):
                await query_stub(System.MDS, refused_port)
            await asyncio.sleep(0)
            assert spare == []
            assert await query_stub(System.MDS, ok_port) == ({}, body)

    in_loop(main())


def test_a_large_reply_body_is_written_as_it_is():
    """One ``sendmsg`` of head and body; what the kernel leaves is sent from views of them."""

    class Loop:  # the writer callback runs when the test calls it
        writer = None

        def add_writer(self, fd, callback):
            self.writer = callback

        def remove_writer(self, fd):
            self.writer = None

        def remove_reader(self, fd):
            pass

    class Socket:  # takes a few KB per call, and would block on every third
        def __init__(self):
            self.calls, self.received, self.closed = [], bytearray(), False

        def sendmsg(self, buffers):
            self.calls.append(list(buffers))
            if len(self.calls) % 3 == 0:
                raise BlockingIOError
            room = 3000
            for data in buffers:
                take = bytes(data[:room])
                self.received += take
                room -= len(take)
            return 3000 - room

        def close(self):
            self.closed = True

    for size in (64 * 1024, 460_000):
        conn = protocols._LineExchange(service=None, verbs=frozenset())
        loop, sock = Loop(), Socket()
        conn.loop, conn.sock, conn.fd = loop, sock, 7
        head, body = b"OK {} %d\n" % size, bytes(range(256)) * (size // 256) + b"x" * (size % 256)
        conn.reply(head, body)
        while loop.writer is not None:
            loop.writer()
        assert sock.closed and conn.sock is None
        assert bytes(sock.received) == head + body
        first, *rest = sock.calls
        assert first[0] is head and first[1] is body
        # Every later call hands over the rest of the body, as a view of the
        # kernel's own bytes: no size gets a copy.
        assert len(rest) > size // 3000
        for buffers in rest:
            [view] = buffers
            assert isinstance(view, memoryview) and view.obj is body
        conn.reply(b"late\n")  # written after the close: dropped
        assert len(sock.calls) == len(rest) + 1


def test_a_load_run_counts_bad_replies_and_finishes():
    async def main():
        short_body = b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\nX-Repro-Value: {}\r\n\r\nabc"
        server, port = await stub_server(short_body)
        dep = types.SimpleNamespace(
            clock=LiveClock(TS),
            entry="servlet",
            ports={"servlet": port},
            host="127.0.0.1",
            plan=types.SimpleNamespace(system=System.RGMA),
        )
        async with server:
            wp = WorkloadParams(start_spread=1.0)
            result = await run_load(dep, users=3, duration=10.0, wp=wp)
        records = result.log.records
        assert len(records) >= 3
        assert result.protocol_errors == len(records) == result.log.count(OUTCOME_ERROR)

    in_loop(main())


# -- nothing left open -----------------------------------------------------------


def open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def registrations(loop: asyncio.AbstractEventLoop) -> set[int]:
    """The descriptors the loop has a reader or writer for (its own wake-up pipe included)."""
    return set(loop._selector.get_map())  # no public view of a selector loop's registrations


async def silent_server():
    """A listener that reads the request, never answers, and counts peers that hang up."""
    hung_up: list[bytes] = []

    async def handle(reader, writer):
        try:
            await read_request(reader)
            hung_up.append(await reader.read())  # b"" once the client closes
        finally:
            writer.close()

    server = await asyncio.start_server(handle, "127.0.0.1", 0)
    return server, server.sockets[0].getsockname()[1], hung_up


class StuckService:
    """A service whose requests never finish."""

    async def request(self, payload):
        await asyncio.Event().wait()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts /proc/self/fd")
def test_no_exchange_leaves_a_transport_open(monkeypatch):
    monkeypatch.setattr(protocols, "READ_TIMEOUT", 0.05)
    fds = open_fds()

    async def main():
        loop = asyncio.get_running_loop()
        registered, fds_in_loop = registrations(loop), open_fds()
        dep = AsyncioRuntime(time_scale=TS).compile(exp1_plan("rgma-ps-lucky"))
        gris = AsyncioRuntime(time_scale=TS).compile(exp1_plan("mds-gris-cache"))
        async with dep, gris:
            for d in (dep, gris):
                await query_once(d)  # ok
                d.entry_service.crashed = True
                with pytest.raises(ServiceUnavailableError):  # refused
                    await query_once(d)
                d.entry_service.crashed = False
            with pytest.raises(ProtocolError):  # protocol error
                await line_query(gris.host, gris.ports[gris.entry], {}, verb="NOPE")
            with pytest.raises(ProtocolError):  # a request line over MAX_LINE: 400
                long_path = "/" + "q" * protocols.MAX_LINE
                await http_query(dep.host, dep.ports[dep.entry], {}, path=long_path)
            for d in (dep, gris):  # the listener's read deadline
                reader, writer = await asyncio.open_connection(d.host, d.ports[d.entry])
                writer.write(b"POST")
                assert await asyncio.wait_for(reader.read(), timeout=5.0) == b""
                writer.close()
                await writer.wait_closed()
        # Every exchange above has ended: no socket, reader or writer is left.
        assert registrations(loop) == registered and open_fds() == fds_in_loop
        server, port, hung_up = await silent_server()
        async with server:
            for system in (System.MDS, System.RGMA):  # the client's timeout
                with pytest.raises(asyncio.TimeoutError):
                    await query_stub(system, port, timeout=0.05)
            for _ in range(500):  # the client closed its end; the server never did
                if len(hung_up) == 2:
                    break
                await asyncio.sleep(0.01)
            assert hung_up == [b"", b""]
        # A request still inside the service when the loop shuts down: its
        # task is cancelled, and the connection goes with it.
        listener = await protocols.server_for(System.MDS, StuckService(), "127.0.0.1")
        with pytest.raises(asyncio.TimeoutError):
            await query_stub(System.MDS, listener.sockets[0].getsockname()[1], timeout=0.05)
        listener.close()
        await listener.wait_closed()

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        in_loop(main())
        gc.collect()
    assert [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)] == []
    assert open_fds() == fds  # the stuck request's socket closed with its task
