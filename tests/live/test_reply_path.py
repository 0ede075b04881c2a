"""The live reply path: memoized bytes on the socket, and input no handler may die of.

The listeners write the bytes the answer memo holds, so these tests pin
the two ways that could go wrong — serving bytes of data that has since
changed — and the bugs the same code carried: a request line longer than
the stream limit, and an ``ADVERTISE`` whose ad is not ClassAd text, used
to raise out of the connection handler.  Hostile peers (resets before the
request is complete or before the reply is read) and an ``accept`` that
fails for want of descriptors must leave the next connection served, no
error for the loop to log and no descriptor open.
"""

import asyncio
import errno
import json
import os
import socket
import struct
import time
import types

import numpy as np
import pytest

from repro.core.components import System
from repro.core.topology.catalog import exp1_plan, exp4_plan
from repro.hawkeye import synthesize_startd_ad
from repro.ldap.ldif import from_ldif, to_ldif
from repro.live.clients import ProtocolError, http_query, line_query
from repro.live.loadgen import query_once
from repro.live import protocols
from repro.live.protocols import MAX_BODY, MAX_LINE
from repro.live.runtime import AsyncioRuntime
from repro.mds import InformationProvider

TS = 0.02  # wall seconds per model second


def in_loop(coro):
    return asyncio.run(coro)


async def raw_exchange(host, port, request: bytes) -> bytes:
    """Send ``request``, read until the server closes."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(request)
        await writer.drain()
        return await asyncio.wait_for(reader.read(), timeout=5.0)
    finally:
        writer.close()


def loop_errors() -> list:
    """Collects what asyncio would log as an unhandled exception."""
    errors: list = []
    asyncio.get_running_loop().set_exception_handler(lambda _loop, ctx: errors.append(ctx))
    return errors


def test_the_body_changes_when_a_registrants_data_changes():
    async def main():
        dep = AsyncioRuntime(time_scale=TS).compile(exp4_plan("mds-giis-all", 3))
        giis, bank = dep.objects["giis"], dep.objects["gris-bank"]
        async with dep:
            _value, before = await query_once(dep)
            _value, again = await query_once(dep)
            assert again == before  # nothing changed: the same memoized bytes
            assert before == to_ldif(giis.query(now=0.0).entries)

            # gris0 grows a provider, and its slice of the GIIS cache lapses.
            bank[0].add_provider(InformationProvider("extra", "MdsMemory"))
            giis.cache.invalidate("gris0")
            value, after = await query_once(dep)
            assert after != before
            assert len(from_ldif(after)) == value["entries"] == len(from_ldif(before)) + 1
            assert "extra" in after and "extra" not in before
            assert after == to_ldif(giis.query(now=0.0).entries)

            giis.unregister("gris1")
            value, without = await query_once(dep)
            assert bank[1].hostname in after and bank[1].hostname not in without
            assert len(from_ldif(without)) == value["entries"]

    in_loop(main())


def test_an_over_long_line_gets_an_error_and_the_listener_lives_on():
    async def main():
        errors = loop_errors()
        dep = AsyncioRuntime(time_scale=TS).compile(exp1_plan("mds-gris-cache"))
        async with dep:
            port = dep.ports[dep.entry]
            long_line = b'SEARCH {"filter":"' + b"x" * (MAX_LINE + 6000) + b'"}\n'
            assert await raw_exchange(dep.host, port, long_line) == b"ERR protocol line too long\n"
            deep = b"SEARCH " + b"[" * 30000 + b"\n"  # json.loads runs out of stack
            assert (await raw_exchange(dep.host, port, deep)).startswith(b"ERR protocol bad json")
            value, body = await line_query(dep.host, port, {})
            assert len(from_ldif(body)) == value["entries"] > 0
            assert dep.services[dep.entry].requests == 1  # only the well-formed one got in
        assert errors == []

    in_loop(main())


def test_an_over_long_http_line_gets_a_400_and_the_listener_lives_on():
    async def main():
        errors = loop_errors()
        dep = AsyncioRuntime(time_scale=TS).compile(exp1_plan("rgma-ps-lucky"))
        async with dep:
            port = dep.ports[dep.entry]
            padding = b"x" * (MAX_LINE + 6000)
            long_request_line = b"POST /" + padding + b" HTTP/1.1\r\n\r\n"
            long_header = b"POST /query HTTP/1.1\r\nX-Padding: " + padding + b"\r\n\r\n"
            for request in (long_request_line, long_header):
                reply = await raw_exchange(dep.host, port, request)
                assert reply.startswith(b"HTTP/1.1 400 Bad Request\r\n")
                assert reply.endswith(b"\r\n\r\nline too long\n")
            value, _body = await http_query(dep.host, port, {"sql": "SELECT * FROM cpuLoad"})
            assert value["rows"] >= 0
        assert errors == []

    in_loop(main())


def test_a_bad_content_length_gets_a_400_or_413_and_the_listener_lives_on():
    async def main():
        errors = loop_errors()
        dep = AsyncioRuntime(time_scale=TS).compile(exp1_plan("rgma-ps-lucky"))
        async with dep:
            port = dep.ports[dep.entry]
            for length, status in (
                (b"-5", b"400 Bad Request"),
                (b"five", b"400 Bad Request"),
                (b"1e3", b"400 Bad Request"),
                (b"%d" % (MAX_BODY + 1), b"413 Payload Too Large"),
                (b"9" * 5000, b"413 Payload Too Large"),  # more digits than int() converts
            ):
                request = b"POST /query HTTP/1.1\r\nContent-Length: " + length + b"\r\n\r\n{}"
                reply = await raw_exchange(dep.host, port, request)
                assert reply.startswith(b"HTTP/1.1 " + status + b"\r\n"), (length[:20], reply)
            value, _body = await http_query(dep.host, port, {"sql": "SELECT * FROM cpuLoad"})
            assert value["rows"] >= 0
            assert dep.services[dep.entry].requests == 1  # only the well-formed one got in
        assert errors == []

    in_loop(main())


@pytest.mark.parametrize("name", ["mds-gris-cache", "rgma-ps-lucky"])
def test_a_stalled_peer_is_cut_off_and_the_listener_lives_on(name, monkeypatch):
    monkeypatch.setattr(protocols, "READ_TIMEOUT", 0.1)

    async def main():
        errors = loop_errors()
        dep = AsyncioRuntime(time_scale=TS).compile(exp1_plan(name))
        service = dep.services[dep.entry]
        async with dep:
            port = dep.ports[dep.entry]
            half = b'SEARCH {"filter":' if name.startswith("mds") else b"POST /query HTTP/1.1\r\n"
            reader, writer = await asyncio.open_connection(dep.host, port)
            writer.write(half)
            await writer.drain()
            try:
                # The server closes with no reply; nothing here closes first.
                assert await asyncio.wait_for(reader.read(), timeout=5.0) == b""
            finally:
                writer.close()
            assert service.requests == 0 and service.admission.open == 0
            value, _body = await query_once(dep)
            assert value
            assert service.requests == 1 and service.admission.open == 0
        assert errors == []

    in_loop(main())


MALFORMED_ADS = [
    'Name = "a" &&',
    'Name = "unterminated',
    'Name = "a"\nCpuLoad = 1e',
    'Name = "a"\na line with no binding',
    '= "no name"',
    'Name = "a"\nBig = ' + "9" * 5000,  # more digits than int() converts
    'Name = "a"\nDeep = ' + "(" * 2000 + "1" + ")" * 2000,  # deeper than the parser recurses
]


def test_a_malformed_ad_gets_an_error_and_the_ingest_port_lives_on():
    async def main():
        errors = loop_errors()
        dep = AsyncioRuntime(time_scale=TS).compile(exp4_plan("hawkeye-manager", 3))
        manager = dep.objects["manager"]
        rng = np.random.default_rng(7)
        async with dep:
            port = dep.ports["manager:ingest"]
            ingest = dep.services["manager:ingest"]
            value, _body = await query_once(dep)
            assert value == {"ads": 0, "scanned": 3}  # the fleet has warmed the pool
            before, reached_before = manager.ads_received, ingest.requests
            for i, bad in enumerate(MALFORMED_ADS):
                request = f"ADVERTISE {json.dumps({'ad': bad})}\n".encode()
                reply = await raw_exchange(dep.host, port, request)
                assert reply.startswith(b"ERR protocol bad ad: ") and reply.count(b"\n") == 1, reply
                with pytest.raises(ProtocolError, match="protocol: bad ad"):
                    await line_query(dep.host, port, {"ad": bad}, verb="ADVERTISE")
                good = synthesize_startd_ad(f"late{i}.pool", rng).serialize()
                value, _body = await line_query(dep.host, port, {"ad": good}, verb="ADVERTISE")
                assert value == {"ok": True}
            good_ones = len(MALFORMED_ADS)
            # Only ads that decoded reached the service: ours plus the background
            # fleet's, once none of the fleet's is still in the handler.
            for _ in range(500):
                if ingest.admission.open == 0:
                    break
                await asyncio.sleep(0.01)
            assert manager.ads_received - before == ingest.requests - reached_before >= good_ones
            assert ingest.stats.completed == ingest.requests and ingest.refusals == 0
            assert manager.pool_size == 3 + good_ones
            late = [n for n in (ad.get_scalar("Name") for ad in manager.collector.ads())
                    if n.startswith("late")]
            assert late == [f"late{i}.pool" for i in range(good_ones)]
            value, _body = await query_once(dep)
            assert value == {"ads": 0, "scanned": 3 + good_ones}
        assert errors == []

    in_loop(main())


# -- hostile peers ---------------------------------------------------------------


def open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def resetting_socket(port: int) -> socket.socket:
    """A connected client socket with a small receive window whose close sends a reset."""
    sock = socket.socket()
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
    sock.connect(("127.0.0.1", port))
    return sock


BIG = 8_000_000  # more than the kernel takes at once for a peer that does not read


class GatedService:
    """Answers every request with a ``BIG`` body once ``gate`` is set."""

    def __init__(self) -> None:
        self.gate = asyncio.Event()
        self.requests = 0

    async def request(self, payload):
        self.requests += 1
        await self.gate.wait()
        return types.SimpleNamespace(value={"n": self.requests}, wire=b"x" * BIG)


async def until(predicate, what: str) -> None:
    for _ in range(500):
        if predicate():
            return
        await asyncio.sleep(0.01)
    raise AssertionError(f"timed out waiting for {what}")


hostile = pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts /proc/self/fd")


@hostile
def test_a_peer_that_resets_mid_request_is_dropped_and_the_next_is_served():
    async def main():
        errors = loop_errors()
        fds = open_fds()
        dep = AsyncioRuntime(time_scale=TS).compile(exp1_plan("mds-gris-cache"))
        service = dep.services[dep.entry]
        async with dep:
            port = dep.ports[dep.entry]
            for half in (b'SEARCH {"filter":', b"SEARCH"):
                sock = resetting_socket(port)
                sock.sendall(half)
                await asyncio.sleep(0.02)  # the listener has read it
                sock.close()
            value, body = await query_once(dep)
            assert value["entries"] == len(from_ldif(body)) > 0
            assert service.requests == 1 and service.admission.open == 0
        assert errors == []
        assert open_fds() == fds

    in_loop(main())


@hostile
def test_a_peer_that_resets_before_reading_its_reply_is_dropped_and_the_next_is_served(
    monkeypatch,
):
    sends = []
    writable = protocols._Exchange.writable
    monkeypatch.setattr(protocols._Exchange, "writable", lambda self: sends.append(1) or writable(self))

    async def main():
        errors = loop_errors()
        fds = open_fds()
        service = GatedService()
        async with await protocols.server_for(System.MDS, service, "127.0.0.1") as listener:
            port = listener.sockets[0].getsockname()[1]
            peers = []
            for _ in range(2):
                sock = resetting_socket(port)
                sock.sendall(b"SEARCH {}\n")
                peers.append(sock)
            peers[1].shutdown(socket.SHUT_WR)  # EOF: the listener stops reading it
            await until(lambda: service.requests == 2, "both requests to reach the service")
            peers[0].close()  # reset while the service works: seen by the reader
            await asyncio.sleep(0.02)
            service.gate.set()  # the reply to peers[0] goes nowhere
            await until(lambda: len(sends) == 1, "the reply to peers[1]")
            await asyncio.sleep(0.02)
            assert len(sends) == 1  # the kernel took only part of it ...
            peers[1].close()  # ... and the peer resets with the rest unsent
            await until(lambda: len(sends) > 1, "the writer callback to meet the reset")
            value, body = await line_query("127.0.0.1", port, {})
            assert value == {"n": 3} and body == "x" * BIG
        assert errors == []
        assert open_fds() == fds

    in_loop(main())


class FlakyListeningSocket:
    """A listening socket whose first ``accept`` fails as if the process ran out of descriptors."""

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.calls: list[float] = []

    def accept(self):
        self.calls.append(time.monotonic())
        if len(self.calls) == 1:
            raise OSError(errno.EMFILE, "Too many open files")
        return self.sock.accept()

    def __getattr__(self, name):
        return getattr(self.sock, name)


@hostile
def test_a_listener_out_of_descriptors_pauses_accepting_and_then_resumes(monkeypatch):
    monkeypatch.setattr(protocols, "ACCEPT_RETRY_DELAY", 0.05)

    async def main():
        errors = loop_errors()
        fds = open_fds()
        dep = AsyncioRuntime(time_scale=TS).compile(exp1_plan("hawkeye-agent"))
        async with dep:
            [listener] = dep._servers
            flaky = FlakyListeningSocket(listener.sockets[0])
            listener.sockets = (flaky,)
            value, _body = await query_once(dep, timeout=5.0)
            assert value["attrs"] > 0
            # The failed accept, the retry that took the connection, and the
            # one that found the queue empty: no spinning in between.
            assert len(flaky.calls) == 3
            assert flaky.calls[1] - flaky.calls[0] >= 0.9 * protocols.ACCEPT_RETRY_DELAY
            value, _body = await query_once(dep, timeout=5.0)
            assert value["attrs"] > 0 and len(flaky.calls) == 5
        assert errors == []
        assert open_fds() == fds

    in_loop(main())


@pytest.mark.parametrize("name", ["mds-gris-cache", "hawkeye-agent", "rgma-ps-lucky"])
def test_a_deployment_on_a_host_name_is_served(name):
    async def main():
        dep = AsyncioRuntime(time_scale=TS, host="localhost").compile(exp1_plan(name))
        async with dep:
            value, body = await query_once(dep)
            assert value and body
            assert dep.services[dep.entry].requests == 1

    in_loop(main())
