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
"""

from __future__ import annotations

import asyncio
import json
import typing as _t

from repro.core.components import System
from repro.errors import ClassAdSyntaxError, ServiceCrashError, ServiceUnavailableError

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.live.runtime import LiveService

__all__ = ["server_for", "MAX_LINE", "MAX_BODY"]

#: Framing limits: a request line and an HTTP body we are willing to read.
MAX_LINE = 64 * 1024
MAX_BODY = 4 * 1024 * 1024

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


async def _serve_line(
    service: "LiveService",
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    verbs: frozenset[str] = frozenset(),
) -> None:
    """One line-framed exchange (MDS and Hawkeye dialects)."""
    try:
        try:
            line = await reader.readline()
        except ValueError:  # longer than the stream limit, MAX_LINE
            writer.write(b"ERR protocol line too long\n")
            return
        if not line:
            return
        text = line.decode("utf-8", "replace").strip()
        verb, _, rest = text.partition(" ")
        if not verb:
            writer.write(b"ERR protocol empty request\n")
            return
        if verbs and verb not in verbs:
            writer.write(f"ERR protocol unknown verb {verb!r}\n".encode())
            return
        try:
            payload = json.loads(rest) if rest else {}
        except (ValueError, RecursionError) as exc:  # malformed, or nested too deep
            writer.write(f"ERR protocol bad json: {exc}\n".encode())
            return
        if verb == _HAWKEYE_INGEST_VERB and isinstance(payload, dict):
            try:
                payload = _decode_ad_payload(payload)
            except (ClassAdSyntaxError, ValueError, RecursionError) as exc:
                # not ClassAd text, an integer too long to convert, or nested too deep
                writer.write(f"ERR protocol bad ad: {exc}\n".encode())
                return
        try:
            kr = await service.request(payload)
        except ServiceUnavailableError as exc:
            writer.write(f"ERR refused {exc}\n".encode())
            return
        except ServiceCrashError as exc:
            writer.write(f"ERR crashed {exc}\n".encode())
            return
        except Exception as exc:
            writer.write(f"ERR error {type(exc).__name__}: {exc}\n".encode())
            return
        body = kr.wire or b""
        writer.write(f"OK {_encode_value(kr.value)} {len(body)}\n".encode())
        writer.write(body)  # the kernel's own bytes: not re-encoded, not copied
    finally:
        try:
            await writer.drain()
        except (ConnectionError, OSError):
            pass
        writer.close()


def _decode_ad_payload(payload: dict) -> dict:
    """ADVERTISE carries a ClassAd as serialized text; managers want the object."""
    ad_text = payload.get("ad")
    if isinstance(ad_text, str):
        from repro.classad.ads import ClassAd

        payload = dict(payload)
        payload["ad"] = ClassAd.deserialize(ad_text)
    return payload


async def _serve_http(
    service: "LiveService", reader: asyncio.StreamReader, writer: asyncio.StreamWriter
) -> None:
    """One HTTP/1.1 exchange (the R-GMA servlet dialect)."""

    def respond(status: str, body: bytes, value: _t.Any = None) -> None:
        headers = [
            f"HTTP/1.1 {status}",
            "Content-Type: text/plain; charset=utf-8",
            f"Content-Length: {len(body)}",
            "Connection: close",
        ]
        if value is not None:
            headers.append(f"X-Repro-Value: {_encode_value(value)}")
        writer.write(("\r\n".join(headers) + "\r\n\r\n").encode())
        writer.write(body)  # the kernel's own bytes: not re-encoded, not copied

    async def read_line() -> bytes | None:
        try:
            return await reader.readline()
        except ValueError:  # longer than the stream limit, MAX_LINE
            respond("400 Bad Request", b"line too long\n")
            return None

    try:
        request_line = await read_line()
        if not request_line:
            return
        try:
            method, _path, _version = request_line.decode().split(None, 2)
        except ValueError:
            respond("400 Bad Request", b"malformed request line\n")
            return
        content_length = 0
        while True:
            header = await read_line()
            if header is None:
                return
            if header in (b"\r\n", b"\n", b""):
                break
            name, _, header_value = header.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                try:
                    content_length = min(int(header_value), MAX_BODY)
                except ValueError:
                    content_length = 0
        raw = await reader.readexactly(content_length) if content_length else b""
        if method.upper() != "POST":
            respond("405 Method Not Allowed", b"POST a JSON query\n")
            return
        try:
            payload = json.loads(raw) if raw else {}
        except (ValueError, RecursionError) as exc:  # malformed, or nested too deep
            respond("400 Bad Request", f"bad json: {exc}\n".encode())
            return
        try:
            kr = await service.request(payload)
        except ServiceUnavailableError as exc:
            respond("503 Service Unavailable", f"{exc}\n".encode())
            return
        except Exception as exc:
            respond("500 Internal Server Error", f"{type(exc).__name__}: {exc}\n".encode())
            return
        respond("200 OK", kr.wire or b"", value=kr.value)
    except asyncio.IncompleteReadError:
        pass
    finally:
        try:
            await writer.drain()
        except (ConnectionError, OSError):
            pass
        writer.close()


async def server_for(
    system: System, service: "LiveService", host: str
) -> asyncio.base_events.Server:
    """Bind ``service`` on an OS-assigned port speaking its system's dialect."""
    if system is System.RGMA:
        async def handler(reader, writer):
            await _serve_http(service, reader, writer)
    else:
        verbs = _LINE_VERBS[system]

        async def handler(reader, writer):
            await _serve_line(service, reader, writer, verbs)

    async def on_connection(
        reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            await handler(reader, writer)
        except (ConnectionError, OSError):  # client went away mid-exchange
            try:
                writer.close()
            except Exception:
                pass

    return await asyncio.start_server(on_connection, host, 0, limit=MAX_LINE)
