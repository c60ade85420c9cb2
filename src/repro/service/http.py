"""A stdlib-asyncio HTTP front end for :class:`~repro.service.core.SweepService`.

No web framework: requests are parsed off an ``asyncio.start_server``
stream by hand (request line, headers, ``Content-Length`` body), which is
all a four-endpoint JSON API needs and keeps the dependency set at zero.

Endpoints (all JSON):

========  =============  =====================================================
method    path           answer
========  =============  =====================================================
POST      ``/v1/query``  a :class:`~repro.api.query.QueryResponse` for the
                         posted :class:`~repro.api.query.QueryRequest` payload
GET       ``/v1/health`` liveness + store identity
GET       ``/v1/schema`` the JSON Schema of the request payload
GET       ``/v1/stats``  the service's exact counters
========  =============  =====================================================

Malformed requests never reach the simulator: bad JSON, unknown fields,
unparseable policies and oversized bodies all return a 4xx whose body
carries the validation message verbatim.  A query's body is
:meth:`~repro.api.query.QueryResponse.to_json`, the bytes of
``json.dumps(response.to_dict())`` without re-encoding stored payloads.
"""

from __future__ import annotations

import asyncio
import json
from typing import Optional, Tuple

from repro.api.query import QueryRequest, QueryValidationError
from repro.service.core import SweepService

#: Reject request bodies larger than this (a full-grid query is ~1 KiB).
MAX_BODY_BYTES = 1 << 20

#: Reject header sections larger than this.
MAX_HEADER_BYTES = 1 << 16

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
}


class HttpError(Exception):
    """An error with a definite HTTP status (raised during parsing/routing)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def _encode_response(status: int, text: str) -> bytes:
    body = text.encode("utf-8")
    head = (
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: close\r\n"
        f"\r\n"
    ).encode("ascii")
    return head + body


async def _read_request(
    reader: asyncio.StreamReader,
) -> Tuple[str, str, Optional[bytes]]:
    """Parse one request off the stream: (method, path, body or None)."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.LimitOverrunError:
        raise HttpError(413, "header section too large") from None
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            raise ConnectionResetError("client closed before sending a request")
        raise HttpError(400, "truncated request") from None
    if len(head) > MAX_HEADER_BYTES:
        raise HttpError(413, "header section too large")
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split()
    if len(parts) != 3:
        raise HttpError(400, f"malformed request line {lines[0]!r}")
    method, path, _version = parts
    headers = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise HttpError(400, f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    body: Optional[bytes] = None
    if "content-length" in headers:
        try:
            length = int(headers["content-length"])
        except ValueError:
            raise HttpError(400, "malformed Content-Length") from None
        if length < 0:
            raise HttpError(400, "malformed Content-Length")
        if length > MAX_BODY_BYTES:
            raise HttpError(413, f"request body over {MAX_BODY_BYTES} bytes")
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            raise HttpError(400, "request body shorter than Content-Length") from None
    return method, path.split("?", 1)[0], body


async def _route(
    service: SweepService, method: str, path: str, body: Optional[bytes]
) -> Tuple[int, str]:
    """The status and JSON text answering one request."""
    if path == "/v1/query":
        if method != "POST":
            raise HttpError(405, "use POST for /v1/query")
        if body is None:
            raise HttpError(400, "POST /v1/query requires a JSON body")
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise HttpError(400, f"request body is not valid JSON: {exc}") from None
        try:
            request = QueryRequest.from_dict(payload)
        except QueryValidationError as exc:
            raise HttpError(400, str(exc)) from None
        response = await service.answer(request)
        return 200, response.to_json()
    if path == "/v1/health":
        if method != "GET":
            raise HttpError(405, "use GET for /v1/health")
        store = service.store
        return 200, json.dumps({
            "status": "ok",
            "store_backend": None if store is None else store.backend_name,
            "store_root": None if store is None else str(store.root),
            "surrogate": service.lattice is not None,
        })
    if path == "/v1/schema":
        if method != "GET":
            raise HttpError(405, "use GET for /v1/schema")
        return 200, json.dumps(QueryRequest.json_schema())
    if path == "/v1/stats":
        if method != "GET":
            raise HttpError(405, "use GET for /v1/stats")
        return 200, json.dumps(service.stats.to_dict())
    raise HttpError(404, f"no such endpoint {path!r}")


async def handle_connection(
    service: SweepService,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    """Serve one connection: one request, one JSON response, close."""
    try:
        try:
            method, path, body = await _read_request(reader)
        except ConnectionResetError:
            return
        try:
            status, text = await _route(service, method, path, body)
        except HttpError as exc:
            status, text = exc.status, json.dumps({"error": str(exc)})
        except Exception as exc:  # a bug, not a bad request: say so, stay up
            status = 500
            text = json.dumps({"error": f"{type(exc).__name__}: {exc}"})
        writer.write(_encode_response(status, text))
        await writer.drain()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


async def serve(
    service: SweepService, host: str = "127.0.0.1", port: int = 8023
) -> asyncio.AbstractServer:
    """Start the HTTP server for a service; returns the listening server.

    Pass ``port=0`` to bind an ephemeral port (tests); read it back from
    ``server.sockets[0].getsockname()[1]``.
    """

    async def _handler(reader, writer):
        await handle_connection(service, reader, writer)

    return await asyncio.start_server(
        _handler, host=host, port=port, limit=MAX_HEADER_BYTES + MAX_BODY_BYTES
    )
