"""Stdlib HTTP transport for the gateway — no framework, no deps.

A :class:`ThreadingHTTPServer` front end over one :class:`Gateway`:
each connection gets a handler thread that parses the request, hands
the decoded JSON to the transport-independent handler on the gateway,
and writes the resulting status / body / ``Retry-After`` back.  All
policy (auth → meter → admission ordering, unit prices, shed
semantics) lives in :mod:`repro.gateway.app`; this module only speaks
HTTP.

Routes::

    GET  /healthz                      liveness + pressure (no auth)
    GET  /v1/stats                     gateway/service/stream counters
    GET  /v1/tenants/{tenant}/usage    own-tenant unit accounting
    POST /v1/predict                   one metered forecast
    POST /v1/ingest                    one tick or a bulk run

Authentication is ``Authorization: Bearer <api-key>`` against the
gateway's hot-reloadable key registry; missing or unknown keys get
``401`` with a ``WWW-Authenticate`` challenge.

Shutdown discipline: ``daemon_threads`` is deliberately **False**, so
``server_close()`` joins every in-flight handler thread.  Combined
with :meth:`Gateway.begin_drain` (new requests shed with 503) this
gives the graceful drain the CLI's signal handler relies on: stop
accepting, finish what was admitted, then snapshot and exit.
"""

from __future__ import annotations

import json
import math
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .app import INTERNAL_ERROR, Gateway, Response

__all__ = ["GatewayServer", "MAX_BODY_BYTES"]

#: Largest accepted request body.  A (H=512, N=64) float history is
#: ~0.4 MiB of JSON text; 4 MiB leaves generous headroom while keeping
#: a hostile client from ballooning handler memory.
MAX_BODY_BYTES = 4 * 1024 * 1024


class _HTTPServer(ThreadingHTTPServer):
    # Join handler threads in server_close(): the drain path depends on
    # in-flight requests completing before the process snapshots state.
    daemon_threads = False
    allow_reuse_address = True

    def __init__(self, address, handler, gateway: Gateway):
        self.gateway = gateway
        super().__init__(address, handler)


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    #: Socket timeout: a stalled client may not pin a handler thread
    #: (and thus block server_close, i.e. the graceful drain) forever.
    timeout = 10.0

    server: _HTTPServer  # typing aid

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def log_message(self, format, *args):  # noqa: A002 — stdlib name
        pass  # access logging is the deployment's business, not ours

    def _write(self, response: Response) -> None:
        body = json.dumps(response.payload).encode("utf-8")
        self.send_response(response.status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if response.retry_after is not None:
            # RFC 7231 delay-seconds is an integer; round up so a
            # compliant client never retries before the hint.
            self.send_header(
                "Retry-After", str(max(1, math.ceil(response.retry_after))))
        if response.status == 401:
            self.send_header(
                "WWW-Authenticate", 'Bearer realm="repro-gateway"')
        self.end_headers()
        self.wfile.write(body)

    def _authenticate(self):
        header = self.headers.get("Authorization", "")
        key = header[7:].strip() if header.startswith("Bearer ") else None
        tenant_key = self.server.gateway.authenticate(key)
        if tenant_key is None:
            self._write(Response(401, {
                "error": "missing or unknown API key (send "
                         "'Authorization: Bearer <key>')"}))
        return tenant_key

    def _read_json(self):
        length = self.headers.get("Content-Length")
        try:
            length = int(length)
        except (TypeError, ValueError):
            self._write(Response(411, {
                "error": "a Content-Length header is required"}))
            return None
        if length > MAX_BODY_BYTES:
            self._write(Response(413, {
                "error": f"request body exceeds {MAX_BODY_BYTES} bytes"}))
            return None
        raw = self.rfile.read(length)
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            self._write(Response(400, {
                "error": "request body is not valid JSON"}))
            return None

    def _dispatch(self, handler) -> None:
        try:
            response = handler()
        except Exception:  # noqa: BLE001 — keep serving
            response = Response(500, {"error": INTERNAL_ERROR})
        if response is not None:
            self._write(response)

    # ------------------------------------------------------------------
    # routes
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 — stdlib dispatch name
        self._dispatch(self._route_get)

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch(self._route_post)

    def _route_get(self) -> Response | None:
        gateway = self.server.gateway
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        if path == "/healthz":
            return gateway.health()
        if path == "/v1/stats":
            tenant_key = self._authenticate()
            if tenant_key is None:
                return None
            return gateway.stats_view()
        parts = path.strip("/").split("/")
        if (len(parts) == 4 and parts[0] == "v1"
                and parts[1] == "tenants" and parts[3] == "usage"):
            tenant_key = self._authenticate()
            if tenant_key is None:
                return None
            return gateway.usage(tenant_key, parts[2])
        return Response(404, {"error": f"no route for GET {path}"})

    def _route_post(self) -> Response | None:
        gateway = self.server.gateway
        path = self.path.split("?", 1)[0].rstrip("/")
        if path == "/v1/predict":
            handler = gateway.predict
        elif path == "/v1/ingest":
            handler = gateway.ingest
        else:
            return Response(404, {"error": f"no route for POST {path}"})
        tenant_key = self._authenticate()
        if tenant_key is None:
            return None
        payload = self._read_json()
        if payload is None:
            return None
        return handler(tenant_key, payload)


class GatewayServer:
    """Lifecycle wrapper: bind, serve (inline or background), drain.

    Parameters
    ----------
    gateway:
        The :class:`Gateway` whose handlers answer requests.
    host / port:
        Bind address.  ``port=0`` asks the kernel for a free port —
        the resolved one is in :attr:`port` (tests depend on this).
    """

    def __init__(self, gateway: Gateway, host: str = "127.0.0.1",
                 port: int = 0):
        self.gateway = gateway
        self._server = _HTTPServer((host, port), _Handler, gateway)
        self.host, self.port = self._server.server_address[:2]
        self._thread: threading.Thread | None = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`close` (CLI path)."""
        self._server.serve_forever(poll_interval=0.1)

    def start(self) -> "GatewayServer":
        """Serve on a background thread (test/embedding path)."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(
            target=self.serve_forever, name="gateway-http", daemon=True)
        self._thread.start()
        return self

    def close(self) -> None:
        """Drain and stop: shed new requests, then join handlers.

        ``begin_drain`` first so requests racing the shutdown get a
        clean 503 instead of a reset connection; ``server_close`` then
        joins the non-daemon handler threads, so when this returns no
        request is mid-flight and the caller may safely snapshot.
        """
        self.gateway.begin_drain()
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join()
            self._thread = None

    def __enter__(self) -> "GatewayServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
