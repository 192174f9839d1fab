"""The daemon's listener: a lean HTTP/1.1 front over :class:`ScanService`.

One endpoint shape: ``POST /v1/<method>`` with a JSON body
(``{"target": ..., "since": ..., "tenant": ...}``), answered with a JSON
document and a meaningful status code (200 OK, 400 malformed, 404
unknown method/domain, 411 transfer-coded body, 413 body over
:data:`MAX_BODY_BYTES`, 414/431 over-long lines or too many headers,
429 admission refusal with ``Retry-After``, 501 unknown verb, 503 over
the connection cap, 500 internal).  ``GET /v1/run_status`` and
``GET /healthz`` serve monitoring.  The tenant is taken from the body's
``tenant`` field or the ``X-Tenant`` header (body wins), defaulting to
``"public"``.

The listener binds either a TCP address or a unix-domain socket path.
Each accepted connection gets one thread that reads requests with the
shared :mod:`repro.serve.http1` codec and calls
:meth:`ScanService.submit` itself; the service's world lock keeps world
access serial (see :mod:`repro.serve.service` for why that ordering is
load-bearing).  Connections are bounded twice: at most
:data:`MAX_CONNECTIONS` are served at once (one more is answered 503
and closed), and a connection whose client sends nothing for
:data:`CONNECTION_TIMEOUT_S` — idle between requests or stalled inside
one — is dropped.  An error answer that closes its connection (the 503,
a framing fault, an unknown verb) is followed by a drain of the
client's unread input, so the close never turns into a reset that
destroys the answer.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
import traceback
from typing import Optional, Set, Tuple

from ..errors import ServeError
from . import http1
# The codec owns the body limit; it is re-exported as the daemon's.
from .http1 import MAX_BODY_BYTES, FramingError  # noqa: F401
from .service import ScanService

#: API prefix every method endpoint lives under.
API_PREFIX = "/v1/"

#: Most connections served at once; one more is answered 503 and closed.
MAX_CONNECTIONS = 128

#: Seconds a connection may wait on its client for the next bytes of a
#: request (idle keep-alive or a slowly sent one) before it is dropped.
CONNECTION_TIMEOUT_S = 60.0

#: Longest wait, after a closing error answer, for the client to close.
LINGER_S = 1.0

_CONTINUE = b"HTTP/1.1 100 Continue\r\n\r\n"


def _reply(conn: socket.socket, status: int, body: dict, *, close: bool = False) -> None:
    """Write one JSON response in a single ``sendall``."""
    payload = json.dumps(body, sort_keys=True).encode("utf-8")
    headers = [("Server", "repro-serve/1"), ("Content-Type", "application/json")]
    retry_after = body.get("retry_after")
    if status in (429, 503) and isinstance(retry_after, (int, float)):
        headers.append(("Retry-After", str(max(1, int(retry_after)))))
    if close:
        headers.append(("Connection", "close"))
    conn.sendall(http1.encode(http1.status_line(status), headers, payload))


def _drain(conn: socket.socket) -> None:
    """Stop writing, then discard input until the client closes (at most
    :data:`LINGER_S`).

    Closing a TCP socket with unread input makes the kernel answer RST,
    which can destroy a response the client has not read yet; after a
    drain the close is a clean FIN.
    """
    try:
        conn.shutdown(socket.SHUT_WR)
        deadline = time.monotonic() + LINGER_S
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return
            conn.settimeout(remaining)
            if not conn.recv(65536):
                return
    except OSError:
        pass


class ScanHTTPServer:
    """TCP listener; one thread per connection, bounded in number."""

    family = socket.AF_INET

    def __init__(self, address, service: ScanService) -> None:
        self.service = service
        self.socket = socket.socket(self.family, socket.SOCK_STREAM)
        try:
            self.server_bind(address)
            self.socket.listen()
        except OSError:
            self.socket.close()
            raise
        self.server_address = self.socket.getsockname()
        self._connections: Set[socket.socket] = set()
        self._lock = threading.Lock()
        self._stopping = False
        self._stopped = threading.Event()
        self._stopped.set()

    def server_bind(self, address) -> None:
        self.socket.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self.socket.bind(address)

    # -- lifecycle ------------------------------------------------------------

    def serve_forever(self, poll_interval: float = 0.5) -> None:
        """Accept connections until :meth:`shutdown`."""
        self._stopped.clear()
        self.socket.settimeout(poll_interval)
        try:
            while not self._stopping:
                try:
                    conn, _ = self.socket.accept()
                except OSError:  # the poll timeout, or a failed accept
                    continue
                self._admit(conn)
        finally:
            self._stopped.set()

    def shutdown(self) -> None:
        """Stop accepting, close the listener, and drop live connections."""
        self._stopping = True
        self._stopped.wait()
        self.socket.close()
        with self._lock:
            live = list(self._connections)
        for conn in live:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass

    # -- connections ----------------------------------------------------------

    def _admit(self, conn: socket.socket) -> None:
        with self._lock:
            admitted = len(self._connections) < MAX_CONNECTIONS
            if admitted:
                self._connections.add(conn)
        if not admitted:
            try:
                conn.settimeout(1.0)
                _reply(conn, 503, {
                    "error": f"too many connections (cap {MAX_CONNECTIONS})",
                    "reason": "connection-cap",
                    "retry_after": 1.0,
                }, close=True)
            except OSError:
                pass
            _drain(conn)
            conn.close()
            return
        if self.family == socket.AF_INET:
            # One write per response; still, never let Nagle hold it back
            # waiting for the peer's delayed ACK (~40 ms per round trip).
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        conn.settimeout(CONNECTION_TIMEOUT_S)
        threading.Thread(
            target=self._serve_connection, args=(conn,),
            name="repro-serve-conn", daemon=True,
        ).start()

    def _serve_connection(self, conn: socket.socket) -> None:
        rfile = conn.makefile("rb")
        try:
            while self._handle(conn, rfile):
                pass
        except OSError:
            pass  # timed out, reset, or dropped by shutdown()
        except Exception:
            # A bug in this module must not leave the client hanging.
            traceback.print_exc()
            try:
                _reply(conn, 500, {"error": "internal error"}, close=True)
            except OSError:
                pass
        finally:
            with self._lock:
                self._connections.discard(conn)
            rfile.close()
            conn.close()

    def _handle(self, conn: socket.socket, rfile) -> bool:
        """Answer one request; ``True`` when the connection stays open."""
        try:
            head = http1.read_request_head(rfile)
            if head is None:
                return False
            if head.method not in ("GET", "POST"):
                # Any body is left unread, so the connection cannot go on.
                _reply(conn, 501, {"error": f"unsupported method {head.method[:32]!r}"},
                       close=True)
                _drain(conn)
                return False
            length = http1.content_length(head.headers)
            if length and head.version == "HTTP/1.1" and (
                head.headers.get("expect", "").lower() == "100-continue"
            ):
                conn.sendall(_CONTINUE)
            raw = http1.read_body(rfile, length)
        except FramingError as error:
            # The stream's framing is lost (a body may sit unread), so the
            # answer also closes the connection.
            _reply(conn, error.status, {"error": str(error)}, close=True)
            _drain(conn)
            return False
        keep_alive = head.keep_alive
        status, body = self._route(head, raw)
        _reply(conn, status, body, close=not keep_alive)
        return keep_alive

    def _route(self, head: http1.RequestHead, raw: bytes) -> Tuple[int, dict]:
        path = head.target
        if head.method == "GET":
            if path == "/healthz":
                return 200, {"ok": True}
            if path == API_PREFIX + "run_status":
                return self.service.submit("run_status", {}, self._tenant(head, {}))
            return 404, {"error": f"unknown path {path!r}"}
        if not path.startswith(API_PREFIX):
            return 404, {"error": f"unknown path {path!r}"}
        try:
            payload = json.loads(raw.decode("utf-8")) if raw.strip() else {}
        except (UnicodeDecodeError, ValueError) as error:
            return 400, {"error": f"request body is not JSON: {error}"}
        if not isinstance(payload, dict):
            return 400, {"error": "request body must be a JSON object"}
        method = path[len(API_PREFIX):]
        return self.service.submit(method, payload, self._tenant(head, payload))

    @staticmethod
    def _tenant(head: http1.RequestHead, payload: dict) -> str:
        tenant = payload.get("tenant") or head.headers.get("x-tenant")
        return str(tenant) if tenant else "public"


class UnixScanHTTPServer(ScanHTTPServer):
    """The same listener over a unix-domain socket path."""

    family = socket.AF_UNIX

    def server_bind(self, path) -> None:
        if os.path.exists(path):
            os.unlink(path)
        self.socket.bind(path)


def start_server(
    service: ScanService,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    socket_path: Optional[str] = None,
) -> Tuple[ScanHTTPServer, threading.Thread]:
    """Bind a listener, start serving in a thread, and open the service.

    Returns ``(server, thread)``; ``port=0`` binds an ephemeral TCP port
    (read it back from ``server.server_address``).  Stop with
    ``server.shutdown()`` then ``service.stop()``.
    """
    if socket_path:
        server: ScanHTTPServer = UnixScanHTTPServer(socket_path, service)
    else:
        try:
            server = ScanHTTPServer((host, port), service)
        except OSError as error:
            raise ServeError(f"cannot bind {host}:{port}: {error}") from error
    service.start()
    thread = threading.Thread(
        target=server.serve_forever, name="repro-serve-http", daemon=True
    )
    thread.start()
    return server, thread
