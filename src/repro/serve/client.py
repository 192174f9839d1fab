"""A minimal typed client for the serve daemon (stdlib only).

:class:`ScanClient` speaks the ``/v1/<method>`` JSON protocol over TCP
or a unix-domain socket, reusing one keep-alive connection per client
instance (one client per thread in the load tester).  Messages are
framed by :mod:`repro.serve.http1`, the codec the daemon itself uses:
each request leaves in one ``sendall`` and each response is read from
the connection's buffered file.  Probe answers deserialize into
:class:`repro.api.ProbeResult` — the same value the in-process API
returns — so a caller can switch between embedding the world and
talking to a daemon without changing a line of result handling.
"""

from __future__ import annotations

import json
import socket
from typing import BinaryIO, Optional, Tuple

from ..api import ProbeResult
from ..errors import ServeError
from . import http1
from .http1 import FramingError


class ScanClient:
    """One connection to a serve daemon; methods mirror the endpoints."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        socket_path: Optional[str] = None,
        tenant: str = "public",
        timeout: float = 300.0,
    ) -> None:
        self.host = host
        self.port = port
        self.socket_path = socket_path
        self.tenant = tenant
        self.timeout = timeout
        self._sock: Optional[socket.socket] = None
        self._rfile: Optional[BinaryIO] = None
        self._headers = (
            ("Host", "localhost" if socket_path else f"{host}:{port}"),
            ("Content-Type", "application/json"),
        )

    # -- plumbing -------------------------------------------------------------

    def _connect(self) -> None:
        if self.socket_path:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                sock.settimeout(self.timeout)
                sock.connect(self.socket_path)
            except OSError:
                sock.close()
                raise
        else:
            sock = socket.create_connection((self.host, self.port), self.timeout)
            # A request is one write, but never let Nagle hold it back
            # waiting for the daemon's delayed ACK (~40 ms per round trip).
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock, self._rfile = sock, sock.makefile("rb")

    def close(self) -> None:
        if self._sock is not None:
            self._rfile.close()
            self._sock.close()
            self._sock = self._rfile = None

    def __enter__(self) -> "ScanClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _exchange(self, verb: str, path: str, body: bytes) -> Tuple[int, bytes]:
        """Send one request on the kept-alive connection; read its answer."""
        if self._sock is None:
            self._connect()
        self._sock.sendall(
            http1.encode(f"{verb} {path} HTTP/1.1", self._headers, body)
        )
        status, headers = http1.read_response_head(self._rfile)
        raw = http1.read_body(self._rfile, http1.content_length(headers))
        if headers.get("connection", "").lower() == "close":
            self.close()
        return status, raw

    def request(
        self, method: str, payload: Optional[dict] = None
    ) -> Tuple[int, dict]:
        """One round trip: ``(http_status, decoded_body)``.

        Transport errors retry once on a fresh connection (a keep-alive
        peer may have timed the previous one out); anything persistent
        raises :class:`ServeError`.
        """
        body = dict(payload or {})
        body.setdefault("tenant", self.tenant)
        encoded = json.dumps(body).encode("utf-8")
        for attempt in (0, 1):
            try:
                status, raw = self._exchange("POST", f"/v1/{method}", encoded)
                break
            except (OSError, FramingError) as error:
                self.close()
                if attempt:
                    raise ServeError(
                        f"request {method!r} failed: {error}"
                    ) from error
        try:
            decoded = json.loads(raw.decode("utf-8")) if raw else {}
        except (UnicodeDecodeError, ValueError) as error:
            raise ServeError(
                f"daemon answered non-JSON to {method!r}: {error}"
            ) from error
        return status, decoded

    def _expect_ok(self, method: str, payload: dict) -> dict:
        status, body = self.request(method, payload)
        if status != 200:
            raise ServeError(
                f"{method} {payload.get('target', '')!r} failed "
                f"({status}): {body.get('error', body)}"
            )
        return body

    # -- endpoints ------------------------------------------------------------

    def probe_domain(self, domain: str) -> ProbeResult:
        return ProbeResult.from_dict(
            self._expect_ok("probe_domain", {"target": domain})
        )

    def check_mta(self, ip: str) -> ProbeResult:
        return ProbeResult.from_dict(
            self._expect_ok("check_mta", {"target": ip})
        )

    def census_row(self, domain: str) -> dict:
        return self._expect_ok("spf_census_row", {"target": domain})

    def patch_status_since(self, domain: str, since: int = 0) -> dict:
        return self._expect_ok(
            "patch_status_since", {"target": domain, "since": since}
        )

    def run_status(self) -> dict:
        return self._expect_ok("run_status", {})

    def healthz(self) -> bool:
        try:
            status, _ = self._exchange("GET", "/healthz", b"")
        except (OSError, FramingError):
            self.close()
            return False
        return status == 200
