"""Connection bounds of the listener, over real TCP.

A connection whose client goes quiet — inside a half-sent request or
idle between requests — is dropped after :data:`CONNECTION_TIMEOUT_S`;
one connection over :data:`MAX_CONNECTIONS` is answered a JSON 503 and
closed.  In each case the daemon goes on answering the next client with
no internal errors.  Both limits are module constants, shrunk here with
``monkeypatch`` (they are read when a connection is accepted).
"""

from __future__ import annotations

import json
import socket
import time

import pytest

from repro import api
from repro.serve import ScanClient, ScanService, httpd, start_server

SCALE = 0.002
SEED = 5


@pytest.fixture(scope="module")
def handle():
    h = api.open_run(api.RunConfig(scale=SCALE, seed=SEED))
    h.ensure_initial()
    yield h
    h.close()


@pytest.fixture(scope="module")
def domain(handle):
    return handle.simulation.population.table.name_at(0)


@pytest.fixture
def tcp_server(handle):
    service = ScanService(handle)
    server, thread = start_server(service, host="127.0.0.1", port=0)
    yield server, service
    server.shutdown()
    service.stop()
    thread.join(timeout=10)
    assert not thread.is_alive()


def _connect(server) -> socket.socket:
    return socket.create_connection(server.server_address[:2], timeout=20)


def _read_to_eof(sock: socket.socket) -> bytes:
    chunks = []
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            return b"".join(chunks)
        chunks.append(chunk)


def _still_serving(server, service, domain) -> None:
    with ScanClient(*server.server_address[:2]) as client:
        assert client.census_row(domain)["domain"] == domain
    assert service.stats()["errors"] == 0


def test_half_sent_request_line_dropped_after_timeout(tcp_server, domain, monkeypatch):
    server, service = tcp_server
    monkeypatch.setattr(httpd, "CONNECTION_TIMEOUT_S", 0.3)
    with _connect(server) as sock:
        started = time.monotonic()
        sock.sendall(b"POST /v1/spf_cens")
        assert _read_to_eof(sock) == b""  # dropped without an answer
        assert 0.25 <= time.monotonic() - started < 10
    _still_serving(server, service, domain)


def test_idle_keep_alive_dropped_and_client_reconnects(tcp_server, domain, monkeypatch):
    server, service = tcp_server
    monkeypatch.setattr(httpd, "CONNECTION_TIMEOUT_S", 0.3)
    with ScanClient(*server.server_address[:2]) as client:
        assert client.census_row(domain)["domain"] == domain
        time.sleep(0.8)  # the daemon drops the idle connection
        # The next request finds it gone and retries on a fresh one.
        assert client.census_row(domain)["domain"] == domain
    assert service.stats()["errors"] == 0


def test_connection_over_cap_gets_503(tcp_server, domain, monkeypatch):
    server, service = tcp_server
    monkeypatch.setattr(httpd, "MAX_CONNECTIONS", 2)
    held = [_connect(server) for _ in range(2)]
    try:
        for sock in held:  # both admitted: each answers on its connection
            sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
            assert sock.recv(65536).startswith(b"HTTP/1.1 200 ")
        with _connect(server) as extra:
            extra.sendall(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
            head, _, body = _read_to_eof(extra).partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 503 ")
        assert b"Connection: close" in head and b"Retry-After: 1" in head
        assert json.loads(body.decode("utf-8"))["reason"] == "connection-cap"
    finally:
        for sock in held:
            sock.close()
    # The held connections' threads notice the close and free their slots.
    deadline = time.monotonic() + 10
    while True:
        with ScanClient(*server.server_address[:2]) as client:
            status, _ = client.request("run_status", {})
        if status == 200 or time.monotonic() > deadline:
            break
        time.sleep(0.05)
    assert status == 200
    _still_serving(server, service, domain)


def test_shutdown_drops_live_connections(handle):
    service = ScanService(handle)
    server, thread = start_server(service, host="127.0.0.1", port=0)
    with _connect(server) as sock:
        sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
        assert sock.recv(65536).startswith(b"HTTP/1.1 200 ")
        server.shutdown()
        assert _read_to_eof(sock) == b""
    service.stop()
    thread.join(timeout=10)
    assert not thread.is_alive()
