"""The shared HTTP/1.1 codec, and the daemon's HTTP boundary under fuzz.

Two layers are exercised.  The pure codec (:mod:`repro.serve.http1`)
is fed arbitrary request heads and bodies from an in-memory file: it
either frames a request or raises :class:`FramingError` with a 4xx
status — never another exception.  A live daemon on a unix socket is
fed random malformed requests (bad request lines, header lines without
a colon, over-long lines, too many headers, bad ``Content-Length``
values, ``Transfer-Encoding: chunked``, ``Expect: 100-continue``,
HTTP/1.0): every input is answered with JSON 2xx/4xx responses (or 501
for a verb the daemon does not implement) and/or a clean close, never a
traceback or a hang, and the daemon serves a well-formed client
afterwards with zero internal errors.
"""

from __future__ import annotations

import io
import json
import socket

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import api
from repro.serve import ScanClient, ScanService, start_server
from repro.serve import http1
from repro.serve.http1 import (
    MAX_BODY_BYTES,
    MAX_HEADERS,
    MAX_LINE_BYTES,
    FramingError,
)

SCALE = 0.002
SEED = 5


def _frame(data: bytes):
    """Parse one request from ``data`` the way the daemon does."""
    rfile = io.BytesIO(data)
    head = http1.read_request_head(rfile)
    if head is None:
        return None, b""
    return head, http1.read_body(rfile, http1.content_length(head.headers))


class TestCodec:
    def test_round_trip(self):
        wire = http1.encode(
            "POST /v1/spf_census_row HTTP/1.1",
            [("Host", "x"), ("X-Tenant", "alice")],
            b'{"target": "a.example"}',
        )
        head, body = _frame(wire)
        assert head.method == "POST"
        assert head.target == "/v1/spf_census_row"
        assert head.headers["x-tenant"] == "alice"
        assert head.keep_alive
        assert body == b'{"target": "a.example"}'

    def test_keep_alive_rules(self):
        def alive(version, connection=None):
            headers = [("Connection", connection)] if connection else []
            head, _ = _frame(http1.encode(f"GET / {version}", headers, b""))
            return head.keep_alive

        assert alive("HTTP/1.1")
        assert not alive("HTTP/1.1", "close")
        assert not alive("HTTP/1.0")
        assert alive("HTTP/1.0", "keep-alive")

    def test_one_leading_blank_line_skipped(self):
        head, _ = _frame(b"\r\nGET /healthz HTTP/1.1\r\n\r\n")
        assert head.target == "/healthz"

    def test_clean_end_of_input(self):
        assert _frame(b"") == (None, b"")

    @pytest.mark.parametrize(
        "wire, status",
        [
            (b"GARBAGE\r\n\r\n", 400),
            (b"GET /\r\n\r\n", 400),
            (b"GET / HTTP/2.0\r\n\r\n", 400),
            (b"GET / HTTP/1.1\r\nno colon here\r\n\r\n", 400),
            (b"GET / HTTP/1.1\r\n folded: value\r\n\r\n", 400),
            (b"GET / HTTP/1.1\r\nHost: x\r\n", 400),
            (b"POST / HTTP/1.1\r\nContent-Length: -5\r\n\r\n", 400),
            (b"POST / HTTP/1.1\r\nContent-Length: 1_0\r\n\r\n", 400),
            (b"POST / HTTP/1.1\r\nContent-Length: abc\r\n\r\n", 400),
            (b"POST / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\nab", 400),
            (b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort", 400),
            (b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", 411),
            (b"POST / HTTP/1.1\r\nContent-Length: " + b"9" * 40 + b"\r\n\r\n", 413),
            (b"GET /" + b"a" * MAX_LINE_BYTES + b" HTTP/1.1\r\n\r\n", 414),
            (b"GET / HTTP/1.1\r\nX: " + b"a" * MAX_LINE_BYTES + b"\r\n\r\n", 431),
            (b"GET / HTTP/1.1\r\n" + b"X: y\r\n" * (MAX_HEADERS + 1) + b"\r\n", 431),
        ],
    )
    def test_framing_errors(self, wire, status):
        with pytest.raises(FramingError) as raised:
            _frame(wire)
        assert raised.value.status == status

    def test_body_limit_is_inclusive(self):
        length = f"Content-Length: {MAX_BODY_BYTES:08d}".encode("ascii")
        head, _ = _frame(b"POST / HTTP/1.1\r\n" + length + b"\r\n\r\n" + b"x" * MAX_BODY_BYTES)
        assert head is not None
        with pytest.raises(FramingError) as raised:
            _frame(b"POST / HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % (MAX_BODY_BYTES + 1))
        assert raised.value.status == 413

    def test_response_head(self):
        wire = http1.encode(http1.status_line(429), [("Retry-After", "3")], b"{}")
        rfile = io.BytesIO(wire)
        status, headers = http1.read_response_head(rfile)
        assert (status, headers["retry-after"]) == (429, "3")
        assert http1.read_body(rfile, http1.content_length(headers)) == b"{}"
        with pytest.raises(FramingError):
            http1.read_response_head(io.BytesIO(b"garbage\r\n\r\n"))


_REQUEST_LINES = st.one_of(
    st.sampled_from([
        b"POST /v1/spf_census_row HTTP/1.1",
        b"POST /v1/run_status HTTP/1.0",
        b"GET /healthz HTTP/1.1",
        b"GET /v1/run_status HTTP/1.0",
        b"POST /nowhere HTTP/1.1",
    ]),
    st.sampled_from([
        b"PUT /v1/spf_census_row HTTP/1.1",
        b"BREW /pot HTTP/1.1",
        b"post /v1/spf_census_row HTTP/1.1",
        b"GET /healthz HTTP/2.0",
        b"GET /healthz",
        b"GET",
        b"",
        b"GET /" + b"a" * (MAX_LINE_BYTES + 10) + b" HTTP/1.1",
    ]),
    st.binary(max_size=80).filter(lambda b: b"\n" not in b),
)

_KNOWN_HEADER_LINES = st.sampled_from(
    [
        b"Host: test",
        b"X-Tenant: fuzz",
        b"Connection: close",
        b"Connection: keep-alive",
        b"Content-Type: application/json",
        b"Expect: 100-continue",
        b"Transfer-Encoding: chunked",
        b"Content-Length: abc",
        b"Content-Length: -5",
        b"Content-Length: 99999999999999999999999",
        b"Content-Length: " + str(MAX_BODY_BYTES + 1).encode("ascii"),
        b"Content-Length: 3",
        b"Content-Length: 0",
        b"no colon in this header line",
        b" leading-space: folded",
        b"X-Long: " + b"x" * (MAX_LINE_BYTES + 10),
    ]
)

_BODIES = st.one_of(
    st.just(b""),
    st.just(b'{"target": "fuzz.invalid"}'),
    st.just(b"[1, 2]"),
    st.just(b"{not json"),
    st.binary(max_size=120),
)


@st.composite
def _requests(draw) -> bytes:
    """One request, mostly well-framed, with faults mixed in."""
    headers = []
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 3)):
            headers.append(draw(_KNOWN_HEADER_LINES))
        else:
            headers.append(draw(st.binary(max_size=60).filter(lambda b: b"\n" not in b)))
    if draw(st.integers(0, 9)) == 0:
        headers += [b"X-Pad: y"] * (MAX_HEADERS + 1)
    return (
        draw(_REQUEST_LINES) + b"\r\n"
        + b"".join(h + b"\r\n" for h in headers) + b"\r\n"
        + draw(_BODIES)
    )


class TestCodecFuzz:
    @settings(
        max_examples=1000, deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(st.one_of(st.binary(max_size=300), _requests()))
    def test_any_input_frames_or_is_a_4xx(self, data):
        try:
            _frame(data)
        except FramingError as error:
            assert 400 <= error.status < 500

    @settings(max_examples=200, deadline=None)
    @given(
        method=st.sampled_from(["GET", "POST"]),
        target=st.text(st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=40),
        headers=st.dictionaries(
            st.text("abcdefghijklmnopqrstuvwxyz-", min_size=1, max_size=12).filter(
                lambda name: name not in ("content-length", "transfer-encoding")
            ),
            st.text(st.characters(min_codepoint=33, max_codepoint=126), max_size=30),
            max_size=10,
        ),
        body=st.binary(max_size=200),
    )
    def test_encode_then_frame_round_trips(self, method, target, headers, body):
        head, framed = _frame(
            http1.encode(f"{method} {target} HTTP/1.1", headers.items(), body)
        )
        assert (head.method, head.target, framed) == (method, target, body)
        assert {k: v for k, v in head.headers.items() if k != "content-length"} == headers


# -- the live boundary ----------------------------------------------------------


@pytest.fixture(scope="module")
def handle():
    h = api.open_run(api.RunConfig(scale=SCALE, seed=SEED))
    h.ensure_initial()
    yield h
    h.close()


@pytest.fixture(scope="module")
def domain(handle):
    return handle.simulation.population.table.name_at(0)


@pytest.fixture(scope="module")
def daemon(handle, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("fuzz") / "scan.sock")
    service = ScanService(handle)
    server, thread = start_server(service, socket_path=path)
    yield path, service
    server.shutdown()
    service.stop()
    thread.join(timeout=10)
    assert not thread.is_alive()


def _exchange(path: str, data: bytes, *, timeout: float = 20.0) -> bytes:
    """Send ``data``, half-close, and read until the daemon closes."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        sock.settimeout(timeout)
        sock.connect(path)
        try:
            sock.sendall(data)
            sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass  # the daemon refused and closed before reading it all
        chunks = []
        while True:
            try:
                chunk = sock.recv(65536)
            except ConnectionResetError:
                break
            if not chunk:
                break
            chunks.append(chunk)
    return b"".join(chunks)


def _responses(wire: bytes):
    """Every complete response in ``wire``, as ``(status, headers, body)``."""
    rfile, out = io.BytesIO(wire), []
    while rfile.tell() < len(wire):
        status, headers = http1.read_response_head(rfile)
        out.append((status, headers, http1.read_body(rfile, http1.content_length(headers))))
    return out


def _check_answers(wire: bytes) -> list:
    responses = _responses(wire)
    for status, headers, body in responses:
        if status == 100:
            continue
        assert headers["content-type"] == "application/json"
        decoded = json.loads(body.decode("utf-8"))
        assert "Traceback" not in body.decode("utf-8")
        assert 200 <= status < 500 or (
            status == 501 and "unsupported method" in decoded["error"]
        ), (status, decoded)
    return responses


class TestLiveBoundaryFuzz:
    @settings(
        max_examples=200, deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(request=_requests(), follow_up=st.booleans())
    def test_every_input_gets_json_or_a_clean_close(self, daemon, request, follow_up):
        path, _ = daemon
        data = request
        if follow_up:
            # A well-formed request after the fuzzed one: if the fuzzed
            # one kept the connection, this one must be answered too.
            data += b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n"
        _check_answers(_exchange(path, data))

    def test_daemon_serves_after_fuzz(self, daemon, domain):
        path, service = daemon
        # Specific framing faults, each closing its connection, then a
        # well-formed client: still answered, and nothing counted as an
        # internal error.
        for data in (
            b"GARBAGE\r\n\r\n",
            b"POST /v1/spf_census_row HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n0\r\n\r\n",
            b"POST /v1/spf_census_row HTTP/1.1\r\nContent-Length: 1_0\r\n\r\n",
            b"GET /healthz HTTP/1.1\r\n" + b"X: y\r\n" * (MAX_HEADERS + 1) + b"\r\n",
        ):
            (status, _, _), = _check_answers(_exchange(path, data))
            assert 400 <= status < 500
        with ScanClient(socket_path=path) as client:
            assert client.census_row(domain)["domain"] == domain
            assert client.run_status()["service"]["errors"] == 0
        assert service.stats()["errors"] == 0


class TestProtocolSemantics:
    """Wire-level behaviour a stock HTTP client relies on."""

    def _open(self, daemon):
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(20)
        sock.connect(daemon[0])
        return sock, sock.makefile("rb")

    def _read(self, rfile):
        status, headers = http1.read_response_head(rfile)
        body = http1.read_body(rfile, http1.content_length(headers))
        return status, headers, body

    def test_http10_closes_unless_keep_alive(self, daemon):
        sock, rfile = self._open(daemon)
        with sock, rfile:
            sock.sendall(b"GET /healthz HTTP/1.0\r\n\r\n")
            status, headers, _ = self._read(rfile)
            assert status == 200 and headers["connection"] == "close"
            assert rfile.read() == b""
        sock, rfile = self._open(daemon)
        with sock, rfile:
            for _ in range(2):
                sock.sendall(b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
                status, headers, _ = self._read(rfile)
                assert status == 200 and "connection" not in headers

    def test_connection_close_is_honoured(self, daemon):
        sock, rfile = self._open(daemon)
        with sock, rfile:
            sock.sendall(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
            status, headers, _ = self._read(rfile)
            assert status == 200 and headers["connection"] == "close"
            assert rfile.read() == b""

    def test_expect_100_continue(self, daemon, domain):
        body = json.dumps({"target": domain, "pad": "x" * 2048}).encode("utf-8")
        sock, rfile = self._open(daemon)
        with sock, rfile:
            sock.sendall(
                b"POST /v1/spf_census_row HTTP/1.1\r\nExpect: 100-continue\r\n"
                b"Content-Length: %d\r\n\r\n" % len(body)
            )
            # The interim answer arrives before any body byte is sent.
            assert rfile.readline() == b"HTTP/1.1 100 Continue\r\n"
            assert rfile.readline() == b"\r\n"
            sock.sendall(body)
            status, _, answer = self._read(rfile)
            assert status == 200
            assert json.loads(answer.decode("utf-8"))["domain"] == domain

    @pytest.mark.parametrize(
        "request_line, status",
        [(b"NONSENSE", 400), (b"GET / HTTP/1.1 extra", 400), (b"DELETE /v1/x HTTP/1.1", 501)],
    )
    def test_bad_request_lines(self, daemon, request_line, status):
        (got, headers, body), = _check_answers(
            _exchange(daemon[0], request_line + b"\r\nHost: test\r\n\r\n")
        )
        assert got == status
        assert headers["connection"] == "close"
        assert "error" in json.loads(body.decode("utf-8"))
