"""HTTP/1.1 message framing shared by the serve daemon and its client.

Both ends of ``repro serve`` speak one narrow dialect of HTTP/1.1: a
start line, ``Name: value`` header lines, and a body framed by
``Content-Length`` (no transfer codings, no trailers, no header
folding).  Reading works on any buffered binary file — a socket's
``makefile("rb")`` or an :class:`io.BytesIO` — and is bounded: a start
or header line longer than :data:`MAX_LINE_BYTES`, more than
:data:`MAX_HEADERS` header lines, or a body over :data:`MAX_BODY_BYTES`
is refused.  Every framing fault raises :class:`FramingError` carrying
the status the daemon answers it with; after one, the connection's
framing is lost and it must be closed.  Writing builds a whole message
and hands it to one ``sendall``, so a request or response never leaves
as a burst of small segments.
"""

from __future__ import annotations

from http import HTTPStatus
from typing import BinaryIO, Dict, Iterable, NamedTuple, Optional, Tuple

#: Longest start or header line read, terminator included.
MAX_LINE_BYTES = 8192

#: Most header lines read per message.
MAX_HEADERS = 64

#: Largest body read; a longer one is refused (413) unread.
MAX_BODY_BYTES = 1 << 20

#: The protocol versions a request may name.
VERSIONS = ("HTTP/1.0", "HTTP/1.1")

_REASONS = {status.value: status.phrase for status in HTTPStatus}
_BLANK = (b"\r\n", b"\n")


class FramingError(ValueError):
    """A message that cannot be framed; ``status`` is the daemon's answer."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class RequestHead(NamedTuple):
    """A request line and its headers (names lower-cased)."""

    method: str
    target: str
    version: str
    headers: Dict[str, str]

    @property
    def keep_alive(self) -> bool:
        """Whether the connection may carry another request after this one.

        HTTP/1.1 persists unless the client says ``Connection: close``;
        HTTP/1.0 closes unless it says ``Connection: keep-alive``.
        """
        connection = self.headers.get("connection", "").lower()
        if self.version == "HTTP/1.0":
            return connection == "keep-alive"
        return connection != "close"


def _read_line(rfile: BinaryIO, status: int) -> bytes:
    line = rfile.readline(MAX_LINE_BYTES + 1)
    if len(line) > MAX_LINE_BYTES:
        raise FramingError(status, f"line over {MAX_LINE_BYTES} bytes")
    return line


def read_headers(rfile: BinaryIO) -> Dict[str, str]:
    """Header lines up to the blank line that ends a message head."""
    headers: Dict[str, str] = {}
    for _ in range(MAX_HEADERS + 1):
        line = _read_line(rfile, 431)
        if line in _BLANK:
            return headers
        if not line.endswith(b"\n"):
            raise FramingError(400, "message head ends before its blank line")
        name, colon, value = line.decode("latin-1").partition(":")
        if not colon or not name or name != name.strip():
            raise FramingError(400, f"malformed header line {line[:64]!r}")
        name = name.lower()
        if name == "content-length" and name in headers:
            raise FramingError(400, "repeated Content-Length")
        headers[name] = value.strip()
    raise FramingError(431, f"more than {MAX_HEADERS} header lines")


def read_request_head(rfile: BinaryIO) -> Optional[RequestHead]:
    """The next request's line and headers; ``None`` at a clean end of input.

    One empty line before the request line is skipped (RFC 7230 §3.5).
    """
    line = _read_line(rfile, 414)
    if line in _BLANK:
        line = _read_line(rfile, 414)
    if not line:
        return None
    parts = line.decode("latin-1").split()
    if len(parts) != 3:
        raise FramingError(400, f"malformed request line {line[:64]!r}")
    method, target, version = parts
    if version not in VERSIONS:
        raise FramingError(400, f"unsupported protocol version {version[:16]!r}")
    return RequestHead(method, target, version, read_headers(rfile))


def read_response_head(rfile: BinaryIO) -> Tuple[int, Dict[str, str]]:
    """A response's status code and headers."""
    line = _read_line(rfile, 502)
    parts = line.split(None, 2)
    if len(parts) < 2 or not parts[0].startswith(b"HTTP/1.") or not parts[1].isdigit():
        raise FramingError(502, f"malformed status line {line[:64]!r}")
    return int(parts[1]), read_headers(rfile)


def content_length(headers: Dict[str, str]) -> int:
    """The body length a head declares (0 when it declares none).

    A transfer-coded body is refused 411: without ``Content-Length``
    its end cannot be found.
    """
    if "transfer-encoding" in headers:
        raise FramingError(411, "transfer-coded bodies are not supported; send Content-Length")
    value = headers.get("content-length")
    if value is None:
        return 0
    if not (value.isascii() and value.isdigit()):
        raise FramingError(400, "bad Content-Length")
    digits = value.lstrip("0")
    if len(digits) > len(str(MAX_BODY_BYTES)) or int(digits or 0) > MAX_BODY_BYTES:
        raise FramingError(413, f"body over {MAX_BODY_BYTES} bytes")
    return int(digits or 0)


def read_body(rfile: BinaryIO, length: int) -> bytes:
    """Exactly ``length`` body bytes."""
    body = rfile.read(length) if length else b""
    if len(body) != length:
        raise FramingError(400, "body shorter than its Content-Length")
    return body


def encode(start_line: str, headers: Iterable[Tuple[str, str]], body: bytes) -> bytes:
    """A whole message: start line, headers, ``Content-Length``, body."""
    head = [start_line]
    head.extend(f"{name}: {value}" for name, value in headers)
    head.append(f"Content-Length: {len(body)}\r\n\r\n")
    return "\r\n".join(head).encode("latin-1") + body


def status_line(status: int) -> str:
    return f"HTTP/1.1 {status} {_REASONS.get(status, '')}"
