"""Minimal HTTP/1.1 primitives and routing for the assessment service.

Hand-rolled on purpose: the service ships with zero dependencies beyond
the standard library, and its API surface is small enough that a parser
for exactly what we accept — request line, headers, Content-Length body
— is less code than an abstraction layer over one.  Every connection is
``Connection: close`` (one request per connection).

:class:`Router` maps ``(METHOD, /path/pattern)`` to handlers, with
``{name}`` segments captured as string parameters::

    router.add("GET", "/v1/jobs/{job_id}", handler)
"""

from __future__ import annotations

import dataclasses
import json
import re
from typing import Any, Callable, Dict, List, Optional, Tuple
from urllib.parse import parse_qsl, urlsplit

#: Hard cap on request head + body; assessment specs are tiny documents.
MAX_HEAD_BYTES = 64 * 1024
MAX_BODY_BYTES = 1 << 20

#: Reason phrases for the statuses this API actually returns.
REASONS = {
    200: "OK",
    201: "Created",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
}


class BadRequest(ValueError):
    """The request is malformed; the connection gets a 400 and closes."""


@dataclasses.dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    query: Dict[str, str]
    headers: Dict[str, str]  # keys lower-cased
    body: bytes = b""

    def json_body(self) -> Any:
        """The body parsed as JSON; :class:`BadRequest` on failure."""
        if not self.body:
            return {}
        try:
            return json.loads(self.body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise BadRequest(f"request body is not valid JSON: {exc}") from exc

    def header(self, name: str, default: str = "") -> str:
        return self.headers.get(name.lower(), default)


@dataclasses.dataclass
class Response:
    """One HTTP response, encoded with Content-Length framing."""

    status: int
    body: bytes = b""
    content_type: str = "application/json"
    headers: Dict[str, str] = dataclasses.field(default_factory=dict)

    def encode(self) -> bytes:
        reason = REASONS.get(self.status, "Unknown")
        lines = [
            f"HTTP/1.1 {self.status} {reason}",
            f"Content-Type: {self.content_type}",
            f"Content-Length: {len(self.body)}",
            "Connection: close",
        ]
        lines.extend(f"{k}: {v}" for k, v in self.headers.items())
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        return head + self.body


def json_response(status: int, payload: Any, **headers: str) -> Response:
    """A JSON response with sorted keys (stable for tests and curls)."""
    body = (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode("utf-8")
    return Response(status, body, headers=dict(headers))


def error_response(status: int, message: str, **extra: Any) -> Response:
    """The uniform error shape: ``{"error": {"message": ..., ...}}``."""
    return json_response(status, {"error": {"message": message, **extra}})


def parse_request_head(head: bytes) -> Tuple[str, str, Dict[str, str], Dict[str, str]]:
    """Parse the request line + headers → (method, path, query, headers).

    Raises :class:`BadRequest` on anything that is not a plausible
    HTTP/1.x request head.
    """
    try:
        text = head.decode("latin-1")
    except UnicodeDecodeError as exc:  # pragma: no cover - latin-1 total
        raise BadRequest("undecodable request head") from exc
    lines = text.split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise BadRequest(f"malformed request line: {lines[0]!r}")
    method, target = parts[0].upper(), parts[1]
    try:
        split = urlsplit(target)
        query = dict(parse_qsl(split.query))
    except ValueError as exc:  # e.g. an unbalanced "[" in the netloc
        raise BadRequest(f"malformed request target: {target!r}") from exc
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise BadRequest(f"malformed header line: {line!r}")
        headers[name.strip().lower()] = value.strip()
    return method, split.path or "/", query, headers


def content_length(headers: Dict[str, str]) -> int:
    """The declared body length; :class:`BadRequest` unless a plain
    non-negative decimal integer (an absent or empty header is 0)."""
    value = headers.get("content-length") or "0"
    if not (value.isascii() and value.isdigit()):
        raise BadRequest(f"bad Content-Length: {value!r}")
    return int(value)


Handler = Callable[..., Any]


class Router:
    """Ordered ``(method, pattern)`` → handler table with ``{name}`` params."""

    def __init__(self) -> None:
        self._routes: List[Tuple[str, "re.Pattern[str]", Handler]] = []

    def add(self, method: str, pattern: str, handler: Handler) -> None:
        """Register ``handler`` for ``method`` on ``pattern``."""
        regex = re.compile(
            "^"
            + re.sub(r"\{([a-zA-Z_][a-zA-Z0-9_]*)\}", r"(?P<\1>[^/]+)", pattern)
            + "$"
        )
        self._routes.append((method.upper(), regex, handler))

    def match(
        self, method: str, path: str
    ) -> Tuple[Optional[Handler], Dict[str, str], bool]:
        """``(handler, params, path_known)`` for a request.

        ``handler`` is None on no match; ``path_known`` distinguishes 404
        (no route at this path) from 405 (path exists, wrong method).
        """
        path_known = False
        for method_, regex, handler in self._routes:
            m = regex.match(path)
            if not m:
                continue
            path_known = True
            if method_ == method:
                return handler, m.groupdict(), True
        return None, {}, path_known
