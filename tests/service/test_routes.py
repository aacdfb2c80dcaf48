"""HTTP primitives: head parsing, response framing, route matching."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import routes

#: Fragments that steer generated heads toward the parser's branches:
#: request-line shapes, header separators and non-ASCII bytes.
HEAD_FRAGMENTS = st.sampled_from(
    [b"GET", b"POST", b" ", b"/", b"?", b":", b"\r\n", b"HTTP/1.1", b"HTTP/1.",
     b"Content-Length", b"\x00", b"\xff"]
)
#: Request targets without spaces; an unbalanced "[" or "]" in a
#: "//netloc" makes ``urlsplit`` raise ``ValueError``.
TARGETS = st.builds(
    bytes.__add__,
    st.sampled_from([b"", b"/", b"//", b"http://"]),
    st.lists(
        st.sampled_from(
            [b"/", b"?", b"&", b"=", b"%", b"#", b"[", b"]", b":", b"a", b"\xff"]
        ),
        max_size=12,
    ).map(b"".join),
)
REQUEST_HEADS = st.one_of(
    st.binary(max_size=200),
    st.lists(HEAD_FRAGMENTS | st.binary(max_size=6), max_size=40).map(b"".join),
    st.builds(
        lambda method, target, rest: method + b" " + target + b" HTTP/1.1" + rest,
        st.sampled_from([b"GET", b"POST", b"get"]),
        TARGETS,
        st.lists(HEAD_FRAGMENTS | st.binary(max_size=4), max_size=12).map(b"".join),
    ),
)

class TestParseRequestHead:
    def test_request_line_and_headers(self):
        head = (
            b"POST /v1/jobs?state=queued HTTP/1.1\r\n"
            b"Host: localhost\r\n"
            b"Content-Length: 12\r\n"
            b"X-API-Key: alice\r\n"
        )
        method, path, query, headers = routes.parse_request_head(head)
        assert method == "POST"
        assert path == "/v1/jobs"
        assert query == {"state": "queued"}
        assert headers["content-length"] == "12"
        assert headers["x-api-key"] == "alice"

    def test_header_names_lowercased_values_stripped(self):
        _, _, _, headers = routes.parse_request_head(
            b"GET / HTTP/1.1\r\nUPGRADE:   websocket  \r\n"
        )
        assert headers == {"upgrade": "websocket"}

    @pytest.mark.parametrize(
        "head",
        [
            b"GARBAGE",
            b"GET /\r\n",
            b"GET / SPDY/3\r\n",
            b"GET / HTTP/1.1\r\nnocolon\r\n",
            b"GET //[x/ HTTP/1.1\r\n",  # urlsplit: "Invalid IPv6 URL"
        ],
    )
    def test_malformed_heads_raise_bad_request(self, head):
        with pytest.raises(routes.BadRequest):
            routes.parse_request_head(head)

    @settings(max_examples=300, deadline=None)
    @given(REQUEST_HEADS)
    def test_any_head_parses_or_raises_bad_request(self, head):
        try:
            method, path, query, headers = routes.parse_request_head(head)
        except routes.BadRequest:
            return
        assert method == method.upper() and path
        assert all(name == name.lower() for name in headers)


class TestContentLength:
    @pytest.mark.parametrize(
        "headers, length",
        [({}, 0), ({"content-length": ""}, 0), ({"content-length": "12"}, 12)],
    )
    def test_plain_decimal_lengths(self, headers, length):
        assert routes.content_length(headers) == length

    @pytest.mark.parametrize("value", ["abc", "-5", "+5", " 5", "1_0", "\u00b2"])
    def test_anything_else_raises_bad_request(self, value):
        with pytest.raises(routes.BadRequest):
            routes.content_length({"content-length": value})


class TestRequestResponse:
    def test_json_body_parses(self):
        request = routes.Request("POST", "/", {}, {}, b'{"a": 1}')
        assert request.json_body() == {"a": 1}

    def test_empty_body_is_empty_object(self):
        assert routes.Request("GET", "/", {}, {}).json_body() == {}

    def test_invalid_json_raises_bad_request(self):
        request = routes.Request("POST", "/", {}, {}, b"{nope")
        with pytest.raises(routes.BadRequest):
            request.json_body()

    def test_response_encoding_has_length_framing(self):
        wire = routes.json_response(201, {"ok": True}).encode()
        head, _, body = wire.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 201 Created\r\n")
        assert f"Content-Length: {len(body)}".encode() in head
        assert b"Connection: close" in head
        assert json.loads(body) == {"ok": True}

    def test_error_response_shape(self):
        wire = routes.error_response(429, "over quota", limit=10).encode()
        body = json.loads(wire.partition(b"\r\n\r\n")[2])
        assert body["error"]["message"] == "over quota"
        assert body["error"]["limit"] == 10


class TestRouter:
    def _router(self):
        router = routes.Router()
        router.add("GET", "/v1/jobs", "list")
        router.add("POST", "/v1/jobs", "submit")
        router.add("GET", "/v1/jobs/{job_id}", "get")
        return router

    def test_static_and_param_routes(self):
        router = self._router()
        handler, params, known = router.match("GET", "/v1/jobs/job-123")
        assert (handler, params, known) == ("get", {"job_id": "job-123"}, True)

    def test_method_distinguishes_handlers(self):
        router = self._router()
        assert router.match("POST", "/v1/jobs")[0] == "submit"
        assert router.match("GET", "/v1/jobs")[0] == "list"

    def test_405_vs_404_discrimination(self):
        router = self._router()
        handler, _, known = router.match("DELETE", "/v1/jobs")
        assert handler is None and known is True  # 405
        handler, _, known = router.match("GET", "/v1/nope")
        assert handler is None and known is False  # 404

    def test_params_do_not_cross_slashes(self):
        router = self._router()
        handler, _, _ = router.match("GET", "/v1/jobs/a/b")
        assert handler is None
