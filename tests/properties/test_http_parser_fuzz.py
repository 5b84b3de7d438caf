"""Fuzz the serve daemon's hand-rolled HTTP/1.1 request parser.

Whatever bytes arrive before EOF, ``_read_request`` must either return
``(method, path, body)`` or raise ``BadRequest``, which the connection
handler answers with a 400.  Any other exception escapes the handler:
the client gets no response and asyncio logs an unhandled exception.
"""

import asyncio

from hypothesis import example, given, settings, strategies as st

from repro.serve.server import BadRequest, _read_request

EOL = st.sampled_from([b"\r\n", b"\n"])

VALID_REQUEST_LINE = st.builds(
    lambda method, path, eol: method + b" " + path + b" HTTP/1.1" + eol,
    st.sampled_from([b"GET", b"POST", b"PUT", b"DELETE", b"get"]),
    st.sampled_from([b"/", b"/jobs", b"/jobs/job-1/stream?after=3", b"/stats"]),
    EOL,
)
JUNK_REQUEST_LINE = st.builds(
    lambda junk, eol: junk + eol,
    st.binary(max_size=40).filter(lambda line: b"\n" not in line),
    EOL,
)

CONTENT_LENGTH = st.one_of(
    st.integers().map(str),
    st.text(max_size=20),
    st.text(alphabet="0123456789", min_size=1, max_size=6000),
).map(lambda value: value.encode("utf-8"))

HEADER_LINE = st.one_of(
    st.builds(
        lambda name, value, eol: name + b": " + value + eol,
        st.sampled_from([b"Content-Length", b"content-length", b"CONTENT-LENGTH "]),
        CONTENT_LENGTH,
        EOL,
    ),
    st.builds(
        lambda line, eol: line + eol,
        st.binary(max_size=60).filter(lambda line: b"\n" not in line),
        EOL,
    ),
)

REQUEST = st.builds(
    lambda request_line, headers, end, body: (
        request_line + b"".join(headers) + end + body
    ),
    st.one_of(VALID_REQUEST_LINE, JUNK_REQUEST_LINE),
    st.lists(HEADER_LINE, max_size=8),
    st.sampled_from([b"\r\n", b"\n", b""]),
    st.binary(max_size=300),
)


def _parse(data):
    async def main():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return await _read_request(reader)

    return asyncio.run(main())


@settings(max_examples=400, deadline=None)
@given(st.one_of(REQUEST, st.binary(max_size=400)))
@example(b"POST /jobs HTTP/1.1\r\nContent-Length: " + b"1" * 4301 + b"\r\n\r\n")
def test_read_request_returns_a_request_or_raises_bad_request(data):
    try:
        method, path, body = _parse(data)
    except BadRequest:
        return
    assert isinstance(method, str) and method == method.upper()
    assert isinstance(path, str)
    assert isinstance(body, bytes)
