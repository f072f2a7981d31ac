"""HTTP/1.1 framing on both ends of the contributor loop (RFC 9112).

The platform server reads request lines, header lines and ``Content-Length``
bodies itself and writes each response in one write; the driver's
``HTTPClient`` frames its requests and reads responses on one socket per
thread.  These tests speak raw bytes to the server, and point the client at
a scripted server, to pin what each end accepts, refuses and closes.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from email.utils import parsedate_to_datetime

import pytest

from repro.driver.client import HTTPClient, RetryPolicy, _read_response
from repro.obs import JsonLogger, MetricsRegistry, parse_log_lines
from repro.platform import PlatformServer, PlatformService
from repro.platform.webapp import create_wsgi_app


@pytest.fixture()
def server():
    with PlatformServer(PlatformService()) as running:
        yield running


def _connect(server) -> tuple[socket.socket, object]:
    sock = socket.create_connection((server.host, server.port), timeout=5)
    return sock, sock.makefile("rb")


def _closed(reader) -> bool:
    """True when the server ends the connection after what was read."""
    return reader.read() == b""


def _ping(version: str = "HTTP/1.1", headers: str = "") -> bytes:
    return f"GET /api/ping {version}\r\nHost: test\r\n{headers}\r\n".encode()


class TestServerFraming:
    @pytest.mark.parametrize("line", [
        b"GARBAGE\r\n",
        b"GET /api/ping\r\n",
        b"GET /api/ping HTTP/2.0\r\n",
        b"GET /api/ping SPDY/3\r\n",
    ])
    def test_a_malformed_request_line_is_400_and_closes(self, server, line):
        sock, reader = _connect(server)
        with sock:
            sock.sendall(line)
            status, headers, body = _read_response(reader)
            assert status == 400 and headers["connection"] == "close"
            assert json.loads(body) == {"error": "400 Bad Request"}
            assert _closed(reader)

    def test_a_request_line_over_64_kib_is_414(self, server):
        sock, reader = _connect(server)
        with sock:
            sock.sendall(b"GET /" + b"a" * 65536)  # what the server reads, no more
            status, headers, _ = _read_response(reader)
            assert status == 414 and headers["connection"] == "close"

    def test_a_header_line_over_64_kib_is_431(self, server):
        sock, reader = _connect(server)
        with sock:
            # exactly what the server reads before it refuses, so no unread
            # byte turns its close into a reset
            sock.sendall(b"GET /api/ping HTTP/1.1\r\nX-Long: " + b"a" * (65537 - 8))
            status, headers, _ = _read_response(reader)
            assert status == 431 and headers["connection"] == "close"

    def test_more_than_100_headers_is_431(self, server):
        sock, reader = _connect(server)
        fields = "".join(f"X-Field-{number}: {number}\r\n" for number in range(100))
        with sock:  # Host and 100 more
            sock.sendall(_ping(headers=fields))
            assert _read_response(reader)[0] == 431
        sock, reader = _connect(server)
        with sock:  # Host and 99 more
            sock.sendall(_ping(headers=fields.split("X-Field-99")[0]))
            assert _read_response(reader)[0] == 200

    @pytest.mark.parametrize("coding", ["chunked", "gzip, chunked", "identity"])
    def test_any_transfer_encoding_is_501(self, server, coding):
        sock, reader = _connect(server)
        with sock:
            sock.sendall(f"POST /api/tasks HTTP/1.1\r\nTransfer-Encoding: {coding}"
                         "\r\n\r\n".encode())
            status, headers, _ = _read_response(reader)
            assert status == 501 and headers["connection"] == "close"
            assert _closed(reader)

    @pytest.mark.parametrize("length", ["-1", "ten", "1, 2"])
    def test_a_malformed_content_length_is_400(self, server, length):
        sock, reader = _connect(server)
        with sock:
            sock.sendall(_ping(headers=f"Content-Length: {length}\r\n"))
            assert _read_response(reader)[0] == 400
            assert _closed(reader)

    @pytest.mark.parametrize("request_bytes", [
        _ping(headers="Connection: close\r\n"),
        _ping(headers="Connection: Keep-Alive, Close\r\n"),
        _ping("HTTP/1.0"),
    ], ids=["close", "close-in-a-list", "http-1.0"])
    def test_connection_close_and_http_1_0_close_after_the_response(self, server,
                                                                   request_bytes):
        sock, reader = _connect(server)
        with sock:
            sock.sendall(request_bytes)
            status, headers, body = _read_response(reader)
            assert status == 200 and json.loads(body)["status"] == "ok"
            assert headers["connection"] == "close"
            assert _closed(reader)

    def test_expect_100_continue_is_answered_before_the_body(self, server):
        body = b'{"experiment": "x"}'
        sock, reader = _connect(server)
        with sock:
            sock.sendall(f"POST /api/tasks HTTP/1.1\r\nContent-Length: {len(body)}\r\n"
                         "Expect: 100-continue\r\n\r\n".encode())
            assert reader.readline() == b"HTTP/1.1 100 Continue\r\n"
            assert reader.readline() == b"\r\n"
            sock.sendall(body)
            status, headers, _ = _read_response(reader)
            assert status == 403  # the body was read: an unknown key is refused
            assert "connection" not in headers

    def test_requests_written_back_to_back_are_answered_in_order(self, server):
        body = b'{"results": []}'
        sock, reader = _connect(server)
        with sock:
            sock.sendall(_ping()
                         + b"GET /api/nowhere HTTP/1.1\r\n\r\n"
                         + f"POST /api/results/batch HTTP/1.1\r\nContent-Length: {len(body)}"
                           "\r\n\r\n".encode() + body
                         + _ping())
            statuses = [_read_response(reader)[0] for _ in range(4)]
        assert statuses == [200, 404, 403, 200]

    def test_responses_carry_length_type_date_and_the_apps_retry_after(self):
        service = PlatformService()
        inner = create_wsgi_app(service)

        def busy(environ, start_response):
            if environ["PATH_INFO"] == "/api/busy":
                start_response("503 Service Unavailable",
                               [("Content-Type", "application/json"), ("Retry-After", "7")])
                return [b'{"error": ', b'"busy"}']
            return inner(environ, start_response)

        with PlatformServer(service, application=busy) as running:
            sock, reader = _connect(running)
            with sock:
                sock.sendall(_ping() + b"GET /api/busy HTTP/1.1\r\n\r\n")
                ping = _read_response(reader)
                busy_response = _read_response(reader)
        for status, headers, body in (ping, busy_response):
            assert int(headers["content-length"]) == len(body)
            assert headers["content-type"] == "application/json"
            assert abs(parsedate_to_datetime(headers["date"]).timestamp() - time.time()) < 60
        assert busy_response[0] == 503 and busy_response[1]["retry-after"] == "7"
        assert json.loads(busy_response[2]) == {"error": "busy"}

    def test_a_failing_application_is_500_and_closes(self):
        def failing(environ, start_response):
            raise RuntimeError("boom")

        with PlatformServer(PlatformService(), application=failing) as running:
            sock, reader = _connect(running)
            with sock:
                sock.sendall(_ping())
                status, headers, _ = _read_response(reader)
                assert status == 500 and headers["connection"] == "close"
                assert _closed(reader)

    def test_a_header_named_with_underscores_is_dropped(self):
        service = PlatformService()
        seen = []

        def recording(environ, start_response):
            seen.append(environ.get("HTTP_X_SQALPEL_KEY"))
            return create_wsgi_app(service)(environ, start_response)

        with PlatformServer(service, application=recording) as running:
            sock, reader = _connect(running)
            with sock:
                sock.sendall(_ping(headers="X_Sqalpel_Key: spoofed\r\n")
                             + _ping(headers="X-Sqalpel-Key: sent\r\n"))
                assert [_read_response(reader)[0] for _ in range(2)] == [200, 200]
        assert seen == [None, "sent"]

    def test_one_access_record_per_request(self):
        logger = JsonLogger()
        service = PlatformService()
        with PlatformServer(service, logger=logger) as running:
            client = HTTPClient(running.url, "no-key")
            client.ping()
            client.ping()
            client._close()
        events = [record["event"] for record in parse_log_lines(logger.stream.getvalue())]
        assert events == ["http.request", "http.request"]


class _ScriptedServer:
    """Answers each request it reads with the next scripted response, on
    one thread; ``(raw response, close the connection after it)``."""

    def __init__(self, script: list[tuple[bytes, bool]]):
        self.script = list(script)
        self.connections = 0
        self.requests: list[bytes] = []
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.url = f"http://127.0.0.1:{self._listener.getsockname()[1]}"
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        while self.script:
            connection, _ = self._listener.accept()
            self.connections += 1
            with connection, connection.makefile("rb") as reader:
                while self.script:
                    lines = []
                    while (line := reader.readline()) not in (b"\r\n", b""):
                        lines.append(line)
                    if not line:  # the client closed the connection
                        break
                    length = next((int(field.split(b":")[1]) for field in lines
                                   if field.lower().startswith(b"content-length:")), 0)
                    self.requests.append(lines[0].rstrip() + reader.read(length))
                    response, close = self.script.pop(0)
                    connection.sendall(response)
                    if close:
                        break

    def close(self) -> None:
        self._thread.join(timeout=5)
        self._listener.close()
        assert not self._thread.is_alive(), "the script was not played out"


def _ok(extra: str = "") -> bytes:
    body = b'{"status": "ok"}'
    return (f"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n{extra}"
            f"Content-Length: {len(body)}\r\n\r\n").encode() + body


class TestClientFraming:
    def test_a_connection_close_response_makes_the_next_request_open_a_socket(self):
        scripted = _ScriptedServer([(_ok("Connection: close\r\n"), True), (_ok(), False)])
        metrics = MetricsRegistry()
        client = HTTPClient(scripted.url, "key", metrics=metrics)
        assert client.ping() == {"status": "ok"}
        assert not hasattr(client._local, "sock")  # dropped, not kept
        assert client.ping() == {"status": "ok"}
        client._close()
        scripted.close()
        assert scripted.connections == 2 and len(scripted.requests) == 2
        assert metrics.counter("client.retries").value == 0

    def test_a_kept_socket_the_server_closed_is_resent_once(self):
        # the first response says nothing of closing, and the server closes
        scripted = _ScriptedServer([(_ok(), True), (_ok(), False)])
        metrics = MetricsRegistry()
        client = HTTPClient(scripted.url, "key", metrics=metrics, retry=None)
        client.ping()
        kept = client._local.sock
        time.sleep(0.05)  # the server's close arrives
        assert client.ping() == {"status": "ok"}  # retry=None: no retry did this
        assert client._local.sock is not kept
        client._close()
        scripted.close()
        assert scripted.connections == 2 and len(scripted.requests) == 2
        assert metrics.counter("client.retries").value == 0

    def test_retry_after_is_honoured(self):
        busy = (b'HTTP/1.1 503 Service Unavailable\r\nRetry-After: 0.2\r\n'
                b'Content-Length: 2\r\n\r\n{}')
        scripted = _ScriptedServer([(busy, False), (_ok(), False)])
        logger = JsonLogger()
        client = HTTPClient(scripted.url, "key", logger=logger,
                            retry=RetryPolicy(attempts=2, base_delay=0.001, max_delay=1.0))
        started = time.perf_counter()
        assert client.ping() == {"status": "ok"}
        assert time.perf_counter() - started >= 0.2
        retries = [record for record in parse_log_lines(logger.stream.getvalue())
                   if record["event"] == "client.retry"]
        assert [(record["status"], record["delay"]) for record in retries] == [(503, 0.2)]
        client._close()
        scripted.close()
        assert scripted.connections == 1  # a 503 keeps the connection

    def test_a_request_is_one_framed_message(self):
        scripted = _ScriptedServer([(_ok(), False)])
        client = HTTPClient(scripted.url, "key")
        assert client._request("POST", "/api/x", {"a": 1}) == {"status": "ok"}
        client._close()
        scripted.close()
        assert scripted.requests == [b'POST /api/x HTTP/1.1{"a": 1}']
