"""In-process stub of an embeddings endpoint for tests and offline runs.

Returns deterministic unit vectors derived from a hash of each input text,
so reruns and cache comparisons are exact. A request whose "encoding_format"
is "base64" gets each vector as the base64 of its little-endian float32
bytes; any other request gets float lists. A drift schedule can force the
response dimension to change after N requests, for exercising client checks.
It speaks HTTP/1.1, so a client may keep its connections open between
requests; an error reply closes its connection.
"""

from __future__ import annotations

import base64
import hashlib
import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np


def _unit_vector(text: str, dim: int) -> np.ndarray:
    """The float32 vector the stub serves for `text`, in either encoding."""
    digest = hashlib.sha256(text.encode()).digest()
    rng = np.random.default_rng(int.from_bytes(digest[:8], "little"))
    v = rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    return v.astype("<f4")


def deterministic_embedding(text: str, dim: int) -> list[float]:
    return _unit_vector(text, dim).tolist()


def _wire(v: np.ndarray, encoding_format) -> str | list[float]:
    if encoding_format == "base64":
        return base64.b64encode(v.tobytes()).decode("ascii")
    return v.tolist()


class StubEmbeddingServer:
    """Context manager: serves POST /embeddings on an ephemeral port.

    `request_count` counts the requests served, `connection_count` the
    connections accepted; `last_auth_header` and `last_encoding_format` hold
    the Authorization header and "encoding_format" field of the latest one.
    """

    def __init__(self, dim: int = 8, drift_dim: int | None = None, drift_after: int = 1,
                 fail_first: int = 0):
        self.dim = dim
        self.drift_dim = drift_dim
        self.drift_after = drift_after
        self.fail_first = fail_first
        self.request_count = 0
        self.connection_count = 0
        self.last_auth_header: str | None = None
        self.last_encoding_format: str | None = None
        self._lock = threading.Lock()
        self._connections: set[socket.socket] = set()
        self._httpd: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None

    @property
    def endpoint(self) -> str:
        assert self._httpd is not None
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}"

    def __enter__(self) -> "StubEmbeddingServer":
        outer = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            # Without this, a keep-alive reply waits on the client's delayed ACK.
            disable_nagle_algorithm = True

            def setup(self):
                super().setup()
                with outer._lock:
                    outer.connection_count += 1
                    outer._connections.add(self.connection)

            def finish(self):
                with outer._lock:
                    outer._connections.discard(self.connection)
                super().finish()

            def log_message(self, *args):  # keep test output quiet
                pass

            def do_POST(self):
                if not self.path.endswith("/embeddings"):
                    self.send_error(404)
                    return
                length = int(self.headers.get("Content-Length", "0"))
                body = json.loads(self.rfile.read(length))
                fmt = body.get("encoding_format")
                with outer._lock:
                    outer.request_count += 1
                    count = outer.request_count
                    outer.last_auth_header = self.headers.get("Authorization")
                    outer.last_encoding_format = fmt
                if count <= outer.fail_first:
                    self.send_error(503, "transient failure")
                    return
                dim = outer.dim
                if outer.drift_dim is not None and count > outer.drift_after:
                    dim = outer.drift_dim
                data = [
                    {"index": i, "embedding": _wire(_unit_vector(t, dim), fmt)}
                    for i, t in enumerate(body.get("input", []))
                ]
                payload = json.dumps({"data": data}).encode()
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

        self._httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        # shutdown() waits for serve_forever's next poll: 0.05 s, not the default 0.5 s.
        self._thread = threading.Thread(target=self._httpd.serve_forever, args=(0.05,),
                                        daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc):
        if self._httpd is not None:
            self._httpd.shutdown()
            # An idle keep-alive handler waits in readline until its socket closes.
            with self._lock:
                for conn in self._connections:
                    try:
                        conn.shutdown(socket.SHUT_RDWR)
                    except OSError:  # the client closed it first
                        pass
            self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
        return False
