import base64
import contextlib
import json
import logging
import socket
import struct
import sys
import threading
import time
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gclbench import embeddings
from gclbench.embeddings import (
    EmbeddingCache,
    EmbeddingProviderError,
    FileSource,
    HttpSource,
    cache_key,
    get_or_embed,
)
from gclbench.graph import FEATURES_MAGIC, FEATURES_VERSION
from gclbench.stub_server import StubEmbeddingServer, deterministic_embedding

from oracles import cache_append_loop, cache_load_loop, provider_reply_strict


def _write_matrix(path, rows):
    rows = np.asarray(rows, dtype="<f4")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sIQQ", FEATURES_MAGIC, FEATURES_VERSION, *rows.shape))
        fh.write(rows.tobytes())


@pytest.fixture()
def file_source(tmp_path):
    mat = np.arange(12, dtype=np.float32).reshape(4, 3)
    _write_matrix(tmp_path / "emb.bin", mat)
    (tmp_path / "emb.index.json").write_text(json.dumps([10, 11, 12, 13]))
    return FileSource(str(tmp_path / "emb.bin"), str(tmp_path / "emb.index.json")), mat


# ----------------------------------------------------------------- file source


def test_file_source_known_id_exact_row(file_source):
    src, mat = file_source
    out = src.embed_nodes([12, 10])
    assert np.array_equal(out, mat[[2, 0]])


def test_file_source_missing_id(file_source):
    src, _ = file_source
    with pytest.raises(EmbeddingProviderError, match="missing"):
        src.embed_nodes([99])


@pytest.mark.parametrize("index", [
    [10, 10, 12, 13],  # a repeated id used to map to its last row, losing row 0
    {"10": 0, "11": 1, "12": 2, "13": 3},
    [10, 11, "12", 13],
    [10, 11, 12.0, 13],
    [10, 11, True, 13],
    "not json",
    "[" * 100_000 + "]" * 100_000,  # used to end in a RecursionError traceback
], ids=["repeated", "dict", "string-id", "float-id", "bool-id", "not-json", "nested-too-deep"])
def test_file_source_index_must_be_distinct_integers(tmp_path, index):
    _write_matrix(tmp_path / "emb.bin", np.zeros((4, 3)))
    path = tmp_path / "emb.index.json"
    path.write_text(index if isinstance(index, str) else json.dumps(index))
    with pytest.raises(EmbeddingProviderError, match="emb.index.json"):
        FileSource(str(tmp_path / "emb.bin"), str(path))


# ----------------------------------------------------------------- http source


def test_http_batch_order_and_shape():
    with StubEmbeddingServer(dim=8) as srv:
        src = HttpSource(srv.endpoint, "stub", batch_size=2, max_in_flight=1)
        out = src.embed(["alpha", "beta"])
        assert srv.last_encoding_format == "base64"
        assert out.shape == (2, 8)
        assert np.array_equal(out[0], np.array(deterministic_embedding("alpha", 8), np.float32))
        assert np.array_equal(out[1], np.array(deterministic_embedding("beta", 8), np.float32))


@pytest.mark.parametrize("max_in_flight", [0, -3])
def test_http_concurrency_below_one_rejected(testkit_plan, tmp_path, max_in_flight):
    # The source itself refuses a width that would run one batch at a time,
    # and a library run fails by the config's provider rule before any request.
    from gclbench.config import ConfigError
    from gclbench.trainers import run_method

    with StubEmbeddingServer(dim=8) as srv:
        with pytest.raises(ValueError, match="max_in_flight must be >= 1"):
            HttpSource(srv.endpoint, "stub", max_in_flight=max_in_flight)
        provider = {"kind": "http", "endpoint": srv.endpoint, "model": "stub",
                    "max_in_flight": max_in_flight}
        cfg = {"epochs": 1, "cache_path": str(tmp_path / "c.bin"), "provider": provider}
        with pytest.raises(ConfigError, match="hyperparameters/provider/max_in_flight"):
            run_method("simplecil", testkit_plan, cfg, mode="local", seed=0)
        assert srv.request_count == 0
    assert not (tmp_path / "c.bin").exists()


def test_http_provider_defaults_are_the_source_fields(testkit_plan, tmp_path):
    from gclbench.trainers import _RUNNERS

    def source(**given):
        provider = {"kind": "http", "endpoint": "http://127.0.0.1:1", **given}
        cfg = {"provider": provider, "cache_path": str(tmp_path / "c.bin")}
        return _RUNNERS["simplecil"](testkit_plan, cfg, 0, "synth").source

    src = source()
    assert isinstance(src, HttpSource)
    assert (src.batch_size, src.max_in_flight) == (32, 2)
    src = source(batch_size=3, max_in_flight=5)
    assert (src.batch_size, src.max_in_flight) == (3, 5)


def _wire(vec, form):
    """A vector as a provider sends it: base64 of little-endian float32 bytes, or a list."""
    vec = np.asarray(vec, dtype="<f4")
    return base64.b64encode(vec.tobytes()).decode("ascii") if form == "base64" else vec.tolist()


def _reply(*items, form):
    return {"data": [{"index": i, "embedding": _wire(v, form)} for i, v in items]}


def test_http_both_wire_forms_decode_to_the_same_array():
    vecs = np.random.default_rng(0).standard_normal((3, 5)).astype(np.float32)
    items = [(2, vecs[2]), (0, vecs[0]), (1, vecs[1])]
    fromb64 = HttpSource._parse(_reply(*items, form="base64"), 3)
    fromlist = HttpSource._parse(_reply(*items, form="list"), 3)
    assert fromb64.dtype == fromlist.dtype == np.float32
    assert np.array_equal(fromb64, vecs) and np.array_equal(fromlist, vecs)


@pytest.mark.parametrize("form", ["base64", "list"])
@pytest.mark.parametrize("items, expected, match", [
    ([(0, [0.0, 1.0])], 2, "malformed embedding response"),
    ([(0, [0.0, 1.0]), (0, [1.0, 0.0])], 2, "embedding index 0 repeated"),
    ([(2, [0.0, 1.0])], 1, r"embedding index 2 outside \[0, 1\)"),
    ([(0, [0.0, float("nan")])], 1, "embedding 0 is not a finite vector"),
    ([(0, [0.0, 1.0]), (1, [0.0, 1.0, 2.0])], 2, "dimension drift within one response"),
], ids=["count", "repeated", "out-of-range", "nan", "drift"])
def test_http_malformed_reply_in_either_form_is_a_provider_error(form, items, expected, match):
    with pytest.raises(EmbeddingProviderError, match=match):
        HttpSource._parse(_reply(*items, form=form), expected)


def test_stub_answers_float_lists_unless_asked_for_base64():
    with StubEmbeddingServer(dim=4) as srv:
        for fmt in (None, "float", "base64"):
            body = {"model": "stub", "input": ["alpha"],
                    **({} if fmt is None else {"encoding_format": fmt})}
            req = urllib.request.Request(srv.endpoint + "/embeddings", json.dumps(body).encode(),
                                         {"Content-Type": "application/json"})
            with urllib.request.urlopen(req, timeout=10) as resp:
                reply = json.load(resp)
            assert srv.last_encoding_format == fmt
            want = _wire(deterministic_embedding("alpha", 4), fmt)
            assert reply["data"] == [{"index": 0, "embedding": want}]


def test_stub_enter_and_exit_take_well_under_a_poll_interval_of_half_a_second():
    # Exit waits for serve_forever's next poll; at the 0.5-s default, ten
    # cycles took 5 s.
    start = time.perf_counter()
    for _ in range(10):
        with StubEmbeddingServer(dim=4) as srv:
            assert srv.request_count == 0
    assert time.perf_counter() - start < 2.5


def test_http_multi_batch_concurrent_order():
    with StubEmbeddingServer(dim=4) as srv:
        src = HttpSource(srv.endpoint, "stub", batch_size=2, max_in_flight=3)
        texts = [f"t{i}" for i in range(9)]
        out = src.embed(texts)
        assert out.shape == (9, 4)
        for i, t in enumerate(texts):
            assert np.array_equal(out[i], np.array(deterministic_embedding(t, 4), np.float32))
        assert srv.request_count == 5  # ceil(9 / 2)


def test_http_dimension_drift_rejected():
    with StubEmbeddingServer(dim=8, drift_dim=16, drift_after=1) as srv:
        src = HttpSource(srv.endpoint, "stub", batch_size=1, max_in_flight=1)
        with pytest.raises(EmbeddingProviderError, match="dimension drift"):
            src.embed(["one", "two"])


def test_http_retries_then_succeeds(monkeypatch):
    monkeypatch.setattr(embeddings, "HTTP_BACKOFF", 0.01)
    with StubEmbeddingServer(dim=4, fail_first=2) as srv:
        src = HttpSource(srv.endpoint, "stub", batch_size=4, max_in_flight=1)
        out = src.embed(["x"])
        assert out.shape == (1, 4)
        assert srv.request_count == 3
        # Each 503 closes its connection; the retry that succeeds opens the
        # connection the next batch reuses.
        assert srv.connection_count == 3
        src.embed(["y"])
        assert (srv.request_count, srv.connection_count) == (4, 3)


def test_http_failed_attempts_log_one_warning_each(monkeypatch, caplog):
    monkeypatch.setattr(embeddings, "HTTP_BACKOFF", 0.01)
    for name in ("http_proxy", "all_proxy"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)
    with caplog.at_level(logging.WARNING, logger=embeddings.log.name):
        with StubEmbeddingServer(dim=4, fail_first=2) as srv:
            src = HttpSource(srv.endpoint, "stub", max_in_flight=1)
            src.embed(["x"])
            assert [(r.levelno, r.getMessage()) for r in caplog.records] == [
                (logging.WARNING, f"embedding request attempt {i}/3 failed: "
                                  "embedding endpoint returned status 503") for i in (1, 2)]
            caplog.clear()
            src.embed(["y"])  # a clean fetch
            assert caplog.records == []
        with socket.socket() as sock:  # a local port that nothing listens on
            sock.bind(("127.0.0.1", 0))
            closed = f"http://127.0.0.1:{sock.getsockname()[1]}"
        with pytest.raises(EmbeddingProviderError, match="request failed"):
            HttpSource(closed, "stub").embed(["z"])
        assert [r.getMessage().split(": ")[0] for r in caplog.records] == [
            f"embedding request attempt {i}/3 failed" for i in (1, 2, 3)]
        assert all("embedding request failed: " in r.getMessage() for r in caplog.records)


def test_http_batches_reuse_pooled_connections():
    with StubEmbeddingServer(dim=4) as srv:
        src = HttpSource(srv.endpoint, "stub", batch_size=1, max_in_flight=1)
        texts = [f"t{i}" for i in range(5)]
        before = set(threading.enumerate())
        out = src.embed(texts)
        assert (srv.request_count, srv.connection_count) == (5, 1)
        # One worker posts the batches in request order, and it is joined
        # before embed returns: the only new thread is the connection's handler.
        assert np.array_equal(
            out, np.array([deterministic_embedding(t, 4) for t in texts], np.float32))
        assert len(set(threading.enumerate()) - before) == 1
    # Three batch threads share the session; switch between them often.
    texts = [f"t{i}" for i in range(12)]
    want = np.array([deterministic_embedding(t, 4) for t in texts], np.float32)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with StubEmbeddingServer(dim=4) as srv:
            src = HttpSource(srv.endpoint, "stub", batch_size=1, max_in_flight=3)
            for _ in range(2):
                assert np.array_equal(src.embed(texts), want)
            assert srv.request_count == 24
            assert 1 <= srv.connection_count <= 3
    finally:
        sys.setswitchinterval(interval)


def test_http_proxy_environment_honoured(monkeypatch):
    monkeypatch.setattr(embeddings, "HTTP_BACKOFF", 0.01)
    for name in ("http_proxy", "https_proxy", "all_proxy", "no_proxy"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)
    with socket.socket() as sock:  # a local port that nothing listens on
        sock.bind(("127.0.0.1", 0))
        closed_port = sock.getsockname()[1]
    monkeypatch.setenv("HTTP_PROXY", f"http://127.0.0.1:{closed_port}")
    with StubEmbeddingServer(dim=4) as srv:
        with pytest.raises(EmbeddingProviderError, match="request failed"):
            HttpSource(srv.endpoint, "stub", batch_size=4).embed(["a"])
        assert srv.request_count == 0
        monkeypatch.setenv("NO_PROXY", "127.0.0.1")
        out = HttpSource(srv.endpoint, "stub", batch_size=4).embed(["a"])
        assert out.shape == (1, 4)
        assert srv.request_count == 1


def _clear_proxy_env(monkeypatch):
    for name in ("http_proxy", "https_proxy", "all_proxy", "no_proxy"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)


@contextlib.contextmanager
def _canned_server(status, body, seen):
    """A local server answering every POST or CONNECT with `status` and `body`.

    It appends each request's line and headers to `seen`, and closes each
    connection after its reply.
    """
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def log_message(self, *args):
            pass

        def do_POST(self):
            seen.append((self.requestline, dict(self.headers)))
            self.rfile.read(int(self.headers.get("Content-Length", "0")))
            self.send_response(status)
            self.send_header("Content-Length", str(len(body)))
            self.send_header("Connection", "close")
            self.end_headers()
            self.wfile.write(body)

        do_CONNECT = do_POST

    httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=httpd.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{httpd.server_address[1]}"
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()


def test_http_proxy_gets_the_absolute_form_request(monkeypatch):
    # The stub serves any path ending in /embeddings, the absolute-form target too.
    _clear_proxy_env(monkeypatch)
    with StubEmbeddingServer(dim=4) as target, StubEmbeddingServer(dim=4) as proxy:
        monkeypatch.setenv("HTTP_PROXY", proxy.endpoint)
        out = HttpSource(target.endpoint, "stub").embed(["a"])
        assert np.array_equal(out, np.array([deterministic_embedding("a", 4)], np.float32))
        assert (proxy.request_count, target.request_count) == (1, 0)


def test_http_proxy_credentials_become_proxy_authorization(monkeypatch):
    # An http endpoint is posted to the proxy in absolute form; an https one
    # asks the proxy for a CONNECT tunnel, which this proxy refuses.
    monkeypatch.setattr(embeddings, "HTTP_BACKOFF", 0.01)
    _clear_proxy_env(monkeypatch)
    monkeypatch.delenv("EMBEDDINGS_API_KEY", raising=False)
    monkeypatch.setenv("NETRC", "/nonexistent/netrc")
    auth = "Basic " + base64.b64encode(b"us@er:p:ss").decode()
    reply = json.dumps(_reply((0, deterministic_embedding("a", 4)), form="base64")).encode()
    seen = []
    with _canned_server(200, reply, seen) as proxy:
        monkeypatch.setenv("HTTP_PROXY", proxy.replace("//", "//us%40er:p%3Ass@"))
        out = HttpSource("http://127.0.0.1:1", "stub").embed(["a"])
    assert np.array_equal(out, np.array([deterministic_embedding("a", 4)], np.float32))
    ((line, headers),) = seen
    assert line == "POST http://127.0.0.1:1/embeddings HTTP/1.1"
    assert headers["Proxy-Authorization"] == auth and "Authorization" not in headers
    seen.clear()
    with _canned_server(407, b"", seen) as proxy:
        monkeypatch.setenv("HTTPS_PROXY", proxy.replace("//", "//us%40er:p%3Ass@"))
        with pytest.raises(EmbeddingProviderError, match="request failed"):
            HttpSource("https://127.0.0.1:1", "stub").embed(["a"])
    assert len(seen) == embeddings.HTTP_RETRIES
    for line, headers in seen:
        assert line.startswith("CONNECT 127.0.0.1:1 HTTP/1.")
        assert headers["Proxy-Authorization"] == auth


def test_http_netrc_login_overrides_the_token(monkeypatch, tmp_path):
    _clear_proxy_env(monkeypatch)
    monkeypatch.setenv("EMBEDDINGS_API_KEY", "sekret")
    path = tmp_path / "netrc"
    path.write_text("machine 127.0.0.1 login alice password s3cret\n")
    monkeypatch.setenv("NETRC", str(path))
    with StubEmbeddingServer(dim=4) as srv:
        HttpSource(srv.endpoint, "stub").embed(["a"])
        assert srv.last_auth_header == "Basic " + base64.b64encode(b"alice:s3cret").decode()
        path.unlink()
        HttpSource(srv.endpoint, "stub").embed(["a"])
        assert srv.last_auth_header == "Bearer sekret"


def test_http_idle_connection_the_server_closed_is_replaced(monkeypatch, caplog):
    _clear_proxy_env(monkeypatch)
    with caplog.at_level(logging.WARNING, logger=embeddings.log.name):
        with StubEmbeddingServer(dim=4) as srv:
            src = HttpSource(srv.endpoint, "stub", max_in_flight=1)
            src.embed(["a"])
            with srv._lock:
                for conn in srv._connections:
                    conn.shutdown(socket.SHUT_RDWR)
            out = src.embed(["b"])
            assert np.array_equal(out, np.array([deterministic_embedding("b", 4)], np.float32))
            assert (srv.request_count, srv.connection_count) == (2, 2)
    assert caplog.records == []


@pytest.mark.parametrize("body", [b"not json", b"[" * 100_000 + b"]" * 100_000],
                         ids=["not-json", "nested-too-deep"])  # the second was a RecursionError
def test_http_undecodable_2xx_body_is_a_failed_attempt(monkeypatch, caplog, body):
    monkeypatch.setattr(embeddings, "HTTP_BACKOFF", 0.01)
    _clear_proxy_env(monkeypatch)
    seen = []
    with caplog.at_level(logging.WARNING, logger=embeddings.log.name):
        with _canned_server(200, body, seen) as endpoint:
            with pytest.raises(EmbeddingProviderError, match="^embedding request failed: "):
                HttpSource(endpoint, "stub").embed(["a"])
    assert len(seen) == embeddings.HTTP_RETRIES
    assert [r.getMessage().split(": ")[0] for r in caplog.records] == [
        f"embedding request attempt {i}/3 failed" for i in (1, 2, 3)]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(form=st.sampled_from(["base64", "list"]), count=st.integers(1, 3),
       dim=st.integers(1, 5), data=st.data())
def test_http_reply_with_one_byte_changed_matches_the_strict_oracle(form, count, dim, data):
    # A stub reply body with one byte replaced, through the code a 2xx reply
    # runs: the oracle's rows bit for bit, or an EmbeddingProviderError.
    texts = [f"text {i}" for i in range(count)]
    body = bytearray(json.dumps(_reply(*((i, deterministic_embedding(t, dim))
                                         for i, t in enumerate(texts)), form=form)).encode())
    at = data.draw(st.integers(0, len(body) - 1), label="at")
    # Any byte, or one of those that keep more bodies valid JSON.
    byte = st.one_of(st.integers(0, 255), st.sampled_from(b'0159-+.eE "\\/=Aaz,'))
    body[at] = data.draw(byte.filter(lambda b: b != body[at]), label="byte")
    want = provider_reply_strict(bytes(body), count)
    try:
        got = HttpSource._reply(bytes(body), count)
    except EmbeddingProviderError:
        assert want is None
    else:
        assert want is not None
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


def _threads_left(before, timeout=10.0):
    """Threads started since `before` still alive after up to `timeout` s."""
    deadline = time.monotonic() + timeout
    while (left := set(threading.enumerate()) - before) and time.monotonic() < deadline:
        time.sleep(0.01)
    return left


def test_http_dropped_sources_release_their_connections():
    with StubEmbeddingServer(dim=4) as srv:
        before = set(threading.enumerate())
        for i in range(40):
            src = HttpSource(srv.endpoint, "stub", batch_size=1, max_in_flight=2)
            src.embed([f"a{i}", f"b{i}", f"c{i}"])
            del src  # its pool closes, so the stub's handler threads see EOF
        assert srv.request_count == 120
        assert not _threads_left(before)
        held = HttpSource(srv.endpoint, "stub", batch_size=1, max_in_flight=1)
        held.embed(["idle"])
        assert len(set(threading.enumerate()) - before) == 1  # its connection's handler
        t0 = time.monotonic()
    # An idle keep-alive connection does not hold up shutdown, and its
    # handler thread ends with the server while `held` still holds it open.
    assert time.monotonic() - t0 < 2.0
    assert not _threads_left(before)
    del held
    assert not _threads_left(before)


def test_http_fails_after_retries(monkeypatch):
    monkeypatch.setattr(embeddings, "HTTP_BACKOFF", 0.01)
    with StubEmbeddingServer(dim=4, fail_first=10) as srv:
        src = HttpSource(srv.endpoint, "stub", batch_size=4)
        with pytest.raises(EmbeddingProviderError, match="status"):
            src.embed(["x"])
        assert srv.request_count == embeddings.HTTP_RETRIES == 3


def test_http_bearer_token_from_env(monkeypatch):
    monkeypatch.setenv("EMBEDDINGS_API_KEY", "sekret")
    with StubEmbeddingServer(dim=4) as srv:
        src = HttpSource(srv.endpoint, "stub", batch_size=4)
        out = src.embed(["a"])
        assert out.shape == (1, 4)
        assert srv.last_auth_header == "Bearer sekret"
    monkeypatch.delenv("EMBEDDINGS_API_KEY")
    with StubEmbeddingServer(dim=4) as srv:
        src = HttpSource(srv.endpoint, "stub", batch_size=4)
        src.embed(["a"])
        assert srv.last_auth_header is None


# ----------------------------------------------------------------------- cache


def test_cache_round_trip(tmp_path):
    cache = EmbeddingCache(tmp_path / "c.bin")
    key = cache_key("src", "model", "prompt")
    vec = np.array([1.5, -2.25, 3.0], np.float32)
    cache.put_many([key], [vec])
    fresh = EmbeddingCache(tmp_path / "c.bin")
    assert np.array_equal(fresh.get(key), vec)
    assert fresh.get(cache_key("src", "model", "other")) is None


def test_cache_corruption_rebuilt(tmp_path, caplog):
    path = tmp_path / "c.bin"
    cache = EmbeddingCache(path)
    cache.put_many([cache_key("s", "m", "p")], [np.ones(4, np.float32)])
    whole = path.read_bytes()
    cache.put_many([cache_key("s", "m", "q")], [np.full(4, 2.0, np.float32)])
    data = path.read_bytes()
    path.write_bytes(data[:-3])  # truncate the second record's payload
    with caplog.at_level("WARNING"):
        rebuilt = EmbeddingCache(path)
    assert len(rebuilt) == 1
    assert np.array_equal(rebuilt.get(cache_key("s", "m", "p")), np.ones(4, np.float32))
    assert path.read_bytes() == whole  # the file holds only the complete record
    assert any("truncated" in r.message for r in caplog.records)


def _record_ends(vecs):
    ends, end = [], 0
    for v in vecs:
        end += 32 + 4 + 4 * len(v)
        ends.append(end)
    return ends


@settings(max_examples=80, deadline=None)
@given(dims=st.lists(st.integers(0, 5), min_size=1, max_size=6), data=st.data())
def test_cache_truncated_tail_keeps_complete_records(tmp_path_factory, dims, data):
    path = tmp_path_factory.mktemp("cache") / "c.bin"
    cache = EmbeddingCache(path)
    keys = [cache_key("s", "m", f"p{i}") for i in range(len(dims))]
    vecs = [np.arange(d, dtype=np.float32) + i for i, d in enumerate(dims)]
    for k, v in zip(keys, vecs):
        cache.put_many([k], [v])
    raw = path.read_bytes()
    cut = data.draw(st.integers(0, len(raw)), label="cut")
    path.write_bytes(raw[:cut])

    reloaded = EmbeddingCache(path)
    kept = [i for i, end in enumerate(_record_ends(vecs)) if end <= cut]
    assert len(reloaded) == len(kept)
    for i in range(len(dims)):
        got = reloaded.get(keys[i])
        assert (got is not None) == (i in kept)
        if got is not None:
            assert np.array_equal(got, vecs[i])
    assert path.stat().st_size == (_record_ends(vecs)[kept[-1]] if kept else 0)

    extra = cache_key("s", "m", "after")
    reloaded.put_many([extra], [np.array([7.0, -1.5], np.float32)])
    again = EmbeddingCache(path)
    assert np.array_equal(again.get(extra), np.array([7.0, -1.5], np.float32))
    assert len(again) == len(kept) + 1


def test_get_or_embed_cache_hits_skip_provider(tmp_path):
    with StubEmbeddingServer(dim=6) as srv:
        src = HttpSource(srv.endpoint, "stub", batch_size=8)
        cache = tmp_path / "c.bin"
        prompts = {1: "p one", 2: "p two"}
        out1 = get_or_embed(src, [1, 2], prompts.get, cache)
        n1 = srv.request_count
        out2 = get_or_embed(src, [1, 2], prompts.get, cache)
        assert srv.request_count == n1  # zero new provider requests
        assert np.array_equal(out1, out2)
        warm = HttpSource(srv.endpoint, "stub", batch_size=8)
        assert np.array_equal(get_or_embed(warm, [1, 2], prompts.get, cache), out1)
        assert warm._session is None  # nothing to fetch: no session, no environment read


def test_get_or_embed_cache_delete_identical_bytes(tmp_path):
    with StubEmbeddingServer(dim=6) as srv:
        src = HttpSource(srv.endpoint, "stub", batch_size=8)
        cache = tmp_path / "c.bin"
        prompts = {1: "alpha", 2: "beta", 3: "gamma"}
        cached = get_or_embed(src, [1, 2, 3], prompts.get, cache)
        cache.unlink()
        fresh = get_or_embed(src, [1, 2, 3], prompts.get, cache)
        assert cached.tobytes() == fresh.tobytes()


def test_get_or_embed_identical_prompts_share_one_call(tmp_path):
    with StubEmbeddingServer(dim=6) as srv:
        src = HttpSource(srv.endpoint, "stub", batch_size=8)
        out = get_or_embed(src, [1, 2], lambda n: "same text", tmp_path / "c.bin")
        assert srv.request_count == 1
        assert np.array_equal(out[0], out[1])
        # the provider saw exactly one input
        assert len(EmbeddingCache(tmp_path / "c.bin")) == 1


def test_get_or_embed_appends_each_miss_set_with_one_open(tmp_path, monkeypatch):
    # One open per miss set, and the bytes of one open per vector, in the
    # same order: a cold call, a call with new and cached nodes, a warm call.
    import builtins

    from gclbench import embeddings

    opens = []

    def counting_open(file, mode="r", *args, **kwargs):
        opens.append(mode)
        return builtins.open(file, mode, *args, **kwargs)

    monkeypatch.setattr(embeddings, "open", counting_open, raising=False)
    path, ref = tmp_path / "c.bin", tmp_path / "ref.bin"
    render = lambda n: f"node {n}"  # noqa: E731
    vec = lambda n: np.array(deterministic_embedding(render(n), 3), np.float32)  # noqa: E731
    with StubEmbeddingServer(dim=3) as srv:
        src = HttpSource(srv.endpoint, "stub", batch_size=8)
        cache = EmbeddingCache(path)
        for nodes, new in (([13, 10, 12], [13, 10, 12]), ([12, 11, 10, 11], [11]),
                           ([10, 11], [])):
            before = len(opens)
            out = get_or_embed(src, nodes, render, cache)
            assert np.array_equal(out, np.stack([vec(n) for n in nodes]))
            assert opens[before:] == (["ab"] if new else [])
            cache_append_loop(ref, [cache_key("http", "stub", render(n)) for n in new],
                              [vec(n) for n in new])
            assert path.read_bytes() == ref.read_bytes()
        assert srv.request_count == 2


@settings(max_examples=40, deadline=None)
@given(dims=st.lists(st.integers(0, 5), min_size=1, max_size=6))
def test_cache_put_many_bytes_equal_per_vector_appends(tmp_path_factory, dims):
    d = tmp_path_factory.mktemp("cache")
    keys = [cache_key("s", "m", f"p{i}") for i in range(len(dims))]
    vecs = [np.arange(n, dtype=np.float32) - i for i, n in enumerate(dims)]
    cache = EmbeddingCache(d / "c.bin")
    cache.put_many(keys, vecs)
    cache_append_loop(d / "ref.bin", keys, vecs)
    assert (d / "c.bin").read_bytes() == (d / "ref.bin").read_bytes()
    reloaded = EmbeddingCache(d / "c.bin")
    assert all(np.array_equal(reloaded.get(k), v) for k, v in zip(keys, vecs))


_KEYS = st.one_of(st.binary(min_size=32, max_size=32),
                  st.sampled_from([bytes(32), b"k" * 31 + b"\x00", b"k" * 32]))  # repeats


@settings(max_examples=300, deadline=None, derandomize=True)
@given(records=st.lists(st.tuples(_KEYS, st.integers(0, 5)), min_size=1, max_size=8),
       data=st.data())
def test_cache_load_matches_record_loop_oracle(tmp_path_factory, records, data):
    # About 1 key in 256 ends in a NUL byte, which an S32 field would drop.
    keys = [b"n" * 31 + b"\x00"] + [k for k, _ in records[1:]]
    vecs = [np.arange(d, dtype="<f4") * 0.5 - i for i, (_, d) in enumerate(records)]
    raw = bytearray(b"".join(k + struct.pack("<I", v.size) + v.tobytes()
                             for k, v in zip(keys, vecs)))
    if data.draw(st.booleans(), label="cut"):
        del raw[data.draw(st.integers(0, len(raw)), label="at"):]
    else:  # flip bits in one byte of one record's dimension field
        i = data.draw(st.integers(0, len(records) - 1), label="record")
        at = sum(36 + 4 * v.size for v in vecs[:i]) + 32 + data.draw(st.integers(0, 3), label="byte")
        raw[at] ^= data.draw(st.integers(1, 255), label="mask")
    path = tmp_path_factory.mktemp("cache") / "c.bin"
    path.write_bytes(raw)

    want, kept = cache_load_loop(bytes(raw))
    got = EmbeddingCache(path)._entries
    assert list(got) == list(want)
    assert [(v.dtype, v.tobytes()) for v in got.values()] == \
        [(v.dtype, v.tobytes()) for v in want.values()]
    assert path.stat().st_size == kept


def test_cache_key_golden_digests():
    # Digests of the released key scheme: a change here orphans every cache file.
    assert cache_key("http", "stub", "node 7: a paper on graphs").hex() == (
        "dc4d6c17a22d99f0f5854918e5887d2d57fb504863b223b9002aea59566f968e")
    assert cache_key("http", "stub", "Ünïcode — 节点 ✓").hex() == (
        "39574fb80e96635a60c5f53561d8e7b242ebfe193635b3753073f1d6637ac276")


def test_get_or_embed_no_node_ids(tmp_path):
    with StubEmbeddingServer(dim=6) as srv:
        src = HttpSource(srv.endpoint, "stub", batch_size=8)
        out = get_or_embed(src, [], str, tmp_path / "c.bin")
        assert out.shape == (0, 0) and out.dtype == np.float32
        assert src._session is None and srv.request_count == 0
        assert not (tmp_path / "c.bin").exists()


def test_cache_key_sensitivity():
    base = cache_key("s", "m", "p")
    assert cache_key("s2", "m", "p") != base
    assert cache_key("s", "m2", "p") != base
    assert cache_key("s", "m", "p2") != base
    assert len(base) == 32
