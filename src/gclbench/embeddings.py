"""Node-embedding providers: a precomputed matrix, or an HTTP service behind a cache.

The HTTP source speaks the common embeddings wire format: POST
{endpoint}/embeddings with {"model": str, "input": [str, ...], "encoding_format":
"base64"} and a bearer token from EMBEDDINGS_API_KEY; responses carry
{"data": [{"index", "embedding"}]}, each embedding the base64 of its
little-endian float32 bytes, or a float list from a provider that ignores the
encoding. Vectors are float32 end to end so cached and fresh results are
bit-identical.
"""

from __future__ import annotations

import base64
import hashlib
import http.client
import json
import logging
import netrc
import os
import select
import ssl
import struct
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from urllib.parse import unquote, urlsplit, urlunsplit
from urllib.request import getproxies, proxy_bypass

import numpy as np

from .graph import read_features_bin

log = logging.getLogger(__name__)

CACHE_KEY_BYTES = 32
# HttpSource: attempts per batch, first retry wait (doubling), request timeout (s)
HTTP_RETRIES = 3
HTTP_BACKOFF = 0.5
HTTP_TIMEOUT = 30.0


class EmbeddingProviderError(RuntimeError):
    pass


class _AttemptFailed(EmbeddingProviderError):
    """One attempt at a batch failed in a way a retry may mend: transport, status or body."""


@dataclass
class FileSource:
    """Precomputed embeddings: a features.bin matrix plus a node-id index.

    The index is a JSON list of distinct integer node ids, one per matrix row.
    """

    matrix_path: str
    index_path: str

    def __post_init__(self):
        try:
            index = json.loads(Path(self.index_path).read_text(encoding="utf-8"))
        except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
            raise EmbeddingProviderError(f"embedding index {self.index_path}: {exc}") from exc
        if (not isinstance(index, list)
                or not all(type(n) is int for n in index) or len(set(index)) != len(index)):
            raise EmbeddingProviderError(
                f"embedding index {self.index_path} must be a JSON list of distinct integers")
        self._row_of = {node: row for row, node in enumerate(index)}
        self._matrix = read_features_bin(Path(self.matrix_path), expected_rows=len(index))

    def embed_nodes(self, node_ids) -> np.ndarray:
        rows = []
        for n in node_ids:
            if int(n) not in self._row_of:
                raise EmbeddingProviderError(f"node {n} missing from embedding index")
            rows.append(self._row_of[int(n)])
        return self._matrix[rows]


def _basic(user: str, password: str) -> str:
    return "Basic " + base64.b64encode(f"{user}:{password}".encode()).decode("ascii")


class _Pool:
    """Keep-alive connections from `connect()`, at most `size` idle. One the server
    closed while idle reads as readable, so a zero-timeout check drops it before
    reuse, as urllib3 does; a reply that closes its connection is not kept."""

    def __init__(self, connect, target: str, headers: dict[str, str], size: int):
        self.connect, self.target, self.headers, self.size = connect, target, headers, size
        self._idle: list[http.client.HTTPConnection] = []
        self._lock = threading.Lock()

    def post(self, body: bytes) -> tuple[int, bytes]:
        with self._lock:  # the newest idle connection still open, else a new one
            while self._idle and select.select([self._idle[-1].sock], [], [], 0)[0]:
                self._idle.pop().close()
            conn = self._idle.pop() if self._idle else self.connect()
        try:
            conn.request("POST", self.target, body, self.headers)
            resp = conn.getresponse()
            data = resp.read()
        except (OSError, http.client.HTTPException) as exc:
            conn.close()
            raise _AttemptFailed(f"embedding request failed: {exc}") from exc
        with self._lock:
            if not resp.will_close and len(self._idle) < self.size:
                self._idle.append(conn)
                return resp.status, data
        conn.close()
        return resp.status, data

    def __del__(self):
        for conn in self._idle:
            conn.close()


@dataclass
class HttpSource:
    """Batched, retried client for an embeddings endpoint.

    A source builds one keep-alive pool of up to `max_in_flight` idle connections
    at its first fetch and reads the environment then, once: EMBEDDINGS_API_KEY,
    HTTP_PROXY, HTTPS_PROXY, ALL_PROXY, NO_PROXY, REQUESTS_CA_BUNDLE,
    CURL_CA_BUNDLE and a .netrc login ($NETRC or ~/.netrc). A source whose texts
    are all cached builds nothing. Its connections close when it is freed.
    """

    endpoint: str
    model: str
    batch_size: int = 32
    max_in_flight: int = 2
    _session: _Pool | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")

    def _open_session(self) -> _Pool:
        absolute = self.endpoint.rstrip("/") + "/embeddings"
        url = urlsplit(absolute)
        headers = {"Content-Type": "application/json"}
        try:  # a .netrc login overrides the token; a missing or broken file is none
            login = netrc.netrc(os.path.expanduser(os.environ.get("NETRC", "~/.netrc")))
            login = login.authenticators(url.hostname) if url.hostname else None
        except (OSError, netrc.NetrcParseError):
            login = None
        if login and any(login):
            headers["Authorization"] = _basic(login[0] or login[1] or "", login[2] or "")
        elif os.environ.get("EMBEDDINGS_API_KEY"):
            headers["Authorization"] = "Bearer " + os.environ["EMBEDDINGS_API_KEY"]
        cls, kw = http.client.HTTPConnection, {"timeout": HTTP_TIMEOUT}
        if url.scheme == "https":
            ca = os.environ.get("REQUESTS_CA_BUNDLE") or os.environ.get("CURL_CA_BUNDLE")
            cls, kw["context"] = http.client.HTTPSConnection, ssl.create_default_context(
                **{"capath" if ca and os.path.isdir(ca) else "cafile": ca})
        address, tunnel = (url.hostname, url.port), None
        target = urlunsplit(("", "", url.path, url.query, ""))
        proxies = {} if proxy_bypass(url.netloc) else getproxies()
        proxy = proxies.get(url.scheme) or proxies.get("all")
        if proxy:
            p = urlsplit(proxy if "://" in proxy else "http://" + proxy)
            if p.scheme != "http":
                raise EmbeddingProviderError(f"proxy {proxy!r}: only http:// proxies are supported")
            auth = {"Proxy-Authorization": _basic(unquote(p.username), unquote(p.password or ""))
                    } if p.username else {}
            address = (p.hostname, p.port or 80)
            if url.scheme == "https":  # a CONNECT tunnel through the proxy
                tunnel = (url.hostname, url.port, auth)
            else:  # the absolute-form target, to the proxy
                target, headers = absolute, {**headers, **auth}

        def connect():
            conn = cls(*address, **kw)
            if tunnel:
                conn.set_tunnel(*tunnel)
            return conn
        return _Pool(connect, target, headers, self.max_in_flight)

    def _post_batch(self, batch: list[str]) -> np.ndarray:
        body = json.dumps({"model": self.model, "input": batch,
                           "encoding_format": "base64"}).encode()
        last_err = None
        for attempt in range(1, HTTP_RETRIES + 1):
            try:
                status, data = self._session.post(body)
                if not 200 <= status < 300:
                    raise _AttemptFailed(f"embedding endpoint returned status {status}")
                return self._reply(data, len(batch))
            except _AttemptFailed as exc:
                last_err = exc
            log.warning("embedding request attempt %d/%d failed: %s", attempt, HTTP_RETRIES,
                        last_err)
            if attempt < HTTP_RETRIES:
                time.sleep(HTTP_BACKOFF * 2 ** (attempt - 1))
        raise last_err

    @classmethod
    def _reply(cls, data: bytes, expected: int) -> np.ndarray:
        """The vectors of a 2xx reply body; one that is not JSON fails its attempt."""
        try:
            payload = json.loads(data)
        except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
            raise _AttemptFailed(f"embedding request failed: {exc}") from exc
        return cls._parse(payload, expected)

    @staticmethod
    def _parse(payload: dict, expected: int) -> np.ndarray:
        data = payload.get("data") if isinstance(payload, dict) else None
        if not isinstance(data, list) or len(data) != expected:
            raise EmbeddingProviderError("malformed embedding response")
        rows: list[np.ndarray | None] = [None] * expected
        for item in data:
            try:
                idx = item["index"]
                if type(idx) is not int:
                    raise TypeError(f"index {idx!r} is not a JSON integer")
                vec = _decode(item["embedding"])
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise EmbeddingProviderError(f"malformed embedding item: {exc!r}") from exc
            if not 0 <= idx < expected:
                raise EmbeddingProviderError(f"embedding index {idx} outside [0, {expected})")
            if rows[idx] is not None:
                raise EmbeddingProviderError(f"embedding index {idx} repeated")
            if vec.ndim != 1 or not vec.size or not np.isfinite(vec).all():
                raise EmbeddingProviderError(f"embedding {idx} is not a finite vector")
            rows[idx] = vec
        dims = {r.shape[0] for r in rows}
        if len(dims) != 1:
            raise EmbeddingProviderError("dimension drift within one response")
        return np.stack(rows)

    def embed(self, texts: list[str]) -> np.ndarray:
        """Embed texts in request order; batches may run concurrently."""
        if not texts:
            return np.zeros((0, 0), dtype=np.float32)
        if self._session is None:  # before the batch threads start, so they share one
            self._session = self._open_session()
        batches = [texts[i:i + self.batch_size] for i in range(0, len(texts), self.batch_size)]
        with ThreadPoolExecutor(max_workers=min(self.max_in_flight, len(batches))) as pool:
            parts = list(pool.map(self._post_batch, batches))
        dims = {p.shape[1] for p in parts}
        if len(dims) != 1:
            raise EmbeddingProviderError(f"dimension drift across batches: {sorted(dims)}")
        return np.concatenate(parts, axis=0)


def _decode(embedding) -> np.ndarray:
    """One wire embedding as float32: base64 of little-endian float32 bytes, or a number list.

    Invalid base64, a byte count that is not a multiple of 4 and a list entry that is not
    a JSON number (a string, a bool, a list) raise ValueError.
    """
    if isinstance(embedding, str):
        return np.frombuffer(base64.b64decode(embedding, validate=True), dtype="<f4")
    if isinstance(embedding, list) and not all(type(x) in (int, float) for x in embedding):
        raise ValueError("a list embedding takes JSON numbers only")
    return np.asarray(embedding, dtype=np.float32)


# ---------------------------------------------------------------------------
# Persistent cache: repeated records [32-byte key][u32 dim][dim * f32 LE]
# ---------------------------------------------------------------------------


def cache_key(kind: str, model: str, prompt: str) -> bytes:
    """SHA-256 of the three parts' UTF-8 bytes, each after its u64 LE length."""
    k, m, p = kind.encode(), model.encode(), prompt.encode()
    return hashlib.sha256(b"".join((struct.pack("<Q", len(k)), k, struct.pack("<Q", len(m)), m,
                                    struct.pack("<Q", len(p)), p))).digest()


class EmbeddingCache:
    """Append-only on-disk store.

    The loader reads each run of consecutive records that share a dimension
    in one pass: one structured view of the run's bytes and one copy of its
    vectors, with each key the record's raw 32 bytes. A truncated last record
    (say, from a crash mid-append) is reported and cut off; every complete
    record before it is kept.
    """

    def __init__(self, path):
        self.path = Path(path)
        self._entries: dict[bytes, np.ndarray] = {}
        self._load()

    def _load(self) -> None:
        if not self.path.exists():
            return
        data = self.path.read_bytes()
        off = 0
        while off + CACHE_KEY_BYTES + 4 <= len(data):
            (dim,) = struct.unpack_from("<I", data, off + CACHE_KEY_BYTES)
            size = CACHE_KEY_BYTES + 4 + dim * 4
            if off + size > len(data):
                break
            # Every whole record of this size left in the file; the run is the
            # leading ones whose dimension field matches.
            recs = np.frombuffer(data, offset=off, count=(len(data) - off) // size, dtype=np.dtype(
                [("key", "V32"), ("dim", "<u4"), ("vec", "<f4", (dim,))]))
            other = np.flatnonzero(recs["dim"] != dim)
            run = int(other[0]) if other.size else len(recs)
            # A raw-bytes (V32) key keeps trailing NULs, which an S32 field would drop.
            self._entries.update(zip(recs["key"][:run].tolist(), recs["vec"][:run].copy()))
            off += run * size
        if off < len(data):
            log.warning("embedding cache %s has a truncated record at byte %d; "
                        "keeping %d complete records", self.path, off, len(self._entries))
            with open(self.path, "r+b") as fh:
                fh.truncate(off)

    def get(self, key: bytes) -> np.ndarray | None:
        return self._entries.get(key)

    def put_many(self, keys, vecs) -> None:
        """Append one record per (key, vector) pair, in order, with one open."""
        records = []
        for key, vec in zip(keys, vecs):
            vec = np.ascontiguousarray(vec, dtype="<f4")
            self._entries[key] = vec
            records += [key, struct.pack("<I", vec.size), vec.tobytes()]
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "ab") as fh:
            fh.write(b"".join(records))

    def __len__(self) -> int:
        return len(self._entries)


def get_or_embed(src: HttpSource, node_ids, prompt_renderer, cache) -> np.ndarray:
    """Embedding rows for node ids, served from cache where possible.

    `cache` is an open `EmbeddingCache` or the path of one. Keys hash (provider
    kind, model name, exact prompt bytes), not the endpoint, so a cache filled
    at one address serves another; identical prompts share one provider slot.
    Misses are fetched in input order and appended with one write. No node ids
    give a (0, 0) float32 array, as `HttpSource.embed([])` does.
    """
    if not isinstance(cache, EmbeddingCache):
        cache = EmbeddingCache(cache)
    keys = []
    missing: dict[bytes, str] = {}  # insertion order: misses in input order, each key once
    for n in node_ids:
        prompt = prompt_renderer(int(n))
        key = cache_key("http", src.model, prompt)
        keys.append(key)
        if cache.get(key) is None:
            missing.setdefault(key, prompt)
    if missing:
        cache.put_many(list(missing), src.embed(list(missing.values())))

    if not keys:
        return np.zeros((0, 0), dtype=np.float32)
    rows = [cache.get(k) for k in keys]
    dims = {r.shape[0] for r in rows}
    if len(dims) != 1:
        raise EmbeddingProviderError(f"dimension drift across cached vectors: {sorted(dims)}")
    return np.stack(rows)
