"""Text-attributed graphs: loading, validation, subgraphs, smoothing, ego sampling."""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .nn import spmm

FEATURES_MAGIC = b"TAGF"
FEATURES_VERSION = 1


class TagFormatError(ValueError):
    """Raised when a dataset directory violates the on-disk format."""


@dataclass(frozen=True)
class TextAttributedGraph:
    """Undirected graph whose nodes carry raw text, a feature row, and a class label.

    Edges are canonical (min, max) pairs, deduplicated and lexicographically
    sorted. Instances are immutable after construction and safe to share
    across workers. The neighbour CSR (`neighbor_csr`) and the propagation
    operator (`gcn_normalized_adjacency`) are built lazily on first read and
    cached on the instance; if two threads race on that first read, each
    builds the same read-only arrays and one of them is kept, which is
    harmless.
    """

    features: np.ndarray  # (n, d) float32
    texts: tuple[str, ...]
    labels: np.ndarray  # (n,) int64
    class_names: tuple[str, ...]
    edges: np.ndarray  # (m, 2) int64, canonicalized

    def __post_init__(self):
        self.features.setflags(write=False)
        self.labels.setflags(write=False)
        self.edges.setflags(write=False)

    @property
    def node_count(self) -> int:
        return len(self.texts)

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    @property
    def edge_count(self) -> int:
        return self.edges.shape[0]

    @cached_property
    def neighbor_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """(indptr, indices): node i's sorted neighbours, a self-loop listed once."""
        a, b = self.edges[:, 0], self.edges[:, 1]
        rows = np.concatenate([a, b[a != b]])
        cols = np.concatenate([b, a[a != b]])
        indptr = np.zeros(self.node_count + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=self.node_count), out=indptr[1:])
        indices = cols[np.lexsort((cols, rows))]
        indptr.setflags(write=False)
        indices.setflags(write=False)
        return indptr, indices

    @cached_property
    def _operator(self) -> sp.csr_matrix:
        n = self.node_count
        indptr, indices = self.neighbor_csr
        ahat = sp.csr_matrix((np.ones(indices.size), indices, indptr), shape=(n, n))
        ahat = ahat + sp.identity(n, format="csr")
        dinv_sqrt = sp.diags(1.0 / np.sqrt(degrees(self)))
        s = (dinv_sqrt @ ahat @ dinv_sqrt).tocsr()
        s.sum_duplicates()
        s.sort_indices()
        for a in (s.data, s.indices, s.indptr):
            a.setflags(write=False)
        return s


@dataclass(frozen=True)
class EgoGraph:
    """Seeded hop-limited neighborhood sample around a center node."""

    center: int
    hop_nodes: tuple[tuple[int, ...], ...]
    hop_texts: tuple[tuple[str, ...], ...] = field(default=())
    center_text: str = ""


def canonicalize_edges(edges: np.ndarray, node_count: int) -> np.ndarray:
    """Return (min,max)-ordered, deduplicated, lexicographically sorted int64 edges.

    Each pair is keyed as `lo * node_count + hi`, which sorts as (lo, hi) does,
    so one 1-D `np.unique` dedups and sorts; an empty input gives shape (0, 2).
    """
    if edges.size == 0:
        return np.zeros((0, 2), dtype=np.int64)
    edges = np.asarray(edges, dtype=np.int64)
    if edges.ndim != 2 or edges.shape[1] != 2:
        raise TagFormatError("edge array must have shape (m, 2)")
    if edges.min() < 0 or edges.max() >= node_count:
        bad = int(np.argmax((edges < 0).any(axis=1) | (edges >= node_count).any(axis=1)))
        raise TagFormatError(f"edge endpoint out of range at record {bad}")
    key = np.unique(edges.min(axis=1) * node_count + edges.max(axis=1))
    return np.stack(np.divmod(key, node_count), axis=1)


def make_graph(
    features: np.ndarray,
    texts: list[str] | tuple[str, ...],
    labels: np.ndarray,
    class_names: list[str] | tuple[str, ...],
    edges: np.ndarray,
) -> TextAttributedGraph:
    """Validate invariants and build a graph (edges are canonicalized here)."""
    features = np.ascontiguousarray(features, dtype=np.float32)
    labels = np.asarray(labels, dtype=np.int64)
    n = len(texts)
    if features.ndim != 2 or features.shape[0] != n:
        raise TagFormatError("feature-count mismatch")
    if labels.shape != (n,):
        raise TagFormatError("label-count mismatch")
    if n > 0 and (labels.min() < 0 or labels.max() >= len(class_names)):
        bad = int(np.argmax((labels < 0) | (labels >= len(class_names))))
        raise TagFormatError(f"label out of range at record {bad}")
    return TextAttributedGraph(
        features=features,
        texts=tuple(texts),
        labels=labels,
        class_names=tuple(class_names),
        edges=canonicalize_edges(np.asarray(edges), n),
    )


# ---------------------------------------------------------------------------
# Dataset directory format:
#   nodes.jsonl       one {"id": int, "text": str, "label": int} per line
#   edges.tsv         two tab-separated ints per line
#   class_names.json  array of strings
#   features.bin      "TAGF" | u32 version | u64 rows | u64 cols | f32 LE row-major
# ---------------------------------------------------------------------------


def load_tag(directory) -> TextAttributedGraph:
    """Load and fully validate a dataset directory."""
    d = Path(directory)
    for name in ("nodes.jsonl", "edges.tsv", "class_names.json", "features.bin"):
        if not (d / name).exists():
            raise TagFormatError(f"missing file: {d / name}")

    texts: list[str] = []
    labels: list[int] = []
    with open(d / "nodes.jsonl", "rb") as fh:  # each line decoded in its record's try
        for i, raw in enumerate(fh):
            try:
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                rec = json.loads(line)
                node_id, text, label = rec["id"], rec["text"], rec["label"]
                if not (type(node_id) is int and type(text) is str and type(label) is int):
                    raise TypeError("id and label must be integers, text a string")
            except (UnicodeDecodeError, json.JSONDecodeError, RecursionError, KeyError,
                    TypeError) as exc:
                raise TagFormatError(f"nodes.jsonl: malformed record {i}: {exc}") from exc
            if node_id != len(texts):
                raise TagFormatError(f"nodes.jsonl: non-contiguous id at record {i}")
            texts.append(text)
            labels.append(label)
    n = len(texts)

    raw_edges = []
    with open(d / "edges.tsv", "rb") as fh:
        for i, raw in enumerate(fh):
            try:
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                a, b = map(int, line.split("\t"))
            except ValueError as exc:  # not UTF-8, not two fields, or not integers
                raise TagFormatError(f"edges.tsv: malformed record {i}: {exc}") from exc
            if not (0 <= a < n and 0 <= b < n):
                raise TagFormatError(f"edges.tsv: edge endpoint out of range at record {i}")
            raw_edges.append((a, b))
    edges = np.array(raw_edges, dtype=np.int64) if raw_edges else np.zeros((0, 2), np.int64)

    try:
        class_names = json.loads((d / "class_names.json").read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
        raise TagFormatError(f"class_names.json: not a JSON file ({exc})") from exc
    if not isinstance(class_names, list) or not all(isinstance(c, str) for c in class_names):
        raise TagFormatError("class_names.json: expected an array of strings")
    for i, name in enumerate(class_names):
        if name in class_names[:i]:
            raise TagFormatError(f"class_names.json: repeated class name {name!r} at record {i}")

    features = read_features_bin(d / "features.bin", expected_rows=n)
    return make_graph(features, texts, np.array(labels, np.int64), class_names, edges)


def read_features_bin(path, expected_rows: int) -> np.ndarray:
    """Parse a TAGF matrix file, checking header, row count and that every value is finite."""
    path = Path(path)
    data = path.read_bytes()
    header = struct.calcsize("<4sIQQ")
    if len(data) < header:
        raise TagFormatError(f"{path}: malformed binary header (truncated)")
    magic, version, rows, cols = struct.unpack_from("<4sIQQ", data, 0)
    if magic != FEATURES_MAGIC:
        raise TagFormatError(f"{path}: malformed binary header (bad magic {magic!r})")
    if version != FEATURES_VERSION:
        raise TagFormatError(f"{path}: unsupported version {version}")
    if rows != expected_rows:
        raise TagFormatError(f"{path}: feature-count mismatch ({rows} rows for {expected_rows} nodes)")
    expected_len = header + rows * cols * 4
    if len(data) != expected_len:
        raise TagFormatError(f"{path}: payload length {len(data)} != expected {expected_len}")
    matrix = np.frombuffer(data, dtype="<f4", offset=header).reshape(rows, cols).astype(np.float32)
    bad = ~np.isfinite(matrix).all(axis=1)
    if bad.any():
        raise TagFormatError(f"{path}: non-finite value in row {int(np.argmax(bad))}")
    return matrix


def save_tag(g: TextAttributedGraph, directory) -> None:
    """Write a graph as a dataset directory (byte-stable for identical graphs)."""
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    with open(d / "nodes.jsonl", "w", encoding="utf-8") as fh:
        for i, text in enumerate(g.texts):
            fh.write(json.dumps({"id": i, "text": text, "label": int(g.labels[i])},
                                ensure_ascii=False, sort_keys=True) + "\n")
    with open(d / "edges.tsv", "w", encoding="utf-8") as fh:
        for a, b in g.edges:
            fh.write(f"{a}\t{b}\n")
    with open(d / "class_names.json", "w", encoding="utf-8") as fh:
        json.dump(list(g.class_names), fh, ensure_ascii=False)
    with open(d / "features.bin", "wb") as fh:
        rows, cols = g.features.shape
        fh.write(struct.pack("<4sIQQ", FEATURES_MAGIC, FEATURES_VERSION, rows, cols))
        fh.write(np.ascontiguousarray(g.features, dtype="<f4").tobytes())


# ---------------------------------------------------------------------------
# Structure operations
# ---------------------------------------------------------------------------


def induced_subgraph(
    g: TextAttributedGraph, nodes
) -> tuple[TextAttributedGraph, np.ndarray]:
    """Subgraph on `nodes` with only fully-internal edges.

    Returns the re-indexed graph and the id-remap table: an array where entry
    `local` holds the original node id. Node order is ascending original id.
    """
    keep = np.unique(np.asarray(list(nodes), dtype=np.int64))
    if keep.size and (keep.min() < 0 or keep.max() >= g.node_count):
        raise ValueError("node id out of range")
    return node_subgraph(g, keep, edges_within(g, keep)), keep


def edges_within(g: TextAttributedGraph, nodes: np.ndarray) -> np.ndarray:
    """g's edges between two of `nodes` (distinct ids), each end renamed to its index in `nodes`."""
    local_of = np.full(g.node_count, -1, dtype=np.int64)
    local_of[nodes] = np.arange(nodes.size)
    mask = (local_of[g.edges[:, 0]] >= 0) & (local_of[g.edges[:, 1]] >= 0)
    return local_of[g.edges[mask]]


def node_subgraph(g: TextAttributedGraph, nodes: np.ndarray,
                  edges: np.ndarray) -> TextAttributedGraph:
    """Graph whose node j is g's node nodes[j], with `edges` given in those positions."""
    return make_graph(g.features[nodes], [g.texts[i] for i in nodes], g.labels[nodes],
                      g.class_names, edges)


def degrees(g: TextAttributedGraph) -> np.ndarray:
    """Node degrees of the self-loop-augmented adjacency A + I."""
    return np.diff(g.neighbor_csr[0]).astype(np.float64) + 1.0


def gcn_normalized_adjacency(g: TextAttributedGraph) -> sp.csr_matrix:
    """S = D^{-1/2} (A + I) D^{-1/2} = I - D^{-1/2} L D^{-1/2}, degrees from A + I.

    The one propagation operator: GCN layers, laplacian_smooth and task prototypes
    multiply by it. Self-loops keep isolated nodes well-defined; S is
    symmetric with spectral radius <= 1. Built once per graph as CSR with
    sorted indices and cached on the graph; its arrays are read-only.
    """
    return g._operator


def laplacian_smooth(X: np.ndarray, g: TextAttributedGraph, k: int) -> np.ndarray:
    """Z = S^k X with S = gcn_normalized_adjacency(g). k=0 returns X unchanged (as float64)."""
    X = np.asarray(X, dtype=np.float64)
    if X.shape[0] != g.node_count:
        raise ValueError(f"feature rows {X.shape[0]} != node count {g.node_count}")
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        return X.copy()
    s = gcn_normalized_adjacency(g)
    for _ in range(k):
        X = spmm(s, X)
    return X


def sample_ego_graph(
    g: TextAttributedGraph, v: int, fanouts, seed: int
) -> EgoGraph:
    """Breadth-first seeded neighborhood sample without replacement.

    Hop h holds at most fanouts[h] previously unvisited neighbors of hop h-1
    (hop -1 being the center). Deterministic for fixed (g, v, fanouts, seed).
    Each fanout must be an integer >= 1, a Python or numpy int but not a bool,
    as the config's `fanouts` rule says; anything else is a ValueError naming
    it, raised before any sampling. The generator, seeded by (seed, v), is
    built only when a hop has more candidates than its fanout and must
    choose; a sample whose hops all fit builds none.
    """
    if not (0 <= v < g.node_count):
        raise ValueError(f"invalid node id {v}")
    fanouts = list(fanouts)
    if not fanouts:
        raise ValueError("fanouts must be non-empty")
    for cap in fanouts:
        if not isinstance(cap, (int, np.integer)) or isinstance(cap, bool) or cap < 1:
            raise ValueError(f"fanouts must be integers >= 1, got {cap!r}")
    seed = seed & 0xFFFFFFFFFFFFFFFF  # a non-integer seed fails here, drawn from or not
    indptr, indices = g.neighbor_csr
    rng = None
    visited = {v}
    frontier = [v]
    hops: list[tuple[int, ...]] = []
    for cap in fanouts:
        reach = {u for w in frontier for u in indices[indptr[w]:indptr[w + 1]].tolist()}
        candidates = sorted(reach - visited)
        if len(candidates) > cap:
            if rng is None:
                rng = np.random.default_rng([seed, v])
            picked_idx = rng.choice(len(candidates), size=cap, replace=False)
            picked = [candidates[i] for i in picked_idx]
        else:
            picked = candidates
        hops.append(tuple(picked))
        visited.update(picked)
        frontier = picked
    return EgoGraph(
        center=v,
        hop_nodes=tuple(hops),
        hop_texts=tuple(tuple(g.texts[u] for u in hop) for hop in hops),
        center_text=g.texts[v],
    )
