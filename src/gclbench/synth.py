"""Deterministic synthetic text-attributed graphs for tests and diagnostics.

Class centroids sit on mutually orthogonal feature axes spaced `class_sep`
apart, so separability is controlled analytically; edges follow a stochastic
block model. Stands in for real citation/e-commerce graphs at desk scale.

Stream contract: from one PCG64 `default_rng(seed)`, `synth_tag` draws the
feature noise, then the n*n uniforms of the SBM in row-major order (as one
`rng.random((n, n))` would), then one keyword bit per node. Only the SBM's
upper triangle is generated; the rest of each row is skipped with PCG64's
`advance`, so the bytes equal those of the dense draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import TextAttributedGraph, make_graph

# Uniforms held at once by the SBM draw (or n, if larger): 0.5 MB.
_SBM_BUFFER = 1 << 16


@dataclass(frozen=True)
class SynthConfig:
    num_classes: int = 6
    nodes_per_class: int = 50
    feature_dim: int = 16
    class_sep: float = 3.0
    noise_sigma: float = 0.5
    intra_p: float = 0.2
    inter_p: float = 0.02
    seed: int = 0

    def __post_init__(self):
        for name, p in (("intra_p", self.intra_p), ("inter_p", self.inter_p)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"edge probabilities must lie in [0, 1]: {name}={p}")
        if self.num_classes < 1:
            raise ValueError("num_classes must be >= 1")
        if self.nodes_per_class < 1:
            raise ValueError("nodes_per_class must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not (math.isfinite(self.class_sep) and self.class_sep >= 0):
            raise ValueError("class_sep must be finite and >= 0")
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise ValueError("noise_sigma must be finite and >= 0")


def _default_vocab(num_classes: int) -> tuple[tuple[str, ...], ...]:
    themes = ("spectral", "lattice", "kernel", "manifold", "entropy", "gradient",
              "tensor", "stochastic", "variational", "topological", "convex", "sparse")
    return tuple(
        (themes[c % len(themes)] + f"-{c}", f"domain{c}") for c in range(num_classes)
    )


def _sbm_edges(rng: np.random.Generator, labels: np.ndarray, intra_p: float,
               inter_p: float) -> np.ndarray:
    """Stochastic block model over the upper triangle, in row-major order.

    Keeps pair (i, j), j > i, when uniform (i, j) of one rng.random((n, n))
    draw falls below its block's probability, and leaves `rng` where that draw
    would. Only the n - i - 1 uniforms right of the diagonal of row i are
    generated; `advance(i + 1)` first skips the i + 1 on and left of it, so
    every row consumes exactly n values. Rows are packed into one reusable
    buffer and tested in one vectorized pass per fill.

    `rng` must be a PCG64 generator (`np.random.default_rng`), whose
    `advance` jumps in O(log n) steps. `advance` also drops PCG64's buffered
    32-bit half; that is exact here only because no 32-bit draw precedes the
    edges in `synth_tag`.
    """
    n = labels.size
    bitgen = rng.bit_generator
    buf = np.empty(max(_SBM_BUFFER, n))
    p_max = max(intra_p, inter_p)
    parts = [np.zeros((0, 2), dtype=np.int64)]
    i = 0
    while i < n:
        # Pack rows i0..i-1: row r's upper part fills buf[starts[r - i0]:][:n - r - 1].
        i0, starts, off = i, [], 0
        while i < n and off + n - i - 1 <= buf.size:
            bitgen.advance(i + 1)
            rng.random(out=buf[off:off + n - i - 1])
            starts.append(off)
            off += n - i - 1
            i += 1
        starts = np.asarray(starts)
        cand = np.flatnonzero(buf[:off] < p_max)
        k = np.searchsorted(starts, cand, side="right") - 1
        rows = i0 + k
        cols = rows + 1 + cand - starts[k]
        p = np.where(labels[rows] == labels[cols], intra_p, inter_p)
        hit = buf[cand] < p
        parts.append(np.stack([rows[hit], cols[hit]], axis=1))
    return np.concatenate(parts)


def synth_tag(cfg: SynthConfig) -> TextAttributedGraph:
    """Generate a graph; byte-identical output for identical configs."""
    if cfg.feature_dim < cfg.num_classes:
        raise ValueError(
            f"feature_dim {cfg.feature_dim} < num_classes {cfg.num_classes}: "
            "orthogonal centroids need one axis per class"
        )
    rng = np.random.default_rng(cfg.seed)
    n = cfg.num_classes * cfg.nodes_per_class
    labels = np.repeat(np.arange(cfg.num_classes), cfg.nodes_per_class).astype(np.int64)

    centroids = np.zeros((cfg.num_classes, cfg.feature_dim))
    centroids[np.arange(cfg.num_classes), np.arange(cfg.num_classes)] = cfg.class_sep
    feats = centroids[labels] + cfg.noise_sigma * rng.standard_normal((n, cfg.feature_dim))
    feats = feats.astype(np.float32)

    edges = _sbm_edges(rng, labels, cfg.intra_p, cfg.inter_p)

    vocab = _default_vocab(cfg.num_classes)
    picks = rng.integers(2, size=n)  # each class has two keywords
    texts = []
    for i in range(n):
        kw = vocab[labels[i]][picks[i]]
        texts.append(f"Record {i}: a study of {kw} structure with applications to {kw} analysis.")

    class_names = tuple(f"class-{vocab[c][0]}" for c in range(cfg.num_classes))
    return make_graph(feats, texts, labels, class_names, edges)
