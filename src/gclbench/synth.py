"""Deterministic synthetic text-attributed graphs for tests and diagnostics.

Class centroids sit on mutually orthogonal feature axes spaced `class_sep`
apart, so separability is controlled analytically; edges follow a stochastic
block model. Stands in for real citation/e-commerce graphs at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import TextAttributedGraph, make_graph

# Rows of the n x n uniform draw held at once; bounds the SBM's memory to O(rows * n).
_SBM_BLOCK_ROWS = 256


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
        if not (0.0 <= self.intra_p <= 1.0 and 0.0 <= self.inter_p <= 1.0):
            raise ValueError("edge probabilities must lie in [0, 1]")
        if self.nodes_per_class < 1:
            raise ValueError("nodes_per_class must be >= 1")
        if self.class_sep < 0:
            raise ValueError("class_sep must be >= 0")


def _default_vocab(num_classes: int) -> tuple[tuple[str, ...], ...]:
    themes = ("spectral", "lattice", "kernel", "manifold", "entropy", "gradient",
              "tensor", "stochastic", "variational", "topological", "convex", "sparse")
    return tuple(
        (themes[c % len(themes)] + f"-{c}", f"domain{c}") for c in range(num_classes)
    )


def _sbm_edges(rng: np.random.Generator, labels: np.ndarray, intra_p: float,
               inter_p: float) -> np.ndarray:
    """Stochastic block model over the upper triangle, drawn _SBM_BLOCK_ROWS rows at a time.

    Consumes the same n*n uniforms, in the same order, as one rng.random((n, n))
    draw, and keeps pair (i, j) when j > i and its uniform falls below p.
    """
    n = labels.size
    parts = [np.zeros((0, 2), dtype=np.int64)]
    for r0 in range(0, n, _SBM_BLOCK_ROWS):
        rows = np.arange(r0, min(r0 + _SBM_BLOCK_ROWS, n))
        p = np.where(labels[rows, None] == labels[None, :], intra_p, inter_p)
        hit = (rng.random((rows.size, n)) < p) & (np.arange(n)[None, :] > rows[:, None])
        i, j = np.nonzero(hit)
        parts.append(np.stack([rows[i], j], axis=1))
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
    texts = []
    for i in range(n):
        words = vocab[labels[i]]
        kw = words[int(rng.integers(len(words)))]
        texts.append(f"Record {i}: a study of {kw} structure with applications to {kw} analysis.")

    class_names = tuple(f"class-{vocab[c][0]}" for c in range(cfg.num_classes))
    return make_graph(feats, texts, labels, class_names, edges)
