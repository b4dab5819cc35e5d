"""Prototype classifiers, task prototypes with task-ID routing, and calibration.

Class prototypes are unweighted means over (seeded subsets of) per-class
embeddings, written once in the session their class appears and never
updated afterwards; classification predicts, for each embedding, the class
whose prototype has the highest cosine similarity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_HYPERS
from .graph import TextAttributedGraph, degrees, gcn_normalized_adjacency
from .nn import softmax, spmm


@dataclass
class PrototypeBank:
    """class id -> prototype vector, with a temperature.

    A positive temperature only rescales cosine scores, so it never changes a
    prediction; it is kept because run configs carry it as `tau`.
    """

    temperature: float = 1.0
    prototypes: dict[int, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        if not self.temperature > 0:
            raise ValueError("temperature must be > 0")

    @property
    def dim(self) -> int | None:
        for v in self.prototypes.values():
            return v.shape[0]
        return None

    @property
    def class_ids(self) -> list[int]:
        return sorted(self.prototypes)

    def subset(self, class_ids) -> "PrototypeBank":
        """Read-only restriction to the given classes (shared vectors)."""
        keep = set(int(c) for c in class_ids)
        return PrototypeBank(
            temperature=self.temperature,
            prototypes={c: v for c, v in self.prototypes.items() if c in keep},
        )


def build_prototypes(
    bank: PrototypeBank,
    embeddings: np.ndarray,
    labels: np.ndarray,
    sample_num: int,
    seed: int,
) -> PrototypeBank:
    """Add one mean prototype per class present in `labels`.

    Each class uses a seeded sample of at most sample_num member rows.
    Classes already in the bank are never overwritten (training-free
    guarantee across sessions).
    """
    if sample_num < 1:
        raise ValueError("sample_num must be >= 1")
    embeddings = np.asarray(embeddings, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if embeddings.shape[0] != labels.shape[0]:
        raise ValueError("one label per embedding row required")
    if bank.dim is not None and embeddings.shape[1] != bank.dim:
        raise ValueError("embedding dim does not match bank")
    rng = np.random.default_rng(seed)
    for c in sorted(set(int(x) for x in labels)):
        members = np.flatnonzero(labels == c)
        if c in bank.prototypes:
            continue
        if members.size > sample_num:
            members = np.sort(rng.choice(members, size=sample_num, replace=False))
        bank.prototypes[c] = embeddings[members].mean(axis=0)
    return bank


def classify_batch(bank: PrototypeBank, H: np.ndarray) -> np.ndarray:
    """Class id of the most cosine-similar prototype, one per row of H.

    Ties break toward the lowest class id; a zero-norm row or prototype
    scores 0 against everything.
    """
    if not bank.prototypes:
        raise ValueError("empty prototype bank")
    H = np.asarray(H, dtype=np.float64)
    ids = np.array(bank.class_ids)
    protos = np.stack([bank.prototypes[c] for c in ids])
    if H.ndim != 2 or H.shape[1] != protos.shape[1]:
        raise ValueError("embedding dim mismatch")
    # Finite norms bound every dot product (Cauchy-Schwarz), so no score overflows.
    pn, hn = _norms(protos), _norms(H)
    sim = H @ protos.T
    denom = np.outer(hn, pn)
    scores = np.divide(sim, denom, out=np.zeros_like(sim), where=denom > 0)
    return ids[np.argmax(scores, axis=1)]


@np.errstate(over="ignore", invalid="ignore")  # a non-finite norm raises below
def _norms(M: np.ndarray) -> np.ndarray:
    """L2 norms along the last axis; FloatingPointError if one is not finite."""
    n = np.linalg.norm(M, axis=-1)
    if not np.isfinite(n).all():
        raise FloatingPointError("non-finite embedding norm")
    return n


def teen_calibrate(
    bank: PrototypeBank,
    base_classes,
    novel_classes,
    softmax_T: float = DEFAULT_HYPERS["softmax_T"],
    shift_weight: float = DEFAULT_HYPERS["shift_weight"],
) -> PrototypeBank:
    """Shift each novel prototype toward base prototypes it resembles.

    On L2-normalized vectors: p_hat = alpha * p_c + (1 - alpha) * sum_b w_b p_b
    with w = softmax(softmax_T * cos(p_c, p_b)) over base classes; the result
    is re-normalized. Base prototypes are never touched.
    """
    base = sorted(int(c) for c in base_classes)
    novel = sorted(int(c) for c in novel_classes)
    if not base:
        raise ValueError("empty base class set")
    if set(base) & set(novel):
        raise ValueError("base and novel class sets must be disjoint")
    for c in (*base, *novel):
        if c not in bank.prototypes:
            raise ValueError(f"missing prototype for class {c}")

    def unit(v):
        n = _norms(v)
        return v / n if n > 0 else v

    base_mat = np.stack([unit(bank.prototypes[b]) for b in base])
    for c in novel:
        pc = unit(bank.prototypes[c])
        w = softmax(softmax_T * (base_mat @ pc)[None])[0]
        bank.prototypes[c] = unit(shift_weight * pc + (1 - shift_weight) * (w @ base_mat))
    return bank


@dataclass
class TaskPrototypeSet:
    """Ordered per-task aggregate vectors used for session-ID prediction."""

    vectors: list[np.ndarray] = field(default_factory=list)

    def add(self, v: np.ndarray) -> None:
        v = np.asarray(v, dtype=np.float64)
        if self.vectors and v.shape != self.vectors[0].shape:
            raise ValueError("task prototype dim mismatch")
        self.vectors.append(v)

    def __len__(self) -> int:
        return len(self.vectors)


def task_prototype(g: TextAttributedGraph, nodes, X: np.ndarray, k: int,
                   weighting: str = "laplacian") -> np.ndarray:
    """Mean of a node set's rows of D^{-1/2} S^k X (laplacian; degrees with self-loops)
    or of X (plain-mean). The mean is linear in X and S is symmetric, so the laplacian
    one is (S^k w) @ X with w = d^{-1/2} / |nodes| on `nodes`: one column propagated."""
    nodes = np.asarray(nodes, dtype=np.int64)
    if nodes.size == 0:
        raise ValueError("empty node set")
    X = np.asarray(X, dtype=np.float64)
    if weighting == "plain-mean":
        return X[nodes].mean(axis=0)
    if weighting != "laplacian":
        raise ValueError(f"unknown weighting {weighting!r}")
    if k < 0:
        raise ValueError("k must be >= 0")
    w = np.zeros(g.node_count)
    np.add.at(w, nodes, 1.0 / (np.sqrt(degrees(g)[nodes]) * nodes.size))
    for _ in range(k):
        w = spmm(gcn_normalized_adjacency(g), w)
    return w @ X


def predict_task_id(query: np.ndarray, prototypes: TaskPrototypeSet) -> int:
    """0-based index of the nearest task prototype (Euclidean, ties -> lowest)."""
    if len(prototypes) == 0:
        raise ValueError("empty task prototype set")
    query = np.asarray(query, dtype=np.float64)
    if query.shape != prototypes.vectors[0].shape:
        raise ValueError("query dim mismatch")
    dists = [float(np.linalg.norm(query - p)) for p in prototypes.vectors]
    return int(np.argmin(dists))

