"""From-scratch training core: GCN/MLP forward-backward, cross-entropy, Adam.

Dense matrices are float64 numpy arrays throughout; gradients are derived by
hand and cross-checked against central finite differences. No autodiff.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

ARCH_GCN = "gcn2_mlp1"
ARCH_MLP = "mlp2"


@dataclass
class ModelParams:
    """Weights for either architecture.

    gcn2_mlp1: logits = ReLU(S @ ReLU(S @ X @ W1 [+ b1]) @ W2 [+ b2]) @ W3 + b3
    mlp2:      logits = ReLU(X @ W1 + b1) @ W2 + b2

    Graph-conv layers carry biases only when built with conv_bias=True.
    """

    arch: str
    weights: dict[str, np.ndarray]
    dropout_rate: float = 0.5

    def copy(self) -> "ModelParams":
        return ModelParams(
            arch=self.arch,
            weights={k: v.copy() for k, v in self.weights.items()},
            dropout_rate=self.dropout_rate,
        )


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


def glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out)).astype(np.float64)


def init_params(
    arch: str,
    in_dim: int,
    hidden_dim: int,
    num_classes: int,
    seed: int,
    dropout_rate: float = 0.5,
    conv_bias: bool = False,
) -> ModelParams:
    rng = np.random.default_rng(seed)
    if arch == ARCH_GCN:
        w = {
            "W1": glorot(rng, in_dim, hidden_dim),
            "W2": glorot(rng, hidden_dim, hidden_dim),
            "W3": glorot(rng, hidden_dim, num_classes),
            "b3": np.zeros(num_classes),
        }
        if conv_bias:
            w["b1"] = np.zeros(hidden_dim)
            w["b2"] = np.zeros(hidden_dim)
    elif arch == ARCH_MLP:
        w = {
            "W1": glorot(rng, in_dim, hidden_dim),
            "b1": np.zeros(hidden_dim),
            "W2": glorot(rng, hidden_dim, num_classes),
            "b2": np.zeros(num_classes),
        }
    else:
        raise ValueError(f"unknown arch {arch!r}")
    return ModelParams(arch=arch, weights=w, dropout_rate=dropout_rate)


def grow_output(p: ModelParams, extra_classes: int, seed: int) -> ModelParams:
    """Append seeded-initialized output columns for newly arrived classes."""
    if extra_classes <= 0:
        return p
    rng = np.random.default_rng(seed)
    q = p.copy()
    wk, bk = ("W3", "b3") if p.arch == ARCH_GCN else ("W2", "b2")
    old = q.weights[wk]
    new_cols = glorot(rng, old.shape[0], extra_classes)
    q.weights[wk] = np.concatenate([old, new_cols], axis=1)
    q.weights[bk] = np.concatenate([q.weights[bk], np.zeros(extra_classes)])
    return q


def spmm(S: sp.csr_matrix, X: np.ndarray) -> np.ndarray:
    """Exact sparse @ dense product."""
    X = np.asarray(X, dtype=np.float64)
    n = S.shape[1]
    if X.shape[0] != n:
        raise ValueError(f"dimension mismatch: S is {S.shape}, X has {X.shape[0]} rows")
    return np.asarray(S @ X)


def _spmm_t(S: sp.csr_matrix, X: np.ndarray) -> np.ndarray:
    # Exact S^T @ X; S is symmetric by construction but we do not rely on it.
    return np.asarray(S.T @ X)


def _dropout_mask(rng: np.random.Generator, shape, rate: float) -> np.ndarray:
    # Inverted dropout: kept units scaled by 1/(1-rate) so eval needs no rescale.
    keep = rng.random(shape) >= rate
    return keep.astype(np.float64) / (1.0 - rate)


def model_forward(
    p: ModelParams,
    S: sp.csr_matrix | None,
    X: np.ndarray,
    dropout_seed: int | None = None,
) -> tuple[np.ndarray, dict]:
    """Forward pass. Returns (logits, cache) where the cache feeds model_backward.

    Training mode (dropout after each hidden ReLU) is enabled only when
    dropout_seed is given; evaluation is fully deterministic.
    """
    X = np.asarray(X, dtype=np.float64)
    w = p.weights
    training = dropout_seed is not None
    rng = np.random.default_rng(dropout_seed) if training else None
    cache: dict = {"arch": p.arch, "X": X, "S": S, "training": training}

    if p.arch == ARCH_GCN:
        if S is None:
            raise ValueError("gcn2_mlp1 requires a propagation operator")
        if X.shape[1] != w["W1"].shape[0]:
            raise ValueError("input feature dim mismatch")
        T1 = X @ w["W1"]
        P1 = spmm(S, T1)
        if "b1" in w:
            P1 = P1 + w["b1"]
        H1 = np.maximum(P1, 0.0)
        M1 = _dropout_mask(rng, H1.shape, p.dropout_rate) if training else None
        D1 = H1 * M1 if training else H1
        T2 = D1 @ w["W2"]
        P2 = spmm(S, T2)
        if "b2" in w:
            P2 = P2 + w["b2"]
        H2 = np.maximum(P2, 0.0)
        M2 = _dropout_mask(rng, H2.shape, p.dropout_rate) if training else None
        D2 = H2 * M2 if training else H2
        logits = D2 @ w["W3"] + w["b3"]
        cache.update(P1=P1, D1=D1, M1=M1, P2=P2, D2=D2, M2=M2)
    elif p.arch == ARCH_MLP:
        if S is not None:
            raise ValueError("mlp2 takes no propagation operator")
        if X.shape[1] != w["W1"].shape[0]:
            raise ValueError("input feature dim mismatch")
        P1 = X @ w["W1"] + w["b1"]
        H1 = np.maximum(P1, 0.0)
        M1 = _dropout_mask(rng, H1.shape, p.dropout_rate) if training else None
        D1 = H1 * M1 if training else H1
        logits = D1 @ w["W2"] + w["b2"]
        cache.update(P1=P1, D1=D1, M1=M1)
    else:
        raise ValueError(f"unknown arch {p.arch!r}")

    if not np.isfinite(logits).all():
        raise FloatingPointError("non-finite logits in forward pass")
    cache["params"] = p
    return logits, cache


def model_embed(p: ModelParams, S: sp.csr_matrix | None, X: np.ndarray) -> np.ndarray:
    """Pre-classifier hidden representation in evaluation mode.

    gcn2_mlp1: output of the second graph-conv layer (post-ReLU); mlp2: the
    hidden ReLU layer.
    """
    _, cache = model_forward(p, S, X, dropout_seed=None)
    return cache["D2"] if p.arch == ARCH_GCN else cache["D1"]


def model_backward(cache: dict, dlogits: np.ndarray) -> dict[str, np.ndarray]:
    """Exact gradients of the scalar loss whose logit gradient is dlogits."""
    p: ModelParams = cache["params"]
    w = p.weights
    X = cache["X"]
    dlogits = np.asarray(dlogits, dtype=np.float64)
    grads: dict[str, np.ndarray] = {}

    if p.arch == ARCH_GCN:
        S = cache["S"]
        grads["b3"] = dlogits.sum(axis=0)
        grads["W3"] = cache["D2"].T @ dlogits
        dD2 = dlogits @ w["W3"].T
        dH2 = dD2 * cache["M2"] if cache["training"] else dD2
        dP2 = dH2 * (cache["P2"] > 0)
        if "b2" in w:
            grads["b2"] = dP2.sum(axis=0)
        dT2 = _spmm_t(S, dP2)
        grads["W2"] = cache["D1"].T @ dT2
        dD1 = dT2 @ w["W2"].T
        dH1 = dD1 * cache["M1"] if cache["training"] else dD1
        dP1 = dH1 * (cache["P1"] > 0)
        if "b1" in w:
            grads["b1"] = dP1.sum(axis=0)
        dT1 = _spmm_t(S, dP1)
        grads["W1"] = X.T @ dT1
    else:
        grads["b2"] = dlogits.sum(axis=0)
        grads["W2"] = cache["D1"].T @ dlogits
        dD1 = dlogits @ w["W2"].T
        dH1 = dD1 * cache["M1"] if cache["training"] else dD1
        dP1 = dH1 * (cache["P1"] > 0)
        grads["b1"] = dP1.sum(axis=0)
        grads["W1"] = X.T @ dP1

    if set(grads) != set(w):
        raise ValueError("stale cache: gradient keys do not match parameters")
    return grads


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean softmax cross-entropy over rows. Returns (loss, dlogits)."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n, c = logits.shape
    if labels.shape != (n,):
        raise ValueError("labels must hold one class id per row")
    if labels.min() < 0 or labels.max() >= c:
        raise ValueError("label outside logit range")
    shifted = logits - logits.max(axis=1, keepdims=True)
    expz = np.exp(shifted)
    denom = expz.sum(axis=1, keepdims=True)
    probs = expz / denom
    logp = shifted - np.log(denom)
    loss = float(-logp[np.arange(n), labels].mean())

    dlogits = probs.copy()
    dlogits[np.arange(n), labels] -= 1.0
    dlogits /= n
    return loss, dlogits


def adam_step(
    p: ModelParams, grads: dict[str, np.ndarray], st: AdamState
) -> tuple[ModelParams, AdamState]:
    """One bias-corrected Adam update; errors on non-finite gradients."""
    if set(grads) != set(p.weights):
        raise ValueError("gradient keys do not match parameters")
    st.step += 1
    t = st.step
    for k, g in grads.items():
        if g.shape != p.weights[k].shape:
            raise ValueError(f"shape mismatch for {k}")
        if not np.isfinite(g).all():
            raise FloatingPointError(f"non-finite gradient for {k}")
        st.m[k] = st.beta1 * st.m[k] + (1 - st.beta1) * g
        st.v[k] = st.beta2 * st.v[k] + (1 - st.beta2) * g * g
        mhat = st.m[k] / (1 - st.beta1**t)
        vhat = st.v[k] / (1 - st.beta2**t)
        p.weights[k] = p.weights[k] - st.lr * mhat / (np.sqrt(vhat) + st.eps)
    return p, st


def init_adam(p: ModelParams, lr: float) -> AdamState:
    return AdamState(
        m={k: np.zeros_like(v) for k, v in p.weights.items()},
        v={k: np.zeros_like(v) for k, v in p.weights.items()},
        lr=lr,
    )
