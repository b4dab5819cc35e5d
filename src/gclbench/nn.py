"""From-scratch training core: GCN/MLP forward-backward, cross-entropy, Adam.

Both architectures are one stack of hidden layers, described by _LAYERS: a
number of hidden layers and whether each propagates over the operator S.
Hidden layer i computes P_i = [S @] D_{i-1} @ W_i [+ b_i], then
D_i = dropout(ReLU(P_i)), with D_0 = X; the output layer is W_{L+1}/b_{L+1}.
One loop over that stack serves init, head growth, forward, backward and
embedding.

model_forward takes an optional `rows`: the logits come back for those rows
only, and model_backward then takes their gradient alone. Layers that
propagate still run over every node; the layers after the last one that
propagates run on `rows` only (for mlp2, every layer). Dropout masks are drawn
for every node and then sliced, so the random stream does not depend on
`rows`.

Dense matrices are float64 numpy arrays throughout; gradients are derived by
hand and cross-checked against central finite differences. No autodiff.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

ARCH_GCN = "gcn2_mlp1"
ARCH_MLP = "mlp2"

# arch -> (hidden layers, whether each hidden layer propagates over S)
_LAYERS = {ARCH_GCN: (2, True), ARCH_MLP: (1, False)}


def _layers(arch: str) -> tuple[int, bool]:
    if arch not in _LAYERS:
        raise ValueError(f"unknown arch {arch!r}")
    return _LAYERS[arch]


@dataclass
class ModelParams:
    """Weights for either architecture (one row of _LAYERS each).

    gcn2_mlp1: logits = ReLU(S @ ReLU(S @ X @ W1 [+ b1]) @ W2 [+ b2]) @ W3 + b3
    mlp2:      logits = ReLU(X @ W1 + b1) @ W2 + b2

    Graph-conv layers carry biases only when built with conv_bias=True; dense
    hidden layers always carry one.
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
    hidden, propagate = _layers(arch)
    # rate 1 would divide by zero in the dropout mask; a negative one rescales silently.
    if not 0.0 <= dropout_rate < 1.0:
        raise ValueError(f"dropout_rate must be in [0, 1), got {dropout_rate!r}")
    if hidden_dim < 1:
        raise ValueError(f"hidden_dim must be >= 1, got {hidden_dim!r}")
    rng = np.random.default_rng(seed)
    w = {}
    for i in range(1, hidden + 1):
        w[f"W{i}"] = glorot(rng, in_dim if i == 1 else hidden_dim, hidden_dim)
        if conv_bias or not propagate:
            w[f"b{i}"] = np.zeros(hidden_dim)
    w[f"W{hidden + 1}"] = glorot(rng, hidden_dim, num_classes)
    w[f"b{hidden + 1}"] = np.zeros(num_classes)
    return ModelParams(arch=arch, weights=w, dropout_rate=dropout_rate)


def grow_output(p: ModelParams, extra_classes: int, seed: int) -> ModelParams:
    """Append seeded-initialized output columns for newly arrived classes."""
    if extra_classes <= 0:
        return p
    rng = np.random.default_rng(seed)
    q = p.copy()
    out = _layers(p.arch)[0] + 1
    wk, bk = f"W{out}", f"b{out}"
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


def _dropout_mask(rng: np.random.Generator, shape, rate: float, rows=None) -> np.ndarray:
    # Inverted dropout: kept units scaled by 1/(1-rate) so eval needs no rescale.
    # The uniforms are drawn for the full shape, then cut to `rows`.
    u = rng.random(shape)
    keep = (u if rows is None else u[rows]) >= rate
    return keep.astype(np.float64) / (1.0 - rate)


@np.errstate(over="ignore", invalid="ignore")  # non-finite logits raise below
def model_forward(
    p: ModelParams,
    S: sp.csr_matrix | None,
    X: np.ndarray,
    dropout_seed: int | None = None,
    rows: np.ndarray | None = None,
) -> tuple[np.ndarray, dict]:
    """Forward pass. Returns (logits, cache) where the cache feeds model_backward.

    Training mode (dropout after each hidden ReLU) is enabled only when
    dropout_seed is given; evaluation is fully deterministic. With `rows`
    (distinct row ids of X, in any order), the logits are the full pass's
    logits at `rows`, in that order; the hidden layers that do not feed a
    propagation run on those rows alone.
    """
    X = np.asarray(X, dtype=np.float64)
    w = p.weights
    hidden, propagate = _layers(p.arch)
    if propagate and S is None:
        raise ValueError(f"{p.arch} requires a propagation operator")
    if not propagate and S is not None:
        raise ValueError(f"{p.arch} takes no propagation operator")
    if X.shape[1] != w["W1"].shape[0]:
        raise ValueError("input feature dim mismatch")
    training = dropout_seed is not None
    rng = np.random.default_rng(dropout_seed) if training else None
    if rows is not None:
        rows = np.asarray(rows, dtype=np.int64)
    # Rows the hidden layers run on: all nodes when they propagate.
    hidden_rows = None if propagate else rows
    D = X if hidden_rows is None else X[hidden_rows]
    cache: dict = {"X": D, "S": S, "training": training, "rows": rows}

    for i in range(1, hidden + 1):
        P = D @ w[f"W{i}"]
        if propagate:
            P = spmm(S, P)
        if f"b{i}" in w:
            P = P + w[f"b{i}"]
        H = np.maximum(P, 0.0)
        M = (_dropout_mask(rng, (X.shape[0], H.shape[1]), p.dropout_rate, hidden_rows)
             if training else None)
        D = H * M if training else H
        cache.update({f"P{i}": P, f"D{i}": D, f"M{i}": M})
    if rows is not None and hidden_rows is None:
        D = D[rows]
    cache["D_out"] = D  # the output layer's input
    logits = D @ w[f"W{hidden + 1}"] + w[f"b{hidden + 1}"]

    if not np.isfinite(logits).all():
        raise FloatingPointError("non-finite logits in forward pass")
    cache["params"] = p
    return logits, cache


def model_embed(p: ModelParams, S: sp.csr_matrix | None, X: np.ndarray) -> np.ndarray:
    """Pre-classifier hidden representation in evaluation mode: the output of
    the last hidden layer (post-ReLU)."""
    _, cache = model_forward(p, S, X, dropout_seed=None)
    return cache[f"D{_layers(p.arch)[0]}"]


def model_backward(cache: dict, dlogits: np.ndarray) -> dict[str, np.ndarray]:
    """Exact gradients of the scalar loss whose logit gradient is dlogits.

    dlogits has one row per logit row of the forward pass: per row of `rows`
    when it was given. The gradient equals the full-batch one with dlogits
    zero outside `rows`.
    """
    p: ModelParams = cache["params"]
    w = p.weights
    hidden, propagate = _layers(p.arch)
    dlogits = np.asarray(dlogits, dtype=np.float64)
    grads: dict[str, np.ndarray] = {}

    out = hidden + 1
    grads[f"b{out}"] = dlogits.sum(axis=0)
    grads[f"W{out}"] = cache["D_out"].T @ dlogits
    dD = dlogits @ w[f"W{out}"].T
    if propagate and cache["rows"] is not None:
        # Hidden layers ran on every node but the output layer on `rows` only.
        dD_rows, dD = dD, np.zeros_like(cache[f"D{hidden}"])
        dD[cache["rows"]] = dD_rows
    for i in range(hidden, 0, -1):
        dH = dD * cache[f"M{i}"] if cache["training"] else dD
        dP = dH * (cache[f"P{i}"] > 0)
        if f"b{i}" in w:
            grads[f"b{i}"] = dP.sum(axis=0)
        dT = _spmm_t(cache["S"], dP) if propagate else dP
        grads[f"W{i}"] = (cache[f"D{i - 1}"] if i > 1 else cache["X"]).T @ dT
        if i > 1:
            dD = dT @ w[f"W{i}"].T

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
    """One bias-corrected Adam update; errors on non-finite gradients or weights."""
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
        if not np.isfinite(p.weights[k]).all():
            raise FloatingPointError(f"non-finite weights for {k} after the update")
    return p, st


def init_adam(p: ModelParams, lr: float) -> AdamState:
    return AdamState(
        m={k: np.zeros_like(v) for k, v in p.weights.items()},
        v={k: np.zeros_like(v) for k, v in p.weights.items()},
        lr=lr,
    )
