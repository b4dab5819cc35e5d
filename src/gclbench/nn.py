"""From-scratch training core: GCN/MLP forward-backward, cross-entropy, Adam.

Both architectures are one stack of hidden layers, described by _LAYERS: a
number of hidden layers and whether each propagates over the operator S.
Hidden layer i computes P_i = [S @] D_{i-1} @ W_i [+ b_i], then
D_i = dropout(ReLU(P_i)), with D_0 = X; the output layer is W_{L+1}/b_{L+1}.
One loop over that stack serves init, head growth, forward, backward and
embedding.

model_forward takes an optional `rows`, strictly increasing row ids: the
logits come back for those rows only, and model_backward then takes their
gradient alone. Each layer then runs only on the rows those logits need
(layer_rows): mlp2 on `rows`; a GCN's last layer on `rows` and each layer
below on the nodes the layer above reads (for gcn2_mlp1, layer 1 on the
rows' neighbours). Propagation and elementwise work shrink to those rows.
Dense products and the sums over nodes in gradients still run at every node,
with zeros outside a layer's rows, so the results equal the full pass's bit
for bit. Each dropout mask is drawn for its layer's rows only, in layer
order, so the random stream depends on `rows`: a pass over every node with
the same masks on those rows gives the same results.

An epoch costs more in numpy calls than in arithmetic, so the same operations
run with few calls and temporaries: biases and dropout masks apply in place on
arrays a pass has just made, adam_step updates the weights in place as views
of one flat vector for a whole training session, and train_session gathers a
non-propagating model's input rows once per session.

spmm is the one propagation call: every sparse x dense product in gclbench.
Dense matrices are float64 numpy arrays throughout; gradients are derived by
hand and cross-checked against central finite differences. No autodiff.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

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
        return replace(self, weights={k: v.copy() for k, v in self.weights.items()})


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """First and second moments, each one flat vector over the weights in dict
    order, and `w`, the flat vector whose views the weights are after a step."""

    m: np.ndarray
    v: np.ndarray
    lr: float
    step: int = 0
    w: np.ndarray | None = None


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
    rng = np.random.default_rng(seed)
    q = p.copy()
    out = _layers(p.arch)[0] + 1
    wk, bk = f"W{out}", f"b{out}"
    old = q.weights[wk]
    new_cols = glorot(rng, old.shape[0], extra_classes)
    q.weights[wk] = np.concatenate([old, new_cols], axis=1)
    q.weights[bk] = np.concatenate([q.weights[bk], np.zeros(extra_classes)])
    return q


def spmm(S: sp.spmatrix, X: np.ndarray) -> np.ndarray:
    """Exact sparse @ dense product: the one propagation call, for the GCN layers,
    their gradients, the Fisher diagonal, laplacian_smooth and task_prototype."""
    X = np.asarray(X, dtype=np.float64)
    n = S.shape[1]
    if X.shape[0] != n:
        raise ValueError(f"dimension mismatch: S is {S.shape}, X has {X.shape[0]} rows")
    return np.asarray(S @ X)


def _dropout_mask(rng: np.random.Generator, shape, rate: float) -> np.ndarray:
    # Inverted dropout: kept units scaled by 1/(1-rate) so eval needs no rescale.
    # One uniform per unit of the layer as it runs: its rows only.
    # Multiplying by the reciprocal gives the quotient bit for bit: each unit is 0 or 1.
    return np.multiply(rng.random(shape) >= rate, 1.0 / (1.0 - rate))


@dataclass(frozen=True)
class LayerRows:
    """The rows each layer of a pass runs on, and the operators it propagates by.

    inputs: rows of X the first layer reads (None: every row).
    hidden: per hidden layer, the sorted positions in X[inputs] it runs on
        (None: every position). At most one of `inputs` and `hidden[i]` is set.
    ops: per hidden layer, (A, A^T) with A = S[hidden[i]], the operator's rows
        for that layer, or None when the layer does not propagate.
    """

    inputs: np.ndarray | None
    hidden: tuple
    ops: tuple


def layer_rows(arch: str, S: sp.csr_matrix | None, rows: np.ndarray | None = None) -> LayerRows:
    """Where each layer must run for the logits at `rows`, strictly increasing
    row ids (None: every row).

    A model that does not propagate runs every layer on X[rows]. A GCN runs
    its last layer on `rows` and each layer below on the nodes whose columns
    the operator rows above it hold (their receptive field). S[r] keeps each
    row's terms in S's order, and its transpose is built once as CSR with
    each row's terms in node order, the order S.T sums them in; so each
    propagated row is the full product's row bit for bit.
    """
    hidden, propagate = _layers(arch)
    if propagate and S is None:
        raise ValueError(f"{arch} requires a propagation operator")
    if not propagate and S is not None:
        raise ValueError(f"{arch} takes no propagation operator")
    if rows is not None:
        rows = np.asarray(rows, dtype=np.int64)
        if (np.diff(rows) <= 0).any():
            raise ValueError("rows must be strictly increasing")
    if not propagate:
        return LayerRows(rows, (None,) * hidden, (None,) * hidden)
    if rows is None:
        return LayerRows(None, (None,) * hidden, ((S, S.T),) * hidden)
    per_layer, ops = [rows], [S[rows]]
    for _ in range(hidden - 1):
        per_layer.insert(0, np.unique(ops[0].indices))
        ops.insert(0, S[per_layer[0]])
    return LayerRows(None, tuple(per_layer), tuple((A, A.T.tocsr()) for A in ops))


def _full(A: np.ndarray, rows: np.ndarray | None, n: int) -> np.ndarray:
    # A's rows placed at `rows` of an n-row zero matrix. Dense products and
    # sums over nodes run on this form, at the full pass's shapes: BLAS picks
    # its kernel and blocking by shape, and numpy sums a one-column array
    # pairwise, so a shorter operand would round differently.
    if rows is None:
        return A
    out = np.zeros((n, A.shape[1]))
    out[rows] = A
    return out


@np.errstate(over="ignore", invalid="ignore")  # non-finite logits raise below
def model_forward(
    p: ModelParams,
    S: sp.csr_matrix | None,
    X: np.ndarray,
    dropout_seed: int | None = None,
    rows: np.ndarray | LayerRows | None = None,
) -> tuple[np.ndarray, dict]:
    """Forward pass. Returns (logits, cache) where the cache feeds model_backward.

    Training mode (dropout after each hidden ReLU) is enabled only when
    dropout_seed is given; evaluation is fully deterministic. With `rows`
    (strictly increasing row ids of X), the logits are the full pass's logits
    at `rows` bit for bit; each layer runs only on the rows those logits need
    (see layer_rows). `rows` may also be the LayerRows that
    layer_rows(p.arch, S, rows) built, so that repeated passes build it once.
    """
    X = np.asarray(X, dtype=np.float64)
    w = p.weights
    hidden, propagate = _layers(p.arch)
    if X.shape[1] != w["W1"].shape[0]:
        raise ValueError("input feature dim mismatch")
    lr = rows if isinstance(rows, LayerRows) else layer_rows(p.arch, S, rows)
    training = dropout_seed is not None
    rng = np.random.default_rng(dropout_seed) if training else None
    A = X if lr.inputs is None else X[lr.inputs]  # each layer's input, at every node
    n = A.shape[0]
    cache: dict = {"X": A, "rows": lr, "training": training}

    # Each array below is new, so biases and dropout apply in place.
    for i in range(1, hidden + 1):
        P = A @ w[f"W{i}"]
        if propagate:
            P = spmm(lr.ops[i - 1][0], P)
        if f"b{i}" in w:
            P += w[f"b{i}"]
        D = np.maximum(P, 0.0)
        M = _dropout_mask(rng, D.shape, p.dropout_rate) if training else None
        if training:
            D *= M
        cache.update({f"P{i}": P, f"D{i}": D, f"M{i}": M})
        if i < hidden:
            A = cache[f"A{i + 1}"] = _full(D, lr.hidden[i - 1], n)
    logits = D @ w[f"W{hidden + 1}"]
    logits += w[f"b{hidden + 1}"]

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

    dlogits has one row per logit row of the forward pass: per row of `rows`,
    in ascending order, when it was given. The gradient equals the full-batch
    one with dlogits zero outside `rows`, bit for bit: elementwise work and
    propagation run on each layer's rows, dense products at every node.
    """
    p: ModelParams = cache["params"]
    w = p.weights
    hidden, propagate = _layers(p.arch)
    lr: LayerRows = cache["rows"]
    n = cache["X"].shape[0]
    dlogits = np.asarray(dlogits, dtype=np.float64)
    grads: dict[str, np.ndarray] = {}

    out = hidden + 1
    grads[f"b{out}"] = dlogits.sum(axis=0)
    grads[f"W{out}"] = cache[f"D{hidden}"].T @ dlogits
    dD = dlogits @ w[f"W{out}"].T
    for i in range(hidden, 0, -1):
        dP = dD  # new at each layer, so the masks apply in place
        if cache["training"]:
            dP *= cache[f"M{i}"]
        np.multiply(dP, cache[f"P{i}"] > 0, out=dP)
        if f"b{i}" in w:
            grads[f"b{i}"] = _full(dP, lr.hidden[i - 1], n).sum(axis=0)
        dT = spmm(lr.ops[i - 1][1], dP) if propagate else dP
        grads[f"W{i}"] = cache["X" if i == 1 else f"A{i}"].T @ dT
        if i > 1:
            dD = dT @ w[f"W{i}"].T
            if lr.hidden[i - 2] is not None:
                dD = dD[lr.hidden[i - 2]]
    return grads


def softmax(z: np.ndarray) -> np.ndarray:
    """Row softmax of a 2-D array (cross_entropy keeps its own form: it needs log(denom))."""
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean softmax cross-entropy over rows. Returns (loss, dlogits)."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n, c = logits.shape
    if labels.shape != (n,):
        raise ValueError("labels must hold one class id per row")
    if n == 0:
        raise ValueError("no rows: cross-entropy needs at least one logit row")
    if labels.min() < 0 or labels.max() >= c:
        raise ValueError("label outside logit range")
    at = (np.arange(n), labels)
    shifted = logits - logits.max(axis=1, keepdims=True)
    expz = np.exp(shifted)
    denom = expz.sum(axis=1, keepdims=True)
    # log-probabilities at the labels only; expz becomes the softmax, then dlogits
    loss = float(-(shifted[at] - np.log(denom[:, 0])).mean())
    expz /= denom
    expz[at] -= 1.0
    expz /= n
    return loss, expz


@np.errstate(over="ignore", invalid="ignore")  # non-finite moments and weights raise below
def adam_step(
    p: ModelParams, grads: dict[str, np.ndarray], st: AdamState
) -> tuple[ModelParams, AdamState]:
    """One bias-corrected Adam update; errors on non-finite gradients, second
    moments or weights. A squared gradient that overflows to inf in the
    second moment would otherwise round every later update of its weights to
    zero; a first moment that overflows makes the weights non-finite.

    Each elementwise operation makes one pass over the flat vector of all the
    weights, so the result is the per-weight update bit for bit. The first
    step makes the weights views of one flat vector, st.w; while they stay
    its views, later steps update them in place, so the steps of a training
    session concatenate only the gradients. A step that raises leaves the
    weights and the state as they were. A non-finite value is reported for
    the first key in `grads` order that holds one, checking its gradient,
    then its second moment, then its weights.
    """
    if set(grads) != set(p.weights):
        raise ValueError("gradient keys do not match parameters")
    for k, g in grads.items():
        if g.shape != p.weights[k].shape:
            raise ValueError(f"shape mismatch for {k}")
    g = np.concatenate([grads[k].ravel() for k in p.weights])
    t = st.step + 1
    m = np.multiply(st.m, ADAM_BETA1)
    step = np.multiply(g, 1 - ADAM_BETA1)
    m += step
    v = np.multiply(st.v, ADAM_BETA2)
    np.multiply(g, 1 - ADAM_BETA2, out=step)
    step *= g
    v += step
    # step = lr * mhat / (sqrt(vhat) + eps), reusing g for the denominator
    np.divide(v, 1 - ADAM_BETA2**t, out=g)
    np.sqrt(g, out=g)
    g += ADAM_EPS
    np.divide(m, 1 - ADAM_BETA1**t, out=step)
    step *= st.lr
    step /= g
    fresh = st.w is None or any(x.base is not st.w for x in p.weights.values())
    flat = np.concatenate([x.ravel() for x in p.weights.values()]) if fresh else st.w
    w = np.subtract(flat, step, out=step)
    # A non-finite gradient makes its second moment non-finite, so two checks cover all three.
    finite = np.isfinite(v).all() and np.isfinite(w).all()
    if fresh or not finite:
        ends = itertools.accumulate(x.size for x in p.weights.values())
        spans = {k: slice(end - x.size, end) for (k, x), end in zip(p.weights.items(), ends)}
    if not finite:
        for k in grads:
            for x, msg in ((grads[k], "non-finite gradient for {}"),
                           (v[spans[k]], "non-finite second moment for {}"),
                           (w[spans[k]], "non-finite weights for {} after the update")):
                if not np.isfinite(x).all():
                    raise FloatingPointError(msg.format(k))
    if fresh:
        p.weights.update({k: w[at].reshape(p.weights[k].shape) for k, at in spans.items()})
        st.w = w
    else:
        flat[...] = w
    st.m, st.v, st.step = m, v, t
    return p, st


def init_adam(p: ModelParams, lr: float) -> AdamState:
    size = sum(w.size for w in p.weights.values())
    return AdamState(m=np.zeros(size), v=np.zeros(size), lr=lr)
