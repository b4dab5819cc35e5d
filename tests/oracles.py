"""Independent brute-force re-implementations used as test oracles.

Everything here is written against the math directly (dense matrices,
python loops) and deliberately shares no code with the library paths it
checks.
"""

from __future__ import annotations

import json
import math
import operator
import struct
from dataclasses import dataclass, field

import numpy as np


def dense_adjacency(g, self_loops: bool = True) -> np.ndarray:
    n = g.node_count
    a = np.zeros((n, n))
    for u, v in g.edges:
        a[u, v] = 1.0
        a[v, u] = 1.0
    if self_loops:
        a += np.eye(n)
    return a


def dense_gcn_operator(g) -> np.ndarray:
    a = dense_adjacency(g, self_loops=True)
    d = a.sum(axis=1)
    dinv = np.diag(1.0 / np.sqrt(d))
    return dinv @ a @ dinv


def dense_smoothing_operator(g, weighting: str, self_loops: bool = True) -> np.ndarray:
    a = dense_adjacency(g, self_loops=self_loops)
    d = a.sum(axis=1)
    if weighting == "laplacian":
        with np.errstate(divide="ignore"):
            dis = np.where(d > 0, 1.0 / np.sqrt(d), 0.0)
        return np.diag(dis) @ a @ np.diag(dis)
    with np.errstate(divide="ignore"):
        di = np.where(d > 0, 1.0 / d, 0.0)
    return np.diag(di) @ a


def dense_smooth(g, X: np.ndarray, k: int, weighting: str = "laplacian") -> np.ndarray:
    s = dense_smoothing_operator(g, weighting)
    z = np.asarray(X, dtype=np.float64).copy()
    for _ in range(k):
        z = s @ z
    return z


def smoothing_limit(g, X: np.ndarray) -> np.ndarray:
    """Projection of X onto the top eigenspace of the symmetric operator."""
    s = dense_smoothing_operator(g, "laplacian")
    vals, vecs = np.linalg.eigh(s)
    top = vecs[:, np.isclose(vals, vals.max(), atol=1e-10)]
    return top @ (top.T @ np.asarray(X, dtype=np.float64))


def spectral_radius_power_iteration(dense_s: np.ndarray, iters: int = 500, seed: int = 0) -> float:
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dense_s.shape[0])
    v /= np.linalg.norm(v)
    for _ in range(iters):
        w = dense_s @ v
        nw = np.linalg.norm(w)
        if nw == 0:
            return 0.0
        v = w / nw
    return float(np.linalg.norm(dense_s @ v))


def khop_nodes(g, v: int, depth: int) -> set[int]:
    """All nodes within `depth` hops of v (excluding v), by plain BFS."""
    nbrs = {i: set() for i in range(g.node_count)}
    for a, b in g.edges:
        nbrs[int(a)].add(int(b))
        nbrs[int(b)].add(int(a))
    seen = {v}
    frontier = {v}
    out: set[int] = set()
    for _ in range(depth):
        nxt = set()
        for u in frontier:
            nxt |= nbrs[u] - seen
        out |= nxt
        seen |= nxt
        frontier = nxt
    return out


def group_means(embeddings: np.ndarray, labels) -> dict[int, np.ndarray]:
    """Per-class unweighted mean over all members, selected by python loop."""
    out = {}
    labels = list(int(x) for x in labels)
    for c in sorted(set(labels)):
        rows = [np.asarray(embeddings[i], dtype=np.float64)
                for i, y in enumerate(labels) if y == c]
        out[c] = np.stack(rows).mean(axis=0)
    return out


def cosine_scores(h, protos_by_class: dict[int, np.ndarray], tau: float) -> dict[int, float]:
    h = [float(x) for x in h]
    hn = math.sqrt(sum(x * x for x in h))
    out = {}
    for c, p in sorted(protos_by_class.items()):
        p = [float(x) for x in p]
        pn = math.sqrt(sum(x * x for x in p))
        if hn == 0.0 or pn == 0.0:
            out[c] = 0.0
        else:
            out[c] = tau * sum(a * b for a, b in zip(h, p)) / (hn * pn)
    return out


def argmax_lowest(scores: dict[int, float]) -> int:
    best_c, best_s = None, -math.inf
    for c in sorted(scores):
        if scores[c] > best_s:
            best_c, best_s = c, scores[c]
    return best_c


def nearest_task(query, vectors) -> int:
    best, best_d = 0, math.inf
    for i, v in enumerate(vectors):
        d = math.sqrt(sum((float(a) - float(b)) ** 2 for a, b in zip(query, v)))
        if d < best_d:
            best, best_d = i, d
    return best


def task_prototype_dense(g, nodes, X, k: int, weighting: str) -> np.ndarray:
    nodes = [int(n) for n in nodes]
    X = np.asarray(X, dtype=np.float64)
    if weighting == "plain-mean":
        return np.stack([X[j] for j in nodes]).mean(axis=0)
    z = dense_smooth(g, X, k, "laplacian")
    d = dense_adjacency(g, self_loops=True).sum(axis=1)
    rows = [z[j] / math.sqrt(d[j]) for j in nodes]
    return np.stack(rows).mean(axis=0)


def routed_head_triangle(plan, heads, prototype, k: int, weighting: str) -> list[list[float]]:
    """Local triangle of task-routed MLP heads, routing every cell afresh.

    Cell (i, j) builds each prototype with `prototype(graph, nodes, X, k,
    weighting)`: the train-pool ones of sessions 1..i and the test-pool query
    of session j. The query goes to the nearest train prototype, and that
    session's head (relu(X W1 + b1) W2 + b2, by dense products) labels task
    j's test nodes; a prediction outside task j's classes counts as wrong.
    """
    rows = []
    for i in range(1, plan.num_sessions + 1):
        row = []
        for j in range(1, i + 1):
            protos = [prototype(s.subgraph, s.local_ids(s.train_nodes), s.subgraph.features,
                                k, weighting) for s in plan.sessions[:i]]
            s = plan.sessions[j - 1]
            test = s.local_ids(s.test_nodes)
            query = prototype(s.subgraph, test, s.subgraph.features, k, weighting)
            head = heads[nearest_task(query, protos)]
            w = head.params.weights
            X = np.asarray(s.subgraph.features, dtype=np.float64)[test]
            logits = np.maximum(X @ w["W1"] + w["b1"], 0.0) @ w["W2"] + w["b2"]
            preds = [int(head.class_ids[argmax_lowest(dict(enumerate(r)))]) for r in logits]
            truth = [int(y) for y in s.subgraph.labels[test]]
            row.append(sum(p == y for p, y in zip(preds, truth)) / len(truth))
        rows.append(row)
    return rows


def teen_shift(p_c, base_protos: list[np.ndarray], softmax_T: float, alpha: float) -> np.ndarray:
    def unit(v):
        v = np.asarray(v, dtype=np.float64)
        n = np.linalg.norm(v)
        return v / n if n > 0 else v

    pc = unit(p_c)
    bases = [unit(b) for b in base_protos]
    logits = [softmax_T * float(pc @ b) for b in bases]
    mx = max(logits)
    ws = [math.exp(l - mx) for l in logits]
    tot = sum(ws)
    ws = [w / tot for w in ws]
    shifted = alpha * pc + (1 - alpha) * sum(w * b for w, b in zip(ws, bases))
    return unit(shifted)


def summarize_direct(rows: list[list[float]]) -> dict:
    """AA/AF/mean/final straight from the formulas, on a full triangle."""
    n = len(rows)
    stages = [sum(r) / len(r) for r in rows]
    last = rows[-1]
    aa = sum(last) / n
    af = sum(last[j] - rows[j][j] for j in range(n - 1)) / n
    return {
        "mean_acc": sum(stages) / n,
        "final_acc": stages[-1],
        "aa": aa,
        "af": af,
    }


def fractional_ranks_loop(values: list[float]) -> list[float]:
    """Descending ranks by a walk over the sorted values; each run of equal
    values shares the mean of its 1-based positions."""
    order = sorted(range(len(values)), key=lambda i: -values[i])
    ranks = [0.0] * len(values)
    pos = 0
    while pos < len(order):
        end = pos
        while end + 1 < len(order) and values[order[end + 1]] == values[order[pos]]:
            end += 1
        avg = (pos + end) / 2 + 1
        for t in range(pos, end + 1):
            ranks[order[t]] = avg
        pos = end + 1
    return ranks


def nearest_centroid_accuracy(X: np.ndarray, labels: np.ndarray) -> float:
    """Classify each row by its nearest empirical class centroid."""
    X = np.asarray(X, dtype=np.float64)
    labels = np.asarray(labels)
    classes = sorted(set(int(c) for c in labels))
    cents = {c: X[labels == c].mean(axis=0) for c in classes}
    hits = 0
    for i in range(X.shape[0]):
        dists = {c: float(np.linalg.norm(X[i] - cents[c])) for c in classes}
        pred = min(sorted(dists), key=lambda c: dists[c])
        hits += int(pred == int(labels[i]))
    return hits / X.shape[0]


def local_ids_dict(node_map, original_ids) -> np.ndarray:
    """Session-local ids by a dict over the node map; KeyError for an outside id."""
    lookup = {int(o): i for i, o in enumerate(node_map)}
    return np.array([lookup[int(o)] for o in original_ids], dtype=np.int64)


def neighbor_lists_loop(g) -> list[np.ndarray]:
    """Sorted neighbours per node by a loop over edges; a self-loop is listed once."""
    nbrs: list[list[int]] = [[] for _ in range(g.node_count)]
    for a, b in g.edges:
        nbrs[a].append(int(b))
        if a != b:
            nbrs[b].append(int(a))
    return [np.array(sorted(lst), dtype=np.int64) for lst in nbrs]


def degrees_loop(g, self_loops: bool = True) -> np.ndarray:
    deg = np.zeros(g.node_count, dtype=np.float64)
    for a, b in g.edges:
        deg[a] += 1.0
        if a != b:
            deg[b] += 1.0
    if self_loops:
        deg += 1.0
    return deg


def ego_hops_loop(g, v: int, fanouts, seed: int) -> tuple[tuple[int, ...], ...]:
    """Hop node tuples of the seeded breadth-first ego sample, on the loop neighbour lists."""
    nbrs = neighbor_lists_loop(g)
    rng = np.random.default_rng([operator.index(seed) & 0xFFFFFFFFFFFFFFFF, v])
    visited = {v}
    frontier = [v]
    hops = []
    for cap in fanouts:
        candidates = sorted({int(u) for w in frontier for u in nbrs[w]} - visited)
        if len(candidates) > cap:
            picked = [candidates[i] for i in rng.choice(len(candidates), size=cap, replace=False)]
        else:
            picked = candidates
        hops.append(tuple(picked))
        visited.update(picked)
        frontier = picked
    return tuple(hops)


def sbm_edges_dense(rng, labels, intra_p: float, inter_p: float) -> np.ndarray:
    """Upper-triangle stochastic block model from one dense n x n uniform draw."""
    n = len(labels)
    same = labels[:, None] == labels[None, :]
    p = np.where(same, intra_p, inter_p)
    draw = rng.random((n, n))
    iu, ju = np.triu_indices(n, k=1)
    hit = draw[iu, ju] < p[iu, ju]
    return np.stack([iu[hit], ju[hit]], axis=1).astype(np.int64)


def synth_draws_dense(cfg):
    """`synth_tag`'s random draws, in its stream order, from one dense n x n
    SBM draw and one scalar keyword draw per node: (noise, edges, picks)."""
    rng = np.random.default_rng(cfg.seed)
    n = cfg.num_classes * cfg.nodes_per_class
    labels = np.repeat(np.arange(cfg.num_classes), cfg.nodes_per_class)
    noise = rng.standard_normal((n, cfg.feature_dim))
    edges = sbm_edges_dense(rng, labels, cfg.intra_p, cfg.inter_p)
    picks = [int(rng.integers(2)) for _ in range(n)]
    return noise, edges, picks


def canonical_edges_rows(edges) -> np.ndarray:
    """(min, max) pairs, deduplicated and sorted by a 2-D row-wise unique."""
    e = np.asarray(edges, dtype=np.int64)
    lo, hi = e.min(axis=1), e.max(axis=1)
    return np.unique(np.stack([lo, hi], axis=1), axis=0)


def fisher_diagonal_loop(p, S, X, rows, labels) -> dict[str, np.ndarray]:
    """Fisher diagonal by one full-graph backward pass per row (the reference)."""
    from gclbench.nn import model_backward, model_forward

    rows = np.asarray(rows, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    logits, cache = model_forward(p, S, X, dropout_seed=None)
    shifted = logits - logits.max(axis=1, keepdims=True)
    probs = np.exp(shifted)
    probs /= probs.sum(axis=1, keepdims=True)
    fisher = {k: np.zeros_like(w) for k, w in p.weights.items()}
    for r, y in zip(rows, labels):
        dlogits = np.zeros_like(logits)
        dlogits[r] = probs[r]
        dlogits[r, y] -= 1.0  # gradient of -log p(y); sign vanishes when squared
        g = model_backward(cache, dlogits)
        for k in fisher:
            fisher[k] += g[k] * g[k]
    for k in fisher:
        fisher[k] /= rows.size
    return fisher


def cache_append_loop(path, keys, vecs) -> None:
    """Embedding-cache records appended one open per vector, each written as
    [32-byte key][u32 dim][dim * f32 LE]: the reference for batched appends."""
    import struct

    for key, vec in zip(keys, vecs):
        vec = np.ascontiguousarray(vec, dtype="<f4")
        with open(path, "ab") as fh:
            fh.write(key)
            fh.write(struct.pack("<I", vec.size))
            fh.write(vec.tobytes())


def cache_load_loop(data: bytes) -> tuple[dict[bytes, np.ndarray], int]:
    """Embedding-cache file bytes read one record at a time: (entries in
    insertion order, a later duplicate key overwriting in place; the byte
    length of the complete records, where a truncated tail begins)."""
    import struct

    entries = {}
    off = 0
    while off + 32 + 4 <= len(data):
        (dim,) = struct.unpack_from("<I", data, off + 32)
        end = off + 32 + 4 + dim * 4
        if end > len(data):
            break
        entries[data[off:off + 32]] = np.frombuffer(data, dtype="<f4", count=dim,
                                                    offset=off + 32 + 4).copy()
        off = end
    return entries, off


def layer_fields(arch, S, rows) -> list[np.ndarray]:
    """The rows each hidden layer must run on for the logits at `rows`, in
    layer order: for gcn2_mlp1 the nodes S's rows at `rows` read (their
    neighbours, self-loops included), then `rows`; for mlp2, `rows`."""
    rows = np.asarray(rows, dtype=np.int64)
    return [np.unique(S[rows].indices), rows] if arch == "gcn2_mlp1" else [rows]


def dropout_masks(p, S, n, rows, dropout_seed) -> list[np.ndarray]:
    """Each hidden layer's n-row dropout mask for a training pass that yields
    the logits at `rows`, in layer order. The uniforms on the rows the layer
    runs on (layer_fields) are one block per layer drawn from
    default_rng(dropout_seed), in layer order. Every other row comes from an
    unrelated stream, so a pass that read a mask row outside its layer's rows
    would disagree with one that did not."""
    rng = np.random.default_rng(dropout_seed)
    elsewhere = np.random.default_rng([dropout_seed, 1])
    h = p.weights["W1"].shape[1]
    masks = []
    for at in layer_fields(p.arch, S, rows):
        u = elsewhere.random((n, h))
        u[at] = rng.random((at.size, h))
        masks.append(inverted_dropout(u, p.dropout_rate))
    return masks


def inverted_dropout(u, rate) -> np.ndarray:
    """The inverted-dropout mask for uniforms u in three passes: compare, cast
    to float, divide by the keep probability. The reference for nn's one-pass
    mask."""
    return (u >= rate).astype(np.float64) / (1.0 - rate)


def full_batch_epoch(p, S, X, rows, dl_rows, dropout_seed=None):
    """Gradients of one training epoch over every node: each hidden layer
    runs on all n nodes under dropout_masks, the output layer on `rows`, and
    backward takes dlogits zero outside `rows`. The reference for
    model_forward and model_backward called with rows."""
    rows = np.asarray(rows, dtype=np.int64)
    _, cache = _all_nodes_forward(p, S, np.asarray(X, dtype=np.float64), rows, dropout_seed)
    return _all_nodes_backward(p, S, rows, cache, dl_rows)


def train_session_all_nodes(p, S, X, labels, rows, epochs, lr, seed=0, distill=None):
    """train_session for a gcn2_mlp1 model as it ran before its layers were
    cut to the train rows' receptive field: every epoch runs both GCN layers
    over every node, under dropout_masks, and only the output layer on
    `rows`. The reference that train_session's weights must equal bit for
    bit."""
    from gclbench.nn import cross_entropy
    from gclbench.trainers import _mix, distill_loss

    p = p.copy()
    rows = np.asarray(rows, dtype=np.int64)
    X = np.asarray(X, dtype=np.float64)
    if distill is not None:
        old_logits, _ = _all_nodes_forward(distill.frozen, S, X, rows, None)
    st = PerKeyAdam.start(p, lr)
    for epoch in range(epochs):
        logits, cache = _all_nodes_forward(p, S, X, rows, _mix(seed, epoch))
        _, dlogits = cross_entropy(logits, labels)
        if distill is not None:
            dlogits = dlogits + distill_loss(logits, old_logits,
                                             distill.temperature, distill.weight)[1]
        p, st = adam_step_per_key(p, _all_nodes_backward(p, S, rows, cache, dlogits), st)
    return p


@dataclass
class PerKeyAdam:
    """Adam moments kept per weight key, each an array of its weight's shape."""

    m: dict
    v: dict
    lr: float
    step: int = 0

    @classmethod
    def start(cls, p, lr: float) -> "PerKeyAdam":
        return cls({k: np.zeros_like(w) for k, w in p.weights.items()},
                   {k: np.zeros_like(w) for k, w in p.weights.items()}, lr)


@np.errstate(over="ignore", invalid="ignore")
def adam_step_per_key(p, grads, st: PerKeyAdam):
    """nn.adam_step one weight key at a time, in `grads` order: for each key the
    gradient check, its moments, the second-moment check, its update and the
    weights check. The reference that the flat-vector step must equal bit for
    bit, and whose first error message it must raise."""
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    if set(grads) != set(p.weights):
        raise ValueError("gradient keys do not match parameters")
    st.step += 1
    t = st.step
    for k, g in grads.items():
        if g.shape != p.weights[k].shape:
            raise ValueError(f"shape mismatch for {k}")
        if not np.isfinite(g).all():
            raise FloatingPointError(f"non-finite gradient for {k}")
        st.m[k] = beta1 * st.m[k] + (1 - beta1) * g
        st.v[k] = beta2 * st.v[k] + (1 - beta2) * g * g
        if not np.isfinite(st.v[k]).all():
            raise FloatingPointError(f"non-finite second moment for {k}")
        mhat = st.m[k] / (1 - beta1**t)
        vhat = st.v[k] / (1 - beta2**t)
        p.weights[k] = p.weights[k] - st.lr * mhat / (np.sqrt(vhat) + eps)
        if not np.isfinite(p.weights[k]).all():
            raise FloatingPointError(f"non-finite weights for {k} after the update")
    return p, st


def _hidden(p) -> tuple[tuple[int, ...], bool]:
    # (hidden layer ids, whether they propagate over S)
    return ((1, 2), True) if p.arch == "gcn2_mlp1" else ((1,), False)


def _all_nodes_forward(p, S, X, rows, dropout_seed):
    w = p.weights
    layers, propagate = _hidden(p)
    masks = None if dropout_seed is None else dropout_masks(p, S, X.shape[0], rows, dropout_seed)
    D = X
    cache = {"D0": X}
    for i in layers:
        P = D @ w[f"W{i}"]
        if propagate:
            P = np.asarray(S @ P)
        if f"b{i}" in w:
            P = P + w[f"b{i}"]
        H = np.maximum(P, 0.0)
        M = None if masks is None else masks[i - 1]
        D = H if M is None else H * M
        cache.update({f"P{i}": P, f"D{i}": D, f"M{i}": M})
    out = len(layers) + 1
    cache["D_out"] = D[rows]
    return cache["D_out"] @ w[f"W{out}"] + w[f"b{out}"], cache


def _all_nodes_backward(p, S, rows, cache, dlogits):
    w = p.weights
    layers, propagate = _hidden(p)
    out = len(layers) + 1
    grads = {f"b{out}": dlogits.sum(axis=0), f"W{out}": cache["D_out"].T @ dlogits}
    dD = np.zeros_like(cache[f"D{len(layers)}"])
    dD[rows] = dlogits @ w[f"W{out}"].T
    for i in reversed(layers):
        dH = dD if cache[f"M{i}"] is None else dD * cache[f"M{i}"]
        dP = dH * (cache[f"P{i}"] > 0)
        if f"b{i}" in w:
            grads[f"b{i}"] = dP.sum(axis=0)
        dT = np.asarray(S.T @ dP) if propagate else dP
        grads[f"W{i}"] = cache[f"D{i - 1}"].T @ dT
        dD = dT @ w[f"W{i}"].T
    return grads


def model_forward_dense(p, S_dense, X) -> tuple[np.ndarray, np.ndarray]:
    """Evaluation-mode (logits, last hidden layer) straight from the formulas
    in the ModelParams docstring, with a dense operator:

        gcn2_mlp1: logits = ReLU(S @ ReLU(S @ X @ W1 [+ b1]) @ W2 [+ b2]) @ W3 + b3
        mlp2:      logits = ReLU(X @ W1 + b1) @ W2 + b2
    """
    w = p.weights
    X = np.asarray(X, dtype=np.float64)
    if p.arch == "gcn2_mlp1":
        h1 = np.maximum(S_dense @ X @ w["W1"] + w.get("b1", 0.0), 0.0)
        h2 = np.maximum(S_dense @ h1 @ w["W2"] + w.get("b2", 0.0), 0.0)
        return h2 @ w["W3"] + w["b3"], h2
    if p.arch == "mlp2":
        h1 = np.maximum(X @ w["W1"] + w["b1"], 0.0)
        return h1 @ w["W2"] + w["b2"], h1
    raise ValueError(f"unknown arch {p.arch!r}")


@dataclass
class GradCheckReport:
    max_rel_error: float
    tolerance: float
    passed: bool
    coords_checked: int
    per_param: dict[str, float] = field(default_factory=dict)


def finite_diff_check(
    loss_fn,
    p,
    tolerance: float = 1e-4,
    h: float = 1e-5,
    coords_per_param: int = 24,
    seed: int = 0,
) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    `loss_fn(params) -> (loss, grads)` must be deterministic (no dropout).
    A seeded coordinate sample per parameter keeps the check cheap.
    """
    rng = np.random.default_rng(seed)
    _, grads = loss_fn(p)
    max_rel = 0.0
    checked = 0
    per_param: dict[str, float] = {}
    for name, w in p.weights.items():
        flat_n = w.size
        take = min(coords_per_param, flat_n)
        coords = rng.choice(flat_n, size=take, replace=False)
        worst = 0.0
        for c in coords:
            idx = np.unravel_index(c, w.shape)
            orig = w[idx]
            w[idx] = orig + h
            lp, _ = loss_fn(p)
            w[idx] = orig - h
            lm, _ = loss_fn(p)
            w[idx] = orig
            numeric = (lp - lm) / (2 * h)
            analytic = grads[name][idx]
            rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-6)
            worst = max(worst, rel)
            checked += 1
        per_param[name] = worst
        max_rel = max(max_rel, worst)
    return GradCheckReport(
        max_rel_error=max_rel,
        tolerance=tolerance,
        passed=max_rel < tolerance,
        coords_checked=checked,
        per_param=per_param,
    )


def _no_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def results_strict(data: bytes):
    """The run documents of a results file's bytes, or None where a rule breaks.

    The file is UTF-8, strict JSON (no NaN or Infinity literal) and a list of
    objects. Each has object fields run, matrix and summary; run a string method
    and dataset, and an object grid_point if any; matrix a mode, local or
    global, and one or more rows of JSON numbers (int or float, never bool) in
    [0, 1], row i holding i + 1 entries (local) or one (global); summary
    exactly {mean_acc, final_acc, aa, af} of that matrix, with no bool value.
    """
    try:
        docs = json.loads(data.decode("utf-8"), parse_constant=_no_constant)
    except ValueError:
        return None
    if not isinstance(docs, list):
        return None
    for doc in docs:
        if not (isinstance(doc, dict)
                and all(isinstance(doc.get(k), dict) for k in ("run", "matrix", "summary"))):
            return None
        run, matrix, summary = doc["run"], doc["matrix"], doc["summary"]
        if not (isinstance(run.get("method"), str) and isinstance(run.get("dataset"), str)):
            return None
        if "grid_point" in run and not isinstance(run["grid_point"], dict):
            return None
        mode, rows = matrix.get("mode"), matrix.get("rows")
        if mode not in ("local", "global") or not isinstance(rows, list) or not rows:
            return None
        for i, row in enumerate(rows):
            if not (isinstance(row, list) and len(row) == (i + 1 if mode == "local" else 1)
                    and all(type(x) in (int, float) and 0 <= x <= 1 for x in row)):
                return None
        rows = [[float(x) for x in row] for row in rows]
        n = len(rows)
        if mode == "local":
            stages = [float(np.mean(row)) for row in rows]
            aa = float(np.sum(rows[-1]) / n)
            af = float(sum(rows[-1][j] - rows[j][j] for j in range(n - 1)) / n)
        else:
            stages, aa, af = [row[0] for row in rows], None, None
        want = {"mean_acc": float(np.mean(stages)), "final_acc": stages[-1], "aa": aa, "af": af}
        if summary != want or any(isinstance(v, bool) for v in summary.values()):
            return None
    return docs


_BASE64 = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"


def _base64_loop(text: str) -> bytes | None:
    """RFC 4648 base64, six bits per character; None for any other text.

    The length is a multiple of 4, with at most two trailing '=' and no other
    character outside the alphabet. Bits left over after the last whole byte
    are dropped, whatever their value.
    """
    digits = text.rstrip("=")
    if len(text) % 4 or len(text) - len(digits) > 2 or any(c not in _BASE64 for c in digits):
        return None
    bits = "".join(format(_BASE64.index(c), "06b") for c in digits)
    return bytes(int(bits[i:i + 8], 2) for i in range(0, len(bits) - 7, 8))


def provider_reply_strict(data: bytes, expected: int) -> np.ndarray | None:
    """The float32 rows of an embeddings reply body, or None where a rule breaks.

    The body is UTF-8, strict JSON (no NaN or Infinity literal) and an object
    whose "data" is a list of `expected` objects. Each has an "index", a JSON
    integer (never bool) in [0, expected), each index once, and an
    "embedding": either base64 of little-endian float32 bytes or a list of
    JSON numbers, each rounded to float32 without overflow. Every vector is
    non-empty, finite and of one length. Row i is the vector of index i.
    """
    try:
        doc = json.loads(data.decode("utf-8"), parse_constant=_no_constant)
    except ValueError:
        return None
    items = doc.get("data") if isinstance(doc, dict) else None
    if not isinstance(items, list) or len(items) != expected:
        return None
    rows = {}
    for item in items:
        if not isinstance(item, dict) or "index" not in item or "embedding" not in item:
            return None
        idx, emb = item["index"], item["embedding"]
        if type(idx) is not int or not 0 <= idx < expected or idx in rows:
            return None
        if isinstance(emb, str):
            raw = _base64_loop(emb)
            if raw is None or len(raw) % 4:
                return None
            vec = [struct.unpack("<f", raw[i:i + 4])[0] for i in range(0, len(raw), 4)]
        elif isinstance(emb, list) and all(type(x) in (int, float) for x in emb):
            try:
                vec = [struct.unpack("<f", struct.pack("<f", x))[0] for x in emb]
            except OverflowError:  # beyond float32's range
                return None
        else:
            return None
        if not vec or not all(math.isfinite(x) for x in vec):
            return None
        rows[idx] = vec
    if len({len(v) for v in rows.values()}) != 1:
        return None
    return np.array([rows[i] for i in range(expected)], dtype=np.float32)
