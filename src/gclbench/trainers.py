"""Sequential continual-learning methods over the numerics core.

Covers plain fine-tuning, EWC (online Fisher), LwF distillation, frozen-GNN
prototype classifiers (with optional TEEN calibration), provider-embedding
prototype classifiers, and task-prototype-routed per-session MLP heads. One
run walks the session sequence once and records an accuracy matrix.
"""

from __future__ import annotations

import hashlib
import json
import time
import weakref
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .config import resolve_point
from .embeddings import EmbeddingCache, FileSource, HttpSource, get_or_embed
from .evaluation import (
    AccuracyMatrix,
    evaluate,
    lenient_accuracy,
    summarize,
)
from .graph import gcn_normalized_adjacency, sample_ego_graph
from .nn import (
    ARCH_GCN,
    ARCH_MLP,
    ModelParams,
    adam_step,
    cross_entropy,
    grow_output,
    init_adam,
    init_params,
    layer_rows,
    model_backward,
    model_embed,
    model_forward,
    softmax,
    spmm,
)
from .prompts import default_template, render_prompt
from .prototypes import (
    PrototypeBank,
    TaskPrototypeSet,
    build_prototypes,
    classify_batch,
    predict_task_id,
    task_prototype,
    teen_calibrate,
)
from .sessions import GLOBAL, EvalTask, Session, SessionPlan, build_eval_task


class TrainingError(RuntimeError):
    pass


def _mix(*parts: int) -> int:
    """Stable derived seed from integer parts, each taken as 64-bit two's complement.

    Negative parts thus differ from their absolute values: _mix(-s) != _mix(s).
    """
    words = [int(p) & 0xFFFFFFFFFFFFFFFF for p in parts]
    return int(np.random.SeedSequence(words).generate_state(1)[0])


def _once(memo: dict, obj, compute):
    """compute(obj), computed once while obj lives. memo maps id(obj) to (weak reference,
    value): another object never hits, even one that reuses a dead object's id(), and an
    object the caller drops takes its entry with it."""
    key = id(obj)
    ref, value = memo.get(key, (None, None))
    if ref is None or ref() is not obj:
        value = compute(obj)
        memo[key] = (weakref.ref(obj, lambda _: memo.pop(key, None)), value)
    return value


# ---------------------------------------------------------------------------
# Regularizers
# ---------------------------------------------------------------------------


@dataclass
class EwcAnchor:
    """Post-session parameter snapshot with a running Fisher diagonal."""

    params_star: dict[str, np.ndarray]
    fisher: dict[str, np.ndarray]
    strength: float

    def __post_init__(self):
        if not self.strength >= 0:
            raise ValueError("strength must be >= 0")
        for k, f in self.fisher.items():
            if (f < 0).any():
                raise ValueError(f"negative Fisher entry in {k}")


@dataclass
class DistillSource:
    """Frozen pre-session model for logit distillation."""

    frozen: ModelParams
    temperature: float
    weight: float

    def __post_init__(self):
        if not self.temperature > 0:
            raise ValueError("temperature must be > 0")
        if not self.weight >= 0:
            raise ValueError("weight must be >= 0")


def ewc_penalty(p: ModelParams, anchor: EwcAnchor) -> tuple[float, dict[str, np.ndarray]]:
    """loss = strength * sum F (theta - theta*)^2, grad = 2 strength F (theta - theta*)."""
    loss = 0.0
    grads: dict[str, np.ndarray] = {}
    for k, w in p.weights.items():
        if anchor.params_star[k].shape != w.shape:
            raise ValueError(f"anchor shape mismatch for {k}")
        delta = w - anchor.params_star[k]
        f = anchor.fisher[k]
        loss += float(anchor.strength * np.sum(f * delta * delta))
        grads[k] = 2.0 * anchor.strength * f * delta
    return loss, grads


@np.errstate(over="ignore", invalid="ignore")  # a non-finite entry raises below
def fisher_diagonal(
    p: ModelParams,
    S,
    X: np.ndarray,
    rows: np.ndarray,
    labels: np.ndarray,
) -> dict[str, np.ndarray]:
    """Mean over samples of the squared per-sample log-likelihood gradient.

    One eval-mode forward pass, then each row's gradient in closed form
    (per-example gradients; Goodfellow, arXiv:1510.01799). For row r with
    v = p_r - e_y, m1 = (P1 > 0) and S_R = S[rows]:

        b3: v                     W3: D2[r] (x) v
        b2: dP2 = (v W3^T) * (P2[r] > 0)
        W2: (S_R D1)[r] (x) dP2   u = dP2 W2^T
        b1: (S_R m1)[r] * u       W1: G_r * u,  G_r = sum_j S[r, j] (S X)[j] (x) m1[j]

    S need not be symmetric. G_r (d x h) is built one row at a time, so no
    (rows, d, h) array is held. An entry that overflows raises
    FloatingPointError.
    """
    rows = np.asarray(rows, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if rows.size == 0:
        raise ValueError("empty session: no rows for Fisher estimation")
    if p.arch != ARCH_GCN:
        raise ValueError(f"fisher_diagonal needs a {ARCH_GCN} model, not {p.arch!r}")
    logits, cache = model_forward(p, S, X, dropout_seed=None)
    w = p.weights
    # Gradient of -log p(y) w.r.t. each row's logits; its sign vanishes when squared.
    v = softmax(logits[rows])
    v[np.arange(rows.size), labels] -= 1.0
    dP2 = (v @ w["W3"].T) * (cache["P2"][rows] > 0)
    u = dP2 @ w["W2"].T
    m1 = (cache["P1"] > 0).astype(np.float64)
    S_R = S[rows].tocsr()
    sq_v, sq_dP2, sq_u = v * v, dP2 * dP2, u * u
    fisher = {
        "b3": sq_v.sum(axis=0),
        "W3": (cache["D2"][rows] ** 2).T @ sq_v,
        "W2": (spmm(S_R, cache["D1"]) ** 2).T @ sq_dP2,
        "W1": np.zeros_like(w["W1"]),
    }
    if "b2" in w:
        fisher["b2"] = sq_dP2.sum(axis=0)
    if "b1" in w:
        fisher["b1"] = ((spmm(S_R, m1) * u) ** 2).sum(axis=0)
    SX = spmm(S, cache["X"])
    for i in range(rows.size):
        lo, hi = S_R.indptr[i], S_R.indptr[i + 1]
        nbrs = S_R.indices[lo:hi]
        G = (SX[nbrs] * S_R.data[lo:hi, None]).T @ m1[nbrs]
        fisher["W1"] += G * G * sq_u[i]
    for k in w:
        if not np.isfinite(fisher[k]).all():
            raise FloatingPointError(f"non-finite Fisher entry for {k}")
    return {k: fisher[k] / rows.size for k in w}


def distill_loss(
    new_logits: np.ndarray,
    old_logits: np.ndarray,
    temperature: float,
    weight: float,
) -> tuple[float, np.ndarray]:
    """weight * T^2 * KL(softmax(old/T) || softmax(new/T)) over the old classes.

    They are new_logits' first old_logits.shape[1] columns. Returns the
    row-averaged loss and its gradient w.r.t. new_logits (zero elsewhere).
    """
    T = temperature
    m = old_logits.shape[1]
    po = softmax(old_logits / T)
    qn = softmax(new_logits[:, :m] / T)
    n = new_logits.shape[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        logratio = np.where(po > 0, np.log(po) - np.log(qn), 0.0)
    kl = float((po * logratio).sum(axis=1).mean())
    loss = weight * T * T * kl
    dl = np.zeros_like(new_logits)
    dl[:, :m] = weight * T * (qn - po) / n
    return loss, dl


# ---------------------------------------------------------------------------
# Session training loop
# ---------------------------------------------------------------------------


def train_session(
    p: ModelParams,
    S,
    X: np.ndarray,
    labels: np.ndarray,
    train_rows: np.ndarray,
    epochs: int,
    lr: float,
    anchor: EwcAnchor | None = None,
    distill: DistillSource | None = None,
    seed: int = 0,
) -> ModelParams:
    """Full-batch Adam over one session's labeled nodes.

    `train_rows` are strictly increasing row ids of X, and `labels` are
    head-column indices aligned with them. `lr` must be positive and `epochs`
    non-negative; zero epochs return the weights unchanged. The objective
    is the cross-entropy, plus ewc_penalty(p, anchor) when an EWC anchor is
    given, plus distill_loss against distill.frozen's logits on the train rows
    when a distillation source is given. The frozen logits are computed once;
    their columns are the head's first ones, because nn.grow_output appends
    new classes on the right. Deterministic under a fixed seed. A
    non-finite loss, forward pass, gradient or Adam step raises TrainingError
    naming the epoch.

    Each forward pass computes the train rows' logits only (model_forward's
    `rows`, with the layers' rows and operators built once here): an mlp2
    model reads only X's train rows, gathered once here, and a GCN's layers
    run only on the train rows' receptive field, with weights bit-identical
    to a pass over every node that uses the same dropout masks on the
    field's rows. Each mask is drawn for its layer's rows only, so the train
    rows steer the random stream. The weights are views of one flat vector
    for the whole session (see nn.adam_step).
    """
    if not lr > 0:
        raise ValueError(f"learning rate must be positive, got {lr!r}")
    if epochs < 0:
        raise ValueError(f"epochs must be non-negative, got {epochs!r}")
    if np.size(train_rows) == 0:
        raise ValueError("empty session: no train rows")
    p = p.copy()
    labels = np.asarray(labels, dtype=np.int64)
    X = np.asarray(X, dtype=np.float64)
    rows = layer_rows(p.arch, S, train_rows)
    if rows.inputs is not None:
        X, rows = X[rows.inputs], replace(rows, inputs=None)
    if distill is not None:
        old_logits, _ = model_forward(distill.frozen, S, X, dropout_seed=None, rows=rows)
    st = init_adam(p, lr)
    for epoch in range(epochs):
        try:
            dropout_seed = _mix(seed, epoch)
            logits, cache = model_forward(p, S, X, dropout_seed=dropout_seed, rows=rows)
            loss, dlogits = cross_entropy(logits, labels)
            if anchor is not None:
                penalty, g_ewc = ewc_penalty(p, anchor)
                loss += penalty
            if distill is not None:
                dloss, dl_distill = distill_loss(logits, old_logits, distill.temperature,
                                                 distill.weight)
                loss += dloss
                dlogits = dlogits + dl_distill
            if not np.isfinite(loss):
                raise FloatingPointError("non-finite loss")
            grads = model_backward(cache, dlogits)
            if anchor is not None:
                grads = {k: g + g_ewc[k] for k, g in grads.items()}
            p, st = adam_step(p, grads, st)
        except FloatingPointError as exc:
            raise TrainingError(f"{exc} at epoch {epoch}") from exc
    return p


# ---------------------------------------------------------------------------
# Task-specific MLP heads routed by task-ID prediction
# ---------------------------------------------------------------------------


@dataclass
class TaskHead:
    params: ModelParams
    class_ids: np.ndarray  # head column -> original class id
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def predict(self, task: EvalTask) -> np.ndarray:
        """Original class id of the top-scoring head column, one per eval node (once per task)."""
        return _once(self._memo, task, self._predict)

    def _predict(self, task: EvalTask) -> np.ndarray:
        feats = task.graph.features[task.eval_nodes]
        logits, _ = model_forward(self.params, None, feats, dropout_seed=None)
        return self.class_ids[np.argmax(logits, axis=1)]


# The config keys each shared fit reads (see _Runner._fit_once).
_HEAD_FIT = ("hidden_dim", "dropout", "epochs", "lr")
_GCN_FIT = _HEAD_FIT + ("conv_bias",)


def _fit_head(plan: SessionPlan, session_idx: int, config: dict, seed: int) -> TaskHead:
    s = plan.sessions[session_idx]
    feats = s.subgraph.features
    class_ids = np.array(sorted(s.class_ids), dtype=np.int64)
    rows, labels = _train_columns(s, class_ids)
    p = init_params(ARCH_MLP, in_dim=feats.shape[1], hidden_dim=config["hidden_dim"],
                    num_classes=len(class_ids), seed=_mix(seed, 7, session_idx),
                    dropout_rate=config["dropout"])
    p = train_session(p, None, feats, labels, rows, epochs=config["epochs"],
                      lr=config["lr"], seed=_mix(seed, 11, session_idx))
    return TaskHead(params=p, class_ids=class_ids)


def _fit_gcn(plan: SessionPlan, session_idx: int, config: dict, seed: int) -> ModelParams:
    """A fresh GCN trained on one session, as plain fine-tuning trains session 1."""
    s = plan.sessions[session_idx]
    X = s.subgraph.features
    rows, labels = _train_columns(s, s.class_ids)
    p = init_params(ARCH_GCN, in_dim=X.shape[1], hidden_dim=config["hidden_dim"],
                    num_classes=len(s.class_ids), seed=_mix(seed, 1),
                    dropout_rate=config["dropout"], conv_bias=config["conv_bias"])
    return train_session(p, gcn_normalized_adjacency(s.subgraph), X, labels, rows,
                         epochs=config["epochs"], lr=config["lr"],
                         seed=_mix(seed, 3, session_idx + 1))


def _train_columns(s: Session, head_classes) -> tuple[np.ndarray, np.ndarray]:
    """Subgraph ids of a session's train nodes and the head column of each one's class."""
    col_of = {int(c): j for j, c in enumerate(head_classes)}
    rows = s.local_ids(s.train_nodes)
    return rows, np.array([col_of[int(s.subgraph.labels[r])] for r in rows], dtype=np.int64)


# ---------------------------------------------------------------------------
# Method runners
# ---------------------------------------------------------------------------


class _Runner:
    """A method over one plan: fit_session(i) trains on session i (1-based),
    predict(task) labels the task's eval nodes. Hyperparameters the caller
    leaves out come from config.DEFAULT_HYPERS; resolve_point checks each value
    by its config rule, so a runner reads them as they are."""

    lenient = False

    def __init__(self, plan: SessionPlan, config: dict, seed: int):
        self.plan = plan
        self.config = resolve_point(config)
        self.seed = seed
        self._memo: dict = {}  # per-task work, through _once
        self.fits: dict = {}  # walk() gives all its runners one dict

    def _fit_once(self, fit, session_idx: int, keys: tuple):
        """fit(plan, session_idx, hp, seed), computed once per (fit, session_idx, seed, hp)
        among the runners that share self.fits; hp holds only the config's `keys`, so the
        key covers every value the fit reads. The result is shared: never update it in place."""
        hp = {k: self.config[k] for k in keys}
        key = (fit, session_idx, self.seed, *hp.items())
        if key not in self.fits:
            self.fits[key] = fit(self.plan, session_idx, hp, self.seed)
        return self.fits[key]


class _GcnFamily(_Runner):
    """Sequential GCN fine-tuning; the EWC and LwF terms run when their weights are > 0."""

    def __init__(self, plan: SessionPlan, config: dict, seed: int,
                 use_ewc: bool = False, use_lwf: bool = False):
        super().__init__(plan, config, seed)
        self.params: ModelParams | None = None
        self.head_classes: list[int] = []
        self.anchor: EwcAnchor | None = None
        self.strength = self.config["strength"] if use_ewc else 0.0
        self.lwf_weight = self.config["lwf_lambda"] if use_lwf else 0.0
        self.lwf_T = self.config["lwf_T"]

    def fit_session(self, i: int) -> None:
        s = self.plan.sessions[i - 1]
        S, X = gcn_normalized_adjacency(s.subgraph), s.subgraph.features
        new_classes = [c for c in s.class_ids if c not in self.head_classes]
        self.head_classes.extend(new_classes)
        rows, labels = _train_columns(s, self.head_classes)
        if self.params is None:  # session 1: no EWC anchor and no LwF source, so shared
            self.params = self._fit_once(_fit_gcn, 0, _GCN_FIT)
        else:
            frozen_before = self.params  # grow_output and train_session return new params
            self.params = grow_output(self.params, len(new_classes), seed=_mix(self.seed, 2, i))
            if self.anchor is not None:
                self.anchor = replace(self.anchor,
                                      params_star=_pad_all(self.anchor.params_star, self.params),
                                      fisher=_pad_all(self.anchor.fisher, self.params))
            source = (DistillSource(frozen_before, self.lwf_T, self.lwf_weight)
                      if self.lwf_weight > 0 else None)
            self.params = train_session(
                self.params, S, X, labels, rows,
                epochs=self.config["epochs"],
                lr=self.config["lr"],
                anchor=self.anchor,  # set only when strength > 0
                distill=source,
                seed=_mix(self.seed, 3, i),
            )

        if self.strength > 0:
            fisher = fisher_diagonal(self.params, S, X, rows, labels)
            if self.anchor is not None:
                # Online EWC: one running Fisher sum, latest anchor.
                fisher = {k: self.anchor.fisher[k] + fisher[k] for k in fisher}
            self.anchor = EwcAnchor(
                params_star={k: v.copy() for k, v in self.params.weights.items()},
                fisher=fisher,
                strength=self.strength,
            )

    def predict(self, task: EvalTask) -> np.ndarray:
        S = gcn_normalized_adjacency(task.graph)
        logits, _ = model_forward(self.params, S, task.graph.features, dropout_seed=None)
        head = np.array(self.head_classes)
        col_mask = np.isin(head, np.array(task.class_ids))
        masked = np.where(col_mask, logits[task.eval_nodes], -np.inf)
        return head[np.argmax(masked, axis=1)]


def _pad_all(old: dict[str, np.ndarray], p: ModelParams) -> dict[str, np.ndarray]:
    """Each array of `old` zero-padded to the shape of p's weight of the same key."""
    out = {k: np.zeros_like(w) for k, w in p.weights.items()}
    for k, buf in out.items():
        buf[tuple(map(slice, old[k].shape))] = old[k]
    return out


class _Prototypes(_Runner):
    """Training-free class prototypes over an embedding of the nodes.

    fit_session(i) adds one prototype per class of session i, from its train
    rows; predict(task) labels each eval node with the most cosine-similar
    prototype among the task's classes. A subclass supplies
    `_embed(graph, rows, node_sources, class_ids, stage_seed)`: the embedding
    rows of `rows` (ids local to `graph`), given each local id's original id,
    the class ids a prompt may name and a seed for this stage.

    The embedder is frozen by the time predict runs: a frozen GCN trains in
    fit_session(1) only, and a provider vector is a pure function of its
    prompt, which the task's graph, eval nodes, class ids and stage seed fix.
    So predict embeds each task object once (_once) and keeps its rows while
    the task lives; a later call re-classifies them against the grown bank.
    """

    def __init__(self, plan: SessionPlan, config: dict, seed: int, sample_num: int):
        super().__init__(plan, config, seed)
        self.bank = PrototypeBank(temperature=self.config["tau"])
        self.sample_num = self.config.get("sample_num", sample_num)

    def fit_session(self, i: int) -> None:
        s = self.plan.sessions[i - 1]
        rows = s.local_ids(s.train_nodes)
        emb = self._embed(s.subgraph, rows, s.node_map,
                          self.plan.cumulative_classes(i), _mix(self.seed, 21, i))
        build_prototypes(
            self.bank, emb, s.subgraph.labels[rows],
            sample_num=self.sample_num, seed=_mix(self.seed, 5, i),
        )

    def predict(self, task: EvalTask) -> np.ndarray:
        emb = _once(self._memo, task, lambda t: self._embed(
            t.graph, t.eval_nodes, t.node_sources, t.class_ids,
            _mix(self.seed, 23, t.session_index)))
        return classify_batch(self.bank.subset(task.class_ids), emb)


class _FrozenGnnPrototypes(_Prototypes):
    """Train once on session 1, then prototypes of the frozen GCN's embeddings."""

    def __init__(self, plan: SessionPlan, config: dict, seed: int, use_teen: bool = False):
        super().__init__(plan, config, seed, sample_num=100)
        self.use_teen = use_teen
        self.params: ModelParams | None = None

    def _embed(self, graph, rows, node_sources, class_ids, stage_seed):
        return model_embed(self.params, gcn_normalized_adjacency(graph), graph.features)[rows]

    def fit_session(self, i: int) -> None:
        if i == 1:  # the session-1 GCN that plain fine-tuning trains first
            self.params = self._fit_once(_fit_gcn, 0, _GCN_FIT)
        super().fit_session(i)
        if self.use_teen and i > 1:
            teen_calibrate(
                self.bank,
                base_classes=self.plan.sessions[0].class_ids,
                novel_classes=self.plan.sessions[i - 1].class_ids,
                softmax_T=self.config["softmax_T"],
                shift_weight=self.config["shift_weight"],
            )


class _ProviderPrototypes(_Prototypes):
    """Prototypes over provider embeddings (text or ego prompt)."""

    def __init__(self, plan: SessionPlan, config: dict, seed: int,
                 prompt_mode: str, dataset_name: str):
        super().__init__(plan, config, seed, sample_num=50 if prompt_mode == "ego" else 20)
        self.prompt_mode = prompt_mode  # "text" | "ego"
        self.fanouts = tuple(self.config["fanouts"])
        self.source = make_embedding_source(self.config.get("provider"))
        self.cache = (None if isinstance(self.source, FileSource)
                      else EmbeddingCache(self.config.get("cache_path", "embeddings.cache.bin")))
        self.template = default_template(dataset_name, len(self.fanouts),
                                         self.config["max_node_text_len"])

    def _embed(self, graph, rows, node_sources, class_ids, stage_seed):
        if isinstance(self.source, FileSource):
            return self.source.embed_nodes(node_sources[rows])
        names = [self.plan.graph.class_names[c] for c in class_ids]

        def renderer(local: int) -> str:
            if self.prompt_mode == "text":
                return graph.texts[local]
            ego = sample_ego_graph(graph, local, self.fanouts, stage_seed)
            return render_prompt(ego, self.template, names)

        return get_or_embed(self.source, rows, renderer, self.cache)


class _RoutedHeads(_Runner):
    """Per-session MLP heads behind task-prototype routing.

    A query node set goes to the session whose stored train prototype is
    nearest its own; that session's head then predicts among its own classes
    only (the class-incremental -> task-incremental collapse this measures).
    A session's prototype is the task_prototype of its train nodes, a task's
    query that of its eval nodes, computed once per task.
    """

    lenient = True  # misrouted predictions fall outside local class sets

    def __init__(self, plan: SessionPlan, config: dict, seed: int, weighting: str):
        super().__init__(plan, config, seed)
        self.k = self.config["k_smooth"]
        self.weighting = weighting
        self.heads: list[TaskHead] = []
        self.protos = TaskPrototypeSet()

    def fit_session(self, i: int) -> None:
        s = self.plan.sessions[i - 1]
        self.heads.append(self._fit_once(_fit_head, i - 1, _HEAD_FIT))
        self.protos.add(task_prototype(s.subgraph, s.local_ids(s.train_nodes),
                                       s.subgraph.features, self.k, self.weighting))

    def route(self, task: EvalTask) -> int:
        """0-based session whose train prototype is nearest the task's query prototype."""
        query = _once(self._memo, task, lambda t: task_prototype(
            t.graph, t.eval_nodes, t.graph.features, self.k, self.weighting))
        return predict_task_id(query, self.protos)

    def predict(self, task: EvalTask) -> np.ndarray:
        return self.heads[self.route(task)].predict(task)


# ---------------------------------------------------------------------------
# Orchestration
# ---------------------------------------------------------------------------


def make_embedding_source(cfg: dict | None):
    """The source a provider config names; the config's `provider` rule has checked it."""
    if cfg is None:
        raise TrainingError("embedding-based method needs a provider config")
    if cfg["kind"] == "file":
        return FileSource(matrix_path=cfg["matrix"], index_path=cfg["index"])
    sizes = {k: cfg[k] for k in ("batch_size", "max_in_flight") if k in cfg}
    return HttpSource(endpoint=cfg["endpoint"], model=cfg.get("model", "stub"), **sizes)


# method id -> runner constructor (plan, config, seed, dataset); METHOD_IDS
# lists the ids in this order.
_RUNNERS = {
    "gcn": lambda p, c, s, d: _GcnFamily(p, c, s),
    "ewc": lambda p, c, s, d: _GcnFamily(p, c, s, use_ewc=True),
    "lwf": lambda p, c, s, d: _GcnFamily(p, c, s, use_lwf=True),
    "cosine": lambda p, c, s, d: _FrozenGnnPrototypes(p, c, s),
    "teen": lambda p, c, s, d: _FrozenGnnPrototypes(p, c, s, use_teen=True),
    "simplecil": lambda p, c, s, d: _ProviderPrototypes(p, c, s, "text", d),
    "simgcl_proto": lambda p, c, s, d: _ProviderPrototypes(p, c, s, "ego", d),
    "tpp_heads": lambda p, c, s, d: _RoutedHeads(p, c, s, "laplacian"),
    "meanpool_tpp": lambda p, c, s, d: _RoutedHeads(p, c, s, "plain-mean"),
}
METHOD_IDS = tuple(_RUNNERS)


@dataclass
class RunResult:
    method: str
    scenario: str
    mode: str
    eval_edges: str
    seed: int
    dataset: str
    config_hash: str
    session_seconds: list[float]
    matrix: AccuracyMatrix
    summary: dict = field(default_factory=dict)

    def to_doc(self) -> dict:
        run = asdict(self)
        del run["matrix"], run["summary"]
        return {"run": run, "matrix": self.matrix.to_dict(), "summary": self.summary}


def config_hash(config: dict) -> str:
    """Hash of the settings that can change a run's numbers.

    Where the embedding cache lives and at which address the provider answers
    do not, so `cache_path` and the provider's `endpoint` are left out.
    """
    config = {k: v for k, v in config.items() if k != "cache_path"}
    if isinstance(config.get("provider"), dict):
        config["provider"] = {k: v for k, v in config["provider"].items() if k != "endpoint"}
    return hashlib.sha256(
        json.dumps(config, sort_keys=True, default=str).encode()
    ).hexdigest()[:16]


def run_method(method: str, plan: SessionPlan, config: dict | None = None, mode: str = GLOBAL,
               seed: int = 0, dataset: str = "dataset") -> RunResult:
    """One method's run: run_methods([method], ...)[0]."""
    return run_methods([method], plan, config, mode, seed, dataset)[0]


def run_methods(methods: list[str], plan: SessionPlan, config: dict | None = None,
                mode: str = GLOBAL, seed: int = 0, dataset: str = "dataset") -> list[RunResult]:
    """One RunResult per method, in the order given, from one walk(runners, mode).

    Every method id is checked and every runner built before the first fit, so a
    runner that cannot be built fails before any training. Each result equals the
    method's run on its own; deterministic for fixed (plan, config, seed).
    """
    for method in methods:
        if method not in METHOD_IDS:
            raise ValueError(f"unknown method {method!r}; valid ids: {', '.join(METHOD_IDS)}")
    runners = [_RUNNERS[m](plan, config, seed, dataset) for m in methods]
    matrices, seconds, _ = walk(runners, mode)
    return [RunResult(method=method, scenario=plan.scenario, mode=mode,
                      eval_edges=plan.eval_edges, seed=seed, dataset=dataset,
                      config_hash=config_hash(runner.config),
                      session_seconds=[round(t, 6) for t in times],
                      matrix=matrix, summary=summarize(matrix))
            for method, runner, matrix, times in zip(methods, runners, matrices, seconds)]


def walk(runners: list[_Runner], mode: str):
    """Walk the sessions of the runners' one plan, scoring them all on the same tasks.

    At session i each runner fits session i and is scored on the cumulative
    union task (global mode) or on every past local task j <= i (local mode,
    one triangle row). Each task is built once, at its session, and scored as
    the same object by every runner; a local task is re-scored after every
    later session, so per-task work kept through _once is done once. Returns
    per runner its accuracy matrix and per-session seconds (the task build,
    its fit and its scoring), and the tasks of the last row.
    """
    plan = runners[0].plan
    fits: dict = {}  # the fits its runners share, through _Runner._fit_once
    for runner in runners:
        runner.fits = fits
    matrices = [AccuracyMatrix(mode=mode) for _ in runners]
    seconds: list[list[float]] = [[] for _ in runners]
    tasks: list[EvalTask] = []
    for i in range(1, plan.num_sessions + 1):
        t0 = time.perf_counter()
        tasks = ([] if mode == GLOBAL else tasks) + [build_eval_task(plan, i, mode)]
        build = time.perf_counter() - t0
        for runner, matrix, secs in zip(runners, matrices, seconds):
            t0 = time.perf_counter()
            runner.fit_session(i)
            matrix.add_row([_score(runner, t) for t in tasks])
            secs.append(build + time.perf_counter() - t0)
    return matrices, seconds, tasks


def _score(runner, task: EvalTask) -> float:
    if runner.lenient:
        return lenient_accuracy(runner.predict(task), task.graph.labels[task.eval_nodes])
    return evaluate(runner.predict, task)
