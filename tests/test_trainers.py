from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from gclbench.config import ConfigError, resolve_point
from gclbench.graph import gcn_normalized_adjacency, make_graph
from gclbench.nn import (
    ARCH_GCN,
    ARCH_MLP,
    init_params,
    model_forward,
)
from gclbench.prototypes import PrototypeBank, TaskPrototypeSet, task_prototype
from gclbench.sessions import build_eval_task, plan_ncil
from gclbench.synth import SynthConfig, synth_tag
from gclbench.trainers import (
    METHOD_IDS,
    DistillSource,
    EwcAnchor,
    TrainingError,
    distill_loss,
    ewc_penalty,
    fisher_diagonal,
    run_method,
    run_methods,
    _RUNNERS,
    _GcnFamily,
    _RoutedHeads,
    _fit_head,
    _mix,
    train_session,
    walk,
)

from oracles import (
    dense_smoothing_operator,
    finite_diff_check,
    fisher_diagonal_loop,
    khop_nodes,
    nearest_centroid_accuracy,
    train_session_all_nodes,
)

CFG = {"epochs": 200, "lr": 1e-2, "hidden_dim": 32}


def _separable_session(seed=3):
    g = synth_tag(SynthConfig(num_classes=2, nodes_per_class=20, feature_dim=6,
                              class_sep=3.0, intra_p=0.5, inter_p=0.1, seed=seed))
    S = gcn_normalized_adjacency(g)
    X = np.asarray(g.features, np.float64)
    return g, S, X


# -------------------------------------------------------------- train_session


def test_train_session_reaches_full_accuracy_on_separable_data():
    g, S, X = _separable_session()
    # independent oracle confirms the data is separable before asserting training
    assert nearest_centroid_accuracy(X, g.labels) == 1.0
    p = init_params(ARCH_GCN, X.shape[1], 32, 2, seed=0)
    rows = np.arange(g.node_count)
    p = train_session(p, S, X, g.labels, rows, epochs=200, lr=1e-2, seed=0)
    logits, _ = model_forward(p, S, X)
    assert float(np.mean(np.argmax(logits, axis=1) == g.labels)) == 1.0


@pytest.mark.parametrize("entry", ["model_forward", "train_session"])
@pytest.mark.parametrize("rows", [[3, 9, 3], [9, 3]], ids=["repeated", "descending"])
@pytest.mark.parametrize("arch", [ARCH_GCN, ARCH_MLP])
def test_rows_must_be_strictly_increasing(arch, rows, entry):
    # One row contract for both architectures. Before, mlp2 took repeated and
    # descending rows, and a GCN took descending ones.
    g, S, X = _separable_session()
    S = S if arch == ARCH_GCN else None
    p = init_params(arch, X.shape[1], 8, 2, seed=1)
    rows = np.array(rows)
    with pytest.raises(ValueError, match="rows must be strictly increasing"):
        if entry == "model_forward":
            model_forward(p, S, X, rows=rows)
        else:
            train_session(p, S, X, np.zeros(rows.size, int), rows, epochs=2, lr=1e-2)


@pytest.mark.parametrize("lr", [0.0, -1e-2, np.nan])
def test_train_session_rejects_non_positive_lr(lr):
    # A negative rate ran gradient ascent to the end without a word.
    g, S, X = _separable_session()
    p = init_params(ARCH_GCN, X.shape[1], 8, 2, seed=1)
    with pytest.raises(ValueError, match="learning rate must be positive"):
        train_session(p, S, X, g.labels, np.arange(g.node_count), epochs=2, lr=lr)


def test_train_session_rejects_negative_epochs(testkit_plan):
    # An empty range(epochs) returned the untrained weights: chance accuracy.
    g, S, X = _separable_session()
    p = init_params(ARCH_GCN, X.shape[1], 8, 2, seed=1)
    with pytest.raises(ValueError, match="epochs must be non-negative"):
        train_session(p, S, X, g.labels, np.arange(g.node_count), epochs=-1, lr=1e-2)
    with pytest.raises(ConfigError, match="hyperparameters/epochs"):
        run_method("gcn", testkit_plan, {"epochs": -5}, mode="local")


@pytest.mark.parametrize("arch", [ARCH_GCN, ARCH_MLP])
def test_train_session_on_no_train_rows_names_the_cause(arch):
    # numpy's "zero-size array to reduction operation" used to escape.
    g, S, X = _separable_session()
    p = init_params(arch, X.shape[1], 8, 2, seed=1)
    with pytest.raises(ValueError, match="empty session: no train rows"):
        train_session(p, S if arch == ARCH_GCN else None, X, np.zeros(0, int),
                      np.zeros(0, int), epochs=2, lr=1e-2)


def test_train_session_zero_epochs_no_change():
    g, S, X = _separable_session()
    p = init_params(ARCH_GCN, X.shape[1], 8, 2, seed=1)
    before = {k: v.copy() for k, v in p.weights.items()}
    q = train_session(p, S, X, g.labels, np.arange(g.node_count), epochs=0, lr=1e-2)
    for k in before:
        assert np.array_equal(q.weights[k], before[k])


def test_train_session_seed_reproducible_checkpoint():
    g, S, X = _separable_session()
    rows = np.arange(g.node_count)

    def run():
        p = init_params(ARCH_GCN, X.shape[1], 8, 2, seed=2)
        return train_session(p, S, X, g.labels, rows, epochs=30, lr=1e-2, seed=11)

    a, b = run(), run()
    assert (a.arch, a.dropout_rate) == (b.arch, b.dropout_rate)
    assert sorted(a.weights) == sorted(b.weights)
    for k in a.weights:
        assert np.array_equal(a.weights[k], b.weights[k])


def test_train_session_nonfinite_loss_reports_epoch():
    g, S, X = _separable_session()
    p = init_params(ARCH_GCN, X.shape[1], 8, 2, seed=1)
    # Anchored 1e200 away, the squared distance overflows to inf while the
    # penalty gradient stays finite, so only the loss check can stop it.
    far = EwcAnchor(params_star={k: w - 1e200 for k, w in p.weights.items()},
                    fisher={k: np.ones_like(w) for k, w in p.weights.items()},
                    strength=1.0)
    with np.errstate(over="ignore"), pytest.raises(TrainingError, match="epoch 0"):
        train_session(p, S, X, g.labels, np.arange(g.node_count),
                      epochs=3, lr=1e-2, anchor=far)


@pytest.mark.parametrize("epochs, lr, message", [
    (3, 1e300, "non-finite logits in forward pass at epoch 1"),
    (1, np.inf, "non-finite weights for .* after the update at epoch 0"),
    (3, 1e100, "non-finite second moment for W3 at epoch 1"),
])
def test_train_session_overflow_reports_epoch(epochs, lr, message):
    # Before, the first two escaped as FloatingPointError, or not at all: an
    # inf learning rate in the last epoch returned non-finite weights. At lr
    # 1e100 the second moment overflowed to inf and training went on with
    # every later update rounded to zero.
    g, S, X = _separable_session()
    p = init_params(ARCH_GCN, X.shape[1], 8, 2, seed=1)
    with pytest.raises(TrainingError, match=message):
        train_session(p, S, X, g.labels, np.arange(g.node_count), epochs=epochs, lr=lr)


# ------------------------------------------------------------ receptive field


def _sparse_graph(seed=4):
    # Average degree about 2: a few rows reach a small part of the graph, and
    # some nodes have no edge at all.
    return synth_tag(SynthConfig(num_classes=3, nodes_per_class=300, feature_dim=8,
                                 class_sep=1.0, intra_p=0.015, inter_p=0.002, seed=seed))


def _neighbours(S, rows):
    return np.unique(S[rows].indices)


@pytest.mark.parametrize("conv_bias", [False, True], ids=["no_bias", "conv_bias"])
@pytest.mark.parametrize("case", ["unsorted", "few_shot", "isolated", "whole_graph", "distill",
                                  "one_unit"])
def test_train_session_matches_all_nodes_oracle(case, conv_bias):
    # Each GCN layer runs on the train rows' receptive field only, yet the
    # trained weights are those of epochs that ran both layers over every
    # node, bit for bit. Hundreds of rows make BLAS block the sums over
    # nodes; one hidden unit makes numpy sum a bias gradient pairwise.
    g = _separable_session()[0] if case == "whole_graph" else _sparse_graph()
    S, X, n = gcn_normalized_adjacency(g), np.asarray(g.features, np.float64), g.node_count
    order = np.random.default_rng(9).permutation(n)
    if case == "few_shot":
        rows = order[:4]
        assert _neighbours(S, _neighbours(S, rows)).size < n // 4
    elif case == "isolated":
        rows = np.flatnonzero(np.diff(S.indptr) == 1)[:1]  # only its self-loop
        assert rows.size == 1
    elif case == "whole_graph":
        rows = order[:10]
        assert _neighbours(S, rows).size == n
    else:
        rows = order[:300]
        assert (np.diff(rows) < 0).any() and 300 < _neighbours(S, rows).size < n
    rows = np.sort(rows)  # drawn in random order; train rows are ascending ids
    labels = np.random.default_rng(5).integers(0, 3, rows.size)
    hidden_dim = 1 if case == "one_unit" else 64
    p = init_params(ARCH_GCN, X.shape[1], hidden_dim, 3, seed=2, conv_bias=conv_bias)
    if case == "one_unit":  # positive weights keep the one unit alive at some nodes
        p.weights.update({k: np.abs(v) for k, v in p.weights.items()})
    distill = None
    if case == "distill":
        frozen = init_params(ARCH_GCN, X.shape[1], hidden_dim, 2, seed=8, conv_bias=conv_bias)
        distill = DistillSource(frozen, 2.0, 1.0)
    want = train_session_all_nodes(p, S, X, labels, rows, 20, 1e-2, seed=6, distill=distill)
    got = train_session(p, S, X, labels, rows, epochs=20, lr=1e-2, seed=6, distill=distill)
    assert sorted(got.weights) == sorted(want.weights)
    for k, w in want.weights.items():
        assert np.array_equal(got.weights[k], w), k
        assert not np.array_equal(w, p.weights[k]), k


def _poison_beyond_two_hops(plan, seed):
    """The plan with every node more than two hops from all of its session's
    train nodes given other finite features, some near the float32 limit."""
    from dataclasses import replace

    rng = np.random.default_rng(seed)
    sessions = []
    for s in plan.sessions:
        feats = np.array(s.subgraph.features)
        far = np.ones(s.subgraph.node_count, dtype=bool)
        for r in s.local_ids(s.train_nodes):
            far[[int(r), *khop_nodes(s.subgraph, int(r), 2)]] = False
        assert far.any() and not far.all()
        shape = (far.sum(), feats.shape[1])
        feats[far] = rng.standard_normal(shape) * rng.choice([1.0, 1e3, 1e37], size=(shape[0], 1))
        sessions.append(replace(s, subgraph=replace(s.subgraph, features=feats)))
    return replace(plan, sessions=tuple(sessions))


@pytest.mark.parametrize("use_lwf", [False, True], ids=["gcn", "lwf"])
def test_gcn_weights_never_read_features_beyond_two_hops(use_lwf):
    # A two-layer GCN's train-row logits depend on nodes within two hops of
    # those rows only; the weights it trains must not move when any other
    # node's features change, however large they are.
    plan = plan_ncil(_sparse_graph(), classes_per_session=1, num_sessions=3, shots=5,
                     test_cap=50, seed=3)
    poisoned = _poison_beyond_two_hops(plan, seed=17)
    config = {"epochs": 20, "hidden_dim": 16}
    clean = _GcnFamily(plan, config, seed=5, use_lwf=use_lwf)
    dirty = _GcnFamily(poisoned, config, seed=5, use_lwf=use_lwf)
    for i in range(1, plan.num_sessions + 1):
        clean.fit_session(i)
        dirty.fit_session(i)
        for k, w in clean.params.weights.items():
            assert np.array_equal(w, dirty.params.weights[k]), (i, k)


# ------------------------------------------------------------ fisher diagonal


def test_fisher_zero_when_likelihood_saturated():
    # single-class head: softmax is identically one, per-sample grads vanish
    g, S, X = _separable_session()
    p = init_params(ARCH_GCN, X.shape[1], 8, 1, seed=3)
    rows = np.arange(10)
    fisher = fisher_diagonal(p, S, X, rows, np.zeros(10, np.int64))
    for v in fisher.values():
        assert np.array_equal(v, np.zeros_like(v))


def test_fisher_is_mean_of_per_sample_squares():
    g, S, X = _separable_session()
    p = init_params(ARCH_GCN, X.shape[1], 8, 2, seed=4)
    rows = np.array([0, 5, 9])
    labels = g.labels[rows]
    combined = fisher_diagonal(p, S, X, rows, labels)
    singles = [fisher_diagonal(p, S, X, rows[i:i + 1], labels[i:i + 1]) for i in range(3)]
    for k in combined:
        mean_sq = sum(s[k] for s in singles) / 3  # single-sample fisher = g^2
        assert np.allclose(combined[k], mean_sq, atol=1e-12)


def test_fisher_empty_session_rejected():
    g, S, X = _separable_session()
    p = init_params(ARCH_GCN, X.shape[1], 8, 2, seed=4)
    with pytest.raises(ValueError, match="empty session"):
        fisher_diagonal(p, S, X, np.array([], np.int64), np.array([], np.int64))


@st.composite
def _fisher_cases(draw):
    """Small graph (isolated nodes, self-loops), operator, model and rows (repeats allowed)."""
    n = draw(st.integers(1, 10))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n))
    classes = draw(st.integers(1, 4))
    rows = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=8))
    labels = draw(st.lists(st.integers(0, classes - 1), min_size=len(rows), max_size=len(rows)))
    weighting = draw(st.sampled_from(["laplacian", "plain-mean"]))  # plain-mean is not symmetric
    conv_bias = draw(st.booleans())
    dims = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    seed = draw(st.integers(0, 2**32 - 1))
    # Continuous random values: a tie that cancels exactly in one summation
    # order but not another would test float luck, not the formulas.
    rng = np.random.default_rng(seed)
    g = make_graph(rng.standard_normal((n, dims[0])), [""] * n, np.zeros(n, np.int64), ["c"],
                   np.array(edges, np.int64).reshape(-1, 2))
    p = init_params(ARCH_GCN, dims[0], dims[1], classes, seed=seed, conv_bias=conv_bias)
    for k in p.weights:  # nonzero biases and a mix of live and dead ReLU units
        p.weights[k] = rng.standard_normal(p.weights[k].shape)
    X = np.asarray(g.features, np.float64)
    S = (gcn_normalized_adjacency(g) if weighting == "laplacian"
         else sp.csr_matrix(dense_smoothing_operator(g, "plain-mean")))
    return p, S, X, np.array(rows), np.array(labels)


# Derandomized: the bound is a float-rounding bound, and on about 1 in 20000
# random cases a signed sum inside one row's gradient cancels to ~1e-6 of its
# terms, where the two summation orders differ by more than 1e-12 relative.
@settings(max_examples=300, deadline=None, derandomize=True)
@given(_fisher_cases())
def test_fisher_matches_loop_oracle(case):
    p, S, X, rows, labels = case
    got = fisher_diagonal(p, S, X, rows, labels)
    want = fisher_diagonal_loop(p, S, X, rows, labels)
    assert sorted(got) == sorted(want)
    for k in want:
        zero = want[k] == 0
        assert np.array_equal(got[k] == 0, zero), k
        rel = np.abs(got[k][~zero] - want[k][~zero]) / want[k][~zero]
        assert rel.max(initial=0.0) <= 1e-12, (k, rel.max())


def test_fisher_matches_loop_oracle_on_testkit(testkit_plan):
    s = testkit_plan.sessions[0]
    S = gcn_normalized_adjacency(s.subgraph)
    X = np.asarray(s.subgraph.features, np.float64)
    rows = s.local_ids(s.train_nodes)
    labels = (s.subgraph.labels[rows] == s.class_ids[1]).astype(np.int64)
    for conv_bias in (False, True):
        p = init_params(ARCH_GCN, X.shape[1], 16, 3, seed=5, conv_bias=conv_bias)
        got = fisher_diagonal(p, S, X, rows, labels)
        want = fisher_diagonal_loop(p, S, X, rows, labels)
        for k in want:
            assert np.allclose(got[k], want[k], rtol=1e-12, atol=0), k


def test_fisher_rejects_mlp():
    p = init_params(ARCH_MLP, 3, 4, 2, seed=0)
    with pytest.raises(ValueError, match="gcn2_mlp1"):
        fisher_diagonal(p, None, np.zeros((2, 3)), np.array([0]), np.array([1]))


# ----------------------------------------------------------------- ewc penalty


def test_ewc_zero_at_anchor():
    p = init_params(ARCH_MLP, 3, 4, 2, seed=0)
    anchor = EwcAnchor(
        params_star={k: v.copy() for k, v in p.weights.items()},
        fisher={k: np.ones_like(v) for k, v in p.weights.items()},
        strength=10.0,
    )
    loss, grads = ewc_penalty(p, anchor)
    assert loss == 0.0
    assert all(np.array_equal(v, np.zeros_like(v)) for v in grads.values())


def test_ewc_worked_example():
    p = init_params(ARCH_MLP, 1, 1, 1, seed=0)
    p.weights = {"w": np.array([3.0])}
    anchor = EwcAnchor(params_star={"w": np.array([0.0])},
                       fisher={"w": np.array([2.0])}, strength=1.0)
    loss, grads = ewc_penalty(p, anchor)
    assert loss == 18.0  # 1 * 2 * 3^2
    assert np.allclose(grads["w"], [12.0])  # 2 * 1 * 2 * 3


def test_ewc_zero_strength():
    p = init_params(ARCH_MLP, 2, 2, 2, seed=1)
    anchor = EwcAnchor(
        params_star={k: v + 5 for k, v in p.weights.items()},
        fisher={k: np.ones_like(v) for k, v in p.weights.items()},
        strength=0.0,
    )
    loss, _ = ewc_penalty(p, anchor)
    assert loss == 0.0


def test_ewc_gradient_matches_finite_differences():
    p = init_params(ARCH_MLP, 3, 4, 2, seed=2)
    rng = np.random.default_rng(0)
    anchor = EwcAnchor(
        params_star={k: v + rng.standard_normal(v.shape) for k, v in p.weights.items()},
        fisher={k: rng.random(v.shape) for k, v in p.weights.items()},
        strength=3.0,
    )

    def loss_fn(params):
        return ewc_penalty(params, anchor)

    report = finite_diff_check(loss_fn, p, tolerance=1e-6, seed=3)
    assert report.passed, report


def test_ewc_negative_fisher_rejected():
    with pytest.raises(ValueError, match="negative Fisher"):
        EwcAnchor(params_star={"w": np.zeros(1)}, fisher={"w": np.array([-1.0])}, strength=1.0)


# ----------------------------------------------------------------- lwf distill


def test_lwf_zero_at_identical_logits():
    logits = np.array([[1.0, -0.5], [0.2, 0.4]])
    loss, dl = distill_loss(logits, logits.copy(), 2.0, 1.0)
    assert loss == 0.0
    assert np.allclose(dl, 0.0, atol=1e-15)


def test_lwf_worked_example():
    old = np.array([[1.0, 0.0]])
    new = np.array([[0.0, 1.0]])
    loss, _ = distill_loss(new, old, 1.0, 1.0)
    assert abs(loss - 0.4621) < 5e-5


def test_lwf_zero_weight():
    old = np.array([[1.0, 0.0]])
    new = np.array([[0.0, 5.0]])
    loss, dl = distill_loss(new, old, 1.0, 0.0)
    assert loss == 0.0
    assert np.allclose(dl, 0.0)


def test_lwf_nonnegative_random():
    rng = np.random.default_rng(6)
    for _ in range(30):
        n, c = int(rng.integers(1, 6)), int(rng.integers(2, 5))
        old = rng.standard_normal((n, c))
        new = rng.standard_normal((n, c))
        m = int(rng.integers(1, c + 1))
        loss, _ = distill_loss(new, old[:, :m], float(rng.uniform(0.2, 3)), 1.0)
        assert loss >= -1e-12


def test_lwf_gradient_matches_finite_differences():
    rng = np.random.default_rng(8)
    old = rng.standard_normal((3, 4))
    new = rng.standard_normal((3, 4))
    old = old[:, :3]  # the old classes are the first three columns
    T, w = 2.0, 0.7
    _, dl = distill_loss(new, old, T, w)
    h = 1e-6
    for i in range(3):
        for j in range(4):
            up = new.copy()
            up[i, j] += h
            down = new.copy()
            down[i, j] -= h
            num = (distill_loss(up, old, T, w)[0] - distill_loss(down, old, T, w)[0]) / (2 * h)
            assert abs(num - dl[i, j]) < 1e-6


def test_lwf_distill_via_frozen_model(testkit_plan, monkeypatch):
    # The lwf runner distills every epoch against the logits of the model as it
    # stood before the session, computed once, over the head's first columns.
    from gclbench import trainers

    calls = []

    def recording(new_logits, old_logits, temperature, weight):
        calls.append((old_logits.copy(), new_logits.shape[1], temperature, weight))
        return distill_loss(new_logits, old_logits, temperature, weight)

    monkeypatch.setattr(trainers, "distill_loss", recording)
    cfg = dict(CFG, epochs=4, lwf_T=3.0, lwf_lambda=0.5)
    runner = trainers._RUNNERS["lwf"](testkit_plan, cfg, 5, "synth")
    runner.fit_session(1)
    assert calls == []  # nothing to distill from in the first session
    frozen = runner.params.copy()
    runner.fit_session(2)

    s = testkit_plan.sessions[1]
    ol, _ = model_forward(frozen, gcn_normalized_adjacency(s.subgraph),
                          np.asarray(s.subgraph.features, np.float64))
    rows = s.local_ids(s.train_nodes)
    expect = ol[rows]
    assert expect.shape[1] == 2
    assert len(calls) == 4
    for old_logits, width, temperature, weight in calls:
        assert np.array_equal(old_logits, expect)
        assert width == 4  # the two old columns come first
        assert (temperature, weight) == (3.0, 0.5)


def test_distill_source_validation():
    p = init_params(ARCH_MLP, 2, 2, 2, seed=0)
    for temperature in (0.0, -1.0, np.nan):
        with pytest.raises(ValueError, match="temperature"):
            DistillSource(p, temperature, 1.0)
    for weight in (-0.5, np.nan):
        with pytest.raises(ValueError, match="weight"):
            DistillSource(p, 1.0, weight)
    DistillSource(p, 1.0, 0.0)  # a zero weight switches the term off


@pytest.mark.parametrize("bad", [-1.0, np.nan])
def test_anchor_strength_and_bank_temperature_validation(bad):
    # Each guard is written so that NaN fails it, as a negative value does.
    with pytest.raises(ValueError, match="strength"):
        EwcAnchor(params_star={"w": np.zeros(1)}, fisher={"w": np.ones(1)}, strength=bad)
    with pytest.raises(ValueError, match="temperature"):
        PrototypeBank(temperature=bad)


# ------------------------------------------------------------------ run_method


def test_run_method_local_triangle_shape(testkit_plan):
    res = run_method("gcn", testkit_plan, CFG, mode="local", seed=0)
    assert [len(r) for r in res.matrix.rows] == [1, 2, 3]


def test_run_method_global_forgetting_direction(testkit_plan):
    res = run_method("gcn", testkit_plan, CFG, mode="global", seed=0)
    assert res.summary["final_acc"] < res.summary["mean_acc"]


def test_run_method_unknown_method(testkit_plan):
    with pytest.raises(ValueError) as err:
        run_method("foo", testkit_plan, CFG, mode="global", seed=0)
    for m in METHOD_IDS:
        assert m in str(err.value)


def test_every_method_id_builds_a_runner(testkit_plan):
    from gclbench.trainers import _RUNNERS

    provider = {"provider": {"kind": "http", "endpoint": "http://127.0.0.1:9", "model": "m"}}
    assert METHOD_IDS == tuple(_RUNNERS)
    assert METHOD_IDS == ("gcn", "ewc", "lwf", "cosine", "teen", "simplecil",
                          "simgcl_proto", "tpp_heads", "meanpool_tpp")
    for m in METHOD_IDS:
        runner = _RUNNERS[m](testkit_plan, dict(CFG, **provider), 0, "synth")
        assert callable(runner.fit_session) and callable(runner.predict)
    with pytest.raises(ValueError, match=r"unknown method 'nope'; valid ids: gcn, ewc, lwf, "
                                         r"cosine, teen, simplecil, simgcl_proto, tpp_heads, "
                                         r"meanpool_tpp$"):
        run_method("nope", testkit_plan, CFG, mode="local", seed=0)


def test_config_hash_ignores_cache_path_and_endpoint():
    from gclbench.trainers import config_hash

    base = {"epochs": 50, "lr": 1e-2, "cache_path": "a.bin",
            "provider": {"kind": "http", "endpoint": "http://127.0.0.1:1", "model": "m"}}
    moved = dict(base, cache_path="elsewhere/b.bin",
                 provider=dict(base["provider"], endpoint="http://127.0.0.1:2"))
    assert config_hash(moved) == config_hash(base)
    assert config_hash({k: v for k, v in base.items() if k != "cache_path"}) == config_hash(base)
    assert config_hash(dict(base, lr=2e-2)) != config_hash(base)
    assert config_hash(dict(base, provider=dict(base["provider"], model="n"))) != config_hash(base)
    assert base["cache_path"] == "a.bin" and "endpoint" in base["provider"]  # not mutated


def test_config_hash_covers_the_resolved_hyperparameters(testkit_plan, monkeypatch):
    # A library run hashes the settings that ran, defaults included.
    from gclbench import config

    partial = run_method("gcn", testkit_plan, {"epochs": 3}, mode="local")
    full = run_method("gcn", testkit_plan, {**config.DEFAULT_HYPERS, "epochs": 3}, mode="local")
    assert full.matrix.rows == partial.matrix.rows
    assert full.config_hash == partial.config_hash
    monkeypatch.setitem(config.DEFAULT_HYPERS, "hidden_dim", 16)
    moved = run_method("gcn", testkit_plan, {"epochs": 3}, mode="local")
    assert moved.config_hash != partial.config_hash


@pytest.mark.parametrize("config, message", [
    ({"epoch": 2}, "unknown hyperparameter epoch; the keys are lr, "),
    ({"lr": [0.01, 0.1]}, "hyperparameters/lr: .* is a grid; .*config.expand_grid"),
], ids=["misspelled", "grid"])
def test_library_runs_take_one_point_of_the_table(testkit_plan, config, message):
    # A misspelled key used to run the defaults under another config_hash, and a
    # grid list ended in a bare TypeError from float().
    from gclbench.evaluation import leakage_diagnostic

    with pytest.raises(ConfigError, match=message):
        run_method("gcn", testkit_plan, config, mode="local")
    with pytest.raises(ConfigError, match=message):
        leakage_diagnostic(testkit_plan, config=config)


@pytest.mark.parametrize("key, value", [
    ("conv_bias", "false"), ("hidden_dim", 1.5), ("hidden_dim", True), ("epochs", 2.7),
    ("epochs", 0), ("k_smooth", True), ("k_smooth", 2.5), ("shift_weight", 5.0),
    ("lr", "0.01"), ("sample_num", 2.5), ("fanouts", 3), ("fanouts", (20, 20)),
    ("strength", float("inf")), ("cache_path", Path("c.bin")),
    ("provider", {"kind": "http", "endpoint": "http://127.0.0.1:9", "typo": 1}),
])
def test_a_bad_value_fails_by_its_rule_before_any_training(testkit_plan, monkeypatch, key,
                                                           value):
    # Each used to run: "false" trained conv biases, 1.5 and True a width of 1,
    # 2.7 two epochs and 0 none, k_smooth True and 2.5 k = 1 and 2, and so on.
    # The probe takes a k_smooth value from its config or from its k_grid.
    from gclbench.evaluation import leakage_diagnostic

    trained = _count_calls(monkeypatch, "train_session")
    config = dict(CFG, **{key: value})
    with pytest.raises(ConfigError, match=f"^config invalid at hyperparameters/{key}"):
        run_method("gcn", testkit_plan, config, mode="local")
    with pytest.raises(ConfigError, match=f"^config invalid at hyperparameters/{key}"):
        leakage_diagnostic(testkit_plan, k_grid=(1,), config=config)
    if key == "k_smooth":
        with pytest.raises(ConfigError, match=f"^config invalid at hyperparameters/{key}"):
            leakage_diagnostic(testkit_plan, k_grid=(value,), config=CFG)
    assert trained == []


def test_run_method_reproducible(testkit_plan):
    a = run_method("gcn", testkit_plan, CFG, mode="global", seed=3)
    b = run_method("gcn", testkit_plan, CFG, mode="global", seed=3)
    assert a.matrix.rows == b.matrix.rows
    assert a.config_hash == b.config_hash


def test_ewc_run_reproducible(testkit_plan):
    # Fisher sums and the EWC trajectory repeat exactly for a fixed seed.
    from gclbench.trainers import _GcnFamily

    runs = [_GcnFamily(testkit_plan, dict(CFG, epochs=30), 4, use_ewc=True) for _ in range(2)]
    for run in runs:
        for i in (1, 2, 3):
            run.fit_session(i)
    a, b = (r.anchor for r in runs)
    for k in a.fisher:
        assert np.array_equal(a.fisher[k], b.fisher[k])
        assert np.array_equal(a.params_star[k], b.params_star[k])
    ma = run_method("ewc", testkit_plan, dict(CFG, epochs=30), mode="local", seed=4)
    mb = run_method("ewc", testkit_plan, dict(CFG, epochs=30), mode="local", seed=4)
    assert ma.matrix.rows == mb.matrix.rows


def test_ewc_lwf_null_settings_match_plain_gcn(testkit_plan):
    base = run_method("gcn", testkit_plan, CFG, mode="global", seed=5)
    ewc0 = run_method("ewc", testkit_plan, dict(CFG, strength=0.0), mode="global", seed=5)
    lwf0 = run_method("lwf", testkit_plan, dict(CFG, lwf_lambda=0.0), mode="global", seed=5)
    assert ewc0.matrix.rows == base.matrix.rows
    assert lwf0.matrix.rows == base.matrix.rows


def test_ewc_positive_strength_perturbs_weights(testkit_plan):
    # Accuracy can coincide when the softmax saturates (tiny Fisher), so the
    # engagement check compares parameter trajectories directly.
    from gclbench.trainers import _GcnFamily

    cfg = dict(CFG, epochs=40)
    plain = _GcnFamily(testkit_plan, cfg, 5)
    ewc = _GcnFamily(testkit_plan, dict(cfg, strength=10000.0), 5, use_ewc=True)
    for i in (1, 2, 3):
        plain.fit_session(i)
        ewc.fit_session(i)
    assert ewc.anchor is not None
    assert any(v.max() > 0 for v in ewc.anchor.fisher.values())
    diff = max(np.abs(plain.params.weights[k] - ewc.params.weights[k]).max()
               for k in plain.params.weights)
    assert diff > 0.0


def test_fsncil_local_mode_all_gcn_family_methods(testkit_graph):
    plan = plan_fsncil_fixture(testkit_graph)
    for method in ("lwf", "teen"):
        res = run_method(method, plan, dict(CFG, epochs=60), mode="local", seed=2)
        assert [len(r) for r in res.matrix.rows] == [1, 2, 3]
        assert res.summary["aa"] is not None and res.summary["af"] is not None


def plan_fsncil_fixture(g):
    from gclbench.sessions import plan_fsncil

    return plan_fsncil(g, base_classes=2, ways=2, num_sessions=3,
                       shots_base=30, shots_novel=5, seed=4)


def test_run_method_full_union_edge_policy(testkit_graph):
    plan = plan_ncil(testkit_graph, 2, 3, 30, seed=7, eval_edges="full_union")
    res = run_method("gcn", plan, dict(CFG, epochs=60), mode="global", seed=0)
    assert res.summary["final_acc"] < res.summary["mean_acc"]
    assert [len(r) for r in res.matrix.rows] == [1, 1, 1]


def test_embedding_method_requires_provider(testkit_plan):
    from gclbench.trainers import TrainingError

    with pytest.raises(TrainingError, match="provider"):
        run_method("simplecil", testkit_plan, CFG, mode="global", seed=0)
    with pytest.raises(ConfigError, match="hyperparameters/provider/kind"):
        run_method("simgcl_proto", testkit_plan,
                   dict(CFG, provider={"kind": "carrier-pigeon"}), mode="global", seed=0)


@pytest.mark.parametrize("method, bad", [
    ("ewc", {"strength": -5}), ("lwf", {"lwf_lambda": -1}), ("lwf", {"lwf_T": 0.0}),
    # NaN fails every comparison: before, a NaN strength trained ewc as gcn.
    ("ewc", {"strength": np.nan}), ("lwf", {"lwf_lambda": np.nan}), ("gcn", {"lwf_T": np.nan}),
])
def test_run_method_rejects_out_of_range_regularizers(testkit_plan, method, bad):
    (key,) = bad
    with pytest.raises(ConfigError, match=f"hyperparameters/{key}"):
        run_method(method, testkit_plan, dict(CFG, **bad), seed=0)


@pytest.mark.parametrize("method", ["gcn", "tpp_heads"])
@pytest.mark.parametrize("dropout", [-0.5, 1.0])
def test_run_method_rejects_out_of_range_dropout(testkit_plan, method, dropout):
    # Both architectures: -0.5 would scale every training activation by 1/1.5,
    # 1.0 would end in non-finite logits.
    with pytest.raises(ConfigError, match="hyperparameters/dropout"):
        run_method(method, testkit_plan, dict(CFG, epochs=2, dropout=dropout), seed=0)
    arch = ARCH_GCN if method == "gcn" else ARCH_MLP
    with pytest.raises(ValueError, match=r"dropout_rate must be in \[0, 1\)"):
        init_params(arch, 4, 8, 2, seed=0, dropout_rate=dropout)


def test_ewc_lwf_terms_reach_the_weights(testkit_plan):
    # The null settings match plain gcn (above); at the defaults each term must
    # move session-2 weights, so a train_session that drops one fails here.
    from gclbench.trainers import _GcnFamily

    runners = [_GcnFamily(testkit_plan, {}, 6, **kw)
               for kw in ({}, {"use_ewc": True}, {"use_lwf": True})]
    for r in runners:
        r.fit_session(1)
        r.fit_session(2)
    plain, ewc, lwf = (r.params.weights for r in runners)
    for other in (ewc, lwf):
        assert sorted(other) == sorted(plain)
        assert not all(np.array_equal(other[k], plain[k]) for k in plain)


@pytest.mark.parametrize("method, fisher_calls, distill_sources", [
    ("gcn", 0, 0), ("ewc", 3, 0), ("lwf", 0, 2),
])
def test_each_regularizer_runs_only_for_its_method(testkit_plan, monkeypatch, method,
                                                   fisher_calls, distill_sources):
    # Both weights are positive, so only the method decides which term runs:
    # ewc estimates a Fisher after each session, lwf distills from session 2 on.
    from gclbench import trainers

    counts = {"fisher": 0, "distill": 0}

    def counting_fisher(*args):
        counts["fisher"] += 1
        return fisher_diagonal(*args)

    class CountingDistillSource(DistillSource):
        def __post_init__(self):
            counts["distill"] += 1
            super().__post_init__()

    monkeypatch.setattr(trainers, "fisher_diagonal", counting_fisher)
    monkeypatch.setattr(trainers, "DistillSource", CountingDistillSource)
    cfg = dict(CFG, epochs=3, strength=100.0, lwf_lambda=1.0)
    run_method(method, testkit_plan, cfg, mode="local", seed=0)
    assert counts == {"fisher": fisher_calls, "distill": distill_sources}


@pytest.mark.parametrize("provider, missing", [
    ({"kind": "file"}, "matrix"),
    ({"kind": "file", "matrix": "m.bin"}, "index"),
    ({"kind": "http"}, "endpoint"),
], ids=["file-bare", "file-no-index", "http-no-endpoint"])
def test_provider_missing_field_raises_training_error(testkit_plan, provider, missing):
    # The provider rule of the config, as the CLI applies it, names the first missing field.
    with pytest.raises(ConfigError) as err:
        run_method("simplecil", testkit_plan, dict(CFG, provider=provider), seed=0)
    assert str(err.value) == (f"config invalid at hyperparameters/provider: "
                              f"{missing!r} is a required property")


@pytest.mark.parametrize("method", ["cosine", "teen"])
def test_frozen_gnn_session_1_model_is_the_gcn_one_with_conv_bias(testkit_plan, method):
    from gclbench.trainers import _RUNNERS

    cfg = dict(CFG, epochs=20, conv_bias=True)
    frozen = _RUNNERS[method](testkit_plan, cfg, 6, "synth")
    gcn = _RUNNERS["gcn"](testkit_plan, cfg, 6, "synth")
    frozen.fit_session(1)
    gcn.fit_session(1)
    assert {"b1", "b2"} <= set(frozen.params.weights)
    assert sorted(frozen.params.weights) == sorted(gcn.params.weights)
    for k, w in gcn.params.weights.items():
        assert np.array_equal(frozen.params.weights[k], w)


def test_run_method_manifest_fields(testkit_plan):
    res = run_method("cosine", testkit_plan, CFG, mode="global", seed=1, dataset="testkit")
    doc = res.to_doc()
    assert doc["run"]["method"] == "cosine"
    assert doc["run"]["dataset"] == "testkit"
    assert len(doc["run"]["session_seconds"]) == 3
    assert doc["summary"]["mean_acc"] is not None
    assert len(doc["run"]["config_hash"]) == 16


def test_run_document_names_its_eval_edge_policy(testkit_graph):
    # Before, a full_union and an intra_only run wrote documents that differed
    # only in their numbers.
    for policy in ("intra_only", "full_union"):
        plan = plan_ncil(testkit_graph, 2, 3, 30, seed=7, eval_edges=policy)
        doc = run_method("cosine", plan, dict(CFG, epochs=5), mode="global", seed=0).to_doc()
        assert doc["run"]["eval_edges"] == policy


def test_eval_nodes_and_train_rows_strictly_increase(testkit_graph, tmp_path, monkeypatch):
    # layer_rows refuses rows that do not strictly increase, and no path
    # sorts them first: every row set the sessions hand out must already.
    from gclbench import trainers
    from gclbench.graph import save_tag
    from gclbench.sessions import Session, plan_fsncil

    def increasing(ids):
        return bool((np.diff(ids) > 0).all())

    plans = [plan_ncil(testkit_graph, 2, 3, 30, seed=7, eval_edges=policy)
             for policy in ("intra_only", "full_union")]
    plans += [plan_fsncil(testkit_graph, 2, 2, 3, 30, 5, seed=4, eval_edges=policy)
              for policy in ("intra_only", "full_union")]
    for plan in plans:
        for i in range(1, plan.num_sessions + 1):
            for mode in ("local", "global"):
                assert increasing(build_eval_task(plan, i, mode).eval_nodes), (plan.scenario, i)

    seen = []  # every id array a runner maps, and every train_rows it trains on
    local_ids, fit = Session.local_ids, trainers.train_session

    def spy_local_ids(session, ids):
        seen.append(local_ids(session, ids))
        return seen[-1]

    def spy_fit(p, S, X, labels, train_rows, *args, **kwargs):
        seen.append(train_rows)
        return fit(p, S, X, labels, train_rows, *args, **kwargs)

    monkeypatch.setattr(Session, "local_ids", spy_local_ids)
    monkeypatch.setattr(trainers, "train_session", spy_fit)
    save_tag(testkit_graph, tmp_path / "emb")
    (tmp_path / "emb" / "index.json").write_text(str(list(range(testkit_graph.node_count))))
    provider = {"kind": "file", "matrix": str(tmp_path / "emb" / "features.bin"),
                "index": str(tmp_path / "emb" / "index.json")}
    for plan in (plans[0], plans[2]):
        for m in METHOD_IDS:
            seen.clear()
            run_method(m, plan, dict(CFG, epochs=2, provider=provider), mode="local", seed=0)
            assert seen and all(increasing(r) for r in seen), (plan.scenario, m)


# ----------------------------------------------------------------- task heads


def _poison_non_train(plan, seed, finite=True):
    """The plan with every non-train node of every session subgraph given
    other features: finite ones, some near the float32 limit, or NaN."""
    from dataclasses import replace

    rng = np.random.default_rng(seed)
    sessions = []
    for s in plan.sessions:
        feats = np.array(s.subgraph.features)
        other = np.ones(s.subgraph.node_count, dtype=bool)
        other[s.local_ids(s.train_nodes)] = False
        shape = (other.sum(), feats.shape[1])
        feats[other] = (rng.standard_normal(shape) * rng.choice([1.0, 1e3, 1e37], size=(shape[0], 1))
                        if finite else np.nan)
        assert np.isfinite(feats).all() == finite
        sessions.append(replace(s, subgraph=replace(s.subgraph, features=feats)))
    return replace(plan, sessions=tuple(sessions))


@pytest.mark.parametrize("finite", [True, False], ids=["finite", "nan"])
def test_head_weights_never_read_non_train_features(testkit_plan, finite):
    # A head trains on its session's train rows alone: test nodes and any
    # other node of the subgraph cannot move its weights. NaN features show
    # the rows are never read at all (a full-batch pass would raise on them).
    from gclbench.config import resolve_hypers

    config = resolve_hypers(dict(CFG, epochs=30))
    poisoned = _poison_non_train(testkit_plan, seed=17, finite=finite)
    for i, s in enumerate(testkit_plan.sessions):
        assert s.subgraph.node_count > len(s.train_nodes)
        clean = _fit_head(testkit_plan, i, config, seed=5)
        dirty = _fit_head(poisoned, i, config, seed=5)
        assert np.array_equal(clean.class_ids, dirty.class_ids)
        for k, w in clean.params.weights.items():
            assert np.array_equal(w, dirty.params.weights[k]), (i, k)


def test_routed_heads_are_the_per_session_heads_and_route_perfectly(testkit_plan):
    heads = [_fit_head(testkit_plan, i, resolve_point(CFG), 0) for i in range(3)]
    runner = _RoutedHeads(testkit_plan, CFG, seed=0, weighting="laplacian")
    for i in range(1, 4):
        runner.fit_session(i)
    for head, fitted in zip(heads, runner.heads):
        for k, w in head.params.weights.items():
            assert np.array_equal(w, fitted.params.weights[k])
    for j, s in enumerate(testkit_plan.sessions, start=1):
        task = build_eval_task(testkit_plan, j, "local")
        preds = runner.predict(task)
        assert runner.route(task) == j - 1
        # Session class sets are disjoint: in-set predictions mean task j went to head j.
        assert set(int(p) for p in preds) <= set(s.class_ids)
        assert np.array_equal(preds, heads[j - 1].predict(task))


def test_single_session_routing_equals_plain_head(testkit_graph):
    plan1 = plan_ncil(testkit_graph, 2, 1, 30, seed=9)
    res = run_method("tpp_heads", plan1, CFG, mode="local", seed=0)
    head = _fit_head(plan1, 0, resolve_point(CFG), 0)
    s = plan1.sessions[0]
    rows = s.local_ids(s.test_nodes)
    X = np.asarray(s.subgraph.features, np.float64)
    logits, _ = model_forward(head.params, None, X[rows])
    direct = head.class_ids[np.argmax(logits, axis=1)]
    assert res.matrix.rows == [[float(np.mean(direct == s.subgraph.labels[rows]))]]


def test_adversarial_identical_distributions_task_id_half():
    # class_sep=0 with plain-mean prototypes: pure feature statistics carry no
    # session signal, so routing is a coin flip. (Laplacian smoothing would
    # still succeed by coupling train/test through the shared subgraph, which
    # is the transductive leak itself.)
    from gclbench.prototypes import predict_task_id

    hits = []
    for seed in range(24):
        g = synth_tag(SynthConfig(num_classes=4, nodes_per_class=16, feature_dim=8,
                                  class_sep=0.0, intra_p=0.3, inter_p=0.3,
                                  seed=1000 + seed))
        plan = plan_ncil(g, 2, 2, 8, seed=seed)
        protos = TaskPrototypeSet()
        queries = []
        for s in plan.sessions:
            X = np.asarray(s.subgraph.features, np.float64)
            protos.add(task_prototype(s.subgraph, s.local_ids(s.train_nodes), X, 2,
                                      "plain-mean"))
            queries.append(task_prototype(s.subgraph, s.local_ids(s.test_nodes), X, 2,
                                          "plain-mean"))
        hits.extend(predict_task_id(q, protos) == j for j, q in enumerate(queries))
    rate = float(np.mean(hits))
    assert 0.25 <= rate <= 0.75


def test_mix_separates_signs_and_keeps_non_negative_seeds():
    def mix_abs(*parts):  # the formula before signs were kept
        return int(np.random.SeedSequence([abs(int(p)) for p in parts]).generate_state(1)[0])

    for s in (1, 7, 2**31, 2**63 - 1):
        assert _mix(s) != _mix(-s)
        assert _mix(s, 3) != _mix(-s, 3)
    for parts in ((0,), (5,), (5, 7, 0), (2**63, 11), (2**64 - 1, 2)):
        assert _mix(*parts) == mix_abs(*parts)


# ------------------------------------------------- provider-embedding runners


@pytest.mark.parametrize("method", ["simplecil", "simgcl_proto"])
def test_provider_run_loads_cache_once_and_warm_run_sends_nothing(testkit_plan, tmp_path,
                                                                  monkeypatch, method):
    from gclbench.embeddings import EmbeddingCache
    from gclbench.stub_server import StubEmbeddingServer

    loads = []
    load = EmbeddingCache._load

    def counting_load(self):
        loads.append(self.path.exists())
        load(self)

    monkeypatch.setattr(EmbeddingCache, "_load", counting_load)
    with StubEmbeddingServer(dim=8) as srv:
        cfg = dict(CFG, cache_path=str(tmp_path / "c.bin"), fanouts=[3, 3],
                   provider={"kind": "http", "endpoint": srv.endpoint, "model": "stub"})
        cold = run_method(method, testkit_plan, cfg, mode="local", seed=0)
        assert loads == [False]
        sent = srv.request_count
        assert sent > 0
        warm = run_method(method, testkit_plan, cfg, mode="local", seed=0)
        assert loads == [False, True]
        assert srv.request_count == sent
    assert warm.matrix.rows == cold.matrix.rows


def test_cache_filled_at_one_address_serves_another(testkit_plan, tmp_path):
    # The key names the provider kind and model, not the endpoint.
    from gclbench.stub_server import StubEmbeddingServer

    cfg = dict(CFG, cache_path=str(tmp_path / "c.bin"), fanouts=[3, 3])
    with StubEmbeddingServer(dim=8) as first, StubEmbeddingServer(dim=8) as second:
        assert first.endpoint != second.endpoint
        runs = []
        for srv in (first, second):
            provider = {"kind": "http", "endpoint": srv.endpoint, "model": "stub"}
            runs.append(run_method("simgcl_proto", testkit_plan, dict(cfg, provider=provider),
                                   mode="local", seed=0))
        assert first.request_count > 0
        assert second.request_count == 0
    assert runs[0].matrix.rows == runs[1].matrix.rows


def test_file_provider_reads_rows_by_node_id_and_writes_no_cache(testkit_graph, tmp_path,
                                                                  monkeypatch):
    # Two nodes of different classes share one text. Each must get its own
    # matrix row: one-hot label rows classify every node right.
    from gclbench.graph import save_tag

    plan = plan_ncil(testkit_graph, 2, 3, 30, test_cap=500, seed=7)
    s = plan.sessions[0]
    a = int(s.train_nodes[0])
    b = next(int(n) for n in s.test_nodes if testkit_graph.labels[n] != testkit_graph.labels[a])
    texts = list(testkit_graph.texts)
    texts[b] = texts[a]
    onehot = np.eye(6, dtype=np.float32)[testkit_graph.labels]
    g = make_graph(onehot, texts, testkit_graph.labels, testkit_graph.class_names,
                   testkit_graph.edges)
    save_tag(g, tmp_path / "emb")
    (tmp_path / "emb" / "index.json").write_text(str(list(range(g.node_count))))
    plan = plan_ncil(g, 2, 3, 30, test_cap=500, seed=7)
    monkeypatch.chdir(tmp_path)
    provider = {"kind": "file", "matrix": str(tmp_path / "emb" / "features.bin"),
                "index": str(tmp_path / "emb" / "index.json")}
    res = run_method("simplecil", plan, dict(CFG, provider=provider), mode="local", seed=0)
    assert res.matrix.rows == [[1.0], [1.0, 1.0], [1.0, 1.0, 1.0]]
    assert not list(tmp_path.rglob("*.cache.bin"))


# ------------------------------------------------------- eval tasks built once


def _count_calls(monkeypatch, name):
    """Count the calls trainers makes to one of the names it imported."""
    from gclbench import trainers

    calls = []
    fn = getattr(trainers, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(trainers, name, counted)
    return calls


def test_local_simgcl_proto_samples_each_ego_graph_once(testkit_plan, tmp_path, monkeypatch):
    # The train nodes are embedded in fit_session, the test nodes of session j
    # once, after session j; later triangle rows re-score the same embeddings.
    from gclbench.stub_server import StubEmbeddingServer

    samples = _count_calls(monkeypatch, "sample_ego_graph")
    with StubEmbeddingServer(dim=8) as srv:
        cfg = dict(CFG, cache_path=str(tmp_path / "c.bin"), fanouts=[3, 3],
                   provider={"kind": "http", "endpoint": srv.endpoint, "model": "stub"})
        res = run_method("simgcl_proto", testkit_plan, cfg, mode="local", seed=0)
    assert [len(r) for r in res.matrix.rows] == [1, 2, 3]
    assert len(samples) == sum(len(s.train_nodes) + len(s.test_nodes)
                               for s in testkit_plan.sessions)


def test_local_cosine_embeds_each_session_twice(testkit_plan, monkeypatch):
    # Once for the prototypes of session i, once for its local task.
    embeds = _count_calls(monkeypatch, "model_embed")
    run_method("cosine", testkit_plan, dict(CFG, epochs=5), mode="local", seed=0)
    assert len(embeds) == 2 * testkit_plan.num_sessions


@pytest.mark.parametrize("mode", ["local", "global"])
def test_run_method_builds_each_eval_task_once(testkit_plan, monkeypatch, mode):
    built = _count_calls(monkeypatch, "build_eval_task")
    run_method("cosine", testkit_plan, dict(CFG, epochs=5), mode=mode, seed=0)
    assert [i for _, i, _ in built] == [1, 2, 3]


@pytest.mark.parametrize("mode", ["local", "global"])
def test_one_walk_of_all_methods_equals_their_separate_runs(testkit_plan, tmp_path, mode):
    # Every runner fits and scores on the same task objects, yet no runner's
    # numbers may depend on the others in the walk.
    from gclbench.stub_server import StubEmbeddingServer

    with StubEmbeddingServer(dim=8) as srv:
        cfg = dict(CFG, epochs=5, fanouts=[3, 3], cache_path=str(tmp_path / "c.bin"),
                   provider={"kind": "http", "endpoint": srv.endpoint, "model": "stub"})
        walked = run_methods(METHOD_IDS, testkit_plan, cfg, mode=mode, seed=2, dataset="synth")
        alone = [run_method(m, testkit_plan, cfg, mode=mode, seed=2, dataset="synth")
                 for m in METHOD_IDS]
    assert [r.method for r in walked] == list(METHOD_IDS)
    for w, a in zip(walked, alone):
        assert (w.method, w.mode, w.seed, w.dataset) == (a.method, mode, 2, "synth")
        assert w.matrix.rows == a.matrix.rows, w.method
        assert w.summary == a.summary
        assert w.config_hash == a.config_hash


@pytest.mark.parametrize("mode", ["local", "global"])
def test_one_walk_builds_each_eval_task_once(testkit_plan, monkeypatch, mode):
    # A run of several methods used to build every task once per method.
    built = _count_calls(monkeypatch, "build_eval_task")
    results = run_methods(["gcn", "cosine", "tpp_heads"], testkit_plan, dict(CFG, epochs=5),
                          mode=mode)
    assert [i for _, i, _ in built] == list(range(1, testkit_plan.num_sessions + 1))
    assert [r.method for r in results] == ["gcn", "cosine", "tpp_heads"]


@pytest.mark.parametrize("mode", ["local", "global"])
def test_one_walk_trains_each_shared_fit_once(testkit_plan, monkeypatch, mode):
    # gcn, ewc, lwf, cosine and teen train the same session-1 GCN, and both
    # routed methods the same session heads; each runner used to train its
    # own (11 GCN and 6 head train_session calls on this 3-session plan).
    trained = _count_calls(monkeypatch, "train_session")
    run_methods(["gcn", "ewc", "lwf", "cosine", "teen", "tpp_heads", "meanpool_tpp"],
                testkit_plan, dict(CFG, epochs=2), mode=mode)
    n = testkit_plan.num_sessions
    archs = [args[0].arch for args in trained]
    assert (archs.count(ARCH_GCN), archs.count(ARCH_MLP)) == (1 + 3 * (n - 1), n)
    assert len(archs) == 1 + 3 * (n - 1) + n


@pytest.mark.parametrize("method, change, seed, shared", [
    ("gcn", {"lr": 3e-2}, 4, False),
    ("gcn", {"hidden_dim": 16}, 4, False),
    ("gcn", {"dropout": 0.1}, 4, False),
    ("gcn", {"conv_bias": True}, 4, False),
    ("gcn", {"epochs": 4}, 4, False),
    ("gcn", {}, 5, False),
    ("ewc", {"strength": 10.0}, 4, True),
    ("tpp_heads", {"lr": 3e-2}, 4, False),
    ("tpp_heads", {"hidden_dim": 16}, 4, False),
    ("tpp_heads", {"dropout": 0.1}, 4, False),
    ("tpp_heads", {"epochs": 4}, 4, False),
    ("tpp_heads", {}, 5, False),
    ("tpp_heads", {"k_smooth": 0, "conv_bias": True}, 4, True),
], ids=["gcn-lr", "gcn-hidden", "gcn-dropout", "gcn-conv-bias", "gcn-epochs", "gcn-seed",
        "ewc-strength", "heads-lr", "heads-hidden", "heads-dropout", "heads-epochs", "heads-seed",
        "heads-k-and-conv-bias"])
def test_two_runners_of_one_method_share_a_fit_only_when_its_key_matches(
        testkit_plan, monkeypatch, method, change, seed, shared):
    # A fit is keyed by the session, the seed and every hyperparameter it reads;
    # a value it does not read (strength, k_smooth, a head's conv_bias) does not split it.
    configs = [dict(CFG, epochs=3), {**CFG, "epochs": 3, **change}]
    seeds = (4, seed)
    runners = [_RUNNERS[method](testkit_plan, c, s, "synth") for c, s in zip(configs, seeds)]
    trained = _count_calls(monkeypatch, "train_session")
    matrices, _, _ = walk(runners, "local")
    n = testkit_plan.num_sessions
    assert len(trained) == 2 * n - (1 if method != "tpp_heads" else n) * shared
    for c, s, matrix in zip(configs, seeds, matrices):
        assert matrix.rows == run_method(method, testkit_plan, c, mode="local", seed=s).matrix.rows


def test_a_shared_session1_gcn_is_never_updated_in_place(testkit_plan):
    # gcn, ewc and lwf grow and retrain the GCN they share with cosine in every
    # later session; cosine's frozen copy must stay the session-1 fit.
    cfg = dict(CFG, epochs=5)
    runners = [_RUNNERS[m](testkit_plan, cfg, 3, "synth") for m in ("gcn", "ewc", "lwf", "cosine")]
    walk(runners, "local")
    cosine = runners[-1]
    (shared,) = cosine.fits.values()  # the session-1 GCN, the walk's one shared fit
    assert shared is cosine.params and all(r.fits is cosine.fits for r in runners)
    fresh = _GcnFamily(testkit_plan, cfg, 3)
    fresh.fit_session(1)
    assert cosine.params.weights.keys() == fresh.params.weights.keys()
    for k, w in fresh.params.weights.items():
        assert np.array_equal(cosine.params.weights[k], w), k


@pytest.mark.parametrize("methods, error, message", [
    (["gcn", "nope"], ValueError, "unknown method 'nope'; valid ids: gcn, "),
    (["gcn", "ewc", "simplecil"], TrainingError, "embedding-based method needs a provider"),
], ids=["unknown-id", "no-provider"])
def test_run_methods_builds_every_runner_before_any_fit(testkit_plan, monkeypatch, methods,
                                                        error, message):
    trained = _count_calls(monkeypatch, "train_session")
    with pytest.raises(error, match=message):
        run_methods(methods, testkit_plan, dict(CFG, epochs=2))
    assert trained == []


@pytest.mark.parametrize("method", ["cosine", "simgcl_proto", "tpp_heads"])
def test_prototype_runner_never_reuses_another_tasks_embedding(testkit_graph, testkit_plan,
                                                               tmp_path, method):
    # A runner that has scored local task 1 must label a different task with
    # session index 1 (other eval nodes of the same subgraph, or task 1 of a
    # second plan) exactly as a fresh runner does. For routed heads the memos
    # hold each task's query prototype and each head's predictions.
    from gclbench.sessions import EvalTask
    from gclbench.stub_server import StubEmbeddingServer
    from gclbench.trainers import _RUNNERS

    s = testkit_plan.sessions[0]
    others = [
        EvalTask(1, s.subgraph, s.local_ids(s.train_nodes), s.node_map,
                 testkit_plan.cumulative_classes(1)),
        build_eval_task(plan_ncil(testkit_graph, 2, 3, 30, test_cap=500, seed=8), 1, "local"),
    ]
    with StubEmbeddingServer(dim=8) as srv:
        cfg = dict(CFG, epochs=20, cache_path=str(tmp_path / "c.bin"), fanouts=[3, 3],
                   provider={"kind": "http", "endpoint": srv.endpoint, "model": "stub"})
        runners = [_RUNNERS[method](testkit_plan, cfg, 0, "synth") for _ in range(3)]
        for runner in runners:
            for i in range(1, testkit_plan.num_sessions + 1):
                runner.fit_session(i)
        primed = runners[0]
        task = build_eval_task(testkit_plan, 1, "local")
        first = primed.predict(task)
        assert np.array_equal(primed.predict(task), first)
        for other, fresh in zip(others, runners[1:]):
            assert np.array_equal(primed.predict(other), fresh.predict(other))
    # A task the caller drops takes its embedding rows (or query prototype and
    # head predictions) with it.
    del task, others, other
    assert primed._memo == {}
    assert all(head._memo == {} for head in getattr(primed, "heads", []))


def test_local_routed_run_smooths_each_session_once(testkit_plan, monkeypatch):
    # One task prototype per fit (the session's train nodes) and one per task
    # (its eval nodes); later rows reuse a task's query, which used to be
    # derived again for every row.
    passes = _count_calls(monkeypatch, "task_prototype")
    run_method("tpp_heads", testkit_plan, dict(CFG, epochs=5), mode="local", seed=0)
    n = testkit_plan.num_sessions
    assert len(passes) == 2 * n
    for j, (fit, query) in enumerate(zip(passes[0::2], passes[1::2])):  # fit j, then task j
        s = testkit_plan.sessions[j]
        assert fit[0] is s.subgraph and np.array_equal(fit[1], s.local_ids(s.train_nodes))
        assert query[0] is s.subgraph and np.array_equal(query[1], s.local_ids(s.test_nodes))


def test_leakage_probe_trains_each_head_once_and_scores_each_task_once(testkit_plan,
                                                                      monkeypatch):
    from gclbench import trainers
    from gclbench.evaluation import leakage_diagnostic

    trained = _count_calls(monkeypatch, "train_session")
    passes = _count_calls(monkeypatch, "task_prototype")
    forwards = []
    forward = trainers.model_forward

    def counted(p, S, X, dropout_seed, **kwargs):
        if dropout_seed is None:  # a head scoring one task's eval nodes
            forwards.append((id(p), X.tobytes()))
        return forward(p, S, X, dropout_seed=dropout_seed, **kwargs)

    monkeypatch.setattr(trainers, "model_forward", counted)
    report = leakage_diagnostic(testkit_plan, k_grid=(1, 2), config=dict(CFG, epochs=5))
    n = testkit_plan.num_sessions
    assert [(e["weighting"], e["k"]) for e in report.entries] == [
        ("laplacian", 1), ("laplacian", 2), ("plain-mean", 1), ("plain-mean", 2)]
    assert len(trained) == n
    assert len(passes) == 2 * 2 * 2 * n  # per runner: one per fit, one per task
    assert 0 < len(forwards) == len(set(forwards)) <= n * n


_K_RULE, _K_GRID = "hyperparameters/k_smooth", "k_grid takes one or more distinct integers >= 0"


@pytest.mark.parametrize("k_grid, message", [
    ((-1,), _K_RULE), ((1.5,), _K_RULE), ((1, 1), _K_GRID), ((True,), _K_RULE), ((), _K_GRID),
], ids=["negative", "float", "repeated", "bool", "empty"])
def test_bad_library_k_grid_fails_before_any_head_trains(testkit_plan, monkeypatch, k_grid,
                                                         message):
    # Before, -1 trained every head and then failed in the smoothing step,
    # 1.5 ended in a bare TypeError and (1, 1) returned each entry twice. A k
    # fails by the k_smooth rule as its runner is built.
    from gclbench.evaluation import leakage_diagnostic

    trained = _count_calls(monkeypatch, "_fit_head")
    with pytest.raises(ConfigError, match=message):
        leakage_diagnostic(testkit_plan, k_grid=k_grid, config=CFG)
    assert trained == []
