import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gclbench.graph import gcn_normalized_adjacency
from gclbench.nn import (
    ARCH_GCN,
    ARCH_MLP,
    _dropout_mask,
    adam_step,
    cross_entropy,
    grow_output,
    init_adam,
    init_params,
    model_backward,
    model_embed,
    model_forward,
    spmm,
)
from gclbench.graph import make_graph
from gclbench.synth import SynthConfig, synth_tag

from oracles import (
    PerKeyAdam,
    adam_step_per_key,
    dropout_masks,
    finite_diff_check,
    full_batch_epoch,
    inverted_dropout,
    layer_fields,
    model_forward_dense,
)


def _csr_from_dense(d):
    import scipy.sparse as sp

    m = sp.csr_matrix(np.asarray(d, dtype=np.float64))
    m.sort_indices()
    return m


def _small_graph(n_nodes=6, seed=3):
    g = synth_tag(SynthConfig(num_classes=2, nodes_per_class=n_nodes // 2,
                              feature_dim=4, intra_p=0.8, inter_p=0.3, seed=seed))
    return g


# ----------------------------------------------------------------------- spmm


def test_spmm_identity():
    s = _csr_from_dense(np.eye(3))
    x = np.arange(6, dtype=np.float64).reshape(3, 2)
    assert np.array_equal(spmm(s, x), x)


def test_spmm_half_matrix():
    s = _csr_from_dense(0.5 * np.ones((2, 2)))
    assert np.allclose(spmm(s, np.array([[1.0], [0.0]])), [[0.5], [0.5]])


def test_spmm_zero():
    s = _csr_from_dense(np.zeros((3, 3)))
    assert np.array_equal(spmm(s, np.ones((3, 2))), np.zeros((3, 2)))


def test_spmm_matches_dense_reference():
    rng = np.random.default_rng(0)
    for _ in range(5):
        n, m = rng.integers(2, 64, size=2)
        dense = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.3)
        x = rng.standard_normal((n, m))
        assert np.allclose(spmm(_csr_from_dense(dense), x), dense @ x, atol=1e-12)


def test_spmm_dim_mismatch():
    s = _csr_from_dense(np.eye(3))
    with pytest.raises(ValueError, match="dimension mismatch"):
        spmm(s, np.zeros((4, 1)))


# -------------------------------------------------------------------- forward


def test_forward_identity_weights_single_node():
    # one node with a self-loop; identity weights pass [1, -1] through one ReLU
    g = make_graph(np.array([[1.0, -1.0]], np.float32), ["n"], np.array([0]),
                   ["c0", "c1"], np.array([[0, 0]]))
    s = gcn_normalized_adjacency(g)
    p = init_params(ARCH_GCN, 2, 2, 2, seed=0)
    p.weights["W1"] = np.eye(2)
    p.weights["W2"] = np.eye(2)
    p.weights["W3"] = np.eye(2)
    p.weights["b3"] = np.zeros(2)
    logits, _ = model_forward(p, s, np.array([[1.0, -1.0]]))
    assert np.allclose(logits, [[1.0, 0.0]])


def test_forward_zero_weights():
    g = _small_graph()
    s = gcn_normalized_adjacency(g)
    p = init_params(ARCH_GCN, g.feature_dim, 8, 2, seed=0)
    for k in p.weights:
        p.weights[k] = np.zeros_like(p.weights[k])
    logits, _ = model_forward(p, s, g.features)
    assert np.array_equal(logits, np.zeros_like(logits))


def test_forward_eval_deterministic():
    g = _small_graph()
    s = gcn_normalized_adjacency(g)
    p = init_params(ARCH_GCN, g.feature_dim, 8, 2, seed=1)
    a, _ = model_forward(p, s, g.features)
    b, _ = model_forward(p, s, g.features)
    assert np.array_equal(a, b)


def test_forward_train_mode_seeded():
    g = _small_graph()
    s = gcn_normalized_adjacency(g)
    p = init_params(ARCH_GCN, g.feature_dim, 8, 2, seed=1)
    a, _ = model_forward(p, s, g.features, dropout_seed=5)
    b, _ = model_forward(p, s, g.features, dropout_seed=5)
    c, _ = model_forward(p, s, g.features, dropout_seed=6)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_forward_arch_operator_contract():
    g = _small_graph()
    s = gcn_normalized_adjacency(g)
    gcn = init_params(ARCH_GCN, g.feature_dim, 8, 2, seed=1)
    mlp = init_params(ARCH_MLP, g.feature_dim, 8, 2, seed=1)
    with pytest.raises(ValueError, match="requires"):
        model_forward(gcn, None, g.features)
    with pytest.raises(ValueError, match="no propagation"):
        model_forward(mlp, s, g.features)


@pytest.mark.parametrize("arch, conv_bias", [(ARCH_GCN, False), (ARCH_GCN, True),
                                             (ARCH_MLP, False)])
def test_dense_forward_oracle_matches_model_forward_and_embed(arch, conv_bias):
    # Forward is the documented network, not just consistent with backward.
    g = _small_graph(n_nodes=10, seed=4)
    X = np.asarray(g.features, np.float64)
    s = gcn_normalized_adjacency(g) if arch == ARCH_GCN else None
    p = init_params(arch, g.feature_dim, 6, 3, seed=8, conv_bias=conv_bias)
    rng = np.random.default_rng(9)
    for k in p.weights:  # nonzero biases, and live and dead ReLU units
        p.weights[k] = rng.standard_normal(p.weights[k].shape)
    want_logits, want_embed = model_forward_dense(p, None if s is None else s.toarray(), X)
    logits, _ = model_forward(p, s, X)
    assert np.abs(logits - want_logits).max() <= 1e-12
    assert np.abs(model_embed(p, s, X) - want_embed).max() <= 1e-12
    assert (want_embed > 0).any() and (want_embed == 0).any()


# ----------------------------------------------------------------------- rows

# Row sets as drawn: a sparse set in no order, a single row, and every row in
# reverse. The passes take rows in ascending order only, so each test feeds
# _rows(name), the set sorted (see tests/test_trainers.py,
# test_rows_must_be_strictly_increasing).
_ROW_SETS = {
    "unsorted": [7, 2, 11, 0, 5],
    "single": [4],
    "all": list(range(11, -1, -1)),
}


def _rows(name):
    return np.sort(_ROW_SETS[name])


def _rows_case(arch, conv_bias):
    g = _small_graph(n_nodes=12, seed=5)
    X = np.asarray(g.features, np.float64)
    s = gcn_normalized_adjacency(g) if arch == ARCH_GCN else None
    p = init_params(arch, g.feature_dim, 6, 3, seed=3, conv_bias=conv_bias)
    rng = np.random.default_rng(11)
    for k in p.weights:  # nonzero biases, and live and dead ReLU units
        p.weights[k] = rng.standard_normal(p.weights[k].shape)
    return p, s, X


_ROW_ARCHS = [(ARCH_GCN, False), (ARCH_GCN, True), (ARCH_MLP, False)]


@pytest.mark.parametrize("arch, conv_bias", _ROW_ARCHS)
@pytest.mark.parametrize("rows", list(_ROW_SETS), ids=list(_ROW_SETS))
def test_rows_forward_equals_full_logits_at_rows(arch, conv_bias, rows):
    p, s, X = _rows_case(arch, conv_bias)
    r = _rows(rows)
    full, _ = model_forward(p, s, X)
    got, _ = model_forward(p, s, X, rows=r)
    assert got.shape == (r.size, 3)
    assert np.abs(got - full[r]).max() <= 1e-12


@pytest.mark.parametrize("arch, conv_bias", _ROW_ARCHS)
@pytest.mark.parametrize("rows", list(_ROW_SETS), ids=list(_ROW_SETS))
def test_rows_dropout_masks_have_their_layers_rows(arch, conv_bias, rows):
    # Each mask is drawn for the rows its layer runs on and no other: a GCN's
    # layer 1 on the rows' neighbours (self-loops included), then layer 2 on
    # the rows; mlp2's one layer on the rows. One block per layer, in layer
    # order, from default_rng(dropout_seed).
    p, s, X = _rows_case(arch, conv_bias)
    r = _rows(rows)
    _, cache = model_forward(p, s, X, dropout_seed=21, rows=r)
    fields = layer_fields(arch, s, r)
    assert len(fields) == (2 if arch == ARCH_GCN else 1)
    if arch == ARCH_GCN:
        assert np.array_equal(fields[0], np.flatnonzero(np.asarray(s[r].sum(axis=0)).ravel()))
    for i, (at, mask) in enumerate(zip(fields, dropout_masks(p, s, X.shape[0], r, 21)), 1):
        assert cache[f"M{i}"].shape == (at.size, p.weights["W1"].shape[1]), i
        assert np.array_equal(cache[f"M{i}"], mask[at]), i
    assert (cache["M1"] == 0).any() and (cache["M1"] > 0).any()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(shape=st.tuples(st.integers(0, 40), st.integers(1, 9)),
       rate=st.floats(0.0, 1.0, exclude_max=True),
       seed=st.integers(0, 2**32 - 1))
def test_dropout_mask_is_the_three_pass_formula_bit_for_bit(shape, rate, seed):
    # One pass, multiplying by the reciprocal of the keep probability, gives
    # the compare-cast-divide mask and draws the same uniforms.
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = _dropout_mask(rng, shape, rate)
    want = inverted_dropout(oracle_rng.random(shape), rate)
    assert got.dtype == want.dtype == np.float64
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


@pytest.mark.parametrize("arch, conv_bias", _ROW_ARCHS)
@pytest.mark.parametrize("rows", list(_ROW_SETS), ids=list(_ROW_SETS))
@pytest.mark.parametrize("dropout_seed", [None, 21], ids=["eval", "train"])
def test_rows_backward_matches_full_batch_epoch(arch, conv_bias, rows, dropout_seed):
    p, s, X = _rows_case(arch, conv_bias)
    r = _rows(rows)
    dl = np.random.default_rng(13).standard_normal((r.size, 3))
    want = full_batch_epoch(p, s, X, r, dl, dropout_seed)
    _, cache = model_forward(p, s, X, dropout_seed=dropout_seed, rows=r)
    got = model_backward(cache, dl)
    assert set(got) == set(want)
    for k in want:
        assert np.abs(got[k] - want[k]).max() <= 1e-12 * max(1.0, np.abs(want[k]).max()), k
    assert any(np.abs(v).max() > 0 for v in want.values())


# ------------------------------------------------------------------- backward


def test_backward_zero_dlogits():
    g = _small_graph()
    s = gcn_normalized_adjacency(g)
    p = init_params(ARCH_GCN, g.feature_dim, 8, 3, seed=2)
    logits, cache = model_forward(p, s, g.features)
    grads = model_backward(cache, np.zeros_like(logits))
    assert all(np.array_equal(v, np.zeros_like(v)) for v in grads.values())


def test_backward_linearity():
    g = _small_graph()
    s = gcn_normalized_adjacency(g)
    p = init_params(ARCH_GCN, g.feature_dim, 8, 3, seed=2)
    logits, cache = model_forward(p, s, g.features)
    rng = np.random.default_rng(0)
    dl = rng.standard_normal(logits.shape)
    g1 = model_backward(cache, dl)
    g2 = model_backward(cache, 2.0 * dl)
    for k in g1:
        assert np.allclose(2.0 * g1[k], g2[k], atol=1e-12)


def test_backward_matches_finite_differences_gcn():
    g = synth_tag(SynthConfig(num_classes=2, nodes_per_class=2, feature_dim=3,
                              intra_p=1.0, inter_p=0.5, seed=7))
    s = gcn_normalized_adjacency(g)
    X = np.asarray(g.features, np.float64)
    labels = g.labels
    p = init_params(ARCH_GCN, 3, 5, 2, seed=4)

    def loss_fn(params):
        logits, cache = model_forward(params, s, X)
        loss, dl = cross_entropy(logits, labels)
        return loss, model_backward(cache, dl)

    report = finite_diff_check(loss_fn, p, tolerance=1e-4, seed=0)
    assert report.passed, report


def test_backward_conv_bias_variant():
    g = _small_graph()
    s = gcn_normalized_adjacency(g)
    X = np.asarray(g.features, np.float64)
    p = init_params(ARCH_GCN, g.feature_dim, 5, 2, seed=4, conv_bias=True)
    assert "b1" in p.weights and "b2" in p.weights

    def loss_fn(params):
        logits, cache = model_forward(params, s, X)
        loss, dl = cross_entropy(logits, g.labels)
        return loss, model_backward(cache, dl)

    assert finite_diff_check(loss_fn, p, tolerance=1e-4, seed=1).passed


def test_backward_matches_finite_differences_mlp():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((8, 4))
    labels = rng.integers(0, 3, size=8)
    p = init_params(ARCH_MLP, 4, 6, 3, seed=6)

    def loss_fn(params):
        logits, cache = model_forward(params, None, X)
        loss, dl = cross_entropy(logits, labels)
        return loss, model_backward(cache, dl)

    assert finite_diff_check(loss_fn, p, tolerance=1e-4, seed=2).passed


# -------------------------------------------------------------- cross entropy


def test_cross_entropy_uniform_two_classes():
    loss, _ = cross_entropy(np.zeros((4, 2)), np.array([0, 1, 0, 1]))
    assert abs(loss - np.log(2)) < 1e-12


def test_cross_entropy_margin_limit():
    logits = np.array([[50.0, 0.0]])
    loss, _ = cross_entropy(logits, np.array([0]))
    assert loss < 1e-12


def test_cross_entropy_nonnegative_and_gradient_rows():
    rng = np.random.default_rng(1)
    logits = rng.standard_normal((6, 4))
    labels = rng.integers(0, 4, 6)
    loss, dl = cross_entropy(logits, labels)
    assert loss >= 0
    # gradient rows sum to zero (softmax minus one-hot, scaled by 1/n)
    assert np.allclose(dl.sum(axis=1), 0, atol=1e-12)


def test_cross_entropy_on_no_rows_names_the_cause():
    with pytest.raises(ValueError, match="no rows"):
        cross_entropy(np.zeros((0, 3)), np.zeros(0, np.int64))


# ----------------------------------------------------------------------- adam


def test_adam_zero_gradients_no_change():
    p = init_params(ARCH_MLP, 2, 3, 2, seed=0)
    before = {k: v.copy() for k, v in p.weights.items()}
    st = init_adam(p, lr=0.1)
    grads = {k: np.zeros_like(v) for k, v in p.weights.items()}
    p, st = adam_step(p, grads, st)
    for k in before:
        assert np.array_equal(p.weights[k], before[k])
    assert st.step == 1


def test_adam_first_step_scalar():
    p = init_params(ARCH_MLP, 1, 1, 1, seed=0)
    p.weights = {"w": np.array([0.0])}
    st = init_adam(p, lr=0.1)
    p, _ = adam_step(p, {"w": np.array([1.0])}, st)
    # bias-corrected first update: -lr * 1 / (1 + eps)
    assert abs(p.weights["w"][0] + 0.1) < 1e-8


def test_adam_deterministic_trajectory():
    def run():
        p = init_params(ARCH_MLP, 3, 4, 2, seed=9)
        st = init_adam(p, lr=1e-2)
        rng = np.random.default_rng(3)
        for _ in range(10):
            grads = {k: rng.standard_normal(v.shape) for k, v in p.weights.items()}
            p, st = adam_step(p, grads, st)
        return p

    a, b = run(), run()
    for k in a.weights:
        assert np.array_equal(a.weights[k], b.weights[k])


def test_adam_nonfinite_gradient_rejected():
    p = init_params(ARCH_MLP, 2, 2, 2, seed=0)
    st = init_adam(p, lr=0.1)
    grads = {k: np.zeros_like(v) for k, v in p.weights.items()}
    grads["W1"][0, 0] = np.nan
    with pytest.raises(FloatingPointError):
        adam_step(p, grads, st)


def test_adam_failed_step_leaves_weights_and_state_untouched():
    # The later steps update the weights in place, as views of one flat
    # vector; a step that raises must write none of it.
    p = init_params(ARCH_MLP, 3, 4, 2, seed=9)
    st = init_adam(p, lr=1e-2)
    rng = np.random.default_rng(3)
    for _ in range(2):
        p, st = adam_step(p, {k: rng.standard_normal(v.shape) for k, v in p.weights.items()}, st)
    before = ({k: v.copy() for k, v in p.weights.items()}, st.m.copy(), st.v.copy(), st.w.copy())
    grads = {k: np.ones(v.shape) for k, v in p.weights.items()}
    grads["b2"][1] = np.nan
    with pytest.raises(FloatingPointError, match="non-finite gradient for b2"):
        adam_step(p, grads, st)
    assert st.step == 2
    for k, w in before[0].items():
        assert np.array_equal(p.weights[k], w) and p.weights[k].base is st.w
    for got, want in zip((st.m, st.v, st.w), before[1:]):
        assert np.array_equal(got, want)


def _bits(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a, dtype=np.float64).tobytes()


def _step_both(flat, oracle, grads):
    """One flat and one per-key step on copies of one state: (flat, oracle) results,
    each the new (params, state) or the message of the FloatingPointError raised."""
    out = []
    for step, (p, state) in ((adam_step, flat), (adam_step_per_key, oracle)):
        try:
            out.append(step(p, {k: g.copy() for k, g in grads.items()}, state))
        except FloatingPointError as exc:
            out.append(str(exc))
    return out


_POISONS = ("nan gradient", "inf gradient", "overflowing square", "overflowing weight")


@settings(max_examples=120, deadline=None, derandomize=True)
@given(data=st.data())
def test_flat_adam_step_is_the_per_key_step_bit_for_bit(data):
    # Drawn shapes, gradients and step counts: the flat step's weights and
    # moments equal the per-key oracle's bit for bit, its weights are views of
    # one vector, and a poisoned last step raises the oracle's first message
    # (first key in gradient order; gradient, then second moment, then weights).
    shapes = data.draw(st.lists(st.lists(st.integers(1, 4), min_size=1, max_size=2),
                                min_size=1, max_size=4))
    keys = [f"w{i}" for i in range(len(shapes))]
    order = data.draw(st.permutations(keys))
    lr = data.draw(st.sampled_from([1e-3, 3e-2, 0.5, 7.0]))
    values = st.floats(-1e4, 1e4, allow_nan=False)
    init = {k: data.draw(hnp.arrays(np.float64, tuple(s), elements=values))
            for k, s in zip(keys, shapes)}
    p = init_params(ARCH_MLP, 1, 1, 1, seed=0)
    p.weights = init
    flat = (p.copy(), init_adam(p, lr))
    oracle = (p.copy(), PerKeyAdam.start(p, lr))

    for _ in range(data.draw(st.integers(1, 6))):
        grads = {k: data.draw(hnp.arrays(np.float64, init[k].shape, elements=values))
                 for k in order}
        flat, oracle = _step_both(flat, oracle, grads)
        (pf, sf), (po, so) = flat, oracle
        assert sf.step == so.step
        for k in keys:
            assert _bits(pf.weights[k]) == _bits(po.weights[k])
            assert pf.weights[k].base is not None
            assert pf.weights[k].base is pf.weights[keys[0]].base
        assert _bits(sf.m) == b"".join(_bits(so.m[k]) for k in keys)
        assert _bits(sf.v) == b"".join(_bits(so.v[k]) for k in keys)

    poison = data.draw(st.sampled_from(_POISONS))
    k = data.draw(st.sampled_from(keys))
    at = data.draw(st.integers(0, init[k].size - 1))
    grads = {j: np.ones(init[j].shape) for j in order}
    grads[k].flat[at] = {"nan gradient": np.nan, "inf gradient": -np.inf,
                         "overflowing square": 1e200}.get(poison, 1.0)
    if poison == "overflowing weight":
        for params, state in (flat, oracle):
            params.weights[k].flat[at] = -1.7e308
            state.lr = 1e308
    got, want = _step_both(flat, oracle, grads)
    assert isinstance(want, str)
    assert got == want


# --------------------------------------------------------------- finite diff


def test_finite_diff_constant_loss():
    p = init_params(ARCH_MLP, 2, 3, 2, seed=1)

    def loss_fn(params):
        return 1.5, {k: np.zeros_like(v) for k, v in params.weights.items()}

    report = finite_diff_check(loss_fn, p, tolerance=1e-4)
    assert report.passed
    assert report.max_rel_error < 1e-6


def test_grow_output_preserves_old_columns():
    p = init_params(ARCH_GCN, 4, 8, 2, seed=5)
    w_before = p.weights["W3"].copy()
    q = grow_output(p, 3, seed=11)
    assert q.weights["W3"].shape == (8, 5)
    assert np.array_equal(q.weights["W3"][:, :2], w_before)
    assert np.array_equal(q.weights["b3"][2:], np.zeros(3))
