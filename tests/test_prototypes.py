import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gclbench.graph import make_graph
from gclbench.prototypes import (
    PrototypeBank,
    TaskPrototypeSet,
    build_prototypes,
    classify_batch,
    predict_task_id,
    task_prototype,
    teen_calibrate,
)
from gclbench.sessions import EVAL_EDGES_FULL, EVAL_EDGES_INTRA, build_eval_task, plan_ncil
from gclbench.synth import SynthConfig, synth_tag

from oracles import (
    argmax_lowest,
    cosine_scores,
    group_means,
    nearest_task,
    task_prototype_dense,
    teen_shift,
)


# ------------------------------------------------------------ build_prototypes


def test_two_point_mean():
    bank = PrototypeBank()
    build_prototypes(bank, np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([3, 3]),
                     sample_num=10, seed=0)
    assert np.allclose(bank.prototypes[3], [0.5, 0.5])


def test_single_member_class():
    bank = PrototypeBank()
    emb = np.array([[2.0, -1.0], [5.0, 5.0]])
    build_prototypes(bank, emb, np.array([0, 1]), sample_num=10, seed=0)
    assert np.array_equal(bank.prototypes[0], emb[0])
    assert np.array_equal(bank.prototypes[1], emb[1])


def test_seeded_subset_mean_matches_replayed_selection():
    rng = np.random.default_rng(4)
    emb = rng.standard_normal((120, 6))
    labels = np.zeros(120, dtype=np.int64)
    bank = PrototypeBank()
    build_prototypes(bank, emb, labels, sample_num=100, seed=99)
    # replay the documented selection rule independently, then brute-force mean
    sel_rng = np.random.default_rng(99)
    members = np.sort(sel_rng.choice(np.arange(120), size=100, replace=False))
    expect = np.stack([emb[i] for i in members]).mean(axis=0)
    assert np.array_equal(bank.prototypes[0], expect)


def test_existing_classes_never_overwritten():
    bank = PrototypeBank()
    build_prototypes(bank, np.array([[1.0, 1.0]]), np.array([0]), 10, 0)
    first = bank.prototypes[0].copy()
    build_prototypes(bank, np.array([[9.0, 9.0], [3.0, 4.0]]), np.array([0, 1]), 10, 1)
    assert np.array_equal(bank.prototypes[0], first)
    assert np.array_equal(bank.prototypes[1], [3.0, 4.0])


def test_group_mean_oracle_exact():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(2, 64))
        d = int(rng.integers(1, 8))
        emb = rng.standard_normal((n, d))
        labels = rng.integers(0, 4, size=n)
        bank = PrototypeBank()
        build_prototypes(bank, emb, labels, sample_num=n + 1, seed=0)
        for c, mean in group_means(emb, labels).items():
            assert np.array_equal(bank.prototypes[c], mean)


# ------------------------------------------------------------- classify_batch


def _bank(protos, temperature=1.0):
    return PrototypeBank(temperature, {c: np.array(v, dtype=np.float64) for c, v in protos.items()})


def test_classify_aligned_vector():
    bank = _bank({0: [1.0, 0.0], 1: [0.0, 1.0]})
    assert list(classify_batch(bank, np.array([[1.0, 0.0], [0.0, 2.0]]))) == [0, 1]


def test_classify_tie_breaks_to_lowest_class():
    bank = _bank({2: [0.0, 1.0], 5: [1.0, 0.0]})
    h = np.array([[1.0, 1.0]]) / np.sqrt(2)  # equidistant
    assert list(classify_batch(bank, h)) == [2]


def test_classify_zero_norm_scores_zero():
    # A zero prototype scores 0, so a negatively aligned query picks it; a
    # zero query scores 0 everywhere and falls to the lowest id.
    bank = _bank({0: [0.0, 0.0], 1: [1.0, 0.0], 2: [0.0, 1.0]})
    H = np.array([[1.0, 0.0], [-1.0, -1.0], [0.0, 0.0]])
    assert list(classify_batch(bank, H)) == [1, 0, 0]


def test_classify_overflow_raises_without_warnings(recwarn):
    # The largest finite norms still score: their dot products cannot overflow.
    big = _bank({0: [1e154, 0.0], 1: [0.0, 1e154]})
    assert list(classify_batch(big, np.array([[0.0, 1e154]]))) == [1]
    for bank, h in ((big, [1e155, 1.0]),  # the squared norm overflows
                    (_bank({0: [1e155, 0.0]}), [1.0, 0.0]),
                    (big, [np.nan, 0.0])):
        with pytest.raises(FloatingPointError, match="non-finite embedding norm"):
            classify_batch(bank, np.array([h]))
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_classify_errors():
    with pytest.raises(ValueError, match="empty"):
        classify_batch(PrototypeBank(), np.array([[1.0]]))
    bank = _bank({0: [1.0, 0.0]})
    with pytest.raises(ValueError, match="embedding dim mismatch"):
        classify_batch(bank, np.array([[1.0, 0.0, 0.0]]))
    with pytest.raises(ValueError, match="embedding dim mismatch"):
        classify_batch(bank, np.array([1.0, 0.0]))  # one vector, not a 2-D batch


def test_classify_matches_oracle_scores():
    rng = np.random.default_rng(1)
    for _ in range(50):
        d = int(rng.integers(1, 6))
        protos = {int(c): rng.standard_normal(d) for c in rng.choice(20, 4, replace=False)}
        tau = float(rng.uniform(0.1, 8.0))
        H = rng.standard_normal((int(rng.integers(1, 8)), d))
        preds = classify_batch(PrototypeBank(tau, dict(protos)), H)
        # The bank's temperature must not move the argmax, so the oracle runs
        # at tau = 1: in one dimension every same-sign prototype ties exactly.
        assert list(preds) == [argmax_lowest(cosine_scores(h, protos, 1.0)) for h in H]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.1, 10.0), st.floats(0.1, 10.0))
def test_classify_positive_rescaling_invariance(seed, alpha, tau_scale):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 6))
    k = int(rng.integers(2, 5))
    protos = {c: rng.standard_normal(d) for c in range(k)}
    h = rng.standard_normal((1, d))
    tau = float(rng.uniform(0.5, 4.0))
    (base,) = classify_batch(PrototypeBank(tau, {c: v.copy() for c, v in protos.items()}), h)
    (scaled_h,) = classify_batch(PrototypeBank(tau, {c: v.copy() for c, v in protos.items()}),
                                 alpha * h)
    scaled_protos = {c: (alpha * v if c == base else v.copy()) for c, v in protos.items()}
    (scaled_p,) = classify_batch(PrototypeBank(tau, scaled_protos), h)
    (scaled_t,) = classify_batch(
        PrototypeBank(tau * tau_scale, {c: v.copy() for c, v in protos.items()}), h)
    assert base == scaled_h == scaled_p == scaled_t


# ------------------------------------------------------------- teen_calibrate


def test_teen_single_base_convex_shift():
    bank = PrototypeBank()
    p_c = np.array([1.0, 0.0])
    p_b = np.array([0.0, 1.0])
    bank.prototypes = {0: p_b.copy(), 1: p_c.copy()}
    teen_calibrate(bank, base_classes=[0], novel_classes=[1])
    expect = 0.5 * p_c + 0.5 * p_b
    expect /= np.linalg.norm(expect)
    assert np.allclose(bank.prototypes[1], expect, atol=1e-12)
    assert np.array_equal(bank.prototypes[0], p_b)


def test_teen_identical_prototype_fixed_point():
    bank = PrototypeBank()
    v = np.array([0.6, 0.8])
    bank.prototypes = {0: v.copy(), 1: v.copy()}
    teen_calibrate(bank, base_classes=[0], novel_classes=[1])
    assert np.allclose(bank.prototypes[1], v, atol=1e-12)


def test_teen_two_base_matches_oracle():
    bank = PrototypeBank()
    b0 = np.array([1.0, 0.0])
    b1 = np.array([0.0, 1.0])
    novel = np.array([1.0, 0.0])
    bank.prototypes = {0: b0.copy(), 1: b1.copy(), 2: novel.copy()}
    teen_calibrate(bank, base_classes=[0, 1], novel_classes=[2],
                   softmax_T=16.0, shift_weight=0.5)
    expect = teen_shift(novel, [b0, b1], 16.0, 0.5)
    assert np.allclose(bank.prototypes[2], expect, atol=1e-12)


def test_teen_convex_hull_pre_normalization():
    rng = np.random.default_rng(3)
    for _ in range(20):
        d = 4
        base = {c: rng.standard_normal(d) for c in range(3)}
        novel = rng.standard_normal(d)
        alpha = float(rng.uniform(0, 1))

        def unit(v):
            return v / np.linalg.norm(v)

        nb = {c: unit(v) for c, v in base.items()}
        nc = unit(novel)
        sims = np.array([16.0 * nc @ nb[c] for c in range(3)])
        w = np.exp(sims - sims.max())
        w /= w.sum()
        shifted = alpha * nc + (1 - alpha) * sum(w[c] * nb[c] for c in range(3))
        # convex combination: coefficients alpha and (1-alpha) w sum to one
        coeffs = np.array([alpha, *((1 - alpha) * w)])
        assert abs(coeffs.sum() - 1.0) < 1e-12
        hull_points = np.stack([nc, *nb.values()])
        assert np.allclose(coeffs @ hull_points, shifted, atol=1e-12)


def test_teen_errors():
    bank = PrototypeBank()
    bank.prototypes = {0: np.array([1.0]), 1: np.array([1.0])}
    with pytest.raises(ValueError, match="empty base"):
        teen_calibrate(bank, [], [1])
    with pytest.raises(ValueError, match="disjoint"):
        teen_calibrate(bank, [0], [0])
    with pytest.raises(ValueError, match="missing prototype"):
        teen_calibrate(bank, [0], [7])


# -------------------------------------------------------------- task_prototype


def test_task_prototype_plain_mean():
    g = synth_tag(SynthConfig(num_classes=2, nodes_per_class=2, feature_dim=2, seed=0))
    X = np.array([[2.0, 0.0], [0.0, 2.0], [5.0, 5.0], [7.0, 7.0]])
    p = task_prototype(g, [0, 1], X, k=3, weighting="plain-mean")
    assert np.allclose(p, [1.0, 1.0])


def test_task_prototype_laplacian_k0_regular_graph():
    # 4-cycle: every node degree 2 (+1 self-loop) -> constant d = 3
    feats = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [2.0, 0.0]], np.float32)
    g = make_graph(feats, list("abcd"), np.zeros(4, np.int64), ["c"],
                   np.array([[0, 1], [1, 2], [2, 3], [0, 3]]))
    X = np.asarray(feats, np.float64)
    p = task_prototype(g, [0, 1, 2, 3], X, k=0, weighting="laplacian")
    assert np.allclose(p, X.mean(axis=0) / np.sqrt(3.0), atol=1e-12)


def test_task_prototype_isolated_node_k0(isolated_node_graph):
    X = np.array([[2.0, 3.0]])
    p = task_prototype(isolated_node_graph, [0], X, k=0)
    assert np.allclose(p, [2.0, 3.0])  # degree 1 after self-loop


def test_task_prototype_matches_dense_oracle(testkit_graph):
    X = np.asarray(testkit_graph.features, np.float64)
    rng = np.random.default_rng(2)
    nodes = rng.choice(testkit_graph.node_count, 40, replace=False)
    for weighting in ("laplacian", "plain-mean"):
        mine = task_prototype(testkit_graph, nodes, X, k=4, weighting=weighting)
        oracle = task_prototype_dense(testkit_graph, nodes, X, 4, weighting)
        assert np.allclose(mine, oracle, atol=1e-10)


def test_task_prototype_empty_set(testkit_graph):
    with pytest.raises(ValueError, match="empty node set"):
        task_prototype(testkit_graph, [], testkit_graph.features, 1)


def _random_graph(rng, n: int):
    # About one edge per node, so some nodes are isolated.
    edges = rng.integers(0, n, size=(n, 2))
    edges = np.unique(np.sort(edges[edges[:, 0] != edges[:, 1]], axis=1), axis=0)
    feats = rng.standard_normal((n, 3)).astype(np.float32)
    return make_graph(feats, [str(i) for i in range(n)], np.zeros(n, np.int64), ["c"],
                      edges.reshape(-1, 2))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(source=st.sampled_from(["random", "session", EVAL_EDGES_INTRA, EVAL_EDGES_FULL]),
       seed=st.integers(0, 2**16), k=st.integers(0, 8),
       weighting=st.sampled_from(["laplacian", "plain-mean"]), data=st.data())
def test_task_prototype_matches_dense_oracle_on_drawn_graphs(source, seed, k, weighting, data):
    # A prototype from one propagated column equals the mean of the node
    # set's rows of D^{-1/2} S^k X, on graphs with isolated nodes, session
    # subgraphs and the global union graphs of both eval-edge policies.
    rng = np.random.default_rng(seed)
    if source == "random":
        g = _random_graph(rng, int(rng.integers(1, 30)))
    else:
        base = synth_tag(SynthConfig(num_classes=6, nodes_per_class=8, feature_dim=6,
                                     intra_p=0.15, inter_p=0.05, seed=seed))
        eval_edges = EVAL_EDGES_INTRA if source == "session" else source
        plan = plan_ncil(base, 2, 3, 3, seed=seed, eval_edges=eval_edges)
        i = data.draw(st.integers(1, 3))
        g = (plan.sessions[i - 1].subgraph if source == "session"
             else build_eval_task(plan, i, "global").graph)
    nodes = data.draw(st.lists(st.integers(0, g.node_count - 1), min_size=1, unique=True))
    X = np.asarray(g.features, np.float64)
    mine = task_prototype(g, nodes, X, k, weighting)
    assert np.allclose(mine, task_prototype_dense(g, nodes, X, k, weighting), rtol=0, atol=1e-10)


# ------------------------------------------------------------- predict_task_id


def test_predict_task_id_worked_example():
    protos = TaskPrototypeSet()
    protos.add(np.array([0.0, 0.0]))
    protos.add(np.array([1.0, 1.0]))
    q = np.array([0.9, 1.1])
    assert predict_task_id(q, protos) == 1
    d0 = float(np.linalg.norm(q - protos.vectors[0]))
    d1 = float(np.linalg.norm(q - protos.vectors[1]))
    assert abs(d0 - np.sqrt(2.02)) < 1e-12
    assert abs(d1 - np.sqrt(0.02)) < 1e-12


def test_predict_task_id_exact_match_and_singleton():
    protos = TaskPrototypeSet()
    protos.add(np.array([3.0, 4.0]))
    assert predict_task_id(np.array([100.0, -5.0]), protos) == 0
    protos.add(np.array([1.0, 1.0]))
    assert predict_task_id(np.array([3.0, 4.0]), protos) == 0


def test_predict_task_id_tie_lowest_index():
    protos = TaskPrototypeSet()
    protos.add(np.array([1.0, 0.0]))
    protos.add(np.array([-1.0, 0.0]))
    assert predict_task_id(np.array([0.0, 5.0]), protos) == 0


def test_predict_task_id_matches_reimplementation():
    rng = np.random.default_rng(5)
    for _ in range(50):
        d = int(rng.integers(1, 6))
        protos = TaskPrototypeSet()
        vecs = [rng.standard_normal(d) for _ in range(int(rng.integers(1, 6)))]
        for v in vecs:
            protos.add(v)
        q = rng.standard_normal(d)
        assert predict_task_id(q, protos) == nearest_task(q, vecs)


def test_predict_task_id_dim_mismatch():
    protos = TaskPrototypeSet()
    protos.add(np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="dim"):
        predict_task_id(np.array([1.0]), protos)

