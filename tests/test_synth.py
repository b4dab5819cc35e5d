import filecmp

import numpy as np
import pytest

from gclbench import synth
from gclbench.graph import load_tag, save_tag
from gclbench.synth import SynthConfig, _sbm_edges, synth_tag

from oracles import nearest_centroid_accuracy, sbm_edges_dense, synth_draws_dense


def test_inter_p_zero_no_cross_class_edges():
    g = synth_tag(SynthConfig(num_classes=3, nodes_per_class=20, feature_dim=4,
                              inter_p=0.0, seed=2))
    for a, b in g.edges:
        assert g.labels[a] == g.labels[b]


def test_separable_features_nearest_centroid():
    g = synth_tag(SynthConfig(num_classes=3, nodes_per_class=50, feature_dim=8,
                              class_sep=3.0, seed=4))
    assert nearest_centroid_accuracy(g.features, g.labels) == 1.0


def test_byte_identical_directories(tmp_path):
    cfg = SynthConfig(num_classes=4, nodes_per_class=10, feature_dim=6, seed=11)
    save_tag(synth_tag(cfg), tmp_path / "a")
    save_tag(synth_tag(cfg), tmp_path / "b")
    for name in ("nodes.jsonl", "edges.tsv", "class_names.json", "features.bin"):
        assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name, shallow=False)


def test_round_trip_validates(tmp_path, testkit_graph):
    save_tag(testkit_graph, tmp_path)
    loaded = load_tag(tmp_path)
    assert loaded.node_count == testkit_graph.node_count
    assert np.array_equal(loaded.labels, testkit_graph.labels)
    assert np.array_equal(loaded.edges, testkit_graph.edges)


def test_intra_degree_within_3_sigma():
    cfg = SynthConfig(num_classes=2, nodes_per_class=100, feature_dim=4,
                      intra_p=0.2, inter_p=0.0, seed=6)
    g = synth_tag(cfg)
    deg = np.zeros(g.node_count)
    for a, b in g.edges:
        deg[a] += 1
        deg[b] += 1
    n = cfg.nodes_per_class
    p = cfg.intra_p
    expected = p * (n - 1)
    # block-mean degree = 2 E / n with E ~ Binomial(n(n-1)/2, p)
    sigma_mean = np.sqrt(2 * (n - 1) * p * (1 - p) / n)
    for c in range(2):
        mean_deg = deg[g.labels == c].mean()
        assert abs(mean_deg - expected) <= 3 * sigma_mean


def test_class_sep_zero_indistinguishable():
    g = synth_tag(SynthConfig(num_classes=3, nodes_per_class=40, feature_dim=6,
                              class_sep=0.0, seed=8))
    acc = nearest_centroid_accuracy(g.features, g.labels)
    assert acc < 0.75  # far from separable; ~chance plus noise fitting


def test_feature_dim_too_small_errors():
    with pytest.raises(ValueError, match="orthogonal centroids"):
        synth_tag(SynthConfig(num_classes=5, feature_dim=3))


def test_bad_probability_rejected():
    with pytest.raises(ValueError, match="probabilities"):
        SynthConfig(intra_p=1.5)


@pytest.mark.parametrize("field,value,message", [
    ("num_classes", 0, "num_classes must be >= 1"),
    ("num_classes", -2, "num_classes must be >= 1"),
    ("class_sep", float("nan"), "class_sep must be finite and >= 0"),
    ("class_sep", float("inf"), "class_sep must be finite and >= 0"),
    ("class_sep", -1.0, "class_sep must be finite and >= 0"),
    ("noise_sigma", -0.5, "noise_sigma must be finite and >= 0"),
    ("noise_sigma", float("nan"), "noise_sigma must be finite and >= 0"),
    ("noise_sigma", float("inf"), "noise_sigma must be finite and >= 0"),
    ("intra_p", float("nan"), r"edge probabilities must lie in \[0, 1\]: intra_p=nan"),
    ("inter_p", -0.1, r"edge probabilities must lie in \[0, 1\]: inter_p=-0.1"),
    ("seed", -1, "seed must be >= 0"),
])
def test_bad_shape_or_scale_rejected(field, value, message):
    with pytest.raises(ValueError, match=message):
        SynthConfig(**{field: value})


def test_noise_sigma_zero_puts_nodes_on_their_centroids():
    g = synth_tag(SynthConfig(num_classes=3, nodes_per_class=4, feature_dim=5,
                              class_sep=2.0, noise_sigma=0.0, seed=1))
    assert np.array_equal(g.features, 2.0 * np.eye(3, 5, dtype=np.float32)[g.labels])


def test_texts_embed_class_keyword():
    g = synth_tag(SynthConfig(num_classes=2, nodes_per_class=5, feature_dim=4, seed=3))
    for i, text in enumerate(g.texts):
        c = g.labels[i]
        assert g.class_names[c].removeprefix("class-") in text or f"domain{c}" in text


@pytest.mark.parametrize("num_classes,per_class,intra_p,inter_p,seed", [
    (0, 1, 0.5, 0.5, 0),
    (1, 1, 0.5, 0.5, 0),
    (3, 85, 0.2, 0.02, 1),     # 255 nodes: one fill of the default buffer
    (4, 64, 0.1, 0.01, 2),
    (7, 37, 0.3, 0.05, 3),
    (6, 100, 0.02, 0.002, 4),  # 600 nodes: three fills of the default buffer
    (2, 150, 1.0, 0.0, 5),
    (3, 20, 0.0, 0.0, 6),      # p = 0: no edge
    (3, 20, 1.0, 1.0, 7),      # p = 1: every pair
    (4, 30, 0.05, 0.4, 8),     # inter_p > intra_p
])
def test_blocked_sbm_matches_dense_draw(monkeypatch, num_classes, per_class, intra_p,
                                        inter_p, seed):
    labels = np.repeat(np.arange(num_classes), per_class).astype(np.int64)
    n = labels.size
    rng_dense = np.random.default_rng(seed)
    want = sbm_edges_dense(rng_dense, labels, intra_p, inter_p)
    # Buffers of n, n + 1 and 3n values pack rows across many refills, so
    # rows start and end on the buffer's edges.
    for size in (synth._SBM_BUFFER, n, n + 1, 3 * n):
        monkeypatch.setattr(synth, "_SBM_BUFFER", size)
        rng = np.random.default_rng(seed)
        got = _sbm_edges(rng, labels, intra_p, inter_p)
        assert got.dtype == np.int64 and got.shape == want.shape
        assert np.array_equal(got, want)
        # The stream ends where the dense draw's does, so the keywords drawn
        # after the edges match too.
        assert rng.bit_generator.state == rng_dense.bit_generator.state


@pytest.mark.parametrize("seed", range(5))
def test_synth_matches_dense_draws(seed):
    # 700 nodes span several fills of the SBM buffer.
    cfg = SynthConfig(num_classes=7, nodes_per_class=100, feature_dim=9, class_sep=2.0,
                      noise_sigma=0.7, intra_p=0.05, inter_p=0.01, seed=seed)
    noise, edges, picks = synth_draws_dense(cfg)
    g = synth_tag(cfg)
    centroids = 2.0 * np.eye(7, 9)[g.labels]
    assert np.array_equal(g.features, (centroids + 0.7 * noise).astype(np.float32))
    assert np.array_equal(g.edges, edges)
    for i, (text, pick) in enumerate(zip(g.texts, picks)):
        c = int(g.labels[i])
        kw = g.class_names[c].removeprefix("class-") if pick == 0 else f"domain{c}"
        assert text == f"Record {i}: a study of {kw} structure with applications to {kw} analysis."
