"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. Every tolerance is pinned
here; nothing defers to later calibration. No external services are needed
(the HTTP provider runs against the bundled stub server).
"""

import time
from collections import deque

import numpy as np
import pytest

from gclbench.embeddings import EmbeddingProviderError, HttpSource, get_or_embed
from gclbench.evaluation import AccuracyMatrix, leakage_diagnostic, summarize
from gclbench.graph import gcn_normalized_adjacency, sample_ego_graph
from gclbench.nn import (
    ARCH_GCN,
    ARCH_MLP,
    cross_entropy,
    init_params,
    model_backward,
    model_forward,
)
from gclbench.prompts import default_template, emit_instruction_jsonl, render_prompt
from gclbench.prototypes import (
    PrototypeBank,
    TaskPrototypeSet,
    build_prototypes,
    classify_batch,
    predict_task_id,
    task_prototype,
)
from gclbench.sessions import plan_ncil
from gclbench.stub_server import StubEmbeddingServer
from gclbench.synth import SynthConfig, synth_tag
from gclbench.trainers import distill_loss, ewc_penalty, run_method
from gclbench.trainers import EwcAnchor

from oracles import (
    argmax_lowest,
    cosine_scores,
    finite_diff_check,
    group_means,
    nearest_task,
    summarize_direct,
    task_prototype_dense,
)

RUN_CFG = {"epochs": 200, "lr": 1e-2, "hidden_dim": 32}


def _report(n, text):
    print(f"\nACCEPTANCE {n}: PASS - {text}")


def _connected(g):
    adj = [[] for _ in range(g.node_count)]
    for a, b in g.edges:
        adj[a].append(int(b))
        adj[b].append(int(a))
    seen = {0}
    q = deque([0])
    while q:
        u = q.popleft()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                q.append(v)
    return len(seen) == g.node_count


def test_criterion_1_leakage_mirror(testkit_plan):
    t0 = time.perf_counter()
    report = leakage_diagnostic(testkit_plan, k_grid=(1, 2, 4, 8), config=RUN_CFG)
    elapsed = time.perf_counter() - t0
    assert len(report.entries) == 8
    for e in report.entries:
        assert e["task_id_accuracy"] == 1.0, e
        assert e["af"] == 0.0, e
    assert elapsed < 60.0
    _report(1, f"task-ID accuracy 1.00 and routed AF 0.00 for both weightings "
               f"({elapsed:.1f}s < 60s)")


def test_criterion_2_degradation_mirror(testkit_plan):
    t0 = time.perf_counter()
    gcn = run_method("gcn", testkit_plan, RUN_CFG, mode="global", seed=0)
    cosine = run_method("cosine", testkit_plan, RUN_CFG, mode="global", seed=0)
    elapsed = time.perf_counter() - t0
    assert gcn.summary["final_acc"] < gcn.summary["mean_acc"]
    gap = cosine.summary["mean_acc"] - cosine.summary["final_acc"]
    assert gap <= 0.05
    assert elapsed < 300.0
    _report(2, f"gcn forgets (A_N={gcn.summary['final_acc']:.3f} < "
               f"mean={gcn.summary['mean_acc']:.3f}); cosine stable "
               f"(gap={gap:.4f} <= 0.05) ({elapsed:.1f}s < 300s)")


def test_criterion_3_gradient_exactness():
    worst = 0.0
    for seed in range(5):
        g = synth_tag(SynthConfig(num_classes=2, nodes_per_class=8, feature_dim=5,
                                  intra_p=0.4, inter_p=0.2, seed=100 + seed))
        assert g.node_count == 16
        S = gcn_normalized_adjacency(g)
        X = np.asarray(g.features, np.float64)
        p = init_params(ARCH_GCN, 5, 7, 2, seed=seed)

        def gcn_loss(params):
            logits, cache = model_forward(params, S, X)
            loss, dl = cross_entropy(logits, g.labels)
            return loss, model_backward(cache, dl)

        rep = finite_diff_check(gcn_loss, p, tolerance=1e-4, seed=seed)
        assert rep.passed, rep
        worst = max(worst, rep.max_rel_error)

        rng = np.random.default_rng(200 + seed)
        Xm = rng.standard_normal((12, 4))
        ym = rng.integers(0, 3, 12)
        q = init_params(ARCH_MLP, 4, 6, 3, seed=seed)

        def mlp_loss(params):
            logits, cache = model_forward(params, None, Xm)
            loss, dl = cross_entropy(logits, ym)
            return loss, model_backward(cache, dl)

        rep = finite_diff_check(mlp_loss, q, tolerance=1e-4, seed=seed)
        assert rep.passed, rep
        worst = max(worst, rep.max_rel_error)
    _report(3, f"analytic gradients match central differences on both archs, "
               f"5 seeds (max rel err {worst:.2e} < 1e-4)")


def test_criterion_4_prototype_oracle_equivalence():
    rng = np.random.default_rng(42)
    for trial in range(100):
        n = int(rng.integers(4, 64))
        d = int(rng.integers(2, 7))
        emb = rng.standard_normal((n, d))
        labels = rng.integers(0, int(rng.integers(2, 5)), size=n)

        bank = PrototypeBank(temperature=float(rng.uniform(0.5, 4.0)))
        build_prototypes(bank, emb, labels, sample_num=n + 1, seed=trial)
        oracle_means = group_means(emb, labels)
        assert set(bank.prototypes) == set(oracle_means)
        for c, mean in oracle_means.items():
            assert np.array_equal(bank.prototypes[c], mean)  # exact

        H = rng.standard_normal((int(rng.integers(1, 6)), d))
        preds = classify_batch(bank, H)
        # exact argmax; the bank's temperature never moves it, so the oracle runs at tau = 1
        assert list(preds) == [argmax_lowest(cosine_scores(h, bank.prototypes, 1.0)) for h in H]

        g = synth_tag(SynthConfig(
            num_classes=2, nodes_per_class=max(2, n // 2), feature_dim=4,
            intra_p=0.4, inter_p=0.2, seed=trial,
        ))
        nodes = rng.choice(g.node_count, size=int(rng.integers(1, g.node_count)),
                           replace=False)
        X = np.asarray(g.features, np.float64)
        k = int(rng.integers(0, 4))
        for weighting in ("laplacian", "plain-mean"):
            mine = task_prototype(g, nodes, X, k, weighting)
            ref = task_prototype_dense(g, nodes, X, k, weighting)
            assert np.allclose(mine, ref, atol=1e-10)

        protos = TaskPrototypeSet()
        vecs = [rng.standard_normal(d) for _ in range(int(rng.integers(1, 6)))]
        for v in vecs:
            protos.add(v)
        q = rng.standard_normal(d)
        assert predict_task_id(q, protos) == nearest_task(q, vecs)  # exact argmin
    _report(4, "build_prototypes/classify_batch/task_prototype/predict_task_id match "
               "brute force on 100 instances (means, cosine argmaxes and argmins exact)")


def test_criterion_5_metric_oracle():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        rows = [list(rng.uniform(0, 1, i + 1)) for i in range(n)]
        m = AccuracyMatrix(mode="local")
        for r in rows:
            m.add_row(r)
        mine = summarize(m)
        ref = summarize_direct(rows)
        for key in ("mean_acc", "final_acc", "aa", "af"):
            assert abs(mine[key] - ref[key]) <= 1e-12
    worked = AccuracyMatrix(mode="local")
    worked.add_row([0.9])
    worked.add_row([0.8, 0.7])
    s = summarize(worked)
    assert s["aa"] == pytest.approx(0.75, abs=1e-15)
    assert s["af"] == pytest.approx(-0.05, abs=1e-15)
    _report(5, "summarize matches direct formulas on 1000 random triangles "
               "(<= 1e-12); worked example AA=0.75, AF=-0.05 holds")


def test_criterion_6_similarity_invariance():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        d = int(rng.integers(2, 8))
        k = int(rng.integers(2, 6))
        protos = {c: rng.standard_normal(d) for c in range(k)}
        tau = float(rng.uniform(0.2, 5.0))
        h = rng.standard_normal((1, d))
        (base,) = classify_batch(PrototypeBank(tau, {c: v.copy() for c, v in protos.items()}), h)

        a = float(rng.uniform(0.05, 20.0))
        (p1,) = classify_batch(PrototypeBank(tau * a, {c: v.copy() for c, v in protos.items()}), h)
        (p2,) = classify_batch(PrototypeBank(tau, {c: v.copy() for c, v in protos.items()}), a * h)
        target = int(rng.integers(0, k))
        scaled = {c: (a * v if c == target else v.copy()) for c, v in protos.items()}
        (p3,) = classify_batch(PrototypeBank(tau, scaled), h)
        assert base == p1 == p2 == p3
    _report(6, "argmax invariant to positive rescaling of tau, h, and any "
               "prototype on 1000 random banks")


def test_criterion_7_session_plan_invariants():
    rng = np.random.default_rng(13)
    for trial in range(200):
        g = synth_tag(SynthConfig(
            num_classes=int(rng.integers(4, 7)),
            nodes_per_class=int(rng.integers(10, 24)),
            feature_dim=8,
            class_sep=float(rng.uniform(0.0, 3.0)),
            intra_p=float(rng.uniform(0.05, 0.6)),
            inter_p=float(rng.uniform(0.0, 0.3)),
            seed=int(rng.integers(1_000_000)),
        ))
        shots = int(rng.integers(2, 7))
        seed = int(rng.integers(1_000_000))
        test_cap = int(rng.integers(2, 30))
        plan = plan_ncil(g, 2, 2, shots, test_cap=test_cap, seed=seed)

        seen_classes: set[int] = set()
        seen_nodes: set[int] = set()
        owner: dict[int, int] = {}
        for idx, s in enumerate(plan.sessions):
            assert not (set(s.class_ids) & seen_classes)
            seen_classes |= set(s.class_ids)
            nodes = set(s.train_nodes) | set(s.test_nodes)
            assert not (set(s.train_nodes) & set(s.test_nodes))
            assert not (nodes & seen_nodes)
            seen_nodes |= nodes
            for nd in nodes:
                owner[nd] = idx
            for c in s.class_ids:
                count = sum(1 for nd in s.train_nodes if g.labels[nd] == c)
                assert count == shots  # exact shot count
        for idx, s in enumerate(plan.sessions):
            for a, b in s.subgraph.edges:
                assert owner[int(s.node_map[a])] == idx
                assert owner[int(s.node_map[b])] == idx  # zero inter-session edges
        from gclbench.sessions import plan_digest

        again = plan_ncil(g, 2, 2, shots, test_cap=test_cap, seed=seed)
        assert plan_digest(again).encode() == plan_digest(plan).encode()
    _report(7, "200 random plans: disjoint classes/nodes, exact shots, zero "
               "inter-session edges, byte-identical digests on rerun")


def test_criterion_8_smoothing_convergence(testkit_graph):
    plan = plan_ncil(testkit_graph, 2, 3, 30, seed=11)
    ks = (1, 2, 4, 8, 16)
    worst_ratio = 0.0
    for s in plan.sessions:
        assert _connected(s.subgraph)
        X = np.asarray(s.subgraph.features, np.float64)
        tr = s.local_ids(s.train_nodes)
        te = s.local_ids(s.test_nodes)
        dists = []
        for k in ks:
            ps = task_prototype(s.subgraph, tr, X, k)
            pq = task_prototype(s.subgraph, te, X, k)
            dists.append(float(np.linalg.norm(ps - pq)))
        for a, b in zip(dists, dists[1:]):
            assert b <= a + 1e-15  # non-increasing in k
        ratio = dists[-1] / dists[0]
        assert ratio < 0.10
        worst_ratio = max(worst_ratio, ratio)
    _report(8, f"train/query prototype distance non-increasing over k={ks} and "
               f"k=16 distance < 10% of k=1 (worst ratio {worst_ratio:.4f})")


def test_criterion_9_trainer_null_tests(testkit_plan):
    base = run_method("gcn", testkit_plan, RUN_CFG, mode="global", seed=5)
    ewc0 = run_method("ewc", testkit_plan, dict(RUN_CFG, strength=0.0),
                      mode="global", seed=5)
    lwf0 = run_method("lwf", testkit_plan, dict(RUN_CFG, lwf_lambda=0.0),
                      mode="global", seed=5)
    assert ewc0.matrix.rows == base.matrix.rows  # bit-identical floats
    assert lwf0.matrix.rows == base.matrix.rows

    p = init_params(ARCH_MLP, 3, 4, 2, seed=1)
    anchor = EwcAnchor(
        params_star={k: v.copy() for k, v in p.weights.items()},
        fisher={k: np.ones_like(v) for k, v in p.weights.items()},
        strength=123.0,
    )
    loss, _ = ewc_penalty(p, anchor)
    assert loss == 0.0

    logits = np.random.default_rng(0).standard_normal((4, 3))
    dloss, _ = distill_loss(logits, logits.copy(), 2.0, 1.0)
    assert dloss == 0.0
    _report(9, "EWC/LwF at zero strength reproduce plain gcn matrices "
               "bit-identically; penalties exactly 0 at anchor/identical logits")


def test_criterion_10_prompt_and_data_contracts(tmp_path):
    g = synth_tag(SynthConfig(num_classes=7, nodes_per_class=120, feature_dim=8,
                              intra_p=0.05, inter_p=0.01, seed=12))
    plan = plan_ncil(g, classes_per_session=2, num_sessions=3, shots=100, seed=0)
    template = default_template("Cora")
    out = tmp_path / "session0.jsonl"
    count = emit_instruction_jsonl(plan, 0, template, out, seed=1)
    assert count == 200  # shots x classes
    assert len(out.read_text(encoding="utf-8").splitlines()) == 200

    names = [g.class_names[c] for c in plan.cumulative_classes(1)]
    node = plan.sessions[0].train_nodes[0]
    ego = sample_ego_graph(g, node, (20, 20), seed=1)
    prompt_a = render_prompt(ego, template, names)
    prompt_b = render_prompt(ego, template, names)
    assert prompt_a.encode() == prompt_b.encode()  # byte-stable
    assert "You are a good graph reasoner" in prompt_a

    with StubEmbeddingServer(dim=8) as srv:
        src = HttpSource(srv.endpoint, "stub", batch_size=4)
        cache = tmp_path / "cache.bin"
        prompts = {n: f"probe text {n}" for n in range(6)}
        first = get_or_embed(src, list(prompts), prompts.get, cache)
        served_from_cache = get_or_embed(src, list(prompts), prompts.get, cache)
        assert first.tobytes() == served_from_cache.tobytes()
        cache.unlink()
        refetched = get_or_embed(src, list(prompts), prompts.get, cache)
        assert first.tobytes() == refetched.tobytes()  # cache round-trip exact

    with StubEmbeddingServer(dim=8, drift_dim=16, drift_after=1) as srv:
        src = HttpSource(srv.endpoint, "stub", batch_size=1)
        with pytest.raises(EmbeddingProviderError, match="dimension drift"):
            src.embed(["a", "b"])
    _report(10, "200 instruction lines for 2x100 shots; prompts byte-stable with "
                "the expected system string; cache round-trip bit-identical; "
                "dimension drift rejected")
