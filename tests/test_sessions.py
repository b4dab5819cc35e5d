from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gclbench.graph import make_graph
from gclbench.sessions import (
    PlanError,
    Session,
    build_eval_task,
    filter_classes,
    plan_digest,
    plan_fsncil,
    plan_ncil,
)
from gclbench.synth import SynthConfig, synth_tag

from oracles import local_ids_dict


def _graph_with_counts(counts):
    """Graph with exactly counts[c] nodes of class c, no edges."""
    labels = np.concatenate([np.full(k, c) for c, k in enumerate(counts)]).astype(np.int64)
    n = len(labels)
    feats = np.zeros((n, 2), np.float32)
    return make_graph(feats, [f"t{i}" for i in range(n)], labels,
                      [f"c{c}" for c in range(len(counts))], np.zeros((0, 2), np.int64))


@pytest.fixture(scope="module")
def cora_shaped():
    # 7 classes with enough nodes for 100-shot sessions, citation-ish sparsity
    return synth_tag(SynthConfig(num_classes=7, nodes_per_class=150, feature_dim=8,
                                 intra_p=0.05, inter_p=0.005, seed=12))


# ------------------------------------------------------------- class filtering


def test_filter_classes_threshold():
    g = _graph_with_counts([150, 80, 200])
    assert filter_classes(g, 100) == [0, 2]


def test_filter_classes_min_one():
    g = _graph_with_counts([5, 0, 3])
    assert filter_classes(g, 1) == [0, 2]


def test_filter_classes_all_below():
    g = _graph_with_counts([5, 6])
    assert filter_classes(g, 100) == []


# ------------------------------------------------------------------- plan_ncil


def test_plan_ncil_cora_shape(cora_shaped):
    plan = plan_ncil(cora_shaped, classes_per_session=2, num_sessions=3, shots=100, seed=0)
    assert plan.num_sessions == 3
    assert len(plan.class_order) == 6  # uses 6 of 7 classes
    for s in plan.sessions:
        assert len(s.class_ids) == 2
        for c in s.class_ids:
            train_labels = cora_shaped.labels[list(s.train_nodes)]
            assert int((train_labels == c).sum()) == 100


def test_plan_ncil_single_session(cora_shaped):
    plan = plan_ncil(cora_shaped, classes_per_session=6, num_sessions=1, shots=50, seed=0)
    assert plan.num_sessions == 1
    assert len(plan.sessions[0].class_ids) == 6


def test_plan_ncil_seed_changes_order_not_cardinality(testkit_graph):
    a = plan_ncil(testkit_graph, 2, 3, 20, seed=1)
    b = plan_ncil(testkit_graph, 2, 3, 20, seed=2)
    assert a.class_order != b.class_order
    for sa, sb in zip(a.sessions, b.sessions):
        assert len(sa.train_nodes) == len(sb.train_nodes)
        assert len(sa.class_ids) == len(sb.class_ids)


def test_plan_ncil_insufficient_classes():
    g = _graph_with_counts([50, 50, 3])
    with pytest.raises(PlanError, match="insufficient classes"):
        plan_ncil(g, classes_per_session=2, num_sessions=2, shots=10)


_NCIL_SHAPE = {"classes_per_session": 2, "num_sessions": 3, "shots": 5, "test_cap": 10}
_FSNCIL_SHAPE = {"base_classes": 2, "ways": 2, "num_sessions": 3,
                 "shots_base": 5, "shots_novel": 3, "test_cap": 10}


@pytest.mark.parametrize("build,shape,key", [
    *(pytest.param(plan_ncil, _NCIL_SHAPE, k, id=f"ncil-{k}") for k in _NCIL_SHAPE),
    *(pytest.param(plan_fsncil, _FSNCIL_SHAPE, k, id=f"fsncil-{k}") for k in _FSNCIL_SHAPE),
])
@pytest.mark.parametrize("value", [0, -1])
def test_plan_shape_below_one_is_a_plan_error(testkit_graph, build, shape, key, value):
    # A zero class, shot or test count would build sessions with no classes
    # or no nodes, which a method then fails on with an untyped numpy error.
    build(testkit_graph, **shape)  # the shape itself is buildable
    with pytest.raises(PlanError, match=f"^{key} must be >= 1, got {value}$"):
        build(testkit_graph, **{**shape, key: value})


# ----------------------------------------------------------------- plan_fsncil


def test_plan_fsncil_cora_shape(cora_shaped):
    plan = plan_fsncil(cora_shaped, base_classes=3, ways=2, num_sessions=3,
                       shots_base=100, shots_novel=5, seed=0)
    sizes = [len(s.class_ids) for s in plan.sessions]
    assert sizes == [3, 2, 2]
    base = plan.sessions[0]
    for c in base.class_ids:
        assert int((cora_shaped.labels[list(base.train_nodes)] == c).sum()) == 100
    for s in plan.sessions[1:]:
        for c in s.class_ids:
            assert int((cora_shaped.labels[list(s.train_nodes)] == c).sum()) == 5


def test_plan_fsncil_parameter_collapse(testkit_graph):
    plan = plan_fsncil(testkit_graph, base_classes=2, ways=2, num_sessions=3,
                       shots_base=20, shots_novel=20, seed=3)
    for s in plan.sessions:
        for c in s.class_ids:
            sub_labels = testkit_graph.labels[list(s.train_nodes)]
            assert int((sub_labels == c).sum()) == 20


def test_plan_fsncil_arxiv_scale_class_consumption():
    g = _graph_with_counts([12] * 45)
    plan = plan_fsncil(g, base_classes=12, ways=4, num_sessions=8,
                       shots_base=5, shots_novel=5, seed=0)
    consumed = {c for s in plan.sessions for c in s.class_ids}
    assert len(consumed) == 12 + 7 * 4 == 40
    assert len(plan.class_order) == 40


# ------------------------------------------------------------------ invariants


def _check_plan_invariants(plan, g):
    all_train, all_test = set(), set()
    seen_classes = set()
    for s in plan.sessions:
        assert not (set(s.class_ids) & seen_classes)
        seen_classes |= set(s.class_ids)
        tr, te = set(s.train_nodes), set(s.test_nodes)
        assert not (tr & te)
        assert not (tr & all_train) and not (tr & all_test)
        assert not (te & all_train) and not (te & all_test)
        all_train |= tr
        all_test |= te
        for n in tr | te:
            assert int(g.labels[n]) in s.class_ids
    # zero inter-session edges: every subgraph edge joins same-session nodes
    owner = {}
    for i, s in enumerate(plan.sessions):
        for n in (*s.train_nodes, *s.test_nodes):
            owner[n] = i
    for i, s in enumerate(plan.sessions):
        for a, b in s.subgraph.edges:
            assert owner[int(s.node_map[a])] == i
            assert owner[int(s.node_map[b])] == i


def test_plan_invariants_random_configs():
    rng = np.random.default_rng(0)
    for trial in range(20):
        g = synth_tag(SynthConfig(
            num_classes=int(rng.integers(4, 8)),
            nodes_per_class=int(rng.integers(12, 30)),
            feature_dim=8,
            intra_p=float(rng.uniform(0.1, 0.5)),
            inter_p=float(rng.uniform(0.0, 0.2)),
            seed=int(rng.integers(1_000_000)),
        ))
        shots = int(rng.integers(2, 8))
        plan = plan_ncil(g, 2, 2, shots, test_cap=int(rng.integers(3, 40)),
                         seed=int(rng.integers(1_000_000)))
        _check_plan_invariants(plan, g)


# ------------------------------------------------------------------ eval tasks


def test_eval_task_first_session_modes_match(testkit_plan):
    local = build_eval_task(testkit_plan, 1, "local")
    glob = build_eval_task(testkit_plan, 1, "global")
    assert local.class_ids == glob.class_ids
    assert local.graph.node_count == glob.graph.node_count
    assert np.array_equal(
        np.sort(local.node_sources[local.eval_nodes]),
        np.sort(glob.node_sources[glob.eval_nodes]),
    )


def test_eval_task_global_union(testkit_plan):
    task = build_eval_task(testkit_plan, 3, "global")
    expected_nodes = set()
    for s in testkit_plan.sessions:
        expected_nodes |= set(s.test_nodes)
    got = set(int(x) for x in task.node_sources[task.eval_nodes])
    assert got == expected_nodes
    assert len(task.eval_nodes) == len(expected_nodes)  # each exactly once
    assert task.class_ids == tuple(sorted(
        c for s in testkit_plan.sessions for c in s.class_ids
    ))


def test_eval_task_local_cumulative_classes(testkit_plan):
    task = build_eval_task(testkit_plan, 2, "local")
    s2 = testkit_plan.sessions[1]
    assert task.graph.node_count == s2.subgraph.node_count
    expect = sorted(set(testkit_plan.sessions[0].class_ids) | set(s2.class_ids))
    assert task.class_ids == tuple(expect)
    assert set(task.node_sources[task.eval_nodes]) == set(s2.test_nodes)


def test_eval_task_local_subset_of_global(testkit_plan):
    for i in range(1, 4):
        glob = build_eval_task(testkit_plan, i, "global")
        glob_nodes = set(int(x) for x in glob.node_sources[glob.eval_nodes])
        for j in range(1, i + 1):
            loc = build_eval_task(testkit_plan, j, "local")
            loc_nodes = set(int(x) for x in loc.node_sources[loc.eval_nodes])
            assert loc_nodes <= glob_nodes


def test_eval_task_global_no_intersession_edges(testkit_plan):
    task = build_eval_task(testkit_plan, 3, "global")
    owner = {}
    for i, s in enumerate(testkit_plan.sessions):
        for n in (*s.train_nodes, *s.test_nodes):
            owner[n] = i
    for a, b in task.graph.edges:
        assert owner[int(task.node_sources[a])] == owner[int(task.node_sources[b])]


def test_eval_task_full_union_restores_intersession_edges(testkit_graph):
    plan = plan_ncil(testkit_graph, 2, 3, 30, seed=7, eval_edges="full_union")
    intra = build_eval_task(
        plan_ncil(testkit_graph, 2, 3, 30, seed=7), 3, "global"
    )
    full = build_eval_task(plan, 3, "global")
    assert full.graph.edge_count > intra.graph.edge_count
    assert np.array_equal(np.sort(full.node_sources), np.sort(intra.node_sources))


@pytest.mark.parametrize("i", [1, 2, 3])
def test_eval_edge_policies_differ_only_in_cross_session_edges(testkit_graph, i):
    # The two policies share node order, eval nodes, features and labels, so
    # a method seeded by union-local id draws the same numbers under both.
    intra_plan = plan_ncil(testkit_graph, 2, 3, 30, seed=7)
    intra = build_eval_task(intra_plan, i, "global")
    full = build_eval_task(replace(intra_plan, eval_edges="full_union"), i, "global")
    assert np.array_equal(full.node_sources, intra.node_sources)
    assert np.array_equal(full.eval_nodes, intra.eval_nodes)
    assert np.array_equal(full.graph.features, intra.graph.features)
    assert np.array_equal(full.graph.labels, intra.graph.labels)
    assert full.graph.texts == intra.graph.texts
    assert full.class_ids == intra.class_ids

    owner = {n: j for j, s in enumerate(intra_plan.sessions[:i])
             for n in (*s.train_nodes, *s.test_nodes)}
    cross = {(a, b) for a, b in testkit_graph.edges.tolist()
             if a in owner and b in owner and owner[a] != owner[b]}
    assert cross or i == 1

    def original(task):
        return {tuple(sorted(task.node_sources[e].tolist())) for e in task.graph.edges}

    full_edges, intra_edges = original(full), original(intra)
    assert intra_edges <= full_edges
    assert full_edges - intra_edges == cross


def test_eval_task_index_out_of_range(testkit_plan):
    with pytest.raises(IndexError):
        build_eval_task(testkit_plan, 0, "local")
    with pytest.raises(IndexError):
        build_eval_task(testkit_plan, 4, "global")


# --------------------------------------------------------------------- digest


def test_digest_deterministic(testkit_graph):
    a = plan_digest(plan_ncil(testkit_graph, 2, 3, 20, seed=5))
    b = plan_digest(plan_ncil(testkit_graph, 2, 3, 20, seed=5))
    assert a == b


def test_digest_seed_sensitivity(testkit_graph):
    a = plan_digest(plan_ncil(testkit_graph, 2, 3, 20, seed=5))
    b = plan_digest(plan_ncil(testkit_graph, 2, 3, 20, seed=6))
    assert a != b


def test_digest_line_count(testkit_plan):
    digest = plan_digest(testkit_plan)
    assert len(digest.splitlines()) == 1 + testkit_plan.num_sessions
    for s in testkit_plan.sessions:
        for c in s.class_ids:
            assert testkit_plan.graph.class_names[c] in digest


def test_local_ids_maps_and_unknown_ids_raise(cora_shaped):
    plan = plan_ncil(cora_shaped, classes_per_session=2, num_sessions=3, shots=10, seed=0)
    s, other = plan.sessions[0], plan.sessions[1]
    got = s.local_ids(s.test_nodes)
    assert got.dtype == np.int64
    assert np.array_equal(s.node_map[got], s.test_nodes)
    assert s.local_ids(()).shape == (0,)
    with pytest.raises(KeyError) as err:
        s.local_ids([s.train_nodes[0], other.train_nodes[0]])
    assert err.value.args == (other.train_nodes[0],)


@settings(max_examples=200, deadline=None)
@given(st.sets(st.integers(0, 60), max_size=25),
       st.lists(st.integers(-5, 70), max_size=12))
def test_local_ids_matches_dict_lookup(members, queries):
    node_map = np.array(sorted(members), dtype=np.int64)
    s = Session((), (), (), None, node_map)
    for ids in (queries, [int(o) for o in node_map[::-1]]):
        try:
            want = local_ids_dict(node_map, ids)
        except KeyError as exc:
            with pytest.raises(KeyError) as err:
                s.local_ids(ids)
            assert err.value.args == exc.args
        else:
            assert np.array_equal(s.local_ids(ids), want)
