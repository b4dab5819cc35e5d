import ast
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from gclbench.graph import (
    TagFormatError,
    canonicalize_edges,
    degrees,
    gcn_normalized_adjacency,
    induced_subgraph,
    laplacian_smooth,
    load_tag,
    make_graph,
    sample_ego_graph,
    save_tag,
)
from gclbench.nn import ARCH_GCN, layer_rows, spmm
from gclbench.synth import SynthConfig, synth_tag

from oracles import (
    canonical_edges_rows,
    degrees_loop,
    dense_gcn_operator,
    dense_smooth,
    ego_hops_loop,
    khop_nodes,
    neighbor_lists_loop,
    smoothing_limit,
    spectral_radius_power_iteration,
)


def _star_graph(n_leaves):
    n = n_leaves + 1
    feats = np.arange(n * 2, dtype=np.float32).reshape(n, 2)
    edges = np.array([[0, i] for i in range(1, n)])
    return make_graph(feats, [f"t{i}" for i in range(n)], np.zeros(n, np.int64), ["c"], edges)


# ---------------------------------------------------------------- load / save


def test_load_tag_citation_scale_round_trip(tmp_path):
    # Cora-sized directory: 2,708 nodes across 7 classes.
    n, classes = 2708, 7
    rng = np.random.default_rng(3)
    feats = rng.standard_normal((n, 8)).astype(np.float32)
    labels = np.arange(n, dtype=np.int64) % classes
    edges = np.stack([np.arange(n - 1), np.arange(1, n)], axis=1)
    g = make_graph(feats, [f"paper {i}" for i in range(n)], labels,
                   [f"area{i}" for i in range(classes)], edges)
    save_tag(g, tmp_path)
    loaded = load_tag(tmp_path)
    assert loaded.node_count == 2708
    assert len(loaded.class_names) == 7
    assert loaded.edge_count == g.edge_count
    assert np.array_equal(loaded.features, g.features)
    assert loaded.texts == g.texts


def _suite_synth_configs() -> dict[str, dict]:
    """The keyword arguments of every SynthConfig(...) call in the test suite
    whose arguments are arithmetic on constants and on the enclosing
    function's default arguments, keyed by file:line, one entry per distinct
    config. Calls whose arguments a loop or a generator draws are left out."""
    arithmetic = (ast.Constant, ast.Name, ast.Load, ast.BinOp, ast.UnaryOp,
                  ast.operator, ast.unaryop)
    found: dict[tuple, str] = {}
    for path in sorted(Path(__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for scope in (tree, *(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef))):
            names = {}
            if isinstance(scope, ast.FunctionDef):
                args, defaults = scope.args.args, scope.args.defaults
                names = {a.arg: d.value for a, d in zip(args[len(args) - len(defaults):], defaults)
                         if isinstance(d, ast.Constant)}
            for node in ast.walk(scope):
                if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "SynthConfig"):
                    continue
                if node.args or any(
                        k.arg is None or not all(isinstance(x, arithmetic) for x in ast.walk(k.value))
                        or any(isinstance(x, ast.Name) and x.id not in names for x in ast.walk(k.value))
                        for k in node.keywords):
                    continue
                kwargs = tuple((k.arg, eval(compile(ast.Expression(k.value), path.name, "eval"),
                                            {"__builtins__": {}}, dict(names)))
                               for k in node.keywords)
                found.setdefault(kwargs, f"{path.name}:{node.lineno}")
    return {at: dict(kwargs) for kwargs, at in found.items()}


_SYNTH_CONFIGS = _suite_synth_configs()


def test_the_suite_synth_configs_are_collected():
    assert len(_SYNTH_CONFIGS) >= 20
    assert any(c.get("nodes_per_class") == 300 and c.get("feature_dim") == 64
               for c in _SYNTH_CONFIGS.values())  # the gnn_train graph of reference.py


@pytest.mark.parametrize("kwargs", list(_SYNTH_CONFIGS.values()), ids=list(_SYNTH_CONFIGS))
def test_every_suite_synth_graph_round_trips_through_save_and_load(kwargs, tmp_path):
    # A config the suite uses to test a rejection is rejected; every other
    # one loads back as the graph that was saved.
    try:
        g = synth_tag(SynthConfig(**kwargs))
    except ValueError:
        return
    save_tag(g, tmp_path)
    loaded = load_tag(tmp_path)
    assert loaded.features.dtype == g.features.dtype
    assert loaded.features.tobytes() == g.features.tobytes()
    assert loaded.labels.dtype == g.labels.dtype and np.array_equal(loaded.labels, g.labels)
    assert loaded.edges.dtype == g.edges.dtype and np.array_equal(loaded.edges, g.edges)
    assert (loaded.texts, loaded.class_names) == (g.texts, g.class_names)


def test_load_tag_empty_edges(tmp_path):
    g = make_graph(np.zeros((3, 2), np.float32), ["a", "b", "c"],
                   np.zeros(3, np.int64), ["c"], np.zeros((0, 2), np.int64))
    save_tag(g, tmp_path)
    (tmp_path / "edges.tsv").write_text("")
    assert load_tag(tmp_path).edge_count == 0


def test_load_tag_feature_count_mismatch(tmp_path):
    g = make_graph(np.zeros((9, 2), np.float32), [f"t{i}" for i in range(9)],
                   np.zeros(9, np.int64), ["c"], np.zeros((0, 2), np.int64))
    save_tag(g, tmp_path)
    bigger = make_graph(np.zeros((10, 2), np.float32), [f"t{i}" for i in range(10)],
                        np.zeros(10, np.int64), ["c"], np.zeros((0, 2), np.int64))
    save_tag(bigger, tmp_path / "other")
    (tmp_path / "features.bin").write_bytes((tmp_path / "other" / "features.bin").read_bytes())
    with pytest.raises(TagFormatError, match="feature-count mismatch"):
        load_tag(tmp_path)


def test_load_tag_missing_file(tmp_path):
    with pytest.raises(TagFormatError, match="missing file"):
        load_tag(tmp_path)


def test_load_tag_bad_magic(tmp_path):
    g = make_graph(np.zeros((2, 2), np.float32), ["a", "b"], np.zeros(2, np.int64),
                   ["c"], np.zeros((0, 2), np.int64))
    save_tag(g, tmp_path)
    (tmp_path / "features.bin").write_bytes(b"NOPE" + b"\x00" * 40)
    with pytest.raises(TagFormatError, match="malformed binary header"):
        load_tag(tmp_path)


def test_load_tag_out_of_range_label(tmp_path):
    g = make_graph(np.zeros((2, 2), np.float32), ["a", "b"], np.zeros(2, np.int64),
                   ["c"], np.zeros((0, 2), np.int64))
    save_tag(g, tmp_path)
    lines = (tmp_path / "nodes.jsonl").read_text().splitlines()
    lines[1] = lines[1].replace('"label": 0', '"label": 5')
    (tmp_path / "nodes.jsonl").write_text("\n".join(lines) + "\n")
    with pytest.raises(TagFormatError, match="label out of range at record 1"):
        load_tag(tmp_path)


def test_load_tag_edge_out_of_range(tmp_path):
    g = make_graph(np.zeros((2, 2), np.float32), ["a", "b"], np.zeros(2, np.int64),
                   ["c"], np.zeros((0, 2), np.int64))
    save_tag(g, tmp_path)
    (tmp_path / "edges.tsv").write_text("0\t7\n")
    with pytest.raises(TagFormatError, match="out of range at record 0"):
        load_tag(tmp_path)


def test_duplicate_edges_counted(tmp_path):
    g = make_graph(np.zeros((3, 2), np.float32), ["a", "b", "c"],
                   np.zeros(3, np.int64), ["c"], np.array([[0, 1]]))
    save_tag(g, tmp_path)
    (tmp_path / "edges.tsv").write_text("0\t1\n1\t0\n1\t2\n2\t1\n0\t1\n")
    loaded = load_tag(tmp_path)
    assert loaded.edge_count == 2  # five records, two distinct undirected edges
    assert loaded.edges.tolist() == [[0, 1], [1, 2]]


@pytest.mark.parametrize("node_count,m,seed", [(1, 4, 0), (2, 30, 1), (7, 60, 2),
                                               (50, 400, 3), (3000, 5000, 4)])
def test_canonicalize_edges_matches_row_unique(node_count, m, seed):
    rng = np.random.default_rng(seed)
    e = rng.integers(node_count, size=(m, 2))
    e[::5, 1] = e[::5, 0]  # self-loops
    e = np.concatenate([e, e[: m // 3, ::-1], e[: m // 4]])  # reversed pairs, repeats
    want = canonical_edges_rows(e)
    for edges in (e, e.astype(np.int32), e[rng.permutation(len(e))]):
        got = canonicalize_edges(edges, node_count)
        assert got.dtype == np.int64 and got.shape == want.shape
        assert np.array_equal(got, want)


@pytest.mark.parametrize("node_count", [0, 1, 5])
def test_canonicalize_edges_empty(node_count):
    for edges in (np.zeros((0, 2), np.int64), np.zeros(0, np.int32)):
        got = canonicalize_edges(edges, node_count)
        assert got.dtype == np.int64 and got.shape == (0, 2)


def test_load_tag_unsorted_edges(tmp_path):
    rng = np.random.default_rng(7)
    n = 40
    g = make_graph(np.zeros((n, 2), np.float32), [f"t{i}" for i in range(n)],
                   np.zeros(n, np.int64), ["c"], np.zeros((0, 2), np.int64))
    save_tag(g, tmp_path)
    e = rng.integers(n, size=(300, 2))
    (tmp_path / "edges.tsv").write_text("".join(f"{a}\t{b}\n" for a, b in e))
    loaded = load_tag(tmp_path)
    assert loaded.edges.dtype == np.int64
    assert np.array_equal(loaded.edges, canonical_edges_rows(e))


# ------------------------------------------------------------------ subgraphs


def test_induced_subgraph_identity(testkit_graph):
    sub, remap = induced_subgraph(testkit_graph, range(testkit_graph.node_count))
    assert sub.node_count == testkit_graph.node_count
    assert sub.edge_count == testkit_graph.edge_count
    assert np.array_equal(remap, np.arange(testkit_graph.node_count))
    assert np.array_equal(np.sort(sub.edges, axis=0), np.sort(testkit_graph.edges, axis=0))


def test_induced_subgraph_single_node(path_graph):
    sub, _ = induced_subgraph(path_graph, [1])
    assert sub.node_count == 1
    assert sub.edge_count == 0


def test_induced_subgraph_path_endpoints(path_graph):
    # path 0-1-2, keep {0, 2}: no surviving edges (enumerated by hand).
    sub, remap = induced_subgraph(path_graph, [0, 2])
    assert sub.node_count == 2
    assert sub.edge_count == 0
    assert list(remap) == [0, 2]
    assert sub.texts == ("a", "c")


def test_induced_subgraph_out_of_range(path_graph):
    with pytest.raises(ValueError, match="out of range"):
        induced_subgraph(path_graph, [0, 99])


# ------------------------------------------------------------- normalization


def test_gcn_adjacency_isolated_node(isolated_node_graph):
    s = gcn_normalized_adjacency(isolated_node_graph)
    assert np.allclose(s.toarray(), [[1.0]])


def test_gcn_adjacency_two_nodes(two_node_graph):
    s = gcn_normalized_adjacency(two_node_graph)
    assert np.allclose(s.toarray(), 0.5 * np.ones((2, 2)))


def test_gcn_adjacency_symmetric_and_matches_dense(testkit_graph):
    s = gcn_normalized_adjacency(testkit_graph).toarray()
    assert np.allclose(s, s.T)
    assert np.allclose(s, dense_gcn_operator(testkit_graph))


def test_gcn_adjacency_spectral_radius(testkit_graph):
    s = gcn_normalized_adjacency(testkit_graph).toarray()
    assert spectral_radius_power_iteration(s) <= 1.0 + 1e-9


def test_csr_indices_sorted(testkit_graph):
    s = gcn_normalized_adjacency(testkit_graph)
    for r in range(s.shape[0]):
        cols = s.indices[s.indptr[r]:s.indptr[r + 1]]
        assert np.all(np.diff(cols) > 0)


# ------------------------------------------------------------------ smoothing


def test_smooth_k0_identity(testkit_graph):
    X = np.asarray(testkit_graph.features, dtype=np.float64)
    z = laplacian_smooth(X, testkit_graph, 0)
    assert np.array_equal(z, X) and z is not X


def test_smooth_two_nodes_one_step(two_node_graph):
    z = laplacian_smooth(np.array([[1.0], [0.0]]), two_node_graph, 1)
    assert np.allclose(z, [[0.5], [0.5]])


def test_smooth_matches_dense_oracle(testkit_graph):
    X = np.asarray(testkit_graph.features, dtype=np.float64)[:, :4]
    z = laplacian_smooth(X, testkit_graph, 3)
    assert np.allclose(z, dense_smooth(testkit_graph, X, 3), atol=1e-10)


def test_smooth_row_convergence_monotone():
    g = synth_tag(SynthConfig(num_classes=2, nodes_per_class=4, feature_dim=4,
                              class_sep=1.0, intra_p=0.9, inter_p=0.5, seed=5))
    assert g.node_count == 8
    X = np.asarray(g.features, dtype=np.float64)
    limit = smoothing_limit(g, X)
    prev = None
    for k in (1, 2, 4, 8, 16):
        z = laplacian_smooth(X, g, k)
        dists = np.linalg.norm(z - limit, axis=1)
        if prev is not None:
            assert np.all(dists <= prev + 1e-12)
        prev = dists


def test_smooth_dimension_mismatch(two_node_graph):
    with pytest.raises(ValueError, match="rows"):
        laplacian_smooth(np.zeros((3, 1)), two_node_graph, 1)


# --------------------------------------------------------------- ego sampling


def test_ego_small_neighborhood_complete():
    g = _star_graph(3)
    ego = sample_ego_graph(g, 0, [20, 20], seed=0)
    assert sorted(ego.hop_nodes[0]) == [1, 2, 3]
    assert ego.hop_nodes[1] == ()
    assert ego.center == 0


def test_ego_fanout_cap_and_determinism():
    g = _star_graph(25)
    a = sample_ego_graph(g, 0, [20, 20], seed=42)
    b = sample_ego_graph(g, 0, [20, 20], seed=42)
    assert len(a.hop_nodes[0]) == 20
    assert set(a.hop_nodes[0]) <= set(range(1, 26))
    assert a == b
    c = sample_ego_graph(g, 0, [20, 20], seed=43)
    assert len(c.hop_nodes[0]) == 20


def test_ego_isolated_node(isolated_node_graph):
    ego = sample_ego_graph(isolated_node_graph, 0, [20, 20], seed=0)
    assert ego.hop_nodes == ((), ())
    assert ego.center == 0


def test_ego_within_khop_oracle(testkit_graph):
    for v in (0, 57, 123, 299):
        ego = sample_ego_graph(testkit_graph, v, [5, 5], seed=9)
        reachable = khop_nodes(testkit_graph, v, 2)
        flat = {u for hop in ego.hop_nodes for u in hop}
        assert flat <= reachable
        assert v not in flat
        # no repeats across hops
        assert len(flat) == sum(len(h) for h in ego.hop_nodes)


def test_ego_invalid_node(path_graph):
    with pytest.raises(ValueError, match="invalid node id"):
        sample_ego_graph(path_graph, 9, [2], seed=0)


@pytest.mark.parametrize("bad", [-1, 0, True, False, 2.5, 2.0, "2", None, np.float64(3.0)])
def test_ego_rejects_bad_fanout_before_sampling(isolated_node_graph, path_graph, bad):
    # The isolated node has no candidates, so only the check can catch `bad`.
    for g, v in ((isolated_node_graph, 0), (path_graph, 1)):
        with pytest.raises(ValueError) as err:
            sample_ego_graph(g, v, [2, bad], seed=0)
        assert f"fanouts must be integers >= 1, got {bad!r}" in str(err.value)


def test_ego_accepts_numpy_integer_fanouts(testkit_graph):
    fanouts = np.array([3, 2])
    assert (sample_ego_graph(testkit_graph, 57, fanouts, seed=9)
            == sample_ego_graph(testkit_graph, 57, [3, 2], seed=9))


def test_ego_builds_a_generator_only_when_a_hop_must_choose(
        monkeypatch, path_graph, testkit_graph):
    built = []
    real = np.random.default_rng

    def counting_rng(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", counting_rng)
    ego = sample_ego_graph(path_graph, 1, [2, 2], seed=5)  # both hops fit their fanouts
    assert ego.hop_nodes == ((0, 2), ()) and built == []
    ego = sample_ego_graph(path_graph, 1, [1, 1], seed=-1)  # hop 0 picks 1 of 2
    assert len(ego.hop_nodes[0]) == 1 and built == [([2**64 - 1, 1],)]
    built.clear()
    ego = sample_ego_graph(testkit_graph, 57, [3, 2], seed=9)  # both hops choose
    assert [len(h) for h in ego.hop_nodes] == [3, 2] and len(built) == 1
    with pytest.raises(TypeError):  # a non-integer seed fails even when nothing is drawn
        sample_ego_graph(path_graph, 1, [2, 2], seed=1.5)


# ------------------------------------------------------------ neighbour cache


@st.composite
def _random_graphs(draw):
    """Graphs of 0-12 nodes from raw edge lists with self-loops, duplicates and reversed pairs."""
    n = draw(st.integers(0, 12))
    node = st.integers(0, max(n - 1, 0))
    edges = draw(st.lists(st.tuples(node, node), max_size=40 if n else 0))
    edges = np.array(edges, dtype=np.int64).reshape(-1, 2)
    feats = np.zeros((n, 1), dtype=np.float32)
    return make_graph(feats, [f"t{i}" for i in range(n)], np.zeros(n, np.int64), ["c"], edges)


@settings(max_examples=150, deadline=None)
@given(_random_graphs())
def test_neighbor_csr_and_degrees_match_loop_oracle(g):
    indptr, indices = g.neighbor_csr
    expected = neighbor_lists_loop(g)
    assert indptr.dtype == indices.dtype == np.int64
    assert len(indptr) == g.node_count + 1 and indptr[-1] == indices.size
    for i, want in enumerate(expected):
        assert np.array_equal(indices[indptr[i]:indptr[i + 1]], want)
    assert np.array_equal(degrees(g), degrees_loop(g, self_loops=True))


@settings(max_examples=100, deadline=None)
@given(_random_graphs(), st.integers(-2**63, 2**64 - 1),
       st.lists(st.integers(1, 4), min_size=1, max_size=3))
def test_ego_sample_matches_loop_oracle(g, seed, fanouts):
    for v in range(g.node_count):
        assert sample_ego_graph(g, v, fanouts, seed).hop_nodes == ego_hops_loop(g, v, fanouts, seed)


def test_ego_sample_matches_loop_oracle_on_testkit(testkit_graph):
    for v in (0, 57, 123, 299):
        for fanouts in ((20, 20), (3, 2, 1), (1,)):
            for seed in (0, 9, -4):
                ego = sample_ego_graph(testkit_graph, v, fanouts, seed)
                assert ego.hop_nodes == ego_hops_loop(testkit_graph, v, fanouts, seed)


def test_neighbor_csr_built_once_per_graph(path_graph):
    first = path_graph.neighbor_csr
    degrees(path_graph)
    sample_ego_graph(path_graph, 1, [2, 2], seed=0)
    gcn_normalized_adjacency(path_graph)
    assert path_graph.neighbor_csr is first
    assert not first[0].flags.writeable and not first[1].flags.writeable
    other = induced_subgraph(path_graph, [0, 1, 2])[0]
    assert other.neighbor_csr is not first


def test_operator_scipy_matrix_built_once(testkit_graph):
    # The operator is the scipy CSR matrix itself: a pass over every node
    # multiplies by it and its transpose with no per-call conversion.
    s = gcn_normalized_adjacency(testkit_graph)
    assert isinstance(s, sp.csr_matrix) and s.has_sorted_indices
    assert s.dtype == np.float64
    X = np.asarray(testkit_graph.features, dtype=np.float64)
    assert np.array_equal(spmm(s, X), s @ X)
    ops = layer_rows(ARCH_GCN, s).ops
    assert all(A is s for A, _ in ops)
    assert np.array_equal(ops[0][1] @ X, s.T @ X)


def test_operator_built_once_per_graph(testkit_graph, monkeypatch):
    from gclbench import graph
    from gclbench.sessions import plan_ncil
    from gclbench.trainers import run_method

    builds = []
    identity = sp.identity
    monkeypatch.setattr(graph.sp, "identity", lambda n, **kw: builds.append(n) or identity(n, **kw))
    # A gcn local run fits and evaluates every session on its own subgraph.
    plan = plan_ncil(testkit_graph, classes_per_session=2, num_sessions=3, shots=10, seed=3)
    run_method("gcn", plan, {"epochs": 2, "hidden_dim": 8}, mode="local", seed=0)
    assert builds == [s.subgraph.node_count for s in plan.sessions]
    sub = plan.sessions[0].subgraph
    first = gcn_normalized_adjacency(sub)
    laplacian_smooth(np.asarray(sub.features), sub, 2)
    degrees(sub)
    assert gcn_normalized_adjacency(sub) is first
    assert len(builds) == 3
    s = gcn_normalized_adjacency(sub)
    before = s.toarray()
    for arr in (s.data, s.indices, s.indptr):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0
    with pytest.raises(ValueError, match="read-only"):
        s[0, 0] = 5.0
    assert np.array_equal(gcn_normalized_adjacency(sub).toarray(), before)
