"""Output checks computed apart from the program under test.

Every check raises CheckFailed on a wrong output. The oracles here use plain
numpy on the plan's node lists and the graph's edge array; none of them calls
the gclbench code path it checks, and none compares against a stored copy of
earlier output. `stub_server.deterministic_embedding` is the provider's own
definition of a vector, so the embedding oracle uses it.
"""

from __future__ import annotations

import math
import re

import numpy as np


class CheckFailed(Exception):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _close(a, b, tol: float = 1e-12) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= tol


# ---------------------------------------------------------------------------
# Accuracy matrices and summaries (every run_method result)
# ---------------------------------------------------------------------------


def check_triangle(result) -> None:
    """Local: a full lower triangle; global: one entry per row; all in [0, 1]."""
    rows = result.matrix.rows
    _require(len(rows) >= 1, "empty accuracy matrix")
    for i, row in enumerate(rows):
        want = i + 1 if result.mode == "local" else 1
        _require(len(row) == want, f"{result.method}: row {i} has {len(row)} entries, want {want}")
        _require(all(0.0 <= x <= 1.0 for x in row), f"{result.method}: row {i} leaves [0, 1]")


def check_summary(result) -> None:
    """mean_acc / final_acc / AA / AF recomputed from the rows with the paper's formulas."""
    rows = result.matrix.rows
    n = len(rows)
    if result.mode == "local":
        stages = [math.fsum(r) / len(r) for r in rows]
        aa = math.fsum(rows[-1]) / n
        af = math.fsum(rows[-1][j] - rows[j][j] for j in range(n - 1)) / n
    else:
        stages = [r[0] for r in rows]
        aa = af = None
    want = {"mean_acc": math.fsum(stages) / n, "final_acc": stages[-1], "aa": aa, "af": af}
    for key, value in want.items():
        got = result.summary.get(key)
        _require(_close(got, value), f"{result.method}: summary {key}={got}, rows give {value}")


def check_floor(result, floor: float) -> None:
    a11 = result.matrix.rows[0][0]
    _require(a11 >= floor, f"{result.method}: A[1][1]={a11} below the floor {floor}")


def check_no_forgetting(result) -> None:
    """Training-free prototypes: A[i][j] == A[j][j] exactly, so AF == 0."""
    rows = result.matrix.rows
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            _require(x == rows[j][j], f"{result.method}: A[{i + 1}][{j + 1}]={x} != A[{j + 1}][{j + 1}]")
    _require(result.summary.get("af") == 0.0, f"{result.method}: AF={result.summary.get('af')} != 0")


def check_global_bound(result, bounds: list[float]) -> None:
    """Routing a whole query set to one head caps accuracy at that session's share."""
    for i, row in enumerate(result.matrix.rows):
        _require(row[0] <= bounds[i] + 1e-12,
                 f"{result.method}: stage {i + 1} accuracy {row[0]} > bound {bounds[i]}")


def check_rows_equal(result, rows, what: str) -> None:
    got = result.matrix.rows
    _require(len(got) == len(rows) and all(
        len(a) == len(b) and all(_close(x, y) for x, y in zip(a, b)) for a, b in zip(got, rows)
    ), f"{result.method}: matrix {got} differs from {what} {rows}")


# ---------------------------------------------------------------------------
# Oracles from the plan
# ---------------------------------------------------------------------------


def _local_index(nodes_sorted: np.ndarray, ids) -> np.ndarray:
    return np.searchsorted(nodes_sorted, np.asarray(ids, dtype=np.int64))


def nearest_centroid_accuracy(plan) -> float:
    """Session-1 test accuracy of class means of raw train features (Euclidean)."""
    s = plan.sessions[0]
    X = np.asarray(plan.graph.features, dtype=np.float64)
    y = np.asarray(plan.graph.labels)
    train, test = np.array(s.train_nodes), np.array(s.test_nodes)
    classes = np.array(sorted(s.class_ids))
    cents = np.stack([X[train[y[train] == c]].mean(axis=0) for c in classes])
    d = ((X[test][:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
    return float(np.mean(classes[np.argmin(d, axis=1)] == y[test]))


def global_bounds(plan) -> list[float]:
    """Per stage, the largest share of the union test nodes held by one session's classes."""
    y = np.asarray(plan.graph.labels)
    out = []
    for i in range(1, plan.num_sessions + 1):
        test = np.concatenate([np.array(s.test_nodes) for s in plan.sessions[:i]])
        out.append(max(float(np.isin(y[test], s.class_ids).mean()) for s in plan.sessions[:i]))
    return out


def _session_operator(plan, s) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense D^-1/2 (A+I) D^-1/2 of a session's induced subgraph, built from plan.graph.edges."""
    nodes = np.array(sorted(set(s.train_nodes) | set(s.test_nodes)), dtype=np.int64)
    e = np.asarray(plan.graph.edges)
    inside = np.isin(e[:, 0], nodes) & np.isin(e[:, 1], nodes)
    a, b = _local_index(nodes, e[inside, 0]), _local_index(nodes, e[inside, 1])
    A = np.zeros((nodes.size, nodes.size))
    A[a, b] = 1.0
    A[b, a] = 1.0
    A += np.eye(nodes.size)
    deg = A.sum(axis=1)
    S = A / np.sqrt(deg)[:, None] / np.sqrt(deg)[None, :]
    return nodes, S, deg


def leakage_oracle(plan, k_grid) -> dict[tuple[str, int], float]:
    """Task-ID accuracy of nearest-prototype routing per (weighting, k)."""
    X = np.asarray(plan.graph.features, dtype=np.float64)
    ops = [_session_operator(plan, s) for s in plan.sessions]
    out = {}
    for weighting in ("laplacian", "plain-mean"):
        for k in k_grid:
            protos, queries = [], []
            for s, (nodes, S, deg) in zip(plan.sessions, ops):
                Z = X[nodes]
                if weighting == "laplacian":
                    for _ in range(k):
                        Z = S @ Z
                    Z = Z / np.sqrt(deg)[:, None]
                protos.append(Z[_local_index(nodes, s.train_nodes)].mean(axis=0))
                queries.append(Z[_local_index(nodes, s.test_nodes)].mean(axis=0))
            P = np.stack(protos)
            hits = [int(np.argmin(np.linalg.norm(P - q, axis=1))) == j for j, q in enumerate(queries)]
            out[(weighting, int(k))] = float(np.mean(hits))
    return out


def check_leakage_oracle(report, oracle) -> None:
    got = {(e["weighting"], e["k"]): e["task_id_accuracy"] for e in report.entries}
    _require(set(got) == set(oracle), f"leakage grid {sorted(got)} != {sorted(oracle)}")
    for key, want in oracle.items():
        _require(_close(got[key], want), f"leakage {key}: task-ID accuracy {got[key]} != oracle {want}")


def check_leakage_af(report) -> None:
    for e in report.entries:
        if e["task_id_accuracy"] == 1.0:
            _require(e["af"] == 0.0, f"leakage {e['weighting']} k={e['k']}: perfect routing but AF={e['af']}")


# ---------------------------------------------------------------------------
# Prompt emission and ego graphs
# ---------------------------------------------------------------------------

_CENTER = re.compile(r"\[0\]\[Record (\d+):")
_ENTRY = re.compile(r"\[\d+\]\[Record (\d+):")
_HOP = re.compile(r"known neighbors at hop (\d+):")


def neighbours(graph) -> list[set[int]]:
    nbrs: list[set[int]] = [set() for _ in range(graph.node_count)]
    for a, b in np.asarray(graph.edges).tolist():
        if a != b:
            nbrs[a].add(b)
            nbrs[b].add(a)
    return nbrs


def parse_ego(prompt: str) -> tuple[int, list[list[int]]]:
    """Center id and the node ids of each hop, read from `Record <id>:` texts."""
    body = prompt.split("\n")[2]
    parts = _HOP.split(body)
    centers = _CENTER.findall(parts[0])
    _require(len(centers) == 1, "prompt has no single center record")
    hops = []
    for h, (number, segment) in enumerate(zip(parts[1::2], parts[2::2]), start=1):
        _require(int(number) == h, f"hop framing {number} out of order")
        hops.append([int(x) for x in _ENTRY.findall(segment)])
    return int(centers[0]), hops


def check_emission(records: list[dict], plan, session_index: int) -> None:
    """One record per train node; each answer is the node's class name."""
    s = plan.sessions[session_index]
    g = plan.graph
    nodes = [r["node"] for r in records]
    _require(sorted(nodes) == sorted(s.train_nodes),
             f"session {session_index}: {len(nodes)} records for {len(s.train_nodes)} train nodes")
    for r in records:
        want = g.class_names[int(g.labels[r["node"]])]
        _require(r["answer"] == want, f"node {r['node']}: answer {r['answer']!r} != {want!r}")


def check_ego_prompts(records: list[dict], nbrs: list[set[int]], fanouts) -> None:
    """Hop h holds at most fanouts[h] unvisited neighbours of hop h-1, and all of
    them when fewer exist; hop 1 hangs off the center."""
    for r in records:
        center, hops = parse_ego(r["prompt"])
        _require(center == r["node"], f"prompt center {center} != record node {r['node']}")
        _require(len(hops) <= len(fanouts), f"node {center}: {len(hops)} hops > {len(fanouts)}")
        if not hops:
            _require(not nbrs[center], f"node {center}: neighbours exist but prompt has none")
            continue
        visited, frontier = {center}, [center]
        for h, hop in enumerate(hops):
            candidates = set().union(*(nbrs[w] for w in frontier)) - visited
            _require(len(set(hop)) == len(hop), f"node {center}: hop {h + 1} repeats a node")
            _require(len(hop) <= fanouts[h], f"node {center}: hop {h + 1} exceeds fanout {fanouts[h]}")
            _require(set(hop) <= candidates, f"node {center}: hop {h + 1} names a non-neighbour")
            if len(hop) < fanouts[h]:
                _require(set(hop) == candidates, f"node {center}: hop {h + 1} drops a neighbour")
            visited.update(hop)
            frontier = hop


def future_class_share(records: list[dict], plan, session_index: int) -> float:
    """Share of ego (non-center) nodes whose class arrives in a later session."""
    later = {c for s in plan.sessions[session_index + 1:] for c in s.class_ids}
    y = plan.graph.labels
    ego = [n for r in records for hop in parse_ego(r["prompt"])[1] for n in hop]
    return sum(int(y[n]) in later for n in ego) / len(ego) if ego else 0.0


# ---------------------------------------------------------------------------
# Provider embeddings
# ---------------------------------------------------------------------------


def text_embeddings(plan, nodes, dim: int, deterministic_embedding) -> np.ndarray:
    return np.stack([np.asarray(deterministic_embedding(plan.graph.texts[n], dim), dtype=np.float32)
                     for n in nodes])


def simplecil_oracle(plan, dim: int, deterministic_embedding) -> list[list[float]]:
    """Local matrix of class-mean prototypes over text embeddings, cosine argmax."""
    y = np.asarray(plan.graph.labels)
    protos = {}
    for s in plan.sessions:
        train = np.array(s.train_nodes)
        E = text_embeddings(plan, train, dim, deterministic_embedding).astype(np.float64)
        for c in s.class_ids:
            protos[c] = E[y[train] == c].mean(axis=0)
    acc = []
    for j, s in enumerate(plan.sessions, start=1):
        classes = np.array(plan.cumulative_classes(j))
        P = np.stack([protos[c] for c in classes])
        test = np.array(s.test_nodes)
        H = text_embeddings(plan, test, dim, deterministic_embedding).astype(np.float64)
        cos = (H @ P.T) / np.outer(np.linalg.norm(H, axis=1), np.linalg.norm(P, axis=1))
        acc.append(float(np.mean(classes[np.argmax(cos, axis=1)] == y[test])))
    return [acc[:i] for i in range(1, plan.num_sessions + 1)]


def check_vectors(got: np.ndarray, want: np.ndarray) -> None:
    """Cache-served vectors are bit-identical to the provider's."""
    got = np.ascontiguousarray(got, dtype=np.float32)
    _require(got.shape == want.shape, f"vector block {got.shape} != {want.shape}")
    diff = np.flatnonzero(got.view(np.uint32) != want.view(np.uint32))
    _require(diff.size == 0, f"{diff.size} cached floats differ from the provider's")


def check_warm_pass(warm_requests: int, cache_bytes_cold: int, cache_bytes_warm: int) -> None:
    _require(warm_requests == 0, f"warm pass sent {warm_requests} provider requests")
    _require(cache_bytes_warm == cache_bytes_cold,
             f"warm pass changed the cache file ({cache_bytes_cold} -> {cache_bytes_warm} bytes)")
