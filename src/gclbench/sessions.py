"""Session planning for class-incremental scenarios and eval-task derivation.

A plan assigns disjoint class blocks to ordered sessions, samples exact
per-class train shots, and induces per-session subgraphs on train+test nodes
only, which removes every edge between nodes of different sessions.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .graph import TextAttributedGraph, edges_within, induced_subgraph, node_subgraph

NCIL = "ncil"
FSNCIL = "fsncil"
LOCAL = "local"
GLOBAL = "global"
EVAL_EDGES_INTRA = "intra_only"
EVAL_EDGES_FULL = "full_union"


class PlanError(ValueError):
    """Raised when a scenario cannot be built from the given graph/config."""


@dataclass(frozen=True)
class Session:
    class_ids: tuple[int, ...]
    train_nodes: tuple[int, ...]  # original graph ids
    test_nodes: tuple[int, ...]  # original graph ids
    subgraph: TextAttributedGraph
    node_map: np.ndarray  # local id -> original id, ascending

    def local_ids(self, original_ids) -> np.ndarray:
        """Subgraph ids of original graph ids; KeyError for a node outside the session."""
        ids = np.asarray(original_ids, dtype=np.int64)
        local = np.searchsorted(self.node_map, ids)
        found = local < self.node_map.size
        found[found] = self.node_map[local[found]] == ids[found]
        if not found.all():
            raise KeyError(int(ids[np.argmin(found)]))
        return local


@dataclass(frozen=True)
class SessionPlan:
    scenario: str
    seed: int
    class_order: tuple[int, ...]  # retained classes in assignment order
    sessions: tuple[Session, ...]
    graph: TextAttributedGraph
    eval_edges: str = EVAL_EDGES_INTRA

    @property
    def num_sessions(self) -> int:
        return len(self.sessions)

    def cumulative_classes(self, upto: int) -> tuple[int, ...]:
        """Union of class sets of sessions 1..upto (1-based, ascending ids)."""
        out: set[int] = set()
        for s in self.sessions[:upto]:
            out.update(s.class_ids)
        return tuple(sorted(out))


@dataclass(frozen=True)
class EvalTask:
    session_index: int  # 1-based
    graph: TextAttributedGraph
    eval_nodes: np.ndarray  # ids local to `graph`
    node_sources: np.ndarray  # local id -> original graph id
    class_ids: tuple[int, ...]


def filter_classes(g: TextAttributedGraph, min_samples: int) -> list[int]:
    """Classes with at least min_samples member nodes, ascending by id."""
    if min_samples < 1:
        raise ValueError("min_samples must be >= 1")
    counts = np.bincount(g.labels, minlength=len(g.class_names))
    return [c for c in range(len(g.class_names)) if counts[c] >= min_samples]


def _sample_class_nodes(
    g: TextAttributedGraph, class_id: int, shots: int, test_cap: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    members = np.flatnonzero(g.labels == class_id)
    if members.size < shots + 1:
        raise PlanError(
            f"class {class_id} has {members.size} samples; needs {shots} train + 1 test"
        )
    perm = rng.permutation(members)
    train = np.sort(perm[:shots])
    rest = perm[shots:]
    test = np.sort(rest[: min(test_cap, rest.size)])
    return train, test


def _build_sessions(
    g: TextAttributedGraph,
    blocks: list[list[int]],
    shots_per_block: list[int],
    test_cap: int,
    rng: np.random.Generator,
) -> tuple[Session, ...]:
    sessions = []
    for block, shots in zip(blocks, shots_per_block):
        train_all: list[int] = []
        test_all: list[int] = []
        for c in block:
            tr, te = _sample_class_nodes(g, c, shots, test_cap, rng)
            train_all.extend(int(x) for x in tr)
            test_all.extend(int(x) for x in te)
        nodes = sorted(set(train_all) | set(test_all))
        sub, node_map = induced_subgraph(g, nodes)
        sessions.append(
            Session(
                class_ids=tuple(block),
                train_nodes=tuple(sorted(train_all)),
                test_nodes=tuple(sorted(test_all)),
                subgraph=sub,
                node_map=node_map,
            )
        )
    return tuple(sessions)


def plan_ncil(
    g: TextAttributedGraph,
    classes_per_session: int,
    num_sessions: int,
    shots: int,
    test_cap: int = 500,
    seed: int = 0,
    eval_edges: str = EVAL_EDGES_INTRA,
) -> SessionPlan:
    """Uniform class-incremental plan: equal class blocks, exact shot counts.

    The few-shot plan whose base session is one more block of the same size
    and shots.
    """
    _check_shape(classes_per_session=classes_per_session, shots=shots)
    plan = plan_fsncil(g, classes_per_session, classes_per_session, num_sessions,
                       shots, shots, test_cap, seed, eval_edges)
    return replace(plan, scenario=NCIL)


def plan_fsncil(
    g: TextAttributedGraph,
    base_classes: int,
    ways: int,
    num_sessions: int,
    shots_base: int,
    shots_novel: int,
    test_cap: int = 500,
    seed: int = 0,
    eval_edges: str = EVAL_EDGES_INTRA,
) -> SessionPlan:
    """Few-shot plan: a large base session, then m-way k-shot increments."""
    _check_shape(base_classes=base_classes, ways=ways, num_sessions=num_sessions,
                 shots_base=shots_base, shots_novel=shots_novel, test_cap=test_cap)
    min_samples = max(shots_base, shots_novel) + 1
    retained = filter_classes(g, min_samples)
    needed = base_classes + ways * (num_sessions - 1)
    if len(retained) < needed:
        raise PlanError(
            f"insufficient classes: need {needed}, only {len(retained)} have >= {min_samples} samples"
        )
    rng = np.random.default_rng(seed)
    order = [retained[i] for i in rng.permutation(len(retained))][:needed]
    blocks = [order[:base_classes]]
    shots_per_block = [shots_base]
    for i in range(num_sessions - 1):
        start = base_classes + i * ways
        blocks.append(order[start:start + ways])
        shots_per_block.append(shots_novel)
    sessions = _build_sessions(g, blocks, shots_per_block, test_cap, rng)
    return SessionPlan(FSNCIL, seed, tuple(order), sessions, g, eval_edges)


def _check_shape(**counts: int) -> None:
    """A class, shot, session or test count below 1 would build empty sessions."""
    for name, value in counts.items():
        if value < 1:
            raise PlanError(f"{name} must be >= 1, got {value!r}")


def build_eval_task(plan: SessionPlan, i: int, mode: str) -> EvalTask:
    """Evaluation task after training session i (1-based).

    local:  session-i subgraph, its test nodes, classes of sessions 1..i.
    global: the nodes of sessions 1..i, session by session in subgraph order,
            and their union of test nodes. Both eval-edge policies share this
            node order; intra_only keeps each session's own edges, full_union
            also restores the plan graph's edges between sessions.
    """
    if not (1 <= i <= plan.num_sessions):
        raise IndexError(f"session index {i} out of range 1..{plan.num_sessions}")
    if mode not in (LOCAL, GLOBAL):
        raise ValueError(f"unknown mode {mode!r}")
    class_ids = plan.cumulative_classes(i)

    if mode == LOCAL:
        s = plan.sessions[i - 1]
        eval_local = s.local_ids(s.test_nodes)
        return EvalTask(i, s.subgraph, eval_local, s.node_map, class_ids)

    active = plan.sessions[:i]
    offsets = np.cumsum([0] + [s.node_map.size for s in active[:-1]])
    node_sources = np.concatenate([s.node_map for s in active])
    if plan.eval_edges == EVAL_EDGES_FULL:
        edges = edges_within(plan.graph, node_sources)
    else:
        edges = np.concatenate([s.subgraph.edges + off for s, off in zip(active, offsets)])
    eval_local = np.concatenate(
        [s.local_ids(s.test_nodes) + off for s, off in zip(active, offsets)]
    )
    g = node_subgraph(plan.graph, node_sources, edges)
    return EvalTask(i, g, eval_local, node_sources, class_ids)


def plan_digest(plan: SessionPlan) -> str:
    """Canonical text summary: one header line plus one line per session."""
    lines = [
        f"{plan.scenario} seed={plan.seed} sessions={plan.num_sessions} "
        f"eval_edges={plan.eval_edges} class_order={','.join(map(str, plan.class_order))}"
    ]
    for idx, s in enumerate(plan.sessions, start=1):
        names = ",".join(f"{c}:{plan.graph.class_names[c]}" for c in s.class_ids)
        lines.append(
            f"session {idx}: classes=[{names}] train={len(s.train_nodes)} test={len(s.test_nodes)}"
        )
    return "\n".join(lines) + "\n"
