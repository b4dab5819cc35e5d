"""Ego-graph prompt rendering and instruction-tuning dataset emission.

Prompts list the center node and its sampled neighbors hop by hop in
[Node ID][Node Text] form with ego-local sequential ids, then ask for one of
the class names currently known. The emitted JSONL feeds an external tuner;
no language model runs here.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from pathlib import Path

from .config import DEFAULT_HYPERS
from .graph import EgoGraph, sample_ego_graph
from .sessions import SessionPlan

DEFAULT_SYSTEM = (
    "You are a good graph reasoner. Given a graph description from the {dataset} "
    "dataset, understand the structure and answer the question."
)
DEFAULT_TASK = (
    "The description lists a target node and its sampled neighbors, "
    "each in the format of [Node ID][Node Text]."
)
DEFAULT_QUESTION = (
    "Question: Please predict which of the following categories this node "
    "belongs to. Choose from the following categories: {labels}."
)
NO_NEIGHBOR_SENTINEL = "no known neighbors."


@dataclass(frozen=True)
class PromptTemplate:
    """The fixed prompt text, set by dataset name, hop count and text cap."""

    dataset_name: str
    hops: int
    max_node_text_len: int

    def __post_init__(self):
        if self.max_node_text_len < 1:
            raise ValueError("max_node_text_len must be >= 1")


def default_template(dataset_name: str = "Cora", hops: int = len(DEFAULT_HYPERS["fanouts"]),
                     max_node_text_len: int = DEFAULT_HYPERS["max_node_text_len"]):
    return PromptTemplate(dataset_name, hops, max_node_text_len)


def truncate_tokens(text: str, max_tokens: int) -> str:
    """Keep at most max_tokens whitespace-delimited tokens."""
    tokens = text.split()
    return " ".join(tokens[:max_tokens])


def render_prompt(ego: EgoGraph, template: PromptTemplate, class_names) -> str:
    """Deterministic prompt string for one ego graph and a class-name list.

    Node ids are ego-local: 0 for the center, then sequential through the
    hops. Empty neighborhoods collapse to a sentinel sentence.
    """
    names = list(class_names)
    if not names:
        raise ValueError("empty class list")
    if len(ego.hop_nodes) > template.hops:
        raise ValueError(
            f"ego graph has {len(ego.hop_nodes)} hops; template frames {template.hops}"
        )
    cap = template.max_node_text_len
    center_text = truncate_tokens(ego.center_text, cap)
    parts = [DEFAULT_SYSTEM.format(dataset=template.dataset_name), DEFAULT_TASK]
    lines = [f"[0][{center_text}]"]
    next_id = 1
    if all(len(h) == 0 for h in ego.hop_nodes):
        lines.append(NO_NEIGHBOR_SENTINEL)
    else:
        for h, hop in enumerate(ego.hop_nodes):
            entries = []
            for j in range(len(hop)):
                text = truncate_tokens(ego.hop_texts[h][j], cap)
                entries.append(f"[{next_id}][{text}]")
                next_id += 1
            body = " ".join(entries) if entries else NO_NEIGHBOR_SENTINEL
            lines.append(f"known neighbors at hop {h + 1}: {body}")
    parts.append(" ".join(lines))
    parts.append(DEFAULT_QUESTION.format(labels=", ".join(names)))
    return "\n".join(parts)


def emit_instruction_jsonl(
    plan: SessionPlan,
    session_index: int,
    template: PromptTemplate,
    path,
    seed: int,
    fanouts=tuple(DEFAULT_HYPERS["fanouts"]),
) -> int:
    """Write one {"node", "prompt", "answer"} line per train node of a session.

    `session_index` is 0-based. Prompts carry the cumulative class names up
    to that session; answers are class display strings. Output bytes are
    stable under a fixed seed. Returns the line count.
    """
    if not (0 <= session_index < plan.num_sessions):
        raise IndexError(f"session index {session_index} out of range")
    session = plan.sessions[session_index]
    g = plan.graph
    class_ids = plan.cumulative_classes(session_index + 1)
    names = [g.class_names[c] for c in class_ids]
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    count = 0
    with open(out, "w", encoding="utf-8") as fh:
        for node in session.train_nodes:
            ego = sample_ego_graph(g, node, fanouts, seed)
            rec = {
                "node": int(node),
                "prompt": render_prompt(ego, template, names),
                "answer": g.class_names[int(g.labels[node])],
            }
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")
            count += 1
    sidecar = {
        "records": count,
        "session_index": session_index,
        "scenario": plan.scenario,
        "seed": operator.index(seed),
        "fanouts": list(fanouts),
        "max_node_text_len": template.max_node_text_len,
        # Consumed by the external tuner, not by this package.
        "lora": {"r": 5, "alpha": 16, "dropout": 0.05},
    }
    out.with_suffix(".meta.json").write_text(
        json.dumps(sidecar, indent=1, sort_keys=True), encoding="utf-8"
    )
    return count
