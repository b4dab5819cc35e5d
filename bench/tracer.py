"""Span tracer that wraps gclbench functions from outside the package.

`trainers`, `prototypes` and `prompts` bind imported names at import time, so
a function is wrapped wherever a gclbench module holds a reference to it, not
only in the module that defines it. Spans are kept in memory; `spans()` hands
them out for writing once the run ends. Only the main thread is traced: the
provider's worker threads and the stub server's handler threads pass through.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager


def _nnz_x_cols(args, result):
    S, X = args["S"], args["X"]
    nnz = getattr(S, "nnz", None)
    if nnz is None:
        nnz = len(S.values)
    cols = X.shape[1] if getattr(X, "ndim", 1) > 1 else 1
    return int(nnz) * int(cols)


def _arg_len(name):
    return lambda args, result: len(args[name])


def _cache_file_bytes(args, result):
    path = args["self"].path
    return path.stat().st_size if path.exists() else 0


# (layer prefix `<module>.<function>`, module, attribute path inside it, work).
# `work` is None or (quantity, unit, fn): fn maps the call's bound arguments
# and its result to the amount of work the call did.
TARGETS = (
    ("graph.SparseAdjacency.to_scipy", "graph", "SparseAdjacency.to_scipy", None),
    ("graph.gcn_normalized_adjacency", "graph", "gcn_normalized_adjacency", None),
    ("graph.laplacian_smooth", "graph", "laplacian_smooth", None),
    ("graph.degrees", "graph", "degrees", None),
    ("graph.make_graph", "graph", "make_graph", None),
    ("graph.TextAttributedGraph.neighbor_lists", "graph", "TextAttributedGraph.neighbor_lists",
     None),
    ("graph.sample_ego_graph", "graph", "sample_ego_graph", None),
    ("sessions.build_eval_task", "sessions", "build_eval_task", None),
    ("nn.spmm", "nn", "spmm", ("nnz_x_cols", "count", _nnz_x_cols)),
    ("nn.model_forward", "nn", "model_forward", None),
    ("nn.model_backward", "nn", "model_backward", None),
    ("nn.adam_step", "nn", "adam_step", None),
    ("trainers.run_method", "trainers", "run_method", None),
    ("trainers.train_session", "trainers", "train_session",
     ("epochs", "count", lambda args, result: int(args["epochs"]))),
    ("trainers.fisher_diagonal", "trainers", "fisher_diagonal", ("rows", "count", _arg_len("rows"))),
    ("trainers.ewc_penalty", "trainers", "ewc_penalty", None),
    ("trainers.distill_loss", "trainers", "distill_loss", None),
    ("trainers.route_eval", "trainers", "route_eval", None),
    ("prototypes.task_prototype", "prototypes", "task_prototype", None),
    ("prototypes.predict_task_id", "prototypes", "predict_task_id", None),
    ("prototypes.build_prototypes", "prototypes", "build_prototypes", None),
    ("prototypes.classify_batch", "prototypes", "classify_batch", None),
    ("prototypes.teen_calibrate", "prototypes", "teen_calibrate", None),
    ("evaluation.evaluate", "evaluation", "evaluate", None),
    ("evaluation.leakage_diagnostic", "evaluation", "leakage_diagnostic", None),
    ("prompts.render_prompt", "prompts", "render_prompt",
     ("bytes", "bytes", lambda args, result: len(result.encode("utf-8")))),
    ("prompts.emit_instruction_jsonl", "prompts", "emit_instruction_jsonl", None),
    ("embeddings.get_or_embed", "embeddings", "get_or_embed",
     ("rows", "count", _arg_len("node_ids"))),
    ("embeddings.EmbeddingCache.load", "embeddings", "EmbeddingCache._load",
     ("bytes", "bytes", _cache_file_bytes)),
    ("embeddings.EmbeddingCache.put", "embeddings", "EmbeddingCache.put", None),
    ("embeddings.HttpSource.embed", "embeddings", "HttpSource.embed",
     ("rows", "count", _arg_len("texts"))),
)

# Metrics no wrapper produces: the workload counts stub_server.requests, and
# cache_hit_ratio is derived in `layer_metrics`.
EXTRA_METRICS = (
    ("embeddings.cache_hit_ratio", "ratio", "higher"),
    ("stub_server.requests", "count", "lower"),
)


def metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = []
    for prefix, _, _, work in TARGETS:
        specs.append((f"{prefix}.calls", "count", "lower"))
        specs.append((f"{prefix}.self_s", "s", "lower"))
        if work is not None:
            specs.append((f"{prefix}.{work[0]}", work[1], "lower"))
    specs.extend(EXTRA_METRICS)
    return specs


def layer_metrics(totals: dict[str, float]) -> dict[str, float]:
    """Every per-layer metric from summed counts; absent counts read 0."""
    out = {name: totals.get(name, 0) for name, _, _ in metric_specs()}
    requested = totals.get("embeddings.get_or_embed.rows", 0)
    fetched = totals.get("embeddings.HttpSource.embed.rows", 0)
    out["embeddings.cache_hit_ratio"] = 1.0 - fetched / requested if requested else 0.0
    return out


class Tracer:
    """Records one span per wrapped call made on the main thread.

    A span is (id, parent id, root id, name, start, end, self time); the root
    id is the operation that caused it. Self time is the span's duration minus
    the time its child spans cover, so self times never sum past the wall time.
    """

    def __init__(self):
        self._thread = threading.get_ident()
        self._next_id = 0
        self._stack: list[list] = []  # [span id, root id, time covered by children]
        self._spans: list[tuple] = []
        self._patches: list[tuple] = []
        self.totals: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []

    def _enter(self) -> list:
        root = self._stack[0][0] if self._stack else self._next_id
        frame = [self._next_id, root, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, name: str, start: float, end: float) -> float:
        self._stack.pop()
        dur = end - start
        parent = None
        if self._stack:
            parent = self._stack[-1][0]
            self._stack[-1][2] += dur
        self_time = dur - frame[2]
        self._spans.append((frame[0], parent, frame[1], name, start, end, self_time))
        return self_time

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around one operation."""
        frame = self._enter()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._exit(frame, name, start, time.perf_counter())

    def count(self, name: str, amount: float) -> None:
        self.totals[name] += amount

    def spans(self) -> list[dict]:
        keys = ("id", "parent", "root", "name", "start", "end", "self_s")
        return [dict(zip(keys, s)) for s in sorted(self._spans)]

    def _wrap(self, prefix: str, orig, work):
        tracer = self
        sig = inspect.signature(orig) if work is not None else None

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if threading.get_ident() != tracer._thread:
                return orig(*args, **kwargs)
            frame = tracer._enter()
            start = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                self_time = tracer._exit(frame, prefix, start, time.perf_counter())
                tracer.totals[prefix + ".calls"] += 1
                tracer.totals[prefix + ".self_s"] += self_time
            if work is not None:
                quantity, _, fn = work
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                tracer.totals[f"{prefix}.{quantity}"] += fn(bound.arguments, result)
            return result

        return wrapper

    def install(self, package: str = "gclbench") -> None:
        """Wrap every target; a target the package no longer has goes to `missing`."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        self.missing = []
        for prefix, module, path, work in TARGETS:
            owner = sys.modules.get(f"{package}.{module}")
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part, None)
            if owner is None or attr not in vars(owner):
                self.missing.append(prefix)
                continue
            orig = vars(owner)[attr]
            wrapper = self._wrap(prefix, orig, work)
            if inspect.isclass(owner):
                self._patches.append((owner, attr, orig))
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patches.append((mod, key, orig))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches = []
