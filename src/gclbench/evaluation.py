"""Accuracy matrices, summary metrics, leakage diagnostics, and reports.

Local testing fills a full lower triangle A[i][j] (task j evaluated after
session i); global testing records one cumulative-task accuracy per session,
so its rows are singletons. AF deliberately divides by the session count n,
not n-1.
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import LEAKAGE_K_GRID, ConfigError, _reject_constant, resolve_point
from .sessions import GLOBAL, LOCAL, EvalTask, SessionPlan


@dataclass
class AccuracyMatrix:
    mode: str
    rows: list[list[float]] = field(default_factory=list)

    @property
    def n(self) -> int:
        return len(self.rows)

    def add_row(self, row) -> None:
        row = [float(x) for x in row]
        if any(not (0.0 <= x <= 1.0) for x in row):
            raise ValueError("accuracy entries must lie in [0, 1]")
        expected = len(self.rows) + 1 if self.mode == LOCAL else 1
        if len(row) != expected:
            raise ValueError(f"row {self.n} must have {expected} entries, got {len(row)}")
        self.rows.append(row)

    def stage_accuracies(self) -> list[float]:
        """One accuracy per training stage: row mean (local) or the row (global)."""
        if self.mode == LOCAL:
            return [float(np.mean(r)) for r in self.rows]
        return [r[0] for r in self.rows]

    def to_dict(self) -> dict:
        return {"mode": self.mode, "rows": [list(r) for r in self.rows]}

    @staticmethod
    def from_dict(doc: dict) -> "AccuracyMatrix":
        m = AccuracyMatrix(mode=doc["mode"])
        for row in doc["rows"]:
            m.add_row(row)
        return m


def evaluate(predictor, task: EvalTask) -> float:
    """Fraction of eval nodes the predictor labels correctly.

    The predictor maps an EvalTask to one class id per eval node and must
    stay inside the task's cumulative class set.
    """
    if len(task.eval_nodes) == 0:
        raise ValueError("eval task has no nodes")
    preds = np.asarray(predictor(task), dtype=np.int64)
    if preds.shape != (len(task.eval_nodes),):
        raise ValueError("predictor must return one class id per eval node")
    allowed = set(task.class_ids)
    bad = [int(p) for p in np.unique(preds) if int(p) not in allowed]
    if bad:
        raise ValueError(f"prediction outside cumulative class set: {bad}")
    truth = task.graph.labels[task.eval_nodes]
    return float(np.mean(preds == truth))


def lenient_accuracy(preds: np.ndarray, truth: np.ndarray) -> float:
    """Plain agreement rate; out-of-set predictions just count as wrong.

    Used for routed task-specific heads, whose misrouted predictions may
    fall outside a local task's class set by construction.
    """
    return float(np.mean(np.asarray(preds) == np.asarray(truth)))


def summarize(m: AccuracyMatrix) -> dict:
    """mean_acc / final_acc over stages, AA / AF over the final row.

    AA and AF need the full triangle, so they are None for global matrices.
    """
    if m.n < 1:
        raise ValueError("matrix needs at least one row")
    stages = m.stage_accuracies()
    out = {
        "mean_acc": float(np.mean(stages)),
        "final_acc": float(stages[-1]),
        "aa": None,
        "af": None,
    }
    if m.mode == LOCAL:
        n = m.n
        last = m.rows[-1]
        out["aa"] = float(np.sum(last) / n)
        out["af"] = float(sum(last[j] - m.rows[j][j] for j in range(n - 1)) / n)
    return out


# ---------------------------------------------------------------------------
# Task-ID leakage diagnostic
# ---------------------------------------------------------------------------


@dataclass
class LeakageReport:
    entries: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {"entries": self.entries}

    def table(self) -> str:
        header = f"{'weighting':>11} {'k':>4} {'task_id_acc':>12} {'AA':>8} {'AF':>8}"
        lines = [header, "-" * len(header)]
        for e in self.entries:
            lines.append(
                f"{e['weighting']:>11} {e['k']:>4d} {e['task_id_accuracy']:>12.3f} "
                f"{e['aa']:>8.3f} {e['af']:>8.3f}"
            )
        return "\n".join(lines)


def leakage_diagnostic(
    plan: SessionPlan,
    k_grid=LEAKAGE_K_GRID,
    config: dict | None = None,
) -> LeakageReport:
    """Probe how easily local testing reveals session identity.

    Each entry is the seed-0 local run of tpp_heads (laplacian weighting) or
    meanpool_tpp (plain-mean) at k_smooth=k, all in one walk, which trains
    each session head once: that run's AA / AF, and its task-ID accuracy, the
    share of local tasks j routed to session j after the last session. An
    empty or repeating k_grid, a config value, or a k that breaks its rule
    is a ConfigError before any training.
    """
    from .trainers import _RoutedHeads, walk  # circular at module level

    k_grid = tuple(k_grid)
    if not k_grid or any(k in k_grid[:i] for i, k in enumerate(k_grid)):
        raise ConfigError(f"k_grid takes one or more distinct integers >= 0, got {k_grid!r}")
    config = resolve_point(config)  # each k replaces its k_smooth, which is checked here
    runners = [_RoutedHeads(plan, {**config, "k_smooth": k}, 0, weighting)
               for weighting in ("laplacian", "plain-mean") for k in k_grid]
    matrices, _, tasks = walk(runners, LOCAL)
    report = LeakageReport()
    for runner, matrix in zip(runners, matrices):
        hits = [runner.route(task) == j for j, task in enumerate(tasks)]
        summ = summarize(matrix)
        report.entries.append({"weighting": runner.weighting, "k": runner.k,
                               "task_id_accuracy": float(np.mean(hits)),
                               "aa": summ["aa"], "af": summ["af"]})
    return report


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


class ResultsFormatError(ValueError):
    """Raised when a results file is not a list of run documents."""


def load_results(path) -> list[dict]:
    """Run documents of one results file, read as strict JSON (no NaN or Infinity
    literal); raises ResultsFormatError, naming the file and the record, where a
    field that a report reads is missing or malformed."""
    path = Path(path)
    try:
        docs = json.loads(path.read_text(encoding="utf-8"), parse_constant=_reject_constant)
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
        raise ResultsFormatError(f"{path}: not a JSON file ({exc})") from exc
    if not isinstance(docs, list):
        raise ResultsFormatError(f"{path}: expected a JSON list of run documents")
    for i, doc in enumerate(docs):
        try:
            _check_run_doc(doc)
        except (TypeError, ValueError, OverflowError) as exc:  # an integer too large for a float
            raise ResultsFormatError(f"{path}: record {i}: {exc}") from exc
    return docs


def _check_run_doc(doc) -> None:
    if not isinstance(doc, dict):
        raise ValueError("not an object")
    for key in ("run", "matrix", "summary"):
        if not isinstance(doc.get(key), dict):
            raise ValueError(f"missing or non-object {key!r}")
    run, matrix, summary = doc["run"], doc["matrix"], doc["summary"]
    if not (isinstance(run.get("method"), str) and isinstance(run.get("dataset"), str)
            and isinstance(run.get("grid_point", {}), dict)):
        raise ValueError("'run' needs string method and dataset, and an object grid_point if any")
    rows = matrix.get("rows")
    if (matrix.get("mode") not in (LOCAL, GLOBAL) or not isinstance(rows, list)
            or not all(isinstance(r, list) and all(type(x) in (int, float) for x in r)
                       for r in rows)):
        raise ValueError("'matrix' needs mode local or global and rows that are lists of numbers")
    # summarize raises on a malformed or empty matrix; true == 1.0, so a bool is refused apart
    want = summarize(AccuracyMatrix.from_dict(matrix))
    if summary != want or any(type(v) is bool for v in summary.values()):
        raise ValueError("'summary' is not the summary of its matrix")


def write_report(results: list[dict], path, format: str = "json") -> None:
    """Write merged run results.

    json: the canonical full record (list of run documents).
    csv:  flat (method, dataset, scenario, mode, eval_edges, seed, grid_point,
          session, metric, value) rows; grid_point is compact JSON, and a
          field a document lacks is left empty.
    md:   methods x datasets table of mean/final accuracy with fractional
          ranks (rank rule: mean over datasets and both metrics; ties share
          the average of their positions). Runs of one method and dataset
          that differ only in their seed share a cell: mean ± population std
          (n=runs); each mode, scenario, eval-edge policy and grid point of a
          method gets its own row.

    The file is replaced in one step (a temporary file beside it, then
    os.replace), so a reader sees the old file or the new one, never part.
    """
    if format == "json":
        text = json.dumps(results, indent=1, sort_keys=True)
    elif format == "csv":
        with io.StringIO(newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["method", "dataset", "scenario", "mode", "eval_edges", "seed",
                        "grid_point", "session", "metric", "value"])
            for doc in results:
                run = doc["run"]
                gp = run.get("grid_point")
                gp = "" if gp is None else json.dumps(gp, sort_keys=True, separators=(",", ":"))
                ident = [run["method"], run["dataset"], run.get("scenario", ""),
                         doc["matrix"]["mode"], run.get("eval_edges", ""), run.get("seed", ""), gp]
                matrix = AccuracyMatrix.from_dict(doc["matrix"])
                for i, acc in enumerate(matrix.stage_accuracies(), start=1):
                    w.writerow(ident + [i, "accuracy", f"{acc:.6f}"])
                for key in ("mean_acc", "final_acc", "aa", "af"):
                    val = doc["summary"].get(key)
                    w.writerow(ident + ["", key, "" if val is None else f"{val:.6f}"])
            text = fh.getvalue()
    elif format == "md":
        text = _markdown_table(results)
    else:
        raise ValueError(f"unknown report format {format!r}")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8", newline="")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _fractional_ranks(values: list[float]) -> np.ndarray:
    """Descending ranks; tied values share the mean of their positions.

    A value's tie group holds positions left+1..right of the ascending sort of
    the negated values, so its rank is (left + right + 1) / 2.
    """
    v = -np.asarray(values, dtype=np.float64)
    s = np.sort(v)
    return (np.searchsorted(s, v, "left") + np.searchsorted(s, v, "right") + 1) / 2


def _row_labels(docs: list[dict]) -> list[str]:
    """One row label per run of one method: the method id, plus each setting
    whose value differs between the method's runs: the mode (from the matrix),
    scenario, eval_edges or a grid_point key. Seeds share a label."""
    method = docs[0]["run"]["method"]
    points = [{**doc["run"].get("grid_point", {}), "mode": doc["matrix"]["mode"],
               **{k: doc["run"].get(k) for k in ("scenario", "eval_edges")}} for doc in docs]
    keys = sorted({k for p in points for k in p})
    varying = [k for k in keys if len({json.dumps(p.get(k)) for p in points}) > 1]
    if not varying:
        return [method] * len(docs)
    return [f"{method} ({', '.join(f'{k}={p.get(k)}' for k in varying)})" for p in points]


def _markdown_table(results: list[dict]) -> str:
    datasets = sorted({doc["run"]["dataset"] for doc in results})
    by_method: dict[str, list[dict]] = {}
    for doc in results:
        by_method.setdefault(doc["run"]["method"], []).append(doc)
    # (row label, dataset) -> (mean_acc, final_acc) of every run in the cell
    runs: dict[tuple[str, str], list[tuple[float, float]]] = {}
    labels: list[str] = []
    for m in sorted(by_method):
        method_labels = _row_labels(by_method[m])
        labels += sorted(set(method_labels))  # by label, whatever the input order
        for doc, label in zip(by_method[m], method_labels):
            runs.setdefault((label, doc["run"]["dataset"]), []).append(
                (doc["summary"]["mean_acc"], doc["summary"]["final_acc"]))
    cell = {key: np.mean(v, axis=0) for key, v in runs.items()}

    # Rank rows per dataset and metric on the means, then average (fractional ties).
    rank_sum = {r: 0.0 for r in labels}
    rank_cnt = {r: 0 for r in labels}
    for d in datasets:
        present = [r for r in labels if (r, d) in cell]
        for metric in (0, 1):
            vals = [cell[(r, d)][metric] for r in present]
            for r, rank in zip(present, _fractional_ranks(vals)):
                rank_sum[r] += rank
                rank_cnt[r] += 1

    header = ["Method"]
    for d in datasets:
        header += [f"{d} mean", f"{d} final"]
    header.append("Rank")
    lines = ["| " + " | ".join(header) + " |",
             "|" + "---|" * len(header)]
    for r in labels:
        row = [r]
        for d in datasets:
            v = runs.get((r, d))
            if v is None:
                row += ["-", "-"]
            elif len(v) == 1:
                row += [f"{100 * x:.1f}" for x in v[0]]
            else:
                std = np.std(v, axis=0)
                row += [f"{100 * mu:.1f} ± {100 * sd:.1f} (n={len(v)})"
                        for mu, sd in zip(cell[(r, d)], std)]
        row.append(f"{rank_sum[r] / rank_cnt[r]:.1f}")
        lines.append("| " + " | ".join(row) + " |")
    lines.append("")
    lines.append("Rank rule: mean of per-dataset fractional ranks over both metrics "
                 "(ties share averaged positions). Accuracies are percentages "
                 "rounded to one decimal.")
    if any(len(v) > 1 for v in runs.values()):
        lines.append("A cell over several runs shows their mean ± population std "
                     "(n = runs); ranks use the means.")
    return "\n".join(lines) + "\n"
