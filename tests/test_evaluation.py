import csv
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gclbench.config import resolve_point
from gclbench.evaluation import (
    AccuracyMatrix,
    _fractional_ranks,
    evaluate,
    leakage_diagnostic,
    lenient_accuracy,
    summarize,
    write_report,
)
from gclbench.prototypes import task_prototype
from gclbench.sessions import build_eval_task, plan_ncil
from gclbench.synth import SynthConfig, synth_tag
from gclbench.trainers import _fit_head, run_method

from oracles import fractional_ranks_loop, routed_head_triangle, summarize_direct


# ------------------------------------------------------------------- evaluate


def test_evaluate_oracle_predictor(testkit_plan):
    task = build_eval_task(testkit_plan, 2, "global")

    def oracle(t):
        return t.graph.labels[t.eval_nodes]

    assert evaluate(oracle, task) == 1.0


def test_evaluate_constant_predictor_balanced(testkit_plan):
    task = build_eval_task(testkit_plan, 1, "local")
    cls = task.class_ids[0]

    def constant(t):
        return np.full(len(t.eval_nodes), cls)

    assert evaluate(constant, task) == 0.5  # two balanced classes


def test_evaluate_majority_class_proportions():
    # proportions (.5, .3, .2); majority-class predictor scores 0.5
    from gclbench.graph import make_graph
    from gclbench.sessions import EvalTask

    labels = np.array([0] * 5 + [1] * 3 + [2] * 2)
    g = make_graph(np.zeros((10, 2), np.float32), [f"t{i}" for i in range(10)],
                   labels, ["a", "b", "c"], np.zeros((0, 2), np.int64))
    task = EvalTask(1, g, np.arange(10), np.arange(10), (0, 1, 2))
    counts = np.bincount(labels)
    majority = int(np.argmax(counts))

    def predictor(t):
        return np.full(len(t.eval_nodes), majority)

    assert evaluate(predictor, task) == 0.5


def test_evaluate_permutation_invariant(testkit_plan):
    task = build_eval_task(testkit_plan, 2, "global")
    rng = np.random.default_rng(0)
    fixed = rng.choice(list(task.class_ids), size=len(task.eval_nodes))
    by_node = {int(n): int(c) for n, c in zip(task.eval_nodes, fixed)}

    def predictor(t):
        return np.array([by_node[int(n)] for n in t.eval_nodes])

    base = evaluate(predictor, task)
    perm = rng.permutation(len(task.eval_nodes))
    from dataclasses import replace

    shuffled = replace(task, eval_nodes=task.eval_nodes[perm])
    assert evaluate(predictor, shuffled) == base


def test_evaluate_rejects_out_of_set_prediction(testkit_plan):
    task = build_eval_task(testkit_plan, 1, "local")
    outside = [c for c in range(len(testkit_plan.graph.class_names))
               if c not in task.class_ids][0]

    def bad(t):
        return np.full(len(t.eval_nodes), outside)

    with pytest.raises(ValueError, match="outside cumulative class set"):
        evaluate(bad, task)


def test_evaluate_empty_task_rejected(testkit_plan):
    from dataclasses import replace

    task = build_eval_task(testkit_plan, 1, "local")
    empty = replace(task, eval_nodes=np.zeros(0, np.int64))
    with pytest.raises(ValueError, match="no nodes"):
        evaluate(lambda t: np.zeros(0), empty)


def test_lenient_accuracy_counts_outside_as_wrong():
    truth = np.array([1, 1, 2])
    preds = np.array([1, 99, 2])
    assert lenient_accuracy(preds, truth) == pytest.approx(2 / 3)


# ------------------------------------------------------------------- summarize


def test_summarize_worked_example():
    m = AccuracyMatrix(mode="local")
    m.add_row([0.9])
    m.add_row([0.8, 0.7])
    s = summarize(m)
    assert s["aa"] == pytest.approx(0.75, abs=1e-15)
    assert s["af"] == pytest.approx(-0.05, abs=1e-15)


def test_summarize_single_session_af_zero():
    m = AccuracyMatrix(mode="local")
    m.add_row([0.8])
    s = summarize(m)
    assert s["af"] == 0.0
    assert s["aa"] == 0.8


def test_summarize_global_stage_accuracies():
    m = AccuracyMatrix(mode="global")
    m.add_row([0.6])
    m.add_row([0.4])
    s = summarize(m)
    assert s["mean_acc"] == pytest.approx(0.5)
    assert s["final_acc"] == pytest.approx(0.4)
    assert s["aa"] is None and s["af"] is None


def test_summarize_constant_matrix():
    m = AccuracyMatrix(mode="local")
    for i in range(4):
        m.add_row([0.37] * (i + 1))
    s = summarize(m)
    assert s["mean_acc"] == pytest.approx(0.37)
    assert s["final_acc"] == pytest.approx(0.37)
    assert s["aa"] == pytest.approx(0.37)
    assert s["af"] == pytest.approx(0.0, abs=1e-15)


def test_summarize_af_nonpositive_when_final_row_dominated():
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        diag = rng.uniform(0.5, 1.0, n)
        m = AccuracyMatrix(mode="local")
        for i in range(n):
            row = list(rng.uniform(0, 1, i + 1))
            row[i] = diag[i]
            if i == n - 1:
                row = [min(diag[j], rng.uniform(0, diag[j])) for j in range(n - 1)] + [diag[-1]]
            m.add_row(row)
        assert summarize(m)["af"] <= 0.0


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_summarize_matches_direct_formula(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 8))
    rows = [list(rng.uniform(0, 1, i + 1)) for i in range(n)]
    m = AccuracyMatrix(mode="local")
    for r in rows:
        m.add_row(r)
    mine = summarize(m)
    direct = summarize_direct(rows)
    for key in ("mean_acc", "final_acc", "aa", "af"):
        assert abs(mine[key] - direct[key]) <= 1e-12


def test_matrix_shape_validation():
    m = AccuracyMatrix(mode="local")
    m.add_row([0.5])
    with pytest.raises(ValueError, match="entries"):
        m.add_row([0.5, 0.5, 0.5])
    with pytest.raises(ValueError, match="lie in"):
        m.add_row([0.5, 1.5])
    g = AccuracyMatrix(mode="global")
    g.add_row([0.5])
    with pytest.raises(ValueError, match="entries"):
        g.add_row([0.5, 0.5])


def test_matrix_round_trip():
    m = AccuracyMatrix(mode="local")
    m.add_row([0.9])
    m.add_row([0.8, 0.7])
    again = AccuracyMatrix.from_dict(m.to_dict())
    assert again.rows == m.rows and again.mode == m.mode


# ---------------------------------------------------------- leakage diagnostic


CFG = {"epochs": 150, "lr": 1e-2, "hidden_dim": 32}


def test_leakage_separable_plan_flawless(testkit_plan):
    report = leakage_diagnostic(testkit_plan, k_grid=(2, 8), config=CFG)
    assert len(report.entries) == 4  # 2 weightings x 2 depths
    for e in report.entries:
        assert e["task_id_accuracy"] == 1.0
        assert e["af"] == 0.0
    table = report.table()
    assert "laplacian" in table and "plain-mean" in table


def test_leakage_single_session_trivial(testkit_graph):
    plan = plan_ncil(testkit_graph, 2, 1, 30, seed=3)
    report = leakage_diagnostic(plan, k_grid=(1,), config=CFG)
    for e in report.entries:
        assert e["task_id_accuracy"] == 1.0


def test_leakage_identical_distributions_plain_mean_near_chance():
    # 3 indistinguishable sessions: plain-mean routing collapses toward 1/3
    rates = []
    for seed in range(10):
        g = synth_tag(SynthConfig(num_classes=6, nodes_per_class=14, feature_dim=8,
                                  class_sep=0.0, intra_p=0.3, inter_p=0.3,
                                  seed=2000 + seed))
        plan = plan_ncil(g, 2, 3, 7, seed=seed)
        report = leakage_diagnostic(plan, k_grid=(1,),
                                    config={"epochs": 5, "lr": 1e-2, "hidden_dim": 8})
        rates.extend(e["task_id_accuracy"] for e in report.entries
                     if e["weighting"] == "plain-mean")
    mean_rate = float(np.mean(rates))
    assert 1 / 6 <= mean_rate <= 4 / 6  # ~1/3 under the null


def test_leakage_aa_af_match_per_cell_routing_oracle():
    # indistinguishable sessions, so plain-mean routing errs
    cfg = {"epochs": 20, "lr": 1e-2, "hidden_dim": 8}
    misrouted = 0
    for seed in range(4):
        g = synth_tag(SynthConfig(num_classes=6, nodes_per_class=20 + 5 * seed, feature_dim=8,
                                  class_sep=0.0, intra_p=0.3, inter_p=0.3, seed=3000 + seed))
        plan = plan_ncil(g, 2, 3, 7, seed=seed)
        heads = [_fit_head(plan, i, resolve_point(cfg), 0) for i in range(plan.num_sessions)]
        report = leakage_diagnostic(plan, k_grid=(0, 1, 4), config=cfg)
        for e in report.entries:
            rows = routed_head_triangle(plan, heads, task_prototype, e["k"], e["weighting"])
            want = summarize_direct(rows)
            assert e["aa"] == pytest.approx(want["aa"], abs=1e-12)
            assert e["af"] == pytest.approx(want["af"], abs=1e-12)
            misrouted += e["task_id_accuracy"] < 1.0
    assert misrouted > 0


def test_leakage_entries_equal_the_routed_methods_run_locally():
    # Each probe entry is the local run of the routed method with the same
    # weighting and depth: tpp_heads routes on laplacian smoothing,
    # meanpool_tpp on plain-mean, both with heads at seed 0.
    cfg = {"epochs": 20, "lr": 1e-2, "hidden_dim": 8}
    method_of = {"laplacian": "tpp_heads", "plain-mean": "meanpool_tpp"}
    misrouted = 0
    for i, sep in enumerate((0.0, 0.5, 1.0)):
        g = synth_tag(SynthConfig(num_classes=6, nodes_per_class=24, feature_dim=8,
                                  class_sep=sep, intra_p=0.3, inter_p=0.3, seed=4000 + i))
        plan = plan_ncil(g, 2, 3, 7, seed=i)
        report = leakage_diagnostic(plan, k_grid=(0, 1, 4), config=cfg)
        assert len(report.entries) == 6
        for e in report.entries:
            run = run_method(method_of[e["weighting"]], plan, {**cfg, "k_smooth": e["k"]},
                             mode="local", seed=0)
            assert (e["aa"], e["af"]) == (run.summary["aa"], run.summary["af"]), e
            misrouted += e["task_id_accuracy"] < 1.0
    assert misrouted > 0


# -------------------------------------------------------------------- reports


def _dummy_result(method="gcn", dataset="synth", mode="global"):
    m = AccuracyMatrix(mode=mode)
    if mode == "global":
        for acc in (0.9, 0.6, 0.5):
            m.add_row([acc])
    else:
        m.add_row([0.9])
        m.add_row([0.8, 0.7])
        m.add_row([0.7, 0.6, 0.5])
    return {
        "run": {"method": method, "dataset": dataset, "scenario": "ncil",
                "mode": mode, "seed": 0, "config_hash": "x" * 16,
                "session_seconds": [0.1, 0.1, 0.1]},
        "matrix": m.to_dict(),
        "summary": summarize(m),
    }


def test_report_json_round_trip(tmp_path):
    results = [_dummy_result()]
    write_report(results, tmp_path / "r.json", "json")
    loaded = json.loads((tmp_path / "r.json").read_text())
    assert loaded == results


def test_report_csv_row_counts(tmp_path):
    write_report([_dummy_result()], tmp_path / "r.csv", "csv")
    with open(tmp_path / "r.csv") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    assert header == ["method", "dataset", "scenario", "mode", "eval_edges", "seed",
                      "grid_point", "session", "metric", "value"]
    acc_rows = [r for r in body if r[8] == "accuracy"]
    summary_rows = [r for r in body if r[8] != "accuracy"]
    assert len(acc_rows) == 3
    assert len(summary_rows) == 4
    assert {r[8] for r in summary_rows} == {"mean_acc", "final_acc", "aa", "af"}


def test_report_csv_names_each_runs_settings(tmp_path):
    # A document without eval_edges or grid_point (written before either
    # existed) leaves those columns empty.
    old = _dummy_result("gcn", "ds1", mode="local")
    new = _dummy_result("gcn", "ds1")
    new["run"].update(eval_edges="full_union", seed=3, grid_point={"lr": 0.1, "epochs": 5})
    write_report([old, new], tmp_path / "r.csv", "csv")
    with open(tmp_path / "r.csv") as fh:
        body = list(csv.reader(fh))[1:]
    assert {tuple(r[:7]) for r in body} == {
        ("gcn", "ds1", "ncil", "local", "", "0", ""),
        ("gcn", "ds1", "ncil", "global", "full_union", "3", '{"epochs":5,"lr":0.1}'),
    }
    assert len(body) == 2 * (3 + 4)


def test_report_md_column_count(tmp_path):
    results = [
        _dummy_result("gcn", "ds1"), _dummy_result("cosine", "ds1"),
        _dummy_result("gcn", "ds2"), _dummy_result("cosine", "ds2"),
    ]
    write_report(results, tmp_path / "r.md", "md")
    lines = (tmp_path / "r.md").read_text().splitlines()
    header_cells = [c for c in lines[0].split("|") if c.strip()]
    assert len(header_cells) == 2 * 2 + 2  # method + 2 per dataset + rank
    assert "Rank rule" in lines[-1]


def test_report_md_fractional_tie_ranks(tmp_path):
    a = _dummy_result("gcn", "ds1")
    b = _dummy_result("cosine", "ds1")  # identical numbers -> tied ranks
    write_report([a, b], tmp_path / "r.md", "md")
    text = (tmp_path / "r.md").read_text()
    for line in text.splitlines():
        if line.startswith("| cosine") or line.startswith("| gcn"):
            assert line.rstrip("| ").endswith("1.5")


def test_report_unknown_format(tmp_path):
    with pytest.raises(ValueError, match="unknown report format"):
        write_report([], tmp_path / "x", "xml")


def _final_only(method, acc, dataset="ds1", seed=0, grid_point=None):
    doc = _dummy_result(method, dataset)
    m = AccuracyMatrix(mode="global")
    m.add_row([acc])
    doc["matrix"], doc["summary"] = m.to_dict(), summarize(m)
    doc["run"]["seed"] = seed
    if grid_point is not None:
        doc["run"]["grid_point"] = grid_point
    return doc


def test_report_md_averages_seeds(tmp_path):
    results = [_final_only("gcn", 0.2, seed=0), _final_only("gcn", 0.8, seed=1),
               _final_only("cosine", 0.6)]
    write_report(results, tmp_path / "r.md", "md")
    lines = (tmp_path / "r.md").read_text().splitlines()
    assert lines[2] == "| cosine | 60.0 | 60.0 | 1.0 |"
    assert lines[3] == "| gcn | 50.0 ± 30.0 (n=2) | 50.0 ± 30.0 (n=2) | 2.0 |"
    assert "population std" in lines[-1]


def test_report_md_grid_points_get_own_rows(tmp_path):
    results = [
        _final_only("gcn", 0.2, grid_point={"epochs": 5, "lr": 0.01}),
        _final_only("gcn", 0.9, grid_point={"epochs": 5, "lr": 0.1}),
        _final_only("gcn", 0.4, seed=1, grid_point={"epochs": 5, "lr": 0.01}),
        _final_only("ewc", 0.5, grid_point={"epochs": 5, "lr": 0.01}),
    ]
    write_report(results, tmp_path / "r.md", "md")
    lines = (tmp_path / "r.md").read_text().splitlines()
    assert lines[2:5] == [
        "| ewc | 50.0 | 50.0 | 2.0 |",
        "| gcn (lr=0.01) | 30.0 ± 10.0 (n=2) | 30.0 ± 10.0 (n=2) | 3.0 |",
        "| gcn (lr=0.1) | 90.0 | 90.0 | 1.0 |",
    ]


def test_report_md_splits_runs_by_mode_scenario_and_eval_edges(tmp_path):
    # Before, a method's local and global runs were averaged into one cell
    # as if they were two seeds.
    local, glob = _final_only("gcn", 0.994), _final_only("gcn", 0.672, seed=1)
    local["matrix"]["mode"] = "local"
    write_report([local, glob], tmp_path / "r.md", "md")
    lines = (tmp_path / "r.md").read_text().splitlines()
    assert lines[2:4] == ["| gcn (mode=global) | 67.2 | 67.2 | 2.0 |",
                          "| gcn (mode=local) | 99.4 | 99.4 | 1.0 |"]
    assert len(lines) == 6  # header, rule, two rows, blank, rank rule

    full, fsncil = _final_only("gcn", 0.5), _final_only("gcn", 0.6)
    full["run"]["eval_edges"] = "full_union"
    glob["run"]["eval_edges"] = fsncil["run"]["eval_edges"] = "intra_only"
    fsncil["run"]["scenario"] = "fsncil"
    write_report([glob, full, fsncil], tmp_path / "r.md", "md")
    lines = (tmp_path / "r.md").read_text().splitlines()
    assert [line.split(" |")[0] for line in lines[2:5]] == [
        "| gcn (eval_edges=full_union, scenario=ncil)",
        "| gcn (eval_edges=intra_only, scenario=fsncil)",
        "| gcn (eval_edges=intra_only, scenario=ncil)",
    ]


_REPORT_RUNS = st.lists(
    st.tuples(st.sampled_from(["gcn", "ewc", "cosine"]), st.sampled_from(["ds1", "ds2"]),
              st.floats(0, 1), st.floats(0, 1), st.sampled_from([0.1, 0.01]),
              st.sampled_from(["local", "global"])),
    min_size=1, max_size=12)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0, 1), max_size=30))
def test_fractional_ranks_match_loop_oracle(values):
    assert list(_fractional_ranks(values)) == fractional_ranks_loop(values)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(runs=_REPORT_RUNS, data=st.data())
def test_report_md_cells_and_ranks_match_numpy_in_any_order(tmp_path_factory, runs, data):
    docs = []
    for seed, (method, dataset, first, last, lr, mode) in enumerate(runs):
        doc = _final_only(method, first, dataset, seed, grid_point={"epochs": 5, "lr": lr})
        m = AccuracyMatrix(mode=mode)
        m.add_row([first])
        m.add_row([last] if mode == "global" else [first, last])
        doc["matrix"], doc["summary"] = m.to_dict(), summarize(m)
        docs.append(doc)
    out = tmp_path_factory.mktemp("md")
    write_report(docs, out / "a.md", "md")
    write_report(data.draw(st.permutations(docs)), out / "b.md", "md")
    text = (out / "a.md").read_bytes()
    assert (out / "b.md").read_bytes() == text

    # A method's runs split into one row per lr and mode only where its
    # values of that key differ.
    seen = {}
    for method, _, _, _, lr, mode in runs:
        seen.setdefault(method, {"lr": set(), "mode": set()})
        seen[method]["lr"].add(lr)
        seen[method]["mode"].add(mode)
    cells = {}
    for doc in docs:
        method = doc["run"]["method"]
        values = {"lr": doc["run"]["grid_point"]["lr"], "mode": doc["matrix"]["mode"]}
        varying = [f"{k}={v}" for k, v in values.items() if len(seen[method][k]) > 1]
        row = (method, f"{method} ({', '.join(varying)})" if varying else method)
        cells.setdefault((row, doc["run"]["dataset"]), []).append(
            (doc["summary"]["mean_acc"], doc["summary"]["final_acc"]))
    datasets = sorted({d for _, d in cells})
    rows = sorted({r for r, _ in cells})  # methods in order, then each method's labels
    ranks = {r: [] for r in rows}
    for d in datasets:
        present = [r for r in rows if (r, d) in cells]
        for metric in (0, 1):
            means = [float(np.mean(cells[(r, d)], axis=0)[metric]) for r in present]
            for r, rank in zip(present, fractional_ranks_loop(means)):
                ranks[r].append(rank)
    lines = text.decode("utf-8").splitlines()
    assert len(lines) >= 2 + len(rows)
    for r, line in zip(rows, lines[2:]):
        expect = [r[1]]
        for d in datasets:
            v = cells.get((r, d))
            if v is None:
                expect += ["-", "-"]
            elif len(v) == 1:
                expect += [f"{100 * x:.1f}" for x in v[0]]
            else:
                mu, sd = np.mean(v, axis=0), np.std(v, axis=0)
                expect += [f"{100 * a:.1f} ± {100 * b:.1f} (n={len(v)})" for a, b in zip(mu, sd)]
        expect.append(f"{np.mean(ranks[r]):.1f}")
        assert line == "| " + " | ".join(expect) + " |"


# ------------------------------------------------- results files: one mutation


# Half of the values are near a rule's edge: NaN and infinities (not strict
# JSON), an integer too large for a float, a bool or string for a number.
_JSON = st.sampled_from([math.nan, math.inf, -math.inf, 10**400, True, False, None, "0.5", 0,
                         1, 0.5, -0.0, [], {}]) | st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                 max_size=3),
    max_leaves=4)


def _valid_results(data) -> list[dict]:
    """One to three run documents that differ in method and seed, so that no
    one mutation makes two of them equal."""
    docs = []
    for i in range(data.draw(st.integers(1, 3))):
        mode = data.draw(st.sampled_from(["local", "global"]))
        m = AccuracyMatrix(mode=mode)
        for r in range(data.draw(st.integers(1, 3))):
            n = r + 1 if mode == "local" else 1
            m.add_row(data.draw(st.lists(st.floats(0, 1), min_size=n, max_size=n)))
        doc = _dummy_result(f"m{i}", "ds")
        doc["run"]["seed"] = i
        if data.draw(st.booleans()):
            doc["run"]["grid_point"] = {"lr": 0.01, "epochs": 5}
        doc["matrix"], doc["summary"] = m.to_dict(), summarize(m)
        docs.append(doc)
    return docs


def _paths(value, at=()):
    """Every path of keys and indexes into a JSON value, the value's own first."""
    yield at
    if isinstance(value, (dict, list)):
        for key, child in value.items() if isinstance(value, dict) else enumerate(value):
            yield from _paths(child, at + (key,))


def _mutated(docs, data) -> bytes:
    """The file of `docs` with one byte replaced, deleted or inserted, or one
    value replaced or deleted; the place is drawn uniformly."""
    rng = data.draw(st.randoms(use_true_random=False))
    how = data.draw(st.sampled_from(["value", "delete", "byte"]))
    if how == "byte":
        text = json.dumps(docs, indent=1, sort_keys=True).encode()
        at, new = rng.randrange(len(text)), bytes([rng.randrange(256)])
        return text[:at] + rng.choice([new, b"", new + text[at:at + 1]]) + text[at + 1:]
    path = rng.choice([p for p in _paths(docs) if p])
    parent = docs
    for key in path[:-1]:
        parent = parent[key]
    if how == "delete" and isinstance(parent, dict):
        del parent[path[-1]]
    else:
        parent[path[-1]] = data.draw(_JSON)
    return json.dumps(docs, indent=1, sort_keys=True).encode()  # NaN and inf as literals


@settings(max_examples=400, deadline=None, derandomize=True)
@given(data=st.data())
def test_a_mutated_results_file_loads_as_the_strict_parser_reads_it_or_fails_in_one_line(
        tmp_path_factory, data):
    # One field or byte of a valid results file changed: load_results returns
    # what the strict reference parser returns, or raises ResultsFormatError
    # where that parser rejects the file; `gclbench report` then gives one
    # `error:` line and exit status 1, and a file it accepts is reported.
    from click.testing import CliRunner

    from gclbench.cli import main
    from gclbench.evaluation import ResultsFormatError, load_results
    from oracles import results_strict

    blob = _mutated(_valid_results(data), data)
    out = tmp_path_factory.mktemp("results")
    path = out / "results.json"
    path.write_bytes(blob)
    try:
        got = load_results(path)
    except ResultsFormatError:
        got = None
    assert got == results_strict(blob)
    result = CliRunner().invoke(main, ["report", "--results", str(path),
                                       "--out", str(out / "report.md")])
    if got is None:
        assert result.exit_code == 1
        assert len(result.output.splitlines()) == 1 and result.output.startswith("error: ")
    else:
        assert result.exit_code == 0, result.output
