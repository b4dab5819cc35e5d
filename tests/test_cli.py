import json
import logging
import re
import socket
import struct

import pytest
from click.testing import CliRunner

from gclbench.cli import main
from gclbench.config import (CONFIG_SCHEMA, DEFAULT_PLAN_FSNCIL, DEFAULT_PLAN_NCIL, PLAN_DEFAULTS,
                             _GRID_ITEMS)
from gclbench.graph import FEATURES_MAGIC, load_tag, save_tag
from gclbench.sessions import FSNCIL, NCIL
from gclbench.stub_server import StubEmbeddingServer
from gclbench.synth import SynthConfig, synth_tag


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def dataset_dir(tmp_path):
    # large enough for the CLI's default 100-shot NCIL plan
    g = synth_tag(SynthConfig(num_classes=6, nodes_per_class=130, feature_dim=8,
                              class_sep=3.0, intra_p=0.08, seed=2))
    d = tmp_path / "data"
    save_tag(g, d)
    return d


@pytest.fixture()
def config_file(tmp_path, dataset_dir):
    doc = {
        "version": 1,
        "dataset": str(dataset_dir),
        "dataset_name": "synth",
        "scenario": "ncil",
        "mode": "global",
        "methods": ["cosine"],
        "seeds": [0],
        "plan": {"classes_per_session": 2, "num_sessions": 3, "shots": 20, "test_cap": 100},
        "hyperparameters": {"epochs": 120, "lr": 0.01, "hidden_dim": 32},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def test_help_exits_zero_and_documents_flags(runner):
    result = runner.invoke(main, ["--help"])
    assert result.exit_code == 0
    for sub in ("plan", "run", "prompts", "diagnose-leakage", "report", "synth"):
        assert sub in result.output
    run_help = runner.invoke(main, ["run", "--help"])
    assert run_help.exit_code == 0
    for flag in ("--config", "--dataset", "--scenario", "--mode", "--method",
                 "--seed", "--out", "--eval-edges"):
        assert flag in run_help.output


def test_synth_writes_dataset(runner, tmp_path):
    out = tmp_path / "ds"
    result = runner.invoke(main, ["synth", "--out", str(out), "--classes", "4",
                                  "--nodes-per-class", "10", "--feature-dim", "6"])
    assert result.exit_code == 0, result.output
    g = load_tag(out)
    assert g.node_count == 40


def test_plan_digest_reproducible(runner, dataset_dir):
    args = ["plan", "--dataset", str(dataset_dir), "--scenario", "ncil", "--seed", "7"]
    a = runner.invoke(main, args)
    b = runner.invoke(main, args)
    assert a.exit_code == 0, a.output
    assert a.output == b.output
    assert "session 1:" in a.output


def test_plan_writes_files(runner, dataset_dir, tmp_path):
    out = tmp_path / "planout"
    result = runner.invoke(main, [
        "plan", "--dataset", str(dataset_dir), "--scenario", "ncil",
        "--seed", "3", "--out", str(out),
    ])
    assert result.exit_code == 0, result.output
    assert sorted(p.name for p in out.iterdir()) == ["plan.digest"]
    assert (out / "plan.digest").read_text() == result.output


@pytest.mark.parametrize("classes", ["0", "-2"])
def test_synth_without_classes_fails_in_one_line(runner, tmp_path, classes):
    out = tmp_path / "data"
    result = runner.invoke(main, ["synth", "--out", str(out), "--classes", classes])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output.splitlines() == ["error: num_classes must be >= 1"]
    assert not out.exists()


def test_plan_default_shots_too_large_fails_cleanly(runner, tmp_path):
    # default NCIL shots=100 exceed these 20-node classes -> one-line error
    small = tmp_path / "small"
    save_tag(synth_tag(SynthConfig(num_classes=6, nodes_per_class=20,
                                   feature_dim=8, seed=3)), small)
    result = runner.invoke(main, ["plan", "--dataset", str(small)])
    assert result.exit_code == 1
    assert "error:" in result.output


def test_run_with_config(runner, config_file, tmp_path):
    out = tmp_path / "runout"
    result = runner.invoke(main, [
        "run", "--config", str(config_file), "--method", "cosine",
        "--mode", "global", "--out", str(out),
    ])
    assert result.exit_code == 0, result.output
    docs = json.loads((out / "results.json").read_text())
    assert len(docs) == 1
    summary = docs[0]["summary"]
    assert summary["mean_acc"] is not None and summary["final_acc"] is not None
    assert docs[0]["run"]["method"] == "cosine"


def test_run_unknown_method_lists_valid_ids(runner, config_file, tmp_path):
    result = runner.invoke(main, [
        "run", "--config", str(config_file), "--method", "not_a_method",
        "--out", str(tmp_path / "x"),
    ])
    assert result.exit_code != 0
    assert "not_a_method" in result.output
    assert "cosine" in result.output and "gcn" in result.output


def test_run_of_several_methods_fails_before_any_fit_when_a_runner_cannot_be_built(
        runner, tmp_path, dataset_dir, monkeypatch):
    # simplecil has no provider. Each method used to run its own walk, so gcn
    # and ewc trained both sessions (4 train_session calls) before the error.
    from gclbench import trainers

    trained = []
    fit = trainers.train_session
    monkeypatch.setattr(trainers, "train_session",
                        lambda *a, **k: trained.append(a) or fit(*a, **k))
    result = _run_config(runner, tmp_path, dataset_dir, {"epochs": 2},
                         extra=["--method", "gcn", "--method", "ewc", "--method", "simplecil"])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output.splitlines() == [
        "error: embedding-based method needs a provider config"]
    assert trained == []
    assert not (tmp_path / "o" / "results.json").exists()


def test_run_writes_and_echoes_the_methods_in_flag_order(runner, tmp_path, dataset_dir):
    methods = ["tpp_heads", "gcn", "cosine"]
    result = _run_config(runner, tmp_path, dataset_dir, {"epochs": 2},
                         extra=[a for m in methods for a in ("--method", m)])
    assert result.exit_code == 0, result.output
    docs = json.loads((tmp_path / "o" / "results.json").read_text())
    assert [d["run"]["method"] for d in docs] == methods
    assert [line.split(" ")[0] for line in result.output.splitlines()[:-1]] == methods


def test_a_failed_walk_keeps_the_runs_of_the_walks_before_it(runner, tmp_path, dataset_dir,
                                                           monkeypatch):
    # Before, results.json was written once, after the last walk, so an error
    # in the second seed's walk left nothing on disk.
    from gclbench import cli
    from gclbench.evaluation import load_results
    from gclbench.trainers import TrainingError

    walks, real = [], cli.run_methods

    def second_walk_fails(*args, **kwargs):
        walks.append(kwargs["seed"])
        if len(walks) == 2:
            raise TrainingError("provider gone")
        return real(*args, **kwargs)

    args = ["--method", "gcn", "--method", "cosine", "--seed", "0", "--seed", "1"]
    (tmp_path / "whole").mkdir()
    whole = _run_config(runner, tmp_path / "whole", dataset_dir, {"epochs": 2}, extra=args)
    assert whole.exit_code == 0, whole.output
    monkeypatch.setattr(cli, "run_methods", second_walk_fails)
    result = _run_config(runner, tmp_path, dataset_dir, {"epochs": 2}, extra=args)
    path = tmp_path / "o" / "results.json"
    assert result.exit_code == 1 and walks == [0, 1]
    assert result.output.splitlines()[2:] == [
        f"error: provider gone; kept 2 finished run(s) in {path}"]
    kept = load_results(path)
    first_walk = load_results(tmp_path / "whole" / "o" / "results.json")[:2]
    for doc in kept + first_walk:
        del doc["run"]["session_seconds"]
    assert kept == first_walk
    assert [p.name for p in path.parent.iterdir()] == ["results.json"]  # no temporary file


def test_run_provider_error_fails_cleanly(runner, tmp_path, dataset_dir):
    matrix = tmp_path / "emb.bin"
    matrix.write_bytes(struct.pack("<4sIQQ", FEATURES_MAGIC, 1, 1, 2) + bytes(8))
    index = tmp_path / "emb.json"
    index.write_text("[0]")
    doc = {"version": 1, "dataset": str(dataset_dir), "methods": ["simplecil"], "seeds": [0],
           "plan": {"classes_per_session": 2, "num_sessions": 3, "shots": 20, "test_cap": 100},
           "hyperparameters": {"provider": {"kind": "file", "matrix": str(matrix),
                                            "index": str(index)},
                               "cache_path": str(tmp_path / "cache.bin")}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    result = runner.invoke(main, ["run", "--config", str(path), "--out", str(tmp_path / "o")])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "missing from embedding index" in result.output


def test_run_writes_http_cache_under_out(runner, tmp_path, dataset_dir, monkeypatch):
    doc = {"version": 1, "dataset": str(dataset_dir), "methods": ["simplecil"], "seeds": [0],
           "plan": {"classes_per_session": 2, "num_sessions": 3, "shots": 20, "test_cap": 100}}
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    with StubEmbeddingServer(dim=8) as srv:
        doc["hyperparameters"] = {"provider": {"kind": "http", "endpoint": srv.endpoint}}
        cfg = tmp_path / "http.json"
        cfg.write_text(json.dumps(doc))
        result = runner.invoke(main, ["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert result.exit_code == 0, result.output
    assert (tmp_path / "o" / "embeddings.cache.bin").stat().st_size > 0
    assert not (cwd / "embeddings.cache.bin").exists()


def test_unreachable_provider_warns_once_per_attempt_then_fails(runner, tmp_path, dataset_dir,
                                                                 monkeypatch):
    # Each failed attempt used to reach stderr as a bare message through
    # Python's last-resort handler.
    from gclbench import embeddings

    monkeypatch.setattr(embeddings, "HTTP_BACKOFF", 0.01)
    for name in ("http_proxy", "all_proxy"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)
    log = logging.getLogger("gclbench")
    assert log.handlers == []  # importing the library, CLI included, installs none
    with socket.socket() as sock:  # a local port that nothing listens on
        sock.bind(("127.0.0.1", 0))
        endpoint = f"http://127.0.0.1:{sock.getsockname()[1]}"
        # 2 classes x 10 shots: one batch of 20 texts, three attempts
        result = _run_config(runner, tmp_path, dataset_dir,
                             {"provider": {"kind": "http", "endpoint": endpoint}}, "simplecil")
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    lines = result.stderr.splitlines()
    assert [line.split(": embedding request failed: ")[0] for line in lines] == [
        *(f"warning: embedding request attempt {i}/3 failed" for i in (1, 2, 3)), "error"]
    assert result.stdout == ""
    assert log.handlers == []


def test_run_rejects_unknown_config_key(runner, tmp_path, dataset_dir):
    doc = {"version": 1, "dataset": str(dataset_dir), "surprise": True}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    result = runner.invoke(main, ["run", "--config", str(bad)])
    assert result.exit_code == 1
    assert "surprise" in result.output


@pytest.mark.parametrize("command, out", [
    ("run", "o"), ("plan", "o"), ("prompts", "p.jsonl"), ("diagnose-leakage", "d.json"),
])
def test_plan_key_of_another_scenario_fails_in_one_line(runner, tmp_path, dataset_dir,
                                                         command, out):
    doc = {"version": 1, "dataset": str(dataset_dir), "scenario": "ncil", "plan": {"ways": 5}}
    cfg = tmp_path / "ways.json"
    cfg.write_text(json.dumps(doc))
    result = runner.invoke(main, [command, "--config", str(cfg), "--out", str(tmp_path / out)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output.splitlines() == [
        "error: scenario 'ncil' takes no plan key ways; "
        "its keys are classes_per_session, num_sessions, shots, test_cap"]


def test_ncil_plan_keys_under_scenario_fsncil_fail_in_one_line(runner, config_file):
    result = runner.invoke(main, ["plan", "--config", str(config_file), "--scenario", "fsncil"])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output.splitlines() == [
        "error: scenario 'fsncil' takes no plan key classes_per_session, shots; its keys are "
        "base_classes, ways, num_sessions, shots_base, shots_novel, test_cap"]


def test_run_grid_expansion(runner, tmp_path, dataset_dir):
    doc = {
        "version": 1,
        "dataset": str(dataset_dir),
        "scenario": "ncil",
        "mode": "global",
        "methods": ["gcn"],
        "seeds": [0],
        "plan": {"classes_per_session": 2, "num_sessions": 2, "shots": 10, "test_cap": 50},
        "hyperparameters": {"epochs": 10, "lr": [0.01, 0.001], "hidden_dim": 16},
    }
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "gridout"
    result = runner.invoke(main, ["run", "--config", str(cfg), "--out", str(out)])
    assert result.exit_code == 0, result.output
    docs = json.loads((out / "results.json").read_text())
    assert len(docs) == 2
    lrs = {d["run"]["grid_point"]["lr"] for d in docs}
    assert lrs == {0.01, 0.001}


def test_prompts_command(runner, config_file, tmp_path):
    out = tmp_path / "p.jsonl"
    result = runner.invoke(main, [
        "prompts", "--config", str(config_file), "--session", "0",
        "--seed", "1", "--out", str(out),
    ])
    assert result.exit_code == 0, result.output
    lines = out.read_text().splitlines()
    assert len(lines) == 40  # 2 classes x 20 shots
    assert "wrote 40 records" in result.output


def test_prompts_command_honours_max_node_text_len(runner, config_file, tmp_path):
    doc = json.loads(config_file.read_text())
    doc["hyperparameters"]["max_node_text_len"] = 2
    cfg = tmp_path / "short.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "p.jsonl"
    result = runner.invoke(main, ["prompts", "--config", str(cfg), "--out", str(out)])
    assert result.exit_code == 0, result.output
    texts = [t for line in out.read_text().splitlines()
             for t in re.findall(r"\[\d+\]\[([^\]]*)\]", json.loads(line)["prompt"])]
    assert texts and all(len(t.split()) == 2 for t in texts)
    assert json.loads(out.with_suffix(".meta.json").read_text())["max_node_text_len"] == 2


def test_diagnose_leakage_command(runner, config_file, tmp_path):
    out = tmp_path / "diag.json"
    result = runner.invoke(main, [
        "diagnose-leakage", "--config", str(config_file), "--k-grid", "1,4",
        "--out", str(out),
    ])
    assert result.exit_code == 0, result.output
    assert "task_id_acc" in result.output
    doc = json.loads(out.read_text())
    assert len(doc["entries"]) == 4


def test_diagnose_leakage_rejects_grid_in_one_line(runner, tmp_path, dataset_dir):
    doc = {"version": 1, "dataset": str(dataset_dir),
           "plan": {"classes_per_session": 2, "num_sessions": 2, "shots": 10, "test_cap": 50},
           "hyperparameters": {"epochs": [5, 10]}}
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps(doc))
    result = runner.invoke(main, ["diagnose-leakage", "--config", str(cfg), "--k-grid", "1"])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output.splitlines() == [
        "error: diagnose-leakage takes one hyperparameter point; the config's grid has 2"]


@pytest.mark.parametrize("provider, missing", [
    ({"kind": "file"}, "'matrix'"),
    ({"kind": "file", "matrix": "m.bin"}, "'index'"),
    ({"kind": "http"}, "'endpoint'"),
], ids=["file-bare", "file-no-index", "http-no-endpoint"])
def test_provider_missing_fields_fail_in_one_line(runner, tmp_path, dataset_dir, provider,
                                                  missing):
    doc = {"version": 1, "dataset": str(dataset_dir), "methods": ["simplecil"],
           "hyperparameters": {"provider": provider}}
    cfg = tmp_path / "provider.json"
    cfg.write_text(json.dumps(doc))
    result = runner.invoke(main, ["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output.splitlines() == [
        f"error: config invalid at hyperparameters/provider: {missing} is a required property"]


@pytest.mark.parametrize("method, hypers, where, message", [
    ("ewc", {"strength": -5}, "strength", "-5 is less than the minimum of 0"),
    ("ewc", {"strength": [100, -1]}, "strength/1", "-1 is less than the minimum of 0"),
    ("lwf", {"lwf_lambda": -1}, "lwf_lambda", "-1 is less than the minimum of 0"),
    ("lwf", {"lwf_lambda": [1, -0.5]}, "lwf_lambda/1", "-0.5 is less than the minimum of 0"),
    ("lwf", {"lwf_T": 0}, "lwf_T", "0 is less than or equal to the minimum of 0"),
    ("lwf", {"lwf_T": [2, -1]}, "lwf_T/1", "-1 is less than or equal to the minimum of 0"),
], ids=["strength", "strength-grid", "lwf_lambda", "lwf_lambda-grid", "lwf_T", "lwf_T-grid"])
def test_regularizer_bounds_fail_in_one_line(runner, tmp_path, dataset_dir, method, hypers,
                                             where, message):
    # Before these bounds, negative weights silently turned ewc/lwf into plain gcn.
    doc = {"version": 1, "dataset": str(dataset_dir), "methods": [method],
           "hyperparameters": dict(hypers, epochs=2)}
    cfg = tmp_path / "bounds.json"
    cfg.write_text(json.dumps(doc))
    result = runner.invoke(main, ["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output.splitlines() == [
        f"error: config invalid at hyperparameters/{where}: {message}"]
    assert not (tmp_path / "o").exists()


def _run_config(runner, tmp_path, dataset_dir, hypers, method="gcn", extra=()):
    doc = {"version": 1, "dataset": str(dataset_dir), "methods": [method],
           "plan": {"classes_per_session": 2, "num_sessions": 2, "shots": 10, "test_cap": 50},
           "hyperparameters": hypers}
    cfg = tmp_path / "hypers.json"
    cfg.write_text(json.dumps(doc))
    return runner.invoke(main, ["run", "--config", str(cfg), "--out", str(tmp_path / "o"),
                                *extra])


@pytest.mark.parametrize("k_smooth, where, message", [
    (-1, "k_smooth", "-1 is less than the minimum of 0"),
    ([2, -1], "k_smooth/1", "-1 is less than the minimum of 0"),
], ids=["scalar", "grid"])
def test_negative_k_smooth_fails_in_one_line(runner, tmp_path, dataset_dir, k_smooth, where,
                                             message):
    # Before, gcn trained and printed its line, then tpp_heads failed on
    # "k must be >= 0" and no results.json was written.
    result = _run_config(runner, tmp_path, dataset_dir, {"k_smooth": k_smooth, "epochs": 2},
                         extra=["--method", "gcn", "--method", "tpp_heads"])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output.splitlines() == [
        f"error: config invalid at hyperparameters/{where}: {message}"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("lr, where, message", [
    (-0.01, "lr", "-0.01 is less than or equal to the minimum of 0"),
    (0, "lr", "0 is less than or equal to the minimum of 0"),
    ([0.01, -0.01], "lr/1", "-0.01 is less than or equal to the minimum of 0"),
], ids=["negative", "zero", "grid"])
def test_non_positive_learning_rate_fails_in_one_line(runner, tmp_path, dataset_dir, lr, where,
                                                      message):
    # Before, a negative rate ran gradient ascent and exited 0.
    result = _run_config(runner, tmp_path, dataset_dir, {"lr": lr, "epochs": 2})
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output.splitlines() == [
        f"error: config invalid at hyperparameters/{where}: {message}"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("hypers, where", [
    ({"hidden_dim": 0}, "hidden_dim"),
    ({"hidden_dim": [16, 0]}, "hidden_dim/1"),
    ({"epochs": 0}, "epochs"),
    ({"epochs": [5, 0]}, "epochs/1"),
], ids=["hidden_dim", "hidden_dim-grid", "epochs", "epochs-grid"])
def test_zero_sizes_fail_in_one_line(runner, tmp_path, dataset_dir, hypers, where):
    # hidden_dim 0 used to end in a ZeroDivisionError traceback, and epochs 0
    # in exit status 0 with untrained models.
    result = _run_config(runner, tmp_path, dataset_dir, hypers)
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output.splitlines() == [
        f"error: config invalid at hyperparameters/{where}: 0 is less than the minimum of 1"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("epochs, message", [
    (5, "non-finite logits in forward pass at epoch 1"),
    (1, "non-finite logits in forward pass"),  # overflows in the first evaluation
])
def test_huge_learning_rate_fails_in_one_line(runner, tmp_path, dataset_dir, epochs, message):
    result = _run_config(runner, tmp_path, dataset_dir, {"lr": 1e300, "epochs": epochs})
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("method", ["gcn", "cosine"])
def test_overflowing_second_moment_fails_in_one_line(runner, tmp_path, dataset_dir, method, recwarn):
    # At lr 1e100 the second epoch's squared gradient overflows the second
    # moment. Before, every later update then rounded to zero: exit status 0,
    # chance-level accuracies and numpy RuntimeWarnings.
    result = _run_config(runner, tmp_path, dataset_dir, {"lr": 1e100, "epochs": 5}, method)
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output.splitlines() == ["error: non-finite second moment for W3 at epoch 1"]
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("method, message", [
    ("cosine", "non-finite embedding norm"),
    ("teen", "non-finite embedding norm"),
    ("ewc", "non-finite Fisher entry for W1"),
])
def test_overflowing_embeddings_and_fisher_fail_in_one_line(runner, tmp_path, dataset_dir,
                                                            method, message, recwarn):
    # One Adam step at lr 1e100 leaves weights near 1e100. Before, cosine and
    # teen exited 0 with chance-level accuracies after RuntimeWarnings from
    # classify_batch, and ewc warned from fisher_diagonal and ewc_penalty
    # before its error line.
    result = _run_config(runner, tmp_path, dataset_dir, {"lr": 1e100, "epochs": 1}, method)
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.stderr.splitlines() == [f"error: {message}"]
    assert result.stdout == ""
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_class_names_not_json_fails_in_one_line_naming_the_file(runner, dataset_dir):
    (dataset_dir / "class_names.json").write_text('["a", "b"', encoding="utf-8")
    result = runner.invoke(main, ["plan", "--dataset", str(dataset_dir)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    lines = result.output.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: class_names.json: not a JSON file (")


def test_repeated_class_name_fails_in_one_line_naming_the_file(runner, dataset_dir):
    names = ["a", "b", "c", "d", "b", "f"]
    (dataset_dir / "class_names.json").write_text(json.dumps(names), encoding="utf-8")
    result = runner.invoke(main, ["plan", "--dataset", str(dataset_dir)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output.splitlines() == [
        "error: class_names.json: repeated class name 'b' at record 4"]


@pytest.mark.parametrize("file", ["nodes.jsonl", "edges.tsv"])
def test_non_utf8_dataset_line_fails_in_one_line_naming_the_file(runner, dataset_dir, file):
    path = dataset_dir / file
    records = len(path.read_bytes().splitlines())
    path.write_bytes(path.read_bytes() + b"\xff\n")
    result = runner.invoke(main, ["plan", "--dataset", str(dataset_dir)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    lines = result.output.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"error: {file}: malformed record {records}: 'utf-8' codec")


def test_report_command(runner, config_file, tmp_path):
    out = tmp_path / "runout"
    runner.invoke(main, ["run", "--config", str(config_file), "--out", str(out)])
    md = tmp_path / "report.md"
    result = runner.invoke(main, [
        "report", "--results", str(out / "results.json"), "--out", str(md),
        "--format", "md",
    ])
    assert result.exit_code == 0, result.output
    assert "| Method |" in md.read_text()
    csv_out = tmp_path / "report.csv"
    result = runner.invoke(main, [
        "report", "--results", str(out / "results.json"), "--out", str(csv_out),
        "--format", "csv",
    ])
    assert result.exit_code == 0
    assert csv_out.read_text().startswith(
        "method,dataset,scenario,mode,eval_edges,seed,grid_point,session,metric,value")


def test_report_keeps_local_and_global_runs_apart(runner, tmp_path, dataset_dir):
    # Before, the report averaged the local and the global run into one cell,
    # "(n=2)", as if they were two seeds.
    results = []
    for mode in ("local", "global"):
        (tmp_path / mode).mkdir()
        result = _run_config(runner, tmp_path / mode, dataset_dir, {"epochs": 5},
                             extra=["--mode", mode])
        assert result.exit_code == 0, result.output
        results += ["--results", str(tmp_path / mode / "o" / "results.json")]
    md = tmp_path / "report.md"
    result = runner.invoke(main, ["report", *results, "--out", str(md), "--format", "md"])
    assert result.exit_code == 0, result.output
    rows = [line for line in md.read_text().splitlines() if line.startswith("| gcn")]
    assert [r.split(" |")[0] for r in rows] == ["| gcn (mode=global)", "| gcn (mode=local)"]
    assert "(n=" not in md.read_text()


_GOOD_DOC = {"run": {"method": "gcn", "dataset": "d"},
             "matrix": {"mode": "global", "rows": [[0.5]]},
             "summary": {"mean_acc": 0.5, "final_acc": 0.5, "aa": None, "af": None}}
_BAD_ROWS = "record 0: 'matrix' needs mode local or global and rows that are lists of numbers"
_BAD_SUMMARY = "record 0: 'summary' is not the summary of its matrix"


@pytest.mark.parametrize("doc, message", [
    ([{}], "record 0: missing or non-object 'run'"),
    ({"run": {}}, "expected a JSON list of run documents"),
    ([_GOOD_DOC, {**_GOOD_DOC, "matrix": {"mode": "global", "rows": [[1.5]]}}],
     "record 1: accuracy entries must lie in [0, 1]"),
    # Each of these used to load: a string row or entry as its float, a bool as
    # 0 or 1, and a summary that disagrees with its matrix as it stood.
    ([{**_GOOD_DOC, "matrix": {"mode": "global", "rows": ["1"]}}], _BAD_ROWS),
    ([{**_GOOD_DOC, "matrix": {"mode": "global", "rows": [["0.5"]]}}], _BAD_ROWS),
    ([{**_GOOD_DOC, "matrix": {"mode": "global", "rows": [[True]]}}], _BAD_ROWS),
    ([{**_GOOD_DOC, "matrix": {"mode": "global", "rows": [[0.75]]},
      "summary": {**_GOOD_DOC["summary"], "mean_acc": True, "final_acc": 0.75}}], _BAD_SUMMARY),
    ([{**_GOOD_DOC, "matrix": {"mode": "global", "rows": [[1.0]]},
      "summary": {"mean_acc": True, "final_acc": 1.0, "aa": None, "af": None}}], _BAD_SUMMARY),
    ([{**_GOOD_DOC, "summary": {**_GOOD_DOC["summary"], "final_acc": 0.6}}], _BAD_SUMMARY),
    ([{**_GOOD_DOC, "summary": {**_GOOD_DOC["summary"], "aa": 0.5}}], _BAD_SUMMARY),
    # An integer entry too large for a float ended in an OverflowError traceback,
    # and a NaN literal loaded where the report does not read it.
    ([{**_GOOD_DOC, "matrix": {"mode": "global", "rows": [[10**400]]}}],
     "record 0: int too large to convert to float"),
    ([{**_GOOD_DOC, "run": {**_GOOD_DOC["run"], "seed": float("nan")}}],
     "not a JSON file (NaN is not a JSON number)"),
], ids=["empty-record", "json-object", "matrix-entry-out-of-range", "string-row",
        "string-entry", "bool-entry", "bool-mean-acc", "bool-equal-to-one",
        "summary-disagrees", "global-summary-with-aa", "huge-integer-entry", "nan-seed"])
@pytest.mark.parametrize("fmt", ["md", "csv"])
def test_report_malformed_results_fail_in_one_line(runner, tmp_path, doc, message, fmt):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    result = runner.invoke(main, ["report", "--results", str(bad),
                                  "--out", str(tmp_path / "r.out"), "--format", fmt])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output.splitlines() == [f"error: {bad}: {message}"]
    assert not (tmp_path / "r.out").exists()


def test_report_of_a_too_deeply_nested_results_file_fails_in_one_line(runner, tmp_path):
    # The JSON decoder's RecursionError used to escape as a traceback.
    bad = tmp_path / "deep.json"
    bad.write_text("[" * 100_000 + "]" * 100_000)
    result = runner.invoke(main, ["report", "--results", str(bad), "--out", str(tmp_path / "r")])
    assert result.exit_code == 1
    (line,) = result.output.splitlines()
    assert line.startswith(f"error: {bad}: not a JSON file (maximum recursion depth exceeded")


@pytest.mark.parametrize("target", ["config", "class_names.json", "nodes.jsonl", "provider-index"])
def test_a_too_deeply_nested_json_input_fails_in_one_line(runner, tmp_path, dataset_dir, target):
    # Each used to end in the JSON decoder's RecursionError traceback.
    deep = "[" * 100_000 + "]" * 100_000
    index = tmp_path / "emb.json"
    index.write_text(deep if target == "provider-index" else "[0]")
    doc = {"version": 1, "dataset": str(dataset_dir), "methods": ["simplecil"], "seeds": [0],
           "plan": {"classes_per_session": 2, "num_sessions": 2, "shots": 10, "test_cap": 50},
           "hyperparameters": {"provider": {"kind": "file", "matrix": str(tmp_path / "emb.bin"),
                                            "index": str(index)}}}
    cfg = tmp_path / "config.json"
    cfg.write_text(deep if target == "config" else json.dumps(doc))
    nodes = dataset_dir / "nodes.jsonl"
    records = len(nodes.read_text().splitlines())
    if target == "nodes.jsonl":
        nodes.write_text(nodes.read_text() + deep + "\n")
    if target == "class_names.json":
        (dataset_dir / target).write_text(deep)
    result = runner.invoke(main, ["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    (line,) = result.output.splitlines()
    assert line.startswith({
        "config": f"error: cannot read config {cfg}: ",
        "class_names.json": "error: class_names.json: not a JSON file (",
        "nodes.jsonl": f"error: nodes.jsonl: malformed record {records}: ",
        "provider-index": f"error: embedding index {index}: ",
    }[target] + "maximum recursion depth exceeded")


def test_unknown_subcommand(runner):
    result = runner.invoke(main, ["frobnicate"])
    assert result.exit_code != 0


def _inline_synth_config(tmp_path, **synth):
    synth = {"num_classes": 6, "nodes_per_class": 30, "feature_dim": 8, "seed": 1, **synth}
    doc = {"version": 1, "dataset": {"synth": synth},
           "plan": {"shots": 10, "test_cap": 10}, "hyperparameters": {"epochs": 5}}
    path = tmp_path / "synth.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("noise_sigma", [0.5, 0])
def test_inline_synth_dataset_plans_and_runs(runner, tmp_path, noise_sigma):
    # A noise-free graph (noise_sigma 0) is one SynthConfig accepts; before,
    # the schema refused it.
    cfg = _inline_synth_config(tmp_path, noise_sigma=noise_sigma)
    plan = runner.invoke(main, ["plan", "--config", str(cfg)])
    assert plan.exit_code == 0, plan.output
    assert "session 3:" in plan.output
    out = tmp_path / "o"
    result = runner.invoke(main, ["run", "--config", str(cfg), "--method", "gcn",
                                  "--method", "tpp_heads", "--mode", "local", "--out", str(out)])
    assert result.exit_code == 0, result.output
    docs = json.loads((out / "results.json").read_text())
    assert [d["run"]["method"] for d in docs] == ["gcn", "tpp_heads"]
    assert {d["run"]["dataset"] for d in docs} == {"synthetic"}


def test_inline_synth_out_of_range_fails_in_one_line(runner, tmp_path):
    cfg = _inline_synth_config(tmp_path, intra_p=1.5)
    result = runner.invoke(main, ["plan", "--config", str(cfg)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output.splitlines() == [
        "error: edge probabilities must lie in [0, 1]: intra_p=1.5"]


@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_non_finite_strength_fails_in_one_line(runner, tmp_path, dataset_dir, value):
    # json.dumps writes NaN and Infinity, which Python's json reads back.
    # Before, a NaN strength passed the schema and trained ewc as plain gcn.
    result = _run_config(runner, tmp_path, dataset_dir, {"strength": value, "epochs": 2},
                         method="ewc")
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    literal = json.dumps(value)
    assert result.output.splitlines() == [
        f"error: cannot read config {tmp_path / 'hypers.json'}: {literal} is not a JSON number"]
    assert not (tmp_path / "o").exists()


def test_overflowing_strength_fails_in_one_line(runner, tmp_path, dataset_dir, recwarn):
    # 1e999 is a JSON number that Python reads as inf: it used to pass the
    # schema and print numpy overflow warnings before its error line.
    doc = {"version": 1, "dataset": str(dataset_dir), "methods": ["ewc"],
           "plan": {"classes_per_session": 2, "num_sessions": 2, "shots": 10, "test_cap": 50}}
    cfg = tmp_path / "hypers.json"
    cfg.write_text(json.dumps(doc)[:-1] + ', "hyperparameters": {"strength": 1e999}}')
    result = runner.invoke(main, ["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output.splitlines() == [
        "error: config invalid at hyperparameters/strength: inf is not of type 'number'"]
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    assert not (tmp_path / "o").exists()


def test_scenario_choices_are_the_plan_tables():
    assert CONFIG_SCHEMA["properties"]["scenario"]["enum"] == list(PLAN_DEFAULTS)
    for name in ("plan", "run", "prompts", "diagnose-leakage"):
        [option] = [p for p in main.commands[name].params if p.name == "scenario"]
        assert list(option.type.choices) == list(PLAN_DEFAULTS), name


def _plan_config(tmp_path, synth=None, plan=None, scenario=NCIL):
    synth = {"num_classes": 6, "nodes_per_class": 30, "feature_dim": 8, "seed": 1, **(synth or {})}
    doc = {"version": 1, "dataset": {"synth": synth}, "scenario": scenario, "plan": plan or {}}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    return path


_BAD_SYNTH = [("num_classes", 0), ("nodes_per_class", 0), ("feature_dim", 0), ("class_sep", -1),
              ("noise_sigma", -0.5), ("intra_p", 1.5), ("inter_p", -0.1), ("seed", -1),
              ("bogus", 1)]
_BAD_PLAN = [*((NCIL, k, 0) for k in DEFAULT_PLAN_NCIL),
             *((FSNCIL, k, 0) for k in DEFAULT_PLAN_FSNCIL), (NCIL, "bogus", 1)]


@pytest.mark.parametrize("synth, plan, scenario, field", [
    *(pytest.param({k: v}, None, NCIL, k, id=f"synth-{k}") for k, v in _BAD_SYNTH),
    *(pytest.param(None, {k: v}, s, k, id=f"{s}-{k}") for s, k, v in _BAD_PLAN),
])
def test_bad_synth_or_plan_value_fails_in_one_line_naming_it(runner, tmp_path, synth, plan,
                                                             scenario, field):
    cfg = _plan_config(tmp_path, synth, plan, scenario)
    result = runner.invoke(main, ["plan", "--config", str(cfg)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    [line] = result.output.splitlines()
    assert line.startswith("error: ") and field in line


_NOT_INT = "is not of type 'integer'"


@pytest.mark.parametrize("command, doc, message", [
    ("plan", {"dataset": {"synth": {"nodes_per_class": 30.0}}},
     f"dataset/synth/nodes_per_class: 30.0 {_NOT_INT}"),
    ("plan", {"plan": {"shots": 10.0, "test_cap": 10}}, f"plan/shots: 10.0 {_NOT_INT}"),
    ("run", {"seeds": [0.0]}, f"seeds/0: 0.0 {_NOT_INT}"),
    # A grid key: 2.0 is not a list, so it is held to the one-value schema.
    ("run", {"hyperparameters": {"epochs": 2.0}}, f"hyperparameters/epochs: 2.0 {_NOT_INT}"),
    ("prompts", {"hyperparameters": {"max_node_text_len": 16.0}},
     f"hyperparameters/max_node_text_len: 16.0 {_NOT_INT}"),
    ("prompts", {"hyperparameters": {"fanouts": [5.0, 5]}},
     f"hyperparameters/fanouts/0: 5.0 {_NOT_INT}"),
], ids=["synth-nodes_per_class", "plan-shots", "seeds", "epochs", "max_node_text_len",
        "fanouts"])
def test_integral_float_fails_in_one_line(runner, tmp_path, dataset_dir, command, doc, message):
    # Before, an integral float passed as a JSON integer: most of these ended
    # in a TypeError traceback, and epochs 2.0 trained.
    base = {"version": 1, "dataset": str(dataset_dir), "methods": ["gcn"],
            "plan": {"shots": 10, "test_cap": 10}}
    cfg = tmp_path / "float.json"
    cfg.write_text(json.dumps({**base, **doc}))
    out = tmp_path / ("o.jsonl" if command == "prompts" else "o")
    result = runner.invoke(main, [command, "--config", str(cfg), "--out", str(out)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output.splitlines() == [f"error: config invalid at {message}"]


@pytest.mark.parametrize("doc, flags, message", [
    ({}, ["--seed", "0", "--seed", "0", "--method", "gcn"],
     "seeds: [0, 0] has non-unique elements"),
    ({}, ["--method", "gcn", "--method", "gcn"], "methods: ['gcn', 'gcn'] has non-unique elements"),
    ({}, ["--seed", "-1"], "seeds/0: -1 is less than the minimum of 0"),
    ({"seeds": [0, 0]}, [], "seeds: [0, 0] has non-unique elements"),
    ({"methods": ["gcn", "gcn"]}, [], "methods: ['gcn', 'gcn'] has non-unique elements"),
    ({"hyperparameters": {"lr": [0.01, 0.01]}}, [],
     "hyperparameters/lr: [0.01, 0.01] has non-unique elements"),
], ids=["seed-flags", "method-flags", "negative-seed-flag", "config-seeds", "config-methods",
        "grid"])
def test_repeated_or_negative_run_list_fails_in_one_line(runner, tmp_path, dataset_dir, doc,
                                                         flags, message):
    # Before, each repeat wrote a second identical run document, and the
    # report counted the one run as n=2.
    base = {"version": 1, "dataset": str(dataset_dir), "plan": {"shots": 10, "test_cap": 10},
            "hyperparameters": {"epochs": 2}}
    cfg = tmp_path / "repeat.json"
    cfg.write_text(json.dumps({**base, **doc}))
    result = runner.invoke(main, ["run", "--config", str(cfg), "--out", str(tmp_path / "o"),
                                  *flags])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output.splitlines() == [f"error: config invalid at {message}"]
    assert not (tmp_path / "o").exists()


def test_repeated_k_grid_value_fails_in_one_line(runner, config_file):
    # Before, every row of the table was printed twice.
    result = runner.invoke(main, ["diagnose-leakage", "--config", str(config_file),
                                  "--k-grid", "1,1"])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output.splitlines() == ["error: --k-grid repeats a value: 1,1"]


def test_report_rejects_a_run_document_given_twice(runner, tmp_path):
    # Before, the one run was reported as "50.0 ± 0.0 (n=2)".
    results = tmp_path / "r.json"
    results.write_text(json.dumps([_GOOD_DOC]))
    result = runner.invoke(main, ["report", "--results", str(results), "--results", str(results),
                                  "--out", str(tmp_path / "r.md")])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output.splitlines() == [
        f"error: {results}: record 0: the same run document as {results}: record 0"]
    assert not (tmp_path / "r.md").exists()


@pytest.mark.parametrize("command", ["plan", "prompts", "diagnose-leakage"])
def test_negative_seed_flag_fails_in_one_line_naming_the_key(runner, tmp_path, config_file,
                                                             command):
    # Before, plan, prompts and diagnose-leakage passed the seed on to the
    # plan builder, whose error named neither the flag nor the value.
    args = [command, "--config", str(config_file), "--seed", "-1"]
    if command == "prompts":
        args += ["--out", str(tmp_path / "p.jsonl")]
    result = runner.invoke(main, args)
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output.splitlines() == [
        "error: config invalid at seeds/0: -1 is less than the minimum of 0"]


def _with_seeds(tmp_path, config_file, seeds):
    doc = json.loads(config_file.read_text())
    doc.pop("seeds")
    if seeds is not None:
        doc["seeds"] = seeds
    cfg = tmp_path / "seeds.json"
    cfg.write_text(json.dumps(doc))
    return cfg


@pytest.mark.parametrize("seeds, flags, want", [
    ([3], [], 3), ([3], ["--seed", "5"], 5), (None, [], 0), ([0, 1], ["--seed", "1"], 1),
], ids=["config", "flag-overrides", "none-listed", "flag-picks-one"])
def test_plan_and_prompts_take_the_configs_one_seed(runner, tmp_path, config_file, seeds, flags,
                                                    want):
    # Before, --seed defaulted to 0 and overrode the config's seeds.
    cfg = _with_seeds(tmp_path, config_file, seeds)
    result = runner.invoke(main, ["plan", "--config", str(cfg), "--out", str(tmp_path / "p"),
                                  *flags])
    assert result.exit_code == 0, result.output
    header = (tmp_path / "p" / "plan.digest").read_text().splitlines()[0]
    assert f" seed={want} " in header
    out = tmp_path / "s0.jsonl"
    result = runner.invoke(main, ["prompts", "--config", str(cfg), "--out", str(out), *flags])
    assert result.exit_code == 0, result.output
    assert json.loads(out.with_suffix(".meta.json").read_text())["seed"] == want


def test_diagnose_leakage_takes_the_configs_one_seed(runner, tmp_path, config_file, monkeypatch):
    import gclbench.cli

    seen = []

    class _Report:
        def table(self):
            return "table"

    def probe(plan, **kwargs):
        seen.append(plan.seed)
        return _Report()

    monkeypatch.setattr(gclbench.cli, "leakage_diagnostic", probe)
    cfg = _with_seeds(tmp_path, config_file, [3])
    for flags in ([], ["--seed", "5"]):
        result = runner.invoke(main, ["diagnose-leakage", "--config", str(cfg), *flags])
        assert result.exit_code == 0, result.output
    assert seen == [3, 5]


@pytest.mark.parametrize("command", ["plan", "prompts", "diagnose-leakage"])
def test_several_config_seeds_without_seed_flag_fail_in_one_line(runner, tmp_path, config_file,
                                                                 command):
    cfg = _with_seeds(tmp_path, config_file, [0, 1])
    args = [command, "--config", str(cfg)]
    if command == "prompts":
        args += ["--out", str(tmp_path / "p.jsonl")]
    result = runner.invoke(main, args)
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output.splitlines() == [
        f"error: {command} takes one seed; the config lists 2 (pick one with --seed)"]
    assert not (tmp_path / "p.jsonl").exists()


@pytest.mark.parametrize("k_grid", ["1,x", "-1", "2,-1"])
def test_bad_k_grid_fails_in_one_line_before_any_head_trains(runner, monkeypatch, config_file,
                                                             k_grid):
    # Before, "1,x" ended in int()'s message, and "-1" trained every head
    # before the smoothing step rejected k.
    import gclbench.trainers

    trained = []
    monkeypatch.setattr(gclbench.trainers, "_fit_head", lambda *a, **k: trained.append(a))
    result = runner.invoke(main, ["diagnose-leakage", "--config", str(config_file),
                                  "--k-grid", k_grid])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output.splitlines() == [f"error: --k-grid takes integers >= 0: {k_grid}"]
    assert trained == []


@pytest.mark.parametrize("key", sorted(_GRID_ITEMS))
def test_wrong_typed_grid_value_names_the_expected_type(runner, tmp_path, dataset_dir, key):
    # Before, a grid key's schema was a oneOf of one value and a list, and a
    # value of the wrong type was "not valid under any of the given schemas".
    expected = _GRID_ITEMS[key]["type"]
    value = 1.5 if expected == "integer" else "1.5"
    cfg = tmp_path / "typed.json"
    cfg.write_text(json.dumps({"version": 1, "dataset": str(dataset_dir),
                               "hyperparameters": {key: value}}))
    result = runner.invoke(main, ["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output.splitlines() == [
        f"error: config invalid at hyperparameters/{key}: {value!r} is not of type '{expected}'"]
