"""Command-line surface: dataset prep, planning, runs, prompts, diagnostics, reports."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from . import config as cfgmod
from .config import ConfigError, expand_grid, load_config, resolve_hypers, validate_config
from .embeddings import EmbeddingProviderError
from .evaluation import leakage_diagnostic, load_results, write_report
from .graph import TagFormatError, load_tag, save_tag
from .prompts import default_template, emit_instruction_jsonl
from .sessions import (
    EVAL_EDGES_INTRA,
    PlanError,
    plan_digest,
    plan_fsncil,
    plan_ncil,
    save_plan,
)
from .synth import SynthConfig, synth_tag
from .trainers import METHOD_IDS, TrainingError, run_method

_ERRORS = (ConfigError, TagFormatError, PlanError, TrainingError, EmbeddingProviderError,
           ValueError, OSError, IndexError)


def _fail(exc: Exception) -> None:
    click.echo(f"error: {exc}", err=True)
    sys.exit(1)


def _load_doc(config_path: str | None) -> dict:
    if config_path:
        return load_config(config_path)
    return validate_config({"version": 1})


def _resolve_graph(doc: dict, dataset: str | None):
    """Graph plus a display name, from --dataset or the config document."""
    spec = dataset if dataset else doc.get("dataset")
    if spec is None:
        raise ConfigError("no dataset given (use --dataset or config 'dataset')")
    if isinstance(spec, dict):
        g = synth_tag(SynthConfig(**spec["synth"]))
        name = doc.get("dataset_name", "synthetic")
    else:
        g = load_tag(spec)
        name = doc.get("dataset_name", Path(spec).name or "dataset")
    return g, name


def _resolve_plan(doc: dict, g, scenario: str | None, seed: int, eval_edges: str | None):
    scenario = scenario or doc.get("scenario", "ncil")
    eval_edges = eval_edges or doc.get("eval_edges", EVAL_EDGES_INTRA)
    params = dict(
        cfgmod.DEFAULT_PLAN_NCIL if scenario == "ncil" else cfgmod.DEFAULT_PLAN_FSNCIL
    )
    params.update(doc.get("plan", {}))
    if scenario == "ncil":
        return plan_ncil(
            g,
            classes_per_session=params["classes_per_session"],
            num_sessions=params["num_sessions"],
            shots=params["shots"],
            test_cap=params["test_cap"],
            seed=seed,
            eval_edges=eval_edges,
        )
    return plan_fsncil(
        g,
        base_classes=params["base_classes"],
        ways=params["ways"],
        num_sessions=params["num_sessions"],
        shots_base=params["shots_base"],
        shots_novel=params["shots_novel"],
        test_cap=params["test_cap"],
        seed=seed,
        eval_edges=eval_edges,
    )


@click.group()
def main():
    """Graph continual-learning benchmark harness."""


@main.command()
@click.option("--out", required=True, type=click.Path(), help="Output dataset directory.")
@click.option("--classes", default=6, show_default=True)
@click.option("--nodes-per-class", default=50, show_default=True)
@click.option("--feature-dim", default=16, show_default=True)
@click.option("--class-sep", default=3.0, show_default=True)
@click.option("--intra-p", default=0.2, show_default=True)
@click.option("--inter-p", default=0.02, show_default=True)
@click.option("--seed", default=0, show_default=True)
def synth(out, classes, nodes_per_class, feature_dim, class_sep, intra_p, inter_p, seed):
    """Generate a synthetic dataset directory."""
    try:
        g = synth_tag(SynthConfig(
            num_classes=classes, nodes_per_class=nodes_per_class,
            feature_dim=feature_dim, class_sep=class_sep,
            intra_p=intra_p, inter_p=inter_p, seed=seed,
        ))
        save_tag(g, out)
    except _ERRORS as exc:
        _fail(exc)
    click.echo(f"wrote {g.node_count} nodes, {g.edge_count} edges to {out}")


@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True))
@click.option("--dataset", type=click.Path())
@click.option("--scenario", type=click.Choice(["ncil", "fsncil"]))
@click.option("--seed", default=0, show_default=True)
@click.option("--eval-edges", type=click.Choice(["intra_only", "full_union"]))
@click.option("--out", type=click.Path(), help="Directory for plan.json and plan.digest.")
def plan(config_path, dataset, scenario, seed, eval_edges, out):
    """Build a session plan and print its digest."""
    try:
        doc = _load_doc(config_path)
        g, _ = _resolve_graph(doc, dataset)
        p = _resolve_plan(doc, g, scenario, seed, eval_edges)
        digest = plan_digest(p)
        if out:
            outdir = Path(out)
            outdir.mkdir(parents=True, exist_ok=True)
            save_plan(p, outdir / "plan.json")
            (outdir / "plan.digest").write_text(digest, encoding="utf-8")
        click.echo(digest, nl=False)
    except _ERRORS as exc:
        _fail(exc)


@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True))
@click.option("--dataset", type=click.Path())
@click.option("--scenario", type=click.Choice(["ncil", "fsncil"]))
@click.option("--mode", type=click.Choice(["local", "global"]))
@click.option("--method", "methods", multiple=True,
              help=f"Repeatable; one of: {', '.join(METHOD_IDS)}.")
@click.option("--seed", "seeds", multiple=True, type=int)
@click.option("--eval-edges", type=click.Choice(["intra_only", "full_union"]))
@click.option("--out", type=click.Path(), default=".", show_default=True)
def run(config_path, dataset, scenario, mode, methods, seeds, eval_edges, out):
    """Execute methods over the session plan and write results.json."""
    try:
        doc = _load_doc(config_path)
        g, name = _resolve_graph(doc, dataset)
        mode = mode or doc.get("mode", "global")
        method_list = list(methods) or doc.get("methods", ["gcn"])
        seed_list = list(seeds) or doc.get("seeds", [0])
        for m in method_list:
            if m not in METHOD_IDS:
                raise ConfigError(f"unknown method {m!r}; valid ids: {', '.join(METHOD_IDS)}")
        grid = expand_grid(resolve_hypers(doc))
        results = []
        for seed in seed_list:
            p = _resolve_plan(doc, g, scenario, seed, eval_edges)
            for hypers in grid:
                for m in method_list:
                    res = run_method(m, p, hypers, mode=mode, seed=seed, dataset=name)
                    doc_out = res.to_doc()
                    if len(grid) > 1:
                        doc_out["run"]["grid_point"] = {
                            k: hypers[k] for k in sorted(hypers)
                            if not isinstance(hypers[k], (dict, list))
                        }
                    results.append(doc_out)
                    s = res.summary
                    click.echo(
                        f"{m} seed={seed} mean_acc={s['mean_acc']:.4f} final_acc={s['final_acc']:.4f}"
                    )
        outdir = Path(out)
        outdir.mkdir(parents=True, exist_ok=True)
        write_report(results, outdir / "results.json", "json")
        click.echo(f"wrote {outdir / 'results.json'}")
    except _ERRORS as exc:
        _fail(exc)


@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True))
@click.option("--dataset", type=click.Path())
@click.option("--scenario", type=click.Choice(["ncil", "fsncil"]))
@click.option("--session", default=0, show_default=True, help="0-based session index.")
@click.option("--seed", default=0, show_default=True)
@click.option("--out", required=True, type=click.Path(), help="Output JSONL path.")
def prompts(config_path, dataset, scenario, session, seed, out):
    """Emit the instruction-tuning JSONL for one session's train nodes."""
    try:
        doc = _load_doc(config_path)
        g, name = _resolve_graph(doc, dataset)
        p = _resolve_plan(doc, g, scenario, seed, None)
        hypers = resolve_hypers(doc)
        template = default_template(name, hops=len(hypers["fanouts"]))
        count = emit_instruction_jsonl(
            p, session, template, out, seed, fanouts=tuple(hypers["fanouts"])
        )
        click.echo(f"wrote {count} records to {out}")
    except _ERRORS as exc:
        _fail(exc)


@main.command("diagnose-leakage")
@click.option("--config", "config_path", type=click.Path(exists=True))
@click.option("--dataset", type=click.Path())
@click.option("--scenario", type=click.Choice(["ncil", "fsncil"]))
@click.option("--seed", default=0, show_default=True)
@click.option("--k-grid", default="1,2,4,8", show_default=True)
@click.option("--out", type=click.Path(), help="Optional diagnostics.json path.")
def diagnose_leakage(config_path, dataset, scenario, seed, k_grid, out):
    """Task-ID leakage probe: prototype routing accuracy and routed-head AA/AF."""
    try:
        doc = _load_doc(config_path)
        g, _ = _resolve_graph(doc, dataset)
        p = _resolve_plan(doc, g, scenario, seed, None)
        ks = tuple(int(x) for x in k_grid.split(","))
        points = expand_grid(resolve_hypers(doc))
        if len(points) > 1:
            raise ConfigError(f"diagnose-leakage takes one hyperparameter point; "
                              f"the config's grid has {len(points)}")
        report = leakage_diagnostic(p, k_grid=ks, config=points[0])
        if out:
            Path(out).parent.mkdir(parents=True, exist_ok=True)
            Path(out).write_text(json.dumps(report.to_dict(), indent=1), encoding="utf-8")
        click.echo(report.table())
    except _ERRORS as exc:
        _fail(exc)


@main.command()
@click.option("--results", "results_paths", multiple=True, required=True,
              type=click.Path(exists=True), help="Repeatable results.json inputs.")
@click.option("--out", required=True, type=click.Path())
@click.option("--format", "fmt", type=click.Choice(["json", "csv", "md"]), default="md",
              show_default=True)
def report(results_paths, out, fmt):
    """Merge run results into a csv/md/json report."""
    try:
        merged = []
        for path in results_paths:
            merged.extend(load_results(path))
        write_report(merged, out, fmt)
        click.echo(f"wrote {out}")
    except _ERRORS as exc:
        _fail(exc)


if __name__ == "__main__":
    main()
