"""Command-line surface: dataset prep, planning, runs, prompts, diagnostics, reports."""

from __future__ import annotations

import json
import logging
import sys
from pathlib import Path

import click

from .config import (LEAKAGE_K_GRID, PLAN_DEFAULTS, ConfigError, expand_grid, load_config,
                     resolve_hypers, validate_config)
from .embeddings import EmbeddingProviderError
from .evaluation import ResultsFormatError, leakage_diagnostic, load_results, write_report
from .graph import load_tag, save_tag
from .prompts import default_template, emit_instruction_jsonl
from .sessions import (EVAL_EDGES_FULL, EVAL_EDGES_INTRA, GLOBAL, LOCAL, NCIL, plan_digest,
                       plan_fsncil, plan_ncil)
from .synth import SynthConfig, synth_tag
from .trainers import METHOD_IDS, TrainingError, run_methods


class _RunStopped(RuntimeError):
    """`run` stopped by an error after it had written some finished runs."""


_ERRORS = (TrainingError, EmbeddingProviderError, ValueError, OSError, IndexError,
           FloatingPointError, _RunStopped)


def _config(config_path: str | None, **flags) -> dict:
    """The config document with each given flag laid over its key, checked by the key's rule."""
    doc = load_config(config_path) if config_path else {"version": 1}
    given = {k: list(v) if isinstance(v, tuple) else v for k, v in flags.items() if v}
    return validate_config({**doc, **given})


def _one_seed(command: str, config_path: str | None, seed: int | None, **flags):
    """The config document and the one seed a plan-building command uses.

    `--seed` wins; without it the config's `seeds` must list at most one (none means 0).
    """
    doc = _config(config_path, seeds=None if seed is None else [seed], **flags)
    seeds = doc.get("seeds", [0])
    if len(seeds) > 1:
        raise ConfigError(f"{command} takes one seed; the config lists {len(seeds)} "
                          f"(pick one with --seed)")
    return doc, seeds[0]


def _resolve_graph(doc: dict):
    """Graph plus a display name, from the config document's dataset."""
    spec = doc.get("dataset")
    if spec is None:
        raise ConfigError("no dataset given (use --dataset or config 'dataset')")
    if isinstance(spec, dict):
        g = synth_tag(SynthConfig(**spec["synth"]))
        name = doc.get("dataset_name", "synthetic")
    else:
        g = load_tag(spec)
        name = doc.get("dataset_name", Path(spec).name or "dataset")
    return g, name


def _resolve_plan(doc: dict, g, seed: int):
    scenario = doc.get("scenario", NCIL)
    eval_edges = doc.get("eval_edges", EVAL_EDGES_INTRA)
    defaults = PLAN_DEFAULTS[scenario]
    given = doc.get("plan", {})
    unknown = sorted(set(given) - set(defaults))
    if unknown:
        raise ConfigError(f"scenario {scenario!r} takes no plan key {', '.join(unknown)}; "
                          f"its keys are {', '.join(defaults)}")
    build = plan_ncil if scenario == NCIL else plan_fsncil
    return build(g, **{**defaults, **given}, seed=seed, eval_edges=eval_edges)


_SEED_HELP = "Default: the config's one seed, or 0 when it lists none."


class _WarningLines(logging.Handler):
    def emit(self, record):  # to stderr as it stands now, so CliRunner captures the line
        click.echo(f"warning: {record.getMessage()}", err=True)


class _Cli(click.Group):
    """A `warning:` line per gclbench WARNING; an `error:` line and exit 1 per expected error."""

    def invoke(self, ctx):
        log, handler = logging.getLogger("gclbench"), _WarningLines(logging.WARNING)
        log.addHandler(handler)
        try:
            return super().invoke(ctx)
        except _ERRORS as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)
        finally:
            log.removeHandler(handler)


@click.group(cls=_Cli)
def main():
    """Graph continual-learning benchmark harness."""


@main.command()
@click.option("--out", required=True, type=click.Path(), help="Output dataset directory.")
@click.option("--classes", "num_classes", default=SynthConfig.num_classes, show_default=True)
@click.option("--nodes-per-class", default=SynthConfig.nodes_per_class, show_default=True)
@click.option("--feature-dim", default=SynthConfig.feature_dim, show_default=True)
@click.option("--class-sep", default=SynthConfig.class_sep, show_default=True)
@click.option("--intra-p", default=SynthConfig.intra_p, show_default=True)
@click.option("--inter-p", default=SynthConfig.inter_p, show_default=True)
@click.option("--seed", default=SynthConfig.seed, show_default=True)
def synth(out, **settings):
    """Generate a synthetic dataset directory."""
    g = synth_tag(SynthConfig(**settings))
    save_tag(g, out)
    click.echo(f"wrote {g.node_count} nodes, {g.edge_count} edges to {out}")


@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True))
@click.option("--dataset", type=click.Path())
@click.option("--scenario", type=click.Choice(list(PLAN_DEFAULTS)))
@click.option("--seed", type=int, help=_SEED_HELP)
@click.option("--eval-edges", type=click.Choice([EVAL_EDGES_INTRA, EVAL_EDGES_FULL]))
@click.option("--out", type=click.Path(), help="Directory to write plan.digest into.")
def plan(config_path, seed, out, **flags):
    """Build a session plan and print its digest."""
    doc, seed = _one_seed("plan", config_path, seed, **flags)
    p = _resolve_plan(doc, _resolve_graph(doc)[0], seed)
    digest = plan_digest(p)
    if out:
        outdir = Path(out)
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "plan.digest").write_text(digest, encoding="utf-8")
    click.echo(digest, nl=False)


@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True))
@click.option("--dataset", type=click.Path())
@click.option("--scenario", type=click.Choice(list(PLAN_DEFAULTS)))
@click.option("--mode", type=click.Choice([LOCAL, GLOBAL]))
@click.option("--method", "methods", multiple=True,
              help=f"Repeatable; one of: {', '.join(METHOD_IDS)}.")
@click.option("--seed", "seeds", multiple=True, type=int)
@click.option("--eval-edges", type=click.Choice([EVAL_EDGES_INTRA, EVAL_EDGES_FULL]))
@click.option("--out", type=click.Path(), default=".", show_default=True)
def run(config_path, out, **flags):
    """Execute methods over the session plan and write results.json.

    results.json is rewritten after each walk, so an error keeps the finished runs."""
    doc = _config(config_path, **flags)
    g, name = _resolve_graph(doc)
    grid = expand_grid(resolve_hypers(doc.get("hyperparameters")))
    outdir = Path(out)
    path = outdir / "results.json"
    cache_path = str(outdir / "embeddings.cache.bin")
    results = []
    try:
        for seed in doc.get("seeds", [0]):
            p = _resolve_plan(doc, g, seed)
            for hypers in grid:  # one walk of all the methods per (seed, grid point)
                for res in run_methods(doc.get("methods", ["gcn"]), p,
                                       {"cache_path": cache_path, **hypers},
                                       mode=doc.get("mode", GLOBAL), seed=seed, dataset=name):
                    doc_out = res.to_doc()
                    if len(grid) > 1:
                        doc_out["run"]["grid_point"] = {
                            k: hypers[k] for k in sorted(hypers)
                            if not isinstance(hypers[k], (dict, list))
                        }
                    results.append(doc_out)
                    s = res.summary
                    click.echo(f"{res.method} seed={seed} mean_acc={s['mean_acc']:.4f} "
                               f"final_acc={s['final_acc']:.4f}")
                write_report(results, path, "json")
    except _ERRORS as exc:
        if not results:
            raise
        raise _RunStopped(f"{exc}; kept {len(results)} finished run(s) in {path}") from exc
    click.echo(f"wrote {path}")


@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True))
@click.option("--dataset", type=click.Path())
@click.option("--scenario", type=click.Choice(list(PLAN_DEFAULTS)))
@click.option("--session", default=0, show_default=True, help="0-based session index.")
@click.option("--seed", type=int, help=_SEED_HELP)
@click.option("--out", required=True, type=click.Path(), help="Output JSONL path.")
def prompts(config_path, session, seed, out, **flags):
    """Emit the instruction-tuning JSONL for one session's train nodes."""
    doc, seed = _one_seed("prompts", config_path, seed, **flags)
    g, name = _resolve_graph(doc)
    p = _resolve_plan(doc, g, seed)
    hypers = resolve_hypers(doc.get("hyperparameters"))
    template = default_template(name, len(hypers["fanouts"]), hypers["max_node_text_len"])
    count = emit_instruction_jsonl(p, session, template, out, seed, fanouts=hypers["fanouts"])
    click.echo(f"wrote {count} records to {out}")


@main.command("diagnose-leakage")
@click.option("--config", "config_path", type=click.Path(exists=True))
@click.option("--dataset", type=click.Path())
@click.option("--scenario", type=click.Choice(list(PLAN_DEFAULTS)))
@click.option("--seed", type=int,
              help=f"Seeds the plan; the heads always train at seed 0. {_SEED_HELP}")
@click.option("--k-grid", default=",".join(map(str, LEAKAGE_K_GRID)), show_default=True,
              help="Distinct integers >= 0.")
@click.option("--out", type=click.Path(), help="Optional diagnostics.json path.")
def diagnose_leakage(config_path, seed, k_grid, out, **flags):
    """Task-ID leakage probe: prototype routing accuracy and routed-head AA/AF."""
    ks = tuple(int(x) if x.strip().isdecimal() else -1 for x in k_grid.split(","))
    if min(ks) < 0:
        raise ConfigError(f"--k-grid takes integers >= 0: {k_grid}")
    if len(set(ks)) < len(ks):
        raise ConfigError(f"--k-grid repeats a value: {k_grid}")
    doc, seed = _one_seed("diagnose-leakage", config_path, seed, **flags)
    p = _resolve_plan(doc, _resolve_graph(doc)[0], seed)
    points = expand_grid(resolve_hypers(doc.get("hyperparameters")))
    if len(points) > 1:
        raise ConfigError(f"diagnose-leakage takes one hyperparameter point; "
                          f"the config's grid has {len(points)}")
    report = leakage_diagnostic(p, k_grid=ks, config=points[0])
    if out:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        Path(out).write_text(json.dumps(report.to_dict(), indent=1), encoding="utf-8")
    click.echo(report.table())


@main.command()
@click.option("--results", "results_paths", multiple=True, required=True,
              type=click.Path(exists=True), help="Repeatable results.json inputs.")
@click.option("--out", required=True, type=click.Path())
@click.option("--format", "fmt", type=click.Choice(["json", "csv", "md"]), default="md",
              show_default=True)
def report(results_paths, out, fmt):
    """Merge run results into a csv/md/json report."""
    merged, seen = [], {}
    for path in results_paths:
        for i, doc in enumerate(load_results(path)):
            key, where = json.dumps(doc, sort_keys=True), f"{path}: record {i}"
            if key in seen:  # two runs differ at least in session_seconds
                raise ResultsFormatError(f"{where}: the same run document as {seen[key]}")
            seen[key] = where
            merged.append(doc)
    write_report(merged, out, fmt)
    click.echo(f"wrote {out}")


if __name__ == "__main__":
    main()
