"""gclbench benchmark: one workload, timed rounds, output checks, optional tracing.

    python3 bench/run.py --workload gnn_train --seed 0 --seconds 36 --trace 0

Run from the root of a checkout; the package is imported from ./src. With
--trace 0 the last stdout line is a JSON object with the end-to-end metrics;
with --trace 1 it holds the per-layer metrics of the traced rounds instead.
Files go under bench/_out/. See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import os

# Pinned before numpy loads: one BLAS thread keeps timings steady on a small
# shared machine, and never exceeds the CPU count.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

sys.dont_write_bytecode = True  # a run leaves no __pycache__ behind

import calib  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT_ROOT = HERE / "_out"
SETUP_REPEATS = 5
PHASES = ("phase1", "phase2", "phase3")


def parse_args(argv):
    p = argparse.ArgumentParser(description="Run one gclbench benchmark workload.")
    p.add_argument("--workload", required=True,
                   choices=("gnn_train", "proto_route", "prompt_embed"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True, help="length of the measured window")
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    return args


def import_program():
    """Import gclbench from this checkout's src/, never from an installed copy."""
    if not (SRC / "gclbench" / "__init__.py").is_file():
        raise ImportError(f"{SRC / 'gclbench'} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import gclbench

    if Path(gclbench.__file__).resolve().parent != (SRC / "gclbench").resolve():
        raise ImportError(f"gclbench imported from {gclbench.__file__}, not from {SRC}")
    return gclbench


def run_checks(items) -> tuple[int, list[str]]:
    from checks import CheckFailed

    failures = []
    for label, fn, args in items:
        try:
            fn(*args)
        except CheckFailed as exc:
            failures.append(f"{label}: {exc}")
    return len(items), failures


def self_test(wl, env, ref, rnd) -> tuple[int, list[str]]:
    """Every corrupted output must be rejected by the check it targets."""
    from checks import CheckFailed

    try:
        items = wl.corruptions(env, ref, rnd)
    except Exception as exc:  # a corruption that cannot be built tests nothing
        return 1, [f"self-test could not run: {exc!r}"]
    accepted = []
    for label, fn, args in items:
        try:
            fn(*args)
        except CheckFailed:
            continue
        accepted.append(f"self-test: check accepted {label}")
    return len(items), accepted


def measure(wl, env, ref, seconds: int, tracer):
    """Whole rounds until the next would overrun `seconds` (at least one).

    With a tracer, each step is an untraced round followed by a traced one.
    """
    rounds, failures = [], []
    n_checks = 0
    first_digest = None
    steps: list[float] = []
    start = time.perf_counter()
    while True:
        t_step = time.perf_counter()
        for traced in ((False, True) if tracer else (False,)):
            if traced:
                tracer.install()
            t0 = time.perf_counter()
            try:
                rnd = wl.round(env, tracer if traced else None)
            finally:
                if traced:
                    tracer.uninstall()
            rnd.finish()
            rnd.wall_s = time.perf_counter() - t0
            rnd.traced = traced
            rounds.append(rnd)
            if rnd.failed:
                continue
            try:
                count, bad = run_checks(wl.checks(env, ref, rnd))
            except Exception as exc:  # a check that cannot run is a failed check
                traceback.print_exc(file=sys.stderr)
                count, bad = 1, [f"checks could not run: {exc!r}"]
            n_checks += count
            failures += [f"round {len(rounds)}: {b}" for b in bad]
            digest = wl.digest(rnd)
            if first_digest is None:
                first_digest = digest
            elif digest != first_digest:
                failures.append(f"round {len(rounds)}: outputs differ from the first round")
        steps.append(time.perf_counter() - t_step)
        if time.perf_counter() - start + statistics.median(steps) > seconds:
            return rounds, n_checks, failures


def timed_setups(wl):
    """SETUP_REPEATS set-ups between calibration samples; keeps the last.

    Returns the environment, each set-up's wall time and each one's time in
    reference seconds (scaled by the mean of the samples before and after it).
    """
    wall, ref, env = [], [], None
    before = calib.sample()
    for _ in range(SETUP_REPEATS):
        if env is not None:
            wl.teardown(env)
        t0 = time.perf_counter()
        env = wl.setup()
        wall.append(time.perf_counter() - t0)
        after = calib.sample()
        ref.append(wall[-1] * calib.REFERENCE_S * 2 / (before + after))
        before = after
    return env, wall, ref


def interquartile_mean(values) -> float:
    """Mean of the values left when the lowest and highest quarter are dropped."""
    ordered = sorted(values)
    k = len(ordered) // 4
    return statistics.fmean(ordered[k:len(ordered) - k])


def end_to_end_metrics(wl, setup_s, setup_ref, complete):
    """Metrics, and a note on each, of an untraced run; times in reference seconds."""
    metrics = {
        "setup_s": (statistics.median(setup_ref), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = {"setup_s": f"{wl.setup_doc}, median of {len(setup_s)}; "
                        f"wall median {statistics.median(setup_s):.4f} s",
             "peak_rss_mb": "high-water resident memory of the run"}
    for phase, what in zip(PHASES, wl.phase_names):
        wall = statistics.median(r.phases[phase] for r in complete)
        ref = [r.reference_s(phase) for r in complete]
        metrics[f"{phase}_s"] = (interquartile_mean(ref), "s")
        notes[f"{phase}_s"] = (f"{what}, interquartile mean of {len(complete)} rounds; "
                               f"wall median {wall:.4f} s")
    return metrics, notes


def per_layer_metrics(tracing, tracer, rounds, failures, lines, out):
    """Per-round means of the traced rounds' counts; spans go to spans.jsonl."""
    traced = [r for r in rounds if r.traced]
    values = tracing.layer_metrics({k: v / len(traced) for k, v in tracer.totals.items()})
    units = {name: unit for name, unit, _ in tracing.metric_specs()}
    traced_wall = sum(r.wall_s for r in traced)
    self_total = sum(v for k, v in tracer.totals.items() if k.endswith(".self_s"))
    if self_total > traced_wall:
        failures.append(f"layer self times {self_total} s exceed the traced wall {traced_wall} s")
    lines.append(f"  layer self time {self_total / len(traced):.4f} s of "
                 f"{traced_wall / len(traced):.4f} s traced wall per round")
    walls = {t: [r.wall_s for r in rounds if r.traced == t and not r.failed] for t in (True, False)}
    if walls[True] and walls[False]:
        overhead = statistics.median(walls[True]) - statistics.median(walls[False])
        lines.append(f"  tracing overhead {overhead:.4f} s per round "
                     f"(median traced minus median untraced round)")
    if tracer.missing:
        lines.append(f"  not in the program, reported as 0: {', '.join(tracer.missing)}")
    (out / "spans.jsonl").write_text(
        "".join(json.dumps(s) + "\n" for s in tracer.spans()), encoding="utf-8")
    return {k: (v, units[k]) for k, v in values.items()}, {}


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        gclbench = import_program()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import numpy
    import scipy

    import tracer as tracing
    from workloads import MAX_IN_FLIGHT, WORKLOADS

    out = OUT_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    wl = WORKLOADS[args.workload](args.seed, out)
    tracer = tracing.Tracer() if args.trace else None

    env, setup_s, setup_ref = timed_setups(wl)
    try:
        ref = wl.reference(env)
        rounds, n_checks, failures = measure(wl, env, ref, args.seconds, tracer)
        complete = [r for r in rounds if not r.failed]
        n_self, accepted = self_test(wl, env, ref, complete[0]) if complete else (0, [])
    finally:
        wl.teardown(env)

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    if not complete:
        print(f"error: every round had a failed operation ({failed} of {attempted})", file=sys.stderr)
        return 1

    lines = [f"workload {wl.name}, seed {args.seed}: {len(rounds)} rounds "
             f"({len(complete)} complete), trace {args.trace}"]
    lines.append(f"checks: {n_checks - len(failures)} of {n_checks} passed; self-test: "
                 f"{n_self - len(accepted)} of {n_self} corrupted outputs rejected")
    failures += accepted
    if tracer is None:
        metrics, notes = end_to_end_metrics(wl, setup_s, setup_ref, complete)
    else:
        metrics, notes = per_layer_metrics(tracing, tracer, rounds, failures, lines, out)
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        lines.append(f"  {name} = {value:.6g} {unit}{note}")
    lines += wl.notes(env, complete[0])
    lines.append(f"operations: attempted {attempted}, failed {failed}")
    lines += [f"FAILED {f}" for f in failures]

    detail = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "setup_s": setup_s, "setup_reference_s": setup_ref, "failures": failures,
        "rounds": [{"traced": r.traced, "wall_s": r.wall_s, "phases": r.phases,
                    "calib_s": r.calib_s, "phase_samples": r.phase_samples,
                    "counts": r.counts, "attempted": r.attempted, "failed": r.failed}
                   for r in rounds],
        "environment": {
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "gclbench": gclbench.__version__,
            "blas_threads": BLAS_THREADS, "max_in_flight": MAX_IN_FLIGHT,
            "cpu_count": os.cpu_count(), "calib_reference_s": calib.REFERENCE_S,
        },
        "metrics": {k: v for k, (v, _) in metrics.items()},
    }
    (out / "result.json").write_text(json.dumps(detail, indent=1), encoding="utf-8")

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
