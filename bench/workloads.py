"""The three benchmark workloads: set-up, one timed round, and output checks.

A round runs the same operations every time, grouped into three phases whose
wall times are the end-to-end metrics phase1_s, phase2_s and phase3_s:

  gnn_train     gcn local run | ewc local run | lwf local run
  proto_route   cosine + teen local runs | tpp_heads + meanpool_tpp global
                runs | leakage_diagnostic(k_grid=1,2,4,8)
  prompt_embed  emit_instruction_jsonl for every session | simplecil +
                simgcl_proto with an empty cache (cold) | the same two runs
                again on the filled cache (warm)

Each workload loads some layers and bypasses others (see README.md), so a
change to one layer moves the workloads that use it and leaves the rest flat.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import calib
import checks
import gclbench
from gclbench import embeddings, prompts, stub_server

# 50 epochs, not the library default of 200, so a run fits about ten rounds
# and each metric averages that many samples (see README.md).
EPOCHS = 50
CLASSES_PER_SESSION = 2
NUM_SESSIONS = 3
# 1800 nodes, average degree about 9; the large graph keeps that degree at 3x the nodes.
SMALL_GRAPH = dict(num_classes=6, nodes_per_class=300, feature_dim=64,
                   intra_p=0.02, inter_p=0.002)
LARGE_GRAPH = dict(num_classes=6, nodes_per_class=900, feature_dim=64,
                   intra_p=0.02 / 3, inter_p=0.002 / 3)
K_GRID = (1, 2, 4, 8)
FANOUTS = (20, 20)
STUB_DIM = 32
DATASET = "synth"
# The provider's concurrency, never above the CPU count (BLAS is pinned in run.py).
MAX_IN_FLIGHT = max(1, min(2, os.cpu_count() or 1))


@dataclass
class Env:
    """What one set-up builds: the session plan and, where used, the provider."""

    plan: object
    server: object = None


@dataclass
class Round:
    """Phase wall times, operation outputs and counts of one round.

    A calibration sample (calib.py) is taken before each operation and once
    more when the round ends, so every phase lies between samples.
    """

    phases: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    wall_s: float = 0.0
    traced: bool = False
    calib_s: list = field(default_factory=list)
    phase_samples: dict = field(default_factory=dict)

    def op(self, phase: str, name: str, fn, tracer=None):
        """Run one operation, adding its wall time to its phase."""
        self.calib_s.append(calib.sample())
        self.phase_samples.setdefault(phase, []).append(len(self.calib_s) - 1)
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = fn()
            else:
                with tracer.span("bench." + name):
                    out = fn()
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None
        self.phases[phase] = self.phases.get(phase, 0.0) + time.perf_counter() - t0
        self.outputs[name] = out
        return out

    def finish(self) -> None:
        """Take the sample that closes the last phase."""
        self.calib_s.append(calib.sample())

    def reference_s(self, phase: str) -> float:
        """The phase's wall time in reference seconds.

        Scaled by the mean of the samples taken around the phase: the one
        before each of its operations and the one after its last.
        """
        idx = self.phase_samples[phase]
        around = self.calib_s[idx[0]:idx[-1] + 2]
        return self.phases[phase] * calib.REFERENCE_S * len(around) / sum(around)


class StubProcess:
    """The bundled stub provider in a child process (see stub_proc.py)."""

    def __init__(self, dim: int):
        src = Path(gclbench.__file__).resolve().parent.parent
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("stub_proc.py")), str(src), str(dim)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.endpoint = self._proc.stdout.readline().strip()
        if not self.endpoint:
            self.close()
            raise RuntimeError("stub provider process did not start")

    @property
    def request_count(self) -> int:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        return int(self._proc.stdout.readline())

    def close(self) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


def _plan(graph_cfg: dict, seed: int, shots: int, test_cap: int = 500):
    g = gclbench.synth_tag(gclbench.SynthConfig(seed=seed, **graph_cfg))
    return gclbench.plan_ncil(g, CLASSES_PER_SESSION, NUM_SESSIONS, shots,
                              test_cap=test_cap, seed=seed)


def _matrix_digest(result) -> list:
    return [result.method, result.mode, result.matrix.rows, result.summary]


class Workload:
    name = ""
    setup_doc = "graph synthesis and plan building"
    phase_names: tuple[str, str, str] = ("", "", "")

    def __init__(self, seed: int, out: Path):
        self.seed = seed
        self.out = out

    def setup(self) -> Env:
        raise NotImplementedError

    def teardown(self, env: Env) -> None:
        pass

    def run(self, env: Env, method: str, mode: str, config: dict | None = None):
        return gclbench.run_method(method, env.plan, dict(config or {"epochs": EPOCHS}),
                                   mode=mode, seed=self.seed, dataset=DATASET)

    def reference(self, env: Env) -> dict:
        """Oracle values for this seed, computed once per run."""
        raise NotImplementedError

    def round(self, env: Env, tracer=None) -> Round:
        raise NotImplementedError

    def checks(self, env: Env, ref: dict, rnd: Round) -> list:
        """(label, check function, arguments) for every check on one round."""
        raise NotImplementedError

    def corruptions(self, env: Env, ref: dict, rnd: Round) -> list:
        """(label, check function, arguments) the check must reject."""
        raise NotImplementedError

    def notes(self, env: Env, rnd: Round) -> list[str]:
        """Observations printed with the metrics; they do not decide correctness."""
        return []

    def digest(self, rnd: Round):
        """What must repeat exactly between rounds of one run (determinism)."""
        return [_matrix_digest(v) for v in rnd.outputs.values() if hasattr(v, "matrix")]

    @staticmethod
    def matrix_checks(results) -> list:
        out = []
        for r in results:
            out.append((f"{r.method}/{r.mode} triangle", checks.check_triangle, (r,)))
            out.append((f"{r.method}/{r.mode} summary", checks.check_summary, (r,)))
        return out


def _perturbed(result, i: int, j: int, delta: float):
    bad = copy.deepcopy(result)
    bad.matrix.rows[i][j] = min(1.0, max(0.0, bad.matrix.rows[i][j] + delta))
    if bad.matrix.rows[i][j] == result.matrix.rows[i][j]:
        bad.matrix.rows[i][j] += -delta
    return bad


class GnnTrain(Workload):
    """gcn, ewc and lwf in local mode on the 1800-node graph."""

    name = "gnn_train"
    phase_names = ("gcn local run", "ewc local run", "lwf local run")
    methods = ("gcn", "ewc", "lwf")

    def setup(self) -> Env:
        return Env(_plan(SMALL_GRAPH, self.seed, shots=100))

    def reference(self, env):
        nc = checks.nearest_centroid_accuracy(env.plan)
        return {"nc": nc, "floor": 0.9 * nc}

    def round(self, env, tracer=None):
        rnd = Round()
        for phase, m in zip(("phase1", "phase2", "phase3"), self.methods):
            rnd.op(phase, m, lambda m=m: self.run(env, m, "local"), tracer)
        return rnd

    def checks(self, env, ref, rnd):
        results = [rnd.outputs[m] for m in self.methods]
        out = self.matrix_checks(results)
        for r in results:
            out.append((f"{r.method} A[1][1] >= 0.9 x nearest-centroid {ref['nc']:.4f}",
                        checks.check_floor, (r, ref["floor"])))
        return out

    def corruptions(self, env, ref, rnd):
        gcn = rnd.outputs["gcn"]
        bad_shape = copy.deepcopy(gcn)
        bad_shape.matrix.rows[1].append(0.5)
        low = copy.deepcopy(gcn)
        low.matrix.rows[0][0] = ref["floor"] / 2
        return [
            ("row with an extra entry", checks.check_triangle, (bad_shape,)),
            ("perturbed matrix entry vs summary", checks.check_summary, (_perturbed(gcn, 2, 0, 0.01),)),
            ("A[1][1] below the floor", checks.check_floor, (low, ref["floor"])),
        ]


class ProtoRoute(Workload):
    """Prototype and routed methods plus the leakage probe on the 5400-node graph."""

    name = "proto_route"
    phase_names = ("cosine + teen local runs", "tpp_heads + meanpool_tpp global runs",
                   "leakage_diagnostic")

    def setup(self) -> Env:
        return Env(_plan(LARGE_GRAPH, self.seed, shots=100))

    def reference(self, env):
        return {"bounds": checks.global_bounds(env.plan),
                "leakage": checks.leakage_oracle(env.plan, K_GRID)}

    def round(self, env, tracer=None):
        rnd = Round()
        for m in ("cosine", "teen"):
            rnd.op("phase1", m, lambda m=m: self.run(env, m, "local"), tracer)
        for m in ("tpp_heads", "meanpool_tpp"):
            rnd.op("phase2", m, lambda m=m: self.run(env, m, "global"), tracer)
        rnd.op("phase3", "leakage", lambda: gclbench.leakage_diagnostic(
            env.plan, k_grid=K_GRID, config={"epochs": EPOCHS}), tracer)
        return rnd

    def checks(self, env, ref, rnd):
        local = [rnd.outputs["cosine"], rnd.outputs["teen"]]
        routed = [rnd.outputs["tpp_heads"], rnd.outputs["meanpool_tpp"]]
        out = self.matrix_checks(local + routed)
        out += [(f"{r.method} no forgetting", checks.check_no_forgetting, (r,)) for r in local]
        out += [(f"{r.method} global accuracy <= largest session share", checks.check_global_bound,
                 (r, ref["bounds"])) for r in routed]
        leak = rnd.outputs["leakage"]
        out.append(("leakage task-ID accuracy == dense oracle", checks.check_leakage_oracle,
                    (leak, ref["leakage"])))
        out.append(("leakage AF == 0 where routing is perfect", checks.check_leakage_af, (leak,)))
        return out

    def corruptions(self, env, ref, rnd):
        tpp = copy.deepcopy(rnd.outputs["tpp_heads"])
        tpp.matrix.rows[-1][0] = min(1.0, ref["bounds"][-1] + 0.1)
        leak = rnd.outputs["leakage"]
        wrong_tid = copy.deepcopy(leak)
        wrong_tid.entries[0]["task_id_accuracy"] -= 1.0 / NUM_SESSIONS
        wrong_af = copy.deepcopy(leak)
        perfect = [e for e in wrong_af.entries if e["task_id_accuracy"] == 1.0]
        (perfect or wrong_af.entries)[0].update(task_id_accuracy=1.0, af=-0.01)
        return [
            ("perturbed cosine A[3][1]", checks.check_no_forgetting,
             (_perturbed(rnd.outputs["cosine"], 2, 0, 0.01),)),
            ("tpp_heads stage above its bound", checks.check_global_bound, (tpp, ref["bounds"])),
            ("leakage task-ID accuracy off by one session", checks.check_leakage_oracle,
             (wrong_tid, ref["leakage"])),
            ("leakage AF != 0 under perfect routing", checks.check_leakage_af, (wrong_af,)),
        ]

    def digest(self, rnd):
        return super().digest(rnd) + [rnd.outputs["leakage"].entries]


class PromptEmbed(Workload):
    """Ego-graph prompt emission and the provider-embedding methods, cold then warm."""

    name = "prompt_embed"
    setup_doc = "graph synthesis, plan building and stub server start"
    phase_names = ("emit_instruction_jsonl, every session", "simplecil + simgcl_proto, cold cache",
                   "simplecil + simgcl_proto, warm cache")
    methods = ("simplecil", "simgcl_proto")
    # 10 shots and 40 test nodes per class keep one round near 3 s on this
    # graph; at 100 shots and 200 test nodes a round takes about 50 s.
    shots = 10
    test_cap = 40

    def setup(self) -> Env:
        plan = _plan(SMALL_GRAPH, self.seed, shots=self.shots, test_cap=self.test_cap)
        return Env(plan, StubProcess(STUB_DIM))

    def teardown(self, env):
        env.server.close()

    @property
    def cache_path(self) -> Path:
        return self.out / "embeddings.cache.bin"

    def _config(self, env):
        return {
            "sample_num": self.shots,  # >= shots: prototypes use every train node
            "fanouts": list(FANOUTS),
            "cache_path": str(self.cache_path),
            "provider": {"kind": "http", "endpoint": env.server.endpoint, "model": "stub",
                         "max_in_flight": MAX_IN_FLIGHT},
        }

    def _cache_bytes(self) -> int:
        return self.cache_path.stat().st_size if self.cache_path.exists() else 0

    def reference(self, env):
        plan = env.plan
        nodes = sorted({n for s in plan.sessions for n in (*s.train_nodes, *s.test_nodes)})
        emb = stub_server.deterministic_embedding
        return {
            "nbrs": checks.neighbours(plan.graph),
            "simplecil": checks.simplecil_oracle(plan, STUB_DIM, emb),
            "nodes": nodes,
            "vectors": checks.text_embeddings(plan, nodes, STUB_DIM, emb),
        }

    def round(self, env, tracer=None):
        rnd = Round()
        template = prompts.default_template(DATASET, hops=len(FANOUTS))
        paths = [self.out / f"session{i}.jsonl" for i in range(env.plan.num_sessions)]
        for i, path in enumerate(paths):
            rnd.op("phase1", f"emit{i}", lambda i=i, path=path: prompts.emit_instruction_jsonl(
                env.plan, i, template, path, seed=self.seed, fanouts=FANOUTS), tracer)
        self.cache_path.unlink(missing_ok=True)
        config = self._config(env)
        for phase, tag in (("phase2", "cold"), ("phase3", "warm")):
            before = env.server.request_count
            for m in self.methods:
                rnd.op(phase, f"{m}_{tag}", lambda m=m: self.run(env, m, "local", config), tracer)
            rnd.counts[f"requests_{tag}"] = env.server.request_count - before
            rnd.counts[f"cache_bytes_{tag}"] = self._cache_bytes()
        if tracer is not None:
            tracer.count("stub_server.requests",
                         rnd.counts["requests_cold"] + rnd.counts["requests_warm"])
        rnd.outputs["records"] = [
            [json.loads(line) for line in p.read_text(encoding="utf-8").splitlines()]
            if p.exists() else [] for p in paths
        ]
        return rnd

    def _cached_vectors(self, env, nodes):
        """simplecil's text vectors as get_or_embed serves them from the warm cache."""
        src = embeddings.HttpSource(endpoint=env.server.endpoint, model="stub",
                                    max_in_flight=MAX_IN_FLIGHT)
        before = env.server.request_count
        vecs = embeddings.get_or_embed(src, nodes, lambda n: env.plan.graph.texts[n],
                                       str(self.cache_path))
        return vecs, env.server.request_count - before

    def checks(self, env, ref, rnd):
        results = [rnd.outputs[f"{m}_{t}"] for t in ("cold", "warm") for m in self.methods]
        out = self.matrix_checks(results)
        for i, records in enumerate(rnd.outputs["records"]):
            out.append((f"session {i} emission: one record per train node, class-name answers",
                        checks.check_emission, (records, env.plan, i)))
            out.append((f"session {i} ego hops are neighbours within fanout",
                        checks.check_ego_prompts, (records, ref["nbrs"], FANOUTS)))
        for t in ("cold", "warm"):
            out.append((f"simplecil {t} == embedding oracle", checks.check_rows_equal,
                        (rnd.outputs[f"simplecil_{t}"], ref["simplecil"], "oracle")))
        for m in self.methods:
            out.append((f"{m} warm == cold", checks.check_rows_equal,
                        (rnd.outputs[f"{m}_warm"], rnd.outputs[f"{m}_cold"].matrix.rows, "cold")))
            out.append((f"{m} local AF == 0", checks.check_no_forgetting, (rnd.outputs[f"{m}_cold"],)))
        c = rnd.counts
        out.append(("warm pass: no provider requests, cache file unchanged", checks.check_warm_pass,
                    (c["requests_warm"], c["cache_bytes_cold"], c["cache_bytes_warm"])))
        vecs, requests = self._cached_vectors(env, ref["nodes"])
        out.append(("cached vectors bit-identical to the provider's", checks.check_vectors,
                    (vecs, ref["vectors"])))
        out.append(("cached vectors need no provider request", checks.check_warm_pass,
                    (requests, 0, 0)))
        return out

    def corruptions(self, env, ref, rnd):
        records = rnd.outputs["records"][0]
        wrong_answer = copy.deepcopy(records)
        other = [n for n in env.plan.graph.class_names if n != wrong_answer[0]["answer"]]
        wrong_answer[0]["answer"] = other[0]
        vecs = ref["vectors"].copy()
        vecs[0, 0] = np.nextafter(vecs[0, 0], np.float32(np.inf))
        simplecil = rnd.outputs["simplecil_cold"]
        return [
            ("a dropped record", checks.check_emission, (records[1:], env.plan, 0)),
            ("a wrong answer", checks.check_emission, (wrong_answer, env.plan, 0)),
            ("a prompt naming a non-neighbour", checks.check_ego_prompts,
             (self._non_neighbour_prompt(records, ref["nbrs"]), ref["nbrs"], FANOUTS)),
            ("perturbed simplecil entry vs oracle", checks.check_rows_equal,
             (_perturbed(simplecil, 1, 1, 0.01), ref["simplecil"], "oracle")),
            ("warm matrix differs from cold", checks.check_rows_equal,
             (_perturbed(rnd.outputs["simgcl_proto_warm"], 2, 2, 0.01),
              rnd.outputs["simgcl_proto_cold"].matrix.rows, "cold")),
            ("a warm provider request", checks.check_warm_pass, (1, 0, 0)),
            ("a vector that differs by one float", checks.check_vectors, (vecs, ref["vectors"])),
            ("perturbed simgcl_proto A[2][1]", checks.check_no_forgetting,
             (_perturbed(rnd.outputs["simgcl_proto_cold"], 1, 0, 0.01),)),
        ]

    @staticmethod
    def _non_neighbour_prompt(records, nbrs):
        """The first record with a hop-1 node, that node swapped for a non-neighbour."""
        for i, r in enumerate(records):
            center, hops = checks.parse_ego(r["prompt"])
            if hops and hops[0]:
                named = {center, *(n for hop in hops for n in hop)}
                stranger = next(n for n in range(len(nbrs))
                                if n not in nbrs[center] and n not in named)
                bad = copy.deepcopy(records)
                bad[i]["prompt"] = r["prompt"].replace(
                    f"[1][Record {hops[0][0]}:", f"[1][Record {stranger}:", 1)
                return bad
        raise RuntimeError("no prompt has a hop-1 node to corrupt")

    def notes(self, env, rnd):
        shares = [checks.future_class_share(records, env.plan, i)
                  for i, records in enumerate(rnd.outputs["records"])]
        return ["  share of ego nodes in emitted prompts whose class arrives in a later "
                "session, per session: " + ", ".join(f"{s:.3f}" for s in shares)]

    def digest(self, rnd):
        return super().digest(rnd) + [rnd.outputs["records"]]


WORKLOADS = {w.name: w for w in (GnnTrain, ProtoRoute, PromptEmbed)}
