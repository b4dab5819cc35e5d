"""Reference outputs: the numbers the harness reports, on a few small plans.

    python tests/reference.py           # recompute and list every entry that moved
    python tests/reference.py --write   # regenerate tests/reference_outputs.json

`test_reference.py` recomputes the outputs and compares them with the
committed file exactly. A change that moves an output on purpose regenerates
the file in the same commit and names each changed entry.

The plans are chosen to tell the methods apart:
- "sep1" (class_sep 1) leaves every matrix unsaturated; `ewc` differs from
  `gcn` at its strength, and every GCN method depends on the dropout stream;
- "sep0" (class_sep 0) is a plan on which plain-mean routing picks the wrong
  session while laplacian routing does not, so `tpp_heads` and `meanpool_tpp`
  differ;
- "fsncil" gives `teen` a base session larger than its novel ones;
- "sep1-full" is "sep1" with eval_edges "full_union": global tasks that keep
  the edges between sessions, for gcn, cosine, tpp_heads and (on the stub
  provider, "sep1-full-stub") simgcl_proto, whose ego samples are seeded by
  union-local id.

The "graphs" entries pin the bytes `synth_tag` writes (features, edges,
texts) for the sep1 and sep0 graphs and for a 1800-node graph of the
gnn_train benchmark's shape, so a faster generator must draw the same graph.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

if __name__ == "__main__":  # run as a script from the root of a checkout
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from gclbench.evaluation import leakage_diagnostic  # noqa: E402
from gclbench.graph import save_tag  # noqa: E402
from gclbench.prompts import default_template, emit_instruction_jsonl  # noqa: E402
from gclbench.sessions import EVAL_EDGES_FULL, plan_digest, plan_fsncil, plan_ncil  # noqa: E402
from gclbench.stub_server import StubEmbeddingServer  # noqa: E402
from gclbench.synth import SynthConfig, synth_tag  # noqa: E402
from gclbench.trainers import run_method  # noqa: E402

PATH = Path(__file__).with_name("reference_outputs.json")

CONFIG = {"epochs": 40, "hidden_dim": 16, "strength": 100.0}
K_GRID = (0, 1, 2, 4, 8)
GNN_METHODS = ("gcn", "ewc", "lwf", "cosine", "teen", "tpp_heads", "meanpool_tpp")
PROVIDER_METHODS = ("simplecil", "simgcl_proto")
FULL_UNION_METHODS = ("gcn", "cosine", "tpp_heads")
MODES = ("local", "global")
FANOUTS = (3, 3)


def _graphs() -> dict:
    return {
        "sep1": synth_tag(SynthConfig(num_classes=6, nodes_per_class=60, feature_dim=16,
                                      class_sep=1.0, intra_p=0.1, inter_p=0.03, seed=3)),
        "sep0": synth_tag(SynthConfig(num_classes=6, nodes_per_class=24, feature_dim=8,
                                      class_sep=0.0, intra_p=0.3, inter_p=0.3, seed=1002)),
        "gnn_train": synth_tag(SynthConfig(num_classes=6, nodes_per_class=300, feature_dim=64,
                                           intra_p=0.02, inter_p=0.002, seed=1)),
    }


def _plans(graphs: dict) -> dict:
    sep1, sep0 = graphs["sep1"], graphs["sep0"]
    return {
        "sep1": plan_ncil(sep1, 2, 3, 20, test_cap=500, seed=5),
        "sep0": plan_ncil(sep0, 2, 3, 8, seed=2),
        "fsncil": plan_fsncil(sep1, base_classes=2, ways=2, num_sessions=3,
                              shots_base=20, shots_novel=5, seed=4),
    }


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _graph_entry(g) -> dict:
    return {"features_sha256": _sha256(g.features.tobytes()),
            "edges_sha256": _sha256(g.edges.tobytes()),
            "texts_sha256": _sha256("\n".join(g.texts).encode())}


def _plan_entry(plan) -> dict:
    nodes = [[list(s.class_ids), list(s.train_nodes), list(s.test_nodes)] for s in plan.sessions]
    return {"digest": plan_digest(plan), "nodes_sha256": _sha256(json.dumps(nodes).encode())}


def compute() -> dict:
    """Every reference output, as plain JSON values."""
    graphs = _graphs()
    plans = _plans(graphs)
    out: dict = {"graphs": {name: _graph_entry(g) for name, g in graphs.items()},
                 "plans": {name: _plan_entry(p) for name, p in plans.items()},
                 "matrices": {}, "leakage": {}, "emission": {}}
    matrices = out["matrices"]

    def run(label, method, plan, config, mode):
        res = run_method(method, plan, config, mode=mode, seed=0, dataset="reference")
        matrices[f"{label}/{method}/{mode}"] = res.matrix.rows

    for mode in MODES:
        for m in GNN_METHODS:
            run("sep1", m, plans["sep1"], CONFIG, mode)
        for m in ("tpp_heads", "meanpool_tpp"):
            run("sep0", m, plans["sep0"], CONFIG, mode)
    for m in ("cosine", "teen"):
        run("fsncil", m, plans["fsncil"], CONFIG, "local")
    full_union = replace(plans["sep1"], eval_edges=EVAL_EDGES_FULL)
    for m in FULL_UNION_METHODS:
        run("sep1-full", m, full_union, CONFIG, "global")
    for name in ("sep1", "sep0"):
        out["leakage"][name] = leakage_diagnostic(plans[name], K_GRID, CONFIG).entries

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        plan = plans["sep1"]
        template = default_template("reference", len(FANOUTS))
        out["emission"]["sep1"] = []
        for i in range(plan.num_sessions):
            path = tmp / f"session{i}.jsonl"
            emit_instruction_jsonl(plan, i, template, path, seed=0, fanouts=FANOUTS)
            out["emission"]["sep1"].append(_sha256(path.read_bytes()))

        with StubEmbeddingServer(dim=8) as srv:
            provider = {"kind": "http", "endpoint": srv.endpoint, "model": "stub"}
            for m in PROVIDER_METHODS:
                config = dict(CONFIG, provider=provider, fanouts=list(FANOUTS),
                              cache_path=str(tmp / f"{m}.cache.bin"))
                for mode in MODES:
                    run("sep1-stub", m, plan, config, mode)
                if m == "simgcl_proto":
                    run("sep1-full-stub", m, full_union, config, "global")

        save_tag(plan.graph, tmp / "emb")
        (tmp / "emb" / "index.json").write_text(json.dumps(list(range(plan.graph.node_count))))
        provider = {"kind": "file", "matrix": str(tmp / "emb" / "features.bin"),
                    "index": str(tmp / "emb" / "index.json")}
        for m in PROVIDER_METHODS:
            for mode in MODES:
                run("sep1-file", m, plan, dict(CONFIG, provider=provider), mode)
    # Through JSON, so tuples compare equal to the stored lists.
    return json.loads(json.dumps(out))


def mismatches(stored, fresh, path: str = "") -> list[str]:
    """Path and both values of every entry that differs between two output trees."""
    if isinstance(stored, dict) and isinstance(fresh, dict):
        out = []
        for key in sorted(set(stored) | set(fresh)):
            sub = f"{path}/{key}" if path else key
            if key not in fresh:
                out.append(f"{sub}: no longer computed")
            elif key not in stored:
                out.append(f"{sub}: not in the reference file")
            else:
                out += mismatches(stored[key], fresh[key], sub)
        return out
    return [] if stored == fresh else [f"{path}: reference {stored!r}, now {fresh!r}"]


def load() -> dict:
    return json.loads(PATH.read_text(encoding="utf-8"))


def main(argv: list[str]) -> int:
    fresh = compute()
    if argv == ["--write"]:
        PATH.write_text(json.dumps(fresh, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {PATH}")
        return 0
    if argv:
        print("usage: python tests/reference.py [--write]", file=sys.stderr)
        return 2
    diffs = mismatches(load(), fresh)
    for line in diffs:
        print(line)
    print(f"{len(diffs)} entries differ from {PATH.name}")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
