"""Graph continual-learning engine and benchmark harness.

Builds class-incremental session plans over text-attributed graphs, trains
GNN and prototype-based methods sequentially, audits task-ID leakage under
local testing, and reports the standard continual-learning metrics.
"""

from .evaluation import AccuracyMatrix, evaluate, leakage_diagnostic, summarize, write_report
from .graph import (
    EgoGraph,
    TextAttributedGraph,
    gcn_normalized_adjacency,
    induced_subgraph,
    laplacian_smooth,
    load_tag,
    sample_ego_graph,
    save_tag,
)
from .prototypes import (
    PrototypeBank,
    TaskPrototypeSet,
    build_prototypes,
    predict_task_id,
    teen_calibrate,
)
from .sessions import (
    EvalTask,
    SessionPlan,
    build_eval_task,
    filter_classes,
    plan_digest,
    plan_fsncil,
    plan_ncil,
)
from .synth import SynthConfig, synth_tag
from .trainers import METHOD_IDS, RunResult, run_method

__version__ = "0.1.0"

__all__ = [
    "AccuracyMatrix",
    "EgoGraph",
    "EvalTask",
    "METHOD_IDS",
    "PrototypeBank",
    "RunResult",
    "SessionPlan",
    "SynthConfig",
    "TaskPrototypeSet",
    "TextAttributedGraph",
    "build_eval_task",
    "build_prototypes",
    "evaluate",
    "filter_classes",
    "gcn_normalized_adjacency",
    "induced_subgraph",
    "laplacian_smooth",
    "leakage_diagnostic",
    "load_tag",
    "plan_digest",
    "plan_fsncil",
    "plan_ncil",
    "predict_task_id",
    "run_method",
    "sample_ego_graph",
    "save_tag",
    "summarize",
    "synth_tag",
    "teen_calibrate",
    "write_report",
    "__version__",
]
