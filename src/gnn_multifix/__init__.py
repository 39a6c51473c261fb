"""Transductive multi-label node classification from feature, label, and
positional information, with baselines, synthetic generators, and
training-dynamics instrumentation."""

import os as _os

# GMFX_THREADS (1 when unset) caps worker threads, including the BLAS pools
# numpy picks up at import time, so it must be applied before numpy loads.
# The artifacts' bytes depend on the BLAS thread count, so an unset variable
# gives the same bytes as GMFX_THREADS=1; OpenBLAS would read a value that is
# not a positive integer as "every core".
_threads = _os.environ.get("GMFX_THREADS") or "1"
if not (_threads.isascii() and _threads.isdigit() and int(_threads) > 0):
    raise ValueError(f"GMFX_THREADS must be a positive integer, got {_threads!r}")
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    _os.environ.setdefault(_var, _threads)

from .baselines import TRAINED_BASELINES, BaselineOutput, majority_vote
from .evaluation import (
    AtypicalNode,
    DynamicsLog,
    EvalReport,
    atypical_node_report,
    average_precision,
    checkpoint_epochs,
    evaluate,
    export_dynamics,
    homophily_recovery,
    import_dynamics,
)
from .graph import (
    Dataset,
    Graph,
    SparseMatrix,
    label_homophily,
    label_homophily_stats,
    make_dataset,
    make_splits,
    sym_norm_adjacency,
)
from .io import load_dataset, read_probability_csv, save_dataset, write_probability_csv
from .model import (
    ModelConfig,
    MultiFixModel,
    Representations,
    bce_loss,
    compute_representations,
    forward,
    load_model,
    model_loss_and_grads,
    predict,
    save_model,
    substitute_features,
    train,
)
from .positional import (
    WalkCorpus,
    generate_walks,
    positional_distinguishability,
    train_skipgram,
)
from .propagation import init_label_matrix, propagate_features, propagate_labels
from .synthgen import (
    SynthSpec,
    generate_dataset,
    generate_features,
    generate_graph,
    generate_labels,
    generate_position_benchmark,
)

__all__ = [
    "AtypicalNode",
    "BaselineOutput",
    "Dataset",
    "DynamicsLog",
    "EvalReport",
    "Graph",
    "ModelConfig",
    "MultiFixModel",
    "Representations",
    "SparseMatrix",
    "SynthSpec",
    "TRAINED_BASELINES",
    "WalkCorpus",
    "atypical_node_report",
    "average_precision",
    "bce_loss",
    "checkpoint_epochs",
    "compute_representations",
    "evaluate",
    "export_dynamics",
    "forward",
    "generate_dataset",
    "generate_features",
    "generate_graph",
    "generate_labels",
    "generate_position_benchmark",
    "generate_walks",
    "homophily_recovery",
    "import_dynamics",
    "init_label_matrix",
    "label_homophily",
    "label_homophily_stats",
    "load_dataset",
    "load_model",
    "majority_vote",
    "make_dataset",
    "make_splits",
    "model_loss_and_grads",
    "positional_distinguishability",
    "predict",
    "propagate_features",
    "propagate_labels",
    "read_probability_csv",
    "save_dataset",
    "save_model",
    "substitute_features",
    "sym_norm_adjacency",
    "train",
    "train_skipgram",
    "write_probability_csv",
]
