"""Run one `gmfx` command in this process with spans around the package's calls.

Usage:
    python3 perfbench/traced.py SPANS_JSON RUN_ID GMFX_ARGS...

The package is imported unchanged. Each public function is replaced, at the
module attribute its caller looks it up by, with a wrapper that records a
span: name, start, end, parent span and the run id. A few spans also carry a
count measured at the same boundary (pairs extracted, the bytes of the
temporary a sparse product builds). Spans stay in memory and are written to
SPANS_JSON when the command returns; `run.py` derives the per-layer numbers
from them.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time


class Tracer:
    """Collects nested spans of one run; single-threaded, like the program."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    def wrap(self, owner, attr: str, name: str, count=None):
        """Replace owner.attr with a span-recording wrapper.

        count(bound_arguments, result) returns a dict of extra numbers to
        store on the span.
        """
        fn = getattr(owner, attr)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "parent": self._open[-1] if self._open else None,
                "name": name,
                "run": self.run_id,
            }
            self.spans.append(span)
            self._open.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
            if count is not None:
                span.update(count(signature.bind(*args, **kwargs).arguments, result))
            return result

        setattr(owner, attr, wrapper)


def _matmul_tmp(arguments, result):
    # matmul_dense materialises values[:, None] * X[col_idx]: nnz x width float64
    width = result.shape[1] if result.ndim == 2 else 1
    return {"tmp_bytes": arguments["self"].nnz * width * 8}


def _pairs(arguments, result):
    return {"pairs": int(len(result))}


def _skipgram_epochs(arguments, result):
    return {"epochs": int(arguments["epochs"])}


def install(tracer: Tracer):
    from gnn_multifix import cli, evaluation, graph, model, positional

    points = [
        (cli, "cmd_train", "cli.cmd_train", None),
        (cli, "cmd_generate", "cli.cmd_generate", None),
        (cli, "_dump_json", "cli.dump_json", None),
        (cli, "generate_dataset", "synthgen.generate_dataset", None),
        (cli, "save_dataset", "io.save_dataset", None),
        (cli, "load_dataset", "io.load_dataset", None),
        (cli, "write_probability_csv", "io.write_probability_csv", None),
        (cli, "make_splits", "graph.make_splits", None),
        (cli, "compute_representations", "model.compute_representations", None),
        (cli, "train", "model.train", None),
        (cli, "predict", "model.predict", None),
        (cli, "save_model", "model.save_model", None),
        (cli, "evaluate", "evaluation.evaluate", None),
        (cli, "export_dynamics", "evaluation.export_dynamics", None),
        (model, "compute_representations", "model.compute_representations", None),
        (model, "model_loss_and_grads", "model.loss_and_grads", None),
        (model, "forward", "model.forward", None),
        (model, "average_precision", "evaluation.average_precision", None),
        (model, "sym_norm_adjacency", "graph.sym_norm_adjacency", None),
        (model, "substitute_features", "graph.substitute_features", None),
        (model, "propagate_features", "propagation.propagate_features", None),
        (model, "propagate_labels", "propagation.propagate_labels", None),
        (model, "generate_walks", "positional.generate_walks", None),
        (model, "train_skipgram", "positional.train_skipgram", _skipgram_epochs),
        (positional, "corpus_pairs", "positional.corpus_pairs", _pairs),
        (evaluation, "average_precision", "evaluation.average_precision", None),
        (graph.SparseMatrix, "matmul_dense", "graph.matmul_dense", _matmul_tmp),
    ]
    for owner, attr, name, count in points:
        tracer.wrap(owner, attr, name, count)
    return cli


def main(argv: list[str]) -> int:
    spans_path, run_id, gmfx_args = argv[0], argv[1], argv[2:]
    tracer = Tracer(run_id)
    cli = install(tracer)
    rc = cli.main(gmfx_args)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"run": run_id, "module": cli.__file__, "spans": tracer.spans}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
