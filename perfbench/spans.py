"""Span tracing from outside the program.

The tracer replaces public ``jitdp`` functions with timing wrappers in the
namespace each caller looks them up in: ``pipeline``, ``deep_model`` and
``fusion`` import with ``from .x import f``, so the wrapper goes on the
importing module; ``deep_model`` reaches ``nn`` through the module, so
those wrappers go on ``jitdp.nn``. Nothing under ``src/`` is edited.

Each span records its name, start, end, parent span and a few attributes
computed from the call's arguments or result. Spans stay in memory and are
written out by the caller when the run ends. ``layer_metrics`` turns the
spans inside the benchmark's own timed roots into the per-layer metrics
named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import contextlib
import functools
import json
from collections import defaultdict
from time import perf_counter

STAGES = ("load", "split", "features", "vocab", "train", "sweep", "evaluate")

# Stage of each public call that run_pipeline makes directly. The forest and
# deep scoring calls belong to the sweep until the sweep log is written and
# to the evaluate stage after it.
_STAGE_OF = {
    "corpus.load_commit_stream": "load",
    "corpus.sort_chronologically": "split",
    "corpus.chronological_split": "split",
    "features.featurize_corpus": "features",
    "features.write_feature_table": "features",
    "features.fit_train_stats": "features",
    "features.split_and_normalize": "features",
    "textprep.build_vocab": "vocab",
    "textprep.save_vocab": "vocab",
    "textprep.tokenize": "vocab",
    "textprep.render_change_document": "vocab",
    "deep_model.build_dataset": "vocab",
    "corpus.undersample": "train",
    "simple_model.train_forest": "train",
    "simple_model.save_forest": "train",
    "deep_model.train_deep": "train",
    "nn.save_params": "train",
    "deep_model.write_train_log": "train",
    "fusion.sweep_combinations": "sweep",
    "fusion.write_sweep_log": "sweep",
    "simple_model.forest_predict_many": "sweep|evaluate",
    "deep_model.score_dataset": "sweep|evaluate",
    "fusion.apply_bundle_rule": "evaluate",
    "evaluation.prf1": "evaluate",
    "evaluation.overlap_analysis": "evaluate",
    "evaluation.correction_analysis": "evaluate",
    "evaluation.wilcoxon_signed_rank": "evaluate",
    "evaluation.group_metric_samples": "evaluate",
    "evaluation.cliffs_delta": "evaluate",
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.attrs = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._undo = []

    def _open(self, name) -> int:
        idx = len(self.spans)
        self.spans.append(Span(name, perf_counter(), self._stack[-1] if self._stack else -1))
        self._stack.append(idx)
        return idx

    def _close(self, idx) -> None:
        self.spans[idx].end = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def root(self, name):
        """Span of one of the benchmark's own timed phases."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, module, attr: str, name: str, describe=None) -> None:
        """Replace module.attr by a timing wrapper; describe(args, kwargs,
        result) returns the span's attributes."""
        fn = getattr(module, attr)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if describe is not None:
                tracer.spans[idx].attrs = describe(args, kwargs, result)
            return result

        setattr(module, attr, wrapper)
        self._undo.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._undo):
            setattr(module, attr, fn)
        self._undo.clear()

    def dump(self, path) -> None:
        rows = [{"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                 **({"attrs": s.attrs} if s.attrs else {})} for s in self.spans]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": rows}, handle)


# ---------------------------------------------------------------------------
# What to wrap
# ---------------------------------------------------------------------------


def _rows(args, kwargs, result):
    return {"rows": len(result)}


def _rows_in(args, kwargs, result):
    return {"rows": len(args[1])}


def _forest_nodes(args, kwargs, result):
    return {"nodes": sum(len(tree) for tree in result.trees)}


def _dataset(args, kwargs, result):
    return pad_counts(result)


def pad_counts(ds) -> dict:
    """Padding facts of an encoded dataset (token id 0 is padding)."""
    file_pad_rows = int((ds.file_ids == 0).all(axis=2).sum())
    pad_tokens = int((ds.file_ids == 0).sum() + (ds.message_ids == 0).sum())
    return {"file_rows": int(ds.file_ids.shape[0] * ds.file_ids.shape[1]),
            "file_pad_rows": file_pad_rows,
            "tokens": int(ds.file_ids.size + ds.message_ids.size),
            "pad_tokens": pad_tokens}


def _textcnn_forward(args, kwargs, result):
    params, prefix, x = args[0], args[1], args[2]
    embedding = kwargs.get("embedding", args[3] if len(args) > 3 else None)
    if x.ndim == 2:
        batch, length = x.shape
        dim = embedding.shape[1]
    else:
        batch, length, dim = x.shape
    banks = {int(n.rsplit(".w", 1)[1]): v.shape[0] for n, v in params.items()
             if n.startswith(f"{prefix}.w")}
    length = max(length, max(banks))
    # Nominal multiply-adds of the window products, 2 flops each.
    flop = sum(2 * batch * (length - k + 1) * k * dim * n_k for k, n_k in banks.items())
    return {"prefix": prefix, "gflop": flop / 1e9}


def _textcnn_backward(args, kwargs, result):
    return {"prefix": args[1]["prefix"]}


def instrument(tracer: Tracer, jitdp) -> None:
    """Install wrappers on every public call the workloads reach."""
    cli, pipeline, deep_model, fusion, nn, evaluation = (
        jitdp.cli, jitdp.pipeline, jitdp.deep_model, jitdp.fusion, jitdp.nn, jitdp.evaluation)
    table = [
        # The benchmark calls these through the module it names.
        (pipeline, "run_pipeline", "pipeline.run_pipeline", None),
        (deep_model, "train_deep", "deep_model.train_deep", None),
        # What `jitdp predict` calls, in the CLI's namespace.
        (cli, "load_bundle", "pipeline.load_bundle", None),
        (cli, "load_commit_stream", "corpus.load_commit_stream", _rows),
        (cli, "predict_commits", "pipeline.predict_commits", _rows),
        (cli, "write_predictions", "pipeline.write_predictions", None),
        # pipeline's own imports
        (pipeline, "load_commit_stream", "corpus.load_commit_stream", _rows),
        (pipeline, "sort_chronologically", "corpus.sort_chronologically", None),
        (pipeline, "chronological_split", "corpus.chronological_split", None),
        (pipeline, "undersample", "corpus.undersample", None),
        (pipeline, "featurize_corpus", "features.featurize_corpus", _rows),
        (pipeline, "write_feature_table", "features.write_feature_table", None),
        (pipeline, "fit_train_stats", "features.fit_train_stats", None),
        (pipeline, "split_and_normalize", "features.split_and_normalize", None),
        (pipeline, "build_vocab", "textprep.build_vocab", None),
        (pipeline, "save_vocab", "textprep.save_vocab", None),
        (pipeline, "load_vocab", "textprep.load_vocab", None),
        (pipeline, "tokenize", "textprep.tokenize", None),
        (pipeline, "render_change_document", "textprep.render_change_document", None),
        (pipeline, "build_dataset", "deep_model.build_dataset", _dataset),
        (pipeline, "train_deep", "deep_model.train_deep", None),
        (pipeline, "score_dataset", "deep_model.score_dataset", _rows),
        (pipeline, "write_train_log", "deep_model.write_train_log", None),
        (pipeline, "save_params", "nn.save_params", None),
        (pipeline, "load_params", "nn.load_params", None),
        (pipeline, "train_forest", "simple_model.train_forest", _forest_nodes),
        (pipeline, "save_forest", "simple_model.save_forest", None),
        (pipeline, "load_forest", "simple_model.load_forest", _forest_nodes),
        (pipeline, "forest_predict_many", "simple_model.forest_predict_many", _rows_in),
        (pipeline, "prf1", "evaluation.prf1", None),
        (pipeline, "overlap_analysis", "evaluation.overlap_analysis", None),
        (pipeline, "correction_analysis", "evaluation.correction_analysis", None),
        (pipeline, "wilcoxon_signed_rank", "evaluation.wilcoxon_signed_rank", None),
        (pipeline, "group_metric_samples", "evaluation.group_metric_samples", None),
        (pipeline, "cliffs_delta", "evaluation.cliffs_delta", None),
        (fusion, "sweep_combinations", "fusion.sweep_combinations", None),
        (fusion, "write_sweep_log", "fusion.write_sweep_log", None),
        (fusion, "apply_bundle_rule", "fusion.apply_bundle_rule", None),
        (fusion, "late_fuse_many", "fusion.late_fuse_many", None),
        # fusion's imports; pr_auc here is the sweep's weight search
        (fusion, "pr_auc", "evaluation.pr_auc", lambda a, k, r: {"caller": "fusion"}),
        (fusion, "prf1", "evaluation.prf1", None),
        # deep_model's module globals and imports
        (deep_model, "forward_batch", "deep_model.forward_batch", None),
        (deep_model, "backward_batch", "deep_model.backward_batch", None),
        (deep_model, "score_dataset", "deep_model.score_dataset", _rows),
        (deep_model, "prf1", "evaluation.prf1", None),
        (deep_model, "early_fuse_forward", "fusion.early_fuse_forward", None),
        (deep_model, "early_fuse_backward", "fusion.early_fuse_backward", None),
        # deep_model reaches nn through the module
        (nn, "textcnn_forward", "nn.textcnn_forward", _textcnn_forward),
        (nn, "textcnn_backward", "nn.textcnn_backward", _textcnn_backward),
        (nn, "embedding_backward", "nn.embedding_backward", None),
        (nn, "classifier_forward", "nn.classifier_forward", None),
        (nn, "classifier_backward", "nn.classifier_backward", None),
        (nn, "cross_entropy_batch", "nn.cross_entropy_batch", None),
        (nn, "dropout", "nn.dropout", None),
        (nn, "adam_step", "nn.adam_step", None),
        # evaluation's module globals, reached from prf1
        (evaluation, "pr_auc", "evaluation.pr_auc", None),
        (evaluation, "roc_auc", "evaluation.roc_auc", None),
    ]
    for module, attr, name, describe in table:
        tracer.wrap(module, attr, name, describe)


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------


def layer_metrics(spans: list[Span], roots: set[str], extra_counts: dict | None = None) -> dict:
    """Per-layer values over the spans inside the named root spans.

    Times are summed over the outermost span of each name, so a function
    that calls itself through another wrapper is not counted twice. Layers
    a workload does not reach read 0.
    """
    inside = [False] * len(spans)
    for i, s in enumerate(spans):
        inside[i] = s.name in roots or (s.parent >= 0 and inside[s.parent])
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)

    def has_ancestor_named(i, name):
        p = spans[i].parent
        while p >= 0:
            if spans[p].name == name:
                return True
            p = spans[p].parent
        return False

    total = defaultdict(float)
    calls = defaultdict(int)
    attr_sum = defaultdict(float)
    for i, s in enumerate(spans):
        if not inside[i] or s.name in roots:
            continue
        calls[s.name] += 1
        if not has_ancestor_named(i, s.name):
            total[s.name] += s.seconds
        for key, val in (s.attrs or {}).items():
            if isinstance(val, (int, float)):
                attr_sum[(s.name, key)] += val
        if s.name in ("nn.textcnn_forward", "nn.textcnn_backward"):
            total[f"{s.name}.{s.attrs['prefix']}"] += s.seconds
        if s.name == "evaluation.pr_auc" and (s.attrs or {}).get("caller") == "fusion":
            calls["fusion.pr_auc"] += 1

    def self_time(name):
        own = 0.0
        for i, s in enumerate(spans):
            if inside[i] and s.name == name:
                own += s.seconds - sum(spans[c].seconds for c in children[i])
        return own

    stage = defaultdict(float)
    for i, s in enumerate(spans):
        if not (inside[i] and s.name == "pipeline.run_pipeline"):
            continue
        swept = False
        for c in children[i]:
            tag = _STAGE_OF.get(spans[c].name)
            if tag is None:
                continue
            if tag == "sweep|evaluate":
                tag = "evaluate" if swept else "sweep"
            if spans[c].name == "fusion.write_sweep_log":
                swept = True
            stage[tag] += spans[c].seconds

    pad = {key: attr_sum[("deep_model.build_dataset", key)] + (extra_counts or {}).get(key, 0)
           for key in ("file_rows", "file_pad_rows", "tokens", "pad_tokens")}

    def ratio(a, b, scale=1.0):
        return scale * a / b if b else 0.0

    forward_s = sum(total[f"nn.textcnn_forward.{p}"] for p in ("msg_cnn", "file_cnn", "agg_cnn"))
    gflop = attr_sum[("nn.textcnn_forward", "gflop")]
    m = {
        "corpus.load_commit_stream_s": total["corpus.load_commit_stream"],
        "corpus.commits_loaded": attr_sum[("corpus.load_commit_stream", "rows")],
        "features.featurize_corpus_s": total["features.featurize_corpus"],
        "features.us_per_commit": ratio(total["features.featurize_corpus"],
                                        attr_sum[("features.featurize_corpus", "rows")], 1e6),
        "textprep.build_vocab_s": total["textprep.build_vocab"],
        "textprep.build_dataset_s": total["deep_model.build_dataset"],
        "textprep.file_row_pad_share": ratio(pad["file_pad_rows"], pad["file_rows"]),
        "textprep.token_pad_share": ratio(pad["pad_tokens"], pad["tokens"]),
        "simple_model.train_forest_s": total["simple_model.train_forest"],
        "simple_model.save_forest_s": total["simple_model.save_forest"],
        "simple_model.load_forest_s": total["simple_model.load_forest"],
        "simple_model.forest_predict_many_s": total["simple_model.forest_predict_many"],
        "simple_model.us_per_row": ratio(total["simple_model.forest_predict_many"],
                                         attr_sum[("simple_model.forest_predict_many", "rows")], 1e6),
        "simple_model.forest_nodes": attr_sum[("simple_model.train_forest", "nodes")]
        + attr_sum[("simple_model.load_forest", "nodes")],
        "deep_model.train_deep_s": total["deep_model.train_deep"],
        "deep_model.forward_batch_s": total["deep_model.forward_batch"],
        "deep_model.backward_batch_s": total["deep_model.backward_batch"],
        "deep_model.score_dataset_s": total["deep_model.score_dataset"],
        "deep_model.steps": calls["deep_model.backward_batch"],
    }
    for p in ("msg_cnn", "file_cnn", "agg_cnn"):
        m[f"nn.textcnn_forward.{p}_s"] = total[f"nn.textcnn_forward.{p}"]
    for p in ("msg_cnn", "file_cnn", "agg_cnn"):
        m[f"nn.textcnn_backward.{p}_s"] = total[f"nn.textcnn_backward.{p}"]
    m.update({
        "nn.textcnn_gflop": gflop,
        "nn.textcnn_forward_gflops": ratio(gflop, forward_s),
        "nn.embedding_backward_s": total["nn.embedding_backward"],
        "nn.classifier_forward_s": total["nn.classifier_forward"],
        "nn.classifier_backward_s": total["nn.classifier_backward"],
        "nn.adam_step_s": total["nn.adam_step"],
        "fusion.early_fuse_forward_s": total["fusion.early_fuse_forward"],
        "fusion.early_fuse_backward_s": total["fusion.early_fuse_backward"],
        "fusion.sweep_combinations_s": total["fusion.sweep_combinations"],
        "fusion.pr_auc_calls": calls["fusion.pr_auc"],
        "fusion.apply_bundle_rule_s": total["fusion.apply_bundle_rule"],
        "evaluation.prf1_s": total["evaluation.prf1"],
        "evaluation.pr_auc_s": total["evaluation.pr_auc"],
    })
    for name in STAGES:
        m[f"pipeline.stage.{name}_s"] = stage[name]
    m.update({
        "pipeline.run_pipeline_self_s": self_time("pipeline.run_pipeline"),
        "pipeline.load_bundle_s": total["pipeline.load_bundle"],
        "pipeline.predict_commits_self_s": self_time("pipeline.predict_commits"),
        "pipeline.write_predictions_s": total["pipeline.write_predictions"],
    })
    return m


# Calls that only orchestrate layer calls: their self time is time no layer
# span accounts for.
ORCHESTRATORS = ("pipeline.run_pipeline", "pipeline.predict_commits", "deep_model.train_deep")


def coverage(spans: list[Span], roots: set[str]) -> float:
    """Share of the timed roots' wall time that layer spans cover: the self
    time of the roots and of the orchestrating calls counts as uncovered."""
    inside = [False] * len(spans)
    child_s = [0.0] * len(spans)
    for i, s in enumerate(spans):
        inside[i] = s.name in roots or (s.parent >= 0 and inside[s.parent])
        if s.parent >= 0:
            child_s[s.parent] += s.seconds
    root_s = uncovered = 0.0
    for i, s in enumerate(spans):
        if not inside[i]:
            continue
        if s.name in roots:
            root_s += s.seconds
        if s.name in roots or s.name in ORCHESTRATORS:
            uncovered += s.seconds - child_s[i]
    return 1.0 - uncovered / root_s if root_s else 0.0
