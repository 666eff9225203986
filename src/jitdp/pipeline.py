"""End-to-end experiment orchestration, and serving of the bundle it
writes. run_pipeline loads the corpus; then, for it and for each of its
large-commit drops (in drop_<rate>/), it splits and featurizes it, and runs
each split (each fold in fold_<f>/) through these stages, in order:

  features  config.json, features.csv, train_ids.txt; the train z-stats
  vocab     vocab.txt; the encoded train, validation and test datasets
  train     sim_forest.ckpt, com.ckpt, fused_<s>.ckpt, <model>_train_log.csv
  sweep     sweep_log.csv; the chosen fusion
  bundle    bundle.json
  evaluate  metrics.csv, metrics.json, predictions.csv

and then writes provenance.log. Whatever a stage raises, an output it
cannot write included, is one PipelineError naming the stage. Re-running a
config on the same corpus bytes writes the same artifacts, worker or not
and wherever the corpus file lies (config_hash covers its sha256, not its
path); only config.json records the paths. At full-scale widths they
depend on BLAS threads and stack layout (train_deep).
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import mmap
import os
import pickle
import signal
import sys
import warnings
from contextlib import contextmanager
from dataclasses import asdict, astuple, dataclass, field, fields, replace
from itertools import repeat
from pathlib import Path

import numpy as np

from . import fusion
from .corpus import (
    DataError,
    chronological_split,
    drop_large_commits,
    load_commit_stream,
    sort_chronologically,
    stratified_kfold,
    undersample,
    write_csv,
)
from .deep_model import (
    DeepConfig,
    build_dataset,
    model_heads,
    score_dataset,
    stack_params,
    textcnn_layouts,
    train_deep,
    write_train_log,
)
from .evaluation import (
    MetricReport,
    cliffs_delta,
    correction_analysis,
    group_metric_samples,
    overlap_analysis,
    prf1,
    wilcoxon_signed_rank,
)
from .explain import explain_instance
# split_and_normalize is not called here; perfbench/spans.py wraps it in this namespace.
from .features import (  # noqa: F401
    FEATURE_NAMES,
    HistoryIndex,
    TrainStats,
    featurize_corpus,
    fit_train_stats,
    normalize_features,
    split_and_normalize,
    write_feature_table,
)
from .nn import load_params, save_params
from .simple_model import (
    ForestConfig,
    forest_predict_many,
    load_forest,
    save_forest,
    train_forest,
)
from .textprep import (
    PAD_ID,
    TextShape,
    Vocab,
    build_vocab,
    encode_commits,
    load_vocab,
    render_change_document,
    save_vocab,
    tokenize,
)

BUNDLE_FORMAT = "jitdp-bundle v2"


class PipelineError(RuntimeError):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs; defaults are the desk-scale micro setup.

    The full-scale deep configuration (embed_dim 64, 64 filters, hidden
    512, lr 5e-5, batch 64, 30 epochs, dropout 0.5, shapes 64/256/8) is
    reachable by overriding the corresponding fields.
    """

    corpus: str = ""
    out: str = "artifacts"
    seed: int = 0
    split_mode: str = "chronological"  # or "kfold"
    ratios: tuple = (0.75, 0.05, 0.20)
    folds: int = 5
    l_msg: int = 24
    l_code: int = 48
    files: int = 4
    vocab_max_size: int = 20_000
    vocab_min_frequency: int = 2
    embed_dim: int = 8
    filters: int = 8
    windows: tuple = (1, 2, 3)
    hidden: int = 32
    dropout: float = 0.25
    lr: float = 4e-3
    batch_size: int = 32
    epochs: int = 10
    gmf_beta: float = 1.0
    forest_trees: int = 100
    early_strategies: tuple = ("sc", "tc", "amf", "gmf")
    drop_rates: tuple = ()

    def _sub_config(self, cls):
        return cls(**{f.name: getattr(self, f.name) for f in fields(cls)})

    def deep_config(self) -> DeepConfig:
        return self._sub_config(DeepConfig)

    def text_shape(self) -> TextShape:
        return self._sub_config(TextShape)

    def as_dict(self) -> dict:
        return {k: list(v) if k in _TUPLE_FIELDS else v for k, v in asdict(self).items()}


# The RunConfig fields held as tuples, which JSON holds as lists.
_TUPLE_FIELDS = ("ratios", "windows", "early_strategies", "drop_rates")


def config_from_dict(d: dict) -> RunConfig:
    """The RunConfig of a JSON object. A value of the wrong type or out of
    range is a ValueError naming its key; an unknown key is a TypeError."""
    d = dict(d)
    for key, (check, what) in _CONFIG_FIELDS.items():
        if key in d and not check(d[key]):
            raise ValueError(f"run config entry '{key}' must be {what}, not {d[key]!r}")
    return RunConfig(**{k: tuple(v) if k in _TUPLE_FIELDS else v for k, v in d.items()})


def config_hash(config: RunConfig, corpus_sha256: str) -> str:
    """Hash of what the computation reads: every field but the two paths,
    and the sha256 of the corpus file's bytes in place of its path. Where
    the corpus lies or the artifacts land cannot change their bytes."""
    d = config.as_dict()
    d.pop("out", None)
    d["corpus"] = corpus_sha256
    blob = json.dumps(d, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def _sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(obj, handle, sort_keys=True, indent=1)
        handle.write("\n")


def _train_documents(commits):
    """Each commit's message tokens, then its change documents, one at a
    time, so the vocabulary counter never holds them all."""
    for c in commits:
        yield tokenize(c.message)
        for f in c.files:
            yield render_change_document(f)


def _dataset(commits, vocab: Vocab, shape: TextShape, x_cat, x_cont, ids=None):
    """build_dataset with the normalized feature rows of the same commits."""
    return replace(build_dataset(commits, vocab, shape, ids=ids), x_cat=x_cat, x_cont=x_cont)


def _model_scores(sim_scores, deep_params, deep_cfg: DeepConfig, early_strategies, ds,
                  layouts=None, heads=None) -> dict:
    """Each model's scores of the same commits: "sim" is the forest's
    sim_scores, then "com" and one "fused_<s>" per early strategy come from
    one pass of the stack ("none", *early_strategies) over the dataset ds;
    layouts and heads are as in score_dataset."""
    deep = score_dataset(deep_params, deep_cfg, ds, ("none", *early_strategies), layouts=layouts,
                         heads=heads)
    return {"sim": sim_scores, "com": deep[:, 0],
            **{f"fused_{s}": deep[:, m] for m, s in enumerate(early_strategies, 1)}}


def _workers_available() -> bool:
    """Whether _beside forks: on Linux, with at least 2 CPUs in this
    process's affinity mask (so `taskset -c 0` keeps every stage here)."""
    return sys.platform == "linux" and len(os.sched_getaffinity(0)) >= 2


def _beside(work, own, alone=None):
    """(work(), own()), with work() run in a forked child while this process
    runs own(), where _workers_available(); elsewhere both run here, work()
    first, or, given alone, alone() stands for the pair. work()'s result
    comes back pickled through a pipe, and what it raises is raised here (a
    RuntimeError, if the exception does not survive pickling, or if the
    child dies). If own() raises, the child is killed. Either way the child
    is reaped before this returns. A fork that fails (no process or memory
    to spare) runs them here."""
    def here():
        return (work(), own()) if alone is None else alone()

    if not _workers_available():
        return here()
    read_fd, write_fd = os.pipe()
    try:
        with warnings.catch_warnings():
            # Python 3.12 warns on every fork of a process whose BLAS has
            # started threads; the child runs work() in this thread alone
            # and leaves by os._exit.
            warnings.filterwarnings("ignore", r"This process .* is multi-threaded",
                                    DeprecationWarning)
            pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return here()
    if pid == 0:
        os.close(read_fd)
        _worker_main(work, write_fd)
    os.close(write_fd)
    finished = False
    try:
        with os.fdopen(read_fd, "rb") as pipe:
            mine = own()
            reply = pipe.read()
        finished = True
    finally:
        if not finished:
            os.kill(pid, signal.SIGKILL)
        _, status = os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code < 0:
        raise RuntimeError(f"worker process killed by signal {-code} ({signal.strsignal(-code)})")
    if code:
        raise RuntimeError(f"worker process exited with status {code}")
    ok, value = pickle.loads(reply)
    if not ok:
        raise value
    return value, mine


def _worker_main(work, write_fd) -> None:
    """The forked child of _beside: run work(), send (True, result) or
    (False, exception) down the pipe, and leave without returning."""
    status = 1
    try:
        try:
            reply = pickle.dumps((True, work()), pickle.HIGHEST_PROTOCOL)
        except BaseException as exc:  # every failure goes back to the parent
            try:
                reply = pickle.dumps((False, exc), pickle.HIGHEST_PROTOCOL)
                pickle.loads(reply)
            except Exception:  # an exception that does not survive pickling
                reply = pickle.dumps((False, RuntimeError(f"{type(exc).__name__}: {exc}")))
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(reply)
        status = 0
    finally:
        os._exit(status)


@contextmanager
def writing():
    """An output path that cannot be made or written is a ValueError
    naming it, which the CLI reports as a usage error."""
    try:
        yield
    except OSError as exc:
        raise ValueError(f"cannot write {exc.filename}: {exc.strerror}") from exc


def run_pipeline(config: RunConfig, until: str = "evaluate") -> Path:
    """Run the experiment described by the config; returns the artifact
    directory. `until` stops after 'features', 'train', or 'sweep' for the
    staged CLI commands. The directory is made once the corpus has loaded;
    one that cannot be made is a ValueError naming it."""
    corpus = _stage("load", load_commit_stream, config.corpus)
    digest = _stage("load", _sha256_file, config.corpus)
    out = Path(config.out)
    with writing():
        out.mkdir(parents=True, exist_ok=True)
    for sub, rate in [(out, None), *((out / f"drop_{r:g}", r) for r in config.drop_rates)]:
        part = corpus if rate is None else _stage("drop", drop_large_commits, corpus, rate)
        ordered = sort_chronologically(part)
        splits = _stage("split", _split_rows, ordered, config)
        features = _stage("features", featurize_corpus, ordered)
        for f, rows in enumerate(splits):
            run_out = sub / f"fold_{f}" if config.split_mode == "kfold" else sub
            notes = _run_once(ordered, features, digest, config, run_out, until, rows)
            _stage("write", (run_out / "provenance.log").write_text, "\n".join(notes) + "\n",
                   encoding="utf-8")
    return out


def _stage(stage, fn, *args, **kwargs):
    """fn(*args, **kwargs); what it raises is a PipelineError naming the stage."""
    try:
        with writing():
            return fn(*args, **kwargs)
    except Exception as exc:
        raise PipelineError(stage, exc) from exc


def _split_rows(ordered, config: RunConfig) -> list:
    """(train, validation, test) row positions into the chronologically
    ordered corpus, each ascending: one split in chronological mode, one per
    fold in k-fold mode, where the commits outside the fold are cut into
    train and validation at the ratio of those two."""
    if config.split_mode == "chronological":
        # chronological_split cuts this same order into consecutive parts.
        split = chronological_split(ordered, config.ratios)
        n_train, n_val = len(split.train_ids), len(split.validation_ids)
        return [tuple(np.split(np.arange(len(ordered)), [n_train, n_train + n_val]))]
    if config.split_mode != "kfold":
        raise ValueError(f"unknown split mode '{config.split_mode}'")
    if any(c.label is None for c in ordered):
        raise DataError("k-fold mode needs fully labeled corpora")
    folds = stratified_kfold({c.commit_id: c.label for c in ordered}, config.folds, config.seed)
    fold_of = np.array([folds[c.commit_id] for c in ordered])
    share = config.ratios[0] / (config.ratios[0] + config.ratios[1])
    splits = []
    for f in range(config.folds):
        rest = np.flatnonzero(fold_of != f)
        n_train = int(np.floor(len(rest) * share))
        if n_train == 0 or n_train == len(rest):
            raise DataError("fold split leaves an empty train or validation part")
        splits.append((rest[:n_train], rest[n_train:], np.flatnonzero(fold_of == f)))
    return splits


def _run_once(ordered, features, corpus_sha256: str, config: RunConfig, out: Path, until: str,
              rows) -> list:
    """One run on one split of the featurized corpus, given as row
    positions, through the stage `until`; returns the provenance.log lines.
    The leakage audit: no line before 'evaluate' declares reading test labels."""
    train, val, test = rows
    cfg_hash = config_hash(config, corpus_sha256)
    provenance = f"{cfg_hash}:{config.seed}"
    notes = [f"load: {len(ordered)} commits, corpus sha256 {corpus_sha256}",
             f"split: train={len(train)} validation={len(val)} test={len(test)} "
             f"(ids and timestamps only, no labels read)"]
    stats = _stage("features", _features, ordered, features, config, cfg_hash, provenance, train, out)
    notes.append("features: feature table over all commits; z-stats from train rows only")
    if until == "features":
        return notes
    x_all = features.matrix
    vocab, datasets = _stage("vocab", _vocab, ordered, x_all, stats, rows, config, out)
    notes.append(f"vocab: {len(vocab)} entries from train messages and change documents")
    sim, deep_params = _stage("train", _train, ordered, x_all, train, datasets, len(vocab),
                              config, out)
    notes.append("train: sim on undersampled train; deep models on train with "
                 "validation-based checkpoint selection")
    if until == "train":
        return notes
    best = _stage("sweep", _sweep, sim, deep_params, x_all[val], datasets[1], config, out)
    _stage("bundle", _write_bundle, best, stats, len(vocab), config, provenance, out)
    notes.append(f"sweep: 20-cell sweep on validation AUC-PR; chose early={best.early} "
                 f"late={best.late}")
    if until == "sweep":
        return notes
    _stage("evaluate", _evaluate, sim, deep_params, best, x_all[test], datasets[2], config,
           provenance, out)
    notes.append("evaluate: test labels read here, first and only time")
    return notes


def _features(ordered, features, config, cfg_hash, provenance, train, out) -> TrainStats:
    """Make the run directory, write its tables, and fit the z-stats."""
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "config.json", {"config": config.as_dict(), "hash": cfg_hash, "seed": config.seed})
    write_feature_table(out / "features.csv", ordered, features)
    (out / "train_ids.txt").write_text("\n".join(ordered[j].commit_id for j in train) + "\n",
                                       encoding="utf-8")
    return fit_train_stats(features.matrix[train], split="train", provenance=provenance)


def _vocab(ordered, x_all, stats, rows, config, out) -> tuple:
    """(vocab, datasets): the train documents' vocabulary and the splits it encodes."""
    vocab = build_vocab(_train_documents(ordered[j] for j in rows[0]), config.vocab_max_size,
                        config.vocab_min_frequency)
    save_vocab(out / "vocab.txt", vocab)
    x_cat, x_cont = normalize_features(x_all, stats)
    shape = config.text_shape()
    return vocab, [_dataset([ordered[j] for j in r], vocab, shape, x_cat[r], x_cont[r]) for r in rows]


def _train(ordered, x_all, train, datasets, vocab_size, config, out) -> tuple:
    """(forest, stacked deep params of the commit model and one early-fused
    model per strategy). From four models on, a worker fits the forest and
    trains the first half of the stack while this process trains the rest;
    below that it fits only the forest. Deep training holds one BLAS thread,
    so no process takes the other's core and no sum depends on where a model
    trains. Without a worker the stack trains in one call."""
    train_ds, val_ds, _ = datasets
    row_of = {ordered[j].commit_id: j for j in train}
    labels = {i: ordered[j].label for i, j in row_of.items()}
    balanced = sorted(undersample(row_of, labels, config.seed))
    # At full-scale widths a lone model's heads sum in another order
    # than a stacked model's, so the cut keeps each part at two models
    # or more (the M = 1 versus M > 1 layout in the README).
    stack = ("none", *config.early_strategies)
    half = len(stack) // 2 if len(stack) >= 4 else 0

    def forest():
        return train_forest(x_all[[row_of[i] for i in balanced]],
                            np.array([labels[i] for i in balanced]),
                            ForestConfig(n_trees=config.forest_trees), seed=config.seed)

    def deep(part):
        with _one_blas_thread():
            return train_deep(train_ds, val_ds, vocab_size, config.deep_config(), seed=config.seed,
                              strategy=part)

    (sim, trained), more = _beside(lambda: (forest(), deep(stack[:half]) if half else []),
                                   lambda: deep(stack[half:]),
                                   alone=lambda: ((forest(), []), deep(stack)))
    trained += more
    save_forest(out / "sim_forest.ckpt", sim)
    names = ["com"] + [f"fused_{s}" for s in config.early_strategies]
    for name, (params, log) in zip(names, trained):
        save_params(out / f"{name}.ckpt", params)
        write_train_log(out / f"{name}_train_log.csv", log)
    return sim, stack_params([params for params, _ in trained])


def _sweep(sim, deep_params, x_val, val_ds, config, out):
    """The best cell of the 20-cell fusion sweep on the validation split."""
    val_scores = _model_scores(forest_predict_many(sim, x_val), deep_params, config.deep_config(),
                               config.early_strategies, val_ds)
    result = fusion.sweep_combinations(
        val_ds.labels, val_scores["sim"], val_scores["com"],
        {s: val_scores[f"fused_{s}"] for s in config.early_strategies})
    fusion.write_sweep_log(out / "sweep_log.csv", result)
    return result.best


def _write_bundle(best, stats, vocab_size, config, provenance, out) -> None:
    """The chosen fusion, its artifacts' checksums, the z-stats and shapes."""
    artifacts = {"sim": "sim_forest.ckpt", "com": "com.ckpt", "vocab": "vocab.txt",
                 "features": "features.csv", "train_ids": "train_ids.txt"}
    if best.early != "none":
        artifacts["early_model"] = f"fused_{best.early}.ckpt"
    _write_json(out / "bundle.json", {
        "format": BUNDLE_FORMAT,
        "provenance": provenance,
        "early": best.early,
        "late": best.late,
        "weights": best.weights,
        "artifacts": artifacts,
        "checksums": {k: _sha256_file(out / v) for k, v in artifacts.items()},
        "stats": {"mean": list(stats.mean), "std": list(stats.std), "split": stats.split,
                  "provenance": stats.provenance},
        "deep_config": asdict(config.deep_config()),
        "text_shape": asdict(config.text_shape()),
        "vocab_size": vocab_size,
    })


def _evaluate(sim, deep_params, best, x_test, test_ds, config, provenance, out) -> None:
    """Score the test split with every model and the bundle, and report."""
    y_test = test_ds.labels
    scores = _model_scores(forest_predict_many(sim, x_test), deep_params, config.deep_config(),
                           config.early_strategies, test_ds)
    scores["bundle"] = fusion.apply_bundle_rule(best.early, best.late, best.weights, scores["sim"],
                                                scores["com"], scores.get(f"fused_{best.early}"))

    reports = {name: prf1(vals, y_test) for name, vals in scores.items()}
    classes = {name: (vals > 0.5).astype(int) for name, vals in scores.items()}
    analysis = {"overlap_sim_vs_com": asdict(overlap_analysis(classes["sim"], classes["com"], y_test))}
    for comp in ("sim", "com"):
        analysis[f"correction_bundle_vs_{comp}"] = asdict(
            correction_analysis(classes["bundle"], classes[comp], y_test))
    try:
        stat, p = wilcoxon_signed_rank(scores["sim"], scores["com"])
        analysis["wilcoxon_sim_vs_com_scores"] = {"statistic": stat, "p_value": p}
    except ValueError as exc:
        analysis["wilcoxon_sim_vs_com_scores"] = {"error": str(exc)}
    try:
        groups = {}
        for name in ("sim", "com", "bundle"):
            rocs, prs, _ = group_metric_samples(scores[name], y_test, k=10, seed=config.seed)
            groups[name] = {"auc_roc": rocs, "auc_pr": prs}
        analysis["group_samples"] = groups
        for comp in ("sim", "com"):
            delta, mag = cliffs_delta(groups["bundle"]["auc_pr"], groups[comp]["auc_pr"])
            analysis[f"cliffs_delta_bundle_vs_{comp}_auc_pr"] = {"delta": delta, "magnitude": mag}
    except ValueError as exc:
        analysis["group_samples"] = {"error": str(exc)}

    write_csv(out / "metrics.csv", ",".join(["model", *(f.name for f in fields(MetricReport))]),
              ([name, *astuple(reports[name])] for name in sorted(reports)))
    _write_json(out / "metrics.json", {
        "provenance": provenance,
        "reports": {k: asdict(v) for k, v in sorted(reports.items())},
        "analysis": analysis,
    })
    names = sorted(scores)
    write_csv(out / "predictions.csv", ",".join(["commit_id", "label", *names]),
              zip(test_ds.commit_ids, y_test.tolist(), *(scores[n].tolist() for n in names)))


# ---------------------------------------------------------------------------
# Bundle loading and prediction on a commit stream
# ---------------------------------------------------------------------------


@dataclass
class LoadedBundle:
    """A trained bundle, ready to serve. Construction makes the deep
    parameters read-only and derives their textCNN layouts and each deep
    model's heads once, so that scoring a commit does not redo what depends
    on the bundle alone."""

    early: str
    late: str
    weights: tuple | None
    sim: object
    deep_params: dict  # the commit model, stacked with the early-fused model if any
    vocab: Vocab
    stats: TrainStats
    deep_cfg: DeepConfig
    shape: TextShape
    provenance: str
    deep_layouts: dict = field(init=False, repr=False)
    deep_heads: list = field(init=False, repr=False)

    def __post_init__(self):
        for value in self.deep_params.values():
            value.flags.writeable = False
        self.deep_layouts = textcnn_layouts(self.deep_params)
        self.deep_heads = model_heads(self.deep_params, 1 if self.early == "none" else 2)


def load_bundle(manifest_path) -> LoadedBundle:
    """The bundle a pipeline run wrote. A manifest or artifact that cannot
    be read, a manifest that is not JSON, and an artifact that does not load
    are each a DataError naming the file; a manifest entry that is missing
    or has the wrong shape is one naming the entry."""
    manifest_path = Path(manifest_path)
    try:
        return _load_bundle(manifest_path)
    except OSError as exc:
        raise DataError(f"cannot read {exc.filename}: {exc.strerror}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DataError(f"bundle manifest {manifest_path} is not valid JSON: {exc}") from exc
    except KeyError as exc:
        raise DataError(f"bundle manifest {manifest_path} has no entry {exc}") from exc


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return _is_int(v) or isinstance(v, float)


_STRING = (lambda v: isinstance(v, str), "a string")
_NUMBER = (_is_number, "a number")
_POSITIVE_INT = (lambda v: _is_int(v) and v > 0, "a positive integer")
# One statistic per continuous feature: all but the fix flag.
_N_CONTINUOUS = len(FEATURE_NAMES) - 1
_FEATURE_VALUES = (lambda v: isinstance(v, list) and len(v) == _N_CONTINUOUS
                   and all(map(_is_number, v)), f"a list of {_N_CONTINUOUS} numbers")
# The fields of each object entry, with what each value must be.
_OBJECT_ENTRIES = {
    "stats": {"mean": _FEATURE_VALUES, "std": _FEATURE_VALUES, "split": _STRING,
              "provenance": _STRING},
    "deep_config": {
        "embed_dim": _POSITIVE_INT, "filters": _POSITIVE_INT,
        "windows": (lambda v: isinstance(v, (list, tuple)) and len(v) > 0
                    and all(map(_POSITIVE_INT[0], v)), "a non-empty list of positive integers"),
        "hidden": _POSITIVE_INT,
        "dropout": (lambda v: _is_number(v) and 0 <= v < 1, "a number in [0, 1)"), "lr": _NUMBER,
        "batch_size": _POSITIVE_INT, "epochs": _POSITIVE_INT, "gmf_beta": _NUMBER,
    },
    "text_shape": {"l_msg": _POSITIVE_INT, "l_code": _POSITIVE_INT, "files": _POSITIVE_INT},
}


def _list_of(ok, what, length=None):
    """A check that a value is a list (or tuple) of items that pass ok."""
    return (lambda v: isinstance(v, (list, tuple)) and (length is None or len(v) == length)
            and all(map(ok, v)), what)


_NON_NEGATIVE_INT = (lambda v: _is_int(v) and v >= 0, "a non-negative integer")
_RATIOS = _list_of(lambda r: _is_number(r) and r > 0, "a list of 3 positive numbers", 3)
# What each RunConfig value must be; the deep model's and the encoding's
# fields are checked as in a bundle manifest.
_CONFIG_FIELDS = {
    "corpus": _STRING, "out": _STRING, "seed": _NON_NEGATIVE_INT,
    "split_mode": (lambda v: v in ("chronological", "kfold"), "chronological or kfold"),
    # the sum within chronological_split's tolerance
    "ratios": (lambda v: _RATIOS[0](v) and abs(sum(v) - 1.0) <= 1e-9,
               "a list of 3 positive numbers that sum to 1"),
    "folds": _POSITIVE_INT, "vocab_max_size": _POSITIVE_INT,
    "vocab_min_frequency": _NON_NEGATIVE_INT, "forest_trees": _POSITIVE_INT,
    "early_strategies": _list_of(lambda s: s in fusion.EARLY_STRATEGIES and s != "none",
                                 "a list of early strategies other than none"),
    "drop_rates": _list_of(lambda r: _is_number(r) and 0 <= r < 1, "a list of numbers in [0, 1)"),
    **_OBJECT_ENTRIES["deep_config"], **_OBJECT_ENTRIES["text_shape"],
}


def _check_manifest(manifest, manifest_path: Path) -> None:
    """A DataError naming the first entry the loader cannot use: a value of
    the wrong JSON type, an unknown fusion name, weights that are not one
    positive number per fused model, statistics that are not one per
    continuous feature, an object with other keys than its fields, or a
    size that is not a positive integer. A missing entry is a KeyError."""
    if not isinstance(manifest, dict):
        raise DataError(f"bundle manifest {manifest_path} is not a JSON object")
    if manifest.get("format") != BUNDLE_FORMAT:
        raise DataError(f"unsupported bundle format: {manifest.get('format')!r}")

    def require(name, ok, what):
        if not ok:
            raise DataError(f"bundle manifest {manifest_path}: entry '{name}' must be {what}")

    early, late, weights = manifest["early"], manifest["late"], manifest["weights"]
    require("early", early in fusion.EARLY_STRATEGIES, "one of " + ", ".join(fusion.EARLY_STRATEGIES))
    require("late", late in fusion.LATE_RULES, "one of " + ", ".join(fusion.LATE_RULES))
    if late == "weighted":
        n_models = 2 if early == "none" else 3
        require("weights", isinstance(weights, list) and len(weights) == n_models
                and all(_is_number(w) and w > 0 for w in weights),
                f"a list of {n_models} positive numbers, one per fused model")
    else:
        require("weights", weights is None, f"null under late rule '{late}'")
    require("provenance", isinstance(manifest["provenance"], str), "a string")
    for name in ("artifacts", "checksums"):
        entry = manifest[name]
        require(name, isinstance(entry, dict) and all(map(_STRING[0], entry.values())),
                "an object of strings")
    for name, entry_fields in _OBJECT_ENTRIES.items():
        entry = manifest[name]
        require(name, isinstance(entry, dict) and entry.keys() == entry_fields.keys(),
                "an object with exactly the keys " + ", ".join(entry_fields))
        for key, (check, what) in entry_fields.items():
            require(f"{name}.{key}", check(entry[key]), what)


def _load_bundle(manifest_path: Path) -> LoadedBundle:
    base = manifest_path.parent
    with open(manifest_path, encoding="utf-8") as handle:
        manifest = json.load(handle)
    _check_manifest(manifest, manifest_path)
    artifacts = manifest["artifacts"]
    for key, rel in artifacts.items():
        actual = _sha256_file(base / rel)
        if actual != manifest["checksums"][key]:
            raise DataError(f"provenance mismatch: artifact '{key}' ({rel}) does not match "
                            f"the bundle manifest checksum")

    def load(key, loader):
        try:
            return loader(base / artifacts[key])
        except ValueError as exc:
            raise DataError(f"malformed artifact '{key}' ({artifacts[key]}): {exc}") from exc

    stats_d = manifest["stats"]
    if stats_d["provenance"] != manifest["provenance"]:
        raise DataError("provenance mismatch: feature statistics come from a different run")
    dc = dict(manifest["deep_config"])
    dc["windows"] = tuple(dc["windows"])
    cfg = DeepConfig(**dc)
    shape = TextShape(**manifest["text_shape"])
    vocab = load("vocab", load_vocab)
    early = manifest["early"]
    deep = [load("com", load_params)]
    if early != "none":
        deep.append(load("early_model", load_params))
    return LoadedBundle(
        early=early,
        late=manifest["late"],
        weights=None if manifest["weights"] is None else tuple(manifest["weights"]),
        sim=load("sim", load_forest),
        deep_params=stack_params(deep),
        vocab=vocab,
        stats=TrainStats(mean=np.array(stats_d["mean"]), std=np.array(stats_d["std"]),
                         split=stats_d["split"], provenance=stats_d["provenance"]),
        deep_cfg=cfg,
        shape=shape,
        provenance=manifest["provenance"],
    )


# Commits that predict_commits featurizes, encodes and scores together. A
# multiple of score_dataset's 256-row pass and of the forest's 256-row
# block, so that every pass covers the rows it covers in one pass over the
# whole stream, and the scores keep their bits.
PREDICT_CHUNK = 2048


def predict_commits(bundle: LoadedBundle, corpus) -> list:
    """Score a commit stream with a trained bundle. History-dependent
    features are computed within the given stream (chronological pass).
    Returns rows (commit_id, fused, class, sim, com, early-or-None) in the
    input order. Two commits with one id are a DataError naming it.

    The sorted stream is scored in chunks of PREDICT_CHUNK commits, so that
    no stage holds more than one chunk's arrays. Where the stream is longer
    than one chunk, a worker (_beside) encodes the text one chunk ahead."""
    if not corpus:
        return []
    ordered = sort_chronologically(corpus)
    pos = {}
    for j, c in enumerate(ordered):
        if pos.setdefault(c.commit_id, j) != j:
            raise DataError(f"duplicate commit_id '{c.commit_id}' in the stream")
    chunks = [ordered[a:a + PREDICT_CHUNK] for a in range(0, len(ordered), PREDICT_CHUNK)]
    scores = (_score_encoded_ahead(bundle, chunks) if len(chunks) > 1
              else _score_chunks(bundle, chunks, repeat(None)))
    early_scores = scores.get(f"fused_{bundle.early}")
    fused = fusion.apply_bundle_rule(bundle.early, bundle.late, bundle.weights,
                                     scores["sim"], scores["com"], early_scores)
    at = np.array([pos[c.commit_id] for c in corpus])
    fused = fused.take(at)
    early = repeat(None) if early_scores is None else early_scores.take(at).tolist()
    return list(zip([c.commit_id for c in corpus], fused.tolist(),
                    (fused > 0.5).astype(np.int64).tolist(), scores["sim"].take(at).tolist(),
                    scores["com"].take(at).tolist(), early))


def _score_chunks(bundle: LoadedBundle, chunks, ids) -> dict:
    """_model_scores of the chunks, joined in order. Each chunk is
    featurized against one history of the chunks before it, then its
    forest scores are taken, and only then is its (message_ids, file_ids)
    pair drawn from the iterator ids (None: encode the chunk here)."""
    history = HistoryIndex() if len(chunks) > 1 else None  # None: nothing to carry
    early = () if bundle.early == "none" else (bundle.early,)
    parts = []
    for chunk in chunks:
        x = featurize_corpus(chunk, history).matrix
        sim_scores = forest_predict_many(bundle.sim, x)
        ds = _dataset(chunk, bundle.vocab, bundle.shape, *normalize_features(x, bundle.stats),
                      ids=next(ids))
        parts.append(_model_scores(sim_scores, bundle.deep_params, bundle.deep_cfg, early, ds,
                                   bundle.deep_layouts, bundle.deep_heads))
    if len(parts) == 1:  # one chunk, such as one commit: no copies
        return parts[0]
    return {name: np.concatenate([p[name] for p in parts]) for name in parts[0]}


def _score_encoded_ahead(bundle: LoadedBundle, chunks) -> dict:
    """_score_chunks, with a forked worker encoding chunk k + 1 while this
    process scores chunk k. The worker writes each chunk's ids into the
    other of two chunk-sized slots shared with this process; one byte down
    a pipe says a chunk is ready, and one byte back says its slot is free
    again. The slots hold ids as int16, or as int32 for a vocabulary of
    more than 2**15 entries: scoring only gathers embedding rows by them
    and compares them with PAD_ID, so every score keeps its bits. Where no
    worker can be forked, every chunk is encoded here."""
    shape = bundle.shape
    dtype = np.int16 if len(bundle.vocab) <= 2**15 else np.int32
    slots = [(_shared_zeros((PREDICT_CHUNK, shape.l_msg), dtype),
              _shared_zeros((PREDICT_CHUNK, shape.files, shape.l_code), dtype)) for _ in range(2)]
    ready, free = _pipe(), _pipe()

    def slot(k):
        return tuple(a[:len(chunks[k])] for a in slots[k % 2])

    def encode():
        ready[0].close()
        free[1].close()
        for k, chunk in enumerate(chunks):
            if k >= 2 and not free[0].read(1):
                return  # this process is gone
            ids = slot(k)
            for a in ids:
                a.fill(PAD_ID)
            encode_commits(chunk, bundle.vocab, shape, out=ids)
            ready[1].write(b"\0")

    def encoded():
        for k in range(len(chunks)):
            if not ready[0].read(1):
                raise EOFError  # the worker failed before chunk k
            yield slot(k)
            if k + 2 < len(chunks):
                free[1].write(b"\0")

    def score():
        ready[1].close()
        free[0].close()
        try:
            with _one_blas_thread():
                return _score_chunks(bundle, chunks, encoded())
        except (EOFError, BrokenPipeError):
            return None  # the worker is gone; _beside raises what it raised

    try:
        _, scores = _beside(encode, score,
                            alone=lambda: (None, _score_chunks(bundle, chunks, repeat(None))))
    finally:
        for end in (*ready, *free):
            end.close()
    return scores


def _pipe() -> tuple:
    """A new pipe's (read, write) ends as unbuffered binary files."""
    read_fd, write_fd = os.pipe()
    return open(read_fd, "rb", buffering=0), open(write_fd, "wb", buffering=0)


def _shared_zeros(shape, dtype) -> np.ndarray:
    """An array of zeros (PAD_ID) in an anonymous shared mapping, so that
    what a forked child writes into it shows here."""
    count = int(np.prod(shape))
    return np.frombuffer(mmap.mmap(-1, np.dtype(dtype).itemsize * count), dtype, count).reshape(shape)


def _openblas():
    """(get, set) for the thread count of the OpenBLAS this process has
    loaded, found by its symbols among the libraries mapped into the
    process; None where no OpenBLAS is loaded."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            libs = sorted({ln.split()[-1] for ln in handle if "openblas" in ln and ".so" in ln})
    except OSError:
        return None
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            get = getattr(handle, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(handle, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = (), ctypes.c_int
                set_.argtypes, set_.restype = (ctypes.c_int,), None
                return get, set_
    return None


@contextmanager
def _one_blas_thread():
    """Hold this process's OpenBLAS to one thread within the block, and
    restore its thread count after; nothing where no OpenBLAS is loaded.
    Beside a busy worker, a second BLAS thread contends for the worker's
    core: on 2 CPUs next to a busy process, deep scoring of 16,000 commits
    took 1.14 s with two threads, 0.49 s with one (0.44 and 0.45 s with
    the other CPU idle)."""
    blas = _openblas()
    if blas is None:
        yield
        return
    get, set_ = blas
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


PREDICTIONS_HEADER = "commit_id,fused_score,class,sim_score,com_score,early_score"


def write_predictions(path, rows) -> None:
    """The rows of predict_commits as a CSV file, under PREDICTIONS_HEADER."""
    write_csv(path, PREDICTIONS_HEADER, rows)


def explain_commit(bundle: LoadedBundle, corpus, commit_id: str,
                   train_matrix: np.ndarray, n_samples: int = 1000, seed: int = 0):
    """Local surrogate explanation of the simple model's score for one commit."""
    ordered = sort_chronologically(corpus)
    vectors = featurize_corpus(ordered)
    if commit_id not in vectors:
        raise DataError(f"commit '{commit_id}' not present in the stream")
    return explain_instance(lambda rows: forest_predict_many(bundle.sim, rows),
                            vectors[commit_id].as_array(), train_matrix,
                            n_samples=n_samples, seed=seed)


def read_feature_table(path) -> tuple:
    """(ids, matrix, labels) from a features.csv written by the pipeline."""
    with open(path, encoding="utf-8") as handle:
        if handle.readline().strip().split(",")[0] != "commit_id":
            raise DataError(f"{path} is not a feature table: its header must start with commit_id")
        ids, rows, labels = [], [], []
        for line in handle:
            parts = line.rstrip("\n").split(",")
            ids.append(parts[0])
            rows.append([float(v) for v in parts[1:15]])
            labels.append(None if parts[15] == "" else int(parts[15]))
    return ids, np.array(rows), labels
