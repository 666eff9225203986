"""The forked worker of pipeline._beside: what it computes equals what the
same work computes in process, its failures reach the caller, and no child
outlives the call that made it. predict_commits' chunked rows, with the
worker and without it, equal those of one pass over the whole stream."""

import json
import os
import pickle
import signal
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from jitdp import deep_model, fusion, pipeline
from jitdp.cli import main
from jitdp.corpus import (DataError, SyntheticSpec, save_commit_stream, sort_chronologically,
                          synthesize_corpus)
from jitdp.deep_model import TrainingError
from jitdp.features import featurize_corpus, normalize_features
from jitdp.pipeline import PipelineError, RunConfig, load_bundle, predict_commits, run_pipeline
from jitdp.simple_model import forest_predict_many
from jitdp.textprep import Vocab

TINY = dict(l_msg=16, l_code=32, files=3, embed_dim=6, filters=6, hidden=12, epochs=1,
            batch_size=32, lr=4e-3, dropout=0.25, forest_trees=10, seed=4)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(autouse=True)
def forks(monkeypatch):
    """Every test may fork, whatever the CPU count; each fork is recorded,
    and each must find no other child alive. After the test no child is
    left, not even one waiting to be reaped."""
    made = []
    real_fork = os.fork

    def fork():
        _no_child_left()
        pid = real_fork()
        if pid:
            made.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(pipeline, "_workers_available", lambda: True)
    yield made
    _no_child_left()


@pytest.fixture(scope="module")
def acceptance_bundle(acceptance_corpus, tmp_path_factory):
    """A one-epoch bundle trained on the acceptance corpus; sc+weighted, so
    every row has a sim, a com and an early score."""
    base = tmp_path_factory.mktemp("worker")
    save_commit_stream(base / "corpus.jsonl", acceptance_corpus)
    config = RunConfig(corpus=str(base / "corpus.jsonl"), out=str(base / "run"),
                       **{**TINY, "l_msg": 24, "l_code": 48, "files": 4, "embed_dim": 8,
                          "filters": 8, "hidden": 32, "seed": 5})
    run_pipeline(config, until="sweep")
    return load_bundle(base / "run" / "bundle.json")


def _one_pass(bundle, commits) -> list:
    """predict_commits' rows as one pass over the whole stream scores them:
    one featurize_corpus call, one dataset and one _model_scores call."""
    ordered = sort_chronologically(commits)
    x = featurize_corpus(ordered).matrix
    ds = pipeline._dataset(ordered, bundle.vocab, bundle.shape,
                           *normalize_features(x, bundle.stats))
    early = () if bundle.early == "none" else (bundle.early,)
    scores = pipeline._model_scores(forest_predict_many(bundle.sim, x), bundle.deep_params,
                                    bundle.deep_cfg, early, ds, bundle.deep_layouts,
                                    bundle.deep_heads)
    early_scores = scores.get(f"fused_{bundle.early}")
    fused = fusion.apply_bundle_rule(bundle.early, bundle.late, bundle.weights, scores["sim"],
                                     scores["com"], early_scores).tolist()
    sim, com = scores["sim"].tolist(), scores["com"].tolist()
    early_scores = [None] * len(ordered) if early_scores is None else early_scores.tolist()
    rows = {c.commit_id: (c.commit_id, fused[j], int(fused[j] > 0.5), sim[j], com[j], early_scores[j])
            for j, c in enumerate(ordered)}
    return [rows[c.commit_id] for c in commits]


def _blas_threads():
    """The OpenBLAS thread count of this process, or None without OpenBLAS."""
    blas = pipeline._openblas()
    return None if blas is None else blas[0]()


def _assert_blas_threads(before):
    if before is not None:
        assert _blas_threads() == before


def _no_fork():
    raise OSError("fork: cannot allocate memory")


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(length=st.sampled_from([255, 256, 257, 513, 2000]) | st.integers(1, 2000),
       seed=st.integers(0, 2**32 - 1))
@example(length=255, seed=0)
@example(length=256, seed=1)
@example(length=257, seed=2)
@example(length=513, seed=3)
@example(length=2000, seed=4)
def test_worker_rows_equal_in_process_rows(acceptance_bundle, acceptance_corpus, forks, monkeypatch,
                                           length, seed):
    """Chunked rows, with the worker and without it, are the rows of one
    pass over the whole stream, for random subsets in random orders."""
    monkeypatch.setattr(pipeline, "PREDICT_CHUNK", 256)
    picks = np.random.default_rng(seed).choice(len(acceptance_corpus), length, replace=False)
    commits = [acceptance_corpus[i] for i in picks]
    expected = _one_pass(acceptance_bundle, commits)
    threads = _blas_threads()
    before = len(forks)
    assert predict_commits(acceptance_bundle, commits) == expected
    assert len(forks) == before + (length > 256)
    _assert_blas_threads(threads)
    with monkeypatch.context() as here:
        here.setattr(pipeline, "_workers_available", lambda: False)
        assert predict_commits(acceptance_bundle, commits) == expected
    assert len(forks) == before + (length > 256)
    _no_child_left()


def test_predict_forks_for_more_than_one_chunk(acceptance_bundle, acceptance_corpus, forks,
                                               monkeypatch):
    monkeypatch.setattr(pipeline, "PREDICT_CHUNK", 256)
    predict_commits(acceptance_bundle, acceptance_corpus[:256])
    assert forks == []
    predict_commits(acceptance_bundle, acceptance_corpus[:257])
    assert len(forks) == 1


@pytest.mark.parametrize("entries, dtype", [(32_768, np.int16), (32_769, np.int32)])
def test_id_slots_are_as_narrow_as_the_vocabulary(acceptance_bundle, acceptance_corpus, forks,
                                                   monkeypatch, entries, dtype):
    """The shared id slots hold the narrowest type of int16 and int32 that
    holds every id of the bundle's vocabulary. A three-chunk stream gives
    the same rows with the worker and without it, whatever the slot type.
    The vocabulary is padded with tokens no text yields (the tokenizer
    never keeps a space), so every id a commit gets is unchanged."""
    monkeypatch.setattr(pipeline, "PREDICT_CHUNK", 256)
    vocab = acceptance_bundle.vocab
    padded = Vocab({**vocab.token_to_id, **{f"unused {i}": i for i in range(len(vocab), entries)}})
    assert len(padded) == entries
    bundle = replace(acceptance_bundle, vocab=padded)
    made = []
    real_zeros = pipeline._shared_zeros

    def shared_zeros(shape, dtype):
        made.append(np.dtype(dtype))
        return real_zeros(shape, dtype)

    monkeypatch.setattr(pipeline, "_shared_zeros", shared_zeros)
    commits = acceptance_corpus[:700]
    expected = _one_pass(acceptance_bundle, commits)
    assert predict_commits(bundle, commits) == expected
    assert made == [np.dtype(dtype)] * 4 and len(forks) == 1
    with monkeypatch.context() as here:
        here.setattr(pipeline, "_workers_available", lambda: False)
        assert predict_commits(bundle, commits) == expected
    assert len(forks) == 1


def test_a_duplicate_commit_id_is_a_data_error(acceptance_bundle, acceptance_corpus):
    commits = acceptance_corpus[:50]
    again = replace(commits[10], message=commits[10].message + " again")
    with pytest.raises(DataError, match=f"duplicate commit_id '{again.commit_id}'"):
        predict_commits(acceptance_bundle, [*commits, again])


def test_an_encode_error_in_the_worker_reaches_the_caller(acceptance_bundle, acceptance_corpus,
                                                           forks, monkeypatch):
    monkeypatch.setattr(pipeline, "PREDICT_CHUNK", 256)
    real_encode, calls = pipeline.encode_commits, []

    def encode(commits, *args, **kwargs):
        calls.append(len(commits))
        if len(calls) == 3:
            raise DataError(f"cannot encode chunk 2 in process {os.getpid()}")
        return real_encode(commits, *args, **kwargs)

    monkeypatch.setattr(pipeline, "encode_commits", encode)
    threads = _blas_threads()
    with pytest.raises(DataError) as info:
        predict_commits(acceptance_bundle, acceptance_corpus[:1000])
    assert str(info.value) == f"cannot encode chunk 2 in process {forks[0]}"
    assert calls == []  # this process encoded nothing
    _assert_blas_threads(threads)
    _no_child_left()


def test_a_scoring_error_here_kills_the_worker(acceptance_bundle, acceptance_corpus, forks,
                                               monkeypatch):
    monkeypatch.setattr(pipeline, "PREDICT_CHUNK", 256)
    real_scores, held = pipeline._model_scores, []

    def scores(*args, **kwargs):
        held.append(_blas_threads())
        if len(held) == 2:
            raise KeyError("scoring failed")
        return real_scores(*args, **kwargs)

    monkeypatch.setattr(pipeline, "_model_scores", scores)
    threads = _blas_threads()
    with pytest.raises(KeyError, match="scoring failed"):
        predict_commits(acceptance_bundle, acceptance_corpus[:1000])
    assert len(forks) == 1
    with pytest.raises(ProcessLookupError):
        os.kill(forks[0], 0)
    if threads is not None:
        assert held == [1, 1]  # one BLAS thread while the worker lives
    _assert_blas_threads(threads)
    _no_child_left()


def test_a_failed_fork_scores_here(acceptance_bundle, acceptance_corpus, monkeypatch):
    monkeypatch.setattr(pipeline, "PREDICT_CHUNK", 256)
    commits = acceptance_corpus[:1000]
    expected = _one_pass(acceptance_bundle, commits)
    monkeypatch.setattr(os, "fork", _no_fork)
    fds = len(os.listdir("/proc/self/fd"))
    threads = _blas_threads()
    assert predict_commits(acceptance_bundle, commits) == expected
    assert len(os.listdir("/proc/self/fd")) == fds
    _assert_blas_threads(threads)
    _no_child_left()


def _artifacts(out):
    files = {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
    config = json.loads(files.pop(next(p for p in files if p.name == "config.json")))
    del config["config"]["out"]
    return files, config


def _record_training(monkeypatch, log):
    """Make pipeline.train_deep append [pid, strategies, BLAS threads] to
    the file log, from whichever process calls it; returns a reader."""
    real = pipeline.train_deep

    def train_deep(*args, strategy, **kwargs):
        with open(log, "a", encoding="utf-8") as handle:
            handle.write(json.dumps([os.getpid(), list(strategy), _blas_threads()]) + "\n")
        return real(*args, strategy=strategy, **kwargs)

    monkeypatch.setattr(pipeline, "train_deep", train_deep)
    return lambda: [json.loads(line) for line in log.read_text(encoding="utf-8").splitlines()]


def _evaluate_with_and_without_the_worker(config, tmp_path, monkeypatch, in_process):
    """The artifacts of run_pipeline with the worker, and in process (one
    CPU or a failed fork)."""
    run_pipeline(replace(config, out=str(tmp_path / "worker")))
    with monkeypatch.context() as alone:
        if in_process == "one_cpu":
            alone.setattr(pipeline, "_workers_available", lambda: False)
        else:
            alone.setattr(os, "fork", _no_fork)
        run_pipeline(replace(config, out=str(tmp_path / "here")))
    return _artifacts(tmp_path / "worker"), _artifacts(tmp_path / "here")


def _assert_same_artifacts(worker, here):
    assert sorted(worker[0]) == sorted(here[0])
    for name, blob in worker[0].items():
        assert blob == here[0][name], name
    assert worker[1] == here[1]


@pytest.mark.parametrize("in_process", ["one_cpu", "failed_fork"])
@pytest.mark.parametrize("early", [(), ("sc",), ("sc", "tc", "amf"), RunConfig.early_strategies],
                         ids=["stack_of_1", "stack_of_2", "stack_of_4", "stack_of_5"])
def test_evaluate_writes_the_same_artifacts_with_and_without_the_worker(
        acceptance_corpus, tmp_path, monkeypatch, forks, early, in_process):
    """From four models on, the worker fits the forest and trains the first
    half of the deep stack, this process the rest; below that the worker
    fits only the forest. In process the whole stack trains in one call.
    Every deep training holds one BLAS thread. Either way the bytes are the
    same."""
    save_commit_stream(tmp_path / "corpus.jsonl", acceptance_corpus[:300])
    config = RunConfig(corpus=str(tmp_path / "corpus.jsonl"), early_strategies=early, **TINY)
    stack = ["none", *early]
    half = len(stack) // 2 if len(stack) >= 4 else 0
    trained = _record_training(monkeypatch, tmp_path / "trained.jsonl")
    threads = _blas_threads()
    held = None if threads is None else 1
    worker, here = _evaluate_with_and_without_the_worker(config, tmp_path, monkeypatch, in_process)
    assert len(forks) == 1
    parts = [[forks[0], stack[:half], held]] if half else []
    parts.append([os.getpid(), stack[half:], held])
    assert sorted(trained()[: len(parts)]) == sorted(parts)
    assert trained()[len(parts):] == [[os.getpid(), stack, held]]
    _assert_blas_threads(threads)
    _assert_same_artifacts(worker, here)


# Full-scale widths (DeepConfig and TextShape defaults) for one epoch.
FULL_SCALE = dict(l_msg=64, l_code=256, files=8, embed_dim=64, filters=64, hidden=512, lr=5e-5,
                  batch_size=64, dropout=0.5, epochs=1, forest_trees=10, seed=0)


@pytest.mark.parametrize("in_process", ["one_cpu", "failed_fork"])
@pytest.mark.parametrize("early", [("gmf",), RunConfig.early_strategies],
                         ids=["stack_of_2", "stack_of_5"])
def test_full_scale_artifacts_do_not_depend_on_the_process_layout(tmp_path, monkeypatch, forks,
                                                                  early, in_process):
    """At full-scale widths a sum can depend on the BLAS thread count and on
    whether a model trains alone or stacked; neither may depend on whether
    the worker forked. A two-model stack trains in one process either way,
    and a failed fork on two CPUs still trains on one BLAS thread."""
    save_commit_stream(tmp_path / "corpus.jsonl", synthesize_corpus(SyntheticSpec(size=300, seed=3)))
    config = RunConfig(corpus=str(tmp_path / "corpus.jsonl"), early_strategies=early, **FULL_SCALE)
    _assert_same_artifacts(*_evaluate_with_and_without_the_worker(config, tmp_path, monkeypatch,
                                                                  in_process))
    assert len(forks) == 1


@pytest.mark.parametrize("failing", ["worker", "main", "both"])
def test_a_training_error_in_either_part_is_a_train_stage_error(
        acceptance_corpus, tmp_path, monkeypatch, forks, failing):
    """The failing part's error surfaces (the main's, when both fail); an
    error here kills the worker, and this process's BLAS thread count is
    restored either way."""
    parent, real = os.getpid(), pipeline.train_deep

    def train_deep(*args, strategy, **kwargs):
        if failing == "both" or (os.getpid() == parent) == (failing == "main"):
            raise TrainingError(f"{'+'.join(strategy)} failed in process {os.getpid()}")
        return real(*args, strategy=strategy, **kwargs)

    monkeypatch.setattr(pipeline, "train_deep", train_deep)
    save_commit_stream(tmp_path / "corpus.jsonl", acceptance_corpus[:300])
    threads = _blas_threads()
    with pytest.raises(PipelineError) as info:
        run_pipeline(RunConfig(corpus=str(tmp_path / "corpus.jsonl"), out=str(tmp_path / "o"),
                               **TINY))
    assert info.value.stage == "train"
    assert isinstance(info.value.cause, TrainingError)
    expected = (f"none+sc failed in process {forks[0]}" if failing == "worker"
                else f"tc+amf+gmf failed in process {parent}")
    assert str(info.value.cause) == expected
    assert len(forks) == 1
    with pytest.raises(ProcessLookupError):
        os.kill(forks[0], 0)
    _assert_blas_threads(threads)
    assert list((tmp_path / "o").glob("*.ckpt")) == []


def test_a_non_finite_loss_in_the_worker_part_is_exit_three(acceptance_corpus, tmp_path,
                                                            monkeypatch, forks, capsys):
    """In a stack of four, the worker trains the commit model and sc, and
    its training error names the strategy."""
    real_init = deep_model.init_deep_params

    def init(rng, vocab_size, cfg, strategy, *args):
        params = real_init(rng, vocab_size, cfg, strategy, *args)
        return {k: np.full_like(v, np.nan) for k, v in params.items()} if strategy == "none" else params

    monkeypatch.setattr(deep_model, "init_deep_params", init)
    save_commit_stream(tmp_path / "corpus.jsonl", acceptance_corpus[:300])
    (tmp_path / "c.json").write_text(json.dumps({
        "corpus": str(tmp_path / "corpus.jsonl"), "out": str(tmp_path / "o"),
        "early_strategies": ["sc", "tc", "amf"], **TINY}))
    assert main(["evaluate", "--config", str(tmp_path / "c.json")]) == 3
    assert "non-finite loss at epoch 0 batch 0 (none)" in capsys.readouterr().err
    assert len(forks) == 1
    assert list((tmp_path / "o").glob("*.ckpt")) == []
    _no_child_left()


def test_forest_error_in_the_child_is_a_train_stage_error(acceptance_corpus, tmp_path, monkeypatch,
                                                          forks):
    parent = os.getpid()

    def broken_forest(*args, **kwargs):
        raise ValueError(f"no forest in process {os.getpid()}")

    monkeypatch.setattr(pipeline, "train_forest", broken_forest)
    save_commit_stream(tmp_path / "corpus.jsonl", acceptance_corpus[:300])
    with pytest.raises(PipelineError) as info:
        run_pipeline(RunConfig(corpus=str(tmp_path / "corpus.jsonl"), out=str(tmp_path / "o"),
                               **TINY))
    assert info.value.stage == "train"
    assert isinstance(info.value.cause, ValueError)
    assert str(info.value.cause) == f"no forest in process {forks[0]}"
    assert forks[0] != parent
    assert not (tmp_path / "o" / "sim_forest.ckpt").exists()


@pytest.mark.parametrize("sig", [signal.SIGKILL, signal.SIGTERM])
def test_child_killed_by_a_signal_is_named(sig, forks):
    with pytest.raises(RuntimeError, match=rf"killed by signal {int(sig)} \({signal.strsignal(sig)}\)"):
        pipeline._beside(lambda: os.kill(os.getpid(), sig), lambda: None)
    assert len(forks) == 1


def test_own_error_kills_the_child(forks):
    def own():
        raise KeyError("own failed")

    start = time.monotonic()
    with pytest.raises(KeyError, match="own failed"):
        pipeline._beside(lambda: time.sleep(60), own)
    assert time.monotonic() - start < 30
    assert len(forks) == 1
    with pytest.raises(ProcessLookupError):
        os.kill(forks[0], 0)


def test_results_come_back_from_both_sides(forks):
    assert pipeline._beside(lambda: ("child", os.getpid()), lambda: "parent") == (
        ("child", forks[0]), "parent")


def test_an_exception_that_does_not_pickle_comes_back_by_name(forks):
    def work():
        raise PipelineError("train", ValueError("inner"))

    with pytest.raises(RuntimeError, match=r"^PipelineError: stage 'train' failed: inner$"):
        pipeline._beside(work, lambda: None)


def test_a_result_that_does_not_pickle_is_an_error(forks):
    with pytest.raises((AttributeError, pickle.PicklingError, TypeError), match="pickle"):
        pipeline._beside(lambda: (lambda: None), lambda: None)


def test_child_exit_status_is_named(forks):
    with pytest.raises(RuntimeError, match="worker process exited with status 3"):
        pipeline._beside(lambda: os._exit(3), lambda: None)


def test_a_failed_fork_runs_both_here(monkeypatch):
    def no_fork():
        raise BlockingIOError("fork: resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    fds = len(os.listdir("/proc/self/fd"))
    assert pipeline._beside(lambda: os.getpid(), lambda: "here") == (os.getpid(), "here")
    assert len(os.listdir("/proc/self/fd")) == fds


def test_in_process_without_workers_runs_work_first(monkeypatch, forks):
    monkeypatch.setattr(pipeline, "_workers_available", lambda: False)
    calls = []
    assert pipeline._beside(lambda: calls.append("work") or 1, lambda: calls.append("own") or 2) == (1, 2)
    assert calls == ["work", "own"]
    assert forks == []
