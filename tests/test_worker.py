"""The forked worker of pipeline._beside: what it computes equals what the
same work computes in process, its failures reach the caller, and no child
outlives the call that made it."""

import json
import os
import pickle
import signal
import time
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from jitdp import pipeline
from jitdp.corpus import csv_line, save_commit_stream
from jitdp.pipeline import PipelineError, RunConfig, load_bundle, predict_commits, run_pipeline

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


def _predicted(bundle, commits, min_commits):
    saved = pipeline.PREDICT_WORKER_MIN_COMMITS
    pipeline.PREDICT_WORKER_MIN_COMMITS = min_commits
    try:
        return [csv_line(row) for row in predict_commits(bundle, commits)]
    finally:
        pipeline.PREDICT_WORKER_MIN_COMMITS = saved


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_worker_rows_equal_in_process_rows(acceptance_bundle, acceptance_corpus, forks, data):
    picks = data.draw(st.lists(st.integers(0, len(acceptance_corpus) - 1), min_size=1, max_size=300,
                               unique=True))
    commits = [acceptance_corpus[i] for i in picks]
    before = len(forks)
    in_process = _predicted(acceptance_bundle, commits, len(commits) + 1)
    assert len(forks) == before
    assert _predicted(acceptance_bundle, commits, 1) == in_process
    assert len(forks) == before + 1
    _no_child_left()


def test_predict_forks_from_the_named_stream_size(acceptance_bundle, acceptance_corpus, forks):
    n = pipeline.PREDICT_WORKER_MIN_COMMITS
    assert n <= len(acceptance_corpus)
    predict_commits(acceptance_bundle, acceptance_corpus[: n - 1])
    assert forks == []
    predict_commits(acceptance_bundle, acceptance_corpus[:n])
    assert len(forks) == 1


def _artifacts(out):
    files = {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
    config = json.loads(files.pop(next(p for p in files if p.name == "config.json")))
    del config["config"]["out"]
    return files, config


def test_evaluate_writes_the_same_artifacts_with_and_without_the_worker(
        acceptance_corpus, tmp_path, monkeypatch, forks):
    save_commit_stream(tmp_path / "corpus.jsonl", acceptance_corpus[:300])
    config = RunConfig(corpus=str(tmp_path / "corpus.jsonl"), **TINY)
    run_pipeline(replace(config, out=str(tmp_path / "worker")))
    assert len(forks) == 1
    monkeypatch.setattr(pipeline, "_workers_available", lambda: False)
    run_pipeline(replace(config, out=str(tmp_path / "here")))
    assert len(forks) == 1
    worker, here = _artifacts(tmp_path / "worker"), _artifacts(tmp_path / "here")
    assert sorted(worker[0]) == sorted(here[0])
    for name, blob in worker[0].items():
        assert blob == here[0][name], name
    assert worker[1] == here[1]


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
