"""perfbench/spans.py against the program: the tracer wraps public
functions by name and reads their arguments and results, so a traced run
must keep working when a signature or the textCNN layout changes."""

import importlib.util
import math
from pathlib import Path

import pytest

import jitdp.cli
import jitdp.deep_model
import jitdp.evaluation
import jitdp.fusion
import jitdp.nn
import jitdp.pipeline
from jitdp.corpus import SyntheticSpec, save_commit_stream, synthesize_corpus
from jitdp.deep_model import build_dataset, stack_params
from jitdp.nn import load_params
from jitdp.pipeline import RunConfig

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
PREFIXES = ("msg_cnn", "file_cnn", "agg_cnn")


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _gflop(spans_, prefix):
    return sum(s.attrs["gflop"] for s in spans_
               if s.name == "nn.textcnn_forward" and s.attrs["prefix"] == prefix)


def test_traced_pipeline_and_predict(spans, tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    save_commit_stream(corpus, synthesize_corpus(SyntheticSpec(size=160, text_strength=1.0, seed=3)))
    config = RunConfig(corpus=str(corpus), out=str(tmp_path / "run"), epochs=1, forest_trees=5)
    strategies = ("none", *config.early_strategies)
    originals = (jitdp.nn.textcnn_forward, jitdp.deep_model.score_dataset,
                 jitdp.pipeline.train_deep, jitdp.cli.predict_commits)
    tracer = spans.Tracer()
    spans.instrument(tracer, jitdp)
    try:
        with tracer.root("bench.main"):
            out = jitdp.pipeline.run_pipeline(config)
            bundle = jitdp.cli.load_bundle(out / "bundle.json")
            stream = jitdp.cli.load_commit_stream(corpus)
            assert len(jitdp.cli.predict_commits(bundle, stream[:1])) == 1
        # One model, then the stack of all five, on the same commits
        models = [load_params(out / "com.ckpt")]
        models += [load_params(out / f"fused_{s}.ckpt") for s in config.early_strategies]
        ds = build_dataset(stream[:6], bundle.vocab, bundle.shape)
        alone_from = len(tracer.spans)
        jitdp.deep_model.score_dataset(models[0], bundle.deep_cfg, ds)
        stack_from = len(tracer.spans)
        jitdp.deep_model.score_dataset(stack_params(models), bundle.deep_cfg, ds, strategies)
    finally:
        tracer.uninstall()
    assert (jitdp.nn.textcnn_forward, jitdp.deep_model.score_dataset,
            jitdp.pipeline.train_deep, jitdp.cli.predict_commits) == originals

    alone, stacked = tracer.spans[alone_from:stack_from], tracer.spans[stack_from:]
    for prefix in PREFIXES:
        assert _gflop(alone, prefix) > 0
        assert _gflop(stacked, prefix) == pytest.approx(len(strategies) * _gflop(alone, prefix),
                                                        rel=1e-12)

    metrics = spans.layer_metrics(tracer.spans, {"bench.main"})
    n_train = len((out / "train_ids.txt").read_text().split())
    # the five models take one lockstep step per batch
    assert metrics["deep_model.steps"] == math.ceil(n_train / config.batch_size)
    for prefix in PREFIXES:
        assert metrics[f"nn.textcnn_forward.{prefix}_s"] > 0
        assert metrics[f"nn.textcnn_backward.{prefix}_s"] > 0
    assert metrics["simple_model.save_forest_s"] > 0
    assert 0 < spans.coverage(tracer.spans, {"bench.main"}) <= 1
