"""tools/serving_latency.py on a tiny bundle."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from jitdp import pipeline
from jitdp.corpus import SyntheticSpec, save_commit_stream, synthesize_corpus
from jitdp.pipeline import RunConfig, run_pipeline

TOOL = Path(__file__).resolve().parents[1] / "tools" / "serving_latency.py"
TINY = dict(l_msg=16, l_code=32, files=3, embed_dim=6, filters=6, hidden=12, epochs=1,
            forest_trees=10, early_strategies=("gmf",))


@pytest.fixture(scope="module")
def serving_latency():
    spec = importlib.util.spec_from_file_location("serving_latency", TOOL)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    yield module
    del sys.modules[spec.name]


@pytest.fixture(scope="module")
def bundle_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("serving")
    corpus = base / "corpus.jsonl"
    save_commit_stream(corpus, synthesize_corpus(SyntheticSpec(size=240, seed=13)))
    run_pipeline(RunConfig(corpus=str(corpus), out=str(base / "run"), seed=2, **TINY), until="sweep")
    return base / "run" / "bundle.json", corpus


def test_prints_median_stage_times_as_json(serving_latency, bundle_run, capsys):
    bundle, corpus = bundle_run
    assert serving_latency.main(["--bundle", str(bundle), "--corpus", str(corpus),
                                 "--commits", "12"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["commits"] == 12
    median = report["median_us"]
    assert list(median) == ["featurize", "dataset", "deep", "forest", "fuse", "total"]
    assert all(median[stage] > 0 for stage in median)


def test_times_the_calls_predict_commits_makes_and_restores_them(serving_latency, bundle_run):
    bundle_path, corpus = bundle_run
    originals = {name: getattr(pipeline, name)
                 for names in serving_latency.STAGES.values() for name in names}
    bundle = pipeline.load_bundle(bundle_path)
    commits = pipeline.load_commit_stream(corpus)[:3]
    calls = serving_latency.stage_times(bundle, commits)
    assert len(calls) == 3
    for call in calls:
        # each wrapped stage ran inside the call, and the parts add up to it
        assert all(call[stage] > 0 for stage in serving_latency.STAGES)
        assert sum(v for k, v in call.items() if k != "total") == pytest.approx(call["total"])
    assert all(getattr(pipeline, name) is fn for name, fn in originals.items())
