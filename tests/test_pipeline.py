"""Pipeline-mode tests that the CLI module does not cover: stratified
k-fold runs and bundle round-trips."""

import json

import numpy as np
import pytest

from jitdp.corpus import SyntheticSpec, save_commit_stream, synthesize_corpus
from jitdp.pipeline import RunConfig, load_bundle, predict_commits, run_pipeline

TINY = dict(l_msg=16, l_code=32, files=3, embed_dim=6, filters=6, hidden=12,
            epochs=1, batch_size=32, lr=4e-3, dropout=0.25, forest_trees=20,
            early_strategies=("gmf",))


@pytest.fixture(scope="module")
def corpus_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("pipe") / "corpus.jsonl"
    save_commit_stream(path, synthesize_corpus(SyntheticSpec(size=300, seed=21)))
    return path


class TestKfoldMode:
    def test_one_directory_per_fold(self, corpus_file, tmp_path):
        out = tmp_path / "cv"
        cfg = RunConfig(corpus=str(corpus_file), out=str(out), seed=3,
                        split_mode="kfold", folds=3, **TINY)
        run_pipeline(cfg)
        folds = sorted(p.name for p in out.iterdir() if p.is_dir())
        assert folds == ["fold_0", "fold_1", "fold_2"]
        for fold in folds:
            metrics = json.loads((out / fold / "metrics.json").read_text())
            assert "bundle" in metrics["reports"]

    def test_folds_partition_the_corpus(self, corpus_file, tmp_path):
        out = tmp_path / "cv"
        cfg = RunConfig(corpus=str(corpus_file), out=str(out), seed=3,
                        split_mode="kfold", folds=3, **TINY)
        run_pipeline(cfg)
        test_sets = []
        for f in range(3):
            lines = (out / f"fold_{f}" / "predictions.csv").read_text().splitlines()[1:]
            test_sets.append({ln.split(",")[0] for ln in lines})
        union = set().union(*test_sets)
        assert len(union) == 300
        assert sum(len(s) for s in test_sets) == 300


class TestBundleRoundTrip:
    def test_loaded_bundle_reproduces_pipeline_test_scores(self, corpus_file, tmp_path):
        out = tmp_path / "run"
        cfg = RunConfig(corpus=str(corpus_file), out=str(out), seed=6, **TINY)
        run_pipeline(cfg)
        bundle = load_bundle(out / "bundle.json")
        from jitdp.corpus import load_commit_stream

        corpus = load_commit_stream(corpus_file)
        rows = predict_commits(bundle, corpus)
        by_id = {r[0]: r for r in rows}
        pred_lines = (out / "predictions.csv").read_text().splitlines()
        names = pred_lines[0].split(",")[2:]
        bundle_col = names.index("bundle")
        for line in pred_lines[1:]:
            parts = line.split(",")
            expected = float(parts[2 + bundle_col])
            assert by_id[parts[0]][1] == pytest.approx(expected, abs=1e-12)
