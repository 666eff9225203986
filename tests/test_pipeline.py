"""Pipeline-mode tests that the CLI module does not cover: stratified
k-fold runs and bundle round-trips."""

import dataclasses
import json

import numpy as np
import pytest

from jitdp.corpus import (
    SyntheticSpec,
    chronological_split,
    load_commit_stream,
    save_commit_stream,
    sort_chronologically,
    stratified_kfold,
    synthesize_corpus,
)
from jitdp.deep_model import stack_params
from jitdp.nn import load_params
from jitdp.pipeline import RunConfig, _split_rows, load_bundle, predict_commits, run_pipeline

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

    def test_loaded_deep_arrays_are_read_only(self, corpus_file, tmp_path):
        """The prepared textCNN layouts read the deep arrays, so a write to
        one of them must fail rather than leave a layout stale."""
        out = tmp_path / "run"
        run_pipeline(RunConfig(corpus=str(corpus_file), out=str(out), seed=6, **TINY), until="sweep")
        bundle = load_bundle(out / "bundle.json")
        arrays = [*bundle.deep_params.values(), *(layout.taps_w for layout in bundle.deep_layouts.values())]
        for value in arrays:
            with pytest.raises(ValueError, match="read-only"):
                value[...] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            bundle.deep_params["msg_cnn.w1"] += 1.0


    def test_prepared_heads_are_views_of_the_params(self, corpus_file, tmp_path):
        """Each deep model's head holds the stack's own arrays, and a
        replaced bundle derives its heads from its new parameters."""
        out = tmp_path / "run"
        run_pipeline(RunConfig(corpus=str(corpus_file), out=str(out), seed=6, **TINY), until="sweep")
        bundle = load_bundle(out / "bundle.json")
        for b in (bundle, dataclasses.replace(bundle, deep_params={
                k: v.copy() for k, v in bundle.deep_params.items()})):
            count = 1 if b.early == "none" else 2
            assert len(b.deep_heads) == count
            for m, head in enumerate(b.deep_heads):
                assert head
                for name, value in head.items():
                    assert value is b.deep_params[name if count == 1 else f"{m}:{name}"]


class TestSplitRows:
    def test_chronological_rows_are_the_chronological_split(self, corpus_file):
        corpus = load_commit_stream(corpus_file)
        ordered = sort_chronologically(corpus)
        [rows] = _split_rows(ordered, RunConfig())
        split = chronological_split(corpus, RunConfig().ratios)
        assert [{ordered[j].commit_id for j in r} for r in rows] == [
            split.train_ids, split.validation_ids, split.test_ids]
        assert np.array_equal(np.concatenate(rows), np.arange(len(ordered)))

    def test_kfold_rows_test_each_fold_and_cut_the_rest_in_order(self, corpus_file):
        corpus = load_commit_stream(corpus_file)
        ordered = sort_chronologically(corpus)
        folds = stratified_kfold({c.commit_id: c.label for c in corpus}, 3, 3)
        splits = _split_rows(ordered, RunConfig(split_mode="kfold", folds=3, seed=3))
        assert len(splits) == 3
        for f, (train, val, test) in enumerate(splits):
            assert {ordered[j].commit_id for j in test} == {i for i, k in folds.items() if k == f}
            rest = [j for j in range(len(ordered)) if folds[ordered[j].commit_id] != f]
            assert [*train, *val] == rest
            train_r, val_r, _ = RunConfig().ratios
            assert len(train) == int(len(rest) * train_r / (train_r + val_r))


class TestModelScores:
    def test_each_fused_column_is_its_own_models_scores(self, corpus_file, tmp_path):
        """evaluate scores every model in one stacked pass; each fused_<s>
        column of predictions.csv must be what fused_<s>.ckpt scores alone."""
        out = tmp_path / "run"
        strategies = ("sc", "tc", "gmf")
        run_pipeline(RunConfig(corpus=str(corpus_file), out=str(out), seed=6,
                               **{**TINY, "early_strategies": strategies}))
        lines = (out / "predictions.csv").read_text().splitlines()
        expected = {p[0]: dict(zip(lines[0].split(","), p))
                    for p in (ln.split(",") for ln in lines[1:])}
        bundle = load_bundle(out / "bundle.json")
        corpus = load_commit_stream(corpus_file)
        for s in strategies:
            alone = dataclasses.replace(bundle, early=s, late="simple", weights=None, deep_params=stack_params(
                [load_params(out / "com.ckpt"), load_params(out / f"fused_{s}.ckpt")]))
            scored = {row[0]: row[5] for row in predict_commits(alone, corpus)}
            for cid, row in expected.items():
                assert scored[cid] == pytest.approx(float(row[f"fused_{s}"]), abs=1e-12), s
