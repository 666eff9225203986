"""CLI and pipeline-surface tests on a small synthetic corpus. One full
`evaluate` run is shared across the module; commands are invoked in-process
through main() so exit codes are observable."""

import hashlib
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from jitdp.cli import main
from jitdp.corpus import DataError, SyntheticSpec, load_commit_stream, save_commit_stream, synthesize_corpus
from jitdp.pipeline import (
    RunConfig,
    config_from_dict,
    config_hash,
    load_bundle,
    predict_commits,
    read_feature_table,
)

SMALL = {"l_msg": 16, "l_code": 32, "files": 3, "embed_dim": 6, "filters": 6,
         "hidden": 12, "epochs": 3, "batch_size": 32, "lr": 4e-3, "dropout": 0.25,
         "forest_trees": 30}


@pytest.fixture(scope="module")
def corpus_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "corpus.jsonl"
    corpus = synthesize_corpus(SyntheticSpec(size=240, seed=13))
    save_commit_stream(path, corpus)
    return path


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory, corpus_path):
    out = tmp_path_factory.mktemp("run")
    config = {"corpus": str(corpus_path), "out": str(out), "seed": 2, **SMALL}
    cfg_path = out / "config_in.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["evaluate", "--config", str(cfg_path)]) == 0
    return out


EXPECTED_ARTIFACTS = {
    "config.json", "features.csv", "train_ids.txt", "vocab.txt",
    "sim_forest.ckpt", "com.ckpt", "com_train_log.csv",
    "fused_sc.ckpt", "fused_sc_train_log.csv", "fused_tc.ckpt",
    "fused_tc_train_log.csv", "fused_amf.ckpt", "fused_amf_train_log.csv",
    "fused_gmf.ckpt", "fused_gmf_train_log.csv", "sweep_log.csv",
    "bundle.json", "metrics.csv", "metrics.json", "predictions.csv",
    "provenance.log",
}


class TestPipelineArtifacts:
    def test_declared_artifact_set_emitted(self, run_dir):
        produced = {p.name for p in run_dir.iterdir() if p.name != "config_in.json"}
        assert produced == EXPECTED_ARTIFACTS

    def test_sweep_log_has_twenty_cells(self, run_dir):
        lines = (run_dir / "sweep_log.csv").read_text().splitlines()
        assert len(lines) == 21

    def test_bundle_matches_sweep_argmax(self, run_dir):
        rows = [ln.split(",") for ln in (run_dir / "sweep_log.csv").read_text().splitlines()[1:]]
        best = max(rows, key=lambda r: float(r[4]))
        bundle = json.loads((run_dir / "bundle.json").read_text())
        assert (bundle["early"], bundle["late"]) == (best[0], best[1])

    def test_metrics_cover_all_models(self, run_dir):
        metrics = json.loads((run_dir / "metrics.json").read_text())
        assert {"sim", "com", "bundle", "fused_sc", "fused_tc", "fused_amf",
                "fused_gmf"} <= set(metrics["reports"])
        assert "overlap_sim_vs_com" in metrics["analysis"]
        assert "correction_bundle_vs_sim" in metrics["analysis"]

    def test_provenance_log_reads_test_labels_last(self, run_dir):
        lines = (run_dir / "provenance.log").read_text().splitlines()
        stages = [ln.split(":")[0] for ln in lines]
        assert stages.index("evaluate") == len(stages) - 1
        assert "test labels" in lines[-1]

    def test_feature_table_covers_corpus(self, run_dir, corpus_path):
        ids, matrix, labels = read_feature_table(run_dir / "features.csv")
        corpus = load_commit_stream(corpus_path)
        assert sorted(ids) == sorted(c.commit_id for c in corpus)
        assert matrix.shape == (len(corpus), 14)


class TestStagedCommands:
    def test_extract_features_stops_early(self, tmp_path, corpus_path):
        out = tmp_path / "feat"
        code = main(["extract-features", "--corpus", str(corpus_path),
                     "--out", str(out), "--seed", "1"])
        assert code == 0
        names = {p.name for p in out.iterdir()}
        assert "features.csv" in names
        assert "com.ckpt" not in names

    def test_train_stops_before_sweep(self, tmp_path, corpus_path):
        out = tmp_path / "train"
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"corpus": str(corpus_path), "out": str(out),
                                   "seed": 1, **SMALL, "epochs": 1}))
        assert main(["train", "--config", str(cfg)]) == 0
        names = {p.name for p in out.iterdir()}
        assert "com.ckpt" in names
        assert "sweep_log.csv" not in names


class TestPredictCommand:
    def test_empty_stream_gives_empty_output(self, run_dir, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        out = tmp_path / "pred.csv"
        code = main(["predict", "--bundle", str(run_dir / "bundle.json"),
                     "--corpus", str(empty), "--out", str(out)])
        assert code == 0
        assert out.read_text().splitlines()[1:] == []

    def test_unlabeled_stream_scores_without_metrics(self, run_dir, tmp_path, corpus_path):
        corpus = load_commit_stream(corpus_path)[:10]
        stripped = [c.__class__(c.commit_id, c.timestamp, c.author, c.message, c.files, None)
                    for c in corpus]
        path = tmp_path / "unlabeled.jsonl"
        save_commit_stream(path, stripped)
        out = tmp_path / "pred.csv"
        assert main(["predict", "--bundle", str(run_dir / "bundle.json"),
                     "--corpus", str(path), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 11
        first = lines[1].split(",")
        assert first[0] == stripped[0].commit_id
        assert first[2] in ("0", "1")

    def test_matches_in_process_predictions(self, run_dir, tmp_path, corpus_path):
        corpus = load_commit_stream(corpus_path)[:10]
        path = tmp_path / "ten.jsonl"
        save_commit_stream(path, corpus)
        out = tmp_path / "pred.csv"
        assert main(["predict", "--bundle", str(run_dir / "bundle.json"),
                     "--corpus", str(path), "--out", str(out)]) == 0
        bundle = load_bundle(run_dir / "bundle.json")
        rows = predict_commits(bundle, corpus)
        lines = out.read_text().splitlines()[1:]
        for line, row in zip(lines, rows):
            parts = line.split(",")
            assert parts[0] == row[0]
            assert float(parts[1]) == pytest.approx(row[1], abs=1e-15)
            assert int(parts[2]) == row[2]

    def test_stdout_matches_written_file(self, run_dir, tmp_path, corpus_path, capsys):
        corpus = load_commit_stream(corpus_path)[:10]
        path = tmp_path / "ten.jsonl"
        save_commit_stream(path, corpus)
        out = tmp_path / "pred.csv"
        assert main(["predict", "--bundle", str(run_dir / "bundle.json"),
                     "--corpus", str(path), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["predict", "--bundle", str(run_dir / "bundle.json"),
                     "--corpus", str(path)]) == 0
        assert capsys.readouterr().out == out.read_text()

    def test_tampered_artifact_is_provenance_error(self, run_dir, tmp_path, corpus_path, capsys):
        clone = tmp_path / "clone"
        shutil.copytree(run_dir, clone)
        forest = clone / "sim_forest.ckpt"
        blob = bytearray(forest.read_bytes())
        blob[blob.index(b"\n---\n") + 5] ^= 1  # first payload byte
        forest.write_bytes(bytes(blob))
        code = main(["predict", "--bundle", str(clone / "bundle.json"),
                     "--corpus", str(corpus_path), "--out", str(tmp_path / "p.csv")])
        assert code == 2
        assert "provenance mismatch: artifact 'sim'" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["garbage checkpoint", "sim entry names com.ckpt"])
    def test_malformed_artifact_is_data_error(self, run_dir, tmp_path, corpus_path, case, capsys):
        """Checksums match, so only loading the artifact can find the fault."""
        clone = tmp_path / "clone"
        shutil.copytree(run_dir, clone)
        manifest = json.loads((clone / "bundle.json").read_text())
        if case == "garbage checkpoint":
            key = "com"
            (clone / "com.ckpt").write_bytes(b"garbage")
        else:
            key = "sim"
            manifest["artifacts"]["sim"] = "com.ckpt"
        rel = manifest["artifacts"][key]
        manifest["checksums"][key] = hashlib.sha256((clone / rel).read_bytes()).hexdigest()
        (clone / "bundle.json").write_text(json.dumps(manifest))
        code = main(["predict", "--bundle", str(clone / "bundle.json"),
                     "--corpus", str(corpus_path), "--out", str(tmp_path / "p.csv")])
        assert code == 2
        assert f"malformed artifact '{key}' ({rel})" in capsys.readouterr().err

    def test_v1_bundle_is_data_error(self, run_dir, tmp_path, corpus_path, capsys):
        clone = tmp_path / "clone"
        shutil.copytree(run_dir, clone)
        manifest = json.loads((clone / "bundle.json").read_text())
        (clone / "bundle.json").write_text(json.dumps(manifest | {"format": "jitdp-bundle v1"}))
        code = main(["predict", "--bundle", str(clone / "bundle.json"),
                     "--corpus", str(corpus_path)])
        assert code == 2
        assert "unsupported bundle format: 'jitdp-bundle v1'" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["truncated bundle.json", "missing bundle.json",
                                      "missing vocab.txt", "manifest without checksums",
                                      "feature table without commit_id"])
    def test_malformed_bundle_is_data_error(self, run_dir, tmp_path, corpus_path, case, capsys):
        clone = tmp_path / "clone"
        shutil.copytree(run_dir, clone)
        manifest_path = clone / "bundle.json"
        manifest = json.loads(manifest_path.read_text())
        command, named = ["predict"], "bundle.json"
        if case == "truncated bundle.json":
            manifest_path.write_text(manifest_path.read_text()[:200])
        elif case == "missing bundle.json":
            manifest_path.unlink()
        elif case == "missing vocab.txt":
            (clone / "vocab.txt").unlink()
            named = "vocab.txt"
        elif case == "manifest without checksums":
            del manifest["checksums"]
            manifest_path.write_text(json.dumps(manifest))
        else:
            table = clone / "features.csv"
            table.write_text("id" + table.read_text()[len("commit_id"):])
            manifest["checksums"]["features"] = hashlib.sha256(table.read_bytes()).hexdigest()
            manifest_path.write_text(json.dumps(manifest))
            target = load_commit_stream(corpus_path)[0].commit_id
            command, named = ["explain", "--commit", target], "features.csv"
        code = main([*command, "--bundle", str(manifest_path), "--corpus", str(corpus_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and named in err

    @pytest.mark.parametrize("entry, edit", [
        ("weights", lambda m: m | {"weights": 5}),
        ("deep_config", lambda m: m | {"deep_config": m["deep_config"] | {"kernel": 3}}),
        ("text_shape", lambda m: m | {"text_shape": [1, 2]}),
        ("deep_config.windows", lambda m: m | {"deep_config": m["deep_config"] | {"windows": "123"}}),
        ("stats.mean", lambda m: m | {"stats": m["stats"] | {"mean": None}}),
        ("artifacts", lambda m: m | {"artifacts": ["sim"]}),
        ("early", lambda m: m | {"early": "xyz"}),
        ("late", lambda m: m | {"late": 1}),
        ("weights", lambda m: m | {"early": "none", "late": "weighted", "weights": [1]}),
        ("weights", lambda m: m | {"early": "none", "late": "weighted", "weights": [1, -1]}),
        ("stats.std", lambda m: m | {"stats": m["stats"] | {"std": []}}),
        ("text_shape.l_code", lambda m: m | {"text_shape": m["text_shape"] | {"l_code": -4}}),
        ("deep_config.dropout", lambda m: m | {"deep_config": m["deep_config"] | {"dropout": 1.0}}),
    ])
    def test_malformed_manifest_entry_is_data_error(self, run_dir, tmp_path, corpus_path,
                                                    entry, edit, capsys):
        clone = tmp_path / "clone"
        shutil.copytree(run_dir, clone)
        manifest_path = clone / "bundle.json"
        manifest_path.write_text(json.dumps(edit(json.loads(manifest_path.read_text()))))
        with pytest.raises(DataError, match=f"entry '{entry}' must be"):
            load_bundle(manifest_path)
        code = main(["predict", "--bundle", str(manifest_path), "--corpus", str(corpus_path)])
        assert code == 2
        assert f"entry '{entry}' must be" in capsys.readouterr().err

    def test_manifest_that_is_not_an_object_is_data_error(self, tmp_path):
        manifest_path = tmp_path / "bundle.json"
        manifest_path.write_text("[1, 2]")
        with pytest.raises(DataError, match="is not a JSON object"):
            load_bundle(manifest_path)


class TestExplainCommand:
    def test_writes_text_and_json(self, run_dir, tmp_path, corpus_path):
        corpus = load_commit_stream(corpus_path)
        target = corpus[5].commit_id
        prefix = str(tmp_path / "exp")
        code = main(["explain", "--bundle", str(run_dir / "bundle.json"),
                     "--corpus", str(corpus_path), "--commit", target,
                     "--samples", "200", "--out", prefix])
        assert code == 0
        payload = json.loads(Path(prefix + ".json").read_text())
        assert len(payload["entries"]) == 14
        assert "condition" in Path(prefix + ".txt").read_text()

    def test_unknown_commit_is_data_error(self, run_dir, corpus_path):
        code = main(["explain", "--bundle", str(run_dir / "bundle.json"),
                     "--corpus", str(corpus_path), "--commit", "nope"])
        assert code == 2

    def test_zero_samples_is_usage_error(self, run_dir, corpus_path, capsys):
        code = main(["explain", "--bundle", str(run_dir / "bundle.json"), "--corpus",
                     str(corpus_path), "--commit", load_commit_stream(corpus_path)[5].commit_id,
                     "--samples", "0"])
        assert code == 1
        assert "n_samples" in capsys.readouterr().err


class TestSynthesizeCommand:
    def test_writes_ready_corpus(self, tmp_path):
        out = tmp_path / "s.jsonl"
        assert main(["synthesize", "--out", str(out), "--size", "120", "--seed", "3"]) == 0
        assert len(load_commit_stream(out)) == 120


class TestExitCodes:
    def test_missing_corpus_is_data_error(self, tmp_path):
        code = main(["evaluate", "--corpus", str(tmp_path / "absent.jsonl"),
                     "--out", str(tmp_path / "o")])
        assert code == 2

    def test_no_corpus_is_usage_error(self, tmp_path):
        assert main(["evaluate", "--out", str(tmp_path / "o")]) == 1

    def test_unknown_config_key_is_usage_error(self, tmp_path, corpus_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"corpus": str(corpus_path), "threads": 2}))
        assert main(["evaluate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize("entry", [
        {"epochs": "2"}, {"seed": 1.5}, {"seed": -1}, {"forest_trees": "5"}, {"l_msg": -3},
        {"windows": [0]}, {"windows": []}, {"dropout": None}, {"split_mode": "random"},
        {"ratios": [0.5, 0.5]}, {"folds": 0}, {"vocab_max_size": True},
        {"early_strategies": ["none"]}, {"drop_rates": [1.0]}, {"corpus": 7},
        {"dropout": 1.0}, {"ratios": [0.5, 0.3, 0.3]},
    ])
    def test_mistyped_config_value_is_usage_error(self, tmp_path, corpus_path, capsys, entry):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"corpus": str(corpus_path), "out": str(tmp_path / "o"), **entry}))
        assert main(["evaluate", "--config", str(cfg)]) == 1
        assert f"'{next(iter(entry))}'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_bad_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["evaluate", "--bogus"])
        assert err.value.code == 1

    def test_drop_experiment_without_rates_is_usage_error(self, tmp_path, corpus_path):
        code = main(["drop-experiment", "--corpus", str(corpus_path),
                     "--out", str(tmp_path / "o")])
        assert code == 1

    def test_malformed_corpus_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"commit_id": "x"}\n')
        code = main(["evaluate", "--corpus", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2

    @pytest.mark.parametrize("field", ["author", "message"])
    def test_null_text_field_is_data_error(self, tmp_path, corpus_path, field, capsys):
        lines = corpus_path.read_text().splitlines()
        obj = json.loads(lines[1])
        obj[field] = None
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join([lines[0], json.dumps(obj), *lines[2:]]) + "\n")
        code = main(["evaluate", "--corpus", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"line 2: field '{field}' must be a string" in capsys.readouterr().err

    def test_training_failure_is_exit_three(self, tmp_path, corpus_path, monkeypatch):
        import jitdp.pipeline as pipeline
        from jitdp.deep_model import TrainingError

        def boom(*args, **kwargs):
            raise TrainingError("non-finite loss at epoch 0 batch 0")

        monkeypatch.setattr(pipeline, "train_deep", boom)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"corpus": str(corpus_path),
                                   "out": str(tmp_path / "o"), **SMALL}))
        assert main(["evaluate", "--config", str(cfg)]) == 3


class TestDropExperiment:
    def test_five_rates_give_five_evaluation_subdirectories(self, tmp_path, corpus_path):
        out = tmp_path / "drops"
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "corpus": str(corpus_path), "out": str(out), "seed": 2, **SMALL,
            "epochs": 1, "early_strategies": ["gmf"],
        }))
        code = main(["drop-experiment", "--config", str(cfg),
                     "--rates", "0,0.1,0.2,0.3,0.4"])
        assert code == 0
        subdirs = sorted(p.name for p in out.iterdir() if p.is_dir())
        assert subdirs == ["drop_0", "drop_0.1", "drop_0.2", "drop_0.3", "drop_0.4"]
        for sub in subdirs:
            assert (out / sub / "metrics.json").exists()


class TestRunConfig:
    def test_round_trips_through_serialization(self):
        cfg = RunConfig(corpus="x.jsonl", seed=7, drop_rates=(0.1, 0.2),
                        early_strategies=("gmf",))
        assert config_from_dict(json.loads(json.dumps(cfg.as_dict()))) == cfg

    def test_hash_stable_and_sensitive(self):
        a = RunConfig(corpus="x", seed=1)
        b = RunConfig(corpus="x", seed=2)
        assert config_hash(a) == config_hash(RunConfig(corpus="x", seed=1))
        assert config_hash(a) != config_hash(b)
        # artifact location does not change what is computed
        assert config_hash(a) == config_hash(RunConfig(corpus="x", seed=1, out="elsewhere"))

    def test_hash_pinned(self):
        """Bundle and metrics provenance strings carry this hash, so a
        RunConfig edit must not move it unnoticed."""
        assert config_hash(RunConfig(corpus="x", seed=1)) == "871a9c34598a7678"

    def test_ratios_within_the_split_tolerance_of_one(self):
        # their float sum is 0.9999999999999999, which chronological_split accepts
        assert config_from_dict({"ratios": [0.2, 0.7, 0.1]}).ratios == (0.2, 0.7, 0.1)

    def test_every_field_has_a_default(self):
        cfg = RunConfig()
        assert cfg.ratios == (0.75, 0.05, 0.20)
        assert cfg.epochs > 0
