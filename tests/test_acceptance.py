"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured values (run with -s to watch them stream).

The desk-scale reproduction criteria run the real pipeline on a seeded
2,000-commit synthetic corpus with independent feature and text signals.
"""

import dataclasses
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from jitdp import nn
from jitdp.corpus import SyntheticSpec, load_commit_stream, save_commit_stream, synthesize_corpus
from jitdp.deep_model import DeepConfig, backward_batch, forward_batch, init_deep_params
from jitdp.evaluation import pr_auc, roc_auc, wilcoxon_signed_rank
from jitdp.features import featurize_corpus, extract_features, HistoryIndex
from jitdp.fusion import LateFusionRule, early_fuse_backward, early_fuse_forward, early_fusion_init, late_fuse
from jitdp.pipeline import RunConfig, load_bundle, predict_commits, run_pipeline

from conftest import FIXTURE_COMMITS
from test_evaluation import brute_force_roc, enumerate_wilcoxon, step_curve_ap
from test_features import EXPECTED_FEATURES, FEATURE_NAMES, oracle_features
from test_nn import finite_diff_check


def _report(criterion, detail):
    print(f"\nACCEPTANCE {criterion}: PASS ({detail})")


def test_criterion_1_metric_oracles():
    start = time.time()
    rng = np.random.default_rng(1234)
    for _ in range(200):
        n = int(rng.integers(4, 51))
        scores = np.round(rng.random(n), 2)
        labels = rng.integers(0, 2, n)
        if labels.sum() in (0, n):
            labels[0], labels[-1] = 0, 1
        assert abs(roc_auc(scores, labels) - brute_force_roc(scores, labels)) <= 1e-12

    pr_fixtures = [([0.9, 0.8, 0.7], [1, 0, 1])]
    fix_rng = np.random.default_rng(99)
    while len(pr_fixtures) < 20:
        n = int(fix_rng.integers(3, 25))
        s = list(np.round(fix_rng.random(n), 1))
        y = list(fix_rng.integers(0, 2, n))
        if sum(y) == 0:
            y[0] = 1
        pr_fixtures.append((s, y))
    for s, y in pr_fixtures:
        assert abs(pr_auc(s, y) - step_curve_ap(s, y)) <= 1e-12

    wil_rng = np.random.default_rng(7)
    checked = 0
    for n in (6, 7, 8, 9, 10):
        for _ in range(3):
            diffs = np.round(wil_rng.normal(size=n), 1)
            diffs[diffs == 0] = 0.3
            w, p = wilcoxon_signed_rank(diffs, np.zeros(n))
            w_ref, p_ref = enumerate_wilcoxon(list(diffs))
            assert w == w_ref and abs(p - p_ref) <= 1e-12
            checked += 1
    elapsed = time.time() - start
    assert elapsed < 10
    _report(1, f"200 ROC + 20 PR + {checked} Wilcoxon oracles, {elapsed:.1f}s")


def test_criterion_2_gradient_suite():
    start = time.time()
    worst = {}
    rng = np.random.default_rng(42)

    # layers in isolation
    params = nn.textcnn_init(rng, "t", 3, (1, 2, 3), 4)
    params["emb"] = rng.normal(size=(9, 3))
    ids = rng.integers(0, 9, size=(2, 7))
    target = rng.normal(size=(2, 4))

    def cnn_loss():
        x = nn.embedding_forward(params["emb"], ids)
        z, cache = nn.textcnn_forward(params, "t", x)
        diff = z - target
        d_x, grads = nn.textcnn_backward(params, cache, diff)
        grads["emb"] = nn.embedding_backward(d_x, ids, 9)
        return 0.5 * float((diff**2).sum()), grads

    worst["textcnn"] = finite_diff_check(cnn_loss, params)

    clf = nn.classifier_init(rng, "c", 5, 7)
    z_in = rng.normal(size=(3, 5))
    labels3 = np.array([0, 1, 1])

    def clf_loss():
        probs, cache = nn.classifier_forward(clf, "c", z_in)
        loss, d_logits = nn.cross_entropy_batch(probs, labels3, (1.0, 1.7))
        _, grads = nn.classifier_backward(clf, cache, d_logits)
        return loss, grads

    worst["classifier"] = finite_diff_check(clf_loss, clf)

    # each fusion layer in isolation (quadratic loss directly on C)
    for strategy in ("sc", "tc", "amf", "gmf"):
        f_rng = np.random.default_rng(5)
        x = f_rng.normal(size=(2, 6))
        t = f_rng.normal(size=(2, 1))
        n_in = f_rng.normal(size=(2, 13))
        fparams = early_fusion_init(f_rng, strategy, 6, 1, 13)
        fparams["x"] = x

        def fuse_loss():
            c, cache = early_fuse_forward(fparams, strategy, fparams["x"], t, n_in, 0.7)
            d_x, _, _, grads = early_fuse_backward(fparams, cache, c.copy())
            grads["x"] = d_x
            return 0.5 * float((c**2).sum()), grads

        worst[f"fuse_{strategy}"] = finite_diff_check(fuse_loss, fparams)

    # full deep stacks at micro scale
    cfg = DeepConfig(embed_dim=4, filters=3, windows=(1, 2, 3), hidden=5,
                     dropout=0.0, gmf_beta=0.6)
    d_rng = np.random.default_rng(11)
    msg = d_rng.integers(0, 11, size=(3, 6))
    files = d_rng.integers(0, 11, size=(3, 2, 7))
    x_cat = d_rng.normal(size=(3, 1))
    x_cont = d_rng.normal(size=(3, 13))
    y = np.array([1, 0, 1])
    for strategy in ("none", "sc", "tc", "amf", "gmf"):
        params = init_deep_params(np.random.default_rng(7), 11, cfg, strategy)

        def stack_loss():
            probs, _, _, cache = forward_batch(params, cfg, msg, files, x_cat, x_cont,
                                               strategy=strategy, training=False)
            loss, d_logits = nn.cross_entropy_batch(probs, y, (1.0, 2.0))
            return loss, backward_batch(params, cache, d_logits)

        name = "com" if strategy == "none" else f"com_{strategy}"
        worst[name] = finite_diff_check(stack_loss, params)

    elapsed = time.time() - start
    assert all(v < 1e-4 for v in worst.values()), worst
    assert elapsed < 60
    peak = max(worst.values())
    _report(2, f"{len(worst)} gradient checks, max rel err {peak:.2e}, {elapsed:.1f}s")


def test_criterion_3_fusion_algebra():
    start = time.time()
    rng = np.random.default_rng(33)

    # AMF coefficients over 1000 random instances
    for _ in range(1000):
        x = rng.normal(size=(1, 5))
        t = rng.normal(size=(1, 1))
        n_in = rng.normal(size=(1, 13))
        params = early_fusion_init(rng, "amf", 5, 1, 13)
        _, cache = early_fuse_forward(params, "amf", x, t, n_in)
        alpha = cache["alpha"]
        assert np.all(alpha >= 0)
        assert abs(alpha.sum() - 1.0) <= 1e-9

    # GMF scale factor range and the exact-sum regime
    for _ in range(300):
        x = rng.normal(size=(1, 5))
        t = rng.normal(size=(1, 1))
        n_in = rng.normal(size=(1, 13))
        params = early_fusion_init(rng, "gmf", 5, 1, 13)
        beta = float(rng.uniform(0.05, 4.0))
        c, cache = early_fuse_forward(params, "gmf", x, t, n_in, beta)
        alpha = float(cache["alpha"][0])
        assert 0.0 < alpha <= 1.0
        if beta * np.linalg.norm(x) >= np.linalg.norm(cache["h"]):
            assert np.array_equal(c, x + cache["h"])

    # geometric <= arithmetic on 1000 score vectors, equality iff all equal
    for _ in range(1000):
        m = int(rng.integers(2, 5))
        scores = rng.random(m)
        geo = late_fuse(LateFusionRule("geometric"), scores)
        ari = late_fuse(LateFusionRule("simple"), scores)
        assert geo <= ari + 1e-12
        if np.ptp(scores) > 1e-12:
            assert geo < ari
    equal = late_fuse(LateFusionRule("geometric"), [0.37, 0.37, 0.37])
    assert equal == pytest.approx(late_fuse(LateFusionRule("simple"), [0.37] * 3), abs=1e-12)

    # monotonicity of all three rules
    for _ in range(500):
        scores = rng.random(3)
        i = int(rng.integers(0, 3))
        bumped = scores.copy()
        bumped[i] = min(1.0, bumped[i] + rng.random() * (1.0 - bumped[i]))
        for rule in (LateFusionRule("simple"), LateFusionRule("geometric"),
                     LateFusionRule("weighted", weights=(1.0, 2.0, 3.0))):
            assert late_fuse(rule, bumped) >= late_fuse(rule, scores) - 1e-15

    elapsed = time.time() - start
    assert elapsed < 10
    _report(3, f"1000 AMF + 300 GMF + 1500 late-rule trials, {elapsed:.1f}s")


def test_criterion_4_feature_oracle():
    start = time.time()
    vectors = featurize_corpus(FIXTURE_COMMITS)
    for i, commit in enumerate(FIXTURE_COMMITS):
        expected = EXPECTED_FEATURES[commit.commit_id]
        live_oracle = oracle_features(FIXTURE_COMMITS, i)
        got = tuple(getattr(vectors[commit.commit_id], n) for n in FEATURE_NAMES)
        for name, g, e, o in zip(FEATURE_NAMES, got, expected, live_oracle):
            if isinstance(e, int):
                assert g == e == o, f"{commit.commit_id}.{name}"
            else:
                assert abs(g - e) <= 1e-12 and abs(o - e) <= 1e-12, f"{commit.commit_id}.{name}"

    # causality: rebuilding the future must not move prefix features
    for cut in (4, 9, 14, 19):
        index = HistoryIndex()
        shuffled = FIXTURE_COMMITS[:cut] + list(reversed(FIXTURE_COMMITS[cut:]))
        for commit in shuffled[:cut]:
            vec = extract_features(commit, index)
            assert tuple(getattr(vec, n) for n in FEATURE_NAMES) == tuple(
                getattr(vectors[commit.commit_id], n) for n in FEATURE_NAMES)
            index.update(commit)

    # entropy bounds with exact boundary cases
    for vec in vectors.values():
        assert 0.0 <= vec.entropy <= 1.0
    assert vectors["f01"].entropy == 0.0  # single file
    even = FIXTURE_COMMITS[2].files  # f03 has counts (6, 2); build an even one
    from jitdp.corpus import CommitRecord, FileChange

    balanced = CommitRecord("even", 1, "a", "m", (
        FileChange("s/a", ("1", "2"), (), 1), FileChange("s/b", ("1", "2"), (), 1)))
    assert extract_features(balanced, HistoryIndex()).entropy == 1.0

    elapsed = time.time() - start
    assert elapsed < 5
    _report(4, f"20 commits x 14 features exact + causality, {elapsed:.1f}s")


ACCEPT_SPEC = SyntheticSpec(size=2000, imbalance=3.0, feature_strength=0.5,
                            text_strength=0.5, seed=11)


def _pipeline_config(corpus_path, out_dir):
    return RunConfig(
        corpus=str(corpus_path), out=str(out_dir), seed=5,
        l_msg=24, l_code=48, files=4, embed_dim=8, filters=8, hidden=32,
        epochs=10, batch_size=32, lr=4e-3, dropout=0.25,
    )


@pytest.fixture(scope="session")
def desk_scale_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("acceptance")
    corpus_path = base / "corpus.jsonl"
    save_commit_stream(corpus_path, synthesize_corpus(ACCEPT_SPEC))
    out = base / "run_a"
    start = time.time()
    run_pipeline(_pipeline_config(corpus_path, out))
    elapsed = time.time() - start
    return {"base": base, "corpus": corpus_path, "out": out, "seconds": elapsed}


def test_prepared_bundle_scores_as_unprepared_params(desk_scale_run):
    """load_bundle derives the textCNN layouts and the models' heads once;
    the rows must be those of deriving them from the parameters on every
    call, on the test split scored as one batch and one commit at a time."""
    out = desk_scale_run["out"]
    bundle = load_bundle(out / "bundle.json")
    unprepared = dataclasses.replace(bundle)
    unprepared.deep_layouts = None
    unprepared.deep_heads = None
    test_ids = {ln.split(",")[0] for ln in (out / "predictions.csv").read_text().splitlines()[1:]}
    test = [c for c in load_commit_stream(desk_scale_run["corpus"]) if c.commit_id in test_ids]
    assert len(test) == len(test_ids) == 400
    assert predict_commits(bundle, test) == predict_commits(unprepared, test)
    for c in test:
        assert predict_commits(bundle, [c]) == predict_commits(unprepared, [c])


def test_criterion_5_qualitative_reproduction(desk_scale_run):
    reports = json.loads((desk_scale_run["out"] / "metrics.json").read_text())["reports"]
    sim_roc, com_roc = reports["sim"]["auc_roc"], reports["com"]["auc_roc"]
    sim_pr, com_pr = reports["sim"]["auc_pr"], reports["com"]["auc_pr"]
    bundle_roc, bundle_pr = reports["bundle"]["auc_roc"], reports["bundle"]["auc_pr"]
    assert sim_roc <= 0.80, f"Sim alone too strong: {sim_roc:.4f}"
    assert com_roc <= 0.80, f"Com alone too strong: {com_roc:.4f}"
    assert bundle_roc >= max(sim_roc, com_roc) + 0.03
    assert bundle_pr >= max(sim_pr, com_pr)
    assert desk_scale_run["seconds"] < 600
    _report(5, f"sim {sim_roc:.3f} / com {com_roc:.3f} / fused {bundle_roc:.3f} ROC, "
               f"fused PR {bundle_pr:.3f}, {desk_scale_run['seconds']:.0f}s")


def test_early_fused_models_competitive_with_components(desk_scale_run):
    # on the both-signal corpus every early-fused variant should at least
    # match the stronger single-modality model (within 0.02 AUC-ROC)
    reports = json.loads((desk_scale_run["out"] / "metrics.json").read_text())["reports"]
    floor = max(reports["sim"]["auc_roc"], reports["com"]["auc_roc"]) - 0.02
    for strategy in ("sc", "tc", "amf", "gmf"):
        assert reports[f"fused_{strategy}"]["auc_roc"] >= floor, strategy


def test_criterion_6_sweep_integrity(desk_scale_run):
    lines = (desk_scale_run["out"] / "sweep_log.csv").read_text().splitlines()
    rows = [ln.split(",") for ln in lines[1:]]
    assert len(rows) == 20
    best_logged = max(float(r[4]) for r in rows)
    bundle = json.loads((desk_scale_run["out"] / "bundle.json").read_text())
    chosen = [r for r in rows if r[0] == bundle["early"] and r[1] == bundle["late"]]
    assert len(chosen) == 1
    assert float(chosen[0][4]) == best_logged
    _report(6, f"argmax cell {bundle['early']}+{bundle['late']} at AUC-PR {best_logged:.4f}")


def test_criterion_7_reference_ratio_arithmetic():
    start = time.time()
    from jitdp.evaluation import correction_analysis, overlap_analysis

    labels = [1] * (2229 + 575 + 628) + [0] * (2053 + 1851 + 1551)
    a = [1] * 2229 + [1] * 575 + [0] * 628 + [1] * 2053 + [1] * 1851 + [0] * 1551
    b = [1] * 2229 + [0] * 575 + [1] * 628 + [1] * 2053 + [0] * 1851 + [1] * 1551
    rep = overlap_analysis(a, b, labels)
    assert round(100 * rep.unique_tp_ratio_a, 1) == 20.5
    assert round(100 * rep.unique_fp_ratio_a, 1) == 47.4

    fused = [1] * 1857 + [0] * 1256
    comp = [0] * 1857 + [1] * 1256
    corr = correction_analysis(fused, comp, [1] * 3113)
    assert corr.net_correction == 601
    assert round(100 * corr.net_correction_ratio, 1) == 19.3

    fused = [1] * 1087 + [0] * 853 + [1] * 5
    comp = [0] * 1087 + [1] * 853 + [0] * 5
    corr = correction_analysis(fused, comp, [1] * 1940 + [-1] * 5)
    assert corr.different == 1945
    assert corr.net_correction == 234
    assert round(100 * corr.net_correction_ratio, 1) == 12.0

    elapsed = time.time() - start
    assert elapsed < 1
    _report(7, f"575/2804=20.5%, 1851/3904=47.4%, 601/3113=19.3%, 234/1945=12.0%, {elapsed:.2f}s")


REPRODUCIBLE_FILES = ("metrics.json", "metrics.csv", "predictions.csv",
                      "sweep_log.csv", "features.csv", "com_train_log.csv",
                      "com.ckpt", "sim_forest.ckpt", "fused_gmf.ckpt")


def test_criterion_8_reproducibility(desk_scale_run):
    out_b = desk_scale_run["base"] / "run_b"
    start = time.time()
    run_pipeline(_pipeline_config(desk_scale_run["corpus"], out_b))
    elapsed = time.time() - start
    for name in REPRODUCIBLE_FILES:
        a = (desk_scale_run["out"] / name).read_bytes()
        b = (out_b / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"
    _report(8, f"{len(REPRODUCIBLE_FILES)} report files byte-identical, {elapsed:.0f}s rerun")


def test_artifacts_do_not_depend_on_where_the_corpus_lies(desk_scale_run):
    """The same corpus bytes at another absolute path write the same
    artifacts; only config.json, which records the paths, differs."""
    moved = desk_scale_run["base"] / "elsewhere" / "corpus.jsonl"
    moved.parent.mkdir()
    moved.write_bytes(desk_scale_run["corpus"].read_bytes())
    out_a, out_c = desk_scale_run["out"], desk_scale_run["base"] / "run_c"
    assert moved.is_absolute() and moved != desk_scale_run["corpus"]
    run_pipeline(_pipeline_config(moved, out_c))
    names = sorted(p.name for p in out_a.iterdir())
    assert sorted(p.name for p in out_c.iterdir()) == names
    for name in names:
        same = (out_a / name).read_bytes() == (out_c / name).read_bytes()
        assert same == (name != "config.json"), name
    config_a, config_c = (json.loads((o / "config.json").read_text()) for o in (out_a, out_c))
    assert config_a["hash"] == config_c["hash"]
    assert {**config_c["config"], "corpus": str(desk_scale_run["corpus"]), "out": str(out_a)} == \
        config_a["config"]
    _report(8, f"{len(names) - 1} artifacts byte-identical with the corpus at another path")
