"""Deep model tests: forward values against a scalar-loop oracle, training
behavior on planted-signal corpora, checkpoint selection."""

import dataclasses

import numpy as np
import pytest

from jitdp.corpus import SyntheticSpec, chronological_split, synthesize_corpus
from jitdp.deep_model import (
    DeepConfig,
    DeepDataset,
    TrainingError,
    TrainLogEntry,
    backward_batch,
    build_dataset,
    forward_batch,
    init_deep_params,
    model_params,
    score_dataset,
    stack_params,
    train_deep,
    write_train_log,
)
from jitdp.evaluation import roc_auc
from jitdp import nn
from jitdp.nn import cross_entropy_batch, save_params
from jitdp.pipeline import RunConfig
from jitdp.textprep import PAD_ID, TextShape, build_vocab, render_change_document, tokenize

from test_nn import finite_diff_check, scalar_loop_textcnn

# The desk-scale setup of the default run config.
DESK_CONFIG = RunConfig().deep_config()
DESK_SHAPE = RunConfig().text_shape()


def _split_corpus(spec):
    corpus = synthesize_corpus(spec)
    split = chronological_split(corpus)
    by_id = {c.commit_id: c for c in corpus}
    order = {c.commit_id: i for i, c in enumerate(corpus)}
    parts = []
    for ids in (split.train_ids, split.validation_ids, split.test_ids):
        parts.append([by_id[i] for i in sorted(ids, key=order.get)])
    return parts


def _vocab_for(commits):
    docs = []
    for c in commits:
        docs.append(tokenize(c.message))
        for f in c.files:
            docs.append(render_change_document(f))
    return build_vocab(docs)


def _datasets(spec, shape=DESK_SHAPE):
    train, val, test = _split_corpus(spec)
    vocab = _vocab_for(train)
    return (build_dataset(train, vocab, shape), build_dataset(val, vocab, shape),
            build_dataset(test, vocab, shape), vocab)


class TestComForward:
    def test_zero_initialized_model_outputs_half(self):
        cfg = DeepConfig(embed_dim=4, filters=3, hidden=5)
        params = init_deep_params(np.random.default_rng(0), 9, cfg)
        for name in params:
            params[name] = np.zeros_like(params[name])
        rng = np.random.default_rng(1)
        msg = rng.integers(0, 9, size=(3, 6))
        files = rng.integers(0, 9, size=(3, 2, 8))
        probs, _, _, _ = forward_batch(params, cfg, msg, files, np.zeros((3, 1)), np.zeros((3, 13)))
        assert np.allclose(probs, 0.5, atol=1e-15)

    def test_permuting_padding_file_rows_is_invariant(self):
        cfg = DeepConfig(embed_dim=4, filters=3, hidden=5)
        params = init_deep_params(np.random.default_rng(3), 9, cfg)
        msg = np.array([[1, 2, 3, 0, 0]])
        files = np.zeros((1, 4, 6), dtype=np.int64)
        files[0, 0] = [2, 4, 5, 1, 0, 0]  # rows 1..3 stay all-padding
        base, _, _, _ = forward_batch(params, cfg, msg, files, np.zeros((1, 1)), np.zeros((1, 13)))
        swapped = files.copy()
        swapped[0, [1, 3]] = swapped[0, [3, 1]]
        perm, _, _, _ = forward_batch(params, cfg, msg, swapped, np.zeros((1, 1)), np.zeros((1, 13)))
        assert np.array_equal(base, perm)

    @pytest.mark.parametrize("all_padding", [False, True])
    def test_padding_file_rows_score_as_alone(self, all_padding):
        cfg = DeepConfig(embed_dim=4, filters=3, hidden=5)
        params = init_deep_params(np.random.default_rng(4), 9, cfg, "gmf")
        rng = np.random.default_rng(5)
        msg = rng.integers(1, 9, size=(4, 5))
        files = rng.integers(0, 9, size=(4, 3, 6))
        files[:, 1:] = 0  # all-padding rows next to real ones
        files[2] = 0  # a commit without any file text
        files[3, 0, 3:] = 0
        if all_padding:
            files[:] = 0
        x_cat = rng.normal(size=(4, 1))
        x_cont = rng.normal(size=(4, 13))
        batch, _, _, _ = forward_batch(params, cfg, msg, files, x_cat, x_cont, "gmf")
        for i in range(4):
            sl = slice(i, i + 1)
            alone, _, _, _ = forward_batch(params, cfg, msg[sl], files[sl], x_cat[sl],
                                           x_cont[sl], "gmf")
            assert np.allclose(batch[i], alone[0], rtol=0, atol=1e-12)

    def test_gradients_with_padding_file_rows(self):
        cfg = DeepConfig(embed_dim=4, filters=3, windows=(1, 2, 3), hidden=5,
                         dropout=0.0, gmf_beta=0.6)
        rng = np.random.default_rng(6)
        msg = rng.integers(0, 11, size=(3, 6))
        files = rng.integers(1, 11, size=(3, 3, 7))
        files[0, 1:] = 0
        files[1, 2] = 0
        files[2] = 0
        x_cat = rng.normal(size=(3, 1))
        x_cont = rng.normal(size=(3, 13))
        y = np.array([1, 0, 1])
        params = init_deep_params(np.random.default_rng(7), 11, cfg, "gmf")

        def stack_loss():
            probs, _, _, cache = forward_batch(params, cfg, msg, files, x_cat, x_cont,
                                               strategy="gmf", training=False)
            loss, d_logits = cross_entropy_batch(probs, y, (1.0, 2.0))
            return loss, backward_batch(params, cache, d_logits)

        assert finite_diff_check(stack_loss, params) < 1e-4

    def test_matches_scalar_loop_oracle(self):
        # micro model (d=4, 2 filters) on a 1-file commit, recomputed with
        # plain loops through the whole hierarchy
        cfg = DeepConfig(embed_dim=4, filters=2, windows=(1, 2), hidden=3, dropout=0.0)
        rng = np.random.default_rng(7)
        vocab_size = 12
        params = init_deep_params(rng, vocab_size, cfg)
        msg_ids = np.array([3, 5, 2, 7, 0, 0])
        file_ids = np.array([[4, 9, 1, 6, 2, 0, 0, 0]])

        z_m_ref = scalar_loop_textcnn(params, "msg_cnn", params["msg_emb"][msg_ids])
        file_vec = scalar_loop_textcnn(params, "file_cnn", params["code_emb"][file_ids[0]])
        # one file vector; the aggregation input is zero-extended to the
        # largest window size, mirrored here for the oracle
        agg_input = np.concatenate([file_vec[None, :], np.zeros((1, len(file_vec)))], axis=0)
        z_c_ref = scalar_loop_textcnn(params, "agg_cnn", agg_input)
        z = np.concatenate([z_m_ref, z_c_ref])
        hidden = np.maximum(params["clf.wh"] @ z + params["clf.bh"], 0.0)
        logits = params["clf.wo"] @ hidden + params["clf.bo"]
        exp = np.exp(logits - logits.max())
        probs_ref = exp / exp.sum()

        probs, z_m, z_c, _ = forward_batch(params, cfg, msg_ids[None, :], file_ids[None, :, :],
                                           np.zeros((1, 1)), np.zeros((1, 13)))
        assert np.allclose(z_m[0], z_m_ref, atol=1e-12)
        assert np.allclose(z_c[0], z_c_ref, atol=1e-12)
        assert np.allclose(probs[0], probs_ref, atol=1e-12)


MICRO_SPEC_TEXT = SyntheticSpec(size=400, feature_strength=0.0, text_strength=1.0, seed=7)
MICRO_SPEC_FEATURE = SyntheticSpec(size=400, feature_strength=1.0, text_strength=0.0, seed=7)


class TestTrainDeep:
    def test_learns_planted_text_signal(self):
        train, val, test, vocab = _datasets(MICRO_SPEC_TEXT)
        params, log = train_deep(train, val, len(vocab), DESK_CONFIG, seed=5)
        scores = score_dataset(params, DESK_CONFIG, test)
        assert roc_auc(scores, test.labels) >= 0.9
        assert len(log) == DESK_CONFIG.epochs

    def test_blind_to_feature_only_signal(self):
        train, val, test, vocab = _datasets(MICRO_SPEC_FEATURE)
        params, _ = train_deep(train, val, len(vocab), DESK_CONFIG, seed=5)
        scores = score_dataset(params, DESK_CONFIG, test)
        assert roc_auc(scores, test.labels) <= 0.6

    def test_loss_decreases_on_learnable_data(self):
        train, val, _, vocab = _datasets(MICRO_SPEC_TEXT)
        _, log = train_deep(train, val, len(vocab), DESK_CONFIG, seed=5)
        losses = [e.train_loss for e in log[:5]]
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_checkpoint_is_argmax_of_log(self):
        train, val, test, vocab = _datasets(MICRO_SPEC_TEXT)
        params, log = train_deep(train, val, len(vocab), DESK_CONFIG, seed=5)
        best_epoch = max(log, key=lambda e: e.metric_mean)
        from jitdp.evaluation import prf1

        report = prf1(score_dataset(params, DESK_CONFIG, val), val.labels)
        returned_mean = (report.auc_roc + report.auc_pr + report.f1) / 3
        assert returned_mean == pytest.approx(best_epoch.metric_mean, abs=1e-12)
        assert all(best_epoch.metric_mean >= e.metric_mean for e in log)

    def test_seeded_runs_reproduce_identical_logs(self):
        train, val, _, vocab = _datasets(SyntheticSpec(size=150, text_strength=1.0, seed=3))
        cfg = DeepConfig(embed_dim=4, filters=4, hidden=8, dropout=0.5, lr=1e-3,
                         batch_size=16, epochs=3)
        _, log_a = train_deep(train, val, len(vocab), cfg, seed=11)
        _, log_b = train_deep(train, val, len(vocab), cfg, seed=11)
        assert log_a == log_b

    def test_empty_validation_rejected(self):
        train, val, _, vocab = _datasets(SyntheticSpec(size=150, seed=3))
        empty_val = dataclasses.replace(
            val, commit_ids=(), message_ids=val.message_ids[:0],
            file_ids=val.file_ids[:0], x_cat=val.x_cat[:0], x_cont=val.x_cont[:0],
            labels=val.labels[:0])
        with pytest.raises(TrainingError, match="validation"):
            train_deep(train, empty_val, len(vocab), DESK_CONFIG, seed=0)

    @pytest.mark.parametrize("label", [0, 1])
    def test_one_class_validation_rejected_before_training(self, label, monkeypatch):
        # every epoch's validation AUC would be NaN, so no epoch could be kept
        train, val, _, vocab = _datasets(SyntheticSpec(size=150, seed=3))
        one_class = dataclasses.replace(val, labels=np.full(len(val), label))
        monkeypatch.setattr(nn, "adam_step", lambda *a: pytest.fail("an epoch ran"))
        with pytest.raises(TrainingError, match="validation split must contain both classes"):
            train_deep(train, one_class, len(vocab), DESK_CONFIG, seed=0)

    def test_class_weight_doubles_defective_loss_terms(self):
        rng = np.random.default_rng(9)
        probs = rng.dirichlet((1, 1), size=8)
        labels = np.array([1, 0, 1, 0, 1, 1, 0, 0])
        base, _ = cross_entropy_batch(probs, labels, (1.0, 2.0))
        doubled, _ = cross_entropy_batch(probs, labels, (1.0, 4.0))
        only_defective, _ = cross_entropy_batch(probs, labels, (0.0, 2.0))
        assert doubled - base == pytest.approx(only_defective, abs=1e-12)


STRATEGIES = ("none", "sc", "tc", "amf", "gmf")


def _with_features(ds, seed):
    rng = np.random.default_rng(seed)
    return dataclasses.replace(ds, x_cat=rng.normal(size=(len(ds), 1)),
                               x_cont=rng.normal(size=(len(ds), 13)))


class TestLockstep:
    """The commit model and the early-fused models as one stack: trained in
    lockstep and scored in one pass, each the bits of a lone model."""

    def test_lockstep_training_matches_separate_runs(self, tmp_path):
        train, val, _, vocab = _datasets(SyntheticSpec(size=200, text_strength=1.0, seed=4))
        train, val = _with_features(train, 1), _with_features(val, 2)
        cfg = dataclasses.replace(DESK_CONFIG, epochs=2)
        lockstep = train_deep(train, val, len(vocab), cfg, seed=3, strategy=STRATEGIES)
        assert len(lockstep) == len(STRATEGIES)
        for s, (params, log) in zip(STRATEGIES, lockstep):
            alone, alone_log = train_deep(train, val, len(vocab), cfg, seed=3, strategy=s)
            assert log == alone_log, s
            save_params(tmp_path / "lockstep.ckpt", params)
            save_params(tmp_path / "alone.ckpt", alone)
            assert (tmp_path / "lockstep.ckpt").read_bytes() == (tmp_path / "alone.ckpt").read_bytes(), s

    @pytest.mark.parametrize("block", [nn._TEXTCNN_BLOCK, 1 << 12])
    def test_stacked_scores_match_per_model_scores(self, block, monkeypatch):
        _, val, test, vocab = _datasets(SyntheticSpec(size=200, text_strength=1.0, seed=4))
        test = _with_features(test, 5)
        models = [init_deep_params(np.random.default_rng(i), len(vocab), DESK_CONFIG, s)
                  for i, s in enumerate(STRATEGIES)]
        alone = [score_dataset(p, DESK_CONFIG, test, s, batch=16)
                 for p, s in zip(models, STRATEGIES)]
        stack = stack_params(models)
        monkeypatch.setattr(nn, "_TEXTCNN_BLOCK", block)
        scores = score_dataset(stack, DESK_CONFIG, test, STRATEGIES, batch=16)
        assert scores.shape == (len(test), len(STRATEGIES))
        for m, ref in enumerate(alone):
            assert np.array_equal(scores[:, m], ref), STRATEGIES[m]
            unstacked = model_params(stack, len(models), m)
            assert list(unstacked) == list(models[m])
            assert all(np.array_equal(unstacked[n], models[m][n]) for n in models[m])


class TestScoreDataset:
    """score_dataset runs each textCNN without a cache, all-padding file rows
    included, and shares the heads' code with forward_batch: every score is
    forward_batch's, bit for bit, in passes of any size."""

    @pytest.mark.parametrize("block", [nn._TEXTCNN_BLOCK, 1 << 12])
    @pytest.mark.parametrize("batch", [1, 7, 256])
    def test_scores_are_forward_batch_bits(self, block, batch, monkeypatch):
        _, _, test, vocab = _datasets(SyntheticSpec(size=300, text_strength=1.0, seed=4))
        test = _with_features(test, 5)
        assert (test.file_ids == 0).all(axis=2).any()  # all-padding file rows
        models = [init_deep_params(np.random.default_rng(i), len(vocab), DESK_CONFIG, s)
                  for i, s in enumerate(STRATEGIES)]
        monkeypatch.setattr(nn, "_TEXTCNN_BLOCK", block)
        for params, strategy in ((models[4], "gmf"), (stack_params(models), STRATEGIES)):
            scores = score_dataset(params, DESK_CONFIG, test, strategy, batch=batch)
            want = []
            for start in range(0, len(test), batch):
                sl = slice(start, start + batch)
                probs, _, _, _ = forward_batch(params, DESK_CONFIG, test.message_ids[sl],
                                               test.file_ids[sl], test.x_cat[sl], test.x_cont[sl],
                                               strategy)
                want.append(probs[:, 1] if strategy == "gmf" else np.stack([p[:, 1] for p in probs], 1))
            assert scores.tobytes() == np.concatenate(want).tobytes()

    @pytest.mark.parametrize("widths", ["desk", "full_scale"])
    def test_int16_ids_score_as_int64_ids(self, widths):
        """predict's shared slots hold ids as int16 for vocabularies of up to
        32,768 entries: the same ids as int16 give the bits of int64 ids, at
        ids across a 20,000-entry vocabulary, with all-padding rows."""
        cfg, shape = ((DESK_CONFIG, DESK_SHAPE) if widths == "desk"
                      else (DeepConfig(), TextShape()))
        rng = np.random.default_rng(7)
        n, vocab_size = 300, 20_000

        def ids(rows, length):
            out = rng.integers(1, vocab_size, (*rows, length))
            out[np.arange(length) >= rng.integers(0, length + 1, (*rows, 1))] = PAD_ID
            return out

        wide = DeepDataset(commit_ids=tuple(map(str, range(n))), message_ids=ids((n,), shape.l_msg),
                           file_ids=ids((n, shape.files), shape.l_code), x_cat=rng.normal(size=(n, 1)),
                           x_cont=rng.normal(size=(n, 13)), labels=np.full(n, -1))
        assert (wide.file_ids == PAD_ID).all(axis=2).any() and wide.file_ids.max() > 2**14
        narrow = dataclasses.replace(wide, message_ids=wide.message_ids.astype(np.int16),
                                     file_ids=wide.file_ids.astype(np.int16))
        stack = stack_params([init_deep_params(np.random.default_rng(i), vocab_size, cfg, s)
                              for i, s in enumerate(("none", "gmf"))])
        want = score_dataset(stack, cfg, wide, ("none", "gmf"))
        assert score_dataset(stack, cfg, narrow, ("none", "gmf")).tobytes() == want.tobytes()

    def test_no_forward_batch_and_no_cache(self, monkeypatch):
        _, _, test, vocab = _datasets(SyntheticSpec(size=120, text_strength=1.0, seed=4))
        params = init_deep_params(np.random.default_rng(0), len(vocab), DESK_CONFIG)
        caches = []
        forward = nn.textcnn_forward

        def spy(*args, **kwargs):
            z, cache = forward(*args, **kwargs)
            caches.append(cache)
            return z, cache

        monkeypatch.setattr("jitdp.deep_model.forward_batch", None)
        monkeypatch.setattr(nn, "textcnn_forward", spy)
        score_dataset(params, DESK_CONFIG, test, batch=16)
        assert len(caches) == 3 * -(-len(test) // 16)
        assert all(c is None for c in caches)


class TestTrainLogFile:
    def test_one_row_per_epoch(self, tmp_path):
        log = [TrainLogEntry(0, 0.7, 0.6, 0.4, 0.5), TrainLogEntry(1, 0.5, 0.7, 0.5, 0.6)]
        path = tmp_path / "log.csv"
        write_train_log(path, log)
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("epoch,")
        assert lines[1].split(",")[0] == "0"
