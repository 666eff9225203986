"""Layer-level tests: forward values against hand arithmetic and scalar-loop
oracles, gradients against central differences, Adam and dropout contracts,
checkpoint container round-trip."""

import copy
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from jitdp import nn


def dense(grad, shape) -> np.ndarray:
    """A gradient as an array of its parameter's shape: an nn.RowGrad is
    zero outside its rows."""
    if not isinstance(grad, nn.RowGrad):
        return grad
    out = np.zeros((math.prod(shape) // grad.sums.shape[1], grad.sums.shape[1]))
    out[grad.rows] = grad.sums
    return out.reshape(shape)


def finite_diff_check(loss_and_grads, params) -> float:
    """Compare analytic gradients against central differences.

    loss_and_grads() evaluates the model at the current params and returns
    (scalar loss, grads dict). Probes every coordinate of every parameter
    that has a gradient (densified, if an nn.RowGrad), and returns the max
    relative error
    |analytic - numeric| / max(|analytic|, |numeric|, 1e-8).
    """
    eps = 1e-5
    loss0, grads = loss_and_grads()
    if not np.isfinite(loss0):
        raise FloatingPointError("non-finite loss at the probe point")
    worst = 0.0
    for name in sorted(params):
        if name not in grads:
            continue
        flat = params[name].reshape(-1)
        analytic = dense(grads[name], params[name].shape).reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            plus, _ = loss_and_grads()
            flat[i] = orig - eps
            minus, _ = loss_and_grads()
            flat[i] = orig
            numeric = (plus - minus) / (2 * eps)
            err = abs(analytic[i] - numeric) / max(abs(analytic[i]), abs(numeric), 1e-8)
            worst = max(worst, err)
    return worst


def scalar_loop_textcnn(params, prefix, x):
    """Oracle: naive loops over filters and window positions."""
    windows = sorted(int(k.rsplit(".w", 1)[1]) for k in params if k.startswith(f"{prefix}.w"))
    outs = []
    for k in windows:
        w = params[f"{prefix}.w{k}"]
        b = params[f"{prefix}.b{k}"]
        for f in range(w.shape[0]):
            best = -np.inf
            for pos in range(x.shape[0] - k + 1):
                acc = 0.0
                for i in range(k):
                    for j in range(x.shape[1]):
                        acc += w[f, i, j] * x[pos + i, j]
                acc += b[f]
                best = max(best, max(acc, 0.0))
            outs.append(best)
    return np.array(outs)


def scalar_loop_textcnn_backward(params, prefix, x, d_z):
    """Oracle: each filter's gradient flows through its first argmax window
    only, and only where that window's pre-activation is positive."""
    windows = sorted(int(k.rsplit(".w", 1)[1]) for k in params if k.startswith(f"{prefix}.w"))
    batch, orig_len, d_in = x.shape
    length = max(orig_len, max(windows))
    xe = np.zeros((batch, length, d_in))
    xe[:, :orig_len] = x
    d_x = np.zeros_like(xe)
    grads = {n: np.zeros_like(v) for n, v in params.items() if n.startswith(f"{prefix}.")}
    col = 0
    for k in windows:
        w = params[f"{prefix}.w{k}"]
        b = params[f"{prefix}.b{k}"]
        for f in range(w.shape[0]):
            for r in range(batch):
                best, best_pos = -np.inf, 0
                for pos in range(length - k + 1):
                    acc = b[f]
                    for i in range(k):
                        for j in range(d_in):
                            acc += w[f, i, j] * xe[r, pos + i, j]
                    if acc > best:
                        best, best_pos = acc, pos
                if best <= 0:
                    continue
                g = d_z[r, col + f]
                grads[f"{prefix}.b{k}"][f] += g
                for i in range(k):
                    for j in range(d_in):
                        grads[f"{prefix}.w{k}"][f, i, j] += g * xe[r, best_pos + i, j]
                        d_x[r, best_pos + i, j] += g * w[f, i, j]
        col += w.shape[0]
    return d_x[:, :orig_len], grads


class TestTextCnnForward:
    def test_all_padding_zero_model_gives_zeros(self):
        params = {"t.w1": np.zeros((2, 1, 4)), "t.b1": np.zeros(2),
                  "t.w2": np.zeros((2, 2, 4)), "t.b2": np.zeros(2)}
        emb = np.zeros((5, 4))
        ids = np.zeros((3, 6), dtype=np.int64)
        z, _ = nn.textcnn_forward(params, "t", ids, embedding=emb)
        assert np.array_equal(z, np.zeros((3, 4)))

    def test_identity_filter_max_pool(self):
        # single k=1 filter selecting coordinate 1; max over positions = 3.7
        params = {"t.w1": np.zeros((1, 1, 3)), "t.b1": np.zeros(1)}
        params["t.w1"][0, 0, 1] = 1.0
        x = np.zeros((1, 4, 3))
        x[0, :, 1] = [0.5, 1.2, 3.7, 2.0]
        z, _ = nn.textcnn_forward(params, "t", x)
        assert z[0, 0] == 3.7

    def test_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(12)
        params = nn.textcnn_init(rng, "t", 4, (1, 2, 3), 5)
        emb = rng.normal(size=(10, 4))
        ids = rng.integers(0, 10, size=(3, 9))
        z, _ = nn.textcnn_forward(params, "t", ids, embedding=emb)
        for b in range(3):
            ref = scalar_loop_textcnn(params, "t", emb[ids[b]])
            assert np.allclose(z[b], ref, atol=1e-12)

    def test_short_input_zero_extended(self):
        rng = np.random.default_rng(2)
        params = nn.textcnn_init(rng, "t", 4, (1, 2, 3), 6)
        x = rng.normal(size=(2, 2, 4))  # shorter than max window 3
        z, _ = nn.textcnn_forward(params, "t", x)
        padded = np.concatenate([x, np.zeros((2, 1, 4))], axis=1)
        z_ref, _ = nn.textcnn_forward(params, "t", padded)
        assert np.allclose(z, z_ref, atol=1e-15)

    def test_padding_suffix_permutation_invariant(self):
        rng = np.random.default_rng(3)
        params = nn.textcnn_init(rng, "t", 4, (1, 2), 4)
        emb = rng.normal(size=(9, 4))
        ids = np.array([[5, 6, 7, 0, 0, 0]])
        z1, _ = nn.textcnn_forward(params, "t", ids, embedding=emb)
        z2, _ = nn.textcnn_forward(params, "t", np.array([[5, 6, 7, 0, 0, 0]]), embedding=emb)
        assert np.array_equal(z1, z2)

    def test_id_out_of_range_rejected(self):
        params = nn.textcnn_init(np.random.default_rng(0), "t", 2, (1,), 1)
        with pytest.raises(ValueError, match="out of range"):
            nn.textcnn_forward(params, "t", np.array([[0, 7]]), embedding=np.zeros((3, 2)))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(4)
        params = nn.textcnn_init(rng, "t", 3, (1, 2, 3), 4)
        emb_table = rng.normal(size=(8, 3))
        params["emb"] = emb_table
        ids = rng.integers(0, 8, size=(2, 7))
        target = rng.normal(size=(2, 4))

        def loss_and_grads():
            x = nn.embedding_forward(params["emb"], ids)
            z, cache = nn.textcnn_forward(params, "t", x)
            diff = z - target
            loss = 0.5 * float((diff**2).sum())
            d_x, grads = nn.textcnn_backward(params, cache, diff)
            grads["emb"] = nn.embedding_backward(d_x, ids, 8)
            return loss, grads

        assert finite_diff_check(loss_and_grads, params) < 1e-4


class TestTextCnnBackward:
    @pytest.mark.parametrize("case", ["ids", "vectors", "shorter_than_window"])
    def test_matches_scalar_loop_oracle(self, case):
        rng = np.random.default_rng(21)
        d_in = 6 if case == "vectors" else 4
        params = nn.textcnn_init(rng, "t", d_in, (1, 2, 3), 7)
        for k in (1, 2, 3):
            params[f"t.b{k}"] = rng.normal(scale=0.3, size=params[f"t.b{k}"].shape)
        emb = ids = None
        if case == "ids":
            emb = rng.normal(size=(10, d_in))
            ids = rng.integers(0, 10, size=(3, 9))
            ids[1, 4:] = 0  # padding tail
            x = emb[ids]
            z, cache = nn.textcnn_forward(params, "t", ids, embedding=emb)
        else:
            # (commits, files, file vector) as the aggregation CNN sees it
            x = rng.normal(size=(3, 4, d_in) if case == "vectors" else (2, 2, d_in))
            z, cache = nn.textcnn_forward(params, "t", x)
        d_z = rng.normal(size=z.shape)
        d_input, grads = nn.textcnn_backward(params, cache, d_z)
        d_x_ref, grads_ref = scalar_loop_textcnn_backward(params, "t", x, d_z)
        if case == "ids":
            d_input = dense(d_input, emb.shape)
            # token-id input returns the gradient of the table: the oracle's
            # input gradient folded onto the ids
            emb_ref = np.zeros_like(emb)
            for r in range(ids.shape[0]):
                for t in range(ids.shape[1]):
                    emb_ref[ids[r, t]] += d_x_ref[r, t]
            assert d_input.shape == emb.shape
            assert np.allclose(d_input, emb_ref, atol=1e-12)
            assert np.allclose(nn.embedding_backward(d_x_ref, ids, 10), emb_ref, atol=1e-12)
        else:
            assert d_input.shape == x.shape
            assert np.allclose(d_input, d_x_ref, atol=1e-12)
        assert sorted(grads) == sorted(grads_ref)
        for name in grads:
            assert np.allclose(grads[name], grads_ref[name], atol=1e-12), name

    def test_embedding_backward_matches_add_at_bit_for_bit(self):
        rng = np.random.default_rng(22)
        ids = rng.integers(0, 5, size=(4, 30))
        d_out = rng.normal(size=(4, 30, 3))
        ref = np.zeros((5, 3))
        np.add.at(ref, ids.reshape(-1), d_out.reshape(-1, 3))
        assert np.array_equal(nn.embedding_backward(d_out, ids, 5), ref)


@st.composite
def id_batches(draw):
    """(B, L) token ids with padding tails, interior zeros and all-padding
    rows, at lengths below, at and one past the widest window (3)."""
    length = draw(st.sampled_from([1, 2, 3, 4, 7, 12]))
    batch = draw(st.integers(1, 6))
    rows = []
    for _ in range(batch):
        real = draw(st.integers(0, length))
        rows.append(draw(st.lists(st.integers(0, 9), min_size=real, max_size=real))
                    + [0] * (length - real))
    return np.array(rows, dtype=np.int64)


def _id_path_against_vectors(ids, block, params, emb, d_z_seed=0):
    """Run the id path (with _TEXTCNN_BLOCK = block) and the vector path on
    emb[ids]; assert the id path's contract against the vector path and
    return the id path's cache."""
    with mock.patch.object(nn, "_TEXTCNN_BLOCK", block):
        z, cache = nn.textcnn_forward(params, "t", ids, embedding=emb)
    z_ref, cache_ref = nn.textcnn_forward(params, "t", emb[ids])
    for (k, arg, _), (_, arg_ref, _) in zip(cache["banks"], cache_ref["banks"]):
        assert np.array_equal(arg, arg_ref), k
    np.testing.assert_allclose(z, z_ref, rtol=1e-15, atol=1e-15)
    d_z = np.random.default_rng(d_z_seed).normal(size=z.shape)
    d_table, grads = nn.textcnn_backward(params, cache, d_z)
    d_x, grads_ref = nn.textcnn_backward(params, cache_ref, d_z)
    assert np.array_equal(dense(d_table, emb.shape), nn.embedding_backward(d_x, ids, len(emb)))
    assert sorted(grads) == sorted(grads_ref)
    for name in grads:
        assert np.array_equal(grads[name], grads_ref[name]), name
    return cache


class TestTextCnnIdPath:
    """A token-id batch larger than one chunk is pooled packed, embedding
    only each row's kept prefix, and every id batch returns the table
    gradient; both must match the vector path on the embedded ids."""

    @settings(max_examples=150, deadline=None)
    @given(ids=id_batches(), block=st.sampled_from([1, 150, 400, 1 << 20]),
           seed=st.integers(0, 1000))
    def test_matches_vector_path(self, ids, block, seed):
        rng = np.random.default_rng(seed)
        params = nn.textcnn_init(rng, "t", 4, (1, 2, 3), 7)
        for k in (1, 2, 3):
            params[f"t.b{k}"] = rng.normal(scale=0.3, size=params[f"t.b{k}"].shape)
        _id_path_against_vectors(ids, block, params, rng.normal(size=(10, 4)), seed)

    @pytest.mark.parametrize("block", [1, 150, 1 << 20])
    def test_padding_window_wins_at_real_length(self, block):
        # positive filters, a positive PAD vector and negative tokens: every
        # filter's maximum is an all-padding window, the first at row length
        rng = np.random.default_rng(31)
        params = nn.textcnn_init(rng, "t", 4, (1, 2, 3), 9)
        params = {n: np.abs(v) for n, v in params.items()}
        emb = -np.abs(rng.normal(size=(10, 4)))
        emb[0] = 1.0
        real = np.array([0, 1, 5, 9, 12, 3, 17])
        ids = np.zeros((len(real), 20), dtype=np.int64)
        for r, n in enumerate(real):
            ids[r, :n] = rng.integers(1, 10, size=n)
        cache = _id_path_against_vectors(ids, block, params, emb)
        for k, arg, _ in cache["banks"]:
            assert np.array_equal(arg, np.repeat(real[:, None], arg.shape[1], axis=1)), k


@st.composite
def scoring_cases(draw):
    """M stacked models' textCNN params and a ragged token-id batch: all-padding
    rows, rows shorter than the widest window, rows of any length and full
    rows, at lengths that are and are not multiples of 8; and a block that
    pools the batch whole, packed in one chunk, or packed in many."""
    models = draw(st.sampled_from([1, 2, 5]))
    windows = draw(st.sampled_from([(1, 2, 3), (2, 5)]))
    d_in = draw(st.sampled_from([1, 3, 8]))
    filters = draw(st.sampled_from([2, 5, 8]))
    length = draw(st.sampled_from([windows[-1], 7, 8, 12, 16, 24, 31, 40]))
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    stack = [nn.textcnn_init(rng, "t", d_in, windows, filters) for _ in range(models)]
    params = {n: np.concatenate([p[n] for p in stack], axis=-1) for n in stack[0]}
    for n in params:
        if ".b" in n:
            params[n] = rng.normal(scale=0.3, size=params[n].shape)
    ids = np.zeros((draw(st.integers(1, 40)), length), dtype=np.int64)
    for r in range(len(ids)):
        real = draw(st.sampled_from([0, 1, windows[-1] - 1, length // 2, length]))
        ids[r, :real] = rng.integers(1, 30, size=real)
    block = draw(st.sampled_from([1, 64, 600, 4000, 1 << 19]))
    return params, ids, rng.normal(size=(30, models * d_in)), block


def _kept_prefixes(ids, widest):
    """min(L, real length + widest window, rounded up to 8 tokens) per row."""
    real = np.array([np.flatnonzero(row).max() + 1 if row.any() else 0 for row in ids])
    return np.minimum(-(-(real + widest) // 8) * 8, ids.shape[1])


class TestTextCnnScoringPool:
    """Scoring pools without an argmax: each filter's row maximum, from whole
    rows, or from each row's kept prefix laid end to end in chunks. The
    maxima are the training path's pre_at_max bit for bit when L is a
    multiple of 8. Otherwise a row can end inside an 8-column tile of the
    tap GEMM, which OpenBLAS may sum in another order, and they agree within
    the id path's tolerance."""

    @settings(max_examples=200, deadline=None)
    @given(case=scoring_cases())
    def test_maxima_match_training_at_max(self, case):
        params, ids, table, block = case
        _, cache = nn.textcnn_forward(params, "t", ids, embedding=table)
        at_max = np.concatenate([a for _, _, a in cache["banks"]], axis=2)
        layout = nn.textcnn_layout(params, "t")
        with mock.patch.object(nn, "_TEXTCNN_BLOCK", block):
            maxima, args = nn._pool(layout.taps_w, layout.banks, ids, table)
            z, none = nn.textcnn_forward(params, "t", ids, embedding=table, cache=False)
        assert none is None and args is None
        assert maxima.shape == at_max.shape
        if ids.shape[1] % 8 == 0:
            _assert_same_bits(maxima, at_max)
            _assert_same_bits(z, nn.relu(at_max).reshape(len(ids), -1))
        else:
            np.testing.assert_allclose(maxima, at_max, rtol=1e-15, atol=1e-15)

    @pytest.mark.parametrize("vectors", [False, True])
    def test_full_scale_width(self, vectors):
        # d_in 64 and 127 taps, where OpenBLAS takes another kernel for a
        # GEMM of few columns: a commit's 8 file rows and a 64-commit pass
        rng = np.random.default_rng(42)
        params = nn.textcnn_init(rng, "t", 64, (1, 2, 3), 64)
        for k in (1, 2, 3):
            params[f"t.b{k}"] = rng.normal(scale=0.1, size=params[f"t.b{k}"].shape)
        table = rng.normal(size=(500, 64))
        ids = rng.integers(1, 500, size=(512, 256))
        ids[np.arange(256) >= rng.integers(0, 257, size=(512, 1))] = 0
        ids[::3] = 0
        for batch in (ids[:1], ids[:8], ids[8:16], ids):
            x = table[batch] if vectors else batch
            z, _ = nn.textcnn_forward(params, "t", x, embedding=None if vectors else table)
            _assert_same_bits(nn.textcnn_forward(params, "t", x, embedding=None if vectors else table,
                                                 cache=False)[0], z)
        if vectors:
            return
        # training's argmax windows and gradients: packed past one chunk (the
        # default block), or whole (a block larger than any batch)
        for batch in (ids[:1], ids[:8], ids[:64]):
            d_z = rng.normal(size=(len(batch), 64))
            passes = []
            for block in (nn._TEXTCNN_BLOCK, 1 << 40):
                with mock.patch.object(nn, "_TEXTCNN_BLOCK", block):
                    _, cache = nn.textcnn_forward(params, "t", batch, embedding=table)
                passes.append((cache["banks"], *nn.textcnn_backward(params, cache, d_z)))
            (banks, d_table, grads), (banks_whole, d_whole, grads_whole) = passes
            for (_, arg, at_max), (_, arg_whole, at_max_whole) in zip(banks, banks_whole):
                _assert_same_bits(arg, arg_whole)
                _assert_same_bits(at_max, at_max_whole)
            _assert_same_bits(d_table.rows, d_whole.rows)
            _assert_same_bits(d_table.sums, d_whole.sums)
            assert sorted(grads) == sorted(grads_whole)
            for name in grads:
                _assert_same_bits(grads[name], grads_whole[name])

    @pytest.mark.parametrize("models", [1, 5])
    @pytest.mark.parametrize("cache", [False, True])
    def test_padding_past_each_prefix_is_never_embedded(self, monkeypatch, cache, models):
        # a chunk of 200 positions, the taps of every model counted; the
        # cached path packs the same chunks and keeps the vector path's bits
        rng = np.random.default_rng(34)
        params = {n: np.concatenate([v] * models, axis=-1)
                  for n, v in nn.textcnn_init(rng, "t", 3, (1, 2, 3), 5).items()}
        taps = models * sum(w.shape[0] * w.shape[1] for n, w in params.items() if ".w" in n)
        ids = rng.integers(1, 20, size=(40, 32))
        for r, n in enumerate(rng.integers(0, 33, size=40)):
            ids[r, n:] = 0
        ids[[3, 17]] = 0
        embedded = []
        monkeypatch.setattr(nn, "embedding_forward",
                            lambda table, part: embedded.append(part.copy()) or table[part])
        monkeypatch.setattr(nn, "_TEXTCNN_BLOCK", taps * 200)
        table = rng.normal(size=(20, 3 * models))
        if cache:
            # z, each bank's argmax and the gradients as on the embedded ids
            _id_path_against_vectors(ids, taps * 200, params, table)
        else:
            z, _ = nn.textcnn_forward(params, "t", ids, embedding=table, cache=False)
            assert z.shape == (40, 5 * models)
        kept = _kept_prefixes(ids, 3)
        kept[np.flatnonzero(~ids.any(axis=1))[1:]] = 0  # later all-padding rows pool as the first
        assert len(embedded) > 3  # chunks of about 200 positions
        assert all(len(part) <= 200 + 32 for part in embedded)
        # the embedded ids are each row's kept prefix, rows in order
        assert np.array_equal(np.concatenate(embedded),
                              np.concatenate([row[:n] for row, n in zip(ids, kept)]))
        assert sum(map(len, embedded)) == kept.sum() < ids.size


class TestClassifier:
    def test_zero_params_give_half_half(self):
        params = {"c.wh": np.zeros((4, 3)), "c.bh": np.zeros(4),
                  "c.wo": np.zeros((2, 4)), "c.bo": np.zeros(2)}
        probs, _ = nn.classifier_forward(params, "c", np.ones((5, 3)))
        assert np.allclose(probs, 0.5, atol=1e-15)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(5)
        params = nn.classifier_init(rng, "c", 6, 8)
        probs, _ = nn.classifier_forward(params, "c", rng.normal(size=(40, 6)))
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        assert np.all((probs > 0) & (probs < 1))

    def test_hand_computed_two_by_two(self):
        params = {
            "c.wh": np.array([[1.0, 0.0], [0.0, 1.0]]),
            "c.bh": np.array([0.1, -0.2]),
            "c.wo": np.array([[0.5, -1.0], [1.0, 2.0]]),
            "c.bo": np.array([0.0, 0.3]),
        }
        z = np.array([[0.4, 0.7]])
        # by hand: hidden = relu((0.4+0.1, 0.7-0.2)) = (0.5, 0.5)
        # logits = (0.5*0.5 - 1*0.5, 1*0.5 + 2*0.5 + 0.3) = (-0.25, 1.8)
        e0, e1 = math.exp(-0.25), math.exp(1.8)
        expected = (e0 / (e0 + e1), e1 / (e0 + e1))
        probs, _ = nn.classifier_forward(params, "c", z)
        assert probs[0] == pytest.approx(expected, abs=1e-12)

    def test_dimension_mismatch_rejected(self):
        params = nn.classifier_init(np.random.default_rng(0), "c", 6, 4)
        with pytest.raises(ValueError, match="dim"):
            nn.classifier_forward(params, "c", np.zeros((1, 5)))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(6)
        params = nn.classifier_init(rng, "c", 5, 7)
        z = rng.normal(size=(3, 5))
        labels = np.array([0, 1, 1])

        def loss_and_grads():
            probs, cache = nn.classifier_forward(params, "c", z)
            loss, d_logits = nn.cross_entropy_batch(probs, labels, (1.0, 1.5))
            _, grads = nn.classifier_backward(params, cache, d_logits)
            return loss, grads

        assert finite_diff_check(loss_and_grads, params) < 1e-4


class TestCrossEntropy:
    def test_even_split_gives_ln2(self):
        loss, _ = nn.cross_entropy_batch(np.array([[0.5, 0.5]]), np.array([1]))
        assert loss == pytest.approx(math.log(2), abs=1e-12)

    def test_confident_correct_goes_to_zero(self):
        loss, _ = nn.cross_entropy_batch(np.array([[1e-9, 1.0 - 1e-9]]), np.array([1]))
        assert loss < 1e-8

    def test_weight_scales_loss_linearly(self):
        probs, labels = np.array([[0.3, 0.7]]), np.array([1])
        base, base_grad = nn.cross_entropy_batch(probs, labels, (1.0, 1.0))
        double, double_grad = nn.cross_entropy_batch(probs, labels, (1.0, 2.0))
        assert double == pytest.approx(2 * base, abs=1e-12)
        assert np.allclose(double_grad, 2 * base_grad, atol=1e-12)

    def test_batch_mean_and_per_example_weights(self):
        probs = np.array([[0.8, 0.2], [0.4, 0.6]])
        labels = np.array([0, 1])
        loss, _ = nn.cross_entropy_batch(probs, labels, (1.0, 3.0))
        expected = (-math.log(0.8) - 3 * math.log(0.6)) / 2
        assert loss == pytest.approx(expected, abs=1e-12)


class TestAdam:
    def test_zero_gradient_is_fixed_point(self):
        params = {"w": np.array([1.0, -2.0])}
        state = nn.AdamState(lr=0.1)
        nn.adam_step(state, params, {"w": np.zeros(2)})
        assert np.array_equal(params["w"], [1.0, -2.0])

    def test_first_step_magnitude_is_learning_rate(self):
        params = {"w": np.array([0.0])}
        state = nn.AdamState(lr=0.05)
        nn.adam_step(state, params, {"w": np.array([3.4])})
        assert params["w"][0] == pytest.approx(-0.05, rel=1e-6)

    def test_quadratic_descent_monotone(self):
        theta = {"w": np.array([1.0])}
        state = nn.AdamState(lr=0.1)
        values = [abs(theta["w"][0])]
        for _ in range(10):
            nn.adam_step(state, theta, {"w": 2 * theta["w"]})
            values.append(abs(theta["w"][0]))
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_five_steps_equal_textbook_update_bit_for_bit(self):
        rng = np.random.default_rng(23)
        # a table, a filter bank, a bias, and one parameter without a gradient
        shapes = {"emb": (2053, 8), "w": (3, 2, 4), "b": (7,), "frozen": (2,)}
        params = {n: rng.normal(size=s) for n, s in shapes.items()}
        ref = {n: p.copy() for n, p in params.items()}
        state = nn.AdamState(lr=0.01)
        m = {n: np.zeros(s) for n, s in shapes.items()}
        v = {n: np.zeros(s) for n, s in shapes.items()}
        b1, b2, eps = state.beta1, state.beta2, state.eps
        for t in range(1, 6):
            grads = {n: rng.normal(size=s) for n, s in shapes.items() if n != "frozen"}
            nn.adam_step(state, params, grads)
            for n, g in grads.items():
                m[n] += (1 - b1) * (g - m[n])
                v[n] += (1 - b2) * (g * g - v[n])
                m_hat = m[n] / (1 - b1**t)
                v_hat = v[n] / (1 - b2**t)
                ref[n] -= state.lr * m_hat / (np.sqrt(v_hat) + eps)
        for n in shapes:
            assert np.array_equal(params[n], ref[n]), n
        assert "frozen" not in state.m

    def test_blocks_equal_textbook_update_bit_for_bit(self):
        block = nn._ADAM_BLOCK
        rng = np.random.default_rng(29)
        # "a" and "b" fill one block exactly, "big" spans three blocks, the
        # last one partial, "whole" is one block, "c" and "d" share one
        shapes = {"a": (block - 12,), "b": (4, 3), "big": (2 * block + 7,), "whole": (block,),
                  "c": (3,), "d": (5, 2)}
        params = {n: rng.normal(size=s) for n, s in shapes.items()}
        ref = {n: p.copy() for n, p in params.items()}
        state = nn.AdamState(lr=0.01)
        m = {n: np.zeros(s) for n, s in shapes.items()}
        v = {n: np.zeros(s) for n, s in shapes.items()}
        b1, b2, eps = state.beta1, state.beta2, state.eps
        for t in range(1, 4):
            grads = {n: rng.normal(size=s) for n, s in shapes.items()}
            nn.adam_step(state, params, grads)
            for n, g in grads.items():
                m[n] += (1 - b1) * (g - m[n])
                v[n] += (1 - b2) * (g * g - v[n])
                ref[n] -= state.lr * (m[n] / (1 - b1**t)) / (np.sqrt(v[n] / (1 - b2**t)) + eps)
        assert [group[0] for group in state.groups] == [["a", "b"], ["big"], ["whole"], ["c", "d"]]
        for n in shapes:
            assert np.array_equal(params[n], ref[n]), n
            assert np.array_equal(state.m[n], m[n]) and np.array_equal(state.v[n], v[n]), n

    def test_deepcopy_after_step_is_independent(self):
        params = {"w": np.ones((2, 3)), "b": np.zeros(4)}
        state = nn.AdamState(lr=0.1)
        nn.adam_step(state, params, {"w": np.ones((2, 3)), "b": np.ones(4)})
        best = copy.deepcopy(params)
        snapshot = {n: p.copy() for n, p in best.items()}
        nn.adam_step(state, params, {"w": np.ones((2, 3)), "b": np.ones(4)})
        for n in params:
            assert not np.shares_memory(best[n], params[n])
            assert np.array_equal(best[n], snapshot[n])
            assert not np.array_equal(params[n], snapshot[n])

    @pytest.mark.parametrize("steps_before", [0, 2])
    @pytest.mark.parametrize("bad, error, match", [
        ({"b": np.array([1.0, np.inf, 0.0])}, FloatingPointError, "'b'"),
        ({"b": np.zeros(2)}, ValueError, "'b'"),
    ])
    def test_rejected_step_changes_nothing(self, steps_before, bad, error, match):
        rng = np.random.default_rng(31)
        params = {"w": rng.normal(size=(2, 2)), "b": rng.normal(size=3)}
        state = nn.AdamState(lr=0.1)
        for _ in range(steps_before):
            nn.adam_step(state, params, {n: rng.normal(size=p.shape) for n, p in params.items()})
        before = {n: p.copy() for n, p in params.items()}
        arrays = dict(params)
        m, v = ({n: a.copy() for n, a in d.items()} for d in (state.m, state.v))
        with pytest.raises(error, match=match):
            nn.adam_step(state, params, {"w": np.ones((2, 2)), **bad})
        assert state.t == steps_before
        for n in params:
            assert params[n] is arrays[n]
            assert np.array_equal(params[n], before[n])
        assert state.m.keys() == m.keys() and state.v.keys() == v.keys()
        for n in m:
            assert np.array_equal(state.m[n], m[n]) and np.array_equal(state.v[n], v[n])

    @pytest.mark.parametrize("grads", [{"w": np.ones(2)}, {"w": np.ones(2), "b": np.ones(1)}])
    def test_later_step_needs_the_first_steps_gradients(self, grads):
        params = {"w": np.zeros(2), "b": np.zeros(3)}
        state = nn.AdamState()
        nn.adam_step(state, params, {"w": np.ones(2), "b": np.ones(3)})
        if "b" in grads:
            params["b"] = np.zeros(1)  # replaced, with a new shape
        with pytest.raises(ValueError):
            nn.adam_step(state, params, grads)
        assert state.t == 1

    def test_shape_mismatch_rejected(self):
        state = nn.AdamState()
        with pytest.raises(ValueError):
            nn.adam_step(state, {"w": np.zeros(3)}, {"w": np.zeros(2)})

    def test_non_finite_gradient_rejected(self):
        state = nn.AdamState()
        with pytest.raises(FloatingPointError, match="'w'"):
            nn.adam_step(state, {"w": np.zeros(2)}, {"w": np.array([1.0, np.nan])})


def _row_grad(rng, n_rows, width, touched):
    """An nn.RowGrad of `touched` distinct rows of n_rows, ascending, with
    exact zeros and negative zeros among its sums."""
    rows = np.sort(rng.choice(n_rows, size=touched, replace=False))
    sums = rng.normal(size=(touched, width))
    sums[rng.random(sums.shape) < 0.1] = 0.0
    sums[rng.random(sums.shape) < 0.05] = -0.0
    return nn.RowGrad(rows, sums)


class TestAdamRowGrad:
    """A row gradient is its dense form to Adam, bit for bit, and a
    malformed one is rejected before anything changes."""

    def test_row_steps_equal_dense_steps_bit_for_bit(self):
        rng = np.random.default_rng(37)
        # "wide" has rows of 40 floats, as a five-model desk table, which do
        # not divide _ADAM_BLOCK: it spans five blocks of 1,638 rows;
        # "table" is three models' rows of 8; "small" is packed with "b"
        # and "w". Steps touch a third of the rows, then 5, 1 and none, so
        # most rows of the second step are touched never again.
        shapes = {"wide": (6600, 40), "table": (3000, 24), "b": (7,), "small": (30, 8), "w": (3, 2, 4)}
        widths = {"wide": 40, "table": 8, "small": 8}
        by_rows = {n: rng.normal(size=s) for n, s in shapes.items()}
        by_dense = {n: p.copy() for n, p in by_rows.items()}
        rows_state, dense_state = nn.AdamState(lr=0.01), nn.AdamState(lr=0.01)
        for touched in ("third", 5, 1, 0):
            grads = {"b": rng.normal(size=7), "w": rng.normal(size=(3, 2, 4))}
            for name, width in widths.items():
                n_rows = math.prod(shapes[name]) // width
                grads[name] = _row_grad(rng, n_rows, width, n_rows // 3 if touched == "third" else touched)
            nn.adam_step(rows_state, by_rows, grads)
            nn.adam_step(dense_state, by_dense, {n: dense(g, shapes[n]) for n, g in grads.items()})
        assert [group[0] for group in rows_state.groups] == [["wide"], ["table"], ["b", "small", "w"]]
        for n in shapes:
            for got, want in ((by_rows[n], by_dense[n]), (rows_state.m[n], dense_state.m[n]),
                              (rows_state.v[n], dense_state.v[n])):
                assert got.tobytes() == want.tobytes(), n

    @pytest.mark.parametrize("steps_before", [0, 2])
    @pytest.mark.parametrize("bad, error, match", [
        (nn.RowGrad(np.array([1, 12]), np.ones((2, 4))), ValueError, "'t'"),  # row 12 of 12
        (nn.RowGrad(np.array([-1, 3]), np.ones((2, 4))), ValueError, "'t'"),
        (nn.RowGrad(np.array([3, 1]), np.ones((2, 4))), ValueError, "'t'"),
        (nn.RowGrad(np.array([1, 3]), np.ones((2, 5))), ValueError, "'t'"),  # 5 does not tile 48
        (nn.RowGrad(np.array([1, 3]), np.ones((3, 4))), ValueError, "'t'"),
        (nn.RowGrad(np.array([1, 3]), np.array([[1.0, 2, 3, 4], [0, np.nan, 0, 0]])),
         FloatingPointError, "'t'"),
    ])
    @pytest.mark.parametrize("packed", [True, False])
    def test_malformed_row_gradient_changes_nothing(self, steps_before, bad, error, match, packed,
                                                    monkeypatch):
        if not packed:
            monkeypatch.setattr(nn, "_ADAM_BLOCK", 16)  # "t" is a group of its own
        rng = np.random.default_rng(43)
        params = {"t": rng.normal(size=(6, 8)), "b": rng.normal(size=3)}
        state = nn.AdamState(lr=0.1)
        for _ in range(steps_before):
            nn.adam_step(state, params, {"t": _row_grad(rng, 12, 4, 3), "b": rng.normal(size=3)})
        before = {n: p.copy() for n, p in params.items()}
        m, v = ({n: a.copy() for n, a in d.items()} for d in (state.m, state.v))
        with pytest.raises(error, match=match):
            nn.adam_step(state, params, {"t": bad, "b": np.ones(3)})
        assert state.t == steps_before
        for n in params:
            assert np.array_equal(params[n], before[n])
        for n in m:
            assert np.array_equal(state.m[n], m[n]) and np.array_equal(state.v[n], v[n])


class TestFiniteDiffCheck:
    def test_linear_model_near_exact(self):
        rng = np.random.default_rng(7)
        params = {"w": rng.normal(size=6)}
        x = rng.normal(size=6)

        def loss_and_grads():
            return float(params["w"] @ x), {"w": x.copy()}

        assert finite_diff_check(loss_and_grads, params) < 1e-9

    def test_detects_planted_fault(self):
        rng = np.random.default_rng(8)
        params = {"w": rng.normal(size=4)}
        x = rng.normal(size=4)

        def loss_and_grads():
            grads = {"w": x.copy()}
            grads["w"][2] *= 2.0  # corrupted coordinate
            return float(params["w"] @ x), grads

        assert finite_diff_check(loss_and_grads, params) > 0.3

    def test_non_finite_loss_rejected(self):
        params = {"w": np.array([1.0])}
        with pytest.raises(FloatingPointError):
            finite_diff_check(lambda: (float("nan"), {"w": np.array([0.0])}), params)


class TestDropout:
    def test_rate_zero_identity(self):
        x = np.arange(12.0).reshape(3, 4)
        y, _ = nn.dropout(x, 0.0, training=True, rng=np.random.default_rng(0))
        assert np.array_equal(y, x)

    def test_eval_mode_identity(self):
        x = np.arange(12.0).reshape(3, 4)
        y, _ = nn.dropout(x, 0.9, training=False)
        assert np.array_equal(y, x)

    def test_statistics_at_half_rate(self):
        rng = np.random.default_rng(123)
        x = np.ones(100_000)
        y, _ = nn.dropout(x, 0.5, training=True, rng=rng)
        zero_fraction = float((y == 0).mean())
        assert zero_fraction == pytest.approx(0.5, abs=0.01)
        assert y.mean() == pytest.approx(1.0, rel=0.02)

    def test_rate_one_rejected(self):
        with pytest.raises(ValueError):
            nn.dropout(np.ones(3), 1.0, training=True, rng=np.random.default_rng(0))


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        params = {"emb": rng.normal(size=(7, 3)), "cnn.w2": rng.normal(size=(2, 2, 3)),
                  "b": rng.normal(size=2)}
        path = tmp_path / "model.ckpt"
        nn.save_params(path, params)
        loaded = nn.load_params(path)
        assert sorted(loaded) == sorted(params)
        for name in params:
            assert np.array_equal(loaded[name], params[name])

    @settings(max_examples=60, deadline=None)
    @given(params=st.dictionaries(
        st.from_regex(r"[a-z][a-z0-9_.]{0,12}", fullmatch=True),
        hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4)),
        max_size=5))
    def test_round_trip_keeps_every_bit(self, params, tmp_path_factory):
        path = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
        nn.save_params(path, params)
        loaded = nn.load_params(path)
        assert sorted(loaded) == sorted(params)
        for name, value in params.items():
            assert loaded[name].dtype == np.float64 and loaded[name].shape == value.shape
            assert loaded[name].tobytes() == value.tobytes()

    def test_corrupted_payload_detected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        nn.save_params(path, {"w": np.ones(4)})
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="checksum"):
            nn.load_params(path)

    def test_checksum_line_without_digest_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        path.write_bytes(b"jitdp-ckpt v1\nw 2\nchecksum\n---\n" + bytes(16))
        with pytest.raises(ValueError, match="checksum"):
            nn.load_params(path)

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        nn.save_params(path, {"w": np.ones(2)})
        blob = path.read_bytes().replace(b"jitdp-ckpt v1", b"jitdp-ckpt v9")
        path.write_bytes(blob)
        with pytest.raises(ValueError, match="version"):
            nn.load_params(path)


@st.composite
def model_stacks(draw):
    """M models' textCNN params, their inputs and output gradients: token ids
    with padding tails (lengths below, at and past the widest window, 3) or
    vectors, and a block that may pack the batch in chunks."""
    models = draw(st.sampled_from([1, 2, 5]))
    d_in = draw(st.sampled_from([1, 3, 8]))
    filters = draw(st.sampled_from([1, 2, 7, 8]))
    vectors = draw(st.booleans())
    ids = draw(id_batches())
    block = draw(st.sampled_from([1, 150, 400, 1 << 20]))
    rng = np.random.default_rng(draw(st.integers(0, 1000)))
    params = []
    for _ in range(models):
        p = nn.textcnn_init(rng, "t", d_in, (1, 2, 3), filters)
        params.append({n: rng.normal(scale=0.3, size=v.shape) if ".b" in n else v
                       for n, v in p.items()})
    if vectors:
        inputs = [rng.normal(size=(*ids.shape, d_in)) for _ in range(models)]
        tables = [None] * models
    else:
        inputs = [ids] * models
        tables = [rng.normal(size=(10, d_in)) for _ in range(models)]
    d_z = [rng.normal(size=(len(ids), filters)) for _ in range(models)]
    return params, inputs, tables, d_z, block


def _textcnn_pass(params, x, table, d_z, block):
    with mock.patch.object(nn, "_TEXTCNN_BLOCK", block):
        z, cache = nn.textcnn_forward(params, "t", x, embedding=table)
    d_input, grads = nn.textcnn_backward(params, cache, d_z)
    return z, d_input if table is None else dense(d_input, table.shape), grads


class TestTextCnnChannelBlocks:
    """M models in channel blocks are M lone models, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(case=model_stacks())
    def test_stack_matches_per_model_calls(self, case):
        params, inputs, tables, d_z, block = case
        models = len(params)
        stacked = {n: np.concatenate([p[n] for p in params], axis=-1) for n in params[0]}
        x = inputs[0] if tables[0] is not None else np.concatenate(inputs, axis=-1)
        table = None if tables[0] is None else np.concatenate(tables, axis=1)
        z, d_input, grads = _textcnn_pass(stacked, x, table, np.concatenate(d_z, axis=1), block)
        # A lone model's chunk holds M times the rows of the stack's.
        for m in range(models):
            z_m, d_m, grads_m = _textcnn_pass(params[m], inputs[m], tables[m], d_z[m],
                                              block // models)
            width = z_m.shape[1]
            assert np.array_equal(z[:, m * width : (m + 1) * width], z_m)
            width = d_m.shape[-1]
            assert np.array_equal(d_input[..., m * width : (m + 1) * width], d_m)
            assert sorted(grads) == sorted(grads_m)
            for name, g in grads_m.items():
                width = g.shape[-1]
                assert np.array_equal(grads[name][..., m * width : (m + 1) * width], g), name


def _bincount_rows(values, at, n_rows):
    """(n_rows, d) sums of the rows of values by their index in at, each
    bin's terms added from 0.0 in entry order by one np.bincount."""
    dim = values.shape[-1]
    flat = (at.reshape(-1, 1) * dim + np.arange(dim)).reshape(-1)
    return np.bincount(flat, weights=values.reshape(-1), minlength=n_rows * dim).reshape(n_rows, dim)


def entry_order_textcnn_backward(params, cache, d_z):
    """Oracle for nn.textcnn_backward: one value block holding d_pre * w[f, j]
    of every argmax-window entry, (bank, m, b, f, j) in order, summed per
    window position by one np.bincount; for token ids the touched positions'
    sums are then summed per token id in position order."""
    x, ids, table = cache["x"], cache["ids"], cache["embedding"]
    prefix, banks, models = cache["prefix"], cache["banks"], cache["models"]
    batch, length = ids.shape if x is None else x.shape[:2]
    d_z = d_z.reshape(batch, models, -1).transpose(1, 0, 2)
    source = (table.reshape(len(table), models, -1) if x is None
              else x.reshape(batch, length, models, -1))
    d_in = source.shape[-1]
    rows = np.arange(batch)[:, None, None]
    model = np.arange(models)[:, None, None, None]
    grads, keys, values = {}, [], []
    col = 0
    for k, arg, pre_at_max in banks:
        w = params[f"{prefix}.w{k}"]
        n_k = w.shape[0]
        # d_pre and at C-ordered as in textcnn_backward: einsum's order of
        # summation for dW follows the memory layout of its operands
        d_pre = np.multiply(d_z[:, :, col : col + n_k], (pre_at_max > 0).transpose(1, 0, 2),
                            out=np.empty((models, batch, n_k)))
        col += n_k
        at = np.empty((models, batch, n_k, k), dtype=arg.dtype)
        np.add(arg.T.reshape(models, n_k, batch).transpose(0, 2, 1)[..., None], np.arange(k), out=at)
        windows = source[ids[rows, at], model] if x is None else source[rows, at, model]
        grads[f"{prefix}.w{k}"] = (np.einsum("mbf,mbfjc->mfjc", d_pre, windows)
                                   .transpose(1, 2, 0, 3).reshape(w.shape))
        grads[f"{prefix}.b{k}"] = d_pre.sum(axis=1).reshape(-1)
        keys.append(((rows * length + at) * models + model).reshape(-1))
        w_m = w.reshape(n_k, k, models, d_in).transpose(2, 0, 1, 3)[:, None]
        values.append((d_pre[..., None, None] * w_m).reshape(-1, d_in))
    keys, values = np.concatenate(keys), np.concatenate(values)
    if x is None:
        touched, slot = np.unique(keys, return_inverse=True)
        d_windows = _bincount_rows(values, slot, len(touched))
        position, model = np.divmod(touched, models)
        d_table = _bincount_rows(d_windows, ids.reshape(-1)[position] * models + model,
                                 len(table) * models)
        return d_table.reshape(table.shape), grads
    d_x = _bincount_rows(values, keys, batch * length * models).reshape(x.shape)[:, : cache["orig_len"]]
    if ids is not None:
        return _bincount_rows(d_x.reshape(-1, d_x.shape[-1]), ids, len(table)), grads
    return d_x, grads


def _assert_same_bits(got, want):
    assert got.shape == want.shape
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def _check_against_entry_order(params, x, table, d_z, block=nn._TEXTCNN_BLOCK):
    with mock.patch.object(nn, "_TEXTCNN_BLOCK", block):
        _, cache = nn.textcnn_forward(params, "t", x, embedding=table)
    d_input, grads = nn.textcnn_backward(params, cache, d_z)
    d_ref, grads_ref = entry_order_textcnn_backward(params, cache, d_z)
    if table is not None:
        assert (np.diff(d_input.rows) > 0).all()
        d_input = dense(d_input, table.shape)
    _assert_same_bits(d_input, d_ref)
    assert sorted(grads) == sorted(grads_ref) == sorted(n for n in params if n.startswith("t."))
    for name in grads:
        _assert_same_bits(grads[name], grads_ref[name])


@st.composite
def entry_order_cases(draw):
    """M stacked models' textCNN params, token ids with padding tails and
    all-padding rows at lengths below, at and past the widest window, the
    ids or their embedded vectors as input, and d_z with exact zeros and
    negatives. A pileup case makes every filter's maximum the first
    all-padding window, so every filter adds to the same positions."""
    models = draw(st.sampled_from([1, 2, 5]))
    windows = draw(st.sampled_from([(1, 2, 3), (2, 5)]))
    d_in = draw(st.sampled_from([1, 3, 8]))
    filters = draw(st.sampled_from([2, 5, 8]))
    length = draw(st.sampled_from([1, windows[-1] - 1, windows[-1], windows[-1] + 1, 9, 16]))
    pileup = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    stack = [nn.textcnn_init(rng, "t", d_in, windows, filters) for _ in range(models)]
    params = {n: np.concatenate([p[n] for p in stack], axis=-1) for n in stack[0]}
    table = rng.normal(size=(10, models * d_in))
    if pileup:
        params = {n: np.abs(v) + (0.1 if ".b" in n else 0.0) for n, v in params.items()}
        table = -np.abs(table)
        table[0] = 1.0
    else:
        for n in params:
            if ".b" in n:
                params[n] = rng.normal(scale=0.3, size=params[n].shape)
    ids = np.zeros((draw(st.integers(1, 6)), length), dtype=np.int64)
    for r in range(len(ids)):
        real = draw(st.sampled_from([0, length // 2, length]))
        ids[r, :real] = rng.integers(1, 10, size=real)
    d_z = rng.normal(size=(len(ids), models * filters))
    d_z[rng.random(d_z.shape) < 0.3] = 0.0
    vectors = draw(st.booleans())
    x = table[ids] if vectors else ids
    return params, x, None if vectors else table, d_z, draw(st.sampled_from([1, 150, 1 << 20]))


@st.composite
def row_gradient_cases(draw):
    """Token ids of a 6-token vocabulary, so that ids repeat, with padding
    tails and all-padding rows, some shorter than the widest window; M in
    {1, 3} stacked models whose width d_in is not a multiple of the
    column chunk of the table gradient's sums, or is one."""
    models = draw(st.sampled_from([1, 3]))
    chunk = nn._ROW_SUM_COLUMNS
    d_in = draw(st.sampled_from([1, chunk - 3, chunk, chunk + 3, 2 * chunk + 5]))
    length = draw(st.sampled_from([2, 3, 9, 16]))
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    stack = [nn.textcnn_init(rng, "t", d_in, (1, 2, 3), 5) for _ in range(models)]
    params = {n: np.concatenate([p[n] for p in stack], axis=-1) for n in stack[0]}
    for n in params:
        if ".b" in n:
            params[n] = rng.normal(scale=0.3, size=params[n].shape)
    ids = np.zeros((draw(st.integers(1, 6)), length), dtype=np.int64)
    for r in range(len(ids)):
        real = draw(st.integers(0, length))
        ids[r, :real] = rng.integers(1, 6, size=real)
    d_z = rng.normal(size=(len(ids), models * 5))
    d_z[rng.random(d_z.shape) < 0.3] = 0.0
    return params, ids, rng.normal(size=(6, models * d_in)), d_z


class TestTextCnnEntryOrder:
    """textcnn_backward adds each window position's terms in the order one
    np.bincount over every argmax-window entry adds them, so its gradients
    keep that formulation's bits, signed zeros included."""

    @settings(max_examples=200, deadline=None)
    @given(case=entry_order_cases())
    def test_matches_entry_order_oracle(self, case):
        _check_against_entry_order(*case)

    @settings(max_examples=100, deadline=None)
    @given(case=row_gradient_cases())
    def test_row_gradient_densifies_to_the_oracles_table_gradient(self, case):
        _check_against_entry_order(*case)

    @pytest.mark.parametrize("path", ["ids", "vectors"])
    def test_full_scale_width(self, path):
        rng = np.random.default_rng(41)
        params = nn.textcnn_init(rng, "t", 64, (1, 2, 3), 64)
        for k in (1, 2, 3):
            params[f"t.b{k}"] = rng.normal(scale=0.1, size=params[f"t.b{k}"].shape)
        table = rng.normal(size=(500, 64))
        ids = rng.integers(1, 500, size=(12, 256))
        for r, real in enumerate([0, 1, 3, 40, 100, 128, 190, 200, 255, 256, 256, 17]):
            ids[r, real:] = 0
        d_z = rng.normal(size=(12, 64))
        d_z[:, ::5] = 0.0
        if path == "ids":
            _check_against_entry_order(params, ids, table, d_z)
        else:
            _check_against_entry_order(params, table[ids], None, d_z)
