"""Minimal self-contained neural machinery on float64 numpy arrays.

Layers: embedding lookup, textCNN (convolution over token windows with
ReLU and per-filter max-pooling), a two-logit fully connected classifier
with exponential normalization, dropout, class-weighted cross-entropy.
Training uses bias-corrected Adam. Every layer has a hand-written backward
pass; finite_diff_check verifies analytic gradients against central
differences.

Parameters live in a flat dict of name -> ndarray so the optimizer, the
checkpoint format, and the gradient checker stay generic. Inputs to the
batched layers carry a leading batch axis.
"""

from __future__ import annotations

import hashlib
import math
import operator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

Params = dict


def glorot_uniform(rng, shape) -> np.ndarray:
    fan_out = shape[0]
    fan_in = int(np.prod(shape[1:])) if len(shape) > 1 else shape[0]
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def relu(x):
    return np.maximum(x, 0.0)


# ---------------------------------------------------------------------------
# Embedding
# ---------------------------------------------------------------------------


def embedding_forward(table: np.ndarray, ids: np.ndarray) -> np.ndarray:
    if ids.min() < 0 or ids.max() >= table.shape[0]:
        raise ValueError(f"token id out of range [0, {table.shape[0]})")
    return table[ids]


def embedding_backward(d_out: np.ndarray, ids: np.ndarray, vocab_size: int) -> np.ndarray:
    return _scatter_rows(d_out, ids, vocab_size)


def _scatter_rows(values: np.ndarray, at: np.ndarray, n_rows: int) -> np.ndarray:
    """(n_rows, d) sums of the d-vectors of values by their row index in at,
    by one np.bincount over a key array as large as values: bin at * d + c
    accumulates from 0.0 in entry order, as np.add.at on rows would. It
    sums embedding gradients per token id, the textCNN's window-position
    sums per token id, and, for vector input, its window entries per
    position."""
    dim = values.shape[-1]
    flat = (at.reshape(-1, 1) * dim + np.arange(dim)).reshape(-1)
    return np.bincount(flat, weights=values.reshape(-1), minlength=n_rows * dim).reshape(n_rows, dim)


# ---------------------------------------------------------------------------
# textCNN: per window size k, a filter bank (n_k, k, d_in) slides over the
# sequence; each filter's ReLU response is max-pooled over positions and the
# pooled features of all banks are concatenated.
#
# M models that read the same sequence run as one textCNN in channel blocks
# (grouped convolution): model m owns block m of the input channels, of
# each bank's last axis (n_k, k, M * d_in), of the biases (M * n_k) and of
# the output (B, M * filters), which holds each model's banks in order. M is
# the biases' size over the filter count; one model is M = 1.
#
# No window (im2col) buffer is built. Forward runs one GEMM per model over
# every filter tap of every bank, W_m (sum of k*n_k, d_in) @ x_m^T (d_in,
# B*L) with x_m the model's channel block, all M in one batched matmul,
# giving each tap j's response at each position; the pre-activation of the
# window starting at p is the sum over j of tap j's response at p + j.
# Max-pooling keeps one window per filter, so the backward pass touches only
# those: dW gathers the k input rows of each argmax window (one einsum per
# bank), and the input gradient of window entry (f, j) is d_pre * w[f, j] at
# position arg + j. For vector input every entry goes into one value block,
# summed per position by one np.bincount. For token ids each filter of each
# bank in turn adds its entries straight into the touched positions, which
# is the same additions in the same order with no (entries x d_in) value or
# key array. Every sum runs over one model's block in the order a lone
# model's would, so each model gets a lone model's bits.
#
# Token-id input (B, L) keeps the ids, not embedded vectors, in the cache,
# and its backward pass returns the gradient of the embedding table itself,
# summed from the argmax windows alone. A row's real length r is its last
# non-zero id + 1. Every window past r is all padding and has the same
# pre-activation, so the first-occurrence argmax never picks one after the
# first, at r. A batch of more than _TEXTCNN_BLOCK tap-matrix elements, the
# taps of all M models counted, is sorted by r into buckets of at most that
# many, and each bucket embeds only the prefix min(L, longest r in the
# bucket + widest window, rounded up to 8 tokens), which still holds that
# first all-padding window. A batch that fits one bucket is embedded whole,
# in its order: at one-commit sizes finding r costs more numpy calls than
# the trimmed positions save. Id input shorter than the widest window is
# pooled as vectors, zero extension included.
# ---------------------------------------------------------------------------

# Tap-matrix elements (filter taps x token positions, all models) of one
# bucket of token-id rows: 4 MiB of taps, about what a one-model desk
# scoring batch of 256 commits holds. A desk training step of five models,
# a full-scale message batch and a one-commit call are each one bucket.
_TEXTCNN_BLOCK = 1 << 19


def textcnn_init(rng, prefix: str, d_in: int, windows, filters_total: int) -> Params:
    params = {}
    for i, k in enumerate(windows):
        n_k = filters_total // len(windows) + (1 if i < filters_total % len(windows) else 0)
        if n_k == 0:
            continue
        params[f"{prefix}.w{k}"] = glorot_uniform(rng, (n_k, k, d_in))
        params[f"{prefix}.b{k}"] = np.zeros(n_k)
    return params


def _pool(taps_w, banks, x):
    """Per bank, (k, arg, pre_at_max) with arg (B, M * n_k) and pre_at_max
    (B, M, n_k), of vectors x (B, L, M * d_in) zero-extended to the widest
    window; also returns the extended x. taps_w is (M, taps, d_in)."""
    widest = banks[-1][0]
    if x.shape[1] < widest:
        x = np.concatenate([x, np.zeros((x.shape[0], widest - x.shape[1], x.shape[2]))], axis=1)
    batch, length = x.shape[:2]
    models = len(taps_w)
    # taps[m, row of (bank, j, f), b * length + t] = w_k[f, j] . x[b, t] in block m
    taps = taps_w @ x.reshape(batch * length, models, -1).transpose(1, 2, 0)
    pooled = []
    row = 0
    for k, w, bias in banks:
        n_k = w.shape[0]
        tap = taps[:, row : row + k * n_k].reshape(models, k, n_k, batch, length)
        row += k * n_k
        positions = length - k + 1
        pre = tap[:, 0, :, :, :positions] + bias.reshape(models, n_k, 1, 1)  # (M, n_k, B, P)
        for j in range(1, k):
            pre += tap[:, j, :, :, j : j + positions]
        arg = pre.argmax(axis=3).reshape(-1)
        at_max = pre.reshape(-1, positions)[np.arange(len(arg)), arg]  # one flat gather
        pooled.append((k, arg.reshape(-1, batch).T,
                       at_max.reshape(models, n_k, batch).transpose(2, 0, 1)))
    return pooled, x


def _pool_ids(taps_w, banks, ids, table):
    """_pool of table[ids]; a batch too large for one bucket is pooled
    bucket by bucket, each over its prefix."""
    batch, length = ids.shape
    cap = _TEXTCNN_BLOCK // (taps_w.shape[0] * taps_w.shape[1])  # token positions of one bucket
    if batch * length <= cap:
        return _pool(taps_w, banks, embedding_forward(table, ids))[0]
    real = np.where(ids != 0, np.arange(1, length + 1), 0).max(axis=1)
    order = np.argsort(real, kind="stable")
    # Through the first all-padding window, rounded up to whole 8-column
    # tiles of the tap GEMM: OpenBLAS sums an edge tile in another order,
    # which would move last bits against a full-length pass.
    prefixes = np.minimum(-(-(real[order] + banks[-1][0]) // 8) * 8, length)
    parts, start = [], 0
    while start < batch:
        # rows start..stop-1 cost (stop - start) * prefixes[stop - 1] positions
        fits = np.searchsorted(np.arange(1, batch - start + 1) * prefixes[start:], cap, "right")
        stop = start + max(1, int(fits))
        rows = order[start:stop]
        parts.append(_pool(taps_w, banks, embedding_forward(table, ids[rows, : prefixes[stop - 1]]))[0])
        start = stop
    back = np.argsort(order)
    return [(k, *(np.concatenate([part[i][j] for part in parts])[back] for j in (1, 2)))
            for i, (k, _, _) in enumerate(banks)]


class TextCNNLayout(NamedTuple):
    """What a textCNN's forward pass reads of its parameters: the banks
    (k, w_k, b_k) by ascending window k, the model count M, and the tap
    matrix (M, taps, d_in) holding model m's taps of every bank, (j, f) in
    order. The tap matrix is read-only."""

    banks: list
    models: int
    taps_w: np.ndarray


def textcnn_layout(params: Params, prefix: str) -> TextCNNLayout:
    """The layout of the textCNN `prefix`, valid while its parameters keep
    their values: a training step changes them in place, so training
    derives it on every forward pass."""
    windows = sorted(int(n.rsplit(".w", 1)[1]) for n in params if n.startswith(f"{prefix}.w"))
    banks = [(k, params[f"{prefix}.w{k}"], params[f"{prefix}.b{k}"]) for k in windows]
    models = banks[0][2].size // banks[0][1].shape[0]
    taps_w = np.concatenate([w.transpose(1, 0, 2).reshape(-1, w.shape[2]) for _, w, _ in banks])
    taps_w = taps_w.reshape(len(taps_w), models, -1).transpose(1, 0, 2)
    taps_w.flags.writeable = False
    return TextCNNLayout(banks, models, taps_w)


def textcnn_forward(params: Params, prefix: str, x: np.ndarray,
                    embedding: np.ndarray | None = None, layout: TextCNNLayout | None = None):
    """x is either (B, L) int token ids (embedding (V, M * d_in) required) or
    (B, L, M * d_in) vectors. Returns (z, cache) with z of shape
    (B, M * total filters). Sequences shorter than the largest window are
    zero-extended. layout is textcnn_layout(params, prefix), derived here
    when not given."""
    banks, models, taps_w = layout or textcnn_layout(params, prefix)
    ids = None
    orig_len = x.shape[1]
    if x.ndim == 2 and np.issubdtype(x.dtype, np.integer):
        if embedding is None:
            raise ValueError("token-id input needs an embedding table")
        ids = x
        if orig_len < banks[-1][0]:
            x = embedding_forward(embedding, ids)
    if x is ids:
        pooled, x = _pool_ids(taps_w, banks, ids, embedding), None
    else:
        pooled, x = _pool(taps_w, banks, x)
    batch = len(pooled[0][1])
    z = np.concatenate([relu(at_max) for _, _, at_max in pooled], axis=2)
    cache = {"x": x, "ids": ids, "embedding": embedding, "orig_len": orig_len, "prefix": prefix,
             "models": models, "banks": pooled}
    return z.reshape(batch, -1), cache


def textcnn_backward(params: Params, cache, d_z: np.ndarray):
    """Returns (d_input, grads). For vector input d_input is the gradient
    w.r.t. the input vectors, trimmed to the original length, summed per
    position by one np.bincount over the argmax-window entries (bank, m, b,
    f, j) in order. For token-id input it is the gradient w.r.t. the
    embedding table: each touched window position gets the same sum,
    added filter by filter without an entry-sized array, and those sums go
    to their token ids in position order, the same bits as
    embedding_backward of the dense gradient w.r.t. the embedded tokens."""
    x, ids, table = cache["x"], cache["ids"], cache["embedding"]
    prefix, banks, models = cache["prefix"], cache["banks"], cache["models"]
    batch, length = ids.shape if x is None else x.shape[:2]
    d_z = d_z.reshape(batch, models, -1).transpose(1, 0, 2)
    source = (table.reshape(len(table), models, -1) if x is None
              else x.reshape(batch, length, models, -1))
    d_in = source.shape[-1]
    grads = {}
    rows = np.arange(batch)[:, None, None]
    model = np.arange(models)[:, None, None, None]
    # Window entries (bank, m, b, f, j) of every argmax window: their key
    # (position * M + m) and their input gradient d_pre * w[f, j] in block m,
    # in one value block for vector input; id input keeps each bank's keys,
    # d_pre and w_m for the filter-by-filter sum.
    entries = sum(k * arg.size for k, arg, _ in banks)
    keys = np.empty(entries, dtype=np.int64)
    values = None if x is None else np.empty((entries, d_in))
    terms = []
    col = start = 0
    for k, arg, pre_at_max in banks:
        w = params[f"{prefix}.w{k}"]
        n_k = w.shape[0]
        # (M, B, n_k), each model's block laid out as a lone model's
        d_pre = np.multiply(d_z[:, :, col : col + n_k],
                            (pre_at_max > 0).transpose(1, 0, 2),
                            out=np.empty((models, batch, n_k)))
        col += n_k
        # (M, B, n_k, k) positions of the argmax windows, laid out as d_pre
        at = np.empty((models, batch, n_k, k), dtype=arg.dtype)
        np.add(arg.T.reshape(models, n_k, batch).transpose(0, 2, 1)[..., None], np.arange(k), out=at)
        windows = source[ids[rows, at], model] if x is None else source[rows, at, model]
        grads[f"{prefix}.w{k}"] = (np.einsum("mbf,mbfjc->mfjc", d_pre, windows)
                                   .transpose(1, 2, 0, 3).reshape(w.shape))
        grads[f"{prefix}.b{k}"] = d_pre.sum(axis=1).reshape(-1)
        stop = start + at.size
        bank_keys = keys[start:stop].reshape(at.shape)
        np.add((rows * length + at) * models, model, out=bank_keys)
        w_m = w.reshape(n_k, k, models, d_in).transpose(2, 0, 1, 3)[:, None]
        if x is None:
            terms.append((bank_keys, d_pre, w_m))
        else:
            np.multiply(d_pre[..., None, None], w_m, out=values[start:stop].reshape(*at.shape, d_in))
        start = stop
    if x is None:
        # Sum per window position in entry order, then per token id in
        # position order: embedding_backward's additions, zeros left out.
        # The touched positions ascending and each position's slot among
        # them, as np.unique(keys, return_inverse=True) gives them, without
        # a sort.
        hit = np.zeros(batch * length * models, dtype=bool)
        hit[keys] = True
        touched = np.flatnonzero(hit)
        slot = np.cumsum(hit) - 1
        # One filter of one bank per step, banks then filters in order: a
        # filter's k entries in a row lie at distinct positions, so a step
        # adds to distinct slots, and each slot gets its entries from 0.0 in
        # the order np.bincount over the entries would add them. Rows go
        # back through a one-element-per-row view, which numpy assigns about
        # twice as fast as rows of d_in floats at desk widths.
        d_windows = np.zeros((len(touched), d_in))
        whole_rows = d_windows.view(np.dtype((np.void, d_windows.itemsize * d_in)))[:, 0]
        for bank_keys, d_pre, w_m in terms:
            slots = slot.take(bank_keys)
            for f in range(d_pre.shape[2]):
                at = slots[:, :, f]
                step = d_windows.take(at, axis=0)
                step += d_pre[:, :, f, None, None] * w_m[:, :, f]
                whole_rows[at] = step.view(whole_rows.dtype)[..., 0]
        position, model = np.divmod(touched, models)
        d_table = _scatter_rows(d_windows, ids.reshape(-1)[position] * models + model,
                                len(table) * models)
        return d_table.reshape(table.shape), grads
    d_x = _scatter_rows(values, keys, batch * length * models).reshape(x.shape)[:, : cache["orig_len"]]
    if ids is not None:
        return _scatter_rows(d_x, ids, len(table)), grads
    return d_x, grads


# ---------------------------------------------------------------------------
# Fully connected classifier: ReLU hidden layer, two output logits
# normalized to a probability pair (prob_clean, prob_defective).
# ---------------------------------------------------------------------------


def classifier_init(rng, prefix: str, d_in: int, hidden: int) -> Params:
    return {
        f"{prefix}.wh": glorot_uniform(rng, (hidden, d_in)),
        f"{prefix}.bh": np.zeros(hidden),
        f"{prefix}.wo": glorot_uniform(rng, (2, hidden)),
        f"{prefix}.bo": np.zeros(2),
    }


def classifier_forward(params: Params, prefix: str, z: np.ndarray):
    if z.shape[1] != params[f"{prefix}.wh"].shape[1]:
        raise ValueError(
            f"classifier expects dim {params[f'{prefix}.wh'].shape[1]}, got {z.shape[1]}"
        )
    pre_h = z @ params[f"{prefix}.wh"].T + params[f"{prefix}.bh"]
    hidden = relu(pre_h)
    logits = hidden @ params[f"{prefix}.wo"].T + params[f"{prefix}.bo"]
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=1, keepdims=True)
    cache = {"z": z, "pre_h": pre_h, "hidden": hidden, "prefix": prefix}
    return probs, cache


def classifier_backward(params: Params, cache, d_logits: np.ndarray):
    prefix = cache["prefix"]
    hidden = cache["hidden"]
    grads = {
        f"{prefix}.wo": d_logits.T @ hidden,
        f"{prefix}.bo": d_logits.sum(axis=0),
    }
    d_hidden = d_logits @ params[f"{prefix}.wo"]
    d_pre = d_hidden * (cache["pre_h"] > 0)
    grads[f"{prefix}.wh"] = d_pre.T @ cache["z"]
    grads[f"{prefix}.bh"] = d_pre.sum(axis=0)
    d_z = d_pre @ params[f"{prefix}.wh"]
    return d_z, grads


# ---------------------------------------------------------------------------
# Loss and regularization
# ---------------------------------------------------------------------------


def cross_entropy_batch(probs: np.ndarray, labels: np.ndarray, class_weights=(1.0, 1.0)):
    """Mean class-weighted cross-entropy over a batch; gradient w.r.t. logits."""
    n = len(labels)
    w = np.asarray(class_weights, dtype=np.float64)[labels]
    picked = probs[np.arange(n), labels]
    loss = float(np.mean(-w * np.log(picked)))
    onehot = np.zeros_like(probs)
    onehot[np.arange(n), labels] = 1.0
    d_logits = w[:, None] * (probs - onehot) / n
    return loss, d_logits


def dropout(x: np.ndarray, rate: float, training: bool, rng=None):
    """Inverted dropout; identity in evaluation mode. Returns (y, mask)."""
    if not 0.0 <= rate < 1.0:
        raise ValueError("dropout rate must be in [0, 1)")
    if not training or rate == 0.0:
        return x, np.ones_like(x)
    if rng is None:
        raise ValueError("training-mode dropout needs an rng")
    mask = (rng.random(x.shape) >= rate) / (1.0 - rate)
    return x * mask, mask


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

# Floats one pass of adam_step's loop updates. A block and its three work
# rows stay in cache at full scale; a desk-size model is one block.
_ADAM_BLOCK = 1 << 16


@dataclass
class AdamState:
    """Step count and moments of Adam over flat vectors of parameters.

    The first step packs the parameters that have gradients, in params
    order, into `groups` of at most _ADAM_BLOCK floats; a larger parameter
    is a group of its own, read straight from its gradient, so a step
    copies no more than a block of gradients at a time. A desk-size model
    is one group. Each group is (names, p, m, v) with flat parameter and
    moment vectors;
    the params dict is rebound to views of p, which `bound` keeps, and `m`
    and `v` map each name to its views of the moments. `work` holds three
    block-sized rows.
    """

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    names: tuple = ()
    shapes: list = field(default_factory=list, repr=False)
    bound: tuple = field(default=(), repr=False)
    groups: list = field(default_factory=list, repr=False)
    work: np.ndarray | None = field(default=None, repr=False)


def _views(flat: np.ndarray, names, shapes) -> dict:
    views, at = {}, 0
    for name, shape in zip(names, shapes):
        size = math.prod(shape)
        views[name] = flat[at : at + size].reshape(shape)
        at += size
    return views


def adam_step(state: AdamState, params: Params, grads: Params) -> None:
    """Standard bias-corrected Adam update, in place:
    m += (1 - beta1) * (g - m); v += (1 - beta2) * (g * g - v);
    p -= lr * (m / (1 - beta1**t)) / (sqrt(v / (1 - beta2**t)) + eps),
    in that operation order, over each group's flat vectors in blocks of
    _ADAM_BLOCK floats through the work rows.

    Every parameter with a gradient is updated; later steps must pass
    gradients for the same names and shapes as the first, and params must
    still hold the views the first step bound. The whole step is checked
    before anything changes, so a rejected step leaves the state and the
    parameters as they were.
    """
    names = tuple(filter(grads.__contains__, params))
    shapes = [grads[n].shape for n in names]
    if not (state.groups and names == state.names and shapes == state.shapes
            and all(map(operator.is_, map(params.__getitem__, names), state.bound))):
        for name, shape in zip(names, shapes):
            if shape != params[name].shape:
                raise ValueError(f"gradient shape {shape} != parameter shape "
                                 f"{params[name].shape} for '{name}'")
        if state.groups:
            raise ValueError("adam_step needs the parameters of its first step")
    if state.groups:
        packing = [(group, len(p)) for group, p, _, _ in state.groups]
        work = state.work
    else:
        packing = []
        for name, shape in zip(names, shapes):
            size = math.prod(shape)
            if packing and packing[-1][1] + size <= _ADAM_BLOCK:
                packing[-1] = (packing[-1][0] + [name], packing[-1][1] + size)
            else:
                packing.append(([name], size))
        work = np.empty((3, min(_ADAM_BLOCK, sum(size for _, size in packing))))

    def gradient(group, size):
        if len(group) == 1:
            return grads[group[0]].reshape(-1)
        return np.concatenate([grads[n] for n in group], axis=None, out=work[2, :size])

    for group, size in packing:
        checked = gradient(group, size)
        if not np.isfinite(checked).all():
            bad = next(n for n in group if not np.isfinite(grads[n]).all())
            raise FloatingPointError(f"non-finite gradient for '{bad}'")

    if not state.groups:
        for group, size in packing:
            group_shapes = [params[n].shape for n in group]
            p, m, v = np.empty(size), np.zeros(size), np.zeros(size)
            for name, view in _views(p, group, group_shapes).items():
                view[...] = params[name]
                params[name] = view
            state.m.update(_views(m, group, group_shapes))
            state.v.update(_views(v, group, group_shapes))
            state.groups.append((group, p, m, v))
        state.names, state.shapes, state.work = names, shapes, work
        state.bound = tuple(map(params.__getitem__, names))
    state.t += 1
    for group, p_all, m_all, v_all in state.groups:
        # a lone group's gradient is still the one just checked
        g_all = checked if len(state.groups) == 1 else gradient(group, len(p_all))
        for lo in range(0, len(p_all), _ADAM_BLOCK):
            hi = lo + _ADAM_BLOCK
            g, p, m, v = g_all[lo:hi], p_all[lo:hi], m_all[lo:hi], v_all[lo:hi]
            step, denom = work[0, : len(g)], work[1, : len(g)]
            np.subtract(g, m, out=step)
            step *= 1 - state.beta1
            m += step
            np.multiply(g, g, out=step)
            step -= v
            step *= 1 - state.beta2
            v += step
            np.divide(m, 1 - state.beta1**state.t, out=step)
            np.divide(v, 1 - state.beta2**state.t, out=denom)
            np.sqrt(denom, out=denom)
            denom += state.eps
            step *= state.lr
            step /= denom
            p -= step


# ---------------------------------------------------------------------------
# Gradient checking
# ---------------------------------------------------------------------------


def finite_diff_check(loss_and_grads, params: Params, eps: float = 1e-5,
                      max_coords_per_param: int | None = None, seed: int = 0) -> float:
    """Compare analytic gradients against central differences.

    loss_and_grads() evaluates the model at the current params and returns
    (scalar loss, grads dict). Probes every coordinate unless a per-param
    sample cap is given. Returns the max relative error
    |analytic - numeric| / max(|analytic|, |numeric|, 1e-8).
    """
    loss0, grads = loss_and_grads()
    if not np.isfinite(loss0):
        raise FloatingPointError("non-finite loss at the probe point")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for name in sorted(params):
        if name not in grads:
            continue
        p = params[name]
        flat = p.reshape(-1)
        size = flat.size
        if max_coords_per_param is not None and size > max_coords_per_param:
            idxs = rng.choice(size, size=max_coords_per_param, replace=False)
        else:
            idxs = range(size)
        analytic = grads[name].reshape(-1)
        for i in idxs:
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


# ---------------------------------------------------------------------------
# Checkpoint container: UTF-8 text manifest (version, one "name shape" line
# per parameter, payload checksum), a '---' separator, then the raw
# little-endian float64 arrays concatenated in manifest order.
# ---------------------------------------------------------------------------

CHECKPOINT_VERSION = "jitdp-ckpt v1"


def save_params(path, params: Params) -> None:
    names = sorted(params)
    payload = b"".join(np.ascontiguousarray(params[n], dtype="<f8").tobytes() for n in names)
    lines = [CHECKPOINT_VERSION]
    for n in names:
        dims = ",".join(str(d) for d in params[n].shape)
        lines.append(f"{n} {dims}")
    lines.append(f"checksum {hashlib.sha256(payload).hexdigest()}")
    header = ("\n".join(lines) + "\n---\n").encode("utf-8")
    with open(path, "wb") as handle:
        handle.write(header + payload)


def load_params(path) -> Params:
    with open(path, "rb") as handle:
        blob = handle.read()
    header, _, payload = blob.partition(b"\n---\n")
    lines = header.decode("utf-8").split("\n")
    if lines[0] != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version: {lines[0]!r}")
    stated = lines[-1].partition(" ")[2]
    if hashlib.sha256(payload).hexdigest() != stated:
        raise ValueError("checkpoint payload checksum mismatch")
    params = {}
    offset = 0
    for line in lines[1:-1]:
        name, dims = line.split(" ")
        shape = tuple(int(d) for d in dims.split(",") if d)
        count = int(np.prod(shape)) if shape else 1
        arr = np.frombuffer(payload, dtype="<f8", count=count, offset=offset).reshape(shape)
        params[name] = arr.astype(np.float64)
        offset += count * 8
    return params
