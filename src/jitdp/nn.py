"""Minimal self-contained neural machinery on float64 numpy arrays.

Layers: embedding lookup, textCNN (convolution over token windows with
ReLU and per-filter max-pooling), a two-logit fully connected classifier
with exponential normalization, dropout, class-weighted cross-entropy.
Training uses bias-corrected Adam. Every layer has a hand-written backward
pass.

Parameters live in a flat dict of name -> ndarray so the optimizer and the
checkpoint format stay generic. Inputs to the batched layers carry a
leading batch axis.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import math
import operator
import os
import threading
from contextlib import contextmanager
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
# Thread region: OpenBLAS held to one thread, and the independent parts of
# two loops (the packed pool's chunks and adam_step's blocks) spread over
# Python threads, each started per call and joined before it returns, so
# that no thread outlives the loop (a fork never inherits one).
# ---------------------------------------------------------------------------

_region_threads = None  # the thread count of the innermost region; None outside one


@functools.cache
def _openblas():
    """(get, set) for the thread count of the OpenBLAS this process has
    loaded, found by its symbols among the libraries mapped into the
    process; None where no OpenBLAS is loaded."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            libs = sorted({ln.split()[-1] for ln in handle if "openblas" in ln and ".so" in ln})
    except OSError:
        return None
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            get = getattr(handle, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(handle, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = (), ctypes.c_int
                set_.argtypes, set_.restype = (ctypes.c_int,), None
                return get, set_
    return None


@contextmanager
def threads(n: int | None = None):
    """A thread region: within the block this process's OpenBLAS is held to
    one thread, and the chunks of _pool's packed path and the blocks of
    adam_step run on n threads, this one and n - 1 started per call. n is
    one per usable CPU, at most two, when None; an outer region caps an
    inner one's n. Each part runs the operations of the one-thread loop in
    their order, so no bit depends on n. Both counts are restored after,
    also when the block raises; where no OpenBLAS is loaded, it is not held.

    A second BLAS thread busy-waits between GEMMs, and beside a busy worker
    it contends for the worker's core: on 2 CPUs next to a busy process,
    deep scoring of 16,000 commits took 1.14 s with two BLAS threads, 0.49
    s with one (0.44 and 0.45 s with the other CPU idle)."""
    global _region_threads
    if n is None:
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        n = min(2, cpus or 1)
    before, blas = _region_threads, _openblas()
    _region_threads = n if before is None else min(n, before)
    if blas is not None:
        held = blas[0]()
        blas[1](1)
    try:
        yield
    finally:
        if blas is not None:
            blas[1](held)
        _region_threads = before


def _thread_count(parts: int) -> int:
    """The threads that _spread runs `parts` parts on."""
    return max(1, min(parts, _region_threads or 1))


def _spread(run, parts) -> None:
    """run(slot, part) for every part, on _thread_count(len(parts)) threads,
    slot being the thread's index: each takes the next part in turn. The
    first exception of any thread stops the others taking more parts and
    is raised here, after every thread started here is joined."""
    count = _thread_count(len(parts))
    if count == 1:
        for part in parts:
            run(0, part)
        return
    todo, lock, errors = iter(parts), threading.Lock(), []

    def take(slot):
        try:
            while not errors:
                with lock:
                    part = next(todo, None)
                if part is None:
                    return
                run(slot, part)
        except BaseException as exc:  # raised in the calling thread
            errors.append(exc)

    others = []
    try:
        for slot in range(1, count):
            thread = threading.Thread(target=take, args=(slot,))
            try:
                thread.start()
            except RuntimeError:  # no thread to spare: those started take every part
                break
            others.append(thread)
        take(0)
    finally:
        for thread in others:
            thread.join()
    if errors:
        raise errors[0]


# ---------------------------------------------------------------------------
# Embedding
# ---------------------------------------------------------------------------


def embedding_forward(table: np.ndarray, ids: np.ndarray) -> np.ndarray:
    if ids.min() < 0 or ids.max() >= table.shape[0]:
        raise ValueError(f"token id out of range [0, {table.shape[0]})")
    return table.take(ids, axis=0)  # the rows table[ids], gathered faster


def embedding_backward(d_out: np.ndarray, ids: np.ndarray, vocab_size: int) -> np.ndarray:
    """The dense (vocab_size, d) table gradient: _sum_rows of d_out by token id."""
    grad = _sum_rows(d_out.reshape(-1, d_out.shape[-1]), ids.reshape(-1), vocab_size)
    dense = np.zeros((vocab_size, d_out.shape[-1]))
    dense[grad.rows] = grad.sums
    return dense


class RowGrad(NamedTuple):
    """A gradient zero outside `rows`, ascending, of its parameter's (size // width, width) view."""

    rows: np.ndarray
    sums: np.ndarray


# Columns that one np.bincount of _sum_rows sums: its one key array holds
# rows x this many entries, not rows x d, and serves every column chunk.
_ROW_SUM_COLUMNS = 8


def _sum_rows(values: np.ndarray, at: np.ndarray, n_rows: int) -> RowGrad:
    """The sums of the d-vectors of values by their row index in at, as the
    RowGrad of the rows at hits, each row's added from 0.0 in entry order as
    np.add.at would: one np.bincount per chunk of columns over one key array
    of len(at) x chunk entries (np.add.reduceat would sum long runs pairwise)."""
    hit = np.bincount(at, minlength=n_rows) > 0
    rows, slot = np.flatnonzero(hit), (np.cumsum(hit) - 1)[at]
    step, width = min(_ROW_SUM_COLUMNS, values.shape[1]), values.shape[1]
    keys, sums = (slot[:, None] * step + np.arange(step)).reshape(-1), np.empty((len(rows), width))
    part = values if step == width else np.empty((len(at), step))
    # chunks of step columns (the last one ends at the last column, overlapping
    # the one before: its sums are the same); one chunk is values itself
    for lo in sorted({*range(0, width - step, step), width - step}):
        if part is not values:
            part[...] = values[:, lo : lo + step]
        sums[:, lo : lo + step] = np.bincount(keys, part.ravel(), len(rows) * step).reshape(-1, step)
    return RowGrad(rows, sums)


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
# bank), and the input gradient of window entry (f, j) is d_pre * w[f, j]
# at position arg + j. Each filter of each bank in turn adds its entries
# straight into the touched positions: the additions of one np.bincount
# over every entry, in the same order, with no (entries x d_in) value or
# key array. Vectors get those sums at their positions; token ids sum them
# per token id. Every sum runs over one model's block in the order a lone
# model's would, so each model gets a lone model's bits.
#
# Token-id input (B, L) keeps the ids, not embedded vectors, in the cache,
# and its backward pass returns the gradient of the embedding table itself,
# summed from the argmax windows alone, as the rows the batch touches (a
# RowGrad). A row's real length r is its last non-zero id + 1. Every window
# past r is all padding and has the same pre-activation, so the
# first-occurrence argmax never picks one after the first, at r, and no
# row's maximum needs a window past it. A row's kept
# prefix is min(L, r + widest window, rounded up to 8 tokens), which holds
# that first all-padding window in whole 8-column tiles of the tap GEMM:
# OpenBLAS sums an edge tile in another order, which would move last bits
# against a full-length pass. Id input shorter than the widest window is
# pooled as vectors, zero extension included.
#
# One pooling function serves training (the cached path), which also
# needs each filter's argmax window per row, and scoring (cache=False),
# which needs only the maxima and keeps nothing for a backward pass. Vectors
# and a small id batch are pooled whole, in their order. A larger id batch
# lays each row's kept prefix end to end, so that every row starts on an
# 8-column tile when L is a multiple of 8, in chunks of whole rows of about
# _TEXTCNN_BLOCK tap elements: one tap GEMM per chunk, taps added as on
# whole rows, then one np.maximum.reduceat per bank over each row's (start,
# end) of windows. The argmax is a segmented first-argmax (Blelloch,
# CMU-CS-90-190, "Prefix Sums and Their Applications"): of the positions
# where pre equals its row's maximum, the first from each row's first
# window on, by one np.searchsorted. The windows across two rows follow a
# row's own, which hold its maximum, so they never come first. All-padding
# rows pool alike, so only the first of them is laid out and the rest take
# its maxima and argmax, as forward_batch does with its file rows. Chunks
# are as even as the rows allow, since for a GEMM of a few columns OpenBLAS
# takes another kernel at full-scale widths. In a thread region of n
# threads (threads), a batch of more than one chunk is cut into n times as
# many, so that the n chunks in flight hold about _TEXTCNN_BLOCK tap
# elements in all; the threads take them in turn, each writing only its
# rows' columns of the maxima and argmax. A row's columns go through the
# same operations in any chunk, and at full scale a chunk keeps hundreds of
# columns, so the bits do not depend on n.
#
# The maxima come as (B, M, filters), in C order for an id batch of more
# than _TEXTCNN_BLOCK tap elements and in (M, F, B) memory order otherwise,
# whatever the thread count. The heads' reductions sum in that order, so a
# score's bits follow it.
# ---------------------------------------------------------------------------

# Tap-matrix elements (filter taps x token positions, all models) of one
# chunk of packed id rows: 4 MiB of taps, about what a one-model desk
# scoring batch of 256 commits holds. Training pools an id batch whole up to
# this many elements, so a desk training step of five models, a full-scale
# message batch and a one-commit call are each whole; at scoring's cut-off
# it would pack the desk training batches, and the desk acceptance run took
# 1.15x as long in the median (10 of 10 pairs). Scoring packs a batch above
# _TEXTCNN_BLOCK >> 4 elements, where packing breaks even (2 cores,
# OpenBLAS 0.3.31): packed, a one-commit desk batch (at most 6k elements)
# takes 1.3-1.7x as long, a 64-row desk batch (46k) 0.8x, 4 and 8
# full-scale message rows (33k, 65k) 1.05x and 0.93x, and a commit's 8
# full-scale file rows (260k) 0.57x.
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


def _extend(x, widest):
    """Vectors x (B, L, M * d_in) zero-extended to at least `widest` positions."""
    if x.shape[1] >= widest:
        return x
    return np.concatenate([x, np.zeros((x.shape[0], widest - x.shape[1], x.shape[2]))], axis=1)


def _window_pre(taps_w, banks, x, shape):
    """Per bank, (k, pre) with pre (M, n_k, *shape[:-1], shape[-1] - k + 1)
    the window pre-activations of vectors x (prod(shape), M * d_in) laid out
    as shape: one tap GEMM, then each window's taps added in j order to
    tap 0 plus the bias. taps_w is (M, taps, d_in)."""
    models = len(taps_w)
    # taps[m, row of (bank, j, f), column] = w_k[f, j] . x[column] in block m
    taps = taps_w @ x.reshape(len(x), models, -1).transpose(1, 2, 0)
    row = 0
    for k, w, bias in banks:
        n_k = w.shape[0]
        tap = taps[:, row : row + k * n_k].reshape(models, k, n_k, *shape)
        row += k * n_k
        positions = shape[-1] - k + 1
        pre = tap[:, 0, ..., :positions] + bias.reshape(models, n_k, *(1,) * len(shape))
        for j in range(1, k):
            pre += tap[:, j, ..., j : j + positions]
        yield k, pre


def _kept_prefixes(ids, widest):
    """Each id row's real length r and kept prefix, min(L, r + widest
    rounded up to 8 tokens): see the textCNN notes."""
    length = ids.shape[1]
    real = np.where(ids != 0, np.arange(1, length + 1), 0).max(axis=1)
    return real, np.minimum((real + widest + 7) & -8, length)


def padding_slots(pad: np.ndarray):
    """(keep, slot) for a mask of all-padding rows, which pool alike: keep
    marks every other row and the first padding row, and slot maps each
    row to its place among the kept rows, every padding row to the first's."""
    keep = ~pad
    keep[pad.argmax()] = True  # a no-op when no row is padding
    slot = np.cumsum(keep) - 1
    slot[pad] = slot[pad.argmax()]
    return keep, slot


def _pool(taps_w, banks, x, table=None, argmax=False):
    """Each filter's maximum over each row's windows, (B, M, total filters)
    in the memory layout of the textCNN notes, and with argmax each bank's
    first window at it, (B, M * n_k); else None. x is (B, L) token ids of
    table, or (B, L, M * d_in) vectors when table is None, at least the
    widest window long. Vectors and small id batches are pooled whole; see
    the textCNN notes for the packed path."""
    models, taps = taps_w.shape[:2]
    batch, length = x.shape[:2]
    cap = max(1, _TEXTCNN_BLOCK // (models * taps))  # token positions of one chunk
    args = [] if argmax else None
    if table is None or batch * length * models * taps <= _TEXTCNN_BLOCK >> (0 if argmax else 4):
        whole = x.reshape(batch * length, -1) if table is None else embedding_forward(table, x.reshape(-1))
        maxima = []
        for k, pre in _window_pre(taps_w, banks, whole, (batch, length)):  # pre is (M, n_k, B, P)
            if argmax:
                args.append(pre.argmax(axis=3))
                at = args[-1].reshape(-1)  # one flat gather
                maxima.append(pre.reshape(-1, pre.shape[3])[np.arange(len(at)), at].reshape(args[-1].shape))
            else:
                maxima.append(pre.max(axis=3))
        return (np.concatenate(maxima, axis=1).transpose(2, 0, 1),
                None if args is None else [a.reshape(-1, batch).T for a in args])
    real, kept = _kept_prefixes(x, banks[-1][0])
    live, slot = padding_slots(real == 0)
    flat = x[np.arange(length) < np.where(live, kept, 0)[:, None]]
    kept = kept[live]
    ends = np.cumsum(kept)
    starts = ends - kept
    total = int(ends[-1])
    chunks = -(-total // cap)
    rows = (0, len(kept))
    if chunks > 1:
        # one chunk of cap / n positions per thread in flight
        chunks *= _thread_count(chunks)
        cuts = np.searchsorted(ends, np.arange(1, chunks) * total // chunks, "right")
        rows = np.unique(np.concatenate([[0], cuts, [len(kept)]]))
    out = np.empty((models, sum(w.shape[0] for _, w, _ in banks), len(kept)))
    if argmax:
        args = [np.empty((models, w.shape[0], len(kept)), dtype=np.intp) for _, w, _ in banks]

    def pool_chunk(_, span):
        # rows first to last, which write only their own columns of out and args
        first, last = span
        lo, hi = starts[first], ends[last - 1]
        # each row's (start, end) of windows, interleaved for one reduceat
        # per bank; the last end is the end of pre, so it is left out
        bounds = np.empty(2 * (last - first), dtype=np.intp)
        bounds[0::2] = starts[first:last] - lo
        maxima = []
        for i, (k, pre) in enumerate(_window_pre(taps_w, banks, embedding_forward(table, flat[lo:hi]),
                                                 (hi - lo,))):
            np.subtract(ends[first:last] - lo, k - 1, out=bounds[1::2])
            maxima.append(np.maximum.reduceat(pre, bounds[:-1], axis=2)[:, :, ::2])
            if argmax:
                # each row's maximum spread over its positions, the windows
                # past its own (across two rows) included: those come after
                # the row's own windows, which hold its maximum, so the first
                # hit from each row's first window on is its first argmax
                spread = kept[first:last].copy()
                spread[-1] -= k - 1
                hits = np.flatnonzero(pre == np.repeat(maxima[-1], spread, axis=2))
                begin = (np.arange(models * pre.shape[1])[:, None] * pre.shape[2] + bounds[0::2]).reshape(-1)
                at = hits[np.searchsorted(hits, begin)] - begin
                args[i][:, :, first:last] = at.reshape(maxima[-1].shape)
        np.concatenate(maxima, axis=1, out=out[:, :, first:last])

    _spread(pool_chunk, list(zip(rows[:-1], rows[1:])))
    # C order past one chunk, (M, F, B) otherwise, as the notes say (an
    # index on the last axis would not keep that order)
    maxima = out.take(slot, axis=2).transpose(2, 0, 1)
    if batch * length > cap:
        maxima = np.ascontiguousarray(maxima)
    return maxima, None if args is None else [a.take(slot, axis=2).reshape(-1, batch).T for a in args]


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
    head = prefix + ".w"
    windows = sorted(int(n[len(head):]) for n in params if n.startswith(head))
    banks = [(k, params[f"{prefix}.w{k}"], params[f"{prefix}.b{k}"]) for k in windows]
    models = banks[0][2].size // banks[0][1].shape[0]
    taps_w = np.concatenate([w.transpose(1, 0, 2).reshape(-1, w.shape[2]) for _, w, _ in banks])
    taps_w = taps_w.reshape(len(taps_w), models, -1).transpose(1, 0, 2)
    taps_w.flags.writeable = False
    return TextCNNLayout(banks, models, taps_w)


def textcnn_forward(params: Params, prefix: str, x: np.ndarray,
                    embedding: np.ndarray | None = None, layout: TextCNNLayout | None = None,
                    cache: bool = True):
    """x is either (B, L) int token ids (embedding (V, M * d_in) required) or
    (B, L, M * d_in) vectors. Returns (z, cache) with z of shape
    (B, M * total filters). Sequences shorter than the largest window are
    zero-extended. layout is textcnn_layout(params, prefix), derived here
    when not given. With cache=False the cache is None: z has the same
    bits, pooled without what textcnn_backward reads, for scoring."""
    banks, models, taps_w = layout or textcnn_layout(params, prefix)
    ids = None
    orig_len = x.shape[1]
    if x.ndim == 2 and np.issubdtype(x.dtype, np.integer):
        if embedding is None:
            raise ValueError("token-id input needs an embedding table")
        ids = x
        if orig_len < banks[-1][0]:
            x = embedding_forward(embedding, ids)
    if x is not ids:
        x = _extend(x, banks[-1][0])
    maxima, args = _pool(taps_w, banks, x, embedding if x is ids else None, argmax=cache)
    z = relu(maxima).reshape(len(maxima), -1)
    if not cache:
        return z, None
    pooled, col = [], 0
    for (k, w, _), arg in zip(banks, args):
        pooled.append((k, arg, maxima[:, :, col : col + w.shape[0]]))
        col += w.shape[0]
    cache = {"x": None if x is ids else x, "ids": ids, "embedding": embedding, "orig_len": orig_len,
             "prefix": prefix, "models": models, "banks": pooled}
    return z, cache


def textcnn_backward(params: Params, cache, d_z: np.ndarray):
    """Returns (d_input, grads). Each window position that an argmax window
    touches gets the sum of its entries' input gradients, added filter by
    filter in entry order (bank, m, b, f, j). For vector input d_input is
    the gradient w.r.t. the input vectors, trimmed to the original length;
    for token-id input it is the RowGrad of the embedding table's (V * M,
    d_in) view, the sums going to their token ids in position order: the
    same bits as embedding_backward of the dense input gradient."""
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
    # Each bank's window entries (m, b, f, j): their key (position * M + m),
    # marked in hit, their d_pre and w_m, w in model blocks, whose product is
    # their input gradient d_pre * w[f, j] in block m. All three are kept
    # filter-major, so that each step below reads contiguous slots.
    hit = np.zeros(batch * length * models, dtype=bool)
    terms = []
    col = 0
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
        # the window gather lives only through its einsum
        grads[f"{prefix}.w{k}"] = (np.einsum("mbf,mbfjc->mfjc", d_pre,
                                             source[ids[rows, at], model] if x is None
                                             else source[rows, at, model])
                                   .transpose(1, 2, 0, 3).reshape(w.shape))
        grads[f"{prefix}.b{k}"] = d_pre.sum(axis=1).reshape(-1)
        keys = np.add((rows * length + at) * models, model, out=at)
        hit[keys] = True
        terms.append((keys.transpose(2, 0, 1, 3), d_pre.transpose(2, 0, 1)[..., None, None],
                      w.reshape(n_k, k, models, d_in).transpose(0, 2, 1, 3)[:, :, None]))
    # The touched positions ascending and each position's slot among them,
    # as np.unique(keys, return_inverse=True) gives them, without a sort.
    touched = np.flatnonzero(hit)
    slot = np.cumsum(hit) - 1
    # One filter of one bank per step, banks then filters in order: a
    # filter's k entries in a row lie at distinct positions, so a step adds
    # to distinct slots, and each slot gets its entries from 0.0 in the
    # order np.bincount over the entries would add them. Rows go back
    # through a one-element-per-row view, which numpy assigns about twice as
    # fast as rows of d_in floats at desk widths.
    d_windows = np.zeros((len(touched), d_in))
    whole_rows = d_windows.view(np.dtype((np.void, d_windows.itemsize * d_in)))[:, 0]
    for keys, d_pre, w_m in terms:
        for at, d_f, w_f in zip(slot.take(keys), d_pre, w_m):
            step = d_windows.take(at, axis=0)
            step += d_f * w_f
            whole_rows[at] = step.view(whole_rows.dtype)[..., 0]
    if x is None:
        # per token id in position order: embedding_backward's additions,
        # the untouched positions' zeros left out
        position, model = np.divmod(touched, models)
        return _sum_rows(d_windows, ids.reshape(-1)[position] * models + model,
                         len(table) * models), grads
    d_x = np.zeros((batch * length * models, d_in))
    d_x[touched] = d_windows
    d_x = d_x.reshape(x.shape)[:, : cache["orig_len"]]
    if ids is not None:
        at = (ids[..., None] * models + np.arange(models)).reshape(-1)
        return _sum_rows(d_x.reshape(-1, d_in), at, len(table) * models), grads
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
    block-sized rows per thread that has run a block: in a thread region
    (threads), the threads take the blocks in turn, each through its own
    rows.
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
    work: list = field(default_factory=list, repr=False)


def _views(flat: np.ndarray, names, shapes) -> dict:
    views, at = {}, 0
    for name, shape in zip(names, shapes):
        size = math.prod(shape)
        views[name] = flat[at : at + size].reshape(shape)
        at += size
    return views


def _write_rows(out: np.ndarray, grad: RowGrad, first: int) -> np.ndarray:
    """out, whole rows of a parameter from row `first` on, zeroed but for grad's rows."""
    block = out.reshape(-1, grad.sums.shape[1])
    block[...] = 0.0
    lo, hi = np.searchsorted(grad.rows, (first, first + len(block)))
    block[grad.rows[lo:hi] - first] = grad.sums[lo:hi]
    return out


def adam_step(state: AdamState, params: Params, grads: Params) -> None:
    """Standard bias-corrected Adam update, in place:
    m += (1 - beta1) * (g - m); v += (1 - beta2) * (g * g - v);
    p -= lr * (m / (1 - beta1**t)) / (sqrt(v / (1 - beta2**t)) + eps),
    in that operation order, over each group's flat vectors in blocks of
    _ADAM_BLOCK floats through the work rows, on the threads of the thread
    region (threads), which each element's bits do not depend on.

    Every parameter with a gradient, an array or a RowGrad, is updated in
    every row; later steps must pass gradients for the same names and
    shapes as the first, and params must still hold the views the first
    step bound. The whole step, row ids included, is checked before
    anything changes, so a rejected step leaves everything as it was.
    """
    names = tuple(filter(grads.__contains__, params))
    rowed = [n for n in names if isinstance(grads[n], RowGrad)]
    for name in rowed:
        (rows, sums), size = grads[name], params[name].size
        width = sums.shape[-1] if sums.ndim == 2 else 0
        if not (0 < width <= _ADAM_BLOCK and size % width == 0 and rows.shape == sums.shape[:1]
                and rows.dtype.kind in "iu" and (rows[1:] > rows[:-1]).all()
                and (len(rows) == 0 or 0 <= rows[0] and rows[-1] < size // width)):
            raise ValueError(f"malformed row gradient for '{name}' of shape {params[name].shape}")
    shapes = [params[n].shape if n in rowed else grads[n].shape for n in names]
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
        work = [np.empty((3, min(_ADAM_BLOCK, sum(size for _, size in packing))))]

    def gradient(group, size, out):
        # the group's flat gradient, in out for several names; None for a
        # lone RowGrad, written block by block
        if len(group) == 1:
            return None if group[0] in rowed else grads[group[0]].reshape(-1)
        out = np.concatenate([np.zeros(params[n].shape) if n in rowed else grads[n] for n in group],
                             axis=None, out=out[:size])
        for n in set(rowed).intersection(group):  # zeros so far; its rows go in
            at, (rows, sums) = sum(params[k].size for k in group[: group.index(n)]), grads[n]
            out[at : at + params[n].size].reshape(-1, sums.shape[1])[rows] = sums
        return out

    for group, size in packing:
        checked = gradient(group, size, work[0][2])
        if not np.isfinite(grads[group[0]].sums if checked is None else checked).all():
            bad = next(n for n in group if not np.isfinite(getattr(grads[n], "sums", grads[n])).all())
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
    blocks = []
    for entry in state.groups:
        group, p_all = entry[:2]
        lone_rows = len(group) == 1 and group[0] in rowed
        width = grads[group[0]].sums.shape[1] if lone_rows else 1
        span = _ADAM_BLOCK // width * width
        blocks += [(entry, lo, lo + span, width) for lo in range(0, len(p_all), span)]
    while len(work) < _thread_count(len(blocks)):
        work.append(np.empty_like(work[0]))

    def update(slot, block):
        (group, p_all, m_all, v_all), lo, hi, width = block
        rows = work[slot]
        # a lone group's gradient is still the one just checked: a lone group
        # of several names is one block, which runs in slot 0
        g_all = checked if len(state.groups) == 1 else gradient(group, len(p_all), rows[2])
        p, m, v = p_all[lo:hi], m_all[lo:hi], v_all[lo:hi]
        g = (g_all[lo:hi] if g_all is not None
             else _write_rows(rows[2, : len(p)], grads[group[0]], lo // width))
        step, denom = rows[0, : len(g)], rows[1, : len(g)]
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

    _spread(update, blocks)


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
