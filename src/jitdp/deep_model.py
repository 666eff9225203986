"""The deep commit model: hierarchical textCNN over the commit message and
the per-file change documents.

Forward path: message ids -> embedding -> textCNN -> Z_m; each file row ->
embedding -> textCNN -> one vector per file; a second-level textCNN
aggregates the file vectors -> Z_c; Z = Z_m (+) Z_c goes through an early
fusion strategy (identity for the plain model), dropout, and the two-logit
classifier. Training is mini-batch Adam on class-weighted cross-entropy
with per-epoch validation and best-mean checkpoint selection.

Models that read the same token ids (the commit model and the early-fused
models) run as one stack: each textCNN runs once for all of them in channel
blocks, and each model's fusion and classifier run on its own slice.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass

import numpy as np

from . import nn
from .corpus import write_csv
from .evaluation import prf1
from .fusion import early_fuse_backward, early_fuse_forward, early_fused_dim, early_fusion_init
from .textprep import PAD_ID, TextShape, Vocab, encode_commits


@dataclass(frozen=True)
class DeepConfig:
    """Full-scale defaults; RunConfig().deep_config() is the desk-scale variant."""

    embed_dim: int = 64
    filters: int = 64
    windows: tuple = (1, 2, 3)
    hidden: int = 512
    dropout: float = 0.5
    lr: float = 5e-5
    batch_size: int = 64
    epochs: int = 30
    gmf_beta: float = 1.0


@dataclass(frozen=True)
class TrainLogEntry:
    epoch: int
    train_loss: float
    val_auc_roc: float
    val_auc_pr: float
    val_f1: float

    @property
    def metric_mean(self) -> float:
        return (self.val_auc_roc + self.val_auc_pr + self.val_f1) / 3.0


@dataclass
class DeepDataset:
    commit_ids: tuple
    message_ids: np.ndarray  # (N, l_msg)
    file_ids: np.ndarray  # (N, files, l_code)
    x_cat: np.ndarray  # (N, n_cat)
    x_cont: np.ndarray  # (N, n_cont)
    labels: np.ndarray  # (N,), -1 where unlabeled

    def __len__(self) -> int:
        return len(self.commit_ids)


def build_dataset(commits, vocab: Vocab, shape: TextShape, feature_entries=None,
                  ids=None) -> DeepDataset:
    """Encode commits; feature_entries (commit_id -> FeatureSplitEntry) is
    optional and only needed for early-fused models. ids, if given, is the
    (message_ids, file_ids) pair encode_commits already made of these
    commits."""
    commits = list(commits)
    message_ids, file_ids = ids or encode_commits(commits, vocab, shape)
    n = len(commits)
    if feature_entries is None:
        cats = np.zeros((n, 1))
        conts = np.zeros((n, 13))
    else:
        entries = [feature_entries[c.commit_id] for c in commits]
        cats = np.stack([e.x_cat for e in entries])
        conts = np.stack([e.x_cont for e in entries])
    return DeepDataset(
        commit_ids=tuple(c.commit_id for c in commits),
        message_ids=message_ids,
        file_ids=file_ids,
        x_cat=cats,
        x_cont=conts,
        labels=np.array([-1 if c.label is None else c.label for c in commits], dtype=np.int64),
    )


def init_deep_params(rng, vocab_size: int, cfg: DeepConfig, strategy: str = "none",
                     n_cat: int = 1, n_cont: int = 13) -> nn.Params:
    params = {
        "msg_emb": nn.glorot_uniform(rng, (vocab_size, cfg.embed_dim)),
        "code_emb": nn.glorot_uniform(rng, (vocab_size, cfg.embed_dim)),
    }
    params.update(nn.textcnn_init(rng, "msg_cnn", cfg.embed_dim, cfg.windows, cfg.filters))
    params.update(nn.textcnn_init(rng, "file_cnn", cfg.embed_dim, cfg.windows, cfg.filters))
    params.update(nn.textcnn_init(rng, "agg_cnn", cfg.filters, cfg.windows, cfg.filters))
    deep_dim = 2 * cfg.filters
    params.update(early_fusion_init(rng, strategy, deep_dim, n_cat, n_cont))
    clf_dim = early_fused_dim(strategy, deep_dim, n_cat, n_cont)
    params.update(nn.classifier_init(rng, "clf", clf_dim, cfg.hidden))
    return params


# Names of the trunk: the layers that read token ids, shared in channel
# blocks by the models of a stack.
_TRUNK = ("msg_emb", "code_emb", "msg_cnn.", "file_cnn.", "agg_cnn.")


def stack_params(models) -> nn.Params:
    """One params dict for models that read the same token ids. Trunk arrays
    are concatenated along their last axis, so model m owns channel block m
    of each embedding table, filter bank and bias (see nn's textCNN); model
    m's fusion and classifier parameters keep their names behind "m:". One
    model is its own stack."""
    if len(models) == 1:
        return models[0]
    stack = {n: np.concatenate([p[n] for p in models], axis=-1)
             for n in models[0] if n.startswith(_TRUNK)}
    for m, p in enumerate(models):
        stack.update((f"{m}:{n}", v) for n, v in p.items() if not n.startswith(_TRUNK))
    return stack


def model_params(stack: nn.Params, count: int, m: int) -> nn.Params:
    """A copy of model m's parameters from a stack of `count` models."""
    model = {}
    for n, v in stack.items():
        if n.startswith(_TRUNK):
            width = v.shape[-1] // count
            model[n] = v[..., m * width : (m + 1) * width].copy()
        elif count == 1 or n.startswith(f"{m}:"):
            model[n.split(":", 1)[-1]] = v.copy()
    return model


def model_heads(params: nn.Params, count: int) -> list:
    """Each model's view of its own fusion and classifier parameters in a
    stack of `count` models."""
    if count == 1:
        return [params]
    heads = [{} for _ in range(count)]
    for n, v in params.items():
        m, tagged, name = n.partition(":")
        if tagged:
            heads[int(m)][name] = v
    return heads


def textcnn_layouts(params: nn.Params) -> dict:
    """nn.textcnn_layout of each of the three textCNNs, by prefix."""
    return {prefix: nn.textcnn_layout(params, prefix) for prefix in ("msg_cnn", "file_cnn", "agg_cnn")}


def _heads_forward(heads, strategies, z_m, z_c, x_cat, x_cont, cfg: DeepConfig,
                   training: bool = False, rngs=None):
    """Each model's early fusion, dropout and classifier on its channel
    block of z_m and z_c: (probs, caches), one of each per model."""
    split, width = z_m.shape[1] // len(strategies), z_c.shape[1] // len(strategies)
    probs, caches = [], []
    for m, (head, s, r) in enumerate(zip(heads, strategies, rngs or (None,) * len(strategies))):
        z = np.concatenate([z_m[:, m * split : (m + 1) * split],
                            z_c[:, m * width : (m + 1) * width]], axis=1)
        fused, cache_fuse = early_fuse_forward(head, s, z, x_cat, x_cont, cfg.gmf_beta)
        dropped, mask = nn.dropout(fused, cfg.dropout, training, r)
        p, cache_clf = nn.classifier_forward(head, "clf", dropped)
        probs.append(p)
        caches.append((head, cache_fuse, mask, cache_clf))
    return probs, caches


def forward_batch(params: nn.Params, cfg: DeepConfig, msg_ids, file_ids, x_cat, x_cont,
                  strategy: str = "none", training: bool = False, rng=None, layouts=None,
                  heads=None):
    """The training forward pass: returns (probs (B, 2), z_m, z_c, cache),
    the cache holding what backward_batch reads, in either mode. For a
    tuple of M strategies, params is the stack of one model per strategy
    (stack_params) and rng one dropout generator per model; each textCNN
    runs once for all of them, probs is a list of each model's (B, 2) and
    z_m, z_c are (B, M * filters) in channel blocks. layouts and heads are
    textcnn_layouts(params) and model_heads(params, M) of parameters that
    no longer change, or None to derive them in this call. score_dataset
    gives the same probabilities without the cache."""
    strategies = (strategy,) if isinstance(strategy, str) else strategy
    rngs = (rng,) if isinstance(strategy, str) else rng
    layouts = layouts or {}
    b, f, l_code = file_ids.shape
    z_m, cache_m = nn.textcnn_forward(params, "msg_cnn", msg_ids, embedding=params["msg_emb"],
                                      layout=layouts.get("msg_cnn"))
    # All-padding file rows share one encoding: the first of them is encoded
    # and broadcast to the rest, whose gradients backward_batch folds back.
    flat_files = file_ids.reshape(b * f, l_code)
    pad = (flat_files == PAD_ID).all(axis=1)
    keep, slot = nn.padding_slots(pad)
    file_vecs_kept, cache_f = nn.textcnn_forward(params, "file_cnn", flat_files[keep],
                                                 embedding=params["code_emb"],
                                                 layout=layouts.get("file_cnn"))
    file_vecs = file_vecs_kept[slot].reshape(b, f, -1)
    z_c, cache_a = nn.textcnn_forward(params, "agg_cnn", file_vecs, layout=layouts.get("agg_cnn"))
    probs, head_caches = _heads_forward(heads or model_heads(params, len(strategies)), strategies,
                                        z_m, z_c, x_cat, x_cont, cfg, training, rngs)
    cache = {
        "msg": cache_m, "file": cache_f, "agg": cache_a, "heads": head_caches,
        "split": z_m.shape[1] // len(strategies),
        "file_rows": (keep, slot, pad), "stacked": not isinstance(strategy, str),
    }
    return (probs if cache["stacked"] else probs[0]), z_m, z_c, cache


def backward_batch(params: nn.Params, cache, d_logits) -> nn.Params:
    """Gradients of every parameter, the embedding tables' as nn.RowGrad;
    d_logits is one (B, 2) array, or a list with each model's for a stack."""
    grads = {}
    heads = cache["heads"]
    d_zm, d_zc = [], []
    split = cache["split"]
    for m, ((head, cache_fuse, mask, cache_clf), d) in enumerate(
            zip(heads, d_logits if cache["stacked"] else [d_logits])):
        d_drop, clf_grads = nn.classifier_backward(head, cache_clf, d)
        d_z, _, _, fuse_grads = early_fuse_backward(head, cache_fuse, d_drop * mask)
        tag = f"{m}:" if len(heads) > 1 else ""
        grads.update((tag + n, g) for n, g in (clf_grads | fuse_grads).items())
        d_zm.append(d_z[:, :split])
        d_zc.append(d_z[:, split:])
    d_file_vecs, agg_grads = nn.textcnn_backward(params, cache["agg"], np.concatenate(d_zc, axis=1))
    grads.update(agg_grads)
    keep, slot, pad = cache["file_rows"]
    d_rows = d_file_vecs.reshape(len(slot), -1)
    d_kept = d_rows[keep]
    if pad.any():
        d_kept[slot[pad.argmax()]] = d_rows[pad].sum(axis=0)
    grads["code_emb"], file_grads = nn.textcnn_backward(params, cache["file"], d_kept)
    grads.update(file_grads)
    grads["msg_emb"], msg_grads = nn.textcnn_backward(params, cache["msg"],
                                                      np.concatenate(d_zm, axis=1))
    grads.update(msg_grads)
    return grads


def score_dataset(params: nn.Params, cfg: DeepConfig, ds: DeepDataset,
                  strategy: str = "none", batch: int = 256, layouts=None,
                  heads=None) -> np.ndarray:
    """Defect probabilities in evaluation mode, (N,), in passes of `batch`
    commits. For a tuple of M strategies, params is their stack, scored in
    one pass: (N, M), one column per model. layouts and heads are as in
    forward_batch, derived once per call when not given. Each textCNN runs
    without a cache (nn.textcnn_forward's cache=False), which also pools
    all-padding rows as one; every score has forward_batch's bits."""
    strategies = (strategy,) if isinstance(strategy, str) else strategy
    layouts = layouts or textcnn_layouts(params)
    heads = heads or model_heads(params, len(strategies))
    out = np.empty((len(strategies), len(ds)))
    for start in range(0, len(ds), batch):
        sl = slice(start, min(start + batch, len(ds)))
        files = ds.file_ids[sl]
        b, f, l_code = files.shape
        z_m, _ = nn.textcnn_forward(params, "msg_cnn", ds.message_ids[sl], embedding=params["msg_emb"],
                                    layout=layouts["msg_cnn"], cache=False)
        file_vecs, _ = nn.textcnn_forward(params, "file_cnn", files.reshape(b * f, l_code),
                                          embedding=params["code_emb"], layout=layouts["file_cnn"],
                                          cache=False)
        # C order, as forward_batch's row gather leaves the file vectors: the
        # aggregation's tap GEMM sums in an order that follows their layout
        file_vecs = np.ascontiguousarray(file_vecs).reshape(b, f, -1)
        z_c, _ = nn.textcnn_forward(params, "agg_cnn", file_vecs, layout=layouts["agg_cnn"],
                                    cache=False)
        probs, _ = _heads_forward(heads, strategies, z_m, z_c, ds.x_cat[sl], ds.x_cont[sl], cfg)
        for row, p in zip(out, probs):
            row[sl] = p[:, 1]
    return out[0] if isinstance(strategy, str) else out.T


class TrainingError(RuntimeError):
    pass


def train_deep(train_ds: DeepDataset, val_ds: DeepDataset, vocab_size: int,
               cfg: DeepConfig, seed: int = 0, strategy: str = "none"):
    """Mini-batch Adam with class-weighted cross-entropy; returns the
    parameters of the epoch whose validation metric mean (AUC-ROC, AUC-PR,
    F1 at 0.5) is highest, plus the per-epoch TrainLog.

    A tuple of strategies trains one model per strategy in lockstep, as a
    stack, and returns one (params, log) per strategy. Each model draws its
    initial parameters and its dropout from its own generators and shares
    the batch order. Training runs in a thread region (nn.threads): one
    BLAS thread on every path and, on 2 or more CPUs, the packed pool's
    chunks and Adam's blocks on a second thread, which keeps every bit.
    Full-scale bits depend on M = 1 or M > 1.
    """
    if len(val_ds) == 0:
        raise TrainingError("validation split is empty")
    n_pos = int((train_ds.labels == 1).sum())
    n_neg = int((train_ds.labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise TrainingError("training split must contain both classes")
    if not ((val_ds.labels == 0).any() and (val_ds.labels == 1).any()):
        raise TrainingError("validation split must contain both classes")
    class_weights = (1.0, n_neg / n_pos)

    strategies = (strategy,) if isinstance(strategy, str) else tuple(strategy)
    count = len(strategies)
    order_rng = np.random.default_rng([seed, 1])
    drop_rngs = tuple(np.random.default_rng([seed, 2]) for _ in strategies)
    params = stack_params([init_deep_params(np.random.default_rng([seed, 0]), vocab_size, cfg, s,
                                            train_ds.x_cat.shape[1], train_ds.x_cont.shape[1])
                           for s in strategies])
    adam = nn.AdamState(lr=cfg.lr)
    logs = [[] for _ in strategies]
    best_params = [None] * count
    best_mean = [-np.inf] * count
    n = len(train_ds)
    with nn.threads():
        for epoch in range(cfg.epochs):
            perm = order_rng.permutation(n)
            losses = []
            for b_idx, start in enumerate(range(0, n, cfg.batch_size)):
                take = perm[start : start + cfg.batch_size]
                probs, _, _, cache = forward_batch(
                    params, cfg, train_ds.message_ids[take], train_ds.file_ids[take],
                    train_ds.x_cat[take], train_ds.x_cont[take],
                    strategy=strategies, training=True, rng=drop_rngs)
                labels = train_ds.labels[take]
                steps = [nn.cross_entropy_batch(p, labels, class_weights) for p in probs]
                for s, (loss, _) in zip(strategies, steps):
                    if not np.isfinite(loss):
                        raise TrainingError(f"non-finite loss at epoch {epoch} batch {b_idx}"
                                            + ("" if isinstance(strategy, str) else f" ({s})"))
                grads = backward_batch(params, cache, [d_logits for _, d_logits in steps])
                nn.adam_step(adam, params, grads)
                losses.append([loss for loss, _ in steps])
                # this step's arrays go before the next step's are made
                del probs, cache, steps, grads
            val_scores = score_dataset(params, cfg, val_ds, strategies)
            for m, log in enumerate(logs):
                report = prf1(val_scores[:, m], val_ds.labels)
                entry = TrainLogEntry(epoch=epoch, train_loss=float(np.mean([s[m] for s in losses])),
                                      val_auc_roc=report.auc_roc, val_auc_pr=report.auc_pr,
                                      val_f1=report.f1)
                log.append(entry)
                if entry.metric_mean > best_mean[m]:
                    best_mean[m] = entry.metric_mean
                    best_params[m] = None  # the old snapshot goes before the new one is made
                    best_params[m] = model_params(params, count, m)
    trained = list(zip(best_params, logs))
    return trained[0] if isinstance(strategy, str) else trained


TRAIN_LOG_HEADER = "epoch,train_loss,val_auc_roc,val_auc_pr,val_f1,metric_mean"


def write_train_log(path, log) -> None:
    write_csv(path, TRAIN_LOG_HEADER, ((*astuple(e), e.metric_mean) for e in log))
