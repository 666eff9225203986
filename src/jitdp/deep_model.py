"""The deep commit model: hierarchical textCNN over the commit message and
the per-file change documents.

Forward path: message ids -> embedding -> textCNN -> Z_m; each file row ->
embedding -> textCNN -> one vector per file; a second-level textCNN
aggregates the file vectors -> Z_c; Z = Z_m (+) Z_c goes through an early
fusion strategy (identity for the plain model), dropout, and the two-logit
classifier. Training is mini-batch Adam on class-weighted cross-entropy
with per-epoch validation and best-mean checkpoint selection.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from . import nn
from .evaluation import prf1
from .fusion import early_fuse_backward, early_fuse_forward, early_fused_dim, early_fusion_init
from .textprep import PAD_ID, EncodedCommit, TextShape, Vocab, encode_commits


@dataclass(frozen=True)
class DeepConfig:
    """Full-scale defaults; MICRO_CONFIG is the desk-scale test variant."""

    embed_dim: int = 64
    filters: int = 64
    windows: tuple = (1, 2, 3)
    hidden: int = 512
    dropout: float = 0.5
    lr: float = 5e-5
    batch_size: int = 64
    epochs: int = 30
    gmf_beta: float = 1.0


MICRO_CONFIG = DeepConfig(embed_dim=8, filters=8, hidden=32, dropout=0.25,
                          lr=4e-3, batch_size=32, epochs=10)


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


def build_dataset(commits, vocab: Vocab, shape: TextShape, feature_entries=None) -> DeepDataset:
    """Encode commits; feature_entries (commit_id -> FeatureSplitEntry) is
    optional and only needed for early-fused models."""
    commits = list(commits)
    message_ids, file_ids = encode_commits(commits, vocab, shape)
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


def forward_batch(params: nn.Params, cfg: DeepConfig, msg_ids, file_ids, x_cat, x_cont,
                  strategy: str = "none", training: bool = False, rng=None):
    """Returns (probs (B, 2), z_m, z_c, cache)."""
    b, f, l_code = file_ids.shape
    z_m, cache_m = nn.textcnn_forward(params, "msg_cnn", msg_ids, embedding=params["msg_emb"])
    # All-padding file rows share one encoding: the first of them is encoded
    # and broadcast to the rest, whose gradients backward_batch folds back.
    flat_files = file_ids.reshape(b * f, l_code)
    pad = (flat_files == PAD_ID).all(axis=1)
    keep = ~pad
    keep[pad.argmax()] = True  # a no-op when no row is padding
    slot = np.cumsum(keep) - 1
    slot[pad] = slot[pad.argmax()]
    file_vecs_kept, cache_f = nn.textcnn_forward(params, "file_cnn", flat_files[keep],
                                                 embedding=params["code_emb"])
    file_vecs = file_vecs_kept[slot].reshape(b, f, -1)
    z_c, cache_a = nn.textcnn_forward(params, "agg_cnn", file_vecs)
    z = np.concatenate([z_m, z_c], axis=1)
    fused, cache_fuse = early_fuse_forward(params, strategy, z, x_cat, x_cont, cfg.gmf_beta)
    dropped, mask = nn.dropout(fused, cfg.dropout, training, rng)
    probs, cache_clf = nn.classifier_forward(params, "clf", dropped)
    cache = {
        "msg": cache_m, "file": cache_f, "agg": cache_a, "fuse": cache_fuse,
        "clf": cache_clf, "mask": mask, "split": z_m.shape[1],
        "file_rows": (keep, slot, pad),
    }
    return probs, z_m, z_c, cache


def backward_batch(params: nn.Params, cache, d_logits) -> nn.Params:
    grads = {}
    d_drop, clf_grads = nn.classifier_backward(params, cache["clf"], d_logits)
    grads.update(clf_grads)
    d_fused = d_drop * cache["mask"]
    d_z, _, _, fuse_grads = early_fuse_backward(params, cache["fuse"], d_fused)
    grads.update(fuse_grads)
    split = cache["split"]
    d_zm = d_z[:, :split]
    d_zc = d_z[:, split:]
    d_file_vecs, agg_grads = nn.textcnn_backward(params, cache["agg"], d_zc)
    grads.update(agg_grads)
    keep, slot, pad = cache["file_rows"]
    d_rows = d_file_vecs.reshape(len(slot), -1)
    d_kept = d_rows[keep]
    if pad.any():
        d_kept[slot[pad.argmax()]] = d_rows[pad].sum(axis=0)
    grads["code_emb"], file_grads = nn.textcnn_backward(params, cache["file"], d_kept)
    grads.update(file_grads)
    grads["msg_emb"], msg_grads = nn.textcnn_backward(params, cache["msg"], d_zm)
    grads.update(msg_grads)
    return grads


def com_forward(params: nn.Params, cfg: DeepConfig, encoded: EncodedCommit,
                x_cat=None, x_cont=None, strategy: str = "none",
                training: bool = False, rng=None):
    """Single-commit forward: returns (score pair, z_m, z_c)."""
    cat = np.zeros((1, 1)) if x_cat is None else np.asarray(x_cat, dtype=np.float64)[None, :]
    cont = np.zeros((1, 13)) if x_cont is None else np.asarray(x_cont, dtype=np.float64)[None, :]
    probs, z_m, z_c, _ = forward_batch(
        params, cfg, encoded.message_ids[None, :], encoded.file_ids[None, :, :],
        cat, cont, strategy=strategy, training=training, rng=rng)
    return probs[0], z_m[0], z_c[0]


def score_dataset(params: nn.Params, cfg: DeepConfig, ds: DeepDataset,
                  strategy: str = "none", batch: int = 256) -> np.ndarray:
    """Defect probabilities in evaluation mode."""
    out = np.empty(len(ds))
    for start in range(0, len(ds), batch):
        sl = slice(start, min(start + batch, len(ds)))
        probs, _, _, _ = forward_batch(
            params, cfg, ds.message_ids[sl], ds.file_ids[sl],
            ds.x_cat[sl], ds.x_cont[sl], strategy=strategy, training=False)
        out[sl] = probs[:, 1]
    return out


class TrainingError(RuntimeError):
    pass


def train_deep(train_ds: DeepDataset, val_ds: DeepDataset, vocab_size: int,
               cfg: DeepConfig, seed: int = 0, strategy: str = "none"):
    """Mini-batch Adam with class-weighted cross-entropy; returns the
    parameters of the epoch whose validation metric mean (AUC-ROC, AUC-PR,
    F1 at 0.5) is highest, plus the per-epoch TrainLog."""
    if len(val_ds) == 0:
        raise TrainingError("validation split is empty")
    n_pos = int((train_ds.labels == 1).sum())
    n_neg = int((train_ds.labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise TrainingError("training split must contain both classes")
    class_weights = (1.0, n_neg / n_pos)

    init_rng = np.random.default_rng([seed, 0])
    order_rng = np.random.default_rng([seed, 1])
    drop_rng = np.random.default_rng([seed, 2])
    params = init_deep_params(init_rng, vocab_size, cfg, strategy,
                              train_ds.x_cat.shape[1], train_ds.x_cont.shape[1])
    adam = nn.AdamState(lr=cfg.lr)
    log = []
    best_params = None
    best_mean = -np.inf
    n = len(train_ds)
    for epoch in range(cfg.epochs):
        perm = order_rng.permutation(n)
        losses = []
        for b_idx, start in enumerate(range(0, n, cfg.batch_size)):
            take = perm[start : start + cfg.batch_size]
            probs, _, _, cache = forward_batch(
                params, cfg, train_ds.message_ids[take], train_ds.file_ids[take],
                train_ds.x_cat[take], train_ds.x_cont[take],
                strategy=strategy, training=True, rng=drop_rng)
            loss, d_logits = nn.cross_entropy_batch(probs, train_ds.labels[take], class_weights)
            if not np.isfinite(loss):
                raise TrainingError(f"non-finite loss at epoch {epoch} batch {b_idx}")
            grads = backward_batch(params, cache, d_logits)
            nn.adam_step(adam, params, grads)
            losses.append(loss)
        val_scores = score_dataset(params, cfg, val_ds, strategy)
        report = prf1(val_scores, val_ds.labels)
        entry = TrainLogEntry(epoch=epoch, train_loss=float(np.mean(losses)),
                              val_auc_roc=report.auc_roc, val_auc_pr=report.auc_pr,
                              val_f1=report.f1)
        log.append(entry)
        if entry.metric_mean > best_mean:
            best_mean = entry.metric_mean
            best_params = copy.deepcopy(params)
    return best_params, log


TRAIN_LOG_HEADER = "epoch,train_loss,val_auc_roc,val_auc_pr,val_f1,metric_mean"


def write_train_log(path, log) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(TRAIN_LOG_HEADER + "\n")
        for e in log:
            handle.write(
                f"{e.epoch},{e.train_loss!r},{e.val_auc_roc!r},{e.val_auc_pr!r},"
                f"{e.val_f1!r},{e.metric_mean!r}\n"
            )
