"""Model fusion.

Early fusion combines the deep feature vector x = Z_m (+) Z_c with the
categorical (t) and continuous (n) hand-crafted features into one vector C
before the classifier:

  sc   C = x (+) t (+) n
  tc   C = x (+) W_cat t (+) W_cont n
  amf  all three modalities projected to a common dimension d_f; C is their
       attention-weighted average, coefficients from exponential-normalized
       LeakyReLU scores against an attention vector of dimension 2 d_f
  gmf  ReLU gates computed from bimodal pairs modulate the projected
       hand-crafted features; the gated vector h is rescaled by
       alpha = min(beta |x| / |h|, 1) and added back onto x

Late fusion combines per-model defect probabilities: simple average,
weighted average (weights from a simplex grid searched on validation), or
geometric mean. The sweep evaluates all 5 early x 4 late combinations on
validation AUC-PR and returns the argmax.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .corpus import write_csv
from .evaluation import pr_auc, prf1
from .nn import Params, glorot_uniform

EARLY_STRATEGIES = ("sc", "tc", "amf", "gmf", "none")
LATE_RULES = ("simple", "weighted", "geometric", "none")
_LEAKY_SLOPE = 0.01


def early_fused_dim(strategy: str, dim: int, dm: int, k: int) -> int:
    """Classifier input dimension after fusing (dim = deep feature size,
    dm/k = categorical/continuous feature counts)."""
    if strategy in ("sc", "tc"):
        return dim + dm + k
    if strategy in ("amf", "gmf"):
        return dim
    if strategy == "none":
        return dim
    raise ValueError(f"unknown early-fusion strategy '{strategy}'")


def early_fusion_init(rng, strategy: str, dim: int, dm: int, k: int) -> Params:
    """Learnable fusion parameters, empty for 'sc' and 'none'. The common
    fusion dimension d_f for amf/gmf is dim (the deep feature size), the
    repair that makes the weighted average well-typed."""
    if strategy in ("sc", "none"):
        return {}
    if strategy == "tc":
        return {
            "fuse.w_cat": glorot_uniform(rng, (dm, dm)),
            "fuse.w_cont": glorot_uniform(rng, (k, k)),
        }
    if strategy == "amf":
        return {
            "fuse.w_x": glorot_uniform(rng, (dim, dim)),
            "fuse.w_t": glorot_uniform(rng, (dim, dm)),
            "fuse.w_n": glorot_uniform(rng, (dim, k)),
            "fuse.attn": glorot_uniform(rng, (2 * dim,)),
        }
    if strategy == "gmf":
        return {
            "fuse.w_gt": glorot_uniform(rng, (dim, dm + dim)),
            "fuse.w_gn": glorot_uniform(rng, (dim, k + dim)),
            "fuse.b_t": np.zeros(dim),
            "fuse.b_n": np.zeros(dim),
            "fuse.w_t": glorot_uniform(rng, (dim, dm)),
            "fuse.w_n": glorot_uniform(rng, (dim, k)),
            "fuse.b_h": np.zeros(dim),
        }
    raise ValueError(f"unknown early-fusion strategy '{strategy}'")


def _leaky(x):
    return np.where(x > 0, x, _LEAKY_SLOPE * x)


def _leaky_grad(x):
    return np.where(x > 0, 1.0, _LEAKY_SLOPE)


def early_fuse_forward(params: Params, strategy: str, x, t, n, gmf_beta: float = 1.0):
    """Batched fusion: x (B, dim), t (B, dm), n (B, k) -> (C, cache)."""
    if strategy == "none":
        return x, {"strategy": strategy}
    if strategy == "sc":
        return np.concatenate([x, t, n], axis=1), {"strategy": strategy, "dims": (x.shape[1], t.shape[1], n.shape[1])}
    if strategy == "tc":
        ct = t @ params["fuse.w_cat"].T
        cn = n @ params["fuse.w_cont"].T
        cache = {"strategy": strategy, "t": t, "n": n, "dims": (x.shape[1], t.shape[1], n.shape[1])}
        return np.concatenate([x, ct, cn], axis=1), cache
    if strategy == "amf":
        proj = {
            "x": x @ params["fuse.w_x"].T,
            "t": t @ params["fuse.w_t"].T,
            "n": n @ params["fuse.w_n"].T,
        }
        d_f = proj["x"].shape[1]
        a1 = params["fuse.attn"][:d_f]
        a2 = params["fuse.attn"][d_f:]
        scores = {j: proj["x"] @ a1 + proj[j] @ a2 for j in ("x", "t", "n")}
        e = np.stack([_leaky(scores[j]) for j in ("x", "t", "n")], axis=1)  # (B, 3)
        e = e - e.max(axis=1, keepdims=True)
        alpha = np.exp(e)
        alpha /= alpha.sum(axis=1, keepdims=True)
        c = sum(alpha[:, i : i + 1] * proj[j] for i, j in enumerate(("x", "t", "n")))
        cache = {"strategy": strategy, "x": x, "t": t, "n": n, "proj": proj,
                 "scores": scores, "alpha": alpha}
        return c, cache
    if strategy == "gmf":
        u_t = np.concatenate([t, x], axis=1)
        u_n = np.concatenate([n, x], axis=1)
        pre_t = u_t @ params["fuse.w_gt"].T + params["fuse.b_t"]
        pre_n = u_n @ params["fuse.w_gn"].T + params["fuse.b_n"]
        g_t = np.maximum(pre_t, 0.0)
        g_n = np.maximum(pre_n, 0.0)
        v_t = t @ params["fuse.w_t"].T
        v_n = n @ params["fuse.w_n"].T
        h = g_t * v_t + g_n * v_n + params["fuse.b_h"]
        norm_x = np.linalg.norm(x, axis=1)
        norm_h = np.linalg.norm(h, axis=1)
        ratio = np.where(norm_h > 0, gmf_beta * norm_x / np.where(norm_h > 0, norm_h, 1.0), np.inf)
        alpha = np.minimum(ratio, 1.0)  # |h| = 0 rows fall out to alpha = 1
        c = x + alpha[:, None] * h
        cache = {"strategy": strategy, "x": x, "t": t, "n": n, "u_t": u_t, "u_n": u_n,
                 "pre_t": pre_t, "pre_n": pre_n, "g_t": g_t, "g_n": g_n,
                 "v_t": v_t, "v_n": v_n, "h": h, "norm_x": norm_x, "norm_h": norm_h,
                 "ratio": ratio, "alpha": alpha, "beta": gmf_beta}
        return c, cache
    raise ValueError(f"unknown early-fusion strategy '{strategy}'")


def early_fuse_backward(params: Params, cache, d_c):
    """Returns (d_x, d_t, d_n, grads)."""
    strategy = cache["strategy"]
    if strategy == "none":
        return d_c, None, None, {}
    if strategy in ("sc", "tc"):
        dim, dm, k = cache["dims"]
        d_x = d_c[:, :dim]
        d_ct = d_c[:, dim : dim + dm]
        d_cn = d_c[:, dim + dm :]
        if strategy == "sc":
            return d_x, d_ct, d_cn, {}
        grads = {
            "fuse.w_cat": d_ct.T @ cache["t"],
            "fuse.w_cont": d_cn.T @ cache["n"],
        }
        return d_x, d_ct @ params["fuse.w_cat"], d_cn @ params["fuse.w_cont"], grads
    if strategy == "amf":
        proj, alpha, scores = cache["proj"], cache["alpha"], cache["scores"]
        order = ("x", "t", "n")
        d_f = proj["x"].shape[1]
        a1 = params["fuse.attn"][:d_f]
        a2 = params["fuse.attn"][d_f:]
        d_proj = {j: alpha[:, i : i + 1] * d_c for i, j in enumerate(order)}
        d_alpha = np.stack([(d_c * proj[j]).sum(axis=1) for j in order], axis=1)
        inner = (alpha * d_alpha).sum(axis=1, keepdims=True)
        d_e = alpha * (d_alpha - inner)  # softmax backward, (B, 3)
        d_a1 = np.zeros_like(a1)
        d_a2 = np.zeros_like(a2)
        for i, j in enumerate(order):
            d_s = d_e[:, i] * _leaky_grad(scores[j])  # (B,)
            d_proj["x"] = d_proj["x"] + d_s[:, None] * a1
            d_proj[j] = d_proj[j] + d_s[:, None] * a2
            d_a1 += (d_s[:, None] * proj["x"]).sum(axis=0)
            d_a2 += (d_s[:, None] * proj[j]).sum(axis=0)
        grads = {
            "fuse.attn": np.concatenate([d_a1, d_a2]),
            "fuse.w_x": d_proj["x"].T @ cache["x"],
            "fuse.w_t": d_proj["t"].T @ cache["t"],
            "fuse.w_n": d_proj["n"].T @ cache["n"],
        }
        d_x = d_proj["x"] @ params["fuse.w_x"]
        d_t = d_proj["t"] @ params["fuse.w_t"]
        d_n = d_proj["n"] @ params["fuse.w_n"]
        return d_x, d_t, d_n, grads
    if strategy == "gmf":
        x, h = cache["x"], cache["h"]
        alpha, ratio = cache["alpha"], cache["ratio"]
        norm_x, norm_h = cache["norm_x"], cache["norm_h"]
        beta = cache["beta"]
        d_x = d_c.copy()
        d_h = alpha[:, None] * d_c
        # alpha depends on x and h where the rescale is active (ratio < 1)
        d_alpha = (d_c * h).sum(axis=1)
        live = (ratio < 1.0) & (norm_h > 0) & (norm_x > 0)
        if live.any():
            coef_x = np.where(live, d_alpha * beta / np.where(norm_h > 0, norm_h, 1.0)
                              / np.where(norm_x > 0, norm_x, 1.0), 0.0)
            coef_h = np.where(live, -d_alpha * beta * norm_x
                              / np.where(norm_h > 0, norm_h, 1.0) ** 3, 0.0)
            d_x += coef_x[:, None] * x
            d_h += coef_h[:, None] * h
        d_gt = d_h * cache["v_t"]
        d_vt = d_h * cache["g_t"]
        d_gn = d_h * cache["v_n"]
        d_vn = d_h * cache["g_n"]
        d_pre_t = d_gt * (cache["pre_t"] > 0)
        d_pre_n = d_gn * (cache["pre_n"] > 0)
        grads = {
            "fuse.b_h": d_h.sum(axis=0),
            "fuse.w_gt": d_pre_t.T @ cache["u_t"],
            "fuse.b_t": d_pre_t.sum(axis=0),
            "fuse.w_gn": d_pre_n.T @ cache["u_n"],
            "fuse.b_n": d_pre_n.sum(axis=0),
            "fuse.w_t": d_vt.T @ cache["t"],
            "fuse.w_n": d_vn.T @ cache["n"],
        }
        dm = cache["t"].shape[1]
        k = cache["n"].shape[1]
        d_ut = d_pre_t @ params["fuse.w_gt"]
        d_un = d_pre_n @ params["fuse.w_gn"]
        d_t = d_ut[:, :dm] + d_vt @ params["fuse.w_t"]
        d_n = d_un[:, :k] + d_vn @ params["fuse.w_n"]
        d_x += d_ut[:, dm:] + d_un[:, k:]
        return d_x, d_t, d_n, grads
    raise ValueError(f"unknown early-fusion strategy '{strategy}'")


# ---------------------------------------------------------------------------
# Late fusion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LateFusionRule:
    rule: str  # one of LATE_RULES
    weights: tuple | None = None


def late_fuse(rule: LateFusionRule, scores) -> float:
    """Fuse one commit's per-model defect probabilities."""
    return float(late_fuse_many(rule, np.asarray(scores, dtype=np.float64).reshape(-1, 1))[0])


def late_fuse_many(rule: LateFusionRule, score_matrix) -> np.ndarray:
    """score_matrix (n_models, n_commits) -> fused (n_commits,); each rule
    reduces over the model axis, in model order."""
    m = np.asarray(score_matrix, dtype=np.float64)
    if m.shape[0] == 0:
        raise ValueError("late fusion needs at least one model score")
    if rule.rule in ("simple", "none"):
        if rule.rule == "none" and m.shape[0] != 1:
            raise ValueError("late rule 'none' expects a single model score")
        return m.mean(axis=0)
    if rule.rule == "weighted":
        w = np.asarray(rule.weights, dtype=np.float64)
        if w.shape != m.shape[:1]:
            raise ValueError("weight count must match model count")
        if np.any(w <= 0):
            raise ValueError("weights must be positive")
        return (m * w[:, None]).sum(axis=0) / w.sum()
    if rule.rule == "geometric":
        return np.exp(np.mean(np.log(np.clip(m, 1e-12, 1.0)), axis=0))
    raise ValueError(f"unknown late-fusion rule '{rule.rule}'")


def _weight_grid(n_models: int):
    """Positive integer compositions of 10, scaled to the simplex."""
    grid = []
    for combo in product(range(1, 11), repeat=n_models - 1):
        last = 10 - sum(combo)
        if last >= 1:
            grid.append(tuple(c / 10 for c in combo) + (last / 10,))
    return grid


# ---------------------------------------------------------------------------
# The 5 x 4 combination sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepCell:
    early: str
    late: str
    weights: tuple | None
    auc_roc: float
    auc_pr: float
    f1: float


@dataclass(frozen=True)
class SweepResult:
    best: SweepCell
    cells: tuple


def _cell_scores(early: str, late: str, sim, com, early_scores, weights=None):
    if late == "none":
        single = early_scores[early] if early != "none" else com
        return np.asarray(single, dtype=np.float64)
    components = [sim, com]
    if early != "none":
        components.append(early_scores[early])
    return late_fuse_many(LateFusionRule(late, weights), np.stack(components))


def sweep_combinations(labels, sim_scores, com_scores, early_scores: dict) -> SweepResult:
    """Evaluate all 20 early x late combinations on validation AUC-PR.

    early_scores maps each trained early strategy ('sc', 'tc', 'amf',
    'gmf') to its validation score vector. Weighted-average weights are
    searched on a simplex grid of step 0.1 against the same target. Ties
    break by enumeration order (the order of EARLY_STRATEGIES x LATE_RULES,
    and grid order for weights).
    """
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size == 0:
        raise ValueError("validation split is empty")
    cells = []
    available = [s for s in EARLY_STRATEGIES if s == "none" or s in early_scores]
    for early in available:
        for late in LATE_RULES:
            weights = None
            if late == "weighted":
                n_models = 2 + (early != "none")
                best_w, best_pr = None, -1.0
                for w in _weight_grid(n_models):
                    fused = _cell_scores(early, late, sim_scores, com_scores, early_scores, w)
                    cand = pr_auc(fused, labels)
                    if cand > best_pr:
                        best_w, best_pr = w, cand
                weights = best_w
            fused = _cell_scores(early, late, sim_scores, com_scores, early_scores, weights)
            report = prf1(fused, labels)
            cells.append(SweepCell(early=early, late=late, weights=weights,
                                   auc_roc=report.auc_roc, auc_pr=report.auc_pr, f1=report.f1))
    best = max(cells, key=lambda c: c.auc_pr)  # max keeps the first argmax
    return SweepResult(best=best, cells=tuple(cells))


def apply_bundle_rule(early: str, late: str, weights, sim_scores, com_scores, early_model_scores):
    """Fused scores for the chosen combination; early_model_scores may be
    None when the combination uses no early-fused model."""
    table = {} if early_model_scores is None else {early: early_model_scores}
    return _cell_scores(early, late, sim_scores, com_scores, table, weights)


SWEEP_LOG_HEADER = "early,late,weights,auc_roc,auc_pr,f1"


def write_sweep_log(path, result: SweepResult) -> None:
    write_csv(path, SWEEP_LOG_HEADER, (
        (c.early, c.late, None if c.weights is None else "|".join(map(str, c.weights)),
         c.auc_roc, c.auc_pr, c.f1) for c in result.cells))
