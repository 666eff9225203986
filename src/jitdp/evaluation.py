"""Ranking metrics, thresholded classification metrics, and the statistical
machinery used by the evaluation suite: Wilcoxon signed-rank, Cliff's delta,
group-sampled metric distributions, prediction-overlap and correction
analyses.

All functions are pure; scores are defect probabilities in [0, 1] and labels
are 0/1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np


@dataclass(frozen=True)
class MetricReport:
    auc_roc: float
    auc_pr: float
    precision: float
    recall: float
    f1: float
    tp: int
    fp: int
    tn: int
    fn: int
    threshold: float = 0.5


@dataclass(frozen=True)
class OverlapReport:
    common_tp: int
    unique_tp_a: int
    unique_tp_b: int
    common_fp: int
    unique_fp_a: int
    unique_fp_b: int
    unique_tp_ratio_a: float
    unique_tp_ratio_b: float
    unique_fp_ratio_a: float
    unique_fp_ratio_b: float


@dataclass(frozen=True)
class CorrectionReport:
    different: int
    wrong_to_correct: int
    correct_to_wrong: int
    net_correction: int
    net_correction_ratio: float


def _tie_groups(sorted_vals: np.ndarray):
    """(starts, ends) of the runs of equal values, ends inclusive."""
    ends = np.flatnonzero(sorted_vals[1:] != sorted_vals[:-1])
    return np.concatenate([[0], ends + 1]), np.append(ends, len(sorted_vals) - 1)


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """Ranks starting at 1, ties receiving the mean of their rank range."""
    order = np.argsort(values, kind="mergesort")
    ranks = np.empty(len(values), dtype=np.float64)
    if len(values):
        starts, ends = _tie_groups(values[order])
        ranks[order] = np.repeat(0.5 * (starts + ends) + 1.0, ends - starts + 1)
    return ranks


def roc_auc(scores, labels) -> float:
    """Probability a random positive outranks a random negative, ties 0.5.

    Computed from the rank statistic, identical to the area under the ROC
    curve obtained by trapezoidal integration.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("roc_auc needs both classes present")
    ranks = _average_ranks(scores)
    pos_rank_sum = float(ranks[labels == 1].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def pr_auc(scores, labels) -> float:
    """Average precision: sum over recall steps of (R_i - R_{i-1}) * P_i.

    Scores are processed in descending order with tied scores grouped, so
    the value does not depend on the ordering within a tie group.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n_pos = int(labels.sum())
    if n_pos == 0:
        raise ValueError("pr_auc needs at least one positive")
    order = np.argsort(-scores, kind="mergesort")
    _, ends = _tie_groups(scores[order])
    tp = np.cumsum(labels[order])[ends]
    recall = tp / n_pos
    precision = tp / (ends + 1)
    steps = (recall - np.concatenate([[0.0], recall[:-1]])) * precision
    return float(np.cumsum(steps)[-1])  # sequential sum, in score order


def prf1(scores, labels, threshold: float = 0.5) -> MetricReport:
    """Precision/recall/F1 at the given threshold (defective iff score > t).

    Zero-denominator conventions: precision = 0 with no predicted positives,
    recall = 0 with no actual positives, f1 = 0 when precision + recall = 0.
    The report's AUC fields are filled when both classes are present.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    pred = scores > threshold
    tp = int(np.sum(pred & (labels == 1)))
    fp = int(np.sum(pred & (labels == 0)))
    tn = int(np.sum(~pred & (labels == 0)))
    fn = int(np.sum(~pred & (labels == 1)))
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    has_both = 0 < labels.sum() < len(labels)
    return MetricReport(
        auc_roc=roc_auc(scores, labels) if has_both else float("nan"),
        auc_pr=pr_auc(scores, labels) if labels.sum() > 0 else float("nan"),
        precision=precision,
        recall=recall,
        f1=f1,
        tp=tp,
        fp=fp,
        tn=tn,
        fn=fn,
        threshold=threshold,
    )


def _normal_sf(z: float) -> float:
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def wilcoxon_signed_rank(a, b) -> tuple[float, float]:
    """Paired two-sided Wilcoxon signed-rank test.

    Returns (W+, p) where W+ is the sum of ranks of positive differences.
    Zero differences are dropped; tied absolute differences get average
    ranks. Exact enumeration over sign assignments below n = 20, normal
    approximation with tie correction from n = 20 up.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError("paired samples must have equal length")
    diffs = a - b
    diffs = diffs[diffs != 0.0]
    n = len(diffs)
    if n == 0:
        raise ValueError("all paired differences are zero")
    if n < 6:
        raise ValueError(f"need at least 6 non-zero differences, got {n}")
    ranks = _average_ranks(np.abs(diffs))
    w_plus = float(ranks[diffs > 0].sum())
    total = float(ranks.sum())  # n(n+1)/2
    if n < 20:
        # Enumerate all sign assignments; the W+ distribution is symmetric
        # about total/2 because flipping every sign maps W+ to total - W+.
        devs = np.abs(_enumerate_w_plus(ranks) - total / 2.0)
        obs = abs(w_plus - total / 2.0)
        p = float(np.mean(devs >= obs - 1e-12))
    else:
        mean = n * (n + 1) / 4.0
        tie_sizes = np.unique(ranks, return_counts=True)[1]
        tie_term = float(np.sum(tie_sizes**3 - tie_sizes)) / 48.0
        var = n * (n + 1) * (2 * n + 1) / 24.0 - tie_term
        z = (w_plus - mean) / math.sqrt(var)
        p = min(1.0, 2.0 * _normal_sf(abs(z)))
    return w_plus, p


def _enumerate_w_plus(ranks: np.ndarray) -> np.ndarray:
    """All 2^n values of W+ over equally likely sign assignments."""
    values = np.zeros(1, dtype=np.float64)
    for r in ranks:
        values = np.concatenate([values, values + r])
    return values


_CLIFF_THRESHOLDS = ((0.147, "Negligible"), (0.33, "Small"), (0.474, "Medium"))


def cliffs_delta(a, b) -> tuple[float, str]:
    """Cliff's delta effect size and its magnitude label.

    delta = (#{a_i > b_j} - #{a_i < b_j}) / (|a| * |b|). Magnitude bands use
    left-closed boundaries: |d| < 0.147 Negligible, 0.147 <= |d| < 0.33
    Small, 0.33 <= |d| < 0.474 Medium, |d| >= 0.474 Large.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if len(a) == 0 or len(b) == 0:
        raise ValueError("cliffs_delta needs non-empty samples")
    greater = np.sum(a[:, None] > b[None, :])
    less = np.sum(a[:, None] < b[None, :])
    delta = float(greater - less) / (len(a) * len(b))
    mag = "Large"
    for bound, name in _CLIFF_THRESHOLDS:
        if abs(delta) < bound:
            mag = name
            break
    return delta, mag


def group_metric_samples(scores, labels, k: int = 10, seed: int = 0):
    """AUC-ROC and AUC-PR per random near-equal group of the test set.

    The partition is resampled (up to 100 times) until every group holds
    both classes. Returns (roc_list, pr_list, groups) where groups is the
    list of index arrays.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n = len(scores)
    if n < 2 * k:
        raise ValueError(f"{n} samples cannot fill {k} groups with both classes")
    rng = np.random.default_rng(seed)
    for _ in range(100):
        perm = rng.permutation(n)
        groups = [perm[g::k] for g in range(k)]
        if all(0 < labels[g].sum() < len(g) for g in groups):
            rocs = [roc_auc(scores[g], labels[g]) for g in groups]
            prs = [pr_auc(scores[g], labels[g]) for g in groups]
            return rocs, prs, groups
    raise ValueError(f"no valid {k}-group partition found in 100 tries")


def overlap_analysis(classes_a, classes_b, labels) -> OverlapReport:
    """Intersect and difference the true-positive and false-positive sets of
    two models' predicted classes. Unique ratios are relative to each
    model's own totals."""
    classes_a = np.asarray(classes_a, dtype=np.int64)
    classes_b = np.asarray(classes_b, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if not (len(classes_a) == len(classes_b) == len(labels)):
        raise ValueError("prediction and label vectors must have equal length")
    tp_a = (classes_a == 1) & (labels == 1)
    tp_b = (classes_b == 1) & (labels == 1)
    fp_a = (classes_a == 1) & (labels == 0)
    fp_b = (classes_b == 1) & (labels == 0)

    def _ratio(unique, total):
        return unique / total if total > 0 else 0.0

    common_tp = int(np.sum(tp_a & tp_b))
    unique_tp_a = int(np.sum(tp_a & ~tp_b))
    unique_tp_b = int(np.sum(tp_b & ~tp_a))
    common_fp = int(np.sum(fp_a & fp_b))
    unique_fp_a = int(np.sum(fp_a & ~fp_b))
    unique_fp_b = int(np.sum(fp_b & ~fp_a))
    return OverlapReport(
        common_tp=common_tp,
        unique_tp_a=unique_tp_a,
        unique_tp_b=unique_tp_b,
        common_fp=common_fp,
        unique_fp_a=unique_fp_a,
        unique_fp_b=unique_fp_b,
        unique_tp_ratio_a=_ratio(unique_tp_a, common_tp + unique_tp_a),
        unique_tp_ratio_b=_ratio(unique_tp_b, common_tp + unique_tp_b),
        unique_fp_ratio_a=_ratio(unique_fp_a, common_fp + unique_fp_a),
        unique_fp_ratio_b=_ratio(unique_fp_b, common_fp + unique_fp_b),
    )


def correction_analysis(classes_fused, classes_component, labels) -> CorrectionReport:
    """Count disagreements between a fused model and one component, and how
    many of them the fused model gets right (wrong -> correct) or spoils
    (correct -> wrong). Ratio is net / different, 0 when nothing differs."""
    fused = np.asarray(classes_fused, dtype=np.int64)
    comp = np.asarray(classes_component, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if not (len(fused) == len(comp) == len(labels)):
        raise ValueError("prediction and label vectors must have equal length")
    differ = fused != comp
    wrong_to_correct = int(np.sum(differ & (fused == labels)))
    correct_to_wrong = int(np.sum(differ & (comp == labels)))
    different = int(np.sum(differ))
    net = wrong_to_correct - correct_to_wrong
    ratio = net / different if different > 0 else 0.0
    return CorrectionReport(
        different=different,
        wrong_to_correct=wrong_to_correct,
        correct_to_wrong=correct_to_wrong,
        net_correction=net,
        net_correction_ratio=ratio,
    )
