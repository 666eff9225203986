"""Local surrogate explanation for the simple model's prediction on one
commit, in the style of the classic tabular perturbation explainers.

Features are discretized into quartile bins computed on training data. The
instance's binary "same bin" representation is perturbed by resampling bins
uniformly; reconstructed inputs are scored by the model; a distance-kernel
weighted ridge regression on (binary representation -> score) yields one
signed weight per feature. Positive weights push toward the defective
class. Fidelity is the weighted R^2 of the surrogate on the sample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .features import FEATURE_NAMES


@dataclass(frozen=True)
class FeatureExplanation:
    feature: str
    condition: str
    weight: float
    direction: str  # "defective" or "clean"


@dataclass(frozen=True)
class Explanation:
    entries: tuple  # one FeatureExplanation per feature, |weight| descending
    fidelity: float
    intercept: float

    def as_text(self) -> str:
        lines = [f"{'condition':<28} {'weight':>12} direction"]
        for e in self.entries:
            lines.append(f"{e.condition:<28} {e.weight:>12.6f} {e.direction}")
        lines.append(f"fidelity R^2 = {self.fidelity:.4f}")
        return "\n".join(lines)


def _quartile_bins(column: np.ndarray):
    """(boundaries, lo, hi): unique quartile cut points plus value range."""
    qs = np.percentile(column, [25, 50, 75])
    boundaries = np.unique(qs)
    return boundaries, float(column.min()), float(column.max())


def _bin_of(value: float, boundaries: np.ndarray) -> int:
    return int(np.searchsorted(boundaries, value, side="left"))


def _condition(name: str, idx: int, boundaries: np.ndarray) -> str:
    if idx == 0:
        return f"{name} <= {boundaries[0]:.2f}"
    if idx == len(boundaries):
        return f"{name} > {boundaries[-1]:.2f}"
    return f"{boundaries[idx - 1]:.2f} < {name} <= {boundaries[idx]:.2f}"


def explain_instance(predict_fn, x, train_features, n_samples: int = 1000,
                     seed: int = 0) -> Explanation:
    """Explain the score at x (a feature vector) against the training matrix
    the quartile bins come from. predict_fn maps an (n_samples, p) matrix of
    perturbed rows to their n_samples scores in one call. The kernel width
    is 0.75 sqrt(p) and the ridge penalty 1. Deterministic given seed."""
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    x = np.asarray(x, dtype=np.float64)
    train = np.asarray(train_features, dtype=np.float64)
    if train.ndim != 2 or train.shape[1] != len(x):
        raise ValueError("training matrix must be (n, p) matching the instance")
    if np.all(train.std(axis=0) == 0):
        raise ValueError("degenerate training statistics: every feature is constant")
    p = len(x)
    kernel_width = 0.75 * np.sqrt(p)
    rng = np.random.default_rng(seed)

    bins = [_quartile_bins(train[:, j]) for j in range(p)]
    inst_bins = np.array([_bin_of(x[j], bins[j][0]) for j in range(p)])
    n_bins = np.array([len(b[0]) + 1 for b in bins])

    # Row 0 is the instance itself; the rest resample bins uniformly and
    # draw a value inside the chosen bin. Bin b of feature j spans
    # edges[j, b] .. edges[j, b + 1]: the value range cut at the boundaries.
    edges = np.zeros((p, int(n_bins.max()) + 1))
    for j, (boundaries, lo, hi) in enumerate(bins):
        edges[j, : len(boundaries) + 2] = [lo, *boundaries, hi]
    sampled = rng.integers(0, n_bins[None, :], size=(n_samples, p))
    uniforms = rng.random((n_samples, p))
    cols = np.arange(p)
    left, right = edges[cols, sampled], edges[cols, sampled + 1]
    values = left + uniforms * (right - left)
    values[0] = x
    z = (sampled == inst_bins).astype(np.float64)
    z[0] = 1.0

    y = np.asarray(predict_fn(values), dtype=np.float64)
    if y.shape != (n_samples,):
        raise ValueError(f"predict_fn returned shape {y.shape} for {n_samples} rows")
    dist_sq = (1.0 - z).sum(axis=1)  # squared euclidean on binary rows
    kernel = np.exp(-dist_sq / kernel_width**2)

    # Weighted ridge with unpenalized intercept.
    design = np.concatenate([np.ones((n_samples, 1)), z], axis=1)
    wd = design * kernel[:, None]
    gram = design.T @ wd
    gram[1:, 1:] += np.eye(p)
    coef = np.linalg.solve(gram, wd.T @ y)
    intercept, weights = float(coef[0]), coef[1:]

    fitted = design @ coef
    y_mean = float((kernel * y).sum() / kernel.sum())
    ss_tot = float((kernel * (y - y_mean) ** 2).sum())
    ss_res = float((kernel * (y - fitted) ** 2).sum())
    # zero-variance targets (constant scorers) get fidelity 0 by convention;
    # the threshold is relative so float noise does not masquerade as signal
    if ss_tot <= 1e-12 * max(float((kernel * y**2).sum()), 1.0):
        fidelity = 0.0
    else:
        fidelity = 1.0 - ss_res / ss_tot

    entries = [
        FeatureExplanation(
            feature=FEATURE_NAMES[j],
            condition=_condition(FEATURE_NAMES[j], int(inst_bins[j]), bins[j][0]),
            weight=float(weights[j]),
            direction="defective" if weights[j] > 0 else "clean",
        )
        for j in range(p)
    ]
    entries.sort(key=lambda e: -abs(e.weight))
    return Explanation(entries=tuple(entries), fidelity=fidelity, intercept=intercept)
