"""Expert-knowledge models over the 14 hand-crafted features.

The main model is a random forest grown with the classic defaults of the
reference ecosystem implementation: 100 trees, bootstrap samples of the
training-set size, Gini impurity, sqrt(p) features considered per split, no
depth limit, one sample per leaf minimum, and probabilities averaged over
per-tree leaf class frequencies.

Two logistic-regression configurations reproduce the classic baselines: one
over all 14 features and one over the added-lines count alone.
"""

from __future__ import annotations

import json
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .features import FEATURE_NAMES

# node tuple layout: (feature, threshold, left, right, p_clean, p_defective);
# leaves use feature = -1 and children = -1, decisions go left when
# value <= threshold.
_LEAF = -1

# Rows walked together. It bounds the (rows, trees) work arrays: a whole
# stream at once costs tens of MiB and walks slower out of cache.
_PREDICT_BLOCK = 256


@dataclass(frozen=True)
class ForestConfig:
    n_trees: int = 100
    max_depth: int | None = None
    min_samples_leaf: int = 1
    max_features: str = "sqrt"


@dataclass(frozen=True)
class ForestModel:
    """The trees as node tuples, plus a flat array form derived once.

    The array form numbers the nodes of all trees consecutively. `_feature`,
    `_threshold` and `_p_defective` are per node; `_child[2 * node +
    go_left]` is the next node, and a leaf's children are itself. `_roots`
    are the trees' first nodes and `_depth` the longest root-to-leaf path.
    """

    trees: tuple
    n_features: int
    seed: int

    def __post_init__(self):
        nodes = np.array([node for tree in self.trees for node in tree],
                         dtype=np.float64).reshape(-1, 6)
        sizes = np.array([len(tree) for tree in self.trees], dtype=np.int64)
        roots = np.cumsum(sizes) - sizes
        offset = np.repeat(roots, sizes)
        leaf = nodes[:, 0] == _LEAF
        ids = np.arange(len(nodes))
        child = np.empty(2 * len(nodes), dtype=np.int64)
        child[0::2] = np.where(leaf, ids, nodes[:, 3].astype(np.int64) + offset)
        child[1::2] = np.where(leaf, ids, nodes[:, 2].astype(np.int64) + offset)
        depth = 0
        frontier = roots[~leaf[roots]]
        while frontier.size:
            depth += 1
            frontier = np.concatenate([child[2 * frontier], child[2 * frontier + 1]])
            frontier = frontier[~leaf[frontier]]
        # contiguous copies: take() on a strided column copies it every call
        for name, value in (("_feature", np.where(leaf, 0, nodes[:, 0]).astype(np.int64)),
                            ("_threshold", nodes[:, 1].copy()),
                            ("_p_defective", nodes[:, 5].copy()),
                            ("_child", child), ("_roots", roots), ("_depth", depth)):
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class LinearModel:
    weights: np.ndarray  # (p,), zero outside the mask
    intercept: float
    mask: tuple  # feature indices the model may read
    converged: bool = True
    final_grad_norm: float = 0.0


def _gini_split(values, labels, min_leaf):
    """Best (cost, threshold) for one feature, or None when unsplittable."""
    order = np.argsort(values, kind="mergesort")
    sv = values[order]
    sy = labels[order]
    n = len(sv)
    boundaries = sv[1:] != sv[:-1]
    if not boundaries.any():
        return None
    cum_pos = np.cumsum(sy)
    total_pos = cum_pos[-1]
    left_n = np.arange(1, n, dtype=np.float64)
    left_pos = cum_pos[:-1].astype(np.float64)
    right_n = n - left_n
    right_pos = total_pos - left_pos
    gini_left = 1.0 - (left_pos / left_n) ** 2 - ((left_n - left_pos) / left_n) ** 2
    gini_right = 1.0 - (right_pos / right_n) ** 2 - ((right_n - right_pos) / right_n) ** 2
    cost = (left_n * gini_left + right_n * gini_right) / n
    valid = boundaries & (left_n >= min_leaf) & (right_n >= min_leaf)
    if not valid.any():
        return None
    cost = np.where(valid, cost, np.inf)
    i = int(np.argmin(cost))
    thr = 0.5 * (sv[i] + sv[i + 1])
    if thr >= sv[i + 1]:  # midpoint rounded up between adjacent floats
        thr = sv[i]
    return float(cost[i]), float(thr)


def _grow_tree(x, y, rng, config: ForestConfig):
    n_features = x.shape[1]
    if config.max_features == "sqrt":
        n_consider = max(1, int(np.sqrt(n_features)))
    else:
        n_consider = n_features
    nodes = []

    def grow(idx, depth):
        node_id = len(nodes)
        nodes.append(None)
        ys = y[idx]
        n = len(idx)
        n_pos = int(ys.sum())
        p1 = n_pos / n
        done = (
            n_pos in (0, n)
            or (config.max_depth is not None and depth >= config.max_depth)
            or n < 2 * config.min_samples_leaf
        )
        best = None
        if not done:
            # scan a random feature order; stop once n_consider features are
            # examined AND a valid split exists (features without a valid
            # partition do not exhaust the budget, the cited default)
            examined = 0
            for f in rng.permutation(n_features):
                split = _gini_split(x[idx, f], ys, config.min_samples_leaf)
                examined += 1
                if split is not None and (best is None or split[0] < best[0]):
                    best = (split[0], int(f), split[1])
                if examined >= n_consider and best is not None:
                    break
        if best is None:
            nodes[node_id] = (_LEAF, 0.0, -1, -1, 1.0 - p1, p1)
            return node_id
        _, feat, thr = best
        go_left = x[idx, feat] <= thr
        if go_left.all() or not go_left.any():
            nodes[node_id] = (_LEAF, 0.0, -1, -1, 1.0 - p1, p1)
            return node_id
        left = grow(idx[go_left], depth + 1)
        right = grow(idx[~go_left], depth + 1)
        nodes[node_id] = (feat, thr, left, right, 1.0 - p1, p1)
        return node_id

    grow(np.arange(len(y)), 0)
    return tuple(nodes)


def train_forest(x, y, config: ForestConfig = ForestConfig(), seed: int = 0,
                 threads: int = 1) -> ForestModel:
    """Fit the ensemble; tree t uses its own rng seeded seed + t for both
    the bootstrap draw and the per-node feature subsets."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    classes, counts = np.unique(y, return_counts=True)
    if len(classes) < 2:
        raise ValueError("single-class training labels: cannot fit a classifier")
    if counts.min() < 2:
        raise ValueError("need at least 2 rows per class")
    if not np.all(np.isfinite(x)):
        raise ValueError("features must be finite")
    n = len(y)

    def fit_one(t):
        rng = np.random.default_rng(seed + t)
        idx = rng.integers(0, n, size=n)
        return _grow_tree(x[idx], y[idx], rng, config)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            trees = tuple(pool.map(fit_one, range(config.n_trees)))
    else:
        trees = tuple(fit_one(t) for t in range(config.n_trees))
    return ForestModel(trees=trees, n_features=x.shape[1], seed=seed)


def forest_predict(model: ForestModel, x) -> float:
    """Defect probability: mean of per-tree leaf frequencies."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (model.n_features,):
        raise ValueError(f"expected {model.n_features} features, got shape {x.shape}")
    return float(forest_predict_many(model, x[None, :])[0])


def forest_predict_many(model: ForestModel, rows) -> np.ndarray:
    """Defect probability per row, all trees walked one level at a time.

    Each block of rows holds one current node per (row, tree); every step
    moves all of them one level down, and leaves stay where they are.
    """
    rows = np.asarray(rows, dtype=np.float64)
    if len(rows) == 0:
        return np.empty(0)
    if rows.ndim != 2 or rows.shape[1] != model.n_features:
        raise ValueError(f"expected rows of {model.n_features} features, got shape {rows.shape}")
    out = np.empty(len(rows))
    for start in range(0, len(rows), _PREDICT_BLOCK):
        block = rows[start:start + _PREDICT_BLOCK]
        flat = block.ravel()
        row_base = np.arange(0, flat.size, model.n_features)[:, None]
        node = np.broadcast_to(model._roots, (len(block), len(model._roots)))
        for _ in range(model._depth):
            value = flat.take(row_base + model._feature.take(node))
            node = model._child.take(2 * node + (value <= model._threshold.take(node)))
        out[start:start + len(block)] = model._p_defective.take(node).mean(axis=1)
    return out


FOREST_FORMAT = "jitdp-forest v1"


def save_forest(path, model: ForestModel) -> None:
    obj = {
        "format": FOREST_FORMAT,
        "n_features": model.n_features,
        "seed": model.seed,
        "trees": [[list(node) for node in tree] for tree in model.trees],
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(obj, handle)


def load_forest(path) -> ForestModel:
    with open(path, encoding="utf-8") as handle:
        obj = json.load(handle)
    if obj.get("format") != FOREST_FORMAT:
        raise ValueError(f"unsupported forest format: {obj.get('format')!r}")
    trees = tuple(
        tuple((int(n[0]), float(n[1]), int(n[2]), int(n[3]), float(n[4]), float(n[5])) for n in tree)
        for tree in obj["trees"]
    )
    return ForestModel(trees=trees, n_features=int(obj["n_features"]), seed=int(obj["seed"]))


# ---------------------------------------------------------------------------
# Logistic regression baselines. Feature masks select which of the 14
# metrics the model may read; everything else is excluded from training and
# ignored at prediction time.
# ---------------------------------------------------------------------------

ALL_FEATURES_MASK = tuple(range(len(FEATURE_NAMES)))
ADDED_LINES_MASK = (FEATURE_NAMES.index("la"),)


def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def train_logistic(x, y, mask=None, l2: float = 1.0, tol: float = 1e-6,
                   max_iter: int = 10_000) -> LinearModel:
    """L2-penalized logistic regression by accelerated gradient ascent.

    Features are standardized internally for conditioning and the solution
    is folded back to raw space, so predictions are logistic(w.x + b) on the
    raw features. The penalty applies to the weights, not the intercept.
    Plain (unaccelerated) ascent cannot reach the stated tolerance within
    the iteration cap on realistic conditioning, so Nesterov momentum with
    function-value restarts is used; it is still a pure gradient method.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if len(np.unique(y)) < 2:
        raise ValueError("single-class training labels: cannot fit a classifier")
    if mask is None:
        mask = tuple(range(x.shape[1]))
    mask = tuple(int(i) for i in mask)
    sub = x[:, mask]
    mu = sub.mean(axis=0)
    sigma = sub.std(axis=0)
    sigma = np.where(sigma > 0, sigma, 1.0)
    xs = (sub - mu) / sigma
    n, p = xs.shape

    def grad(w, b):
        margin = xs @ w + b
        resid = y - _sigmoid(margin)
        return xs.T @ resid - l2 * w, float(resid.sum())

    # 1/L step from the logistic Hessian bound (1/4) over [X 1].
    design = np.concatenate([xs, np.ones((n, 1))], axis=1)
    lam_max = float(np.linalg.eigvalsh(design.T @ design).max())
    step = 1.0 / (0.25 * lam_max + l2)

    w = np.zeros(p)
    b = 0.0
    w_prev, b_prev = w.copy(), b
    counter = 1
    grad_norm = np.inf
    for _ in range(max_iter):
        beta = (counter - 1.0) / (counter + 2.0)
        look_w = w + beta * (w - w_prev)
        look_b = b + beta * (b - b_prev)
        gw, gb = grad(look_w, look_b)
        grad_norm = float(np.sqrt(gw @ gw + gb * gb))
        if grad_norm <= tol:
            w, b = look_w, look_b
            break
        next_w = look_w + step * gw
        next_b = look_b + step * gb
        # restart momentum when the accelerated step opposes the gradient
        if gw @ (next_w - w) + gb * (next_b - b) < 0:
            counter = 1
        else:
            counter += 1
        w_prev, b_prev = w, b
        w, b = next_w, next_b
    converged = grad_norm <= tol
    if not converged:
        warnings.warn(f"logistic training stopped at gradient norm {grad_norm:.3e}")

    weights = np.zeros(x.shape[1])
    weights[list(mask)] = w / sigma
    intercept = b - float((w * mu / sigma).sum())
    return LinearModel(weights=weights, intercept=intercept, mask=mask,
                       converged=converged, final_grad_norm=grad_norm)


def logistic_predict(model: LinearModel, rows) -> np.ndarray:
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim == 1:
        rows = rows[None, :]
    z = rows @ model.weights + model.intercept
    return _sigmoid(z)
