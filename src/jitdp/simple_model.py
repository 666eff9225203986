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

import warnings
from dataclasses import dataclass

import numpy as np

from .features import FEATURE_NAMES
from .nn import load_params, save_params

# node table row layout: (feature, threshold, left, right, p_clean,
# p_defective), children numbered within the tree; leaves use feature = -1
# and children = -1, decisions go left when value <= threshold.
_LEAF = -1

# Rows walked together. It bounds the (rows, trees) work arrays: a whole
# stream at once costs tens of MiB and walks slower out of cache.
_PREDICT_BLOCK = 256

# Blocks of at most this many rows walk by node conditions: every node's
# split is evaluated once, then the next-node array is followed. On the
# acceptance forest (29,252 nodes, depth 23) one row walked 2-2.5x faster
# this way than level by level.
_NODE_WALK_ROWS = 1


@dataclass(frozen=True)
class ForestConfig:
    n_trees: int = 100


@dataclass(frozen=True, eq=False)
class ForestModel:
    """The trees as one float64 node table, laid end to end, and each
    tree's node count; the walk arrays are derived from them once.

    The walk numbers the nodes of all trees by split feature, so `_feature`
    ascends and holds `_counts[f]` nodes of feature f; a leaf counts as
    feature 0. `_feature`, `_threshold` and `_p_defective` are per node;
    `_child[2 * node + go_left]` is the next node, and a leaf's children are
    itself. The same next node is `_right + _turn * go_left` in int32, for
    the one-row walk. `_roots` are the trees' first nodes and `_depth` the
    longest root-to-leaf path.
    """

    nodes: np.ndarray  # (n_nodes, 6), rows in the node table layout
    tree_sizes: np.ndarray  # int64, one node count per tree
    n_features: int
    seed: int

    @property
    def trees(self) -> list:
        """Each tree's rows of the node table."""
        starts = np.cumsum(self.tree_sizes) - self.tree_sizes
        return [self.nodes[a:a + n] for a, n in zip(starts.tolist(), self.tree_sizes.tolist())]

    def __post_init__(self):
        nodes, sizes = self.nodes, self.tree_sizes
        roots = np.cumsum(sizes) - sizes
        offset = np.repeat(roots, sizes)
        leaf = nodes[:, 0] == _LEAF
        ids = np.arange(len(nodes))
        child = np.empty((len(nodes), 2), dtype=np.int64)
        child[:, 0] = np.where(leaf, ids, nodes[:, 3].astype(np.int64) + offset)
        child[:, 1] = np.where(leaf, ids, nodes[:, 2].astype(np.int64) + offset)
        depth = 0
        frontier = roots[~leaf[roots]]
        while frontier.size:
            depth += 1
            frontier = child[frontier].ravel()
            frontier = frontier[~leaf[frontier]]
        feature = np.where(leaf, 0, nodes[:, 0]).astype(np.int64)
        # walk number of each table row: table rows in feature order
        order = np.argsort(feature, kind="stable")
        number = np.empty_like(order)
        number[order] = ids
        child = number[child[order]]
        # contiguous copies: take() on a strided column copies it every call
        for name, value in (("_feature", feature[order]),
                            ("_counts", np.bincount(feature, minlength=self.n_features)),
                            ("_threshold", nodes[order, 1]),
                            ("_p_defective", nodes[order, 5]),
                            ("_child", child.ravel()),
                            ("_right", child[:, 0].astype(np.int32)),
                            ("_turn", (child[:, 1] - child[:, 0]).astype(np.int32)),
                            ("_roots", number[roots]), ("_depth", depth)):
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class LinearModel:
    weights: np.ndarray  # (p,), zero outside the mask
    intercept: float
    mask: tuple  # feature indices the model may read
    converged: bool = True
    final_grad_norm: float = 0.0


# Values one segmented split search scores, give or take one segment. It
# bounds the work arrays of a growth step, which would otherwise grow with
# rows x trees: scoring the 100 roots of the 744-row acceptance training
# set in one call took the fit's traced memory peak from 8.4 to 15.9 MiB.
_SPLIT_BLOCK = 16_384


def _segment_splits(xt, ranks, y, rows, node_start, node_n, seg_node, seg_feat):
    """Best split of each segment s: feature seg_feat[s] over the rows
    rows[node_start[k] : node_start[k] + node_n[k]] of node k = seg_node[s].

    Each segment is sorted by value rank, every boundary between distinct
    values gets the Gini cost of the one-feature search, with the same
    float expression, and the first minimum wins. Returns (cost, threshold,
    left rows, left positives) per segment; cost is inf where the feature
    takes one value only.
    """
    n = len(y)
    seg_n = node_n[seg_node]
    ends = np.cumsum(seg_n)
    starts = ends - seg_n
    seg = np.repeat(np.arange(len(seg_n)), seg_n)
    row = rows[np.arange(ends[-1]) + np.repeat(node_start[seg_node] - starts, seg_n)]
    cell = np.repeat(seg_feat * n, seg_n) + row
    key = seg * n + ranks[cell]
    # ties are equal values, whose order changes no cost and no threshold
    order = np.argsort(key)
    key = key[order]
    cell = cell[order]
    cum = np.zeros(len(key) + 1, dtype=np.int64)
    np.cumsum(y[row[order]], out=cum[1:])
    split = np.flatnonzero((key[1:] != key[:-1]) & (seg[1:] == seg[:-1]))
    s = seg[split]
    base = cum[starts]
    n_seg = seg_n[s].astype(np.float64)
    left_n = (split + 1 - starts[s]).astype(np.float64)
    left_pos = (cum[split + 1] - base[s]).astype(np.float64)
    right_n = n_seg - left_n
    right_pos = (cum[ends] - base)[s] - left_pos
    gini_left = 1.0 - (left_pos / left_n) ** 2 - ((left_n - left_pos) / left_n) ** 2
    gini_right = 1.0 - (right_pos / right_n) ** 2 - ((right_n - right_pos) / right_n) ** 2
    cost = (left_n * gini_left + right_n * gini_right) / n_seg

    best = np.full(len(seg_n), np.inf)
    thr = np.zeros(len(seg_n))
    go_n = np.zeros(len(seg_n), dtype=np.int64)
    go_pos = np.zeros(len(seg_n), dtype=np.int64)
    counts = np.bincount(s, minlength=len(seg_n))
    has = counts > 0
    if has.any():
        first = (np.cumsum(counts) - counts)[has]
        best[has] = np.minimum.reduceat(cost, first)
        at = np.minimum.reduceat(np.where(cost == best[s], split, len(key)), first)
        lo, hi = xt[cell[at]], xt[cell[at + 1]]
        mid = 0.5 * (lo + hi)
        thr[has] = np.where(mid >= hi, lo, mid)  # midpoint rounded up to hi
        go_n[has] = at + 1 - starts[has]
        go_pos[has] = cum[at + 1] - base[has]
    return best, thr, go_n, go_pos


def _best_splits(xt, ranks, y, rows, node_start, node_n, seg_node, seg_feat):
    """_segment_splits in calls of about _SPLIT_BLOCK values each."""
    seg_n = node_n[seg_node]
    chunk = (np.cumsum(seg_n) - seg_n) // _SPLIT_BLOCK
    cuts = [0, *(np.flatnonzero(np.diff(chunk)) + 1).tolist(), len(seg_n)]
    parts = [_segment_splits(xt, ranks, y, rows, node_start, node_n, seg_node[a:b], seg_feat[a:b])
             for a, b in zip(cuts, cuts[1:])]
    return [np.concatenate(col) for col in zip(*parts)]


def _grow_trees(xt, ranks, y, seeds) -> list:
    """One tree per seed, all grown in lockstep.

    Each step takes the next preorder node of every tree that has one and
    searches the splits of all of them together. Tree by tree this is the
    recursive grower: the rng seeded with the tree's seed draws its
    bootstrap, then one feature permutation per impure node in preorder;
    the first n_consider features of it compete, ties going to the earlier
    one, and a node that none of them can split takes the first feature
    after them that can split it.
    """
    n = len(y)
    n_features = len(xt) // n
    n_consider = max(1, int(np.sqrt(n_features)))
    rngs = [np.random.default_rng(s) for s in seeds]
    # each tree's node table rows laid end to end, six values a node
    flats = [[] for _ in seeds]
    # pending nodes, the next one last: (rows, positives, index in the flat
    # list of the parent's child field, or -1 for the root)
    stacks = []
    for rng in rngs:
        boot = rng.integers(0, n, size=n)
        stacks.append([(boot, int(y[boot].sum()), -1)])
    live = list(range(len(seeds)))
    while live:
        impure, perms = [], []
        for t in live:
            rows, n_pos, slot = stacks[t].pop()
            flat = flats[t]
            if slot >= 0:
                flat[slot] = len(flat) // 6
            p1 = n_pos / len(rows)
            if n_pos not in (0, len(rows)):
                impure.append((stacks[t], flat, len(flat), rows, n_pos))
                perms.append(rngs[t].permutation(n_features))
            flat += (_LEAF, 0.0, -1, -1, 1.0 - p1, p1)
        if impure:
            _split_nodes(xt, ranks, y, n_consider, impure, np.array(perms))
        live = [t for t in live if stacks[t]]
    return [np.array(flat, dtype=np.float64).reshape(-1, 6) for flat in flats]


def _split_nodes(xt, ranks, y, n_consider, impure, perm):
    """Split the impure nodes of a step, given as (stack, flat, at, rows,
    positives) with one feature permutation each: write feature and
    threshold to flat[at:at + 2] and push the children onto the tree's
    stack, the left one on top."""
    n = len(y)
    sizes = np.array([len(item[3]) for item in impure])
    rows = np.concatenate([item[3] for item in impure])
    starts = np.cumsum(sizes) - sizes
    k, n_features = perm.shape
    ids = np.arange(k)
    cost, thr, go_n, go_pos = _best_splits(xt, ranks, y, rows, starts, sizes,
                                           np.repeat(ids, n_consider), perm[:, :n_consider].ravel())
    pick = cost.reshape(k, n_consider).argmin(axis=1)
    at = ids * n_consider + pick
    feat, thr, go_n, go_pos = perm[ids, pick], thr[at], go_n[at], go_pos[at]
    ok = np.isfinite(cost[at])
    late = np.flatnonzero(~ok)
    rest = n_features - n_consider
    if late.size and rest:
        cost, late_thr, late_n, late_pos = _best_splits(xt, ranks, y, rows, starts, sizes,
                                                        np.repeat(late, rest),
                                                        perm[late, n_consider:].ravel())
        found = np.isfinite(cost).reshape(len(late), rest)
        pick = found.argmax(axis=1)
        at = np.arange(len(late)) * rest + pick
        feat[late] = perm[late, n_consider + pick]
        thr[late], go_n[late], go_pos[late] = late_thr[at], late_n[at], late_pos[at]
        ok[late] = found.any(axis=1)
    # value <= threshold holds for exactly the go_n rows the search sent left
    kept = np.repeat(ok, sizes)
    go = xt[np.repeat(feat * n, sizes) + rows] <= np.repeat(thr, sizes)
    left, right = rows[go & kept], rows[~go & kept]
    stay_n = sizes - go_n
    left_end = np.cumsum(np.where(ok, go_n, 0)).tolist()
    right_end = np.cumsum(np.where(ok, stay_n, 0)).tolist()
    feat, thr, go_n, go_pos, stay_n = (a.tolist() for a in (feat, thr, go_n, go_pos, stay_n))
    # copies, so that a tree's pending rows stay disjoint subsets of its
    # bootstrap rather than views keeping every step's arrays alive
    for i in np.flatnonzero(ok).tolist():
        stack, flat, at, _, n_pos = impure[i]
        flat[at], flat[at + 1] = feat[i], thr[i]
        stack.append((right[right_end[i] - stay_n[i] : right_end[i]].copy(), n_pos - go_pos[i], at + 3))
        stack.append((left[left_end[i] - go_n[i] : left_end[i]].copy(), go_pos[i], at + 2))


def train_forest(x, y, config: ForestConfig = ForestConfig(), seed: int = 0) -> ForestModel:
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
    xt = np.ascontiguousarray(x.T).ravel()
    # per feature, each row's rank among the column's distinct values
    ranks = np.concatenate([np.unique(col, return_inverse=True)[1] for col in x.T])
    trees = _grow_trees(xt, ranks, y, range(seed, seed + config.n_trees))
    return ForestModel(nodes=np.concatenate([np.empty((0, 6)), *trees]),
                       tree_sizes=np.array([len(tree) for tree in trees], dtype=np.int64),
                       n_features=x.shape[1], seed=seed)


def forest_predict_many(model: ForestModel, rows) -> np.ndarray:
    """Defect probability per row.

    A block of up to _NODE_WALK_ROWS rows (one row) evaluates the split of
    every node, which gives each node its next node, and follows those
    _depth times from the roots. A larger block walks all trees one level at
    a time: it holds one current node per (row, tree), and every step moves
    all of them one level down. Leaves stay where they are either way, and
    both walks make the same comparisons.
    """
    rows = np.asarray(rows, dtype=np.float64)
    if len(rows) == 0:
        return np.empty(0)
    if rows.ndim != 2 or rows.shape[1] != model.n_features:
        raise ValueError(f"expected rows of {model.n_features} features, got shape {rows.shape}")
    out = np.empty(len(rows))
    for start in range(0, len(rows), _PREDICT_BLOCK):
        block = rows[start:start + _PREDICT_BLOCK]
        if len(block) <= _NODE_WALK_ROWS:
            # _feature ascends: the row's values repeated are the nodes' values
            go = np.repeat(block[0], model._counts) <= model._threshold
            step = model._right + model._turn * go
            node = model._roots[None]
            for _ in range(model._depth):
                node = step.take(node)
        else:
            flat = block.ravel()
            row_base = np.arange(0, flat.size, model.n_features)[:, None]
            node = np.broadcast_to(model._roots, (len(block), len(model._roots)))
            for _ in range(model._depth):
                value = flat.take(row_base + model._feature.take(node))
                node = model._child.take(2 * node + (value <= model._threshold.take(node)))
        out[start:start + len(block)] = model._p_defective.take(node).mean(axis=1)
    return out


def save_forest(path, model: ForestModel) -> None:
    """The node table, tree sizes, feature count and seed as one checkpoint."""
    save_params(path, {"nodes": model.nodes, "tree_sizes": model.tree_sizes,
                       "n_features": np.float64(model.n_features), "seed": np.float64(model.seed)})


def load_forest(path) -> ForestModel:
    params = load_params(path)
    if set(params) != {"nodes", "tree_sizes", "n_features", "seed"} \
            or params["nodes"].shape != (int(params["tree_sizes"].sum()), 6):
        raise ValueError(f"not a forest checkpoint: arrays {sorted(params)}")
    return ForestModel(nodes=params["nodes"], tree_sizes=params["tree_sizes"].astype(np.int64),
                       n_features=int(params["n_features"]), seed=int(params["seed"]))


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
