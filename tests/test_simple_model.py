"""Random forest and logistic baseline tests."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jitdp import simple_model
from jitdp.corpus import (
    SyntheticSpec,
    chronological_split,
    sort_chronologically,
    synthesize_corpus,
    undersample,
)
from jitdp.evaluation import roc_auc
from jitdp.features import feature_matrix, featurize_corpus
from jitdp.nn import load_params, save_params
from jitdp.simple_model import (
    ADDED_LINES_MASK,
    ForestConfig,
    ForestModel,
    forest_predict_many,
    load_forest,
    logistic_predict,
    save_forest,
    train_forest,
    train_logistic,
)


def _forest(trees, n_features=14, seed=0):
    """A ForestModel from node tuples, one sequence of them per tree."""
    nodes = np.array([node for tree in trees for node in tree], dtype=np.float64).reshape(-1, 6)
    return ForestModel(nodes=nodes, tree_sizes=np.array([len(t) for t in trees], dtype=np.int64),
                       n_features=n_features, seed=seed)


def _same_forest(a, b):
    """Bit for bit: node tables, tree sizes, feature count and seed."""
    return (a.nodes.dtype == b.nodes.dtype == np.float64 and a.nodes.shape == b.nodes.shape
            and a.nodes.tobytes() == b.nodes.tobytes()
            and a.tree_sizes.tolist() == b.tree_sizes.tolist()
            and (a.n_features, a.seed) == (b.n_features, b.seed))


def _separable_1d(n=200, seed=0, noise_column=True):
    rng = np.random.default_rng(seed)
    x = np.zeros((n, 14))
    x[:, 4] = rng.normal(size=n)  # feature "la"
    y = (x[:, 4] >= 0).astype(int)
    if noise_column:
        x[:, 0] = rng.normal(size=n)
    return x, y


class TestTrainForest:
    def test_separable_data_fits(self):
        x, y = _separable_1d()
        model = train_forest(x, y, seed=1)
        pred = (forest_predict_many(model, x) > 0.5).astype(int)
        assert (pred == y).mean() >= 0.99

    def test_single_class_rejected(self):
        x, _ = _separable_1d(50)
        with pytest.raises(ValueError, match="single-class"):
            train_forest(x, np.ones(50, dtype=int), seed=0)

    def test_xor_pattern_needs_trees(self):
        rng = np.random.default_rng(3)
        n = 400
        x = np.zeros((n, 14))
        x[:, 2] = rng.choice([-1.0, 1.0], n) + rng.normal(scale=0.1, size=n)
        x[:, 5] = rng.choice([-1.0, 1.0], n) + rng.normal(scale=0.1, size=n)
        y = ((x[:, 2] > 0) ^ (x[:, 5] > 0)).astype(int)
        forest = train_forest(x, y, seed=4)
        forest_acc = ((forest_predict_many(forest, x) > 0.5).astype(int) == y).mean()
        linear = train_logistic(x, y)
        linear_acc = ((logistic_predict(linear, x) > 0.5).astype(int) == y).mean()
        assert forest_acc >= 0.95
        assert abs(linear_acc - 0.5) < 0.1

    def test_deterministic_given_seed(self):
        x, y = _separable_1d(150, seed=2)
        a = train_forest(x, y, seed=9)
        b = train_forest(x, y, seed=9)
        assert _same_forest(a, b)

    def test_non_finite_features_rejected(self):
        x, y = _separable_1d(60)
        x[3, 2] = np.inf
        with pytest.raises(ValueError, match="finite"):
            train_forest(x, y)


def _gini_split(values, labels):
    """Oracle: best (cost, threshold) for one feature, or None when unsplittable."""
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
    cost = np.where(boundaries, (left_n * gini_left + right_n * gini_right) / n, np.inf)
    i = int(np.argmin(cost))
    thr = 0.5 * (sv[i] + sv[i + 1])
    if thr >= sv[i + 1]:  # midpoint rounded up between adjacent floats
        thr = sv[i]
    return float(cost[i]), float(thr)


def _grow_tree(x, y, rng):
    """Oracle: one tree grown recursively, node by node, feature by feature."""
    n_features = x.shape[1]
    n_consider = max(1, int(np.sqrt(n_features)))
    nodes = []

    def grow(idx):
        node_id = len(nodes)
        nodes.append(None)
        ys = y[idx]
        n = len(idx)
        n_pos = int(ys.sum())
        p1 = n_pos / n
        best = None
        if n_pos not in (0, n):
            # scan a random feature order; stop once n_consider features are
            # examined AND a valid split exists
            examined = 0
            for f in rng.permutation(n_features):
                split = _gini_split(x[idx, f], ys)
                examined += 1
                if split is not None and (best is None or split[0] < best[0]):
                    best = (split[0], int(f), split[1])
                if examined >= n_consider and best is not None:
                    break
        if best is None:
            nodes[node_id] = (-1, 0.0, -1, -1, 1.0 - p1, p1)
            return node_id
        _, feat, thr = best
        go_left = x[idx, feat] <= thr
        assert go_left.any() and not go_left.all()
        left = grow(idx[go_left])
        right = grow(idx[~go_left])
        nodes[node_id] = (feat, thr, left, right, 1.0 - p1, p1)
        return node_id

    grow(np.arange(len(y)))
    return tuple(nodes)


def _recursive_forest(x, y, n_trees, seed):
    """Oracle: tree t bootstraps with, then grows from, the rng seeded seed + t."""
    trees = []
    for t in range(n_trees):
        rng = np.random.default_rng(seed + t)
        idx = rng.integers(0, len(y), size=len(y))
        trees.append(_grow_tree(x[idx], y[idx], rng))
    return tuple(trees)


class TestLockstepGrowth:
    """train_forest's lockstep growth against the recursive grower."""

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(4, 600),
           n_features=st.sampled_from([1, 2, 5, 14]), n_trees=st.integers(1, 6),
           block=st.sampled_from([1, 97, 16_384]))
    def test_matches_recursive_grower(self, seed, n, n_features, n_trees, block):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, n_features))
        kind = rng.integers(0, 3, size=n_features)
        x[:, kind == 1] = np.round(x[:, kind == 1])  # few values: ties
        x[:, kind == 2] = 7.0  # constant: pushes the scan past n_consider
        y = (x[:, 0] + rng.normal(size=n) > 0).astype(np.int64)
        y[:4] = (0, 1, 0, 1)
        with mock.patch.object(simple_model, "_SPLIT_BLOCK", block):
            model = train_forest(x, y, ForestConfig(n_trees=n_trees), seed=seed)
        assert _same_forest(model, _forest(_recursive_forest(x, y, n_trees, seed), n_features, seed))

    def test_only_constant_columns_but_one(self):
        x = np.full((40, 14), 3.0)
        x[:, 13] = np.arange(40) % 5
        y = (x[:, 13] >= 2).astype(np.int64)
        model = train_forest(x, y, ForestConfig(n_trees=8), seed=1)
        assert _same_forest(model, _forest(_recursive_forest(x, y, 8, 1), seed=1))
        assert set(model.nodes[:, 0].tolist()) == {-1, 13}

    def test_acceptance_training_rows(self):
        """The forest of the acceptance run, on its undersampled train rows."""
        corpus = synthesize_corpus(SyntheticSpec(size=2000, imbalance=3.0, feature_strength=0.5,
                                                 text_strength=0.5, seed=11))
        ordered = sort_chronologically(corpus)
        split = chronological_split(corpus)
        train_ids = [c.commit_id for c in ordered if c.commit_id in split.train_ids]
        labels = {c.commit_id: c.label for c in ordered}
        balanced = sorted(undersample(train_ids, labels, 5))
        vectors = featurize_corpus(ordered)
        x = feature_matrix(vectors[i] for i in balanced)
        y = np.array([labels[i] for i in balanced])
        model = train_forest(x, y, ForestConfig(n_trees=20), seed=5)
        assert _same_forest(model, _forest(_recursive_forest(x, y, 20, 5), seed=5))


def _hand_model(leaf_probs):
    """Stump-free forest: every tree is one leaf with a fixed probability."""
    return _forest([[(-1, 0.0, -1, -1, 1 - p, p)] for p in leaf_probs])


def _predict_one(model, row):
    """forest_predict_many of one row."""
    return forest_predict_many(model, np.asarray(row)[None])[0]


class TestForestPredict:
    def test_unanimous_zero(self):
        model = _hand_model([0.0, 0.0, 0.0])
        assert _predict_one(model, np.zeros(14)) == 0.0

    def test_mean_of_two_trees(self):
        model = _hand_model([0.2, 0.8])
        assert _predict_one(model, np.zeros(14)) == pytest.approx(0.5)

    def test_probability_range_and_mean_update(self):
        x, y = _separable_1d(100, seed=6)
        model = train_forest(x, y, ForestConfig(n_trees=10), seed=3)
        probe = x[7]
        base = _predict_one(model, probe)
        assert 0.0 <= base <= 1.0
        # appending a tree that predicts p moves the mean toward p
        extra = _hand_model([1.0]).trees[0]
        grown = _forest([*model.trees, extra], seed=3)
        assert _predict_one(grown, probe) == pytest.approx((base * 10 + 1.0) / 11)

    def test_matches_manual_tree_walk(self):
        x, y = _separable_1d(80, seed=7)
        model = train_forest(x, y, ForestConfig(n_trees=5), seed=2)

        def walk(nodes, row):
            node = nodes[0]
            while node[0] != -1:
                node = nodes[int(node[2])] if row[int(node[0])] <= node[1] else nodes[int(node[3])]
            return node[5]

        for row in x[:10]:
            manual = np.mean([walk(tree, row) for tree in model.trees])
            assert _predict_one(model, row) == pytest.approx(manual, abs=1e-15)

    def test_dimension_mismatch_rejected(self):
        model = _hand_model([0.5])
        for rows in (np.zeros((1, 3)), np.zeros(14)):
            with pytest.raises(ValueError, match="expected rows of 14 features"):
                forest_predict_many(model, rows)


def _scalar_walk(tree, row):
    """Oracle: follow one tree's nodes from the root to a leaf."""
    node = tree[0]
    while node[0] != -1:
        node = tree[int(node[2])] if row[int(node[0])] <= node[1] else tree[int(node[3])]
    return node[5]


def _scalar_predict(trees, rows):
    """Oracle: the mean scalar walk over trees, node tuples or node table rows."""
    return np.array([np.mean([_scalar_walk(t, r) for t in trees]) for r in rows])


def _thresholds(model):
    return model.nodes[model.nodes[:, 0] != -1, 1]


class TestArrayForest:
    """forest_predict_many's level-synchronous walk against the scalar walk."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(20, 80), n_trees=st.integers(1, 12),
           n_rows=st.integers(1, 40))
    def test_matches_scalar_walk(self, seed, n, n_trees, n_rows):
        rng = np.random.default_rng(seed)
        x = np.round(rng.normal(size=(n, 14)), 1)  # rounded: repeated values
        y = (x[:, 4] + rng.normal(size=n) > 0).astype(int)
        y[:2] = (0, 1)
        model = train_forest(x, y, ForestConfig(n_trees=n_trees), seed=seed)
        trees = _recursive_forest(x, y, n_trees, seed)
        assert _same_forest(model, _forest(trees, seed=seed))
        rows = rng.normal(size=(n_rows, 14))
        thresholds = _thresholds(model)
        if thresholds.size:  # values that sit exactly on a split go left
            on_split = rng.random(rows.shape) < 0.5
            rows[on_split] = rng.choice(thresholds, size=int(on_split.sum()))
        assert np.array_equal(forest_predict_many(model, rows), _scalar_predict(trees, rows))
        assert _predict_one(model, rows[0]) == _scalar_predict(trees, rows[:1])[0]

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(20, 80), n_trees=st.integers(1, 12),
           n_rows=st.integers(simple_model._NODE_WALK_ROWS + 1, 40))
    def test_block_equals_its_rows_one_at_a_time(self, seed, n, n_trees, n_rows):
        """The level walk of a block gives each row the bits of the node
        walk of that row alone."""
        rng = np.random.default_rng(seed)
        x = np.round(rng.normal(size=(n, 14)), 1)
        y = (x[:, 4] + rng.normal(size=n) > 0).astype(int)
        y[:2] = (0, 1)
        model = train_forest(x, y, ForestConfig(n_trees=n_trees), seed=seed)
        rows = rng.normal(size=(n_rows, 14))
        thresholds = _thresholds(model)
        if thresholds.size:
            on_split = rng.random(rows.shape) < 0.5
            rows[on_split] = rng.choice(thresholds, size=int(on_split.sum()))
        alone = np.array([_predict_one(model, row) for row in rows])
        assert forest_predict_many(model, rows).tobytes() == alone.tobytes()

    def test_value_equal_to_threshold_goes_left(self):
        stump = ((2, 0.5, 1, 2, 0.5, 0.5), (-1, 0.0, -1, -1, 1.0, 0.0),
                 (-1, 0.0, -1, -1, 0.0, 1.0))
        model = _forest([stump])
        rows = np.zeros((3, 14))
        rows[:, 2] = (0.5, np.nextafter(0.5, 1.0), np.nextafter(0.5, 0.0))
        assert np.array_equal(forest_predict_many(model, rows), [0.0, 1.0, 0.0])

    @settings(max_examples=25, deadline=None)
    @given(probs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=30),
           n_rows=st.integers(0, 5))
    def test_single_leaf_forests(self, probs, n_rows):
        model = _hand_model(probs)
        rows = np.zeros((n_rows, 14))
        assert np.array_equal(forest_predict_many(model, rows), _scalar_predict(model.trees, rows))

    @pytest.fixture(scope="class")
    def trained(self):
        x, y = _separable_1d(120, seed=11)
        return train_forest(x, y, ForestConfig(n_trees=15), seed=4)

    @pytest.mark.parametrize("n_rows", [0, 1, 255, 256, 257, 513])
    def test_block_boundaries(self, trained, n_rows):
        rows = np.random.default_rng(n_rows).normal(size=(n_rows, 14))
        got = forest_predict_many(trained, rows)
        assert got.shape == (n_rows,)
        assert np.array_equal(got, _scalar_predict(trained.trees, rows))

    def test_zero_rows_give_empty_array(self, trained):
        assert forest_predict_many(trained, []).shape == (0,)
        assert forest_predict_many(trained, np.zeros((0, 14))).shape == (0,)

    @pytest.mark.parametrize("shape", [(5, 13), (5, 15), (5, 0), (14,)])
    def test_wrong_column_count_rejected(self, trained, shape):
        with pytest.raises(ValueError):
            forest_predict_many(trained, np.zeros(shape))

    def test_loaded_forest_walks_the_same(self, trained, tmp_path):
        save_forest(tmp_path / "f.ckpt", trained)
        rows = np.random.default_rng(2).normal(size=(300, 14))
        loaded = load_forest(tmp_path / "f.ckpt")
        assert np.array_equal(forest_predict_many(loaded, rows), _scalar_predict(trained.trees, rows))


class TestForestSerialization:
    def test_round_trip_identical_predictions(self, tmp_path):
        x, y = _separable_1d(100, seed=8)
        model = train_forest(x, y, ForestConfig(n_trees=20), seed=5)
        path = tmp_path / "forest.ckpt"
        save_forest(path, model)
        loaded = load_forest(path)
        assert np.array_equal(forest_predict_many(loaded, x), forest_predict_many(model, x))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(10, 60), n_trees=st.integers(1, 8))
    def test_round_trip_keeps_every_node(self, seed, n, n_trees, tmp_path_factory):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, 14)) * rng.choice([1e-300, 1e-3, 1.0, 1e12], size=14)
        y = rng.integers(0, 2, size=n)
        y[:4] = (0, 0, 1, 1)  # training needs two rows of each class
        model = train_forest(x, y, ForestConfig(n_trees=n_trees), seed=seed)
        path = tmp_path_factory.mktemp("forest") / "forest.ckpt"
        save_forest(path, model)
        loaded = load_forest(path)
        assert _same_forest(loaded, model)
        assert _same_forest(loaded, _forest(_recursive_forest(x, y, n_trees, seed), seed=seed))
        assert np.array_equal(forest_predict_many(loaded, x), forest_predict_many(model, x))

    @pytest.mark.parametrize("n_trees", [0, 1, 7])
    def test_file_is_the_forest_as_one_checkpoint(self, n_trees, tmp_path):
        x, y = _separable_1d(60, seed=9)
        model = train_forest(x, y, ForestConfig(n_trees=max(n_trees, 1)), seed=4)
        model = _forest(model.trees[:n_trees], seed=model.seed)
        path = tmp_path / "forest.ckpt"
        save_forest(path, model)
        params = load_params(path)
        assert sorted(params) == ["n_features", "nodes", "seed", "tree_sizes"]
        assert params["nodes"].shape == (int(model.tree_sizes.sum()), 6)
        assert params["nodes"].tobytes() == model.nodes.tobytes()
        assert params["tree_sizes"].tolist() == [len(tree) for tree in model.trees]
        assert (params["n_features"], params["seed"]) == (14, 4)
        assert _same_forest(load_forest(path), model)

    def test_bad_format_rejected(self, tmp_path):
        path = tmp_path / "forest.ckpt"
        path.write_text('{"format": "jitdp-forest v1"}')
        with pytest.raises(ValueError, match="checkpoint version"):
            load_forest(path)
        for params in ({"clf_wo": np.zeros(2)},
                       {"nodes": np.zeros((3, 6)), "tree_sizes": np.array([2.0]),
                        "n_features": np.float64(14), "seed": np.float64(0)}):
            save_params(path, params)
            with pytest.raises(ValueError, match="not a forest checkpoint"):
                load_forest(path)


class TestTrainLogistic:
    def test_separable_gives_perfect_ranking(self):
        # truly one-dimensional data: score is monotone in the one feature
        x, y = _separable_1d(150, seed=1, noise_column=False)
        model = train_logistic(x, y)
        assert roc_auc(logistic_predict(model, x), y) == 1.0
        assert model.weights[4] > 0

    def test_added_lines_mask_ignores_other_features(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(200, 14)) * 5
        y = (x[:, 4] + rng.normal(scale=0.5, size=200) > 0).astype(int)
        model = train_logistic(x, y, mask=ADDED_LINES_MASK)
        shuffled = x.copy()
        cols = [c for c in range(14) if c != 4]
        shuffled[:, cols] = rng.permutation(shuffled[:, cols], axis=0)
        assert np.array_equal(logistic_predict(model, x), logistic_predict(model, shuffled))
        assert np.count_nonzero(model.weights) == 1

    def test_added_lines_monotonicity(self):
        rng = np.random.default_rng(4)
        x = np.zeros((200, 14))
        x[:, 4] = rng.integers(0, 300, 200)
        y = (x[:, 4] > 100).astype(int)
        model = train_logistic(x, y, mask=ADDED_LINES_MASK)
        assert model.weights[4] > 0
        grid = np.zeros((50, 14))
        grid[:, 4] = np.linspace(0, 400, 50)
        scores = logistic_predict(model, grid)
        assert np.all(np.diff(scores) > 0)

    def test_symmetric_data_gives_zero_intercept(self):
        rng = np.random.default_rng(5)
        half = rng.normal(size=(100, 14))
        x = np.concatenate([half, -half])
        y = np.concatenate([np.ones(100, dtype=int), np.zeros(100, dtype=int)])
        model = train_logistic(x, y)
        assert abs(model.intercept) < 1e-3

    def test_single_class_rejected(self):
        x, _ = _separable_1d(40)
        with pytest.raises(ValueError, match="single-class"):
            train_logistic(x, np.zeros(40, dtype=int))

    def test_convergence_reported(self):
        x, y = _separable_1d(120, seed=9)
        model = train_logistic(x, y)
        assert model.converged
        assert model.final_grad_norm <= 1e-6
