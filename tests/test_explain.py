"""Local surrogate explanation tests."""

from dataclasses import asdict

import numpy as np
import pytest

from jitdp.explain import Explanation, FeatureExplanation, _bin_of, _condition, _quartile_bins, explain_instance
from jitdp.features import FEATURE_NAMES
from jitdp.simple_model import ForestConfig, forest_predict_many, train_forest


@pytest.fixture(scope="module")
def train_matrix():
    rng = np.random.default_rng(0)
    scales = np.array([3, 2, 4, 1, 60, 25, 200, 1, 5, 90, 12, 300, 8, 40], dtype=float)
    rows = np.abs(rng.normal(size=(400, 14))) * scales
    rows[:, 7] = (rows[:, 7] > 0.8).astype(float)  # fix is binary
    return rows


def _logistic_on(index, train):
    center = train[:, index].mean()
    scale = max(train[:, index].std(), 1e-9)

    def predict(rows):
        return 1.0 / (1.0 + np.exp(-(rows[:, index] - center) / scale))

    return predict


class TestExplainInstance:
    @pytest.mark.parametrize("n_samples", [0, -5])
    def test_sample_count_below_one_rejected(self, train_matrix, n_samples):
        with pytest.raises(ValueError, match="n_samples must be at least 1"):
            explain_instance(lambda rows: np.zeros(len(rows)), train_matrix[3], train_matrix,
                             n_samples=n_samples)

    def test_constant_scorer_gives_zero_weights_and_zero_fidelity(self, train_matrix):
        exp = explain_instance(lambda rows: np.full(len(rows), 0.37), train_matrix[3], train_matrix,
                               n_samples=300, seed=1)
        assert max(abs(e.weight) for e in exp.entries) < 1e-12
        assert exp.fidelity == 0.0

    def test_single_feature_model_dominates(self, train_matrix):
        la = FEATURE_NAMES.index("la")
        exp = explain_instance(_logistic_on(la, train_matrix), train_matrix[5],
                               train_matrix, n_samples=800, seed=3)
        top = exp.entries[0]
        assert top.feature == "la"
        runner_up = abs(exp.entries[1].weight)
        assert abs(top.weight) >= 3 * max(runner_up, 1e-12)

    def test_deterministic_given_seed(self, train_matrix):
        model = _logistic_on(4, train_matrix)
        a = explain_instance(model, train_matrix[5], train_matrix, n_samples=400, seed=9)
        b = explain_instance(model, train_matrix[5], train_matrix, n_samples=400, seed=9)
        assert a == b

    def test_ignored_feature_gets_negligible_weight(self, train_matrix):
        exp = explain_instance(_logistic_on(4, train_matrix), train_matrix[5],
                               train_matrix, n_samples=800, seed=3)
        by_name = {e.feature: e for e in exp.entries}
        assert abs(by_name["age"].weight) < 0.05

    def test_fidelity_high_for_smooth_model(self, train_matrix):
        exp = explain_instance(_logistic_on(4, train_matrix), train_matrix[5],
                               train_matrix, n_samples=800, seed=3)
        assert exp.fidelity >= 0.5

    def test_one_entry_per_feature(self, train_matrix):
        exp = explain_instance(_logistic_on(4, train_matrix), train_matrix[0],
                               train_matrix, n_samples=200, seed=2)
        assert sorted(e.feature for e in exp.entries) == sorted(FEATURE_NAMES)
        assert all(np.isfinite(e.weight) for e in exp.entries)

    def test_condition_strings_carry_bin_boundaries(self, train_matrix):
        exp = explain_instance(_logistic_on(4, train_matrix), train_matrix[5],
                               train_matrix, n_samples=200, seed=2)
        for e in exp.entries:
            assert (" <= " in e.condition) or (" > " in e.condition)
            assert e.feature in e.condition

    def test_direction_follows_weight_sign(self, train_matrix):
        exp = explain_instance(_logistic_on(4, train_matrix), train_matrix[5],
                               train_matrix, n_samples=400, seed=5)
        for e in exp.entries:
            assert e.direction == ("defective" if e.weight > 0 else "clean")

    def test_degenerate_training_matrix_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            explain_instance(lambda rows: np.full(len(rows), 0.5), np.zeros(14), np.zeros((50, 14)))

    def test_text_rendering(self, train_matrix):
        exp = explain_instance(_logistic_on(4, train_matrix), train_matrix[5],
                               train_matrix, n_samples=200, seed=2)
        text = exp.as_text()
        assert "fidelity" in text
        assert exp.entries[0].condition in text
        d = asdict(exp)
        assert len(d["entries"]) == 14


def reference_explain(predict_row, x, train, n_samples, seed):
    """explain_instance as it stood before the sampler became array
    operations: one bin draw and one predict call per perturbed sample."""
    x = np.asarray(x, dtype=np.float64)
    p = len(x)
    kernel_width = 0.75 * np.sqrt(p)
    rng = np.random.default_rng(seed)
    bins = [_quartile_bins(train[:, j]) for j in range(p)]
    inst_bins = np.array([_bin_of(x[j], bins[j][0]) for j in range(p)])
    n_bins = np.array([len(b[0]) + 1 for b in bins])
    z = np.ones((n_samples, p))
    values = np.tile(x, (n_samples, 1))
    sampled = rng.integers(0, n_bins[None, :], size=(n_samples, p))
    uniforms = rng.random((n_samples, p))
    for j in range(p):
        boundaries, lo, hi = bins[j]
        for i in range(1, n_samples):
            b = int(sampled[i, j])
            z[i, j] = 1.0 if b == inst_bins[j] else 0.0
            left = lo if b == 0 else float(boundaries[b - 1])
            right = hi if b == len(boundaries) else float(boundaries[b])
            values[i, j] = left + uniforms[i, j] * (right - left)
    y = np.asarray([float(predict_row(values[i])) for i in range(n_samples)])
    kernel = np.exp(-(1.0 - z).sum(axis=1) / kernel_width**2)
    design = np.concatenate([np.ones((n_samples, 1)), z], axis=1)
    wd = design * kernel[:, None]
    gram = design.T @ wd
    gram[1:, 1:] += np.eye(p)
    coef = np.linalg.solve(gram, wd.T @ y)
    fitted = design @ coef
    y_mean = float((kernel * y).sum() / kernel.sum())
    ss_tot = float((kernel * (y - y_mean) ** 2).sum())
    ss_res = float((kernel * (y - fitted) ** 2).sum())
    if ss_tot <= 1e-12 * max(float((kernel * y**2).sum()), 1.0):
        fidelity = 0.0
    else:
        fidelity = 1.0 - ss_res / ss_tot
    entries = [
        FeatureExplanation(feature=FEATURE_NAMES[j],
                           condition=_condition(FEATURE_NAMES[j], int(inst_bins[j]), bins[j][0]),
                           weight=float(coef[1 + j]),
                           direction="defective" if coef[1 + j] > 0 else "clean")
        for j in range(p)]
    entries.sort(key=lambda e: -abs(e.weight))
    return Explanation(entries=tuple(entries), fidelity=fidelity, intercept=float(coef[0]))


class TestBatchedSamplerAgainstReference:
    @pytest.fixture(scope="class")
    def forest(self, train_matrix):
        y = (train_matrix[:, 4] + train_matrix[:, 9] > np.median(train_matrix[:, 4] + train_matrix[:, 9]))
        return train_forest(train_matrix, y.astype(int), ForestConfig(n_trees=20), seed=3)

    @pytest.mark.parametrize("row, seed, n_samples", [(5, 0, 1000), (0, 7, 300), (123, 2, 1), (399, 9, 64)])
    def test_forest_scorer(self, train_matrix, forest, row, seed, n_samples):
        x = train_matrix[row]
        got = explain_instance(lambda rows: forest_predict_many(forest, rows), x, train_matrix,
                               n_samples=n_samples, seed=seed)
        assert got == reference_explain(lambda r: forest_predict_many(forest, r[None, :])[0], x,
                                        train_matrix, n_samples, seed)

    def test_linear_scorer_off_the_training_rows(self, train_matrix):
        x = train_matrix.max(axis=0) + 1.0  # every feature above its last quartile
        got = explain_instance(lambda rows: 0.3 * rows[:, 4] - 0.1 * rows[:, 9], x, train_matrix,
                               n_samples=500, seed=4)
        assert got == reference_explain(lambda r: 0.3 * r[4] - 0.1 * r[9], x, train_matrix, 500, 4)

    def test_scorer_must_return_one_score_per_row(self, train_matrix):
        with pytest.raises(ValueError, match="shape"):
            explain_instance(lambda rows: 0.5, train_matrix[0], train_matrix, n_samples=50)
