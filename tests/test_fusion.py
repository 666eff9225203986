"""Early-fusion algebra, late-fusion rules, and sweep behavior."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jitdp.deep_model import DeepConfig, init_deep_params, train_deep, score_dataset
from jitdp.fusion import (
    EARLY_STRATEGIES,
    LATE_RULES,
    LateFusionRule,
    apply_bundle_rule,
    early_fuse_forward,
    early_fused_dim,
    early_fusion_init,
    late_fuse,
    late_fuse_many,
    sweep_combinations,
    write_sweep_log,
)


def _rand_inputs(rng, b=4, dim=8, dm=1, k=13):
    return (rng.normal(size=(b, dim)), rng.normal(size=(b, dm)), rng.normal(size=(b, k)))


class TestEarlyFuseDims:
    def test_simple_concatenation_dimension(self):
        # dim(Z_m)=8 and dim(Z_c)=8 -> x of 16, plus 1 categorical and 13
        # continuous -> 30
        assert early_fused_dim("sc", 16, 1, 13) == 30
        assert early_fused_dim("tc", 16, 1, 13) == 30
        assert early_fused_dim("amf", 16, 1, 13) == 16
        assert early_fused_dim("gmf", 16, 1, 13) == 16
        assert early_fused_dim("none", 16, 1, 13) == 16

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            early_fused_dim("mystery", 4, 1, 1)


class TestSimpleAndTransformConcat:
    def test_sc_is_plain_concatenation(self):
        rng = np.random.default_rng(0)
        x, t, n = _rand_inputs(rng)
        c, _ = early_fuse_forward({}, "sc", x, t, n)
        assert np.array_equal(c, np.concatenate([x, t, n], axis=1))

    def test_tc_transforms_with_learnable_matrices(self):
        rng = np.random.default_rng(1)
        x, t, n = _rand_inputs(rng)
        params = early_fusion_init(rng, "tc", x.shape[1], 1, 13)
        c, _ = early_fuse_forward(params, "tc", x, t, n)
        assert np.allclose(c[:, : x.shape[1]], x)
        assert np.allclose(c[:, x.shape[1] : x.shape[1] + 1], t @ params["fuse.w_cat"].T)

    def test_none_is_identity(self):
        rng = np.random.default_rng(2)
        x, t, n = _rand_inputs(rng)
        c, _ = early_fuse_forward({}, "none", x, t, n)
        assert c is x


class TestAttentionFusion:
    def test_coefficients_sum_to_one_and_nonnegative(self):
        rng = np.random.default_rng(3)
        for trial in range(200):
            x, t, n = _rand_inputs(rng, b=3)
            params = early_fusion_init(rng, "amf", x.shape[1], 1, 13)
            _, cache = early_fuse_forward(params, "amf", x, t, n)
            alpha = cache["alpha"]
            assert np.all(alpha >= 0)
            assert np.allclose(alpha.sum(axis=1), 1.0, atol=1e-9)

    def test_equal_projections_give_thirds(self):
        rng = np.random.default_rng(4)
        dim = 6
        x = rng.normal(size=(2, dim))
        params = {
            "fuse.w_x": np.eye(dim),
            "fuse.w_t": np.eye(dim),
            "fuse.w_n": np.eye(dim),
            "fuse.attn": rng.normal(size=2 * dim),
        }
        c, cache = early_fuse_forward(params, "amf", x, x, x)
        assert np.allclose(cache["alpha"], 1 / 3, atol=1e-12)
        assert np.allclose(c, x, atol=1e-12)

    def test_output_in_common_dimension(self):
        rng = np.random.default_rng(5)
        x, t, n = _rand_inputs(rng)
        params = early_fusion_init(rng, "amf", x.shape[1], 1, 13)
        c, _ = early_fuse_forward(params, "amf", x, t, n)
        assert c.shape == x.shape


class TestGatingFusion:
    def _forward(self, rng, beta, b=3):
        x, t, n = _rand_inputs(rng, b=b)
        params = early_fusion_init(rng, "gmf", x.shape[1], 1, 13)
        c, cache = early_fuse_forward(params, "gmf", x, t, n, gmf_beta=beta)
        return x, c, cache

    def test_alpha_follows_rescale_formula(self):
        rng = np.random.default_rng(6)
        x, c, cache = self._forward(rng, beta=1.0)
        h = cache["h"]
        norm_x = np.linalg.norm(x, axis=1)
        norm_h = np.linalg.norm(h, axis=1)
        expected = np.minimum(norm_x / norm_h, 1.0)
        assert np.allclose(cache["alpha"], expected, atol=1e-12)
        assert np.allclose(c, x + cache["alpha"][:, None] * h, atol=1e-12)

    def test_half_alpha_when_h_twice_x(self):
        # pick beta so that beta * |x| / |h| = 0.5 exactly
        rng = np.random.default_rng(7)
        x, _, cache = self._forward(rng, beta=1.0, b=1)
        h = cache["h"]
        beta = 0.5 * np.linalg.norm(h) / np.linalg.norm(x)
        rng = np.random.default_rng(7)
        x2, c2, cache2 = self._forward(rng, beta=float(beta), b=1)
        assert cache2["alpha"][0] == pytest.approx(0.5, abs=1e-12)
        assert np.allclose(c2, x2 + 0.5 * cache2["h"], atol=1e-12)

    def test_exact_sum_when_beta_large(self):
        rng = np.random.default_rng(8)
        x, c, cache = self._forward(rng, beta=1e6)
        assert np.all(cache["alpha"] == 1.0)
        assert np.array_equal(c, x + cache["h"])

    def test_alpha_in_unit_interval(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            _, _, cache = self._forward(rng, beta=float(rng.uniform(0.1, 3.0)))
            assert np.all(cache["alpha"] > 0)
            assert np.all(cache["alpha"] <= 1.0)

    def test_gates_are_nonnegative(self):
        rng = np.random.default_rng(10)
        _, _, cache = self._forward(rng, beta=1.0)
        assert np.all(cache["g_t"] >= 0)
        assert np.all(cache["g_n"] >= 0)

    def test_zero_h_defaults_alpha_to_one(self):
        rng = np.random.default_rng(11)
        x, t, n = _rand_inputs(rng, b=2)
        params = early_fusion_init(rng, "gmf", x.shape[1], 1, 13)
        for name in ("fuse.w_gt", "fuse.w_gn", "fuse.w_t", "fuse.w_n", "fuse.b_h",
                     "fuse.b_t", "fuse.b_n"):
            params[name] = np.zeros_like(params[name])
        c, cache = early_fuse_forward(params, "gmf", x, t, n, gmf_beta=1.0)
        assert np.all(cache["alpha"] == 1.0)
        assert np.array_equal(c, x)


class TestLateFusion:
    def test_simple_average(self):
        assert late_fuse(LateFusionRule("simple"), [0.2, 0.8]) == pytest.approx(0.5)

    def test_geometric_idempotent(self):
        assert late_fuse(LateFusionRule("geometric"), [0.5, 0.5, 0.5]) == pytest.approx(0.5)

    def test_weighted_hand_arithmetic(self):
        # (0.2*3 + 0.8*1) / 4 = 0.35
        rule = LateFusionRule("weighted", weights=(3.0, 1.0))
        assert late_fuse(rule, [0.2, 0.8]) == pytest.approx(0.35)

    def test_empty_scores_rejected(self):
        with pytest.raises(ValueError):
            late_fuse(LateFusionRule("simple"), [])

    def test_non_positive_weights_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            late_fuse(LateFusionRule("weighted", weights=(1.0, 0.0)), [0.2, 0.8])

    def test_geometric_clamps_zeros(self):
        value = late_fuse(LateFusionRule("geometric"), [0.0, 1.0])
        assert value == pytest.approx(1e-6, rel=1e-6)

    def test_geometric_never_exceeds_arithmetic(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            scores = rng.random(int(rng.integers(2, 5)))
            geo = late_fuse(LateFusionRule("geometric"), scores)
            ari = late_fuse(LateFusionRule("simple"), scores)
            assert geo <= ari + 1e-12
            if not np.allclose(scores, scores[0]):
                assert geo < ari

    def test_all_rules_monotone(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            scores = rng.random(3)
            bumped = scores.copy()
            i = int(rng.integers(0, 3))
            bumped[i] = min(1.0, bumped[i] + rng.random() * (1 - bumped[i]))
            for rule in (LateFusionRule("simple"), LateFusionRule("geometric"),
                         LateFusionRule("weighted", weights=(2.0, 1.0, 3.0))):
                assert late_fuse(rule, bumped) >= late_fuse(rule, scores) - 1e-15

    def test_symmetric_rules_permutation_invariant(self):
        rng = np.random.default_rng(14)
        scores = rng.random(3)
        perm = scores[[2, 0, 1]]
        for rule in (LateFusionRule("simple"), LateFusionRule("geometric")):
            assert late_fuse(rule, perm) == pytest.approx(late_fuse(rule, scores), abs=1e-15)

    def test_weighted_permutation_equivariant(self):
        scores = np.array([0.1, 0.5, 0.9])
        weights = (1.0, 2.0, 3.0)
        base = late_fuse(LateFusionRule("weighted", weights), scores)
        perm = late_fuse(LateFusionRule("weighted", (3.0, 1.0, 2.0)), scores[[2, 0, 1]])
        assert perm == pytest.approx(base, abs=1e-15)


_score_matrices = st.integers(1, 4).flatmap(lambda k: st.tuples(
    st.lists(st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k), min_size=0, max_size=30),
    st.lists(st.floats(0.05, 5.0), min_size=k, max_size=k)))


def _rules(k, weights):
    rules = [LateFusionRule("simple"), LateFusionRule("geometric"),
             LateFusionRule("weighted", tuple(weights))]
    return rules + [LateFusionRule("none")] if k == 1 else rules


class TestLateFuseMany:
    """The array form of every rule against per-commit late_fuse."""

    @settings(max_examples=60, deadline=None)
    @given(case=_score_matrices, seed=st.integers(0, 1000))
    def test_matches_per_column_and_permutation_invariant(self, case, seed):
        columns, weights = case
        k = len(weights)
        m = np.array(columns, dtype=np.float64).reshape(-1, k).T
        perm = np.random.default_rng(seed).permutation(m.shape[1])
        for rule in _rules(k, weights):
            fused = late_fuse_many(rule, m)
            per_column = np.array([late_fuse(rule, m[:, j]) for j in range(m.shape[1])])
            assert fused.shape == (m.shape[1],)
            assert np.array_equal(fused, per_column)
            assert np.array_equal(late_fuse_many(rule, m[:, perm]), fused[perm])

    @pytest.mark.parametrize("k", [2, 3])
    def test_matches_reference_formulas(self, k):
        m = np.random.default_rng(k).random((k, 50))
        w = np.array([0.2, 0.5, 0.3])[:k]
        for j in range(50):
            s = m[:, j]
            assert late_fuse_many(LateFusionRule("simple"), m)[j] == float(s.mean())
            assert late_fuse_many(LateFusionRule("weighted", tuple(w)), m)[j] == \
                float((s * w).sum() / w.sum())
            assert late_fuse_many(LateFusionRule("geometric"), m)[j] == \
                float(np.exp(np.mean(np.log(np.clip(s, 1e-12, 1.0)))))

    @pytest.mark.parametrize("rule, rows, match", [
        (LateFusionRule("weighted", (0.5, 0.5)), 3, "weight count"),
        (LateFusionRule("weighted", (1.0, 0.0)), 2, "positive"),
        (LateFusionRule("weighted", (1.0, -1.0)), 2, "positive"),
        (LateFusionRule("none"), 2, "single"),
        (LateFusionRule("median"), 2, "unknown"),
        (LateFusionRule("simple"), 0, "at least one"),
    ])
    def test_errors_still_raise(self, rule, rows, match):
        with pytest.raises(ValueError, match=match):
            late_fuse_many(rule, np.full((rows, 4), 0.5))


class TestSweep:
    def _identical_scores(self, n=40):
        rng = np.random.default_rng(15)
        labels = rng.integers(0, 2, n)
        labels[:2] = [0, 1]
        scores = rng.random(n)
        early = {s: scores.copy() for s in ("sc", "tc", "amf", "gmf")}
        return labels, scores, early

    def test_twenty_cells_enumerated(self):
        labels, scores, early = self._identical_scores()
        result = sweep_combinations(labels, scores.copy(), scores.copy(), early)
        assert len(result.cells) == 20
        seen = [(c.early, c.late) for c in result.cells]
        assert seen == [(e, l) for e in EARLY_STRATEGIES for l in LATE_RULES]

    def test_identical_scorers_tie_break_to_first_cell(self):
        labels, scores, early = self._identical_scores()
        result = sweep_combinations(labels, scores.copy(), scores.copy(), early)
        values = [c.auc_pr for c in result.cells]
        assert max(values) == pytest.approx(values[0], abs=1e-12)
        assert (result.best.early, result.best.late) == ("sc", "simple")

    def test_best_cell_is_argmax_of_log(self):
        rng = np.random.default_rng(16)
        labels = rng.integers(0, 2, 60)
        labels[:2] = [0, 1]
        sim = rng.random(60)
        com = np.clip(labels + rng.normal(scale=0.6, size=60), 0, 1)
        early = {s: np.clip(labels + rng.normal(scale=0.4, size=60), 0, 1)
                 for s in ("sc", "tc", "amf", "gmf")}
        result = sweep_combinations(labels, sim, com, early)
        assert result.best.auc_pr == max(c.auc_pr for c in result.cells)

    def test_empty_validation_rejected(self):
        with pytest.raises(ValueError):
            sweep_combinations(np.array([]), np.array([]), np.array([]), {})

    def test_log_file_has_twenty_rows(self, tmp_path):
        labels, scores, early = self._identical_scores()
        result = sweep_combinations(labels, scores.copy(), scores.copy(), early)
        path = tmp_path / "sweep.csv"
        write_sweep_log(path, result)
        lines = path.read_text().splitlines()
        assert len(lines) == 21

    def test_apply_bundle_rule_matches_manual_composition(self):
        rng = np.random.default_rng(17)
        sim, com, early = rng.random(9), rng.random(9), rng.random(9)
        fused = apply_bundle_rule("gmf", "simple", None, sim, com, early)
        assert np.allclose(fused, (sim + com + early) / 3, atol=1e-15)
        alone = apply_bundle_rule("none", "none", None, sim, com, None)
        assert np.array_equal(alone, com)

    def test_threshold_rule_on_fused_scores(self):
        fused = apply_bundle_rule("none", "simple", None,
                                  np.array([0.9, 0.4]), np.array([0.9, 0.4]), None)
        assert np.array_equal(fused > 0.5, [True, False])
