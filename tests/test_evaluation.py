"""Metric and statistics tests: every value asserted here is either forced
by the definition or computed with an independent oracle (brute-force pair
counting, step-curve enumeration, exhaustive sign-assignment enumeration)."""

import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jitdp.evaluation import (
    _average_ranks,
    cliffs_delta,
    correction_analysis,
    group_metric_samples,
    overlap_analysis,
    pr_auc,
    prf1,
    roc_auc,
    wilcoxon_signed_rank,
)


def brute_force_roc(scores, labels):
    """Oracle: count concordant positive/negative pairs, ties worth 0.5."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def step_curve_ap(scores, labels):
    """Oracle: walk the PR step curve over distinct thresholds."""
    n_pos = sum(labels)
    thresholds = sorted(set(scores), reverse=True)
    ap, prev_recall = 0.0, 0.0
    for t in thresholds:
        taken = [(s, y) for s, y in zip(scores, labels) if s >= t]
        tp = sum(y for _, y in taken)
        precision = tp / len(taken)
        recall = tp / n_pos
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return ap


class TestRocAuc:
    def test_perfect_separation(self):
        assert roc_auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_spec_example(self):
        # 3 of the 4 positive/negative pairs ordered correctly
        assert roc_auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == pytest.approx(0.75, abs=1e-12)

    def test_all_ties(self):
        assert roc_auc([0.5] * 6, [0, 1, 0, 1, 0, 1]) == pytest.approx(0.5, abs=1e-12)

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(1234)
        for _ in range(200):
            n = int(rng.integers(4, 51))
            scores = np.round(rng.random(n), 2)  # rounding forces ties
            labels = rng.integers(0, 2, n)
            if labels.sum() in (0, n):
                labels[0], labels[-1] = 0, 1
            assert roc_auc(scores, labels) == pytest.approx(
                brute_force_roc(scores, labels), abs=1e-12)

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(7)
        scores = rng.random(30)
        labels = rng.integers(0, 2, 30)
        labels[0], labels[1] = 0, 1
        assert roc_auc(np.exp(3 * scores), labels) == pytest.approx(
            roc_auc(scores, labels), abs=1e-12)

    def test_negated_scores_complement_when_tie_free(self):
        rng = np.random.default_rng(17)
        scores = rng.random(40)  # continuous draws, ties have probability 0
        labels = rng.integers(0, 2, 40)
        labels[0], labels[1] = 0, 1
        assert roc_auc(-scores, labels) == pytest.approx(
            1.0 - roc_auc(scores, labels), abs=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            roc_auc([0.1, 0.2], [1, 1])


class TestPrAuc:
    def test_perfect_ranking_any_prevalence(self):
        assert pr_auc([0.9, 0.8, 0.1, 0.05], [1, 1, 0, 0]) == pytest.approx(1.0, abs=1e-12)

    def test_spec_step_curve_example(self):
        assert pr_auc([0.9, 0.8, 0.7], [1, 0, 1]) == pytest.approx(5 / 6, abs=1e-12)

    def test_matches_enumerated_step_curves(self):
        rng = np.random.default_rng(99)
        for _ in range(20):
            n = int(rng.integers(3, 25))
            scores = np.round(rng.random(n), 1)
            labels = rng.integers(0, 2, n)
            if labels.sum() == 0:
                labels[0] = 1
            assert pr_auc(scores, labels) == pytest.approx(
                step_curve_ap(list(scores), list(labels)), abs=1e-12)

    def test_random_scores_approach_prevalence(self):
        rng = np.random.default_rng(5)
        n = 20_000
        labels = (rng.random(n) < 0.3).astype(int)
        scores = rng.random(n)
        assert pr_auc(scores, labels) == pytest.approx(0.3, abs=0.05)

    def test_no_positives_rejected(self):
        with pytest.raises(ValueError):
            pr_auc([0.4, 0.5], [0, 0])


class TestPrf1:
    def test_all_correct_single_positive(self):
        r = prf1([0.9], [1])
        assert (r.precision, r.recall, r.f1) == (1.0, 1.0, 1.0)

    def test_harmonic_mean_identity(self):
        # precision = recall = 2/3 -> f1 = 2/3
        r = prf1([0.9, 0.9, 0.1, 0.9, 0.1, 0.1], [1, 1, 1, 0, 0, 0])
        assert r.precision == pytest.approx(r.recall)
        assert r.f1 == pytest.approx(r.precision)

    def test_hand_arithmetic(self):
        # TP=3, FP=1, FN=2 -> precision .75, recall .6, f1 = 2/3
        scores = [0.9, 0.9, 0.9, 0.9, 0.1, 0.1]
        labels = [1, 1, 1, 0, 1, 1]
        r = prf1(scores, labels)
        assert (r.tp, r.fp, r.fn) == (3, 1, 2)
        assert r.precision == pytest.approx(0.75)
        assert r.recall == pytest.approx(0.6)
        assert r.f1 == pytest.approx(2 / 3)

    def test_zero_denominator_conventions(self):
        r = prf1([0.1, 0.2], [0, 1])
        assert (r.precision, r.f1) == (0.0, 0.0)

    def test_confusion_counts_partition(self):
        rng = np.random.default_rng(3)
        scores = rng.random(57)
        labels = rng.integers(0, 2, 57)
        r = prf1(scores, labels)
        assert r.tp + r.fp + r.tn + r.fn == 57


def enumerate_wilcoxon(diffs):
    """Oracle: exhaustive p over all sign assignments with average ranks."""
    diffs = [d for d in diffs if d != 0]
    n = len(diffs)
    mags = sorted(range(n), key=lambda i: abs(diffs[i]))
    ranks = [0.0] * n
    i = 0
    while i < n:
        j = i
        while j + 1 < n and abs(diffs[mags[j + 1]]) == abs(diffs[mags[i]]):
            j += 1
        for k in range(i, j + 1):
            ranks[mags[k]] = (i + j) / 2 + 1
        i = j + 1
    w_obs = sum(r for r, d in zip(ranks, diffs) if d > 0)
    total = sum(ranks)
    center = total / 2
    hits = 0
    for signs in product([0, 1], repeat=n):
        w = sum(r for r, s in zip(ranks, signs) if s)
        if abs(w - center) >= abs(w_obs - center) - 1e-12:
            hits += 1
    return w_obs, hits / 2**n


class TestWilcoxon:
    def test_identical_samples_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            wilcoxon_signed_rank([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])

    def test_too_few_nonzero_differences(self):
        with pytest.raises(ValueError, match="at least 6"):
            wilcoxon_signed_rank([1, 2, 3, 4, 5], [0, 1, 2, 3, 4])

    def test_constant_shift_is_significant_at_n20(self):
        a = np.arange(20, dtype=float)
        _, p = wilcoxon_signed_rank(a + 1.0, a)
        assert p < 0.05

    def test_matches_enumeration_n8(self):
        a = [2.1, 0.4, 3.3, -1.2, 0.9, 4.0, -0.5, 2.8]
        b = [0.0] * 8
        w, p = wilcoxon_signed_rank(a, b)
        w_ref, p_ref = enumerate_wilcoxon(a)
        assert w == w_ref
        assert p == pytest.approx(p_ref, abs=1e-12)

    def test_matches_enumeration_small_n_with_ties(self):
        rng = np.random.default_rng(21)
        for n in range(6, 11):
            diffs = np.round(rng.normal(size=n), 1)
            diffs[diffs == 0] = 0.1
            w, p = wilcoxon_signed_rank(diffs, np.zeros(n))
            w_ref, p_ref = enumerate_wilcoxon(list(diffs))
            assert w == w_ref
            assert p == pytest.approx(p_ref, abs=1e-12)


class TestCliffsDelta:
    def test_identical_samples(self):
        d, mag = cliffs_delta([1, 2, 3], [1, 2, 3])
        assert d == 0.0 and mag == "Negligible"

    def test_complete_dominance(self):
        d, mag = cliffs_delta([10, 11], [1, 2])
        assert d == 1.0 and mag == "Large"

    def test_medium_band(self):
        # delta = (7*5 - 0)/... construct delta = 0.4 exactly: a > b in 7 of 10 pairs, < in 3
        a = [3, 1]
        b = [2, 2, 2, 0, 0]  # pairs: 3>2 x3, 3>0 x2, 1<2 x3, 1>0 x2 -> (7-3)/10 = 0.4
        d, mag = cliffs_delta(a, b)
        assert d == pytest.approx(0.4, abs=1e-12)
        assert mag == "Medium"

    def test_band_boundaries_left_closed(self):
        cases = [(0.1468, "Negligible"), (0.147, "Small"), (0.33, "Medium"), (0.474, "Large")]
        for target, expected in cases:
            # delta = (k wins - (10000-k) losses)/10000, exact in binary
            k = round((target + 1) * 5000)
            b = [0.0] * k + [2.0] * (10_000 - k)
            d, mag = cliffs_delta([1.0], b)
            assert d == pytest.approx(target, abs=1e-12)
            assert mag == expected

    def test_antisymmetry(self):
        rng = np.random.default_rng(11)
        a, b = rng.random(17), rng.random(23)
        d_ab, _ = cliffs_delta(a, b)
        d_ba, _ = cliffs_delta(b, a)
        assert d_ab == -d_ba
        assert -1.0 <= d_ab <= 1.0


class TestGroupSamples:
    def test_equal_group_sizes(self):
        rng = np.random.default_rng(0)
        scores = rng.random(100)
        labels = np.array([1, 0] * 50)
        rocs, prs, groups = group_metric_samples(scores, labels, k=10, seed=4)
        assert [len(g) for g in groups] == [10] * 10
        assert len(rocs) == len(prs) == 10

    def test_groups_partition_index_set(self):
        rng = np.random.default_rng(0)
        scores = rng.random(83)
        labels = (rng.random(83) < 0.4).astype(int)
        _, _, groups = group_metric_samples(scores, labels, k=10, seed=4)
        joined = sorted(int(i) for g in groups for i in g)
        assert joined == list(range(83))

    def test_per_group_values_match_direct_recomputation(self):
        rng = np.random.default_rng(8)
        scores = rng.random(120)
        labels = (rng.random(120) < 0.5).astype(int)
        rocs, prs, groups = group_metric_samples(scores, labels, k=10, seed=2)
        for r, p, g in zip(rocs, prs, groups):
            assert r == pytest.approx(roc_auc(scores[g], labels[g]), abs=1e-12)
            assert p == pytest.approx(pr_auc(scores[g], labels[g]), abs=1e-12)

    def test_retries_exhausted_on_extreme_skew(self):
        # a single positive cannot appear in every group
        scores = np.linspace(0, 1, 40)
        labels = np.zeros(40, dtype=int)
        labels[3] = 1
        with pytest.raises(ValueError, match="no valid"):
            group_metric_samples(scores, labels, k=10, seed=0)


class TestOverlap:
    def test_set_algebra(self):
        # A TPs {1,2,3}, B TPs {2,3,4} on 5 positives
        labels = [1, 1, 1, 1, 1, 0]
        a = [1, 1, 1, 0, 0, 0]
        b = [0, 1, 1, 1, 0, 0]
        rep = overlap_analysis(a, b, labels)
        assert rep.common_tp == 2 and rep.unique_tp_a == 1 and rep.unique_tp_b == 1

    def test_reference_unique_tp_ratio(self):
        # 2229 common + 575 unique-A true positives -> 575/2804 = 20.5%
        labels = [1] * (2229 + 575 + 628) + [0]
        a = [1] * 2229 + [1] * 575 + [0] * 628 + [0]
        b = [1] * 2229 + [0] * 575 + [1] * 628 + [0]
        rep = overlap_analysis(a, b, labels)
        assert rep.unique_tp_a == 575 and rep.common_tp == 2229
        assert round(100 * rep.unique_tp_ratio_a, 1) == 20.5
        assert round(100 * rep.unique_tp_ratio_b, 1) == 22.0

    def test_reference_unique_fp_ratio(self):
        # 1851 of 3904 false positives unique to A -> 47.4%; 1551/3604 -> 43.0%
        common = 3904 - 1851
        assert common == 3604 - 1551
        labels = [0] * (common + 1851 + 1551) + [1]
        a = [1] * common + [1] * 1851 + [0] * 1551 + [0]
        b = [1] * common + [0] * 1851 + [1] * 1551 + [0]
        rep = overlap_analysis(a, b, labels)
        assert round(100 * rep.unique_fp_ratio_a, 1) == 47.4
        assert round(100 * rep.unique_fp_ratio_b, 1) == 43.0


class TestCorrection:
    def test_identical_predictions(self):
        rep = correction_analysis([1, 0, 1], [1, 0, 1], [1, 1, 0])
        assert rep.different == 0 and rep.net_correction_ratio == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            correction_analysis([1, 0], [1], [1, 0])
        with pytest.raises(ValueError, match="length"):
            overlap_analysis([1, 0], [1, 0], [1])

    def test_reference_count_set_a(self):
        # different 3113, wrong->correct 1857, correct->wrong 1256 -> 19.3%
        fused, comp, labels = [], [], []
        fused += [1] * 1857 + [0] * 1256
        comp += [0] * 1857 + [1] * 1256
        labels += [1] * 1857 + [1] * 1256
        rep = correction_analysis(fused, comp, labels)
        assert rep.different == 3113
        assert rep.net_correction == 601
        assert round(100 * rep.net_correction_ratio, 1) == 19.3

    def test_reference_count_set_b(self):
        # The recorded counts (different 1945, wrong->correct 1087,
        # correct->wrong 853) only add up if five disagreements matched
        # neither model's prediction to the recorded label; realized here
        # with sentinel labels so the stated ratio arithmetic is exercised.
        fused = [1] * 1087 + [0] * 853 + [1] * 5
        comp = [0] * 1087 + [1] * 853 + [0] * 5
        labels = [1] * 1087 + [1] * 853 + [-1] * 5
        rep = correction_analysis(fused, comp, labels)
        assert rep.different == 1945
        assert rep.net_correction == 234
        assert round(100 * rep.net_correction_ratio, 1) == 12.0


def loop_average_ranks(values):
    """Oracle: the scalar tie-group loop that _average_ranks replaces."""
    order = np.argsort(values, kind="mergesort")
    ranks = np.empty(len(values), dtype=np.float64)
    sorted_vals = values[order]
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def loop_pr_auc(scores, labels):
    """Oracle: the scalar tie-group loop that pr_auc replaces."""
    n_pos = int(labels.sum())
    order = np.argsort(-scores, kind="mergesort")
    s_sorted = scores[order]
    y_sorted = labels[order]
    ap, tp, seen, prev_recall, i, n = 0.0, 0, 0, 0.0, 0, len(scores)
    while i < n:
        j = i
        while j + 1 < n and s_sorted[j + 1] == s_sorted[i]:
            j += 1
        tp += int(y_sorted[i : j + 1].sum())
        seen += j - i + 1
        recall = tp / n_pos
        precision = tp / seen
        ap += (recall - prev_recall) * precision
        prev_recall = recall
        i = j + 1
    return ap


_tied_scores = st.integers(1, 12).flatmap(
    lambda levels: st.lists(st.integers(0, levels).map(lambda v: v / levels), min_size=1,
                            max_size=200))


class TestVectorizedRankingAgainstLoops:
    """The array forms of pr_auc and _average_ranks match their loops bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(scores=st.one_of(_tied_scores, st.lists(st.floats(0.0, 1.0), min_size=1, max_size=200)),
           seed=st.integers(0, 1000))
    def test_pr_auc_and_ranks_bitwise(self, scores, seed):
        scores = np.array(scores)
        labels = (np.random.default_rng(seed).random(len(scores)) < 0.3).astype(np.int64)
        labels[seed % len(labels)] = 1
        assert pr_auc(scores, labels) == loop_pr_auc(scores, labels)
        assert np.array_equal(_average_ranks(scores), loop_average_ranks(scores))

    def test_nan_scores_form_their_own_groups(self):
        scores = np.array([0.5, np.nan, 0.5, np.nan, 0.2])
        labels = np.array([1, 0, 0, 1, 1])
        assert pr_auc(scores, labels) == loop_pr_auc(scores, labels)
        assert np.array_equal(_average_ranks(scores), loop_average_ranks(scores))

    def test_empty_ranks(self):
        assert _average_ranks(np.array([])).shape == (0,)

    @settings(max_examples=50, deadline=None)
    @given(scores=_tied_scores, seed=st.integers(0, 1000))
    def test_invariant_under_permutation(self, scores, seed):
        rng = np.random.default_rng(seed)
        scores = np.array(scores)
        labels = (rng.random(len(scores)) < 0.4).astype(np.int64)
        labels[0] = 1
        perm = rng.permutation(len(scores))
        assert pr_auc(scores[perm], labels[perm]) == pr_auc(scores, labels)
        assert np.array_equal(_average_ranks(scores[perm]), _average_ranks(scores)[perm])
