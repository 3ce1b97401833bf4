"""Evaluation metrics: confusion counts, rates, rank-sum AUC, ROC staircase."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fraudgnn.errors import EvalError, InputError
from fraudgnn.metrics import (ConfusionCounts, auc, confusion, evaluate_scores,
                              recall_precision_f1, roc_points)

from reference import pairwise_auc


class TestConfusion:
    def test_basic_counts(self):
        y = [1, 1, 0, 0, 1, 0]
        y_hat = [1, 0, 0, 1, 1, 0]
        c = confusion(y, y_hat)
        assert (c.tp, c.fn, c.fp, c.tn) == (2, 1, 1, 2)
        assert c.total == 6

    def test_length_mismatch(self):
        with pytest.raises(InputError, match="mismatch"):
            confusion([1, 0], [1])

    def test_non_binary_labels(self):
        with pytest.raises(InputError, match="labels"):
            confusion([1, 2], [1, 0])

    def test_non_binary_predictions(self):
        with pytest.raises(InputError, match="predictions"):
            confusion([1, 0], [1, -1])

    def test_non_binary_values_print_as_plain_ints(self):
        with pytest.raises(InputError) as exc:
            confusion([1, -1, 2, -1], [1, 0, 0, 0])
        assert str(exc.value) == "labels must be 0/1, found [-1, 2]"


class TestRates:
    def test_recall_three_quarters(self):
        c = ConfusionCounts(tp=3, fp=0, tn=5, fn=1)
        recall, _, _ = recall_precision_f1(c)
        assert recall == 0.75

    def test_precision_three_quarters(self):
        c = ConfusionCounts(tp=3, fp=1, tn=5, fn=0)
        _, precision, _ = recall_precision_f1(c)
        assert precision == 0.75

    def test_f1_balances_both(self):
        c = ConfusionCounts(tp=3, fp=1, tn=5, fn=1)
        recall, precision, f1 = recall_precision_f1(c)
        assert_allclose(f1, 2 * precision * recall / (precision + recall))

    def test_zero_over_zero_conventions(self):
        """No positives anywhere: every rate resolves to 0 rather than NaN."""
        c = ConfusionCounts(tp=0, fp=0, tn=4, fn=0)
        assert recall_precision_f1(c) == (0.0, 0.0, 0.0)

    def test_all_wrong(self):
        c = ConfusionCounts(tp=0, fp=3, tn=0, fn=2)
        recall, precision, f1 = recall_precision_f1(c)
        assert (recall, precision, f1) == (0.0, 0.0, 0.0)


class TestAuc:
    def test_perfectly_separated(self):
        assert auc([0.9, 0.4, 0.6, 0.2], [1, 0, 1, 0]) == 1.0

    def test_one_positive_outranked_by_one_negative(self):
        # positive 0.6 beats 0.4 and 0.2 but loses to 0.9: 2 of 3 pairs
        assert_allclose(auc([0.9, 0.4, 0.6, 0.2], [0, 0, 1, 0]), 2.0 / 3.0,
                        rtol=1e-15)

    def test_quarter(self):
        assert_allclose(auc([0.9, 0.4, 0.6, 0.2], [0, 0, 1, 1]), 0.25,
                        rtol=1e-15)

    def test_all_tied_scores_half(self):
        assert auc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5

    def test_no_positives(self):
        with pytest.raises(EvalError, match="no positive"):
            auc([0.1, 0.2], [0, 0])

    def test_no_negatives(self):
        with pytest.raises(EvalError, match="no negative"):
            auc([0.1, 0.2], [1, 1])

    def test_length_mismatch(self):
        with pytest.raises(InputError):
            auc([0.1], [1, 0])

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(31)
        s = rng.uniform(size=50)
        y = rng.integers(0, 2, size=50)
        y[:2] = [0, 1]
        base = auc(s, y)
        assert auc(3.0 * s + 7.0, y) == base
        assert_allclose(auc(1 / (1 + np.exp(-s)), y), base, rtol=1e-15)

    def test_matches_pairwise_oracle_with_ties(self):
        """Rank-sum vs brute-force pair counting over tied, quantized scores."""
        rng = np.random.default_rng(77)
        for _ in range(30):
            n = int(rng.integers(10, 200))
            scores = np.round(rng.uniform(size=n), 1)  # heavy ties
            labels = rng.integers(0, 2, size=n)
            labels[:2] = [0, 1]
            assert abs(auc(scores, labels) - pairwise_auc(scores, labels)) \
                <= 1e-12


class TestRocPoints:
    def test_perfect_staircase(self):
        pts = roc_points([0.9, 0.8, 0.3, 0.1], [1, 1, 0, 0])
        assert pts == [(0.0, 0.0), (0.0, 0.5), (0.0, 1.0), (0.5, 1.0),
                       (1.0, 1.0)]

    def test_tied_scores_merge_one_step(self):
        pts = roc_points([0.5, 0.5], [1, 0])
        assert pts == [(0.0, 0.0), (1.0, 1.0)]

    def test_needs_both_classes(self):
        with pytest.raises(EvalError):
            roc_points([0.1, 0.2], [1, 1])

    def test_ends_pinned(self):
        rng = np.random.default_rng(5)
        s = rng.uniform(size=30)
        y = rng.integers(0, 2, size=30)
        y[:2] = [0, 1]
        pts = roc_points(s, y)
        assert pts[0] == (0.0, 0.0)
        assert pts[-1] == (1.0, 1.0)


class TestEvaluateScores:
    def test_report_fields(self):
        labels = np.array([1, 1, 0, 0])
        p = np.array([0.9, 0.4, 0.6, 0.2])
        rep = evaluate_scores(labels, p)
        assert (rep.tp, rep.fn, rep.fp, rep.tn) == (1, 1, 1, 1)
        assert rep.recall == 0.5
        assert rep.precision == 0.5
        assert_allclose(rep.auc, 0.75)

    def test_threshold_is_inclusive(self):
        rep = evaluate_scores(np.array([1, 0]), np.array([0.5, 0.49]))
        assert (rep.tp, rep.fp) == (1, 0)

    def test_to_text_uses_full_precision(self):
        labels = np.array([1, 1, 1, 1, 0])
        p = np.array([0.9, 0.8, 0.7, 0.3, 0.1])
        text = evaluate_scores(labels, p).to_text()
        assert "recall = 0.75" in text
        assert "auc = 1.0" in text
        assert "tp 3" in text and "fn 1" in text
