"""Evaluation metrics: confusion counts, rates, rank-sum AUC, ROC staircase."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import fraudgnn
from fraudgnn.errors import EvalError, InputError
from fraudgnn.metrics import (ConfusionCounts, _average_ranks, auc, confusion,
                              evaluate_scores, recall_precision_f1, roc_points)

from reference import (loop_roc_points, oracle_rank_auc, oracle_ranks,
                       pairwise_auc)

SRC = os.path.dirname(os.path.dirname(fraudgnn.__file__))

# Values whose ties are easy to get wrong: signed zeros, infinities and
# subnormals, next to ordinary floats.
SPECIAL = [0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 1e-310, 0.5]


@st.composite
def tied_scores(draw, min_size=1):
    """1-300 scores drawn from a pool of at most 8 values: heavy ties."""
    value = st.sampled_from(SPECIAL) | st.floats(allow_nan=False)
    pool = draw(st.lists(value, min_size=1, max_size=8))
    return np.array(draw(st.lists(st.sampled_from(pool), min_size=min_size,
                                  max_size=300)))


@st.composite
def scored_labels(draw):
    """Tied scores and 0/1 labels of the same length, both classes present."""
    scores = draw(tied_scores(min_size=2))
    labels = np.array(draw(st.lists(st.integers(0, 1), min_size=len(scores),
                                    max_size=len(scores))))
    assume(0 < labels.sum() < len(labels))
    return scores, labels


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

    def test_nan_score_raises(self):
        with pytest.raises(InputError) as exc:
            auc([0.3, np.nan, 0.7, np.nan], [1, 0, 1, 0])
        assert str(exc.value) == ("scores hold 2 NaN value(s), the first at "
                                  "position 1")

    def test_infinite_scores_rank_at_the_ends(self):
        assert auc([np.inf, -np.inf, 0.5, 0.5], [1, 0, 1, 0]) == 0.875

    @settings(max_examples=300, deadline=None)
    @given(case=scored_labels())
    def test_bit_equal_to_the_oracle_rank_auc(self, case):
        scores, labels = case
        assert (np.float64(auc(scores, labels)).tobytes()
                == np.float64(oracle_rank_auc(scores, labels)).tobytes())

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


class TestAverageRanks:
    @settings(max_examples=300, deadline=None)
    @given(scores=tied_scores())
    def test_bit_equal_to_rankdata(self, scores):
        assert _average_ranks(scores).tobytes() == oracle_ranks(scores).tobytes()

    def test_signed_zeros_tie(self):
        assert _average_ranks(np.array([0.0, -1.0, -0.0])).tolist() == \
            [2.5, 1.0, 2.5]


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

    @settings(max_examples=300, deadline=None)
    @given(case=scored_labels())
    def test_equals_the_per_score_loop(self, case):
        scores, labels = case
        pts = roc_points(scores, labels)
        assert pts == loop_roc_points(scores, labels)
        assert all(type(v) is float for pt in pts for v in pt)

    def test_nan_score_raises(self):
        """In a child process: a NaN once made roc_points loop forever."""
        code = ("from fraudgnn.metrics import roc_points\n"
                "roc_points([0.2, float('nan'), 0.7], [1, 0, 0])\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, env.get("PYTHONPATH")) if p)
        try:
            out = subprocess.run([sys.executable, "-c", code], env=env,
                                 capture_output=True, text=True, timeout=60)
        except subprocess.TimeoutExpired:
            pytest.fail("roc_points did not return on a NaN score")
        assert out.returncode != 0
        assert out.stderr.strip().endswith(
            "InputError: scores hold 1 NaN value(s), the first at position 1")


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
