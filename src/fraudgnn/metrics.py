"""Binary classification evaluation with fraud as the positive class."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EvalError, InputError


@dataclass
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


@dataclass
class EvalReport:
    """Confusion counts plus the derived rates and the ranking AUC."""

    tp: int
    fp: int
    tn: int
    fn: int
    recall: float
    precision: float
    f1: float
    auc: float

    def to_text(self) -> str:
        lines = [
            "confusion (rows: actual, cols: predicted; positive = fraud)",
            f"  tp {self.tp}  fn {self.fn}",
            f"  fp {self.fp}  tn {self.tn}",
            f"recall = {repr(float(self.recall))}",
            f"precision = {repr(float(self.precision))}",
            f"f1 = {repr(float(self.f1))}",
            f"auc = {repr(float(self.auc))}",
        ]
        return "\n".join(lines) + "\n"


def _check_binary(name: str, values: np.ndarray):
    bad = set(np.unique(values).tolist()) - {0, 1}
    if bad:
        raise InputError(f"{name} must be 0/1, found {sorted(bad)}")


def confusion(y: np.ndarray, y_hard: np.ndarray) -> ConfusionCounts:
    """Count hits and misses of hard predictions against true labels."""
    y = np.asarray(y, dtype=np.int64)
    y_hard = np.asarray(y_hard, dtype=np.int64)
    if y.shape != y_hard.shape:
        raise InputError(
            f"label/prediction length mismatch: {y.shape} vs {y_hard.shape}")
    _check_binary("labels", y)
    _check_binary("predictions", y_hard)
    tp = int(np.sum((y == 1) & (y_hard == 1)))
    fp = int(np.sum((y == 0) & (y_hard == 1)))
    tn = int(np.sum((y == 0) & (y_hard == 0)))
    fn = int(np.sum((y == 1) & (y_hard == 0)))
    return ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn)


def recall_precision_f1(counts: ConfusionCounts) -> tuple[float, float, float]:
    """Standard rates; any 0/0 resolves to 0."""
    recall = counts.tp / (counts.tp + counts.fn) if counts.tp + counts.fn else 0.0
    precision = counts.tp / (counts.tp + counts.fp) if counts.tp + counts.fp else 0.0
    f1 = (2 * precision * recall / (precision + recall)
          if precision + recall else 0.0)
    return recall, precision, f1


def _ranked_input(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    """Scores and labels as arrays of one shape, with no NaN score.

    A NaN has no place in a ranking: it would sort last and count as the
    highest score. +-inf rank as the largest and smallest scores.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if scores.shape != labels.shape:
        raise InputError(
            f"score/label length mismatch: {scores.shape} vs {labels.shape}")
    nan = np.flatnonzero(np.isnan(scores))
    if len(nan):
        raise InputError(f"scores hold {len(nan)} NaN value(s), the first "
                         f"at position {nan[0]}")
    return scores, labels


def _group_ends(xs: np.ndarray) -> np.ndarray:
    """Exclusive end of each run of equal values in sorted, non-empty `xs`."""
    return np.append(np.flatnonzero(xs[1:] != xs[:-1]) + 1, len(xs))


def _average_ranks(scores: np.ndarray) -> np.ndarray:
    """1-based ascending ranks, ties sharing their group's mean rank.

    The group at sorted positions first..end-1 holds ranks first+1..end,
    whose mean (first + end + 1) / 2 is an integer or a half, so every rank
    is exact. -0.0 ties with 0.0.
    """
    order = np.argsort(scores, kind="stable")
    ends = _group_ends(scores[order])
    firsts = np.append(0, ends[:-1])
    ranks = np.empty(len(scores))
    ranks[order] = np.repeat((firsts + ends + 1) / 2, ends - firsts)
    return ranks


def auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Area under the ROC curve by the rank-sum formula.

    Ascending average ranks over all scores; ties between a positive and a
    negative therefore count half, matching the pairwise definition. A NaN
    score raises InputError.
    """
    scores, labels = _ranked_input(scores, labels)
    _check_binary("labels", labels)
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    if n_pos == 0:
        raise EvalError("cannot compute AUC: no positive (fraud) samples")
    if n_neg == 0:
        raise EvalError("cannot compute AUC: no negative (legitimate) samples")
    ranks = _average_ranks(scores)
    pos_rank_sum = float(ranks[labels == 1].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def roc_points(scores: np.ndarray, labels: np.ndarray) -> list[tuple[float, float]]:
    """(fpr, tpr) staircase from highest to lowest threshold, ends pinned.

    One step per group of tied scores, taken after the whole group. A NaN
    score raises InputError.
    """
    scores, labels = _ranked_input(scores, labels)
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    if n_pos == 0 or n_neg == 0:
        raise EvalError("ROC needs both classes present")
    order = np.argsort(-scores, kind="stable")
    last = _group_ends(scores[order]) - 1
    tp = np.cumsum(labels[order] == 1)[last] / n_pos
    fp = np.cumsum(labels[order] == 0)[last] / n_neg
    return [(0.0, 0.0)] + list(zip(fp.tolist(), tp.tolist()))


def evaluate_scores(labels: np.ndarray, p_fraud: np.ndarray,
                    threshold: float = 0.5) -> EvalReport:
    """Full report from soft scores: threshold for counts, ranks for AUC."""
    p_fraud = np.asarray(p_fraud, dtype=np.float64)
    hard = (p_fraud >= threshold).astype(np.int64)
    counts = confusion(labels, hard)
    recall, precision, f1 = recall_precision_f1(counts)
    area = auc(p_fraud, labels)
    return EvalReport(tp=counts.tp, fp=counts.fp, tn=counts.tn, fn=counts.fn,
                      recall=recall, precision=precision, f1=f1, auc=area)
