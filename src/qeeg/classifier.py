"""Binary linear max-margin classifier, evaluation metrics, and k-fold
cross-validation.

The SVM is trained in the dual with maximal-violating-pair coordinate
ascent (SMO-style two-variable updates) until the primal-dual gap falls
below tolerance.  The bias is recovered as the primal-optimal intercept for
the final weight vector.  Everything is deterministic: ties in working-set
selection break to the lowest index, fold shuffles derive from the seed.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDataError, ParameterError, ShapeError, ValidationError

__all__ = [
    "LinearSvmModel", "ConfusionCounts", "MetricsResult", "CrossValResult",
    "svm_fit", "svm_predict", "confusion", "metrics", "cross_validate",
]

_GAP_CHECK_EVERY = 32


@dataclass(frozen=True, eq=False)
class LinearSvmModel:
    weights: np.ndarray
    bias: float
    regularization_c: float
    alphas: np.ndarray
    duality_gap: float
    iterations: int

    def decision_function(self, features) -> np.ndarray:
        x = _as_features(features)
        if x.shape[1] != len(self.weights):
            raise ShapeError(
                f"feature width {x.shape[1]} does not match weights length {len(self.weights)}")
        return x @ self.weights + self.bias


def _as_features(features) -> np.ndarray:
    x = np.asarray(features, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2:
        raise ShapeError(f"features must be 2-D, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValidationError("non-finite feature value")
    return x


def _optimal_bias(margins_wo_b: np.ndarray, y: np.ndarray, w_norm_sq: float,
                  c: float):
    """Primal-optimal intercept for fixed weights.

    The primal is piecewise linear in b, so its minimum sits on a hinge
    kink b = y_i - w.x_i; ties resolve to the smallest candidate.  Where
    the primal is flat over an interval, rounding makes its values at the
    kinks differ in the last bits, so every candidate within a relative
    1e-9 of the minimum counts as tied."""
    candidates = np.sort(y - margins_wo_b)
    hinge = np.maximum(0.0, 1.0 - y[None, :] * (margins_wo_b[None, :] + candidates[:, None]))
    objective = 0.5 * w_norm_sq + c * hinge.sum(axis=1)
    best = int(np.argmax(objective <= objective.min() * (1.0 + 1e-9)))
    return float(candidates[best]), float(objective[best])


def svm_fit(features, labels, regularization_c: float = 1.0, tol: float = 1e-6,
            max_iter: int = 200_000) -> LinearSvmModel:
    """Train a soft-margin linear SVM to duality gap <= tol."""
    x = _as_features(features)
    y = np.asarray(labels, dtype=np.float64)
    if y.ndim != 1 or len(y) != x.shape[0]:
        raise ShapeError(f"{x.shape[0]} rows but {y.shape} labels")
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValidationError("labels must be -1 or +1")
    if len(np.unique(y)) < 2:
        raise DegenerateDataError("training set contains a single class")
    if regularization_c <= 0:
        raise ParameterError(f"regularization C must be positive, got {regularization_c}")

    n = len(y)
    c = float(regularization_c)
    alpha = np.zeros(n)
    w = np.zeros(x.shape[1])
    xw = np.zeros(n)
    bias, gap = 0.0, np.inf
    eps_a = 1e-12 * max(1.0, c)

    it = 0
    for it in range(1, max_iter + 1):
        grad = y * xw - 1.0
        violation = -y * grad
        up = ((y > 0) & (alpha < c - eps_a)) | ((y < 0) & (alpha > eps_a))
        low = ((y < 0) & (alpha < c - eps_a)) | ((y > 0) & (alpha > eps_a))
        converged_kkt = True
        if up.any() and low.any():
            i = int(np.argmax(np.where(up, violation, -np.inf)))
            j = int(np.argmin(np.where(low, violation, np.inf)))
            converged_kkt = violation[i] - violation[j] <= 1e-12
        if not converged_kkt:
            diff = x[i] - x[j]
            eta = float(diff @ diff)
            cap_i = (c - alpha[i]) if y[i] > 0 else alpha[i]
            cap_j = alpha[j] if y[j] > 0 else (c - alpha[j])
            t = min(cap_i, cap_j)
            if eta > 1e-12:
                t = min(t, (violation[i] - violation[j]) / eta)
            if t <= 0:
                converged_kkt = True
            else:
                alpha[i] += y[i] * t
                alpha[j] -= y[j] * t
                w += t * diff
                xw = x @ w

        if converged_kkt or it % _GAP_CHECK_EVERY == 0:
            bias, primal = _optimal_bias(xw, y, float(w @ w), c)
            gap = primal - (alpha.sum() - 0.5 * float(w @ w))
            if gap <= tol or converged_kkt:
                break

    if gap > tol:
        warnings.warn(f"SVM stopped after {it} iterations with duality gap {gap:.3e}",
                      RuntimeWarning, stacklevel=2)
    return LinearSvmModel(weights=w, bias=bias, regularization_c=c,
                          alphas=alpha, duality_gap=float(gap), iterations=it)


def svm_predict(model: LinearSvmModel, features) -> np.ndarray:
    """Signs of the decision values; an exact zero resolves to +1."""
    scores = model.decision_function(features)
    return np.where(scores >= 0.0, 1.0, -1.0)


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    tn: int
    fp: int
    fn: int

    def __post_init__(self):
        if min(self.tp, self.tn, self.fp, self.fn) < 0:
            raise ValidationError("confusion counts must be nonnegative")

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


def confusion(y_true, y_pred) -> ConfusionCounts:
    t = np.asarray(y_true)
    p = np.asarray(y_pred)
    if t.shape != p.shape:
        raise ShapeError(f"label shapes differ: {t.shape} vs {p.shape}")
    return ConfusionCounts(
        tp=int(np.sum((t > 0) & (p > 0))),
        tn=int(np.sum((t < 0) & (p < 0))),
        fp=int(np.sum((t < 0) & (p > 0))),
        fn=int(np.sum((t > 0) & (p < 0))),
    )


@dataclass(frozen=True)
class MetricsResult:
    """Accuracy, sensitivity, specificity as percentages (None = undefined)."""

    acc: float | None
    sen: float | None
    spe: float | None
    counts: ConfusionCounts

    def to_json(self) -> dict:
        return {"acc": self.acc, "sen": self.sen, "spe": self.spe,
                "tp": self.counts.tp, "tn": self.counts.tn,
                "fp": self.counts.fp, "fn": self.counts.fn}


def metrics(counts: ConfusionCounts) -> MetricsResult:
    """ACC = (TP+TN)/all, SEN = TP/(TP+FN), SPE = TN/(TN+FP), in percent."""
    def ratio(num, den):
        return 100.0 * num / den if den > 0 else None

    return MetricsResult(
        acc=ratio(counts.tp + counts.tn, counts.total),
        sen=ratio(counts.tp, counts.tp + counts.fn),
        spe=ratio(counts.tn, counts.tn + counts.fp),
        counts=counts,
    )


@dataclass(frozen=True, eq=False)
class CrossValResult:
    k: int
    repeats: int
    seed: int
    mean_score: float
    std_score: float
    repeat_scores: np.ndarray
    fold_ids: tuple  # one fold-assignment array per repeat

    def to_json(self) -> dict:
        return {"k": self.k, "repeats": self.repeats, "seed": self.seed,
                "mean_score": self.mean_score, "std_score": self.std_score}


def _fold_assignment(y: np.ndarray, k: int, rng, stratified: bool) -> np.ndarray:
    n = len(y)
    folds = np.empty(n, dtype=np.int64)
    if stratified:
        offset = 0  # running fold cursor keeps every fold nonempty
        for cls in np.unique(y):
            idx = np.flatnonzero(y == cls)
            idx = rng.permutation(idx)
            folds[idx] = (offset + np.arange(len(idx))) % k
            offset = (offset + len(idx)) % k
    else:
        order = rng.permutation(n)
        folds[order] = np.arange(n) % k
    return folds


def cross_validate(features, labels, k: int, repeats: int = 1000, seed: int = 0,
                   regularization_c: float = 1.0, stratified: bool = True) -> CrossValResult:
    """Repeated k-fold cross-validation; score is the misclassification rate
    (lower is better), averaged over folds then over repeats.

    The default of 1000 repeats matches the evaluation protocol; pass a
    small value for quick runs."""
    x = _as_features(features)
    y = np.asarray(labels, dtype=np.float64)
    n = len(y)
    if not 2 <= k <= n:
        raise ParameterError(f"k={k} outside [2, {n}]")
    if repeats < 1:
        raise ParameterError("repeats must be >= 1")

    repeat_scores = np.empty(repeats)
    fold_ids = []
    for rep in range(repeats):
        rng = np.random.default_rng([seed, rep])
        folds = _fold_assignment(y, k, rng, stratified)
        fold_ids.append(folds)
        rates = np.empty(k)
        for f in range(k):
            test = folds == f
            model = svm_fit(x[~test], y[~test], regularization_c=regularization_c)
            pred = svm_predict(model, x[test])
            rates[f] = np.mean(pred != y[test])
        repeat_scores[rep] = rates.mean()
    return CrossValResult(k=k, repeats=repeats, seed=seed,
                          mean_score=float(repeat_scores.mean()),
                          std_score=float(repeat_scores.std()),
                          repeat_scores=repeat_scores,
                          fold_ids=tuple(fold_ids))
