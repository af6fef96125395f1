"""Binary linear max-margin classifier, evaluation metrics, and k-fold
cross-validation.

The SVM is trained in the dual with maximal-violating-pair coordinate
ascent (SMO-style two-variable updates) until the primal-dual gap falls
below tolerance; SVMs on the leading columns of one feature matrix train
together, one lockstep update per iteration.  The bias is recovered as the
primal-optimal intercept for the final weight vector.  Everything is
deterministic: ties in working-set selection break to the lowest index,
fold shuffles derive from the seed.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDataError, ParameterError, ShapeError, ValidationError

__all__ = [
    "LinearSvmModel", "ConfusionCounts", "MetricsResult", "CrossValResult",
    "svm_fit", "svm_fit_prefixes", "svm_predict", "svm_predict_prefixes", "confusion",
    "metrics", "cross_validate",
]

_GAP_CHECK_EVERY = 32
_GAP_TOL = 1e-6  # an SVM has converged when its duality gap is at most this


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


def _optimal_bias(margins: np.ndarray, y: np.ndarray, w_norm_sq: np.ndarray, c: float):
    """Primal-optimal intercept for fixed weights, one per row of the
    margins without intercept (P, n) and of w_norm_sq (P,); returns the
    (P,) intercepts and primal objectives.

    The primal is piecewise linear in b, so its minimum sits on a hinge
    kink b = y_i - w.x_i; ties resolve to the smallest candidate.  Where
    the primal is flat over an interval, rounding makes its values at the
    kinks differ in the last bits, so every candidate within a relative
    1e-9 of the minimum counts as tied."""
    candidates = np.sort(y - margins, axis=1)
    hinge = np.maximum(0.0, 1.0 - y * (margins[:, None, :] + candidates[:, :, None]))
    objective = 0.5 * w_norm_sq[:, None] + c * hinge.sum(axis=2)
    tied = objective <= objective.min(axis=1, keepdims=True) * (1.0 + 1e-9)
    rows, best = np.arange(len(margins)), tied.argmax(axis=1)
    return candidates[rows, best], objective[rows, best]


def _validated(features, labels, regularization_c: float):
    x = _as_features(features)
    y = np.asarray(labels, dtype=np.float64)
    if y.ndim != 1 or len(y) != x.shape[0]:
        raise ShapeError(f"{x.shape[0]} rows but {y.shape} labels")
    if not (np.abs(y) == 1.0).all():
        raise ValidationError("labels must be -1 or +1")
    if np.count_nonzero(y > 0) in (0, len(y)):
        raise DegenerateDataError("training set contains a single class")
    if not 0 < regularization_c < np.inf:
        raise ParameterError(
            f"regularization C must be positive and finite, got {regularization_c}")
    return x, y, float(regularization_c)


def svm_fit(features, labels, regularization_c: float = 1.0, tol: float = _GAP_TOL,
            max_iter: int = 200_000) -> LinearSvmModel:
    """Train a soft-margin linear SVM to duality gap <= tol.  No caller sets
    tol; it stays an argument because perfbench/child.py reads it to count
    unconverged fits."""
    x, y, c = _validated(features, labels, regularization_c)
    return _smo(x, y, [x.shape[1]], c, tol, max_iter)[0]


def svm_fit_prefixes(features, labels, widths, regularization_c: float = 1.0,
                     max_iter: int = 200_000) -> list:
    """One SVM per width p, on the leading p feature columns, all trained in
    one lockstep solver.  Model k is the one `svm_fit(features[:, :p_k], ...)`
    trains, up to rounding."""
    x, y, c = _validated(features, labels, regularization_c)
    widths = [int(p) for p in widths]
    if not widths or not all(1 <= p <= x.shape[1] for p in widths):
        raise ParameterError(f"widths {widths} outside [1, {x.shape[1]}]")
    return _smo(x, y, widths, c, _GAP_TOL, max_iter)


def _smo(x: np.ndarray, y: np.ndarray, widths, c: float, tol: float,
         max_iter: int) -> list:
    """Maximal-violating-pair SMO (Keerthi et al., "Improvements to Platt's
    SMO algorithm for SVM classifier design", Neural Computation 2001) for
    P problems in lockstep, problem k on the first widths[k] columns of x.

    Every iteration picks each live problem's working pair, makes one update
    per problem along a direction masked to its columns, and computes X w for
    all of them in one call.  The iteration counter is shared, so each
    problem takes the steps and gap checks it would take alone.  A problem
    retires when its duality gap is within tol or no pair violates the KKT
    conditions.

    The state is beta = y * alpha, which turns the box 0 <= alpha <= C into
    lower <= beta <= upper and each pair update into beta_i += t, beta_j -= t;
    the violation -y * grad is y - X w.  Both rewrites are exact in floating
    point."""
    x = x[:, :max(widths)]
    xt, (n, width) = x.T, x.shape
    upper = c * (y > 0)
    lower = upper - c
    eps_a = 1e-12 * max(1.0, c)
    can_rise = upper - eps_a   # beta < can_rise: alpha may move up
    can_fall = lower + eps_a   # beta > can_fall: alpha may move down

    # state of the live problems, compacted as problems retire; the flat
    # views index element (r, i) of a (live, n) array at r * n + i
    live = np.arange(len(widths))
    xm = x * (np.arange(width) < np.array(widths)[:, None, None])  # (P, n, width)
    beta = np.zeros((len(widths), n))
    w = np.zeros((len(widths), width))
    xw = np.zeros((len(widths), n))
    offsets, flat_xm, flat_beta = live * n, xm.reshape(-1, width), beta.reshape(-1)
    bias, gap = np.zeros(len(widths)), np.full(len(widths), np.inf)
    models = [None] * len(widths)

    def retire(rows, iterations):
        for r, k in zip(rows.tolist(), live[rows].tolist()):
            models[k] = LinearSvmModel(
                weights=w[r, :widths[k]], bias=float(bias[k]), regularization_c=c,
                alphas=np.abs(beta[r]), duality_gap=float(gap[k]), iterations=iterations)

    it = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        for it in range(1, max_iter + 1):
            violation = y - xw
            v_up = np.where(beta < can_rise, violation, -np.inf)
            v_low = np.where(beta > can_fall, violation, np.inf)
            i, j = v_up.argmax(axis=1), v_low.argmin(axis=1)
            fi, fj = offsets + i, offsets + j
            step = v_up.ravel()[fi] - v_low.ravel()[fj]  # -inf when a side is empty

            diff = flat_xm[fi] - flat_xm[fj]
            eta = np.vecdot(diff, diff)
            beta_i, beta_j = flat_beta[fi], flat_beta[fj]
            # at most the room in the box, and the Newton step where the
            # curvature is above 1e-12 (a step over 0 is inf and leaves it out)
            t = np.minimum(np.minimum(upper[i] - beta_i, beta_j - lower[j]),
                           step / (eta * (eta > 1e-12)))
            stop = (step <= 1e-12) | (t <= 0)
            stopped = stop.nonzero()[0]
            if stopped.size < len(live):
                if stopped.size:
                    t[stopped] = 0.0
                flat_beta[fi] = beta_i + t
                flat_beta[fj] = beta_j - t
                w += t[:, None] * diff
                xw = w @ xt

            if it % _GAP_CHECK_EVERY == 0 or stopped.size == len(live):
                check = slice(None)  # every live problem, without a copy
            elif stopped.size:
                check = stopped
            else:
                continue
            ids, w_sq = live[check], np.vecdot(w[check], w[check])
            bias[ids], primal = _optimal_bias(xw[check], y, w_sq, c)
            gap[ids] = primal - (np.abs(beta[check]).sum(axis=1) - 0.5 * w_sq)
            done = np.flatnonzero((gap[live] <= tol) | stop)
            if done.size:
                retire(done, it)
                if done.size == len(live):
                    break
                keep = np.ones(len(live), dtype=bool)
                keep[done] = False
                live, xm, beta, w, xw = live[keep], xm[keep], beta[keep], w[keep], xw[keep]
                offsets = np.arange(len(live)) * n
                flat_xm, flat_beta = xm.reshape(-1, width), beta.reshape(-1)
        else:
            retire(np.arange(len(live)), it)

    for model in models:
        if model.duality_gap > tol:
            warnings.warn(f"SVM stopped after {model.iterations} iterations with duality gap "
                          f"{model.duality_gap:.3e}", RuntimeWarning, stacklevel=3)
    return models


def svm_predict(model: LinearSvmModel, features) -> np.ndarray:
    """Signs of the decision values; an exact zero resolves to +1."""
    scores = model.decision_function(features)
    return np.where(scores >= 0.0, 1.0, -1.0)


def svm_predict_prefixes(models, features) -> np.ndarray:
    """Predictions of each model on the leading feature columns it was trained
    on, one row per model, in one product; an exact zero resolves to +1."""
    x = _as_features(features)
    width = max(len(m.weights) for m in models)
    if width > x.shape[1]:
        raise ShapeError(f"feature width {x.shape[1]} is below weights length {width}")
    weights = np.zeros((len(models), width))
    for row, model in zip(weights, models):
        row[:len(model.weights)] = model.weights
    scores = weights @ x[:, :width].T + np.array([m.bias for m in models])[:, None]
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
    if seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")

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
