"""SVM, metrics, and cross-validation tests.

Expected values: the two-point max-margin problem x=0 (y=-1), x=1 (y=+1)
has the analytic solution f(x) = 2x - 1; the confusion (tp=5, fn=0,
tn=5, fp=1) evaluates to ACC 90.91, SEN 100, SPE 83.33.
"""
import itertools
import re
import warnings

import numpy as np
import pytest

from qeeg.classifier import (ConfusionCounts, _optimal_bias, confusion,
                             cross_validate, metrics, svm_fit, svm_fit_prefixes,
                             svm_predict)
from qeeg.errors import DegenerateDataError, ParameterError, ShapeError, ValidationError


def blobs(rng, n_per_class=20, gap=4.0, dim=2):
    a = rng.standard_normal((n_per_class, dim)) + gap / 2
    b = rng.standard_normal((n_per_class, dim)) - gap / 2
    x = np.vstack([a, b])
    y = np.concatenate([np.ones(n_per_class), -np.ones(n_per_class)])
    return x, y


def test_two_point_analytic_solution():
    x = np.array([[0.0], [1.0]])
    y = np.array([-1.0, 1.0])
    model = svm_fit(x, y, regularization_c=1e6)
    # max margin: f(x) = 2x - 1, boundary at 0.5
    assert model.weights[0] == pytest.approx(2.0, abs=1e-4)
    assert model.bias == pytest.approx(-1.0, abs=1e-4)
    assert model.duality_gap <= 1e-6


def test_separable_blobs_perfect_training_accuracy():
    rng = np.random.default_rng(0)
    x, y = blobs(rng)
    model = svm_fit(x, y, regularization_c=10.0)
    assert np.array_equal(svm_predict(model, x), y)


def test_duplication_invariance_of_max_margin():
    rng = np.random.default_rng(1)
    x, y = blobs(rng, n_per_class=10)
    single = svm_fit(x, y, regularization_c=1e3)
    doubled = svm_fit(np.vstack([x, x]), np.concatenate([y, y]),
                      regularization_c=1e3)
    assert np.allclose(single.weights, doubled.weights, atol=1e-6)
    assert single.bias == pytest.approx(doubled.bias, abs=1e-6)


def test_decision_invariant_under_feature_scaling():
    # x -> s x with C -> C / s^2 leaves the optimization equivalent
    rng = np.random.default_rng(2)
    x, y = blobs(rng, n_per_class=15, gap=2.0)
    probe = rng.standard_normal((50, 2)) * 3
    s = 37.0
    base = svm_fit(x, y, regularization_c=1.0)
    scaled = svm_fit(s * x, y, regularization_c=1.0 / s ** 2)
    assert np.array_equal(svm_predict(base, probe), svm_predict(scaled, s * probe))
    assert np.allclose(base.decision_function(probe),
                       scaled.decision_function(s * probe), atol=1e-6)


def test_dual_feasibility_at_convergence():
    rng = np.random.default_rng(3)
    x, y = blobs(rng, gap=1.0)  # overlapping classes: some alphas at C
    c = 0.7
    model = svm_fit(x, y, regularization_c=c)
    assert np.all(model.alphas >= -1e-12)
    assert np.all(model.alphas <= c + 1e-12)
    assert abs(np.dot(model.alphas, y)) <= 1e-9
    assert model.duality_gap <= 1e-6


def test_optimal_bias_flat_objective_ignores_rounding_noise():
    # kinks y - m sort to (-0.8, -0.6, 0.3, 0.9); two hinges of each class
    # are active between -0.6 and 0.3, so the primal is flat there and the
    # smallest tied kink, -0.6, is the documented answer
    y = np.array([1.0, 1.0, -1.0, -1.0])
    margins = np.array([0.7, 0.1, -0.4, -0.2])
    biases = []
    for steps in itertools.product((-np.inf, None, np.inf), repeat=len(margins)):
        perturbed = np.array([m if s is None else np.nextafter(m, s)
                              for m, s in zip(margins, steps)])
        biases.append(_optimal_bias(perturbed[None], y, np.array([0.5]), 1.0)[0])
    np.testing.assert_allclose(biases, -0.6, rtol=0, atol=1e-12)


def test_unconverged_warning_once_per_problem():
    # overlapping classes: with the full budget the widths 1..4 take about
    # 160, 340, 2270 and 930 iterations, so 200 stops all but width 1
    rng = np.random.default_rng(0)
    x, y = blobs(rng, gap=1.0, dim=4)
    x[:, 0] *= 3
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        models = svm_fit_prefixes(x, y, [1, 2, 3, 4], max_iter=200)
    assert models[0].iterations < 200 and models[0].duality_gap <= 1e-6
    assert all(m.iterations == 200 and m.duality_gap > 1e-6 for m in models[1:])
    assert [str(w.message) for w in caught] == [
        f"SVM stopped after 200 iterations with duality gap {m.duality_gap:.3e}"
        for m in models[1:]]
    # the warning points at the caller, as a single fit's does
    assert all(w.category is RuntimeWarning and w.filename == __file__ for w in caught)
    with warnings.catch_warnings(record=True) as single:
        warnings.simplefilter("always")
        svm_fit(x[:, :2], y, max_iter=200)
    assert len(single) == 1 and single[0].filename == __file__
    assert re.fullmatch(r"SVM stopped after 200 iterations with duality gap \d\.\d{3}e[+-]\d{2}",
                        str(single[0].message))


def test_predict_signs_and_tie_rule():
    # f(x) = 2x - 1
    x = np.array([[0.0], [1.0]])
    y = np.array([-1.0, 1.0])
    model = svm_fit(x, y, regularization_c=1e6)
    pred = svm_predict(model, np.array([[0.9], [0.1], [0.5]]))
    assert pred[0] == 1.0
    assert pred[1] == -1.0
    assert pred[2] == 1.0  # exact boundary resolves positive


def test_svm_input_validation():
    with pytest.raises(DegenerateDataError):
        svm_fit(np.ones((3, 1)), np.ones(3))
    with pytest.raises(ValidationError):
        svm_fit(np.ones((2, 1)), np.array([0.0, 1.0]))
    with pytest.raises(ShapeError):
        svm_fit(np.ones((3, 1)), np.ones(2))
    model = svm_fit(np.array([[0.0], [1.0]]), np.array([-1.0, 1.0]))
    with pytest.raises(ShapeError):
        svm_predict(model, np.ones((2, 3)))


def test_metrics_example_confusion():
    got = metrics(ConfusionCounts(tp=5, tn=5, fp=1, fn=0))
    assert got.acc == pytest.approx(90.91, abs=0.01)
    assert got.sen == pytest.approx(100.0, abs=0.01)
    assert got.spe == pytest.approx(83.33, abs=0.01)


def test_metrics_perfect_and_degenerate():
    perfect = metrics(ConfusionCounts(tp=5, tn=6, fp=0, fn=0))
    assert (perfect.acc, perfect.sen, perfect.spe) == (100.0, 100.0, 100.0)
    worst = metrics(ConfusionCounts(tp=0, tn=6, fp=0, fn=5))
    assert worst.sen == 0.0 and worst.spe == 100.0
    undefined = metrics(ConfusionCounts(tp=0, tn=6, fp=1, fn=0))
    assert undefined.sen is None  # no positive samples at all
    assert undefined.spe == pytest.approx(100.0 * 6 / 7)


def test_metrics_identity_on_random_confusions():
    rng = np.random.default_rng(4)
    for _ in range(200):
        tp, tn, fp, fn = (int(v) for v in rng.integers(0, 30, 4))
        if tp + fn == 0 or tn + fp == 0:
            continue
        m = metrics(ConfusionCounts(tp, tn, fp, fn))
        pos, neg = tp + fn, tn + fp
        assert m.acc == pytest.approx((m.sen * pos + m.spe * neg) / (pos + neg), abs=1e-9)


def test_confusion_counting():
    y = np.array([1, 1, -1, -1, 1])
    p = np.array([1, -1, -1, 1, 1])
    c = confusion(y, p)
    assert (c.tp, c.tn, c.fp, c.fn) == (2, 1, 1, 1)
    assert c.total == 5


def test_confusion_rejects_negative():
    with pytest.raises(ValidationError):
        ConfusionCounts(-1, 0, 0, 0)


def test_cross_validation_fold_structure():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((66, 3))
    y = np.concatenate([np.ones(30), -np.ones(36)])
    res = cross_validate(x, y, k=10, repeats=2, seed=11)
    for folds in res.fold_ids:
        sizes = np.bincount(folds, minlength=10)
        assert set(sizes) <= {6, 7}
        assert sizes.sum() == 66  # partition: every index exactly once
        # stratified: both classes in every fold
        for f in range(10):
            assert len(np.unique(y[folds == f])) == 2


def test_cross_validation_deterministic():
    rng = np.random.default_rng(6)
    x, y = blobs(rng, n_per_class=12, gap=1.5)
    r1 = cross_validate(x, y, k=4, repeats=3, seed=42)
    r2 = cross_validate(x, y, k=4, repeats=3, seed=42)
    assert np.array_equal(r1.repeat_scores, r2.repeat_scores)
    for f1, f2 in zip(r1.fold_ids, r2.fold_ids):
        assert np.array_equal(f1, f2)
    r3 = cross_validate(x, y, k=4, repeats=3, seed=43)
    assert not all(np.array_equal(a, b) for a, b in zip(r1.fold_ids, r3.fold_ids))


def test_cross_validation_perfect_separation_scores_zero():
    rng = np.random.default_rng(7)
    x, y = blobs(rng, n_per_class=15, gap=8.0)
    res = cross_validate(x, y, k=5, repeats=2, seed=0)
    assert res.mean_score == 0.0
    assert res.std_score == 0.0


def test_cross_validation_parameter_errors():
    x = np.zeros((4, 1))
    y = np.array([1.0, 1.0, -1.0, -1.0])
    with pytest.raises(ParameterError):
        cross_validate(x, y, k=5)
    with pytest.raises(ParameterError):
        cross_validate(x, y, k=1)
