"""Feature cache and single-trial pipeline tests."""
import numpy as np
import pytest

from conftest import synthetic_cache
from qeeg import qpca
from qeeg.classifier import (confusion, metrics, svm_fit, svm_fit_prefixes, svm_predict,
                             svm_predict_prefixes)
from qeeg.errors import ParameterError, ValidationError
from qeeg.pipeline import (FeatureCache, PipelineParams, best_over_p, evaluate_quadruple,
                           evaluate_model, resolve_p, sweep_parameters, train_pipeline)
from qeeg.search import enumerate_channel_tuples


def test_cache_structure(small_cache, small_dataset):
    assert small_cache.n_segments == 10
    assert small_cache.channels == small_dataset[0].channel_labels
    assert len(small_cache.keys) == 24
    assert small_cache.keys == tuple(sorted(small_cache.keys))


def test_cache_vectors_full_and_pure(small_cache):
    keys = small_cache.keys[:3]
    full = small_cache.vectors(keys, ("F7", "F8", "T7", "T8"), "alpha")
    assert full.shape == (3, 10)
    assert np.abs(full.w).max() > 0
    pure = small_cache.vectors(keys, ("F7", "F8", "T7"), "alpha")
    assert np.abs(pure.w).max() == 0.0  # pure embedding has zero scalar part
    assert np.array_equal(pure.x, full.w)  # first channel moves to i
    with pytest.raises(ParameterError):
        small_cache.vectors(keys, ("F7", "F8"), "alpha")
    with pytest.raises(ParameterError):
        small_cache.vectors(keys, ("F7", "F8", "T7", "T8"), "gamma")
    with pytest.raises(ParameterError):
        small_cache.vectors(keys, ("F7", "F8", "T7", "Nope"), "alpha")


def test_cache_csv_roundtrip(small_cache):
    text = small_cache.to_csv_text()
    back = FeatureCache.from_csv_text(text, small_cache.segment_seconds)
    assert back.keys == small_cache.keys
    assert back.channels == small_cache.channels
    assert back.labels == small_cache.labels
    for k in small_cache.keys:
        assert np.array_equal(back.values[k], small_cache.values[k])
    # re-serialization is byte-identical (repr round-trip)
    assert back.to_csv_text() == text


def test_cache_csv_header_check():
    with pytest.raises(ValidationError, match="header"):
        FeatureCache.from_csv_text("nope\n1,2,3\n", 1.0)


def test_params_validation():
    with pytest.raises(ParameterError):
        PipelineParams(projection="median")
    with pytest.raises(ParameterError):
        PipelineParams(p=0)
    with pytest.raises(ParameterError):
        PipelineParams(svm_c=-1.0)
    with pytest.raises(ParameterError):
        PipelineParams(p_threshold=1.5)
    base = PipelineParams()
    assert base.with_(p=3).p == 3


def test_evaluate_quadruple_separates_classes(small_cache, small_keys):
    train, test = small_keys
    out = evaluate_quadruple(small_cache, (train, test), ("F8", "T7", "T8", "P4"),
                             "alpha", PipelineParams())
    assert out.acc is not None and out.acc >= 75.0
    assert 1 <= out.p_used <= 20
    assert out.result.counts.total == len(test)


def test_evaluate_quadruple_fixed_p(small_cache, small_keys):
    train, test = small_keys
    out = evaluate_quadruple(small_cache, (train, test), ("F8", "T7", "T8", "P4"),
                             "alpha", PipelineParams(p=3, p_sweep_limit=None))
    assert out.p_used == 3


def test_evaluate_quadruple_threshold_mode(small_cache, small_keys):
    train, test = small_keys
    out = evaluate_quadruple(small_cache, (train, test), ("F8", "T7", "T8", "P4"),
                             "alpha", PipelineParams(p=None, p_sweep_limit=None,
                                                     p_threshold=0.9))
    assert out.p_used >= 1


def test_train_then_evaluate_roundtrip(small_cache, small_keys):
    train, test = small_keys
    params = PipelineParams(p=4)
    model, svm = train_pipeline(small_cache, train, ("F8", "T7", "T8", "P4"),
                                "alpha", params)
    assert model.p == 4 and model.band == "alpha"
    train_metrics = evaluate_model(model, svm, small_cache, train)
    assert train_metrics.acc >= 75.0
    test_metrics = evaluate_model(model, svm, small_cache, test)
    assert test_metrics.counts.total == len(test)


def test_deterministic_evaluation(small_cache, small_keys):
    train, test = small_keys
    params = PipelineParams()
    quad = ("F7", "T8", "P4", "F8")
    a = evaluate_quadruple(small_cache, (train, test), quad, "alpha", params)
    b = evaluate_quadruple(small_cache, (train, test), quad, "alpha", params)
    assert (a.acc, a.sen, a.spe, a.p_used) == (b.acc, b.sen, b.spe, b.p_used)


@pytest.mark.parametrize("limit", [5, 20])
def test_lockstep_sweep_matches_fit_per_prefix(small_cache, small_keys, limit):
    # every trial of the 5-channel search, scored by the lockstep p sweep and
    # by one svm_fit per prefix with the best-accuracy rule applied in a loop
    train, test = small_keys
    y_train, y_test = small_cache.labels_pm1(train), small_cache.labels_pm1(test)
    for quad in enumerate_channel_tuples(small_cache.channels, 4, ordered=True):
        q_train = small_cache.vectors(train, quad, "alpha")
        q_test = small_cache.vectors(test, quad, "alpha")
        fit_p, candidates = resolve_p(PipelineParams(p_sweep_limit=limit), min(q_train.shape))
        model = qpca.fit(q_train, p=fit_p, band="alpha")
        train_feats = qpca.project(qpca.transform(model, q_train), "mean")
        test_feats = qpca.project(qpca.transform(model, q_test), "mean")

        lockstep = svm_fit_prefixes(train_feats, y_train, candidates)
        lockstep_pred = svm_predict_prefixes(lockstep, test_feats)
        best = None
        for k, p in enumerate(candidates):
            alone = svm_fit(train_feats[:, :p], y_train)
            pred = svm_predict(alone, test_feats[:, :p])
            np.testing.assert_allclose(lockstep[k].weights, alone.weights, rtol=0, atol=1e-6)
            assert np.array_equal(lockstep_pred[k], pred), (quad, p)
            m = metrics(confusion(y_test, pred))
            if best is None or m.acc > best[0].acc + 1e-12:
                best = (m, p)
        out = best_over_p(train_feats, y_train, test_feats, y_test, candidates, 1.0)
        assert (out.acc, out.sen, out.spe, out.p_used) == (
            best[0].acc, best[0].sen, best[0].spe, best[1]), quad
        assert out.result == best[0]


def test_sweep_segment_axis(small_dataset, small_split):
    rows = sweep_parameters(small_dataset, small_split, ("F8", "T7", "T8", "P4"),
                            "alpha", "segment_seconds", [0.5, 1.0, 2.5],
                            base=PipelineParams(p_sweep_limit=5))
    assert len(rows) == 3
    assert all(r["error"] is None for r in rows)
    assert all(r["acc"] is not None for r in rows)


def test_sweep_projection_axis(small_dataset, small_split):
    rows = sweep_parameters(small_dataset, small_split, ("F8", "T7", "T8", "P4"),
                            "alpha", "projection",
                            ["mean", "absolute", "norm", "phase"],
                            base=PipelineParams(p_sweep_limit=5))
    assert [r["value"] for r in rows] == ["mean", "absolute", "norm", "phase"]
    assert all(r["error"] is None for r in rows)


def test_sweep_p_axis(small_dataset, small_split):
    rows = sweep_parameters(small_dataset, small_split, ("F8", "T7", "T8", "P4"),
                            "alpha", "p", [1, 2, 3, 4])
    assert [r["p_used"] for r in rows] == [1, 2, 3, 4]


def test_sweep_bad_point_is_reported_not_raised(small_dataset, small_split):
    rows = sweep_parameters(small_dataset, small_split, ("F8", "T7", "T8", "P4"),
                            "alpha", "segment_seconds", [1.0, 0.3141],
                            base=PipelineParams(p_sweep_limit=5))
    assert rows[0]["error"] is None
    assert rows[1]["error"] is not None and "ParameterError" in rows[1]["error"]


def test_sweep_rejects_empty_grid(small_dataset, small_split):
    with pytest.raises(ParameterError):
        sweep_parameters(small_dataset, small_split, ("F8", "T7", "T8", "P4"),
                         "alpha", "p", [])
    with pytest.raises(ParameterError):
        sweep_parameters(small_dataset, small_split, ("F8", "T7", "T8", "P4"),
                         "alpha", "bogus", [1])


def test_synthetic_cache_helper():
    rng = np.random.default_rng(0)
    cache = synthetic_cache(rng, constant_channels=("E",))
    assert np.all(cache.values[cache.keys[0]][4] == 0.25)
