"""Real-PCA baseline tests."""
import numpy as np
import pytest

from qeeg.baseline import (compare, concatenated_features, fit_real_pca,
                           transform_real)
from qeeg.errors import DegenerateDataError, ParameterError
from qeeg.pipeline import PipelineParams


def test_fit_real_pca_paper_dimensions():
    rng = np.random.default_rng(0)
    model = fit_real_pca(rng.standard_normal((55, 160)), p=19)
    assert model.basis.shape == (160, 19)
    assert np.allclose(model.basis.T @ model.basis, np.eye(19), atol=1e-9)
    assert np.all(np.diff(model.eigenvalues) <= 1e-12)
    assert np.all(model.eigenvalues >= 0)


def test_fit_real_pca_degenerate():
    with pytest.raises(DegenerateDataError):
        fit_real_pca(np.ones((5, 4)))
    with pytest.raises(DegenerateDataError):
        fit_real_pca(np.ones((1, 4)))


def test_fit_real_pca_trace_identity():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((20, 7))
    model = fit_real_pca(x, p=3)
    centered = x - x.mean(axis=0)
    trace = np.trace(centered.T @ centered / 20)
    assert abs(model.eigenvalues.sum() - trace) <= 1e-9 * trace


def test_transform_real_reduces_variance_directions():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((30, 5)) * np.array([5.0, 1.0, 0.5, 0.25, 0.1])
    model = fit_real_pca(x, p=2)
    scores = transform_real(model, x)
    assert scores.shape == (30, 2)
    assert scores.var(axis=0)[0] > scores.var(axis=0)[1]


def test_concatenated_features_order(small_cache, small_keys):
    train, _ = small_keys
    quad = ("F8", "T7", "T8", "P4")
    x = concatenated_features(small_cache, train, quad, "alpha")
    n_s = small_cache.n_segments
    assert x.shape == (len(train), 4 * n_s)
    bi = small_cache.band_index("alpha")
    ci = small_cache.channel_index("T7")  # second channel of the quadruple
    expected = small_cache.grid[small_cache.keys.index(train[0]), ci, bi, :]
    assert np.array_equal(x[0, n_s:2 * n_s], expected)


def test_concatenated_features_match_the_per_key_concatenation(small_cache):
    quad = ("T8", "F7", "P4", "F8")
    keys = small_cache.keys
    bi = small_cache.band_index("beta")
    cidx = [small_cache.channel_index(c) for c in quad]
    expected = np.stack([np.concatenate([small_cache.grid[r, ci, bi, :] for ci in cidx])
                         for r in range(len(keys))])
    x = concatenated_features(small_cache, keys, quad, "beta")
    assert x.dtype == expected.dtype and np.array_equal(x, expected)


def test_compare_produces_two_distinct_models(small_cache, small_keys):
    import hashlib

    train, test = small_keys
    before = hashlib.sha256(small_cache.to_csv_text().encode()).hexdigest()
    out = compare(small_cache, train, test, ("F8", "T7", "T8", "P4"), "alpha",
                  PipelineParams(p_sweep_limit=5))
    # both arms consumed the identical, unmutated feature cache
    assert hashlib.sha256(small_cache.to_csv_text().encode()).hexdigest() == before
    assert set(out) >= {"qpca", "real_pca", "params"}
    for arm in ("qpca", "real_pca"):
        m = out[arm]
        assert m["tp"] + m["tn"] + m["fp"] + m["fn"] == len(test)
    # the synthetic class difference is separable for both arms
    assert out["qpca"]["acc"] >= 75.0
    assert out["real_pca"]["acc"] >= 75.0
    # non-inferiority of the quaternion arm
    assert out["qpca"]["acc"] >= out["real_pca"]["acc"] - 5.0


def test_compare_single_channel_mean_difference(small_cache, small_keys):
    # class difference in one channel's level: both arms find the linear cut
    from qeeg.pipeline import FeatureCache

    train, test = small_keys
    cache = FeatureCache(segment_seconds=small_cache.segment_seconds,
                         channels=small_cache.channels, keys=small_cache.keys,
                         labels=small_cache.labels, grid=small_cache.grid.copy())
    rng = np.random.default_rng(3)
    for r, key in enumerate(cache.keys):
        base = 0.2 if cache.labels[key] == "AD" else 0.8
        cache.grid[r] = rng.uniform(0.4, 0.6, cache.grid[r].shape)
        cache.grid[r, 0, :, :] = base + rng.uniform(-0.05, 0.05, cache.grid[r, 0].shape)
    out = compare(cache, train, test, ("F7", "F8", "T7", "T8"), "alpha",
                  PipelineParams(p_sweep_limit=5))
    assert out["qpca"]["acc"] == 100.0
    assert out["real_pca"]["acc"] == 100.0


def test_compare_shuffled_labels_near_chance(small_cache, small_keys):
    # permutation-test oracle: destroy the labels, expect chance accuracy;
    # fixed p avoids the optimistic bias of a test-side p sweep
    from qeeg.pipeline import FeatureCache

    train, test = small_keys
    accs_q, accs_r = [], []
    labels_list = list(small_cache.labels.values())
    for shuffle_seed in range(8):
        rng = np.random.default_rng(shuffle_seed)
        shuffled = dict(zip(small_cache.labels.keys(), rng.permutation(labels_list)))
        cache = FeatureCache(segment_seconds=small_cache.segment_seconds,
                             channels=small_cache.channels, keys=small_cache.keys,
                             labels=shuffled, grid=small_cache.grid)
        try:
            out = compare(cache, train, test, ("F8", "T7", "T8", "P4"), "alpha",
                          PipelineParams(p=4, p_sweep_limit=None))
        except DegenerateDataError:
            continue  # a shuffle may put one class only in training folds
        accs_q.append(out["qpca"]["acc"])
        accs_r.append(out["real_pca"]["acc"])
    assert np.mean(accs_q) <= 75.0
    assert np.mean(accs_r) <= 75.0
    assert np.mean(accs_q) >= 20.0
    assert np.mean(accs_r) >= 20.0


def test_real_pca_p_out_of_range():
    rng = np.random.default_rng(4)
    with pytest.raises(ParameterError):
        fit_real_pca(rng.standard_normal((5, 4)), p=5)
