"""Connectivity measure, interclass distance, and tensor tests."""
from itertools import permutations

import numpy as np
import pytest

from conftest import synthetic_cache
from qeeg.connectivity import interclass_distance, measure_connectivity, measure_values
from qeeg.errors import DegenerateDataError, ParameterError, ValidationError
from qeeg.pipeline import rotation_class_key
from qeeg.qlinalg import QuaternionMatrix
from qeeg import qpca


def alpha_tensors(cache, keys, mode):
    """The alpha band's tensors by class and its skipped-tuple count."""
    tensors, report = measure_connectivity(cache, keys, mode, ("alpha",))
    return tensors["alpha"], report.skipped_by_band["alpha"]


def tuple_dist(cache, keys, channels, band):
    by_class = measure_values(cache, keys, channels, band)
    return interclass_distance(by_class["NonAD"], by_class["AD"])


def test_interclass_distance_examples():
    assert interclass_distance([1, 2, 3], [4, 6]) == pytest.approx(3.0)
    assert interclass_distance([1.0, 2.0], [1.5]) == pytest.approx(0.0)
    # translation invariance
    base = interclass_distance([0.1, 0.4], [0.9, 0.3])
    shifted = interclass_distance([5.1, 5.4], [5.9, 5.3])
    assert base == pytest.approx(shifted)
    # common positive scaling of all measures scales Dist linearly
    ns, ad = np.array([0.1, 0.4]), np.array([0.9, 0.3])
    assert interclass_distance(7.0 * ns, 7.0 * ad) == pytest.approx(
        7.0 * interclass_distance(ns, ad))
    with pytest.raises(ParameterError):
        interclass_distance([], [1.0])


def test_measure_values_split_by_class(small_cache, small_keys):
    train, _ = small_keys
    by_class = measure_values(small_cache, train, ("F8", "T7", "T8", "P4"), "alpha")
    assert set(by_class) == {"AD", "NonAD"}
    assert len(by_class["AD"]) + len(by_class["NonAD"]) == len(train)


def test_measure_triple_mode_uses_pure_embedding(small_cache, small_keys):
    train, _ = small_keys
    vectors = small_cache.vectors(train, ("F8", "T7", "T8"), "alpha")
    assert np.abs(vectors.w).max() == 0.0
    by_class = measure_values(small_cache, train, ("F8", "T7", "T8"), "alpha")
    assert set(by_class) == {"AD", "NonAD"}


def test_measure_degenerate_pooled_spectrum():
    rng = np.random.default_rng(1)
    cache = synthetic_cache(rng, constant_channels=("A", "B", "C", "D"))
    with pytest.raises(DegenerateDataError):
        measure_values(cache, cache.keys, ("A", "B", "C", "D"), "alpha")


def test_identical_class_sets_have_zero_distance():
    # same vectors labeled both ways: class means coincide, Dist = 0
    rng = np.random.default_rng(2)
    cache = synthetic_cache(rng, n_keys=8)
    vals = [cache.values[k] for k in cache.keys[:4]]
    for i, k in enumerate(cache.keys[4:]):
        cache.values[k][:] = vals[i]
    # relabel: first four AD, mirrored four NonAD
    for i, k in enumerate(cache.keys):
        cache.labels[k] = "AD" if i < 4 else "NonAD"
    by_class = measure_values(cache, cache.keys, ("A", "B", "C", "D"), "alpha")
    assert interclass_distance(by_class["NonAD"], by_class["AD"]) <= 1e-9


def test_sign_flip_negates_measures():
    # mean projection is linear: flipping every deviation negates measures
    rng = np.random.default_rng(3)
    mean = rng.uniform(0.3, 0.7, (4, 1, 6))
    deviations = 0.1 * rng.standard_normal((8, 4, 1, 6))
    plus = QuaternionMatrix.vstack(
        [QuaternionMatrix.from_components(*(mean + d)) for d in deviations])
    minus = QuaternionMatrix.vstack(
        [QuaternionMatrix.from_components(*(mean - d)) for d in deviations])
    model_p = qpca.fit(plus, p=1)
    model_m = qpca.fit(minus, p=1)
    mv_p = qpca.project(qpca.transform(model_p, plus), "mean").ravel()
    mv_m = qpca.project(qpca.transform(model_m, minus), "mean").ravel()
    assert np.allclose(mv_p, -mv_m, atol=1e-9)


def test_build_tensors_counts(small_cache, small_keys):
    train, _ = small_keys
    tensors, skipped = alpha_tensors(small_cache, train, "triple")
    assert skipped == 0
    assert set(tensors) == {"AD", "NonAD"}
    for t in tensors.values():
        assert len(t.entries) == 5 * 4 * 3  # ordered distinct triples of 5 channels
        assert all(len(set(chs)) == 3 for chs in t.entries)
        assert all(np.isfinite(v) for v in t.entries.values())


def test_ordered_triple_count_full_montage():
    # 19 montage channels give 19*18*17 ordered distinct triples
    from qeeg.dataset import STANDARD_MONTAGE_19
    assert sum(1 for _ in permutations(STANDARD_MONTAGE_19, 3)) == 5814


def test_build_tensors_quadruple_counts():
    rng = np.random.default_rng(4)
    cache = synthetic_cache(rng, channels=("A", "B", "C", "D"), n_keys=10)
    tensors, skipped = alpha_tensors(cache, cache.keys, "quadruple")
    assert all(len(t.entries) == 24 for t in tensors.values())
    triples, _ = alpha_tensors(cache, cache.keys, "triple")
    assert all(len(t.entries) == 24 for t in triples.values())  # 4*3*2


@pytest.mark.parametrize("mode,size", [("triple", 3), ("quadruple", 4)])
def test_reduced_report_matches_every_tuple_measured(small_cache, small_keys, mode, size):
    # the report measures one order per rotation class; measuring every
    # ordered tuple on its own gives the same class means and Dist
    train, _ = small_keys
    _, report = measure_connectivity(small_cache, train, mode)
    tuples = list(permutations(small_cache.channels, size))
    assert report.tuples == tuple(tuples)
    for band in report.bands:
        for i, channels in enumerate(tuples):
            by_class = measure_values(small_cache, train, channels, band)
            for label in ("NonAD", "AD"):
                assert abs(report.class_means_by_band[band][label][i]
                           - by_class[label].mean()) <= 1e-12, (band, channels)
            dist = interclass_distance(by_class["NonAD"], by_class["AD"])
            assert abs(report.dist_by_band[band][i] - dist) <= 1e-12, (band, channels)


@pytest.mark.parametrize("mode,size", [("triple", 3), ("quadruple", 4)])
def test_measures_one_order_per_rotation_class(small_cache, small_keys, monkeypatch,
                                               mode, size):
    import qeeg.connectivity

    calls = []

    def counted(cache, keys, channels, band):
        calls.append((tuple(channels), band))
        return measure_values(cache, keys, channels, band)

    monkeypatch.setattr(qeeg.connectivity, "measure_values", counted)
    train, _ = small_keys
    measure_connectivity(small_cache, train, mode, ("alpha", "beta"))
    first = {}
    for t in permutations(small_cache.channels, size):
        first.setdefault(rotation_class_key(t), t)
    assert calls == [(t, band) for band in ("alpha", "beta") for t in first.values()]
    assert len(calls) == 2 * len(list(permutations(small_cache.channels, size))) // 3


def test_one_class_key_set_is_rejected(small_cache, small_keys):
    train, _ = small_keys
    ad_only = [key for key in train if small_cache.labels[key] == "AD"]
    with pytest.raises(ValidationError, match="both classes"):
        measure_connectivity(small_cache, ad_only, "triple", ("alpha",))


def test_degenerate_class_skipped_for_each_member():
    rng = np.random.default_rng(6)
    cache = synthetic_cache(rng, constant_channels=("A", "B", "C"))
    # the triples of A, B, C in both rotation directions are degenerate
    tensors, skipped = alpha_tensors(cache, cache.keys, "triple")
    assert skipped == 6
    assert all(len(t.entries) == 60 - 6 for t in tensors.values())


def test_report_aligns_bands_that_skip_different_tuples():
    # A, B and C are constant in alpha only, so alpha skips the six orders
    # of their triple and the other bands measure them
    rng = np.random.default_rng(6)
    cache = synthetic_cache(rng)
    alpha = cache.bands.index("alpha")
    for key in cache.keys:
        cache.values[key][:3, alpha] = 0.25
    _, report = measure_connectivity(cache, cache.keys, "triple")
    assert report.skipped_by_band == {"delta": 0, "theta": 0, "alpha": 6, "beta": 0}
    assert report.tuples == tuple(permutations(cache.channels, 3))
    obj = report.to_json()
    abc = set(permutations(("A", "B", "C")))
    for band in cache.bands:
        for values in [obj["dist"][band], *obj["class_means"][band].values()]:
            assert len(values) == 60
            assert [t for t, v in zip(report.tuples, values) if v is None] == (
                sorted(abc) if band == "alpha" else [])
    measured = [d for d in obj["dist"]["alpha"] if d is not None]
    assert len(measured) == 54
    assert obj["mean_dist"]["alpha"] == float(np.mean(measured))


def test_tensor_json_layout(small_cache, small_keys):
    train, _ = small_keys
    tensors, _ = alpha_tensors(small_cache, train, "triple")
    obj = tensors["AD"].to_json()
    assert obj["mode"] == "triple" and obj["band"] == "alpha" and obj["class"] == "AD"
    assert obj["axis_labels"] == list(small_cache.channels)
    channel_lists = [tuple(e["channels"]) for e in obj["entries"]]
    assert channel_lists == sorted(channel_lists)  # lexicographic order


def test_distance_report_alpha_dominates(small_cache, small_keys):
    train, _ = small_keys
    quad = ("F8", "T7", "T8", "P4")
    alpha = tuple_dist(small_cache, train, quad, "alpha")
    for band in ("delta", "theta", "beta"):
        assert alpha > tuple_dist(small_cache, train, quad, band)
    _, report = measure_connectivity(small_cache, train, "quadruple")
    assert report.n_ns + report.n_ad == len(train)
    obj = report.to_json()
    assert obj["mode"] == "quadruple"
    assert set(obj["mean_dist"]) == {"delta", "theta", "alpha", "beta"}


def test_quadruple_distance_at_least_triple(small_cache, small_keys):
    # full embedding adds the scalar channel; on alpha-difference data its
    # distance should not fall below the pure 3-channel measure
    train, _ = small_keys
    quad = ("F8", "T7", "T8", "P4")
    d4 = tuple_dist(small_cache, train, quad, "alpha")
    d3 = tuple_dist(small_cache, train, ("T7", "T8", "P4"), "alpha")
    assert d4 >= d3 - 1e-9


def test_mode_validation(small_cache, small_keys):
    train, _ = small_keys
    with pytest.raises(ParameterError):
        measure_connectivity(small_cache, train, "pairs")
    with pytest.raises(ParameterError):
        measure_values(small_cache, train, ("F8", "T7"), "alpha")
