"""Connectivity measure, interclass distance, and tensor tests."""
import json
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
    """The alpha band's tensor entries ({tuple: value}) by class and its
    skipped-tuple count."""
    report = measure_connectivity(cache, keys, mode, ("alpha",))
    return ({label: entries(tensor) for label, tensor in report.tensors_json("alpha").items()},
            report.skipped("alpha"))


def entries(tensor):
    return {tuple(e["channels"]): e["value"] for e in tensor["entries"]}


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
    cache.grid[4:] = cache.grid[:4]
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
        assert len(t) == 5 * 4 * 3  # ordered distinct triples of 5 channels
        assert all(len(set(chs)) == 3 for chs in t)
        assert all(np.isfinite(v) for v in t.values())


def test_ordered_triple_count_full_montage():
    # 19 montage channels give 19*18*17 ordered distinct triples
    from qeeg.dataset import STANDARD_MONTAGE_19
    assert sum(1 for _ in permutations(STANDARD_MONTAGE_19, 3)) == 5814


def test_build_tensors_quadruple_counts():
    rng = np.random.default_rng(4)
    cache = synthetic_cache(rng, channels=("A", "B", "C", "D"), n_keys=10)
    tensors, skipped = alpha_tensors(cache, cache.keys, "quadruple")
    assert skipped == 0 and set(tensors) == {"AD", "NonAD"}
    assert all(len(t) == 24 for t in tensors.values())
    triples, _ = alpha_tensors(cache, cache.keys, "triple")
    assert all(len(t) == 24 for t in triples.values())  # 4*3*2


@pytest.mark.parametrize("mode,size", [("triple", 3), ("quadruple", 4)])
def test_reduced_report_matches_every_tuple_measured(small_cache, small_keys, mode, size):
    # the report measures one order per rotation class; measuring every
    # ordered tuple on its own gives the same class means and Dist
    train, _ = small_keys
    report = measure_connectivity(small_cache, train, mode)
    tuples = list(permutations(small_cache.channels, size))
    assert report.tuples == tuple(tuples)
    assert [tuple(t) for t in report.to_json()["tuples"]] == tuples
    for band, rows in report.rows_by_band.items():
        assert list(rows) == tuples
        for channels in tuples:
            means, dist = rows[channels]
            by_class = measure_values(small_cache, train, channels, band)
            for label in ("NonAD", "AD"):
                assert abs(means[label] - by_class[label].mean()) <= 1e-12, (band, channels)
            alone = interclass_distance(by_class["NonAD"], by_class["AD"])
            assert abs(dist - alone) <= 1e-12, (band, channels)


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
    assert all(len(t) == 60 - 6 for t in tensors.values())
    assert not any(set(chs) == {"A", "B", "C"} for t in tensors.values() for chs in t)


def alpha_skips_abc_report():
    # A, B and C are constant in alpha only, so alpha skips the six orders
    # of their triple and the other bands measure them
    rng = np.random.default_rng(6)
    cache = synthetic_cache(rng)
    alpha = cache.bands.index("alpha")
    cache.grid[:, :3, alpha] = 0.25
    return cache, measure_connectivity(cache, cache.keys, "triple")


def test_report_aligns_bands_that_skip_different_tuples():
    cache, report = alpha_skips_abc_report()
    skipped = {"delta": 0, "theta": 0, "alpha": 6, "beta": 0}
    assert {band: report.skipped(band) for band in cache.bands} == skipped
    assert report.tuples == tuple(permutations(cache.channels, 3))
    obj = report.to_json()
    assert obj["skipped"] == skipped
    tuples = [tuple(t) for t in obj["tuples"]]
    assert tuples == list(report.tuples)
    abc = set(permutations(("A", "B", "C")))
    for band in cache.bands:
        for values in [obj["dist"][band], *obj["class_means"][band].values()]:
            assert len(values) == 60
            assert [t for t, v in zip(tuples, values) if v is None] == (
                sorted(abc) if band == "alpha" else [])
    measured = [d for d in obj["dist"]["alpha"] if d is not None]
    assert len(measured) == 54
    assert obj["mean_dist"]["alpha"] == float(np.mean(measured))


def test_tensor_entries_equal_report_class_means():
    # every tensor entry is the distance report's class mean at its tuple
    cache, report = alpha_skips_abc_report()
    obj = report.to_json()
    column = {tuple(t): i for i, t in enumerate(obj["tuples"])}
    for band in cache.bands:
        tensors = report.tensors_json(band)
        assert sorted(tensors) == ["AD", "NonAD"]
        for label, tensor in tensors.items():
            assert tensor["skipped_tuples"] == obj["skipped"][band]
            assert len(tensor["entries"]) == 60 - obj["skipped"][band]
            for chs, value in entries(tensor).items():
                assert value == obj["class_means"][band][label][column[chs]], (band, chs)


def test_tensor_json_layout(small_cache, small_keys):
    train, _ = small_keys
    report = measure_connectivity(small_cache, train, "triple", ("alpha",))
    obj = report.tensors_json("alpha")["AD"]
    assert list(obj) == ["mode", "band", "class", "axis_labels", "entries",
                         "skipped_tuples"]
    assert obj["mode"] == "triple" and obj["band"] == "alpha" and obj["class"] == "AD"
    assert obj["axis_labels"] == list(small_cache.channels)
    assert obj["skipped_tuples"] == 0
    channel_lists = [tuple(e["channels"]) for e in obj["entries"]]
    assert channel_lists == sorted(channel_lists)  # lexicographic order


def test_distance_report_alpha_dominates(small_cache, small_keys):
    train, _ = small_keys
    quad = ("F8", "T7", "T8", "P4")
    alpha = tuple_dist(small_cache, train, quad, "alpha")
    for band in ("delta", "theta", "beta"):
        assert alpha > tuple_dist(small_cache, train, quad, band)
    report = measure_connectivity(small_cache, train, "quadruple")
    assert report.samples["NonAD"] + report.samples["AD"] == len(train)
    obj = report.to_json()
    assert obj["mode"] == "quadruple"
    assert obj["samples"] == report.samples
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


def test_band_that_skips_every_tuple_has_no_mean_dist():
    rng = np.random.default_rng(6)
    cache = synthetic_cache(rng, channels=("A", "B", "C"), constant_channels=("A", "B", "C"))
    report = measure_connectivity(cache, cache.keys, "triple", ("alpha",))
    assert report.tensors_json("alpha") == {} and report.skipped("alpha") == 6
    assert report.rows_by_band == {"alpha": {}}
    assert report.mean_dist("alpha") is None
    text = json.dumps(report.to_json(), allow_nan=False)
    assert json.loads(text)["mean_dist"] == {"alpha": None}
