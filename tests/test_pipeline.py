"""Feature cache and single-trial pipeline tests."""
import random
from dataclasses import replace

import numpy as np
import pytest

from conftest import synthetic_cache
from qeeg import qpca
from qeeg.baseline import concatenated_features, fit_real_pca
from qeeg.classifier import (confusion, metrics, svm_fit, svm_fit_prefixes, svm_predict,
                             svm_predict_prefixes)
from qeeg.errors import ParameterError, ValidationError
from qeeg.pipeline import (FeatureCache, PipelineParams, best_over_p, evaluate_quadruple,
                           evaluate_model, fit_pca, sweep_parameters, train_pipeline)
from qeeg.search import enumerate_channel_tuples
from qeeg.spectral import band_power_matrix


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


@pytest.mark.parametrize("channels", [("T8", "F7", "P4"), ("P4", "F8", "F7", "T7")])
def test_cache_gathers_shuffled_keys_from_their_grid_rows(small_cache, channels):
    keys = list(small_cache.keys[::2])
    random.Random(5).shuffle(keys)
    bi = small_cache.band_index("theta")
    cidx = [small_cache.channel_index(c) for c in channels]
    powers = small_cache.band_powers(keys, channels, "theta")
    assert powers.shape == (len(keys), len(channels), small_cache.n_segments)
    q = small_cache.vectors(keys, channels, "theta")
    parts = (q.w, q.x, q.y, q.z)[4 - len(channels):]
    for i, k in enumerate(keys):
        expected = small_cache.grid[small_cache.keys.index(k)][cidx, bi]
        assert np.array_equal(powers[i], expected)
        assert all(np.array_equal(part[i], row) for part, row in zip(parts, expected))


def test_cache_grid_is_in_sorted_key_order(small_dataset, small_cache):
    recordings = list(small_dataset)
    random.Random(11).shuffle(recordings)
    cache = FeatureCache.from_recordings(recordings, 1.0)
    by_key = sorted(small_dataset, key=lambda rec: rec.key())
    assert cache.keys == tuple(rec.key() for rec in by_key)
    expected = np.stack([band_power_matrix(rec, 1.0) for rec in by_key])
    assert cache.grid.dtype == np.float64
    assert np.array_equal(cache.grid, expected)
    assert np.array_equal(cache.grid, small_cache.grid)


def test_cache_csv_roundtrip(small_cache):
    text = small_cache.to_csv_text()
    back = FeatureCache.from_csv_text(text, small_cache.segment_seconds)
    assert back.keys == small_cache.keys
    assert back.channels == small_cache.channels
    assert back.labels == small_cache.labels
    assert np.array_equal(back.grid, small_cache.grid)
    # re-serialization is byte-identical (repr round-trip)
    assert back.to_csv_text() == text


def test_cache_csv_header_check():
    with pytest.raises(ValidationError, match="header"):
        FeatureCache.from_csv_text("nope\n1,2,3\n", 1.0)


def test_cache_csv_without_rows_is_rejected(small_cache):
    header = small_cache.to_csv_text().splitlines()[0]
    with pytest.raises(ValidationError, match="no rows"):
        FeatureCache.from_csv_text(f"# config: {{}}\n{header}\n", 1.0)


def _cache_error(cache, rows):
    """The message of reading the header of `cache` followed by `rows`."""
    header = cache.to_csv_text().splitlines()[0]
    with pytest.raises(ValidationError) as info:
        FeatureCache.from_csv_text("\n".join([header, *rows]) + "\n", cache.segment_seconds)
    return str(info.value)


def _expected(line, row, prefix):
    return f"feature cache line {line}: {row!r}, expected {prefix!r} and a value"


def _prefix(row):
    return row.rsplit(",", 1)[0] + ","


@pytest.mark.parametrize("defect", ["unknown label", "disagree on the label",
                                    "repeats a cell", "band outside", "band inside",
                                    "incomplete", "key out of order", "channel repeated",
                                    "truncated"])
def test_cache_csv_rejects_rows_off_the_grid(small_cache, defect):
    # row i of the cache text is line i + 2, after the header
    header, *lines = small_cache.to_csv_text().splitlines()
    rows = [ln.split(",") for ln in lines]
    # the first key's rows come first, segments 0..N_s-1 of its first cell leading
    n_seg = small_cache.n_segments
    n_key = len(small_cache.channels) * len(small_cache.bands) * n_seg
    first, second = small_cache.keys[:2]
    if defect == "unknown label":
        for row in rows[:n_key]:
            row[2] = "ad"
        expected = (f"feature cache line 2: unknown label 'ad' for {first}; "
                    f"expected one of ('AD', 'NonAD')")
    elif defect == "disagree on the label":  # the second theta row of the first key
        r = n_seg + 1
        rows[r][2] = "NonAD" if rows[r][2] == "AD" else "AD"
        expected = _expected(r + 2, ",".join(rows[r]), _prefix(lines[r]))
    elif defect == "repeats a cell":
        rows.append(list(rows[0]))
        expected = (f"feature cache line {len(lines) + 2}: {lines[0]!r}, "
                    f"expected a key after {small_cache.keys[-1]}")
    elif defect == "band outside":  # the first theta row of the first cell
        rows[n_seg][4] = "gamma"
        expected = _expected(n_seg + 2, ",".join(rows[n_seg]), _prefix(lines[n_seg]))
    elif defect == "band inside":  # the third row of the first cell
        rows[2][4] = "gamma"
        expected = _expected(4, ",".join(rows[2]), _prefix(lines[2]))
    elif defect == "incomplete":  # segments 0..N_s-2 and N_s in the first cell
        rows[n_seg - 1][5] = str(n_seg)
        expected = _expected(n_seg + 1, ",".join(rows[n_seg - 1]), _prefix(lines[n_seg - 1]))
    elif defect == "key out of order":  # the second key's block first
        rows[:2 * n_key] = rows[n_key:2 * n_key] + rows[:n_key]
        expected = f"feature cache line {n_key + 2}: {lines[0]!r}, expected a key after {second}"
    elif defect == "channel repeated":  # the first key's second channel named as its first
        stride = len(small_cache.bands) * n_seg
        for row in rows[stride:2 * stride]:
            row[3] = small_cache.channels[0]
        expected = (f"feature cache line {stride + 2}: {','.join(rows[stride])!r}, "
                    f"expected a key after {first}")
    else:  # the last row missing: the empty line after the last reads in its place
        expected = _expected(len(lines) + 1, "", _prefix(lines[-1]))
        del rows[-1]
    assert _cache_error(small_cache, [",".join(row) for row in rows]) == expected


def _cache_parts(cache):
    """Everything a FeatureCache holds, dict orders and value bits included."""
    return (cache.keys, cache.channels, cache.bands, list(cache.labels.items()),
            cache.grid.dtype, cache.grid.shape, cache.grid.tobytes())


@pytest.mark.parametrize("source", ["small", "synthetic"])
def test_cache_csv_roundtrip_after_comment_lines(small_cache, source):
    cache = small_cache if source == "small" else synthetic_cache(np.random.default_rng(3))
    text = "# config: {}\n# checksum: 0\n" + cache.to_csv_text()
    back = FeatureCache.from_csv_text(text, 1.0)
    assert _cache_parts(back) == _cache_parts(cache)


def test_cache_csv_roundtrip_of_a_non_ascii_subject():
    rng = np.random.default_rng(4)
    keys = (("AD01", 1), ("AD01", 2), ("NonAD02", 1), ("ÄdüAD01", 1), ("ÄdüAD01", 2))
    labels = {key: "NonAD" if key[0] == "NonAD02" else "AD" for key in keys}
    cache = FeatureCache(segment_seconds=1.0, channels=("F7", "T7", "P4"), keys=keys,
                         labels=labels, grid=rng.uniform(0.05, 0.95, (5, 3, 4, 6)))
    text = cache.to_csv_text()
    assert "ÄdüAD01,2,AD,P4,beta,5," in text
    back = FeatureCache.from_csv_text(text, 1.0)
    assert _cache_parts(back) == _cache_parts(cache)
    assert back.to_csv_text() == text


def _non_canonical(text, variant):
    header, *rows = text.splitlines()
    if variant == "rows shuffled":
        random.Random(0).shuffle(rows)
    elif variant == "comment after header":
        rows.insert(0, "# a note")
    elif variant == "blank line after header":
        rows.insert(0, "")
    elif variant == "session 01":
        rows = [row.replace(",1,", ",01,", 1) for row in rows]
    elif variant == "value leading space":
        rows[0] = ", ".join(rows[0].rsplit(",", 1))
    return "\n".join([header] + rows) + "\n"


@pytest.mark.parametrize("variant", ["rows shuffled", "CRLF", "comment after header",
                                     "blank line after header", "session 01"])
def test_non_canonical_cache_is_rejected(small_cache, variant):
    text = small_cache.to_csv_text()
    if variant == "CRLF":  # the CLI reads with universal newlines
        text = text.replace("\n", "\r\n")
    else:
        text = _non_canonical(text, variant)
    first = text.splitlines()[1]
    expected = {
        # the first row's key and channel, at the first band and segment
        "rows shuffled": _expected(2, first, ",".join(first.split(",")[:4]) + ",delta,0,"),
        "CRLF": "feature cache header mismatch",
        "comment after header": "feature cache line 2: '# a note', expected 7 fields",
        "blank line after header": "feature cache line 2: '', expected 7 fields",
        "session 01": _expected(2, first, _prefix(first.replace(",01,", ",1,"))),
    }[variant]
    with pytest.raises(ValidationError) as info:
        FeatureCache.from_csv_text(text, 1.0)
    assert str(info.value) == expected


def test_cache_value_with_a_leading_space_reads(small_cache):
    # `float` strips the space
    text = _non_canonical(small_cache.to_csv_text(), "value leading space")
    assert text != small_cache.to_csv_text()
    assert _cache_parts(FeatureCache.from_csv_text(text, 1.0)) == _cache_parts(small_cache)


@pytest.mark.parametrize("where", ["first", "later"])
def test_cache_rows_of_a_hash_subject_are_rejected(small_cache, where):
    header, *rows = small_cache.to_csv_text().splitlines()
    n_key = len(small_cache.channels) * len(small_cache.bands) * small_cache.n_segments
    r = 0 if where == "first" else n_key
    rows[r:r + n_key] = ["#" + row for row in rows[r:r + n_key]]
    expected = "a key" if r == 0 else f"a key after {small_cache.keys[0]}"
    assert _cache_error(small_cache, rows) == (f"feature cache line {r + 2}: {rows[r]!r}, "
                                               f"expected {expected}")


def test_cache_row_of_a_bare_value_is_rejected(small_cache):
    # a row without a comma would parse as a float if the comma count did
    # not catch it
    header, *rows = small_cache.to_csv_text().splitlines()
    prefix, rows[-1] = rows[-1].rsplit(",", 1)
    assert _cache_error(small_cache, rows) == _expected(len(rows) + 1, rows[-1], prefix + ",")


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
    assert replace(base, p=3).p == 3


def _pca_rows(fit, cache, keys):
    """Training rows of one quadruple for `fit`: quaternion rows for QPCA,
    concatenated real rows for the real-PCA baseline."""
    quad = ("F8", "T7", "T8", "P4")
    if fit is qpca.fit:
        return cache.vectors(keys, quad, "alpha")
    return concatenated_features(cache, keys, quad, "alpha")


PCA_FITS = pytest.mark.parametrize("fit", [qpca.fit, fit_real_pca], ids=["qpca", "real_pca"])


@PCA_FITS
def test_fit_pca_fixed_p(small_cache, small_keys, fit):
    rows = _pca_rows(fit, small_cache, small_keys[0])
    model, candidates = fit_pca(fit, rows, PipelineParams(p=3))
    assert (model.p, candidates) == (3, [3])
    with pytest.raises(ParameterError):
        fit_pca(fit, rows, PipelineParams(p=min(rows.shape) + 1))


@PCA_FITS
def test_fit_pca_clamps_the_sweep_limit(small_cache, small_keys, fit):
    rows = _pca_rows(fit, small_cache, small_keys[0])
    p_max = min(rows.shape)
    model, candidates = fit_pca(fit, rows, PipelineParams(p_sweep_limit=p_max + 5))
    assert (model.p, candidates) == (p_max, list(range(1, p_max + 1)))
    model, candidates = fit_pca(fit, rows, PipelineParams(p_sweep_limit=3))
    assert (model.p, candidates) == (3, [1, 2, 3])


@PCA_FITS
def test_fit_pca_energy_threshold(small_cache, small_keys, fit):
    rows = _pca_rows(fit, small_cache, small_keys[0])
    model, candidates = fit_pca(fit, rows, PipelineParams(p_sweep_limit=None, p_threshold=0.99))
    expected = qpca.select_components(model.eigenvalues, None, 0.99, *rows.shape)
    assert expected > 1 and (model.p, candidates) == (expected, [expected])


def test_evaluate_quadruple_separates_classes(small_cache, small_keys):
    train, test = small_keys
    out = evaluate_quadruple(small_cache, train, test, ("F8", "T7", "T8", "P4"),
                             "alpha", PipelineParams())
    assert out.acc is not None and out.acc >= 75.0
    assert 1 <= out.p_used <= 20
    assert out.result.counts.total == len(test)


def test_evaluate_quadruple_fixed_p(small_cache, small_keys):
    train, test = small_keys
    out = evaluate_quadruple(small_cache, train, test, ("F8", "T7", "T8", "P4"),
                             "alpha", PipelineParams(p=3, p_sweep_limit=None))
    assert out.p_used == 3


def test_evaluate_quadruple_threshold_mode(small_cache, small_keys):
    train, test = small_keys
    out = evaluate_quadruple(small_cache, train, test, ("F8", "T7", "T8", "P4"),
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
    a = evaluate_quadruple(small_cache, train, test, quad, "alpha", params)
    b = evaluate_quadruple(small_cache, train, test, quad, "alpha", params)
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
        model, candidates = fit_pca(qpca.fit, q_train, PipelineParams(p_sweep_limit=limit))
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


def test_sweep_segment_axis(small_dataset, small_keys):
    rows = sweep_parameters(small_dataset, *small_keys, ("F8", "T7", "T8", "P4"),
                            "alpha", "segment_seconds", [0.5, 1.0, 2.5],
                            base=PipelineParams(p_sweep_limit=5))
    assert len(rows) == 3
    assert all(r["error"] is None for r in rows)
    assert all(r["acc"] is not None for r in rows)


def test_sweep_projection_axis(small_dataset, small_keys):
    rows = sweep_parameters(small_dataset, *small_keys, ("F8", "T7", "T8", "P4"),
                            "alpha", "projection",
                            ["mean", "absolute", "norm", "phase"],
                            base=PipelineParams(p_sweep_limit=5))
    assert [r["value"] for r in rows] == ["mean", "absolute", "norm", "phase"]
    assert all(r["error"] is None for r in rows)


def test_sweep_p_axis(small_dataset, small_keys):
    rows = sweep_parameters(small_dataset, *small_keys, ("F8", "T7", "T8", "P4"),
                            "alpha", "p", [1, 2, 3, 4])
    assert [r["p_used"] for r in rows] == [1, 2, 3, 4]


def test_sweep_p_axis_ignores_the_sweep_limit(small_dataset, small_keys):
    # a fixed p comes before the sweep limit, so the default limit of 20
    # changes no grid point, the failing p = 99 included
    rows = [sweep_parameters(small_dataset, *small_keys, ("F8", "T7", "T8", "P4"),
                             "alpha", "p", [1, 3, 99], base=base)
            for base in (PipelineParams(), PipelineParams(p_sweep_limit=None))]
    assert rows[0] == rows[1]
    assert [r["p_used"] for r in rows[0]] == [1, 3, None]


def test_sweep_bad_point_is_reported_not_raised(small_dataset, small_keys):
    rows = sweep_parameters(small_dataset, *small_keys, ("F8", "T7", "T8", "P4"),
                            "alpha", "segment_seconds", [1.0, 0.3141],
                            base=PipelineParams(p_sweep_limit=5))
    assert rows[0]["error"] is None
    assert rows[1]["error"] is not None and "ParameterError" in rows[1]["error"]


def test_sweep_rejects_empty_grid(small_dataset, small_keys):
    with pytest.raises(ParameterError):
        sweep_parameters(small_dataset, *small_keys, ("F8", "T7", "T8", "P4"),
                         "alpha", "p", [])
    with pytest.raises(ParameterError):
        sweep_parameters(small_dataset, *small_keys, ("F8", "T7", "T8", "P4"),
                         "alpha", "bogus", [1])


def test_synthetic_cache_helper():
    rng = np.random.default_rng(0)
    cache = synthetic_cache(rng, constant_channels=("E",))
    assert np.all(cache.grid[0, 4] == 0.25)
