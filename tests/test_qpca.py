"""Quaternion PCA tests: embedding, fit/transform consistency, projections,
the classical-PCA reduction oracle for real-embedded data, and the real
covariance summed over left multiplication by the units."""
from dataclasses import replace

import numpy as np
import pytest

from qeeg.errors import DegenerateDataError, ParameterError, ShapeError, ValidationError
from qeeg.qlinalg import QuaternionMatrix
from qeeg.qpca import ChannelQuadruple, QpcaModel, embed_rows, fit, project, transform


def rand_training(rng, m, n):
    return QuaternionMatrix.from_components(*rng.standard_normal((4, m, n)))


def test_quadruple_validation():
    ChannelQuadruple(("F8", "T7", "T8", "P4"))
    with pytest.raises(ValidationError):
        ChannelQuadruple(("F8", "T7", "T8"))
    with pytest.raises(ValidationError):
        ChannelQuadruple(("F8", "T7", "T8", "T8"))


def test_embed_constant_quarter():
    vals = np.full(5, 0.25)
    q = embed_rows(vals, vals, vals, vals)
    assert q.shape == (1, 5)
    for n in range(5):
        e = q[0, n]
        assert (e.w, e.x, e.y, e.z) == (0.25, 0.25, 0.25, 0.25)


def test_embed_first_channel_goes_to_scalar_part():
    q = embed_rows(np.ones(4), np.zeros(4), np.zeros(4), np.zeros(4))
    assert np.allclose(q.w, 1.0)
    assert np.allclose(q.x, 0.0) and np.allclose(q.y, 0.0) and np.allclose(q.z, 0.0)


def test_embed_order_sensitive():
    rng = np.random.default_rng(0)
    vecs = [rng.uniform(0, 1, 6) for _ in "ABCD"]
    straight = embed_rows(*vecs)
    swapped = embed_rows(vecs[1], vecs[0], vecs[2], vecs[3])
    assert (straight - swapped).frobenius_norm() > 1e-9


def test_embed_validation():
    with pytest.raises(ShapeError, match="shape"):
        embed_rows(np.ones(4), np.ones(5), np.ones(4), np.ones(4))


def test_fit_paper_dimensions():
    rng = np.random.default_rng(1)
    model = fit(rand_training(rng, 55, 40), p=19)
    assert model.basis.shape == (40, 19)
    assert len(model.eigenvalues) == 40
    assert model.p == 19


def test_fit_rank_one_two_vectors():
    rng = np.random.default_rng(2)
    base = rng.standard_normal((4, 1, 6))
    delta = rng.standard_normal((4, 1, 6))
    v1 = QuaternionMatrix.from_components(*(base + delta))
    v2 = QuaternionMatrix.from_components(*(base - delta))
    model = fit(QuaternionMatrix.vstack([v1, v2]), p=1)
    ev = model.eigenvalues
    assert ev[0] > 1e-6
    assert np.all(ev[1:] <= 1e-10 * ev[0])
    # first basis column is the difference direction up to a unit factor
    d = QuaternionMatrix.from_components(*delta)
    d_norms = d.entry_norms().ravel()
    got = model.basis.entry_norms().ravel()
    assert np.allclose(got, d_norms / np.linalg.norm(d_norms), atol=1e-9)


def test_fit_trace_equals_eigenvalue_sum():
    rng = np.random.default_rng(3)
    q = rand_training(rng, 12, 8)
    model = fit(q, p=4)
    centered = q.subtract_row(q.row_mean())
    cov = (centered.H @ centered).scale(1.0 / 12)
    trace = float(np.trace(cov.w))
    assert abs(trace - model.eigenvalues.sum()) <= 1e-9 * trace


def test_fit_covariance_hermitian():
    rng = np.random.default_rng(4)
    q = rand_training(rng, 10, 7)
    centered = q.subtract_row(q.row_mean())
    cov = (centered.H @ centered).scale(0.1)
    assert (cov - cov.H).frobenius_norm() <= 1e-12 * cov.frobenius_norm()


def test_fit_degenerate_inputs():
    rng = np.random.default_rng(5)
    row = QuaternionMatrix.from_components(*rng.standard_normal((4, 1, 5)))
    with pytest.raises(DegenerateDataError, match="identical"):
        fit(QuaternionMatrix.vstack([row, row, row]), p=1)
    with pytest.raises(DegenerateDataError, match="at least 2"):
        fit(row, p=1)
    with pytest.raises(ParameterError):
        fit(rand_training(rng, 6, 5), p=6)  # p > min(m, N_s)


def test_fit_energy_threshold_selection():
    rng = np.random.default_rng(6)
    q = rand_training(rng, 30, 10)
    model = fit(q, energy_threshold=0.90)
    share = np.cumsum(model.eigenvalues) / model.eigenvalues.sum()
    assert share[model.p - 1] >= 0.90
    assert model.p == 1 or share[model.p - 2] < 0.90


def test_subspace_invariant_under_covariance_rescaling():
    rng = np.random.default_rng(7)
    q = rand_training(rng, 20, 8)
    m1 = fit(q, p=3)
    m2 = fit(q.scale(2.7), p=3)  # rows times c: covariance times c**2
    p1 = m1.basis @ m1.basis.H
    p2 = m2.basis @ m2.basis.H
    assert (p1 - p2).frobenius_norm() <= 1e-9


def test_transform_centering_and_consistency():
    rng = np.random.default_rng(8)
    q = rand_training(rng, 9, 6)
    model = fit(q, p=3)
    # transform of the training mean is the zero vector
    feats_mean = transform(model, model.mean_vector)
    assert feats_mean.frobenius_norm() <= 1e-12
    # stacked transform equals the definitional product Q~ U_p
    feats = transform(model, q)
    direct = q.subtract_row(model.mean_vector) @ model.basis
    assert (feats - direct).frobenius_norm() == 0.0
    # column means of the centered training matrix vanish before projection
    centered = q.subtract_row(model.mean_vector)
    col_means = centered.row_mean()
    assert col_means.frobenius_norm() <= 1e-12 * q.frobenius_norm()


def test_transform_shape_error():
    rng = np.random.default_rng(9)
    model = fit(rand_training(rng, 5, 6), p=2)
    with pytest.raises(ShapeError):
        transform(model, rand_training(rng, 1, 7))


def test_transform_test_sample_uses_training_mean():
    rng = np.random.default_rng(10)
    train = rand_training(rng, 8, 5)
    model = fit(train, p=2)
    z = rand_training(rng, 1, 5)
    got = transform(model, z)
    direct = z.subtract_row(model.mean_vector) @ model.basis
    assert (got - direct).frobenius_norm() == 0.0


def test_real_embedded_data_matches_classical_pca():
    # imaginary parts zero: per-entry feature norms equal |real PCA scores|
    rng = np.random.default_rng(11)
    x = rng.standard_normal((12, 6)) * np.array([3.0, 2.5, 2.0, 1.5, 1.0, 0.5])
    q = QuaternionMatrix.from_real(x)
    model = fit(q, p=4)
    feats = transform(model, q)

    xc = x - x.mean(axis=0)
    cov = xc.T @ xc / 12
    vals, vecs = np.linalg.eigh(cov)
    order = np.argsort(vals)[::-1]
    vals, vecs = vals[order], vecs[:, order]
    scores = xc @ vecs[:, :4]
    assert np.allclose(model.eigenvalues[:4], vals[:4], atol=1e-9 * vals[0])
    assert np.allclose(feats.entry_norms(), np.abs(scores), atol=1e-9)
    # with the phase convention the basis is real for real data
    assert np.abs(model.basis.x).max() <= 1e-9
    assert np.abs(model.basis.y).max() <= 1e-9
    assert np.abs(model.basis.z).max() <= 1e-9


def test_project_formulas():
    q = QuaternionMatrix.from_entries([[ [1.0, 2.0, 3.0, 4.0] ]])
    assert project(q, "mean")[0, 0] == pytest.approx(2.5)
    assert project(q, "norm")[0, 0] == pytest.approx(np.sqrt(30.0))
    alt = QuaternionMatrix.from_entries([[ [1.0, -1.0, 1.0, -1.0] ]])
    assert project(alt, "mean")[0, 0] == pytest.approx(0.0)
    assert project(alt, "absolute")[0, 0] == pytest.approx(1.0)
    pure_i = QuaternionMatrix.from_entries([[ [0.0, 1.0, 0.0, 0.0] ]])
    assert project(pure_i, "phase")[0, 0] == pytest.approx(np.pi / 2)
    zero = QuaternionMatrix.zeros(1, 1)
    assert project(zero, "phase")[0, 0] == 0.0  # documented convention
    with pytest.raises(ParameterError):
        project(q, "median")


def test_project_mean_is_linear():
    rng = np.random.default_rng(12)
    a = rand_training(rng, 3, 4)
    b = rand_training(rng, 3, 4)
    combo = a.scale(2.0) + b.scale(-0.5)
    assert np.allclose(project(combo, "mean"),
                       2.0 * project(a, "mean") - 0.5 * project(b, "mean"), atol=1e-12)


def test_phase_range():
    rng = np.random.default_rng(13)
    vals = project(rand_training(rng, 5, 5), "phase")
    assert np.all(vals >= 0.0) and np.all(vals <= np.pi)


def test_model_json_roundtrip():
    rng = np.random.default_rng(14)
    model = replace(fit(rand_training(rng, 10, 6), p=3), band="alpha",
                    quadruple=ChannelQuadruple(("F8", "T7", "T8", "P4")),
                    segment_seconds=1.0, projection="mean")
    back = QpcaModel.from_json(model.to_json())
    assert back.p == model.p and back.band == "alpha"
    assert back.quadruple == model.quadruple
    assert (back.basis - model.basis).frobenius_norm() <= 1e-15
    assert (back.mean_vector - model.mean_vector).frobenius_norm() <= 1e-15
    assert np.allclose(back.eigenvalues, model.eigenvalues)


def test_spectrum_tie_flag():
    # two exactly symmetric clusters give a tied spectrum at the cut
    base = np.zeros((4, 4, 4))
    base[0] = np.array([[1, 0, 0, 0], [-1, 0, 0, 0], [0, 1, 0, 0], [0, -1, 0, 0]],
                       dtype=float)
    q = QuaternionMatrix.from_components(*base)
    with pytest.warns(RuntimeWarning, match="spectrum tie"):
        model = fit(q, p=1)
    assert model.spectrum_tie


def _left_multiplication(u) -> np.ndarray:
    """The 4 x 4 matrix of q -> u q on (w, x, y, z)."""
    a, b, c, d = u
    return np.array([[a, -b, -c, -d], [b, a, -d, c], [c, d, a, -b], [d, -c, b, a]])


def _assert_unit_sum_identity(q):
    # S, the centred real Gram matrix of [W X Y Z] over m, summed over
    # kron(L_u, I_n) S kron(L_u, I_n)^T for u in {1, i, j, k}: its
    # eigenvalues are QPCA's, each 4 times (qpca module docstring)
    m, n = q.shape
    rows = np.hstack([q.w, q.x, q.y, q.z])
    rows = rows - rows.mean(axis=0)
    s = rows.T @ rows / m
    units = [np.kron(_left_multiplication(u), np.eye(n)) for u in np.eye(4)]
    summed = sum(k @ s @ k.T for k in units)
    expected = np.repeat(fit(q, p=1).eigenvalues, 4)
    got = np.linalg.eigvalsh(summed)[::-1]
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-10 * expected[0])


def test_eigenvalues_are_the_unit_summed_real_covariance_spectrum():
    rng = np.random.default_rng(11)
    scales = np.array([1.0, 0.05, 4.0, 0.3])[:, None, None]
    offsets = np.array([2.0, -1.0, 0.5, 3.0])[:, None, None]
    _assert_unit_sum_identity(QuaternionMatrix.from_components(
        *(offsets + scales * rng.standard_normal((4, 30, 7)))))


def test_unit_sum_identity_on_a_cache_quadruple(small_cache):
    _assert_unit_sum_identity(small_cache.vectors(small_cache.keys, ("F8", "T7", "T8", "P4"),
                                                  "alpha"))
