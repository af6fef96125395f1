"""Quaternion matrix and QSVD tests against the complex-adjoint oracle, and
the Hermitian eigendecomposition against QSVD."""
import numpy as np
import pytest

from qeeg.errors import ParameterError, ShapeError, ValidationError
from qeeg.qlinalg import QuaternionMatrix, qeigh, qsvd, truncate
from qeeg.quaternion import Quaternion


def rand_qmat(rng, m, n):
    return QuaternionMatrix.from_components(*(rng.standard_normal((4, m, n))))


def adjoint_oracle(mat: QuaternionMatrix) -> np.ndarray:
    # built directly from the four real components, independent of the class
    a = mat.w + 1j * mat.x
    b = mat.y + 1j * mat.z
    return np.block([[a, b], [-b.conj(), a.conj()]])


def unitarity_defect(q: QuaternionMatrix) -> float:
    eye = QuaternionMatrix.identity(q.cols)
    return (q.H @ q - eye).frobenius_norm()


def test_matmul_identity():
    rng = np.random.default_rng(0)
    a = rand_qmat(rng, 4, 4)
    eye = QuaternionMatrix.identity(4)
    assert (a @ eye - a).frobenius_norm() <= 1e-14 * a.frobenius_norm()
    assert (eye @ a - a).frobenius_norm() <= 1e-14 * a.frobenius_norm()


def test_matmul_ij_equals_k():
    i_mat = QuaternionMatrix.from_entries([[Quaternion(0, 1, 0, 0)]])
    j_mat = QuaternionMatrix.from_entries([[Quaternion(0, 0, 1, 0)]])
    prod = i_mat @ j_mat
    assert prod[0, 0] == Quaternion(0, 0, 0, 1)
    # reversed order gives -k
    assert (j_mat @ i_mat)[0, 0] == Quaternion(0, 0, 0, -1)


def test_matmul_real_embedding():
    ones = QuaternionMatrix.from_real(np.ones((2, 2)))
    sq = ones @ ones
    assert np.allclose(sq.w, 2.0)
    assert np.allclose(sq.x, 0.0) and np.allclose(sq.y, 0.0) and np.allclose(sq.z, 0.0)


def test_matmul_shape_error_names_both_shapes():
    a = QuaternionMatrix.zeros(2, 3)
    b = QuaternionMatrix.zeros(4, 2)
    with pytest.raises(ShapeError, match=r"2x3.*4x2"):
        a @ b


def test_matmul_respects_factor_order():
    rng = np.random.default_rng(1)
    a, b = rand_qmat(rng, 3, 3), rand_qmat(rng, 3, 3)
    assert (a @ b - b @ a).frobenius_norm() > 1e-6


def test_hermitian_transpose():
    rng = np.random.default_rng(2)
    a = rand_qmat(rng, 3, 5)
    at = a.hermitian_transpose()
    assert at.shape == (5, 3)
    for i in range(3):
        for j in range(5):
            assert at[j, i] == a[i, j].conjugate()
    assert (at.H - a).frobenius_norm() == 0.0


def test_hermitian_transpose_real_symmetric_fixed_point():
    sym = np.array([[1.0, 2.0], [2.0, 5.0]])
    a = QuaternionMatrix.from_real(sym)
    assert (a.H - a).frobenius_norm() == 0.0


def test_hermitian_transpose_pure_row():
    row = QuaternionMatrix.from_entries([[Quaternion(0, 1, 0, 0), Quaternion(0, 0, 1, 0)]])
    col = row.H
    assert col.shape == (2, 1)
    assert col[0, 0] == Quaternion(0, -1, 0, 0)
    assert col[1, 0] == Quaternion(0, 0, -1, 0)


def test_antihomomorphism_of_transpose():
    rng = np.random.default_rng(3)
    a, b = rand_qmat(rng, 4, 3), rand_qmat(rng, 3, 5)
    lhs = (a @ b).H
    rhs = b.H @ a.H
    assert (lhs - rhs).frobenius_norm() <= 1e-12 * max(1.0, lhs.frobenius_norm())


def test_json_roundtrip():
    rng = np.random.default_rng(4)
    a = rand_qmat(rng, 3, 2)
    obj = a.to_json()
    assert obj["rows"] == 3 and obj["cols"] == 2
    assert len(obj["entries"]) == 6 and len(obj["entries"][0]) == 4
    back = QuaternionMatrix.from_json(obj)
    assert (back - a).frobenius_norm() == 0.0


def test_from_components_rejects_nonfinite():
    w = np.array([[np.nan]])
    with pytest.raises(ValidationError):
        QuaternionMatrix.from_components(w)


def test_qsvd_identity():
    res = qsvd(QuaternionMatrix.identity(3))
    assert np.allclose(res.singular_values, [1.0, 1.0, 1.0], atol=1e-12)


def test_qsvd_real_diagonal():
    a = QuaternionMatrix.from_real(np.diag([3.0, 2.0, 1.0]))
    res = qsvd(a)
    assert np.allclose(res.singular_values, [3.0, 2.0, 1.0], atol=1e-12)
    # columns of U match standard basis up to a unit quaternion factor
    norms = res.u.entry_norms()
    assert np.allclose(norms, np.eye(3), atol=1e-9)


def test_qsvd_random_reconstruction_and_oracle():
    rng = np.random.default_rng(5)
    for m, n in [(2, 2), (3, 4), (6, 4), (5, 5), (8, 3)]:
        a = rand_qmat(rng, m, n)
        res = qsvd(a)
        # singular values descending and nonnegative
        sv = res.singular_values
        assert np.all(np.diff(sv) <= 1e-12) and np.all(sv >= 0)
        # reconstruction
        err = (res.reconstruct() - a).frobenius_norm() / a.frobenius_norm()
        assert err <= 1e-9
        # unitarity of both factors
        assert unitarity_defect(res.u) <= 1e-9
        assert unitarity_defect(res.v) <= 1e-9
        # adjoint oracle: paired values, dedup equals qsvd output
        sv_adj = np.linalg.svd(adjoint_oracle(a), compute_uv=False)
        pairs = sv_adj.reshape(-1, 2)
        assert np.all(np.abs(pairs[:, 0] - pairs[:, 1]) <= 1e-9 * max(1.0, sv_adj[0]))
        assert np.allclose(pairs[:, 0], sv, atol=1e-9 * max(1.0, sv_adj[0]))


def test_qsvd_phase_convention_makes_runs_reproducible():
    rng = np.random.default_rng(6)
    a = rand_qmat(rng, 5, 4)
    r1, r2 = qsvd(a), qsvd(a)
    assert (r1.u - r2.u).frobenius_norm() == 0.0
    assert (r1.v - r2.v).frobenius_norm() == 0.0
    # largest-norm entry of every left column is (positive) real
    norms = r1.u.entry_norms()
    idx = np.argmax(norms, axis=0)
    cols = np.arange(r1.u.cols)
    assert np.all(r1.u.w[idx, cols] > 0)
    assert np.allclose(r1.u.x[idx, cols], 0, atol=1e-12)
    assert np.allclose(r1.u.y[idx, cols], 0, atol=1e-12)
    assert np.allclose(r1.u.z[idx, cols], 0, atol=1e-12)


def test_qsvd_hermitian_input_matches_eigenstructure():
    rng = np.random.default_rng(7)
    g = rand_qmat(rng, 6, 4)
    c = g.H @ g  # Hermitian, PSD
    assert (c - c.H).frobenius_norm() <= 1e-12 * c.frobenius_norm()
    res = qsvd(c)
    # left and right bases agree up to per-column unit quaternion factors
    assert np.allclose(res.u.entry_norms(), res.v.entry_norms(), atol=1e-9)
    # singular values are the eigenvalues: C u_i = u_i sigma_i
    lhs = c @ res.u
    rhs = QuaternionMatrix(res.u.a * res.singular_values[None, :],
                           res.u.b * res.singular_values[None, :])
    assert (lhs - rhs).frobenius_norm() <= 1e-9 * max(1.0, c.frobenius_norm())


def test_qsvd_rank_deficient():
    rng = np.random.default_rng(8)
    g = rand_qmat(rng, 5, 2)
    a = g @ g.H  # rank <= 2 in a 5x5 matrix
    res = qsvd(a)
    assert np.all(res.singular_values[2:] <= 1e-10 * res.singular_values[0])
    err = (res.reconstruct() - a).frobenius_norm() / a.frobenius_norm()
    assert err <= 1e-9
    assert unitarity_defect(res.u) <= 1e-9


def test_qsvd_exactly_repeated_singular_values():
    # build A = U diag(2,2,2,1) V^H from quaternion-unitary factors and
    # check the multiplicity-3 cluster is restored orthonormally
    rng = np.random.default_rng(11)
    u = qsvd(rand_qmat(rng, 4, 4)).u
    v = qsvd(rand_qmat(rng, 4, 4)).v
    d = np.array([2.0, 2.0, 2.0, 1.0])
    a = QuaternionMatrix(u.a * d[None, :], u.b * d[None, :]) @ v.H
    res = qsvd(a)
    assert np.allclose(res.singular_values, d, atol=1e-12)
    assert unitarity_defect(res.u) <= 1e-12
    assert unitarity_defect(res.v) <= 1e-12
    err = (res.reconstruct() - a).frobenius_norm() / a.frobenius_norm()
    assert err <= 1e-12


def test_qsvd_zero_matrix():
    res = qsvd(QuaternionMatrix.zeros(3, 2))
    assert np.allclose(res.singular_values, 0.0)
    assert unitarity_defect(res.u) <= 1e-12
    assert unitarity_defect(res.v) <= 1e-12


def test_qsvd_single_row_and_column():
    rng = np.random.default_rng(12)
    row = rand_qmat(rng, 1, 5)
    res = qsvd(row)
    assert res.u.shape == (1, 1) and res.v.shape == (5, 5)
    assert (res.reconstruct() - row).frobenius_norm() <= 1e-12 * row.frobenius_norm()
    col = rand_qmat(rng, 5, 1)
    res = qsvd(col)
    assert res.u.shape == (5, 5) and res.v.shape == (1, 1)
    assert abs(res.singular_values[0] - col.frobenius_norm()) <= 1e-12


def test_qsvd_rejects_nonfinite():
    a = QuaternionMatrix.zeros(2, 2)
    bad = QuaternionMatrix(np.array([[np.inf, 0], [0, 0]], dtype=complex), a.b)
    with pytest.raises(ValidationError):
        qsvd(bad)


def test_truncate():
    rng = np.random.default_rng(9)
    a = rand_qmat(rng, 6, 4)
    res = qsvd(a)
    full = truncate(res, 4)
    assert full.shape == (6, 4)
    assert (full - res.u.columns(slice(0, 4))).frobenius_norm() == 0.0
    first = truncate(res, 1)
    assert first.shape == (6, 1)
    with pytest.raises(ParameterError):
        truncate(res, 0)
    with pytest.raises(ParameterError):
        truncate(res, 5)


def test_truncate_dominant_direction_of_diagonal():
    a = QuaternionMatrix.from_real(np.diag([3.0, 2.0, 1.0]))
    res = qsvd(a)
    u1 = truncate(res, 1)
    norms = u1.entry_norms().ravel()
    assert norms[0] > 1 - 1e-9 and np.all(norms[1:] < 1e-9)


def test_truncate_40x40_to_19_columns():
    rng = np.random.default_rng(10)
    a = rand_qmat(rng, 40, 40)
    res = qsvd(a)
    u19 = truncate(res, 19)
    assert u19.shape == (40, 19)


def random_covariance(rng, m, n):
    rows = rand_qmat(rng, m, n)
    centered = rows.subtract_row(rows.row_mean())
    return (centered.H @ centered).scale(1.0 / m)


def test_qeigh_matches_qsvd_on_random_covariances():
    # the covariances of qpca.fit: m centered rows of length n, rank
    # deficient for m <= n (every fifth has m = 2, rank 1)
    rng = np.random.default_rng(13)
    for trial in range(200):
        n = 40 if trial % 10 == 0 else int(rng.integers(1, 9))
        m = 2 if trial % 5 == 0 else int(rng.integers(2, 2 * n + 3))
        c = random_covariance(rng, m, n)
        ref, res = qsvd(c), qeigh(c)
        lam = res.singular_values
        lmax = ref.singular_values[0]
        assert np.all(np.diff(lam) <= 0) and np.all(lam >= 0)
        assert np.max(np.abs(lam - ref.singular_values)) <= 1e-12 * lmax
        assert res.v is res.u
        assert unitarity_defect(res.u) <= 1e-10
        scaled = QuaternionMatrix(res.u.a * lam[None, :], res.u.b * lam[None, :])
        assert (c @ res.u - scaled).frobenius_norm() <= 1e-10 * max(1.0, lmax)
        # a column whose eigenvalue is apart from its neighbours is unique
        # up to its phase, which both fix the same way; its rounding grows
        # as the gap shrinks
        gaps = np.full(n, lmax)
        steps = -np.diff(lam)
        gaps[:-1] = np.minimum(gaps[:-1], steps)
        gaps[1:] = np.minimum(gaps[1:], steps)
        for i in np.flatnonzero(gaps > 1e-6 * lmax):
            diff = res.u.columns([i]) - ref.u.columns([i])
            assert diff.frobenius_norm() <= 1e-12 * lmax / gaps[i]


def test_qeigh_tied_eigenvalues_span_the_qsvd_subspace():
    # C = Q diag(3, 3, 1, ...) Q^H: the tied pair's basis is not unique,
    # but its projector is
    rng = np.random.default_rng(14)
    q = qsvd(rand_qmat(rng, 6, 6)).u
    d = np.array([3.0, 3.0, 1.0, 0.5, 0.25, 0.125])
    c = QuaternionMatrix(q.a * d[None, :], q.b * d[None, :]) @ q.H
    c = (c + c.H).scale(0.5)
    ref, res = qsvd(c), qeigh(c)
    assert np.allclose(res.singular_values, d, rtol=0, atol=1e-12)
    assert unitarity_defect(res.u) <= 1e-12
    tied, ref_tied = res.u.columns(slice(0, 2)), ref.u.columns(slice(0, 2))
    assert (tied @ tied.H - ref_tied @ ref_tied.H).frobenius_norm() <= 1e-12
    for i in range(2, 6):
        assert (res.u.columns([i]) - ref.u.columns([i])).frobenius_norm() <= 1e-12


def _with_entry(mat, i, j, a=None, b=None):
    ca, cb = mat.a.copy(), mat.b.copy()
    if a is not None:
        ca[i, j] = a
    if b is not None:
        cb[i, j] = b
    return QuaternionMatrix(ca, cb)


QEIGH_REJECTS = {
    "non-finite": lambda c: _with_entry(c, 0, 0, a=np.nan),
    "square": lambda c: c.columns(slice(0, 3)),
    "not Hermitian": lambda c: _with_entry(c, 0, 1, b=c.b[0, 1] + 1e-3),
    # less the mean eigenvalue, the smallest is negative
    "positive semidefinite": lambda c: c - QuaternionMatrix.identity(c.cols).scale(
        np.trace(c.w) / c.cols),
}


@pytest.mark.parametrize("defect", QEIGH_REJECTS)
def test_qeigh_rejects(defect):
    c = random_covariance(np.random.default_rng(15), 8, 4)
    qeigh(c)
    with pytest.raises(ValidationError, match=defect):
        qeigh(QEIGH_REJECTS[defect](c))
