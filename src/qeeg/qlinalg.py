"""Dense quaternion matrices, their singular value decomposition and the
eigendecomposition of Hermitian positive semidefinite ones.

A quaternion matrix Q = W + Xi + Yj + Zk is stored as the complex pair
(A, B) with A = W + Xi and B = Y + Zi, so that Q = A + Bj.  All products
use this split form (four complex GEMMs per quaternion GEMM).

The SVD is computed through the complex adjoint embedding

    chi(Q) = [[A, B], [-conj(B), conj(A)]]   (2m x 2n complex),

whose singular values occur in equal pairs; one value of each pair is a
quaternion singular value of Q.  Quaternion singular vectors are restored
from the adjoint's singular subspaces, which are invariant under the
antilinear map J[p; q] = [-conj(q); conj(p)] (J^2 = -1).  Restoration is
done per cluster of near-equal singular values (clusters split where the
relative gap exceeds 1e-6), which keeps the procedure stable for exactly
repeated singular values.

A Hermitian positive semidefinite matrix (a QPCA covariance) needs less:
its adjoint is Hermitian with eigenvalues in equal pairs (Zhang, "Quaternions
and matrices of quaternions", Linear Algebra Appl. 1997), and its SVD is its
eigendecomposition, so `qeigh` takes one `np.linalg.eigh` of the adjoint and
restores columns only for tied eigenvalues.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ShapeError, ValidationError
from .quaternion import Quaternion

__all__ = ["QuaternionMatrix", "QSvdResult", "qsvd", "qeigh", "truncate"]

_CLUSTER_RTOL = 1e-6  # relative gap below which singular values are treated as tied
_HERMITIAN_RTOL = 1e-10  # qeigh: largest ||C - C^H|| / ||C|| and -lambda_min / lambda_max


class QuaternionMatrix:
    """Immutable dense matrix of quaternions."""

    __slots__ = ("a", "b")

    def __init__(self, a: np.ndarray, b: np.ndarray):
        a = np.array(a, dtype=np.complex128, order="C")
        b = np.array(b, dtype=np.complex128, order="C")
        if a.ndim != 2 or a.shape != b.shape:
            raise ShapeError(f"component shapes disagree: {a.shape} vs {b.shape}")
        a.flags.writeable = False
        b.flags.writeable = False
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    # -- constructors -------------------------------------------------

    @classmethod
    def from_components(cls, w, x=None, y=None, z=None) -> "QuaternionMatrix":
        """Build from four finite real arrays (missing parts default to zero)."""
        w = np.asarray(w, dtype=np.float64)
        zeros = np.zeros_like(w)
        x = zeros if x is None else np.asarray(x, dtype=np.float64)
        y = zeros if y is None else np.asarray(y, dtype=np.float64)
        z = zeros if z is None else np.asarray(z, dtype=np.float64)
        if not (w.shape == x.shape == y.shape == z.shape):
            raise ShapeError("component arrays must share one shape")
        if w.ndim == 1:
            w, x, y, z = (np.atleast_2d(c) for c in (w, x, y, z))
        matrix = cls(w + 1j * x, y + 1j * z)
        if not (np.isfinite(matrix.a).all() and np.isfinite(matrix.b).all()):
            raise ValidationError("non-finite entry in quaternion matrix")
        return matrix

    @classmethod
    def from_real(cls, arr) -> "QuaternionMatrix":
        return cls.from_components(arr)

    @classmethod
    def from_entries(cls, entries) -> "QuaternionMatrix":
        """Build from a nested list of Quaternion or [w, x, y, z] rows."""
        rows = []
        for row in entries:
            rows.append([e.to_list() if isinstance(e, Quaternion) else list(e) for e in row])
        arr = np.asarray(rows, dtype=np.float64)
        if arr.ndim != 3 or arr.shape[-1] != 4:
            raise ValidationError("entries must be a rows x cols grid of 4-component values")
        return cls.from_components(arr[..., 0], arr[..., 1], arr[..., 2], arr[..., 3])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "QuaternionMatrix":
        return cls(np.zeros((rows, cols), dtype=np.complex128),
                   np.zeros((rows, cols), dtype=np.complex128))

    @classmethod
    def identity(cls, n: int) -> "QuaternionMatrix":
        return cls(np.eye(n, dtype=np.complex128), np.zeros((n, n), dtype=np.complex128))

    @classmethod
    def vstack(cls, blocks) -> "QuaternionMatrix":
        blocks = list(blocks)
        return cls(np.vstack([m.a for m in blocks]), np.vstack([m.b for m in blocks]))

    # -- shape and access ---------------------------------------------

    @property
    def shape(self):
        return self.a.shape

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    @property
    def w(self) -> np.ndarray:
        return self.a.real

    @property
    def x(self) -> np.ndarray:
        return self.a.imag

    @property
    def y(self) -> np.ndarray:
        return self.b.real

    @property
    def z(self) -> np.ndarray:
        return self.b.imag

    def __getitem__(self, idx) -> Quaternion:
        i, j = idx
        return Quaternion(self.a.real[i, j], self.a.imag[i, j],
                          self.b.real[i, j], self.b.imag[i, j])

    def columns(self, sel) -> "QuaternionMatrix":
        return QuaternionMatrix(self.a[:, sel], self.b[:, sel])

    # -- algebra ------------------------------------------------------

    def __matmul__(self, other: "QuaternionMatrix") -> "QuaternionMatrix":
        return self.matmul(other)

    def matmul(self, other: "QuaternionMatrix") -> "QuaternionMatrix":
        """Matrix product with Hamilton products; factor order preserved."""
        if self.cols != other.rows:
            raise ShapeError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        return QuaternionMatrix(a1 @ a2 - b1 @ np.conj(b2),
                                a1 @ b2 + b1 @ np.conj(a2))

    def hermitian_transpose(self) -> "QuaternionMatrix":
        """Conjugate transpose: (A^H)_{ij} = conj(A_{ji})."""
        return QuaternionMatrix(np.conj(self.a).T, -self.b.T)

    @property
    def H(self) -> "QuaternionMatrix":
        return self.hermitian_transpose()

    def conjugate(self) -> "QuaternionMatrix":
        return QuaternionMatrix(np.conj(self.a), -self.b)

    def _require_same_shape(self, other: "QuaternionMatrix") -> None:
        if self.shape != other.shape:
            raise ShapeError(f"shape mismatch: {self.shape} vs {other.shape}")

    def __add__(self, other: "QuaternionMatrix") -> "QuaternionMatrix":
        self._require_same_shape(other)
        return QuaternionMatrix(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "QuaternionMatrix") -> "QuaternionMatrix":
        self._require_same_shape(other)
        return QuaternionMatrix(self.a - other.a, self.b - other.b)

    def __neg__(self) -> "QuaternionMatrix":
        return QuaternionMatrix(-self.a, -self.b)

    def scale(self, c: float) -> "QuaternionMatrix":
        """Multiply every entry by a real scalar."""
        return QuaternionMatrix(self.a * c, self.b * c)

    def subtract_row(self, row: "QuaternionMatrix") -> "QuaternionMatrix":
        """Subtract a 1 x cols row vector from every row."""
        if row.rows != 1 or row.cols != self.cols:
            raise ShapeError(f"row vector shape {row.shape} does not match cols={self.cols}")
        return QuaternionMatrix(self.a - row.a, self.b - row.b)

    def row_mean(self) -> "QuaternionMatrix":
        """Componentwise mean over rows, returned as a 1 x cols vector."""
        return QuaternionMatrix(self.a.mean(axis=0, keepdims=True),
                                self.b.mean(axis=0, keepdims=True))

    def entry_norms(self) -> np.ndarray:
        """Entrywise quaternion norms as a real array."""
        return np.sqrt(np.abs(self.a) ** 2 + np.abs(self.b) ** 2)

    def frobenius_norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.a) ** 2 + np.abs(self.b) ** 2)))

    def allclose(self, other: "QuaternionMatrix", tol: float = 1e-12) -> bool:
        return (self - other).frobenius_norm() <= tol * max(1.0, self.frobenius_norm())

    def right_scale_columns(self, sa: np.ndarray, sb: np.ndarray) -> "QuaternionMatrix":
        """Multiply column k on the right by the quaternion (sa[k], sb[k])."""
        return QuaternionMatrix(self.a * sa[None, :] - self.b * np.conj(sb)[None, :],
                                self.a * sb[None, :] + self.b * np.conj(sa)[None, :])

    # -- adjoint embedding and serialization --------------------------

    def adjoint(self) -> np.ndarray:
        """Complex adjoint representation, shape (2 rows, 2 cols)."""
        return np.block([[self.a, self.b],
                         [-np.conj(self.b), np.conj(self.a)]])

    def to_json(self) -> dict:
        entries = np.stack([self.w, self.x, self.y, self.z], axis=-1).reshape(-1, 4)
        return {"rows": self.rows, "cols": self.cols, "entries": entries.tolist()}

    @classmethod
    def from_json(cls, obj: dict) -> "QuaternionMatrix":
        rows, cols = int(obj["rows"]), int(obj["cols"])
        arr = np.asarray(obj["entries"], dtype=np.float64)
        if arr.shape != (rows * cols, 4):
            raise ValidationError(
                f"entry list length {arr.shape[0] if arr.ndim else 0} != rows*cols = {rows * cols}")
        arr = arr.reshape(rows, cols, 4)
        return cls.from_components(arr[..., 0], arr[..., 1], arr[..., 2], arr[..., 3])

    def __repr__(self) -> str:
        return f"QuaternionMatrix({self.rows}x{self.cols})"


@dataclass(frozen=True)
class QSvdResult:
    """Full quaternion SVD: a = u @ diag(singular_values) @ v^H."""

    u: QuaternionMatrix
    singular_values: np.ndarray
    v: QuaternionMatrix

    def reconstruct(self) -> QuaternionMatrix:
        k = len(self.singular_values)
        uk = self.u.columns(slice(0, k))
        scaled = QuaternionMatrix(uk.a * self.singular_values[None, :],
                                  uk.b * self.singular_values[None, :])
        return scaled.matmul(self.v.columns(slice(0, k)).hermitian_transpose())


def _j_map(vecs: np.ndarray) -> np.ndarray:
    """Antilinear quaternionic structure map J[p; q] = [-conj(q); conj(p)]."""
    half = vecs.shape[0] // 2
    out = np.empty_like(vecs)
    out[:half] = -np.conj(vecs[half:])
    out[half:] = np.conj(vecs[:half])
    return out


def _cluster_bounds(values: np.ndarray, tol: float):
    """Split a descending value list into clusters of near-equal values."""
    bounds = []
    start = 0
    for i in range(1, len(values)):
        if values[i - 1] - values[i] > tol:
            bounds.append((start, i))
            start = i
    if len(values):
        bounds.append((start, len(values)))
    return bounds


def _restore_cluster(block: np.ndarray, count: int) -> list:
    """Pick `count` quaternion-orthonormal complex representatives from the
    columns of `block` (a basis of a J-invariant subspace), greedily taking
    the candidate with the largest residual after projecting out accepted
    vectors and their J-partners."""
    residual = block.copy()
    basis = []
    picked = []
    for _ in range(count):
        norms = np.linalg.norm(residual, axis=0)
        best = int(np.argmax(norms))
        if norms[best] < 1e-8:
            raise ValidationError("quaternion structure restoration failed (degenerate cluster)")
        vec = residual[:, best] / norms[best]
        jvec = _j_map(vec)
        picked.append(vec)
        basis.extend((vec, jvec))
        residual -= np.outer(vec, np.conj(vec) @ residual)
        residual -= np.outer(jvec, np.conj(jvec) @ residual)
    return picked


def _columns_from_complex(picked: list) -> QuaternionMatrix:
    """Interpret complex 2n-vectors [p; q] as quaternion columns p - conj(q) j."""
    stacked = np.stack(picked, axis=1)
    half = stacked.shape[0] // 2
    return QuaternionMatrix(stacked[:half], -np.conj(stacked[half:]))


def _quat_inner(au, bu, aw, bw):
    """Quaternion inner product <u, w> = sum conj(u) w, as a complex pair."""
    alpha = np.sum(np.conj(au) * aw + bu * np.conj(bw))
    beta = np.sum(np.conj(au) * bw - bu * np.conj(aw))
    return alpha, beta


def qsvd(mat: QuaternionMatrix) -> QSvdResult:
    """Full SVD of a quaternion matrix via the complex adjoint embedding.

    Returns unitary u (rows x rows), descending nonnegative singular values
    (length min(rows, cols)) and unitary v (cols x cols) with
    mat = u diag(s) v^H.  Each left singular-vector column is phased so its
    entry of largest norm is a positive real; the paired right column is
    co-rotated to preserve the product.
    """
    if not (np.isfinite(mat.a).all() and np.isfinite(mat.b).all()):
        raise ValidationError("non-finite entry in quaternion matrix")
    m, n = mat.shape
    if m < 1 or n < 1:
        raise ParameterError(f"matrix must be at least 1x1, got {m}x{n}")

    u_c, s_c, vh_c = np.linalg.svd(mat.adjoint())
    v_c = np.conj(vh_c).T
    k = min(m, n)
    sigma = s_c[0::2].copy()
    smax = float(s_c[0]) if s_c.size else 0.0
    tol = _CLUSTER_RTOL * smax

    # values attached to quaternion column i of V (i >= k carries sigma 0)
    vals_v = np.concatenate([sigma, np.zeros(n - k)])
    vals_u = np.concatenate([sigma, np.zeros(m - k)])

    v_cols: list = []
    align_flags: list = []
    for start, stop in _cluster_bounds(vals_v, tol):
        block = v_c[:, 2 * start: 2 * stop]
        v_cols.extend(_restore_cluster(block, stop - start))
        # clusters with non-negligible sigma get their left vectors from
        # the image A v / sigma, which guarantees consistent triples
        align_flags.extend([vals_v[start] > tol] * (stop - start))
    v_full = _columns_from_complex(v_cols)

    aligned = mat.matmul(v_full.columns(slice(0, k)))  # columns ~ u_i sigma_i
    ua = np.zeros((m, m), dtype=np.complex128)
    ub = np.zeros((m, m), dtype=np.complex128)
    filled = 0
    for start, stop in _cluster_bounds(vals_u, tol):
        if start < k and align_flags[start]:
            for i in range(start, min(stop, k)):
                ca = aligned.a[:, i].copy()
                cb = aligned.b[:, i].copy()
                for j in range(start, i):  # in-cluster re-orthogonalization
                    alpha, beta = _quat_inner(ua[:, j], ub[:, j], ca, cb)
                    ca -= ua[:, j] * alpha - ub[:, j] * np.conj(beta)
                    cb -= ua[:, j] * beta + ub[:, j] * np.conj(alpha)
                nrm = np.sqrt(np.sum(np.abs(ca) ** 2 + np.abs(cb) ** 2))
                ua[:, i] = ca / nrm
                ub[:, i] = cb / nrm
                filled += 1
        else:
            # (near-)zero cluster: restore from the adjoint's left vectors
            block = u_c[:, 2 * start: 2 * min(stop, m)]
            picked = _restore_cluster(block, min(stop, m) - start)
            restored = _columns_from_complex(picked)
            ua[:, start:start + restored.cols] = restored.a
            ub[:, start:start + restored.cols] = restored.b
            filled += restored.cols
    assert filled == m
    u_full = QuaternionMatrix(ua, ub)

    u_full, v_full = _apply_phase_convention(u_full, v_full, k)
    return QSvdResult(u=u_full, singular_values=sigma, v=v_full)


def qeigh(mat: QuaternionMatrix) -> QSvdResult:
    """Eigendecomposition of a Hermitian positive semidefinite quaternion
    matrix, returned as the SVD it is: u = v, and the eigenvalues, in
    descending order, as `singular_values`.

    One `np.linalg.eigh` of the complex adjoint gives every eigenvalue
    twice; every second one of the descending list is kept, and negatives
    of rounding size are clamped to 0.  An eigenvalue apart from its
    neighbours (the clusters of `qsvd`) has a J-invariant plane of adjoint
    eigenvectors, any unit vector [p; q] of which is the quaternion column
    p - conj(q) j up to a unit quaternion factor, which the phase
    convention of `qsvd` then fixes.  Only a tied cluster is restored with
    `_restore_cluster`.  Raises ValidationError for non-finite entries, a
    non-square or non-Hermitian matrix (relative residual above 1e-10) and
    an eigenvalue below -1e-10 times the largest.
    """
    if not (np.isfinite(mat.a).all() and np.isfinite(mat.b).all()):
        raise ValidationError("non-finite entry in quaternion matrix")
    m, n = mat.shape
    if m != n:
        raise ValidationError(f"qeigh needs a square matrix, got {m}x{n}")
    if n < 1:
        raise ParameterError("matrix must be at least 1x1, got 0x0")
    # C^H = conj(A)^T - B^T j, so C - C^H has components A - conj(A)^T, B + B^T
    residual = np.sqrt(np.sum(np.abs(mat.a - np.conj(mat.a).T) ** 2
                              + np.abs(mat.b + mat.b.T) ** 2))
    if residual > _HERMITIAN_RTOL * mat.frobenius_norm():
        raise ValidationError(
            f"matrix is not Hermitian: ||C - C^H|| = {residual:.3g}, "
            f"||C|| = {mat.frobenius_norm():.3g}")

    evals, evecs = np.linalg.eigh(mat.adjoint())
    evals = evals[::-1]
    evecs = evecs[:, ::-1]
    lam = evals[0::2].copy()
    if lam[-1] < -_HERMITIAN_RTOL * lam[0]:
        raise ValidationError(
            f"matrix is not positive semidefinite: eigenvalue {lam[-1]:.3g} "
            f"with largest {lam[0]:.3g}")
    lam[lam <= 0.0] = 0.0

    vecs = evecs[:, 0::2].copy()
    for start, stop in _cluster_bounds(lam, _CLUSTER_RTOL * lam[0]):
        if stop - start > 1:
            picked = _restore_cluster(evecs[:, 2 * start: 2 * stop], stop - start)
            vecs[:, start:stop] = np.stack(picked, axis=1)
    u = QuaternionMatrix(vecs[:n], -np.conj(vecs[n:]))
    u = u.right_scale_columns(*_unit_phases(u))
    return QSvdResult(u=u, singular_values=lam, v=u)


def _unit_phases(mat: QuaternionMatrix):
    """Per-column unit quaternions making the largest-norm entry positive real."""
    norms = mat.entry_norms()
    idx = np.argmax(norms, axis=0)
    cols = np.arange(mat.cols)
    qa = mat.a[idx, cols]
    qb = mat.b[idx, cols]
    mag = np.sqrt(np.abs(qa) ** 2 + np.abs(qb) ** 2)
    mag = np.where(mag == 0.0, 1.0, mag)
    # conj(q)/|q|: q * s = |q| >= 0
    return np.conj(qa) / mag, -qb / mag


def _apply_phase_convention(u: QuaternionMatrix, v: QuaternionMatrix, k: int):
    sa, sb = _unit_phases(u)
    u_fixed = u.right_scale_columns(sa, sb)
    # paired right columns co-rotate; unpaired ones get their own convention
    va = v.a.copy()
    vb = v.b.copy()
    paired = v.columns(slice(0, k)).right_scale_columns(sa[:k], sb[:k])
    va[:, :k] = paired.a
    vb[:, :k] = paired.b
    if v.cols > k:
        extra = v.columns(slice(k, v.cols))
        ta, tb = _unit_phases(extra)
        extra = extra.right_scale_columns(ta, tb)
        va[:, k:] = extra.a
        vb[:, k:] = extra.b
    return u_fixed, QuaternionMatrix(va, vb)


def truncate(svd: QSvdResult, p: int) -> QuaternionMatrix:
    """First p left singular-vector columns (the basis U_p)."""
    count = len(svd.singular_values)
    if not 1 <= p <= count:
        raise ParameterError(f"p={p} outside [1, {count}]")
    return svd.u.columns(slice(0, p))
