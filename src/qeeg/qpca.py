"""Quaternion PCA on 4-channel band-power features.

Pipeline: four per-channel relative band-power vectors are embedded as one
full quaternion row vector (channel 1 -> scalar part, channels 2-4 -> i, j,
k), the training rows are centered by their mean, the covariance
C = (1/m) Q~^H Q~ (an N_s x N_s quaternion Hermitian positive semidefinite
matrix) is eigendecomposed by `qlinalg.qeigh` (its SVD, with the phase
convention of `qlinalg.qsvd`), and features are projections onto the
leading eigenvector columns.  Channel order is semantically significant:
quaternion multiplication does not commute, so permuted quadruples are
different inputs.

A quaternion feature is collapsed to a real scalar by one of four
projection rules (mean, absolute, norm, phase).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDataError, ParameterError, ShapeError, ValidationError
from .qlinalg import QuaternionMatrix, qeigh, truncate

__all__ = [
    "ChannelQuadruple", "QpcaModel", "PROJECTION_METHODS",
    "embed_rows", "select_components", "fit", "transform", "project",
]

PROJECTION_METHODS = ("mean", "absolute", "norm", "phase")

_SPECTRUM_TIE_RTOL = 1e-12


@dataclass(frozen=True)
class ChannelQuadruple:
    """Ordered quadruple of distinct montage channels (order is load-bearing)."""

    channels: tuple

    def __post_init__(self):
        channels = tuple(self.channels)
        object.__setattr__(self, "channels", channels)
        if len(channels) != 4:
            raise ValidationError(f"need exactly 4 channels, got {len(channels)}")
        if len(set(channels)) != 4:
            raise ValidationError(f"channels must be distinct, got {channels}")

    def __iter__(self):
        return iter(self.channels)


@dataclass(frozen=True, eq=False)
class QpcaModel:
    """Fitted quaternion PCA: training mean, leading eigenvector basis and
    full eigenvalue spectrum of the covariance."""

    mean_vector: QuaternionMatrix        # 1 x N_s
    basis: QuaternionMatrix              # N_s x p
    eigenvalues: np.ndarray              # full spectrum, descending
    p: int
    spectrum_tie: bool = False
    band: str | None = None
    quadruple: ChannelQuadruple | None = None
    segment_seconds: float | None = None
    projection: str | None = None

    @property
    def n_segments(self) -> int:
        return self.mean_vector.cols

    def to_json(self) -> dict:
        mean = np.stack([self.mean_vector.w, self.mean_vector.x,
                         self.mean_vector.y, self.mean_vector.z], axis=-1)
        return {
            "band": self.band,
            "quadruple": list(self.quadruple) if self.quadruple else None,
            "segment_seconds": self.segment_seconds,
            "p": self.p,
            "projection": self.projection,
            "mean_vector": mean.reshape(-1, 4).tolist(),
            "basis": self.basis.to_json(),
            "eigenvalues": self.eigenvalues.tolist(),
            "spectrum_tie": self.spectrum_tie,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "QpcaModel":
        mean = np.asarray(obj["mean_vector"], dtype=np.float64)
        if mean.ndim != 2 or mean.shape[1] != 4:
            raise ValidationError(f"mean_vector must be an n x 4 array, got shape {mean.shape}")
        mean_vec = QuaternionMatrix.from_components(
            mean[None, :, 0], mean[None, :, 1], mean[None, :, 2], mean[None, :, 3])
        quadruple = (ChannelQuadruple(tuple(obj["quadruple"]))
                     if obj.get("quadruple") else None)
        return cls(mean_vector=mean_vec,
                   basis=QuaternionMatrix.from_json(obj["basis"]),
                   eigenvalues=np.asarray(obj["eigenvalues"], dtype=np.float64),
                   p=int(obj["p"]),
                   spectrum_tie=bool(obj.get("spectrum_tie", False)),
                   band=obj.get("band"), quadruple=quadruple,
                   segment_seconds=obj.get("segment_seconds"),
                   projection=obj.get("projection"))


def embed_rows(ch1: np.ndarray, ch2: np.ndarray, ch3: np.ndarray,
               ch4: np.ndarray) -> QuaternionMatrix:
    """Stack four equal-shape real arrays into quaternion rows
    ch1 + ch2 i + ch3 j + ch4 k."""
    return QuaternionMatrix.from_components(np.atleast_2d(ch1), np.atleast_2d(ch2),
                                            np.atleast_2d(ch3), np.atleast_2d(ch4))


def select_components(eigenvalues: np.ndarray, p: int | None, energy_threshold: float,
                      m: int, n: int) -> int:
    """The fixed `p` when given, otherwise the smallest count whose
    cumulative share of the descending `eigenvalues` reaches
    `energy_threshold`; at most min(m, n) for m samples of length n."""
    p_max = min(m, n)
    if p is None:
        share = np.cumsum(eigenvalues) / eigenvalues.sum()
        p = int(np.searchsorted(share, energy_threshold) + 1)
        p = min(p, p_max)
    if not 1 <= p <= p_max:
        raise ParameterError(f"p={p} outside [1, {p_max}] for {m} samples of length {n}")
    return p


def fit(q: QuaternionMatrix, p: int | None = None,
        energy_threshold: float = 0.90) -> QpcaModel:
    """Fit the quaternion PCA model on the m training row vectors of `q`.

    The number of components comes from `select_components`.  The model's
    band, quadruple, segment length and projection are labels for the
    caller to set.
    """
    m, n_s = q.shape
    if m < 2:
        raise DegenerateDataError(f"need at least 2 training vectors, got {m}")

    mean = q.row_mean()
    centered = q.subtract_row(mean)
    if centered.frobenius_norm() <= 1e-12 * max(1.0, q.frobenius_norm()):
        raise DegenerateDataError("degenerate spectrum: all training vectors identical")
    cov = (centered.H @ centered).scale(1.0 / m)
    svd = qeigh(cov)
    eigenvalues = svd.singular_values

    p = select_components(eigenvalues, p, energy_threshold, m, n_s)

    tie = bool(p < len(eigenvalues)
               and eigenvalues[p - 1] - eigenvalues[p] <= _SPECTRUM_TIE_RTOL * eigenvalues[0])
    if tie:
        warnings.warn(f"spectrum tie at the p={p} cut; subspace is not unique",
                      RuntimeWarning, stacklevel=2)
    return QpcaModel(mean_vector=mean, basis=truncate(svd, p),
                     eigenvalues=eigenvalues, p=p, spectrum_tie=tie)


def transform(model: QpcaModel, vectors: QuaternionMatrix) -> QuaternionMatrix:
    """Project row vectors onto the basis: (x - training_mean) U_p."""
    if vectors.cols != model.n_segments:
        raise ShapeError(
            f"vector length {vectors.cols} does not match model N_s={model.n_segments}")
    return vectors.subtract_row(model.mean_vector) @ model.basis


def project(features: QuaternionMatrix, method: str) -> np.ndarray:
    """Collapse each quaternion entry to a real scalar."""
    w, x, y, z = features.w, features.x, features.y, features.z
    if method == "mean":
        return (w + x + y + z) / 4.0
    if method == "absolute":
        return (np.abs(w) + np.abs(x) + np.abs(y) + np.abs(z)) / 4.0
    if method == "norm":
        return features.entry_norms()
    if method == "phase":
        # angle between the scalar axis and the quaternion, in [0, pi];
        # the zero quaternion maps to 0 by convention
        return np.arctan2(np.sqrt(x * x + y * y + z * z), w)
    raise ParameterError(f"unknown projection {method!r}; expected one of {PROJECTION_METHODS}")
