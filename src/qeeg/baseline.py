"""Traditional real-PCA comparator.

The four channels' band-power vectors are concatenated into one real vector
(Ch1 then Ch2 then Ch3 then Ch4, segment-major within each channel),
classical PCA extracts the leading components, and the same linear SVM
classifies them.  REAL_ARM is this arm's (gather, fit, features) triple,
and `compare` runs it and the quaternion arm through the one trial,
`pipeline.evaluate_quadruple`, on identical inputs and settings so the
representations are the only difference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDataError, ShapeError
from .pipeline import FeatureCache, PipelineParams, evaluate_quadruple
from .qpca import select_components

__all__ = ["RealPcaModel", "fit_real_pca", "transform_real",
           "concatenated_features", "REAL_ARM", "compare"]


@dataclass(frozen=True, eq=False)
class RealPcaModel:
    mean: np.ndarray
    basis: np.ndarray        # (dim, p), orthonormal columns
    eigenvalues: np.ndarray  # full spectrum, descending
    p: int


def fit_real_pca(training: np.ndarray, p: int | None = None,
                 energy_threshold: float = 0.90) -> RealPcaModel:
    """Classical PCA via the covariance eigendecomposition (1/m) X~^T X~."""
    x = np.asarray(training, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise DegenerateDataError(f"need a 2-D sample matrix with >= 2 rows, got {x.shape}")
    m, dim = x.shape
    mean = x.mean(axis=0)
    centered = x - mean
    if np.linalg.norm(centered) <= 1e-12 * max(1.0, np.linalg.norm(x)):
        raise DegenerateDataError("degenerate spectrum: all training vectors identical")
    cov = centered.T @ centered / m
    vals, vecs = np.linalg.eigh(cov)
    order = np.argsort(vals)[::-1]
    vals = np.maximum(vals[order], 0.0)
    vecs = vecs[:, order]
    # sign convention: largest-magnitude entry of each column positive
    idx = np.argmax(np.abs(vecs), axis=0)
    signs = np.sign(vecs[idx, np.arange(vecs.shape[1])])
    signs[signs == 0] = 1.0
    vecs = vecs * signs[None, :]

    p = select_components(vals, p, energy_threshold, m, dim)
    return RealPcaModel(mean=mean, basis=vecs[:, :p].copy(), eigenvalues=vals, p=p)


def transform_real(model: RealPcaModel, x: np.ndarray, projection=None) -> np.ndarray:
    """Row coordinates in the basis; real already, so `projection` goes unused."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    if x.shape[1] != len(model.mean):
        raise ShapeError(f"vector length {x.shape[1]} does not match model dim {len(model.mean)}")
    return (x - model.mean) @ model.basis


def concatenated_features(cache: FeatureCache, keys, channels, band: str) -> np.ndarray:
    """Rows of Ch1||Ch2||Ch3||Ch4 band-power values, shape (len(keys), 4*N_s)."""
    return cache.band_powers(keys, channels, band).reshape(len(keys), -1)


REAL_ARM = (concatenated_features, fit_real_pca, transform_real)


def compare(cache: FeatureCache, train_keys, test_keys, quadruple, band: str,
            params: PipelineParams) -> dict:
    """Paired quaternion-PCA vs real-PCA metrics from identical inputs."""
    qpca_outcome = evaluate_quadruple(cache, train_keys, test_keys, quadruple, band,
                                      params)
    real_outcome = evaluate_quadruple(cache, train_keys, test_keys, quadruple, band,
                                      params, arm=REAL_ARM)
    return {"qpca": qpca_outcome.to_json(), "real_pca": real_outcome.to_json(),
            "params": params.to_json(), "band": band,
            "quadruple": list(quadruple)}
