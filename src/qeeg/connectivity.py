"""QPCA-based connectivity measures.

For an ordered channel tuple (three channels -> pure quaternion embedding,
four -> full quaternion), QPCA with a single component is fitted on the
pooled two-class sample set; each sample's measure value is the
mean-projection of its centered coordinate along that first principal
component.  The pooled fit gives both classes one shared basis, so class
means are comparable and the interclass distance

    Dist = | mean(measures_NonAD) - mean(measures_AD) |

is well defined.  Tensors map every ordered distinct channel tuple to the
class-mean measure; degenerate tuples are recorded as missing entries.

`measure_values` runs once per rotation class (`pipeline.rotation_class_key`):
1 of every 3 orders, for quadruples and pure-quaternion triples alike.
Rotating the three imaginary channels, (w, a, b, c) -> (w, c, a, b) or
(a, b, c) -> (c, a, b), applies the automorphism phi: i -> j -> k -> i,
phi(q) = u q conj(u) with u = (1 + i + j + k) / 2, to every embedded row;
a pure quaternion stays pure.  phi is multiplicative, fixes the reals,
commutes with conjugation and keeps the modulus, so the covariance of the
rotated rows is phi(C) = phi(U) S phi(U)^H, its QSVD keeps the eigenvalues
and the positive-real largest-entry convention, and each sample's
first-component feature becomes phi of the original one, whose mean
projection (w + x + y + z) / 4 is the same.  The class means and Dist of
the first order in enumeration order are therefore reported for all three,
and a degenerate class is skipped once per member.  In floating point the
orders agree to rounding (about 1e-15); where the cut falls inside a tied
or zero eigenvalue cluster the first component is not unique, and the
representative's value is reported for the whole class, where before each
order's value depended on rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from . import qpca
from .errors import DegenerateDataError, ParameterError
from .pipeline import FeatureCache, rotation_class_key
from .spectral import BAND_NAMES

__all__ = ["ConnectivityTensor", "DistanceReport", "measure_values",
           "interclass_distance", "measure_connectivity", "build_tensors",
           "distance_report"]

_MODE_SIZES = {"triple": 3, "quadruple": 4}


def measure_values(cache: FeatureCache, keys, channels, band: str) -> dict:
    """Per-sample first-component measure values, split by class label.

    `channels` is an ordered tuple of 3 (pure embedding) or 4 (full
    embedding) montage names."""
    if len(channels) not in (3, 4):
        raise ParameterError(f"need 3 or 4 channels, got {len(channels)}")
    keys = list(keys)
    vectors = cache.vectors(keys, tuple(channels), band)
    model = qpca.fit(vectors, p=1)
    measures = qpca.project(qpca.transform(model, vectors), "mean").ravel()
    out: dict = {}
    for key, value in zip(keys, measures):
        out.setdefault(cache.labels[key], []).append(float(value))
    return {label: np.asarray(vals) for label, vals in out.items()}


def interclass_distance(ns_measures, ad_measures) -> float:
    """Absolute difference of the class means of per-sample measure values."""
    ns = np.asarray(ns_measures, dtype=np.float64)
    ad = np.asarray(ad_measures, dtype=np.float64)
    if ns.size == 0 or ad.size == 0:
        raise ParameterError("both classes need at least one measure value")
    return float(abs(ns.mean() - ad.mean()))


@dataclass(frozen=True, eq=False)
class ConnectivityTensor:
    """Sparse map from ordered distinct channel tuples to measure values."""

    mode: str
    band: str
    class_label: str
    axis_labels: tuple
    entries: dict  # ordered channel tuple -> class-mean measure

    def to_json(self) -> dict:
        return {
            "mode": self.mode, "band": self.band, "class": self.class_label,
            "axis_labels": list(self.axis_labels),
            "entries": [{"channels": list(chs), "value": self.entries[chs]}
                        for chs in sorted(self.entries)],
        }


def _ordered_tuples(axis_labels, size):
    """All ordered tuples of distinct channels, lexicographic in montage order."""
    return permutations(axis_labels, size)


def _measure_tuples(cache: FeatureCache, keys, mode: str, band: str, tuples=None):
    """Class means and distances per ordered tuple, measured once per
    rotation class; the members of a degenerate class are skipped."""
    size = _MODE_SIZES.get(mode)
    if size is None:
        raise ParameterError(f"mode must be 'triple' or 'quadruple', got {mode!r}")
    tuples = (list(tuples) if tuples is not None
              else list(_ordered_tuples(cache.channels, size)))
    rows = []
    skipped = 0
    measured: dict = {}  # rotation class key -> (means, dist), None if degenerate
    for channels in tuples:
        key = rotation_class_key(channels)
        if key not in measured:
            measured[key] = _class_row(cache, keys, channels, band)
        if measured[key] is None:
            skipped += 1
            continue
        rows.append((tuple(channels), *measured[key]))
    return rows, skipped


def _class_row(cache: FeatureCache, keys, channels, band: str):
    """(class means, Dist or None) of one tuple; None when it is degenerate."""
    try:
        by_class = measure_values(cache, keys, channels, band)
    except DegenerateDataError:
        return None
    means = {label: float(vals.mean()) for label, vals in by_class.items()}
    dist = (interclass_distance(by_class["NonAD"], by_class["AD"])
            if len(by_class) == 2 else None)
    return means, dist


@dataclass(frozen=True, eq=False)
class DistanceReport:
    """Interclass distances and class measure distributions per band."""

    mode: str
    n_ns: int
    n_ad: int
    bands: tuple
    tuples: tuple
    dist_by_band: dict        # band -> per-tuple distances (np.ndarray)
    class_means_by_band: dict  # band -> {label: per-tuple class means}
    skipped_by_band: dict

    def mean_dist(self, band: str) -> float:
        return float(self.dist_by_band[band].mean())

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "samples": {"NonAD": self.n_ns, "AD": self.n_ad},
            "bands": list(self.bands),
            "tuples": [list(t) for t in self.tuples],
            "dist": {b: self.dist_by_band[b].tolist() for b in self.bands},
            "mean_dist": {b: self.mean_dist(b) for b in self.bands},
            "class_means": {
                b: {label: vals.tolist()
                    for label, vals in self.class_means_by_band[b].items()}
                for b in self.bands},
            "skipped": dict(self.skipped_by_band),
        }


def measure_connectivity(cache: FeatureCache, keys, mode: str, bands=BAND_NAMES,
                         tuples=None):
    """Tensors and distances from one `measure_values` call per (tuple, band).

    Returns ({band: ({class_label: ConnectivityTensor}, skipped_tuple_count)},
    DistanceReport)."""
    keys = list(keys)
    counts = {"NonAD": 0, "AD": 0}
    for key in keys:
        counts[cache.labels[key]] += 1
    tensors_by_band = {}
    dist_by_band, means_by_band, skipped_by_band = {}, {}, {}
    kept: tuple | None = None
    for band in bands:
        rows, skipped = _measure_tuples(cache, keys, mode, band, tuples)
        labels = sorted({label for _, means, _ in rows for label in means})
        tensors = {label: ConnectivityTensor(
            mode=mode, band=band, class_label=label, axis_labels=cache.channels,
            entries={chs: means[label] for chs, means, _ in rows if label in means})
            for label in labels}
        tensors_by_band[band] = (tensors, skipped)
        usable = [(chs, means, dist) for chs, means, dist in rows if dist is not None]
        dist_by_band[band] = np.array([dist for _, _, dist in usable])
        means_by_band[band] = {
            label: np.array([means[label] for _, means, _ in usable])
            for label in ("NonAD", "AD")}
        skipped_by_band[band] = skipped
        if kept is None:
            kept = tuple(chs for chs, _, _ in usable)
    report = DistanceReport(mode=mode, n_ns=counts["NonAD"], n_ad=counts["AD"],
                            bands=tuple(bands), tuples=kept or (),
                            dist_by_band=dist_by_band,
                            class_means_by_band=means_by_band,
                            skipped_by_band=skipped_by_band)
    return tensors_by_band, report


def build_tensors(cache: FeatureCache, keys, mode: str, band: str):
    """One tensor per class over every ordered distinct channel tuple.

    Returns ({class_label: ConnectivityTensor}, skipped_tuple_count)."""
    tensors_by_band, _ = measure_connectivity(cache, keys, mode, (band,))
    return tensors_by_band[band]


def distance_report(cache: FeatureCache, keys, mode: str, bands=BAND_NAMES,
                    tuples=None) -> DistanceReport:
    """Per-band per-tuple distances and class-mean distributions (plot-ready)."""
    return measure_connectivity(cache, keys, mode, bands, tuples)[1]
