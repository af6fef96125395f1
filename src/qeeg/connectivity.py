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

`measure_values` runs once per rotation class and band: on the first
member of each class (`pipeline.rotation_classes`, which gives the symmetry
argument), 1 of every 3 orders for quadruples and pure-quaternion triples
alike.  Its class means and Dist are reported for all three members, and a
degenerate class is skipped once per member.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from . import qpca
from .errors import DegenerateDataError, ParameterError, ValidationError
from .pipeline import FeatureCache, rotation_classes
from .spectral import BAND_NAMES

__all__ = ["ConnectivityTensor", "DistanceReport", "measure_values",
           "interclass_distance", "measure_connectivity"]

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


def _class_row(cache: FeatureCache, keys, channels, band: str):
    """(class means, Dist) of one tuple; None when it is degenerate."""
    try:
        by_class = measure_values(cache, keys, channels, band)
    except DegenerateDataError:
        return None
    means = {label: float(vals.mean()) for label, vals in by_class.items()}
    return means, interclass_distance(by_class["NonAD"], by_class["AD"])


@dataclass(frozen=True, eq=False)
class DistanceReport:
    """Interclass distances and class measure distributions per band.

    `tuples` lists every tuple that some band measured; a band that skipped
    one of them holds None at its place."""

    mode: str
    n_ns: int
    n_ad: int
    bands: tuple
    tuples: tuple
    dist_by_band: dict        # band -> per-tuple distances
    class_means_by_band: dict  # band -> {label: per-tuple class means}
    skipped_by_band: dict     # band -> count of degenerate tuples

    def mean_dist(self, band: str) -> float:
        """Mean Dist over the tuples the band measured."""
        return float(np.mean([d for d in self.dist_by_band[band] if d is not None]))

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "samples": {"NonAD": self.n_ns, "AD": self.n_ad},
            "bands": list(self.bands),
            "tuples": [list(t) for t in self.tuples],
            "dist": {b: list(self.dist_by_band[b]) for b in self.bands},
            "mean_dist": {b: self.mean_dist(b) for b in self.bands},
            "class_means": {
                b: {label: list(vals)
                    for label, vals in self.class_means_by_band[b].items()}
                for b in self.bands},
            "skipped": dict(self.skipped_by_band),
        }


def measure_connectivity(cache: FeatureCache, keys, mode: str, bands=BAND_NAMES):
    """Tensors and distances over every ordered distinct channel tuple,
    lexicographic in montage order, from one `measure_values` call per
    rotation class and band.

    Returns ({band: {class_label: ConnectivityTensor}}, DistanceReport)."""
    size = _MODE_SIZES.get(mode)
    if size is None:
        raise ParameterError(f"mode must be 'triple' or 'quadruple', got {mode!r}")
    keys = list(keys)
    counts = {"NonAD": 0, "AD": 0}
    for key in keys:
        counts[cache.labels[key]] += 1
    if not all(counts.values()):
        raise ValidationError(f"connectivity needs recordings of both classes, got "
                              f"{counts['NonAD']} NonAD and {counts['AD']} AD")
    tuples = list(permutations(cache.channels, size))
    firsts, classes = rotation_classes(tuples)
    tensors_by_band, rows_by_band, skipped_by_band = {}, {}, {}
    for band in bands:
        measured = [_class_row(cache, keys, channels, band) for channels in firsts]
        rows = {chs: measured[c] for chs, c in zip(tuples, classes)
                if measured[c] is not None}
        skipped_by_band[band] = len(tuples) - len(rows)
        labels = sorted(counts) if rows else []
        tensors_by_band[band] = {label: ConnectivityTensor(
            mode=mode, band=band, class_label=label, axis_labels=cache.channels,
            entries={chs: means[label] for chs, (means, _) in rows.items()})
            for label in labels}
        rows_by_band[band] = rows
    kept = tuple(chs for chs in tuples if any(chs in rows_by_band[b] for b in bands))
    dist_by_band, means_by_band = {}, {}
    for band, rows in rows_by_band.items():
        cells = [rows.get(chs) for chs in kept]
        dist_by_band[band] = [None if cell is None else cell[1] for cell in cells]
        means_by_band[band] = {
            label: [None if cell is None else cell[0][label] for cell in cells]
            for label in ("NonAD", "AD")}
    report = DistanceReport(mode=mode, n_ns=counts["NonAD"], n_ad=counts["AD"],
                            bands=tuple(bands), tuples=kept,
                            dist_by_band=dist_by_band,
                            class_means_by_band=means_by_band,
                            skipped_by_band=skipped_by_band)
    return tensors_by_band, report
