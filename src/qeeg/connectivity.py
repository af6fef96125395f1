"""QPCA-based connectivity measures.

For an ordered channel tuple (three channels -> pure quaternion embedding,
four -> full quaternion), QPCA with a single component is fitted on the
pooled two-class sample set; each sample's measure value is the
mean-projection of its centered coordinate along that first principal
component.  The pooled fit gives both classes one shared basis, so class
means are comparable and the interclass distance

    Dist = | mean(measures_NonAD) - mean(measures_AD) |

is well defined.  `measure_connectivity` keeps one table per band, each
measured ordered distinct channel tuple -> (class means, Dist), and every
output derives from it: the per-class tensors, the distance report, the
skip counts and the mean Dist.  Degenerate tuples have no row.

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

__all__ = ["ConnectivityReport", "measure_values", "interclass_distance",
           "measure_connectivity"]

_MODE_SIZES = {"triple": 3, "quadruple": 4}


def measure_values(cache: FeatureCache, keys, channels, band: str) -> dict:
    """Per-sample first-component measure values, split by class label.

    `channels` is an ordered tuple of 3 (pure embedding) or 4 (full
    embedding) montage names; `FeatureCache.vectors` rejects other sizes."""
    keys = list(keys)
    vectors = cache.vectors(keys, tuple(channels), band)
    model = qpca.fit(vectors, p=1)
    measures = qpca.features(model, vectors, "mean").ravel()
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


def _class_row(cache: FeatureCache, keys, channels, band: str):
    """(class means, Dist) of one tuple; None when it is degenerate."""
    try:
        by_class = measure_values(cache, keys, channels, band)
    except DegenerateDataError:
        return None
    means = {label: float(vals.mean()) for label, vals in by_class.items()}
    return means, interclass_distance(by_class["NonAD"], by_class["AD"])


@dataclass(frozen=True, eq=False)
class ConnectivityReport:
    """Class means and Dist per band, the one table every output reads.

    `rows_by_band[band]` maps each tuple the band measured, in enumeration
    order, to ({label: class mean}, Dist); a degenerate tuple has no row.
    `tuples` is every enumerated tuple, lexicographic in montage order."""

    mode: str
    axis_labels: tuple
    samples: dict  # label -> number of samples
    tuples: tuple
    rows_by_band: dict  # band -> {tuple: ({label: class mean}, Dist)}

    def skipped(self, band: str) -> int:
        return len(self.tuples) - len(self.rows_by_band[band])

    def mean_dist(self, band: str) -> float | None:
        """Mean Dist over the tuples the band measured; None when it
        skipped every tuple."""
        dists = [dist for _, dist in self.rows_by_band[band].values()]
        return float(np.mean(dists)) if dists else None

    def tensors_json(self, band: str) -> dict:
        """{label: tensor of the band's sorted tuples -> class mean}; {} when
        the band skipped every tuple."""
        rows = self.rows_by_band[band]
        return {label: {
            "mode": self.mode, "band": band, "class": label,
            "axis_labels": list(self.axis_labels),
            "entries": [{"channels": list(chs), "value": rows[chs][0][label]}
                        for chs in sorted(rows)],
            "skipped_tuples": self.skipped(band),
        } for label in (sorted(self.samples) if rows else ())}

    def to_json(self) -> dict:
        """The distance report over the tuples some band measured; a band
        that skipped one of them holds None at its place."""
        bands = list(self.rows_by_band)
        kept = [chs for chs in self.tuples
                if any(chs in rows for rows in self.rows_by_band.values())]
        cells = {b: [self.rows_by_band[b].get(chs) for chs in kept] for b in bands}
        return {
            "mode": self.mode,
            "samples": dict(self.samples),
            "bands": bands,
            "tuples": [list(t) for t in kept],
            "dist": {b: [None if c is None else c[1] for c in cells[b]] for b in bands},
            "mean_dist": {b: self.mean_dist(b) for b in bands},
            "class_means": {
                b: {label: [None if c is None else c[0][label] for c in cells[b]]
                    for label in self.samples}
                for b in bands},
            "skipped": {b: self.skipped(b) for b in bands},
        }


def measure_connectivity(cache: FeatureCache, keys, mode: str,
                         bands=BAND_NAMES) -> ConnectivityReport:
    """Class means and Dist over every ordered distinct channel tuple,
    lexicographic in montage order, from one `measure_values` call per
    rotation class and band."""
    size = _MODE_SIZES.get(mode)
    if size is None:
        raise ParameterError(f"mode must be 'triple' or 'quadruple', got {mode!r}")
    keys = list(keys)
    samples = {"NonAD": 0, "AD": 0}
    for key in keys:
        samples[cache.labels[key]] += 1
    if not all(samples.values()):
        raise ValidationError(f"connectivity needs recordings of both classes, got "
                              f"{samples['NonAD']} NonAD and {samples['AD']} AD")
    tuples = tuple(permutations(cache.channels, size))
    firsts, classes = rotation_classes(tuples)
    rows_by_band = {}
    for band in bands:
        measured = [_class_row(cache, keys, channels, band) for channels in firsts]
        rows_by_band[band] = {chs: measured[c] for chs, c in zip(tuples, classes)
                              if measured[c] is not None}
    return ConnectivityReport(mode=mode, axis_labels=cache.channels, samples=samples,
                              tuples=tuples, rows_by_band=rows_by_band)
