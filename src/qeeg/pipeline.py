"""Shared machinery: per-recording feature cache and the single-trial
featurize -> embed -> QPCA -> project -> SVM -> metrics cycle.

A FeatureCache holds relative band powers for every recording at one
segmentation setting in one array, a row per (subject_id, session_index)
key.  Everything downstream (search trials, sweeps, the baseline
comparison, the CLI) reads from it, which keeps trials cheap and
byte-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from itertools import islice
from typing import ClassVar

import numpy as np

from . import qpca
from .classifier import (MetricsResult, confusion, metrics, svm_fit, svm_fit_prefixes,
                         svm_predict, svm_predict_prefixes)
from .dataset import LABELS
from .errors import ParameterError, ValidationError
from .spectral import BAND_NAMES, band_power_matrix

__all__ = ["PipelineParams", "FeatureCache", "TrialOutcome", "rotation_class_key",
           "rotation_classes", "fit_pca", "best_over_p", "evaluate_quadruple",
           "train_pipeline", "evaluate_model", "SWEEP_AXES", "sweep_parameters"]

POSITIVE_LABEL = "AD"  # a true positive is a correctly detected AD sample
CACHE_HEADER = "subject_id,session_index,label,channel,band,segment_index,value"
# the PipelineParams fields a sweep varies, and the parser of each grid value
SWEEP_AXES = {"segment_seconds": float, "projection": str, "p": int}


def label_sign(label: str) -> float:
    return 1.0 if label == POSITIVE_LABEL else -1.0


@dataclass(frozen=True)
class PipelineParams:
    """Resolved trial parameters; `fit_pca` turns `p`, `p_sweep_limit` and
    `p_threshold` into a component count."""

    segment_seconds: float = 1.0
    projection: str = "mean"
    p: int | None = None
    p_sweep_limit: int | None = 20
    p_threshold: float = 0.90
    svm_c: float = 1.0

    def __post_init__(self):
        if self.projection not in qpca.PROJECTION_METHODS:
            raise ParameterError(
                f"unknown projection {self.projection!r}; expected one of "
                f"{qpca.PROJECTION_METHODS}")
        if self.p is not None and self.p < 1:
            raise ParameterError(f"p must be >= 1, got {self.p}")
        if self.p_sweep_limit is not None and self.p_sweep_limit < 1:
            raise ParameterError(f"p_sweep_limit must be >= 1, got {self.p_sweep_limit}")
        if not 0 < self.p_threshold <= 1:
            raise ParameterError(f"p_threshold must be in (0, 1], got {self.p_threshold}")
        if not 0 < self.svm_c < np.inf:
            raise ParameterError(f"svm_c must be positive and finite, got {self.svm_c}")
        if not np.isfinite(self.segment_seconds):
            raise ParameterError(f"segment_seconds must be finite, got {self.segment_seconds}")

    def to_json(self) -> dict:
        return {"segment_seconds": self.segment_seconds, "projection": self.projection,
                "p": self.p, "p_sweep_limit": self.p_sweep_limit,
                "p_threshold": self.p_threshold, "svm_c": self.svm_c}


@dataclass(eq=False)
class FeatureCache:
    """Relative band powers for a recording set at one segmentation setting.

    grid has shape (n_keys, n_channels, n_bands, n_segments) and its row r
    holds the powers of keys[r]; keys are sorted (subject_id, session_index)
    pairs and the bands are BAND_NAMES."""

    bands: ClassVar[tuple] = BAND_NAMES

    segment_seconds: float
    channels: tuple
    keys: tuple
    labels: dict
    grid: np.ndarray

    @property
    def n_segments(self) -> int:
        return self.grid.shape[3]

    @cached_property
    def _row_of(self) -> dict:
        return {key: r for r, key in enumerate(self.keys)}

    @classmethod
    def from_recordings(cls, recordings, segment_seconds: float) -> "FeatureCache":
        recordings = sorted(recordings, key=lambda r: r.key())
        if not recordings:
            raise ValidationError("no recordings to featurize")
        channels = recordings[0].channel_labels
        matrices, labels = [], {}
        for rec in recordings:
            if rec.channel_labels != channels:
                raise ValidationError(
                    f"montage mismatch: {rec.subject_id} s{rec.session_index} has "
                    f"{rec.channel_labels}, expected {channels}")
            key = rec.key()
            if key in labels:
                raise ValidationError(f"duplicate recording key {key}")
            matrix = band_power_matrix(rec, segment_seconds)
            if matrices and matrix.shape[2] != matrices[0].shape[2]:
                raise ValidationError(
                    f"segment count mismatch for {key}: {matrix.shape[2]} vs "
                    f"{matrices[0].shape[2]}")
            matrices.append(matrix)
            labels[key] = rec.label
        return cls(segment_seconds=segment_seconds, channels=channels,
                   keys=tuple(labels), labels=labels, grid=np.stack(matrices))

    def band_index(self, band: str) -> int:
        try:
            return self.bands.index(band)
        except ValueError:
            raise ParameterError(f"band {band!r} not cached; have {self.bands}") from None

    def channel_index(self, channel: str) -> int:
        try:
            return self.channels.index(channel)
        except ValueError:
            raise ParameterError(f"channel {channel!r} not in montage {self.channels}") from None

    def labels_pm1(self, keys) -> np.ndarray:
        return np.array([label_sign(self.labels[k]) for k in keys])

    def band_powers(self, keys, channels, band: str) -> np.ndarray:
        """Powers of one band for the given keys and channels, in their
        order: shape (len(keys), len(channels), n_segments)."""
        bi = self.band_index(band)
        cidx = [self.channel_index(c) for c in channels]
        rows = np.array([self._row_of[k] for k in keys], dtype=np.intp)
        return self.grid[rows[:, None], cidx, bi]

    def vectors(self, keys, channels, band: str):
        """Quaternion rows for the given ordered channel tuple.

        Four channels embed as a full quaternion (Ch1 -> scalar part); three
        channels embed as a pure quaternion (scalar part zero)."""
        rows = self.band_powers(keys, channels, band)  # (m, len(c), N_s)
        if rows.shape[1] == 4:
            return qpca.embed_rows(rows[:, 0], rows[:, 1], rows[:, 2], rows[:, 3])
        if rows.shape[1] == 3:
            zero = np.zeros_like(rows[:, 0])
            return qpca.embed_rows(zero, rows[:, 0], rows[:, 1], rows[:, 2])
        raise ParameterError(f"need 3 or 4 channels, got {rows.shape[1]}")

    # -- CSV cache file (subject_id, session_index, label, channel, band,
    #    segment_index, value) -----------------------------------------

    def to_csv_text(self) -> str:
        prefixes = _row_prefixes(self.keys, self.labels, self.channels, self.bands,
                                 self.n_segments)
        values = self.grid.ravel().tolist()
        return CACHE_HEADER + "\n" + "".join(map("{}{!r}\n".format, prefixes, values))

    @classmethod
    def from_csv_text(cls, text: str, segment_seconds: float) -> "FeatureCache":
        """Parse a feature cache file in the layout `to_csv_text` writes
        (`_read_cache`): each key one label from LABELS and exactly one row
        per cell of its channel x band x segment grid."""
        if not 0 < segment_seconds < np.inf:
            raise ParameterError(
                f"segment_seconds must be positive and finite, got {segment_seconds}")
        channels, labels, grid = _read_cache(text)
        return cls(segment_seconds=segment_seconds, channels=channels,
                   keys=tuple(sorted(labels)), labels=labels, grid=grid)


def _row_prefixes(keys, labels, channels, bands, n_segments):
    """The first six fields of every cache row, each followed by its comma,
    in the order `to_csv_text` writes the rows: key by key, then channel by
    channel, band by band and segment by segment."""
    segments = [f"{si}," for si in range(n_segments)]
    for key in keys:
        subject, session = key
        for channel in channels:
            for band in bands:
                cell = f"{subject},{session},{labels[key]},{channel},{band},"
                for segment in segments:
                    yield cell + segment


def _read_cache(text: str):
    """(channels, labels, grid) of a cache in the layout `to_csv_text`
    writes: `#` lines, the header, then the rows of every key in strictly
    ascending key order, each row its prefix (`_row_prefixes`) plus one
    float.  The rows before the next segment 0 give the segment count, the
    first rows the channels and the first row of each key block its key and
    label; every row is then read as float(row.removeprefix(prefix)), which
    raises for a row that is not its prefix plus one value, since a float
    holds no comma.  Any fault is a ValidationError: a header mismatch, no
    rows, an unknown label, or else the first row that breaks the layout,
    found only once the read fails."""
    lines = text.split("\n")
    start = 0
    while start < len(lines) and lines[start].startswith("#"):
        start += 1
    if start == len(lines) or lines[start] != CACHE_HEADER:
        raise ValidationError("feature cache header mismatch")
    offset = sum(len(line) + 1 for line in lines[:start + 1])
    start += 1
    stop = len(lines) - 1 if lines[-1] == "" else len(lines)
    n_rows = stop - start
    if n_rows == 0:
        raise ValidationError("feature cache has no rows: no recordings to featurize")
    first = lines[start].split(",")
    if len(first) != 7:
        raise _line_error(start, lines[start], "7 fields")
    head = ",".join(first[:3]) + ","
    n_segments = 1
    while n_segments < n_rows and lines[start + n_segments].split(",", 6)[5:6] != ["0"]:
        n_segments += 1
    stride = len(BAND_NAMES) * n_segments
    channels = []
    for r in range(start, stop, stride):
        channel = lines[r].split(",", 4)[3] if lines[r].startswith(head) else None
        if channel is None or channel in channels:
            break
        channels.append(channel)
    block = len(channels) * stride
    keys, labels = [], {}
    for r in range(start, stop, block):
        try:
            subject, session, label, _ = lines[r].split(",", 3)
            key = (subject, int(session))
        except ValueError:
            break
        if subject.startswith("#") or (keys and key <= keys[-1]):
            break
        if label not in LABELS:
            raise ValidationError(f"feature cache line {r + 1}: unknown label {label!r} "
                                  f"for {key}; expected one of {LABELS}")
        keys.append(key)
        labels[key] = label
    prefixes = _row_prefixes(keys, labels, channels, BAND_NAMES, n_segments)
    try:
        flat = np.fromiter(map(float, map(str.removeprefix, islice(lines, start, stop),
                                          prefixes)),
                           dtype=np.float64, count=n_rows)
    except ValueError:
        flat = None
    # A row without a comma would parse whole as a float, so every row must
    # hold the six commas of its prefix.
    if flat is not None and n_rows == len(keys) * block and text.count(",", offset) == 6 * n_rows:
        return (tuple(channels), labels,
                flat.reshape(len(keys), len(channels), len(BAND_NAMES), n_segments))
    # the first row that is not its prefix plus one value (a row past the last
    # reads as empty), else the row after the last key's block starts no key
    for r, prefix in enumerate(_row_prefixes(keys, labels, channels, BAND_NAMES, n_segments),
                               start):
        line = lines[r] if r < stop else ""
        try:
            if line.startswith(prefix):
                float(line[len(prefix):])
                continue
        except ValueError:
            pass
        raise _line_error(r, line, f"{prefix!r} and a value")
    r = start + len(keys) * block
    raise _line_error(r, lines[r], f"a key after {keys[-1]}" if keys else "a key")


def _line_error(r: int, line: str, expected: str) -> ValidationError:
    return ValidationError(f"feature cache line {r + 1}: {line!r}, expected {expected}")


def rotation_class_key(channels) -> tuple:
    """Key shared by the orders of a channel tuple that rotate its last three
    channels, the i -> j -> k automorphism of the quaternions: (w, a, b, c),
    (w, c, a, b) and (w, b, c, a) for a full quaternion, (a, b, c), (c, a, b)
    and (b, c, a) for a pure one.  Callers evaluate the first member of each
    class in their enumeration order and report its result for the others
    (`rotation_classes`)."""
    head, tail = tuple(channels[:-3]), tuple(channels[-3:])
    return head + min(tail[i:] + tail[:i] for i in range(3))


def rotation_classes(tuples):
    """(firsts, classes): the first member of each rotation class of the
    channel tuples, in their order, and the class number of every tuple,
    an index into `firsts`.

    The search and the connectivity measures evaluate `firsts` alone and
    report each result for every member of its class.  This is exact up to
    rounding.  Let phi be the automorphism i -> j -> k -> i of the
    quaternions, phi(q) = u q conj(u) with u = (1 + i + j + k) / 2: it is
    real-linear and multiplicative, fixes the reals, commutes with
    conjugation and keeps the modulus.  Rotating the last three channels,
    (w, a, b, c) -> (w, c, a, b) or (a, b, c) -> (c, a, b), applies phi to
    every embedded row (a pure quaternion stays pure), so it maps the row
    mean, the covariance C and its eigendecomposition (`qlinalg.qeigh`):
    C = U L U^H gives phi(C) = phi(U) L phi(U)^H, with the same eigenvalues
    L (hence the same p, fixed, swept or by energy share), and phi(U) keeps
    the convention that a column's largest-norm entry is a positive real
    (Le Bihan & Mars, "Singular value decomposition of quaternion
    matrices", Signal Processing 2004).  The features become phi of the
    features, whose x, y, z parts only rotate, and the mean, absolute, norm
    and phase projections are symmetric in them: every SVM and every class
    mean of a rotated order sees the same real values.  In floating point
    the orders agree to rounding (features to about 1e-14), which decides
    nothing except where the p cut falls inside a tied or zero eigenvalue
    cluster: there the subspace is not unique, and the first member's
    result is reported for the whole class."""
    firsts, classes, number = [], [], {}
    for channels in tuples:
        key = rotation_class_key(channels)
        if key not in number:
            number[key] = len(firsts)
            firsts.append(tuple(channels))
        classes.append(number[key])
    return firsts, classes


@dataclass(frozen=True)
class TrialOutcome:
    acc: float | None
    sen: float | None
    spe: float | None
    p_used: int
    result: MetricsResult

    def to_json(self) -> dict:
        out = self.result.to_json()
        out["p_used"] = self.p_used
        return out


def fit_pca(fit, rows, params: PipelineParams):
    """(model, candidates): `fit` (`qpca.fit` or `baseline.fit_real_pca`) on
    the training rows, and the component counts a trial scores.  A fixed `p`
    comes first: the fit keeps p components, rejecting a p above
    min(rows.shape), and [p] is scored.  Otherwise a sweep limit fits
    min(p_sweep_limit, *rows.shape) components and 1..that count are scored
    (`best_over_p`).  Otherwise the eigenvalue-energy threshold picks p in
    the fit, and [p] is scored."""
    sweep = params.p is None and params.p_sweep_limit is not None
    model = fit(rows, p=min(params.p_sweep_limit, *rows.shape) if sweep else params.p,
                energy_threshold=params.p_threshold)
    return model, list(range(1, model.p + 1)) if sweep else [model.p]


def best_over_p(train_feats, y_train, test_feats, y_test, candidates,
                svm_c: float) -> TrialOutcome:
    """One SVM per candidate p on the leading p feature columns, trained in
    lockstep and scored in one pass; the most test hits win (ties resolve to
    the smallest component count)."""
    models = svm_fit_prefixes(train_feats, y_train, candidates, regularization_c=svm_c)
    pred = svm_predict_prefixes(models, test_feats)  # (P, n_test)
    best = int(np.argmax((pred == y_test).sum(axis=1)))
    m = metrics(confusion(y_test, pred[best]))
    return TrialOutcome(acc=m.acc, sen=m.sen, spe=m.spe, p_used=candidates[best], result=m)


def evaluate_quadruple(cache: FeatureCache, train_keys, test_keys, quadruple,
                       band: str, params: PipelineParams) -> TrialOutcome:
    """One full train/test cycle, scored by `best_over_p`."""
    channels = tuple(quadruple)
    q_train = cache.vectors(train_keys, channels, band)
    q_test = cache.vectors(test_keys, channels, band)
    model, candidates = fit_pca(qpca.fit, q_train, params)
    train_feats = qpca.project(qpca.transform(model, q_train), params.projection)
    test_feats = qpca.project(qpca.transform(model, q_test), params.projection)
    return best_over_p(train_feats, cache.labels_pm1(train_keys),
                       test_feats, cache.labels_pm1(test_keys), candidates, params.svm_c)


def train_pipeline(cache: FeatureCache, train_keys, quadruple, band: str,
                   params: PipelineParams):
    """Fit QPCA + SVM on the training keys at the component count `fit_pca`
    fits (one model: no test-side choice among the candidates)."""
    channels = tuple(quadruple)
    q_train = cache.vectors(train_keys, channels, band)
    model, _ = fit_pca(qpca.fit, q_train, params)
    model = replace(model, band=band, quadruple=qpca.ChannelQuadruple(channels),
                    segment_seconds=cache.segment_seconds, projection=params.projection)
    feats = qpca.project(qpca.transform(model, q_train), params.projection)
    svm = svm_fit(feats, cache.labels_pm1(train_keys), regularization_c=params.svm_c)
    return model, svm


def evaluate_model(model, svm, cache: FeatureCache, keys) -> MetricsResult:
    """Metrics of a fitted (QPCA, SVM) pair on the given recordings."""
    channels = tuple(model.quadruple)
    q = cache.vectors(keys, channels, model.band)
    feats = qpca.project(qpca.transform(model, q), model.projection)
    pred = svm_predict(svm, feats)
    return metrics(confusion(cache.labels_pm1(keys), pred))


def sweep_parameters(recordings, train_keys, test_keys, quadruple, band: str,
                     axis: str, values, base=None) -> list:
    """One full train/evaluate cycle per grid value along a single axis of
    `SWEEP_AXES`, each point `base` with that field set to the parsed value;
    failed grid points are reported, not raised."""
    params = base if base is not None else PipelineParams()
    if axis not in SWEEP_AXES:
        raise ParameterError(f"unknown sweep axis {axis!r}")
    values = list(values)
    if not values:
        raise ParameterError("empty sweep grid")

    cache = None
    if axis != "segment_seconds":
        cache = FeatureCache.from_recordings(recordings, params.segment_seconds)
    rows = []
    for value in values:
        row = {"axis": axis, "value": value, "acc": None, "sen": None, "spe": None,
               "p_used": None, "error": None}
        try:
            point = replace(params, **{axis: SWEEP_AXES[axis](value)})
            point_cache = cache or FeatureCache.from_recordings(recordings,
                                                                point.segment_seconds)
            outcome = evaluate_quadruple(point_cache, train_keys, test_keys, quadruple,
                                         band, point)
            row.update(acc=outcome.acc, sen=outcome.sen, spe=outcome.spe,
                       p_used=outcome.p_used)
        except Exception as exc:  # noqa: BLE001 - per-point failures are data
            row["error"] = f"{type(exc).__name__}: {exc}"
        rows.append(row)
    return rows
