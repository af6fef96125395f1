"""Shared machinery: per-recording feature cache and the single-trial
featurize -> embed -> QPCA -> project -> SVM -> metrics cycle.

A FeatureCache holds relative band powers for every recording at one
segmentation setting, keyed by (subject_id, session_index).  Everything
downstream (search trials, sweeps, the baseline comparison, the CLI) reads
from it, which keeps trials cheap and byte-reproducible.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, replace

import numpy as np

from . import qpca
from .classifier import (ConfusionCounts, MetricsResult, confusion, metrics, svm_fit,
                         svm_fit_prefixes, svm_predict, svm_predict_prefixes)
from .dataset import LABELS
from .errors import ParameterError, ValidationError
from .spectral import BAND_NAMES, band_power_matrix

__all__ = ["PipelineParams", "FeatureCache", "TrialOutcome", "rotation_class_key",
           "rotation_classes", "resolve_p", "best_over_p", "evaluate_quadruple",
           "train_pipeline", "evaluate_model", "sweep_parameters"]

POSITIVE_LABEL = "AD"  # a true positive is a correctly detected AD sample


def label_sign(label: str) -> float:
    return 1.0 if label == POSITIVE_LABEL else -1.0


@dataclass(frozen=True)
class PipelineParams:
    """Resolved trial parameters.

    Component count resolution order: fixed `p` when given, otherwise a
    best-accuracy sweep over 1..p_sweep_limit when set, otherwise the
    eigenvalue-energy threshold."""

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
        if self.svm_c <= 0:
            raise ParameterError(f"svm_c must be positive, got {self.svm_c}")

    def with_(self, **kw) -> "PipelineParams":
        return replace(self, **kw)

    def to_json(self) -> dict:
        return {"segment_seconds": self.segment_seconds, "projection": self.projection,
                "p": self.p, "p_sweep_limit": self.p_sweep_limit,
                "p_threshold": self.p_threshold, "svm_c": self.svm_c}


@dataclass(eq=False)
class FeatureCache:
    """Relative band powers for a recording set at one segmentation setting.

    values[key] has shape (n_channels, n_bands, n_segments); keys are sorted
    (subject_id, session_index) pairs."""

    segment_seconds: float
    channels: tuple
    bands: tuple
    keys: tuple
    labels: dict
    values: dict

    @property
    def n_segments(self) -> int:
        return next(iter(self.values.values())).shape[2]

    @classmethod
    def from_recordings(cls, recordings, segment_seconds: float) -> "FeatureCache":
        recordings = sorted(recordings, key=lambda r: r.key())
        if not recordings:
            raise ValidationError("no recordings to featurize")
        channels = recordings[0].channel_labels
        values, labels = {}, {}
        n_segments = None
        for rec in recordings:
            if rec.channel_labels != channels:
                raise ValidationError(
                    f"montage mismatch: {rec.subject_id} s{rec.session_index} has "
                    f"{rec.channel_labels}, expected {channels}")
            key = rec.key()
            if key in values:
                raise ValidationError(f"duplicate recording key {key}")
            matrix = band_power_matrix(rec, segment_seconds)
            if n_segments is None:
                n_segments = matrix.shape[2]
            elif matrix.shape[2] != n_segments:
                raise ValidationError(
                    f"segment count mismatch for {key}: {matrix.shape[2]} vs {n_segments}")
            values[key] = matrix
            labels[key] = rec.label
        return cls(segment_seconds=segment_seconds, channels=channels,
                   bands=BAND_NAMES, keys=tuple(sorted(values)),
                   labels=labels, values=values)

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

    def vectors(self, keys, channels, band: str):
        """Quaternion rows for the given ordered channel tuple.

        Four channels embed as a full quaternion (Ch1 -> scalar part); three
        channels embed as a pure quaternion (scalar part zero)."""
        bi = self.band_index(band)
        cidx = [self.channel_index(c) for c in channels]
        rows = np.stack([self.values[k][cidx, bi, :] for k in keys])  # (m, len(c), N_s)
        if len(cidx) == 4:
            return qpca.embed_rows(rows[:, 0], rows[:, 1], rows[:, 2], rows[:, 3])
        if len(cidx) == 3:
            zero = np.zeros_like(rows[:, 0])
            return qpca.embed_rows(zero, rows[:, 0], rows[:, 1], rows[:, 2])
        raise ParameterError(f"need 3 or 4 channels, got {len(cidx)}")

    # -- CSV cache file (subject_id, session_index, label, channel, band,
    #    segment_index, value) -----------------------------------------

    def to_csv_text(self) -> str:
        out = io.StringIO()
        out.write("subject_id,session_index,label,channel,band,segment_index,value\n")
        for key in self.keys:
            subject, session = key
            label = self.labels[key]
            matrix = self.values[key]
            for ci, channel in enumerate(self.channels):
                for bi, band in enumerate(self.bands):
                    for si in range(matrix.shape[2]):
                        out.write(f"{subject},{session},{label},{channel},{band},"
                                  f"{si},{float(matrix[ci, bi, si])!r}\n")
        return out.getvalue()

    @classmethod
    def from_csv_text(cls, text: str, segment_seconds: float) -> "FeatureCache":
        """Parse `to_csv_text` output.  Each key needs one label from LABELS
        and exactly one row per cell of its channel x band x segment grid."""
        lines = [ln for ln in text.splitlines()
                 if ln and not ln.startswith("#")]
        header = "subject_id,session_index,label,channel,band,segment_index,value"
        if not lines or lines[0] != header:
            raise ValidationError("feature cache header mismatch")
        if len(lines) == 1:
            raise ValidationError("feature cache has no rows: no recordings to featurize")
        raw: dict = {}
        labels: dict = {}
        channels: list = []
        for ln in lines[1:]:
            try:
                subject, session, label, channel, band, si, value = ln.split(",")
                key, si, value = (subject, int(session)), int(si), float(value)
            except ValueError as exc:
                raise ValidationError(f"feature cache row {ln!r}: {exc}") from None
            if labels.setdefault(key, label) != label:
                raise ValidationError(
                    f"feature cache rows of {key} disagree on the label: "
                    f"{labels[key]!r} and {label!r}")
            if channel not in channels:
                channels.append(channel)
            raw.setdefault(key, {}).setdefault(channel, {}).setdefault(band, {})[si] = value
        values = {}
        shape = None
        for key, per_channel in raw.items():
            if labels[key] not in LABELS:
                raise ValidationError(
                    f"unknown label {labels[key]!r} for {key}; expected one of {LABELS}")
            # a KeyError here is a missing channel, band or segment 0..N_s-1
            try:
                arr = np.array([[[per_channel[c][b][s] for s in range(len(per_channel[c][b]))]
                                 for b in BAND_NAMES] for c in channels],
                               dtype=np.float64)
            except (KeyError, ValueError) as exc:
                raise ValidationError(f"incomplete feature cache for {key}: {exc}") from None
            if shape is None:
                shape = arr.shape
            elif arr.shape != shape:
                raise ValidationError(
                    f"feature cache shape mismatch for {key}: {arr.shape} vs {shape}")
            values[key] = arr
        # the grids are complete, so any further row is a repeat or off the grid
        n_cells = sum(arr.size for arr in values.values())
        if n_cells != len(lines) - 1:
            raise ValidationError(
                f"feature cache has {len(lines) - 1} rows for {n_cells} cells: a row "
                f"repeats a cell or names a band outside {BAND_NAMES}")
        return cls(segment_seconds=segment_seconds, channels=tuple(channels),
                   bands=BAND_NAMES, keys=tuple(sorted(values)),
                   labels=labels, values=values)


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


def resolve_p(params: PipelineParams, p_max: int):
    """(fit_p, candidate list) under the resolution order of PipelineParams;
    both are None when the energy threshold decides inside the fit.  The fit
    rejects a fixed p above p_max."""
    if params.p is not None:
        return params.p, [params.p]
    if params.p_sweep_limit is not None:
        limit = min(params.p_sweep_limit, p_max)
        return limit, list(range(1, limit + 1))
    return None, None


def best_over_p(train_feats, y_train, test_feats, y_test, candidates,
                svm_c: float) -> TrialOutcome:
    """One SVM per candidate p on the leading p feature columns, trained in
    lockstep and scored in one pass; the best test accuracy wins (ties
    resolve to the smallest component count)."""
    models = svm_fit_prefixes(train_feats, y_train, candidates, regularization_c=svm_c)
    pred = svm_predict_prefixes(models, test_feats) > 0  # (P, n_test)
    pos = np.asarray(y_test) > 0
    tp, fp = (pred & pos).sum(axis=1), (pred & ~pos).sum(axis=1)
    fn, tn = pos.sum() - tp, (~pos).sum() - fp
    accs = [100.0 * hits / len(pos) if len(pos) else -1.0 for hits in (tp + tn).tolist()]
    best = 0
    for k, acc in enumerate(accs):
        if acc > accs[best] + 1e-12:
            best = k
    m = metrics(ConfusionCounts(tp=int(tp[best]), tn=int(tn[best]), fp=int(fp[best]),
                                fn=int(fn[best])))
    return TrialOutcome(acc=m.acc, sen=m.sen, spe=m.spe, p_used=candidates[best], result=m)


def evaluate_quadruple(cache: FeatureCache, train_keys, test_keys, quadruple,
                       band: str, params: PipelineParams) -> TrialOutcome:
    """One full train/test cycle, scored by `best_over_p`."""
    channels = tuple(quadruple)
    q_train = cache.vectors(train_keys, channels, band)
    q_test = cache.vectors(test_keys, channels, band)
    fit_p, candidates = resolve_p(params, min(q_train.shape))
    model = qpca.fit(q_train, p=fit_p, energy_threshold=params.p_threshold)
    train_feats = qpca.project(qpca.transform(model, q_train), params.projection)
    test_feats = qpca.project(qpca.transform(model, q_test), params.projection)
    return best_over_p(train_feats, cache.labels_pm1(train_keys),
                       test_feats, cache.labels_pm1(test_keys),
                       candidates or [model.p], params.svm_c)


def train_pipeline(cache: FeatureCache, train_keys, quadruple, band: str,
                   params: PipelineParams):
    """Fit QPCA + SVM on the training keys at a resolved component count
    (fixed p or energy threshold; no test-side sweep)."""
    channels = tuple(quadruple)
    q_train = cache.vectors(train_keys, channels, band)
    fit_p, _ = resolve_p(params, min(q_train.shape))
    model = replace(qpca.fit(q_train, p=fit_p, energy_threshold=params.p_threshold),
                    band=band, quadruple=qpca.ChannelQuadruple(channels),
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
    """One full train/evaluate cycle per grid value along a single axis
    (``segment_seconds``, ``projection`` or ``p``); failed grid points are
    reported, not raised."""
    params = base if base is not None else PipelineParams()
    if axis not in ("segment_seconds", "projection", "p"):
        raise ParameterError(f"unknown sweep axis {axis!r}")
    values = list(values)
    if not values:
        raise ParameterError("empty sweep grid")

    rows = []
    cache = None
    if axis != "segment_seconds":
        cache = FeatureCache.from_recordings(recordings, params.segment_seconds)
    for value in values:
        point = params
        try:
            if axis == "segment_seconds":
                point = params.with_(segment_seconds=float(value))
                point_cache = FeatureCache.from_recordings(recordings, float(value))
            else:
                point_cache = cache
                if axis == "projection":
                    point = params.with_(projection=str(value))
                else:
                    point = params.with_(p=int(value), p_sweep_limit=None)
            outcome = evaluate_quadruple(point_cache, train_keys, test_keys, quadruple,
                                         band, point)
            rows.append({"axis": axis, "value": value, "acc": outcome.acc,
                         "sen": outcome.sen, "spe": outcome.spe,
                         "p_used": outcome.p_used, "error": None})
        except Exception as exc:  # noqa: BLE001 - per-point failures are data
            rows.append({"axis": axis, "value": value, "acc": None, "sen": None,
                         "spe": None, "p_used": None,
                         "error": f"{type(exc).__name__}: {exc}"})
    return rows
