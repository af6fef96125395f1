"""Recording ingestion, the session-based train/test split, and synthetic
two-class dataset generation.

On disk a recording is a CSV (header row of channel labels, one row per
sample instant) plus a JSON manifest {subject_id, session_index, label,
sampling_rate_hz, data_file, montage?}.  Synthesis builds band-limited
sinusoid mixtures plus white noise from a declarative spec and is a pure
function of (spec, seed).
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from pathlib import Path

import numpy as np

from .errors import ParameterError, SplitError, ValidationError
from .spectral import band_by_name

__all__ = [
    "STANDARD_MONTAGE_19", "LABELS", "EegRecording",
    "load_recording", "save_recording", "session_split_keys",
    "BandProfile", "SynthSpec", "synthesize_dataset",
]

STANDARD_MONTAGE_19 = ("Fp1", "Fp2", "F7", "F3", "Fz", "F4", "F8", "T7", "C3",
                       "Cz", "C4", "T8", "P7", "P3", "Pz", "P4", "P8", "O1", "O2")
STANDARD_MONTAGE_NAME = "10-20"
LABELS = ("AD", "NonAD")

_MIN_SAMPLING_RATE = 60.0  # Nyquist margin for the 1-30 Hz analysis range
# ASCII characters besides "\n" at which str.splitlines breaks a line
_OTHER_LINE_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e"
# each manifest key, the JSON values it takes and how an error names them; a
# number must be finite, and a key that may be null may also be left out
_MANIFEST = {"subject_id": (str, "a string"), "session_index": (int, "an integer"),
             "label": (str, "a string"), "sampling_rate_hz": ((int, float), "a number"),
             "data_file": (str, "a string"), "montage": ((str, type(None)), "a string or null")}


def _breaks_csv(text: str) -> bool:
    """Whether `text` holds a comma, or a character at which str.splitlines
    breaks a line, either of which would split a CSV field or row."""
    return any(c in text for c in ",\n\x85\u2028\u2029" + _OTHER_LINE_BREAKS)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _channel_tuple(name: str, value) -> tuple:
    """The channel labels of the spec field `name` as a tuple; ValidationError
    for a string, which tuple() would split into its characters, and for an
    entry that is not a non-empty string."""
    if isinstance(value, str):
        raise ValidationError(f"{name} must be a list of channel labels, "
                              f"got the string {value!r}")
    labels = tuple(value)
    for label in labels:
        if not isinstance(label, str) or not label:
            raise ValidationError(f"{name} must hold non-empty strings, got {label!r}")
    return labels


@dataclass(frozen=True, eq=False)
class EegRecording:
    """One labeled multichannel recording; immutable after validation."""

    subject_id: str
    session_index: int
    label: str
    sampling_rate_hz: float
    channel_labels: tuple
    samples: np.ndarray  # (n_channels, n_samples)
    montage: str | None = None

    def __post_init__(self):
        # the feature cache is a CSV whose "#" lines are comments
        if self.subject_id.startswith("#") or _breaks_csv(self.subject_id):
            raise ValidationError(f"subject_id {self.subject_id!r} starts with '#' or holds "
                                  f"a comma or a line break, which the feature cache "
                                  f"cannot hold")
        if self.label not in LABELS:
            raise ValidationError(f"unknown label {self.label!r}; expected one of {LABELS}")
        if self.session_index < 1:
            raise ValidationError(f"session_index must be >= 1, got {self.session_index}")
        if not self.sampling_rate_hz > _MIN_SAMPLING_RATE:
            raise ValidationError(
                f"sampling rate {self.sampling_rate_hz} Hz too low for 1-30 Hz analysis "
                f"(need > {_MIN_SAMPLING_RATE})")
        labels = tuple(self.channel_labels)
        object.__setattr__(self, "channel_labels", labels)
        seen = set()
        for name in labels:
            if _breaks_csv(name):
                raise ValidationError(f"channel label {name!r} holds a comma or a line "
                                      f"break, which the feature cache cannot hold")
            if name in seen:
                raise ValidationError(f"duplicate channel label {name!r}")
            seen.add(name)
        if self.montage == STANDARD_MONTAGE_NAME:
            unknown = [name for name in labels if name not in STANDARD_MONTAGE_19]
            if unknown:
                raise ValidationError(
                    f"unknown montage label(s) {unknown} for the standard 10/20 set")
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 2 or samples.shape[0] != len(labels):
            raise ValidationError(
                f"samples shape {samples.shape} does not match {len(labels)} channels")
        if not np.isfinite(samples).all():
            bad = np.argwhere(~np.isfinite(samples))[0]
            raise ValidationError(
                f"non-finite sample at channel {labels[bad[0]]!r}, index {bad[1]}")
        samples = samples.copy()
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)

    def __setstate__(self, state):
        # an unpickled array is writeable; keep the samples read-only
        state["samples"].flags.writeable = False
        self.__dict__.update(state)

    @property
    def n_channels(self) -> int:
        return len(self.channel_labels)

    @property
    def n_samples(self) -> int:
        return self.samples.shape[1]

    @property
    def duration_seconds(self) -> float:
        return self.n_samples / self.sampling_rate_hz

    def key(self):
        return (self.subject_id, self.session_index)


def load_recording(manifest_path) -> EegRecording:
    """Load and validate one recording from its JSON manifest.

    The data file's body is parsed once and kept when it is one row per
    "\n"-separated line (the last "\n" optional) by one column per header
    channel.  Otherwise a scan of the lines names the fault: the first
    ragged row (a blank line, a missing or an extra field), a header
    without samples, or else the bad value."""
    manifest_path = Path(manifest_path)
    if not manifest_path.is_file():
        raise ValidationError(f"manifest not found: {manifest_path}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValidationError(f"malformed manifest {manifest_path}: {exc}") from None
    if not isinstance(manifest, dict):
        raise ValidationError(f"manifest {manifest_path} is not a JSON object")
    missing = [key for key, (types, _) in _MANIFEST.items()
               if key not in manifest and not isinstance(None, types)]
    if missing:
        raise ValidationError(f"manifest {manifest_path} missing keys {missing}")
    manifest = {key: manifest.get(key) for key in _MANIFEST}
    for key, (types, kind) in _MANIFEST.items():
        value = manifest[key]
        if (isinstance(value, bool) or not isinstance(value, types)
                or isinstance(value, float) and not np.isfinite(value)):
            raise ValidationError(
                f"manifest {manifest_path}: {key} must be {kind}, got {value!r}")

    data_path = manifest_path.parent / manifest.pop("data_file")
    if not data_path.is_file():
        raise ValidationError(f"data file not found: {data_path}")
    try:
        text = data_path.read_text()
    except UnicodeDecodeError as exc:
        raise ValidationError(f"data file {data_path} is not text: {exc}") from None
    if not text:
        raise ValidationError(f"malformed header: {data_path} is empty")
    header_line, _, body = text.partition("\n")
    header = [h.strip() for h in next(csv.reader([header_line]))]
    if not header or any(not h for h in header):
        raise ValidationError(f"malformed header in {data_path}: blank channel name")
    n_channels = len(header)
    fault = None
    try:
        # numpy warns of "no data" for a body that is all whitespace
        samples = _parse_body(body) if body.strip() else None
    except ValueError as exc:
        samples, fault = None, exc
    n_lines = body.count("\n") + (body[-1:] not in ("", "\n"))
    if samples is None or samples.shape != (n_lines, n_channels):
        for i, row in enumerate(body.split("\n")[:n_lines]):
            n_values = row.count(",") + 1 if row.strip() else 0
            if n_values != n_channels:
                raise ValidationError(
                    f"ragged row {i + 1} in {data_path}: {n_values} values, "
                    f"expected {n_channels}")
        if not body:
            raise ValidationError(f"{data_path} contains a header but no samples")
        # every row holds its fields, so the parse failed on a value
        raise ValidationError(f"bad value in {data_path}: {fault}")

    manifest["sampling_rate_hz"] = float(manifest["sampling_rate_hz"])
    return EegRecording(**manifest, channel_labels=tuple(header), samples=samples.T)


def _parse_body(body: str) -> np.ndarray:
    return np.loadtxt(io.StringIO(body), delimiter=",", comments=None,
                      dtype=np.float64, ndmin=2)


def save_recording(recording: EegRecording, directory, stem: str | None = None) -> Path:
    """Write CSV + manifest; returns the manifest path.  Floats are written
    with shortest round-trip repr so load(save(r)) is bit-exact."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    if stem is None:
        stem = f"{recording.subject_id}_s{recording.session_index}"
    data_name = f"{stem}.csv"
    lines = [",".join(recording.channel_labels)]
    for row in recording.samples.T:
        lines.append(",".join(repr(float(v)) for v in row))
    (directory / data_name).write_text("\n".join(lines) + "\n")

    values = {key: data_name if key == "data_file" else getattr(recording, key)
              for key in _MANIFEST}
    manifest = {key: value for key, value in values.items() if value is not None}
    manifest_path = directory / f"{stem}.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest_path


def session_split_keys(keys) -> tuple:
    """Sessions 1-5 of every subject go to training, session 6 to testing.

    Takes (subject_id, session_index) keys and returns (training keys,
    testing keys), each ordered by subject, then session."""
    by_subject: dict = {}
    for subject, session in keys:
        by_subject.setdefault(subject, []).append(session)
    training, testing = [], []
    for subject in sorted(by_subject):
        indices = sorted(by_subject[subject])
        if indices != [1, 2, 3, 4, 5, 6]:
            raise SplitError(
                f"subject {subject!r} has sessions {indices}, expected exactly 1..6")
        training.extend((subject, session) for session in indices[:5])
        testing.append((subject, indices[5]))
    return training, testing


@dataclass(frozen=True)
class BandProfile:
    """One sinusoid-plus-noise component of a synthetic class profile."""

    label: str = field(metadata={"json": "class"})  # metadata "json": its JSON key
    band: str
    amplitude: float
    channels_affected: tuple | None = None  # None -> every montage channel
    noise_sigma: float = 0.0
    frequency_hz: float | None = None  # None -> drawn uniformly inside the band

    def __post_init__(self):
        if self.channels_affected is not None:
            object.__setattr__(self, "channels_affected",
                               _channel_tuple("channels_affected", self.channels_affected))


# `SynthSpec.default`: delta noise sigma, AD and NonAD alpha amplitudes
_NOISE_SIGMA, _AD_ALPHA, _NS_ALPHA = 0.35, 0.45, 1.1


def _to_json(value):
    """A spec value as JSON: a dataclass as an object of its fields, a tuple as a list."""
    if is_dataclass(value):
        return {f.metadata.get("json", f.name): _to_json(getattr(value, f.name))
                for f in fields(value)}
    if isinstance(value, tuple):
        return [_to_json(v) for v in value]
    return dict(value) if isinstance(value, dict) else value


def _fields_from_json(cls, what: str, obj, required=()) -> dict:
    """The fields a JSON object gives the dataclass `cls`: a key left out takes its
    field's default, unless it is in `required` or the field has none (KeyError)."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} is not a JSON object")
    keys = {f.metadata.get("json", f.name): f for f in fields(cls)}
    unknown = sorted(set(obj) - set(keys))
    if unknown:
        raise ValueError(f"unknown {what} key(s) {unknown}; expected some of {list(keys)}")
    return {f.name: obj[key] for key, f in keys.items()
            if key in obj or key in required
            or (f.default, f.default_factory) == (MISSING, MISSING)}


@dataclass(frozen=True)
class SynthSpec:
    """Declarative description of a synthetic two-class dataset."""

    subjects: dict = field(default_factory=lambda: {"AD": 5, "NonAD": 6})
    sessions_per_subject: int = 6
    channel_labels: tuple = STANDARD_MONTAGE_19
    duration_seconds: float = 40.0
    sampling_rate_hz: float = 250.0
    profiles: tuple = ()

    def __post_init__(self):
        for name, kind in (("subjects", dict), ("profiles", tuple)):
            object.__setattr__(self, name, kind(getattr(self, name)))
        object.__setattr__(self, "channel_labels",
                           _channel_tuple("channel_labels", self.channel_labels))
        for label, count in self.subjects.items():
            if label not in LABELS:
                raise ValidationError(f"unknown class label {label!r}")
            if not _is_int(count) or count < 0:
                raise ValidationError(
                    f"subject count for {label} must be an integer >= 0, got {count!r}")
        if sum(self.subjects.values()) < 1:
            raise ValidationError("at least one subject required")
        if not _is_int(self.sessions_per_subject) or self.sessions_per_subject < 1:
            raise ValidationError(f"sessions_per_subject must be an integer >= 1, "
                                  f"got {self.sessions_per_subject!r}")
        if len(set(self.channel_labels)) != len(self.channel_labels):
            raise ValidationError("duplicate channel label in synth spec")
        if isinstance(self.duration_seconds, bool) or not 0 < self.duration_seconds < np.inf:
            raise ValidationError(f"duration_seconds must be positive and finite, "
                                  f"got {self.duration_seconds!r}")
        if not _MIN_SAMPLING_RATE < self.sampling_rate_hz < np.inf:
            raise ValidationError(f"sampling_rate_hz must be finite and above "
                                  f"{_MIN_SAMPLING_RATE}, got {self.sampling_rate_hz!r}")
        for p in self.profiles:
            if p.label not in LABELS:
                raise ValidationError(f"profile class {p.label!r} unknown")
            band_by_name(p.band)  # raises for unknown band names
            if isinstance(p.amplitude, bool) or not 0 <= p.amplitude < np.inf:
                raise ValidationError(f"amplitude must be >= 0 and finite, "
                                      f"got {p.amplitude!r} for band {p.band}")
            if isinstance(p.noise_sigma, bool) or not 0 <= p.noise_sigma < np.inf:
                raise ValidationError(f"noise_sigma must be >= 0 and finite, "
                                      f"got {p.noise_sigma!r} for band {p.band}")
            if p.frequency_hz is not None and (isinstance(p.frequency_hz, bool)
                                               or not -np.inf < p.frequency_hz < np.inf):
                raise ValidationError(f"frequency_hz must be finite, "
                                      f"got {p.frequency_hz!r} for band {p.band}")
            if p.channels_affected is not None:
                missing = [c for c in p.channels_affected if c not in self.channel_labels]
                if missing:
                    raise ValidationError(f"profile channels {missing} not in montage")

    @classmethod
    def default(cls, channel_labels=STANDARD_MONTAGE_19, alpha_affected=None,
                subjects=None) -> "SynthSpec":
        """Two-class spec with reduced alpha amplitude for the AD class on the
        affected channels (all channels when alpha_affected is None): alpha
        0.45 there against 1.1 for NonAD and the other channels, delta noise
        sigma 0.35 for both classes."""
        channel_labels = _channel_tuple("channel_labels", channel_labels)
        affected = (_channel_tuple("alpha_affected", alpha_affected)
                    if alpha_affected is not None else channel_labels)
        rest = tuple(c for c in channel_labels if c not in affected)
        profiles = []
        for label in LABELS:
            profiles += [BandProfile(label, "delta", 0.9, noise_sigma=_NOISE_SIGMA),
                         BandProfile(label, "theta", 0.8), BandProfile(label, "beta", 0.7)]
            alpha_amp = _AD_ALPHA if label == "AD" else _NS_ALPHA
            profiles.append(BandProfile(label, "alpha", alpha_amp, affected))
            if rest:
                profiles.append(BandProfile(label, "alpha", _NS_ALPHA, rest))
        given = {"subjects": subjects} if subjects else {}  # else the field's default
        return cls(channel_labels=channel_labels, profiles=profiles, **given)

    def to_json(self) -> dict:
        return _to_json(self)

    @classmethod
    def from_json(cls, obj: dict) -> "SynthSpec":
        # a spec file must say its subjects, although the field has a default
        spec = _fields_from_json(cls, "spec", obj, required=("subjects",))
        if "profiles" in spec:
            spec["profiles"] = [BandProfile(**_fields_from_json(BandProfile, "profile", p))
                                for p in spec["profiles"]]
        return cls(**spec)


def synthesize_dataset(spec: SynthSpec, seed: int) -> list:
    """Deterministic synthetic recordings: one per subject and session."""
    if seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")
    n = round(spec.duration_seconds * spec.sampling_rate_hz)
    t = np.arange(n) / spec.sampling_rate_hz
    montage = (STANDARD_MONTAGE_NAME
               if all(c in STANDARD_MONTAGE_19 for c in spec.channel_labels) else None)
    chan_index = {c: i for i, c in enumerate(spec.channel_labels)}

    recordings = []
    for ci, label in enumerate(LABELS):
        count = spec.subjects.get(label, 0)
        profiles = [p for p in spec.profiles if p.label == label]
        for si in range(1, count + 1):
            subject = f"{label}{si:02d}"
            for sess in range(1, spec.sessions_per_subject + 1):
                rng = np.random.default_rng([seed, ci, si, sess])
                data = np.zeros((len(spec.channel_labels), n))
                for p in profiles:
                    channels = p.channels_affected or spec.channel_labels
                    band = band_by_name(p.band)
                    for name in channels:
                        freq = (p.frequency_hz if p.frequency_hz is not None
                                else rng.uniform(band.low_hz, band.high_hz))
                        phase = rng.uniform(0.0, 2.0 * np.pi)
                        row = chan_index[name]
                        data[row] += p.amplitude * np.sin(2 * np.pi * freq * t + phase)
                        if p.noise_sigma > 0:
                            data[row] += p.noise_sigma * rng.standard_normal(n)
                recordings.append(EegRecording(
                    subject_id=subject, session_index=sess, label=label,
                    sampling_rate_hz=spec.sampling_rate_hz,
                    channel_labels=spec.channel_labels,
                    samples=data, montage=montage))
    return recordings
