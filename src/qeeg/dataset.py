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
from dataclasses import dataclass, field
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


def _breaks_csv(text: str) -> bool:
    """Whether `text` holds a comma, or a character at which str.splitlines
    breaks a line, either of which would split a CSV field or row."""
    return any(c in text for c in ",\n\x85\u2028\u2029" + _OTHER_LINE_BREAKS)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


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
    missing = [k for k in ("subject_id", "session_index", "label",
                           "sampling_rate_hz", "data_file") if k not in manifest]
    if missing:
        raise ValidationError(f"manifest {manifest_path} missing keys {missing}")
    for key, types, kind in (("session_index", int, "an integer"),
                             ("sampling_rate_hz", (int, float), "a number"),
                             ("data_file", str, "a string")):
        value = manifest[key]
        if isinstance(value, bool) or not isinstance(value, types):
            raise ValidationError(
                f"manifest {manifest_path}: {key} must be {kind}, got {value!r}")

    data_path = manifest_path.parent / manifest["data_file"]
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

    return EegRecording(
        subject_id=str(manifest["subject_id"]),
        session_index=manifest["session_index"],
        label=str(manifest["label"]),
        sampling_rate_hz=float(manifest["sampling_rate_hz"]),
        channel_labels=tuple(header),
        samples=samples.T,
        montage=manifest.get("montage"),
    )


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

    manifest = {
        "subject_id": recording.subject_id,
        "session_index": recording.session_index,
        "label": recording.label,
        "sampling_rate_hz": recording.sampling_rate_hz,
        "data_file": data_name,
    }
    if recording.montage is not None:
        manifest["montage"] = recording.montage
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

    label: str
    band: str
    amplitude: float
    channels_affected: tuple | None = None  # None -> every montage channel
    noise_sigma: float = 0.0
    frequency_hz: float | None = None  # None -> drawn uniformly inside the band


# `SynthSpec.default`: delta noise sigma, AD and NonAD alpha amplitudes
_NOISE_SIGMA, _AD_ALPHA, _NS_ALPHA = 0.35, 0.45, 1.1


def _check_keys(what: str, obj, written: dict) -> None:
    """Reject a non-object, or a misspelled key that would take its default."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} is not a JSON object")
    unknown = sorted(set(obj) - set(written))
    if unknown:
        raise ValueError(f"unknown {what} key(s) {unknown}; expected some of {list(written)}")


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
        object.__setattr__(self, "channel_labels", tuple(self.channel_labels))
        object.__setattr__(self, "profiles", tuple(self.profiles))
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
        if not 0 < self.duration_seconds < np.inf:
            raise ValidationError(f"duration_seconds must be positive and finite, "
                                  f"got {self.duration_seconds!r}")
        if not _MIN_SAMPLING_RATE < self.sampling_rate_hz < np.inf:
            raise ValidationError(f"sampling_rate_hz must be finite and above "
                                  f"{_MIN_SAMPLING_RATE}, got {self.sampling_rate_hz!r}")
        for p in self.profiles:
            if p.label not in LABELS:
                raise ValidationError(f"profile class {p.label!r} unknown")
            band_by_name(p.band)  # raises for unknown band names
            if not 0 <= p.amplitude < np.inf:
                raise ValidationError(f"amplitude must be >= 0 and finite, "
                                      f"got {p.amplitude!r} for band {p.band}")
            if not 0 <= p.noise_sigma < np.inf:
                raise ValidationError(f"noise_sigma must be >= 0 and finite, "
                                      f"got {p.noise_sigma!r} for band {p.band}")
            if p.frequency_hz is not None and not -np.inf < p.frequency_hz < np.inf:
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
        channel_labels = tuple(channel_labels)
        affected = tuple(alpha_affected) if alpha_affected is not None else channel_labels
        rest = tuple(c for c in channel_labels if c not in affected)
        profiles = []
        for label in LABELS:
            profiles += [
                BandProfile(label, "delta", 0.9, None, _NOISE_SIGMA),
                BandProfile(label, "theta", 0.8, None, 0.0),
                BandProfile(label, "beta", 0.7, None, 0.0),
            ]
            alpha_amp = _AD_ALPHA if label == "AD" else _NS_ALPHA
            profiles.append(BandProfile(label, "alpha", alpha_amp, affected, 0.0))
            if rest:
                profiles.append(BandProfile(label, "alpha", _NS_ALPHA, rest, 0.0))
        return cls(subjects=dict(subjects or {"AD": 5, "NonAD": 6}),
                   channel_labels=channel_labels, profiles=tuple(profiles))

    def to_json(self) -> dict:
        return {
            "subjects": dict(self.subjects),
            "sessions_per_subject": self.sessions_per_subject,
            "channel_labels": list(self.channel_labels),
            "duration_seconds": self.duration_seconds,
            "sampling_rate_hz": self.sampling_rate_hz,
            "profiles": [
                {"class": p.label, "band": p.band, "amplitude": p.amplitude,
                 "channels_affected": (list(p.channels_affected)
                                       if p.channels_affected is not None else None),
                 "noise_sigma": p.noise_sigma, "frequency_hz": p.frequency_hz}
                for p in self.profiles
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "SynthSpec":
        written = cls.default().to_json()
        _check_keys("spec", obj, written)
        for p in obj.get("profiles", ()):
            _check_keys("profile", p, written["profiles"][0])
        profiles = tuple(
            BandProfile(label=p["class"], band=p["band"], amplitude=p["amplitude"],
                        channels_affected=(tuple(p["channels_affected"])
                                           if p.get("channels_affected") is not None else None),
                        noise_sigma=p.get("noise_sigma", 0.0),
                        frequency_hz=p.get("frequency_hz"))
            for p in obj.get("profiles", ()))
        return cls(subjects=dict(obj["subjects"]),
                   sessions_per_subject=obj.get("sessions_per_subject", 6),
                   channel_labels=tuple(obj.get("channel_labels", STANDARD_MONTAGE_19)),
                   duration_seconds=obj.get("duration_seconds", 40.0),
                   sampling_rate_hz=obj.get("sampling_rate_hz", 250.0),
                   profiles=profiles)


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
