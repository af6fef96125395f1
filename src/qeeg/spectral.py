"""Segmentation and relative band power features.

Recordings are cut into non-overlapping segments of fixed duration and a
Hann-windowed periodogram is computed per segment.  Relative band power is
the in-band power divided by the total power over 1-30 Hz; with the default
band partition (delta 1-4, theta 4-8, alpha 8-13, beta 13-30, half-open
intervals) the four values sum to one for every segment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import DegenerateDataError, ParameterError

if TYPE_CHECKING:  # pragma: no cover
    from .dataset import EegRecording

__all__ = [
    "BandDefinition", "DEFAULT_BANDS", "BAND_NAMES",
    "band_by_name", "samples_per_segment", "segment", "relative_band_power",
    "band_power_matrix",
]

TOTAL_LOW_HZ = 1.0
TOTAL_HIGH_HZ = 30.0


@dataclass(frozen=True)
class BandDefinition:
    """Half-open frequency band [low_hz, high_hz)."""

    name: str
    low_hz: float
    high_hz: float

    def __post_init__(self):
        if not self.low_hz < self.high_hz:
            raise ParameterError(f"band {self.name}: low {self.low_hz} >= high {self.high_hz}")


# conventional EEG mapping; the bands tile [1, 30) exactly
DEFAULT_BANDS = (
    BandDefinition("delta", 1.0, 4.0),
    BandDefinition("theta", 4.0, 8.0),
    BandDefinition("alpha", 8.0, 13.0),
    BandDefinition("beta", 13.0, 30.0),
)
BAND_NAMES = tuple(b.name for b in DEFAULT_BANDS)
_BANDS_BY_NAME = {b.name: b for b in DEFAULT_BANDS}


def band_by_name(name: str) -> BandDefinition:
    try:
        return _BANDS_BY_NAME[name]
    except KeyError:
        raise ParameterError(f"unknown band {name!r}; expected one of {BAND_NAMES}") from None


def samples_per_segment(segment_seconds: float, sampling_rate_hz: float) -> int:
    """Samples in one segment; must come out integral."""
    if not 0 < segment_seconds < np.inf:
        raise ParameterError(
            f"segment_seconds must be positive and finite, got {segment_seconds}")
    exact = segment_seconds * sampling_rate_hz
    n = round(exact) if exact < np.inf else 0
    if n < 2 or abs(exact - n) > 1e-9 * max(1.0, abs(exact)):
        raise ParameterError(
            f"segment of {segment_seconds}s at {sampling_rate_hz}Hz gives "
            f"{exact} samples; need an integer >= 2")
    return int(n)


def segment(recording: "EegRecording", segment_seconds: float) -> np.ndarray:
    """Cut into non-overlapping segments, shape (channels, n_segments, samples).

    A trailing partial segment is discarded.
    """
    n_seg_samples = samples_per_segment(segment_seconds, recording.sampling_rate_hz)
    total = recording.samples.shape[1]
    n_segments = total // n_seg_samples
    if n_segments < 1:
        raise ParameterError(
            f"segment of {n_seg_samples} samples longer than recording of {total}")
    used = n_segments * n_seg_samples
    return recording.samples[:, :used].reshape(
        recording.samples.shape[0], n_segments, n_seg_samples)


def _periodogram(segments: np.ndarray, sampling_rate_hz: float):
    """One-sided Hann periodogram (power spectral density) along the last
    axis; frequencies built as k*fs/n to keep band-edge comparisons exact
    for integral bin spacing.

    The operation order is kept step for step from the reference
    periodogram that the test suite compares against, so feature values
    stay bit-identical: the periodic window from the cosine series, the
    scale summed by the builtin sum and applied as 1/sqrt(sum/(1/fs)), the
    power as re**2 + im**2, and the one-sided doubling as its own multiply.
    Shorter algebraic forms of the same scaling change the last bits."""
    n = segments.shape[-1]
    win = (0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, n + 1)))[:-1]
    win = win * (1 / np.sqrt(sum(win ** 2) / (1 / sampling_rate_hz)))
    spec = np.fft.rfft(segments * win, axis=-1)
    psd = spec.real ** 2 + spec.imag ** 2
    psd[..., 1:None if n % 2 else -1] *= 2  # no Nyquist bin for odd n
    freqs = np.arange(psd.shape[-1]) * sampling_rate_hz / n
    return freqs, psd


def _band_fractions(psd: np.ndarray, freqs: np.ndarray, bands,
                    channels=None) -> np.ndarray:
    """Stack of in-band power fractions, shape bands x psd.shape[:-1].
    `channels` names the rows of a (channels, segments, frequencies) psd in
    the error for a segment without power."""
    total_mask = (freqs >= TOTAL_LOW_HZ) & (freqs < TOTAL_HIGH_HZ)
    total = psd[..., total_mask].sum(axis=-1)
    if np.any(total <= 0):
        where = ""
        if channels is not None:
            ci, si = np.argwhere(total <= 0)[0].tolist()
            where = f" at channel {channels[ci]!r}, segment {si}"
        raise DegenerateDataError(
            f"zero total spectral power in 1-30 Hz{where} (dead channel or dropout)")
    out = []
    for band in bands:
        mask = (freqs >= band.low_hz) & (freqs < band.high_hz)
        out.append(np.minimum(psd[..., mask].sum(axis=-1) / total, 1.0))
    return np.stack(out, axis=0)


def relative_band_power(segment_values: np.ndarray, sampling_rate_hz: float,
                        band: BandDefinition) -> float:
    """In-band power divided by total 1-30 Hz power for one segment."""
    seg = np.asarray(segment_values, dtype=np.float64)
    if seg.ndim != 1 or seg.size < 2:
        raise ParameterError(f"segment must be a 1-D array of >= 2 samples, got shape {seg.shape}")
    freqs, psd = _periodogram(seg, sampling_rate_hz)
    return float(_band_fractions(psd, freqs, (band,))[0])


def band_power_matrix(recording: "EegRecording", segment_seconds: float,
                      bands=DEFAULT_BANDS) -> np.ndarray:
    """Relative band powers, shape (channels, len(bands), n_segments)."""
    segs = segment(recording, segment_seconds)
    freqs, psd = _periodogram(segs, recording.sampling_rate_hz)
    try:
        fractions = _band_fractions(psd, freqs, bands,  # (bands, channels, segments)
                                    recording.channel_labels)
    except DegenerateDataError as exc:
        raise DegenerateDataError(f"{recording.subject_id} s{recording.session_index}: {exc}") from None
    return np.ascontiguousarray(np.moveaxis(fractions, 0, 1))

