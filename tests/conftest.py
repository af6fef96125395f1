"""Shared fixtures: a small synthetic dataset with an alpha-band class
difference, featurized once per session."""
import pytest

from qeeg.dataset import SynthSpec, session_split_keys, synthesize_dataset
from qeeg.pipeline import FeatureCache

MONTAGE5 = ("F7", "F8", "T7", "T8", "P4")
AFFECTED5 = ("F8", "T7", "T8")


@pytest.fixture(scope="session")
def small_dataset():
    spec = SynthSpec.default(channel_labels=MONTAGE5, alpha_affected=AFFECTED5,
                             subjects={"AD": 2, "NonAD": 2})
    spec = SynthSpec(subjects=spec.subjects, sessions_per_subject=6,
                     channel_labels=spec.channel_labels, duration_seconds=10.0,
                     sampling_rate_hz=200.0, profiles=spec.profiles)
    return synthesize_dataset(spec, seed=7)




@pytest.fixture(scope="session")
def small_cache(small_dataset):
    return FeatureCache.from_recordings(small_dataset, 1.0)


@pytest.fixture(scope="session")
def small_keys(small_dataset):
    return session_split_keys(r.key() for r in small_dataset)


def synthetic_cache(rng, channels=("A", "B", "C", "D", "E"), n_keys=12,
                    n_segments=8, constant_channels=()):
    """Hand-built FeatureCache with uniform-random band powers; channels in
    `constant_channels` are constant 0.25 everywhere (degenerate for QPCA)."""
    from qeeg.spectral import BAND_NAMES

    keys = tuple((f"S{i:02d}", 1 + i % 6) for i in range(n_keys))
    labels = {k: ("AD" if i % 2 == 0 else "NonAD") for i, k in enumerate(keys)}
    values = {}
    for k in keys:
        arr = rng.uniform(0.05, 0.95, (len(channels), len(BAND_NAMES), n_segments))
        for c in constant_channels:
            arr[channels.index(c)] = 0.25
        values[k] = arr
    return FeatureCache(segment_seconds=1.0, channels=tuple(channels),
                        bands=BAND_NAMES, keys=tuple(sorted(keys)),
                        labels=labels, values=values)
