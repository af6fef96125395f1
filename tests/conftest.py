"""Shared fixtures: a small synthetic dataset with an alpha-band class
difference, featurized once per session, and a stand-in core count for
`qeeg.pool.ordered_map`."""
import concurrent.futures

import numpy as np
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


@pytest.fixture
def pool_workers(monkeypatch):
    """`pool_workers(cores, in_process=False)` gives `qeeg.pool` `cores`
    usable cores and returns the list that then records the size of every
    pool `ordered_map` starts.  The pool runs in worker processes, or with
    `in_process` in this process, where the worker's context is set as
    `_CONTEXT` without the worker initializer, which would pin this
    process's BLAS."""
    from qeeg import pool

    real = concurrent.futures.ProcessPoolExecutor

    def use(cores, in_process=False):
        sizes = []

        class Recorded(real):
            def __init__(self, max_workers, initializer, initargs):
                sizes.append(max_workers)
                super().__init__(max_workers, initializer=initializer, initargs=initargs)

        class InProcess:
            def __init__(self, max_workers, initializer, initargs):
                sizes.append(max_workers)
                monkeypatch.setattr(pool, "_CONTEXT", *initargs)

            def map(self, fn, items, chunksize):
                return map(fn, items)

            def shutdown(self, cancel_futures):
                pass

        monkeypatch.setattr(pool, "usable_cores", lambda: cores)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            InProcess if in_process else Recorded)
        return sizes

    return use


def synthetic_cache(rng, channels=("A", "B", "C", "D", "E"), n_keys=12,
                    n_segments=8, constant_channels=()):
    """Hand-built FeatureCache with uniform-random band powers; channels in
    `constant_channels` are constant 0.25 everywhere (degenerate for QPCA)."""
    from qeeg.spectral import BAND_NAMES

    keys = tuple((f"S{i:02d}", 1 + i % 6) for i in range(n_keys))
    labels = {k: ("AD" if i % 2 == 0 else "NonAD") for i, k in enumerate(keys)}
    grid = np.stack([rng.uniform(0.05, 0.95, (len(channels), len(BAND_NAMES), n_segments))
                     for _ in keys])
    for c in constant_channels:
        grid[:, channels.index(c)] = 0.25
    return FeatureCache(segment_seconds=1.0, channels=tuple(channels),
                        keys=keys, labels=labels, grid=grid)
