"""Exhaustive channel-subset search: every 4-channel combination in every
order, one classification trial each.

Trials are indexed by deterministic enumeration position (combinations in
lexicographic montage order, the 24 orderings of each in lexicographic
order), so result files are identical for any parallelism degree.
Per-trial failures become marked-invalid rows; they never abort the search.

Only 8 of a combination's 24 orders are evaluated: the first member of each
i -> j -> k rotation class (`pipeline.rotation_classes`, which gives the
symmetry argument).  Its scores make each member's row once, with the
member's own trial index and permutation.  A combination's 24 rows are one
block, led by the combination in montage order, and `summarize` reads them so.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, permutations

import numpy as np

from .errors import ParameterError
from .pipeline import (FeatureCache, PipelineParams, evaluate_quadruple,
                       rotation_classes)
from .pool import ordered_map

__all__ = [
    "TrialResult", "CombinationSummary", "LOBE_GROUPS", "lobe_of",
    "enumerate_channel_tuples", "count_tuples", "run_search", "summarize", "rank",
]

# 10/20 lobe assignment; an unlisted electrode has no lobe.  C3, Cz and C4,
# central in the 10-20 system, count as parietal here, and `rank` breaks
# mean_acc ties by combination name (the montage-ordered tuple).
LOBE_GROUPS = {
    "frontal": ("Fp1", "Fp2", "F3", "F4", "Fz"),
    "temporal": ("F7", "F8", "T7", "T8", "P7", "P8"),
    "parietal": ("C3", "Cz", "C4", "P3", "Pz", "P4"),
    "occipital": ("O1", "O2"),
}
_LOBE_BY_CHANNEL = {ch: lobe for lobe, chs in LOBE_GROUPS.items() for ch in chs}


def lobe_of(channel: str) -> str | None:
    return _LOBE_BY_CHANNEL.get(channel)


def enumerate_channel_tuples(montage, k: int, ordered: bool):
    """Lazy deterministic enumeration of k-channel subsets of the montage."""
    montage = tuple(montage)
    if k > len(montage):
        raise ParameterError(f"k={k} exceeds montage size {len(montage)}")
    if ordered:
        return (perm for combo in combinations(montage, k)
                for perm in permutations(combo))
    return combinations(montage, k)


def count_tuples(n: int, k: int, ordered: bool) -> int:
    if k > n:
        raise ParameterError(f"k={k} exceeds montage size {n}")
    c = math.comb(n, k)
    return c * math.factorial(k) if ordered else c


@dataclass(frozen=True)
class TrialResult:
    trial_index: int
    permutation: tuple
    band: str
    p_used: int | None
    acc: float | None
    sen: float | None
    spe: float | None
    error: str | None = None

    @property
    def valid(self) -> bool:
        return self.error is None


@dataclass(frozen=True)
class CombinationSummary:
    combination: tuple  # montage order
    band: str
    mean_acc: float | None
    mean_sen: float | None
    mean_spe: float | None
    best_permutation: tuple | None
    best_acc: float | None
    n_trials: int
    n_invalid: int


def _run_one(ctx: dict, perm) -> tuple:
    """(p_used, acc, sen, spe, error) of `perm`'s rotation class."""
    try:
        outcome = evaluate_quadruple(ctx["cache"], ctx["train_keys"], ctx["test_keys"],
                                     perm, ctx["band"], ctx["params"])
        return outcome.p_used, outcome.acc, outcome.sen, outcome.spe, None
    except Exception as exc:  # noqa: BLE001 - per-trial failures become rows
        return None, None, None, None, f"{type(exc).__name__}: {exc}"


def run_search(cache: FeatureCache, train_keys, test_keys, band: str,
               params: PipelineParams, parallelism: int = 1):
    """All ordered 4-channel trials; returns (trial results, summaries)."""
    if parallelism < 1:
        raise ParameterError(f"parallelism must be >= 1, got {parallelism}")
    perms = list(enumerate_channel_tuples(cache.channels, 4, ordered=True))
    firsts, classes = rotation_classes(perms)
    ctx = {"cache": cache, "train_keys": list(train_keys),
           "test_keys": list(test_keys), "band": band, "params": params}
    scores = ordered_map(_run_one, firsts, parallelism, ctx)
    results = [TrialResult(i, perm, band, *scores[c])
               for i, (perm, c) in enumerate(zip(perms, classes))]
    return results, summarize(results)


def summarize(results) -> list:
    """Per-combination aggregates over each 24-row block (invalid rows are
    excluded from means and counted; best is the first top accuracy)."""
    summaries = []
    for start in range(0, len(results), 24):
        rows = results[start:start + 24]
        valid = [r for r in rows if r.valid]
        mean_of = lambda field: (float(np.mean([getattr(r, field) for r in valid]))
                                 if valid else None)
        best = max(valid, key=lambda r: r.acc, default=None)
        summaries.append(CombinationSummary(
            combination=rows[0].permutation, band=rows[0].band,
            mean_acc=mean_of("acc"), mean_sen=mean_of("sen"), mean_spe=mean_of("spe"),
            best_permutation=best.permutation if best else None,
            best_acc=best.acc if best else None,
            n_trials=len(rows), n_invalid=len(rows) - len(valid)))
    return summaries


def rank(summaries) -> dict:
    """Summaries sorted by descending mean accuracy (ties by combination
    name), annotated with the `LOBE_GROUPS` lobes."""
    if not summaries:
        raise ParameterError("nothing to rank: empty summary list")
    key = lambda s: (-(s.mean_acc if s.mean_acc is not None else -1.0), s.combination)
    entries = [{
        "combination": list(s.combination),
        "lobes": sorted({lobe_of(c) for c in s.combination if lobe_of(c)}),
        "mean_acc": s.mean_acc, "mean_sen": s.mean_sen, "mean_spe": s.mean_spe,
        "best_permutation": list(s.best_permutation) if s.best_permutation else None,
        "best_acc": s.best_acc,
        "n_invalid": s.n_invalid,
    } for s in sorted(summaries, key=key)]
    return {"band": summaries[0].band, "n_combinations": len(entries),
            "n_invalid_total": sum(s.n_invalid for s in summaries),
            "ranked": entries}
