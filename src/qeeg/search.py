"""Exhaustive channel-subset search: every 4-channel combination in every
order, one classification trial each.

Trials are indexed by deterministic enumeration position (combinations in
lexicographic montage order, the 24 orderings of each in lexicographic
order), so result files are identical for any parallelism degree.
Per-trial failures become marked-invalid rows; they never abort the search.

Only 8 of a combination's 24 orders are evaluated: the first member of each
i -> j -> k rotation class (`pipeline.rotation_classes`, which gives the
symmetry argument).  Its row is copied to the other two members, each with
its own trial index and permutation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import combinations, permutations

import numpy as np

from .errors import ParameterError
from .pipeline import (FeatureCache, PipelineParams, evaluate_quadruple,
                       rotation_classes)
from .pool import worker_pool

__all__ = [
    "TrialResult", "CombinationSummary", "LOBE_GROUPS", "lobe_of",
    "enumerate_channel_tuples", "count_tuples", "run_search", "summarize", "rank",
]

# 10/20 lobe assignment; unlisted electrodes take their mirror's group
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
    valid: bool
    error: str | None = None


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


# worker-global context set once per process; avoids re-pickling per chunk
_CTX: dict | None = None


def _init_worker(ctx: dict) -> None:
    """Pool initializer: the search context."""
    global _CTX
    _CTX = ctx


def _run_class(perm) -> TrialResult:
    """Pool task: the row of one rotation class, in the worker's context."""
    return _run_one(_CTX, perm)


def _run_one(ctx: dict, perm) -> TrialResult:
    """The row of `perm`'s rotation class; `run_search` gives each member
    its own trial index and permutation."""
    try:
        outcome = evaluate_quadruple(ctx["cache"], ctx["train_keys"], ctx["test_keys"],
                                     perm, ctx["band"], ctx["params"])
        return TrialResult(trial_index=-1, permutation=perm, band=ctx["band"],
                           p_used=outcome.p_used, acc=outcome.acc, sen=outcome.sen,
                           spe=outcome.spe, valid=True)
    except Exception as exc:  # noqa: BLE001 - per-trial failures become rows
        return TrialResult(trial_index=-1, permutation=perm, band=ctx["band"],
                           p_used=None, acc=None, sen=None, spe=None, valid=False,
                           error=f"{type(exc).__name__}: {exc}")


def run_search(cache: FeatureCache, train_keys, test_keys, band: str,
               params: PipelineParams, parallelism: int = 1):
    """All ordered 4-channel trials; returns (trial results, summaries)."""
    if parallelism < 1:
        raise ParameterError(f"parallelism must be >= 1, got {parallelism}")
    perms = list(enumerate_channel_tuples(cache.channels, 4, ordered=True))
    firsts, classes = rotation_classes(perms)
    ctx = {"cache": cache, "train_keys": list(train_keys),
           "test_keys": list(test_keys), "band": band, "params": params}
    if parallelism == 1:
        rows = [_run_one(ctx, perm) for perm in firsts]
    else:
        # eight chunks per worker balance the load at one pickle per chunk
        chunk = math.ceil(len(firsts) / (8 * parallelism))
        with worker_pool(parallelism, _init_worker, (ctx,)) as pool:
            rows = list(pool.map(_run_class, firsts, chunksize=chunk))
    results = [replace(rows[c], trial_index=i, permutation=perm)
               for i, (perm, c) in enumerate(zip(perms, classes))]
    return results, summarize(results, cache.channels)


def summarize(results, montage) -> list:
    """Per-combination aggregates over its k! orderings (invalid rows are
    excluded from means and counted)."""
    montage_pos = {c: i for i, c in enumerate(montage)}
    groups: dict = {}
    for r in results:
        combo = tuple(sorted(r.permutation, key=montage_pos.__getitem__))
        groups.setdefault(combo, []).append(r)

    summaries = []
    for combo in sorted(groups, key=lambda c: tuple(montage_pos[x] for x in c)):
        rows = groups[combo]
        valid = [r for r in rows if r.valid]
        mean_of = lambda field: (float(np.mean([getattr(r, field) for r in valid]))
                                 if valid else None)
        best = max(valid, key=lambda r: (r.acc, -r.trial_index), default=None)
        summaries.append(CombinationSummary(
            combination=combo, band=rows[0].band,
            mean_acc=mean_of("acc"), mean_sen=mean_of("sen"), mean_spe=mean_of("spe"),
            best_permutation=best.permutation if best else None,
            best_acc=best.acc if best else None,
            n_trials=len(rows), n_invalid=len(rows) - len(valid)))
    return summaries


def rank(summaries) -> dict:
    """Summaries sorted by descending mean accuracy (ties lexicographic by
    combination), annotated with 10/20 lobe groups."""
    if not summaries:
        raise ParameterError("nothing to rank: empty summary list")
    key = lambda s: (-(s.mean_acc if s.mean_acc is not None else -1.0), s.combination)
    ordered = sorted(summaries, key=key)
    entries = []
    for s in ordered:
        entries.append({
            "combination": list(s.combination),
            "lobes": sorted({lobe_of(c) for c in s.combination if lobe_of(c)}),
            "mean_acc": s.mean_acc, "mean_sen": s.mean_sen, "mean_spe": s.mean_spe,
            "best_permutation": list(s.best_permutation) if s.best_permutation else None,
            "best_acc": s.best_acc,
            "n_invalid": s.n_invalid,
        })
    return {"band": summaries[0].band, "n_combinations": len(entries),
            "n_invalid_total": sum(s.n_invalid for s in summaries),
            "ranked": entries}
