"""Output checks for the benchmark workloads.

Every check compares the files a qeeg command wrote against a property the
method must have, or against a computation made here without the program's
code; none compares against a stored copy of earlier output.  A check
returns a `Verdict`: the operations it saw, the ones that failed, and the
problems that make the run incorrect.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from itertools import combinations, permutations
from pathlib import Path

import numpy as np

BANDS = ("delta", "theta", "alpha", "beta")
CLASSES = ("AD", "NonAD")
SEARCH_FILES = ("search_results.csv", "search_summary.csv", "search_ranked.json")
ROTATION_TOL = 1e-12
RECOMPUTE_TOL = 1e-9
RECOMPUTE_PER_BAND = 8


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def require(self, ok: bool, message: str) -> bool:
        if not ok:
            self.problems.append(message)
        return ok


@dataclass(frozen=True)
class Layout:
    """What the checks need to know about the generated dataset."""

    montage: tuple
    reduced_alpha: tuple
    n_ad: int          # AD subjects; one test session each
    n_nonad: int
    n_segments: int
    p_sweep_limit: int = 20


def rotations(perm):
    """The rotation class of an ordered quadruple: channels 2 -> 3 -> 4."""
    a, b, c, d = perm
    return ((a, b, c, d), (a, d, b, c), (a, c, d, b))


def _payload_csv(path: Path, verdict: Verdict):
    """Rows of a checksummed CSV output, checksum verified."""
    config_line, checksum_line, payload = path.read_text().split("\n", 2)
    digest = hashlib.sha256(payload.encode()).hexdigest()
    verdict.require(config_line.startswith("# config: ")
                    and checksum_line == f"# checksum: {digest}",
                    f"{path.name}: checksum line does not match the payload")
    lines = payload.splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(",", len(header) - 1))) for ln in lines[1:]]


def _payload_json(path: Path, verdict: Verdict):
    doc = json.loads(path.read_text())
    digest = hashlib.sha256(json.dumps(doc["data"], sort_keys=True).encode()).hexdigest()
    verdict.require(doc.get("checksum") == digest,
                    f"{path.name}: checksum does not match the data")
    return doc["data"]


def _num(text):
    return None if text == "" else float(text)


# -- search -----------------------------------------------------------------


def check_search(out: Path, layout: Layout) -> Verdict:
    """Checks of `qeeg search` outputs; trials in rotation classes whose
    members disagree on acc or p_used count as failed."""
    v = Verdict()
    rows = _payload_csv(out / "search_results.csv", v)
    montage = layout.montage
    expected = [perm for combo in combinations(montage, 4) for perm in permutations(combo)]
    v.attempted = len(expected)
    if not v.require(len(rows) == len(expected),
                     f"search_results.csv has {len(rows)} rows, expected {len(expected)}"):
        return v

    n_test = layout.n_ad + layout.n_nonad
    p_max = min(layout.p_sweep_limit, layout.n_segments, 5 * n_test)
    by_perm = {}
    for index, (row, perm) in enumerate(zip(rows, expected)):
        got = (row["ch1"], row["ch2"], row["ch3"], row["ch4"])
        if not v.require(row["trial_index"] == str(index) and got == perm,
                         f"row {index} is {row['trial_index']} {got}, expected {perm}"):
            return v
        v.require(row["band"] == "alpha", f"row {index}: band {row['band']}")
        by_perm[perm] = row
        if row["valid"] != "1":
            continue
        acc, sen, spe = _num(row["acc"]), _num(row["sen"]), _num(row["spe"])
        tp, tn = sen * layout.n_ad / 100, spe * layout.n_nonad / 100
        v.require(abs(tp - round(tp)) < 1e-9 and abs(tn - round(tn)) < 1e-9
                  and abs(acc - 100 * (round(tp) + round(tn)) / n_test) < 1e-9,
                  f"row {index}: acc {acc} sen {sen} spe {spe} are not counts over "
                  f"{layout.n_ad} AD and {layout.n_nonad} NonAD test sessions")
        v.require(1 <= int(row["p_used"]) <= p_max,
                  f"row {index}: p_used {row['p_used']} outside 1..{p_max}")

    for perm, row in by_perm.items():
        seen = {(by_perm[r]["valid"], by_perm[r]["acc"], by_perm[r]["p_used"])
                for r in rotations(perm)}
        if row["valid"] != "1" or len(seen) > 1:
            v.failed += 1

    means = _check_summaries(out, rows, montage, v)
    _check_reduced_alpha(means, layout, v)
    return v


def _check_summaries(out: Path, rows, montage, v: Verdict) -> dict:
    """Recompute the per-combination summary and the ranking from the rows."""
    position = {c: i for i, c in enumerate(montage)}
    groups = {}
    for index, row in enumerate(rows):
        perm = (row["ch1"], row["ch2"], row["ch3"], row["ch4"])
        combo = tuple(sorted(perm, key=position.__getitem__))
        groups.setdefault(combo, []).append((index, perm, row))

    expected = {}
    for combo, members in groups.items():
        valid = [(i, p, r) for i, p, r in members if r["valid"] == "1"]
        mean = {f: (math.fsum(float(r[f]) for _, _, r in valid) / len(valid)
                    if valid else None) for f in ("acc", "sen", "spe")}
        best = max(valid, key=lambda m: (float(m[2]["acc"]), -m[0]), default=None)
        expected[combo] = {"mean": mean, "best": best[1] if best else None,
                           "best_acc": float(best[2]["acc"]) if best else None,
                           "n_trials": len(members),
                           "n_invalid": len(members) - len(valid)}

    def close(a, b):
        return (a is None and b is None) or (
            a is not None and b is not None and abs(a - b) <= 1e-9 * max(1.0, abs(b)))

    summary = _payload_csv(out / "search_summary.csv", v)
    combos = list(combinations(montage, 4))
    if v.require([tuple(s["combination"].split("|")) for s in summary] == combos,
                 "search_summary.csv combinations are not in montage order"):
        for s, combo in zip(summary, combos):
            e = expected[combo]
            ok = (all(close(_num(s[f"mean_{f}"]), e["mean"][f]) for f in ("acc", "sen", "spe"))
                  and s["best_permutation"] == "|".join(e["best"] or ())
                  and close(_num(s["best_acc"]), e["best_acc"])
                  and s["n_trials"] == str(e["n_trials"])
                  and s["n_invalid"] == str(e["n_invalid"]))
            v.require(ok, f"search_summary.csv row {s['combination']} disagrees with the rows")

    ranked = _payload_json(out / "search_ranked.json", v)
    entries = ranked["ranked"]
    order = [(-(e["mean_acc"] if e["mean_acc"] is not None else -1.0), tuple(e["combination"]))
             for e in entries]
    v.require(order == sorted(order) and len(entries) == len(combos),
              "search_ranked.json is not every combination by descending mean_acc")
    v.require(ranked["n_combinations"] == len(combos)
              and ranked["n_invalid_total"] == sum(e["n_invalid"] for e in expected.values()),
              "search_ranked.json totals disagree with the rows")
    for entry in entries:
        e = expected.get(tuple(entry["combination"]))
        ok = e is not None and close(entry["mean_acc"], e["mean"]["acc"]) \
            and entry["best_permutation"] == (list(e["best"]) if e["best"] else None) \
            and close(entry["best_acc"], e["best_acc"])
        v.require(ok, f"search_ranked.json entry {entry['combination']} disagrees with the rows")
    return {combo: e["mean"]["acc"] for combo, e in expected.items()}


def _check_reduced_alpha(means: dict, layout: Layout, v: Verdict) -> None:
    """The reduced-alpha combination separates the classes, and better than
    the combinations that hold the fewest reduced-alpha channels."""
    reduced = set(layout.reduced_alpha)
    target = tuple(c for c in layout.montage if c in reduced)
    fewest = min(len(reduced.intersection(c)) for c in means)
    others = [c for c in means if len(reduced.intersection(c)) == fewest]
    acc = means.get(target)
    v.require(acc is not None and acc >= 90.0,
              f"reduced-alpha combination {target} mean acc {acc}, expected >= 90")
    for combo in others:
        v.require(acc is not None and means[combo] is not None and acc > means[combo],
                  f"reduced-alpha combination {target} ({acc}) does not beat "
                  f"{combo} ({means[combo]})")


def same_bytes(out: Path, reference: Path, names, v: Verdict, what: str) -> None:
    for name in names:
        v.require((out / name).read_bytes() == (reference / name).read_bytes(),
                  f"{name} differs from {what}")


# -- connectivity -------------------------------------------------------------


def check_connectivity(out: Path, cache_csv: Path, layout: Layout) -> Verdict:
    """Checks of `qeeg connectivity --mode quadruple` outputs; one operation
    is one (tuple, band) measurement."""
    v = Verdict()
    tuples = list(permutations(layout.montage, 4))
    v.attempted = len(tuples) * len(BANDS)

    report = _payload_json(out / "distance_report.json", v)
    if not v.require([tuple(t) for t in report["tuples"]] == tuples
                     and report["bands"] == list(BANDS)
                     and report["skipped"] == {b: 0 for b in BANDS},
                     "distance_report.json does not hold every ordered tuple in every band"):
        return v
    index = {t: i for i, t in enumerate(tuples)}
    means = {b: {c: np.asarray(report["class_means"][b][c]) for c in CLASSES} for b in BANDS}
    for band in BANDS:
        dist = np.asarray(report["dist"][band])
        v.require(np.allclose(dist, np.abs(means[band]["NonAD"] - means[band]["AD"]),
                              rtol=0, atol=ROTATION_TOL)
                  and abs(report["mean_dist"][band] - dist.mean()) <= ROTATION_TOL,
                  f"{band}: Dist is not |mean NonAD - mean AD|")
        for label in CLASSES:
            doc = _payload_json(out / f"tensor_{band}_{label}.json", v)
            entries = {tuple(e["channels"]): e["value"] for e in doc["entries"]}
            if not v.require(len(doc["entries"]) == len(tuples) and set(entries) == set(tuples)
                             and doc["skipped_tuples"] == 0 and doc["band"] == band
                             and doc["class"] == label,
                             f"tensor_{band}_{label}.json is not one entry per ordered tuple"):
                continue
            values = np.array([entries[t] for t in tuples])
            v.require(np.allclose(values, means[band][label], rtol=0, atol=ROTATION_TOL),
                      f"tensor_{band}_{label}.json differs from the report's class means")
            spread = max(abs(values[index[r]] - values[i])
                         for i, t in enumerate(tuples) for r in rotations(t))
            v.require(spread <= ROTATION_TOL,
                      f"{band} {label}: rotation class measures differ by {spread:.3g}")

    alpha = report["mean_dist"]["alpha"]
    v.require(all(alpha > report["mean_dist"][b] for b in BANDS if b != "alpha"),
              f"alpha mean Dist {alpha} does not exceed every other band: {report['mean_dist']}")

    features = read_feature_cache(cache_csv)
    sample = tuples[::max(1, len(tuples) // RECOMPUTE_PER_BAND)][:RECOMPUTE_PER_BAND]
    for band in BANDS:
        for t in sample:
            got = recompute_class_means(features, t, band)
            for label in CLASSES:
                err = abs(got[label] - means[band][label][index[t]])
                v.require(err <= RECOMPUTE_TOL,
                          f"{band} {t} {label}: class mean differs from the recomputation by {err:.3g}")
    return v


def read_feature_cache(path: Path) -> dict:
    """{(subject, session): (label, {channel: {band: values by segment}})}."""
    out = {}
    lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    for ln in lines[1:]:
        subject, session, label, channel, band, segment, value = ln.split(",")
        rec = out.setdefault((subject, int(session)), (label, {}))[1]
        rec.setdefault(channel, {}).setdefault(band, {})[int(segment)] = float(value)
    return {key: (label, {ch: {b: np.array([vals[s] for s in sorted(vals)])
                               for b, vals in bands.items()}
                           for ch, bands in chans.items()})
            for key, (label, chans) in out.items()}


def recompute_class_means(features: dict, channels, band: str) -> dict:
    """Class means of the first-component mean projection, computed apart
    from the program: training sessions (1-5), quaternion rows
    w + x i + y j + z k from the four channels, covariance through its
    complex adjoint, the leading eigenvector from `numpy.linalg.eigh`
    phased so that its largest-norm entry is positive real."""
    keys = sorted(k for k in features if k[1] <= 5)
    rows = np.array([[features[k][1][c][band] for c in channels] for k in keys])
    a = rows[:, 0] + 1j * rows[:, 1]           # q = a + b j, a = w + x i, b = y + z i
    b = rows[:, 2] + 1j * rows[:, 3]
    a = a - a.mean(axis=0)
    b = b - b.mean(axis=0)
    chi = np.block([[a, b], [-b.conj(), a.conj()]])
    _, vecs = np.linalg.eigh(chi.conj().T @ chi / len(keys))
    n = a.shape[1]
    top = vecs[:, -1]
    c, d = top[:n], -top[n:].conj()            # eigenvector u = c + d j
    k = int(np.argmax(np.abs(c) ** 2 + np.abs(d) ** 2))
    norm = math.sqrt(abs(c[k]) ** 2 + abs(d[k]) ** 2)
    sc, sd = c[k].conj() / norm, -d[k] / norm  # conj(u_k) / |u_k|
    c, d = c * sc - d * np.conj(sd), c * sd + d * np.conj(sc)
    # (a + b j)(c + d j) = (ac - b conj(d)) + (ad + b conj(c)) j, summed over segments
    pa = a @ c - b @ d.conj()
    pb = a @ d + b @ c.conj()
    measure = (pa.real + pa.imag + pb.real + pb.imag) / 4
    labels = [features[k][0] for k in keys]
    return {label: float(np.mean([m for m, l in zip(measure, labels) if l == label]))
            for label in CLASSES}
