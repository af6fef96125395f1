"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criterion 10 needs the clinical dataset prepared in this package's
format; point QEEG_CLINICAL_DATA at the directory to enable it.
"""
import json
import os
import time
from fractions import Fraction

import numpy as np
import pytest

from qeeg.classifier import ConfusionCounts, cross_validate, metrics
from qeeg.baseline import compare
from qeeg.cli import main as cli_main
from qeeg.connectivity import interclass_distance, measure_values
from qeeg.dataset import (EegRecording, SynthSpec, session_split,
                          synthesize_dataset)
from qeeg.pipeline import FeatureCache, PipelineParams, evaluate_quadruple
from qeeg.qlinalg import QuaternionMatrix, qsvd
from qeeg.qpca import fit as qpca_fit, transform
from qeeg.quaternion import I, J, K, ONE, Quaternion
from qeeg.search import count_tuples, run_search
from qeeg.spectral import band_by_name, relative_band_power, segment

MONTAGE8 = ("F7", "F8", "T7", "T8", "P3", "P4", "O1", "O2")
AFFECTED8 = ("F8", "T7", "T8", "P4")
SEED = 2024


def report(criterion, text):
    print(f"\n[ACCEPTANCE {criterion}] PASS: {text}")


# -- 1: quaternion algebra ------------------------------------------------

def test_criterion_1_quaternion_algebra():
    start = time.perf_counter()
    basis = {"1": ONE, "i": I, "j": J, "k": K}
    table = {
        ("1", "1"): ONE, ("1", "i"): I, ("1", "j"): J, ("1", "k"): K,
        ("i", "1"): I, ("i", "i"): -ONE, ("i", "j"): K, ("i", "k"): -J,
        ("j", "1"): J, ("j", "i"): -K, ("j", "j"): -ONE, ("j", "k"): I,
        ("k", "1"): K, ("k", "i"): J, ("k", "j"): -I, ("k", "k"): -ONE,
    }
    for (l, r), want in table.items():
        assert basis[l] * basis[r] == want

    rng = np.random.default_rng(SEED)
    comps = rng.standard_normal((10_000, 3, 4))
    for ca, cb, cc in comps:
        a, b, c = Quaternion(*ca), Quaternion(*cb), Quaternion(*cc)
        ab = a * b
        lhs = ab * c
        rhs = a * (b * c)
        assert (lhs - rhs).norm() <= 1e-12 * max(1.0, lhs.norm())
        conj_lhs = ab.conjugate()
        conj_rhs = b.conjugate() * a.conjugate()
        assert (conj_lhs - conj_rhs).norm() <= 1e-12 * max(1.0, conj_lhs.norm())
        assert abs(ab.norm() - a.norm() * b.norm()) <= 1e-12 * max(1.0, ab.norm())
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"quaternion algebra checks took {elapsed:.2f}s"
    report(1, f"16 basis products exact; associativity, anti-homomorphism, "
              f"norm multiplicativity on 10,000 triples <= 1e-12 ({elapsed:.2f}s)")


# -- 2: QSVD vs complex-adjoint oracle ------------------------------------

def test_criterion_2_qsvd():
    start = time.perf_counter()
    rng = np.random.default_rng(SEED + 1)
    worst_rec, worst_unit, worst_oracle = 0.0, 0.0, 0.0
    for _ in range(200):
        m, n = rng.integers(2, 33, size=2)
        mat = QuaternionMatrix.from_components(*rng.standard_normal((4, m, n)))
        res = qsvd(mat)
        rec = (res.reconstruct() - mat).frobenius_norm() / mat.frobenius_norm()
        eye_m = QuaternionMatrix.identity(m)
        eye_n = QuaternionMatrix.identity(n)
        unit = max((res.u.H @ res.u - eye_m).frobenius_norm(),
                   (res.v.H @ res.v - eye_n).frobenius_norm())
        adjoint = np.block([[mat.w + 1j * mat.x, mat.y + 1j * mat.z],
                            [-(mat.y - 1j * mat.z), mat.w - 1j * mat.x]])
        sv = np.linalg.svd(adjoint, compute_uv=False)
        pairs = sv.reshape(-1, 2)
        scale = max(1.0, sv[0])
        assert np.all(np.abs(pairs[:, 0] - pairs[:, 1]) <= 1e-9 * scale)
        oracle = np.max(np.abs(pairs[:, 0] - res.singular_values)) / scale
        worst_rec = max(worst_rec, rec)
        worst_unit = max(worst_unit, unit)
        worst_oracle = max(worst_oracle, oracle)
        assert rec <= 1e-9 and unit <= 1e-9 and oracle <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"200 QSVDs took {elapsed:.2f}s"
    report(2, f"200 random QSVDs: reconstruction <= {worst_rec:.2e}, unitarity "
              f"<= {worst_unit:.2e}, oracle gap <= {worst_oracle:.2e} ({elapsed:.2f}s)")


# -- 3: band power ---------------------------------------------------------

def test_criterion_3_band_power():
    rng = np.random.default_rng(SEED + 2)
    signals = rng.standard_normal((1000, 250)) + 0.5 * np.sin(
        2 * np.pi * rng.uniform(2, 25, (1000, 1)) * np.arange(250) / 250.0)
    rec = EegRecording("acc", 1, "AD", 250.0, ("C0",),
                       signals.reshape(1, -1))
    from qeeg.spectral import band_power_matrix
    matrix = band_power_matrix(rec, 1.0)[0]  # (4 bands, 1000 segments)
    sums = matrix.sum(axis=0)
    assert np.max(np.abs(sums - 1.0)) <= 1e-9

    t = np.arange(250) / 250.0
    tone = np.sin(2 * np.pi * 10.0 * t + 0.7)
    r_alpha = relative_band_power(tone, 250.0, band_by_name("alpha"))
    assert r_alpha >= 0.95

    noise = np.random.default_rng(SEED + 3).standard_normal((1, 1000 * 250))
    noise_rec = EegRecording("acc", 2, "AD", 250.0, ("C0",), noise)
    ratios = band_power_matrix(noise_rec, 1.0)[0].mean(axis=1)
    expected = np.array([3.0, 4.0, 5.0, 17.0]) / 29.0
    assert np.max(np.abs(ratios - expected)) <= 0.03
    report(3, f"partition of unity <= 1e-9 on 1000 segments; tone R_alpha = "
              f"{r_alpha:.3f}; white-noise ratios within "
              f"{np.max(np.abs(ratios - expected)):.3f} of (3,4,5,17)/29")


# -- 4: dimensional reproduction -------------------------------------------

def test_criterion_4_dimensions():
    spec = SynthSpec(subjects={"AD": 1, "NonAD": 0}, sessions_per_subject=1,
                     channel_labels=("Fp1",), duration_seconds=40.0,
                     sampling_rate_hz=250.0,
                     profiles=(),)
    rec = synthesize_dataset(spec, seed=0)[0]
    assert rec.n_samples == 10_000  # N_w = T_w x f_w

    # the twelve segmentation settings; 200 Hz makes every one integral
    grid = [0.1, 0.2, 0.4, 0.5, 0.8, 1.0, 1.25, 2.0, 2.5, 4.0, 5.0, 10.0]
    expected = [400, 200, 100, 80, 50, 40, 32, 20, 16, 10, 8, 4]
    rng = np.random.default_rng(SEED + 4)
    rec200 = EegRecording("acc", 1, "AD", 200.0, ("C0",),
                          rng.standard_normal((1, 8000)))
    lengths = [segment(rec200, ts).shape[1] for ts in grid]
    assert lengths == expected

    recs = []
    for s in range(5):
        for sess in range(1, 7):
            recs.append(EegRecording(f"AD{s}", sess, "AD", 128.0, ("Fp1",),
                                     np.full((1, 128), float(sess))))
    for s in range(6):
        for sess in range(1, 7):
            recs.append(EegRecording(f"NS{s}", sess, "NonAD", 128.0, ("Fp1",),
                                     np.full((1, 128), float(sess))))
    split = session_split(recs)
    assert len(split.training) == 55 and len(split.testing) == 11
    report(4, "40s x 250Hz -> 10,000 samples; segmentation grid -> "
              f"{expected}; 11x6 sessions -> 55/11 split")


# -- 5: QPCA consistency ----------------------------------------------------

def test_criterion_5_qpca_consistency():
    rng = np.random.default_rng(SEED + 5)
    q = QuaternionMatrix.from_components(*rng.standard_normal((4, 20, 8)))
    centered = q.subtract_row(q.row_mean())
    cov = (centered.H @ centered).scale(1.0 / 20)
    hermitian_defect = (cov - cov.H).frobenius_norm() / cov.frobenius_norm()
    assert hermitian_defect <= 1e-12

    model = qpca_fit(q, p=3)
    trace = float(np.trace(cov.w))
    trace_gap = abs(trace - model.eigenvalues.sum()) / trace
    assert trace_gap <= 1e-9
    assert np.all(model.eigenvalues >= 0)

    rescaled = qpca_fit(q, p=3, covariance_scale=3.14)
    proj_a = model.basis @ model.basis.H
    proj_b = rescaled.basis @ rescaled.basis.H
    proj_gap = (proj_a - proj_b).frobenius_norm()
    assert proj_gap <= 1e-9

    x = rng.standard_normal((15, 6)) * np.array([4.0, 3.0, 2.0, 1.5, 1.0, 0.5])
    rq = QuaternionMatrix.from_real(x)
    rmodel = qpca_fit(rq, p=4)
    feats = transform(rmodel, rq)
    xc = x - x.mean(axis=0)
    vals, vecs = np.linalg.eigh(xc.T @ xc / 15)
    order = np.argsort(vals)[::-1]
    scores = xc @ vecs[:, order][:, :4]
    oracle_gap = np.max(np.abs(feats.entry_norms() - np.abs(scores)))
    assert oracle_gap <= 1e-9
    report(5, f"covariance Hermitian defect {hermitian_defect:.1e}; trace gap "
              f"{trace_gap:.1e}; projector rescale gap {proj_gap:.1e}; real-PCA "
              f"oracle gap {oracle_gap:.1e}")


# -- 6: metrics arithmetic ---------------------------------------------------

def test_criterion_6_metrics():
    got = metrics(ConfusionCounts(tp=5, fn=0, tn=5, fp=1))
    assert abs(got.acc - 90.91) <= 0.01
    assert abs(got.sen - 100.00) <= 0.01
    assert abs(got.spe - 83.33) <= 0.01

    rng = np.random.default_rng(SEED + 6)
    checked = 0
    for _ in range(1000):
        tp, tn, fp, fn = (int(v) for v in rng.integers(0, 50, 4))
        if tp + fn == 0 or tn + fp == 0:
            continue
        m = metrics(ConfusionCounts(tp, tn, fp, fn))
        # the identity is exact in rational arithmetic
        pos, neg = tp + fn, tn + fp
        acc = Fraction(100 * (tp + tn), pos + neg)
        sen = Fraction(100 * tp, pos)
        spe = Fraction(100 * tn, neg)
        assert acc == (sen * pos + spe * neg) / (pos + neg)
        # and holds for the float metrics to rounding error
        assert abs(m.acc - float((sen * pos + spe * neg) / (pos + neg))) <= 1e-9
        checked += 1
    report(6, f"confusion (5,0,5,1) -> (90.91, 100.00, 83.33); ACC identity "
              f"exact on {checked} random confusions")


# -- 7: enumeration -----------------------------------------------------------

def test_criterion_7_enumeration():
    assert count_tuples(19, 4, ordered=False) == 3876
    assert count_tuples(19, 4, ordered=True) == 93_024
    assert count_tuples(8, 4, ordered=False) == 70
    assert count_tuples(8, 4, ordered=True) == 1680
    report(7, "C(19,4) = 3876, ordered 93,024; C(8,4) = 70, ordered 1680")


# -- 8: end-to-end synthetic pipeline ----------------------------------------

@pytest.fixture(scope="module")
def synthetic8():
    spec = SynthSpec.default(channel_labels=MONTAGE8, alpha_affected=AFFECTED8)
    recordings = synthesize_dataset(spec, seed=SEED)
    cache = FeatureCache.from_recordings(recordings, 1.0)
    split = session_split(recordings)
    train_keys = [r.key() for r in split.training]
    test_keys = [r.key() for r in split.testing]
    return cache, train_keys, test_keys


def test_criterion_8_end_to_end(synthetic8):
    cache, train_keys, test_keys = synthetic8
    assert len(train_keys) == 55 and len(test_keys) == 11
    params = PipelineParams(segment_seconds=1.0, projection="mean",
                            p_sweep_limit=20, svm_c=1.0)

    start = time.perf_counter()
    results, summaries = run_search(cache, train_keys, test_keys, "alpha",
                                    params, parallelism=os.cpu_count() or 1)
    elapsed = time.perf_counter() - start
    assert len(results) == 1680
    assert elapsed < 300.0, f"1680-trial search took {elapsed:.0f}s"
    best_acc = max(r.acc for r in results if r.valid)
    assert best_acc >= 90.0
    # rotating channels 2 -> 3 -> 4 is the automorphism i -> j -> k of the
    # quaternions, so the three orders of a rotation class agree
    outcome = {r.permutation: (r.acc, r.p_used) for r in results}
    disagree = [(a, b, c, d) for (a, b, c, d) in outcome
                if not outcome[(a, b, c, d)] == outcome[(a, d, b, c)]
                == outcome[(a, c, d, b)]]
    assert not disagree, f"{len(disagree)} orders disagree with their rotations"
    # the search evaluates one order per class and copies its row; the first
    # order of a combination represents its class, so evaluate the two other
    # orders of the first class of every 7th combination on their own
    by_perm = {r.permutation: r for r in results}
    for a, b, c, d in [r.permutation for r in results[::24 * 7]]:
        for rotated in ((a, d, b, c), (a, c, d, b)):
            row = by_perm[rotated]
            direct = evaluate_quadruple(cache, (train_keys, test_keys), rotated,
                                        "alpha", params)
            assert row.valid and (row.acc, row.sen, row.spe, row.p_used) == (
                direct.acc, direct.sen, direct.spe, direct.p_used), rotated

    dists = {}
    for band in ("delta", "theta", "alpha", "beta"):
        by_class = measure_values(cache, train_keys, AFFECTED8, band)
        dists[band] = interclass_distance(by_class["NonAD"], by_class["AD"])
    assert dists["alpha"] > dists["delta"]
    assert dists["alpha"] > dists["theta"]
    assert dists["alpha"] > dists["beta"]

    paired = compare(cache, train_keys, test_keys, AFFECTED8, "alpha", params)
    q_acc = paired["qpca"]["acc"]
    r_acc = paired["real_pca"]["acc"]
    assert q_acc >= r_acc - 5.0
    report(8, f"search best acc {best_acc:.1f}% in {elapsed:.0f}s; alpha Dist "
              f"{dists['alpha']:.3f} > others {dists['delta']:.3f}/"
              f"{dists['theta']:.3f}/{dists['beta']:.3f}; qpca {q_acc:.1f}% vs "
              f"real-PCA {r_acc:.1f}%")


# -- 9: determinism ------------------------------------------------------------

def test_criterion_9_determinism(tmp_path):
    montage5 = ("F7", "F8", "T7", "T8", "P4")
    spec = SynthSpec.default(channel_labels=montage5,
                             alpha_affected=("F8", "T7", "T8"),
                             subjects={"AD": 2, "NonAD": 2})
    spec = SynthSpec(subjects=spec.subjects, sessions_per_subject=6,
                     channel_labels=montage5, duration_seconds=10.0,
                     sampling_rate_hz=200.0, profiles=spec.profiles)
    data = tmp_path / "data"
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(spec.to_json()))
    assert cli_main(["synth", "--spec", str(spec_file), "--seed", "3",
                     "--out", str(data)]) == 0

    out1, out8 = tmp_path / "p1", tmp_path / "p8"
    base = ["search", "--data", str(data), "--band", "alpha",
            "--p-sweep-limit", "5"]
    assert cli_main(base + ["--parallelism", "1", "--out", str(out1)]) == 0
    assert cli_main(base + ["--parallelism", "8", "--out", str(out8)]) == 0
    for name in ("search_results.csv", "search_summary.csv", "search_ranked.json"):
        assert (out1 / name).read_bytes() == (out8 / name).read_bytes(), name

    rng = np.random.default_rng(SEED + 7)
    x = rng.standard_normal((40, 4))
    y = np.concatenate([np.ones(18), -np.ones(22)])
    cv1 = cross_validate(x, y, k=10, repeats=3, seed=77)
    cv2 = cross_validate(x, y, k=10, repeats=3, seed=77)
    assert np.array_equal(cv1.repeat_scores, cv2.repeat_scores)
    assert all(np.array_equal(a, b) for a, b in zip(cv1.fold_ids, cv2.fold_ids))
    report(9, "search outputs byte-identical at parallelism 1 vs 8; "
              "cross-validation folds and scores reproduce under a fixed seed")


# -- 10: optional clinical reproduction ----------------------------------------

def test_criterion_10_clinical_dataset():
    data_dir = os.environ.get("QEEG_CLINICAL_DATA")
    if not data_dir:
        pytest.skip("clinical dataset not available (set QEEG_CLINICAL_DATA "
                    "to a directory of recording manifests to enable)")
    from qeeg.dataset import load_recording
    from pathlib import Path

    paths = sorted(p for p in Path(data_dir).glob("*.json")
                   if not p.name.endswith("_manifest.json"))
    recordings = [load_recording(p) for p in paths]
    cache = FeatureCache.from_recordings(recordings, 1.0)
    split = session_split(recordings)
    train_keys = [r.key() for r in split.training]
    test_keys = [r.key() for r in split.testing]
    params = PipelineParams(p_sweep_limit=20)

    results, summaries = run_search(cache, train_keys, test_keys, "alpha",
                                    params, parallelism=os.cpu_count() or 1)
    target = [s for s in summaries
              if set(s.combination) == {"F8", "T7", "T8", "P4"}][0]
    assert abs(target.mean_acc - 95.0) <= 3.0
    assert target.best_acc == 100.0

    from qeeg import qpca
    vectors = cache.vectors(list(cache.keys), ("F8", "T7", "T8", "P4"), "alpha")
    model = qpca.fit(vectors, p=min(20, vectors.rows, vectors.cols))
    feats = qpca.project(qpca.transform(model, vectors), "mean")
    cv = cross_validate(feats, cache.labels_pm1(list(cache.keys)), k=10,
                        repeats=1000, seed=0)
    assert abs(cv.mean_score - 0.0942) <= 0.03

    paired = compare(cache, train_keys, test_keys, ("F8", "T7", "T8", "P4"),
                     "alpha", params)
    assert abs(paired["real_pca"]["acc"] - 82.0) <= 3.0
    report(10, "clinical reproduction: alpha-band best combination ~95%, "
               "10-fold score ~0.0942, real-PCA ~82%")
