"""Channel-subset enumeration and exhaustive search tests."""
import ctypes
from pathlib import Path

import numpy as np
import pytest

from conftest import synthetic_cache
from qeeg.errors import ParameterError
from qeeg.pipeline import (PipelineParams, evaluate_quadruple, rotation_class_key,
                           rotation_classes)
from qeeg.pool import ordered_map
from qeeg.search import count_tuples, enumerate_channel_tuples, lobe_of, rank, run_search


def test_count_montage_subset_sizes():
    assert count_tuples(19, 4, ordered=False) == 3876
    assert count_tuples(19, 4, ordered=True) == 93024
    assert count_tuples(8, 4, ordered=False) == 70
    assert count_tuples(8, 4, ordered=True) == 1680
    assert count_tuples(5, 4, ordered=False) == 5
    assert count_tuples(5, 4, ordered=True) == 120
    with pytest.raises(ParameterError):
        count_tuples(3, 4, ordered=False)


def test_enumeration_matches_counts():
    montage = ("A", "B", "C", "D", "E")
    unordered = list(enumerate_channel_tuples(montage, 4, ordered=False))
    assert len(unordered) == 5
    assert unordered == sorted(unordered, key=lambda t: [montage.index(c) for c in t])
    ordered = list(enumerate_channel_tuples(montage, 4, ordered=True))
    assert len(ordered) == 120
    assert len(set(ordered)) == 120
    # orderings of one combination are contiguous and lexicographic
    first_block = ordered[:24]
    assert all(set(t) == {"A", "B", "C", "D"} for t in first_block)
    assert first_block == sorted(first_block,
                                 key=lambda t: [montage.index(c) for c in t])


def test_enumeration_triples():
    assert sum(1 for _ in enumerate_channel_tuples(tuple("ABCDE"), 3, True)) == 60


def test_lobe_assignment_covers_montage():
    from qeeg.dataset import STANDARD_MONTAGE_19
    lobes = {lobe_of(c) for c in STANDARD_MONTAGE_19}
    assert lobes == {"frontal", "temporal", "parietal", "occipital"}
    assert lobe_of("F8") == "temporal"
    assert lobe_of("Fp2") == "frontal"
    assert lobe_of("P3") == "parietal"
    assert lobe_of("O2") == "occipital"
    assert lobe_of("XX") is None


@pytest.fixture(scope="module")
def search_results(small_cache, small_keys):
    train, test = small_keys
    params = PipelineParams(p_sweep_limit=5)
    return run_search(small_cache, train, test, "alpha", params, parallelism=1)


def test_search_shape_and_indexing(search_results):
    results, summaries = search_results
    assert len(results) == 120
    assert [r.trial_index for r in results] == list(range(120))
    assert len(summaries) == 5
    assert all(s.n_trials == 24 for s in summaries)


def test_search_rows_match_direct_evaluation(small_cache, small_keys, search_results):
    # the search evaluates one order per rotation class; every other order,
    # evaluated on its own, must give the row the search copied into it
    train, test = small_keys
    params = PipelineParams(p_sweep_limit=5)
    results, _ = search_results
    for r in results:
        direct = evaluate_quadruple(small_cache, train, test, r.permutation,
                                    "alpha", params)
        assert r.valid
        assert (r.acc, r.sen, r.spe, r.p_used) == (direct.acc, direct.sen, direct.spe,
                                                   direct.p_used), r.permutation


def test_search_evaluates_one_order_per_rotation_class(small_cache, small_keys,
                                                       monkeypatch):
    import qeeg.search

    calls = []
    evaluate = qeeg.search.evaluate_quadruple

    def counted(cache, train_keys, test_keys, quadruple, band, params):
        calls.append(tuple(quadruple))
        return evaluate(cache, train_keys, test_keys, quadruple, band, params)

    monkeypatch.setattr(qeeg.search, "evaluate_quadruple", counted)
    train, test = small_keys
    run_search(small_cache, train, test, "alpha", PipelineParams(p_sweep_limit=2))
    ordered = list(enumerate_channel_tuples(small_cache.channels, 4, ordered=True))
    first = {}
    for t in ordered:
        first.setdefault(rotation_class_key(t), t)
    assert calls == list(first.values())  # 8 of 24 per combination, in order
    assert len(calls) == 40


def test_rotation_class_key():
    assert (rotation_class_key(("W", "A", "B", "C")) == rotation_class_key(("W", "C", "A", "B"))
            == rotation_class_key(("W", "B", "C", "A")))
    assert rotation_class_key(("W", "A", "B", "C")) != rotation_class_key(("W", "A", "C", "B"))
    assert rotation_class_key(("A", "B", "C")) == rotation_class_key(("C", "A", "B"))
    assert rotation_class_key(("A", "B", "C")) != rotation_class_key(("A", "C", "B"))
    ordered = list(enumerate_channel_tuples(tuple("ABCDE"), 4, ordered=True))
    assert len({rotation_class_key(t) for t in ordered}) == 120 // 3
    triples = list(enumerate_channel_tuples(tuple("ABCDE"), 3, ordered=True))
    assert len({rotation_class_key(t) for t in triples}) == 60 // 3
    firsts, classes = rotation_classes(ordered)
    assert len(firsts) == 40 and len(classes) == 120
    # ABCD, ABDC, ACBD, ACDB, ADBC, ADCB: two classes, numbered as they appear
    assert firsts[:2] == [("A", "B", "C", "D"), ("A", "B", "D", "C")]
    assert classes[:6] == [0, 1, 1, 0, 0, 1]
    assert [ordered[classes.index(c)] for c in range(40)] == firsts
    assert all(rotation_class_key(t) == rotation_class_key(firsts[c])
               for t, c in zip(ordered, classes))


def test_search_parallel_determinism(small_cache, small_keys, search_results):
    train, test = small_keys
    params = PipelineParams(p_sweep_limit=5)
    parallel = run_search(small_cache, train, test, "alpha", params, parallelism=2)
    assert parallel[0] == search_results[0]
    assert parallel[1] == search_results[1]


def test_search_summary_aggregation(search_results):
    results, summaries = search_results
    for s in summaries:
        rows = [r for r in results if tuple(sorted(r.permutation)) == tuple(sorted(s.combination))]
        assert len(rows) == 24
        valid = [r.acc for r in rows if r.valid]
        assert s.mean_acc == pytest.approx(np.mean(valid), abs=1e-12)
        assert s.best_acc == max(valid)


def test_search_order_can_change_metrics(search_results):
    results, summaries = search_results
    assert any(len({r.acc for r in results
                    if tuple(sorted(r.permutation)) == tuple(sorted(s.combination))}) > 1
               for s in summaries)


def _openblas_threads():
    """Thread count of the OpenBLAS in numpy.libs, None when there is none."""
    libs_dir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs_dir.glob("*openblas*")):
        getter = getattr(ctypes.CDLL(str(path)), "scipy_openblas_get_num_threads64_", None)
        if getter is not None:
            getter.argtypes, getter.restype = [], ctypes.c_int
            return getter()
    return None


def _blas_threads_task(context, item):
    return _openblas_threads()


def test_pool_workers_use_one_blas_thread(pool_workers):
    before = _openblas_threads()
    if before is None:
        pytest.skip("numpy does not bundle a scipy-openblas library")
    sizes = pool_workers(2)
    assert ordered_map(_blas_threads_task, range(4), 2) == [1] * 4
    assert sizes == [2]
    assert _openblas_threads() == before  # the calling process keeps its setting


@pytest.mark.parametrize("parallelism", [1, 2])
def test_search_per_trial_failure_recorded_not_raised(parallelism):
    rng = np.random.default_rng(5)
    cache = synthetic_cache(rng, channels=("A", "B", "C", "D", "E"), n_keys=12,
                            constant_channels=("A", "B", "C", "D"))
    train = cache.keys[:8]
    test = cache.keys[8:]
    results, summaries = run_search(cache, train, test, "alpha",
                                    PipelineParams(p_sweep_limit=3),
                                    parallelism=parallelism)
    assert [r.trial_index for r in results] == list(range(120))
    invalid = [r for r in results if not r.valid]
    # the all-constant quadruple (A,B,C,D) in every order has a degenerate spectrum
    assert len(invalid) == 24
    assert all("DegenerateDataError" in r.error for r in invalid)
    assert all(set(r.permutation) == {"A", "B", "C", "D"} for r in invalid)
    bad = [s for s in summaries if set(s.combination) == {"A", "B", "C", "D"}][0]
    assert bad.n_invalid == 24 and bad.mean_acc is None


def test_summaries_match_an_independent_regroup():
    # the degenerate-channel search above, summarized here without the
    # enumeration's blocks: rows grouped by their montage-sorted combination,
    # means over the valid rows, best the first top accuracy in trial order
    from qeeg.search import CombinationSummary
    rng = np.random.default_rng(5)
    cache = synthetic_cache(rng, channels=("A", "B", "C", "D", "E"), n_keys=12,
                            constant_channels=("A", "B", "C", "D"))
    results, summaries = run_search(cache, cache.keys[:8], cache.keys[8:], "alpha",
                                    PipelineParams(p_sweep_limit=3))
    position = {c: i for i, c in enumerate(cache.channels)}
    groups = {}
    for r in sorted(results, key=lambda r: r.trial_index):
        groups.setdefault(tuple(sorted(r.permutation, key=position.get)), []).append(r)
    expected = []
    for combo in sorted(groups, key=lambda c: [position[x] for x in c]):
        rows = groups[combo]
        valid = [r for r in rows if r.error is None]
        mean = lambda field: float(np.mean([getattr(r, field) for r in valid])) if valid else None
        best = None
        for r in valid:
            if best is None or r.acc > best.acc:
                best = r
        expected.append(CombinationSummary(
            combo, "alpha", mean("acc"), mean("sen"), mean("spe"),
            best.permutation if best else None, best.acc if best else None,
            len(rows), len(rows) - len(valid)))
    assert [s.n_invalid for s in expected] == [24, 0, 0, 0, 0]
    assert summaries == expected


def test_rank_descending_with_lobes(search_results):
    _, summaries = search_results
    report = rank(summaries)
    accs = [e["mean_acc"] for e in report["ranked"]]
    assert accs == sorted(accs, reverse=True)
    assert report["n_combinations"] == 5
    assert all(e["lobes"] for e in report["ranked"])


def test_rank_tie_breaks_lexicographic():
    from qeeg.search import CombinationSummary
    mk = lambda combo: CombinationSummary(combination=combo, band="alpha",
                                          mean_acc=90.0, mean_sen=None, mean_spe=None,
                                          best_permutation=combo, best_acc=90.0,
                                          n_trials=24, n_invalid=0)
    report = rank([mk(("B", "C", "D", "E")), mk(("A", "C", "D", "E"))])
    assert report["ranked"][0]["combination"] == ["A", "C", "D", "E"]


def test_rank_single_result():
    from qeeg.search import CombinationSummary
    only = CombinationSummary(combination=("A", "B", "C", "D"), band="alpha",
                              mean_acc=55.0, mean_sen=50.0, mean_spe=60.0,
                              best_permutation=("A", "B", "C", "D"), best_acc=70.0,
                              n_trials=24, n_invalid=0)
    report = rank([only])
    assert report["ranked"][0]["combination"] == ["A", "B", "C", "D"]
    with pytest.raises(ParameterError):
        rank([])


@pytest.mark.parametrize("parallelism,cores,workers", [
    (500, 64, 40), (8, 2, 2), (2, 1, None), (1, 64, None)])
def test_search_pool_is_capped(small_cache, small_keys, search_results, pool_workers,
                               parallelism, cores, workers):
    sizes = pool_workers(cores, in_process=True)
    train, test = small_keys
    # 5 channels: 120 ordered quadruples in 40 rotation classes
    results = run_search(small_cache, train, test, "alpha", PipelineParams(p_sweep_limit=5),
                         parallelism=parallelism)
    assert sizes == ([] if workers is None else [workers])
    assert results == search_results
