#!/usr/bin/env python3
"""Fast self-test of the benchmark: each workload on a tiny montage, plain
and traced, with every output check; then outputs altered on purpose, to
show that the checks catch what they are meant to catch.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import checks
import run

TINY = {"subjects": (("AD", 2), ("NonAD", 2)), "duration_s": 10.0, "rate_hz": 200.0}
SEED = 7
failures = []


def expect(ok: bool, message: str) -> None:
    print(("ok    " if ok else "FAIL  ") + message)
    if not ok:
        failures.append(message)


def tiny(workload: run.Workload) -> run.Workload:
    seed = None if workload.fixed_data_seed is None else SEED
    return replace(workload, data=replace(workload.data, **TINY), fixed_data_seed=seed)


def rewrite_csv(path: Path, edit) -> None:
    """Apply `edit` to the payload lines of a checksummed CSV, checksum kept valid."""
    config_line, _, payload = path.read_text().split("\n", 2)
    lines = edit(payload.splitlines())
    payload = "\n".join(lines) + "\n"
    digest = hashlib.sha256(payload.encode()).hexdigest()
    path.write_text(f"{config_line}\n# checksum: {digest}\n{payload}")


def rewrite_json(path: Path, edit) -> None:
    doc = json.loads(path.read_text())
    edit(doc["data"])
    doc["checksum"] = hashlib.sha256(json.dumps(doc["data"], sort_keys=True).encode()).hexdigest()
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def run_both(workload: run.Workload, keep: Path) -> None:
    plain = run.run_workload(workload, SEED, 0, traced=False, keep=keep)
    expect(plain["correct"] and plain["attempted"] > 0,
           f"{workload.name}: plain run passes its checks ({plain['attempted']} ops)")
    expect(set(plain["metrics"]) == set(run.END_TO_END_UNITS)
           and all(m["value"] > 0 for m in plain["metrics"].values()),
           f"{workload.name}: every end-to-end metric is reported and above 0")
    traced = run.run_workload(workload, SEED, 0, traced=True)
    layer = {k: m["value"] for k, m in traced["metrics"].items()}
    expect(traced["correct"] and set(layer) == set(run.PER_LAYER_UNITS),
           f"{workload.name}: traced run passes and reports every per-layer metric")
    expect(layer["dataset.recordings_loaded"] == 6 * 4 and layer["pipeline.cache_parse_s"] > 0,
           f"{workload.name}: traced command loads every recording and parses the cache")
    if workload.kind == "search":
        expect(layer["classifier.svm_fits"] == 10 * plain["attempted"]
               and layer["qlinalg.qsvd_calls"] == plain["attempted"]
               and layer["search.pool_speedup"] > 0,
               "search: one qsvd and a 10-fit p sweep per trial, pool ratio measured")
    else:
        expect(layer["classifier.svm_fits"] == 0
               and layer["connectivity.measure_calls"] == 2 * plain["attempted"]
               and layer["connectivity.calls_per_output"] == 2.0,
               "connectivity: no SVM, every (tuple, band) measured twice")


def negative_search(out: Path, layout: checks.Layout) -> None:
    base = checks.check_search(out, layout)
    # trial 0 reports another p_used than the rest of its rotation class
    def other_p(lines):
        fields = lines[1].split(",")
        fields[6] = "2" if fields[6] == "1" else "1"
        return [lines[0], ",".join(fields), *lines[2:]]
    rewrite_csv(out / "search_results.csv", other_p)
    v = checks.check_search(out, layout)
    expect(v.failed == base.failed + 3 and not v.problems,
           "search: a p_used that differs inside a rotation class fails its 3 trials")
    # an accuracy that is no count over the test sessions, and disagrees with the summary
    rewrite_csv(out / "search_results.csv", lambda lines: [
        ",".join(ln.split(",")[:7] + ["12.5"] + ln.split(",")[8:]) if i == 2 else ln
        for i, ln in enumerate(lines)])
    v = checks.check_search(out, layout)
    expect(any("not counts" in p for p in v.problems)
           and any("search_summary.csv" in p for p in v.problems),
           "search: an impossible accuracy and a stale summary are problems")
    (out / "search_ranked.json").write_text((out / "search_ranked.json").read_text()
                                            .replace('"checksum": "', '"checksum": "0'))
    expect(any("checksum" in p for p in checks.check_search(out, layout).problems),
           "search: a wrong checksum is a problem")


def negative_connectivity(out: Path, cache: Path, layout: checks.Layout) -> None:
    expect(not checks.check_connectivity(out, cache, layout).problems,
           "connectivity: kept outputs pass")
    # a feature value the program did not use: only the recomputation sees it
    lines = cache.read_text().split("\n")
    row = next(i for i, ln in enumerate(lines) if ",F7,alpha,0," in ln and ",1,AD," in ln)
    fields = lines[row].split(",")
    fields[-1] = repr(float(fields[-1]) + 0.05)
    lines[row] = ",".join(fields)
    altered = cache.with_name("altered.csv")
    altered.write_text("\n".join(lines))
    expect(any("recomputation" in p for p in checks.check_connectivity(out, altered, layout).problems),
           "connectivity: the independent recomputation catches other inputs")

    def nudge(data):
        data["entries"][0]["value"] += 1e-9
    rewrite_json(out / "tensor_alpha_AD.json", nudge)
    problems = checks.check_connectivity(out, cache, layout).problems
    expect(any("class means" in p for p in problems) and any("rotation" in p for p in problems),
           "connectivity: a tensor entry off by 1e-9 breaks report agreement and rotation symmetry")

    def drop(data):
        data["tuples"].pop()
    rewrite_json(out / "distance_report.json", drop)
    expect(any("every ordered tuple" in p
               for p in checks.check_connectivity(out, cache, layout).problems),
           "connectivity: a missing tuple is a problem")


def main() -> int:
    if not (run.SRC / "qeeg" / "cli.py").is_file():
        print(f"error: no qeeg sources under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    sys.dont_write_bytecode = True
    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        for name, workload in run.WORKLOADS.items():
            workload = tiny(workload)
            keep = Path(tmp) / name
            run_both(workload, keep)
            layout = workload.data.layout()
            if workload.kind == "search":
                negative_search(keep / "out0", layout)
            else:
                negative_connectivity(keep / "out0", keep / "features" / "features.csv", layout)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
