#!/usr/bin/env python3
"""Benchmark of the qeeg commands users run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md):
  search_serial      qeeg search --band alpha --parallelism 1 --cache FEATURES
  connectivity_quad  qeeg connectivity --mode quadruple --cache FEATURES
  all                each of the above in turn

A run generates the workload's dataset, flushes it to disk, times
`qeeg features` on it several times (the set-up), then times the workload
command, each in a fresh process, for at least S seconds of whole commands.
Every command's outputs are checked.  With --trace 0 the last line of
standard output is a JSON object with the end-to-end metrics; with
--trace 1 a separate traced command gives the per-layer metrics instead.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, replace
from pathlib import Path

import checks

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "work"
RESULTS = BENCH / "results"

RUN_LIMIT_S = 170.0      # a run has 180 s; keep a margin for checks and clean-up
SETUP_REPEATS = 3
SEARCH_DATA_SEED = 2024
# unset in every qeeg process, as in a plain shell
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "GOTO_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")


class BenchError(RuntimeError):
    """A command failed or overran the run's time limit."""


@dataclass(frozen=True)
class DatasetSpec:
    """Synthetic two-class montage; AD has reduced alpha on `reduced_alpha`."""

    montage: tuple
    reduced_alpha: tuple
    subjects: tuple = (("AD", 5), ("NonAD", 6))
    duration_s: float = 40.0
    rate_hz: float = 250.0

    def layout(self) -> checks.Layout:
        counts = dict(self.subjects)
        return checks.Layout(montage=self.montage, reduced_alpha=self.reduced_alpha,
                             n_ad=counts["AD"], n_nonad=counts["NonAD"],
                             n_segments=int(self.duration_s))  # 1 s segments


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                 # "search" or "connectivity"
    data: DatasetSpec
    # A search dataset does not follow --seed: its trials in disagreeing
    # rotation classes count as failed, and that share must not change
    # from run to run.
    fixed_data_seed: int | None = None

    def command(self, data: Path, cache: Path, out: Path, workers: int = 1) -> list:
        if self.kind == "connectivity":
            return ["connectivity", "--data", data, "--mode", "quadruple",
                    "--cache", cache, "--out", out]
        return ["search", "--data", data, "--band", "alpha", "--parallelism", workers,
                "--cache", cache, "--out", out]

    def check(self, out: Path, cache: Path) -> checks.Verdict:
        if self.kind == "connectivity":
            return checks.check_connectivity(out, cache, self.data.layout())
        return checks.check_search(out, self.data.layout())

    def output_names(self, out: Path) -> list:
        if self.kind == "search":
            return list(checks.SEARCH_FILES)
        return sorted(p.name for p in out.glob("*.json") if not p.name.endswith("_manifest.json"))


SEARCH_DATA = DatasetSpec(montage=("F7", "F8", "T7", "T8", "P4", "O1"),
                          reduced_alpha=("F8", "T7", "T8", "P4"))
CONNECTIVITY_DATA = DatasetSpec(montage=("F7", "F8", "T7", "T8", "P4"),
                                reduced_alpha=("F8", "T7", "T8", "P4"))
WORKLOADS = {
    "search_serial": Workload("search_serial", "search", SEARCH_DATA,
                              fixed_data_seed=SEARCH_DATA_SEED),
    "connectivity_quad": Workload("connectivity_quad", "connectivity", CONNECTIVITY_DATA),
}

END_TO_END_UNITS = {"wall_s": "s", "ops_per_s": "1/s", "cpu_s": "s",
                    "peak_rss_mib": "MiB", "setup_s": "s"}
PER_LAYER_UNITS = {
    "dataset.load_s": "s", "dataset.recordings_loaded": "count",
    "dataset.setup_load_s": "s", "spectral.band_power_s": "s",
    "pipeline.cache_parse_s": "s", "pipeline.trial_ms": "ms", "pipeline.gather_ms": "ms",
    "qlinalg.qsvd_calls": "count", "qlinalg.qsvd_ms": "ms",
    "qpca.fit_self_ms": "ms", "qpca.transform_project_ms": "ms",
    "classifier.svm_fits": "count", "classifier.smo_iterations": "count",
    "classifier.svm_fit_ms": "ms", "classifier.svm_unconverged": "count",
    "search.cpu_per_trial_ms": "ms", "search.pool_speedup": "ratio",
    "connectivity.measure_calls": "count", "connectivity.calls_per_output": "ratio",
    "connectivity.measure_ms": "ms", "cli.self_s": "s",
}


# -- datasets -----------------------------------------------------------------


def make_dataset(spec: DatasetSpec, seed: int, where: Path) -> None:
    """Write the recordings with the library's own writer and flush them, so
    that write-back does not land inside a timed set-up."""
    from qeeg.dataset import SynthSpec, save_recording, synthesize_dataset

    base = SynthSpec.default(channel_labels=spec.montage, alpha_affected=spec.reduced_alpha,
                             subjects=dict(spec.subjects))
    synth = replace(base, duration_seconds=spec.duration_s, sampling_rate_hz=spec.rate_hz)
    where.mkdir(parents=True)
    for rec in synthesize_dataset(synth, seed=seed):
        manifest = save_recording(rec, where)
        for path in (manifest, manifest.with_suffix(".csv")):
            _fsync(path)
    _fsync(where)


def _fsync(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


# -- processes ----------------------------------------------------------------


@dataclass(frozen=True)
class Usage:
    wall_s: float
    cpu_s: float          # user + system of the process and its waited-for children
    peak_rss_mib: float   # largest resident set among them


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_qeeg(argv, log: Path, deadline: float, trace_out: Path | None = None) -> Usage:
    """Run one qeeg command in a fresh process and wait for it and its workers."""
    cmd = [sys.executable, str(BENCH / "child.py")]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    cmd += [str(a) for a in argv]
    with open(log, "a") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), stdout=fh,
                                stderr=subprocess.STDOUT, start_new_session=True)
        timer = threading.Timer(max(0.0, deadline - time.monotonic()), _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        finally:
            timer.cancel()
            _kill_group(proc.pid)   # pool workers left behind by a failed command
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = log.read_text()[-2000:]
        raise BenchError(f"`qeeg {argv[0]}` exited with {proc.returncode}:\n{tail}")
    return Usage(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)


# -- runs ---------------------------------------------------------------------


@dataclass
class Outcome:
    attempted: int
    failed: int
    problems: list
    metrics: dict


class Run:
    """One benchmark invocation's working directory and time limit."""

    def __init__(self, workload: Workload, seed: int, work: Path, limit_s: float):
        self.w = workload
        self.work = work
        self.deadline = time.monotonic() + limit_s
        self.data = work / "data"
        self.cache = work / "features" / "features.csv"
        self.log = work / "qeeg.log"
        self.verdict = checks.Verdict()
        self.cache_bytes = None
        self.counts = {}          # output dir -> (attempted, failed)
        data_seed = seed if workload.fixed_data_seed is None else workload.fixed_data_seed
        make_dataset(workload.data, data_seed, self.data)

    def qeeg(self, argv, trace_out=None) -> Usage:
        return run_qeeg(argv, self.log, self.deadline, trace_out)

    def setup(self, trace_out=None) -> Usage:
        usage = self.qeeg(["features", "--data", self.data, "--out", self.cache.parent],
                          trace_out)
        text = self.cache.read_bytes()
        if self.cache_bytes is None:
            self.cache_bytes = text
        self.verdict.require(text == self.cache_bytes,
                             "qeeg features wrote a different cache on a rerun")
        return usage

    def command(self, out: Path, trace_out=None, workers: int = 1) -> Usage:
        return self.qeeg(self.w.command(self.data, self.cache, out, workers), trace_out)

    def check(self, out: Path, reference: Path | None = None) -> None:
        """Full checks, or byte identity with an output already checked."""
        if reference is None:
            found = self.w.check(out, self.cache)
            self.verdict.problems += found.problems
            self.counts[out] = (found.attempted, found.failed)
        else:
            checks.same_bytes(out, reference, self.w.output_names(reference),
                              self.verdict, f"the outputs in {reference.name}")
            self.counts[out] = self.counts[reference]
        attempted, failed = self.counts[out]
        self.verdict.attempted += attempted
        self.verdict.failed += failed

    def time_left(self) -> float:
        return self.deadline - time.monotonic()


def measure(run: Run, seconds: float) -> Outcome:
    """End-to-end metrics: median set-up, then whole commands for `seconds`."""
    setups = [run.setup().wall_s for _ in range(SETUP_REPEATS)]
    first = run.work / "out0"
    rounds, measured = [], 0.0
    while True:
        out = first if not rounds else run.work / "out"
        usage = run.command(out)
        run.check(out, None if not rounds else first)
        rounds.append(usage)
        measured += usage.wall_s
        if measured >= seconds or run.time_left() < 1.5 * usage.wall_s:
            break
    ops = run.verdict.attempted // len(rounds)
    metrics = {
        "wall_s": statistics.median(u.wall_s for u in rounds),
        "ops_per_s": statistics.median(ops / u.wall_s for u in rounds),
        "cpu_s": statistics.median(u.cpu_s for u in rounds),
        "peak_rss_mib": statistics.median(u.peak_rss_mib for u in rounds),
        "setup_s": statistics.median(setups),
    }
    print(f"{run.w.name}: {len(rounds)} command(s), {len(setups)} set-ups", file=sys.stderr)
    return Outcome(run.verdict.attempted, run.verdict.failed, run.verdict.problems,
                   {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()})


def trace(run: Run) -> Outcome:
    """Per-layer metrics from one traced set-up and one traced command, plus
    untraced commands for the ratios and the tracing overhead."""
    setup_spans, command_spans = run.work / "setup.spans.json", run.work / "command.spans.json"
    run.setup(setup_spans)
    plain = run.work / "plain"
    untraced = run.command(plain)
    run.check(plain)
    speedup = 0.0
    if run.w.kind == "search":
        pool = run.work / "pool"
        pooled = run.command(pool, workers=len(os.sched_getaffinity(0)))
        checks.same_bytes(plain, pool, checks.SEARCH_FILES, run.verdict,
                          "the --parallelism 1 outputs")
        speedup = untraced.wall_s / pooled.wall_s
    traced_out = run.work / "traced"
    traced = run.command(traced_out, command_spans)
    run.verdict = checks.Verdict(problems=run.verdict.problems)  # count the traced command only
    run.check(traced_out, plain)

    setup_by_name, missing = _read_spans(setup_spans)
    by_name, missing_cmd = _read_spans(command_spans)
    ops = run.verdict.attempted
    metrics = layer_metrics(setup_by_name, by_name)
    if run.w.kind == "search":
        metrics["search.cpu_per_trial_ms"] = 1000 * untraced.cpu_s / ops
        metrics["search.pool_speedup"] = speedup
    print(f"{run.w.name}: traced wall {traced.wall_s:.3f} s, untraced {untraced.wall_s:.3f} s, "
          f"tracing overhead {traced.wall_s - untraced.wall_s:+.3f} s", file=sys.stderr)
    for name in sorted(set(missing) | set(missing_cmd)):
        print(f"{run.w.name}: traced name not found, its metrics read 0: {name}", file=sys.stderr)
    RESULTS.mkdir(exist_ok=True)
    shutil.copy(command_spans, RESULTS / f"{run.w.name}.spans.json")
    shutil.copy(setup_spans, RESULTS / f"{run.w.name}.setup.spans.json")
    return Outcome(run.verdict.attempted, run.verdict.failed, run.verdict.problems,
                   {k: (metrics[k], unit) for k, unit in PER_LAYER_UNITS.items()})


def _read_spans(path: Path):
    """Spans grouped by name, each with its duration and self time."""
    doc = json.loads(path.read_text())
    spans = [dict(zip(("id", "parent", "name", "start", "end", "facts"), s))
             for s in doc["spans"]]
    covered = defaultdict(float)
    for s in spans:
        s["dur"] = s["end"] - s["start"]
        if s["parent"] is not None:
            covered[s["parent"]] += s["dur"]
    by_name = defaultdict(list)
    for s in spans:
        s["self"] = s["dur"] - covered[s["id"]]
        by_name[s["name"]].append(s)
    return by_name, doc["missing"]


def layer_metrics(setup: dict, cmd: dict) -> dict:
    def total(spans, name, key="dur"):
        return sum(s[key] for s in spans.get(name, ()))

    def count(name):
        return len(cmd.get(name, ()))

    def mean_ms(name, key="dur"):
        return 1000 * total(cmd, name, key) / count(name) if count(name) else 0.0

    fits = cmd.get("classifier.svm_fit", ())
    outputs = {json.dumps(s["facts"]["output"]) for s in cmd.get("connectivity.measure_values", ())}
    transform_calls = count("qpca.transform")
    return {
        "dataset.load_s": total(cmd, "dataset.load_recording"),
        "dataset.recordings_loaded": count("dataset.load_recording"),
        "dataset.setup_load_s": total(setup, "dataset.load_recording"),
        "spectral.band_power_s": total(setup, "spectral.band_power_matrix"),
        "pipeline.cache_parse_s": total(cmd, "pipeline.from_csv_text"),
        "pipeline.trial_ms": mean_ms("pipeline.evaluate_quadruple"),
        "pipeline.gather_ms": mean_ms("pipeline.vectors"),
        "qlinalg.qsvd_calls": count("qlinalg.qsvd"),
        "qlinalg.qsvd_ms": mean_ms("qlinalg.qsvd"),
        "qpca.fit_self_ms": mean_ms("qpca.fit", "self"),
        "qpca.transform_project_ms": (
            1000 * (total(cmd, "qpca.transform") + total(cmd, "qpca.project")) / transform_calls
            if transform_calls else 0.0),
        "classifier.svm_fits": len(fits),
        "classifier.smo_iterations": sum(s["facts"]["iterations"] for s in fits),
        "classifier.svm_fit_ms": mean_ms("classifier.svm_fit"),
        "classifier.svm_unconverged": sum(s["facts"]["unconverged"] for s in fits),
        "search.cpu_per_trial_ms": 0.0,
        "search.pool_speedup": 0.0,
        "connectivity.measure_calls": count("connectivity.measure_values"),
        "connectivity.calls_per_output": (count("connectivity.measure_values") / len(outputs)
                                          if outputs else 0.0),
        "connectivity.measure_ms": mean_ms("connectivity.measure_values"),
        "cli.self_s": total(cmd, "cli.main", "self"),
    }


def run_workload(workload: Workload, seed: int, seconds: float, traced: bool,
                 keep: Path | None = None) -> dict:
    """One benchmark run; returns the result object printed as the last line.

    `keep` names a directory that receives the run's working files instead of
    their deletion (used by the self-test)."""
    work = WORK / f"{workload.name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        run = Run(workload, seed, work, RUN_LIMIT_S)
        outcome = trace(run) if traced else measure(run, seconds)
        if keep is not None:
            shutil.copytree(work, keep, dirs_exist_ok=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in outcome.problems:
        print(f"{workload.name}: CHECK FAILED: {problem}", file=sys.stderr)
    return {"correct": not outcome.problems, "attempted": outcome.attempted,
            "failed": outcome.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in outcome.metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1,
                        help="workload seed: the connectivity_quad dataset (default 1)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="least time spent in timed commands per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated benchmark still stops its qeeg process group (see run_qeeg)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "qeeg" / "cli.py").is_file():
        print(f"error: no qeeg sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.dont_write_bytecode = True

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        workload = WORKLOADS[name]
        try:
            result = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        for metric, m in result["metrics"].items():
            print(f"{name:18s} {metric:30s} {m['value']:14.6f} {m['unit']}")
        print(f"{name:18s} attempted {result['attempted']} failed {result['failed']} "
              f"correct {result['correct']}")
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
