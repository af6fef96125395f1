#!/usr/bin/env python3
"""The reference commands: every qeeg command on one small synthetic dataset.

    PYTHONPATH=src python3 tools/reference_outputs.py OUT

OUT must be a new or empty directory.  The script writes a fixed spec to
it, then runs synth, synth again on a minimal spec that leaves out every
optional key (so that the spec's defaults show in the listing), features,
train, eval, search (at --parallelism 1 and 2, and once at --pcs 99, which
no trial can fit, so that every row is invalid), connectivity (triple and
quadruple over every band on the training keys, and triple on alpha alone
over every key), crossval, sweep and baseline there, each as
`python -m qeeg.cli` with OUT as the working directory and relative paths,
so nothing printed or written names OUT.  features runs twice: as it is,
where the recording loader starts its pool on a host with two or more
usable cores, and pinned to one core with os.sched_setaffinity, where it
loads serially (skipped where there is no such call); the two features.csv
lines of the listing must hash the same.  Every branch of the p rule
(`pipeline.fit_pca`) runs: train at a fixed p and at an energy threshold,
baseline at a fixed p, at a threshold and at its default p sweep.
crossval runs with stratified and with unstratified folds.  sweep runs
along each axis: p and the segment length, each with one failing grid
point, and every projection.  It prints each command line and its stdout,
then one `sha256  relative/path` line per file under OUT (outputs and run
manifests).

qeeg comes from PYTHONPATH, so the same script run against another checkout
(`PYTHONPATH=other/src`) gives a listing to diff with this one: a change
that must keep the outputs byte-identical shows no difference.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

MONTAGE = ["F7", "F8", "T7", "T8", "P4"]
QUAD = ["--band", "alpha", "--channels", "F8,T7,T8,P4"]
SPEC = {
    "subjects": {"AD": 2, "NonAD": 2},
    "sessions_per_subject": 6,
    "channel_labels": MONTAGE,
    "duration_seconds": 10.0,
    "sampling_rate_hz": 200.0,
    "profiles": [
        {"class": label, "band": band, "amplitude": amplitude,
         "channels_affected": channels, "noise_sigma": noise}
        for label, alpha in (("AD", 0.45), ("NonAD", 1.1))
        for band, amplitude, channels, noise in (
            ("delta", 0.9, None, 0.35), ("theta", 0.8, None, 0.0),
            ("beta", 0.7, None, 0.0), ("alpha", alpha, ["F8", "T7", "T8"], 0.0),
            ("alpha", 1.1, ["F7", "P4"], 0.0))
    ],
}
# subjects and the required profile keys only, one fixed frequency and one
# channel list: every other key takes its default (19 channels at 250 Hz)
MINIMAL_SPEC = {
    "subjects": {"AD": 1},
    "profiles": [{"class": "AD", "band": "alpha", "amplitude": 1.0,
                  "channels_affected": ["T7", "T8"], "frequency_hz": 10.0},
                 {"class": "AD", "band": "delta", "amplitude": 0.5}],
}
# features again in a process pinned to one core, where the loader is serial
ONE_CORE = ["features", "--data", "data", "--out", "features_one_core"]
COMMANDS = [
    ["synth", "--spec", "spec.json", "--seed", "5", "--out", "data"],
    ["synth", "--spec", "minimal_spec.json", "--seed", "5", "--out", "data_minimal"],
    ["features", "--data", "data", "--out", "features"],
    ONE_CORE,
    ["train", "--data", "data", *QUAD, "--pcs", "3", "--out", "train"],
    ["train", "--data", "data", *QUAD, "--pc-threshold", "0.8", "--out", "train_threshold"],
    ["eval", "--model", "train/model.json", "--data", "data", "--split", "all",
     "--cache", "features/features.csv", "--out", "eval"],
    ["search", "--data", "data", "--band", "alpha", "--p-sweep-limit", "5",
     "--parallelism", "1", "--out", "search1"],
    ["search", "--data", "data", "--band", "alpha", "--p-sweep-limit", "5",
     "--parallelism", "2", "--cache", "features/features.csv", "--out", "search2"],
    # p = 99 exceeds min(20 rows, 10 segments): every trial is an invalid row
    ["search", "--data", "data", "--band", "alpha", "--pcs", "99",
     "--cache", "features/features.csv", "--out", "search_invalid"],
    ["connectivity", "--data", "data", "--mode", "triple",
     "--cache", "features/features.csv", "--out", "connectivity"],
    ["connectivity", "--data", "data", "--mode", "quadruple",
     "--cache", "features/features.csv", "--out", "connectivity_quad"],
    # one band, over the training and the testing keys
    ["connectivity", "--data", "data", "--mode", "triple", "--band", "alpha",
     "--include-testing", "--cache", "features/features.csv", "--out", "connectivity_alpha_all"],
    ["crossval", "--data", "data", *QUAD, "--k", "4", "--repeats", "5", "--seed", "9",
     "--out", "crossval"],
    ["crossval", "--data", "data", *QUAD, "--k", "4", "--repeats", "5", "--seed", "9",
     "--unstratified", "--out", "crossval_unstratified"],
    # p = 99 fails, and its error row holds an escaped comma
    ["sweep", "--data", "data", *QUAD, "--axis", "pcs", "--values", "1,2,99",
     "--out", "sweep"],
    # 0.3141 s is no whole number of samples at 200 Hz, so that point fails
    ["sweep", "--data", "data", *QUAD, "--axis", "segment", "--values", "0.5,1.0,0.3141",
     "--out", "sweep_segment"],
    ["sweep", "--data", "data", *QUAD, "--axis", "projection",
     "--values", "mean,absolute,norm,phase", "--out", "sweep_projection"],
    # the defaults: a p sweep on both arms
    ["baseline", "--data", "data", *QUAD, "--out", "baseline_sweep"],
    ["baseline", "--data", "data", *QUAD, "--pc-threshold", "0.8", "--out", "baseline"],
    ["baseline", "--data", "data", *QUAD, "--pcs", "2", "--out", "baseline_fixed"],
]


def pin_to_one_core() -> None:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    out = Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)
    if any(out.iterdir()):
        print(f"{out} is not empty", file=sys.stderr)
        return 2
    (out / "spec.json").write_text(json.dumps(SPEC, indent=2) + "\n")
    (out / "minimal_spec.json").write_text(json.dumps(MINIMAL_SPEC, indent=2) + "\n")
    # the commands run in OUT, so a relative PYTHONPATH entry is resolved here
    path = [str(Path(p).resolve()) for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
            if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    for command in COMMANDS:
        one_core = command is ONE_CORE
        if one_core and not hasattr(os, "sched_setaffinity"):
            continue
        proc = subprocess.run([sys.executable, "-m", "qeeg.cli", *command], cwd=out,
                              env=env, capture_output=True, text=True,
                              preexec_fn=pin_to_one_core if one_core else None)
        print("$ qeeg " + " ".join(command))
        print(proc.stdout, end="")
        if proc.returncode != 0:
            print(proc.stderr, end="", file=sys.stderr)
            return 1
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        print(f"{digest}  {path.relative_to(out).as_posix()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
