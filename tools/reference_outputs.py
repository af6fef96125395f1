#!/usr/bin/env python3
"""The reference commands: every qeeg command on one small synthetic dataset.

    PYTHONPATH=src python3 tools/reference_outputs.py OUT

OUT must be a new or empty directory.  The script writes a fixed spec to
it, then runs synth, features, train, eval, search (at --parallelism 1 and
2), connectivity, crossval, sweep and baseline there, each as
`python -m qeeg.cli` with OUT as the working directory and relative paths,
so nothing printed or written names OUT.  Every branch of the p rule
(`pipeline.fit_pca`) runs: train at a fixed p and at an energy threshold,
baseline at a threshold and at its default p sweep.  sweep runs along
each axis: p and the segment length, each with one failing grid point,
and every projection.  After features it writes features/reordered.csv,
the cache with its data rows in reverse order, and connectivity and
baseline run once more on it: the cache parser reads the file as written
in one pass and a reordered one row by row, so both paths run, and
baseline takes its features from the grid of each.  It prints each
command line and its stdout, then one `sha256  relative/path` line per
file under OUT (outputs and run manifests).

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
COMMANDS = [
    ["synth", "--spec", "spec.json", "--seed", "5", "--out", "data"],
    ["features", "--data", "data", "--out", "features"],
    ["train", "--data", "data", *QUAD, "--pcs", "3", "--out", "train"],
    ["train", "--data", "data", *QUAD, "--pc-threshold", "0.8", "--out", "train_threshold"],
    ["eval", "--model", "train/model.json", "--data", "data", "--split", "all",
     "--cache", "features/features.csv", "--out", "eval"],
    ["search", "--data", "data", "--band", "alpha", "--p-sweep-limit", "5",
     "--parallelism", "1", "--out", "search1"],
    ["search", "--data", "data", "--band", "alpha", "--p-sweep-limit", "5",
     "--parallelism", "2", "--cache", "features/features.csv", "--out", "search2"],
    ["connectivity", "--data", "data", "--mode", "triple",
     "--cache", "features/features.csv", "--out", "connectivity"],
    ["connectivity", "--data", "data", "--mode", "triple",
     "--cache", "features/reordered.csv", "--out", "connectivity_reordered"],
    ["crossval", "--data", "data", *QUAD, "--k", "4", "--repeats", "5", "--seed", "9",
     "--out", "crossval"],
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
    ["baseline", "--data", "data", *QUAD, "--pc-threshold", "0.8",
     "--cache", "features/reordered.csv", "--out", "baseline_reordered"],
]


def write_reordered_cache(features: Path) -> None:
    """features/reordered.csv: the `#` lines and the header of features.csv,
    then its data rows in reverse order."""
    lines = (features / "features.csv").read_text().splitlines(keepends=True)
    n_head = next(i for i, line in enumerate(lines) if not line.startswith("#")) + 1
    (features / "reordered.csv").write_text("".join(lines[:n_head] + lines[:n_head - 1:-1]))


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
    # the commands run in OUT, so a relative PYTHONPATH entry is resolved here
    path = [str(Path(p).resolve()) for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
            if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    for command in COMMANDS:
        proc = subprocess.run([sys.executable, "-m", "qeeg.cli", *command], cwd=out,
                              env=env, capture_output=True, text=True)
        print("$ qeeg " + " ".join(command))
        print(proc.stdout, end="")
        if proc.returncode != 0:
            print(proc.stderr, end="", file=sys.stderr)
            return 1
        if command[0] == "features":
            write_reordered_cache(out / "features")
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        print(f"{digest}  {path.relative_to(out).as_posix()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
