"""End-to-end CLI tests on a small synthetic dataset."""
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qeeg

from qeeg import cli, pool
from qeeg.cli import main
from qeeg.dataset import SynthSpec

MONTAGE = ("F7", "F8", "T7", "T8", "P4")
AFFECTED = ("F8", "T7", "T8")


@pytest.fixture(scope="module")
def spec_path(tmp_path_factory):
    root = tmp_path_factory.mktemp("spec")
    spec = SynthSpec.default(channel_labels=MONTAGE, alpha_affected=AFFECTED,
                             subjects={"AD": 2, "NonAD": 2})
    spec = SynthSpec(subjects=spec.subjects, sessions_per_subject=6,
                     channel_labels=MONTAGE, duration_seconds=10.0,
                     sampling_rate_hz=200.0, profiles=spec.profiles)
    path = root / "spec.json"
    path.write_text(json.dumps(spec.to_json()))
    return path


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory, spec_path):
    out = tmp_path_factory.mktemp("data")
    rc = main(["synth", "--spec", str(spec_path), "--seed", "5", "--out", str(out)])
    assert rc == 0
    return out


def read_output_json(path):
    doc = json.loads(path.read_text())
    assert "config" in doc and "checksum" in doc and "data" in doc
    payload = json.dumps(doc["data"], sort_keys=True)
    assert hashlib.sha256(payload.encode()).hexdigest() == doc["checksum"]
    return doc


def test_synth_writes_recordings_and_manifest(data_dir):
    csvs = sorted(data_dir.glob("*.csv"))
    manifests = [p for p in data_dir.glob("*.json")
                 if not p.name.endswith("_manifest.json")]
    assert len(csvs) == 24 and len(manifests) == 24
    run = json.loads((data_dir / "synth_manifest.json").read_text())
    assert run["command"] == "synth"
    assert len(run["outputs"]) == 48
    for name, digest in run["outputs"].items():
        assert hashlib.sha256((data_dir / name).read_bytes()).hexdigest() == digest


def test_features_idempotent(data_dir, tmp_path):
    out1 = tmp_path / "f1"
    out2 = tmp_path / "f2"
    assert main(["features", "--data", str(data_dir), "--out", str(out1)]) == 0
    assert main(["features", "--data", str(data_dir), "--out", str(out2)]) == 0
    b1 = (out1 / "features.csv").read_bytes()
    b2 = (out2 / "features.csv").read_bytes()
    assert b1 == b2
    text = (out1 / "features.csv").read_text()
    assert text.startswith("# config: ")
    payload = text.split("\n", 2)[2]
    checksum = text.split("\n")[1].split(": ")[1]
    assert hashlib.sha256(payload.encode()).hexdigest() == checksum
    # 24 recordings x 5 channels x 4 bands x 10 segments data rows
    assert sum(1 for ln in payload.splitlines() if ln) - 1 == 24 * 5 * 4 * 10


def test_train_eval_cycle(data_dir, tmp_path):
    model_dir = tmp_path / "model"
    rc = main(["train", "--data", str(data_dir), "--band", "alpha",
               "--channels", "F8,T7,T8,P4", "--pcs", "3", "--out", str(model_dir)])
    assert rc == 0
    doc = read_output_json(model_dir / "model.json")
    assert doc["data"]["qpca"]["p"] == 3
    assert doc["config"]["command"] == "train"

    eval_dir = tmp_path / "eval"
    rc = main(["eval", "--model", str(model_dir / "model.json"),
               "--data", str(data_dir), "--out", str(eval_dir)])
    assert rc == 0
    mdoc = read_output_json(eval_dir / "metrics.json")
    counts = mdoc["data"]
    assert counts["tp"] + counts["tn"] + counts["fp"] + counts["fn"] == 4

    # metrics are deterministic across re-runs
    eval_dir2 = tmp_path / "eval2"
    main(["eval", "--model", str(model_dir / "model.json"),
          "--data", str(data_dir), "--out", str(eval_dir2)])
    assert (eval_dir / "metrics.json").read_bytes() == \
        (eval_dir2 / "metrics.json").read_bytes()


def test_eval_band_mismatch_is_config_error(data_dir, tmp_path, capsys):
    model_dir = tmp_path / "model"
    main(["train", "--data", str(data_dir), "--band", "alpha",
          "--channels", "F8,T7,T8,P4", "--pcs", "2", "--out", str(model_dir)])
    rc = main(["eval", "--model", str(model_dir / "model.json"),
               "--data", str(data_dir), "--band", "beta", "--out", str(tmp_path / "x")])
    assert rc == 1
    assert "does not match model band" in capsys.readouterr().err


# a model without its quadruple, and one whose segment length is null
@pytest.mark.parametrize("field,delete", [("quadruple", True), ("segment_seconds", False)])
def test_eval_rejects_an_incomplete_model(data_dir, tmp_path, capsys, field, delete):
    model_dir = tmp_path / "model"
    assert main(["train", "--data", str(data_dir), "--band", "alpha",
                 "--channels", "F8,T7,T8,P4", "--pcs", "2", "--out", str(model_dir)]) == 0
    path = model_dir / "model.json"
    doc = json.loads(path.read_text())
    if delete:
        del doc["data"]["qpca"][field]
    else:
        doc["data"]["qpca"][field] = None
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    rc = main(["eval", "--model", str(path), "--data", str(data_dir),
               "--out", str(tmp_path / "eval")])
    assert (rc, capsys.readouterr().err) == (
        1, f"error: --model {path} is not a qeeg train model: qpca has no {field}\n")
    assert not (tmp_path / "eval").exists()


def test_search_parallelism_byte_identical(data_dir, tmp_path):
    out1 = tmp_path / "s1"
    out8 = tmp_path / "s8"
    base = ["search", "--data", str(data_dir), "--band", "alpha",
            "--p-sweep-limit", "5"]
    assert main(base + ["--parallelism", "1", "--out", str(out1)]) == 0
    assert main(base + ["--parallelism", "8", "--out", str(out8)]) == 0
    for name in ("search_results.csv", "search_summary.csv", "search_ranked.json"):
        assert (out1 / name).read_bytes() == (out8 / name).read_bytes()
    results = (out1 / "search_results.csv").read_text().splitlines()
    data_rows = [r for r in results if r and not r.startswith("#")][1:]
    assert len(data_rows) == 120  # C(5,4) * 24


def test_crossval_deterministic(data_dir, tmp_path):
    out1 = tmp_path / "cv1"
    out2 = tmp_path / "cv2"
    base = ["crossval", "--data", str(data_dir), "--band", "alpha",
            "--channels", "F8,T7,T8,P4", "--pcs", "3", "--k", "4",
            "--repeats", "3", "--seed", "9"]
    assert main(base + ["--out", str(out1)]) == 0
    assert main(base + ["--out", str(out2)]) == 0
    assert (out1 / "crossval.json").read_bytes() == (out2 / "crossval.json").read_bytes()
    doc = read_output_json(out1 / "crossval.json")
    assert doc["data"]["k"] == 4 and doc["data"]["repeats"] == 3
    assert 0.0 <= doc["data"]["mean_score"] <= 1.0


def test_sweep_command(data_dir, tmp_path):
    out = tmp_path / "sweep"
    rc = main(["sweep", "--data", str(data_dir), "--band", "alpha",
               "--channels", "F8,T7,T8,P4", "--axis", "pcs",
               "--values", "1,2,3", "--out", str(out)])
    assert rc == 0
    rows = [r for r in (out / "sweep.csv").read_text().splitlines()
            if r and not r.startswith("#")]
    assert rows[0] == "axis,value,acc,sen,spe,p_used,error"
    assert len(rows) == 4


def test_connectivity_command(data_dir, tmp_path):
    out = tmp_path / "conn"
    rc = main(["connectivity", "--data", str(data_dir), "--mode", "quadruple",
               "--band", "alpha", "--out", str(out)])
    assert rc == 0
    tensor = read_output_json(out / "tensor_alpha_AD.json")
    assert tensor["data"]["mode"] == "quadruple"
    assert len(tensor["data"]["entries"]) == 120  # 5*4*3*2 ordered quadruples
    report = read_output_json(out / "distance_report.json")
    assert "alpha" in report["data"]["mean_dist"]


def test_baseline_command(data_dir, tmp_path):
    out = tmp_path / "base"
    rc = main(["baseline", "--data", str(data_dir), "--band", "alpha",
               "--channels", "F8,T7,T8,P4", "--p-sweep-limit", "5",
               "--out", str(out)])
    assert rc == 0
    doc = read_output_json(out / "comparison.json")
    assert doc["data"]["qpca"]["acc"] is not None
    assert doc["data"]["real_pca"]["acc"] is not None


def _payloads(out):
    """Output payloads by file name, without the config echo (it names --cache)."""
    payloads = {}
    for path in sorted(out.iterdir()):
        if path.name.endswith("_manifest.json"):
            continue
        text = path.read_text()
        if path.suffix == ".csv":
            payloads[path.name] = text.split("\n", 2)[2]
        else:
            payloads[path.name] = json.dumps(json.loads(text)["data"], sort_keys=True)
    return payloads


def test_features_cache_reuse_matches_direct(data_dir, tmp_path, monkeypatch,
                                            pool_workers):
    fdir = tmp_path / "feat"
    main(["features", "--data", str(data_dir), "--out", str(fdir)])
    commands = {
        "train": ["train", "--data", str(data_dir), "--band", "alpha",
                  "--channels", "F8,T7,T8,P4", "--pcs", "2"],
        "eval": ["eval", "--model", str(tmp_path / "train_direct" / "model.json"),
                 "--data", str(data_dir), "--split", "all"],
        "search": ["search", "--data", str(data_dir), "--band", "alpha",
                   "--p-sweep-limit", "3", "--parallelism", "1"],
        "connectivity": ["connectivity", "--data", str(data_dir),
                         "--mode", "triple", "--band", "alpha"],
    }
    for name, base in commands.items():
        assert main(base + ["--out", str(tmp_path / f"{name}_direct")]) == 0

    def no_read(path):
        raise AssertionError(f"recording {path} read despite --cache")

    # one loader process, so that the replaced name is the one that runs
    pool_workers(1)
    monkeypatch.setattr("qeeg.cli.load_recording", no_read)
    for name, base in commands.items():
        with pytest.raises(AssertionError, match="read despite --cache"):
            main(base + ["--out", str(tmp_path / f"{name}_read")])
    for name, base in commands.items():
        cached = tmp_path / f"{name}_cached"
        assert main(base + ["--cache", str(fdir / "features.csv"),
                            "--out", str(cached)]) == 0
        direct = _payloads(tmp_path / f"{name}_direct")
        assert direct and _payloads(cached) == direct


def test_eval_rejects_cache_of_another_segment_length(data_dir, tmp_path, capsys):
    assert main(["features", "--data", str(data_dir), "--segment-seconds", "2.0",
                 "--out", str(tmp_path / "feat")]) == 0
    assert main(["train", "--data", str(data_dir), "--band", "alpha",
                 "--channels", "F8,T7,T8,P4", "--pcs", "2",
                 "--out", str(tmp_path / "model")]) == 0
    capsys.readouterr()
    rc = main(["eval", "--model", str(tmp_path / "model" / "model.json"),
               "--data", str(data_dir), "--cache", str(tmp_path / "feat" / "features.csv"),
               "--out", str(tmp_path / "eval")])
    assert rc == 1
    assert ("cache was built with --segment-seconds 2.0, requested 1.0"
            in capsys.readouterr().err)
    assert not (tmp_path / "eval").exists()


@pytest.mark.parametrize("with_cache", [False, True])
def test_eval_rejects_a_model_whose_segment_length_is_text(data_dir, tmp_path, capsys,
                                                           with_cache):
    assert main(["features", "--data", str(data_dir), "--out", str(tmp_path / "feat")]) == 0
    assert main(["train", "--data", str(data_dir), "--band", "alpha",
                 "--channels", "F8,T7,T8,P4", "--pcs", "2",
                 "--out", str(tmp_path / "model")]) == 0
    path = tmp_path / "model" / "model.json"
    doc = json.loads(path.read_text())
    doc["data"]["qpca"]["segment_seconds"] = "1.0"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    cache = ["--cache", str(tmp_path / "feat" / "features.csv")] if with_cache else []
    rc = main(["eval", "--model", str(path), "--data", str(data_dir), *cache,
               "--out", str(tmp_path / "eval")])
    assert (rc, capsys.readouterr().err) == (
        1, f"error: --model {path} is not a qeeg train model: qpca segment_seconds "
           f"must be a positive finite number, got '1.0'\n")
    assert not (tmp_path / "eval").exists()


@pytest.mark.parametrize("mean_vector", [[[1.0, 2.0, 3.0]] * 10, []],
                         ids=["three_columns", "empty"])
def test_eval_rejects_a_model_whose_mean_vector_is_not_n_by_4(data_dir, tmp_path, capsys,
                                                              mean_vector):
    assert main(["train", "--data", str(data_dir), "--band", "alpha",
                 "--channels", "F8,T7,T8,P4", "--pcs", "2",
                 "--out", str(tmp_path / "model")]) == 0
    path = tmp_path / "model" / "model.json"
    doc = json.loads(path.read_text())
    doc["data"]["qpca"]["mean_vector"] = mean_vector
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    rc = main(["eval", "--model", str(path), "--data", str(data_dir),
               "--out", str(tmp_path / "eval")])
    shape = np.asarray(mean_vector).shape
    assert (rc, capsys.readouterr().err) == (
        1, f"error: mean_vector must be an n x 4 array, got shape {shape}\n")
    assert not (tmp_path / "eval").exists()


def test_loader_outputs_do_not_depend_on_workers(data_dir, tmp_path, pool_workers):
    outputs = {}
    for cores in (1, 2):
        sizes = pool_workers(cores)
        out = tmp_path / f"w{cores}"
        assert main(["features", "--data", str(data_dir), "--out", str(out / "feat")]) == 0
        assert main(["search", "--data", str(data_dir), "--band", "alpha",
                     "--p-sweep-limit", "3", "--parallelism", "1",
                     "--out", str(out / "search")]) == 0
        assert sizes == ([] if cores == 1 else [2, 2])
        outputs[cores] = {p.relative_to(out): p.read_bytes() for p in out.rglob("*")
                          if p.is_file() and not p.name.endswith("_manifest.json")}
    assert len(outputs[1]) == 4 and outputs[1] == outputs[2]


def test_loader_pool_is_no_larger_than_the_manifest_count(data_dir, pool_workers):
    sizes = pool_workers(64, in_process=True)
    assert len(cli._load_recordings(str(data_dir))) == 24
    assert sizes == [24]


def test_loader_reports_the_first_bad_recording(data_dir, tmp_path, pool_workers, capsys):
    import shutil

    data = tmp_path / "data"
    shutil.copytree(data_dir, data)
    csvs = sorted(data.glob("*.csv"))
    csvs[3].write_text(csvs[3].read_text() + "1.0\n")
    csvs[-1].write_text(csvs[-1].read_text().split("\n", 1)[0] + "\n")
    errors = {}
    for cores in (1, 2):
        pool_workers(cores)
        rc = main(["features", "--data", str(data), "--out", str(tmp_path / "feat")])
        errors[cores] = (rc, capsys.readouterr().err)
    assert errors[1] == errors[2]
    assert errors[1] == (1, f"error: ragged row 2001 in {csvs[3]}: 1 values, expected 5\n")
    assert not (tmp_path / "feat").exists()


def test_loader_reports_a_bad_manifest_value(data_dir, tmp_path, pool_workers, capsys):
    import shutil

    data = tmp_path / "data"
    shutil.copytree(data_dir, data)
    manifest = sorted(p for p in data.glob("*.json")
                      if not p.name.endswith("_manifest.json"))[2]
    manifest.write_text(json.dumps({**json.loads(manifest.read_text()), "session_index": "x"}))
    errors = {}
    for cores in (1, 2):
        pool_workers(cores)
        rc = main(["features", "--data", str(data), "--out", str(tmp_path / "feat")])
        errors[cores] = (rc, capsys.readouterr().err)
    assert errors[1] == errors[2] == (
        1, f"error: manifest {manifest}: session_index must be an integer, got 'x'\n")
    assert not (tmp_path / "feat").exists()


def test_loader_reports_a_recording_that_is_not_text(data_dir, tmp_path, pool_workers,
                                                     capsys):
    import shutil

    data = tmp_path / "data"
    shutil.copytree(data_dir, data)
    bad = sorted(data.glob("*.csv"))[2]
    bad.write_bytes(b"F7,F8,T7,T8,P4\n\xff\n")
    errors = {}
    for cores in (1, 2):
        pool_workers(cores)
        rc = main(["features", "--data", str(data), "--out", str(tmp_path / "feat")])
        errors[cores] = (rc, capsys.readouterr().err)
    assert errors[1] == errors[2]
    assert errors[1][0] == 1
    assert errors[1][1].startswith(f"error: data file {bad} is not text: ")
    assert not (tmp_path / "feat").exists()


@pytest.mark.parametrize("subject,header,message", [
    ("S,01", None, "subject_id 'S,01' starts with '#' or"),
    ("#NonAD01", None, "subject_id '#NonAD01' starts with '#' or"),
    ("S\r01", None, "subject_id 'S\\r01' starts with '#' or"),
    (None, '"F,7",F8,T7,T8,P4', "channel label 'F,7' holds")])
def test_features_rejects_what_the_cache_cannot_hold(data_dir, tmp_path, pool_workers,
                                                     capsys, subject, header, message):
    import shutil

    data = tmp_path / "data"
    shutil.copytree(data_dir, data)
    manifests = sorted(p for p in data.glob("*.json")
                       if not p.name.endswith("_manifest.json"))
    if subject is not None:
        manifests[4].write_text(json.dumps({**json.loads(manifests[4].read_text()),
                                            "subject_id": subject}))
    for manifest in manifests if header is not None else ():
        # every recording on one montage other than the 10/20 set, which
        # admits any label
        manifest.write_text(json.dumps({**json.loads(manifest.read_text()), "montage": None}))
        csv_path = manifest.with_suffix(".csv")
        csv_path.write_text(header + "\n" + csv_path.read_text().split("\n", 1)[1])
    errors = {}
    for cores in (1, 2):
        pool_workers(cores)
        rc = main(["features", "--data", str(data), "--out", str(tmp_path / "feat")])
        errors[cores] = (rc, capsys.readouterr().err)
    assert errors[1] == errors[2]
    assert errors[1][0] == 1 and errors[1][1].startswith(f"error: {message}")
    assert not (tmp_path / "feat").exists()


def test_recordings_from_the_pool_are_read_only(data_dir, pool_workers):
    sizes = pool_workers(2)
    recordings = cli._load_recordings(str(data_dir))
    assert sizes == [2] and len(recordings) == 24
    assert not any(r.samples.flags.writeable for r in recordings)


def test_search_parallelism_defaults_to_usable_cores(monkeypatch):
    monkeypatch.setattr(pool, "usable_cores", lambda: 3)
    args = cli.build_parser().parse_args(["search", "--data", "d", "--band", "alpha",
                                          "--out", "o"])
    assert args.parallelism == 3


def test_connectivity_measures_each_tuple_once(data_dir, tmp_path, monkeypatch):
    from qeeg import connectivity

    calls = []
    measure_values = connectivity.measure_values

    def counted(cache, keys, channels, band):
        calls.append((tuple(channels), band))
        return measure_values(cache, keys, channels, band)

    monkeypatch.setattr(connectivity, "measure_values", counted)
    rc = main(["connectivity", "--data", str(data_dir), "--mode", "triple",
               "--out", str(tmp_path / "conn")])
    assert rc == 0
    # one call per rotation class of the 5 * 4 * 3 ordered triples, per band
    assert len(calls) == len(set(calls)) == 5 * 4 * 3 // 3 * 4


def test_sweep_rejects_cache(data_dir, tmp_path, capsys):
    rc = main(["sweep", "--data", str(data_dir), "--band", "alpha",
               "--channels", "F8,T7,T8,P4", "--axis", "pcs", "--values", "1",
               "--cache", str(tmp_path / "features.csv"),
               "--out", str(tmp_path / "sweep")])
    assert rc == 1
    assert "--cache" in capsys.readouterr().err
    assert not (tmp_path / "sweep").exists()


def test_parallelism_is_a_search_flag(data_dir, tmp_path):
    with pytest.raises(SystemExit):
        main(["train", "--data", str(data_dir), "--band", "alpha",
              "--channels", "F8,T7,T8,P4", "--parallelism", "2",
              "--out", str(tmp_path / "t")])


QUAD = ["--band", "alpha", "--channels", "F8,T7,T8,P4"]
WITHOUT_SEED = {"train": QUAD, "search": ["--band", "alpha"],
                "sweep": [*QUAD, "--axis", "pcs", "--values", "1"],
                "baseline": QUAD}


@pytest.mark.parametrize("command", WITHOUT_SEED)
def test_seed_is_a_crossval_flag(data_dir, tmp_path, capsys, command):
    with pytest.raises(SystemExit):
        main([command, "--data", str(data_dir), *WITHOUT_SEED[command],
              "--seed", "1", "--out", str(tmp_path / "o")])
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


CACHE_HEADER = "subject_id,session_index,label,channel,band,segment_index,value\n"
# a complete cache of one AD subject: 3 channels, 4 bands, 1 segment, sessions 1..6
AD_ONLY_CACHE = CACHE_HEADER + "".join(
    f"S01,{session},AD,{channel},{band},0,0.{session}{c}{b}\n"
    for session in range(1, 7) for c, channel in enumerate(("F7", "T7", "P4"))
    for b, band in enumerate(("delta", "theta", "alpha", "beta")))
# two classes, every value 0.25: each channel tuple is degenerate
CONSTANT_CACHE = CACHE_HEADER + "".join(
    f"{subject},{session},{label},{channel},{band},0,0.25\n"
    for subject, label in (("S01", "AD"), ("S02", "NonAD")) for session in range(1, 7)
    for channel in ("F7", "T7", "P4") for band in ("delta", "theta", "alpha", "beta"))
BAD_COMMANDS = {  # argv, and the content of the file named {file}
    "sweep_pcs_values": (["sweep", "--data", "{data}", *QUAD, "--axis", "pcs",
                          "--values", "1,x"], None),
    "sweep_segment_values": (["sweep", "--data", "{data}", *QUAD, "--axis", "segment",
                              "--values", "1.0,abc"], None),
    "model_not_json": (["eval", "--data", "{data}", "--model", "{file}"], "not json\n"),
    "model_without_data": (["eval", "--data", "{data}", "--model", "{file}"], "{}\n"),
    "cache_session_not_int": (["train", "--data", "{data}", *QUAD, "--cache", "{file}"],
                              CACHE_HEADER + "S01,x,AD,F7,alpha,0,0.5\n"),
    "cache_short_row": (["search", "--data", "{data}", "--band", "alpha",
                         "--cache", "{file}"],
                        CACHE_HEADER + "S01,1,AD,F7,alpha,0.5\n"),
    "cache_broken_header": (["connectivity", "--data", "{data}", "--mode", "triple",
                             "--cache", "{file}"], "# config: {broken\n" + CACHE_HEADER),
    "cache_without_rows": (["connectivity", "--data", "{data}", "--mode", "triple",
                            "--cache", "{file}"], CACHE_HEADER),
    "connectivity_one_class": (["connectivity", "--data", "{data}", "--mode", "triple",
                                "--band", "alpha", "--cache", "{file}"], AD_ONLY_CACHE),
    "train_without_channels": (["train", "--data", "{data}", "--band", "alpha"], None),
    "train_p_sweep_limit": (["train", "--data", "{data}", *QUAD, "--p-sweep-limit", "3"],
                            None),
    "crossval_p_sweep_limit": (["crossval", "--data", "{data}", *QUAD,
                                "--p-sweep-limit", "3"], None),
    "spec_not_json": (["synth", "--spec", "{file}"], "not json\n"),
    "spec_without_subjects": (["synth", "--spec", "{file}"], "{}\n"),
    "spec_not_an_object": (["synth", "--spec", "{file}"], "[]\n"),
    "spec_duration_nan": (["synth", "--spec", "{file}"],
                          '{"subjects": {"AD": 1}, "duration_seconds": NaN}\n'),
    "features_segment_nan": (["features", "--data", "{data}", "--segment-seconds", "nan"],
                             None),
    "features_segment_inf": (["features", "--data", "{data}", "--segment-seconds", "inf"],
                             None),
    # finite, but its sample count overflows to inf
    "features_segment_1e308": (["features", "--data", "{data}", "--segment-seconds", "1e308"],
                               None),
    "search_svm_c_nan": (["search", "--data", "{data}", "--band", "alpha",
                          "--svm-c", "nan"], None),
    "train_svm_c_inf": (["train", "--data", "{data}", *QUAD, "--pcs", "2", "--svm-c", "inf"],
                        None),
    "connectivity_cache_segment_inf": (["connectivity", "--data", "{data}", "--mode", "triple",
                                        "--segment-seconds", "inf", "--cache", "{file}"],
                                       CONSTANT_CACHE),
    "cache_not_utf8": (["connectivity", "--data", "{data}", "--mode", "triple",
                        "--cache", "{file}"], b"\xff"),
    "synth_seed_negative": (["synth", "--seed", "-1"], None),
    "crossval_seed_negative": (["crossval", "--data", "{data}", *QUAD, "--seed", "-1"], None),
}


@pytest.mark.parametrize("argv,content", BAD_COMMANDS.values(), ids=BAD_COMMANDS)
def test_bad_input_is_an_error_without_out_dir(data_dir, tmp_path, capsys,
                                               argv, content):
    bad = tmp_path / "input"
    if isinstance(content, bytes):
        bad.write_bytes(content)
    elif content is not None:
        bad.write_text(content)
    argv = [arg.replace("{file}", str(bad)).replace("{data}", str(data_dir))
            for arg in argv]
    out = tmp_path / "out"
    rc = main(argv + ["--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and "Traceback" not in err
    assert not out.exists()


def test_synth_names_a_misspelled_spec_key(spec_path, tmp_path, capsys):
    spec = json.loads(spec_path.read_text())
    spec["profiles"][0]["noise_sgima"] = spec["profiles"][0].pop("noise_sigma")
    bad = tmp_path / "spec.json"
    bad.write_text(json.dumps(spec))
    out = tmp_path / "out"
    assert main(["synth", "--spec", str(bad), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: --spec {bad} is not a SynthSpec: ValueError: unknown profile key(s) "
        f"['noise_sgima']; expected some of ['class', 'band', 'amplitude', "
        f"'channels_affected', 'noise_sigma', 'frequency_hz']\n")
    assert not out.exists()


@pytest.mark.parametrize("config,message", [
    ("[]", "config header is not a JSON object"),
    ('{"segment_seconds": "1.0"}', "config segment_seconds '1.0' is not a number"),
    ('{"segment_seconds": true}', "config segment_seconds True is not a number"),
], ids=["list", "text", "boolean"])
def test_cache_config_is_an_object_whose_segment_length_is_a_number(data_dir, tmp_path,
                                                                    capsys, config, message):
    cache = tmp_path / "features.csv"
    cache.write_text(f"# config: {config}\n" + CONSTANT_CACHE)
    out = tmp_path / "out"
    rc = main(["connectivity", "--data", str(data_dir), "--mode", "triple",
               "--cache", str(cache), "--out", str(out)])
    assert (rc, capsys.readouterr().err) == (1, f"error: --cache {cache}: {message}\n")
    assert not out.exists()


def _features_lines(data_dir, out):
    """The lines of a features.csv written to `out`, ends kept, and the
    index of its first data row."""
    assert main(["features", "--data", str(data_dir), "--out", str(out)]) == 0
    lines = (out / "features.csv").read_text().splitlines(keepends=True)
    return lines, next(i for i, line in enumerate(lines) if not line.startswith("#")) + 1


def test_connectivity_rejects_a_cache_with_rows_swapped(data_dir, tmp_path, capsys):
    lines, first = _features_lines(data_dir, tmp_path / "feat")
    lines[first:first + 2] = lines[first + 1], lines[first]
    swapped = tmp_path / "swapped.csv"
    swapped.write_text("".join(lines))
    capsys.readouterr()
    out = tmp_path / "out"
    rc = main(["connectivity", "--data", str(data_dir), "--mode", "triple",
               "--cache", str(swapped), "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"error: feature cache line {first + 1}: ")
    assert not out.exists()


def test_connectivity_reads_a_crlf_cache_as_written(data_dir, tmp_path):
    lines, _ = _features_lines(data_dir, tmp_path / "feat")
    crlf = tmp_path / "crlf.csv"
    crlf.write_bytes("".join(lines).replace("\n", "\r\n").encode())
    for name, cache in (("lf", tmp_path / "feat" / "features.csv"), ("crlf", crlf)):
        assert main(["connectivity", "--data", str(data_dir), "--mode", "triple",
                     "--band", "alpha", "--cache", str(cache),
                     "--out", str(tmp_path / name)]) == 0
    assert _payloads(tmp_path / "crlf") == _payloads(tmp_path / "lf")


def test_runs_without_scipy(spec_path, tmp_path):
    # scipy is only the test oracle of the periodogram; blocking it in a
    # fresh interpreter shows that the package needs numpy alone
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import qeeg\n"
        "from qeeg.cli import main\n"
        "spec, out = sys.argv[1], sys.argv[2]\n"
        "assert main(['synth', '--spec', spec, '--out', out + '/data']) == 0\n"
        "assert main(['features', '--data', out + '/data',\n"
        "             '--out', out + '/feat']) == 0\n")
    env = dict(os.environ, PYTHONPATH=str(Path(qeeg.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script, str(spec_path), str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "feat" / "features.csv").is_file()


def test_outputs_do_not_depend_on_blas_threads(tmp_path):
    # 40 one-second segments make some products large enough for OpenBLAS
    # to split over threads, which changes how they round unless the command
    # runs BLAS on one thread
    libs_dir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    if not any(libs_dir.glob("*scipy_openblas*")):
        pytest.skip("numpy does not bundle a scipy-openblas library")
    spec = SynthSpec.default(channel_labels=MONTAGE, alpha_affected=AFFECTED,
                             subjects={"AD": 2, "NonAD": 2})
    spec = SynthSpec(subjects=spec.subjects, sessions_per_subject=6,
                     channel_labels=MONTAGE, duration_seconds=40.0,
                     sampling_rate_hz=100.0, profiles=spec.profiles)
    (tmp_path / "spec.json").write_text(json.dumps(spec.to_json()))
    data = tmp_path / "data"
    assert main(["synth", "--spec", str(tmp_path / "spec.json"), "--seed", "5",
                 "--out", str(data)]) == 0
    outputs = {}
    for threads in ("1", "2"):
        out = tmp_path / f"conn{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=str(Path(qeeg.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-m", "qeeg.cli", "connectivity",
                               "--data", str(data), "--mode", "quadruple",
                               "--band", "alpha", "--out", str(out)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        # the manifest names --out, every other file must be the same bytes
        outputs[threads] = {p.name: p.read_bytes() for p in out.iterdir()
                            if not p.name.endswith("_manifest.json")}
    assert len(outputs["1"]) == 3 and outputs["1"] == outputs["2"]


def test_command_pins_blas_and_restores_it(data_dir, tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr("qeeg.cli.set_blas_threads", lambda n: calls.append(n) or 7)
    assert main(["features", "--data", str(data_dir), "--out", str(tmp_path / "f")]) == 0
    assert main(["features", "--data", str(tmp_path / "missing"),
                 "--out", str(tmp_path / "g")]) == 1
    assert calls == [1, 7, 1, 7]  # one thread while it runs, the caller's after


def test_usage_errors(tmp_path, capsys):
    with pytest.raises(SystemExit):
        main(["search", "--data", str(tmp_path), "--out", str(tmp_path / "o")])
    rc = main(["features", "--data", str(tmp_path / "missing"),
               "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "not found" in capsys.readouterr().err
    empty = tmp_path / "empty"
    empty.mkdir()
    rc = main(["features", "--data", str(empty), "--out", str(tmp_path / "o2")])
    assert rc == 1
    assert "no recording manifests" in capsys.readouterr().err


BANDS = ("delta", "theta", "alpha", "beta")
# option strings -> (dest, default, type name, choices, required)
OUT = {"--out": ("out", None, None, None, True)}
DATA = {"--data": ("data", None, None, None, True), **OUT}
SEGMENT = {"--segment-seconds": ("segment_seconds", 1.0, "float", None, False)}
CACHE = {"--cache": ("cache", None, None, None, False)}
CHANNELS = {"--channels": ("channels", None, "_channels_arg", None, False)}
TRIAL = {
    **DATA, **SEGMENT, **CACHE,
    "--band": ("band", None, None, BANDS, True),
    "--projection": ("projection", "mean", None, ("mean", "absolute", "norm", "phase"), False),
    "--pcs": ("pcs", None, "int", None, False),
    "--pc-threshold": ("pc_threshold", None, "float", None, False),
    "--p-sweep-limit": ("p_sweep_limit", None, "int", None, False),
    "--svm-c": ("svm_c", 1.0, "float", None, False),
}
PARSER_SURFACE = {
    "synth": {**OUT, "--spec": ("spec", None, None, None, False),
              "--seed": ("seed", 0, "int", None, False)},
    "features": {**DATA, **SEGMENT},
    "train": {**TRIAL, **CHANNELS},
    "eval": {**DATA, **CHANNELS, **CACHE,
             "--model": ("model", None, None, None, True),
             "--split": ("split", "testing", None, ("testing", "training", "all"), False),
             "--band": ("band", None, None, BANDS, False)},
    "search": {**TRIAL, "--parallelism": ("parallelism", 3, "int", None, False)},
    "connectivity": {**DATA, **SEGMENT, **CACHE,
                     "--mode": ("mode", None, None, ("triple", "quadruple"), True),
                     "--band": ("band", None, None, BANDS, False),
                     "--include-testing": ("include_testing", False, None, None, False)},
    "crossval": {**TRIAL, **CHANNELS,
                 "--k": ("k", 10, "int", None, False),
                 "--repeats": ("repeats", 1000, "int", None, False),
                 "--unstratified": ("unstratified", False, None, None, False),
                 "--seed": ("seed", 0, "int", None, False)},
    "sweep": {**TRIAL, **CHANNELS,
              "--axis": ("axis", None, None, ("segment", "projection", "pcs"), True),
              "--values": ("values", None, None, None, True)},
    "baseline": {**TRIAL, **CHANNELS},
}


def test_parser_surface(monkeypatch):
    import argparse

    monkeypatch.setattr(pool, "usable_cores", lambda: 3)
    parser = cli.build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    surface = {name: {" ".join(a.option_strings): (
        a.dest, a.default, getattr(a.type, "__name__", None),
        None if a.choices is None else tuple(a.choices), a.required)
        for a in command._actions if a.dest != "help"}
        for name, command in commands.items()}
    assert surface == PARSER_SURFACE


def test_unstratified_folds(data_dir, tmp_path):
    from qeeg.classifier import cross_validate

    rng = np.random.default_rng(3)
    x = rng.standard_normal((23, 2))
    y = np.where(np.arange(23) < 8, 1.0, -1.0)
    runs = [cross_validate(x, y, k=5, repeats=4, seed=seed, stratified=False)
            for seed in (1, 1, 2)]
    for folds in runs[0].fold_ids:
        sizes = np.bincount(folds, minlength=5)
        assert sizes.min() >= 1 and sizes.max() - sizes.min() <= 1 and sizes.sum() == 23
    assert all(np.array_equal(a, b) for a, b in zip(runs[0].fold_ids, runs[1].fold_ids))
    assert not all(np.array_equal(a, b) for a, b in zip(runs[0].fold_ids, runs[2].fold_ids))

    out = tmp_path / "cv"
    assert main(["crossval", "--data", str(data_dir), *QUAD, "--pcs", "2", "--k", "4",
                 "--repeats", "2", "--unstratified", "--out", str(out)]) == 0
    assert read_output_json(out / "crossval.json")["config"]["stratified"] is False


def test_connectivity_band_without_measured_tuple(data_dir, tmp_path, capsys):
    cache = tmp_path / "features.csv"
    cache.write_text(CONSTANT_CACHE)
    out = tmp_path / "conn"
    assert main(["connectivity", "--data", str(data_dir), "--mode", "triple",
                 "--band", "alpha", "--cache", str(cache), "--out", str(out)]) == 0
    assert "mean Dist alpha=n/a" in capsys.readouterr().out
    report = read_output_json(out / "distance_report.json")["data"]
    assert report["mean_dist"] == {"alpha": None} and report["skipped"] == {"alpha": 6}
