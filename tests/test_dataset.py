"""Recording I/O, split convention, and synthetic dataset tests."""
import csv
import dataclasses
import io
import json
import pickle
import warnings

import numpy as np
import pytest

from qeeg import dataset
from qeeg.dataset import (BandProfile, EegRecording, SynthSpec,
                          load_recording, session_split_keys,
                          save_recording, synthesize_dataset, STANDARD_MONTAGE_19)
from qeeg.errors import SplitError, ValidationError
from qeeg.spectral import band_by_name, relative_band_power, segment


def small_recording(subject="S01", session=1, label="AD", n=256, fs=128.0):
    rng = np.random.default_rng(0)
    return EegRecording(subject_id=subject, session_index=session, label=label,
                        sampling_rate_hz=fs, channel_labels=("Fp1", "Fp2"),
                        samples=rng.standard_normal((2, n)), montage="10-20")


def test_recording_validation():
    with pytest.raises(ValidationError, match="duplicate channel label"):
        EegRecording("S", 1, "AD", 250.0, ("Cz", "Cz"), np.zeros((2, 10)))
    with pytest.raises(ValidationError, match="non-finite sample"):
        EegRecording("S", 1, "AD", 250.0, ("a", "b"),
                     np.array([[0.0, np.nan], [0.0, 0.0]]))
    with pytest.raises(ValidationError, match="unknown montage label"):
        EegRecording("S", 1, "AD", 250.0, ("Fp1", "XX"), np.zeros((2, 10)),
                     montage="10-20")
    with pytest.raises(ValidationError, match="sampling rate"):
        EegRecording("S", 1, "AD", 50.0, ("Fp1",), np.zeros((1, 10)))
    with pytest.raises(ValidationError, match="unknown label"):
        EegRecording("S", 1, "MCI", 250.0, ("Fp1",), np.zeros((1, 10)))


CACHE_BREAKING = {  # a field the feature cache cannot hold, and its error
    "subject_comma": ({"subject_id": "S,01"}, "subject_id 'S,01' starts with '#' or"),
    "subject_newline": ({"subject_id": "S\n01"}, "subject_id 'S\\n01' starts with '#' or"),
    "subject_carriage_return": ({"subject_id": "S\r01"},
                                "subject_id 'S\\r01' starts with '#' or"),
    "subject_file_separator": ({"subject_id": "S\x1c01"},
                               "subject_id 'S\\x1c01' starts with '#' or"),
    "subject_comment": ({"subject_id": "#NonAD01"},
                        "subject_id '#NonAD01' starts with '#' or"),
    "channel_comma": ({"channel_labels": ("F,7", "F8")}, "channel label 'F,7' holds"),
    "channel_vertical_tab": ({"channel_labels": ("F\x0b7", "F8")},
                             "channel label 'F\\x0b7' holds"),
}


@pytest.mark.parametrize("change,message", CACHE_BREAKING.values(), ids=CACHE_BREAKING)
def test_recording_rejects_what_the_cache_cannot_hold(change, message):
    fields = dict(subject_id="S01", session_index=1, label="AD", sampling_rate_hz=128.0,
                  channel_labels=("F7", "F8"), samples=np.zeros((2, 16)))
    with pytest.raises(ValidationError) as info:
        EegRecording(**{**fields, **change})
    assert str(info.value).startswith(message)


@pytest.mark.parametrize("change,message", CACHE_BREAKING.values(), ids=CACHE_BREAKING)
def test_load_rejects_what_the_cache_cannot_hold(tmp_path, change, message):
    manifest = save_recording(small_recording(), tmp_path, stem="r")
    fields = {**json.loads(manifest.read_text()), "montage": None}
    labels = change.get("channel_labels", ("Fp1", "Fp2"))
    manifest.write_text(json.dumps({**fields, "subject_id": change.get("subject_id", "S01")}))
    header = io.StringIO()
    csv.writer(header).writerow(labels)
    (tmp_path / "r.csv").write_text(header.getvalue().rstrip("\r\n") + "\n1.0,2.0\n")
    with pytest.raises(ValidationError) as info:
        load_recording(manifest)
    assert str(info.value).startswith(message)


def test_recording_samples_immutable():
    rec = small_recording()
    with pytest.raises(ValueError):
        rec.samples[0, 0] = 1.0


def test_save_load_roundtrip_bit_exact(tmp_path):
    rec = small_recording()
    manifest = save_recording(rec, tmp_path)
    back = load_recording(manifest)
    assert back.subject_id == rec.subject_id
    assert back.session_index == rec.session_index
    assert back.label == rec.label
    assert back.sampling_rate_hz == rec.sampling_rate_hz
    assert back.channel_labels == rec.channel_labels
    assert back.montage == rec.montage
    assert np.array_equal(back.samples, rec.samples)


def test_load_paper_dimensions(tmp_path):
    rng = np.random.default_rng(1)
    rec = EegRecording("P01", 2, "NonAD", 250.0, STANDARD_MONTAGE_19,
                       rng.standard_normal((19, 10000)), montage="10-20")
    manifest = save_recording(rec, tmp_path)
    back = load_recording(manifest)
    assert back.n_samples == 10000 and back.n_channels == 19


def test_load_errors(tmp_path):
    with pytest.raises(ValidationError, match="manifest not found"):
        load_recording(tmp_path / "nope.json")

    manifest = tmp_path / "r.json"
    manifest.write_text(json.dumps({
        "subject_id": "S", "session_index": 1, "label": "AD",
        "sampling_rate_hz": 250.0, "data_file": "r.csv"}))
    with pytest.raises(ValidationError, match="data file not found"):
        load_recording(manifest)

    (tmp_path / "r.csv").write_text("a,b\n1.0,2.0\n3.0\n")
    with pytest.raises(ValidationError, match="ragged row 2"):
        load_recording(manifest)

    (tmp_path / "r.csv").write_text("a,b\n1.0,2.0\n3.0,nan\n")
    with pytest.raises(ValidationError, match="non-finite sample"):
        load_recording(manifest)

    (tmp_path / "r.csv").write_text("Cz,Cz\n1.0,2.0\n")
    with pytest.raises(ValidationError, match="duplicate channel label"):
        load_recording(manifest)

    (tmp_path / "r.csv").write_text("")
    with pytest.raises(ValidationError, match="malformed header"):
        load_recording(manifest)


def test_unpickled_recording_stays_read_only():
    rec = small_recording()
    back = pickle.loads(pickle.dumps(rec))
    assert np.array_equal(back.samples, rec.samples) and back.key() == rec.key()
    with pytest.raises(ValueError):
        back.samples[0, 0] = 1.0


@pytest.mark.parametrize("name,message", [("r.json", "malformed manifest {path}: "),
                                          ("r.csv", "data file {path} is not text: ")])
def test_load_names_a_file_that_is_not_text(tmp_path, name, message):
    manifest = save_recording(small_recording(), tmp_path, stem="r")
    path = tmp_path / name
    path.write_bytes(path.read_bytes() + b"\xff")
    with pytest.raises(ValidationError) as info:
        load_recording(manifest)
    assert str(info.value).startswith(message.format(path=path))
    assert "can't decode byte 0xff" in str(info.value)


BAD_MANIFESTS = {  # the manifest's JSON value, and its error after "manifest PATH"
    "not_an_object": (5, " is not a JSON object"),
    "session_index_text": ({"session_index": "x"},
                           ": session_index must be an integer, got 'x'"),
    "session_index_fraction": ({"session_index": 1.7},
                               ": session_index must be an integer, got 1.7"),
    "session_index_bool": ({"session_index": True},
                           ": session_index must be an integer, got True"),
    "sampling_rate_text": ({"sampling_rate_hz": "fast"},
                           ": sampling_rate_hz must be a number, got 'fast'"),
    "data_file_number": ({"data_file": 5}, ": data_file must be a string, got 5"),
    "subject_id_null": ({"subject_id": None}, ": subject_id must be a string, got None"),
    "label_number": ({"label": 1}, ": label must be a string, got 1"),
    "montage_number": ({"montage": 7}, ": montage must be a string or null, got 7"),
    "sampling_rate_infinite": ({"sampling_rate_hz": float("inf")},
                               ": sampling_rate_hz must be a number, got inf"),
}


@pytest.mark.parametrize("change,message", BAD_MANIFESTS.values(), ids=BAD_MANIFESTS)
def test_load_names_the_bad_manifest_key(tmp_path, change, message):
    manifest = save_recording(small_recording(), tmp_path, stem="r")
    if isinstance(change, dict):
        change = {**json.loads(manifest.read_text()), **change}
    manifest.write_text(json.dumps(change))
    with pytest.raises(ValidationError) as info:
        load_recording(manifest)
    assert str(info.value) == f"manifest {manifest}{message}"


BAD_BODIES = {
    "blank_row": ("1.0,2.0\n\n3.0,4.0\n", "ragged row 2 in {csv}: 0 values, expected 2"),
    "extra_field": ("1.0,2.0\n3.0,4.0,5.0\n", "ragged row 2 in {csv}: 3 values, expected 2"),
    "missing_field": ("1.0,2.0\n3.0\n", "ragged row 2 in {csv}: 1 values, expected 2"),
    "blank_last_row": ("1.0,2.0\n\n", "ragged row 2 in {csv}: 0 values, expected 2"),
    "blank_row_unterminated": ("1.0,2.0\n\n3.0,4.0",
                               "ragged row 2 in {csv}: 0 values, expected 2"),
    "whitespace_row": ("1.0,2.0\n \t\n3.0,4.0\n", "ragged row 2 in {csv}: 0 values, expected 2"),
    # only "\n" ends a row, so the vertical tab joins two rows into one
    "vertical_tab_inside": ("1.0,2.0\x0b3.0,4.0\n",
                            "ragged row 1 in {csv}: 3 values, expected 2"),
    "only_blank_rows": ("\n\n", "ragged row 1 in {csv}: 0 values, expected 2"),
    "no_samples": ("", "{csv} contains a header but no samples"),
    "bad_value": ("1.0,2.0\n3.0,x\n", "bad value in {csv}: could not convert string 'x'"),
}


@pytest.fixture
def parses(monkeypatch):
    """The list of bodies `load_recording` has handed to its parser."""
    calls = []

    def parse(body):
        calls.append(body)
        return parse_body(body)

    parse_body = dataset._parse_body
    monkeypatch.setattr(dataset, "_parse_body", parse)
    return calls


@pytest.mark.parametrize("body,message", BAD_BODIES.values(), ids=BAD_BODIES)
def test_load_names_the_bad_row(tmp_path, parses, body, message):
    manifest = save_recording(small_recording(), tmp_path, stem="r")
    csv_path = tmp_path / "r.csv"
    csv_path.write_text("Fp1,Fp2\n" + body)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no parser warning on the way to the error
        with pytest.raises(ValidationError) as info:
            load_recording(manifest)
    assert str(info.value).startswith(message.format(csv=csv_path))
    assert len(parses) <= 1


def test_load_counts_a_whitespace_row_of_one_channel_as_no_values(tmp_path):
    manifest = save_recording(small_recording(), tmp_path, stem="r")
    csv_path = tmp_path / "r.csv"
    csv_path.write_text("Fp1\n1.0\n \n2.0\n")
    with pytest.raises(ValidationError) as info:
        load_recording(manifest)
    assert str(info.value) == f"ragged row 2 in {csv_path}: 0 values, expected 1"


ACCEPTED_BODIES = {  # bodies that load as the plain "1.0,2.0\n3.0,4.0\n"
    "unterminated": "1.0,2.0\n3.0,4.0",
    "crlf": "1.0,2.0\r\n3.0,4.0\r\n",  # read_text turns "\r\n" into "\n"
    "spaces": " 1.0, 2.0\n3.0,4.0\n",
    "no_break_space": "1.0,\xa02.0\xa0\n3.0,4.0\n",
    # the parse strips these as whitespace
    "vertical_tab": "1.0,2.0\x0b\n3.0,4.0\n",
    "form_feed": "1.0,2.0\x0c\n3.0,4.0\n",
    "line_separator": "1.0,2.0\u2028\n3.0,4.0\n",
}


@pytest.mark.parametrize("body", ACCEPTED_BODIES.values(), ids=ACCEPTED_BODIES)
def test_load_accepts_the_bodies_the_parse_reads(tmp_path, parses, body):
    manifest = save_recording(small_recording(), tmp_path, stem="r")
    (tmp_path / "r.csv").write_text("Fp1,Fp2\n" + body)
    assert np.array_equal(load_recording(manifest).samples, [[1.0, 3.0], [2.0, 4.0]])
    assert len(parses) == 1


def session_keys(subject, n=6):
    return [(subject, s) for s in range(1, n + 1)]


def test_session_split_11_subjects():
    keys = []
    for i in range(5):
        keys += session_keys(f"AD{i:02d}")
    for i in range(6):
        keys += session_keys(f"NS{i:02d}")
    train, test = session_split_keys(keys)
    assert len(train) == 55 and len(test) == 11
    assert all(session <= 5 for _, session in train)
    assert all(session == 6 for _, session in test)
    # partition: disjoint and exhaustive
    assert len(set(train) | set(test)) == 66
    assert len(train) + len(test) == len(keys)


def test_session_split_single_subject():
    train, test = session_split_keys(session_keys("A"))
    assert len(train) == 5 and len(test) == 1


def test_session_split_rejects_wrong_session_count():
    with pytest.raises(SplitError, match="B"):
        session_split_keys(session_keys("A") + session_keys("B", n=5))


def test_session_split_keys_orders_by_subject_then_session():
    train, test = session_split_keys(reversed(session_keys("B") + session_keys("A")))
    assert train == session_keys("A", n=5) + session_keys("B", n=5)
    assert test == [("A", 6), ("B", 6)]
    with pytest.raises(SplitError, match="B"):
        session_split_keys([("A", s) for s in range(1, 7)] + [("B", 1), ("B", 1)])


def test_synth_determinism():
    spec = SynthSpec.default(channel_labels=("Fp1", "Fp2", "O1"),
                             subjects={"AD": 1, "NonAD": 1},
                             alpha_affected=("O1",))
    a = synthesize_dataset(spec, seed=9)
    b = synthesize_dataset(spec, seed=9)
    assert len(a) == len(b) == 12
    for ra, rb in zip(a, b):
        assert ra.key() == rb.key()
        assert np.array_equal(ra.samples, rb.samples)
    c = synthesize_dataset(spec, seed=10)
    assert not np.array_equal(a[0].samples, c[0].samples)


def test_synth_default_dimensions():
    spec = SynthSpec.default()
    recs = synthesize_dataset(spec, seed=0)
    assert len(recs) == 66
    assert all(r.n_samples == 10000 for r in recs)
    assert all(r.n_channels == 19 for r in recs)
    assert sum(r.label == "AD" for r in recs) == 30
    train, test = session_split_keys(r.key() for r in recs)
    assert len(train) == 55 and len(test) == 11


def test_synth_pure_alpha_tone_has_alpha_power():
    spec = SynthSpec(subjects={"AD": 1, "NonAD": 0}, sessions_per_subject=1,
                     channel_labels=("Fp1",), duration_seconds=4.0,
                     sampling_rate_hz=250.0,
                     profiles=(BandProfile("AD", "alpha", 1.0, None, 0.0,
                                           frequency_hz=10.0),))
    rec = synthesize_dataset(spec, seed=3)[0]
    segs = segment(rec, 1.0)
    for s in segs[0]:
        assert relative_band_power(s, 250.0, band_by_name("alpha")) >= 0.95


def test_synth_spec_validation():
    with pytest.raises(ValidationError):
        SynthSpec(subjects={"AD": 1},
                  profiles=(BandProfile("AD", "alpha", -1.0),))
    with pytest.raises(ValidationError):
        SynthSpec(subjects={"AD": 1},
                  profiles=(BandProfile("AD", "alpha", 1.0, ("NotAChannel",)),))
    with pytest.raises(ValidationError):
        SynthSpec(subjects={})


@pytest.mark.parametrize("field", ["channel_labels", "alpha_affected"])
def test_synth_spec_default_rejects_a_string_of_labels(field):
    with pytest.raises(ValidationError, match=f"^{field} must be a list"):
        SynthSpec.default(**{"channel_labels": ("Fp1", "Fp2"), field: "Fp1"})


AD_ALPHA = {"class": "AD", "band": "alpha", "amplitude": 1.0}  # one profile, as JSON
BAD_SPECS = {  # a change to a valid spec's JSON, and the field its error names
    "duration_nan": ({"duration_seconds": float("nan")}, "duration_seconds"),
    "duration_overflow": ({"duration_seconds": 1e999}, "duration_seconds"),
    "sampling_rate_nan": ({"sampling_rate_hz": float("nan")}, "sampling_rate_hz"),
    "sampling_rate_overflow": ({"sampling_rate_hz": 1e999}, "sampling_rate_hz"),
    "subjects_fraction": ({"subjects": {"AD": 1.5, "NonAD": 1}}, "subject count for AD"),
    "subjects_bool": ({"subjects": {"AD": True, "NonAD": 1}}, "subject count for AD"),
    "sessions_fraction": ({"sessions_per_subject": 2.5}, "sessions_per_subject"),
    "sessions_bool": ({"sessions_per_subject": True}, "sessions_per_subject"),
    "amplitude_nan": ({"amplitude": float("nan")}, "amplitude"),
    "amplitude_overflow": ({"amplitude": 1e999}, "amplitude"),
    "noise_nan": ({"noise_sigma": float("nan")}, "noise_sigma"),
    "frequency_nan": ({"frequency_hz": float("nan")}, "frequency_hz"),
    "frequency_overflow": ({"frequency_hz": -1e999}, "frequency_hz"),
    # JSON's true and false are no numbers, although Python's bool is an int
    "duration_bool": ({"duration_seconds": True}, "duration_seconds"),
    "amplitude_bool": ({"amplitude": True}, "amplitude"),
    "noise_bool": ({"noise_sigma": True}, "noise_sigma"),
    "frequency_bool": ({"frequency_hz": False}, "frequency_hz"),
    # tuple() of a string is its characters: "Fp1" would be channels F, p and 1
    "channel_labels_string": ({"channel_labels": "Fp1"}, "channel_labels"),
    "channel_labels_numbers": ({"channel_labels": [1, 2]}, "channel_labels"),
    "channel_labels_empty_label": ({"channel_labels": ["Fp1", ""]}, "channel_labels"),
    "channels_affected_string": ({"profiles": [AD_ALPHA | {"channels_affected": "Fp1"}]},
                                 "channels_affected"),
    "channels_affected_number": ({"profiles": [AD_ALPHA | {"channels_affected": ["Fp1", 2]}]},
                                 "channels_affected"),
}


@pytest.mark.parametrize("change,field", BAD_SPECS.values(), ids=BAD_SPECS)
def test_synth_spec_rejects_what_it_cannot_generate(change, field):
    spec = SynthSpec.default(channel_labels=("Fp1", "Fp2"), subjects={"AD": 1, "NonAD": 1})
    obj = spec.to_json()
    if field in ("amplitude", "noise_sigma", "frequency_hz"):
        obj["profiles"][0].update(change)
    else:
        obj.update(change)
    with pytest.raises(ValidationError, match=f"^{field}"):
        SynthSpec.from_json(obj)


def test_synth_spec_json_roundtrip():
    spec = SynthSpec.default(channel_labels=("Fp1", "Fp2", "T7", "T8"),
                             alpha_affected=("T7", "T8"))
    back = SynthSpec.from_json(spec.to_json())
    assert back == spec


@pytest.mark.parametrize("where,key", [("spec", "duration_second"),
                                       ("profile", "noise_sgima")])
def test_synth_spec_rejects_a_key_it_does_not_write(where, key):
    obj = SynthSpec.default(channel_labels=("Fp1", "Fp2")).to_json()
    (obj if where == "spec" else obj["profiles"][1])[key] = 3.0
    with pytest.raises(ValueError) as info:
        SynthSpec.from_json(obj)
    assert str(info.value).startswith(f"unknown {where} key(s) ['{key}']; expected some of ")


EVERY_FIELD_SET = SynthSpec(  # every field other than its default
    subjects={"AD": 1, "NonAD": 2}, sessions_per_subject=3, channel_labels=("Fp1", "Fp2", "T7"),
    duration_seconds=12.5, sampling_rate_hz=128.0,
    profiles=(BandProfile("AD", "alpha", 0.5, ("T7", "Fp1"), 0.25, frequency_hz=9.5),
              BandProfile("NonAD", "theta", 0.75)))


def test_synth_spec_json_roundtrip_of_every_field_through_text():
    back = SynthSpec.from_json(json.loads(json.dumps(EVERY_FIELD_SET.to_json())))
    assert back == EVERY_FIELD_SET
    assert [hash(p) for p in back.profiles] == [hash(p) for p in EVERY_FIELD_SET.profiles]
    assert BandProfile("AD", "alpha", 1.0, ["T7"]).channels_affected == ("T7",)


def test_synth_spec_json_writes_every_field():
    obj = EVERY_FIELD_SET.to_json()
    assert list(obj) == [f.name for f in dataclasses.fields(SynthSpec)]
    assert list(obj["profiles"][0]) == ["class" if f.name == "label" else f.name
                                        for f in dataclasses.fields(BandProfile)]


def test_synth_spec_json_takes_the_field_defaults():
    obj = {"subjects": {"AD": 1}, "profiles": [{"class": "AD", "band": "alpha", "amplitude": 1.0}]}
    assert SynthSpec.from_json(obj) == SynthSpec(subjects={"AD": 1},
                                                 profiles=(BandProfile("AD", "alpha", 1.0),))


@pytest.mark.parametrize("where,key", [("spec", "subjects"), ("profile", "class"),
                                       ("profile", "band"), ("profile", "amplitude")])
def test_synth_spec_names_a_missing_key(where, key):
    obj = SynthSpec.default(channel_labels=("Fp1", "Fp2")).to_json()
    del (obj if where == "spec" else obj["profiles"][1])[key]
    with pytest.raises(KeyError) as info:
        SynthSpec.from_json(obj)
    assert info.value.args == (key,)
