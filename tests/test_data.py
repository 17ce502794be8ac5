import hashlib
import json
import os
import struct
import tracemalloc
import types

import numpy as np
import pytest

from memattn import data as dat
from memattn.metrics import spearman_rho


# --- feature files ----------------------------------------------------------

def test_feature_file_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    features = rng.normal(size=(6, 5)).astype(np.float32).astype(np.float64)
    path = tmp_path / "a.amft"
    dat.write_feature_file(path, features, w=3, h=2)
    w, h, d, loaded = dat.load_feature_file(path)
    assert (w, h, d) == (3, 2, 5)
    np.testing.assert_array_equal(loaded, features)  # exact at f32 precision


def test_feature_file_bad_magic(tmp_path):
    path = tmp_path / "bad.amft"
    path.write_bytes(b"XXXX" + b"\0" * 32)
    with pytest.raises(dat.FeatureFormatError, match="magic"):
        dat.load_feature_file(path)


def test_feature_file_truncated(tmp_path):
    path = tmp_path / "short.amft"
    dat.write_feature_file(path, np.zeros((4, 3)), w=2, h=2)
    blob = path.read_bytes()
    path.write_bytes(blob[:-5])
    with pytest.raises(dat.FeatureFormatError, match="expected .* got"):
        dat.load_feature_file(path)


def test_feature_file_truncated_header(tmp_path):
    path = tmp_path / "short.amft"
    path.write_bytes(b"AMFT" + struct.pack("<II", 1, 2))
    with pytest.raises(dat.FeatureFormatError, match="header"):
        dat.load_feature_file(path)


def test_oversized_feature_file_is_rejected_before_its_payload_is_read(tmp_path):
    # a valid 2x2x4 header in front of a 64 MB sparse file
    path = tmp_path / "big.amft"
    with open(path, "wb") as f:
        f.write(b"AMFT" + struct.pack("<IIII", 1, 2, 2, 4))
        f.truncate(64 << 20)
    tracemalloc.start()
    try:
        with pytest.raises(dat.FeatureFormatError, match="expected 84 bytes, got 67108864"):
            dat.load_feature_file(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_feature_file_that_shrinks_before_its_read_is_format_error(tmp_path, monkeypatch):
    path = tmp_path / "short.amft"
    dat.write_feature_file(path, np.zeros((4, 3)), w=2, h=2)
    path.write_bytes(path.read_bytes()[:-8])
    with monkeypatch.context() as patch:  # the size check still sees the full file
        patch.setattr(dat.os, "fstat", lambda fd: types.SimpleNamespace(st_size=20 + 48))
        with pytest.raises(dat.FeatureFormatError, match="short read, 40 of 48 payload bytes"):
            dat.load_feature_file(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_feature_file_non_finite_rejected(tmp_path, bad):
    features = np.zeros((4, 3))
    features[2, 1] = bad
    path = tmp_path / "bad.amft"
    dat.write_feature_file(path, features, w=2, h=2)
    with pytest.raises(dat.FeatureFormatError, match="non-finite") as info:
        dat.load_feature_file(path)
    assert str(path) in str(info.value)


def test_feature_file_hand_built_fixture(tmp_path):
    # 2x2 grid, 3 channels, values 0..11 as little-endian f32
    values = np.arange(12, dtype="<f4")
    blob = b"AMFT" + struct.pack("<IIII", 1, 2, 2, 3) + values.tobytes()
    path = tmp_path / "hand.amft"
    path.write_bytes(blob)
    w, h, d, loaded = dat.load_feature_file(path)
    assert (w, h, d) == (2, 2, 3)
    np.testing.assert_array_equal(loaded, np.arange(12.0).reshape(4, 3))


def _faulty_feature_files(tmp_path):
    """(name, path, out, expected message) for each way load_feature_file fails."""
    good = tmp_path / "good.amft"
    dat.write_feature_file(good, np.zeros((4, 3)), w=2, h=2)
    blob = good.read_bytes()
    bad = {
        "bad magic": b"XXXX" + blob[4:],
        "short header": blob[:12],
        "version": blob[:4] + struct.pack("<I", 2) + blob[8:],
        "size": blob[:-4],
    }
    nan = np.zeros((4, 3))
    nan[1, 1] = np.nan
    dat.write_feature_file(tmp_path / "nan.amft", nan, w=2, h=2)
    for name, content in bad.items():
        (tmp_path / f"{name}.amft").write_bytes(content)
    return [
        ("bad magic", tmp_path / "bad magic.amft", None, "bad magic"),
        ("short header", tmp_path / "short header.amft", None, "truncated header"),
        ("version", tmp_path / "version.amft", None, "unsupported version 2"),
        ("size", tmp_path / "size.amft", None, "expected 68 bytes, got 64"),
        ("non-finite", tmp_path / "nan.amft", None, "non-finite"),
        ("out of the wrong size", good, np.empty(13, np.float32), "an output of 13 values"),
    ]


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_feature_file_errors_leave_no_file_open(tmp_path, monkeypatch):
    def open_fds():
        return len(os.listdir("/proc/self/fd"))

    cases = _faulty_feature_files(tmp_path)
    before = open_fds()
    for name, path, out, message in cases:
        with pytest.raises(dat.FeatureFormatError, match=message):
            dat.load_feature_file(path, out)
        assert open_fds() == before, name
    # the size check sees the whole file, which then reads short
    monkeypatch.setattr(dat.os, "fstat", lambda fd: types.SimpleNamespace(st_size=20 + 48))
    for out in (None, np.empty(12, np.float32)):
        with pytest.raises(dat.FeatureFormatError, match="short read, 44 of 48 payload bytes"):
            dat.load_feature_file(tmp_path / "size.amft", out)
        assert open_fds() == before
    # a directory opens but fails to read, and the error names it
    with pytest.raises(IsADirectoryError) as info:
        dat.load_feature_file(tmp_path)
    assert str(info.value).endswith(f"Is a directory: {str(tmp_path)!r}")
    assert open_fds() == before


# --- manifests --------------------------------------------------------------

def test_manifest_roundtrip(tmp_path):
    manifest = dat.Manifest(w=2, h=2, d=3, records=[
        dat.ManifestRecord(id="a", path="a.amft", score=0.25, split="train"),
        dat.ManifestRecord(id="b", path="b.amft", score=None, split="test"),
    ])
    path = tmp_path / "manifest.json"
    dat.save_manifest(path, manifest)
    loaded = dat.load_manifest(path)
    assert loaded == manifest


def test_manifest_duplicate_ids_rejected():
    manifest = dat.Manifest(w=1, h=1, d=1, records=[
        dat.ManifestRecord(id="a", path="a", score=0.5, split="train"),
        dat.ManifestRecord(id="a", path="b", score=0.5, split="test"),
    ])
    with pytest.raises(ValueError, match="duplicate"):
        manifest.validate()


def test_manifest_score_range_enforced():
    manifest = dat.Manifest(w=1, h=1, d=1, records=[
        dat.ManifestRecord(id="a", path="a", score=1.5, split="train"),
    ])
    with pytest.raises(ValueError, match="score"):
        manifest.validate()


def manifest_bytes(records=None, **top):
    """A one-record manifest as save_manifest writes it, with top-level keys replaced."""
    payload = {"w": 1, "h": 1, "d": 1, "records": [record()] if records is None else records}
    payload.update(top)
    return json.dumps(payload).encode()


def record(**fields):
    return {"id": "a", "path": "a.amft", "score": 0.5, "split": "train", **fields}


def third(bad):
    """A manifest whose third of three records is bad."""
    return manifest_bytes(records=[record(id="r0"), record(id="r1"), bad])


BAD_MANIFESTS = {
    "not JSON": b"{bad",
    "not UTF-8": manifest_bytes().replace(b'"a"', b'"\xff"'),
    "not an object": b"[1]",
    "missing records": b'{"w": 1, "h": 1, "d": 1}',
    "unknown top-level key": manifest_bytes(extra=1),
    "w string": manifest_bytes(w="2"),
    "w float": manifest_bytes(w=2.0),
    "w bool": manifest_bytes(w=True),
    "d zero": manifest_bytes(d=0),
    "records not a list": manifest_bytes(records={}),
    "record not an object": third(1),
    "record without path": third({"id": "a", "split": "train"}),
    "record unknown key": third(record(label=1)),
    "id not a string": third(record(id=1)),
    "id with NUL": third(record(id="a\0b")),
    "split null": third(record(split=None)),
    "split with NUL": third(record(split="train\0")),
    "path with NUL": third(record(path="a\0b")),
    "path not a string": third(record(path=["a.amft"])),
    "score bool": third(record(score=True)),
    "score string": third(record(score="0.5")),
    "duplicate ids": manifest_bytes(records=[record(), record(path="b.amft")]),
    "unknown split": third(record(split="dev")),
    "score outside [0, 1]": third(record(score=1.5)),
}

# how the message about each fault of one record begins: the index and the key,
# or the id for the faults that only the whole manifest's checks see
RECORD_FAULTS = {
    "record not an object": "record 2 must be an object with keys id, path, split",
    "record without path": "record 2 must be an object with keys id, path, split",
    "record unknown key": "record 2 must be an object with keys id, path, split",
    "id not a string": "record 2: id must be a string without NUL, got 1",
    "id with NUL": "record 2: id must be a string without NUL, got 'a\\x00b'",
    "split null": "record 2: split must be a string without NUL, got None",
    "split with NUL": "record 2: split must be a string without NUL, got 'train\\x00'",
    "path with NUL": "record 2: path must be a string without NUL, got 'a\\x00b'",
    "path not a string": "record 2: path must be a string without NUL, got ['a.amft']",
    "score bool": "record 2: score must be a number, got True",
    "score string": "record 2: score must be a number, got '0.5'",
    "unknown split": "manifest: unknown split 'dev' for id a",
    "score outside [0, 1]": "manifest: score 1.5 outside [0,1] for id a",
}


@pytest.mark.parametrize("fault", sorted(BAD_MANIFESTS))
def test_malformed_manifest_is_format_error(tmp_path, fault):
    path = tmp_path / "manifest.json"
    path.write_bytes(BAD_MANIFESTS[fault])
    with pytest.raises(dat.ManifestFormatError) as info:
        dat.load_manifest(path)
    assert str(path) in str(info.value)
    if fault in RECORD_FAULTS:
        assert str(info.value).startswith(f"{path}: {RECORD_FAULTS[fault]}")


def test_manifest_record_faults_are_reported_in_order(tmp_path):
    # the first bad record, and within it the shape, then id, path, split, then score
    path = tmp_path / "manifest.json"
    for records, message in [
        ([record(id="r0"), record(split=None, score="x"), record(id=1)],
         "record 1: split must be"),
        ([record(id="a\0", path=3, label=1)], "record 0 must be an object"),
        ([record(id="a\0", path=3, score="x")], "record 0: id must be"),
        ([record(path=3, split="\0")], "record 0: path must be"),
        ([record(split="dev"), record(id=1)], "record 1: id must be"),
    ]:
        path.write_bytes(manifest_bytes(records=records))
        with pytest.raises(dat.ManifestFormatError) as info:
            dat.load_manifest(path)
        assert str(info.value).startswith(f"{path}: {message}")


def test_load_split_needs_scores(tmp_path):
    dat.write_feature_file(tmp_path / "a.amft", np.zeros((1, 1)), w=1, h=1)
    manifest = dat.Manifest(w=1, h=1, d=1, records=[
        dat.ManifestRecord(id="a", path="a.amft", score=None, split="train"),
    ])
    path = tmp_path / "manifest.json"
    assert dat.load_split(manifest, path, "test") == []
    with pytest.raises(dat.ManifestFormatError, match="'a'.*no score") as info:
        dat.load_split(manifest, path, "train")
    assert str(info.value).startswith(f"{path}: ")  # the error names the manifest file


def test_load_split_reads_no_feature_file(tmp_path, monkeypatch):
    manifest, _ = dat.synth_dataset(8, tmp_path, seed=1, w=2, h=2, d=4)
    reads = []
    monkeypatch.setattr(dat, "load_feature_file", reads.append)
    for split in dat.SPLITS:
        records = dat.load_split(manifest, tmp_path / "manifest.json", split)
        assert [r.path for r in records] == [
            str(tmp_path / r.path) for r in manifest.split_records(split)]
        assert {r.grid for r in records} <= {(2, 2, 4)}
    assert reads == []
    manifest.records[0].score = None
    with pytest.raises(dat.ManifestFormatError, match="no score"):
        dat.load_split(manifest, tmp_path / "manifest.json", "train")
    assert reads == []


def test_first_read_checks_dims(tmp_path):
    # the manifest's grid is checked when a pass first reads the file
    dat.write_feature_file(tmp_path / "a.amft", np.zeros((4, 3)), w=2, h=2)
    manifest = dat.Manifest(w=2, h=2, d=9, records=[
        dat.ManifestRecord(id="a", path="a.amft", score=0.5, split="train"),
    ])
    records = dat.load_split(manifest, tmp_path / "manifest.json", "train")
    with pytest.raises(dat.FeatureFormatError, match="disagree"):
        dat.read_features(records, np.empty((1, 4, 9), np.float32))
    # a grid of the file's size, read into the row, still has to match
    manifest.w, manifest.h, manifest.d = 4, 1, 3
    records = dat.load_split(manifest, tmp_path / "manifest.json", "train")
    with pytest.raises(dat.FeatureFormatError,
                       match=r"a\.amft: dims 2x2x3 disagree with manifest 4x1x3$"):
        dat.read_features(records, np.empty((1, 4, 3), np.float32))


def test_read_features_reads_each_file_straight_into_its_float32_row(tmp_path, monkeypatch):
    manifest, _ = dat.synth_dataset(6, tmp_path, seed=2, w=2, h=2, d=4)
    records = dat.load_split(manifest, tmp_path / "manifest.json", "train")
    expected = [dat.load_feature_file(r.path)[3] for r in records]
    outs, true_load = [], dat.load_feature_file
    monkeypatch.setattr(dat, "load_feature_file",
                        lambda path, out=None: outs.append(out) or true_load(path, out))
    out = np.full((5, 4, 4), -1.0, np.float32)
    x = dat.read_features(records, out)
    assert len(records) == 4 and x.shape == (4, 4, 4) and np.shares_memory(x, out)
    # each file is read into its own row of out, so no array is copied
    assert [o.__array_interface__["data"][0] for o in outs] == [
        row.__array_interface__["data"][0] for row in x]
    for row, features in zip(x, expected):
        np.testing.assert_array_equal(row, features)
    assert (out[4] == -1.0).all()
    # only float32 rows are read, and a float64 out is refused before any file is
    outs.clear()
    with pytest.raises(TypeError, match="float32"):
        dat.read_features(records, np.empty((4, 4, 4)))
    assert [o.dtype for o in outs] == [np.float64]


def test_load_feature_file_reads_into_out(tmp_path):
    features = np.arange(12.0).reshape(4, 3)
    dat.write_feature_file(tmp_path / "a.amft", features, w=2, h=2)
    out = np.full(12, -1.0, np.float32)
    w, h, d, loaded = dat.load_feature_file(tmp_path / "a.amft", out)
    assert (w, h, d) == (2, 2, 3) and loaded.shape == (4, 3) and np.shares_memory(loaded, out)
    np.testing.assert_array_equal(out.reshape(4, 3), features)
    out[...] = -1.0
    with pytest.raises(dat.FeatureFormatError,
                       match="dims 2x2x3 disagree with an output of 16 values"):
        dat.load_feature_file(tmp_path / "a.amft", np.zeros(16, np.float32))


# --- heatmap images ---------------------------------------------------------

def test_pgm_header(tmp_path):
    img = np.arange(6, dtype=np.uint8).reshape(2, 3)
    path = tmp_path / "img.pgm"
    dat.write_pgm(path, img)
    blob = path.read_bytes()
    assert blob.startswith(b"P5\n3 2\n255\n")
    assert blob[-6:] == img.tobytes()


# --- synthetic dataset ------------------------------------------------------

def test_synth_split_counts(tmp_path):
    manifest, _ = dat.synth_dataset(100, tmp_path, seed=0, w=2, h=2, d=4)
    assert len(manifest.split_records("train")) == 70
    assert len(manifest.split_records("val")) == 15
    assert len(manifest.split_records("test")) == 15


def test_synth_bytes_are_pinned(tmp_path):
    # sha256 of the manifest, then of the manifest and the eight feature files
    dat.synth_dataset(8, tmp_path, seed=5, w=2, h=2, d=4)
    names = ["manifest.json"] + [f"features/synth{i:05d}.amft" for i in range(8)]
    blobs = [(tmp_path / name).read_bytes() for name in names]
    assert hashlib.sha256(blobs[0]).hexdigest() == (
        "02248d9ddde3993808872670e449aac74e99dc9169e7f7a7ae022daa710ba6ec")
    assert hashlib.sha256(b"".join(blobs)).hexdigest() == (
        "64dc5552cc5a20ab32a9513b242670c350baf41f91f2b8c55a88bb93075f3580")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["features", "manifest.json"]


def test_synth_deterministic(tmp_path):
    a, _ = dat.synth_dataset(10, tmp_path / "a", seed=9, w=2, h=2, d=4)
    b, _ = dat.synth_dataset(10, tmp_path / "b", seed=9, w=2, h=2, d=4)
    assert [(r.id, r.score, r.split) for r in a.records] == \
           [(r.id, r.score, r.split) for r in b.records]
    for r in a.records:
        fa = dat.load_feature_file(tmp_path / "a" / r.path)[3]
        fb = dat.load_feature_file(tmp_path / "b" / r.path)[3]
        np.testing.assert_array_equal(fa, fb)


def test_synth_scores_in_unit_interval(tmp_path):
    manifest, _ = dat.synth_dataset(50, tmp_path, seed=10, w=2, h=2, d=4, noise=0.3)
    for r in manifest.records:
        assert 0.0 <= r.score <= 1.0


def test_synth_rejects_tiny_n(tmp_path):
    with pytest.raises(ValueError):
        dat.synth_dataset(3, tmp_path, seed=0)


def test_synth_planted_location_oracle_perfect_rho(tmp_path):
    manifest, secret = dat.synth_dataset(60, tmp_path, seed=11, w=3, h=3, d=8, noise=0.0)
    scores, preds = [], []
    for r in manifest.records:
        _, _, _, features = dat.load_feature_file(tmp_path / r.path)
        j = secret.planted[r.id]
        preds.append(float(features[j, 1:] @ secret.weights))
        scores.append(r.score)
    assert spearman_rho(scores, preds) == pytest.approx(1.0, abs=1e-12)


def test_synth_beacon_marks_planted_location(tmp_path):
    manifest, secret = dat.synth_dataset(20, tmp_path, seed=12, w=3, h=3, d=8)
    for r in manifest.records:
        _, _, _, features = dat.load_feature_file(tmp_path / r.path)
        assert int(np.argmax(features[:, 0])) == secret.planted[r.id]
