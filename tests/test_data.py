import json
import struct

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
    "record not an object": manifest_bytes(records=[1]),
    "record without path": manifest_bytes(records=[{"id": "a", "split": "train"}]),
    "record unknown key": manifest_bytes(records=[record(label=1)]),
    "id not a string": manifest_bytes(records=[record(id=1)]),
    "split null": manifest_bytes(records=[record(split=None)]),
    "path with NUL": manifest_bytes(records=[record(path="a\0b")]),
    "score bool": manifest_bytes(records=[record(score=True)]),
    "score string": manifest_bytes(records=[record(score="0.5")]),
    "duplicate ids": manifest_bytes(records=[record(), record(path="b.amft")]),
    "unknown split": manifest_bytes(records=[record(split="dev")]),
    "score outside [0, 1]": manifest_bytes(records=[record(score=1.5)]),
}


@pytest.mark.parametrize("fault", sorted(BAD_MANIFESTS))
def test_malformed_manifest_is_format_error(tmp_path, fault):
    path = tmp_path / "manifest.json"
    path.write_bytes(BAD_MANIFESTS[fault])
    with pytest.raises(dat.ManifestFormatError) as info:
        dat.load_manifest(path)
    assert str(path) in str(info.value)


def test_load_split_needs_scores(tmp_path):
    dat.write_feature_file(tmp_path / "a.amft", np.zeros((1, 1)), w=1, h=1)
    manifest = dat.Manifest(w=1, h=1, d=1, records=[
        dat.ManifestRecord(id="a", path="a.amft", score=None, split="train"),
    ])
    assert dat.load_split(manifest, tmp_path, "test") == []
    with pytest.raises(dat.ManifestFormatError, match="'a'.*no score"):
        dat.load_split(manifest, tmp_path, "train")


def test_load_split_checks_dims(tmp_path):
    dat.write_feature_file(tmp_path / "a.amft", np.zeros((4, 3)), w=2, h=2)
    manifest = dat.Manifest(w=2, h=2, d=9, records=[
        dat.ManifestRecord(id="a", path="a.amft", score=0.5, split="train"),
    ])
    with pytest.raises(dat.FeatureFormatError, match="disagree"):
        dat.load_split(manifest, tmp_path, "train")


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
