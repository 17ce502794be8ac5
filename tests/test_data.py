import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_load_split_checks_dims(tmp_path):
    dat.write_feature_file(tmp_path / "a.amft", np.zeros((4, 3)), w=2, h=2)
    manifest = dat.Manifest(w=2, h=2, d=9, records=[
        dat.ManifestRecord(id="a", path="a.amft", score=0.5, split="train"),
    ])
    with pytest.raises(dat.FeatureFormatError, match="disagree"):
        dat.load_split(manifest, tmp_path, "train")


# --- image codecs -----------------------------------------------------------

def test_ppm_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    img = rng.integers(0, 256, size=(5, 7, 3), dtype=np.uint8)
    path = tmp_path / "img.ppm"
    dat.write_ppm(path, img)
    np.testing.assert_array_equal(dat.read_ppm(path), img)


def test_ppm_with_comment(tmp_path):
    img = np.zeros((2, 2, 3), dtype=np.uint8)
    blob = b"P6\n# a comment\n2 2\n255\n" + img.tobytes()
    path = tmp_path / "c.ppm"
    path.write_bytes(blob)
    np.testing.assert_array_equal(dat.read_ppm(path), img)


def test_pgm_header(tmp_path):
    img = np.arange(6, dtype=np.uint8).reshape(2, 3)
    path = tmp_path / "img.pgm"
    dat.write_pgm(path, img)
    blob = path.read_bytes()
    assert blob.startswith(b"P5\n3 2\n255\n")
    assert blob[-6:] == img.tobytes()


# --- augmentation -----------------------------------------------------------

def make_image(h=300, w=400, seed=2):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)


def test_identity_crop_returns_input():
    img = make_image(224, 224)
    out = dat.resized_crop(img, (0, 0, 224, 224), 224)
    np.testing.assert_array_equal(out, img)


def test_random_resized_crop_output_dims():
    rng = np.random.default_rng(3)
    for _ in range(5):
        out = dat.random_resized_crop(make_image(), rng)
        assert out.shape == (224, 224, 3)
        assert out.dtype == np.uint8


def test_random_resized_crop_deterministic_rect():
    rect_a = dat.sample_crop_rect(np.random.default_rng(4), 300, 400)
    rect_b = dat.sample_crop_rect(np.random.default_rng(4), 300, 400)
    assert rect_a == rect_b


def test_random_resized_crop_tiny_image_fallback():
    rng = np.random.default_rng(5)
    out = dat.random_resized_crop(make_image(1, 1), rng)
    assert out.shape == (224, 224, 3)


@settings(deadline=None, max_examples=20)
@given(st.integers(min_value=0, max_value=2 ** 31))
def test_flip_involution(seed):
    img = make_image(8, 9, seed=seed % 100)

    class AlwaysFlip:
        def random(self):
            return 0.0

    flipped = dat.horizontal_flip(img, AlwaysFlip())
    np.testing.assert_array_equal(dat.horizontal_flip(flipped, AlwaysFlip()), img)


def test_flip_reverses_column_gradient():
    img = np.tile(np.arange(10, dtype=np.uint8)[None, :, None], (4, 1, 3))

    class AlwaysFlip:
        def random(self):
            return 0.0

    flipped = dat.horizontal_flip(img, AlwaysFlip())
    np.testing.assert_array_equal(flipped[:, :, 0], img[:, ::-1, 0])


def test_flip_seeded_reproducible():
    img = make_image(8, 8)
    a = dat.horizontal_flip(img, np.random.default_rng(6))
    b = dat.horizontal_flip(img, np.random.default_rng(6))
    np.testing.assert_array_equal(a, b)


def test_center_crop_identity():
    img = make_image(224, 224)
    np.testing.assert_array_equal(dat.center_crop(img), img)


def test_center_crop_middle_columns():
    img = make_image(224, 448)
    np.testing.assert_array_equal(dat.center_crop(img), img[:, 112:336])


def test_center_crop_odd_excess_offset():
    img = make_image(225, 224)
    np.testing.assert_array_equal(dat.center_crop(img), img[0:224, :])


# --- toy extractor ----------------------------------------------------------

def test_toy_extract_constant_image_uniform_features():
    img = np.full((224, 224, 3), 130, dtype=np.uint8)
    features = dat.toy_extract(img, extractor_seed=0)
    assert features.shape == (196, 32)
    np.testing.assert_allclose(features, np.tile(features[0], (196, 1)), atol=1e-12)


def test_toy_extract_deterministic():
    img = make_image(224, 224, seed=7)
    a = dat.toy_extract(img, extractor_seed=1)
    b = dat.toy_extract(img, extractor_seed=1)
    np.testing.assert_array_equal(a, b)


def test_toy_extract_rejects_wrong_dims():
    with pytest.raises(ValueError):
        dat.toy_extract(np.zeros((100, 100, 3), dtype=np.uint8), 0)


def test_toy_extract_pooling_oracle():
    # block-constant image: each 16x16 block pools to its own value exactly
    blocks = np.random.default_rng(8).integers(0, 256, size=(14, 14))
    img = np.repeat(np.repeat(blocks, 16, axis=0), 16, axis=1)
    img = np.stack([img] * 3, axis=-1).astype(np.uint8)
    features = dat.toy_extract(img, extractor_seed=2)
    rng = np.random.default_rng(2)
    projection = rng.normal(size=(3, 32)) / np.sqrt(3.0)
    pixel = np.maximum((blocks[..., None] / 255.0 * np.ones(3)) @ projection, 0.0)
    np.testing.assert_allclose(features, pixel.reshape(196, 32), atol=1e-12)


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
