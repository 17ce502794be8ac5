"""Feature files, dataset manifests, image handling and synthetic data.

Feature files are a small binary format (magic "AMFT"): header with the
grid dimensions, then W*H*D little-endian float32 values, location-major.
Manifests are JSON. Images move through the pipeline as uint8 numpy
arrays of shape (height, width, 3); only PPM (P6) input and PGM (P5)
output are supported.
"""
from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

FEATURE_MAGIC = b"AMFT"
FEATURE_VERSION = 1
CROP_SIZE = 224
SPLITS = ("train", "val", "test")


class FeatureFormatError(ValueError):
    pass


@dataclass
class FeatureRecord:
    id: str
    features: np.ndarray  # (L, D) float64
    score: float | None = None


@dataclass
class ManifestRecord:
    id: str
    path: str
    score: float | None
    split: str


@dataclass
class Manifest:
    w: int
    h: int
    d: int
    records: list[ManifestRecord]

    def validate(self) -> None:
        ids = [r.id for r in self.records]
        if len(set(ids)) != len(ids):
            raise ValueError("manifest: duplicate ids")
        for r in self.records:
            if r.split not in SPLITS:
                raise ValueError(f"manifest: unknown split {r.split!r} for id {r.id}")
            if r.score is not None and not 0.0 <= r.score <= 1.0:
                raise ValueError(f"manifest: score {r.score} outside [0,1] for id {r.id}")

    def split_records(self, split: str) -> list[ManifestRecord]:
        return [r for r in self.records if r.split == split]


def write_feature_file(path, features: np.ndarray, w: int, h: int) -> None:
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[0] != w * h:
        raise ValueError(f"features shape {features.shape} does not match {w}x{h} grid")
    d = features.shape[1]
    with open(path, "wb") as f:
        f.write(FEATURE_MAGIC)
        f.write(struct.pack("<IIII", FEATURE_VERSION, w, h, d))
        f.write(features.astype("<f4").tobytes())


def load_feature_file(path):
    """Returns (w, h, d, features) with features widened to float64."""
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != FEATURE_MAGIC:
        raise FeatureFormatError(f"{path}: bad magic {blob[:4]!r}")
    if len(blob) < 20:
        raise FeatureFormatError(f"{path}: truncated header, {len(blob)} of 20 bytes")
    version, w, h, d = struct.unpack_from("<IIII", blob, 4)
    if version != FEATURE_VERSION:
        raise FeatureFormatError(f"{path}: unsupported version {version}")
    expected = 20 + 4 * w * h * d
    if len(blob) != expected:
        raise FeatureFormatError(
            f"{path}: payload length mismatch, expected {expected} bytes, got {len(blob)}"
        )
    values = np.frombuffer(blob, dtype="<f4", offset=20)
    if not np.isfinite(values).all():
        raise FeatureFormatError(f"{path}: non-finite feature value")
    return w, h, d, values.astype(np.float64).reshape(w * h, d)


def save_manifest(path, manifest: Manifest) -> None:
    manifest.validate()
    payload = {
        "w": manifest.w,
        "h": manifest.h,
        "d": manifest.d,
        "records": [
            {"id": r.id, "path": r.path, **({"score": r.score} if r.score is not None else {}), "split": r.split}
            for r in manifest.records
        ],
    }
    with open(path, "w") as f:
        json.dump(payload, f, indent=1)


def load_manifest(path) -> Manifest:
    with open(path) as f:
        payload = json.load(f)
    manifest = Manifest(
        w=int(payload["w"]),
        h=int(payload["h"]),
        d=int(payload["d"]),
        records=[
            ManifestRecord(
                id=r["id"], path=r["path"], score=r.get("score"), split=r["split"]
            )
            for r in payload["records"]
        ],
    )
    manifest.validate()
    return manifest


def load_record(manifest: Manifest, manifest_dir, record: ManifestRecord) -> FeatureRecord:
    """Load one record's feature file; its dims must match the manifest."""
    path = os.path.join(manifest_dir, record.path)
    w, h, d, features = load_feature_file(path)
    if (w, h, d) != (manifest.w, manifest.h, manifest.d):
        raise FeatureFormatError(
            f"{path}: dims {w}x{h}x{d} disagree with manifest "
            f"{manifest.w}x{manifest.h}x{manifest.d}"
        )
    return FeatureRecord(id=record.id, features=features, score=record.score)


def load_split(manifest: Manifest, manifest_dir, split: str) -> list[FeatureRecord]:
    return [load_record(manifest, manifest_dir, r) for r in manifest.split_records(split)]


# --- images -----------------------------------------------------------------


def read_ppm(path) -> np.ndarray:
    with open(path, "rb") as f:
        blob = f.read()

    tokens = []
    i = 0
    while len(tokens) < 4:
        while i < len(blob) and blob[i : i + 1].isspace():
            i += 1
        if i < len(blob) and blob[i : i + 1] == b"#":
            while i < len(blob) and blob[i : i + 1] != b"\n":
                i += 1
            continue
        start = i
        while i < len(blob) and not blob[i : i + 1].isspace():
            i += 1
        tokens.append(blob[start:i])
    if tokens[0] != b"P6":
        raise FeatureFormatError(f"{path}: not a P6 PPM file")
    width, height, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    if maxval != 255:
        raise FeatureFormatError(f"{path}: unsupported maxval {maxval}")
    i += 1  # single whitespace after maxval
    pixels = np.frombuffer(blob, dtype=np.uint8, count=width * height * 3, offset=i)
    return pixels.reshape(height, width, 3).copy()


def write_ppm(path, img: np.ndarray) -> None:
    img = np.asarray(img, dtype=np.uint8)
    h, w, _ = img.shape
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        f.write(img.tobytes())


def write_pgm(path, img: np.ndarray) -> None:
    img = np.asarray(img, dtype=np.uint8)
    h, w = img.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(img.tobytes())


def bilinear_resize(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resampling on a uniform grid; works for 2-D and HxWxC."""
    img = np.asarray(img, dtype=np.float64)
    in_h, in_w = img.shape[:2]
    ys = np.linspace(0.0, in_h - 1.0, out_h) if out_h > 1 else np.zeros(1)
    xs = np.linspace(0.0, in_w - 1.0, out_w) if out_w > 1 else np.zeros(1)
    y0 = np.clip(np.floor(ys).astype(int), 0, in_h - 1)
    x0 = np.clip(np.floor(xs).astype(int), 0, in_w - 1)
    y1 = np.minimum(y0 + 1, in_h - 1)
    x1 = np.minimum(x0 + 1, in_w - 1)
    wy = (ys - y0)[:, None]
    wx = (xs - x0)[None, :]
    if img.ndim == 3:
        wy = wy[..., None]
        wx = wx[..., None]
    top = img[np.ix_(y0, x0)] * (1 - wx) + img[np.ix_(y0, x1)] * wx
    bottom = img[np.ix_(y1, x0)] * (1 - wx) + img[np.ix_(y1, x1)] * wx
    return top * (1 - wy) + bottom * wy


def sample_crop_rect(rng, img_h: int, img_w: int):
    """Random-area/random-aspect crop rectangle; None if out of bounds."""
    area = img_h * img_w * rng.uniform(0.08, 1.0)
    aspect = math.exp(rng.uniform(math.log(3.0 / 4.0), math.log(4.0 / 3.0)))
    crop_w = int(round(math.sqrt(area * aspect)))
    crop_h = int(round(math.sqrt(area / aspect)))
    if 0 < crop_w <= img_w and 0 < crop_h <= img_h:
        top = int(rng.integers(0, img_h - crop_h + 1))
        left = int(rng.integers(0, img_w - crop_w + 1))
        return top, left, crop_h, crop_w
    return None


def resized_crop(img: np.ndarray, rect, size: int = CROP_SIZE) -> np.ndarray:
    top, left, crop_h, crop_w = rect
    patch = img[top : top + crop_h, left : left + crop_w]
    out = bilinear_resize(patch, size, size)
    return np.clip(np.rint(out), 0, 255).astype(np.uint8)


def random_resized_crop(img: np.ndarray, rng, size: int = CROP_SIZE) -> np.ndarray:
    """Training crop: 10 attempts at a random rect, center-crop fallback."""
    img_h, img_w = img.shape[:2]
    for _ in range(10):
        rect = sample_crop_rect(rng, img_h, img_w)
        if rect is not None:
            return resized_crop(img, rect, size)
    return center_crop(img, size)


def horizontal_flip(img: np.ndarray, rng) -> np.ndarray:
    if rng.random() < 0.5:
        return img[:, ::-1].copy()
    return img


def center_crop(img: np.ndarray, size: int = CROP_SIZE) -> np.ndarray:
    """Shortest-side resize to `size`, then the central size x size window."""
    img_h, img_w = img.shape[:2]
    short = min(img_h, img_w)
    if short != size:
        scale = size / short
        new_h = max(size, int(round(img_h * scale)))
        new_w = max(size, int(round(img_w * scale)))
        img = np.clip(np.rint(bilinear_resize(img, new_h, new_w)), 0, 255).astype(np.uint8)
        img_h, img_w = new_h, new_w
    top = (img_h - size) // 2
    left = (img_w - size) // 2
    return img[top : top + size, left : left + size].copy()


# --- toy feature extractor ---------------------------------------------------


def toy_extract(img: np.ndarray, extractor_seed: int, d_out: int = 32) -> np.ndarray:
    """Frozen stand-in for a CNN layer: fixed random channel projection,
    rectification, 16x16 average pooling down to a 14x14 grid."""
    img = np.asarray(img)
    if img.shape != (CROP_SIZE, CROP_SIZE, 3):
        raise ValueError(f"toy_extract: expected 224x224x3 image, got {img.shape}")
    rng = np.random.default_rng(extractor_seed)
    projection = rng.normal(size=(3, d_out)) / math.sqrt(3.0)
    x = np.maximum(img.astype(np.float64) / 255.0 @ projection, 0.0)
    pooled = x.reshape(14, 16, 14, 16, d_out).mean(axis=(1, 3))
    return pooled.reshape(14 * 14, d_out)


# --- synthetic planted-signal dataset ---------------------------------------


@dataclass
class SynthSecret:
    """Ground truth of the generator, for oracle checks only."""

    weights: np.ndarray            # (d-1,) score weights on the planted vector
    planted: dict[str, int]        # id -> planted location index
    raw: dict[str, float]          # id -> noise-free raw signal in (-1, 1)


BEACON_VALUE = 3.0


def synth_dataset(
    n: int,
    out_dir,
    seed: int = 0,
    w: int = 7,
    h: int = 7,
    d: int = 32,
    noise: float = 0.02,
):
    """Random feature grids whose score depends on ONE planted location.

    The planted location carries a large marker value in channel 0; the
    score is a bounded function of its remaining channels. A model that
    averages all locations uniformly sees the signal diluted by 1/L.
    Returns (Manifest, SynthSecret) and writes files under out_dir.
    """
    if n < 4:
        raise ValueError(f"synth_dataset: need n >= 4, got {n}")
    rng = np.random.default_rng(seed)
    L = w * h
    weights = rng.normal(size=d - 1)
    features_dir = os.path.join(out_dir, "features")
    os.makedirs(features_dir, exist_ok=True)

    n_train = int(n * 0.70)
    n_val = int(n * 0.15)
    records = []
    planted = {}
    raw = {}
    for i in range(n):
        sample_id = f"synth{i:05d}"
        x = rng.normal(0.0, 0.3, size=(L, d))
        j = int(rng.integers(L))
        x[j, 0] = BEACON_VALUE
        signal = math.tanh(float(x[j, 1:] @ weights) / math.sqrt(d - 1))
        score = 0.5 + 0.45 * signal
        if noise > 0.0:
            score += noise * rng.normal()
        score = float(np.clip(score, 0.0, 1.0))
        rel_path = os.path.join("features", f"{sample_id}.amft")
        write_feature_file(os.path.join(out_dir, rel_path), x, w, h)
        split = "train" if i < n_train else ("val" if i < n_train + n_val else "test")
        records.append(ManifestRecord(id=sample_id, path=rel_path, score=score, split=split))
        planted[sample_id] = j
        raw[sample_id] = signal

    manifest = Manifest(w=w, h=h, d=d, records=records)
    save_manifest(os.path.join(out_dir, "manifest.json"), manifest)
    return manifest, SynthSecret(weights=weights, planted=planted, raw=raw)
