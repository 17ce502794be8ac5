"""Feature files, dataset manifests, heatmap output and synthetic data.

Feature files are a small binary format (magic "AMFT"): header with the
grid dimensions, then W*H*D little-endian float32 values, location-major.
Manifests are JSON. The only image format is PGM (P5) output.
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
SPLITS = ("train", "val", "test")


class FeatureFormatError(ValueError):
    pass


class ManifestFormatError(ValueError):
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


def _manifest_from_json(payload) -> Manifest:
    """ValueError unless payload has exactly the shape save_manifest writes."""
    if not isinstance(payload, dict) or set(payload) != {"w", "h", "d", "records"}:
        raise ValueError("top level must be an object with keys w, h, d, records")
    for key in ("w", "h", "d"):
        if type(payload[key]) is not int or payload[key] < 1:
            raise ValueError(f"{key} must be a positive int, got {payload[key]!r}")
    if not isinstance(payload["records"], list):
        raise ValueError("records must be a list")
    records = []
    for i, r in enumerate(payload["records"]):
        if not (isinstance(r, dict)
                and {"id", "path", "split"} <= r.keys() <= {"id", "path", "score", "split"}):
            raise ValueError(f"record {i} must be an object with keys id, path, split "
                             f"and an optional score")
        for key in ("id", "path", "split"):
            if type(r[key]) is not str or "\0" in r[key]:
                raise ValueError(f"record {i}: {key} must be a string without NUL, "
                                 f"got {r[key]!r}")
        score = r.get("score")
        if score is not None and type(score) not in (int, float):
            raise ValueError(f"record {i}: score must be a number, got {score!r}")
        records.append(ManifestRecord(id=r["id"], path=r["path"], score=score,
                                      split=r["split"]))
    return Manifest(w=payload["w"], h=payload["h"], d=payload["d"], records=records)


def load_manifest(path) -> Manifest:
    """The validated manifest; any deviation raises ManifestFormatError naming path."""
    with open(path, "rb") as f:
        blob = f.read()
    try:
        manifest = _manifest_from_json(json.loads(blob))
        manifest.validate()
    except ValueError as exc:  # JSON and UTF-8 decode errors included
        raise ManifestFormatError(f"{path}: {exc}") from None
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
    """The split's feature records; training and evaluation need every score."""
    records = manifest.split_records(split)
    for r in records:
        if r.score is None:
            raise ManifestFormatError(f"manifest: record {r.id!r} in split {split!r} "
                                      f"has no score")
    return [load_record(manifest, manifest_dir, r) for r in records]


# --- heatmap images ---------------------------------------------------------


def write_pgm(path, img: np.ndarray) -> None:
    img = np.asarray(img, dtype=np.uint8)
    h, w = img.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(img.tobytes())


def bilinear_resize(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resampling of a 2-D array on a uniform grid."""
    img = np.asarray(img, dtype=np.float64)
    in_h, in_w = img.shape
    ys = np.linspace(0.0, in_h - 1.0, out_h) if out_h > 1 else np.zeros(1)
    xs = np.linspace(0.0, in_w - 1.0, out_w) if out_w > 1 else np.zeros(1)
    y0 = np.clip(np.floor(ys).astype(int), 0, in_h - 1)
    x0 = np.clip(np.floor(xs).astype(int), 0, in_w - 1)
    y1 = np.minimum(y0 + 1, in_h - 1)
    x1 = np.minimum(x0 + 1, in_w - 1)
    wy = (ys - y0)[:, None]
    wx = (xs - x0)[None, :]
    top = img[np.ix_(y0, x0)] * (1 - wx) + img[np.ix_(y0, x1)] * wx
    bottom = img[np.ix_(y1, x0)] * (1 - wx) + img[np.ix_(y1, x1)] * wx
    return top * (1 - wy) + bottom * wy


# --- synthetic planted-signal dataset ---------------------------------------


@dataclass
class SynthSecret:
    """Ground truth of the generator, for oracle checks only."""

    weights: np.ndarray            # (d-1,) score weights on the planted vector
    planted: dict[str, int]        # id -> planted location index


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

    manifest = Manifest(w=w, h=h, d=d, records=records)
    save_manifest(os.path.join(out_dir, "manifest.json"), manifest)
    return manifest, SynthSecret(weights=weights, planted=planted)
