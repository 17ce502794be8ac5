"""Feature files, dataset manifests, heatmap output and synthetic data.

Feature files are a small binary format (magic "AMFT"): header with the
grid dimensions, then W*H*D little-endian float32 values, location-major.
load_feature_file is their one reader; read_features uses it to read each
file straight into a row of the caller's float32 batch. Manifests are
JSON, whose records are checked in one pass as they are built. The only
image format is PGM (P5) output.
"""
from __future__ import annotations

import contextlib
import json
import math
import os
import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

FEATURE_MAGIC = b"AMFT"
FEATURE_VERSION = 1
_FEATURE_DTYPE = np.dtype("<f4")
SPLITS = ("train", "val", "test")


class FeatureFormatError(ValueError):
    pass


class ManifestFormatError(ValueError):
    pass


class FeatureRecord(NamedTuple):
    """A record that names its feature file; a tuple, as load_split builds one per record."""

    id: str
    path: str  # its feature file, which read_features reads
    score: float | None
    grid: tuple[int, int, int]  # the manifest's (w, h, d), which the file must hold

    def check_dims(self, dims) -> None:
        """FeatureFormatError unless dims, the (w, h, d) its file holds, are the grid."""
        if dims != self.grid:
            raise FeatureFormatError(f"{self.path}: dims {'x'.join(map(str, dims))} disagree "
                                     f"with manifest {'x'.join(map(str, self.grid))}")


@dataclass(slots=True)
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


@contextlib.contextmanager
def atomic_open(path, mode="w"):
    """Open a temporary file beside path for writing, sync it to disk and
    rename it over path when the block ends without error. path keeps its
    previous content, or stays absent, if the block raises."""
    tmp = f"{os.fspath(path)}.tmp{os.getpid()}"
    try:
        with open(tmp, mode) as f:
            yield f
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def write_feature_file(path, features: np.ndarray, w: int, h: int) -> None:
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[0] != w * h:
        raise ValueError(f"features shape {features.shape} does not match {w}x{h} grid")
    d = features.shape[1]
    header = FEATURE_MAGIC + struct.pack("<IIII", FEATURE_VERSION, w, h, d)
    with open(path, "wb") as f:
        f.write(header + features.astype("<f4").tobytes())


def load_feature_file(path, out=None):
    """Returns (w, h, d, features) with the (W*H, D) features as stored,
    float32. The file's size is checked against its header before the
    payload is read, with one readv, straight into out (a float32 array of
    W*H*D values, such as a batch row, which the features then view) or
    into a fresh array when out is None. An out of another size is a
    FeatureFormatError and receives no byte."""
    if out is not None and out.dtype != _FEATURE_DTYPE:
        raise TypeError(f"load_feature_file: out must be float32, got {out.dtype}")
    fd = os.open(path, os.O_RDONLY)  # a bare descriptor opens in half the time of a file object
    try:
        header = os.read(fd, 20)
        if header[:4] != FEATURE_MAGIC:
            raise FeatureFormatError(f"{path}: bad magic {header[:4]!r}")
        if len(header) < 20:
            raise FeatureFormatError(f"{path}: truncated header, {len(header)} of 20 bytes")
        version, w, h, d = struct.unpack_from("<IIII", header, 4)
        if version != FEATURE_VERSION:
            raise FeatureFormatError(f"{path}: unsupported version {version}")
        expected, size = 20 + 4 * w * h * d, os.fstat(fd).st_size
        if size != expected:
            raise FeatureFormatError(
                f"{path}: payload length mismatch, expected {expected} bytes, got {size}"
            )
        if out is None:
            out = np.empty(w * h * d, _FEATURE_DTYPE)
        elif out.size != w * h * d:
            raise FeatureFormatError(f"{path}: dims {w}x{h}x{d} disagree with an output "
                                     f"of {out.size} values")
        got = os.readv(fd, [out])
    except OSError as exc:  # as open() does, name the file (a directory fails to read)
        exc.filename = os.fspath(path)
        raise
    finally:
        os.close(fd)
    if got != out.nbytes:
        raise FeatureFormatError(f"{path}: short read, {got} of {out.nbytes} payload bytes")
    if not np.isfinite(out).all():
        raise FeatureFormatError(f"{path}: non-finite feature value")
    return w, h, d, out.reshape(w * h, d)


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
    # json.dump streams: one json.dumps string held 1.8 MB more at 2000 records
    with atomic_open(path) as f:
        json.dump(payload, f, indent=1)


def _manifest_from_json(payload) -> Manifest:
    """ValueError unless payload has exactly the shape save_manifest writes.
    Each record is checked as it is built, the first fault of the first bad
    record raising: its shape, then id, path and split, then score."""
    if not isinstance(payload, dict) or set(payload) != {"w", "h", "d", "records"}:
        raise ValueError("top level must be an object with keys w, h, d, records")
    for key in ("w", "h", "d"):
        if type(payload[key]) is not int or payload[key] < 1:
            raise ValueError(f"{key} must be a positive int, got {payload[key]!r}")
    if not isinstance(payload["records"], list):
        raise ValueError("records must be a list")
    records = []
    for i, r in enumerate(payload["records"]):
        # with id, path and split present, the size admits exactly an optional score
        if not (isinstance(r, dict) and "id" in r and "path" in r and "split" in r
                and len(r) == 4 - ("score" not in r)):
            raise ValueError(f"record {i} must be an object with keys id, path, split "
                             f"and an optional score")
        rid, path, split, score = r["id"], r["path"], r["split"], r.get("score")
        if not (type(rid) is type(path) is type(split) is str) or "\0" in rid + path + split:
            key = next(k for k in ("id", "path", "split")
                       if type(r[k]) is not str or "\0" in r[k])
            raise ValueError(f"record {i}: {key} must be a string without NUL, "
                             f"got {r[key]!r}")
        if score is not None and type(score) is not float and type(score) is not int:
            raise ValueError(f"record {i}: score must be a number, got {score!r}")
        records.append(ManifestRecord(rid, path, score, split))
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


def feature_records(manifest: Manifest, manifest_path, records) -> list[FeatureRecord]:
    """The records, each naming its feature file relative to manifest_path's directory
    and the manifest's grid; reads nothing."""
    manifest_dir = os.path.dirname(os.path.abspath(manifest_path))
    grid, join = (manifest.w, manifest.h, manifest.d), os.path.join
    return [FeatureRecord(r.id, join(manifest_dir, r.path), r.score, grid) for r in records]


def load_split(manifest: Manifest, manifest_path, split: str) -> list[FeatureRecord]:
    """The split's records, none of whose files is read here; training and evaluation need
    every score. Errors name manifest_path."""
    records = manifest.split_records(split)
    for r in records:
        if r.score is None:
            raise ManifestFormatError(f"{manifest_path}: record {r.id!r} in split {split!r} "
                                      f"has no score")
    return feature_records(manifest, manifest_path, records)


def read_features(records: list[FeatureRecord], out: np.ndarray) -> np.ndarray:
    """Read each record's file through load_feature_file straight into the
    next row of out, a float32 (N, L, D) array of at least len(records)
    rows; returns the filled rows. A file whose dims disagree with its
    record's grid raises FeatureFormatError."""
    x = out[:len(records)]
    for row, r in zip(x, records, strict=True):
        r.check_dims(load_feature_file(r.path, row)[:3])
    return x


# --- heatmap images ---------------------------------------------------------


def write_pgm(path, img: np.ndarray) -> None:
    img = np.asarray(img, dtype=np.uint8)
    h, w = img.shape
    with atomic_open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii") + img.tobytes())


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
    if n < 4 or w < 1 or h < 1 or d < 2 or not (math.isfinite(noise) and noise >= 0.0):
        raise ValueError(f"synth_dataset: need n >= 4, w >= 1, h >= 1, d >= 2 and a "
                         f"finite noise >= 0, got n={n}, w={w}, h={h}, d={d}, noise={noise}")
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
