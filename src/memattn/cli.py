"""Command line front end: train, eval, predict, attmap, gradcheck, synth."""
from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import data as dat
from . import model as mdl
from . import train as trn
from .autograd import NonFiniteError, gradient_check
from .metrics import ConstantInputError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_VERIFY = 3

GRADCHECK_TOLERANCE = 1e-4


class CliError(Exception):
    def __init__(self, message, code=EXIT_USAGE):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise CliError(message, EXIT_USAGE)


def _load_config_file(path):
    """The --config JSON object; it may hold only model and train sections, both objects."""
    if path is None:
        return {}
    with open(path) as f:
        try:
            config = json.load(f)
        except ValueError as exc:
            raise CliError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(config, dict):
        raise CliError(f"{path}: top level must be a JSON object")
    for section, block in config.items():
        if section not in ("model", "train"):
            raise CliError(f"{path}: unknown section {section!r}, expected model or train")
        if not isinstance(block, dict):
            raise CliError(f"{path}: section {section!r} must be a JSON object")
    return config


def _config(cfg, section, block, **overrides):
    """cfg with a config-file section applied, then the non-None overrides."""
    try:
        mdl.check_config_fields(type(cfg), block)
    except ValueError as exc:
        raise CliError(f"{section} config: {exc}") from None
    for key, value in block.items():
        setattr(cfg, key, value)
    for key, value in overrides.items():
        if value is not None:
            setattr(cfg, key, value)
    try:
        cfg.validate()
    except ValueError as exc:
        raise CliError(f"{section} config: {exc}") from None
    return cfg


def _load_manifest(path, config=None):
    """(manifest, its directory); with a checkpoint's config the grids must agree."""
    manifest = dat.load_manifest(path)
    if config is not None:
        grid, expected = (f"{c.w}x{c.h}x{c.d}" for c in (manifest, config))
        if grid != expected:
            raise CliError(f"{path}: manifest grid {grid} does not match checkpoint "
                           f"grid {expected}", EXIT_IO)
    return manifest, os.path.dirname(os.path.abspath(path))


def _load_by_id(manifest_path, config, ids):
    """Feature records for ids, in order; an unknown id is an IO error."""
    manifest, manifest_dir = _load_manifest(manifest_path, config)
    by_id = {r.id: r for r in manifest.records}
    for sample_id in ids:
        if sample_id not in by_id:
            raise CliError(f"unknown id {sample_id!r}", EXIT_IO)
    return [dat.load_record(manifest, manifest_dir, by_id[i]) for i in ids]


def _load_checkpoint(path):
    params, norm_dict = mdl.load_checkpoint(path)
    return params, trn.ScoreNorm.from_dict(norm_dict)


def cmd_train(args) -> int:
    config_file = _load_config_file(args.config)
    manifest, manifest_dir = _load_manifest(args.manifest)
    train_set = dat.load_split(manifest, manifest_dir, "train")
    val_set = dat.load_split(manifest, manifest_dir, "val")
    if not train_set or not val_set:
        raise CliError("manifest needs non-empty train and val splits")
    model_cfg = _config(
        mdl.ModelConfig(b=32, fm_hidden=32, dropout_rate=0.0, dropout_z=0.0),
        "model", config_file.get("model", {}),
        # manifest dims always win: features on disk fix the input contract
        w=manifest.w, h=manifest.h, d=manifest.d, seed=args.seed,
        attention_enabled=False if args.no_attention else None,
    )
    train_cfg = _config(trn.TrainConfig(), "train", config_file.get("train", {}), seed=args.seed)

    result = trn.fit(train_set, val_set, model_cfg, train_cfg)
    os.makedirs(args.out, exist_ok=True)
    checkpoint_path = os.path.join(args.out, "checkpoint.amwt")
    mdl.save_checkpoint(checkpoint_path, result.params, norm=result.norm.as_dict())
    result.report.to_jsonl(os.path.join(args.out, "report.jsonl"))
    best = result.report
    print(json.dumps({
        "best_epoch": best.best_epoch,
        "val_rho": best.best_rho,
        "val_mse": best.epochs[best.best_epoch - 1].val_mse,
        "epochs_run": len(best.epochs),
        "stopped_early": best.stopped_early,
        "checkpoint": checkpoint_path,
    }))
    return EXIT_OK


def _eval_manifest(params, norm, manifest_path, split):
    manifest, manifest_dir = _load_manifest(manifest_path, params.config)
    records = dat.load_split(manifest, manifest_dir, split)
    if not records:
        raise CliError(f"{manifest_path}: split {split!r} is empty")
    rho, mse = trn.evaluate(params, norm, records)
    return {"rho": rho, "mse": mse, "n": len(records)}


def cmd_eval(args) -> int:
    params, norm = _load_checkpoint(args.checkpoint)
    manifests = args.splits if args.splits else [args.manifest]
    if not manifests or manifests[0] is None:
        raise CliError("eval needs --manifest or --splits")
    results = [_eval_manifest(params, norm, m, args.split) for m in manifests]
    if len(results) == 1:
        print(json.dumps(results[0]))
    else:
        print(json.dumps({
            "splits": results,
            "mean_rho": sum(r["rho"] for r in results) / len(results),
            "mean_mse": sum(r["mse"] for r in results) / len(results),
        }))
    return EXIT_OK


def cmd_predict(args) -> int:
    params, norm = _load_checkpoint(args.checkpoint)
    t_steps = params.config.t
    for record in _load_by_id(args.manifest, params.config, args.ids):
        y, trace = trn.predict(params, norm, record.features)
        # per-step contributions that sum to the unclamped denormalized y
        contributions = [
            norm.half_range * m + norm.mean / t_steps for m in trace.m_values()
        ]
        parts = " ".join(f"{c:.10f}" for c in contributions)
        print(f"{record.id} {y:.10f} {parts}")
    return EXIT_OK


def heatmap_bytes(alpha: np.ndarray, grid_h: int, grid_w: int, size: int = 224) -> np.ndarray:
    """Min-max scale an attention map to [0,255] and upscale bilinearly."""
    grid = np.asarray(alpha, dtype=np.float64).reshape(grid_h, grid_w)
    lo, hi = grid.min(), grid.max()
    if hi > lo:
        grid = (grid - lo) / (hi - lo) * 255.0
    else:
        grid = np.zeros_like(grid)
    big = dat.bilinear_resize(grid, size, size)
    return np.clip(np.rint(big), 0, 255).astype(np.uint8)


def cmd_attmap(args) -> int:
    params, norm = _load_checkpoint(args.checkpoint)
    (record,) = _load_by_id(args.manifest, params.config, [args.id])
    y, trace = trn.predict(params, norm, record.features)
    os.makedirs(args.out, exist_ok=True)
    cfg = params.config
    for t, alpha in enumerate(trace.alpha, start=1):
        img = heatmap_bytes(alpha.data, cfg.h, cfg.w)
        dat.write_pgm(os.path.join(args.out, f"{args.id}_t{t}.pgm"), img)
    sidecar = {
        "id": args.id,
        "alpha": [a.data.tolist() for a in trace.alpha],
        "m": trace.m_values(),
        "y_raw": trace.y_value(),
        "y": y,
    }
    with open(os.path.join(args.out, f"{args.id}.json"), "w") as f:
        json.dump(sidecar, f)
    print(json.dumps({"id": args.id, "y": y, "steps": cfg.t, "out": args.out}))
    return EXIT_OK


def gradcheck_report(step: float = 1e-5, seed: int = 0):
    """Finite-difference check of the full loss on a tiny configuration."""
    cfg = mdl.ModelConfig(
        w=3, h=3, d=8, b=6, t=3, fm_hidden=5,
        dropout_rate=0.0, dropout_z=0.0, seed=seed,
    )
    params = mdl.init_params(cfg)
    rng = np.random.default_rng(seed + 1)
    x = rng.normal(size=(cfg.num_locations, cfg.d))
    target = 0.3
    train_cfg = trn.TrainConfig(penalty_weight=1e-4)

    def build_loss():
        total, _ = trn.loss(x, target, params, train_cfg, training=False)
        return total

    return gradient_check(build_loss, params.params(), step=step)


def cmd_gradcheck(args) -> int:
    start = time.time()
    report = gradcheck_report(seed=args.seed if args.seed is not None else 0)
    worst_name = max(report, key=report.get)
    ok = True
    for name, err in report.items():
        status = "PASS" if err < GRADCHECK_TOLERANCE else "FAIL"
        ok = ok and err < GRADCHECK_TOLERANCE
        print(f"{name:12s} {err:.3e} {status}")
    elapsed = time.time() - start
    print(f"# max rel err {report[worst_name]:.3e} ({worst_name}), {elapsed:.1f}s")
    if not ok:
        print(f"gradient check failed: {worst_name}", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def cmd_synth(args) -> int:
    if args.n < 4:
        raise CliError(f"need at least 4 samples, got {args.n}")
    os.makedirs(args.out, exist_ok=True)
    manifest, _ = dat.synth_dataset(
        args.n, args.out,
        seed=args.seed if args.seed is not None else 0,
        w=args.w, h=args.h, d=args.d, noise=args.noise,
    )
    print(json.dumps({
        "out": args.out,
        "n": len(manifest.records),
        "train": len(manifest.split_records("train")),
        "val": len(manifest.split_records("val")),
        "test": len(manifest.split_records("test")),
    }))
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="memattn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model and write a checkpoint")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--no-attention", action="store_true",
                   help="replace attention with a uniform average")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="report rank correlation and MSE")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest")
    p.add_argument("--splits", nargs="+", help="evaluate several manifests, report mean")
    p.add_argument("--split", default="test", choices=dat.SPLITS)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="score individual samples")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("ids", nargs="+")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("attmap", help="export attention heatmaps for one sample")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--id", required=True)
    p.set_defaults(func=cmd_attmap)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--w", type=int, default=7)
    p.add_argument("--h", type=int, default=7)
    p.add_argument("--d", type=int, default=32)
    p.add_argument("--noise", type=float, default=0.02)
    p.set_defaults(func=cmd_synth)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (ConstantInputError, NonFiniteError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except (dat.FeatureFormatError, dat.ManifestFormatError, mdl.CheckpointFormatError,
            trn.DegenerateDatasetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
