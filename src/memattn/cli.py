"""Command line front end: train, eval, predict, attmap, gradcheck, synth."""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
import time

import numpy as np

from . import data as dat
from . import model as mdl
from . import train as trn
from .autograd import NonFiniteError, gradient_check

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_VERIFY = 3
EXIT_INTERRUPTED = 130  # 128 + SIGINT, so a shell's `train && eval` stops

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
    """The --config JSON object; it may hold only model and train sections,
    both objects."""
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


def _config(cfg, section, block, **fixed):
    """cfg with block and then the fixed fields applied; block may set no fixed field."""
    for key in fixed:
        if key in block:
            raise CliError(f"{section} config: field {key!r} is set by the manifest or a flag")
    try:
        return mdl.read_config(cfg, {**block, **fixed})
    except ValueError as exc:
        raise CliError(f"{section} config: {exc}") from None


def _load_manifest(path, config=None):
    """The manifest at path; with a checkpoint's config the grids must agree."""
    manifest = dat.load_manifest(path)
    if config is not None:
        grid, expected = (f"{c.w}x{c.h}x{c.d}" for c in (manifest, config))
        if grid != expected:
            raise CliError(f"{path}: manifest grid {grid} does not match checkpoint "
                           f"grid {expected}", EXIT_IO)
    return manifest


def _features_by_id(manifest_path, config, ids):
    """An iterator over the float32 (L, D) features of ids, each read when reached into
    one reused (1, L, D) array; every id is checked first, an unknown id is an IO error."""
    manifest = _load_manifest(manifest_path, config)
    by_id = {r.id: r for r in manifest.records}
    for sample_id in ids:
        if sample_id not in by_id:
            raise CliError(f"unknown id {sample_id!r}", EXIT_IO)
    records = dat.feature_records(manifest, manifest_path, [by_id[i] for i in ids])
    grid = np.empty((1, config.num_locations, config.d), np.float32)
    return (dat.read_features([r], grid)[0] for r in records)


def _load_checkpoint(path):
    params, norm_dict = mdl.load_checkpoint(path)
    return params, trn.ScoreNorm.from_dict(norm_dict)


def cmd_train(args) -> int:
    config_file = _load_config_file(args.config)
    manifest = _load_manifest(args.manifest)
    model_cfg = _config(
        mdl.ModelConfig(b=32, fm_hidden=32, dropout_rate=0.0, dropout_z=0.0),
        "model", config_file.get("model", {}),
        # the grid comes from the manifest alone: features on disk fix the input contract
        w=manifest.w, h=manifest.h, d=manifest.d, seed=args.seed,
        attention_enabled=not args.no_attention,
    )
    train_cfg = _config(trn.TrainConfig(), "train", config_file.get("train", {}))
    # the configs, scores and split sizes are checked before --out is made
    train_set, val_set = (dat.load_split(manifest, args.manifest, s) for s in ("train", "val"))
    if not train_set or len(val_set) < 2:
        raise CliError("manifest needs a non-empty train split and 2 or more val records")
    try:
        norm = trn.ScoreNorm.from_scores(r.score for r in train_set)
    except trn.DegenerateDatasetError as exc:
        raise CliError(f"{args.manifest}: {exc}", EXIT_IO) from None
    if len({r.score for r in val_set}) == 1:
        raise CliError(f"{args.manifest}: all val scores identical, rho undefined", EXIT_IO)
    os.makedirs(args.out, exist_ok=True)  # a bad --out fails before any training
    # the model is built from the manifest's grid, so the first train file confirms it
    first = train_set[0]
    first.check_dims(dat.load_feature_file(first.path)[:3])
    checkpoint_path = os.path.join(args.out, "checkpoint.amwt")
    report_path = os.path.join(args.out, "report.jsonl")

    def on_best(params, result):  # the checkpoint, then a report that covers it
        mdl.save_checkpoint(checkpoint_path, params, norm=dataclasses.asdict(norm))
        result.to_jsonl(report_path)

    result = trn.fit(train_set, val_set, norm, model_cfg, train_cfg, on_best)
    result.to_jsonl(report_path)
    print(json.dumps({
        "best_epoch": result.best_epoch,
        "val_rho": result.best_rho,
        "val_mse": result.epochs[result.best_epoch - 1]["val_mse"],
        "epochs_run": len(result.epochs),
        "stopped_early": result.stop_reason == "patience",
        "stop_reason": result.stop_reason,
        "checkpoint": checkpoint_path,
    }))
    return EXIT_INTERRUPTED if result.stop_reason.endswith(": interrupted") else EXIT_OK


def cmd_eval(args) -> int:
    params, norm = _load_checkpoint(args.checkpoint)
    # every manifest's grid, scores and split size are checked before the first pass runs
    splits = [(path, dat.load_split(_load_manifest(path, params.config), path, args.split))
              for path in args.manifest]
    for path, records in splits:
        if len(records) < 2:
            raise CliError(f"{path}: split {args.split!r} needs 2 or more records, "
                           f"has {len(records)}")
        if len({r.score for r in records}) == 1:
            raise CliError(f"{path}: all {args.split} scores identical, rho undefined", EXIT_IO)
    results = []
    for path, records in splits:
        rho, mse = trn.evaluate(params, norm, records)
        if rho is None:
            raise CliError(f"{path}: rho of split {args.split!r} is undefined: the "
                           f"predictions or the scores are constant", EXIT_VERIFY)
        results.append({"rho": rho, "mse": mse, "n": len(records)})
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
    grids = _features_by_id(args.manifest, params.config, args.ids)
    for sample_id, features in zip(args.ids, grids):
        y, trace = trn.predict(params, norm, features)
        # per-step contributions that sum to the unclamped denormalized y
        contributions = [
            norm.half_range * m + norm.mean / t_steps for m in trace.m_values()
        ]
        parts = " ".join(f"{c:.10f}" for c in contributions)
        print(f"{sample_id} {y:.10f} {parts}")
    return EXIT_OK


def heatmap_bytes(alpha: np.ndarray, grid_h: int, grid_w: int) -> np.ndarray:
    """Min-max scale an attention map to [0,255] and upscale bilinearly to 224x224."""
    grid = np.asarray(alpha, dtype=np.float64).reshape(grid_h, grid_w)
    lo, hi = grid.min(), grid.max()
    if hi > lo:
        grid = (grid - lo) / (hi - lo) * 255.0
    else:
        grid = np.zeros_like(grid)
    big = dat.bilinear_resize(grid, 224, 224)
    return np.clip(np.rint(big), 0, 255).astype(np.uint8)


def cmd_attmap(args) -> int:
    # the id names the output files, so it must stay inside --out
    if args.id in ("", ".", "..") or os.path.basename(args.id) != args.id:
        raise CliError(f"--id {args.id!r} is not a single file name component")
    params, norm = _load_checkpoint(args.checkpoint)
    (features,) = _features_by_id(args.manifest, params.config, [args.id])
    y, trace = trn.predict(params, norm, features)
    os.makedirs(args.out, exist_ok=True)
    cfg = params.config
    alphas = [a[0] for a in trace.alpha]
    for t, alpha in enumerate(alphas, start=1):
        img = heatmap_bytes(alpha, cfg.h, cfg.w)
        dat.write_pgm(os.path.join(args.out, f"{args.id}_t{t}.pgm"), img)
    sidecar = {
        "id": args.id,
        "alpha": [a.tolist() for a in alphas],
        "m": trace.m_values(),
        "y_raw": trace.y_value(),
        "y": y,
    }
    with dat.atomic_open(os.path.join(args.out, f"{args.id}.json")) as f:
        json.dump(sidecar, f)
    print(json.dumps({"id": args.id, "y": y, "steps": cfg.t, "out": args.out}))
    return EXIT_OK


def gradcheck_report(seed: int = 0):
    """Finite-difference check of the summed loss of a two-sample batch on a
    tiny configuration."""
    cfg = mdl.ModelConfig(
        w=3, h=3, d=8, b=6, t=3, fm_hidden=5,
        dropout_rate=0.0, dropout_z=0.0, seed=seed,
    )
    params = mdl.init_params(cfg)
    rng = np.random.default_rng(seed + 1)
    x = rng.normal(size=(2, cfg.num_locations, cfg.d))
    targets = [0.3, -0.5]
    train_cfg = trn.TrainConfig(penalty_weight=1e-4)

    return gradient_check(lambda: trn.loss(x, targets, params, train_cfg), params)


def cmd_gradcheck(args) -> int:
    start = time.time()
    try:
        report = gradcheck_report(seed=args.seed)
    except ValueError as exc:
        raise CliError(str(exc)) from None
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
    try:
        manifest, _ = dat.synth_dataset(
            args.n, args.out,
            seed=args.seed,
            w=args.w, h=args.h, d=args.d, noise=args.noise,
        )
    except ValueError as exc:
        raise CliError(str(exc)) from None
    print(json.dumps({
        "out": args.out,
        "n": len(manifest.records),
        "train": len(manifest.split_records("train")),
        "val": len(manifest.split_records("val")),
        "test": len(manifest.split_records("test")),
    }))
    return EXIT_OK


@functools.cache
def build_parser() -> _Parser:
    """The parser, built once per process; main finds each command's cmd_
    function by name when it runs it."""
    parser = _Parser(prog="memattn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model and write a checkpoint")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--seed", type=int, default=0, help="seeds init, shuffling and dropout")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--no-attention", action="store_true",
                   help="replace attention with a uniform average")

    p = sub.add_parser("eval", help="report rank correlation and MSE")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", nargs="+", required=True,
                   help="one manifest, or several to report the mean")
    p.add_argument("--split", default="test", choices=dat.SPLITS)

    p = sub.add_parser("predict", help="score individual samples")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("ids", nargs="+")

    p = sub.add_parser("attmap", help="export attention heatmaps for one sample")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--id", required=True)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--w", type=int, default=7)
    p.add_argument("--h", type=int, default=7)
    p.add_argument("--d", type=int, default=32)
    p.add_argument("--noise", type=float, default=0.02)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # looked up on each call, so a cmd_ function replaced on this module
        # after the parser was built (a tracing wrapper, say) is the one run
        return globals()[f"cmd_{args.command}"](args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (NonFiniteError, trn.NoValidEpochError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except (dat.FeatureFormatError, dat.ManifestFormatError, mdl.CheckpointFormatError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
