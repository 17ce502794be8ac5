"""The traced benchmark run (`perfbench/run.py --trace 1`) reads spans by
name and counts products through the autograd module: a traced train,
eval and predict must record every name it takes a median or a count of."""
import importlib.util
import json
from pathlib import Path

from memattn import autograd, cli, data, metrics, model, train

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
MODULES = {"cli": cli, "data": data, "model": model, "autograd": autograd,
           "train": train, "metrics": metrics}


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench = _load("run")
tracing = _load("tracer")


def _traced(fn):
    tracer = tracing.Tracer(MODULES)
    tracer.install()
    try:
        fn()
    finally:
        tracer.uninstall()
    return tracer.reset()


def test_traced_cycle_records_every_name_the_benchmark_reads(tmp_path, capsys):
    data_dir, run_dir = tmp_path / "data", tmp_path / "run"
    assert cli.main(["synth", "--out", str(data_dir), "--n", "40", "--seed", "0",
                     "--w", "3", "--h", "3", "--d", "8"]) == 0
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "model": {"dropout_rate": 0.5, "dropout_z": 0.5},
        "train": {"batch_size": 8, "max_epochs": 1, "patience": 1}}))
    manifest = str(data_dir / "manifest.json")
    checkpoint = str(run_dir / "checkpoint.amwt")
    record = data.load_manifest(manifest).records[0]
    state = {}

    def cycle():
        assert cli.main(["train", "--manifest", manifest, "--config", str(config),
                         "--out", str(run_dir), "--seed", "0"]) == 0
        assert cli.main(["eval", "--checkpoint", checkpoint, "--manifest", manifest]) == 0
        params, norm = model.load_checkpoint(checkpoint)
        features = data.load_feature_file(str(data_dir / record.path))[3]
        state.update(params=params, norm=train.ScoreNorm.from_dict(norm), features=features)
        train.predict(state["params"], state["norm"], features)
        assert cli.main(["predict", "--checkpoint", checkpoint, "--manifest", manifest,
                         record.id]) == 0

    rec = _traced(cycle)
    # total_s and self_s read 0 s for a name no span has, so each name must be recorded
    names = bench.MS_P50 + bench.CALLS + bench.TOTAL_S + bench.SELF_S
    assert [n for n in names if not rec.calls(n)] == []
    assert rec.tensors_per_training_sample() > 0

    # every product of a forward pass is counted: keys, state init, and per
    # step U h, the four gates and the two regression layers
    rec = _traced(lambda: train.predict(state["params"], state["norm"], state["features"]))
    cfg = state["params"].config
    L, D, B, H = cfg.num_locations, cfg.d, cfg.b, cfg.fm_hidden
    per_step = B * D + 4 * B * (D + B) + B * H + H
    assert rec.flops_per_forward() == 2 * (L * D * D + 2 * D * B + cfg.t * per_step)
