import argparse
import contextlib
import dataclasses
import io
import json
import os
import signal
import subprocess
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memattn import cli
from memattn import data as dat
from memattn import model as mdl
from memattn import train as trn
from memattn.cli import (
    EXIT_INTERRUPTED, EXIT_IO, EXIT_OK, EXIT_USAGE, EXIT_VERIFY, GRADCHECK_TOLERANCE, build_parser,
    gradcheck_report, heatmap_bytes, main,
)

CONFIG = {
    "model": {"b": 8, "fm_hidden": 8, "dropout_rate": 0.0, "dropout_z": 0.0},
    "train": {"batch_size": 16, "max_epochs": 4, "patience": 4},
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    data_dir = root / "data"
    out_dir = root / "run"
    config_path = root / "config.json"
    config_path.write_text(json.dumps(CONFIG))
    assert main(["synth", "--out", str(data_dir), "--n", "60", "--seed", "0",
                 "--w", "2", "--h", "2", "--d", "8"]) == EXIT_OK
    assert main(["train", "--manifest", str(data_dir / "manifest.json"),
                 "--config", str(config_path), "--out", str(out_dir),
                 "--seed", "0"]) == EXIT_OK
    return {
        "manifest": str(data_dir / "manifest.json"),
        "config": str(config_path),
        "checkpoint": str(out_dir / "checkpoint.amwt"),
        "report": str(out_dir / "report.jsonl"),
        "root": root,
    }


@pytest.fixture
def feature_reads(monkeypatch):
    """The paths of the feature files read while the test runs."""
    reads = []
    true_load = dat.load_feature_file

    def counting_load(path, out=None):
        reads.append(path)
        return true_load(path, out)

    monkeypatch.setattr(dat, "load_feature_file", counting_load)
    return reads


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- synth ------------------------------------------------------------------

def test_synth_outputs(tmp_path, capsys):
    code, out, _ = run(capsys, ["synth", "--out", str(tmp_path), "--n", "20",
                                "--seed", "1", "--w", "2", "--h", "2", "--d", "4"])
    assert code == EXIT_OK
    info = json.loads(out)
    assert info["n"] == 20
    manifest = dat.load_manifest(tmp_path / "manifest.json")
    manifest.validate()
    assert len(list((tmp_path / "features").iterdir())) == 20


def test_synth_reproducible(tmp_path, capsys):
    for sub in ("a", "b"):
        assert main(["synth", "--out", str(tmp_path / sub), "--n", "8",
                     "--seed", "5", "--w", "2", "--h", "2", "--d", "4"]) == EXIT_OK
    capsys.readouterr()
    a = (tmp_path / "a" / "manifest.json").read_text()
    b = (tmp_path / "b" / "manifest.json").read_text()
    assert a == b


def test_synth_rejects_tiny_n(tmp_path, capsys):
    code, _, err = run(capsys, ["synth", "--out", str(tmp_path), "--n", "2"])
    assert code == EXIT_USAGE
    assert "error" in err


@pytest.mark.parametrize("grid", [["--w", "0"], ["--h", "-2"], ["--d", "1"], ["--n", "3"],
                                  ["--noise", "nan"], ["--noise", "inf"], ["--noise", "-1"]])
def test_synth_rejects_bad_sizes(tmp_path, capsys, grid):
    code, _, err = run(capsys, ["synth", "--out", str(tmp_path / "data"), "--n", "8"] + grid)
    assert code == EXIT_USAGE
    assert err.startswith("error:") and err.count("\n") == 1
    assert not (tmp_path / "data").exists()


# --- train ------------------------------------------------------------------

def test_train_artifacts_exist(workspace):
    assert os.path.exists(workspace["checkpoint"])
    rows = [json.loads(line) for line in
            open(workspace["report"]).read().strip().split("\n")]
    assert all(set(r) == {"epoch", "train_loss", "val_mse", "val_rho"} for r in rows)


def test_train_deterministic_rerun(workspace, tmp_path, capsys):
    code, out, _ = run(capsys, [
        "train", "--manifest", workspace["manifest"],
        "--config", workspace["config"], "--out", str(tmp_path), "--seed", "0"])
    assert code == EXIT_OK
    first = json.loads(out)
    code, out, _ = run(capsys, [
        "train", "--manifest", workspace["manifest"],
        "--config", workspace["config"], "--out", str(tmp_path), "--seed", "0"])
    assert code == EXIT_OK
    assert json.loads(out)["val_rho"] == first["val_rho"]


def test_dropout_rerun_writes_identical_checkpoint(workspace, tmp_path, capsys):
    config = tmp_path / "dropout.json"
    config.write_text(json.dumps({
        "model": {**CONFIG["model"], "dropout_rate": 0.5, "dropout_z": 0.5},
        "train": {**CONFIG["train"], "batch_size": 24, "max_epochs": 2}}))
    blobs = []
    for run_dir in ("a", "b"):
        code, _, _ = run(capsys, ["train", "--manifest", workspace["manifest"],
                                  "--config", str(config), "--out", str(tmp_path / run_dir),
                                  "--seed", "3"])
        assert code == EXIT_OK
        blobs.append([(tmp_path / run_dir / name).read_bytes()
                      for name in ("checkpoint.amwt", "report.jsonl")])
    assert blobs[0] == blobs[1]


@pytest.fixture(scope="module")
def synth200(tmp_path_factory):
    data_dir = tmp_path_factory.mktemp("synth200")
    assert main(["synth", "--out", str(data_dir), "--n", "200", "--seed", "0"]) == EXIT_OK
    return data_dir


@pytest.mark.parametrize("learning_rate, expected", [(50.0, EXIT_OK), (1e300, EXIT_VERIFY)])
def test_diverging_run_keeps_its_best_checkpoint(synth200, tmp_path, capsys,
                                                 learning_rate, expected):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"train": {"learning_rate": learning_rate}}))
    out_dir = tmp_path / "run"
    code, out, err = run(capsys, ["train", "--manifest", str(synth200 / "manifest.json"),
                                  "--config", str(config), "--out", str(out_dir),
                                  "--seed", "0"])
    assert code == expected, err
    assert "Warning" not in err
    if code == EXIT_VERIFY:
        # every epoch's validation rho was undefined: nothing to keep, so the
        # --out directory, made before training, stays empty
        assert err.startswith("error:") and err.count("\n") == 1
        assert "no epoch had a defined validation rho" in err
        assert out_dir.is_dir() and not any(out_dir.iterdir())
        return
    assert err == ""
    summary = json.loads(out)
    rows = [json.loads(line) for line in (out_dir / "report.jsonl").read_text().splitlines()]
    assert len(rows) == summary["epochs_run"]
    assert None in [r["val_rho"] for r in rows]
    assert rows[summary["best_epoch"] - 1]["val_rho"] == summary["val_rho"]
    code, out, _ = run(capsys, ["eval", "--checkpoint", str(out_dir / "checkpoint.amwt"),
                                "--manifest", str(synth200 / "manifest.json"), "--split", "val"])
    assert code == EXIT_OK
    assert abs(json.loads(out)["rho"] - summary["val_rho"]) < 1e-12


def scripted_run(monkeypatch, fault):
    """A train whose val passes return rhos 0.1 and 0.5 at epochs 1 and 2 and
    raise fault at epoch 3; the weights each pass saw go into snapshots."""
    snapshots = []

    def scripted_evaluate(params, norm, records):
        snapshots.append(params.data.copy())
        if len(snapshots) == 3:
            raise fault
        return [0.1, 0.5][len(snapshots) - 1], 0.0

    monkeypatch.setattr(trn, "evaluate", scripted_evaluate)
    return snapshots


def report_epochs(out_dir):
    return [json.loads(line)["epoch"]
            for line in (out_dir / "report.jsonl").read_text().splitlines()]


def assert_checkpoint_holds(path, snapshot, reference_dir):
    """The checkpoint at path loads, and its bytes are those of a save of the
    float64 weights snapshot under its config and norm, made in reference_dir."""
    loaded, norm = mdl.load_checkpoint(path)
    expected = reference_dir / "expected.amwt"
    mdl.save_checkpoint(expected, mdl.ModelParams(loaded.config, snapshot), norm=norm)
    assert path.read_bytes() == expected.read_bytes()


def widened_checkpoint(path):
    """The checkpoint's weights as float64 params, which can take values
    beyond the float32 range, and its norm."""
    loaded, norm = mdl.load_checkpoint(path)
    return mdl.ModelParams(loaded.config, loaded.data.astype(np.float64)), norm


def test_interrupted_train_keeps_its_best_epoch(workspace, tmp_path, tmp_path_factory,
                                                monkeypatch, capsys):
    snapshots = scripted_run(monkeypatch, KeyboardInterrupt)
    code, out, err = run(capsys, ["train", "--manifest", workspace["manifest"],
                                  "--config", workspace["config"], "--out", str(tmp_path)])
    assert code == EXIT_INTERRUPTED and err == ""
    summary = json.loads(out)
    assert summary["best_epoch"] == 2 and summary["epochs_run"] == 2
    assert summary["stop_reason"] == "epoch 3: interrupted"
    assert_checkpoint_holds(tmp_path / "checkpoint.amwt", snapshots[1],
                            tmp_path_factory.mktemp("expected"))
    assert report_epochs(tmp_path) == [1, 2]


def test_train_writes_its_best_epoch_as_it_goes(workspace, tmp_path, tmp_path_factory,
                                                monkeypatch, capsys):
    # an error nothing catches stands in for a kill: what is on disk is what was written
    snapshots = scripted_run(monkeypatch, RuntimeError("killed"))
    with pytest.raises(RuntimeError, match="killed"):
        main(["train", "--manifest", workspace["manifest"],
              "--config", workspace["config"], "--out", str(tmp_path)])
    assert_checkpoint_holds(tmp_path / "checkpoint.amwt", snapshots[1],
                            tmp_path_factory.mktemp("expected"))
    assert report_epochs(tmp_path) == [1, 2]


def test_interrupt_during_a_save_keeps_the_previous_checkpoint(workspace, tmp_path,
                                                                tmp_path_factory,
                                                                monkeypatch, capsys):
    snapshots = scripted_run(monkeypatch, AssertionError("no third epoch"))
    true_save, true_header = mdl.save_checkpoint, mdl._param_header
    headers = []

    def interrupted_header(name, shape):
        headers.append(name)
        if len(headers) == 3:  # two parameters of epoch 2's checkpoint are written
            raise KeyboardInterrupt
        return true_header(name, shape)

    def save(path, params, norm):
        if os.path.exists(path):
            monkeypatch.setattr(mdl, "_param_header", interrupted_header)
        true_save(path, params, norm)

    monkeypatch.setattr(mdl, "save_checkpoint", save)
    code, out, err = run(capsys, ["train", "--manifest", workspace["manifest"],
                                  "--config", workspace["config"], "--out", str(tmp_path)])
    assert code == EXIT_INTERRUPTED and out == "" and err == "error: interrupted\n"
    assert sorted(os.listdir(tmp_path)) == ["checkpoint.amwt", "report.jsonl"]
    monkeypatch.undo()  # the reference save runs the true save_checkpoint
    assert_checkpoint_holds(tmp_path / "checkpoint.amwt", snapshots[0],
                            tmp_path_factory.mktemp("expected"))
    assert report_epochs(tmp_path) == [1]


def test_interrupt_before_the_first_improvement_writes_no_file(workspace, tmp_path,
                                                                monkeypatch, capsys):
    def interrupted_evaluate(params, norm, records):
        raise KeyboardInterrupt

    monkeypatch.setattr(trn, "evaluate", interrupted_evaluate)
    code, out, err = run(capsys, ["train", "--manifest", workspace["manifest"],
                                  "--config", workspace["config"], "--out", str(tmp_path / "run")])
    assert code == EXIT_VERIFY and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and "epoch 1: interrupted" in err
    assert not any((tmp_path / "run").iterdir())


@pytest.mark.skipif(sys.platform == "win32", reason="needs POSIX signals")
def test_sigint_ends_a_train_process_with_a_usable_checkpoint(workspace, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**CONFIG, "train": {
        **CONFIG["train"], "max_epochs": 1_000_000, "patience": 1_000_000}}))
    out_dir = tmp_path / "run"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        os.path.dirname(os.path.dirname(cli.__file__)), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen(
        [sys.executable, "-m", "memattn.cli", "train", "--manifest", workspace["manifest"],
         "--config", str(config), "--out", str(out_dir)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        # a shell may start background jobs with SIGINT ignored; Python then installs no handler
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL))
    try:
        deadline = time.monotonic() + 60.0
        # the report is written after the checkpoint, so both exist once it does
        while not (out_dir / "report.jsonl").exists():
            assert proc.poll() is None, proc.communicate()
            assert time.monotonic() < deadline, "no checkpoint within 60 s"
            time.sleep(0.01)
        proc.send_signal(signal.SIGINT)
        out, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == EXIT_INTERRUPTED, err
    # it lands in an epoch (the summary line) or in a save (one error line)
    assert (err == "" and json.loads(out)["stop_reason"].endswith(": interrupted")
            or err == "error: interrupted\n")
    assert main(["eval", "--checkpoint", str(out_dir / "checkpoint.amwt"),
                 "--manifest", workspace["manifest"]]) == EXIT_OK


def test_train_missing_split(tmp_path, capsys):
    manifest = dat.Manifest(w=1, h=1, d=1, records=[
        dat.ManifestRecord(id="a", path="a.amft", score=0.2, split="test"),
    ])
    dat.write_feature_file(tmp_path / "a.amft", np.zeros((1, 1)), 1, 1)
    dat.save_manifest(tmp_path / "m.json", manifest)
    code, _, err = run(capsys, ["train", "--manifest", str(tmp_path / "m.json"),
                                "--out", str(tmp_path / "out")])
    assert code == EXIT_USAGE
    assert "split" in err


# --- eval -------------------------------------------------------------------

def test_eval_reproduces_reported_val_rho(workspace, capsys):
    rows = [json.loads(line) for line in
            open(workspace["report"]).read().strip().split("\n")]
    best_rho = max(r["val_rho"] for r in rows)
    code, out, _ = run(capsys, ["eval", "--checkpoint", workspace["checkpoint"],
                                "--manifest", workspace["manifest"], "--split", "val"])
    assert code == EXIT_OK
    assert abs(json.loads(out)["rho"] - best_rho) < 1e-12


def test_eval_multi_split_mean(workspace, capsys):
    code, out, _ = run(capsys, ["eval", "--checkpoint", workspace["checkpoint"],
                                "--manifest", workspace["manifest"], workspace["manifest"]])
    assert code == EXIT_OK
    info = json.loads(out)
    rhos = [s["rho"] for s in info["splits"]]
    assert abs(info["mean_rho"] - sum(rhos) / 2) < 1e-12


def test_eval_constant_predictions_clean_error(workspace, tmp_path, capsys):
    params, norm = mdl.load_checkpoint(workspace["checkpoint"])
    params["fm_w1"].data[...] = 0.0
    params["fm_w2"].data[...] = 0.0
    degenerate = tmp_path / "flat.amwt"
    mdl.save_checkpoint(degenerate, params, norm=norm)
    code, _, err = run(capsys, ["eval", "--checkpoint", str(degenerate),
                                "--manifest", workspace["manifest"]])
    assert code == EXIT_VERIFY
    assert "constant" in err


def test_eval_checks_every_manifest_before_its_first_pass(workspace, tmp_path, capsys,
                                                         feature_reads):
    with open(workspace["manifest"]) as f:
        payload = json.load(f)
    data_dir = os.path.dirname(workspace["manifest"])
    unscored = next(r for r in payload["records"] if r["split"] == "test")
    for r in payload["records"]:
        r["path"] = os.path.join(data_dir, r["path"])
    del unscored["score"]
    second = tmp_path / "unscored.json"
    second.write_text(json.dumps(payload))
    code, out, err = run(capsys, ["eval", "--checkpoint", workspace["checkpoint"],
                                  "--manifest", workspace["manifest"], str(second)])
    assert code == EXIT_IO and out == ""
    assert feature_reads == []  # the first manifest's pass never ran
    assert err.startswith(f"error: {second}: ") and err.count("\n") == 1
    assert repr(unscored["id"]) in err and "no score" in err


def test_eval_constant_scores_exit_before_the_first_pass(workspace, tmp_path, capsys,
                                                        feature_reads):
    with open(workspace["manifest"]) as f:
        payload = json.load(f)
    data_dir = os.path.dirname(workspace["manifest"])
    for r in payload["records"]:
        r["path"] = os.path.join(data_dir, r["path"])
        if r["split"] == "test":
            r["score"] = 0.5
    flat = tmp_path / "flat.json"
    flat.write_text(json.dumps(payload))
    code, out, err = run(capsys, ["eval", "--checkpoint", workspace["checkpoint"],
                                  "--manifest", str(flat)])
    assert code == EXIT_IO and out == ""
    assert err.startswith(f"error: {flat}: ") and err.count("\n") == 1
    assert "identical" in err and feature_reads == []


def test_eval_missing_checkpoint(workspace, capsys):
    code, _, err = run(capsys, ["eval", "--checkpoint", "/nonexistent.amwt",
                                "--manifest", workspace["manifest"]])
    assert code == EXIT_IO


# --- predict ----------------------------------------------------------------

def test_predict_output_and_contribution_sum(workspace, capsys):
    manifest = dat.load_manifest(workspace["manifest"])
    ids = [r.id for r in manifest.records[:3]]
    code, out, _ = run(capsys, ["predict", "--checkpoint", workspace["checkpoint"],
                                "--manifest", workspace["manifest"], *ids])
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert len(lines) == 3
    params, norm_dict = mdl.load_checkpoint(workspace["checkpoint"])
    norm = trn.ScoreNorm.from_dict(norm_dict)
    manifest_dir = os.path.dirname(workspace["manifest"])
    for line, sample_id in zip(lines, ids):
        fields = line.split()
        assert fields[0] == sample_id
        y, contributions = float(fields[1]), [float(v) for v in fields[2:]]
        assert len(contributions) == params.config.t
        record = next(r for r in manifest.records if r.id == sample_id)
        features = dat.load_feature_file(os.path.join(manifest_dir, record.path))[3]
        # predict runs in float32 from the loaded float32 weights
        trace = mdl.forward(features[None], params.float32())
        unclamped = norm.denormalize(trace.y_value())
        assert abs(sum(contributions) - unclamped) < 1e-9
        assert y == pytest.approx(min(1.0, max(0.0, unclamped)), abs=1e-6)


def test_predict_clamps_to_unit_interval(workspace):
    params, _ = mdl.load_checkpoint(workspace["checkpoint"])
    features = np.random.default_rng(0).normal(size=(params.config.num_locations,
                                                     params.config.d))
    big_norm = trn.ScoreNorm(mean=5.0, half_range=1.0)  # forces y > 1
    y, _ = trn.predict(params, big_norm, features)
    assert y == 1.0


def test_predict_deterministic(workspace, capsys):
    manifest = dat.load_manifest(workspace["manifest"])
    argv = ["predict", "--checkpoint", workspace["checkpoint"],
            "--manifest", workspace["manifest"], manifest.records[0].id]
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    assert out1 == out2


def test_predict_holds_one_grid_at_a_time(tmp_path, capsys):
    manifest, _ = dat.synth_dataset(40, tmp_path, seed=0, w=14, h=14, d=64)
    cfg = mdl.ModelConfig(w=14, h=14, d=64, b=8, fm_hidden=8)
    checkpoint = str(tmp_path / "checkpoint.amwt")
    mdl.save_checkpoint(checkpoint, mdl.init_params(cfg), norm={"mean": 0.5, "half_range": 0.5})
    ids = [r.id for r in manifest.records]

    def predict_peak(ids):
        tracemalloc.start()
        try:
            code, out, _ = run(capsys, ["predict", "--checkpoint", checkpoint,
                                        "--manifest", str(tmp_path / "manifest.json"), *ids])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK and out.count("\n") == len(ids)
        return peak

    predict_peak(ids[:2])  # warm-up
    grid_bytes = cfg.num_locations * cfg.d * 8
    assert predict_peak(ids) - predict_peak(ids[:2]) < grid_bytes


def test_predict_unknown_id(workspace, capsys):
    code, _, err = run(capsys, ["predict", "--checkpoint", workspace["checkpoint"],
                                "--manifest", workspace["manifest"], "nope"])
    assert code == EXIT_IO
    assert "nope" in err


# --- attmap -----------------------------------------------------------------

def test_attmap_outputs(workspace, tmp_path, capsys):
    manifest = dat.load_manifest(workspace["manifest"])
    sample_id = manifest.records[0].id
    code, _, _ = run(capsys, ["attmap", "--checkpoint", workspace["checkpoint"],
                              "--manifest", workspace["manifest"],
                              "--out", str(tmp_path), "--id", sample_id])
    assert code == EXIT_OK
    sidecar = json.loads((tmp_path / f"{sample_id}.json").read_text())
    assert len(sidecar["alpha"]) == 3
    for alpha in sidecar["alpha"]:
        assert abs(sum(alpha) - 1.0) < 1e-9
    assert abs(sum(sidecar["m"]) - sidecar["y_raw"]) < 1e-9
    for t in (1, 2, 3):
        pgm = (tmp_path / f"{sample_id}_t{t}.pgm").read_bytes()
        assert pgm.startswith(b"P5\n224 224\n255\n")


@pytest.mark.parametrize("sample_id", ["../escaped", "sub/name", "..", ".", ""])
def test_attmap_refuses_an_id_that_leaves_out(workspace, tmp_path, capsys, sample_id):
    # a manifest may hold any id string, but attmap names its files by it
    manifest = dat.load_manifest(workspace["manifest"])
    data_dir = os.path.dirname(workspace["manifest"])
    for r in manifest.records:
        r.path = os.path.join(data_dir, r.path)
    manifest.records[0].id = sample_id
    dat.save_manifest(tmp_path / "manifest.json", manifest)
    maps = tmp_path / "maps"
    code, out, err = run(capsys, ["attmap", "--checkpoint", workspace["checkpoint"],
                                  "--manifest", str(tmp_path / "manifest.json"),
                                  "--out", str(maps), "--id", sample_id])
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json"]


def test_attmap_disabled_attention_constant_heatmaps(workspace, tmp_path, capsys):
    out_dir = tmp_path / "noatt_run"
    code, _, _ = run(capsys, ["train", "--manifest", workspace["manifest"],
                              "--config", workspace["config"],
                              "--out", str(out_dir), "--seed", "0", "--no-attention"])
    assert code == EXIT_OK
    manifest = dat.load_manifest(workspace["manifest"])
    sample_id = manifest.records[0].id
    maps_dir = tmp_path / "maps"
    code, _, _ = run(capsys, ["attmap", "--checkpoint", str(out_dir / "checkpoint.amwt"),
                              "--manifest", workspace["manifest"],
                              "--out", str(maps_dir), "--id", sample_id])
    assert code == EXIT_OK
    for t in (1, 2, 3):
        blob = (maps_dir / f"{sample_id}_t{t}.pgm").read_bytes()
        pixels = np.frombuffer(blob.split(b"255\n", 1)[1], dtype=np.uint8)
        assert pixels.min() == pixels.max()


def test_heatmap_one_hot_brightest_at_location():
    alpha = np.zeros(9)
    alpha[4] = 1.0  # center of a 3x3 grid
    img = heatmap_bytes(alpha, 3, 3)
    assert img.max() >= 250  # bilinear grid does not sample the node exactly
    peak = np.unravel_index(np.argmax(img), img.shape)
    assert 90 <= peak[0] <= 134 and 90 <= peak[1] <= 134  # central block
    assert img[0, 0] == 0
    assert img[223, 223] == 0


# --- gradcheck --------------------------------------------------------------

def test_gradcheck_passes(capsys):
    code, out, _ = run(capsys, ["gradcheck"])
    assert code == EXIT_OK
    assert "FAIL" not in out


def test_gradcheck_runs_the_oracle_on_a_batch(monkeypatch):
    true_loss = trn.loss
    batch_sizes = []

    def spying_loss(x, targets, *args, **kwargs):
        batch_sizes.append(len(x))
        return true_loss(x, targets, *args, **kwargs)

    monkeypatch.setattr(trn, "loss", spying_loss)
    report = gradcheck_report()
    assert max(report.values()) < GRADCHECK_TOLERANCE
    assert min(batch_sizes) >= 2


def test_gradcheck_negative_control(monkeypatch, capsys):
    true_backward = mdl.backward

    def skewed_backward(trace, params, dy, penalty_weight):
        before = params["fm_w2"].grad.copy()
        true_backward(trace, params, dy, penalty_weight)
        # skew the regression head's output weights by 1% of their gradient
        params["fm_w2"].grad += 0.01 * (params["fm_w2"].grad - before)

    monkeypatch.setattr(mdl, "backward", skewed_backward)
    code, out, err = run(capsys, ["gradcheck"])
    assert code == EXIT_VERIFY
    assert "fm_w2" in err


# --- usage ------------------------------------------------------------------

SURFACE = {
    "train": ["--config", "--manifest", "--no-attention", "--out", "--seed"],
    "eval": ["--checkpoint", "--manifest", "--split"],
    "predict": ["--checkpoint", "--manifest", "ids"],
    "attmap": ["--checkpoint", "--id", "--manifest", "--out"],
    "gradcheck": ["--seed"],
    "synth": ["--d", "--h", "--n", "--noise", "--out", "--seed", "--w"],
}
CONFIG_KEYS = {
    "model": ["b", "t", "fm_hidden", "dropout_rate", "dropout_z"],
    "train": ["learning_rate", "penalty_weight", "weight_decay", "batch_size", "max_epochs",
              "patience"],
}


def test_cli_and_config_surface(workspace, tmp_path, monkeypatch, capsys):
    (subcommands,) = [a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction)]
    flags = {name: sorted(a.option_strings[0] if a.option_strings else a.dest
                          for a in p._actions if not isinstance(a, argparse._HelpAction))
             for name, p in subcommands.choices.items()}
    assert flags == SURFACE
    assert sum(map(len, flags.values())) == 23
    # a key is accepted when train, given it alone in --config, gets as far as fit
    class Accepted(Exception):
        pass

    def accept(*args):
        raise Accepted

    monkeypatch.setattr(trn, "fit", accept)
    config = tmp_path / "config.json"
    accepted = {}
    for section, cls in (("model", mdl.ModelConfig), ("train", trn.TrainConfig)):
        accepted[section] = []
        for f in dataclasses.fields(cls):
            config.write_text(json.dumps({section: {f.name: f.default}}))
            try:
                code, _, err = run(capsys, ["train", "--manifest", workspace["manifest"],
                                            "--config", str(config),
                                            "--out", str(tmp_path / "run")])
            except Accepted:
                accepted[section].append(f.name)
            else:
                assert code == EXIT_USAGE and repr(f.name) in err, err
    assert accepted == CONFIG_KEYS
    assert sum(map(len, accepted.values())) == 11


def test_missing_required_flag_is_usage_error(capsys):
    code, _, _ = run(capsys, ["train"])
    assert code == EXIT_USAGE


def test_main_builds_one_parser_and_runs_the_module_s_command(monkeypatch, capsys):
    parser = build_parser()
    monkeypatch.setattr(cli, "cmd_gradcheck", lambda args: 7)
    assert run(capsys, ["gradcheck", "--seed", "1"])[0] == 7
    assert run(capsys, ["gradcheck", "--seed", "x"])[0] == EXIT_USAGE
    assert build_parser() is parser


@pytest.mark.parametrize("argv", [
    ["eval", "--seed", "0"],
    ["predict", "--config", "x.json", "synth00000"],
    ["attmap", "--seed", "0", "--out", "maps", "--id", "synth00000"],
])
def test_removed_flags_are_usage_errors(workspace, tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    files = ["--checkpoint", workspace["checkpoint"], "--manifest", workspace["manifest"]]
    code, _, err = run(capsys, argv[:1] + files + argv[1:])
    assert code == EXIT_USAGE
    assert "unrecognized arguments" in err


@pytest.mark.parametrize("section, block, field", [
    ("model", {"t": "3"}, "t"),
    ("model", {"attention_enabled": "false"}, "attention_enabled"),
    ("model", {"dropout_rate": 1.5}, "dropout rate"),
    ("model", {"dropout_z": float("nan")}, "dropout_z"),
    ("train", {"weight_decay": float("nan")}, "weight_decay"),
    ("train", {"learning_rate": float("inf")}, "learning_rate"),
    ("model", {"seed": -1}, "seed"),
    ("train", {"seed": -1}, "seed"),
    # the manifest sets the grid, even to the value it already has
    ("model", {"w": 2}, "'w'"),
    ("model", {"h": 2}, "'h'"),
    ("model", {"d": 8}, "'d'"),
    # --seed sets both seeds and --no-attention the ablation, even to their defaults
    ("model", {"seed": 0}, "'seed'"),
    ("model", {"attention_enabled": True}, "'attention_enabled'"),
    ("train", {"seed": 0}, "'seed'"),
    # a JSON integer beyond the float range is not finite either
    ("train", {"learning_rate": 10 ** 400}, "learning_rate"),
    ("train", {"penalty_weight": 10 ** 400}, "penalty_weight"),
])
def test_bad_config_value_is_usage_error(workspace, tmp_path, capsys, feature_reads,
                                         section, block, field):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({section: block}))
    code, _, err = run(capsys, ["train", "--manifest", workspace["manifest"],
                                "--config", str(config), "--out", str(tmp_path / "run")])
    assert code == EXIT_USAGE
    assert err.startswith("error:") and err.count("\n") == 1 and field in err
    assert not (tmp_path / "run").exists() and feature_reads == []


@pytest.mark.parametrize("argv", [["train", "--out", "run", "--seed", "-1"],
                                  ["gradcheck", "--seed", "-1"]])
def test_negative_seed_is_usage_error(workspace, tmp_path, monkeypatch, capsys, feature_reads,
                                      argv):
    monkeypatch.chdir(tmp_path)
    if argv[0] == "train":
        argv = argv + ["--manifest", workspace["manifest"]]
    code, _, err = run(capsys, argv)
    assert code == EXIT_USAGE
    assert err.startswith("error:") and err.count("\n") == 1 and "seed" in err
    assert not (tmp_path / "run").exists() and feature_reads == []


@pytest.mark.parametrize("command", [
    ["train", "--out", "run"],
    ["eval", "--split", "val"],
    ["eval", "--split", "test"],
])
def test_one_record_split_is_usage_error(workspace, tmp_path, monkeypatch, capsys, command):
    # val and test keep one record each; eval gets one.json second, so a check
    # made per manifest after its pass would let the whole manifest's pass run
    with open(workspace["manifest"]) as f:
        payload = json.load(f)
    data_dir = os.path.dirname(workspace["manifest"])
    kept, seen = [], set()
    for r in payload["records"]:
        r["path"] = os.path.join(data_dir, r["path"])
        if r["split"] == "train" or r["split"] not in seen:
            kept.append(r)
            seen.add(r["split"])
    (tmp_path / "one.json").write_text(json.dumps({**payload, "records": kept}))
    monkeypatch.chdir(tmp_path)
    passes = []
    monkeypatch.setattr(trn, "evaluate", lambda *args: passes.append(args))
    if command[0] == "train":
        argv = command + ["--manifest", "one.json"]
    else:
        argv = command + ["--checkpoint", workspace["checkpoint"],
                          "--manifest", workspace["manifest"], "one.json"]
    code, _, err = run(capsys, argv)
    assert code == EXIT_USAGE
    assert err.startswith("error:") and err.count("\n") == 1
    assert passes == [] and not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", [
    ["eval"], ["predict", "synth00000"], ["attmap", "--out", "maps", "--id", "synth00000"],
])
def test_manifest_grid_mismatch_is_io_error(workspace, tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    assert main(["synth", "--out", str(tmp_path), "--n", "8",
                 "--w", "3", "--h", "3", "--d", "8"]) == EXIT_OK
    capsys.readouterr()
    code, _, err = run(capsys, command[:1] + [
        "--checkpoint", workspace["checkpoint"],
        "--manifest", str(tmp_path / "manifest.json")] + command[1:])
    assert code == EXIT_IO
    assert err.count("\n") == 1 and err.startswith("error:")
    assert "3x3x8" in err and "2x2x8" in err


def test_train_manifest_grid_that_disagrees_with_the_files_is_io_error(
        workspace, tmp_path, monkeypatch, capsys, feature_reads):
    # a 3000x3000x3000 grid over 2x2x8 files: the model it would build needs 201 GiB
    with open(workspace["manifest"]) as f:
        payload = json.load(f)
    data_dir = os.path.dirname(workspace["manifest"])
    for r in payload["records"]:
        r["path"] = os.path.join(data_dir, r["path"])
    payload.update(w=3000, h=3000, d=3000)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(payload))
    built = []
    monkeypatch.setattr(mdl, "init_params", built.append)
    code, out, err = run(capsys, ["train", "--manifest", str(manifest),
                                  "--out", str(tmp_path / "run")])
    first = next(r["path"] for r in payload["records"] if r["split"] == "train")
    assert code == EXIT_IO and out == ""
    assert err == f"error: {first}: dims 2x2x8 disagree with manifest 3000x3000x3000\n"
    # the first train file is read once, after --out is made and before any model is built
    assert feature_reads == [first] and built == []
    assert os.listdir(tmp_path / "run") == []


def test_bad_checkpoint_magic_is_io_error(workspace, tmp_path, capsys):
    bad = tmp_path / "bad.amwt"
    bad.write_bytes(b"XXXX" + b"\0" * 12)
    code, _, _ = run(capsys, ["eval", "--checkpoint", str(bad),
                              "--manifest", workspace["manifest"]])
    assert code == EXIT_IO


@pytest.mark.parametrize("text", ["{bad", "[1]", '{"model": [1]}', '{"train": 3}',
                                  '{"modle": {"t": 1}, "trian": {"max_epochs": 1}}'])
def test_malformed_config_file_is_usage_error(workspace, tmp_path, capsys, text):
    config = tmp_path / "config.json"
    config.write_text(text)
    code, _, err = run(capsys, ["train", "--manifest", workspace["manifest"],
                                "--config", str(config), "--out", str(tmp_path / "run")])
    assert code == EXIT_USAGE
    assert err.startswith("error:") and err.count("\n") == 1
    assert str(config) in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", [
    ["eval"], ["predict", "synth00000"], ["attmap", "--out", "maps", "--id", "synth00000"],
])
def test_truncated_checkpoint_is_io_error(workspace, tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    cut = tmp_path / "cut.amwt"
    with open(workspace["checkpoint"], "rb") as f:
        cut.write_bytes(f.read()[:300])
    code, _, err = run(capsys, command[:1] + [
        "--checkpoint", str(cut), "--manifest", workspace["manifest"]] + command[1:])
    assert code == EXIT_IO
    assert err.startswith("error:") and err.count("\n") == 1
    assert str(cut) in err and "truncated" in err


@pytest.mark.parametrize("command", [
    ["eval"], ["predict", "synth00000"], ["attmap", "--out", "maps", "--id", "synth00000"],
])
def test_huge_finite_weights_exit_cleanly_without_warnings(workspace, tmp_path, monkeypatch,
                                                           capsys, command):
    monkeypatch.chdir(tmp_path)
    params, norm = widened_checkpoint(workspace["checkpoint"])
    params["att_K"].data[0, 0] = 1e308
    params["lstm_Wi"].data[0] = 1e300
    huge = tmp_path / "huge.amwt"
    mdl.save_checkpoint(huge, params, norm=norm)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, err = run(capsys, command[:1] + [
            "--checkpoint", str(huge), "--manifest", workspace["manifest"]] + command[1:])
    assert not caught, [str(w.message) for w in caught]
    if code == EXIT_OK:
        assert err == ""
    else:
        assert code == EXIT_VERIFY
        assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("command", [
    ["eval"], ["predict", "synth00000"], ["attmap", "--out", "maps", "--id", "synth00000"],
])
def test_weights_beyond_the_float32_range_exit_3_naming_the_parameter(
        workspace, tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    params, norm = widened_checkpoint(workspace["checkpoint"])
    params["lstm_Wo"].data[1, 1] = 1e39  # finite in float64, beyond float32's 3.4e38
    wide = tmp_path / "wide.amwt"
    mdl.save_checkpoint(wide, params, norm=norm)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, command[:1] + [
            "--checkpoint", str(wide), "--manifest", workspace["manifest"]] + command[1:])
    assert not caught, [str(w.message) for w in caught]
    assert code == EXIT_VERIFY and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and "lstm_Wo" in err
    assert not (tmp_path / "maps").exists()


def test_eval_checks_the_float32_range_at_load_before_the_manifests(workspace, tmp_path, capsys,
                                                                   feature_reads):
    params, norm = widened_checkpoint(workspace["checkpoint"])
    params["lstm_Wo"].data[1, 1] = 1e39  # finite in float64, beyond float32's 3.4e38
    wide = tmp_path / "wide.amwt"
    mdl.save_checkpoint(wide, params, norm=norm)
    other, _ = dat.synth_dataset(20, tmp_path / "other", seed=0, w=3, h=2, d=8)
    assert (other.w, other.h) != (params.config.w, params.config.h)
    # the load's range check comes before the manifest's grid check (exit 2)
    code, out, err = run(capsys, ["eval", "--checkpoint", str(wide),
                                  "--manifest", str(tmp_path / "other" / "manifest.json")])
    assert code == EXIT_VERIFY and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and "lstm_Wo" in err
    assert feature_reads == []
    # a non-finite value after the overflow is still a format error, exit 2
    params["fm_w1"].data[0, 0] = np.nan
    mdl.save_checkpoint(wide, params, norm=norm)
    code, out, err = run(capsys, ["eval", "--checkpoint", str(wide),
                                  "--manifest", workspace["manifest"]])
    assert code == EXIT_IO and out == ""
    assert err.count("\n") == 1 and "fm_w1" in err and "non-finite" in err


@pytest.mark.parametrize("out", ["taken", "taken/sub"])
def test_train_out_that_cannot_be_a_directory_is_io_error(workspace, tmp_path, capsys,
                                                          feature_reads, out):
    # a file stands where --out, or a directory above it, would go
    (tmp_path / "taken").write_text("a file")
    code, out_text, err = run(capsys, ["train", "--manifest", workspace["manifest"],
                                       "--config", workspace["config"],
                                       "--out", str(tmp_path / out)])
    assert code == EXIT_IO and out_text == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert feature_reads == []  # it fails before a feature file is read, so before training
    assert (tmp_path / "taken").read_text() == "a file"


MANIFEST_FAULTS = {
    "not JSON": lambda payload: "{bad",
    "not an object": lambda payload: "[1]",
    "record without path": lambda payload: json.dumps(
        {**payload, "records": [{"id": "a", "split": "train"}]}),
    "duplicate ids": lambda payload: json.dumps(
        {**payload, "records": payload["records"] + payload["records"][:1]}),
    "train scores all equal": lambda payload: json.dumps({**payload, "records": [
        {**r, "score": 0.5} if r["split"] == "train" else r for r in payload["records"]]}),
    "val scores all equal": lambda payload: json.dumps({**payload, "records": [
        {**r, "score": 0.5} if r["split"] == "val" else r for r in payload["records"]]}),
    "train record without score": lambda payload: json.dumps({**payload, "records": [
        {k: v for k, v in payload["records"][0].items() if k != "score"},
        *payload["records"][1:]]}),
    "val record without score": lambda payload: json.dumps({**payload, "records": [
        {k: v for k, v in r.items() if k != "score" or r["split"] != "val"}
        for r in payload["records"]]}),
}


@pytest.mark.parametrize("fault", sorted(MANIFEST_FAULTS))
def test_bad_manifest_is_io_error(workspace, tmp_path, capsys, feature_reads, fault):
    with open(workspace["manifest"]) as f:
        payload = json.load(f)
    data_dir = os.path.dirname(workspace["manifest"])
    for r in payload["records"]:
        r["path"] = os.path.join(data_dir, r["path"])
    manifest = tmp_path / "manifest.json"
    manifest.write_text(MANIFEST_FAULTS[fault](payload))
    code, _, err = run(capsys, ["train", "--manifest", str(manifest),
                                "--out", str(tmp_path / "run")])
    assert code == EXIT_IO
    assert err.startswith(f"error: {manifest}") and err.count("\n") == 1
    assert not (tmp_path / "run").exists() and feature_reads == []


def check_non_finite_feature_is_io_error(tmp_path, capsys, split, index):
    assert main(["synth", "--out", str(tmp_path), "--n", "20",
                 "--w", "2", "--h", "2", "--d", "4"]) == EXIT_OK
    capsys.readouterr()
    record = dat.load_manifest(tmp_path / "manifest.json").split_records(split)[index]
    path = tmp_path / record.path
    w, h, _, features = dat.load_feature_file(path)
    features[1, 2] = np.nan
    dat.write_feature_file(path, features, w, h)
    code, _, err = run(capsys, ["train", "--manifest", str(tmp_path / "manifest.json"),
                                "--out", str(tmp_path / "run")])
    assert code == EXIT_IO
    assert err.startswith("error:") and err.count("\n") == 1
    assert record.path in err
    assert not (tmp_path / "run" / "checkpoint.amwt").exists()


def test_non_finite_train_feature_is_io_error(tmp_path, capsys):
    check_non_finite_feature_is_io_error(tmp_path, capsys, "train", 3)


def test_non_finite_val_feature_is_io_error(tmp_path, capsys):
    # the file is first read by the val evaluation that ends epoch 1
    check_non_finite_feature_is_io_error(tmp_path, capsys, "val", 1)


@pytest.fixture(scope="module")
def mutants(workspace, tmp_path_factory):
    """A directory whose manifest mutant.json reads its first test record from
    mutant.amft, and the valid bytes of those two files and of the checkpoint."""
    root = tmp_path_factory.mktemp("mutants")
    data_dir = os.path.dirname(workspace["manifest"])
    manifest = dat.load_manifest(workspace["manifest"])
    first = manifest.split_records("test")[0]
    with open(os.path.join(data_dir, first.path), "rb") as f:
        amft = f.read()
    with open(workspace["checkpoint"], "rb") as f:
        amwt = f.read()
    for r in manifest.records:
        r.path = "mutant.amft" if r is first else os.path.join(data_dir, r.path)
    dat.save_manifest(root / "mutant.json", manifest)
    return root, {"amft": amft, "amwt": amwt, "json": (root / "mutant.json").read_bytes()}


@settings(deadline=None, max_examples=50)
@given(data=st.data())
def test_mutated_input_files_fail_cleanly(mutants, data):
    root, valid = mutants
    target = data.draw(st.sampled_from(sorted(valid)), label="file")
    blob = bytearray(valid[target])
    kind = data.draw(st.sampled_from(["overwrite", "truncate", "append"]), label="kind")
    # the binary headers and the checkpoint's meta block lie in the first 256 bytes
    pos = data.draw(st.integers(0, min(255, len(blob) - 1))
                    | st.integers(0, len(blob) - 1), label="pos")
    if kind == "overwrite":
        chunk = data.draw(st.binary(min_size=1, max_size=8), label="bytes")
        blob[pos:pos + len(chunk)] = chunk
    elif kind == "truncate":
        del blob[pos:]
    else:
        blob += data.draw(st.binary(min_size=1, max_size=8), label="bytes")
    for name, original in valid.items():
        (root / f"mutant.{name}").write_bytes(blob if name == target else original)
    out, err = io.StringIO(), io.StringIO()
    # an exception escaping main fails the test with its traceback
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["eval", "--checkpoint", str(root / "mutant.amwt"),
                     "--manifest", str(root / "mutant.json")])
    err = err.getvalue()
    # 3: mutated weights made every prediction equal, or overflowed the forward pass
    assert code in (EXIT_OK, EXIT_IO, EXIT_VERIFY), err
    if code != EXIT_OK:
        assert err.startswith("error:") and err.count("\n") == 1, err
