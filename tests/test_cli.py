import contextlib
import io
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memattn import autograd as ag
from memattn import data as dat
from memattn import model as mdl
from memattn import train as trn
from memattn.cli import EXIT_IO, EXIT_OK, EXIT_USAGE, EXIT_VERIFY, heatmap_bytes, main

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
                                "--splits", workspace["manifest"], workspace["manifest"]])
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
        trace = mdl.forward(features, params)
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
    img = heatmap_bytes(alpha, 3, 3, size=224)
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


def test_gradcheck_negative_control(monkeypatch, capsys):
    true_dot = ag.dot

    def corrupted_dot(x, y):
        out = true_dot(x, y)
        inner = out._backward

        def backward(g):
            inner(g)
            y.grad += 0.01 * g * x.data  # skew the grad of the second operand

        out._backward = backward
        return out

    monkeypatch.setattr(ag, "dot", corrupted_dot)
    code, out, err = run(capsys, ["gradcheck"])
    assert code == EXIT_VERIFY
    assert "fm_w2" in err


# --- usage ------------------------------------------------------------------

def test_missing_required_flag_is_usage_error(capsys):
    code, _, _ = run(capsys, ["train"])
    assert code == EXIT_USAGE


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


@pytest.mark.parametrize("model_block, field", [
    ({"t": "3"}, "t"),
    ({"attention_enabled": "false"}, "attention_enabled"),
    ({"dropout_rate": 1.5}, "dropout rate"),
])
def test_bad_config_value_is_usage_error(workspace, tmp_path, capsys,
                                           model_block, field):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"model": model_block}))
    code, _, err = run(capsys, ["train", "--manifest", workspace["manifest"],
                                "--config", str(config), "--out", str(tmp_path / "run")])
    assert code == EXIT_USAGE
    assert err.startswith("error:") and field in err
    assert not (tmp_path / "run").exists()


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


MANIFEST_FAULTS = {
    "not JSON": lambda payload: "{bad",
    "not an object": lambda payload: "[1]",
    "record without path": lambda payload: json.dumps(
        {**payload, "records": [{"id": "a", "split": "train"}]}),
    "duplicate ids": lambda payload: json.dumps(
        {**payload, "records": payload["records"] + payload["records"][:1]}),
    "train scores all equal": lambda payload: json.dumps({**payload, "records": [
        {**r, "score": 0.5} if r["split"] == "train" else r for r in payload["records"]]}),
    "train record without score": lambda payload: json.dumps({**payload, "records": [
        {k: v for k, v in payload["records"][0].items() if k != "score"},
        *payload["records"][1:]]}),
}


@pytest.mark.parametrize("fault", sorted(MANIFEST_FAULTS))
def test_bad_manifest_is_io_error(workspace, tmp_path, capsys, fault):
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
    assert err.startswith("error:") and err.count("\n") == 1
    assert not (tmp_path / "run").exists()


def test_non_finite_train_feature_is_io_error(tmp_path, capsys):
    assert main(["synth", "--out", str(tmp_path), "--n", "20",
                 "--w", "2", "--h", "2", "--d", "4"]) == EXIT_OK
    capsys.readouterr()
    record = dat.load_manifest(tmp_path / "manifest.json").split_records("train")[3]
    path = tmp_path / record.path
    w, h, _, features = dat.load_feature_file(path)
    features[1, 2] = np.nan
    dat.write_feature_file(path, features, w, h)
    code, _, err = run(capsys, ["train", "--manifest", str(tmp_path / "manifest.json"),
                                "--out", str(tmp_path / "run")])
    assert code == EXIT_IO
    assert err.startswith("error:") and err.count("\n") == 1
    assert record.path in err


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
