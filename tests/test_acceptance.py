"""End-to-end acceptance suite; each test prints one pass/fail line."""
import math
import time

import numpy as np
import pytest

from memattn import data as dat
from memattn import model as mdl
from memattn import train as trn
from memattn.autograd import constant
from memattn.cli import GRADCHECK_TOLERANCE, gradcheck_report
from memattn.metrics import fractional_ranks, spearman_rho
from memattn.model import attention_penalty

ABLATION_SEEDS = (1, 2, 3)
ABLATION_MARGIN = 0.05


def report(name, ok):
    print(f"ACCEPTANCE {'PASS' if ok else 'FAIL'}: {name}")
    assert ok


def test_gradient_fidelity():
    start = time.time()
    errors = gradcheck_report()
    elapsed = time.time() - start
    ok = max(errors.values()) < GRADCHECK_TOLERANCE and elapsed < 30.0
    print(f"  max rel err {max(errors.values()):.2e}, {elapsed:.1f}s")
    report("gradient fidelity (all param groups < 1e-4, < 30s)", ok)


def test_per_step_score_sums_match_displayed_totals():
    low = [0.165, 0.148, 0.140]
    high = [0.293, 0.302, 0.306]

    def left_fold_sum(values):
        total = values[0]
        for v in values[1:]:
            total = total + v
        return total

    ok = abs(left_fold_sum(low) - 0.453) < 1e-12
    ok = ok and abs(left_fold_sum(high) - 0.901) < 1e-12
    ok = ok and round(left_fold_sum(high), 1) == 0.9

    # the model's total must be the same left-fold over its per-step scores
    cfg = mdl.ModelConfig(w=2, h=2, d=6, b=5, t=3, fm_hidden=4,
                          dropout_rate=0.0, dropout_z=0.0, seed=0)
    params = mdl.init_params(cfg)
    x = np.random.default_rng(0).normal(size=(cfg.num_locations, cfg.d))
    trace = mdl.forward(x, params)
    ok = ok and trace.y_value() == left_fold_sum(trace.m_values())
    report("per-step score summation reproduces displayed totals", ok)


def _ablation_run(tmp_path, seed, attention_enabled):
    data_dir = tmp_path / f"synth{seed}"
    if not (data_dir / "manifest.json").exists():
        dat.synth_dataset(2000, data_dir, seed=seed, w=7, h=7, d=32, noise=0.02)
    manifest = dat.load_manifest(data_dir / "manifest.json")
    train_set = dat.load_split(manifest, data_dir, "train")
    val_set = dat.load_split(manifest, data_dir, "val")
    test_set = dat.load_split(manifest, data_dir, "test")
    mcfg = mdl.ModelConfig(w=7, h=7, d=32, b=32, t=3, fm_hidden=32,
                           dropout_rate=0.0, dropout_z=0.0,
                           attention_enabled=attention_enabled, seed=seed)
    tcfg = trn.TrainConfig(batch_size=32, max_epochs=8, patience=8, seed=seed)
    result = trn.fit(train_set, val_set, mcfg, tcfg)
    rho, _ = trn.evaluate(result.params, result.norm, test_set)
    return rho


def test_attention_ablation_direction(tmp_path):
    start = time.time()
    margins = []
    for seed in ABLATION_SEEDS:
        rho_att = _ablation_run(tmp_path, seed, attention_enabled=True)
        rho_uniform = _ablation_run(tmp_path, seed, attention_enabled=False)
        margins.append(rho_att - rho_uniform)
        print(f"  seed {seed}: attention {rho_att:.3f}, uniform {rho_uniform:.3f}")
    elapsed = time.time() - start
    median = sorted(margins)[len(margins) // 2]
    print(f"  median margin {median:.3f}, {elapsed:.0f}s")
    ok = median >= ABLATION_MARGIN and elapsed < 600.0
    report("attention beats uniform averaging by >= 0.05 test rho", ok)


def test_overfit_capacity(tmp_path):
    start = time.time()
    manifest, _ = dat.synth_dataset(16, tmp_path, seed=3, w=2, h=2, d=8, noise=0.0)
    records = []
    for split in dat.SPLITS:
        records += dat.load_split(manifest, tmp_path, split)
    cfg = mdl.ModelConfig(w=2, h=2, d=8, b=8, t=3, fm_hidden=8,
                          dropout_rate=0.0, dropout_z=0.0, seed=0)
    tcfg = trn.TrainConfig(batch_size=16, penalty_weight=0.0, weight_decay=0.0, seed=0)
    norm = trn.ScoreNorm.from_scores([r.score for r in records])
    params = mdl.init_params(cfg)
    opt = trn.AdamState(params.params())
    rng = np.random.default_rng(0)
    loss_value = math.inf
    steps = 0
    while steps < 2000 and loss_value >= 1e-3:
        loss_value = trn.train_epoch(records, params, opt, tcfg, norm, rng)
        steps += 1
    elapsed = time.time() - start
    print(f"  train MSE {loss_value:.2e} after {steps} steps, {elapsed:.1f}s")
    report("16-sample overfit reaches train MSE < 1e-3 in < 1 min",
           loss_value < 1e-3 and elapsed < 60.0)


def test_metric_oracle_equivalence():
    rng = np.random.default_rng(0)
    ok = True
    for _ in range(1000):
        gt = rng.random(50)
        pred = rng.random(50)
        ra, rb = fractional_ranks(gt), fractional_ranks(pred)
        d = ra - rb
        closed_form = 1.0 - 6.0 * np.sum(d * d) / (50 * (50 * 50 - 1))
        ok = ok and abs(spearman_rho(gt, pred) - closed_form) < 1e-12

    def brute_force(values):
        return [sum(1 for u in values if u < v) + (sum(1 for u in values if u == v) + 1) / 2
                for v in values]

    for _ in range(50):
        tied = rng.integers(0, 5, size=12).astype(float)
        ok = ok and fractional_ranks(tied).tolist() == brute_force(tied)
    report("rank metrics match closed-form and brute-force oracles", ok)


def test_loss_and_config_closed_forms():
    alphas = [constant(np.full(196, 1.0 / 196.0)) for _ in range(3)]
    expected = 196.0 * (1.0 - 3.0 / 196.0) ** 2
    ok = abs(attention_penalty(alphas).item() - expected) < 1e-12
    cfg = trn.TrainConfig()
    ok = ok and cfg.penalty_weight == 1e-4
    ok = ok and cfg.learning_rate == 1e-3
    ok = ok and cfg.batch_size == 256
    ok = ok and cfg.weight_decay == 1e-6
    report("penalty closed form and published config defaults", ok)


def test_invariance_suite_softmax_shift():
    from memattn.autograd import softmax_vec
    rng = np.random.default_rng(1)
    ok = True
    for _ in range(100):
        v = rng.normal(size=10) * 5
        shift = rng.normal() * 20
        p = softmax_vec(constant(v)).data
        q = softmax_vec(constant(v + shift)).data
        ok = ok and abs(p.sum() - 1.0) < 1e-12 and np.allclose(p, q, atol=1e-12)
    report("softmax shift invariance and normalization", ok)


def test_invariance_suite_alpha_and_disabled_attention():
    cfg = mdl.ModelConfig(w=3, h=3, d=8, b=6, t=3, fm_hidden=5,
                          dropout_rate=0.0, dropout_z=0.0, seed=2)
    params = mdl.init_params(cfg)
    x = np.random.default_rng(2).normal(size=(cfg.num_locations, cfg.d))
    trace = mdl.forward(x, params)
    ok = all(abs(a.data.sum() - 1.0) < 1e-9 and np.all(a.data >= 0)
             for a in trace.alpha)

    cfg_off = mdl.ModelConfig(w=3, h=3, d=8, b=6, t=3, fm_hidden=5,
                              dropout_rate=0.0, dropout_z=0.0,
                              attention_enabled=False, seed=2)
    params_off = mdl.init_params(cfg_off)
    trace_off = mdl.forward(x, params_off)
    xbar = x.mean(axis=0)
    for alpha in trace_off.alpha:
        ok = ok and np.allclose(mdl.attend(x, alpha).data, xbar, atol=1e-12)
    report("attention maps normalized; disabled attention sees the mean", ok)


def test_invariance_suite_rho_monotone_transform():
    rng = np.random.default_rng(3)
    ok = True
    for _ in range(50):
        gt = rng.random(20)
        pred = rng.random(20) + 0.01
        base = spearman_rho(gt, pred)
        ok = ok and abs(spearman_rho(gt, 2 * pred + 7) - base) < 1e-12
        ok = ok and abs(spearman_rho(gt, pred ** 3) - base) < 1e-12
    report("rank correlation invariant under monotone transforms", ok)


def test_invariance_suite_feature_roundtrip(tmp_path):
    rng = np.random.default_rng(4)
    features = rng.normal(size=(6, 4)).astype(np.float32).astype(np.float64)
    path = tmp_path / "roundtrip.amft"
    dat.write_feature_file(path, features, w=3, h=2)
    ok = np.array_equal(dat.load_feature_file(path)[3], features)
    report("bit-exact feature roundtrip", ok)


def test_early_stopping_contract(tmp_path):
    manifest, _ = dat.synth_dataset(60, tmp_path, seed=5, w=2, h=2, d=8, noise=0.05)
    train_set = dat.load_split(manifest, tmp_path, "train")
    val_set = dat.load_split(manifest, tmp_path, "val")
    cfg = mdl.ModelConfig(w=2, h=2, d=8, b=8, t=3, fm_hidden=8,
                          dropout_rate=0.0, dropout_z=0.0, seed=0)

    # injected validation sequence: the max-rho epoch must be selected
    injected = [0.2, 0.7, 0.3, 0.1]
    snapshots = []
    calls = {"n": 0}

    def eval_fn(params):
        snapshots.append(params.snapshot())
        rho = injected[calls["n"]]
        calls["n"] += 1
        return rho, 0.0

    tcfg = trn.TrainConfig(batch_size=16, max_epochs=4, patience=2, seed=0)
    result = trn.fit(train_set, val_set, cfg, tcfg, eval_fn=eval_fn)
    ok = result.report.best_epoch == 2 and result.report.best_rho == 0.7
    for name, values in snapshots[1].items():
        ok = ok and np.array_equal(result.params.snapshot()[name], values)

    # a real run's returned params must reproduce best_rho exactly
    tcfg = trn.TrainConfig(batch_size=16, max_epochs=5, patience=5, seed=0)
    result = trn.fit(train_set, val_set, cfg, tcfg)
    rho, _ = trn.evaluate(result.params, result.norm, val_set)
    ok = ok and abs(rho - result.report.best_rho) < 1e-12
    report("early stopping returns the max-rho checkpoint", ok)
