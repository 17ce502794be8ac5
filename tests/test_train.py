import copy
import json
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memattn import autograd as ag
from memattn import data as dat
from memattn import model as mdl
from memattn import train as trn
from memattn.metrics import mse as mse_metric
from memattn.metrics import spearman_rho


def tiny_config(**overrides):
    kwargs = dict(w=2, h=2, d=8, b=8, t=3, fm_hidden=8,
                  dropout_rate=0.0, dropout_z=0.0, seed=0)
    kwargs.update(overrides)
    return mdl.ModelConfig(**kwargs)


def tiny_dataset(tmp_path, n=16, noise=0.0, seed=3):
    manifest, _ = dat.synth_dataset(n, tmp_path, seed=seed, w=2, h=2, d=8, noise=noise)
    records = []
    for split in dat.SPLITS:
        records += dat.load_split(manifest, tmp_path / "manifest.json", split)
    return records


# --- score normalization ----------------------------------------------------

def test_normalize_mean_maps_to_zero():
    norm = trn.ScoreNorm.from_scores([0.2, 0.5, 0.8])
    assert norm.normalize(0.5) == 0.0


def test_normalize_hand_case():
    norm = trn.ScoreNorm.from_scores([0.2, 0.5, 0.8])
    assert norm.mean == pytest.approx(0.5)
    assert norm.half_range == pytest.approx(0.3)
    assert norm.normalize(0.8) == pytest.approx(1.0)


@settings(deadline=None)
@given(st.floats(min_value=-100, max_value=100, allow_nan=False))
def test_normalize_roundtrip(s):
    norm = trn.ScoreNorm(mean=0.37, half_range=0.21)
    assert norm.denormalize(norm.normalize(s)) == pytest.approx(s, abs=1e-12)


def test_normalize_training_scores_stay_in_unit_band():
    scores = np.random.default_rng(0).random(50)
    norm = trn.ScoreNorm.from_scores(scores)
    normalized = [norm.normalize(s) for s in scores]
    assert max(abs(v) for v in normalized) <= 1.0 + 1e-12


def test_constant_scores_rejected():
    with pytest.raises(trn.DegenerateDatasetError):
        trn.ScoreNorm.from_scores([0.4, 0.4, 0.4])


# --- loss -------------------------------------------------------------------

def test_loss_zero_when_prediction_matches_target():
    cfg = tiny_config()
    params = mdl.init_params(cfg)
    x = np.random.default_rng(1).normal(size=(1, cfg.num_locations, cfg.d))
    trace = mdl.forward(x, params)
    tcfg = trn.TrainConfig(penalty_weight=0.0)
    total = trn.loss(x, [trace.y_value()], params, tcfg)
    assert total.item() == pytest.approx(0.0, abs=1e-15)


def test_loss_squared_error():
    cfg = tiny_config()
    params = mdl.init_params(cfg)
    x = np.random.default_rng(2).normal(size=(1, cfg.num_locations, cfg.d))
    trace = mdl.forward(x, params)
    tcfg = trn.TrainConfig(penalty_weight=0.0)
    total = trn.loss(x, [trace.y_value() + 0.1], params, tcfg)
    assert total.item() == pytest.approx(0.01, abs=1e-12)


def test_loss_uniform_attention_penalty_term():
    cfg = mdl.ModelConfig(w=14, h=14, d=4, b=4, t=3, fm_hidden=4,
                          dropout_rate=0.0, dropout_z=0.0,
                          attention_enabled=False, seed=0)
    params = mdl.init_params(cfg)
    x = np.random.default_rng(3).normal(size=(1, cfg.num_locations, cfg.d))
    trace = mdl.forward(x, params)
    lam = 1e-4
    with_pen = trn.loss(x, [trace.y_value()], params, trn.TrainConfig(penalty_weight=lam))
    expected = lam * 196.0 * (1.0 - 3.0 / 196.0) ** 2
    assert with_pen.item() == pytest.approx(expected, abs=1e-12)


def test_loss_non_negative():
    cfg = tiny_config()
    params = mdl.init_params(cfg)
    x = np.random.default_rng(4).normal(size=(1, cfg.num_locations, cfg.d))
    total = trn.loss(x, [0.7], params, trn.TrainConfig())
    assert total.item() >= 0.0


def test_loss_rejects_non_finite_target():
    cfg = tiny_config()
    params = mdl.init_params(cfg)
    x = np.zeros((1, cfg.num_locations, cfg.d))
    with pytest.raises(ValueError):
        trn.loss(x, [float("nan")], params, trn.TrainConfig())


# --- adam -------------------------------------------------------------------

def vector(*values):
    """A stand-in for ModelParams: the data and grad vectors adam_step reads."""
    data = np.array(values, dtype=np.float64)
    return types.SimpleNamespace(data=data, grad=np.zeros_like(data))


def test_adam_zero_gradient_leaves_params_unchanged():
    p = vector(1.0, -2.0)
    state = trn.AdamState(p)
    cfg = trn.TrainConfig(weight_decay=0.0)
    trn.adam_step(p, state, cfg)
    np.testing.assert_array_equal(p.data, [1.0, -2.0])


def test_adam_first_step_hand_computed():
    p = vector(1.0)
    p.grad[...] = 1.0
    state = trn.AdamState(p)
    cfg = trn.TrainConfig(learning_rate=0.1, weight_decay=0.0)
    trn.adam_step(p, state, cfg)
    # bias correction makes m_hat = v_hat = g on the first step
    assert p.data[0] == pytest.approx(0.9, abs=1e-6)


def reference_adam(theta, grads, lr, b1=0.9, b2=0.999, eps=1e-8):
    """Independently coded scalar Adam for cross-checking."""
    m = v = 0.0
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        theta -= lr * m_hat / (np.sqrt(v_hat) + eps)
    return theta


def test_adam_two_steps_vs_reference():
    p = vector(3.0)
    state = trn.AdamState(p)
    cfg = trn.TrainConfig(learning_rate=0.05, weight_decay=0.0)
    grads = []
    for _ in range(2):
        p.grad[...] = 0.0
        p.grad += 2.0 * p.data  # f = theta^2
        grads.append(float(p.grad[0]))
        trn.adam_step(p, state, cfg)
    expected = reference_adam(3.0, grads, lr=0.05)
    assert p.data[0] == pytest.approx(expected, abs=1e-12)


def test_adam_decoupled_weight_decay():
    p = vector(2.0)
    state = trn.AdamState(p)
    cfg = trn.TrainConfig(learning_rate=0.1, weight_decay=0.5)
    trn.adam_step(p, state, cfg)  # zero grad: only the decay acts
    assert p.data[0] == pytest.approx(2.0 - 0.1 * 0.5 * 2.0)


def test_adam_in_place_update_equals_the_array_formula_exactly():
    # the update formed in place, one slice at a time, is bit for bit the one
    # the array formula gives over the whole vector, weight decay included;
    # the vector spans more than one slice and ends in a partial one
    cfg = tiny_config(w=2, h=2, d=64, b=160, t=1, fm_hidden=8)
    params = mdl.ModelParams(cfg)
    assert params.data.size > trn.ADAM_SLICE and params.data.size % trn.ADAM_SLICE
    rng = np.random.default_rng(30)
    params.data[...] = rng.normal(size=params.data.size)
    state = trn.AdamState(params)
    tcfg = trn.TrainConfig(learning_rate=0.01, weight_decay=0.1)
    b1, b2, lr = trn.ADAM_BETA1, trn.ADAM_BETA2, tcfg.learning_rate
    theta, m, v = params.data.copy(), np.zeros(params.data.size), np.zeros(params.data.size)
    for t in range(1, 5):
        params.grad[...] = rng.normal(size=params.grad.size)
        trn.adam_step(params, state, tcfg)
        g = params.grad
        theta -= lr * tcfg.weight_decay * theta
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1 ** t)
        v_hat = v / (1.0 - b2 ** t)
        theta -= lr * m_hat / (np.sqrt(v_hat) + trn.ADAM_EPS)
        np.testing.assert_array_equal(params.data, theta)
        np.testing.assert_array_equal(state.m, m)
        np.testing.assert_array_equal(state.v, v)
    assert params["fm_b2"].data == theta[-1]  # the 0-d Param is updated through its view


def test_train_config_paper_defaults():
    cfg = trn.TrainConfig()
    assert cfg.learning_rate == 1e-3
    assert cfg.penalty_weight == 1e-4
    assert cfg.weight_decay == 1e-6
    assert cfg.batch_size == 256
    assert (trn.ADAM_BETA1, trn.ADAM_BETA2, trn.ADAM_EPS) == (0.9, 0.999, 1e-8)


# --- epochs -----------------------------------------------------------------

def test_batch_of_identical_samples_matches_single_sample_gradient(tmp_path):
    cfg = tiny_config()
    record = tiny_dataset(tmp_path, n=4)[0]
    batch = [copy.deepcopy(record) for _ in range(4)]
    norm = trn.ScoreNorm(mean=0.5, half_range=0.5)
    tcfg = trn.TrainConfig(batch_size=4, penalty_weight=0.0, weight_decay=0.0)

    def batch_grads(records):
        params = mdl.init_params(cfg)
        params.grad[...] = 0.0
        rows = np.empty((len(records), cfg.num_locations, cfg.d), np.float32)
        x = dat.read_features(records, rows).astype(np.float64)  # exact widening
        total = trn.loss(x, [norm.normalize(r.score) for r in records], params, tcfg)
        total.backward()
        return {p.name: p.grad / len(records) for p in params.params()}

    averaged = batch_grads(batch)
    single = batch_grads([record])
    for name in averaged:
        np.testing.assert_allclose(averaged[name], single[name], atol=1e-12)


def test_train_epoch_deterministic(tmp_path):
    records = tiny_dataset(tmp_path, n=8)
    cfg = tiny_config()
    tcfg = trn.TrainConfig(batch_size=4, seed=0)
    norm = trn.ScoreNorm.from_scores([r.score for r in records])

    def run():
        params = mdl.init_params(cfg)
        opt = trn.AdamState(params)
        rng = np.random.default_rng(0)
        return trn.train_epoch(records, params, opt, tcfg, norm, rng)

    assert run() == run()


def epoch_grads(records, monkeypatch, budget):
    """The averaged minibatch grads that one train_epoch hands to adam_step."""
    cfg = tiny_config()
    monkeypatch.setattr(trn, "BUDGET", budget)
    grads = []
    monkeypatch.setattr(trn, "adam_step", lambda params, state, tcfg: grads.append(
        {p.name: p.grad.copy() for p in params.params()}))
    params = mdl.init_params(cfg)
    norm = trn.ScoreNorm.from_scores([r.score for r in records])
    tcfg = trn.TrainConfig(batch_size=len(records), penalty_weight=1e-2)
    loss = trn.train_epoch(records, params, trn.AdamState(params), tcfg, norm,
                           np.random.default_rng(0))
    return loss, grads


def pass_grads(records, params, chunk, monkeypatch):
    """The summed loss and grads of records run as float64 _backward_pass
    sub-batches of chunk samples; each sub-batch's float32 rows are widened,
    exactly, into the float64 batch."""
    def widening_read(sub, out):
        x = out[:len(sub)]
        x[...] = dat.read_features(sub, np.empty(x.shape, np.float32))
        return x

    monkeypatch.setattr(trn, "read_features", widening_read)
    cfg = params.config
    batch = np.empty((chunk, cfg.num_locations, cfg.d))
    slots = mdl.tanh_slots(chunk, params, training=True)
    norm = trn.ScoreNorm.from_scores([r.score for r in records])
    tcfg = trn.TrainConfig(penalty_weight=1e-2)
    params.grad[...] = 0.0
    loss = sum(trn._backward_pass(records[i : i + chunk], batch, slots, params, tcfg, norm, None)
               for i in range(0, len(records), chunk))
    return loss, {p.name: p.grad.copy() for p in params.params()}


def test_chunked_sub_batches_give_the_same_batch_gradient(tmp_path, monkeypatch):
    records = tiny_dataset(tmp_path, n=16)
    params = mdl.init_params(tiny_config())
    loss_whole, whole = pass_grads(records, params, len(records), monkeypatch)
    loss_chunked, chunked = pass_grads(records, params, 3, monkeypatch)
    assert loss_chunked == pytest.approx(loss_whole, rel=1e-12)
    for name, g in whole.items():
        assert np.abs(chunked[name] - g).max() <= 1e-12 * max(np.abs(g).max(), 1e-300), name


def test_float32_chunked_sub_batches_stay_near_the_same_batch_gradient(tmp_path, monkeypatch):
    # train_epoch's float32 passes differ by chunking only in how the sums of
    # a batch round: within 16 float32 ulps (2**-23 each) of each grad's
    # largest value; 2.8 ulps was the most over data seeds 3-8
    records = tiny_dataset(tmp_path, n=16)
    features = 2 * 2 * 8
    loss_whole, (whole,) = epoch_grads(records, monkeypatch, budget=10**9)
    loss_chunked, (chunked,) = epoch_grads(records, monkeypatch, budget=3 * features)
    assert loss_chunked == pytest.approx(loss_whole, rel=16 * 2.0**-23)
    for name, g in whole.items():
        assert np.abs(chunked[name] - g).max() <= 16 * 2.0**-23 * np.abs(g).max(), name


def test_train_epoch_calls_backward_once_per_sub_batch(tmp_path, monkeypatch):
    records = tiny_dataset(tmp_path, n=16)
    cfg = tiny_config()
    monkeypatch.setattr(trn, "BUDGET", 3 * cfg.num_locations * cfg.d)
    calls = []
    true_backward = ag.Tensor.backward

    def counting_backward(t):
        calls.append(t.data.shape)
        return true_backward(t)

    monkeypatch.setattr(ag.Tensor, "backward", counting_backward)
    params = mdl.init_params(cfg)
    norm = trn.ScoreNorm.from_scores([r.score for r in records])
    trn.train_epoch(records, params, trn.AdamState(params),
                    trn.TrainConfig(batch_size=8), norm, np.random.default_rng(0))
    # two minibatches of 8, each run as sub-batches of 3, 3 and 2
    assert calls == [()] * 6


def test_passes_read_each_file_once_into_one_batch_array(tmp_path, monkeypatch):
    records = tiny_dataset(tmp_path, n=16)
    cfg = tiny_config()
    monkeypatch.setattr(trn, "BUDGET", 3 * cfg.num_locations * cfg.d)
    reads, batches = [], []
    true_load, true_forward = dat.load_feature_file, mdl.forward
    monkeypatch.setattr(dat, "load_feature_file",
                        lambda path, out=None: reads.append(path) or true_load(path, out))
    monkeypatch.setattr(mdl, "forward",
                        lambda x, *args, **kwargs: batches.append(x) or true_forward(
                            x, *args, **kwargs))
    params = mdl.init_params(cfg)
    norm = trn.ScoreNorm.from_scores([r.score for r in records])
    paths = sorted(r.path for r in records)
    trn.train_epoch(records, params, trn.AdamState(params),
                    trn.TrainConfig(batch_size=8), norm, np.random.default_rng(0))
    trained = batches[:]
    assert sorted(reads) == paths
    reads.clear()
    batches.clear()
    trn.evaluate(params, norm, records)
    assert sorted(reads) == paths
    # two minibatches of 8 in passes of 3, 3 and 2; then passes of 3, ..., 3, 1
    for passes in (trained, batches):
        assert len(passes) == 6
        assert all(np.shares_memory(x, passes[0]) for x in passes)


def test_sub_batch_sizes_at_the_benchmark_shapes(tmp_path, monkeypatch):
    mid = mdl.ModelConfig(w=14, h=14, d=256)
    ablation = mdl.ModelConfig(w=7, h=7, d=32)
    assert trn._sub_batch(mid) >= 4
    assert 1 <= trn._sub_batch(ablation) <= 32
    # a batch shorter than a pass runs as one pass with one backward
    cfg = mdl.ModelConfig(w=14, h=14, d=256, b=8, t=3, fm_hidden=4,
                          dropout_rate=0.0, dropout_z=0.0, seed=0)
    rng = np.random.default_rng(0)
    records = []
    for i, score in enumerate([0.2, 0.7]):
        path = str(tmp_path / f"{i}.amft")
        dat.write_feature_file(path, rng.normal(size=(196, 256)), w=14, h=14)
        records.append(dat.FeatureRecord(id=str(i), path=path, score=score, grid=(14, 14, 256)))
    calls = []
    true_backward = mdl.backward
    monkeypatch.setattr(mdl, "backward", lambda trace, *args: calls.append(
        len(trace.y)) or true_backward(trace, *args))
    params = mdl.init_params(cfg)
    trn.train_epoch(records, params, trn.AdamState(params),
                    trn.TrainConfig(batch_size=32), trn.ScoreNorm(0.5, 0.5), rng)
    assert calls == [2]


def _recorded_evaluate(params, norm, records, monkeypatch):
    """evaluate's (rho, mse) and its predictions, recorded pass by pass."""
    passes = []
    true_scores = trn._scores

    def recording_scores(params, norm, x, slots=None):
        y, trace = true_scores(params, norm, x, slots)
        passes.append(y)
        return y, trace

    with monkeypatch.context() as m:
        m.setattr(trn, "_scores", recording_scores)
        rho, mse = trn.evaluate(params, norm, records)
    return rho, mse, passes


def _synth_records(tmp_path, w, d):
    manifest, _ = dat.synth_dataset(40, tmp_path, seed=8, w=w, h=w, d=d)
    records = []
    for split in dat.SPLITS:
        records += dat.load_split(manifest, tmp_path / "manifest.json", split)
    return records


def test_batched_evaluate_matches_per_sample_predictions(tmp_path, monkeypatch):
    records = _synth_records(tmp_path, 14, 64)
    cfg = mdl.ModelConfig(w=14, h=14, d=64, b=32, t=3, fm_hidden=16,
                          dropout_rate=0.5, dropout_z=0.5, seed=0)
    params = mdl.init_params(cfg)
    norm = trn.ScoreNorm.from_scores([r.score for r in records])
    rho, mse, passes = _recorded_evaluate(params, norm, records, monkeypatch)
    assert len(passes[0]) == trn._sub_batch(cfg) > 1
    batched = np.concatenate(passes)
    x = dat.read_features(records, np.empty((len(records), 14 * 14, 64), np.float32))
    single = np.array([trn.predict(params, norm, grid)[0] for grid in x])
    assert len(np.unique(single)) == len(records)  # no clamping or ties hide a difference
    # both run in float32 and differ only in how BLAS splits the products
    # of a batch: within 8 float32 ulps (2**-23 each) of the prediction
    np.testing.assert_allclose(batched, single, rtol=8 * 2.0**-23, atol=0)
    truths = [r.score for r in records]
    assert rho == spearman_rho(truths, single)
    # the mse differed by a relative 1.3e-9 when this bound was set
    assert mse == pytest.approx(mse_metric(truths, single), rel=1e-6)


@pytest.mark.parametrize("w, d, bound", [(7, 32, 1e-7), (14, 64, 1e-7)])
def test_float32_evaluate_stays_near_a_float64_forward(tmp_path, monkeypatch, w, d, bound):
    # this set-up measured 3.7e-9 at 7x7x32 and 5.8e-9 at 14x14x64; over
    # data and init seeds 0-9 the normalized y moved by at most 3.0e-8
    records = _synth_records(tmp_path, w, d)
    cfg = mdl.ModelConfig(w=w, h=w, d=d, b=32, t=3, fm_hidden=16,
                          dropout_rate=0.5, dropout_z=0.5, seed=0)
    params = mdl.init_params(cfg)
    norm = trn.ScoreNorm.from_scores([r.score for r in records])
    _, _, passes = _recorded_evaluate(params, norm, records, monkeypatch)
    rows = np.empty((len(records), w * w, d), np.float32)
    x = dat.read_features(records, rows).astype(np.float64)  # exact widening
    reference = np.clip(norm.denormalize(mdl.forward(x, params).y), 0.0, 1.0)
    gap = np.abs(np.concatenate(passes) - reference).max()
    # float64 passes differ from each other by batching alone, near 1e-16
    assert 1e-12 < gap <= bound


def test_eval_pass_runs_in_float32_and_reports_float64_scores(tmp_path):
    records = tiny_dataset(tmp_path)
    params = mdl.init_params(tiny_config())
    norm = trn.ScoreNorm.from_scores([r.score for r in records])
    features = dat.load_feature_file(records[0].path)[3]
    _, trace = trn.predict(params, norm, features)
    assert trace.x.dtype == np.float32
    assert [m.dtype for m in trace.m] == [np.float64] * 3 and trace.y.dtype == np.float64
    assert [a.dtype for a in trace.alpha] == [np.float64] * 3
    assert trace.y_value() == sum(trace.m_values())


@pytest.mark.parametrize("w, d", [(7, 32), (14, 64)])
def test_float32_training_grads_stay_near_the_float64_backward(tmp_path, w, d):
    # relative gaps per parameter measured at most 9.6e-7 over init seeds 0-4
    records = _synth_records(tmp_path, w, d)[:4]
    cfg = mdl.ModelConfig(w=w, h=w, d=d, b=32, t=3, fm_hidden=16,
                          dropout_rate=0.5, dropout_z=0.5, seed=0)
    params = mdl.init_params(cfg)
    norm = trn.ScoreNorm.from_scores([r.score for r in records])
    targets = [norm.normalize(r.score) for r in records]
    x = dat.read_features(records, np.empty((len(records), w * w, d), np.float32))
    tcfg = trn.TrainConfig(penalty_weight=1e-2)
    grads = []
    for weights, batch in ((params, x.astype(np.float64)), (params.float32(), x)):
        params.grad[...] = 0.0
        # the same rng seed draws the same dropout masks in either dtype
        trn.loss(batch, targets, weights, tcfg, rng=np.random.default_rng(5)).backward()
        grads.append({p.name: p.grad.copy() for p in params.params()})
    wide, narrow = grads
    gaps = {name: np.linalg.norm(narrow[name] - g) / np.linalg.norm(g)
            for name, g in wide.items()}
    assert all(gap <= 1e-5 for gap in gaps.values()), gaps
    assert max(gaps.values()) > 1e-12  # a float64 pass would agree to rounding


def test_train_pass_runs_in_float32_beside_float64_grads_and_moments(tmp_path, monkeypatch):
    records = tiny_dataset(tmp_path)
    params = mdl.init_params(tiny_config(dropout_rate=0.5, dropout_z=0.5))
    opt = trn.AdamState(params)
    passes = []
    true_forward = mdl.forward

    def recording_forward(x, weights, training=False, rng=None, slots=None):
        trace = true_forward(x, weights, training, rng, slots)
        passes.append((x, slots, trace.x, trace.steps, weights.grad))
        return trace

    monkeypatch.setattr(mdl, "forward", recording_forward)
    trn.train_epoch(records, params, opt, trn.TrainConfig(batch_size=8),
                    trn.ScoreNorm.from_scores([r.score for r in records]),
                    np.random.default_rng(0))
    assert len(passes) == 2
    for batch, slots, x, steps, grad in passes:
        assert batch.dtype == slots.dtype == x.dtype == np.float32
        # every intermediate the backward reads, dropout masks included
        arrays = [a for step in steps for field in step
                  for a in (field if isinstance(field, tuple) else (field,))]
        assert len(arrays) == 3 * 13 and {a.dtype for a in arrays} == {np.dtype(np.float32)}
        assert grad is params.grad
    assert params.data.dtype == params.grad.dtype == np.float64
    assert opt.m.dtype == opt.v.dtype == np.float64 and opt.t == 2
    assert np.any(params.grad != 0)


def test_weights_beyond_the_float32_range_end_the_run_with_the_best_epoch(
        tmp_path, monkeypatch):
    records = tiny_dataset(tmp_path, n=12)
    tcfg = trn.TrainConfig(batch_size=4, patience=5, max_epochs=5, seed=0)
    snapshots = []

    def scripted_evaluate(params, norm, val_set):
        snapshots.append(params.data.copy())
        # from here each Adam step moves the weights by about 1e39, finite in
        # float64 and beyond the float32 range of the passes
        tcfg.learning_rate = 1e39
        return 0.5, 0.0

    monkeypatch.setattr(trn, "evaluate", scripted_evaluate)
    best = {}
    result = trn.fit(records[:8], records[8:], train_norm(records[:8]), tiny_config(), tcfg,
                     keep_best(best))
    assert [e["epoch"] for e in result.epochs] == [1] and result.best_epoch == 1
    assert result.stop_reason.startswith("epoch 2: parameter ")
    assert result.stop_reason.endswith(" has values beyond the float32 range")
    np.testing.assert_array_equal(best[result.best_epoch], snapshots[0])


def test_weights_are_cast_once_per_minibatch_and_loaded_weights_never(tmp_path, monkeypatch):
    casts = []
    true_float32 = mdl.ModelParams.float32

    def counted_float32(self):
        twin = true_float32(self)
        if twin is not self:
            casts.append(twin)
        return twin

    monkeypatch.setattr(mdl.ModelParams, "float32", counted_float32)
    records = tiny_dataset(tmp_path)
    params = mdl.init_params(tiny_config())
    norm = trn.ScoreNorm.from_scores([r.score for r in records])
    # 16 records in minibatches of 5: 4 minibatches, and no cast to size the slots
    trn.train_epoch(records, params, trn.AdamState(params), trn.TrainConfig(batch_size=5),
                    norm, np.random.default_rng(0))
    assert len(casts) == 4
    np.testing.assert_array_equal(params.float32().data, params.data.astype(np.float32))
    casts.clear()
    trn.evaluate(params, norm, records)
    assert len(casts) == 1
    path = tmp_path / "model.amwt"
    mdl.save_checkpoint(path, params, norm={"mean": norm.mean, "half_range": norm.half_range})
    loaded, _ = mdl.load_checkpoint(path)
    casts.clear()
    trn.evaluate(loaded, norm, records)
    trn.predict(loaded, norm, np.zeros((loaded.config.num_locations, loaded.config.d)))
    assert casts == []


def test_train_epoch_empty_set_rejected():
    cfg = tiny_config()
    params = mdl.init_params(cfg)
    with pytest.raises(ValueError):
        trn.train_epoch([], params, trn.AdamState(params),
                        trn.TrainConfig(), trn.ScoreNorm(0.5, 0.5),
                        np.random.default_rng(0))


# --- fit and early stopping -------------------------------------------------

def train_norm(train_set):
    return trn.ScoreNorm.from_scores(r.score for r in train_set)


def keep_best(best):
    """An on_best that keeps a copy of each improvement's weights in best, by epoch."""
    def on_best(params, result):
        best[result.best_epoch] = params.data.copy()
    return on_best


def ignore_best(params, result):
    pass


def injected_fit(rho_sequence, tmp_path, monkeypatch, patience, max_epochs=None):
    """fit on a tiny set whose validation passes return the scripted rhos."""
    records = tiny_dataset(tmp_path, n=12)
    train_set = records[:8]
    val_set = records[8:]
    cfg = tiny_config()
    tcfg = trn.TrainConfig(batch_size=8, patience=patience,
                           max_epochs=max_epochs or len(rho_sequence), seed=0)
    calls = {"n": 0}

    def scripted_evaluate(params, norm, records):
        assert records is val_set
        rho = rho_sequence[calls["n"]]
        calls["n"] += 1
        return rho, 0.0

    monkeypatch.setattr(trn, "evaluate", scripted_evaluate)
    return trn.fit(train_set, val_set, train_norm(train_set), cfg, tcfg, ignore_best)


def test_early_stopping_patience_one(tmp_path, monkeypatch):
    result = injected_fit([0.2, 0.5, 0.4], tmp_path, monkeypatch, patience=1)
    assert result.best_epoch == 2
    assert result.best_rho == 0.5
    assert len(result.epochs) == 3
    assert result.stop_reason == "patience"


def test_single_epoch_not_early_stopped(tmp_path, monkeypatch):
    result = injected_fit([0.3], tmp_path, monkeypatch, patience=1, max_epochs=1)
    assert len(result.epochs) == 1
    assert result.stop_reason != "patience"


def test_monotone_improvement_runs_to_max_epochs(tmp_path, monkeypatch):
    result = injected_fit([0.1, 0.2, 0.3, 0.4], tmp_path, monkeypatch, patience=2)
    assert result.best_epoch == 4
    assert result.stop_reason != "patience"


def test_best_rho_is_max_of_recorded(tmp_path, monkeypatch):
    result = injected_fit([0.3, 0.6, 0.1, 0.2], tmp_path, monkeypatch, patience=2)
    assert result.best_rho == max(e["val_rho"] for e in result.epochs)


def test_fit_deterministic_report(tmp_path):
    manifest, _ = dat.synth_dataset(30, tmp_path, seed=6, w=2, h=2, d=8)
    train_set = dat.load_split(manifest, tmp_path / "manifest.json", "train")
    val_set = dat.load_split(manifest, tmp_path / "manifest.json", "val")
    cfg = tiny_config()
    tcfg = trn.TrainConfig(batch_size=8, max_epochs=3, patience=3, seed=1)
    best_a, best_b = {}, {}
    a = trn.fit(train_set, val_set, train_norm(train_set), cfg, tcfg, keep_best(best_a))
    b = trn.fit(train_set, val_set, train_norm(train_set), cfg, tcfg, keep_best(best_b))
    report = ("epochs", "best_epoch", "best_rho", "stop_reason")
    assert [getattr(a, k) for k in report] == [getattr(b, k) for k in report]
    np.testing.assert_array_equal(best_a[a.best_epoch], best_b[b.best_epoch])


def test_loss_decreases_smoothly_without_attention(tmp_path):
    manifest, _ = dat.synth_dataset(40, tmp_path, seed=7, w=2, h=2, d=8)
    train_set = dat.load_split(manifest, tmp_path / "manifest.json", "train")
    val_set = dat.load_split(manifest, tmp_path / "manifest.json", "val")
    cfg = tiny_config(attention_enabled=False)
    tcfg = trn.TrainConfig(learning_rate=1e-4, penalty_weight=0.0, batch_size=8,
                           max_epochs=10, patience=10, seed=0)
    result = trn.fit(train_set, val_set, train_norm(train_set), cfg, tcfg, ignore_best)
    losses = [e["train_loss"] for e in result.epochs]
    for prev, cur in zip(losses, losses[1:]):
        assert cur <= prev * 1.10


def test_undefined_rho_is_no_improvement_and_written_as_null(tmp_path, monkeypatch):
    report = injected_fit([0.2, None, 0.4, None, None], tmp_path, monkeypatch, patience=2)
    assert report.best_epoch == 3 and report.best_rho == 0.4
    assert report.stop_reason == "patience"
    path = tmp_path / "report.jsonl"
    report.to_jsonl(path)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert [r["val_rho"] for r in rows] == [0.2, None, 0.4, None, None]
    assert "null" in path.read_text() and "NaN" not in path.read_text()


def test_non_finite_epoch_stops_with_the_best_snapshot(tmp_path, monkeypatch):
    snapshots = []

    def scripted_evaluate(params, norm, records):
        snapshots.append(params.data.copy())
        if len(snapshots) == 3:
            raise ag.NonFiniteError("predict: non-finite score nan")
        return [0.1, 0.5][len(snapshots) - 1], 0.0

    records = tiny_dataset(tmp_path, n=12)
    tcfg = trn.TrainConfig(batch_size=8, patience=5, max_epochs=5, seed=0)
    monkeypatch.setattr(trn, "evaluate", scripted_evaluate)
    best = {}
    result = trn.fit(records[:8], records[8:], train_norm(records[:8]), tiny_config(), tcfg,
                     keep_best(best))
    assert [e["epoch"] for e in result.epochs] == [1, 2]
    assert result.best_epoch == 2 and result.stop_reason != "patience"
    assert result.stop_reason == "epoch 3: predict: non-finite score nan"
    np.testing.assert_array_equal(best[result.best_epoch], snapshots[1])


def test_fit_keeps_the_best_epoch_across_later_improvements(tmp_path, monkeypatch):
    snapshots = []

    def scripted_evaluate(params, norm, records):
        snapshots.append(params.data.copy())
        return [0.2, 0.5, 0.1, 0.6, 0.3][len(snapshots) - 1], 0.0

    records = tiny_dataset(tmp_path, n=12)
    tcfg = trn.TrainConfig(batch_size=8, patience=5, max_epochs=5, seed=0)
    monkeypatch.setattr(trn, "evaluate", scripted_evaluate)
    best = {}
    result = trn.fit(records[:8], records[8:], train_norm(records[:8]), tiny_config(), tcfg,
                     keep_best(best))
    assert result.best_epoch == 4
    assert list(best) == [1, 2, 4]  # on_best runs at each improvement, and only then
    # epoch 5 moved the params after the kept copy was last written
    assert not np.array_equal(snapshots[4], snapshots[3])
    np.testing.assert_array_equal(best[result.best_epoch], snapshots[3])


def test_no_defined_rho_raises(tmp_path, monkeypatch):
    with pytest.raises(trn.NoValidEpochError, match="patience"):
        injected_fit([None, None], tmp_path, monkeypatch, patience=2)


def test_report_jsonl_schema(tmp_path, monkeypatch):
    result = injected_fit([0.1, 0.2], tmp_path, monkeypatch, patience=2)
    path = tmp_path / "report.jsonl"
    result.to_jsonl(path)
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 2
    row = json.loads(lines[0])
    assert set(row) == {"epoch", "train_loss", "val_mse", "val_rho"}
    assert row["epoch"] == 1
