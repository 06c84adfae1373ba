import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import mfil
from mfil import backbone as bb
from mfil.checkpoint import load_checkpoint, load_into
from mfil.config import ConfigError, RunConfig, load_run_config, \
    parse_config_file
from mfil.data import SyntheticDataset
from mfil.scan import SCAN_MODES
from mfil.tensor import Tape, Tensor, softmax_cross_entropy
from mfil.train import (AdamW, TrainAbort, adaptive_weight_drift, cosine_lr,
                        evaluate, train_run)


# ---------------------------------------------------------------------------
# dataset

def test_dataset_deterministic():
    a = SyntheticDataset(32, 4, size=64, seed=9)
    b = SyntheticDataset(32, 4, size=64, seed=9)
    assert np.array_equal(a.images, b.images)
    assert np.array_equal(a.labels, b.labels)
    c = SyntheticDataset(32, 4, size=64, seed=10)
    assert not np.array_equal(a.images, c.images)


def test_dataset_balanced_within_one():
    ds = SyntheticDataset(32, 4, size=510, seed=0)
    counts = np.bincount(ds.labels, minlength=4)
    assert counts.max() - counts.min() <= 1
    order = ds.epoch_order(np.random.default_rng(0))
    counts = np.bincount(ds.labels[order], minlength=4)
    assert counts.max() - counts.min() <= 1


def test_dataset_classes_have_distinct_orientation():
    ds = SyntheticDataset(32, 4, size=8, noise=0.0, seed=1)
    h = ds.images[ds.labels == 0][0, 0]
    v = ds.images[ds.labels == 1][0, 0]
    # Horizontal stripes vary down rows and are constant along them.
    assert np.allclose(h, h[:, :1])
    assert np.allclose(v, v[:1, :])
    assert not np.allclose(h, h[:1, :])


def test_dataset_flip_augmentation(rng):
    ds = SyntheticDataset(32, 4, size=16, seed=2)
    x_plain, y = ds.batch(np.arange(16))
    x_aug, y2 = ds.batch(np.arange(16), flip_rng=np.random.default_rng(0))
    assert np.array_equal(y, y2)
    flipped = np.array([not np.array_equal(a, b)
                        for a, b in zip(x_plain, x_aug)])
    assert flipped.any()
    for i in np.where(flipped)[0]:
        assert np.array_equal(x_aug[i], x_plain[i, :, :, ::-1])


def test_dataset_class_count_validation():
    with pytest.raises(ValueError):
        SyntheticDataset(32, num_classes=9)


# ---------------------------------------------------------------------------
# config

def test_config_file_parsing(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# demo\nlr = 0.002\nsteps = 7\n"
                    "adaptive_weighting = false\nvariant = desk\n")
    overrides = parse_config_file(path)
    assert overrides == {"lr": 0.002, "steps": 7,
                         "adaptive_weighting": False, "variant": "desk"}
    cfg = load_run_config(path, seed=5)
    assert cfg.lr == 0.002 and cfg.steps == 7 and cfg.seed == 5
    assert not cfg.adaptive_weighting


def test_config_unknown_key_names_line(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("lr = 0.001\nbogus_key = 3\n")
    with pytest.raises(ConfigError, match="line 2.*bogus_key"):
        parse_config_file(path)


def test_config_bad_value_names_line(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("\n\nsteps = banana\n")
    with pytest.raises(ConfigError, match="line 3"):
        parse_config_file(path)


def test_config_duplicate_and_syntax(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("lr = 0.1\nlr = 0.2\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_file(path)
    path.write_text("just some words\n")
    with pytest.raises(ConfigError, match="key = value"):
        parse_config_file(path)


def test_run_config_validation():
    for lr in (0.0, -1e-3, math.nan, math.inf):
        with pytest.raises(ConfigError, match="finite and positive, got"):
            RunConfig(lr=lr).validate()
    with pytest.raises(ConfigError, match="label_smoothing"):
        RunConfig(label_smoothing=1.0).validate()
    with pytest.raises(ConfigError, match="steps"):
        RunConfig(steps=0).validate()
    with pytest.raises(ConfigError, match="variant"):
        RunConfig(variant="giant").validate()
    with pytest.raises(ConfigError, match="divisible"):
        RunConfig(image_size=40).validate()
    assert RunConfig().validate() is not None


def test_model_config_carries_overrides():
    """Every field RunConfig shares with VariantConfig reaches the model."""
    changed = {"scan_mode": "cross_4dir", "adaptive_weighting": False,
               "d_state": 3, "ssm_ratio": 1.5, "ffn_ratio": 2.5,
               "num_classes": 3, "drop_path": 0.2,
               "exact_input_discretization": True, "segment_reset": True}
    assert set(changed) == ({f.name for f in fields(RunConfig)}
                            & {f.name for f in fields(bb.VariantConfig)})
    default = RunConfig().model_config()
    mc = RunConfig(**changed).model_config()
    for name, value in changed.items():
        assert getattr(mc, name) == value != getattr(default, name), name


# ---------------------------------------------------------------------------
# schedule and optimizer

def test_cosine_schedule_shape():
    peak = 1e-3
    total = 1000
    warmup = 50
    assert cosine_lr(1, total, peak) == pytest.approx(peak / warmup)
    assert cosine_lr(warmup, total, peak) == pytest.approx(peak)
    assert cosine_lr(total, total, peak) == pytest.approx(peak * 1e-6,
                                                          rel=1e-6)
    mid = cosine_lr(warmup + (total - warmup) // 2, total, peak)
    assert 0.4 * peak < mid < 0.6 * peak
    lrs = [cosine_lr(s, total, peak) for s in range(warmup, total + 1)]
    assert all(a >= b for a, b in zip(lrs, lrs[1:]))  # monotone decay


def test_adamw_single_step_hand_computed():
    p = Tensor(np.array([2.0]))
    g = np.array([0.5])
    opt = AdamW(weight_decay=0.1)
    opt.step({"p": p}, {"p": g}.items(), lr=0.01)
    m_hat = (0.1 * 0.5) / (1 - 0.9)
    v_hat = (0.001 * 0.25) / (1 - 0.999)
    want = 2.0 - 0.01 * (m_hat / (math.sqrt(v_hat) + 1e-8) + 0.1 * 2.0)
    assert p.data[0] == pytest.approx(want, rel=1e-12)


def test_adamw_raises_for_a_parameter_without_a_gradient():
    params = {"p": Tensor(np.array([2.0])), "q": Tensor(np.array([1.0]))}
    with pytest.raises(ValueError, match=r"no gradient for \['q'\]"):
        AdamW().step(params, iter([("p", np.array([0.5]))]), lr=0.01)


def test_adamw_blocked_update_equals_whole_array_formula():
    """The in-place blocked update gives the textbook AdamW bits.

    100,003 elements span several update blocks and end in a partial one.
    """
    rng = np.random.default_rng(31)
    init = {"big32": rng.standard_normal(100_003).astype(np.float32),
            "big64": rng.standard_normal(100_003),
            "one": np.array([0.75]),
            "mat": rng.standard_normal((37, 23)).astype(np.float32)}
    params = {k: Tensor(v.copy()) for k, v in init.items()}
    want_p = {k: v.copy() for k, v in init.items()}
    want_m = {k: np.zeros(v.shape) for k, v in init.items()}
    want_v = {k: np.zeros(v.shape) for k, v in init.items()}
    b1, b2, eps, wd = 0.9, 0.999, 1e-8, 0.05
    opt = AdamW(weight_decay=wd)
    for t in range(1, 4):
        grads = {k: rng.standard_normal(v.shape).astype(v.dtype)
                 for k, v in init.items()}
        lr = 1e-3 * t
        opt.step(params, grads.items(), lr)
        bc1, bc2 = 1.0 - b1 ** t, 1.0 - b2 ** t
        for k in init:
            g = grads[k].astype(np.float64)
            want_m[k] = b1 * want_m[k] + (1 - b1) * g
            want_v[k] = b2 * want_v[k] + (1 - b2) * g * g
            update = (want_m[k] / bc1) / (np.sqrt(want_v[k] / bc2) + eps)
            p64 = want_p[k].astype(np.float64)
            want_p[k] = (p64 - lr * (update + wd * p64)).astype(
                init[k].dtype)
            assert params[k].data.dtype == init[k].dtype
            assert params[k].data.tobytes() == want_p[k].tobytes(), (k, t)
            assert opt.m[k].tobytes() == want_m[k].tobytes(), (k, t)
            assert opt.v[k].tobytes() == want_v[k].tobytes(), (k, t)


# ---------------------------------------------------------------------------
# training loop

def _short_cfg(tmp_path, **kw):
    base = dict(steps=25, seed=4, out_dir=str(tmp_path / "run"),
                checkpoint_interval=10, dataset_size=128)
    base.update(kw)
    return RunConfig(**base)


def test_training_deterministic_bit_identical(tmp_path):
    cfg = _short_cfg(tmp_path)
    r1 = train_run(cfg.with_overrides(out_dir=str(tmp_path / "a")))
    r2 = train_run(cfg.with_overrides(out_dir=str(tmp_path / "b")))
    assert (tmp_path / "a" / "metrics.csv").read_bytes() == \
        (tmp_path / "b" / "metrics.csv").read_bytes()
    assert r1.final_acc == r2.final_acc
    c1 = (tmp_path / "a" / "model-final.mfil").read_bytes()
    c2 = (tmp_path / "b" / "model-final.mfil").read_bytes()
    assert c1 == c2


def test_metrics_schema_and_checkpoints(tmp_path):
    cfg = _short_cfg(tmp_path)
    res = train_run(cfg)
    lines = res.metrics_path.read_text().splitlines()
    assert lines[0] == "step,loss,lr,train_acc"
    assert len(lines) == 1 + cfg.steps + 1  # header + steps + final eval row
    first = lines[1].split(",")
    assert int(first[0]) == 1
    assert all(np.isfinite(float(v)) for v in first[1:])
    final = lines[-1].split(",")
    assert int(final[0]) == cfg.steps + 1
    names = sorted(p.name for p in res.checkpoints)
    assert names == ["ckpt-000010.mfil", "ckpt-000020.mfil",
                     "model-final.mfil"]


def test_eval_reproduces_final_metrics_row(tmp_path):
    cfg = _short_cfg(tmp_path)
    res = train_run(cfg)
    final = res.metrics_path.read_text().splitlines()[-1].split(",")
    model = bb.build(cfg.model_config(), seed=cfg.seed, dtype=cfg.dtype)
    load_into(model.parameters(),
              load_checkpoint(res.checkpoints[-1]))
    dataset = SyntheticDataset(cfg.image_size, cfg.num_classes,
                               cfg.dataset_size, cfg.noise, seed=cfg.seed)
    acc, loss = evaluate(model, dataset, cfg.batch_size)
    assert f"{acc:.6f}" == final[3]
    assert f"{loss:.6f}" == final[1]
    assert acc == res.final_acc


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_nan_loss_aborts_and_keeps_last_checkpoint(tmp_path):
    cfg = _short_cfg(tmp_path, lr=1e9, steps=30, checkpoint_interval=1)
    with pytest.raises(TrainAbort) as exc:
        train_run(cfg)
    assert exc.value.step > 1
    assert exc.value.last_checkpoint is not None
    loaded = load_checkpoint(exc.value.last_checkpoint)  # intact
    assert loaded


def test_adaptive_weight_drift_reported(tmp_path):
    cfg = _short_cfg(tmp_path, steps=40)
    res = train_run(cfg)
    assert res.alpha_drift  # one entry per block
    assert res.total_drift > 0.0
    model = bb.build(cfg.model_config(), seed=cfg.seed, dtype=cfg.dtype)
    assert set(adaptive_weight_drift(model)) == set(res.alpha_drift)


def test_training_without_adaptive_weighting(tmp_path):
    cfg = _short_cfg(tmp_path, steps=6, adaptive_weighting=False)
    res = train_run(cfg)
    assert res.alpha_drift == {}
    assert math.isfinite(res.final_loss)


def test_training_step_leaves_scipy_linalg_unloaded(tmp_path):
    """Only the verification suites use scipy.linalg, so importing mfil and
    training a step does not load it."""
    src = Path(mfil.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    code = ("import sys, mfil\n"
            "from mfil.train import train_run\n"
            "train_run(mfil.RunConfig(steps=1, dataset_size=32, "
            f"checkpoint_interval=0, out_dir={str(tmp_path)!r}))\n"
            "print('scipy.linalg' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


def test_f64_forward_leaves_scipy_special_unloaded():
    """The f64 GELU evaluates its own erf, so importing mfil and its CLI
    and running a taped desk f64 forward does not load scipy.special."""
    src = Path(mfil.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    code = ("import sys, numpy as np, mfil, mfil.cli\n"
            "from mfil import backbone as bb\n"
            "from mfil.tensor import Tape, Tensor, tsum\n"
            "model = bb.build(bb.desk(), seed=0, dtype='f64')\n"
            "x = Tensor(np.random.default_rng(0).standard_normal("
            "(1, 3, 32, 32)))\n"
            "with Tape() as tape:\n"
            "    tsum(model.forward(x))\n"
            "print(any(n.name == 'gelu' for n in tape.nodes))\n"
            "print('scipy.special' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "False"]


def test_training_holds_one_graph_at_a_time(tmp_path, monkeypatch, no_gc):
    """With the cyclic collector off, steps 2 and 3 peak within a few percent
    of step 1 plus the AdamW moments its update creates: a step's graph and
    gradients are gone before the next forward records."""
    cfg = _short_cfg(tmp_path, steps=3, batch_size=8, dataset_size=8,
                     checkpoint_interval=0)
    model = bb.build(cfg.model_config(), seed=cfg.seed, dtype=cfg.dtype)
    moments = 2 * 8 * sum(p.size for p in model.parameters().values())
    del model
    peaks = []  # the peak since the previous batch, read as each is drawn
    batch = SyntheticDataset.batch

    def marked_batch(self, *args, **kwargs):
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        return batch(self, *args, **kwargs)

    monkeypatch.setattr(SyntheticDataset, "batch", marked_batch)
    tracemalloc.start()
    try:
        train_run(cfg)
    finally:
        tracemalloc.stop()
    # Batches: steps 1-3, then the final evaluation's one batch.
    assert len(peaks) == 4
    step1, later = peaks[1], peaks[2:]
    assert max(later) <= 1.05 * (step1 + moments), (step1, moments, later)


def test_streamed_step_frees_graph_and_gradients_during_the_sweep(
        tmp_path, monkeypatch, no_gc):
    """At step 2 of a desk f32 B=32 run the graph holds at most 9 MiB when
    the forward ends (7.16 MiB measured; 9.53 MiB when nodes held their
    input tensors and silu and gelu saved two arrays). The sweep frees
    each node's saved arrays and AdamW each gradient as it goes, so the
    sweep peaks at most 1.5 MiB above that, and the whole step peaks at
    most 7.77 MiB over its start (7.734 MiB measured; 10.087 MiB with the
    old graph, 10.136 MiB for a step that collected every gradient before
    updating)."""
    cfg = RunConfig(steps=2, dataset_size=64, checkpoint_interval=0)
    marks = []  # (event, current, peak since the previous mark)

    def mark(event):
        marks.append((event, *tracemalloc.get_traced_memory()))
        tracemalloc.reset_peak()

    batch, sweep = SyntheticDataset.batch, Tape.sweep

    def marked_batch(self, *args, **kwargs):
        mark("batch")
        return batch(self, *args, **kwargs)

    def marked_sweep(self, loss, params=None):
        mark("sweep")
        yield from sweep(self, loss, params)
        mark("swept")

    monkeypatch.setattr(SyntheticDataset, "batch", marked_batch)
    monkeypatch.setattr(Tape, "sweep", marked_sweep)
    tracemalloc.start()
    try:
        train_run(cfg.with_overrides(out_dir=str(tmp_path)))
    finally:
        tracemalloc.stop()
    events = [e for e, _, _ in marks]
    assert events[:7] == ["batch", "sweep", "swept"] * 2 + ["batch"], events
    (_, start, _), (_, forward, forward_peak), (_, _, sweep_peak), \
        (_, _, tail_peak) = marks[3:7]
    mib = 1 << 20
    assert forward - start <= 9 * mib, marks
    assert sweep_peak - forward <= 1.5 * mib, marks
    assert max(forward_peak, sweep_peak, tail_peak) - start <= 7.77 * mib, \
        marks


def _every_backward_then_gradients(tape, loss, params):
    """Reference for the sweep: run every node's backward, then read the
    accumulated gradients, with no leaf handed over early. Gradients are
    keyed by producer, the node or the leaf that ``_Node.inputs`` holds."""
    grads = {loss.node: np.ones((), dtype=loss.data.dtype)}
    for node in reversed(tape.nodes):
        g = grads.get(node)
        if g is not None:
            for src, gt in zip(node.inputs, node.backward(g)):
                if gt is not None and src is not None:
                    grads[src] = grads[src] + gt if src in grads else gt
    return {p: grads[p] for p in params}


_DESK_CASES = pytest.mark.parametrize(
    "overrides", [{"scan_mode": m} for m in SCAN_MODES]
    + [{"exact_input_discretization": True, "segment_reset": True,
        "drop_path": 0.1}],
    ids=list(SCAN_MODES) + ["exact_reset_droppath"])


@_DESK_CASES
def test_backward_rules_hold_no_tensor(overrides):
    """No backward rule of a taped desk training forward closes over a
    ``Tensor``, alone or in a tuple or list: rules keep arrays and shapes,
    and the nodes keep producers, so op outputs die with the forward."""
    cfg = RunConfig(**overrides)
    model = bb.build(cfg.model_config(), seed=0, dtype=cfg.dtype)
    x, y = SyntheticDataset(32, 4, 8, seed=0).batch(np.arange(2))
    with Tape() as tape:
        logits = model.forward(Tensor(x, dtype=cfg.dtype), train=True,
                               rng=np.random.default_rng(7))
        softmax_cross_entropy(logits, y, cfg.label_smoothing)
    held = []
    for node in tape.nodes:
        for cell in node.backward.__closure__ or ():
            value = cell.cell_contents
            values = value if isinstance(value, (tuple, list)) else (value,)
            if any(isinstance(v, Tensor) for v in values):
                held.append(node.name)
    assert len(tape.nodes) > 100 and held == []


@_DESK_CASES
def test_sweep_hands_over_parameters_no_backward_still_reads(overrides):
    """A parameter may be overwritten the moment the sweep yields it: with
    each one filled with NaN as it arrives, every gradient of a desk f64
    training step stays byte-equal to the collected sweep's on a fresh tape,
    which equals running every backward first, and each parameter arrives
    exactly once."""
    cfg = RunConfig(dtype="f64", **overrides)
    model = bb.build(cfg.model_config(), seed=0, dtype=cfg.dtype)
    params = list(model.parameters().values())
    x, y = SyntheticDataset(32, 4, 8, seed=0).batch(np.arange(2))

    def taped():
        with Tape() as tape:
            logits = model.forward(Tensor(x, dtype=cfg.dtype), train=True,
                                   rng=np.random.default_rng(7))
            loss = softmax_cross_entropy(logits, y, cfg.label_smoothing)
        return tape, loss

    reference = _every_backward_then_gradients(*taped(), params)
    tape, loss = taped()
    want = tape.gradients(loss, params)
    assert all(want[p].data.tobytes() == reference[p].tobytes()
               for p in params)
    tape, loss = taped()
    seen = []
    for p, g in tape.sweep(loss, params):
        assert g.data.tobytes() == want[p].data.tobytes()
        p.data.fill(np.nan)
        seen.append(id(p))
    assert sorted(seen) == sorted(map(id, params))
