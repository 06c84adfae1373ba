"""Deterministic training loop: AdamW, cosine schedule, label smoothing.

One seed fixes everything: parameter init, data order, flip augmentation
and stochastic depth. Metrics go to ``metrics.csv`` (schema
``step,loss,lr,train_acc``); per-step rows hold batch statistics and the
trailing row (step = steps + 1) holds the full-training-set evaluation, so
an immediate ``eval`` reproduces it exactly. Checkpoints are written every
``checkpoint_interval`` steps and at the end; a non-finite loss aborts the
run, leaving the last good checkpoint in place.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .backbone import Backbone, build
from .checkpoint import save_checkpoint
from .config import RunConfig
from .data import SyntheticDataset
from .tensor import NonFiniteError, Tape, Tensor, softmax_cross_entropy

__all__ = ["TrainAbort", "TrainResult", "cosine_lr", "AdamW", "train_run",
           "evaluate", "adaptive_weight_drift", "compare_scan_modes"]

_FLOOR_FRAC = 1e-6  # cosine decays to this fraction of the peak rate
# f64 elements per AdamW update block: three 256 KiB scratch buffers.
_ADAMW_BLOCK = 1 << 15


class TrainAbort(RuntimeError):
    """Raised when the loss goes non-finite; carries the last good step."""

    def __init__(self, step: int, last_checkpoint):
        super().__init__(
            f"non-finite loss at step {step}; last good checkpoint: "
            f"{last_checkpoint}")
        self.step = step
        self.last_checkpoint = last_checkpoint


def cosine_lr(step: int, total_steps: int, peak: float,
              warmup_frac: float = 0.05) -> float:
    """Linear warmup to the peak, then cosine decay to peak * 1e-6.

    ``step`` is 1-based; the warmup occupies ``warmup_frac`` of the run.
    """
    warmup = max(1, int(math.ceil(warmup_frac * total_steps)))
    if step <= warmup:
        return peak * step / warmup
    span = max(1, total_steps - warmup)
    progress = (step - warmup) / span
    floor = peak * _FLOOR_FRAC
    return floor + 0.5 * (peak - floor) * (1.0 + math.cos(math.pi * progress))


class AdamW:
    """Decoupled weight decay Adam; state keyed by parameter name.

    The moments are kept in f64. Each parameter is updated in place, block
    by block over its flat view, so no temporary outgrows a cache-sized
    block; every element sees the same operations in the same order as the
    whole-array formula, so the result does not depend on the blocking.
    """

    def __init__(self, betas=(0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0):
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def step(self, params: dict[str, Tensor], grads: dict[str, np.ndarray],
             lr: float):
        self.t += 1
        b1, b2, eps, wd = self.beta1, self.beta2, self.eps, self.weight_decay
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        g64, upd, p64 = (np.empty(_ADAMW_BLOCK) for _ in range(3))
        for name, p in params.items():
            g = np.ravel(grads[name])
            if name not in self.m:
                self.m[name] = np.zeros(np.shape(grads[name]))
                self.v[name] = np.zeros(np.shape(grads[name]))
            if not (p.data.flags.c_contiguous and p.data.flags.writeable):
                p.data = p.data.copy()
            m, v = self.m[name].reshape(-1), self.v[name].reshape(-1)
            flat = p.data.reshape(-1)
            for s in range(0, g.size, _ADAMW_BLOCK):
                e = min(s + _ADAMW_BLOCK, g.size)
                gb, ub, pb = g64[:e - s], upd[:e - s], p64[:e - s]
                mb, vb = m[s:e], v[s:e]
                np.copyto(gb, g[s:e])
                # m = b1 * m + (1 - b1) * g
                np.multiply(mb, b1, out=mb)
                np.multiply(gb, 1 - b1, out=ub)
                np.add(mb, ub, out=mb)
                # v = b2 * v + (1 - b2) * g * g
                np.multiply(vb, b2, out=vb)
                np.multiply(gb, 1 - b2, out=ub)
                np.multiply(ub, gb, out=ub)
                np.add(vb, ub, out=vb)
                # update = (m / bc1) / (sqrt(v / bc2) + eps)
                np.divide(vb, bc2, out=ub)
                np.sqrt(ub, out=ub)
                np.add(ub, eps, out=ub)
                np.divide(mb, bc1, out=gb)
                np.divide(gb, ub, out=ub)
                # p = p - lr * (update + wd * p), then back to p's dtype
                np.copyto(pb, flat[s:e])
                np.multiply(pb, wd, out=gb)
                np.add(ub, gb, out=ub)
                np.multiply(ub, lr, out=ub)
                np.subtract(pb, ub, out=pb)
                np.copyto(flat[s:e], pb, casting="same_kind")


@dataclass
class TrainResult:
    final_acc: float
    final_loss: float
    metrics_path: Path
    checkpoints: list[Path] = field(default_factory=list)
    alpha_drift: dict[str, float] = field(default_factory=dict)

    @property
    def total_drift(self) -> float:
        return float(sum(self.alpha_drift.values()))


def _softmax_np(z):
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def evaluate(model: Backbone, dataset: SyntheticDataset,
             batch_size: int = 64):
    """Top-1 accuracy and mean smoothed-free loss over the whole dataset.

    Deterministic: fixed order, no augmentation, no taping.
    """
    correct = 0
    total_nll = 0.0
    for start in range(0, len(dataset), batch_size):
        idx = np.arange(start, min(start + batch_size, len(dataset)))
        x, y = dataset.batch(idx)
        logits = model.forward(Tensor(x, dtype=model.dtype)).data
        pred = logits.argmax(axis=1)
        correct += int((pred == y).sum())
        p = _softmax_np(logits.astype(np.float64))
        total_nll += float(-np.log(
            np.maximum(p[np.arange(len(idx)), y], 1e-12)).sum())
    return correct / len(dataset), total_nll / len(dataset)


def adaptive_weight_drift(model: Backbone) -> dict[str, float]:
    """Per-block L1 distance of the fusion weights from uniform."""
    out = {}
    for s, blocks in enumerate(model.stages):
        for i, blk in enumerate(blocks):
            if blk.weights is None:
                continue
            w = blk.weights.w.data.astype(np.float64)
            alpha = np.exp(w - w.max())
            alpha /= alpha.sum()
            out[f"stages.{s}.blocks.{i}"] = float(
                np.abs(alpha - 1.0 / alpha.size).sum())
    return out


def _step_gradients(model: Backbone, params: dict[str, Tensor], x, y,
                    cfg: RunConfig, path_rng):
    """One taped forward and backward: (loss, accuracy, gradient by name).

    The tape, logits, loss and gradient tensors are locals, so reference
    counting frees the step's graph on return, before the next forward.
    """
    with Tape() as tape:
        logits = model.forward(Tensor(x, dtype=cfg.dtype), train=True,
                               rng=path_rng)
        loss = softmax_cross_entropy(logits, y, cfg.label_smoothing)
    grad_map = tape.gradients(loss, list(params.values()))
    acc = float((logits.data.argmax(axis=1) == y).mean())
    return (loss.item(), acc,
            {name: grad_map[p].data for name, p in params.items()})


def train_run(cfg: RunConfig, out_dir=None) -> TrainResult:
    cfg.validate()
    out = Path(out_dir if out_dir is not None else cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    dataset = SyntheticDataset(cfg.image_size, cfg.num_classes,
                               cfg.dataset_size, cfg.noise, seed=cfg.seed)
    model = build(cfg.model_config(), seed=cfg.seed, dtype=cfg.dtype)
    params = model.parameters()
    opt = AdamW(weight_decay=cfg.weight_decay)
    data_rng = np.random.default_rng(cfg.seed + 1)
    aug_rng = np.random.default_rng(cfg.seed + 2)
    path_rng = np.random.default_rng(cfg.seed + 3)

    metrics_path = out / "metrics.csv"
    checkpoints: list[Path] = []
    order = dataset.epoch_order(data_rng)
    cursor = 0
    with open(metrics_path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["step", "loss", "lr", "train_acc"])
        for step in range(1, cfg.steps + 1):
            if cursor + cfg.batch_size > len(order):
                order = dataset.epoch_order(data_rng)
                cursor = 0
            idx = order[cursor:cursor + cfg.batch_size]
            cursor += cfg.batch_size
            x, y = dataset.batch(idx, flip_rng=aug_rng)
            lr = cosine_lr(step, cfg.steps, cfg.lr, cfg.warmup_frac)
            try:
                loss_val, acc, grads = _step_gradients(model, params, x, y,
                                                       cfg, path_rng)
            except NonFiniteError:
                raise TrainAbort(step, checkpoints[-1] if checkpoints
                                 else None)
            if not math.isfinite(loss_val):
                raise TrainAbort(step, checkpoints[-1] if checkpoints
                                 else None)
            opt.step(params, grads, lr)
            del grads  # the next forward records without this gradient map
            writer.writerow([step, f"{loss_val:.6f}", f"{lr:.8e}",
                             f"{acc:.6f}"])
            if cfg.checkpoint_interval and \
                    step % cfg.checkpoint_interval == 0:
                ckpt = out / f"ckpt-{step:06d}.mfil"
                save_checkpoint(ckpt, params)
                checkpoints.append(ckpt)
        final_acc, final_loss = evaluate(model, dataset, cfg.batch_size)
        writer.writerow([cfg.steps + 1, f"{final_loss:.6f}", f"{lr:.8e}",
                         f"{final_acc:.6f}"])
    final_ckpt = out / "model-final.mfil"
    save_checkpoint(final_ckpt, params)
    checkpoints.append(final_ckpt)
    return TrainResult(final_acc=final_acc, final_loss=final_loss,
                       metrics_path=metrics_path, checkpoints=checkpoints,
                       alpha_drift=adaptive_weight_drift(model))


def compare_scan_modes(cfg: RunConfig, modes=("single_flatten",
                                              "multi_filter"),
                       out_dir=None) -> list[dict]:
    """Train each scan mode under the identical budget; emit comparison rows.

    No ordering between the modes is asserted, only completion; accuracy
    differences at this scale are not evidence either way.
    """
    rows = []
    for mode in modes:
        run_cfg = cfg.with_overrides(scan_mode=mode)
        run_out = Path(out_dir if out_dir is not None
                       else cfg.out_dir) / f"scan-{mode}"
        result = train_run(run_cfg, run_out)
        rows.append({"scan_mode": mode, "steps": cfg.steps,
                     "final_acc": result.final_acc,
                     "final_loss": result.final_loss})
    return rows
