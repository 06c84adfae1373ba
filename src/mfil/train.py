"""Deterministic training loop: AdamW, cosine schedule, label smoothing.

One seed fixes everything: parameter init, data order, flip augmentation
and stochastic depth. Metrics go to ``metrics.csv`` (schema
``step,loss,lr,train_acc``); per-step rows hold batch statistics and the
trailing row (step = steps + 1) holds the full-training-set evaluation, so
an immediate ``eval`` reproduces it exactly. Checkpoints are written every
``checkpoint_interval`` steps and at the end; a non-finite loss aborts the
run before its step updates anything, leaving the last good checkpoint in
place.

The optimizer update is fused into the backward: the tape's sweep hands
over each parameter's gradient as soon as no node left reads the
parameter, and AdamW applies it and drops it, so a step never holds a
map of every gradient.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

import numpy as np

from .backbone import Backbone, build
from .checkpoint import save_checkpoint
from .config import RunConfig
from .data import SyntheticDataset
from .tensor import (NonFiniteError, Tape, Tensor, _softmax_np,
                     softmax_cross_entropy)

__all__ = ["TrainAbort", "TrainResult", "cosine_lr", "AdamW", "train_run",
           "evaluate", "adaptive_weight_drift"]

_FLOOR_FRAC = 1e-6  # cosine decays to this fraction of the peak rate
# AdamW's moment decay rates and the term added to the update's
# denominator.
_ADAMW_BETAS = (0.9, 0.999)
_ADAMW_EPS = 1e-8
# f64 elements per AdamW update block: at most three 256 KiB scratch
# buffers, sized to each parameter.
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

    The moments are kept in f64. The update is elementwise, so neither the
    order in which ``step`` receives the gradients nor the blocking changes
    the result: each parameter is updated in place, block by block over its
    flat view, so no temporary outgrows a cache-sized block, and every
    element sees the same operations in the same order as the whole-array
    formula.
    """

    def __init__(self, weight_decay: float = 0.0):
        self.weight_decay = weight_decay
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def step(self, params: dict[str, Tensor],
             grads: Iterable[tuple[str, np.ndarray]], lr: float):
        """Update each parameter as its ``(name, gradient)`` pair arrives,
        so a backward sweep's gradients can be dropped once applied. Every
        parameter must receive exactly one pair."""
        self.t += 1
        (b1, b2), eps, wd = _ADAMW_BETAS, _ADAMW_EPS, self.weight_decay
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        missing = set(params)
        for name, grad in grads:
            missing.remove(name)
            p = params[name]
            g = np.ravel(grad)
            if name not in self.m:
                self.m[name] = np.zeros(np.shape(grad))
                self.v[name] = np.zeros(np.shape(grad))
            if not (p.data.flags.c_contiguous and p.data.flags.writeable):
                p.data = p.data.copy()
            m, v = self.m[name].reshape(-1), self.v[name].reshape(-1)
            flat = p.data.reshape(-1)
            g64, upd, p64 = (np.empty(min(_ADAMW_BLOCK, g.size))
                             for _ in range(3))
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
        if missing:
            raise ValueError(f"AdamW.step: no gradient for {sorted(missing)}")


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
        p = _softmax_np(logits.astype(np.float64), axis=1)
        total_nll += float(-np.log(
            np.maximum(p[np.arange(len(idx)), y], 1e-12)).sum())
    return correct / len(dataset), total_nll / len(dataset)


def adaptive_weight_drift(model: Backbone) -> dict[str, float]:
    """Per-block L1 distance of the fusion weights from uniform."""
    out = {}
    for name, p in model.parameters().items():
        if not name.endswith(".weights.w"):
            continue
        alpha = _softmax_np(p.data.astype(np.float64), axis=0)
        out[name.removesuffix(".weights.w")] = float(
            np.abs(alpha - 1.0 / alpha.size).sum())
    return out


def train_run(cfg: RunConfig) -> TrainResult:
    """Train ``cfg`` from its seed, writing metrics and checkpoints under
    ``cfg.out_dir``. Each step checks its loss before the backward, then
    AdamW consumes the tape's sweep, updating each parameter as soon as its
    gradient is final."""
    cfg.validate()
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    dataset = SyntheticDataset(cfg.image_size, cfg.num_classes,
                               cfg.dataset_size, cfg.noise, seed=cfg.seed)
    model = build(cfg.model_config(), seed=cfg.seed, dtype=cfg.dtype)
    params = model.parameters()
    names = {p: name for name, p in params.items()}
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
                with Tape() as tape:
                    logits = model.forward(Tensor(x, dtype=cfg.dtype),
                                           train=True, rng=path_rng)
                    loss = softmax_cross_entropy(logits, y,
                                                 cfg.label_smoothing)
                loss_val = loss.item()
            except NonFiniteError:
                loss_val = math.nan
            if not math.isfinite(loss_val):  # before any update
                raise TrainAbort(step, checkpoints[-1] if checkpoints
                                 else None)
            acc = float((logits.data.argmax(axis=1) == y).mean())
            opt.step(params, ((names[p], g.data) for p, g in
                              tape.sweep(loss, params.values())), lr)
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

