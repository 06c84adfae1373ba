"""Effective receptive field, input saliency, and the gradient-check harness."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .backbone import Backbone, VariantConfig, build
from .reference import (central_difference, fourth_order_difference,
                        stencil_points)
from .tensor import Tape, Tensor, concat, mul, slice_axis, tsum

__all__ = [
    "ErfMap", "erf", "saliency", "GradcheckReport",
    "gradcheck_suite", "stacked_stencil_losses", "VERIFICATION_SEEDS",
    "max_worker_threads",
]

# Fixed seed list used by the gradient suite and the training smoke checks.
VERIFICATION_SEEDS = (1, 2, 3, 4, 5)

# Sensitivity threshold (relative to the map maximum) below which a cell
# counts as outside the effective field; separates float noise from signal.
COVERAGE_THRESHOLD = 1e-6

# gradcheck_suite: input side, checked elements per group, stencil step,
# relative tolerance, and the absolute floor below which a difference is
# finite-difference roundoff.
GRADCHECK_INPUT_SIZE = 32
GRADCHECK_ELEMENTS = 2
GRADCHECK_STEP = 1e-4
GRADCHECK_TOLERANCE = 1e-4
GRADCHECK_ATOL = 1e-9


def max_worker_threads() -> int:
    """Worker cap from MFIL_THREADS; defaults to 1 (fully deterministic)."""
    raw = os.environ.get("MFIL_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        raise ValueError(f"MFIL_THREADS must be an integer, got {raw!r}")
    return max(1, n)


@dataclass
class ErfMap:
    """Input-sensitivity grid of one output unit; max-normalized."""

    grid: np.ndarray

    def __post_init__(self):
        if np.any(self.grid < 0):
            raise ValueError("sensitivities must be non-negative")
        if self.grid.size and self.grid.max() > 0:
            assert abs(float(self.grid.max()) - 1.0) < 1e-12

    def coverage(self) -> float:
        """Share of cells above ``COVERAGE_THRESHOLD``."""
        return float(np.mean(self.grid > COVERAGE_THRESHOLD))


def _erf_single(model, input_size: int, stage: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal((1, 3, input_size, input_size)),
               dtype=model.dtype, grad_enabled=True)
    with Tape() as tape:
        feats = model.forward_features(x)
        fmap = feats[stage]
        _, h, w, _ = fmap.shape
        center = slice_axis(slice_axis(fmap, 1, h // 2, h // 2 + 1),
                            2, w // 2, w // 2 + 1)
        loss = tsum(center)
        grads = tape.gradients(loss, [x])
    return np.abs(grads[x].data[0]).sum(axis=0)


def erf(model: Backbone, input_size: int, stage: int = 3, samples: int = 16,
        seed: int = 0) -> ErfMap:
    """Average |d(center activation at stage)/d(input)| over random inputs.

    The probed unit is the spatial center of the chosen stage output, summed
    over channels; the per-pixel sensitivity is reduced (summed) over the
    three input channels, averaged over ``samples`` standard-normal inputs,
    and normalized to a max of one. Sample accumulation is ordered, so the
    result is identical for any worker count.
    """
    n_feats = sum(seg.feature for seg in model.segments)
    if not (0 <= stage < n_feats):
        raise ValueError(f"stage {stage} out of range [0, {n_feats})")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    seeds = [seed + i for i in range(samples)]
    workers = min(max_worker_threads(), samples)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            maps = list(pool.map(
                lambda s: _erf_single(model, input_size, stage, s), seeds))
    else:
        maps = [_erf_single(model, input_size, stage, s) for s in seeds]
    acc = np.zeros((input_size, input_size), dtype=np.float64)
    for m in maps:  # fixed order regardless of completion order
        acc += m
    acc /= samples
    peak = acc.max()
    if peak > 0:
        acc = acc / peak
    return ErfMap(acc)


def saliency(model: Backbone, image: Tensor, class_index: int) -> np.ndarray:
    """|d logit[class] / d input| reduced over channels; non-negative [H, W]."""
    if image.data.ndim == 3:
        image = Tensor(image.data[None], dtype=image.dtype)
    n_classes = model.config.num_classes
    if not (0 <= class_index < n_classes):
        raise IndexError(
            f"class index {class_index} out of range [0, {n_classes})")
    x = Tensor(image.data, dtype=image.dtype, grad_enabled=True)
    with Tape() as tape:
        logits = model.forward(x)
        score = tsum(slice_axis(logits, 1, class_index, class_index + 1))
        grads = tape.gradients(score, [x])
    return np.abs(grads[x].data[0]).sum(axis=0)


# ---------------------------------------------------------------------------
# Gradient checking over the full parameter registry

@dataclass
class GradcheckReport:
    """Per-parameter-group comparison of analytic and numeric gradients."""

    entries: dict[str, float] = field(default_factory=dict)
    grad_norms: dict[str, float] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)
    # Loss evaluations of the differences: through the whole network, and
    # from a cached segment input.
    full_evaluations: int = 0
    cached_evaluations: int = 0

    @property
    def passed(self) -> bool:
        return not self.failures

    def evaluations(self) -> str:
        return (f"{self.full_evaluations} full, {self.cached_evaluations} "
                "from cached segment inputs")


def _grad_error(analytic: float, numeric: float) -> float:
    diff = abs(analytic - numeric)
    if diff <= GRADCHECK_ATOL:
        return 0.0
    return diff / max(abs(analytic), abs(numeric))


def stacked_stencil_losses(model: Backbone, k: int, x: Tensor,
                           flat: np.ndarray, elements, h: float,
                           readout: np.ndarray) -> list[list[float]]:
    """Losses at the four ``stencil_points`` of each element, in one batch.

    ``flat`` is a flat view of a parameter of segment ``k`` and ``x`` that
    segment's B=1 input. Segment k runs once per stencil point; its outputs
    are stacked on the batch axis and the rest of the network runs once on
    the stack. Row b's loss is ``sum(logits[b] * readout)``. Each element
    is restored even when the segment raises.
    """
    segment = model.segments[k]
    outs = []
    for i in elements:
        orig = flat[i]
        try:
            for v in stencil_points(orig, h):
                flat[i] = v
                outs.append(segment.run(x, False, None))
        finally:
            flat[i] = orig
    logits = model.forward_from(k + 1, concat(outs, axis=0)).data
    losses = np.sum(logits * readout, axis=1).tolist()
    return [losses[j:j + 4] for j in range(0, len(losses), 4)]


def gradcheck_suite(config: VariantConfig, seed: int) -> GradcheckReport:
    """Check every learnable parameter group against central differences.

    Builds the model in f64, takes a fixed random input and a fixed random
    linear readout of the logits as the scalar loss, then compares the taped
    gradient with a fourth-order central difference at step
    ``GRADCHECK_STEP`` at the largest-gradient element of each group plus
    ``GRADCHECK_ELEMENTS - 1`` seeded-random elements. A group fails above
    ``GRADCHECK_TOLERANCE`` relative error; differences below
    ``GRADCHECK_ATOL`` (finite-difference roundoff floor) pass regardless
    of relative size.

    A parameter feeds only its own segment and those after it, so each
    group's losses start from its segment's input, cached once after the
    taped pass. The segment runs once per stencil point of every checked
    element, and the rest of the network runs once on the stacked outputs
    (``stacked_stencil_losses``). A block is two segments, so its
    ``norm2``/``ffn`` groups rerun only the FFN half, from the cached
    output of the mixer half. Only the stem groups run the whole
    ``model.forward``, once per stencil point. Batching changes only the
    row count some BLAS calls see, so a loss can differ from its B=1 value
    in the last bits.
    """
    rng = np.random.default_rng(seed)
    model = build(config, seed=seed, dtype="f64")
    params = model.parameters()
    size = GRADCHECK_INPUT_SIZE
    x = Tensor(rng.standard_normal((1, 3, size, size)), dtype="f64")
    readout = rng.standard_normal((1, config.num_classes))
    h = GRADCHECK_STEP

    with Tape() as tape:
        logits = model.forward(x)
        loss = tsum(mul(logits, Tensor(readout)))
        grads = dict(tape.sweep(loss, list(params.values())))
    inputs = model.segment_inputs(x)

    report = GradcheckReport()

    def full_loss() -> float:
        report.full_evaluations += 1
        return float(np.sum(model.forward(x).data * readout))

    for k, segment in enumerate(model.segments):
        for name, p in segment.parameters().items():
            g = grads[p].data
            report.grad_norms[name] = float(np.linalg.norm(g))
            flat_idx = [int(np.argmax(np.abs(g)))]
            if p.size > 1:
                extra = rng.integers(0, p.size, size=GRADCHECK_ELEMENTS - 1)
                flat_idx.extend(int(i) for i in extra)
            elements = list(dict.fromkeys(flat_idx))
            flat = p.data.reshape(-1)
            if k == 0:
                numeric = [central_difference(full_loss, flat, i, h)
                           for i in elements]
            else:
                losses = stacked_stencil_losses(model, k, inputs[k], flat,
                                                elements, h, readout)
                report.cached_evaluations += 4 * len(elements)
                numeric = [fourth_order_difference(*row, h)
                           for row in losses]
            gflat = g.reshape(-1)
            worst = 0.0
            for i, d in zip(elements, numeric):
                worst = max(worst, _grad_error(float(gflat[i]), d))
            report.entries[name] = worst
            if worst > GRADCHECK_TOLERANCE:
                report.failures.append(name)
    return report
