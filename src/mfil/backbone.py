"""Hierarchical four-stage backbone with patch stem and classifier head.

Stem: 4x4 stride-4 convolution (3 -> dims[0]) plus layer norm, so a 224x224
image becomes a 56x56 grid. Each stage runs its blocks at constant width,
then a 2x2 stride-2 convolution doubles the channels and halves the grid;
the head is layer norm, global average pooling, and a linear classifier.
Images are NCHW; the stem transposes them once, and every map from there
to the head is channel-last, [B, H, W, C]. ``Backbone`` holds a network
as one ordered list of ``Segment``s, each owning the parameters under its
name prefix. Two builders fill it: ``build`` draws the MFil network, where
a block is two segments of one name, its mixer half and its FFN half, built
from its stage width and the ``VariantConfig``, which holds every other
block option; ``build_conv_baseline`` draws the receptive-field ablation,
the same skeleton with conv segments.
``count_params`` and ``count_flops`` sum one cost table, ``_costs``: the
stem, downsample and head rows are written there, and each stage's row
comes from ``block.block_cost``.
Named variants: tiny/small at widths (94, 188, 376, 752) with depths
(1, 3, 8, 2) and (2, 2, 18, 2); base at (128, 256, 512, 1024) with depths
(2, 2, 18, 2); desk is a scaled-down instance for tests and training demos.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .block import MfilBlock, _widths, block_cost
from .init import trunc_normal
from .scan import SCAN_MODES
from .tensor import (Tensor, conv2d, layer_norm, linear, silu, tmean,
                     transpose)

__all__ = [
    "VariantConfig", "tiny", "small", "base", "desk", "Segment", "Backbone",
    "build", "build_conv_baseline", "count_params", "count_flops",
    "REFERENCE_PARAMS", "REFERENCE_FLOPS",
]

# Reference sizes reported for the published variants (224x224 input for the
# flop figures); reports print percent deviation against these.
REFERENCE_PARAMS = {"tiny": 33.5e6, "small": 50.6e6, "base": 93.1e6}
REFERENCE_FLOPS = {"tiny": 5.6e9, "small": 9.1e9, "base": 16.8e9}


@dataclass(frozen=True)
class VariantConfig:
    dims: tuple[int, int, int, int]
    depths: tuple[int, int, int, int]
    d_state: int = 1
    ssm_ratio: float = 1.0
    ffn_ratio: float = 4.0
    num_classes: int = 1000
    drop_path: float = 0.0
    scan_mode: str = "multi_filter"
    adaptive_weighting: bool = True
    exact_input_discretization: bool = False
    segment_reset: bool = False

    def __post_init__(self):
        if len(self.dims) != 4 or len(self.depths) != 4:
            raise ValueError("dims and depths must each have four entries")
        if any(d < 1 for d in self.depths):
            raise ValueError(f"depths must all be >= 1, got {self.depths}")
        if any(b <= a for a, b in zip(self.dims, self.dims[1:])):
            raise ValueError(
                f"dims must be strictly increasing, got {self.dims}")
        if self.scan_mode not in SCAN_MODES:
            raise ValueError(f"unknown scan_mode {self.scan_mode!r}, "
                             f"expected one of {SCAN_MODES}")
        for name in ("ssm_ratio", "ffn_ratio"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(
                    f"{name} must be finite, got {getattr(self, name)}")
        if self.d_state < 1 or self.ssm_ratio <= 0:
            raise ValueError(
                f"d_state must be >= 1 and ssm_ratio positive, got "
                f"d_state {self.d_state} and ssm_ratio {self.ssm_ratio}")
        if not self.num_classes >= 1:
            raise ValueError(
                f"num_classes must be >= 1, got {self.num_classes}")
        if not self.ffn_ratio > 0:
            raise ValueError(
                f"ffn_ratio must be positive, got {self.ffn_ratio}")
        if not 0.0 <= self.drop_path < 1.0:
            raise ValueError(
                f"drop_path must be in [0, 1), got {self.drop_path}")
        widths = _widths(min(self.dims), self)
        if min(widths) < 1:
            raise ValueError(
                f"ssm_ratio {self.ssm_ratio} and ffn_ratio {self.ffn_ratio} "
                f"give block widths {widths} at dim {min(self.dims)}; both "
                "must be >= 1")

    def with_overrides(self, **kw) -> "VariantConfig":
        return replace(self, **kw)


def tiny(num_classes: int = 1000, **kw) -> VariantConfig:
    return VariantConfig((94, 188, 376, 752), (1, 3, 8, 2),
                         num_classes=num_classes, **kw)


def small(num_classes: int = 1000, **kw) -> VariantConfig:
    return VariantConfig((94, 188, 376, 752), (2, 2, 18, 2),
                         num_classes=num_classes, **kw)


def base(num_classes: int = 1000, **kw) -> VariantConfig:
    return VariantConfig((128, 256, 512, 1024), (2, 2, 18, 2),
                         num_classes=num_classes, **kw)


def desk(num_classes: int = 4, **kw) -> VariantConfig:
    """Small instance for tests; follows the same width-doubling law."""
    return VariantConfig((8, 16, 32, 64), (1, 1, 2, 1),
                         num_classes=num_classes, **kw)


VARIANTS = {"tiny": tiny, "small": small, "base": base, "desk": desk}

_TOTAL_STRIDE = 32  # 4 * 2^3


def _param(data: np.ndarray, dtype: str) -> Tensor:
    return Tensor(data, dtype=dtype, grad_enabled=True)


@dataclass(frozen=True)
class Segment:
    """One step of the forward pass and the parameters it owns.

    ``run(x, train, rng)`` maps the segment's input to its output; the
    parameters are registered as ``f"{name}.{key}"``. ``feature`` marks a
    segment whose output is one of the ``forward_features`` maps.
    """

    name: str
    params: dict[str, Tensor]
    run: Callable[[Tensor, bool, np.random.Generator | None], Tensor]
    feature: bool = False

    def parameters(self) -> dict[str, Tensor]:
        return {f"{self.name}.{k}": v for k, v in self.params.items()}


def _patch_merge(name: str, c_in: int, c_out: int, k: int, rng,
                 dtype: str) -> Segment:
    """k x k stride-k convolution plus layer norm of a channel-last map.

    The convolution is a patchify: each output pixel is one linear map of
    a k x k patch.
    """
    conv = _param(trunc_normal(rng, (c_out, c_in, k, k)), dtype)
    gamma = _param(np.ones(c_out), dtype)
    beta = _param(np.zeros(c_out), dtype)

    def run(x, train, rng):
        return layer_norm(conv2d(x, conv, stride=k, padding=0), gamma, beta)
    return Segment(name, {"conv.weight": conv, "norm.gamma": gamma,
                          "norm.beta": beta}, run)


def _image_stem(merge: Segment) -> Segment:
    """``merge`` run on NCHW images, transposed to channel-last first."""
    def run(images, train, rng):
        return merge.run(transpose(images, (0, 2, 3, 1)), train, rng)
    return replace(merge, run=run)


def _check_divisible(h: int, w: int):
    if h % _TOTAL_STRIDE or w % _TOTAL_STRIDE:
        raise ValueError(
            f"input spatial size {h}x{w} must be divisible by "
            f"{_TOTAL_STRIDE}")


class Backbone:
    """Instantiated network: one ordered list of segments.

    ``build`` and ``build_conv_baseline`` draw the parameters and hand the
    list over; the container draws nothing. The forward passes and the
    parameter registry all walk that list, so a parameter feeds only its
    own segment and the ones after it.
    """

    def __init__(self, config: VariantConfig, segments: list[Segment],
                 dtype: str):
        self.config = config
        self.segments = segments
        self.dtype = dtype

    def parameters(self) -> dict[str, Tensor]:
        out = {}
        for seg in self.segments:
            out.update(seg.parameters())
        return out

    def _check_input(self, images: Tensor):
        if images.data.ndim != 4 or images.shape[1] != 3:
            raise ValueError(
                f"expected images [B, 3, H, W], got {images.shape}")
        _check_divisible(*images.shape[2:])

    def forward_features(self, images: Tensor):
        """Eval-mode outputs of the feature segments, each stage's and the
        head's: five channel-last maps, [B, H, W, C]. The walk stops at the
        last feature segment."""
        self._check_input(images)
        x, feats = images, []
        last = max(i for i, seg in enumerate(self.segments) if seg.feature)
        for seg in self.segments[:last + 1]:
            x = seg.run(x, False, None)
            if seg.feature:
                feats.append(x)
        return feats

    def forward(self, images: Tensor, train: bool = False,
                rng: np.random.Generator | None = None) -> Tensor:
        self._check_input(images)
        return self.forward_from(0, images, train, rng)

    __call__ = forward

    def forward_from(self, k: int, x: Tensor, train: bool = False,
                     rng: np.random.Generator | None = None) -> Tensor:
        """Logits from ``x``, the input of segment ``k``, by segments k on.

        Given the input ``segment_inputs`` recorded for segment k, this is
        the same ops on the same arrays as ``forward``, so the logits are
        byte-identical.
        """
        for seg in self.segments[k:]:
            x = seg.run(x, train, rng)
        return x

    def segment_inputs(self, images: Tensor) -> list[Tensor]:
        """The input of every segment in an eval-mode forward, in order."""
        self._check_input(images)
        inputs = [images]
        for seg in self.segments[:-1]:
            inputs.append(seg.run(inputs[-1], False, None))
        return inputs


def build(config: VariantConfig, seed: int = 0, dtype: str = "f32") -> Backbone:
    """The MFil network; parameters are deterministic in the seed.

    Segments: the stem, each block's mixer half and FFN half and each
    downsample in stage order, the head norm and the classifier.
    """
    rng = np.random.default_rng(seed)
    d = config.dims
    segments = [_image_stem(_patch_merge("stem", 3, d[0], 4, rng, dtype))]
    for s in range(4):
        for i in range(config.depths[s]):
            blk = MfilBlock(d[s], config, rng=rng, dtype=dtype)
            # Two segments per block under one name; the halves are bound
            # here, so a wrapper set on MfilBlock after build does not
            # apply to them.
            name = f"stages.{s}.blocks.{i}"
            segments += [
                Segment(name, blk.mixer_parameters(), blk.mixer_forward),
                Segment(name, blk.ffn_parameters(), blk.ffn_forward,
                        feature=i == config.depths[s] - 1)]
        if s < 3:
            segments.append(_patch_merge(
                f"downsample.{s}", d[s], d[s + 1], 2, rng, dtype))
    gamma = _param(np.ones(d[3]), dtype)
    beta = _param(np.zeros(d[3]), dtype)
    segments.append(Segment(
        "head.norm", {"gamma": gamma, "beta": beta},
        lambda x, train, rng: layer_norm(x, gamma, beta), feature=True))
    weight = _param(trunc_normal(rng, (config.num_classes, d[3])), dtype)
    bias = _param(np.zeros(config.num_classes), dtype)

    def classify(x, train, rng):
        return linear(tmean(x, axis=(1, 2)), weight, bias)
    segments.append(Segment(
        "head.fc", {"weight": weight, "bias": bias}, classify))
    return Backbone(config, segments, dtype)


def build_conv_baseline(config: VariantConfig, seed: int = 0,
                        dtype: str = "f32") -> Backbone:
    """Same skeleton with every block replaced by a plain 3x3 conv + SiLU.

    Receptive-field ablation: the theoretical footprint of the final center
    unit is bounded, unlike the scanned model's. Its segments are the stem
    convolution, each stage's convolutions, each downsample convolution and
    an identity ``head``, so ``forward`` returns the last feature map.
    """
    rng = np.random.default_rng(seed)
    d = config.dims

    def conv(name, key, shape, std, stride, padding=0, act=None,
             feature=False):
        w = _param(trunc_normal(rng, shape, std=std), dtype)

        def run(x, train, rng):
            y = conv2d(x, w, stride=stride, padding=padding)
            return y if act is None else act(y)
        return Segment(name, {key: w}, run, feature)

    segments = [_image_stem(
        conv("stem", "conv.weight", (d[0], 3, 4, 4), 0.02, 4))]
    for s in range(4):
        n = config.depths[s]
        segments += [
            conv(f"stages.{s}.convs.{i}", "weight", (d[s], d[s], 3, 3),
                 0.1, 1, padding=1, act=silu, feature=i == n - 1)
            for i in range(n)]
        if s < 3:
            segments.append(conv(
                f"downsample.{s}", "conv.weight",
                (d[s + 1], d[s], 2, 2), 0.1, 2))
    segments.append(
        Segment("head", {}, lambda x, train, rng: x, feature=True))
    return Backbone(config, segments, dtype)


# ---------------------------------------------------------------------------
# Analytic parameter and flop counts

def _costs(config: VariantConfig, H: int,
           W: int) -> list[tuple[int, float, float]]:
    """(parameters, flops per image, flops per forward) of each part of the
    network on HxW images, under ``block.block_cost``'s counting rules."""
    _check_divisible(H, W)
    d, k = config.dims, config.num_classes
    hw = (H // 4) * (W // 4)
    rows = [(3 * 16 * d[0] + 2 * d[0], hw * d[0] * (3 * 16 + 5), 0)]  # stem
    for s in range(4):
        params, per_pixel, per_forward = block_cost(d[s], config)
        n = config.depths[s]
        rows.append((n * params, n * hw * per_pixel, n * per_forward))
        if s < 3:
            hw //= 4
            rows.append((4 * d[s] * d[s + 1] + 2 * d[s + 1],  # downsample
                         hw * d[s + 1] * (4 * d[s] + 5), 0))
    rows.append((2 * d[3] + k * d[3] + k, 5 * hw * d[3] + k * d[3], 0))  # head
    return rows


def count_params(config: VariantConfig) -> int:
    """Closed-form learnable-parameter count; equals the instantiated tally."""
    return sum(row[0] for row in _costs(config, _TOTAL_STRIDE, _TOTAL_STRIDE))


def count_flops(config: VariantConfig, H: int, W: int,
                batch: int = 1) -> float:
    """Forward cost for a batch of HxW images under the documented rules.

    Equals the instrumented counter of one forward over ``batch`` images:
    per-image terms scale with the batch, and ``exp(A_log)`` and the fusion
    softmax, which see parameters only, are counted once.
    """
    rows = _costs(config, H, W)
    return float(batch * sum(row[1] for row in rows)
                 + sum(row[2] for row in rows))
